#!/usr/bin/env bash
# Print the Rust line count of the simulator workspace: every `.rs` file
# under crates/ and tests/ (the figure each change reports before and
# after in CHANGES.md).
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates tests -name '*.rs' -print0 | xargs -0 cat | wc -l
