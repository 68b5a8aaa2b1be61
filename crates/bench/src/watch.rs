//! The live dashboard behind `bench watch`: stream aggregation and pure
//! frame rendering.
//!
//! Everything here is deterministic: [`WatchState`] folds
//! [`StreamEvent`]s, and [`render`] / [`line_for`] are pure functions of
//! that state, so frames are golden-testable byte-for-byte
//! (`tests/watch_golden.rs`).  Wall-clock never enters this module — the
//! driver loop stamps [`WatchState::elapsed_secs`] from the audited
//! [`crate::pacing`] clock, and ETA is plain arithmetic over that stamp
//! and the deterministic cell counts.
//!
//! The ANSI mode is hand-rolled escape codes (no crates): home the
//! cursor, clear to end-of-line after every row, clear the remainder of
//! the screen after the last — repaints don't flicker and leave no
//! residue.  Plain mode (`TERM=dumb`, piped output, `--plain`) degrades
//! to one line per lifecycle event via [`line_for`].

use ascoma_obs::{MissLoc, Snapshot, StreamEvent};

/// How many recent sparkline samples the state retains.
pub const SERIES_KEEP: usize = 64;
/// Sparkline render width in characters.
pub const SPARK_WIDTH: usize = 24;
/// Cell-map render width (cells per row) in characters.
pub const MAP_WIDTH: usize = 64;

/// Lifecycle of one grid cell as seen by the aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Not started yet.
    Pending,
    /// Running on some worker.
    Running,
    /// Finished.
    Done,
}

/// Everything a dashboard frame is rendered from.
#[derive(Debug, Clone)]
pub struct WatchState {
    /// Header title, e.g. `live sweep` or `tail stream.ndjson`.
    pub title: String,
    /// Total grid cells (from `GridStart`, or grown on demand).
    pub total: usize,
    /// Per-cell lifecycle, indexed by cell id.
    pub cells: Vec<CellState>,
    /// Per-cell labels (filled in by `CellStart`).
    pub labels: Vec<String>,
    /// Cells completed.
    pub done: usize,
    /// Snapshots seen across all cells.
    pub snaps: u64,
    /// Wall-clock seconds since the sweep started (stamped by the
    /// driver loop; never read from inside this module).
    pub elapsed_secs: f64,
    /// `GridDone` seen.
    pub finished: bool,
    /// Most recent snapshot and the cell it came from.
    pub last: Option<(u64, Snapshot)>,
    /// Recent machine-wide free-pool totals (one per snapshot).
    pub free_series: Vec<u64>,
    /// Recent machine-wide current-window refetch totals.
    pub refetch_series: Vec<u64>,
}

impl WatchState {
    /// An empty state titled `title`.
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            total: 0,
            cells: Vec::new(),
            labels: Vec::new(),
            done: 0,
            snaps: 0,
            elapsed_secs: 0.0,
            finished: false,
            last: None,
            free_series: Vec::new(),
            refetch_series: Vec::new(),
        }
    }

    fn ensure_cell(&mut self, cell: u64) {
        let need = cell as usize + 1;
        if self.cells.len() < need {
            self.cells.resize(need, CellState::Pending);
            self.labels.resize(need, String::new());
        }
        if self.total < need {
            self.total = need;
        }
    }

    /// Fold one stream event into the state.
    pub fn apply(&mut self, ev: &StreamEvent) {
        match ev {
            StreamEvent::GridStart { cells } => {
                self.total = *cells as usize;
                self.cells.resize(self.total, CellState::Pending);
                self.labels.resize(self.total, String::new());
            }
            StreamEvent::CellStart { cell, label } => {
                self.ensure_cell(*cell);
                self.cells[*cell as usize] = CellState::Running;
                self.labels[*cell as usize] = label.clone();
            }
            StreamEvent::Snap { cell, snap } => {
                self.ensure_cell(*cell);
                self.snaps += 1;
                push_bounded(&mut self.free_series, snap.total_free());
                push_bounded(&mut self.refetch_series, snap.total_refetch());
                self.last = Some((*cell, snap.clone()));
            }
            StreamEvent::CellDone { cell, .. } => {
                self.ensure_cell(*cell);
                if self.cells[*cell as usize] != CellState::Done {
                    self.cells[*cell as usize] = CellState::Done;
                    self.done += 1;
                }
            }
            StreamEvent::GridDone { .. } => self.finished = true,
        }
    }

    /// Cells currently running.
    pub fn running(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| **c == CellState::Running)
            .count()
    }

    /// Deterministic-input ETA: the grid's cell list is fixed up front,
    /// so `elapsed * remaining / done` converges as cells complete.
    /// `None` until the first cell finishes.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.done == 0 || self.total == 0 || self.finished {
            return None;
        }
        let remaining = (self.total - self.done) as f64;
        Some(self.elapsed_secs * remaining / self.done as f64)
    }

    /// Copy of `ev` with grid progress stamped into snapshot frames —
    /// what the NDJSON feed and the renderer actually see.
    pub fn stamped(&self, ev: StreamEvent) -> StreamEvent {
        match ev {
            StreamEvent::Snap { cell, mut snap } => {
                snap.cells_done = self.done as u64;
                snap.cells_total = self.total as u64;
                StreamEvent::Snap { cell, snap }
            }
            other => other,
        }
    }
}

fn push_bounded(series: &mut Vec<u64>, v: u64) {
    series.push(v);
    if series.len() > SERIES_KEEP {
        let excess = series.len() - SERIES_KEEP;
        series.drain(..excess);
    }
}

/// Render `vals`' tail as a block-character sparkline, left-padded with
/// spaces to exactly `width` characters.
pub fn sparkline(vals: &[u64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &vals[vals.len().saturating_sub(width)..];
    let max = tail.iter().copied().max().filter(|m| *m > 0);
    let mut s = String::with_capacity(width * 3);
    for _ in tail.len()..width {
        s.push(' ');
    }
    for &v in tail {
        match max {
            None => s.push(BLOCKS[0]),
            Some(m) => s.push(BLOCKS[((v * 7) / m) as usize]),
        }
    }
    s
}

/// Seconds formatted compactly: `8.4s`, `72.1s`, `--` for `None`.
pub fn fmt_secs(s: Option<f64>) -> String {
    match s {
        Some(v) if v.is_finite() && v >= 0.0 => format!("{v:.1}s"),
        _ => "--".to_string(),
    }
}

/// The per-cell progress map: `█` done, `▶` running, `·` pending, in
/// cell order, wrapped into rows of [`MAP_WIDTH`].
pub fn cell_map(cells: &[CellState]) -> Vec<String> {
    let glyphs: String = cells
        .iter()
        .map(|c| match c {
            CellState::Pending => '·',
            CellState::Running => '▶',
            CellState::Done => '█',
        })
        .collect();
    if glyphs.is_empty() {
        return vec![String::new()];
    }
    glyphs
        .chars()
        .collect::<Vec<_>>()
        .chunks(MAP_WIDTH)
        .map(|c| c.iter().collect())
        .collect()
}

/// Render one full dashboard frame.
///
/// With `ansi` the frame homes the cursor, erases to end-of-line after
/// every row and clears the screen remainder at the end — an in-place
/// repaint.  Without it the same rows are returned as plain text (used
/// by one-shot dumps and the golden fixtures' dumb mode).
pub fn render(st: &WatchState, ansi: bool) -> String {
    let (eol, mut out) = if ansi {
        ("\x1b[K", String::from("\x1b[H"))
    } else {
        ("", String::new())
    };
    let line = |out: &mut String, text: &str| {
        out.push_str(text);
        out.push_str(eol);
        out.push('\n');
    };

    let header = format!(
        "ascoma {} · {}/{} cells · {} running · {} snaps · elapsed {} · eta {}",
        st.title,
        st.done,
        st.total,
        st.running(),
        st.snaps,
        fmt_secs(Some(st.elapsed_secs)),
        fmt_secs(st.eta_secs()),
    );
    if ansi {
        line(&mut out, &format!("\x1b[1m{header}\x1b[0m"));
    } else {
        line(&mut out, &header);
    }

    for (i, row) in cell_map(&st.cells).iter().enumerate() {
        let prefix = if i == 0 { "cells  " } else { "       " };
        line(&mut out, &format!("{prefix}{row}"));
    }

    let free_now = st.free_series.last().copied();
    let refetch_now = st.refetch_series.last().copied();
    line(
        &mut out,
        &format!(
            "free   {} {}",
            sparkline(&st.free_series, SPARK_WIDTH),
            free_now.map_or_else(|| "--".to_string(), |v| format!("{v} frames")),
        ),
    );
    line(
        &mut out,
        &format!(
            // The series is the *windowed* refetch rate: capacity
            // refetches in the snapshot's current window, not a
            // cumulative count — hence the explicit unit label.
            "refet  {} {}",
            sparkline(&st.refetch_series, SPARK_WIDTH),
            refetch_now.map_or_else(|| "--".to_string(), |v| format!("{v} refetch/win")),
        ),
    );

    line(
        &mut out,
        "miss latency (cycles)     count      p50      p95      p99      max",
    );
    match &st.last {
        Some((cell, snap)) => {
            for (loc, d) in MissLoc::ALL.iter().zip(snap.miss.iter()) {
                line(
                    &mut out,
                    &format!(
                        "  {:<19} {:>9} {:>8} {:>8} {:>8} {:>8}",
                        loc.name(),
                        d.count,
                        d.p50,
                        d.p95,
                        d.p99,
                        d.max
                    ),
                );
            }
            let label = st
                .labels
                .get(*cell as usize)
                .filter(|l| !l.is_empty())
                .map_or("?", String::as_str);
            line(
                &mut out,
                &format!(
                    "last   cell {cell} {label} · t {} · snap #{} · backlog {}",
                    snap.cycle,
                    snap.seq,
                    snap.total_backlog()
                ),
            );
        }
        None => {
            for loc in MissLoc::ALL {
                line(
                    &mut out,
                    &format!(
                        "  {:<19} {:>9} {:>8} {:>8} {:>8} {:>8}",
                        loc.name(),
                        "-",
                        "-",
                        "-",
                        "-",
                        "-"
                    ),
                );
            }
            line(&mut out, "last   (waiting for first snapshot)");
        }
    }
    if st.finished {
        line(
            &mut out,
            &format!(
                "sweep complete · {} cells in {}",
                st.done,
                fmt_secs(Some(st.elapsed_secs))
            ),
        );
    }
    if ansi {
        out.push_str("\x1b[J");
    }
    out
}

/// Plain line-mode output: one line per lifecycle event, `None` for
/// events (snapshots) that would be too chatty on a dumb terminal.
/// Call *after* [`WatchState::apply`] so counts include `ev` itself.
pub fn line_for(st: &WatchState, ev: &StreamEvent) -> Option<String> {
    match ev {
        StreamEvent::GridStart { cells } => Some(format!("sweep: {cells} cells")),
        // done + running = cells dispatched so far.
        StreamEvent::CellStart { label, .. } => Some(format!(
            "[{:>3}/{}] start {label}",
            st.done + st.running(),
            st.total,
        )),
        StreamEvent::CellDone { cell, cycles } => {
            let label = st
                .labels
                .get(*cell as usize)
                .filter(|l| !l.is_empty())
                .map_or("?", String::as_str);
            Some(format!(
                "[{:>3}/{}] done  {label} · {cycles} cycles · elapsed {} · eta {}",
                st.done,
                st.total,
                fmt_secs(Some(st.elapsed_secs)),
                fmt_secs(st.eta_secs()),
            ))
        }
        StreamEvent::GridDone { cells } => Some(format!(
            "sweep complete: {cells} cells in {}",
            fmt_secs(Some(st.elapsed_secs))
        )),
        StreamEvent::Snap { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_pads_and_scales() {
        assert_eq!(sparkline(&[], 4), "    ");
        assert_eq!(sparkline(&[0, 0], 4), "  ▁▁");
        assert_eq!(sparkline(&[1, 7, 14], 3), "▁▄█");
        // Only the tail is rendered.
        assert_eq!(sparkline(&[9, 9, 1, 2], 2), "▄█");
    }

    #[test]
    fn state_tracks_lifecycle_and_eta() {
        let mut st = WatchState::new("live sweep");
        st.apply(&StreamEvent::GridStart { cells: 4 });
        assert_eq!(st.total, 4);
        st.apply(&StreamEvent::CellStart {
            cell: 0,
            label: "a".into(),
        });
        st.apply(&StreamEvent::CellStart {
            cell: 1,
            label: "b".into(),
        });
        assert_eq!(st.running(), 2);
        assert_eq!(st.eta_secs(), None, "no cell finished yet");
        st.apply(&StreamEvent::CellDone { cell: 0, cycles: 9 });
        st.elapsed_secs = 10.0;
        assert_eq!(st.done, 1);
        assert_eq!(st.eta_secs(), Some(30.0), "3 remaining at 10s/cell");
        // A duplicate done must not double-count.
        st.apply(&StreamEvent::CellDone { cell: 0, cycles: 9 });
        assert_eq!(st.done, 1);
        st.apply(&StreamEvent::GridDone { cells: 4 });
        assert!(st.finished);
        assert_eq!(st.eta_secs(), None, "no eta after completion");
    }

    #[test]
    fn stamping_fills_grid_progress() {
        let mut st = WatchState::new("t");
        st.apply(&StreamEvent::GridStart { cells: 7 });
        st.apply(&StreamEvent::CellDone { cell: 3, cycles: 1 });
        let snap = Snapshot {
            seq: 1,
            cycle: 10,
            events: 2,
            cells_done: 0,
            cells_total: 0,
            nodes: vec![],
            miss: Default::default(),
        };
        let StreamEvent::Snap { snap, .. } = st.stamped(StreamEvent::Snap { cell: 0, snap }) else {
            panic!("variant changed")
        };
        assert_eq!((snap.cells_done, snap.cells_total), (1, 7));
    }

    #[test]
    fn cell_map_wraps_rows() {
        let cells = vec![CellState::Done; MAP_WIDTH + 3];
        let rows = cell_map(&cells);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].chars().count(), MAP_WIDTH);
        assert_eq!(rows[1].chars().count(), 3);
        assert_eq!(cell_map(&[]), vec![String::new()]);
    }

    #[test]
    fn render_is_deterministic() {
        let mut st = WatchState::new("live sweep");
        st.apply(&StreamEvent::GridStart { cells: 3 });
        st.elapsed_secs = 1.5;
        assert_eq!(render(&st, true), render(&st, true));
        assert_eq!(render(&st, false), render(&st, false));
        assert!(render(&st, true).starts_with("\x1b[H"));
        assert!(!render(&st, false).contains('\x1b'));
    }
}
