//! Shared plumbing for the benchmark/table/figure binaries.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see DESIGN.md §8 for the index); this library holds the argument
//! parsing and the parallel sweep helper they share.

#![warn(missing_docs)]

pub mod diff;
pub mod harness;
pub mod pacing;
pub mod report;
pub mod watch;

use ascoma::experiments::{assemble_figure, figure_cells, run_table6_on, FigureData, Table6Row};
use ascoma::parallel::{effective_jobs, run_indexed};
use ascoma::{simulate, SimConfig};
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};

/// Common CLI options for the table/figure binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Applications to run (default: all six).
    pub apps: Vec<App>,
    /// Memory pressures (default: the paper grid).
    pub pressures: Vec<f64>,
    /// Problem-size class.
    pub size: SizeClass,
    /// Emit CSV instead of text tables.
    pub csv: bool,
    /// Worker threads (`--jobs N`); `None` defers to `ASCOMA_JOBS` or
    /// the machine's available parallelism.
    pub jobs: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            apps: App::ALL.to_vec(),
            pressures: ascoma::experiments::PAPER_PRESSURES.to_vec(),
            size: SizeClass::Default,
            csv: false,
            jobs: None,
        }
    }
}

impl Options {
    /// The effective worker count: `--jobs` > `ASCOMA_JOBS` >
    /// available parallelism.
    pub fn jobs(&self) -> usize {
        effective_jobs(self.jobs)
    }

    /// Parse `--app a,b --pressure 0.1,0.9 --size tiny|default|paper
    /// --jobs N --csv`.
    ///
    /// Exits with a message on malformed input.
    pub fn parse(args: impl Iterator<Item = String>) -> Options {
        let mut opts = Options::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--app" | "--apps" => {
                    let v = args.next().unwrap_or_else(|| die("--app needs a value"));
                    opts.apps = v
                        .split(',')
                        .map(|s| {
                            App::parse(s.trim())
                                .unwrap_or_else(|| die(&format!("unknown app '{s}'")))
                        })
                        .collect();
                }
                "--pressure" | "--pressures" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| die("--pressure needs a value"));
                    opts.pressures = v
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|p| *p > 0.0 && *p <= 1.0)
                                .unwrap_or_else(|| die(&format!("bad pressure '{s}'")))
                        })
                        .collect();
                }
                "--size" => {
                    let v = args.next().unwrap_or_else(|| die("--size needs a value"));
                    opts.size = match v.as_str() {
                        "tiny" => SizeClass::Tiny,
                        "default" => SizeClass::Default,
                        "paper" => SizeClass::Paper,
                        other => die(&format!("unknown size '{other}'")),
                    };
                }
                "--jobs" | "-j" => {
                    let v = args.next().unwrap_or_else(|| die("--jobs needs a value"));
                    let n = v
                        .trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| die(&format!("bad job count '{v}'")));
                    opts.jobs = Some(n);
                }
                "--csv" => opts.csv = true,
                "--help" | "-h" => {
                    eprintln!(
                        "options: --app a,b,.. --pressure 0.1,0.3,.. --size tiny|default|paper \
                         --jobs N --csv\n\
                         worker count: --jobs, else ASCOMA_JOBS, else available parallelism"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown option '{other}'")),
            }
        }
        opts
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Build each requested app's trace exactly once, across the option's
/// worker pool.
pub fn build_traces(opts: &Options, base: &SimConfig) -> Vec<Trace> {
    let page_bytes = base.geometry.page_bytes();
    run_indexed(opts.apps.len(), opts.jobs(), |i| {
        opts.apps[i].build(opts.size, page_bytes)
    })
}

/// Run the figure cross-product for several apps on the shared worker
/// pool.
///
/// Every `(app, arch, pressure)` cell of every figure goes into one
/// global work queue, so a handful of workers stay busy even when one
/// app's cells dominate.  Each app's trace is built exactly once and
/// shared by reference across its cells; results are reassembled in
/// canonical figure order, so the output is byte-identical to running
/// [`ascoma::experiments::run_figure_on`] serially per app.
pub fn run_figures_parallel(opts: &Options, base: &SimConfig) -> Vec<FigureData> {
    let traces = build_traces(opts, base);
    let cells = figure_cells(&opts.pressures, base.pressure);
    // Global work list: app-major, then the canonical per-figure cells.
    let runs = run_indexed(traces.len() * cells.len(), opts.jobs(), |i| {
        let trace = &traces[i / cells.len()];
        let (arch, p) = cells[i % cells.len()];
        let cfg = SimConfig {
            pressure: p,
            ..*base
        };
        simulate(trace, arch, &cfg)
    });
    let mut runs = runs.into_iter();
    traces
        .iter()
        .map(|t| assemble_figure(&t.name, runs.by_ref().take(cells.len()).collect()))
        .collect()
}

/// Run the Table 6 census for several apps on the shared worker pool,
/// one row per app in option order.
pub fn run_table6_parallel(opts: &Options, base: &SimConfig) -> Vec<Table6Row> {
    let traces = build_traces(opts, base);
    run_indexed(traces.len(), opts.jobs(), |i| {
        run_table6_on(&traces[i], base)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Options {
        Options::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_cover_all_apps_and_paper_pressures() {
        let o = Options::default();
        assert_eq!(o.apps.len(), 6);
        assert_eq!(o.pressures.len(), 5);
    }

    #[test]
    fn parse_apps_and_pressures() {
        let o = parse("--app em3d,radix --pressure 0.1,0.9 --size tiny --csv");
        assert_eq!(o.apps, vec![App::Em3d, App::Radix]);
        assert_eq!(o.pressures, vec![0.1, 0.9]);
        assert_eq!(o.size, SizeClass::Tiny);
        assert!(o.csv);
        assert_eq!(o.jobs, None);
    }

    #[test]
    fn parse_jobs_flag() {
        let o = parse("--jobs 3");
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.jobs(), 3);
    }

    #[test]
    fn parallel_sweep_produces_one_figure_per_app() {
        let o = Options {
            apps: vec![App::Ocean, App::Lu],
            pressures: vec![0.5],
            size: SizeClass::Tiny,
            csv: false,
            jobs: Some(2),
        };
        let figs = run_figures_parallel(&o, &SimConfig::default());
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].app, "ocean");
        assert_eq!(figs[1].app, "lu");
    }

    #[test]
    fn cell_parallel_figures_match_serial_per_app() {
        let o = Options {
            apps: vec![App::Em3d, App::Fft],
            pressures: vec![0.1, 0.9],
            size: SizeClass::Tiny,
            csv: false,
            jobs: Some(4),
        };
        let base = SimConfig::default();
        let figs = run_figures_parallel(&o, &base);
        for (app, fig) in o.apps.iter().zip(&figs) {
            let trace = app.build(o.size, base.geometry.page_bytes());
            let serial = ascoma::experiments::run_figure_on(&trace, &o.pressures, &base);
            assert_eq!(fig.app, serial.app);
            assert_eq!(fig.bars.len(), serial.bars.len());
            for (a, b) in fig.bars.iter().zip(&serial.bars) {
                assert_eq!(a.run, b.run);
                assert_eq!(a.relative_time, b.relative_time);
            }
        }
    }
}
