//! Metrics front-end: render an HTML run report, compare two baseline
//! JSON files for regressions, or watch a sweep live.
//!
//! ```text
//! cargo run --release -p ascoma-bench --bin bench -- report \
//!     --app em3d --arch ascoma --pressure 0.7 --out report.html
//! cargo run --release -p ascoma-bench --bin bench -- diff \
//!     results/BENCH_perf_reduced.json BENCH_perf.json
//! cargo run --release -p ascoma-bench --bin bench -- watch \
//!     --app em3d,lu --pressure 0.1,0.9 --size tiny
//! cargo run --release -p ascoma-bench --bin bench -- watch \
//!     --tail run.ndjson
//! ```
//!
//! `diff` exits 0 when every deterministic leaf matches, 1 on any
//! regression (see `ascoma_bench::diff` for the classification), 2 on
//! usage errors.  `watch` renders a live ANSI dashboard (per-cell grid
//! progress, free-pool/refetch sparklines, miss percentiles, ETA) for a
//! sweep run in-process, or tails an NDJSON stream written by another
//! process via `--stream`; it degrades to plain line-mode when stdout is
//! not a tty or `TERM=dumb`.

use ascoma::experiments::{figure_stream_cells, run_cells_streamed, StreamSpec};
use ascoma::machine::simulate_measured;
use ascoma::{Arch, SimConfig};
use ascoma_bench::diff::{diff, Severity};
use ascoma_bench::report::render_html;
use ascoma_bench::watch::{line_for, render, WatchState};
use ascoma_bench::{build_traces, pacing, Options};
use ascoma_obs::json;
use ascoma_obs::metrics::DEFAULT_WINDOW;
use ascoma_obs::{parse_stream_line, StreamEvent};
use ascoma_workloads::{App, SizeClass};
use std::io::{IsTerminal, Read, Write};
use std::sync::mpsc;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => report_cmd(&args[1..]),
        Some("soak-report") => soak_report_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some("watch") => watch_cmd(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!(
                "usage: bench report [options]   render an HTML report of one measured run\n\
                 \x20      bench soak-report [FILE] render the fault-soak summary \
                 (default results/FAULT_soak.json)\n\
                 \x20      bench diff OLD NEW       compare two baseline JSON files\n\
                 \x20      bench watch [options]    live dashboard for a sweep (see watch --help)\n\
                 run `bench report --help` / `bench watch --help` for options"
            );
            std::process::exit(if args.is_empty() { 2 } else { 0 });
        }
        Some(other) => die(&format!("unknown subcommand '{other}'")),
    }
}

/// `bench soak-report [FILE] [--out report.html]`: render the fault-soak
/// summary written by `model_check soak` as a self-contained HTML page.
fn soak_report_cmd(args: &[String]) {
    let mut input = String::from("results/FAULT_soak.json");
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--out needs a value"))
                        .clone(),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "bench soak-report [FILE]: render the fault-soak summary JSON as HTML\n\
                     \n\
                     options:\n\
                     \x20 --out FILE      write HTML here (default stdout)"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => input = other.to_string(),
            other => die(&format!("unknown flag '{other}'")),
        }
    }
    let text = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| die(&format!("cannot read {input}: {e}")));
    let summary = json::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {input}: {e}")));
    let html = ascoma_bench::report::render_soak_html(&summary);
    match out {
        Some(path) => {
            std::fs::write(&path, html)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(html.as_bytes());
        }
    }
}

struct ReportOpts {
    app: App,
    size: SizeClass,
    arch: Arch,
    pressure: f64,
    window: u64,
    hot: usize,
    out: Option<String>,
}

fn report_cmd(args: &[String]) {
    let mut o = ReportOpts {
        app: App::Em3d,
        size: SizeClass::Tiny,
        arch: Arch::AsComa,
        pressure: 0.7,
        window: DEFAULT_WINDOW,
        hot: 20,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--app" => {
                let v = val();
                o.app = App::parse(&v).unwrap_or_else(|| die(&format!("unknown app '{v}'")));
            }
            "--size" => {
                o.size = match val().as_str() {
                    "tiny" => SizeClass::Tiny,
                    "default" => SizeClass::Default,
                    "paper" => SizeClass::Paper,
                    v => die(&format!("unknown size '{v}'")),
                };
            }
            "--arch" => {
                let v = val();
                o.arch = Arch::parse(&v).unwrap_or_else(|| die(&format!("unknown arch '{v}'")));
            }
            "--pressure" => {
                o.pressure = val()
                    .parse::<f64>()
                    .ok()
                    .filter(|p| *p > 0.0 && *p <= 1.0)
                    .unwrap_or_else(|| die("bad --pressure (want a value in (0, 1])"));
            }
            "--window" => {
                o.window = val()
                    .parse()
                    .unwrap_or_else(|_| die("bad --window (cycles; 0 disables series)"));
            }
            "--hot" => {
                o.hot = val().parse().unwrap_or_else(|_| die("bad --hot (rows)"));
            }
            "--out" => o.out = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "bench report: run one measured simulation and render an HTML report\n\
                     \n\
                     options:\n\
                     \x20 --app NAME      workload (default em3d)\n\
                     \x20 --size tiny|default|paper (default tiny)\n\
                     \x20 --arch NAME     architecture (default ascoma)\n\
                     \x20 --pressure P    memory pressure in (0,1] (default 0.7)\n\
                     \x20 --window N      time-series window, cycles; 0 disables (default {DEFAULT_WINDOW})\n\
                     \x20 --hot N         hot-page table rows (default 20)\n\
                     \x20 --out FILE      write HTML to FILE (default stdout)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown report option '{other}'")),
        }
    }

    let cfg = SimConfig::at_pressure(o.pressure);
    let trace = o.app.build(o.size, cfg.geometry.page_bytes());
    let (result, events, registry) = simulate_measured(&trace, o.arch, &cfg, o.window);
    let html = render_html(&result, &registry, o.hot);
    match &o.out {
        Some(path) => {
            std::fs::write(path, &html).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!(
                "{}: {} events, {} cycles -> {path} ({} bytes)",
                trace.name,
                events.len(),
                result.cycles,
                html.len()
            );
        }
        None => print!("{html}"),
    }
}

fn diff_cmd(args: &[String]) {
    let [old_path, new_path] = args else {
        die("diff needs exactly two file arguments: OLD NEW");
    };
    let load = |path: &String| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    };
    let rep = diff(&load(old_path), &load(new_path));
    for f in &rep.findings {
        println!("{f}");
    }
    let regressions = rep.of(Severity::Regression).count();
    if regressions > 0 {
        eprintln!(
            "FAIL: {regressions} regression(s) against {old_path} ({} total findings)",
            rep.findings.len()
        );
        std::process::exit(1);
    }
    eprintln!(
        "OK: no regressions against {old_path} ({} advisory, {} new-field)",
        rep.of(Severity::Advisory).count(),
        rep.of(Severity::Warning).count()
    );
}

struct WatchOpts {
    tail: Option<String>,
    once: bool,
    plain: bool,
    fps: f64,
    cadence: u64,
    window: u64,
    stream: Option<String>,
    sweep: Options,
}

fn watch_opts(args: &[String]) -> WatchOpts {
    let mut o = WatchOpts {
        tail: None,
        once: false,
        plain: false,
        fps: 10.0,
        cadence: 200_000,
        window: DEFAULT_WINDOW,
        stream: None,
        sweep: Options::default(),
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
                .clone()
        };
        match a.as_str() {
            "--tail" => o.tail = Some(val()),
            "--once" => o.once = true,
            // --no-color is an alias for --plain: the same degradation
            // path the TERM=dumb autodetection takes.
            "--plain" | "--no-color" => o.plain = true,
            "--fps" => {
                o.fps = val()
                    .parse::<f64>()
                    .ok()
                    .filter(|f| *f > 0.0 && *f <= 60.0)
                    .unwrap_or_else(|| die("bad --fps (frames/sec in (0, 60])"));
            }
            "--cadence" => {
                o.cadence = val()
                    .parse()
                    .ok()
                    .filter(|c| *c > 0)
                    .unwrap_or_else(|| die("bad --cadence (snapshot period, cycles, > 0)"));
            }
            "--window" => {
                o.window = val()
                    .parse()
                    .unwrap_or_else(|_| die("bad --window (series window, cycles; 0 disables)"));
            }
            "--stream" => o.stream = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "bench watch: live dashboard for a sweep\n\
                     \n\
                     attached mode (default): run the figure grid in-process and watch it\n\
                     \x20 --app a,b --pressure p,.. --size tiny|default|paper --jobs N\n\
                     \x20                 sweep selection (as the figures binary)\n\
                     \x20 --cadence N     snapshot period, simulated cycles (default 200000)\n\
                     \x20 --window N      registry series window, cycles (default {DEFAULT_WINDOW})\n\
                     \x20 --stream FILE   also append the NDJSON feed to FILE ('-' = stdout,\n\
                     \x20                 which suppresses the dashboard)\n\
                     \n\
                     tail mode: follow a feed written by another process\n\
                     \x20 --tail FILE     read NDJSON stream events from FILE\n\
                     \x20 --once          stop at end-of-file instead of following\n\
                     \n\
                     display:\n\
                     \x20 --fps N         max repaint rate (default 10)\n\
                     \x20 --plain         force line mode (auto when not a tty / TERM=dumb)\n\
                     \x20 --no-color      alias for --plain"
                );
                std::process::exit(0);
            }
            other => rest.push(other.to_string()),
        }
    }
    o.sweep = Options::parse(rest.into_iter());
    if !std::io::stdout().is_terminal()
        || std::env::var("TERM").map(|t| t == "dumb").unwrap_or(false)
    {
        o.plain = true;
    }
    o
}

/// The consuming half of `bench watch`: stamps progress into events,
/// appends the NDJSON feed, and repaints (or prints lines) at the
/// configured rate.  All wall-clock access goes through
/// [`ascoma_bench::pacing`].
struct Viewer {
    state: WatchState,
    plain: bool,
    quiet: bool,
    clock: pacing::Clock,
    frame_period: f64,
    next_frame: f64,
    ndjson: Option<Box<dyn Write>>,
}

impl Viewer {
    fn new(title: &str, o: &WatchOpts) -> Viewer {
        let mut quiet = false;
        let ndjson: Option<Box<dyn Write>> = match o.stream.as_deref() {
            None => None,
            Some("-") => {
                quiet = true;
                Some(Box::new(std::io::stdout().lock()))
            }
            Some(path) => {
                let f = std::fs::File::create(path)
                    .unwrap_or_else(|e| die(&format!("create {path}: {e}")));
                Some(Box::new(std::io::BufWriter::new(f)))
            }
        };
        if !o.plain && !quiet {
            // Fresh screen, hidden cursor for flicker-free repaints.
            print!("\x1b[2J\x1b[?25l");
        }
        Viewer {
            state: WatchState::new(title),
            plain: o.plain,
            quiet,
            clock: pacing::Clock::start(),
            frame_period: 1.0 / o.fps,
            next_frame: 0.0,
            ndjson,
        }
    }

    fn feed(&mut self, ev: StreamEvent) {
        self.state.elapsed_secs = self.clock.elapsed_secs();
        let ev = self.state.stamped(ev);
        if let Some(w) = &mut self.ndjson {
            let mut line = ev.to_json();
            line.push('\n');
            w.write_all(line.as_bytes())
                .and_then(|()| w.flush())
                .unwrap_or_else(|e| die(&format!("write stream: {e}")));
        }
        self.state.apply(&ev);
        if self.plain && !self.quiet {
            if let Some(line) = line_for(&self.state, &ev) {
                println!("{line}");
            }
        }
    }

    fn tick(&mut self) {
        self.state.elapsed_secs = self.clock.elapsed_secs();
        if self.plain || self.quiet {
            return;
        }
        if self.state.elapsed_secs >= self.next_frame {
            print!("{}", render(&self.state, true));
            let _ = std::io::stdout().flush();
            self.next_frame = self.state.elapsed_secs + self.frame_period;
        }
    }

    fn finish(mut self) {
        self.state.elapsed_secs = self.clock.elapsed_secs();
        if !self.plain && !self.quiet {
            print!("{}", render(&self.state, true));
            // Restore the cursor and park below the frame.
            println!("\x1b[?25h");
        }
        if let Some(w) = &mut self.ndjson {
            w.flush()
                .unwrap_or_else(|e| die(&format!("flush stream: {e}")));
        }
    }
}

fn watch_cmd(args: &[String]) {
    let o = watch_opts(args);
    match o.tail.clone() {
        Some(path) => watch_tail(&path, &o),
        None => watch_attached(&o),
    }
}

fn watch_attached(o: &WatchOpts) {
    let base = SimConfig::default();
    if !o.plain {
        eprintln!("building traces...");
    }
    let traces = build_traces(&o.sweep, &base);
    let cells = figure_stream_cells(&traces, &o.sweep.pressures, &base);
    let jobs = o.sweep.jobs();
    let (tx, rx) = mpsc::channel();
    let spec = StreamSpec::new(tx, o.cadence, o.window);
    let mut viewer = Viewer::new("live sweep", o);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = run_cells_streamed(&cells, &base, jobs, Some(&spec));
        });
        loop {
            match rx.recv_timeout(std::time::Duration::from_millis(50)) {
                Ok(ev) => {
                    let done = matches!(ev, StreamEvent::GridDone { .. });
                    viewer.feed(ev);
                    viewer.tick();
                    if done {
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => viewer.tick(),
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        viewer.finish();
    });
}

fn watch_tail(path: &str, o: &WatchOpts) {
    let mut file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    let mut viewer = Viewer::new(&format!("tail {path}"), o);
    let mut pending = String::new();
    'outer: loop {
        let mut chunk = String::new();
        let n = file
            .read_to_string(&mut chunk)
            .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        if n > 0 {
            pending.push_str(&chunk);
            // Consume only complete lines; a partial tail line stays
            // buffered until the writer finishes it.
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let ev = parse_stream_line(line)
                    .unwrap_or_else(|e| die(&format!("{path}: bad stream line: {e}")));
                let done = matches!(ev, StreamEvent::GridDone { .. });
                viewer.feed(ev);
                if done {
                    break 'outer;
                }
            }
            viewer.tick();
        } else {
            if o.once {
                break;
            }
            viewer.tick();
            pacing::sleep_ms(120);
        }
    }
    viewer.finish();
}
