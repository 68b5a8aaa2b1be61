//! The paper-grid pass runs the same engine as the `figures` binary, and
//! the seed reseeds only the seeded generators.

use ascoma::SimConfig;
use ascoma_bench::{run_figures_parallel, Options};
use ascoma_workloads::{App, SizeClass};
use perfbench_sim::grid::{run_grid, runs_of};
use perfbench_sim::{build_app, reseeded};

#[test]
fn grid_pass_equals_run_figures_parallel() {
    let cfg = SimConfig::default();
    let opts = Options {
        size: SizeClass::Tiny,
        jobs: Some(2),
        ..Options::default()
    };
    let traces: Vec<_> = App::ALL
        .iter()
        .map(|a| a.build(SizeClass::Tiny, cfg.geometry.page_bytes()))
        .collect();
    let ours = run_grid(&traces, 2);
    let theirs = run_figures_parallel(&opts, &cfg);
    assert_eq!(runs_of(&ours), runs_of(&theirs));
    assert_eq!(runs_of(&ours).len(), 126);
}

#[test]
fn seed_zero_keeps_the_reference_inputs_and_others_reseed() {
    let page = SimConfig::default().geometry.page_bytes();
    for app in [App::Em3d, App::Radix] {
        let base = app.build(SizeClass::Default, page);
        let zero = build_app(app, 0, page);
        let one = build_app(app, 1, page);
        let ops = |t: &ascoma_workloads::Trace| {
            t.programs
                .iter()
                .flat_map(|p| p.segments.iter().map(|s| s.ops.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(&zero), ops(&base), "{}", app.name());
        assert_ne!(ops(&one), ops(&base), "{}", app.name());
        assert!(reseeded(app.name(), 1) && !reseeded(app.name(), 0));
    }
    assert!(!reseeded("barnes", 7));
}
