//! The metric names the binaries print are exactly those of
//! `BENCHMARK.json`, and `layers.json` describes each of them.

use ascoma_obs::json::{parse, Json};
use perfbench_common::{END_TO_END, PER_LAYER};
use std::path::Path;

fn load(rel: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let text = std::fs::read_to_string(&path).expect("readable");
    parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("array")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let b = load("../../BENCHMARK.json");
    assert_eq!(names_units(b.get("end_to_end").unwrap()), owned(END_TO_END));
    assert_eq!(names_units(b.get("per_layer").unwrap()), owned(PER_LAYER));
}

#[test]
fn layers_json_describes_every_metric_and_workload() {
    let b = load("../../BENCHMARK.json");
    let l = load("../layers.json");
    assert!(
        matches!(l.get("claim"), Some(Json::Null)),
        "no gain is claimed"
    );
    let described: Vec<&str> = l
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(described, listed);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for m in l.get("per_layer").and_then(Json::as_arr).unwrap() {
        for moved in m.get("moves").and_then(Json::as_arr).unwrap() {
            assert!(e2e.contains(&moved.as_str().unwrap()), "{moved:?}");
        }
        for on in m.get("on").and_then(Json::as_arr).unwrap() {
            assert!(workloads.contains(&on.as_str().unwrap()), "{on:?}");
        }
    }
    for w in &workloads {
        assert!(l.get("workloads").and_then(|x| x.get(w)).is_some(), "{w}");
    }
}
