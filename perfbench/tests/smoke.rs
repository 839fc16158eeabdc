//! Tiny-size smoke runs of every workload (16 modules, one operation or
//! pass), plus the agreement between the emitted metric names and
//! `BENCHMARK.json`.

use perfbench::{pipeline, run, spans::Spans, Config, Sizes, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
        }
        _ => panic!("not an object looking up {key}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    match field(v, key) {
        Value::Array(items) => items
            .iter()
            .map(|m| {
                let unit = if key == "workloads" { "" } else { text(field(m, "unit")) };
                (text(field(m, "name")).to_string(), unit.to_string())
            })
            .collect(),
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names(&b, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names(&b, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn smoke(workload: Workload, trace: bool) {
    let out = run(Config { workload, seed: 7, seconds: 0.001, trace, sizes: Sizes::tiny() });
    let r = &out.run;
    assert!(r.attempted > 0, "{}: nothing attempted", workload.name());
    assert_eq!(r.failed, 0, "{} failed: {:#?}", workload.name(), r.failures);
    for (name, _) in END_TO_END {
        let v = out.end_to_end[name];
        assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", workload.name());
    }
    if trace {
        let emitted: Vec<&str> = out.per_layer.keys().map(String::as_str).collect();
        let mut expect: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        expect.sort_unstable();
        assert_eq!(emitted, expect, "{}: per-layer names", workload.name());
        assert!(out.per_layer.values().all(|v| v.is_finite()), "{}", workload.name());
        assert!(!r.spans.list.is_empty());
        let trace: Value = serde_json::from_str(&r.spans.chrome_json()).expect("trace parses");
        assert!(
            matches!(field(&trace, "traceEvents"), Value::Array(e) if e.len() == r.spans.list.len())
        );
    } else {
        assert!(out.per_layer.is_empty());
    }
}

#[test]
fn scale_cold_smoke() {
    smoke(Workload::ScaleCold, false);
    smoke(Workload::ScaleCold, true);
}

#[test]
fn edit_daemon_smoke() {
    smoke(Workload::EditDaemon, false);
    smoke(Workload::EditDaemon, true);
}

/// One traced pass composes all 56 cells and fails on any `.vx`, database
/// or count that differs from the driver's.
#[test]
fn paper_suite_smoke() {
    smoke(Workload::PaperSuite, false);
    smoke(Workload::PaperSuite, true);
}

#[test]
fn composed_pipeline_is_byte_identical_to_compile() {
    use ipra_core::analyzer::AnalyzerOptions;
    use ipra_core::PaperConfig;
    let sources = ipra_workloads::scaled::scaled_program(16);
    for config in [PaperConfig::L2, PaperConfig::C, PaperConfig::D, PaperConfig::E, PaperConfig::P]
    {
        let opts =
            ipra_driver::CompileOptions { jobs: 2, ..ipra_driver::CompileOptions::paper(config) };
        let expect = ipra_driver::compile(&sources, &opts).expect("compiles");
        let mut sp = Spans::new();
        let aopts = AnalyzerOptions::paper_config(config, None);
        let composed = pipeline::build(&sources, &aopts, 2, &mut sp, None, 0).expect("composes");
        assert_eq!(pipeline::vx(&composed.exe), pipeline::vx(&expect.exe), "config {config}");
        assert_eq!(composed.database, expect.database, "config {config}");
        assert_eq!(composed.counts, pipeline::CoreCounts::of(&expect.stats), "config {config}");
        // Worker spans were merged with their parents remapped.
        for s in &sp.list {
            assert!(s.parent.is_none_or(|p| p < sp.list.len()));
        }
    }
}
