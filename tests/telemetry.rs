//! Telemetry suite: the pipeline collector and the simulator profiler are
//! *pure observation*.
//!
//! Three invariants, matching `docs/telemetry.md`:
//!
//! * attaching a collector never changes what a build produces — the
//!   linked executable and the analyzer database are bit-identical with
//!   telemetry on or off, under every paper configuration;
//! * counter profiles are identical between the fast and reference
//!   engines on every workload (the profiler records raw per-pc counts in
//!   both engines; every derived view totals to the run's cycle count);
//! * the exported metrics JSON is byte-deterministic: `--jobs 1` and
//!   `--jobs 4` builds of the same program produce identical bytes, and
//!   every exported trace is well-formed (every `B` has a matching `E`,
//!   nesting balanced per lane, pids/tids present).

use ipra_core::PaperConfig;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions};
use ipra_telemetry::Telemetry;
use serde::Value;
use std::collections::HashMap;
use vpr::SimOptions;

/// Asserts Chrome-trace shape: a `traceEvents` array whose events carry
/// name/cat/ph/ts/pid/tid, with `pid` always 1 and, per lane, `B`/`E`
/// events forming a balanced, properly nested sequence.
fn assert_trace_well_formed(json: &str, label: &str) {
    let v: Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("{label}: bad JSON: {e}"));
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        panic!("{label}: no traceEvents array");
    };
    assert!(!events.is_empty(), "{label}: empty trace");
    let int = |v: &Value, key: &str| -> i64 {
        match v.get(key) {
            Some(Value::Int(n)) => *n,
            Some(Value::UInt(n)) => *n as i64,
            other => panic!("{label}: event field {key} missing or non-integer: {other:?}"),
        }
    };
    let text = |v: &Value, key: &str| -> String {
        match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{label}: event field {key} missing or non-string: {other:?}"),
        }
    };
    let mut stacks: HashMap<i64, Vec<String>> = HashMap::new();
    for e in events {
        assert_eq!(int(e, "pid"), 1, "{label}: pid is always 1");
        let lane = int(e, "tid");
        let name = text(e, "name");
        let _ = text(e, "cat");
        let _ = int(e, "ts");
        let stack = stacks.entry(lane).or_default();
        match text(e, "ph").as_str() {
            "B" => stack.push(name),
            "E" => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("{label}: E event for `{name}` on lane {lane} with no open span")
                });
                assert_eq!(open, name, "{label}: spans not properly nested on lane {lane}");
            }
            other => panic!("{label}: unexpected phase `{other}`"),
        }
    }
    for (lane, stack) in &stacks {
        assert!(stack.is_empty(), "{label}: unfinished spans on lane {lane}: {stack:?}");
    }
}

fn build(
    sources: &[ipra_driver::SourceFile],
    config: PaperConfig,
    training: &[i64],
    opts: &CompileOptions,
) -> ipra_driver::CompiledProgram {
    compile_configured(sources, config, training, opts, &CompilationCache::new())
        .unwrap_or_else(|e| panic!("{config}: compile error {e}"))
        .unwrap_or_else(|e| panic!("{config}: training trap {e}"))
}

#[test]
fn telemetry_never_perturbs_builds_under_any_config() {
    let w = ipra_workloads::by_name("dhrystone").expect("dhrystone workload");
    for config in PaperConfig::ALL_WITH_ALIAS {
        let plain = build(&w.sources, config, &w.training_input, &CompileOptions::default());
        let tele = Telemetry::new();
        let opts = CompileOptions { telemetry: Some(tele.clone()), ..CompileOptions::default() };
        let observed = build(&w.sources, config, &w.training_input, &opts);
        assert_eq!(observed.exe, plain.exe, "{config}: telemetry changed the executable");
        assert_eq!(
            serde_json::to_string(&observed.database).expect("serialize"),
            serde_json::to_string(&plain.database).expect("serialize"),
            "{config}: telemetry changed the analyzer database"
        );
        assert!(tele.event_count() > 0, "{config}: no spans recorded");
        // Profile-fed configs build twice: the training baseline, then the
        // profile-directed build.
        let expected_builds = if config.wants_profile() { 2 } else { 1 };
        assert_eq!(tele.counter("build.builds"), expected_builds, "{config}: build counter");
        assert_trace_well_formed(&tele.chrome_trace_json(), &format!("{config}"));
        // Profile-fed configs must account for their training run.
        if config.wants_profile() {
            assert_eq!(tele.counter("sim.training.runs"), 1, "{config}: training counter");
            assert!(tele.counter("sim.training.cycles") > 0, "{config}: training cycles");
        }
    }
}

#[test]
fn counter_profiles_identical_across_engines_on_every_workload() {
    for w in ipra_workloads::all() {
        let program =
            build(&w.sources, PaperConfig::C, &w.training_input, &CompileOptions::default());
        let opts = SimOptions { input: w.input.clone(), profile: true, ..SimOptions::default() };
        let trap = |e| panic!("{}: trap {e}", w.name);
        let fast = &vpr::run_with(&program.exe, &opts).unwrap_or_else(trap);
        let reference = &vpr::sim::run_reference(&program.exe, &opts).unwrap_or_else(trap);
        assert_eq!(fast, reference, "{}: engines diverged with profiling on", w.name);
        let fp = fast.profile.as_ref().expect("profiling was requested");
        let rp = reference.profile.as_ref().expect("profiling was requested");
        assert_eq!(fp, rp, "{}: raw pc counts differ", w.name);
        assert_eq!(
            fp.sim_counters(&program.exe, &fast.stats),
            rp.sim_counters(&program.exe, &reference.stats),
            "{}: derived counters differ",
            w.name
        );
        // Every derived view totals to the run's cycles, exactly.
        assert_eq!(fp.total(), fast.stats.cycles, "{}: profile total", w.name);
        let hist = fp.opcode_histogram(&program.exe);
        assert_eq!(hist.values().sum::<u64>(), fast.stats.cycles, "{}: histogram total", w.name);
        let blocks = fp.block_counts(&program.exe);
        assert_eq!(
            blocks.iter().map(|b| b.cycles).sum::<u64>(),
            fast.stats.cycles,
            "{}: block total",
            w.name
        );
        let procs = fp.proc_table(&program.exe);
        assert_eq!(
            procs.iter().map(|r| r.self_cycles).sum::<u64>(),
            fast.stats.cycles,
            "{}: proc total",
            w.name
        );
    }
}

#[test]
fn metrics_json_is_byte_identical_across_jobs_widths() {
    let sources = ipra_workloads::scaled::scaled_program(8);
    let mut exports = Vec::new();
    for jobs in [1, 4] {
        let tele = Telemetry::new();
        let opts =
            CompileOptions { jobs, telemetry: Some(tele.clone()), ..CompileOptions::default() };
        let program = build(&sources, PaperConfig::C, &[], &opts);
        assert_trace_well_formed(&tele.chrome_trace_json(), &format!("jobs={jobs}"));
        exports.push((tele.metrics_json(), program.exe));
    }
    assert_eq!(exports[0].1, exports[1].1, "jobs width changed the executable");
    assert_eq!(exports[0].0, exports[1].0, "metrics JSON not byte-identical across jobs widths");
    assert!(exports[0].0.contains("\"phase1.misses\": 8"), "expected per-module counters");
}

#[test]
fn trace_spans_cover_the_pipeline_and_workers_get_lanes() {
    let sources = ipra_workloads::scaled::scaled_program(8);
    let tele = Telemetry::new();
    let opts =
        CompileOptions { jobs: 4, telemetry: Some(tele.clone()), ..CompileOptions::default() };
    build(&sources, PaperConfig::C, &[], &opts);
    let json = tele.chrome_trace_json();
    for span in ["\"build\"", "\"phase1\"", "\"analyze\"", "\"phase2\"", "\"link\""] {
        assert!(json.contains(span), "trace missing the {span} span");
    }
    // Per-module tasks run on the worker pool, whose lanes are 1..=jobs
    // (lane 0 is the calling thread). Which worker takes which module is
    // up to the scheduler, so every task's lane is checked, not a
    // particular lane's share.
    let v: Value = serde_json::from_str(&json).expect("trace JSON");
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let mut tasks = HashMap::new();
    for e in events {
        let Some(Value::Str(name)) = e.get("name") else { panic!("event without a name") };
        let Some((phase @ ("phase1" | "phase2"), _)) = name.split_once(":s") else { continue };
        let lane = match e.get("tid") {
            Some(Value::Int(n)) => *n,
            Some(Value::UInt(n)) => *n as i64,
            other => panic!("{name}: tid missing or non-integer: {other:?}"),
        };
        assert!((1..=4).contains(&lane), "{name} recorded on lane {lane}, not a worker lane");
        if e.get("ph") == Some(&Value::Str("B".into())) {
            *tasks.entry(phase).or_insert(0) += 1;
        }
    }
    assert_eq!(tasks.get("phase1"), Some(&8), "per-module phase-1 spans");
    assert_eq!(tasks.get("phase2"), Some(&8), "per-module phase-2 spans");
}
