//! Cross-engine parity suite: the fast execution engine ([`vpr::exec`])
//! must be *bit-identical* to the reference interpreter in every
//! observable, across every workload, every paper configuration, both
//! attribution modes, every step limit, and every trap — the full
//! `Result<RunResult, SimError>` is compared, so output, exit code, every
//! `RunStats` field, per-procedure attribution, and trap kind/pc/
//! symbolization all participate.
//!
//! This is the differential backbone of the fast engine: the reference
//! stays as the oracle, and any divergence here is a bug in the fast
//! engine by definition (see `docs/simulator.md`).

use ipra_core::PaperConfig;
use ipra_driver::{compile_configured, CompilationCache, CompileOptions, SourceFile};
use vpr::{RunResult, SimError, SimOptions};

/// Runs `exe` under both engines with identical options and demands
/// bit-identical outcomes, traps included.
fn both(exe: &vpr::Executable, opts: &SimOptions, label: &str) -> Result<RunResult, SimError> {
    let fast = vpr::run_with(exe, opts);
    let reference = vpr::sim::run_reference(exe, opts);
    assert_eq!(fast, reference, "{label}: engines diverged");
    fast
}

#[test]
fn engines_agree_across_workloads_configs_and_attribution() {
    for w in ipra_workloads::all() {
        let cache = CompilationCache::new();
        for config in PaperConfig::ALL_WITH_ALIAS {
            let label = format!("{}/{config}", w.name);
            let program = compile_configured(
                &w.sources,
                config,
                &w.training_input,
                &CompileOptions::default(),
                &cache,
            )
            .unwrap_or_else(|e| panic!("{label}: compile error {e}"))
            .unwrap_or_else(|e| panic!("{label}: training trap {e}"));
            for attribute in [false, true] {
                let opts =
                    SimOptions { input: w.input.clone(), attribute, ..SimOptions::default() };
                let r = both(&program.exe, &opts, &label)
                    .unwrap_or_else(|e| panic!("{label}: simulator trap {e}"));
                assert_eq!(r.attribution.is_some(), attribute, "{label}: attribution presence");
                if let Some(attr) = &r.attribution {
                    assert!(attr.matches(&r.stats), "{label}: attribution sums diverge");
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_every_step_limit_of_a_real_workload() {
    // The StepLimit/Ok frontier must sit at exactly the same step in both
    // engines, for both attribution modes: sweep limits across the whole
    // run plus the exact boundary.
    let w = ipra_workloads::by_name("dhrystone").expect("dhrystone workload");
    let cache = CompilationCache::new();
    let program = compile_configured(
        &w.sources,
        PaperConfig::C,
        &w.training_input,
        &CompileOptions::default(),
        &cache,
    )
    .expect("compile")
    .expect("training run");
    let base = SimOptions { input: w.input.clone(), ..SimOptions::default() };
    let total = vpr::run_with(&program.exe, &base).expect("full run").stats.cycles;
    for attribute in [false, true] {
        for limit in (0..total).step_by(997).chain([total - 1, total, total + 1]) {
            let label = format!("dhrystone limit {limit} (attr {attribute})");
            let opts = SimOptions { max_steps: limit, attribute, ..base.clone() };
            let r = both(&program.exe, &opts, &label);
            assert_eq!(r.is_ok(), limit >= total, "{label}: frontier misplaced");
            if r.is_err() {
                assert_eq!(r, Err(SimError::StepLimit { limit }), "{label}: wrong trap");
            }
        }
    }
}

/// Compiles a single-module program under config C (no training needed for
/// the static configurations).
fn compile_one(src: &str) -> ipra_driver::CompiledProgram {
    let sources = vec![SourceFile::new("t", src)];
    let cache = CompilationCache::new();
    compile_configured(&sources, PaperConfig::C, &[], &CompileOptions::default(), &cache)
        .expect("compile")
        .expect("training run")
}

#[test]
fn engines_agree_on_trap_kind_pc_and_symbolization() {
    // Division by zero, driven by input so the trap survives any
    // constant folding; the symbolized location must match too.
    let program = compile_one("int main() { int x = in(); return 10 / x; }");
    for attribute in [false, true] {
        let opts = SimOptions { input: vec![0], attribute, ..SimOptions::default() };
        let err = both(&program.exe, &opts, "div-by-zero").unwrap_err();
        let SimError::DivByZero { sym, .. } = &err else {
            panic!("expected DivByZero, got {err}");
        };
        let sym = sym.as_deref().expect("trap inside a linked function must symbolize");
        assert!(sym.starts_with("main+"), "trap symbolized to `{sym}`");
    }

    // Runaway recursion: the engines must agree on which trap ends it
    // (memory fault from the descending stack or the step limit) and on
    // its full payload.
    let program = compile_one("int f(int n) { return f(n + 1); } int main() { return f(0); }");
    let opts = SimOptions { max_steps: 200_000, ..SimOptions::default() };
    let err = both(&program.exe, &opts, "runaway recursion").unwrap_err();
    assert!(
        matches!(err, SimError::MemFault { .. } | SimError::StepLimit { .. }),
        "unexpected trap {err}"
    );
}

#[test]
fn engines_agree_on_the_sparse_call_edge_path() {
    // Above 1023 linked functions the fast engine's (nfuncs+1)² edge
    // matrix would exceed 2²⁰ cells, so it counts call edges in a hash map
    // instead; 342 scaled modules link 1027 functions.
    let sources = ipra_workloads::scaled::scaled_program(342);
    let cache = CompilationCache::new();
    let program =
        compile_configured(&sources, PaperConfig::C, &[], &CompileOptions::default(), &cache)
            .expect("compile")
            .expect("training run");
    assert!(program.exe.funcs().len() >= 1024, "{} functions", program.exe.funcs().len());
    for attribute in [true, false] {
        let label = format!("scaled-342/C (attr {attribute})");
        let opts = SimOptions { attribute, ..SimOptions::default() };
        let r = both(&program.exe, &opts, &label)
            .unwrap_or_else(|e| panic!("{label}: simulator trap {e}"));
        assert!(r.stats.call_edges.len() > 1024, "{label}: {} edges", r.stats.call_edges.len());
    }
}
