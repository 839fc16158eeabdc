//! Property tests for the observability layer: across every workload and
//! every paper configuration,
//!
//! * enabling per-procedure attribution never changes the run — not the
//!   output, not the exit code, not a single [`vpr::RunStats`] field;
//! * the attribution is *exact*: per-procedure self costs sum to the
//!   whole-program totals, and inclusive cycles are bounded by them;
//! * a [`DiffReport`] built from two attributed runs satisfies its sum
//!   invariant and links every moved procedure to an analyzer decision.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile_configured, diff_report, run_program, run_program_attributed, CompilationCache,
    CompileOptions,
};
use vpr::STARTUP_PROC;

#[test]
fn attribution_is_exact_and_observation_only_across_workloads_and_configs() {
    for w in ipra_workloads::all() {
        let cache = CompilationCache::new();
        for config in PaperConfig::ALL {
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
            let plain = run_program(&program, &w.input)
                .unwrap_or_else(|e| panic!("{label}: simulator trap {e}"));
            let attributed = run_program_attributed(&program, &w.input)
                .unwrap_or_else(|e| panic!("{label}: attributed simulator trap {e}"));

            // Attribution is pure observation.
            assert_eq!(attributed.stats, plain.stats, "{label}: stats changed");
            assert_eq!(attributed.output, plain.output, "{label}: output changed");
            assert_eq!(attributed.exit, plain.exit, "{label}: exit changed");
            assert!(plain.attribution.is_none(), "{label}: unrequested attribution");

            // And it is exact: self costs sum to the program totals.
            let attr = attributed.attribution.as_ref().expect("attribution requested");
            assert!(attr.matches(&attributed.stats), "{label}: sums diverge from RunStats");
            let total = attributed.stats.cycles;
            for (name, cost) in &attr.procs {
                assert!(
                    cost.inclusive_cycles >= cost.cycles && cost.inclusive_cycles <= total,
                    "{label}/{name}: inclusive cycles out of range"
                );
            }
            // The startup stub's window spans the whole run.
            assert_eq!(
                attr.get(STARTUP_PROC).expect("startup slot").inclusive_cycles,
                total,
                "{label}: startup inclusive window"
            );
        }
    }
}

#[test]
fn diff_reports_sum_and_explain_across_workloads() {
    for w in ipra_workloads::all() {
        for config_b in [PaperConfig::C, PaperConfig::E] {
            let label = format!("{}/L2->{config_b}", w.name);
            let report = diff_report(&w.sources, PaperConfig::L2, config_b, &w.input, 1)
                .unwrap_or_else(|e| panic!("{label}: compile error {e}"))
                .unwrap_or_else(|e| panic!("{label}: simulator trap {e}"));
            assert!(report.sums_match(), "{label}: per-procedure sums diverge from totals");
            let delta_sum: i64 = report.procs.iter().map(|p| p.cycles_delta).sum();
            assert_eq!(
                delta_sum,
                report.totals_b.cycles as i64 - report.totals_a.cycles as i64,
                "{label}: deltas must sum to the whole-program delta"
            );
            for p in report.procs.iter().filter(|p| p.cycles_delta != 0) {
                if p.name == STARTUP_PROC {
                    continue;
                }
                assert!(
                    !p.reasons.is_empty(),
                    "{label}: `{}` moved {} cycles with no linked decision",
                    p.name,
                    p.cycles_delta
                );
            }
        }
    }
}
