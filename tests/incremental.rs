//! Cache-correctness tests for the parallel, incremental driver.
//!
//! The contract under test: a [`CompilationCache`] is an *invisible*
//! optimization. Whatever mix of cold, warm, edited, serial, or parallel
//! builds produced an executable, it must be bit-identical to a fresh
//! serial compile of the same sources — across every paper configuration —
//! and the cache accounting must prove the skipped work was really skipped.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile_configured, compile_incremental, run_program, verify_program, CompilationCache,
    CompileOptions,
};
use ipra_workloads::scaled::{perturb, scaled_program};

/// Editing one module of twenty re-runs the first phase for that module
/// alone, and — because the edit is summary-invariant — the second phase
/// for that module alone, while still producing exactly the executable a
/// fresh build produces.
#[test]
fn one_edit_of_twenty_recompiles_only_the_changed_slice() {
    let mut sources = scaled_program(20);
    let opts = CompileOptions::paper(PaperConfig::C);
    let cache = CompilationCache::new();
    let cold = compile_incremental(&sources, &opts, &cache).unwrap();
    assert_eq!(cold.build.phase1.misses, 20);
    assert_eq!(cold.build.recompiled.len(), 20);

    perturb(&mut sources, 10, 7);
    let edited = compile_incremental(&sources, &opts, &cache).unwrap();
    assert_eq!(edited.build.phase1.hits, 19, "only s10's source changed");
    assert_eq!(edited.build.phase1.misses, 1);
    assert_eq!(
        edited.build.recompiled,
        vec!["s10".to_string()],
        "a summary-invariant edit must re-run codegen for the edited module alone"
    );
    assert_eq!(edited.build.phase2.hits, 19);

    let fresh = compile_incremental(&sources, &opts, &CompilationCache::new()).unwrap();
    assert_eq!(edited.exe, fresh.exe, "incremental build must match a fresh build bit-for-bit");
    assert_ne!(edited.exe, cold.exe, "the edit is observable in the machine code");
}

/// A warm rebuild is bit-identical to the cold build under every paper
/// configuration: same executable, clean verification, and identical
/// simulator behavior down to the instruction counts.
#[test]
fn warm_rebuild_is_bit_identical_across_all_configs() {
    let sources = scaled_program(8);
    for config in PaperConfig::ALL {
        let cache = CompilationCache::new();
        let build = || {
            compile_configured(&sources, config, &[], &CompileOptions::default(), &cache)
                .unwrap_or_else(|e| panic!("{config}: {e}"))
                .unwrap_or_else(|e| panic!("{config}: training trap {e}"))
        };
        let cold = build();
        let warm = build();
        // B/F's baseline leg replaces each module's cached object, so only
        // the single-leg configurations rebuild from pure hits.
        if !config.wants_profile() {
            assert_eq!(warm.build.phase1.hits, 8, "{config}: warm phase 1 must be all hits");
            assert_eq!(warm.build.phase2.hits, 8, "{config}: warm phase 2 must be all hits");
            assert!(warm.build.recompiled.is_empty(), "{config}: nothing changed");
        }
        assert_eq!(warm.exe, cold.exe, "{config}: warm build must be bit-identical");
        let report = verify_program(&warm);
        assert!(report.is_clean(), "{config}: warm build failed verification:\n{report}");
        let rc = run_program(&cold, &[]).unwrap();
        let rw = run_program(&warm, &[]).unwrap();
        assert_eq!(rc.output, rw.output, "{config}: output");
        assert_eq!(rc.exit, rw.exit, "{config}: exit");
        assert_eq!(rc.stats, rw.stats, "{config}: dynamic instruction accounting");
    }
}

/// The worker-pool width is a pure wall-clock knob: any `jobs` value
/// produces the same executable as the serial build.
#[test]
fn jobs_never_change_the_executable() {
    let sources = scaled_program(12);
    for config in [PaperConfig::L2, PaperConfig::C] {
        let serial =
            compile_incremental(&sources, &CompileOptions::paper(config), &CompilationCache::new())
                .unwrap();
        for jobs in [0, 4] {
            let opts = CompileOptions { jobs, ..CompileOptions::paper(config) };
            let parallel = compile_incremental(&sources, &opts, &CompilationCache::new()).unwrap();
            assert_eq!(
                parallel.exe, serial.exe,
                "{config}: jobs={jobs} must match the serial build bit-for-bit"
            );
        }
        let report = verify_program(&serial);
        assert!(report.is_clean(), "{config}: verification:\n{report}");
    }
}

/// The profile-feedback loop shares one cache between its baseline and
/// profile-fed builds, so the final build's first phase is pure cache hits
/// — the sources did not change between the two compiles.
#[test]
fn profile_recompile_front_end_is_all_cache_hits() {
    let sources = scaled_program(6);
    let cache = CompilationCache::new();
    let options = CompileOptions::default();
    let program =
        compile_configured(&sources, PaperConfig::B, &[], &options, &cache).unwrap().unwrap();
    assert_eq!(program.build.phase1.hits, sources.len());
    assert_eq!(program.build.phase1.misses, 0);
    let report = verify_program(&program);
    assert!(report.is_clean(), "profile-fed build failed verification:\n{report}");
}

/// A whitespace-only edit re-runs the first phase for the touched module
/// (its source fingerprint moved) but no codegen at all: the optimized IR
/// is unchanged, so every phase-2 probe still hits.
#[test]
fn whitespace_edit_skips_codegen_entirely() {
    let mut sources = scaled_program(5);
    let opts = CompileOptions::paper(PaperConfig::C);
    let cache = CompilationCache::new();
    let cold = compile_incremental(&sources, &opts, &cache).unwrap();

    sources[3].text.push_str("\n\n");
    let rebuilt = compile_incremental(&sources, &opts, &cache).unwrap();
    assert_eq!(rebuilt.build.phase1.misses, 1);
    assert_eq!(rebuilt.build.phase2.hits, 5, "identical IR must not re-run codegen");
    assert!(rebuilt.build.recompiled.is_empty());
    assert_eq!(rebuilt.exe, cold.exe);
}
