//! The on-disk build cache (`--cache-dir`) as a falsifiable contract.
//!
//! The in-memory [`CompilationCache`] already makes one *process*
//! incremental; the disk tier makes the *build tree* incremental. The
//! property under test mirrors the paper's §3 recompilation story across
//! process boundaries: a fresh cache instance opened on the same
//! directory — exactly what a second `cminc` invocation does — must skip
//! every phase whose inputs did not move, recompile exactly the modules
//! whose directive slices changed, and still produce executables
//! bit-identical to cold builds. The accounting (`disk_hits`) must prove
//! the skipped work was really served from disk, not silently redone.

use ipra_core::PaperConfig;
use ipra_driver::{compile_incremental, CompilationCache, CompileOptions};
use ipra_workloads::scaled::{perturb, scaled_program};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipra-pcache-{tag}-{}", std::process::id()))
}

/// One edit of twenty modules, across two *separate* cache instances
/// sharing one directory (the two-process scenario): the second build's
/// front end re-runs only for the edited module, every other probe is a
/// disk hit, and exactly the edited module is recompiled.
#[test]
fn one_edit_of_twenty_across_cache_instances_recompiles_only_the_slice() {
    let dir = tmpdir("edit20");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CompileOptions::paper(PaperConfig::C);

    // "Process" 1: cold build, populates the disk tier.
    let mut sources = scaled_program(20);
    let cache1 = CompilationCache::with_disk(&dir).unwrap();
    let cold = compile_incremental(&sources, &opts, &cache1).unwrap();
    assert_eq!(cold.build.phase1.misses, 20);
    assert_eq!(cold.build.phase1.disk_hits, 0, "an empty cache dir has nothing to serve");
    assert_eq!(cold.build.recompiled.len(), 20);
    drop(cache1);

    // "Process" 2: fresh cache instance, same directory, one edited module.
    perturb(&mut sources, 10, 7);
    let cache2 = CompilationCache::with_disk(&dir).unwrap();
    let edited = compile_incremental(&sources, &opts, &cache2).unwrap();
    assert_eq!(edited.build.phase1.hits, 19, "only s10's source changed");
    assert_eq!(
        edited.build.phase1.disk_hits, 19,
        "a fresh instance has an empty memory tier: every hit must come from disk"
    );
    assert_eq!(edited.build.phase1.misses, 1);
    assert_eq!(
        edited.build.recompiled,
        vec!["s10".to_string()],
        "only the module whose directive slice moved may be recompiled"
    );
    assert_eq!(edited.build.phase2.hits, 19);
    assert_eq!(edited.build.phase2.disk_hits, 19);

    // The disk tier is an invisible optimization: bit-identity with a
    // fresh, cache-less build of the same sources.
    let fresh = compile_incremental(&sources, &opts, &CompilationCache::new()).unwrap();
    assert_eq!(edited.exe, fresh.exe, "disk-cached build must match a fresh build bit-for-bit");
    assert_ne!(edited.exe, cold.exe, "the edit is observable in the machine code");

    // "Process" 3: nothing changed — the whole build is served from disk.
    let cache3 = CompilationCache::with_disk(&dir).unwrap();
    let warm = compile_incremental(&sources, &opts, &cache3).unwrap();
    assert_eq!(warm.build.phase1.disk_hits, 20);
    assert_eq!(warm.build.phase2.disk_hits, 20);
    assert!(warm.build.recompiled.is_empty());
    assert_eq!(warm.exe, edited.exe);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk tier composes with every paper configuration sharing one
/// directory: per-config phase-2 entries are keyed by the directive-slice
/// fingerprint, so a second round over all seven configurations is pure
/// disk hits — and bit-identical to the first.
#[test]
fn all_configs_share_one_cache_dir_without_cross_talk() {
    let dir = tmpdir("configs");
    let _ = std::fs::remove_dir_all(&dir);
    let sources = scaled_program(6);

    let mut first = Vec::new();
    let cache = CompilationCache::with_disk(&dir).unwrap();
    for config in [PaperConfig::L2, PaperConfig::A, PaperConfig::C, PaperConfig::E] {
        let p = compile_incremental(&sources, &CompileOptions::paper(config), &cache).unwrap();
        first.push(p);
    }
    drop(cache);

    let cache = CompilationCache::with_disk(&dir).unwrap();
    for (i, config) in
        [PaperConfig::L2, PaperConfig::A, PaperConfig::C, PaperConfig::E].into_iter().enumerate()
    {
        let p = compile_incremental(&sources, &CompileOptions::paper(config), &cache).unwrap();
        assert_eq!(p.exe, first[i].exe, "{config}: second-round build must be bit-identical");
        assert_eq!(p.build.phase1.misses, 0, "{config}: phase 1 fully cached");
        assert_eq!(p.build.phase2.misses, 0, "{config}: phase 2 fully cached");
        assert!(p.build.recompiled.is_empty(), "{config}");
        if i == 0 {
            // The very first probe of the fresh instance proves the disk
            // tier is doing the serving (later configs may hit memory).
            assert!(p.build.phase1.disk_hits > 0, "first build must be served from disk");
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}
