//! `compile_bench` — the offline compile-time benchmark.
//!
//! Times the two-pass driver over generated workloads of 10–100+ modules
//! in the three regimes the paper's recompilation discussion (§3)
//! distinguishes, plus the parallel fan-out:
//!
//! * **cold** — empty cache, serial: every phase runs everywhere;
//! * **cold parallel** — empty cache, `--jobs` workers;
//! * **warm** — full cache, nothing changed: both per-module phases are
//!   pure cache hits (only the analyzer and linker run);
//! * **one edit** — one module's leaf constant re-tuned: phase 1 re-runs
//!   for that module and phase 2 only where the database slice changed;
//! * **disk cold / disk warm** — the persistent `--cache-dir` tier: a
//!   cold build paying the write-through cost into an empty directory,
//!   then a *fresh* cache instance over the same directory (the separate
//!   `cminc` invocation scenario) rebuilding entirely from disk.
//!
//! Every leg is timed best-of-three with its precondition re-established
//! before each trial (empty cache, wiped directory, fresh re-tune):
//! individual builds run in milliseconds, so the minimum — not the mean —
//! is the least-disturbed estimate on a shared host, mirroring `sim_bench`.
//!
//! Results (plus the cache accounting that certifies what was skipped) are
//! written to `BENCH_compile.json`, the repo's compile-time trend line.
//! When `--sim-json` (default `BENCH_sim.json`, as written by `sim_bench`)
//! exists, its headline numbers are folded in as a `sim` regime so one file
//! carries both trend lines.
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin compile_bench            # 8/64/256 modules
//! cargo run --release -p ipra-bench --bin compile_bench -- --modules 8 --check
//! ```
//!
//! A **scaling** regime times the two whole-program passes alone — the
//! program analyzer and the verifier, in process, best of five — on the
//! scaled program at 256 and 1024 modules. Per-module phases grow
//! linearly by construction; these two are where a super-linear loop
//! would hide. Linear growth gives a 4× ratio between the two sizes.
//!
//! `--check` asserts the cache behaved (warm build all hits, one-edit
//! rebuild touching fewer modules than cold, warm faster than cold,
//! disk-warm faster than disk-cold) and that the scaling ratio stays at
//! or below [`MAX_SCALING_RATIO`], and exits nonzero otherwise — the CI
//! smoke mode wired into `scripts/check.sh`.

use ipra_core::analyzer::AnalyzerOptions;
use ipra_core::PaperConfig;
use ipra_driver::{
    compile_incremental, run_program, CompilationCache, CompileOptions, CompiledProgram,
};
use ipra_telemetry::{CountersSnapshot, Telemetry};
use ipra_workloads::generator::{random_program_with, GenConfig};
use ipra_workloads::scaled::{perturb, scaled_program};
use serde::Serialize;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

/// Measurements for one workload size.
#[derive(Debug, Serialize)]
struct SizeReport {
    modules: usize,
    /// Serial cold build (empty cache, jobs = 1).
    cold_seconds: f64,
    /// Cold build with the worker pool (empty cache, jobs = N).
    cold_parallel_seconds: f64,
    /// Unchanged rebuild through the warm cache.
    warm_seconds: f64,
    /// Rebuild after re-tuning one module.
    edit_seconds: f64,
    /// Cold build writing through to an empty on-disk cache directory.
    disk_cold_seconds: f64,
    /// Rebuild by a fresh cache instance served entirely from that
    /// directory (the separate-process scenario).
    disk_warm_seconds: f64,
    /// Phase-1 / phase-2 hits on the warm rebuild (must equal `modules`).
    warm_phase1_hits: usize,
    warm_phase2_hits: usize,
    /// Disk-tier hits on the disk-warm rebuild (must equal `modules` for
    /// both phases: the fresh instance has an empty memory tier).
    disk_warm_phase1_hits: usize,
    disk_warm_phase2_hits: usize,
    /// Modules whose second phase re-ran after the one-module edit.
    edit_recompiled: usize,
    /// cold / warm and cold / edit wall-clock ratios.
    warm_speedup: f64,
    edit_speedup: f64,
    /// cold / cold-parallel wall-clock ratio.
    parallel_speedup: f64,
    /// cold / disk-warm wall-clock ratio: what a second process gains.
    disk_warm_speedup: f64,
    /// Deterministic pipeline counters of one cold build (cache tiers,
    /// analyzer and linker work), from an untimed telemetry-attached
    /// build so the timed legs stay unperturbed.
    counters: CountersSnapshot,
    /// The counters were identical across two cold builds at different
    /// `--jobs` widths (run-to-run and parallelism identity).
    counters_ok: bool,
}

/// The alias-precision regime: a deterministic pointer-heavy program
/// compiled under the blanket address-taken configuration (C) and the
/// points-to configuration (P), tracking how many distinct globals each
/// promotes and what the precision buys at run time.
#[derive(Debug, Serialize)]
struct AliasReport {
    /// Generator seed (the regime is fully deterministic).
    seed: u64,
    /// Distinct globals promoted anywhere in the program database.
    promoted_c: usize,
    promoted_p: usize,
    /// Simulator cycles on the empty input.
    cycles_c: u64,
    cycles_p: u64,
    /// Cycles saved by P relative to C (positive means P is faster).
    cycle_delta: i64,
    /// Singleton memory references (Table 5's metric) under each config.
    singleton_refs_c: u64,
    singleton_refs_p: u64,
}

/// One machine description's leg of the target regime: the same scaled
/// workload compiled cold for each target, verified under that target's
/// register convention, and run once.
#[derive(Debug, Serialize)]
struct TargetRow {
    target: String,
    modules: usize,
    /// Serial cold build (empty cache).
    cold_seconds: f64,
    /// Linked executable size, in instructions.
    instructions: usize,
    /// `ipra-verify` was clean under this target's convention.
    verify_clean: bool,
    /// Cycles of one run on the empty input.
    cycles: u64,
    /// Exit code of that run (must agree across targets).
    exit: i64,
}

/// One size of the scaling regime.
#[derive(Debug, Serialize)]
struct ScalingRow {
    modules: usize,
    /// Best-of-[`SCALING_TRIALS`] seconds of `analyze` + `verify_modules`
    /// (phase 1, phase 2 and link excluded).
    seconds: f64,
    /// The analyzer's share of that trial.
    analyze_seconds: f64,
}

/// The scaling regime: analyzer plus verifier time at two sizes of the
/// scaled program, and their ratio.
#[derive(Debug, Serialize)]
struct ScalingReport {
    /// The small size, then the large one.
    rows: Vec<ScalingRow>,
    /// Large over small seconds; linear growth gives the size ratio.
    ratio: f64,
}

/// The simulator regime, echoed from `sim_bench`'s report so the compile
/// and execution trend lines travel together.
#[derive(Debug, Serialize)]
struct SimRegime {
    /// The `sim_bench` report the numbers came from.
    source: String,
    /// Fast-engine speedup over the reference on the scaled workload.
    scaled_speedup: f64,
    scaled_speedup_attributed: f64,
    /// Both engines produced bit-identical results on every row.
    parity_ok: bool,
}

/// The whole benchmark run, as serialized to `BENCH_compile.json`.
#[derive(Debug, Serialize)]
struct BenchReport {
    config: String,
    /// The host's available parallelism.
    nproc: usize,
    /// Worker-pool width of the parallel legs (`--jobs`, default `nproc`).
    jobs: usize,
    sizes: Vec<SizeReport>,
    scaling: ScalingReport,
    alias: AliasReport,
    /// One row per machine description: compile-time and run observables
    /// of the same workload on every target the backend supports.
    targets: Vec<TargetRow>,
    /// Present when the `--sim-json` report was found and well-formed.
    sim: Option<SimRegime>,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Reads the headline fields out of a `sim_bench` report, if one exists at
/// `path`. Malformed files read as absent — the sim regime is an optional
/// rider, not a dependency.
fn read_sim_regime(path: &str) -> Option<SimRegime> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    let num = |key: &str| match v.get(key) {
        Some(serde::Value::Float(x)) => Some(*x),
        Some(serde::Value::Int(x)) => Some(*x as f64),
        _ => None,
    };
    Some(SimRegime {
        source: path.to_string(),
        scaled_speedup: num("scaled_speedup")?,
        scaled_speedup_attributed: num("scaled_speedup_attributed")?,
        parity_ok: matches!(v.get("parity_ok"), Some(serde::Value::Bool(true))),
    })
}

/// Timed trials per leg; the leg reports the fastest. Individual builds
/// run in single-digit milliseconds, where one scheduler hiccup on a
/// shared host swamps the cache margins being measured — the minimum is
/// the least-disturbed estimate (same policy as `sim_bench`).
const TRIALS: usize = 3;

fn timed(f: impl FnOnce() -> CompiledProgram) -> (CompiledProgram, f64) {
    let t = Instant::now();
    let p = f();
    (p, t.elapsed().as_secs_f64())
}

/// Runs `setup` (untimed: it re-establishes the leg's precondition) then
/// `build` (timed), [`TRIALS`] times over. Returns the last trial's state
/// and program — every trial is equivalent, and the hit-count fields come
/// from there — with the fastest build time.
fn timed_best<S>(
    mut setup: impl FnMut() -> S,
    mut build: impl FnMut(&mut S) -> CompiledProgram,
) -> (S, CompiledProgram, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..TRIALS {
        let mut state = setup();
        let t = Instant::now();
        let program = build(&mut state);
        best = best.min(t.elapsed().as_secs_f64());
        last = Some((state, program));
    }
    let (state, program) = last.expect("TRIALS >= 1");
    (state, program, best)
}

fn measure(modules: usize, jobs: usize, config: PaperConfig) -> SizeReport {
    let opts = CompileOptions::paper(config);
    let par_opts = CompileOptions { jobs, ..CompileOptions::paper(config) };
    let mut sources = scaled_program(modules);

    // Cold, serial: every trial starts from an empty cache; the last
    // trial's (now fully populated) cache feeds the warm and edit legs.
    let (cache, cold, cold_seconds) = timed_best(CompilationCache::new, |cache| {
        compile_incremental(&sources, &opts, cache).expect("cold build")
    });

    // Cold, parallel (fresh cache each trial so nothing is reused).
    let (_, par, cold_parallel_seconds) = timed_best(CompilationCache::new, |cache| {
        compile_incremental(&sources, &par_opts, cache).expect("parallel build")
    });
    assert_eq!(par.exe, cold.exe, "parallel build must be bit-identical to serial");

    // Counters snapshot: two untimed cold builds with a collector
    // attached, serial then parallel, certifying the counted work is
    // identical regardless of the worker-pool width.
    let counted = |opts: &CompileOptions| {
        let tele = Telemetry::new();
        let opts = CompileOptions { telemetry: Some(tele.clone()), ..opts.clone() };
        compile_incremental(&sources, &opts, &CompilationCache::new()).expect("counted cold build");
        tele.counters()
    };
    let counters = counted(&opts);
    let counters_ok = counters == counted(&par_opts);

    // Warm: unchanged rebuilds through the populated cache (each trial
    // leaves the cache exactly as warm as it found it).
    let (_, warm, warm_seconds) =
        timed_best(|| (), |()| compile_incremental(&sources, &opts, &cache).expect("warm build"));
    assert_eq!(warm.exe, cold.exe, "warm build must be bit-identical to cold");

    // Disk cold: write-through into a directory wiped before every trial.
    let cache_dir =
        std::env::temp_dir().join(format!("ipra-compile-bench-{}-{modules}", std::process::id()));
    let (disk_cache, disk_cold, disk_cold_seconds) = timed_best(
        || {
            let _ = std::fs::remove_dir_all(&cache_dir);
            CompilationCache::with_disk(&cache_dir).expect("cache dir")
        },
        |cache| compile_incremental(&sources, &opts, cache).expect("disk cold build"),
    );
    assert_eq!(disk_cold.exe, cold.exe, "write-through build must be bit-identical to cold");

    // Disk warm: a fresh cache instance (empty memory tier) over the now
    // populated directory — the second `cminc` invocation.
    drop(disk_cache);
    let (_, disk_warm, disk_warm_seconds) = timed_best(
        || CompilationCache::with_disk(&cache_dir).expect("cache dir"),
        |cache| compile_incremental(&sources, &opts, cache).expect("disk warm build"),
    );
    assert_eq!(disk_warm.exe, cold.exe, "disk-served build must be bit-identical to cold");
    let _ = std::fs::remove_dir_all(&cache_dir);

    // One edit: re-tune the middle module and rebuild incrementally. Each
    // trial applies a *different* tune so exactly one module is stale
    // every time (`timed_best` can't be used here: retuning mutates
    // `sources`, which the build closure also reads).
    let mut edit_seconds = f64::INFINITY;
    let mut edited = None;
    for tune in 1..=TRIALS as i64 {
        perturb(&mut sources, modules / 2, tune);
        let (p, s) = timed(|| compile_incremental(&sources, &opts, &cache).expect("edit build"));
        edit_seconds = edit_seconds.min(s);
        edited = Some(p);
    }
    let edited = edited.expect("TRIALS >= 1");
    let scratch = CompilationCache::new();
    let fresh = compile_incremental(&sources, &opts, &scratch).expect("fresh edited build");
    assert_eq!(edited.exe, fresh.exe, "incremental edit build must match a fresh build");

    SizeReport {
        modules,
        cold_seconds,
        cold_parallel_seconds,
        warm_seconds,
        edit_seconds,
        disk_cold_seconds,
        disk_warm_seconds,
        warm_phase1_hits: warm.build.phase1.hits,
        warm_phase2_hits: warm.build.phase2.hits,
        disk_warm_phase1_hits: disk_warm.build.phase1.disk_hits,
        disk_warm_phase2_hits: disk_warm.build.phase2.disk_hits,
        edit_recompiled: edited.build.recompiled.len(),
        warm_speedup: cold_seconds / warm_seconds.max(1e-9),
        edit_speedup: cold_seconds / edit_seconds.max(1e-9),
        parallel_speedup: cold_seconds / cold_parallel_seconds.max(1e-9),
        disk_warm_speedup: cold_seconds / disk_warm_seconds.max(1e-9),
        counters: CountersSnapshot(counters),
        counters_ok,
    }
}

/// The target regime: one cold build of the scaled workload per machine
/// description, each verified under its own convention and run once. The
/// exit codes must agree — register conventions differ, observable
/// semantics must not.
fn measure_targets(modules: usize, config: PaperConfig) -> Vec<TargetRow> {
    let sources = scaled_program(modules);
    vpr::target::TargetId::ALL
        .iter()
        .map(|&target| {
            let opts = CompileOptions { target, ..CompileOptions::paper(config) };
            let (_, program, cold_seconds) = timed_best(CompilationCache::new, |cache| {
                compile_incremental(&sources, &opts, cache).expect("target regime build")
            });
            let verify_clean = ipra_driver::verify_program(&program).is_clean();
            let r = run_program(&program, &[]).expect("target regime run");
            TargetRow {
                target: target.name().to_string(),
                modules,
                cold_seconds,
                instructions: program.exe.code_len(),
                verify_clean,
                cycles: r.stats.cycles,
                exit: r.exit,
            }
        })
        .collect()
}

/// Trials per size in the scaling regime; it reports the fastest.
const SCALING_TRIALS: usize = 5;

/// The `--check` ceiling on the scaling regime's 256 → 1024 ratio: linear
/// growth is 4×, and a pass quadratic in the module count gives 16×.
const MAX_SCALING_RATIO: f64 = 8.0;

/// Times the analyzer and the verifier on already-compiled scaled
/// programs, so that only the two whole-program passes are measured.
fn measure_scaling(config: PaperConfig) -> ScalingReport {
    let opts = AnalyzerOptions::paper_config(config, None);
    let rows: Vec<ScalingRow> = [256, 1024]
        .into_iter()
        .map(|modules| {
            let program = compile_incremental(
                &scaled_program(modules),
                &CompileOptions::paper(config),
                &CompilationCache::new(),
            )
            .expect("scaling regime build");
            let mut row = ScalingRow { modules, seconds: f64::INFINITY, analyze_seconds: 0.0 };
            for _ in 0..SCALING_TRIALS {
                let t = Instant::now();
                let analysis = ipra_core::analyze(&program.summary, &opts);
                let analyzed = t.elapsed().as_secs_f64();
                let report = ipra_driver::verify_program(&program);
                let seconds = t.elapsed().as_secs_f64();
                assert!(analysis.database == program.database, "scaling regime: analysis differs");
                assert!(report.is_clean(), "scaling regime: {modules} modules failed verification");
                if seconds < row.seconds {
                    row = ScalingRow { modules, seconds, analyze_seconds: analyzed };
                }
            }
            row
        })
        .collect();
    let ratio = rows[1].seconds / rows[0].seconds.max(1e-9);
    ScalingReport { rows, ratio }
}

/// Distinct globals promoted anywhere in the program database.
fn promoted_globals(p: &CompiledProgram) -> usize {
    let syms: BTreeSet<&str> =
        p.database.iter().flat_map(|d| d.promotions.iter().map(|q| q.sym.as_str())).collect();
    syms.len()
}

/// Compiles the pointer-heavy generator program under C and P and compares
/// promotion counts and run-time cost. The seed is fixed so the regime is
/// a trend line, not a lottery.
fn measure_alias() -> AliasReport {
    let seed: u64 = 57;
    let sources = random_program_with(
        seed,
        &GenConfig {
            globals_per_module: 6,
            alias_mix: true,
            ptr_shapes: true,
            ..GenConfig::default()
        },
    );
    let compile = |config| {
        let cache = CompilationCache::new();
        compile_incremental(&sources, &CompileOptions::paper(config), &cache)
            .expect("alias regime build")
    };
    let c = compile(PaperConfig::C);
    let p = compile(PaperConfig::P);
    let rc = run_program(&c, &[]).expect("alias regime run under C");
    let rp = run_program(&p, &[]).expect("alias regime run under P");
    assert_eq!(rc.output, rp.output, "C and P diverged on the alias regime program");
    assert_eq!(rc.exit, rp.exit, "C and P exit codes diverged on the alias regime program");
    AliasReport {
        seed,
        promoted_c: promoted_globals(&c),
        promoted_p: promoted_globals(&p),
        cycles_c: rc.stats.cycles,
        cycles_p: rp.stats.cycles,
        cycle_delta: rc.stats.cycles as i64 - rp.stats.cycles as i64,
        singleton_refs_c: rc.stats.singleton_refs(),
        singleton_refs_p: rp.stats.singleton_refs(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<usize> = match flag_value(&args, "--modules") {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse().unwrap_or_else(|_| panic!("bad module count `{t}`")))
            .collect(),
        None => vec![8, 64, 256],
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = flag_value(&args, "--jobs")
        .map(|v| v.parse::<usize>().expect("bad --jobs"))
        .unwrap_or(nproc);
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_compile.json".to_string());
    let sim_path = flag_value(&args, "--sim-json").unwrap_or_else(|| "BENCH_sim.json".to_string());
    let check = args.iter().any(|a| a == "--check");
    let config = PaperConfig::C;

    let effective = CompileOptions { jobs, ..CompileOptions::default() }.effective_jobs();
    eprintln!("compile_bench: sizes {sizes:?}, jobs {effective} of {nproc} cores, config {config}");

    let alias = measure_alias();
    eprintln!(
        "  alias regime (seed {}): C promotes {} globals, P promotes {} \
         (cycles {} vs {}, delta {})",
        alias.seed,
        alias.promoted_c,
        alias.promoted_p,
        alias.cycles_c,
        alias.cycles_p,
        alias.cycle_delta,
    );
    let targets = measure_targets(8, config);
    for t in &targets {
        eprintln!(
            "  target {:>4}: {} modules cold {:>6.1}ms, {} instructions, {} cycles, verify {}",
            t.target,
            t.modules,
            t.cold_seconds * 1e3,
            t.instructions,
            t.cycles,
            if t.verify_clean { "clean" } else { "DIRTY" },
        );
    }
    let sim = read_sim_regime(&sim_path);
    match &sim {
        Some(s) => eprintln!(
            "  sim regime ({}): fast engine {:.1}x reference ({:.1}x attributed), parity {}",
            s.source,
            s.scaled_speedup,
            s.scaled_speedup_attributed,
            if s.parity_ok { "ok" } else { "BROKEN" },
        ),
        None => eprintln!("  sim regime: no report at {sim_path}, skipping"),
    }
    let scaling = measure_scaling(config);
    let (small, large) = (&scaling.rows[0], &scaling.rows[1]);
    eprintln!(
        "  scaling regime: analyze + verify {:.1}ms at {} modules, {:.1}ms at {} ({:.1}x)",
        small.seconds * 1e3,
        small.modules,
        large.seconds * 1e3,
        large.modules,
        scaling.ratio,
    );
    let mut report = BenchReport {
        config: config.to_string(),
        nproc,
        jobs: effective,
        sizes: Vec::new(),
        scaling,
        alias,
        targets,
        sim,
    };
    let mut failures: Vec<String> = Vec::new();
    if check {
        if let Some(s) = &report.sim {
            if !s.parity_ok {
                failures.push(format!("sim regime: {} reports an engine parity break", s.source));
            }
            if s.scaled_speedup < 1.0 {
                failures.push(format!(
                    "sim regime: fast engine slower than reference ({:.2}x)",
                    s.scaled_speedup
                ));
            }
        }
        for t in &report.targets {
            if !t.verify_clean {
                failures.push(format!(
                    "target regime: {} build failed verification under its own convention",
                    t.target
                ));
            }
            if t.exit != report.targets[0].exit {
                failures.push(format!(
                    "target regime: {} exit {} differs from {} exit {}",
                    t.target, t.exit, report.targets[0].target, report.targets[0].exit
                ));
            }
        }
        let sc = &report.scaling;
        if sc.ratio > MAX_SCALING_RATIO {
            failures.push(format!(
                "scaling regime: analyze + verify grew {:.1}x from {} to {} modules \
                 (limit {MAX_SCALING_RATIO}x)",
                sc.ratio, sc.rows[0].modules, sc.rows[1].modules
            ));
        }
        let a = &report.alias;
        if a.promoted_p < a.promoted_c {
            failures.push(format!(
                "alias regime: P promoted fewer globals than C ({} vs {})",
                a.promoted_p, a.promoted_c
            ));
        }
        if a.singleton_refs_p > a.singleton_refs_c {
            failures.push(format!(
                "alias regime: P made more singleton memory references than C ({} vs {})",
                a.singleton_refs_p, a.singleton_refs_c
            ));
        }
    }
    for &n in &sizes {
        let row = measure(n, jobs, config);
        eprintln!(
            "  {:>4} modules: cold {:>8.1}ms  parallel {:>8.1}ms  warm {:>8.1}ms  edit {:>8.1}ms  \
             disk-cold {:>8.1}ms  disk-warm {:>8.1}ms  (warm {}x, edit {}x, disk-warm {}x; \
             edit re-ran {}/{})",
            n,
            row.cold_seconds * 1e3,
            row.cold_parallel_seconds * 1e3,
            row.warm_seconds * 1e3,
            row.edit_seconds * 1e3,
            row.disk_cold_seconds * 1e3,
            row.disk_warm_seconds * 1e3,
            row.warm_speedup.round(),
            row.edit_speedup.round(),
            row.disk_warm_speedup.round(),
            row.edit_recompiled,
            n,
        );
        if check {
            if row.warm_phase1_hits != n || row.warm_phase2_hits != n {
                failures.push(format!(
                    "{n} modules: warm build was not all hits ({}/{} phase1, {}/{} phase2)",
                    row.warm_phase1_hits, n, row.warm_phase2_hits, n
                ));
            }
            if row.edit_recompiled >= n {
                failures.push(format!(
                    "{n} modules: one edit re-ran codegen for every module ({})",
                    row.edit_recompiled
                ));
            }
            if row.warm_seconds >= row.cold_seconds {
                failures.push(format!(
                    "{n} modules: warm build not faster than cold ({:.1}ms vs {:.1}ms)",
                    row.warm_seconds * 1e3,
                    row.cold_seconds * 1e3
                ));
            }
            if row.edit_seconds >= row.cold_seconds {
                failures.push(format!(
                    "{n} modules: one-edit build not faster than cold ({:.1}ms vs {:.1}ms)",
                    row.edit_seconds * 1e3,
                    row.cold_seconds * 1e3
                ));
            }
            // The disk tier must win on wall clock too: with binary cache
            // frames, a disk-served rebuild beats the cold build that had
            // to compile *and* write every frame. (Against the plain cold
            // build the disk-warm margin is real but only a few percent at
            // the large sizes — decoding a frame of a tiny module costs
            // about what compiling it does — so the gate uses the
            // wide-margin comparison and the JSON records both.)
            if row.disk_warm_seconds >= row.disk_cold_seconds {
                failures.push(format!(
                    "{n} modules: disk-warm build not faster than disk-cold ({:.1}ms vs {:.1}ms)",
                    row.disk_warm_seconds * 1e3,
                    row.disk_cold_seconds * 1e3
                ));
            }
            if row.disk_warm_phase1_hits != n || row.disk_warm_phase2_hits != n {
                failures.push(format!(
                    "{n} modules: disk-warm build not fully disk-served \
                     ({}/{} phase1, {}/{} phase2)",
                    row.disk_warm_phase1_hits, n, row.disk_warm_phase2_hits, n
                ));
            }
            if !row.counters_ok {
                failures
                    .push(format!("{n} modules: build counters not identical across jobs widths"));
            }
        }
        report.sizes.push(row);
    }

    let json = serde_json::to_string_pretty(&report).expect("report serialization cannot fail");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("compile_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("compile_bench: -> {out_path}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("compile_bench: CHECK FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
