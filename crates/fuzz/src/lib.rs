//! # ipra-fuzz — differential fuzzing for the two-pass compiler
//!
//! The compiler's test suite proves it right on the programs we thought
//! of; this crate hunts for the programs we didn't. A seeded generator
//! ([`ipra_workloads::generator`]) produces random multi-module `cmin`
//! programs over a rotation of *shapes* (recursion cycles, function
//! pointers, `static` aliasing mixes, profile-feedback builds,
//! incremental-rebuild sequences); the [`oracle`] runs each one through
//! the reference interpreter and through compiled VPR code under **all
//! seven paper configurations**, plus `ipra-verify` and the attribution /
//! build-determinism invariants. Any disagreement is a [`oracle::Failure`].
//!
//! When a failure appears, the [`reduce`] module's delta-debugging
//! reducer shrinks the program to a minimal repro that still fails in the
//! same class, and [`corpus`] checks it into the persistent regression
//! corpus, where a replay test keeps it fixed forever.
//!
//! Because a fuzzer whose oracle never fires proves nothing, [`inject`]
//! provides self-validation: known miscompile classes are injected into
//! correct output and must be detected — and their repros shrink and land
//! in the corpus exactly like organic failures.
//!
//! ## Determinism
//!
//! Iteration `i` of a run with master seed `s` uses generator seed
//! `mix(s, i)` (a splitmix64 finalizer), independent of worker count:
//! `fuzz --seed 1 --iters 500 --jobs 8` and `--jobs 1` visit identical
//! programs and produce bit-identical reports. Only `--time-budget` runs
//! (where the iteration count itself depends on wall-clock) are exempt.

#![warn(missing_docs)]

pub mod corpus;
pub mod inject;
pub mod oracle;
pub mod reduce;

pub use inject::MutationClass;
pub use oracle::{CheckOptions, Failure};
pub use reduce::{ReduceOptions, ReduceOutcome};

use ipra_driver::SourceFile;
use ipra_workloads::generator::{random_program_with, GenConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fuzzing-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; every per-iteration seed derives from it.
    pub seed: u64,
    /// Number of iterations (ignored when `time_budget` is set).
    pub iters: usize,
    /// Run until this much wall-clock has elapsed instead of a fixed
    /// iteration count. Iteration seeds are still deterministic, but the
    /// stopping point is not.
    pub time_budget: Option<Duration>,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Where reduced repros are written; `None` disables corpus output.
    pub corpus_dir: Option<PathBuf>,
    /// Reduction budget per failure (predicate evaluations).
    pub reduce_checks: usize,
    /// Reduce and report at most this many failures (later ones are
    /// counted but left unreduced).
    pub max_reported: usize,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 1,
            iters: 100,
            time_budget: None,
            jobs: 0,
            corpus_dir: None,
            reduce_checks: ReduceOptions::default().max_checks,
            max_reported: 5,
        }
    }
}

/// One failing iteration, fully processed.
#[derive(Debug)]
pub struct FailureCase {
    /// Iteration index within the run.
    pub index: usize,
    /// The derived generator seed (reproduce with `--seed <this> --iters 1`
    /// is *not* enough — the shape rotation depends on the index — so the
    /// corpus stores the reduced sources themselves).
    pub seed: u64,
    /// Shape name from the rotation.
    pub shape: &'static str,
    /// What the oracle reported on the original program.
    pub failure: Failure,
    /// The reduced repro (the original sources if reduction was skipped
    /// or could not shrink).
    pub sources: Vec<SourceFile>,
    /// Module count before reduction.
    pub original_modules: usize,
    /// Predicate evaluations the reducer spent (0 = not reduced).
    pub reduce_checks: usize,
    /// Where the repro was saved, when a corpus directory was given.
    pub corpus_path: Option<PathBuf>,
}

/// The outcome of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Iterations actually executed.
    pub iterations: usize,
    /// Failures, in iteration order (at most
    /// [`FuzzOptions::max_reported`] are reduced; the rest only count in
    /// `total_failures`).
    pub failures: Vec<FailureCase>,
    /// Every failing iteration, including unreduced ones.
    pub total_failures: usize,
}

impl FuzzOutcome {
    /// Deterministic report: depends only on the seed/iteration stream,
    /// never on timing or worker count. Suitable for byte-comparison
    /// across `--jobs` widths.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} iterations, {} failure(s)",
            self.iterations, self.total_failures
        );
        for f in &self.failures {
            let _ = writeln!(
                out,
                "  [{}] seed {:#x} shape {}: {} ({} -> {} module(s))",
                f.index,
                f.seed,
                f.shape,
                f.failure.kind(),
                f.original_modules,
                f.sources.len()
            );
            if let Some(p) = &f.corpus_path {
                let _ = writeln!(out, "      saved {}", p.display());
            }
        }
        out
    }
}

/// A point in the shape rotation: a generator configuration plus the
/// oracle options it is checked under.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Short name for reports.
    pub name: &'static str,
    /// Generator configuration.
    pub gen: GenConfig,
    /// Oracle options.
    pub check: CheckOptions,
}

/// The shape rotation: iteration `i` uses `shape_for(i)`. Mostly cheap
/// all-configuration differentials; the expensive build-level scenarios
/// (incremental rebuilds, trace purity, artifact-staged separate
/// compilation) run on three of every twelve iterations. Four of every
/// twelve also run the reference interpreter and demand the fast engine's
/// exact results ([`CheckOptions::cross_engine`]). One slot per cycle
/// additionally round-trips the program through the `cmind` daemon wire codec
/// ([`CheckOptions::daemon_protocol`]), and one compiles every
/// configuration for *both* machine descriptions and demands identical
/// observable semantics ([`CheckOptions::cross_target`]).
pub fn shape_for(i: usize) -> Shape {
    let plain = CheckOptions::default();
    let g = GenConfig::default;
    match i % 12 {
        0 => Shape { name: "default", gen: g(), check: plain },
        1 => Shape {
            name: "wide",
            gen: GenConfig { modules: 3, funcs_per_module: 3, ..g() },
            check: CheckOptions { cross_engine: true, ..plain },
        },
        2 => Shape {
            name: "alias",
            gen: GenConfig { globals_per_module: 8, funcs_per_module: 5, alias_mix: true, ..g() },
            check: plain,
        },
        3 => Shape { name: "fptr", gen: GenConfig { global_fn_ptrs: true, ..g() }, check: plain },
        4 => Shape {
            name: "all-shapes",
            gen: GenConfig {
                modules: 3,
                recursion: true,
                alias_mix: true,
                global_fn_ptrs: true,
                ptr_shapes: true,
                ..g()
            },
            check: CheckOptions { cross_engine: true, ..plain },
        },
        5 => Shape {
            name: "incremental",
            gen: g(),
            check: CheckOptions { incremental: true, ..plain },
        },
        6 => Shape {
            name: "trace-purity",
            gen: GenConfig {
                modules: 3,
                recursion: true,
                alias_mix: true,
                global_fn_ptrs: true,
                ..g()
            },
            check: CheckOptions { trace_purity: true, ..plain },
        },
        7 => Shape {
            name: "deep",
            gen: GenConfig { funcs_per_module: 6, max_stmts: 6, recursion: true, ..g() },
            check: CheckOptions { cross_engine: true, ..plain },
        },
        8 => Shape {
            name: "separate",
            gen: GenConfig { modules: 3, alias_mix: true, ..g() },
            check: CheckOptions { separate: true, ..plain },
        },
        // Pointer-heavy: globals flowing into pointer parameters and
        // reassigned pointers, the shapes whose promotion decisions hinge
        // on the interprocedural points-to solve (configuration P).
        9 => Shape {
            name: "ptr",
            gen: GenConfig { globals_per_module: 6, alias_mix: true, ptr_shapes: true, ..g() },
            check: CheckOptions { cross_engine: true, ..plain },
        },
        // The daemon's wire protocol: multi-module programs (the sources
        // travel inside the request) round-tripped through the `cmind`
        // codec, with single-byte corruptions proven to be rejected.
        10 => Shape {
            name: "daemon",
            gen: GenConfig { modules: 3, alias_mix: true, ..g() },
            check: CheckOptions { daemon_protocol: true, ..plain },
        },
        // Both machine descriptions: every configuration is compiled for
        // VPR *and* RV32 (through one shared cache), verified under each
        // target's register convention, and must produce identical
        // observable RunResult semantics. Aliasing keeps the promotion
        // decisions — the target-sensitive part of the analysis — busy.
        _ => Shape {
            name: "cross-target",
            gen: GenConfig { modules: 3, alias_mix: true, recursion: true, ..g() },
            check: CheckOptions { cross_target: true, ..plain },
        },
    }
}

/// splitmix64 finalizer: the per-iteration seed derivation. Statistically
/// independent streams for adjacent `i`, and stable across releases (the
/// corpus records seeds).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn effective_jobs(jobs: usize) -> usize {
    if jobs != 0 {
        return jobs.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs one iteration: generate, check. Returns the failure (with the
/// generated sources) if the oracle fired.
fn run_iteration(master_seed: u64, index: usize) -> Option<(u64, Shape, Vec<SourceFile>, Failure)> {
    let shape = shape_for(index);
    let seed = mix(master_seed, index as u64);
    let sources = random_program_with(seed, &shape.gen);
    match oracle::check(&sources, &shape.check) {
        Ok(()) => None,
        Err(failure) => Some((seed, shape, sources, failure)),
    }
}

/// Runs iterations `[lo, hi)` across `jobs` workers (an index-pulling
/// scoped-thread pool; the driver's internal pool is not public), and
/// returns the failing iterations in index order regardless of worker
/// count or scheduling.
fn run_range(
    master_seed: u64,
    lo: usize,
    hi: usize,
    jobs: usize,
) -> Vec<(usize, u64, Shape, Vec<SourceFile>, Failure)> {
    let next = AtomicUsize::new(lo);
    let found = Mutex::new(Vec::new());
    let workers = effective_jobs(jobs).min(hi.saturating_sub(lo)).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= hi {
                    break;
                }
                if let Some((seed, shape, sources, failure)) = run_iteration(master_seed, i) {
                    found.lock().unwrap().push((i, seed, shape, sources, failure));
                }
            });
        }
    });
    let mut found = found.into_inner().unwrap();
    found.sort_by_key(|f| f.0);
    found
}

/// Runs the fuzzer. Deterministic in iteration-count mode; in
/// time-budget mode the visited seed stream is still deterministic but
/// its length is not.
pub fn fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    let mut raw = Vec::new();
    let iterations;
    if let Some(budget) = opts.time_budget {
        let start = Instant::now();
        let chunk = (effective_jobs(opts.jobs) * 4).max(8);
        let mut done = 0usize;
        while start.elapsed() < budget {
            raw.extend(run_range(opts.seed, done, done + chunk, opts.jobs));
            done += chunk;
        }
        iterations = done;
    } else {
        raw = run_range(opts.seed, 0, opts.iters, opts.jobs);
        iterations = opts.iters;
    }

    let mut outcome = FuzzOutcome { iterations, failures: Vec::new(), total_failures: raw.len() };

    // Reduction and corpus output are serial: failures are rare, and the
    // report order must match iteration order.
    for (index, seed, shape, sources, failure) in raw.into_iter().take(opts.max_reported) {
        let original_modules = sources.len();
        let reduced = reduce::reduce(
            &sources,
            |cand| oracle::check(cand, &shape.check).err().is_some_and(|f| f.same_class(&failure)),
            &ReduceOptions { max_checks: opts.reduce_checks },
        );
        let corpus_path = opts.corpus_dir.as_ref().and_then(|dir| {
            let entry = corpus::CorpusEntry {
                seed,
                failure: failure.kind().to_string(),
                config: failure.config().map(|c| c.to_string()),
                mutation: None,
                sources: reduced.sources.clone(),
            };
            corpus::save(dir, &entry).ok()
        });
        outcome.failures.push(FailureCase {
            index,
            seed,
            shape: shape.name,
            failure,
            sources: reduced.sources,
            original_modules,
            reduce_checks: reduced.checks,
            corpus_path,
        });
    }
    outcome
}

/// One self-validation result: the injected class, the seed whose
/// generated program hosted it, and the reduced repro.
#[derive(Debug)]
pub struct SelfValidation {
    /// The injected miscompile class.
    pub class: MutationClass,
    /// Generator seed of the host program.
    pub seed: u64,
    /// Module count before reduction.
    pub original_modules: usize,
    /// The reduced repro (injection still applies and is still detected).
    pub sources: Vec<SourceFile>,
    /// Where the repro was saved, when a corpus directory was given.
    pub corpus_path: Option<PathBuf>,
}

/// Proves the oracle would fire: for each known miscompile class, find a
/// generated program that hosts an injection site, inject, demand the
/// verifier flags the class's diagnostic, then shrink the host program to
/// a minimal one where the injection is still detected and (optionally)
/// save it to the corpus.
///
/// # Errors
///
/// Returns a message if no host program is found within the seed budget
/// or — the one outcome that must fail the run loudly — the verifier does
/// not flag an applied injection.
pub fn self_validate(opts: &FuzzOptions) -> Result<Vec<SelfValidation>, String> {
    let mut out = Vec::new();
    // Two modules are enough to host every class (promotion webs and
    // clusters form across one module boundary) and keep repros minimal.
    let shape = GenConfig { modules: 2, ..GenConfig::default() };
    for class in MutationClass::ALL {
        // Salt the stream per class (FNV-1a over the class name) so all
        // classes hunt independently of each other and of the main fuzz
        // loop.
        let salt = class.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut hosted = None;
        for attempt in 0..400u64 {
            let seed = mix(opts.seed ^ salt, attempt);
            let sources = random_program_with(seed, &shape);
            let Ok(program) =
                ipra_driver::compile(&sources, &ipra_driver::CompileOptions::paper(class.config()))
            else {
                continue;
            };
            if !ipra_driver::verify_program(&program).is_clean() {
                continue;
            }
            let mut mutated = program;
            if inject::inject(&mut mutated, class).is_none() {
                continue;
            }
            let detected = ipra_verify::verify_modules(&mutated.objects, &mutated.database)
                .of_kind(class.diag_kind())
                .next()
                .is_some();
            if !detected {
                return Err(format!(
                    "self-validation FAILED: injected {} into seed {seed:#x} and the \
                     verifier did not flag it",
                    class.name()
                ));
            }
            hosted = Some((seed, sources));
            break;
        }
        let Some((seed, sources)) = hosted else {
            return Err(format!(
                "self-validation: no generated program hosted an injection site for {} \
                 within the seed budget",
                class.name()
            ));
        };
        let original_modules = sources.len();
        let reduced = reduce::reduce(
            &sources,
            |cand| inject::injected_detectable(cand, class),
            &ReduceOptions { max_checks: opts.reduce_checks },
        );
        let corpus_path = opts.corpus_dir.as_ref().and_then(|dir| {
            let entry = corpus::CorpusEntry {
                seed,
                failure: format!("injected-{}", class.name()),
                config: Some(class.config().to_string()),
                mutation: Some(class),
                sources: reduced.sources.clone(),
            };
            corpus::save(dir, &entry).ok()
        });
        out.push(SelfValidation {
            class,
            seed,
            original_modules,
            sources: reduced.sources,
            corpus_path,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_stable() {
        // The corpus records seeds; the derivation must never change.
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        // Golden value: pinned so corpus seeds stay replayable forever.
        assert_eq!(mix(1, 0), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn shape_rotation_covers_all_extended_shapes() {
        let shapes: Vec<Shape> = (0..12).map(shape_for).collect();
        assert!(shapes.iter().any(|s| s.gen.recursion));
        assert!(shapes.iter().any(|s| s.gen.alias_mix));
        assert!(shapes.iter().any(|s| s.gen.global_fn_ptrs));
        assert!(shapes.iter().any(|s| s.gen.ptr_shapes));
        assert!(shapes.iter().any(|s| s.check.incremental));
        assert!(shapes.iter().any(|s| s.check.trace_purity));
        assert!(shapes.iter().any(|s| s.check.separate));
        // The reference interpreter is fuzzed against the fast engine on
        // a third of the rotation.
        assert_eq!(shapes.iter().filter(|s| s.check.cross_engine).count(), 4);
        assert!(shapes.iter().any(|s| s.check.daemon_protocol));
        assert!(shapes.iter().any(|s| s.check.cross_target));
        assert_eq!(shape_for(0).name, shape_for(12).name);
    }

    #[test]
    fn small_run_is_clean_and_jobs_independent() {
        let base = FuzzOptions { seed: 7, iters: 16, ..FuzzOptions::default() };
        let serial = fuzz(&FuzzOptions { jobs: 1, ..base.clone() });
        let parallel = fuzz(&FuzzOptions { jobs: 4, ..base });
        assert_eq!(serial.total_failures, 0, "{}", serial.render());
        assert_eq!(serial.render(), parallel.render());
    }
}
