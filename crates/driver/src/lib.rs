//! # ipra-driver — the two-pass compilation driver
//!
//! Drives the paper's Figure 1 pipeline over in-memory sources:
//!
//! 1. **Compiler first phase** (per module): parse, check, lower, run the
//!    level-2 optimizer, and derive the summary record.
//! 2. **Program analyzer**: build the call graph from all summaries and
//!    compute the program database ([`ipra_core::analyze`]).
//! 3. **Compiler second phase** (per module, any order): allocate registers
//!    under the database directives and emit VPR code.
//! 4. **Link** the object modules and, on demand, **run** the executable on
//!    the counting simulator.
//!
//! Because phases 1 and 3 are per-module and order-independent — the whole
//! point of the paper's summary-file design — the driver fans them out
//! across a [`std::thread::scope`] worker pool ([`CompileOptions::jobs`])
//! and makes recompilation **incremental** through a [`CompilationCache`]:
//!
//! * phase 1 is keyed on a content fingerprint of the module's source;
//! * the analyzer is memoized on the in-order summary fingerprints plus
//!   the analyzer options, so an edit that leaves every summary alone
//!   skips it;
//! * phase 2 is keyed on the pair (module IR fingerprint, fingerprint of
//!   the *module-relevant slice* of the [`ProgramDatabase`]), so an edit to
//!   one module re-runs codegen only for modules whose directives actually
//!   changed — the paper's recompilation story (§3) made real.
//!
//! Every key names content, not a module, so one cache serves any number
//! of programs and builds at once (`cmind` shares one among all its
//! clients); it is locked only around each batch probe or store.
//!
//! One cached pass per phase does that probing and compiling for every
//! build path; each build's [`BuildReport`] is its record of hits, misses,
//! evictions and recompiled modules. [`compile`] is one-shot;
//! [`compile_incremental`] reuses a cache across builds and returns the
//! report in [`CompiledProgram::build`]. A cache opened with
//! [`CompilationCache::with_disk`] additionally persists its entries to a
//! cache directory, so the same fingerprints keep working across *process*
//! invocations (`cminc --cache-dir`).
//!
//! The [`separate`] module stages the same pipeline through real on-disk
//! artifacts (`.csum`/`.cdir`/`.vo`/`.vx`, see [`ipra_artifact`]) —
//! required to be bit-identical to the in-memory path.
//!
//! Profile feedback (configurations B and F) is a closed loop here, run by
//! [`compile_configured`]: compile at the baseline, run on a training
//! input, convert the simulator's exact edge counts into [`ProfileData`],
//! and recompile — the moral equivalent of the paper's `gprof` pass. The
//! recompile shares the baseline's cache, so its first phase is pure cache
//! hits; no cache lock is held while the training run executes.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ipra_driver::{compile, CompileOptions, SourceFile};
//!
//! let sources = [SourceFile::new("app", "int main() { return 40 + 2; }")];
//! let program = compile(&sources, &CompileOptions::default())?;
//! let result = ipra_driver::run_program(&program, &[])?;
//! assert_eq!(result.exit, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
pub mod separate;
mod stages;

pub use cache::{BuildReport, CompilationCache, PhaseStats};

use cache::Analyzed;
use cmin_frontend::{analyze as check_module, parse_module, CompileError, Module, ModuleInfo};
use cmin_ir::interp::{interpret_with, InterpOptions, InterpResult};
use ipra_core::analyzer::{analyze, analyze_traced, AnalyzerOptions, AnalyzerStats, PaperConfig};
use ipra_core::trace::AnalyzerTrace;
use ipra_core::{ProfileData, ProgramDatabase};
use ipra_obsv::DiffReport;
use ipra_summary::ProgramSummary;
use ipra_telemetry::{span, Telemetry};
use ipra_verify::VerifyReport;
use stages::{analysis_key, cached_phase1, cached_phase2};
use std::fmt;
use std::sync::Arc;
use vpr::program::{link, Executable, LinkError, ObjectModule};
use vpr::sim::{run_with, RunResult, SimError, SimOptions};

/// One source module (name + text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Module name.
    pub name: String,
    /// `cmin` source text.
    pub text: String,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> SourceFile {
        SourceFile { name: name.into(), text: text.into() }
    }
}

/// Driver options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The analyzer options the build runs under — a paper configuration
    /// ([`CompileOptions::paper`], plain level-2 by default), with its
    /// profile for B/F, or any ablation. Their `target` is ignored: the
    /// build's [`target`](CompileOptions::target) is authoritative.
    pub analyzer: AnalyzerOptions,
    /// Run the level-2 global optimizer (on by default; turning it off
    /// gives the unoptimized baseline used to validate the optimizer and
    /// to quantify baseline quality).
    pub optimize: bool,
    /// Worker threads for the per-module phases (1 = serial, 0 = one per
    /// available core). Any value produces bit-identical output; this only
    /// trades wall-clock time.
    pub jobs: usize,
    /// Record the analyzer's decision trace in
    /// [`CompiledProgram::trace`]. Tracing is pure observation: the
    /// resulting program is bit-identical with or without it.
    pub trace: bool,
    /// Telemetry collector for this build: timed spans (whole build,
    /// per-module phase tasks tagged with their worker lane, analyze,
    /// link, cache I/O) and deterministic counters. `None` records
    /// nothing; either way the compiled program is bit-identical —
    /// telemetry is pure observation, like [`trace`](CompileOptions::trace).
    pub telemetry: Option<Telemetry>,
    /// The machine description codegen, the analyzer and the linker build
    /// against. The driver's target is authoritative: it overrides the
    /// `target` field of [`CompileOptions::analyzer`].
    pub target: vpr::target::TargetId,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            analyzer: AnalyzerOptions::paper_config(PaperConfig::L2, None),
            optimize: true,
            jobs: 1,
            trace: false,
            telemetry: None,
            target: vpr::target::TargetId::Vpr,
        }
    }
}

impl CompileOptions {
    /// Options for one of the paper's configurations (B and F without a
    /// profile; [`compile_configured`] trains one).
    pub fn paper(config: PaperConfig) -> CompileOptions {
        let analyzer = AnalyzerOptions::paper_config(config, None);
        CompileOptions { analyzer, ..CompileOptions::default() }
    }

    /// The worker-pool width this build will actually use.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// A fully compiled program plus everything the experiments report on.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The linked executable.
    pub exe: Executable,
    /// The pre-link object modules (kept so the machine-code verifier can
    /// check each procedure against the database that produced it).
    pub objects: Vec<ObjectModule>,
    /// Phase-1 summary files.
    pub summary: ProgramSummary,
    /// The analyzer's program database.
    pub database: ProgramDatabase,
    /// Analyzer statistics (webs, clusters, …).
    pub stats: AnalyzerStats,
    /// Per-phase timing and cache accounting for the build that produced
    /// this program.
    pub build: BuildReport,
    /// The analyzer's decision trace, when [`CompileOptions::trace`] was
    /// set (`None` otherwise).
    pub trace: Option<AnalyzerTrace>,
}

/// Driver errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// A frontend diagnostic.
    Compile(CompileError),
    /// A link failure.
    Link(LinkError),
    /// An artifact file could not be written or read back (separate
    /// compilation only).
    Artifact(ipra_artifact::ArtifactError),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Compile(e) => write!(f, "{e}"),
            DriverError::Link(e) => write!(f, "{e}"),
            DriverError::Artifact(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<CompileError> for DriverError {
    fn from(e: CompileError) -> DriverError {
        DriverError::Compile(e)
    }
}

impl From<LinkError> for DriverError {
    fn from(e: LinkError) -> DriverError {
        DriverError::Link(e)
    }
}

impl From<ipra_artifact::ArtifactError> for DriverError {
    fn from(e: ipra_artifact::ArtifactError) -> DriverError {
        DriverError::Artifact(e)
    }
}

/// Parses and checks every module (the frontend part of phase 1).
///
/// # Errors
///
/// Returns the first lexical, syntax or semantic error.
pub fn frontend(sources: &[SourceFile]) -> Result<Vec<(Module, ModuleInfo)>, CompileError> {
    sources
        .iter()
        .map(|s| {
            let m = parse_module(&s.name, &s.text)?;
            let info = check_module(&m)?;
            Ok((m, info))
        })
        .collect()
}

/// Compiles a multi-module program through the full two-pass pipeline,
/// from scratch (a fresh [`CompilationCache`] each call).
///
/// # Errors
///
/// Returns a [`DriverError`] on any frontend diagnostic or link failure.
pub fn compile(
    sources: &[SourceFile],
    options: &CompileOptions,
) -> Result<CompiledProgram, DriverError> {
    compile_incremental(sources, options, &CompilationCache::new())
}

/// Compiles a multi-module program, reusing `cache` across builds.
///
/// Phase 1 re-runs only for modules whose source changed; the analyzer
/// only when a summary or the analyzer options changed (and always under
/// [`CompileOptions::trace`]); phase 2 only for modules whose IR or whose
/// slice of the program database changed. Builds on other threads may
/// share `cache` at the same time. The result is bit-identical to a cold [`compile`] of the same
/// sources and options; [`CompiledProgram::build`] reports what was reused.
/// When the cache has an on-disk tier ([`CompilationCache::with_disk`]),
/// entries persisted by earlier *processes* count as hits too
/// ([`PhaseStats::disk_hits`]).
///
/// # Errors
///
/// Returns a [`DriverError`] on any frontend diagnostic or link failure.
/// On error the cache keeps the entries of modules that did compile, so a
/// fixed-up rebuild stays incremental.
pub fn compile_incremental(
    sources: &[SourceFile],
    options: &CompileOptions,
    cache: &CompilationCache,
) -> Result<CompiledProgram, DriverError> {
    let tele = options.telemetry.as_ref();
    let build_timer = span(tele, "build", "build");
    let jobs = options.effective_jobs();
    let mut report = BuildReport::default();

    // ---- Compiler first phase, cache-probed then fanned out per module.
    let phase1_timer = span(tele, "build", "phase1");
    let entries = cached_phase1(sources, options.optimize, jobs, cache, tele, &mut report);
    // A failed build still counts what its phases did to the cache.
    count_phase(tele, "phase1", &report.phase1);
    let entries = entries?;
    report.phase1.seconds = phase1_timer.finish();

    // ---- The program analyzer (whole-program; memoized unless traced).
    let analyze_timer = span(tele, "build", "analyze");
    let summary = ProgramSummary { modules: entries.iter().map(|e| e.summary.clone()).collect() };
    let analyzer_opts = AnalyzerOptions { target: options.target, ..options.analyzer.clone() };
    let (database, stats, trace) = if options.trace {
        let (a, t) = analyze_traced(&summary, &analyzer_opts);
        (a.database, a.stats, Some(t))
    } else {
        let memo = cache.analysis(analysis_key(&entries, &analyzer_opts), tele, || {
            let a = analyze(&summary, &analyzer_opts);
            Analyzed { database: a.database, stats: a.stats }
        });
        (memo.database.clone(), memo.stats.clone(), None)
    };
    report.analyze_seconds = analyze_timer.finish();

    // ---- Compiler second phase: per module, keyed on (IR, database slice).
    let phase2_timer = span(tele, "build", "phase2");
    let objects: Vec<ObjectModule> =
        cached_phase2(&entries, &database, options.target, jobs, cache, tele, &mut report)
            .into_iter()
            .map(|e| Arc::try_unwrap(e).map_or_else(|e| e.object.clone(), |e| e.object))
            .collect();
    count_phase(tele, "phase2", &report.phase2);
    if let Some(t) = tele {
        t.add("phase2.recompiled", report.recompiled.len() as u64);
    }
    report.phase2.seconds = phase2_timer.finish();

    // ---- Link (whole-program; always runs).
    let link_timer = span(tele, "build", "link");
    let exe = link(&objects)?;
    report.link_seconds = link_timer.finish();

    // One burst of disk-tier writes per build (entries stay served from
    // memory either way; see `DiskCache`). Charged to the build total.
    cache.flush(tele);
    report.total_seconds = build_timer.finish();

    if let Some(t) = tele {
        t.add("build.builds", 1);
        t.add("build.modules", sources.len() as u64);
        t.add("analyze.nodes", stats.nodes as u64);
        t.add("analyze.webs", stats.webs_total as u64);
        t.add("link.objects", objects.len() as u64);
        t.add("link.insts", exe.code_len() as u64);
    }

    Ok(CompiledProgram { exe, objects, summary, database, stats, build: report, trace })
}

/// Adds one phase's cache accounting to the build's counters
/// (`<phase>.hits`, `.disk_hits`, `.misses`, `.evictions`).
fn count_phase(tele: Option<&Telemetry>, phase: &str, stats: &PhaseStats) {
    if let Some(t) = tele {
        t.add(&format!("{phase}.hits"), stats.hits as u64);
        t.add(&format!("{phase}.disk_hits"), stats.disk_hits as u64);
        t.add(&format!("{phase}.misses"), stats.misses as u64);
        t.add(&format!("{phase}.evictions"), stats.evictions as u64);
    }
}

/// Runs the interprocedural register-discipline verifier over a compiled
/// program's object modules, against the database that directed codegen.
/// A clean report (see [`VerifyReport::is_clean`]) certifies that the
/// emitted machine code honors the callee-saves, promotion, cluster and
/// linkage disciplines the analyzer committed to.
pub fn verify_program(program: &CompiledProgram) -> VerifyReport {
    ipra_verify::verify_modules(&program.objects, &program.database)
}

/// Runs a compiled program on the simulator.
///
/// # Errors
///
/// Propagates simulator traps ([`SimError`]).
pub fn run_program(program: &CompiledProgram, input: &[i64]) -> Result<RunResult, SimError> {
    let opts = SimOptions { input: input.to_vec(), ..SimOptions::default() };
    run_with(&program.exe, &opts)
}

/// Runs a compiled program with exact per-procedure attribution enabled
/// ([`RunResult::attribution`] is `Some`). Attribution is pure observation:
/// output, exit code and every [`vpr::sim::RunStats`] field are identical to
/// a plain [`run_program`].
///
/// # Errors
///
/// Propagates simulator traps ([`SimError`]).
pub fn run_program_attributed(
    program: &CompiledProgram,
    input: &[i64],
) -> Result<RunResult, SimError> {
    let opts = SimOptions { input: input.to_vec(), attribute: true, ..SimOptions::default() };
    run_with(&program.exe, &opts)
}

/// Converts a run's call accounting into analyzer-ready profile data,
/// mapping function indices back to link names.
pub fn collect_profile_from(exe: &Executable, result: &RunResult) -> ProfileData {
    let mut profile = ProfileData::new();
    let funcs = exe.funcs();
    for (&(caller, callee), &count) in &result.stats.call_edges {
        let callee_name = match funcs.get(callee) {
            Some(f) => f.name.as_str(),
            None => continue,
        };
        let caller_name = match funcs.get(caller) {
            Some(f) => f.name.as_str(),
            None => continue, // startup stub
        };
        profile.record_edge(caller_name, callee_name, count);
    }
    profile
}

/// The profile-feedback training step shared by [`compile_configured`] and
/// [`separate::artifact_build_configured_for`]: runs the baseline
/// executable on `input` and collects its call-edge profile.
fn train(
    baseline: &Executable,
    input: &[i64],
    tele: Option<&Telemetry>,
) -> Result<ProfileData, SimError> {
    let timer = span(tele, "sim", "training-run");
    let training =
        run_with(baseline, &SimOptions { input: input.to_vec(), ..SimOptions::default() })?;
    timer.finish();
    if let Some(t) = tele {
        t.add("sim.training.runs", 1);
        t.add("sim.training.cycles", training.stats.cycles);
    }
    Ok(collect_profile_from(baseline, &training))
}

/// Compiles under any paper configuration, running the profile-feedback
/// loop first when the configuration wants one: a level-2 baseline build
/// (never traced), a training run on `training_input`, then the
/// profile-fed build. Both builds share `cache`, so the second one's first
/// phase is pure cache hits and its second phase re-runs only where the
/// profile moved the database. The caller's `options` (jobs, trace,
/// optimize, telemetry, target) are honored; their `analyzer` is replaced
/// by `config`'s for each leg.
///
/// # Errors
///
/// Returns a [`DriverError`] for compilation problems; a training-run trap
/// surfaces as the `Err` of the inner result.
pub fn compile_configured(
    sources: &[SourceFile],
    config: PaperConfig,
    training_input: &[i64],
    options: &CompileOptions,
    cache: &CompilationCache,
) -> Result<Result<CompiledProgram, SimError>, DriverError> {
    let profile = if config.wants_profile() {
        let baseline_opts = CompileOptions {
            analyzer: AnalyzerOptions::paper_config(PaperConfig::L2, None),
            trace: false,
            ..options.clone()
        };
        let baseline = compile_incremental(sources, &baseline_opts, cache)?;
        match train(&baseline.exe, training_input, options.telemetry.as_ref()) {
            Ok(profile) => Some(profile),
            Err(e) => return Ok(Err(e)),
        }
    } else {
        None
    };
    let analyzer = AnalyzerOptions::paper_config(config, profile);
    Ok(Ok(compile_incremental(sources, &CompileOptions { analyzer, ..options.clone() }, cache)?))
}

/// Compiles `sources` under two configurations (decision tracing on), runs
/// both with attribution on `input`, and joins the per-procedure deltas
/// with configuration B's directives and trace into a [`DiffReport`].
/// Profile-fed configurations train on the same `input`. The two builds
/// share one [`CompilationCache`], so common phases compile once.
///
/// # Errors
///
/// Returns a [`DriverError`] for compilation problems; simulator traps (in
/// training or measured runs) surface as the `Err` of the inner result.
pub fn diff_report(
    sources: &[SourceFile],
    config_a: PaperConfig,
    config_b: PaperConfig,
    input: &[i64],
    jobs: usize,
) -> Result<Result<DiffReport, SimError>, DriverError> {
    let cache = CompilationCache::new();
    let base = CompileOptions { trace: true, jobs, ..CompileOptions::default() };
    let prog_a = match compile_configured(sources, config_a, input, &base, &cache)? {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let prog_b = match compile_configured(sources, config_b, input, &base, &cache)? {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let ra = match run_program_attributed(&prog_a, input) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    let rb = match run_program_attributed(&prog_b, input) {
        Ok(r) => r,
        Err(e) => return Ok(Err(e)),
    };
    let report = DiffReport::build(
        &config_a.to_string(),
        &config_b.to_string(),
        ra.attribution.as_ref().expect("attribution was requested"),
        rb.attribution.as_ref().expect("attribution was requested"),
        &ra.stats,
        &rb.stats,
        &prog_b.database,
        prog_b.trace.as_ref().expect("tracing was requested"),
    );
    Ok(Ok(report))
}

/// Runs the reference interpreter on the same sources (the differential
/// oracle).
///
/// # Errors
///
/// Returns frontend diagnostics as `Err`; interpreter traps surface in the
/// inner result.
pub fn interpret_sources(
    sources: &[SourceFile],
    input: &[i64],
) -> Result<Result<InterpResult, cmin_ir::interp::InterpError>, CompileError> {
    let modules = frontend(sources)?;
    let opts = InterpOptions { input: input.to_vec(), ..InterpOptions::default() };
    Ok(interpret_with(&modules, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn src(name: &str, text: &str) -> SourceFile {
        SourceFile::new(name, text)
    }

    /// A cold build under `config`, trained on an empty input for B/F.
    fn configured(sources: &[SourceFile], config: PaperConfig) -> CompiledProgram {
        let cache = CompilationCache::new();
        compile_configured(sources, config, &[], &CompileOptions::default(), &cache)
            .unwrap()
            .unwrap()
    }

    /// A fresh temp directory, unique per test, wiped before use.
    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ipra-driver-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A two-module program with shared globals, statics, indirect calls
    /// and a hot call region — touches every analyzer feature.
    fn two_module_program() -> Vec<SourceFile> {
        vec![
            src(
                "counter",
                "static int hits;
                 int total;
                 int bump(int k) { hits = hits + 1; total = total + k; return total; }
                 int hits_of() { return hits; }",
            ),
            src(
                "app",
                "extern int total;
                 extern int bump(int);
                 extern int hits_of();
                 int noop(int k) { return k; }
                 int pick(int which) { if (which) { return &bump; } return &noop; }
                 int main() {
                     int f = pick(1);
                     for (int i = 0; i < 50; i = i + 1) { f(i); }
                     out(total);
                     out(hits_of());
                     return total;
                 }",
            ),
        ]
    }

    #[test]
    fn all_configs_agree_on_observable_behavior() {
        let sources = two_module_program();
        let oracle = interpret_sources(&sources, &[]).unwrap().unwrap();
        assert_eq!(oracle.output, vec![1225, 50]);
        for config in PaperConfig::ALL_WITH_ALIAS {
            let program = configured(&sources, config);
            let r = run_program(&program, &[]).unwrap();
            assert_eq!(r.output, oracle.output, "config {config} output diverged");
            assert_eq!(r.exit, oracle.exit, "config {config} exit diverged");
        }
    }

    #[test]
    fn every_config_passes_the_machine_code_verifier() {
        let sources = two_module_program();
        for config in PaperConfig::ALL_WITH_ALIAS {
            let program = configured(&sources, config);
            let report = verify_program(&program);
            assert!(report.is_clean(), "config {config} emitted undisciplined code:\n{report}");
            assert!(report.procs >= 5);
        }
    }

    #[test]
    fn promotion_reduces_singleton_refs() {
        let sources = two_module_program();
        let l2 = compile(&sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let c = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let rl2 = run_program(&l2, &[]).unwrap();
        let rc = run_program(&c, &[]).unwrap();
        assert!(
            rc.stats.singleton_refs() < rl2.stats.singleton_refs(),
            "C = {} refs, L2 = {} refs",
            rc.stats.singleton_refs(),
            rl2.stats.singleton_refs()
        );
        // Cycle counts on a program this small are dominated by one-time
        // web-entry overhead in main; allow a small regression while the
        // memory-reference reduction (the paper's Table 5 metric) holds.
        assert!(rc.stats.cycles <= rl2.stats.cycles + rl2.stats.cycles / 20);
        assert!(c.stats.webs_colored >= 1);
    }

    #[test]
    fn profile_feedback_round_trip() {
        let sources = two_module_program();
        let baseline = compile(&sources, &CompileOptions::paper(PaperConfig::L2)).unwrap();
        let r = run_program(&baseline, &[]).unwrap();
        let profile = collect_profile_from(&baseline.exe, &r);
        // bump is called 50 times through the function pointer.
        assert_eq!(profile.calls("bump"), 50);
        assert_eq!(profile.calls("hits_of"), 1);
        assert_eq!(profile.edge("main", "pick"), 1);
    }

    #[test]
    fn compile_errors_are_reported() {
        let e = compile(&[src("bad", "int f( {")], &CompileOptions::default());
        assert!(matches!(e, Err(DriverError::Compile(_))));
        let e = compile(&[src("a", "int f() { return 0; }")], &CompileOptions::default());
        assert!(matches!(e, Err(DriverError::Link(LinkError::NoMain))));
        // Error values format.
        let err = compile(&[src("bad", "int f( {")], &CompileOptions::default()).unwrap_err();
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn parallel_build_reports_the_first_module_error() {
        // Two broken modules: the diagnostic must be module 0's regardless
        // of which worker finishes first.
        let sources = vec![src("a", "int f( {"), src("b", "int g( {")];
        for jobs in [1, 4] {
            let opts = CompileOptions { jobs, ..CompileOptions::default() };
            let err = compile(&sources, &opts).unwrap_err();
            assert!(err.to_string().contains('a'), "jobs={jobs}: {err}");
        }
    }

    #[test]
    fn statics_with_same_name_do_not_collide() {
        let sources = vec![
            src("m1", "static int c = 1; int f1() { c = c + 10; return c; }"),
            src("m2", "static int c = 2; extern int f1(); int main() { f1(); return c; }"),
        ];
        let p = compile(&sources, &CompileOptions::default()).unwrap();
        let r = run_program(&p, &[]).unwrap();
        assert_eq!(r.exit, 2);
    }

    #[test]
    fn analyzer_stats_populate() {
        let sources = two_module_program();
        let c = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        assert!(c.stats.nodes >= 5);
        assert!(c.stats.eligible_globals >= 2); // hits (static) and total
        assert!(c.stats.webs_total >= 1);
        assert!(!c.database.is_empty());
    }

    #[test]
    fn input_is_threaded_through() {
        let sources =
            vec![src("io", "int main() { int a = in(); int b = in(); out(a * b); return 0; }")];
        let p = compile(&sources, &CompileOptions::default()).unwrap();
        let r = run_program(&p, &[6, 7]).unwrap();
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn parallel_map_preserves_order_and_balances() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 2, 8, 64] {
            let out = stages::parallel_map(&items, jobs, |&i| i * 2);
            assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(stages::parallel_map(&Vec::<usize>::new(), 4, |&i: &usize| i).is_empty());
    }

    #[test]
    fn warm_rebuild_is_all_hits_and_bit_identical() {
        let sources = two_module_program();
        let opts = CompileOptions::paper(PaperConfig::C);
        let cache = CompilationCache::new();
        let cold = compile_incremental(&sources, &opts, &cache).unwrap();
        assert_eq!(cold.build.phase1.misses, 2);
        assert_eq!(cold.build.phase2.misses, 2);
        let warm = compile_incremental(&sources, &opts, &cache).unwrap();
        assert_eq!(warm.build.phase1.hits, 2);
        assert_eq!(warm.build.phase2.hits, 2);
        assert_eq!(warm.build.phase1.disk_hits, 0);
        assert!(warm.build.recompiled.is_empty());
        assert_eq!(warm.exe, cold.exe);
        assert_eq!(warm.database, cold.database);
    }

    #[test]
    fn editing_one_module_reruns_only_its_first_phase() {
        let mut sources = two_module_program();
        let opts = CompileOptions::default();
        let cache = CompilationCache::new();
        compile_incremental(&sources, &opts, &cache).unwrap();
        // A whitespace-only edit changes the source hash but not the IR:
        // phase 1 re-runs for that module, phase 2 for nothing at all.
        sources[0].text.push_str("\n\n");
        let rebuilt = compile_incremental(&sources, &opts, &cache).unwrap();
        assert_eq!(rebuilt.build.phase1.misses, 1);
        assert_eq!(rebuilt.build.phase1.hits, 1);
        assert_eq!(rebuilt.build.phase2.hits, 2);
        assert!(rebuilt.build.recompiled.is_empty());
    }

    /// The analysis memo's hit and miss counters after one build.
    fn memo_counts(tele: &Telemetry) -> (u64, u64) {
        let c = tele.counters();
        let get = |k: &str| c.get(k).copied().unwrap_or(0);
        (get("cache.analysis.hits"), get("cache.analysis.misses"))
    }

    #[test]
    fn a_summary_invisible_edit_hits_the_analysis_memo() {
        let mut sources = two_module_program();
        sources.push(src("knob", "int knob() { return 7; }"));
        let cache = CompilationCache::new();
        let build = |sources: &[SourceFile]| {
            let tele = Telemetry::new();
            let opts = CompileOptions {
                telemetry: Some(tele.clone()),
                ..CompileOptions::paper(PaperConfig::C)
            };
            (compile_incremental(sources, &opts, &cache).unwrap(), memo_counts(&tele))
        };
        let (cold, counts) = build(&sources);
        assert_eq!(counts, (0, 1), "a cold build runs the analyzer");

        // A new constant: new IR, same summary — the memo serves the analysis.
        sources[2].text = sources[2].text.replace("return 7;", "return 8;");
        let (edited, counts) = build(&sources);
        assert_eq!(edited.summary, cold.summary, "the edit must leave the summary alone");
        assert_eq!(counts, (1, 0), "a summary-invisible edit hits the memo");
        let fresh = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        assert_eq!((&edited.exe, &edited.stats), (&fresh.exe, &fresh.stats));
        assert_eq!(edited.database, fresh.database);

        // A new global reference changes the summary: the analyzer re-runs.
        sources[2].text = "int g; int knob() { return g; }".to_string();
        let (visible, counts) = build(&sources);
        assert_ne!(visible.summary, cold.summary);
        assert_eq!(counts, (0, 1), "a summary-visible edit misses the memo");

        // Tracing always runs the analyzer (the trace is its by-product).
        let traced = CompileOptions { trace: true, ..CompileOptions::paper(PaperConfig::C) };
        assert!(compile_incremental(&sources, &traced, &cache).unwrap().trace.is_some());
    }

    #[test]
    fn every_analyzer_option_is_part_of_the_memo_key() {
        use ipra_core::analyzer::PromotionMode;
        let base = AnalyzerOptions::default();
        // Exhaustive: a new field fails to compile here until it is added.
        let AnalyzerOptions {
            spill_motion,
            promotion: _,
            profile: _,
            discard,
            cluster,
            precise_web_cluster_interaction,
            caller_preallocation,
            alias_precision,
            target: _,
        } = base.clone();
        let mut profile = ProfileData::new();
        profile.record_edge("main", "f", 1);
        let variants = [
            AnalyzerOptions { spill_motion: !spill_motion, ..base.clone() },
            AnalyzerOptions { promotion: PromotionMode::Greedy, ..base.clone() },
            AnalyzerOptions { promotion: PromotionMode::Coloring { registers: 5 }, ..base.clone() },
            AnalyzerOptions { profile: Some(profile.clone()), ..base.clone() },
            AnalyzerOptions { profile: Some(ProfileData::new()), ..base.clone() },
            AnalyzerOptions {
                discard: ipra_core::color::DiscardHeuristics {
                    min_lref_ratio: discard.min_lref_ratio + 0.125,
                    ..discard
                },
                ..base.clone()
            },
            AnalyzerOptions {
                discard: ipra_core::color::DiscardHeuristics {
                    min_singleton_refs: discard.min_singleton_refs + 1,
                    ..discard
                },
                ..base.clone()
            },
            AnalyzerOptions {
                cluster: ipra_core::cluster::ClusterHeuristics {
                    root_gain: cluster.root_gain * 2.0,
                },
                ..base.clone()
            },
            AnalyzerOptions {
                precise_web_cluster_interaction: !precise_web_cluster_interaction,
                ..base.clone()
            },
            AnalyzerOptions { caller_preallocation: !caller_preallocation, ..base.clone() },
            AnalyzerOptions { alias_precision: !alias_precision, ..base.clone() },
            AnalyzerOptions { target: vpr::target::TargetId::Rv32, ..base.clone() },
        ];
        let mut keys: Vec<u64> = std::iter::once(&base)
            .chain(&variants)
            .map(|opts| stages::analysis_key(&[], opts))
            .collect();
        assert_eq!(keys[0], stages::analysis_key(&[], &base.clone()), "the key is stable");
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "every flipped field moves the key");
    }

    #[test]
    fn disk_cache_persists_across_cache_instances() {
        let sources = two_module_program();
        let dir = tmpdir("disk-cache");
        let opts = CompileOptions::paper(PaperConfig::C);
        let cold = {
            let cache = CompilationCache::with_disk(&dir).unwrap();
            assert_eq!(cache.cache_dir(), Some(dir.as_path()));
            compile_incremental(&sources, &opts, &cache).unwrap()
        };
        assert_eq!(cold.build.phase1.misses, 2);
        // A *fresh* cache instance over the same directory — the in-process
        // stand-in for a separate cminc invocation — must be all disk hits.
        let cache = CompilationCache::with_disk(&dir).unwrap();
        let warm = compile_incremental(&sources, &opts, &cache).unwrap();
        assert_eq!(warm.build.phase1.hits, 2);
        assert_eq!(warm.build.phase1.disk_hits, 2);
        assert_eq!(warm.build.phase2.hits, 2);
        assert_eq!(warm.build.phase2.disk_hits, 2);
        assert!(warm.build.recompiled.is_empty());
        assert_eq!(warm.exe, cold.exe);
        assert_eq!(warm.database, cold.database);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_misses() {
        let sources = two_module_program();
        let dir = tmpdir("disk-corrupt");
        {
            let cache = CompilationCache::with_disk(&dir).unwrap();
            compile_incremental(&sources, &CompileOptions::default(), &cache).unwrap();
        }
        // Truncate every persisted entry; the rebuild must recompute, not
        // fail or produce wrong code.
        for sub in ["p1", "p2"] {
            for f in std::fs::read_dir(dir.join(sub)).unwrap() {
                std::fs::write(f.unwrap().path(), "{garbage").unwrap();
            }
        }
        let cache = CompilationCache::with_disk(&dir).unwrap();
        let rebuilt = compile_incremental(&sources, &CompileOptions::default(), &cache).unwrap();
        assert_eq!(rebuilt.build.phase1.misses, 2);
        assert_eq!(rebuilt.build.phase2.misses, 2);
        let r = run_program(&rebuilt, &[]).unwrap();
        assert_eq!(r.output, vec![1225, 50]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn separate_build_matches_in_memory_compile() {
        let sources = two_module_program();
        let dir = tmpdir("separate");
        let cache = CompilationCache::new();
        let staged = separate::artifact_build_for(
            &sources,
            PaperConfig::C,
            None,
            &dir,
            &cache,
            vpr::target::TargetId::Vpr,
        )
        .unwrap();
        let in_memory = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        assert_eq!(staged.exe, in_memory.exe);
        assert_eq!(staged.database, in_memory.database);
        assert_eq!(staged.recompiled, vec!["counter".to_string(), "app".to_string()]);
        // The artifacts really are on disk, self-describing and re-readable.
        assert_eq!(staged.summary_paths.len(), 2);
        for p in staged.summary_paths.iter().chain(staged.object_paths.iter()) {
            assert!(p.exists(), "{} missing", p.display());
        }
        let (kind, v, target) = ipra_artifact::sniff_file(&staged.executable_path).unwrap();
        assert_eq!(
            (kind, v, target),
            (
                ipra_artifact::ArtifactKind::Executable,
                ipra_artifact::FORMAT_VERSION,
                vpr::target::TargetId::Vpr
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_recompile_reuses_the_cache() {
        let sources = two_module_program();
        let program = configured(&sources, PaperConfig::F);
        // The profile-fed build is the second compile through the cache:
        // its first phase must be pure hits.
        assert_eq!(program.build.phase1.hits, sources.len());
        assert_eq!(program.build.phase1.misses, 0);
        let r = run_program(&program, &[]).unwrap();
        assert_eq!(r.output, vec![1225, 50]);
    }

    #[test]
    fn tracing_is_pure_observation() {
        let sources = two_module_program();
        let plain = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let traced_opts = CompileOptions { trace: true, ..CompileOptions::paper(PaperConfig::C) };
        let traced = compile(&sources, &traced_opts).unwrap();
        assert!(plain.trace.is_none());
        let trace = traced.trace.as_ref().expect("trace requested");
        assert!(!trace.events.is_empty());
        assert_eq!(traced.exe, plain.exe);
        assert_eq!(traced.database, plain.database);
    }

    #[test]
    fn attributed_run_is_cycle_neutral_and_exact() {
        let sources = two_module_program();
        let p = compile(&sources, &CompileOptions::paper(PaperConfig::C)).unwrap();
        let plain = run_program(&p, &[]).unwrap();
        let attr = run_program_attributed(&p, &[]).unwrap();
        assert_eq!(attr.stats, plain.stats);
        assert_eq!(attr.output, plain.output);
        let a = attr.attribution.as_ref().expect("attribution requested");
        assert!(a.matches(&attr.stats), "per-procedure sums must equal RunStats");
        assert!(a.get("bump").expect("bump ran").calls == 50);
    }

    #[test]
    fn diff_report_sums_and_explains() {
        let sources = two_module_program();
        for config_b in [PaperConfig::C, PaperConfig::F] {
            let r = diff_report(&sources, PaperConfig::L2, config_b, &[], 1).unwrap().unwrap();
            assert!(r.sums_match(), "{config_b}: per-proc sums must equal totals");
            assert_eq!(r.totals_b.cycles, r.procs.iter().map(|p| p.cycles_b).sum::<u64>());
            // Every procedure whose cost moved is linked to at least one
            // concrete analyzer decision.
            for p in r.procs.iter().filter(|p| p.cycles_delta != 0) {
                if p.name == vpr::sim::STARTUP_PROC {
                    continue;
                }
                assert!(!p.reasons.is_empty(), "{config_b}: `{}` moved with no reason", p.name);
            }
            // Determinism: building it again yields byte-identical JSON.
            let again = diff_report(&sources, PaperConfig::L2, config_b, &[], 1).unwrap().unwrap();
            assert_eq!(r.to_json(), again.to_json());
        }
    }

    #[test]
    fn jobs_do_not_change_the_executable() {
        let sources = two_module_program();
        let serial =
            compile(&sources, &CompileOptions { jobs: 1, ..CompileOptions::paper(PaperConfig::C) })
                .unwrap();
        let parallel =
            compile(&sources, &CompileOptions { jobs: 4, ..CompileOptions::paper(PaperConfig::C) })
                .unwrap();
        assert_eq!(serial.exe, parallel.exe);
        assert_eq!(serial.database, parallel.database);
        assert!(CompileOptions { jobs: 0, ..Default::default() }.effective_jobs() >= 1);
    }
}
