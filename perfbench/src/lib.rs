//! # perfbench — the seeded benchmark of the two-pass pipeline
//!
//! Three workloads drive the pipeline through its public entry points
//! (`ipra_driver::compile`/`compile_incremental`, `ipra_daemon::Client`,
//! `verify_program`, `run_program`) and check every result against an
//! independent oracle (`interpret_sources`, or an independent `compile`).
//! An untraced run reports the end-to-end metrics; a traced run reports
//! per-layer times and counts from spans the benchmark records around each
//! layer's public functions ([`pipeline`]). Timings are corrected for the
//! shared host's drifting speed ([`host`]). See `README.md` beside this
//! crate for why each workload was chosen and which end-to-end metric each
//! layer metric should move.

pub mod daemon;
pub mod host;
pub mod pipeline;
pub mod scale;
pub mod spans;
pub mod suite;

use ipra_driver::SourceFile;
pub use serde_json::Value as Json;
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics and units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("edit_p50_s", "s"),
    ("edit_p95_s", "s"),
    ("edits_per_s", "1/s"),
    ("suite_s", "s"),
    ("cycles_vs_l2", "ratio"),
    ("singleton_refs_vs_l2", "ratio"),
    ("code_insts", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("frontend.parse_s", "s"),
    ("frontend.check_s", "s"),
    ("ir.lower_s", "s"),
    ("ir.opt_s", "s"),
    ("summary.s", "s"),
    ("alias.solve_s", "s"),
    ("core.analyze_s", "s"),
    ("core.callgraph_s", "s"),
    ("core.eligibility_s", "s"),
    ("core.refsets_s", "s"),
    ("core.webs_s", "s"),
    ("core.prioritize_s", "s"),
    ("core.color_s", "s"),
    ("core.clusters_s", "s"),
    ("core.regsets_s", "s"),
    ("core.database_s", "s"),
    ("core.nodes", "count"),
    ("core.eligible_globals", "count"),
    ("core.webs", "count"),
    ("core.webs_colored", "count"),
    ("core.clusters", "count"),
    ("codegen.s", "s"),
    ("codegen.modules", "count"),
    ("vpr.link_s", "s"),
    ("vpr.sim_s", "s"),
    ("vpr.sim_ips", "1/s"),
    ("vpr.cycles", "count"),
    ("verify.s", "s"),
    ("verify.procs", "count"),
    ("driver.p1_hit_ratio", "ratio"),
    ("driver.p2_hit_ratio", "ratio"),
    ("driver.recompiled", "count"),
    ("daemon.hit_ratio", "ratio"),
    ("daemon.builds", "count"),
    ("daemon.coalesced", "count"),
    ("daemon.service_s", "s"),
];

/// Span names whose busy time is a per-layer `_s` metric.
const TIMED_LAYERS: [(&str, &str); 19] = [
    ("frontend.parse", "frontend.parse_s"),
    ("frontend.check", "frontend.check_s"),
    ("ir.lower", "ir.lower_s"),
    ("ir.opt", "ir.opt_s"),
    ("summary", "summary.s"),
    ("alias.solve", "alias.solve_s"),
    ("core.analyze", "core.analyze_s"),
    ("core.callgraph", "core.callgraph_s"),
    ("core.eligibility", "core.eligibility_s"),
    ("core.refsets", "core.refsets_s"),
    ("core.webs", "core.webs_s"),
    ("core.prioritize", "core.prioritize_s"),
    ("core.color", "core.color_s"),
    ("core.clusters", "core.clusters_s"),
    ("core.regsets", "core.regsets_s"),
    ("codegen", "codegen.s"),
    ("vpr.link", "vpr.link_s"),
    ("vpr.sim", "vpr.sim_s"),
    ("verify", "verify.s"),
];

/// Wall-clock stage spans of a traced build; with `vpr.link` they account
/// for the traced build's time (the layer spans inside phase 1 and phase 2
/// overlap across workers, so their busy time exceeds the stage's wall).
const STAGES: [&str; 5] = ["build", "phase1", "analyze", "phase2", "vpr.link"];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold 1024-module builds, each followed by the verifier.
    ScaleCold,
    /// A closed loop of one-module edits against an in-process `cmind`.
    EditDaemon,
    /// The seven Table 3 programs under all eight configurations.
    PaperSuite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ScaleCold, Workload::EditDaemon, Workload::PaperSuite];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleCold => "scale_cold",
            Workload::EditDaemon => "edit_daemon",
            Workload::PaperSuite => "paper_suite",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`] is the
/// smoke test's.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Modules in the `scale_cold` program.
    pub scale_modules: usize,
    /// Modules in each `edit_daemon` client's program.
    pub edit_modules: usize,
    /// Set-ups before the measured window (the last one's products are
    /// used).
    pub setup_before: usize,
    /// Further set-ups spread over the window (`edit_daemon`: after it).
    /// `setup_s` is the median of all of them.
    pub setup_spread: usize,
    /// Operations (`paper_suite`: passes) measured even when the time is up.
    pub min_ops: usize,
    /// `edit_daemon` requests measured even when the time is up.
    pub min_requests: usize,
    /// Worker threads and daemon clients.
    pub jobs: usize,
}

impl Sizes {
    /// The benchmark's sizes on this host.
    pub fn full() -> Sizes {
        Sizes {
            scale_modules: 1024,
            edit_modules: 256,
            setup_before: 3,
            setup_spread: 12,
            min_ops: 3,
            min_requests: 200,
            jobs: nproc(),
        }
    }

    /// Smoke-test sizes: 16 modules, one operation.
    pub fn tiny() -> Sizes {
        Sizes {
            scale_modules: 16,
            edit_modules: 16,
            setup_before: 1,
            setup_spread: 1,
            min_ops: 1,
            min_requests: 1,
            jobs: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub sizes: Sizes,
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A JSON number, or `null` for a value that is not finite (an empty
/// sample list has no median).
pub fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Float(x)
    } else {
        Json::Null
    }
}

/// Compact JSON text.
pub fn render(v: &Json) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); NaN when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples that lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The geometric mean; NaN when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// A SplitMix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The `n`-module scaled program with each module's `tune` constant drawn
/// from `rng`: the IR differs per seed, the summaries do not.
pub fn seeded_scaled(n: usize, rng: &mut Rng) -> Vec<SourceFile> {
    (0..n).map(|i| ipra_workloads::scaled::scaled_module(i, n, rng.below(1000) as i64)).collect()
}

/// Runs the reference interpreter on a deep stack: the scaled programs'
/// call chains are as deep as their module count.
///
/// # Errors
///
/// A frontend diagnostic or interpreter trap, rendered.
pub fn interpret_deep(
    sources: &[SourceFile],
    input: &[i64],
) -> Result<cmin_ir::interp::InterpResult, String> {
    let modules = ipra_driver::frontend(sources).map_err(|e| format!("frontend: {e}"))?;
    let opts = cmin_ir::interp::InterpOptions {
        max_depth: 8 * sources.len() + 1024,
        input: input.to_vec(),
        ..cmin_ir::interp::InterpOptions::default()
    };
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, || cmin_ir::interp::interpret_with(&modules, &opts))
            .map_err(|e| format!("interpreter thread: {e}"))?
            .join()
            .map_err(|_| "interpreter panicked".to_string())?
            .map_err(|e| format!("interpreter: {e}"))
    })
}

/// Compiled output and exit against the interpreter's.
///
/// # Errors
///
/// What differs.
pub fn check_oracle(
    what: &str,
    run: &vpr::sim::RunResult,
    oracle: &cmin_ir::interp::InterpResult,
) -> Result<(), String> {
    if run.output != oracle.output || run.exit != oracle.exit {
        return Err(format!(
            "{what}: output/exit {:?}/{} differ from the interpreter's {:?}/{}",
            run.output, run.exit, oracle.output, oracle.exit
        ));
    }
    Ok(())
}

/// Runs a scaled program's C build and a fresh L2 build of the same
/// sources on the fast engine, checks both against the interpreter, and
/// returns the quality ratios and the C build's size; a traced run also
/// gets the simulator's layer values from the C run.
///
/// # Errors
///
/// A build error, a trap, or a run that disagrees with the interpreter.
pub fn scaled_quality(
    run: &mut Run,
    label: &str,
    sources: &[SourceFile],
    program: &ipra_driver::CompiledProgram,
    oracle: &cmin_ir::interp::InterpResult,
    jobs: usize,
) -> Result<Quality, String> {
    use ipra_core::PaperConfig;
    use ipra_driver::{compile, run_program, CompileOptions};
    let l2 = compile(sources, &CompileOptions { jobs, ..CompileOptions::paper(PaperConfig::L2) })
        .map_err(|e| format!("{label} L2 build: {e}"))?;
    let sim = run.spans.begin("vpr.sim", label, None, 0);
    let rc = run_program(program, &[]).map_err(|e| format!("{label} C run: {e}"));
    let sim_s = run.spans.end(sim);
    let rc = rc?;
    let rl = run_program(&l2, &[]).map_err(|e| format!("{label} L2 run: {e}"))?;
    check_oracle(&format!("{label} C"), &rc, oracle)?;
    check_oracle(&format!("{label} L2"), &rl, oracle)?;
    run.exact("cycles.C", rc.stats.cycles)?;
    run.exact("cycles.L2", rl.stats.cycles)?;
    run.exact("singleton_refs.C", rc.stats.singleton_refs())?;
    run.exact("singleton_refs.L2", rl.stats.singleton_refs())?;
    run.exact("code_insts", program.exe.code_len() as u64)?;
    if run.cfg.trace {
        run.layer_values.insert("vpr.sim_s".into(), sim_s);
        run.layer_values.insert("vpr.cycles".into(), rc.stats.cycles as f64);
        run.layer_values.insert("vpr.sim_ips".into(), rc.stats.cycles as f64 / sim_s);
    }
    Ok(Quality {
        cycles_vs_l2: rc.stats.cycles as f64 / rl.stats.cycles as f64,
        singleton_refs_vs_l2: rc.stats.singleton_refs() as f64 / rl.stats.singleton_refs() as f64,
        code_insts: program.exe.code_len() as u64,
    })
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a timing measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Timing {
    /// One set-up.
    Setup,
    /// One operation.
    Op,
    /// One build.
    Build,
    /// One verifier call.
    Verify,
    /// One pass.
    Pass,
}

impl Timing {
    fn name(self) -> &'static str {
        match self {
            Timing::Setup => "setup",
            Timing::Op => "op",
            Timing::Build => "build",
            Timing::Verify => "verify",
            Timing::Pass => "pass",
        }
    }
}

/// Timings one run measured, in reference-host seconds ([`host`]). Every
/// workload fills them; what an "operation" and a "pass" are depends on the
/// workload (see `README.md`).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Set-up times.
    pub setup: Vec<f64>,
    /// Operation latencies.
    pub op: Vec<f64>,
    /// Build times.
    pub build: Vec<f64>,
    /// Verifier times.
    pub verify: Vec<f64>,
    /// Pass times.
    pub pass: Vec<f64>,
    /// Length of the measured window: `edit_daemon`'s wall window; the
    /// sum of the operation times on the other workloads.
    pub window_s: f64,
    /// The same timings in wall-clock seconds, for the detail line.
    pub wall: BTreeMap<Timing, Vec<f64>>,
    /// Peak resident memory taken at a fixed point of the workload, where
    /// the end of the run would depend on how much work the window held;
    /// `None` takes it at the end of the run.
    pub peak_rss_mb: Option<f64>,
    /// The host-speed readings that correct the timings.
    pub probe: host::Probe,
}

impl Samples {
    /// Records a timing of `wall` seconds whose interval `factor` turns
    /// into reference-host seconds ([`host::Probe::factor`]).
    pub fn record(&mut self, what: Timing, wall: f64, factor: f64) {
        let list = match what {
            Timing::Setup => &mut self.setup,
            Timing::Op => &mut self.op,
            Timing::Build => &mut self.build,
            Timing::Verify => &mut self.verify,
            Timing::Pass => &mut self.pass,
        };
        list.push(wall * factor);
        self.wall.entry(what).or_default().push(wall);
    }

    /// Runs `setup` `times` times, timing each; returns the last products.
    pub fn time_setup<R>(&mut self, times: usize, mut setup: impl FnMut() -> R) -> Option<R> {
        let mut last = None;
        for _ in 0..times {
            self.probe.fresh();
            let t = Instant::now();
            let products = setup();
            let wall = t.elapsed().as_secs_f64();
            let factor = self.probe.factor();
            self.record(Timing::Setup, wall, factor);
            last = Some(products);
        }
        last
    }

    /// Wall-clock medians of every timing, for the detail line.
    pub fn wall_medians(&self) -> Json {
        Json::Object(
            self.wall.iter().map(|(k, v)| (k.name().to_string(), num(median(v)))).collect(),
        )
    }
}

/// The measured window. Between operations it pauses for set-up
/// repetitions spread evenly over it, so that `setup_s` samples the host
/// across the whole run rather than in its first second; paused time does
/// not count as window time.
#[derive(Debug)]
pub struct Window {
    start: Instant,
    paused: f64,
    seconds: f64,
    spread: usize,
    setups: usize,
}

impl Window {
    /// Opens a window of `seconds` with `spread` set-up repetitions.
    pub fn new(seconds: f64, spread: usize) -> Window {
        Window { start: Instant::now(), paused: 0.0, seconds, spread, setups: 0 }
    }

    /// Window seconds so far, pauses excluded.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused
    }

    /// Whether the window's time is up.
    pub fn over(&self) -> bool {
        self.elapsed() >= self.seconds
    }

    /// Runs the set-up repetitions due by now outside the window, timing
    /// each into `s`; the `k`-th is due at `(k + 1/2) / spread` of the
    /// window.
    pub fn setups_due<R>(&mut self, s: &mut Samples, mut setup: impl FnMut() -> R) {
        while self.setups < self.spread
            && self.elapsed() >= self.seconds * (self.setups as f64 + 0.5) / self.spread as f64
        {
            let t = Instant::now();
            s.time_setup(1, &mut setup);
            self.paused += t.elapsed().as_secs_f64();
            self.setups += 1;
        }
    }
}

/// Generated-code quality of a run (exact counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Geometric mean of simulated cycles over L2 cycles.
    pub cycles_vs_l2: f64,
    /// The same for dynamic singleton memory references.
    pub singleton_refs_vs_l2: f64,
    /// Static instructions in the linked executables.
    pub code_insts: u64,
}

/// A run in progress: the failure tally, the exact counts, the spans and
/// the per-layer samples.
#[derive(Debug)]
pub struct Run {
    /// The run's settings.
    pub cfg: Config,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failures, described.
    pub failures: Vec<String>,
    /// Exact counts; each must read the same every time it is measured.
    pub exact: BTreeMap<String, u64>,
    /// Spans (traced runs only).
    pub spans: Spans,
    /// Per-layer samples by metric name (traced runs only).
    pub layer_samples: BTreeMap<String, Vec<f64>>,
    /// Per-layer values set once per run (daemon counters, ratios).
    pub layer_values: BTreeMap<String, f64>,
    /// Wall-clock stage samples of traced builds, for the detail line.
    pub stage_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Extra records for the report's detail line.
    pub detail: Vec<(String, Json)>,
}

impl Run {
    /// A fresh run.
    pub fn new(cfg: Config) -> Run {
        Run {
            cfg,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            exact: BTreeMap::new(),
            spans: Spans::new(),
            layer_samples: BTreeMap::new(),
            layer_values: BTreeMap::new(),
            stage_samples: BTreeMap::new(),
            detail: Vec::new(),
        }
    }

    /// Counts one operation and its outcome; returns whether it passed.
    pub fn op(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 16 {
                    self.failures.push(e);
                }
                false
            }
        }
    }

    /// Records an exact count.
    ///
    /// # Errors
    ///
    /// When `key` was recorded before with another value.
    pub fn exact(&mut self, key: &str, value: u64) -> Result<(), String> {
        match self.exact.insert(key.to_string(), value) {
            Some(old) if old != value => {
                Err(format!("nondeterministic count {key}: {old} then {value}"))
            }
            _ => Ok(()),
        }
    }

    /// Records one traced operation's layer busy times from the run's
    /// spans since `from`, plus its counts.
    pub fn layer_sample(&mut self, from: usize, counts: &[(&str, f64)]) {
        let sample = LayerSample::from_spans(&self.spans, from, counts);
        self.add_layer_sample(sample);
    }

    /// Adds one sample of every per-layer metric.
    pub fn add_layer_sample(&mut self, sample: LayerSample) {
        for (name, v) in sample.metrics {
            self.layer_samples.entry(name).or_default().push(v);
        }
        for (stage, v) in sample.stages {
            self.stage_samples.entry(stage).or_default().push(v);
        }
    }

    /// The end-to-end metrics from the run's samples.
    pub fn end_to_end(&self, s: &Samples, q: Quality) -> BTreeMap<&'static str, f64> {
        let ops = s.op.len() as f64;
        BTreeMap::from([
            ("setup_s", median(&s.setup)),
            ("build_s", median(&s.build)),
            ("verify_s", median(&s.verify)),
            ("edit_p50_s", median(&s.op)),
            ("edit_p95_s", percentile(&s.op, 95.0)),
            ("edits_per_s", ops / s.window_s),
            ("suite_s", median(&s.pass)),
            ("cycles_vs_l2", q.cycles_vs_l2),
            ("singleton_refs_vs_l2", q.singleton_refs_vs_l2),
            ("code_insts", q.code_insts as f64),
            ("peak_rss_mb", s.peak_rss_mb.unwrap_or_else(peak_rss_mb)),
        ])
    }

    /// Per-layer metrics: the median of each sample list, then the
    /// once-per-run values; a layer that is not on this workload's path
    /// reads 0.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> =
            PER_LAYER.iter().map(|(n, _)| (n.to_string(), 0.0)).collect();
        for (name, v) in &self.layer_samples {
            out.insert(name.clone(), median(v));
        }
        for (name, v) in &self.layer_values {
            out.insert(name.clone(), *v);
        }
        out
    }
}

/// One traced operation's per-layer values.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Per-layer metric values.
    pub metrics: Vec<(String, f64)>,
    /// Wall-clock stage times.
    pub stages: Vec<(&'static str, f64)>,
}

impl LayerSample {
    /// Layer busy times from `spans` recorded since `from`, `core.database_s`
    /// (the composed analyzer's time outside its sub-passes), the number of
    /// modules codegen compiled, and the given counts.
    pub fn from_spans(spans: &Spans, from: usize, counts: &[(&str, f64)]) -> LayerSample {
        let totals = spans.totals_since(from);
        let get = |n: &str| totals.get(n).copied().unwrap_or(0.0);
        let mut metrics: Vec<(String, f64)> =
            TIMED_LAYERS.iter().map(|&(span, metric)| (metric.to_string(), get(span))).collect();
        let subpasses: f64 = pipeline::SUBPASSES.iter().map(|s| get(s)).sum();
        metrics.push(("core.database_s".into(), get("analyze") - subpasses));
        let codegen = spans.list[from..].iter().filter(|s| s.name == "codegen").count();
        metrics.push(("codegen.modules".into(), codegen as f64));
        metrics.extend(counts.iter().map(|&(n, v)| (n.to_string(), v)));
        let stages = STAGES.iter().filter(|&&s| totals.contains_key(s)).map(|&s| (s, get(s)));
        LayerSample { metrics, stages: stages.collect() }
    }
}

/// Sample counts behind each median and percentile.
pub fn sample_counts(s: &Samples) -> Json {
    Json::Object(vec![
        ("setup".into(), Json::UInt(s.setup.len() as u64)),
        ("setup_each_s".into(), Json::Array(s.setup.iter().map(|&x| num(x)).collect())),
        ("op".into(), Json::UInt(s.op.len() as u64)),
        ("op_beyond_p95".into(), Json::UInt(beyond(s.op.len(), 95.0) as u64)),
        ("build".into(), Json::UInt(s.build.len() as u64)),
        ("verify".into(), Json::UInt(s.verify.len() as u64)),
        ("pass".into(), Json::UInt(s.pass.len() as u64)),
        ("window_s".into(), num(s.window_s)),
    ])
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// The run, with its tally, exact counts, spans and detail.
    pub run: Run,
    /// End-to-end metrics (measured in every run; a traced run's figures
    /// include tracing and go to the detail line only).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub per_layer: BTreeMap<String, f64>,
}

/// Runs one workload.
pub fn run(cfg: Config) -> Outcome {
    let started = Instant::now();
    let mut run = Run::new(cfg);
    let (samples, quality) = match run.cfg.workload {
        Workload::ScaleCold => scale::run(&mut run),
        Workload::EditDaemon => daemon::run(&mut run),
        Workload::PaperSuite => suite::run(&mut run),
    };
    let end_to_end = run.end_to_end(&samples, quality);
    let per_layer = if run.cfg.trace { run.per_layer() } else { BTreeMap::new() };
    run.detail.push(("samples".into(), sample_counts(&samples)));
    run.detail.push(("wall_median_s".into(), samples.wall_medians()));
    run.detail.push(("host".into(), samples.probe.detail()));
    if run.cfg.trace {
        let stages =
            run.stage_samples.iter().map(|(k, v)| (k.to_string(), num(median(v)))).collect();
        run.detail.push(("trace.stages_s".into(), Json::Object(stages)));
    }
    run.detail.push(("run_s".into(), num(started.elapsed().as_secs_f64())));
    Outcome { run, end_to_end, per_layer }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_spreads_its_setups_and_pauses_for_them() {
        let mut s = Samples::default();
        let mut window = Window::new(0.05, 4);
        let mut setup_s = 0.0;
        while !window.over() {
            std::thread::sleep(std::time::Duration::from_millis(2));
            window.setups_due(&mut s, || std::thread::sleep(std::time::Duration::from_millis(20)));
            setup_s = s.wall.get(&Timing::Setup).map_or(0.0, |v| v.iter().sum());
        }
        assert_eq!(s.setup.len(), 4);
        assert!(setup_s >= 0.08);
        assert!(window.elapsed() < 0.05 + 0.03, "paused time counted: {}", window.elapsed());
    }
}
