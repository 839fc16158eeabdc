//! `edit_daemon`: a closed loop of one-module edits against one in-process
//! `cmind` (default `ServerOptions`).
//!
//! Each of `jobs` clients holds its own connection and its own seeded
//! variant of the 256-module scaled program, and sends its next edit only
//! after the reply to the previous one arrived, until the window is over and at least 200
//! requests completed (so that at least 10 latency samples lie beyond p95).
//! The window runs in segments of about two seconds; between segments every
//! client waits for its reply and then pauses while the host probe takes a
//! reading ([`crate::host`]), so that the probe never runs beside the
//! daemon's work. An operation is one request, timed from send to the
//! fingerprint-checked reply; a pass is one request from every client,
//! whose time is the window divided by the completed rounds. One edit in four is
//! summary-visible: it toggles whether the module's tune function reads
//! the module's global. The rest re-tune the function's constant, which
//! leaves the summary alone.
//!
//! The programs start where a long run would end, so that the cost of a
//! request does not drift with the number of requests a run completes (a
//! faster daemon would otherwise finish its window in a costlier state):
//! each module reads its global with probability 1/2, the equilibrium of
//! the toggles, and the clients' variants draw their tune constants apart,
//! so that they differ in almost every module, as edit streams drawn
//! independently come to. A daemon shard keeps one version of each module,
//! so a request routed to a shard that last served another client misses
//! on every module that differs between the two clients' programs; had the
//! clients started from one program, that count, and with it the misses per
//! request, would grow with the requests completed.
//!
//! After the window every reply is checked against an independent cold
//! `compile` of the same sources (FNV-64 of the whole `.vx` text, which the
//! client re-hashes on receipt, for every reply; the full bytes for each
//! client's last reply), and that program must be verifier-clean.

use crate::host::Probe;
use crate::pipeline::{self, Composed};
use crate::spans::Spans;
use crate::{
    interpret_deep, median, num, peak_rss_mb, scaled_quality, Json, LayerSample, Quality, Rng, Run,
    Samples, Timing,
};
use ipra_core::analyzer::AnalyzerOptions;
use ipra_core::PaperConfig;
use ipra_daemon::protocol::{executable_artifact, BuildRequest, WireSource};
use ipra_daemon::{Client, Server, ServerOptions};
use ipra_driver::{
    compile, compile_incremental, verify_program, CompilationCache, CompileOptions, SourceFile,
};
use ipra_summary::ProgramSummary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// Target length of one window segment, in seconds.
const SEGMENT_S: f64 = 2.0;

/// One module's edit state.
#[derive(Debug, Clone, Copy)]
struct ModState {
    tune: i64,
    reads_global: bool,
}

/// One edit of a client's stream.
#[derive(Debug, Clone, Copy)]
struct Edit {
    module: usize,
    tune: i64,
    visible: bool,
}

/// A client's program: module states and the sources they generate.
#[derive(Debug, Clone)]
struct Program {
    states: Vec<ModState>,
    sources: Vec<SourceFile>,
}

impl Program {
    /// Client `c`'s initial program.
    fn new(n: usize, seed: u64, c: usize) -> Program {
        let mut rng = Rng::new(seed, 5000 + c as u64);
        let states: Vec<ModState> = (0..n)
            .map(|_| ModState { tune: rng.below(1000) as i64, reads_global: rng.below(2) == 1 })
            .collect();
        let sources = (0..n).map(|i| module_text(i, n, states[i])).collect();
        Program { states, sources }
    }

    fn apply(&mut self, e: Edit) {
        let n = self.states.len();
        let st = &mut self.states[e.module];
        st.tune = e.tune;
        st.reads_global ^= e.visible;
        self.sources[e.module] = module_text(e.module, n, *st);
    }

    /// Share of modules whose tune function reads the module's global.
    fn reading_share(&self) -> f64 {
        let reading = self.states.iter().filter(|s| s.reads_global).count();
        reading as f64 / self.states.len() as f64
    }

    fn request(&self) -> BuildRequest {
        BuildRequest {
            config: PaperConfig::C.label().to_string(),
            optimize: true,
            sources: self
                .sources
                .iter()
                .map(|s| WireSource { name: s.name.clone(), text: s.text.clone() })
                .collect(),
            training_input: Vec::new(),
        }
    }
}

/// Module `i` of the scaled program at `st`: a visible edit makes its tune
/// function read the module's global `w<i>`, which changes its summary.
fn module_text(i: usize, n: usize, st: ModState) -> SourceFile {
    let mut src = ipra_workloads::scaled::scaled_module(i, n, st.tune);
    if st.reads_global {
        let value = 1000 + i as i64 + st.tune;
        let plain = format!("int s{i}_tune() {{ return {value}; }}");
        assert!(src.text.contains(&plain), "scaled module {i} has no tune function to edit");
        src.text =
            src.text.replace(&plain, &format!("int s{i}_tune() {{ return {value} + w{i}; }}"));
    }
    src
}

/// Client `c`'s seeded edit stream.
fn edits(seed: u64, c: usize, n: usize) -> impl Iterator<Item = Edit> {
    let mut rng = Rng::new(seed, 1000 + c as u64);
    std::iter::from_fn(move || {
        Some(Edit {
            module: rng.below(n as u64) as usize,
            visible: rng.below(4) == 0,
            tune: rng.below(1000) as i64,
        })
    })
}

/// One request and its reply.
#[derive(Debug, Clone)]
struct Record {
    edit: Edit,
    /// The window segment it was sent in.
    segment: usize,
    start: f64,
    end: f64,
    /// The reply's `.vx` fingerprint, or what went wrong.
    reply: Result<u64, String>,
}

/// A daemon socket path inside the benchmark's `out/` directory, unique in
/// this process.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let _ = std::fs::create_dir_all("out");
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("out/cmind-{}-{k}.sock", std::process::id()))
}

/// Starts a daemon, connects a client for each initial program and primes
/// the daemon with it.
fn start(initials: &[Program]) -> Result<(Server, Vec<Client>), String> {
    let server = Server::start(ServerOptions::new(socket_path()))
        .map_err(|e| format!("cmind start: {e}"))?;
    let mut conns = Vec::with_capacity(initials.len());
    for initial in initials {
        let mut client = Client::connect(server.socket()).map_err(|e| format!("connect: {e}"))?;
        client.build(&initial.request()).map_err(|e| format!("priming build: {e}"))?;
        conns.push(client);
    }
    Ok((server, conns))
}

/// Sum of the daemon's per-shard cache counters (`hits`, `misses`) and its
/// build and coalescing counters.
fn daemon_counters(client: &mut Client) -> Result<BTreeMap<&'static str, u64>, String> {
    let counters = client.stats().map_err(|e| format!("stats: {e}"))?;
    let mut out = BTreeMap::from([("hits", 0), ("misses", 0), ("builds", 0), ("coalesced", 0)]);
    for c in counters {
        let key = if c.name.starts_with("daemon.shard") && c.name.ends_with(".hits") {
            "hits"
        } else if c.name.starts_with("daemon.shard") && c.name.ends_with(".misses") {
            "misses"
        } else if c.name == "daemon.builds" {
            "builds"
        } else if c.name == "daemon.dedup.coalesced" {
            "coalesced"
        } else {
            continue;
        };
        *out.get_mut(key).expect("key present") += c.value;
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(run: &mut Run) -> (Samples, Quality) {
    let n = run.cfg.sizes.edit_modules;
    let clients = run.cfg.sizes.jobs;
    let seed = run.cfg.seed;
    let mut s = Samples::default();
    let initials: Vec<Program> = (0..clients).map(|c| Program::new(n, seed, c)).collect();

    // Set-up: start the daemon, connect, prime. Repeated on a fresh daemon,
    // before the window and, to sample the host over the whole run, after
    // the checks.
    let mut setup_errors = Vec::new();
    let started = s.time_setup(run.cfg.sizes.setup_before, || {
        start(&initials).inspect_err(|e| setup_errors.push(e.clone()))
    });
    if let Some(e) = setup_errors.first() {
        run.op(Err(format!("edit_daemon set-up: {e}")));
        return (s, Quality::default());
    }
    let (server, conns) = started.expect("a set-up").expect("set-up errors are recorded");
    let mut stats_client = match Client::connect(server.socket()) {
        Ok(c) => c,
        Err(e) => {
            run.op(Err(format!("edit_daemon stats connection: {e}")));
            server.stop();
            return (s, Quality::default());
        }
    };
    let before = daemon_counters(&mut stats_client);

    // The measured window: every client in its own closed loop, segment by
    // segment, the host probe reading between segments.
    let min_ops = run.cfg.sizes.min_ops;
    let min_requests = run.cfg.sizes.min_requests;
    let done = AtomicUsize::new(0);
    // The daemon's caches grow with every request, so peak memory at the
    // end of the window would grow with throughput: take it when the
    // `min_requests`-th reply arrives instead.
    let rss_at_min = OnceLock::new();
    let seconds = run.cfg.seconds;
    let segments = (seconds / SEGMENT_S).ceil().max(1.0) as usize;
    let segment_s = seconds / segments as f64;
    let barrier = Barrier::new(clients + 1);
    let trace = run.cfg.trace;
    let start_t = Instant::now();
    let mut segment_wall = Vec::with_capacity(segments);
    let mut segment_factor = Vec::with_capacity(segments);
    let mut window_probe = Probe::parallel(clients);
    let per_client: Vec<(Vec<Record>, Option<String>, Spans, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let mut program = initials[c].clone();
                let mut sp = run.spans.child(c as u64 + 1);
                let (done, barrier, rss_at_min) = (&done, &barrier, &rss_at_min);
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut last_vx = None;
                    let mut stream = edits(seed, c, n).enumerate();
                    for segment in 0..segments {
                        barrier.wait();
                        let segment_t = Instant::now();
                        let last = segment + 1 == segments;
                        loop {
                            if segment_t.elapsed().as_secs_f64() >= segment_s
                                && (!last
                                    || records.len() >= min_ops
                                        && done.load(Ordering::Relaxed) >= min_requests)
                            {
                                break;
                            }
                            let (k, edit) = stream.next().expect("the edit stream is endless");
                            program.apply(edit);
                            let request = program.request();
                            let req = (c as u64) << 32 | k as u64;
                            let span = trace.then(|| sp.begin("daemon.request", "", None, req));
                            let start = start_t.elapsed().as_secs_f64();
                            let reply = client.build(&request);
                            let end = start_t.elapsed().as_secs_f64();
                            if let Some(id) = span {
                                sp.end(id);
                            }
                            if done.fetch_add(1, Ordering::Relaxed) + 1 == min_requests {
                                rss_at_min.get_or_init(peak_rss_mb);
                            }
                            let reply = reply.map(|r| {
                                let fp = r.fingerprint;
                                last_vx = Some(r.vx);
                                fp
                            });
                            let reply = reply.map_err(|e| format!("client {c} request {k}: {e}"));
                            records.push(Record { edit, segment, start, end, reply });
                        }
                        barrier.wait();
                    }
                    (records, last_vx, sp, program.reading_share())
                })
            })
            .collect();
        window_probe.fresh();
        for _ in 0..segments {
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            segment_wall.push(t.elapsed().as_secs_f64());
            segment_factor.push(window_probe.factor());
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let after = daemon_counters(&mut stats_client);
    drop(stats_client);
    server.stop();

    let mut records: Vec<Vec<Record>> = Vec::with_capacity(clients);
    let mut last_vx = Vec::with_capacity(clients);
    let mut final_share = Vec::with_capacity(clients);
    for (r, vx, sp, share) in per_client {
        run.spans.merge(sp);
        records.push(r);
        last_vx.push(vx);
        final_share.push(share);
    }
    s.probe.merge(window_probe);
    s.peak_rss_mb = rss_at_min.into_inner();
    for r in records.iter().flatten() {
        s.record(Timing::Op, r.end - r.start, segment_factor[r.segment]);
    }
    let wall: f64 = segment_wall.iter().sum();
    s.window_s = segment_wall.iter().zip(&segment_factor).map(|(w, f)| w * f).sum();
    s.record(Timing::Pass, wall * clients as f64 / s.op.len() as f64, s.window_s / wall);
    run.detail.push(("window.segments".into(), Json::UInt(segments as u64)));
    run.detail.push(("window.wall_s".into(), num(wall)));

    // The checks (and, traced, the in-process replays), one thread per client.
    let checks: Vec<ClientCheck> = std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .iter()
            .zip(&last_vx)
            .enumerate()
            .map(|(c, (recs, vx))| {
                let sp = run.spans.child(clients as u64 + c as u64 + 1);
                let initial = &initials[c];
                scope.spawn(move || check_client(c, initial, recs, vx.as_deref(), trace, sp))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("check thread panicked")).collect()
    });
    let mut inproc = Vec::new();
    for check in checks {
        run.spans.merge(check.spans);
        for outcome in check.outcomes {
            run.op(outcome);
        }
        for (wall, factor) in check.build {
            s.record(Timing::Build, wall, factor);
        }
        for (wall, factor) in check.verify {
            s.record(Timing::Verify, wall, factor);
        }
        s.probe.merge(check.probe);
        inproc.extend(check.inproc);
        for sample in check.layers {
            run.add_layer_sample(sample);
        }
    }

    let visible = records.iter().flatten().filter(|r| r.edit.visible).count();
    run.detail.push(("edits.visible".into(), Json::UInt(visible as u64)));
    run.detail.push(("edits.total".into(), Json::UInt(s.op.len() as u64)));
    let initial_share: Vec<f64> = initials.iter().map(Program::reading_share).collect();
    run.detail.push(("reading_share.initial".into(), num(median(&initial_share))));
    run.detail.push(("reading_share.final".into(), num(median(&final_share))));
    let counters = before.and_then(|b| after.map(|a| (b, a)));
    match counters {
        Ok((b, a)) => {
            let d = |k: &str| a[k] - b[k];
            let lookups = d("hits") + d("misses");
            let ratio = if lookups == 0 { 0.0 } else { d("hits") as f64 / lookups as f64 };
            run.detail.push(("daemon.hit_ratio".into(), num(ratio)));
            run.detail.push(("daemon.lookups".into(), Json::UInt(lookups)));
            if trace {
                run.layer_values.insert("daemon.hit_ratio".into(), ratio);
                run.layer_values.insert("daemon.builds".into(), d("builds") as f64);
                run.layer_values.insert("daemon.coalesced".into(), d("coalesced") as f64);
                let service = median(&s.op) - median(&inproc);
                run.layer_values.insert("daemon.service_s".into(), service);
            }
        }
        Err(e) => {
            run.op(Err(format!("edit_daemon stats: {e}")));
        }
    }

    // Quality of the first client's initial program, at C against L2.
    let initial = &initials[0];
    let jobs = run.cfg.sizes.jobs;
    let quality = interpret_deep(&initial.sources, &[]).and_then(|oracle| {
        let c = compile(
            &initial.sources,
            &CompileOptions { jobs, ..CompileOptions::paper(PaperConfig::C) },
        )
        .map_err(|e| format!("edit_daemon C build: {e}"))?;
        scaled_quality(run, "edit_daemon", &initial.sources, &c, &oracle, jobs)
    });
    run.op(quality.as_ref().map(|_| ()).map_err(String::clone));

    s.time_setup(run.cfg.sizes.setup_spread, || {
        start(&initials).inspect_err(|e| setup_errors.push(e.clone()))
    });
    if let Some(e) = setup_errors.first() {
        run.op(Err(format!("edit_daemon set-up after the window: {e}")));
    }
    (s, quality.unwrap_or_default())
}

/// Named counts of one replayed edit.
type Counts = Vec<(&'static str, f64)>;

/// What checking one client's replies produced.
struct ClientCheck {
    outcomes: Vec<Result<(), String>>,
    /// Wall seconds and host factor of each independent build.
    build: Vec<(f64, f64)>,
    /// The same for each verifier call.
    verify: Vec<(f64, f64)>,
    /// Reference-host seconds of each in-process replay.
    inproc: Vec<f64>,
    probe: Probe,
    layers: Vec<LayerSample>,
    spans: Spans,
}

/// Replays client `c`'s edits. For each reply: an independent cold
/// `compile` whose `.vx` must match the reply and which must verify clean.
/// Traced, also a `compile_incremental` replay on a cache of the client's
/// own (its time is the in-process service time) and the same edit
/// composed layer by layer: phase 1 for the edited module, the analyzer
/// over the whole program, codegen for the modules the driver recompiled,
/// link.
fn check_client(
    c: usize,
    initial: &Program,
    records: &[Record],
    last_vx: Option<&str>,
    trace: bool,
    mut sp: Spans,
) -> ClientCheck {
    let mut out = ClientCheck {
        outcomes: Vec::new(),
        build: Vec::new(),
        verify: Vec::new(),
        inproc: Vec::new(),
        probe: Probe::new(),
        layers: Vec::new(),
        spans: Spans::new(),
    };
    let opts = CompileOptions::paper(PaperConfig::C);
    let aopts = AnalyzerOptions::paper_config(PaperConfig::C, None);
    let mut program = initial.clone();
    let mut replay = if trace {
        let mut cache = CompilationCache::new();
        let warm = compile_incremental(&program.sources, &opts, &mut cache);
        let composed = pipeline::build(&program.sources, &aopts, 1, &mut sp, None, 0);
        match (warm, composed) {
            (Ok(_), Ok(composed)) => Some((cache, composed)),
            (Err(e), _) => {
                out.outcomes.push(Err(format!("client {c} replay set-up: {e}")));
                None
            }
            (_, Err(e)) => {
                out.outcomes.push(Err(format!("client {c} replay set-up: {e}")));
                None
            }
        }
    } else {
        None
    };
    for (k, rec) in records.iter().enumerate() {
        program.apply(rec.edit);
        let req = (c as u64) << 32 | k as u64;
        let mark = sp.mark();
        out.probe.fresh();
        let t = Instant::now();
        let built = compile(&program.sources, &opts);
        out.build.push((t.elapsed().as_secs_f64(), out.probe.factor()));
        let independent = match built {
            Ok(p) => p,
            Err(e) => {
                out.outcomes.push(Err(format!("client {c} edit {k}: independent build: {e}")));
                continue;
            }
        };
        let v = sp.begin("verify", "", None, req);
        let report = verify_program(&independent);
        out.verify.push((sp.end(v), out.probe.factor()));
        let (vx, fp) = executable_artifact(&independent.exe);
        let mut outcome = match &rec.reply {
            Err(e) => Err(e.clone()),
            Ok(got) if *got != fp => {
                Err(format!("client {c} edit {k}: reply .vx differs from an independent compile"))
            }
            Ok(_) if k + 1 == records.len() && last_vx != Some(vx.as_str()) => {
                Err(format!("client {c} edit {k}: last reply's bytes differ from compile's"))
            }
            Ok(_) if !report.is_clean() => {
                Err(format!("client {c} edit {k}: verifier diagnostics:\n{report}"))
            }
            Ok(_) => Ok(()),
        };
        if let Some((cache, composed)) = replay.as_mut() {
            let probe = &mut out.probe;
            let step =
                replay_edit(&program, rec.edit, cache, composed, &aopts, &mut sp, probe, req, &vx);
            match step {
                Ok((secs, counts)) => {
                    out.inproc.push(secs);
                    let mut counts = counts;
                    counts.push(("verify.procs", report.procs as f64));
                    out.layers.push(LayerSample::from_spans(&sp, mark, &counts));
                }
                Err(e) => {
                    outcome = outcome.and(Err(format!("client {c} edit {k} (traced): {e}")));
                }
            }
        }
        out.outcomes.push(outcome);
    }
    out.spans = sp;
    out
}

/// One edit replayed in process: `compile_incremental` (timed), then the
/// same edit composed layer by layer under spans, which must produce the
/// same `.vx`. Returns the incremental build's reference-host seconds and
/// the edit's counts.
#[allow(clippy::too_many_arguments)]
fn replay_edit(
    program: &Program,
    edit: Edit,
    cache: &mut CompilationCache,
    composed: &mut Composed,
    aopts: &AnalyzerOptions,
    sp: &mut Spans,
    probe: &mut Probe,
    req: u64,
    vx: &str,
) -> Result<(f64, Counts), String> {
    probe.fresh();
    let t = Instant::now();
    let incremental =
        compile_incremental(&program.sources, &CompileOptions::paper(PaperConfig::C), cache);
    let secs = t.elapsed().as_secs_f64() * probe.factor();
    let incremental = incremental.map_err(|e| format!("incremental replay: {e}"))?;
    if pipeline::vx(&incremental.exe) != vx {
        return Err("compile_incremental .vx differs from compile's".to_string());
    }

    let root = sp.begin("edit", &program.sources[edit.module].name, None, req);
    let front = pipeline::phase1_module(&program.sources[edit.module], sp, Some(root), req)?;
    composed.fronts[edit.module] = front;
    composed.summary =
        ProgramSummary { modules: composed.fronts.iter().map(|f| f.summary.clone()).collect() };
    let (database, counts) =
        pipeline::analyze_composed(&composed.summary, aopts, sp, Some(root), req);
    let stale: Vec<usize> = composed
        .fronts
        .iter()
        .enumerate()
        .filter(|(_, f)| incremental.build.recompiled.contains(&f.ir.name))
        .map(|(i, _)| i)
        .collect();
    let irs: Vec<&cmin_ir::IrModule> = stale.iter().map(|&i| &composed.fronts[i].ir).collect();
    let objects = pipeline::codegen(&irs, &database, 1, sp, Some(root), req);
    for (&i, object) in stale.iter().zip(objects) {
        composed.objects[i] = object;
    }
    composed.exe = pipeline::link(&composed.objects, sp, Some(root), req)?;
    sp.end(root);
    composed.database = database;
    composed.counts = counts;
    pipeline::check_against_analyze(
        &composed.summary,
        aopts,
        &composed.database,
        counts,
        sp,
        None,
        req,
    )?;
    if pipeline::vx(&composed.exe) != vx {
        return Err("layer-by-layer replay .vx differs from compile's".to_string());
    }
    let mut out = counts.samples();
    out.push(("driver.p1_hit_ratio", incremental.build.phase1.hit_rate()));
    out.push(("driver.p2_hit_ratio", incremental.build.phase2.hit_rate()));
    out.push(("driver.recompiled", incremental.build.recompiled.len() as f64));
    Ok((secs, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(src: &SourceFile) -> ipra_summary::ModuleSummary {
        let modules = ipra_driver::frontend(std::slice::from_ref(src)).expect("parses");
        let (m, info) = &modules[0];
        let mut ir = cmin_ir::lower_module(m, info);
        cmin_ir::optimize_module(&mut ir);
        ipra_summary::summarize_module(&ir)
    }

    #[test]
    fn only_visible_edits_change_the_summary() {
        let mut p = Program::new(8, 3, 0);
        let reads = p.states[5].reads_global;
        let base = summary_of(&p.sources[5]);
        p.apply(Edit { module: 5, tune: 42, visible: false });
        assert_ne!(p.sources[5], Program::new(8, 3, 0).sources[5]);
        assert_eq!(summary_of(&p.sources[5]), base, "a re-tune must leave the summary alone");
        p.apply(Edit { module: 5, tune: 43, visible: true });
        assert_eq!(p.sources[5].text.contains("+ w5;"), !reads);
        assert_ne!(summary_of(&p.sources[5]), base, "a visible edit must change the summary");
        p.apply(Edit { module: 5, tune: 44, visible: true });
        assert_eq!(summary_of(&p.sources[5]), base, "a second visible edit undoes the first");
    }

    #[test]
    fn about_half_the_modules_start_reading_their_global() {
        let share = Program::new(256, 1, 0).reading_share();
        assert!((0.4..=0.6).contains(&share), "initial reading share {share}");
    }

    #[test]
    fn the_clients_programs_differ_in_almost_every_module() {
        let (a, b) = (Program::new(256, 1, 0), Program::new(256, 1, 1));
        let same = a.sources.iter().zip(&b.sources).filter(|(x, y)| x == y).count();
        assert!(same <= 4, "{same} of 256 modules are the same in both clients' programs");
    }
}
