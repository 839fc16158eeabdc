//! `daemon_bench` — the build-service throughput benchmark.
//!
//! Starts an in-process `cmind` ([`Server`]) and measures request
//! throughput over the wire protocol in the regimes the daemon exists
//! for:
//!
//! * **cold 1** — one client, every request a never-seen program: the
//!   daemon compiles from scratch each time (the no-daemon baseline,
//!   plus wire overhead);
//! * **warm 1** — one client re-requesting a primed program: pure cache
//!   hits through one connection;
//! * **cold N** — N clients submitting N distinct never-seen programs
//!   concurrently: overlapping misses through the one cache;
//! * **warm N** — N clients hammering the primed program concurrently:
//!   the multi-tenant payoff, where one tenant's phase-1 work serves
//!   everyone (the headline gate: ≥ 2× the cold single-client rate);
//! * **edit N** — N clients, each making one-module edits of its own
//!   primed program concurrently: the one content-keyed cache keeps every
//!   client's modules, so a request misses phase 1 only on the module it
//!   edited (gated: the daemon's phase-1 hit ratio over the leg ≥ 0.9);
//! * **dedup** — N clients racing one identical never-seen request from
//!   behind a barrier: the in-flight map must coalesce followers onto
//!   the leader's build (`daemon.dedup.coalesced` ≥ 1).
//!
//! Every timed leg is best-of-three (minimum wall clock — the
//! least-disturbed estimate on a shared host, same policy as
//! `compile_bench`/`sim_bench`), and the warm legs' bytes are checked
//! against an independent cold `compile()` so the throughput being
//! measured is the throughput of *correct* responses.
//!
//! ```sh
//! cargo run --release -p ipra-bench --bin daemon_bench             # 16 modules, 8 clients
//! cargo run --release -p ipra-bench --bin daemon_bench -- --clients 4 --check
//! ```
//!
//! `--check` asserts the headline ratio (warm-N ≥ 2× cold-1), the edit
//! leg's phase-1 hit ratio (≥ 0.9, which one edited module in each
//! request allows from 10 modules up), the dedup coalescing, and the byte
//! checks, exiting nonzero otherwise — the CI smoke mode wired into
//! `scripts/check.sh`. Results go to `BENCH_daemon.json`.

use ipra_daemon::protocol::{executable_artifact, BuildRequest, WireSource};
use ipra_daemon::{Client, Server, ServerOptions};
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_telemetry::CountersSnapshot;
use ipra_workloads::scaled::scaled_module;
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Timed trials per leg; the leg reports the fastest (see module docs).
const TRIALS: usize = 3;
/// Requests per client in each timed leg.
const REQUESTS: usize = 3;

/// The dedup regime's accounting: counter deltas across one barrier round
/// of `clients` identical never-seen requests.
#[derive(Debug, Serialize)]
struct DedupReport {
    clients: usize,
    leads: u64,
    coalesced: u64,
}

/// The whole benchmark run, as serialized to `BENCH_daemon.json`.
#[derive(Debug, Serialize)]
struct BenchReport {
    modules: usize,
    clients: usize,
    requests_per_client: usize,
    /// Requests per second, best-of-[`TRIALS`], per regime.
    cold_1_rps: f64,
    warm_1_rps: f64,
    cold_n_rps: f64,
    warm_n_rps: f64,
    edit_n_rps: f64,
    /// The daemon's phase-1 hit ratio over the edit leg (`--check`: ≥ 0.9).
    edit_n_p1_hit_ratio: f64,
    /// The headline ratio the `--check` gate holds at ≥ 2.
    warm_n_over_cold_1: f64,
    warm_1_over_cold_1: f64,
    /// Every warm response matched an independent cold `compile()`.
    bytes_ok: bool,
    dedup: DedupReport,
    /// The daemon's full counter set at the end of the run.
    counters: CountersSnapshot,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// A program no earlier request has ever mentioned: every module carries
/// the next tune from a monotone counter, so each call yields a distinct
/// fingerprint (a guaranteed cache miss end to end).
fn unique_program(modules: usize, tune: &mut i64) -> Vec<SourceFile> {
    *tune += 1;
    let t = *tune;
    (0..modules).map(|i| scaled_module(i, modules, t)).collect()
}

fn request_for(sources: &[SourceFile]) -> BuildRequest {
    BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: sources
            .iter()
            .map(|s| WireSource { name: s.name.clone(), text: s.text.clone() })
            .collect(),
        training_input: Vec::new(),
    }
}

/// Runs `leg` [`TRIALS`] times; each call returns (elapsed seconds,
/// requests served). Reports the best requests-per-second.
fn rps_best(mut leg: impl FnMut() -> (f64, usize)) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..TRIALS {
        let (elapsed, requests) = leg();
        best = best.max(requests as f64 / elapsed.max(1e-9));
    }
    best
}

/// `clients` threads, each with its own connection and request list,
/// released together by a barrier; returns the wall clock from release to
/// the last thread finishing and the total requests served. Every
/// response is byte-checked against its request's `expect` text.
fn concurrent_leg(socket: &Path, work: Vec<Vec<(BuildRequest, Arc<String>)>>) -> (f64, usize) {
    let total: usize = work.iter().map(Vec::len).sum();
    let barrier = Arc::new(Barrier::new(work.len() + 1));
    let threads: Vec<_> = work
        .into_iter()
        .enumerate()
        .map(|(id, list)| {
            let socket = socket.to_path_buf();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("bench client connect");
                barrier.wait();
                for (request, expect) in &list {
                    let built =
                        client.build(request).unwrap_or_else(|e| panic!("bench client {id}: {e}"));
                    assert_eq!(
                        &built.vx, &**expect,
                        "bench client {id}: daemon bytes != solo cold compile"
                    );
                }
            })
        })
        .collect();
    barrier.wait();
    let t = Instant::now();
    for th in threads {
        th.join().expect("bench client thread");
    }
    (t.elapsed().as_secs_f64(), total)
}

/// Independent ground truth: a cold, cache-free, single-threaded build.
fn oracle_vx(sources: &[SourceFile]) -> Arc<String> {
    let program = compile(sources, &CompileOptions::default()).expect("oracle compile");
    Arc::new(executable_artifact(&program.exe).0)
}

fn counter(counters: &[ipra_daemon::Counter], name: &str) -> u64 {
    counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let modules: usize =
        flag_value(&args, "--modules").map(|v| v.parse().expect("bad --modules")).unwrap_or(16);
    let clients: usize =
        flag_value(&args, "--clients").map(|v| v.parse().expect("bad --clients")).unwrap_or(8);
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_daemon.json".to_string());
    let check = args.iter().any(|a| a == "--check");

    let socket = std::env::temp_dir().join(format!("cmind-bench-{}.sock", std::process::id()));
    let server = Server::start(ServerOptions::new(&socket)).expect("server start");
    eprintln!("daemon_bench: {modules} modules, {clients} clients, socket {}", socket.display());

    let mut tune: i64 = 10_000;
    let mut failures: Vec<String> = Vec::new();

    // Cold, one client: every request a never-seen program, so the wire
    // round trip sits on top of a full compile each time.
    let mut solo = Client::connect(&socket).expect("solo client connect");
    let cold_1_rps = rps_best(|| {
        let work: Vec<(BuildRequest, Vec<SourceFile>)> = (0..REQUESTS)
            .map(|_| {
                let sources = unique_program(modules, &mut tune);
                (request_for(&sources), sources)
            })
            .collect();
        let t = Instant::now();
        for (request, _) in &work {
            solo.build(request).expect("cold build");
        }
        (t.elapsed().as_secs_f64(), REQUESTS)
    });
    eprintln!("  cold  1 client : {cold_1_rps:>8.1} req/s");

    // Prime one program and pin down its ground-truth bytes for the warm
    // legs (the byte check rides inside every warm response).
    let primed_sources = unique_program(modules, &mut tune);
    let primed_request = request_for(&primed_sources);
    let primed_vx = oracle_vx(&primed_sources);
    let first = solo.build(&primed_request).expect("priming build");
    let bytes_ok = first.vx == *primed_vx;
    if !bytes_ok {
        failures.push("priming build: daemon bytes != solo cold compile".to_string());
    }

    // Warm, one client: pure cache hits through one connection.
    let warm_1_rps = rps_best(|| {
        let t = Instant::now();
        for _ in 0..REQUESTS {
            let built = solo.build(&primed_request).expect("warm build");
            assert_eq!(built.vx, *primed_vx, "warm build: daemon bytes != solo cold compile");
        }
        (t.elapsed().as_secs_f64(), REQUESTS)
    });
    eprintln!("  warm  1 client : {warm_1_rps:>8.1} req/s");

    // Cold, N clients: N distinct never-seen programs in flight at once
    // (the cache locks only per batch probe or store, so misses overlap).
    let cold_n_rps = rps_best(|| {
        let work: Vec<Vec<(BuildRequest, Arc<String>)>> = (0..clients)
            .map(|_| {
                let sources = unique_program(modules, &mut tune);
                let expect = oracle_vx(&sources);
                vec![(request_for(&sources), expect)]
            })
            .collect();
        concurrent_leg(&socket, work)
    });
    eprintln!("  cold  {clients} clients: {cold_n_rps:>8.1} req/s");

    // Warm, N clients: everyone hammers the primed program. This is the
    // multi-tenant payoff the daemon exists for.
    let warm_n_rps = rps_best(|| {
        let work: Vec<Vec<(BuildRequest, Arc<String>)>> = (0..clients)
            .map(|_| {
                (0..REQUESTS).map(|_| (primed_request.clone(), Arc::clone(&primed_vx))).collect()
            })
            .collect();
        concurrent_leg(&socket, work)
    });
    eprintln!("  warm  {clients} clients: {warm_n_rps:>8.1} req/s");

    // Edit, N clients: each primes its own program, then edits one module
    // of it per request, all clients at once. A request should miss phase
    // 1 only on the module it edited, whatever the other clients built.
    let mut programs: Vec<Vec<SourceFile>> =
        (0..clients).map(|_| unique_program(modules, &mut tune)).collect();
    for program in &programs {
        solo.build(&request_for(program)).expect("edit leg priming build");
    }
    let before = solo.stats().expect("stats before the edit leg");
    let mut edits = 0usize;
    let edit_n_rps = rps_best(|| {
        let work: Vec<Vec<(BuildRequest, Arc<String>)>> = programs
            .iter_mut()
            .map(|program| {
                (0..REQUESTS)
                    .map(|_| {
                        edits += 1;
                        tune += 1;
                        let module = edits % modules;
                        program[module] = scaled_module(module, modules, tune);
                        (request_for(program), oracle_vx(program))
                    })
                    .collect()
            })
            .collect();
        concurrent_leg(&socket, work)
    });
    let after = solo.stats().expect("stats after the edit leg");
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let (hits, misses) = (delta("daemon.shard0.p1.hits"), delta("daemon.shard0.p1.misses"));
    let edit_n_p1_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    eprintln!(
        "  edit  {clients} clients: {edit_n_rps:>8.1} req/s, phase-1 hit ratio {edit_n_p1_hit_ratio:.3}"
    );

    // Dedup: N clients race one identical never-seen request from behind
    // a barrier; followers must coalesce onto the leader's build.
    let before = solo.stats().expect("stats before dedup");
    let dedup_sources = unique_program(modules, &mut tune);
    let dedup_expect = oracle_vx(&dedup_sources);
    let work: Vec<Vec<(BuildRequest, Arc<String>)>> = (0..clients)
        .map(|_| vec![(request_for(&dedup_sources), Arc::clone(&dedup_expect))])
        .collect();
    concurrent_leg(&socket, work);
    let after = solo.stats().expect("stats after dedup");
    let dedup = DedupReport {
        clients,
        leads: counter(&after, "daemon.dedup.leads") - counter(&before, "daemon.dedup.leads"),
        coalesced: counter(&after, "daemon.dedup.coalesced")
            - counter(&before, "daemon.dedup.coalesced"),
    };
    eprintln!("  dedup {clients} clients: {} led, {} coalesced", dedup.leads, dedup.coalesced);

    let report = BenchReport {
        modules,
        clients,
        requests_per_client: REQUESTS,
        cold_1_rps,
        warm_1_rps,
        cold_n_rps,
        warm_n_rps,
        edit_n_rps,
        edit_n_p1_hit_ratio,
        warm_n_over_cold_1: warm_n_rps / cold_1_rps.max(1e-9),
        warm_1_over_cold_1: warm_1_rps / cold_1_rps.max(1e-9),
        bytes_ok,
        dedup,
        counters: CountersSnapshot(server.telemetry().counters()),
    };
    eprintln!(
        "  warm-{clients} over cold-1: {:.1}x (warm-1 over cold-1: {:.1}x)",
        report.warm_n_over_cold_1, report.warm_1_over_cold_1
    );
    drop(solo);
    server.stop();

    if check {
        if report.warm_n_over_cold_1 < 2.0 {
            failures.push(format!(
                "warm {clients}-client throughput not ≥ 2x cold single-client \
                 ({warm_n_rps:.1} vs {cold_1_rps:.1} req/s, {:.2}x)",
                report.warm_n_over_cold_1
            ));
        }
        if report.edit_n_p1_hit_ratio < 0.9 {
            failures.push(format!(
                "edit {clients}-client phase-1 hit ratio {:.3} < 0.9: requests miss modules \
                 they did not edit",
                report.edit_n_p1_hit_ratio
            ));
        }
        if report.dedup.coalesced < 1 {
            failures.push(format!(
                "dedup round did not coalesce ({} leads, {} coalesced across {clients} clients)",
                report.dedup.leads, report.dedup.coalesced
            ));
        }
        if report.dedup.leads + report.dedup.coalesced != clients as u64 {
            failures.push(format!(
                "dedup round lost requests ({} leads + {} coalesced != {clients})",
                report.dedup.leads, report.dedup.coalesced
            ));
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serialization cannot fail");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("daemon_bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("daemon_bench: -> {out_path}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("daemon_bench: CHECK FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
