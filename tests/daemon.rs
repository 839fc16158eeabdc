//! Many-client stress suite for `cmind`, the build-service daemon.
//!
//! The daemon's whole pitch is that one shared cache can serve every
//! client *because* builds are byte-deterministic: the same request
//! fingerprint always produces the same executable bytes, so a cache hit
//! produced by one tenant is safe to hand to another. This suite drives
//! that claim hard: eight concurrent clients hammer a 64-module program
//! through rounds of interleaved one-module edits, and **every** response
//! is byte-compared against an independent cold `compile()` of the same
//! sources. A coalescing round behind a barrier then checks the dedup
//! counters actually fire.

use ipra_daemon::protocol::{BuildRequest, WireSource};
use ipra_daemon::{Client, Server, ServerOptions};
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_workloads::scaled::{perturb, scaled_program};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};

const MODULES: usize = 64;
const CLIENTS: usize = 8;
const ROUNDS: usize = 6;

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmind-stress-{tag}-{}.sock", std::process::id()))
}

fn wire_sources(sources: &[SourceFile]) -> Vec<WireSource> {
    sources.iter().map(|s| WireSource { name: s.name.clone(), text: s.text.clone() }).collect()
}

fn request_for(sources: &[SourceFile]) -> BuildRequest {
    BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: wire_sources(sources),
        training_input: Vec::new(),
    }
}

/// Independent ground truth, cached per request fingerprint so each
/// distinct program is cold-compiled exactly once no matter how many
/// clients ask about it.
struct Oracle {
    expected: Mutex<HashMap<u64, String>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle { expected: Mutex::new(HashMap::new()) }
    }

    fn vx_for(&self, request: &BuildRequest, sources: &[SourceFile]) -> String {
        let fp = request.fingerprint();
        if let Some(vx) = self.expected.lock().unwrap().get(&fp) {
            return vx.clone();
        }
        // Cold, cache-free, single-threaded: the most boring build there is.
        let program = compile(sources, &CompileOptions::default()).expect("oracle compile");
        let vx = ipra_daemon::protocol::executable_artifact(&program.exe).0;
        self.expected.lock().unwrap().insert(fp, vx.clone());
        vx
    }
}

/// Eight clients, six rounds of one-module edits, every response
/// byte-compared against an independent cold compile.
///
/// All clients follow the same edit schedule, so within a round their
/// requests are identical: early arrivals lead builds, later ones either
/// coalesce onto the in-flight build or hit the now-warm cache. Across
/// rounds the program changes by exactly one module. Either way the
/// bytes must match the oracle's.
#[test]
fn stress_many_clients_with_interleaved_edits() {
    let server = Server::start(ServerOptions::new(sock("edits"))).expect("server start");
    let oracle = Arc::new(Oracle::new());
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let socket = server.socket().to_path_buf();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let oracle = Arc::clone(&oracle);
            let barrier = Arc::clone(&barrier);
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let mut sources = scaled_program(MODULES);
                for round in 0..ROUNDS {
                    if round > 0 {
                        // One-module edit, same schedule for every client so
                        // identical requests collide in the cache/in-flight map.
                        perturb(&mut sources, (round * 11) % MODULES, 100 + round as i64);
                    }
                    // Rough alignment so edits genuinely interleave with
                    // other clients' requests rather than running serially.
                    barrier.wait();
                    let request = request_for(&sources);
                    let built = client
                        .build(&request)
                        .unwrap_or_else(|e| panic!("client {client_id} round {round}: {e}"));
                    let expected = oracle.vx_for(&request, &sources);
                    assert_eq!(
                        built.vx, expected,
                        "client {client_id} round {round}: daemon bytes != solo cold compile"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let mut client = Client::connect(server.socket()).expect("stats connect");
    let counters = client.stats().expect("stats");
    let get = |name: &str| counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
    let leads = get("daemon.dedup.leads");
    let coalesced = get("daemon.dedup.coalesced");
    let builds = get("daemon.builds");
    // Every request either led a build or coalesced onto one.
    assert_eq!(
        leads + coalesced,
        (CLIENTS * ROUNDS) as u64,
        "every request is accounted for: leads={leads} coalesced={coalesced}"
    );
    assert_eq!(builds, leads, "exactly the leaders reached the compiler");
    // 8 clients racing an identical request per round: dedup must have
    // coalesced at least some of them (a 64-module build takes far longer
    // than the barrier skew between clients).
    assert!(coalesced > 0, "expected in-flight coalescing, got leads={leads}");
    assert!(get("daemon.connections") >= CLIENTS as u64, "all clients were accepted");

    client.shutdown().expect("shutdown");
    server.wait();
}

/// Distinct programs from different clients share one daemon and its
/// one cache without cross-talk: interleaved builds of per-client
/// variants all come back byte-correct, and re-requesting a variant
/// after *other* clients' builds still matches (nothing was evicted into
/// wrongness, only into recompilation).
#[test]
fn stress_distinct_programs_share_the_cache_without_crosstalk() {
    let opts = ServerOptions {
        // A deliberately tight cap so eviction churns while clients race.
        capacity: Some(8),
        ..ServerOptions::new(sock("crosstalk"))
    };
    let server = Server::start(opts).expect("server start");
    let oracle = Arc::new(Oracle::new());
    let socket = server.socket().to_path_buf();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let oracle = Arc::clone(&oracle);
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                // Each client owns one variant (its own tune) of a smaller
                // program, rebuilt repeatedly while the others churn the
                // shared cache.
                let mut sources = scaled_program(12);
                perturb(&mut sources, client_id % 12, 1000 + client_id as i64);
                let request = request_for(&sources);
                let expected = oracle.vx_for(&request, &sources);
                for round in 0..4 {
                    let built = client
                        .build(&request)
                        .unwrap_or_else(|e| panic!("client {client_id} round {round}: {e}"));
                    assert_eq!(
                        built.vx, expected,
                        "client {client_id} round {round}: shared cache served wrong bytes"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    server.stop();
}
