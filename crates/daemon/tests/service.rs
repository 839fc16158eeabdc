//! End-to-end service smoke: a real `cmind` on a real socket — ping,
//! build (byte-compared against a local cold compile), dedup counters,
//! stats endpoint, request timeout, graceful shutdown, and the one shared
//! cache's accounting.

use ipra_core::PaperConfig;
use ipra_daemon::protocol::{BuildRequest, WireSource};
use ipra_daemon::{Client, ClientError, Server, ServerOptions, WireError};
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_telemetry::Telemetry;
use ipra_workloads::scaled::{scaled_module, scaled_program};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmind-{tag}-{}.sock", std::process::id()))
}

fn wire_sources(sources: &[SourceFile]) -> Vec<WireSource> {
    sources.iter().map(|s| WireSource { name: s.name.clone(), text: s.text.clone() }).collect()
}

fn local_vx(sources: &[SourceFile]) -> String {
    let program = compile(sources, &CompileOptions::default()).expect("local compile");
    ipra_daemon::protocol::executable_artifact(&program.exe).0
}

#[test]
fn daemon_serves_builds_byte_identical_to_local_compiles() {
    let server = Server::start(ServerOptions::new(sock("basic"))).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    client.ping().expect("ping");

    let sources = scaled_program(6);
    let request = BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: wire_sources(&sources),
        training_input: Vec::new(),
    };
    let built = client.build(&request).expect("daemon build");
    assert_eq!(built.vx, local_vx(&sources), "daemon bytes == solo cold build bytes");
    assert_eq!(built.recompiled.len(), 6, "cold build recompiled everything");

    // Second identical request: warm, nothing recompiles, same bytes.
    let again = client.build(&request).expect("warm daemon build");
    assert_eq!(again.vx, built.vx);
    assert!(again.recompiled.is_empty(), "warm build recompiled nothing");

    let counters = client.stats().expect("stats");
    let get = |name: &str| counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
    assert_eq!(get("daemon.builds"), 2);
    assert!(get("daemon.connections") >= 1);

    client.shutdown().expect("shutdown");
    server.wait();
}

/// Every build records span events, and nothing exports a daemon's spans:
/// the shared collector must not keep them, or a long-lived daemon grows
/// with every request. Its counters must stay exactly what the builds
/// count.
#[test]
fn span_events_stay_bounded_and_counters_stay_exact() {
    let server = Server::start(ServerOptions::new(sock("spans"))).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    let sources = scaled_program(4);
    let request = BuildRequest {
        config: "C".to_string(),
        optimize: true,
        sources: wire_sources(&sources),
        training_input: Vec::new(),
    };
    client.build(&request).expect("first build");
    let after_first = server.telemetry().event_count();

    // Apart from the daemon's own, the counters are a local cold build's.
    let tele = Telemetry::new();
    let options =
        CompileOptions { telemetry: Some(tele.clone()), ..CompileOptions::paper(PaperConfig::C) };
    compile(&sources, &options).expect("local compile");
    let remote: BTreeMap<String, u64> = client
        .stats()
        .expect("stats")
        .into_iter()
        .filter(|c| !c.name.starts_with("daemon."))
        .map(|c| (c.name, c.value))
        .collect();
    assert_eq!(remote, tele.counters());

    for _ in 1..100 {
        client.build(&request).expect("warm build");
    }
    assert_eq!(server.telemetry().event_count(), after_first, "span events kept per request");
    let counters = client.stats().expect("stats");
    let get = |name: &str| counters.iter().find(|c| c.name == name).map_or(0, |c| c.value);
    assert_eq!(get("daemon.builds"), 100);
    assert_eq!(get("cache.p2.mem_hits"), 99 * 4, "every warm rebuild hits phase 2 per module");
    server.stop();
}

#[test]
fn bad_config_is_an_in_band_error_and_the_connection_survives() {
    let server = Server::start(ServerOptions::new(sock("badcfg"))).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    let request = BuildRequest {
        config: "Z".to_string(),
        optimize: true,
        sources: wire_sources(&scaled_program(2)),
        training_input: Vec::new(),
    };
    match client.build(&request) {
        Err(ClientError::Server(WireError::BadRequest(d))) => {
            assert!(d.contains("unknown config"), "got: {d}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Same connection keeps working.
    client.ping().expect("ping after error");
    server.stop();
}

#[test]
fn request_timeout_is_a_typed_error_and_the_build_still_lands_in_cache() {
    let opts = ServerOptions {
        request_timeout: Some(Duration::from_nanos(1)),
        ..ServerOptions::new(sock("timeout"))
    };
    let server = Server::start(opts).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    // Big enough that the build cannot finish before the waiter's first
    // deadline check (the timeout is 1ns; a result that happens to land
    // before the check would legitimately be served instead).
    let sources = scaled_program(64);
    let request = BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: wire_sources(&sources),
        training_input: Vec::new(),
    };
    match client.build(&request) {
        Err(ClientError::Server(WireError::Timeout(_))) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    // The worker finishes behind the scenes; stopping drains it, and the
    // telemetry shows the build completed and was counted.
    server.stop();
}

#[test]
fn builds_during_shutdown_are_refused_but_in_flight_work_drains() {
    let server = Server::start(ServerOptions::new(sock("drain"))).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    client.shutdown().expect("shutdown");
    // A second client connected before the daemon fully drains may get a
    // refusal or a dead socket — both are acceptable; what is not is a
    // wrong answer or a hang.
    let sources = scaled_program(2);
    let request = BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: wire_sources(&sources),
        training_input: Vec::new(),
    };
    if let Ok(mut late) = Client::connect(server.socket()) {
        match late.build(&request) {
            Err(_) => {}
            Ok(built) => assert_eq!(built.vx, local_vx(&sources), "if served, bytes are right"),
        }
    }
    server.wait();
}

/// The `daemon.shard0.*` counters of a size-capped daemon's one cache,
/// checked exactly after each kind of request: a cold and a warm build, a
/// profile-fed build (two legs), a build that evicts, and a build whose
/// source fails to compile. Counters that never moved stay unexported.
/// Keys are content, so every version of a module takes its own entry:
/// each leg of a profile-fed build adds phase-2 entries beside the ones
/// it does not reuse, and the cap evicts the least recently used.
#[test]
fn shard_counters_account_every_kind_of_build() {
    let opts = ServerOptions { capacity: Some(4), ..ServerOptions::new(sock("shard-counters")) };
    let server = Server::start(opts).expect("server start");
    let mut client = Client::connect(server.socket()).expect("connect");
    let request = |config: &str, sources: &[SourceFile]| BuildRequest {
        config: config.to_string(),
        optimize: true,
        sources: wire_sources(sources),
        training_input: Vec::new(),
    };
    let mut shard_counters = |want: &[(&str, u64)]| {
        let got: BTreeMap<String, u64> = client
            .stats()
            .expect("stats")
            .into_iter()
            .filter(|c| c.name.starts_with("daemon.shard"))
            .map(|c| (c.name, c.value))
            .collect();
        let want: BTreeMap<String, u64> =
            want.iter().map(|&(k, v)| (format!("daemon.shard0.{k}"), v)).collect();
        assert_eq!(got, want);
    };
    let three = scaled_program(3);
    let mut builder = Client::connect(server.socket()).expect("connect");

    builder.build(&request("C", &three)).expect("cold build");
    shard_counters(&[("p1.misses", 3), ("p2.misses", 3)]);

    builder.build(&request("C", &three)).expect("warm build");
    shard_counters(&[("p1.hits", 3), ("p1.misses", 3), ("p2.hits", 3), ("p2.misses", 3)]);

    // B trains at L2 and rebuilds with the profile: both legs count. The
    // L2 leg's three objects join C's three (two evicted at the cap of
    // four); the B leg's three push out three more.
    builder.build(&request("B", &three)).expect("profile-fed build");
    shard_counters(&[
        ("p1.hits", 9),
        ("p1.misses", 3),
        ("p2.evictions", 5),
        ("p2.hits", 3),
        ("p2.misses", 9),
    ]);

    // Six modules, two of them unchanged from the three-module program:
    // phase 1 hits those two and stores four, evicting three; phase 2
    // misses all six (a new database) and evicts one per store.
    builder.build(&request("C", &scaled_program(6))).expect("evicting build");
    shard_counters(&[
        ("p1.evictions", 3),
        ("p1.hits", 11),
        ("p1.misses", 7),
        ("p2.evictions", 11),
        ("p2.hits", 3),
        ("p2.misses", 15),
    ]);

    // A module that fails to parse: phase 1 still counts every module it
    // probed (all evicted by now) and stores the two that compiled, and
    // phase 2 never runs.
    let mut broken = scaled_program(3);
    broken[1].text = "int f( {".to_string();
    match builder.build(&request("C", &broken)) {
        Err(ClientError::Server(WireError::Compile(_))) => {}
        other => panic!("expected a compile error, got {other:?}"),
    }
    shard_counters(&[
        ("p1.evictions", 5),
        ("p1.hits", 11),
        ("p1.misses", 10),
        ("p2.evictions", 11),
        ("p2.hits", 3),
        ("p2.misses", 15),
    ]);
    server.stop();
}

fn p1_misses(client: &mut Client) -> u64 {
    let counters = client.stats().expect("stats");
    counters.iter().find(|c| c.name == "daemon.shard0.p1.misses").map_or(0, |c| c.value)
}

/// Two clients alternate one-module edits of two distinct 16-module
/// programs through one daemon. The cache keys content, so neither
/// client's builds push out or shadow the other's modules: after priming,
/// each request misses phase 1 on exactly the module it edited, and every
/// reply is a cold compile's bytes.
#[test]
fn alternating_clients_miss_only_the_module_they_edited() {
    const MODULES: usize = 16;
    let server = Server::start(ServerOptions::new(sock("alternate"))).expect("server start");
    let mut stats = Client::connect(server.socket()).expect("connect");
    let request = |sources: &[SourceFile]| BuildRequest {
        config: "C".to_string(),
        optimize: true,
        sources: wire_sources(sources),
        training_input: Vec::new(),
    };
    let cold_vx = |sources: &[SourceFile]| {
        let program = compile(sources, &CompileOptions::paper(PaperConfig::C)).expect("compile");
        ipra_daemon::protocol::executable_artifact(&program.exe).0
    };
    let mut programs: Vec<Vec<SourceFile>> = (0..2)
        .map(|c| (0..MODULES).map(|i| scaled_module(i, MODULES, 100 * (c as i64 + 1))).collect())
        .collect();
    let mut clients: Vec<Client> =
        (0..2).map(|_| Client::connect(server.socket()).expect("connect")).collect();
    for (client, program) in clients.iter_mut().zip(&programs) {
        client.build(&request(program)).expect("priming build");
    }
    for round in 0..6 {
        for (c, client) in clients.iter_mut().enumerate() {
            let module = (round * 5 + c * 3) % MODULES;
            let tune = 1000 + (2 * round + c) as i64;
            programs[c][module] = scaled_module(module, MODULES, tune);
            let before = p1_misses(&mut stats);
            let built = client.build(&request(&programs[c])).expect("edit build");
            assert_eq!(
                p1_misses(&mut stats) - before,
                1,
                "client {c} round {round}: phase 1 must miss exactly the edited module"
            );
            assert_eq!(built.vx, cold_vx(&programs[c]), "client {c} round {round}: wrong bytes");
        }
    }
    server.stop();
}
