//! End-to-end service smoke: a real `cmind` on a real socket — ping,
//! build (byte-compared against a local cold compile), dedup counters,
//! stats endpoint, request timeout, graceful shutdown.

use ipra_core::PaperConfig;
use ipra_daemon::protocol::{BuildRequest, WireSource};
use ipra_daemon::{Client, ClientError, Server, ServerOptions, WireError};
use ipra_driver::{compile, CompileOptions, SourceFile};
use ipra_telemetry::Telemetry;
use ipra_workloads::scaled::scaled_program;
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
