//! The `cmind` server: accept loop, per-connection threads, the sharded
//! shared cache, in-flight dedup, per-request timeouts, graceful drain.
//!
//! ## Why sharing one cache across clients is safe
//!
//! The pipeline is byte-deterministic (PR 5): a build's output bytes are a
//! pure function of (sources, config, optimize flag, training input), and
//! every cache entry is keyed by a fingerprint over exactly the inputs
//! that affect it. Two clients whose requests agree on a fingerprint
//! therefore *cannot* want different bytes — serving one client's cached
//! entry to another is indistinguishable from recompiling. That is the
//! whole safety argument, and it is why the stress tests compare daemon
//! responses byte-for-byte against solo cold builds.
//!
//! ## Sharding and dedup
//!
//! The cache is split into `shards` independently locked
//! [`CompilationCache`]s; a request maps to the shard of its fingerprint,
//! so unrelated programs compile concurrently while identical programs
//! meet the same shard (and usually the same in-flight slot first). All
//! shards share one disk directory when persistence is enabled — entries
//! are content-addressed, so concurrent writers can only race on
//! identical bytes.
//!
//! In-flight dedup sits above the shards: the first request for a
//! fingerprint becomes the *leader* and spawns the build; requests that
//! arrive while it runs become *followers* and wait on the leader's slot
//! (`daemon.dedup.coalesced` counts them). Every waiter — leader
//! included — applies the per-request timeout to its own wait, so a stuck
//! build turns into a typed [`WireError::Timeout`], not a hung client;
//! the worker still finishes and populates the cache behind the scenes.

use crate::protocol::{
    self, BuildRequest, BuildResponse, Counter, ProtocolError, Request, Response, StatsResponse,
    WireError, HEADER_LEN, TAG_REQUEST,
};
use ipra_core::analyzer::PaperConfig;
use ipra_driver::{CompilationCache, CompileOptions, SourceFile};
use ipra_telemetry::Telemetry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is configured; see [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Unix-domain socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads per build's parallel phases (0 = one per core).
    pub jobs: usize,
    /// Persistent cache directory, shared by every shard (entries are
    /// content-addressed, so shards cannot clobber each other).
    pub cache_dir: Option<PathBuf>,
    /// Number of cache shards (clamped to at least 1).
    pub shards: usize,
    /// Per-shard in-memory size cap (entries per tier map); `None` is
    /// unbounded. See [`CompilationCache::set_capacity`].
    pub capacity: Option<usize>,
    /// Per-request build timeout. `None` waits indefinitely.
    pub request_timeout: Option<Duration>,
    /// Counter sink; the `stats` endpoint snapshots its counters. Builds
    /// add their counters here but keep no span events in it.
    pub telemetry: Telemetry,
}

impl ServerOptions {
    /// Defaults for a daemon at `socket`: 4 shards, no size cap, no
    /// timeout, memory-only cache, fresh telemetry.
    pub fn new(socket: impl Into<PathBuf>) -> ServerOptions {
        ServerOptions {
            socket: socket.into(),
            jobs: 1,
            cache_dir: None,
            shards: 4,
            capacity: None,
            request_timeout: None,
            telemetry: Telemetry::new(),
        }
    }
}

/// One in-flight build: the leader's worker publishes here; every client
/// interested in the fingerprint waits here.
struct Inflight {
    result: Mutex<Option<Result<BuildResponse, WireError>>>,
    done: Condvar,
}

struct Shared {
    opts: ServerOptions,
    tele: Telemetry,
    shards: Vec<Mutex<CompilationCache>>,
    inflight: Mutex<HashMap<u64, Arc<Inflight>>>,
    shutdown: AtomicBool,
    /// Connection-handler threads, joined at drain time.
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Build-worker threads (leaders' computations), joined at drain time
    /// so "drain" really means every accepted build ran to completion.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Joins already-finished threads and registers a new one, so a long-lived
/// daemon's handle lists track only live work.
fn reap_and_push(list: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut guard = list.lock().expect("thread list lock");
    let mut live = Vec::with_capacity(guard.len() + 1);
    for h in guard.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            live.push(h);
        }
    }
    live.push(handle);
    *guard = live;
}

/// A running `cmind` instance. Dropping (or [`stop`](Server::stop)ping)
/// the handle drains in-flight work and removes the socket file.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the socket or opening the cache directory.
    pub fn start(opts: ServerOptions) -> std::io::Result<Server> {
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        let shards = opts.shards.max(1);
        let mut caches = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut cache = match &opts.cache_dir {
                Some(dir) => CompilationCache::with_disk(dir)?,
                None => CompilationCache::new(),
            };
            cache.set_capacity(opts.capacity);
            caches.push(Mutex::new(cache));
        }
        let tele = opts.telemetry.clone();
        let shared = Arc::new(Shared {
            opts,
            tele,
            shards: caches,
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server { shared, accept: Some(accept) })
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.shared.opts.socket
    }

    /// The daemon's telemetry (same collector the `stats` endpoint reads).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// Has a shutdown been requested (by a client or by the owner)?
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Blocks until a client requests shutdown, then drains and exits.
    pub fn wait(mut self) {
        while !self.shared.shutting_down() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.drain();
    }

    /// Requests shutdown and drains: stops accepting, lets in-flight
    /// builds finish, joins every thread, removes the socket file.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for h in conns {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().expect("workers lock"));
        for h in workers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.opts.socket);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.tele.add("daemon.connections", 1);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || handle_connection(stream, &conn_shared));
                reap_and_push(&shared.conns, handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                shared.tele.add("daemon.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Reads one request frame, polling so the handler notices shutdown while
/// idle. Partial reads are never discarded: once a frame has started
/// arriving we keep reading it to completion (or typed truncation).
fn read_request(
    stream: &mut UnixStream,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    let mut have = 0;
    while have < HEADER_LEN {
        if have == 0 && shared.shutting_down() {
            return Ok(None);
        }
        match stream.read(&mut header[have..]) {
            Ok(0) => {
                return if have == 0 {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated { need: HEADER_LEN, have })
                };
            }
            Ok(n) => have += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    let payload_len = protocol::check_header(&header, TAG_REQUEST)?;
    let need = HEADER_LEN + payload_len + 8;
    let mut frame = vec![0u8; need];
    frame[..HEADER_LEN].copy_from_slice(&header);
    let mut have = HEADER_LEN;
    while have < need {
        match stream.read(&mut frame[have..]) {
            Ok(0) => return Err(ProtocolError::Truncated { need, have }),
            Ok(n) => have += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    Ok(Some(frame))
}

fn send_response(stream: &mut UnixStream, shared: &Shared, resp: &Response) -> bool {
    let frame = protocol::encode_response(resp);
    match stream.write_all(&frame).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(_) => {
            // The client went away mid-response. Its loss — the build (if
            // any) already populated the shared cache for the next asker.
            shared.tele.add("daemon.client_disconnects", 1);
            false
        }
    }
}

fn handle_connection(mut stream: UnixStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        let frame = match read_request(&mut stream, shared) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF or idle at shutdown
            Err(e) => {
                // Framing is lost; report the rejection in-band
                // (best-effort) and close.
                shared.tele.add("daemon.protocol_errors", 1);
                shared.tele.add(&format!("daemon.protocol_errors.{}", e.kind()), 1);
                let resp = Response::Error(WireError::BadRequest(format!("protocol: {e}")));
                let _ = send_response(&mut stream, shared, &resp);
                return;
            }
        };
        let request = match protocol::decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                shared.tele.add("daemon.protocol_errors", 1);
                shared.tele.add(&format!("daemon.protocol_errors.{}", e.kind()), 1);
                let resp = Response::Error(WireError::BadRequest(format!("protocol: {e}")));
                let _ = send_response(&mut stream, shared, &resp);
                return;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(stats_snapshot(shared)),
            Request::Shutdown => {
                shared.tele.add("daemon.shutdowns", 1);
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = send_response(&mut stream, shared, &Response::ShuttingDown);
                return;
            }
            Request::Build(req) => {
                if shared.shutting_down() {
                    Response::Error(WireError::ShuttingDown)
                } else {
                    match handle_build(shared, req) {
                        Ok(built) => Response::Built(built),
                        Err(e) => {
                            shared.tele.add("daemon.build_errors", 1);
                            Response::Error(e)
                        }
                    }
                }
            }
        };
        if !send_response(&mut stream, shared, &response) {
            return;
        }
    }
}

fn stats_snapshot(shared: &Shared) -> StatsResponse {
    let counters =
        shared.tele.counters().into_iter().map(|(name, value)| Counter { name, value }).collect();
    StatsResponse { counters }
}

/// Leads or follows the in-flight build for this request's fingerprint,
/// then waits (with the per-request timeout) for the result.
fn handle_build(shared: &Arc<Shared>, req: BuildRequest) -> Result<BuildResponse, WireError> {
    let fp = req.fingerprint();
    let (slot, leader) = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        match inflight.get(&fp) {
            Some(slot) => (Arc::clone(slot), false),
            None => {
                let slot = Arc::new(Inflight { result: Mutex::new(None), done: Condvar::new() });
                inflight.insert(fp, Arc::clone(&slot));
                (slot, true)
            }
        }
    };
    if leader {
        shared.tele.add("daemon.dedup.leads", 1);
        let worker_shared = Arc::clone(shared);
        let worker_slot = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            let result = run_build(&worker_shared, &req, fp);
            // Retire the fingerprint *before* publishing: once a result
            // exists, later arrivals should lead a fresh (cache-warm)
            // build and report their own accounting, not adopt this one's.
            worker_shared.inflight.lock().expect("inflight lock").remove(&fp);
            *worker_slot.result.lock().expect("slot lock") = Some(result);
            worker_slot.done.notify_all();
        });
        reap_and_push(&shared.workers, handle);
    } else {
        shared.tele.add("daemon.dedup.coalesced", 1);
    }
    let result = wait_for_slot(&slot, shared.opts.request_timeout);
    match result {
        Ok(mut built) => {
            built.coalesced = !leader;
            Ok(built)
        }
        Err(e) => {
            if matches!(e, WireError::Timeout(_)) {
                shared.tele.add("daemon.timeouts", 1);
            }
            Err(e)
        }
    }
}

fn wait_for_slot(slot: &Inflight, timeout: Option<Duration>) -> Result<BuildResponse, WireError> {
    let mut guard = slot.result.lock().expect("slot lock");
    let deadline = timeout.map(|t| Instant::now() + t);
    while guard.is_none() {
        match deadline {
            None => guard = slot.done.wait(guard).expect("slot wait"),
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    let secs = timeout.expect("deadline implies timeout").as_secs();
                    return Err(WireError::Timeout(secs));
                }
                let (g, _) = slot.done.wait_timeout(guard, deadline - now).expect("slot wait");
                guard = g;
            }
        }
    }
    guard.as_ref().expect("slot filled").clone()
}

/// The leader's computation: pick the fingerprint's shard, compile under
/// its lock, export per-shard counters, package the `.vx` artifact.
fn run_build(shared: &Shared, req: &BuildRequest, fp: u64) -> Result<BuildResponse, WireError> {
    let config = PaperConfig::parse(&req.config)
        .ok_or_else(|| WireError::BadRequest(format!("unknown config `{}`", req.config)))?;
    if req.sources.is_empty() {
        return Err(WireError::BadRequest("no modules in request".to_string()));
    }
    let sources: Vec<SourceFile> = req
        .sources
        .iter()
        .map(|s| SourceFile { name: s.name.clone(), text: s.text.clone() })
        .collect();
    // The build counts into a collector of its own whose counters are
    // added to the shared registry afterwards. Its span events go with it:
    // nothing exports a daemon's spans, and the shared collector would
    // otherwise keep every request's events for the daemon's lifetime.
    let build_tele = Telemetry::new();
    let options = CompileOptions {
        optimize: req.optimize,
        jobs: shared.opts.jobs,
        telemetry: Some(build_tele.clone()),
        ..CompileOptions::default()
    };
    let shard_index = (fp % shared.shards.len() as u64) as usize;
    let mut cache = shared.shards[shard_index].lock().expect("shard lock");
    let built = ipra_driver::compile_configured(
        &sources,
        config,
        &req.training_input,
        &options,
        &mut cache,
    );
    drop(cache);
    for (name, value) in build_tele.counters() {
        shared.tele.add(&name, value);
        export_shard_counter(&shared.tele, shard_index, &name, value);
    }
    shared.tele.add("daemon.builds", 1);
    let program = match built {
        Ok(Ok(program)) => program,
        Ok(Err(sim)) => return Err(WireError::Training(sim.to_string())),
        Err(e) => return Err(WireError::Compile(e.to_string())),
    };
    let (vx, fingerprint) = protocol::executable_artifact(&program.exe);
    Ok(BuildResponse {
        vx,
        fingerprint,
        coalesced: false,
        recompiled: program.build.recompiled.clone(),
    })
}

/// Mirrors one of a build's phase counters (`phase1.hits` …
/// `phase2.evictions`; a failed build counts the phases that ran) as the
/// shard's `daemon.shard{i}.p1.hits` … `.p2.evictions`. Zero counts stay
/// unexported.
fn export_shard_counter(tele: &Telemetry, shard: usize, name: &str, value: u64) {
    let Some((phase, what)) = name.split_once('.') else { return };
    let short = match phase {
        "phase1" => "p1",
        "phase2" => "p2",
        _ => return,
    };
    if value > 0 && matches!(what, "hits" | "misses" | "evictions") {
        tele.add(&format!("daemon.shard{shard}.{short}.{what}"), value);
    }
}
