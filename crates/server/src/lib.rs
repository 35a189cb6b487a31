//! # `cut-server` — the network serving layer over [`cut_engine`]
//!
//! Turns the in-process `Request -> Response` contract into a TCP
//! service: a [`Server`] owns one [`ShardedEngine`] and a
//! `std::net::TcpListener`, accepts up to
//! [`ServerConfig::max_conns`] concurrent connections
//! (thread-per-connection — the vendoring constraints rule out an async
//! runtime, and a bounded acceptor pool is exactly what the engine's
//! thread-backed shards want anyway), and speaks the line-delimited wire
//! protocol specified in `docs/PROTOCOL.md`:
//!
//! - the client opens with `HELLO cut/1`, the server answers `OK cut/1`
//!   (anything else — version mismatch, capacity, draining — is an
//!   `error …` line followed by close);
//! - each subsequent client line is one [`Request::to_trace_line`];
//! - each server line is one [`Response::to_trace_line`], **in
//!   per-connection submission order** — a session is a pipeline, not a
//!   lockstep RPC;
//! - a malformed request line costs exactly one `error protocol: …`
//!   response; the session (and every other session) keeps serving.
//!
//! Every connection pipelines into the *same* [`ShardedEngine`]: a
//! session's reader thread parses lines and submits them (one short
//! critical section per request, so concurrent sessions interleave at
//! request granularity and per-connection order is preserved), while its
//! writer thread resolves tickets in order and streams the response
//! lines back. The shard count and per-shard engine options are set at
//! construction via [`ServerConfig`] and work unchanged underneath the
//! socket layer.
//!
//! **Graceful drain** ([`ServerHandle::shutdown`], the SIGTERM-equivalent
//! — the `cut-server` binary triggers it from a `shutdown` line on
//! stdin, since vendored-offline builds have no signal-handling crate):
//! new connections are refused with `error server draining`, open
//! sessions keep reading until their socket goes quiet for one poll
//! interval — so requests the client already flushed are still served —
//! then finish and deliver every in-flight response, and [`Server::run`]
//! returns the engine's final per-shard stats once the last session
//! closes.
//!
//! With [`ServerConfig::log_path`] set, the server also writes the same
//! `{seq:06} {request} -> {response}` operation log the stress harness
//! digests — sequence numbers are allocated in engine-submission order,
//! so a single-connection session's server log is byte-identical to an
//! in-process run of the same request stream (the CI loopback gate).

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cut_engine::{EngineStats, Registry, Request, Response, ShardOptions, ShardedEngine, Ticket};

/// The protocol version this server speaks. The handshake is strict
/// equality — see `docs/PROTOCOL.md` for how versions evolve.
pub const PROTOCOL_VERSION: &str = "cut/1";

/// How to run a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shards of the underlying [`ShardedEngine`].
    pub shards: usize,
    /// Per-shard engine configuration, store, clock and slow-log size.
    pub opts: ShardOptions,
    /// Accepted-connection cap: connection `max_conns + 1` is refused
    /// with an `error server at capacity …` line, not queued.
    pub max_conns: usize,
    /// A session with no traffic for this long, and no request in flight,
    /// is closed (an `error idle timeout …` line is sent best-effort
    /// first).
    pub idle_timeout: Duration,
    /// When set, append the deterministic `{seq:06} {request} ->
    /// {response}` operation log here (the stress-digest format).
    pub log_path: Option<String>,
    /// When set, write the merged telemetry registry as `cut-metrics/1`
    /// JSON to this path — every [`ServerConfig::metrics_every`] while
    /// running (tmp + atomic rename, so readers never see a torn file)
    /// and once more at drain, when the slow-query log is also dumped to
    /// stdout. The snapshot request goes straight to the engine without a
    /// log sequence number, so the operation log stays byte-identical
    /// with or without telemetry export.
    pub metrics_out: Option<String>,
    /// Interval between periodic metrics snapshots (ignored without
    /// [`ServerConfig::metrics_out`]).
    pub metrics_every: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            opts: ShardOptions::default(),
            max_conns: 64,
            idle_timeout: Duration::from_secs(30),
            log_path: None,
            metrics_out: None,
            metrics_every: Duration::from_secs(5),
        }
    }
}

/// The engine plus the request sequence counter it orders. One mutex for
/// both, so "allocate seq" and "submit" are a single atomic step — that
/// is what makes the server log's sequence numbers equal the engine's
/// true submission order.
struct EngineSlot {
    /// `None` once drained: late requests get `error server draining`.
    engine: Option<ShardedEngine>,
    next_seq: u64,
}

/// State shared by the acceptor and every session thread.
struct Shared {
    engine: Mutex<EngineSlot>,
    /// Live sessions' streams — the capacity count, and a place to hang
    /// future per-connection introspection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    draining: AtomicBool,
    idle_timeout: Duration,
    max_conns: usize,
    /// The `{seq:06} {request} -> {response}` operation log, if enabled.
    log: Option<Mutex<BufWriter<File>>>,
    /// Responses delivered over all sessions (reported at shutdown).
    served: AtomicU64,
    /// Periodic `cut-metrics/1` JSON export target, if enabled.
    metrics_out: Option<String>,
    metrics_every: Duration,
}

impl Shared {
    /// Append one operation-log line. Flushing is deferred to the
    /// session's quiet moments (`flush_log`).
    fn log_line(&self, seq: u64, display: &str, response: &Response) {
        if let Some(log) = &self.log {
            let mut w = log.lock().expect("log lock");
            let _ = writeln!(w, "{seq:06} {display} -> {response}");
        }
    }

    fn flush_log(&self) {
        if let Some(log) = &self.log {
            let _ = log.lock().expect("log lock").flush();
        }
    }

    /// One introspection request through the engine, bypassing the
    /// operation-log sequence counter: the broadcast barrier semantics
    /// are the same as any session's, but no `{seq}` line is consumed,
    /// so the server log digest is byte-identical with telemetry export
    /// on or off.
    fn introspect(&self, request: Request) -> Option<Response> {
        let ticket = {
            let mut slot = self.engine.lock().expect("engine lock");
            slot.engine.as_mut().map(|engine| engine.submit(request))
        }?;
        Some(ticket.wait())
    }

    /// Fetch the merged telemetry registry and write it as
    /// `cut-metrics/1` JSON (tmp + atomic rename) to `metrics_out`.
    fn write_metrics_snapshot(&self) {
        let Some(path) = &self.metrics_out else { return };
        let Some(Response::Metrics { snapshot }) = self.introspect(Request::Metrics) else {
            return;
        };
        let Ok(mut registry) = Registry::from_wire(&snapshot) else { return };
        // Serving-layer families ride along with the engine's.
        registry.inc("server_responses_served", self.served.load(Ordering::Relaxed));
        registry.set_gauge(
            "server_open_connections",
            self.conns.lock().expect("conns lock").len() as u64,
        );
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, registry.render_json()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] consumes it and
/// blocks until a [`ServerHandle::shutdown`] drain completes.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Remote control for a running [`Server`] — cloneable, thread-safe, and
/// the hook tests and the binary's stdin watcher use to trigger the
/// graceful drain.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin the graceful drain (idempotent): refuse new connections,
    /// let open sessions consume what their clients already sent (they
    /// exit at the first quiet poll interval), let every in-flight
    /// request finish and deliver its response, then let [`Server::run`]
    /// return. Session readers poll with a short timeout, so no nudge is
    /// needed — a blocked reader notices the drain within ~100ms.
    pub fn shutdown(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor, which is parked in accept().
        let _ = TcpStream::connect(self.addr);
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Bind the listener and spin up the engine. Port 0 picks a free
    /// port — read it back with [`Server::local_addr`] (the tests' and
    /// loopback CI's pattern).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        assert!(cfg.shards > 0, "a server needs at least one engine shard");
        assert!(cfg.max_conns > 0, "a server that accepts zero connections serves nobody");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let log = match &cfg.log_path {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        let shared = Arc::new(Shared {
            engine: Mutex::new(EngineSlot {
                engine: Some(ShardedEngine::with_options(cfg.shards, cfg.opts)),
                next_seq: 0,
            }),
            conns: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            idle_timeout: cfg.idle_timeout,
            max_conns: cfg.max_conns,
            log,
            served: AtomicU64::new(0),
            metrics_out: cfg.metrics_out,
            metrics_every: cfg.metrics_every,
        });
        Ok(Server { listener, addr, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for triggering shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { addr: self.addr, shared: Arc::clone(&self.shared) }
    }

    /// Accept and serve until [`ServerHandle::shutdown`] drains the
    /// server. Returns the engine's final per-shard stats (the same
    /// counters `ShardedEngine::shutdown` reports in process).
    pub fn run(self) -> Vec<EngineStats> {
        let mut sessions: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn = 0u64;
        // Periodic telemetry export: snapshots every `metrics_every`
        // until the drain flag rises. Sleeps in short ticks so a drain
        // is noticed promptly.
        let exporter = self.shared.metrics_out.as_ref().map(|_| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                let mut since = Duration::ZERO;
                while !shared.draining.load(Ordering::SeqCst) {
                    std::thread::sleep(POLL_INTERVAL);
                    since += POLL_INTERVAL;
                    if since >= shared.metrics_every {
                        since = Duration::ZERO;
                        shared.write_metrics_snapshot();
                    }
                }
            })
        });
        for stream in self.listener.incoming() {
            let draining = self.shared.draining.load(Ordering::SeqCst);
            let Ok(stream) = stream else { continue };
            if draining {
                refuse(stream, "server draining");
                break;
            }
            // Reap finished sessions so the handle list stays bounded.
            sessions.retain(|s| !s.is_finished());
            let conn_id = next_conn;
            next_conn += 1;
            {
                let mut conns = self.shared.conns.lock().expect("conns lock");
                if conns.len() >= self.shared.max_conns {
                    drop(conns);
                    refuse(
                        stream,
                        &format!("server at capacity ({} connections)", self.shared.max_conns),
                    );
                    continue;
                }
                if let Ok(clone) = stream.try_clone() {
                    conns.insert(conn_id, clone);
                } else {
                    continue;
                }
            }
            let shared = Arc::clone(&self.shared);
            sessions.push(std::thread::spawn(move || {
                serve_session(stream, &shared);
                shared.conns.lock().expect("conns lock").remove(&conn_id);
            }));
        }
        // Drain: every session finishes its in-flight work and exits.
        for session in sessions {
            let _ = session.join();
        }
        if let Some(exporter) = exporter {
            let _ = exporter.join();
        }
        self.shared.flush_log();
        if self.shared.metrics_out.is_some() {
            // Final snapshot covers every served request, then the
            // slow-query log dumps to stdout — the drain-time flight
            // recorder.
            self.shared.write_metrics_snapshot();
            if let Some(Response::Slowlog { snapshot }) = self.shared.introspect(Request::Slowlog) {
                if let Ok(log) = cut_engine::SlowLog::from_wire(&snapshot) {
                    if !log.is_empty() {
                        println!("cut-server: slow-query log ({} spans):", log.entries().len());
                        print!("{}", log.render_text());
                    }
                }
            }
        }
        let engine = self.shared.engine.lock().expect("engine lock").engine.take();
        engine.map(ShardedEngine::shutdown).unwrap_or_default()
    }

    /// Total responses delivered so far (all sessions).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }
}

/// Close an unwanted connection with one explanatory `error` line, so the
/// client's handshake fails typed instead of mysteriously.
fn refuse(stream: TcpStream, why: &str) {
    let mut w = BufWriter::new(stream);
    let _ = writeln!(w, "{}", Response::Error { message: why.to_string() }.to_trace_line());
    let _ = w.flush();
}

/// How long a session reader blocks per read attempt. Short enough that
/// a parked session notices a drain promptly; the configured idle
/// timeout is accumulated across consecutive quiet polls.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// What one polled line-read attempt produced.
enum ReadOutcome {
    /// A line is in the buffer (possibly unterminated, at EOF).
    Line,
    /// Clean end of stream.
    Eof,
    /// No traffic for the full idle timeout.
    Idle,
    /// The server is draining and the socket went quiet for one poll
    /// interval — everything the client flushed has been consumed.
    Drained,
    /// Hard socket error (reset etc.).
    Failed,
}

/// Read one line with the socket's short poll timeout, accumulating
/// quiet polls toward the idle timeout and watching the drain flag.
/// Partial lines survive across poll timeouts: `read_line` appends what
/// arrived, and the next attempt continues the same `line`. A session
/// with requests in flight (`in_flight > 0`) is waiting on the server,
/// not idle: its quiet polls do not count, and the idle clock restarts
/// once the last response is out.
fn read_line_polled(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    poll: Duration,
    shared: &Shared,
    in_flight: &AtomicUsize,
) -> ReadOutcome {
    let mut idle = Duration::ZERO;
    loop {
        let before = line.len();
        match reader.read_line(line) {
            // At EOF, a previously-buffered partial line is still a line.
            Ok(0) => {
                return if line.trim_end_matches(['\r', '\n']).is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Line
                };
            }
            Ok(_) => return ReadOutcome::Line,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return ReadOutcome::Drained;
                }
                // A partial read is progress, not idleness.
                if line.len() > before || in_flight.load(Ordering::SeqCst) > 0 {
                    idle = Duration::ZERO;
                } else {
                    idle += poll;
                    if idle >= shared.idle_timeout {
                        return ReadOutcome::Idle;
                    }
                }
            }
            Err(_) => return ReadOutcome::Failed,
        }
    }
}

/// What a session's reader hands its writer.
enum Item {
    /// A raw protocol line (greeting, idle notice) — sent verbatim.
    Raw(String),
    /// An engine-free response (protocol errors, draining refusals).
    Ready(Response),
    /// A submitted request: resolve the ticket, log, respond.
    Pending { seq: u64, display: String, ticket: Ticket },
    /// A submitted introspection (`stats metrics` / `stats slowlog`):
    /// resolve the ticket and respond in pipeline position, but allocate
    /// no sequence number and write no log line — telemetry rides
    /// outside the op-log stream, so issuing it never perturbs a digest.
    Introspection { ticket: Ticket },
}

/// One session: this thread reads, parses, and submits; a paired writer
/// thread resolves tickets in order and streams responses back. The split
/// is what makes a session a *pipeline* — the reader can be many requests
/// ahead of the slowest response.
fn serve_session(stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_nodelay(true).ok();
    // Short socket timeout = the reader's poll tick; idle and drain
    // detection are layered on top in `read_line_polled`.
    let poll = POLL_INTERVAL.min(shared.idle_timeout);
    stream.set_read_timeout(Some(poll)).ok();
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);

    let (tx, rx) = channel::<Item>();
    // Requests submitted but not yet answered: the reader adds one per
    // submission, the writer takes it back once the response is flushed.
    let in_flight = Arc::new(AtomicUsize::new(0));
    let writer = {
        let shared = Arc::clone(shared);
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || writer_loop(stream, rx, &shared, &in_flight))
    };

    // Handshake: exactly one HELLO line, answered before anything else.
    let mut line = String::new();
    let outcome = read_line_polled(&mut reader, &mut line, poll, shared, &in_flight);
    let hello_ok = matches!(outcome, ReadOutcome::Line)
        && line.trim_end_matches(['\r', '\n']) == format!("HELLO {PROTOCOL_VERSION}");
    if !hello_ok {
        let message = match outcome {
            ReadOutcome::Drained => "server draining".to_string(),
            ReadOutcome::Idle => format!("idle timeout ({:?})", shared.idle_timeout),
            _ => format!(
                "unsupported handshake (want 'HELLO {PROTOCOL_VERSION}'): {}",
                line.trim_end_matches(['\r', '\n'])
            ),
        };
        let _ = tx.send(Item::Ready(Response::Error { message }));
        drop(tx);
        let _ = writer.join();
        return;
    }
    let _ = tx.send(Item::Raw(format!("OK {PROTOCOL_VERSION}")));

    loop {
        line.clear();
        match read_line_polled(&mut reader, &mut line, poll, shared, &in_flight) {
            ReadOutcome::Line => {}
            // Draining and the socket went quiet: everything the client
            // flushed before the drain has been submitted. Stop reading;
            // the writer still delivers every in-flight response.
            ReadOutcome::Drained => break,
            ReadOutcome::Idle => {
                // Idle timeout: tell the client why, best-effort, and close.
                let _ = tx.send(Item::Ready(Response::Error {
                    message: format!("idle timeout ({:?})", shared.idle_timeout),
                }));
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Failed => break,
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue; // blank keep-alive lines are tolerated
        }
        let request = match Request::from_trace_line(trimmed) {
            Ok(request) => request,
            Err(e) => {
                // One malformed line costs one error response; the
                // session — and its pipeline position — survives.
                let _ = tx.send(Item::Ready(Response::Error { message: format!("protocol: {e}") }));
                continue;
            }
        };
        // The log line wants the compact Display form, not the wire form.
        let display = format!("{request}");
        let introspection = matches!(request, Request::Metrics | Request::Slowlog);
        let submitted = {
            let mut slot = shared.engine.lock().expect("engine lock");
            let slot = &mut *slot;
            match slot.engine.as_mut() {
                Some(engine) => {
                    // Introspections keep their pipeline position but
                    // consume no sequence number (see Item::Introspection).
                    let seq = if introspection {
                        0
                    } else {
                        slot.next_seq += 1;
                        slot.next_seq - 1
                    };
                    Some((seq, engine.submit(request)))
                }
                None => None,
            }
        };
        if submitted.is_some() {
            in_flight.fetch_add(1, Ordering::SeqCst);
        }
        let item = match submitted {
            Some((_, ticket)) if introspection => Item::Introspection { ticket },
            Some((seq, ticket)) => Item::Pending { seq, display, ticket },
            None => Item::Ready(Response::Error { message: "server draining".into() }),
        };
        if tx.send(item).is_err() {
            break; // writer died (socket gone); nothing left to serve
        }
    }

    drop(tx);
    let _ = writer.join();
}

/// The session's write half: resolve items in order, stream response
/// lines, and batch flushes to the pipeline's quiet moments. Socket write
/// failures do not abort the loop — tickets already submitted must still
/// be resolved so the server log records every served request.
fn writer_loop(
    stream: TcpStream,
    rx: Receiver<Item>,
    shared: &Arc<Shared>,
    in_flight: &AtomicUsize,
) {
    let mut w = BufWriter::new(stream);
    let mut client_gone = false;
    while let Ok(first) = rx.recv() {
        let mut next = Some(first);
        // Submitted requests answered since the last flush.
        let mut answered = 0;
        while let Some(item) = next {
            let line = match item {
                Item::Raw(line) => line,
                Item::Ready(response) => response.to_trace_line(),
                Item::Pending { seq, display, ticket } => {
                    let response = ticket.wait();
                    shared.log_line(seq, &display, &response);
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    answered += 1;
                    response.to_trace_line()
                }
                Item::Introspection { ticket } => {
                    answered += 1;
                    ticket.wait().to_trace_line()
                }
            };
            if !client_gone {
                let write = w.write_all(line.as_bytes()).and_then(|_| w.write_all(b"\n"));
                if write.is_err() {
                    client_gone = true;
                }
            }
            next = rx.try_recv().ok();
        }
        // Queue momentarily empty: push what we have to the client (and
        // the log file, so an external `cmp` right after a client run
        // never races buffered lines).
        if !client_gone && w.flush().is_err() {
            client_gone = true;
        }
        in_flight.fetch_sub(answered, Ordering::SeqCst);
        shared.flush_log();
    }
    if !client_gone {
        let _ = w.flush();
    }
    let _ = w.get_ref().shutdown(Shutdown::Both);
    shared.flush_log();
}
