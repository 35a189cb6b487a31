//! The timed drivers: set-up, the windowed throughput pass and the
//! one-at-a-time latency pass, against an in-process `ShardedEngine` or a
//! `cut-server` child process over one loopback connection.
//!
//! Every pass folds its response log — `stress`'s format, `{i:06}
//! {request} -> {response}` per request, no timing — into an FNV-1a
//! digest, so runs of one stream can be checked against each other, the
//! traced replay, and the pinned traces' `stress` digests.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_client::{Connection, RemoteTicket};
use cut_engine::{
    EngineStats, GraphStore, Request, Response, ShardOptions, ShardedEngine, Ticket, Workload,
};
use cut_store::{Store, StoreOptions};

use crate::workloads::Kind;

/// Engine shards, in-process and in the server.
pub const SHARDS: usize = 2;

/// In-flight cap of the throughput pass — `stress`'s window.
const WINDOW: usize = 1024;

/// Streaming FNV-1a over a response log, fed one formatted line at a
/// time (equal to `cut_graph::hash::fnv1a` over the whole log).
#[derive(Debug, Clone)]
pub struct LogDigest {
    hash: u64,
    line: String,
}

impl Default for LogDigest {
    fn default() -> Self {
        LogDigest { hash: 0xcbf2_9ce4_8422_2325, line: String::new() }
    }
}

impl LogDigest {
    pub fn push(&mut self, i: usize, request: &Request, response: &Response) {
        self.line.clear();
        let _ = writeln!(self.line, "{i:06} {request} -> {response}");
        for &b in self.line.as_bytes() {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.hash
    }
}

/// How a stream is served.
#[derive(Debug, Clone, Copy)]
pub enum Target<'a> {
    /// In-process `ShardedEngine`, no store.
    Local,
    /// In-process `ShardedEngine` with a `cut_store::Store` in a fresh
    /// directory — the server's engine minus the wire.
    LocalDurable,
    /// A fresh `cut-server` (binary at the path) with a fresh data
    /// directory, over one loopback connection.
    Remote(&'a Path),
}

/// Where requests go.
pub enum Front {
    Local { engine: ShardedEngine, data_dir: Option<PathBuf> },
    Remote { conn: Connection, server: ServerProc },
}

enum Pending {
    Local(Ticket),
    Remote(RemoteTicket),
    Failed,
}

impl Pending {
    /// The response, or `None` when the request went unanswered.
    fn wait(self) -> Option<Response> {
        match self {
            Pending::Local(t) => Some(t.wait()),
            Pending::Remote(t) => t.wait().ok(),
            Pending::Failed => None,
        }
    }
}

impl Front {
    fn submit(&mut self, request: &Request) -> Pending {
        match self {
            Front::Local { engine, .. } => Pending::Local(engine.submit(request.clone())),
            Front::Remote { conn, .. } => match conn.submit(request) {
                Ok(t) => Pending::Remote(t),
                Err(_) => Pending::Failed,
            },
        }
    }
}

/// What a served stream looked like from the client.
#[derive(Debug, Default)]
pub struct Served {
    pub digest: LogDigest,
    pub errors: u64,
    pub unanswered: u64,
    pub requests: u64,
}

impl Served {
    fn record(&mut self, i: usize, request: &Request, response: Option<Response>) {
        self.requests += 1;
        match response {
            Some(r) => {
                if matches!(r, Response::Error { .. }) {
                    self.errors += 1;
                }
                self.digest.push(i, request, &r);
            }
            None => self.unanswered += 1,
        }
    }
}

/// A workload ready to be timed: generated, its front started and its
/// create prologue applied.
pub struct Ready {
    pub workload: Workload,
    pub front: Front,
    pub served: Served,
    /// Generation + store open + server spawn/handshake + prologue.
    pub setup: Duration,
}

/// Generate `kind`'s stream, then [`start`] it.
pub fn setup(
    kind: Kind,
    seed: u64,
    ops: usize,
    target: Target,
    scratch: &Path,
) -> Result<Ready, String> {
    let t0 = Instant::now();
    let mut ready = start(kind.generate(seed, ops), target, scratch)?;
    ready.setup = t0.elapsed();
    Ok(ready)
}

/// Start a fresh front for `workload` and apply its prologue. Durable
/// fronts get a fresh, empty data directory under `scratch`.
pub fn start(workload: Workload, target: Target, scratch: &Path) -> Result<Ready, String> {
    let t0 = Instant::now();
    let mut front = match target {
        Target::Local => Front::Local {
            engine: ShardedEngine::with_options(SHARDS, ShardOptions::default()),
            data_dir: None,
        },
        Target::LocalDurable => {
            let dir = fresh_dir(scratch, "data")?;
            let store = Store::open(&dir, StoreOptions::default())
                .map_err(|e| format!("opening store {}: {e}", dir.display()))?;
            let opts = ShardOptions {
                store: Some(Arc::new(store) as Arc<dyn GraphStore>),
                ..Default::default()
            };
            Front::Local { engine: ShardedEngine::with_options(SHARDS, opts), data_dir: Some(dir) }
        }
        Target::Remote(bin) => {
            let server = ServerProc::spawn(bin, &fresh_dir(scratch, "data")?)?;
            let conn = Connection::connect(server.addr.as_str())
                .map_err(|e| format!("connecting to cut-server at {}: {e}", server.addr))?;
            Front::Remote { conn, server }
        }
    };
    let mut served = Served::default();
    for (i, request) in workload.prologue.iter().enumerate() {
        let response = front.submit(request).wait();
        served.record(i, request, response);
    }
    Ok(Ready { workload, front, served, setup: t0.elapsed() })
}

/// One timed pass's outcome.
#[derive(Debug, Default)]
pub struct Pass {
    pub served: Served,
    /// Wall time over the operations (the prologue is set-up).
    pub wall: Duration,
    /// Submit → response per operation (latency pass only).
    pub latencies_ns: Vec<u64>,
    /// Merged engine counters and per-shard busy time (in-process only).
    pub stats: Option<(EngineStats, Vec<u64>)>,
    /// Peak resident set of the serving process, KiB (remote only; the
    /// in-process peak is the benchmark's own).
    pub server_rss_kib: Option<u64>,
    /// Data-directory bytes after the pass (durable fronts only).
    pub disk_bytes: Option<u64>,
}

/// Keep up to [`WINDOW`] requests in flight, collect in submission order.
pub fn throughput(ready: Ready) -> Result<Pass, String> {
    let Ready { workload, mut front, mut served, .. } = ready;
    let base = workload.prologue.len();
    let mut inflight: VecDeque<(usize, &Request, Pending)> = VecDeque::with_capacity(WINDOW);
    let t0 = Instant::now();
    for (j, request) in workload.operations.iter().enumerate() {
        inflight.push_back((base + j, request, front.submit(request)));
        if inflight.len() >= WINDOW {
            let (i, request, pending) = inflight.pop_front().expect("full window");
            served.record(i, request, pending.wait());
        }
    }
    while let Some((i, request, pending)) = inflight.pop_front() {
        served.record(i, request, pending.wait());
    }
    let wall = t0.elapsed();
    finish(front, Pass { served, wall, ..Pass::default() })
}

/// One request outstanding at a time, each timed submit → response.
pub fn latency(ready: Ready) -> Result<Pass, String> {
    let Ready { workload, mut front, mut served, .. } = ready;
    let base = workload.prologue.len();
    let mut latencies_ns = Vec::with_capacity(workload.operations.len());
    let t0 = Instant::now();
    for (j, request) in workload.operations.iter().enumerate() {
        let t = Instant::now();
        let response = front.submit(request).wait();
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        served.record(base + j, request, response);
    }
    let wall = t0.elapsed();
    finish(front, Pass { served, wall, latencies_ns, ..Pass::default() })
}

fn finish(front: Front, mut pass: Pass) -> Result<Pass, String> {
    match front {
        Front::Local { engine, data_dir } => {
            let per_shard = engine.shutdown();
            let mut merged = EngineStats::default();
            for s in &per_shard {
                merged.merge(s);
            }
            pass.stats = Some((merged, per_shard.iter().map(|s| s.serve_nanos).collect()));
            if let Some(dir) = data_dir {
                pass.disk_bytes = Some(dir_bytes(&dir));
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        Front::Remote { conn, server } => {
            conn.close();
            pass.server_rss_kib = Some(server.peak_rss_kib()?);
            let dir = server.data_dir.clone();
            server.shutdown()?;
            pass.disk_bytes = Some(dir_bytes(&dir));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok(pass)
}

/// A `cut-server --shards 2 --data-dir DIR` child on an ephemeral
/// loopback port. Killed on drop unless shut down cleanly.
pub struct ServerProc {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    pub data_dir: PathBuf,
}

impl ServerProc {
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--shards", &SHARDS.to_string(), "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut server = ServerProc {
            child: Some(child),
            stdin,
            stdout,
            addr: String::new(),
            data_dir: data_dir.to_path_buf(),
        };
        let reader = server.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("cut-server exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("cut-server listening on ") {
                server.addr = rest.split_whitespace().next().unwrap_or_default().to_string();
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        peak_rss_kib(&format!("/proc/{}/status", self.pid()))
    }

    /// The `shutdown` line on stdin: drain, print final stats, exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut stdin = self.stdin.take().ok_or("stdin already closed")?;
        writeln!(stdin, "shutdown").map_err(|e| format!("asking cut-server to stop: {e}"))?;
        drop(stdin);
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut rest);
        }
        let mut child = self.child.take().expect("child present until shutdown");
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("cut-server exited with {status}: {rest}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, KiB.
pub fn peak_rss_kib(status_path: &str) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`; zeros when
/// unreadable.
pub fn cpu_times() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_times`] readings, in percent: a busy host slows every thread of
/// a run at once.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Reset this process's peak-RSS mark so `VmHWM` covers only what
/// follows (Linux `clear_refs` 5). Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A new, empty directory under `scratch`.
pub fn fresh_dir(scratch: &Path, tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
