//! The sharded front-end: the same `Request -> Response` contract as
//! [`Engine`], served by N worker threads with **adaptive placement** and
//! **work stealing**.
//!
//! [`ShardedEngine`] partitions the graph registry across `shards` workers
//! through a router-owned **placement table** (`graph name -> shard`),
//! consulted per request. A name's first appearance assigns it the stable
//! FNV-1a default shard, so with rebalancing off the routing is exactly
//! the static hash placement of old. Each worker owns a private [`Engine`]
//! holding its graphs' edge lists, epoch counters, and query caches, and
//! drains a FIFO queue of jobs. Because a graph routes to one shard at a
//! time and each shard's queue is FIFO, **per-graph request ordering is
//! exactly submission order** — while requests that target graphs on
//! different shards execute concurrently.
//!
//! With [`PlacementOptions::rebalance`] on, the router additionally keeps
//! per-graph windowed load (a serve-time proxy, [`Request::cost_weight`])
//! and periodically **migrates** graphs: a graph hotter than one shard's
//! fair share rotates across shards so no single shard carries it for the
//! whole run, and overloaded shards shed their heaviest satellite graphs
//! to the coldest shard. A migration is a *barrier for that graph*: a
//! `MigrateOut` marker drains behind every already-queued job on the old
//! shard, the graph's entry — edge list, index, epoch, warmed query
//! cache — moves wholesale, and the new shard blocks at its `MigrateIn`
//! marker until the entry arrives. Per-graph FIFO order is therefore
//! preserved across the move and no response ever changes.
//!
//! With [`PlacementOptions::steal`] on, an idle worker may **steal** the
//! maximal run of same-graph queries from the *tail* of the longest
//! queue — but only when that run is the graph's entire presence in the
//! queue and no broadcast is pending there (the conditions that make
//! stealing invisible: see `docs/SHARDING.md` for the full argument). The
//! victim lends the graph's entry at a handoff marker, the thief serves
//! the run against it, and the entry returns together with the run's
//! query/cache counters, which merge into the *victim's* stats — so
//! broadcast `Stats` answers stay byte-identical to the unsharded
//! engine's. Any later job touching a lent graph (and every broadcast) is
//! a reclaim barrier, mirroring the mutation barrier batching obeys.
//!
//! Cross-graph requests ([`Request::ListGraphs`], [`Request::Stats`]) are
//! broadcast to every shard through the same FIFO queues and their partial
//! answers merged, so they observe precisely the requests submitted before
//! them. Net contract, unchanged from the static-placement engine: for
//! *any* request stream, *any* shard count, and *any* combination of
//! `batch`/`rebalance`/`steal`, the response sequence (in submission
//! order) matches the single-threaded engine's, and the stress harness's
//! deterministic log digest is unchanged.
//!
//! Two ways to drive it:
//! - [`ShardedEngine::execute`] — submit one request and block for its
//!   answer; a drop-in for [`Engine::execute`] (no parallelism: each
//!   request completes before the next is submitted).
//! - [`ShardedEngine::submit`] + [`Ticket::wait`] — pipeline many requests
//!   and collect answers in submission order; this is what overlaps work
//!   across shards and where the throughput win comes from.
//!
//! With [`ShardOptions::batch`] enabled, each worker additionally coalesces
//! **per-graph read batches**: a maximal run of consecutive queued queries
//! against the same graph executes through one
//! [`Engine::execute_read_batch`] call — one registry lookup, one shared
//! index snapshot — while any mutation, create, drop, or broadcast acts as
//! a barrier and executes singly. Jobs still execute in exact queue order,
//! so the response stream stays byte-identical to the unbatched path; only
//! the cost of producing it (and the batch counters in [`EngineStats`])
//! changes.
//!
//! Shutdown is graceful: [`ShardedEngine::shutdown`] (or drop) closes the
//! job queues, and every worker drains all in-flight jobs — including
//! migration markers and steal loans — before exiting, so tickets taken
//! before shutdown still resolve.
//!
//! ```
//! use cut_engine::{GraphSpec, Query, Request, Response, ShardedEngine};
//!
//! let mut engine = ShardedEngine::new(4);
//! // Tickets pipeline: submit first, wait later, answers in order.
//! let create = engine.submit(Request::Create {
//!     name: "ring".into(),
//!     spec: GraphSpec::Cycle { n: 12 },
//! });
//! let cut = engine.submit(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(matches!(create.wait(), Response::Created { .. }));
//! assert!(matches!(cut.wait(), Response::CutValue { weight: 2, .. }));
//! let per_shard = engine.shutdown();
//! assert_eq!(per_shard.iter().map(|s| s.queries).sum::<u64>(), 1);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use cut_obs::{span_flags, Clock, MonotonicClock, Registry, SlowLog, Span};

use crate::engine::{serve_query, Engine, EngineConfig, EngineStats, GraphEntry, ObsScratch};
use crate::request::{Request, Response};
use crate::store_api::GraphStore;

/// How long an idle steal-enabled worker parks between scans for work, and
/// the poll cadence inside blocking waits. Pure performance knobs: they
/// bound wake-up latency, never affect responses.
const PARK: Duration = Duration::from_micros(200);
const POLL: Duration = Duration::from_micros(50);

/// Tunables for the adaptive placement layer: load-driven rebalancing
/// (graph migration between shards) and idle-worker stealing. Neither
/// feature ever changes a response — see the module docs for the barrier
/// protocols that guarantee it — so these knobs trade only throughput and
/// queue balance.
///
/// # Examples
///
/// ```
/// use cut_engine::{
///     GraphSpec, PlacementOptions, Query, Request, Response, ShardOptions, ShardedEngine,
/// };
///
/// let placement = PlacementOptions {
///     rebalance: true,
///     steal: true,
///     window: 4, // rebalance every 4 submissions (default 512)
///     ..PlacementOptions::default()
/// };
/// let mut engine =
///     ShardedEngine::with_options(2, ShardOptions { placement, ..ShardOptions::default() });
/// for i in 0..4 {
///     engine.execute(Request::Create { name: format!("g{i}"), spec: GraphSpec::Cycle { n: 12 } });
/// }
/// // Hammer one graph: the router's load accounting sees the skew and
/// // rotates the hot graph between shards at window boundaries.
/// for _ in 0..32 {
///     let r = engine.execute(Request::Query { name: "g0".into(), query: Query::ExactMinCut });
///     assert!(matches!(r, Response::CutValue { weight: 2, .. }));
/// }
/// let report = engine.placement_report();
/// assert_eq!(report.assignments.len(), 4, "every graph has a home shard");
/// assert!(report.rebalances > 0);
/// engine.shutdown();
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementOptions {
    /// Enable load-driven rebalancing (graph migration at window
    /// boundaries). Off ⇒ placement is the static FNV default, forever.
    pub rebalance: bool,
    /// Submissions between rebalance checks. Smaller windows adapt faster
    /// but migrate (and pay the per-graph barrier) more often.
    pub window: usize,
    /// Most migrations one rebalance round may enqueue.
    pub max_moves: usize,
    /// Trigger threshold: the hottest shard must carry more than
    /// `imbalance × mean` window load before satellites move (values
    /// below 1.0 behave as 1.0).
    pub imbalance: f64,
    /// Enable idle-worker stealing of same-graph query runs from the tail
    /// of the longest queue.
    pub steal: bool,
    /// Smallest tail run worth stealing (and the smallest victim queue
    /// considered). Raising it avoids churn on short queues.
    pub steal_min: usize,
    /// Feed **measured serve times** back into placement: workers post
    /// the nanoseconds each request actually took (keyed by graph) to a
    /// shared board, and at every window boundary the router re-derives
    /// each graph's mean observed cost and estimates its *compute
    /// pressure* (window request count × mean). Rebalancing then also
    /// rotates a graph whose measured compute exceeds one shard's fair
    /// share of busy time — a pressure the static
    /// [`Request::cost_weight`] table cannot see (it prices request
    /// kinds, not graph size, density, or cache-hit rate). The
    /// queue-pressure accounting and satellite shedding are unchanged,
    /// so count balance is not traded away. The migration *schedule*
    /// becomes timing-dependent, but responses and the log digest stay
    /// byte-identical, because migrations never change a response. No
    /// effect unless [`PlacementOptions::rebalance`] is on.
    pub latency_proxy: bool,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        Self {
            rebalance: false,
            window: 512,
            max_moves: 3,
            imbalance: 1.25,
            steal: false,
            steal_min: 3,
            latency_proxy: false,
        }
    }
}

/// How a [`ShardedEngine`]'s workers execute their queues.
#[derive(Clone)]
pub struct ShardOptions {
    /// Per-shard engine configuration.
    pub cfg: EngineConfig,
    /// Drain queued runs of same-graph queries into read batches
    /// (mutations are barriers). Changes cost, never responses.
    pub batch: bool,
    /// Most queries one read batch may coalesce (bounds the latency a
    /// batch can add to its first member).
    pub max_batch: usize,
    /// Adaptive placement: rebalancing migrations and work stealing.
    pub placement: PlacementOptions,
    /// Durability backend, shared by every worker. Each worker attaches
    /// it to its private [`Engine`] and adopts (as spilled, faulted in on
    /// first touch) the stored graphs whose stable FNV default shard is
    /// its own — so recovery needs no placement history and works for
    /// any shard count.
    pub store: Option<Arc<dyn GraphStore>>,
    /// Telemetry clock stamping request lifecycles (enqueue, dequeue,
    /// serve end) and serve-time attribution. Defaults to the monotonic
    /// wall clock; tests inject a [`cut_obs::TestClock`] for exact,
    /// deterministic stamps. Purely an observer — swapping clocks never
    /// changes a response.
    pub clock: Arc<dyn Clock>,
    /// Worst-N capacity of each shard's slow-query log (0 disables it).
    pub slowlog_cap: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        Self {
            cfg: EngineConfig::default(),
            batch: false,
            max_batch: 256,
            placement: PlacementOptions::default(),
            store: None,
            clock: Arc::new(MonotonicClock::new()),
            slowlog_cap: 16,
        }
    }
}

impl std::fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardOptions")
            .field("cfg", &self.cfg)
            .field("batch", &self.batch)
            .field("max_batch", &self.max_batch)
            .field("placement", &self.placement)
            .field("store", &self.store.as_ref().map(|_| "dyn GraphStore"))
            .field("clock", &self.clock)
            .field("slowlog_cap", &self.slowlog_cap)
            .finish()
    }
}

/// One unit of work for a shard worker: a request plus the channel its
/// response goes back on, stamped with the telemetry clock reading at
/// submission (the span's enqueue mark — queue wait is measured from it).
struct Job {
    request: Request,
    reply: Sender<Response>,
    enqueue: u64,
}

/// What travels through a shard's queue. Routing invariants: `Exec` jobs
/// for one graph always sit in that graph's current shard's queue;
/// migration markers are enqueued in pairs by the router (out on the old
/// shard, in on the new, in that submission order); steal handoffs are
/// front-inserted by thieves under the queue lock.
enum WorkItem {
    /// Execute a request and reply.
    Exec(Job),
    /// Migration barrier, source side: detach `name` (reclaiming it first
    /// if lent out) and send it to the target shard. Sits behind every
    /// job for `name` submitted before the migration, so the entry leaves
    /// only after they all executed.
    MigrateOut { name: String, to: Sender<MigrationPkg> },
    /// Migration barrier, target side: block until the entry arrives and
    /// install it. Sits ahead of every job for `name` submitted after the
    /// migration, so none executes before the entry exists here.
    MigrateIn { name: String, from: Receiver<MigrationPkg> },
    /// Steal handoff: lend `name`'s entry to the thief on `loan`, and
    /// remember `ret` for the reclaim (entry plus the stolen run's stats
    /// delta). Front-inserted, which is safe because a steal only happens
    /// when the stolen tail run was the graph's entire presence in this
    /// queue — there is no earlier job for the graph to jump.
    StealHandoff { name: String, loan: Sender<LoanPkg>, ret: Receiver<ReturnPkg> },
}

/// A migrating graph (`export: None` when the graph was dropped between
/// the rebalance decision and the source shard reaching the marker — or,
/// with `spilled`, when the graph is cold on disk: ownership of the
/// durable copy moves without faulting it in).
struct MigrationPkg {
    export: Option<crate::engine::GraphExport>,
    /// The source shard held the graph as a spilled (on-disk) entry; the
    /// target adopts the name and faults it in on first touch.
    spilled: bool,
}

/// A loaned graph entry (`None` when the graph vanished first; the thief
/// then answers its stolen run with the engine's unknown-graph error).
struct LoanPkg {
    entry: Option<GraphEntry>,
}

/// A loan coming home: the entry plus the counters the stolen run accrued,
/// which merge into the owning shard's stats.
struct ReturnPkg {
    entry: Option<GraphEntry>,
    delta: EngineStats,
}

/// The latency-proxy feedback: cumulative `(serve nanos, requests served)`
/// per graph, posted by workers (and thieves), read by the router once per
/// rebalance window to re-derive each graph's mean observed serve time —
/// the signal no static table can provide (graph size and density, cache
/// hit rates, drifting mixes all fold into it). Writes are one short lock
/// per served request (or per batch).
type LoadBoard = Mutex<BTreeMap<String, (u64, u64)>>;

/// One shard's shared job queue. Workers pop from the front; the router
/// pushes to the back; thieves inspect it and may remove a tail run (and
/// front-insert a handoff) under the same lock.
struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<WorkItem>,
    closed: bool,
}

impl Default for ShardQueue {
    fn default() -> Self {
        Self { state: Mutex::new(QueueState::default()), cv: Condvar::new() }
    }
}

/// Which cross-shard request a broadcast ticket is merging.
#[derive(Debug, Clone, Copy)]
enum MergeKind {
    ListGraphs,
    Stats,
    Metrics,
    Slowlog,
}

/// A pending response from [`ShardedEngine::submit`].
///
/// Waiting is detached from submission so callers can keep many requests
/// in flight; [`Ticket::wait`] blocks until the owning shard (or, for
/// broadcasts, every shard) has answered. Tickets remain valid across
/// [`ShardedEngine::shutdown`]: workers drain their queues before exiting.
#[must_use = "a ticket holds a pending response; call wait() to collect it"]
pub struct Ticket {
    /// `None` once the response has been collected (the ticket is spent).
    inner: Option<TicketInner>,
    /// Bumped at drop when the ticket still held a pending response —
    /// the caller abandoned it without waiting. The work still executes
    /// (mutations apply, the WAL is written); only the answer is lost.
    abandoned: Option<Arc<AtomicU64>>,
}

enum TicketInner {
    /// One shard answers.
    Single(Receiver<Response>),
    /// Every shard answers; the partials merge into one response. `got`
    /// buffers the partials [`Ticket::try_wait`] has already collected.
    Merge { kind: MergeKind, parts: Vec<Receiver<Response>>, got: Vec<Option<Response>> },
}

impl Ticket {
    /// Block until the response is available.
    ///
    /// If a shard worker died (panicked) before answering, this returns a
    /// [`Response::Error`] instead of hanging or propagating the panic.
    pub fn wait(mut self) -> Response {
        match self.inner.take() {
            None => worker_lost(),
            Some(TicketInner::Single(rx)) => rx.recv().unwrap_or_else(|_| worker_lost()),
            Some(TicketInner::Merge { kind, parts, got }) => {
                let mut partials = Vec::with_capacity(parts.len());
                for (rx, buffered) in parts.iter().zip(got) {
                    match buffered {
                        Some(r) => partials.push(r),
                        None => match rx.recv() {
                            Ok(r) => partials.push(r),
                            Err(_) => return worker_lost(),
                        },
                    }
                }
                merge_partials(kind, partials)
            }
        }
    }

    /// Non-blocking poll: `Some(response)` once every owing shard has
    /// answered, `None` while any is still working. The open-loop stress
    /// harness uses this to stamp per-request completion times without
    /// head-of-line blocking on slower earlier tickets.
    ///
    /// Once this returns `Some`, the ticket is spent — further calls
    /// return `None`, and dropping it no longer counts as abandonment.
    pub fn try_wait(&mut self) -> Option<Response> {
        let response = Self::poll(self.inner.as_mut()?)?;
        self.inner = None;
        Some(response)
    }

    /// Non-blocking poll of a live ticket — the `try_wait` body, split
    /// out so spending the ticket (clearing `inner`) happens in exactly
    /// one place per public entry point.
    fn poll(inner: &mut TicketInner) -> Option<Response> {
        match inner {
            TicketInner::Single(rx) => match rx.try_recv() {
                Ok(r) => Some(r),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(worker_lost()),
            },
            TicketInner::Merge { kind, parts, got } => {
                for (rx, slot) in parts.iter().zip(got.iter_mut()) {
                    if slot.is_some() {
                        continue;
                    }
                    match rx.try_recv() {
                        Ok(r) => *slot = Some(r),
                        Err(TryRecvError::Empty) => return None,
                        Err(TryRecvError::Disconnected) => return Some(worker_lost()),
                    }
                }
                let partials = got.iter_mut().map(|s| s.take().expect("all arrived")).collect();
                Some(merge_partials(*kind, partials))
            }
        }
    }

    /// Bounded-blocking poll: park up to `timeout` for the next missing
    /// answer, then report like [`Ticket::try_wait`]. Collectors that would
    /// otherwise hot-poll `try_wait` in a spin loop should park here
    /// instead — the wait ends the moment the answer lands, so completion
    /// timestamps stay accurate without burning a core.
    ///
    /// `None` means the timeout elapsed (any partials that arrived are
    /// buffered); `Some` spends the ticket exactly as `try_wait` does.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Response> {
        let resolved = match self.inner.as_mut()? {
            TicketInner::Single(rx) => match rx.recv_timeout(timeout) {
                Ok(r) => Some(r),
                Err(RecvTimeoutError::Timeout) => return None,
                Err(RecvTimeoutError::Disconnected) => Some(worker_lost()),
            },
            TicketInner::Merge { parts, got, .. } => {
                // Park on the first missing partial only; the rest are
                // swept non-blockingly below (they usually land together).
                if let Some((rx, slot)) =
                    parts.iter().zip(got.iter_mut()).find(|(_, slot)| slot.is_none())
                {
                    match rx.recv_timeout(timeout) {
                        Ok(r) => *slot = Some(r),
                        Err(RecvTimeoutError::Timeout) => return None,
                        // Let try_wait below report the lost worker.
                        Err(RecvTimeoutError::Disconnected) => {}
                    }
                }
                None
            }
        };
        match resolved {
            Some(r) => {
                self.inner = None;
                Some(r)
            }
            None => self.try_wait(),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(counter) = &self.abandoned {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn worker_lost() -> Response {
    Response::Error { message: "shard worker disconnected before answering".into() }
}

/// Merge per-shard partial answers to a broadcast request into the answer
/// an unsharded engine would give.
fn merge_partials(kind: MergeKind, partials: Vec<Response>) -> Response {
    match kind {
        MergeKind::ListGraphs => {
            let mut names = Vec::new();
            for p in partials {
                match p {
                    Response::Graphs { names: part } => names.extend(part),
                    other => return unexpected_partial(other),
                }
            }
            // Each shard's list is sorted; the global contract is one
            // sorted list. Dedup guards the durable-adoption edge: a
            // name must never be double-reported even if two shards
            // transiently track it.
            names.sort_unstable();
            names.dedup();
            Response::Graphs { names }
        }
        MergeKind::Stats => {
            let (mut graphs, mut queries, mut hits, mut misses, mut mutations) = (0, 0, 0, 0, 0);
            for p in partials {
                match p {
                    Response::EngineStats {
                        graphs: g,
                        queries: q,
                        cache_hits: h,
                        cache_misses: m,
                        mutations: mu,
                    } => {
                        graphs += g;
                        queries += q;
                        hits += h;
                        misses += m;
                        mutations += mu;
                    }
                    other => return unexpected_partial(other),
                }
            }
            Response::EngineStats {
                graphs,
                queries,
                cache_hits: hits,
                cache_misses: misses,
                mutations,
            }
        }
        MergeKind::Metrics => {
            // Each shard snapshots its registry (counters, gauges,
            // histograms) onto the wire; the merge is the same explicit
            // addition `EngineStats` uses, so the merged answer equals
            // what one engine serving the whole stream would report.
            let mut merged = Registry::new();
            for p in partials {
                match p {
                    Response::Metrics { snapshot } => match Registry::from_wire(&snapshot) {
                        Ok(part) => merged.merge(&part),
                        Err(e) => {
                            return Response::Error { message: format!("bad metrics partial: {e}") }
                        }
                    },
                    other => return unexpected_partial(other),
                }
            }
            Response::Metrics { snapshot: merged.to_wire() }
        }
        MergeKind::Slowlog => {
            // Worst-N across all shards: fold each shard's log and keep
            // the globally slowest spans under the largest capacity.
            let mut merged = SlowLog::new(0);
            for p in partials {
                match p {
                    Response::Slowlog { snapshot } => match SlowLog::from_wire(&snapshot) {
                        Ok(part) => merged.merge(&part),
                        Err(e) => {
                            return Response::Error { message: format!("bad slowlog partial: {e}") }
                        }
                    },
                    other => return unexpected_partial(other),
                }
            }
            Response::Slowlog { snapshot: merged.to_wire() }
        }
    }
}

fn unexpected_partial(got: Response) -> Response {
    Response::Error { message: format!("unexpected shard partial: {got}") }
}

/// Stable FNV-1a over the graph name — the *default* placement. Kept
/// platform- and run-independent so shard assignment (and therefore the
/// per-shard occupancy a harness reports) is reproducible.
fn name_hash(name: &str) -> u64 {
    cut_graph::hash::fnv1a(name.as_bytes())
}

/// The shard a name lands on before any rebalancing touches it.
fn default_shard(name: &str, shards: usize) -> usize {
    (name_hash(name) % shards as u64) as usize
}

/// What the adaptive placement layer has done so far — rebalance rounds,
/// migrations, and the current graph-to-shard assignment. The stress
/// harness prints this as the placement section of its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementReport {
    /// Graph migrations enqueued (each one is a per-graph barrier).
    pub migrations: u64,
    /// Rebalance rounds run (window boundaries with rebalancing on).
    pub rebalances: u64,
    /// Placement generation: bumped once per migration, so two reports
    /// with equal generations describe the same table.
    pub generation: u64,
    /// Current `graph -> shard` assignment, sorted by name. Names persist
    /// across drops (a re-created graph keeps its last home).
    pub assignments: Vec<(String, usize)>,
}

/// The sharded, multi-threaded front-end over [`Engine`].
///
/// See the [module docs](self) for the routing, placement, and ordering
/// contract. Use [`ShardedEngine::new`] for defaults,
/// [`ShardedEngine::with_config`] to set the per-shard [`EngineConfig`],
/// [`ShardedEngine::with_options`] for batching and adaptive placement.
pub struct ShardedEngine {
    queues: Arc<Vec<ShardQueue>>,
    workers: Vec<JoinHandle<EngineStats>>,
    /// Jobs enqueued per shard (broadcasts count on every shard).
    routed: Vec<u64>,
    placement: PlacementOptions,
    /// The placement table: where each graph currently lives. Entries are
    /// created on first routing (default = stable FNV shard) and moved
    /// only by [`rebalance`](Self::rebalance) migrations.
    table: BTreeMap<String, usize>,
    /// Per-graph window load in the static cost-weight currency, decayed
    /// each rebalance — the queue-pressure signal (drives hot-graph
    /// rotation, and satellite shedding when no better signal exists).
    loads: BTreeMap<String, u64>,
    /// Per-graph window *request counts*, decayed alongside `loads`
    /// (`latency_proxy` mode only): multiplied by each graph's measured
    /// mean serve time they give the compute-pressure signal shedding
    /// uses.
    counts: BTreeMap<String, u64>,
    /// Cumulative per-graph measured serve times, posted by workers
    /// (`latency_proxy` mode only).
    board: Arc<LoadBoard>,
    /// Mean observed nanoseconds per request of each graph, re-derived
    /// from the board at every rebalance. Captures per-graph cost (size,
    /// density, hit rate) the static table cannot see; the compute-
    /// pressure currency shedding uses under the latency proxy.
    graph_mean: BTreeMap<String, u64>,
    since_rebalance: usize,
    migrations: u64,
    rebalances: u64,
    generation: u64,
    /// The telemetry clock, shared with every worker: the router stamps
    /// each job's enqueue mark at submission.
    clock: Arc<dyn Clock>,
    /// Tickets dropped while still holding a pending response.
    abandoned: Arc<AtomicU64>,
}

impl ShardedEngine {
    /// Spawn `shards` worker threads with the default [`EngineConfig`].
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, EngineConfig::default())
    }

    /// Spawn `shards` worker threads, each owning an `Engine` built from
    /// `cfg`.
    ///
    /// # Panics
    /// Panics if `shards` is zero, or if the OS refuses to spawn a worker
    /// thread (callers taking `shards` from user input should bound it —
    /// the stress harness caps at 1024).
    pub fn with_config(shards: usize, cfg: EngineConfig) -> Self {
        Self::with_options(shards, ShardOptions { cfg, ..ShardOptions::default() })
    }

    /// Spawn `shards` worker threads with batching, rebalancing, and
    /// stealing configured — see [`ShardOptions`] and
    /// [`PlacementOptions`].
    ///
    /// # Panics
    /// Panics if `shards` is zero, or if the OS refuses to spawn a worker
    /// thread (callers taking `shards` from user input should bound it —
    /// the stress harness caps at 1024).
    pub fn with_options(shards: usize, opts: ShardOptions) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let queues: Arc<Vec<ShardQueue>> =
            Arc::new((0..shards).map(|_| ShardQueue::default()).collect());
        let placement = opts.placement;
        let board: Arc<LoadBoard> = Arc::new(Mutex::new(BTreeMap::new()));
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut engine = Engine::with_config(opts.cfg.clone());
            engine.set_clock(Arc::clone(&opts.clock));
            if let Some(store) = &opts.store {
                engine.attach_store(Arc::clone(store));
                // Adopt this shard's slice of the durable graphs — by
                // the stable FNV default placement, so recovery is
                // portable across shard counts and needs no record of
                // the previous run's placement table. Adopted graphs
                // stay on disk until first touched.
                for name in store.names() {
                    if default_shard(&name, shards) == shard {
                        engine.adopt_stored(&name);
                    }
                }
            }
            let worker = Worker {
                id: shard,
                queues: Arc::clone(&queues),
                engine,
                // Observed serve times only matter where a rebalancer
                // will read them; otherwise skip the per-request lock.
                observe: placement.rebalance && placement.latency_proxy,
                board: Arc::clone(&board),
                registry: Registry::new(),
                slowlog: SlowLog::new(opts.slowlog_cap),
                opts: opts.clone(),
                lent: BTreeMap::new(),
                pending: None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("cut-shard-{shard}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker");
            workers.push(handle);
        }
        let clock = Arc::clone(&opts.clock);
        Self {
            queues,
            workers,
            routed: vec![0; shards],
            placement,
            table: BTreeMap::new(),
            loads: BTreeMap::new(),
            counts: BTreeMap::new(),
            board,
            graph_mean: BTreeMap::new(),
            since_rebalance: 0,
            migrations: 0,
            rebalances: 0,
            generation: 0,
            clock,
            abandoned: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The shard that currently owns graph `name`. Without rebalancing
    /// this is the stable FNV default and never changes; with rebalancing
    /// it reflects the placement table as of the last submission.
    pub fn shard_of(&self, name: &str) -> usize {
        self.table.get(name).copied().unwrap_or_else(|| default_shard(name, self.queues.len()))
    }

    /// Jobs enqueued per shard so far (broadcast requests count once on
    /// every shard; internal migration markers are not counted). The
    /// stress harness reads this for occupancy stats.
    pub fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// What the placement layer has done: rebalances, migrations, and the
    /// current graph-to-shard table. See the [`PlacementOptions`] example
    /// for usage.
    pub fn placement_report(&self) -> PlacementReport {
        PlacementReport {
            migrations: self.migrations,
            rebalances: self.rebalances,
            generation: self.generation,
            assignments: self.table.iter().map(|(name, &shard)| (name.clone(), shard)).collect(),
        }
    }

    /// Enqueue one request and return a [`Ticket`] for its response.
    ///
    /// Requests that name a graph go to that graph's current shard (per
    /// the placement table); `ListGraphs` and `Stats` are broadcast to
    /// every shard and merged at [`Ticket::wait`]. Submission order *is*
    /// per-graph execution order. With rebalancing on, every `window`
    /// submissions the router may also enqueue migration barriers here —
    /// they are invisible to responses.
    pub fn submit(&mut self, request: Request) -> Ticket {
        // Exhaustive: a new Request variant must declare here whether it
        // routes by graph name or broadcasts (and how its partials merge).
        let ticket = match &request {
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => {
                let shard = self.place(name);
                if self.placement.rebalance {
                    if matches!(request, Request::Drop { .. }) {
                        // Stop accounting a graph the stream is dropping:
                        // migrating a tombstone would spend a barrier (and
                        // a move budget slot) on nothing. The board entry
                        // goes too, so per-graph state stays bounded by
                        // live graphs and a re-created name starts its
                        // serve-time history fresh instead of inheriting
                        // a dead namesake's mean. (A straggler job timed
                        // after this purge recreates a small, fresh
                        // entry — harmless.)
                        self.loads.remove(name);
                        self.counts.remove(name);
                        self.graph_mean.remove(name);
                        if self.placement.latency_proxy {
                            self.board.lock().expect("load board poisoned").remove(name);
                        }
                    } else {
                        // Queue-pressure accounting, charged at submit
                        // time so it leads the queue, not trails it.
                        *self.loads.entry(name.clone()).or_insert(0) += request.cost_weight();
                        if self.placement.latency_proxy {
                            // Raw request counts: multiplied by measured
                            // mean serve times at the next rebalance, they
                            // estimate each graph's *compute* pressure.
                            *self.counts.entry(name.clone()).or_insert(0) += 1;
                        }
                    }
                }
                let (reply, rx) = unbounded();
                self.routed[shard] += 1;
                let enqueue = self.clock.now();
                self.push(shard, WorkItem::Exec(Job { request, reply, enqueue }));
                self.ticket(TicketInner::Single(rx))
            }
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                let kind = match request {
                    Request::ListGraphs => MergeKind::ListGraphs,
                    Request::Metrics => MergeKind::Metrics,
                    Request::Slowlog => MergeKind::Slowlog,
                    _ => MergeKind::Stats,
                };
                let mut parts = Vec::with_capacity(self.queues.len());
                let enqueue = self.clock.now();
                for shard in 0..self.queues.len() {
                    let (reply, rx) = unbounded();
                    self.routed[shard] += 1;
                    self.push(
                        shard,
                        WorkItem::Exec(Job { request: request.clone(), reply, enqueue }),
                    );
                    parts.push(rx);
                }
                let got = (0..parts.len()).map(|_| None).collect();
                self.ticket(TicketInner::Merge { kind, parts, got })
            }
        };
        if self.placement.rebalance {
            self.since_rebalance += 1;
            if self.since_rebalance >= self.placement.window.max(1) {
                self.since_rebalance = 0;
                self.rebalance();
            }
        }
        ticket
    }

    /// Wrap a pending response with the abandoned-ticket accounting.
    fn ticket(&self, inner: TicketInner) -> Ticket {
        Ticket { inner: Some(inner), abandoned: Some(Arc::clone(&self.abandoned)) }
    }

    /// Tickets dropped while still holding a pending response — callers
    /// that fired a request and never waited. The work itself is not
    /// lost (mutations apply, the WAL is written before the reply is
    /// released); only the answer went uncollected.
    pub fn abandoned_tickets(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }

    /// Submit one request and block for its response — a drop-in for
    /// [`Engine::execute`] (correct, but serialized; use [`submit`] to
    /// overlap work across shards).
    ///
    /// [`submit`]: ShardedEngine::submit
    pub fn execute(&mut self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Close the job queues and join every worker, returning each shard's
    /// final [`EngineStats`] (index = shard id).
    ///
    /// Graceful: workers drain every job already queued — migration
    /// markers and steal loans included — before exiting, so tickets
    /// obtained before `shutdown` still resolve with real answers.
    ///
    /// # Panics
    /// Propagates a shard worker's panic rather than silently reporting
    /// zeroed stats for the dead shard. (In-flight tickets against a dead
    /// shard resolve to [`Response::Error`], not a hang — see
    /// [`Ticket::wait`].)
    pub fn shutdown(mut self) -> Vec<EngineStats> {
        self.close_queues();
        self.workers
            .drain(..)
            .enumerate()
            .map(|(shard, h)| h.join().unwrap_or_else(|_| panic!("shard worker {shard} panicked")))
            .collect()
    }

    fn close_queues(&self) {
        for q in self.queues.iter() {
            q.state.lock().expect("queue lock poisoned").closed = true;
            q.cv.notify_all();
        }
    }

    fn push(&self, shard: usize, item: WorkItem) {
        let q = &self.queues[shard];
        q.state.lock().expect("queue lock poisoned").items.push_back(item);
        q.cv.notify_all();
    }

    /// Current shard of `name`, creating the table entry (at the stable
    /// FNV default) on first sight.
    fn place(&mut self, name: &str) -> usize {
        if let Some(&shard) = self.table.get(name) {
            return shard;
        }
        let shard = default_shard(name, self.queues.len());
        self.table.insert(name.to_string(), shard);
        shard
    }

    /// One rebalance round. Phase 1 rotates a graph hotter than one
    /// shard's fair share to the least-loaded other shard — no placement
    /// can shrink such a graph's instantaneous share, but rotating it
    /// spreads its *run-long* routed share across shards (stealing
    /// relieves the instantaneous queue). Phase 2 greedily moves the
    /// heaviest helpful satellite graphs off the hottest shard onto the
    /// coldest while that strictly lowers the pair's max — in the static
    /// cost-weight currency, or, under [`PlacementOptions::latency_proxy`],
    /// in **measured compute pressure** (window request count × the
    /// graph's mean observed serve time), which sees expensive graphs the
    /// static weights misjudge. Loads then decay (halve) so the
    /// accounting tracks recent traffic.
    ///
    /// Without the latency proxy this is fully deterministic: ties break
    /// by shard index / name order, so a given request stream always
    /// produces the same migration schedule. With it, the *schedule*
    /// depends on measured times — responses never do.
    fn rebalance(&mut self) {
        let shards = self.queues.len();
        if shards < 2 {
            return;
        }
        self.rebalances += 1;
        let mut shard_load = vec![0u64; shards];
        for (name, &load) in &self.loads {
            if let Some(&s) = self.table.get(name) {
                shard_load[s] += load;
            }
        }
        let total: u64 = shard_load.iter().sum();
        let mut moves: Vec<(String, usize, usize)> = Vec::new();

        if total > 0 && self.placement.max_moves > 0 {
            // Phase 1: spread a graph no single shard should keep. The
            // rotation spends from the same move budget as phase 2, so
            // `max_moves: 0` really does mean zero migrations. Always
            // judged in the queue-pressure (cost-weight) currency: the
            // point of rotation is spreading *routed traffic*, and cheap
            // requests still occupy queue slots.
            if let Some((name, load)) = hottest_graph(&self.loads) {
                if load * shards as u64 > total {
                    let cur = self.table[&name];
                    // Least-loaded target, scanned in rotation order from
                    // cur+1 so even ties still round-robin the hot graph.
                    let mut target = cur;
                    let mut best = u64::MAX;
                    for offset in 1..shards {
                        let s = (cur + offset) % shards;
                        if shard_load[s] < best {
                            best = shard_load[s];
                            target = s;
                        }
                    }
                    if target != cur {
                        shard_load[cur] -= load;
                        shard_load[target] += load;
                        moves.push((name, cur, target));
                    }
                }
            }

            // Phase 1b (latency proxy only): also rotate a graph whose
            // *measured compute* exceeds one shard's fair share of busy
            // time — a shard can be swamped in actual serve time (one
            // expensive graph, cold caches, lopsided sizes) while its
            // request counts look fine; the static currency cannot see
            // that, the workers' measurements can. Rotation, not
            // shedding, because a graph too hot for any shard must be
            // *spread*, and because this leaves the count-balancing
            // machinery below untouched.
            if self.placement.latency_proxy && moves.len() < self.placement.max_moves {
                let (tloads, shard_time) = self.compute_pressure(&moves, shards);
                let total_time: u64 = shard_time.iter().sum();
                if let Some((name, tload)) = hottest_graph(&tloads) {
                    let already_moved = moves.iter().any(|(moved, _, _)| *moved == name);
                    if !already_moved && total_time > 0 && tload * shards as u64 > total_time {
                        let cur = self.table[&name];
                        let mut target = cur;
                        let mut best = u64::MAX;
                        for offset in 1..shards {
                            let s = (cur + offset) % shards;
                            if shard_time[s] < best {
                                best = shard_time[s];
                                target = s;
                            }
                        }
                        if target != cur {
                            // Keep the count currency's books consistent
                            // for the shedding pass below.
                            let cost = self.loads.get(&name).copied().unwrap_or(0);
                            shard_load[cur] -= cost.min(shard_load[cur]);
                            shard_load[target] += cost;
                            moves.push((name, cur, target));
                        }
                    }
                }
            }

            // Phase 2: shed satellites from the hottest shard, in the
            // queue-pressure (cost-weight) currency — identical with or
            // without the latency proxy, so measured feedback never costs
            // the count balance the static accounting already achieves.
            shed_satellites(
                &self.placement,
                &self.table,
                &self.loads,
                &mut shard_load,
                &mut moves,
                self.placement.max_moves,
            );
        }

        for (name, from, to) in moves {
            self.migrate(name, from, to);
        }
        // Decay, dropping entries that reach zero so the accounting stays
        // proportional to recently-active graphs, not all names ever seen.
        let decay = |map: &mut BTreeMap<String, u64>| {
            map.retain(|_, load| {
                *load /= 2;
                *load > 0
            })
        };
        decay(&mut self.loads);
        decay(&mut self.counts);
    }

    /// The compute-pressure view for this window: per graph, its
    /// estimated busy time — window request count × mean observed
    /// nanoseconds per request, falling back to the static guess at ~1µs
    /// per cost-weight unit for graphs the workers have not measured
    /// yet — and the per-shard sums with the moves already decided this
    /// round applied. Refreshes `graph_mean` from the workers' board
    /// first.
    fn compute_pressure(
        &mut self,
        moves: &[(String, usize, usize)],
        shards: usize,
    ) -> (BTreeMap<String, u64>, Vec<u64>) {
        for (name, (nanos, count)) in self.board.lock().expect("load board poisoned").iter() {
            // Only graphs the router is still accounting (dropped names
            // leave `loads` at the Drop): a straggler measurement must
            // not resurrect a dead graph's mean.
            if *count > 0 && self.loads.contains_key(name) {
                self.graph_mean.insert(name.clone(), (nanos / count).max(1));
            }
        }
        let mut tloads = BTreeMap::new();
        let mut shard_time = vec![0u64; shards];
        for (name, &count) in &self.counts {
            if count == 0 {
                continue;
            }
            let mean = self.graph_mean.get(name).copied().unwrap_or_else(|| {
                // Unmeasured graph: the static guess, scaled to
                // nanosecond-ish units (one cost-weight unit ≈ 1µs).
                self.loads.get(name).copied().unwrap_or(count) * 1_000 / count
            });
            let load = count * mean.max(1);
            let Some(&home) = self.table.get(name) else { continue };
            let shard = moves
                .iter()
                .find_map(|(moved, _, to)| (moved == name).then_some(*to))
                .unwrap_or(home);
            shard_time[shard] += load;
            tloads.insert(name.clone(), load);
        }
        (tloads, shard_time)
    }

    /// Enqueue one migration: the barrier pair (out marker on the old
    /// shard, in marker on the new) plus the table flip, all at this
    /// single point in the submission stream — which is what makes the
    /// move invisible to per-graph ordering and to broadcasts.
    fn migrate(&mut self, name: String, from: usize, to: usize) {
        debug_assert_ne!(from, to, "migration must change shards");
        let (tx, rx) = unbounded();
        self.push(from, WorkItem::MigrateOut { name: name.clone(), to: tx });
        self.push(to, WorkItem::MigrateIn { name: name.clone(), from: rx });
        self.table.insert(name, to);
        self.generation += 1;
        self.migrations += 1;
    }
}

/// Greedily move the heaviest helpful satellite graphs off the hottest
/// shard onto the coldest while that strictly lowers the pair's max —
/// the currency (cost weights or measured compute pressure) is whatever
/// `loads`/`shard_load` were built in. Spends from the shared `moves`
/// vector up to `budget` (≤ [`PlacementOptions::max_moves`]); graphs
/// already moved this round (e.g. by rotation) are skipped, and the
/// hot/cold membership check uses the pre-round `table`.
fn shed_satellites(
    placement: &PlacementOptions,
    table: &BTreeMap<String, usize>,
    loads: &BTreeMap<String, u64>,
    shard_load: &mut [u64],
    moves: &mut Vec<(String, usize, usize)>,
    budget: usize,
) {
    let shards = shard_load.len();
    let total: u64 = shard_load.iter().sum();
    while moves.len() < budget.min(placement.max_moves) {
        let (mut hot, mut cold) = (0usize, 0usize);
        for s in 1..shards {
            if shard_load[s] > shard_load[hot] {
                hot = s;
            }
            if shard_load[s] < shard_load[cold] {
                cold = s;
            }
        }
        let mean = total as f64 / shards as f64;
        if hot == cold || shard_load[hot] as f64 <= placement.imbalance.max(1.0) * mean {
            break;
        }
        let mut best: Option<(String, u64)> = None;
        for (name, &load) in loads {
            if load == 0
                || table.get(name) != Some(&hot)
                || moves.iter().any(|(moved, _, _)| moved == name)
            {
                continue;
            }
            // Only moves that strictly lower the pair's max load.
            if shard_load[cold] + load < shard_load[hot]
                && best.as_ref().is_none_or(|(_, b)| load > *b)
            {
                best = Some((name.clone(), load));
            }
        }
        let Some((name, load)) = best else { break };
        shard_load[hot] -= load;
        shard_load[cold] += load;
        moves.push((name, hot, cold));
    }
}

/// The graph with the largest window load (first in name order on ties).
fn hottest_graph(loads: &BTreeMap<String, u64>) -> Option<(String, u64)> {
    let mut best: Option<(&String, u64)> = None;
    for (name, &load) in loads {
        if load > 0 && best.is_none_or(|(_, b)| load > b) {
            best = Some((name, load));
        }
    }
    best.map(|(name, load)| (name.clone(), load))
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // `shutdown` joined these already; a plain drop also closes and
        // joins so no worker outlives the engine.
        self.close_queues();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An outstanding steal: the thief holds the stolen jobs and waits (by
/// polling, never blocking its own queue) for the victim to lend the
/// graph's entry.
struct PendingSteal {
    name: String,
    loan: Receiver<LoanPkg>,
    ret: Sender<ReturnPkg>,
    jobs: Vec<Job>,
}

/// One shard worker: drains its queue FIFO into a private engine, lends
/// entries to thieves, executes migrations, and — when idle — steals tail
/// runs from overloaded siblings. Reports final stats to `shutdown`.
struct Worker {
    id: usize,
    queues: Arc<Vec<ShardQueue>>,
    engine: Engine,
    /// Post measured per-graph serve times to the board
    /// (`rebalance && latency_proxy`).
    observe: bool,
    board: Arc<LoadBoard>,
    /// Shard-local telemetry: queue-wait and serve-time histograms (one
    /// observation per named request served here), merged across shards
    /// at a `stats metrics` barrier. No locks — each worker owns its own.
    registry: Registry,
    /// Worst-N spans served by this shard, merged at `stats slowlog`.
    slowlog: SlowLog,
    opts: ShardOptions,
    /// Graphs currently lent to thieves, with the channel each loan comes
    /// home on. Any job touching one of these (and every broadcast) is a
    /// reclaim barrier.
    lent: BTreeMap<String, Receiver<ReturnPkg>>,
    /// At most one outstanding steal per worker; polled at every blocking
    /// point so loans always resolve (no wait cycle can include a thief).
    pending: Option<PendingSteal>,
}

impl Worker {
    fn run(mut self) -> EngineStats {
        while let Some(item) = self.next_item() {
            self.process(item);
        }
        // Closed and drained: every loan must come home (merging its
        // stats delta) before this shard's numbers are final.
        self.reclaim_all();
        self.engine.stats()
    }

    /// Next work item, or `None` at graceful exit (queue closed, drained,
    /// and no steal outstanding). While idle: resolve an arrived loan,
    /// else try to steal, else park.
    fn next_item(&mut self) -> Option<WorkItem> {
        loop {
            {
                let mut st = self.queues[self.id].state.lock().expect("queue lock poisoned");
                if let Some(item) = st.items.pop_front() {
                    return Some(item);
                }
                if st.closed && self.pending.is_none() {
                    return None;
                }
            }
            if self.poll_pending() {
                continue;
            }
            if self.opts.placement.steal && self.pending.is_none() && self.try_steal() {
                continue;
            }
            let st = self.queues[self.id].state.lock().expect("queue lock poisoned");
            if !st.items.is_empty() {
                continue;
            }
            if st.closed {
                // Closed with a loan still outstanding: spin gently until
                // the victim lends (handoffs drain before workers exit).
                drop(st);
                std::thread::sleep(POLL);
                continue;
            }
            if self.opts.placement.steal || self.pending.is_some() {
                // Bounded park: steal opportunities and pending loans need
                // periodic re-polling even while this queue sleeps.
                drop(self.queues[self.id].cv.wait_timeout(st, PARK).expect("queue lock poisoned"));
            } else {
                drop(self.queues[self.id].cv.wait(st).expect("queue lock poisoned"));
            }
        }
    }

    fn process(&mut self, item: WorkItem) {
        match item {
            WorkItem::Exec(job) => self.exec(job),
            WorkItem::MigrateOut { name, to } => {
                if self.lent.contains_key(&name) {
                    self.reclaim(&name);
                }
                let export = self.engine.export_graph(&name);
                // A cold (spilled) graph migrates without touching disk:
                // only the ownership of the durable copy moves.
                let spilled = export.is_none() && self.engine.is_spilled(&name);
                if spilled {
                    self.engine.forget_spilled(&name);
                }
                // A failed send means the target worker died; its panic
                // surfaces at join.
                let _ = to.send(MigrationPkg { export, spilled });
            }
            WorkItem::MigrateIn { name, from } => {
                let pkg = self.wait_on(&from, "migration");
                if let Some(export) = pkg.export {
                    let installed = self.engine.import_graph(export).is_ok();
                    debug_assert!(installed, "graph '{name}' collided at migrate-in");
                } else if pkg.spilled {
                    self.engine.adopt_stored(&name);
                }
            }
            WorkItem::StealHandoff { name, loan, ret } => {
                if self.lent.contains_key(&name) {
                    // A second thief wants a graph still out with the
                    // first: serialize the loans (earlier run first).
                    self.reclaim(&name);
                }
                // A spilled graph can be stolen from: fault it in first
                // (the loaned entry must be real memory).
                self.engine.ensure_resident(&name);
                let entry = self.engine.take_entry(&name);
                let _ = loan.send(LoanPkg { entry });
                self.lent.insert(name, ret);
            }
        }
    }

    fn exec(&mut self, job: Job) {
        // A job touching a lent-out graph — or any broadcast — is a
        // reclaim barrier: the loan (its responses are already promised to
        // the thief's tickets, plus its stats delta) must come home first.
        // This is what keeps merged broadcast answers exactly equal to the
        // unsharded engine's.
        match &job.request {
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                self.reclaim_all()
            }
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => {
                if self.lent.contains_key(name.as_str()) {
                    let name = name.clone();
                    self.reclaim(&name);
                }
            }
        }
        // Introspection broadcasts answer from the worker itself, not the
        // engine: the snapshot covers the shard-local span histograms plus
        // the engine's counter families, and (so a store shared by every
        // shard is counted once, not `shards` times) worker 0 alone folds
        // in the `store_` families. They record no spans of their own,
        // which keeps each span histogram's total count equal to the
        // named ops served.
        match &job.request {
            Request::Metrics => {
                let _ = job
                    .reply
                    .send(Response::Metrics { snapshot: self.metrics_snapshot().to_wire() });
                return;
            }
            Request::Slowlog => {
                let _ = job.reply.send(Response::Slowlog { snapshot: self.slowlog.to_wire() });
                return;
            }
            _ => {}
        }
        if self.opts.batch {
            if let Request::Query { name, .. } = &job.request {
                let name = name.clone();
                self.exec_batched(name, job);
                return;
            }
        }
        // Broadcasts are cheap and not charged by the router's load
        // accounting, so only named requests feed the measurements — and
        // only named requests get lifecycle spans.
        let target = match &job.request {
            Request::Create { name, .. }
            | Request::Drop { name }
            | Request::Mutate { name, .. }
            | Request::Query { name, .. } => Some(name.clone()),
            Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => None,
        };
        let Job { request, reply, enqueue } = job;
        let kind = request.kind();
        let start = std::time::Instant::now();
        let dequeue = self.opts.clock.now();
        let response = self.engine.execute(request);
        let end = self.opts.clock.now();
        let nanos = start.elapsed().as_nanos() as u64;
        self.engine.stats_mut().serve_nanos += nanos;
        if let Some(name) = &target {
            if self.observe {
                self.post_serve_time(name, 1, nanos);
            }
        }
        if let Some(name) = target {
            let delta = self.engine.obs_mut().take_delta();
            let mut flags = 0;
            if delta.fault_ins > 0 {
                flags |= span_flags::FAULT_IN;
            }
            if delta.spills > 0 {
                flags |= span_flags::SPILL;
            }
            self.observe_span(Span {
                kind: kind.to_string(),
                target: name,
                shard: self.id as u64,
                enqueue,
                dequeue,
                end,
                index_nanos: delta.index_nanos,
                store_nanos: delta.store_nanos,
                flags,
            });
        }
        // A dropped ticket is fine — compute anyway (mutations must still
        // apply), discard the undeliverable answer.
        let _ = reply.send(response);
    }

    /// One span into the shard-local telemetry: queue-wait and serve-time
    /// histogram observations plus a slow-log admission attempt.
    fn observe_span(&mut self, span: Span) {
        self.registry.observe("request_queue_wait_nanos", span.queue_nanos());
        self.registry.observe("request_serve_nanos", span.serve_nanos());
        self.slowlog.record(span);
    }

    /// This shard's `stats metrics` partial: span histograms merged with
    /// the engine's counter families (and, on worker 0 only, the shared
    /// store's `store_` families).
    fn metrics_snapshot(&self) -> Registry {
        let mut reg = self.registry.clone();
        reg.merge(&self.engine.metrics_registry());
        if self.id == 0 {
            reg.merge(&self.engine.store_metrics());
        }
        reg
    }

    /// Post `nanos` of measured serve time covering `requests` requests
    /// for graph `name` to the feedback board (multi-request postings
    /// come from batches and stolen runs, which are timed as a whole).
    fn post_serve_time(&self, name: &str, requests: u64, nanos: u64) {
        if requests == 0 {
            return;
        }
        let mut board = self.board.lock().expect("load board poisoned");
        let (graph_nanos, graph_count) = board.entry(name.to_string()).or_insert((0, 0));
        *graph_nanos += nanos;
        *graph_count += requests;
    }

    /// Batch mode: extend `job` with the maximal run of consecutive
    /// queries at the queue front (up to `max_batch` members in total),
    /// coalescing **across graph boundaries**: the run splits into
    /// per-graph groups — a new group opens whenever the graph name
    /// changes — and each group executes through one
    /// [`Engine::execute_read_batch`] call, groups in queue order and
    /// replies in queue order. Any non-query item is the barrier that
    /// ends the run, as is a query against a graph currently lent to a
    /// thief (that job must take the normal [`Worker::exec`] path so its
    /// reclaim barrier fires). Queue order is preserved exactly, so
    /// batching never changes a response; reads against *different*
    /// graphs touch disjoint entries and caches, so crossing the graph
    /// boundary is as invisible as staying inside it. A run spanning two
    /// or more graphs counts one `cross_batches`.
    fn exec_batched(&mut self, name: String, job: Job) {
        let Job { request, reply, enqueue } = job;
        let Request::Query { query, .. } = request else {
            unreachable!("exec_batched is only called for queries");
        };
        struct Group {
            name: String,
            queries: Vec<crate::request::Query>,
            replies: Vec<Sender<Response>>,
            enqueues: Vec<u64>,
        }
        let mut groups = vec![Group {
            name,
            queries: vec![query],
            replies: vec![reply],
            enqueues: vec![enqueue],
        }];
        let mut total = 1;
        {
            let mut st = self.queues[self.id].state.lock().expect("queue lock poisoned");
            while total < self.opts.max_batch {
                let joinable = matches!(
                    st.items.front(),
                    Some(WorkItem::Exec(Job { request: Request::Query { name: next, .. }, .. }))
                        if !self.lent.contains_key(next.as_str())
                );
                if !joinable {
                    break;
                }
                let Some(WorkItem::Exec(Job {
                    request: Request::Query { name: next, query },
                    reply,
                    enqueue,
                })) = st.items.pop_front()
                else {
                    unreachable!("front matched an unlent query");
                };
                if groups.last().expect("run is seeded").name != next {
                    groups.push(Group {
                        name: next,
                        queries: Vec::new(),
                        replies: Vec::new(),
                        enqueues: Vec::new(),
                    });
                }
                let group = groups.last_mut().expect("run is seeded");
                group.queries.push(query);
                group.replies.push(reply);
                group.enqueues.push(enqueue);
                total += 1;
            }
        }
        if groups.len() > 1 {
            self.engine.stats_mut().cross_batches += 1;
        }
        for Group { name, queries, replies, enqueues } in groups {
            let batch_len = queries.len() as u64;
            let start = std::time::Instant::now();
            let dequeue = self.opts.clock.now();
            let responses = self.engine.execute_read_batch(&name, queries);
            let end = self.opts.clock.now();
            let nanos = start.elapsed().as_nanos() as u64;
            self.engine.stats_mut().serve_nanos += nanos;
            if self.observe {
                self.post_serve_time(&name, batch_len, nanos);
            }
            // One span per query so the histogram count stays equal to ops
            // served: each member's serve share is its group's clock window
            // split evenly, and the whole group's index/store attribution
            // rides on its first member's span.
            let delta = self.engine.obs_mut().take_delta();
            let share = end.saturating_sub(dequeue) / batch_len;
            let mut flags = if batch_len > 1 { span_flags::BATCHED } else { 0 };
            if delta.fault_ins > 0 {
                flags |= span_flags::FAULT_IN;
            }
            if delta.spills > 0 {
                flags |= span_flags::SPILL;
            }
            for (i, &enq) in enqueues.iter().enumerate() {
                self.observe_span(Span {
                    kind: "query".to_string(),
                    target: name.clone(),
                    shard: self.id as u64,
                    enqueue: enq,
                    dequeue,
                    end: dequeue + share,
                    index_nanos: if i == 0 { delta.index_nanos } else { 0 },
                    store_nanos: if i == 0 { delta.store_nanos } else { 0 },
                    flags,
                });
            }
            for (reply, response) in replies.into_iter().zip(responses) {
                let _ = reply.send(response);
            }
        }
    }

    /// Wait for a package while continuing to service an outstanding steal
    /// loan — the polling that guarantees no blocking cycle can form
    /// between victims and thieves.
    fn wait_on<T>(&mut self, rx: &Receiver<T>, what: &str) -> T {
        loop {
            match rx.try_recv() {
                Ok(pkg) => return pkg,
                Err(TryRecvError::Disconnected) => {
                    panic!("shard worker {}: {what} channel lost (peer worker died)", self.id)
                }
                Err(TryRecvError::Empty) => {}
            }
            if !self.poll_pending() {
                std::thread::sleep(POLL);
            }
        }
    }

    /// Take a lent graph back: block (politely) for the thief's return,
    /// reinstall the entry, and merge the stolen run's counters into this
    /// shard's stats — stolen work is accounted where the graph lives.
    fn reclaim(&mut self, name: &str) {
        let Some(rx) = self.lent.remove(name) else { return };
        let pkg = self.wait_on(&rx, "steal return");
        if let Some(entry) = pkg.entry {
            self.engine.put_entry(name.to_string(), entry);
        }
        self.engine.stats_mut().merge(&pkg.delta);
    }

    fn reclaim_all(&mut self) {
        let names: Vec<String> = self.lent.keys().cloned().collect();
        for name in names {
            self.reclaim(&name);
        }
    }

    /// If the pending loan has arrived, serve the stolen run against the
    /// borrowed entry, reply to its tickets, and send the entry (plus the
    /// run's stats delta) home. Returns whether a loan was serviced.
    fn poll_pending(&mut self) -> bool {
        let Some(pending) = &self.pending else { return false };
        let pkg = match pending.loan.try_recv() {
            Ok(pkg) => pkg,
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => {
                panic!("shard worker {}: steal loan channel lost (victim died)", self.id)
            }
        };
        let PendingSteal { name, ret, jobs, .. } =
            self.pending.take().expect("pending checked above");
        match pkg.entry {
            Some(mut entry) => {
                let stolen = jobs.len() as u64;
                let mut delta = EngineStats::default();
                // Stolen runs serve outside any engine, so attribution
                // (index builds, store appends) collects in a thief-local
                // scratch and the spans land in the thief's telemetry —
                // busy time belongs where it burned, same as serve_nanos.
                let mut obs = ObsScratch::with_clock(Arc::clone(&self.opts.clock));
                let enqueues: Vec<u64> = jobs.iter().map(|j| j.enqueue).collect();
                let start = std::time::Instant::now();
                let dequeue = self.opts.clock.now();
                for job in jobs {
                    let Request::Query { query, .. } = job.request else {
                        unreachable!("steals only take query runs");
                    };
                    let response =
                        serve_query(&mut delta, &self.opts.cfg, &mut entry, query, &mut obs);
                    // The thief serves against the borrowed entry, so the
                    // thief also logs: during a loan nobody else appends
                    // to this graph's WAL, and the append must precede
                    // the response's release (log-then-ack).
                    if let Some(store) = &self.opts.store {
                        let request = Request::Query { name: name.clone(), query };
                        let t0 = obs.now();
                        store.log(&name, &request, &response);
                        obs.charge_store(t0);
                    }
                    let _ = job.reply.send(response);
                }
                let end = self.opts.clock.now();
                // Stolen work still measures: the board is global, not
                // per-shard, so it doesn't matter where the run executed.
                let nanos = start.elapsed().as_nanos() as u64;
                if self.observe {
                    self.post_serve_time(&name, stolen, nanos);
                }
                let obs_delta = obs.take_delta();
                let share = end.saturating_sub(dequeue) / stolen;
                for (i, &enq) in enqueues.iter().enumerate() {
                    self.observe_span(Span {
                        kind: "query".to_string(),
                        target: name.clone(),
                        shard: self.id as u64,
                        enqueue: enq,
                        dequeue,
                        end: dequeue + share,
                        index_nanos: if i == 0 { obs_delta.index_nanos } else { 0 },
                        store_nanos: if i == 0 { obs_delta.store_nanos } else { 0 },
                        flags: span_flags::STOLEN,
                    });
                }
                let stats = self.engine.stats_mut();
                // The delta's logical counters merge on the victim, but
                // busy time belongs to the worker that burned it: here.
                stats.serve_nanos += nanos;
                stats.steal_batches += 1;
                stats.steal_reads += stolen;
                let _ = ret.send(ReturnPkg { entry: Some(entry), delta });
            }
            None => {
                // The graph was gone by handoff time: answer exactly as
                // the engine would for an unknown name (and, like the
                // engine, bump no counters).
                for job in jobs {
                    let message = format!("no graph named '{name}'");
                    let _ = job.reply.send(Response::Error { message });
                }
                let _ = ret.send(ReturnPkg { entry: None, delta: EngineStats::default() });
            }
        }
        true
    }

    /// Attempt one steal: from the longest sibling queue, take the maximal
    /// tail run of same-graph queries — but only when the run is that
    /// graph's entire presence in the queue (per-graph order cannot be
    /// jumped) and no broadcast is pending there (a stolen run's counters
    /// merge at the victim's barriers; lifting reads over a queued `Stats`
    /// would merge them too early). Returns whether a steal is now
    /// pending.
    fn try_steal(&mut self) -> bool {
        debug_assert!(self.pending.is_none(), "one outstanding steal at a time");
        let min = self.opts.placement.steal_min.max(1);
        let mut victims: Vec<(usize, usize)> = Vec::new(); // (queue len, shard)
        for (shard, q) in self.queues.iter().enumerate() {
            if shard == self.id {
                continue;
            }
            let st = q.state.lock().expect("queue lock poisoned");
            if !st.closed && st.items.len() >= min {
                victims.push((st.items.len(), shard));
            }
        }
        victims.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        victims.into_iter().any(|(_, shard)| self.steal_from(shard))
    }

    fn steal_from(&mut self, victim: usize) -> bool {
        let q = &self.queues[victim];
        let mut st = q.state.lock().expect("queue lock poisoned");
        if st.closed {
            return false;
        }
        // The maximal same-graph query run at the tail.
        let mut run_len = 0usize;
        let mut graph: Option<&str> = None;
        for item in st.items.iter().rev() {
            match item {
                WorkItem::Exec(Job { request: Request::Query { name, .. }, .. }) => match graph {
                    None => {
                        graph = Some(name);
                        run_len = 1;
                    }
                    Some(g) if g == name => run_len += 1,
                    Some(_) => break,
                },
                _ => break,
            }
        }
        let Some(graph) = graph else { return false };
        if run_len < self.opts.placement.steal_min.max(1) {
            return false;
        }
        let graph = graph.to_string();
        // Disqualifiers in the rest of the queue: any other reference to
        // the graph (order safety), any broadcast (stats-merge safety).
        let rest = st.items.len() - run_len;
        for item in st.items.iter().take(rest) {
            match item {
                WorkItem::Exec(Job { request, .. }) => match request {
                    Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => {
                        return false
                    }
                    Request::Create { name, .. }
                    | Request::Drop { name }
                    | Request::Mutate { name, .. }
                    | Request::Query { name, .. } => {
                        if *name == graph {
                            return false;
                        }
                    }
                },
                WorkItem::MigrateOut { name, .. }
                | WorkItem::MigrateIn { name, .. }
                | WorkItem::StealHandoff { name, .. } => {
                    if *name == graph {
                        return false;
                    }
                }
            }
        }
        // Take the run and leave a handoff at the queue *front*: the
        // victim lends the entry as its very next step (after whatever it
        // is currently executing — possibly the graph's last earlier job —
        // completes). Front insertion is order-safe because the queue
        // holds no other job for this graph.
        let jobs: Vec<Job> = st
            .items
            .drain(rest..)
            .map(|item| match item {
                WorkItem::Exec(job) => job,
                _ => unreachable!("the tail run holds only exec items"),
            })
            .collect();
        let (loan_tx, loan_rx) = unbounded();
        let (ret_tx, ret_rx) = unbounded();
        st.items.push_front(WorkItem::StealHandoff {
            name: graph.clone(),
            loan: loan_tx,
            ret: ret_rx,
        });
        drop(st);
        q.cv.notify_all();
        self.pending = Some(PendingSteal { name: graph, loan: loan_rx, ret: ret_tx, jobs });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GraphSpec, Mutation, Query};

    fn create(engine: &mut ShardedEngine, name: &str, n: usize) {
        let r = engine.execute(Request::Create { name: name.into(), spec: GraphSpec::Cycle { n } });
        assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
    }

    #[test]
    fn wait_timeout_parks_then_delivers_like_try_wait() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 12);
        // Single-shard ticket: park-polling must converge on the answer.
        let mut ticket =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        let response = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(1)) {
                break r;
            }
        };
        assert!(matches!(response, Response::CutValue { weight: 2, .. }), "got {response}");
        // Broadcast (merge) ticket: partials buffer across timeouts.
        let mut ticket = e.submit(Request::ListGraphs);
        let response = loop {
            if let Some(r) = ticket.wait_timeout(Duration::from_millis(1)) {
                break r;
            }
        };
        assert!(
            matches!(&response, Response::Graphs { names } if names == &vec!["ring".to_string()]),
            "got {response}"
        );
        e.shutdown();
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let e = ShardedEngine::new(4);
        for name in ["g000", "g001", "alpha", "β-graph", ""] {
            let s = e.shard_of(name);
            assert!(s < 4);
            assert_eq!(s, e.shard_of(name), "routing must be deterministic");
        }
    }

    #[test]
    fn full_lifecycle_stays_on_one_shard() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 10);
        let shard = e.shard_of("ring");
        let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        assert!(matches!(r, Response::CutValue { weight: 2, .. }), "got {r}");
        let r = e.execute(Request::Mutate {
            name: "ring".into(),
            op: Mutation::InsertEdge { u: 0, v: 5, w: 4 },
        });
        assert!(matches!(r, Response::Mutated { epoch: 1, .. }), "got {r}");
        let r = e.execute(Request::Drop { name: "ring".into() });
        assert!(matches!(r, Response::Dropped { .. }), "got {r}");
        // Everything above targeted one graph, so exactly one shard worked.
        let busy: Vec<usize> = (0..3).filter(|&s| e.routed()[s] > 0).collect();
        assert_eq!(busy, vec![shard]);
    }

    #[test]
    fn list_and_stats_merge_across_shards() {
        let mut e = ShardedEngine::new(4);
        for name in ["delta", "alpha", "charlie", "bravo"] {
            create(&mut e, name, 6);
        }
        assert_eq!(
            e.execute(Request::ListGraphs),
            Response::Graphs {
                names: vec!["alpha".into(), "bravo".into(), "charlie".into(), "delta".into()]
            }
        );
        for name in ["alpha", "bravo"] {
            e.execute(Request::Query { name: name.into(), query: Query::Connectivity });
            e.execute(Request::Query { name: name.into(), query: Query::Connectivity });
        }
        let r = e.execute(Request::Stats);
        assert_eq!(
            r,
            Response::EngineStats {
                graphs: 4,
                queries: 4,
                cache_hits: 2,
                cache_misses: 2,
                mutations: 0
            }
        );
    }

    #[test]
    fn unknown_graph_errors_match_the_unsharded_engine() {
        let mut sharded = ShardedEngine::new(4);
        let mut plain = Engine::new();
        let requests = [
            Request::Drop { name: "ghost".into() },
            Request::Mutate { name: "ghost".into(), op: Mutation::DeleteEdge { u: 0, v: 1 } },
            Request::Query { name: "ghost".into(), query: Query::ExactMinCut },
        ];
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }
    }

    #[test]
    fn shutdown_drains_in_flight_tickets() {
        let mut e = ShardedEngine::new(4);
        create(&mut e, "work", 32);
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| {
                e.submit(Request::Query {
                    name: "work".into(),
                    query: Query::ApproxMinCut { seed: i },
                })
            })
            .collect();
        // Shut down with (potentially) all 64 still queued.
        let per_shard = e.shutdown();
        for t in tickets {
            assert!(matches!(t.wait(), Response::CutValue { .. }));
        }
        let total: u64 = per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(total, 64, "every in-flight query must have been served");
    }

    #[test]
    fn dropped_tickets_still_apply_mutations() {
        let mut e = ShardedEngine::new(2);
        create(&mut e, "g", 8);
        for _ in 0..3 {
            // Fire-and-forget: drop the ticket immediately.
            let _ = e.submit(Request::Mutate {
                name: "g".into(),
                op: Mutation::InsertEdge { u: 0, v: 4, w: 1 },
            });
        }
        let r = e.execute(Request::Query { name: "g".into(), query: Query::Connectivity });
        assert!(matches!(r, Response::ConnectivityValue { .. }));
        let mutations: u64 = e.shutdown().iter().map(|s| s.mutations).sum();
        assert_eq!(mutations, 3, "fire-and-forget mutations must still land");
    }

    #[test]
    fn batched_workers_answer_identically() {
        // Pipeline a read-heavy stream with interleaved mutations through
        // a batching sharded engine; responses must match the plain
        // engine's element-wise (mutation = batch barrier).
        let mut requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 10 } },
            Request::Create { name: "b".into(), spec: GraphSpec::Cycle { n: 12 } },
        ];
        for round in 0..4u64 {
            for i in 0..8u64 {
                requests.push(Request::Query {
                    name: if i % 3 == 0 { "b" } else { "a" }.into(),
                    query: Query::ApproxMinCut { seed: i % 2 },
                });
                requests.push(Request::Query { name: "a".into(), query: Query::Connectivity });
            }
            requests.push(Request::Mutate {
                name: "a".into(),
                op: Mutation::InsertEdge { u: 0, v: (round + 2) as u32, w: 1 + round },
            });
        }
        requests.push(Request::Stats);

        let mut plain = Engine::new();
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();

        for shards in [1, 3] {
            let mut batched = ShardedEngine::with_options(
                shards,
                ShardOptions { batch: true, ..ShardOptions::default() },
            );
            let tickets: Vec<Ticket> = requests.iter().map(|r| batched.submit(r.clone())).collect();
            let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
            assert_eq!(got, expected, "batched responses diverged at shards={shards}");

            let mut total = EngineStats::default();
            for s in batched.shutdown() {
                total.merge(&s);
            }
            assert_eq!(total.queries, plain.stats().queries);
            assert_eq!(total.cache_hits, plain.stats().cache_hits);
            assert_eq!(total.mutations, plain.stats().mutations);
        }
    }

    #[test]
    fn batched_worker_forms_multi_read_batches() {
        // One shard, submissions queued while the worker grinds: runs of
        // same-graph reads must coalesce (batches < batched reads).
        let mut e =
            ShardedEngine::with_options(1, ShardOptions { batch: true, ..ShardOptions::default() });
        create(&mut e, "hot", 48);
        // An expensive head occupies the worker so the read burst queues
        // up behind it and gets drained as (large) batches.
        let head = e.submit(Request::Query { name: "hot".into(), query: Query::KCut { k: 4 } });
        let tickets: Vec<Ticket> = (0..200)
            .map(|i| {
                e.submit(Request::Query {
                    name: "hot".into(),
                    query: Query::StCutWeight { s: i % 48, t: (i + 7) % 48 },
                })
            })
            .collect();
        assert!(!matches!(head.wait(), Response::Error { .. }));
        for t in tickets {
            assert!(!matches!(t.wait(), Response::Error { .. }));
        }
        let stats = &e.shutdown()[0];
        assert_eq!(stats.batched_reads, 201, "every read went through the batch path");
        assert!(
            stats.batches < 201,
            "queued reads must coalesce into multi-read batches (got {} batches)",
            stats.batches
        );
        // Batching shares the snapshot, so the whole burst costs one build.
        assert_eq!(stats.index.csr_builds, 1);
    }

    #[test]
    fn batched_worker_coalesces_across_graphs() {
        // One shard, two graphs, reads strictly alternating: under
        // per-graph-only batching every run would have length 1; the
        // cross-graph coalescer must fold the queued burst into runs
        // spanning both graphs — while answering byte-identically to the
        // plain engine.
        let mut requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 48 } },
            Request::Create { name: "b".into(), spec: GraphSpec::Cycle { n: 54 } },
            // An expensive head occupies the worker so the alternating
            // burst queues up behind it.
            Request::Query { name: "a".into(), query: Query::KCut { k: 4 } },
        ];
        for i in 0..120u32 {
            requests.push(Request::Query {
                // Runs of four per graph, alternating graphs: a graph
                // switch every fourth read.
                name: if (i / 4) % 2 == 0 { "a" } else { "b" }.into(),
                query: Query::StCutWeight { s: i % 48, t: (i + 5) % 48 },
            });
        }
        let mut plain = Engine::new();
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();

        let mut e =
            ShardedEngine::with_options(1, ShardOptions { batch: true, ..ShardOptions::default() });
        let tickets: Vec<Ticket> = requests.iter().map(|r| e.submit(r.clone())).collect();
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(got, expected, "cross-graph batching changed a response");

        let stats = &e.shutdown()[0];
        assert_eq!(stats.batched_reads, 121, "every read went through the batch path");
        assert!(
            stats.cross_batches >= 1,
            "queued alternating-graph burst must form at least one cross-graph run"
        );
    }

    #[test]
    fn cross_graph_runs_stop_at_mutation_barriers() {
        // Mutations interleaved in the alternating stream are still
        // barriers: the stream must answer identically to the plain
        // engine at 1 and 4 shards, and the mutated graph's epoch must
        // observe every insert in submission order.
        let mut requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 12 } },
            Request::Create { name: "b".into(), spec: GraphSpec::Cycle { n: 16 } },
        ];
        for round in 0..5u64 {
            for i in 0..6u32 {
                requests.push(Request::Query {
                    name: if i % 2 == 0 { "a" } else { "b" }.into(),
                    query: Query::Connectivity,
                });
            }
            requests.push(Request::Mutate {
                name: if round % 2 == 0 { "a" } else { "b" }.into(),
                op: Mutation::InsertEdge { u: 0, v: 3 + round as u32, w: 1 + round },
            });
            requests.push(Request::Query { name: "a".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "b".into(), query: Query::ExactMinCut });
        }
        let mut plain = Engine::new();
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();
        for shards in [1, 4] {
            let mut e = ShardedEngine::with_options(
                shards,
                ShardOptions { batch: true, ..ShardOptions::default() },
            );
            let tickets: Vec<Ticket> = requests.iter().map(|r| e.submit(r.clone())).collect();
            let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
            assert_eq!(got, expected, "diverged at shards={shards}");
            let mut total = EngineStats::default();
            for s in e.shutdown() {
                total.merge(&s);
            }
            assert_eq!(total.mutations, plain.stats().mutations);
            assert_eq!(total.queries, plain.stats().queries);
        }
    }

    #[test]
    fn cut_gate_counters_merge_across_shards() {
        // Two graphs, wherever the router places them: each serves one
        // real cut compute and one certified carry (parallel-edge insert
        // freezes the partition). The per-shard counters must fold into
        // the fleet view through the same exhaustive merge the broadcast
        // Stats path uses.
        let mut e = ShardedEngine::new(2);
        for name in ["left", "right"] {
            let r = e.execute(Request::Create {
                name: name.into(),
                spec: GraphSpec::Edges { n: 4, edges: vec![(0, 1, 1), (2, 3, 1)] },
            });
            assert!(matches!(r, Response::Created { .. }), "create failed: {r}");
            let first = e.execute(Request::Query { name: name.into(), query: Query::ExactMinCut });
            assert!(matches!(first, Response::CutValue { weight: 0, .. }), "got {first}");
            e.execute(Request::Mutate {
                name: name.into(),
                op: Mutation::InsertEdge { u: 0, v: 1, w: 7 },
            });
            let again = e.execute(Request::Query { name: name.into(), query: Query::ExactMinCut });
            assert_eq!(format!("{again}"), format!("{first}"), "carried answer for {name}");
        }
        let mut total = EngineStats::default();
        for s in e.shutdown() {
            total.merge(&s);
        }
        assert_eq!(total.cut_recomputes, 2, "one real compute per graph");
        assert_eq!(total.cut_certified_skips, 2, "one carry per graph");
        assert_eq!(total.index.dsu_rebuilds, 0, "dynamic path: no rebuilds anywhere");
    }

    #[test]
    fn single_shard_matches_engine_exactly() {
        let mut sharded = ShardedEngine::new(1);
        let mut plain = Engine::new();
        let requests = vec![
            Request::Create { name: "a".into(), spec: GraphSpec::Cycle { n: 8 } },
            Request::Create { name: "b".into(), spec: GraphSpec::RandomTree { n: 9, seed: 4 } },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Mutate { name: "a".into(), op: Mutation::InsertEdge { u: 1, v: 5, w: 2 } },
            Request::Query { name: "a".into(), query: Query::ExactMinCut },
            Request::Query { name: "b".into(), query: Query::SingletonCut { seed: 3 } },
            Request::ListGraphs,
            Request::Stats,
            Request::Drop { name: "b".into() },
            Request::ListGraphs,
        ];
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }
    }

    #[test]
    fn rebalancing_rotates_a_pinned_hot_graph() {
        // One graph takes all the traffic: static placement pins it (and
        // 100% of the routed share) to one shard forever. With rebalancing
        // on, the router must rotate it so both shards carry real share.
        let placement =
            PlacementOptions { rebalance: true, window: 8, ..PlacementOptions::default() };
        let mut e =
            ShardedEngine::with_options(2, ShardOptions { placement, ..ShardOptions::default() });
        create(&mut e, "hot", 12);
        for _ in 0..200 {
            let r = e.execute(Request::Query { name: "hot".into(), query: Query::Connectivity });
            assert!(matches!(r, Response::ConnectivityValue { components: 1, .. }));
        }
        let report = e.placement_report();
        assert!(report.migrations >= 10, "got only {} migrations", report.migrations);
        assert_eq!(report.generation, report.migrations);
        let routed = e.routed().to_vec();
        let min = routed.iter().min().copied().unwrap_or(0);
        assert!(
            min >= 40,
            "rotation must spread the hot graph's routed share (routed: {routed:?})"
        );
        let per_shard = e.shutdown();
        let ins: u64 = per_shard.iter().map(|s| s.migrations_in).sum();
        let outs: u64 = per_shard.iter().map(|s| s.migrations_out).sum();
        assert_eq!(ins, report.migrations);
        assert_eq!(outs, report.migrations);
    }

    #[test]
    fn rebalancing_migrations_preserve_responses_and_counters() {
        // A dense migration schedule (window 3) interleaved with
        // mutations, drops, re-creates, and broadcasts: every response
        // must equal the unsharded engine's, and the per-shard migration
        // counters must balance against the router's count.
        let placement = PlacementOptions {
            rebalance: true,
            window: 3,
            max_moves: 4,
            ..PlacementOptions::default()
        };
        let mut sharded =
            ShardedEngine::with_options(3, ShardOptions { placement, ..ShardOptions::default() });
        let mut plain = Engine::new();

        let mut requests: Vec<Request> = Vec::new();
        for i in 0..4 {
            requests.push(Request::Create {
                name: format!("g{i}"),
                spec: GraphSpec::Cycle { n: 12 + i },
            });
        }
        for round in 0..30u64 {
            requests.push(Request::Query { name: "g0".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "g0".into(), query: Query::Connectivity });
            if round % 3 == 0 {
                requests.push(Request::Mutate {
                    name: "g0".into(),
                    op: Mutation::InsertEdge { u: 0, v: 2 + (round % 9) as u32, w: 1 + round },
                });
            }
            if round % 7 == 0 {
                requests.push(Request::Query {
                    name: format!("g{}", round % 4),
                    query: Query::ExactMinCut,
                });
            }
            if round == 10 {
                requests.push(Request::Drop { name: "g1".into() });
            }
            if round == 20 {
                requests
                    .push(Request::Create { name: "g1".into(), spec: GraphSpec::Cycle { n: 9 } });
            }
            if round % 10 == 5 {
                requests.push(Request::Stats);
                requests.push(Request::ListGraphs);
            }
        }
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }

        let report = sharded.placement_report();
        assert!(report.migrations > 0, "window=3 under hot skew must migrate");
        let per_shard = sharded.shutdown();
        let ins: u64 = per_shard.iter().map(|s| s.migrations_in).sum();
        let outs: u64 = per_shard.iter().map(|s| s.migrations_out).sum();
        assert_eq!(ins, report.migrations, "every migration must land");
        assert_eq!(outs, report.migrations, "every migration must leave");
        let mut total = EngineStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.cache_hits, plain.stats().cache_hits);
        assert_eq!(total.mutations, plain.stats().mutations);
    }

    #[test]
    fn idle_worker_steals_tail_run_preserving_order() {
        // Shard 0 gets a heavy head plus a long run of cheap queries;
        // shard 1 owns nothing. With stealing on, the idle worker must
        // take (some of) the tail run — and every response must still
        // match the unsharded engine, cached flags included.
        let placement =
            PlacementOptions { steal: true, steal_min: 2, ..PlacementOptions::default() };
        let opts = ShardOptions { placement, ..ShardOptions::default() };
        let mut sharded = ShardedEngine::with_options(2, opts);
        // A name that the default placement puts on shard 0.
        let hot = (0..)
            .map(|i| format!("hot{i}"))
            .find(|n| default_shard(n, 2) == 0)
            .expect("some name hashes to shard 0");
        let n = 96u32;
        let spec = GraphSpec::ConnectedGnm {
            n: n as usize,
            m: 3 * n as usize,
            w_min: 1,
            w_max: 9,
            seed: 5,
        };

        let mut requests: Vec<Request> =
            vec![Request::Create { name: hot.clone(), spec: spec.clone() }];
        // The heavy head occupies the victim while the run queues behind.
        requests.push(Request::Query { name: hot.clone(), query: Query::KCut { k: 4 } });
        for i in 0..400u32 {
            requests.push(Request::Query {
                name: hot.clone(),
                query: Query::StCutWeight { s: i % n, t: (i + 11) % n },
            });
        }

        let mut plain = Engine::new();
        let mut expected: Vec<Response> =
            requests.iter().map(|r| plain.execute(r.clone())).collect();

        let mut tickets: Vec<Ticket> = requests.iter().map(|r| sharded.submit(r.clone())).collect();
        // Leave the queues alone while the victim grinds the heavy head —
        // a queued broadcast would (correctly) disqualify stealing, and
        // this test wants to observe a steal.
        std::thread::sleep(Duration::from_millis(30));
        expected.push(plain.execute(Request::Stats));
        tickets.push(sharded.submit(Request::Stats));
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(got, expected, "stolen runs must not change any response");

        let per_shard = sharded.shutdown();
        let stolen: u64 = per_shard.iter().map(|s| s.steal_reads).sum();
        assert!(stolen > 0, "the idle shard must have stolen part of the tail run");
        assert_eq!(per_shard[0].steal_reads, 0, "the busy victim steals nothing");
        // Stolen work is accounted where the graph lives: the merged
        // query counters must match the unsharded engine exactly.
        let mut total = EngineStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.cache_hits, plain.stats().cache_hits);
    }

    #[test]
    fn latency_proxy_preserves_responses_and_counters() {
        // Same shape as the dense-migration test, with the latency proxy
        // driving placement: every response must still equal the
        // unsharded engine's, and the migration counters must balance —
        // the measured feedback may only change the *schedule*.
        let placement = PlacementOptions {
            rebalance: true,
            latency_proxy: true,
            window: 3,
            max_moves: 4,
            steal: true,
            steal_min: 2,
            ..PlacementOptions::default()
        };
        let mut sharded =
            ShardedEngine::with_options(3, ShardOptions { placement, ..ShardOptions::default() });
        let mut plain = Engine::new();

        let mut requests: Vec<Request> = Vec::new();
        for i in 0..4 {
            requests.push(Request::Create {
                name: format!("g{i}"),
                spec: GraphSpec::Cycle { n: 12 + i },
            });
        }
        for round in 0..30u64 {
            requests.push(Request::Query { name: "g0".into(), query: Query::ExactMinCut });
            requests.push(Request::Query { name: "g1".into(), query: Query::KCut { k: 3 } });
            requests.push(Request::Query { name: "g0".into(), query: Query::Connectivity });
            if round % 4 == 0 {
                requests.push(Request::Mutate {
                    name: "g0".into(),
                    op: Mutation::InsertEdge { u: 0, v: 2 + (round % 9) as u32, w: 1 + round },
                });
            }
            if round == 12 {
                requests.push(Request::Drop { name: "g2".into() });
            }
            if round % 9 == 5 {
                requests.push(Request::Stats);
                requests.push(Request::ListGraphs);
            }
        }
        for req in requests {
            assert_eq!(sharded.execute(req.clone()), plain.execute(req));
        }

        let report = sharded.placement_report();
        assert!(report.rebalances > 0);
        let per_shard = sharded.shutdown();
        let ins: u64 = per_shard.iter().map(|s| s.migrations_in).sum();
        let outs: u64 = per_shard.iter().map(|s| s.migrations_out).sum();
        // The proxy's schedule is timing-dependent (a migration may find
        // its graph already dropped and move nothing), so assert the
        // balance invariant rather than an exact count.
        assert_eq!(ins, outs, "every migration that leaves must land");
        assert!(ins <= report.migrations);
        let mut total = EngineStats::default();
        for s in &per_shard {
            total.merge(s);
        }
        assert_eq!(total.queries, plain.stats().queries);
        assert_eq!(total.cache_hits, plain.stats().cache_hits);
        assert_eq!(total.mutations, plain.stats().mutations);
        assert!(total.serve_nanos > 0, "workers must account busy time");
    }

    #[test]
    fn latency_proxy_rotates_a_measured_hot_graph() {
        // One expensive graph, hammered: the measured feedback must
        // detect it and rotate it even though the static weights would
        // agree here — the point is that the loop closes end to end.
        let placement = PlacementOptions {
            rebalance: true,
            latency_proxy: true,
            window: 8,
            ..PlacementOptions::default()
        };
        let mut e =
            ShardedEngine::with_options(2, ShardOptions { placement, ..ShardOptions::default() });
        create(&mut e, "hot", 24);
        for seed in 0..120u64 {
            let r = e.execute(Request::Query {
                name: "hot".into(),
                query: Query::ApproxMinCut { seed },
            });
            assert!(matches!(r, Response::CutValue { .. }));
        }
        let report = e.placement_report();
        assert!(report.migrations > 0, "measured load must trigger rotation");
        let routed = e.routed().to_vec();
        assert!(routed.iter().all(|&r| r > 0), "rotation must spread traffic: {routed:?}");
        e.shutdown();
    }

    #[test]
    fn try_wait_resolves_single_and_broadcast_tickets() {
        let mut e = ShardedEngine::new(3);
        create(&mut e, "ring", 10);
        let mut single =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        let mut broadcast = e.submit(Request::Stats);
        let spin = |t: &mut Ticket| loop {
            if let Some(r) = t.try_wait() {
                return r;
            }
            std::thread::yield_now();
        };
        assert!(matches!(spin(&mut single), Response::CutValue { weight: 2, .. }));
        let stats = spin(&mut broadcast);
        assert!(
            matches!(stats, Response::EngineStats { graphs: 1, queries: 1, .. }),
            "broadcast partials must merge through try_wait: {stats}"
        );
        e.shutdown();
    }

    #[test]
    fn shutdown_resolves_pending_steals() {
        // Close the queues while a steal may be in flight: every ticket
        // must still resolve with the right answer (the victim lends
        // during its drain; the thief serves, returns, and exits).
        let placement =
            PlacementOptions { steal: true, steal_min: 2, ..PlacementOptions::default() };
        let mut sharded =
            ShardedEngine::with_options(2, ShardOptions { placement, ..ShardOptions::default() });
        let hot = (0..)
            .map(|i| format!("hot{i}"))
            .find(|n| default_shard(n, 2) == 0)
            .expect("some name hashes to shard 0");
        let mut plain = Engine::new();
        let mut requests: Vec<Request> =
            vec![Request::Create { name: hot.clone(), spec: GraphSpec::Cycle { n: 24 } }];
        requests.push(Request::Query { name: hot.clone(), query: Query::KCut { k: 4 } });
        for i in 0..100u32 {
            requests.push(Request::Query {
                name: hot.clone(),
                query: Query::StCutWeight { s: i % 24, t: (i + 5) % 24 },
            });
        }
        let expected: Vec<Response> = requests.iter().map(|r| plain.execute(r.clone())).collect();
        let tickets: Vec<Ticket> = requests.iter().map(|r| sharded.submit(r.clone())).collect();
        let _ = sharded.shutdown();
        let got: Vec<Response> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(got, expected);
    }

    /// Pull the merged metrics registry out of a live sharded engine.
    fn metrics_of(e: &mut ShardedEngine) -> cut_obs::Registry {
        match e.execute(Request::Metrics) {
            Response::Metrics { snapshot } => {
                cut_obs::Registry::from_wire(&snapshot).expect("well-formed metrics wire")
            }
            other => panic!("expected a metrics snapshot, got {other}"),
        }
    }

    #[test]
    fn merged_span_histograms_count_every_named_op() {
        let mut e = ShardedEngine::new(4);
        let mut named_ops = 0u64;
        for i in 0..6 {
            create(&mut e, &format!("g{i}"), 8);
            named_ops += 1;
        }
        for i in 0..30 {
            let name = format!("g{}", i % 6);
            let r = e.execute(Request::Query { name, query: Query::ExactMinCut });
            assert!(matches!(r, Response::CutValue { .. }), "got {r}");
            named_ops += 1;
        }
        // Broadcasts (including metrics itself) record no spans, so the
        // histogram totals stay exactly the named ops served.
        let _ = e.execute(Request::Stats);
        let _ = e.execute(Request::ListGraphs);
        let _ = metrics_of(&mut e);
        let reg = metrics_of(&mut e);
        for hist in ["request_queue_wait_nanos", "request_serve_nanos"] {
            let h = reg.histogram(hist).unwrap_or_else(|| panic!("missing histogram {hist}"));
            assert_eq!(h.count(), named_ops, "{hist} must count every named op exactly once");
        }
        // The engine counter families ride along, merged across shards.
        assert_eq!(reg.counter("engine_queries"), 30);
        assert_eq!(reg.counter("engine_graphs_created"), 6);
        e.shutdown();
    }

    #[test]
    fn deterministic_clock_spans_split_queue_wait_and_serve_exactly() {
        // A counting clock makes every stamp exact: for each span,
        // queue + serve == wall by construction, enqueue precedes
        // dequeue, and the slow log surfaces the spans.
        let clock = Arc::new(cut_obs::TestClock::new());
        let opts = ShardOptions { clock, slowlog_cap: 64, ..ShardOptions::default() };
        let mut e = ShardedEngine::with_options(2, opts);
        create(&mut e, "ring", 12);
        for _ in 0..5 {
            let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
            assert!(matches!(r, Response::CutValue { weight: 2, .. }), "got {r}");
        }
        let log = match e.execute(Request::Slowlog) {
            Response::Slowlog { snapshot } => {
                SlowLog::from_wire(&snapshot).expect("well-formed slowlog wire")
            }
            other => panic!("expected a slowlog snapshot, got {other}"),
        };
        assert_eq!(log.entries().len(), 6, "create + 5 queries all rank in a cap-64 log");
        for span in log.entries() {
            assert!(span.enqueue <= span.dequeue, "submit stamps precede dequeue: {span:?}");
            assert!(span.dequeue <= span.end, "serve cannot end before it starts: {span:?}");
            assert_eq!(
                span.queue_nanos() + span.serve_nanos(),
                span.wall_nanos(),
                "queue wait + serve time must partition the wall span exactly: {span:?}"
            );
            assert_eq!(span.target, "ring");
        }
        e.shutdown();
    }

    #[test]
    fn dropped_tickets_count_as_abandoned() {
        let mut e = ShardedEngine::new(2);
        create(&mut e, "ring", 8);
        assert_eq!(e.abandoned_tickets(), 0, "waited tickets are not abandoned");
        // Fire-and-forget: the mutation still applies, the ticket drop
        // is counted.
        let ticket = e.submit(Request::Mutate {
            name: "ring".into(),
            op: Mutation::InsertEdge { u: 0, v: 4, w: 3 },
        });
        drop(ticket);
        assert_eq!(e.abandoned_tickets(), 1);
        // A ticket resolved through try_wait is spent, not abandoned.
        let mut ticket =
            e.submit(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        loop {
            if ticket.try_wait().is_some() {
                break;
            }
            std::thread::yield_now();
        }
        drop(ticket);
        assert_eq!(e.abandoned_tickets(), 1);
        // A broadcast ticket abandons too, and the mutation above landed.
        drop(e.submit(Request::Stats));
        assert_eq!(e.abandoned_tickets(), 2);
        let r = e.execute(Request::Query { name: "ring".into(), query: Query::ExactMinCut });
        assert!(matches!(r, Response::CutValue { .. }), "got {r}");
        e.shutdown();
    }
}
