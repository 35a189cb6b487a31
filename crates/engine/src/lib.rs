//! # `cut-engine` — a long-lived, multi-graph cut-query engine
//!
//! The paper's algorithms ((2+ε) Min Cut, (4+ε) Min k-Cut, singleton cuts)
//! become *servable*: an [`Engine`] owns a registry of named graphs, takes
//! mutations (insert/delete weighted edges, contract vertices) and queries
//! (min cut, singleton cut, k-cut, connectivity, s-t cut weight) through a
//! single [`Engine::execute`]`(Request) -> Response` entry point, and
//! caches query answers with **mutation-epoch invalidation**: repeated
//! queries against an unchanged graph are O(1) hash lookups, and any
//! mutation invalidates exactly that graph's cached answers.
//!
//! Two execution fronts share that contract:
//!
//! - [`Engine`] — the single-threaded reference path: one registry, one
//!   thread, deterministic end to end.
//! - [`ShardedEngine`] (the [`shard`] module) — the scaling path: the
//!   registry is partitioned across N worker threads through a
//!   router-owned placement table (default: a stable hash of the graph
//!   name), per-graph request order is preserved, cross-graph requests
//!   run concurrently, and the response stream is byte-identical to the
//!   single-threaded engine's for any shard count. With
//!   [`ShardOptions::batch`], workers drain queued runs of same-graph
//!   queries into read batches that share one index snapshot. With
//!   [`PlacementOptions`], the router *adapts*: per-graph load accounting
//!   drives graph migrations off overloaded shards at safe epochs (the
//!   whole entry — index, epoch, warmed cache — moves behind a per-graph
//!   barrier), and idle workers steal tail runs of same-graph queries
//!   from the longest queue. Neither changes a response; see
//!   `docs/SHARDING.md` for the protocols and the determinism argument.
//!
//! A third front lives out-of-crate: the `cut_server` crate's
//! `cut-server` binary serves a [`ShardedEngine`] over TCP, speaking
//! [`Request::to_trace_line`]/[`Response::to_trace_line`] as a
//! line-delimited wire protocol (`docs/PROTOCOL.md`), and the
//! `cut_client` crate is the matching client library. The trace codec
//! doubles as the wire codec, so remote responses are byte-identical to
//! in-process ones.
//!
//! Beneath both sits the **index layer** (the `cut_index` crate): every
//! registry entry keeps a generation-stamped CSR snapshot (one build per
//! mutation, shared by all reads in between), an incremental DSU so
//! `Connectivity` skips BFS, running degree/weight summaries, and an LRU
//! query cache. [`EngineStats`] reports how much work the layer absorbed
//! (builds avoided, DSU fast-path hits, evictions, batch sizes).
//!
//! The [`workload`] module generates seeded, replayable request streams:
//! closed-loop (weighted action mix + Zipf graph-popularity skew) or
//! **trace-shaped** — a [`Timeline`] of phases with their own arrival
//! processes (steady / Poisson bursts / diurnal), mixes, and popularity
//! drift (hot-set rotation, flash crowds), emitting deterministic
//! arrival timestamps, and serializing losslessly to a replayable trace
//! ([`Workload::to_trace`]/[`Workload::from_trace`]). The `cut_bench`
//! crate's `stress` binary replays them through either front
//! (`--shards N`), closed-loop or open-loop (`--arrival`/`--phases`),
//! and reports throughput, latency (per-action service times, or
//! per-phase latency-under-load), per-shard occupancy, and cache hit
//! rate. `docs/WORKLOADS.md` is the model reference.
//!
//! ```
//! use cut_engine::{Engine, GraphSpec, Mutation, Query, Request, Response};
//!
//! let mut engine = Engine::new();
//! engine.execute(Request::Create {
//!     name: "ring".into(),
//!     spec: GraphSpec::Cycle { n: 16 },
//! });
//!
//! // A cycle's min cut is 2 ...
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(matches!(r, Response::CutValue { weight: 2, cached: false, .. }));
//!
//! // ... the repeat is served from the epoch cache ...
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(r.was_cached());
//!
//! // ... and a mutation invalidates it.
//! engine.execute(Request::Mutate {
//!     name: "ring".into(),
//!     op: Mutation::InsertEdge { u: 0, v: 8, w: 5 },
//! });
//! let r = engine.execute(Request::Query {
//!     name: "ring".into(),
//!     query: Query::ExactMinCut,
//! });
//! assert!(!r.was_cached());
//! ```

//! **Durability** is a pluggable seam: [`GraphStore`] (the [`store_api`]
//! module) is the backend interface — write-ahead logging of applied
//! requests, snapshot compaction of [`GraphExport`] traces, cold-graph
//! spill under [`EngineConfig::resident_cap`], and lazy fault-in on
//! access. The `cut_store` crate is the filesystem implementation;
//! `docs/DURABILITY.md` covers the formats and the crash-recovery
//! protocol.

pub mod engine;
pub mod request;
pub mod shard;
pub mod store_api;
pub mod workload;

// The index layer under every registry entry (see the `cut_index` crate).
pub use cut_index::{GraphSummary, IndexStats, LruCache};
// The telemetry layer (see the `cut_obs` crate): the registry both fronts
// export through `stats metrics`, the span/slow-log machinery behind
// `stats slowlog`, and the clocks that drive them.
pub use cut_obs::{
    span_flags, Clock, Histogram, MonotonicClock, Registry, SlowLog, Span, TestClock,
};
pub use engine::BATCH_BUCKET_LABELS;
pub use engine::{batch_bucket, Engine, EngineConfig, EngineStats, GraphExport, BATCH_BUCKETS};
pub use request::{GraphSpec, Mutation, Query, Request, Response, QUERY_KINDS};
pub use shard::{PlacementOptions, PlacementReport, ShardOptions, ShardedEngine, Ticket};
pub use store_api::{GraphStore, RecoveredGraph};
pub use workload::{
    ActionMix, ArrivalProcess, Phase, PopularityDrift, Timeline, Workload, WorkloadConfig,
};
