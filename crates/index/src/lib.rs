//! # `cut-index` — the per-graph incremental index layer
//!
//! The serving engine (`cut_engine`) answers queries against graphs that
//! mutate between reads. Recomputing per-request representations from the
//! raw edge list makes every request cost O(m) before the algorithm even
//! starts; this crate owns the state that amortizes that cost away:
//!
//! - [`GraphIndex`] — one per registered graph:
//!   - a **generation-stamped CSR snapshot**: the adjacency structure is
//!     built at most once per mutation generation, and every read between
//!     two mutations shares the same build;
//!   - **fully dynamic connectivity** ([`DynConn`], a Holm–de
//!     Lichtenberg–Thorup-style level structure): inserts *and* deletes
//!     are absorbed in amortized polylog time, so
//!     [`GraphIndex::components_live`] answers `Connectivity` in O(1)
//!     with zero BFS and zero rebuilds, and
//!     [`GraphIndex::partition_generation`] certifies when the vertex
//!     partition last changed (the engine's cut-cache gate);
//!   - an **incremental DSU** kept as the legacy read path
//!     ([`GraphIndex::components`]) and debug-assert shadow oracle: edge
//!     inserts union in O(α); deletes and contractions mark it dirty and
//!     it is rebuilt lazily on the next legacy connectivity read;
//!   - **running degree/weight summaries** (per-vertex weighted degrees,
//!     total weight, edge count) maintained O(1) per edge mutation.
//! - [`LruCache`] — a real least-recently-used map (doubly-linked order
//!   over an arena, O(1) get/insert/evict) replacing reset-on-full
//!   policies; the engine keys it by query value.
//! - [`IndexStats`] — the observability counters the stress harness
//!   reports: CSR builds vs. reuses, DSU fast-path hits vs. rebuilds,
//!   LRU evictions.
//!
//! Everything here is deterministic: no wall clocks, no hash-order
//! decisions (LRU eviction follows recency order, snapshot builds follow
//! generation numbers), so layering the index under an engine never
//! changes a response stream — only how much work producing it costs.
//!
//! ```
//! use cut_graph::Edge;
//! use cut_index::GraphIndex;
//!
//! // A path 0-1-2 plus an isolated vertex 3.
//! let edges = vec![Edge::new(0, 1, 4), Edge::new(1, 2, 7)];
//! let mut index = GraphIndex::new(4, &edges);
//!
//! // Connectivity is answered by the DSU — no BFS, no CSR build.
//! assert_eq!(index.components(4, &edges).0, 2);
//!
//! // The CSR snapshot is built once per generation ...
//! let (_, built) = index.snapshot(4, &edges);
//! assert!(built);
//! let (_, built) = index.snapshot(4, &edges);
//! assert!(!built, "second read reuses the stamped snapshot");
//! ```

pub mod dynconn;
pub mod index;
pub mod lru;

pub use dynconn::DynConn;
pub use index::{ConnRead, GraphIndex, GraphSummary, IndexStats};
pub use lru::LruCache;
