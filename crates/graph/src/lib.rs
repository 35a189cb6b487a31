//! # `cut-graph` — graph substrate for cut algorithms
//!
//! Everything the AMPC min-cut reproduction needs from a graph library,
//! built from scratch:
//!
//! * [`Graph`]: compact undirected weighted multigraph with CSR adjacency,
//!   contraction, induced subgraphs, cut evaluation;
//! * [`Dsu`]: union–find with rank + path halving;
//! * [`gen`]: seeded workload generators (G(n,p), G(n,m), cycles and the
//!   1-vs-2-cycle workload, planted partitions, power-law, trees, …);
//! * [`mst`]: Kruskal minimum spanning forest over arbitrary priorities;
//! * [`mod@stoer_wagner`]: exact weighted global min cut (ground truth);
//! * [`maxflow`]: Dinic max-flow / min s-t cut;
//! * [`gomory_hu`]: Gusfield's Gomory–Hu (equivalent-flow) tree
//!   (Definition 8 of the paper) and the Saran–Vazirani greedy k-cut bound;
//! * [`brute`]: exponential-time exact min-cut / min-k-cut oracles for
//!   small instances (test ground truth).

pub mod brute;
pub mod cut;
pub mod dsu;
pub mod gen;
pub mod gomory_hu;
pub mod graph;
pub mod hash;
pub mod maxflow;
pub mod mst;
pub mod stoer_wagner;

pub use cut::{cut_weight, CutResult};
pub use dsu::Dsu;
pub use gomory_hu::GomoryHuTree;
pub use graph::{Edge, Graph};
pub use mst::{kruskal, kruskal_in_order, MstForest};
pub use stoer_wagner::{stoer_wagner, StoerWagner};
