//! The oracle replay: a single-thread `Engine` replay of a workload's
//! stream that checks every answer from outside the program.
//!
//! For each uncached query the replay takes `Engine::snapshot` and
//! re-derives the answer through the layer's public functions
//! (`approx_min_cut`, `smallest_singleton_cut` + `singleton_cut_side`,
//! `apx_split`, `stoer_wagner`, `maxflow::min_st_cut`,
//! `Graph::component_count`). Exact, s-t, singleton, k-cut and
//! connectivity answers must equal the direct call; approximate answers
//! must equal it and lie in `[exact, (2+ε)·exact]`. Approximate cuts are
//! also re-run through [`mirror_approx_min_cut`], a phase-by-phase copy
//! of Algorithm 1 whose result must be identical to `approx_min_cut`.
//!
//! With tracing armed (see [`crate::spans`]) the same replay records a
//! root span per request, `engine.execute` under it, and every shadow
//! call as a sibling child, which gives the per-layer split.

use std::sync::Arc;

use cut_engine::{
    Engine, EngineConfig, GraphStore, Query, RecoveredGraph, Request, Response, Workload,
};
use cut_graph::{stoer_wagner, CutResult, Graph};
use cut_store::Store;
use mincut_core::mincut::repetition_count;
use mincut_core::singleton::singleton_cut_side;
use mincut_core::{
    approx_min_cut, apx_split, contract_prefix, exponential_priorities, smallest_singleton_cut,
    KCutOptions, MinCutOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::drive::LogDigest;
use crate::spans::{self, enter};

/// What the oracle replay found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub digest: LogDigest,
    /// Answers that disagree with the direct layer call or the bound.
    pub wrong: u64,
    /// First few disagreements, for the report.
    pub wrong_examples: Vec<String>,
    /// Mirror results that differed from `approx_min_cut`.
    pub mirror_mismatches: u64,
    /// Uncached approximate answers on connected graphs, and the sum of
    /// their approx ÷ exact ratios.
    pub approx_checked: u64,
    pub approx_ratio_sum: f64,
    /// Every response, in stream order (the wire codec timing reuses them).
    pub responses: Vec<Response>,
}

impl Verdict {
    fn wrong(&mut self, i: usize, request: &Request, response: &Response, expected: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 5 {
            self.wrong_examples
                .push(format!("op {i}: {request} -> {response}, expected {expected}"));
        }
    }
}

/// Replay `workload` through one default-config `Engine`, optionally with
/// a store attached, checking every uncached answer. Span op ids start at
/// `op_offset`, so several streams traced in a row keep distinct ids.
pub fn replay(
    workload: &Workload,
    store: Option<Arc<dyn GraphStore>>,
    op_offset: usize,
) -> Verdict {
    let cfg = EngineConfig::default();
    let mut engine = Engine::with_config(cfg.clone());
    if let Some(store) = store {
        engine.attach_store(store);
    }
    let mut v = Verdict { responses: Vec::with_capacity(workload.len()), ..Verdict::default() };
    // The exact min cut per (graph, epoch): approximate queries with
    // different seeds on one epoch share their reference value.
    let mut exact_memo: Option<(String, u64, u64)> = None;

    for (i, request) in workload.all_requests().enumerate() {
        let _root = spans::root(request.kind(), op_offset + i);
        let response = {
            let _s = enter("engine.execute");
            engine.execute(request.clone())
        };
        v.digest.push(i, request, &response);
        if let Request::Query { name, query } = request {
            if !response.was_cached() && !matches!(response, Response::Error { .. }) {
                let g = {
                    let _s = enter("index.snapshot");
                    engine.snapshot(name).expect("a query that answered has a graph")
                };
                {
                    // CSR construction from the snapshot's edge list.
                    let _s = enter("index.csr_build");
                    std::hint::black_box(Graph::new(g.n(), g.edges().to_vec()));
                }
                let epoch = engine.epoch(name).unwrap_or(0);
                let memo = &mut exact_memo;
                let exact = |g: &Graph| match memo {
                    Some((n, e, w)) if n == name && *e == epoch => *w,
                    _ => {
                        let _s = enter("oracle.exact_reference");
                        let w = stoer_wagner(g).weight;
                        *memo = Some((name.clone(), epoch, w));
                        w
                    }
                };
                check(&mut v, &cfg, i, request, *query, &response, &g, exact);
            }
        }
        v.responses.push(response);
    }
    v
}

/// The response a disconnected graph's exact or approximate cut gets:
/// weight 0, side = vertex 0's component.
fn disconnected_side(g: &Graph) -> Option<usize> {
    let comp = g.components();
    comp.iter().any(|&c| c != 0).then(|| comp.iter().filter(|&&c| c == 0).count())
}

#[allow(clippy::too_many_arguments)]
fn check(
    v: &mut Verdict,
    cfg: &EngineConfig,
    i: usize,
    request: &Request,
    query: Query,
    response: &Response,
    g: &Graph,
    exact: impl FnOnce(&Graph) -> u64,
) {
    let cut =
        |weight: u64, side_size: usize| Response::CutValue { weight, side_size, cached: false };
    let expected = match query {
        Query::ExactMinCut => match disconnected_side(g) {
            Some(side) => cut(0, side),
            None => {
                let c = {
                    let _s = enter("graph.stoer_wagner");
                    stoer_wagner(g)
                };
                cut(c.weight, c.side.len())
            }
        },
        Query::ApproxMinCut { seed } => match disconnected_side(g) {
            Some(side) => cut(0, side),
            None => {
                let opts = MinCutOptions {
                    epsilon: cfg.epsilon,
                    base_size: cfg.base_size,
                    repetitions: cfg.repetitions,
                    seed,
                };
                let real = {
                    let _s = enter("core.approx_min_cut");
                    approx_min_cut(g, &opts)
                };
                let mirrored = {
                    let _s = enter("core.approx.mirror");
                    mirror_approx_min_cut(g, &opts)
                };
                if mirrored != real {
                    v.mirror_mismatches += 1;
                }
                let exact = exact(g);
                let bound = (2.0 + cfg.epsilon) * exact as f64;
                if real.weight < exact || real.weight as f64 > bound {
                    v.wrong(i, request, response, format!("a weight in [{exact}, {bound}]"));
                }
                if exact > 0 {
                    v.approx_checked += 1;
                    v.approx_ratio_sum += real.weight as f64 / exact as f64;
                }
                cut(real.weight, real.side.len())
            }
        },
        Query::SingletonCut { seed } => {
            if g.m() == 0 {
                cut(0, 1)
            } else {
                let _s = enter("core.singleton_cut");
                let mut rng = SmallRng::seed_from_u64(seed);
                let prio = exponential_priorities(g, &mut rng);
                let sc = smallest_singleton_cut(g, &prio);
                cut(sc.weight, singleton_cut_side(g, &prio, sc).len())
            }
        }
        Query::KCut { k } => {
            let _s = enter("core.kcut");
            let mut opts = KCutOptions::new(k);
            opts.exact_below = cfg.exact_below;
            opts.mincut.epsilon = cfg.epsilon;
            opts.mincut.base_size = cfg.base_size;
            Response::KCutValue { weight: apx_split(g, &opts).weight, parts: k, cached: false }
        }
        Query::Connectivity => {
            let _s = enter("graph.component_count");
            Response::ConnectivityValue { components: g.component_count(), cached: false }
        }
        Query::StCutWeight { s, t } => {
            let _s = enter("graph.min_st_cut");
            cut(cut_graph::maxflow::min_st_cut(g, s, t), 0)
        }
    };
    if *response != expected {
        v.wrong(i, request, response, expected.to_string());
    }
}

/// Algorithm 1 rebuilt from `mincut_core`'s public pieces, one span per
/// phase: `priorities` (exponential clocks), `singleton` (smallest
/// singleton cut), `side` (its realizing bag), `contract` (prefix
/// contraction), `base_case` (Stoer–Wagner at `n ≤ base_size`) and `lift`
/// (mapping a sub-instance's side back). Same seeds, same order, same
/// tie-breaks as `approx_min_cut`, so the result is identical.
pub fn mirror_approx_min_cut(g: &Graph, opts: &MinCutOptions) -> CutResult {
    let mut best: Option<CutResult> = None;
    for rep in 0..repetition_count(g.n(), opts) {
        let mut rng = SmallRng::seed_from_u64(opts.seed.wrapping_add(rep as u64));
        let cut = mirror_solve(g, g.n(), opts, &mut rng, 0);
        if best.as_ref().is_none_or(|b| cut.weight < b.weight) {
            best = Some(cut);
        }
    }
    best.expect("at least one repetition")
}

fn mirror_solve(
    g: &Graph,
    n0: usize,
    opts: &MinCutOptions,
    rng: &mut SmallRng,
    depth: usize,
) -> CutResult {
    let n = g.n();
    if n <= opts.base_size.max(2) {
        let _s = enter("core.approx.base_case");
        return stoer_wagner(g);
    }
    assert!(depth < 64, "recursion too deep: schedule not shrinking");
    let t = (n0 as f64 / n as f64).max(1.0);
    let (branch, x) = opts.schedule(t);
    let target = ((n as f64 / x).ceil() as usize).clamp(2, n - 1);

    let mut best: Option<CutResult> = None;
    let consider = |c: CutResult, best: &mut Option<CutResult>| {
        if best.as_ref().is_none_or(|b| c.weight < b.weight) {
            *best = Some(c);
        }
    };
    for _ in 0..branch {
        let prio = {
            let _s = enter("core.approx.priorities");
            exponential_priorities(g, rng)
        };
        let sc = {
            let _s = enter("core.approx.singleton");
            smallest_singleton_cut(g, &prio)
        };
        let side = {
            let _s = enter("core.approx.side");
            singleton_cut_side(g, &prio, sc)
        };
        consider(CutResult { weight: sc.weight, side }, &mut best);
        let (h, labels) = {
            let _s = enter("core.approx.contract");
            contract_prefix(g, &prio, target)
        };
        if h.n() >= 2 {
            let sub = mirror_solve(&h, n0, opts, rng, depth + 1);
            let side: Vec<u32> = {
                let _s = enter("core.approx.lift");
                let in_side = sub.mask(h.n());
                (0..n as u32).filter(|&v| in_side[labels[v as usize] as usize]).collect()
            };
            consider(CutResult { weight: sub.weight, side }, &mut best);
        }
    }
    best.expect("branch >= 2")
}

/// A plain replay through one `Engine`, with only the root and
/// `engine.execute` spans (when armed): the two sides of
/// `trace.overhead_pct`.
pub fn replay_plain(workload: &Workload) -> std::time::Duration {
    let mut engine = Engine::with_config(EngineConfig::default());
    let t0 = std::time::Instant::now();
    for (i, request) in workload.all_requests().enumerate() {
        let _root = spans::root(request.kind(), i);
        let _s = enter("engine.execute");
        std::hint::black_box(engine.execute(request.clone()));
    }
    t0.elapsed()
}

/// `cut_store::Store` behind a decorator that opens a span around each
/// write-path call, so store time shows as a child of the
/// `engine.execute` that caused it.
pub struct TimedStore(pub Store);

impl GraphStore for TimedStore {
    fn log(&self, name: &str, request: &Request, response: &Response) {
        let _s = enter("store.log");
        self.0.log(name, request, response);
    }

    fn contains(&self, name: &str) -> bool {
        self.0.contains(name)
    }

    fn names(&self) -> Vec<String> {
        self.0.names()
    }

    fn wants_snapshot(&self, name: &str) -> bool {
        self.0.wants_snapshot(name)
    }

    fn snapshot(&self, name: &str, state: &str) {
        let _s = enter("store.snapshot");
        self.0.snapshot(name, state);
    }

    fn spill(&self, name: &str, state: &str) {
        let _s = enter("store.spill");
        self.0.spill(name, state);
    }

    fn load(&self, name: &str) -> Option<RecoveredGraph> {
        let _s = enter("store.load");
        self.0.load(name)
    }

    fn drop_graph(&self, name: &str, request: &Request, response: &Response) {
        let _s = enter("store.drop");
        self.0.drop_graph(name, request, response);
    }

    fn telemetry(&self) -> Vec<(String, u64)> {
        self.0.telemetry()
    }
}
