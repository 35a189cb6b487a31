//! Stress driver for the cut-query engine.
//!
//! Generates a seeded workload (see `cut_engine::workload`) and replays it
//! through the engine, reporting throughput, latency, and the epoch
//! cache's hit rate. The full operation log (request + response per op, no
//! timing) is folded into an FNV-1a digest: two runs with the same
//! workload flags print the same digest, which is the determinism check
//! the harness tests rely on.
//!
//! Two replay modes:
//!
//! - **Closed loop** (default): each window of requests is kept full as
//!   fast as the engine drains it; the report shows ops/sec and, on
//!   single-threaded runs, per-action service-time percentiles.
//! - **Open loop** (`--arrival`, `--phases`): the workload carries a
//!   deterministic arrival schedule; the harness submits each request at
//!   its timestamp regardless of how the engine is keeping up, and
//!   reports **latency under load** (completion − scheduled arrival) per
//!   phase, plus queue-depth-over-time samples. This is the regime where
//!   bursts and popularity drift actually hurt — and where `--rebalance
//!   --steal --latency-proxy` earn their keep.
//!
//! `--shards 1` (the default) replays through the single-threaded
//! `Engine::execute` path; `--shards N` pipelines the same stream through
//! an N-worker `ShardedEngine` (submission-order responses, so the digest
//! is identical for any shard count) and additionally reports per-shard
//! occupancy. `--batch` turns on read batching, `--rebalance` adaptive
//! placement, `--steal` work stealing, `--latency-proxy` measured serve
//! times as the rebalancer's load signal. None of these change a
//! response, so the digest is invariant across every flag combination.
//!
//! A workload can be saved and replayed byte-identically: `--trace-out
//! PATH` writes the timestamped request stream, `--trace-in PATH` replays
//! it (same requests, same schedule, same digest).
//!
//! **Remote mode** (`--remote ADDR`, optionally `--connections N`): the
//! same seeded workload drives a `cut-server` over real TCP sockets
//! instead of an in-process engine. Requests route to connections by
//! graph name (the shard-router trick), so per-graph ordering is
//! preserved; open-loop percentiles become *end-to-end client-observed*
//! latency, and a per-connection throughput table is reported. At one
//! connection the operation log — and therefore the digest — is
//! byte-identical to an in-process run of the same flags, which is the
//! CI loopback gate. Engine-side flags (`--shards`, `--batch`,
//! `--rebalance`, `--steal`, `--latency-proxy`, `--cache-entries`) are
//! *server* properties under a network split: pass them to `cut-server`,
//! not to a `--remote` stress run.
//!
//! `--json-out PATH` writes the whole report as a machine-readable
//! `BENCH_*.json` artifact with the same schema (`cut-stress/1`) local
//! and remote.
//!
//! **Telemetry** (`docs/OBSERVABILITY.md`): every run finishes with a
//! `stats metrics` broadcast — outside the digest-logged stream, so the
//! digest is byte-identical with and without it — and reports queue-wait
//! and serve-time percentiles from the merged lifecycle-span histograms
//! (per phase on local open-loop runs, via metrics barriers at phase
//! boundaries). `--metrics-out PATH` additionally writes the raw
//! end-of-run snapshot as a `cut-metrics/1` JSON artifact, and
//! `--metrics-text PATH` the same snapshot in Prometheus text
//! exposition.
//!
//! ```text
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7 --shards 4
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7 --shards 4 \
//!     --phases bursty --arrival poisson:20000 --rebalance --steal --latency-proxy
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --trace-out /tmp/run.trace
//! cargo run --release -p cut_bench --bin stress -- --trace-in /tmp/run.trace --shards 4
//! cargo run --release -p cut_server --bin cut-server -- --shards 4 &
//! cargo run --release -p cut_bench --bin stress -- --ops 10000 --seed 7 \
//!     --phases bursty --remote 127.0.0.1:7641 --connections 4 --json-out BENCH_remote.json
//! ```
//!
//! Flags: `--ops N` `--seed S` `--graphs G` `--initial-n N` `--zipf Z`
//! `--mix default|read-only|write-heavy` `--shards N` `--batch`
//! `--rebalance` `--rebalance-window N` `--steal` `--latency-proxy`
//! `--arrival closed|steady:R|poisson:R|bursts:B:P|diurnal:L:H`
//! `--phases single|bursty|diurnal|flash` `--trace-out PATH`
//! `--trace-in PATH` `--cache-entries N` `--dump-log PATH`
//! `--remote ADDR` `--connections N` `--json-out PATH`
//! `--metrics-out PATH` `--metrics-text PATH`. See
//! `docs/WORKLOADS.md` for the workload model, `docs/SHARDING.md` for
//! placement tuning, and `docs/PROTOCOL.md` for the wire format behind
//! `--remote`.
//!
//! **Durable mode** (`--data-dir PATH`, plus `--snapshot-every N`,
//! `--resident-cap N`, `--fsync`): the engine write-ahead logs every
//! applied request into a `cut_store::Store`, recovering whatever the
//! directory already holds on startup, and the report gains `durability`
//! and `recovery` sections (text and JSON — null in the JSON when the
//! run was remote or not durable). The digest is invariant under all of
//! it, including a `--resident-cap` far below `--graphs`: spilling cold
//! graphs to disk and faulting them back must never change a response.
//! See `docs/DURABILITY.md`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_client::{ClientError, Connection, ReconnectPolicy, RemoteTicket};
use cut_engine::{
    ActionMix, ArrivalProcess, Engine, EngineConfig, EngineStats, GraphStore, Histogram,
    PlacementOptions, PlacementReport, Registry, Request, Response, ShardOptions, ShardedEngine,
    Ticket, Timeline, Workload, WorkloadConfig, BATCH_BUCKET_LABELS, QUERY_KINDS,
};
// FNV-1a over the log bytes — stable across runs and platforms.
use cut_graph::hash::fnv1a;
use cut_store::{Store, StoreOptions};

/// `--arrival` before rates are turned into a concrete process (the
/// time-varying shapes need the op count to pick sane periods).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ArrivalArg {
    Closed,
    Steady(f64),
    Poisson(f64),
    /// `bursts:BASE:PEAK`.
    Bursts(f64, f64),
    /// `diurnal:LOW:HIGH`.
    Diurnal(f64, f64),
}

impl ArrivalArg {
    fn parse(spec: &str) -> Result<ArrivalArg, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let mut rate = |what: &str| -> Result<f64, String> {
            let tok = parts.next().ok_or(format!("--arrival {kind} needs {what}"))?;
            let v: f64 = tok.parse().map_err(|_| format!("bad {what} '{tok}'"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{what} must be positive (got {tok})"));
            }
            Ok(v)
        };
        let arg = match kind {
            "closed" => ArrivalArg::Closed,
            "steady" => ArrivalArg::Steady(rate("a rate")?),
            "poisson" => ArrivalArg::Poisson(rate("a rate")?),
            "bursts" => ArrivalArg::Bursts(rate("a base rate")?, rate("a peak rate")?),
            "diurnal" => ArrivalArg::Diurnal(rate("a low rate")?, rate("a high rate")?),
            other => return Err(format!("unknown arrival process '{other}'")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing '{extra}' in --arrival {spec}"));
        }
        Ok(arg)
    }

    /// The baseline ops/sec this spec implies (used by `--phases` presets).
    fn base_rate(&self) -> Option<f64> {
        match *self {
            ArrivalArg::Closed => None,
            ArrivalArg::Steady(r) | ArrivalArg::Poisson(r) => Some(r),
            ArrivalArg::Bursts(base, _) => Some(base),
            ArrivalArg::Diurnal(low, high) => Some((low + high) / 2.0),
        }
    }

    /// Materialize for a single-phase run of `ops` operations.
    fn materialize(&self, ops: usize) -> ArrivalProcess {
        match *self {
            ArrivalArg::Closed => ArrivalProcess::Closed,
            ArrivalArg::Steady(rate) => ArrivalProcess::Steady { rate },
            ArrivalArg::Poisson(rate) => ArrivalProcess::Poisson { rate },
            ArrivalArg::Bursts(base, peak) => {
                // ~3 on/off cycles across the run, bursts 1/3 of each.
                let mean = (2.0 * base + peak) / 3.0;
                let period = (ops as f64 / mean / 3.0).max(1e-6);
                ArrivalProcess::Bursts { base, peak, period, burst: period / 3.0 }
            }
            ArrivalArg::Diurnal(low, high) => {
                // Two full day cycles across the run.
                let mean = (low + high) / 2.0;
                let period = (ops as f64 / mean / 2.0).max(1e-6);
                ArrivalProcess::Diurnal { low, high, period }
            }
        }
    }
}

struct Args {
    ops: usize,
    seed: u64,
    graphs: usize,
    initial_n: usize,
    zipf: f64,
    mix: ActionMix,
    mix_name: String,
    shards: usize,
    batch: bool,
    rebalance: bool,
    rebalance_window: usize,
    steal: bool,
    latency_proxy: bool,
    arrival: ArrivalArg,
    phases: String,
    trace_out: Option<String>,
    trace_in: Option<String>,
    cache_entries: usize,
    dump_log: Option<String>,
    remote: Option<String>,
    connections: usize,
    json_out: Option<String>,
    metrics_out: Option<String>,
    metrics_text: Option<String>,
    data_dir: Option<String>,
    snapshot_every: Option<u64>,
    resident_cap: usize,
    fsync: bool,
    no_dynconn: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ops: 10_000,
        seed: 7,
        graphs: 8,
        initial_n: 48,
        zipf: 1.1,
        mix: ActionMix::default(),
        mix_name: "default".to_string(),
        shards: 1,
        batch: false,
        rebalance: false,
        rebalance_window: PlacementOptions::default().window,
        steal: false,
        latency_proxy: false,
        arrival: ArrivalArg::Closed,
        phases: "single".to_string(),
        trace_out: None,
        trace_in: None,
        cache_entries: EngineConfig::default().max_cache_entries,
        dump_log: None,
        remote: None,
        connections: 1,
        json_out: None,
        metrics_out: None,
        metrics_text: None,
        data_dir: None,
        snapshot_every: None,
        resident_cap: 0,
        fsync: false,
        no_dynconn: false,
    };
    let mut connections_given = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--ops" => args.ops = value(&mut i)?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--graphs" => {
                args.graphs = value(&mut i)?.parse().map_err(|e| format!("--graphs: {e}"))?
            }
            "--initial-n" => {
                args.initial_n = value(&mut i)?.parse().map_err(|e| format!("--initial-n: {e}"))?
            }
            "--zipf" => args.zipf = value(&mut i)?.parse().map_err(|e| format!("--zipf: {e}"))?,
            "--mix" => {
                args.mix_name = value(&mut i)?;
                args.mix = match args.mix_name.as_str() {
                    "default" => ActionMix::default(),
                    "read-only" => ActionMix::read_only(),
                    "write-heavy" => ActionMix::write_heavy(),
                    other => return Err(format!("unknown mix '{other}'")),
                };
            }
            "--shards" => {
                args.shards = value(&mut i)?.parse().map_err(|e| format!("--shards: {e}"))?
            }
            "--batch" => args.batch = true,
            "--rebalance" => args.rebalance = true,
            "--rebalance-window" => {
                args.rebalance_window =
                    value(&mut i)?.parse().map_err(|e| format!("--rebalance-window: {e}"))?
            }
            "--steal" => args.steal = true,
            "--latency-proxy" => args.latency_proxy = true,
            "--arrival" => args.arrival = ArrivalArg::parse(&value(&mut i)?)?,
            "--phases" => args.phases = value(&mut i)?,
            "--trace-out" => args.trace_out = Some(value(&mut i)?),
            "--trace-in" => args.trace_in = Some(value(&mut i)?),
            "--cache-entries" => {
                args.cache_entries =
                    value(&mut i)?.parse().map_err(|e| format!("--cache-entries: {e}"))?
            }
            "--dump-log" => args.dump_log = Some(value(&mut i)?),
            "--remote" => args.remote = Some(value(&mut i)?),
            "--connections" => {
                connections_given = true;
                args.connections =
                    value(&mut i)?.parse().map_err(|e| format!("--connections: {e}"))?
            }
            "--json-out" => args.json_out = Some(value(&mut i)?),
            "--metrics-out" => args.metrics_out = Some(value(&mut i)?),
            "--metrics-text" => args.metrics_text = Some(value(&mut i)?),
            "--data-dir" => args.data_dir = Some(value(&mut i)?),
            "--snapshot-every" => {
                args.snapshot_every =
                    Some(value(&mut i)?.parse().map_err(|e| format!("--snapshot-every: {e}"))?)
            }
            "--resident-cap" => {
                args.resident_cap =
                    value(&mut i)?.parse().map_err(|e| format!("--resident-cap: {e}"))?
            }
            "--fsync" => args.fsync = true,
            "--no-dynconn" => args.no_dynconn = true,
            "--help" | "-h" => {
                println!(
                    "stress --ops N --seed S [--graphs G] [--initial-n N] [--zipf Z] \
                     [--mix default|read-only|write-heavy] [--shards N] [--batch] \
                     [--rebalance] [--rebalance-window N] [--steal] [--latency-proxy] \
                     [--arrival closed|steady:R|poisson:R|bursts:B:P|diurnal:L:H] \
                     [--phases single|bursty|diurnal|flash|write-storm|whale] \
                     [--trace-out PATH] [--trace-in PATH] [--cache-entries N] [--no-dynconn] \
                     [--dump-log PATH] [--remote ADDR [--connections N]] \
                     [--json-out PATH] [--metrics-out PATH] [--metrics-text PATH] \
                     [--data-dir PATH [--snapshot-every N] \
                     [--resident-cap N] [--fsync]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    // Validate up front so bad flags are CLI errors, not workload panics.
    if args.graphs == 0 {
        return Err("--graphs must be at least 1".into());
    }
    if args.initial_n < 8 {
        return Err("--initial-n must be at least 8".into());
    }
    // One worker thread per shard; cap well past any plausible core count
    // so a typo can't exhaust thread resources (which aborts, not errors).
    if args.shards == 0 || args.shards > 1024 {
        return Err(format!("--shards must be in 1..=1024 (got {})", args.shards));
    }
    if args.cache_entries == 0 {
        return Err("--cache-entries must be at least 1".into());
    }
    if args.rebalance_window == 0 {
        return Err("--rebalance-window must be at least 1".into());
    }
    if !matches!(
        args.phases.as_str(),
        "single" | "bursty" | "diurnal" | "flash" | "write-storm" | "whale"
    ) {
        return Err(format!(
            "--phases must be single|bursty|diurnal|flash|write-storm|whale (got '{}')",
            args.phases
        ));
    }
    if args.phases != "single" && args.arrival == ArrivalArg::Closed {
        // Presets are open-loop shapes; give them a sane default pace
        // rather than erroring (20k ops/sec keeps CI runs short).
        args.arrival = ArrivalArg::Poisson(20_000.0);
    }
    if connections_given && args.remote.is_none() {
        return Err("--connections only makes sense with --remote".into());
    }
    if args.connections == 0 || args.connections > 256 {
        return Err(format!("--connections must be in 1..=256 (got {})", args.connections));
    }
    if args.data_dir.is_none() {
        if args.resident_cap != 0 {
            return Err("--resident-cap needs --data-dir (spilled graphs live there)".into());
        }
        if args.snapshot_every.is_some() {
            return Err("--snapshot-every needs --data-dir".into());
        }
        if args.fsync {
            return Err("--fsync needs --data-dir".into());
        }
    }
    if args.remote.is_some() && args.data_dir.is_some() {
        // Durability is an engine property; under a network split it
        // belongs on the cut-server command line.
        return Err(
            "--remote drives a cut-server: durability flags (--data-dir, --snapshot-every, \
             --resident-cap, --fsync) belong on the cut-server command line, not here"
                .into(),
        );
    }
    if args.remote.is_some() {
        // Under a network split the engine lives in the server process;
        // accepting these here would silently configure nothing.
        let engine_flags_touched = args.shards != 1
            || args.batch
            || args.rebalance
            || args.steal
            || args.latency_proxy
            || args.rebalance_window != PlacementOptions::default().window
            || args.cache_entries != EngineConfig::default().max_cache_entries;
        if engine_flags_touched {
            return Err(
                "--remote drives a cut-server: engine flags (--shards, --batch, --rebalance, \
                 --rebalance-window, --steal, --latency-proxy, --cache-entries) belong on the \
                 cut-server command line, not here"
                    .into(),
            );
        }
        if args.no_dynconn {
            return Err("--no-dynconn is in-process only: cut-server has no such flag".into());
        }
    }
    Ok(args)
}

/// How long an open-loop collector parks on a ticket (or its intake
/// channel) when a non-blocking sweep found nothing. A bounded park in
/// place of a spin: the recv wakes early the moment the awaited answer
/// lands, so only answers landing on *other* tickets can be stamped up
/// to this much late.
const COLLECTOR_PARK: Duration = Duration::from_micros(200);

fn percentile(sorted_nanos: &[u64], p: f64) -> u64 {
    if sorted_nanos.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted_nanos.len() - 1) as f64).round() as usize;
    sorted_nanos[rank.min(sorted_nanos.len() - 1)]
}

/// Decode a `stats metrics` response into a registry. A malformed
/// snapshot is a harness/engine bug, not a workload error — abort loudly.
fn decode_metrics(response: Response) -> Registry {
    match response {
        Response::Metrics { snapshot } => Registry::from_wire(&snapshot).unwrap_or_else(|e| {
            eprintln!("error: undecodable metrics snapshot: {e}");
            std::process::exit(1);
        }),
        other => {
            eprintln!("error: stats metrics answered: {other}");
            std::process::exit(1);
        }
    }
}

fn fmt_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Build (or load) the workload the flags describe.
fn build_workload(args: &Args) -> Result<Workload, String> {
    if let Some(path) = &args.trace_in {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading trace {path}: {e}"))?;
        return Workload::from_trace(&text).map_err(|e| format!("parsing trace {path}: {e}"));
    }
    let cfg = WorkloadConfig {
        ops: args.ops,
        seed: args.seed,
        graphs: args.graphs,
        initial_n: args.initial_n,
        zipf_exponent: args.zipf,
        mix: args.mix,
        // The whale preset's huge sparse g000: ~10× the default graph
        // size, so s-t and global cuts on it dominate the serve time.
        whale_n: if args.phases == "whale" { 480 } else { 0 },
        ..WorkloadConfig::default()
    };
    let rate = args.arrival.base_rate().unwrap_or(20_000.0);
    let timeline = match args.phases.as_str() {
        "single" => Timeline::single("main", args.ops, args.arrival.materialize(args.ops)),
        "bursty" => Timeline::bursty(args.ops, rate, args.mix, args.zipf),
        "diurnal" => Timeline::diurnal(args.ops, rate, args.mix, args.zipf),
        "flash" => Timeline::flash(args.ops, rate, args.mix, args.zipf),
        "write-storm" => Timeline::write_storm(args.ops, rate, args.mix, args.zipf),
        "whale" => Timeline::whale(args.ops, rate, args.mix, args.zipf),
        other => return Err(format!("unknown phases preset '{other}'")),
    };
    // `single` + `closed` must stay the legacy closed-loop workload.
    if args.phases == "single" && args.arrival == ArrivalArg::Closed {
        return Ok(Workload::generate(&cfg));
    }
    Ok(Workload::generate_timeline(&cfg, &timeline))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // Under --trace-in the generation flags do not describe the workload
    // (the trace does) — print only what is actually in effect.
    if let Some(path) = &args.trace_in {
        println!(
            "cut-engine stress: trace={path} shards={} batch={} rebalance={} steal={} \
             latency-proxy={} cache-entries={} dynconn={}",
            args.shards,
            args.batch,
            args.rebalance,
            args.steal,
            args.latency_proxy,
            args.cache_entries,
            !args.no_dynconn
        );
    } else {
        println!(
            "cut-engine stress: ops={} seed={} graphs={} initial-n={} zipf={} mix={} shards={} \
             batch={} rebalance={} steal={} latency-proxy={} arrival={:?} phases={} \
             cache-entries={} dynconn={}",
            args.ops,
            args.seed,
            args.graphs,
            args.initial_n,
            args.zipf,
            args.mix_name,
            args.shards,
            args.batch,
            args.rebalance,
            args.steal,
            args.latency_proxy,
            args.arrival,
            args.phases,
            args.cache_entries,
            !args.no_dynconn
        );
    }

    let t_gen = Instant::now();
    let workload = match build_workload(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} {} requests ({} create + {} ops, {}) in {}",
        if args.trace_in.is_some() { "loaded" } else { "generated" },
        workload.len(),
        workload.prologue.len(),
        workload.operations.len(),
        if workload.is_open_loop() { "open-loop" } else { "closed-loop" },
        fmt_nanos(t_gen.elapsed().as_nanos() as u64)
    );

    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, workload.to_trace()) {
            eprintln!("error: writing trace {path}: {e}");
            std::process::exit(1);
        }
        println!("workload trace written to {path}");
    }

    // Durable mode: open (and recover) the store before any engine runs,
    // and keep the handle so the report can read its counters afterwards.
    let store = args.data_dir.as_ref().map(|dir| {
        let opts = StoreOptions {
            snapshot_every: args.snapshot_every.unwrap_or(StoreOptions::default().snapshot_every),
            fsync: args.fsync,
        };
        let store = match Store::open(dir, opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: opening data dir {dir}: {e}");
                std::process::exit(1);
            }
        };
        let r = store.recovery_report();
        println!(
            "durable: recovered {} graphs from {dir} ({} WAL records, {} torn tails truncated, \
             {} tombstones collected, {} orphan tmps removed)",
            r.graphs, r.wal_records, r.torn_tails, r.tombstones_gcd, r.orphan_tmps
        );
        Arc::new(store)
    });

    let engine_cfg = EngineConfig {
        max_cache_entries: args.cache_entries,
        resident_cap: args.resident_cap,
        dynamic_index: !args.no_dynconn,
        ..EngineConfig::default()
    };
    let placement = PlacementOptions {
        rebalance: args.rebalance,
        window: args.rebalance_window,
        steal: args.steal,
        latency_proxy: args.latency_proxy,
        ..PlacementOptions::default()
    };
    let opts = ShardOptions {
        cfg: engine_cfg.clone(),
        batch: args.batch,
        placement,
        store: store.clone().map(|s| s as Arc<dyn GraphStore>),
        ..ShardOptions::default()
    };
    let sharded_path = args.shards > 1
        || args.batch
        || args.rebalance
        || args.steal
        || args.latency_proxy
        || workload.is_open_loop();
    let mut report = if let Some(addr) = &args.remote {
        println!("remote: driving cut-server at {addr} over {} connection(s)", args.connections);
        if workload.is_open_loop() {
            run_remote_open(&workload, addr, args.connections)
        } else {
            run_remote_closed(&workload, addr, args.connections)
        }
    } else if workload.is_open_loop() {
        run_open_loop(&workload, args.shards, opts)
    } else if !sharded_path {
        run_single(&workload, engine_cfg, store.clone())
    } else {
        run_sharded(&workload, args.shards, opts)
    };

    let stats = report.stats;
    let total_ops = workload.len();
    let ops_per_sec = total_ops as f64 / report.wall.as_secs_f64();

    println!();
    println!(
        "replayed {total_ops} ops in {:.3}s  ({ops_per_sec:.0} ops/sec, {} errors)",
        report.wall.as_secs_f64(),
        report.errors
    );
    // Cache and index counters live in the engine; under --remote that is
    // the server's process, so there is nothing truthful to print here.
    if args.remote.is_none() {
        println!(
            "cache: {} hits / {} misses over {} queries  (hit rate {:.1}%, {} lru evictions)",
            stats.cache_hits,
            stats.cache_misses,
            stats.queries,
            stats.hit_rate() * 100.0,
            stats.index.lru_evictions,
        );
        print_index_efficiency(&stats, args.batch);
    }

    if let Some(latencies) = &mut report.latencies {
        println!();
        println!(
            "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "action", "count", "p50", "p90", "p99", "max", "total"
        );
        for (kind, nanos) in latencies.iter_mut() {
            nanos.sort_unstable();
            let total: u64 = nanos.iter().sum();
            println!(
                "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                kind,
                nanos.len(),
                fmt_nanos(percentile(nanos, 50.0)),
                fmt_nanos(percentile(nanos, 90.0)),
                fmt_nanos(percentile(nanos, 99.0)),
                fmt_nanos(*nanos.last().unwrap()),
                fmt_nanos(total),
            );
        }
    }

    if let Some(open) = &mut report.open {
        println!();
        println!(
            "open-loop latency under load ({}completion − scheduled arrival):",
            if args.remote.is_some() { "end-to-end client-observed: " } else { "" }
        );
        println!(
            "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "phase", "ops", "p50", "p95", "p99", "max", "q-mean", "q-max"
        );
        let mut all: Vec<u64> = Vec::new();
        for phase in &mut open.phases {
            phase.lat.sort_unstable();
            all.extend_from_slice(&phase.lat);
            let q_mean = if phase.depth_samples == 0 {
                0.0
            } else {
                phase.depth_sum as f64 / phase.depth_samples as f64
            };
            println!(
                "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9.1} {:>8}",
                phase.name,
                phase.lat.len(),
                fmt_nanos(percentile(&phase.lat, 50.0)),
                fmt_nanos(percentile(&phase.lat, 95.0)),
                fmt_nanos(percentile(&phase.lat, 99.0)),
                fmt_nanos(phase.lat.last().copied().unwrap_or(0)),
                q_mean,
                phase.depth_max,
            );
        }
        all.sort_unstable();
        println!(
            "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "overall",
            all.len(),
            fmt_nanos(percentile(&all, 50.0)),
            fmt_nanos(percentile(&all, 95.0)),
            fmt_nanos(percentile(&all, 99.0)),
            fmt_nanos(all.last().copied().unwrap_or(0)),
        );
        println!(
            "schedule horizon {} (offered {:.0} ops/sec); replay wall {}",
            fmt_nanos(open.horizon_nanos),
            if open.horizon_nanos == 0 {
                0.0
            } else {
                all.len() as f64 / (open.horizon_nanos as f64 / 1e9)
            },
            fmt_nanos(report.wall.as_nanos() as u64),
        );
    }

    if let Some(occupancy) = &report.occupancy {
        let routed_total: u64 = occupancy.iter().map(|(r, _)| *r).sum::<u64>().max(1);
        let busy_total: u64 = occupancy.iter().map(|(_, s)| s.serve_nanos).sum::<u64>().max(1);
        println!();
        println!(
            "{:<8} {:>8} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
            "shard",
            "routed",
            "share",
            "busy",
            "graphs",
            "queries",
            "mutations",
            "hit-rate",
            "mig-in",
            "mig-out",
            "steals"
        );
        for (shard, (routed, s)) in occupancy.iter().enumerate() {
            // Graphs owned now: arrivals (creates + migrations in) minus
            // departures (drops + migrations out).
            let owned = (s.graphs_created + s.migrations_in) as i64
                - (s.graphs_dropped + s.migrations_out) as i64;
            println!(
                "{:<8} {:>8} {:>6.1}% {:>6.1}% {:>7} {:>9} {:>9} {:>8.1}% {:>7} {:>7} {:>7}",
                shard,
                routed,
                *routed as f64 / routed_total as f64 * 100.0,
                s.serve_nanos as f64 / busy_total as f64 * 100.0,
                owned,
                s.queries,
                s.mutations,
                s.hit_rate() * 100.0,
                s.migrations_in,
                s.migrations_out,
                s.steal_batches,
            );
        }
        let max_share = occupancy.iter().map(|(r, _)| *r).max().unwrap_or(0) as f64
            / routed_total as f64
            * 100.0;
        let max_busy = occupancy.iter().map(|(_, s)| s.serve_nanos).max().unwrap_or(0) as f64
            / busy_total as f64
            * 100.0;
        println!(
            "max shard occupancy: {max_share:.1}% of routed requests, {max_busy:.1}% of busy time"
        );
    }

    if let Some(placement) = &report.placement {
        let stats = &report.stats;
        println!();
        println!(
            "placement: {} rebalances, {} migrations (generation {}){}",
            placement.rebalances,
            placement.migrations,
            placement.generation,
            if args.latency_proxy { "  [latency proxy]" } else { "" }
        );
        if stats.steal_batches > 0 {
            println!(
                "stealing: {} runs / {} reads served by idle shards (mean run {:.1})",
                stats.steal_batches,
                stats.steal_reads,
                stats.steal_reads as f64 / stats.steal_batches as f64,
            );
        }
        if !placement.assignments.is_empty() {
            let assignment: Vec<String> = placement
                .assignments
                .iter()
                .map(|(name, shard)| format!("{name}->s{shard}"))
                .collect();
            println!("final assignment: {}", assignment.join("  "));
        }
    }

    if let Some(conn_stats) = &report.connections {
        println!();
        println!("per-connection throughput:");
        println!("{:<12} {:>10} {:>8} {:>12}", "connection", "ops", "errors", "ops/sec");
        for (c, (ops, errs)) in conn_stats.iter().enumerate() {
            println!(
                "{:<12} {:>10} {:>8} {:>12.0}",
                c,
                ops,
                errs,
                *ops as f64 / report.wall.as_secs_f64()
            );
        }
    }

    if let Some(metrics) = &report.metrics {
        let overall_q = metrics.histogram("request_queue_wait_nanos");
        let overall_s = metrics.histogram("request_serve_nanos");
        if let (Some(q), Some(s)) = (overall_q, overall_s) {
            println!();
            println!(
                "telemetry: queue-wait / serve-time per named request (merged across shards):"
            );
            println!(
                "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "phase", "ops", "qw-p50", "qw-p99", "qw-max", "sv-p50", "sv-p99", "sv-max"
            );
            let row = |name: &str, q: &Histogram, s: &Histogram| {
                println!(
                    "{:<12} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    name,
                    s.count(),
                    fmt_nanos(q.quantile(0.5)),
                    fmt_nanos(q.quantile(0.99)),
                    fmt_nanos(q.max()),
                    fmt_nanos(s.quantile(0.5)),
                    fmt_nanos(s.quantile(0.99)),
                    fmt_nanos(s.max()),
                );
            };
            if let Some(open) = &report.open {
                for (phase, (ph_q, ph_s)) in open.phases.iter().zip(&open.phase_telemetry) {
                    row(&phase.name, ph_q, ph_s);
                }
            }
            row("overall", q, s);
        }
    }

    if let Some(store) = &store {
        let c = store.counters();
        let r = store.recovery_report();
        println!();
        println!(
            "durability: {} WAL appends, {} snapshots + {} compactions, {} spills / {} \
             fault-ins, {} records replayed{}",
            c.wal_appends,
            c.snapshots,
            c.compactions,
            c.spills,
            c.fault_ins,
            c.replayed,
            if args.fsync { "  [fsync]" } else { "" }
        );
        println!(
            "recovery: {} graphs adopted, {} WAL records, {} torn tails truncated, {} \
             tombstones collected, {} orphan tmps removed",
            r.graphs, r.wal_records, r.torn_tails, r.tombstones_gcd, r.orphan_tmps
        );
    }

    let digest = fnv1a(report.log.as_bytes());
    println!();
    println!("log digest: {:#018x}  ({} log bytes)", digest, report.log.len());
    println!("(re-run with the same --seed: the digest must not change)");

    if let Some(path) = &args.dump_log {
        if let Err(e) = std::fs::write(path, &report.log) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("operation log written to {path}");
    }

    if let Some(path) = &args.json_out {
        let json =
            render_json(&args, &workload, &mut report, digest, ops_per_sec, store.as_deref());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("json report written to {path}");
    }

    if let Some(path) = &args.metrics_out {
        match &report.metrics {
            Some(metrics) => {
                if let Err(e) = std::fs::write(path, metrics.render_json()) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                println!("metrics snapshot (cut-metrics/1) written to {path}");
            }
            None => {
                eprintln!("error: no metrics snapshot collected for --metrics-out");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.metrics_text {
        match &report.metrics {
            Some(metrics) => {
                if let Err(e) = std::fs::write(path, metrics.render_text()) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                println!("metrics exposition (Prometheus text) written to {path}");
            }
            None => {
                eprintln!("error: no metrics snapshot collected for --metrics-text");
                std::process::exit(1);
            }
        }
    }
}

/// The index-efficiency section: how much per-request work the index
/// layer (and, when enabled, the shard workers' read batching) absorbed.
fn print_index_efficiency(stats: &EngineStats, batch: bool) {
    let idx = &stats.index;
    println!();
    println!(
        "index: csr builds={} reuses={} (reuse rate {:.1}%)  dsu fast-path={} rebuilds={} \
         resizes={}",
        idx.csr_builds,
        idx.csr_reuses,
        idx.reuse_rate() * 100.0,
        idx.dsu_fast_hits,
        idx.dsu_rebuilds,
        idx.dsu_resizes,
    );
    println!(
        "cut gate: recomputes={} certified-skips={}",
        stats.cut_recomputes, stats.cut_certified_skips,
    );

    let any_kind = stats.builds_by_kind.iter().zip(&stats.reuse_by_kind).any(|(b, r)| *b + *r > 0);
    if any_kind {
        println!("{:<16} {:>8} {:>8} {:>9}", "action", "builds", "avoided", "avoid%");
        for (kind, label) in QUERY_KINDS.iter().enumerate() {
            let (builds, avoided) = (stats.builds_by_kind[kind], stats.reuse_by_kind[kind]);
            if builds + avoided == 0 {
                continue;
            }
            println!(
                "{:<16} {:>8} {:>8} {:>8.1}%",
                label,
                builds,
                avoided,
                avoided as f64 / (builds + avoided) as f64 * 100.0,
            );
        }
    }

    if batch {
        let avg = if stats.batches == 0 {
            0.0
        } else {
            stats.batched_reads as f64 / stats.batches as f64
        };
        println!(
            "batching: {} read batches over {} reads (mean size {:.2})",
            stats.batches, stats.batched_reads, avg,
        );
        let hist: Vec<String> = BATCH_BUCKET_LABELS
            .iter()
            .zip(&stats.batch_hist)
            .filter(|(_, count)| **count > 0)
            .map(|(label, count)| format!("{label}:{count}"))
            .collect();
        println!("batch sizes: {}", if hist.is_empty() { "-".into() } else { hist.join("  ") });
    }
}

/// Per-phase open-loop measurements.
struct PhaseLatency {
    name: String,
    /// Completion − scheduled arrival, nanos, one per operation.
    lat: Vec<u64>,
    /// Queue-depth samples (in-flight count at each submission).
    depth_sum: u64,
    depth_max: u64,
    depth_samples: u64,
}

/// What the open-loop replay measured on top of the common report.
struct OpenLoopReport {
    phases: Vec<PhaseLatency>,
    /// Last scheduled arrival (the offered-load horizon).
    horizon_nanos: u64,
    /// Per-phase `(queue_wait, serve_time)` interval histograms, diffed
    /// from the metrics barriers submitted at phase boundaries — local
    /// runs only (remote phase boundaries are not cross-connection
    /// barriers, so per-phase numbers would lie). Parallel to `phases`;
    /// empty when not collected.
    phase_telemetry: Vec<(Histogram, Histogram)>,
}

/// What a replay produced, whichever execution front ran it.
struct RunReport {
    /// The deterministic `index request -> response` log.
    log: String,
    errors: usize,
    wall: std::time::Duration,
    /// Engine counters (summed across shards on the sharded path).
    stats: cut_engine::EngineStats,
    /// Per-action latency samples — single-shard closed-loop path only
    /// (per-op service timing is meaningless when ops overlap).
    latencies: Option<BTreeMap<&'static str, Vec<u64>>>,
    /// `(requests routed, final per-shard stats)` — sharded path only.
    occupancy: Option<Vec<(u64, cut_engine::EngineStats)>>,
    /// Adaptive-placement summary — sharded path only.
    placement: Option<PlacementReport>,
    /// Latency-under-load measurements — open-loop path only.
    open: Option<OpenLoopReport>,
    /// `(ops submitted, error responses)` per connection — remote path
    /// only (prologue setup is excluded from open-loop counts).
    connections: Option<Vec<(u64, u64)>>,
    /// End-of-run merged telemetry snapshot (the `stats metrics`
    /// broadcast): request lifecycle histograms plus engine/store
    /// counters. The metrics requests that produce it ride outside the
    /// digest-logged stream, so the log is byte-identical with and
    /// without collection.
    metrics: Option<Registry>,
}

/// Replay through the single-threaded `Engine::execute` path, timing each
/// op individually.
fn run_single(workload: &Workload, cfg: EngineConfig, store: Option<Arc<Store>>) -> RunReport {
    let mut engine = Engine::with_config(cfg);
    if let Some(store) = store {
        // A single engine owns every durable graph; adopt them all so a
        // re-run on a populated --data-dir resumes where the log ends.
        engine.attach_store(Arc::clone(&store) as Arc<dyn GraphStore>);
        for name in store.names() {
            engine.adopt_stored(&name);
        }
    }
    let mut log = String::with_capacity(workload.len() * 64);
    let mut latencies: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut errors = 0usize;

    let t_run = Instant::now();
    for (i, request) in workload.all_requests().enumerate() {
        let kind = request.kind();
        let t_op = Instant::now();
        let response = engine.execute(request.clone());
        let nanos = t_op.elapsed().as_nanos() as u64;
        latencies.entry(kind).or_default().push(nanos);
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        // The log line carries no timing, so it is identical across runs
        // with the same seed.
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }
    let wall = t_run.elapsed();
    // Snapshot outside the logged stream: the single-threaded path has no
    // worker spans, but engine and store counters still export.
    let metrics = decode_metrics(engine.execute(Request::Metrics));

    RunReport {
        log,
        errors,
        wall,
        stats: engine.stats(),
        latencies: Some(latencies),
        occupancy: None,
        placement: None,
        open: None,
        connections: None,
        metrics: Some(metrics),
    }
}

/// Replay through an N-shard `ShardedEngine`, keeping a bounded window of
/// in-flight tickets so shards overlap while memory stays flat. Responses
/// are collected in submission order, so the log (and its digest) is
/// byte-identical to the single-shard path.
fn run_sharded(workload: &Workload, shards: usize, opts: ShardOptions) -> RunReport {
    // The placement section only belongs in reports where the adaptive
    // layer was on; a plain --shards/--batch run keeps its old shape.
    let adaptive = opts.placement.rebalance || opts.placement.steal;
    /// In-flight cap: deep enough to keep every shard busy (and to give
    /// batching workers real runs to coalesce), small enough that pending
    /// tickets never hold more than a sliver of the log.
    const WINDOW: usize = 1024;

    let mut engine = ShardedEngine::with_options(shards, opts);
    let mut log = String::with_capacity(workload.len() * 64);
    let mut errors = 0usize;
    let mut inflight: VecDeque<(usize, &Request, Ticket)> = VecDeque::new();

    fn drain(entry: (usize, &Request, Ticket), log: &mut String, errors: &mut usize) {
        let (i, request, ticket) = entry;
        let response = ticket.wait();
        if matches!(response, Response::Error { .. }) {
            *errors += 1;
        }
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }

    let t_run = Instant::now();
    for (i, request) in workload.all_requests().enumerate() {
        let ticket = engine.submit(request.clone());
        inflight.push_back((i, request, ticket));
        if inflight.len() >= WINDOW {
            drain(inflight.pop_front().expect("non-empty window"), &mut log, &mut errors);
        }
    }
    while let Some(entry) = inflight.pop_front() {
        drain(entry, &mut log, &mut errors);
    }
    let wall = t_run.elapsed();
    // A metrics barrier after the last logged op: the merged snapshot
    // covers every named request of the run, and the request itself rides
    // outside the digest-logged stream.
    let metrics = decode_metrics(engine.submit(Request::Metrics).wait());

    let routed = engine.routed().to_vec();
    let placement = engine.placement_report();
    let per_shard = engine.shutdown();
    let mut stats = cut_engine::EngineStats::default();
    for s in &per_shard {
        stats.merge(s);
    }

    RunReport {
        log,
        errors,
        wall,
        stats,
        latencies: None,
        occupancy: Some(routed.into_iter().zip(per_shard).collect()),
        placement: adaptive.then_some(placement),
        open: None,
        connections: None,
        metrics: Some(metrics),
    }
}

/// Replay an open-loop workload: submit each operation at its scheduled
/// arrival regardless of engine backlog, and measure latency under load
/// (completion − scheduled arrival) per phase.
///
/// Always drives the sharded front-end (its response stream is
/// byte-identical to the plain engine at any shard count, so the digest is
/// comparable across every execution shape). A collector thread polls
/// in-flight tickets with [`Ticket::try_wait`] so completions are stamped
/// when they happen, not when an earlier slow request finally resolves.
fn run_open_loop(workload: &Workload, shards: usize, opts: ShardOptions) -> RunReport {
    assert!(workload.is_open_loop(), "open-loop replay needs an arrival schedule");
    let adaptive = opts.placement.rebalance || opts.placement.steal;
    let mut engine = ShardedEngine::with_options(shards, opts);
    let mut log = String::with_capacity(workload.len() * 64);
    let mut errors = 0usize;

    let t_run = Instant::now();
    // Prologue: closed-loop, untimed — registering the graph population is
    // setup, not offered load.
    for (i, request) in workload.prologue.iter().enumerate() {
        let response = engine.execute(request.clone());
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }

    // Metrics barriers bracket each phase: a baseline after the prologue,
    // one at each phase boundary, one after the last operation. Broadcast
    // merges have Stats barrier semantics — a snapshot submitted after
    // phase k's last operation covers exactly phases <= k — so diffing
    // consecutive snapshots yields per-phase interval histograms. None of
    // these ride the logged stream: the digest is byte-identical with or
    // without them.
    let mut metric_tickets: Vec<Ticket> = vec![engine.submit(Request::Metrics)];

    // Collector: polls outstanding tickets, stamping each completion as it
    // lands; results come back keyed by operation index.
    let completed = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, u64, Ticket)>();
    let t0 = Instant::now();
    let collector = {
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let mut outstanding: VecDeque<(usize, u64, Ticket)> = VecDeque::new();
            let mut done: Vec<(usize, u64, Response)> = Vec::new();
            let mut closed = false;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(item) => outstanding.push_back(item),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            closed = true;
                            break;
                        }
                    }
                }
                let mut progressed = false;
                let mut i = 0;
                while i < outstanding.len() {
                    if let Some(response) = outstanding[i].2.try_wait() {
                        let now = t0.elapsed().as_nanos() as u64;
                        let (op, sched, _) = outstanding.remove(i).expect("index in range");
                        done.push((op, now.saturating_sub(sched), response));
                        completed.fetch_add(1, Ordering::Relaxed);
                        progressed = true;
                    } else {
                        i += 1;
                    }
                }
                if closed && outstanding.is_empty() {
                    return done;
                }
                if !progressed {
                    // Nothing landed this sweep: park on the oldest
                    // outstanding ticket instead of hot-polling — the
                    // recv wakes the instant that answer arrives, so its
                    // stamp stays exact, and the timeout bounds staleness
                    // for answers landing on younger tickets.
                    if let Some(front) = outstanding.front_mut() {
                        if let Some(response) = front.2.wait_timeout(COLLECTOR_PARK) {
                            let now = t0.elapsed().as_nanos() as u64;
                            let (op, sched, _) = outstanding.pop_front().expect("non-empty");
                            done.push((op, now.saturating_sub(sched), response));
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        // Queue empty, pacer still running: block for the
                        // next submission rather than spinning on try_recv.
                        match rx.recv_timeout(COLLECTOR_PARK) {
                            Ok(item) => outstanding.push_back(item),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => closed = true,
                        }
                    }
                }
            }
        })
    };

    // Pace the submissions against the schedule.
    let mut phases: Vec<PhaseLatency> = workload
        .phases
        .iter()
        .map(|(name, ops)| PhaseLatency {
            name: name.clone(),
            lat: Vec::with_capacity(*ops),
            depth_sum: 0,
            depth_max: 0,
            depth_samples: 0,
        })
        .collect();
    let mut cur_phase = 0usize;
    for (op, request) in workload.operations.iter().enumerate() {
        if let Some(p) = workload.phase_of(op) {
            // Entering a new phase: snapshot the end of every phase
            // crossed (empty phases get a duplicate boundary).
            for _ in cur_phase..p {
                metric_tickets.push(engine.submit(Request::Metrics));
            }
            cur_phase = p;
        }
        let sched = workload.arrivals[op];
        loop {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= sched {
                break;
            }
            let wait = sched - now;
            if wait > 100_000 {
                std::thread::sleep(Duration::from_nanos(wait - 50_000));
            } else {
                std::hint::spin_loop();
            }
        }
        let ticket = engine.submit(request.clone());
        tx.send((op, sched, ticket)).expect("collector alive until sender drops");
        let depth = (op as u64 + 1).saturating_sub(completed.load(Ordering::Relaxed));
        if let Some(p) = workload.phase_of(op) {
            phases[p].depth_sum += depth;
            phases[p].depth_max = phases[p].depth_max.max(depth);
            phases[p].depth_samples += 1;
        }
    }
    // End-of-run snapshots for the last phase (and any trailing empty
    // ones), keeping one end snapshot per phase plus the baseline.
    for _ in cur_phase..phases.len() {
        metric_tickets.push(engine.submit(Request::Metrics));
    }
    drop(tx);
    let mut done = collector.join().expect("collector thread panicked");
    let wall = t_run.elapsed();
    let snapshots: Vec<Registry> =
        metric_tickets.into_iter().map(|t| decode_metrics(t.wait())).collect();

    // Assemble the log in submission order and bucket latencies per phase.
    done.sort_unstable_by_key(|(op, _, _)| *op);
    let base = workload.prologue.len();
    for (op, latency, response) in done {
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        let request = &workload.operations[op];
        log.push_str(&format!("{:06} {request} -> {response}\n", base + op));
        if let Some(p) = workload.phase_of(op) {
            phases[p].lat.push(latency);
        }
    }

    // Phase k's interval histograms: end-of-k snapshot minus end-of-(k-1)
    // (the baseline for phase 0, which therefore excludes the prologue).
    let hist = |r: &Registry, name: &str| r.histogram(name).cloned().unwrap_or_default();
    let phase_telemetry: Vec<(Histogram, Histogram)> = (0..phases.len())
        .map(|k| {
            let (before, after) = (&snapshots[k], &snapshots[k + 1]);
            (
                hist(after, "request_queue_wait_nanos")
                    .diff(&hist(before, "request_queue_wait_nanos")),
                hist(after, "request_serve_nanos").diff(&hist(before, "request_serve_nanos")),
            )
        })
        .collect();

    let routed = engine.routed().to_vec();
    let placement = engine.placement_report();
    let per_shard = engine.shutdown();
    let mut stats = cut_engine::EngineStats::default();
    for s in &per_shard {
        stats.merge(s);
    }

    RunReport {
        log,
        errors,
        wall,
        stats,
        latencies: None,
        occupancy: Some(routed.into_iter().zip(per_shard).collect()),
        placement: adaptive.then_some(placement),
        open: Some(OpenLoopReport {
            phases,
            horizon_nanos: workload.arrivals.last().copied().unwrap_or(0),
            phase_telemetry,
        }),
        connections: None,
        metrics: snapshots.last().cloned(),
    }
}

/// Abort a remote run: a [`ClientError`] means the connection (or the
/// server) is gone, and the response stream — hence the log and digest —
/// can no longer be completed truthfully.
fn fatal_remote(op: usize, e: &ClientError) -> ! {
    eprintln!("error: remote run failed at op {op}: {e}");
    std::process::exit(1);
}

/// Which connection serves `request`: per-graph affinity via the same
/// FNV-1a trick the shard router uses, so every request touching a graph
/// rides one connection and per-graph ordering survives the fan-out.
/// Broadcasts (`list`, `stats` and its `metrics`/`slowlog` subcommands)
/// ride connection 0. At `connections == 1` the whole stream shares one
/// pipeline and the response log is byte-identical to an in-process run.
fn conn_for(request: &Request, connections: usize) -> usize {
    if connections <= 1 {
        return 0;
    }
    match request {
        Request::Create { name, .. }
        | Request::Drop { name }
        | Request::Mutate { name, .. }
        | Request::Query { name, .. } => (fnv1a(name.as_bytes()) % connections as u64) as usize,
        Request::ListGraphs | Request::Stats | Request::Metrics | Request::Slowlog => 0,
    }
}

/// Dial `connections` sockets, retrying with backoff so a freshly
/// backgrounded `cut-server` has time to bind (the CI loopback pattern).
fn open_connections(addr: &str, connections: usize) -> Vec<Connection> {
    let policy = ReconnectPolicy {
        attempts: 8,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
    };
    (0..connections)
        .map(|c| {
            Connection::connect_with_retry(addr, &policy).unwrap_or_else(|e| {
                eprintln!("error: connecting to {addr} (connection {c}): {e}");
                std::process::exit(1);
            })
        })
        .collect()
}

/// Closed-loop replay against a remote `cut-server`: the same bounded
/// in-flight window as [`run_sharded`], but tickets resolve over the
/// wire. Responses are drained in global submission order (each
/// connection's stream is in-order, so cross-connection waits are safe).
fn run_remote_closed(workload: &Workload, addr: &str, connections: usize) -> RunReport {
    /// Same depth as the in-process window: deep enough to keep the
    /// server's shards busy across the network, bounded so client memory
    /// stays flat.
    const WINDOW: usize = 1024;

    fn drain_one(
        inflight: &mut VecDeque<(usize, &Request, usize, RemoteTicket)>,
        log: &mut String,
        errors: &mut usize,
        conn_stats: &mut [(u64, u64)],
    ) {
        let (i, request, c, ticket) = inflight.pop_front().expect("non-empty window");
        let response = ticket.wait().unwrap_or_else(|e| fatal_remote(i, &e));
        if matches!(response, Response::Error { .. }) {
            *errors += 1;
            conn_stats[c].1 += 1;
        }
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }

    let mut conns = open_connections(addr, connections);
    let mut log = String::with_capacity(workload.len() * 64);
    let mut errors = 0usize;
    let mut conn_stats = vec![(0u64, 0u64); connections];
    let mut inflight: VecDeque<(usize, &Request, usize, RemoteTicket)> = VecDeque::new();

    let t_run = Instant::now();
    for (i, request) in workload.all_requests().enumerate() {
        let c = conn_for(request, connections);
        let ticket = conns[c].submit(request).unwrap_or_else(|e| fatal_remote(i, &e));
        conn_stats[c].0 += 1;
        inflight.push_back((i, request, c, ticket));
        if inflight.len() >= WINDOW {
            drain_one(&mut inflight, &mut log, &mut errors, &mut conn_stats);
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight, &mut log, &mut errors, &mut conn_stats);
    }
    let wall = t_run.elapsed();
    // The server-merged telemetry snapshot, fetched after the last logged
    // op so its histograms cover the whole run (and never enter the log).
    let last = workload.len();
    let metrics = decode_metrics(
        conns[0].execute(&Request::Metrics).unwrap_or_else(|e| fatal_remote(last, &e)),
    );
    for conn in conns {
        conn.close();
    }

    RunReport {
        log,
        errors,
        wall,
        stats: EngineStats::default(),
        latencies: None,
        occupancy: None,
        placement: None,
        open: None,
        connections: Some(conn_stats),
        metrics: Some(metrics),
    }
}

/// Open-loop replay against a remote `cut-server`: the same paced
/// schedule as [`run_open_loop`], but submissions fan out over real
/// sockets and the measured latency is *end-to-end client-observed*
/// (response line parsed at the client − scheduled arrival).
///
/// The collector exploits per-connection response ordering: only each
/// connection's head ticket can land next, so it sweeps the heads
/// non-blockingly and, when nothing lands, parks on the oldest head via
/// [`RemoteTicket::wait_timeout`] instead of hot-polling.
fn run_remote_open(workload: &Workload, addr: &str, connections: usize) -> RunReport {
    assert!(workload.is_open_loop(), "open-loop replay needs an arrival schedule");
    let mut conns = open_connections(addr, connections);
    let mut log = String::with_capacity(workload.len() * 64);
    let mut errors = 0usize;
    let mut conn_stats = vec![(0u64, 0u64); connections];

    let t_run = Instant::now();
    // Prologue: serial and untimed — every graph must exist before the
    // paced stream begins, whichever connection its operations ride.
    for (i, request) in workload.prologue.iter().enumerate() {
        let c = conn_for(request, connections);
        let response = conns[c].execute(request).unwrap_or_else(|e| fatal_remote(i, &e));
        if matches!(response, Response::Error { .. }) {
            errors += 1;
        }
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }

    let completed = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<(usize, u64, usize, RemoteTicket)>();
    let t0 = Instant::now();
    let collector = {
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            let mut queues: Vec<VecDeque<(usize, u64, RemoteTicket)>> =
                (0..connections).map(|_| VecDeque::new()).collect();
            let mut outstanding = 0usize;
            let mut done: Vec<(usize, usize, u64, Response)> = Vec::new();
            let mut closed = false;
            let settle = |entry: (usize, u64, RemoteTicket),
                          c: usize,
                          result: Result<Response, ClientError>,
                          done: &mut Vec<(usize, usize, u64, Response)>| {
                let now = t0.elapsed().as_nanos() as u64;
                let (op, sched, _ticket) = entry;
                let response = result.unwrap_or_else(|e| fatal_remote(op, &e));
                done.push((op, c, now.saturating_sub(sched), response));
                completed.fetch_add(1, Ordering::Relaxed);
            };
            loop {
                loop {
                    match rx.try_recv() {
                        Ok((op, sched, c, ticket)) => {
                            queues[c].push_back((op, sched, ticket));
                            outstanding += 1;
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            closed = true;
                            break;
                        }
                    }
                }
                let mut progressed = false;
                for (c, queue) in queues.iter_mut().enumerate() {
                    // In-order responses: only the head can land next.
                    while let Some(head) = queue.front_mut() {
                        let Some(result) = head.2.try_wait() else { break };
                        let entry = queue.pop_front().expect("non-empty queue");
                        outstanding -= 1;
                        settle(entry, c, result, &mut done);
                        progressed = true;
                    }
                }
                if closed && outstanding == 0 {
                    return done;
                }
                if !progressed {
                    // Park on the oldest head across connections — the
                    // recv wakes the instant that response arrives, so
                    // its stamp stays exact; heads of other connections
                    // wait at most one park interval for their sweep.
                    let oldest = (0..queues.len())
                        .filter(|&c| !queues[c].is_empty())
                        .min_by_key(|&c| queues[c].front().expect("non-empty queue").0);
                    match oldest {
                        Some(c) => {
                            let waited = queues[c]
                                .front_mut()
                                .expect("non-empty queue")
                                .2
                                .wait_timeout(COLLECTOR_PARK);
                            if let Some(result) = waited {
                                let entry = queues[c].pop_front().expect("non-empty queue");
                                outstanding -= 1;
                                settle(entry, c, result, &mut done);
                            }
                        }
                        // Nothing outstanding: block for the next
                        // submission rather than spinning on try_recv.
                        None => match rx.recv_timeout(COLLECTOR_PARK) {
                            Ok((op, sched, c, ticket)) => {
                                queues[c].push_back((op, sched, ticket));
                                outstanding += 1;
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => closed = true,
                        },
                    }
                }
            }
        })
    };

    // Pace the submissions against the schedule (same as the local path).
    let mut phases: Vec<PhaseLatency> = workload
        .phases
        .iter()
        .map(|(name, ops)| PhaseLatency {
            name: name.clone(),
            lat: Vec::with_capacity(*ops),
            depth_sum: 0,
            depth_max: 0,
            depth_samples: 0,
        })
        .collect();
    for (op, request) in workload.operations.iter().enumerate() {
        let sched = workload.arrivals[op];
        loop {
            let now = t0.elapsed().as_nanos() as u64;
            if now >= sched {
                break;
            }
            let wait = sched - now;
            if wait > 100_000 {
                std::thread::sleep(Duration::from_nanos(wait - 50_000));
            } else {
                std::hint::spin_loop();
            }
        }
        let c = conn_for(request, connections);
        let ticket = conns[c].submit(request).unwrap_or_else(|e| fatal_remote(op, &e));
        conn_stats[c].0 += 1;
        tx.send((op, sched, c, ticket)).expect("collector alive until sender drops");
        let depth = (op as u64 + 1).saturating_sub(completed.load(Ordering::Relaxed));
        if let Some(p) = workload.phase_of(op) {
            phases[p].depth_sum += depth;
            phases[p].depth_max = phases[p].depth_max.max(depth);
            phases[p].depth_samples += 1;
        }
    }
    drop(tx);
    let mut done = collector.join().expect("collector thread panicked");
    let wall = t_run.elapsed();
    // Overall server-merged snapshot only: a phase boundary on connection
    // 0 is not a barrier for requests in flight on other connections, so
    // per-phase telemetry would lie here — remote runs report the
    // end-of-run merge and leave the per-phase split to local runs.
    let last = workload.len();
    let metrics = decode_metrics(
        conns[0].execute(&Request::Metrics).unwrap_or_else(|e| fatal_remote(last, &e)),
    );
    for conn in conns {
        conn.close();
    }

    // Assemble the log in submission order and bucket latencies per phase.
    done.sort_unstable_by_key(|&(op, _, _, _)| op);
    let base = workload.prologue.len();
    for (op, c, latency, response) in done {
        if matches!(response, Response::Error { .. }) {
            errors += 1;
            conn_stats[c].1 += 1;
        }
        let request = &workload.operations[op];
        log.push_str(&format!("{:06} {request} -> {response}\n", base + op));
        if let Some(p) = workload.phase_of(op) {
            phases[p].lat.push(latency);
        }
    }

    RunReport {
        log,
        errors,
        wall,
        stats: EngineStats::default(),
        latencies: None,
        occupancy: None,
        placement: None,
        open: Some(OpenLoopReport {
            phases,
            horizon_nanos: workload.arrivals.last().copied().unwrap_or(0),
            phase_telemetry: Vec::new(),
        }),
        connections: Some(conn_stats),
        metrics: Some(metrics),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for graph/mix/addr/path strings; no external dependency.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_str(s: Option<&String>) -> String {
    s.map(|v| json_str(v)).unwrap_or_else(|| "null".to_string())
}

/// One histogram as a compact JSON percentile summary (the full bucket
/// vector lives in the `--metrics-out` cut-metrics/1 artifact; the stress
/// report only carries the digested view).
fn json_hist(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"p50_nanos\": {}, \"p90_nanos\": {}, \"p99_nanos\": {}, \
         \"max_nanos\": {}}}",
        h.count(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

/// Render the whole run as the `cut-stress/1` JSON artifact (`--json-out`).
/// Sections that the execution path did not measure are `null`, so the
/// schema is identical for local and remote, closed- and open-loop runs.
fn render_json(
    args: &Args,
    workload: &Workload,
    report: &mut RunReport,
    digest: u64,
    ops_per_sec: f64,
    store: Option<&Store>,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"cut-stress/1\",\n");

    out.push_str("  \"config\": {\n");
    out.push_str(&format!("    \"trace_in\": {},\n", json_opt_str(args.trace_in.as_ref())));
    out.push_str(&format!("    \"ops\": {},\n", args.ops));
    out.push_str(&format!("    \"seed\": {},\n", args.seed));
    out.push_str(&format!("    \"graphs\": {},\n", args.graphs));
    out.push_str(&format!("    \"initial_n\": {},\n", args.initial_n));
    out.push_str(&format!("    \"zipf\": {},\n", args.zipf));
    out.push_str(&format!("    \"mix\": {},\n", json_str(&args.mix_name)));
    out.push_str(&format!("    \"shards\": {},\n", args.shards));
    out.push_str(&format!("    \"batch\": {},\n", args.batch));
    out.push_str(&format!("    \"rebalance\": {},\n", args.rebalance));
    out.push_str(&format!("    \"rebalance_window\": {},\n", args.rebalance_window));
    out.push_str(&format!("    \"steal\": {},\n", args.steal));
    out.push_str(&format!("    \"latency_proxy\": {},\n", args.latency_proxy));
    out.push_str(&format!("    \"arrival\": {},\n", json_str(&format!("{:?}", args.arrival))));
    out.push_str(&format!("    \"phases\": {},\n", json_str(&args.phases)));
    out.push_str(&format!("    \"cache_entries\": {},\n", args.cache_entries));
    out.push_str(&format!("    \"dynconn\": {},\n", !args.no_dynconn));
    out.push_str(&format!("    \"remote\": {},\n", json_opt_str(args.remote.as_ref())));
    out.push_str(&format!(
        "    \"connections\": {}\n",
        if args.remote.is_some() { args.connections.to_string() } else { "null".to_string() }
    ));
    out.push_str("  },\n");

    out.push_str("  \"totals\": {\n");
    out.push_str(&format!("    \"ops\": {},\n", workload.len()));
    out.push_str(&format!("    \"wall_nanos\": {},\n", report.wall.as_nanos()));
    out.push_str(&format!("    \"ops_per_sec\": {ops_per_sec:.1},\n"));
    out.push_str(&format!("    \"errors\": {}\n", report.errors));
    out.push_str("  },\n");
    out.push_str(&format!("  \"digest\": {},\n", json_str(&format!("{digest:#018x}"))));
    out.push_str(&format!("  \"log_bytes\": {},\n", report.log.len()));

    // Engine-side counters are only truthful when the engine ran in this
    // process; a remote run reports them as null (they live server-side).
    if args.remote.is_some() {
        out.push_str("  \"cache\": null,\n");
    } else {
        let s = &report.stats;
        out.push_str("  \"cache\": {\n");
        out.push_str(&format!("    \"queries\": {},\n", s.queries));
        out.push_str(&format!("    \"mutations\": {},\n", s.mutations));
        out.push_str(&format!("    \"hits\": {},\n", s.cache_hits));
        out.push_str(&format!("    \"misses\": {},\n", s.cache_misses));
        out.push_str(&format!("    \"hit_rate\": {:.4},\n", s.hit_rate()));
        out.push_str(&format!("    \"lru_evictions\": {},\n", s.index.lru_evictions));
        out.push_str(&format!("    \"csr_builds\": {},\n", s.index.csr_builds));
        out.push_str(&format!("    \"csr_reuses\": {},\n", s.index.csr_reuses));
        out.push_str(&format!("    \"dsu_fast_hits\": {},\n", s.index.dsu_fast_hits));
        out.push_str(&format!("    \"dsu_rebuilds\": {},\n", s.index.dsu_rebuilds));
        out.push_str(&format!("    \"dsu_resizes\": {},\n", s.index.dsu_resizes));
        out.push_str(&format!("    \"cut_recomputes\": {},\n", s.cut_recomputes));
        out.push_str(&format!("    \"cut_certified_skips\": {},\n", s.cut_certified_skips));
        out.push_str(&format!("    \"batches\": {},\n", s.batches));
        out.push_str(&format!("    \"batched_reads\": {},\n", s.batched_reads));
        out.push_str(&format!("    \"cross_batches\": {}\n", s.cross_batches));
        out.push_str("  },\n");
    }

    match &mut report.latencies {
        Some(latencies) => {
            out.push_str("  \"actions\": [\n");
            let last = latencies.len().saturating_sub(1);
            for (row, (kind, nanos)) in latencies.iter_mut().enumerate() {
                nanos.sort_unstable();
                let total: u64 = nanos.iter().sum();
                out.push_str(&format!(
                    "    {{\"action\": {}, \"count\": {}, \"p50_nanos\": {}, \"p90_nanos\": {}, \
                     \"p99_nanos\": {}, \"max_nanos\": {}, \"total_nanos\": {}}}{}\n",
                    json_str(kind),
                    nanos.len(),
                    percentile(nanos, 50.0),
                    percentile(nanos, 90.0),
                    percentile(nanos, 99.0),
                    nanos.last().copied().unwrap_or(0),
                    total,
                    if row == last { "" } else { "," },
                ));
            }
            out.push_str("  ],\n");
        }
        None => out.push_str("  \"actions\": null,\n"),
    }

    match &mut report.open {
        Some(open) => {
            out.push_str("  \"open_loop\": {\n");
            out.push_str(&format!("    \"horizon_nanos\": {},\n", open.horizon_nanos));
            out.push_str("    \"phases\": [\n");
            let last = open.phases.len().saturating_sub(1);
            for (row, phase) in open.phases.iter_mut().enumerate() {
                phase.lat.sort_unstable();
                let q_mean = if phase.depth_samples == 0 {
                    0.0
                } else {
                    phase.depth_sum as f64 / phase.depth_samples as f64
                };
                out.push_str(&format!(
                    "      {{\"name\": {}, \"ops\": {}, \"p50_nanos\": {}, \"p95_nanos\": {}, \
                     \"p99_nanos\": {}, \"max_nanos\": {}, \"queue_depth_mean\": {:.2}, \
                     \"queue_depth_max\": {}}}{}\n",
                    json_str(&phase.name),
                    phase.lat.len(),
                    percentile(&phase.lat, 50.0),
                    percentile(&phase.lat, 95.0),
                    percentile(&phase.lat, 99.0),
                    phase.lat.last().copied().unwrap_or(0),
                    q_mean,
                    phase.depth_max,
                    if row == last { "" } else { "," },
                ));
            }
            out.push_str("    ]\n  },\n");
        }
        None => out.push_str("  \"open_loop\": null,\n"),
    }

    match &report.occupancy {
        Some(occupancy) => {
            out.push_str("  \"occupancy\": [\n");
            let last = occupancy.len().saturating_sub(1);
            for (shard, (routed, s)) in occupancy.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"shard\": {shard}, \"routed\": {routed}, \"serve_nanos\": {}, \
                     \"queries\": {}, \"mutations\": {}, \"hit_rate\": {:.4}, \
                     \"migrations_in\": {}, \"migrations_out\": {}, \"steal_batches\": {}}}{}\n",
                    s.serve_nanos,
                    s.queries,
                    s.mutations,
                    s.hit_rate(),
                    s.migrations_in,
                    s.migrations_out,
                    s.steal_batches,
                    if shard == last { "" } else { "," },
                ));
            }
            out.push_str("  ],\n");
        }
        None => out.push_str("  \"occupancy\": null,\n"),
    }

    match &report.placement {
        Some(p) => out.push_str(&format!(
            "  \"placement\": {{\"rebalances\": {}, \"migrations\": {}, \"generation\": {}}},\n",
            p.rebalances, p.migrations, p.generation
        )),
        None => out.push_str("  \"placement\": null,\n"),
    }

    // Request-lifecycle telemetry from the end-of-run `stats metrics`
    // snapshot; null when the path records no worker spans (the
    // single-threaded local front). Per-phase interval histograms exist
    // only for local open-loop runs (see `OpenLoopReport`).
    let span_hists = report.metrics.as_ref().and_then(|m| {
        Some((m.histogram("request_queue_wait_nanos")?, m.histogram("request_serve_nanos")?))
    });
    match span_hists {
        Some((q, s)) => {
            out.push_str("  \"telemetry\": {\n");
            out.push_str(&format!("    \"queue_wait\": {},\n", json_hist(q)));
            out.push_str(&format!("    \"serve\": {},\n", json_hist(s)));
            match &report.open {
                Some(open) if !open.phase_telemetry.is_empty() => {
                    out.push_str("    \"phases\": [\n");
                    let last = open.phase_telemetry.len().saturating_sub(1);
                    for (row, (phase, (ph_q, ph_s))) in
                        open.phases.iter().zip(&open.phase_telemetry).enumerate()
                    {
                        out.push_str(&format!(
                            "      {{\"name\": {}, \"queue_wait\": {}, \"serve\": {}}}{}\n",
                            json_str(&phase.name),
                            json_hist(ph_q),
                            json_hist(ph_s),
                            if row == last { "" } else { "," },
                        ));
                    }
                    out.push_str("    ]\n");
                }
                _ => out.push_str("    \"phases\": null\n"),
            }
            out.push_str("  },\n");
        }
        None => out.push_str("  \"telemetry\": null,\n"),
    }

    // Durability counters live with the store; a remote run (or a run
    // without --data-dir) reports both sections as null. Same schema
    // either way, so downstream tooling never branches on shape.
    match store {
        Some(store) => {
            let c = store.counters();
            let r = store.recovery_report();
            out.push_str("  \"durability\": {\n");
            out.push_str(&format!("    \"wal_appends\": {},\n", c.wal_appends));
            out.push_str(&format!("    \"snapshots\": {},\n", c.snapshots));
            out.push_str(&format!("    \"compactions\": {},\n", c.compactions));
            out.push_str(&format!("    \"spills\": {},\n", c.spills));
            out.push_str(&format!("    \"fault_ins\": {},\n", c.fault_ins));
            out.push_str(&format!("    \"replayed_records\": {},\n", c.replayed));
            out.push_str(&format!("    \"fsync\": {}\n", args.fsync));
            out.push_str("  },\n");
            out.push_str("  \"recovery\": {\n");
            out.push_str(&format!("    \"graphs\": {},\n", r.graphs));
            out.push_str(&format!("    \"wal_records\": {},\n", r.wal_records));
            out.push_str(&format!("    \"torn_tails\": {},\n", r.torn_tails));
            out.push_str(&format!("    \"tombstones_gcd\": {},\n", r.tombstones_gcd));
            out.push_str(&format!("    \"orphan_tmps\": {}\n", r.orphan_tmps));
            out.push_str("  },\n");
        }
        None => {
            out.push_str("  \"durability\": null,\n");
            out.push_str("  \"recovery\": null,\n");
        }
    }

    match &report.connections {
        Some(conn_stats) => {
            out.push_str("  \"connections\": [\n");
            let last = conn_stats.len().saturating_sub(1);
            for (c, (ops, errs)) in conn_stats.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"connection\": {c}, \"ops\": {ops}, \"errors\": {errs}, \
                     \"ops_per_sec\": {:.1}}}{}\n",
                    *ops as f64 / report.wall.as_secs_f64(),
                    if c == last { "" } else { "," },
                ));
            }
            out.push_str("  ]\n");
        }
        None => out.push_str("  \"connections\": null\n"),
    }

    out.push_str("}\n");
    out
}
