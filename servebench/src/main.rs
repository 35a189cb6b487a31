//! `servebench` — the serving benchmark.
//!
//! One run = one workload at one seed:
//!
//! 1. **canary**: replay the pinned `whale` and `write_storm` traces
//!    through the throughput driver and check `stress`'s digests;
//! 2. **timed rounds** for `--seconds`: each round sets up a fresh front
//!    (generation, store open, server spawn + handshake, create prologue)
//!    twice, once for the windowed **throughput pass** and once for the
//!    one-at-a-time **latency pass**;
//! 3. **oracle replay**: a single-thread `Engine` replay that checks every
//!    uncached answer against direct layer calls, and whose log digest
//!    must equal every timed pass's;
//! 4. with `--trace 1`, the same replay with spans armed, plus the
//!    tracing-overhead, wire-codec and (for `storm`) in-process
//!    comparison runs that give the per-layer split.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (see `metrics::reported`). Exit status 0 only
//! when every check passed and no request failed. See `README.md` in this
//! directory for the workloads, metrics and layer map.

mod drive;
mod metrics;
mod oracle;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cut_engine::{EngineStats, GraphStore, Request, Response, Workload};
use cut_store::{Store, StoreOptions};

use drive::{Pass, Target};
use metrics::{median, percentile};
use workloads::Kind;

/// The seed every change is tuned against, and one no change is tuned
/// against (claims must hold on both).
pub const DEFAULT_SEED: u64 = 7;
pub const HELDOUT_SEED: u64 = 1009;

/// Operations per stream in the smoke test.
const SMOKE_OPS: usize = 240;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    scratch: PathBuf,
    ops: Option<usize>,
    smoke: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        server: None,
        scratch: PathBuf::from(".bench_build/servebench-scratch"),
        ops: None,
        smoke: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--server" => args.server = Some(PathBuf::from(value()?)),
            "--scratch" => args.scratch = PathBuf::from(value()?),
            "--ops" => {
                let ops: usize = value()?.parse().map_err(|e| format!("--ops: {e}"))?;
                if ops < 16 {
                    return Err("--ops must be at least 16".into());
                }
                args.ops = Some(ops);
            }
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.smoke && !args.manifest && args.workload.is_none() {
        return Err("--workload mix|whale|storm is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest_json());
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("error: creating {}: {e}", args.scratch.display());
        std::process::exit(1);
    }
    if args.smoke {
        std::process::exit(smoke(&args));
    }
    let kind = args.workload.expect("checked by parse_args");
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        ops: args.ops.unwrap_or(kind.default_ops()),
        seconds: args.seconds,
        trace: args.trace,
        server: args.server.as_deref(),
        scratch: &args.scratch,
        canary: true,
    };
    match run(&cfg) {
        Ok(outcome) => {
            let defs = metrics::reported(cfg.trace);
            println!(
                "{}",
                metrics::result_json(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &defs,
                    &outcome.values
                )
            );
            std::process::exit(if outcome.correct && outcome.failed == 0 { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

struct RunConfig<'a> {
    kind: Kind,
    seed: u64,
    ops: usize,
    seconds: f64,
    trace: bool,
    server: Option<&'a Path>,
    scratch: &'a Path,
    canary: bool,
}

impl RunConfig<'_> {
    fn target(&self) -> Result<Target<'_>, String> {
        if !self.kind.remote() {
            return Ok(Target::Local);
        }
        self.server.map(Target::Remote).ok_or_else(|| {
            format!("workload {} needs --server PATH (cut-server)", self.kind.name())
        })
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Replay the pinned traces through the throughput driver; true when both
/// digests match `stress`'s.
fn canary(scratch: &Path) -> Result<bool, String> {
    let mut ok = true;
    for (name, text, pinned) in workloads::CANARIES {
        let workload = Workload::from_trace(text).map_err(|e| format!("parsing {name}: {e}"))?;
        let ready = drive::start(workload, Target::Local, scratch)?;
        let digest = drive::throughput(ready)?.served.digest.value();
        let verdict = if digest == pinned { "ok" } else { "MISMATCH" };
        println!("canary {name}: digest {digest:#018x} (pinned {pinned:#018x}) {verdict}");
        ok &= digest == pinned;
    }
    Ok(ok)
}

/// Serve every stream once through `pass`, each on a freshly set-up
/// front, recording each set-up time.
fn serve_all(
    cfg: &RunConfig,
    seeds: &[u64],
    target: Target,
    pass: fn(drive::Ready) -> Result<Pass, String>,
    setups: &mut Vec<f64>,
) -> Result<Vec<Pass>, String> {
    seeds
        .iter()
        .map(|&seed| {
            let ready = drive::setup(cfg.kind, seed, cfg.ops, target, cfg.scratch)?;
            setups.push(ready.setup.as_secs_f64());
            pass(ready)
        })
        .collect()
}

/// Per-shard busy nanoseconds of one round, summed over its streams.
fn round_busy(round: &[Pass]) -> Vec<u64> {
    let mut busy = vec![0u64; drive::SHARDS];
    for (_, per_shard) in round.iter().filter_map(|p| p.stats.as_ref()) {
        for (b, s) in busy.iter_mut().zip(per_shard) {
            *b += s;
        }
    }
    busy
}

/// Engine counters of one round, merged over its streams.
fn round_stats(round: &[Pass]) -> EngineStats {
    let mut merged = EngineStats::default();
    for (stats, _) in round.iter().filter_map(|p| p.stats.as_ref()) {
        merged.merge(stats);
    }
    merged
}

fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let kind = cfg.kind;
    let target = cfg.target()?;
    let seeds = workloads::stream_seeds(cfg.seed);
    println!(
        "servebench: workload={} seed={} streams={} ops/stream={} seconds={} trace={} shards={} \
         cores={} front={} (default EngineConfig, every toggle off{})",
        kind.name(),
        cfg.seed,
        seeds.len(),
        cfg.ops,
        cfg.seconds,
        u8::from(cfg.trace),
        drive::SHARDS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if kind.remote() { "cut-server over 1 loopback connection" } else { "in-process" },
        if kind.remote() { ", WAL data dir, fsync off" } else { "" },
    );
    let canary_ok = if cfg.canary { Some(canary(cfg.scratch)?) } else { None };

    // ---- Timed rounds (untraced): every stream through each pass. ----
    drive::reset_peak_rss();
    let cpu_start = drive::cpu_times();
    let t_start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut thr: Vec<Vec<Pass>> = Vec::new();
    let mut lat: Vec<Vec<Pass>> = Vec::new();
    loop {
        thr.push(serve_all(cfg, &seeds, target, drive::throughput, &mut setups)?);
        lat.push(serve_all(cfg, &seeds, target, drive::latency, &mut setups)?);
        if t_start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let timed_for = t_start.elapsed();
    let steal_pct = drive::steal_pct(cpu_start, drive::cpu_times());
    let passes = || thr.iter().chain(&lat).flatten();
    let peak_rss_kib = if kind.remote() {
        passes().filter_map(|p| p.server_rss_kib).max().unwrap_or(0)
    } else {
        drive::peak_rss_kib("/proc/self/status")?
    };

    // ---- Oracle replay of every stream (traced with --trace 1). ----
    let streams: Vec<Workload> = seeds.iter().map(|&s| kind.generate(s, cfg.ops)).collect();
    if cfg.trace {
        spans::start();
    }
    let mut verdicts = Vec::with_capacity(streams.len());
    let mut traced_disk = None;
    let mut op_offset = 0;
    for workload in &streams {
        // With --trace 1 the storm replay writes through the timing store
        // decorator, into a fresh directory per stream.
        let dir = if cfg.trace && kind.remote() {
            Some(drive::fresh_dir(cfg.scratch, "traced")?)
        } else {
            None
        };
        let store: Option<Arc<dyn GraphStore>> = match &dir {
            Some(d) => Some(Arc::new(oracle::TimedStore(
                Store::open(d, StoreOptions::default()).map_err(|e| e.to_string())?,
            ))),
            None => None,
        };
        verdicts.push(oracle::replay(workload, store, op_offset));
        op_offset += workload.len();
        if let Some(d) = dir {
            *traced_disk.get_or_insert(0) += drive::dir_bytes(&d);
            let _ = std::fs::remove_dir_all(&d);
        }
    }
    let spans = spans::finish();

    // ---- Checks. ----
    let digests_agree = thr.iter().chain(&lat).all(|round| {
        round.iter().zip(&verdicts).all(|(p, v)| p.served.digest.value() == v.digest.value())
    });
    let attempted: u64 = passes().map(|p| p.served.requests).sum();
    let failed: u64 = passes().map(|p| p.served.errors + p.served.unanswered).sum();
    let wrong: u64 = verdicts.iter().map(|v| v.wrong).sum();
    let mirror_mismatches: u64 = verdicts.iter().map(|v| v.mirror_mismatches).sum();
    let approx_checked: u64 = verdicts.iter().map(|v| v.approx_checked).sum();
    let approx_ratio_sum: f64 = verdicts.iter().map(|v| v.approx_ratio_sum).sum();
    let correct = canary_ok != Some(false) && digests_agree && wrong == 0 && mirror_mismatches == 0;

    // ---- End-to-end metrics. ----
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let ops: f64 = streams.iter().map(|w| w.operations.len() as f64).sum();
    // Throughput: every stream's median wall time over the rounds, summed.
    // A stall on a shared box hits one pass of one stream, and the
    // per-stream median drops it.
    let rates: Vec<f64> = thr
        .iter()
        .map(|round| ops / round.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>())
        .collect();
    let stream_walls: Vec<f64> = (0..seeds.len())
        .map(|k| median(&thr.iter().map(|round| round[k].wall.as_secs_f64()).collect::<Vec<_>>()))
        .collect();
    // Latency: each round's percentiles over all its streams' samples,
    // then the median over rounds, so a burst of host CPU steal that hits
    // one round does not set the figure.
    let round_percentiles: Vec<(f64, f64)> = lat
        .iter()
        .map(|round| {
            let mut v: Vec<u64> =
                round.iter().flat_map(|p| p.latencies_ns.iter().copied()).collect();
            v.sort_unstable();
            (percentile(&v, 50.0) as f64 / 1e3, percentile(&v, 99.0) as f64 / 1e3)
        })
        .collect();
    let samples: usize = lat.iter().flatten().map(|p| p.latencies_ns.len()).sum();
    let disk: Vec<f64> = thr
        .iter()
        .chain(&lat)
        .filter(|round| round.iter().all(|p| p.disk_bytes.is_some()))
        .map(|round| round.iter().filter_map(|p| p.disk_bytes).sum::<u64>() as f64 / ops)
        .collect();
    values.insert("ops_per_s".into(), ops / stream_walls.iter().sum::<f64>());
    let p50s: Vec<f64> = round_percentiles.iter().map(|p| p.0).collect();
    let p99s: Vec<f64> = round_percentiles.iter().map(|p| p.1).collect();
    values.insert("latency_p50_us".into(), median(&p50s));
    values.insert("latency_p99_us".into(), median(&p99s));
    values.insert("error_rate".into(), failed as f64 / attempted.max(1) as f64);
    values.insert("wrong_answers".into(), wrong as f64);
    values.insert(
        "approx_ratio_mean".into(),
        if approx_checked == 0 { 0.0 } else { approx_ratio_sum / approx_checked as f64 },
    );
    values.insert("setup_s".into(), median(&setups));
    values.insert("peak_rss_mb".into(), peak_rss_kib as f64 / 1024.0);
    values.insert("disk_bytes_per_op".into(), if disk.is_empty() { 0.0 } else { median(&disk) });

    println!(
        "timed: {} rounds of {} streams in {:.2}s ({} setups); host CPU steal {:.1}% of CPU time",
        thr.len(),
        seeds.len(),
        timed_for.as_secs_f64(),
        setups.len(),
        steal_pct
    );
    let per_round: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("throughput per round (ops/s): {}", per_round.join(" "));
    let p99_rounds: Vec<String> = p99s.iter().map(|p| format!("{p:.0}")).collect();
    println!("p99 per round (us): {}", p99_rounds.join(" "));
    println!(
        "checks: canary {}, {} pass digests {} the oracle replay's, {wrong} wrong answers, \
         {mirror_mismatches} mirror mismatches over {approx_checked} uncached approx cuts, \
         {failed} errors + unanswered of {attempted} requests",
        match canary_ok {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "skipped",
        },
        thr.len() * 2 * seeds.len(),
        if digests_agree { "equal" } else { "DIFFER FROM" },
    );
    for example in verdicts.iter().flat_map(|v| &v.wrong_examples).take(5) {
        println!("  wrong: {example}");
    }
    println!();
    println!("end-to-end metrics ({}, seed {}):", kind.name(), cfg.seed);
    for d in metrics::end_to_end() {
        let note = match d.name.as_str() {
            "ops_per_s" => format!("ops / sum of per-stream median walls, {} rounds", thr.len()),
            "latency_p50_us" | "latency_p99_us" => {
                format!(
                    "median over {} latency rounds of {} samples each",
                    lat.len(),
                    samples / lat.len()
                )
            }
            "approx_ratio_mean" => format!("over {approx_checked} uncached approx cuts"),
            "setup_s" => format!("median of {} setups", setups.len()),
            "error_rate" => format!("base: {attempted} requests"),
            "disk_bytes_per_op" if kind.remote() => "final data-dir bytes / ops".to_string(),
            _ => String::new(),
        };
        println!(
            "  {:<20} {:>14.4} {:<6} {:<6} {}",
            d.name, values[&d.name], d.unit, d.better, note
        );
    }

    if cfg.trace {
        let traced =
            Traced { seeds: &seeds, streams: &streams, verdicts: &verdicts, spans: &spans };
        layer_metrics(cfg, &traced, &thr, &lat, traced_disk, &mut values)?;
    }

    // Every metric the result line promises must have been measured.
    let missing: Vec<String> = metrics::reported(cfg.trace)
        .into_iter()
        .filter(|d| !values.contains_key(&d.name))
        .map(|d| d.name)
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    Ok(Outcome { correct, attempted, failed, values })
}

/// What the oracle replay left behind for the per-layer split.
struct Traced<'a> {
    seeds: &'a [u64],
    streams: &'a [Workload],
    verdicts: &'a [oracle::Verdict],
    spans: &'a [spans::Span],
}

/// The per-layer split (`--trace 1`): counters from the timed passes,
/// times from the traced replay's spans, plus the overhead, codec and
/// wire comparison runs.
fn layer_metrics(
    cfg: &RunConfig,
    traced: &Traced,
    thr: &[Vec<Pass>],
    lat: &[Vec<Pass>],
    traced_disk: Option<u64>,
    values: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let Traced { seeds, streams, verdicts, spans } = *traced;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };

    // Tracing overhead: plain single-thread replays, untraced vs with
    // root + engine.execute spans only, alternated.
    let replay_all = || streams.iter().map(oracle::replay_plain).sum::<Duration>().as_secs_f64();
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        plain.push(replay_all());
        spans::start();
        with_spans.push(replay_all());
        drop(spans::finish());
    }
    put("trace.overhead_pct", (median(&with_spans) / median(&plain) - 1.0) * 100.0);

    // Wire codec: encode + decode of every request and response.
    let pairs: Vec<(&Request, &Response)> = streams
        .iter()
        .zip(verdicts)
        .flat_map(|(w, v)| w.all_requests().zip(&v.responses))
        .collect();
    let t0 = Instant::now();
    let mut round_trips_ok = true;
    for &(request, response) in &pairs {
        let req = Request::from_trace_line(&request.to_trace_line());
        let resp = Response::from_trace_line(&response.to_trace_line());
        round_trips_ok &= req.as_ref() == Ok(request) && resp.as_ref() == Ok(response);
    }
    let codec = t0.elapsed();
    if !round_trips_ok {
        return Err("a request or response did not survive the wire codec".into());
    }
    put("wire.codec_us_per_op", codec.as_secs_f64() * 1e6 / pairs.len() as f64);
    put("wire.codec_ops", pairs.len() as f64);

    // Engine counters come from a timed in-process round. For `storm`
    // that is an extra latency round through the same engine + store
    // without the wire, which also prices the wire.
    let mean_us = |rounds: &[Vec<Pass>]| {
        let (sum, n) = rounds.iter().flatten().fold((0u64, 0usize), |(s, n), p| {
            (s + p.latencies_ns.iter().sum::<u64>(), n + p.latencies_ns.len())
        });
        sum as f64 / n.max(1) as f64 / 1e3
    };
    let (stats, busy, wire_overhead) = if cfg.kind.remote() {
        let mut setups = Vec::new();
        let local = vec![serve_all(cfg, seeds, Target::LocalDurable, drive::latency, &mut setups)?];
        let overhead = mean_us(lat) - mean_us(&local);
        (round_stats(&local[0]), vec![round_busy(&local[0])], overhead)
    } else {
        (round_stats(&thr[0]), thr.iter().map(|r| round_busy(r)).collect(), 0.0)
    };
    put("wire.overhead_us_per_op", wire_overhead);
    let shares: Vec<f64> = busy
        .iter()
        .map(|b| *b.iter().max().unwrap_or(&0) as f64 / b.iter().sum::<u64>().max(1) as f64)
        .collect();
    put("shard.busy_max_share", median(&shares));
    let serve: Vec<f64> = busy.iter().map(|b| ms(b.iter().sum())).collect();
    put("shard.serve_ms_total", median(&serve));
    put("engine.cache_hit_rate", stats.hit_rate());
    put("engine.queries", stats.queries as f64);
    put("engine.certified_skips", stats.cut_certified_skips as f64);
    put("engine.gated_cut_misses", (stats.cut_recomputes + stats.cut_certified_skips) as f64);
    let reads = stats.index.csr_builds + stats.index.csr_reuses;
    put("index.csr_builds", stats.index.csr_builds as f64);
    put("index.csr_reuse_rate", stats.index.csr_reuses as f64 / reads.max(1) as f64);
    put("index.csr_reads", reads as f64);

    // Times from the traced replay.
    let totals = spans::aggregate(spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let execute = spans::by_root(spans, "engine.execute");
    for kind in metrics::EXECUTE_KINDS {
        let t = execute.get(kind).copied().unwrap_or_default();
        put(&format!("engine.execute_ms.{kind}"), ms(t.total_ns));
        put(&format!("engine.execute_calls.{kind}"), t.calls as f64);
    }
    let mut builds = spans::durations(spans, "index.csr_build");
    builds.sort_unstable();
    put("index.csr_build_us", percentile(&builds, 50.0) as f64 / 1e3);
    put("index.csr_build_calls", builds.len() as f64);
    for name in [
        "core.approx_min_cut",
        "core.singleton_cut",
        "core.kcut",
        "graph.stoer_wagner",
        "graph.min_st_cut",
        "store.log",
        "store.snapshot",
    ] {
        let t = total(name);
        put(&format!("{name}_ms"), ms(t.total_ns));
        put(&format!("{name}_calls"), t.calls as f64);
    }
    for phase in metrics::APPROX_PHASES {
        let t = total(&format!("core.approx.{phase}"));
        put(&format!("core.approx.{phase}_ms"), ms(t.total_ns));
        put(&format!("core.approx.{phase}_calls"), t.calls as f64);
    }
    let mut logs = spans::durations(spans, "store.log");
    logs.sort_unstable();
    put("store.log_p50_us", percentile(&logs, 50.0) as f64 / 1e3);
    put("store.bytes_per_op", traced_disk.map_or(0.0, |b| b as f64 / logs.len().max(1) as f64));

    // Per-layer self-time table.
    let requests: usize = streams.iter().map(Workload::len).sum();
    println!();
    println!(
        "per-layer self time ({}, seed {}, traced single-thread replay of {requests} requests):",
        cfg.kind.name(),
        cfg.seed,
    );
    let root_total: u64 =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns()).sum();
    println!(
        "  {:<26} {:<7} {:>9} {:>11} {:>11} {:>7}",
        "span", "layer", "calls", "total ms", "self ms", "self%"
    );
    for (name, t) in &totals {
        // Dotted spans are `<layer>.<call>`; undotted ones are request roots.
        let layer = name.split_once('.').map_or("request", |(layer, _)| layer);
        println!(
            "  {:<26} {:<7} {:>9} {:>11.3} {:>11.3} {:>6.1}%",
            name,
            layer,
            t.calls,
            ms(t.total_ns),
            ms(t.self_ns),
            t.self_ns as f64 * 100.0 / root_total.max(1) as f64
        );
    }
    println!();
    println!("per-layer metrics:");
    for d in metrics::per_layer() {
        println!("  {:<36} {:>14.4} {:<6} {}", d.name, values[&d.name], d.unit, d.better);
    }
    let path = cfg.scratch.join(format!("spans-{}-{}.tsv", cfg.kind.name(), cfg.seed));
    std::fs::write(&path, spans::to_tsv(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// Every workload at a tiny size, on both seeds, untraced and traced:
/// each run must pass its checks and emit every metric its mode promises.
fn smoke(args: &Args) -> i32 {
    let mut failures = 0;
    let mut first = true;
    for kind in workloads::ALL {
        for seed in [DEFAULT_SEED, HELDOUT_SEED] {
            for trace in [false, true] {
                let cfg = RunConfig {
                    kind,
                    seed,
                    ops: args.ops.unwrap_or(SMOKE_OPS),
                    seconds: 0.0,
                    trace,
                    server: args.server.as_deref(),
                    scratch: &args.scratch,
                    canary: std::mem::take(&mut first),
                };
                let verdict = match run(&cfg) {
                    Ok(o) if o.correct && o.failed == 0 => {
                        let n = metrics::reported(trace).len();
                        format!("ok ({n} metrics)")
                    }
                    Ok(o) => {
                        failures += 1;
                        format!("FAILED (correct={} failed={})", o.correct, o.failed)
                    }
                    Err(e) => {
                        failures += 1;
                        format!("FAILED: {e}")
                    }
                };
                println!("smoke {} seed={seed} trace={}: {verdict}", kind.name(), u8::from(trace));
            }
        }
    }
    println!("smoke: {} failures", failures);
    i32::from(failures > 0)
}
