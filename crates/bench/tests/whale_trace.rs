//! Replay of the pinned traces under `traces/`, each through a plain
//! [`Engine`] and through a four-shard [`ShardedEngine`]:
//!
//! - `whale.trace`: an s-t-heavy phase mix over one large sparse graph,
//!   generated by `stress --phases whale --ops 2000 --seed 7`;
//! - `write_storm.trace`: a delete-heavy write storm, generated by
//!   `stress --phases write-storm --ops 10000 --seed 7`.
//!
//! Both replays must digest to the committed constant, so workload
//! generation, request formatting, every engine answer and the sharded
//! front-end's response order are all frozen. This is the same digest
//! `stress --trace-in <trace>` prints at any `--shards`.
//!
//! If an intentional engine change moves a digest, regenerate the trace
//! with its command above and update the constant in the same commit.

use cut_engine::{Engine, Request, Response, ShardedEngine, Workload};

/// FNV-1a, exactly as the stress driver folds its response log.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Build the stress driver's log format (`{i:06} {request} -> {response}`,
/// no timing) from the requests and their responses, in submission order.
fn log<'a>(
    requests: impl Iterator<Item = &'a Request>,
    responses: impl Iterator<Item = Response>,
) -> String {
    let mut log = String::new();
    for (i, (request, response)) in requests.zip(responses).enumerate() {
        assert!(!matches!(response, Response::Error { .. }), "op {i} errored: {response}");
        log.push_str(&format!("{i:06} {request} -> {response}\n"));
    }
    log
}

/// Replay `trace` at one shard and at four; both logs must digest to
/// `digest`.
fn check_pinned(name: &str, trace: &str, digest: u64) {
    let workload = Workload::from_trace(trace).expect("committed trace parses");

    let mut engine = Engine::new();
    let responses: Vec<Response> =
        workload.all_requests().map(|r| engine.execute(r.clone())).collect();
    let plain = log(workload.all_requests(), responses.into_iter());
    assert_eq!(
        fnv1a(plain.as_bytes()),
        digest,
        "{name} digest moved — regenerate traces/{name}.trace and update its \
         digest if the change is intentional"
    );

    let mut sharded = ShardedEngine::new(4);
    let tickets: Vec<_> = workload.all_requests().map(|r| sharded.submit(r.clone())).collect();
    let four = log(workload.all_requests(), tickets.into_iter().map(|t| t.wait()));
    sharded.shutdown();
    assert!(plain == four, "{name} replay at 4 shards diverged from the 1-shard log");
}

#[test]
fn whale_trace_digest_is_pinned_at_shards_1_and_4() {
    check_pinned("whale", include_str!("../traces/whale.trace"), 0xda29_c44a_450a_6ca4);
}

#[test]
fn write_storm_trace_digest_is_pinned_at_shards_1_and_4() {
    check_pinned("write_storm", include_str!("../traces/write_storm.trace"), 0x61ae_c3fb_8cff_a132);
}
