//! `bench-snapshot` — a fast, CI-friendly performance snapshot.
//!
//! CI wants a coarse number per commit to spot order-of-magnitude
//! regressions and a JSON artifact to diff across commits. This binary times a handful of representative
//! hot paths (Algorithm 1 retargeting, end-to-end simulations, the
//! wire codec, the loopback transport) with plain `Instant` sampling and
//! writes `BENCH_<sha>.json`. A simulation's line also carries the
//! events its run dispatched (deterministic), so events/s can be read
//! off it:
//!
//! ```text
//! bench-snapshot [--sha SHA] [--out DIR]
//! ```
//!
//! `SHA` defaults to `$GITHUB_SHA`, then `"local"`. The numbers are
//! medians over fixed iteration counts — noisy, deliberately so: this is
//! a smoke gauge, not a statistical benchmark.

use dyrs::master::{BlockRequest, Master};
use dyrs::types::EvictionMode;
use dyrs::MigrationPolicy;
use dyrs_cluster::{ClusterSpec, InterferenceSchedule, NodeId};
use dyrs_dfs::{BlockId, JobId};
use dyrs_experiments::scenarios::{hetero_config, with_workload, DD_STREAMS};
use dyrs_net::frame::{decode_frame, encode_frame, supported_versions};
use dyrs_net::{LoopbackHub, Message, Peer, Transport, PROTOCOL_VERSION};
use dyrs_sim::config::WireMode;
use dyrs_sim::prelude::JobSpec;
use dyrs_sim::{SimConfig, Simulation};
use dyrs_workloads::{sort, swim};
use simkit::{json, Rng, SimDuration};
use std::time::Instant;

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;

/// Time `f` for `iters` iterations and return per-iteration samples (ns).
fn sample(iters: usize, mut f: impl FnMut()) -> Vec<u64> {
    let mut out = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as u64);
    }
    out
}

struct Snapshot {
    name: &'static str,
    iters: usize,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Events one run dispatched, for a simulation.
    events: Option<u64>,
}

fn summarize(name: &'static str, mut samples: Vec<u64>) -> Snapshot {
    samples.sort_unstable();
    Snapshot {
        name,
        iters: samples.len(),
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        events: None,
    }
}

/// Time `iters` runs of one simulation input (building the simulation
/// included, generating its input not).
fn bench_sim(name: &'static str, iters: usize, input: (SimConfig, Vec<JobSpec>)) -> Snapshot {
    let mut events = 0;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (cfg, jobs) = input.clone();
        let t = Instant::now();
        let r = Simulation::new(cfg, jobs).run();
        samples.push(t.elapsed().as_nanos() as u64);
        events = r.events_processed;
    }
    Snapshot {
        events: Some(events),
        ..summarize(name, samples)
    }
}

/// A master with `blocks` pending 256 MB migrations spread over `nodes`
/// slaves (3 replicas each).
fn loaded_master(blocks: u64, nodes: u32) -> Master {
    let mut m = Master::new(
        MigrationPolicy::Dyrs,
        nodes as usize,
        140.0 * MB as f64,
        Rng::new(1),
    );
    let mut rng = Rng::new(2);
    for n in 0..nodes {
        m.on_heartbeat(
            NodeId(n),
            rng.range_f64(0.8, 4.0) / (140.0 * MB as f64),
            rng.range_u64(0, 4) * BLOCK,
        );
    }
    let reqs: Vec<BlockRequest> = (0..blocks)
        .map(|i| {
            let mut picks: Vec<u32> = (0..nodes).collect();
            rng.shuffle(&mut picks);
            BlockRequest {
                block: BlockId(i),
                bytes: BLOCK,
                replicas: picks[..3].iter().map(|&x| NodeId(x)).collect(),
            }
        })
        .collect();
    m.request_migration(JobId(1), reqs, EvictionMode::Implicit);
    m
}

/// The 1M-block loader. `loaded_master`'s per-block full shuffle is
/// O(blocks × nodes) — fine at 100k × 100, hopeless at 1M × 1k — so this
/// one picks 3 replicas with a cheap stride off one draw. Placement is
/// still deterministic and spreads uniformly; only the picker differs
/// (the 100k benches keep `loaded_master` so their RNG streams, and thus
/// their committed baselines, are untouched).
fn loaded_master_1m(blocks: u64, nodes: u32) -> Master {
    let mut m = Master::new(
        MigrationPolicy::Dyrs,
        nodes as usize,
        140.0 * MB as f64,
        Rng::new(1),
    );
    let mut rng = Rng::new(2);
    for n in 0..nodes {
        m.on_heartbeat(
            NodeId(n),
            rng.range_f64(0.8, 4.0) / (140.0 * MB as f64),
            BLOCK,
        );
    }
    let reqs: Vec<BlockRequest> = (0..blocks)
        .map(|i| {
            let base = rng.below(nodes as u64) as u32;
            BlockRequest {
                block: BlockId(i),
                bytes: BLOCK,
                replicas: vec![
                    NodeId(base),
                    NodeId((base + 1) % nodes),
                    NodeId((base + 7) % nodes),
                ],
            }
        })
        .collect();
    m.request_migration(JobId(1), reqs, EvictionMode::Implicit);
    m
}

/// Time `iters` Algorithm 1 passes over `m` after a warm first pass.
/// Before each timed pass node 0's estimate drifts by a hair (untimed),
/// so every pass walks the whole queue instead of taking the clean-pass
/// skip, and winners barely move.
fn sample_walks(m: &mut Master, iters: usize) -> Vec<u64> {
    let spb = 1.0 / (140.0 * MB as f64);
    m.on_heartbeat(NodeId(0), spb, BLOCK);
    m.retarget();
    (1..=iters)
        .map(|tick| {
            m.on_heartbeat(NodeId(0), spb * (1.0 + tick as f64 * 1e-12), BLOCK);
            let t = Instant::now();
            std::hint::black_box(m.retarget().rescored);
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// One Algorithm 1 pass over 1M pending blocks on a 1k-node fleet.
fn bench_algo1_1m() -> Snapshot {
    let mut m = loaded_master_1m(1_000_000, 1_000);
    summarize("algo1/full_rescan_1m_1k", sample_walks(&mut m, 6))
}

/// `on_slave_pull` against the 1M-entry store: per-node bind queues keep
/// the pull independent of total pending size.
fn bench_pull_bind_1m() -> Snapshot {
    const NODES: u32 = 1_000;
    let mut m = loaded_master_1m(1_000_000, NODES);
    m.retarget();
    let mut node = 0u32;
    summarize(
        "sched/pull_bind_1m_pending",
        sample(200, || {
            node = (node + 1) % NODES;
            std::hint::black_box(m.on_slave_pull(NodeId(node), 4).len());
        }),
    )
}

fn bench_retarget() -> Snapshot {
    // The paper's §III-D scalability bar: 50 GB pending = 200 blocks.
    let mut m = loaded_master(200, 7);
    summarize("algo1/retarget_50GB_pending", sample_walks(&mut m, 50))
}

/// One Algorithm 1 pass over 100k pending blocks on 100 nodes.
fn bench_full_rescan_100k() -> Snapshot {
    let mut m = loaded_master(100_000, 100);
    summarize("algo1/full_rescan_100k", sample_walks(&mut m, 12))
}

/// `on_slave_pull` against small and huge pending stores: with the
/// per-node bind queues the cost must not scale with total pending size.
fn bench_pull_bind() -> (Snapshot, Snapshot) {
    const NODES: u32 = 40;
    let run = |name: &'static str, pending: u64| -> Snapshot {
        let mut m = loaded_master(pending, NODES);
        m.retarget();
        let mut node = 0u32;
        summarize(
            name,
            sample(200, || {
                node = (node + 1) % NODES;
                std::hint::black_box(m.on_slave_pull(NodeId(node), 4).len());
            }),
        )
    };
    (
        run("sched/pull_bind_1k_pending", 1_000),
        run("sched/pull_bind_100k_pending", 100_000),
    )
}

fn bench_end_to_end() -> Snapshot {
    let mut events = 0;
    let samples = sample(5, || {
        let cfg = hetero_config(MigrationPolicy::Dyrs, 7);
        let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
        let (cfg, jobs) = with_workload(cfg, w);
        events = Simulation::new(cfg, jobs).run().events_processed;
    });
    Snapshot {
        events: Some(events),
        ..summarize("sim/hetero_sort_2GB", samples)
    }
}

/// Seed of the SWIM benches.
const SWIM_SEED: u64 = 7;

/// The default SWIM trace on the paper's 7-node heterogeneous cluster
/// (`hetero_config`), as perfbench's `swim_paper` workload runs it.
fn bench_swim_7n() -> Snapshot {
    let w = swim::generate(&swim::SwimParams::default(), SWIM_SEED);
    let cfg = hetero_config(MigrationPolicy::Dyrs, SWIM_SEED);
    bench_sim("sim/swim_7n", 10, with_workload(cfg, w))
}

/// perfbench's `swim_wide` construction: 64 uniform nodes with a
/// dd-slowed node every 7th, SWIM scaled by 64/7 in jobs, input bytes and
/// arrival rate, the loopback wire and a scrape every 10 simulated
/// seconds.
fn bench_swim_64n() -> Snapshot {
    const NODES: u32 = 64;
    let k = f64::from(NODES) / 7.0;
    let base = swim::SwimParams::default();
    let params = swim::SwimParams {
        jobs: (base.jobs as f64 * k) as usize,
        total_input_bytes: (base.total_input_bytes as f64 * k) as u64,
        mean_interarrival_secs: base.mean_interarrival_secs / k,
        ..base
    };
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, SWIM_SEED);
    cfg.cluster = ClusterSpec::uniform(NODES as usize);
    for n in (0..NODES).step_by(7) {
        cfg.interference
            .push(InterferenceSchedule::persistent(NodeId(n), DD_STREAMS));
    }
    cfg.wire = WireMode::Loopback;
    cfg.scrape_interval = Some(SimDuration::from_secs(10));
    let w = swim::generate(&params, SWIM_SEED);
    bench_sim("sim/swim_64n", 5, with_workload(cfg, w))
}

fn bench_codec() -> Snapshot {
    // A realistic Bind: 16 migrations with reference lists and replicas.
    let msg = Message::Bind {
        migrations: (0..16)
            .map(|i| dyrs::types::Migration {
                id: dyrs::types::MigrationId(i),
                block: BlockId(i),
                bytes: BLOCK,
                jobs: vec![dyrs::types::JobRef {
                    job: JobId(1),
                    eviction: EvictionMode::Implicit,
                }],
                replicas: vec![NodeId(i as u32 % 7), NodeId((i as u32 + 1) % 7)],
                attempt: 0,
                dest_tier: 0,
            })
            .collect(),
    };
    summarize(
        "net/codec_bind16_roundtrip",
        sample(2_000, || {
            let bytes = encode_frame(PROTOCOL_VERSION, &msg);
            let back = decode_frame(&bytes, supported_versions()).expect("roundtrip");
            std::hint::black_box(back.0);
        }),
    )
}

fn bench_loopback() -> Snapshot {
    let hub = LoopbackHub::new();
    let master = hub.endpoint(Peer::Master);
    let slave = hub.endpoint(Peer::Slave(0));
    let msg = Message::MigrationComplete {
        node: NodeId(0),
        block: BlockId(1),
    };
    summarize(
        "net/loopback_send_recv",
        sample(2_000, || {
            slave.send(Peer::Master, &msg).expect("routed");
            let got = master.try_recv().expect("decodes").expect("queued");
            std::hint::black_box(got.0);
        }),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let sha = flag("--sha")
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "local".into());
    let out_dir = flag("--out").unwrap_or_else(|| ".".into());

    let (pull_1k, pull_100k) = bench_pull_bind();
    let snapshots = [
        bench_retarget(),
        bench_full_rescan_100k(),
        bench_algo1_1m(),
        pull_1k,
        pull_100k,
        bench_pull_bind_1m(),
        bench_end_to_end(),
        bench_swim_7n(),
        bench_swim_64n(),
        bench_codec(),
        bench_loopback(),
    ];

    // One bench object per line, keys in a fixed order: `bench-gate`
    // scans this layout line by line.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"sha\": \"{}\",\n", json::escape(&sha)));
    json.push_str("  \"benches\": [\n");
    for (i, s) in snapshots.iter().enumerate() {
        let events = s
            .events
            .map_or(String::new(), |n| format!(", \"events\": {n}"));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}{events}}}{}\n",
            s.name,
            s.iters,
            s.median_ns,
            s.min_ns,
            s.max_ns,
            if i + 1 < snapshots.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = format!("{out_dir}/BENCH_{sha}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    for s in &snapshots {
        let events = s.events.map_or(String::new(), |n| {
            format!(
                ", {n} events, {:.0} events/s",
                n as f64 * 1e9 / s.median_ns as f64
            )
        });
        println!(
            "{:32} median {:>12} ns  (min {}, max {}, n={}{events})",
            s.name, s.median_ns, s.min_ns, s.max_ns, s.iters
        );
    }
    println!("wrote {path}");
}
