//! `bench-snapshot` — a fast, CI-friendly performance snapshot.
//!
//! CI wants a coarse number per commit to spot order-of-magnitude
//! regressions and a JSON artifact to diff across commits. This binary times a handful of representative
//! hot paths (Algorithm 1 retargeting, one end-to-end simulation, the
//! wire codec, the loopback transport) with plain `Instant` sampling and
//! writes `BENCH_<sha>.json`:
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
use dyrs::{MigrationPolicy, SchedEngine, SchedulerConfig};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_experiments::scenarios::{hetero_config, with_workload};
use dyrs_net::frame::{decode_frame, encode_frame, supported_versions};
use dyrs_net::{LoopbackHub, Message, Peer, Transport, PROTOCOL_VERSION};
use dyrs_sim::Simulation;
use dyrs_workloads::sort;
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
}

fn summarize(name: &'static str, mut samples: Vec<u64>) -> Snapshot {
    samples.sort_unstable();
    Snapshot {
        name,
        iters: samples.len(),
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
    }
}

/// A master with `blocks` pending 256 MB migrations spread over `nodes`
/// slaves (3 replicas each), running the requested Algorithm 1 engine.
fn loaded_master(blocks: u64, nodes: u32, engine: SchedEngine) -> Master {
    let mut m = Master::new(
        MigrationPolicy::Dyrs,
        nodes as usize,
        140.0 * MB as f64,
        Rng::new(1),
    );
    m.set_sched_config(SchedulerConfig { engine });
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
    // Fixed one-block backlog everywhere: the benched drift below then
    // perturbs *only* the spb estimate, so the dirtiness really is sparse
    // (a queued-bytes jump would flip winners and cascade queue-wide,
    // turning every pass into a de-facto full rescan).
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

/// Keeping 1M pending blocks' targets current across a 1k-node fleet
/// with the production engine.
///
/// One iteration is one heartbeat *window*: seven sparse ticks (32
/// spread-out nodes report estimate drift, everyone else is clean) and
/// then one fleet-wide refresh tick (every node reports a moved
/// estimate — the estimator-rebaseline / post-recovery-resync case).
/// Each tick ends in one retarget pass. The window median is
/// `algo1/planned_1m_1k`; the per-regime pass medians are also recorded
/// so the JSON carries the decomposition:
///
/// * sparse ticks — the plan walk: a sorted visit plan over the dirty
///   nodes' replica holders, streamed ahead of the scoring cursor;
/// * refresh ticks — the density ceiling trips upfront from O(1) index
///   bounds and the pass runs as the sequential full walk.
fn bench_algo1_1m() -> Vec<Snapshot> {
    const PENDING: u64 = 1_000_000;
    const NODES: u32 = 1_000;
    const DIRTY: u32 = 32;
    const WINDOWS: usize = 6;
    const SPARSE_TICKS: usize = 7;
    let run = |names: [&'static str; 3]| -> Vec<Snapshot> {
        let mut m = loaded_master_1m(PENDING, NODES);
        // Re-baseline every node's estimate with locally-known values, so
        // the benched drift below perturbs each node *around its own
        // baseline*. Jumping a node to an unrelated estimate would flip
        // winners wholesale and cascade queue-wide — every tick would be
        // a de-facto full rescan instead of the two regimes this bench
        // pins.
        let mut rng = Rng::new(3);
        let spbs: Vec<f64> = (0..NODES)
            .map(|n| {
                let s = rng.range_f64(0.8, 4.0) / (140.0 * MB as f64);
                m.on_heartbeat(NodeId(n), s, BLOCK);
                s
            })
            .collect();
        m.retarget(); // warm: the first pass scores all 1M entries
        let mut tick = 0u64;
        let mut windows = Vec::with_capacity(WINDOWS);
        let mut sparse = Vec::with_capacity(WINDOWS * SPARSE_TICKS);
        let mut refresh = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            let w0 = Instant::now();
            for _ in 0..SPARSE_TICKS {
                tick += 1;
                // 32 spread-out nodes report a hair of estimate drift;
                // the set shifts each tick so different queue regions
                // stay involved.
                for d in 0..DIRTY {
                    let node = (d * (NODES / DIRTY) + (tick as u32 % 31)) % NODES;
                    let drift = spbs[node as usize] * (1.0 + (tick + d as u64) as f64 * 1e-12);
                    m.on_heartbeat(NodeId(node), drift, BLOCK);
                }
                let t = Instant::now();
                std::hint::black_box(m.retarget().rescored);
                sparse.push(t.elapsed().as_nanos() as u64);
            }
            tick += 1;
            for n in 0..NODES {
                let drift = spbs[n as usize] * (1.0 + (tick + n as u64) as f64 * 1e-12);
                m.on_heartbeat(NodeId(n), drift, BLOCK);
            }
            let t = Instant::now();
            std::hint::black_box(m.retarget().rescored);
            refresh.push(t.elapsed().as_nanos() as u64);
            windows.push(w0.elapsed().as_nanos() as u64);
        }
        vec![
            summarize(names[0], windows),
            summarize(names[1], sparse),
            summarize(names[2], refresh),
        ]
    };
    run([
        "algo1/planned_1m_1k",
        "algo1/planned_1m_sparse_pass",
        "algo1/planned_1m_refresh_pass",
    ])
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
    // Pinned to the reference engine: with the production one, every
    // warm iteration hits the empty-dirty skip and times nothing.
    let mut m = loaded_master(200, 7, SchedEngine::Reference);
    summarize(
        "algo1/retarget_50GB_pending",
        sample(50, || {
            m.retarget();
            std::hint::black_box(m.pending_len());
        }),
    )
}

/// The 100k-pending scheduler pair: full rescan vs the production pass
/// with exactly one dirty node per iteration. The acceptance bar is the
/// production median ≥10× below the full-rescan median.
fn bench_algo1_scaling() -> (Snapshot, Snapshot) {
    const PENDING: u64 = 100_000;
    const NODES: u32 = 100;
    let full = {
        let mut m = loaded_master(PENDING, NODES, SchedEngine::Reference);
        summarize(
            "algo1/full_rescan_100k",
            sample(12, || {
                std::hint::black_box(m.retarget().rescored);
            }),
        )
    };
    let planned = {
        let mut m = loaded_master(PENDING, NODES, SchedEngine::Planned);
        let spb = 1.0 / (140.0 * MB as f64);
        m.on_heartbeat(NodeId(0), spb, BLOCK);
        m.retarget(); // warm: first pass scores everything
        let mut tick = 0u64;
        summarize(
            "algo1/planned_100k_1dirty",
            sample(24, || {
                // One node's measured cost jitters between heartbeats —
                // the steady-state shape: only the dirty node's replica
                // holders (3/NODES of entries) need rescoring, and
                // winners barely move.
                tick += 1;
                let drift = spb * (1.0 + tick as f64 * 1e-12);
                m.on_heartbeat(NodeId(0), drift, BLOCK);
                std::hint::black_box(m.retarget().rescored);
            }),
        )
    };
    (full, planned)
}

/// `on_slave_pull` against small and huge pending stores: with the
/// per-node bind queues the cost must not scale with total pending size.
fn bench_pull_bind() -> (Snapshot, Snapshot) {
    const NODES: u32 = 40;
    let run = |name: &'static str, pending: u64| -> Snapshot {
        let mut m = loaded_master(pending, NODES, SchedEngine::Planned);
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
    summarize(
        "sim/hetero_sort_2GB",
        sample(5, || {
            let cfg = hetero_config(MigrationPolicy::Dyrs, 7);
            let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            std::hint::black_box(Simulation::new(cfg, jobs).run().end_time);
        }),
    )
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

    let (full_rescan, planned) = bench_algo1_scaling();
    let (pull_1k, pull_100k) = bench_pull_bind();
    let mut snapshots = vec![bench_retarget(), full_rescan, planned];
    snapshots.extend(bench_algo1_1m());
    snapshots.extend([
        pull_1k,
        pull_100k,
        bench_pull_bind_1m(),
        bench_end_to_end(),
        bench_codec(),
        bench_loopback(),
    ]);

    // One bench object per line, keys in a fixed order: `bench-gate`
    // scans this layout line by line.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"sha\": \"{}\",\n", json::escape(&sha)));
    json.push_str("  \"benches\": [\n");
    for (i, s) in snapshots.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}}}{}\n",
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
        println!(
            "{:32} median {:>12} ns  (min {}, max {}, n={})",
            s.name, s.median_ns, s.min_ns, s.max_ns, s.iters
        );
    }
    println!("wrote {path}");
}
