//! Microbenchmarks of the hot paths, including the paper's scalability
//! claim (§III-D): "Our prototype updates the targets for 50GB of pending
//! migrations in under a millisecond" — `algo1/50GB_pending` measures our
//! implementation of Algorithm 1 against exactly that bar.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyrs::master::{BlockRequest, Master};
use dyrs::types::EvictionMode;
use dyrs::{MigrationEstimator, MigrationPolicy, SchedEngine, SchedulerConfig};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::{EventQueue, FluidResource, Rng, SimDuration, SimTime};
use std::hint::black_box;

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;

/// Build a master with `blocks` pending 256 MB migrations over 7 nodes.
fn loaded_master(blocks: u64) -> Master {
    let mut m = Master::new(MigrationPolicy::Dyrs, 7, 140.0 * MB as f64, Rng::new(1));
    // Pin the reference engine: the production pass skips clean entries,
    // so warm iterations of a retarget loop would measure nothing.
    m.set_sched_config(SchedulerConfig {
        engine: SchedEngine::Reference,
    });
    let mut rng = Rng::new(2);
    for n in 0..7 {
        m.on_heartbeat(
            NodeId(n),
            rng.range_f64(0.8, 4.0) / (140.0 * MB as f64),
            rng.range_u64(0, 4) * BLOCK,
        );
    }
    let reqs: Vec<BlockRequest> = (0..blocks)
        .map(|i| {
            let mut nodes: Vec<u32> = (0..7).collect();
            rng.shuffle(&mut nodes);
            BlockRequest {
                block: BlockId(i),
                bytes: BLOCK,
                replicas: nodes[..3].iter().map(|&x| NodeId(x)).collect(),
            }
        })
        .collect();
    m.request_migration(JobId(1), reqs, EvictionMode::Implicit);
    m
}

fn bench_algo1(c: &mut Criterion) {
    let mut g = c.benchmark_group("algo1");
    // 50 GB of pending 256 MB blocks = 200 blocks (the paper's claim),
    // plus heavier loads to show the linear scaling headroom.
    for gb in [50u64, 200, 800] {
        let blocks = gb * 1024 / 256;
        let mut m = loaded_master(blocks);
        g.bench_with_input(
            BenchmarkId::new("retarget_pending", format!("{gb}GB")),
            &gb,
            |b, _| {
                b.iter(|| {
                    m.retarget();
                    black_box(m.pending_len())
                })
            },
        );
    }
    g.finish();
}

fn bench_estimator(c: &mut Criterion) {
    c.bench_function("estimator/observe+estimate", |b| {
        let mut e = MigrationEstimator::new(140.0 * MB as f64, 0.35);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            e.on_complete(BLOCK, SimDuration::from_millis(1500 + (i % 700)));
            black_box(e.estimate(BLOCK))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule+pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            let mut rng = Rng::new(3);
            for i in 0..1024u64 {
                q.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn bench_fluid(c: &mut Criterion) {
    c.bench_function("fluid/8_readers_churn", |b| {
        b.iter(|| {
            let mut r = FluidResource::new(140.0 * MB as f64, 0.02);
            let mut now = SimTime::ZERO;
            for i in 0..8u64 {
                r.advance(now);
                r.add_stream_capped(now, BLOCK as f64, 1.0, 10.0 * MB as f64, i);
            }
            let mut done = 0;
            while let Some(t) = r.next_completion() {
                now = t;
                done += r.advance(now).len();
            }
            black_box(done)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64", |b| {
        let mut r = Rng::new(9);
        b.iter(|| black_box(r.next_u64()))
    });
}

criterion_group!(
    benches,
    bench_algo1,
    bench_estimator,
    bench_event_queue,
    bench_fluid,
    bench_rng
);

mod sim_throughput {
    use super::*;
    use criterion::Criterion;
    use dyrs::MigrationPolicy;
    use dyrs_dfs::JobId as DfsJobId;
    use dyrs_engine::JobSpec;
    use dyrs_sim::{FileSpec, SimConfig, Simulation};

    /// End-to-end simulator throughput: events per second over a busy
    /// multi-job run (the practical cost of every experiment).
    pub fn bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("sim");
        g.sample_size(20);
        g.bench_function("events_multi_job_run", |b| {
            b.iter(|| {
                let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 11);
                for i in 0..8u64 {
                    cfg.files.push(FileSpec::new(format!("f{i}"), 6 * BLOCK));
                }
                let jobs: Vec<JobSpec> = (0..8u64)
                    .map(|i| {
                        JobSpec::map_only(
                            DfsJobId(i),
                            format!("j{i}"),
                            SimTime::from_secs(i),
                            vec![format!("f{i}")],
                        )
                    })
                    .collect();
                let r = Simulation::new(cfg, jobs).run();
                std::hint::black_box(r.events_processed)
            })
        });
        g.finish();
    }
}

criterion::criterion_group!(sim_benches, sim_throughput::bench);
criterion_main!(benches, sim_benches);
