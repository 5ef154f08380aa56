//! One master and three slave daemons on 127.0.0.1 TCP, in this process,
//! with one client thread on one connection running a closed loop:
//! submit a job of 12 × 16 MiB blocks, wait until every block completed
//! (`MasterProgress`), scrape the master's stats, then read-notify every
//! block and evict the job.
//!
//! Batch latency is set mostly by the daemons' 2 ms poll and 100 ms
//! virtual tick, so a run spreads its time over several cluster
//! lifetimes and reports medians.

use crate::report::{expect, ratio, Checks, Metrics};
use crate::stats::Samples;
use crate::trace::Tracer;
use dyrs::master::{BlockRequest, JobHint};
use dyrs::EvictionMode;
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_net::node::{
    run_master, run_slave, MasterConfig, MasterProgress, MasterReport, SlaveConfig, SlaveReport,
};
use dyrs_net::stats::scrape_stats;
use dyrs_net::tcp::{TcpAcceptor, TcpConfig, TcpConnector};
use dyrs_net::{Message, Peer, Role, StatsScope, Transport};
use simkit::{Rng, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SLAVES: u32 = 3;
pub const BATCH_BLOCKS: u64 = 12;
pub const BLOCK_BYTES: u64 = 16 << 20;
/// Cluster lifetimes per run; set-up time is their median.
pub const LIFETIMES: usize = 3;
/// Consecutive batches timed as one operation. A single batch takes one
/// or two heartbeat rounds, so its latency is bimodal and its median
/// flips between the modes from run to run; a group of four is not.
pub const GROUP: usize = 4;
const WAIT: Duration = Duration::from_secs(20);

#[derive(Debug, Default)]
pub struct TcpOut {
    pub setup: Samples,
    /// Latency of each batch.
    pub batch: Samples,
    /// Latency of each group of `GROUP` consecutive batches.
    pub group: Samples,
    /// Migrations completed per second, per group.
    pub rate: Samples,
    pub scrape: Samples,
    pub send: Samples,
    /// Batches run, warm-ups included.
    pub jobs: u64,
    pub reads: u64,
    pub hits: u64,
    pub heartbeats: u64,
    pub frames: u64,
    pub errors: u64,
    pub span_bound: u64,
    pub span_finished: u64,
    pub span_events: u64,
    pub provenance: u64,
}

impl TcpOut {
    pub fn mem_read_frac(&self) -> f64 {
        ratio(self.hits as f64, self.reads as f64)
    }

    /// The daemons' counts, per batch. Their reports cover every batch a
    /// lifetime ran, warm-ups included, so they divide by `jobs`.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let per_batch = |n: u64| ratio(n as f64, self.jobs as f64);
        m.set(
            "node.heartbeats_per_op",
            ratio(self.heartbeats as f64, self.batch.len() as f64),
            "count",
        );
        m.set("net.frames", per_batch(self.frames), "count");
        m.set("net.errors", self.errors as f64, "count");
        m.set("net.send_us.p50", self.send.p50() * 1e6, "us");
        m.set("obs.scrape_us.p50", self.scrape.p50() * 1e6, "us");
        m.set("core.bound", per_batch(self.span_bound), "count");
        m.set("core.completed", per_batch(self.span_finished), "count");
        m.set(
            "core.useful_ratio",
            ratio(self.span_finished as f64, self.span_bound as f64),
            "frac",
        );
        m.set("obs.span_events", per_batch(self.span_events), "count");
        m.set(
            "obs.provenance_records",
            per_batch(self.provenance),
            "count",
        );
    }

    pub fn describe(&self) -> Vec<String> {
        vec![
            self.setup.describe("tcp.setup"),
            self.batch.describe("tcp.batch"),
            self.group.describe("tcp.group"),
            self.scrape.describe("tcp.scrape"),
            self.send.describe("tcp.send"),
        ]
    }
}

struct Lifetime {
    client: TcpConnector,
    progress: MasterProgress,
    master_stop: Arc<AtomicBool>,
    master: JoinHandle<MasterReport>,
    slave_stop: Arc<AtomicBool>,
    slaves: Vec<JoinHandle<Option<SlaveReport>>>,
}

/// Bind, start three slaves and the master, and connect the client.
fn start() -> Result<Lifetime, String> {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", TcpConfig::default())
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    let addr = acceptor.local_addr().to_string();
    let slave_stop = Arc::new(AtomicBool::new(false));
    let slaves = (0..SLAVES)
        .map(|n| {
            let addr = addr.clone();
            let stop = Arc::clone(&slave_stop);
            std::thread::spawn(move || {
                let conn =
                    TcpConnector::connect(&addr, Role::Slave, n, TcpConfig::default()).ok()?;
                let report = run_slave(&conn, &SlaveConfig::new(NodeId(n)), &stop);
                conn.shutdown();
                Some(report)
            })
        })
        .collect::<Vec<_>>();
    let master_stop = Arc::new(AtomicBool::new(false));
    let progress = MasterProgress::default();
    if !acceptor.wait_for_peers(SLAVES as usize, WAIT) {
        slave_stop.store(true, Ordering::SeqCst);
        acceptor.shutdown();
        for s in slaves {
            let _ = s.join();
        }
        return Err("slaves did not all connect".to_owned());
    }
    let master = {
        let stop = Arc::clone(&master_stop);
        let progress = progress.clone();
        std::thread::spawn(move || {
            let report = run_master(
                &acceptor,
                &MasterConfig::new(SLAVES as usize),
                &stop,
                &progress,
            );
            acceptor.shutdown();
            report
        })
    };
    match TcpConnector::connect(&addr, Role::Client, 0, TcpConfig::default()) {
        Ok(client) => Ok(Lifetime {
            client,
            progress,
            master_stop,
            master,
            slave_stop,
            slaves,
        }),
        Err(e) => {
            // Stop what already started before reporting the failure.
            master_stop.store(true, Ordering::SeqCst);
            let _ = master.join();
            slave_stop.store(true, Ordering::SeqCst);
            for s in slaves {
                let _ = s.join();
            }
            Err(format!("client connect: {e:?}"))
        }
    }
}

fn wait_for(counter: &AtomicU64, n: u64) -> bool {
    let deadline = Instant::now() + WAIT;
    while counter.load(Ordering::SeqCst) < n {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// One closed-loop batch; returns the problems it found.
fn batch(
    l: &Lifetime,
    job: u64,
    nth: u64,
    rng: &mut Rng,
    out: &mut TcpOut,
    tr: &mut Tracer,
) -> Vec<String> {
    let mut p = Vec::new();
    let first = job * BATCH_BLOCKS;
    let blocks: Vec<BlockRequest> = (first..first + BATCH_BLOCKS)
        .map(|b| {
            let base = rng.below(u64::from(SLAVES)) as u32;
            BlockRequest {
                block: BlockId(b),
                bytes: BLOCK_BYTES,
                replicas: (0..SLAVES).map(|r| NodeId((base + r) % SLAVES)).collect(),
            }
        })
        .collect();
    let done_before = l.progress.completed.load(Ordering::SeqCst);
    let hb_before = l.progress.heartbeats.load(Ordering::SeqCst);
    let evicted_before = l.progress.evicted.load(Ordering::SeqCst);
    let span = tr.begin("tcp.batch");
    let t = Instant::now();
    let msg = Message::RequestMigration {
        job: JobId(job),
        blocks,
        eviction: EvictionMode::Explicit,
        hint: JobHint {
            expected_launch: SimTime::ZERO,
            total_bytes: BATCH_BLOCKS * BLOCK_BYTES,
        },
    };
    let (sent, secs) = tr.time("net.send", || l.client.send(Peer::Master, &msg));
    out.send.push(secs);
    expect(&mut p, sent.is_ok(), || {
        format!("submit job {job}: {sent:?}")
    });
    let done = wait_for(&l.progress.completed, done_before + BATCH_BLOCKS);
    out.batch.push(t.elapsed().as_secs_f64());
    tr.end(span);
    expect(&mut p, done, || {
        format!("job {job}: blocks did not all complete")
    });
    let completed = l.progress.completed.load(Ordering::SeqCst) - done_before;
    out.heartbeats += l.progress.heartbeats.load(Ordering::SeqCst) - hb_before;

    let (snap, secs) = tr.time("obs.scrape", || {
        scrape_stats(&l.client, Peer::Master, StatsScope::Local, WAIT)
    });
    out.scrape.push(secs);
    match snap {
        Ok(s) => {
            expect(
                &mut p,
                !s.enabled || s.counter("span.bound") == (nth + 1) * BATCH_BLOCKS,
                || {
                    format!(
                        "scrape after job {job}: span.bound {}",
                        s.counter("span.bound")
                    )
                },
            );
        }
        Err(e) => p.push(format!("scrape after job {job}: {e}")),
    }

    // The job reads its input (all of it already in memory), then ends.
    for b in first..first + BATCH_BLOCKS {
        let msg = Message::ReadNotify {
            block: BlockId(b),
            job: JobId(job),
        };
        let (sent, secs) = tr.time("net.send", || l.client.send(Peer::Master, &msg));
        out.send.push(secs);
        expect(&mut p, sent.is_ok(), || {
            format!("read-notify {b}: {sent:?}")
        });
        out.reads += 1;
        out.hits += u64::from(completed >= BATCH_BLOCKS);
    }
    let msg = Message::EvictJobRequest { job: JobId(job) };
    let (sent, secs) = tr.time("net.send", || l.client.send(Peer::Master, &msg));
    out.send.push(secs);
    expect(&mut p, sent.is_ok(), || {
        format!("evict job {job}: {sent:?}")
    });
    expect(
        &mut p,
        wait_for(&l.progress.evicted, evicted_before + BATCH_BLOCKS),
        || format!("job {job}: evictions did not all report back"),
    );
    p
}

/// Shut the cluster down through the orderly barrier and check every
/// connection's frame accounting.
fn stop(l: Lifetime, requested: u64, out: &mut TcpOut) -> Vec<String> {
    let mut p = Vec::new();
    l.master_stop.store(true, Ordering::SeqCst);
    let master = l.master.join();
    // Slaves exit on the master's Shutdown; the flag covers a master that
    // never got to send it.
    l.slave_stop.store(true, Ordering::SeqCst);
    let slaves: Vec<_> = l.slaves.into_iter().map(|s| s.join()).collect();
    l.client.shutdown();
    match master {
        Ok(r) => {
            expect(&mut p, r.zero_loss(), || "master: frames lost".to_owned());
            expect(&mut p, r.errors.is_empty(), || {
                format!("master errors: {:?}", r.errors)
            });
            expect(&mut p, r.completed.len() as u64 == requested, || {
                format!("master completed {} of {requested}", r.completed.len())
            });
            out.frames += r.sent.values().sum::<u64>() + r.received.values().sum::<u64>();
            out.errors += r.errors.len() as u64;
            out.span_bound += r.obs.counter("span.bound");
            out.span_finished += r.obs.counter("span.finished");
            out.span_events += r.obs.events.len() as u64;
            out.provenance += r.obs.provenance.len() as u64;
        }
        Err(_) => p.push("master thread panicked".to_owned()),
    }
    for (n, s) in slaves.into_iter().enumerate() {
        match s {
            Ok(Some(r)) => {
                expect(&mut p, r.zero_loss(), || format!("slave {n}: frames lost"));
                expect(&mut p, r.errors.is_empty(), || {
                    format!("slave {n} errors: {:?}", r.errors)
                });
                out.errors += r.errors.len() as u64;
                out.span_events += r.obs.events.len() as u64;
            }
            Ok(None) => p.push(format!("slave {n} failed to connect")),
            Err(_) => p.push(format!("slave {n} thread panicked")),
        }
    }
    p
}

/// Run `LIFETIMES` cluster lifetimes, splitting `budget` between them.
pub fn run(seed: u64, budget: Duration, tr: &mut Tracer, checks: &mut Checks) -> TcpOut {
    let mut out = TcpOut::default();
    let mut rng = Rng::new(seed ^ 0x5443_5000);
    let mut job = 0u64;
    for _ in 0..LIFETIMES {
        let (l, secs) = tr.time("tcp.setup", start);
        out.setup.push(secs);
        let l = match l {
            Ok(l) => l,
            Err(e) => {
                checks.op(vec![e]);
                continue;
            }
        };
        let first_job = job;
        // Warm-up: one untimed (but checked) batch per lifetime, so the
        // first heartbeats and connections settle before timing.
        checks.op(batch(&l, job, 0, &mut rng, &mut TcpOut::default(), tr));
        job += 1;
        let t0 = Instant::now();
        let mut group = (0.0, 0);
        while group.1 > 0 || out.group.is_empty() || t0.elapsed() < budget / LIFETIMES as u32 {
            checks.op(batch(&l, job, job - first_job, &mut rng, &mut out, tr));
            job += 1;
            group = (group.0 + out.batch.last().unwrap_or(0.0), group.1 + 1);
            if group.1 == GROUP {
                out.group.push(group.0);
                out.rate
                    .push(ratio((GROUP as u64 * BATCH_BLOCKS) as f64, group.0));
                group = (0.0, 0);
            }
        }
        let problems = stop(l, (job - first_job) * BATCH_BLOCKS, &mut out);
        if !problems.is_empty() {
            checks.op(problems);
        }
    }
    out.jobs = job;
    out
}
