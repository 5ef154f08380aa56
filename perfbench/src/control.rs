//! The DYRS control plane without the simulator: a [`Master`] with an
//! [`ObsHandle`] attached, driven the way `run_master` drives it. One
//! window is one virtual second. In it a new job is admitted, the blocks
//! bound in the previous window complete, every node heartbeats and
//! pulls (half before and half after the mid-window retarget pass), a
//! reader walks the oldest job's blocks (a read cancels a block still
//! pending and evicts one already in memory), and a second retarget pass
//! closes the window.
//!
//! `master_scale` times whole windows at 100k pending over 100 nodes.
//! The other workloads run the same loop at their own size, with the
//! wire on, to time the scheduler, codec and snapshot calls they make
//! inside the program where the benchmark cannot reach.

use crate::report::{expect, ratio, Checks, Metrics};
use crate::stats::Samples;
use crate::trace::Tracer;
use dyrs::master::{BlockRequest, JobHint};
use dyrs::slave::HeartbeatReport;
use dyrs::{EvictionMode, Master, MigrationPolicy, ObsHandle};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_net::frame::{decode_frame, encode_frame, supported_versions};
use dyrs_net::{LoopbackEndpoint, LoopbackHub, Message, Peer, StatsScope, Transport};
use simkit::{Rng, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;
const DISK_BW: f64 = 140.0 * MB as f64;
/// One in this many wire messages also gets a separate, timed
/// `encode_frame` + `decode_frame` (the loopback send encodes it again).
const CODEC_SAMPLE_EVERY: u64 = 16;

/// Shape of one control-plane workload.
#[derive(Debug, Clone, Copy)]
pub struct CtlParams {
    /// Slaves heartbeating to the master.
    pub nodes: u32,
    /// Blocks of the first job, pending when the timed windows start.
    pub initial_blocks: u64,
    /// Blocks of the job admitted at the start of every window.
    pub job_blocks: u64,
    /// Blocks the reader reads per window.
    pub reads_per_window: u64,
    /// Queue slots each slave offers per heartbeat.
    pub pull_space: usize,
    /// Timed windows per master lifetime. Obs provenance grows with
    /// every pass, so a fresh master bounds peak memory.
    pub windows_per_episode: usize,
    /// Route heartbeats, binds and scrapes through the loopback wire.
    pub wire: bool,
}

/// The `master_scale` workload: 100k pending 256 MB blocks over 100 nodes.
pub const MASTER_SCALE: CtlParams = CtlParams {
    nodes: 100,
    initial_blocks: 100_000,
    job_blocks: 256,
    reads_per_window: 192,
    pull_space: 2,
    windows_per_episode: 4,
    wire: false,
};

/// The control loop sized to another workload's cluster and input.
pub fn probe_params(nodes: u32, blocks: u64, jobs: u64) -> CtlParams {
    let jobs = jobs.max(1);
    CtlParams {
        nodes,
        initial_blocks: blocks.max(1),
        job_blocks: (blocks / jobs).max(1),
        reads_per_window: u64::from(nodes),
        pull_space: 2,
        windows_per_episode: 8,
        wire: true,
    }
}

/// Everything a control-plane run measured.
#[derive(Debug, Default)]
pub struct CtlOut {
    pub setup: Samples,
    pub window: Samples,
    /// Migrations completed per second of window time, per window.
    pub rate: Samples,
    pub retarget: Samples,
    pub heartbeat: Samples,
    pub pull: Samples,
    pub admit: Samples,
    pub complete: Samples,
    pub read: Samples,
    pub snapshot: Samples,
    pub scrape: Samples,
    pub codec: Samples,
    pub send: Samples,
    pub completed: u64,
    pub hits: u64,
    pub reads: u64,
    pub passes: u64,
    pub bound: u64,
    pub missed_reads: u64,
    pub rescored: u64,
    pub skipped: u64,
    pub ceiling_hits: u64,
    pub heartbeats: u64,
    pub frames: u64,
    pub bytes: u64,
    pub span_events: u64,
    pub provenance: u64,
    pub span_bound: u64,
    pub span_finished: u64,
}

impl CtlOut {
    /// Share of read blocks that were already in memory.
    pub fn mem_read_frac(&self) -> f64 {
        ratio(self.hits as f64, self.reads as f64)
    }

    /// The per-layer metrics this loop measures.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        m.set("sched.retarget_ms.p50", self.retarget.p50() * 1e3, "ms");
        m.set(
            "sched.retarget_ms.p90",
            self.retarget.quantile(0.9) * 1e3,
            "ms",
        );
        m.set("sched.heartbeat_us.p50", self.heartbeat.p50() * 1e6, "us");
        m.set("sched.pull_us.p50", self.pull.p50() * 1e6, "us");
        m.set("sched.admit_ms.p50", self.admit.p50() * 1e3, "ms");
        m.set("sched.complete_us.p50", self.complete.p50() * 1e6, "us");
        m.set("sched.read_us.p50", self.read.p50() * 1e6, "us");
        m.set("sched.rescored", self.per_window(self.rescored), "count");
        m.set("sched.skipped", self.per_window(self.skipped), "count");
        m.set(
            "sched.skip_ratio",
            ratio(self.skipped as f64, (self.rescored + self.skipped) as f64),
            "frac",
        );
        m.set(
            "sched.ceiling_hits",
            self.per_window(self.ceiling_hits),
            "count",
        );
        m.set("obs.snapshot_us.p50", self.snapshot.p50() * 1e6, "us");
        m.set("obs.scrape_us.p50", self.scrape.p50() * 1e6, "us");
        m.set("net.codec_us.p50", self.codec.p50() * 1e6, "us");
        m.set("net.send_us.p50", self.send.p50() * 1e6, "us");
    }

    /// `n` per timed window, so counts do not grow with run length.
    fn per_window(&self, n: u64) -> f64 {
        ratio(n as f64, self.window.len() as f64)
    }

    /// The core, node and obs counts, per window. Only `master_scale`
    /// reports these: elsewhere the workload's own counts stand.
    pub fn count_metrics(&self, m: &mut Metrics) {
        m.set(
            "core.retarget_passes",
            self.per_window(self.passes),
            "count",
        );
        m.set("core.bound", self.per_window(self.bound), "count");
        m.set("core.completed", self.per_window(self.completed), "count");
        m.set(
            "core.missed_reads",
            self.per_window(self.missed_reads),
            "count",
        );
        m.set(
            "core.useful_ratio",
            ratio(self.span_finished as f64, self.span_bound as f64),
            "frac",
        );
        m.set(
            "node.heartbeats_per_op",
            self.per_window(self.heartbeats),
            "count",
        );
        m.set(
            "obs.span_events",
            self.per_window(self.span_events),
            "count",
        );
        m.set(
            "obs.provenance_records",
            self.per_window(self.provenance),
            "count",
        );
    }

    /// Describe every timing (n, median, tail) for the human report.
    pub fn describe(&self) -> Vec<String> {
        [
            ("ctl.setup", &self.setup),
            ("ctl.window", &self.window),
            ("sched.retarget", &self.retarget),
            ("sched.heartbeat", &self.heartbeat),
            ("sched.pull", &self.pull),
            ("sched.admit", &self.admit),
            ("sched.complete", &self.complete),
            ("sched.read", &self.read),
            ("obs.snapshot", &self.snapshot),
            ("obs.scrape", &self.scrape),
            ("net.codec", &self.codec),
            ("net.send", &self.send),
        ]
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(n, s)| s.describe(n))
        .collect()
    }
}

/// The slave-side view the loop keeps per node.
struct NodeSim {
    spb: f64,
    /// Blocks bound in the current window, completed at the next one.
    bound_now: Vec<BlockId>,
}

/// One master lifetime: setup, then `windows` timed windows.
struct Episode {
    p: CtlParams,
    master: Master,
    obs: ObsHandle,
    rng: Rng,
    nodes: Vec<NodeSim>,
    next_block: u64,
    next_job: u64,
    /// Blocks of the first job in admission order, walked by the reader.
    read_order: Vec<BlockId>,
    read_cursor: usize,
    /// Blocks bound and not yet completed, with their node.
    open: BTreeMap<BlockId, NodeId>,
    /// Blocks completed in this lifetime (each at most once).
    done: BTreeSet<BlockId>,
    wire: Option<Wire>,
    /// Messages carried over the wire so far.
    carried: u64,
}

struct Wire {
    hub: LoopbackHub,
    master: LoopbackEndpoint,
    slaves: Vec<LoopbackEndpoint>,
    client: LoopbackEndpoint,
}

impl Wire {
    fn endpoint(&self, p: Peer) -> &LoopbackEndpoint {
        match p {
            Peer::Master => &self.master,
            Peer::Slave(n) => &self.slaves[n as usize],
            Peer::Client(_) => &self.client,
        }
    }
}

fn replicas(base: u32, nodes: u32) -> Vec<NodeId> {
    [0, 1, 1 + nodes / 3]
        .iter()
        .map(|o| NodeId((base + o) % nodes))
        .collect()
}

impl Episode {
    fn new(p: CtlParams, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut master = Master::new(
            MigrationPolicy::Dyrs,
            p.nodes as usize,
            DISK_BW,
            rng.derive(1),
        );
        let obs = ObsHandle::new();
        master.attach_obs(obs.clone());
        let nodes = (0..p.nodes)
            .map(|_| NodeSim {
                spb: rng.range_f64(0.8, 4.0) / DISK_BW,
                bound_now: Vec::new(),
            })
            .collect();
        let wire = p.wire.then(|| {
            let hub = LoopbackHub::new();
            let master = hub.endpoint(Peer::Master);
            let slaves = (0..p.nodes).map(|n| hub.endpoint(Peer::Slave(n))).collect();
            let client = hub.endpoint(Peer::Client(0));
            Wire {
                hub,
                master,
                slaves,
                client,
            }
        });
        Episode {
            p,
            master,
            obs,
            rng,
            nodes,
            next_block: 0,
            next_job: 1,
            read_order: Vec::new(),
            read_cursor: 0,
            open: BTreeMap::new(),
            done: BTreeSet::new(),
            wire,
            carried: 0,
        }
    }

    /// Register every node, admit the first job and run the first
    /// (all-entries) retarget pass.
    fn setup(&mut self) {
        for n in 0..self.p.nodes {
            let spb = self.nodes[n as usize].spb;
            self.master
                .on_heartbeat_at(NodeId(n), spb, 0, SimTime::ZERO);
        }
        let blocks = self.job(self.p.initial_blocks);
        self.read_order = blocks.iter().map(|b| b.block).collect();
        self.admit(blocks);
        self.master.retarget();
    }

    fn job(&mut self, blocks: u64) -> Vec<BlockRequest> {
        (0..blocks)
            .map(|_| {
                let block = BlockId(self.next_block);
                self.next_block += 1;
                BlockRequest {
                    block,
                    bytes: BLOCK,
                    replicas: replicas(
                        self.rng.below(u64::from(self.p.nodes)) as u32,
                        self.p.nodes,
                    ),
                }
            })
            .collect()
    }

    fn admit(&mut self, blocks: Vec<BlockRequest>) {
        let job = JobId(self.next_job);
        self.next_job += 1;
        let total = blocks.len() as u64 * BLOCK;
        self.master.request_migration_hinted(
            job,
            blocks,
            EvictionMode::Implicit,
            JobHint {
                expected_launch: SimTime::ZERO,
                total_bytes: total,
            },
        );
    }

    /// Through the wire when it is on: `from` sends, the far side
    /// receives. Returns the message as the receiver decoded it.
    fn carry(
        &mut self,
        from: Peer,
        to: Peer,
        msg: Message,
        out: &mut CtlOut,
        tr: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Message {
        let Some(w) = &self.wire else { return msg };
        self.carried += 1;
        if self.carried % CODEC_SAMPLE_EVERY == 1 {
            let ((), secs) = tr.time("net.codec", || {
                let bytes = encode_frame(dyrs_net::PROTOCOL_VERSION, &msg);
                let _ = decode_frame(&bytes, supported_versions());
            });
            out.codec.push(secs);
        }
        let (src, dst) = (w.endpoint(from), w.endpoint(to));
        let (sent, secs) = tr.time("net.send", || src.send(to, &msg));
        out.send.push(secs);
        expect(problems, sent.is_ok(), || {
            format!("wire send failed: {sent:?}")
        });
        match dst.recv_timeout(Duration::from_secs(1)) {
            Ok((_, got)) => got,
            Err(e) => {
                problems.push(format!("wire receive failed: {e}"));
                msg
            }
        }
    }

    /// One timed window at virtual second `w`.
    fn window(&mut self, w: u64, out: &mut CtlOut, tr: &mut Tracer) -> (f64, Vec<String>) {
        let mut problems = Vec::new();
        let span = tr.begin("ctl.window");
        let t = Instant::now();
        let start = SimTime::from_secs(w);
        self.obs.set_now(start);

        let job = self.job(self.p.job_blocks);
        let ((), secs) = tr.time("sched.admit", || self.admit(job));
        out.admit.push(secs);

        // The previous window's binds finish, as MigrationComplete frames.
        for n in 0..self.p.nodes {
            for block in std::mem::take(&mut self.nodes[n as usize].bound_now) {
                let node = NodeId(n);
                let msg = self.carry(
                    Peer::Slave(n),
                    Peer::Master,
                    Message::MigrationComplete { node, block },
                    out,
                    tr,
                    &mut problems,
                );
                let Message::MigrationComplete { node, block } = msg else {
                    problems.push("completion decoded as another message".to_owned());
                    continue;
                };
                let master = &mut self.master;
                let obs = &self.obs;
                let ((), secs) = tr.time("sched.complete", || {
                    if let Some((mig, bound_at)) = master.bound_migration(node, block) {
                        obs.migration_finished(mig, node, start.saturating_since(bound_at));
                    }
                    master.on_migration_complete(node, block);
                });
                out.complete.push(secs);
                expect(
                    &mut problems,
                    self.open.remove(&block) == Some(node),
                    || format!("block {} completed but was not bound to node {n}", block.0),
                );
                expect(&mut problems, self.done.insert(block), || {
                    format!("block {} completed twice", block.0)
                });
                out.completed += 1;
            }
        }

        // Heartbeats, staggered across the window, with a retarget pass
        // at the middle and at the end (retarget_interval = 500 ms).
        let half = self.p.nodes / 2;
        for n in 0..self.p.nodes {
            if n == half {
                self.retarget(out, tr);
            }
            let at = start + SimDuration::from_secs_f64(f64::from(n) / f64::from(self.p.nodes));
            self.obs.set_now(at);
            let drift = 1.0 + self.rng.range_f64(-0.02, 0.02);
            let spb = self.nodes[n as usize].spb * drift;
            let queued = self.nodes[n as usize].bound_now.len() as u64 * BLOCK;
            let msg = self.carry(
                Peer::Slave(n),
                Peer::Master,
                Message::Heartbeat {
                    node: NodeId(n),
                    report: HeartbeatReport {
                        secs_per_byte: spb,
                        queued_bytes: queued,
                        queue_space: self.p.pull_space,
                    },
                    at,
                },
                out,
                tr,
                &mut problems,
            );
            let Message::Heartbeat { node, report, .. } = msg else {
                problems.push("heartbeat decoded as another message".to_owned());
                continue;
            };
            let master = &mut self.master;
            let obs = &self.obs;
            let ((), secs) = tr.time("sched.heartbeat", || {
                master.on_heartbeat_at(node, report.secs_per_byte, report.queued_bytes, at);
                obs.gauge("sched.pending_depth", 0, master.pending_len() as f64);
            });
            out.heartbeat.push(secs);
            out.heartbeats += 1;
            let (pulled, secs) = tr.time("sched.pull", || {
                master.on_slave_pull(node, report.queue_space)
            });
            out.pull.push(secs);
            if pulled.is_empty() {
                continue;
            }
            let msg = self.carry(
                Peer::Master,
                Peer::Slave(n),
                Message::Bind { migrations: pulled },
                out,
                tr,
                &mut problems,
            );
            let Message::Bind { migrations } = msg else {
                problems.push("bind decoded as another message".to_owned());
                continue;
            };
            for m in migrations {
                expect(
                    &mut problems,
                    !self.done.contains(&m.block) && self.open.insert(m.block, node).is_none(),
                    || format!("block {} bound twice", m.block.0),
                );
                self.nodes[n as usize].bound_now.push(m.block);
            }
        }
        self.obs.set_now(start + SimDuration::from_secs(1));
        self.retarget(out, tr);

        // The reader walks the first job's blocks in admission order.
        for _ in 0..self.p.reads_per_window {
            let Some(&block) = self.read_order.get(self.read_cursor) else {
                break;
            };
            self.read_cursor += 1;
            let master = &mut self.master;
            let (hit, secs) = tr.time("sched.read", || {
                if master.on_block_read(block) {
                    false
                } else if master.memory_location(block).is_some() {
                    master.on_evicted(block);
                    true
                } else {
                    false
                }
            });
            out.read.push(secs);
            out.reads += 1;
            out.hits += u64::from(hit);
        }
        let secs = t.elapsed().as_secs_f64();
        tr.end(span);

        let st = self.master.stats();
        let pending = self.master.pending_len() as u64;
        expect(
            &mut problems,
            st.requested_blocks == pending + st.bound + st.missed_reads,
            || {
                format!(
                    "admitted {} != pending {pending} + bound {} + cancelled {}",
                    st.requested_blocks, st.bound, st.missed_reads
                )
            },
        );
        (secs, problems)
    }

    fn retarget(&mut self, out: &mut CtlOut, tr: &mut Tracer) {
        let master = &mut self.master;
        let (st, secs) = tr.time("sched.retarget", || master.retarget());
        out.retarget.push(secs);
        out.rescored += st.rescored;
        out.skipped += st.skipped;
        out.ceiling_hits += st.ceiling_hits;
    }

    /// A scrape as the admin plane answers it: the snapshot, and over the
    /// wire the reply frame's round trip. Not part of the window time.
    fn scrape(&mut self, out: &mut CtlOut, tr: &mut Tracer, problems: &mut Vec<String>) {
        let span = tr.begin("obs.scrape");
        let t = Instant::now();
        self.obs
            .gauge("sched.pending_depth", 0, self.master.pending_len() as f64);
        let obs = &self.obs;
        let (snapshot, secs) = tr.time("obs.snapshot", || obs.snapshot());
        out.snapshot.push(secs);
        if self.wire.is_some() {
            let reply = Message::StatsReply {
                scope: StatsScope::Local,
                snapshot,
            };
            let got = self.carry(Peer::Master, Peer::Client(0), reply, out, tr, problems);
            expect(problems, matches!(got, Message::StatsReply { .. }), || {
                "scrape reply decoded as another message".to_owned()
            });
        }
        out.scrape.push(t.elapsed().as_secs_f64());
        tr.end(span);
    }

    /// Complete whatever is still bound and check that every bound block
    /// completed exactly once; then fold the lifetime's counts into `out`.
    fn finish(mut self, out: &mut CtlOut) -> Vec<String> {
        let mut problems = Vec::new();
        for (block, node) in std::mem::take(&mut self.open) {
            if let Some((mig, _)) = self.master.bound_migration(node, block) {
                self.obs.migration_finished(mig, node, SimDuration::ZERO);
            }
            self.master.on_migration_complete(node, block);
            expect(&mut problems, self.done.insert(block), || {
                format!("block {} completed twice", block.0)
            });
        }
        let st = self.master.stats();
        expect(&mut problems, st.completed == st.bound, || {
            format!("bound {} blocks but completed {}", st.bound, st.completed)
        });
        expect(&mut problems, self.done.len() as u64 == st.bound, || {
            format!(
                "{} distinct completions for {} binds",
                self.done.len(),
                st.bound
            )
        });
        out.passes += st.retarget_passes;
        out.bound += st.bound;
        out.missed_reads += st.missed_reads;
        if let Some(w) = &self.wire {
            out.frames += w.hub.frames_sent();
            out.bytes += w.hub.bytes_moved();
        }
        let report = self.obs.take_report();
        out.span_events += report.events.len() as u64;
        out.provenance += report.provenance.len() as u64;
        out.span_bound += report.counter("span.bound");
        out.span_finished += report.counter("span.finished");
        problems
    }
}

/// Run master lifetimes of `p` until `budget` has passed (always at least
/// one). Each window is one checked operation.
pub fn run(
    p: CtlParams,
    seed: u64,
    budget: Duration,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> CtlOut {
    let mut out = CtlOut::default();
    let t0 = Instant::now();
    let mut episode_seed = Rng::new(seed ^ 0x4354_4c00);
    loop {
        let mut ep = Episode::new(p, episode_seed.next_u64());
        let ((), secs) = tr.time("ctl.setup", || ep.setup());
        out.setup.push(secs);
        for w in 1..=p.windows_per_episode as u64 {
            let before = out.completed;
            let (secs, mut problems) = ep.window(w, &mut out, tr);
            out.window.push(secs);
            out.rate.push(ratio((out.completed - before) as f64, secs));
            ep.scrape(&mut out, tr, &mut problems);
            checks.op(problems);
        }
        let problems = ep.finish(&mut out);
        if !problems.is_empty() {
            checks.op(problems);
        }
        if t0.elapsed() >= budget {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(wire: bool) -> CtlParams {
        CtlParams {
            nodes: 7,
            initial_blocks: 300,
            job_blocks: 8,
            reads_per_window: 7,
            pull_space: 2,
            windows_per_episode: 5,
            wire,
        }
    }

    #[test]
    fn windows_pass_every_check_and_repeat_under_a_seed() {
        let run_once = |wire| {
            let mut checks = Checks::default();
            let mut tr = Tracer::new(wire, 1);
            let out = run(small(wire), 9, Duration::ZERO, &mut tr, &mut checks);
            assert!(checks.correct(), "{:?}", checks.violations);
            assert_eq!(checks.attempted, 5);
            out
        };
        let a = run_once(false);
        let b = run_once(true);
        assert!(a.completed > 0 && a.reads == 35);
        assert_eq!(
            (a.completed, a.hits, a.bound),
            (b.completed, b.hits, b.bound)
        );
        assert!(b.frames > 0 && a.frames == 0);
        assert!(!b.codec.is_empty() && !b.send.is_empty());
    }
}
