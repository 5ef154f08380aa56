//! The simulation driver: owns every component and the event loop.
//!
//! Submodules split the driver by concern:
//!
//! * [`streams`](self) (in `streams.rs`) — fluid-resource plumbing:
//!   starting/cancelling streams, completion dispatch, rescheduling;
//! * `jobs.rs` — job submission, task scheduling and lifecycle;
//! * `migration.rs` — the DYRS protocol: heartbeats, pulls, retargeting,
//!   migration execution, eviction;
//! * `failures.rs` — failure injections.

#[cfg(feature = "verify-audit")]
mod audit;
mod failures;
mod grayfault;
mod jobs;
mod migration;
mod repair;
mod streams;
mod wirelink;

use crate::config::SimConfig;
use crate::events::{Ev, ResourceKind, StreamMeta};
use crate::result::{BlockReadRecord, NodeReport, SimResult};
use dyrs::{Master, Slave};
use dyrs_cluster::{Cluster, NodeId};
use dyrs_dfs::{JobId, NameNode};
use dyrs_engine::{JobMetrics, JobSpec, JobState, SlotPool, TaskId, TaskMetrics, TaskState};
use simkit::stats::TimeSeries;
use simkit::{EventQueue, Rng, SimDuration, SimTime, StreamId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash as _, Hasher as _};

/// The integrated DYRS simulation.
///
/// Build with [`Simulation::new`], run with [`Simulation::run`]. One
/// instance simulates one cluster under one policy for one workload; runs
/// are fully deterministic given the config's seed.
pub struct Simulation {
    pub(crate) cfg: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) cluster: Cluster,
    pub(crate) namenode: NameNode,
    pub(crate) master: Master,
    pub(crate) slaves: Vec<Slave>,
    pub(crate) slots: SlotPool,
    /// Every submitted job's state, keyed by id.
    pub(crate) jobs: BTreeMap<JobId, JobState>,
    /// One record per live job (submitted, not yet completed or failed):
    /// its task ids, sorted completed-map durations and read bytes.
    /// Periodic and per-job work reads these, never every task or job
    /// since t = 0.
    pub(crate) live_jobs: BTreeMap<JobId, jobs::LiveJob>,
    /// Specs not yet submitted (waiting on their dependencies).
    pub(crate) pending_specs: HashMap<JobId, JobSpec>,
    /// Unresolved dependency count per waiting job.
    pub(crate) waiting_deps: HashMap<JobId, usize>,
    /// Reverse dependency edges.
    pub(crate) dependents: HashMap<JobId, Vec<JobId>>,
    /// All tasks; `TaskId` indexes this vector.
    pub(crate) tasks: Vec<TaskState>,
    /// Execution attempt per task (bumped on re-execution after failure).
    pub(crate) attempts: Vec<u32>,
    /// Node a re-executed task must avoid (where its previous attempt ran).
    pub(crate) avoid_node: Vec<Option<NodeId>>,
    /// Tasks awaiting a container grant round, per job.
    pub(crate) ungranted: HashMap<JobId, VecDeque<TaskId>>,
    pub(crate) ready_maps: VecDeque<TaskId>,
    pub(crate) ready_reduces: VecDeque<TaskId>,
    pub(crate) schedule_pending: bool,
    /// Stream payloads in a generational slab; fluid tags are slab keys.
    /// Completion and cancellation both free the slot, so the footprint
    /// tracks concurrent streams, not total streams ever started.
    pub(crate) stream_meta: simkit::Slab<StreamMeta>,
    /// Per-node in-flight migration streams, keyed by block (at most one
    /// entry under the paper's serialized default). BTreeMap: slave
    /// restarts drain this map, and the cancellation order must not
    /// depend on hash order.
    pub(crate) active_migration_stream: Vec<BTreeMap<dyrs_dfs::BlockId, StreamId>>,
    /// Per-node live interference streams.
    pub(crate) interference_streams: Vec<Vec<StreamId>>,
    /// Per-node trace-driven background stream (rate-capped, infinite).
    pub(crate) background_stream: Vec<Option<StreamId>>,
    /// Blocks awaiting a re-replication repair.
    pub(crate) repair_queue: VecDeque<dyrs_dfs::BlockId>,
    /// Per-node: a repair copy is currently reading from this disk.
    pub(crate) repair_active: Vec<bool>,
    /// Completed repair copies.
    pub(crate) repairs_completed: u64,
    /// Events dispatched by the run loop (throughput accounting).
    pub(crate) events_processed: u64,
    /// Admin-plane scrapes performed by the run loop (see
    /// [`SimConfig::scrape_interval`]).
    pub(crate) scrapes: u64,
    /// Digest over the dispatched event stream, fed the derived `Hash`
    /// of each `(time, event)`: same scenario + same seed must reproduce
    /// it bit-for-bit (tests/determinism.rs).
    pub(crate) trace_digest: simkit::audit::TraceDigest,
    /// True once a master or slave restart has discarded soft state
    /// (§III-C): cross-component audits that assume the master's view is
    /// authoritative are skipped from then on.
    #[cfg_attr(not(feature = "verify-audit"), allow(dead_code))]
    pub(crate) soft_state_reset: bool,
    /// The DYRS master is unreachable until this instant (master-server
    /// failure, §III-C1). `None` = reachable.
    pub(crate) master_down_until: Option<SimTime>,
    /// Per-node: heartbeats to the DYRS master are lost until this instant
    /// (gray fault). Reads and replica liveness, which follow `Node::up`,
    /// are unaffected.
    pub(crate) hb_lost_until: Vec<SimTime>,
    /// Per-node: migration streams are frozen until this instant (gray
    /// fault).
    pub(crate) stuck_until: Vec<SimTime>,
    /// task → (serving node, resource, stream) for cancellation. BTreeMap:
    /// node failures iterate this to find reads served by the dead node,
    /// and the re-plan order must not depend on hash order.
    pub(crate) task_streams: BTreeMap<TaskId, (NodeId, ResourceKind, StreamId)>,
    pub(crate) done_jobs: Vec<JobMetrics>,
    pub(crate) done_tasks: Vec<TaskMetrics>,
    pub(crate) reads: Vec<BlockReadRecord>,
    pub(crate) failed_jobs: Vec<JobId>,
    pub(crate) estimate_series: Vec<TimeSeries>,
    pub(crate) buffer_series: Vec<TimeSeries>,
    /// Measured per-node disk utilization (busy fraction per heartbeat
    /// interval) — the run's own Fig.-1-style trace.
    pub(crate) utilization_series: Vec<TimeSeries>,
    /// Disk busy-time at the previous utilization sample.
    pub(crate) last_disk_busy: Vec<simkit::SimDuration>,
    /// Per-node, per-buffer-tier device busy-time at the previous
    /// heartbeat sample (tier 0 = membus, then `mid_tiers`). Feeds the
    /// `tier.utilization` gauges; read lazily — never advances a
    /// resource, so sampling stays invisible to the event stream.
    pub(crate) last_tier_busy: Vec<Vec<simkit::SimDuration>>,
    pub(crate) jobs_remaining: usize,
    pub(crate) speculations: u64,
    /// Per-node calibration probe start time.
    pub(crate) calib_start: Vec<SimTime>,
    /// Per-node: a calibration probe is currently in flight.
    pub(crate) calib_inflight: Vec<bool>,
    /// Per-node time of the last estimator signal (migration or probe).
    pub(crate) last_estimate_signal: Vec<SimTime>,
    /// Scratch for `notify_read`: the nodes holding a read block's bound
    /// migration. Reused across reads, so a read allocates nothing.
    pub(crate) read_holders: Vec<NodeId>,
    /// Observability recorder shared with the master and every slave
    /// (lifecycle spans, metrics registry, Algorithm 1 provenance). A
    /// zero-sized no-op without the `obs` feature.
    pub(crate) obs: dyrs_obs::ObsHandle,
    /// Seam between the state machines and the wire: direct calls under
    /// `WireMode::InProcess`, encode→loopback→decode under `Loopback`.
    pub(crate) wire: wirelink::WireLink,
}

impl Simulation {
    /// Build a simulation of `cfg` running `workload`.
    ///
    /// Files in `cfg.files` are created (and replicated) up front; under
    /// the `InstantRam` policy every block additionally gets an in-memory
    /// replica on its first disk replica's node, modeling the paper's
    /// vmtouch setup.
    pub fn new(cfg: SimConfig, workload: Vec<JobSpec>) -> Self {
        let n = cfg.cluster.len();
        assert!(n > 0, "empty cluster");
        let rng = Rng::new(cfg.seed);
        let cluster = cfg.cluster.build();
        // Rack-aware placement kicks in automatically when the cluster
        // spec assigns more than one rack (HDFS's default policy).
        let placement = dyrs_dfs::PlacementPolicy::rack_aware(
            cfg.cluster.racks(),
            cfg.replication,
            rng.derive(1),
        );
        let mut namenode = NameNode::with_placement(placement);
        // Pre-create all input files.
        for f in &cfg.files {
            namenode.create_file(f.name.clone(), f.bytes, cfg.block_size);
        }
        // InstantRam: pin everything in memory before the workload starts.
        if cfg.policy == dyrs::MigrationPolicy::InstantRam {
            let all: Vec<(dyrs_dfs::BlockId, NodeId)> = namenode
                .blocks
                .iter()
                .map(|b| (b.id, b.replicas[0]))
                .collect();
            for (b, node) in all {
                namenode.register_memory_replica(b, node);
            }
        }
        let obs = dyrs_obs::ObsHandle::new();
        let mut master = Master::new(cfg.policy, n, cfg.cluster.nodes[0].disk_bw, rng.derive(2));
        master.set_order(cfg.dyrs.migration_order);
        master.attach_obs(obs.clone());
        master.configure_detector(cfg.dyrs.failure_detector.clone());
        let mem_limit = |spec_cap: u64| cfg.mem_limit.unwrap_or(spec_cap);
        let slaves: Vec<Slave> = cfg
            .cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stack = s.tier_stack();
                let mut caps = stack.buffer_capacities();
                caps[0] = mem_limit(caps[0]);
                let mut sl = Slave::new_tiered(
                    NodeId(i as u32),
                    cfg.dyrs.clone(),
                    s.disk_bw,
                    &caps,
                    cfg.block_size,
                );
                sl.attach_obs(obs.clone());
                sl
            })
            .collect();
        let slots = SlotPool::new(
            n,
            cfg.engine.map_slots_per_node,
            cfg.engine.reduce_slots_per_node,
        );

        let mut sim = Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(1024),
            cluster,
            namenode,
            master,
            slaves,
            slots,
            jobs: BTreeMap::new(),
            live_jobs: BTreeMap::new(),
            pending_specs: HashMap::new(),
            waiting_deps: HashMap::new(),
            dependents: HashMap::new(),
            tasks: Vec::new(),
            attempts: Vec::new(),
            avoid_node: Vec::new(),
            ungranted: HashMap::new(),
            ready_maps: VecDeque::new(),
            ready_reduces: VecDeque::new(),
            schedule_pending: false,
            stream_meta: simkit::Slab::new(),
            active_migration_stream: vec![BTreeMap::new(); n],
            interference_streams: vec![Vec::new(); n],
            background_stream: vec![None; n],
            repair_queue: VecDeque::new(),
            repair_active: vec![false; n],
            repairs_completed: 0,
            events_processed: 0,
            scrapes: 0,
            trace_digest: simkit::audit::TraceDigest::new(),
            soft_state_reset: false,
            master_down_until: None,
            hb_lost_until: vec![SimTime::ZERO; n],
            stuck_until: vec![SimTime::ZERO; n],
            task_streams: BTreeMap::new(),
            done_jobs: Vec::new(),
            done_tasks: Vec::new(),
            reads: Vec::new(),
            failed_jobs: Vec::new(),
            estimate_series: vec![TimeSeries::new(); n],
            buffer_series: vec![TimeSeries::new(); n],
            utilization_series: vec![TimeSeries::new(); n],
            last_disk_busy: vec![simkit::SimDuration::ZERO; n],
            last_tier_busy: cfg
                .cluster
                .nodes
                .iter()
                .map(|s| vec![simkit::SimDuration::ZERO; s.tier_stack().num_buffer_tiers()])
                .collect(),
            jobs_remaining: workload.len(),
            speculations: 0,
            calib_start: vec![SimTime::ZERO; n],
            calib_inflight: vec![false; n],
            last_estimate_signal: vec![SimTime::ZERO; n],
            read_holders: Vec::new(),
            obs,
            wire: wirelink::WireLink::new(cfg.wire),
            cfg,
        };
        sim.seed_events(workload);
        sim
    }

    fn seed_events(&mut self, workload: Vec<JobSpec>) {
        // Initial heartbeats, staggered by 50 ms per node to avoid
        // artificial lockstep.
        for node in 0..self.cluster.len() as u32 {
            self.queue.schedule(
                SimTime::from_millis(50 * node as u64),
                Ev::Heartbeat(NodeId(node)),
            );
        }
        if self.cfg.policy.uses_targeting() {
            self.queue.schedule(
                SimTime::ZERO + self.cfg.dyrs.retarget_interval,
                Ev::Retarget,
            );
        }
        // Interference: trace-driven schedules become background-load
        // samples; on/off patterns become toggles.
        for sched in self.cfg.interference.clone() {
            if let Some(samples) = sched.background_samples(self.cfg.horizon) {
                for (at, u) in samples {
                    self.queue.schedule(
                        at,
                        Ev::Background {
                            node: sched.node,
                            frac_milli: (u * 1000.0).round() as u64,
                        },
                    );
                }
                continue;
            }
            for t in sched.toggles(self.cfg.horizon) {
                self.queue.schedule(
                    t.at,
                    Ev::Interference {
                        node: sched.node,
                        on: t.on,
                        streams: sched.streams,
                        weight_milli: (sched.weight * 1000.0).round() as u64,
                    },
                );
            }
        }
        // Calibration probes: scheduled after the interference toggles so
        // a probe at t=0 measures the disk *with* any t=0 interference
        // already attached (same-time events fire in scheduling order).
        for node in 0..self.cluster.len() as u32 {
            self.queue
                .schedule(SimTime::ZERO, Ev::Calibrate(NodeId(node)));
        }
        // Failure injections.
        for f in self.cfg.failures.clone() {
            let at = match &f {
                crate::config::FailureEvent::MasterRestart { at }
                | crate::config::FailureEvent::MasterServerFailure { at, .. }
                | crate::config::FailureEvent::SlaveRestart { at, .. }
                | crate::config::FailureEvent::KillJob { at, .. }
                | crate::config::FailureEvent::NodeDown { at, .. }
                | crate::config::FailureEvent::NodeUp { at, .. }
                | crate::config::FailureEvent::DrainNode { at, .. }
                | crate::config::FailureEvent::JoinNode { at, .. }
                | crate::config::FailureEvent::CheckpointRestart { at } => *at,
            };
            self.queue.schedule(at, Ev::Failure(f));
        }
        // Gray-fault injections.
        for f in self.cfg.gray_faults.clone() {
            self.queue.schedule(f.at(), Ev::GrayFault(f));
        }
        // Workload: jobs without dependencies are submitted on schedule;
        // dependent jobs wait for completions.
        for spec in workload {
            let id = spec.id;
            let deps = spec.depends_on.clone();
            if deps.is_empty() {
                self.queue.schedule(spec.submit_at, Ev::SubmitJob(id));
                self.pending_specs.insert(id, spec);
            } else {
                self.waiting_deps.insert(id, deps.len());
                for d in deps {
                    self.dependents.entry(d).or_default().push(id);
                }
                self.pending_specs.insert(id, spec);
            }
        }
    }

    /// Drive the event loop to completion and return the results.
    ///
    /// The loop ends when every job has completed or failed (periodic
    /// events alone do not keep it alive), or at the configured horizon.
    pub fn run(mut self) -> SimResult {
        // Admin-plane scrapes are an inline hook, NOT queue events: every
        // dispatched event is folded into the trace digest, so a scrape
        // that entered the queue would change the digest and break the
        // "scraping is invisible" contract (tests/determinism.rs).
        let mut next_scrape = self.cfg.scrape_interval.map(|iv| SimTime::ZERO + iv);
        while self.jobs_remaining > 0 {
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            if t > self.cfg.horizon {
                break;
            }
            self.now = t;
            self.obs.set_now(t);
            if let Some(due) = next_scrape {
                if t >= due {
                    self.scrape();
                    let iv = self
                        .cfg
                        .scrape_interval
                        .expect("next_scrape implies interval");
                    let mut d = due + iv;
                    while d <= t {
                        d += iv;
                    }
                    next_scrape = Some(d);
                }
            }
            self.events_processed += 1;
            (t, &ev).hash(&mut self.trace_digest);
            self.dispatch(ev);
        }
        self.finish()
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::SubmitJob(id) => self.on_submit_job(id),
            Ev::LaunchJob(id) => self.on_launch_job(id),
            Ev::Schedule => self.on_schedule(),
            Ev::StreamDone { node, kind, gen } => self.on_stream_done(node, kind, gen),
            Ev::TaskCompute { task, attempt } => self.on_task_compute(task, attempt),
            Ev::Heartbeat(node) => self.on_heartbeat(node),
            Ev::Retarget => self.on_retarget(),
            Ev::Interference {
                node,
                on,
                streams,
                weight_milli,
            } => self.on_interference(node, on, streams, weight_milli as f64 / 1000.0),
            Ev::Failure(f) => self.on_failure(f),
            Ev::GrayFault(f) => self.on_gray_fault(f),
            Ev::UnstickStreams(node) => self.on_unstick_streams(node),
            Ev::Calibrate(node) => self.start_calibration(node),
            Ev::GrantContainers(job) => self.on_grant_containers(job),
            Ev::Background { node, frac_milli } => {
                self.on_background(node, frac_milli as f64 / 1000.0)
            }
            Ev::ReReplicate(node) => self.on_re_replicate(node),
        }
    }

    /// One admin-plane scrape: take a live snapshot (shared borrows only
    /// — no span opened or closed, no counter or gauge written) and pay
    /// the full wire roundtrip a `dyrs-node stat` client would: encode →
    /// frame → decode for both the request and the reply.
    ///
    /// Deliberately bypasses [`WireLink`](wirelink::WireLink): the link's
    /// frame/byte counters are exported into the obs report, and a scrape
    /// must leave every exported artifact byte-identical.
    fn scrape(&mut self) {
        let version = dyrs_net::PROTOCOL_VERSION;
        let versions = dyrs_net::frame::supported_versions();
        // One buffer for both frames, dropped with the scrape: a buffer
        // kept across scrapes holds the largest reply (≈130 KB on a
        // 64-node run) for the whole run and raised peak RSS.
        let buf = &mut Vec::new();
        dyrs_net::frame::encode_frame_into(
            buf,
            version,
            &dyrs_net::proto::Message::StatsRequest {
                scope: dyrs_net::proto::StatsScope::Local,
            },
        );
        let (_, decoded) = dyrs_net::frame::decode_frame(buf, versions.clone())
            .expect("scrape request frame roundtrips");
        let scope = match decoded {
            dyrs_net::proto::Message::StatsRequest { scope } => scope,
            other => unreachable!("scrape request decodes as itself, got {other:?}"),
        };
        dyrs_net::frame::encode_frame_into(
            buf,
            version,
            &dyrs_net::proto::Message::StatsReply {
                scope,
                snapshot: self.obs.snapshot(),
            },
        );
        let (_, decoded) =
            dyrs_net::frame::decode_frame(buf, versions).expect("scrape reply frame roundtrips");
        debug_assert!(matches!(
            decoded,
            dyrs_net::proto::Message::StatsReply { .. }
        ));
        self.scrapes += 1;
    }

    /// Debounced request for a scheduling pass at the current instant.
    pub(crate) fn kick_schedule(&mut self) {
        if !self.schedule_pending {
            self.schedule_pending = true;
            self.queue.schedule(self.now, Ev::Schedule);
        }
    }

    pub(crate) fn hb_interval(&self) -> SimDuration {
        self.cfg.dyrs.heartbeat_interval
    }

    /// Number of live (not yet completed/failed) jobs — exposed for tests.
    pub fn jobs_remaining(&self) -> usize {
        self.jobs_remaining
    }

    fn finish(self) -> SimResult {
        // Whatever cut the run short (last job done, horizon), no span is
        // left dangling: open migrations get a terminal `run-end` abort.
        self.obs.close_dangling(dyrs_obs::cause::RUN_END);
        let wire_frames = self.wire.frames();
        let wire_bytes = self.wire.bytes();
        if wire_frames > 0 {
            self.obs
                .counter_add(dyrs_obs::rpc::WIRE_FRAMES, wire_frames);
            self.obs.counter_add(dyrs_obs::rpc::WIRE_BYTES, wire_bytes);
        }
        // (reads, bytes) each node served, [disk, memory], from the read log.
        let mut served = vec![[(0u64, 0u64); 2]; self.cluster.len()];
        for r in &self.reads {
            let s = &mut served[r.source.index()][usize::from(r.medium.is_memory())];
            s.0 += 1;
            s.1 += r.bytes;
        }
        let series = self
            .estimate_series
            .into_iter()
            .zip(self.buffer_series)
            .zip(self.utilization_series);
        let nodes = served
            .into_iter()
            .zip(series)
            .enumerate()
            .map(|(i, ([disk, memory], ((estimate, buffer), utilization)))| {
                let sl = &self.slaves[i];
                let node = NodeId(i as u32);
                NodeReport {
                    node,
                    disk_reads: disk.0,
                    memory_reads: memory.0,
                    disk_bytes: disk.1,
                    memory_bytes: memory.1,
                    peak_buffer_bytes: sl.memory().peak(),
                    slave: sl.stats(),
                    disk_busy: self.cluster.node(node).disk.busy_time(),
                    estimate_series: estimate,
                    buffer_series: buffer,
                    utilization_series: utilization,
                }
            })
            .collect();
        SimResult {
            jobs: self.done_jobs,
            tasks: self.done_tasks,
            nodes,
            master: self.master.stats(),
            reads: self.reads,
            failed_jobs: self.failed_jobs,
            speculations: self.speculations,
            repairs: self.repairs_completed,
            events_processed: self.events_processed,
            scrapes: self.scrapes,
            trace_digest: self.trace_digest.finish(),
            end_time: self.now,
            wire_frames,
            wire_bytes,
            obs: self.obs.take_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileSpec;
    use dyrs::MigrationPolicy;
    use dyrs_engine::JobSpec;

    fn base_cfg() -> SimConfig {
        SimConfig::paper_default(MigrationPolicy::Dyrs, 1)
    }

    #[test]
    fn empty_workload_terminates_immediately() {
        let r = Simulation::new(base_cfg(), Vec::new()).run();
        assert!(r.jobs.is_empty());
        assert_eq!(r.end_time, SimTime::ZERO);
        assert_eq!(r.master.requested_blocks, 0);
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn empty_cluster_rejected() {
        let mut cfg = base_cfg();
        cfg.cluster.nodes.clear();
        let _ = Simulation::new(cfg, Vec::new());
    }

    #[test]
    fn unknown_input_file_completes_as_empty_job() {
        // blocks_of_files skips unknown names → zero map tasks → the job
        // completes immediately rather than wedging the run
        let job = JobSpec::map_only(JobId(0), "j", SimTime::ZERO, vec!["nope".into()]);
        let r = Simulation::new(base_cfg(), vec![job]).run();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].map_tasks, 0);
    }

    #[test]
    fn jobs_remaining_tracks_progress() {
        let mut cfg = base_cfg();
        cfg.files.push(FileSpec::new("f", 256 << 20));
        let job = JobSpec::map_only(JobId(0), "j", SimTime::ZERO, vec!["f".into()]);
        let sim = Simulation::new(cfg, vec![job]);
        assert_eq!(sim.jobs_remaining(), 1);
        let r = sim.run();
        assert_eq!(r.jobs.len(), 1);
    }

    #[test]
    fn events_are_counted() {
        let mut cfg = base_cfg();
        cfg.files.push(FileSpec::new("f", 4 * (256 << 20)));
        let job = JobSpec::map_only(JobId(0), "j", SimTime::ZERO, vec!["f".into()]);
        let r = Simulation::new(cfg, vec![job]).run();
        assert!(
            r.events_processed > 50,
            "a real run dispatches many events: {}",
            r.events_processed
        );
    }

    #[test]
    fn node_reports_count_the_reads_each_node_served() {
        let mut cfg = base_cfg();
        cfg.files.push(FileSpec::new("f", 200 * (256 << 20)));
        let job = JobSpec::map_only(JobId(0), "j", SimTime::ZERO, vec!["f".into()]);
        let r = Simulation::new(cfg, vec![job]).run();
        let per_node = r.reads_per_node(r.nodes.len());
        for (n, &reads) in r.nodes.iter().zip(&per_node) {
            assert_eq!(n.memory_reads + n.disk_reads, reads, "{}", n.node);
        }
        let sum = |f: fn(&NodeReport) -> u64| r.nodes.iter().map(f).sum::<u64>();
        let (memory_reads, disk_reads) = (sum(|n| n.memory_reads), sum(|n| n.disk_reads));
        let (memory_bytes, disk_bytes) = (sum(|n| n.memory_bytes), sum(|n| n.disk_bytes));
        assert!(
            memory_reads > 0 && disk_reads > 0,
            "both media read: {memory_reads} memory, {disk_reads} disk"
        );
        let maps: Vec<_> = r.tasks.iter().filter(|t| t.is_map).collect();
        let memory_maps = maps
            .iter()
            .filter(|t| t.read_medium.is_some_and(|m| m.is_memory()))
            .count();
        assert_eq!(memory_reads, memory_maps as u64);
        assert_eq!(memory_reads + disk_reads, maps.len() as u64);
        assert_eq!(
            memory_bytes + disk_bytes,
            maps.iter().map(|t| t.bytes).sum::<u64>()
        );
        assert_eq!(
            memory_bytes as f64 / (memory_bytes + disk_bytes) as f64,
            r.memory_read_fraction()
        );
    }

    #[test]
    fn instant_ram_prepins_every_block() {
        let mut cfg = SimConfig::paper_default(MigrationPolicy::InstantRam, 1);
        cfg.files.push(FileSpec::new("f", 6 * (256 << 20)));
        let job = JobSpec::map_only(JobId(0), "j", SimTime::ZERO, vec!["f".into()]);
        let sim = Simulation::new(cfg, vec![job]);
        assert_eq!(sim.namenode.memory_replica_count(), 6);
        let r = sim.run();
        assert!((r.memory_read_fraction() - 1.0).abs() < 1e-9);
    }
}
