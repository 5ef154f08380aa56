//! The `dyrs-node` daemon loops: the existing [`Master`]/[`Slave`] state
//! machines from `crates/core`, driven by protocol messages off a
//! [`Transport`] instead of by the simulator's event loop.
//!
//! ## Time
//!
//! The state machines consume [`SimTime`], never a wall clock: each
//! daemon advances a private virtual clock by [`tick`](MasterConfig::tick)
//! per poll iteration. EWMA smoothing, the failure detector and
//! Algorithm 1 only ever compare these timestamps against each other, so
//! a tick that drifts from real time changes nothing about correctness.
//!
//! ## Orderly shutdown, and how "zero lost messages" is proven
//!
//! Both sides count every post-handshake frame they send. Shutdown is a
//! two-way barrier over the (ordered, reliable) transport:
//!
//! 1. the master sends each slave `Shutdown { sent }` as its *last*
//!    frame, where `sent` includes the shutdown frame itself;
//! 2. the slave, having received `Shutdown`, has by ordering received
//!    every master frame — it checks its receive count against `sent`,
//!    answers with its *last* frame `Bye { sent }`, and exits;
//! 3. the master drains until every slave's `Bye` arrives and checks
//!    each against its per-slave receive count.
//!
//! A mismatch on either side is a lost (or phantom) message and fails
//! the run report's `zero_loss()`.

use crate::proto::{Message, StatsScope};
use crate::transport::{Peer, Transport, TransportError};
use dyrs::config::{DyrsConfig, FailureDetectorConfig};
use dyrs::slave::Revoked;
use dyrs::{Master, MigrationPolicy, Slave};
use dyrs_cluster::NodeId;
use dyrs_dfs::BlockId;
use dyrs_obs::FlightRecord;
use simkit::{Rng, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default virtual time advanced per poll iteration.
pub const DEFAULT_TICK: SimDuration = SimDuration::from_millis(100);

/// Default real-time poll interval (how long a daemon blocks on the
/// transport per iteration).
pub const DEFAULT_POLL: Duration = Duration::from_millis(2);

/// How many poll windows the master waits for outstanding `Bye`s before
/// giving up during shutdown.
const BYE_DRAIN_WINDOWS: u32 = 2_000;

/// Master daemon tuning.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Targeting policy (DYRS for real deployments).
    pub policy: MigrationPolicy,
    /// Cluster size the master plans for.
    pub num_nodes: usize,
    /// Prior disk bandwidth (bytes/s) before first heartbeats arrive.
    pub default_disk_bw: f64,
    /// Seed for the master's (deterministic) tie-break randomness.
    pub seed: u64,
    /// DYRS tunables (retarget cadence is read from here).
    pub dyrs: DyrsConfig,
    /// Virtual time per poll iteration.
    pub tick: SimDuration,
    /// Real blocking time per poll iteration.
    pub poll: Duration,
    /// Gray-failure detector for the daemon master. `None` (the default)
    /// keeps it off: the daemons advance virtual time per *poll*, so
    /// heartbeat deadlines measure wall-clock scheduling jitter rather
    /// than simulated silence — only enable this with deadlines sized
    /// for that. Quarantines fire the flight recorder automatically.
    pub detector: Option<FailureDetectorConfig>,
    /// A checkpoint to reload before serving (master restart). Restored
    /// heartbeat deadlines come back unarmed, so the fleet re-registers
    /// through its ordinary heartbeats without being mass-suspected.
    pub restore: Option<dyrs::master::MasterCheckpoint>,
}

impl MasterConfig {
    /// A DYRS master for `num_nodes` slaves with paper-default tunables.
    pub fn new(num_nodes: usize) -> Self {
        MasterConfig {
            policy: MigrationPolicy::Dyrs,
            num_nodes,
            default_disk_bw: 100.0 * (1 << 20) as f64,
            seed: 1,
            dyrs: DyrsConfig::default(),
            tick: DEFAULT_TICK,
            poll: DEFAULT_POLL,
            detector: None,
            restore: None,
        }
    }
}

/// Live progress counters a supervisor (or test) can watch while
/// [`run_master`] owns the thread.
#[derive(Debug, Clone, Default)]
pub struct MasterProgress {
    /// Migrations that reported complete.
    pub completed: Arc<AtomicU64>,
    /// Evictions that reported back.
    pub evicted: Arc<AtomicU64>,
    /// Heartbeats processed.
    pub heartbeats: Arc<AtomicU64>,
}

/// What a finished master run observed.
#[derive(Debug)]
pub struct MasterReport {
    /// Post-handshake frames sent per slave (including `Shutdown`).
    pub sent: BTreeMap<u32, u64>,
    /// Post-handshake frames received per slave (including `Bye`).
    pub received: BTreeMap<u32, u64>,
    /// Each slave's advertised send count from its `Bye`.
    pub byes: BTreeMap<u32, u64>,
    /// `(node, block)` pairs that completed migration.
    pub completed: Vec<(u32, u64)>,
    /// Protocol-level violations observed (empty on a healthy run).
    pub errors: Vec<String>,
    /// The master's observability report (spans, counters); empty when
    /// the `obs` feature is off.
    pub obs: dyrs_obs::ObsReport,
    /// Automatic flight-recorder dumps taken during the run (node
    /// quarantines, protocol violations), oldest first.
    pub flight: Vec<FlightRecord>,
}

impl MasterReport {
    /// True when every slave said `Bye` and every advertised count
    /// matches what actually arrived — no frame lost in either
    /// direction, for any peer.
    pub fn zero_loss(&self) -> bool {
        !self.byes.is_empty()
            && self.sent.keys().all(|n| self.byes.contains_key(n))
            && self
                .byes
                .iter()
                .all(|(n, advertised)| self.received.get(n) == Some(advertised))
    }
}

/// Run a master daemon over `transport` until `stop` is set, then
/// perform the orderly shutdown barrier and return the run report.
pub fn run_master<T: Transport>(
    transport: &T,
    cfg: &MasterConfig,
    stop: &AtomicBool,
    progress: &MasterProgress,
) -> MasterReport {
    let mut master = Master::new(
        cfg.policy,
        cfg.num_nodes,
        cfg.default_disk_bw,
        Rng::new(cfg.seed),
    );
    let obs = dyrs_obs::ObsHandle::new();
    master.attach_obs(obs.clone());
    if let Some(det) = cfg.detector.clone() {
        master.configure_detector(det);
    }

    let mut now = SimTime::from_micros(0);
    let mut last_retarget = now;
    let mut known: BTreeSet<u32> = BTreeSet::new();
    let mut sent: BTreeMap<u32, u64> = BTreeMap::new();
    let mut received: BTreeMap<u32, u64> = BTreeMap::new();
    let mut byes: BTreeMap<u32, u64> = BTreeMap::new();
    let mut completed: Vec<(u32, u64)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Checkpoint restart: rebuild bindings and the pending list before
    // serving. Slaves re-register through their ordinary heartbeats (the
    // restored deadlines are unarmed), so no extra handshake frame exists
    // to lose.
    if let Some(cp) = &cfg.restore {
        if let Err(e) = master.restore_from(cp) {
            errors.push(format!("checkpoint restore: {e}"));
        }
    }
    // Relay bookkeeping for Node-scoped scrapes: per-slave FIFO of
    // requesters awaiting that slave's reply. The transport is ordered
    // per connection, so replies pair with requests front-to-back.
    let mut pending_scrapes: BTreeMap<u32, VecDeque<Peer>> = BTreeMap::new();

    let send = |transport: &T, sent: &mut BTreeMap<u32, u64>, node: u32, msg: Message| {
        match transport.send(Peer::Slave(node), &msg) {
            Ok(()) => *sent.entry(node).or_insert(0) += 1,
            Err(e) => {
                // Counted sends only cover frames actually queued; a
                // failed send is visible as a count mismatch at Bye time.
                let _ = e;
            }
        }
    };
    // Reply to whichever peer asked: frames to slaves join the per-slave
    // ledger, frames to clients ride outside the shutdown barrier.
    let reply_to = |transport: &T, sent: &mut BTreeMap<u32, u64>, to: Peer, msg: Message| match to {
        Peer::Slave(n) => send(transport, sent, n, msg),
        other => {
            let _ = transport.send(other, &msg);
        }
    };
    // A slave's completion or eviction report, handled the same way in the
    // main loop and in the shutdown drain; any other frame is ignored.
    let on_slave_report = |master: &mut Master,
                           completed: &mut Vec<(u32, u64)>,
                           now: SimTime,
                           msg: Message| match msg {
        Message::MigrationComplete { node, block } => {
            // The daemon owns its span's terminal event; in the simulator
            // the slave model shares the obs handle and emits it instead.
            if let Some((mig, bound_at)) = master.bound_migration(node, block) {
                obs.migration_finished(mig, node, now.saturating_since(bound_at));
            }
            master.on_migration_complete(node, block);
            completed.push((node.0, block.0));
            progress.completed.fetch_add(1, Ordering::SeqCst);
        }
        Message::Evicted { block, .. } => {
            master.on_evicted(block);
            progress.evicted.fetch_add(1, Ordering::SeqCst);
        }
        _ => {}
    };

    loop {
        match transport.recv_timeout(cfg.poll) {
            Ok((peer, msg)) => {
                if let Peer::Slave(n) = peer {
                    *received.entry(n).or_insert(0) += 1;
                }
                match (peer, msg) {
                    (Peer::Slave(_), Message::Heartbeat { node, report, .. }) => {
                        known.insert(node.0);
                        progress.heartbeats.fetch_add(1, Ordering::SeqCst);
                        master.on_heartbeat_at(
                            node,
                            report.secs_per_byte,
                            report.queued_bytes,
                            now,
                        );
                        let pulled = master.on_slave_pull(node, report.queue_space);
                        if !pulled.is_empty() {
                            send(
                                transport,
                                &mut sent,
                                node.0,
                                Message::Bind { migrations: pulled },
                            );
                        }
                        if master.detector_enabled() {
                            // The daemon cannot query slave queues
                            // synchronously, so suspect nodes are left to
                            // the stuck detector; confirmed-stuck bindings
                            // are revoked over the wire (a slave ignores
                            // blocks it no longer holds). Quarantines
                            // inside check_health auto-dump the flight
                            // recorder.
                            let health = master.check_health(now);
                            for (snode, block) in health.stuck {
                                send(transport, &mut sent, snode.0, Message::Revoke { block });
                                master.on_unbound(snode, block, dyrs_obs::cause::STUCK_STREAM);
                            }
                            obs.gauge(
                                "node.health",
                                node.0 as u64,
                                master.node_health(node).as_gauge(),
                            );
                        }
                        obs.gauge(
                            "node.membership",
                            node.0 as u64,
                            master.membership(node).as_gauge(),
                        );
                        // Scheduler gauges sampled on every heartbeat
                        // batch, so a mid-run scrape sees the live
                        // backlog.
                        obs.gauge("sched.pending_depth", 0, master.pending_len() as f64);
                    }
                    (
                        Peer::Slave(_),
                        msg @ (Message::MigrationComplete { .. } | Message::Evicted { .. }),
                    ) => on_slave_report(&mut master, &mut completed, now, msg),
                    (Peer::Slave(n), Message::Bye { sent }) => {
                        byes.insert(n, sent);
                    }
                    (
                        Peer::Client(_),
                        Message::RequestMigration {
                            job,
                            blocks,
                            eviction,
                            hint,
                        },
                    ) => {
                        let outcome = master.request_migration_hinted(job, blocks, eviction, hint);
                        for (node, block, jref) in outcome.add_refs {
                            send(
                                transport,
                                &mut sent,
                                node.0,
                                Message::AddRef { block, job: jref },
                            );
                        }
                        // Ignem-style immediate bindings, grouped per node.
                        let mut by_node: BTreeMap<u32, Vec<dyrs::Migration>> = BTreeMap::new();
                        for b in outcome.immediate {
                            by_node.entry(b.node.0).or_default().push(b.migration);
                        }
                        for (node, migrations) in by_node {
                            send(transport, &mut sent, node, Message::Bind { migrations });
                        }
                    }
                    (Peer::Client(_), Message::ReadNotify { block, job }) => {
                        let _cancelled = master.on_block_read(block);
                        // Forward the read to the slave buffering the
                        // block so implicit eviction can run (§IV-A1).
                        if let Some(host) = master.memory_location(block) {
                            send(
                                transport,
                                &mut sent,
                                host.0,
                                Message::ReadNotify { block, job },
                            );
                        }
                    }
                    (Peer::Client(_), Message::EvictJobRequest { job }) => {
                        for node in master.evict_job(job) {
                            send(transport, &mut sent, node.0, Message::EvictJob { job });
                        }
                    }
                    (requester, Message::StatsRequest { scope }) => match scope {
                        StatsScope::Local => {
                            // Sample the scheduler gauges at scrape time
                            // too, so depth is current even before the
                            // first heartbeat batch.
                            obs.gauge("sched.pending_depth", 0, master.pending_len() as f64);
                            if master.detector_enabled() {
                                for &n in &known {
                                    obs.gauge(
                                        "node.health",
                                        u64::from(n),
                                        master.node_health(NodeId(n)).as_gauge(),
                                    );
                                }
                            }
                            // Membership is tracked with or without the
                            // detector.
                            for &n in &known {
                                obs.gauge(
                                    "node.membership",
                                    u64::from(n),
                                    master.membership(NodeId(n)).as_gauge(),
                                );
                            }
                            let reply = Message::StatsReply {
                                scope: StatsScope::Local,
                                snapshot: obs.snapshot(),
                            };
                            reply_to(transport, &mut sent, requester, reply);
                        }
                        StatsScope::LocalFlight => {
                            let reply = Message::FlightDump {
                                scope: StatsScope::LocalFlight,
                                record: obs.flight_dump("on-demand", None),
                            };
                            reply_to(transport, &mut sent, requester, reply);
                        }
                        // Relay to the slave; if it is not connected the
                        // send fails silently and the requester times out.
                        StatsScope::Node(n) => {
                            send(
                                transport,
                                &mut sent,
                                n,
                                Message::StatsRequest {
                                    scope: StatsScope::Local,
                                },
                            );
                            pending_scrapes.entry(n).or_default().push_back(requester);
                        }
                        StatsScope::NodeFlight(n) => {
                            send(
                                transport,
                                &mut sent,
                                n,
                                Message::StatsRequest {
                                    scope: StatsScope::LocalFlight,
                                },
                            );
                            pending_scrapes.entry(n).or_default().push_back(requester);
                        }
                    },
                    (requester, Message::DrainNode { node }) => {
                        if (node as usize) < cfg.num_nodes {
                            // Revoke the not-yet-started bindings over the
                            // wire (a slave ignores blocks it no longer
                            // holds / already streams) and re-pend each as
                            // a drain successor at its original position.
                            for block in master.drain_node(NodeId(node)) {
                                send(transport, &mut sent, node, Message::Revoke { block });
                                master.on_drain_unbound(NodeId(node), block);
                            }
                            // Safe-removal poll: each DrainNode re-checks;
                            // the ack carries the current phase so the
                            // admin client can poll to `removed`.
                            if master.drain_complete(NodeId(node)) {
                                master.decommission(NodeId(node));
                            }
                            let membership = master.membership(NodeId(node));
                            obs.gauge("node.membership", u64::from(node), membership.as_gauge());
                            reply_to(
                                transport,
                                &mut sent,
                                requester,
                                Message::DecommissionAck {
                                    node,
                                    membership: membership.code(),
                                },
                            );
                        } else {
                            errors.push(format!("drain for out-of-range node {node}"));
                        }
                    }
                    (requester, Message::JoinRequest { node }) => {
                        if (node as usize) < cfg.num_nodes {
                            master.join_node(NodeId(node));
                            let membership = master.membership(NodeId(node));
                            obs.gauge("node.membership", u64::from(node), membership.as_gauge());
                            reply_to(
                                transport,
                                &mut sent,
                                requester,
                                Message::DecommissionAck {
                                    node,
                                    membership: membership.code(),
                                },
                            );
                        } else {
                            errors.push(format!("join for out-of-range node {node}"));
                        }
                    }
                    (requester, Message::CheckpointRequest) => {
                        obs.counter_add("membership.checkpoints", 1);
                        let data = crate::checkpoint::checkpoint_to_bytes(&master.checkpoint());
                        reply_to(
                            transport,
                            &mut sent,
                            requester,
                            Message::Checkpoint { data },
                        );
                    }
                    (Peer::Slave(n), Message::StatsReply { snapshot, .. }) => {
                        if let Some(req) = pending_scrapes.get_mut(&n).and_then(VecDeque::pop_front)
                        {
                            let reply = Message::StatsReply {
                                scope: StatsScope::Node(n),
                                snapshot,
                            };
                            reply_to(transport, &mut sent, req, reply);
                        }
                    }
                    (Peer::Slave(n), Message::FlightDump { record, .. }) => {
                        if let Some(req) = pending_scrapes.get_mut(&n).and_then(VecDeque::pop_front)
                        {
                            let reply = Message::FlightDump {
                                scope: StatsScope::NodeFlight(n),
                                record,
                            };
                            reply_to(transport, &mut sent, req, reply);
                        }
                    }
                    (peer, other) => {
                        errors.push(format!("unexpected {} from {peer}", other.name()));
                        obs.flight_auto_dump("protocol-violation", None);
                    }
                }
            }
            Err(TransportError::Timeout) => {}
            Err(TransportError::Protocol(e)) => {
                errors.push(format!("protocol: {e}"));
                obs.flight_auto_dump("protocol-violation", None);
            }
            Err(e) => {
                errors.push(format!("transport: {e}"));
                break;
            }
        }

        now += cfg.tick;
        obs.set_now(now);
        if now.saturating_since(last_retarget) >= cfg.dyrs.retarget_interval {
            let stats = master.retarget();
            obs.gauge("sched.dirty_entries", 0, stats.rescored as f64);
            obs.gauge("sched.pending_depth", 0, master.pending_len() as f64);
            last_retarget = now;
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }

    // Shutdown barrier: last frame to each slave advertises the final
    // per-peer send count (including the Shutdown itself).
    for node in known.clone() {
        let total = sent.get(&node).copied().unwrap_or(0) + 1;
        send(
            transport,
            &mut sent,
            node,
            Message::Shutdown { sent: total },
        );
    }
    let mut windows = 0;
    while byes.len() < known.len() && windows < BYE_DRAIN_WINDOWS {
        match transport.recv_timeout(cfg.poll) {
            Ok((Peer::Slave(n), Message::Bye { sent })) => {
                *received.entry(n).or_insert(0) += 1;
                byes.insert(n, sent);
            }
            Ok((Peer::Slave(n), other)) => {
                // Late in-flight traffic (completions racing shutdown)
                // still counts toward the frame accounting.
                *received.entry(n).or_insert(0) += 1;
                on_slave_report(&mut master, &mut completed, now, other);
            }
            Ok(_) => {}
            Err(TransportError::Timeout) => windows += 1,
            Err(_) => break,
        }
    }

    obs.close_dangling(dyrs_obs::cause::RUN_END);
    MasterReport {
        sent,
        received,
        byes,
        completed,
        errors,
        flight: obs.auto_flight_dumps(),
        obs: obs.take_report(),
    }
}

/// Slave daemon tuning.
#[derive(Debug, Clone)]
pub struct SlaveConfig {
    /// This slave's NodeId.
    pub node: NodeId,
    /// DYRS tunables (heartbeat cadence is read from here).
    pub dyrs: DyrsConfig,
    /// Synthetic disk bandwidth (bytes per *virtual* second) used to
    /// pace migration execution.
    pub disk_bw: f64,
    /// Memory buffer capacity in bytes.
    pub mem_capacity: u64,
    /// Reference block size (queue sizing).
    pub reference_block: u64,
    /// Virtual time per poll iteration.
    pub tick: SimDuration,
    /// Real blocking time per poll iteration.
    pub poll: Duration,
}

impl SlaveConfig {
    /// A slave with paper-default tunables and a fast synthetic disk
    /// (sized so smoke-test blocks complete within a few ticks).
    pub fn new(node: NodeId) -> Self {
        SlaveConfig {
            node,
            dyrs: DyrsConfig::default(),
            disk_bw: 100.0 * (1 << 20) as f64,
            mem_capacity: 4 << 30,
            reference_block: 256 << 20,
            tick: DEFAULT_TICK,
            poll: DEFAULT_POLL,
        }
    }
}

/// What a finished slave run observed.
#[derive(Debug)]
pub struct SlaveReport {
    /// Post-handshake frames sent (including `Bye`).
    pub sent: u64,
    /// Post-handshake frames received (including `Shutdown`).
    pub received: u64,
    /// The master's advertised send count from `Shutdown`.
    pub advertised: Option<u64>,
    /// Migrations executed to completion.
    pub completed: u64,
    /// Blocks evicted.
    pub evicted: u64,
    /// Protocol-level violations observed (empty on a healthy run).
    pub errors: Vec<String>,
    /// The slave's observability report (spans, counters); empty when
    /// the `obs` feature is off.
    pub obs: dyrs_obs::ObsReport,
}

impl SlaveReport {
    /// True when the master's advertised frame count matches what this
    /// slave actually received.
    pub fn zero_loss(&self) -> bool {
        self.advertised == Some(self.received)
    }
}

/// Size of the synthetic startup calibration read.
const CALIBRATION_BYTES: u64 = 8 << 20;

/// The slave daemon's state between frames. Both receive paths of
/// [`run_slave`] (the drain of already-queued frames and the timed wait)
/// hand every inbound frame to [`SlaveDaemon::handle`].
struct SlaveDaemon<'a, T: Transport> {
    transport: &'a T,
    node: NodeId,
    slave: Slave,
    obs: dyrs_obs::ObsHandle,
    /// Synthetic disk streams in flight: block and finish time.
    active: Vec<(BlockId, SimTime)>,
    sent: u64,
    received: u64,
    advertised: Option<u64>,
    completed: u64,
    evicted: u64,
    errors: Vec<String>,
}

impl<T: Transport> SlaveDaemon<'_, T> {
    fn send(&mut self, msg: Message) {
        if self.transport.send(Peer::Master, &msg).is_ok() {
            self.sent += 1;
        }
    }

    fn report_evicted(&mut self, block: BlockId) {
        self.evicted += 1;
        self.send(Message::Evicted {
            node: self.node,
            block,
        });
    }

    fn protocol_violation(&mut self, error: String) {
        self.errors.push(error);
        self.obs
            .flight_auto_dump("protocol-violation", Some(self.node));
    }

    /// Apply one inbound frame. Returns `false` once the master's
    /// `Shutdown` has arrived.
    fn handle(&mut self, msg: Message) -> bool {
        self.received += 1;
        match msg {
            Message::Bind { migrations } => self.slave.on_bind(migrations),
            Message::AddRef { block, job } => self.slave.add_ref(block, job),
            Message::Revoke { block } => {
                if let Revoked::Active = self.slave.revoke(block) {
                    self.active.retain(|(b, _)| *b != block);
                }
            }
            Message::EvictJob { job } => {
                for ev in self.slave.evict_job(job) {
                    self.report_evicted(ev.block);
                }
            }
            Message::ReadNotify { block, job } => {
                for ev in self.slave.on_read(block, job) {
                    self.report_evicted(ev.block);
                }
            }
            Message::Shutdown { sent } => {
                self.advertised = Some(sent);
                return false;
            }
            Message::StatsRequest { scope } => match scope {
                StatsScope::Local => {
                    let snapshot = self.obs.snapshot();
                    self.send(Message::StatsReply {
                        scope: StatsScope::Local,
                        snapshot,
                    });
                }
                StatsScope::LocalFlight => {
                    let record = self.obs.flight_dump("on-demand", Some(self.node));
                    self.send(Message::FlightDump {
                        scope: StatsScope::LocalFlight,
                        record,
                    });
                }
                other => self.protocol_violation(format!("unexpected stats scope {other:?}")),
            },
            other => self.protocol_violation(format!("unexpected {}", other.name())),
        }
        true
    }
}

/// Run a slave daemon over `transport` until the master's `Shutdown`
/// arrives (or `stop` is set locally), then answer `Bye` and return the
/// run report.
pub fn run_slave<T: Transport>(transport: &T, cfg: &SlaveConfig, stop: &AtomicBool) -> SlaveReport {
    let mut slave = Slave::new(
        cfg.node,
        cfg.dyrs.clone(),
        cfg.disk_bw,
        cfg.mem_capacity,
        cfg.reference_block,
    );
    // Startup probe (§IV-A): seed the estimator so the first heartbeat
    // advertises real queue space instead of the uncalibrated refusal.
    slave.calibrate(
        CALIBRATION_BYTES,
        SimDuration::from_secs_f64(CALIBRATION_BYTES as f64 / cfg.disk_bw),
    );
    let obs = dyrs_obs::ObsHandle::new();
    slave.attach_obs(obs.clone());
    let mut d = SlaveDaemon {
        transport,
        node: cfg.node,
        slave,
        obs,
        active: Vec::new(),
        sent: 0,
        received: 0,
        advertised: None,
        completed: 0,
        evicted: 0,
        errors: Vec::new(),
    };

    let mut now = SimTime::from_micros(0);
    let mut next_hb = now; // heartbeat immediately on startup

    'outer: loop {
        // Drain everything already queued before advancing time.
        loop {
            match transport.try_recv() {
                Ok(Some((_, msg))) => {
                    if !d.handle(msg) {
                        break 'outer;
                    }
                }
                Ok(None) => break,
                Err(TransportError::Protocol(e)) => d.protocol_violation(format!("protocol: {e}")),
                Err(_) => break 'outer,
            }
        }

        // Finish any synthetic disk stream whose deadline passed.
        let done: Vec<BlockId> = d
            .active
            .iter()
            .filter(|(_, finish)| now >= *finish)
            .map(|(b, _)| *b)
            .collect();
        for block in done {
            d.active.retain(|(b, _)| *b != block);
            let outcome = d.slave.on_migration_complete_block(now, block);
            d.completed += 1;
            if outcome.evicted_immediately {
                d.report_evicted(block);
            } else {
                d.send(Message::MigrationComplete {
                    node: cfg.node,
                    block,
                });
            }
        }

        // Start queued migrations (strictly serialized by default).
        while let Some(start) = d.slave.try_start(now) {
            let takes = SimDuration::from_secs_f64(start.bytes as f64 / cfg.disk_bw);
            d.active.push((start.block, now + takes));
        }

        if now >= next_hb {
            let report = d.slave.on_heartbeat(now);
            d.send(Message::Heartbeat {
                node: cfg.node,
                report,
                at: now,
            });
            next_hb = now + cfg.dyrs.heartbeat_interval;
        }

        // Block briefly for new traffic, then advance the virtual clock.
        match transport.recv_timeout(cfg.poll) {
            Ok((_, msg)) => {
                if !d.handle(msg) {
                    break 'outer;
                }
            }
            Err(TransportError::Timeout) => {}
            Err(TransportError::Protocol(e)) => d.protocol_violation(format!("protocol: {e}")),
            Err(_) => break 'outer,
        }
        now += cfg.tick;
        d.obs.set_now(now);
        if stop.load(Ordering::SeqCst) {
            break 'outer;
        }
    }

    // Orderly goodbye: last frame advertises the final send count,
    // including the Bye itself.
    let advertising = d.sent + 1;
    d.send(Message::Bye { sent: advertising });

    d.obs.close_dangling(dyrs_obs::cause::RUN_END);
    SlaveReport {
        sent: d.sent,
        received: d.received,
        advertised: d.advertised,
        completed: d.completed,
        evicted: d.evicted,
        errors: d.errors,
        obs: d.obs.take_report(),
    }
}
