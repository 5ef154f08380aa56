//! Simulation configuration.

use dyrs::{DyrsConfig, MigrationPolicy};
use dyrs_cluster::{ClusterSpec, InterferenceSchedule, NodeId};
use dyrs_dfs::JobId;
use dyrs_engine::EngineConfig;
use simkit::SimTime;

/// A file that exists in the DFS before the workload starts (all
/// evaluation inputs are cold, pre-existing data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// Name (referenced by `JobSpec::input_files`).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
}

impl FileSpec {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, bytes: u64) -> Self {
        FileSpec {
            name: name.into(),
            bytes,
        }
    }
}

/// Failure injections, applied at fixed instants (§III-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FailureEvent {
    /// DYRS master process restart: all soft migration state is lost.
    /// The process comes straight back on the same server ("we can
    /// restart it on the same server and it can immediately start
    /// receiving migration requests", §III-C1).
    MasterRestart {
        /// When it happens.
        at: SimTime,
    },
    /// The master's *server* fails (§III-C1): a new master must be
    /// launched elsewhere and clients rerouted, which takes `reroute`
    /// time — unless the deployment pre-lists a live backup, in which
    /// case `reroute` is (near) zero. While unreachable, migration
    /// requests are lost and slaves cannot bind new work; jobs keep
    /// running, just without migration speedup.
    MasterServerFailure {
        /// When it happens.
        at: SimTime,
        /// Time until the replacement master answers (0 = live backup).
        reroute: simkit::SimDuration,
    },
    /// DYRS slave process restart on one node: its buffers are reclaimed
    /// and the master told to drop state about them.
    SlaveRestart {
        /// When it happens.
        at: SimTime,
        /// Which node's slave restarts.
        node: NodeId,
    },
    /// A job dies without issuing its evict command (§III-C3).
    KillJob {
        /// When it happens.
        at: SimTime,
        /// Which job dies.
        job: JobId,
    },
    /// Whole-server failure: nothing on the node is reachable.
    NodeDown {
        /// When it happens.
        at: SimTime,
        /// Which node fails.
        node: NodeId,
    },
    /// Failed server comes back (with empty memory buffers).
    NodeUp {
        /// When it happens.
        at: SimTime,
        /// Which node recovers.
        node: NodeId,
    },
    /// Operator-initiated drain: the node stops receiving new binds, its
    /// bound-but-unstarted work is re-targeted through the successor
    /// path, and once its queues empty it is decommissioned. In-flight
    /// streams finish naturally — a drain is planned, not a failure.
    DrainNode {
        /// When the drain is requested.
        at: SimTime,
        /// Which node drains.
        node: NodeId,
    },
    /// Operator-initiated (re)join: the node enters the `Joining`
    /// admission ramp and warms back up to full bind candidacy.
    JoinNode {
        /// When the join is requested.
        at: SimTime,
        /// Which node joins.
        node: NodeId,
    },
    /// Master checkpoint immediately followed by a restart that restores
    /// from that checkpoint: scheduler, reference-list, and detector
    /// state survive, so the restarted master rebuilds bindings without
    /// mass-suspecting the fleet (contrast [`FailureEvent::MasterRestart`],
    /// which loses all soft state).
    CheckpointRestart {
        /// When the checkpoint+restart happens.
        at: SimTime,
    },
}

/// Gray-fault injections: the node stays "up" the whole time — nothing
/// crashes, nothing is marked dead — but some part of it silently stops
/// keeping its promises. These are the failures the paper's fail-stop
/// model (§III-C) cannot see and the master's failure detector exists to
/// catch. Every fault flows through the fluid model, so degraded disks and
/// frozen streams contend with real traffic instead of being modeled as
/// instantaneous state flips.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GrayFault {
    /// The node's disk silently degrades to `factor_milli`/1000 of its
    /// spec bandwidth (a dying disk, a firmware retry storm). Every stream
    /// on the disk — reads, migrations, repairs — slows down together.
    DiskDegrade {
        /// When the degradation sets in.
        at: SimTime,
        /// Victim node.
        node: NodeId,
        /// New bandwidth as thousandths of spec (e.g. 100 = 1/10th).
        /// Clamped to at least 1 so the resource stays live.
        factor_milli: u64,
    },
    /// The disk recovers to its spec bandwidth.
    DiskRestore {
        /// When the disk recovers.
        at: SimTime,
        /// Recovering node.
        node: NodeId,
    },
    /// The node's heartbeats to the DYRS *master* are lost in
    /// `[at, until)`: the slave process runs, its DFS heartbeats still
    /// reach the NameNode, but the master hears nothing and cannot bind
    /// work to it (a partial network partition or a wedged RPC thread).
    HeartbeatLoss {
        /// Window start.
        at: SimTime,
        /// Victim node.
        node: NodeId,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Migration streams on the node freeze in `[at, until)`: in-flight
    /// and newly started migration reads make (almost) no progress while
    /// everything else on the disk proceeds — a hung IO path that only
    /// afflicts the slave's sequential reads.
    StuckStreams {
        /// Window start.
        at: SimTime,
        /// Victim node.
        node: NodeId,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// The node flaps: `times` crash/recover cycles of `downtime` each,
    /// one every `period`, starting at `at`. Expands into the ordinary
    /// fail-stop [`FailureEvent::NodeDown`]/[`FailureEvent::NodeUp`] pair
    /// so recovery goes through the full rejoin path every cycle.
    Flap {
        /// First crash instant.
        at: SimTime,
        /// Flapping node.
        node: NodeId,
        /// How long each outage lasts.
        downtime: simkit::SimDuration,
        /// Number of crash/recover cycles.
        times: u32,
        /// Spacing between consecutive crashes (must exceed `downtime`).
        period: simkit::SimDuration,
    },
}

impl GrayFault {
    /// When the fault (or its window) begins.
    pub fn at(&self) -> SimTime {
        match self {
            GrayFault::DiskDegrade { at, .. }
            | GrayFault::DiskRestore { at, .. }
            | GrayFault::HeartbeatLoss { at, .. }
            | GrayFault::StuckStreams { at, .. }
            | GrayFault::Flap { at, .. } => *at,
        }
    }
}

/// How master↔slave (and client↔master) interactions travel inside the
/// simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireMode {
    /// Direct method calls on the in-process state machines — the
    /// historical fast path.
    #[default]
    InProcess,
    /// Every interaction is encoded to wire bytes, routed through the
    /// deterministic loopback transport (`dyrs-net`), and decoded on the
    /// far side before touching the state machine. Same virtual clock,
    /// same event order — a run must produce an identical trace digest
    /// in either mode, which is the codec-correctness headline test.
    Loopback,
}

/// Everything needed to build a [`crate::Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware.
    pub cluster: ClusterSpec,
    /// Migration scheme under test.
    pub policy: MigrationPolicy,
    /// DYRS tunables.
    pub dyrs: DyrsConfig,
    /// Execution-engine tunables.
    pub engine: EngineConfig,
    /// DFS block size.
    pub block_size: u64,
    /// Replication factor.
    pub replication: usize,
    /// RNG seed (placement, Ignem choices, workload jitter).
    pub seed: u64,
    /// Files pre-loaded into the DFS.
    pub files: Vec<FileSpec>,
    /// Disk interference sources.
    pub interference: Vec<InterferenceSchedule>,
    /// Failure injections.
    pub failures: Vec<FailureEvent>,
    /// Gray-fault injections (degraded disks, lost heartbeats, frozen
    /// streams, flapping nodes).
    pub gray_faults: Vec<GrayFault>,
    /// Hard wall on simulated time (safety net against runaway runs).
    pub horizon: SimTime,
    /// Per-node migration-buffer hard limit override (bytes); `None` uses
    /// the node spec's memory capacity.
    pub mem_limit: Option<u64>,
    /// Re-replicate blocks lost with a failed server (HDFS behaviour).
    /// The repair traffic contends with reads and migrations for disk
    /// bandwidth, exactly like production.
    pub re_replication: bool,
    /// Grace period before repairs start after a node is confirmed down
    /// (HDFS waits ~10 min by default; shortened to simulation timescales).
    pub re_replication_delay: simkit::SimDuration,
    /// Whether protocol interactions go through the wire codec
    /// ([`WireMode::Loopback`]) or direct calls ([`WireMode::InProcess`]).
    pub wire: WireMode,
    /// Admin-plane scrape cadence. Every `scrape_interval` of simulated
    /// time the driver snapshots the live observability state and pushes
    /// it through the full wire roundtrip (encode → frame → decode),
    /// exactly what answering a `dyrs-node stat` client costs. A scrape
    /// is a pure read: it must not change the trace digest, any exported
    /// series, or the wire-frame accounting (tests/determinism.rs pins
    /// this). `None` disables scraping.
    pub scrape_interval: Option<simkit::SimDuration>,
}

impl SimConfig {
    /// The paper's testbed (§V-A): 7 worker nodes, 256 MB blocks, 3×
    /// replication, defaults everywhere else.
    pub fn paper_default(policy: MigrationPolicy, seed: u64) -> Self {
        SimConfig {
            cluster: ClusterSpec::paper_default(),
            policy,
            dyrs: DyrsConfig::default(),
            engine: EngineConfig::default(),
            block_size: dyrs_dfs::DEFAULT_BLOCK_SIZE,
            replication: dyrs_dfs::DEFAULT_REPLICATION,
            seed,
            files: Vec::new(),
            interference: Vec::new(),
            failures: Vec::new(),
            gray_faults: Vec::new(),
            horizon: SimTime::from_secs(24 * 3600),
            mem_limit: None,
            re_replication: true,
            re_replication_delay: simkit::SimDuration::from_secs(30),
            wire: WireMode::default(),
            scrape_interval: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
        assert_eq!(c.cluster.len(), 7);
        assert_eq!(c.replication, 3);
        assert_eq!(c.block_size, 256 << 20);
        assert!(c.files.is_empty());
    }

    #[test]
    fn file_spec_shorthand() {
        let f = FileSpec::new("x", 10);
        assert_eq!(f.name, "x");
        assert_eq!(f.bytes, 10);
    }
}
