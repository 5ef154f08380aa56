//! Event and stream-payload types for the simulation loop.

use crate::config::{FailureEvent, GrayFault};
use dyrs_cluster::NodeId;
use dyrs_dfs::BlockId;
use dyrs_engine::TaskId;

/// Which fluid resource of a node a stream lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Spinning disk.
    Disk,
    /// Memory bus (local in-memory reads).
    Membus,
    /// NIC (remote in-memory reads).
    Nic,
    /// A middle buffer tier's device (NVMe/SSD between memory and the
    /// backing disk), tier index `1..`. Never constructed on the legacy
    /// 2-tier stack, so legacy trace digests are unaffected.
    Tier(u8),
}

/// What a fluid stream means. Streams carry a `u64` tag that indexes the
/// simulation's stream-metadata slab holding one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMeta {
    /// A task's input read; `attempt` guards against stale events after a
    /// task is re-executed (node failure).
    TaskRead {
        /// The reading task.
        task: TaskId,
        /// Its execution attempt.
        attempt: u32,
    },
    /// A DYRS migration running on `node`'s disk.
    Migration {
        /// The migrating slave's node.
        node: NodeId,
        /// The block being migrated.
        block: BlockId,
    },
    /// An interference reader (never completes, only cancelled).
    Interference,
    /// A slave's startup probe read measuring current disk conditions.
    Calibration {
        /// The probing slave's node.
        node: NodeId,
    },
    /// A re-replication repair copy: reading `block` from `source`'s disk
    /// to restore full replication on `target`.
    Repair {
        /// The block being re-replicated.
        block: BlockId,
        /// Node serving the copy.
        source: NodeId,
        /// Node receiving the new replica.
        target: NodeId,
    },
    /// A map task's shuffle-spill write (fire-and-forget disk load; does
    /// not gate task completion, mirroring overlapped spills).
    SpillWrite,
    /// A demotion's write landing on a middle buffer tier's device
    /// (fire-and-forget: the copy is already accounted in the tier store;
    /// the stream only models the device occupancy it costs).
    TierWrite,
    /// Slot already reclaimed (stream was cancelled).
    Dead,
}

/// Simulation events. The trace digest folds each dispatched event
/// through its derived `Hash`, so every field of every variant (including
/// those of [`FailureEvent`] and [`GrayFault`]) enters the digest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ev {
    /// A job's (dependency-resolved) submission instant.
    SubmitJob(dyrs_dfs::JobId),
    /// A job's lead-time elapsed: its tasks become runnable.
    LaunchJob(dyrs_dfs::JobId),
    /// Debounced scheduling pass.
    Schedule,
    /// Possible completion on a node's fluid resource; `gen` detects
    /// staleness after membership changes.
    StreamDone {
        /// Node owning the resource.
        node: NodeId,
        /// Which resource.
        kind: ResourceKind,
        /// Resource generation at scheduling time.
        gen: u64,
    },
    /// A task's compute phase finished.
    TaskCompute {
        /// The task.
        task: TaskId,
        /// Its execution attempt.
        attempt: u32,
    },
    /// Slave heartbeat (also drives pulls, estimate refresh, series).
    Heartbeat(NodeId),
    /// Master retargeting pass (Algorithm 1).
    Retarget,
    /// Interference toggle.
    Interference {
        /// Victim node.
        node: NodeId,
        /// Turn on (true) or off (false).
        on: bool,
        /// Number of reader streams when turning on.
        streams: u32,
        /// Fluid weight per reader stream in thousandths (weight × 1000,
        /// kept integral so `Ev` stays `Eq` and `Hash`).
        weight_milli: u64,
    },
    /// A failure injection fires.
    Failure(FailureEvent),
    /// A gray-fault injection fires.
    GrayFault(GrayFault),
    /// A node's stuck-stream window ended: thaw its frozen migration
    /// streams.
    UnstickStreams(NodeId),
    /// Start a slave's calibration probe read.
    Calibrate(NodeId),
    /// Release the next batch of a job's tasks (container grant round).
    GrantContainers(dyrs_dfs::JobId),
    /// Begin re-replicating the blocks lost with a failed node.
    ReReplicate(NodeId),
    /// Set a node's trace-driven background disk load to `frac_milli`
    /// thousandths of its base bandwidth (0 clears it).
    Background {
        /// Victim node.
        node: NodeId,
        /// Background utilization × 1000 (integral so `Ev` stays `Eq`
        /// and `Hash`).
        frac_milli: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyrs_dfs::JobId;
    use simkit::audit::TraceDigest;
    use simkit::{SimDuration, SimTime};
    use std::hash::{Hash, Hasher};
    use std::mem::discriminant;

    fn digest(t: SimTime, ev: &Ev) -> u64 {
        let mut d = TraceDigest::new();
        (t, ev).hash(&mut d);
        d.finish()
    }

    const US: SimDuration = SimDuration::from_micros(1);

    fn next(n: NodeId) -> NodeId {
        NodeId(n.0 + 1)
    }

    /// `f` with each of its fields changed in turn.
    fn failure_changes(f: &FailureEvent) -> Vec<FailureEvent> {
        use FailureEvent::*;
        match *f {
            MasterRestart { at } => vec![MasterRestart { at: at + US }],
            MasterServerFailure { at, reroute } => vec![
                MasterServerFailure {
                    at: at + US,
                    reroute,
                },
                MasterServerFailure {
                    at,
                    reroute: reroute + US,
                },
            ],
            SlaveRestart { at, node } => vec![
                SlaveRestart { at: at + US, node },
                SlaveRestart {
                    at,
                    node: next(node),
                },
            ],
            KillJob { at, job } => vec![
                KillJob { at: at + US, job },
                KillJob {
                    at,
                    job: JobId(job.0 + 1),
                },
            ],
            NodeDown { at, node } => vec![
                NodeDown { at: at + US, node },
                NodeDown {
                    at,
                    node: next(node),
                },
            ],
            NodeUp { at, node } => vec![
                NodeUp { at: at + US, node },
                NodeUp {
                    at,
                    node: next(node),
                },
            ],
            DrainNode { at, node } => vec![
                DrainNode { at: at + US, node },
                DrainNode {
                    at,
                    node: next(node),
                },
            ],
            JoinNode { at, node } => vec![
                JoinNode { at: at + US, node },
                JoinNode {
                    at,
                    node: next(node),
                },
            ],
            CheckpointRestart { at } => vec![CheckpointRestart { at: at + US }],
        }
    }

    /// `g` with each of its fields changed in turn.
    fn gray_changes(g: &GrayFault) -> Vec<GrayFault> {
        use GrayFault::*;
        match *g {
            DiskDegrade {
                at,
                node,
                factor_milli,
            } => vec![
                DiskDegrade {
                    at: at + US,
                    node,
                    factor_milli,
                },
                DiskDegrade {
                    at,
                    node: next(node),
                    factor_milli,
                },
                DiskDegrade {
                    at,
                    node,
                    factor_milli: factor_milli + 1,
                },
            ],
            DiskRestore { at, node } => vec![
                DiskRestore { at: at + US, node },
                DiskRestore {
                    at,
                    node: next(node),
                },
            ],
            HeartbeatLoss { at, node, until } => vec![
                HeartbeatLoss {
                    at: at + US,
                    node,
                    until,
                },
                HeartbeatLoss {
                    at,
                    node: next(node),
                    until,
                },
                HeartbeatLoss {
                    at,
                    node,
                    until: until + US,
                },
            ],
            StuckStreams { at, node, until } => vec![
                StuckStreams {
                    at: at + US,
                    node,
                    until,
                },
                StuckStreams {
                    at,
                    node: next(node),
                    until,
                },
                StuckStreams {
                    at,
                    node,
                    until: until + US,
                },
            ],
            Flap {
                at,
                node,
                downtime,
                times,
                period,
            } => {
                let flap = |at, node, downtime, times, period| Flap {
                    at,
                    node,
                    downtime,
                    times,
                    period,
                };
                vec![
                    flap(at + US, node, downtime, times, period),
                    flap(at, next(node), downtime, times, period),
                    flap(at, node, downtime + US, times, period),
                    flap(at, node, downtime, times + 1, period),
                    flap(at, node, downtime, times, period + US),
                ]
            }
        }
    }

    /// `ev` with each of its fields changed in turn (a failure or gray
    /// fault through each of its own fields).
    fn changes(ev: &Ev) -> Vec<Ev> {
        match ev {
            Ev::SubmitJob(j) => vec![Ev::SubmitJob(JobId(j.0 + 1))],
            Ev::LaunchJob(j) => vec![Ev::LaunchJob(JobId(j.0 + 1))],
            Ev::Schedule | Ev::Retarget => Vec::new(),
            &Ev::StreamDone { node, kind, gen } => {
                let other = match kind {
                    ResourceKind::Disk => ResourceKind::Membus,
                    ResourceKind::Membus => ResourceKind::Nic,
                    ResourceKind::Nic => ResourceKind::Tier(1),
                    ResourceKind::Tier(t) => ResourceKind::Tier(t + 1),
                };
                vec![
                    Ev::StreamDone {
                        node: next(node),
                        kind,
                        gen,
                    },
                    Ev::StreamDone {
                        node,
                        kind: other,
                        gen,
                    },
                    Ev::StreamDone {
                        node,
                        kind,
                        gen: gen + 1,
                    },
                ]
            }
            &Ev::TaskCompute { task, attempt } => vec![
                Ev::TaskCompute {
                    task: TaskId(task.0 + 1),
                    attempt,
                },
                Ev::TaskCompute {
                    task,
                    attempt: attempt + 1,
                },
            ],
            &Ev::Heartbeat(n) => vec![Ev::Heartbeat(next(n))],
            &Ev::Interference {
                node,
                on,
                streams,
                weight_milli,
            } => {
                let interference = |node, on, streams, weight_milli| Ev::Interference {
                    node,
                    on,
                    streams,
                    weight_milli,
                };
                vec![
                    interference(next(node), on, streams, weight_milli),
                    interference(node, !on, streams, weight_milli),
                    interference(node, on, streams + 1, weight_milli),
                    interference(node, on, streams, weight_milli + 1),
                ]
            }
            Ev::Failure(f) => failure_changes(f).into_iter().map(Ev::Failure).collect(),
            Ev::GrayFault(g) => gray_changes(g).into_iter().map(Ev::GrayFault).collect(),
            &Ev::UnstickStreams(n) => vec![Ev::UnstickStreams(next(n))],
            &Ev::Calibrate(n) => vec![Ev::Calibrate(next(n))],
            Ev::GrantContainers(j) => vec![Ev::GrantContainers(JobId(j.0 + 1))],
            &Ev::ReReplicate(n) => vec![Ev::ReReplicate(next(n))],
            &Ev::Background { node, frac_milli } => vec![
                Ev::Background {
                    node: next(node),
                    frac_milli,
                },
                Ev::Background {
                    node,
                    frac_milli: frac_milli + 1,
                },
            ],
        }
    }

    /// One event of every variant, every resource kind, every failure and
    /// every gray fault.
    fn one_of_each() -> Vec<Ev> {
        let (at, n) = (SimTime::from_secs(3), NodeId(2));
        let until = SimTime::from_secs(9);
        let failures = [
            FailureEvent::MasterRestart { at },
            FailureEvent::MasterServerFailure {
                at,
                reroute: SimDuration::from_secs(2),
            },
            FailureEvent::SlaveRestart { at, node: n },
            FailureEvent::KillJob { at, job: JobId(4) },
            FailureEvent::NodeDown { at, node: n },
            FailureEvent::NodeUp { at, node: n },
            FailureEvent::DrainNode { at, node: n },
            FailureEvent::JoinNode { at, node: n },
            FailureEvent::CheckpointRestart { at },
        ];
        let gray = [
            GrayFault::DiskDegrade {
                at,
                node: n,
                factor_milli: 100,
            },
            GrayFault::DiskRestore { at, node: n },
            GrayFault::HeartbeatLoss { at, node: n, until },
            GrayFault::StuckStreams { at, node: n, until },
            GrayFault::Flap {
                at,
                node: n,
                downtime: SimDuration::from_secs(1),
                times: 2,
                period: SimDuration::from_secs(5),
            },
        ];
        let kinds = [
            ResourceKind::Disk,
            ResourceKind::Membus,
            ResourceKind::Nic,
            ResourceKind::Tier(2),
        ];
        let mut evs = vec![
            Ev::SubmitJob(JobId(4)),
            Ev::LaunchJob(JobId(4)),
            Ev::Schedule,
            Ev::TaskCompute {
                task: TaskId(17),
                attempt: 1,
            },
            Ev::Heartbeat(n),
            Ev::Retarget,
            Ev::Interference {
                node: n,
                on: true,
                streams: 2,
                weight_milli: 12_000,
            },
            Ev::UnstickStreams(n),
            Ev::Calibrate(n),
            Ev::GrantContainers(JobId(4)),
            Ev::ReReplicate(n),
            Ev::Background {
                node: n,
                frac_milli: 250,
            },
        ];
        evs.extend(kinds.map(|kind| Ev::StreamDone {
            node: n,
            kind,
            gen: 41,
        }));
        evs.extend(failures.map(Ev::Failure));
        evs.extend(gray.map(Ev::GrayFault));
        evs
    }

    /// How many distinct items `items` yields.
    fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> usize {
        let mut seen = Vec::new();
        for x in items {
            if !seen.contains(&x) {
                seen.push(x);
            }
        }
        seen.len()
    }

    #[test]
    fn every_field_and_the_time_move_the_digest() {
        let evs = one_of_each();
        let failure_kinds = distinct(evs.iter().filter_map(|e| match e {
            Ev::Failure(f) => Some(discriminant(f)),
            _ => None,
        }));
        let gray_kinds = distinct(evs.iter().filter_map(|e| match e {
            Ev::GrayFault(g) => Some(discriminant(g)),
            _ => None,
        }));
        assert_eq!(
            (
                distinct(evs.iter().map(discriminant)),
                failure_kinds,
                gray_kinds
            ),
            (15, 9, 5),
            "one_of_each must build every variant"
        );
        let t = SimTime::from_micros(12_345_678);
        for ev in &evs {
            let d = digest(t, ev);
            assert_ne!(d, digest(t + US, ev), "{ev:?}: time moved by 1 µs");
            for changed in changes(ev) {
                assert_ne!(changed, *ev);
                assert_ne!(d, digest(t, &changed), "{ev:?} → {changed:?}");
            }
        }
    }
}
