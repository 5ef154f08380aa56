//! Differential tests: the running master's Algorithm 1 decisions against
//! a fresh walk of the same state, through the public API alone.
//!
//! A retarget pass walks the whole pending queue, or skips the walk when
//! nothing it reads changed since the last one (the clean-pass skip, see
//! `crates/core/src/sched/engine.rs`). The other engine here is a fresh
//! master restored from the running master's checkpoint: restoring admits
//! every pending entry, so its first pass walks. A master is driven
//! through randomized event sequences (admissions, passes, pulls,
//! completions, read-cancels, job evictions, spb drift, health flaps,
//! master restarts), and at every pass the two must agree on every target
//! and both must audit clean; a pass the running master walks must record
//! the fresh walk's provenance and a skipped pass none (compared with the
//! `obs` feature; without it the recorder compiles out); and pulls made
//! right after the pass must bind the same migrations in the same order.
//! So a skip never keeps a decision that a walk would change, and a
//! checkpoint carries everything a walk reads. Inside the crate, the
//! master's `clean_pass_skips_match_full_walks` proptest makes the same
//! check against a twin forced to walk every pass.

use dyrs::master::{BlockRequest, HealthReport, JobHint, Master};
use dyrs::obs::cause;
use dyrs::types::EvictionMode;
use dyrs::{FailureDetectorConfig, MigrationOrder, MigrationPolicy, ObsHandle, RetargetStats};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use proptest::prelude::*;
use simkit::audit::{Audit, AuditReport};
use simkit::{Rng, SimDuration, SimTime};

const MB: u64 = 1 << 20;
const BW: f64 = 140.0 * MB as f64;
const NODES: u32 = 6;
/// A cluster wide enough that queues grow deep.
const WIDE: u32 = 20;

/// How a master under test is built; its oracles are built alike.
#[derive(Debug, Clone, Copy)]
struct Shape {
    nodes: u32,
    order: MigrationOrder,
    detector: bool,
}

impl Shape {
    /// A Dyrs master of this shape recording into `obs`.
    fn bare(self, obs: &ObsHandle) -> Master {
        let mut m = Master::new(MigrationPolicy::Dyrs, self.nodes as usize, BW, Rng::new(7));
        m.set_order(self.order);
        m.attach_obs(obs.clone());
        if self.detector {
            m.configure_detector(FailureDetectorConfig::default());
        }
        m
    }

    /// A master of this shape with every node heartbeated once.
    fn master(self, obs: &ObsHandle) -> Master {
        let mut m = self.bare(obs);
        for i in 0..self.nodes {
            m.on_heartbeat_at(NodeId(i), 1.0 / BW, 0, SimTime::ZERO);
        }
        m
    }
}

/// One provenance record as compared: the migration, block, bytes,
/// candidates as `(node, rank, score bits)` in recorded order, and the
/// winner. The pass index is left out, since an oracle's pass is its
/// first.
type Decision = (u64, u64, u64, Vec<(u32, u32, u64)>, Option<u32>);

/// The provenance recorded into `obs` since the last call.
fn decisions(obs: &ObsHandle) -> Vec<Decision> {
    let report = obs.take_report();
    report
        .provenance
        .iter()
        .map(|r| {
            let candidates = r.candidates.iter();
            let candidates = candidates
                .map(|c| (c.node, c.rank, c.est_finish_secs.to_bits()))
                .collect();
            (r.migration, r.block, r.bytes, candidates, r.winner)
        })
        .collect()
}

/// What a master and its oracle must agree on: depth, bytes, every
/// pending block's target, and a clean audit on both sides.
fn agree(m: &Master, oracle: &Master, k: usize) -> Result<(), TestCaseError> {
    let view = |m: &Master| {
        let targets: Vec<_> = m.pending_block_ids().map(|b| (b, m.target_of(b))).collect();
        (m.pending_len(), m.pending_bytes(), targets)
    };
    prop_assert_eq!(view(m), view(oracle), "op {}: pending state", k);
    for (label, m) in [("master", m), ("oracle", oracle)] {
        let mut report = AuditReport::new();
        m.audit(&mut report);
        prop_assert!(
            report.is_clean(),
            "op {}: {} audit: {:?}",
            k,
            label,
            report.violations()
        );
    }
    Ok(())
}

/// One retarget pass of `m`, checked against a fresh walk: a master of
/// the same shape restored from `m`'s checkpoint. Returns the pass's
/// counts and the walked oracle, for the caller to compare pulls with.
fn checked_pass(
    m: &mut Master,
    obs: &ObsHandle,
    shape: Shape,
    k: usize,
) -> Result<(RetargetStats, Master), TestCaseError> {
    let oracle_obs = ObsHandle::new();
    let mut oracle = shape.bare(&oracle_obs);
    oracle
        .restore_from(&m.checkpoint())
        .expect("same-shape restore");
    let depth = m.pending_len() as u64;
    let walk = oracle.retarget();
    prop_assert_eq!(
        (walk.rescored, walk.skipped),
        (depth, 0),
        "op {}: a restored master walks",
        k
    );
    let pass = m.retarget();
    prop_assert!(
        pass == walk || (pass.rescored, pass.skipped) == (0, depth),
        "op {}: a pass walks or skips, not {:?}",
        k,
        pass
    );
    agree(m, &oracle, k)?;
    let (batch, walked) = (decisions(obs), decisions(&oracle_obs));
    if pass.rescored > 0 {
        prop_assert_eq!(batch, walked, "op {}: a walk's provenance", k);
    } else {
        prop_assert!(batch.is_empty(), "op {}: a skipped pass records nothing", k);
    }
    Ok((pass, oracle))
}

/// `m`'s outstanding bindings in block order, as `(node, block)`.
fn bound_pairs(m: &Master) -> Vec<(NodeId, BlockId)> {
    let cp = m.checkpoint();
    cp.bound
        .iter()
        .map(|b| (b.node, b.migration.block))
        .collect()
}

/// Confirm a health report the way the simulator driver does: revoke a
/// suspect's bindings, and revoke or forget each stuck one.
fn apply_report(m: &mut Master, report: &HealthReport, x: u64) {
    for &node in &report.newly_suspect {
        for (n, block) in bound_pairs(m) {
            if n == node {
                m.on_unbound(node, block, cause::NODE_SUSPECT);
            }
        }
    }
    for &(node, block) in &report.stuck {
        if x % 2 == 0 {
            m.on_unbound(node, block, cause::STUCK_STREAM);
        } else {
            m.discard_bound(block);
        }
    }
}

/// One op of the schedule other than a pass or a pull. Op `k` admits
/// blocks `8k..` for job `k`; read-cancels and evictions may name ids
/// already gone or never admitted.
fn step(m: &mut Master, nodes: u32, op: u8, k: u64, node: NodeId, x: u64, now: SimTime) {
    match op {
        // Admit 1–3 blocks (1–6 on a wide cluster), two replicas each,
        // with sizes and a hint that exercise the SJF and EDF keys.
        0 => {
            let count = 1 + x % if nodes > NODES { 6 } else { 3 };
            let reqs = (0..count)
                .map(|i| {
                    let r0 = (node.0 + i as u32) % nodes;
                    BlockRequest {
                        block: BlockId(8 * k + i),
                        bytes: (1 + (x + i) % 8) * 64 * MB,
                        replicas: vec![NodeId(r0), NodeId((r0 + 1 + x as u32 % 2) % nodes)],
                    }
                })
                .collect();
            let hint = JobHint {
                expected_launch: now + SimDuration::from_secs(x % 30),
                total_bytes: (1 + x % 10) * 256 * MB,
            };
            m.request_migration_hinted(JobId(k), reqs, EvictionMode::Implicit, hint);
        }
        3 => {
            let bound = bound_pairs(m);
            if let Some(&(on, block)) = bound.get(x as usize % bound.len().max(1)) {
                m.on_migration_complete(on, block);
            }
        }
        4 => {
            m.on_block_read(BlockId(8 * (x % (k + 1)) + x % 6));
        }
        5 => {
            m.evict_job(JobId(x % (k + 1)));
        }
        // Cost and backlog drift through a heartbeat.
        6 => {
            let spb = (1.0 + (x % 16) as f64) / BW;
            m.on_heartbeat_at(node, spb, (x % 5) * 128 * MB, now);
        }
        7 => {
            m.set_node_up(node, x % 2 == 0);
            let report = m.check_health(now);
            apply_report(m, &report, x);
        }
        _ => m.restart(),
    }
}

/// The wide generator's op mix (1 is a pass, 2 a pull): more admissions
/// and passes, so queues grow deep, and no read-cancels, flaps or
/// restarts.
const WIDE_OPS: [u8; 8] = [0, 0, 1, 1, 2, 3, 6, 5];

proptest! {
    /// Random event sequences through both engines: at every pass the
    /// running master (walking or skipping) and a fresh walk of its
    /// checkpoint agree on every target and on the provenance of a walk,
    /// and pulls right after the pass bind identically. Two generators:
    /// 6 nodes with every op (the detector on or off), and 20 nodes with
    /// `WIDE_OPS`. A final drain compares the whole bind order.
    #[test]
    fn engines_are_decision_identical(
        wide in prop::bool::ANY,
        order_sel in 0u8..3,
        detector in prop::bool::ANY,
        ops in proptest::collection::vec((0u8..9, 0u32..WIDE, 0u64..64, 1u64..40), 1..120),
    ) {
        let shape = Shape {
            nodes: if wide { WIDE } else { NODES },
            order: [
                MigrationOrder::Fifo,
                MigrationOrder::SmallestJobFirst,
                MigrationOrder::EarliestDeadlineFirst,
            ][order_sel as usize],
            detector: detector && !wide,
        };
        let obs = ObsHandle::new();
        let mut m = shape.master(&obs);
        let mut now = SimTime::ZERO;
        // The oracle of the last pass, kept while only pulls follow it.
        let mut oracle: Option<Master> = None;
        for (k, &(op, node, x, dt)) in ops.iter().enumerate() {
            now += SimDuration::from_secs(dt);
            let op = if wide { WIDE_OPS[op as usize % 8] } else { op };
            let node = NodeId(node % shape.nodes);
            match op {
                1 => oracle = Some(checked_pass(&mut m, &obs, shape, k)?.1),
                2 => {
                    let space = 1 + x as usize % 4;
                    let got = m.on_slave_pull(node, space);
                    prop_assert!(got.len() <= space, "op {}: over-popped", k);
                    if let Some(o) = oracle.as_mut() {
                        let want = o.on_slave_pull(node, space);
                        prop_assert_eq!(got, want, "op {}: pull after a pass", k);
                    }
                }
                _ => {
                    oracle = None;
                    step(&mut m, shape.nodes, op, k as u64, node, x, now);
                }
            }
            let mut report = AuditReport::new();
            m.audit(&mut report);
            prop_assert!(report.is_clean(), "op {}: audit: {:?}", k, report.violations());
        }
        // Drain: pass and pull everything bindable, comparing the whole
        // bind order, not just a prefix.
        for round in 0..64 {
            let (_, mut oracle) = checked_pass(&mut m, &obs, shape, usize::MAX)?;
            let mut any = false;
            for i in 0..shape.nodes {
                let got = m.on_slave_pull(NodeId(i), 8);
                let want = oracle.on_slave_pull(NodeId(i), 8);
                prop_assert_eq!(&got, &want, "drain round {} node {}", round, i);
                any |= !got.is_empty();
            }
            if !any {
                break;
            }
        }
    }

    /// Steady state: the first pass walks, a pass with nothing changed
    /// skips every entry, and one node's drift walks them all, each
    /// deciding what a fresh walk decides.
    #[test]
    fn steady_state_skips_and_stays_identical(
        spbs in proptest::collection::vec(1.0f64..20.0, NODES as usize),
        blocks in 1u64..40,
    ) {
        let shape = Shape { nodes: NODES, order: MigrationOrder::Fifo, detector: false };
        let obs = ObsHandle::new();
        let mut m = shape.master(&obs);
        for (i, s) in (0..).zip(&spbs) {
            m.on_heartbeat_at(NodeId(i), s / BW, 0, SimTime::ZERO);
        }
        for i in 0..blocks {
            let reqs = vec![BlockRequest {
                block: BlockId(i),
                bytes: 256 * MB,
                replicas: vec![NodeId(i as u32 % NODES), NodeId((i as u32 + 1) % NODES)],
            }];
            m.request_migration(JobId(i), reqs, EvictionMode::Implicit);
        }
        let (first, _) = checked_pass(&mut m, &obs, shape, 0)?;
        prop_assert_eq!((first.rescored, first.skipped), (blocks, 0), "the first pass walks");
        let (steady, _) = checked_pass(&mut m, &obs, shape, 1)?;
        prop_assert_eq!((steady.rescored, steady.skipped), (0, blocks), "a clean pass skips");
        m.on_heartbeat_at(NodeId(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
        let (drift, _) = checked_pass(&mut m, &obs, shape, 2)?;
        prop_assert_eq!((drift.rescored, drift.skipped), (blocks, 0), "a drift walks");
    }
}
