//! Differential tests: the production Algorithm 1 pass against the
//! reference full rescan.
//!
//! Masters — identical except for [`SchedulerConfig`] — are driven
//! through the same randomized event sequences (admissions, retargets,
//! pulls, completions, read-cancels, job evictions, spb drift, health
//! flaps, master restarts). After every step they must agree on every
//! observable: per-block targets, pull results (bind order included),
//! pending depth and bytes, and both must pass the full invariant audit.
//! On a narrow cluster nearly every pass crosses the density ceiling and
//! runs the full walk; a second generator uses a cluster wide enough that
//! one or two dirty nodes stay under it, so the sorted plan walk and its
//! cascade face the same scrutiny. This is the executable form of the
//! equivalence argument in `crates/core/src/sched/engine.rs`.
//!
//! With the `obs` feature the wide-cluster generator and the ceiling test
//! also compare decision provenance: each production pass must record one
//! record per entry it rescored, identical to the reference pass's record
//! for that migration.

use dyrs::master::{BlockRequest, JobHint, Master};
use dyrs::types::EvictionMode;
use dyrs::{
    MigrationOrder, MigrationPolicy, ObsHandle, RetargetStats, SchedEngine, SchedulerConfig,
};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use proptest::prelude::*;
use simkit::audit::{Audit, AuditReport};
use simkit::{Rng, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

const MB: u64 = 1 << 20;
const BW: f64 = 140.0 * MB as f64;
const NODES: u32 = 6;
/// Wide enough that a node's replica holders (two replicas per block)
/// are about a tenth of the queue, under the density ceiling.
const WIDE: u32 = 20;

fn master_with(engine: SchedEngine, nodes: u32, order: MigrationOrder, detector: bool) -> Master {
    let mut m = Master::new(MigrationPolicy::Dyrs, nodes as usize, BW, Rng::new(7));
    m.set_order(order);
    m.set_sched_config(SchedulerConfig { engine });
    if detector {
        m.configure_detector(dyrs::FailureDetectorConfig::default());
    }
    for n in 0..nodes {
        m.on_heartbeat_at(NodeId(n), 1.0 / BW, 0, SimTime::ZERO);
    }
    m
}

/// Attach a fresh recorder to `m` and return it.
fn observed(mut m: Master) -> (Master, ObsHandle) {
    let obs = ObsHandle::new();
    m.attach_obs(obs.clone());
    (m, obs)
}

/// Per provenance record: the migration, block, bytes, candidates as
/// `(node, rank, score bits)` in recorded order, and the winner.
#[cfg(feature = "obs")]
type Decision = (u64, u64, u64, Vec<(u32, u32, u64)>, Option<u32>);

/// Drain the recorder and return the provenance recorded since the last
/// drain.
#[cfg(feature = "obs")]
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

/// The provenance differential: the production pass's new batch against
/// the reference pass's. One record per rescored entry, no migration
/// twice, each equal to the reference record for its migration; a ceiling
/// pass records the full walk's batch, so it must equal the reference
/// batch outright.
#[cfg(feature = "obs")]
fn assert_batches_agree(planned: &ObsHandle, refr: &ObsHandle, st: RetargetStats, step: usize) {
    let (batch, reference) = (decisions(planned), decisions(refr));
    assert_eq!(
        batch.len() as u64,
        st.rescored,
        "step {step}: one provenance record per rescored entry"
    );
    if st.ceiling_hits == 1 {
        assert_eq!(batch, reference, "step {step}: ceiling pass batch");
        return;
    }
    let mut by_id: std::collections::BTreeMap<u64, &Decision> =
        reference.iter().map(|d| (d.0, d)).collect();
    for d in &batch {
        let want = by_id.remove(&d.0);
        assert!(
            want.is_some(),
            "step {step}: migration {} recorded twice or never scored by the reference",
            d.0
        );
        assert_eq!(Some(d), want, "step {step}: migration {} provenance", d.0);
    }
}

/// Without the `obs` feature the recorders record nothing, so there is
/// nothing to compare.
#[cfg(not(feature = "obs"))]
fn assert_batches_agree(_: &ObsHandle, _: &ObsHandle, _: RetargetStats, _: usize) {}

/// Every observable both engines must agree on, plus a clean audit.
fn assert_agree(planned: &Master, refr: &Master, step: usize) {
    assert_eq!(
        planned.pending_len(),
        refr.pending_len(),
        "step {step}: depth"
    );
    assert_eq!(
        planned.pending_bytes(),
        refr.pending_bytes(),
        "step {step}: bytes"
    );
    let blocks: Vec<BlockId> = planned.pending_block_ids().collect();
    let blocks_r: Vec<BlockId> = refr.pending_block_ids().collect();
    assert_eq!(blocks, blocks_r, "step {step}: pending block sets");
    for b in blocks {
        assert_eq!(
            planned.target_of(b),
            refr.target_of(b),
            "step {step}: target of {b:?} diverged"
        );
    }
    for (label, m) in [("planned", planned), ("reference", refr)] {
        let mut report = AuditReport::new();
        m.audit(&mut report);
        assert!(
            report.is_clean(),
            "step {step}: {label} audit: {:?}",
            report.violations()
        );
    }
}

fn order_of(sel: u8) -> MigrationOrder {
    match sel % 3 {
        0 => MigrationOrder::Fifo,
        1 => MigrationOrder::SmallestJobFirst,
        _ => MigrationOrder::EarliestDeadlineFirst,
    }
}

/// `count` fresh blocks for one job, two replicas each starting at
/// `node_sel`, with sizes and the hint drawn from `pick` so the SJF/EDF
/// order keys are exercised.
fn admission(
    nodes: u32,
    node_sel: u32,
    pick: u64,
    count: u64,
    next_block: &mut u64,
    clock: SimTime,
) -> (Vec<BlockRequest>, JobHint) {
    let reqs = (0..count)
        .map(|k| {
            let b = *next_block;
            *next_block += 1;
            let r0 = (node_sel + k as u32) % nodes;
            BlockRequest {
                block: BlockId(b),
                bytes: (1 + (pick + k) % 8) * 64 * MB,
                replicas: vec![NodeId(r0), NodeId((r0 + 1 + (pick as u32 % 2)) % nodes)],
            }
        })
        .collect();
    let hint = JobHint {
        expected_launch: clock + SimDuration::from_secs(pick % 30),
        total_bytes: (1 + pick % 10) * 256 * MB,
    };
    (reqs, hint)
}

proptest! {
    /// Random event sequences through both engines: identical targets,
    /// identical bind order, identical audit results, at every step.
    #[test]
    fn engines_are_decision_identical(
        order_sel in 0u8..3,
        detector in prop::bool::ANY,
        ops in proptest::collection::vec(
            (0u8..9, 0u32..NODES, 0u64..64, 1u64..40),
            1..120,
        ),
    ) {
        let order = order_of(order_sel);
        let mut planned = master_with(SchedEngine::Planned, NODES, order, detector);
        let mut refr = master_with(SchedEngine::Reference, NODES, order, detector);
        let mut clock = SimTime::ZERO;
        let mut next_block = 0u64;
        let mut next_job = 0u64;
        // Bound-but-unfinished migrations, identical across the pair by
        // induction (pull results are asserted equal), plus the liveness
        // view: a dead slave never reports a completion, and its bound
        // work is forfeit (respawned by the detector when one is on).
        let mut bound: Vec<(NodeId, BlockId)> = Vec::new();
        let mut live = vec![true; NODES as usize];
        for (step, &(op, node_sel, pick, dt)) in ops.iter().enumerate() {
            clock += SimDuration::from_secs(dt);
            let node = NodeId(node_sel);
            match op {
                // Admit 1–3 fresh blocks under one job.
                0 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    let (reqs, hint) =
                        admission(NODES, node_sel, pick, (pick % 3) + 1, &mut next_block, clock);
                    let a = planned.request_migration_hinted(
                        job, reqs.clone(), EvictionMode::Implicit, hint);
                    let b = refr.request_migration_hinted(
                        job, reqs, EvictionMode::Implicit, hint);
                    prop_assert_eq!(a, b, "step {}: admit outcome", step);
                }
                1 => {
                    planned.retarget();
                    refr.retarget();
                }
                // A pull must bind the same migrations in the same order.
                2 => {
                    let space = (pick as usize % 4) + 1;
                    let a = planned.on_slave_pull(node, space);
                    let b = refr.on_slave_pull(node, space);
                    prop_assert_eq!(&a, &b, "step {}: pull diverged", step);
                    prop_assert!(a.len() <= space, "step {step}: over-popped");
                    for mig in a {
                        bound.push((node, mig.block));
                    }
                }
                3 => {
                    let eligible: Vec<usize> = (0..bound.len())
                        .filter(|&i| live[bound[i].0.index()])
                        .collect();
                    if let Some(&i) = eligible.get(pick as usize % eligible.len().max(1)) {
                        let (n, b) = bound.swap_remove(i);
                        planned.on_migration_complete(n, b);
                        refr.on_migration_complete(n, b);
                    }
                }
                // Read-cancel a random (possibly absent) block.
                4 => {
                    let b = BlockId(pick % next_block.max(1));
                    prop_assert_eq!(
                        planned.on_block_read(b),
                        refr.on_block_read(b),
                        "step {}: read-cancel", step
                    );
                }
                5 => {
                    let j = JobId(pick % next_job.max(1));
                    prop_assert_eq!(
                        planned.evict_job(j),
                        refr.evict_job(j),
                        "step {}: evict nodes", step
                    );
                }
                // spb drift + backlog drift through a heartbeat.
                6 => {
                    let spb = (1.0 + (pick % 16) as f64) / BW;
                    let queued = (pick % 5) * 128 * MB;
                    planned.on_heartbeat_at(node, spb, queued, clock);
                    refr.on_heartbeat_at(node, spb, queued, clock);
                }
                7 => {
                    let up = pick % 2 == 0;
                    live[node.index()] = up;
                    if !up {
                        bound.retain(|&(n, _)| n != node);
                    }
                    planned.set_node_up(node, up);
                    refr.set_node_up(node, up);
                    if detector {
                        let a = planned.check_health(clock);
                        let b = refr.check_health(clock);
                        prop_assert_eq!(a.stuck, b.stuck, "step {}: health", step);
                    }
                }
                // Master restart: both drop soft state (rare-ish op; the
                // sequence keeps running against the reset pair).
                _ => {
                    planned.restart();
                    refr.restart();
                    bound.clear();
                }
            }
            assert_agree(&planned, &refr, step);
        }
        // Final drain: retarget + pull everything bindable, comparing the
        // complete bind order, not just a prefix.
        for round in 0..64 {
            planned.retarget();
            refr.retarget();
            let mut any = false;
            for n in 0..NODES {
                let a = planned.on_slave_pull(NodeId(n), 8);
                let b = refr.on_slave_pull(NodeId(n), 8);
                prop_assert_eq!(&a, &b, "drain round {} node {}", round, n);
                any |= !a.is_empty();
            }
            assert_agree(&planned, &refr, usize::MAX);
            if !any {
                break;
            }
        }
    }

    /// Steady state sanity: with nothing dirty the production pass must
    /// skip everything, and a single node's drift must still rescore —
    /// while staying decision-identical throughout.
    #[test]
    fn steady_state_skips_and_stays_identical(
        spbs in proptest::collection::vec(1.0f64..20.0, NODES as usize),
        blocks in 1usize..40,
    ) {
        let mut planned = master_with(SchedEngine::Planned, NODES, MigrationOrder::Fifo, false);
        let mut refr = master_with(SchedEngine::Reference, NODES, MigrationOrder::Fifo, false);
        for (n, s) in spbs.iter().enumerate() {
            planned.on_heartbeat_at(NodeId(n as u32), s / BW, 0, SimTime::ZERO);
            refr.on_heartbeat_at(NodeId(n as u32), s / BW, 0, SimTime::ZERO);
        }
        for i in 0..blocks as u64 {
            let reqs = vec![BlockRequest {
                block: BlockId(i),
                bytes: 256 * MB,
                replicas: vec![NodeId(i as u32 % NODES), NodeId((i as u32 + 1) % NODES)],
            }];
            planned.request_migration(JobId(i), reqs.clone(), EvictionMode::Implicit);
            refr.request_migration(JobId(i), reqs, EvictionMode::Implicit);
        }
        let first = planned.retarget();
        refr.retarget();
        prop_assert_eq!(first.rescored, blocks as u64, "first pass rescans all");
        assert_agree(&planned, &refr, 0);
        // Nothing changed: the production pass must do no scoring work.
        let steady = planned.retarget();
        refr.retarget();
        prop_assert_eq!(steady.rescored, 0);
        prop_assert_eq!(steady.skipped, blocks as u64);
        assert_agree(&planned, &refr, 1);
        // One node drifts: its replica holders (plus any cascade) are
        // rescored, by the plan walk or, when dense, the full walk.
        planned.on_heartbeat_at(NodeId(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
        refr.on_heartbeat_at(NodeId(0), 30.0 / BW, 64 * MB, SimTime::from_secs(1));
        let drift = planned.retarget();
        refr.retarget();
        prop_assert!(drift.rescored >= 1 || blocks == 0);
        assert_agree(&planned, &refr, 2);
    }
}

/// An FNV-1a digest of a drain: every (node, block, target-tier) triple
/// pulled, in bind order. Two stores with identical pending state and
/// identical decisions must replay identical digests.
fn drain_digest(m: &mut Master, nodes: u32) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..64 {
        m.retarget();
        let mut any = false;
        for n in 0..nodes {
            for mig in m.on_slave_pull(NodeId(n), 8) {
                fold(n as u64);
                fold(mig.block.0);
                fold(mig.dest_tier as u64);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    h
}

/// Production passes of the wide-cluster generator that took each path:
/// the plan walk (no ceiling hit, some entries rescored and some
/// skipped) and the dense fallback (one ceiling hit). Summed over all its
/// cases.
static PLAN_WALKS: AtomicU64 = AtomicU64::new(0);
static DENSE_FALLBACKS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admit / retarget / pull / complete / drift / evict
    /// sequences on the wide cluster, where a pass dirtied by one or two
    /// nodes stays under the density ceiling and runs the plan walk.
    /// Identical targets and pulls at every step, identical drain digests
    /// at the end.
    fn wide_cluster_cases(
        order_sel in 0u8..3,
        ops in proptest::collection::vec(
            (0u8..8, 0u32..WIDE, 0u64..64, 1u64..40),
            1..80,
        ),
    ) {
        let order = order_of(order_sel);
        let (mut planned, obs_p) = observed(master_with(SchedEngine::Planned, WIDE, order, false));
        let (mut refr, obs_r) = observed(master_with(SchedEngine::Reference, WIDE, order, false));
        let mut clock = SimTime::ZERO;
        let mut next_block = 0u64;
        let mut next_job = 0u64;
        let mut bound: Vec<(NodeId, BlockId)> = Vec::new();
        for (step, &(op, node_sel, pick, dt)) in ops.iter().enumerate() {
            clock += SimDuration::from_secs(dt);
            let node = NodeId(node_sel);
            match op {
                // Admit 1–6 blocks, so the queue grows deep enough for
                // single-node dirtiness to be sparse.
                0 | 1 => {
                    let job = JobId(next_job);
                    next_job += 1;
                    let (reqs, hint) =
                        admission(WIDE, node_sel, pick, (pick % 6) + 1, &mut next_block, clock);
                    let a = planned.request_migration_hinted(
                        job, reqs.clone(), EvictionMode::Implicit, hint);
                    let b = refr.request_migration_hinted(
                        job, reqs, EvictionMode::Implicit, hint);
                    prop_assert_eq!(a, b, "step {}: admit outcome", step);
                }
                2 | 3 => {
                    let st = planned.retarget();
                    refr.retarget();
                    assert_batches_agree(&obs_p, &obs_r, st, step);
                    if st.ceiling_hits == 1 {
                        DENSE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
                    } else if st.rescored > 0 && st.skipped > 0 {
                        // (a pass with nothing dirty rescores nothing and
                        // is neither walk)
                        PLAN_WALKS.fetch_add(1, Ordering::Relaxed);
                    }
                }
                4 => {
                    let space = (pick as usize % 4) + 1;
                    let a = planned.on_slave_pull(node, space);
                    let b = refr.on_slave_pull(node, space);
                    prop_assert_eq!(&a, &b, "step {}: pull diverged", step);
                    for mig in a {
                        bound.push((node, mig.block));
                    }
                }
                5 => {
                    if !bound.is_empty() {
                        let (n, b) = bound.swap_remove(pick as usize % bound.len());
                        planned.on_migration_complete(n, b);
                        refr.on_migration_complete(n, b);
                    }
                }
                // A heartbeat moves one node's cost and backlog; a large
                // move flips winners and cascades.
                6 => {
                    let spb = (1.0 + (pick % 16) as f64) / BW;
                    let queued = (pick % 5) * 128 * MB;
                    planned.on_heartbeat_at(node, spb, queued, clock);
                    refr.on_heartbeat_at(node, spb, queued, clock);
                }
                _ => {
                    let j = JobId(pick % next_job.max(1));
                    prop_assert_eq!(
                        planned.evict_job(j),
                        refr.evict_job(j),
                        "step {}: evict nodes", step
                    );
                }
            }
            assert_agree(&planned, &refr, step);
        }
        prop_assert_eq!(
            drain_digest(&mut planned, WIDE),
            drain_digest(&mut refr, WIDE),
            "drain digests diverged"
        );
    }
}

#[test]
fn plan_walk_and_dense_fallback_are_decision_identical() {
    wide_cluster_cases();
    // Both production paths must have been exercised across the cases,
    // or the generator no longer tests what it claims to.
    let walks = PLAN_WALKS.load(Ordering::Relaxed);
    let fallbacks = DENSE_FALLBACKS.load(Ordering::Relaxed);
    assert!(walks > 0, "no pass ran the plan walk");
    assert!(fallbacks > 0, "no pass fell back to the full walk");
}

#[test]
fn cascade_ceiling_falls_back_without_changing_decisions() {
    // Dirty every node: the visit plan covers the whole queue, so the
    // production pass must hand off to the full walk (ceiling_hits = 1)
    // and still produce exactly the reference decisions.
    let run = |engine: SchedEngine| -> (Master, ObsHandle, RetargetStats) {
        let (mut m, obs) = observed(master_with(engine, NODES, MigrationOrder::Fifo, false));
        for i in 0..200u64 {
            let reqs = vec![BlockRequest {
                block: BlockId(i * 64),
                bytes: 256 * MB,
                replicas: vec![NodeId(i as u32 % NODES), NodeId((i as u32 + 1) % NODES)],
            }];
            m.request_migration(JobId(i), reqs, EvictionMode::Implicit);
        }
        m.retarget();
        drop(obs.take_report());
        for n in 0..NODES {
            m.on_heartbeat_at(
                NodeId(n),
                (2.0 + n as f64) / BW,
                128 * MB,
                SimTime::from_secs(1),
            );
        }
        let stats = m.retarget();
        (m, obs, stats)
    };
    let (mut planned, obs_p, st) = run(SchedEngine::Planned);
    let (mut refr, obs_r, ref_st) = run(SchedEngine::Reference);
    assert_eq!(
        st.ceiling_hits, 1,
        "a fleet-wide drift must trip the ceiling"
    );
    assert_eq!(ref_st.ceiling_hits, 0, "the reference pass has no ceiling");
    assert_batches_agree(&obs_p, &obs_r, st, 0);
    let blocks: Vec<BlockId> = planned.pending_block_ids().collect();
    for b in blocks {
        assert_eq!(planned.target_of(b), refr.target_of(b), "{b:?}");
    }
    assert_eq!(
        drain_digest(&mut planned, NODES),
        drain_digest(&mut refr, NODES)
    );
}
