//! Observability instrumentation tests for the master/slave state
//! machines (compiled only with the `obs` feature, which the workspace
//! build enables by default through `dyrs-sim`).

#![cfg(feature = "obs")]

use dyrs::master::{BlockRequest, Master};
use dyrs::obs::{cause, SpanState};
use dyrs::types::{EvictionMode, JobRef, Migration, MigrationId};
use dyrs::{DyrsConfig, MigrationPolicy, ObsHandle, Slave};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::{Rng, SimDuration, SimTime};

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;
const BW: f64 = 140.0 * MB as f64;

fn calibrated_slave(obs: ObsHandle) -> Slave {
    let mut s = Slave::new(NodeId(0), DyrsConfig::default(), BW, 4 * BLOCK, BLOCK);
    s.attach_obs(obs);
    s.calibrate(32 * MB, SimDuration::from_secs_f64(32.0 * MB as f64 / BW));
    s
}

fn mig(i: u64, jobs: &[u64]) -> Migration {
    Migration {
        id: MigrationId(i),
        block: BlockId(i),
        bytes: BLOCK,
        jobs: jobs
            .iter()
            .map(|&j| JobRef {
                job: JobId(j),
                eviction: EvictionMode::Implicit,
            })
            .collect(),
        replicas: vec![NodeId(0)],
        attempt: 0,
        dest_tier: 0,
    }
}

/// Paper §IV-A: when a migration runs past its estimate, the heartbeat
/// refresh raises the estimate. The `node.estimate_overdue_secs` gauge is
/// sampled *before* each refresh, so it shows the error the refresh then
/// corrects — positive on the late heartbeat, back to zero right after.
#[test]
fn estimate_overdue_gauge_reflects_in_progress_refresh() {
    let obs = ObsHandle::new();
    let mut s = calibrated_slave(obs.clone());
    s.on_bind(vec![mig(1, &[1])]);
    assert!(s.try_start(SimTime::ZERO).is_some());

    // ~1.83 s estimated for 256 MB at 140 MB/s; heartbeat at t=60 s is
    // far past it.
    let est_before = s.estimator().estimate(BLOCK).as_secs_f64();
    obs.set_now(SimTime::from_secs(60));
    let hb = s.on_heartbeat(SimTime::from_secs(60));

    let report = obs.take_report();
    let series = report
        .gauge("node.estimate_overdue_secs", 0)
        .expect("gauge recorded at heartbeat");
    let sample = series
        .value_at(SimTime::from_secs(60))
        .expect("sample at heartbeat time");
    let expected = 60.0 - est_before;
    assert!(
        (sample - expected).abs() < 1e-6,
        "overdue sample {sample} should be elapsed minus pre-refresh estimate {expected}"
    );

    // The refresh fired (EWMA-blended toward the elapsed lower bound, not
    // snapped to it): each subsequent heartbeat sees a strictly smaller
    // overdue as the estimate converges up toward the elapsed time.
    assert!(hb.secs_per_byte > 1.0 / BW, "refresh raised the estimate");
    let mut samples = vec![sample];
    for i in 1..=20u64 {
        let t = SimTime::from_micros(60 * 1_000_000 + i);
        obs.set_now(t);
        s.on_heartbeat(t);
        let report = obs.take_report();
        let series = report
            .gauge("node.estimate_overdue_secs", 0)
            .expect("gauge recorded each heartbeat");
        samples.push(series.value_at(t).expect("sample"));
    }
    assert!(
        samples.windows(2).all(|w| w[1] < w[0]),
        "overdue must shrink every refresh: {samples:?}"
    );
    assert!(
        samples.last().expect("nonempty") < &(0.1 * samples[0]),
        "refresh should erase most of the error: {samples:?}"
    );
}

/// The realized-vs-estimated error gauge is sampled at completion, before
/// the completion itself teaches the estimator.
#[test]
fn estimate_error_gauge_sampled_at_completion() {
    let obs = ObsHandle::new();
    let mut s = calibrated_slave(obs.clone());
    s.on_bind(vec![mig(1, &[1])]);
    assert!(s.try_start(SimTime::ZERO).is_some());
    let est = s.estimator().estimate(BLOCK).as_secs_f64();
    obs.set_now(SimTime::from_secs(20));
    s.on_migration_complete(SimTime::from_secs(20)); // much slower than estimated
    let report = obs.take_report();
    let series = report
        .gauge("node.estimate_error_secs", 0)
        .expect("error gauge recorded");
    let sample = series
        .value_at(SimTime::from_secs(20))
        .expect("sample at completion");
    assert!(
        (sample - (20.0 - est)).abs() < 1e-6,
        "signed error {sample} should be realized minus estimated {}",
        20.0 - est
    );
}

/// Full delayed-binding lifecycle through the master and slave: pending →
/// targeted → bound(heartbeat-pull) → started → finished, with block and
/// size stamped on every event.
#[test]
fn master_slave_lifecycle_spans() {
    let obs = ObsHandle::new();
    let mut m = Master::new(MigrationPolicy::Dyrs, 2, BW, Rng::new(1));
    m.attach_obs(obs.clone());
    let mut s = calibrated_slave(obs.clone());

    m.on_heartbeat(NodeId(0), 1.0 / BW, 0);
    m.on_heartbeat(NodeId(1), 1.0, 0); // slow
    m.request_migration(
        JobId(9),
        vec![BlockRequest {
            block: BlockId(5),
            bytes: BLOCK,
            replicas: vec![NodeId(0), NodeId(1)],
        }],
        EvictionMode::Implicit,
    );
    m.retarget();
    obs.set_now(SimTime::from_secs(1));
    let bound = m.on_slave_pull(NodeId(0), 4);
    assert_eq!(bound.len(), 1);
    let id = bound[0].id.0;
    s.on_bind(bound);
    assert!(s.try_start(SimTime::from_secs(1)).is_some());
    obs.set_now(SimTime::from_secs(3));
    s.on_migration_complete(SimTime::from_secs(3));

    let report = obs.take_report();
    let spans = report.spans();
    let span = &spans[&id];
    let states: Vec<SpanState> = span.iter().map(|e| e.state).collect();
    assert_eq!(
        states,
        vec![
            SpanState::Pending,
            SpanState::Targeted,
            SpanState::Bound,
            SpanState::Started,
            SpanState::Finished,
        ]
    );
    assert!(span.iter().all(|e| e.block == 5 && e.bytes == BLOCK));
    assert_eq!(span[0].job, Some(9));
    assert_eq!(span[2].cause, cause::HEARTBEAT_PULL);
    assert_eq!(span[4].node, Some(0));
    assert_eq!(report.counter("span.finished"), 1);
    let hist = report
        .histogram("migration.duration_secs")
        .expect("duration histogram");
    assert_eq!(hist.total(), 1);
}

/// An Algorithm 1 placement is explainable from the provenance record
/// alone: the winner is the candidate with the minimum estimated finish
/// time, and the recorded scores match the paper's formula
/// `finish[n] = spb[n]·queued_bytes[n] + spb[n]·bytes`.
#[test]
fn provenance_explains_algorithm1_placement() {
    let obs = ObsHandle::new();
    let mut m = Master::new(MigrationPolicy::Dyrs, 3, BW, Rng::new(1));
    m.attach_obs(obs.clone());
    let slow_spb = 10.0 / BW;
    let fast_spb = 1.0 / BW;
    m.on_heartbeat(NodeId(0), slow_spb, 0);
    m.on_heartbeat(NodeId(1), fast_spb, 2 * BLOCK); // fast but backlogged
    m.on_heartbeat(NodeId(2), fast_spb, 0);
    m.request_migration(
        JobId(1),
        vec![BlockRequest {
            block: BlockId(1),
            bytes: BLOCK,
            replicas: vec![NodeId(0), NodeId(1), NodeId(2)],
        }],
        EvictionMode::Implicit,
    );
    m.retarget();

    let report = obs.take_report();
    assert_eq!(report.provenance.len(), 1);
    let rec = report.provenance.iter().next().expect("one record");
    assert_eq!(rec.migration, 0);
    assert_eq!(rec.block, 1);
    assert_eq!(rec.candidates.len(), 3);
    // Scores reproduce the paper's formula from heartbeat state alone.
    for c in &rec.candidates {
        let (spb, queued) = match c.node {
            0 => (slow_spb, 0.0),
            1 => (fast_spb, (2 * BLOCK) as f64),
            2 => (fast_spb, 0.0),
            n => panic!("unexpected candidate node {n}"),
        };
        let expected = spb * queued + spb * BLOCK as f64;
        assert!(
            (c.est_finish_secs - expected).abs() < 1e-9,
            "node {}: recorded {} vs formula {}",
            c.node,
            c.est_finish_secs,
            expected
        );
    }
    // The winner is the argmin of the recorded scores — node 2 here
    // (node 0 is slow, node 1 pays for its backlog).
    let best = rec
        .candidates
        .iter()
        .min_by(|a, b| a.est_finish_secs.total_cmp(&b.est_finish_secs))
        .expect("nonempty candidates");
    assert_eq!(best.node, 2);
    assert_eq!(rec.winner, Some(2));
    assert_eq!(m.target_of(BlockId(1)), Some(NodeId(2)));
}

/// Master-side terminal transitions: a read before binding aborts with
/// `missed-read`; a master restart aborts every pending migration.
#[test]
fn master_abort_causes() {
    let obs = ObsHandle::new();
    let mut m = Master::new(MigrationPolicy::Dyrs, 2, BW, Rng::new(1));
    m.attach_obs(obs.clone());
    let req = |i: u64| BlockRequest {
        block: BlockId(i),
        bytes: BLOCK,
        replicas: vec![NodeId(0)],
    };
    m.request_migration(JobId(1), vec![req(1), req(2)], EvictionMode::Implicit);
    m.on_block_read(BlockId(1));
    m.restart();

    let report = obs.take_report();
    let spans = report.spans();
    assert_eq!(spans.len(), 2);
    let terminals: Vec<&str> = spans
        .values()
        .map(|s| {
            let last = s.last().expect("nonempty span");
            assert!(last.state.is_terminal());
            last.cause
        })
        .collect();
    assert_eq!(terminals, vec![cause::MISSED_READ, cause::MASTER_RESTART]);
}

/// Slave-side terminals: an unreferenced dequeue aborts; a completion
/// whose readers all went away is `evicted` (landed, never served).
#[test]
fn slave_abort_and_evict_causes() {
    let obs = ObsHandle::new();
    let mut s = calibrated_slave(obs.clone());
    // Migration 1 starts, then its only reader reads the block from disk
    // mid-flight → evicted-on-completion.
    s.on_bind(vec![mig(1, &[1]), mig(2, &[2])]);
    assert!(s.try_start(SimTime::ZERO).is_some());
    s.on_read(BlockId(1), JobId(1));
    // Migration 2 is still queued when its job is evicted → aborted.
    s.evict_job(JobId(2));
    obs.set_now(SimTime::from_secs(2));
    let done = s.on_migration_complete(SimTime::from_secs(2));
    assert!(done.evicted_immediately);

    let report = obs.take_report();
    let spans = report.spans();
    let one = spans[&1].last().expect("span 1");
    assert_eq!(one.state, SpanState::Evicted);
    assert_eq!(one.cause, cause::UNREFERENCED);
    let two = spans[&2].last().expect("span 2");
    assert_eq!(two.state, SpanState::Aborted);
    assert_eq!(two.cause, cause::JOB_EVICTED);
    assert_eq!(report.counter("span.evicted"), 1);
    assert_eq!(report.counter("span.aborted"), 1);
}
