//! Driver-level observability guarantees: every migration the pipeline
//! touches is covered by exactly one lifecycle span with legal
//! transitions, the metrics registry agrees with the component counters,
//! and Algorithm 1 placements are explainable from provenance records
//! alone. Runs identically under `--features verify-audit`.

#![cfg(feature = "obs")]

use dyrs::obs::SpanState;
use dyrs::MigrationPolicy;
use dyrs_cluster::NodeId;
use dyrs_dfs::JobId;
use dyrs_engine::JobSpec;
use dyrs_experiments::scenarios::{hetero_config, with_workload};
use dyrs_sim::{FailureEvent, FileSpec, SimConfig, Simulation};
use dyrs_workloads::sort;
use simkit::{SimDuration, SimTime};

const SEED: u64 = 99;
const BLOCK: u64 = 256 << 20;

/// A quickstart-shaped run: one map-only job whose lead-time covers the
/// whole input, so every migration both starts and reaches a terminal
/// state before the run ends.
fn draining_run() -> dyrs_sim::SimResult {
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, SEED);
    cfg.files.push(FileSpec::new("f", 14 * BLOCK));
    let job = JobSpec::map_only(JobId(0), "scan", SimTime::ZERO, vec!["f".into()]);
    Simulation::new(cfg, vec![job]).run()
}

/// A messier run: restarts plus a node failure, exercising the abort and
/// eviction transitions.
fn drill_run() -> dyrs_sim::SimResult {
    let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
    // The restarts fire while the migration wave is still in flight: the
    // slave restart catches node 6's bound queue (it pulls on its first
    // staggered heartbeat), the master restart then wipes what is still
    // pending. 32 blocks over the 7-node testbed keeps both phases busy
    // at t=1–2 s.
    cfg.failures = vec![
        FailureEvent::SlaveRestart {
            at: SimTime::from_secs(1),
            node: NodeId(6),
        },
        FailureEvent::MasterRestart {
            at: SimTime::from_secs(2),
        },
        FailureEvent::NodeDown {
            at: SimTime::from_secs(20),
            node: NodeId(2),
        },
        FailureEvent::NodeUp {
            at: SimTime::from_secs(45),
            node: NodeId(2),
        },
    ];
    let w = sort::sort_workload(8 << 30, SimDuration::from_secs(20), 0);
    let (cfg, jobs) = with_workload(cfg, w);
    Simulation::new(cfg, jobs).run()
}

/// Check span well-formedness for a report: every span opens with
/// `pending`, states only move forward, and at most one terminal event
/// exists — as the last event. Returns (spans, terminal span count).
fn assert_spans_well_formed(report: &dyrs_obs::ObsReport) -> (usize, usize) {
    let order = |s: SpanState| match s {
        SpanState::Pending => 0,
        SpanState::Targeted => 1,
        SpanState::Bound => 2,
        SpanState::Started => 3,
        SpanState::Finished | SpanState::Aborted | SpanState::Evicted => 4,
    };
    let spans = report.spans();
    let mut terminal = 0;
    for (id, events) in &spans {
        assert_eq!(
            events[0].state,
            SpanState::Pending,
            "span {id} must open with pending"
        );
        // Targeted may repeat (periodic Algorithm 1 passes re-point the
        // migration); everything else moves strictly forward.
        for w in events.windows(2) {
            assert!(
                order(w[1].state) >= order(w[0].state),
                "span {id}: illegal transition {:?} -> {:?}",
                w[0].state,
                w[1].state
            );
        }
        let terminals = events.iter().filter(|e| e.state.is_terminal()).count();
        assert!(terminals <= 1, "span {id} has {terminals} terminal events");
        if terminals == 1 {
            assert!(
                events.last().expect("nonempty").state.is_terminal(),
                "span {id}: terminal event must be last"
            );
            terminal += 1;
        }
        // Spans are self-contained: block and size are stamped on every
        // event, and they never change mid-span.
        assert!(events.iter().all(|e| e.block == events[0].block));
        assert!(events.iter().all(|e| e.bytes == events[0].bytes));
    }
    (spans.len(), terminal)
}

#[test]
fn every_migration_has_exactly_one_terminal_span() {
    let r = draining_run();
    assert!(r.obs.enabled, "workspace default enables the obs feature");
    let (total, terminal) = assert_spans_well_formed(&r.obs);
    assert_eq!(total as u64, r.master.requested_blocks);
    assert_eq!(
        terminal, total,
        "a draining run must close every span terminally"
    );
    // Terminal counters partition the spans.
    let by_counter = r.obs.counter("span.finished")
        + r.obs.counter("span.aborted")
        + r.obs.counter("span.evicted");
    assert_eq!(by_counter, terminal as u64);
    assert!(r.obs.counter("span.finished") > 0);
}

#[test]
fn failure_drill_spans_stay_well_formed() {
    let r = drill_run();
    let (total, _) = assert_spans_well_formed(&r.obs);
    assert!(total > 0);
    // Restarts leave abort spans behind, never dangling pendings with a
    // terminal-looking cause.
    let aborted = r.obs.counter("span.aborted");
    assert!(
        aborted > 0,
        "master + slave restarts must abort in-flight migrations"
    );
}

#[test]
fn registry_counters_match_component_stats() {
    let r = draining_run();
    // The slave stats are the single source of truth for migration
    // roll-ups (NodeReport no longer duplicates them); the span counters
    // must agree with them exactly. `SlaveStats::completed` counts both
    // buffered completions (span `finished`) and completions whose
    // readers all went away mid-flight (span `evicted`).
    let completed: u64 = r.nodes.iter().map(|n| n.slave.completed).sum();
    assert_eq!(
        r.obs.counter("span.finished") + r.obs.counter("span.evicted"),
        completed
    );
    assert_eq!(r.obs.counter("span.finished"), r.master.completed);
    assert_eq!(r.obs.counter("span.pending"), r.master.requested_blocks);
    // The duration histogram saw every finished migration.
    let hist = r
        .obs
        .histogram("migration.duration_secs")
        .expect("finished migrations populate the histogram");
    assert_eq!(hist.total(), r.obs.counter("span.finished"));
    // Heartbeat gauges exist for every node.
    for n in &r.nodes {
        let key = u64::from(n.node.0);
        for name in [
            "node.queue_backlog_bytes",
            "node.buffer_bytes",
            "node.disk_utilization",
        ] {
            assert!(
                r.obs.gauge(name, key).is_some(),
                "missing {name} series for node {key}"
            );
        }
    }
    // The job's lead-time covered the whole input, so the ready-fraction
    // gauge must report (close to) 1.0 at launch.
    let lead = r
        .obs
        .gauge("job.lead_time_ready_fraction", 0)
        .expect("gauge recorded at job launch");
    let (_, frac) = lead.points()[0];
    assert!(
        frac > 0.9,
        "lead-time covered the input, got ready fraction {frac}"
    );
}

#[test]
fn driver_provenance_explains_placements() {
    let r = draining_run();
    assert!(
        !r.obs.provenance.is_empty(),
        "retarget passes must record provenance"
    );
    for rec in r.obs.provenance.iter() {
        if rec.candidates.is_empty() {
            assert_eq!(rec.winner, None, "no candidates, no winner");
            continue;
        }
        let winner = rec.winner.expect("candidates imply a winner");
        let best = rec
            .candidates
            .iter()
            .min_by(|a, b| {
                a.est_finish_secs
                    .total_cmp(&b.est_finish_secs)
                    .then(a.rank.cmp(&b.rank))
            })
            .expect("nonempty");
        // Algorithm 1: the winner minimizes estimated finish time, with
        // placement rank as the deterministic tie-break — reconstructable
        // from the record alone.
        assert_eq!(
            winner, best.node,
            "pass {} migration {}: winner {} but argmin(score, rank) is {}",
            rec.pass, rec.migration, winner, best.node
        );
        // Passes and timestamps are monotone (recorder-stamped).
        assert!(rec.candidates.iter().any(|c| c.node == winner));
    }
    // Provenance pass indices never decrease across the run.
    let passes: Vec<u64> = r.obs.provenance.iter().map(|rec| rec.pass).collect();
    assert!(passes.windows(2).all(|w| w[0] <= w[1]));
}
