//! Property test of the live recorder: random lifecycle sequences and
//! provenance passes against a recount of what it recorded.
//!
//! Ids spread over several span-table pages plus one far-sparse id, half
//! of them never marked pending (a slave-side handle sees ids it never
//! saw requested), and a `take_report` can land mid-stream. The scrape
//! view (`snapshot`) must agree with a recount of the recorded events and
//! provenance, every event must carry the block and size its migration
//! was requested with, and `close_dangling` must abort
//! exactly the spans whose last event is non-terminal, in ascending id
//! order. A second property interleaves gauge samples across names and
//! keys: both the scrape view and the report keep (name, key) order.
//! (Compiled only with the `enabled` feature, which the workspace build
//! turns on through `dyrs-sim`.)

#![cfg(feature = "enabled")]

use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_obs::{
    cause, CandidateScore, ObsHandle, ProvenanceRecord, SpanEvent, SpanState, TOP_WINNERS,
};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Migration ids: both sides of several page boundaries (pages hold 256
/// consecutive ids) and one far-sparse id. Even positions get `pending`
/// events; odd positions never do.
const IDS: [u64; 12] = [
    0,
    1,
    255,
    256,
    257,
    511,
    512,
    700,
    1023,
    1024,
    5000,
    u64::MAX,
];

/// What a requested migration's events must carry.
#[derive(Debug, Clone, Copy)]
struct Meta {
    block: u64,
    bytes: u64,
}

/// What the recorder was fed and has given back, for the recount.
#[derive(Default)]
struct Model {
    /// Every event and record taken out of the recorder so far.
    events: Vec<SpanEvent>,
    provenance: Vec<ProvenanceRecord>,
    /// `sched.*` counter sums since the last take, once a pass ran.
    sched: Option<(u64, u64)>,
    /// Expected provenance, in recording order.
    want_provenance: Vec<ProvenanceRecord>,
    passes: u64,
}

fn state_of(kind: u8) -> SpanState {
    match kind {
        1 => SpanState::Targeted,
        2 => SpanState::Bound,
        3 => SpanState::Started,
        4 => SpanState::Finished,
        5 => SpanState::Evicted,
        _ => SpanState::Aborted,
    }
}

/// Up to three candidates for one record, pushed in descending rank order
/// so the recorder has to sort them.
fn candidates(x: u64) -> Vec<CandidateScore> {
    (0..(x % 4) as u32)
        .rev()
        .map(|rank| CandidateScore {
            node: ((x >> (4 * rank)) % 6) as u32,
            rank,
            est_finish_secs: (x % 97) as f64 * 0.5 + f64::from(rank),
        })
        .collect()
}

/// Drain the recorder into the model, checking the drained events and
/// provenance against what the model expects.
fn drain(h: &ObsHandle, model: &mut Model) -> Result<Vec<SpanEvent>, TestCaseError> {
    let report = h.take_report();
    prop_assert!(report.enabled);
    let got: Vec<ProvenanceRecord> = report.provenance.iter().collect();
    prop_assert_eq!(got.len(), report.provenance.len());
    let want: Vec<ProvenanceRecord> = std::mem::take(&mut model.want_provenance);
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "provenance");
    model.provenance.extend(got);
    model.sched = None;
    model.events.extend(report.events.iter().cloned());
    Ok(report.events)
}

/// Check the scrape view against a recount, then drain the recorder.
fn check(h: &ObsHandle, model: &mut Model) -> Result<(), TestCaseError> {
    let snap = h.snapshot();
    let sched = model.sched;
    let segment = drain(h, model)?;

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &segment {
        *counters
            .entry(format!("span.{}", ev.state.name()))
            .or_insert(0) += 1;
    }
    if let Some((rescored, skipped)) = sched {
        counters.insert("sched.rescored".into(), rescored);
        counters.insert("sched.skipped".into(), skipped);
    }
    let counters: Vec<(String, u64)> = counters.into_iter().collect();
    prop_assert_eq!(snap.counters, counters, "counters");

    let mut census: BTreeMap<String, u64> = BTreeMap::new();
    for state in last_states(&model.events).values() {
        if !state.is_terminal() {
            *census.entry(state.name().to_owned()).or_insert(0) += 1;
        }
    }
    let census: Vec<(String, u64)> = census.into_iter().collect();
    prop_assert_eq!(snap.open_spans, census, "open-span census");

    let mut wins: BTreeMap<u32, u64> = BTreeMap::new();
    for rec in &model.provenance {
        if let Some(w) = rec.winner {
            *wins.entry(w).or_insert(0) += 1;
        }
    }
    let mut top: Vec<(u32, u64)> = wins.into_iter().collect();
    top.sort_by_key(|&(node, won)| (std::cmp::Reverse(won), node));
    top.truncate(TOP_WINNERS);
    prop_assert_eq!(snap.top_winners, top, "top winners");
    Ok(())
}

/// Each migration's last recorded state.
fn last_states(events: &[SpanEvent]) -> BTreeMap<u64, SpanState> {
    events.iter().map(|e| (e.migration, e.state)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_and_close_dangling_match_a_recount(
        ops in proptest::collection::vec(
            (0u8..10, 0usize..IDS.len(), 0u32..6, 0u64..1 << 20),
            1..160,
        ),
    ) {
        let h = ObsHandle::new();
        let mut model = Model::default();
        let mut now = 0u64;
        for &(kind, sel, node, x) in &ops {
            let id = IDS[sel];
            match kind {
                0 if sel % 2 == 0 => {
                    let job = (x % 2 == 0).then_some(JobId(x));
                    h.migration_pending(id, BlockId(x), x * 7, job);
                }
                0..=6 => {
                    let state = state_of(kind);
                    let n = NodeId(node);
                    match state {
                        SpanState::Targeted => h.migration_targeted(id, n),
                        SpanState::Bound => {
                            h.migration_bound(id, n, cause::HEARTBEAT_PULL);
                        }
                        SpanState::Started => h.migration_started(id, n),
                        SpanState::Finished => {
                            h.migration_finished(id, n, SimDuration::from_secs(x % 9));
                        }
                        SpanState::Evicted => h.migration_evicted(id, n, cause::PRESSURE),
                        _ => h.migration_aborted(id, (x % 2 == 0).then_some(n), cause::SCAVENGED),
                    }
                }
                // One retarget pass: stage records, maybe discard them
                // (a plan walk handing over mid-pass), stage the batch
                // that stands, stamp.
                7 => {
                    let stage = |h: &ObsHandle, seed: u64, want: &mut Vec<ProvenanceRecord>| {
                        for k in 0..seed % 4 {
                            let mig = IDS[((seed >> k) % IDS.len() as u64) as usize];
                            let c = candidates(seed >> (3 * k));
                            let winner = c.iter().map(|c| c.node).min();
                            let mut sorted = c.clone();
                            sorted.sort_by_key(|c| (c.node, c.rank));
                            want.push(ProvenanceRecord {
                                at: SimTime::ZERO,
                                pass: 0,
                                migration: mig,
                                block: seed,
                                bytes: k,
                                candidates: sorted,
                                winner,
                                rescored: 0,
                                skipped: 0,
                            });
                            h.provenance_push(mig, BlockId(seed), k, winner.map(NodeId), c);
                        }
                    };
                    if x % 3 == 0 {
                        stage(&h, x >> 2, &mut Vec::new());
                        h.provenance_discard();
                    }
                    let mut batch = Vec::new();
                    stage(&h, x, &mut batch);
                    let (rescored, skipped) = (batch.len() as u64, x % 5);
                    for rec in &mut batch {
                        rec.at = SimTime::from_secs(now);
                        rec.pass = model.passes;
                        rec.rescored = rescored;
                        rec.skipped = skipped;
                    }
                    model.want_provenance.extend(batch);
                    model.passes += 1;
                    let sums = model.sched.get_or_insert((0, 0));
                    sums.0 += rescored;
                    sums.1 += skipped;
                    h.retarget_pass(rescored, skipped);
                }
                8 => check(&h, &mut model)?,
                _ => {
                    now += 1;
                    h.set_now(SimTime::from_secs(now));
                }
            }
        }
        check(&h, &mut model)?;

        // Every event carries its migration's requested block and size
        // (zeros for ids never marked pending).
        let mut meta: BTreeMap<u64, Meta> = BTreeMap::new();
        let mut replay = model.events.iter();
        for &(kind, sel, _, x) in &ops {
            let id = IDS[sel];
            if kind == 0 && sel % 2 == 0 {
                meta.insert(id, Meta { block: x, bytes: x * 7 });
            }
            if kind <= 6 {
                let ev = replay.next().expect("one event per lifecycle op");
                let m = meta.get(&id).copied().unwrap_or(Meta { block: 0, bytes: 0 });
                prop_assert_eq!(
                    (ev.migration, ev.block, ev.bytes),
                    (id, m.block, m.bytes),
                    "event {:?}", ev
                );
            }
        }
        prop_assert!(replay.next().is_none());

        // close_dangling aborts exactly the spans left open, in id order.
        let open: Vec<u64> = last_states(&model.events)
            .into_iter()
            .filter(|(_, s)| !s.is_terminal())
            .map(|(id, _)| id)
            .collect();
        h.close_dangling(cause::RUN_END);
        let closed = drain(&h, &mut model)?;
        let aborted: Vec<u64> = closed.iter().map(|e| e.migration).collect();
        prop_assert_eq!(aborted, open);
        prop_assert!(closed
            .iter()
            .all(|e| e.state == SpanState::Aborted && e.cause == cause::RUN_END && e.node.is_none()));
        prop_assert_eq!(h.snapshot().open_total(), 0);
    }
}

/// Gauge names the driver records, plus `node.health_x`, which `node.health`
/// prefixes, so name order must be string order, not length order.
const GAUGES: [&str; 6] = [
    "tier.utilization",
    "node.health",
    "sched.pending_depth",
    "tier.occupancy_bytes",
    "node.health_x",
    "job.lead_time_ready_fraction",
];

/// One gauge series' samples, oldest first.
type Points = Vec<(SimTime, f64)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interleaved samples over several names and keys: the scrape view
    /// holds each series' last sample and the report each full series,
    /// both in (name, key) order, exactly as a flat map would.
    #[test]
    fn gauges_keep_name_then_key_order(
        ops in proptest::collection::vec(
            (0usize..GAUGES.len(), 0u64..300, 0u64..4, 0u64..1 << 40, 0u8..6),
            1..200,
        ),
    ) {
        let h = ObsHandle::new();
        let mut model: BTreeMap<(&str, u64), Points> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for &(sel, node, tier, x, kind) in &ops {
            let name = GAUGES[sel];
            let key = if name.starts_with("tier.") {
                (node << 8) | tier
            } else if kind % 2 == 0 {
                node
            } else {
                x
            };
            let value = (x % 1000) as f64 / 8.0;
            h.gauge(name, key, value);
            model.entry((name, key)).or_default().push((now, value));
            match kind {
                0 => {
                    now += SimDuration::from_millis(x % 2000);
                    h.set_now(now);
                }
                1 => {
                    let want: Vec<(String, u64, f64, SimTime)> = model
                        .iter()
                        .map(|(&(name, key), pts)| {
                            let &(at, value) = pts.last().expect("every series has a sample");
                            (name.to_owned(), key, value, at)
                        })
                        .collect();
                    let got: Vec<(String, u64, f64, SimTime)> = h
                        .snapshot()
                        .gauges
                        .into_iter()
                        .map(|g| (g.name, g.key, g.value, g.at))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                _ => {}
            }
        }
        let report = h.take_report();
        let got: Vec<((&str, u64), Points)> = report
            .gauges
            .iter()
            .map(|(&k, ts)| (k, ts.points().to_vec()))
            .collect();
        let want: Vec<((&str, u64), Points)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
        prop_assert!(h.snapshot().gauges.is_empty(), "take_report empties the store");
    }
}
