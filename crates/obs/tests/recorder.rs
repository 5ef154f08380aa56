//! Property test of the live recorder: random lifecycle sequences and
//! provenance passes against a naive model that keeps whole events and
//! records.
//!
//! Ids spread over several span-table pages, both sides of the dense-id
//! limit, ids ≥ 2^32 and `u64::MAX`. Half of them are never marked pending
//! (a slave-side handle sees ids it never saw requested), the others can
//! see events before and after their `pending` and can be re-pended with
//! a different block and size. Causes include strings outside the
//! `cause` catalog, and a catalog cause's text at another address.
//! Provenance pushes carry 0–5 replicas with non-finite scores, a
//! migration's replica list can change between pushes, and some passes
//! stage thousands of records, over page boundaries. A `take_report` can
//! land mid-stream.
//!
//! What the recorder gives back must match the model: `spans_jsonl()` and
//! `provenance_jsonl()` byte for byte against the model's JSONL, and
//! iteration record for record. The scrape view (`snapshot`) must agree
//! with a recount, and `close_dangling` must abort exactly the spans whose
//! last event is non-terminal, in ascending id order. A second property
//! interleaves gauge samples across names and keys, on both sides of the
//! gauge store's dense-key bound and with names passed from a second
//! address: the scrape view, taken between samples, and the report keep
//! (name, key) order against a flat map. (Compiled only with the
//! `enabled` feature, which the workspace build turns on through
//! `dyrs-sim`.)

#![cfg(feature = "enabled")]

use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use dyrs_obs::{
    cause, CandidateScore, ObsHandle, ProvenanceRecord, SpanEvent, SpanState, TOP_WINNERS,
};
use proptest::prelude::*;
use simkit::{json, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Display;

/// Migration ids: both sides of several span-table page boundaries
/// (pages hold 256 consecutive ids), of the dense-id limit (256 · 2^16),
/// and of 2^32, plus `u64::MAX`. Even positions get `pending` events; odd
/// positions never do.
const IDS: [u64; 16] = [
    0,
    1,
    255,
    256,
    257,
    511,
    512,
    700,
    1023,
    5000,
    (256 << 16) - 1,
    256 << 16,
    1 << 32,
    (1 << 32) + 1,
    (1 << 40) + 2,
    u64::MAX,
];

/// What a requested migration's events must carry.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    block: u64,
    bytes: u64,
}

/// What the recorder was fed and has given back, for the recount.
#[derive(Default)]
struct Model {
    /// Every event taken out of the recorder so far.
    events: Vec<SpanEvent>,
    /// Every provenance record taken out so far.
    provenance: Vec<ProvenanceRecord>,
    /// `sched.*` counter sums since the last take, once a pass ran.
    sched: Option<(u64, u64)>,
    /// Expected events and provenance since the last take, in recording
    /// order.
    want_events: Vec<SpanEvent>,
    want_provenance: Vec<ProvenanceRecord>,
    /// Each id's block and size as last requested.
    meta: BTreeMap<u64, Meta>,
    passes: u64,
}

impl Model {
    /// The event the recorder should log for this transition.
    fn event(
        &mut self,
        now: u64,
        id: u64,
        state: SpanState,
        node: Option<u32>,
        why: &'static str,
        job: Option<u64>,
    ) {
        let m = self.meta.get(&id).copied().unwrap_or_default();
        self.want_events.push(SpanEvent {
            at: SimTime::from_secs(now),
            migration: id,
            block: m.block,
            bytes: m.bytes,
            state,
            node,
            cause: why,
            job,
        });
    }
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

/// A cause for a bind, eviction or abort: a catalog constant, a string
/// outside the catalog, or `twin` (a catalog text at another address).
fn cause_of(x: u64, catalog: &'static str, twin: &'static str) -> &'static str {
    match x % 4 {
        0 => "outside-the-catalog",
        1 => twin,
        _ => catalog,
    }
}

/// One provenance push for `mig`: 0–5 replicas, and scores that are
/// finite, ∞, −∞ or NaN by rank. Variant 0 is the migration's usual
/// constants, variant 1 changes only its replica list, variant 2 its
/// block and size too.
fn push_for(mig: u64, variant: u64, seed: u64) -> (u64, u64, Vec<NodeId>, Vec<f64>) {
    let key = mig.wrapping_mul(31).wrapping_add(variant.min(1));
    let meta = mig.wrapping_add(variant / 2);
    let replicas: Vec<NodeId> = (0..key % 6)
        .map(|rank| NodeId(((key >> (2 * rank)) % 7) as u32))
        .collect();
    let scores = (0..replicas.len() as u64)
        .map(|rank| match (seed >> (2 * rank)) % 7 {
            0 => f64::INFINITY,
            1 => f64::NAN,
            2 => f64::NEG_INFINITY,
            r => (seed % 97) as f64 * 0.5 + r as f64,
        })
        .collect();
    (meta % 1000, meta % 7 * 1024, replicas, scores)
}

/// The record the recorder should give back for a push (pass fields
/// zeroed until the pass is stamped).
fn record_of(
    mig: u64,
    (block, bytes, replicas, scores): &(u64, u64, Vec<NodeId>, Vec<f64>),
    winner: Option<u32>,
) -> ProvenanceRecord {
    let mut candidates: Vec<CandidateScore> = (0u32..)
        .zip(replicas.iter().zip(scores))
        .filter(|(_, (_, s))| s.is_finite())
        .map(|(rank, (n, &s))| CandidateScore {
            node: n.0,
            rank,
            est_finish_secs: s,
        })
        .collect();
    candidates.sort_by_key(|c| (c.node, c.rank));
    ProvenanceRecord {
        at: SimTime::ZERO,
        pass: 0,
        migration: mig,
        block: *block,
        bytes: *bytes,
        candidates,
        winner,
        rescored: 0,
        skipped: 0,
    }
}

fn or_null(v: Option<impl Display>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// `spans.jsonl` of whole events, written the obvious way.
fn spans_jsonl(events: &[SpanEvent]) -> String {
    events
        .iter()
        .map(|e| {
            format!(
                "{{\"at_us\":{},\"migration\":{},\"block\":{},\"bytes\":{},\"state\":\"{}\",\"node\":{},\"cause\":\"{}\",\"job\":{}}}\n",
                e.at.as_micros(),
                e.migration,
                e.block,
                e.bytes,
                e.state.name(),
                or_null(e.node),
                e.cause,
                or_null(e.job),
            )
        })
        .collect()
}

/// `provenance.jsonl` of whole records, written the obvious way.
fn provenance_jsonl(records: &[ProvenanceRecord]) -> String {
    records
        .iter()
        .map(|r| {
            let candidates: Vec<String> = r
                .candidates
                .iter()
                .map(|c| {
                    format!(
                        "{{\"node\":{},\"rank\":{},\"est_finish_secs\":{}}}",
                        c.node,
                        c.rank,
                        json::number(c.est_finish_secs)
                    )
                })
                .collect();
            format!(
                "{{\"at_us\":{},\"pass\":{},\"migration\":{},\"block\":{},\"bytes\":{},\"candidates\":[{}],\"winner\":{},\"rescored\":{},\"skipped\":{}}}\n",
                r.at.as_micros(),
                r.pass,
                r.migration,
                r.block,
                r.bytes,
                candidates.join(","),
                or_null(r.winner),
                r.rescored,
                r.skipped,
            )
        })
        .collect()
}

/// Drain the recorder into the model, checking the drained events and
/// provenance, and their exports, against what the model expects.
fn drain(h: &ObsHandle, model: &mut Model) -> Result<Vec<SpanEvent>, TestCaseError> {
    let report = h.take_report();
    prop_assert!(report.enabled);
    let want_events = std::mem::take(&mut model.want_events);
    let want_provenance = std::mem::take(&mut model.want_provenance);
    prop_assert_eq!(
        report.spans_jsonl(),
        spans_jsonl(&want_events),
        "spans.jsonl"
    );
    prop_assert_eq!(
        report.provenance_jsonl(),
        provenance_jsonl(&want_provenance),
        "provenance.jsonl"
    );
    let events: Vec<SpanEvent> = report.events.iter().collect();
    prop_assert_eq!(events.len(), report.events.len());
    prop_assert_eq!(format!("{events:?}"), format!("{want_events:?}"), "events");
    let got: Vec<ProvenanceRecord> = report.provenance.iter().collect();
    prop_assert_eq!(got.len(), report.provenance.len());
    prop_assert_eq!(
        format!("{got:?}"),
        format!("{want_provenance:?}"),
        "provenance"
    );
    model.provenance.extend(got);
    model.sched = None;
    model.events.extend(events.iter().cloned());
    Ok(events)
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
        let twin: &'static str = Box::leak(cause::PRESSURE.to_owned().into_boxed_str());
        let mut now = 0u64;
        for &(kind, sel, node, x) in &ops {
            let id = IDS[sel];
            match kind {
                0 if sel % 2 == 0 => {
                    let job = (x % 2 == 0).then_some(x);
                    let why = if x % 3 == 0 { cause::RETRY } else { cause::REQUESTED };
                    // Re-pends keep or change the block and size.
                    let meta = Meta { block: x % 5, bytes: (x % 3) << 20 };
                    h.migration_pending_why(id, BlockId(meta.block), meta.bytes, job.map(JobId), why);
                    model.meta.insert(id, meta);
                    model.event(now, id, SpanState::Pending, None, why, job);
                }
                0..=6 => {
                    let state = state_of(kind);
                    let n = NodeId(node);
                    let (node, why) = match state {
                        SpanState::Targeted => {
                            h.migration_targeted(id, n);
                            (Some(node), cause::RETARGET)
                        }
                        SpanState::Bound => {
                            let why = cause_of(x, cause::HEARTBEAT_PULL, twin);
                            h.migration_bound(id, n, why);
                            (Some(node), why)
                        }
                        SpanState::Started => {
                            h.migration_started(id, n);
                            (Some(node), cause::ADMITTED)
                        }
                        SpanState::Finished => {
                            h.migration_finished(id, n, SimDuration::from_secs(x % 9));
                            (Some(node), cause::COMPLETED)
                        }
                        SpanState::Evicted => {
                            let why = cause_of(x, cause::PRESSURE, twin);
                            h.migration_evicted(id, n, why);
                            (Some(node), why)
                        }
                        _ => {
                            let why = cause_of(x, cause::SCAVENGED, twin);
                            let n = (x % 2 == 0).then_some(n);
                            h.migration_aborted(id, n, why);
                            (n.map(|n| n.0), why)
                        }
                    };
                    model.event(now, id, state, node, why, None);
                }
                // One retarget pass: stage a batch, stamp it. One pass in
                // 13 stages thousands of records, over page boundaries.
                7 => {
                    let count = if x % 13 == 0 { 1500 + x % 4000 } else { x % 4 };
                    let mut batch = Vec::new();
                    for k in 0..count {
                        let mig = IDS[((x >> (k % 16)) as usize + k as usize) % IDS.len()];
                        let variant = match (x >> (k % 13)) % 8 {
                            v @ (1 | 2) => v,
                            _ => 0,
                        };
                        let push = push_for(mig, variant, x.wrapping_add(k));
                        let winner = match (x + k) % 4 {
                            0 => None,
                            1 => Some(9),
                            _ => push.2.first().map(|n| n.0),
                        };
                        batch.push(record_of(mig, &push, winner));
                        let (block, bytes, replicas, scores) = push;
                        h.provenance_push(mig, BlockId(block), bytes, winner.map(NodeId), &replicas, &scores);
                    }
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

        // close_dangling aborts exactly the spans left open, in id order.
        let open: Vec<u64> = last_states(&model.events)
            .into_iter()
            .filter(|(_, s)| !s.is_terminal())
            .map(|(id, _)| id)
            .collect();
        for &id in &open {
            model.event(now, id, SpanState::Aborted, None, cause::RUN_END, None);
        }
        h.close_dangling(cause::RUN_END);
        let closed = drain(&h, &mut model)?;
        let aborted: Vec<u64> = closed.iter().map(|e| e.migration).collect();
        prop_assert_eq!(aborted, open);
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

/// Keys past the gauge store's dense bound: a tier key of node 1023, a
/// key above 2^32, and `u64::MAX`.
const FAR_KEYS: [u64; 3] = [(1023 << 8) | 3, 1 << 40, u64::MAX];

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
            (0usize..GAUGES.len(), 0u64..300, 0u64..4, 0u64..1 << 40, 0u8..6, 0u8..8),
            1..200,
        ),
    ) {
        // The same names at other addresses, as another crate's literals
        // would be: their samples belong to the literals' series.
        let copies: Vec<&'static str> =
            GAUGES.iter().map(|g| &*String::leak((*g).to_owned())).collect();
        let h = ObsHandle::new();
        let mut model: BTreeMap<(&str, u64), Points> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        for &(sel, node, tier, x, kind, how) in &ops {
            let name = GAUGES[sel];
            let key = if how >> 1 == 3 {
                FAR_KEYS[(x % 3) as usize]
            } else if name.starts_with("tier.") {
                (node << 8) | tier
            } else if kind % 2 == 0 {
                node
            } else {
                x
            };
            let value = (x % 1000) as f64 / 8.0;
            h.gauge(if how & 1 == 1 { copies[sel] } else { name }, key, value);
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
                    let snap = h.snapshot();
                    for pair in snap.gauges.windows(2) {
                        prop_assert_eq!(
                            pair[0].name == pair[1].name,
                            std::sync::Arc::ptr_eq(&pair[0].name, &pair[1].name),
                            "a snapshot allocates each name once"
                        );
                    }
                    let got: Vec<(String, u64, f64, SimTime)> = snap
                        .gauges
                        .into_iter()
                        .map(|g| (g.name.to_string(), g.key, g.value, g.at))
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
