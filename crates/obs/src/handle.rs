//! The live recording handle (`enabled` feature).

use crate::ids::IdPages;
use crate::report::ObsReport;
use crate::snapshot::{
    FlightEntry, FlightRecord, GaugeSample, StatsSnapshot, FLIGHT_CAPACITY, MAX_AUTO_DUMPS,
    TOP_WINNERS,
};
use crate::span::{cause, SpanEvent, SpanState};
use dyrs_cluster::NodeId;
use dyrs_dfs::{BlockId, JobId};
use simkit::stats::{Histogram, TimeSeries};
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// What the recorder remembers about one migration id, so that every span
/// event is self-contained (carries block and size without the emitter
/// having to thread them through) and the open-span census never walks
/// the spans.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Set by `migration_pending`; a slave-side handle sees ids it never
    /// saw requested, and records them as block 0, size 0.
    block: u64,
    bytes: u64,
    /// The span's state while its last event is non-terminal.
    open: Option<SpanState>,
}

/// The counter each recorded transition bumps.
fn span_counter(state: SpanState) -> &'static str {
    match state {
        SpanState::Pending => "span.pending",
        SpanState::Targeted => "span.targeted",
        SpanState::Bound => "span.bound",
        SpanState::Started => "span.started",
        SpanState::Finished => "span.finished",
        SpanState::Aborted => "span.aborted",
        SpanState::Evicted => "span.evicted",
    }
}

/// One flight-recorder ring entry. Borrowed statics only, so feeding the
/// ring on the span hot path never allocates; entries are converted to
/// owned [`FlightEntry`]s at dump time.
#[derive(Debug, Clone, Copy)]
struct FlightNote {
    at: SimTime,
    migration: u64,
    block: u64,
    state: &'static str,
    node: Option<u32>,
    cause: &'static str,
}

/// Keys below this bound find their series through a family's dense
/// pages; it covers node indices, tier keys `(node << 8) | tier` up to
/// 256 nodes, and job ids.
const DENSE_KEYS: u64 = 1 << 16;

/// Keys per dense page: a tier key's page is its node.
const PAGE_BITS: u32 = 8;

/// A dense-table slot whose key has no series yet.
const NO_SERIES: u32 = u32::MAX;

/// The live series of one gauge name.
#[derive(Debug)]
struct GaugeFamily {
    /// The name as first passed.
    name: &'static str,
    /// The other addresses the name has been passed from. Call sites
    /// pass literals, so after its first sample a call site's name is
    /// found by address; a copy of the literal from another crate is
    /// found by its text once, then by its own address.
    aliases: Vec<&'static str>,
    /// Index into `series` by key, for keys below [`DENSE_KEYS`]: page
    /// `key >> PAGE_BITS`, then the key's slot in it. A page reaches only
    /// as far as the highest slot used, so tier keys cost a few slots per
    /// node, not a whole page.
    dense: Vec<Vec<u32>>,
    /// Index into `series` by key, for keys at or above [`DENSE_KEYS`].
    sparse: BTreeMap<u64, u32>,
    /// Every series with its key, in creation order.
    series: Vec<(u64, TimeSeries)>,
    /// Indices into `series` in key order, kept when a series is created.
    order: Vec<u32>,
}

impl GaugeFamily {
    fn new(name: &'static str) -> Self {
        GaugeFamily {
            name,
            aliases: Vec::new(),
            dense: Vec::new(),
            sparse: BTreeMap::new(),
            series: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The series for `key`, created (in key order) if it is new.
    fn series(&mut self, key: u64) -> &mut TimeSeries {
        let slot = if key < DENSE_KEYS {
            let (page, at) = (
                (key >> PAGE_BITS) as usize,
                (key & ((1 << PAGE_BITS) - 1)) as usize,
            );
            if page >= self.dense.len() {
                self.dense.resize_with(page + 1, Vec::new);
            }
            let page = &mut self.dense[page];
            if at >= page.len() {
                page.resize(at + 1, NO_SERIES);
            }
            &mut page[at]
        } else {
            self.sparse.entry(key).or_insert(NO_SERIES)
        };
        if *slot == NO_SERIES {
            let idx = self.series.len() as u32;
            *slot = idx;
            let series = &self.series;
            let at = self.order.partition_point(|&i| series[i as usize].0 < key);
            self.order.insert(at, idx);
            self.series.push((key, TimeSeries::new()));
        }
        &mut self.series[*slot as usize].1
    }

    /// The series in key order.
    fn in_key_order(&self) -> impl Iterator<Item = &(u64, TimeSeries)> {
        self.order.iter().map(|&i| &self.series[i as usize])
    }
}

/// Live gauge series: one family per name, kept in name order. A sample
/// costs a short scan of name addresses and an array index, however
/// many nodes or jobs key the series and with no allocation once its
/// series exists. `take_report` flattens the families into
/// `ObsReport::gauges`, which has the same (name, key) order.
#[derive(Debug, Default)]
struct GaugeStore {
    families: Vec<GaugeFamily>,
}

impl GaugeStore {
    fn family(&mut self, name: &'static str) -> &mut GaugeFamily {
        let at = match self.families.iter().position(|f| {
            std::ptr::eq(f.name, name) || f.aliases.iter().any(|&a| std::ptr::eq(a, name))
        }) {
            Some(i) => i,
            None => match self.families.binary_search_by(|f| f.name.cmp(name)) {
                Ok(i) => {
                    self.families[i].aliases.push(name);
                    i
                }
                Err(i) => {
                    self.families.insert(i, GaugeFamily::new(name));
                    i
                }
            },
        };
        &mut self.families[at]
    }
}

#[derive(Debug, Default)]
struct Inner {
    now: SimTime,
    report: ObsReport,
    gauges: GaugeStore,
    /// A slot for every migration id the recorder has seen.
    spans: IdPages<Slot>,
    /// `span.*` counts since the last `take_report`, by state; folded into
    /// the counters by `take_report` and `snapshot`.
    span_counts: [u64; SpanState::ALL.len()],
    /// Open spans by current state (the snapshot census).
    open_counts: [u64; SpanState::ALL.len()],
    passes: u64,
    /// Algorithm 1 winner roll-up: times chosen across all passes, by
    /// node.
    wins: Vec<u64>,
    /// Flight recorder ring of the last `FLIGHT_CAPACITY` transitions.
    flight: VecDeque<FlightNote>,
    /// Transitions that fell out of the ring.
    flight_dropped: u64,
    /// Automatic dumps (quarantine, protocol violation), newest last.
    auto_dumps: Vec<FlightRecord>,
}

impl Inner {
    fn flight_push(&mut self, note: FlightNote) {
        if self.flight.len() == FLIGHT_CAPACITY {
            self.flight.pop_front();
            self.flight_dropped += 1;
        }
        self.flight.push_back(note);
    }

    fn flight_record(&self, reason: &str, node: Option<u32>) -> FlightRecord {
        FlightRecord {
            reason: reason.to_owned(),
            node,
            at: self.now,
            dropped: self.flight_dropped,
            entries: self
                .flight
                .iter()
                .map(|n| FlightEntry {
                    at: n.at,
                    migration: n.migration,
                    block: n.block,
                    state: n.state.to_owned(),
                    node: n.node,
                    cause: n.cause.to_owned(),
                })
                .collect(),
        }
    }
}

/// Recording handle threaded through master, slaves, and the sim driver.
///
/// Cheap to clone (all clones share one recorder) and single-threaded by
/// construction — the simulation event loop owns it; only the extracted
/// [`ObsReport`] crosses threads. [`ObsHandle::disconnected`] (also
/// `ObsHandle::default()`) is a handle whose every call is a no-op and
/// whose `is_enabled()` is `false`, which is what components get when
/// nothing attached telemetry (e.g. unit tests constructing a `Master`
/// directly).
#[derive(Debug, Clone, Default)]
pub struct ObsHandle(Option<Rc<RefCell<Inner>>>);

impl ObsHandle {
    /// A handle attached to no recorder: every call is a no-op.
    pub fn disconnected() -> Self {
        ObsHandle(None)
    }

    /// A connected recorder.
    pub fn new() -> Self {
        let inner = Inner {
            report: ObsReport {
                enabled: true,
                ..ObsReport::default()
            },
            ..Inner::default()
        };
        ObsHandle(Some(Rc::new(RefCell::new(inner))))
    }

    /// Whether recording is active. Callers use this to skip building
    /// recording-only payloads (e.g. a slave's estimate-error gauges) on
    /// hot paths.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advance the recorder's clock; the driver calls this once per
    /// dispatched event so every record is stamped with simulated time.
    #[inline]
    pub fn set_now(&self, t: SimTime) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().now = t;
        }
    }

    fn record(
        &self,
        migration: u64,
        state: SpanState,
        node: Option<NodeId>,
        why: &'static str,
        job: Option<u64>,
    ) {
        if let Some(inner) = &self.0 {
            let inner = &mut *inner.borrow_mut();
            let slot = inner.spans.get_mut(migration);
            if let Some(was) = slot.open {
                inner.open_counts[was as usize] -= 1;
            }
            slot.open = (!state.is_terminal()).then_some(state);
            if slot.open.is_some() {
                inner.open_counts[state as usize] += 1;
            }
            let (block, bytes) = (slot.block, slot.bytes);
            let at = inner.now;
            inner.report.events.push(&SpanEvent {
                at,
                migration,
                block,
                bytes,
                state,
                node: node.map(|n| n.0),
                cause: why,
                job,
            });
            inner.span_counts[state as usize] += 1;
            inner.flight_push(FlightNote {
                at,
                migration,
                block,
                state: state.name(),
                node: node.map(|n| n.0),
                cause: why,
            });
        }
    }

    /// The master queued a new migration request.
    pub fn migration_pending(
        &self,
        migration: u64,
        block: BlockId,
        bytes: u64,
        job: Option<JobId>,
    ) {
        self.migration_pending_why(migration, block, bytes, job, cause::REQUESTED);
    }

    /// Like [`ObsHandle::migration_pending`] with an explicit cause —
    /// retry successors open their span with [`cause::RETRY`] instead of
    /// [`cause::REQUESTED`].
    pub fn migration_pending_why(
        &self,
        migration: u64,
        block: BlockId,
        bytes: u64,
        job: Option<JobId>,
        why: &'static str,
    ) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let slot = inner.spans.get_mut(migration);
            slot.block = block.0;
            slot.bytes = bytes;
        }
        self.record(migration, SpanState::Pending, None, why, job.map(|j| j.0));
    }

    /// Algorithm 1 picked (or changed) the preferred source node.
    pub fn migration_targeted(&self, migration: u64, node: NodeId) {
        self.record(
            migration,
            SpanState::Targeted,
            Some(node),
            cause::RETARGET,
            None,
        );
    }

    /// The migration was handed to a slave (`cause` distinguishes delayed
    /// binding on heartbeat pull from Ignem's immediate binding).
    pub fn migration_bound(&self, migration: u64, node: NodeId, why: &'static str) {
        self.record(migration, SpanState::Bound, Some(node), why, None);
    }

    /// The slave began streaming the block.
    pub fn migration_started(&self, migration: u64, node: NodeId) {
        self.record(
            migration,
            SpanState::Started,
            Some(node),
            cause::ADMITTED,
            None,
        );
    }

    /// Terminal: the block landed in memory. Also observes the
    /// `migration.duration_secs` histogram with the bound→finish latency.
    pub fn migration_finished(&self, migration: u64, node: NodeId, took: SimDuration) {
        self.record(
            migration,
            SpanState::Finished,
            Some(node),
            cause::COMPLETED,
            None,
        );
        self.observe("migration.duration_secs", took.as_secs_f64());
    }

    /// Terminal: the block landed but memory pressure evicted it in the
    /// same instant, so it never served a read from memory.
    pub fn migration_evicted(&self, migration: u64, node: NodeId, why: &'static str) {
        self.record(migration, SpanState::Evicted, Some(node), why, None);
    }

    /// Terminal: the migration was cancelled before completion.
    pub fn migration_aborted(&self, migration: u64, node: Option<NodeId>, why: &'static str) {
        self.record(migration, SpanState::Aborted, node, why, None);
    }

    /// A pressure eviction tried to push a buffered block down the tier
    /// stack: `to` names the receiving tier (`cause::EVICT_DEMOTE`) or is
    /// `None` when every lower tier was full and the copy was dropped
    /// (`cause::EVICT_DROP`). Feeds the `tier.*` counters and the flight
    /// recorder, so silent byte drops are now attributable.
    pub fn tier_evicted(&self, block: BlockId, node: NodeId, to: Option<u8>) {
        let (state, why, counter) = match to {
            Some(_) => ("demote", cause::EVICT_DEMOTE, "tier.evict_demote"),
            None => ("drop", cause::EVICT_DROP, "tier.evict_drop"),
        };
        self.counter_add(counter, 1);
        if to.is_some() {
            self.counter_add("tier.demotions", 1);
        }
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let at = inner.now;
            inner.flight_push(FlightNote {
                at,
                migration: 0,
                block: block.0,
                state,
                node: Some(node.0),
                cause: why,
            });
        }
    }

    /// Stage one entry an Algorithm 1 pass just scored: its replica nodes
    /// in rank order, one score per rank (non-finite for a replica that
    /// was not a candidate), and the chosen node, if any. The staged
    /// records become one pass at the next [`ObsHandle::retarget_pass`].
    ///
    /// # Panics
    ///
    /// If `scores` and `replicas` differ in length, or the winner is
    /// `NodeId(u32::MAX)`.
    pub fn provenance_push(
        &self,
        migration: u64,
        block: BlockId,
        bytes: u64,
        winner: Option<NodeId>,
        replicas: &[NodeId],
        scores: &[f64],
    ) {
        if let Some(inner) = &self.0 {
            let inner = &mut *inner.borrow_mut();
            let winner = winner.map(|n| n.0);
            inner
                .report
                .provenance
                .push(migration, block.0, bytes, winner, replicas, scores);
            if let Some(w) = winner {
                let w = w as usize;
                if w >= inner.wins.len() {
                    inner.wins.resize(w + 1, 0);
                }
                inner.wins[w] += 1;
            }
        }
    }

    /// Close one Algorithm 1 retarget pass: the records staged since the
    /// last pass become this pass's batch. The recorder assigns the
    /// monotone pass index, timestamps, and the pass-level rescored /
    /// skipped counts. The batch covers the rescored entries only: a pass
    /// that skipped its walk records nothing, and each entry's previous
    /// record remains authoritative.
    pub fn retarget_pass(&self, rescored: u64, skipped: u64) {
        if let Some(inner) = &self.0 {
            let inner = &mut *inner.borrow_mut();
            let pass = inner.passes;
            inner.passes += 1;
            inner
                .report
                .provenance
                .stamp(inner.now, pass, rescored, skipped);
            *inner.report.counters.entry("sched.rescored").or_insert(0) += rescored;
            *inner.report.counters.entry("sched.skipped").or_insert(0) += skipped;
        }
    }

    /// Bump a monotone counter.
    pub fn counter_add(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.0 {
            *inner.borrow_mut().report.counters.entry(name).or_insert(0) += by;
        }
    }

    /// Sample a gauge for `(name, key)` at the current simulated time.
    /// The key is a node index for `node.*` metrics and a job id for
    /// `job.*` metrics.
    pub fn gauge(&self, name: &'static str, key: u64, value: f64) {
        if let Some(inner) = &self.0 {
            let inner = &mut *inner.borrow_mut();
            let at = inner.now;
            inner.gauges.family(name).series(key).record(at, value);
        }
    }

    /// Record one sample into the named histogram (bins come from the
    /// catalog in `docs/OBSERVABILITY.md`).
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner
                .borrow_mut()
                .report
                .histograms
                .entry(name)
                .or_insert_with(|| histogram_for(name))
                .observe(value);
        }
    }

    /// Close every span that has no terminal event yet with an `aborted`
    /// record of cause `why`. The driver calls this once at end of run so
    /// completed runs never leave dangling spans: every migration span
    /// ends in exactly one terminal event, whatever the run cut short.
    pub fn close_dangling(&self, why: &'static str) {
        let Some(inner) = &self.0 else { return };
        let dangling: Vec<u64> = inner
            .borrow()
            .spans
            .iter()
            .filter(|(_, slot)| slot.open.is_some())
            .map(|(id, _)| id)
            .collect();
        for id in dangling {
            self.migration_aborted(id, None, why);
        }
    }

    /// Extract everything recorded so far, leaving the recorder empty but
    /// still connected. The driver calls this once when building
    /// `SimResult`.
    pub fn take_report(&self) -> ObsReport {
        match &self.0 {
            Some(inner) => {
                let inner = &mut *inner.borrow_mut();
                let mut report = std::mem::take(&mut inner.report);
                inner.report.enabled = true;
                // Family by family, so each family's tables are freed
                // as its series move into the report.
                for f in std::mem::take(&mut inner.gauges.families) {
                    let name = f.name;
                    let series = f.series.into_iter();
                    report
                        .gauges
                        .extend(series.map(|(key, ts)| ((name, key), ts)));
                }
                fold_span_counts(&mut report.counters, &inner.span_counts);
                inner.span_counts = Default::default();
                report
            }
            None => ObsReport::default(),
        }
    }

    /// Point-in-time view of the recorder: counters, latest gauge values,
    /// open-span census, and the top-N provenance winners. **Read-only**
    /// — a scrape never closes spans, never records anything, and never
    /// perturbs the recorder, so interleaved scrapes leave same-seed
    /// traces byte-identical.
    pub fn snapshot(&self) -> StatsSnapshot {
        let Some(inner) = &self.0 else {
            return StatsSnapshot::default();
        };
        let inner = inner.borrow();
        let mut counters = inner.report.counters.clone();
        fold_span_counts(&mut counters, &inner.span_counts);
        let counters = counters
            .into_iter()
            .map(|(name, v)| (name.to_owned(), v))
            .collect();
        // One allocation per name: every sample of a family shares it.
        let gauges = inner
            .gauges
            .families
            .iter()
            .flat_map(|f| {
                let name: Arc<str> = Arc::from(f.name);
                f.in_key_order().filter_map(move |(key, ts)| {
                    ts.points().last().map(|&(at, value)| GaugeSample {
                        name: Arc::clone(&name),
                        key: *key,
                        value,
                        at,
                    })
                })
            })
            .collect();
        let mut open_spans: Vec<(String, u64)> = SpanState::ALL
            .iter()
            .zip(inner.open_counts)
            .filter(|&(_, count)| count > 0)
            .map(|(state, count)| (state.name().to_owned(), count))
            .collect();
        open_spans.sort();
        let mut top_winners: Vec<(u32, u64)> = (0u32..)
            .zip(inner.wins.iter().copied())
            .filter(|&(_, won)| won > 0)
            .collect();
        top_winners.sort_by_key(|&(node, won)| (std::cmp::Reverse(won), node));
        top_winners.truncate(TOP_WINNERS);
        StatsSnapshot {
            at: inner.now,
            enabled: true,
            counters,
            gauges,
            open_spans,
            top_winners,
        }
    }

    /// Dump the flight recorder on demand. Read-only, like
    /// [`ObsHandle::snapshot`].
    pub fn flight_dump(&self, reason: &str, node: Option<NodeId>) -> FlightRecord {
        match &self.0 {
            Some(inner) => inner.borrow().flight_record(reason, node.map(|n| n.0)),
            None => FlightRecord::default(),
        }
    }

    /// Automatic dump: append an out-of-band marker to the ring (so the
    /// triggering event itself is part of the story) and retain the dump
    /// for later retrieval via [`ObsHandle::auto_flight_dumps`]. The
    /// daemons call this on node quarantine and protocol violations.
    pub fn flight_auto_dump(&self, reason: &'static str, node: Option<NodeId>) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let at = inner.now;
            inner.flight_push(FlightNote {
                at,
                migration: 0,
                block: 0,
                state: "mark",
                node: node.map(|n| n.0),
                cause: reason,
            });
            let record = inner.flight_record(reason, node.map(|n| n.0));
            if inner.auto_dumps.len() == MAX_AUTO_DUMPS {
                inner.auto_dumps.remove(0);
            }
            inner.auto_dumps.push(record);
        }
    }

    /// The automatic flight dumps taken so far (oldest first, capped at
    /// [`MAX_AUTO_DUMPS`]). Non-destructive.
    pub fn auto_flight_dumps(&self) -> Vec<FlightRecord> {
        match &self.0 {
            Some(inner) => inner.borrow().auto_dumps.clone(),
            None => Vec::new(),
        }
    }
}

/// Add the non-zero `span.*` counts to `counters`.
fn fold_span_counts(
    counters: &mut BTreeMap<&'static str, u64>,
    counts: &[u64; SpanState::ALL.len()],
) {
    for (&state, &n) in SpanState::ALL.iter().zip(counts) {
        if n > 0 {
            *counters.entry(span_counter(state)).or_insert(0) += n;
        }
    }
}

/// Bin layout per histogram name. Migration durations span ~ms (small
/// blocks on fast disks) to hours (stragglers under interference), so the
/// default is logarithmic.
fn histogram_for(name: &str) -> Histogram {
    match name {
        "migration.duration_secs" => Histogram::logarithmic(1e-3, 1e4, 70),
        _ => Histogram::logarithmic(1e-6, 1e6, 60),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ProvenanceRecord, SpanState};

    #[test]
    fn disconnected_handle_records_nothing() {
        let h = ObsHandle::default();
        assert!(!h.is_enabled());
        h.migration_pending(1, BlockId(1), 64, None);
        h.counter_add("span.pending", 1);
        h.gauge("node.buffer_bytes", 0, 1.0);
        h.observe("migration.duration_secs", 1.0);
        let r = h.take_report();
        assert!(!r.enabled);
        assert!(r.events.is_empty());
        assert!(r.counters.is_empty());
    }

    #[test]
    fn lifecycle_records_self_contained_events() {
        let h = ObsHandle::new();
        assert!(h.is_enabled());
        h.set_now(SimTime::from_secs(1));
        h.migration_pending(5, BlockId(42), 1024, Some(JobId(3)));
        h.set_now(SimTime::from_secs(2));
        h.migration_bound(5, NodeId(1), cause::HEARTBEAT_PULL);
        h.migration_finished(5, NodeId(1), SimDuration::from_secs(4));
        let r = h.take_report();
        assert!(r.enabled);
        let events: Vec<SpanEvent> = r.events.iter().collect();
        assert_eq!(events.len(), 3);
        // Later events inherit block/bytes from the pending record.
        assert!(events.iter().all(|e| e.block == 42 && e.bytes == 1024));
        assert_eq!(events[1].at, SimTime::from_secs(2));
        assert_eq!(events[1].node, Some(1));
        assert_eq!(r.counter("span.pending"), 1);
        assert_eq!(r.counter("span.finished"), 1);
        let hist = r.histogram("migration.duration_secs").expect("histogram");
        assert_eq!(hist.total(), 1);
    }

    #[test]
    fn clones_share_the_recorder_and_take_resets() {
        let h = ObsHandle::new();
        let h2 = h.clone();
        h.set_now(SimTime::from_secs(1));
        h2.migration_pending(1, BlockId(1), 8, None);
        let r = h.take_report();
        assert_eq!(r.events.len(), 1);
        // After take the recorder is empty but still enabled.
        let r2 = h.take_report();
        assert!(r2.enabled);
        assert!(r2.events.is_empty());
    }

    #[test]
    fn retarget_pass_assigns_monotone_pass_index() {
        let h = ObsHandle::new();
        h.set_now(SimTime::from_secs(1));
        let rec = |mig| h.provenance_push(mig, BlockId(mig), 8, None, &[], &[]);
        rec(1);
        rec(2);
        h.retarget_pass(2, 5);
        h.set_now(SimTime::from_secs(2));
        rec(1);
        h.retarget_pass(1, 6);
        let r = h.take_report();
        assert_eq!(r.provenance.len(), 3);
        let p: Vec<ProvenanceRecord> = r.provenance.iter().collect();
        assert_eq!(p[0].pass, 0);
        assert_eq!(p[1].pass, 0);
        assert_eq!(p[2].pass, 1);
        assert_eq!(p[2].at, SimTime::from_secs(2));
        // Pass-level work counts are stamped on every record and summed
        // into counters.
        assert_eq!(p[0].rescored, 2);
        assert_eq!(p[0].skipped, 5);
        assert_eq!(p[2].rescored, 1);
        assert_eq!(r.counter("sched.rescored"), 3);
        assert_eq!(r.counter("sched.skipped"), 11);
    }

    #[test]
    fn snapshot_is_read_only_and_reflects_live_state() {
        let h = ObsHandle::new();
        h.set_now(SimTime::from_secs(1));
        h.migration_pending(1, BlockId(10), 64, Some(JobId(7)));
        h.migration_pending(2, BlockId(11), 64, None);
        h.migration_bound(1, NodeId(3), cause::HEARTBEAT_PULL);
        h.gauge("sched.pending_depth", 0, 2.0);
        h.set_now(SimTime::from_secs(2));
        h.gauge("sched.pending_depth", 0, 1.0);

        let snap = h.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.at, SimTime::from_secs(2));
        assert_eq!(snap.counter("span.pending"), 2);
        assert_eq!(snap.counter("span.bound"), 1);
        // Latest gauge sample wins.
        assert_eq!(snap.gauge("sched.pending_depth", 0), Some(1.0));
        // Census: migration 1 is bound, migration 2 still pending.
        assert_eq!(
            snap.open_spans,
            vec![("bound".into(), 1), ("pending".into(), 1)]
        );
        assert_eq!(snap.open_total(), 2);

        // A scrape records nothing: the report is unchanged.
        let again = h.snapshot();
        assert_eq!(snap, again);
        let r = h.take_report();
        assert_eq!(r.events.len(), 3);

        // Terminal events retire spans from the census.
        h.migration_finished(1, NodeId(3), SimDuration::from_secs(1));
        h.migration_aborted(2, None, cause::MISSED_READ);
        assert_eq!(h.snapshot().open_total(), 0);
    }

    #[test]
    fn snapshot_rolls_up_top_provenance_winners() {
        let h = ObsHandle::new();
        let rec = |mig, winner: Option<u32>| {
            h.provenance_push(mig, BlockId(mig), 8, winner.map(NodeId), &[], &[]);
        };
        rec(1, Some(4));
        rec(2, Some(4));
        rec(3, Some(1));
        rec(4, None);
        h.retarget_pass(4, 0);
        let snap = h.snapshot();
        assert_eq!(snap.top_winners, vec![(4, 2), (1, 1)]);
    }

    #[test]
    fn flight_recorder_ring_bounds_and_auto_dump() {
        let h = ObsHandle::new();
        // Overfill the ring: capacity + 10 pending transitions.
        for i in 0..(crate::FLIGHT_CAPACITY as u64 + 10) {
            h.set_now(SimTime::from_secs(i));
            h.migration_pending(i, BlockId(i), 64, None);
        }
        let dump = h.flight_dump("on-demand", None);
        assert_eq!(dump.reason, "on-demand");
        assert_eq!(dump.entries.len(), crate::FLIGHT_CAPACITY);
        assert_eq!(dump.dropped, 10);
        // Oldest retained entry is migration 10 (0..=9 fell out).
        assert_eq!(dump.entries[0].migration, 10);

        // Auto dump appends a marker naming the node and retains the
        // record.
        h.flight_auto_dump("node-quarantined", Some(NodeId(2)));
        let dumps = h.auto_flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "node-quarantined");
        assert_eq!(dumps[0].node, Some(2));
        let last = dumps[0].entries.last().expect("nonempty");
        assert_eq!(last.state, "mark");
        assert_eq!(last.cause, "node-quarantined");
        assert_eq!(last.node, Some(2));
    }

    #[test]
    fn disconnected_handle_snapshot_is_empty() {
        let h = ObsHandle::default();
        let snap = h.snapshot();
        assert!(!snap.enabled);
        assert!(snap.counters.is_empty());
        assert_eq!(
            h.flight_dump("on-demand", None),
            crate::FlightRecord::default()
        );
        h.flight_auto_dump("node-quarantined", None);
        assert!(h.auto_flight_dumps().is_empty());
    }

    #[test]
    fn tier_events_feed_counters_and_flight() {
        let h = ObsHandle::new();
        h.set_now(SimTime::from_secs(1));
        h.tier_evicted(BlockId(5), NodeId(2), Some(1));
        h.tier_evicted(BlockId(6), NodeId(2), None);
        let dump = h.flight_dump("check", None);
        let states: Vec<&str> = dump.entries.iter().map(|e| e.state.as_str()).collect();
        assert_eq!(states, vec!["demote", "drop"]);
        assert_eq!(dump.entries[0].cause, cause::EVICT_DEMOTE);
        assert_eq!(dump.entries[1].cause, cause::EVICT_DROP);
        let r = h.take_report();
        assert_eq!(r.counter("tier.demotions"), 1);
        assert_eq!(r.counter("tier.evict_demote"), 1);
        assert_eq!(r.counter("tier.evict_drop"), 1);
    }

    #[test]
    fn terminal_state_per_span() {
        let h = ObsHandle::new();
        h.migration_pending(1, BlockId(1), 8, None);
        h.migration_aborted(1, None, cause::MISSED_READ);
        let r = h.take_report();
        let spans = r.spans();
        let span = &spans[&1];
        assert!(span.last().expect("nonempty").state.is_terminal());
        assert_eq!(
            span.iter()
                .filter(|e| e.state == SpanState::Aborted)
                .count(),
            1
        );
    }
}
