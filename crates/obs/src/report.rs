//! The collected observability data for one simulation run.

#[cfg(any(feature = "enabled", test))]
use crate::ids::IdPages;
use crate::pages::{Loc, Pages};
use crate::span::{CandidateScore, ProvenanceRecord, SpanEvent, SpanState};
use dyrs_cluster::NodeId;
use simkit::stats::{Histogram, TimeSeries};
use simkit::SimTime;
use std::collections::BTreeMap;

/// Everything recorded during one run: lifecycle span events, the metrics
/// registry (counters / per-key gauge series / histograms), and Algorithm 1
/// decision provenance.
///
/// This is plain owned data — unlike the recording handle it is `Send`, so
/// sweep runners can move it across threads with the rest of `SimResult`.
/// All containers iterate deterministically (the logs in recording order,
/// `BTreeMap` in key order), which is what makes the exported trace files
/// byte-identical across same-seed runs.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Whether recording was active. `false` means the run was executed
    /// with observability off (disconnected handle or `obs` feature
    /// disabled) and every collection below is empty.
    pub enabled: bool,
    /// Lifecycle transitions in recording order (time-sorted, since the
    /// recorder is driven by the event loop).
    pub events: SpanLog,
    /// Monotone counters, e.g. `span.finished`.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge time series keyed by `(metric name, entity key)` — the key is
    /// a node index for `node.*` metrics and a job id for `job.*` metrics.
    pub gauges: BTreeMap<(&'static str, u64), TimeSeries>,
    /// Value distributions, e.g. `migration.duration_secs`.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Algorithm 1 scoring records: one per entry a retarget pass
    /// rescored.
    pub provenance: ProvenanceLog,
}

impl ObsReport {
    /// Group span events by migration id, preserving per-migration
    /// transition order.
    pub fn spans(&self) -> BTreeMap<u64, Vec<SpanEvent>> {
        let mut out: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
        for ev in self.events.iter() {
            out.entry(ev.migration).or_default().push(ev);
        }
        out
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| **n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge series for `(name, key)`, if any samples were recorded.
    pub fn gauge(&self, name: &str, key: u64) -> Option<&TimeSeries> {
        self.gauges
            .iter()
            .find(|((n, k), _)| *n == name && *k == key)
            .map(|(_, ts)| ts)
    }

    /// Histogram by name, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| **n == name)
            .map(|(_, h)| h)
    }
}

/// Lifecycle span events in recording order, stored compactly.
///
/// Each event is one 40-byte record in a paged column (so the log
/// grows a page at a time and never moves what it holds): time,
/// migration, block, size, node, state, and the cause as an index into
/// the log's own table of the `&'static str` causes it has seen. The job
/// an event names (only `pending` events name one) sits in a side column
/// keyed by event index. [`SpanLog::iter`] rebuilds the owned
/// [`SpanEvent`]s, each with the values it was recorded with.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    records: Pages<SpanRecord>,
    /// `(event index, job)` of every event that names its job, in order.
    jobs: Pages<(u64, u64)>,
    /// Every cause seen, by address; a record holds its index.
    causes: Vec<&'static str>,
}

/// One stored span event.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    at: SimTime,
    migration: u64,
    block: u64,
    bytes: u64,
    /// The event's node, if `has_node`.
    node: u32,
    has_node: bool,
    state: SpanState,
    /// Index into `SpanLog::causes`.
    cause: u16,
}

impl SpanLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event in recording order, as owned events.
    pub fn iter(&self) -> impl Iterator<Item = SpanEvent> + '_ {
        let mut jobs = self.jobs.iter().peekable();
        (0u64..)
            .zip(self.records.iter())
            .map(move |(i, r)| SpanEvent {
                at: r.at,
                migration: r.migration,
                block: r.block,
                bytes: r.bytes,
                state: r.state,
                node: r.has_node.then_some(r.node),
                cause: self.causes[usize::from(r.cause)],
                job: jobs.next_if(|&&(at, _)| at == i).map(|&(_, job)| job),
            })
    }
}

/// Recording: only the live handle (and the unit tests) write a log.
#[cfg(any(feature = "enabled", test))]
impl SpanLog {
    /// Append one event.
    pub(crate) fn push(&mut self, ev: &SpanEvent) {
        if let Some(job) = ev.job {
            self.jobs.push((self.records.len() as u64, job));
        }
        let cause = self.cause_index(ev.cause);
        self.records.push(SpanRecord {
            at: ev.at,
            migration: ev.migration,
            block: ev.block,
            bytes: ev.bytes,
            node: ev.node.unwrap_or(0),
            has_node: ev.node.is_some(),
            state: ev.state,
            cause,
        });
    }

    /// `cause`'s index in the table, added on first sight. Causes are
    /// program constants, so they are told apart by address: a lookup
    /// compares pointers, never text. (Two constants with the same text
    /// get two entries, which export the same.)
    fn cause_index(&mut self, cause: &'static str) -> u16 {
        let i = match self.causes.iter().position(|&c| std::ptr::eq(c, cause)) {
            Some(i) => i,
            None => {
                self.causes.push(cause);
                self.causes.len() - 1
            }
        };
        u16::try_from(i).expect("under 2^16 distinct causes")
    }
}

/// Algorithm 1 decision provenance, stored by column: a header per
/// retarget pass that recorded anything, a row per scored entry, each
/// row's scores, and each migration's constants. Recording appends and
/// allocates nothing per record; [`ProvenanceLog::iter`] rebuilds the
/// owned [`ProvenanceRecord`]s.
///
/// What never changes for a migration id (its block, size, and replica
/// nodes in rank order) is stored once, in a per-migration table: an
/// entry is written the first time a push names the id, and again only
/// when a push brings different values. A record keeps only what the
/// pass decided: an 8-byte row (a reference to those constants and the
/// winner) and one 8-byte score per replica rank (∞ for a non-candidate),
/// which follow the previous row's scores. Iteration rebuilds the
/// candidates: the ranks with a finite score, ordered by `(node, rank)`.
///
/// Every column is paged, so the log grows a page at a time and never
/// moves what it holds.
///
/// The recorder streams a pass's records in as the scheduler scores them
/// ([`ObsHandle::provenance_push`](crate::ObsHandle::provenance_push)).
/// They stay *staged* — invisible to [`len`](Self::len), iteration and the
/// exports — until [`ObsHandle::retarget_pass`](crate::ObsHandle::retarget_pass)
/// stamps them as one pass.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    passes: Vec<PassHeader>,
    rows: Pages<Row>,
    /// One score per replica rank of each row, row after row.
    scores: Pages<f64>,
    /// Per-migration constants; rows reference them by index.
    consts: Pages<Consts>,
    /// The replica nodes of every `consts` entry, in rank order.
    replicas: Pages<NodeId>,
    /// Each migration id's latest `consts` entry (only a recording build
    /// writes a log).
    #[cfg(any(feature = "enabled", test))]
    latest: IdPages<Option<u32>>,
    /// Rows from this index on are staged for the pass in progress.
    staged: usize,
}

/// What every record of one pass shares.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassHeader {
    pub(crate) at: SimTime,
    pub(crate) pass: u64,
    pub(crate) rescored: u64,
    pub(crate) skipped: u64,
    /// Index of the pass's first row.
    first: usize,
}

/// One scored entry. Its scores, one per replica of its constants,
/// follow the previous row's.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Index of the migration's constants in `ProvenanceLog::consts`.
    consts: u32,
    /// The winner's node plus one, or 0 for no winner.
    winner: u32,
}

impl Row {
    fn winner(self) -> Option<u32> {
        self.winner.checked_sub(1)
    }
}

/// One migration's constants.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Consts {
    pub(crate) migration: u64,
    pub(crate) block: u64,
    pub(crate) bytes: u64,
    /// Where the replica nodes start, and how many there are.
    replicas: Loc,
    count: u32,
}

/// One stamped record as stored, borrowed from the log.
pub(crate) struct RecordRef<'a> {
    pub(crate) pass: &'a PassHeader,
    pub(crate) consts: &'a Consts,
    pub(crate) winner: Option<u32>,
    replicas: &'a [NodeId],
    scores: &'a [f64],
}

impl RecordRef<'_> {
    /// Fill `out` with the candidates: every replica rank with a finite
    /// score, ordered by `(node, rank)`.
    pub(crate) fn candidates(&self, out: &mut Vec<CandidateScore>) {
        out.clear();
        let ranked = self.replicas.iter().zip(self.scores).zip(0u32..);
        out.extend(ranked.filter(|((_, score), _)| score.is_finite()).map(
            |((node, &score), rank)| CandidateScore {
                node: node.0,
                rank,
                est_finish_secs: score,
            },
        ));
        out.sort_unstable_by_key(|c| (c.node, c.rank));
    }
}

impl ProvenanceLog {
    /// Number of records in stamped passes.
    pub fn len(&self) -> usize {
        self.staged
    }

    /// Whether no pass has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.staged == 0
    }

    /// Every stamped record in recording order, as owned records.
    pub fn iter(&self) -> impl Iterator<Item = ProvenanceRecord> + '_ {
        self.records().map(|r| {
            let mut candidates = Vec::new();
            r.candidates(&mut candidates);
            ProvenanceRecord {
                at: r.pass.at,
                pass: r.pass.pass,
                migration: r.consts.migration,
                block: r.consts.block,
                bytes: r.consts.bytes,
                candidates,
                winner: r.winner,
                rescored: r.pass.rescored,
                skipped: r.pass.skipped,
            }
        })
    }

    /// Every stamped record in recording order, without copying.
    pub(crate) fn records(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        let mut pass = 0;
        let mut scores: Loc = (0, 0);
        (0..self.staged).map(move |i| {
            while self.passes.get(pass + 1).is_some_and(|p| p.first <= i) {
                pass += 1;
            }
            let row = self.rows.get(i).expect("stamped rows are stored");
            let consts = self
                .consts
                .get(row.consts as usize)
                .expect("rows reference stored constants");
            let n = consts.count as usize;
            RecordRef {
                pass: &self.passes[pass],
                consts,
                winner: row.winner(),
                replicas: self.replicas.slice(consts.replicas, n),
                scores: self.scores.next_slice(&mut scores, n),
            }
        })
    }
}

/// Recording: only the live handle (and the unit tests) write a log.
#[cfg(any(feature = "enabled", test))]
impl ProvenanceLog {
    /// Stage one scored entry: its replica nodes in rank order, one score
    /// per rank (non-finite for a non-candidate), and the chosen node.
    pub(crate) fn push(
        &mut self,
        migration: u64,
        block: u64,
        bytes: u64,
        winner: Option<u32>,
        replicas: &[NodeId],
        scores: &[f64],
    ) {
        assert_eq!(replicas.len(), scores.len(), "one score per replica rank");
        let consts = self.constants(migration, block, bytes, replicas);
        self.scores.push_slice(scores);
        let winner = winner.map_or(0, |w| w.checked_add(1).expect("winner below u32::MAX"));
        self.rows.push(Row { consts, winner });
    }

    /// The index of `migration`'s constants: its latest entry if the
    /// values match, else a new entry.
    fn constants(&mut self, migration: u64, block: u64, bytes: u64, replicas: &[NodeId]) -> u32 {
        let latest = self.latest.get_mut(migration);
        if let Some(i) = *latest {
            let c = self
                .consts
                .get(i as usize)
                .expect("latest entries are stored");
            let same = (c.block, c.bytes) == (block, bytes)
                && self.replicas.slice(c.replicas, c.count as usize) == replicas;
            if same {
                return i;
            }
        }
        let i = u32::try_from(self.consts.len()).expect("under 2^32 constant entries");
        self.consts.push(Consts {
            migration,
            block,
            bytes,
            replicas: self.replicas.push_slice(replicas),
            count: u32::try_from(replicas.len()).expect("under 2^32 replicas"),
        });
        *latest = Some(i);
        i
    }

    /// Stamp the staged records as one pass (a pass that staged nothing
    /// leaves no header).
    pub(crate) fn stamp(&mut self, at: SimTime, pass: u64, rescored: u64, skipped: u64) {
        let end = self.rows.len();
        if end > self.staged {
            self.passes.push(PassHeader {
                at,
                pass,
                rescored,
                skipped,
                first: self.staged,
            });
            self.staged = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PAGE;
    use crate::span::cause;

    fn ev(mig: u64, state: SpanState) -> SpanEvent {
        SpanEvent {
            at: SimTime::from_secs(1),
            migration: mig,
            block: mig,
            bytes: 64,
            state,
            node: None,
            cause: cause::REQUESTED,
            job: None,
        }
    }

    #[test]
    fn spans_group_by_migration_in_order() {
        let mut r = ObsReport::default();
        r.events.push(&ev(1, SpanState::Pending));
        r.events.push(&ev(2, SpanState::Pending));
        r.events.push(&ev(1, SpanState::Targeted));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let one = &spans[&1];
        assert_eq!(one.len(), 2);
        assert_eq!(one[0].state, SpanState::Pending);
        assert_eq!(one[1].state, SpanState::Targeted);
    }

    #[test]
    fn lookups_on_empty_report() {
        let r = ObsReport::default();
        assert_eq!(r.counter("span.finished"), 0);
        assert!(r.gauge("node.buffer_bytes", 0).is_none());
        assert!(r.histogram("migration.duration_secs").is_none());
    }

    #[test]
    fn stored_record_sizes_match_the_docs() {
        // docs/OBSERVABILITY.md "Recording cost": a span event is 40
        // bytes, a provenance record an 8-byte row plus 8 per replica (32
        // for three replicas), and a migration's constants 40 bytes plus
        // 4 per replica, once per id.
        assert_eq!(std::mem::size_of::<SpanRecord>(), 40);
        assert_eq!(std::mem::size_of::<Row>(), 8);
        assert_eq!(std::mem::size_of::<Consts>(), 40);
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert!(std::mem::size_of::<Row>() + 3 * std::mem::size_of::<f64>() <= 56);
    }

    #[test]
    fn span_log_gives_back_what_it_was_fed() {
        let mut log = SpanLog::default();
        let mut want = Vec::new();
        for i in 0..(2 * PAGE as u64 + 7) {
            let e = SpanEvent {
                at: SimTime::from_micros(i * 3),
                migration: i / 3,
                block: i * 5,
                bytes: i << 20,
                state: SpanState::ALL[(i % 7) as usize],
                node: (i % 4 != 0).then_some((i % 9) as u32),
                cause: [cause::RETARGET, cause::PRESSURE, "elsewhere"][(i % 3) as usize],
                job: (i % 5 == 0).then_some(i),
            };
            log.push(&e);
            want.push(e);
        }
        assert_eq!(log.len(), want.len());
        for (i, (got, want)) in log.iter().zip(&want).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "event {i}");
        }
        assert_eq!(log.iter().count(), want.len());
    }

    #[test]
    fn provenance_log_pages_keep_records_whole() {
        // Records with 0–3 replicas (some not candidates), several pages
        // of rows and scores, and passes that end mid-page: iteration must
        // give back exactly the stamped records.
        let mut log = ProvenanceLog::default();
        let mut want: Vec<ProvenanceRecord> = Vec::new();
        let mut staged: Vec<ProvenanceRecord> = Vec::new();
        let stage = |log: &mut ProvenanceLog, i: u64, keep: &mut Vec<ProvenanceRecord>| {
            let replicas: Vec<NodeId> = (0..(i % 4) as u32)
                .map(|rank| NodeId((i as u32 + 2 * rank) % 7))
                .collect();
            let scores: Vec<f64> = (0..replicas.len() as u32)
                .map(|rank| {
                    if (i + u64::from(rank)) % 5 == 0 {
                        f64::INFINITY
                    } else {
                        i as f64 + f64::from(rank)
                    }
                })
                .collect();
            let mut sorted: Vec<CandidateScore> = (0u32..)
                .zip(replicas.iter().zip(&scores))
                .filter(|(_, (_, s))| s.is_finite())
                .map(|(rank, (n, &s))| CandidateScore {
                    node: n.0,
                    rank,
                    est_finish_secs: s,
                })
                .collect();
            sorted.sort_by_key(|c| (c.node, c.rank));
            let winner = sorted.first().map(|c| c.node);
            keep.push(ProvenanceRecord {
                at: SimTime::ZERO,
                pass: 0,
                migration: i,
                block: i / 2,
                bytes: i * 3,
                candidates: sorted,
                winner,
                rescored: 0,
                skipped: 0,
            });
            log.push(i, i / 2, i * 3, winner, &replicas, &scores);
        };
        for (pass, batch) in (0u64..).zip([1000u64, 3000, 5000, 0, 2500]) {
            let first = want.len() as u64;
            for i in first..first + batch {
                stage(&mut log, i, &mut staged);
            }
            let (at, rescored) = (SimTime::from_secs(pass), staged.len() as u64);
            log.stamp(at, pass, rescored, 1);
            for mut rec in staged.drain(..) {
                (rec.at, rec.pass, rec.rescored, rec.skipped) = (at, pass, rescored, 1);
                want.push(rec);
            }
        }
        assert_eq!(log.len(), want.len());
        assert_eq!(log.iter().count(), want.len());
        for (i, (got, want)) in log.iter().zip(&want).enumerate() {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "record {i}");
        }
    }
}
