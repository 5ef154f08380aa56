//! The collected observability data for one simulation run.

use crate::span::{CandidateScore, ProvenanceRecord, SpanEvent};
use simkit::stats::{Histogram, TimeSeries};
use simkit::SimTime;
use std::collections::BTreeMap;

/// Everything recorded during one run: lifecycle span events, the metrics
/// registry (counters / per-key gauge series / histograms), and Algorithm 1
/// decision provenance.
///
/// This is plain owned data — unlike the recording handle it is `Send`, so
/// sweep runners can move it across threads with the rest of `SimResult`.
/// All containers iterate deterministically (`Vec` in recording order,
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
    pub events: Vec<SpanEvent>,
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
    pub fn spans(&self) -> BTreeMap<u64, Vec<&SpanEvent>> {
        let mut out: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        for ev in &self.events {
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

/// Algorithm 1 decision provenance, stored by column: a header per
/// retarget pass that recorded anything, a row per scored entry, and the
/// candidate scores of every row. Recording appends and allocates nothing
/// per record; [`ProvenanceLog::iter`] rebuilds the owned
/// [`ProvenanceRecord`]s.
///
/// Rows and candidates live in pages of 4096 items, so the log grows a
/// page at a time and never moves what it holds. (A doubling
/// `Vec` copies the whole log on each growth and leaves its old buffer
/// behind as a hole in the heap; at this volume the holes cost more
/// memory than the log itself.)
///
/// The recorder streams a pass's records in as the scheduler scores them
/// ([`ObsHandle::provenance_push`](crate::ObsHandle::provenance_push)).
/// They stay *staged* — invisible to [`len`](Self::len), iteration and the
/// exports — until [`ObsHandle::retarget_pass`](crate::ObsHandle::retarget_pass)
/// stamps them as one pass, or
/// [`ObsHandle::provenance_discard`](crate::ObsHandle::provenance_discard)
/// drops them.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    passes: Vec<PassHeader>,
    /// Every page but the last holds exactly `LOG_PAGE` rows, so row `i`
    /// is `rows[i / LOG_PAGE][i % LOG_PAGE]`.
    rows: Vec<Vec<Row>>,
    /// A record's candidates never straddle two pages.
    candidates: Vec<Vec<CandidateScore>>,
    /// Rows from this index on are staged for the pass in progress.
    staged: usize,
}

/// Rows, or candidate scores, per page of a [`ProvenanceLog`].
const LOG_PAGE: usize = 4096;

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

/// One scored entry. Its candidates start at `(page, offset)` and run to
/// the next row's start on the same page, or to the end of the page.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub(crate) migration: u64,
    pub(crate) block: u64,
    pub(crate) bytes: u64,
    pub(crate) winner: Option<u32>,
    first_candidate: (u32, u32),
}

/// One stamped record as stored, borrowed from the log.
pub(crate) struct RecordRef<'a> {
    pub(crate) pass: &'a PassHeader,
    pub(crate) row: &'a Row,
    pub(crate) candidates: &'a [CandidateScore],
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
        self.records().map(|r| ProvenanceRecord {
            at: r.pass.at,
            pass: r.pass.pass,
            migration: r.row.migration,
            block: r.row.block,
            bytes: r.row.bytes,
            candidates: r.candidates.to_vec(),
            winner: r.row.winner,
            rescored: r.pass.rescored,
            skipped: r.pass.skipped,
        })
    }

    /// Every stamped record in recording order, without copying.
    pub(crate) fn records(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        self.passes.iter().enumerate().flat_map(move |(k, pass)| {
            let end = self
                .passes
                .get(k + 1)
                .map_or(self.staged, |next| next.first);
            (pass.first..end).map(move |i| {
                let row = self.row(i).expect("stamped rows are stored");
                let (page, start) = row.first_candidate;
                let page_items = &self.candidates[page as usize];
                let end = self
                    .row(i + 1)
                    .filter(|next| next.first_candidate.0 == page)
                    .map_or(page_items.len(), |next| next.first_candidate.1 as usize);
                RecordRef {
                    pass,
                    row,
                    candidates: &page_items[start as usize..end],
                }
            })
        })
    }

    fn row(&self, i: usize) -> Option<&Row> {
        self.rows.get(i / LOG_PAGE)?.get(i % LOG_PAGE)
    }
}

/// Recording: only the live handle (and the export tests) write a log.
#[cfg(any(feature = "enabled", test))]
impl ProvenanceLog {
    /// Stage one scored entry, its candidates ordered by `(node, rank)`.
    pub(crate) fn push(
        &mut self,
        migration: u64,
        block: u64,
        bytes: u64,
        winner: Option<u32>,
        candidates: impl IntoIterator<Item = CandidateScore>,
    ) {
        let candidates = candidates.into_iter();
        let (low, high) = candidates.size_hint();
        let n = high.unwrap_or(low);
        if self
            .candidates
            .last()
            .is_none_or(|p| p.len() + n > LOG_PAGE)
        {
            self.candidates.push(Vec::with_capacity(LOG_PAGE.max(n)));
        }
        let page = self.candidates.len() - 1;
        let items = &mut self.candidates[page];
        let start = items.len();
        let first_candidate = (
            u32::try_from(page).expect("under 2^32 candidate pages"),
            u32::try_from(start).expect("under 2^32 candidates a page"),
        );
        items.extend(candidates);
        items[start..].sort_unstable_by_key(|c| (c.node, c.rank));
        if self.rows.last().is_none_or(|p| p.len() == LOG_PAGE) {
            self.rows.push(Vec::with_capacity(LOG_PAGE));
        }
        let row = Row {
            migration,
            block,
            bytes,
            winner,
            first_candidate,
        };
        self.rows.last_mut().expect("a page with room").push(row);
    }

    /// Stamp the staged records as one pass (a pass that staged nothing
    /// leaves no header).
    pub(crate) fn stamp(&mut self, at: SimTime, pass: u64, rescored: u64, skipped: u64) {
        let end =
            self.rows.len().saturating_sub(1) * LOG_PAGE + self.rows.last().map_or(0, Vec::len);
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

    /// Drop the staged records, handing each one's winner to `unwin`.
    pub(crate) fn discard_staged(&mut self, unwin: impl FnMut(u32)) {
        let Some(&first) = self.row(self.staged) else {
            return;
        };
        let staged = (self.staged..).map_while(|i| self.row(i));
        staged.filter_map(|r| r.winner).for_each(unwin);
        let (page, at) = first.first_candidate;
        self.candidates.truncate(page as usize + 1);
        self.candidates[page as usize].truncate(at as usize);
        self.rows.truncate(self.staged / LOG_PAGE + 1);
        if let Some(last) = self.rows.last_mut() {
            last.truncate(self.staged % LOG_PAGE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{cause, SpanState};

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
        r.events.push(ev(1, SpanState::Pending));
        r.events.push(ev(2, SpanState::Pending));
        r.events.push(ev(1, SpanState::Targeted));
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
    fn provenance_log_pages_keep_records_whole() {
        // Records with 0–3 candidates, several pages of rows and
        // candidates, passes that end mid-page, and a discarded batch
        // that straddles a page boundary: iteration must give back
        // exactly the stamped records.
        let mut log = ProvenanceLog::default();
        let mut want: Vec<ProvenanceRecord> = Vec::new();
        let mut staged: Vec<ProvenanceRecord> = Vec::new();
        let stage = |log: &mut ProvenanceLog, i: u64, keep: &mut Vec<ProvenanceRecord>| {
            let c: Vec<CandidateScore> = (0..(i % 4) as u32)
                .rev()
                .map(|rank| CandidateScore {
                    node: (i as u32 + 2 * rank) % 7,
                    rank,
                    est_finish_secs: i as f64 + f64::from(rank),
                })
                .collect();
            let mut sorted = c.clone();
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
            log.push(i, i / 2, i * 3, winner, c);
        };
        for (pass, batch) in (0u64..).zip([1000u64, 3000, 5000, 0, 2500]) {
            let first = want.len() as u64;
            for i in first..first + batch {
                stage(&mut log, i, &mut staged);
            }
            if pass == 2 {
                // An abandoned walk: its rows cross a page boundary.
                assert!(want.len() % LOG_PAGE + staged.len() > LOG_PAGE);
                log.discard_staged(|_| {});
                staged.clear();
                for i in first..first + 10 {
                    stage(&mut log, i, &mut staged);
                }
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
