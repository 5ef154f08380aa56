//! Live telemetry snapshots and the crash flight recorder (admin plane).
//!
//! A [`StatsSnapshot`] is a cheap point-in-time view of a live recorder:
//! monotone counters, the *latest* sample of every gauge series, a census
//! of open (non-terminal) migration spans, and a top-N roll-up of
//! Algorithm 1 provenance winners. Producing one never closes spans and
//! never mutates the recorder, so a scrape is invisible to the event trace
//! — same-seed runs with and without interleaved scrapes export
//! byte-identical traces (pinned in `tests/determinism.rs`).
//!
//! The **flight recorder** is a bounded ring of the most recent span
//! transitions (plus out-of-band markers such as a node quarantine). It
//! can be dumped on demand over the wire, and the daemons dump it
//! automatically when a node is quarantined or a protocol violation
//! fires, yielding a [`FlightRecord`] that names the culprit and carries
//! the last [`FLIGHT_CAPACITY`] transitions leading up to the event.
//!
//! Unlike the recording handle, everything here is plain owned data
//! (`String` or `Arc<str>`, not `&'static str`) so the types can cross
//! the wire via `dyrs-net` and outlive the recorder that produced them.

use simkit::SimTime;
use std::sync::Arc;

/// How many recent span transitions the flight recorder retains. Old
/// entries are dropped (and counted in [`FlightRecord::dropped`]) once
/// the ring is full.
pub const FLIGHT_CAPACITY: usize = 256;

/// How many provenance winners [`StatsSnapshot::top_winners`] reports.
pub const TOP_WINNERS: usize = 8;

/// How many automatic flight dumps a recorder retains before dropping
/// the oldest — enough to cover a quarantine storm without unbounded
/// growth in a long-running daemon.
pub const MAX_AUTO_DUMPS: usize = 8;

/// The latest sample of one gauge series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSample {
    /// Metric name, e.g. `sched.pending_depth`. Shared: a snapshot
    /// allocates each name once, and every sample of that name (one per
    /// node, tier or job) points at it.
    pub name: Arc<str>,
    /// Entity key (node index for `node.*`/`detector.*`, job id for
    /// `job.*`, 0 for scalar gauges).
    pub key: u64,
    /// Most recent recorded value.
    pub value: f64,
    /// Simulated time of that sample.
    pub at: SimTime,
}

/// Point-in-time view of a live recorder: counter totals, the latest
/// sample of every gauge series, the open-span census and the top
/// provenance winners. Producing one never mutates the recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Recorder clock at scrape time.
    pub at: SimTime,
    /// Whether the scraped handle was actually recording. `false` means
    /// the daemon ran with observability off and everything below is
    /// empty.
    pub enabled: bool,
    /// Every monotone counter with its current value, in name order.
    pub counters: Vec<(String, u64)>,
    /// The latest sample of every gauge series, in (name, key) order.
    pub gauges: Vec<GaugeSample>,
    /// Census of open (non-terminal) migration spans: state name →
    /// how many spans currently sit in that state.
    pub open_spans: Vec<(String, u64)>,
    /// Top-N Algorithm 1 winners as (node, times chosen), most-chosen
    /// first (node index breaks ties), capped at [`TOP_WINNERS`].
    pub top_winners: Vec<(u32, u64)>,
}

impl StatsSnapshot {
    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Latest value of the gauge `(name, key)`, if ever sampled.
    pub fn gauge(&self, name: &str, key: u64) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| &*g.name == name && g.key == key)
            .map(|g| g.value)
    }

    /// Total number of open (non-terminal) spans.
    pub fn open_total(&self) -> u64 {
        self.open_spans.iter().map(|(_, c)| *c).sum()
    }
}

/// One entry in the flight recorder ring: a span transition, or an
/// out-of-band marker (migration 0 / block 0) such as a quarantine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightEntry {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// Migration id (0 for out-of-band markers).
    pub migration: u64,
    /// Block id (0 for out-of-band markers).
    pub block: u64,
    /// Span state name (`pending`, `bound`, ...) or marker kind
    /// (`mark`).
    pub state: String,
    /// Node involved, when one is.
    pub node: Option<u32>,
    /// Transition cause, from the `cause` catalog (or the marker
    /// reason).
    pub cause: String,
}

/// A dump of the flight recorder: the last [`FLIGHT_CAPACITY`] span
/// transitions leading up to `at`, stamped with why the dump happened
/// and which node (if any) triggered it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecord {
    /// Why the dump was taken (`on-demand`, `node-quarantined`,
    /// `protocol-violation`, ...).
    pub reason: String,
    /// The node the dump is about, when one is (e.g. the quarantined
    /// node).
    pub node: Option<u32>,
    /// Recorder clock at dump time.
    pub at: SimTime,
    /// How many older transitions had already fallen out of the ring.
    pub dropped: u64,
    /// The retained transitions, oldest first.
    pub entries: Vec<FlightEntry>,
}

impl FlightRecord {
    /// Entries naming `node`, oldest first — the per-node slice of the
    /// story the dump tells.
    pub fn entries_for(&self, node: u32) -> impl Iterator<Item = &FlightEntry> {
        self.entries.iter().filter(move |e| e.node == Some(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lookups() {
        let snap = StatsSnapshot {
            at: SimTime::from_secs(3),
            enabled: true,
            counters: vec![("span.finished".into(), 4)],
            gauges: vec![GaugeSample {
                name: "sched.pending_depth".into(),
                key: 0,
                value: 6.0,
                at: SimTime::from_secs(3),
            }],
            open_spans: vec![("bound".into(), 2), ("pending".into(), 1)],
            top_winners: vec![(1, 9)],
        };
        assert_eq!(snap.counter("span.finished"), 4);
        assert_eq!(snap.counter("span.aborted"), 0);
        assert_eq!(snap.gauge("sched.pending_depth", 0), Some(6.0));
        assert_eq!(snap.gauge("sched.pending_depth", 1), None);
        assert_eq!(snap.open_total(), 3);
    }

    #[test]
    fn flight_record_filters_by_node() {
        let entry = |node| FlightEntry {
            node,
            ..FlightEntry::default()
        };
        let rec = FlightRecord {
            entries: vec![entry(Some(1)), entry(None), entry(Some(2)), entry(Some(1))],
            ..FlightRecord::default()
        };
        assert_eq!(rec.entries_for(1).count(), 2);
        assert_eq!(rec.entries_for(3).count(), 0);
    }
}
