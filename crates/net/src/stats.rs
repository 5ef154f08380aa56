//! Admin-plane client helpers: scrape a running daemon for a
//! [`StatsSnapshot`] or a [`FlightRecord`] over any [`Transport`], and
//! render the results as JSON, Prometheus-style text exposition, or the
//! `dyrs-node watch` backlog/health table.
//!
//! The scrape functions are transport-generic so the same code path
//! serves the CLI over TCP, the loopback tests, and anything embedding
//! a transport. Rendering is written record by record in the same style
//! as `dyrs-obs`'s JSONL export, with `simkit::json`'s rules: every string
//! is escaped (Prometheus label values share the JSON escape), and every
//! float is written `null` when it is not finite, so no rendering is
//! invalid JSON.

use crate::proto::{Message, StatsScope};
use crate::transport::{Peer, Transport, TransportError};
use dyrs_obs::{FlightRecord, StatsSnapshot};
use simkit::json::{escape, number};
use std::fmt::Write as _;
use std::time::Duration;

/// How many reply frames a scrape is willing to skip past (unrelated
/// in-flight traffic) before giving up on matching its request.
const SCRAPE_SKIP_BUDGET: u32 = 256;

/// One labelled scrape result, as rendered by the CLI.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// Where the snapshot came from (`master`, `slave-0`, ...).
    pub label: String,
    /// The snapshot itself.
    pub snapshot: StatsSnapshot,
}

/// Request `scope` from `to` and wait for the matching [`Message::StatsReply`].
///
/// Unrelated frames that arrive first (e.g. another client's replies on
/// a shared loopback endpoint) are skipped, up to a fixed budget. Errors
/// are [`TransportError::Timeout`] if the peer never answers within
/// `timeout` per attempt.
pub fn scrape_stats<T: Transport>(
    transport: &T,
    to: Peer,
    scope: StatsScope,
    timeout: Duration,
) -> Result<StatsSnapshot, TransportError> {
    transport.send(to, &Message::StatsRequest { scope })?;
    for _ in 0..SCRAPE_SKIP_BUDGET {
        if let (
            _,
            Message::StatsReply {
                scope: got,
                snapshot,
            },
        ) = transport.recv_timeout(timeout)?
        {
            if got == scope {
                return Ok(snapshot);
            }
        }
    }
    Err(TransportError::Timeout)
}

/// Request a flight-recorder dump (`scope` must be a `*Flight` scope)
/// and wait for the matching [`Message::FlightDump`].
pub fn scrape_flight<T: Transport>(
    transport: &T,
    to: Peer,
    scope: StatsScope,
    timeout: Duration,
) -> Result<FlightRecord, TransportError> {
    transport.send(to, &Message::StatsRequest { scope })?;
    for _ in 0..SCRAPE_SKIP_BUDGET {
        if let (_, Message::FlightDump { scope: got, record }) = transport.recv_timeout(timeout)? {
            if got == scope {
                return Ok(record);
            }
        }
    }
    Err(TransportError::Timeout)
}

/// Render scrapes as a JSON array, one object per daemon.
pub fn render_json(scrapes: &[Scrape]) -> String {
    let mut out = String::from("[");
    for (i, s) in scrapes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let snap = &s.snapshot;
        let _ = write!(
            out,
            "{{\"daemon\":\"{}\",\"at_us\":{},\"enabled\":{},",
            escape(&s.label),
            snap.at.as_micros(),
            snap.enabled
        );
        out.push_str("\"counters\":{");
        for (j, (name, v)) in snap.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", escape(name));
        }
        out.push_str("},\"gauges\":[");
        for (j, g) in snap.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"key\":{},\"value\":{},\"at_us\":{}}}",
                escape(&g.name),
                g.key,
                number(g.value),
                g.at.as_micros()
            );
        }
        out.push_str("],\"open_spans\":{");
        for (j, (state, n)) in snap.open_spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{n}", escape(state));
        }
        out.push_str("},\"top_winners\":[");
        for (j, (node, won)) in snap.top_winners.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"node\":{node},\"won\":{won}}}");
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// Render scrapes in Prometheus text exposition style: one
/// `dyrs_counter`/`dyrs_gauge`/`dyrs_open_spans`/`dyrs_top_winner`
/// sample per line, labelled by daemon.
pub fn render_prometheus(scrapes: &[Scrape]) -> String {
    let mut out = String::new();
    for s in scrapes {
        let d = escape(&s.label);
        let snap = &s.snapshot;
        let _ = writeln!(
            out,
            "dyrs_snapshot_at_us{{daemon=\"{d}\"}} {}",
            snap.at.as_micros()
        );
        for (name, v) in &snap.counters {
            let _ = writeln!(
                out,
                "dyrs_counter{{daemon=\"{d}\",name=\"{}\"}} {v}",
                escape(name)
            );
        }
        for g in &snap.gauges {
            let _ = writeln!(
                out,
                "dyrs_gauge{{daemon=\"{d}\",name=\"{}\",key=\"{}\"}} {}",
                escape(&g.name),
                g.key,
                number(g.value)
            );
        }
        for (state, n) in &snap.open_spans {
            let _ = writeln!(
                out,
                "dyrs_open_spans{{daemon=\"{d}\",state=\"{}\"}} {n}",
                escape(state)
            );
        }
        for (node, won) in &snap.top_winners {
            let _ = writeln!(
                out,
                "dyrs_top_winner{{daemon=\"{d}\",node=\"{node}\"}} {won}"
            );
        }
    }
    out
}

/// Render the `dyrs-node watch` backlog/health table: one row per
/// daemon with the scheduler backlog, open-span census, terminal
/// counters, the bytes parked in middle buffer tiers (demoted copies,
/// from the `tier.occupancy_bytes` gauges), and the worst node-health
/// gauge the daemon reports.
pub fn render_watch_table(scrapes: &[Scrape]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}  health",
        "daemon", "pending", "open", "started", "finished", "aborted", "evicted", "tiered-mb"
    );
    for s in scrapes {
        let snap = &s.snapshot;
        let pending = snap
            .gauge("sched.pending_depth", 0)
            .map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"));
        // Middle-tier occupancy: gauge keys encode (node << 8) | tier, so
        // tier 0 (memory, already covered by buffer gauges) is excluded.
        let mut tiered: Option<f64> = None;
        for g in &snap.gauges {
            if &*g.name == "tier.occupancy_bytes" && (g.key & 0xff) >= 1 {
                *tiered.get_or_insert(0.0) += g.value;
            }
        }
        let tiered = tiered.map_or_else(
            || "-".to_owned(),
            |b| format!("{:.0}", b / (1u64 << 20) as f64),
        );
        let health = {
            let mut worst: Option<(u64, f64)> = None;
            for g in &snap.gauges {
                if &*g.name == "node.health" && worst.is_none_or(|(_, w)| g.value > w) {
                    worst = Some((g.key, g.value));
                }
            }
            match worst {
                None => "-".to_owned(),
                Some((node, v)) => {
                    let name = match v as u32 {
                        0 => "healthy",
                        1 => "suspect",
                        2 => "probation",
                        3 => "quarantined",
                        4 => "joining",
                        _ => "draining",
                    };
                    if v == 0.0 {
                        "all-healthy".to_owned()
                    } else {
                        format!("node {node}: {name}")
                    }
                }
            }
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>6} {:>9} {:>9} {:>8} {:>8} {:>9}  {}",
            s.label,
            pending,
            snap.open_total(),
            snap.counter("span.started"),
            snap.counter("span.finished"),
            snap.counter("span.aborted"),
            snap.counter("span.evicted"),
            tiered,
            health
        );
    }
    out
}

/// Render a flight record as human-readable lines (one per entry).
pub fn render_flight(record: &FlightRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight dump: reason={} node={} at_us={} dropped={} entries={}",
        record.reason,
        record
            .node
            .map_or_else(|| "-".to_owned(), |n| n.to_string()),
        record.at.as_micros(),
        record.dropped,
        record.entries.len()
    );
    for e in &record.entries {
        let _ = writeln!(
            out,
            "  [{:>12}us] mig={} block={} state={} node={} cause={}",
            e.at.as_micros(),
            e.migration,
            e.block,
            e.state,
            e.node.map_or_else(|| "-".to_owned(), |n| n.to_string()),
            e.cause
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyrs_obs::{FlightEntry, GaugeSample};
    use simkit::SimTime;

    fn sample() -> Scrape {
        Scrape {
            label: "master".into(),
            snapshot: StatsSnapshot {
                at: SimTime::from_secs(2),
                enabled: true,
                counters: vec![("span.finished".into(), 3)],
                gauges: vec![
                    GaugeSample {
                        name: "sched.pending_depth".into(),
                        key: 0,
                        value: 6.0,
                        at: SimTime::from_secs(2),
                    },
                    GaugeSample {
                        name: "node.health".into(),
                        key: 1,
                        value: 3.0,
                        at: SimTime::from_secs(2),
                    },
                    GaugeSample {
                        name: "tier.occupancy_bytes".into(),
                        key: (1 << 8) | 1, // node 1, tier 1
                        value: 3.0 * (1u64 << 20) as f64,
                        at: SimTime::from_secs(2),
                    },
                ],
                open_spans: vec![("pending".into(), 6)],
                top_winners: vec![(1, 4)],
            },
        }
    }

    #[test]
    fn json_rendering_is_wellformed_and_escaped() {
        let mut s = sample();
        s.label = "ma\"ster".into();
        s.snapshot.gauges[0].value = f64::NAN;
        s.snapshot.counters.push(("a\\b\nc\u{1}".into(), 1));
        let json = render_json(std::slice::from_ref(&s));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"daemon\":\"ma\\\"ster\""));
        assert!(json.contains("\"value\":null"));
        assert!(json.contains("\"span.finished\":3"));
        assert!(json.contains("{\"node\":1,\"won\":4}"));
        assert_eq!(
            json,
            concat!(
                r#"[{"daemon":"ma\"ster","at_us":2000000,"enabled":true,"#,
                r#""counters":{"span.finished":3,"a\\b\nc\u0001":1},"gauges":["#,
                r#"{"name":"sched.pending_depth","key":0,"value":null,"at_us":2000000},"#,
                r#"{"name":"node.health","key":1,"value":3,"at_us":2000000},"#,
                r#"{"name":"tier.occupancy_bytes","key":257,"value":3145728,"at_us":2000000}],"#,
                r#""open_spans":{"pending":6},"top_winners":[{"node":1,"won":4}]}]"#,
            )
        );
        assert_eq!(
            render_prometheus(&[s]),
            concat!(
                "dyrs_snapshot_at_us{daemon=\"ma\\\"ster\"} 2000000\n",
                "dyrs_counter{daemon=\"ma\\\"ster\",name=\"span.finished\"} 3\n",
                "dyrs_counter{daemon=\"ma\\\"ster\",name=\"a\\\\b\\nc\\u0001\"} 1\n",
                "dyrs_gauge{daemon=\"ma\\\"ster\",name=\"sched.pending_depth\",key=\"0\"} null\n",
                "dyrs_gauge{daemon=\"ma\\\"ster\",name=\"node.health\",key=\"1\"} 3\n",
                "dyrs_gauge{daemon=\"ma\\\"ster\",name=\"tier.occupancy_bytes\",key=\"257\"} 3145728\n",
                "dyrs_open_spans{daemon=\"ma\\\"ster\",state=\"pending\"} 6\n",
                "dyrs_top_winner{daemon=\"ma\\\"ster\",node=\"1\"} 4\n",
            )
        );
    }

    /// Byte pins for the plain sample: the JSON and Prometheus renderings
    /// `dyrs-node stat` prints must not move when their helpers do.
    #[test]
    fn renderings_are_byte_pinned() {
        assert_eq!(
            render_json(&[sample()]),
            concat!(
                r#"[{"daemon":"master","at_us":2000000,"enabled":true,"#,
                r#""counters":{"span.finished":3},"gauges":["#,
                r#"{"name":"sched.pending_depth","key":0,"value":6,"at_us":2000000},"#,
                r#"{"name":"node.health","key":1,"value":3,"at_us":2000000},"#,
                r#"{"name":"tier.occupancy_bytes","key":257,"value":3145728,"at_us":2000000}],"#,
                r#""open_spans":{"pending":6},"top_winners":[{"node":1,"won":4}]}]"#,
            )
        );
        assert_eq!(
            render_prometheus(&[sample()]),
            concat!(
                "dyrs_snapshot_at_us{daemon=\"master\"} 2000000\n",
                "dyrs_counter{daemon=\"master\",name=\"span.finished\"} 3\n",
                "dyrs_gauge{daemon=\"master\",name=\"sched.pending_depth\",key=\"0\"} 6\n",
                "dyrs_gauge{daemon=\"master\",name=\"node.health\",key=\"1\"} 3\n",
                "dyrs_gauge{daemon=\"master\",name=\"tier.occupancy_bytes\",key=\"257\"} 3145728\n",
                "dyrs_open_spans{daemon=\"master\",state=\"pending\"} 6\n",
                "dyrs_top_winner{daemon=\"master\",node=\"1\"} 4\n",
            )
        );
    }

    #[test]
    fn prometheus_rendering_has_one_sample_per_line() {
        let text = render_prometheus(&[sample()]);
        assert!(text.contains("dyrs_counter{daemon=\"master\",name=\"span.finished\"} 3"));
        assert!(
            text.contains("dyrs_gauge{daemon=\"master\",name=\"sched.pending_depth\",key=\"0\"} 6")
        );
        assert!(text.contains("dyrs_open_spans{daemon=\"master\",state=\"pending\"} 6"));
        assert!(text.contains("dyrs_top_winner{daemon=\"master\",node=\"1\"} 4"));
    }

    #[test]
    fn watch_table_summarizes_backlog_and_health() {
        let table = render_watch_table(&[sample()]);
        assert!(table.contains("daemon"));
        assert!(table.contains("master"));
        assert!(table.contains('6'), "pending depth rendered");
        assert!(table.contains("node 1: quarantined"));
        assert!(table.contains("tiered-mb"), "tier column present");
        assert!(table.contains(" 3  "), "3 MB demoted rendered");
    }

    #[test]
    fn watch_table_dashes_tier_column_without_tier_gauges() {
        let mut s = sample();
        s.snapshot
            .gauges
            .retain(|g| &*g.name != "tier.occupancy_bytes");
        let table = render_watch_table(&[s]);
        assert!(table.contains(" -  "), "legacy snapshots show a dash");
    }

    #[test]
    fn flight_rendering_names_the_node() {
        let rec = FlightRecord {
            reason: "node-quarantined".into(),
            node: Some(2),
            at: SimTime::from_secs(9),
            dropped: 1,
            entries: vec![FlightEntry {
                at: SimTime::from_secs(8),
                migration: 5,
                block: 7,
                state: "mark".into(),
                node: Some(2),
                cause: "node-quarantined".into(),
            }],
        };
        let text = render_flight(&rec);
        assert!(text.contains("reason=node-quarantined node=2"));
        assert!(text.contains("mig=5 block=7 state=mark node=2 cause=node-quarantined"));
    }
}
