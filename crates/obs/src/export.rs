//! Trace-file export: JSONL tables plus a Chrome `trace_event` file.
//!
//! Each record is written with `write!` in a fixed key order. Every
//! string that reaches an export is a controlled static identifier (state
//! names, cause constants, metric names), so nothing needs escaping, and
//! every `f64` goes through [`simkit::json::number`], which writes `null`
//! for a non-finite value. Output ordering follows the deterministic
//! container ordering of [`ObsReport`], so same-seed runs export
//! byte-identical files.

use crate::report::ObsReport;
use crate::span::SpanEvent;
use simkit::json;
use std::fmt::Write as _;
use std::path::Path;

fn push_span_json(out: &mut String, ev: &SpanEvent) {
    let _ = write!(
        out,
        "{{\"at_us\":{},\"migration\":{},\"block\":{},\"bytes\":{},\"state\":\"{}\",\"node\":{},\"cause\":\"{}\",\"job\":{}}}",
        ev.at.as_micros(),
        ev.migration,
        ev.block,
        ev.bytes,
        ev.state.name(),
        ev.node.map_or_else(|| "null".to_owned(), |n| n.to_string()),
        ev.cause,
        ev.job.map_or_else(|| "null".to_owned(), |j| j.to_string()),
    );
}

impl ObsReport {
    /// Span events as JSONL: one lifecycle transition per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            push_span_json(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// The metrics registry as JSONL: one counter, gauge series, or
    /// histogram per line, discriminated by a `"kind"` field.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        for ((name, key), ts) in &self.gauges {
            let _ = write!(
                out,
                "{{\"kind\":\"gauge\",\"name\":\"{name}\",\"key\":{key},\"points\":["
            );
            for (i, &(t, v)) in ts.points().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", t.as_micros(), json::number(v));
            }
            out.push_str("]}\n");
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{name}\",\"edges\":["
            );
            for (i, &e) in h.edges().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", json::number(e));
            }
            let _ = write!(out, "],\"underflow\":{},\"counts\":[", h.underflow());
            for i in 0..h.num_bins() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", h.bin_count(i));
            }
            let _ = writeln!(
                out,
                "],\"overflow\":{},\"total\":{}}}",
                h.overflow(),
                h.total()
            );
        }
        out
    }

    /// Algorithm 1 provenance as JSONL: one migration scoring per line.
    pub fn provenance_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.provenance.records() {
            let (pass, row) = (rec.pass, rec.row);
            let _ = write!(
                out,
                "{{\"at_us\":{},\"pass\":{},\"migration\":{},\"block\":{},\"bytes\":{},\"candidates\":[",
                pass.at.as_micros(),
                pass.pass,
                row.migration,
                row.block,
                row.bytes,
            );
            for (i, c) in rec.candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"node\":{},\"rank\":{},\"est_finish_secs\":{}}}",
                    c.node,
                    c.rank,
                    json::number(c.est_finish_secs),
                );
            }
            let _ = writeln!(
                out,
                "],\"winner\":{},\"rescored\":{},\"skipped\":{}}}",
                row.winner
                    .map_or_else(|| "null".to_owned(), |w| w.to_string()),
                pass.rescored,
                pass.skipped,
            );
        }
        out
    }

    /// A Chrome `trace_event` JSON document (the `{"traceEvents":[...]}`
    /// object form), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Each migration becomes an async span (`ph:"b"`/`"e"`, grouped by
    /// id); intermediate transitions are async instants (`ph:"n"`); gauges
    /// become counter tracks (`ph:"C"`). Timestamps are already in
    /// microseconds, the unit `trace_event` expects.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };

        let mut seen = std::collections::BTreeSet::new();
        for ev in &self.events {
            let opened = !seen.insert(ev.migration);
            let phases: &[&str] = match (opened, ev.state.is_terminal()) {
                (false, false) => &["b"],
                (false, true) => &["b", "e"], // degenerate single-event span
                (true, false) => &["n"],
                (true, true) => &["e"],
            };
            for ph in phases {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"{}\",\"cat\":\"migration\",\"name\":\"mig_{}\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"state\":\"{}\",\"cause\":\"{}\",\"block\":{},\"bytes\":{}}}}}",
                    ph,
                    ev.migration,
                    ev.migration,
                    ev.node.unwrap_or(0),
                    ev.at.as_micros(),
                    ev.state.name(),
                    ev.cause,
                    ev.block,
                    ev.bytes,
                );
            }
        }
        for ((name, key), ts) in &self.gauges {
            for &(t, v) in ts.points() {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"ph\":\"C\",\"name\":\"{}[{}]\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    name,
                    key,
                    key,
                    t.as_micros(),
                    json::number(v),
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Write all four export files into `dir` (created if missing):
    /// `spans.jsonl`, `metrics.jsonl`, `provenance.jsonl`, `trace.json`.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("spans.jsonl"), self.spans_jsonl())?;
        std::fs::write(dir.join("metrics.jsonl"), self.metrics_jsonl())?;
        std::fs::write(dir.join("provenance.jsonl"), self.provenance_jsonl())?;
        std::fs::write(dir.join("trace.json"), self.chrome_trace_json())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{cause, CandidateScore, SpanEvent, SpanState};
    use simkit::SimTime;

    fn sample_report() -> ObsReport {
        let mut r = ObsReport {
            enabled: true,
            ..Default::default()
        };
        r.events.push(SpanEvent {
            at: SimTime::from_secs(1),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Pending,
            node: None,
            cause: cause::REQUESTED,
            job: Some(1),
        });
        r.events.push(SpanEvent {
            at: SimTime::from_secs(2),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Bound,
            node: Some(2),
            cause: cause::HEARTBEAT_PULL,
            job: None,
        });
        r.events.push(SpanEvent {
            at: SimTime::from_secs(3),
            migration: 7,
            block: 3,
            bytes: 128,
            state: SpanState::Finished,
            node: Some(2),
            cause: cause::COMPLETED,
            job: None,
        });
        r.counters.insert("span.finished", 1);
        let mut ts = simkit::stats::TimeSeries::new();
        ts.record(SimTime::from_secs(1), 5.0);
        ts.record(SimTime::from_secs(2), 6.5);
        r.gauges.insert(("node.buffer_bytes", 2), ts);
        let mut h = simkit::stats::Histogram::linear(0.0, 10.0, 2);
        h.observe(1.0);
        r.histograms.insert("migration.duration_secs", h);
        r.provenance.push(
            7,
            3,
            128,
            Some(2),
            [
                CandidateScore {
                    node: 1,
                    rank: 1,
                    est_finish_secs: 2.0,
                },
                CandidateScore {
                    node: 2,
                    rank: 0,
                    est_finish_secs: 1.5,
                },
            ],
        );
        r.provenance.stamp(SimTime::from_secs(1), 0, 1, 3);
        r
    }

    #[test]
    fn spans_jsonl_shape() {
        let r = sample_report();
        let s = r.spans_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"state\":\"pending\""));
        assert!(lines[0].contains("\"node\":null"));
        assert!(lines[0].contains("\"job\":1"));
        assert!(lines[1].contains("\"cause\":\"heartbeat-pull\""));
        assert!(lines[2].contains("\"state\":\"finished\""));
    }

    #[test]
    fn metrics_jsonl_shape() {
        let r = sample_report();
        let s = r.metrics_jsonl();
        assert!(s.contains("{\"kind\":\"counter\",\"name\":\"span.finished\",\"value\":1}"));
        assert!(s.contains("\"kind\":\"gauge\",\"name\":\"node.buffer_bytes\",\"key\":2"));
        assert!(s.contains("[1000000,5],[2000000,6.5]"));
        assert!(s.contains("\"kind\":\"histogram\""));
        assert!(s.contains("\"counts\":[1,0]"));
    }

    #[test]
    fn provenance_jsonl_shape() {
        let r = sample_report();
        let s = r.provenance_jsonl();
        assert!(s.contains("\"winner\":2"));
        assert!(s.contains("{\"node\":2,\"rank\":0,\"est_finish_secs\":1.5}"));
        assert!(s.contains("\"rescored\":1,\"skipped\":3"));
    }

    #[test]
    fn chrome_trace_is_balanced_and_wrapped() {
        let r = sample_report();
        let s = r.chrome_trace_json();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert_eq!(s.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"e\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"n\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 2);
    }

    #[test]
    fn non_finite_gauge_values_render_null() {
        assert_eq!(json::number(f64::NAN).to_string(), "null");
        assert_eq!(json::number(f64::INFINITY).to_string(), "null");
        assert_eq!(json::number(1.25).to_string(), "1.25");
    }
}
