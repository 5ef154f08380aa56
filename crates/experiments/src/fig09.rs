//! Figure 9 — migration-time estimates under dynamic interference.
//!
//! Five interference patterns over a Sort job (paper §V-F2):
//!
//! * (a) node #1 persistently interfered,
//! * (b) node #1 alternating every 10 s,
//! * (c) node #1 alternating every 20 s,
//! * (d) nodes #1 and #2 alternating every 10 s, anti-phased,
//! * (e) nodes #1 and #2 alternating every 20 s, anti-phased.
//!
//! Claim: the slave's per-block migration-time estimate tracks the
//! interference closely — high while interference is on, recovering when
//! it stops — thanks to the EWMA plus the in-progress refresh (§IV-A).

use crate::render::ascii_series;
use crate::runner::{run_all, SimTask};
use crate::scenarios::{homogeneous_config, with_workload, DD_STREAMS};
use dyrs::MigrationPolicy;
use dyrs_cluster::{InterferenceSchedule, NodeId};
use dyrs_workloads::sort;
use simkit::{SimDuration, SimTime};

/// The five paper patterns, by label.
pub fn patterns() -> Vec<(&'static str, Vec<InterferenceSchedule>)> {
    let n1 = NodeId(0);
    let n2 = NodeId(1);
    let s10 = SimDuration::from_secs(10);
    let s20 = SimDuration::from_secs(20);
    vec![
        (
            "9a-persistent-n1",
            vec![InterferenceSchedule::persistent(n1, DD_STREAMS)],
        ),
        (
            "9b-alt10-n1",
            vec![InterferenceSchedule::alternating(n1, DD_STREAMS, s10, true)],
        ),
        (
            "9c-alt20-n1",
            vec![InterferenceSchedule::alternating(n1, DD_STREAMS, s20, true)],
        ),
        (
            "9d-alt10-n1n2",
            vec![
                InterferenceSchedule::alternating(n1, DD_STREAMS, s10, true),
                InterferenceSchedule::alternating(n2, DD_STREAMS, s10, false),
            ],
        ),
        (
            "9e-alt20-n1n2",
            vec![
                InterferenceSchedule::alternating(n1, DD_STREAMS, s20, true),
                InterferenceSchedule::alternating(n2, DD_STREAMS, s20, false),
            ],
        ),
    ]
}

/// Estimate series for one pattern.
#[derive(Debug, Clone)]
pub struct PatternSeries {
    /// Pattern label.
    pub label: String,
    /// Node #1 (node0) estimate samples `(secs, estimate_secs)`.
    pub node1: Vec<(f64, f64)>,
    /// Node #2 (node1) estimate samples.
    pub node2: Vec<(f64, f64)>,
    /// Sort job runtime under this pattern (feeds Table II).
    pub job_secs: f64,
}
simkit::json_fields!(PatternSeries: label, node1, node2, job_secs);

/// Figure 9 data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One series pack per pattern, in paper order.
    pub series: Vec<PatternSeries>,
}
simkit::json_fields!(Fig9: series);

impl Fig9 {
    /// Lookup by label prefix ("9a".."9e").
    pub fn pattern(&self, prefix: &str) -> &PatternSeries {
        self.series
            .iter()
            .find(|s| s.label.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing pattern {prefix}"))
    }
}

/// Mean of series values within a window.
pub fn window_mean(series: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let pts: Vec<f64> = series
        .iter()
        .filter(|&&(t, _)| t >= lo && t < hi)
        .map(|&(_, v)| v)
        .collect();
    if pts.is_empty() {
        0.0
    } else {
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}

/// Run a Sort job under DYRS for each pattern and record estimates.
pub fn run(seed: u64, input_gb: u64) -> Fig9 {
    let tasks: Vec<SimTask> = patterns()
        .into_iter()
        .map(|(label, interference)| {
            let mut cfg = homogeneous_config(MigrationPolicy::Dyrs, seed);
            cfg.interference = interference;
            let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(20), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(label, cfg, jobs)
        })
        .collect();
    let results = run_all(tasks, 0);
    let series = results
        .into_iter()
        .map(|(label, r)| {
            let pick = |node: usize| -> Vec<(f64, f64)> {
                r.nodes[node]
                    .estimate_series
                    .points()
                    .iter()
                    .map(|&(t, v)| (t.saturating_since(SimTime::ZERO).as_secs_f64(), v))
                    .collect()
            };
            PatternSeries {
                label,
                node1: pick(0),
                node2: pick(1),
                job_secs: r
                    .jobs
                    .first()
                    .map(|j| j.duration.as_secs_f64())
                    .unwrap_or(0.0),
            }
        })
        .collect();
    Fig9 { series }
}

/// Render one ASCII panel per pattern.
pub fn render(f: &Fig9) -> String {
    let mut out = String::from(
        "FIG 9: Estimated per-block migration time under interference\n\
         (paper: the estimate tracks each pattern; anti-phased nodes mirror)\n\n",
    );
    for s in &f.series {
        out.push_str(&format!(
            "--- {} (sort ran {:.0}s) ---\n",
            s.label, s.job_secs
        ));
        out.push_str("node #1 estimate (s):\n");
        out.push_str(&ascii_series(&s.node1, 72, 5));
        out.push_str("node #2 estimate (s):\n");
        out.push_str(&ascii_series(&s.node2, 72, 5));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig9 {
        run(7, 10)
    }

    #[test]
    fn persistent_keeps_node1_estimate_high() {
        let f = fig();
        let s = f.pattern("9a");
        let n1 = window_mean(&s.node1, 5.0, 60.0);
        let n2 = window_mean(&s.node2, 5.0, 60.0);
        assert!(
            n1 > n2 * 3.0,
            "persistent interference: node1 est {n1:.1}s vs node2 {n2:.1}s"
        );
    }

    #[test]
    fn alternating_estimate_oscillates() {
        let f = fig();
        let s = f.pattern("9c"); // 20s period: on [0,20), off [20,40)
        let on = window_mean(&s.node1, 8.0, 20.0);
        let off = window_mean(&s.node1, 28.0, 40.0);
        assert!(
            on > off * 1.5,
            "20s alternation: on-window {on:.1}s vs off-window {off:.1}s"
        );
    }

    #[test]
    fn anti_phased_nodes_mirror() {
        let f = fig();
        let s = f.pattern("9e"); // n1 on [0,20), n2 on [20,40)
        let n1_early = window_mean(&s.node1, 8.0, 20.0);
        let n2_early = window_mean(&s.node2, 8.0, 20.0);
        let n1_late = window_mean(&s.node1, 28.0, 40.0);
        let n2_late = window_mean(&s.node2, 28.0, 40.0);
        assert!(
            n1_early > n2_early,
            "early: n1 {n1_early:.1} vs n2 {n2_early:.1}"
        );
        assert!(
            n2_late > n1_late,
            "late: n2 {n2_late:.1} vs n1 {n1_late:.1}"
        );
    }

    #[test]
    fn estimates_recover_after_interference_stops() {
        let f = fig();
        let s = f.pattern("9b"); // 10s period
        let on = window_mean(&s.node1, 4.0, 10.0);
        let recovered = window_mean(&s.node1, 16.0, 20.0);
        assert!(
            recovered < on,
            "estimate must fall once interference stops: on {on:.1}, after {recovered:.1}"
        );
    }

    #[test]
    fn render_shows_all_patterns() {
        let s = render(&fig());
        for p in ["9a", "9b", "9c", "9d", "9e"] {
            assert!(s.contains(p), "missing {p}");
        }
    }
}
