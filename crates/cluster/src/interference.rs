//! Interference generators.
//!
//! The paper creates bandwidth heterogeneity by running `dd` readers
//! against the disk of selected nodes (§V-C): persistently for fixed
//! heterogeneity, or alternating on/off every 10 s or 20 s (optionally
//! anti-phased across two nodes) for dynamic heterogeneity (§V-F, Fig. 9,
//! Table II).
//!
//! An interference source is realised in the simulator as `streams`
//! infinite-length readers on the victim node's disk. This module only
//! computes the *schedule* of on/off toggles; the simulation driver turns
//! toggles into fluid streams.

use crate::node::NodeId;
use simkit::{SimDuration, SimTime};

/// How interference on one node behaves over time.
#[derive(Debug, Clone, PartialEq)]
pub enum InterferencePattern {
    /// Always on from t=0 (the paper's `dd` pair on the handicapped node).
    Persistent,
    /// On for `period`, off for `period`, starting in the given phase.
    /// `start_on = false` begins with an off interval (used to anti-phase
    /// node #2 against node #1 in Figs. 9d/9e).
    Alternating {
        /// Length of each on/off interval.
        period: SimDuration,
        /// Whether the first interval is on.
        start_on: bool,
    },
    /// Arbitrary toggle instants (explicit trace).
    Custom(Vec<Toggle>),
    /// Utilization-trace-driven background load: at each sample instant
    /// the node's disk carries a background stream consuming the given
    /// fraction of its base bandwidth (realized as a rate-capped infinite
    /// stream). Used to replay Google-trace-style conditions (§II) onto
    /// the evaluation cluster; `streams`/`weight` are ignored.
    TraceDriven(Vec<(SimTime, f64)>),
}

/// A single on/off transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Toggle {
    /// When the transition happens.
    pub at: SimTime,
    /// The state after the transition.
    pub on: bool,
}

/// Default fluid weight of one interference reader. A `dd` with direct IO
/// and large block sizes keeps deep sequential request queues, so it
/// crowds out a chunk-at-a-time application reader more than 1:1 fair
/// sharing would suggest; the weight models that aggressiveness. With the
/// paper's two `dd` readers this makes a fully-loaded victim node's task
/// reads ~6× slower (classic starvation of a synchronous chunked reader
/// behind deep sequential queues) and its migrations ~80× slower — matching the
/// "13×" busiest node of the paper's Fig. 1.
pub const DD_WEIGHT: f64 = 40.0;

/// Interference bound to a victim node.
///
/// ```
/// use dyrs_cluster::{InterferenceSchedule, NodeId};
/// use simkit::{SimDuration, SimTime};
///
/// // the paper's Fig. 9c pattern: two dd readers, 20 s on / 20 s off
/// let s = InterferenceSchedule::alternating(
///     NodeId(0), 2, SimDuration::from_secs(20), true);
/// let toggles = s.toggles(SimTime::from_secs(60));
/// assert_eq!(toggles.len(), 4); // t = 0, 20, 40, 60
/// assert!(toggles[0].on && !toggles[1].on);
/// assert!((s.duty_cycle(SimTime::from_secs(60)) - 0.5).abs() < 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceSchedule {
    /// The node whose disk is attacked.
    pub node: NodeId,
    /// Number of concurrent reader streams (the paper uses two `dd` jobs).
    pub streams: u32,
    /// Fluid weight per reader stream (see [`DD_WEIGHT`]).
    pub weight: f64,
    /// Temporal pattern.
    pub pattern: InterferencePattern,
}

impl InterferenceSchedule {
    /// Persistent interference with `streams` readers on `node`.
    pub fn persistent(node: NodeId, streams: u32) -> Self {
        InterferenceSchedule {
            node,
            streams,
            weight: DD_WEIGHT,
            pattern: InterferencePattern::Persistent,
        }
    }

    /// Alternating interference (`period` on, `period` off) on `node`.
    pub fn alternating(node: NodeId, streams: u32, period: SimDuration, start_on: bool) -> Self {
        InterferenceSchedule {
            node,
            streams,
            weight: DD_WEIGHT,
            pattern: InterferencePattern::Alternating { period, start_on },
        }
    }

    /// Override the per-stream weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0 && weight.is_finite(), "invalid weight");
        self.weight = weight;
        self
    }

    /// Utilization samples for a trace-driven schedule (`None` for the
    /// on/off patterns).
    pub fn background_samples(&self, horizon: SimTime) -> Option<Vec<(SimTime, f64)>> {
        match &self.pattern {
            InterferencePattern::TraceDriven(samples) => Some(
                samples
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t <= horizon)
                    .map(|(t, u)| (t, u.clamp(0.0, 0.99)))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Expand the pattern into explicit toggles covering `[0, horizon]`.
    /// The result always starts with a toggle at t=0 establishing the
    /// initial state, and toggles are strictly increasing in time.
    /// Trace-driven schedules have no toggles (see
    /// [`InterferenceSchedule::background_samples`]).
    pub fn toggles(&self, horizon: SimTime) -> Vec<Toggle> {
        match &self.pattern {
            InterferencePattern::TraceDriven(_) => Vec::new(),
            InterferencePattern::Persistent => vec![Toggle {
                at: SimTime::ZERO,
                on: true,
            }],
            InterferencePattern::Alternating { period, start_on } => {
                assert!(!period.is_zero(), "zero alternation period");
                let mut out = Vec::new();
                let mut t = SimTime::ZERO;
                let mut on = *start_on;
                while t <= horizon {
                    out.push(Toggle { at: t, on });
                    t += *period;
                    on = !on;
                }
                out
            }
            InterferencePattern::Custom(ts) => {
                let mut out: Vec<Toggle> = ts.iter().copied().filter(|t| t.at <= horizon).collect();
                out.sort_by_key(|t| t.at);
                if out.first().map(|t| t.at) != Some(SimTime::ZERO) {
                    out.insert(
                        0,
                        Toggle {
                            at: SimTime::ZERO,
                            on: false,
                        },
                    );
                }
                out
            }
        }
    }

    /// Fraction of `[0, horizon]` during which interference is active.
    /// For trace-driven schedules this is the mean utilization.
    pub fn duty_cycle(&self, horizon: SimTime) -> f64 {
        if let Some(samples) = self.background_samples(horizon) {
            if samples.is_empty() {
                return 0.0;
            }
            return samples.iter().map(|&(_, u)| u).sum::<f64>() / samples.len() as f64;
        }
        let toggles = self.toggles(horizon);
        let mut on_time = SimDuration::ZERO;
        for (i, t) in toggles.iter().enumerate() {
            if t.on {
                let end = toggles.get(i + 1).map(|n| n.at).unwrap_or(horizon);
                on_time += end.min(horizon).saturating_since(t.at);
            }
        }
        on_time.as_micros() as f64 / horizon.as_micros().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hz() -> SimTime {
        SimTime::from_secs(100)
    }

    #[test]
    fn persistent_is_single_on_toggle() {
        let s = InterferenceSchedule::persistent(NodeId(1), 2);
        let t = s.toggles(hz());
        assert_eq!(
            t,
            vec![Toggle {
                at: SimTime::ZERO,
                on: true
            }]
        );
        assert!((s.duty_cycle(hz()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alternating_10s_has_half_duty() {
        let s = InterferenceSchedule::alternating(NodeId(0), 2, SimDuration::from_secs(10), true);
        let toggles = s.toggles(hz());
        assert_eq!(toggles.len(), 11); // t=0,10,...,100
        assert!(toggles[0].on);
        assert!(!toggles[1].on);
        assert!((s.duty_cycle(hz()) - 0.5).abs() < 0.01);
    }

    #[test]
    fn anti_phase_starts_off() {
        let s = InterferenceSchedule::alternating(NodeId(1), 2, SimDuration::from_secs(10), false);
        let toggles = s.toggles(hz());
        assert!(!toggles[0].on);
        assert!(toggles[1].on);
        assert!((s.duty_cycle(hz()) - 0.5).abs() < 0.01);
    }

    #[test]
    fn complementary_patterns_cover_everything() {
        // Figs 9d/9e: when node 1 is on, node 2 is off and vice versa.
        let a = InterferenceSchedule::alternating(NodeId(0), 2, SimDuration::from_secs(20), true);
        let b = InterferenceSchedule::alternating(NodeId(1), 2, SimDuration::from_secs(20), false);
        let d = a.duty_cycle(hz()) + b.duty_cycle(hz());
        assert!((d - 1.0).abs() < 0.01, "duty cycles must sum to 1, got {d}");
    }

    #[test]
    fn custom_is_sorted_and_anchored() {
        let s = InterferenceSchedule {
            node: NodeId(0),
            streams: 1,
            weight: DD_WEIGHT,
            pattern: InterferencePattern::Custom(vec![
                Toggle {
                    at: SimTime::from_secs(30),
                    on: false,
                },
                Toggle {
                    at: SimTime::from_secs(10),
                    on: true,
                },
            ]),
        };
        let t = s.toggles(hz());
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].at, SimTime::ZERO);
        assert!(!t[0].on);
        assert_eq!(t[1].at, SimTime::from_secs(10));
        assert!((s.duty_cycle(hz()) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn trace_driven_exposes_samples_not_toggles() {
        let s = InterferenceSchedule {
            node: NodeId(0),
            streams: 0,
            weight: 1.0,
            pattern: InterferencePattern::TraceDriven(vec![
                (SimTime::ZERO, 0.2),
                (SimTime::from_secs(10), 1.5),  // clamped
                (SimTime::from_secs(200), 0.9), // beyond horizon
            ]),
        };
        assert!(s.toggles(hz()).is_empty());
        let samples = s
            .background_samples(hz())
            .expect("TraceDriven servers always carry background samples");
        assert_eq!(samples.len(), 2);
        assert!((samples[1].1 - 0.99).abs() < 1e-9, "clamped to 0.99");
        let duty = s.duty_cycle(hz());
        assert!((duty - (0.2 + 0.99) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn toggles_beyond_horizon_are_dropped() {
        let s = InterferenceSchedule {
            node: NodeId(0),
            streams: 1,
            weight: DD_WEIGHT,
            pattern: InterferencePattern::Custom(vec![
                Toggle {
                    at: SimTime::ZERO,
                    on: true,
                },
                Toggle {
                    at: SimTime::from_secs(500),
                    on: false,
                },
            ]),
        };
        assert_eq!(s.toggles(hz()).len(), 1);
    }
}
