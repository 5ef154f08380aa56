//! Sensitivity analysis: do the headline conclusions survive the
//! modeling choices?
//!
//! DESIGN.md §6 lists the calibration decisions (task-read caps, dd
//! weight, speculative execution, spill handling, heartbeat cadence).
//! This study re-runs the Table I comparison while perturbing each one
//! and checks the *conclusions* — DYRS beats HDFS, stays under the
//! in-RAM bound, and dominates Ignem under heterogeneity — rather than
//! the numbers. A reproduction whose findings only hold at one parameter
//! point would not be a reproduction.

use crate::render::{pct, TextTable};
use crate::runner::{run_all, SimTask};
use crate::scenarios::{swim_params, DD_STREAMS, SLOW_NODE};
use dyrs::MigrationPolicy;
use dyrs_cluster::InterferenceSchedule;
use dyrs_sim::SimConfig;
use dyrs_workloads::swim;

const MB: f64 = (1u64 << 20) as f64;

/// One perturbation of the model.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Label ("baseline", "dd-weight-20", ...).
    pub name: String,
    /// DYRS speedup vs HDFS under this variant.
    pub dyrs: f64,
    /// In-RAM bound speedup.
    pub ram: f64,
    /// Ignem speedup.
    pub ignem: f64,
}
simkit::json_fields!(Variant: name, dyrs, ram, ignem);

impl Variant {
    /// The conclusions that must hold everywhere: DYRS wins, the bound
    /// bounds, and Ignem trails DYRS decisively.
    pub fn conclusions_hold(&self) -> bool {
        self.dyrs > 0.05 && self.dyrs <= self.ram + 0.05 && self.ignem < self.dyrs - 0.10
    }
}

/// The full study.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// All variants, baseline first.
    pub variants: Vec<Variant>,
}
simkit::json_fields!(Sensitivity: variants);

impl Sensitivity {
    /// Lookup by name prefix.
    pub fn variant(&self, prefix: &str) -> &Variant {
        self.variants
            .iter()
            .find(|v| v.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing variant {prefix}"))
    }
}

/// A named tweak applied to the baseline configuration.
type Perturbation = (&'static str, Box<dyn Fn(&mut SimConfig) + Send + Sync>);

fn perturbations() -> Vec<Perturbation> {
    vec![
        ("baseline", Box::new(|_| {})),
        (
            "spill-writes-real",
            Box::new(|c| c.engine.model_spill_writes = true),
        ),
        (
            "dd-weight-20",
            Box::new(|c| {
                c.interference =
                    vec![InterferenceSchedule::persistent(SLOW_NODE, DD_STREAMS).with_weight(20.0)]
            }),
        ),
        (
            "dd-weight-60",
            Box::new(|c| {
                c.interference =
                    vec![InterferenceSchedule::persistent(SLOW_NODE, DD_STREAMS).with_weight(60.0)]
            }),
        ),
        (
            "read-cap-7MBps",
            Box::new(|c| c.engine.disk_read_cap = 7.0 * MB),
        ),
        (
            "read-cap-15MBps",
            Box::new(|c| c.engine.disk_read_cap = 15.0 * MB),
        ),
        (
            "heartbeat-3s",
            Box::new(|c| c.dyrs.heartbeat_interval = simkit::SimDuration::from_secs(3)),
        ),
        ("ewma-alpha-0.25", Box::new(|c| c.dyrs.ewma_alpha = 0.25)),
        (
            "no-speculation",
            Box::new(|c| c.engine.speculative_max_attempts = 1),
        ),
    ]
}

/// Run the Table I comparison under every perturbation.
pub fn run(seed: u64, scale: f64) -> Sensitivity {
    let params = swim_params(scale);
    let policies = [
        MigrationPolicy::Disabled,
        MigrationPolicy::InstantRam,
        MigrationPolicy::Ignem,
        MigrationPolicy::Dyrs,
    ];
    let mut tasks = Vec::new();
    for (name, perturb) in perturbations() {
        for p in policies {
            let mut cfg = SimConfig::paper_default(p, seed);
            // default heterogeneity first, so perturbations may replace it
            cfg.interference = vec![InterferenceSchedule::persistent(SLOW_NODE, DD_STREAMS)];
            perturb(&mut cfg);
            let w = swim::generate(&params, seed);
            cfg.files = w.files;
            tasks.push(SimTask::new(format!("{name}/{}", p.name()), cfg, w.jobs));
        }
    }
    let results = run_all(tasks, 0);
    let mean = |name: &str, p: &str| -> f64 {
        results
            .iter()
            .find(|(l, _)| l == &format!("{name}/{p}"))
            .expect("run present")
            .1
            .mean_job_duration_secs()
    };
    let variants = perturbations()
        .iter()
        .map(|(name, _)| {
            let hdfs = mean(name, "HDFS");
            Variant {
                name: name.to_string(),
                dyrs: 1.0 - mean(name, "DYRS") / hdfs,
                ram: 1.0 - mean(name, "HDFS-Inputs-in-RAM") / hdfs,
                ignem: 1.0 - mean(name, "Ignem") / hdfs,
            }
        })
        .collect();
    Sensitivity { variants }
}

/// Render the study.
pub fn render(s: &Sensitivity) -> String {
    let mut tt = TextTable::new(vec!["Variant", "DYRS", "RAM bound", "Ignem", "Conclusions"]);
    for v in &s.variants {
        tt.row(vec![
            v.name.clone(),
            pct(v.dyrs),
            pct(v.ram),
            pct(v.ignem),
            if v.conclusions_hold() {
                "hold".into()
            } else {
                "BROKEN".to_string()
            },
        ]);
    }
    format!(
        "SENSITIVITY — Table I conclusions under model perturbations\n\
         (required everywhere: DYRS > 0, DYRS <= RAM bound, Ignem << DYRS)\n\n{}",
        tt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conclusions_hold_under_every_perturbation() {
        let s = run(7, 0.2);
        assert!(s.variants.len() >= 8);
        for v in &s.variants {
            assert!(
                v.conclusions_hold(),
                "{}: DYRS {} RAM {} Ignem {}",
                v.name,
                v.dyrs,
                v.ram,
                v.ignem
            );
        }
    }

    #[test]
    fn spill_writes_reduce_but_do_not_kill_the_benefit() {
        let s = run(7, 0.2);
        let base = s.variant("baseline").dyrs;
        let spill = s.variant("spill-writes-real").dyrs;
        assert!(spill > 0.05, "dirtier disks must not erase DYRS: {spill}");
        // direction: real write contention cannot *increase* the benefit much
        assert!(spill <= base + 0.10, "spill {spill} vs baseline {base}");
    }

    #[test]
    fn render_flags_conclusions() {
        let out = render(&run(7, 0.1));
        assert!(out.contains("Conclusions"));
        assert!(out.contains("baseline"));
    }
}
