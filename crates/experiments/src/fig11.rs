//! Figure 11 — Sort: how migration benefit depends on input size and
//! lead-time.
//!
//! Paper claims:
//!
//! * (a) at fixed lead-time, the *map-phase* speedup shrinks as input
//!   grows — the migratable share of the input is bounded by lead-time;
//! * (b) artificially adding lead-time lengthens short jobs end-to-end
//!   (the extra wait isn't recouped), while long jobs stay flat — the
//!   extra migration pays for the wait, improving cluster utilization
//!   for free.

use crate::render::{pct, secs, TextTable};
use crate::runner::{run_all, SimTask};
use crate::scenarios::{homogeneous_config, with_workload};
use dyrs::MigrationPolicy;
use dyrs_workloads::sort;
use simkit::SimDuration;

/// One (size, lead-time, policy) measurement.
#[derive(Debug, Clone)]
pub struct SortRun {
    /// Input size, GB.
    pub input_gb: u64,
    /// Artificial extra lead-time, seconds.
    pub extra_lead_secs: u64,
    /// Policy name.
    pub config: String,
    /// Map-phase duration, seconds.
    pub map_phase_secs: f64,
    /// End-to-end duration (includes lead-time), seconds.
    pub e2e_secs: f64,
}
simkit::json_fields!(SortRun: input_gb, extra_lead_secs, config, map_phase_secs, e2e_secs);

/// Figure 11 data.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Sizes swept in (a) at zero extra lead.
    pub sizes_gb: Vec<u64>,
    /// Lead-times swept in (b).
    pub leads_secs: Vec<u64>,
    /// Sizes used in the lead sweep (short job, long job).
    pub lead_sizes_gb: Vec<u64>,
    /// All runs.
    pub runs: Vec<SortRun>,
}
simkit::json_fields!(Fig11: sizes_gb, leads_secs, lead_sizes_gb, runs);

impl Fig11 {
    /// Lookup one run.
    pub fn get(&self, input_gb: u64, lead: u64, config: &str) -> &SortRun {
        self.runs
            .iter()
            .find(|r| r.input_gb == input_gb && r.extra_lead_secs == lead && r.config == config)
            .unwrap_or_else(|| panic!("missing run {input_gb}GB/{lead}s/{config}"))
    }

    /// Map-phase speedup of DYRS vs HDFS at a size (zero extra lead).
    pub fn map_speedup(&self, input_gb: u64) -> f64 {
        let h = self.get(input_gb, 0, "HDFS").map_phase_secs;
        let d = self.get(input_gb, 0, "DYRS").map_phase_secs;
        1.0 - d / h
    }
}

/// Run both sweeps.
pub fn run(seed: u64) -> Fig11 {
    let sizes_gb = vec![2u64, 5, 10, 20, 35];
    let leads_secs = vec![0u64, 20, 45, 90];
    let lead_sizes_gb = vec![2u64, 20];
    let mut tasks = Vec::new();
    // (a) size sweep, HDFS + DYRS
    for &gb in &sizes_gb {
        for p in [MigrationPolicy::Disabled, MigrationPolicy::Dyrs] {
            let cfg = homogeneous_config(p, seed);
            let w = sort::sort_workload(gb << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            tasks.push(SimTask::new(format!("a/{gb}/0/{}", p.name()), cfg, jobs));
        }
    }
    // (b) lead sweep on DYRS for a short and a long job
    for &gb in &lead_sizes_gb {
        for &lead in &leads_secs {
            if lead == 0 {
                continue; // reuse the (a) run at zero lead for 2/20 GB
            }
            let cfg = homogeneous_config(MigrationPolicy::Dyrs, seed);
            let w = sort::sort_workload(gb << 30, SimDuration::from_secs(lead), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            tasks.push(SimTask::new(format!("b/{gb}/{lead}/DYRS"), cfg, jobs));
        }
    }
    let results = run_all(tasks, 0);
    let runs = results
        .into_iter()
        .map(|(label, r)| {
            let parts: Vec<&str> = label.split('/').collect();
            let j = r.jobs.first().expect("sort completed");
            SortRun {
                input_gb: parts[1].parse().expect("size"),
                extra_lead_secs: parts[2].parse().expect("lead"),
                config: parts[3].to_string(),
                map_phase_secs: j.map_phase.as_secs_f64(),
                e2e_secs: j.duration.as_secs_f64(),
            }
        })
        .collect();
    Fig11 {
        sizes_gb,
        leads_secs,
        lead_sizes_gb,
        runs,
    }
}

/// Render both panels.
pub fn render(f: &Fig11) -> String {
    let mut a = TextTable::new(vec!["Input", "HDFS map(s)", "DYRS map(s)", "map speedup"]);
    for &gb in &f.sizes_gb {
        a.row(vec![
            format!("{gb}GB"),
            secs(f.get(gb, 0, "HDFS").map_phase_secs),
            secs(f.get(gb, 0, "DYRS").map_phase_secs),
            pct(f.map_speedup(gb)),
        ]);
    }
    let mut b = TextTable::new(vec!["Input", "lead+0s", "lead+20s", "lead+45s", "lead+90s"]);
    for &gb in &f.lead_sizes_gb {
        let cell = |lead: u64| secs(f.get(gb, lead, "DYRS").e2e_secs);
        b.row(vec![
            format!("{gb}GB"),
            cell(0),
            cell(20),
            cell(45),
            cell(90),
        ]);
    }
    format!(
        "FIG 11a: Sort map-phase duration vs input size (fixed lead-time)\n\
         (paper: relative speedup shrinks as input grows)\n\n{}\n\
         FIG 11b: Sort end-to-end duration vs artificial lead-time (DYRS)\n\
         (paper: extra lead hurts short jobs, is free for long jobs)\n\n{}",
        a.render(),
        b.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig11 {
        run(7)
    }

    #[test]
    fn map_speedup_shrinks_with_size() {
        let f = fig();
        let small = f.map_speedup(2);
        let large = f.map_speedup(35);
        assert!(small > 0.3, "small sort map speedup {small}");
        assert!(
            large < small,
            "large {large} must gain less than small {small}"
        );
    }

    #[test]
    fn extra_lead_hurts_short_jobs() {
        let f = fig();
        let base = f.get(2, 0, "DYRS").e2e_secs;
        let long = f.get(2, 90, "DYRS").e2e_secs;
        assert!(
            long > base * 1.3,
            "short job must pay for artificial lead: {base:.1} → {long:.1}"
        );
    }

    #[test]
    fn extra_lead_roughly_free_for_long_jobs() {
        let f = fig();
        let base = f.get(20, 0, "DYRS").e2e_secs;
        let long = f.get(20, 45, "DYRS").e2e_secs;
        // the paper's claim: the e2e duration "does not change despite the
        // extra lead-time" — allow modest drift either way
        assert!(
            (long - base).abs() / base < 0.15,
            "long job should stay ~flat: {base:.1} → {long:.1}"
        );
    }

    #[test]
    fn render_has_both_panels() {
        let s = render(&fig());
        assert!(s.contains("FIG 11a"));
        assert!(s.contains("FIG 11b"));
    }
}
