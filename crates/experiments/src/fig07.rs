//! Figure 7 — memory footprint of DYRS vs a hypothetical instant scheme.
//!
//! The paper compares the per-server memory used by DYRS against a
//! hypothetical scheme that "migrates the input instantly when the job is
//! submitted and evicts it when the job completes" (which would match
//! HDFS-Inputs-in-RAM's performance). Claims: DYRS migrates only ~45% as
//! much data yet delivers ~72% of the bound's speedup — diminishing
//! returns on memory, because DYRS evicts as soon as data is read.

use crate::scenarios::swim_runs;
use dyrs::MigrationPolicy;
use simkit::SimDuration;

/// Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Mean (time-averaged) per-server memory used by DYRS, bytes.
    pub dyrs_mean_bytes: f64,
    /// Peak per-server memory used by DYRS, bytes.
    pub dyrs_peak_bytes: u64,
    /// Mean per-server memory of the hypothetical instant scheme.
    pub hypo_mean_bytes: f64,
    /// Peak per-server memory of the hypothetical scheme.
    pub hypo_peak_bytes: u64,
    /// Bytes DYRS actually migrated ÷ total input bytes.
    pub migrated_fraction: f64,
    /// DYRS speedup ÷ in-RAM-bound speedup (the "72%").
    pub speedup_capture: f64,
}
simkit::json_fields!(Fig7: dyrs_mean_bytes, dyrs_peak_bytes, hypo_mean_bytes, hypo_peak_bytes,
    migrated_fraction, speedup_capture);

/// Run SWIM and compare footprints.
pub fn run(seed: u64, scale: f64) -> Fig7 {
    let runs = swim_runs(seed, scale);
    let get = |p: MigrationPolicy| {
        &runs
            .iter()
            .find(|(q, _)| *q == p)
            .expect("policy present")
            .1
    };
    let dyrs = get(MigrationPolicy::Dyrs);
    let hdfs = get(MigrationPolicy::Disabled);
    let ram = get(MigrationPolicy::InstantRam);

    // DYRS footprint: time-weighted mean + peak of the slave buffers.
    let end = dyrs.end_time;
    let n = dyrs.nodes.len() as f64;
    let dyrs_mean_bytes = dyrs
        .nodes
        .iter()
        .map(|nr| {
            nr.buffer_series
                .time_weighted_mean(simkit::SimTime::ZERO, end, 0.0)
        })
        .sum::<f64>()
        / n;
    let dyrs_peak_bytes = dyrs
        .nodes
        .iter()
        .map(|nr| nr.peak_buffer_bytes)
        .max()
        .unwrap_or(0);

    // Hypothetical scheme reconstructed from the RAM run's job intervals:
    // a job's whole input is resident (spread over the 7 servers) from
    // submission to completion.
    let horizon = ram.end_time.as_secs_f64().max(1.0);
    let mut hypo_mean = 0.0f64; // byte-seconds per server
    let mut events: Vec<(f64, i64)> = Vec::new(); // (time, delta bytes)
    for j in &ram.jobs {
        let per_server = j.input_bytes as f64 / n;
        hypo_mean += per_server * j.duration.as_secs_f64();
        events.push((j.submitted_at.as_secs_f64(), j.input_bytes as i64));
        events.push((j.completed_at.as_secs_f64(), -(j.input_bytes as i64)));
    }
    hypo_mean /= horizon;
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cur: i64 = 0;
    let mut peak: i64 = 0;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    let hypo_peak_bytes = (peak as f64 / n) as u64;

    let total_input: u64 = dyrs.jobs.iter().map(|j| j.input_bytes).sum();
    let migrated: u64 = dyrs.nodes.iter().map(|nr| nr.slave.bytes_migrated).sum();
    let s = |r: &dyrs_sim::SimResult| r.mean_job_duration_secs();
    let dyrs_speedup = 1.0 - s(dyrs) / s(hdfs);
    let ram_speedup = 1.0 - s(ram) / s(hdfs);

    Fig7 {
        dyrs_mean_bytes,
        dyrs_peak_bytes,
        hypo_mean_bytes: hypo_mean,
        hypo_peak_bytes,
        migrated_fraction: migrated as f64 / total_input.max(1) as f64,
        speedup_capture: if ram_speedup > 0.0 {
            dyrs_speedup / ram_speedup
        } else {
            0.0
        },
    }
}

/// Render the comparison.
pub fn render(f: &Fig7) -> String {
    const GB: f64 = (1u64 << 30) as f64;
    format!(
        "FIG 7: Per-server memory usage — DYRS vs hypothetical instant scheme\n\
         (paper: DYRS migrates ~45% of the data yet keeps ~72% of the speedup)\n\n\
         DYRS          mean {:>7.2} GB   peak {:>7.2} GB\n\
         Hypothetical  mean {:>7.2} GB   peak {:>7.2} GB\n\n\
         data migrated by DYRS: {:.0}% of total input\n\
         share of the in-RAM speedup captured: {:.0}%\n",
        f.dyrs_mean_bytes / GB,
        f.dyrs_peak_bytes as f64 / GB,
        f.hypo_mean_bytes / GB,
        f.hypo_peak_bytes as f64 / GB,
        f.migrated_fraction * 100.0,
        f.speedup_capture * 100.0
    )
}

/// Convenience: mean footprint relative to the hypothetical scheme.
pub fn footprint_ratio(f: &Fig7) -> f64 {
    if f.hypo_mean_bytes == 0.0 {
        0.0
    } else {
        f.dyrs_mean_bytes / f.hypo_mean_bytes
    }
}

/// The paper's lead-time proxy duration (unused helper kept for the
/// ablation bench that sweeps eviction modes).
pub fn zero() -> SimDuration {
    SimDuration::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyrs_uses_less_memory_but_keeps_most_speedup() {
        let f = run(7, 0.25);
        // at reduced scale the cluster has enough residual bandwidth to
        // migrate essentially everything; the ~45% of the paper emerges
        // only at full contention, so only sanity-bound it here
        assert!(
            f.migrated_fraction <= 1.05,
            "DYRS cannot migrate (much) more than everything: {}",
            f.migrated_fraction
        );
        assert!(
            f.migrated_fraction > 0.1,
            "DYRS must migrate a meaningful share: {}",
            f.migrated_fraction
        );
        assert!(
            f.speedup_capture > 0.45,
            "speedup capture {} (paper 0.72)",
            f.speedup_capture
        );
        assert!(
            footprint_ratio(&f) < 1.0,
            "DYRS footprint must undercut the hypothetical: {}",
            footprint_ratio(&f)
        );
    }

    #[test]
    fn peaks_bound_means() {
        let f = run(7, 0.1);
        assert!(f.dyrs_mean_bytes <= f.dyrs_peak_bytes as f64 + 1.0);
        assert!(f.hypo_mean_bytes <= f.hypo_peak_bytes as f64 + 1.0);
    }

    #[test]
    fn render_reports_both_schemes() {
        let s = render(&run(7, 0.1));
        assert!(s.contains("DYRS"));
        assert!(s.contains("Hypothetical"));
    }
}
