//! Automatic paper-vs-measured report generation.
//!
//! [`generate`] runs every experiment at the given scale and renders a
//! self-contained markdown report mirroring EXPERIMENTS.md's structure —
//! so a user on different hardware (or after modifying the model) can
//! regenerate the whole comparison with one command:
//!
//! ```sh
//! repro --report report.md --scale 1.0
//! ```

use crate::{fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig11, table1, table2};
use std::fmt::Write as _;

/// One row of the paper-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Which table/figure.
    pub artifact: String,
    /// The metric compared.
    pub metric: String,
    /// The paper's value, as printed.
    pub paper: String,
    /// Our measured value, as printed.
    pub measured: String,
    /// Whether the shape check passed.
    pub ok: bool,
}

/// Paper reference values used in the comparison tables.
mod paper {
    pub const SWIM_HDFS_SECS: f64 = 31.5;
    pub const SWIM_RAM: f64 = 0.46;
    pub const SWIM_IGNEM: f64 = -1.11;
    pub const SWIM_DYRS: f64 = 0.33;
    pub const HIVE_DYRS_MEAN: f64 = 0.36;
    pub const HIVE_DYRS_BEST: f64 = 0.48;
    pub const MIGRATABLE: f64 = 0.81;
    pub const MEAN_LEAD: f64 = 8.8;
    pub const UNDER_4PCT: f64 = 0.80;
    pub const MAP_RATIO: f64 = 1.8;
}

fn pct(x: f64) -> String {
    format!("{}{:.0}%", if x >= 0.0 { "+" } else { "" }, x * 100.0)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "✅"
    } else {
        "⚠️"
    }
}

/// Run everything and collect the comparison rows.
pub fn rows(seed: u64, scale: f64) -> Vec<ReportRow> {
    let mut rows: Vec<ReportRow> = Vec::new();
    let mut push = |artifact: &str, metric: &str, paper: String, measured: String, ok: bool| {
        rows.push(ReportRow {
            artifact: artifact.to_string(),
            metric: metric.to_string(),
            paper,
            measured,
            ok,
        });
    };
    collect(seed, scale, &mut push);
    rows
}

/// Run everything and render the markdown report.
pub fn generate(seed: u64, scale: f64) -> String {
    let rows = rows(seed, scale);
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "# DYRS reproduction report\n");
    let _ = writeln!(w, "seed `{seed}`, workload scale `{scale}`\n");
    let _ = writeln!(w, "| artifact | metric | paper | measured | |");
    let _ = writeln!(w, "|---|---|---|---|---|");
    for r in &rows {
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} | {} |",
            r.artifact,
            r.metric,
            r.paper,
            r.measured,
            verdict(r.ok)
        );
    }
    let _ = writeln!(
        w,
        "\nSee EXPERIMENTS.md for the pinned-seed reference numbers and the\n\
         per-artifact discussion of deviations."
    );
    out
}

fn collect(seed: u64, scale: f64, push: &mut dyn FnMut(&str, &str, String, String, bool)) {
    // Motivation
    let f2 = fig02::run(seed, 100_000);
    push(
        "Fig. 2",
        "jobs with lead >= read",
        format!("{:.0}%", paper::MIGRATABLE * 100.0),
        format!("{:.1}%", f2.migratable_fraction * 100.0),
        (f2.migratable_fraction - paper::MIGRATABLE).abs() < 0.05,
    );
    push(
        "Fig. 2",
        "mean lead-time",
        format!("{:.1}s", paper::MEAN_LEAD),
        format!("{:.1}s", f2.mean_lead_secs),
        (f2.mean_lead_secs - paper::MEAN_LEAD).abs() < 2.0,
    );
    let f1 = fig01::run(seed);
    push(
        "Fig. 1",
        "node heterogeneity",
        "~13x".into(),
        format!("{:.1}x", f1.heterogeneity_ratio()),
        f1.heterogeneity_ratio() > 4.0,
    );
    let f3 = fig03::run(seed, 40);
    push(
        "Fig. 3",
        "samples under 4% util",
        format!("{:.0}%", paper::UNDER_4PCT * 100.0),
        format!("{:.1}%", f3.under_4pct * 100.0),
        (0.6..=1.0).contains(&f3.under_4pct),
    );

    // SWIM / Table I
    let t1 = table1::run(seed, scale);
    let hdfs = t1.row("HDFS").mean_duration_secs;
    push(
        "Table I",
        "HDFS mean job",
        format!("{:.1}s", paper::SWIM_HDFS_SECS),
        format!("{hdfs:.1}s"),
        (hdfs - paper::SWIM_HDFS_SECS).abs() / paper::SWIM_HDFS_SECS < 0.5,
    );
    for (name, reference) in [
        ("HDFS-Inputs-in-RAM", paper::SWIM_RAM),
        ("Ignem", paper::SWIM_IGNEM),
        ("DYRS", paper::SWIM_DYRS),
    ] {
        let got = t1.speedup(name);
        push(
            "Table I",
            &format!("{name} speedup"),
            pct(reference),
            pct(got),
            (got > 0.0) == (reference > 0.0),
        );
    }

    // Hive / Fig 4
    let f4 = fig04::run(seed, scale);
    let (best_q, best) = f4.best_speedup("DYRS");
    push(
        "Fig. 4",
        "DYRS mean Hive speedup",
        pct(paper::HIVE_DYRS_MEAN),
        pct(f4.mean_speedup("DYRS")),
        f4.mean_speedup("DYRS") > 0.2,
    );
    push(
        "Fig. 4",
        "DYRS best query",
        format!("{} (q15)", pct(paper::HIVE_DYRS_BEST)),
        format!("{} ({best_q})", pct(best)),
        best > f4.mean_speedup("DYRS"),
    );
    push(
        "Fig. 4",
        "Ignem vs HDFS",
        "slower".into(),
        pct(f4.mean_speedup("Ignem")),
        f4.mean_speedup("Ignem") < 0.1,
    );

    // Fig 5 bins
    let f5 = fig05::run(seed, scale);
    push(
        "Fig. 5",
        "small/medium/large speedups",
        "+34/+47/+26%".into(),
        format!(
            "{}/{}/{}",
            pct(f5.speedup("DYRS", 0)),
            pct(f5.speedup("DYRS", 1)),
            pct(f5.speedup("DYRS", 2))
        ),
        (0..3).all(|b| f5.speedup("DYRS", b) > 0.0),
    );

    // Fig 6 ratio
    let f6 = fig06::run(seed, scale);
    push(
        "Fig. 6",
        "HDFS/DYRS map-task ratio",
        format!("{:.1}x", paper::MAP_RATIO),
        format!("{:.2}x", f6.dyrs_map_ratio()),
        f6.dyrs_map_ratio() > 1.3,
    );

    // Fig 7
    let f7 = fig07::run(seed, scale);
    push(
        "Fig. 7",
        "share of in-RAM speedup kept",
        "~72%".into(),
        format!("{:.0}%", f7.speedup_capture * 100.0),
        f7.speedup_capture > 0.45,
    );

    // Fig 8
    let f8 = fig08::run(seed, (28.0 * scale).max(7.0) as u64);
    push(
        "Fig. 8",
        "slow-node read share HDFS/Ignem/DYRS",
        "low/1.0/low".into(),
        format!(
            "{:.2}/{:.2}/{:.2}",
            f8.get("HDFS", true).slow_node_share(),
            f8.get("Ignem", true).slow_node_share(),
            f8.get("DYRS", true).slow_node_share()
        ),
        f8.get("Ignem", true).slow_node_share() > f8.get("DYRS", true).slow_node_share(),
    );

    // Table II
    let t2 = table2::run(seed, (20.0 * scale).max(5.0) as u64);
    let runtimes: Vec<String> = t2
        .rows
        .iter()
        .map(|r| format!("{:.0}", r.runtime_secs))
        .collect();
    let a = t2.runtime("9a");
    let d = t2.runtime("9d");
    push(
        "Table II",
        "a/b/c/d/e sort runtimes",
        "137/127/129/135/137s".into(),
        format!("{}s", runtimes.join("/")),
        (a - d).abs() / a < 0.15,
    );

    // Fig 11a
    let f11 = fig11::run(seed);
    let speedups: Vec<String> = f11
        .sizes_gb
        .iter()
        .map(|&gb| pct(f11.map_speedup(gb)))
        .collect();
    let first = f11.map_speedup(f11.sizes_gb[0]);
    let last = f11.map_speedup(*f11.sizes_gb.last().expect("sizes"));
    push(
        "Fig. 11a",
        "map speedup vs size",
        "shrinking".into(),
        speedups.join(" "),
        last < first,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_artifacts() {
        let r = generate(7, 0.15);
        for needle in [
            "Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
            "Table I", "Table II", "Fig. 11a",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
        assert!(r.contains("| artifact |"));
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(generate(7, 0.1), generate(7, 0.1));
    }
}
