//! `bench-gate` — CI regression gate over `bench-snapshot` artifacts.
//!
//! ```text
//! bench-gate <NEW.json> [--results DIR] [--threshold PCT]
//! ```
//!
//! Compares a freshly produced `BENCH_<sha>.json` against the latest
//! committed baseline (named by `DIR/LATEST`, default `results/LATEST`)
//! and exits non-zero when any *pinned* bench's median regressed by more
//! than the threshold (default 25%). Only deliberately pinned benches
//! gate: scheduler passes with multi-millisecond medians, where a 25%
//! move is a real constant-factor change and not sampling noise. The
//! sub-microsecond codec/loopback entries and the small-n simulation
//! runs are reported but never gate.
//!
//! A pinned bench present in the baseline but missing from the new
//! snapshot also fails the gate — deleting a bench must be an explicit
//! baseline refresh, not a silent drop.

use std::process::ExitCode;

/// Benches that gate the merge. Keep to entries whose medians are large
/// enough (≥ ~1 ms) that the 25% threshold clears machine jitter.
const PINNED: &[&str] = &[
    "algo1/full_rescan_100k",
    "algo1/planned_100k_1dirty",
    "algo1/planned_1m_1k",
    "algo1/planned_1m_sparse_pass",
    "algo1/planned_1m_refresh_pass",
];

/// Extract `(name, median_ns)` pairs from a `bench-snapshot` JSON. The
/// writer emits one bench object per line with fixed key order, so a
/// line-oriented scan is exact for this format (the workspace writes JSON
/// but has no reader).
fn parse(json: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = &rest[..nend];
        if name == "sha" {
            continue;
        }
        let Some(mpos) = line.find("\"median_ns\": ") else {
            continue;
        };
        let digits: String = line[mpos + 13..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(median) = digits.parse() {
            out.push((name.to_string(), median));
        }
    }
    out
}

fn median_of(set: &[(String, u64)], name: &str) -> Option<u64> {
    set.iter().find(|(n, _)| n == name).map(|&(_, m)| m)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(new_path) = args.iter().find(|a| !a.starts_with("--")).cloned() else {
        eprintln!("usage: bench-gate <NEW.json> [--results DIR] [--threshold PCT]");
        return ExitCode::FAILURE;
    };
    let results = flag("--results").unwrap_or_else(|| "results".into());
    let threshold: f64 = flag("--threshold")
        .map(|t| t.parse().expect("--threshold takes a number (percent)"))
        .unwrap_or(25.0);

    let latest = std::fs::read_to_string(format!("{results}/LATEST"))
        .unwrap_or_else(|e| panic!("read {results}/LATEST: {e}"));
    let base_name = latest.trim();
    let base_path = format!("{results}/{base_name}");
    let baseline = parse(
        &std::fs::read_to_string(&base_path).unwrap_or_else(|e| panic!("read {base_path}: {e}")),
    );
    let fresh = parse(
        &std::fs::read_to_string(&new_path).unwrap_or_else(|e| panic!("read {new_path}: {e}")),
    );

    println!("bench-gate: {new_path} vs {base_path} (>{threshold}% on pinned medians fails)");
    let mut failures = 0u32;
    for &name in PINNED {
        let Some(old) = median_of(&baseline, name) else {
            // Not in the baseline yet (bench added after the last
            // refresh): nothing to regress against.
            println!("  {name:36} (new bench, no baseline)");
            continue;
        };
        let Some(new) = median_of(&fresh, name) else {
            println!("  {name:36} MISSING from new snapshot — FAIL");
            failures += 1;
            continue;
        };
        let delta = 100.0 * (new as f64 - old as f64) / old as f64;
        let verdict = if delta > threshold {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!("  {name:36} {old:>12} → {new:>12} ns  ({delta:+6.1}%)  {verdict}");
    }
    if failures > 0 {
        eprintln!(
            "bench-gate: {failures} pinned bench(es) regressed past {threshold}% — \
             refresh the committed baseline only with a justified perf change"
        );
        return ExitCode::FAILURE;
    }
    println!("bench-gate: all pinned benches within {threshold}% of {base_name}");
    ExitCode::SUCCESS
}
