//! `repro` — regenerate every table and figure of the DYRS paper.
//!
//! ```text
//! repro [--scale X] [--seed N] [--json DIR] [--report FILE] [targets...]
//!
//! targets: fig1 fig2 fig3 fig4 table1 fig5 fig6 fig7 fig8 fig9 table2
//!          fig10 fig11 policies ablations iterative replay sensitivity
//!          | all (default)
//! --scale X     workload scale factor (default 0.5; 1.0 = paper scale)
//! --seed N      RNG seed (default pinned)
//! --json DIR    also write machine-readable results to DIR/<target>.json
//! --report FILE write a one-page paper-vs-measured markdown report
//! --check       run every comparison; exit 1 if any shape check fails
//! ```

use dyrs_experiments::{
    ablations, fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11,
    iterative, policies, replay, report, sensitivity, table1, table2, tiers, DEFAULT_SEED,
};
use simkit::json;
use std::collections::BTreeSet;

struct Opts {
    scale: f64,
    seed: u64,
    json_dir: Option<String>,
    report: Option<String>,
    check: bool,
    targets: BTreeSet<String>,
}

const ALL: [&str; 19] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table2",
    "fig10",
    "fig11",
    "policies",
    "ablations",
    "iterative",
    "replay",
    "sensitivity",
    "tiers",
];

fn parse_args() -> Opts {
    let mut opts = Opts {
        scale: 0.5,
        seed: DEFAULT_SEED,
        json_dir: None,
        report: None,
        check: false,
        targets: BTreeSet::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--json" => {
                opts.json_dir = Some(args.next().expect("--json needs a directory"));
            }
            "--report" => {
                opts.report = Some(args.next().expect("--report needs a file path"));
            }
            "--check" => {
                opts.check = true;
            }
            "all" => {
                opts.targets.extend(ALL.iter().map(|s| s.to_string()));
            }
            t if ALL.contains(&t) => {
                opts.targets.insert(t.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("targets: {} | all", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
    if opts.targets.is_empty() && opts.report.is_none() && !opts.check {
        opts.targets.extend(ALL.iter().map(|s| s.to_string()));
    }
    opts
}

fn emit(opts: &Opts, target: &str, text: String, json: String) {
    println!("{text}");
    println!("{}", "=".repeat(72));
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        std::fs::write(format!("{dir}/{target}.json"), json + "\n").expect("write json");
    }
}

fn main() {
    let opts = parse_args();
    if opts.check {
        let rows = report::rows(opts.seed, opts.scale);
        let failed: Vec<_> = rows.iter().filter(|r| !r.ok).collect();
        for r in &rows {
            println!(
                "{} {} / {}: paper {}, measured {}",
                if r.ok { "PASS" } else { "FAIL" },
                r.artifact,
                r.metric,
                r.paper,
                r.measured
            );
        }
        println!(
            "\n{}/{} shape checks passed",
            rows.len() - failed.len(),
            rows.len()
        );
        if !failed.is_empty() {
            std::process::exit(1);
        }
        if opts.targets.is_empty() && opts.report.is_none() {
            return;
        }
    }
    if let Some(path) = &opts.report {
        let md = report::generate(opts.seed, opts.scale);
        std::fs::write(path, &md).expect("write report");
        println!("wrote paper-vs-measured report to {path}");
        if opts.targets.is_empty() {
            return;
        }
    }
    println!(
        "DYRS reproduction — scale {}, seed {}\n{}",
        opts.scale,
        opts.seed,
        "=".repeat(72)
    );
    for t in opts.targets.clone() {
        let (text, json) = match t.as_str() {
            "fig1" => {
                let f = fig01::run(opts.seed);
                (fig01::render(&f), json::to_string_pretty(&f))
            }
            "fig2" => {
                let f = fig02::run(opts.seed, 100_000);
                (fig02::render(&f), json::to_string_pretty(&f))
            }
            "fig3" => {
                let f = fig03::run(opts.seed, 40);
                (fig03::render(&f), json::to_string_pretty(&f))
            }
            "fig4" => {
                let f = fig04::run(opts.seed, opts.scale);
                (fig04::render(&f), json::to_string_pretty(&f))
            }
            "table1" => {
                let f = table1::run(opts.seed, opts.scale);
                (table1::render(&f), json::to_string_pretty(&f))
            }
            "fig5" => {
                let f = fig05::run(opts.seed, opts.scale);
                (fig05::render(&f), json::to_string_pretty(&f))
            }
            "fig6" => {
                let f = fig06::run(opts.seed, opts.scale);
                (fig06::render(&f), json::to_string_pretty(&f))
            }
            "fig7" => {
                let f = fig07::run(opts.seed, opts.scale);
                (fig07::render(&f), json::to_string_pretty(&f))
            }
            "fig8" => {
                let f = fig08::run(opts.seed, (28.0 * opts.scale).max(7.0) as u64);
                (fig08::render(&f), json::to_string_pretty(&f))
            }
            "fig9" => {
                let f = fig09::run(opts.seed, (20.0 * opts.scale).max(5.0) as u64);
                (fig09::render(&f), json::to_string_pretty(&f))
            }
            "table2" => {
                let f = table2::run(opts.seed, (20.0 * opts.scale).max(5.0) as u64);
                (table2::render(&f), json::to_string_pretty(&f))
            }
            "fig10" => {
                let f = fig10::run(opts.seed, (20.0 * opts.scale).max(5.0) as u64);
                (fig10::render(&f), json::to_string_pretty(&f))
            }
            "fig11" => {
                let f = fig11::run(opts.seed);
                (fig11::render(&f), json::to_string_pretty(&f))
            }
            "iterative" => {
                let f = iterative::run(opts.seed);
                (iterative::render(&f), json::to_string_pretty(&f))
            }
            "tiers" => {
                let f = tiers::run(opts.seed, opts.scale);
                (tiers::render(&f), json::to_string_pretty(&f))
            }
            "sensitivity" => {
                let f = sensitivity::run(opts.seed, opts.scale);
                (sensitivity::render(&f), json::to_string_pretty(&f))
            }
            "replay" => {
                let f = replay::run(opts.seed, opts.scale);
                (replay::render(&f), json::to_string_pretty(&f))
            }
            "policies" => {
                let f = policies::run(opts.seed, opts.scale);
                (policies::render(&f), json::to_string_pretty(&f))
            }
            "ablations" => {
                let gb = (20.0 * opts.scale).max(5.0) as u64;
                let parts = [
                    ablations::binding(opts.seed, gb),
                    ablations::refresh(opts.seed, gb),
                    ablations::queue_depth(opts.seed, gb),
                    ablations::eviction(opts.seed, gb),
                    ablations::serialization(opts.seed, gb),
                    ablations::memory_limit(opts.seed, opts.scale),
                ];
                let text = parts
                    .iter()
                    .map(ablations::render)
                    .collect::<Vec<_>>()
                    .join("\n");
                (text, json::to_string_pretty(&parts[..]))
            }
            _ => unreachable!("validated in parse_args"),
        };
        emit(&opts, &t, text, json);
    }
}
