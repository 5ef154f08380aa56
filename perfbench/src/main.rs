//! `dyrs-perfbench` — one workload of the repository benchmark.
//!
//! ```text
//! dyrs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--obs-off-op-ms <ms>] [--force-failure]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any correctness check failed. `perfbench/run.py` builds
//! this binary and is the command to run; see `perfbench/NOTES.md`.

mod control;
mod report;
mod stats;
mod swim;
mod tcp;
mod trace;

use report::{ratio, Checks, Metrics};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["swim_paper", "swim_wide", "master_scale", "tcp_cluster"];

/// End-to-end metrics, reported with `--trace 0` on every workload.
const END_TO_END: [&str; 4] = ["setup_s", "op_ms.p50", "mem_read_frac", "peak_rss_mb"];

/// Per-layer metrics, reported with `--trace 1` on every workload. A
/// count or share a workload cannot produce (its layer is idle there) is
/// reported as 0; every timing is measured on every workload.
const PER_LAYER: [(&str, &str); 43] = [
    ("bench.trace_overhead", "frac"),
    ("bench.op_ms.p90", "ms"),
    ("bench.blocks_per_s", "1/s"),
    ("bench.spans", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("engine.tasks", "count"),
    ("engine.job_mean_sim_s", "sim_s"),
    ("engine.map_task_mean_sim_s", "sim_s"),
    ("dfs.memory_reads", "count"),
    ("dfs.disk_reads", "count"),
    ("cluster.disk_busy_frac", "frac"),
    ("core.retarget_passes", "count"),
    ("core.bound", "count"),
    ("core.completed", "count"),
    ("core.missed_reads", "count"),
    ("core.useful_ratio", "frac"),
    ("sched.retarget_ms.p50", "ms"),
    ("sched.retarget_ms.p90", "ms"),
    ("sched.heartbeat_us.p50", "us"),
    ("sched.pull_us.p50", "us"),
    ("sched.admit_ms.p50", "ms"),
    ("sched.complete_us.p50", "us"),
    ("sched.read_us.p50", "us"),
    ("sched.rescored", "count"),
    ("sched.skipped", "count"),
    ("sched.skip_ratio", "frac"),
    ("sched.ceiling_hits", "count"),
    ("net.frames", "count"),
    ("net.bytes", "bytes"),
    ("net.wire_share", "frac"),
    ("net.codec_us.p50", "us"),
    ("net.send_us.p50", "us"),
    ("net.errors", "count"),
    ("node.heartbeats_per_op", "count"),
    ("obs.span_events", "count"),
    ("obs.provenance_records", "count"),
    ("obs.share", "frac"),
    ("obs.scrape_share", "frac"),
    ("obs.snapshot_us.p50", "us"),
    ("obs.scrape_us.p50", "us"),
    ("mem.peak_rss_mb", "MB"),
    ("bench.untraced_op_ms.p50", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs_off_op_ms: Option<f64>,
    force_failure: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut obs_off_op_ms, mut force_failure) = (None, false);
    while let Some(flag) = it.next() {
        if flag == "--force-failure" {
            force_failure = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--obs-off-op-ms" => {
                obs_off_op_ms = Some(value.parse::<f64>().map_err(|_| bad("a number"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        obs_off_op_ms,
        force_failure,
    })
}

/// What one workload measured, before selection.
struct Outcome {
    metrics: Metrics,
    checks: Checks,
    lines: Vec<String>,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// `1 − fast/slow`: the share of `slow`'s time that `fast` avoids.
fn share(slow: f64, fast: f64) -> f64 {
    1.0 - ratio(fast, slow)
}

/// The timing metrics every workload reports: set-up median and operation
/// median, plus (per-layer) the operation p90 and the median per-operation
/// rate of completed migrations.
fn end_to_end(m: &mut Metrics, setup: &stats::Samples, op: &stats::Samples, rate: &stats::Samples) {
    m.set("setup_s", setup.p50(), "s");
    m.set("op_ms.p50", op.p50() * 1e3, "ms");
    m.set("bench.op_ms.p90", op.quantile(0.9) * 1e3, "ms");
    m.set("bench.blocks_per_s", rate.p50(), "1/s");
}

fn run_swim(a: &Args, cluster: swim::Cluster, tr: &mut Tracer) -> Outcome {
    use swim::Variant;
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let seeds = swim::batch_seeds(cluster, a.seed);
    lines.push(format!("seeds: {seeds:?}"));

    // Warm-up: one untimed (but checked) simulation, so allocator and
    // cache state settle before the first timed one.
    swim::run(
        cluster,
        Variant::Shipped,
        &seeds[..1],
        Duration::ZERO,
        tr,
        &mut checks,
    );

    let budget = if a.trace { a.seconds / 4.0 } else { a.seconds };
    let base = swim::run(
        cluster,
        Variant::Shipped,
        &seeds,
        secs(budget),
        tr,
        &mut checks,
    );
    end_to_end(&mut m, &base.setup, &base.run, &base.rate);
    m.set("mem_read_frac", base.mem_read_frac(), "frac");
    m.set("peak_rss_mb", base.rss_mb, "MB");
    lines.push(base.setup.describe("swim.setup"));
    lines.push(base.generate.describe("swim.generate"));
    lines.push(base.new.describe("sim.new"));
    lines.push(base.run.describe("sim.run"));

    if a.trace {
        tr.set_on(true);
        let traced = swim::run(
            cluster,
            Variant::Shipped,
            &seeds,
            secs(budget),
            tr,
            &mut checks,
        );
        tr.set_on(false);
        m.set(
            "bench.trace_overhead",
            ratio(traced.run.p50(), base.run.p50()) - 1.0,
            "frac",
        );
        traced.layer_metrics(&mut m);

        let wire = swim::run(
            cluster,
            Variant::Wire,
            &seeds,
            secs(budget),
            tr,
            &mut checks,
        );
        let scrape = swim::run(
            cluster,
            Variant::Scrape,
            &seeds,
            secs(budget),
            tr,
            &mut checks,
        );
        lines.push(wire.run.describe("sim.run (wire flipped)"));
        lines.push(scrape.run.describe("sim.run (scrapes flipped)"));
        let (b, w, s) = (base.run.p50(), wire.run.p50(), scrape.run.p50());
        let (wire_share, scrape_share) = match cluster {
            swim::Cluster::Paper => (share(w, b), share(s, b)),
            swim::Cluster::Wide => (share(b, w), share(b, s)),
        };
        m.set("net.wire_share", wire_share, "frac");
        m.set("obs.scrape_share", scrape_share, "frac");

        // The control plane at this workload's size, for the scheduler,
        // codec and snapshot timings the simulator makes internally.
        let input = swim::generate(cluster, seeds[0]);
        let blocks: u64 = input
            .cfg
            .files
            .iter()
            .map(|f| f.bytes.div_ceil(input.cfg.block_size))
            .sum();
        let p = control::probe_params(cluster.nodes(), blocks, input.jobs.len() as u64);
        tr.set_on(true);
        let probe = control::run(p, a.seed, secs((a.seconds / 8.0).min(2.0)), tr, &mut checks);
        tr.set_on(false);
        probe.layer_metrics(&mut m);
        lines.extend(probe.describe().into_iter().map(|l| format!("probe {l}")));
    }
    Outcome {
        metrics: m,
        checks,
        lines,
    }
}

fn run_master_scale(a: &Args, tr: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let p = control::MASTER_SCALE;
    let budget = if a.trace { a.seconds / 3.0 } else { a.seconds };
    let base = control::run(p, a.seed, secs(budget), tr, &mut checks);
    end_to_end(&mut m, &base.setup, &base.window, &base.rate);
    m.set("mem_read_frac", base.mem_read_frac(), "frac");
    lines.extend(base.describe());

    if a.trace {
        tr.set_on(true);
        let traced = control::run(p, a.seed, secs(budget), tr, &mut checks);
        tr.set_on(false);
        m.set(
            "bench.trace_overhead",
            ratio(traced.window.p50(), base.window.p50()) - 1.0,
            "frac",
        );
        traced.layer_metrics(&mut m);
        traced.count_metrics(&mut m);
        m.set(
            "obs.scrape_share",
            ratio(base.scrape.sum(), base.scrape.sum() + base.window.sum()),
            "frac",
        );

        let wired = control::run(
            control::CtlParams { wire: true, ..p },
            a.seed,
            secs(budget),
            tr,
            &mut checks,
        );
        m.set(
            "net.wire_share",
            share(wired.window.p50(), base.window.p50()),
            "frac",
        );
        let wired_windows = wired.window.len() as f64;
        m.set(
            "net.frames",
            ratio(wired.frames as f64, wired_windows),
            "count",
        );
        m.set(
            "net.bytes",
            ratio(wired.bytes as f64, wired_windows),
            "bytes",
        );
        m.set("net.codec_us.p50", wired.codec.p50() * 1e6, "us");
        m.set("net.send_us.p50", wired.send.p50() * 1e6, "us");
        m.set("obs.scrape_us.p50", wired.scrape.p50() * 1e6, "us");
        lines.extend(wired.describe().into_iter().map(|l| format!("wired {l}")));
    }
    Outcome {
        metrics: m,
        checks,
        lines,
    }
}

fn run_tcp(a: &Args, tr: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let mut lines = Vec::new();
    let budget = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let base = tcp::run(a.seed, secs(budget), tr, &mut checks);
    end_to_end(&mut m, &base.setup, &base.group, &base.rate);
    m.set("mem_read_frac", base.mem_read_frac(), "frac");
    lines.extend(base.describe());

    if a.trace {
        // The control plane at this cluster's size, for the scheduler and
        // snapshot timings the daemons make internally.
        let p = control::probe_params(tcp::SLAVES, tcp::BATCH_BLOCKS, 1);
        tr.set_on(true);
        let probe = control::run(p, a.seed, secs((a.seconds / 8.0).min(2.0)), tr, &mut checks);
        probe.layer_metrics(&mut m);
        lines.extend(probe.describe().into_iter().map(|l| format!("probe {l}")));
        let traced = tcp::run(a.seed, secs(budget), tr, &mut checks);
        tr.set_on(false);
        m.set(
            "bench.trace_overhead",
            ratio(traced.batch.p50(), base.batch.p50()) - 1.0,
            "frac",
        );
        traced.layer_metrics(&mut m);
        let busy = traced.batch.sum() + traced.scrape.sum();
        m.set("net.wire_share", ratio(traced.send.sum(), busy), "frac");
        m.set("obs.scrape_share", ratio(traced.scrape.sum(), busy), "frac");
    }
    Outcome {
        metrics: m,
        checks,
        lines,
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("PERFBENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench"))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dyrs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(false, a.seed);
    let obs = if cfg!(feature = "obs") { "on" } else { "off" };
    println!(
        "workload {} seed {} seconds {} trace {} obs {obs}",
        a.workload, a.seed, a.seconds, a.trace as u8
    );
    let mut o = match a.workload.as_str() {
        "swim_paper" => run_swim(&a, swim::Cluster::Paper, &mut tr),
        "swim_wide" => run_swim(&a, swim::Cluster::Wide, &mut tr),
        "master_scale" => run_master_scale(&a, &mut tr),
        _ => run_tcp(&a, &mut tr),
    };
    if a.force_failure {
        o.checks
            .op(vec!["forced failure (--force-failure)".to_owned()]);
    }
    let rss = report::peak_rss_mb();
    if o.metrics.get("peak_rss_mb").is_none() {
        o.metrics.set("peak_rss_mb", rss, "MB");
    }
    for l in &o.lines {
        println!("  {l}");
    }
    for v in &o.checks.violations {
        println!("  VIOLATION {v}");
    }
    println!(
        "  checks: {} attempted, {} failed (fail_frac {})",
        o.checks.attempted,
        o.checks.failed,
        o.checks.fail_frac()
    );

    let selected = if a.trace {
        let m = &mut o.metrics;
        m.set("mem.peak_rss_mb", rss, "MB");
        m.set("bench.spans", tr.len() as f64, "count");
        let base_ms = m.get("op_ms.p50").unwrap_or(0.0);
        m.set("bench.untraced_op_ms.p50", base_ms, "ms");
        m.set(
            "obs.share",
            a.obs_off_op_ms.map_or(0.0, |off| share(base_ms, off)),
            "frac",
        );
        for (name, unit) in PER_LAYER {
            if m.get(name).is_none() && !matches!(unit, "ms" | "us" | "s") {
                m.set(name, 0.0, unit);
            }
        }
        for (name, (n, total, own)) in tr.self_times() {
            println!("  span {name:<22} n={n:<7} total {total:.4} s  self {own:.4} s");
        }
        let path = out_dir().join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  spans not written ({}): {e}", path.display()),
        }
        m.select(&PER_LAYER.map(|(n, _)| n))
    } else {
        o.metrics.select(&END_TO_END)
    };
    let selected = match selected {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dyrs-perfbench: {e}");
            std::process::exit(3);
        }
    };
    println!("{}", report::result_line(&o.checks, &selected));
    if !o.checks.correct() {
        std::process::exit(1);
    }
}
