//! SWIM on the simulator: the paper's 7-node heterogeneous cluster
//! (`swim_paper`) and a 64-node cluster with SWIM scaled to it
//! (`swim_wide`).
//!
//! A run cycles whole rounds over a fixed batch of seeds derived from the
//! workload seed, so every seed is simulated the same number of times and
//! each rerun must reproduce the first run's trace digest and stats.

use crate::report::{expect, ratio, Checks, Metrics};
use crate::stats::Samples;
use crate::trace::Tracer;
use dyrs::MigrationPolicy;
use dyrs_cluster::{ClusterSpec, InterferenceSchedule, NodeId};
use dyrs_engine::JobSpec;
use dyrs_experiments::scenarios::{hetero_config, DD_STREAMS};
use dyrs_sim::config::WireMode;
use dyrs_sim::{SimConfig, SimResult, Simulation};
use dyrs_workloads::swim::{self, SwimParams};
use simkit::{Rng, SimDuration};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nodes in the wide cluster: the simulator's ceiling (`notify_read`
/// marks nodes in a fixed 64-entry array).
pub const WIDE_NODES: u32 = 64;
/// One dd-slowed node per this many nodes on the wide cluster.
const WIDE_SLOW_EVERY: u32 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cluster {
    /// `hetero_config`: 7 nodes, two dd streams on node 0, in-process
    /// wire, no scrapes.
    Paper,
    /// 64 nodes, loopback wire, a scrape every 10 simulated seconds.
    Wide,
}

impl Cluster {
    pub fn nodes(self) -> u32 {
        match self {
            Cluster::Paper => 7,
            Cluster::Wide => WIDE_NODES,
        }
    }

    /// Distinct seeds per round.
    pub fn batch(self) -> usize {
        match self {
            Cluster::Paper => 96,
            Cluster::Wide => 16,
        }
    }

    fn params(self) -> SwimParams {
        let base = SwimParams::default();
        match self {
            Cluster::Paper => base,
            Cluster::Wide => {
                let k = f64::from(WIDE_NODES) / 7.0;
                SwimParams {
                    jobs: (base.jobs as f64 * k) as usize,
                    total_input_bytes: (base.total_input_bytes as f64 * k) as u64,
                    mean_interarrival_secs: base.mean_interarrival_secs / k,
                    ..base
                }
            }
        }
    }

    /// The shipped configuration for `seed`.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            Cluster::Paper => hetero_config(MigrationPolicy::Dyrs, seed),
            Cluster::Wide => {
                let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, seed);
                cfg.cluster = ClusterSpec::uniform(WIDE_NODES as usize);
                for n in (0..WIDE_NODES).step_by(WIDE_SLOW_EVERY as usize) {
                    cfg.interference
                        .push(InterferenceSchedule::persistent(NodeId(n), DD_STREAMS));
                }
                cfg.wire = WireMode::Loopback;
                cfg.scrape_interval = Some(SimDuration::from_secs(10));
                cfg
            }
        }
    }
}

/// A layer ablation: the same seeds with one config field flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Shipped,
    /// Wire mode flipped (in-process ↔ loopback).
    Wire,
    /// Scrapes flipped (off ↔ every 10 simulated seconds).
    Scrape,
}

/// One generated input: config and jobs for one seed.
pub struct Input {
    pub cfg: SimConfig,
    pub jobs: Vec<JobSpec>,
}

/// The seeds of one run's batch, derived from the workload seed.
pub fn batch_seeds(cluster: Cluster, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5357_494d);
    (0..cluster.batch()).map(|_| rng.next_u64() >> 16).collect()
}

/// Generate the SWIM input for one seed.
pub fn generate(cluster: Cluster, seed: u64) -> Input {
    let w = swim::generate(&cluster.params(), seed);
    let mut cfg = cluster.config(seed);
    cfg.files = w.files;
    Input { cfg, jobs: w.jobs }
}

fn apply(cluster: Cluster, variant: Variant, cfg: &mut SimConfig) {
    match (variant, cluster) {
        (Variant::Shipped, _) => {}
        (Variant::Wire, Cluster::Paper) => cfg.wire = WireMode::Loopback,
        (Variant::Wire, Cluster::Wide) => cfg.wire = WireMode::InProcess,
        (Variant::Scrape, Cluster::Paper) => cfg.scrape_interval = Some(SimDuration::from_secs(10)),
        (Variant::Scrape, Cluster::Wide) => cfg.scrape_interval = None,
    }
}

/// The deterministic outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    pub digest: u64,
    pub events: u64,
    pub jobs: usize,
    pub failed_jobs: usize,
    pub tasks: usize,
    pub job_mean_s: f64,
    pub map_mean_s: f64,
    pub mem_read_frac: f64,
    pub memory_reads: u64,
    pub disk_reads: u64,
    pub disk_busy_frac: f64,
    pub retarget_passes: u64,
    pub bound: u64,
    pub completed: u64,
    pub missed_reads: u64,
    pub frames: u64,
    pub bytes: u64,
    pub scrapes: u64,
    pub span_events: u64,
    pub provenance: u64,
    pub span_bound: u64,
    pub span_finished: u64,
}

impl SimStats {
    pub fn of(r: &SimResult) -> Self {
        let end = r.end_time.as_secs_f64();
        let busy: f64 = r.nodes.iter().map(|n| n.disk_busy.as_secs_f64()).sum();
        SimStats {
            digest: r.trace_digest,
            events: r.events_processed,
            jobs: r.jobs.len(),
            failed_jobs: r.failed_jobs.len(),
            tasks: r.tasks.len(),
            job_mean_s: r.mean_job_duration_secs(),
            map_mean_s: r.mean_map_task_secs(),
            mem_read_frac: r.memory_read_fraction(),
            memory_reads: r.nodes.iter().map(|n| n.memory_reads).sum(),
            disk_reads: r.nodes.iter().map(|n| n.disk_reads).sum(),
            disk_busy_frac: ratio(busy, end * r.nodes.len() as f64),
            retarget_passes: r.master.retarget_passes,
            bound: r.master.bound,
            completed: r.master.completed,
            missed_reads: r.master.missed_reads,
            frames: r.wire_frames,
            bytes: r.wire_bytes,
            scrapes: r.scrapes,
            span_events: r.obs.events.len() as u64,
            provenance: r.obs.provenance.len() as u64,
            span_bound: r.obs.counter("span.bound"),
            span_finished: r.obs.counter("span.finished"),
        }
    }
}

/// What a segment of simulations measured.
#[derive(Debug, Default)]
pub struct SwimOut {
    /// Generate + `Simulation::new`, before every simulation.
    pub setup: Samples,
    pub generate: Samples,
    pub new: Samples,
    pub run: Samples,
    /// Migrations completed per second of `run`, per simulation.
    pub rate: Samples,
    /// First-run stats per seed, in batch order.
    pub stats: Vec<SimStats>,
    pub events: u64,
    /// Process peak RSS once every seed has run once. Later rounds repeat
    /// the same work; reading the peak here keeps it from depending on how
    /// many rounds a run's time allowed.
    pub rss_mb: f64,
}

impl SwimOut {
    fn mean(&self, f: impl Fn(&SimStats) -> f64) -> f64 {
        ratio(self.stats.iter().map(f).sum(), self.stats.len() as f64)
    }

    pub fn mem_read_frac(&self) -> f64 {
        self.mean(|s| s.mem_read_frac)
    }

    /// The simulator, engine, DFS, cluster, core, wire and obs counts,
    /// each the mean over the batch's seeds.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        m.set("sim.events", self.mean(|s| s.events as f64), "count");
        m.set(
            "sim.events_per_s",
            ratio(self.events as f64, self.run.sum()),
            "1/s",
        );
        m.set("engine.tasks", self.mean(|s| s.tasks as f64), "count");
        m.set(
            "engine.job_mean_sim_s",
            self.mean(|s| s.job_mean_s),
            "sim_s",
        );
        m.set(
            "engine.map_task_mean_sim_s",
            self.mean(|s| s.map_mean_s),
            "sim_s",
        );
        m.set(
            "dfs.memory_reads",
            self.mean(|s| s.memory_reads as f64),
            "count",
        );
        m.set(
            "dfs.disk_reads",
            self.mean(|s| s.disk_reads as f64),
            "count",
        );
        m.set(
            "cluster.disk_busy_frac",
            self.mean(|s| s.disk_busy_frac),
            "frac",
        );
        m.set(
            "core.retarget_passes",
            self.mean(|s| s.retarget_passes as f64),
            "count",
        );
        m.set("core.bound", self.mean(|s| s.bound as f64), "count");
        m.set("core.completed", self.mean(|s| s.completed as f64), "count");
        m.set(
            "core.missed_reads",
            self.mean(|s| s.missed_reads as f64),
            "count",
        );
        m.set(
            "core.useful_ratio",
            ratio(
                self.mean(|s| s.span_finished as f64),
                self.mean(|s| s.span_bound as f64),
            ),
            "frac",
        );
        m.set("net.frames", self.mean(|s| s.frames as f64), "count");
        m.set("net.bytes", self.mean(|s| s.bytes as f64), "bytes");
        m.set(
            "obs.span_events",
            self.mean(|s| s.span_events as f64),
            "count",
        );
        m.set(
            "obs.provenance_records",
            self.mean(|s| s.provenance as f64),
            "count",
        );
    }
}

/// Simulate whole rounds over `inputs` until `budget` has passed (at
/// least one round). Every simulation is one checked operation.
pub fn run(
    cluster: Cluster,
    variant: Variant,
    seeds: &[u64],
    budget: Duration,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> SwimOut {
    let mut out = SwimOut::default();
    let mut first: BTreeMap<u64, SimStats> = BTreeMap::new();
    let t0 = Instant::now();
    loop {
        for &seed in seeds {
            // Set-up, timed before every simulation so its median samples
            // the whole run: generate the input and build the simulation.
            let span = tr.begin("swim.setup");
            let t = Instant::now();
            let (mut input, secs) = tr.time("swim.generate", || generate(cluster, seed));
            out.generate.push(secs);
            apply(cluster, variant, &mut input.cfg);
            let jobs = input.jobs.len();
            let (sim, secs) = tr.time("sim.new", || Simulation::new(input.cfg, input.jobs));
            out.new.push(secs);
            out.setup.push(t.elapsed().as_secs_f64());
            tr.end(span);
            let (r, secs) = tr.time("sim.run", || sim.run());
            out.run.push(secs);
            let st = SimStats::of(&r);
            drop(r);
            out.rate.push(ratio(st.completed as f64, secs));
            out.events += st.events;
            let problems = check(cluster, variant, seed, jobs, &st, first.get(&seed));
            checks.op(problems);
            first.entry(seed).or_insert(st);
        }
        if out.rss_mb == 0.0 {
            out.rss_mb = crate::report::peak_rss_mb();
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    out.stats = seeds.iter().filter_map(|s| first.remove(s)).collect();
    out
}

fn check(
    cluster: Cluster,
    variant: Variant,
    seed: u64,
    jobs: usize,
    st: &SimStats,
    earlier: Option<&SimStats>,
) -> Vec<String> {
    let mut p = Vec::new();
    expect(&mut p, st.failed_jobs == 0, || {
        format!("seed {seed}: {} jobs failed", st.failed_jobs)
    });
    expect(&mut p, st.jobs == jobs, || {
        format!("seed {seed}: {} of {jobs} jobs completed", st.jobs)
    });
    expect(&mut p, st.completed > 0, || {
        format!("seed {seed}: no migration completed")
    });
    let wire_on = (cluster == Cluster::Wide) != (variant == Variant::Wire);
    expect(&mut p, (st.frames > 0) == wire_on, || {
        format!(
            "seed {seed}: {} wire frames with the wire {}",
            st.frames,
            if wire_on { "on" } else { "off" }
        )
    });
    if let Some(e) = earlier {
        expect(&mut p, e == st, || {
            format!(
                "seed {seed}: rerun diverged (digest {:x} vs {:x})",
                st.digest, e.digest
            )
        });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = batch_seeds(Cluster::Paper, 5);
        assert_eq!(a, batch_seeds(Cluster::Paper, 5));
        assert_ne!(a, batch_seeds(Cluster::Paper, 6));
        let (x, y) = (generate(Cluster::Wide, a[0]), generate(Cluster::Wide, a[0]));
        assert_eq!(format!("{:?}", x.cfg), format!("{:?}", y.cfg));
        assert_eq!(format!("{:?}", x.jobs), format!("{:?}", y.jobs));
        assert_eq!(x.jobs.len(), 1828);
        assert_eq!(x.cfg.cluster.len(), 64);
        assert_eq!(x.cfg.interference.len(), 10);
    }

    #[test]
    fn reruns_reproduce_stats_and_pass_checks() {
        let seeds = [3];
        let mut checks = Checks::default();
        let mut tr = Tracer::new(false, 1);
        let a = run(
            Cluster::Paper,
            Variant::Shipped,
            &seeds,
            Duration::ZERO,
            &mut tr,
            &mut checks,
        );
        let b = run(
            Cluster::Paper,
            Variant::Shipped,
            &seeds,
            Duration::ZERO,
            &mut tr,
            &mut checks,
        );
        assert!(checks.correct(), "{:?}", checks.violations);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats[0].mem_read_frac > 0.0);
    }
}
