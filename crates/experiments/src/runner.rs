//! Parallel sweep runner.
//!
//! Every experiment is a set of *independent* simulations (policies ×
//! parameters × seeds). Each simulation is single-threaded and
//! deterministic; the sweep fans them out over `std::thread::scope`
//! workers with static round-robin partitioning — no shared mutable
//! state during the run, per-worker result buffers, one merge at the
//! barrier. Results come back in input order regardless of which worker
//! ran what, so parallel and serial sweeps are bit-identical.

use dyrs_engine::JobSpec;
use dyrs_sim::{SimConfig, SimResult, Simulation};

/// One simulation to run: a label the experiment uses to find the result,
/// plus the full configuration and workload.
pub struct SimTask {
    /// Caller-chosen identifier (e.g. "DYRS/q15").
    pub label: String,
    /// Simulation config.
    pub cfg: SimConfig,
    /// Workload jobs.
    pub jobs: Vec<JobSpec>,
}

impl SimTask {
    /// Shorthand constructor.
    pub fn new(label: impl Into<String>, cfg: SimConfig, jobs: Vec<JobSpec>) -> Self {
        SimTask {
            label: label.into(),
            cfg,
            jobs,
        }
    }
}

/// Run all tasks, using up to `threads` workers (0 = one per available
/// CPU). Returns `(label, result)` pairs in input order.
pub fn run_all(tasks: Vec<SimTask>, threads: usize) -> Vec<(String, SimResult)> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(n);

    if threads <= 1 {
        return tasks.into_iter().map(run_one).collect();
    }

    // Static round-robin partitioning: worker w takes tasks w, w+T, w+2T…
    // and returns its results in that order, so interleaving the workers'
    // buffers restores input order.
    let mut shares: Vec<Vec<SimTask>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        shares[i % threads].push(task);
    }
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(move || share.into_iter().map(run_one).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep worker panicked").into_iter())
            .collect()
    });
    (0..n)
        .map(|i| results[i % threads].next().expect("every task ran"))
        .collect()
}

fn run_one(task: SimTask) -> (String, SimResult) {
    (task.label, Simulation::new(task.cfg, task.jobs).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyrs::MigrationPolicy;
    use dyrs_dfs::JobId;
    use dyrs_sim::FileSpec;
    use simkit::SimTime;

    fn task(label: &str, seed: u64) -> SimTask {
        let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, seed);
        cfg.files.push(FileSpec::new("f", 4 * (256 << 20)));
        let jobs = vec![JobSpec::map_only(
            JobId(0),
            "j",
            SimTime::ZERO,
            vec!["f".into()],
        )];
        SimTask::new(label, cfg, jobs)
    }

    #[test]
    fn empty_sweep() {
        assert!(run_all(Vec::new(), 4).is_empty());
    }

    #[test]
    fn results_in_input_order() {
        let tasks = (0..8).map(|i| task(&format!("t{i}"), i)).collect();
        let out = run_all(tasks, 4);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]);
    }

    #[test]
    fn parallel_equals_serial() {
        let mk = || (0..6).map(|i| task(&format!("t{i}"), 42 + i)).collect();
        let serial = run_all(mk(), 1);
        let parallel = run_all(mk(), 4);
        for ((la, ra), (lb, rb)) in serial.iter().zip(&parallel) {
            assert_eq!(la, lb);
            assert_eq!(ra.end_time, rb.end_time);
            assert_eq!(ra.jobs[0].duration, rb.jobs[0].duration);
            assert_eq!(ra.master, rb.master);
        }
    }
}
