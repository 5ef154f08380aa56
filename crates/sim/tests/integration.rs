//! End-to-end integration tests of the full simulator: cluster + DFS +
//! DYRS + engine driven through realistic scenarios.

use dyrs::MigrationPolicy;
use dyrs_cluster::{InterferenceSchedule, NodeId};
use dyrs_dfs::JobId;
use dyrs_engine::JobSpec;
use dyrs_sim::{FailureEvent, FileSpec, SimConfig, SimResult, Simulation};
use simkit::{SimDuration, SimTime};

const MB: u64 = 1 << 20;
const BLOCK: u64 = 256 * MB;

fn one_job_cfg(policy: MigrationPolicy, blocks: u64, seed: u64) -> (SimConfig, Vec<JobSpec>) {
    let mut cfg = SimConfig::paper_default(policy, seed);
    cfg.files.push(FileSpec::new("input", blocks * BLOCK));
    let job = JobSpec::map_only(JobId(0), "job", SimTime::ZERO, vec!["input".into()]);
    (cfg, vec![job])
}

fn run_one(policy: MigrationPolicy, blocks: u64, seed: u64) -> SimResult {
    let (cfg, jobs) = one_job_cfg(policy, blocks, seed);
    Simulation::new(cfg, jobs).run()
}

#[test]
fn single_job_completes_under_all_policies() {
    for policy in [
        MigrationPolicy::Disabled,
        MigrationPolicy::InstantRam,
        MigrationPolicy::Ignem,
        MigrationPolicy::Naive,
        MigrationPolicy::Dyrs,
    ] {
        let r = run_one(policy, 14, 1);
        assert_eq!(r.jobs.len(), 1, "{policy:?} must complete the job");
        assert!(r.failed_jobs.is_empty());
        assert_eq!(
            r.tasks.iter().filter(|t| t.is_map).count(),
            14,
            "{policy:?}: one map per block"
        );
    }
}

#[test]
fn instant_ram_reads_everything_from_memory() {
    let r = run_one(MigrationPolicy::InstantRam, 14, 1);
    assert!(
        (r.memory_read_fraction() - 1.0).abs() < 1e-9,
        "all reads must hit memory, got {}",
        r.memory_read_fraction()
    );
}

#[test]
fn disabled_reads_everything_from_disk() {
    let r = run_one(MigrationPolicy::Disabled, 14, 1);
    assert_eq!(r.memory_read_fraction(), 0.0);
    assert_eq!(r.master.completed, 0);
    assert_eq!(r.nodes.iter().map(|n| n.slave.completed).sum::<u64>(), 0);
}

#[test]
fn dyrs_migrates_during_lead_time_and_speeds_up() {
    // 14 blocks: the whole input fits in the lead-time migration window,
    // so DYRS must strictly beat HDFS (a single task wave over a partially
    // migrated input would tie — its makespan is one cold read).
    let hdfs = run_one(MigrationPolicy::Disabled, 14, 1);
    let ram = run_one(MigrationPolicy::InstantRam, 14, 1);
    let dyrs = run_one(MigrationPolicy::Dyrs, 14, 1);

    let d_hdfs = hdfs.jobs[0].duration.as_secs_f64();
    let d_ram = ram.jobs[0].duration.as_secs_f64();
    let d_dyrs = dyrs.jobs[0].duration.as_secs_f64();

    assert!(
        d_ram < d_hdfs,
        "RAM bound must beat disk: {d_ram} vs {d_hdfs}"
    );
    assert!(
        d_dyrs < d_hdfs,
        "DYRS must beat plain HDFS: {d_dyrs} vs {d_hdfs}"
    );
    assert!(
        d_dyrs >= d_ram * 0.99,
        "DYRS cannot beat the in-RAM bound: {d_dyrs} vs {d_ram}"
    );
    assert!(dyrs.master.completed > 0, "some migrations must complete");
    assert!(
        dyrs.memory_read_fraction() > 0.2,
        "a meaningful share of reads must be served from memory, got {}",
        dyrs.memory_read_fraction()
    );
}

#[test]
fn runs_are_deterministic_under_a_seed() {
    let a = run_one(MigrationPolicy::Dyrs, 20, 7);
    let b = run_one(MigrationPolicy::Dyrs, 20, 7);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.jobs[0].duration, b.jobs[0].duration);
    assert_eq!(a.master, b.master);
    assert_eq!(a.reads.len(), b.reads.len());
    for (x, y) in a.reads.iter().zip(&b.reads) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_change_placement_but_not_correctness() {
    let a = run_one(MigrationPolicy::Dyrs, 20, 1);
    let b = run_one(MigrationPolicy::Dyrs, 20, 2);
    assert_eq!(a.jobs.len(), 1);
    assert_eq!(b.jobs.len(), 1);
    // placement differs → per-node read counts differ (overwhelmingly likely)
    assert_ne!(
        a.reads_per_node(7),
        b.reads_per_node(7),
        "different placement seeds should shift reads"
    );
}

#[test]
fn dyrs_avoids_handicapped_node_ignem_does_not() {
    let slow = NodeId(0);
    let mk = |policy| {
        let mut cfg = SimConfig::paper_default(policy, 3);
        cfg.files.push(FileSpec::new("input", 56 * BLOCK));
        cfg.interference
            .push(InterferenceSchedule::persistent(slow, 8));
        let job = JobSpec::map_only(JobId(0), "job", SimTime::ZERO, vec!["input".into()]);
        Simulation::new(cfg, vec![job]).run()
    };
    let dyrs = mk(MigrationPolicy::Dyrs);
    let ignem = mk(MigrationPolicy::Ignem);

    // DYRS should *bind* far less migration work to the slow node than the
    // per-node average; Ignem binds uniformly (most of its slow-node
    // migrations end up cancelled by missed reads, so count bound work =
    // completed + missed, not completions).
    let bound = |r: &SimResult, n: usize| {
        (r.nodes[n].slave.completed + r.nodes[n].slave.missed_reads) as f64
    };
    let dyrs_slow = bound(&dyrs, slow.index());
    let dyrs_avg = (0..7).map(|i| bound(&dyrs, i)).sum::<f64>() / 7.0;
    let ignem_slow = bound(&ignem, slow.index());
    let ignem_avg = (0..7).map(|i| bound(&ignem, i)).sum::<f64>() / 7.0;
    assert!(
        dyrs_slow < dyrs_avg * 0.5,
        "DYRS slow-node bound work {dyrs_slow} vs avg {dyrs_avg}"
    );
    assert!(
        ignem_slow > ignem_avg * 0.5,
        "Ignem should not avoid the slow node: {ignem_slow} vs avg {ignem_avg}"
    );
    // And DYRS must finish the job faster than Ignem under heterogeneity.
    assert!(dyrs.jobs[0].duration < ignem.jobs[0].duration);
}

#[test]
fn estimator_series_tracks_interference() {
    // Persistent interference on node 0: its migration-time estimate must
    // sit well above a quiet node's (Fig. 9a shape).
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 5);
    cfg.files.push(FileSpec::new("input", 56 * BLOCK));
    cfg.interference
        .push(InterferenceSchedule::persistent(NodeId(0), 8));
    let job = JobSpec::map_only(JobId(0), "job", SimTime::ZERO, vec!["input".into()]);
    let r = Simulation::new(cfg, vec![job]).run();
    let end = r.end_time;
    let loud = r.nodes[0]
        .estimate_series
        .time_weighted_mean(SimTime::from_secs(3), end, 0.0);
    let quiet = r.nodes[1]
        .estimate_series
        .time_weighted_mean(SimTime::from_secs(3), end, 0.0);
    assert!(
        loud > quiet * 1.5,
        "interfered node estimate {loud:.2}s must exceed quiet {quiet:.2}s"
    );
}

#[test]
fn memory_is_evicted_after_job_completion() {
    let r = run_one(MigrationPolicy::Dyrs, 20, 1);
    for n in &r.nodes {
        // peak was nonzero somewhere, but at the end everything is clean
        let last = n.buffer_series.points().last().map(|&(_, v)| v);
        if let Some(v) = last {
            assert!(
                v <= 1.0,
                "{}: buffer must drain after the job evicts, got {v}",
                n.node
            );
        }
    }
    let total_peak: u64 = r.nodes.iter().map(|n| n.peak_buffer_bytes).sum();
    assert!(
        total_peak > 0,
        "migration must have pinned memory at some point"
    );
}

#[test]
fn memory_limit_stalls_but_never_breaks() {
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
    cfg.files.push(FileSpec::new("input", 40 * BLOCK));
    cfg.mem_limit = Some(2 * BLOCK); // tiny buffers: heavy stalling
    let job = JobSpec::map_only(JobId(0), "job", SimTime::ZERO, vec!["input".into()]);
    let r = Simulation::new(cfg, vec![job]).run();
    assert_eq!(r.jobs.len(), 1);
    for n in &r.nodes {
        assert!(
            n.peak_buffer_bytes <= 2 * BLOCK,
            "{}: hard limit violated ({} bytes)",
            n.node,
            n.peak_buffer_bytes
        );
    }
}

#[test]
fn master_restart_degrades_but_does_not_break() {
    let (mut cfg, jobs) = one_job_cfg(MigrationPolicy::Dyrs, 28, 1);
    cfg.failures.push(FailureEvent::MasterRestart {
        at: SimTime::from_secs(4),
    });
    let r = Simulation::new(cfg, jobs).run();
    assert_eq!(r.jobs.len(), 1, "job must still complete");
    assert!(r.failed_jobs.is_empty());
}

#[test]
fn slave_restart_drops_buffers_and_job_still_completes() {
    let (mut cfg, jobs) = one_job_cfg(MigrationPolicy::Dyrs, 28, 1);
    cfg.failures.push(FailureEvent::SlaveRestart {
        at: SimTime::from_secs(5),
        node: NodeId(2),
    });
    let r = Simulation::new(cfg, jobs).run();
    assert_eq!(r.jobs.len(), 1);
    assert!(r.failed_jobs.is_empty());
}

#[test]
fn node_failure_fails_over_reads() {
    let (mut cfg, jobs) = one_job_cfg(MigrationPolicy::Dyrs, 28, 1);
    cfg.failures.push(FailureEvent::NodeDown {
        at: SimTime::from_secs(10),
        node: NodeId(3),
    });
    let r = Simulation::new(cfg, jobs).run();
    assert_eq!(r.jobs.len(), 1, "3x replication must survive one node loss");
    assert!(r.failed_jobs.is_empty());
    // the dead node serves nothing after its failure
    let after = r
        .reads
        .iter()
        .filter(|rd| rd.source == NodeId(3) && rd.at > SimTime::from_secs(10))
        .count();
    assert_eq!(after, 0, "dead node must serve no reads");
}

#[test]
fn killed_job_leaks_are_scavenged() {
    // Two jobs; the first is killed mid-flight without evicting. The
    // second runs long enough that memory pressure (tiny buffers) forces a
    // scavenge, which reclaims the dead job's blocks.
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
    cfg.files.push(FileSpec::new("a", 10 * BLOCK));
    cfg.files.push(FileSpec::new("b", 20 * BLOCK));
    cfg.mem_limit = Some(3 * BLOCK);
    cfg.failures.push(FailureEvent::KillJob {
        at: SimTime::from_secs(6),
        job: JobId(0),
    });
    let j0 = JobSpec::map_only(JobId(0), "victim", SimTime::ZERO, vec!["a".into()]);
    let mut j1 = JobSpec::map_only(
        JobId(1),
        "survivor",
        SimTime::from_secs(12),
        vec!["b".into()],
    );
    j1.implicit_eviction = false; // exercise explicit path too
    let r = Simulation::new(cfg, vec![j0, j1]).run();
    assert_eq!(r.failed_jobs, vec![JobId(0)]);
    assert_eq!(r.jobs.len(), 1);
    assert_eq!(r.jobs[0].job, JobId(1));
}

#[test]
fn hive_style_dependent_jobs_run_in_order() {
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
    cfg.files.push(FileSpec::new("t1", 8 * BLOCK));
    cfg.files.push(FileSpec::new("t2", 4 * BLOCK));
    let mut stage1 = JobSpec::map_only(JobId(0), "q-s1", SimTime::ZERO, vec!["t1".into()]);
    stage1.shuffle_bytes = 64 * MB;
    stage1.reduce_tasks = 2;
    let mut stage2 = JobSpec::map_only(JobId(1), "q-s2", SimTime::ZERO, vec!["t2".into()]);
    stage2.depends_on = vec![JobId(0)];
    let r = Simulation::new(cfg, vec![stage1, stage2]).run();
    assert_eq!(r.jobs.len(), 2);
    let s1 = r.job(JobId(0)).unwrap();
    let s2 = r.job(JobId(1)).unwrap();
    // stage 2 ran entirely after stage 1's completion
    assert!(s2.duration.as_secs_f64() > 0.0);
    let s1_end = r
        .reads
        .iter()
        .filter(|rd| rd.job == JobId(0))
        .map(|rd| rd.at)
        .max()
        .unwrap();
    let s2_start = r
        .reads
        .iter()
        .filter(|rd| rd.job == JobId(1))
        .map(|rd| rd.at)
        .min()
        .unwrap();
    assert!(s2_start > s1_end, "stages must not overlap");
    assert!(s1.map_tasks == 8 && s2.map_tasks == 4);
}

#[test]
fn lead_time_includes_platform_overhead() {
    let r = run_one(MigrationPolicy::Disabled, 7, 1);
    let lead = r.jobs[0].lead_time;
    assert!(
        lead >= SimDuration::from_secs(8),
        "lead-time {lead} must include the 8s platform overhead"
    );
}

#[test]
fn extra_lead_time_migrates_more() {
    // Input large enough (60 GB) that the zero-lead run cannot cover it
    // all; extra lead-time must then raise coverage and shrink the map
    // phase (the Fig. 11 mechanism).
    let runner = |extra: u64| {
        let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
        cfg.files.push(FileSpec::new("input", 240 * BLOCK));
        let mut job = JobSpec::map_only(JobId(0), "sort", SimTime::ZERO, vec!["input".into()]);
        job.extra_lead_time = SimDuration::from_secs(extra);
        Simulation::new(cfg, vec![job]).run()
    };
    let short = runner(0);
    let long = runner(120);
    assert!(
        long.memory_read_fraction() > short.memory_read_fraction(),
        "more lead-time must migrate more: {} vs {}",
        long.memory_read_fraction(),
        short.memory_read_fraction()
    );
    assert!(
        long.jobs[0].map_phase < short.jobs[0].map_phase,
        "map phase must shrink with more migration"
    );
}

#[test]
fn concurrent_jobs_share_the_cluster() {
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
    for i in 0..6 {
        cfg.files.push(FileSpec::new(format!("f{i}"), 6 * BLOCK));
    }
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| {
            JobSpec::map_only(
                JobId(i),
                format!("j{i}"),
                SimTime::from_secs(i), // staggered arrivals
                vec![format!("f{i}")],
            )
        })
        .collect();
    let r = Simulation::new(cfg, jobs).run();
    assert_eq!(r.jobs.len(), 6);
    assert!(r.failed_jobs.is_empty());
}

#[test]
fn clusters_wider_than_64_nodes_run_end_to_end() {
    // Read notifications once deduped nodes in a fixed 64-slot array, so
    // the first read that touched node 64 panicked. A short DYRS job on
    // 65 nodes must complete, with reads served from the widest nodes.
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, 1);
    cfg.cluster = dyrs_cluster::ClusterSpec::uniform(65);
    cfg.files.push(FileSpec::new("input", 260 * BLOCK));
    let job = JobSpec::map_only(JobId(0), "wide", SimTime::ZERO, vec!["input".into()]);
    let r = Simulation::new(cfg, vec![job]).run();
    assert_eq!(r.jobs.len(), 1);
    assert!(r.failed_jobs.is_empty());
    assert!(
        r.reads.iter().any(|rd| rd.source.index() == 64),
        "node 64 must serve reads"
    );
    assert!(r.master.completed > 0, "DYRS must migrate blocks");
}
