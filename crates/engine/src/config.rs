//! Engine tunables.

use simkit::SimDuration;

/// Execution-engine configuration. Defaults approximate the paper's
/// testbed: 6-core/12-thread workers running Tez on YARN.
///
/// ```
/// use dyrs_engine::EngineConfig;
///
/// let cfg = EngineConfig::default();
/// // app-level disk reads are ~160x slower than memory reads — the
/// // paper's own measurement, and the reason migration pays off
/// assert!((cfg.mem_read_cap / cfg.disk_read_cap - 160.0).abs() < 1.0);
/// // a 256 MB block takes ~26s to read cold but ~2-4s to map-compute
/// let compute = cfg.map_compute(256 << 20, 1.0).as_secs_f64();
/// assert!(compute < (256 << 20) as f64 / cfg.disk_read_cap / 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Concurrent map tasks per node (YARN containers dedicated to maps).
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Fixed platform overhead between job submission and tasks becoming
    /// runnable (container launch, JVM warm-up, AM negotiation — the
    /// §II-C1 lead-time sources). Queueing for busy slots adds on top.
    pub platform_overhead: SimDuration,
    /// Per-map-task fixed overhead (process start, split setup).
    pub map_task_overhead: SimDuration,
    /// Map compute cost per input byte, seconds (filtering/deserialize).
    pub map_cpu_secs_per_byte: f64,
    /// Effective per-reduce-task shuffle+merge bandwidth, bytes/sec.
    /// Shuffle is never accelerated by migration (paper §V-E2), so it is
    /// modeled as a flat rate rather than on the fluid substrate.
    pub shuffle_bw: f64,
    /// Reduce compute cost per shuffled byte, seconds.
    pub reduce_cpu_secs_per_byte: f64,
    /// Per-reduce-task fixed overhead.
    pub reduce_task_overhead: SimDuration,
    /// Application-level ceiling on a single task's *disk* read rate,
    /// bytes/sec. HDFS task readers fetch chunk-at-a-time through the
    /// client stack and achieve a small fraction of the disk's sequential
    /// bandwidth; the DYRS paper's own microbenchmark (RAM reads 160×
    /// faster than disk reads *at the application level*) pins this around
    /// 10 MB/s. Migrations (`mlock` sequential reads) are NOT capped —
    /// that asymmetry is exactly why migration pays off.
    pub disk_read_cap: f64,
    /// Application-level ceiling on a single task's *memory* read rate,
    /// bytes/sec (160× the disk cap, matching the paper's measurement).
    pub mem_read_cap: f64,
    /// Speculative execution (standard MapReduce straggler mitigation,
    /// enabled by default on the paper's Tez/YARN stack): a map task still
    /// reading after `speculative_factor ×` its expected read time plus
    /// [`EngineConfig::speculative_slack`] is killed and re-queued, giving
    /// it a fresh placement and read plan (approximating a speculative
    /// copy winning the race).
    pub speculative_factor: f64,
    /// Absolute slack added to the speculation threshold.
    pub speculative_slack: SimDuration,
    /// Maximum execution attempts per task (1 = speculation off).
    pub speculative_max_attempts: u32,
    /// Model map-output spill writes as real disk streams on the mapper's
    /// node (contending with reads and migrations) instead of folding the
    /// write time into compute. Off by default — the calibrated baseline —
    /// and exercised by the sensitivity study to show the headline
    /// conclusions survive dirtier disks.
    pub model_spill_writes: bool,
    /// Containers granted per scheduling tick per job (YARN's RM hands a
    /// job its containers over several allocation rounds, not all at
    /// once; this pacing staggers task start times like the real
    /// testbed's ramp-up).
    pub container_grant_per_tick: usize,
    /// Interval between container grant rounds.
    pub container_grant_tick: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            map_slots_per_node: 8,
            reduce_slots_per_node: 2,
            platform_overhead: SimDuration::from_secs(8),
            map_task_overhead: SimDuration::from_millis(900),
            map_cpu_secs_per_byte: 1.0e-8, // ~2.7 s per 256 MB block
            shuffle_bw: 150.0 * 1024.0 * 1024.0,
            reduce_cpu_secs_per_byte: 2.0e-9,
            reduce_task_overhead: SimDuration::from_millis(900),
            disk_read_cap: 10.0 * 1024.0 * 1024.0,
            mem_read_cap: 1600.0 * 1024.0 * 1024.0,
            speculative_factor: 1.3,
            speculative_slack: SimDuration::from_secs(2),
            speculative_max_attempts: 3,
            model_spill_writes: false,
            container_grant_per_tick: 8,
            container_grant_tick: SimDuration::from_millis(500),
        }
    }
}

impl EngineConfig {
    /// Map compute duration for `bytes` of input, scaled by the job's
    /// `cpu_factor` (Hive queries do far heavier per-byte work than
    /// trace-replay map tasks).
    pub fn map_compute(&self, bytes: u64, cpu_factor: f64) -> SimDuration {
        self.map_task_overhead
            + SimDuration::from_secs_f64(self.map_cpu_secs_per_byte * cpu_factor * bytes as f64)
    }

    /// Reduce duration for `bytes` of shuffle input: fetch + merge + compute.
    pub fn reduce_duration(&self, bytes: u64) -> SimDuration {
        self.reduce_task_overhead
            + SimDuration::from_secs_f64(bytes as f64 / self.shuffle_bw)
            + SimDuration::from_secs_f64(self.reduce_cpu_secs_per_byte * bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_plausible() {
        let c = EngineConfig::default();
        assert!(c.map_slots_per_node >= 1);
        assert!(c.platform_overhead > SimDuration::ZERO);
        // a 256 MB map's compute should be ~1-5 s (so disk reads dominate)
        let compute = c.map_compute(256 << 20, 1.0).as_secs_f64();
        assert!((0.5..6.0).contains(&compute), "map compute {compute}s");
        // the paper's 160x app-level RAM:disk read ratio
        let ratio = c.mem_read_cap / c.disk_read_cap;
        assert!((150.0..170.0).contains(&ratio), "RAM:disk ratio {ratio}");
    }

    #[test]
    fn map_compute_scales_linearly() {
        let c = EngineConfig::default();
        let one = c.map_compute(100 << 20, 1.0);
        let two = c.map_compute(200 << 20, 1.0);
        let overhead = c.map_task_overhead;
        let a = (two - overhead).as_micros() as i64;
        let b = 2 * (one - overhead).as_micros() as i64;
        assert!((a - b).abs() <= 1, "rounding beyond 1µs: {a} vs {b}");
    }

    #[test]
    fn cpu_factor_scales_compute() {
        let c = EngineConfig::default();
        let base = (c.map_compute(256 << 20, 1.0) - c.map_task_overhead).as_micros();
        let hive = (c.map_compute(256 << 20, 4.0) - c.map_task_overhead).as_micros();
        assert!((hive as i64 - 4 * base as i64).abs() <= 3);
    }

    #[test]
    fn reduce_duration_includes_shuffle() {
        let c = EngineConfig::default();
        let d = c.reduce_duration(1 << 30); // 1 GiB shuffle
                                            // at 150 MB/s the fetch alone is ~6.8 s
        assert!(d.as_secs_f64() > 6.0);
    }
}
