//! DYRS configuration knobs.

use crate::policy::MigrationOrder;
use simkit::SimDuration;

/// Tunables for the DYRS master and slaves. Defaults follow the paper's
/// description and HDFS conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct DyrsConfig {
    /// Slave → master heartbeat interval (HDFS DataNode default: 3 s; the
    /// paper's adaptation experiments respond on the order of seconds, so
    /// we default to 1 s like busy production deployments).
    pub heartbeat_interval: SimDuration,
    /// Period of the master's background retargeting pass (Algorithm 1).
    /// "This algorithm is run regularly in a separate thread that is off
    /// the critical path" (§III-A2).
    pub retarget_interval: SimDuration,
    /// EWMA weight of the newest migration-duration sample (§IV-A).
    pub ewma_alpha: f64,
    /// Extra queue slots beyond the idleness-avoidance minimum. The ideal
    /// queue is "deep enough to avoid idleness, and yet as shallow as
    /// possible" (§III-A1); the minimum is heartbeat ÷ best-case block
    /// migration time, plus this slack.
    pub queue_slack: usize,
    /// Fraction of the memory hard limit at which a slave scavenges
    /// references of inactive jobs (§III-C3).
    pub scavenge_threshold: f64,
    /// Pending-list discipline at the master (paper: FIFO; SJF and EDF
    /// are the future-work alternatives, see
    /// [`MigrationOrder`]).
    pub migration_order: MigrationOrder,
    /// Maximum concurrent migrations per slave disk. The paper
    /// "serializes migrations and moves one block at a time into memory
    /// in order to limit disk read concurrency" (§III-B); values > 1
    /// exist for the ablation study quantifying that choice.
    pub max_concurrent_migrations: usize,
    /// Enable the §IV-A in-progress estimate refresh (update the estimate
    /// every heartbeat once an active migration runs past it). The paper
    /// added this after observing slow adaptation to sudden bandwidth
    /// drops; setting it to `false` reproduces their earlier prototype
    /// for the ablation study.
    pub in_progress_refresh: bool,
    /// Gray-failure detector: heartbeat deadlines, bounded retry, and
    /// per-node quarantine.
    pub failure_detector: FailureDetectorConfig,
}

/// Master-side gray-failure detector knobs.
///
/// The paper's protocol assumes nodes either heartbeat or are dead; this
/// layer covers the space in between — a node whose heartbeats stall, or
/// whose bound migrations crawl, without the node ever failing outright.
/// Disabling it (`enabled: false`) restores the paper's exact behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureDetectorConfig {
    /// Master-side detector on/off switch.
    pub enabled: bool,
    /// A node missing heartbeats for this long becomes *suspect*: its
    /// bound-but-unstarted migrations are unbound back to pending and it
    /// leaves Algorithm 1 candidacy until it heartbeats again. Must exceed
    /// the heartbeat interval with slack for ordinary jitter.
    pub suspect_after: SimDuration,
    /// A bound migration not finished within this many multiples of the
    /// node's own estimate (`spb · bytes`, floored by `stuck_floor`) is
    /// declared stuck and re-bound elsewhere.
    pub stuck_multiple: f64,
    /// Lower bound on the stuck deadline, so cheap blocks on fast disks
    /// are not declared stuck over scheduling noise.
    pub stuck_floor: SimDuration,
    /// Total binding attempts per block before the master gives up with a
    /// terminal `retries-exhausted` abort.
    pub max_attempts: u32,
    /// Base of the deterministic exponential backoff between attempts:
    /// attempt k re-enters candidacy after `retry_backoff · 2^(k−1)`.
    pub retry_backoff: SimDuration,
    /// Strikes (suspect transitions or stuck migrations) within
    /// `strike_window` that quarantine a node.
    pub quarantine_strikes: u32,
    /// Sliding window over which strikes are counted.
    pub strike_window: SimDuration,
    /// How long a quarantined node is barred from candidacy before it may
    /// run a probation migration.
    pub quarantine_backoff: SimDuration,
    /// Admission ramp for a `Joining` node: how many migrations it must
    /// complete before it graduates to full `Healthy` candidacy. While
    /// joining, a pull may bind at most `1 + completed` migrations, so a
    /// cold node warms its estimator before absorbing a full queue.
    pub join_ramp_target: u32,
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            enabled: true,
            suspect_after: SimDuration::from_secs(3),
            stuck_multiple: 8.0,
            stuck_floor: SimDuration::from_secs(20),
            max_attempts: 4,
            retry_backoff: SimDuration::from_secs(1),
            quarantine_strikes: 3,
            strike_window: SimDuration::from_secs(30),
            quarantine_backoff: SimDuration::from_secs(10),
            join_ramp_target: 4,
        }
    }
}

impl Default for DyrsConfig {
    fn default() -> Self {
        DyrsConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            retarget_interval: SimDuration::from_millis(500),
            ewma_alpha: 0.5,
            queue_slack: 1,
            scavenge_threshold: 0.8,
            migration_order: MigrationOrder::Fifo,
            max_concurrent_migrations: 1,
            in_progress_refresh: true,
            failure_detector: FailureDetectorConfig::default(),
        }
    }
}

impl DyrsConfig {
    /// The ideal local queue depth for a slave whose disk reads a block of
    /// `block_bytes` at `disk_bw` bytes/sec when idle: the queue "should
    /// not totally drain in the interval it takes to fetch more work"
    /// (§III-B), i.e. ⌈heartbeat ÷ best-case block time⌉ + slack.
    pub fn queue_depth(&self, block_bytes: u64, disk_bw: f64) -> usize {
        if block_bytes == 0 {
            return 1 + self.queue_slack;
        }
        let block_secs = block_bytes as f64 / disk_bw;
        let hb = self.heartbeat_interval.as_secs_f64();
        ((hb / block_secs).ceil() as usize).max(1) + self.queue_slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DyrsConfig::default();
        assert!(c.ewma_alpha > 0.0 && c.ewma_alpha <= 1.0);
        assert!(c.retarget_interval <= c.heartbeat_interval);
        assert!(c.scavenge_threshold > 0.0 && c.scavenge_threshold <= 1.0);
    }

    #[test]
    fn queue_depth_covers_heartbeat() {
        let c = DyrsConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            queue_slack: 1,
            ..DyrsConfig::default()
        };
        // 256 MB at 140 MB/s ≈ 1.83s per block → 1 block per heartbeat + slack
        let d = c.queue_depth(256 << 20, 140.0 * (1 << 20) as f64);
        assert_eq!(d, 2);
        // tiny blocks → deep queue
        let d = c.queue_depth(1 << 20, 140.0 * (1 << 20) as f64);
        assert_eq!(d, 141);
    }

    #[test]
    fn queue_depth_zero_block_is_minimal() {
        let c = DyrsConfig::default();
        assert_eq!(c.queue_depth(0, 1e8), 1 + c.queue_slack);
    }

    #[test]
    fn detector_defaults_are_sane() {
        let c = DyrsConfig::default();
        let d = &c.failure_detector;
        assert!(d.enabled);
        assert!(d.suspect_after > c.heartbeat_interval);
        assert!(d.stuck_multiple > 1.0);
        assert!(d.max_attempts >= 2);
        assert!(d.quarantine_strikes >= 2);
        assert!(d.strike_window > d.suspect_after);
    }

    #[test]
    fn disabling_detector_keeps_other_defaults() {
        let d = FailureDetectorConfig {
            enabled: false,
            ..FailureDetectorConfig::default()
        };
        assert!(!d.enabled);
        assert_eq!(
            d.max_attempts,
            FailureDetectorConfig::default().max_attempts
        );
    }
}
