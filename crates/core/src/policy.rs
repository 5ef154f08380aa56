//! Migration policies: DYRS and the paper's comparison points (§V-A),
//! plus the migration-ordering disciplines the paper leaves as future
//! work (§III: "we plan to explore how alternative policies ... can
//! improve performance"; §III-B: "More sophisticated scheduling between
//! applications can be implemented at the master").

/// Order in which the master considers pending migrations — both for the
/// Algorithm 1 targeting pass and for bind-on-pull responses.
///
/// The paper ships FIFO and explicitly defers alternatives to future
/// work; this crate implements two natural ones so the trade-off can be
/// measured (see `dyrs-experiments::policies`):
///
/// * [`MigrationOrder::Fifo`] — arrival order (the paper's DYRS);
/// * [`MigrationOrder::SmallestJobFirst`] — blocks of small jobs first.
///   Small jobs have the least lead-time slack per byte, and most jobs in
///   production traces are small (85% under 64 MB in SWIM), so finishing
///   them first maximizes the *number* of fully-migrated jobs;
/// * [`MigrationOrder::EarliestDeadlineFirst`] — blocks whose job will
///   start reading soonest come first, directly maximizing the chance a
///   block is in memory by its expected read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MigrationOrder {
    /// First-in-first-out (the paper's published policy).
    #[default]
    Fifo,
    /// Prioritize blocks belonging to the job with the least total input.
    SmallestJobFirst,
    /// Prioritize blocks of the job with the earliest expected launch.
    EarliestDeadlineFirst,
}

impl MigrationOrder {
    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            MigrationOrder::Fifo => "FIFO",
            MigrationOrder::SmallestJobFirst => "SJF",
            MigrationOrder::EarliestDeadlineFirst => "EDF",
        }
    }

    /// All implemented orders.
    pub fn all() -> [MigrationOrder; 3] {
        [
            MigrationOrder::Fifo,
            MigrationOrder::SmallestJobFirst,
            MigrationOrder::EarliestDeadlineFirst,
        ]
    }
}

/// Which migration scheme the cluster runs. One enum drives both the
/// master's binding behaviour and the simulator's setup, so every
/// experiment can sweep configurations uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationPolicy {
    /// Plain HDFS: no migration at all; cold reads come from disk.
    Disabled,
    /// `HDFS-Inputs-in-RAM`: every input block is pinned in memory before
    /// the workload starts (the paper's vmtouch setup) — the upper bound
    /// on migration speedup.
    InstantRam,
    /// Ignem (ICDCS'18): binds every block to a *random* replica
    /// immediately at job submission. Bandwidth-oblivious; the paper shows
    /// it can be slower than plain HDFS under heterogeneity.
    Ignem,
    /// Delayed binding without finish-time targeting: a slave with queue
    /// space gets any pending block that has a replica on it (FIFO).
    /// The "naive load balancing scheme" of Fig. 10.
    Naive,
    /// Full DYRS: delayed binding plus the Algorithm 1 targeting pass.
    Dyrs,
}

impl MigrationPolicy {
    /// True if the policy migrates data at all.
    pub fn migrates(self) -> bool {
        !matches!(self, MigrationPolicy::Disabled)
    }

    /// True if migrations are bound lazily on slave pulls (DYRS and the
    /// naive baseline) rather than at request time.
    pub fn delayed_binding(self) -> bool {
        matches!(self, MigrationPolicy::Dyrs | MigrationPolicy::Naive)
    }

    /// True if the Algorithm 1 targeting pass governs which slave may take
    /// a pending block.
    pub fn uses_targeting(self) -> bool {
        matches!(self, MigrationPolicy::Dyrs)
    }

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            MigrationPolicy::Disabled => "HDFS",
            MigrationPolicy::InstantRam => "HDFS-Inputs-in-RAM",
            MigrationPolicy::Ignem => "Ignem",
            MigrationPolicy::Naive => "Naive",
            MigrationPolicy::Dyrs => "DYRS",
        }
    }

    /// The four configurations the paper's evaluation compares (§V-A).
    pub fn paper_configs() -> [MigrationPolicy; 4] {
        [
            MigrationPolicy::Disabled,
            MigrationPolicy::InstantRam,
            MigrationPolicy::Ignem,
            MigrationPolicy::Dyrs,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(!MigrationPolicy::Disabled.migrates());
        assert!(MigrationPolicy::InstantRam.migrates());
        assert!(MigrationPolicy::Ignem.migrates());
        assert!(!MigrationPolicy::Ignem.delayed_binding());
        assert!(MigrationPolicy::Naive.delayed_binding());
        assert!(!MigrationPolicy::Naive.uses_targeting());
        assert!(MigrationPolicy::Dyrs.delayed_binding());
        assert!(MigrationPolicy::Dyrs.uses_targeting());
    }

    #[test]
    fn migration_orders() {
        assert_eq!(MigrationOrder::default(), MigrationOrder::Fifo);
        assert_eq!(MigrationOrder::all().len(), 3);
        assert_eq!(MigrationOrder::SmallestJobFirst.name(), "SJF");
        assert_eq!(MigrationOrder::EarliestDeadlineFirst.name(), "EDF");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(MigrationPolicy::Disabled.name(), "HDFS");
        assert_eq!(MigrationPolicy::Dyrs.name(), "DYRS");
        assert_eq!(MigrationPolicy::InstantRam.name(), "HDFS-Inputs-in-RAM");
    }

    #[test]
    fn paper_configs_are_the_four() {
        let c = MigrationPolicy::paper_configs();
        assert_eq!(c.len(), 4);
        assert!(c.contains(&MigrationPolicy::Ignem));
    }
}
