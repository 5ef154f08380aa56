//! Per-block job reference lists (paper §III-C3, §IV-A1).
//!
//! "For each migrated data block, the slave maintains a reference list of
//! job IDs for jobs that are expected to read the block. ... A block is
//! evicted from memory when its reference list is empty."
//!
//! The implementation mirrors the paper's: a map from job id to the
//! list of blocks migrated for that job (the paper's §IV-A1 hash-map,
//! kept here as a `BTreeMap` so walks over it — eviction sweeps, the
//! `verify-audit` reports — are deterministic), alongside the per-block
//! reference sets.

use dyrs_dfs::{BlockId, JobId};
use std::collections::{BTreeMap, BTreeSet};

/// Bidirectional job ↔ block reference tracking.
#[derive(Debug, Clone, Default)]
pub struct ReferenceLists {
    /// block → jobs still expecting to read it.
    by_block: BTreeMap<BlockId, BTreeSet<JobId>>,
    /// job → blocks migrated on its behalf (the §IV-A1 hash-map).
    by_job: BTreeMap<JobId, BTreeSet<BlockId>>,
}

impl ReferenceLists {
    /// Empty reference lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `job` to `block`'s reference list.
    pub fn add(&mut self, job: JobId, block: BlockId) {
        self.by_block.entry(block).or_default().insert(job);
        self.by_job.entry(job).or_default().insert(block);
    }

    /// Remove `job` from `block`'s reference list. Returns `true` if the
    /// block's list is now empty (i.e. the block is evictable).
    pub fn remove(&mut self, job: JobId, block: BlockId) -> bool {
        if let Some(jobs) = self.by_block.get_mut(&block) {
            jobs.remove(&job);
            if jobs.is_empty() {
                self.by_block.remove(&block);
            }
        }
        if let Some(blocks) = self.by_job.get_mut(&job) {
            blocks.remove(&block);
            if blocks.is_empty() {
                self.by_job.remove(&job);
            }
        }
        !self.by_block.contains_key(&block)
    }

    /// Remove every reference held by `job` (explicit evict command, or a
    /// scavenged dead job). Returns the blocks that became evictable, in
    /// deterministic (sorted) order.
    pub fn remove_job(&mut self, job: JobId) -> Vec<BlockId> {
        let Some(blocks) = self.by_job.remove(&job) else {
            return Vec::new();
        };
        let mut evictable = Vec::new();
        for block in blocks {
            if let Some(jobs) = self.by_block.get_mut(&block) {
                jobs.remove(&job);
                if jobs.is_empty() {
                    self.by_block.remove(&block);
                    evictable.push(block);
                }
            }
        }
        evictable
    }

    /// Remove references of every job for which `is_active` returns false
    /// (the memory-pressure scavenge that queries the cluster scheduler,
    /// §III-C3). Returns newly evictable blocks in deterministic order.
    pub fn scavenge(&mut self, is_active: impl Fn(JobId) -> bool) -> Vec<BlockId> {
        // Keys come out of the BTreeMap already sorted.
        let dead: Vec<JobId> = self
            .by_job
            .keys()
            .copied()
            .filter(|&j| !is_active(j))
            .collect();
        let mut evictable = Vec::new();
        for job in dead {
            evictable.extend(self.remove_job(job));
        }
        evictable.sort();
        evictable.dedup();
        evictable
    }

    /// Jobs currently referencing `block`.
    pub fn jobs_of(&self, block: BlockId) -> impl Iterator<Item = JobId> + '_ {
        self.by_block
            .get(&block)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// True if `block` has no referencing jobs.
    pub fn is_unreferenced(&self, block: BlockId) -> bool {
        !self.by_block.contains_key(&block)
    }

    /// Number of blocks with at least one reference.
    pub fn referenced_blocks(&self) -> usize {
        self.by_block.len()
    }

    /// Number of jobs holding at least one reference.
    pub fn active_jobs(&self) -> usize {
        self.by_job.len()
    }

    /// Drop everything (slave restart).
    pub fn clear(&mut self) {
        self.by_block.clear();
        self.by_job.clear();
    }
}

impl simkit::audit::Audit for ReferenceLists {
    /// The two maps are exact mirrors of one bidirectional relation
    /// (§IV-A1: the per-job hash-map exists purely to make per-job cleanup
    /// efficient — it must never disagree with the per-block lists), and
    /// neither side stores an empty set (an empty list means the block is
    /// evictable and the entry must be gone, §III-C3).
    fn audit(&self, report: &mut simkit::audit::AuditReport) {
        let c = "reference-lists";
        for (&block, jobs) in &self.by_block {
            report.check(
                !jobs.is_empty(),
                c,
                "no empty reference list is retained",
                || format!("{block} has an empty job set"),
            );
            for &job in jobs {
                report.check(
                    self.by_job.get(&job).is_some_and(|b| b.contains(&block)),
                    c,
                    "§IV-A1: by_block and by_job mirror each other",
                    || format!("{block} lists {job}, but {job} does not list {block}"),
                );
            }
        }
        for (&job, blocks) in &self.by_job {
            report.check(
                !blocks.is_empty(),
                c,
                "no empty per-job block set is retained",
                || format!("{job} has an empty block set"),
            );
            for &block in blocks {
                report.check(
                    self.by_block.get(&block).is_some_and(|j| j.contains(&job)),
                    c,
                    "§IV-A1: by_block and by_job mirror each other",
                    || format!("{job} lists {block}, but {block} does not list {job}"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(i: u64) -> JobId {
        JobId(i)
    }
    fn b(i: u64) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn add_remove_single() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(10));
        assert!(!r.is_unreferenced(b(10)));
        assert!(r.remove(j(1), b(10)), "last ref removal → evictable");
        assert!(r.is_unreferenced(b(10)));
        assert_eq!(r.active_jobs(), 0);
    }

    #[test]
    fn shared_block_evictable_only_after_all_jobs() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(10));
        r.add(j(2), b(10));
        assert!(!r.remove(j(1), b(10)));
        assert!(r.remove(j(2), b(10)));
    }

    #[test]
    fn remove_job_returns_exclusive_blocks_sorted() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(30));
        r.add(j(1), b(10));
        r.add(j(1), b(20));
        r.add(j(2), b(20)); // shared → not evictable when job 1 leaves
        let ev = r.remove_job(j(1));
        assert_eq!(ev, vec![b(10), b(30)]);
        assert!(!r.is_unreferenced(b(20)));
    }

    #[test]
    fn remove_unknown_job_is_noop() {
        let mut r = ReferenceLists::new();
        assert!(r.remove_job(j(9)).is_empty());
        assert!(r.remove(j(9), b(9)));
    }

    #[test]
    fn scavenge_clears_dead_jobs_only() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(1));
        r.add(j(2), b(2));
        r.add(j(3), b(2));
        r.add(j(3), b(3));
        // jobs 2 and 3 are dead; job 1 alive
        let ev = r.scavenge(|job| job == j(1));
        assert_eq!(ev, vec![b(2), b(3)]);
        assert!(!r.is_unreferenced(b(1)));
        assert_eq!(r.active_jobs(), 1);
    }

    #[test]
    fn counters() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(1));
        r.add(j(1), b(2));
        r.add(j(2), b(1));
        assert_eq!(r.referenced_blocks(), 2);
        assert_eq!(r.active_jobs(), 2);
        let jobs: Vec<JobId> = r.jobs_of(b(1)).collect();
        assert_eq!(jobs, vec![j(1), j(2)]);
    }

    #[test]
    fn audit_catches_deliberate_corruption() {
        use simkit::audit::{Audit, AuditReport};
        let audit = |r: &ReferenceLists| {
            let mut report = AuditReport::new();
            r.audit(&mut report);
            report
        };

        let mut r = ReferenceLists::new();
        r.add(j(1), b(10));
        r.add(j(2), b(10));
        assert!(audit(&r).is_clean());

        // Drop one direction of the relation behind the API's back: the
        // block still lists job 1, but job 1 no longer lists the block.
        r.by_job.remove(&j(1));
        assert!(!audit(&r).is_clean(), "missing mirror entry must be caught");

        // A retained empty set is also corruption: an empty reference
        // list means evictable, so the entry must be gone entirely.
        let mut r = ReferenceLists::new();
        r.add(j(3), b(30));
        r.by_block
            .get_mut(&b(30))
            .expect("just added")
            .remove(&j(3));
        assert!(!audit(&r).is_clean(), "empty retained set must be caught");
    }

    #[test]
    fn clear_drops_all() {
        let mut r = ReferenceLists::new();
        r.add(j(1), b(1));
        r.clear();
        assert_eq!(r.referenced_blocks(), 0);
        assert_eq!(r.active_jobs(), 0);
    }
}
