//! Figure 10 — the last 30 block reads of a Sort job: DYRS vs naive
//! load balancing.
//!
//! Paper claim: a naive scheme that hands migrations to any slave with
//! free queue slots lets "some of the last few migrations end up on a
//! slow node", producing stragglers; DYRS only assigns a block to a node
//! if it is expected to finish earliest there, so the tail of the job
//! stays off the slow node (§V-F3).

use crate::runner::{run_all, SimTask};
use crate::scenarios::{hetero_config, with_workload, SLOW_NODE};
use dyrs::MigrationPolicy;
use dyrs_workloads::sort;
use simkit::SimDuration;

/// One read in the tail timeline.
#[derive(Debug, Clone, Copy)]
pub struct TailRead {
    /// Seconds before the job's last read (≤ 0).
    pub t_rel_secs: f64,
    /// Node that served it.
    pub source: u32,
    /// Whether it came from memory.
    pub from_memory: bool,
}
simkit::json_fields!(TailRead: t_rel_secs, source, from_memory);

/// Tail timeline for one scheme.
#[derive(Debug, Clone)]
pub struct TailTimeline {
    /// Scheme name.
    pub config: String,
    /// The last 30 reads, oldest first.
    pub tail: Vec<TailRead>,
    /// Span of the last 30 reads, seconds.
    pub tail_span_secs: f64,
    /// Job runtime, seconds.
    pub job_secs: f64,
}
simkit::json_fields!(TailTimeline: config, tail, tail_span_secs, job_secs);

impl TailTimeline {
    /// Tail reads served by the slow node's *disk* (the straggler signature).
    pub fn slow_disk_tail_reads(&self) -> usize {
        self.tail
            .iter()
            .filter(|r| r.source == SLOW_NODE.0 && !r.from_memory)
            .count()
    }

    /// Tail reads not served from memory.
    pub fn cold_tail_reads(&self) -> usize {
        self.tail.iter().filter(|r| !r.from_memory).count()
    }
}

/// Figure 10 data.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Naive baseline timeline.
    pub naive: TailTimeline,
    /// DYRS timeline.
    pub dyrs: TailTimeline,
}
simkit::json_fields!(Fig10: naive, dyrs);

/// Run a 10 GB Sort under the naive scheme and DYRS on the handicapped
/// cluster, and extract the last-30-reads timelines.
pub fn run(seed: u64, input_gb: u64) -> Fig10 {
    let mk = |policy: MigrationPolicy| {
        let cfg = hetero_config(policy, seed);
        // generous lead-time so migration coverage is high and the tail
        // behaviour (not lead-time shortage) dominates, as in the paper
        let w = sort::sort_workload(input_gb << 30, SimDuration::from_secs(45), 0);
        let (cfg, jobs) = with_workload(cfg, w);
        SimTask::new(policy.name(), cfg, jobs)
    };
    let results = run_all(
        vec![mk(MigrationPolicy::Naive), mk(MigrationPolicy::Dyrs)],
        0,
    );
    let timelines: Vec<TailTimeline> = results
        .into_iter()
        .map(|(config, r)| {
            let mut reads = r.reads.clone();
            reads.sort_by_key(|rd| rd.at);
            let last = reads.last().map(|rd| rd.at.as_secs_f64()).unwrap_or(0.0);
            let tail: Vec<TailRead> = reads
                .iter()
                .rev()
                .take(30)
                .map(|rd| TailRead {
                    t_rel_secs: rd.at.as_secs_f64() - last,
                    source: rd.source.0,
                    from_memory: rd.medium.is_memory(),
                })
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            let span = tail.first().map(|r| -r.t_rel_secs).unwrap_or(0.0);
            TailTimeline {
                config,
                tail,
                tail_span_secs: span,
                job_secs: r
                    .jobs
                    .first()
                    .map(|j| j.duration.as_secs_f64())
                    .unwrap_or(0.0),
            }
        })
        .collect();
    let mut it = timelines.into_iter();
    Fig10 {
        naive: it.next().expect("naive run"),
        dyrs: it.next().expect("dyrs run"),
    }
}

/// Render both timelines.
pub fn render(f: &Fig10) -> String {
    let mut out = String::from(
        "FIG 10: Last 30 block reads of a Sort job (time relative to last read)\n\
         (paper: naive balancing strands tail migrations on the slow node;\n\
          DYRS hands the tail to fast nodes)\n\n",
    );
    for t in [&f.naive, &f.dyrs] {
        out.push_str(&format!(
            "--- {} (job {:.0}s, tail span {:.1}s, slow-disk tail reads {}) ---\n",
            t.config,
            t.job_secs,
            t.tail_span_secs,
            t.slow_disk_tail_reads()
        ));
        for r in &t.tail {
            out.push_str(&format!(
                "  {:>7.2}s  node{}  {}\n",
                r.t_rel_secs,
                r.source,
                if r.from_memory { "mem " } else { "DISK" }
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyrs_tail_avoids_slow_node_stragglers() {
        let f = run(7, 10);
        assert!(
            f.dyrs.slow_disk_tail_reads() <= f.naive.slow_disk_tail_reads(),
            "DYRS tail slow-disk reads {} must not exceed naive {}",
            f.dyrs.slow_disk_tail_reads(),
            f.naive.slow_disk_tail_reads()
        );
        assert!(
            f.dyrs.cold_tail_reads() <= f.naive.cold_tail_reads(),
            "DYRS cold tail {} vs naive {}",
            f.dyrs.cold_tail_reads(),
            f.naive.cold_tail_reads()
        );
    }

    #[test]
    fn dyrs_job_at_least_as_fast() {
        let f = run(7, 10);
        assert!(
            f.dyrs.job_secs <= f.naive.job_secs * 1.02,
            "DYRS {:.1}s vs naive {:.1}s",
            f.dyrs.job_secs,
            f.naive.job_secs
        );
    }

    #[test]
    fn timelines_have_30_reads_ending_at_zero() {
        let f = run(7, 10);
        for t in [&f.naive, &f.dyrs] {
            assert_eq!(t.tail.len(), 30);
            let last = t.tail.last().expect("non-empty");
            assert!(last.t_rel_secs.abs() < 1e-9);
            assert!(t
                .tail
                .windows(2)
                .all(|w| w[0].t_rel_secs <= w[1].t_rel_secs));
        }
    }

    #[test]
    fn render_shows_both_schemes() {
        let s = render(&run(7, 5));
        assert!(s.contains("Naive"));
        assert!(s.contains("DYRS"));
    }
}
