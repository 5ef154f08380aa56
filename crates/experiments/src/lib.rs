//! # dyrs-experiments — the paper-reproduction harness
//!
//! One module per table/figure of the DYRS paper. Each module exposes a
//! `run(...)` function returning structured results plus a `render(...)`
//! producing the text the `repro` binary prints (the same rows/series the
//! paper reports), so tests can assert the *shape* of every claim and the
//! binary can regenerate every artifact.
//!
//! | module | artifact | paper claim (shape) |
//! |---|---|---|
//! | [`fig01`] | Fig. 1 | per-node disk utilization heterogeneous across nodes & time |
//! | [`fig02`] | Fig. 2 | 81% of jobs: lead-time ≥ read-time |
//! | [`fig03`] | Fig. 3 | 80% of utilization samples < 4%, mean 3.1% |
//! | [`fig04`] | Fig. 4 | Hive: DYRS up to ~48% / avg ~36% faster; Ignem slower |
//! | [`table1`] | Table I | SWIM means: RAM +46%, DYRS +33%, Ignem −111% |
//! | [`fig05`] | Fig. 5 | speedup by size bin: 34% / 47% / 26% |
//! | [`fig06`] | Fig. 6 | map tasks ~1.8× faster under DYRS |
//! | [`fig07`] | Fig. 7 | DYRS migrates ~45% of hypothetical's data, keeps ~72% of its speedup |
//! | [`fig08`] | Fig. 8 | reads/DataNode: DYRS & HDFS avoid slow node, Ignem uniform |
//! | [`fig09`] | Fig. 9 | estimate tracks interference patterns |
//! | [`table2`] | Table II | equal total interference ⇒ equal sort runtime |
//! | [`fig10`] | Fig. 10 | DYRS keeps tail migrations off the slow node |
//! | [`fig11`] | Fig. 11 | speedup vs input size and lead-time trade-off |
//! | [`tiers`] | extension | 2-tier vs 3/4-tier stacks: speedup & wasted-migration rate |
//!
//! The [`runner`] module runs independent simulations in parallel on
//! scoped threads (`std::thread::scope`), which is how the multi-config
//! sweeps stay fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod iterative;
pub mod policies;
pub mod render;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sensitivity;
pub mod table1;
pub mod table2;
pub mod tiers;

/// Default seed used by the `repro` binary (any seed reproduces the
/// shapes; this one is pinned so published output is bit-stable).
pub const DEFAULT_SEED: u64 = 20190520; // IPPS 2019 conference date
