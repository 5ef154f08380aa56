//! Workspace-level determinism guarantees: the whole reproduction is
//! bit-stable under a seed, across serial/parallel sweeps, and across
//! policies sharing a seed (identical placement).

use dyrs::MigrationPolicy;
use dyrs_cluster::{ClusterSpec, InterferenceSchedule, NodeId};
use dyrs_dfs::JobId;
use dyrs_experiments::runner::{run_all, SimTask};
use dyrs_experiments::scenarios::{hetero_config, homogeneous_config, with_workload, DD_STREAMS};
use dyrs_experiments::table1;
use dyrs_sim::{FailureEvent, GrayFault, SimConfig};
use dyrs_workloads::{sort, swim};
use simkit::{SimDuration, SimTime};

const SEED: u64 = 99;

#[test]
fn table1_is_bit_stable() {
    let a = table1::run(SEED, 0.15);
    let b = table1::run(SEED, 0.15);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.config, rb.config);
        assert_eq!(
            ra.mean_duration_secs.to_bits(),
            rb.mean_duration_secs.to_bits(),
            "{}: durations must be bit-identical",
            ra.config
        );
    }
}

#[test]
fn parallel_sweep_equals_serial_sweep() {
    let mk = || -> Vec<SimTask> {
        (0..6)
            .map(|i| {
                let cfg = hetero_config(MigrationPolicy::Dyrs, SEED + i);
                let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
                let (cfg, jobs) = with_workload(cfg, w);
                SimTask::new(format!("s{i}"), cfg, jobs)
            })
            .collect()
    };
    let serial = run_all(mk(), 1);
    let parallel = run_all(mk(), 6);
    for ((la, ra), (lb, rb)) in serial.iter().zip(&parallel) {
        assert_eq!(la, lb);
        assert_eq!(ra.end_time, rb.end_time);
        assert_eq!(ra.master, rb.master);
        assert_eq!(ra.reads.len(), rb.reads.len());
    }
}

#[test]
fn event_traces_are_bit_stable_across_reruns() {
    // The driver folds every dispatched (time, event) pair into an FNV
    // digest; two runs of the same scenario under the same seed must
    // reproduce it bit-for-bit, or nondeterminism reached the event
    // loop. The failure drill matters most: the restart paths discard
    // and rebuild soft state, which is where iteration-order bugs hide.
    // (Under `--features verify-audit` these same runs also pass the
    // heartbeat invariant auditor.)
    let mk = || -> Vec<SimTask> {
        let plain = |label: &str, policy, hetero: bool| {
            let cfg = if hetero {
                hetero_config(policy, SEED)
            } else {
                homogeneous_config(policy, SEED)
            };
            let w = sort::sort_workload(2 << 30, SimDuration::from_secs(20), 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(label, cfg, jobs)
        };
        let drill = {
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
            cfg.failures = vec![
                FailureEvent::MasterRestart {
                    at: SimTime::from_secs(6),
                },
                FailureEvent::SlaveRestart {
                    at: SimTime::from_secs(14),
                    node: NodeId(1),
                },
                FailureEvent::NodeDown {
                    at: SimTime::from_secs(20),
                    node: NodeId(2),
                },
                FailureEvent::NodeUp {
                    at: SimTime::from_secs(45),
                    node: NodeId(2),
                },
            ];
            let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new("drill", cfg, jobs)
        };
        let gray_drill = {
            // Every gray-fault flavor at once: the failure detector's
            // suspect/strike/quarantine bookkeeping, the stuck-stream
            // freeze/unfreeze, and flap expansion must all replay
            // identically under a seed.
            let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
            cfg.gray_faults = vec![
                GrayFault::DiskDegrade {
                    at: SimTime::from_secs(2),
                    node: NodeId(3),
                    factor_milli: 100,
                },
                GrayFault::HeartbeatLoss {
                    at: SimTime::from_secs(4),
                    node: NodeId(1),
                    until: SimTime::from_secs(12),
                },
                GrayFault::StuckStreams {
                    at: SimTime::from_secs(5),
                    node: NodeId(4),
                    until: SimTime::from_secs(40),
                },
                GrayFault::Flap {
                    at: SimTime::from_secs(8),
                    node: NodeId(5),
                    downtime: SimDuration::from_secs(3),
                    times: 2,
                    period: SimDuration::from_secs(10),
                },
                GrayFault::DiskRestore {
                    at: SimTime::from_secs(30),
                    node: NodeId(3),
                },
            ];
            let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new("gray-drill", cfg, jobs)
        };
        vec![
            plain("dyrs-hetero", MigrationPolicy::Dyrs, true),
            plain("dyrs-homog", MigrationPolicy::Dyrs, false),
            plain("disabled", MigrationPolicy::Disabled, true),
            drill,
            gray_drill,
        ]
    };
    let first = run_all(mk(), 1);
    let second = run_all(mk(), 1);
    for ((label, a), (_, b)) in first.iter().zip(&second) {
        assert_ne!(a.trace_digest, 0, "{label}: digest must be populated");
        assert_eq!(
            a.trace_digest, b.trace_digest,
            "{label}: same seed must replay the identical event stream"
        );
    }
    // Distinct scenarios must not collide — otherwise the digest is not
    // actually sensitive to the event stream.
    let mut digests: Vec<u64> = first.iter().map(|(_, r)| r.trace_digest).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), first.len(), "scenario digests collided");
}

#[test]
fn trace_exports_are_byte_identical_across_reruns() {
    // The observability exports are part of the determinism contract:
    // two same-seed runs must render byte-identical spans.jsonl,
    // metrics.jsonl, provenance.jsonl and trace.json — any wall-clock
    // stamp, hash-order iteration, or f64 formatting instability in the
    // recorder would show up here. The failure drill exercises the abort
    // paths (restart causes) too.
    let run = || {
        let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
        cfg.failures = vec![
            FailureEvent::MasterRestart {
                at: SimTime::from_secs(6),
            },
            FailureEvent::SlaveRestart {
                at: SimTime::from_secs(14),
                node: NodeId(1),
            },
        ];
        cfg.gray_faults = vec![
            GrayFault::HeartbeatLoss {
                at: SimTime::from_secs(3),
                node: NodeId(2),
                until: SimTime::from_secs(10),
            },
            GrayFault::StuckStreams {
                at: SimTime::from_secs(4),
                node: NodeId(5),
                until: SimTime::from_secs(35),
            },
        ];
        let w = sort::sort_workload(2 << 30, SimDuration::from_secs(10), 0);
        let (cfg, jobs) = with_workload(cfg, w);
        dyrs_sim::Simulation::new(cfg, jobs).run().obs
    };
    let (a, b) = (run(), run());
    assert_eq!(a.spans_jsonl(), b.spans_jsonl());
    assert_eq!(a.metrics_jsonl(), b.metrics_jsonl());
    assert_eq!(a.provenance_jsonl(), b.provenance_jsonl());
    assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    if a.enabled {
        assert!(
            !a.events.is_empty() && !a.provenance.is_empty(),
            "an obs-enabled drill run must record spans and provenance"
        );
        // Cross-commit, not merely cross-rerun: the recorder's internals
        // may change, what it records may not.
        let pin = |s: String| (s.len(), fnv1a(s.as_bytes()));
        assert_eq!(pin(a.spans_jsonl()), DRILL_SPANS_PIN, "spans.jsonl");
        assert_eq!(pin(a.metrics_jsonl()), DRILL_METRICS_PIN, "metrics.jsonl");
        assert_eq!(
            pin(a.provenance_jsonl()),
            DRILL_PROVENANCE_PIN,
            "provenance.jsonl"
        );
        assert_eq!(pin(a.chrome_trace_json()), DRILL_TRACE_PIN, "trace.json");
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(byte length, FNV-1a)` of each export of the drill run in
/// `trace_exports_are_byte_identical_across_reruns`, captured on the
/// commit before the recorder moved to a paged span table and a columnar
/// provenance log.
const DRILL_SPANS_PIN: (usize, u64) = (4_807, 0x8C70_F9E0_BFEF_57ED);
/// `metrics.jsonl` of the same run, re-pinned when the density ceiling
/// and its `sched.cascade_ceiling` counter line were deleted.
const DRILL_METRICS_PIN: (usize, u64) = (109_299, 0xD64D_9BEA_D9B0_5CF9);
/// `provenance.jsonl` of the same run.
const DRILL_PROVENANCE_PIN: (usize, u64) = (2_351, 0xF379_59F7_59F1_BC80);
/// `trace.json` of the same run.
const DRILL_TRACE_PIN: (usize, u64) = (659_689, 0x7BA3_9CD8_152B_8963);

#[test]
fn scraping_is_invisible_to_determinism() {
    // Admin-plane scrapes are pure reads layered on top of the event
    // stream: a run answering periodic StatsRequests must replay the
    // exact same events, end at the same instant, and render
    // byte-identical exports as the quiet run of the identical scenario.
    // The failure drill makes this the hard case — a scrape that so much
    // as bumps a counter or opens a span would diverge here.
    let run = |scrape: Option<SimDuration>| {
        let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
        cfg.scrape_interval = scrape;
        cfg.failures = vec![
            FailureEvent::MasterRestart {
                at: SimTime::from_secs(6),
            },
            FailureEvent::SlaveRestart {
                at: SimTime::from_secs(14),
                node: NodeId(1),
            },
        ];
        let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
        let (cfg, jobs) = with_workload(cfg, w);
        dyrs_sim::Simulation::new(cfg, jobs).run()
    };
    let quiet = run(None);
    let scraped = run(Some(SimDuration::from_secs(1)));
    assert_eq!(quiet.scrapes, 0);
    assert!(
        scraped.scrapes > 0,
        "the scraped run must actually have scraped"
    );
    assert_eq!(
        quiet.trace_digest, scraped.trace_digest,
        "interleaved scrapes changed the event stream"
    );
    assert_eq!(quiet.end_time, scraped.end_time);
    assert_eq!(quiet.events_processed, scraped.events_processed);
    assert_eq!(quiet.master, scraped.master);
    assert_eq!(quiet.wire_frames, scraped.wire_frames);
    assert_eq!(quiet.obs.spans_jsonl(), scraped.obs.spans_jsonl());
    assert_eq!(quiet.obs.metrics_jsonl(), scraped.obs.metrics_jsonl());
    assert_eq!(quiet.obs.provenance_jsonl(), scraped.obs.provenance_jsonl());
    assert_eq!(
        quiet.obs.chrome_trace_json(),
        scraped.obs.chrome_trace_json()
    );
}

#[test]
fn membership_churn_preserves_placement_and_loses_nothing() {
    // Acceptance pin for the membership plane: a same-seed run with an
    // interleaved master checkpoint+restart and one drain/join cycle
    // must (1) replay bit-identically against itself — including the
    // terminal placement of every block — and (2) lose nothing versus
    // the quiet run: the same set of blocks reaches memory and not a
    // single migration dies to `retries-exhausted`, because a drain
    // re-targets work without burning retry budget.
    use dyrs_obs::SpanState;
    use std::collections::{BTreeMap, BTreeSet};
    let run = |churn: bool| {
        let mut cfg = hetero_config(MigrationPolicy::Dyrs, SEED);
        if churn {
            cfg.failures = vec![
                FailureEvent::CheckpointRestart {
                    at: SimTime::from_secs(5),
                },
                FailureEvent::DrainNode {
                    at: SimTime::from_secs(8),
                    node: NodeId(3),
                },
                FailureEvent::JoinNode {
                    at: SimTime::from_secs(30),
                    node: NodeId(3),
                },
            ];
        }
        let w = sort::sort_workload(2 << 30, SimDuration::ZERO, 0);
        let (cfg, jobs) = with_workload(cfg, w);
        dyrs_sim::Simulation::new(cfg, jobs).run()
    };
    let placement = |r: &dyrs_sim::SimResult| -> BTreeMap<u64, u32> {
        r.obs
            .events
            .iter()
            .filter(|e| e.state == SpanState::Finished)
            .map(|e| (e.block, e.node.expect("finished span names its node")))
            .collect()
    };
    let quiet = run(false);
    let churned = run(true);
    let churned2 = run(true);

    // (1) The churned scenario is itself deterministic, down to where
    // every block landed.
    assert_eq!(churned.trace_digest, churned2.trace_digest);
    assert_eq!(placement(&churned), placement(&churned2));

    // (2) Nothing is lost to the churn: same blocks land in memory, and
    // the drain never exhausts a retry budget.
    let blocks = |p: &BTreeMap<u64, u32>| -> BTreeSet<u64> { p.keys().copied().collect() };
    assert_eq!(
        blocks(&placement(&quiet)),
        blocks(&placement(&churned)),
        "membership churn lost (or invented) migrated blocks"
    );
    assert_eq!(
        churned.obs.counter("detector.retries_exhausted"),
        0,
        "a quiet drain/join cycle must not burn retry budget"
    );

    // The churn actually happened: one checkpoint, one drain (with its
    // decommission once the queues emptied), one join.
    assert_eq!(churned.obs.counter("membership.checkpoints"), 1);
    assert_eq!(churned.obs.counter("membership.drains"), 1);
    assert_eq!(churned.obs.counter("membership.decommissions"), 1);
    assert_eq!(churned.obs.counter("membership.joins"), 1);
}

#[test]
fn workload_generation_is_stable() {
    let p = swim::SwimParams::default();
    let a = swim::generate(&p, SEED);
    let b = swim::generate(&p, SEED);
    assert_eq!(a.files, b.files);
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn policies_share_identical_placement() {
    // Same seed ⇒ same file layout, so cross-policy comparisons are
    // apples-to-apples: verify HDFS and DYRS saw identical replica sets
    // by checking both read every block exactly once from somewhere.
    let runs: Vec<_> = [MigrationPolicy::Disabled, MigrationPolicy::Dyrs]
        .into_iter()
        .map(|p| {
            let cfg = hetero_config(p, SEED);
            let w = sort::sort_workload(4 << 30, SimDuration::ZERO, 0);
            let (cfg, jobs) = with_workload(cfg, w);
            SimTask::new(p.name(), cfg, jobs)
        })
        .collect();
    let out = run_all(runs, 0);
    let blocks = |r: &dyrs_sim::SimResult| {
        let mut b: Vec<_> = r.reads.iter().map(|rd| rd.block).collect();
        b.sort();
        b.dedup();
        b
    };
    assert_eq!(blocks(&out[0].1), blocks(&out[1].1));
}

#[test]
fn wire_frames_are_byte_pinned() {
    // The wire format is part of the determinism contract: the exact
    // bytes of every protocol frame are pinned here, so any codec change
    // — field order, width, endianness, a new default — fails this test
    // instead of silently breaking cross-version interop. Bumping the
    // pinned values is the explicit act of changing the protocol.
    use dyrs::master::{BlockRequest, JobHint};
    use dyrs::slave::HeartbeatReport;
    use dyrs::types::{JobRef, Migration, MigrationId};
    use dyrs::EvictionMode;
    use dyrs_dfs::{BlockId, JobId};
    use dyrs_net::frame::encode_frame;
    use dyrs_net::{Message, Role, StatsScope, PROTOCOL_VERSION};
    use dyrs_obs::{FlightEntry, FlightRecord, GaugeSample, StatsSnapshot};

    // One canonical message per wire tag, with fixed payloads.
    let canonical: Vec<Message> = vec![
        Message::Hello {
            role: Role::Slave,
            node: 3,
            min_version: 1,
            max_version: 1,
        },
        Message::Welcome { version: 1 },
        Message::Reject {
            reason: "no".into(),
        },
        Message::Heartbeat {
            node: NodeId(2),
            report: HeartbeatReport {
                secs_per_byte: 1.5e-8,
                queued_bytes: 512 << 20,
                queue_space: 4,
            },
            at: SimTime::from_secs(30),
        },
        Message::MigrationComplete {
            node: NodeId(2),
            block: BlockId(9),
        },
        Message::Evicted {
            node: NodeId(2),
            block: BlockId(9),
        },
        Message::Bye { sent: 17 },
        Message::Bind {
            migrations: vec![Migration {
                id: MigrationId(5),
                block: BlockId(9),
                bytes: 256 << 20,
                jobs: vec![JobRef {
                    job: JobId(1),
                    eviction: EvictionMode::Explicit,
                }],
                replicas: vec![NodeId(2), NodeId(4)],
                attempt: 0,
                dest_tier: 1,
            }],
        },
        Message::AddRef {
            block: BlockId(9),
            job: JobRef {
                job: JobId(1),
                eviction: EvictionMode::Implicit,
            },
        },
        Message::Revoke { block: BlockId(7) },
        Message::EvictJob { job: JobId(1) },
        Message::Shutdown { sent: 23 },
        Message::RequestMigration {
            job: JobId(1),
            blocks: vec![BlockRequest {
                block: BlockId(9),
                bytes: 256 << 20,
                replicas: vec![NodeId(2)],
            }],
            eviction: EvictionMode::Explicit,
            hint: JobHint {
                expected_launch: SimTime::from_secs(10),
                total_bytes: 1 << 30,
            },
        },
        Message::ReadNotify {
            block: BlockId(9),
            job: JobId(1),
        },
        Message::EvictJobRequest { job: JobId(1) },
        Message::StatsRequest {
            scope: StatsScope::Node(2),
        },
        Message::StatsReply {
            scope: StatsScope::Local,
            snapshot: StatsSnapshot {
                at: SimTime::from_secs(30),
                enabled: true,
                counters: vec![("span.finished".into(), 4)],
                gauges: vec![GaugeSample {
                    name: "sched.pending_depth".into(),
                    key: 0,
                    value: 6.0,
                    at: SimTime::from_secs(30),
                }],
                open_spans: vec![("pending".into(), 6)],
                top_winners: vec![(2, 3)],
            },
        },
        Message::FlightDump {
            scope: StatsScope::LocalFlight,
            record: FlightRecord {
                reason: "node-quarantined".into(),
                node: Some(2),
                at: SimTime::from_secs(30),
                dropped: 1,
                entries: vec![FlightEntry {
                    at: SimTime::from_secs(29),
                    migration: 5,
                    block: 9,
                    state: "aborted".into(),
                    node: Some(2),
                    cause: "node-suspect".into(),
                }],
            },
        },
        Message::JoinRequest { node: 2 },
        Message::DrainNode { node: 2 },
        Message::DecommissionAck {
            node: 2,
            membership: 3,
        },
        Message::CheckpointRequest,
        Message::Checkpoint {
            data: vec![1, 2, 3],
        },
    ];
    let tags: Vec<u8> = canonical.iter().map(Message::tag).collect();
    assert_eq!(tags, (0..23).collect::<Vec<u8>>(), "one message per tag");

    // Two frames pinned byte-for-byte (header: magic "DYRS", version
    // u16 BE, payload length u32 BE; payload: tag byte + fields BE).
    assert_eq!(
        encode_frame(PROTOCOL_VERSION, &Message::Welcome { version: 1 }),
        [b'D', b'Y', b'R', b'S', 0, 2, 0, 0, 0, 3, 1, 0, 1],
    );
    assert_eq!(
        encode_frame(PROTOCOL_VERSION, &Message::Revoke { block: BlockId(7) }),
        [b'D', b'Y', b'R', b'S', 0, 2, 0, 0, 0, 9, 9, 0, 0, 0, 0, 0, 0, 0, 7],
    );

    // And the whole catalog pinned through one digest: FNV-1a over the
    // concatenation of all twenty-three canonical frames.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut total_len = 0usize;
    for msg in &canonical {
        let frame = encode_frame(PROTOCOL_VERSION, msg);
        total_len += frame.len();
        for b in frame {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    // Appending a fresh-tag variant extends the catalog and re-pins this
    // digest (append-only, no version bump — old decoders never see the
    // new tag); any other change to these bytes is a protocol break that
    // must bump PROTOCOL_VERSION.
    assert_eq!(
        (total_len, h),
        (770, 0x7553_C5EB_2C59_AC18),
        "pinned wire bytes changed: this is a protocol break, bump \
         PROTOCOL_VERSION and re-pin"
    );
}

/// The hetero/homog sort scenario used for the legacy-equivalence pins
/// below: byte-for-byte the same construction as `pin_capture` ran on the
/// commit before `crates/tiers` landed.
fn legacy_pin_task(label: &str, hetero: bool) -> SimTask {
    let cfg = if hetero {
        hetero_config(MigrationPolicy::Dyrs, SEED)
    } else {
        homogeneous_config(MigrationPolicy::Dyrs, SEED)
    };
    let w = sort::sort_workload(2 << 30, SimDuration::from_secs(20), 0);
    let (cfg, jobs) = with_workload(cfg, w);
    SimTask::new(label, cfg, jobs)
}

/// Pre-tier trace digest of `legacy_pin_task("hetero", true)`, captured on
/// the commit immediately before the tier subsystem landed.
const PRE_TIER_HETERO_DIGEST: u64 = 0x42E8_CF51_7764_1B05;
/// Pre-tier trace digest of `legacy_pin_task("homog", false)`.
const PRE_TIER_HOMOG_DIGEST: u64 = 0x3CC4_03A5_2390_1B6C;

#[test]
fn two_tier_digests_match_the_pre_tier_pins() {
    // Cross-commit, not merely cross-rerun: these constants were captured
    // on the last commit without crates/tiers, so equality proves the tier
    // generalization left the legacy 2-tier event stream untouched — the
    // strict-superset claim of the tier subsystem.
    let out = run_all(
        vec![
            legacy_pin_task("hetero", true),
            legacy_pin_task("homog", false),
        ],
        1,
    );
    assert_eq!(
        out[0].1.trace_digest, PRE_TIER_HETERO_DIGEST,
        "hetero: legacy event stream changed"
    );
    assert_eq!(
        out[1].1.trace_digest, PRE_TIER_HOMOG_DIGEST,
        "homog: legacy event stream changed"
    );
}

#[test]
fn explicit_two_tier_stack_replays_the_legacy_digest() {
    // `tiers: None` (the synthesized legacy stack) and an explicitly
    // configured 2-tier stack built from the same scalars must be the
    // same simulation, down to the last event.
    let mut explicit = legacy_pin_task("explicit", true);
    for spec in &mut explicit.cfg.cluster.nodes {
        spec.tiers = Some(dyrs::TierStackSpec::legacy(
            spec.mem_capacity,
            spec.membus_bw,
            spec.disk_bw,
            spec.disk_degradation,
        ));
    }
    let out = run_all(vec![legacy_pin_task("implicit", true), explicit], 1);
    assert_eq!(
        out[0].1.trace_digest, out[1].1.trace_digest,
        "explicit legacy() stack must replay the tiers: None event stream"
    );
    assert_eq!(out[1].1.trace_digest, PRE_TIER_HETERO_DIGEST);
}

/// Trace digest of the 3-tier scenario below, captured on the commit
/// before migrations were fixed to land in memory (the tier policy and
/// tier × replica scoring were still present, under their `Baseline`
/// default). Equality proves that dropping them left the tiered event
/// stream untouched, as `PRE_TIER_*` does for the 2-tier stack.
const THREE_TIER_DIGEST: u64 = 0x9E7C_A21F_AC70_B55C;

#[test]
fn three_tier_scenario_runs_end_to_end() {
    // The deeper stack must actually work — jobs complete, evictions
    // demote with attributable causes, per-tier gauges get sampled — and
    // must itself replay bit-identically under the seed (this is the
    // digest-replay check CI's tier-sweep smoke job relies on).
    let mk = || {
        let mut task = legacy_pin_task("3-tier", true);
        for spec in &mut task.cfg.cluster.nodes {
            spec.tiers = Some(dyrs::TierStackSpec::three_tier(
                spec.mem_capacity,
                spec.membus_bw,
                spec.disk_bw,
                spec.disk_degradation,
            ));
        }
        // tight buffer: eviction pressure guarantees the demotion path runs
        task.cfg.mem_limit = Some(512 << 20);
        task
    };
    let out = run_all(vec![mk(), mk()], 1);
    let (a, b) = (&out[0].1, &out[1].1);
    assert_eq!(
        a.trace_digest, b.trace_digest,
        "3-tier run must replay bit-identically"
    );
    assert_eq!(
        a.trace_digest, THREE_TIER_DIGEST,
        "3-tier event stream changed"
    );
    assert!(!a.jobs.is_empty() && a.failed_jobs.is_empty());
    // evictions were salvaged by demotion, and are attributable
    assert!(
        a.obs.counter("tier.evict_demote") > 0,
        "pressure must demote on the 3-tier stack"
    );
    assert_eq!(
        a.obs.counter("tier.demotions"),
        a.obs.counter("tier.evict_demote")
    );
    // per-tier occupancy/utilization gauges sampled for memory and NVMe
    // (gauge key = node << 8 | tier; node 0 shown here)
    assert!(a.obs.gauge("tier.occupancy_bytes", 0).is_some());
    assert!(a.obs.gauge("tier.occupancy_bytes", 1).is_some());
    assert!(a.obs.gauge("tier.utilization", 1).is_some());
    // and the 3-tier event stream is genuinely different from legacy
    assert_ne!(a.trace_digest, PRE_TIER_HETERO_DIGEST);
}

/// Seed of the SWIM pins below.
const SWIM_SEED: u64 = 7;

/// The paper's SWIM trace on the heterogeneous cluster under `policy`.
/// Hundreds of jobs overlap, so peer-relative speculation fires all run
/// long; the 2 GB sort behind the pins above speculates at most once.
fn swim_pin_task(label: &str, policy: MigrationPolicy, failures: Vec<FailureEvent>) -> SimTask {
    let mut cfg = hetero_config(policy, SWIM_SEED);
    cfg.failures = failures;
    let w = swim::generate(&swim::SwimParams::default(), SWIM_SEED);
    let (cfg, jobs) = with_workload(cfg, w);
    SimTask::new(label, cfg, jobs)
}

/// The job the SWIM drill kills: 93 maps, running from 61.5 s to 298 s
/// in the quiet DYRS run, so it is mid-map-stage at the kill.
const SWIM_DRILL_KILLED: JobId = JobId(16);

/// The SWIM drill: kill a running job, then take node 3 down and back
/// up, so the failed job's task cleanup and the failure requeue both run
/// while speculation is active.
fn swim_drill_failures() -> Vec<FailureEvent> {
    vec![
        FailureEvent::KillJob {
            at: SimTime::from_secs(150),
            job: SWIM_DRILL_KILLED,
        },
        FailureEvent::NodeDown {
            at: SimTime::from_secs(200),
            node: NodeId(3),
        },
        FailureEvent::NodeUp {
            at: SimTime::from_secs(260),
            node: NodeId(3),
        },
    ]
}

/// Trace digests of `swim_pin_task` under DYRS, Ignem and `Disabled`, and
/// of the DYRS drill, captured on the commit before the driver kept
/// per-live-job bookkeeping (428, 58, 79 and 389 speculations).
const SWIM_DYRS_DIGEST: u64 = 0x2E14_3E4A_8160_AC79;
/// Ignem's run: its memory-replica rule filters speculation candidates.
const SWIM_IGNEM_DIGEST: u64 = 0xB02F_1B77_AD29_57B2;
/// `Disabled`: speculation on plain HDFS reads.
const SWIM_DISABLED_DIGEST: u64 = 0x223A_5D5C_91FA_F7F2;
/// The DYRS run under `swim_drill_failures`.
const SWIM_DRILL_DIGEST: u64 = 0x5949_86B4_CC52_9088;

/// `(byte length, FNV-1a)` of `spans.jsonl`, `metrics.jsonl`,
/// `provenance.jsonl` and `trace.json` of the SWIM DYRS run and of the
/// SWIM drill. The span pins date from before span events kept
/// per-migration constants in a shared table. The provenance and trace
/// pins were re-pinned when the plan walk was deleted: a pass that walks
/// now records every pending entry (the same decisions), and its
/// `sched.dirty_entries` gauge reads the depth. The metrics pins (every
/// gauge series, thousands of them, at volume) date from before the
/// gauge store moved to per-name families with dense key pages.
const SWIM_EXPORT_PINS: [[(usize, u64); 4]; 2] = [
    [
        (827_519, 0x5C25_9FF7_88D9_EC64),
        (947_596, 0x3EB4_40B5_A044_6F5A),
        (3_938_303, 0x2FB7_D95C_7037_C14D),
        (6_521_222, 0x46E5_100A_E1C8_38DB),
    ],
    [
        (877_128, 0x3821_C6FE_A36D_7849),
        (939_360, 0x6405_FD9A_CB1F_243B),
        (5_424_916, 0x495C_941B_9703_945A),
        (6_489_978, 0xBB10_F2E8_68A3_146F),
    ],
];

#[test]
fn swim_speculation_digests_match_the_pins() {
    // Cross-commit: speculation decisions (which tasks, in which order,
    // against which peer baseline) are part of the event stream, so any
    // change to the driver's job and task bookkeeping that moves one
    // decision moves these digests.
    let out = run_all(
        vec![
            swim_pin_task("dyrs", MigrationPolicy::Dyrs, Vec::new()),
            swim_pin_task("ignem", MigrationPolicy::Ignem, Vec::new()),
            swim_pin_task("disabled", MigrationPolicy::Disabled, Vec::new()),
            swim_pin_task("drill", MigrationPolicy::Dyrs, swim_drill_failures()),
        ],
        0,
    );
    let pins = [
        SWIM_DYRS_DIGEST,
        SWIM_IGNEM_DIGEST,
        SWIM_DISABLED_DIGEST,
        SWIM_DRILL_DIGEST,
    ];
    for ((label, r), pin) in out.iter().zip(pins) {
        assert!(r.speculations > 0, "{label}: the pin must speculate");
        assert_eq!(r.trace_digest, pin, "{label}: SWIM event stream changed");
    }
    // The logs at volume: thousands of span events and provenance
    // records, walked and skipped passes, and abort causes, over many of
    // the recorder's pages.
    for ((label, r), pins) in [&out[0], &out[3]].into_iter().zip(SWIM_EXPORT_PINS) {
        if !r.obs.enabled {
            continue;
        }
        let pin = |s: String| (s.len(), fnv1a(s.as_bytes()));
        let got = [
            pin(r.obs.spans_jsonl()),
            pin(r.obs.metrics_jsonl()),
            pin(r.obs.provenance_jsonl()),
            pin(r.obs.chrome_trace_json()),
        ];
        let names = [
            "spans.jsonl",
            "metrics.jsonl",
            "provenance.jsonl",
            "trace.json",
        ];
        for ((name, got), want) in names.into_iter().zip(got).zip(pins) {
            assert_eq!(got, want, "{label}: {name}");
        }
    }
    let drill = &out[3].1;
    assert_eq!(drill.failed_jobs, vec![SWIM_DRILL_KILLED]);
    assert!(
        drill.tasks.iter().any(|t| t.job == SWIM_DRILL_KILLED),
        "the killed job must have been running (some of its maps finished)"
    );
}

/// A wide regression run: `nodes` uniform nodes with a dd-slowed node
/// every 7th, and the default SWIM trace arriving `nodes`/7× as fast.
fn wide_swim_task(nodes: u32) -> SimTask {
    let mut cfg = SimConfig::paper_default(MigrationPolicy::Dyrs, SWIM_SEED);
    cfg.cluster = ClusterSpec::uniform(nodes as usize);
    for n in (0..nodes).step_by(7) {
        cfg.interference
            .push(InterferenceSchedule::persistent(NodeId(n), DD_STREAMS));
    }
    let base = swim::SwimParams::default();
    let params = swim::SwimParams {
        mean_interarrival_secs: base.mean_interarrival_secs / (f64::from(nodes) / 7.0),
        ..base
    };
    let (cfg, jobs) = with_workload(cfg, swim::generate(&params, SWIM_SEED));
    SimTask::new(format!("swim-{nodes}"), cfg, jobs)
}

/// Trace digest of `wide_swim_task(256)`.
const SWIM_256_DIGEST: u64 = 0x818D_F189_7D5D_C440;
/// Trace digest of `wide_swim_task(1024)`.
const SWIM_1024_DIGEST: u64 = 0x20DE_18EC_2675_687A;

#[test]
fn wide_swim_digest_matches_the_pin() {
    let out = run_all(vec![wide_swim_task(256)], 1);
    let r = &out[0].1;
    assert!(r.speculations > 0, "the 256-node pin must speculate");
    assert_eq!(
        r.trace_digest, SWIM_256_DIGEST,
        "256-node event stream changed"
    );
    // No job may fail. The start-up stagger delays node n's first
    // heartbeat to 50n ms (12.75 s here), so a liveness view that times
    // out on heartbeats, as the NameNode's 3 s timeout did, sees live
    // nodes as dead and fails their reads (it failed jobs 16 and 7).
    // Reads follow `Node::up` instead.
    assert!(r.failed_jobs.is_empty(), "failed: {:?}", r.failed_jobs);
}

#[test]
fn thousand_node_swim_digest_matches_the_pin() {
    // The same construction at 1024 nodes, where the stagger reaches
    // 51 s (the NameNode's 3 s timeout failed 115 of these 200 jobs).
    let out = run_all(vec![wide_swim_task(1024)], 1);
    let r = &out[0].1;
    assert_eq!(r.jobs.len(), 200, "every job completes");
    assert!(r.failed_jobs.is_empty(), "failed: {:?}", r.failed_jobs);
    assert!(r.speculations > 0, "the 1024-node pin must speculate");
    assert_eq!(
        r.trace_digest, SWIM_1024_DIGEST,
        "1024-node event stream changed"
    );
}

#[test]
fn speculation_survives_node_zero_going_down() {
    // Node 0's heartbeat paces the cluster-wide speculation check. With
    // node 0 down from 1 s, speculation must keep running on the other
    // six nodes, as it does when any other node is down.
    let down = vec![FailureEvent::NodeDown {
        at: SimTime::from_secs(1),
        node: NodeId(0),
    }];
    let out = run_all(
        vec![swim_pin_task("node-0-down", MigrationPolicy::Dyrs, down)],
        1,
    );
    let r = &out[0].1;
    assert!(
        r.speculations > 0,
        "speculation stopped while node 0 was down"
    );
    assert!(r.failed_jobs.is_empty());
}
