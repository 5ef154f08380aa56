//! Job and task lifecycle: submission → lead-time → scheduling → read →
//! compute → completion.

use super::Simulation;
use crate::events::{Ev, ResourceKind, StreamMeta};
use crate::result::BlockReadRecord;
use dyrs::master::BlockRequest;
use dyrs::types::EvictionMode;
use dyrs_cluster::NodeId;
use dyrs_dfs::{JobId, Medium};
use dyrs_engine::scheduler::SlotKind;
use dyrs_engine::{JobMetrics, JobState, JobStatus, TaskId, TaskMetrics, TaskPhase, TaskState};

fn node_of_task(sim: &Simulation, tid: TaskId) -> NodeId {
    sim.tasks[tid.0 as usize]
        .node
        .expect("running task is placed")
}

/// The driver's record of one live job.
#[derive(Debug, Default)]
pub(crate) struct LiveJob {
    /// The job's tasks in creation (and so `TaskId`) order: its maps from
    /// submission, then its reduces once the map stage ends.
    pub(crate) tasks: Vec<TaskId>,
    /// Completed map durations in seconds, ascending under
    /// `f64::total_cmp`.
    map_secs: Vec<f64>,
    /// Bytes its finished map reads served from memory.
    memory_bytes_read: u64,
    /// Bytes its finished map reads served, from any medium.
    bytes_read: u64,
}

impl LiveJob {
    /// The job's completed map durations, ascending.
    #[cfg(feature = "verify-audit")]
    pub(crate) fn map_secs(&self) -> &[f64] {
        &self.map_secs
    }

    /// Record one completed map's duration at its sorted position.
    pub(crate) fn record_map(&mut self, secs: f64) {
        let at = self
            .map_secs
            .partition_point(|x| x.total_cmp(&secs).is_lt());
        self.map_secs.insert(at, secs);
    }

    /// The speculation peer baseline: the median completed-map duration,
    /// once at least four maps have finished to compare against.
    pub(crate) fn peer_baseline(&self) -> Option<f64> {
        let n = self.map_secs.len();
        (n >= 4).then(|| self.map_secs[n / 2])
    }
}

impl Simulation {
    /// A job's submission instant: create its state and tasks, fire the
    /// migration request (the paper inserts the migration call in the
    /// job-submitter, §IV-B), and start the lead-time clock.
    pub(crate) fn on_submit_job(&mut self, id: JobId) {
        let spec = self
            .pending_specs
            .remove(&id)
            .expect("submitted job must have a spec");
        let mut state = JobState::new(spec.clone(), self.now);

        // Resolve input files to blocks.
        let file_names: Vec<&str> = spec.input_files.iter().map(|s| s.as_str()).collect();
        let blocks = self.namenode.namespace.blocks_of_files(file_names);
        let mut requests = Vec::with_capacity(blocks.len());
        let mut live = LiveJob::default();
        for &b in &blocks {
            let info = self.namenode.blocks.expect(b);
            let bytes = info.size;
            let replicas = info.replicas.clone();
            let tid = TaskId(self.tasks.len() as u64);
            self.tasks.push(TaskState::map(tid, id, b, bytes, self.now));
            self.attempts.push(0);
            self.avoid_node.push(None);
            live.tasks.push(tid);
            requests.push(BlockRequest {
                block: b,
                bytes,
                replicas,
            });
        }
        state.set_map_count(live.tasks.len());
        self.jobs.insert(id, state);
        self.live_jobs.insert(id, live);

        // Migration request at submission — uses the whole lead-time.
        let eviction = if spec.implicit_eviction {
            EvictionMode::Implicit
        } else {
            EvictionMode::Explicit
        };
        let hint = dyrs::JobHint {
            expected_launch: self.now + self.cfg.engine.platform_overhead + spec.extra_lead_time,
            total_bytes: requests.iter().map(|r| r.bytes).sum(),
        };
        // A migration request to an unreachable master is simply lost —
        // the job proceeds cold (the §III-C1 degradation).
        let outcome = if self.master_reachable() {
            // The submitter's request crosses the wire seam before the
            // master sees it (the paper's job-submitter RPC, §IV-B).
            let (id, requests, eviction, hint) =
                self.wire.request_migration(id, requests, eviction, hint);
            self.master
                .request_migration_hinted(id, requests, eviction, hint)
        } else {
            dyrs::master::RequestOutcome::default()
        };
        for (node, block, jref) in outcome.add_refs {
            let (block, jref) = self.wire.add_ref(block, jref);
            self.slaves[node.index()].add_ref(block, jref);
        }
        if !outcome.immediate.is_empty() {
            // Ignem: group by node, bind, and start the disks.
            let mut by_node: Vec<Vec<dyrs::Migration>> = vec![Vec::new(); self.cluster.len()];
            for b in outcome.immediate {
                by_node[b.node.index()].push(b.migration);
            }
            for (i, migs) in by_node.into_iter().enumerate() {
                if !migs.is_empty() {
                    let node = NodeId(i as u32);
                    let migs = self.wire.bind(migs);
                    self.slaves[i].on_bind(migs);
                    self.try_start_migrations(node);
                }
            }
        }

        // Tasks become runnable after platform overhead (+ artificial
        // lead-time for the Fig. 11 experiments).
        let launch_at = self.now + self.cfg.engine.platform_overhead + spec.extra_lead_time;
        self.queue.schedule(launch_at, Ev::LaunchJob(id));

        // Empty job (no input): nothing will ever run; complete directly.
        // Otherwise tasks become ready at LaunchJob.
        if blocks.is_empty() && spec.reduce_tasks == 0 {
            self.complete_job(id);
        }
    }

    /// Lead-time elapsed: the job becomes runnable; its containers are
    /// granted over several allocation rounds (YARN pacing), so tasks join
    /// the ready queue in batches rather than all at once.
    pub(crate) fn on_launch_job(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(&id) else {
            return; // killed before launch
        };
        if job.status != JobStatus::Submitted {
            return;
        }
        job.status = JobStatus::Running;
        job.launched_at = Some(self.now);
        let live = self.live_jobs.get(&id).expect("a submitted job is live");
        let tasks = live.tasks.iter().map(|t| &self.tasks[t.0 as usize]);
        // Lead-time utilization (§IV-B): how much of the job's input the
        // migration pipeline made memory-resident before the first task
        // could run. 1.0 means the lead-time fully hid the migration.
        if self.obs.is_enabled() {
            let blocks: Vec<dyrs_dfs::BlockId> = tasks
                .clone()
                .filter(|t| t.is_map())
                .filter_map(|t| t.block)
                .collect();
            if !blocks.is_empty() {
                let ready = blocks
                    .iter()
                    .filter(|&&b| self.namenode.has_memory_replica(b, |n| self.node_alive(n)))
                    .count();
                self.obs.gauge(
                    "job.lead_time_ready_fraction",
                    id.0,
                    ready as f64 / blocks.len() as f64,
                );
            }
        }
        let task_ids: std::collections::VecDeque<TaskId> = tasks
            .filter(|t| t.is_map() && t.phase == TaskPhase::Ready)
            .map(|t| t.id)
            .collect();
        self.ungranted.insert(id, task_ids);
        self.on_grant_containers(id);
    }

    /// One container-grant round: release the next batch of the job's
    /// tasks and re-arm if more remain.
    pub(crate) fn on_grant_containers(&mut self, id: JobId) {
        if !self.job_alive(id) {
            self.ungranted.remove(&id);
            return;
        }
        let Some(queue) = self.ungranted.get_mut(&id) else {
            return;
        };
        for _ in 0..self.cfg.engine.container_grant_per_tick {
            let Some(t) = queue.pop_front() else { break };
            self.tasks[t.0 as usize].ready_at = self.now;
            self.ready_maps.push_back(t);
        }
        if self
            .ungranted
            .get(&id)
            .map(|q| q.is_empty())
            .unwrap_or(true)
        {
            self.ungranted.remove(&id);
        } else {
            self.queue.schedule(
                self.now + self.cfg.engine.container_grant_tick,
                Ev::GrantContainers(id),
            );
        }
        self.kick_schedule();
    }

    /// Debounced scheduling pass: place ready tasks on free slots.
    pub(crate) fn on_schedule(&mut self) {
        self.schedule_pending = false;
        // Map tasks: FIFO with locality preference.
        let mut unplaced = std::collections::VecDeque::new();
        while let Some(tid) = self.ready_maps.pop_front() {
            let t = &self.tasks[tid.0 as usize];
            if t.phase != TaskPhase::Ready || !self.job_alive(t.job) {
                continue; // cancelled / failed job
            }
            let block = t.block.expect("map task");
            let avoid = self.avoid_node[tid.0 as usize];
            // Preference: memory replica holders, then disk replicas —
            // minus the node a previous attempt straggled on.
            let mut preferred = self
                .namenode
                .live_memory_replicas(block, |n| self.node_alive(n));
            preferred.extend(
                self.namenode
                    .blocks
                    .live_replicas(block, |n| self.node_alive(n)),
            );
            preferred.retain(|&n| Some(n) != avoid);
            let placed = self.slots.acquire(SlotKind::Map, &preferred, |n| {
                self.cluster.node(n).up && Some(n) != avoid
            });
            match placed {
                Some(node) => self.start_map_task(tid, node),
                None => {
                    unplaced.push_back(tid);
                    break; // cluster full for maps; keep FIFO order
                }
            }
        }
        while let Some(t) = self.ready_maps.pop_front() {
            unplaced.push_back(t);
        }
        self.ready_maps = unplaced;

        // Reduce tasks: no locality preference.
        let mut unplaced = std::collections::VecDeque::new();
        while let Some(tid) = self.ready_reduces.pop_front() {
            let t = &self.tasks[tid.0 as usize];
            if t.phase != TaskPhase::Ready || !self.job_alive(t.job) {
                continue;
            }
            let placed = self
                .slots
                .acquire(SlotKind::Reduce, &[], |n| self.cluster.node(n).up);
            match placed {
                Some(node) => self.start_reduce_task(tid, node),
                None => {
                    unplaced.push_back(tid);
                    break;
                }
            }
        }
        while let Some(t) = self.ready_reduces.pop_front() {
            unplaced.push_back(t);
        }
        self.ready_reduces = unplaced;
    }

    pub(crate) fn job_alive(&self, id: JobId) -> bool {
        self.live_jobs.contains_key(&id)
    }

    pub(crate) fn node_alive(&self, n: NodeId) -> bool {
        self.cluster.node(n).up
    }

    /// False while a failed master server is being replaced (§III-C1).
    pub(crate) fn master_reachable(&self) -> bool {
        match self.master_down_until {
            Some(until) => self.now >= until,
            None => true,
        }
    }

    fn start_map_task(&mut self, tid: TaskId, node: NodeId) {
        let now = self.now;
        let job_id = {
            let t = &mut self.tasks[tid.0 as usize];
            t.node = Some(node);
            t.started_at = Some(now);
            t.phase = TaskPhase::Reading;
            t.job
        };
        if let Some(job) = self.jobs.get_mut(&job_id) {
            if job.first_task_at.is_none() {
                job.first_task_at = Some(now);
            }
        }
        self.start_read(tid, node);
    }

    /// Plan and start map task `tid`'s read of its block on `node`, the
    /// node it runs on. First reads and failover reads both come here, and
    /// the stream starts at the first byte (HDFS re-reads a failed-over
    /// block whole). With no live replica anywhere the job fails.
    pub(crate) fn start_read(&mut self, tid: TaskId, node: NodeId) {
        let (job_id, block, bytes) = {
            let t = &self.tasks[tid.0 as usize];
            (t.job, t.block.expect("map task"), t.bytes)
        };
        // Plan the read: memory > disk, local > remote.
        let plan = self.namenode.plan_read(
            block,
            node,
            |n| self.node_alive(n),
            |n| self.cluster.node(n).disk.active_streams() as u64,
        );
        let Some(mut plan) = plan else {
            // No live replica anywhere: the job cannot make progress.
            self.fail_job(job_id);
            return;
        };
        // Ignem's read path trusts the submission-time binding: if the
        // block is not (yet) in memory, the read is served by the bound
        // node's disk — even when that node is the handicapped one. This
        // is what keeps Ignem's per-node read counts uniform in Fig. 8
        // and what makes it slower than plain HDFS under heterogeneity.
        if self.cfg.policy == dyrs::MigrationPolicy::Ignem && !plan.medium.is_memory() {
            if let Some(target) = self.master.ignem_read_target(block) {
                plan.source = target;
                plan.medium = if target == node {
                    Medium::LocalDisk
                } else {
                    Medium::RemoteDisk
                };
            }
        }
        // A demoted copy on a live replica holder beats a disk read: serve
        // off the fastest middle tier instead. Lowest tier wins, then
        // lowest node id — deterministic. Never fires on the legacy stack
        // (no middle tiers → no residents). Accounting keeps the disk
        // medium: a tier read is not a memory read.
        let mut tier_source: Option<(u8, NodeId)> = None;
        if !plan.medium.is_memory() && self.cfg.policy != dyrs::MigrationPolicy::Ignem {
            for n in self
                .namenode
                .blocks
                .live_replicas(block, |n| self.node_alive(n))
            {
                if let Some(r) = self.slaves[n.index()].tier_resident(block) {
                    let cand = (r.tier.0, n);
                    if tier_source.map(|b| cand < b).unwrap_or(true) {
                        tier_source = Some(cand);
                    }
                }
            }
            if let Some((_, n)) = tier_source {
                plan.source = n;
                plan.medium = if n == node {
                    Medium::LocalDisk
                } else {
                    Medium::RemoteDisk
                };
            }
        }
        self.tasks[tid.0 as usize].read_medium = Some(plan.medium);
        let (res_node, res_kind, cap) = match plan.medium {
            Medium::LocalMemory => (node, ResourceKind::Membus, self.cfg.engine.mem_read_cap),
            Medium::RemoteMemory => (plan.source, ResourceKind::Nic, self.cfg.engine.mem_read_cap),
            Medium::LocalDisk | Medium::RemoteDisk => match tier_source {
                // A middle-tier device is fast like memory from the
                // client's perspective, so the memory-side read cap
                // applies, not the disk one.
                Some((t, _)) => (
                    plan.source,
                    ResourceKind::Tier(t),
                    self.cfg.engine.mem_read_cap,
                ),
                None => (
                    plan.source,
                    ResourceKind::Disk,
                    self.cfg.engine.disk_read_cap,
                ),
            },
        };
        let attempt = self.attempts[tid.0 as usize];
        let sid = self.start_stream_capped(
            res_node,
            res_kind,
            bytes,
            cap,
            StreamMeta::TaskRead { task: tid, attempt },
        );
        self.task_streams.insert(tid, (res_node, res_kind, sid));
    }

    fn start_reduce_task(&mut self, tid: TaskId, node: NodeId) {
        let now = self.now;
        let (bytes, attempt) = {
            let t = &mut self.tasks[tid.0 as usize];
            t.node = Some(node);
            t.started_at = Some(now);
            t.phase = TaskPhase::Computing;
            (t.bytes, self.attempts[tid.0 as usize])
        };
        let dur = self.cfg.engine.reduce_duration(bytes);
        self.queue
            .schedule(now + dur, Ev::TaskCompute { task: tid, attempt });
    }

    /// A map task's input read stream completed.
    pub(crate) fn on_task_read_done(&mut self, tid: TaskId, attempt: u32, served_by: NodeId) {
        if self.attempts[tid.0 as usize] != attempt
            || self.tasks[tid.0 as usize].phase != TaskPhase::Reading
        {
            return; // stale (task re-executed or cancelled)
        }
        self.task_streams.remove(&tid);
        let now = self.now;
        let (job_id, block, bytes, medium) = {
            let t = &mut self.tasks[tid.0 as usize];
            t.read_done_at = Some(now);
            t.phase = TaskPhase::Computing;
            (
                t.job,
                t.block.expect("map"),
                t.bytes,
                t.read_medium.expect("set at start"),
            )
        };
        self.reads.push(BlockReadRecord {
            at: now,
            block,
            source: served_by,
            medium,
            job: job_id,
            bytes,
        });
        let live = self
            .live_jobs
            .get_mut(&job_id)
            .expect("a reading task's job is live");
        if medium.is_memory() {
            live.memory_bytes_read += bytes;
        }
        live.bytes_read += bytes;

        // Read notifications (§III-C3, §IV-A): the master cancels a still
        // -pending migration (missed read); the serving slave and any slave
        // holding the bound migration see the read for implicit eviction /
        // queued-cancellation.
        let (block, job_id) = self.wire.read_notify(block, job_id);
        self.master.on_block_read(block);
        self.notify_read(block, job_id, served_by);

        // Compute phase: map function + (folded-in) shuffle-output write.
        let job = self.jobs.get(&job_id).expect("job exists");
        let shuffle_share = if job.maps_total > 0 {
            job.spec.shuffle_bytes / job.maps_total as u64
        } else {
            0
        };
        let cpu_factor = job.spec.cpu_factor;
        let mut dur = self.cfg.engine.map_compute(bytes, cpu_factor);
        if self.cfg.engine.model_spill_writes {
            // spill hits the mapper's disk as a real stream, overlapped
            // with compute (fire-and-forget; does not gate completion)
            if shuffle_share > 0 {
                self.start_stream(
                    node_of_task(self, tid),
                    ResourceKind::Disk,
                    shuffle_share,
                    StreamMeta::SpillWrite,
                );
            }
        } else {
            // calibrated default: write time folded into the task
            let write_secs = shuffle_share as f64 / self.cfg.engine.shuffle_bw;
            dur += simkit::SimDuration::from_secs_f64(write_secs);
        }
        self.queue
            .schedule(now + dur, Ev::TaskCompute { task: tid, attempt });
    }

    /// A task's compute phase completed.
    pub(crate) fn on_task_compute(&mut self, tid: TaskId, attempt: u32) {
        if self.attempts[tid.0 as usize] != attempt
            || self.tasks[tid.0 as usize].phase != TaskPhase::Computing
        {
            return;
        }
        let now = self.now;
        let (job_id, node, is_map) = {
            let t = &mut self.tasks[tid.0 as usize];
            t.phase = TaskPhase::Done;
            t.done_at = Some(now);
            (t.job, t.node.expect("placed"), t.is_map())
        };
        if !self.job_alive(job_id) {
            // Job was killed mid-flight; slot was already released.
            return;
        }
        self.slots.release(
            node,
            if is_map {
                SlotKind::Map
            } else {
                SlotKind::Reduce
            },
        );
        let live = self.live_jobs.get_mut(&job_id).expect("alive");
        {
            let t = &self.tasks[tid.0 as usize];
            let duration = t.duration().expect("done");
            if is_map {
                live.record_map(duration.as_secs_f64());
            }
            self.done_tasks.push(TaskMetrics {
                job: job_id,
                is_map,
                node,
                bytes: t.bytes,
                read_medium: t.read_medium,
                read_time: t.read_duration().unwrap_or(simkit::SimDuration::ZERO),
                duration,
            });
        }
        let job = self.jobs.get_mut(&job_id).expect("alive");
        if is_map {
            if job.on_map_done(now) {
                // Map stage finished → spawn reduces or finish.
                let reduces = job.spec.reduce_tasks;
                if reduces == 0 {
                    self.complete_job(job_id);
                } else {
                    let share = job.spec.shuffle_bytes / reduces as u64;
                    for _ in 0..reduces {
                        let rid = TaskId(self.tasks.len() as u64);
                        self.tasks.push(TaskState::reduce(rid, job_id, share, now));
                        self.attempts.push(0);
                        self.avoid_node.push(None);
                        live.tasks.push(rid);
                        self.ready_reduces.push_back(rid);
                    }
                }
            }
        } else if job.on_reduce_done() {
            self.complete_job(job_id);
        }
        self.kick_schedule();
    }

    /// All stages done: finalize metrics, evict the job's migrated data
    /// ("DYRS pro-actively evicts data as jobs finish or read the data",
    /// §V-E3), and submit dependents.
    pub(crate) fn complete_job(&mut self, id: JobId) {
        let now = self.now;
        let job = self.jobs.get_mut(&id).expect("completing unknown job");
        job.status = JobStatus::Completed;
        job.completed_at = Some(now);
        let live = self
            .live_jobs
            .remove(&id)
            .expect("a completing job is live");
        let input_bytes: u64 = live
            .tasks
            .iter()
            .map(|t| &self.tasks[t.0 as usize])
            .filter(|t| t.is_map())
            .map(|t| t.bytes)
            .sum();
        let job = self.jobs.get(&id).expect("just updated");
        self.done_jobs.push(JobMetrics {
            job: id,
            name: job.spec.name.clone(),
            input_bytes,
            map_tasks: job.maps_total,
            submitted_at: job.submitted_at,
            completed_at: now,
            duration: job.duration().expect("completed"),
            lead_time: job.lead_time().unwrap_or(simkit::SimDuration::ZERO),
            map_phase: job.map_phase().unwrap_or(simkit::SimDuration::ZERO),
            memory_read_fraction: if live.bytes_read == 0 {
                0.0
            } else {
                live.memory_bytes_read as f64 / live.bytes_read as f64
            },
        });
        self.jobs_remaining -= 1;

        // Explicit eviction through the master (also a safety net for
        // implicit jobs whose blocks were migrated after their read).
        let evict_id = self.wire.evict_job_request(id);
        let nodes = self.master.evict_job(evict_id);
        for node in nodes {
            let job = self.wire.evict_job(evict_id);
            let evictions = self.slaves[node.index()].evict_job(job);
            self.apply_evictions(node, evictions);
        }
        self.resolve_dependents(id);
    }

    /// A job failed (kill injection or unservable read).
    pub(crate) fn fail_job(&mut self, id: JobId) {
        let Some(live) = self.live_jobs.remove(&id) else {
            return; // never submitted, or already completed or failed
        };
        self.jobs.get_mut(&id).expect("a live job has state").status = JobStatus::Failed;
        self.failed_jobs.push(id);
        self.jobs_remaining -= 1;
        // Cancel in-flight task reads and release slots of running tasks.
        let running: Vec<TaskId> = live
            .tasks
            .into_iter()
            .filter(|t| {
                matches!(
                    self.tasks[t.0 as usize].phase,
                    TaskPhase::Reading | TaskPhase::Computing
                )
            })
            .collect();
        for tid in running {
            if let Some((n, k, sid)) = self.task_streams.remove(&tid) {
                self.cancel_stream(n, k, sid);
            }
            let t = &mut self.tasks[tid.0 as usize];
            let node = t.node.expect("running task is placed");
            let kind = if t.is_map() {
                SlotKind::Map
            } else {
                SlotKind::Reduce
            };
            t.phase = TaskPhase::Done;
            self.attempts[tid.0 as usize] += 1; // invalidate pending events
            self.slots.release(node, kind);
        }
        // NOTE: deliberately no eviction — a failed job never issues its
        // evict command; the slaves' scavenge pass reclaims its buffers
        // (§III-C3), which the failure tests verify.
        self.resolve_dependents(id);
        self.kick_schedule();
    }

    /// Speculative execution (standard MapReduce straggler mitigation):
    /// kill-and-requeue map tasks running far behind their *peers* —
    /// Hadoop/LATE-style, a task is a straggler relative to the job's
    /// completed-task durations, not an absolute clock. A re-queued task
    /// gets a fresh placement and read plan; by then its block is often
    /// in memory (DYRS) or a less-loaded disk replica is available.
    /// Called once per heartbeat interval.
    pub(crate) fn check_speculation(&mut self) {
        let max_att = self.cfg.engine.speculative_max_attempts;
        if max_att <= 1 {
            return;
        }
        let now = self.now;
        let factor = self.cfg.engine.speculative_factor;
        let slack = self.cfg.engine.speculative_slack;
        let cap = self.cfg.engine.disk_read_cap;
        let ignem = self.cfg.policy == dyrs::MigrationPolicy::Ignem;
        let mut candidates: Vec<TaskId> = Vec::new();
        for live in self.live_jobs.values() {
            let baseline = live.peer_baseline();
            for &tid in &live.tasks {
                let t = &self.tasks[tid.0 as usize];
                if t.phase != TaskPhase::Reading
                    || t.read_medium.is_none_or(|m| m.is_memory())
                    || self.attempts[tid.0 as usize] + 1 >= max_att
                {
                    continue;
                }
                let elapsed = now.saturating_since(t.started_at.expect("reading"));
                // peer-relative when peers exist, absolute-pace fallback
                let expected = baseline.unwrap_or_else(|| t.bytes as f64 / cap);
                let threshold =
                    simkit::SimDuration::from_secs_f64(expected).mul_f64(factor) + slack;
                if elapsed <= threshold {
                    continue;
                }
                // A speculative copy only helps if it could read from
                // somewhere better. Under Ignem the read path pins the
                // block to its submission-time binding, so until the block
                // is actually in memory the copy would hit the very same
                // disk — speculation cannot rescue Ignem's stragglers
                // (consistent with the slowdowns the paper measured).
                if ignem {
                    let block = t.block.expect("map task");
                    if !self
                        .namenode
                        .has_memory_replica(block, |n| self.node_alive(n))
                        && self.master.ignem_read_target(block).is_some()
                    {
                        continue;
                    }
                }
                candidates.push(tid);
            }
        }
        // Requeue order shapes the event stream: keep it by `TaskId`.
        candidates.sort_unstable();
        for tid in candidates {
            self.speculate(tid);
        }
    }

    fn speculate(&mut self, tid: TaskId) {
        if let Some((n, k, sid)) = self.task_streams.remove(&tid) {
            self.cancel_stream(n, k, sid);
        }
        let node = self.tasks[tid.0 as usize]
            .node
            .expect("reading task placed");
        self.slots.release(node, SlotKind::Map);
        self.speculations += 1;
        // Hadoop never re-runs an attempt on the node it straggled on.
        self.avoid_node[tid.0 as usize] = Some(node);
        self.requeue_task(tid);
        self.kick_schedule();
    }

    fn resolve_dependents(&mut self, completed: JobId) {
        let Some(deps) = self.dependents.remove(&completed) else {
            return;
        };
        for d in deps {
            let remaining = self.waiting_deps.get_mut(&d).expect("dependent registered");
            *remaining -= 1;
            if *remaining == 0 {
                self.waiting_deps.remove(&d);
                let submit_at = self
                    .pending_specs
                    .get(&d)
                    .map(|s| s.submit_at)
                    .unwrap_or(self.now)
                    .max(self.now);
                self.queue.schedule(submit_at, Ev::SubmitJob(d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LiveJob;
    use proptest::prelude::*;

    proptest! {
        /// The incremental baseline equals sorting every duration so far
        /// and taking `xs[len / 2]`, after each insert, with no baseline
        /// below four samples. Durations come from a small pool, so
        /// repeats are common.
        #[test]
        fn peer_baseline_matches_a_full_sort(
            pool in proptest::collection::vec(0.0f64..120.0, 6),
            picks in proptest::collection::vec(0usize..6, 0..48),
        ) {
            let mut live = LiveJob::default();
            let mut seen = Vec::new();
            for i in picks {
                live.record_map(pool[i]);
                seen.push(pool[i]);
                let mut xs = seen.clone();
                xs.sort_by(f64::total_cmp);
                let want = (xs.len() >= 4).then(|| xs[xs.len() / 2]);
                prop_assert_eq!(
                    live.peer_baseline().map(f64::to_bits),
                    want.map(f64::to_bits)
                );
            }
        }
    }
}
