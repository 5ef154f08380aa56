//! Fluid-flow (processor-sharing) resource model.
//!
//! Disks and NICs are modeled as fluid resources: a set of concurrent
//! *streams*, each with a number of bytes remaining, share the resource's
//! capacity in proportion to their weights. The aggregate capacity itself
//! degrades with concurrency (`cap(n) = base / (1 + d·(n−1))`), which
//! captures seek thrashing on spinning disks — the reason DYRS serializes
//! migrations at each slave (paper §III-B).
//!
//! The model is event-driven: between membership changes, rates are
//! constant, so the next completion time is exactly predictable. The
//! resource solves its water-fill once per change and keeps the rates, so
//! advancing it and asking for its next completion allocate nothing. A caller
//! (the simulation driver) asks for [`FluidResource::next_completion`],
//! schedules an event, and tags it with the current [`FluidResource::generation`];
//! if membership changed in the meantime the generation won't match and the
//! stale event is ignored.
//!
//! Interference (the paper's `dd` readers) is modeled as streams with
//! [`f64::INFINITY`] bytes remaining: they consume their share of bandwidth
//! forever but never complete.

use crate::time::{SimDuration, SimTime};

/// Identifies a stream within one resource. Includes a stamp so a slot that
/// is freed and reused cannot be confused with its previous occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    slot: u32,
    stamp: u32,
}

#[derive(Debug, Clone)]
struct Stream {
    stamp: u32,
    remaining: f64, // bytes; INFINITY for interference streams
    weight: f64,
    cap: f64, // max transfer rate, bytes/sec (INFINITY = uncapped)
    tag: u64, // caller-defined payload (e.g. task id, migration id)
}

/// A shared resource with processor-sharing semantics and concurrency
/// degradation.
///
/// ```
/// use simkit::{FluidResource, SimTime};
///
/// // 100 B/s disk, no degradation
/// let mut disk = FluidResource::new(100.0, 0.0);
/// // a capped "application reader" and an uncapped "migration"
/// let reader = disk.add_stream_capped(SimTime::ZERO, 1000.0, 1.0, 10.0, 0);
/// let migration = disk.add_stream(SimTime::ZERO, 180.0, 1.0, 1);
/// // water-filling: the capped reader gets its 10 B/s, the migration
/// // soaks up the residual 90 B/s
/// assert_eq!(disk.stream_rate(reader), Some(10.0));
/// assert_eq!(disk.stream_rate(migration), Some(90.0));
/// // the migration finishes at exactly 2 s
/// let done = disk.advance(disk.next_completion().unwrap());
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].tag, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FluidResource {
    base_capacity: f64, // bytes/sec with one active stream
    degradation: f64,   // per-extra-stream capacity penalty
    slots: Vec<Option<Stream>>,
    free: Vec<u32>,
    active: usize,
    /// `(slot, rate)` of every active stream in slot order: the water-fill
    /// of the current generation (see [`FluidResource::changed`]).
    rates: Vec<(u32, f64)>,
    last_advance: SimTime,
    generation: u64,
    next_stamp: u32,
    /// Cumulative bytes transferred (for utilization accounting).
    bytes_moved: f64,
    /// Cumulative busy time (at least one active stream).
    busy: SimDuration,
}

/// Completion record returned by [`FluidResource::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Which stream finished.
    pub id: StreamId,
    /// The caller-defined tag it carried.
    pub tag: u64,
}

const EPS_BYTES: f64 = 1e-6;

impl FluidResource {
    /// A resource with `base_capacity` bytes/sec at concurrency 1 and a
    /// degradation coefficient `d ≥ 0`: with `n` concurrent streams the
    /// aggregate capacity is `base / (1 + d·(n−1))`.
    pub fn new(base_capacity: f64, degradation: f64) -> Self {
        assert!(
            base_capacity > 0.0 && base_capacity.is_finite(),
            "invalid capacity {base_capacity}"
        );
        assert!(
            degradation >= 0.0 && degradation.is_finite(),
            "invalid degradation {degradation}"
        );
        FluidResource {
            base_capacity,
            degradation,
            slots: Vec::new(),
            free: Vec::new(),
            active: 0,
            rates: Vec::new(),
            last_advance: SimTime::ZERO,
            generation: 0,
            next_stamp: 0,
            bytes_moved: 0.0,
            busy: SimDuration::ZERO,
        }
    }

    /// Number of currently active streams.
    pub fn active_streams(&self) -> usize {
        self.active
    }

    /// Aggregate capacity (bytes/sec) at the current concurrency.
    pub fn aggregate_capacity(&self) -> f64 {
        if self.active == 0 {
            self.base_capacity
        } else {
            self.base_capacity / (1.0 + self.degradation * (self.active as f64 - 1.0))
        }
    }

    /// Configured single-stream capacity (bytes/sec).
    pub fn base_capacity(&self) -> f64 {
        self.base_capacity
    }

    /// Current transfer rate (bytes/sec) of one stream, or `None` if absent.
    pub fn stream_rate(&self, id: StreamId) -> Option<f64> {
        self.get(id)?;
        let i = self
            .rates
            .binary_search_by_key(&id.slot, |&(slot, _)| slot)
            .ok()?;
        Some(self.rates[i].1)
    }

    /// Record a change to the active set, a weight, a cap or the
    /// capacity: bump the generation (invalidating completions predicted
    /// at the old rates) and re-solve the water-fill. Every mutator calls
    /// this, so `rates` always belongs to the current generation.
    fn changed(&mut self) {
        self.generation += 1;
        self.fill_rates();
    }

    /// Weighted water-filling into `rates`: capacity is shared in
    /// proportion to weights, but no stream exceeds its cap; slack freed
    /// by capped streams is redistributed to the rest. A stream not yet
    /// fixed at its cap holds NaN (a cap is never NaN).
    fn fill_rates(&mut self) {
        let slots = &self.slots;
        let live = |slot: u32| {
            slots[slot as usize]
                .as_ref()
                .expect("rates lists active slots")
        };
        self.rates.clear();
        let mut unfixed_weight = 0.0;
        for (slot, s) in slots.iter().enumerate() {
            if let Some(s) = s {
                self.rates.push((slot as u32, f64::NAN));
                unfixed_weight += s.weight;
            }
        }
        let mut unfixed = self.rates.len();
        let mut remaining = self.aggregate_capacity();
        // Repeatedly fix streams whose cap is below their fair share and
        // redistribute. Terminates in ≤ n rounds.
        while unfixed > 0 {
            let share = remaining / unfixed_weight;
            let before = unfixed;
            for (slot, rate) in self.rates.iter_mut().filter(|e| e.1.is_nan()) {
                let s = live(*slot);
                if s.cap < share * s.weight {
                    *rate = s.cap;
                    remaining -= s.cap;
                    unfixed_weight -= s.weight;
                    unfixed -= 1;
                }
            }
            if unfixed == before {
                for (slot, rate) in self.rates.iter_mut().filter(|e| e.1.is_nan()) {
                    *rate = share * live(*slot).weight;
                }
                break;
            }
        }
    }

    /// Bytes left on a stream, or `None` if absent.
    pub fn stream_remaining(&self, id: StreamId) -> Option<f64> {
        self.get(id).map(|s| s.remaining)
    }

    /// The caller-defined tag a stream carries, or `None` if absent.
    /// Lets a caller that allocated the tag from a slab free the slot
    /// when it cancels the stream instead of waiting for completion.
    pub fn stream_tag(&self, id: StreamId) -> Option<u64> {
        self.get(id).map(|s| s.tag)
    }

    /// Monotone counter bumped on every membership change; used to detect
    /// stale completion events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total bytes transferred so far (finite streams and interference alike).
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }

    /// Total time this resource had at least one active stream.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    fn get(&self, id: StreamId) -> Option<&Stream> {
        self.slots
            .get(id.slot as usize)?
            .as_ref()
            .filter(|s| s.stamp == id.stamp)
    }

    /// Advance the fluid state to `now`, returning any streams that
    /// completed (their remaining bytes reached zero). Completions are
    /// reported in slot order, which is deterministic.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        debug_assert!(now >= self.last_advance, "fluid clock went backwards");
        let dt = now.saturating_since(self.last_advance);
        self.last_advance = now;
        if self.active == 0 || dt.is_zero() {
            return Vec::new();
        }
        self.busy += dt;
        let dt_s = dt.as_secs_f64();
        let mut done = Vec::new();
        for &(slot, rate) in &self.rates {
            let s = self.slots[slot as usize]
                .as_mut()
                .expect("rates lists active slots");
            let moved = (rate * dt_s).min(s.remaining);
            if moved.is_finite() {
                self.bytes_moved += moved;
            }
            if s.remaining.is_finite() {
                s.remaining -= moved;
                if s.remaining <= EPS_BYTES {
                    done.push(Completion {
                        id: StreamId {
                            slot,
                            stamp: s.stamp,
                        },
                        tag: s.tag,
                    });
                }
            }
        }
        // Remove completed streams.
        for c in &done {
            self.slots[c.id.slot as usize]
                .take()
                .expect("completed stream present");
            self.active -= 1;
            self.free.push(c.id.slot);
        }
        if !done.is_empty() {
            self.changed();
        }
        done
    }

    /// Add a stream of `bytes` (may be `INFINITY` for interference) with the
    /// given relative `weight`. The resource must already be advanced to
    /// `now` by the caller (enforced in debug builds).
    pub fn add_stream(&mut self, now: SimTime, bytes: f64, weight: f64, tag: u64) -> StreamId {
        self.add_stream_capped(now, bytes, weight, f64::INFINITY, tag)
    }

    /// Like [`FluidResource::add_stream`] but with a per-stream rate cap
    /// (bytes/sec): the stream never transfers faster than `cap` even when
    /// the resource has spare capacity. Models application-level readers
    /// whose effective rate is bounded by request-at-a-time chunking
    /// rather than by the medium (HDFS task reads), while uncapped streams
    /// (migrations, `dd`) use everything they can get.
    pub fn add_stream_capped(
        &mut self,
        now: SimTime,
        bytes: f64,
        weight: f64,
        cap: f64,
        tag: u64,
    ) -> StreamId {
        debug_assert_eq!(self.last_advance, now, "add_stream without advance");
        assert!(bytes >= 0.0, "negative stream size");
        assert!(
            weight > 0.0 && weight.is_finite(),
            "invalid weight {weight}"
        );
        assert!(cap > 0.0, "invalid cap {cap}");
        let stamp = self.next_stamp;
        self.next_stamp = self.next_stamp.wrapping_add(1);
        let stream = Stream {
            stamp,
            remaining: bytes.max(EPS_BYTES * 2.0),
            weight,
            cap,
            tag,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(stream);
                s
            }
            None => {
                self.slots.push(Some(stream));
                (self.slots.len() - 1) as u32
            }
        };
        self.active += 1;
        self.changed();
        StreamId { slot, stamp }
    }

    /// Change the resource's single-stream capacity in place (a gray
    /// failure degrading a disk, or its later restoration). The resource
    /// must already be advanced to `now` so in-flight streams are charged
    /// at the old rate up to the change instant; the generation bumps so
    /// completion events predicted at the old rate are discarded.
    pub fn set_base_capacity(&mut self, now: SimTime, cap: f64) {
        debug_assert_eq!(self.last_advance, now, "set_base_capacity without advance");
        assert!(cap > 0.0 && cap.is_finite(), "invalid capacity {cap}");
        self.base_capacity = cap;
        self.changed();
    }

    /// Change one stream's rate cap in place (freezing a stuck stream to a
    /// trickle, or unfreezing it back to `INFINITY`). Returns `false` if
    /// the stream no longer exists. The resource must already be advanced
    /// to `now`; the generation bumps to invalidate stale completions.
    pub fn set_stream_cap(&mut self, now: SimTime, id: StreamId, cap: f64) -> bool {
        debug_assert_eq!(self.last_advance, now, "set_stream_cap without advance");
        assert!(cap > 0.0, "invalid cap {cap}");
        match self.slots.get_mut(id.slot as usize) {
            Some(Some(s)) if s.stamp == id.stamp => {
                s.cap = cap;
                self.changed();
                true
            }
            _ => false,
        }
    }

    /// Remove a stream before completion (e.g. a cancelled migration or a
    /// toggled-off interference source). Returns its remaining bytes, or
    /// `None` if the stream no longer exists.
    pub fn remove_stream(&mut self, now: SimTime, id: StreamId) -> Option<f64> {
        debug_assert_eq!(self.last_advance, now, "remove_stream without advance");
        let entry = self.slots.get_mut(id.slot as usize)?;
        match entry {
            Some(s) if s.stamp == id.stamp => {
                let s = entry
                    .take()
                    .expect("slot occupancy verified by the is_some guard");
                self.active -= 1;
                self.free.push(id.slot);
                self.changed();
                Some(s.remaining)
            }
            _ => None,
        }
    }

    /// Predicted instant of the earliest finite-stream completion at current
    /// rates, or `None` if only interference (or nothing) is active.
    ///
    /// The returned time is rounded **up** to the next microsecond so that
    /// advancing to it always completes the stream.
    pub fn next_completion(&self) -> Option<SimTime> {
        if self.active == 0 {
            return None;
        }
        let mut best: Option<f64> = None;
        for &(slot, rate) in &self.rates {
            let s = self.slots[slot as usize].as_ref().expect("active slot");
            if s.remaining.is_finite() && rate > 0.0 {
                let secs = s.remaining / rate;
                best = Some(best.map_or(secs, |b: f64| b.min(secs)));
            }
        }
        best.map(|secs| {
            let us = (secs * 1e6).ceil().max(1.0) as u64;
            self.last_advance + SimDuration::from_micros(us)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_stream_runs_at_base_capacity() {
        let mut r = FluidResource::new(100.0, 0.1); // 100 B/s
        let id = r.add_stream(SimTime::ZERO, 200.0, 1.0, 7);
        assert_eq!(r.stream_rate(id), Some(100.0));
        let fin = r.next_completion().unwrap();
        assert_eq!(fin, t(2.0));
        let done = r.advance(fin);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(r.active_streams(), 0);
    }

    #[test]
    fn two_streams_share_with_degradation() {
        let mut r = FluidResource::new(100.0, 0.25);
        r.add_stream(SimTime::ZERO, 1000.0, 1.0, 1);
        r.add_stream(SimTime::ZERO, 1000.0, 1.0, 2);
        // aggregate = 100/(1+0.25) = 80; each stream gets 40 B/s
        assert!((r.aggregate_capacity() - 80.0).abs() < 1e-9);
        let fin = r.next_completion().unwrap();
        assert_eq!(fin, t(25.0));
        let done = r.advance(fin);
        assert_eq!(done.len(), 2); // identical streams finish together
    }

    #[test]
    fn weights_split_proportionally() {
        let mut r = FluidResource::new(90.0, 0.0);
        let a = r.add_stream(SimTime::ZERO, 1000.0, 2.0, 1);
        let b = r.add_stream(SimTime::ZERO, 1000.0, 1.0, 2);
        assert!((r.stream_rate(a).unwrap() - 60.0).abs() < 1e-9);
        assert!((r.stream_rate(b).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn interference_stream_never_completes_but_consumes() {
        let mut r = FluidResource::new(100.0, 0.0);
        r.add_stream(SimTime::ZERO, f64::INFINITY, 1.0, 99);
        let id = r.add_stream(SimTime::ZERO, 100.0, 1.0, 1);
        assert_eq!(r.stream_rate(id), Some(50.0));
        let fin = r.next_completion().unwrap(); // only the finite stream counts
        assert_eq!(fin, t(2.0));
        let done = r.advance(fin);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert_eq!(r.active_streams(), 1); // interference still there
        assert!(r.next_completion().is_none());
    }

    #[test]
    fn rates_rebalance_when_stream_leaves() {
        let mut r = FluidResource::new(100.0, 0.0);
        let a = r.add_stream(SimTime::ZERO, 100.0, 1.0, 1);
        let b = r.add_stream(SimTime::ZERO, 100.0, 1.0, 2);
        r.advance(t(1.0)); // each moved 50 bytes
        assert!((r.stream_remaining(a).unwrap() - 50.0).abs() < 1e-6);
        let rem = r.remove_stream(t(1.0), b).unwrap();
        assert!((rem - 50.0).abs() < 1e-6);
        // a now gets full capacity: 50 bytes / 100 Bps = 0.5 s
        let fin = r.next_completion().unwrap();
        assert_eq!(fin, t(1.5));
    }

    #[test]
    fn generation_bumps_on_membership_changes() {
        let mut r = FluidResource::new(10.0, 0.0);
        let g0 = r.generation();
        let id = r.add_stream(SimTime::ZERO, 10.0, 1.0, 0);
        assert!(r.generation() > g0);
        let g1 = r.generation();
        r.remove_stream(SimTime::ZERO, id);
        assert!(r.generation() > g1);
    }

    #[test]
    fn stale_id_lookups_fail() {
        let mut r = FluidResource::new(10.0, 0.0);
        let id = r.add_stream(SimTime::ZERO, 10.0, 1.0, 0);
        r.remove_stream(SimTime::ZERO, id);
        // slot reused with a new stamp
        let id2 = r.add_stream(SimTime::ZERO, 10.0, 1.0, 1);
        assert_eq!(id.slot, id2.slot);
        assert!(r.stream_rate(id).is_none());
        assert!(r.remove_stream(SimTime::ZERO, id).is_none());
        assert!(r.stream_rate(id2).is_some());
    }

    #[test]
    fn busy_time_and_bytes_accounted() {
        let mut r = FluidResource::new(100.0, 0.0);
        r.advance(t(5.0)); // idle: no busy time
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        r.add_stream(t(5.0), 100.0, 1.0, 0);
        let fin = r.next_completion().unwrap();
        r.advance(fin);
        assert_eq!(r.busy_time(), SimDuration::from_secs(1));
        assert!((r.bytes_moved() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn completion_time_rounds_up() {
        let mut r = FluidResource::new(3.0, 0.0); // awkward rate
        r.add_stream(SimTime::ZERO, 1.0, 1.0, 0);
        let fin = r.next_completion().unwrap();
        let done = r.advance(fin);
        assert_eq!(done.len(), 1, "stream must complete at predicted time");
    }

    #[test]
    fn zero_byte_stream_completes_immediately() {
        let mut r = FluidResource::new(100.0, 0.0);
        r.add_stream(SimTime::ZERO, 0.0, 1.0, 0);
        let fin = r.next_completion().unwrap();
        let done = r.advance(fin);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn capped_stream_never_exceeds_cap() {
        let mut r = FluidResource::new(100.0, 0.0);
        let id = r.add_stream_capped(SimTime::ZERO, 100.0, 1.0, 10.0, 0);
        assert_eq!(r.stream_rate(id), Some(10.0), "alone but capped");
        let fin = r.next_completion().unwrap();
        assert_eq!(fin, t(10.0));
    }

    #[test]
    fn uncapped_stream_takes_capped_streams_slack() {
        let mut r = FluidResource::new(100.0, 0.0);
        let capped = r.add_stream_capped(SimTime::ZERO, 1000.0, 1.0, 10.0, 0);
        let free = r.add_stream(SimTime::ZERO, 1000.0, 1.0, 1);
        // fair share would be 50/50; the capped stream only uses 10, the
        // uncapped one gets the remaining 90.
        assert_eq!(r.stream_rate(capped), Some(10.0));
        assert_eq!(r.stream_rate(free), Some(90.0));
    }

    #[test]
    fn contention_pushes_capped_streams_below_cap() {
        let mut r = FluidResource::new(100.0, 0.0);
        let ids: Vec<StreamId> = (0..20)
            .map(|i| r.add_stream_capped(SimTime::ZERO, 1e9, 1.0, 10.0, i))
            .collect();
        // 20 × 10 = 200 demanded > 100 capacity → each gets 5
        for id in &ids {
            assert!((r.stream_rate(*id).unwrap() - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_weight_interference_starves_light_readers() {
        // Two dd-style streams (weight 12, uncapped) against one capped
        // reader: the reader's share collapses well below its cap.
        let mut r = FluidResource::new(140.0, 0.0);
        r.add_stream(SimTime::ZERO, f64::INFINITY, 12.0, 0);
        r.add_stream(SimTime::ZERO, f64::INFINITY, 12.0, 1);
        let reader = r.add_stream_capped(SimTime::ZERO, 1e9, 1.0, 10.0, 2);
        let rate = r.stream_rate(reader).unwrap();
        assert!((rate - 140.0 / 25.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn water_filling_cascades() {
        // caps 5 and 20, plus one uncapped, capacity 100:
        // round 1: share 33.3 → cap-5 fixes; round 2: share 47.5 → cap-20
        // fixes; uncapped gets 75.
        let mut r = FluidResource::new(100.0, 0.0);
        let a = r.add_stream_capped(SimTime::ZERO, 1e9, 1.0, 5.0, 0);
        let b = r.add_stream_capped(SimTime::ZERO, 1e9, 1.0, 20.0, 1);
        let c = r.add_stream(SimTime::ZERO, 1e9, 1.0, 2);
        assert_eq!(r.stream_rate(a), Some(5.0));
        assert_eq!(r.stream_rate(b), Some(20.0));
        assert_eq!(r.stream_rate(c), Some(75.0));
    }

    #[test]
    fn set_base_capacity_reschedules_in_flight_streams() {
        let mut r = FluidResource::new(100.0, 0.0);
        r.add_stream(SimTime::ZERO, 200.0, 1.0, 0);
        let g = r.generation();
        r.advance(t(1.0)); // 100 bytes moved, 100 left
        r.set_base_capacity(t(1.0), 10.0); // disk degraded 10x
        assert!(r.generation() > g, "stale completions must be invalidated");
        let fin = r.next_completion().unwrap();
        assert_eq!(fin, t(11.0)); // 100 bytes at 10 B/s
        r.set_base_capacity(t(1.0), 100.0); // restored
        assert_eq!(r.next_completion().unwrap(), t(2.0));
    }

    #[test]
    fn set_stream_cap_freezes_and_unfreezes() {
        let mut r = FluidResource::new(100.0, 0.0);
        let id = r.add_stream(SimTime::ZERO, 100.0, 1.0, 0);
        assert!(r.set_stream_cap(SimTime::ZERO, id, 1e-3));
        r.advance(t(1.0)); // effectively stuck: ~1e-3 bytes moved
        assert!(r.stream_remaining(id).unwrap() > 99.0);
        assert!(r.set_stream_cap(t(1.0), id, f64::INFINITY));
        let fin = r.next_completion().unwrap();
        assert!(fin <= t(2.1), "unfrozen stream resumes at full rate");
        // stale ids are rejected
        r.advance(fin);
        assert!(!r.set_stream_cap(fin, id, 1.0));
    }

    #[test]
    fn many_streams_slot_reuse_is_consistent() {
        let mut r = FluidResource::new(1000.0, 0.05);
        let mut now = SimTime::ZERO;
        let mut live: Vec<StreamId> = Vec::new();
        for i in 0..100u64 {
            r.advance(now);
            let id = r.add_stream(now, 10.0 + i as f64, 1.0, i);
            live.push(id);
            if i % 3 == 0 {
                let victim = live.remove(0);
                r.remove_stream(now, victim);
            }
            now += SimDuration::from_millis(10);
        }
        // drain
        while r.next_completion().is_some() {
            let fin = r.next_completion().unwrap();
            r.advance(fin);
        }
        assert_eq!(r.active_streams(), 0);
    }
}
