//! Lint fixture: raw pending-store access outside `crates/core/src/sched`.
//! Scanned by `tests/lint_fixtures.rs` — never compiled, so it needs no
//! real dependencies. Every hazard here must be caught; the
//! commented-out ones must NOT be (comments are stripped before rules
//! run).

// for e in master.sched.raw_pending.iter() {}  <- comment: must not fire

pub fn iterates_raw_store(sched: &Scheduler) -> usize {
    // pending-fence: the slab's indexes and dirty-sets drift if callers
    // reach around the Scheduler API.
    sched.raw_pending.len()
}

pub fn mutates_raw_slot(sched: &mut Scheduler) {
    // pending-fence: even single-slot writes bypass the dirty tracking.
    sched.raw_pending[0] = None;
}

pub fn says_raw_pending_in_a_string() -> &'static str {
    "raw_pending is only prose here and must not fire"
}

pub fn a_rawer_identifier_is_fine(raw_pending_depth: usize) -> usize {
    // not the token itself: identifier boundaries must hold
    raw_pending_depth
}
