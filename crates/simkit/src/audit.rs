//! Runtime invariant auditing and event-trace digests.
//!
//! Stateful components implement [`Audit`] to check their own conservation
//! invariants (reference-list mirrors, buffer accounting, estimate sanity)
//! into an [`AuditReport`]. The simulation driver — under its
//! `verify-audit` cargo feature — audits every component at heartbeat
//! boundaries and panics with the full violation list on the first dirty
//! report, so a broken invariant is caught at the heartbeat where it
//! appears rather than as a silently wrong figure.
//!
//! [`TraceDigest`] is an order-sensitive 64-bit digest over the
//! dispatched event stream. It is a [`Hasher`]: the driver feeds it the
//! derived `Hash` of each `(time, event)` pair, which folds one word per
//! integer field, so no event is formatted. Two runs of the same scenario
//! under the same seed must produce identical digests; a mismatch means
//! nondeterminism entered the event loop (exactly what `dyrs-verify lint`
//! exists to keep out at the source level). Like the `Debug` text it
//! replaced, the derived `Hash` is the compiler's: a toolchain that
//! changes what it writes for a type moves every digest pin.

use std::fmt;
use std::hash::Hasher;

/// One failed invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which component failed (e.g. `slave[3]`, `master`).
    pub component: String,
    /// The invariant, stated declaratively.
    pub invariant: &'static str,
    /// The observed state that contradicts it.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} — {}",
            self.component, self.invariant, self.detail
        )
    }
}

/// Collector the [`Audit`] implementations write into.
#[derive(Debug, Default)]
pub struct AuditReport {
    violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `invariant` as violated by `component`.
    pub fn fail(&mut self, component: &str, invariant: &'static str, detail: String) {
        self.violations.push(AuditViolation {
            component: component.to_string(),
            invariant,
            detail,
        });
    }

    /// Record a violation unless `ok` holds. `detail` is only evaluated on
    /// failure, so checks stay cheap on the (overwhelmingly common) clean
    /// path.
    pub fn check(
        &mut self,
        ok: bool,
        component: &str,
        invariant: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !ok {
            self.fail(component, invariant, detail());
        }
    }

    /// True if nothing failed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Panic with every violation if the report is dirty. `context` names
    /// the audit point (e.g. `"heartbeat(node 2) @ 13.5s"`).
    pub fn assert_clean(&self, context: &str) {
        if self.is_clean() {
            return;
        }
        let mut msg = format!("audit failed at {context}:");
        for v in &self.violations {
            msg.push_str("\n  - ");
            msg.push_str(&v.to_string());
        }
        panic!("{msg}");
    }
}

/// Self-checking of a component's conservation invariants.
pub trait Audit {
    /// Check every invariant this component can verify locally, recording
    /// failures into `report`. Must not mutate observable state.
    fn audit(&self, report: &mut AuditReport);
}

/// Order-sensitive 64-bit digest over a stream of words.
///
/// Every step folds one word into the state with XOR, an odd multiply
/// and an xorshift, each a bijection of the state, so two streams of
/// equal length that differ in exactly one word always end in different
/// values. Feed it through [`Hasher`]: `(time, &event).hash(&mut digest)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest(u64);

impl TraceDigest {
    /// Initial state (the FNV-1a offset basis, so a fresh digest is not 0).
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    /// Odd multiplier of the step (2^64 / φ, rounded to odd).
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    /// A fresh digest.
    pub const fn new() -> Self {
        TraceDigest(Self::SEED)
    }

    fn fold(&mut self, word: u64) {
        let x = (self.0 ^ word).wrapping_mul(Self::MUL);
        self.0 = x ^ (x >> 32);
    }
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// A value's derived [`Hash`](std::hash::Hash) feeds the digest one word
/// per integer field (an enum's discriminant included), so
/// `(time, event).hash(&mut digest)` folds an event without formatting it.
impl Hasher for TraceDigest {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Fold `bytes` in little-endian 8-byte words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.fold(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_asserts_quietly() {
        let mut r = AuditReport::new();
        r.check(true, "x", "always holds", || unreachable!());
        assert!(r.is_clean());
        r.assert_clean("test");
    }

    #[test]
    fn violations_are_collected_not_thrown() {
        let mut r = AuditReport::new();
        r.check(false, "slave[0]", "pinned bytes conserved", || {
            "1 != 2".into()
        });
        r.fail("master", "pending mirrored", "extra block".into());
        assert!(!r.is_clean());
        assert_eq!(r.violations().len(), 2);
        assert_eq!(r.violations()[0].component, "slave[0]");
    }

    #[test]
    #[should_panic(expected = "pinned bytes conserved")]
    fn dirty_report_panics_with_details() {
        let mut r = AuditReport::new();
        r.fail("slave[0]", "pinned bytes conserved", "1 != 2".into());
        r.assert_clean("unit test");
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = TraceDigest::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
        assert_ne!(TraceDigest::new().finish(), 0);
    }

    #[test]
    fn every_integer_write_folds_one_word() {
        let word = |write: &dyn Fn(&mut TraceDigest)| {
            let mut d = TraceDigest::new();
            write(&mut d);
            d.finish()
        };
        let want = word(&|d| d.write_u64(0xfe));
        assert_eq!(word(&|d| d.write_u8(0xfe)), want);
        assert_eq!(word(&|d| d.write_u32(0xfe)), want);
        assert_eq!(word(&|d| d.write_usize(0xfe)), want);
        assert_eq!(word(&|d| d.write_isize(0xfe)), want);
        // Bytes fold in little-endian words, the last one zero-padded.
        assert_eq!(word(&|d| d.write(&[0xfe])), want);
        let nine = word(&|d| d.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]));
        assert_eq!(
            nine,
            word(&|d| {
                d.write_u64(1);
                d.write_u64(2);
            })
        );
    }
}
