//! Exact lazy index over depletion instants.
//!
//! Both substrates ask the same question after almost every event: when
//! does the next resource (a flow's bytes, a host's compute backlog) run
//! dry under the current rates? Scanning `remaining / rate` over every
//! runnable item costs O(active) divisions per query. [`DepletionIndex`]
//! keeps one min-heap entry per key instead, pushed whenever the key's
//! rates change, and answers a query by recomputing exact values only for
//! the keys whose entries sit within [`CAND_WINDOW`] of the heap top.
//!
//! Keys are `u32`s chosen by the caller (a flow slot, a host). Each key has
//! a 64-bit version; re-keying bumps it, which strands the key's older
//! entries for lazy removal.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap keys for keys whose rates did not change were computed at an
/// *earlier* point than the current query; re-deriving the same absolute
/// crossing from a different `(base time, remaining)` pair shifts it by
/// floating-point accumulation plus the 1 ns round-up — a few nanoseconds
/// at the very worst. Every live entry within this window of the heap top
/// is therefore a candidate for the true minimum and gets an exact
/// recompute; entries beyond it provably cannot win.
pub const CAND_WINDOW: SimDuration = SimDuration::from_nanos(50);

/// The instant, one tick after `from + secs`, at which a resource draining
/// for `secs` crosses its completion threshold. The extra tick makes the
/// winner provably depleted at the returned instant. A crossing past the
/// last representable instant saturates to [`SimTime::MAX`] (never)
/// instead of overflowing.
pub fn crossing(from: SimTime, secs: f64) -> SimTime {
    from.saturating_add(SimDuration::from_secs_f64(secs))
        .saturating_add(SimDuration::from_nanos(1))
}

/// One heap entry: the absolute instant `key` depletes under the rates it
/// had when the entry was pushed. Live only while `ver` matches the key's
/// current version.
///
/// `ver` is 64-bit on purpose: a 32-bit counter re-keyed once per event
/// wraps within reach of a billion-event run, and a wrapped counter
/// colliding with a stranded entry would silently resurrect a cancelled
/// depletion. At one bump per nanosecond a u64 takes ~580 years to wrap,
/// and [`DepletionIndex::invalidate`] fails loudly rather than wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    key: u32,
    ver: u64,
}

/// Lazy min-heap over absolute depletion instants, at most one live entry
/// per key.
#[derive(Debug, Default)]
pub struct DepletionIndex {
    heap: BinaryHeap<Reverse<Entry>>,
    ver: Vec<u64>,
    scratch: Vec<Entry>,
}

impl DepletionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make keys `0..n` addressable.
    pub fn reserve_keys(&mut self, n: usize) {
        if self.ver.len() < n {
            self.ver.resize(n, 0);
        }
    }

    /// Entries held, live or stranded.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the index holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Strand every outstanding entry for `key` by bumping its version.
    /// Checked: a counter that wrapped back onto a stranded entry's
    /// version would resurrect a cancelled depletion, so overflow panics
    /// instead of aliasing.
    pub fn invalidate(&mut self, key: u32) {
        let v = &mut self.ver[key as usize];
        debug_assert!(
            *v < u64::MAX,
            "depletion version counter about to collide with a stranded entry"
        );
        *v = v
            .checked_add(1)
            .expect("depletion version counter overflow");
    }

    /// Record that `key` depletes at `at` under its current rates. The
    /// caller strands the key's previous entry first ([`Self::invalidate`]).
    pub fn push(&mut self, key: u32, at: SimTime) {
        let ver = self.ver[key as usize];
        self.heap.push(Reverse(Entry { at, key, ver }));
    }

    /// Rebuild the heap from its live entries once stranded ones outnumber
    /// them: `live_bound` is an upper bound on the live entry count.
    pub fn compact(&mut self, live_bound: usize) {
        if self.heap.len() > 2 * live_bound + 64 {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|&Reverse(e)| self.ver[e.key as usize] == e.ver);
            self.heap = entries.into();
        }
    }

    /// The minimum over live keys of `exact(key)`, the key's current
    /// seconds-to-depletion, or `None` if no key is live.
    ///
    /// Heap instants only *select* candidates: every live entry within
    /// [`CAND_WINDOW`] of the top is recomputed exactly and the minimum of
    /// those values is returned. Converting it with [`crossing`] from the
    /// caller's current base time equals converting the minimum of a full
    /// scan, because the conversion is monotone and a key outside the
    /// window cannot hold the minimum (see [`CAND_WINDOW`]).
    pub fn min_exact(&mut self, mut exact: impl FnMut(u32) -> f64) -> Option<f64> {
        while let Some(&Reverse(top)) = self.heap.peek() {
            if self.ver[top.key as usize] == top.ver {
                break;
            }
            self.heap.pop();
        }
        let limit = self.heap.peek()?.0.at.saturating_add(CAND_WINDOW);
        let mut best: Option<f64> = None;
        let mut live = std::mem::take(&mut self.scratch);
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.at > limit {
                break;
            }
            self.heap.pop();
            if self.ver[e.key as usize] == e.ver {
                let secs = exact(e.key);
                best = Some(match best {
                    Some(b) => b.min(secs),
                    None => secs,
                });
                live.push(e);
            }
        }
        for e in live.drain(..) {
            self.heap.push(Reverse(e));
        }
        self.scratch = live;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn crossing_rounds_up_one_tick_and_saturates() {
        assert_eq!(crossing(at(100), 1e-6), at(1_101));
        assert_eq!(crossing(SimTime::from_secs(1), 1e12), SimTime::MAX);
        assert_eq!(crossing(SimTime::MAX, 0.0), SimTime::MAX);
    }

    #[test]
    fn stale_entries_are_skipped_and_dropped() {
        let mut d = DepletionIndex::new();
        d.reserve_keys(2);
        d.push(0, at(10));
        d.push(1, at(1_000));
        // Key 0 re-keyed to a later instant: its old entry is stranded.
        d.invalidate(0);
        d.push(0, at(5_000));
        let exact = |k: u32| if k == 0 { 5e-6 } else { 1e-6 };
        assert_eq!(d.min_exact(exact), Some(1e-6));
        // The stranded top was popped; both live entries survive.
        assert_eq!(d.len(), 2);
        d.invalidate(0);
        d.invalidate(1);
        assert_eq!(d.min_exact(exact), None);
        assert!(d.is_empty());
    }

    #[test]
    fn every_live_entry_inside_the_window_is_a_candidate() {
        // The heap's order disagrees with the exact values: key 1 sits
        // 40 ns behind key 0 in the heap but depletes first. Both lie in
        // the window, so the exact minimum wins; key 2 lies past the
        // window and is never evaluated.
        let mut d = DepletionIndex::new();
        d.reserve_keys(3);
        d.push(0, at(1_000));
        d.push(1, at(1_040));
        d.push(2, at(1_000 + CAND_WINDOW.as_nanos() + 1));
        let mut seen = Vec::new();
        let best = d.min_exact(|k| {
            seen.push(k);
            [1.0e-6, 0.9e-6, 0.1e-6][k as usize]
        });
        assert_eq!(best, Some(0.9e-6));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        // Candidates are pushed back, so a repeat query sees them again.
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.min_exact(|k| [1.0e-6, 0.9e-6, 0.1e-6][k as usize]),
            Some(0.9e-6)
        );
    }

    #[test]
    fn compaction_keeps_exactly_the_live_entries() {
        let mut d = DepletionIndex::new();
        d.reserve_keys(1);
        for t in 0..100 {
            d.invalidate(0);
            d.push(0, at(t));
        }
        d.compact(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.min_exact(|_| 7.0), Some(7.0));
    }

    #[test]
    fn crossing_keeps_the_bits_of_every_in_range_instant() {
        // Saturation must not perturb instants that fit: inside the range
        // the rule is exactly `from + secs + 1 ns`.
        for &(from_ns, secs) in &[
            (0, 0.0),
            (0, 1e-9),
            (7, 0.123_456_789),
            (1_000_000_007, 2.5),
            (3_600_000_000_000, 1e6),
        ] {
            let from = at(from_ns);
            assert_eq!(
                crossing(from, secs),
                from + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1),
                "from {from_ns} ns, {secs} s"
            );
        }
    }

    #[test]
    fn empty_index_has_no_minimum() {
        let mut d = DepletionIndex::new();
        assert_eq!(d.min_exact(|_| unreachable!("no key is live")), None);
        d.reserve_keys(3);
        assert_eq!(d.min_exact(|_| unreachable!("no key is live")), None);
        assert!(d.is_empty());
    }

    #[test]
    fn reserving_keys_never_shrinks_or_resets_versions() {
        let mut d = DepletionIndex::new();
        d.reserve_keys(4);
        d.push(3, at(100));
        d.invalidate(3);
        d.invalidate(3);
        // A smaller reservation keeps key 3 and its bumped version, so the
        // entry stranded above stays stranded.
        d.reserve_keys(2);
        assert_eq!(d.ver.len(), 4);
        assert_eq!(d.ver[3], 2);
        assert_eq!(d.min_exact(|_| 1.0), None);
        d.push(3, at(200));
        assert_eq!(d.min_exact(|_| 2.0), Some(2.0));
    }

    #[test]
    fn window_edge_is_a_candidate() {
        // An entry exactly CAND_WINDOW behind the top still lies in the
        // window; one tick further does not.
        let mut d = DepletionIndex::new();
        d.reserve_keys(3);
        d.push(0, at(1_000));
        d.push(1, at(1_000 + CAND_WINDOW.as_nanos()));
        d.push(2, at(1_001 + CAND_WINDOW.as_nanos()));
        let mut seen = Vec::new();
        let best = d.min_exact(|k| {
            seen.push(k);
            [3e-6, 2e-6, 1e-6][k as usize]
        });
        assert_eq!(best, Some(2e-6));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn stranded_entries_inside_the_window_are_dropped_unevaluated() {
        // Key 0's stranded entry sits at the top and its live one a few
        // nanoseconds behind: the key is evaluated once, for its live
        // entry, and only live entries go back on the heap.
        let mut d = DepletionIndex::new();
        d.reserve_keys(2);
        d.push(0, at(1_000));
        d.push(1, at(1_020));
        d.invalidate(0);
        d.push(0, at(1_010));
        d.push(1, at(1_030)); // duplicate live entry for key 1
        let mut seen = Vec::new();
        let best = d.min_exact(|k| {
            seen.push(k);
            [1.01e-6, 1.02e-6][k as usize]
        });
        assert_eq!(best, Some(1.01e-6));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 1]);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn rekeying_to_an_earlier_instant_wins_without_evaluating_the_rest() {
        let mut d = DepletionIndex::new();
        d.reserve_keys(2);
        d.push(0, at(10_000));
        d.push(1, at(5_000));
        d.invalidate(0);
        d.push(0, at(1_000));
        let mut seen = Vec::new();
        let best = d.min_exact(|k| {
            seen.push(k);
            [1e-6, 5e-6][k as usize]
        });
        assert_eq!(best, Some(1e-6));
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn compaction_waits_until_stranded_entries_dominate() {
        let mut d = DepletionIndex::new();
        d.reserve_keys(1);
        d.push(0, at(0));
        for t in 1..66 {
            d.invalidate(0);
            d.push(0, at(t));
        }
        // 66 entries, 1 live: within the 2 * 1 + 64 slack, left alone.
        d.compact(1);
        assert_eq!(d.len(), 66);
        d.invalidate(0);
        d.push(0, at(66));
        // One more crosses the bound and the rebuild keeps only the live one.
        d.compact(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.min_exact(|_| 0.5), Some(0.5));
    }

    #[test]
    fn depletion_versions_do_not_alias_across_u32_wrap() {
        // Regression for the u32 version-counter wrap: after 2^32 re-keys
        // of one key, a `wrapping_add` counter landed back on the version
        // of a *stranded* entry, and the lazy scan treated that cancelled
        // depletion as live. Simulate the 2^32 bumps directly: under the
        // u64 counter, the entry pushed before the jump must read as
        // stale — never resurrected.
        let mut d = DepletionIndex::new();
        d.reserve_keys(1);
        d.push(0, at(1_000));
        assert_eq!(d.min_exact(|_| 1e-6), Some(1e-6));
        let live_ver = d.ver[0];
        // 2^32 re-keys later, a u32 counter reads `live_ver` again; the
        // u64 counter reads a distinct value.
        d.ver[0] = live_ver + (1u64 << 32);
        assert_eq!(
            d.min_exact(|_| 1e-6),
            None,
            "a stranded depletion entry was resurrected across a 32-bit wrap"
        );
        // Re-key at the current version and the key is live again.
        d.push(0, at(1_000));
        assert_eq!(d.min_exact(|_| 1e-6), Some(1e-6));
    }

    #[test]
    #[should_panic(expected = "depletion version counter")]
    fn depletion_version_overflow_fails_loudly() {
        // At the ceiling, a bump must panic rather than wrap into an alias.
        let mut d = DepletionIndex::new();
        d.reserve_keys(1);
        d.ver[0] = u64::MAX;
        d.invalidate(0);
    }
}
