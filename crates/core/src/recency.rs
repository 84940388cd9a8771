//! The recency stack (RS): latest-occurrence-only history management
//! (§III-B of the paper, Figure 3).
//!
//! A recency stack tracks, for each non-biased branch, only its **most
//! recent** occurrence: on a hit the entry moves to the top (its outcome
//! and position refreshed); on a miss the stack shifts like a
//! conventional history register, evicting the oldest entry when full.
//! Each entry carries its *positional history* (§III-C) — the absolute
//! distance of that occurrence from the current branch — implemented as
//! a birth timestamp against a global commit counter.

use bfbp_sim::ckpt::{CodecError, Restorable, StateReader, StateWriter};

/// Width of the hashed branch addresses a stack holds (Table I budgets
/// 14 bits of each 16-bit entry to the address).
pub const KEY_BITS: u32 = 14;

/// One recency-stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsEntry {
    /// Hashed address of the branch.
    pub key: u64,
    /// Outcome of its most recent occurrence.
    pub outcome: bool,
    /// Global commit count at the most recent occurrence; the entry's
    /// positional history is `now - birth`.
    pub birth: u64,
}

impl RsEntry {
    /// The entry's positional history (`pos_hist`): absolute distance of
    /// the tracked occurrence from the present.
    pub fn position(&self, now: u64) -> u64 {
        now.saturating_sub(self.birth)
    }
}

/// A fixed-capacity recency stack, newest entry first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecencyStack {
    entries: Vec<RsEntry>,
    capacity: usize,
}

impl RecencyStack {
    /// Creates a stack holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records an occurrence of `key` with the given outcome at commit
    /// time `now`.
    ///
    /// If `key` is present, it moves to the top with refreshed outcome
    /// and birth (the Figure 3 clock-gated shift: entries between the top
    /// and the hit slide down by one, older entries stay). Otherwise a
    /// new entry is pushed and the oldest is evicted if over capacity.
    pub fn record(&mut self, key: u64, outcome: bool, now: u64) {
        let entry = RsEntry {
            key,
            outcome,
            birth: now,
        };
        if let Some(hit) = self.entries.iter().position(|e| e.key == key) {
            self.entries[..=hit].rotate_right(1);
            self.entries[0] = entry;
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, entry);
        }
    }

    /// Iterates entries newest-first.
    pub fn iter(&self) -> std::slice::Iter<'_, RsEntry> {
        self.entries.iter()
    }

    /// Position of `key` in the stack (0 = newest), if present.
    pub fn depth_of(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// Checks that every entry was born before the commit clock `now`.
    ///
    /// Owners restore their clock after the stack, so they call this
    /// once both are loaded; births are already known to be strictly
    /// decreasing, so only the newest entry needs the check.
    pub fn check_births_before(&self, now: u64) -> Result<(), CodecError> {
        match self.entries.first() {
            Some(top) if top.birth >= now => Err(CodecError::Malformed(
                "recency stack birth at or after the clock",
            )),
            _ => Ok(()),
        }
    }

    /// Storage estimate in bits: each entry holds a 14-bit hashed
    /// address, 1 outcome bit and an 11-bit position counter — the
    /// paper's Table I budgets RS entries at 16 bits.
    pub fn storage_bits(&self) -> u64 {
        self.capacity as u64 * 16
    }
}

impl Restorable for RecencyStack {
    fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.entries.len());
        for e in &self.entries {
            w.u64(e.key);
            w.bool(e.outcome);
            w.u64(e.birth);
        }
    }

    /// Restores a stack written by `save_state`. Rejects a stack that
    /// `record` could not have built: over capacity, a key wider than
    /// [`KEY_BITS`], a key held twice, or births that do not strictly
    /// decrease from the top. The owner checks the births against its
    /// clock with [`RecencyStack::check_births_before`].
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), CodecError> {
        let count = r.usize()?;
        if count > self.capacity {
            return Err(CodecError::Malformed("recency stack over capacity"));
        }
        let mut entries: Vec<RsEntry> = Vec::with_capacity(self.capacity);
        for _ in 0..count {
            let entry = RsEntry {
                key: r.u64()?,
                outcome: r.bool()?,
                birth: r.u64()?,
            };
            if entry.key >> KEY_BITS != 0 {
                return Err(CodecError::Malformed(
                    "recency stack key wider than 14 bits",
                ));
            }
            if entries.iter().any(|e| e.key == entry.key) {
                return Err(CodecError::Malformed("recency stack duplicate key"));
            }
            if entries.last().is_some_and(|e| e.birth <= entry.birth) {
                return Err(CodecError::Malformed(
                    "recency stack births not strictly decreasing",
                ));
            }
            entries.push(entry);
        }
        self.entries = entries;
        Ok(())
    }
}

impl<'a> IntoIterator for &'a RecencyStack {
    type Item = &'a RsEntry;
    type IntoIter = std::slice::Iter<'a, RsEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_only_latest_occurrence() {
        let mut rs = RecencyStack::new(4);
        rs.record(0xA, true, 1);
        rs.record(0xB, false, 2);
        rs.record(0xA, false, 3); // A recurs: moves to top, refreshed
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.depth_of(0xA), Some(0));
        assert_eq!(rs.depth_of(0xB), Some(1));
        let top = rs.iter().next().unwrap();
        assert_eq!(top.key, 0xA);
        assert!(!top.outcome);
        assert_eq!(top.birth, 3);
    }

    #[test]
    fn miss_acts_like_shift_register() {
        let mut rs = RecencyStack::new(3);
        for (i, key) in [0x1u64, 0x2, 0x3].iter().enumerate() {
            rs.record(*key, true, i as u64);
        }
        assert_eq!(rs.len(), 3);
        // A fourth distinct key evicts the oldest (0x1).
        rs.record(0x4, true, 3);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.depth_of(0x1), None);
        assert_eq!(rs.depth_of(0x4), Some(0));
        assert_eq!(rs.depth_of(0x2), Some(2));
    }

    #[test]
    fn intermediate_entries_slide_down() {
        let mut rs = RecencyStack::new(4);
        rs.record(0x1, true, 0);
        rs.record(0x2, true, 1);
        rs.record(0x3, true, 2);
        // Hit on the bottom entry: 0x3 and 0x2 slide down, 0x1 to top.
        rs.record(0x1, false, 3);
        let keys: Vec<u64> = rs.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![0x1, 0x3, 0x2]);
    }

    #[test]
    fn position_tracks_absolute_distance() {
        let mut rs = RecencyStack::new(4);
        rs.record(0xA, true, 10);
        let e = *rs.iter().next().unwrap();
        assert_eq!(e.position(10), 0);
        assert_eq!(e.position(25), 15);
        // Position survives other branches entering above it.
        rs.record(0xB, true, 11);
        let a = rs.iter().find(|e| e.key == 0xA).unwrap();
        assert_eq!(a.position(25), 15);
    }

    #[test]
    fn uniqueness_invariant_holds_under_stress() {
        let mut rs = RecencyStack::new(8);
        for i in 0..1000u64 {
            rs.record(i % 13, i % 2 == 0, i);
            // Invariant: no duplicate keys, size within capacity.
            let mut keys: Vec<u64> = rs.iter().map(|e| e.key).collect();
            assert!(keys.len() <= 8);
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), rs.len());
            // Births strictly decreasing from top to bottom.
            let births: Vec<u64> = rs.iter().map(|e| e.birth).collect();
            for w in births.windows(2) {
                assert!(w[0] > w[1]);
            }
        }
    }

    #[test]
    fn storage_matches_table_i_budget() {
        // Table I: "RS 142 entries × 16 bits/entry = 284 bytes".
        let rs = RecencyStack::new(142);
        assert_eq!(rs.storage_bits(), 142 * 16);
        assert_eq!(rs.storage_bits() / 8, 284);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        RecencyStack::new(0);
    }
}
