//! Hash accumulator (paper §5.3): the MSA's dense arrays are replaced with
//! an open-addressing hash table (linear probing) whose footprint is
//! proportional to the mask row, not the matrix width — fewer cache misses
//! at the price of hashing.
//!
//! Per the paper: state and value live in the same table, there is **no
//! resizing** (the row's key population is known up front), and the load
//! factor is 0.25.

use super::{Accumulator, State};
use mspgemm_sparse::Idx;

const EMPTY: Idx = Idx::MAX;

/// Inverse load factor. The paper fixes the load factor at 0.25, i.e. the
/// table is sized at 4× the expected key count (rounded up to a power of
/// two). `abl_hash_load` sweeps this choice.
pub const DEFAULT_CAPACITY_FACTOR: usize = 4;

/// Open-addressing hash accumulator with linear probing.
pub struct HashAccum<V> {
    keys: Vec<Idx>,
    states: Vec<State>,
    values: Vec<V>,
    /// Active table size for the current row (power of two).
    cap: usize,
    shift: u32,
    /// Keys inserted this row, for complemented gathers.
    inserted: Vec<Idx>,
    capacity_factor: usize,
}

impl<V: Copy + Default> HashAccum<V> {
    /// New accumulator with the paper's 0.25 load factor.
    pub fn new() -> Self {
        Self::with_capacity_factor(DEFAULT_CAPACITY_FACTOR)
    }

    /// New accumulator with table size `factor × keys` (ablation knob;
    /// `factor = 4` ⇔ load factor 0.25).
    pub fn with_capacity_factor(factor: usize) -> Self {
        assert!(factor >= 1, "capacity factor must be at least 1");
        Self {
            keys: Vec::new(),
            states: Vec::new(),
            values: Vec::new(),
            cap: 0,
            shift: 32,
            inserted: Vec::new(),
            capacity_factor: factor,
        }
    }

    /// Prepare the table for a row expecting at most `expected_keys`
    /// distinct keys. Reuses the allocation; wipes only `cap` slots.
    pub fn begin_row(&mut self, expected_keys: usize) {
        // `+ 1` guarantees at least one EMPTY slot even at load factor 1,
        // so probes for absent keys always terminate.
        let want = (self.capacity_factor * expected_keys.max(1) + 1)
            .next_power_of_two()
            .max(8);
        if self.keys.len() < want {
            self.keys.resize(want, EMPTY);
            self.states.resize(want, State::NotAllowed);
            self.values.resize(want, V::default());
        }
        self.cap = want;
        self.shift = 32 - want.trailing_zeros();
        self.keys[..want].fill(EMPTY);
        self.inserted.clear();
    }

    /// Fibonacci multiplicative hash into the table's index range.
    #[inline(always)]
    fn slot(&self, key: Idx) -> usize {
        ((key.wrapping_mul(2654435761)) >> self.shift) as usize
    }

    /// Find `key`'s slot, or the empty slot where it would be inserted.
    #[inline(always)]
    fn probe(&self, key: Idx) -> usize {
        probe_from(&self.keys, self.cap, self.slot(key) & (self.cap - 1), key)
    }

    /// Mark `key` allowed (normal-mode mask load). Inserts the key with
    /// state ALLOWED.
    #[inline(always)]
    pub fn mark_allowed(&mut self, key: Idx) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Allowed;
        }
    }

    /// Mark `key` not-allowed (complement-mode mask load).
    #[inline(always)]
    pub fn mark_not_allowed(&mut self, key: Idx) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::NotAllowed;
        }
    }

    /// Normal-mode accumulate: keys absent from the table were never
    /// allowed, so the product is discarded.
    #[inline(always)]
    pub fn accumulate(&mut self, key: Idx, value: V, add: impl FnOnce(V, V) -> V) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            return; // not allowed: mask never admitted this column
        }
        match self.states[s] {
            State::NotAllowed => {}
            State::Allowed => {
                self.values[s] = value;
                self.states[s] = State::Set;
            }
            State::Set => self.values[s] = add(self.values[s], value),
        }
    }

    /// Complement-mode accumulate: mask keys sit in the table as
    /// NOTALLOWED; any other key is admitted, claiming an empty slot.
    #[inline(always)]
    pub fn accumulate_complement(&mut self, key: Idx, value: V, add: impl FnOnce(V, V) -> V) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Set;
            self.values[s] = value;
            self.inserted.push(key);
            return;
        }
        match self.states[s] {
            State::NotAllowed => {}
            State::Allowed => unreachable!("complement mode never marks ALLOWED"),
            State::Set => self.values[s] = add(self.values[s], value),
        }
    }

    /// Lazy complement-mode accumulate: the value closure runs only when
    /// the key is admitted (not masked out).
    #[inline(always)]
    pub fn insert_complement_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Set;
            self.values[s] = value();
            self.inserted.push(key);
            return;
        }
        match self.states[s] {
            State::NotAllowed => {}
            State::Allowed => unreachable!("complement mode never marks ALLOWED"),
            State::Set => {
                let v = value();
                self.values[s] = add(self.values[s], v);
            }
        }
    }

    /// Symbolic accumulate (normal mode): returns `true` when `key` turns
    /// SET for the first time.
    #[inline(always)]
    pub fn accumulate_symbolic(&mut self, key: Idx) -> bool {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            return false;
        }
        if self.states[s] == State::Allowed {
            self.states[s] = State::Set;
            true
        } else {
            false
        }
    }

    /// Symbolic accumulate (complement mode).
    #[inline(always)]
    pub fn accumulate_symbolic_complement(&mut self, key: Idx) -> bool {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Set;
            self.inserted.push(key);
            true
        } else {
            false
        }
    }

    /// Normal-mode gather: walk the mask row in column order (stable,
    /// sorted output — same trick as MSA §5.2) and emit SET entries. The
    /// table is wiped by the next `begin_row`.
    pub fn gather_into(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        let mut w = 0;
        for &j in mask_cols {
            let s = self.probe(j);
            if self.keys[s] != EMPTY && self.states[s] == State::Set {
                out_cols[w] = j;
                out_vals[w] = self.values[s];
                w += 1;
            }
        }
        w
    }

    /// Normal-mode symbolic gather.
    pub fn count(&mut self, mask_cols: &[Idx]) -> usize {
        let mut n = 0;
        for &j in mask_cols {
            let s = self.probe(j);
            if self.keys[s] != EMPTY && self.states[s] == State::Set {
                n += 1;
            }
        }
        n
    }

    /// Complement-mode gather: sort the inserted keys and emit them.
    pub fn gather_complement_into(&mut self, out_cols: &mut [Idx], out_vals: &mut [V]) -> usize {
        self.inserted.sort_unstable();
        for (w, &j) in self.inserted.iter().enumerate() {
            let s = self.probe(j);
            debug_assert_eq!(self.states[s], State::Set);
            out_cols[w] = j;
            out_vals[w] = self.values[s];
        }
        self.inserted.len()
    }

    /// Complement-mode symbolic count.
    pub fn count_complement(&self) -> usize {
        self.inserted.len()
    }
}

/// Linear probe: the first slot in probe order (starting at `start`,
/// wrapping at `cap`) whose key is `key` or EMPTY. `cap` is a power of
/// two with `cap <= keys.len()`, and `keys[..cap]` holds at least one
/// EMPTY slot so the walk terminates.
#[inline(always)]
fn probe_from(keys: &[Idx], cap: usize, start: usize, key: Idx) -> usize {
    let mask = cap - 1;
    let mut s = start;
    loop {
        let k = keys[s];
        if k == key || k == EMPTY {
            return s;
        }
        s = (s + 1) & mask;
    }
}

impl<V: Copy + Default> Default for HashAccum<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> Accumulator<V> for HashAccum<V> {
    fn set_allowed(&mut self, key: Idx) {
        self.mark_allowed(key);
    }

    fn insert_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) -> bool {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            return false;
        }
        match self.states[s] {
            State::NotAllowed => false,
            State::Allowed => {
                self.values[s] = value();
                self.states[s] = State::Set;
                true
            }
            State::Set => {
                let v = value();
                self.values[s] = add(self.values[s], v);
                true
            }
        }
    }

    fn remove(&mut self, key: Idx) -> Option<V> {
        let s = self.probe(key);
        if self.keys[s] != EMPTY && self.states[s] == State::Set {
            self.states[s] = State::Allowed;
            Some(self.values[s])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_flow() {
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(3);
        for &j in &[10, 20, 30] {
            h.mark_allowed(j);
        }
        h.accumulate(10, 5, |a, b| a + b);
        h.accumulate(10, 7, |a, b| a + b);
        h.accumulate(30, 1, |a, b| a + b);
        h.accumulate(99, 100, |a, b| a + b); // never allowed
        let mut cols = [0 as Idx; 3];
        let mut vals = [0i64; 3];
        let n = h.gather_into(&[10, 20, 30], &mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[10, 30]);
        assert_eq!(&vals[..2], &[12, 1]);
    }

    #[test]
    fn complement_flow() {
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(8);
        for &j in &[3, 6] {
            h.mark_not_allowed(j);
        }
        h.accumulate_complement(3, 5, |a, b| a + b); // masked out
        h.accumulate_complement(9, 1, |a, b| a + b);
        h.accumulate_complement(2, 4, |a, b| a + b);
        h.accumulate_complement(9, 2, |a, b| a + b);
        let mut cols = [0 as Idx; 8];
        let mut vals = [0i64; 8];
        let n = h.gather_complement_into(&mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[2, 9], "sorted output");
        assert_eq!(&vals[..2], &[4, 3]);
    }

    #[test]
    fn table_reuse_across_rows() {
        let mut h: HashAccum<i64> = HashAccum::new();
        for round in 0..5 {
            h.begin_row(2);
            h.mark_allowed(round);
            h.accumulate(round, round as i64, |a, b| a + b);
            let mut cols = [0 as Idx; 2];
            let mut vals = [0i64; 2];
            let n = h.gather_into(&[round], &mut cols, &mut vals);
            assert_eq!(n, 1);
            assert_eq!(vals[0], round as i64);
        }
    }

    #[test]
    fn many_colliding_keys() {
        // Fill with keys that all hash near each other; linear probing must
        // still find every one.
        let mut h: HashAccum<i64> = HashAccum::new();
        let keys: Vec<Idx> = (0..64).map(|i| i * 1024).collect();
        h.begin_row(keys.len());
        for &k in &keys {
            h.mark_allowed(k);
        }
        for &k in &keys {
            h.accumulate(k, k as i64, |a, b| a + b);
        }
        let mut cols = vec![0 as Idx; keys.len()];
        let mut vals = vec![0i64; keys.len()];
        let n = h.gather_into(&keys, &mut cols, &mut vals);
        assert_eq!(n, keys.len());
        for (c, v) in cols.iter().zip(&vals) {
            assert_eq!(*v, *c as i64);
        }
    }

    #[test]
    fn probe_walks_clusters_across_the_table_end() {
        // (cap, filled slots, start, key, expected slot).
        type Case = (usize, Vec<(usize, Idx)>, usize, Idx, usize);
        let wrap = vec![(6, 1), (7, 2), (0, 3), (1, 4)];
        let full: Vec<(usize, Idx)> = (0..15).map(|s| (s, s as Idx + 100)).collect();
        let head = vec![(0, 10), (1, 20), (2, 30)];
        let cases: Vec<Case> = vec![
            // A cluster at the table head: a hit and a miss.
            (8, head.clone(), 0, 20, 1),
            (8, head, 0, 99, 3),
            // A cluster across the wrap at `cap`: slots 6, 7, 0, 1.
            (8, wrap.clone(), 6, 4, 1),
            (8, wrap, 6, 77, 2),
            // 15 of 16 slots taken: a hit inside the run, a miss that
            // walks to the one EMPTY slot.
            (16, full.clone(), 3, 114, 14),
            (16, full, 3, 999, 15),
            // An empty table answers at the start slot.
            (8, vec![], 5, 42, 5),
        ];
        for (cap, fill, start, key, want) in cases {
            let mut keys = vec![EMPTY; cap];
            for (s, k) in fill {
                keys[s] = k;
            }
            assert_eq!(
                probe_from(&keys, cap, start, key),
                want,
                "cap={cap} start={start} key={key}"
            );
        }
    }

    #[test]
    fn capacity_factor_of_one_still_correct() {
        // Load factor 1.0: the table is exactly full — worst case probing.
        let mut h: HashAccum<i64> = HashAccum::with_capacity_factor(1);
        let keys: Vec<Idx> = (0..8).collect();
        h.begin_row(keys.len());
        for &k in &keys {
            h.mark_allowed(k);
        }
        for &k in &keys {
            h.accumulate(k, 1, |a, b| a + b);
        }
        let mut cols = vec![0 as Idx; 8];
        let mut vals = vec![0i64; 8];
        assert_eq!(h.gather_into(&keys, &mut cols, &mut vals), 8);
    }
}
