//! Masked Sparse Accumulator (paper §5.2): two dense arrays of length
//! `ncols` — `values` and `states` — plus, in complemented mode, a list of
//! inserted keys so the gather need not scan the whole array.
//!
//! The arrays are allocated once per worker thread and reused across rows;
//! each row resets exactly the entries it touched (the mask entries and,
//! for complement, the inserted entries), so the amortized per-row init is
//! `O(nnz(m_i))`, not `O(ncols)`.

use super::{Accumulator, State};
use mspgemm_sparse::Idx;

/// Dense masked sparse accumulator. `default_state` distinguishes the
/// normal mode (default `NotAllowed`, mask marks `Allowed`) from the
/// complemented mode (default `Allowed`, mask marks `NotAllowed`).
pub struct Msa<V> {
    states: Vec<State>,
    values: Vec<V>,
    default_state: State,
    /// Keys inserted this row — maintained only in complemented mode,
    /// where the gather cannot walk the mask.
    inserted: Vec<Idx>,
    track_inserted: bool,
}

impl<V: Copy + Default> Msa<V> {
    /// A normal-mode MSA over `ncols` columns (default state NOTALLOWED).
    pub fn new(ncols: usize) -> Self {
        Self {
            states: vec![State::NotAllowed; ncols],
            values: vec![V::default(); ncols],
            default_state: State::NotAllowed,
            inserted: Vec::new(),
            track_inserted: false,
        }
    }

    /// A complemented-mode MSA: every key starts ALLOWED, `load_mask`
    /// marks mask entries NOTALLOWED, and inserted keys are tracked for the
    /// gather (§5.2 "an additional array to keep track of the elements that
    /// were inserted").
    pub fn new_complement(ncols: usize) -> Self {
        Self {
            states: vec![State::Allowed; ncols],
            values: vec![V::default(); ncols],
            default_state: State::Allowed,
            inserted: Vec::new(),
            track_inserted: true,
        }
    }

    /// Reset bookkeeping for a new row. The dense arrays are already in
    /// their default state (maintained by `gather_*`).
    #[inline]
    pub fn begin_row(&mut self) {
        self.inserted.clear();
    }

    /// Mark the mask row: ALLOWED in normal mode, NOTALLOWED in
    /// complemented mode.
    #[inline]
    pub fn load_mask(&mut self, mask_cols: &[Idx]) {
        let mark = match self.default_state {
            State::NotAllowed => State::Allowed,
            _ => State::NotAllowed,
        };
        for &j in mask_cols {
            self.states[j as usize] = mark;
        }
    }

    /// Hot-loop insert used by the numeric kernels (monomorphized add).
    #[inline(always)]
    pub fn accumulate(&mut self, key: Idx, value: V, add: impl FnOnce(V, V) -> V) {
        let k = key as usize;
        match self.states[k] {
            State::NotAllowed => {}
            State::Allowed => {
                self.values[k] = value;
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
            }
            State::Set => {
                self.values[k] = add(self.values[k], value);
            }
        }
    }

    /// Pattern-only insert for the symbolic phase: marks SET, counts new
    /// keys.
    #[inline(always)]
    pub fn accumulate_symbolic(&mut self, key: Idx) -> bool {
        let k = key as usize;
        match self.states[k] {
            State::NotAllowed => false,
            State::Allowed => {
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
                true
            }
            State::Set => false,
        }
    }

    /// Normal-mode gather: walk the mask row in order, emit SET entries
    /// (sorted and stable by construction — §5.2), and restore every
    /// touched state to NOTALLOWED.
    ///
    /// Returns the number of entries written.
    pub fn gather_into(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        debug_assert_eq!(self.default_state, State::NotAllowed);
        let mut w = 0;
        for &j in mask_cols {
            let k = j as usize;
            if self.states[k] == State::Set {
                out_cols[w] = j;
                out_vals[w] = self.values[k];
                w += 1;
            }
            self.states[k] = State::NotAllowed;
        }
        w
    }

    /// Normal-mode symbolic gather: count SET entries and reset.
    pub fn count_and_reset(&mut self, mask_cols: &[Idx]) -> usize {
        debug_assert_eq!(self.default_state, State::NotAllowed);
        let mut n = 0;
        for &j in mask_cols {
            let k = j as usize;
            if self.states[k] == State::Set {
                n += 1;
            }
            self.states[k] = State::NotAllowed;
        }
        n
    }

    /// Complemented-mode gather: sort the inserted keys (insertion order is
    /// not column order), emit them, and restore all touched entries —
    /// inserted keys and mask marks — to ALLOWED.
    pub fn gather_complement_into(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        debug_assert_eq!(self.default_state, State::Allowed);
        self.inserted.sort_unstable();
        let n = self.inserted.len();
        for (w, &j) in self.inserted.iter().enumerate() {
            let k = j as usize;
            debug_assert_eq!(self.states[k], State::Set);
            out_cols[w] = j;
            out_vals[w] = self.values[k];
            self.states[k] = State::Allowed;
        }
        for &j in mask_cols {
            self.states[j as usize] = State::Allowed;
        }
        self.inserted.clear();
        n
    }

    /// Complemented-mode symbolic gather: count inserted keys and reset.
    pub fn count_and_reset_complement(&mut self, mask_cols: &[Idx]) -> usize {
        debug_assert_eq!(self.default_state, State::Allowed);
        let n = self.inserted.len();
        for &j in &self.inserted {
            self.states[j as usize] = State::Allowed;
        }
        for &j in mask_cols {
            self.states[j as usize] = State::Allowed;
        }
        self.inserted.clear();
        n
    }

    /// Current state of `key` (test/diagnostic helper).
    pub fn state(&self, key: Idx) -> State {
        self.states[key as usize]
    }
}

impl<V: Copy + Default> Accumulator<V> for Msa<V> {
    fn set_allowed(&mut self, key: Idx) {
        if self.states[key as usize] == State::NotAllowed {
            self.states[key as usize] = State::Allowed;
        }
    }

    fn insert_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) -> bool {
        let k = key as usize;
        match self.states[k] {
            State::NotAllowed => false,
            State::Allowed => {
                self.values[k] = value();
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
                true
            }
            State::Set => {
                let v = value();
                self.values[k] = add(self.values[k], v);
                true
            }
        }
    }

    fn remove(&mut self, key: Idx) -> Option<V> {
        let k = key as usize;
        if self.states[k] == State::Set {
            self.states[k] = State::Allowed;
            Some(self.values[k])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_mode_gather_resets_for_reuse() {
        let mut m: Msa<i64> = Msa::new(10);
        m.begin_row();
        m.load_mask(&[2, 5, 7]);
        m.accumulate(2, 10, |a, b| a + b);
        m.accumulate(2, 1, |a, b| a + b);
        m.accumulate(5, 3, |a, b| a + b);
        m.accumulate(9, 99, |a, b| a + b); // not allowed — dropped
        let mut cols = [0 as Idx; 3];
        let mut vals = [0i64; 3];
        let n = m.gather_into(&[2, 5, 7], &mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[2, 5]);
        assert_eq!(&vals[..2], &[11, 3]);
        // All states back to NOTALLOWED — reusable for the next row.
        for j in 0..10 {
            assert_eq!(m.state(j), State::NotAllowed);
        }
    }

    #[test]
    fn complement_mode_blocks_mask_entries() {
        let mut m: Msa<i64> = Msa::new_complement(8);
        m.begin_row();
        m.load_mask(&[1, 4]);
        m.accumulate(1, 5, |a, b| a + b); // masked out in complement mode
        m.accumulate(0, 7, |a, b| a + b);
        m.accumulate(6, 2, |a, b| a + b);
        m.accumulate(0, 3, |a, b| a + b);
        let mut cols = [0 as Idx; 8];
        let mut vals = [0i64; 8];
        let n = m.gather_complement_into(&[1, 4], &mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[0, 6], "gather must sort inserted keys");
        assert_eq!(&vals[..2], &[10, 2]);
        for j in 0..8 {
            assert_eq!(m.state(j), State::Allowed, "complement default restored");
        }
    }

    #[test]
    fn symbolic_counts_match_numeric() {
        let mut m: Msa<i64> = Msa::new(6);
        m.begin_row();
        m.load_mask(&[0, 2, 4]);
        assert!(m.accumulate_symbolic(0));
        assert!(!m.accumulate_symbolic(0), "second hit is not a new key");
        assert!(!m.accumulate_symbolic(1), "not allowed");
        assert!(m.accumulate_symbolic(4));
        assert_eq!(m.count_and_reset(&[0, 2, 4]), 2);
    }

    #[test]
    fn rows_reuse_cleanly() {
        let mut m: Msa<i64> = Msa::new(5);
        for round in 0..3 {
            m.begin_row();
            m.load_mask(&[1, 3]);
            m.accumulate(1, round, |a, b| a + b);
            let mut cols = [0 as Idx; 2];
            let mut vals = [0i64; 2];
            let n = m.gather_into(&[1, 3], &mut cols, &mut vals);
            assert_eq!(n, 1);
            assert_eq!(vals[0], round);
        }
    }
}
