//! A compact bitset over small integer ids, used for the dataflow sets
//! (`L_REF`/`P_REF`/`C_REF`) and node sets throughout the analyzer.
//!
//! Only the window of words between the lowest and the highest member is
//! stored, so a set of a few neighboring ids costs a word or two however
//! large its capacity, and a union touches only the other set's window.
//! Whole-program sets over thousands of globals are mostly such narrow
//! windows: a procedure references the globals of its own module.

/// A fixed-capacity bitset.
#[derive(Clone)]
pub struct BitSet {
    /// Index of the word `words[0]` holds; every word outside
    /// `base..base + words.len()` is zero.
    base: usize,
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// An empty set holding ids `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet { base: 0, words: Vec::new(), capacity }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The word holding bit `i`, if it lies inside the window.
    fn word(&self, i: usize) -> Option<u64> {
        (i / 64).checked_sub(self.base).and_then(|w| self.words.get(w)).copied()
    }

    /// Widens the window to cover words `lo..hi` (`lo < hi`).
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.words.is_empty() {
            self.base = lo;
            self.words.resize(hi - lo, 0);
            return;
        }
        if lo < self.base {
            self.words.splice(0..0, std::iter::repeat_n(0, self.base - lo));
            self.base = lo;
        }
        if hi > self.base + self.words.len() {
            self.words.resize(hi - self.base, 0);
        }
    }

    /// Inserts `i`; returns whether it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bit {i} out of capacity {}", self.capacity);
        let w = i / 64;
        self.cover(w, w + 1);
        let word = &mut self.words[w - self.base];
        let added = *word & (1 << (i % 64)) == 0;
        *word |= 1 << (i % 64);
        added
    }

    /// Removes `i`; returns whether it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if !self.contains(i) {
            return false;
        }
        self.words[i / 64 - self.base] &= !(1 << (i % 64));
        true
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.word(i).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Unions `other` in; returns whether anything changed. Members of
    /// `other` beyond this set's capacity are ignored.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let hi = (other.base + other.words.len()).min(self.capacity.div_ceil(64));
        if other.base >= hi {
            return false;
        }
        let src = &other.words[..hi - other.base];
        let Some(first) = src.iter().position(|&w| w != 0) else { return false };
        let last = src.iter().rposition(|&w| w != 0).expect("a nonzero word exists");
        self.cover(other.base + first, other.base + last + 1);
        let dst = &mut self.words[other.base + first - self.base..];
        let mut changed = false;
        for (a, &b) in dst.iter_mut().zip(&src[first..=last]) {
            changed |= b & !*a != 0;
            *a |= b;
        }
        changed
    }

    /// Intersects with `other` in place.
    pub fn intersect_with(&mut self, other: &BitSet) {
        let base = self.base;
        for (k, a) in self.words.iter_mut().enumerate() {
            *a &= other.word((base + k) * 64).unwrap_or(0);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(k, &w)| {
            // Peel the lowest set bit per step: cost is per member, not per bit.
            let at = (self.base + k) * 64;
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at + b
                })
            })
        })
    }
}

impl PartialEq for BitSet {
    /// Equal capacity and equal members, whatever the stored windows.
    fn eq(&self, other: &BitSet) -> bool {
        self.capacity == other.capacity && self.iter().eq(other.iter())
    }
}

impl Eq for BitSet {}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(0));
        assert!(s.insert(99));
        assert!(!s.insert(99));
        assert!(s.contains(99));
        assert!(!s.contains(50));
        assert!(!s.contains(1000));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.remove(12345));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn union_and_intersect() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 65]);
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 65]);
    }

    #[test]
    fn windows_grow_both_ways_and_compare_by_members() {
        let mut a = BitSet::new(1000);
        a.insert(700);
        a.insert(3);
        a.insert(300);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 300, 700]);
        let mut b = BitSet::new(1000);
        assert!(!b.union_with(&BitSet::new(1000)));
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a));
        assert_eq!(a, b);
        // Clearing a member leaves a zero word in the window; equality
        // and emptiness look at members only.
        assert!(b.remove(700) && b.remove(3) && b.remove(300));
        assert!(b.is_empty());
        assert_eq!(b, BitSet::new(1000));
        assert_ne!(b, BitSet::new(999));
        // A union past this set's capacity keeps only what fits.
        let mut small = BitSet::new(100);
        assert!(small.union_with(&a));
        assert_eq!(small.iter().collect::<Vec<_>>(), vec![3]);
        a.intersect_with(&small);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);
        assert!(!a.contains(1000) && !a.contains(64));
    }

    #[test]
    fn debug_format() {
        let mut s = BitSet::new(8);
        s.insert(3);
        assert_eq!(format!("{s:?}"), "{3}");
        assert!(BitSet::new(8).is_empty());
        assert_eq!(BitSet::new(8).capacity(), 8);
    }
}
