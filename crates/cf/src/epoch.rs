//! The dense per-id scratch every read reuses: the epoch-marked buffer and the id bit set.
//!
//! A scratch keyed by a dense id (user or item index) wants `O(1)` lookups *and* `O(1)`
//! invalidation between uses. [`EpochBuffer`] gets both by stamping each slot with the
//! epoch of its last write: a slot is live iff its mark equals the current epoch, so
//! [`begin`](EpochBuffer::begin) forgets everything by bumping one counter, and the marks
//! are only swept when that counter is about to wrap. This is the one place the
//! bump-and-wrap-around logic lives; the co-rating candidate sets, the dense profile
//! lookup and both user-based accumulators are built on it.
//!
//! An epoch buffer cannot list its live slots in id order. [`IdBitSet`] can: a read that
//! must visit what it touched in ascending id (the neighbour search's offer order, the
//! candidate stream) marks one bit per id and walks the words, at `O(1)` per id plus one
//! step per 64 ids of the span it touched — no sort, no per-read clear of the whole set.
//!
//! Every access is bounds-checked against the length of the current use: ids reach the
//! serve path from caller-made profiles and item lists, and an id outside the catalogue
//! must read as absent rather than index a buffer.

/// A dense `index → T` map whose entries are all forgotten by [`begin`](Self::begin).
#[derive(Clone, Debug, Default)]
pub struct EpochBuffer<T> {
    /// `marks[ix] == epoch` iff slot `ix` was written during the current use.
    marks: Vec<u32>,
    values: Vec<T>,
    epoch: u32,
}

impl<T: Copy + Default> EpochBuffer<T> {
    /// An empty buffer; it takes its size from the first [`begin`](Self::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a use over the indices `0..len`: every slot reads as absent again. The
    /// buffer is re-sized on every use, so one scratch can follow a matrix that gains
    /// users or items between two reads (or serve matrices of different sizes in turn).
    pub fn begin(&mut self, len: usize) {
        self.marks.resize(len, 0);
        self.values.resize(len, T::default());
        if self.epoch == u32::MAX {
            // epoch counter about to wrap: clear the marks so stale slots cannot alias
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The value written at `ix` during the current use, if any. Indices outside the
    /// current length read as absent.
    #[inline]
    pub fn get(&self, ix: usize) -> Option<T> {
        if *self.marks.get(ix)? == self.epoch {
            Some(self.values[ix])
        } else {
            None
        }
    }

    /// The slot of `ix` for writing, with whether this is its first touch of the
    /// current use — in which case it has just been reset to `T::default()`. `None` for
    /// an index outside the current length.
    #[inline]
    pub fn entry(&mut self, ix: usize) -> Option<(bool, &mut T)> {
        let mark = self.marks.get_mut(ix)?;
        let slot = &mut self.values[ix];
        let fresh = *mark != self.epoch;
        if fresh {
            *mark = self.epoch;
            *slot = T::default();
        }
        Some((fresh, slot))
    }
}

/// A dense set of the ids `0..len`, emptied by walking it in ascending id.
///
/// [`insert`](Self::insert) and [`remove`](Self::remove) flip one bit;
/// [`ascending`](Self::ascending) yields the members in ascending id and clears each
/// word as it goes, so a full walk leaves the set empty. A walk the caller stops early
/// leaves the words it did not reach to the next [`begin`](Self::begin), which clears
/// only the span of words the previous use touched: a use costs `O(ids inserted +
/// span / 64)`, never `O(len)`.
#[derive(Clone, Debug, Default)]
pub struct IdBitSet {
    /// Bit `ix % 64` of `words[ix / 64]` is set iff `ix` is a member. Every word outside
    /// `lo..hi` is zero.
    words: Vec<u64>,
    len: usize,
    /// The words an insert of the current use touched, not yet walked past.
    lo: usize,
    hi: usize,
}

impl IdBitSet {
    /// An empty set; it takes its size from the first [`begin`](Self::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a use over the ids `0..len` with no member, re-sized like
    /// [`EpochBuffer::begin`].
    pub fn begin(&mut self, len: usize) {
        if self.lo < self.hi {
            // what the last walk stopped short of
            self.words[self.lo..self.hi].fill(0);
        }
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
        self.lo = self.words.len();
        self.hi = 0;
    }

    /// Adds `ix`; an id outside the current length is ignored.
    #[inline]
    pub fn insert(&mut self, ix: usize) {
        if ix < self.len {
            let w = ix / 64;
            self.words[w] |= 1 << (ix % 64);
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w + 1);
        }
    }

    /// Drops `ix` if it is a member; an id outside the current length is ignored.
    #[inline]
    pub fn remove(&mut self, ix: usize) {
        if ix < self.len {
            self.words[ix / 64] &= !(1 << (ix % 64));
        }
    }

    /// The members in ascending id, each removed as it is yielded.
    pub fn ascending(&mut self) -> impl Iterator<Item = usize> + '_ {
        let mut word = 0u64;
        std::iter::from_fn(move || {
            while word == 0 {
                if self.lo >= self.hi {
                    return None;
                }
                word = std::mem::take(&mut self.words[self.lo]);
                self.lo += 1;
            }
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some((self.lo - 1) * 64 + bit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_accumulate_within_a_use_and_vanish_at_the_next() {
        let mut buf: EpochBuffer<f64> = EpochBuffer::new();
        assert_eq!(buf.get(0), None, "nothing is live before the first use");
        buf.begin(4);
        assert_eq!(buf.get(2), None);
        let (fresh, slot) = buf.entry(2).unwrap();
        assert!(fresh);
        *slot += 1.5;
        let (fresh, slot) = buf.entry(2).unwrap();
        assert!(!fresh, "second touch of the same use keeps the value");
        *slot += 1.0;
        assert_eq!(buf.get(2), Some(2.5));
        buf.begin(4);
        assert_eq!(buf.get(2), None, "begin forgets every slot");
        assert_eq!(buf.entry(2).map(|(f, s)| (f, *s)), Some((true, 0.0)));
    }

    #[test]
    fn out_of_range_indices_read_as_absent_and_the_length_follows_each_use() {
        let mut buf: EpochBuffer<u32> = EpochBuffer::new();
        buf.begin(3);
        assert!(buf.entry(3).is_none());
        assert!(buf.entry(u32::MAX as usize).is_none());
        assert_eq!(buf.get(usize::MAX), None);
        *buf.entry(2).unwrap().1 = 7;
        // the catalogue grew between two uses
        buf.begin(6);
        assert_eq!(buf.get(2), None);
        *buf.entry(5).unwrap().1 = 9;
        assert_eq!(buf.get(5), Some(9));
        // ...and a smaller matrix on the same scratch is bounded by its own length
        buf.begin(2);
        assert!(buf.entry(5).is_none());
        buf.begin(6);
        assert_eq!(
            buf.get(5),
            None,
            "a slot dropped by a shorter use comes back absent"
        );
    }

    #[test]
    fn epoch_wrap_around_cannot_resurrect_stale_slots() {
        let mut buf: EpochBuffer<u32> = EpochBuffer::new();
        buf.begin(2);
        // written at epoch 1: the epoch the counter restarts at after wrapping
        *buf.entry(0).unwrap().1 = 41;
        buf.epoch = u32::MAX - 1;
        buf.begin(2);
        assert_eq!(buf.epoch, u32::MAX);
        *buf.entry(1).unwrap().1 = 42;
        buf.begin(2);
        assert_eq!(buf.epoch, 1, "the counter wrapped");
        assert_eq!(
            buf.get(0),
            None,
            "a slot marked in the first epoch 1 stays dead"
        );
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.entry(0).map(|(f, s)| (f, *s)), Some((true, 0)));
    }

    #[test]
    fn the_bit_set_walks_its_members_in_ascending_id_and_ends_empty() {
        let mut set = IdBitSet::new();
        set.begin(200);
        for ix in [130, 3, 64, 199, 3, 0, 63, 500, usize::MAX] {
            set.insert(ix);
        }
        set.remove(64);
        set.remove(1000);
        assert_eq!(set.ascending().collect::<Vec<_>>(), [0, 3, 63, 130, 199]);
        assert_eq!(set.ascending().next(), None, "a full walk empties the set");
        set.begin(200);
        assert_eq!(set.ascending().next(), None);
    }

    #[test]
    fn a_walk_stopped_early_leaves_nothing_behind_for_the_next_use() {
        let mut set = IdBitSet::new();
        set.begin(300);
        for ix in [5, 70, 71, 250] {
            set.insert(ix);
        }
        assert_eq!(set.ascending().take(2).collect::<Vec<_>>(), [5, 70]);
        // the catalogue shrank between two uses: words past the new length go too
        set.begin(100);
        set.insert(99);
        set.insert(100);
        assert_eq!(set.ascending().collect::<Vec<_>>(), [99]);
        set.begin(300);
        set.insert(2);
        assert_eq!(
            set.ascending().collect::<Vec<_>>(),
            [2],
            "neither 71 nor 250 survives the stopped walk"
        );
    }
}
