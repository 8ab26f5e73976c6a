//! The epoch-marked dense buffer behind every reusable per-id scratch.
//!
//! A scratch keyed by a dense id (user or item index) wants `O(1)` lookups *and* `O(1)`
//! invalidation between uses. [`EpochBuffer`] gets both by stamping each slot with the
//! epoch of its last write: a slot is live iff its mark equals the current epoch, so
//! [`begin`](EpochBuffer::begin) forgets everything by bumping one counter, and the marks
//! are only swept when that counter is about to wrap. This is the one place the
//! bump-and-wrap-around logic lives; the co-rating candidate sets, the dense profile
//! lookup and both user-based accumulators are built on it.
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
}
