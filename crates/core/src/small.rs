//! Allocation-lean helpers for the enqueue hot path: an inline-first small
//! vector for dependence lists, and a first-item-inline sequence for the
//! per-batch lists of the enqueue engine.
//!
//! The enqueue fast path runs once per action; with typical dependence
//! fan-in well under eight events, the inline array keeps the whole
//! find-deps → sort → dedup → collect pipeline off the heap. Every
//! single-action enqueue is a batch of one, so the engine's per-batch
//! lists (actions, ids, submissions, completion events) keep their first
//! item inline and allocate only for a second.

/// A vector of `Copy` items that stores up to `N` of them inline and spills
/// to a contiguous heap `Vec` beyond that. Unlike a fragmented
/// inline+overflow split, the storage is always one contiguous slice, so
/// in-place sort and dedup work directly.
pub struct SmallVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    /// Length of the inline prefix; ignored once `heap` is `Some`.
    len: usize,
    heap: Option<Vec<T>>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    pub fn new() -> SmallVec<T, N> {
        SmallVec {
            inline: [T::default(); N],
            len: 0,
            heap: None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.heap {
            Some(h) => h.len(),
            None => self.len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did this vector ever overflow its inline capacity? (Once spilled, a
    /// `clear` keeps the heap allocation for reuse.)
    pub fn spilled(&self) -> bool {
        self.heap.is_some()
    }

    pub fn push(&mut self, v: T) {
        match &mut self.heap {
            Some(h) => h.push(v),
            None if self.len < N => {
                self.inline[self.len] = v;
                self.len += 1;
            }
            None => {
                let mut h = Vec::with_capacity(2 * N);
                h.extend_from_slice(&self.inline[..self.len]);
                h.push(v);
                self.heap = Some(h);
            }
        }
    }

    pub fn extend_from_slice(&mut self, vs: &[T]) {
        for v in vs {
            self.push(*v);
        }
    }

    pub fn clear(&mut self) {
        match &mut self.heap {
            Some(h) => h.clear(),
            None => self.len = 0,
        }
    }

    pub fn as_slice(&self) -> &[T] {
        match &self.heap {
            Some(h) => h.as_slice(),
            None => &self.inline[..self.len],
        }
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.heap {
            Some(h) => h.as_mut_slice(),
            None => &mut self.inline[..self.len],
        }
    }

    fn truncate(&mut self, n: usize) {
        match &mut self.heap {
            Some(h) => h.truncate(n),
            None => self.len = self.len.min(n),
        }
    }

    /// Sort ascending and drop duplicates, in place.
    pub fn sort_dedup(&mut self)
    where
        T: Ord,
    {
        let s = self.as_mut_slice();
        s.sort_unstable();
        let mut keep = 0;
        for i in 0..s.len() {
            if i == 0 || s[i] != s[keep - 1] {
                s[keep] = s[i];
                keep += 1;
            }
        }
        self.truncate(keep);
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

/// A sequence whose first item lives inline; the rest go to a `Vec` that
/// allocates only when a second item arrives. Unlike [`SmallVec`] it holds
/// non-`Copy` items (actions, backend events), at the price of a
/// non-contiguous layout: index with [`FirstInline::get`].
pub struct FirstInline<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> FirstInline<T> {
    /// Room for `cap` items, allocating only for those past the first.
    pub fn with_capacity(cap: usize) -> FirstInline<T> {
        FirstInline {
            first: None,
            rest: Vec::with_capacity(cap.saturating_sub(1)),
        }
    }

    pub fn push(&mut self, v: T) {
        // `first` is empty only while the whole sequence is.
        if self.first.is_none() {
            self.first = Some(v);
        } else {
            self.rest.push(v);
        }
    }

    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        match i {
            0 => self.first.as_ref(),
            _ => self.rest.get(i - 1),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }
}

impl<T> Default for FirstInline<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> IntoIterator for FirstInline<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<T> FromIterator<T> for FirstInline<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let first = iter.next();
        FirstInline {
            first,
            rest: iter.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn sort_dedup_inline_and_spilled() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        v.extend_from_slice(&[3, 1, 3, 2]);
        v.sort_dedup();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        v.extend_from_slice(&[2, 9, 9, 0, 1]);
        v.sort_dedup();
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 9]);
        assert!(v.spilled());
    }

    #[test]
    fn clear_keeps_spilled_capacity() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        v.extend_from_slice(&[1, 2, 3]);
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled(), "heap allocation is retained for reuse");
    }

    #[test]
    fn first_inline_keeps_order_and_one_item_off_the_heap() {
        let mut v: FirstInline<String> = FirstInline::with_capacity(1);
        v.push("a".to_string());
        assert_eq!(v.len(), 1);
        assert_eq!(v.rest.capacity(), 0, "a batch of one never allocates");
        v.push("b".to_string());
        v.push("c".to_string());
        assert_eq!(v.get(2).map(String::as_str), Some("c"));
        assert_eq!(v.get(3), None);
        let all: Vec<String> = v.into_iter().collect();
        assert_eq!(all, ["a", "b", "c"]);
        let w: FirstInline<u32> = (0..5).collect();
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert!(FirstInline::<u32>::default().is_empty());
    }

    #[test]
    fn empty_sort_dedup_is_fine() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        v.sort_dedup();
        assert!(v.is_empty());
    }
}
