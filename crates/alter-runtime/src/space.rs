//! Iteration spaces: where a loop's iterations come from.
//!
//! For counted loops this is an index range. For loops over linked data
//! structures — the paper's ALTER collection classes — the space is the
//! sequence of element identifiers captured from the committed state when
//! the loop starts, which is exactly what makes a list iterator behave as an
//! induction variable (§4.1).

use std::ops::Range;

/// A source of loop iterations, consumed chunk by chunk.
///
/// Implementations must be deterministic: the same sequence of calls must
/// yield the same chunks.
pub trait IterSpace {
    /// Appends the next chunk of at most `chunk` iteration identifiers to
    /// `out`, nothing when exhausted. The caller owns the buffer, so the
    /// engine refills the same few for every chunk of a loop.
    fn next_chunk(&mut self, chunk: usize, out: &mut Vec<u64>);

    /// Whether all iterations have been handed out.
    fn is_exhausted(&self) -> bool;
}

/// The iteration space `lo..hi` of a counted loop.
#[derive(Clone, Debug)]
pub struct RangeSpace {
    cur: u64,
    end: u64,
}

impl RangeSpace {
    /// Creates the space for `lo..hi` (empty if `lo >= hi`).
    pub fn new(lo: u64, hi: u64) -> Self {
        RangeSpace {
            cur: lo,
            end: hi.max(lo),
        }
    }
}

impl From<Range<u64>> for RangeSpace {
    fn from(r: Range<u64>) -> Self {
        RangeSpace::new(r.start, r.end)
    }
}

impl IterSpace for RangeSpace {
    fn next_chunk(&mut self, chunk: usize, out: &mut Vec<u64>) {
        let take = (self.end - self.cur).min(chunk.max(1) as u64);
        out.extend(self.cur..self.cur + take);
        self.cur += take;
    }

    fn is_exhausted(&self) -> bool {
        self.cur >= self.end
    }
}

/// An explicit sequence of iteration identifiers (e.g. the node ids of an
/// `AlterList` captured at loop entry).
#[derive(Clone, Debug)]
pub struct SeqSpace {
    items: Vec<u64>,
    cur: usize,
}

impl SeqSpace {
    /// Creates a space yielding `items` in order.
    pub fn new(items: Vec<u64>) -> Self {
        SeqSpace { items, cur: 0 }
    }
}

impl IterSpace for SeqSpace {
    fn next_chunk(&mut self, chunk: usize, out: &mut Vec<u64>) {
        let take = (self.items.len() - self.cur).min(chunk.max(1));
        out.extend_from_slice(&self.items[self.cur..self.cur + take]);
        self.cur += take;
    }

    fn is_exhausted(&self) -> bool {
        self.cur >= self.items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next chunk, in a buffer of its own.
    fn chunk(s: &mut dyn IterSpace, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        s.next_chunk(n, &mut out);
        out
    }

    #[test]
    fn range_space_chunks_exactly_cover_the_range() {
        let mut s = RangeSpace::new(3, 11);
        let mut all = Vec::new();
        while !s.is_exhausted() {
            let c = chunk(&mut s, 3);
            assert!(!c.is_empty() && c.len() <= 3);
            all.extend(c);
        }
        assert_eq!(all, (3..11).collect::<Vec<_>>());
        assert!(chunk(&mut s, 3).is_empty());
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut s = RangeSpace::new(5, 5);
        assert!(s.is_exhausted());
        assert!(chunk(&mut s, 4).is_empty());
        let s = RangeSpace::new(9, 2);
        assert!(s.is_exhausted());
    }

    #[test]
    fn seq_space_yields_in_order() {
        let mut s = SeqSpace::new(vec![9, 7, 5]);
        assert_eq!(chunk(&mut s, 2), vec![9, 7]);
        assert!(!s.is_exhausted());
        assert_eq!(chunk(&mut s, 2), vec![5]);
        assert!(s.is_exhausted());
    }

    #[test]
    fn chunk_of_zero_is_treated_as_one() {
        let mut s = RangeSpace::new(0, 2);
        assert_eq!(chunk(&mut s, 0), vec![0]);
        // The chunk is appended to what the buffer holds.
        let mut out = vec![7];
        s.next_chunk(1, &mut out);
        assert_eq!(out, [7, 1]);
    }
}
