//! Heap objects: typed, fixed-length allocations.
//!
//! ALTER instruments memory at *allocation granularity* (paper §4.1): access
//! sets are keyed by allocation. Conflict detection works on *word ranges
//! within* an allocation, mirroring the paper's optimization that an array
//! indexed by an induction variable is instrumented once per range rather
//! than once per element, and copy-on-write isolation on fixed-size blocks
//! of one ([`crate::Tx`]), mirroring its pages.

use std::fmt;

/// Identifier of a heap allocation.
///
/// An `ObjId` is stable for the lifetime of the allocation: it never changes
/// when the object is written, snapshotted, or copied into a transaction
/// overlay. This is the analogue of a virtual address in the paper's
/// multi-process runtime, and like those addresses it may be stored inside
/// other objects (e.g. as the `next` pointer of an [`crate::ObjData::I64`]
/// list node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub(crate) u32);

impl ObjId {
    /// Raw index of this allocation. Useful for diagnostics and for storing
    /// object references inside `I64` payloads.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs an `ObjId` from a raw index previously obtained with
    /// [`ObjId::index`]. The id is not validated here; using an id that does
    /// not name a live allocation will panic at the access site.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        ObjId(index)
    }

    /// Encodes the id as an `i64` suitable for storing in an `I64` object.
    #[inline]
    pub fn to_i64(self) -> i64 {
        i64::from(self.0)
    }

    /// Decodes an id stored with [`ObjId::to_i64`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `0..=u32::MAX`.
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        ObjId(u32::try_from(v).expect("stored ObjId out of range"))
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The kind of payload an object holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// 64-bit floats.
    F64,
    /// 64-bit signed integers.
    I64,
}

impl fmt::Display for ObjKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjKind::F64 => f.write_str("f64"),
            ObjKind::I64 => f.write_str("i64"),
        }
    }
}

/// Payload of a heap allocation: a fixed-length typed array of 64-bit words.
///
/// Scalars are represented as length-1 arrays. The two payload kinds cover
/// everything the evaluation workloads need (floats, integers, indices,
/// booleans-as-integers, and object references via [`ObjId::to_i64`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ObjData {
    /// An array of `f64`.
    F64(Vec<f64>),
    /// An array of `i64`.
    I64(Vec<i64>),
}

impl ObjData {
    /// A length-1 float object.
    pub fn scalar_f64(v: f64) -> Self {
        ObjData::F64(vec![v])
    }

    /// A length-1 integer object.
    pub fn scalar_i64(v: i64) -> Self {
        ObjData::I64(vec![v])
    }

    /// A zero-filled float array of length `n`.
    pub fn zeros_f64(n: usize) -> Self {
        ObjData::F64(vec![0.0; n])
    }

    /// A zero-filled integer array of length `n`.
    pub fn zeros_i64(n: usize) -> Self {
        ObjData::I64(vec![0; n])
    }

    /// Number of 64-bit words in the payload.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the payload has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload kind.
    pub fn kind(&self) -> ObjKind {
        self.view().kind()
    }

    /// Borrow the payload as floats.
    ///
    /// # Panics
    ///
    /// Panics if the object holds integers.
    #[inline]
    pub fn f64s(&self) -> &[f64] {
        self.view().f64s()
    }

    /// Mutably borrow the payload as floats.
    ///
    /// # Panics
    ///
    /// Panics if the object holds integers.
    #[inline]
    pub fn f64s_mut(&mut self) -> &mut [f64] {
        self.view_mut().f64s_mut()
    }

    /// Borrow the payload as integers.
    ///
    /// # Panics
    ///
    /// Panics if the object holds floats.
    #[inline]
    pub fn i64s(&self) -> &[i64] {
        self.view().i64s()
    }

    /// Mutably borrow the payload as integers.
    ///
    /// # Panics
    ///
    /// Panics if the object holds floats.
    #[inline]
    pub fn i64s_mut(&mut self) -> &mut [i64] {
        self.view_mut().i64s_mut()
    }

    /// A borrowed view of the payload.
    #[inline]
    pub fn view(&self) -> ObjRef<'_> {
        match self {
            ObjData::F64(v) => ObjRef::F64(v),
            ObjData::I64(v) => ObjRef::I64(v),
        }
    }

    /// A mutable view of the payload.
    #[inline]
    pub(crate) fn view_mut(&mut self) -> ObjMut<'_> {
        match self {
            ObjData::F64(v) => ObjMut::F64(v),
            ObjData::I64(v) => ObjMut::I64(v),
        }
    }

    /// Makes `self` a copy of `src` in place: its words are dropped and
    /// `src`'s copied in, so the buffer is reallocated only if it is shorter
    /// than `src`.
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ.
    pub(crate) fn refill_from(&mut self, src: ObjRef<'_>) {
        match (self, src) {
            (ObjData::F64(dst), ObjRef::F64(s)) => {
                dst.clear();
                dst.extend_from_slice(s);
            }
            (ObjData::I64(dst), ObjRef::I64(s)) => {
                dst.clear();
                dst.extend_from_slice(s);
            }
            (dst, src) => panic!(
                "type error: cannot refill {} object from {}",
                dst.kind(),
                src.kind()
            ),
        }
    }

    /// Copies the words in `lo..hi` from `src` into `self` (see
    /// [`ObjMut::copy_range_from`]).
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ or the range is out of bounds.
    pub fn copy_range_from(&mut self, src: ObjRef<'_>, lo: usize, hi: usize) {
        self.view_mut().copy_range_from(src, lo, hi);
    }
}

/// A borrowed payload: what [`crate::Heap::get`] and
/// [`crate::Snapshot::get`] hand out. The words live in their page's buffer
/// (or in an [`ObjData`], through [`ObjData::view`]); the accessors take
/// `self`, so a slice they return borrows the heap, not the view.
#[derive(Clone, Copy, Debug)]
pub enum ObjRef<'a> {
    /// An array of `f64`.
    F64(&'a [f64]),
    /// An array of `i64`.
    I64(&'a [i64]),
}

impl<'a> ObjRef<'a> {
    /// Number of 64-bit words in the payload.
    #[inline]
    pub fn len(self) -> usize {
        match self {
            ObjRef::F64(v) => v.len(),
            ObjRef::I64(v) => v.len(),
        }
    }

    /// Whether the payload has zero length.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Payload kind.
    #[inline]
    pub fn kind(self) -> ObjKind {
        match self {
            ObjRef::F64(_) => ObjKind::F64,
            ObjRef::I64(_) => ObjKind::I64,
        }
    }

    /// The payload as floats.
    ///
    /// # Panics
    ///
    /// Panics if the object holds integers.
    #[inline]
    pub fn f64s(self) -> &'a [f64] {
        match self {
            ObjRef::F64(v) => v,
            ObjRef::I64(_) => panic!("type error: expected f64 object, found i64"),
        }
    }

    /// The payload as integers.
    ///
    /// # Panics
    ///
    /// Panics if the object holds floats.
    #[inline]
    pub fn i64s(self) -> &'a [i64] {
        match self {
            ObjRef::I64(v) => v,
            ObjRef::F64(_) => panic!("type error: expected i64 object, found f64"),
        }
    }

    /// An owned copy of the payload.
    pub fn to_owned(self) -> ObjData {
        match self {
            ObjRef::F64(v) => ObjData::F64(v.to_vec()),
            ObjRef::I64(v) => ObjData::I64(v.to_vec()),
        }
    }
}

/// A mutably borrowed payload: what [`crate::Heap::get_mut`] hands out.
/// Like [`ObjRef`], its slice accessors take `self`.
#[derive(Debug)]
pub enum ObjMut<'a> {
    /// An array of `f64`.
    F64(&'a mut [f64]),
    /// An array of `i64`.
    I64(&'a mut [i64]),
}

impl<'a> ObjMut<'a> {
    /// The payload as floats, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the object holds integers.
    #[inline]
    pub fn f64s_mut(self) -> &'a mut [f64] {
        match self {
            ObjMut::F64(v) => v,
            ObjMut::I64(_) => panic!("type error: expected f64 object, found i64"),
        }
    }

    /// The payload as integers, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the object holds floats.
    #[inline]
    pub fn i64s_mut(self) -> &'a mut [i64] {
        match self {
            ObjMut::I64(v) => v,
            ObjMut::F64(_) => panic!("type error: expected i64 object, found f64"),
        }
    }

    /// Copies the words in `lo..hi` from `src` into `self`.
    ///
    /// This is the commit-time merge primitive: only the word ranges recorded
    /// in a transaction's write set are copied back into the committed object,
    /// so two transactions writing disjoint ranges of the same allocation can
    /// both commit (snapshot isolation permits this; see paper §3).
    ///
    /// # Panics
    ///
    /// Panics if the kinds differ or the range is out of bounds.
    pub fn copy_range_from(&mut self, src: ObjRef<'_>, lo: usize, hi: usize) {
        match (self, src) {
            (ObjMut::F64(dst), ObjRef::F64(s)) => dst[lo..hi].copy_from_slice(&s[lo..hi]),
            (ObjMut::I64(dst), ObjRef::I64(s)) => dst[lo..hi].copy_from_slice(&s[lo..hi]),
            (ObjMut::F64(_), src) => panic!(
                "type error: cannot merge {} range into f64 object",
                src.kind()
            ),
            (ObjMut::I64(_), src) => panic!(
                "type error: cannot merge {} range into i64 object",
                src.kind()
            ),
        }
    }
}

impl Default for ObjData {
    fn default() -> Self {
        ObjData::I64(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objid_roundtrips_through_i64() {
        let id = ObjId::from_index(123_456);
        assert_eq!(ObjId::from_i64(id.to_i64()), id);
    }

    #[test]
    fn scalar_constructors() {
        assert_eq!(ObjData::scalar_f64(2.5).f64s(), &[2.5]);
        assert_eq!(ObjData::scalar_i64(-3).i64s(), &[-3]);
        assert_eq!(ObjData::zeros_f64(4).len(), 4);
        assert_eq!(ObjData::zeros_i64(0).len(), 0);
        assert!(ObjData::zeros_i64(0).is_empty());
    }

    #[test]
    fn kind_reporting() {
        assert_eq!(ObjData::scalar_f64(0.0).kind(), ObjKind::F64);
        assert_eq!(ObjData::scalar_i64(0).kind(), ObjKind::I64);
        assert_eq!(ObjKind::F64.to_string(), "f64");
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn f64_accessor_panics_on_i64() {
        ObjData::scalar_i64(1).f64s();
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn i64_accessor_panics_on_f64() {
        ObjData::scalar_f64(1.0).i64s();
    }

    #[test]
    fn copy_range_merges_only_requested_words() {
        let mut dst = ObjData::F64(vec![0.0; 5]);
        let src = ObjData::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        dst.copy_range_from(src.view(), 1, 3);
        assert_eq!(dst.f64s(), &[0.0, 2.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn copy_range_panics_on_kind_mismatch() {
        let mut dst = ObjData::zeros_f64(2);
        dst.copy_range_from(ObjData::zeros_i64(2).view(), 0, 1);
    }
}
