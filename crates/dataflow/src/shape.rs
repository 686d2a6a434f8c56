//! Tensor shapes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The most dimensions a [`Shape`] or an operator's [`Dims`] parameter
/// holds. The workspace's largest tensors are rank 3, and an embedding
/// gather adds one axis to its ids.
pub const MAX_RANK: usize = 4;

/// Up to [`MAX_RANK`] dimensions held inline, outermost first: a tensor
/// shape's storage and the parameter of [`crate::OpKind::Reshape`] and
/// [`crate::OpKind::Transpose`].
///
/// It reads as a slice (`Deref<Target = [usize]>`) and formats and hashes
/// exactly as one, so `Dims` from `[8, 4096]` prints `[8, 4096]` and
/// hashes like `&[8, 4096][..]`.
///
/// ```
/// use sn_dataflow::shape::Dims;
/// let perm = Dims::from([1, 0]);
/// assert_eq!(&perm[..], &[1, 0]);
/// assert!(Dims::from_slice(&[1; 5]).is_none(), "past the rank cap");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    len: u8,
    /// Entries past `len` stay zero, so the derived equality compares
    /// only the dimensions.
    dims: [usize; MAX_RANK],
}

impl Dims {
    /// The dimensions of `dims`, or `None` past [`MAX_RANK`].
    pub fn from_slice(dims: &[usize]) -> Option<Dims> {
        if dims.len() > MAX_RANK {
            return None;
        }
        let mut out = Dims {
            len: dims.len() as u8,
            dims: [0; MAX_RANK],
        };
        out.dims[..dims.len()].copy_from_slice(dims);
        Some(out)
    }

    /// Appends an innermost dimension, or returns `None` at [`MAX_RANK`].
    fn push(&mut self, d: usize) -> Option<()> {
        let slot = self.dims.get_mut(self.len as usize)?;
        *slot = d;
        self.len += 1;
        Some(())
    }
}

/// An array of at most [`MAX_RANK`] dimensions; a longer array does not
/// compile.
impl<const N: usize> From<[usize; N]> for Dims {
    fn from(dims: [usize; N]) -> Self {
        const { assert!(N <= MAX_RANK, "rank past MAX_RANK") };
        Dims::from_slice(&dims).expect("N <= MAX_RANK")
    }
}

impl Deref for Dims {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.dims[..self.len as usize]
    }
}

impl DerefMut for Dims {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.len as usize]
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Hash for Dims {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// The dimensions of a tensor, outermost first, held inline.
///
/// ```
/// use sn_dataflow::Shape;
/// let s = Shape::new([8, 4096, 128]);
/// assert_eq!(s.elements(), 8 * 4096 * 128);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(format!("{s:?}"), "Shape([8, 4096, 128])");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape(Dims);

impl Shape {
    /// Creates a shape from explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero — zero-sized tensors are always a
    /// model-construction bug in this workspace — and on no dimensions or
    /// more than [`MAX_RANK`] of them. Operators that add an axis
    /// (an embedding gather) check the cap and return a shape error
    /// instead.
    pub fn new(dims: impl AsRef<[usize]>) -> Self {
        let dims = dims.as_ref();
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero dimension in shape {dims:?}"
        );
        let dims = Dims::from_slice(dims)
            .unwrap_or_else(|| panic!("shape {dims:?} has more than {MAX_RANK} dimensions"));
        Shape(dims)
    }

    /// A shape of the given dimensions, or `None` if one is zero or there
    /// are none.
    pub(crate) fn from_dims(dims: Dims) -> Option<Self> {
        (!dims.is_empty() && !dims.contains(&0)).then_some(Shape(dims))
    }

    /// A scalar-like one-element shape.
    pub fn scalar() -> Self {
        Shape::new([1])
    }

    /// A 2-D shape.
    pub fn mat(rows: usize, cols: usize) -> Self {
        Shape::new([rows, cols])
    }

    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The dimensions for in-place editing by shape inference, which keeps
    /// every one nonzero.
    pub(crate) fn dims_mut(&mut self) -> &mut [usize] {
        &mut self.0
    }

    /// This shape with one more, innermost, dimension, or `None` at
    /// [`MAX_RANK`].
    pub(crate) fn pushed(mut self, d: usize) -> Option<Self> {
        self.0.push(d)?;
        Some(self)
    }

    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count.
    pub fn elements(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }

    /// The innermost (fastest-varying) dimension.
    pub fn inner(&self) -> usize {
        *self.0.last().expect("shape is non-empty")
    }

    /// The outermost dimension.
    pub fn outer(&self) -> usize {
        self.0[0]
    }

    /// Returns a new shape with dimensions permuted by `perm`
    /// (`perm[i]` is the source axis of destination axis `i`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Shape {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = [false; MAX_RANK];
        let mut out = *self;
        for (dst, &p) in out.0.iter_mut().zip(perm) {
            assert!(p < self.rank() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
            *dst = self.0[p];
        }
        out
    }

    /// Collapses to a 2-D view `[product(outer dims), inner]`, the canonical
    /// GEMM-operand view.
    pub fn as_2d(&self) -> (u64, u64) {
        let inner = self.inner() as u64;
        (self.elements() / inner, inner)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_multiply() {
        assert_eq!(Shape::new([2, 3, 4]).elements(), 24);
        assert_eq!(Shape::scalar().elements(), 1);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_rejected() {
        let _ = Shape::new([4, 0]);
    }

    #[test]
    #[should_panic(expected = "more than 4 dimensions")]
    fn rank_past_the_cap_rejected() {
        let _ = Shape::new([1; MAX_RANK + 1]);
    }

    #[test]
    fn permute_reorders() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.permute(&[2, 0, 1]), Shape::new([4, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation_rejected() {
        let _ = Shape::new([2, 3]).permute(&[0, 0]);
    }

    #[test]
    fn as_2d_collapses_outer() {
        assert_eq!(Shape::new([8, 16, 32]).as_2d(), (128, 32));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new([8, 4096]).to_string(), "[8x4096]");
    }

    #[test]
    fn equality_ignores_the_unused_tail() {
        let mut s = Shape::new([4, 5, 6]);
        s.dims_mut()[2] = 7;
        assert_eq!(s, Shape::new([4, 5, 7]));
        assert_ne!(Shape::new([4, 5]), Shape::new([4, 5, 1]));
        assert_eq!(Shape::new([4]).pushed(5), Some(Shape::new([4, 5])));
        assert_eq!(Shape::new([1; MAX_RANK]).pushed(1), None);
    }
}
