//! Automated flattening of rich message types to OpenCL buffers (§6.1.2).
//!
//! OpenCL requires arrays-of-arrays and pointer-rich structures to be
//! flattened into contiguous 1-D buffers before crossing the host↔device
//! boundary. The Ensemble compiler automates this; in the Rust reproduction
//! the [`Flatten`] trait plays that role: message types describe how they
//! decompose into typed segments plus integer dimensions, and the kernel
//! actor turns segments into buffers and dimensions into trailing scalar
//! kernel arguments (generated kernels index with `a[y * cols + x]`).
//!
//! Primitive values flatten to **one-element segments** — the paper's rule
//! for making in-kernel updates to scalars visible to the host (§6.1.2
//! notes "passing a pointer to the host variable is not an option").

use std::fmt;

/// Element type of one flattened segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegTy {
    /// 32-bit floats.
    F32,
    /// 32-bit signed integers.
    I32,
}

/// One contiguous, typed segment of flattened data.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatSeg {
    /// 32-bit float data.
    F32(Vec<f32>),
    /// 32-bit integer data.
    I32(Vec<i32>),
}

impl FlatSeg {
    /// The segment's element type.
    pub fn ty(&self) -> SegTy {
        match self {
            FlatSeg::F32(_) => SegTy::F32,
            FlatSeg::I32(_) => SegTy::I32,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            FlatSeg::F32(v) => v.len(),
            FlatSeg::I32(v) => v.len(),
        }
    }

    /// True when the segment holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes when stored in a device buffer.
    pub fn byte_len(&self) -> usize {
        self.len() * 4
    }

    /// Little-endian byte representation (device buffer layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            FlatSeg::F32(v) => oclsim::hostmem::f32_to_bytes(v),
            FlatSeg::I32(v) => oclsim::hostmem::i32_to_bytes(v),
        }
    }

    /// Rebuild a segment of type `ty` from device bytes.
    pub fn from_bytes(ty: SegTy, bytes: &[u8]) -> FlatSeg {
        match ty {
            SegTy::F32 => FlatSeg::F32(oclsim::hostmem::bytes_to_f32(bytes)),
            SegTy::I32 => FlatSeg::I32(oclsim::hostmem::bytes_to_i32(bytes)),
        }
    }
}

/// The flattened form of a message: typed segments plus the integer
/// dimensions needed to rebuild the original shape (and to index inside
/// generated kernels).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatData {
    /// Typed data segments, one device buffer each.
    pub segs: Vec<FlatSeg>,
    /// Shape metadata, passed to kernels as trailing `int` arguments.
    pub dims: Vec<i32>,
}

/// Where an upload's segments come from. The protocol asks a source for
/// each segment's type and length, allocates the buffer, and has the
/// source write the elements straight into the buffer's storage — so a
/// front end whose values are not `f32`/`i32` vectors (the VM's `f64`
/// leaves) never has to stage a [`FlatData`] first. [`FlatData`] itself
/// is the source of the typed Rust API and of the failover rescue.
pub trait FlatSource {
    /// Shape metadata, passed to kernels as trailing `int` arguments.
    fn dims(&self) -> &[i32];

    /// Number of segments (one device buffer each).
    fn seg_count(&self) -> usize;

    /// Element type and element count of segment `idx`.
    fn seg_shape(&self, idx: usize) -> (SegTy, usize);

    /// Write segment `idx` into `dst` (exactly `4 * len` bytes) in the
    /// [`FlatSeg::to_bytes`] layout. Must be re-runnable: a retried
    /// upload fills the same buffer again.
    fn fill(&self, idx: usize, dst: &mut [u8]);
}

impl FlatSource for FlatData {
    fn dims(&self) -> &[i32] {
        &self.dims
    }

    fn seg_count(&self) -> usize {
        self.segs.len()
    }

    fn seg_shape(&self, idx: usize) -> (SegTy, usize) {
        (self.segs[idx].ty(), self.segs[idx].len())
    }

    fn fill(&self, idx: usize, dst: &mut [u8]) {
        match &self.segs[idx] {
            FlatSeg::F32(v) => oclsim::hostmem::pack(v, dst, f32::to_le_bytes),
            FlatSeg::I32(v) => oclsim::hostmem::pack(v, dst, i32::to_le_bytes),
        }
    }
}

/// Error rebuilding a value from flattened data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlattenError(pub String);

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unflatten failed: {}", self.0)
    }
}

impl std::error::Error for FlattenError {}

/// Types that can cross the host↔device boundary.
///
/// `SEGS` and `DIMS` are the exact number of segments/dimensions the type
/// contributes; they let composite impls (tuples — the stand-in for
/// Ensemble struct flattening) split the flat form deterministically.
pub trait Flatten: Send + Sized + 'static {
    /// Number of segments this type flattens to.
    const SEGS: usize;
    /// Number of dimension entries this type contributes.
    const DIMS: usize;

    /// Decompose into flat segments + dims.
    fn flatten(self) -> FlatData;

    /// Rebuild from flat segments + dims.
    fn unflatten(flat: FlatData) -> Result<Self, FlattenError>;
}

fn take1<T>(mut v: Vec<T>, what: &str) -> Result<T, FlattenError> {
    if v.len() != 1 {
        return Err(FlattenError(format!(
            "expected exactly one {what}, got {}",
            v.len()
        )));
    }
    Ok(v.pop().expect("len checked"))
}

impl Flatten for Vec<f32> {
    const SEGS: usize = 1;
    const DIMS: usize = 1;

    fn flatten(self) -> FlatData {
        let n = self.len() as i32;
        FlatData {
            segs: vec![FlatSeg::F32(self)],
            dims: vec![n],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::F32(v) => Ok(v),
            other => Err(FlattenError(format!("expected f32 segment, got {other:?}"))),
        }
    }
}

impl Flatten for Vec<i32> {
    const SEGS: usize = 1;
    const DIMS: usize = 1;

    fn flatten(self) -> FlatData {
        let n = self.len() as i32;
        FlatData {
            segs: vec![FlatSeg::I32(self)],
            dims: vec![n],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::I32(v) => Ok(v),
            other => Err(FlattenError(format!("expected i32 segment, got {other:?}"))),
        }
    }
}

impl Flatten for f32 {
    const SEGS: usize = 1;
    const DIMS: usize = 0;

    // §6.1.2: primitives cross as one-element arrays so in-kernel updates
    // reach the host.
    fn flatten(self) -> FlatData {
        FlatData {
            segs: vec![FlatSeg::F32(vec![self])],
            dims: vec![],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::F32(v) if v.len() == 1 => Ok(v[0]),
            other => Err(FlattenError(format!(
                "expected one-element f32 segment, got {other:?}"
            ))),
        }
    }
}

impl Flatten for i32 {
    const SEGS: usize = 1;
    const DIMS: usize = 0;

    fn flatten(self) -> FlatData {
        FlatData {
            segs: vec![FlatSeg::I32(vec![self])],
            dims: vec![],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::I32(v) if v.len() == 1 => Ok(v[0]),
            other => Err(FlattenError(format!(
                "expected one-element i32 segment, got {other:?}"
            ))),
        }
    }
}

/// A dense, row-major two-dimensional array — `real [][]` in Ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Array2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Array2 {
    /// Create from row-major data; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Array2 {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Array2 { rows, cols, data }
    }

    /// Zero-filled array.
    pub fn zeros(rows: usize, cols: usize) -> Array2 {
        Array2 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the row-major backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

impl std::ops::Index<(usize, usize)> for Array2 {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Array2 {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl Flatten for Array2 {
    const SEGS: usize = 1;
    const DIMS: usize = 2;

    fn flatten(self) -> FlatData {
        FlatData {
            segs: vec![FlatSeg::F32(self.data)],
            dims: vec![self.rows as i32, self.cols as i32],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        if flat.dims.len() != 2 {
            return Err(FlattenError(format!(
                "Array2 needs 2 dims, got {}",
                flat.dims.len()
            )));
        }
        let (rows, cols) = (flat.dims[0] as usize, flat.dims[1] as usize);
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::F32(v) if v.len() == rows * cols => Ok(Array2 {
                rows,
                cols,
                data: v,
            }),
            other => Err(FlattenError(format!(
                "Array2 {rows}x{cols} does not match segment {other:?}"
            ))),
        }
    }
}

/// A dense, row-major three-dimensional array — `real [][][]` in Ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    d0: usize,
    d1: usize,
    d2: usize,
    data: Vec<f32>,
}

impl Array3 {
    /// Zero-filled array.
    pub fn zeros(d0: usize, d1: usize, d2: usize) -> Array3 {
        Array3 {
            d0,
            d1,
            d2,
            data: vec![0.0; d0 * d1 * d2],
        }
    }

    /// Shape as `(d0, d1, d2)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.d0, self.d1, self.d2)
    }

    /// Row-major backing slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl std::ops::Index<(usize, usize, usize)> for Array3 {
    type Output = f32;
    fn index(&self, (a, b, c): (usize, usize, usize)) -> &f32 {
        &self.data[(a * self.d1 + b) * self.d2 + c]
    }
}

impl std::ops::IndexMut<(usize, usize, usize)> for Array3 {
    fn index_mut(&mut self, (a, b, c): (usize, usize, usize)) -> &mut f32 {
        &mut self.data[(a * self.d1 + b) * self.d2 + c]
    }
}

impl Flatten for Array3 {
    const SEGS: usize = 1;
    const DIMS: usize = 3;

    fn flatten(self) -> FlatData {
        FlatData {
            segs: vec![FlatSeg::F32(self.data)],
            dims: vec![self.d0 as i32, self.d1 as i32, self.d2 as i32],
        }
    }

    fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
        if flat.dims.len() != 3 {
            return Err(FlattenError(format!(
                "Array3 needs 3 dims, got {}",
                flat.dims.len()
            )));
        }
        let (d0, d1, d2) = (
            flat.dims[0] as usize,
            flat.dims[1] as usize,
            flat.dims[2] as usize,
        );
        let seg = take1(flat.segs, "segment")?;
        match seg {
            FlatSeg::F32(v) if v.len() == d0 * d1 * d2 => Ok(Array3 {
                d0,
                d1,
                d2,
                data: v,
            }),
            other => Err(FlattenError(format!(
                "Array3 {d0}x{d1}x{d2} does not match segment {other:?}"
            ))),
        }
    }
}

// Tuple impls stand in for Ensemble's field-wise struct flattening
// ("struct values are flattened so that each field is sent separately").
macro_rules! flatten_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Flatten),+> Flatten for ($($name,)+) {
            const SEGS: usize = 0 $(+ $name::SEGS)+;
            const DIMS: usize = 0 $(+ $name::DIMS)+;

            fn flatten(self) -> FlatData {
                let mut out = FlatData::default();
                $(
                    let part = self.$idx.flatten();
                    out.segs.extend(part.segs);
                    out.dims.extend(part.dims);
                )+
                out
            }

            fn unflatten(flat: FlatData) -> Result<Self, FlattenError> {
                let mut segs = flat.segs.into_iter();
                let mut dims = flat.dims.into_iter();
                Ok(($(
                    $name::unflatten(FlatData {
                        segs: segs.by_ref().take($name::SEGS).collect(),
                        dims: dims.by_ref().take($name::DIMS).collect(),
                    })?,
                )+))
            }
        }
    };
}

flatten_tuple!(A: 0);
flatten_tuple!(A: 0, B: 1);
flatten_tuple!(A: 0, B: 1, C: 2);
flatten_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_f32_roundtrip() {
        let v = vec![1.0f32, 2.0, 3.0];
        let flat = v.clone().flatten();
        assert_eq!(flat.dims, vec![3]);
        assert_eq!(Vec::<f32>::unflatten(flat).unwrap(), v);
    }

    #[test]
    fn primitive_is_one_element_segment() {
        let flat = 4.5f32.flatten();
        assert_eq!(flat.segs[0].len(), 1);
        assert_eq!(flat.dims.len(), 0);
        assert_eq!(f32::unflatten(flat).unwrap(), 4.5);
    }

    #[test]
    fn array2_indexing_and_roundtrip() {
        let mut a = Array2::zeros(2, 3);
        a[(1, 2)] = 7.0;
        a[(0, 0)] = 1.0;
        let flat = a.clone().flatten();
        assert_eq!(flat.dims, vec![2, 3]);
        // Row-major: element (1,2) is at 1*3+2 = 5.
        assert_eq!(
            flat.segs[0],
            FlatSeg::F32(vec![1.0, 0.0, 0.0, 0.0, 0.0, 7.0])
        );
        assert_eq!(Array2::unflatten(flat).unwrap(), a);
    }

    #[test]
    fn array3_indexing_and_roundtrip() {
        let mut a = Array3::zeros(2, 2, 2);
        a[(1, 0, 1)] = 3.0;
        let flat = a.clone().flatten();
        assert_eq!(flat.dims, vec![2, 2, 2]);
        assert_eq!(Array3::unflatten(flat).unwrap()[(1, 0, 1)], 3.0);
    }

    #[test]
    fn struct_like_tuple_flattens_field_wise() {
        // Mirrors the paper's matmul struct: { a, b, result }.
        let a = Array2::zeros(2, 2);
        let b = Array2::zeros(2, 2);
        let r = Array2::zeros(2, 2);
        let flat = (a.clone(), b.clone(), r.clone()).flatten();
        assert_eq!(flat.segs.len(), 3);
        assert_eq!(flat.dims.len(), 6);
        let back = <(Array2, Array2, Array2)>::unflatten(flat).unwrap();
        assert_eq!(back, (a, b, r));
    }

    #[test]
    fn mixed_tuple_with_scalars() {
        let v = (vec![1.0f32, 2.0], 5i32, 0.5f32);
        let flat = v.clone().flatten();
        assert_eq!(flat.segs.len(), 3);
        assert_eq!(flat.dims, vec![2]); // only the Vec contributes a dim
        let back = <(Vec<f32>, i32, f32)>::unflatten(flat).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let flat = FlatData {
            segs: vec![FlatSeg::F32(vec![0.0; 5])],
            dims: vec![2, 3],
        };
        assert!(Array2::unflatten(flat).is_err());
    }

    #[test]
    fn seg_bytes_roundtrip() {
        let s = FlatSeg::I32(vec![1, -2, 3]);
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.byte_len());
        assert_eq!(FlatSeg::from_bytes(SegTy::I32, &bytes), s);
    }

    #[test]
    fn flat_data_fills_the_to_bytes_layout() {
        let flat = FlatData {
            segs: vec![FlatSeg::F32(vec![1.5, -2.0]), FlatSeg::I32(vec![7, -9, 11])],
            dims: vec![2, 3],
        };
        assert_eq!(FlatSource::dims(&flat), [2, 3]);
        assert_eq!(flat.seg_count(), 2);
        for (idx, seg) in flat.segs.iter().enumerate() {
            assert_eq!(flat.seg_shape(idx), (seg.ty(), seg.len()));
            let mut raw = vec![0xAAu8; seg.byte_len()];
            flat.fill(idx, &mut raw);
            assert_eq!(raw, seg.to_bytes());
        }
    }

    #[test]
    fn wrong_seg_type_is_rejected() {
        let flat = FlatData {
            segs: vec![FlatSeg::I32(vec![1])],
            dims: vec![1],
        };
        assert!(Vec::<f32>::unflatten(flat).is_err());
    }
}
