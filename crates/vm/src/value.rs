//! Runtime values of the Ensemble VM.
//!
//! Arrays and structs are heap objects with reference semantics *within*
//! an actor (as in the Ensemble VM, which is a modified JVM); crossing a
//! channel duplicates them (shared-nothing), unless the type is `mov`, in
//! which case the reference itself travels — including references to data
//! that currently lives **on an OpenCL device** (§6.2.3).
//!
//! The duplicate is *observational*: a copy send builds fresh identity
//! cells for every array and struct but shares the typed leaves, which
//! sit on copy-on-write storage. The copy the semantics demand happens on
//! the first write to a leaf someone else still holds, on either side of
//! the send, and never otherwise ([`DupStats`] counts both outcomes).

use ensemble_actors::{In, Out};
use ensemble_lang::vmops::{DataField, ElemKind};
use ensemble_ocl::{FlatData, FlatSeg, FlatSource, ProfileSink, ResidentBufs, SegTy};
use oclsim::hostmem::pack;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What kind of failure a [`VmError`] records. Carried as data so that
/// wrapping an error with context can never lose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// A genuine failure: the program, its data or a device is wrong.
    Other,
    /// A blocking receive gave up because the run's absolute deadline
    /// passed. The serving layer maps these to `DeadlineExceeded`.
    Deadline,
    /// An injected kill ([`oclsim::ClError::is_kill`]): the actor exits
    /// abruptly and its supervisor restarts it from the checkpoint.
    Killed,
    /// The actor found a channel poisoned by a failed peer: a consequence
    /// of that peer's failure, never the cause. A run reports the cause.
    Cascade,
}

/// A VM runtime error.
///
/// Three words, like the bare `String` it once was: every interpreter
/// step returns a `Result<_, VmError>`, and a wider error widens them all.
#[derive(Debug, Clone, PartialEq)]
pub struct VmError {
    /// Human-readable description.
    pub message: Box<str>,
    /// The failure's class.
    pub class: ErrorClass,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm error: {}", self.message)
    }
}

impl std::error::Error for VmError {}

/// Prefix of a deadline miss's message (its class is
/// [`ErrorClass::Deadline`]; the prefix is only how it reads).
pub const DEADLINE_MARK: &str = "[deadline] ";

impl VmError {
    /// An [`ErrorClass::Other`] error. Cold: the interpreter loop is full
    /// of `ok_or_else(|| VmError::new(..))`, and building the message must
    /// stay out of line there.
    #[cold]
    pub fn new(message: impl Into<String>) -> VmError {
        VmError {
            message: message.into().into(),
            class: ErrorClass::Other,
        }
    }

    /// Build a deadline-miss error for the operation `what`.
    pub fn deadline(what: &str) -> VmError {
        VmError {
            message: format!("{DEADLINE_MARK}{what}").into(),
            class: ErrorClass::Deadline,
        }
    }

    /// The actor met a channel `what` poisoned by a failed peer.
    pub fn cascade(what: &str) -> VmError {
        VmError {
            message: format!("{what} poisoned by a failed peer").into(),
            class: ErrorClass::Cascade,
        }
    }

    /// A simulator error met while doing `what`, keeping the kill class.
    pub fn device(what: &str, e: &oclsim::ClError) -> VmError {
        VmError {
            message: format!("{what}: {e}").into(),
            class: if e.is_kill() {
                ErrorClass::Killed
            } else {
                ErrorClass::Other
            },
        }
    }

    /// This error reported from `context` (e.g. the failing actor): same
    /// class, message prefixed.
    pub fn within(self, context: &str) -> VmError {
        VmError {
            message: format!("{context}: {self}").into(),
            class: self.class,
        }
    }

    /// True when this error records a deadline miss.
    pub fn is_deadline(&self) -> bool {
        self.class == ErrorClass::Deadline
    }
}

/// Array storage: typed leaves, nested cells for multi-dimensional arrays.
///
/// A leaf's elements sit behind an `Arc` so that a copy-channel send and
/// a flatten view can share them; the cell holding the `VmArr` is the
/// array's identity, and every write goes through [`VmArr::store`], which
/// un-shares the leaf first. Build a leaf with `.into()` on its `Vec`.
#[derive(Debug, Clone)]
pub enum VmArr {
    /// `integer []`.
    I(Arc<Vec<i64>>),
    /// `real []`.
    R(Arc<Vec<f64>>),
    /// `boolean []`.
    B(Arc<Vec<bool>>),
    /// Arrays of arrays (outer dimensions) or of structs.
    Cells(Vec<VmVal>),
}

/// Copy-on-write accounting of a run's copy-channel sends: what the sends
/// shared instead of copying, and what later writes had to copy after all.
#[derive(Debug, Default)]
pub struct DupStats {
    shared_bytes: AtomicU64,
    copied_bytes: AtomicU64,
}

impl DupStats {
    /// Leaf bytes copy sends have shared so far.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_bytes.load(Ordering::Relaxed)
    }

    /// Leaf bytes writes to a still-shared leaf have materialised so far.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    /// Account one copy send's shared leaves.
    pub(crate) fn add_shared(&self, bytes: u64) {
        self.shared_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// What one copy send shared: typed leaves and their bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DupTally {
    /// Typed leaves shared with the sender.
    pub(crate) leaves: u64,
    /// Their size in host bytes.
    pub(crate) bytes: u64,
}

impl DupTally {
    /// Another holder of `leaf`, counted.
    fn share<T>(&mut self, leaf: &Arc<Vec<T>>) -> Arc<Vec<T>> {
        self.leaves += 1;
        self.bytes += std::mem::size_of_val(leaf.as_slice()) as u64;
        Arc::clone(leaf)
    }
}

/// Write `x` at `i` (in bounds) of a leaf, copying the leaf first when a
/// receiver, a sender or an upload in flight still holds it — the one
/// place a deferred duplicate-on-send is ever paid.
fn store_leaf<T: Clone>(leaf: &mut Arc<Vec<T>>, i: usize, x: T, dup: Option<&DupStats>) {
    match Arc::get_mut(leaf) {
        Some(own) => own[i] = x,
        None => {
            if let Some(dup) = dup {
                let bytes = std::mem::size_of_val(leaf.as_slice()) as u64;
                dup.copied_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Arc::make_mut(leaf)[i] = x;
        }
    }
}

impl PartialEq for VmArr {
    fn eq(&self, other: &VmArr) -> bool {
        match (self, other) {
            (VmArr::I(a), VmArr::I(b)) => a == b,
            (VmArr::R(a), VmArr::R(b)) => a == b,
            (VmArr::B(a), VmArr::B(b)) => a == b,
            // Nested arrays compare shallowly by identity of the cells;
            // tests only compare leaf arrays.
            (VmArr::Cells(a), VmArr::Cells(b)) => a.len() == b.len(),
            _ => false,
        }
    }
}

impl VmArr {
    /// First-dimension length.
    pub fn len(&self) -> usize {
        match self {
            VmArr::I(v) => v.len(),
            VmArr::R(v) => v.len(),
            VmArr::B(v) => v.len(),
            VmArr::Cells(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `self[i] := value` for an in-bounds `i`, converting `value` to the
    /// leaf's element type. A leaf shared by an earlier copy send is
    /// copied first (counted into `dup`), so the write is never visible
    /// across the send.
    pub fn store(&mut self, i: usize, value: VmVal, dup: Option<&DupStats>) -> Result<(), VmError> {
        match self {
            VmArr::I(v) => store_leaf(v, i, value.as_i()?, dup),
            VmArr::R(v) => store_leaf(v, i, value.as_f()?, dup),
            VmArr::B(v) => store_leaf(v, i, value.as_b()?, dup),
            VmArr::Cells(v) => v[i] = value,
        }
        Ok(())
    }
}

/// The state of a `mov` struct: on the host or resident on a device.
#[derive(Debug)]
pub enum MovState {
    /// Field values live on the host.
    Host(Vec<VmVal>),
    /// Field data lives in device buffers (flattening order = field order).
    Device {
        /// The buffers plus dims.
        bufs: ResidentBufs,
        /// Field descriptors for rebuilding host values.
        fields: Vec<DataField>,
    },
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum VmVal {
    /// No value.
    Unit,
    /// `integer`.
    I(i64),
    /// `real`.
    R(f64),
    /// `boolean`.
    B(bool),
    /// `string`.
    S(Arc<str>),
    /// Array object.
    Arr(Arc<Mutex<VmArr>>),
    /// Plain struct object: type id + fields.
    Struct(u16, Arc<Mutex<Vec<VmVal>>>),
    /// A `mov` struct: may be device-resident.
    MovStruct(u16, Arc<Mutex<MovState>>),
    /// Input endpoint (shared so it can be stored and received from).
    ChanIn(Arc<In<VmVal>>),
    /// Output endpoint.
    ChanOut(Out<VmVal>),
    /// Actor handle: port name → endpoint (boot only).
    ActorRef(Arc<HashMap<String, VmVal>>),
}

impl VmVal {
    /// Wrap a new array.
    pub fn arr(a: VmArr) -> VmVal {
        VmVal::Arr(Arc::new(Mutex::new(a)))
    }

    /// Numeric view as f64.
    pub fn as_f(&self) -> Result<f64, VmError> {
        match self {
            VmVal::I(v) => Ok(*v as f64),
            VmVal::R(v) => Ok(*v),
            other => Err(VmError::new(format!("expected a number, found {other:?}"))),
        }
    }

    /// Numeric view as i64.
    pub fn as_i(&self) -> Result<i64, VmError> {
        match self {
            VmVal::I(v) => Ok(*v),
            VmVal::R(v) => Ok(*v as i64),
            VmVal::B(b) => Ok(*b as i64),
            other => Err(VmError::new(format!(
                "expected an integer, found {other:?}"
            ))),
        }
    }

    /// Boolean view.
    pub fn as_b(&self) -> Result<bool, VmError> {
        match self {
            VmVal::B(b) => Ok(*b),
            VmVal::I(v) => Ok(*v != 0),
            other => Err(VmError::new(format!("expected a boolean, found {other:?}"))),
        }
    }

    /// The duplicate a shared-nothing channel send delivers: fresh
    /// identity cells for every array, struct and `mov` struct, typed
    /// leaves shared copy-on-write. Channels and actor handles are
    /// runtime identities, not data — they are shared. Device-resident
    /// `mov` structs are forced back to the host first (a non-mov send of
    /// mov data re-establishes isolation).
    pub fn deep_copy(&self, profile: Option<&ProfileSink>) -> Result<VmVal, VmError> {
        self.dup(profile, &mut DupTally::default())
    }

    /// [`VmVal::deep_copy`], adding what it shared to `tally`.
    pub(crate) fn dup(
        &self,
        profile: Option<&ProfileSink>,
        tally: &mut DupTally,
    ) -> Result<VmVal, VmError> {
        fn dup_all(
            vals: &[VmVal],
            profile: Option<&ProfileSink>,
            tally: &mut DupTally,
        ) -> Result<Vec<VmVal>, VmError> {
            vals.iter().map(|x| x.dup(profile, tally)).collect()
        }
        Ok(match self {
            VmVal::Arr(a) => {
                let inner = a.lock();
                VmVal::arr(match &*inner {
                    VmArr::I(v) => VmArr::I(tally.share(v)),
                    VmArr::R(v) => VmArr::R(tally.share(v)),
                    VmArr::B(v) => VmArr::B(tally.share(v)),
                    VmArr::Cells(v) => VmArr::Cells(dup_all(v, profile, tally)?),
                })
            }
            VmVal::Struct(id, fields) => {
                let copied = dup_all(&fields.lock(), profile, tally)?;
                VmVal::Struct(*id, Arc::new(Mutex::new(copied)))
            }
            VmVal::MovStruct(id, state) => {
                let inner = force_host_locked(state, profile)?;
                let MovState::Host(fields) = &*inner else {
                    unreachable!("forced to host above");
                };
                let copied = dup_all(fields, profile, tally)?;
                VmVal::MovStruct(*id, Arc::new(Mutex::new(MovState::Host(copied))))
            }
            VmVal::Unit
            | VmVal::I(_)
            | VmVal::R(_)
            | VmVal::B(_)
            | VmVal::S(_)
            | VmVal::ChanIn(_)
            | VmVal::ChanOut(_)
            | VmVal::ActorRef(_) => self.clone(),
        })
    }
}

/// Bring a device-resident state home under its (held) lock: read the
/// buffers back, rebuild the field values, and only then replace the
/// state — dropping the buffers, which releases their device memory — so
/// a failed read leaves the value as it was. Returns the bytes freed (0
/// when already on the host); `what` names the read in its error.
pub(crate) fn bring_home(
    state: &mut MovState,
    profile: Option<&ProfileSink>,
    what: &str,
) -> Result<usize, VmError> {
    let MovState::Device { bufs, fields } = &*state else {
        return Ok(0);
    };
    let bytes = bufs.device_bytes();
    let flat = bufs
        .read_back(profile)
        .map_err(|e| VmError::new(format!("{what} read-back failed: {e}")))?;
    *state = MovState::Host(unflatten_fields(&flat, fields)?);
    Ok(bytes)
}

/// Force a `mov` struct's data back to the host (the §6.2.3 rule for host
/// access), charging the transfer to `profile`.
///
/// Returns the still-held lock guard so callers can read the host fields
/// without a release/re-acquire window (another thread — e.g. a kernel
/// actor — could otherwise move the value back onto a device in between).
pub fn force_host_locked<'m>(
    state: &'m Mutex<MovState>,
    profile: Option<&ProfileSink>,
) -> Result<parking_lot::MutexGuard<'m, MovState>, VmError> {
    let mut guard = state.lock();
    bring_home(&mut guard, profile, "device")?;
    Ok(guard)
}

/// A weak-ish handle to a `mov` struct's state that a device-memory
/// accountant can evict under pressure.
///
/// Eviction forces the value back to host memory through the same
/// read-back path host access uses ([`force_host_locked`]), so it is
/// transparent to the owning program: the kernel actor's dispatch loop
/// always handles `MovState::Host` and re-uploads the (byte
/// -identical) flattened data on the next touch. The accountant holds a
/// strong `Arc` — a `mov` value's memory is only reclaimable through
/// either teardown of the owning session (dropping the registry) or this
/// handle.
#[derive(Debug, Clone)]
pub struct EvictableMov {
    state: Arc<Mutex<MovState>>,
}

impl EvictableMov {
    /// Wrap the state cell of a [`VmVal::MovStruct`].
    pub fn new(state: Arc<Mutex<MovState>>) -> EvictableMov {
        EvictableMov { state }
    }

    /// The device currently holding this value's buffers (`None` when
    /// host-resident or busy).
    pub fn device_id(&self) -> Option<usize> {
        match self.state.try_lock() {
            Some(guard) => match &*guard {
                MovState::Device { bufs, .. } => Some(bufs.device_id()),
                MovState::Host(_) => None,
            },
            None => None,
        }
    }

    /// True when `other` wraps the same underlying `mov` state cell (the
    /// accountant's registry deduplicates on this).
    pub fn same_value(&self, other: &EvictableMov) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// Try to evict: force the value to host memory, releasing its device
    /// buffers. Returns `Ok(Some(bytes))` with the bytes freed,
    /// `Ok(None)` when there was nothing to do (already host-resident, or
    /// the owner holds the lock — never block an evictor on a running
    /// dispatch), and `Err` if the device read-back itself failed.
    ///
    /// The transfer is *not* charged to any profile: eviction is a pool
    /// decision, not part of the victim program's execution, so the
    /// victim's transfer accounting (its `VmReport` sums) is unchanged.
    pub fn try_evict(&self) -> Result<Option<usize>, VmError> {
        let Some(mut guard) = self.state.try_lock() else {
            return Ok(None);
        };
        let bytes = bring_home(&mut guard, None, "eviction")?;
        Ok(Some(bytes).filter(|&b| b > 0))
    }
}

/// The typed leaves of one field, in flattening order, shared with the
/// value they were taken from.
#[derive(Debug)]
enum ViewSeg {
    /// `real` leaves; each element crosses as an `f32`.
    F32(Vec<Arc<Vec<f64>>>),
    /// `integer` / `boolean` leaves; each element crosses as an `i32`.
    I32(Vec<IntLeaf>),
}

#[derive(Debug)]
enum IntLeaf {
    I(Arc<Vec<i64>>),
    B(Arc<Vec<bool>>),
}

impl IntLeaf {
    fn len(&self) -> usize {
        match self {
            IntLeaf::I(v) => v.len(),
            IntLeaf::B(v) => v.len(),
        }
    }
}

/// The flattened form of a list of field values, *by reference*: per
/// field the shape dims and the `Arc`s of its typed leaves, nothing
/// converted yet. A snapshot — a later write to the value un-shares the
/// leaf it touches and leaves the view as it was. As a [`FlatSource`] it
/// converts `f64→f32` / `i64,bool→i32` straight into the device buffer.
#[derive(Debug, Default)]
pub struct FlatView {
    segs: Vec<ViewSeg>,
    dims: Vec<i32>,
}

impl FlatView {
    /// View `vals` (each an array) following the `fields`' declared
    /// shapes and element kinds — the one tree walk of the flatten path.
    pub fn of(vals: &[VmVal], fields: &[DataField]) -> Result<FlatView, VmError> {
        let mut out = FlatView::default();
        for (val, field) in vals.iter().zip(fields) {
            let mut seg = match field.elem {
                ElemKind::Real => ViewSeg::F32(Vec::new()),
                _ => ViewSeg::I32(Vec::new()),
            };
            let mut dims = Vec::with_capacity(field.ndims);
            walk(val, field, 0, &mut dims, &mut seg)?;
            if dims.len() != field.ndims {
                return Err(VmError::new(format!(
                    "field `{}` has {} dims, declared {}",
                    field.name,
                    dims.len(),
                    field.ndims
                )));
            }
            out.segs.push(seg);
            out.dims.extend(dims);
        }
        Ok(out)
    }

    /// Convert into an owned [`FlatData`].
    pub fn materialise(&self) -> FlatData {
        let segs = (0..self.segs.len()).map(|idx| {
            let len = self.seg_shape(idx).1;
            match &self.segs[idx] {
                ViewSeg::F32(leaves) => {
                    let mut out = Vec::with_capacity(len);
                    for v in leaves {
                        out.extend(v.iter().map(|&x| x as f32));
                    }
                    FlatSeg::F32(out)
                }
                ViewSeg::I32(leaves) => {
                    let mut out = Vec::with_capacity(len);
                    for leaf in leaves {
                        match leaf {
                            IntLeaf::I(v) => out.extend(v.iter().map(|&x| x as i32)),
                            IntLeaf::B(v) => out.extend(v.iter().map(|&x| x as i32)),
                        }
                    }
                    FlatSeg::I32(out)
                }
            }
        });
        FlatData {
            segs: segs.collect(),
            dims: self.dims.clone(),
        }
    }
}

/// Collect `v`'s dims (its own length is `dims[depth]`) and leaves into `seg`.
fn walk(
    v: &VmVal,
    field: &DataField,
    depth: usize,
    dims: &mut Vec<i32>,
    seg: &mut ViewSeg,
) -> Result<(), VmError> {
    let VmVal::Arr(a) = v else {
        return Err(VmError::new(format!(
            "field `{}` is not an array at depth {depth}",
            field.name
        )));
    };
    let inner = a.lock();
    if dims.len() <= depth {
        dims.push(inner.len() as i32);
    } else if dims[depth] != inner.len() as i32 {
        return Err(VmError::new(format!(
            "field `{}` is ragged at depth {depth}",
            field.name
        )));
    }
    match (&*inner, seg) {
        (VmArr::Cells(cells), seg) => {
            for c in cells {
                walk(c, field, depth + 1, dims, seg)?;
            }
        }
        (VmArr::R(v), ViewSeg::F32(leaves)) => leaves.push(Arc::clone(v)),
        (VmArr::I(v), ViewSeg::I32(leaves)) => leaves.push(IntLeaf::I(Arc::clone(v))),
        (VmArr::B(v), ViewSeg::I32(leaves)) => leaves.push(IntLeaf::B(Arc::clone(v))),
        // Nothing in `lang` rejects a `real []` field built from an
        // `integer []` (or the reverse); the kernel would index a buffer
        // of the wrong element type.
        (found, _) => {
            let found = match found {
                VmArr::I(_) => "integer",
                VmArr::R(_) => "real",
                _ => "boolean",
            };
            return Err(VmError::new(format!(
                "field `{}` is declared {:?} [] but holds {found} []",
                field.name, field.elem
            )));
        }
    }
    Ok(())
}

impl FlatSource for FlatView {
    fn dims(&self) -> &[i32] {
        &self.dims
    }

    fn seg_count(&self) -> usize {
        self.segs.len()
    }

    fn seg_shape(&self, idx: usize) -> (SegTy, usize) {
        match &self.segs[idx] {
            ViewSeg::F32(leaves) => (SegTy::F32, leaves.iter().map(|v| v.len()).sum()),
            ViewSeg::I32(leaves) => (SegTy::I32, leaves.iter().map(IntLeaf::len).sum()),
        }
    }

    fn fill(&self, idx: usize, mut dst: &mut [u8]) {
        let mut next = |len: usize| {
            let (head, tail) = std::mem::take(&mut dst).split_at_mut(4 * len);
            dst = tail;
            head
        };
        match &self.segs[idx] {
            ViewSeg::F32(leaves) => {
                for v in leaves {
                    pack(v, next(v.len()), |x| (x as f32).to_le_bytes());
                }
            }
            ViewSeg::I32(leaves) => {
                for leaf in leaves {
                    match leaf {
                        IntLeaf::I(v) => pack(v, next(v.len()), |x| (x as i32).to_le_bytes()),
                        IntLeaf::B(v) => pack(v, next(v.len()), |x| (x as i32).to_le_bytes()),
                    }
                }
            }
        }
    }
}

/// Flatten a list of field values (each an array) following the fields'
/// declared shapes into an owned [`FlatData`]: [`FlatView::of`], then
/// [`FlatView::materialise`]. The kernel actors upload the view itself,
/// a [`FlatSource`], one pass fewer over the payload; this owned form is
/// for callers that keep the flattened bytes.
pub fn flatten_fields(vals: &[VmVal], fields: &[DataField]) -> Result<FlatData, VmError> {
    Ok(FlatView::of(vals, fields)?.materialise())
}

/// Rebuild field values from flattened data.
pub fn unflatten_fields(flat: &FlatData, fields: &[DataField]) -> Result<Vec<VmVal>, VmError> {
    let mut out = Vec::with_capacity(fields.len());
    let mut dim_cursor = 0usize;
    for (seg, field) in flat.segs.iter().zip(fields) {
        let dims: Vec<usize> = flat.dims[dim_cursor..dim_cursor + field.ndims]
            .iter()
            .map(|&d| d as usize)
            .collect();
        dim_cursor += field.ndims;
        out.push(build_array(seg, &dims, field)?);
    }
    Ok(out)
}

/// Build one (possibly nested) array value from a segment.
pub fn build_array(seg: &FlatSeg, dims: &[usize], field: &DataField) -> Result<VmVal, VmError> {
    fn slice_to_val(seg: &FlatSeg, range: std::ops::Range<usize>, elem: ElemKind) -> VmVal {
        match (seg, elem) {
            (FlatSeg::F32(v), _) => VmVal::arr(VmArr::R(Arc::new(
                v[range].iter().map(|&x| x as f64).collect(),
            ))),
            (FlatSeg::I32(v), ElemKind::Bool) => VmVal::arr(VmArr::B(Arc::new(
                v[range].iter().map(|&x| x != 0).collect(),
            ))),
            (FlatSeg::I32(v), _) => VmVal::arr(VmArr::I(Arc::new(
                v[range].iter().map(|&x| x as i64).collect(),
            ))),
        }
    }
    fn build(seg: &FlatSeg, dims: &[usize], offset: usize, elem: ElemKind) -> VmVal {
        if dims.len() == 1 {
            slice_to_val(seg, offset..offset + dims[0], elem)
        } else {
            let inner_size: usize = dims[1..].iter().product();
            let cells = (0..dims[0])
                .map(|k| build(seg, &dims[1..], offset + k * inner_size, elem))
                .collect();
            VmVal::arr(VmArr::Cells(cells))
        }
    }
    let total: usize = dims.iter().product();
    if seg.len() != total {
        return Err(VmError::new(format!(
            "field `{}`: segment of {} elements does not match dims {dims:?}",
            field.name,
            seg.len()
        )));
    }
    if dims.is_empty() {
        return Err(VmError::new(format!(
            "field `{}` has no dimensions",
            field.name
        )));
    }
    Ok(build(seg, dims, 0, field.elem))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str, elem: ElemKind, ndims: usize) -> DataField {
        DataField {
            name: name.into(),
            elem,
            ndims,
        }
    }

    #[test]
    fn the_error_class_costs_the_interpreter_nothing() {
        use std::mem::size_of;
        assert_eq!(size_of::<VmError>(), size_of::<String>());
        assert_eq!(
            size_of::<Result<f64, VmError>>(),
            size_of::<Result<f64, String>>()
        );
        assert_eq!(
            size_of::<Result<VmVal, VmError>>(),
            size_of::<Result<VmVal, String>>()
        );
    }

    #[test]
    fn wrapping_keeps_the_class_and_reads_as_before() {
        let e = VmError::deadline("receive passed the run deadline").within("actor `A`");
        assert!(e.is_deadline());
        assert_eq!(
            e.to_string(),
            "vm error: actor `A`: vm error: [deadline] receive passed the run deadline"
        );
        let killed = oclsim::ClError::ActorKilled {
            device: "GPU".into(),
        };
        assert_eq!(
            VmError::device("dispatch failed", &killed).class,
            ErrorClass::Killed
        );
        let lost = oclsim::ClError::DeviceLost {
            device: "GPU".into(),
        };
        assert_eq!(
            VmError::device("dispatch failed", &lost).class,
            ErrorClass::Other
        );
        assert_eq!(
            VmError::cascade("receive on a channel").class,
            ErrorClass::Cascade
        );
        assert!(!VmError::new("plain").is_deadline());
    }

    #[test]
    fn flatten_roundtrip_2d_real() {
        let rows = VmVal::arr(VmArr::Cells(vec![
            VmVal::arr(VmArr::R(vec![1.0, 2.0, 3.0].into())),
            VmVal::arr(VmArr::R(vec![4.0, 5.0, 6.0].into())),
        ]));
        let f = field("m", ElemKind::Real, 2);
        let flat = flatten_fields(std::slice::from_ref(&rows), std::slice::from_ref(&f)).unwrap();
        assert_eq!(flat.dims, vec![2, 3]);
        assert_eq!(
            flat.segs[0],
            FlatSeg::F32(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        );
        let back = unflatten_fields(&flat, std::slice::from_ref(&f)).unwrap();
        let VmVal::Arr(a) = &back[0] else { panic!() };
        let VmArr::Cells(cells) = &*a.lock() else {
            panic!()
        };
        let VmVal::Arr(row1) = &cells[1] else {
            panic!()
        };
        assert_eq!(*row1.lock(), VmArr::R(vec![4.0, 5.0, 6.0].into()));
    }

    #[test]
    fn ragged_arrays_are_rejected() {
        let rows = VmVal::arr(VmArr::Cells(vec![
            VmVal::arr(VmArr::R(vec![1.0, 2.0].into())),
            VmVal::arr(VmArr::R(vec![3.0].into())),
        ]));
        let f = field("m", ElemKind::Real, 2);
        assert!(flatten_fields(std::slice::from_ref(&rows), std::slice::from_ref(&f)).is_err());
    }

    #[test]
    fn deep_copy_isolates_arrays() {
        let original = VmVal::arr(VmArr::I(vec![1, 2, 3].into()));
        let copy = original.deep_copy(None).unwrap();
        if let (VmVal::Arr(a), VmVal::Arr(b)) = (&original, &copy) {
            *a.lock() = VmArr::I(vec![9].into());
            assert_eq!(*b.lock(), VmArr::I(vec![1, 2, 3].into()));
        } else {
            panic!("expected arrays");
        }
    }

    #[test]
    fn deep_copy_shares_channels() {
        let (o, i) = ensemble_actors::buffered_channel::<VmVal>(1);
        let v = VmVal::ChanOut(o);
        let c = v.deep_copy(None).unwrap();
        let VmVal::ChanOut(o2) = c else { panic!() };
        o2.send_moved(VmVal::I(7)).unwrap();
        assert!(matches!(i.receive().unwrap(), VmVal::I(7)));
    }

    #[test]
    fn int_and_bool_arrays_flatten_to_i32() {
        let b = VmVal::arr(VmArr::B(vec![true, false, true].into()));
        let f = field("flags", ElemKind::Bool, 1);
        let flat = flatten_fields(std::slice::from_ref(&b), std::slice::from_ref(&f)).unwrap();
        assert_eq!(flat.segs[0], FlatSeg::I32(vec![1, 0, 1]));
        let back = unflatten_fields(&flat, std::slice::from_ref(&f)).unwrap();
        let VmVal::Arr(a) = &back[0] else { panic!() };
        assert_eq!(*a.lock(), VmArr::B(vec![true, false, true].into()));
    }

    #[test]
    fn a_copy_send_shares_every_leaf_under_fresh_cells() {
        let row = VmVal::arr(VmArr::R(vec![1.0, 2.0].into()));
        let grid = VmVal::arr(VmArr::Cells(vec![row.clone(), row.clone()]));
        let msg = VmVal::Struct(
            0,
            Arc::new(Mutex::new(vec![
                grid,
                VmVal::arr(VmArr::B(vec![true; 3].into())),
            ])),
        );
        let mut tally = DupTally::default();
        let copy = msg.dup(None, &mut tally).unwrap();
        // The aliased row is shared once per place it appears.
        assert_eq!(
            tally,
            DupTally {
                leaves: 3,
                bytes: 16 + 16 + 3
            }
        );
        assert_eq!(leaf_ptrs(&copy), leaf_ptrs(&msg));
        assert!(cells(&copy)
            .iter()
            .zip(cells(&msg))
            .all(|(a, b)| !Arc::ptr_eq(a, &b)));
    }

    #[test]
    fn a_field_holding_the_wrong_element_kind_is_a_typed_error() {
        let ints = VmVal::arr(VmArr::I(vec![1; 4].into()));
        let e = FlatView::of(
            std::slice::from_ref(&ints),
            &[field("x", ElemKind::Real, 1)],
        )
        .unwrap_err();
        assert_eq!(
            &*e.message,
            "field `x` is declared Real [] but holds integer []"
        );
        let reals = VmVal::arr(VmArr::R(vec![1.0; 4].into()));
        let e = flatten_fields(
            std::slice::from_ref(&reals),
            &[field("k", ElemKind::Int, 1)],
        )
        .unwrap_err();
        assert_eq!(
            &*e.message,
            "field `k` is declared Int [] but holds real []"
        );
    }

    /// The pre-CoW duplicate: every leaf copied at the send. The reference
    /// the shared-leaf `dup` must be indistinguishable from.
    fn eager_deep_copy(v: &VmVal) -> VmVal {
        let all = |vals: &[VmVal]| vals.iter().map(eager_deep_copy).collect::<Vec<_>>();
        match v {
            VmVal::Arr(a) => VmVal::arr(match &*a.lock() {
                VmArr::I(v) => VmArr::I(Arc::new(v.to_vec())),
                VmArr::R(v) => VmArr::R(Arc::new(v.to_vec())),
                VmArr::B(v) => VmArr::B(Arc::new(v.to_vec())),
                VmArr::Cells(v) => VmArr::Cells(all(v)),
            }),
            VmVal::Struct(id, f) => VmVal::Struct(*id, Arc::new(Mutex::new(all(&f.lock())))),
            VmVal::MovStruct(id, state) => {
                let guard = state.lock();
                let MovState::Host(f) = &*guard else {
                    panic!("the oracle only sees host values")
                };
                VmVal::MovStruct(*id, Arc::new(Mutex::new(MovState::Host(all(f)))))
            }
            other => other.clone(),
        }
    }

    /// The identity cell of every typed leaf reachable from `v`, in
    /// flattening order (an aliased array appears once per place).
    fn cells(v: &VmVal) -> Vec<Arc<Mutex<VmArr>>> {
        fn go(v: &VmVal, out: &mut Vec<Arc<Mutex<VmArr>>>) {
            match v {
                VmVal::Arr(a) => match &*a.lock() {
                    VmArr::Cells(c) => c.iter().for_each(|x| go(x, out)),
                    _ => out.push(Arc::clone(a)),
                },
                VmVal::Struct(_, f) => f.lock().iter().for_each(|x| go(x, out)),
                VmVal::MovStruct(_, state) => match &*state.lock() {
                    MovState::Host(f) => f.iter().for_each(|x| go(x, out)),
                    MovState::Device { .. } => panic!("host values only"),
                },
                _ => {}
            }
        }
        let mut out = Vec::new();
        go(v, &mut out);
        out
    }

    /// Address and holder count of a leaf's shared storage.
    fn leaf_ptr(cell: &Mutex<VmArr>) -> (usize, usize) {
        match &*cell.lock() {
            VmArr::I(v) => (Arc::as_ptr(v) as usize, Arc::strong_count(v)),
            VmArr::R(v) => (Arc::as_ptr(v) as usize, Arc::strong_count(v)),
            VmArr::B(v) => (Arc::as_ptr(v) as usize, Arc::strong_count(v)),
            VmArr::Cells(_) => unreachable!("`cells` returns leaves"),
        }
    }

    fn leaf_ptrs(v: &VmVal) -> Vec<usize> {
        cells(v).iter().map(|c| leaf_ptr(c).0).collect()
    }

    /// Everything host code can read from `v`: each leaf's `lengthof` and
    /// elements (so also its `checksum`), in order.
    fn reads(v: &VmVal) -> Vec<String> {
        cells(v)
            .iter()
            .map(|c| match &*c.lock() {
                VmArr::I(v) => format!("{} {v:?}", v.len()),
                VmArr::R(v) => format!("{} {v:?}", v.len()),
                VmArr::B(v) => format!("{} {v:?}", v.len()),
                VmArr::Cells(_) => unreachable!("`cells` returns leaves"),
            })
            .collect()
    }

    /// One actor pair's heaps: what the sender holds, and what each of its
    /// copy sends delivered (`sent[k]` = sender index of `received[k]`).
    #[derive(Default)]
    struct World {
        sender: Vec<VmVal>,
        received: Vec<VmVal>,
        sent: Vec<usize>,
    }

    impl World {
        /// Apply op `code` (operands drawn from `a`, `b`); `dup` is how a
        /// copy send duplicates in this world. Returns the leaf cell a
        /// write went to, if the op was a write that found one.
        fn apply(
            &mut self,
            (code, a, b): (u8, usize, usize),
            dup: impl Fn(&VmVal) -> VmVal,
            stats: Option<&DupStats>,
        ) -> Option<Arc<Mutex<VmArr>>> {
            let pick = |pool: &[VmVal], i: usize| pool[i % pool.len()].clone();
            match code {
                // New leaves of each kind.
                0 => self
                    .sender
                    .push(VmVal::arr(VmArr::R(vec![a as f64; 1 + b % 5].into()))),
                1 => self
                    .sender
                    .push(VmVal::arr(VmArr::I(vec![a as i64; b % 4].into()))),
                2 => self
                    .sender
                    .push(VmVal::arr(VmArr::B(vec![a % 2 == 0; 1 + b % 3].into()))),
                _ if self.sender.is_empty() => {}
                // Alias: the same identity, twice in the heap.
                3 => self.sender.push(pick(&self.sender, a)),
                // Nest under `Cells` / a struct / a host-side `mov` struct.
                4 => {
                    let parts = vec![pick(&self.sender, a), pick(&self.sender, b)];
                    self.sender.push(VmVal::arr(VmArr::Cells(parts)));
                }
                5 | 6 => {
                    let parts = vec![pick(&self.sender, a), pick(&self.sender, b)];
                    self.sender.push(if code == 5 {
                        VmVal::Struct(0, Arc::new(Mutex::new(parts)))
                    } else {
                        VmVal::MovStruct(0, Arc::new(Mutex::new(MovState::Host(parts))))
                    });
                }
                // Copy send.
                7 | 8 => {
                    let i = a % self.sender.len();
                    self.received.push(dup(&self.sender[i]));
                    self.sent.push(i);
                }
                // Write on the sender side / on the receiver side.
                _ => {
                    let pool = if code % 2 == 1 {
                        &self.sender
                    } else {
                        &self.received
                    };
                    if pool.is_empty() {
                        return None;
                    }
                    let leaves = cells(&pool[a % pool.len()]);
                    let cell = leaves.get(b % leaves.len().max(1))?;
                    let len = cell.lock().len();
                    if len == 0 {
                        return None;
                    }
                    cell.lock()
                        .store(b % len, VmVal::I(a as i64 + 1), stats)
                        .unwrap();
                    return Some(Arc::clone(cell));
                }
            }
            None
        }

        fn all_reads(&self) -> Vec<Vec<String>> {
            self.sender
                .iter()
                .chain(&self.received)
                .map(reads)
                .collect()
        }

        /// Per send, per leaf place: do sender and receiver share storage?
        fn sharing(&self) -> Vec<Vec<bool>> {
            self.sent
                .iter()
                .zip(&self.received)
                .map(|(&i, got)| {
                    let (a, b) = (leaf_ptrs(&self.sender[i]), leaf_ptrs(got));
                    a.iter().zip(&b).map(|(x, y)| x == y).collect()
                })
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Shared-leaf sends against the eager reference, over random
        /// programs of aliasing, nesting, copy sends and writes on both
        /// sides: every read agrees after every op (so no write is ever
        /// visible across a send), leaves are shared right after a send,
        /// and a write un-shares exactly the leaf it went to — copying it
        /// only when someone else still held it.
        #[test]
        fn shared_leaf_sends_are_indistinguishable_from_eager_copies(
            draws in proptest::collection::vec(0usize..14 * 64 * 64, 1..60),
        ) {
            let stats = DupStats::default();
            let (mut cow, mut eager) = (World::default(), World::default());
            for draw in draws {
                let op = ((draw % 14) as u8, draw / 14 % 64, draw / (14 * 64));
                let before = cow.sharing();
                let holders = |cell: &Arc<Mutex<VmArr>>| leaf_ptr(cell).1;
                let copied_before = stats.copied_bytes();
                let written = cow.apply(op, |v| v.deep_copy(None).unwrap(), Some(&stats));
                eager.apply(op, eager_deep_copy, None);
                proptest::prop_assert_eq!(cow.all_reads(), eager.all_reads(), "after {:?}", op);

                let after = cow.sharing();
                if let Some(cell) = &written {
                    // The written leaf is now this cell's alone...
                    proptest::prop_assert_eq!(holders(cell), 1);
                    for (k, &i) in cow.sent.iter().enumerate() {
                        let pair = cells(&cow.sender[i]).into_iter().zip(cells(&cow.received[k]));
                        for (place, (s, r)) in pair.enumerate() {
                            let hit = Arc::ptr_eq(&s, cell) || Arc::ptr_eq(&r, cell);
                            // ...and every other place shares as it did.
                            let expect = !hit && before[k][place];
                            proptest::prop_assert_eq!(after[k][place], expect, "send {} place {}", k, place);
                        }
                    }
                } else if after.len() > before.len() {
                    let fresh = after.last().expect("a send just happened");
                    proptest::prop_assert!(fresh.iter().all(|&shared| shared), "{:?}", fresh);
                    proptest::prop_assert_eq!(&after[..before.len()], &before[..]);
                } else {
                    proptest::prop_assert_eq!(after, before);
                }
                // Only a write pays, and only for a leaf still shared.
                let paid = stats.copied_bytes() - copied_before;
                proptest::prop_assert!(written.is_some() || paid == 0);
            }
        }

        /// The view converts into a buffer exactly what the materialised
        /// `FlatData` holds, on every run of the fill.
        #[test]
        fn the_view_fills_the_bytes_of_its_materialised_form(
            rows in 1usize..5,
            cols in 0usize..7,
            seed in proptest::any::<i64>(),
        ) {
            let x = |k: usize| seed.wrapping_mul(k as i64 + 3) >> 7;
            let grid = VmVal::arr(VmArr::Cells(
                (0..rows)
                    .map(|r| {
                        let row: Vec<f64> = (0..cols).map(|c| x(r * cols + c) as f64 * 0.37).collect();
                        VmVal::arr(VmArr::R(row.into()))
                    })
                    .collect(),
            ));
            let ints = VmVal::arr(VmArr::I((0..cols).map(x).collect::<Vec<_>>().into()));
            let flags = VmVal::arr(VmArr::B((0..rows).map(|r| x(r) % 2 == 0).collect::<Vec<_>>().into()));
            let fields = [
                field("grid", ElemKind::Real, 2),
                field("ints", ElemKind::Int, 1),
                field("flags", ElemKind::Bool, 1),
            ];
            let view = FlatView::of(&[grid, ints, flags], &fields).unwrap();
            let flat = view.materialise();
            proptest::prop_assert_eq!(FlatSource::dims(&view), &flat.dims[..]);
            proptest::prop_assert_eq!(view.seg_count(), flat.segs.len());
            for (idx, seg) in flat.segs.iter().enumerate() {
                proptest::prop_assert_eq!(view.seg_shape(idx), (seg.ty(), seg.len()));
                let mut raw = vec![0xAAu8; seg.byte_len()];
                for _ in 0..2 {
                    view.fill(idx, &mut raw);
                    proptest::prop_assert_eq!(&raw, &seg.to_bytes());
                }
            }
        }
    }
}
