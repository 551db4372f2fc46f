//! Runtime values of the Ensemble VM.
//!
//! Arrays and structs are heap objects with reference semantics *within*
//! an actor (as in the Ensemble VM, which is a modified JVM); crossing a
//! channel deep-copies them (shared-nothing), unless the type is `mov`, in
//! which case the reference itself travels — including references to data
//! that currently lives **on an OpenCL device** (§6.2.3).

use ensemble_actors::{In, Out};
use ensemble_lang::vmops::{DataField, ElemKind};
use ensemble_ocl::{FlatData, FlatSeg, ProfileSink, ResidentBufs};
use parking_lot::Mutex;
use std::collections::HashMap;
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
#[derive(Debug, Clone)]
pub enum VmArr {
    /// `integer []`.
    I(Vec<i64>),
    /// `real []`.
    R(Vec<f64>),
    /// `boolean []`.
    B(Vec<bool>),
    /// Arrays of arrays (outer dimensions) or of structs.
    Cells(Vec<VmVal>),
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

    /// Deep copy for shared-nothing channel sends. Channels and actor
    /// handles are runtime identities, not data — they are shared.
    /// Device-resident `mov` structs are forced back to the host first
    /// (a non-mov send of mov data re-establishes isolation).
    pub fn deep_copy(&self, profile: Option<&ProfileSink>) -> Result<VmVal, VmError> {
        Ok(match self {
            VmVal::Unit => VmVal::Unit,
            VmVal::I(v) => VmVal::I(*v),
            VmVal::R(v) => VmVal::R(*v),
            VmVal::B(v) => VmVal::B(*v),
            VmVal::S(s) => VmVal::S(Arc::clone(s)),
            VmVal::Arr(a) => {
                let inner = a.lock();
                let copied = match &*inner {
                    VmArr::I(v) => VmArr::I(v.clone()),
                    VmArr::R(v) => VmArr::R(v.clone()),
                    VmArr::B(v) => VmArr::B(v.clone()),
                    VmArr::Cells(v) => VmArr::Cells(
                        v.iter()
                            .map(|x| x.deep_copy(profile))
                            .collect::<Result<_, _>>()?,
                    ),
                };
                VmVal::arr(copied)
            }
            VmVal::Struct(id, fields) => {
                let inner = fields.lock();
                let copied = inner
                    .iter()
                    .map(|x| x.deep_copy(profile))
                    .collect::<Result<_, _>>()?;
                VmVal::Struct(*id, Arc::new(Mutex::new(copied)))
            }
            VmVal::MovStruct(id, state) => {
                let inner = force_host_locked(state, profile)?;
                let MovState::Host(fields) = &*inner else {
                    unreachable!("forced to host above");
                };
                let copied = fields
                    .iter()
                    .map(|x| x.deep_copy(profile))
                    .collect::<Result<_, _>>()?;
                VmVal::MovStruct(*id, Arc::new(Mutex::new(MovState::Host(copied))))
            }
            VmVal::ChanIn(c) => VmVal::ChanIn(Arc::clone(c)),
            VmVal::ChanOut(c) => VmVal::ChanOut(c.clone()),
            VmVal::ActorRef(r) => VmVal::ActorRef(Arc::clone(r)),
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
/// handles `MovState::Host` unconditionally and re-uploads the (byte
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

    /// Device bytes currently held by this value, or 0 when host-resident
    /// **or busy** (the owner holds the lock — counting it as evictable
    /// would invite the evictor to block on a dispatch in progress).
    pub fn resident_bytes(&self) -> usize {
        match self.state.try_lock() {
            Some(guard) => match &*guard {
                MovState::Device { bufs, .. } => bufs.device_bytes(),
                MovState::Host(_) => 0,
            },
            None => 0,
        }
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

/// Flatten a list of field values (each an array) following the fields'
/// declared shapes.
pub fn flatten_fields(vals: &[VmVal], fields: &[DataField]) -> Result<FlatData, VmError> {
    let mut out = FlatData::default();
    for (val, field) in vals.iter().zip(fields) {
        let (seg, dims) = flatten_array(val, field)?;
        out.segs.push(seg);
        out.dims.extend(dims);
    }
    Ok(out)
}

fn flatten_array(val: &VmVal, field: &DataField) -> Result<(FlatSeg, Vec<i32>), VmError> {
    // Walk the nested structure, collecting dims and leaf data.
    let mut dims = Vec::new();
    let mut f32s: Vec<f32> = Vec::new();
    let mut i32s: Vec<i32> = Vec::new();
    walk(val, field, 0, &mut dims, &mut f32s, &mut i32s)?;
    fn walk(
        v: &VmVal,
        field: &DataField,
        depth: usize,
        dims: &mut Vec<i32>,
        f32s: &mut Vec<f32>,
        i32s: &mut Vec<i32>,
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
        match &*inner {
            VmArr::Cells(cells) => {
                for c in cells {
                    walk(c, field, depth + 1, dims, f32s, i32s)?;
                }
            }
            VmArr::R(v) => f32s.extend(v.iter().map(|&x| x as f32)),
            VmArr::I(v) => i32s.extend(v.iter().map(|&x| x as i32)),
            VmArr::B(v) => i32s.extend(v.iter().map(|&x| x as i32)),
        }
        Ok(())
    }
    if dims.len() != field.ndims {
        return Err(VmError::new(format!(
            "field `{}` has {} dims, declared {}",
            field.name,
            dims.len(),
            field.ndims
        )));
    }
    let seg = match field.elem {
        ElemKind::Real => FlatSeg::F32(f32s),
        _ => FlatSeg::I32(i32s),
    };
    Ok((seg, dims))
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
            (FlatSeg::F32(v), _) => {
                VmVal::arr(VmArr::R(v[range].iter().map(|&x| x as f64).collect()))
            }
            (FlatSeg::I32(v), ElemKind::Bool) => {
                VmVal::arr(VmArr::B(v[range].iter().map(|&x| x != 0).collect()))
            }
            (FlatSeg::I32(v), _) => {
                VmVal::arr(VmArr::I(v[range].iter().map(|&x| x as i64).collect()))
            }
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
            VmVal::arr(VmArr::R(vec![1.0, 2.0, 3.0])),
            VmVal::arr(VmArr::R(vec![4.0, 5.0, 6.0])),
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
        assert_eq!(*row1.lock(), VmArr::R(vec![4.0, 5.0, 6.0]));
    }

    #[test]
    fn ragged_arrays_are_rejected() {
        let rows = VmVal::arr(VmArr::Cells(vec![
            VmVal::arr(VmArr::R(vec![1.0, 2.0])),
            VmVal::arr(VmArr::R(vec![3.0])),
        ]));
        let f = field("m", ElemKind::Real, 2);
        assert!(flatten_fields(std::slice::from_ref(&rows), std::slice::from_ref(&f)).is_err());
    }

    #[test]
    fn deep_copy_isolates_arrays() {
        let original = VmVal::arr(VmArr::I(vec![1, 2, 3]));
        let copy = original.deep_copy(None).unwrap();
        if let (VmVal::Arr(a), VmVal::Arr(b)) = (&original, &copy) {
            *a.lock() = VmArr::I(vec![9]);
            assert_eq!(*b.lock(), VmArr::I(vec![1, 2, 3]));
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
        let b = VmVal::arr(VmArr::B(vec![true, false, true]));
        let f = field("flags", ElemKind::Bool, 1);
        let flat = flatten_fields(std::slice::from_ref(&b), std::slice::from_ref(&f)).unwrap();
        assert_eq!(flat.segs[0], FlatSeg::I32(vec![1, 0, 1]));
        let back = unflatten_fields(&flat, std::slice::from_ref(&f)).unwrap();
        let VmVal::Arr(a) = &back[0] else { panic!() };
        assert_eq!(*a.lock(), VmArr::B(vec![true, false, true]));
    }
}
