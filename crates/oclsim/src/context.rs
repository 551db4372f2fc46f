//! Contexts, mirroring `cl_context`.

use crate::arbiter::{MemObserver, ObserverSlot};
use crate::buffer::{Buffer, MemFlags};
use crate::device::Device;
use crate::error::{ClError, ClResult};
use crate::fault::{FaultInjector, FaultOp};
use crate::program::BuildCache;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_CTX_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct ContextInner {
    id: u64,
    devices: Vec<Device>,
    mem_budget: usize,
    allocated: Mutex<usize>,
    /// Optional fault source of the device lane: consulted by
    /// `Program::build` and by every command of every queue on this
    /// context (see [`crate::fault`]).
    faults: Mutex<FaultInjector>,
    /// Optional pool-level accountant consulted around every allocation
    /// and release (see [`crate::arbiter::MemObserver`]).
    observer: ObserverSlot,
    /// What [`crate::Program::build`] consults before it compiles.
    builds: Arc<BuildCache>,
}

/// An umbrella structure holding the devices in use plus the runtime
/// software constructs (buffers, programs) created against them (§2.1).
///
/// Cloning shares the context (reference counted).
#[derive(Debug, Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Context {
    /// Create a context over one or more devices.
    ///
    /// The context's allocation budget is the smallest global memory of its
    /// devices (a buffer must fit on every device of the context). Its
    /// [`BuildCache`] is its own and starts empty.
    pub fn new(devices: &[Device]) -> ClResult<Context> {
        Context::with_build_cache(devices, Arc::default())
    }

    /// [`Context::new`] over a shared [`BuildCache`]: a source built on
    /// any context of the cache is not compiled or lowered again here.
    /// The device matrix hands its one cache to every context it opens.
    pub fn with_build_cache(devices: &[Device], builds: Arc<BuildCache>) -> ClResult<Context> {
        if devices.is_empty() {
            return Err(ClError::Internal(
                "a context requires at least one device".to_string(),
            ));
        }
        let mem_budget = devices
            .iter()
            .map(|d| d.global_mem_size())
            .min()
            .unwrap_or(0);
        Ok(Context {
            inner: Arc::new(ContextInner {
                id: NEXT_CTX_ID.fetch_add(1, Ordering::Relaxed),
                devices: devices.to_vec(),
                mem_budget,
                allocated: Mutex::new(0),
                faults: Mutex::new(FaultInjector::disabled()),
                observer: ObserverSlot::default(),
                builds,
            }),
        })
    }

    /// Attach a pool-level memory observer: every subsequent
    /// [`Context::create_buffer`] first consults it (the observer may
    /// evict idle buffers elsewhere, or veto the allocation), and every
    /// [`Context::release_bytes`] reports back. All clones share the
    /// attachment; pass `None` to detach.
    ///
    /// The observer sees the context's **first device's** id — the
    /// serving layer only attaches observers to single-device contexts
    /// (one context per tenant per device), where that is *the* device.
    pub fn set_mem_observer(&self, observer: Option<Arc<dyn MemObserver>>) {
        self.inner.observer.set(observer);
    }

    /// Attach a fault injector to the device lane this context serves:
    /// every subsequent [`crate::Program::build`] against the context, and
    /// every upload, read-back and kernel dispatch on a
    /// [`crate::CommandQueue`] over it, first consults the injector and
    /// may fail with a scheduled [`ClError`] (see [`crate::fault`]). This
    /// is the lane's only fault attachment. All clones of the context
    /// share it. Pass [`FaultInjector::disabled`] to detach.
    pub fn attach_faults(&self, injector: FaultInjector) {
        *self.inner.faults.lock() = injector;
    }

    /// The attached injector, cloned out of the lock (a cheap `Arc`
    /// handle) so no check runs under it: an injected hang stalls inside
    /// the check.
    pub(crate) fn faults(&self) -> FaultInjector {
        self.inner.faults.lock().clone()
    }

    /// The build cache [`crate::Program::build`] consults.
    pub fn build_cache(&self) -> &Arc<BuildCache> {
        &self.inner.builds
    }

    /// Consult the attached injector for a build-time fault (no-op when
    /// none is attached), stamping it at `now_ns`. Called by
    /// [`crate::Program::build`] once per build, cache hit or miss.
    pub(crate) fn build_fault_check(&self, now_ns: f64) -> ClResult<()> {
        let injector = self.faults();
        let device = self
            .inner
            .devices
            .first()
            .map(|d| d.name().to_string())
            .unwrap_or_default();
        injector.check(FaultOp::Build, &device, now_ns)
    }

    /// Process-unique context id.
    ///
    /// The Ensemble runtime uses this to decide whether device-resident data
    /// can stay on the device when it moves between kernel actors (§6.2.3:
    /// OpenCL moves data between devices of one context, but not across
    /// contexts).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Devices of this context.
    pub fn devices(&self) -> &[Device] {
        &self.inner.devices
    }

    /// True when `device` belongs to this context.
    pub fn has_device(&self, device: &Device) -> bool {
        self.inner.devices.iter().any(|d| d.id() == device.id())
    }

    /// Allocate a device buffer of `bytes` bytes, mirroring
    /// `clCreateBuffer`.
    pub fn create_buffer(&self, flags: MemFlags, bytes: usize) -> ClResult<Buffer> {
        // Consult the pool accountant *before* taking this context's own
        // allocation lock: the observer may evict (which releases bytes
        // through other contexts — or even this one), so it must never
        // run under our lock.
        if let Some(obs) = self.inner.observer.get() {
            obs.will_allocate(self.device_id(), bytes)?;
        }
        let mut allocated = self.inner.allocated.lock();
        if *allocated + bytes > self.inner.mem_budget {
            return Err(ClError::OutOfDeviceMemory {
                requested: bytes,
                available: self.inner.mem_budget - *allocated,
            });
        }
        *allocated += bytes;
        Ok(Buffer::new(self.inner.id, flags, bytes))
    }

    /// Bytes currently allocated (for tests and the memory-pressure bench).
    pub fn allocated_bytes(&self) -> usize {
        *self.inner.allocated.lock()
    }

    /// Return `bytes` to the allocator. Called by the higher layers when a
    /// buffer is dropped; the simulator keeps this explicit rather than
    /// hooking `Drop` so that accounting stays deterministic under clones.
    pub fn release_bytes(&self, bytes: usize) {
        {
            let mut allocated = self.inner.allocated.lock();
            *allocated = allocated.saturating_sub(bytes);
        }
        if let Some(obs) = self.inner.observer.get() {
            obs.did_release(self.device_id(), bytes);
        }
    }

    /// The id of this context's first device (the device the pool
    /// accountant books against; serving contexts are single-device).
    fn device_id(&self) -> usize {
        self.inner.devices.first().map(|d| d.id()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn context_over_gpu_and_cpu() {
        let p = &Platform::all()[0];
        let ctx = Context::new(&p.devices(None)).unwrap();
        assert_eq!(ctx.devices().len(), 2);
    }

    #[test]
    fn empty_device_list_is_rejected() {
        assert!(Context::new(&[]).is_err());
    }

    #[test]
    fn allocation_accounting() {
        let p = &Platform::all()[0];
        let ctx = Context::new(&p.devices(None)).unwrap();
        let _b = ctx.create_buffer(MemFlags::ReadWrite, 1024).unwrap();
        assert_eq!(ctx.allocated_bytes(), 1024);
        ctx.release_bytes(1024);
        assert_eq!(ctx.allocated_bytes(), 0);
    }

    #[test]
    fn over_allocation_fails_like_opencl() {
        let p = &Platform::all()[0];
        let ctx = Context::new(&p.devices(None)).unwrap();
        let err = ctx
            .create_buffer(MemFlags::ReadWrite, usize::MAX / 2)
            .unwrap_err();
        assert!(matches!(err, ClError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn ids_are_unique_across_contexts() {
        let p = &Platform::all()[0];
        let a = Context::new(&p.devices(None)).unwrap();
        let b = Context::new(&p.devices(None)).unwrap();
        assert_ne!(a.id(), b.id());
    }
}
