//! The device-memory accountant: cross-tenant accounting plus eviction
//! of idle resident `mov` buffers under pressure.
//!
//! Each tenant session runs against *private* per-device contexts, so
//! the simulator's own per-context budget cannot see the pool-level
//! picture (N tenants × one physical device). The [`DevicePool`]
//! implements [`oclsim::MemObserver`]: every allocation of an attached
//! context consults it first, and every release reports back, giving the
//! pool an exact per-device byte count across all tenants.
//!
//! When an allocation would push a device past the **soft watermark**,
//! the pool walks its eviction registry — `mov` values the VM reported
//! as device-resident via [`ensemble_vm::VmRuntime::set_resident_hook`] —
//! and forces idle ones back to host memory (oldest first) until the
//! allocation fits or no candidates remain. Eviction is transparent to
//! the owning program: the kernel-actor protocol re-uploads the
//! byte-identical flattened data on the value's next touch. Values whose
//! state lock is held (a dispatch in flight) are skipped, never awaited,
//! so the evictor cannot deadlock against the VM.

use ensemble_vm::EvictableMov;
use oclsim::{ClResult, MemObserver};
use parking_lot::Mutex;
use std::collections::HashMap;
use trace::{SpanKind, TraceEvent, TraceSink};

/// One registered eviction candidate.
struct Candidate {
    tenant: u64,
    handle: EvictableMov,
}

#[derive(Default)]
struct PoolState {
    /// Device id → bytes currently allocated across every attached
    /// tenant context.
    used: HashMap<usize, usize>,
    /// Eviction registry in registration order (oldest first).
    candidates: Vec<Candidate>,
    /// Total evictions performed (for the bench and tests).
    evictions: u64,
}

/// The cross-tenant device-memory accountant (see module docs).
pub struct DevicePool {
    watermark: usize,
    state: Mutex<PoolState>,
    trace: Mutex<TraceSink>,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("watermark", &self.watermark)
            .field("used", &self.state.lock().used)
            .finish()
    }
}

impl DevicePool {
    /// A pool with a soft per-device watermark of `watermark_bytes`.
    pub fn new(watermark_bytes: usize) -> DevicePool {
        DevicePool {
            watermark: watermark_bytes,
            state: Mutex::new(PoolState::default()),
            trace: Mutex::new(TraceSink::disabled()),
        }
    }

    /// Record `Evict` instants into `sink` (wall clock).
    pub fn set_trace(&self, sink: TraceSink) {
        *self.trace.lock() = sink;
    }

    /// The soft per-device watermark.
    pub fn watermark_bytes(&self) -> usize {
        self.watermark
    }

    /// Bytes currently resident on `device_id` across all tenants.
    pub fn used_bytes(&self, device_id: usize) -> usize {
        self.state.lock().used.get(&device_id).copied().unwrap_or(0)
    }

    /// Bytes resident on the most-loaded device (the admission-control
    /// pressure signal).
    pub fn max_device_used(&self) -> usize {
        self.state
            .lock()
            .used
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total bytes resident across every device.
    pub fn total_used(&self) -> usize {
        self.state.lock().used.values().sum()
    }

    /// Evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.state.lock().evictions
    }

    /// Register a device-resident `mov` value of `tenant` as an eviction
    /// candidate (deduplicated by value identity). Sessions with fault
    /// injection attached never register — reading a chaotic tenant's
    /// buffers back on the evictor's thread could fire that tenant's
    /// injected kills outside its supervision tree.
    pub fn register(&self, tenant: u64, handle: EvictableMov) {
        let mut st = self.state.lock();
        if st.candidates.iter().any(|c| c.handle.same_value(&handle)) {
            return;
        }
        st.candidates.push(Candidate { tenant, handle });
    }

    /// Tear down `tenant`'s footprint: force each of its registered
    /// values back to host (releasing the device bytes through the
    /// owning context) and drop them from the registry. Called by the
    /// session on teardown; after it, the tenant holds zero accountable
    /// device bytes. Returns the bytes reclaimed.
    pub fn release_tenant(&self, tenant: u64) -> usize {
        let mine: Vec<EvictableMov> = {
            let mut st = self.state.lock();
            let mut mine = Vec::new();
            st.candidates.retain(|c| {
                if c.tenant == tenant {
                    mine.push(c.handle.clone());
                    false
                } else {
                    true
                }
            });
            mine
        };
        let mut reclaimed = 0usize;
        for h in mine {
            // At teardown the VM has joined: the state locks are free and
            // the read-back releases the bytes through the context, which
            // reports back via `did_release`.
            if let Ok(Some(bytes)) = h.try_evict() {
                reclaimed += bytes;
            }
        }
        reclaimed
    }

    /// Free at least `deficit` bytes on `device_id` by evicting idle
    /// registered values, oldest first. Runs **without** the pool lock
    /// held: each eviction's read-back re-enters the accountant through
    /// `did_release`.
    fn evict_for(&self, device_id: usize, deficit: usize) {
        let candidates: Vec<EvictableMov> = self
            .state
            .lock()
            .candidates
            .iter()
            .map(|c| c.handle.clone())
            .collect();
        let mut freed = 0usize;
        for h in candidates {
            if freed >= deficit {
                break;
            }
            if h.device_id() != Some(device_id) {
                continue;
            }
            if let Ok(Some(bytes)) = h.try_evict() {
                freed += bytes;
                self.state.lock().evictions += 1;
                let t = self.trace.lock().clone();
                if t.is_enabled() {
                    t.record(
                        TraceEvent::instant(SpanKind::Evict, "evict", "serve", t.wall_ns())
                            .with_arg("device", device_id)
                            .with_arg("bytes", bytes)
                            .with_arg("clock", "wall"),
                    );
                }
            }
        }
        // Evicted-to-host values stay registered: they re-register (as a
        // dedup no-op via the resident hook) when next uploaded, and
        // their `device_id()` reports `None` meanwhile, so stale entries
        // cost one skip each.
    }
}

impl MemObserver for DevicePool {
    fn will_allocate(&self, device_id: usize, bytes: usize) -> ClResult<()> {
        let used = self.used_bytes(device_id);
        if used + bytes > self.watermark {
            let deficit = used + bytes - self.watermark;
            self.evict_for(device_id, deficit);
        }
        // The watermark is *soft*: past it (nothing evictable left) the
        // pool lets the allocation through and co-located tenants thrash
        // rather than fail — the *hard* limits are the per-context device
        // budget and the server's admission overload check.
        *self.state.lock().used.entry(device_id).or_insert(0) += bytes;
        Ok(())
    }

    fn did_release(&self, device_id: usize, bytes: usize) {
        let mut st = self.state.lock();
        if let Some(u) = st.used.get_mut(&device_id) {
            *u = u.saturating_sub(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_allocate_and_release() {
        let pool = DevicePool::new(1000);
        pool.will_allocate(3, 400).unwrap();
        pool.will_allocate(3, 100).unwrap();
        pool.will_allocate(4, 50).unwrap();
        assert_eq!(pool.used_bytes(3), 500);
        assert_eq!(pool.total_used(), 550);
        assert_eq!(pool.max_device_used(), 500);
        pool.did_release(3, 400);
        assert_eq!(pool.used_bytes(3), 100);
        pool.did_release(3, 1000); // over-release saturates at zero
        assert_eq!(pool.used_bytes(3), 0);
    }

    #[test]
    fn soft_watermark_admits_when_nothing_is_evictable() {
        let pool = DevicePool::new(100);
        pool.will_allocate(0, 90).unwrap();
        // Past the watermark with an empty registry: still admitted.
        pool.will_allocate(0, 90).unwrap();
        assert_eq!(pool.used_bytes(0), 180);
        assert_eq!(pool.evictions(), 0);
    }
}
