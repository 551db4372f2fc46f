//! Device memory objects, mirroring `cl_mem`.

use crate::error::{ClError, ClResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

// Test-only accounting of host-visible byte copies made by buffer reads
// and byte-slice writes, so the copy-elimination in the transfer hot paths
// stays eliminated. Thread-local: each test thread observes only its own
// copies.
#[cfg(test)]
thread_local! {
    static BYTES_COPIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes copied out of or into buffers on this thread since process start
/// (test-only; used to assert the single-copy property of transfers).
#[cfg(test)]
pub(crate) fn bytes_copied() -> u64 {
    BYTES_COPIED.with(|c| c.get())
}

#[cfg(test)]
pub(crate) fn count_copied(n: usize) {
    BYTES_COPIED.with(|c| c.set(c.get() + n as u64));
}

#[cfg(not(test))]
pub(crate) fn count_copied(_n: usize) {}

/// FNV-1a 64-bit checksum — the provenance fingerprint recorded for every
/// guarded upload and verified at readback / dispatch seams. Cheap, seedless,
/// and deterministic; a single flipped bit always changes the digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Provenance of a buffer's last known-good contents: the checksum that
/// verification compares against, plus a host shadow copy — the "last
/// checkpoint" that integrity recovery restores from before asking the
/// caller to recompute.
#[derive(Debug)]
pub(crate) struct Provenance {
    pub(crate) checksum: u64,
    pub(crate) shadow: Vec<u8>,
}

/// Buffer access flags, mirroring `CL_MEM_READ_WRITE` and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFlags {
    /// Kernels may read and write.
    ReadWrite,
    /// Kernels may only read (writes trap).
    ReadOnly,
    /// Kernels may only write (host-read still allowed, as in OpenCL).
    WriteOnly,
}

#[derive(Debug)]
pub(crate) struct BufferInner {
    pub(crate) id: u64,
    pub(crate) ctx_id: u64,
    pub(crate) flags: MemFlags,
    pub(crate) len: usize,
    pub(crate) data: Mutex<Vec<u8>>,
    /// True while a dispatch on some queue has checked the bytes out. Reads
    /// during that window are the race the paper hit with multiple command
    /// queues per device; the simulator surfaces it as an error instead of
    /// returning garbage.
    pub(crate) checked_out: AtomicBool,
    /// Last known-good checksum + host shadow. `None` until a queue with an
    /// armed integrity layer records one; plain runs never touch it, so the
    /// fault-free hot path stays shadow-free.
    pub(crate) provenance: Mutex<Option<Provenance>>,
}

/// A device memory buffer.
///
/// Cloning is cheap (reference count); the backing store is freed when the
/// last clone drops, mirroring `clReleaseMemObject` semantics.
#[derive(Debug, Clone)]
pub struct Buffer {
    pub(crate) inner: Arc<BufferInner>,
}

impl Buffer {
    pub(crate) fn new(ctx_id: u64, flags: MemFlags, len: usize) -> Buffer {
        Buffer {
            inner: Arc::new(BufferInner {
                id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
                ctx_id,
                flags,
                len,
                data: Mutex::new(vec![0u8; len]),
                checked_out: AtomicBool::new(false),
                provenance: Mutex::new(None),
            }),
        }
    }

    /// Size of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the buffer has zero size.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Access flags the buffer was created with.
    pub fn flags(&self) -> MemFlags {
        self.inner.flags
    }

    /// Process-unique id (used for aliasing detection during dispatch).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Id of the owning context.
    pub fn context_id(&self) -> u64 {
        self.inner.ctx_id
    }

    /// True while some queue's dispatch has the bytes checked out.
    pub fn is_busy(&self) -> bool {
        self.inner.checked_out.load(Ordering::Acquire)
    }

    /// Take the bytes out for a dispatch. Fails when another queue already
    /// holds them — the multi-queue race from §6.2.1 of the paper.
    pub(crate) fn check_out(&self) -> ClResult<Vec<u8>> {
        if self.inner.checked_out.swap(true, Ordering::AcqRel) {
            return Err(ClError::InvalidBufferAccess(format!(
                "buffer {} is busy on another command queue",
                self.inner.id
            )));
        }
        Ok(std::mem::take(&mut *self.inner.data.lock()))
    }

    /// Return the bytes after a dispatch.
    pub(crate) fn check_in(&self, bytes: Vec<u8>) {
        *self.inner.data.lock() = bytes;
        self.inner.checked_out.store(false, Ordering::Release);
    }

    /// Host-side copy of the buffer contents. The queue read paths use
    /// [`Buffer::read_into`] / [`Buffer::with_bytes`] instead — this
    /// allocating form survives only as a test convenience.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> ClResult<Vec<u8>> {
        if self.is_busy() {
            return Err(ClError::InvalidBufferAccess(format!(
                "read of buffer {} raced a dispatch on another queue",
                self.inner.id
            )));
        }
        let data = self.inner.data.lock();
        count_copied(data.len());
        Ok(data.clone())
    }

    /// Copy the buffer contents directly into `out` under the data lock —
    /// exactly one copy, no intermediate allocation. `out` must be exactly
    /// the buffer's size.
    pub(crate) fn read_into(&self, out: &mut [u8]) -> ClResult<()> {
        if self.is_busy() {
            return Err(ClError::InvalidBufferAccess(format!(
                "read of buffer {} raced a dispatch on another queue",
                self.inner.id
            )));
        }
        if out.len() != self.inner.len {
            return Err(ClError::InvalidBufferAccess(format!(
                "read of {} bytes from a buffer of {} bytes",
                out.len(),
                self.inner.len
            )));
        }
        out.copy_from_slice(&self.inner.data.lock());
        count_copied(out.len());
        Ok(())
    }

    /// Run `f` over the buffer contents under the data lock — zero byte
    /// copies; conversions (e.g. bytes → `f32`s) happen in place.
    pub(crate) fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> ClResult<R> {
        if self.is_busy() {
            return Err(ClError::InvalidBufferAccess(format!(
                "read of buffer {} raced a dispatch on another queue",
                self.inner.id
            )));
        }
        Ok(f(&self.inner.data.lock()))
    }

    /// Host-side write of the buffer's first `len` bytes (used by queue
    /// writes): `fill` runs over them under the data lock, so a typed
    /// write converts its elements straight into the storage.
    pub(crate) fn write_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> ClResult<()> {
        if self.is_busy() {
            return Err(ClError::InvalidBufferAccess(format!(
                "write to buffer {} raced a dispatch on another queue",
                self.inner.id
            )));
        }
        if len > self.inner.len {
            return Err(ClError::InvalidBufferAccess(format!(
                "write of {len} bytes at offset 0 exceeds buffer size {}",
                self.inner.len
            )));
        }
        fill(&mut self.inner.data.lock()[..len]);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Provenance (silent-corruption defense). Only queues with an armed
    // integrity layer call these; plain runs never allocate a shadow.
    // ---------------------------------------------------------------

    /// Record the current device bytes as the buffer's last known-good
    /// contents: checksum + host shadow copy.
    pub(crate) fn record_provenance(&self) {
        let data = self.inner.data.lock();
        *self.inner.provenance.lock() = Some(Provenance {
            checksum: fnv1a64(&data),
            shadow: data.clone(),
        });
    }

    /// Checksum recorded in the provenance, if any.
    pub(crate) fn provenance_checksum(&self) -> Option<u64> {
        self.inner.provenance.lock().as_ref().map(|p| p.checksum)
    }

    /// Verify the device bytes against the recorded provenance. Returns
    /// `None` when no provenance is recorded or the checksum matches;
    /// `Some((expected, actual))` on a mismatch.
    pub(crate) fn verify_provenance(&self) -> Option<(u64, u64)> {
        let prov = self.inner.provenance.lock();
        let p = prov.as_ref()?;
        let actual = fnv1a64(&self.inner.data.lock());
        (actual != p.checksum).then_some((p.checksum, actual))
    }

    /// Restore the device bytes from the provenance shadow (invalidate
    /// and fall back to the last checkpoint). Returns the number of
    /// bytes restored, or `None` when no provenance is recorded.
    pub(crate) fn restore_from_provenance(&self) -> Option<usize> {
        let prov = self.inner.provenance.lock();
        let p = prov.as_ref()?;
        let mut data = self.inner.data.lock();
        data.copy_from_slice(&p.shadow);
        Some(p.shadow.len())
    }

    /// Flip one bit of the device bytes (the corruption injector's write
    /// path — deliberately bypasses provenance so the flip is silent).
    pub(crate) fn flip_bit(&self, bit: u64) {
        let mut data = self.inner.data.lock();
        if data.is_empty() {
            return;
        }
        let nbits = data.len() as u64 * 8;
        let b = bit % nbits;
        data[(b / 8) as usize] ^= 1 << (b % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_zeroed() {
        let b = Buffer::new(1, MemFlags::ReadWrite, 8);
        assert_eq!(b.snapshot().unwrap(), vec![0u8; 8]);
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
    }

    #[test]
    fn write_with_respects_bounds() {
        let b = Buffer::new(1, MemFlags::ReadWrite, 4);
        assert!(b.write_with(4, |d| d.copy_from_slice(&[1, 2, 3, 4])).is_ok());
        assert!(b.write_with(5, |_| panic!("must not run")).is_err());
        // A shorter write leaves the tail alone.
        assert!(b.write_with(2, |d| d.copy_from_slice(&[9, 9])).is_ok());
        assert_eq!(b.snapshot().unwrap(), vec![9, 9, 3, 4]);
    }

    #[test]
    fn checkout_conflict_mirrors_multiqueue_race() {
        let b = Buffer::new(1, MemFlags::ReadWrite, 4);
        let taken = b.check_out().unwrap();
        // A second queue arriving now sees the race.
        assert!(b.check_out().is_err());
        assert!(b.snapshot().is_err());
        b.check_in(taken);
        assert!(b.snapshot().is_ok());
    }

    #[test]
    fn provenance_detects_and_restores_a_flipped_bit() {
        let b = Buffer::new(1, MemFlags::ReadWrite, 4);
        b.write_with(4, |d| d.copy_from_slice(&[1, 2, 3, 4])).unwrap();
        assert!(b.verify_provenance().is_none(), "no provenance yet");
        b.record_provenance();
        assert!(b.verify_provenance().is_none(), "clean bytes verify");
        b.flip_bit(13);
        let (expected, actual) = b.verify_provenance().expect("flip must be detected");
        assert_ne!(expected, actual);
        assert_eq!(b.restore_from_provenance(), Some(4));
        assert!(b.verify_provenance().is_none(), "restored bytes verify");
        assert_eq!(b.snapshot().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fnv1a64_is_bit_sensitive() {
        let a = fnv1a64(&[0u8; 16]);
        let mut flipped = [0u8; 16];
        flipped[7] ^= 0x10;
        assert_ne!(a, fnv1a64(&flipped));
    }

    #[test]
    fn ids_are_unique() {
        let a = Buffer::new(1, MemFlags::ReadWrite, 1);
        let b = Buffer::new(1, MemFlags::ReadWrite, 1);
        assert_ne!(a.id(), b.id());
    }
}
