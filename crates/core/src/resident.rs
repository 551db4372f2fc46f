//! Lazy evaluation: device-resident data (§6.2.3).
//!
//! A common OpenCL idiom is to leave data on the device for as long as
//! possible. Plain actor semantics forbid it: every send duplicates. The
//! paper's answer is `mov` channels — and this module is its runtime half:
//! a [`DeviceData`] value either holds a host value or *references buffers
//! that live on a device*. It is deliberately **not `Clone`**, so it can
//! only travel via [`ensemble_actors::Out::send_moved`] — using the type is
//! what "marking the channel mov" is in this reproduction.
//!
//! The two fates the paper describes are both here:
//!
//! 1. The value reaches another OpenCL actor **in the same context** — the
//!    buffers are used as kernel arguments directly; the data never moved.
//! 2. The host touches the value, or it reaches an actor in a **different
//!    context** — the runtime reads the data back (charging the transfer)
//!    and the device memory is released.

use crate::flatten::{FlatData, Flatten, FlattenError};
use crate::profile::ProfileSink;
use crate::recovery::{with_retry, RecoveryPolicy};
use oclsim::{Buffer, ClResult, Context};
use std::marker::PhantomData;

pub use crate::protocol::ResidentBufs;

/// A value that is either on the host or resident on a device.
///
/// Not `Clone` on purpose: Ensemble's `mov` analysis guarantees a moved
/// value has a single owner, and Rust's move semantics provide the same
/// guarantee for free.
#[derive(Debug)]
pub struct DeviceData<T: Flatten> {
    state: State,
    _marker: PhantomData<fn() -> T>,
}

#[derive(Debug)]
enum State {
    Host(FlatData),
    Device(ResidentBufs),
}

impl<T: Flatten> DeviceData<T> {
    /// Wrap a host value.
    pub fn host(value: T) -> DeviceData<T> {
        DeviceData {
            state: State::Host(value.flatten()),
            _marker: PhantomData,
        }
    }

    /// Wrap buffers already resident on a device (used by kernel actors
    /// after a dispatch whose output channel is `mov`).
    pub fn resident(bufs: ResidentBufs) -> DeviceData<T> {
        DeviceData {
            state: State::Device(bufs),
            _marker: PhantomData,
        }
    }

    /// True while the data lives on a device.
    pub fn is_resident(&self) -> bool {
        matches!(self.state, State::Device(_))
    }

    /// Context id of the owning device, when resident.
    pub fn context_id(&self) -> Option<u64> {
        match &self.state {
            State::Device(r) => Some(r.context.id()),
            State::Host(_) => None,
        }
    }

    /// Bytes currently held on a device (0 when on the host).
    pub fn device_bytes(&self) -> usize {
        match &self.state {
            State::Device(r) => r.device_bytes(),
            State::Host(_) => 0,
        }
    }

    /// Force the value to the host — "the data is accessed directly by host
    /// code" (§6.2.3). Reads back and releases device memory if resident.
    pub fn into_host(self) -> Result<T, FlattenError> {
        self.into_host_profiled(None)
    }

    /// Like [`DeviceData::into_host`], charging any forced read-back to
    /// `profile`.
    pub fn into_host_profiled(self, profile: Option<&ProfileSink>) -> Result<T, FlattenError> {
        match self.state {
            State::Host(flat) => T::unflatten(flat),
            State::Device(r) => {
                let flat = r
                    .read_back(profile)
                    .map_err(|e| FlattenError(format!("device read-back failed: {e}")))?;
                T::unflatten(flat)
            }
        }
    }

    /// Resolve for a dispatch targeting `target_ctx`:
    ///
    /// * resident in the **same** context → `Resident` (zero copies);
    /// * resident in a **different** context → read back (charged to
    ///   `profile`) and return `Host` (the paper: "the runtime reads the
    ///   data back from the device and returns the device memory");
    /// * already on the host → `Host`.
    pub fn for_dispatch(
        self,
        target_ctx: &Context,
        profile: Option<&ProfileSink>,
    ) -> ClResult<Dispatchable> {
        match self.state {
            State::Device(r) if r.context.id() == target_ctx.id() => {
                // Resident reuse skips the upload seam, so it carries its
                // own integrity seam: verify every buffer against its
                // recorded provenance before handing it to a kernel. On a
                // mismatch the queue restores the host shadow (the last
                // checkpoint) and charges the repair clock; the bounded
                // re-verify then passes against the restored bytes, so
                // the reuse proceeds with known-good data.
                let seg_bufs: Vec<Buffer> = r.bufs.iter().map(|(b, _)| b.clone()).collect();
                let quiet = ProfileSink::new();
                let p = profile.unwrap_or(&quiet);
                with_retry(
                    &RecoveryPolicy::default(),
                    &r.queue,
                    r.queue.device().name(),
                    p,
                    "resident_verify",
                    || r.queue.verify_integrity(&seg_bufs),
                )?;
                // The mov win made visible: record the moment a dispatch
                // reused resident buffers with zero transfer cost.
                if let Some(p) = profile {
                    let t = p.trace();
                    if t.is_enabled() {
                        t.record(
                            trace::TraceEvent::instant(
                                trace::SpanKind::ResidentReuse,
                                "resident_reuse",
                                r.queue.device().name(),
                                r.queue.now_ns(),
                            )
                            .with_arg("bytes", r.device_bytes()),
                        );
                    }
                }
                Ok(Dispatchable::Resident(r))
            }
            State::Device(r) => Ok(Dispatchable::Host(r.read_back(profile)?)),
            State::Host(flat) => Ok(Dispatchable::Host(flat)),
        }
    }
}

/// The result of resolving a [`DeviceData`] for a dispatch.
#[derive(Debug)]
pub enum Dispatchable {
    /// Buffers usable directly as kernel arguments.
    Resident(ResidentBufs),
    /// Host data that must be uploaded first.
    Host(FlatData),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{DeviceSel, OpenClEnvironment};

    fn upload(env: &OpenClEnvironment, flat: &FlatData) -> ResidentBufs {
        ResidentBufs::upload(env, flat, &RecoveryPolicy::default(), &ProfileSink::new()).unwrap()
    }

    #[test]
    fn host_value_roundtrips() {
        let d = DeviceData::host(vec![1.0f32, 2.0]);
        assert!(!d.is_resident());
        assert_eq!(d.into_host().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn resident_value_reads_back_on_host_access() {
        // A private lane: the accounting delta below is exact only when
        // no parallel test allocates in the same context.
        let env = crate::env::private_gpu_env();
        let flat = vec![5.0f32, 6.0, 7.0].flatten();
        let before = env.context.allocated_bytes();
        let d: DeviceData<Vec<f32>> = DeviceData::resident(upload(&env, &flat));
        assert!(d.is_resident());
        assert_eq!(d.device_bytes(), 12);
        let sink = ProfileSink::new();
        let v = d.into_host_profiled(Some(&sink)).unwrap();
        assert_eq!(v, vec![5.0, 6.0, 7.0]);
        // Read-back was charged and memory accounting returned to baseline.
        assert!(sink.snapshot().from_device_ns > 0.0);
        assert_eq!(env.context.allocated_bytes(), before);
    }

    #[test]
    fn same_context_dispatch_keeps_data_on_device() {
        let env = OpenClEnvironment::resolve(DeviceSel::gpu()).unwrap();
        let flat = vec![1.0f32; 8].flatten();
        let d: DeviceData<Vec<f32>> = DeviceData::resident(upload(&env, &flat));
        let sink = ProfileSink::new();
        match d.for_dispatch(&env.context, Some(&sink)).unwrap() {
            Dispatchable::Resident(r) => {
                assert_eq!(r.bufs.len(), 1);
                r.read_back(None).unwrap();
            }
            Dispatchable::Host(_) => panic!("expected resident reuse"),
        }
        // No transfer was charged for the same-context hop.
        assert_eq!(sink.snapshot().from_device_ns, 0.0);
    }

    #[test]
    fn cross_context_dispatch_forces_read_back() {
        let gpu = OpenClEnvironment::resolve(DeviceSel::gpu()).unwrap();
        let cpu = OpenClEnvironment::resolve(DeviceSel::cpu()).unwrap();
        let flat = vec![2.0f32; 4].flatten();
        let d: DeviceData<Vec<f32>> = DeviceData::resident(upload(&gpu, &flat));
        let sink = ProfileSink::new();
        match d.for_dispatch(&cpu.context, Some(&sink)).unwrap() {
            Dispatchable::Host(f) => assert_eq!(f.segs[0].len(), 4),
            Dispatchable::Resident(_) => panic!("cross-context must read back"),
        }
        assert!(sink.snapshot().from_device_ns > 0.0);
    }

    #[test]
    fn device_data_moves_through_mov_channels() {
        // DeviceData is !Clone, so only send_moved accepts it — the type
        // system enforcing "mov".
        let (o, i) = ensemble_actors::buffered_channel::<DeviceData<Vec<f32>>>(1);
        o.send_moved(DeviceData::host(vec![1.0])).unwrap();
        assert_eq!(i.receive().unwrap().into_host().unwrap(), vec![1.0]);
    }
}
