//! The runtime device matrix and per-actor OpenCL environments (§6.2.1–6.2.2).
//!
//! During initialisation the Ensemble runtime builds a single matrix of the
//! platforms and devices available on the system, with **exactly one
//! context and one command queue per device** — the paper adds this after
//! observing read races with multiple command queues per device. Kernel
//! actors carry an [`OpenClEnvironment`] resolved from this matrix using
//! the `<device_index, device_type>` annotation in their declaration.

use oclsim::{ClError, ClResult, CommandQueue, Context, Device, DeviceType, Platform};
use std::sync::OnceLock;

/// Device selection attached to an `opencl` actor declaration:
/// `opencl <device_index=0, device_type=CPU> actor ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceSel {
    /// Preferred device class; `None` uses the matrix default (first
    /// device), mirroring "if no information is given in the declaration,
    /// default values are used".
    pub device_type: Option<DeviceType>,
    /// Index among the devices of that type.
    pub device_index: usize,
}

impl DeviceSel {
    /// Select the `index`-th device of `ty`.
    pub fn new(ty: DeviceType, index: usize) -> DeviceSel {
        DeviceSel {
            device_type: Some(ty),
            device_index: index,
        }
    }

    /// Select the first GPU.
    pub fn gpu() -> DeviceSel {
        DeviceSel::new(DeviceType::Gpu, 0)
    }

    /// Select the first CPU.
    pub fn cpu() -> DeviceSel {
        DeviceSel::new(DeviceType::Cpu, 0)
    }
}

/// One row of the device matrix: a device with its unique context + queue.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// Platform the device came from.
    pub platform: String,
    /// The device.
    pub device: Device,
    /// The single context for this device.
    pub context: Context,
    /// The single command queue for this device.
    pub queue: CommandQueue,
}

/// The process-wide platforms × devices matrix.
#[derive(Debug)]
pub struct DeviceMatrix {
    entries: Vec<MatrixEntry>,
}

static MATRIX: OnceLock<DeviceMatrix> = OnceLock::new();

/// The process-wide device matrix, built on first use.
pub fn device_matrix() -> &'static DeviceMatrix {
    MATRIX.get_or_init(DeviceMatrix::discover)
}

impl DeviceMatrix {
    fn discover() -> DeviceMatrix {
        let mut entries = Vec::new();
        for platform in Platform::all() {
            for device in platform.devices(None) {
                let context =
                    Context::new(std::slice::from_ref(&device)).expect("context for device");
                let queue = CommandQueue::new(&context, &device).expect("queue for device");
                entries.push(MatrixEntry {
                    platform: platform.name().to_string(),
                    device,
                    context,
                    queue,
                });
            }
        }
        DeviceMatrix { entries }
    }

    /// All matrix entries (platform-major, device-minor order).
    pub fn entries(&self) -> &[MatrixEntry] {
        &self.entries
    }

    /// Resolve a device selection to its matrix entry.
    pub fn select(&self, sel: DeviceSel) -> ClResult<&MatrixEntry> {
        match sel.device_type {
            None => self
                .entries
                .get(sel.device_index)
                .ok_or_else(|| ClError::DeviceNotFound {
                    requested: format!("device #{}", sel.device_index),
                }),
            Some(ty) => self
                .entries
                .iter()
                .filter(|e| e.device.device_type() == ty)
                .nth(sel.device_index)
                .ok_or_else(|| ClError::DeviceNotFound {
                    requested: format!("{ty} #{}", sel.device_index),
                }),
        }
    }

    /// The entry the recovery layer fails over to when `device_id` becomes
    /// unusable: the *next* matrix row, non-wrapping. The matrix is ordered
    /// platform-major with the GPU first, so failover walks the degradation
    /// chain GPU → CPU → accelerator and reports [`ClError::DeviceNotFound`]
    /// once every device has been exhausted.
    pub fn failover_from(&self, device_id: usize) -> ClResult<&MatrixEntry> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.device.id() == device_id)
            .ok_or_else(|| ClError::DeviceNotFound {
                requested: format!("matrix entry for device id {device_id}"),
            })?;
        self.entries
            .get(pos + 1)
            .ok_or_else(|| ClError::DeviceNotFound {
                requested: format!(
                    "failover target after `{}` (device matrix exhausted)",
                    self.entries[pos].device.name()
                ),
            })
    }
}

/// Resolves a kernel actor's `<device_index, device_type>` selection to
/// the [`OpenClEnvironment`] it will dispatch through.
///
/// The VM's default resolver ([`MatrixResolver`]) answers from the
/// process-wide [`DeviceMatrix`] — one shared context + queue per device,
/// exactly the paper's runtime. A multi-tenant serving layer substitutes
/// its own resolver so each tenant session dispatches through *private*
/// per-tenant contexts and queues over the same physical devices: private
/// contexts give every tenant a deterministic virtual clock starting at
/// zero (byte-identical solo vs. contended runs) and a fault-isolation
/// boundary (one tenant's injected chaos can only ever fire on that
/// tenant's own queues).
pub trait ResolveEnv: Send + Sync {
    /// Resolve `sel` to a device environment.
    fn resolve(&self, sel: DeviceSel) -> ClResult<OpenClEnvironment>;
}

/// The default resolver: the process-wide device matrix.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixResolver;

impl ResolveEnv for MatrixResolver {
    fn resolve(&self, sel: DeviceSel) -> ClResult<OpenClEnvironment> {
        OpenClEnvironment::resolve(sel)
    }
}

/// The runtime structure attached to every OpenCL actor (§6.2.2): metadata
/// about the platform, device and device type, plus the relevant command
/// queue and context, populated from the device matrix when the actor is
/// created.
#[derive(Debug, Clone)]
pub struct OpenClEnvironment {
    /// Platform name.
    pub platform: String,
    /// The resolved device.
    pub device: Device,
    /// The context shared by everything targeting this device.
    pub context: Context,
    /// The single queue for this device.
    pub queue: CommandQueue,
}

impl OpenClEnvironment {
    /// Resolve a device selection through the global matrix.
    pub fn resolve(sel: DeviceSel) -> ClResult<OpenClEnvironment> {
        let entry = device_matrix().select(sel)?;
        Ok(OpenClEnvironment::from_entry(entry))
    }

    fn from_entry(entry: &MatrixEntry) -> OpenClEnvironment {
        OpenClEnvironment {
            platform: entry.platform.clone(),
            device: entry.device.clone(),
            context: entry.context.clone(),
            queue: entry.queue.clone(),
        }
    }

    /// The environment the recovery layer degrades to when this one's
    /// device fails permanently (see [`DeviceMatrix::failover_from`]).
    pub fn failover(&self) -> ClResult<OpenClEnvironment> {
        let entry = device_matrix().failover_from(self.device.id())?;
        Ok(OpenClEnvironment::from_entry(entry))
    }
}

/// A GPU environment over a **private** context and queue, for unit tests
/// that assert deltas of the queue clock or of `allocated_bytes()`: the
/// matrix's shared queue is dispatched on by whatever kernel-actor tests
/// run in parallel, so such deltas are only exact on a lane of one's own.
#[cfg(test)]
pub(crate) fn private_gpu_env() -> OpenClEnvironment {
    let device = Platform::default_device(DeviceType::Gpu).expect("simulated GPU");
    let context = Context::new(std::slice::from_ref(&device)).expect("private context");
    let queue = CommandQueue::new(&context, &device).expect("private queue");
    OpenClEnvironment {
        platform: "private".to_string(),
        device,
        context,
        queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_one_entry_per_device() {
        let m = device_matrix();
        assert_eq!(m.entries().len(), 3); // GPU, CPU, accelerator
    }

    #[test]
    fn one_queue_per_device_is_shared() {
        // Two actors selecting the same device must receive the *same*
        // queue (same virtual clock) — the paper's fix for the read races
        // it observed with multiple queues per device.
        let a = OpenClEnvironment::resolve(DeviceSel::gpu()).unwrap();
        let b = OpenClEnvironment::resolve(DeviceSel::gpu()).unwrap();
        assert_eq!(a.context.id(), b.context.id());
        let before = a.queue.now_ns();
        let buf = a
            .context
            .create_buffer(oclsim::MemFlags::ReadWrite, 64)
            .unwrap();
        a.queue.write_f32(&buf, &[0.0; 16]).unwrap();
        assert!(b.queue.now_ns() > before, "queues are distinct clocks");
        a.context.release_bytes(64);
    }

    #[test]
    fn selection_by_type_and_index() {
        let m = device_matrix();
        let gpu = m.select(DeviceSel::gpu()).unwrap();
        assert_eq!(gpu.device.device_type(), DeviceType::Gpu);
        let cpu = m.select(DeviceSel::cpu()).unwrap();
        assert_eq!(cpu.device.device_type(), DeviceType::Cpu);
        assert!(m.select(DeviceSel::new(DeviceType::Gpu, 5)).is_err());
    }

    #[test]
    fn default_selection_uses_first_device() {
        let m = device_matrix();
        let e = m.select(DeviceSel::default()).unwrap();
        assert_eq!(e.device.id(), m.entries()[0].device.id());
    }

    #[test]
    fn failover_walks_the_matrix_without_wrapping() {
        let m = device_matrix();
        let gpu = m.select(DeviceSel::gpu()).unwrap();
        let second = m.failover_from(gpu.device.id()).unwrap();
        assert_eq!(second.device.id(), m.entries()[1].device.id());
        let last = m.entries().last().unwrap();
        assert!(m.failover_from(last.device.id()).is_err(), "must not wrap");
        let env = OpenClEnvironment::resolve(DeviceSel::gpu()).unwrap();
        assert_eq!(env.failover().unwrap().device.id(), second.device.id());
    }
}
