//! The runtime device matrix and per-actor OpenCL environments (§6.2.1–6.2.2).
//!
//! During initialisation the Ensemble runtime builds a single matrix of the
//! platforms and devices available on the system, with **exactly one
//! context and one command queue per device** — the paper adds this after
//! observing read races with multiple command queues per device. Kernel
//! actors carry an [`OpenClEnvironment`] resolved from this matrix using
//! the `<device_index, device_type>` annotation in their declaration.
//!
//! The matrix is the only lane table: [`DeviceMatrix::private`] copies it
//! onto fresh contexts and queues (a serving session's lanes, a harness's
//! zero-origin lanes), and [`ResolveEnv`] is the one rule for picking a
//! lane and for the lane work fails over to.

use oclsim::{BuildCache, ClError, ClResult, CommandQueue, Context, Device, DeviceType, Platform};
use std::sync::{Arc, OnceLock};

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

impl MatrixEntry {
    /// A fresh context over `device`, building through `builds`, and its
    /// queue.
    fn open(platform: &str, device: &Device, builds: &Arc<BuildCache>) -> ClResult<MatrixEntry> {
        let context = Context::with_build_cache(std::slice::from_ref(device), Arc::clone(builds))?;
        let queue = CommandQueue::new(&context, device)?;
        Ok(MatrixEntry {
            platform: platform.to_string(),
            device: device.clone(),
            context,
            queue,
        })
    }
}

/// A platforms × devices table, one context and one queue per device:
/// the process-wide matrix ([`device_matrix`]) or a private copy of it
/// ([`DeviceMatrix::private`]). Every context of the process-wide matrix
/// and of all its private copies shares one [`BuildCache`], so a kernel
/// source is compiled and lowered once per process, not once per run.
#[derive(Debug)]
pub struct DeviceMatrix {
    entries: Vec<MatrixEntry>,
    builds: Arc<BuildCache>,
}

static MATRIX: OnceLock<Arc<DeviceMatrix>> = OnceLock::new();

fn process_matrix() -> &'static Arc<DeviceMatrix> {
    MATRIX.get_or_init(|| {
        let builds = Arc::default();
        let mut entries = Vec::new();
        for platform in Platform::all() {
            for device in platform.devices(None) {
                entries.push(
                    MatrixEntry::open(platform.name(), &device, &builds).expect("lane for device"),
                );
            }
        }
        Arc::new(DeviceMatrix { entries, builds })
    })
}

/// The process-wide device matrix, built on first use.
pub fn device_matrix() -> &'static DeviceMatrix {
    process_matrix()
}

impl DeviceMatrix {
    /// The process-wide matrix as a shareable resolver — what kernel
    /// actors resolve through unless a front end substitutes another.
    pub fn shared() -> Arc<DeviceMatrix> {
        Arc::clone(process_matrix())
    }

    /// A fresh context and queue for each device of the process-wide
    /// matrix, in the same order. Its lanes start their virtual clocks at
    /// zero and see no other table's faults, arbiter or memory observer;
    /// they share only the process matrix's build cache.
    pub fn private() -> ClResult<DeviceMatrix> {
        let shared = device_matrix();
        let entries = shared
            .entries
            .iter()
            .map(|e| MatrixEntry::open(&e.platform, &e.device, &shared.builds))
            .collect::<ClResult<_>>()?;
        Ok(DeviceMatrix {
            entries,
            builds: Arc::clone(&shared.builds),
        })
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
}

/// Resolves a kernel actor's `<device_index, device_type>` selection to
/// the [`OpenClEnvironment`] it will dispatch through, and names the lane
/// its work moves to when that lane's device fails.
///
/// A [`DeviceMatrix`] is the resolver: the process-wide one (one shared
/// context + queue per device, exactly the paper's runtime) or a
/// [`DeviceMatrix::private`] copy, which is how a serving session gives
/// each tenant a virtual clock starting at zero and a fault-isolation
/// boundary. Because failover asks the same resolver, work never leaves
/// the table it was resolved from.
pub trait ResolveEnv: Send + Sync {
    /// Resolve `sel` to a device environment.
    fn resolve(&self, sel: DeviceSel) -> ClResult<OpenClEnvironment>;

    /// The lane after `from` in this resolver's order, never wrapping:
    /// where work on `from` goes when its device fails permanently.
    /// `None` when nothing follows — the default, for a one-lane resolver.
    fn failover(&self, _from: &OpenClEnvironment) -> Option<OpenClEnvironment> {
        None
    }
}

/// The table's order is platform-major with the GPU first, so failover
/// walks the degradation chain GPU → CPU → accelerator and stops there.
impl ResolveEnv for DeviceMatrix {
    fn resolve(&self, sel: DeviceSel) -> ClResult<OpenClEnvironment> {
        self.select(sel).map(OpenClEnvironment::from_entry)
    }

    fn failover(&self, from: &OpenClEnvironment) -> Option<OpenClEnvironment> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.device.id() == from.device.id())?;
        self.entries.get(pos + 1).map(OpenClEnvironment::from_entry)
    }
}

/// A hedge secondary's view of a resolver: every selection lands on the
/// lane its primary would fail over to — away from whatever straggles on
/// the primary's lane — or on the primary's own lane when none follows.
/// Failover continues along the inner resolver's order.
pub struct Hedged(pub Arc<dyn ResolveEnv>);

impl ResolveEnv for Hedged {
    fn resolve(&self, sel: DeviceSel) -> ClResult<OpenClEnvironment> {
        let primary = self.0.resolve(sel)?;
        Ok(self.0.failover(&primary).unwrap_or(primary))
    }

    fn failover(&self, from: &OpenClEnvironment) -> Option<OpenClEnvironment> {
        self.0.failover(from)
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
        device_matrix().resolve(sel)
    }

    fn from_entry(entry: &MatrixEntry) -> OpenClEnvironment {
        OpenClEnvironment {
            platform: entry.platform.clone(),
            device: entry.device.clone(),
            context: entry.context.clone(),
            queue: entry.queue.clone(),
        }
    }
}

/// A GPU lane of a **private** table, for unit tests that assert deltas
/// of the queue clock or of `allocated_bytes()`: the matrix's shared queue
/// is dispatched on by whatever kernel-actor tests run in parallel, so
/// such deltas are only exact on a lane of one's own.
#[cfg(test)]
pub(crate) fn private_gpu_env() -> OpenClEnvironment {
    DeviceMatrix::private()
        .and_then(|lanes| lanes.resolve(DeviceSel::gpu()))
        .expect("private GPU lane")
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
    fn the_shared_and_a_private_table_select_and_fail_over_by_one_rule() {
        use DeviceType::{Accelerator as Acc, Cpu, Gpu};
        let shared = device_matrix();
        let private = DeviceMatrix::private().unwrap();
        let ids: Vec<usize> = shared.entries().iter().map(|e| e.device.id()).collect();
        let types: Vec<DeviceType> = shared
            .entries()
            .iter()
            .map(|e| e.device.device_type())
            .collect();
        assert_eq!(types, [Gpu, Cpu, Acc], "the table's order");
        let (gpu, cpu, acc) = (ids[0], ids[1], ids[2]);
        let missing = |requested: &str| {
            Err(ClError::DeviceNotFound {
                requested: requested.to_string(),
            })
        };
        let untyped = |device_index| DeviceSel {
            device_type: None,
            device_index,
        };
        let cases: [(DeviceSel, ClResult<usize>); 16] = [
            // `None` picks the table row: the default is the first device.
            (DeviceSel::default(), Ok(gpu)),
            (untyped(1), Ok(cpu)),
            (untyped(2), Ok(acc)),
            (untyped(3), missing("device #3")),
            // A type picks the `index`-th device of that type.
            (DeviceSel::gpu(), Ok(gpu)),
            (DeviceSel::new(Gpu, 1), missing("GPU #1")),
            (DeviceSel::new(Gpu, 2), missing("GPU #2")),
            (DeviceSel::new(Gpu, 3), missing("GPU #3")),
            (DeviceSel::cpu(), Ok(cpu)),
            (DeviceSel::new(Cpu, 1), missing("CPU #1")),
            (DeviceSel::new(Cpu, 2), missing("CPU #2")),
            (DeviceSel::new(Cpu, 3), missing("CPU #3")),
            (DeviceSel::new(Acc, 0), Ok(acc)),
            (DeviceSel::new(Acc, 1), missing("ACCELERATOR #1")),
            (DeviceSel::new(Acc, 2), missing("ACCELERATOR #2")),
            (DeviceSel::new(Acc, 3), missing("ACCELERATOR #3")),
        ];
        for (sel, want) in &cases {
            let on = |table: &DeviceMatrix| table.resolve(*sel).map(|e| e.device.id());
            assert_eq!(&on(shared), want, "shared table, {sel:?}");
            assert_eq!(&on(&private), want, "private table, {sel:?}");
        }
        for (table, name) in [(shared, "shared"), (&private, "private")] {
            // Failover walks the table's order and never wraps.
            let next: Vec<Option<usize>> = table
                .entries()
                .iter()
                .map(|e| {
                    let from = OpenClEnvironment::from_entry(e);
                    table.failover(&from).map(|to| to.device.id())
                })
                .collect();
            assert_eq!(next, [Some(cpu), Some(acc), None], "{name} table");
        }
        // Same devices in the same order, on lanes of its own.
        for (p, s) in private.entries().iter().zip(shared.entries()) {
            assert_eq!(p.device.id(), s.device.id());
            assert_ne!(p.context.id(), s.context.id());
        }
    }

    #[test]
    fn a_hedged_resolver_lands_one_lane_along_the_failover_order() {
        let lanes: Arc<dyn ResolveEnv> = Arc::new(DeviceMatrix::private().unwrap());
        let hedged = Hedged(Arc::clone(&lanes));
        let id = |r: &dyn ResolveEnv, sel| r.resolve(sel).unwrap().device.id();
        let cpu = id(&*lanes, DeviceSel::cpu());
        let acc = id(&*lanes, DeviceSel::new(DeviceType::Accelerator, 0));
        assert_eq!(id(&hedged, DeviceSel::gpu()), cpu);
        assert_eq!(id(&hedged, DeviceSel::cpu()), acc);
        // Nothing follows the last lane: the secondary shares it.
        assert_eq!(id(&hedged, DeviceSel::new(DeviceType::Accelerator, 0)), acc);
        assert!(hedged.resolve(DeviceSel::new(DeviceType::Gpu, 1)).is_err());
    }
}
