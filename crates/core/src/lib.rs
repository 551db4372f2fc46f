//! # ensemble-ocl — OpenCL through actors
//!
//! The primary contribution of *Parallel Programming in Actor-Based
//! Applications via OpenCL* (MIDDLEWARE 2015), reproduced in Rust: OpenCL
//! kernels represented as **actors**, with the runtime automating device
//! discovery, kernel compilation, buffer management, data flattening, and
//! the "leave data on the device" optimisation — all behind ordinary actor
//! channels.
//!
//! ## The pieces (paper section in parentheses)
//!
//! * [`mod@env`] (§6.2.1–6.2.2) — the process-wide platforms × devices
//!   [`env::DeviceMatrix`] with **one context and one command queue per
//!   device** (the paper's fix for multi-queue read races), private copies
//!   of it, and the [`env::OpenClEnvironment`] resolved from an actor's
//!   `<device_index, device_type>` annotation by the one selection and
//!   failover rule, [`env::ResolveEnv`].
//! * [`settings`] (§6.1.1) — the `opencl struct` protocol: worksize +
//!   groupsize arrays and dynamically-created in/out data channels, sent to
//!   the kernel actor over its single interface channel.
//! * [`flatten`] (§6.1.2) — automated flattening of multi-dimensional
//!   arrays ([`flatten::Array2`], [`flatten::Array3`]), structs (tuples),
//!   and primitives (one-element arrays) into typed buffer segments plus
//!   dimension arguments.
//! * [`protocol`] (§6.1, Figure 2) — the host side of that protocol,
//!   once: [`protocol::KernelHost`] resolves and builds, uploads, binds
//!   and enqueues under a [`protocol::DispatchMode`], recovers and reads
//!   back, over [`protocol::ResidentBufs`] whose memory accounting is
//!   released on drop; [`checkpoint`] is its restart state machine. The
//!   Ensemble VM's `opencl` actors drive the same core.
//! * [`kernel_actor`] — the typed front end:
//!   [`kernel_actor::KernelActor`] (copying channels) and
//!   [`kernel_actor::ResidentKernelActor`] (`mov` channels), implementing
//!   the receive-settings / receive-data / dispatch / send choreography
//!   the Ensemble compiler enforces for [`flatten::Flatten`] values.
//! * [`resident`] (§6.2.3) — lazy evaluation: [`resident::DeviceData`]
//!   keeps values on the device across actor hops within one context, and
//!   reads them back the moment host code touches them or they cross to a
//!   different context. The type is not `Clone`, so Rust's move checker
//!   enforces the single-owner discipline Ensemble's `mov` analysis proves
//!   at compile time.
//! * [`profile`] — per-run accounting of to-device / from-device / kernel
//!   time, feeding the Figure 3a–3e harness.
//! * [`recovery`] — the robustness layer the paper leaves to future work:
//!   a per-actor [`recovery::RecoveryPolicy`] retries transient simulator
//!   faults with virtual-clock backoff, and permanent device errors *fail
//!   over* to the next lane of the table the actor resolved from (GPU →
//!   CPU degradation), evacuating resident data through the read-back
//!   rescue path.
//!
//! ## Example: the matrix-multiply choreography of Listing 3
//!
//! ```
//! use ensemble_ocl::{
//!     flatten::Array2, kernel_actor::{KernelActor, KernelSpec},
//!     env::DeviceSel, profile::ProfileSink, recovery::RecoveryPolicy,
//!     settings::Settings,
//! };
//! use ensemble_actors::{buffered_channel, In, Out, Stage};
//!
//! const MM: &str = r#"
//! __kernel void multiply(__global float* a, __global float* b,
//!                        __global float* result,
//!                        const int ra, const int ca,
//!                        const int rb, const int cb,
//!                        const int rr, const int cr) {
//!     int x = get_global_id(0);
//!     int y = get_global_id(1);
//!     int dim = get_global_size(0);
//!     float c = 0.0f;
//!     for (int i = 0; i < dim; i++) {
//!         c = c + a[y * ca + i] * b[i * cb + x];
//!     }
//!     result[y * cr + x] = c;
//! }"#;
//!
//! let n = 4usize;
//! let profile = ProfileSink::new();
//! let spec = KernelSpec {
//!     source: MM.to_string(),
//!     kernel_name: "multiply".to_string(),
//!     device: DeviceSel::cpu(),       // the `<device_type=CPU>` annotation
//!     out_segs: vec![2],              // send `result` onward
//!     out_dims: vec![4, 5],           // with its (rows, cols)
//!     profile: profile.clone(),
//!     recovery: RecoveryPolicy::default(),
//! };
//!
//! type MmIn = (Array2, Array2, Array2);
//! let (req_out, req_in) = buffered_channel::<Settings<MmIn, Array2>>(1);
//! let mut stage = Stage::new("home");
//! stage.spawn("Multiply", KernelActor::<MmIn, Array2>::new(spec, req_in));
//!
//! let (result_out, result_in) = buffered_channel::<Array2>(1);
//! stage.spawn_once("Dispatch", move |_| {
//!     let i = In::with_buffer(1);
//!     let o = Out::new();
//!     o.connect(&i);
//!     req_out.send_moved(Settings::new(vec![n, n], vec![2, 2], i, result_out)).unwrap();
//!     let a = Array2::from_vec(n, n, (0..16).map(|v| v as f32).collect());
//!     let b = {
//!         let mut b = Array2::zeros(n, n);
//!         for k in 0..n { b[(k, k)] = 2.0; }   // 2·I
//!         b
//!     };
//!     o.send(&(a, b, Array2::zeros(n, n))).unwrap();
//! });
//!
//! let result = result_in.receive().unwrap();
//! stage.join();
//! assert_eq!(result[(1, 2)], 2.0 * 6.0);
//! assert!(profile.snapshot().kernel_ns > 0.0);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod env;
pub mod flatten;
pub mod kernel_actor;
pub mod profile;
pub mod protocol;
pub mod recovery;
pub mod resident;
pub mod settings;

pub use checkpoint::Checkpoint;
pub use env::{device_matrix, DeviceMatrix, DeviceSel, Hedged, OpenClEnvironment, ResolveEnv};
pub use flatten::{Array2, Array3, FlatData, FlatSeg, FlatSource, Flatten, FlattenError, SegTy};
pub use kernel_actor::{KernelActor, ResidentKernelActor};
pub use profile::{Profile, ProfileSink};
pub use protocol::{DispatchMode, KernelHost, KernelSpec, Launch, ResidentBufs};
pub use recovery::RecoveryPolicy;
pub use resident::{DeviceData, Dispatchable};
pub use settings::{nd_from, Settings};
