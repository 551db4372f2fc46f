//! # ensemble-serve — multi-tenant serving over the shared device pool
//!
//! The paper's runtime executes **one** Ensemble application against the
//! device matrix. This crate turns that runtime into a *serving layer*:
//! N concurrent tenant programs admitted against the same simulated
//! hardware, with the operational properties a shared pool needs —
//!
//! * **Admission control & backpressure** ([`Server`]) — a concurrency
//!   watermark with a bounded wait queue behind it; arrivals past both
//!   fail fast with [`ServeError::Rejected`], memory saturation with
//!   [`ServeError::Overloaded`].
//! * **Deadlines** ([`Request::deadline`]) — an absolute deadline rides
//!   each request into the VM, where every blocking receive (interpreted
//!   `receive` expressions and the kernel actors' native protocol) gives
//!   up once it passes; misses terminate in
//!   [`ServeError::DeadlineExceeded`], queued or running.
//! * **Fair dispatch** ([`FairArbiter`]) — round-robin or weighted
//!   interleaving of tenants' device commands, purely on the wall clock:
//!   virtual-clock determinism survives contention byte-for-byte.
//! * **Memory accounting & eviction** ([`DevicePool`]) — an exact
//!   cross-tenant per-device byte count; past the soft watermark, idle
//!   resident `mov` buffers are transparently forced home and re-uploaded
//!   (byte-identical) on next touch.
//! * **Fault isolation** ([`TenantSession`]) — per-tenant private
//!   contexts and queues mean injected kill-chaos in one tenant lands
//!   only on that tenant's supervision tree; neighbours' outputs *and*
//!   virtual clocks are unchanged.
//!
//! ## Example: two tenants, bounded queue, deadline
//!
//! ```
//! use ensemble_serve::{Request, ServeConfig, Server};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! const APP: &str = r#"
//! type data_t is struct ( real [] v )
//! type settings_t is opencl struct (
//!     integer [] worksize;
//!     integer [] groupsize;
//!     in data_t input;
//!     out real [] output
//! )
//! type dispatchI is interface (
//!     out settings_t requests;
//!     out data_t dout;
//!     in real [] din
//! )
//! type kernelI is interface ( in settings_t requests )
//! stage home {
//!     opencl <device_index=0, device_type=GPU>
//!     actor Scale presents kernelI {
//!         constructor() {}
//!         behaviour {
//!             receive req from requests;
//!             receive d from req.input;
//!             i = get_global_id(0);
//!             d.v[i] := d.v[i] * 2.0;
//!             send d.v on req.output;
//!         }
//!     }
//!     actor Dispatch presents dispatchI {
//!         constructor() {}
//!         behaviour {
//!             ws = new integer[1] of 4;
//!             gs = new integer[1] of 2;
//!             i = new in data_t;
//!             o = new out real[];
//!             connect dout to i;
//!             connect o to din;
//!             config = new settings_t(ws, gs, i, o);
//!             v = new real[4] of 3.0;
//!             d = new data_t(v);
//!             send config on requests;
//!             send d on dout;
//!             receive r from din;
//!             printReal(r[0]);
//!             stop;
//!         }
//!     }
//!     boot {
//!         d = new Dispatch();
//!         k = new Scale();
//!         connect d.requests to k.requests;
//!     }
//! }"#;
//!
//! let server = Arc::new(Server::new(ServeConfig::default()));
//! let mut req = Request::new(1, APP);
//! req.deadline = Some(Duration::from_secs(30));
//! let report = server.submit(req).unwrap();
//! assert_eq!(report.output, vec!["6"]);
//! assert_eq!(server.stats().completed, 1);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
mod cache;
pub mod error;
pub mod loadgen;
pub mod pool;
pub mod server;
pub mod session;

pub use arbiter::{ArbiterPolicy, FairArbiter};
pub use error::{DeadlinePhase, ServeError};
pub use loadgen::{latency_percentile, open_loop, Outcome};
pub use pool::DevicePool;
pub use server::{Request, ServeConfig, ServeStats, Server};
pub use session::TenantSession;
