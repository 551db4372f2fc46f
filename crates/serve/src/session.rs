//! Per-tenant sessions: private device environments over the shared
//! physical pool.
//!
//! A [`TenantSession`] materialises, for every device of the process-wide
//! matrix, a **private** context and command queue
//! ([`DeviceMatrix::private`]). That single decision carries the tentpole
//! guarantees:
//!
//! * **Determinism under contention** — each private queue's virtual
//!   clock starts at zero, so a tenant's virtual timeline (and therefore
//!   its outputs *and* its `total_ns`) is byte-identical whether it runs
//!   alone or alongside N neighbours. Sharing is re-introduced where it
//!   is semantically safe: the wall-clock [`FairArbiter`] in front of
//!   each physical device, and the [`DevicePool`] accountant across the
//!   tenant contexts.
//! * **Fault isolation** — a session's [`FaultInjector`] attaches to its
//!   own contexts only (each lane's one fault attachment), so seeded
//!   kill-chaos in one tenant
//!   can only ever fire on that tenant's actor threads, and is absorbed
//!   by that tenant's own supervision tree (the VM's one-for-one
//!   supervisor with a per-session [`RestartBudget`]). A lost device
//!   fails over inside the session too: the private table is the kernel
//!   actors' resolver, so GPU work degrades to the session's own CPU lane.
//!
//! [`FairArbiter`]: crate::FairArbiter
//! [`DevicePool`]: crate::DevicePool

use crate::cache::{self, ModuleCache};
use crate::error::{DeadlinePhase, ServeError};
use crate::pool::DevicePool;
use ensemble_actors::RestartBudget;
use ensemble_ocl::{DeviceMatrix, Hedged, ProfileSink, ResolveEnv};
use ensemble_vm::{EvictableMov, VmReport, VmRuntime};
use oclsim::{FaultInjector, FaultPlan, QueueArbiter};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use trace::TraceSink;

/// A tenant's serving session (see module docs). Tear-down is automatic
/// on drop: registry entries evicted, observers and arbiter detached.
pub struct TenantSession {
    tenant: u64,
    lanes: Arc<DeviceMatrix>,
    /// What the session's kernel actors resolve through: `lanes`, or a
    /// hedge secondary's [`Hedged`] view of them.
    resolver: Arc<dyn ResolveEnv>,
    pool: Arc<DevicePool>,
    chaotic: bool,
    /// The session's injector, kept so a hedging server can release any
    /// injected [`oclsim::InjectedFault::Hang`] stall
    /// ([`TenantSession::cancel_hangs`]) when the speculative re-issue
    /// wins the race. `None` for chaos-free sessions.
    injector: Option<FaultInjector>,
    /// Resident values of a *chaotic* session. They stay out of the
    /// pool's shared eviction registry (an eviction read-back on a
    /// chaotic queue could fire an injected kill on the evictor's
    /// thread) but must still be forced home at teardown so the pool's
    /// byte counter returns to zero.
    local_resident: Arc<Mutex<Vec<EvictableMov>>>,
    /// The owning server's compiled-module cache; `None` for a
    /// standalone session, which compiles every run itself.
    modules: Option<Arc<ModuleCache>>,
    /// Where this session's runs record their trace (disabled unless
    /// [`TenantSession::with_trace`] set one).
    trace: TraceSink,
}

impl TenantSession {
    /// Build the session's private lanes over every device of the global
    /// matrix, attaching `arbiter` (tagged with `tenant`) and the pool
    /// accountant. A `chaos` plan attaches a [`FaultInjector`] to the
    /// private lanes only — neighbours never see it.
    pub fn new(
        tenant: u64,
        arbiter: Arc<dyn QueueArbiter>,
        pool: Arc<DevicePool>,
        chaos: Option<FaultPlan>,
    ) -> Result<TenantSession, ServeError> {
        TenantSession::build(tenant, arbiter, pool, chaos, false, None)
    }

    /// The one constructor. `hedge` builds a hedge secondary: a session
    /// whose selections resolve onto the lane each would fail over to
    /// ([`Hedged`]), so the speculative re-issue races the straggling
    /// primary on different hardware — give it a tenant tag distinct from
    /// the primary's so the two sessions' pool-registry entries stay
    /// independent. `modules` is the owning [`Server`](crate::Server)'s
    /// compiled-module cache.
    pub(crate) fn build(
        tenant: u64,
        arbiter: Arc<dyn QueueArbiter>,
        pool: Arc<DevicePool>,
        chaos: Option<FaultPlan>,
        hedge: bool,
        modules: Option<Arc<ModuleCache>>,
    ) -> Result<TenantSession, ServeError> {
        let injector = chaos.map(FaultInjector::new);
        let lanes = Arc::new(DeviceMatrix::private().map_err(|e| ServeError::Failed {
            detail: format!("session lanes: {e}"),
        })?);
        for lane in lanes.entries() {
            lane.queue.attach_arbiter(Arc::clone(&arbiter), tenant);
            lane.context.set_mem_observer(Some(Arc::clone(&pool) as _));
            if let Some(inj) = &injector {
                lane.context.attach_faults(inj.clone());
            }
        }
        let resolver: Arc<dyn ResolveEnv> = if hedge {
            Arc::new(Hedged(Arc::clone(&lanes) as _))
        } else {
            Arc::clone(&lanes) as _
        };
        Ok(TenantSession {
            tenant,
            lanes,
            resolver,
            pool,
            chaotic: injector.is_some(),
            injector,
            local_resident: Arc::new(Mutex::new(Vec::new())),
            modules,
            trace: TraceSink::disabled(),
        })
    }

    /// Record every later [`TenantSession::run`]'s trace (commands,
    /// retries, failovers, …) into `sink`, and a chaotic session's fired
    /// faults with them.
    pub fn with_trace(mut self, sink: TraceSink) -> TenantSession {
        if let Some(inj) = &self.injector {
            inj.attach_trace(sink.clone());
        }
        self.trace = sink;
        self
    }

    /// The tenant tag.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// The session's private lanes, in the process-wide matrix's order.
    pub fn lanes(&self) -> &DeviceMatrix {
        &self.lanes
    }

    /// Whether this session runs under fault injection.
    pub fn is_chaotic(&self) -> bool {
        self.chaotic
    }

    /// Release every injected [`oclsim::InjectedFault::Hang`] stall on
    /// this session's injector (no-op for chaos-free sessions). A
    /// hedging server calls this the moment the speculative re-issue
    /// wins, so the straggling primary drains instead of sleeping out
    /// its full hang cap. Idempotent.
    pub fn cancel_hangs(&self) {
        if let Some(inj) = &self.injector {
            inj.cancel_hangs();
        }
    }

    /// Compile (or fetch from the server's module cache) and run `source`
    /// inside this session: kernel actors resolve (and fail over) onto
    /// the private lanes, every blocking receive honours `deadline`, and
    /// (for chaos-free sessions) resident `mov` values are registered
    /// with the pool's eviction registry.
    pub fn run(
        &self,
        source: &str,
        deadline: Option<Instant>,
        budget: RestartBudget,
    ) -> Result<VmReport, ServeError> {
        // The analysis-gated front-end (deny-by-default static checks +
        // residency proofs) — the same pipeline every other runner uses,
        // run once per distinct source when a server's cache is attached.
        let module = match &self.modules {
            Some(modules) => cache::get_or_compile(modules, source),
            None => cache::compile(source).map(Arc::new),
        }
        .map_err(|e| ServeError::Failed {
            detail: format!("compile: {e}"),
        })?;
        let mut vm =
            VmRuntime::with_profile(module, ProfileSink::new().with_trace(self.trace.clone()));
        vm.set_restart_budget(budget);
        vm.set_env_resolver(Arc::clone(&self.resolver));
        vm.set_deadline(deadline);
        if self.chaotic {
            // Chaotic tenants never feed the shared eviction registry:
            // an eviction read-back runs on the *evictor's* thread, and
            // a chaotic queue could fire an injected kill there —
            // outside the victim tenant's supervision tree. Track them
            // session-locally for teardown instead.
            let local = Arc::clone(&self.local_resident);
            vm.set_resident_hook(Some(Arc::new(move |m| {
                let mut l = local.lock();
                if !l.iter().any(|x| x.same_value(&m)) {
                    l.push(m);
                }
            })));
        } else {
            let pool = Arc::clone(&self.pool);
            let tenant = self.tenant;
            vm.set_resident_hook(Some(Arc::new(move |m| pool.register(tenant, m))));
        }
        vm.run().map_err(|e| {
            if e.is_deadline() {
                ServeError::DeadlineExceeded {
                    phase: DeadlinePhase::Running,
                    detail: e.message.into(),
                }
            } else {
                ServeError::Failed {
                    detail: e.message.into(),
                }
            }
        })
    }

    /// Detach everything and return the tenant's device bytes to the
    /// pool. Idempotent; also runs on drop.
    pub fn teardown(&self) {
        // Release any injected hang stalls so no actor thread is left
        // sleeping out its cap while we tear down under it.
        self.cancel_hangs();
        // Disarm fault injection first: the local-registry evictions
        // below read back on this session's queues, and must not trip
        // leftover scheduled kills on the teardown thread.
        if self.chaotic {
            for e in self.lanes.entries() {
                e.context.attach_faults(FaultInjector::disabled());
            }
        }
        for h in self.local_resident.lock().drain(..) {
            let _ = h.try_evict();
        }
        self.pool.release_tenant(self.tenant);
        for e in self.lanes.entries() {
            e.context.set_mem_observer(None);
            e.queue.detach_arbiter();
        }
    }
}

impl Drop for TenantSession {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArbiterPolicy, FairArbiter};
    use oclsim::{FaultOp, InjectedFault};
    use trace::SpanKind;

    /// One GPU dispatch over one uploaded payload: an upload, a kernel
    /// and a read-back on the session's GPU lane.
    const SCALE: &str = "
        type data_t is struct ( real [] v )
        type settings_t is opencl struct (
            integer [] worksize;
            integer [] groupsize;
            in data_t input;
            out real [] output
        )
        type dispatchI is interface (
            out settings_t requests;
            out data_t dout;
            in real [] din
        )
        type kernelI is interface ( in settings_t requests )
        stage home {
            opencl <device_index=0, device_type=GPU>
            actor Scale presents kernelI {
                constructor() {}
                behaviour {
                    receive req from requests;
                    receive d from req.input;
                    i = get_global_id(0);
                    d.v[i] := d.v[i] * 2.0;
                    send d.v on req.output;
                }
            }
            actor Dispatch presents dispatchI {
                constructor() {}
                behaviour {
                    ws = new integer[1] of 4;
                    gs = new integer[1] of 2;
                    i = new in data_t;
                    o = new out real[];
                    connect dout to i;
                    connect o to din;
                    config = new settings_t(ws, gs, i, o);
                    v = new real[4] of 3.0;
                    d = new data_t(v);
                    send config on requests;
                    send d on dout;
                    receive r from din;
                    printReal(r[0]);
                    stop;
                }
            }
            boot {
                d = new Dispatch();
                k = new Scale();
                connect d.requests to k.requests;
            }
        }";

    #[test]
    fn a_traced_chaotic_session_traces_every_fault_it_fires() {
        let plan = FaultPlan::new()
            .fail(FaultOp::Upload, 0, InjectedFault::Transient)
            .fail(FaultOp::Enqueue, 0, InjectedFault::Corrupt);
        let sink = TraceSink::new();
        let session = TenantSession::new(
            1,
            Arc::new(FairArbiter::new(ArbiterPolicy::RoundRobin)),
            Arc::new(DevicePool::new(usize::MAX)),
            Some(plan),
        )
        .unwrap()
        .with_trace(sink.clone());
        let report = session.run(SCALE, None, RestartBudget::default()).unwrap();
        assert_eq!(report.output, vec!["6"]);
        let fired = session.injector.as_ref().unwrap().records().len();
        let traced = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    SpanKind::FaultInjected | SpanKind::CorruptionInjected
                )
            })
            .count();
        assert!(fired > 0, "the plan fired nothing");
        assert_eq!(traced, fired);
    }
}
