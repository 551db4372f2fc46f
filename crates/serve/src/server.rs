//! The serving front door: admission control, backpressure, deadlines.
//!
//! A [`Server`] admits at most `max_active` concurrent tenant requests
//! against the shared device pool. Arrivals past the watermark queue up
//! to `max_waiting` deep (backpressure); beyond that they are turned
//! away immediately with [`ServeError::Rejected`]. Queued requests that
//! outwait their deadline fail with [`ServeError::DeadlineExceeded`]
//! without ever running; admitted requests carry their absolute deadline
//! into the VM, where every blocking receive honours it. A hard memory
//! check at admission ([`ServeError::Overloaded`]) keeps a saturated
//! pool from accreting more resident state than eviction can reclaim.

use crate::arbiter::{ArbiterPolicy, FairArbiter};
use crate::cache::ModuleCache;
use crate::error::{DeadlinePhase, ServeError};
use crate::pool::DevicePool;
use crate::session::TenantSession;
use ensemble_actors::RestartBudget;
use ensemble_vm::VmReport;
use oclsim::FaultPlan;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use trace::{SpanKind, TraceEvent, TraceSink};

/// Serving limits and policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrency watermark: requests admitted at once.
    pub max_active: usize,
    /// Backpressure queue depth behind the watermark; arrivals past it
    /// are [`ServeError::Rejected`].
    pub max_waiting: usize,
    /// Soft per-device byte watermark: past it the pool accountant
    /// evicts idle resident buffers to make room.
    pub mem_watermark_bytes: usize,
    /// Hard admission limit: when the most-loaded device still holds
    /// more than this after eviction opportunities, new requests are
    /// [`ServeError::Overloaded`].
    pub mem_overload_bytes: usize,
    /// Dispatch fairness policy of the shared [`FairArbiter`].
    pub policy: ArbiterPolicy,
    /// Straggler hedging: when an admitted request has not completed
    /// after this much wall-clock time, speculatively re-issue it in a
    /// clean secondary session on the lanes its devices fail over to and
    /// return whichever finishes first (the loser's injected hang
    /// stalls are cancelled, and the result is discarded). `None`
    /// disables hedging. Trades duplicated work for tail latency:
    /// choose a value past the workload's normal completion time so
    /// only genuine stragglers pay the duplication.
    pub hedge_after: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_active: 2,
            max_waiting: 8,
            mem_watermark_bytes: 64 << 10,
            mem_overload_bytes: 4 << 20,
            policy: ArbiterPolicy::RoundRobin,
            hedge_after: None,
        }
    }
}

/// One unit of serving work: a tenant's program plus its service terms.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant tag: sessions, arbitration grants, and pool registry
    /// entries are keyed by it.
    pub tenant: u64,
    /// Ensemble source to compile and run.
    pub source: String,
    /// Relative deadline, measured from submission (`None`: no deadline).
    pub deadline: Option<Duration>,
    /// Arbitration weight under [`ArbiterPolicy::Weighted`].
    pub weight: f64,
    /// Optional per-tenant fault plan (attaches only to this tenant's
    /// private queues/contexts).
    pub chaos: Option<FaultPlan>,
    /// Restart budget of the session's supervision tree.
    pub restart_budget: RestartBudget,
}

impl Request {
    /// A plain request: no deadline, weight 1, no chaos, default budget.
    pub fn new(tenant: u64, source: impl Into<String>) -> Request {
        Request {
            tenant,
            source: source.into(),
            deadline: None,
            weight: 1.0,
            chaos: None,
            restart_budget: RestartBudget::default(),
        }
    }
}

/// Terminal-outcome counters (monotonic; for gating and the bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests turned away with a full queue.
    pub rejected: u64,
    /// Requests turned away over the memory limit.
    pub overloaded: u64,
    /// Requests that missed their deadline (queued or running).
    pub deadline_exceeded: u64,
    /// Requests that failed for a non-capacity reason.
    pub failed: u64,
}

#[derive(Default)]
struct Gate {
    active: usize,
    waiting: usize,
}

/// The multi-tenant server (see module docs). Share it across submitter
/// threads via `Arc`.
pub struct Server {
    config: ServeConfig,
    arbiter: Arc<FairArbiter>,
    pool: Arc<DevicePool>,
    /// Compiled modules by source text, shared by every session this
    /// server builds: identical tenant programs run the front end once.
    modules: Arc<ModuleCache>,
    gate: Mutex<Gate>,
    slot_freed: Condvar,
    stats: Mutex<ServeStats>,
    trace: Mutex<TraceSink>,
}

fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(|p| p.into_inner())
}

/// Tenant-tag bit marking a hedge secondary's session, so its pool
/// registry entries never collide with the straggling primary's.
const HEDGE_TENANT_BIT: u64 = 1 << 63;

impl Server {
    /// A server with `config`'s limits, a fresh arbiter, a fresh pool
    /// accountant, and an empty compiled-module cache.
    pub fn new(config: ServeConfig) -> Server {
        let arbiter = Arc::new(FairArbiter::new(config.policy));
        let pool = Arc::new(DevicePool::new(config.mem_watermark_bytes));
        Server {
            config,
            arbiter,
            pool,
            modules: Arc::new(ModuleCache::default()),
            gate: Mutex::new(Gate::default()),
            slot_freed: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            trace: Mutex::new(TraceSink::disabled()),
        }
    }

    /// Record `Admit`/`Reject`/`DeadlineExceeded` instants (and the
    /// pool's `Evict` instants) into `sink`, all on the wall clock.
    pub fn set_trace(&self, sink: TraceSink) {
        self.pool.set_trace(sink.clone());
        *relock(self.trace.lock()) = sink;
    }

    /// The shared dispatch arbiter (grant counts feed fairness reports).
    pub fn arbiter(&self) -> &Arc<FairArbiter> {
        &self.arbiter
    }

    /// The shared memory accountant.
    pub fn pool(&self) -> &Arc<DevicePool> {
        &self.pool
    }

    /// Terminal-outcome counters so far.
    pub fn stats(&self) -> ServeStats {
        *relock(self.stats.lock())
    }

    /// The configured limits.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn instant(&self, kind: SpanKind, name: &str, tenant: u64) {
        let t = relock(self.trace.lock()).clone();
        if t.is_enabled() {
            t.record(
                TraceEvent::instant(kind, name, "serve", t.wall_ns())
                    .with_arg("tenant", tenant)
                    .with_arg("clock", "wall"),
            );
        }
    }

    fn count(&self, f: impl FnOnce(&mut ServeStats)) {
        let mut stats = relock(self.stats.lock());
        f(&mut stats);
    }

    /// Submit one request and block until its terminal outcome: a
    /// completed [`VmReport`] or a typed [`ServeError`]. Never blocks
    /// past the request's deadline.
    pub fn submit(&self, req: Request) -> Result<VmReport, ServeError> {
        let deadline_at = req.deadline.map(|d| Instant::now() + d);
        self.admit(&req, deadline_at)?;
        // The slot is held from here; give it back on every exit path.
        let outcome = self.run_admitted(&req, deadline_at);
        {
            let mut gate = relock(self.gate.lock());
            gate.active -= 1;
        }
        self.slot_freed.notify_all();
        match &outcome {
            Ok(_) => self.count(|s| s.completed += 1),
            Err(ServeError::DeadlineExceeded { .. }) => self.count(|s| s.deadline_exceeded += 1),
            Err(ServeError::Overloaded { .. }) => self.count(|s| s.overloaded += 1),
            Err(ServeError::Rejected { .. }) => self.count(|s| s.rejected += 1),
            Err(ServeError::Failed { .. }) => self.count(|s| s.failed += 1),
        }
        outcome
    }

    /// A session over this server's arbiter, pool and module cache;
    /// `hedge` builds a hedge secondary on its failover lanes.
    fn session(
        &self,
        tenant: u64,
        chaos: Option<FaultPlan>,
        hedge: bool,
    ) -> Result<TenantSession, ServeError> {
        TenantSession::build(
            tenant,
            Arc::clone(&self.arbiter) as _,
            Arc::clone(&self.pool),
            chaos,
            hedge,
            Some(Arc::clone(&self.modules)),
        )
    }

    /// The admission gate: take an active slot, queueing behind the
    /// concurrency watermark up to `max_waiting` deep.
    fn admit(&self, req: &Request, deadline_at: Option<Instant>) -> Result<(), ServeError> {
        let mut gate = relock(self.gate.lock());
        if gate.active >= self.config.max_active {
            if gate.waiting >= self.config.max_waiting {
                let err = ServeError::Rejected {
                    active: gate.active,
                    waiting: gate.waiting,
                    max_waiting: self.config.max_waiting,
                };
                drop(gate);
                self.instant(SpanKind::Reject, "queue_full", req.tenant);
                self.count(|s| s.rejected += 1);
                return Err(err);
            }
            gate.waiting += 1;
            while gate.active >= self.config.max_active {
                match deadline_at {
                    None => gate = relock(self.slot_freed.wait(gate)),
                    Some(at) => {
                        let now = Instant::now();
                        if now >= at {
                            gate.waiting -= 1;
                            drop(gate);
                            self.instant(SpanKind::DeadlineExceeded, "queued", req.tenant);
                            self.count(|s| s.deadline_exceeded += 1);
                            return Err(ServeError::DeadlineExceeded {
                                phase: DeadlinePhase::Queued,
                                detail: "deadline passed in the admission queue".into(),
                            });
                        }
                        let (g, _) = relock(self.slot_freed.wait_timeout(gate, at - now));
                        gate = g;
                    }
                }
            }
            gate.waiting -= 1;
        }
        gate.active += 1;
        Ok(())
    }

    /// Memory check, session build, run, teardown — with the active slot
    /// already held.
    fn run_admitted(
        &self,
        req: &Request,
        deadline_at: Option<Instant>,
    ) -> Result<VmReport, ServeError> {
        let used = self.pool.max_device_used();
        if used > self.config.mem_overload_bytes {
            self.instant(SpanKind::Reject, "overloaded", req.tenant);
            return Err(ServeError::Overloaded {
                used_bytes: used,
                overload_bytes: self.config.mem_overload_bytes,
            });
        }
        if self.config.policy == ArbiterPolicy::Weighted {
            self.arbiter.set_weight(req.tenant, req.weight);
        }
        self.instant(SpanKind::Admit, "admit", req.tenant);
        match self.config.hedge_after {
            None => {
                let session = self.session(req.tenant, req.chaos.clone(), false)?;
                let result = session.run(&req.source, deadline_at, req.restart_budget);
                session.teardown();
                result
            }
            Some(hedge) => self.run_hedged(req, deadline_at, hedge),
        }
    }

    /// Straggler hedging (see [`ServeConfig::hedge_after`]): run the
    /// primary session on a worker thread; if it has not produced a
    /// result after `hedge`, speculatively re-issue the request in a
    /// clean secondary session on its failover lanes and return
    /// whichever finishes first. The loser's injected hang stalls are
    /// released ([`TenantSession::cancel_hangs`]) and its result is
    /// discarded; the primary is always joined and torn down before
    /// returning, so no session outlives its request.
    fn run_hedged(
        &self,
        req: &Request,
        deadline_at: Option<Instant>,
        hedge: Duration,
    ) -> Result<VmReport, ServeError> {
        let primary = Arc::new(self.session(req.tenant, req.chaos.clone(), false)?);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let primary = Arc::clone(&primary);
            let source = req.source.clone();
            let budget = req.restart_budget;
            std::thread::spawn(move || {
                let _ = tx.send(primary.run(&source, deadline_at, budget));
            })
        };
        if let Ok(result) = rx.recv_timeout(hedge) {
            // Finished inside the hedge budget: no speculation needed.
            let _ = worker.join();
            primary.teardown();
            return result;
        }
        // The primary is straggling. Race a clean secondary against it
        // on its failover lanes, under a distinct tenant tag so the
        // two sessions' pool-registry entries stay independent.
        self.instant(SpanKind::Hedge, "hedge", req.tenant);
        let secondary_outcome = self
            .session(req.tenant | HEDGE_TENANT_BIT, None, true)
            .map(|session| {
                let r = session.run(&req.source, deadline_at, req.restart_budget);
                session.teardown();
                r
            });
        let outcome = match rx.try_recv() {
            // The primary crossed the line while the secondary ran:
            // first result wins, the duplicated work is discarded.
            Ok(Ok(report)) => {
                self.instant(SpanKind::HedgeWon, "primary", req.tenant);
                Ok(report)
            }
            primary_so_far => match secondary_outcome {
                Ok(Ok(report)) => {
                    self.instant(SpanKind::HedgeWon, "secondary", req.tenant);
                    self.instant(SpanKind::StragglerAbandoned, "primary", req.tenant);
                    Ok(report)
                }
                // The secondary failed (or could not be built): fall
                // back to waiting the primary out — any injected hang
                // is bounded by its plan's cap.
                _ => match primary_so_far {
                    Ok(result) => result,
                    Err(_) => rx.recv().unwrap_or_else(|_| {
                        Err(ServeError::Failed {
                            detail: "hedged primary worker disappeared".into(),
                        })
                    }),
                },
            },
        };
        primary.cancel_hangs();
        let _ = worker.join();
        primary.teardown();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::tests::program;

    #[test]
    fn identical_programs_compile_once_per_server() {
        let server = Server::new(ServeConfig::default());
        let first = server.submit(Request::new(1, program(7))).unwrap();
        assert_eq!(first.output, vec!["7"]);
        assert_eq!(server.modules.builds(), 1);
        // Another tenant, same source: the front end does not run again,
        // and the result is the same to the bit.
        let second = server.submit(Request::new(2, program(7))).unwrap();
        assert_eq!(server.modules.builds(), 1);
        assert_eq!(second.output, first.output);
        assert_eq!(second.vm_ops, first.vm_ops);
        assert_eq!(second.total_ns().to_bits(), first.total_ns().to_bits());
        // A different program is a different entry.
        assert_eq!(server.submit(Request::new(1, program(8))).unwrap().output, vec!["8"]);
        assert_eq!((server.modules.builds(), server.modules.len()), (2, 2));
        // Another server starts cold: the cache is per server, not global.
        let other = Server::new(ServeConfig::default());
        other.submit(Request::new(1, program(7))).unwrap();
        assert_eq!(other.modules.builds(), 1);
    }

    /// A kernel actor that is sent its settings but never its data, and a
    /// host actor waiting for the result: both are blocked in a receive
    /// when the deadline passes.
    const STARVED_KERNEL: &str = "
        type data_t is struct ( real [] x )
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
        type scaleI is interface( in settings_t requests )
        stage home {
            opencl <device_index=0, device_type=GPU>
            actor Scale presents scaleI {
                constructor() {}
                behaviour {
                    receive req from requests;
                    receive d from req.input;
                    i = get_global_id(0);
                    d.x[i] := d.x[i] * 2.0;
                    send d.x on req.output;
                }
            }
            actor Dispatch presents dispatchI {
                constructor() {}
                behaviour {
                    ws = new integer[1] of 8;
                    gs = new integer[1] of 4;
                    i = new in data_t;
                    o = new out real[];
                    connect dout to i;
                    connect o to din;
                    send new settings_t(ws, gs, i, o) on requests;
                    receive back from din;
                    printReal(back[0]);
                    stop;
                }
            }
            boot {
                d = new Dispatch();
                s = new Scale();
                connect d.requests to s.requests;
            }
        }";

    #[test]
    fn a_deadline_missed_while_running_is_reported_as_such() {
        let server = Server::new(ServeConfig::default());
        let mut req = Request::new(1, STARVED_KERNEL);
        req.deadline = Some(Duration::from_millis(200));
        // The actor's error reaches the server wrapped in context (which
        // actor, which receive); the class must survive the wrapping.
        match server.submit(req) {
            Err(ServeError::DeadlineExceeded {
                phase: DeadlinePhase::Running,
                detail,
            }) => {
                assert!(detail.contains("actor `"), "{detail}");
                assert!(detail.contains("[deadline] "), "{detail}");
            }
            other => panic!("expected a running-phase deadline miss, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!((stats.deadline_exceeded, stats.failed, stats.completed), (1, 0, 0));
    }

    #[test]
    fn hedged_sessions_share_the_cache_too() {
        let server = Server::new(ServeConfig {
            hedge_after: Some(Duration::from_secs(60)),
            ..ServeConfig::default()
        });
        for tenant in 1..=3 {
            assert_eq!(server.submit(Request::new(tenant, program(3))).unwrap().output, vec!["3"]);
        }
        assert_eq!(server.modules.builds(), 1);
        // And a secondary built the way `run_hedged` builds it hits as well.
        let secondary = server.session(1 | HEDGE_TENANT_BIT, None, true).unwrap();
        let report = secondary.run(&program(3), None, RestartBudget::default()).unwrap();
        assert_eq!(report.output, vec!["3"]);
        assert_eq!(server.modules.builds(), 1);
    }

    #[test]
    fn a_rejected_program_fails_identically_every_time_and_is_not_retained() {
        let server = Server::new(ServeConfig::default());
        let bad = program(1).replace("printInt(1);", "send 1 on output;");
        let outcomes: Vec<ServeError> = (0..2)
            .map(|_| server.submit(Request::new(1, bad.as_str())).unwrap_err())
            .collect();
        assert!(
            matches!(&outcomes[0], ServeError::Failed { detail } if detail.starts_with("compile: ") && detail.contains("E005")),
            "{:?}",
            outcomes[0]
        );
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!((server.modules.builds(), server.modules.len()), (2, 0));
        assert_eq!(server.stats().failed, 2);
    }

    #[test]
    fn tenants_racing_a_cold_program_both_succeed() {
        let server = Server::new(ServeConfig::default());
        let start = std::sync::Barrier::new(2);
        let source = program(5);
        let outputs: Vec<Vec<String>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (1..=2)
                .map(|tenant| {
                    let (server, start, source) = (&server, &start, source.as_str());
                    scope.spawn(move || {
                        start.wait();
                        server.submit(Request::new(tenant, source)).unwrap().output
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(outputs, vec![vec!["5"], vec!["5"]]);
        // Whoever lost the insert race ran the winner's module or its
        // own equal one; either way exactly one entry is retained.
        assert!((1..=2).contains(&server.modules.builds()));
        assert_eq!(server.modules.len(), 1);
    }
}
