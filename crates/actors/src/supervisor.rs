//! Supervision trees: restartable actors with failure isolation.
//!
//! The paper's shared-nothing actor model (§4–5) is exactly the structure
//! Erlang-style supervision exploits: an actor owns its state, talks only
//! through channels, and can therefore be killed and restarted without
//! corrupting anything it shares — because it shares nothing. This module
//! adds the missing runtime half of that bargain:
//!
//! * A [`Supervisor`] owns a set of child actors. Each child runs on its
//!   own thread inside a [`std::panic::catch_unwind`] wrapper, so a panic
//!   becomes a *supervised exit event* instead of a poisoned pipeline.
//! * A failed child is restarted on its own ([`Strategy::OneForOne`],
//!   the one restart strategy); its siblings keep running.
//! * A [`RestartBudget`] bounds restart *intensity* on a deterministic
//!   virtual clock ([`IntensityClock`]): each restart charges a backoff to
//!   the clock, and a restart is granted only while fewer than
//!   `max_restarts` grants fall inside the trailing `window_ns`. Exhausting
//!   the budget **escalates**: the supervisor stops every child (invoking
//!   their teardown hooks, which typically poison channels so blocked
//!   peers wake) and reports the failure upward.
//!
//! Every supervision decision is visible in a trace:
//! [`trace::SpanKind::ActorExit`] when an abnormal exit is observed,
//! [`trace::SpanKind::Restart`] when a child is restarted, and
//! [`trace::SpanKind::Escalated`] when the supervisor tears down instead.
//!
//! Checkpointing is the *child's* job — see `ensemble_ocl`'s
//! `CheckpointSlot` and the VM runtime's kernel-actor checkpoints — the
//! supervisor only guarantees the child gets a fresh incarnation to resume
//! in. A child exits abnormally by panicking or by returning
//! [`Control::Fail`] from its behaviour; [`Control::Stop`] is a normal
//! exit and retires the child for good.

use crate::actor::{Actor, ActorCtx, Control};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use trace::{SpanKind, TraceEvent, TraceSink};

/// Best-effort extraction of a human-readable message from a panic
/// payload: `&str` and `String` payloads (what `panic!` produces) are
/// returned verbatim; anything else gets a stable placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a child failure means for its siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Restart only the failed child (matches Erlang's `one_for_one`).
    /// Siblings keep running undisturbed.
    #[default]
    OneForOne,
}

/// Restart-intensity limits, on the supervisor's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartBudget {
    /// Maximum restarts granted inside any trailing `window_ns` interval.
    pub max_restarts: u32,
    /// Width of the sliding intensity window, in virtual nanoseconds.
    pub window_ns: f64,
    /// Virtual time charged to the clock per restart (the supervisor's
    /// deterministic analogue of an exponential-backoff sleep).
    pub backoff_ns: f64,
}

impl Default for RestartBudget {
    /// Eight restarts per 1 ms window, 10 µs apart: generous enough for
    /// sparse injected kills, tight enough that a crash loop escalates on
    /// its ninth consecutive failure.
    fn default() -> RestartBudget {
        RestartBudget {
            max_restarts: 8,
            window_ns: 1e6,
            backoff_ns: 10_000.0,
        }
    }
}

/// The supervisor's deterministic virtual clock plus the sliding-window
/// restart ledger enforcing a [`RestartBudget`].
///
/// The clock advances only through [`IntensityClock::try_restart`] (each
/// grant charges `backoff_ns`) and [`IntensityClock::advance_ns`] (quiet
/// periods credited by the embedder), so identical failure sequences
/// produce identical grant timestamps on every machine.
#[derive(Debug, Clone)]
pub struct IntensityClock {
    budget: RestartBudget,
    clock_ns: f64,
    grants: Vec<f64>,
}

impl IntensityClock {
    /// A clock at virtual zero with no grants recorded.
    pub fn new(budget: RestartBudget) -> IntensityClock {
        IntensityClock {
            budget,
            clock_ns: 0.0,
            grants: Vec::new(),
        }
    }

    /// The budget this clock enforces.
    pub fn budget(&self) -> &RestartBudget {
        &self.budget
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Credit quiet virtual time (e.g. a stretch of successful work),
    /// letting old grants age out of the window.
    pub fn advance_ns(&mut self, ns: f64) {
        if ns > 0.0 {
            self.clock_ns += ns;
        }
    }

    /// Charge one restart's backoff to the clock, then grant the restart
    /// iff fewer than `max_restarts` grants (including this one) would
    /// fall inside the trailing window. Returns the grant's virtual
    /// timestamp, or `None` when the budget is exhausted — the caller
    /// must then escalate.
    pub fn try_restart(&mut self) -> Option<f64> {
        self.clock_ns += self.budget.backoff_ns;
        let cutoff = self.clock_ns - self.budget.window_ns;
        self.grants.retain(|&t| t > cutoff);
        if self.grants.len() as u32 >= self.budget.max_restarts {
            return None;
        }
        self.grants.push(self.clock_ns);
        Some(self.clock_ns)
    }

    /// Grant timestamps still inside the trailing window (most recent
    /// last). Exposed so tests can check the intensity invariant.
    pub fn grants_in_window(&self) -> &[f64] {
        &self.grants
    }
}

/// Why a supervised child's thread ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The behaviour returned [`Control::Stop`] (or the supervisor asked
    /// the child to stop). The child is retired, not restarted.
    Normal,
    /// The behaviour returned [`Control::Fail`] — an abrupt abnormal
    /// exit without unwinding.
    Failed,
    /// The child panicked; carries the panic payload's message.
    Panicked(String),
}

impl ExitReason {
    /// Whether this exit should trigger the restart strategy.
    pub fn is_abnormal(&self) -> bool {
        !matches!(self, ExitReason::Normal)
    }

    fn describe(&self) -> String {
        match self {
            ExitReason::Normal => "normal exit".to_string(),
            ExitReason::Failed => "abrupt failure (Control::Fail)".to_string(),
            ExitReason::Panicked(msg) => format!("panic: {msg}"),
        }
    }
}

/// The terminal failure a supervisor reports after escalating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorError {
    /// Name of the child whose failure exhausted the budget.
    pub child: String,
    /// Human-readable description of that final failure.
    pub reason: String,
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "supervisor escalated: child `{}`: {}", self.child, self.reason)
    }
}

impl std::error::Error for SupervisorError {}

/// Result of a supervision run in which every child eventually exited
/// normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorReport {
    /// `(child name, restarts granted to it)` in supervision order.
    pub children: Vec<(String, u32)>,
}

impl SupervisorReport {
    /// Total restarts granted across all children.
    pub fn total_restarts(&self) -> u32 {
        self.children.iter().map(|(_, r)| r).sum()
    }
}

type Factory = Box<dyn FnMut() -> Box<dyn Actor> + Send>;
type Hook = Box<dyn Fn() + Send>;

/// Description of one supervised child: how to (re)build it, plus
/// optional teardown/revive hooks around its channels.
pub struct ChildSpec {
    name: String,
    factory: Factory,
    on_stop: Option<Hook>,
    on_restart: Option<Hook>,
}

impl ChildSpec {
    /// A child built by `factory` — called once at startup and once per
    /// restart, so captured channel endpoints (behind `Arc`s or
    /// connectors) survive across incarnations.
    pub fn new<A, F>(name: impl Into<String>, mut factory: F) -> ChildSpec
    where
        A: Actor,
        F: FnMut() -> A + Send + 'static,
    {
        ChildSpec {
            name: name.into(),
            factory: Box::new(move || Box::new(factory()) as Box<dyn Actor>),
            on_stop: None,
            on_restart: None,
        }
    }

    /// Hook invoked when the supervisor *forces* this child to stop
    /// (escalation teardown). Typically
    /// poisons the child's input channels so a blocked `receive` wakes
    /// with [`crate::ChannelError::Poisoned`] instead of deadlocking.
    pub fn on_stop(mut self, hook: impl Fn() + Send + 'static) -> ChildSpec {
        self.on_stop = Some(Box::new(hook));
        self
    }

    /// Hook invoked just before a stopped child is restarted. Typically
    /// clears the poison that `on_stop` set ([`crate::In::clear_poison`])
    /// so the fresh incarnation can receive again.
    pub fn on_restart(mut self, hook: impl Fn() + Send + 'static) -> ChildSpec {
        self.on_restart = Some(Box::new(hook));
        self
    }
}

impl std::fmt::Debug for ChildSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChildSpec").field("name", &self.name).finish()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildState {
    /// Not yet started (before [`Supervisor::run`]).
    Idle,
    /// Thread running.
    Running,
    /// Asked to stop by escalation; will *not* restart.
    Draining,
    /// Exited for good.
    Retired,
}

struct Child {
    name: String,
    /// `None` once retired — dropping the factory drops the channel
    /// endpoints it captured, which is what lets downstream receivers
    /// observe closure after the child's final exit.
    spec: Option<ChildSpec>,
    stop: Arc<AtomicBool>,
    state: ChildState,
    restarts: u32,
    handle: Option<JoinHandle<()>>,
}

struct ExitEvent {
    idx: usize,
    reason: ExitReason,
}

/// A supervisor: owns child actors, restarts them within a budget, and
/// escalates when the budget runs out. See the module docs for the model.
///
/// # Example
///
/// ```
/// use ensemble_actors::supervisor::{ChildSpec, RestartBudget, Strategy, Supervisor};
/// use ensemble_actors::{buffered_channel, ActorCtx, Control, FnActor};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// let (out, input) = buffered_channel::<u32>(8);
/// let attempts = Arc::new(AtomicU32::new(0));
/// let a = Arc::clone(&attempts);
/// let mut sup = Supervisor::new("demo", Strategy::OneForOne, RestartBudget::default());
/// sup.supervise(ChildSpec::new("worker", move || {
///     let out = out.clone();
///     let a = Arc::clone(&a);
///     FnActor(move |_ctx: &mut ActorCtx| {
///         // First incarnation dies; the restarted one succeeds.
///         if a.fetch_add(1, Ordering::SeqCst) == 0 {
///             panic!("first attempt fails");
///         }
///         out.send(&42).unwrap();
///         Control::Stop
///     })
/// }));
/// let report = sup.run().unwrap();
/// assert_eq!(report.total_restarts(), 1);
/// assert_eq!(input.receive().unwrap(), 42);
/// ```
pub struct Supervisor {
    name: String,
    clock: IntensityClock,
    trace: TraceSink,
    children: Vec<Child>,
    tx: mpsc::Sender<ExitEvent>,
    rx: mpsc::Receiver<ExitEvent>,
}

impl Supervisor {
    /// A supervisor with no children yet. [`Strategy::OneForOne`] is the
    /// only strategy, so `_strategy` carries no choice.
    pub fn new(name: impl Into<String>, _strategy: Strategy, budget: RestartBudget) -> Supervisor {
        let (tx, rx) = mpsc::channel();
        Supervisor {
            name: name.into(),
            clock: IntensityClock::new(budget),
            trace: TraceSink::disabled(),
            children: Vec::new(),
            tx,
            rx,
        }
    }

    /// Attach a trace sink: exits, restarts, and escalations are then
    /// recorded as instants on the `sup/<name>` track at the supervisor's
    /// virtual clock.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Register a child. Children start (in registration order) when
    /// [`Supervisor::run`] is called.
    pub fn supervise(&mut self, spec: ChildSpec) {
        self.children.push(Child {
            name: spec.name.clone(),
            spec: Some(spec),
            stop: Arc::new(AtomicBool::new(false)),
            state: ChildState::Idle,
            restarts: 0,
            handle: None,
        });
    }

    fn track(&self) -> String {
        format!("sup/{}", self.name)
    }

    fn instant(&self, kind: SpanKind, child: &str, args: &[(&str, String)]) {
        if self.trace.is_enabled() {
            let mut ev = TraceEvent::instant(kind, child, &self.track(), self.clock.now_ns());
            for (k, v) in args {
                ev = ev.with_arg(k, v);
            }
            self.trace.record(ev);
        }
    }

    /// Spawn (or respawn) child `idx`'s thread.
    fn start_child(&mut self, idx: usize) {
        let child = &mut self.children[idx];
        let spec = child.spec.as_mut().expect("cannot start a retired child");
        child.stop.store(false, Ordering::Release);
        let mut actor = (spec.factory)();
        let stop = Arc::clone(&child.stop);
        let tx = self.tx.clone();
        let ctx_name = child.name.clone();
        let stage_name = self.name.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{}/{}", self.name, child.name))
            .spawn(move || {
                let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    let mut ctx = ActorCtx::new(ctx_name, stage_name);
                    actor.constructor(&mut ctx);
                    loop {
                        if stop.load(Ordering::Acquire) {
                            return ExitReason::Normal;
                        }
                        let control = actor.behaviour(&mut ctx);
                        ctx.bump();
                        match control {
                            Control::Continue => {}
                            Control::Stop => return ExitReason::Normal,
                            Control::Fail => return ExitReason::Failed,
                        }
                    }
                }));
                let reason = match result {
                    Ok(r) => r,
                    Err(payload) => ExitReason::Panicked(panic_message(payload.as_ref())),
                };
                // The supervisor keeps its own receiver alive for the
                // whole run, so this send only fails after `run` returned
                // (e.g. a child outliving an escalation drain) — nothing
                // left to notify then.
                let _ = tx.send(ExitEvent { idx, reason });
            })
            .expect("failed to spawn supervised actor thread");
        child.state = ChildState::Running;
        child.handle = Some(handle);
    }

    /// Retire a child for good: drop its spec (and with it the channel
    /// endpoints the factory captured, so downstream receivers observe
    /// closure once the thread's own clones are gone too).
    fn retire(&mut self, idx: usize) {
        let child = &mut self.children[idx];
        child.state = ChildState::Retired;
        child.spec = None;
    }

    /// Restart a child that has already exited: run its `on_restart`
    /// hook (clearing any teardown poison), then respawn.
    fn restart_child(&mut self, idx: usize) {
        {
            let child = &mut self.children[idx];
            child.restarts += 1;
            if let Some(hook) = child.spec.as_ref().and_then(|s| s.on_restart.as_ref()) {
                hook();
            }
        }
        let (name, restarts) = {
            let c = &self.children[idx];
            (c.name.clone(), c.restarts)
        };
        self.instant(
            SpanKind::Restart,
            &name,
            &[("restarts", restarts.to_string())],
        );
        self.start_child(idx);
    }

    /// Escalation teardown: stop every child that is still running,
    /// demoting them to draining. Each gets its stop flag raised and its
    /// `on_stop` hook run, so a blocked receive wakes up.
    fn escalate(&mut self, failed: &str, reason: &ExitReason) -> SupervisorError {
        self.instant(
            SpanKind::Escalated,
            failed,
            &[("reason", reason.describe())],
        );
        for child in &mut self.children {
            if child.state == ChildState::Running {
                child.stop.store(true, Ordering::Release);
                if let Some(hook) = child.spec.as_ref().and_then(|s| s.on_stop.as_ref()) {
                    hook();
                }
                child.state = ChildState::Draining;
            }
        }
        SupervisorError {
            child: failed.to_string(),
            reason: reason.describe(),
        }
    }

    /// Handle an abnormal exit of `idx`: restart it, or return the
    /// escalation error if the budget ran out.
    fn on_failure(&mut self, idx: usize, reason: &ExitReason) -> Option<SupervisorError> {
        let name = self.children[idx].name.clone();
        self.instant(
            SpanKind::ActorExit,
            &name,
            &[("reason", reason.describe())],
        );
        if self.clock.try_restart().is_some() {
            self.restart_child(idx);
            None
        } else {
            self.retire(idx);
            Some(self.escalate(&name, reason))
        }
    }

    /// Start every child, then supervise until all children have retired.
    ///
    /// Returns the per-child restart report, or — if a failure escalated —
    /// the terminal [`SupervisorError`] *after* every remaining child has
    /// been stopped and drained (no thread is left running or blocked).
    pub fn run(mut self) -> Result<SupervisorReport, SupervisorError> {
        for idx in 0..self.children.len() {
            self.start_child(idx);
        }
        let mut failure: Option<SupervisorError> = None;
        while self
            .children
            .iter()
            .any(|c| c.state != ChildState::Retired && c.state != ChildState::Idle)
        {
            let ev = self
                .rx
                .recv()
                .expect("supervisor keeps a sender; recv cannot fail");
            // Reap the incarnation that just announced its exit.
            if let Some(h) = self.children[ev.idx].handle.take() {
                let _ = h.join();
            }
            match self.children[ev.idx].state {
                ChildState::Draining => self.retire(ev.idx),
                ChildState::Running => {
                    if ev.reason.is_abnormal() && failure.is_none() {
                        failure = self.on_failure(ev.idx, &ev.reason);
                    } else {
                        self.retire(ev.idx);
                    }
                }
                ChildState::Idle | ChildState::Retired => {
                    unreachable!("exit event from a child that is not running")
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(SupervisorReport {
                children: self
                    .children
                    .iter()
                    .map(|c| (c.name.clone(), c.restarts))
                    .collect(),
            }),
        }
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("name", &self.name)
            .field("children", &self.children.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{buffered_channel, ChannelError};
    use crate::FnActor;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn panic_message_extracts_both_string_kinds() {
        assert_eq!(panic_message(&"static str"), "static str");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }

    #[test]
    fn intensity_window_slides() {
        let mut c = IntensityClock::new(RestartBudget {
            max_restarts: 2,
            window_ns: 100.0,
            backoff_ns: 30.0,
        });
        assert_eq!(c.try_restart(), Some(30.0));
        assert_eq!(c.try_restart(), Some(60.0));
        // Third restart inside the 100 ns window: denied.
        assert_eq!(c.try_restart(), None);
        // Even a denied attempt charges backoff (clock now 90); credit a
        // quiet period so the first grant ages out.
        c.advance_ns(500.0);
        assert!(c.try_restart().is_some());
    }

    #[test]
    fn one_for_one_restarts_only_the_failed_child() {
        let (ok_out, ok_in) = buffered_channel::<&'static str>(8);
        let ok_out2 = ok_out.clone();
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let mut sup = Supervisor::new("t", Strategy::OneForOne, RestartBudget::default());
        sup.supervise(ChildSpec::new("flaky", move || {
            let a = Arc::clone(&a);
            let out = ok_out.clone();
            FnActor(move |_ctx: &mut ActorCtx| {
                if a.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky failure");
                }
                out.send(&"flaky-done").unwrap();
                Control::Stop
            })
        }));
        sup.supervise(ChildSpec::new("steady", move || {
            let out = ok_out2.clone();
            let mut sent = false;
            FnActor(move |_ctx: &mut ActorCtx| {
                if !sent {
                    sent = true;
                    out.send(&"steady-done").unwrap();
                }
                Control::Stop
            })
        }));
        let report = sup.run().unwrap();
        assert_eq!(report.children[0], ("flaky".to_string(), 2));
        // The steady sibling was never restarted.
        assert_eq!(report.children[1], ("steady".to_string(), 0));
        let mut got = vec![ok_in.receive().unwrap(), ok_in.receive().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec!["flaky-done", "steady-done"]);
    }

    #[test]
    fn control_fail_is_a_supervised_failure() {
        let fails = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&fails);
        let mut sup = Supervisor::new("t", Strategy::OneForOne, RestartBudget::default());
        sup.supervise(ChildSpec::new("abrupt", move || {
            let f = Arc::clone(&f);
            FnActor(move |_ctx: &mut ActorCtx| {
                if f.fetch_add(1, Ordering::SeqCst) == 0 {
                    Control::Fail
                } else {
                    Control::Stop
                }
            })
        }));
        let report = sup.run().unwrap();
        assert_eq!(report.total_restarts(), 1);
    }

    #[test]
    fn budget_exhaustion_escalates_with_the_last_reason() {
        let mut sup = Supervisor::new(
            "t",
            Strategy::OneForOne,
            RestartBudget {
                max_restarts: 3,
                window_ns: 1e9,
                backoff_ns: 10.0,
            },
        );
        sup.supervise(ChildSpec::new("crashloop", || {
            FnActor(|_ctx: &mut ActorCtx| panic!("always down"))
        }));
        let err = sup.run().unwrap_err();
        assert_eq!(err.child, "crashloop");
        assert!(err.reason.contains("always down"), "{}", err.reason);
    }

    #[test]
    fn escalation_wakes_blocked_siblings_via_on_stop() {
        // A sibling parked on a receive that will never be satisfied must
        // be woken by its on_stop hook during escalation — the "no
        // deadlocked receive" guarantee. `run` returning at all (instead
        // of hanging on the parked child) is the assertion.
        let nothing_in = crate::In::<u32>::with_buffer(1);
        let connector = nothing_in.connector();
        let mut slot = Some(nothing_in);
        // A zero budget escalates on the first failure, so `parked` is
        // built exactly once.
        let no_restarts = RestartBudget {
            max_restarts: 0,
            ..RestartBudget::default()
        };
        let mut sup = Supervisor::new("t", Strategy::OneForOne, no_restarts);
        sup.supervise(
            ChildSpec::new("parked", move || {
                let input = slot.take().expect("a zero budget never restarts");
                FnActor(move |_ctx: &mut ActorCtx| match input.receive() {
                    Ok(_) => Control::Continue,
                    Err(ChannelError::Poisoned) => Control::Stop,
                    Err(_) => Control::Fail,
                })
            })
            .on_stop(move || connector.poison()),
        );
        sup.supervise(ChildSpec::new("failer", || {
            FnActor(|_ctx: &mut ActorCtx| {
                // Give `parked` time to actually block on its receive.
                std::thread::sleep(std::time::Duration::from_millis(10));
                panic!("down")
            })
        }));
        let err = sup.run().unwrap_err();
        assert_eq!(err.child, "failer");
        assert!(err.reason.contains("down"), "{}", err.reason);
    }
}
