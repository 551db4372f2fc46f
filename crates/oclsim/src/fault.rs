//! Deterministic fault injection.
//!
//! Real heterogeneous runtimes treat device failure as a schedulable
//! event: queues fill up, drivers reset, accelerators fall off the bus.
//! This module lets a test (or the bench harness's *chaos mode*) schedule
//! exactly such events inside the simulator — **deterministically**. A
//! [`FaultPlan`] names which operations fail and how; a [`FaultInjector`]
//! built from the plan attaches to a device lane's [`crate::Context`] —
//! its builds and every command of the [`crate::CommandQueue`] over it —
//! and fires them as the run reaches the scheduled operation indices. Because the simulator executes on a
//! virtual clock and queue operations happen in program order, the same
//! plan against the same workload injects the same faults at the same
//! virtual instants on every machine.
//!
//! The fail-stop fault classes match the two recovery strategies above
//! the simulator:
//!
//! * **Transient** ([`InjectedFault::Transient`]): the operation fails
//!   once with [`ClError::DeviceBusy`]; the *re-issued* operation
//!   consumes the next operation index and (normally) succeeds. The
//!   recovery layer answers with bounded retries and virtual-clock
//!   backoff.
//! * **Permanent** ([`InjectedFault::DeviceLost`]): the device is gone.
//!   Every subsequent upload, dispatch, or build through this injector
//!   fails with [`ClError::DeviceLost`] — except **read-backs**, which
//!   stay available as a rescue path so device-resident data can be
//!   evacuated before failing over to another device.
//!
//! Beyond fail-stop, two *non-fail-stop* classes model failures that
//! never raise an error at the point of injection:
//!
//! * **Silent corruption** ([`InjectedFault::Corrupt`]): a seeded bit
//!   flips at an upload/enqueue/readback seam and the operation
//!   *succeeds*. Defense lives in the queue's integrity layer: uploads
//!   record provenance checksums, readbacks and dispatches verify them,
//!   and a mismatch surfaces as [`ClError::IntegrityViolation`] after
//!   the buffer has been restored from its host shadow.
//! * **Hang** ([`InjectedFault::Hang`]): the command stalls on the
//!   *wall* clock (bounded by the plan's hang cap, cancellable via
//!   [`FaultInjector::cancel_hangs`]) and then completes normally; the
//!   virtual clock never moves, so outputs and virtual timings stay
//!   byte-identical while serving-path latency balloons — the scenario
//!   hedged re-dispatch exists for.
//!
//! An injector with no plan (or a detached/disabled injector) is
//! completely inert: checks are a branch on an `Option`, no fault is
//! recorded, and a traced run produces byte-identical output to a run
//! without any injector.

use crate::error::{ClError, ClResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use trace::{SpanKind, TraceEvent, TraceSink};

/// The operation classes a fault can be scheduled on. Each class has its
/// own monotonically increasing operation counter inside the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Host→device buffer write (`enqueue_write_buffer`).
    Upload,
    /// Device→host buffer read (`enqueue_read_buffer`).
    Readback,
    /// ND-range kernel dispatch (`enqueue_nd_range`).
    Enqueue,
    /// Program compilation (`Program::build`).
    Build,
}

impl FaultOp {
    /// Stable lowercase name (used as the trace-event label).
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Upload => "upload",
            FaultOp::Readback => "readback",
            FaultOp::Enqueue => "enqueue",
            FaultOp::Build => "build",
        }
    }

    fn slot(self) -> usize {
        match self {
            FaultOp::Upload => 0,
            FaultOp::Readback => 1,
            FaultOp::Enqueue => 2,
            FaultOp::Build => 3,
        }
    }
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fail this one operation with [`ClError::DeviceBusy`]; later
    /// operations are unaffected.
    Transient,
    /// Mark the device lost: this and every later non-readback operation
    /// fails with [`ClError::DeviceLost`].
    DeviceLost,
    /// Kill the *actor* issuing the operation (not the device): the
    /// operation never executes and the calling thread dies — by panic or
    /// by abrupt error exit, per [`KillMode`]. The device itself stays
    /// healthy, so a supervisor can restart the actor against the same
    /// device and resume from a checkpoint.
    Kill(KillMode),
    /// Silently flip one seeded bit of the operation's payload; the
    /// operation itself *succeeds*. Only the integrity layer's
    /// provenance checksums can tell. Meaningful on
    /// [`FaultOp::Upload`]/[`FaultOp::Enqueue`]/[`FaultOp::Readback`];
    /// ignored on [`FaultOp::Build`].
    Corrupt,
    /// Stall the issuing thread on the *wall* clock (up to the plan's
    /// hang cap, or until [`FaultInjector::cancel_hangs`]), then let the
    /// operation proceed normally. The virtual clock is untouched.
    Hang,
}

/// How an [`InjectedFault::Kill`] terminates the issuing actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// The fault check panics with a downcastable [`KillPanic`] payload —
    /// modelling an actor whose thread dies unwinding (a bug, an
    /// assertion). Supervisors recognise the payload via
    /// [`std::panic::catch_unwind`].
    Panic,
    /// The fault check returns [`ClError::ActorKilled`] — modelling an
    /// actor that exits abruptly without unwinding. The actor is expected
    /// to propagate the error straight out of its behaviour (no retry,
    /// no failover, no channel poisoning) so its supervisor observes a
    /// plain abnormal exit.
    Exit,
}

impl KillMode {
    /// Stable lowercase name (used as a trace-event argument).
    pub fn name(self) -> &'static str {
        match self {
            KillMode::Panic => "panic",
            KillMode::Exit => "exit",
        }
    }
}

/// The panic payload carried by an [`InjectedFault::Kill`] in
/// [`KillMode::Panic`] mode. Supervisors downcast the payload of a caught
/// unwind to this type to distinguish an injected kill from a genuine
/// actor bug.
#[derive(Debug, Clone)]
pub struct KillPanic {
    /// Device whose operation the kill was scheduled on.
    pub device: String,
    /// Operation class the kill fired on.
    pub op: FaultOp,
    /// Operation index it fired at.
    pub index: u64,
}

impl std::fmt::Display for KillPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected kill at {} #{} on device `{}`",
            self.op.name(),
            self.index,
            self.device
        )
    }
}

/// Install a process-wide panic hook that suppresses the default
/// "thread panicked" stderr report for [`KillPanic`] payloads only; every
/// other panic is reported exactly as before. Idempotent — the hook is
/// installed once per process. Kill-chaos runs call this so hundreds of
/// *scheduled* actor deaths don't flood stderr while genuine panics stay
/// loud.
pub fn silence_kill_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// One scheduled fault: the `index`-th operation of class `op` (counting
/// from 0, per injector) fails with `fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operation class the fault is scheduled on.
    pub op: FaultOp,
    /// Zero-based index into that class's operation sequence.
    pub index: u64,
    /// Fault class to inject.
    pub fault: InjectedFault,
}

/// Seeded pseudo-random transient faults: operation `(op, index)` fails
/// when a hash of `(seed, op, index)` lands in the 1-in-`period` window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seeded {
    seed: u64,
    period: u64,
}

/// Seeded pseudo-random actor kills (see [`FaultPlan::seeded_kills`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeededKills {
    seed: u64,
    period: u64,
    max_kills: u64,
}

/// Seeded pseudo-random silent corruption (see
/// [`FaultPlan::seeded_corrupt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeededCorrupt {
    seed: u64,
    period: u64,
}

/// A [`FaultPlan`] constructor was given degenerate parameters (e.g. a
/// seeded schedule with `period == 0`, which could never pick a 1-in-0
/// window, or a kill schedule capped at zero kills). Returned instead of
/// silently building a plan that injects nothing — a chaos run that
/// *thinks* it is testing recovery but isn't is worse than no run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfigError {
    /// Which constructor rejected its parameters.
    pub what: &'static str,
    /// Why the parameters are degenerate.
    pub reason: String,
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault plan ({}): {}", self.what, self.reason)
    }
}

impl std::error::Error for FaultConfigError {}

fn check_period(what: &'static str, period: u64) -> Result<(), FaultConfigError> {
    if period < 2 {
        return Err(FaultConfigError {
            what,
            reason: format!(
                "period must be >= 2, got {period} (0 never fires; 1 faults every \
                 operation including the recovery retries, so no schedule can complete)"
            ),
        });
    }
    Ok(())
}

/// A deterministic schedule of faults.
///
/// Plans combine explicitly scheduled faults ([`FaultPlan::fail`]) with
/// optional seeded schedules ([`FaultPlan::seeded_transient`],
/// [`FaultPlan::seeded_kills`], [`FaultPlan::seeded_corrupt`]); explicit
/// entries take precedence
/// at indices where both would fire. An empty plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    explicit: Vec<FaultSpec>,
    seeded: Option<Seeded>,
    kills: Option<SeededKills>,
    corrupt: Option<SeededCorrupt>,
    /// Wall-clock cap on one [`InjectedFault::Hang`] stall, in
    /// milliseconds. `None` uses [`FaultPlan::DEFAULT_HANG_CAP_MS`].
    hang_cap_ms: Option<u64>,
}

/// SplitMix64 — the classic 64-bit finaliser; good avalanche, no state,
/// no dependency. Identical on every platform.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Default wall-clock cap on one [`InjectedFault::Hang`] stall.
    pub const DEFAULT_HANG_CAP_MS: u64 = 2_000;

    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `fault` on the `index`-th operation of class `op`
    /// (builder style).
    pub fn fail(mut self, op: FaultOp, index: u64, fault: InjectedFault) -> FaultPlan {
        self.explicit.push(FaultSpec { op, index, fault });
        self
    }

    /// A plan of seeded transient faults: roughly one in `period`
    /// upload/readback/enqueue operations fails with
    /// [`ClError::DeviceBusy`], chosen by a deterministic hash of
    /// `(seed, op, index)`. Build operations are never hit (a kernel
    /// compiles once per actor, so a seeded build fault would dominate
    /// small schedules). `period < 2` is a configuration error: 0 never
    /// fires and 1 faults every operation including the recovery
    /// retries, so no schedule could complete.
    pub fn seeded_transient(seed: u64, period: u64) -> Result<FaultPlan, FaultConfigError> {
        check_period("seeded_transient", period)?;
        Ok(FaultPlan {
            seeded: Some(Seeded { seed, period }),
            ..FaultPlan::default()
        })
    }

    /// Add a seeded actor-kill schedule (builder style): roughly one in
    /// `period` upload/enqueue operations kills the issuing actor, the
    /// mode (panic vs abrupt exit) chosen by the same deterministic hash.
    /// At most `max_kills` kills fire per injector (counting explicit
    /// [`InjectedFault::Kill`] entries too), bounding how much restart
    /// budget a long schedule can consume.
    ///
    /// Only [`FaultOp::Upload`] and [`FaultOp::Enqueue`] are eligible:
    /// read-backs are the rescue/evacuation path (and run on host-side
    /// actors during `mov` force-host, where an injected death has no
    /// supervised kernel actor to restart), and builds happen once per
    /// actor, exactly as for [`FaultPlan::seeded_transient`].
    ///
    /// `period < 2` or `max_kills == 0` are configuration errors — a
    /// kill schedule capped at zero kills is a chaos run that tests
    /// nothing.
    pub fn seeded_kills(
        mut self,
        seed: u64,
        period: u64,
        max_kills: u64,
    ) -> Result<FaultPlan, FaultConfigError> {
        check_period("seeded_kills", period)?;
        if max_kills == 0 {
            return Err(FaultConfigError {
                what: "seeded_kills",
                reason: "max_kills must be >= 1 (a schedule capped at zero kills \
                         injects nothing)"
                    .to_string(),
            });
        }
        self.kills = Some(SeededKills {
            seed,
            period,
            max_kills,
        });
        Ok(self)
    }

    /// Add a seeded silent-corruption schedule (builder style): roughly
    /// one in `period` upload/enqueue/readback operations flips one
    /// deterministic bit of its payload and *succeeds*. Builds are never
    /// hit. `period < 2` is a configuration error.
    pub fn seeded_corrupt(
        mut self,
        seed: u64,
        period: u64,
    ) -> Result<FaultPlan, FaultConfigError> {
        check_period("seeded_corrupt", period)?;
        self.corrupt = Some(SeededCorrupt { seed, period });
        Ok(self)
    }

    /// Cap each [`InjectedFault::Hang`] stall at `ms` wall-clock
    /// milliseconds (builder style). Defaults to
    /// [`FaultPlan::DEFAULT_HANG_CAP_MS`].
    pub fn with_hang_cap_ms(mut self, ms: u64) -> FaultPlan {
        self.hang_cap_ms = Some(ms);
        self
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty()
            && self.seeded.is_none()
            && self.kills.is_none()
            && self.corrupt.is_none()
    }

    /// Whether any scheduled fault can silently corrupt a payload — the
    /// signal the queue uses to arm its provenance/integrity layer (so
    /// corruption-free runs skip checksums, shadows, and the extra trace
    /// instants entirely).
    pub fn can_corrupt(&self) -> bool {
        self.corrupt.is_some()
            || self
                .explicit
                .iter()
                .any(|s| s.fault == InjectedFault::Corrupt)
    }

    /// The effective wall-clock hang cap.
    pub fn hang_cap(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.hang_cap_ms.unwrap_or(Self::DEFAULT_HANG_CAP_MS))
    }

    fn lookup(&self, op: FaultOp, index: u64) -> Option<InjectedFault> {
        if let Some(s) = self
            .explicit
            .iter()
            .find(|s| s.op == op && s.index == index)
        {
            return Some(s.fault);
        }
        let seeded = self.seeded?;
        if op == FaultOp::Build {
            return None;
        }
        let h = splitmix64(
            seeded
                .seed
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add((op.slot() as u64) << 32)
                .wrapping_add(index),
        );
        h.is_multiple_of(seeded.period)
            .then_some(InjectedFault::Transient)
    }

    /// The seeded-kill schedule's verdict for `(op, index)`, ignoring the
    /// `max_kills` cap (the injector enforces that statefully).
    fn lookup_kill(&self, op: FaultOp, index: u64) -> Option<KillMode> {
        let kills = self.kills?;
        if !matches!(op, FaultOp::Upload | FaultOp::Enqueue) {
            return None;
        }
        let h = splitmix64(
            kills
                .seed
                .wrapping_mul(0x9e6c_5860_6ee3_14a5)
                .wrapping_add((op.slot() as u64) << 40)
                .wrapping_add(index),
        );
        h.is_multiple_of(kills.period).then_some(if (h >> 17) & 1 == 0 {
            KillMode::Panic
        } else {
            KillMode::Exit
        })
    }

    /// The seeded-corruption schedule's verdict for `(op, index)`.
    fn lookup_corrupt(&self, op: FaultOp, index: u64) -> bool {
        let Some(c) = self.corrupt else { return false };
        if op == FaultOp::Build {
            return false;
        }
        let h = splitmix64(
            c.seed
                .wrapping_mul(0xd1b5_4a32_d192_ed03)
                .wrapping_add((op.slot() as u64) << 36)
                .wrapping_add(index),
        );
        h.is_multiple_of(c.period)
    }

    fn max_kills(&self) -> u64 {
        self.kills.map(|k| k.max_kills).unwrap_or(u64::MAX)
    }
}

/// A fault that actually fired, as recorded by the injector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Operation class the fault fired on.
    pub op: FaultOp,
    /// Operation index it fired at.
    pub index: u64,
    /// Device whose operation the fault fired on.
    pub device: String,
    /// Stable lowercase fault-kind label: `"transient"`,
    /// `"device_lost"`, `"kill"`, `"corrupt"`, `"hang"`.
    pub kind: &'static str,
    /// Whether the fault was transient (retryable).
    pub transient: bool,
    /// The error the operation returned, if the fault is fail-stop.
    /// `None` for the silent classes (corrupt/hang), whose
    /// operations succeed at the point of injection.
    pub error: Option<ClError>,
}

/// The non-fail-stop side effects a fault check asks the caller to
/// apply. Returned by [`FaultInjector::check_effects`]; a default value
/// means "proceed untouched".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultEffect {
    /// Flip this (pre-modulo) bit of the operation's payload.
    pub corrupt_bit: Option<u64>,
}

#[derive(Debug)]
struct InjectorInner {
    plan: FaultPlan,
    /// Per-[`FaultOp`] operation counters (see [`FaultOp::slot`]).
    counters: [AtomicU64; 4],
    /// Latched by a fired [`InjectedFault::DeviceLost`].
    device_lost: AtomicBool,
    /// Kills fired so far (seeded kills stop once the plan's cap is hit).
    kills_fired: AtomicU64,
    /// Corruption detections reported back by queue integrity layers
    /// (see [`FaultInjector::note_detection`]) — the chaos scoreboard's
    /// "detections" side.
    detections: AtomicU64,
    /// Latch + condvar releasing all current and future
    /// [`InjectedFault::Hang`] stalls. Uses `std::sync` directly: the
    /// workspace's `parking_lot` shim has no condition variable.
    hangs_cancelled: std::sync::Mutex<bool>,
    hang_cvar: std::sync::Condvar,
    records: Mutex<Vec<InjectionRecord>>,
    trace: Mutex<TraceSink>,
}

/// A shared, cloneable fault source built from a [`FaultPlan`].
///
/// Attach it to a device lane with [`crate::Context::attach_faults`]: the
/// context's builds and every command of every queue over it draw from
/// it. All clones share the same counters, so one injector attached to
/// several lanes sees one consistent operation sequence.
/// [`FaultInjector::disabled`] (the default attachment everywhere) is
/// inert and free.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<InjectorInner>>,
}

impl FaultInjector {
    /// An injector that fires `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner: Some(Arc::new(InjectorInner {
                plan,
                counters: [
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                    AtomicU64::new(0),
                ],
                device_lost: AtomicBool::new(false),
                kills_fired: AtomicU64::new(0),
                detections: AtomicU64::new(0),
                hangs_cancelled: std::sync::Mutex::new(false),
                hang_cvar: std::sync::Condvar::new(),
                records: Mutex::new(Vec::new()),
                trace: Mutex::new(TraceSink::disabled()),
            })),
        }
    }

    /// An inert injector (never fires; checks cost one `Option` branch).
    pub fn disabled() -> FaultInjector {
        FaultInjector { inner: None }
    }

    /// Whether this injector can fire faults.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a trace sink: every fired fault is then also recorded as a
    /// [`SpanKind::FaultInjected`] instant on the device's track at the
    /// queue's virtual timestamp. Shared by all clones.
    pub fn attach_trace(&self, sink: TraceSink) {
        if let Some(inner) = &self.inner {
            *inner.trace.lock() = sink;
        }
    }

    /// Consume one operation index of class `op` and fail if the plan
    /// scheduled a fail-stop fault there (or the device is already
    /// lost). Equivalent to [`FaultInjector::check_effects`] with the
    /// silent side effects dropped — used by seams that have no payload
    /// a corruption could apply to (program builds).
    ///
    /// `device` names the track for trace instants; `now_ns` is the
    /// issuing queue's current virtual time. Called by the simulator at
    /// the top of each instrumented entry point — user code does not
    /// normally call this.
    pub fn check(&self, op: FaultOp, device: &str, now_ns: f64) -> ClResult<()> {
        self.check_effects(op, device, now_ns).map(|_| ())
    }

    /// Consume one operation index of class `op`; fail for fail-stop
    /// faults, and return the *silent* side effect (a bit flip) the
    /// caller must apply for silent corruption.
    /// [`InjectedFault::Hang`] is applied right here: the calling thread
    /// stalls on the wall clock until [`FaultInjector::cancel_hangs`] or
    /// the plan's hang cap, then proceeds.
    pub fn check_effects(&self, op: FaultOp, device: &str, now_ns: f64) -> ClResult<FaultEffect> {
        let Some(inner) = &self.inner else {
            return Ok(FaultEffect::default());
        };
        // A lost device refuses everything except rescue read-backs.
        if inner.device_lost.load(Ordering::Acquire) && op != FaultOp::Readback {
            return Err(ClError::DeviceLost {
                device: device.to_string(),
            });
        }
        let index = inner.counters[op.slot()].fetch_add(1, Ordering::AcqRel);
        let fault = match inner.plan.lookup(op, index) {
            Some(f) => f,
            None => {
                // Seeded kills respect the plan's cap: once `max_kills`
                // have fired (from any source), the schedule goes quiet.
                let under_cap =
                    inner.kills_fired.load(Ordering::Acquire) < inner.plan.max_kills();
                match inner.plan.lookup_kill(op, index).filter(|_| under_cap) {
                    Some(mode) => InjectedFault::Kill(mode),
                    None if inner.plan.lookup_corrupt(op, index) => InjectedFault::Corrupt,
                    None => return Ok(FaultEffect::default()),
                }
            }
        };
        let mut kill_mode = None;
        let mut effect = FaultEffect::default();
        let mut hang = false;
        let (kind, transient, error) = match fault {
            InjectedFault::Transient => (
                "transient",
                true,
                Some(ClError::DeviceBusy {
                    device: device.to_string(),
                }),
            ),
            InjectedFault::DeviceLost => {
                inner.device_lost.store(true, Ordering::Release);
                (
                    "device_lost",
                    false,
                    Some(ClError::DeviceLost {
                        device: device.to_string(),
                    }),
                )
            }
            InjectedFault::Kill(mode) => {
                inner.kills_fired.fetch_add(1, Ordering::AcqRel);
                kill_mode = Some(mode);
                (
                    "kill",
                    false,
                    Some(ClError::ActorKilled {
                        device: device.to_string(),
                    }),
                )
            }
            InjectedFault::Corrupt => {
                // The bit to flip is itself seeded: same plan, same
                // workload → same flip on every machine.
                effect.corrupt_bit = Some(splitmix64(
                    0x5b1c_e8f0_a3d9_4721_u64
                        .wrapping_add((op.slot() as u64) << 48)
                        .wrapping_add(index),
                ));
                ("corrupt", false, None)
            }
            InjectedFault::Hang => {
                hang = true;
                ("hang", false, None)
            }
        };
        inner.records.lock().push(InjectionRecord {
            op,
            index,
            device: device.to_string(),
            kind,
            transient,
            error: error.clone(),
        });
        {
            let trace = inner.trace.lock();
            if trace.is_enabled() {
                let span = if kind == "corrupt" {
                    SpanKind::CorruptionInjected
                } else {
                    SpanKind::FaultInjected
                };
                let mut ev = TraceEvent::instant(span, op.name(), device, now_ns)
                    .with_arg("op", op.name())
                    .with_arg("device", device)
                    .with_arg("kind", kind)
                    .with_arg("index", index)
                    .with_arg("transient", transient);
                if let Some(e) = &error {
                    ev = ev.with_arg("error", e);
                }
                if let Some(bit) = effect.corrupt_bit {
                    ev = ev.with_arg("bit", bit);
                }
                if let Some(mode) = kill_mode {
                    ev = ev.with_arg("kill", mode.name());
                }
                trace.record(ev);
            }
        }
        if let Some(KillMode::Panic) = kill_mode {
            // The actor dies unwinding; the supervisor downcasts this
            // payload out of `catch_unwind` to recognise the injected
            // kill. Locks above are scoped so nothing is held here.
            std::panic::panic_any(KillPanic {
                device: device.to_string(),
                op,
                index,
            });
        }
        if hang {
            // Wall-clock stall: the virtual clock never moves, so the
            // run's outputs and virtual timings stay byte-identical —
            // only real latency (what the serving path's hedge watches)
            // balloons. Bounded by the plan's cap, released early by
            // `cancel_hangs`.
            let cap = inner.plan.hang_cap();
            let deadline = std::time::Instant::now() + cap;
            let mut cancelled = inner
                .hangs_cancelled
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            while !*cancelled {
                let now = std::time::Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = inner
                    .hang_cvar
                    .wait_timeout(cancelled, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                cancelled = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(effect),
        }
    }

    /// Release every current and future [`InjectedFault::Hang`] stall on
    /// this injector (hedging cancels the loser; teardown drains
    /// stragglers). Idempotent.
    pub fn cancel_hangs(&self) {
        if let Some(inner) = &self.inner {
            *inner
                .hangs_cancelled
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = true;
            inner.hang_cvar.notify_all();
        }
    }

    /// Record one corruption detection (called by a queue's integrity
    /// layer when a provenance checksum mismatch is caught). The chaos
    /// harness compares this against [`FaultInjector::corrupt_count`]
    /// for its detections == injections gate.
    pub fn note_detection(&self) {
        if let Some(inner) = &self.inner {
            inner.detections.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Corruption detections reported so far.
    pub fn detected_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.detections.load(Ordering::Acquire) as usize,
            None => 0,
        }
    }

    /// Number of [`InjectedFault::Corrupt`] faults fired so far.
    pub fn corrupt_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner
                .records
                .lock()
                .iter()
                .filter(|r| r.kind == "corrupt")
                .count(),
            None => 0,
        }
    }

    /// Whether the plan can silently corrupt payloads (arms the queue's
    /// provenance/integrity layer).
    pub fn can_corrupt(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.plan.can_corrupt(),
            None => false,
        }
    }

    /// Every fault fired so far, in firing order.
    pub fn records(&self) -> Vec<InjectionRecord> {
        match &self.inner {
            Some(inner) => inner.records.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of faults fired so far.
    pub fn injected_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.records.lock().len(),
            None => 0,
        }
    }

    /// Operation indices of class `op` consumed so far, fired or not.
    #[cfg(test)]
    pub(crate) fn drawn(&self, op: FaultOp) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.counters[op.slot()].load(Ordering::Acquire))
    }

    /// Number of [`InjectedFault::Kill`] faults fired so far.
    pub fn kill_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.kills_fired.load(Ordering::Acquire) as usize,
            None => 0,
        }
    }

    /// Whether a [`InjectedFault::DeviceLost`] has fired.
    pub fn device_is_lost(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.device_lost.load(Ordering::Acquire),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::new());
        for i in 0..100 {
            assert!(inj.check(FaultOp::Upload, "gpu", i as f64).is_ok());
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert!(inj.check(FaultOp::Enqueue, "gpu", 0.0).is_ok());
        assert!(inj.records().is_empty());
    }

    #[test]
    fn explicit_transient_fires_once_at_its_index() {
        let inj =
            FaultInjector::new(FaultPlan::new().fail(FaultOp::Upload, 2, InjectedFault::Transient));
        assert!(inj.check(FaultOp::Upload, "gpu", 0.0).is_ok()); // 0
        assert!(inj.check(FaultOp::Upload, "gpu", 0.0).is_ok()); // 1
        let err = inj.check(FaultOp::Upload, "gpu", 0.0).unwrap_err(); // 2
        assert!(err.is_transient());
        assert!(inj.check(FaultOp::Upload, "gpu", 0.0).is_ok()); // 3 (the retry)
        assert_eq!(inj.injected_count(), 1);
        // Other op classes have independent counters.
        assert!(inj.check(FaultOp::Enqueue, "gpu", 0.0).is_ok());
    }

    #[test]
    fn device_lost_latches_but_readback_survives() {
        let inj = FaultInjector::new(FaultPlan::new().fail(
            FaultOp::Enqueue,
            0,
            InjectedFault::DeviceLost,
        ));
        let err = inj.check(FaultOp::Enqueue, "gpu", 0.0).unwrap_err();
        assert!(matches!(err, ClError::DeviceLost { .. }));
        assert!(!err.is_transient());
        assert!(inj.device_is_lost());
        // Everything but readback now fails…
        assert!(inj.check(FaultOp::Upload, "gpu", 0.0).is_err());
        assert!(inj.check(FaultOp::Enqueue, "gpu", 0.0).is_err());
        assert!(inj.check(FaultOp::Build, "gpu", 0.0).is_err());
        // …but the rescue path stays open.
        assert!(inj.check(FaultOp::Readback, "gpu", 0.0).is_ok());
        // Only the scheduled fault is recorded, not its aftermath.
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_fire() {
        let plan = FaultPlan::seeded_transient(42, 5).unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..200 {
            let ra = a.check(FaultOp::Upload, "gpu", 0.0);
            let rb = b.check(FaultOp::Upload, "gpu", 0.0);
            assert_eq!(ra.is_ok(), rb.is_ok());
        }
        assert_eq!(a.records(), b.records());
        let n = a.injected_count();
        assert!(n > 0, "a 1-in-5 schedule must fire within 200 ops");
        assert!(n < 200, "must not fire on every op");
        // Different seeds give different schedules.
        let c = FaultInjector::new(FaultPlan::seeded_transient(43, 5).unwrap());
        for _ in 0..200 {
            let _ = c.check(FaultOp::Upload, "gpu", 0.0);
        }
        let idx =
            |inj: &FaultInjector| -> Vec<u64> { inj.records().iter().map(|r| r.index).collect() };
        assert_ne!(idx(&a), idx(&c));
    }

    #[test]
    fn seeded_plans_never_hit_build() {
        let inj = FaultInjector::new(FaultPlan::seeded_transient(7, 2).unwrap());
        for i in 0..500 {
            assert!(inj.check(FaultOp::Build, "gpu", i as f64).is_ok());
        }
    }

    #[test]
    fn degenerate_plan_parameters_are_configuration_errors() {
        assert!(FaultPlan::seeded_transient(1, 0).is_err());
        assert!(FaultPlan::seeded_transient(1, 1).is_err());
        assert!(FaultPlan::new().seeded_kills(1, 0, 3).is_err());
        assert!(FaultPlan::new().seeded_kills(1, 17, 0).is_err());
        assert!(FaultPlan::new().seeded_corrupt(1, 1).is_err());
        let err = FaultPlan::seeded_transient(1, 0).unwrap_err();
        assert!(err.to_string().contains("period"), "{err}");
    }

    #[test]
    fn corrupt_fires_silently_with_a_deterministic_bit() {
        let plan = FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Corrupt);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        assert!(a.can_corrupt());
        let mut bits = Vec::new();
        for inj in [&a, &b] {
            assert_eq!(
                inj.check_effects(FaultOp::Upload, "gpu", 0.0).unwrap(),
                FaultEffect::default()
            );
            let eff = inj.check_effects(FaultOp::Upload, "gpu", 0.0).unwrap();
            bits.push(eff.corrupt_bit.expect("corrupt must yield a bit"));
        }
        assert_eq!(bits[0], bits[1], "same plan, same flip");
        assert_eq!(a.corrupt_count(), 1);
        let rec = &a.records()[0];
        assert_eq!(rec.kind, "corrupt");
        assert_eq!(rec.device, "gpu");
        assert!(rec.error.is_none(), "corruption is silent");
    }

    #[test]
    fn seeded_corrupt_never_hits_build_and_is_deterministic() {
        let plan = FaultPlan::new().seeded_corrupt(9, 3).unwrap();
        let inj = FaultInjector::new(plan.clone());
        for i in 0..200 {
            assert!(inj.check(FaultOp::Build, "gpu", i as f64).is_ok());
        }
        assert_eq!(inj.injected_count(), 0);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..200 {
            let ea = a.check_effects(FaultOp::Readback, "gpu", 0.0).unwrap();
            let eb = b.check_effects(FaultOp::Readback, "gpu", 0.0).unwrap();
            assert_eq!(ea, eb);
        }
        assert!(a.corrupt_count() > 0, "1-in-3 must fire within 200 ops");
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn hang_stalls_until_cancelled_and_then_proceeds() {
        let plan = FaultPlan::new()
            .fail(FaultOp::Enqueue, 0, InjectedFault::Hang)
            .with_hang_cap_ms(10_000);
        let inj = FaultInjector::new(plan);
        let handle = {
            let inj = inj.clone();
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                let eff = inj.check_effects(FaultOp::Enqueue, "gpu", 0.0).unwrap();
                (start.elapsed(), eff)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        inj.cancel_hangs();
        let (elapsed, eff) = handle.join().unwrap();
        assert!(
            elapsed >= std::time::Duration::from_millis(40),
            "hang must actually stall ({elapsed:?})"
        );
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "cancel must release well before the cap ({elapsed:?})"
        );
        assert_eq!(eff, FaultEffect::default(), "the operation proceeds");
        assert_eq!(inj.records()[0].kind, "hang");
        // Once cancelled, later hangs don't stall at all.
        let inj2 = FaultInjector::new(
            FaultPlan::new()
                .fail(FaultOp::Enqueue, 0, InjectedFault::Hang)
                .with_hang_cap_ms(10_000),
        );
        inj2.cancel_hangs();
        let start = std::time::Instant::now();
        inj2.check_effects(FaultOp::Enqueue, "gpu", 0.0).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn detection_scoreboard_counts() {
        let inj = FaultInjector::new(FaultPlan::new());
        assert_eq!(inj.detected_count(), 0);
        inj.note_detection();
        inj.note_detection();
        assert_eq!(inj.detected_count(), 2);
        assert_eq!(FaultInjector::disabled().detected_count(), 0);
    }

    #[test]
    fn corruption_instants_carry_injection_details() {
        let sink = TraceSink::new();
        let inj = FaultInjector::new(
            FaultPlan::new().fail(FaultOp::Readback, 0, InjectedFault::Corrupt),
        );
        inj.attach_trace(sink.clone());
        inj.check_effects(FaultOp::Readback, "Virtual GPU", 7.0)
            .unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SpanKind::CorruptionInjected);
        let args = &events[0].args;
        for key in ["op", "device", "kind", "index", "bit"] {
            assert!(
                args.iter().any(|(k, _)| k == key),
                "missing trace arg `{key}`: {args:?}"
            );
        }
    }

    #[test]
    fn fired_faults_are_traced_as_instants() {
        let sink = TraceSink::new();
        let inj =
            FaultInjector::new(FaultPlan::new().fail(FaultOp::Upload, 0, InjectedFault::Transient));
        inj.attach_trace(sink.clone());
        inj.check(FaultOp::Upload, "Virtual GPU", 123.0)
            .unwrap_err();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SpanKind::FaultInjected);
        assert_eq!(events[0].track, "Virtual GPU");
        assert_eq!(events[0].ts_ns, 123.0);
        // Fault instants never contribute to figure segments.
        assert_eq!(sink.segments().total_ns(), 0.0);
    }
}
