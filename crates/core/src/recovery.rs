//! Supervised recovery: bounded retry with virtual-clock backoff, and
//! device failover along the resolver's lane table.
//!
//! The paper's runtime treats every OpenCL error as fatal; this module is
//! the reproduction's robustness layer on top of it. Two mechanisms:
//!
//! * **Retry with backoff** — transient errors
//!   ([`oclsim::ClError::is_transient`], i.e. `CL_OUT_OF_RESOURCES`-class
//!   refusals) are retried a bounded number of times. The backoff between
//!   attempts is charged to the device's *virtual* clock
//!   ([`oclsim::CommandQueue::charge_ns`]), so recovery cost shows up in
//!   the same figures as everything else and stays deterministic.
//! * **Failover** — permanent device-level errors (a lost device,
//!   exhausted device memory, or a transient error that outlived its
//!   retry budget) abandon the device: resident data is evacuated through
//!   the read-back rescue path, and the dispatch is re-issued on the lane
//!   the actor's resolver names next ([`crate::env::ResolveEnv::failover`])
//!   — in practice a GPU → CPU degradation inside the same table.
//!
//! Both paths leave [`trace::SpanKind::Retry`] / [`trace::SpanKind::Failover`]
//! instants on the timeline, so a Chrome trace of a chaos run shows
//! exactly where the schedule fired and what the supervisor did about it.

use crate::env::OpenClEnvironment;
use crate::profile::ProfileSink;
use oclsim::{ClError, ClResult};
use trace::{SpanKind, TraceEvent};

/// How a kernel actor responds to simulator errors.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum re-attempts per operation for transient errors (0 disables
    /// retrying).
    pub max_retries: u32,
    /// Virtual nanoseconds charged to the device clock before the first
    /// re-attempt.
    pub backoff_ns: f64,
    /// Multiplier applied to the backoff after every failed re-attempt
    /// (exponential backoff).
    pub backoff_factor: f64,
}

impl Default for RecoveryPolicy {
    /// Four retries starting at 2 µs (virtual) doubling each time —
    /// enough to ride out any plausible transient schedule while keeping
    /// the worst-case added virtual time bounded (30 µs per operation).
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 4,
            backoff_ns: 2_000.0,
            backoff_factor: 2.0,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that retries nothing — the paper's original fail-fast
    /// behaviour for transients.
    pub fn none() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff_ns: 0.0,
            backoff_factor: 1.0,
        }
    }
}

/// Whether `error` should move the work to another device: device-level
/// conditions (lost device, exhausted device memory, a transient refusal
/// that outlived its retry budget) — not programming
/// errors, which would fail identically everywhere. Whether a device is
/// *left* to go to is the resolver's answer
/// ([`crate::env::ResolveEnv::failover`]), not the policy's.
pub fn should_fail_over(error: &ClError) -> bool {
    matches!(
        error,
        ClError::DeviceLost { .. } | ClError::DeviceBusy { .. } | ClError::OutOfDeviceMemory { .. }
    )
}

/// Run `op`, re-attempting transient failures up to `policy.max_retries`
/// times with exponential backoff charged to `queue`'s virtual clock.
/// Each re-attempt leaves a [`SpanKind::Retry`] instant (named `what`) on
/// the `device` trace track.
///
/// Detected-and-repaired silent corruption
/// ([`oclsim::ClError::is_integrity`]) is also retried — the queue has
/// already restored the offending buffer from its provenance shadow, so
/// the re-issue recomputes from the last checkpoint — but its backoff is
/// charged to the queue's *repair* accounting
/// ([`oclsim::CommandQueue::charge_repair_ns`]) instead of the main
/// virtual clock, so a recovered run's clock stays byte-identical to a
/// fault-free one.
pub fn with_retry<T>(
    policy: &RecoveryPolicy,
    queue: &oclsim::CommandQueue,
    device: &str,
    profile: &ProfileSink,
    what: &str,
    mut op: impl FnMut() -> ClResult<T>,
) -> ClResult<T> {
    let mut backoff = policy.backoff_ns;
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if (e.is_transient() || e.is_integrity()) && attempt < policy.max_retries => {
                attempt += 1;
                let repair = e.is_integrity();
                if repair {
                    queue.charge_repair_ns(backoff);
                } else {
                    queue.charge_ns(backoff);
                }
                let t = profile.trace();
                if t.is_enabled() {
                    t.record(
                        TraceEvent::instant(SpanKind::Retry, what, device, queue.now_ns())
                            .with_arg("attempt", attempt)
                            .with_arg("backoff_ns", backoff)
                            .with_arg("repair", repair)
                            .with_arg("error", &e),
                    );
                }
                backoff *= policy.backoff_factor;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Record a [`SpanKind::Failover`] instant on the *abandoned* device's
/// track, at the moment (on its virtual clock) the supervisor gave up on
/// it. `what` names the migrating work, `error` says why.
pub fn record_failover(
    profile: &ProfileSink,
    from: &OpenClEnvironment,
    to: &OpenClEnvironment,
    what: &str,
    error: &ClError,
) {
    let t = profile.trace();
    if t.is_enabled() {
        t.record(
            TraceEvent::instant(
                SpanKind::Failover,
                what,
                from.device.name(),
                from.queue.now_ns(),
            )
            .with_arg(
                "to",
                from.device.name().to_string() + " -> " + to.device.name(),
            )
            .with_arg("error", error),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::private_gpu_env as gpu_env;
    use trace::TraceSink;

    #[test]
    fn first_success_needs_no_retries() {
        let env = gpu_env();
        let profile = ProfileSink::new();
        let before = env.queue.now_ns();
        let r = with_retry(
            &RecoveryPolicy::default(),
            &env.queue,
            env.device.name(),
            &profile,
            "op",
            || Ok::<_, ClError>(7),
        );
        assert_eq!(r, Ok(7));
        assert_eq!(env.queue.now_ns(), before, "no backoff charged");
    }

    #[test]
    fn transient_errors_are_retried_with_charged_backoff() {
        let env = gpu_env();
        let sink = TraceSink::new();
        let profile = ProfileSink::new().with_trace(sink.clone());
        let before = env.queue.now_ns();
        let mut failures_left = 2;
        let r = with_retry(
            &RecoveryPolicy::default(),
            &env.queue,
            env.device.name(),
            &profile,
            "op",
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(ClError::DeviceBusy {
                        device: "GPU".into(),
                    })
                } else {
                    Ok(41)
                }
            },
        );
        assert_eq!(r, Ok(41));
        // 2000 + 4000 virtual ns of backoff were charged to the queue.
        assert!((env.queue.now_ns() - before - 6_000.0).abs() < 1e-6);
        let retries = sink
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::Retry)
            .count();
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let env = gpu_env();
        let profile = ProfileSink::new();
        let policy = RecoveryPolicy {
            max_retries: 3,
            ..RecoveryPolicy::default()
        };
        let mut calls = 0u32;
        let r: ClResult<()> = with_retry(
            &policy,
            &env.queue,
            env.device.name(),
            &profile,
            "op",
            || {
                calls += 1;
                Err(ClError::DeviceBusy {
                    device: "GPU".into(),
                })
            },
        );
        assert!(matches!(r, Err(ClError::DeviceBusy { .. })));
        assert_eq!(calls, 4, "initial attempt + 3 retries");
    }

    #[test]
    fn integrity_violations_are_retried_on_the_repair_clock() {
        let env = gpu_env();
        let sink = TraceSink::new();
        let profile = ProfileSink::new().with_trace(sink.clone());
        let before = env.queue.now_ns();
        let mut failures_left = 2;
        let r = with_retry(
            &RecoveryPolicy::default(),
            &env.queue,
            env.device.name(),
            &profile,
            "op",
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(ClError::IntegrityViolation {
                        device: "GPU".into(),
                        buffer: 1,
                        expected: 2,
                        actual: 3,
                    })
                } else {
                    Ok(13)
                }
            },
        );
        assert_eq!(r, Ok(13));
        // Backoff went to repair accounting; the main virtual clock is
        // byte-identical to a fault-free run.
        assert_eq!(env.queue.now_ns().to_bits(), before.to_bits());
        assert!((env.queue.repair_ns() - 6_000.0).abs() < 1e-6);
        let repair_retries = sink
            .events()
            .iter()
            .filter(|e| {
                e.kind == SpanKind::Retry
                    && e.args.iter().any(|(k, v)| k == "repair" && v == "true")
            })
            .count();
        assert_eq!(repair_retries, 2);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let env = gpu_env();
        let profile = ProfileSink::new();
        let mut calls = 0u32;
        let r: ClResult<()> = with_retry(
            &RecoveryPolicy::default(),
            &env.queue,
            env.device.name(),
            &profile,
            "op",
            || {
                calls += 1;
                Err(ClError::DeviceLost {
                    device: "GPU".into(),
                })
            },
        );
        assert!(matches!(r, Err(ClError::DeviceLost { .. })));
        assert_eq!(calls, 1);
    }

    #[test]
    fn failover_classification() {
        assert!(should_fail_over(&ClError::DeviceLost {
            device: "g".into()
        }));
        assert!(should_fail_over(&ClError::DeviceBusy {
            device: "g".into()
        }));
        assert!(should_fail_over(&ClError::OutOfDeviceMemory {
            requested: 1,
            available: 0
        }));
        assert!(!should_fail_over(&ClError::BuildFailure {
            log: "x".into()
        }));
        assert!(!should_fail_over(&ClError::InvalidKernelArgs("x".into())));
    }
}
