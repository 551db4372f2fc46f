//! Actor checkpoints: resume a killed kernel actor without losing work —
//! the restart state machine of the kernel-actor protocol
//! ([`crate::protocol`]), shared by every front end.
//!
//! The fault-injection layer ([`oclsim::fault`]) fires its checks at the
//! **top** of each instrumented entry point, so when a kill lands the
//! device and host are still in a consistent *pre-operation* state: the
//! upload, dispatch, or read-back simply never happened. That invariant
//! makes checkpointing cheap — there is no device state to snapshot.
//! What *is* lost with the actor's thread is the request it was working
//! on: the settings and the input were received from channels and lived
//! on the dead actor's stack.
//!
//! A [`Checkpoint`] keeps exactly that: each work item is tagged with a
//! sequence number when it is accepted, parked in the slot while it is
//! processed, and acknowledged (cleared) only after the result has been
//! sent downstream. A restarted incarnation finds the unacknowledged item
//! and *redelivers* it — at-least-once semantics. The `sent` flag is the
//! sender-side dedup that turns at-least-once into effectively-once: if
//! the previous incarnation died *after* `send` but before the ack, the
//! redelivery acknowledges without re-sending, so downstream never sees a
//! duplicate and end-to-end output stays byte-identical to a fault-free
//! run.
//!
//! The slot is shared (cheap `Clone`) between the supervisor-side factory
//! and each actor incarnation; only the single live incarnation ever
//! locks it for more than a field read. The lock is a
//! [`parking_lot::Mutex`], which does not poison: a kill-panic unwinding
//! through a locked section leaves the parked item intact for the next
//! incarnation.

use crate::protocol::KernelHost;
use ensemble_actors::Out;
use parking_lot::Mutex;
use std::sync::Arc;

/// The work item a kernel actor is currently responsible for.
struct InFlight<P, T> {
    /// Sequence number assigned at acceptance.
    seq: u64,
    /// What the front end needs to (re-)process the request: its decoded
    /// settings and the input data, kept host-side so a restarted actor
    /// re-derives device state by re-uploading.
    payload: P,
    /// Where the result goes.
    output: Out<T>,
    /// Whether the result has already been sent downstream. Redelivery
    /// consults this to suppress duplicate sends (effectively-once).
    sent: bool,
    /// Whether any incarnation has started processing this item. A
    /// redelivery (restart observed) is `attempted && !sent`.
    attempted: bool,
}

struct Slot<P, T> {
    next_seq: u64,
    acked: Option<u64>,
    in_flight: Option<InFlight<P, T>>,
}

/// Shared checkpoint slot for one kernel actor, generic over the parked
/// payload `P` and the result type `T`. See the module docs.
pub struct Checkpoint<P, T> {
    inner: Arc<Mutex<Slot<P, T>>>,
}

impl<P, T> Clone for Checkpoint<P, T> {
    fn clone(&self) -> Self {
        Checkpoint {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<P, T> Default for Checkpoint<P, T> {
    fn default() -> Self {
        Checkpoint::new()
    }
}

impl<P, T> std::fmt::Debug for Checkpoint<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.lock();
        f.debug_struct("Checkpoint")
            .field("next_seq", &s.next_seq)
            .field("acked", &s.acked)
            .field("in_flight", &s.in_flight.as_ref().map(|i| i.seq))
            .finish()
    }
}

impl<P, T> Checkpoint<P, T> {
    /// An empty slot: no item accepted yet.
    pub fn new() -> Checkpoint<P, T> {
        Checkpoint {
            inner: Arc::new(Mutex::new(Slot {
                next_seq: 0,
                acked: None,
                in_flight: None,
            })),
        }
    }

    /// Sequence number of the last item whose result was acknowledged
    /// (sent downstream), if any.
    pub fn acked(&self) -> Option<u64> {
        self.inner.lock().acked
    }

    /// Whether an accepted item has not yet been acknowledged — i.e. a
    /// restarted incarnation would redeliver.
    pub fn has_in_flight(&self) -> bool {
        self.inner.lock().in_flight.is_some()
    }

    /// Accept a request: tag it with the next sequence number and park it.
    /// From here to the acknowledgement the slot owns the request, so a
    /// kill anywhere in between leaves it intact for the next incarnation.
    pub fn park(&self, payload: P, output: Out<T>) {
        let mut slot = self.inner.lock();
        let seq = slot.next_seq;
        slot.next_seq += 1;
        slot.in_flight = Some(InFlight {
            seq,
            payload,
            output,
            sent: false,
            attempted: false,
        });
    }

    /// Run the parked item through `process`, send the result and
    /// acknowledge — the single processing path, whether the item was
    /// just accepted or is being redelivered after a restart (then marked
    /// by a [`trace::SpanKind::CheckpointRestore`] instant; every attempt
    /// re-crosses the [`trace::SpanKind::InvokeNative`] boundary). An item whose
    /// result a dead incarnation already sent is acknowledged without
    /// re-sending: that duplicate would break byte-identity.
    ///
    /// `Ok(true)`: acknowledged, accept the next request. `Ok(false)`: the
    /// downstream receiver is gone; the item is dropped. `Err`: `process`
    /// failed and the item **stays parked** — an injected kill exits the
    /// actor for its supervisor to restart and redeliver; for any other
    /// error the front end calls [`Checkpoint::abandon`]. The item also
    /// stays parked if `process` unwinds (the lock does not poison).
    ///
    /// # Panics
    /// If nothing is parked.
    pub fn drive<E>(
        &self,
        host: &mut KernelHost,
        actor: &str,
        process: impl FnOnce(&mut KernelHost, &P) -> Result<T, E>,
    ) -> Result<bool, E> {
        let mut slot = self.inner.lock();
        let item = slot
            .in_flight
            .as_mut()
            .expect("drive without a parked item");
        if !item.sent {
            if item.attempted {
                host.checkpoint_restore(actor, item.seq);
            }
            item.attempted = true;
            host.invoke_native(actor);
            let result = process(host, &item.payload)?;
            if item.output.send_moved(result).is_err() {
                slot.in_flight = None;
                return Ok(false);
            }
            item.sent = true;
        }
        slot.acked = slot.in_flight.take().map(|item| item.seq);
        Ok(true)
    }

    /// Give up on the parked item after an unrecoverable error: clear it
    /// and poison its output, so downstream receivers observe a typed
    /// failure instead of blocking forever. No-op when nothing is parked.
    pub fn abandon(&self) {
        if let Some(item) = self.inner.lock().in_flight.take() {
            item.output.poison_receivers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{DeviceMatrix, DeviceSel};
    use crate::protocol::KernelSpec;
    use crate::ProfileSink;
    use ensemble_actors::{buffered_channel, ChannelError};
    use trace::{SpanKind, TraceSink};

    fn host(sink: &TraceSink) -> KernelHost {
        let spec = KernelSpec {
            profile: ProfileSink::new().with_trace(sink.clone()),
            ..KernelSpec::in_place(
                "__kernel void k(__global float* a) {}",
                "k",
                DeviceSel::gpu(),
            )
        };
        KernelHost::open(spec, Arc::new(DeviceMatrix::private().unwrap())).unwrap()
    }

    /// How the slot was left by whoever held it before this drive.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Before {
        /// Just parked.
        Fresh,
        /// A previous incarnation started the item and was killed.
        Attempted,
        /// A previous incarnation sent the result and died before the ack.
        Sent,
    }

    #[test]
    fn the_state_machine_in_one_table() {
        struct Case {
            name: &'static str,
            before: Before,
            /// What `process` returns this time (`None`: it must not run).
            process: Option<Result<i32, &'static str>>,
            /// Drop the receiver before driving.
            downstream_gone: bool,
            drive: Result<bool, &'static str>,
            /// (`CheckpointRestore`, `InvokeNative`) instants this drive.
            instants: (usize, usize),
            delivered: Option<i32>,
            acked: bool,
            still_parked: bool,
        }
        let cases = [
            Case {
                name: "fresh item is processed, sent and acknowledged",
                before: Before::Fresh,
                process: Some(Ok(7)),
                downstream_gone: false,
                drive: Ok(true),
                instants: (0, 1),
                delivered: Some(7),
                acked: true,
                still_parked: false,
            },
            Case {
                name: "redelivered unsent item is marked restored and re-processed",
                before: Before::Attempted,
                process: Some(Ok(7)),
                downstream_gone: false,
                drive: Ok(true),
                instants: (1, 1),
                delivered: Some(7),
                acked: true,
                still_parked: false,
            },
            Case {
                name: "sent-but-unacked item is acknowledged without re-sending",
                before: Before::Sent,
                process: None,
                downstream_gone: false,
                drive: Ok(true),
                instants: (0, 0),
                delivered: None,
                acked: true,
                still_parked: false,
            },
            Case {
                name: "a failed attempt leaves the item parked for redelivery",
                before: Before::Fresh,
                process: Some(Err("killed")),
                downstream_gone: false,
                drive: Err("killed"),
                instants: (0, 1),
                delivered: None,
                acked: false,
                still_parked: true,
            },
            Case {
                name: "a vanished receiver drops the item unacknowledged",
                before: Before::Fresh,
                process: Some(Ok(7)),
                downstream_gone: true,
                drive: Ok(false),
                instants: (0, 1),
                delivered: None,
                acked: false,
                still_parked: false,
            },
        ];
        for case in cases {
            let sink = TraceSink::new();
            let mut host = host(&sink);
            let ckpt: Checkpoint<&str, i32> = Checkpoint::new();
            let (out, downstream) = buffered_channel::<i32>(1);
            ckpt.park("payload", out);
            {
                let mut slot = ckpt.inner.lock();
                let item = slot.in_flight.as_mut().unwrap();
                item.attempted = case.before != Before::Fresh;
                item.sent = case.before == Before::Sent;
            }
            let downstream = (!case.downstream_gone).then_some(downstream);

            let drove = ckpt.drive(&mut host, "actor", |_, payload| {
                assert_eq!(*payload, "payload", "{}", case.name);
                case.process.expect("process must not run")
            });
            assert_eq!(drove, case.drive, "{}", case.name);
            let count = |kind| sink.events().iter().filter(|e| e.kind == kind).count();
            assert_eq!(
                (
                    count(SpanKind::CheckpointRestore),
                    count(SpanKind::InvokeNative)
                ),
                case.instants,
                "{}",
                case.name
            );
            if let Some(downstream) = &downstream {
                // (An empty channel whose sender went with the item reads
                // as closed rather than empty.)
                let got = downstream.try_receive().ok().flatten();
                assert_eq!(got, case.delivered, "{}", case.name);
            }
            assert_eq!(ckpt.acked(), case.acked.then_some(0), "{}", case.name);
            assert_eq!(ckpt.has_in_flight(), case.still_parked, "{}", case.name);
        }
    }

    #[test]
    fn abandon_clears_the_item_and_poisons_its_output() {
        let mut host = host(&TraceSink::new());
        let ckpt: Checkpoint<(), i32> = Checkpoint::new();
        let (out, downstream) = buffered_channel::<i32>(1);
        ckpt.park((), out);
        assert_eq!(
            ckpt.drive(&mut host, "actor", |_, _| Err("fatal")),
            Err("fatal")
        );
        assert!(ckpt.has_in_flight());
        ckpt.abandon();
        assert!(!ckpt.has_in_flight());
        assert_eq!(ckpt.acked(), None);
        assert_eq!(downstream.receive(), Err(ChannelError::Poisoned));
        ckpt.abandon(); // nothing parked: no-op
    }

    #[test]
    fn sequence_numbers_advance_and_clones_share_the_slot() {
        let mut host = host(&TraceSink::new());
        let ckpt: Checkpoint<(), i32> = Checkpoint::new();
        let probe = ckpt.clone();
        assert_eq!(probe.acked(), None);
        assert!(!probe.has_in_flight());
        let (out, downstream) = buffered_channel::<i32>(2);
        for seq in 0..2 {
            ckpt.park((), out.clone());
            assert!(probe.has_in_flight());
            assert_eq!(
                ckpt.drive(&mut host, "actor", |_, _| Ok::<_, ()>(1)),
                Ok(true)
            );
            assert_eq!(probe.acked(), Some(seq));
        }
        drop(downstream);
    }
}
