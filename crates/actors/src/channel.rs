//! Typed, unidirectional channels with Ensemble semantics (§4).
//!
//! * Channels connect an [`Out`] endpoint to one or more [`In`] endpoints.
//! * An `In` may carry an optional buffer; with no buffer (or a full one)
//!   communication is synchronous and blocking — the sender rendezvouses
//!   with the receiver, exactly as the paper describes.
//! * `send` **duplicates** the value (shared-nothing semantics: sender and
//!   receiver each own an independent copy). `send_moved` transfers
//!   ownership without a copy — this is Ensemble's `mov`. The paper's
//!   compile-time inter-procedural check that a moved value is not touched
//!   again is exactly Rust's move checker, so it needs no runtime machinery
//!   here.
//! * Endpoints are first-class values that can themselves be sent through
//!   channels — the dynamic-channel pattern the OpenCL settings protocol
//!   relies on (Listing 3 of the paper).
//!
//! Topologies: `connect` may be called many times on one `Out` (1-n;
//! deliveries rotate round-robin across receivers) and many `Out`s may
//! connect to one `In` (n-1). `broadcast` additionally clones to *every*
//! connected receiver.
//!
//! Disconnection: a receiver learns that a channel is closed when every
//! connection made to it has been dropped (and the buffer is drained).
//! Connections are tracked explicitly — the `In` endpoint itself holds a
//! sender handle for future `connect` calls, so raw crossbeam disconnect
//! detection would never fire; instead each connection carries a guard and
//! blocked receives poll at a coarse interval while also waiting on the
//! underlying channel.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{SpanKind, TraceEvent, TraceSink};

/// Error returned when a channel operation cannot complete because the
/// other side is gone, poisoned, or too slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Every connected receiver has been dropped (send side).
    NoReceivers,
    /// Every connection to this receiver has been dropped and the buffer is
    /// drained (receive side).
    Closed,
    /// The `Out` endpoint has no connections yet.
    NotConnected,
    /// The peer poisoned the channel because it failed: the pipeline is
    /// being torn down. Distinguishable from [`ChannelError::Closed`]
    /// (orderly completion) so supervisors can report the difference.
    Poisoned,
    /// [`In::recv_timeout`]'s deadline passed with no message.
    TimedOut,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::NoReceivers => write!(f, "all receivers disconnected"),
            ChannelError::Closed => write!(f, "channel closed"),
            ChannelError::NotConnected => write!(f, "out endpoint is not connected"),
            ChannelError::Poisoned => write!(f, "channel poisoned by a failed peer"),
            ChannelError::TimedOut => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Receiver-side connection bookkeeping shared with every connection guard.
#[derive(Debug, Default)]
struct InState {
    /// Live connections into this endpoint.
    connected: AtomicUsize,
    /// Whether any connection was ever made (an unconnected endpoint blocks
    /// rather than reporting `Closed` — it may be connected later).
    ever_connected: AtomicBool,
    /// Set by a failed peer: receives fail fast (after draining buffered
    /// messages) and blocked senders into this endpoint give up, instead
    /// of both sides deadlocking on a rendezvous that will never happen.
    poisoned: AtomicBool,
}

/// One live `Out` → `In` connection. Dropping the guard (when the owning
/// `Out` network drops) decrements the receiver's connection count.
#[derive(Debug)]
struct Connection<T> {
    sender: Sender<T>,
    state: Arc<InState>,
}

impl<T> Drop for Connection<T> {
    fn drop(&mut self) {
        self.state.connected.fetch_sub(1, Ordering::AcqRel);
    }
}

/// How long a blocked receive waits on the underlying channel before
/// re-checking whether every connection has dropped.
const DISCONNECT_POLL: Duration = Duration::from_millis(2);

/// The receiving endpoint of a typed channel.
///
/// Single-consumer: `In` is deliberately not `Clone`. It is `Send`, so it
/// can travel through other channels (dynamic channel composition).
#[derive(Debug)]
pub struct In<T> {
    sender: Sender<T>,
    receiver: Receiver<T>,
    state: Arc<InState>,
    capacity: usize,
    trace: TraceSink,
    label: String,
}

impl<T> In<T> {
    /// Create an unbuffered (rendezvous) input endpoint: `new in T`.
    pub fn new() -> In<T> {
        In::with_buffer(0)
    }

    /// Create an input endpoint with an asynchrony buffer of `capacity`
    /// messages. Sends block once the buffer fills (the paper's "reverts to
    /// synchronous" rule).
    pub fn with_buffer(capacity: usize) -> In<T> {
        let (sender, receiver) = bounded(capacity);
        In {
            sender,
            receiver,
            state: Arc::new(InState::default()),
            capacity,
            trace: TraceSink::disabled(),
            label: String::new(),
        }
    }

    /// Attach a trace sink: every blocked [`In::receive`] on this endpoint
    /// then emits a wall-clock [`SpanKind::ChannelWait`] span on the
    /// `label` track, making actor blocking time visible on a timeline.
    pub fn set_trace(&mut self, sink: TraceSink, label: impl Into<String>) {
        self.trace = sink;
        self.label = label.into();
    }

    /// Buffer capacity (0 = rendezvous).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live connections into this endpoint.
    pub fn connections(&self) -> usize {
        self.state.connected.load(Ordering::Acquire)
    }

    /// Poison this endpoint: subsequent receives drain any buffered
    /// messages and then fail with [`ChannelError::Poisoned`]; blocked
    /// senders into it give up instead of waiting for a rendezvous that
    /// will never happen. Used by a failed stage to tear down its
    /// pipeline.
    pub fn poison(&self) {
        self.state.poisoned.store(true, Ordering::Release);
    }

    /// Whether this endpoint has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.state.poisoned.load(Ordering::Acquire)
    }

    /// Clear a previous poison so the endpoint can receive again.
    ///
    /// Poison is otherwise latching — needed because teardown is a
    /// one-way street for an *unsupervised* pipeline. A supervisor that
    /// poisoned a doomed sibling's input (its `on_stop` hook) calls this
    /// from the matching `on_restart` hook before the fresh incarnation
    /// starts receiving.
    pub fn clear_poison(&self) {
        self.state.poisoned.store(false, Ordering::Release);
    }

    /// Block until a value arrives: `receive data from input`.
    ///
    /// Returns [`ChannelError::Closed`] once every connection has dropped
    /// and the buffer is drained, and [`ChannelError::Poisoned`] once the
    /// endpoint is poisoned and drained. An endpoint that was *never*
    /// connected blocks (it may be connected dynamically at any time).
    pub fn receive(&self) -> Result<T, ChannelError> {
        self.recv_deadline(None)
    }

    /// Like [`In::receive`], but give up with [`ChannelError::TimedOut`]
    /// if no message arrives within `timeout`. The timeout is wall-clock
    /// (it guards against a *hung* peer, which is a wall-clock phenomenon,
    /// not a simulated-cost one).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, ChannelError> {
        self.recv_deadline(Some(Instant::now() + timeout))
    }

    /// Like [`In::receive`], but give up with [`ChannelError::TimedOut`]
    /// once the absolute `deadline` passes (`None` blocks indefinitely,
    /// exactly like [`In::receive`]).
    ///
    /// This is the serving-path primitive: a session's per-request
    /// deadline is one absolute instant, and every blocking receive on
    /// the session's path checks against it — a timeout on any of them
    /// sheds the request instead of wedging the shared device pool.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, ChannelError> {
        let wait_start = if self.trace.is_enabled() {
            Some(self.trace.wall_ns())
        } else {
            None
        };
        let result = loop {
            // Deliver in-flight messages even after poisoning — only fail
            // once the buffer is drained, so data already produced by an
            // upstream stage is not silently dropped during teardown.
            if self.state.poisoned.load(Ordering::Acquire) {
                break match self.receiver.try_recv() {
                    Ok(v) => Ok(v),
                    Err(_) => Err(ChannelError::Poisoned),
                };
            }
            match self.receiver.recv_timeout(DISCONNECT_POLL) {
                Ok(v) => break Ok(v),
                Err(RecvTimeoutError::Disconnected) => break Err(ChannelError::Closed),
                Err(RecvTimeoutError::Timeout) => {
                    if self.state.ever_connected.load(Ordering::Acquire)
                        && self.state.connected.load(Ordering::Acquire) == 0
                    {
                        // Final drain: a value may have landed between the
                        // timeout and the check.
                        break match self.receiver.try_recv() {
                            Ok(v) => Ok(v),
                            Err(_) => Err(ChannelError::Closed),
                        };
                    }
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            break match self.receiver.try_recv() {
                                Ok(v) => Ok(v),
                                Err(_) => Err(ChannelError::TimedOut),
                            };
                        }
                    }
                }
            }
        };
        if let Some(t0) = wait_start {
            self.trace.record(
                TraceEvent::span(
                    SpanKind::ChannelWait,
                    "recv_wait",
                    &self.label,
                    t0,
                    self.trace.wall_ns() - t0,
                )
                .with_arg("clock", "wall"),
            );
        }
        result
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_receive(&self) -> Result<Option<T>, ChannelError> {
        match self.receiver.try_recv() {
            Ok(v) => Ok(Some(v)),
            Err(crossbeam::channel::TryRecvError::Empty) => {
                if self.state.ever_connected.load(Ordering::Acquire)
                    && self.state.connected.load(Ordering::Acquire) == 0
                {
                    // Final drain: a message may have landed between the
                    // empty poll and the connection-count check (same
                    // window `receive` guards against).
                    match self.receiver.try_recv() {
                        Ok(v) => Ok(Some(v)),
                        Err(_) => Err(ChannelError::Closed),
                    }
                } else {
                    Ok(None)
                }
            }
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(ChannelError::Closed),
        }
    }

    fn make_connection(&self) -> Connection<T> {
        self.state.connected.fetch_add(1, Ordering::AcqRel);
        self.state.ever_connected.store(true, Ordering::Release);
        Connection {
            sender: self.sender.clone(),
            state: Arc::clone(&self.state),
        }
    }

    /// A connector for this endpoint: a cheap token that lets `Out`s be
    /// connected to this `In` *after* the `In` itself has moved into an
    /// actor. This is what makes Ensemble's "reconnect the configuration
    /// channel to an appropriate kernel actor" (§6.1.1) expressible: hold
    /// the connector, move the endpoint.
    pub fn connector(&self) -> InConnector<T> {
        InConnector {
            sender: self.sender.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

/// A token referring to some `In` endpoint, usable to connect `Out`s to it
/// even after the endpoint moved into its owning actor.
#[derive(Debug, Clone)]
pub struct InConnector<T> {
    sender: Sender<T>,
    state: Arc<InState>,
}

impl<T> InConnector<T> {
    /// Poison the referred-to endpoint (see [`In::poison`]) — usable even
    /// after the endpoint itself moved into its owning actor.
    pub fn poison(&self) {
        self.state.poisoned.store(true, Ordering::Release);
    }

    /// Clear a previous poison (see [`In::clear_poison`]) — the
    /// supervisor-side revive used when a stopped child is restarted.
    pub fn clear_poison(&self) {
        self.state.poisoned.store(false, Ordering::Release);
    }
}

impl<T> Default for In<T> {
    fn default() -> Self {
        In::new()
    }
}

/// The sending endpoint of a typed channel.
///
/// Cloning an `Out` yields another sender into the same connection set
/// (n-1 composition); connections live as long as any clone does.
#[derive(Debug)]
pub struct Out<T> {
    targets: Arc<Mutex<Targets<T>>>,
    trace: Arc<Mutex<Option<(TraceSink, String)>>>,
}

// Not derived: a clone shares the connection set, so `T` need not be `Clone`.
impl<T> Clone for Out<T> {
    fn clone(&self) -> Self {
        Out {
            targets: Arc::clone(&self.targets),
            trace: Arc::clone(&self.trace),
        }
    }
}

#[derive(Debug)]
struct Targets<T> {
    connections: Vec<Arc<Connection<T>>>,
    next: usize,
}

impl<T> Out<T> {
    /// Create an unconnected output endpoint: `new out T`.
    pub fn new() -> Out<T> {
        Out {
            targets: Arc::new(Mutex::new(Targets {
                connections: Vec::new(),
                next: 0,
            })),
            trace: Arc::new(Mutex::new(None)),
        }
    }

    /// Attach a trace sink: every delivery through this endpoint then
    /// emits a wall-clock instant on the `label` track —
    /// [`SpanKind::Duplicate`] for copying sends ([`Out::send`],
    /// [`Out::broadcast`]) and [`SpanKind::MovTransfer`] for ownership
    /// transfers ([`Out::send_moved`]). Shared by every clone.
    pub fn set_trace(&self, sink: TraceSink, label: impl Into<String>) {
        *self.trace.lock() = Some((sink, label.into()));
    }

    fn trace_send(&self, kind: SpanKind, name: &str) {
        if let Some((sink, label)) = &*self.trace.lock() {
            sink.record(
                TraceEvent::instant(kind, name, label, sink.wall_ns()).with_arg("clock", "wall"),
            );
        }
    }

    /// Connect this output to an input: `connect s.output to r.input`.
    pub fn connect(&self, input: &In<T>) {
        let conn = Arc::new(input.make_connection());
        self.targets.lock().connections.push(conn);
    }

    /// Connect through a connector token (the endpoint itself may already
    /// live inside another actor).
    pub fn connect_via(&self, connector: &InConnector<T>) {
        connector.state.connected.fetch_add(1, Ordering::AcqRel);
        connector
            .state
            .ever_connected
            .store(true, Ordering::Release);
        let conn = Arc::new(Connection {
            sender: connector.sender.clone(),
            state: Arc::clone(&connector.state),
        });
        self.targets.lock().connections.push(conn);
    }

    /// Drop every connection of this output — the first half of Ensemble's
    /// runtime *reconnect*. Receivers whose last connection this was will
    /// observe closure once their buffers drain.
    pub fn disconnect_all(&self) {
        self.targets.lock().connections.clear();
    }

    /// Number of currently connected receivers.
    pub fn fan_out(&self) -> usize {
        self.targets.lock().connections.len()
    }

    /// Poison every connected receiver (see [`In::poison`]): the failure
    /// notification a dying stage sends downstream so the rest of the
    /// pipeline unwinds instead of deadlocking on a rendezvous.
    pub fn poison_receivers(&self) {
        for c in self.targets.lock().connections.iter() {
            c.state.poisoned.store(true, Ordering::Release);
        }
    }

    fn send_inner(&self, mut value: T) -> Result<(), ChannelError> {
        loop {
            // Pick the next live target round-robin without holding the lock
            // across the (possibly blocking) send.
            let target = {
                let mut t = self.targets.lock();
                if t.connections.is_empty() {
                    return Err(ChannelError::NotConnected);
                }
                let idx = t.next % t.connections.len();
                t.next = t.next.wrapping_add(1);
                Arc::clone(&t.connections[idx])
            };
            if target.state.poisoned.load(Ordering::Acquire) {
                // The receiver's stage failed: don't rendezvous with a peer
                // that will never pick the message up. Forget the target and
                // retry with the rest, reporting `Poisoned` once none remain.
                let mut t = self.targets.lock();
                t.connections
                    .retain(|c| !c.sender.same_channel(&target.sender));
                if t.connections.is_empty() {
                    return Err(ChannelError::Poisoned);
                }
                continue;
            }
            // Bounded waits (instead of one indefinitely blocking send) so a
            // sender parked on a rendezvous observes poisoning that happens
            // *after* it blocked.
            match target.sender.send_timeout(value, DISCONNECT_POLL) {
                Ok(()) => return Ok(()),
                Err(SendTimeoutError::Timeout(v)) => {
                    // Re-run the poison/liveness checks, then wait again.
                    value = v;
                }
                Err(SendTimeoutError::Disconnected(v)) => {
                    // Receiver vanished: forget it and retry with the rest.
                    value = v;
                    let mut t = self.targets.lock();
                    t.connections
                        .retain(|c| !c.sender.same_channel(&target.sender));
                    if t.connections.is_empty() {
                        return Err(ChannelError::NoReceivers);
                    }
                }
            }
        }
    }

    /// Send a **duplicate** of `value` (the shared-nothing default): the
    /// sender keeps its copy, the receiver gets an independent one.
    pub fn send(&self, value: &T) -> Result<(), ChannelError>
    where
        T: Clone,
    {
        self.send_inner(value.clone())?;
        self.trace_send(SpanKind::Duplicate, "send_dup");
        Ok(())
    }

    /// Send `value` by **moving** it — Ensemble's `mov` channels. No copy
    /// is made; the Rust move checker enforces, at compile time, that the
    /// sender never touches the value again (the paper implements the same
    /// guarantee with inter-procedural analysis in the Ensemble compiler).
    pub fn send_moved(&self, value: T) -> Result<(), ChannelError> {
        self.send_inner(value)?;
        self.trace_send(SpanKind::MovTransfer, "send_mov");
        Ok(())
    }

    /// Deliver a duplicate to *every* connected receiver.
    pub fn broadcast(&self, value: &T) -> Result<(), ChannelError>
    where
        T: Clone,
    {
        let connections = self.targets.lock().connections.clone();
        if connections.is_empty() {
            return Err(ChannelError::NotConnected);
        }
        let mut delivered = 0;
        let mut dead: Vec<Sender<T>> = Vec::new();
        for c in connections {
            let mut payload = value.clone();
            loop {
                if c.state.poisoned.load(Ordering::Acquire) {
                    dead.push(c.sender.clone());
                    break;
                }
                match c.sender.send_timeout(payload, DISCONNECT_POLL) {
                    Ok(()) => {
                        delivered += 1;
                        break;
                    }
                    Err(SendTimeoutError::Timeout(v)) => payload = v,
                    Err(SendTimeoutError::Disconnected(_)) => {
                        dead.push(c.sender.clone());
                        break;
                    }
                }
            }
        }
        if !dead.is_empty() {
            // Prune dropped receivers, as send_inner does.
            self.targets
                .lock()
                .connections
                .retain(|c| !dead.iter().any(|d| d.same_channel(&c.sender)));
        }
        if delivered == 0 {
            Err(ChannelError::NoReceivers)
        } else {
            self.trace_send(SpanKind::Duplicate, "broadcast");
            Ok(())
        }
    }
}

impl<T> Default for Out<T> {
    fn default() -> Self {
        Out::new()
    }
}

/// Create a pre-connected rendezvous channel pair (convenience for the
/// common 1-1 case).
pub fn channel<T>() -> (Out<T>, In<T>) {
    let i = In::new();
    let o = Out::new();
    o.connect(&i);
    (o, i)
}

/// Create a pre-connected channel pair with a buffer of `capacity`.
pub fn buffered_channel<T>(capacity: usize) -> (Out<T>, In<T>) {
    let i = In::with_buffer(capacity);
    let o = Out::new();
    o.connect(&i);
    (o, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn rendezvous_send_receive() {
        let (o, i) = channel::<i32>();
        let t = thread::spawn(move || i.receive().unwrap());
        o.send(&42).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn buffered_send_does_not_block_until_full() {
        let (o, i) = buffered_channel::<i32>(2);
        o.send(&1).unwrap();
        o.send(&2).unwrap();
        assert_eq!(i.receive().unwrap(), 1);
        assert_eq!(i.receive().unwrap(), 2);
    }

    #[test]
    fn unconnected_out_errors() {
        let o = Out::<i32>::new();
        assert_eq!(o.send(&1), Err(ChannelError::NotConnected));
    }

    #[test]
    fn send_duplicates_value() {
        // The sender keeps using its copy after sending (Listing 2: the
        // sender increments `value` after each send).
        let (o, i) = buffered_channel::<Vec<i32>>(1);
        let mut v = vec![1, 2, 3];
        o.send(&v).unwrap();
        v[0] = 99;
        assert_eq!(i.receive().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn send_moved_transfers_without_copy() {
        #[derive(Debug, PartialEq)]
        struct NoClone(i32);
        let (o, i) = buffered_channel::<NoClone>(1);
        o.send_moved(NoClone(7)).unwrap();
        assert_eq!(i.receive().unwrap(), NoClone(7));
    }

    #[test]
    fn n_to_1_topology() {
        let i = In::with_buffer(4);
        let o1 = Out::new();
        let o2 = Out::new();
        o1.connect(&i);
        o2.connect(&i);
        assert_eq!(i.connections(), 2);
        o1.send(&1).unwrap();
        o2.send(&2).unwrap();
        let mut got = vec![i.receive().unwrap(), i.receive().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn one_to_n_round_robin() {
        let a = In::with_buffer(4);
        let b = In::with_buffer(4);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        assert_eq!(o.fan_out(), 2);
        for k in 0..4 {
            o.send(&k).unwrap();
        }
        let got_a = [a.receive().unwrap(), a.receive().unwrap()];
        let got_b = [b.receive().unwrap(), b.receive().unwrap()];
        assert_eq!(got_a, [0, 2]);
        assert_eq!(got_b, [1, 3]);
    }

    #[test]
    fn broadcast_reaches_every_receiver() {
        let a = In::with_buffer(1);
        let b = In::with_buffer(1);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        o.broadcast(&9).unwrap();
        assert_eq!(a.receive().unwrap(), 9);
        assert_eq!(b.receive().unwrap(), 9);
    }

    #[test]
    fn receive_after_all_senders_drop_errors() {
        let (o, i) = buffered_channel::<i32>(1);
        o.send(&5).unwrap();
        drop(o);
        assert_eq!(i.receive().unwrap(), 5);
        assert_eq!(i.receive(), Err(ChannelError::Closed));
    }

    #[test]
    fn cloned_out_keeps_connection_alive() {
        let (o, i) = buffered_channel::<i32>(1);
        let o2 = o.clone();
        drop(o);
        o2.send(&1).unwrap();
        assert_eq!(i.receive().unwrap(), 1);
        drop(o2);
        assert_eq!(i.receive(), Err(ChannelError::Closed));
    }

    #[test]
    fn blocked_receive_unblocks_when_sender_drops() {
        // The kernel-actor shutdown path: an actor parked on its requests
        // channel must wake and stop when the other side goes away.
        let (o, i) = buffered_channel::<i32>(1);
        let t = thread::spawn(move || i.receive());
        thread::sleep(Duration::from_millis(20));
        drop(o);
        assert_eq!(t.join().unwrap(), Err(ChannelError::Closed));
    }

    #[test]
    fn never_connected_in_blocks_rather_than_closing() {
        let i = In::<i32>::with_buffer(1);
        assert_eq!(i.try_receive(), Ok(None));
        // Connect later, then send: dynamic connection must work.
        let o = Out::new();
        o.connect(&i);
        o.send(&3).unwrap();
        assert_eq!(i.receive().unwrap(), 3);
    }

    #[test]
    fn dead_receiver_is_pruned() {
        let a = In::with_buffer(1);
        let b = In::with_buffer(4);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        drop(a);
        for k in 0..3 {
            o.send(&k).unwrap();
        }
        // All three must have landed in `b` despite `a` being first in the
        // rotation.
        assert_eq!(b.receive().unwrap(), 0);
        assert_eq!(b.receive().unwrap(), 1);
        assert_eq!(b.receive().unwrap(), 2);
        assert_eq!(o.fan_out(), 1);
    }

    #[test]
    fn endpoints_travel_through_channels() {
        // The dynamic-channel pattern from Listing 3: send an In endpoint
        // to another thread, which then receives data through it.
        let (ep_out, ep_in) = channel::<In<i32>>();
        let t = thread::spawn(move || {
            let data_in = ep_in.receive().unwrap();
            data_in.receive().unwrap()
        });
        let data = In::with_buffer(1);
        let data_out = Out::new();
        data_out.connect(&data);
        ep_out.send_moved(data).unwrap();
        data_out.send(&123).unwrap();
        assert_eq!(t.join().unwrap(), 123);
    }

    #[test]
    fn rendezvous_blocks_until_receiver_arrives() {
        let (o, i) = channel::<i32>();
        let start = std::time::Instant::now();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            i.receive().unwrap()
        });
        o.send(&1).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(45));
        t.join().unwrap();
    }

    #[test]
    fn try_receive_is_nonblocking() {
        let (o, i) = buffered_channel::<i32>(1);
        assert_eq!(i.try_receive().unwrap(), None);
        o.send(&1).unwrap();
        assert_eq!(i.try_receive().unwrap(), Some(1));
    }

    #[test]
    fn recv_timeout_times_out_without_sender() {
        let (_o, i) = channel::<i32>();
        let start = std::time::Instant::now();
        assert_eq!(
            i.recv_timeout(Duration::from_millis(20)),
            Err(ChannelError::TimedOut)
        );
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn recv_timeout_delivers_when_message_arrives_in_time() {
        let (o, i) = channel::<i32>();
        let t = thread::spawn(move || i.recv_timeout(Duration::from_secs(5)));
        o.send(&11).unwrap();
        assert_eq!(t.join().unwrap(), Ok(11));
    }

    // Regression test for the rendezvous-channel hang: a receiver parked on
    // `receive` whose peer dies (drops its Out mid-protocol) must observe a
    // typed `Closed` error rather than blocking forever — `blocked_receive_
    // unblocks_when_sender_drops` covers the drop half; these cover poison.

    #[test]
    fn poisoned_receive_drains_then_errors() {
        let (o, i) = buffered_channel::<i32>(2);
        o.send(&1).unwrap();
        i.poison();
        // In-flight data is still delivered; only then does the error show.
        assert_eq!(i.receive(), Ok(1));
        assert_eq!(i.receive(), Err(ChannelError::Poisoned));
        assert_eq!(
            i.recv_timeout(Duration::from_secs(5)),
            Err(ChannelError::Poisoned)
        );
    }

    #[test]
    fn poison_wakes_blocked_receiver() {
        let (_o, i) = channel::<i32>();
        let connector = i.connector();
        let t = thread::spawn(move || i.receive());
        thread::sleep(Duration::from_millis(20));
        connector.poison();
        assert_eq!(t.join().unwrap(), Err(ChannelError::Poisoned));
    }

    #[test]
    fn poison_unblocks_rendezvous_sender() {
        // The deadlock this PR removes: a sender parked on a rendezvous
        // whose receiver's stage has failed. Poisoning the receiver must
        // wake the sender with a typed error, not leave it parked forever.
        let (o, i) = channel::<i32>();
        let t = thread::spawn(move || o.send(&7));
        thread::sleep(Duration::from_millis(20));
        i.poison();
        assert_eq!(t.join().unwrap(), Err(ChannelError::Poisoned));
    }

    #[test]
    fn poison_receivers_reaches_every_target() {
        let a = In::<i32>::with_buffer(1);
        let b = In::<i32>::with_buffer(1);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        o.poison_receivers();
        assert!(a.is_poisoned());
        assert!(b.is_poisoned());
        assert_eq!(a.receive(), Err(ChannelError::Poisoned));
        assert_eq!(b.receive(), Err(ChannelError::Poisoned));
    }

    #[test]
    fn send_skips_poisoned_target_in_fan_out() {
        let a = In::<i32>::new(); // rendezvous, nobody will receive
        let b = In::with_buffer(2);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        a.poison();
        // Both sends must land in `b` even though `a` heads the rotation.
        o.send(&1).unwrap();
        o.send(&2).unwrap();
        assert_eq!(b.receive(), Ok(1));
        assert_eq!(b.receive(), Ok(2));
        assert_eq!(o.fan_out(), 1);
    }

    #[test]
    fn broadcast_skips_poisoned_rendezvous_target() {
        let a = In::<i32>::new(); // rendezvous, poisoned: would block forever
        let b = In::with_buffer(1);
        let o = Out::new();
        o.connect(&a);
        o.connect(&b);
        a.poison();
        o.broadcast(&4).unwrap();
        assert_eq!(b.receive(), Ok(4));
    }
}
