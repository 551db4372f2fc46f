//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access to a crates registry, so
//! the workspace patches `crossbeam` to this local shim. Only the
//! [`channel`] module is provided, and only the subset the actor runtime
//! uses: [`channel::bounded`] MPMC channels with rendezvous semantics at
//! capacity 0, timeouts, and disconnect detection. The implementation is
//! a `VecDeque` under a `Mutex` with two `Condvar`s — not lock-free like
//! the real crate, but semantically equivalent for the channel sizes the
//! actor runtime creates (the paper's pipelines move a handful of large
//! messages, not millions of small ones).

pub mod channel {
    //! Multi-producer multi-consumer channels (`crossbeam::channel` subset).

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::send_timeout`]; carries the unsent
    /// message.
    pub enum SendTimeoutError<T> {
        /// The deadline passed before the channel accepted the message.
        Timeout(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("SendTimeoutError::Timeout(..)"),
                SendTimeoutError::Disconnected(_) => {
                    f.write_str("SendTimeoutError::Disconnected(..)")
                }
            }
        }
    }

    impl<T> fmt::Display for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("send timed out"),
                SendTimeoutError::Disconnected(_) => {
                    f.write_str("sending on a disconnected channel")
                }
            }
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers currently parked inside `recv_timeout` — the signal a
        /// rendezvous (capacity 0) sender waits for, and whether a send
        /// has anybody to wake.
        recv_waiting: usize,
        /// Senders currently parked on `send_cv`: whether a receive has
        /// anybody to wake.
        send_waiting: usize,
    }

    impl<T> State<T> {
        /// Rendezvous channels admit a message only once a receiver is
        /// parked waiting for it; buffered channels admit up to `cap`.
        fn admits(&self, cap: usize) -> bool {
            if cap == 0 {
                self.queue.len() < self.recv_waiting
            } else {
                self.queue.len() < cap
            }
        }
    }

    // Wake-up discipline: the parked counts are kept under the state
    // mutex, a side that changes the state reads the other side's count
    // under that mutex, *drops the guard*, and only then notifies — and
    // only if the count was non-zero. A thread woken while the notifier
    // still held the mutex would block on it at once and switch straight
    // back (two context switches for nothing on one CPU); a notify with
    // nobody parked is a wasted `futex` call. No wake-up is lost: a
    // waiter parks atomically with releasing the mutex, so it either saw
    // the new state before parking or is counted when the notifier looks.
    struct Chan<T> {
        cap: usize,
        state: Mutex<State<T>>,
        /// Signalled when space frees up, a receiver starts waiting, or the
        /// receiver side disconnects.
        send_cv: Condvar,
        /// Signalled when a message arrives or the sender side disconnects.
        recv_cv: Condvar,
    }

    /// Nothing but the queue's own bookkeeping runs under the state mutex.
    const POISONED: &str = "a channel operation panicked while holding the state mutex";

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().expect(POISONED)
        }

        /// For `Drop`, which must not panic: every update of the state is
        /// one step, so a poisoned state is still a valid one.
        fn lock_for_drop(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half of a channel. Cloneable; the channel disconnects
    /// for receivers when the last clone is dropped.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel. Cloneable; the channel disconnects
    /// for senders when the last clone is dropped.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Create a bounded MPMC channel. Capacity 0 makes a rendezvous
    /// channel: `send` blocks until a receiver is actively waiting.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            cap,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            send_cv: Condvar::new(),
            recv_cv: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Block until the message is handed to the channel, or return it
        /// in `Err` if every receiver has disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match self.send_until(value, None) {
                Ok(()) => Ok(()),
                Err(SendTimeoutError::Disconnected(v)) => Err(SendError(v)),
                Err(SendTimeoutError::Timeout(_)) => unreachable!("no deadline was set"),
            }
        }

        /// Like [`Sender::send`], but give up (returning the message in
        /// [`SendTimeoutError::Timeout`]) if the channel has not accepted
        /// it by the deadline.
        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            self.send_until(value, Some(Instant::now() + timeout))
        }

        fn send_until(
            &self,
            value: T,
            deadline: Option<Instant>,
        ) -> Result<(), SendTimeoutError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if st.admits(self.chan.cap) {
                    st.queue.push_back(value);
                    let wake = st.recv_waiting > 0;
                    drop(st);
                    if wake {
                        self.chan.recv_cv.notify_one();
                    }
                    return Ok(());
                }
                let left = match deadline {
                    None => None,
                    Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => Some(left),
                        _ => return Err(SendTimeoutError::Timeout(value)),
                    },
                };
                st.send_waiting += 1;
                let cv = &self.chan.send_cv;
                st = match left {
                    None => cv.wait(st).expect(POISONED),
                    Some(left) => cv.wait_timeout(st, left).expect(POISONED).0,
                };
                st.send_waiting -= 1;
            }
        }

        /// Whether `other` sends into the same underlying channel.
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.chan, &other.chan)
        }
    }

    impl<T> Receiver<T> {
        /// A message left the queue. If that made room — a slot freed
        /// (buffered), or the message had been admitted on the account of
        /// a receiver that is still parked (rendezvous) — let one parked
        /// sender look again, after the guard is gone.
        fn took(&self, st: MutexGuard<'_, State<T>>) {
            let wake = st.send_waiting > 0 && st.admits(self.chan.cap);
            drop(st);
            if wake {
                self.chan.send_cv.notify_one();
            }
        }

        /// Wait up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.took(st);
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.recv_waiting += 1;
                // A receiver is now parked: rendezvous senders may proceed
                // (a buffered sender waits for space, not for us). This
                // one notify stays under the mutex — parking releases it
                // atomically, there is no "after" to move it to.
                if self.chan.cap == 0 && st.send_waiting > 0 {
                    self.chan.send_cv.notify_all();
                }
                let cv = &self.chan.recv_cv;
                st = cv.wait_timeout(st, deadline - now).expect(POISONED).0;
                st.recv_waiting -= 1;
            }
        }

        /// Take a message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            match st.queue.pop_front() {
                Some(v) => {
                    self.took(st);
                    Ok(v)
                }
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.lock().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock_for_drop();
            st.senders -= 1;
            let wake = st.senders == 0 && st.recv_waiting > 0;
            drop(st);
            if wake {
                self.chan.recv_cv.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock_for_drop();
            st.receivers -= 1;
            let wake = st.receivers == 0 && st.send_waiting > 0;
            drop(st);
            if wake {
                self.chan.send_cv.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;
        use std::time::Duration;

        #[test]
        fn buffered_fifo() {
            let (tx, rx) = bounded(8);
            for i in 0..8 {
                tx.send(i).unwrap();
            }
            for i in 0..8 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = bounded(1);
            tx.send(5i32).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(5));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx2, rx2) = bounded::<i32>(1);
            drop(rx2);
            assert!(tx2.send(1).is_err());
        }

        #[test]
        fn rendezvous_blocks_sender_until_receiver_waits() {
            let (tx, rx) = bounded(0);
            let start = Instant::now();
            let h = thread::spawn(move || {
                tx.send(7u32).unwrap();
                start.elapsed()
            });
            thread::sleep(Duration::from_millis(50));
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
            let sent_after = h.join().unwrap();
            assert!(sent_after >= Duration::from_millis(45), "{sent_after:?}");
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = bounded::<u32>(1);
            let err = rx.recv_timeout(Duration::from_millis(5)).unwrap_err();
            assert_eq!(err, RecvTimeoutError::Timeout);
        }

        // Liveness under contention. The wake-ups are conditional (a
        // notify only when the other side is counted as parked), so a
        // miscounted waiter shows up as a wedge or a lost message; 1 ms
        // timeouts on both sides keep every path through the counts hot
        // (park, time out, retry) while a wedge still has to be a real
        // one: nobody retries their way out of a message that is gone.

        const MS: Duration = Duration::from_millis(1);
        const WATCHDOG: Duration = Duration::from_secs(120);

        /// Four senders and four receivers over one channel. Sender `s`
        /// sends `senders[s]` distinct messages, retrying on timeout, then
        /// drops its handle; receiver `r` leaves after `receivers[r]`
        /// messages, or stays until the channel disconnects when `None`.
        /// Every worker must finish under the watchdog and no message may
        /// arrive twice; with a receiver that stays to the end, every
        /// message a sender was told went through must arrive.
        fn stress(cap: usize, senders: [u32; 4], receivers: [Option<u32>; 4]) {
            let (tx, rx) = bounded::<u32>(cap);
            let (done_tx, done) = std::sync::mpsc::channel::<(bool, Vec<u32>)>();
            for (s, quota) in senders.into_iter().enumerate() {
                let (tx, done_tx) = (tx.clone(), done_tx.clone());
                thread::spawn(move || {
                    let mut sent = Vec::new();
                    'quota: for k in 0..quota {
                        let mut v = (s as u32) << 24 | k;
                        loop {
                            match tx.send_timeout(v, MS) {
                                Ok(()) => break,
                                Err(SendTimeoutError::Timeout(back)) => v = back,
                                Err(SendTimeoutError::Disconnected(_)) => break 'quota,
                            }
                        }
                        sent.push(v);
                    }
                    done_tx.send((true, sent)).unwrap();
                });
            }
            for quota in receivers {
                let (rx, done_tx) = (rx.clone(), done_tx.clone());
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while quota.is_none_or(|q| got.len() < q as usize) {
                        match rx.recv_timeout(MS) {
                            Ok(v) => got.push(v),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    done_tx.send((false, got)).unwrap();
                });
            }
            drop((tx, rx));
            let (mut sent, mut got) = (Vec::new(), Vec::new());
            for _ in 0..8 {
                let (is_sender, msgs) = done
                    .recv_timeout(WATCHDOG)
                    .expect("a channel worker wedged or panicked");
                if is_sender { &mut sent } else { &mut got }.extend(msgs);
            }
            sent.sort_unstable();
            got.sort_unstable();
            assert!(
                got.windows(2).all(|w| w[0] != w[1]),
                "a message arrived twice"
            );
            if receivers.contains(&None) {
                assert_eq!(got, sent, "cap {cap}: sent and delivered differ");
            } else {
                assert!(got.iter().all(|v| sent.binary_search(v).is_ok()));
            }
        }

        #[test]
        fn rendezvous_delivers_every_message_once_under_contention() {
            stress(0, [25_000; 4], [None; 4]);
        }

        #[test]
        fn buffered_delivers_every_message_once_under_contention() {
            stress(2, [25_000; 4], [None; 4]);
        }

        #[test]
        fn a_receiver_leaving_mid_stream_loses_nothing() {
            for cap in [0, 2] {
                stress(cap, [5_000; 4], [Some(700), None, None, None]);
            }
        }

        #[test]
        fn a_sender_leaving_mid_stream_loses_nothing() {
            for cap in [0, 2] {
                stress(cap, [300, 5_000, 5_000, 5_000], [None; 4]);
            }
        }

        #[test]
        fn senders_notice_when_every_receiver_left() {
            for cap in [0, 2] {
                stress(cap, [5_000; 4], [Some(500); 4]);
            }
        }
    }
}
