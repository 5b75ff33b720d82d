//! Channels of the dataflow substrate.
//!
//! One multi-producer multi-consumer channel, a `Mutex<VecDeque>` plus two
//! condvars: [`bounded`] channels block a `send` while full (the executor
//! queues' backpressure), [`unbounded`] ones never do. Every job the
//! executor backends need of a queue lives here, under the one lock:
//!
//! - **Parked-peer counting.** The channel counts, under its mutex, the
//!   receivers parked on `not_empty` and the senders parked on `not_full`,
//!   and signals a condvar only when someone is parked on it: a condvar
//!   notify is a futex syscall even with no waiter, so an uncontended `send`
//!   or `recv` costs one lock and unlock and no syscall.
//! - **Wake at half capacity.** A pop wakes a parked sender only once it
//!   leaves a bounded queue at or below half its capacity, so a producer
//!   blocked on a full queue is woken once per half queue of free space
//!   rather than once per value (capacities 1 and 2 wake on every pop).
//! - **Bursts.** [`Sender::send_all`] enqueues a burst under one lock per
//!   stretch of free capacity and wakes parked receivers at most once per
//!   stretch, where a loop of `send` would lock and possibly wake once per
//!   value.
//! - **Task wakers.** When an operator task is multiplexed onto a core pool
//!   it parks (its poll returns `Blocked`) instead of blocking an OS thread
//!   in `recv`; the sender side must then tell the scheduler that the task
//!   is runnable again. Every `send` and `try_send`, every `send_all` burst
//!   — and the disconnection of the last sender — fires the wakers attached
//!   to the channel. On the OS-thread backend no waker is ever attached and
//!   the hook is a single atomic load.
//! - **Backlog gauge.** [`QueueDepth`] reads the number of queued messages
//!   without holding an endpoint, for overload shedding.
//! - **Fault shim.** [`Sender::with_fault`] diverts and later retransmits
//!   seeded sends (see [`crate::fault`]).
//!
//! Every operation takes the one mutex, so producers and consumers
//! contending on a channel serialize. The whole workspace creates channels
//! through these constructors (or through
//! [`crate::runtime::Runtime::bounded`], which picks the right capacity
//! semantics per backend), so swapping backends never changes operator
//! code.

use crate::coop::{lock, wait};
use crate::fault::EdgeFault;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned by [`Sender::send`] and [`Sender::send_all`] when every
/// receiver is gone; carries the value not sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// All receivers have been dropped.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender has been dropped.
    Disconnected,
}

/// A wakeup callback attached to a channel: invoked after every successful
/// send or burst and when the last sender disconnects.
pub(crate) type Waker = Arc<dyn Fn() + Send + Sync>;

/// The part of a channel that does not depend on its message type: the task
/// wakers and the backlog gauge. The cooperative runtime attaches wakers
/// here when it spawns the task that owns the receiving side; the OS-thread
/// backend attaches none.
pub(crate) struct Hooks {
    has_wakers: AtomicBool,
    wakers: Mutex<Vec<Waker>>,
    /// Messages queued or being sent: the backlog gauge the overload policy
    /// reads without holding an endpoint. A send bumps it *before* the
    /// enqueue, so a receiver can never dequeue a message the gauge has not
    /// counted yet; the price is that a sender blocked on a full queue
    /// counts as backlog too.
    depth: AtomicUsize,
}

impl Hooks {
    /// Fires every attached waker. One atomic load when none are attached.
    fn notify(&self) {
        if self.has_wakers.load(Ordering::Acquire) {
            for waker in lock(&self.wakers).iter() {
                waker();
            }
        }
    }

    /// Attaches a waker. Must happen before the owning task first parks,
    /// otherwise a send racing the attachment could be missed.
    pub(crate) fn attach_waker(&self, waker: Waker) {
        lock(&self.wakers).push(waker);
        self.has_wakers.store(true, Ordering::Release);
    }
}

/// A cloneable backlog gauge for one channel, detached from both endpoints:
/// holding one neither keeps the channel connected nor consumes messages.
/// Operators use it to observe their own mailbox depth for overload
/// shedding.
#[derive(Clone)]
pub struct QueueDepth {
    hooks: Arc<Hooks>,
}

impl QueueDepth {
    /// Messages currently queued in the channel.
    pub fn get(&self) -> usize {
        self.hooks.depth.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for QueueDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueueDepth({})", self.get())
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// Live `Sender` clones; the channel is disconnected at zero.
    senders: usize,
    receivers: usize,
    /// Receivers waiting on `not_empty`; a send notifies only when non-zero.
    parked_receivers: usize,
    /// Senders waiting on `not_full`; a receive notifies only when non-zero.
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn is_full(&self, state: &State<T>) -> bool {
        self.capacity.is_some_and(|cap| state.queue.len() >= cap)
    }

    /// Waits on `not_full`, counted as a parked sender while it waits.
    fn park_sender<'a>(&self, mut state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        state.parked_senders += 1;
        let mut state = wait(&self.not_full, state);
        state.parked_senders -= 1;
        state
    }

    /// Wakes the receivers `pushed` new values can serve, out of `parked`
    /// counted under the lock: none, one, or — when both exceed one — all of
    /// them with a single notify rather than one syscall per value. A
    /// receiver counts itself parked under the lock before it waits, so a
    /// push that sees zero has no one to wake: the next receiver to take the
    /// lock finds the value.
    fn notify_receivers(&self, parked: usize, pushed: usize) {
        if parked > 1 && pushed > 1 {
            self.not_empty.notify_all();
        } else if parked > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Releases the lock after a pop and wakes one parked sender, if any,
    /// once the pop has left the queue at or below half its capacity.
    ///
    /// Waking at every pop of a full queue would cost the receiver a futex
    /// syscall per value and hand the sender one free slot per wake-up; at
    /// half capacity the woken sender refills half a queue in one go. No
    /// wake-up is lost: a sender parks only on a full queue, and receivers
    /// keep popping until it is empty, so the queue always passes the mark
    /// with the sender still counted. Capacities 1 and 2 wake on every pop.
    fn wake_sender(&self, state: MutexGuard<'_, State<T>>) {
        // only a bounded channel ever has a parked sender
        let parked = state.parked_senders > 0
            && self
                .capacity
                .is_some_and(|cap| state.queue.len() <= cap / 2);
        drop(state);
        if parked {
            self.not_full.notify_one();
        }
    }
}

/// The seeded drop/delay shim state shared by the clones of one faulted
/// sender (see [`Sender::with_fault`]).
struct FaultShim<T> {
    /// Diversion probability in parts per million.
    p_ppm: u32,
    /// How many later sends pass before a diverted message is retransmitted.
    redeliver_after: u64,
    /// splitmix64 state for the per-send diversion coin.
    rng: Mutex<u64>,
    /// Diverted messages awaiting retransmission, with their due send count.
    held: Mutex<VecDeque<(u64, T)>>,
    /// Sends observed on this shim (the clock `held` entries are due by).
    sent: AtomicU64,
    /// Observability: total messages diverted (shared with the metrics).
    diverted: Arc<AtomicU64>,
}

impl<T> FaultShim<T> {
    fn coin(&self) -> bool {
        let mut state = lock(&self.rng);
        (crate::coop::splitmix64(&mut state) % 1_000_000) < u64::from(self.p_ppm)
    }
}

/// The sending half of a channel (see [`bounded`] / [`unbounded`]).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    hooks: Arc<Hooks>,
    /// Optional seeded drop/delay shim (fault injection).
    fault: Option<Arc<FaultShim<T>>>,
}

/// The receiving half of a channel (see [`bounded`] / [`unbounded`]).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
    hooks: Arc<Hooks>,
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    let hooks = Arc::new(Hooks {
        has_wakers: AtomicBool::new(false),
        wakers: Mutex::new(Vec::new()),
        depth: AtomicUsize::new(0),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            hooks: Arc::clone(&hooks),
            fault: None,
        },
        Receiver { shared, hooks },
    )
}

/// Creates a channel with a fixed capacity; `send` blocks while full.
///
/// # Panics
/// Panics on `capacity == 0`: a queue of capacity 0 would block every
/// `send` forever (rendezvous channels are not implemented).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(
        capacity > 0,
        "bounded(0) rendezvous channels are not supported"
    );
    channel(Some(capacity))
}

/// Creates a channel with unlimited capacity; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

impl<T> Sender<T> {
    /// Sends a message, blocking while the channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if let Some(fault) = &self.fault {
            let now = fault.sent.fetch_add(1, Ordering::Relaxed) + 1;
            self.flush_due(fault, now)?;
            if fault.coin() {
                lock(&fault.held).push_back((now + fault.redeliver_after, value));
                fault.diverted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        self.send_inner(value)
    }

    /// Sends every value in order, blocking while the channel is full: one
    /// lock per stretch of free capacity, at most one wake of parked
    /// receivers per stretch, and one waker call for the burst. When every
    /// receiver is gone, returns the first value not sent; the rest are
    /// dropped. A fault-shimmed sender sends value by value, so the shim's
    /// diversion clock advances exactly as under `n` single sends.
    ///
    /// `values` is advanced while the lock is held, so it should be cheap to
    /// iterate (a drain of a buffer, not a computation).
    pub fn send_all<I>(&self, values: I) -> Result<(), SendError<T>>
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut values = values.into_iter();
        if self.fault.is_some() {
            for value in values {
                self.send(value)?;
            }
            return Ok(());
        }
        let Some(mut value) = values.next() else {
            return Ok(());
        };
        // the whole burst is backlog from here on, as under single sends
        let mut unsent = values.len() + 1;
        self.hooks.depth.fetch_add(unsent, Ordering::Relaxed);
        let mut state = lock(&self.shared.state);
        loop {
            if state.receivers == 0 {
                self.hooks.depth.fetch_sub(unsent, Ordering::Relaxed);
                return Err(SendError(value));
            }
            if self.shared.is_full(&state) {
                state = self.shared.park_sender(state);
                continue;
            }
            state.queue.push_back(value);
            let mut pushed = 1;
            let rest = loop {
                match values.next() {
                    Some(next) if !self.shared.is_full(&state) => {
                        state.queue.push_back(next);
                        pushed += 1;
                    }
                    rest => break rest,
                }
            };
            unsent -= pushed;
            let parked = state.parked_receivers;
            let Some(next) = rest else {
                drop(state);
                self.shared.notify_receivers(parked, pushed);
                self.hooks.notify();
                return Ok(());
            };
            // Full with values left: wake the receivers that will drain the
            // queue before parking on it (the lock is released by the wait).
            self.shared.notify_receivers(parked, pushed);
            value = next;
        }
    }

    /// Sends a message without blocking. Fault shims do not apply here: the
    /// non-blocking path is used for control traffic that must not reorder.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.hooks.depth.fetch_add(1, Ordering::Relaxed);
        let mut state = lock(&self.shared.state);
        let refused = if state.receivers == 0 {
            TrySendError::Disconnected(value)
        } else if self.shared.is_full(&state) {
            TrySendError::Full(value)
        } else {
            state.queue.push_back(value);
            self.wake_receiver(state);
            return Ok(());
        };
        self.hooks.depth.fetch_sub(1, Ordering::Relaxed);
        Err(refused)
    }

    fn send_inner(&self, value: T) -> Result<(), SendError<T>> {
        self.hooks.depth.fetch_add(1, Ordering::Relaxed);
        let mut state = lock(&self.shared.state);
        loop {
            if state.receivers == 0 {
                self.hooks.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(SendError(value));
            }
            if !self.shared.is_full(&state) {
                state.queue.push_back(value);
                self.wake_receiver(state);
                return Ok(());
            }
            state = self.shared.park_sender(state);
        }
    }

    /// Releases the lock after a push, wakes one parked receiver if any, then
    /// fires the task wakers.
    fn wake_receiver(&self, state: MutexGuard<'_, State<T>>) {
        let parked = state.parked_receivers;
        drop(state);
        self.shared.notify_receivers(parked, 1);
        self.hooks.notify();
    }

    /// Retransmits every held message whose due send count has passed.
    fn flush_due(&self, fault: &FaultShim<T>, now: u64) -> Result<(), SendError<T>> {
        loop {
            let due = {
                let mut held = lock(&fault.held);
                match held.front() {
                    Some((due, _)) if *due <= now => held.pop_front().map(|(_, m)| m),
                    _ => None,
                }
            };
            match due {
                Some(message) => self.send_inner(message)?,
                None => return Ok(()),
            }
        }
    }

    /// Wraps this sender in a seeded drop/delay shim: each blocking `send`
    /// is diverted with probability `fault.p_ppm` ppm and retransmitted
    /// after `fault.redeliver_after` later sends (or when the last clone of
    /// this shimmed sender drops) — a loss-masking "network drop" that
    /// reorders but never loses messages. Clones share the shim state.
    pub fn with_fault(mut self, fault: EdgeFault, seed: u64, diverted: Arc<AtomicU64>) -> Self {
        self.fault = Some(Arc::new(FaultShim {
            p_ppm: fault.p_ppm,
            redeliver_after: fault.redeliver_after,
            rng: Mutex::new(seed),
            held: Mutex::new(VecDeque::new()),
            sent: AtomicU64::new(0),
            diverted,
        }));
        self
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available or every sender
    /// is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(value) = state.queue.pop_front() {
                self.note_dequeued(state);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.parked_receivers += 1;
            state = wait(&self.shared.not_empty, state);
            state.parked_receivers -= 1;
        }
    }

    /// Receives a message without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = lock(&self.shared.state);
        if let Some(value) = state.queue.pop_front() {
            self.note_dequeued(state);
            Ok(value)
        } else if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Releases the lock after a pop, wakes a parked sender if the pop
    /// reached half capacity, and takes the message off the gauge.
    fn note_dequeued(&self, state: MutexGuard<'_, State<T>>) {
        self.shared.wake_sender(state);
        // cannot wrap: the sender's increment happens before its enqueue,
        // which the channel's lock orders before this dequeue
        self.hooks.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A blocking iterator ending when the channel is disconnected and
    /// drained.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// A non-blocking iterator over currently available messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { rx: self }
    }

    /// A backlog gauge for this channel (see [`QueueDepth`]).
    pub fn depth_handle(&self) -> QueueDepth {
        QueueDepth {
            hooks: Arc::clone(&self.hooks),
        }
    }

    /// The type-erased hooks shared by every clone of this channel's
    /// endpoints (the cooperative runtime attaches task wakers here).
    pub(crate) fn hooks(&self) -> Arc<Hooks> {
        Arc::clone(&self.hooks)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared.state).senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
            hooks: Arc::clone(&self.hooks),
            fault: self.fault.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.shared.state).receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
            hooks: Arc::clone(&self.hooks),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // Loss masking: every dropping clone retransmits whatever the shared
        // shim still holds while it still counts as a sender, so the final
        // clone's drop leaves nothing diverted behind the disconnect.
        if let Some(fault) = self.fault.take() {
            let mut held = lock(&fault.held);
            while let Some((_, message)) = held.pop_front() {
                if self.send_inner(message).is_err() {
                    break; // receiver gone: nothing left to mask
                }
            }
        }
        let mut state = lock(&self.shared.state);
        state.senders -= 1;
        if state.senders > 0 {
            return;
        }
        drop(state);
        // The channel reports `Disconnected` from here on, so the wakers
        // fire after it: a parked task woken earlier would poll `Empty`,
        // park again, and never be woken (this is the last notification).
        self.shared.not_empty.notify_all();
        self.hooks.notify();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.receivers -= 1;
        if state.receivers == 0 {
            drop(state);
            self.shared.not_full.notify_all();
        }
    }
}

/// Blocking iterator over a [`Receiver`] (see [`Receiver::iter`]).
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

/// Non-blocking iterator over a [`Receiver`] (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
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
    use std::sync::atomic::AtomicU32;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn send_fires_attached_waker() {
        let (tx, rx) = unbounded::<u32>();
        let fired = Arc::new(AtomicU32::new(0));
        let observer = Arc::clone(&fired);
        rx.hooks().attach_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn last_sender_drop_fires_waker() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let fired = Arc::new(AtomicU32::new(0));
        let observer = Arc::clone(&fired);
        rx.hooks().attach_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        drop(tx);
        assert_eq!(fired.load(Ordering::SeqCst), 0, "one sender still alive");
        drop(tx2);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "disconnect must wake");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn depth_gauge_tracks_backlog() {
        let (tx, rx) = unbounded::<u32>();
        let gauge = rx.depth_handle();
        assert_eq!(gauge.get(), 0);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(gauge.get(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(gauge.get(), 1);
        let drained: Vec<u32> = rx.try_iter().collect();
        assert_eq!(drained, vec![2]);
        assert_eq!(gauge.get(), 0);
        // holding the gauge does not keep the channel connected
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        // a sender blocked on a full queue already counts as backlog
        let (blocked, got, drained) = within_watchdog(|| {
            let (tx, rx) = bounded::<u32>(1);
            let gauge = rx.depth_handle();
            tx.send(1).unwrap();
            let (blocked, got) = thread::scope(|scope| {
                scope.spawn(|| tx.send(2).unwrap());
                await_parked_senders(&tx, 1);
                (gauge.get(), [rx.recv(), rx.recv()])
            });
            (blocked, got, gauge.get())
        });
        assert_eq!((blocked, got, drained), (2, [Ok(1), Ok(2)], 0));
    }

    #[test]
    fn depth_gauge_returns_to_zero_under_contention() {
        // Regression: the gauge used to be bumped after the enqueue, so a
        // receiver could dequeue first, saturate at 0, and the late bump
        // left the gauge one too high forever.
        const PRODUCERS: u64 = 4;
        const CONSUMERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let (tx, rx) = bounded::<u64>(4);
        let gauge = rx.depth_handle();
        for round in 0..3 {
            std::thread::scope(|scope| {
                for _ in 0..PRODUCERS {
                    scope.spawn(|| {
                        for i in 0..PER_PRODUCER {
                            tx.send(i).unwrap();
                        }
                    });
                }
                for _ in 0..CONSUMERS {
                    scope.spawn(|| {
                        for _ in 0..PRODUCERS * PER_PRODUCER / CONSUMERS {
                            rx.recv().unwrap();
                        }
                    });
                }
            });
            assert_eq!(queued(&rx), 0);
            assert_eq!(gauge.get(), 0, "gauge drifted in round {round}");
        }
    }

    #[test]
    fn depth_gauge_counts_whole_bursts() {
        let (tx, rx) = unbounded::<u32>();
        let gauge = rx.depth_handle();
        tx.send_all(vec![1, 2, 3]).unwrap();
        assert_eq!(gauge.get(), 3);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(gauge.get(), 2);

        // a burst blocked on a full queue is backlog as a whole
        let (tx, rx) = bounded::<u32>(2);
        let gauge = rx.depth_handle();
        std::thread::scope(|scope| {
            scope.spawn(|| tx.send_all(0..5).unwrap());
            while queued(&rx) < 2 {
                std::thread::yield_now();
            }
            assert_eq!(gauge.get(), 5);
            let got: Vec<u32> = (0..5).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        });
        assert_eq!(gauge.get(), 0);

        // a disconnect gives back the part of the burst that never went in
        drop(rx);
        assert!(tx.send_all(vec![7, 8]).is_err());
        assert_eq!(gauge.get(), 0);
    }

    #[test]
    fn send_all_fires_the_waker_once_per_burst() {
        let (tx, rx) = unbounded::<u32>();
        let fired = Arc::new(AtomicU32::new(0));
        let observer = Arc::clone(&fired);
        rx.hooks().attach_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send_all(vec![1, 2, 3]).unwrap();
        tx.send_all(Vec::new()).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn a_shimmed_burst_diverts_exactly_as_single_sends() {
        let run = |burst: bool| -> (Vec<u32>, u64) {
            let diverted = Arc::new(AtomicU64::new(0));
            let (tx, rx) = unbounded::<u32>();
            let tx = tx.with_fault(
                EdgeFault {
                    p_ppm: 300_000,
                    redeliver_after: 3,
                },
                11,
                Arc::clone(&diverted),
            );
            for chunk in (0..120u32).collect::<Vec<_>>().chunks(7) {
                if burst {
                    tx.send_all(chunk.iter().copied()).unwrap();
                } else {
                    for &value in chunk {
                        tx.send(value).unwrap();
                    }
                }
            }
            drop(tx);
            (rx.iter().collect(), diverted.load(Ordering::SeqCst))
        };
        let (bursts, bursts_diverted) = run(true);
        assert!(bursts_diverted > 0, "p=0.3 over 120 sends must divert");
        assert_eq!((bursts, bursts_diverted), run(false));
    }

    #[test]
    fn fault_shim_reorders_but_never_loses() {
        let diverted = Arc::new(AtomicU64::new(0));
        let (tx, rx) = unbounded::<u32>();
        let tx = tx.with_fault(
            EdgeFault {
                p_ppm: 500_000,
                redeliver_after: 3,
            },
            7,
            Arc::clone(&diverted),
        );
        const N: u32 = 200;
        for i in 0..N {
            tx.send(i).unwrap();
        }
        drop(tx); // flushes anything still held
        let mut got: Vec<u32> = rx.iter().collect();
        assert!(
            diverted.load(Ordering::SeqCst) > 0,
            "p=0.5 over 200 sends must divert something"
        );
        assert_ne!(got, (0..N).collect::<Vec<_>>(), "some reorder expected");
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "no loss, no duplication");
    }

    #[test]
    fn fault_shim_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<u32> {
            let (tx, rx) = unbounded::<u32>();
            let tx = tx.with_fault(
                EdgeFault {
                    p_ppm: 200_000,
                    redeliver_after: 2,
                },
                seed,
                Arc::new(AtomicU64::new(0)),
            );
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            rx.iter().collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn blocking_semantics_are_preserved_without_wakers() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        let handle = std::thread::spawn(move || rx.iter().sum::<u32>());
        tx.send(3).unwrap();
        drop(tx);
        assert_eq!(handle.join().unwrap(), 6);
    }

    #[test]
    fn a_waker_fired_by_the_last_sender_drop_observes_the_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let observed = Arc::new(Mutex::new(Vec::new()));
        // the waker polls a clone of the receiver, as a parked task would
        let probe = Arc::new(Mutex::new(Some(rx.clone())));
        let (seen, polled) = (Arc::clone(&observed), Arc::clone(&probe));
        rx.hooks().attach_waker(Arc::new(move || {
            if let Some(rx) = polled.lock().unwrap().as_ref() {
                seen.lock().unwrap().push(rx.try_recv());
            }
        }));
        drop(tx);
        drop(tx2);
        // breaks the receiver → waker → receiver cycle
        probe.lock().unwrap().take();
        assert_eq!(
            *observed.lock().unwrap(),
            vec![Err(TryRecvError::Disconnected)],
            "the last drop must disconnect before it fires the wakers"
        );
    }

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn bounded_backpressure() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        let handle = thread::spawn(move || {
            for i in 3..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        handle.join().unwrap();
        assert_eq!(got, (1..100).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_consumes_each_message_once() {
        let (tx, rx) = bounded(8);
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || rx.iter().count()));
        }
        drop(rx);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    /// Runs `f` on a thread of its own and returns its result, failing the
    /// test if `f` has not returned within a minute: a lost wakeup leaves a
    /// thread parked forever instead of failing an assertion.
    fn within_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        // the channel under test must not also carry the watchdog's signal
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let run = thread::spawn(move || done_tx.send(f()).unwrap());
        let result = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a lost wakeup left a sender or receiver parked");
        run.join().unwrap();
        result
    }

    /// Messages currently in the channel's queue.
    fn queued<T>(rx: &Receiver<T>) -> usize {
        rx.shared.state.lock().unwrap().queue.len()
    }

    /// Blocks until `n` receivers are parked on the channel's `not_empty`.
    fn await_parked_receivers<T>(rx: &Receiver<T>, n: usize) {
        while rx.shared.state.lock().unwrap().parked_receivers < n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_parked_recv_is_woken_by_a_later_send() {
        let (tx, rx) = unbounded();
        let got = within_watchdog(move || {
            thread::scope(|scope| {
                let receiver = scope.spawn(|| rx.recv());
                await_parked_receivers(&rx, 1);
                tx.send(42).unwrap();
                receiver.join().unwrap()
            })
        });
        assert_eq!(got, Ok(42));
    }

    #[test]
    fn send_all_preserves_order_across_a_full_channel() {
        const N: u32 = 1_000;
        let got = within_watchdog(|| {
            let (tx, rx) = bounded(2);
            let receiver = thread::spawn(move || rx.iter().collect::<Vec<u32>>());
            tx.send(0).unwrap();
            tx.send_all(1..N).unwrap();
            tx.send_all(Vec::new()).unwrap();
            tx.send(N).unwrap();
            drop(tx);
            receiver.join().unwrap()
        });
        assert_eq!(got, (0..=N).collect::<Vec<_>>());
    }

    #[test]
    fn a_burst_larger_than_the_capacity_delivers_each_value_once() {
        const N: u32 = 20_000;
        let mut got = within_watchdog(|| {
            let (tx, rx) = bounded(2);
            let receivers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || rx.iter().collect::<Vec<u32>>())
                })
                .collect();
            drop(rx);
            tx.send_all(0..N).unwrap();
            drop(tx);
            receivers
                .into_iter()
                .flat_map(|r| r.join().unwrap())
                .collect::<Vec<u32>>()
        });
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn a_parked_recv_is_woken_by_send_all() {
        let (tx, rx) = unbounded();
        let got = within_watchdog(move || {
            thread::scope(|scope| {
                let receiver = scope.spawn(|| rx.recv());
                await_parked_receivers(&rx, 1);
                tx.send_all([1, 2, 3]).unwrap();
                receiver.join().unwrap()
            })
        });
        assert_eq!(got, Ok(1));
    }

    #[test]
    fn one_burst_wakes_every_parked_recv_it_can_serve() {
        // a single notify_one would leave the second receiver parked forever
        let (tx, rx) = unbounded();
        let mut got = within_watchdog(move || {
            thread::scope(|scope| {
                let a = scope.spawn(|| rx.recv());
                let b = scope.spawn(|| rx.recv());
                await_parked_receivers(&rx, 2);
                tx.send_all([1, 2]).unwrap();
                vec![a.join().unwrap().unwrap(), b.join().unwrap().unwrap()]
            })
        });
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn send_all_returns_the_first_unsent_value_on_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send_all([7, 8]), Err(SendError(7)));

        let (result, got) = within_watchdog(|| {
            let (tx, rx) = bounded(2);
            // takes three values, then drops the only receiver mid-burst
            let receiver = thread::spawn(move || rx.iter().take(3).collect::<Vec<u32>>());
            let result = tx.send_all(0..10);
            (result, receiver.join().unwrap())
        });
        assert_eq!(got, vec![0, 1, 2]);
        // at most two more values fit the queue before the disconnect
        match result {
            Err(SendError(first_unsent)) => assert!((3..=5).contains(&first_unsent)),
            Ok(()) => panic!("a burst into a disconnected channel must fail"),
        }
    }

    /// Sends 4 producers × 10k values through a `bounded(capacity)` channel
    /// drained by 4 consumers, and checks each value arrives exactly once.
    fn contended_transfer_delivers_each_value_once(capacity: usize) {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 10_000;
        let mut got = within_watchdog(move || {
            let (tx, rx) = bounded(capacity);
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || rx.iter().collect::<Vec<u64>>())
                })
                .collect();
            drop(rx);
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            tx.send(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().unwrap();
            }
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect::<Vec<u64>>()
        });
        got.sort_unstable();
        assert_eq!(
            got,
            (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>(),
            "capacity {capacity}"
        );
    }

    #[test]
    fn contended_bounded_channel_loses_no_wakeup() {
        contended_transfer_delivers_each_value_once(1);
    }

    #[test]
    fn half_capacity_wakes_lose_no_sender_under_contention() {
        for capacity in [3, 8] {
            contended_transfer_delivers_each_value_once(capacity);
        }
    }

    /// Blocks until `n` senders are parked on the channel's `not_full`.
    fn await_parked_senders<T>(tx: &Sender<T>, n: usize) {
        while tx.shared.state.lock().unwrap().parked_senders < n {
            thread::yield_now();
        }
    }

    #[test]
    fn a_parked_send_is_woken_only_at_half_capacity() {
        let (early, rest) = within_watchdog(|| {
            let (tx, rx) = bounded(8);
            for i in 0..8 {
                tx.send(i).unwrap();
            }
            thread::scope(|scope| {
                let sender = scope.spawn(|| tx.send(8));
                await_parked_senders(&tx, 1);
                // 8 → 5 queued: above half, the sender must stay parked
                for i in 0..3 {
                    assert_eq!(rx.recv(), Ok(i));
                }
                thread::sleep(Duration::from_millis(50));
                let early = (queued(&rx), tx.shared.state.lock().unwrap().parked_senders);
                // 5 → 4 queued reaches half: this pop wakes it
                assert_eq!(rx.recv(), Ok(3));
                sender.join().unwrap().unwrap();
                (early, rx.try_iter().collect::<Vec<u32>>())
            })
        });
        assert_eq!(early, (5, 1), "a pop above half capacity woke the sender");
        assert_eq!(rest, (4..=8).collect::<Vec<_>>());
    }

    #[test]
    fn send_all_into_a_full_channel_keeps_its_order() {
        const N: u32 = 1_000;
        let got = within_watchdog(|| {
            let (tx, rx) = bounded(8);
            for i in 0..8 {
                tx.send(i).unwrap();
            }
            let receiver = thread::spawn(move || rx.iter().collect::<Vec<u32>>());
            tx.send_all(8..N).unwrap();
            drop(tx);
            receiver.join().unwrap()
        });
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }
}
