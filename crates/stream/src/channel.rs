//! Channels of the dataflow substrate.
//!
//! A thin wrapper over `crossbeam-channel` adding the one capability the
//! cooperative executor backend needs: a **notify hook** on the receiving
//! side. When an operator task is multiplexed onto a core pool it parks
//! (its poll returns `Blocked`) instead of blocking an OS
//! thread on `recv`; the sender side must then tell the scheduler that the
//! task is runnable again. Every `send`, every `send_all` burst — and the
//! disconnection of the last sender — fires the wakers attached to the
//! channel. On the OS-thread backend no waker is ever attached and the hook
//! is a single relaxed atomic load, so the blocking hot path is unchanged.
//!
//! The whole workspace creates channels through these constructors (or
//! through [`crate::runtime::Runtime::bounded`], which picks the right
//! capacity semantics per backend), so swapping backends never changes
//! operator code.

use crate::fault::EdgeFault;
use crossbeam_channel as cb;
pub use crossbeam_channel::{RecvError, SendError, TryRecvError, TrySendError};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A wakeup callback attached to a channel: invoked after every successful
/// send or burst and when the last sender disconnects.
pub(crate) type Waker = Arc<dyn Fn() + Send + Sync>;

/// The shared notify state of one channel. Wakers are attached by the
/// cooperative runtime when it spawns the task that owns the receiving side;
/// the OS-thread backend attaches none.
#[derive(Default)]
pub(crate) struct NotifySlot {
    has_wakers: AtomicBool,
    wakers: Mutex<Vec<Waker>>,
}

impl NotifySlot {
    /// Fires every attached waker. Cheap (one relaxed load) when none are
    /// attached.
    pub(crate) fn notify(&self) {
        if self.has_wakers.load(Ordering::Acquire) {
            for waker in self.wakers.lock().iter() {
                waker();
            }
        }
    }

    /// Attaches a waker. Must happen before the owning task first parks,
    /// otherwise a send racing the attachment could be missed.
    pub(crate) fn attach(&self, waker: Waker) {
        self.wakers.lock().push(waker);
        self.has_wakers.store(true, Ordering::Release);
    }
}

pub(crate) struct Hooks {
    slot: NotifySlot,
    /// Live `Sender` clones; the drop of the last one fires the wakers so a
    /// parked task can observe the disconnection and finish.
    senders: AtomicUsize,
    /// Messages queued or being sent (maintained by the wrapper's send/recv
    /// paths): the backlog gauge the overload policy reads without holding
    /// an endpoint. A send bumps it *before* the enqueue, so a receiver can
    /// never dequeue a message the gauge has not counted yet; the price is
    /// that a sender blocked on a full queue counts as backlog too.
    depth: AtomicUsize,
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
        let mut state = self.rng.lock();
        (crate::coop::splitmix64(&mut state) % 1_000_000) < u64::from(self.p_ppm)
    }
}

/// The sending half of a channel (see [`bounded`] / [`unbounded`]).
pub struct Sender<T> {
    /// `ManuallyDrop` so `Drop` can disconnect the inner sender *before*
    /// firing the wakers: notifying first would let a parked task observe
    /// `Empty` instead of `Disconnected`, park again, and never wake.
    inner: ManuallyDrop<cb::Sender<T>>,
    hooks: Arc<Hooks>,
    /// Optional seeded drop/delay shim (fault injection).
    fault: Option<Arc<FaultShim<T>>>,
}

/// The receiving half of a channel (see [`bounded`] / [`unbounded`]).
pub struct Receiver<T> {
    inner: cb::Receiver<T>,
    hooks: Arc<Hooks>,
}

fn wrap<T>(pair: (cb::Sender<T>, cb::Receiver<T>)) -> (Sender<T>, Receiver<T>) {
    let hooks = Arc::new(Hooks {
        slot: NotifySlot::default(),
        senders: AtomicUsize::new(1),
        depth: AtomicUsize::new(0),
    });
    (
        Sender {
            inner: ManuallyDrop::new(pair.0),
            hooks: Arc::clone(&hooks),
            fault: None,
        },
        Receiver {
            inner: pair.1,
            hooks,
        },
    )
}

/// Creates a channel with a fixed capacity; `send` blocks while full.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    wrap(cb::bounded(capacity))
}

/// Creates a channel with unlimited capacity; `send` never blocks.
#[expect(
    clippy::disallowed_methods,
    reason = "the channel constructors themselves live here"
)]
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    wrap(cb::unbounded())
}

impl<T> Sender<T> {
    /// Sends a message, blocking while the channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if let Some(fault) = &self.fault {
            let now = fault.sent.fetch_add(1, Ordering::Relaxed) + 1;
            self.flush_due(fault, now)?;
            if fault.coin() {
                fault
                    .held
                    .lock()
                    .push_back((now + fault.redeliver_after, value));
                fault.diverted.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        self.send_inner(value)
    }

    /// Sends every value in order, blocking while the channel is full: one
    /// lock per stretch of free capacity, at most one wake of parked
    /// receivers per stretch, and one notify-hook call for the burst. When
    /// every receiver is gone, returns the first value not sent; the rest
    /// are dropped. A fault-shimmed sender sends value by value, so the
    /// shim's diversion clock advances exactly as under `n` single sends.
    pub fn send_all<I>(&self, values: I) -> Result<(), SendError<T>>
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        if self.fault.is_some() {
            for value in values {
                self.send(value)?;
            }
            return Ok(());
        }
        let len = values.len();
        if len == 0 {
            return Ok(());
        }
        self.hooks.depth.fetch_add(len, Ordering::Relaxed);
        let mut taken = 0usize;
        let sent = self.inner.send_all(values.inspect(|_| taken += 1));
        if sent.is_err() {
            // the returned value was taken but not enqueued
            let unsent = len - (taken - 1);
            self.hooks.depth.fetch_sub(unsent, Ordering::Relaxed);
            return sent;
        }
        self.hooks.slot.notify();
        Ok(())
    }

    /// Sends a message without blocking. Fault shims do not apply here: the
    /// non-blocking path is used for control traffic that must not reorder.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.hooks.depth.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.inner.try_send(value) {
            self.hooks.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        self.hooks.slot.notify();
        Ok(())
    }

    fn send_inner(&self, value: T) -> Result<(), SendError<T>> {
        self.hooks.depth.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.inner.send(value) {
            self.hooks.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        self.hooks.slot.notify();
        Ok(())
    }

    /// Retransmits every held message whose due send count has passed.
    fn flush_due(&self, fault: &FaultShim<T>, now: u64) -> Result<(), SendError<T>> {
        loop {
            let due = {
                let mut held = fault.held.lock();
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

    /// A backlog gauge for this channel (see [`QueueDepth`]).
    pub fn depth_handle(&self) -> QueueDepth {
        QueueDepth {
            hooks: Arc::clone(&self.hooks),
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the channel is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one is available or every sender
    /// is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let value = self.inner.recv()?;
        self.note_dequeued();
        Ok(value)
    }

    /// Receives a message without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let value = self.inner.try_recv()?;
        self.note_dequeued();
        Ok(value)
    }

    fn note_dequeued(&self) {
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

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the channel is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The notify slot shared by every clone of this channel's endpoints
    /// (the cooperative runtime attaches task wakers here).
    pub(crate) fn notify_slot(&self) -> Arc<Hooks> {
        Arc::clone(&self.hooks)
    }
}

impl Hooks {
    pub(crate) fn attach_waker(&self, waker: Waker) {
        self.slot.attach(waker);
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.hooks.senders.fetch_add(1, Ordering::Relaxed);
        Self {
            inner: ManuallyDrop::new((*self.inner).clone()),
            hooks: Arc::clone(&self.hooks),
            fault: self.fault.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // Loss masking: every dropping clone retransmits whatever the shared
        // shim still holds while its own inner sender is alive, so the final
        // clone's drop leaves nothing diverted behind the disconnect.
        if let Some(fault) = self.fault.take() {
            let mut held = fault.held.lock();
            while let Some((_, message)) = held.pop_front() {
                if self.send_inner(message).is_err() {
                    break; // receiver gone: nothing left to mask
                }
            }
        }
        // Disconnect the inner sender FIRST: a waker fired before the
        // channel reports `Disconnected` would let the receiving task poll
        // `Empty`, park again, and sleep forever (the notification below is
        // the last one it will ever get).
        // SAFETY: `inner` is never used again; Drop runs exactly once.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        if self.hooks.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // last sender gone: wake parked receivers so they can observe
            // the disconnection and run their `finish`
            self.hooks.slot.notify();
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

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            hooks: Arc::clone(&self.hooks),
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

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn send_fires_attached_waker() {
        let (tx, rx) = unbounded::<u32>();
        let fired = Arc::new(AtomicU32::new(0));
        let observer = Arc::clone(&fired);
        rx.notify_slot().attach_waker(Arc::new(move || {
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
        rx.notify_slot().attach_waker(Arc::new(move || {
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
            assert!(rx.is_empty());
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
            while rx.len() < 2 {
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
        rx.notify_slot().attach_waker(Arc::new(move || {
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
}
