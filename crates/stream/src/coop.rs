//! The cooperative executor backend.
//!
//! Instead of giving every operator its own OS thread, the cooperative
//! backend turns each operator into a **pollable task**: one `poll` drains up
//! to a budget of messages from the task's input channel and returns whether
//! the task made progress, is blocked on input, or finished. Two schedulers
//! drive these tasks:
//!
//! * `PoolRuntime` — a work queue multiplexed over a fixed pool of OS
//!   threads. Channel sends wake the receiving task through the waker hook of
//!   [`crate::channel`], so thousands of logical operators can share a few
//!   cores without a thread each (the Tornado-style elastic-executor layout).
//! * `SimRuntime` — a single-threaded, **seeded** scheduler that picks the
//!   next task to poll pseudo-randomly from the seed. Every run with the same
//!   seed replays the exact same interleaving, which makes full end-to-end
//!   pipeline runs (including mid-flight migrations) reproducible and lets
//!   tests explore many interleavings by sweeping seeds — the FAST-style
//!   deterministic replay used by `tests/sim_determinism.rs`.
//!
//! Tasks never block: channels created through the cooperative runtime are
//! unbounded, so a `send` from inside a task always completes (backpressure
//! is a property of the OS-thread backend; see the README's "Runtime
//! backends" section for the trade-off).

use crate::channel::Receiver;
use crate::operator::{Emitter, Operator};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

/// Locks ignoring poisoning: a panicking task is already recorded in
/// `PoolState::panicked` and re-raised at join; the scheduler state itself
/// stays consistent (every mutation is a small atomic section).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The outcome of polling a cooperative task once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// The task processed input up to its budget; more may be pending.
    Progress,
    /// The task found no input; it is runnable again once a message arrives
    /// on one of its channels.
    Blocked,
    /// The task terminated (input disconnected and drained, or an explicit
    /// stop); the scheduler drops it, releasing its output channels.
    Done,
}

/// A unit of cooperative execution. Implementations must *never* block:
/// consume input with `try_recv`, return [`TaskPoll::Blocked`] when starved.
pub trait PollTask: Send {
    /// Polls the task once.
    fn poll(&mut self) -> TaskPoll;
}

/// Adapts an [`Operator`] plus its input channel and emitter into a
/// [`PollTask`]: each poll processes up to `budget` messages.
pub(crate) struct OperatorTask<O: Operator> {
    operator: O,
    input: Receiver<O::In>,
    emitter: Emitter<O::Out>,
    budget: usize,
}

impl<O: Operator> OperatorTask<O> {
    pub(crate) fn new(
        operator: O,
        input: Receiver<O::In>,
        emitter: Emitter<O::Out>,
        budget: usize,
    ) -> Self {
        Self {
            operator,
            input,
            emitter,
            budget,
        }
    }
}

impl<O: Operator> PollTask for OperatorTask<O> {
    fn poll(&mut self) -> TaskPoll {
        for _ in 0..self.budget {
            match self.input.try_recv() {
                Ok(message) => {
                    self.operator.process(message, &self.emitter);
                    if self.operator.wants_stop() {
                        self.operator.finish(&self.emitter);
                        return TaskPoll::Done;
                    }
                }
                Err(crate::channel::TryRecvError::Empty) => return TaskPoll::Blocked,
                Err(crate::channel::TryRecvError::Disconnected) => {
                    self.operator.finish(&self.emitter);
                    return TaskPoll::Done;
                }
            }
        }
        TaskPoll::Progress
    }
}

/// Scheduling status of a pooled task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Parked: not runnable until a waker fires.
    Idle,
    /// In the ready queue.
    Queued,
    /// Currently being polled by a pool thread.
    Running,
    /// A wakeup arrived while the task was running; requeue after the poll.
    Notified,
    /// Terminated; the slot stays empty forever.
    Done,
}

impl Status {
    fn as_u8(self) -> u8 {
        match self {
            Status::Idle => 0,
            Status::Queued => 1,
            Status::Running => 2,
            Status::Notified => 3,
            Status::Done => 4,
        }
    }
}

struct TaskEntry {
    name: String,
    slot: Option<Box<dyn PollTask>>,
    status: Status,
    /// Lock-free mirror of `status` (written only under the state lock,
    /// read by [`PoolShared::wake`] without it). Lets the per-send waker
    /// skip the scheduler mutex in the saturated steady state, where the
    /// receiving task is almost always already `Queued` or `Notified`.
    hint: Arc<std::sync::atomic::AtomicU8>,
}

struct PoolState {
    tasks: Vec<TaskEntry>,
    ready: VecDeque<usize>,
    /// Tasks not yet `Done`.
    live: usize,
    shutdown: bool,
    /// Name of the first task whose poll panicked, if any.
    panicked: Option<String>,
}

impl PoolState {
    /// The only sanctioned way to change a task's status: keeps the
    /// lock-free hint coherent. Must be called with the state lock held.
    fn set_status(&mut self, id: usize, status: Status) {
        let entry = &mut self.tasks[id];
        entry.status = status;
        entry
            .hint
            .store(status.as_u8(), std::sync::atomic::Ordering::SeqCst);
    }
}

pub(crate) struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals pool threads that the ready queue changed (or shutdown).
    work: Condvar,
    /// Signals joiners that a task completed (or a task panicked).
    progress: Condvar,
}

impl PoolShared {
    /// Wakes a task from a channel send. The fast path reads the status
    /// hint without the scheduler lock: `Queued`/`Notified` tasks will poll
    /// (or be requeued) after this send's message is already visible, and
    /// `Done` tasks no longer care — only `Idle` and `Running` require the
    /// locked transition. Safe because the message was enqueued before the
    /// hint is read (both SeqCst-ordered): a stale `Queued` reading implies
    /// the upcoming poll happens after the message became visible.
    fn wake_hinted(&self, id: usize, hint: &std::sync::atomic::AtomicU8) {
        match hint.load(std::sync::atomic::Ordering::SeqCst) {
            1 | 3 | 4 => {} // Queued | Notified | Done
            _ => self.wake(id),
        }
    }

    fn wake(&self, id: usize) {
        let mut state = lock(&self.state);
        match state.tasks[id].status {
            Status::Idle => {
                state.set_status(id, Status::Queued);
                state.ready.push_back(id);
                self.work.notify_one();
            }
            Status::Running => state.set_status(id, Status::Notified),
            Status::Queued | Status::Notified | Status::Done => {}
        }
    }
}

/// A work-queue scheduler multiplexing cooperative tasks over a fixed pool
/// of OS threads.
pub(crate) struct PoolRuntime {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl PoolRuntime {
    /// Starts a pool of `threads` scheduler threads (at least one).
    pub(crate) fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                tasks: Vec::new(),
                ready: VecDeque::new(),
                live: 0,
                shutdown: false,
                panicked: None,
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
        });
        let threads = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("coop-pool-{i}"))
                    .spawn(move || pool_thread(&shared))
                    .expect("failed to spawn cooperative pool thread")
            })
            .collect();
        Self { shared, threads }
    }

    /// Registers a task, attaches its wakers to `wake_on` channels, and makes
    /// it runnable. Returns the task id.
    pub(crate) fn spawn(
        &self,
        name: String,
        task: Box<dyn PollTask>,
        wake_on: &[Arc<crate::channel::Hooks>],
    ) -> usize {
        let hint = Arc::new(std::sync::atomic::AtomicU8::new(Status::Idle.as_u8()));
        let id = {
            let mut state = lock(&self.shared.state);
            state.tasks.push(TaskEntry {
                name,
                slot: Some(task),
                status: Status::Idle,
                hint: Arc::clone(&hint),
            });
            state.live += 1;
            state.tasks.len() - 1
        };
        // Wakers must be in place before the task can park, otherwise a send
        // racing the first poll could be lost.
        let weak: Weak<PoolShared> = Arc::downgrade(&self.shared);
        for hooks in wake_on {
            let weak = Weak::clone(&weak);
            let hint = Arc::clone(&hint);
            hooks.attach_waker(Arc::new(move || {
                if let Some(shared) = weak.upgrade() {
                    shared.wake_hinted(id, &hint);
                }
            }));
        }
        self.shared.wake(id); // initial poll
        id
    }

    /// Blocks until every listed task is `Done`; a pooled-task panic is
    /// returned as `Err(task name)` instead of unwinding the caller, so a
    /// supervisor can capture the failure and keep the pipeline alive.
    pub(crate) fn try_join(&self, ids: &[usize]) -> Result<(), String> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(name) = state.panicked.clone() {
                return Err(name);
            }
            if ids.iter().all(|id| state.tasks[*id].status == Status::Done) {
                return Ok(());
            }
            state = wait(&self.shared.progress, state);
        }
    }

    /// Number of tasks ever spawned.
    pub(crate) fn num_tasks(&self) -> usize {
        lock(&self.shared.state).tasks.len()
    }
}

impl Drop for PoolRuntime {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn pool_thread(shared: &Arc<PoolShared>) {
    loop {
        let (id, mut task) = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown || state.panicked.is_some() {
                    return;
                }
                if let Some(id) = state.ready.pop_front() {
                    let task = state.tasks[id]
                        .slot
                        .take()
                        .expect("queued task has its box");
                    state.set_status(id, Status::Running);
                    break (id, task);
                }
                state = wait(&shared.work, state);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| task.poll()));
        // The task box must be dropped *outside* the scheduler lock: dropping
        // an operator drops its output senders, whose disconnect notification
        // re-enters the scheduler to wake downstream tasks.
        let mut finished: Option<Box<dyn PollTask>> = None;
        {
            let mut state = lock(&shared.state);
            match outcome {
                Err(_) => {
                    let name = state.tasks[id].name.clone();
                    state.set_status(id, Status::Done);
                    state.live -= 1;
                    state.panicked = Some(name);
                    finished = Some(task);
                    shared.work.notify_all();
                    shared.progress.notify_all();
                }
                Ok(TaskPoll::Done) => {
                    state.set_status(id, Status::Done);
                    state.live -= 1;
                    finished = Some(task);
                    shared.progress.notify_all();
                }
                Ok(TaskPoll::Progress) => {
                    state.tasks[id].slot = Some(task);
                    state.set_status(id, Status::Queued);
                    state.ready.push_back(id);
                    shared.work.notify_one();
                }
                Ok(TaskPoll::Blocked) => {
                    state.tasks[id].slot = Some(task);
                    if state.tasks[id].status == Status::Notified {
                        state.set_status(id, Status::Queued);
                        state.ready.push_back(id);
                        shared.work.notify_one();
                    } else {
                        state.set_status(id, Status::Idle);
                    }
                }
            }
        }
        drop(finished);
    }
}

/// One SplitMix64 step — the seeded scheduler's pick function. Self-contained
/// so the stream crate needs no RNG dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct SimEntry {
    slot: Option<Box<dyn PollTask>>,
}

/// The deterministic single-threaded scheduler: tasks only run while the
/// driving thread is inside [`SimRuntime::run_until`], and the next task to
/// poll is chosen pseudo-randomly from the seed.
pub(crate) struct SimRuntime {
    tasks: Vec<SimEntry>,
    /// Ids of not-yet-`Done` tasks — the scheduler's pick pool, maintained
    /// incrementally (swap-remove on completion) so a scheduling decision
    /// is O(1) instead of a full rescan per poll (deterministic mode polls
    /// one message at a time, so this is the per-message hot path).
    alive: Vec<usize>,
    rng: u64,
}

impl SimRuntime {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            tasks: Vec::new(),
            alive: Vec::new(),
            // avoid the all-zeros fixpoint-ish start without changing the
            // seed→schedule mapping per seed
            rng: seed ^ 0x5DEE_CE66_D1CE_1CEB,
        }
    }

    /// Registers a task (a panic inside a sim poll propagates on the driving
    /// thread, so no name bookkeeping is needed for diagnostics).
    pub(crate) fn spawn(&mut self, task: Box<dyn PollTask>) -> usize {
        self.tasks.push(SimEntry { slot: Some(task) });
        let id = self.tasks.len() - 1;
        self.alive.push(id);
        id
    }

    /// Runs the seeded schedule until every listed task is `Done`. All alive
    /// tasks participate in the schedule, not just the targets — a migration
    /// can therefore land in the middle of draining the dispatchers, exactly
    /// like on the concurrent backends.
    pub(crate) fn run_until(&mut self, ids: &[usize]) {
        while ids.iter().any(|id| self.tasks[*id].slot.is_some()) {
            let slot = (splitmix64(&mut self.rng) % self.alive.len() as u64) as usize;
            let pick = self.alive[slot];
            let mut task = self.tasks[pick].slot.take().expect("alive task has a box");
            match task.poll() {
                // dropping the task disconnects its output senders so
                // downstream operators can observe the end of their input
                TaskPoll::Done => {
                    drop(task);
                    self.alive.swap_remove(slot);
                }
                TaskPoll::Progress | TaskPoll::Blocked => self.tasks[pick].slot = Some(task),
            }
        }
    }

    pub(crate) fn num_tasks(&self) -> usize {
        self.tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{unbounded, Sender};

    /// Forwards numbers, adding a tag; finishes when its input disconnects.
    struct Forwarder {
        input: Receiver<u64>,
        output: Option<Sender<u64>>,
        tag: u64,
    }

    impl PollTask for Forwarder {
        fn poll(&mut self) -> TaskPoll {
            for _ in 0..4 {
                match self.input.try_recv() {
                    Ok(v) => {
                        if let Some(out) = &self.output {
                            let _ = out.send(v + self.tag);
                        }
                    }
                    Err(crate::channel::TryRecvError::Empty) => return TaskPoll::Blocked,
                    Err(crate::channel::TryRecvError::Disconnected) => {
                        self.output = None;
                        return TaskPoll::Done;
                    }
                }
            }
            TaskPoll::Progress
        }
    }

    #[test]
    fn pool_runs_a_two_stage_chain_to_completion() {
        let (in_tx, in_rx) = unbounded::<u64>();
        let (mid_tx, mid_rx) = unbounded::<u64>();
        let (out_tx, out_rx) = unbounded::<u64>();
        let pool = PoolRuntime::new(2);
        let first = pool.spawn(
            "first".into(),
            Box::new(Forwarder {
                input: in_rx.clone(),
                output: Some(mid_tx),
                tag: 1,
            }),
            &[in_rx.notify_slot()],
        );
        let second = pool.spawn(
            "second".into(),
            Box::new(Forwarder {
                input: mid_rx.clone(),
                output: Some(out_tx),
                tag: 10,
            }),
            &[mid_rx.notify_slot()],
        );
        for i in 0..100 {
            in_tx.send(i).unwrap();
        }
        drop(in_tx);
        pool.try_join(&[first, second]).unwrap();
        let got: Vec<u64> = out_rx.try_iter().collect();
        assert_eq!(got, (11..111).collect::<Vec<u64>>());
    }

    #[test]
    fn pool_try_join_reports_panics_without_unwinding() {
        struct Boom;
        impl PollTask for Boom {
            fn poll(&mut self) -> TaskPoll {
                panic!("kaboom");
            }
        }
        let pool = PoolRuntime::new(1);
        let id = pool.spawn("boom".into(), Box::new(Boom), &[]);
        assert_eq!(pool.try_join(&[id]), Err("boom".to_string()));
    }

    #[test]
    fn sim_schedule_is_reproducible_and_seed_sensitive() {
        fn run(seed: u64) -> Vec<u64> {
            // two producers interleave into one log; the interleaving is the
            // scheduler's choice
            let (log_tx, log_rx) = unbounded::<u64>();
            let mut sim = SimRuntime::new(seed);
            let mut ids = Vec::new();
            for tag in [100u64, 200u64] {
                let (tx, rx) = unbounded::<u64>();
                for i in 0..20 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                ids.push(sim.spawn(Box::new(Forwarder {
                    input: rx,
                    output: Some(log_tx.clone()),
                    tag,
                })));
            }
            drop(log_tx);
            sim.run_until(&ids);
            log_rx.try_iter().collect()
        }
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must replay the same interleaving");
        // the seed→schedule mapping itself is pinned: a scheduler change
        // that reshuffles this would silently re-map every recorded sim seed
        let seed_7: Vec<u64> = vec![
            100, 101, 102, 103, 104, 105, 106, 107, 200, 201, 202, 203, 108, 109, 110, 111, 204,
            205, 206, 207, 208, 209, 210, 211, 212, 213, 214, 215, 216, 217, 218, 219, 112, 113,
            114, 115, 116, 117, 118, 119,
        ];
        assert_eq!(a, seed_7, "seed 7 must keep its recorded interleaving");
        let c = run(8);
        assert_eq!(a.len(), c.len());
        // sanity: both tags fully delivered regardless of the interleaving
        let sum: u64 = a.iter().sum();
        let expected: u64 =
            (0..20).map(|i| i + 100).sum::<u64>() + (0..20).map(|i| i + 200).sum::<u64>();
        assert_eq!(sum, expected);
    }
}
