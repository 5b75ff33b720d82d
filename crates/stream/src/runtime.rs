//! The pluggable execution substrate of a topology.
//!
//! PS2Stream's operators (dispatchers, workers, mergers) are written against
//! the [`crate::operator::Operator`] trait and are agnostic to *how* they are
//! executed. [`Runtime`] is the substrate they are spawned onto; it comes in
//! three backends selected by [`RuntimeBackend`]:
//!
//! * **Threads** (`RuntimeBackend::Threads`, the default) — one OS thread per
//!   operator, blocking `recv`, bounded channels with real backpressure. The
//!   in-process analogue of a Storm executor per node.
//! * **Coop** (`RuntimeBackend::Coop`) — operators become pollable tasks
//!   multiplexed over a fixed pool of scheduler threads (see [`crate::coop`]).
//! * **Sim** (`RuntimeBackend::Sim`) — the cooperative scheduler collapsed to
//!   a single-threaded **deterministic** simulator: tasks run only while the
//!   driver joins the runtime, and the interleaving is a pure function of the
//!   seed.
//!
//! Channels must be created through [`Runtime::bounded`] /
//! [`Runtime::unbounded`]: the cooperative backends make every channel
//! unbounded (a cooperative task must never block mid-poll), while the
//! thread backend keeps the requested capacity.

use crate::channel::{self, Receiver, Sender};
use crate::coop::{OperatorTask, PollTask, PoolRuntime, SimRuntime};
use crate::operator::{run_operator, Emitter, Operator};
use std::thread::JoinHandle;

/// Messages a pooled operator task processes per poll before it yields its
/// scheduler thread.
const POOL_POLL_BUDGET: usize = 32;

/// Messages a simulated operator task processes per poll: one, so the seed
/// space expresses the finest interleavings.
const SIM_POLL_BUDGET: usize = 1;

/// Which execution substrate a topology runs on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RuntimeBackend {
    /// One OS thread per operator (the default).
    #[default]
    Threads,
    /// Cooperative tasks over a pool of scheduler threads.
    Coop {
        /// Scheduler threads in the pool; `0` = one per available core.
        pool_threads: usize,
    },
    /// The deterministic single-threaded simulator: the scheduler picks the
    /// next task pseudo-randomly from `seed` and only runs while the driving
    /// thread joins the runtime.
    Sim {
        /// Seed of the scheduler's pick sequence.
        seed: u64,
    },
}

impl RuntimeBackend {
    /// The cooperative pool backend, one scheduler thread per core.
    pub fn coop() -> Self {
        Self::Coop { pool_threads: 0 }
    }

    /// The deterministic single-threaded simulation backend: a full run is a
    /// pure function of the workload and this seed.
    pub fn deterministic(seed: u64) -> Self {
        Self::Sim { seed }
    }

    /// True when this backend is the deterministic simulator.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Self::Sim { .. })
    }

    /// Short name used in reports: `threads`, `coop` or `sim`.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Threads => "threads",
            Self::Coop { .. } => "coop",
            Self::Sim { .. } => "sim",
        }
    }

    /// Parses a backend spec: `threads`, `coop`, `coop:<pool-threads>`,
    /// `sim` (seed 0) or `sim:<seed>`. Returns `None` for anything else.
    pub fn parse(spec: &str) -> Option<Self> {
        match spec {
            "threads" => Some(Self::Threads),
            "coop" => Some(Self::coop()),
            "sim" => Some(Self::deterministic(0)),
            other => {
                if let Some(threads) = other.strip_prefix("coop:") {
                    Some(Self::Coop {
                        pool_threads: threads.parse().ok()?,
                    })
                } else if let Some(seed) = other.strip_prefix("sim:") {
                    Some(Self::deterministic(seed.parse().ok()?))
                } else {
                    None
                }
            }
        }
    }

    /// Reads the backend from the `PS2_RUNTIME` environment variable (same
    /// syntax as [`RuntimeBackend::parse`]); `None` when unset.
    ///
    /// # Panics
    /// Panics on a malformed value — a typo must not silently run the
    /// default backend.
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("PS2_RUNTIME").ok()?;
        Some(Self::parse(&spec).unwrap_or_else(|| {
            panic!("PS2_RUNTIME={spec:?}: expected threads|coop|coop:<threads>|sim|sim:<seed>")
        }))
    }
}

/// Identifies a spawned executor within its [`Runtime`] (opaque; pass back
/// to [`Runtime::join_tasks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskHandle(Handle);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handle {
    /// Index into the runtime's OS-thread handles (thread backend operators
    /// and service threads of the pool backend).
    Thread(usize),
    /// Task id inside the cooperative scheduler.
    Coop(usize),
}

enum Inner {
    Threads,
    Pool(PoolRuntime),
    Sim(SimRuntime),
}

/// Owns the executors of a running topology, whatever substrate they run on.
pub struct Runtime {
    inner: Inner,
    /// OS threads: every executor on the thread backend, service threads
    /// (e.g. the adjustment controller) on the pool backend.
    threads: Vec<Option<(String, JoinHandle<()>)>>,
}

impl Runtime {
    /// Creates a runtime for the given backend.
    pub fn new(backend: &RuntimeBackend) -> Self {
        let inner = match *backend {
            RuntimeBackend::Threads => Inner::Threads,
            RuntimeBackend::Coop { pool_threads } => {
                let pool = if pool_threads != 0 {
                    pool_threads
                } else {
                    std::thread::available_parallelism()
                        .map(|p| p.get())
                        .unwrap_or(4)
                };
                Inner::Pool(PoolRuntime::new(pool))
            }
            RuntimeBackend::Sim { seed } => Inner::Sim(SimRuntime::new(seed)),
        };
        Self {
            inner,
            threads: Vec::new(),
        }
    }

    /// A runtime on the OS-thread backend (the historical default).
    pub fn threads() -> Self {
        Self::new(&RuntimeBackend::Threads)
    }

    /// True when this runtime is the deterministic simulator: executors make
    /// progress only inside [`Runtime::join_tasks`] / [`Runtime::join`].
    pub fn is_deterministic(&self) -> bool {
        matches!(self.inner, Inner::Sim(_))
    }

    /// Creates a channel with the backend's capacity semantics: the thread
    /// backend honours `capacity` (blocking backpressure), the cooperative
    /// backends return an unbounded channel because a task must never block
    /// inside a poll.
    pub fn bounded<T: Send + 'static>(&self, capacity: usize) -> (Sender<T>, Receiver<T>) {
        match self.inner {
            Inner::Threads => channel::bounded(capacity),
            Inner::Pool(_) | Inner::Sim(_) => channel::unbounded(),
        }
    }

    /// Creates an unbounded channel on any backend.
    pub fn unbounded<T: Send + 'static>(&self) -> (Sender<T>, Receiver<T>) {
        channel::unbounded()
    }

    /// Spawns an operator onto the substrate: a dedicated OS thread on the
    /// thread backend, a pollable task on the cooperative backends (waking on
    /// its input channel).
    pub fn spawn_operator<O: Operator>(
        &mut self,
        name: impl Into<String>,
        operator: O,
        input: Receiver<O::In>,
        emitter: Emitter<O::Out>,
    ) -> TaskHandle {
        let name = name.into();
        match &mut self.inner {
            Inner::Threads => {
                let handle = std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || {
                        run_operator(operator, input, emitter);
                    })
                    .expect("failed to spawn executor thread");
                self.threads.push(Some((name, handle)));
                TaskHandle(Handle::Thread(self.threads.len() - 1))
            }
            Inner::Pool(pool) => {
                let hooks = input.notify_slot();
                let task = OperatorTask::new(operator, input, emitter, POOL_POLL_BUDGET);
                let id = pool.spawn(name, Box::new(task), &[hooks]);
                TaskHandle(Handle::Coop(id))
            }
            Inner::Sim(sim) => {
                let task = OperatorTask::new(operator, input, emitter, SIM_POLL_BUDGET);
                TaskHandle(Handle::Coop(sim.spawn(Box::new(task))))
            }
        }
    }

    /// Spawns a custom pollable task (e.g. the adjustment controller's
    /// simulation state machine) onto a cooperative backend. On the pool
    /// backend the task is re-polled only when `wake_on` channels receive
    /// traffic, so pass every channel it consumes.
    ///
    /// # Panics
    /// Panics on the thread backend — blocking executors belong in
    /// [`Runtime::spawn_service`].
    pub fn spawn_task(
        &mut self,
        name: impl Into<String>,
        task: Box<dyn PollTask>,
        wake_on: &[&Receiver<impl Send + 'static>],
    ) -> TaskHandle {
        match &mut self.inner {
            Inner::Threads => {
                panic!("spawn_task is only available on the cooperative backends")
            }
            Inner::Pool(pool) => {
                let hooks: Vec<_> = wake_on.iter().map(|rx| rx.notify_slot()).collect();
                TaskHandle(Handle::Coop(pool.spawn(name.into(), task, &hooks)))
            }
            Inner::Sim(sim) => TaskHandle(Handle::Coop(sim.spawn(task))),
        }
    }

    /// Spawns a blocking service loop on its own OS thread (thread and pool
    /// backends). The deterministic simulator forbids hidden threads — model
    /// the service as a [`PollTask`] and use [`Runtime::spawn_task`] there.
    ///
    /// # Panics
    /// Panics on the deterministic backend.
    pub fn spawn_service<F>(&mut self, name: impl Into<String>, f: F) -> TaskHandle
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(
            !self.is_deterministic(),
            "service threads would break determinism; spawn a PollTask instead"
        );
        let name = name.into();
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(f)
            .expect("failed to spawn service thread");
        self.threads.push(Some((name, handle)));
        TaskHandle(Handle::Thread(self.threads.len() - 1))
    }

    /// Number of executors spawned so far (operators + services + tasks).
    pub fn num_executors(&self) -> usize {
        let coop = match &self.inner {
            Inner::Threads => 0,
            Inner::Pool(pool) => pool.num_tasks(),
            Inner::Sim(sim) => sim.num_tasks(),
        };
        coop + self.threads.len()
    }

    /// Waits until every listed executor has terminated. On the deterministic
    /// backend this *runs* the seeded schedule (all alive tasks participate)
    /// until the targets finish.
    ///
    /// # Panics
    /// Panics with the executor's name if it panicked.
    pub fn join_tasks(&mut self, handles: &[TaskHandle]) {
        if let Err(name) = self.try_join_tasks(handles) {
            panic!("executor '{name}' panicked");
        }
    }

    /// [`Runtime::join_tasks`] with panic *capture* instead of propagation:
    /// an executor panic is returned as `Err(executor name)` so a supervisor
    /// can record the failure and keep shutting the pipeline down instead of
    /// aborting the process. On `Err`, every listed handle has still been
    /// joined (or the backend has stopped scheduling).
    pub fn try_join_tasks(&mut self, handles: &[TaskHandle]) -> Result<(), String> {
        let mut coop_ids = Vec::new();
        let mut failed: Option<String> = None;
        for handle in handles {
            match handle.0 {
                Handle::Coop(id) => coop_ids.push(id),
                Handle::Thread(index) => {
                    if let Some((name, join)) = self.threads[index].take() {
                        if join.join().is_err() && failed.is_none() {
                            failed = Some(name);
                        }
                    }
                }
            }
        }
        if !coop_ids.is_empty() {
            match &mut self.inner {
                Inner::Threads => unreachable!("coop handle on the thread backend"),
                Inner::Pool(pool) => {
                    if let (Err(name), None) = (pool.try_join(&coop_ids), &failed) {
                        failed = Some(name);
                    }
                }
                Inner::Sim(sim) => {
                    // a sim task panic unwinds on this (driving) thread;
                    // capture it so the supervisor sees it like a pool panic
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sim.run_until(&coop_ids)
                    }));
                    if caught.is_err() && failed.is_none() {
                        failed = Some("sim task".to_string());
                    }
                }
            }
        }
        match failed {
            Some(name) => Err(name),
            None => Ok(()),
        }
    }

    /// Waits for every executor spawned on this runtime.
    pub fn join(mut self) {
        let handles: Vec<TaskHandle> = (0..self.threads.len())
            .map(|i| TaskHandle(Handle::Thread(i)))
            .collect();
        let coop: Vec<TaskHandle> = match &self.inner {
            Inner::Threads => Vec::new(),
            Inner::Pool(pool) => (0..pool.num_tasks())
                .map(|i| TaskHandle(Handle::Coop(i)))
                .collect(),
            Inner::Sim(sim) => (0..sim.num_tasks())
                .map(|i| TaskHandle(Handle::Coop(i)))
                .collect(),
        };
        self.join_tasks(&coop);
        self.join_tasks(&handles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn spawn_and_join_runs_all_service_threads() {
        let counter = Arc::new(AtomicU32::new(0));
        let mut rt = Runtime::threads();
        for i in 0..4 {
            let counter = Arc::clone(&counter);
            rt.spawn_service(format!("exec-{i}"), move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(rt.num_executors(), 4);
        rt.join();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[should_panic(expected = "executor 'boom' panicked")]
    fn join_propagates_panics() {
        let mut rt = Runtime::threads();
        rt.spawn_service("boom", || panic!("kaboom"));
        rt.join();
    }

    #[test]
    fn backend_parsing_round_trips() {
        assert_eq!(
            RuntimeBackend::parse("threads"),
            Some(RuntimeBackend::Threads)
        );
        assert_eq!(RuntimeBackend::parse("coop"), Some(RuntimeBackend::coop()));
        assert_eq!(
            RuntimeBackend::parse("coop:3"),
            Some(RuntimeBackend::Coop { pool_threads: 3 })
        );
        assert_eq!(
            RuntimeBackend::parse("sim"),
            Some(RuntimeBackend::deterministic(0))
        );
        assert_eq!(
            RuntimeBackend::parse("sim:42"),
            Some(RuntimeBackend::deterministic(42))
        );
        assert!(RuntimeBackend::parse("tokio").is_none());
        assert!(RuntimeBackend::deterministic(1).is_deterministic());
        assert!(!RuntimeBackend::coop().is_deterministic());
        assert_eq!(RuntimeBackend::Threads.name(), "threads");
        assert_eq!(RuntimeBackend::coop().name(), "coop");
        assert_eq!(RuntimeBackend::deterministic(9).name(), "sim");
    }

    /// The same operator pipeline produces the same results on all three
    /// substrates.
    mod cross_backend {
        use super::*;
        use crate::envelope::Envelope;

        struct Doubler {
            out: Option<crate::channel::Sender<u64>>,
        }
        impl Operator for Doubler {
            type In = Envelope<u64>;
            type Out = ();
            fn process(&mut self, input: Envelope<u64>, _e: &Emitter<()>) {
                if let Some(out) = &self.out {
                    let _ = out.send(input.payload * 2);
                }
            }
            fn finish(&mut self, _e: &Emitter<()>) {
                self.out = None;
            }
        }

        fn run(backend: &RuntimeBackend) -> Vec<u64> {
            let mut rt = Runtime::new(backend);
            let (in_tx, in_rx) = rt.bounded::<Envelope<u64>>(64);
            let (out_tx, out_rx) = rt.unbounded::<u64>();
            let h = rt.spawn_operator(
                "doubler",
                Doubler { out: Some(out_tx) },
                in_rx,
                Emitter::sink(),
            );
            for i in 0..200u64 {
                in_tx.send(Envelope::now(i, i)).unwrap();
            }
            drop(in_tx);
            rt.join_tasks(&[h]);
            let mut got: Vec<u64> = out_rx.try_iter().collect();
            got.sort_unstable();
            got
        }

        #[test]
        fn all_backends_agree() {
            let expected: Vec<u64> = (0..200u64).map(|i| i * 2).collect();
            assert_eq!(run(&RuntimeBackend::Threads), expected);
            assert_eq!(run(&RuntimeBackend::coop()), expected);
            assert_eq!(run(&RuntimeBackend::deterministic(3)), expected);
        }
    }
}
