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
//!   multiplexed over a fixed pool of scheduler threads (`coop.rs`).
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
use crate::coop::{OperatorTask, PoolRuntime, SimRuntime};
use crate::operator::{run_operator, Emitter, Operator, RUN_BUDGET};
use std::thread::JoinHandle;

/// Messages a simulated operator task processes per poll: a run of one, so
/// the seed space expresses the finest interleavings. The OS-thread loop and
/// the pool run up to [`RUN_BUDGET`] messages per wake-up.
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
    #[expect(
        clippy::panic,
        reason = "PS2_RUNTIME parse fails at launch before any record flows"
    )]
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("PS2_RUNTIME").ok()?;
        Some(Self::parse(&spec).unwrap_or_else(|| {
            panic!("PS2_RUNTIME={spec:?}: expected threads|coop|coop:<threads>|sim|sim:<seed>")
        }))
    }
}

/// Identifies a spawned operator within its [`Runtime`] (opaque; pass back
/// to [`Runtime::join_tasks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskHandle(usize);

enum Inner {
    /// One OS thread per operator, with its name (`None` once joined).
    Threads(Vec<Option<(String, JoinHandle<()>)>>),
    Pool(PoolRuntime),
    Sim(SimRuntime),
}

/// Owns the operators of a running topology, whatever substrate they run on.
pub struct Runtime {
    inner: Inner,
}

impl Runtime {
    /// Creates a runtime for the given backend.
    pub fn new(backend: &RuntimeBackend) -> Self {
        let inner = match *backend {
            RuntimeBackend::Threads => Inner::Threads(Vec::new()),
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
        Self { inner }
    }

    /// A runtime on the OS-thread backend (the historical default).
    pub fn threads() -> Self {
        Self::new(&RuntimeBackend::Threads)
    }

    /// Creates a channel with the backend's capacity semantics: the thread
    /// backend honours `capacity` (blocking backpressure), the cooperative
    /// backends return an unbounded channel because a task must never block
    /// inside a poll.
    #[expect(
        clippy::disallowed_methods,
        reason = "backend policy: cooperative/sim tasks must never block mid-poll, so their channels are unbounded by construction"
    )]
    pub fn bounded<T: Send + 'static>(&self, capacity: usize) -> (Sender<T>, Receiver<T>) {
        match self.inner {
            Inner::Threads(_) => channel::bounded(capacity),
            Inner::Pool(_) | Inner::Sim(_) => channel::unbounded(),
        }
    }

    /// Creates an unbounded channel on any backend.
    #[expect(
        clippy::disallowed_methods,
        reason = "backend policy: cooperative/sim tasks must never block mid-poll, so their channels are unbounded by construction"
    )]
    pub fn unbounded<T: Send + 'static>(&self) -> (Sender<T>, Receiver<T>) {
        channel::unbounded()
    }

    /// Spawns an operator onto the substrate: a dedicated OS thread on the
    /// thread backend, a pollable task on the cooperative backends (waking on
    /// its input channel).
    #[expect(
        clippy::expect_used,
        reason = "OS-thread spawn at executor launch, before any record flows; there is no pipeline to degrade yet"
    )]
    pub fn spawn_operator<O: Operator>(
        &mut self,
        name: impl Into<String>,
        operator: O,
        input: Receiver<O::In>,
        emitter: Emitter<O::Out>,
    ) -> TaskHandle {
        let name = name.into();
        match &mut self.inner {
            Inner::Threads(threads) => {
                let handle = std::thread::Builder::new()
                    .name(name.clone())
                    .spawn(move || {
                        run_operator(operator, input, emitter);
                    })
                    .expect("failed to spawn executor thread");
                threads.push(Some((name, handle)));
                TaskHandle(threads.len() - 1)
            }
            Inner::Pool(pool) => {
                let hooks = input.hooks();
                let task = OperatorTask::new(operator, input, emitter, RUN_BUDGET);
                TaskHandle(pool.spawn(name, Box::new(task), hooks))
            }
            Inner::Sim(sim) => {
                let task = OperatorTask::new(operator, input, emitter, SIM_POLL_BUDGET);
                TaskHandle(sim.spawn(Box::new(task)))
            }
        }
    }

    /// Number of operators spawned so far.
    pub fn num_executors(&self) -> usize {
        match &self.inner {
            Inner::Threads(threads) => threads.len(),
            Inner::Pool(pool) => pool.num_tasks(),
            Inner::Sim(sim) => sim.num_tasks(),
        }
    }

    /// On the deterministic backend, runs the seeded schedule until every
    /// operator is blocked on an empty mailbox, and returns true. The
    /// concurrent backends make progress on their own and return false at
    /// once: they have no such point to drive to.
    pub fn run_until_idle(&mut self) -> bool {
        match &mut self.inner {
            Inner::Sim(sim) => {
                sim.run_until_idle();
                true
            }
            Inner::Threads(_) | Inner::Pool(_) => false,
        }
    }

    /// Waits until every listed operator has terminated. On the
    /// deterministic backend this *runs* the seeded schedule (all alive tasks
    /// participate) until the targets finish.
    ///
    /// # Panics
    /// Panics with the operator's name if it panicked.
    #[expect(
        clippy::panic,
        reason = "join_tasks is the documented panic-propagating wrapper over try_join_tasks"
    )]
    pub fn join_tasks(&mut self, handles: &[TaskHandle]) {
        if let Err(name) = self.try_join_tasks(handles) {
            panic!("executor '{name}' panicked");
        }
    }

    /// [`Runtime::join_tasks`] with panic *capture* instead of propagation:
    /// an operator panic is returned as `Err(operator name)` so a supervisor
    /// can record the failure and keep shutting the pipeline down instead of
    /// aborting the process. On `Err`, every listed handle has still been
    /// joined (or the backend has stopped scheduling).
    pub fn try_join_tasks(&mut self, handles: &[TaskHandle]) -> Result<(), String> {
        let ids: Vec<usize> = handles.iter().map(|h| h.0).collect();
        match &mut self.inner {
            Inner::Threads(threads) => {
                let mut failed = None;
                for id in ids {
                    if let Some((name, join)) = threads[id].take() {
                        if join.join().is_err() && failed.is_none() {
                            failed = Some(name);
                        }
                    }
                }
                failed.map_or(Ok(()), Err)
            }
            Inner::Pool(pool) => pool.try_join(&ids),
            // a sim task panic unwinds on this (driving) thread; capture it
            // so the supervisor sees it like a pool panic
            Inner::Sim(sim) => {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_until(&ids)))
                    .map_err(|_| "sim task".to_string())
            }
        }
    }

    /// Waits for every operator spawned on this runtime.
    pub fn join(mut self) {
        let all: Vec<TaskHandle> = (0..self.num_executors()).map(TaskHandle).collect();
        self.join_tasks(&all);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Counts the messages it processes into a shared counter.
    struct Counter(Arc<AtomicU32>);
    impl Operator for Counter {
        type In = u32;
        type Out = ();
        fn process(&mut self, _input: u32, _e: &Emitter<()>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    struct Boom;
    impl Operator for Boom {
        type In = u32;
        type Out = ();
        fn process(&mut self, _input: u32, _e: &Emitter<()>) {
            panic!("kaboom");
        }
    }

    #[test]
    fn spawn_and_join_runs_all_operators() {
        let counter = Arc::new(AtomicU32::new(0));
        let mut rt = Runtime::threads();
        for i in 0..4 {
            let (tx, rx) = rt.bounded::<u32>(1);
            rt.spawn_operator(
                format!("exec-{i}"),
                Counter(Arc::clone(&counter)),
                rx,
                Emitter::sink(),
            );
            tx.send(i).unwrap();
        }
        assert_eq!(rt.num_executors(), 4);
        rt.join();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    #[should_panic(expected = "executor 'boom' panicked")]
    fn join_propagates_panics() {
        let mut rt = Runtime::threads();
        let (tx, rx) = rt.bounded::<u32>(1);
        rt.spawn_operator("boom", Boom, rx, Emitter::sink());
        tx.send(0).unwrap();
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

        struct Forward;
        impl Operator for Forward {
            type In = Envelope<u64>;
            type Out = Envelope<u64>;
            fn process(&mut self, input: Envelope<u64>, e: &Emitter<Envelope<u64>>) {
                e.emit_to(0, input);
            }
        }

        #[test]
        fn sim_runs_until_every_operator_is_idle() {
            let mut rt = Runtime::new(&RuntimeBackend::deterministic(5));
            let (in_tx, in_rx) = rt.bounded::<Envelope<u64>>(64);
            let (mid_tx, mid_rx) = rt.bounded::<Envelope<u64>>(64);
            let (out_tx, out_rx) = rt.unbounded::<u64>();
            rt.spawn_operator("forward", Forward, in_rx, Emitter::new(vec![mid_tx]));
            rt.spawn_operator(
                "double",
                Doubler { out: Some(out_tx) },
                mid_rx,
                Emitter::sink(),
            );
            for round in 0..3u64 {
                for i in 0..20 {
                    in_tx.send(Envelope::now(i, round * 100 + i)).unwrap();
                }
                // the input stays connected: idle, not finished
                assert!(rt.run_until_idle());
                let got: Vec<u64> = out_rx.try_iter().collect();
                let expected: Vec<u64> = (0..20).map(|i| 2 * (round * 100 + i)).collect();
                assert_eq!(got, expected, "round {round}");
            }
            drop(in_tx);
            rt.join();
            assert!(!Runtime::threads().run_until_idle());
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
