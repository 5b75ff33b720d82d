//! The operator abstraction of the dataflow substrate.
//!
//! PS2Stream's published implementation runs on Apache Storm; this crate
//! provides the minimal equivalent needed by the reproduction: an
//! [`Operator`] processes input messages and emits messages to a set of
//! downstream channels through an [`Emitter`]. Operators are spawned onto the
//! pluggable substrate by [`crate::runtime::Runtime`] (an OS thread each, or
//! cooperative tasks over a core pool); when every upstream sender is dropped
//! the operator's input drains, `finish` runs, and its own output senders are
//! dropped — shutdown propagates naturally through the topology exactly like
//! the end of a finite stream.
//!
//! # Run-at-a-time execution
//!
//! An executor that wakes does not hand its work off message by message: it
//! processes the message that woke it together with whatever is already
//! queued behind it, up to a budget, as one **run**
//! ([`Operator::process_run`]). An operator flushes its partial output once
//! per run, so a burst of small input messages costs its downstream one
//! hand-off instead of one per message. The run pulls its messages lazily,
//! so a backlog gauge read mid-run still sees the mailbox drain one message
//! at a time.

use crate::channel::{Receiver, Sender, TryRecvError, TrySendError};

/// Routes messages emitted by an operator to its downstream channels.
#[derive(Debug, Clone)]
pub struct Emitter<T> {
    outputs: Vec<Sender<T>>,
}

impl<T> Emitter<T> {
    /// Creates an emitter over the given downstream senders.
    pub fn new(outputs: Vec<Sender<T>>) -> Self {
        Self { outputs }
    }

    /// An emitter with no outputs (for sink operators).
    pub fn sink() -> Self {
        Self {
            outputs: Vec::new(),
        }
    }

    /// Number of downstream channels.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Sends a message to the downstream channel `index`, blocking while the
    /// channel is full (backpressure). Messages to disconnected channels are
    /// silently dropped (the receiver shut down first).
    pub fn emit_to(&self, index: usize, message: T) {
        if let Some(tx) = self.outputs.get(index) {
            let _ = tx.send(message);
        }
    }

    /// Like [`Emitter::emit_to`], but reports whether the message was
    /// accepted: `false` means the downstream receiver has disconnected — a
    /// peer-death signal the caller can forward to the supervisor instead of
    /// losing it to the silent-drop shutdown convention.
    pub fn emit_to_checked(&self, index: usize, message: T) -> bool {
        match self.outputs.get(index) {
            Some(tx) => tx.send(message).is_ok(),
            None => false,
        }
    }

    /// Attempts to send without blocking; returns the message back if the
    /// channel is full.
    pub fn try_emit_to(&self, index: usize, message: T) -> Result<(), T> {
        match self.outputs.get(index) {
            None => Ok(()),
            Some(tx) => match tx.try_send(message) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(m)) => Err(m),
                Err(TrySendError::Disconnected(_)) => Ok(()),
            },
        }
    }

    /// Sends a clone of the message to every downstream channel.
    pub fn broadcast(&self, message: T)
    where
        T: Clone,
    {
        for tx in &self.outputs {
            let _ = tx.send(message.clone());
        }
    }
}

/// A single-input, single-output-type dataflow operator.
pub trait Operator: Send + 'static {
    /// Input message type.
    type In: Send + 'static;
    /// Output message type.
    type Out: Send + 'static;

    /// Processes one input message, emitting zero or more outputs: a run of
    /// one, flushed at its end.
    fn process(&mut self, input: Self::In, emitter: &Emitter<Self::Out>);

    /// Processes a run of input messages in order (see the module docs). An
    /// operator that buffers output flushes it once, at the end of the run.
    /// The run must stop pulling messages as soon as
    /// [`Operator::wants_stop`] turns true, so a stop leaves the rest of the
    /// mailbox untouched. The default is a loop of [`Operator::process`].
    fn process_run<I>(&mut self, run: I, emitter: &Emitter<Self::Out>)
    where
        I: Iterator<Item = Self::In>,
    {
        for message in run {
            self.process(message, emitter);
            if self.wants_stop() {
                break;
            }
        }
    }

    /// Called once after the input stream has drained (or the operator asked
    /// to stop), before the operator's outputs are closed.
    fn finish(&mut self, _emitter: &Emitter<Self::Out>) {}

    /// Checked after every message: returning true terminates the operator
    /// immediately (its `finish` still runs). Lets control messages like a
    /// worker `Shutdown` end an executor whose upstream senders are still
    /// alive — essential when peers hold senders to each other and waiting
    /// for disconnection would deadlock.
    fn wants_stop(&self) -> bool {
        false
    }
}

/// Messages an executor processes in one run, on the OS-thread loop and the
/// cooperative pool alike (the simulator runs one).
pub(crate) const RUN_BUDGET: usize = 32;

/// How a run ended (see [`run_once`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunEnd {
    /// The budget was used up; more messages may be queued.
    Budget,
    /// The mailbox was found empty.
    Empty,
    /// The mailbox was found empty and every sender gone.
    Disconnected,
    /// The operator asked to stop.
    Stopped,
}

/// The messages of one run: the one that woke the executor, then whatever
/// is already queued behind it, pulled with `try_recv` only when the
/// operator asks for the next one.
struct Run<'a, T> {
    first: Option<T>,
    input: &'a Receiver<T>,
    /// Messages still allowed after `first`.
    left: usize,
    end: RunEnd,
}

impl<T> Iterator for Run<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if let Some(first) = self.first.take() {
            return Some(first);
        }
        if self.left == 0 {
            return None;
        }
        match self.input.try_recv() {
            Ok(message) => {
                self.left -= 1;
                Some(message)
            }
            Err(error) => {
                self.left = 0;
                self.end = match error {
                    TryRecvError::Empty => RunEnd::Empty,
                    TryRecvError::Disconnected => RunEnd::Disconnected,
                };
                None
            }
        }
    }
}

/// Runs `operator` over `first` and up to `budget - 1` further messages
/// already queued on `input`, as one [`Operator::process_run`]. The one run
/// function of every backend: the OS-thread loop and the cooperative task
/// poll differ only in how they obtain `first`.
pub(crate) fn run_once<O: Operator>(
    operator: &mut O,
    first: O::In,
    input: &Receiver<O::In>,
    emitter: &Emitter<O::Out>,
    budget: usize,
) -> RunEnd {
    let mut run = Run {
        first: Some(first),
        input,
        left: budget.saturating_sub(1),
        end: RunEnd::Budget,
    };
    operator.process_run(&mut run, emitter);
    if operator.wants_stop() {
        RunEnd::Stopped
    } else {
        run.end
    }
}

/// Runs an operator to completion on the current thread: block for a
/// message, process it and what is queued behind it as one run, repeat until
/// every upstream sender is gone or the operator asks to stop, then finish.
/// Returns the operator so callers can inspect its final state.
pub fn run_operator<O: Operator>(
    mut operator: O,
    input: Receiver<O::In>,
    emitter: Emitter<O::Out>,
) -> O {
    while let Ok(first) = input.recv() {
        match run_once(&mut operator, first, &input, &emitter, RUN_BUDGET) {
            RunEnd::Budget | RunEnd::Empty => {}
            RunEnd::Disconnected | RunEnd::Stopped => break,
        }
    }
    operator.finish(&emitter);
    operator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::bounded;

    struct Doubler {
        processed: usize,
    }

    impl Operator for Doubler {
        type In = u64;
        type Out = u64;
        fn process(&mut self, input: u64, emitter: &Emitter<u64>) {
            self.processed += 1;
            emitter.emit_to(0, input * 2);
        }
        fn finish(&mut self, emitter: &Emitter<u64>) {
            emitter.emit_to(0, u64::MAX);
        }
    }

    #[test]
    fn run_operator_processes_and_finishes() {
        let (in_tx, in_rx) = bounded::<u64>(16);
        let (out_tx, out_rx) = bounded::<u64>(16);
        for i in 0..5 {
            in_tx.send(i).unwrap();
        }
        drop(in_tx);
        let op = run_operator(Doubler { processed: 0 }, in_rx, Emitter::new(vec![out_tx]));
        assert_eq!(op.processed, 5);
        let outputs: Vec<u64> = out_rx.iter().collect();
        assert_eq!(outputs, vec![0, 2, 4, 6, 8, u64::MAX]);
    }

    /// Records the length of every run it is handed; stops after `stop_at`
    /// messages.
    struct RunLogger {
        runs: Vec<usize>,
        seen: usize,
        stop_at: usize,
    }

    impl Operator for RunLogger {
        type In = u64;
        type Out = ();
        fn process(&mut self, input: u64, emitter: &Emitter<()>) {
            self.process_run(std::iter::once(input), emitter);
        }
        fn process_run<I: Iterator<Item = u64>>(&mut self, run: I, _emitter: &Emitter<()>) {
            let mut len = 0;
            for _ in run {
                len += 1;
                self.seen += 1;
                if self.wants_stop() {
                    break;
                }
            }
            self.runs.push(len);
        }
        fn wants_stop(&self) -> bool {
            self.seen >= self.stop_at
        }
    }

    #[test]
    fn queued_messages_are_processed_as_runs_of_the_budget() {
        let (tx, rx) = bounded::<u64>(128);
        for i in 0..(RUN_BUDGET as u64 + 8) {
            tx.send(i).unwrap();
        }
        drop(tx);
        let logger = RunLogger {
            runs: Vec::new(),
            seen: 0,
            stop_at: usize::MAX,
        };
        let logger = run_operator(logger, rx, Emitter::sink());
        assert_eq!(logger.runs, vec![RUN_BUDGET, 8]);
    }

    #[test]
    fn a_stop_ends_the_run_without_pulling_further() {
        let (tx, rx) = bounded::<u64>(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let logger = RunLogger {
            runs: Vec::new(),
            seen: 0,
            stop_at: 4,
        };
        let logger = run_operator(logger, rx.clone(), Emitter::sink());
        assert_eq!(logger.runs, vec![4]);
        assert_eq!(
            rx.try_iter().collect::<Vec<_>>(),
            (4..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn emitter_fanout_and_broadcast() {
        let (tx_a, rx_a) = bounded::<u32>(4);
        let (tx_b, rx_b) = bounded::<u32>(4);
        let emitter = Emitter::new(vec![tx_a, tx_b]);
        assert_eq!(emitter.num_outputs(), 2);
        emitter.emit_to(0, 1);
        emitter.emit_to(1, 2);
        emitter.broadcast(9);
        drop(emitter);
        assert_eq!(rx_a.iter().collect::<Vec<_>>(), vec![1, 9]);
        assert_eq!(rx_b.iter().collect::<Vec<_>>(), vec![2, 9]);
    }

    #[test]
    fn emit_to_unknown_index_is_ignored() {
        let emitter: Emitter<u32> = Emitter::sink();
        emitter.emit_to(3, 42); // must not panic
        assert_eq!(emitter.num_outputs(), 0);
    }

    #[test]
    fn emit_to_disconnected_channel_is_ignored() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        let emitter = Emitter::new(vec![tx]);
        emitter.emit_to(0, 1); // must not panic or block
    }

    #[test]
    fn try_emit_reports_full_channels() {
        let (tx, _rx) = bounded::<u32>(1);
        let emitter = Emitter::new(vec![tx]);
        assert!(emitter.try_emit_to(0, 1).is_ok());
        assert_eq!(emitter.try_emit_to(0, 2), Err(2));
    }
}
