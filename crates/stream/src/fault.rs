//! Declarative, seeded fault injection for the dataflow substrate.
//!
//! A [`FaultPlan`] is a small schedule of failures — worker crashes, wedged
//! operators, dropped or delayed channel messages — parsed from the
//! `PS2_FAULTS` environment variable (or the `--faults` flag of the bench
//! binaries) and interpreted by the system at launch. Faults are
//! *loss-masking*: a "dropped" message is diverted into a retransmit buffer
//! and redelivered a few sends later, a crashed worker is respawned from its
//! recovery source, a wedged operator resumes after its stall window. The
//! delivered match **set** of a faulted run therefore equals the fault-free
//! run; only ordering and latency change. That is what makes the chaos suite
//! able to byte-compare canonicalised match sets across fault plans.
//!
//! Ticks are counted in **records admitted by the target worker** (one per
//! routed record, after any overload shedding), not wall-clock time, so a
//! plan replays identically under the deterministic `sim` backend
//! (single-threaded, seeded scheduler) and is best-effort reproducible under
//! `threads`/`coop`.
//!
//! # Grammar
//!
//! Semicolon-separated items:
//!
//! ```text
//! seed=<u64>                                  seed for probabilistic faults
//! crash:worker:<i>@tick=<n>                   worker i loses its state after
//!                                             admitting n records
//! wedge:worker:<i>@tick=<n>[:for=<m>]         worker i stalls for m records
//! drop:<edge>:p=<f>[:k=<n>]                   divert sends with prob. f,
//!                                             redeliver after n later sends
//! delay:<edge>:p=<f>[:k=<n>]                  same shim, short default k
//! ```
//!
//! Edges: `dispatcher->worker`, `worker->merger`. A plan holds at most one
//! crash and one wedge per worker and one drop or delay per edge. Anything
//! the pipeline would not inject — a crash or wedge of another role, a shim
//! on another edge, a second fault for the same target — is rejected, so a
//! plan never silently runs fault-free. Example:
//!
//! ```
//! use ps2stream_stream::FaultPlan;
//! let plan = FaultPlan::parse("seed=7;crash:worker:1@tick=200;drop:worker->merger:p=0.01")
//!     .unwrap();
//! assert_eq!(plan.seed, 7);
//! assert_eq!(plan.crash_tick(1), Some(200));
//! ```

use std::fmt;

/// An executor role at one end of a faulted edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultRole {
    /// A dispatcher executor.
    Dispatcher,
    /// A worker executor.
    Worker,
    /// A merger executor.
    Merger,
}

impl FaultRole {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dispatcher" => Ok(Self::Dispatcher),
            "worker" => Ok(Self::Worker),
            "merger" => Ok(Self::Merger),
            other => Err(format!(
                "unknown role {other:?} (expected dispatcher|worker|merger)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Dispatcher => "dispatcher",
            Self::Worker => "worker",
            Self::Merger => "merger",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// The worker loses its in-memory state after admitting `tick` records
    /// (a simulated process death; the supervisor respawns it from its
    /// recovery source and replays parked records).
    Crash {
        /// Index of the crashing worker.
        index: usize,
        /// Admitted-record count at which the crash fires.
        tick: u64,
    },
    /// The worker stops processing for `duration` admitted records starting
    /// at `tick` (records are parked and replayed in order afterwards).
    Wedge {
        /// Index of the wedging worker.
        index: usize,
        /// Admitted-record count at which the stall starts.
        tick: u64,
        /// Length of the stall, in admitted records.
        duration: u64,
    },
    /// Messages on the `from -> to` edge are diverted with probability
    /// `probability` and redelivered after `redeliver_after` later sends on
    /// the same sender (loss-masking drop / reorder).
    Drop {
        /// Sending role of the faulted edge.
        from: FaultRole,
        /// Receiving role of the faulted edge.
        to: FaultRole,
        /// Per-send diversion probability in `[0, 1]`.
        probability: f64,
        /// How many later sends pass before a diverted message is
        /// retransmitted.
        redeliver_after: u64,
    },
}

impl FaultSpec {
    /// Whether both faults are of the same kind on the same target, so the
    /// pipeline would only ever apply the first.
    fn same_target(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Crash { index, .. }, Self::Crash { index: i, .. })
            | (Self::Wedge { index, .. }, Self::Wedge { index: i, .. }) => index == i,
            (Self::Drop { from, to, .. }, Self::Drop { from: f, to: t, .. }) => {
                (from, to) == (f, t)
            }
            _ => false,
        }
    }
}

/// A parsed fault-injection schedule (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the probabilistic edge faults (deterministic under `sim`).
    pub seed: u64,
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
}

/// The per-edge shim parameters extracted from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFault {
    /// Diversion probability in parts per million.
    pub p_ppm: u32,
    /// Sends to wait before retransmitting a diverted message.
    pub redeliver_after: u64,
}

impl FaultPlan {
    /// Parses a plan from the grammar in the module docs.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(';') {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("seed={seed:?}: expected an integer"))?;
                continue;
            }
            let spec = Self::parse_item(item)?;
            if plan.specs.iter().any(|s| s.same_target(&spec)) {
                return Err(format!(
                    "fault {item:?}: its target already has a fault of this kind, \
                     and only the first would fire"
                ));
            }
            plan.specs.push(spec);
        }
        Ok(plan)
    }

    fn parse_item(item: &str) -> Result<FaultSpec, String> {
        let (kind, rest) = item
            .split_once(':')
            .ok_or_else(|| format!("fault {item:?}: expected kind:..."))?;
        match kind {
            "crash" | "wedge" => {
                let rest = rest.strip_prefix("worker:").ok_or_else(|| {
                    format!("fault {item:?}: only workers can {kind} (expected {kind}:worker:...)")
                })?;
                let mut parts = rest.split(':');
                let head = parts.next().unwrap_or_default();
                let (index, tick) = head
                    .split_once("@tick=")
                    .ok_or_else(|| format!("fault {item:?}: expected index@tick=n"))?;
                let index: usize = index
                    .parse()
                    .map_err(|_| format!("fault {item:?}: bad index {index:?}"))?;
                let tick: u64 = tick
                    .parse()
                    .map_err(|_| format!("fault {item:?}: bad tick {tick:?}"))?;
                let mut duration = 64;
                for opt in parts {
                    if let Some(v) = opt.strip_prefix("for=") {
                        duration = v
                            .parse()
                            .map_err(|_| format!("fault {item:?}: bad for= {v:?}"))?;
                    } else {
                        return Err(format!("fault {item:?}: unknown option {opt:?}"));
                    }
                }
                if kind == "crash" {
                    Ok(FaultSpec::Crash { index, tick })
                } else {
                    Ok(FaultSpec::Wedge {
                        index,
                        tick,
                        duration,
                    })
                }
            }
            "drop" | "delay" => {
                let (edge, rest) = rest
                    .split_once(":p=")
                    .ok_or_else(|| format!("fault {item:?}: expected from->to:p=f"))?;
                let (from, to) = edge
                    .split_once("->")
                    .ok_or_else(|| format!("fault {item:?}: expected from->to"))?;
                let from = FaultRole::parse(from)?;
                let to = FaultRole::parse(to)?;
                if !matches!(
                    (from, to),
                    (FaultRole::Dispatcher, FaultRole::Worker)
                        | (FaultRole::Worker, FaultRole::Merger)
                ) {
                    return Err(format!(
                        "fault {item:?}: no shim on that edge \
                         (expected dispatcher->worker or worker->merger)"
                    ));
                }
                let mut parts = rest.split(':');
                let p_str = parts.next().unwrap_or_default();
                let probability: f64 = p_str
                    .parse()
                    .map_err(|_| format!("fault {item:?}: bad probability {p_str:?}"))?;
                if !(0.0..=1.0).contains(&probability) {
                    return Err(format!("fault {item:?}: probability must be in [0, 1]"));
                }
                let mut redeliver_after = if kind == "drop" { 16 } else { 4 };
                for opt in parts {
                    if let Some(v) = opt.strip_prefix("k=") {
                        redeliver_after = v
                            .parse()
                            .map_err(|_| format!("fault {item:?}: bad k= {v:?}"))?;
                    } else {
                        return Err(format!("fault {item:?}: unknown option {opt:?}"));
                    }
                }
                Ok(FaultSpec::Drop {
                    from,
                    to,
                    probability,
                    redeliver_after,
                })
            }
            other => Err(format!(
                "unknown fault kind {other:?} (expected crash|wedge|drop|delay)"
            )),
        }
    }

    /// Reads a plan from the `PS2_FAULTS` environment variable.
    ///
    /// # Panics
    /// Panics on a malformed value (like `PS2_RUNTIME`, so a typo does not
    /// silently run fault-free).
    #[expect(
        clippy::panic,
        reason = "PS2_FAULTS parse at startup; a typo must fail the launch loudly, not silently run fault-free"
    )]
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var("PS2_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match Self::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => panic!("PS2_FAULTS={spec:?}: {e}"),
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The crash tick scheduled for worker `worker`, if any.
    pub fn crash_tick(&self, worker: usize) -> Option<u64> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::Crash { index, tick } if *index == worker => Some(*tick),
            _ => None,
        })
    }

    /// The `(tick, duration)` of a wedge scheduled for worker `worker`, if
    /// any.
    pub fn wedge_window(&self, worker: usize) -> Option<(u64, u64)> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::Wedge {
                index,
                tick,
                duration,
            } if *index == worker => Some((*tick, *duration)),
            _ => None,
        })
    }

    /// The drop/delay shim configured for the `from -> to` edge, if any.
    pub fn edge_fault(&self, from: FaultRole, to: FaultRole) -> Option<EdgeFault> {
        self.specs.iter().find_map(|s| match s {
            FaultSpec::Drop {
                from: f,
                to: t,
                probability,
                redeliver_after,
            } if *f == from && *t == to => Some(EdgeFault {
                p_ppm: (probability * 1_000_000.0).round() as u32,
                redeliver_after: *redeliver_after,
            }),
            _ => None,
        })
    }

    /// A per-sender shim seed mixing the plan seed, the edge and the source
    /// executor index, so every sender has an independent but reproducible
    /// diversion sequence.
    pub fn shim_seed(&self, from: FaultRole, to: FaultRole, source_index: usize) -> u64 {
        let edge = ((from as u64) << 8) | (to as u64);
        self.seed
            ^ edge.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (source_index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ 0xFA17_FA17_FA17_FA17
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for s in &self.specs {
            match s {
                FaultSpec::Crash { index, tick } => write!(f, ";crash:worker:{index}@tick={tick}")?,
                FaultSpec::Wedge {
                    index,
                    tick,
                    duration,
                } => write!(f, ";wedge:worker:{index}@tick={tick}:for={duration}")?,
                FaultSpec::Drop {
                    from,
                    to,
                    probability,
                    redeliver_after,
                } => write!(
                    f,
                    ";drop:{}->{}:p={probability}:k={redeliver_after}",
                    from.name(),
                    to.name()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "seed=42;crash:worker:2@tick=500;wedge:worker:1@tick=300:for=32;\
             drop:worker->merger:p=0.01;delay:dispatcher->worker:p=0.5:k=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.crash_tick(2), Some(500));
        assert_eq!(plan.crash_tick(0), None);
        assert_eq!(plan.wedge_window(1), Some((300, 32)));
        let drop = plan
            .edge_fault(FaultRole::Worker, FaultRole::Merger)
            .unwrap();
        assert_eq!(drop.p_ppm, 10_000);
        assert_eq!(drop.redeliver_after, 16);
        let delay = plan
            .edge_fault(FaultRole::Dispatcher, FaultRole::Worker)
            .unwrap();
        assert_eq!(delay.p_ppm, 500_000);
        assert_eq!(delay.redeliver_after, 2);
        assert!(plan
            .edge_fault(FaultRole::Merger, FaultRole::Worker)
            .is_none());
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "boom:worker:1@tick=3",
            "crash:worker:x@tick=3",
            "crash:worker:1",
            "drop:worker->merger:p=1.5",
            "drop:workermerger:p=0.1",
            "seed=abc",
            "wedge:worker:0@tick=1:nope=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rejects_crashes_and_wedges_of_roles_the_pipeline_never_faults() {
        for bad in [
            "crash:merger:0@tick=5",
            "crash:dispatcher:0@tick=5",
            "wedge:merger:1@tick=5:for=3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rejects_shims_on_edges_the_pipeline_never_builds() {
        for bad in [
            "drop:merger->worker:p=0.5",
            "delay:worker->dispatcher:p=0.5",
            "drop:dispatcher->merger:p=0.1",
            "drop:worker->worker:p=0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rejects_a_second_fault_of_a_kind_for_the_same_target() {
        for bad in [
            "crash:worker:0@tick=5;crash:worker:0@tick=9",
            "wedge:worker:1@tick=5;wedge:worker:1@tick=50:for=2",
            "drop:worker->merger:p=0.1;delay:worker->merger:p=0.2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // different workers, or different kinds on one worker, all fire
        let plan = FaultPlan::parse(
            "crash:worker:0@tick=5;crash:worker:1@tick=9;wedge:worker:0@tick=20;\
             drop:worker->merger:p=0.1;delay:dispatcher->worker:p=0.2",
        )
        .unwrap();
        assert_eq!(plan.specs.len(), 5);
    }

    #[test]
    fn empty_and_roundtrip() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        let plan = FaultPlan::parse("seed=7;crash:worker:1@tick=9;drop:worker->merger:p=0.25:k=8")
            .unwrap();
        let rendered = plan.to_string();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan);
    }

    #[test]
    fn shim_seeds_differ_per_source() {
        let plan = FaultPlan::parse("seed=1").unwrap();
        let a = plan.shim_seed(FaultRole::Worker, FaultRole::Merger, 0);
        let b = plan.shim_seed(FaultRole::Worker, FaultRole::Merger, 1);
        let c = plan.shim_seed(FaultRole::Dispatcher, FaultRole::Worker, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
