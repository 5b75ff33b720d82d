//! System configuration.

use ps2stream_partition::CostConstants;
use ps2stream_persist::StoreConfig;
use ps2stream_stream::{FaultPlan, RuntimeBackend};

/// What an operator does when its mailbox backlog exceeds its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Backpressure: the bounded input and worker→merger channels block the
    /// sender when full on the thread backend (the cooperative backends make
    /// every channel unbounded by construction, so there they never block).
    /// This is the historical behaviour.
    #[default]
    Block,
    /// Load shedding on every backend: when an operator dequeues a data
    /// message while more than `*_mailbox` messages are still waiting, the
    /// dequeued (oldest) message's stream data is dropped and counted
    /// (`FaultMetrics::shed_records` / `shed_matches`). Subscription updates
    /// and control traffic are never shed, and the merger raises its
    /// eviction watermark over shed matches so deduplication never
    /// double-delivers around a gap.
    ShedOldest {
        /// Worker mailbox bound, in messages.
        worker_mailbox: usize,
        /// Merger mailbox bound, in messages.
        merger_mailbox: usize,
    },
}

/// Which Minimum Cost Migration selector the dynamic load adjustment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectorKind {
    /// Exact dynamic programming (Section V-A-1).
    Dp,
    /// Greedy by relative cost (Section V-A-2) — the paper's recommendation.
    #[default]
    Greedy,
    /// Size-descending baseline.
    Size,
    /// Random baseline.
    Random,
}

impl SelectorKind {
    /// Name used in reports ("DP", "GR", "SI", "RA").
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Dp => "DP",
            SelectorKind::Greedy => "GR",
            SelectorKind::Size => "SI",
            SelectorKind::Random => "RA",
        }
    }
}

/// Configuration of the dynamic load adjustment.
#[derive(Debug, Clone)]
pub struct AdjustmentConfig {
    /// Load-balance constraint σ.
    pub sigma: f64,
    /// The Phase-II cell selector.
    pub selector: SelectorKind,
    /// Number of most-loaded cells inspected by Phase I.
    pub phase1_cells: usize,
    /// Input batches dispatcher 0 routes between the end of one adjustment
    /// round and the next request for worker loads. Counted in batches, not
    /// wall time, so adjustment follows the stream on every backend.
    pub period_batches: u64,
}

impl Default for AdjustmentConfig {
    fn default() -> Self {
        Self {
            sigma: 1.5,
            selector: SelectorKind::Greedy,
            phase1_cells: 4,
            period_batches: 8,
        }
    }
}

/// Configuration of a PS2Stream deployment.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of dispatcher executors (the paper's evaluation uses 4).
    pub num_dispatchers: usize,
    /// Number of worker executors (8 in most experiments, up to 24 in the
    /// scalability study).
    pub num_workers: usize,
    /// Number of merger executors.
    pub num_mergers: usize,
    /// Capacity of the system input channel in **batches** (batches in
    /// flight before the feeding thread blocks).
    pub input_capacity: usize,
    /// Capacity of each worker → merger channel.
    pub merger_capacity: usize,
    /// Number of records grouped into one batch on every hot-path channel:
    /// the system input, the dispatcher → worker fan-out (per-worker reorder
    /// buffers) and the worker → merger match traffic. Per-record ingestion
    /// timestamps are preserved inside a batch, so latency accounting is
    /// unaffected; only channel traffic is amortized. `1` reproduces the
    /// previous record-at-a-time behaviour. **Default: 16.**
    pub batch_size: usize,
    /// Has no effect: every worker's GI² index uses the routing table's
    /// grid, whose granularity is the partitioner's own `grid_exp` (at most
    /// [`MAX_GRID_EXP`](ps2stream_partition::text::MAX_GRID_EXP)). Kept
    /// only because the benchmark crate, whose sources are frozen, sets it.
    pub grid_exp: u32,
    /// Cost constants of the load model.
    pub costs: CostConstants,
    /// Dynamic load adjustment; `None` disables it (the "NoAdjust" system of
    /// Figure 16).
    pub adjustment: Option<AdjustmentConfig>,
    /// Execution substrate the executors are spawned onto: OS threads
    /// (default), the cooperative core-pool executor, or the deterministic
    /// simulator. The default honours the `PS2_RUNTIME` environment variable
    /// (`threads` | `coop` | `coop:<threads>` | `sim` | `sim:<seed>`) so an
    /// unmodified test suite can be re-run on another backend.
    pub runtime: RuntimeBackend,
    /// Has no effect: executor threads always float. Like `numa_shards`,
    /// the field survives only because the frozen `crates/benchmark/` builds
    /// this config field by field; the next PR allowed to edit that crate
    /// deletes it.
    pub pinning: bool,
    /// Has no effect: the `H2` term registry has one fixed layout. The
    /// field survives only because the frozen `crates/benchmark/` builds
    /// this config field by field; the next PR allowed to edit that crate
    /// deletes it.
    pub numa_shards: Option<usize>,
    /// Durable subscriptions: when set, every query insert/delete is written
    /// to the operation log in the given directory before it is routed, and
    /// launching the system first recovers (and replays) whatever the
    /// directory already holds. `None` (the default) keeps the historical
    /// in-memory-only behaviour. The store's fsync policy honours
    /// `PS2_FSYNC` (`always` | `every:<n>` | `never`).
    pub durability: Option<StoreConfig>,
    /// Deterministic fault schedule interpreted by the supervised pipeline
    /// (worker crashes, wedges, edge drop/delay shims; see
    /// [`ps2stream_stream::FaultPlan`]). `None` injects nothing. The default
    /// honours the `PS2_FAULTS` environment variable (panicking on a
    /// malformed spec, like `PS2_RUNTIME`) so any binary can run under a
    /// fault schedule without code changes.
    pub faults: Option<FaultPlan>,
    /// What workers and mergers do when their mailbox backlog exceeds its
    /// bound: block the producers (default) or shed the oldest data
    /// messages with explicit counters.
    pub overload: OverloadPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            num_dispatchers: 4,
            num_workers: 8,
            num_mergers: 2,
            input_capacity: 4096,
            merger_capacity: 4096,
            batch_size: 16,
            grid_exp: 6,
            costs: CostConstants::default(),
            adjustment: None,
            runtime: RuntimeBackend::from_env().unwrap_or_default(),
            pinning: false,
            numa_shards: None,
            durability: None,
            faults: FaultPlan::from_env(),
            overload: OverloadPolicy::default(),
        }
    }
}

impl SystemConfig {
    /// Configuration matching the paper's main setup: 4 dispatchers, 8
    /// workers.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Overrides the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.num_workers = workers;
        self
    }

    /// Overrides the number of dispatchers.
    pub fn with_dispatchers(mut self, dispatchers: usize) -> Self {
        self.num_dispatchers = dispatchers;
        self
    }

    /// Overrides the hot-path batch size (`1` disables batching).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Enables dynamic load adjustment.
    pub fn with_adjustment(mut self, adjustment: AdjustmentConfig) -> Self {
        self.adjustment = Some(adjustment);
        self
    }

    /// Selects the execution substrate (overriding any `PS2_RUNTIME` value
    /// picked up by `Default`).
    pub fn with_runtime(mut self, runtime: RuntimeBackend) -> Self {
        self.runtime = runtime;
        self
    }

    /// Enables durable subscriptions backed by the given store configuration
    /// (see [`SystemConfig::durability`]).
    pub fn with_durability(mut self, store: StoreConfig) -> Self {
        self.durability = Some(store);
        self
    }

    /// Installs a fault schedule (overriding any `PS2_FAULTS` value picked
    /// up by `Default`); `None` disables injection.
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the overload policy of the workers and mergers.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_dispatchers, 4);
        assert_eq!(c.num_workers, 8);
        assert_eq!(c.grid_exp, 6);
        assert_eq!(c.batch_size, 16);
        assert!(c.adjustment.is_none());
    }

    #[test]
    fn batch_size_override_clamps_to_one() {
        let c = SystemConfig::default().with_batch_size(128);
        assert_eq!(c.batch_size, 128);
        let c = SystemConfig::default().with_batch_size(0);
        assert_eq!(c.batch_size, 1);
    }

    #[test]
    fn builder_overrides() {
        let c = SystemConfig::default()
            .with_workers(24)
            .with_dispatchers(2)
            .with_adjustment(AdjustmentConfig::default());
        assert_eq!(c.num_workers, 24);
        assert_eq!(c.num_dispatchers, 2);
        assert_eq!(c.adjustment.as_ref().unwrap().selector.name(), "GR");
    }

    #[test]
    fn selector_names() {
        assert_eq!(SelectorKind::Dp.name(), "DP");
        assert_eq!(SelectorKind::Greedy.name(), "GR");
        assert_eq!(SelectorKind::Size.name(), "SI");
        assert_eq!(SelectorKind::Random.name(), "RA");
    }

    #[test]
    fn fault_and_overload_overrides() {
        let c = SystemConfig::default();
        assert_eq!(c.overload, OverloadPolicy::Block);
        let plan = FaultPlan::parse("crash:worker:1@tick=100").unwrap();
        let c = c
            .with_faults(Some(plan.clone()))
            .with_overload(OverloadPolicy::ShedOldest {
                worker_mailbox: 8,
                merger_mailbox: 8,
            });
        assert_eq!(c.faults.as_ref().unwrap().specs.len(), plan.specs.len());
        assert!(matches!(c.overload, OverloadPolicy::ShedOldest { .. }));
        let c = c.with_faults(None);
        assert!(c.faults.is_none());
    }

    #[test]
    fn runtime_override_wins_over_default() {
        let c = SystemConfig::default().with_runtime(RuntimeBackend::deterministic(9));
        assert_eq!(c.runtime.name(), "sim");
        let c = c.with_runtime(RuntimeBackend::coop());
        assert_eq!(c.runtime.name(), "coop");
    }
}
