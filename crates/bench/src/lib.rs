//! Shared harness for reproducing the figures of the PS2Stream paper.
//!
//! Every figure of Section VI has a dedicated binary in `src/bin/` (see
//! `DESIGN.md` for the experiment index). The binaries share this harness:
//! it generates the scaled-down workloads, drives a full in-process
//! PS2Stream deployment and prints the same series the paper plots.
//!
//! The workload sizes are scaled down from the paper's 5M–20M queries so a
//! complete run finishes on a laptop; set the `PS2_SCALE` environment
//! variable (default `1.0`) to scale every workload up or down.
//!
//! # Example
//!
//! Running a tiny end-to-end experiment through the shared harness:
//!
//! ```
//! use ps2stream_bench::{build_partitioner, Experiment, Scale};
//! use ps2stream::prelude::{DatasetSpec, QueryClass};
//!
//! let scale = Scale {
//!     queries: 200,
//!     stream_records: 400,
//!     calibration_objects: 300,
//!     calibration_queries: 100,
//! };
//! let report = Experiment::new(
//!     DatasetSpec::tiny(),
//!     QueryClass::Q1,
//!     build_partitioner("Hybrid"),
//!     scale,
//! )
//! .with_workers(2)
//! .run();
//! assert_eq!(report.records_in, (200 + 400) as u64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod migration_lab;

use ps2stream::prelude::*;
use ps2stream_partition::Partitioner;

pub use migration_lab::{MigrationLab, MigrationOutcome};

/// Workload sizes used by the experiment binaries (already scaled).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of STS queries registered before measuring ("µ" in the paper,
    /// 5M/10M/20M there).
    pub queries: usize,
    /// Number of stream records (objects + updates) driven through the system
    /// during the measured phase.
    pub stream_records: usize,
    /// Number of objects in the calibration sample given to the partitioner.
    pub calibration_objects: usize,
    /// Number of queries in the calibration sample given to the partitioner.
    pub calibration_queries: usize,
}

impl Scale {
    /// The scale factor read from `PS2_SCALE` (default 1.0).
    pub fn factor() -> f64 {
        std::env::var("PS2_SCALE")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|v| *v > 0.0)
            .unwrap_or(1.0)
    }

    /// The scale corresponding to the paper's "5M queries" configuration.
    pub fn q5m() -> Self {
        Self::from_base(20_000)
    }

    /// The scale corresponding to the paper's "10M queries" configuration.
    pub fn q10m() -> Self {
        Self::from_base(40_000)
    }

    /// The scale corresponding to the paper's "20M queries" configuration.
    pub fn q20m() -> Self {
        Self::from_base(80_000)
    }

    /// A small scale for quick smoke tests.
    pub fn smoke() -> Self {
        Self {
            queries: 2_000,
            stream_records: 6_000,
            calibration_objects: 2_000,
            calibration_queries: 500,
        }
    }

    fn from_base(base_queries: usize) -> Self {
        let f = Self::factor();
        let queries = ((base_queries as f64) * f) as usize;
        Self {
            queries: queries.max(100),
            stream_records: (queries * 3).max(300),
            calibration_objects: (queries / 2).clamp(1_000, 40_000),
            calibration_queries: (queries / 8).clamp(200, 10_000),
        }
    }
}

/// One experiment configuration: a dataset, a query class, a partitioning
/// strategy and a cluster size.
pub struct Experiment {
    /// Dataset ("TWEETS-US" or "TWEETS-UK" substitute).
    pub dataset: DatasetSpec,
    /// Query class (Q1 / Q2 / Q3).
    pub class: QueryClass,
    /// Partitioning strategy under test.
    pub partitioner: Box<dyn Partitioner>,
    /// Number of worker executors.
    pub workers: usize,
    /// Number of dispatcher executors.
    pub dispatchers: usize,
    /// Workload sizes.
    pub scale: Scale,
    /// Dynamic load adjustment configuration (None = disabled).
    pub adjustment: Option<AdjustmentConfig>,
    /// Hot-path batch size override (None = the system default).
    pub batch_size: Option<usize>,
    /// Execution substrate override (None = the system default, which
    /// honours `PS2_RUNTIME`).
    pub runtime: Option<RuntimeBackend>,
    /// Core-pinning override (None = the system default, which honours
    /// `PS2_PIN`).
    pub pinning: Option<bool>,
    /// Adversarial scenario overlaid on the measured stream (None = the
    /// paper's steady-state mix).
    pub scenario: Option<Scenario>,
    /// Durable-subscription store configuration (None = in-memory only).
    pub durability: Option<StoreConfig>,
    /// Declarative fault schedule injected into the run (None = fault-free).
    pub faults: Option<FaultPlan>,
    /// Random seed.
    pub seed: u64,
}

impl Experiment {
    /// Creates an experiment with the paper's default cluster (4 dispatchers,
    /// 8 workers) and no dynamic adjustment.
    pub fn new(
        dataset: DatasetSpec,
        class: QueryClass,
        partitioner: Box<dyn Partitioner>,
        scale: Scale,
    ) -> Self {
        Self {
            dataset,
            class,
            partitioner,
            workers: 8,
            dispatchers: 4,
            scale,
            adjustment: None,
            batch_size: None,
            runtime: None,
            pinning: None,
            scenario: None,
            durability: None,
            faults: None,
            seed: 42,
        }
    }

    /// Overrides the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the hot-path batch size (see `SystemConfig::batch_size`).
    pub fn with_batch(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Enables dynamic load adjustment.
    pub fn with_adjustment(mut self, adjustment: AdjustmentConfig) -> Self {
        self.adjustment = Some(adjustment);
        self
    }

    /// Overrides the execution substrate (see `SystemConfig::runtime`).
    pub fn with_runtime(mut self, runtime: RuntimeBackend) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Overrides core pinning (see `SystemConfig::pinning`).
    pub fn with_pinning(mut self, pinning: bool) -> Self {
        self.pinning = Some(pinning);
        self
    }

    /// Overlays an adversarial workload scenario on the measured stream
    /// (warm-up stays steady-state so every run starts from the same live
    /// query population).
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Enables the durable subscription store (op log + snapshots in
    /// `store.dir`; see `SystemConfig::durability`).
    pub fn with_durability(mut self, store: StoreConfig) -> Self {
        self.durability = Some(store);
        self
    }

    /// Injects a declarative fault schedule (see `SystemConfig::faults` and
    /// the `PS2_FAULTS` grammar). The supervised pipeline masks every
    /// scheduled fault, so throughput/latency columns show the recovery
    /// cost rather than lost work.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the experiment: partition on a calibration sample, register the
    /// initial query population, drive the measured stream, and return the
    /// run report.
    pub fn run(self) -> RunReport {
        let scale = self.scale;
        // calibration sample for the partitioner
        let sample = ps2stream_workload::build_sample(
            self.dataset.clone(),
            self.class,
            scale.calibration_objects,
            scale.calibration_queries,
            self.seed,
        );
        let config = SystemConfig {
            num_dispatchers: self.dispatchers,
            num_workers: self.workers,
            num_mergers: 2,
            ..SystemConfig::default()
        };
        let config = match self.adjustment {
            Some(adj) => config.with_adjustment(adj),
            None => config,
        };
        let config = match self.batch_size {
            Some(batch) => config.with_batch_size(batch),
            None => config,
        };
        let config = match self.runtime {
            Some(runtime) => config.with_runtime(runtime),
            None => config,
        };
        let config = match self.pinning {
            Some(pinning) => config.with_pinning(pinning),
            None => config,
        };
        let config = match self.durability {
            Some(store) => config.with_durability(store),
            None => config,
        };
        let config = config.with_faults(self.faults);
        let mut system = Ps2StreamBuilder::new(config)
            .with_partitioner(self.partitioner)
            .with_calibration_sample(sample)
            .start();

        // workload driver: warm up to the target live-query population, then
        // drive the measured mix
        let mut corpus = CorpusGenerator::new(self.dataset.clone(), self.seed.wrapping_add(7));
        let corpus_sample = corpus.generate(scale.calibration_objects);
        let queries = QueryGenerator::from_corpus(
            &corpus,
            &corpus_sample,
            QueryGeneratorConfig::new(self.class),
            self.seed.wrapping_add(13),
        );
        let mut driver = WorkloadDriver::new(
            DriverConfig::with_mu(scale.queries as u64),
            corpus,
            queries,
            self.seed.wrapping_add(23),
        );
        for record in driver.warm_up(scale.queries) {
            system.send(record);
        }
        match self.scenario {
            Some(scenario) => {
                let mut scenario_driver =
                    ScenarioDriver::new(driver, scenario, self.seed.wrapping_add(31));
                for record in (&mut scenario_driver).take(scale.stream_records) {
                    system.send(record);
                }
            }
            None => {
                for record in (&mut driver).take(scale.stream_records) {
                    system.send(record);
                }
            }
        }
        system.finish()
    }
}

/// Pretty-prints a result table in the style of the paper's figures.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a tuples/second value the way the paper's axes do.
pub fn fmt_tps(tps: f64) -> String {
    format!("{:.0}", tps)
}

/// Formats a byte count as mebibytes.
pub fn fmt_mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration in milliseconds.
pub fn fmt_ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The two datasets of the evaluation.
pub fn datasets() -> Vec<DatasetSpec> {
    vec![DatasetSpec::tweets_us(), DatasetSpec::tweets_uk()]
}

/// The three strategies compared in Figures 7–11 (Metric, kd-tree, Hybrid).
pub fn headline_strategies() -> Vec<&'static str> {
    vec!["Metric", "kd-tree", "Hybrid"]
}

/// Builds a partitioner by its name as used in the paper's figures.
///
/// # Panics
/// Panics on an unknown name.
pub fn build_partitioner(name: &str) -> Box<dyn Partitioner> {
    match name {
        "Frequency" => Box::new(FrequencyPartitioner::default()),
        "Hypergraph" => Box::new(HypergraphPartitioner::default()),
        "Metric" => Box::new(MetricPartitioner::default()),
        "Grid" => Box::new(GridPartitioner::default()),
        "kd-tree" => Box::new(KdTreePartitioner::default()),
        "R-tree" => Box::new(RTreePartitioner::default()),
        "Hybrid" => Box::new(HybridPartitioner::default()),
        other => panic!("unknown partitioner {other}"),
    }
}

/// The dataset tag used in workload names ("US" / "UK").
pub fn dataset_tag(spec: &DatasetSpec) -> &'static str {
    if spec.name.contains("US") {
        "US"
    } else {
        "UK"
    }
}

/// The optional command-line knobs shared by the fig07/fig08 binaries
/// (`None` everywhere = system defaults, which honour `PS2_RUNTIME` and
/// `PS2_PIN`).
#[derive(Debug, Clone, Default)]
pub struct RunKnobs {
    /// `--batch N`: hot-path batch size.
    pub batch: Option<usize>,
    /// `--runtime <spec>`: execution substrate.
    pub runtime: Option<RuntimeBackend>,
    /// `--pin`: core pinning.
    pub pinning: Option<bool>,
    /// `--scenario <name>`: adversarial workload scenario. Implies dynamic
    /// load adjustment (the controller's reaction is the thing being
    /// measured).
    pub scenario: Option<Scenario>,
    /// `--durable`: append every query update to an op log (plus periodic
    /// snapshots) in a per-run temp directory, and probe recovery
    /// afterwards. Durability cost shows up in the throughput/latency
    /// columns; log/snapshot sizes and replay time land in the JSON rows.
    pub durable: bool,
    /// `--faults <spec>`: declarative fault schedule (the `PS2_FAULTS`
    /// grammar). The supervised pipeline masks every scheduled fault;
    /// recovery cost shows up in the throughput/latency columns, the
    /// crash/shed/replay counters land in the JSON rows.
    pub faults: Option<FaultPlan>,
}

impl RunKnobs {
    /// Parses all knobs from the process command line.
    pub fn from_args() -> Self {
        Self {
            batch: batch_arg(),
            runtime: runtime_arg(),
            pinning: pin_arg(),
            scenario: scenario_arg(),
            durable: durable_arg(),
            faults: faults_arg(),
        }
    }

    /// Renders the knob line printed in each figure header.
    pub fn describe(&self) -> String {
        format!(
            "--batch {}; --runtime {}; pinning {}; scenario {}; durable {}; faults {}",
            self.batch.map_or("default".to_string(), |b| b.to_string()),
            self.runtime
                .as_ref()
                .map_or("default".to_string(), |r| r.name().to_string()),
            self.pinning
                .map_or("default".to_string(), |p| p.to_string()),
            self.scenario
                .map_or("steady-state".to_string(), |s| s.name().to_string()),
            self.durable,
            self.faults
                .as_ref()
                .map_or("none".to_string(), |p| format!("{} spec(s)", p.specs.len())),
        )
    }

    /// The scenario name for JSON reports ("steady-state" when none).
    pub fn scenario_name(&self) -> String {
        self.scenario
            .map_or("steady-state".to_string(), |s| s.name().to_string())
    }
}

/// Runs one headline experiment (Figures 7–11): the given dataset, query
/// class and strategy on `workers` workers, under the command-line knobs of
/// the fig07/fig08 binaries (`&RunKnobs::default()` = system defaults).
pub fn headline_report(
    dataset: DatasetSpec,
    class: QueryClass,
    strategy: &str,
    scale: Scale,
    workers: usize,
    knobs: &RunKnobs,
) -> RunReport {
    let mut experiment =
        Experiment::new(dataset, class, build_partitioner(strategy), scale).with_workers(workers);
    if let Some(batch) = knobs.batch {
        experiment = experiment.with_batch(batch);
    }
    if let Some(runtime) = knobs.runtime.clone() {
        experiment = experiment.with_runtime(runtime);
    }
    if let Some(pinning) = knobs.pinning {
        experiment = experiment.with_pinning(pinning);
    }
    if let Some(plan) = knobs.faults.clone() {
        experiment = experiment.with_faults(plan);
    }
    if let Some(scenario) = knobs.scenario {
        // an adversarial run is about the controller's reaction, so enable
        // dynamic adjustment with the responsive poll interval the Figure 16
        // drift experiment uses
        experiment = experiment
            .with_scenario(scenario)
            .with_adjustment(AdjustmentConfig {
                poll_interval_ms: 50,
                ..AdjustmentConfig::default()
            });
    }
    if !knobs.durable {
        return experiment.run();
    }
    let dir = fresh_durability_dir();
    // snapshot a handful of times per run regardless of PS2_SCALE, so the
    // JSON artifact always carries a real snapshot size
    let snapshot_every = (scale.queries as u64 / 4).max(256);
    experiment = experiment
        .with_durability(StoreConfig::new(&dir).with_snapshot_every(Some(snapshot_every)));
    let mut report = experiment.run();
    // recovery probe: reopen what the run left on disk and time the decode
    // of snapshot + log tail — the state-reconstruction cost a restart pays
    // before it can route again
    let (probe, recovered) = PersistentStore::open(StoreConfig::new(&dir))
        .expect("reopen the durability directory for the recovery probe");
    let replay_start = std::time::Instant::now();
    let replayed = recovered.replay_updates().count() as u64;
    let replay_time = replay_start.elapsed();
    drop(probe);
    if let Some(p) = &mut report.persistence {
        p.recovered_ops = replayed;
        p.replay_time = replay_time;
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A unique, empty temp directory for one `--durable` run.
fn fresh_durability_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ps2bench-durable-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The value of a `--flag value` / `--flag=value` argument on the process
/// command line, `None` when the flag is absent. Panics when the flag ends
/// the line without a value.
fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().enumerate().find_map(|(i, arg)| {
        if arg == flag {
            let value = args.get(i + 1).cloned();
            Some(value.unwrap_or_else(|| panic!("{flag} expects a value")))
        } else {
            arg.strip_prefix(flag)?.strip_prefix('=').map(str::to_owned)
        }
    })
}

/// Parses a `--batch N` argument from the process command line (the batching
/// knob shared by the fig07/fig08 binaries). Returns `None` when absent;
/// panics on a malformed value so a typo does not silently benchmark the
/// default.
pub fn batch_arg() -> Option<usize> {
    let value = flag_value("--batch")?;
    Some(value.parse().expect("--batch expects a positive integer"))
}

/// Parses a `--runtime {threads,coop,coop:<threads>,sim,sim:<seed>}` argument
/// (the execution-substrate knob of the fig07/fig08 binaries). Returns
/// `None` when absent; panics on an unknown backend so a typo does not
/// silently benchmark the default.
pub fn runtime_arg() -> Option<RuntimeBackend> {
    let spec = flag_value("--runtime")?;
    Some(RuntimeBackend::parse(&spec).unwrap_or_else(|| {
        panic!("--runtime {spec:?}: expected threads|coop|coop:<threads>|sim|sim:<seed>")
    }))
}

/// Parses a `--pin` flag (the core-pinning knob of the fig07/fig08
/// binaries): present means pin executor threads according to the detected
/// machine topology; absent means the system default (which honours
/// `PS2_PIN`).
pub fn pin_arg() -> Option<bool> {
    std::env::args().any(|a| a == "--pin").then_some(true)
}

/// Parses a `--durable` flag (the persistence knob of the fig07/fig08
/// binaries): present means every query update is op-logged and
/// periodically snapshotted to a per-run temp directory (fsync policy from
/// `PS2_FSYNC`), with a recovery probe after the run.
pub fn durable_arg() -> bool {
    std::env::args().any(|a| a == "--durable")
}

/// Parses a `--faults <spec>` argument (the fault-injection knob of the
/// fig07/fig08 binaries): a declarative fault schedule in the `PS2_FAULTS`
/// grammar, e.g. `crash:worker:0@tick=5000;drop:worker->merger:p=0.01:k=8`.
/// Returns `None` when absent; panics on a malformed schedule so a typo does
/// not silently benchmark a fault-free run.
pub fn faults_arg() -> Option<FaultPlan> {
    let spec = flag_value("--faults")?;
    Some(FaultPlan::parse(&spec).unwrap_or_else(|err| panic!("--faults {spec:?}: {err}")))
}

/// Parses a `--scenario <name>` argument (the adversarial-workload knob of
/// the fig07/fig08 binaries). Returns `None` when absent; panics on an
/// unknown scenario name, listing the valid ones, so a typo does not
/// silently benchmark the steady-state mix.
pub fn scenario_arg() -> Option<Scenario> {
    let name = flag_value("--scenario")?;
    Some(Scenario::parse(&name).unwrap_or_else(|| {
        let valid: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
        panic!("--scenario {name:?}: expected one of {}", valid.join(", "))
    }))
}

/// Parses a `--json <path>` argument: the experiment binaries write their
/// result tables to `path` in machine-readable form (the perf-trajectory
/// artifact consumed by CI). Returns `None` when absent.
pub fn json_arg() -> Option<String> {
    flag_value("--json")
}

/// A JSON scalar for the hand-rolled report writer (the workspace
/// deliberately has no serde_json dependency; the report structure is flat
/// enough to render directly).
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// A string value (escaped on render).
    Str(String),
    /// A floating-point value (rendered with 3 decimals; non-finite values
    /// render as `null`).
    Float(f64),
    /// An integer value.
    Int(i64),
}

impl JsonValue {
    fn render(&self) -> String {
        match self {
            JsonValue::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            JsonValue::Float(f) if f.is_finite() => format!("{f:.3}"),
            JsonValue::Float(_) => "null".to_string(),
            JsonValue::Int(i) => i.to_string(),
        }
    }
}

fn render_object(fields: &[(&str, JsonValue)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                JsonValue::Str((*k).to_string()).render(),
                v.render()
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes a machine-readable result report: a JSON object with `name`, the
/// given scalar fields, and a `rows` array of objects (one per result-table
/// row).
pub fn write_json_file(
    path: &str,
    name: &str,
    scalars: &[(&str, JsonValue)],
    rows: &[Vec<(&str, JsonValue)>],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"name\": {},\n",
        JsonValue::Str(name.to_string()).render()
    ));
    for (k, v) in scalars {
        out.push_str(&format!(
            "  {}: {},\n",
            JsonValue::Str((*k).to_string()).render(),
            v.render()
        ));
    }
    out.push_str("  \"rows\": [\n");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| format!("    {}", render_object(r)))
        .collect();
    out.push_str(&rendered.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_monotone() {
        assert!(Scale::q5m().queries < Scale::q10m().queries);
        assert!(Scale::q10m().queries < Scale::q20m().queries);
        assert!(Scale::smoke().queries <= Scale::q5m().queries);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_tps(1234.56), "1235");
        assert_eq!(fmt_mib(1024 * 1024), "1.00");
        assert_eq!(fmt_ms(std::time::Duration::from_millis(15)), "15.00");
    }

    #[test]
    fn build_partitioner_knows_every_strategy() {
        for name in [
            "Frequency",
            "Hypergraph",
            "Metric",
            "Grid",
            "kd-tree",
            "R-tree",
            "Hybrid",
        ] {
            assert_eq!(build_partitioner(name).name(), name);
        }
    }

    #[test]
    fn smoke_experiment_runs_end_to_end() {
        let report = Experiment::new(
            DatasetSpec::tiny(),
            QueryClass::Q1,
            Box::new(KdTreePartitioner::default()),
            Scale::smoke(),
        )
        .with_workers(2)
        .run();
        assert!(report.records_in > 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn scenario_experiments_run_end_to_end() {
        let scale = Scale {
            queries: 200,
            stream_records: 400,
            calibration_objects: 300,
            calibration_queries: 100,
        };
        for scenario in Scenario::all() {
            let report = Experiment::new(
                DatasetSpec::tiny(),
                QueryClass::Q1,
                Box::new(KdTreePartitioner::default()),
                scale,
            )
            .with_workers(2)
            .with_scenario(scenario)
            .run();
            assert_eq!(
                report.records_in,
                600,
                "scenario {} lost records",
                scenario.name()
            );
            assert!(report.throughput_tps > 0.0);
        }
    }

    #[test]
    fn faulted_experiment_masks_the_crash() {
        let scale = Scale {
            queries: 200,
            stream_records: 400,
            calibration_objects: 300,
            calibration_queries: 100,
        };
        let report = Experiment::new(
            DatasetSpec::tiny(),
            QueryClass::Q1,
            Box::new(KdTreePartitioner::default()),
            scale,
        )
        .with_workers(2)
        .with_runtime(RuntimeBackend::deterministic(7))
        .with_faults(FaultPlan::parse("crash:worker:0@tick=50").unwrap())
        .run();
        // the crash fired, the respawn answered it, and no records were lost
        assert_eq!(report.records_in, 600);
        assert_eq!(report.faults.worker_crashes, 1);
        assert_eq!(report.faults.worker_respawns, 1);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn json_report_renders_and_escapes() {
        let path = std::env::temp_dir().join("ps2stream_json_report_test.json");
        let path_str = path.to_str().unwrap();
        write_json_file(
            path_str,
            "demo",
            &[("scale", JsonValue::Float(1.5)), ("n", JsonValue::Int(3))],
            &[
                vec![
                    ("workload", JsonValue::Str("STS-\"US\"-Q1".into())),
                    ("tps", JsonValue::Float(1234.5678)),
                ],
                vec![("workload", JsonValue::Str("STS-UK-Q1".into()))],
            ],
        )
        .unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"name\": \"demo\""));
        assert!(written.contains("\"scale\": 1.500"));
        assert!(written.contains("\\\"US\\\""));
        assert!(written.contains("\"tps\": 1234.568"));
        let _ = std::fs::remove_file(&path);
        // non-finite floats render as null, empty rows render as []
        write_json_file(
            path_str,
            "x",
            &[("bad", JsonValue::Float(f64::INFINITY))],
            &[],
        )
        .unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"bad\": null"));
        assert!(written.contains("\"rows\": [\n  ]"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["strategy", "tps"],
            &[vec!["Hybrid".into(), "123".into()]],
        );
    }
}
