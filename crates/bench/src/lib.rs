//! Shared harness for reproducing the figures of the PS2Stream paper.
//!
//! Every figure of Section VI has a dedicated binary in `src/bin/` (see
//! `docs/ARCHITECTURE.md` §6). The binaries share this harness:
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
#![forbid(unsafe_code)]

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
    ///
    /// # Panics
    /// Panics on a value that is not a finite number greater than zero, like
    /// `PS2_RUNTIME`: a typo such as `0,02` must not silently run at full
    /// scale.
    pub fn factor() -> f64 {
        let Ok(spec) = std::env::var("PS2_SCALE") else {
            return 1.0;
        };
        parse_factor(&spec).unwrap_or_else(|e| panic!("PS2_SCALE={spec:?}: {e}"))
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

/// Parses a `PS2_SCALE` value: a finite number greater than zero.
fn parse_factor(spec: &str) -> Result<f64, String> {
    match spec.trim().parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 => Ok(f),
        Ok(_) => Err("expected a finite scale factor greater than 0".to_string()),
        Err(_) => Err("expected a number such as 0.05".to_string()),
    }
}

/// One experiment configuration: a dataset, a query class, a partitioning
/// strategy and the deployment it runs on.
pub struct Experiment {
    /// Dataset ("TWEETS-US" or "TWEETS-UK" substitute).
    pub dataset: DatasetSpec,
    /// Query class (Q1 / Q2 / Q3).
    pub class: QueryClass,
    /// Partitioning strategy under test.
    pub partitioner: Box<dyn Partitioner>,
    /// Workload sizes.
    pub scale: Scale,
    /// The deployment: the paper's 4 dispatchers and 8 workers, 2 mergers,
    /// no fault plan, and the system defaults for everything else (so the
    /// runtime honours `PS2_RUNTIME`).
    pub config: SystemConfig,
    /// Adversarial scenario overlaid on the measured stream (None = the
    /// paper's steady-state mix).
    pub scenario: Option<Scenario>,
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
            scale,
            config: SystemConfig {
                num_dispatchers: 4,
                num_workers: 8,
                num_mergers: 2,
                faults: None,
                ..SystemConfig::default()
            },
            scenario: None,
            seed: 42,
        }
    }

    /// Overrides the number of workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.num_workers = workers;
        self
    }

    /// Enables dynamic load adjustment.
    pub fn with_adjustment(mut self, adjustment: AdjustmentConfig) -> Self {
        self.config.adjustment = Some(adjustment);
        self
    }

    /// Overlays an adversarial workload scenario on the measured stream
    /// (warm-up stays steady-state so every run starts from the same live
    /// query population).
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
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
        let mut system = Ps2StreamBuilder::new(self.config)
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
/// (`None` everywhere = system defaults, which honour `PS2_RUNTIME`).
#[derive(Debug, Clone, Default)]
pub struct RunKnobs {
    /// `--batch N`: hot-path batch size.
    pub batch: Option<usize>,
    /// `--runtime <spec>`: execution substrate.
    pub runtime: Option<RuntimeBackend>,
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
    /// Parses all knobs from the process command line. Panics on a
    /// malformed value, so a typo does not silently benchmark the default.
    pub fn from_args() -> Self {
        Self {
            batch: flag_value("--batch")
                .map(|v| v.parse().expect("--batch expects a positive integer")),
            runtime: flag_value("--runtime").map(|spec| {
                RuntimeBackend::parse(&spec).unwrap_or_else(|| {
                    panic!(
                        "--runtime {spec:?}: expected threads|coop|coop:<threads>|sim|sim:<seed>"
                    )
                })
            }),
            scenario: flag_value("--scenario").map(|name| {
                Scenario::parse(&name).unwrap_or_else(|| {
                    let valid: Vec<&str> = Scenario::all().iter().map(|s| s.name()).collect();
                    panic!("--scenario {name:?}: expected one of {}", valid.join(", "))
                })
            }),
            durable: std::env::args().any(|a| a == "--durable"),
            faults: flag_value("--faults").map(|spec| {
                FaultPlan::parse(&spec).unwrap_or_else(|err| panic!("--faults {spec:?}: {err}"))
            }),
        }
    }

    /// Renders the knob line printed in each figure header.
    pub fn describe(&self) -> String {
        format!(
            "--batch {}; --runtime {}; scenario {}; durable {}; faults {}",
            self.batch.map_or("default".to_string(), |b| b.to_string()),
            self.runtime
                .as_ref()
                .map_or("default".to_string(), |r| r.name().to_string()),
            self.scenario_name(),
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

    /// Applies the knobs to an experiment's deployment and stream.
    fn apply(&self, mut experiment: Experiment) -> Experiment {
        if let Some(batch) = self.batch {
            experiment.config = experiment.config.with_batch_size(batch);
        }
        if let Some(runtime) = self.runtime.clone() {
            experiment.config = experiment.config.with_runtime(runtime);
        }
        if let Some(plan) = self.faults.clone() {
            experiment.config = experiment.config.with_faults(Some(plan));
        }
        match self.scenario {
            // an adversarial run is about the controller's reaction, so
            // enable dynamic adjustment as the Figure 16 drift experiment
            // configures it
            Some(scenario) => experiment
                .with_scenario(scenario)
                .with_adjustment(AdjustmentConfig::default()),
            None => experiment,
        }
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
    let mut experiment = knobs.apply(
        Experiment::new(dataset, class, build_partitioner(strategy), scale).with_workers(workers),
    );
    if !knobs.durable {
        return experiment.run();
    }
    let dir = fresh_durability_dir();
    // snapshot a handful of times per run regardless of PS2_SCALE, so the
    // JSON artifact always carries a real snapshot size
    let snapshot_every = (scale.queries as u64 / 4).max(256);
    experiment.config.durability =
        Some(StoreConfig::new(&dir).with_snapshot_every(Some(snapshot_every)));
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

/// A headline figure (Figures 7 and 8): three panels × two datasets × the
/// three headline strategies on 8 workers, each run printed as one table
/// row and written as one `--json` row. The figures differ only in the two
/// measures they read off each run.
pub struct HeadlineFigure {
    /// Binary name; also the `name` of the `--json` report.
    pub name: &'static str,
    /// Figure number in the paper.
    pub number: u32,
    /// What the figure compares ("throughput", "latency").
    pub subject: &'static str,
    /// Table headers of the two measure columns.
    pub headers: [&'static str; 2],
    /// The two measure cells of one run's table row.
    pub cells: fn(&RunReport) -> [String; 2],
    /// The measure fields of one run's JSON row (between `scenario` and the
    /// migration counters).
    pub fields: fn(&RunReport) -> Vec<(&'static str, JsonValue)>,
    /// The paper's expected shape, printed after the tables.
    pub paper_shape: &'static str,
}

impl HeadlineFigure {
    /// Runs every panel under the command-line knobs, prints the tables and
    /// writes the `--json <path>` report when asked.
    pub fn run(&self) {
        let knobs = RunKnobs::from_args();
        let mut json_rows = Vec::new();
        println!(
            "Figure {}: {} comparison (Metric, kd-tree, Hybrid)",
            self.number, self.subject
        );
        println!(
            "(4 dispatchers, 8 workers; PS2_SCALE={}; {})",
            Scale::factor(),
            knobs.describe(),
        );
        let panels = [
            ("a", "5M", QueryClass::Q1, Scale::q5m()),
            ("b", "10M", QueryClass::Q2, Scale::q10m()),
            ("c", "10M", QueryClass::Q3, Scale::q10m()),
        ];
        for (panel, queries, class, scale) in panels {
            let mut rows = Vec::new();
            for dataset in datasets() {
                for strategy in headline_strategies() {
                    let report =
                        headline_report(dataset.clone(), class, strategy, scale, 8, &knobs);
                    let workload = format!("STS-{}-{}", dataset_tag(&dataset), class.name());
                    let [first, second] = (self.cells)(&report);
                    rows.push(vec![workload.clone(), strategy.to_string(), first, second]);
                    json_rows.push(self.json_row(panel, workload, strategy, &knobs, &report));
                }
            }
            let [first, second] = self.headers;
            print_table(
                &format!(
                    "Figure {}({panel}): #Queries={queries} ({})",
                    self.number,
                    class.name()
                ),
                &["workload", "strategy", first, second],
                &rows,
            );
        }
        println!();
        println!("Paper shape: {}", self.paper_shape);
        if let Some(path) = flag_value("--json") {
            write_json_file(
                &path,
                self.name,
                &[
                    ("scale_factor", JsonValue::Float(Scale::factor())),
                    ("scenario", JsonValue::Str(knobs.scenario_name())),
                    ("knobs", JsonValue::Str(knobs.describe())),
                    ("durable", JsonValue::Int(knobs.durable as i64)),
                ],
                &json_rows,
            )
            .expect("writing --json output");
            println!("wrote {path}");
        }
    }

    /// One `--json` row: the run's identity, the figure's measures, then
    /// the migration, durability and supervision counters (all zero unless
    /// `--scenario`, `--durable` or `--faults` engaged them).
    fn json_row(
        &self,
        panel: &str,
        workload: String,
        strategy: &str,
        knobs: &RunKnobs,
        report: &RunReport,
    ) -> Vec<(&'static str, JsonValue)> {
        let int = |n: u64| JsonValue::Int(n as i64);
        let mut row = vec![
            ("panel", JsonValue::Str(panel.to_string())),
            ("workload", JsonValue::Str(workload)),
            ("strategy", JsonValue::Str(strategy.to_string())),
            ("scenario", JsonValue::Str(knobs.scenario_name())),
        ];
        row.extend((self.fields)(report));
        let p = report.persistence.clone().unwrap_or_default();
        let f = &report.faults;
        row.extend([
            ("migration_rounds", int(report.migration_rounds)),
            ("migration_moves", int(report.migration_moves)),
            ("migration_bytes", int(report.migration_bytes)),
            ("ops_logged", int(p.ops_logged)),
            ("log_bytes", int(p.log_bytes)),
            ("snapshot_bytes", int(p.snapshot_bytes)),
            ("snapshots_written", int(p.snapshots_written)),
            ("recovered_ops", int(p.recovered_ops)),
            (
                "replay_ms",
                JsonValue::Float(p.replay_time.as_secs_f64() * 1e3),
            ),
            ("worker_crashes", int(f.worker_crashes)),
            ("worker_respawns", int(f.worker_respawns)),
            ("replayed_records", int(f.replayed_records)),
            ("restored_updates", int(f.restored_updates)),
            ("shed_records", int(f.shed_records)),
            ("shed_matches", int(f.shed_matches)),
            ("diverted_sends", int(f.diverted_sends)),
        ]);
        row
    }
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
    fn scale_factor_parse_rejects_malformed_values() {
        assert_eq!(parse_factor("0.05"), Ok(0.05));
        assert_eq!(parse_factor(" 2 "), Ok(2.0));
        assert_eq!(parse_factor("1e1"), Ok(10.0));
        for bad in ["", "abc", "0,02", "0", "-1", "inf", "NaN"] {
            assert!(parse_factor(bad).is_err(), "{bad:?} was accepted");
        }
    }

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
            // built the way `fig07_throughput --scenario` builds it: the
            // knob overlays the scenario and arms the adjustment controller
            let knobs = RunKnobs {
                scenario: Some(scenario),
                ..RunKnobs::default()
            };
            let experiment = knobs.apply(
                Experiment::new(
                    DatasetSpec::tiny(),
                    QueryClass::Q1,
                    Box::new(KdTreePartitioner::default()),
                    scale,
                )
                .with_workers(2),
            );
            assert_eq!(experiment.scenario, Some(scenario));
            assert!(experiment.config.adjustment.is_some());
            let report = experiment.run();
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
        let mut experiment = Experiment::new(
            DatasetSpec::tiny(),
            QueryClass::Q1,
            Box::new(KdTreePartitioner::default()),
            scale,
        )
        .with_workers(2);
        experiment.config = experiment
            .config
            .with_runtime(RuntimeBackend::deterministic(7))
            .with_faults(Some(FaultPlan::parse("crash:worker:0@tick=50").unwrap()));
        let report = experiment.run();
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
