//! Orchestration: what one `--workload` invocation does, and how its result
//! is printed.
//!
//! Human-readable lines (every metric by name with its unit, diagnostics,
//! per-round detail) go to standard output first; the last line is the one
//! JSON object the driver reads.

use crate::e2e::{open_loop_latencies, run_round, Round};
use crate::json;
use crate::replay::{measure_hop_ns_per_record, measure_price_tags, replay};
use crate::schedule::Schedule;
use crate::spec::{
    MetricDef, Pacing, WorkloadSpec, END_TO_END, PER_LAYER, SLO_MISS_BUDGET, SLO_MS,
};
use crate::stats::{highest_supported_percentile, median, percentile, Summary};
use crate::trace::LayerTotals;
use crate::workload::Prepared;
use std::time::{Duration, Instant};

/// Fewest timed rounds a closed-loop run reports a median over.
const MIN_ROUNDS: usize = 3;
/// Timed rounds of an open-loop run (each `seconds / 5` long).
const OPEN_ROUNDS: usize = 5;
/// Share of the measured stream the discarded first round replays: enough to
/// fault in the heap the index and the queues will use, without paying for a
/// whole round.
const FIRST_ROUND_SHARE: usize = 4;
/// Updates priced by the persist / wire price tags.
const PRICE_TAG_UPDATES: usize = 50_000;

/// One metric's reported value.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    /// Which metric.
    pub def: &'static MetricDef,
    /// Median (the reported value), quartiles and n over the rounds.
    pub summary: Summary,
}

/// The result of one `--workload` invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Every checked output was right (and, open loop, the SLO held).
    pub correct: bool,
    /// Oracle-sampled objects checked over all timed rounds, plus one
    /// delivered-count agreement check per round.
    pub attempted: u64,
    /// Sampled objects whose delivered set was wrong, plus rounds whose
    /// delivered count disagreed with the first round's.
    pub failed: u64,
    /// The metrics the mode reports, in `BENCHMARK.json` order.
    pub metrics: Vec<Reported>,
}

impl RunResult {
    /// The driver's result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name,
                    json::object(&[
                        ("value", json::number(m.summary.median)),
                        ("unit", json::string(m.def.unit)),
                    ]),
                )
            })
            .collect();
        json::object(&[
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(&metrics)),
        ])
    }

    /// The reported median of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.summary.median)
    }
}

/// Pairs every metric of `table`, in its order, with the value computed for
/// it; a declared metric without a value is a bug in this file.
fn report(table: &'static [MetricDef], values: &[(&str, Summary)]) -> Vec<Reported> {
    table
        .iter()
        .map(|def| Reported {
            def,
            summary: values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("no value computed for {}", def.name))
                .1,
        })
        .collect()
}

fn print_metric(m: &Reported) {
    let s = m.summary;
    if s.n > 1 {
        println!(
            "  {:<30} = {:>16.4} {:<12} (q1 {:.4}, q3 {:.4}, n={})",
            m.def.name, s.median, m.def.unit, s.q1, s.q3, s.n
        );
    } else {
        println!("  {:<30} = {:>16.4} {}", m.def.name, s.median, m.def.unit);
    }
}

fn print_inputs(prepared: &Prepared, seed: u64) {
    println!(
        "workload {}: seed {seed}, {} measured records per round ({} objects, {} updates), \
         {} warm-up inserts, {} live queries at end",
        prepared.spec.name,
        prepared.measured.len(),
        prepared.objects,
        prepared.updates(),
        prepared.warmup.len(),
        prepared.oracle.live_at_end,
    );
    println!(
        "  oracle: every {}th object sampled → {} objects owing {} deliveries; inputs generated in {:.2} s",
        prepared.oracle.every,
        prepared.oracle.expected.len(),
        prepared.oracle.expected_deliveries(),
        prepared.generation_s,
    );
}

/// Oracle and agreement bookkeeping over the timed rounds of a run.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    expected_deliveries: u64,
    failed_deliveries: u64,
    first_total: Option<u64>,
}

impl Verdict {
    fn observe(&mut self, prepared: &Prepared, round: &Round) {
        let check = prepared.oracle.check(&round.sampled);
        self.attempted += check.objects + 1;
        self.failed += check.wrong_objects;
        self.expected_deliveries += check.expected;
        self.failed_deliveries += check.failed_deliveries();
        let first = *self.first_total.get_or_insert(round.delivered_total);
        let agrees = round.delivered_total == first && round.report.matches_delivered == first;
        if !agrees {
            self.failed += 1;
            // a disagreeing round fails even when no sampled object caught it
            self.failed_deliveries += 1;
        }
    }

    /// (missing + spurious + duplicate) ÷ owed deliveries on sampled objects;
    /// also non-zero when two rounds disagree on the delivered count.
    fn failed_share(&self) -> f64 {
        self.failed_deliveries as f64 / self.expected_deliveries.max(1) as f64
    }
}

/// Prepares a workload's inputs; an open-loop run is cut into
/// [`OPEN_ROUNDS`] rounds so set-up and CPU cost get a median too.
fn prepare(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Prepared {
    Prepared::generate(spec, seed, seconds / OPEN_ROUNDS as f64)
}

fn print_round(i: usize, prepared: &Prepared, round: &Round) {
    let n = prepared.measured.len();
    println!(
        "  round {i}: setup {:.3} s, {:.3} s → {:.0} records/s, {:.3} us CPU/record, \
         drain {:.3} s, {} delivered, {} discarded, {} duplicates removed",
        round.setup_s,
        round.round_s,
        round.throughput_tps(n),
        round.cpu_us_per_record(n),
        round.drain_s(),
        round.delivered_total,
        round.report.discarded_objects,
        round.report.duplicates_removed,
    );
}

/// Runs the end-to-end measurement of one workload for about `seconds`
/// (tracing off) and prints it.
pub fn run_end_to_end(spec: &WorkloadSpec, seed: u64, seconds: f64) -> RunResult {
    let prepared = prepare(spec, seed, seconds);
    print_inputs(&prepared, seed);
    let n = prepared.measured.len();

    let first = run_round(&prepared, n / FIRST_ROUND_SHARE);
    println!(
        "  round 0 (discarded, first {} records): setup {:.3} s, {:.3} s",
        n / FIRST_ROUND_SHARE,
        first.setup_s,
        first.round_s
    );
    drop(first);

    let mut verdict = Verdict::default();
    let mut rounds: Vec<Round> = Vec::new();
    let measuring = Instant::now();
    loop {
        let round_start = Instant::now();
        let round = run_round(&prepared, n);
        verdict.observe(&prepared, &round);
        print_round(rounds.len() + 1, &prepared, &round);
        rounds.push(round);
        let done = match spec.pacing {
            Pacing::Open { .. } => rounds.len() >= OPEN_ROUNDS,
            // stop once another round would overshoot the budget by more
            // than stopping now undershoots it
            Pacing::Closed { .. } => {
                rounds.len() >= MIN_ROUNDS
                    && (measuring.elapsed() + round_start.elapsed() / 2).as_secs_f64() >= seconds
            }
        };
        if done {
            break;
        }
    }

    let over = |f: &dyn Fn(&Round) -> f64| -> Summary {
        Summary::of(&rounds.iter().map(f).collect::<Vec<f64>>())
    };
    let live = prepared.oracle.live_at_end;
    let metrics = report(
        END_TO_END,
        &[
            ("throughput_tps", over(&|r| r.throughput_tps(n))),
            ("cpu_us_per_record", over(&|r| r.cpu_us_per_record(n))),
            (
                "state_bytes_per_query",
                over(&|r| r.state_bytes_per_query(live)),
            ),
            ("setup_s", over(&|r| r.setup_s)),
        ],
    );
    println!("end-to-end metrics (median of {} rounds):", rounds.len());
    metrics.iter().for_each(print_metric);

    println!("diagnostics (not gated):");
    println!(
        "  failed_share                   = {:>16.6} share",
        verdict.failed_share()
    );
    println!(
        "  feeder.blocked_share           = {:>16.4} share",
        median(
            &rounds
                .iter()
                .map(Round::feeder_blocked_share)
                .collect::<Vec<_>>()
        )
    );
    println!(
        "  drain_s                        = {:>16.4} s",
        median(&rounds.iter().map(Round::drain_s).collect::<Vec<_>>())
    );
    let mut correct = verdict.failed == 0;
    if let Pacing::Open { rate } = spec.pacing {
        let schedule = Schedule::new(rate);
        let slo = Duration::from_millis(SLO_MS);
        let mut latencies: Vec<u64> = Vec::new();
        let mut missed = 0u64;
        let mut late_max = Duration::ZERO;
        let mut bursts = 0u64;
        for round in &rounds {
            let (mut l, m) = open_loop_latencies(&prepared, round, schedule, slo);
            latencies.append(&mut l);
            missed += m;
            if let Some(lateness) = round.lateness {
                late_max = late_max.max(lateness.max);
                bursts += lateness.bursts;
            }
        }
        latencies.sort_unstable();
        let slo_miss_share = missed as f64 / verdict.expected_deliveries.max(1) as f64;
        println!(
            "  offered rate {rate} records/s, {} rounds of {:.1} s, latency from due time → receipt, {} samples",
            rounds.len(),
            n as f64 / rate as f64,
            latencies.len()
        );
        if let Some(p50) = percentile(&latencies, 0.5) {
            println!("  latency_p50_us                 = {p50:>16} us");
        }
        if let Some(p) = highest_supported_percentile(latencies.len()) {
            println!(
                "  {:<30} = {:>16} us",
                format!("latency_p{}_us", p * 100.0),
                percentile(&latencies, p).unwrap_or(0)
            );
        }
        println!(
            "  slo_miss_share                 = {slo_miss_share:>16.6} share (owed deliveries not received within {SLO_MS} ms of due; budget {SLO_MISS_BUDGET})"
        );
        println!(
            "  generator_late_ms_max          = {:>16.3} ms (worst of {bursts} bursts)",
            late_max.as_secs_f64() * 1e3
        );
        correct &= slo_miss_share <= SLO_MISS_BUDGET;
    }
    RunResult {
        workload: spec.name,
        correct,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    }
}

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Runs the traced measurement of one workload — one end-to-end round for
/// the numbers only the running system has, then the layer replay bare and
/// traced — prints it and writes `out/trace-<workload>.json`.
pub fn run_traced(spec: &WorkloadSpec, seed: u64, seconds: f64) -> RunResult {
    let prepared = prepare(spec, seed, seconds);
    print_inputs(&prepared, seed);
    let n = prepared.measured.len();

    drop(run_round(&prepared, n / FIRST_ROUND_SHARE));
    let round = run_round(&prepared, n);
    print_round(1, &prepared, &round);
    let mut verdict = Verdict::default();
    verdict.observe(&prepared, &round);

    let replayed = spec.replay_records.min(n);
    let bare = replay(&prepared, replayed, false);
    let traced = replay(&prepared, replayed, true);
    let tracer = traced.tracer.as_ref().expect("traced pass records spans");
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let c = traced.counts;
    verdict.attempted += 1;
    if bare.counts.delivered != c.delivered || c.index_matches != c.merger_matches {
        verdict.failed += 1;
    }

    let hop_ns = measure_hop_ns_per_record(&prepared);
    let tags = measure_price_tags(&prepared, PRICE_TAG_UPDATES).unwrap_or_else(|error| {
        eprintln!("price tags unavailable: {error}");
        verdict.failed += 1;
        Default::default()
    });

    let path = crate::out_dir().join(format!("trace-{}.json", spec.name));
    let header = [
        ("workload", json::string(spec.name)),
        ("seed", seed.to_string()),
        ("records", replayed.to_string()),
        ("batch_size", crate::hermetic::BATCH_SIZE.to_string()),
    ];
    match tracer.write_json(&path, &header) {
        Ok(()) => println!(
            "  trace: {} spans over {replayed} records → {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(error) => {
            eprintln!("could not write {}: {error}", path.display());
            verdict.failed += 1;
        }
    }

    let (dispatcher, worker, merger) = (
        total("dispatcher.process"),
        total("worker.process"),
        total("merger.process"),
    );
    let records = c.records as f64;
    let layers_us_per_record =
        (dispatcher.total_ns + worker.total_ns + merger.total_ns) as f64 / 1e3 / records;
    let candidates = c.candidates_checked + c.signature_rejections;
    let partition_builds: Vec<f64> = bare
        .partition_build_s
        .iter()
        .chain(&traced.partition_build_s)
        .copied()
        .collect();
    let ratio = |numerator: u64, denominator: u64| per(numerator as f64, denominator as f64);
    let ns_per = |span: &str, count: u64| ratio(total(span).total_ns, count);
    let values: Vec<(&str, f64)> = vec![
        ("partition.build_s", median(&partition_builds)),
        (
            "dispatcher.ns_per_record",
            ns_per("dispatcher.process", c.records),
        ),
        ("dispatcher.fanout", ratio(c.object_sends, c.objects)),
        ("dispatcher.discard_share", ratio(c.discarded, c.objects)),
        (
            "routing.route_object_ns",
            ns_per("routing.route_object", c.objects),
        ),
        (
            "routing.route_update_ns",
            ns_per("routing.route_update", c.updates),
        ),
        ("stream.hop_ns_per_record", hop_ns),
        (
            "index.match_ns_per_object",
            ns_per("index.match_batch", c.worker_objects),
        ),
        (
            "index.candidates_per_object",
            ratio(candidates, c.worker_objects),
        ),
        (
            "index.signature_reject_share",
            ratio(c.signature_rejections, candidates),
        ),
        (
            "index.match_yield",
            ratio(c.index_matches, c.candidates_checked),
        ),
        ("index.insert_ns", ns_per("index.insert", c.worker_inserts)),
        ("index.delete_ns", ns_per("index.delete", c.worker_deletes)),
        (
            "index.bytes_per_query",
            ratio(c.index_bytes, c.index_queries),
        ),
        ("worker.ns_per_record", ratio(worker.self_ns, c.records)),
        (
            "merger.ns_per_match",
            ns_per("merger.process", c.merger_matches),
        ),
        (
            "merger.duplicate_share",
            ratio(c.duplicates, c.merger_matches),
        ),
        ("feeder.blocked_share", round.feeder_blocked_share()),
        ("drain_s", round.drain_s()),
        ("worker.balance_factor", round.report.balance_factor()),
        (
            "unattributed_us_per_record",
            round.cpu_us_per_record(n) - layers_us_per_record,
        ),
        ("persist.append_ns_per_update", tags.persist_append_ns),
        ("persist.bytes_per_update", tags.persist_bytes),
        ("wire.encode_ns", tags.wire_encode_ns),
        ("wire.decode_ns", tags.wire_decode_ns),
        (
            "trace_overhead_share",
            per(traced.loop_s - traced.twin_s - bare.loop_s, bare.loop_s),
        ),
    ];
    let single: Vec<(&str, Summary)> = values
        .iter()
        .map(|(name, value)| (*name, Summary::of(&[*value])))
        .collect();
    let metrics = report(PER_LAYER, &single);
    println!("per-layer metrics (single-threaded replay of {replayed} records, plus one end-to-end round):");
    metrics.iter().for_each(print_metric);

    println!(
        "layer self times (replay: bare loop {:.3} s, traced loop {:.3} s of which twins {:.3} s):",
        bare.loop_s, traced.loop_s, traced.twin_s
    );
    let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
    let mut by_self: Vec<(&&str, &LayerTotals)> = totals.iter().collect();
    by_self.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in by_self {
        println!(
            "  {:<24} {:>8} spans  total {:>9.3} ms  self {:>9.3} ms  {:>5.1} % of self time  {:>8.1} ns/record",
            name,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * per(t.self_ns as f64, self_sum as f64),
            t.self_ns as f64 / records,
        );
    }
    let index_self: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("index."))
        .map(|(_, t)| t.self_ns)
        .sum();
    println!(
        "  index.* share of self time = {:.1} %; layers {:.3} us/record vs end-to-end {:.3} us CPU/record",
        100.0 * per(index_self as f64, self_sum as f64),
        layers_us_per_record,
        round.cpu_us_per_record(n),
    );

    RunResult {
        workload: spec.name,
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    }
}
