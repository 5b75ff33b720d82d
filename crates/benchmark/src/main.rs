//! `cargo run --release -p ps2stream-benchmark -- --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` — see `crates/benchmark/README.md`.

use ps2stream_benchmark::hermetic::{forbidden_env_set, Stamp};
use ps2stream_benchmark::run::{run_end_to_end, run_traced, RunResult};
use ps2stream_benchmark::spec::{self, WorkloadSpec, END_TO_END, RUN_SECONDS};
use std::process::ExitCode;

const USAGE: &str = "\
usage: ps2stream-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]]
                           [--quick] [--check-agreement] [--print-benchmark-json]

  --workload <name>       match-heavy | route-heavy | churn | steady-open (default: all four)
  --seed <u64>            every input is generated from this seed (default 1)
  --seconds <s>           how long one workload measures (default 20; 1.5 with --quick)
  --trace [0|1]           1: per-layer metrics from the traced layer replay; 0: end-to-end metrics
  --quick                 every workload at 1/20 size (smoke run, numbers are not comparable)
  --check-agreement       run the end-to-end set twice on the same seed and compare to the bounds
  --print-benchmark-json  print the BENCHMARK.json these tables render to, and exit";

/// `--quick` shrinks µ, the round length and the open-loop rate by this.
const QUICK_DIVISOR: u64 = 20;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check_agreement: bool,
    print_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        check_agreement: false,
        print_benchmark_json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => options.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                let seconds: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds: {seconds} is outside (0, 600]"));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    options.trace = false;
                    i += 1;
                }
                Some("1") => {
                    options.trace = true;
                    i += 1;
                }
                _ => options.trace = true,
            },
            "--quick" => options.quick = true,
            "--check-agreement" => options.check_agreement = true,
            "--print-benchmark-json" => options.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(options)
}

fn selected(options: &Options) -> Result<Vec<WorkloadSpec>, String> {
    let all = spec::workloads();
    let chosen = match &options.workload {
        None => all,
        Some(name) => vec![spec::workload(name).ok_or_else(|| {
            let names: Vec<&str> = all.iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}` (expected one of {})",
                names.join(", ")
            )
        })?],
    };
    Ok(if options.quick {
        chosen
            .iter()
            .map(|w| w.scaled_down(QUICK_DIVISOR))
            .collect()
    } else {
        chosen
    })
}

/// Runs the end-to-end set twice on the same seed and holds every pair of
/// medians to the bound `BENCHMARK.json` declares for the metric.
fn check_agreement(workloads: &[WorkloadSpec], seed: u64, seconds: f64) -> bool {
    let sets: Vec<Vec<RunResult>> = (1..=2)
        .map(|set| {
            println!("=== agreement set {set} of 2 ===");
            workloads
                .iter()
                .map(|w| run_end_to_end(w, seed, seconds))
                .collect()
        })
        .collect();
    println!("=== agreement (second set against first, same code, same seed {seed}) ===");
    println!(
        "{:<12} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut agree = true;
    for (first, second) in sets[0].iter().zip(&sets[1]) {
        agree &= first.correct && second.correct;
        for def in END_TO_END {
            let (a, b) = (
                first.value(def.name).unwrap_or(0.0),
                second.value(def.name).unwrap_or(0.0),
            );
            // either set may play the reference: hold the worse direction
            let worse = def.better.worsening(a, b).max(def.better.worsening(b, a));
            let bound = def.bound.unwrap_or(0.0);
            let ok = worse <= bound;
            agree &= ok;
            println!(
                "{:<12} {:<24} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%{}",
                first.workload,
                def.name,
                a,
                b,
                worse * 100.0,
                bound * 100.0,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    println!(
        "agreement: {}",
        if agree {
            "within bounds"
        } else {
            "OUTSIDE bounds"
        }
    );
    agree
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let set = forbidden_env_set();
    if !set.is_empty() {
        eprintln!(
            "error: {} set in the environment; the benchmark runs one pinned configuration \
             and refuses to start under PS2_* knobs",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let workloads = match selected(&options) {
        Ok(workloads) => workloads,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let seconds = options.seconds.unwrap_or(if options.quick {
        1.5
    } else {
        RUN_SECONDS as f64
    });

    let stamp = Stamp::collect();
    println!(
        "ps2stream-benchmark: seed {}, {seconds} s per workload, nproc {}, commit {}, {}{}",
        options.seed,
        stamp.nproc,
        stamp.git_commit,
        stamp.rustc,
        if options.quick {
            ", QUICK (1/20 size)"
        } else {
            ""
        },
    );
    println!(
        "pinned config: Hybrid partitioner, 1 dispatcher / 2 workers / 1 merger, threads backend, \
         batch 16, grid 2^6, no pinning / durability / faults / adjustment, overload = block"
    );

    if options.check_agreement {
        return if check_agreement(&workloads, options.seed, seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut all_correct = true;
    for workload in &workloads {
        let result = if options.trace {
            run_traced(workload, options.seed, seconds)
        } else {
            run_end_to_end(workload, options.seed, seconds)
        };
        all_correct &= result.correct;
        println!("{}", result.json_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
