//! Drives the built binary the way the benchmark driver does.

use ps2stream_benchmark::spec::{END_TO_END, PER_LAYER};
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ps2stream-benchmark"))
        .args(args)
        .env_remove("PS2_RUNTIME")
        .env_remove("PS2_PIN")
        .env_remove("PS2_FAULTS")
        .env_remove("PS2_FSYNC")
        .env_remove("PS2_SCALE")
        .output()
        .expect("run the benchmark binary")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn quick_end_to_end_run_prints_every_gated_metric_and_the_result_line() {
    let output = benchmark(&[
        "--workload",
        "churn",
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = last_line(&output);
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert!(line.contains(r#""failed": 0, "metrics": {"#), "{line}");
    for metric in END_TO_END {
        let reported = format!(r#""{}": {{"value": "#, metric.name);
        assert!(
            line.contains(&reported),
            "{} missing from {line}",
            metric.name
        );
        assert!(line.contains(&format!(r#""unit": "{}""#, metric.unit)));
        assert!(stdout.contains(&format!("  {:<30} = ", metric.name)));
    }
    for metric in PER_LAYER {
        assert!(!line.contains(&format!(r#""{}": {{"#, metric.name)));
    }
    assert!(stdout.contains("failed_share"));
}

#[test]
fn quick_traced_run_prints_every_layer_metric_and_writes_the_trace() {
    let output = benchmark(&[
        "--workload",
        "steady-open",
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        "1",
        "--quick",
    ]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = last_line(&output);
    assert!(line.starts_with(r#"{"correct": true, "#), "{line}");
    for metric in PER_LAYER {
        let reported = format!(r#""{}": {{"value": "#, metric.name);
        assert!(
            line.contains(&reported),
            "{} missing from {line}",
            metric.name
        );
    }
    for metric in END_TO_END {
        assert!(!line.contains(&format!(r#""{}": {{"#, metric.name)));
    }
    let trace = ps2stream_benchmark::out_dir().join("trace-steady-open.json");
    let text = std::fs::read_to_string(trace).expect("trace file written");
    assert!(text.starts_with(r#"{"workload": "steady-open", "seed": 7, "#));
    assert!(text.contains(r#""dispatcher.process""#));
}

#[test]
fn refuses_to_start_under_ps2_env_knobs() {
    let output = Command::new(env!("CARGO_BIN_EXE_ps2stream-benchmark"))
        .args(["--quick", "--workload", "churn"])
        .env("PS2_SCALE", "0.1")
        .output()
        .expect("run the benchmark binary");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("PS2_SCALE"));
}

#[test]
fn rejects_unknown_arguments_and_workloads() {
    for args in [
        &["--wat"][..],
        &["--workload", "nope"],
        &["--seed", "x"],
        &["--seconds", "0"],
    ] {
        let output = benchmark(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
