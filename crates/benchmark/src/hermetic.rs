//! The pinned system configuration and the run's provenance stamp.
//!
//! A baseline is only comparable if nothing outside the command line can
//! change what runs: the configuration is spelled out field by field (never
//! `SystemConfig::default()`, whose `runtime`, `pinning` and `faults` fields
//! read the environment) and the benchmark refuses to start while any
//! `PS2_*` knob is set.

use ps2stream::{OverloadPolicy, SystemConfig};
use ps2stream_partition::CostConstants;
use ps2stream_stream::RuntimeBackend;
use std::process::Command;

/// Dispatcher executors of the pinned configuration. One dispatcher keeps
/// insert-before-object order deterministic, so the delivered set is exact.
pub const DISPATCHERS: usize = 1;
/// Worker executors of the pinned configuration.
pub const WORKERS: usize = 2;
/// Merger executors of the pinned configuration.
pub const MERGERS: usize = 1;
/// Records per hot-path batch.
pub const BATCH_SIZE: usize = 16;
/// GI² / gridt granularity exponent (2⁶ × 2⁶ cells).
pub const GRID_EXP: u32 = 6;
/// Objects the merger tracks for deduplication (the launcher's value).
pub const MERGER_DEDUP_CAPACITY: usize = 100_000;

/// Environment knobs that would change what is measured.
const FORBIDDEN_ENV: [&str; 5] = [
    "PS2_RUNTIME",
    "PS2_PIN",
    "PS2_FAULTS",
    "PS2_FSYNC",
    "PS2_SCALE",
];

/// The configuration every workload runs on.
pub fn pinned_config() -> SystemConfig {
    SystemConfig {
        num_dispatchers: DISPATCHERS,
        num_workers: WORKERS,
        num_mergers: MERGERS,
        input_capacity: 4096,
        merger_capacity: 4096,
        batch_size: BATCH_SIZE,
        grid_exp: GRID_EXP,
        costs: CostConstants::default(),
        adjustment: None,
        runtime: RuntimeBackend::Threads,
        pinning: false,
        numa_shards: None,
        durability: None,
        faults: None,
        overload: OverloadPolicy::Block,
    }
}

/// The `PS2_*` knobs currently set in the environment, if any.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// Process CPU time (user + system, all threads including exited ones) in
/// seconds, from `/proc/self/stat`. `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    cpu_seconds_of("/proc/self/stat")
}

/// CPU time of the calling thread in seconds, from `/proc/thread-self/stat`.
pub fn thread_cpu_seconds() -> Option<f64> {
    cpu_seconds_of("/proc/thread-self/stat")
}

fn cpu_seconds_of(path: &str) -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string(path).ok()?)
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line. The command name
/// (field 2) may contain spaces and parentheses, so fields are counted from
/// the last `)`. Ticks are `USER_HZ`, which Linux fixes at 100 for userspace
/// on every architecture this builds for.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after the command name: state is field 3, utime 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a run was made.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
}

impl Stamp {
    /// Collects the stamp (spawns `git` and `rustc` and waits for both).
    pub fn collect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    123 77 0 0 20 0 5 0 1000 0 0";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(2.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (Some(process), Some(thread)) = (process_cpu_seconds(), thread_cpu_seconds()) else {
            return; // not Linux
        };
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_seconds().unwrap() >= process + 0.03);
        assert!(thread_cpu_seconds().unwrap() >= thread + 0.03);
    }

    #[test]
    fn pinned_config_is_the_documented_shape() {
        let c = pinned_config();
        assert_eq!((c.num_dispatchers, c.num_workers, c.num_mergers), (1, 2, 1));
        assert_eq!((c.batch_size, c.grid_exp), (16, 6));
        assert_eq!(c.runtime.name(), "threads");
        assert!(!c.pinning && c.faults.is_none() && c.durability.is_none());
        assert!(c.adjustment.is_none());
        assert_eq!(c.overload, OverloadPolicy::Block);
    }
}
