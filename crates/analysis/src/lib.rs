//! `ps2stream-analysis` — in-tree static analysis for the PS2Stream
//! workspace, and the library behind the `ps2lint` binary.
//!
//! The last several PRs established invariants that are load-bearing for the
//! paper's throughput/latency figures but were enforced only by comments:
//! the allocation-free matching kernel, seeded-simulation determinism,
//! audited `unsafe`, and bounded channels in operator code. This crate lexes
//! the workspace's Rust sources with a hand-rolled lexer (no
//! `syn`/`proc-macro2` — the build is offline with vendored deps) and runs a
//! rule engine over the token streams, with `file:line` diagnostics and a
//! checked-in, justification-carrying allowlist (`ps2lint.allow`). See
//! `docs/ANALYSIS.md` for the rule catalogue and how to add one.
//!
//! # Example
//!
//! ```
//! use ps2stream_analysis::{config::Config, diagnostics::Report, source::SourceFile};
//! use ps2stream_analysis::rules::{all_rules, Rule};
//!
//! let cfg = Config::parse("operator-path crates/core/src\n").unwrap();
//! let file = SourceFile::parse(
//!     "crates/core/src/op.rs",
//!     "fn tick(&mut self) { let t = Instant::now(); self.observe(t); }",
//! );
//! let mut diags = Vec::new();
//! for rule in all_rules() {
//!     rule.check_file(&file, &cfg, &mut diags);
//! }
//! let report = Report::from_diagnostics(diags, &cfg);
//! assert_eq!(report.violations.len(), 1); // Instant::now in operator code
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;

use config::Config;
use diagnostics::Report;
use rules::all_rules;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that contain lintable Rust sources.
/// `vendor/` (offline stand-ins for external crates) and `target/` are
/// deliberately out of scope.
const SCAN_ROOTS: &[&str] = &["crates", "examples", "tests"];

/// Runs every rule over the workspace at `root` with the given
/// configuration, returning the allowlist-filtered report.
pub fn run_lint(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut rel_paths = Vec::new();
    for scan in SCAN_ROOTS {
        collect_rs_files(root, &root.join(scan), &mut rel_paths)?;
    }
    rel_paths.sort();
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in &rel_paths {
        let text = std::fs::read_to_string(root.join(rel))?;
        files.push(SourceFile::parse(&rel.replace('\\', "/"), &text));
    }
    let mut diags = Vec::new();
    for rule in all_rules() {
        for file in &files {
            rule.check_file(file, cfg, &mut diags);
        }
        rule.check_workspace(&files, root, cfg, &mut diags);
    }
    let mut report = Report::from_diagnostics(diags, cfg);
    report.files_scanned = files.len();
    Ok(report)
}

/// Loads the allowlist at `root/ps2lint.allow` (an absent file is an empty
/// configuration — every rule then runs with no exemptions).
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("ps2lint.allow");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(Config::default()),
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // scan root absent (e.g. fixture trees without tests/)
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// The workspace root for self-tests: two levels up from this crate.
#[doc(hidden)]
pub fn workspace_root_for_tests() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf()
}
