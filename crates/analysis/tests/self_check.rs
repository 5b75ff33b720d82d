//! Self-check: `ps2lint` must pass over the actual workspace, and each rule
//! must still fire on a seeded fixture tree. Together these pin the gate's
//! two failure modes — a rule rotting into a false positive on real code,
//! and a rule rotting into silence.

use std::path::{Path, PathBuf};
use std::process::Command;

fn ps2lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ps2lint"))
}

fn temp_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ps2lint-selfcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/fix/src")).unwrap();
    std::fs::create_dir_all(dir.join("docs")).unwrap();
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    std::fs::write(root.join(rel), text).unwrap();
}

/// The gate's reason to exist: the real workspace is clean under the real
/// checked-in allowlist. A regression anywhere in the repo fails here first.
#[test]
fn workspace_is_clean() {
    let root = ps2stream_analysis::workspace_root_for_tests();
    assert!(
        root.join("ps2lint.allow").is_file(),
        "workspace root misdetected: {}",
        root.display()
    );
    let out = ps2lint()
        .arg("--root")
        .arg(&root)
        .arg("--explain")
        .output()
        .expect("run ps2lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ps2lint found violations in the workspace:\n{stdout}"
    );
    assert!(
        stdout.contains(" 0 violation(s)"),
        "unexpected summary:\n{stdout}"
    );
    assert!(
        !stdout.contains("stale allow entry"),
        "ps2lint.allow carries dead exemptions:\n{stdout}"
    );
}

/// Every rule fires at least once on a tree seeded with one violation each,
/// and the process exits nonzero.
#[test]
fn seeded_fixture_tree_trips_every_rule() {
    let dir = temp_tree("dirty");
    write(
        &dir,
        "ps2lint.allow",
        "hot crates/fix/src/hot.rs hot_fn\n\
         operator-path crates/fix/src\n\
         persist-path crates/fix/src/persist\n",
    );
    std::fs::create_dir_all(dir.join("crates/fix/src/persist")).unwrap();
    write(
        &dir,
        "crates/fix/src/persist/log.rs",
        "fn append(&mut self) { self.file.write_all(&self.raw).unwrap(); self.file.sync_all().unwrap(); }\n",
    );
    write(
        &dir,
        "crates/fix/src/hot.rs",
        "fn hot_fn(&mut self) { let mut v = Vec::new(); v.push(1); }\n",
    );
    write(
        &dir,
        "crates/fix/src/op.rs",
        "fn tick(&mut self) { self.started = Instant::now(); }\n",
    );
    write(
        &dir,
        "crates/fix/src/unsafe_code.rs",
        "fn peek(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    write(
        &dir,
        "crates/fix/src/chan.rs",
        "fn wire() -> (Sender<u32>, Receiver<u32>) { unbounded::<u32>() }\n",
    );
    write(
        &dir,
        "crates/fix/src/knob.rs",
        r#"fn scale() -> Option<String> { std::env::var("PS2_FIXTURE_KNOB").ok() }"#,
    );
    write(
        &dir,
        "docs/RUNTIME.md",
        "# Runtime\n\nNo knobs documented.\n",
    );

    let out = ps2lint()
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run ps2lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected violation exit, got {:?}:\n{stdout}",
        out.status
    );
    for rule in [
        "[no-alloc-hot]",
        "[sim-determinism]",
        "[unsafe-audit]",
        "[channel-discipline]",
        "[env-doc-drift]",
        "[durability-discipline]",
        "[panic-free-operators]",
    ] {
        assert!(stdout.contains(rule), "{rule} did not fire:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean fixture exits 0, and an allow entry that suppresses nothing is
/// reported as stale under `--explain`.
#[test]
fn clean_fixture_exits_zero_and_stale_allows_warn() {
    let dir = temp_tree("clean");
    write(
        &dir,
        "ps2lint.allow",
        "operator-path crates/fix/src\n\
         allow channel-discipline crates/fix/src/lib.rs unbounded :: kept for the stale-entry check\n",
    );
    write(
        &dir,
        "crates/fix/src/lib.rs",
        "fn add(a: u32, b: u32) -> u32 { a + b }\n",
    );
    write(&dir, "docs/RUNTIME.md", "# Runtime\n");

    let out = ps2lint()
        .arg("--root")
        .arg(&dir)
        .arg("--explain")
        .output()
        .expect("run ps2lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean tree flagged:\n{stdout}");
    assert!(
        stdout.contains("stale allow entry"),
        "unused allow not reported:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Usage and I/O errors are distinguishable from violations (exit 2).
#[test]
fn usage_errors_exit_two() {
    let out = ps2lint()
        .arg("--no-such-flag")
        .output()
        .expect("run ps2lint");
    assert_eq!(out.status.code(), Some(2));

    let out = ps2lint()
        .arg("--allow")
        .arg("/nonexistent/ps2lint.allow")
        .output()
        .expect("run ps2lint");
    assert_eq!(out.status.code(), Some(2));
}
