//! The rule engine: one module per rule, each grounded in a documented
//! workspace invariant (see `docs/ANALYSIS.md`).

pub mod channel_discipline;
pub mod durability;
pub mod env_doc;
pub mod no_alloc_hot;
pub mod panic_free;
pub mod sim_determinism;
pub mod unsafe_audit;

use crate::config::Config;
use crate::diagnostics::Diagnostic;
use crate::source::SourceFile;
use std::path::Path;

/// A lint rule. Per-file rules implement [`Rule::check_file`]; cross-file
/// rules (drift checks) implement [`Rule::check_workspace`].
pub trait Rule {
    /// The rule's name as shown in diagnostics and matched by the allowlist.
    fn name(&self) -> &'static str;

    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;

    /// Checks a single file.
    fn check_file(&self, _file: &SourceFile, _cfg: &Config, _out: &mut Vec<Diagnostic>) {}

    /// Checks cross-file invariants; `root` is the workspace root (for
    /// reading non-Rust artifacts such as docs).
    fn check_workspace(
        &self,
        _files: &[SourceFile],
        _root: &Path,
        _cfg: &Config,
        _out: &mut Vec<Diagnostic>,
    ) {
    }
}

/// Every registered rule, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(no_alloc_hot::NoAllocHot),
        Box::new(sim_determinism::SimDeterminism),
        Box::new(unsafe_audit::UnsafeAudit),
        Box::new(channel_discipline::ChannelDiscipline),
        Box::new(env_doc::EnvDoc),
        Box::new(durability::DurabilityDiscipline),
        Box::new(panic_free::PanicFreeOperators),
    ]
}
