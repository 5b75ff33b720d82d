//! `env-doc-drift`: every `PS2_*` environment variable read in source must
//! be documented in `docs/RUNTIME.md`.
//!
//! The runtime knobs (`PS2_RUNTIME`, `PS2_FSYNC`, …) are the operational
//! surface of the system; an undocumented knob is unusable and un-reviewable.
//! The rule collects string literals whose entire content is a `PS2_*` name
//! (i.e. the argument of an `env::var` read — prose mentions in comments are
//! ignored) and requires each to appear in the runtime documentation.

use super::Rule;
use crate::config::Config;
use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// Documentation file the variables must appear in, workspace-relative.
const RUNTIME_DOC: &str = "docs/RUNTIME.md";

/// See module docs.
pub struct EnvDoc;

impl Rule for EnvDoc {
    fn name(&self) -> &'static str {
        "env-doc-drift"
    }

    fn description(&self) -> &'static str {
        "every PS2_* env var referenced in source must be documented in docs/RUNTIME.md"
    }

    fn check_workspace(
        &self,
        files: &[SourceFile],
        root: &Path,
        _cfg: &Config,
        out: &mut Vec<Diagnostic>,
    ) {
        // var -> first occurrence (path, line), deterministic order
        let mut vars: BTreeMap<String, (String, u32)> = BTreeMap::new();
        for file in files {
            for i in 0..file.code_len() {
                // bench/example knobs are real user surface; `#[cfg(test)]`
                // fixtures are not
                if file.test_mask[i] {
                    continue;
                }
                let tok = file.ct(i);
                if tok.kind == TokenKind::Str && is_env_var_name(&tok.text) {
                    vars.entry(tok.text.clone())
                        .or_insert_with(|| (file.rel_path.clone(), tok.line));
                }
            }
        }
        if vars.is_empty() {
            return;
        }
        let doc = std::fs::read_to_string(root.join(RUNTIME_DOC)).unwrap_or_default();
        for (var, (path, line)) in vars {
            if !doc.contains(&var) {
                out.push(Diagnostic {
                    rule: self.name(),
                    path,
                    line,
                    item: var.clone(),
                    message: format!(
                        "env var `{var}` is read here but not documented in {RUNTIME_DOC}"
                    ),
                });
            }
        }
    }
}

/// True if `s` is exactly a `PS2_*` variable name.
fn is_env_var_name(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("PS2_")
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn run_in(dir: &Path, src: &str, doc: &str) -> Vec<Diagnostic> {
        std::fs::create_dir_all(dir.join("docs")).unwrap();
        std::fs::write(dir.join(RUNTIME_DOC), doc).unwrap();
        let files = vec![SourceFile::parse("crates/x/src/lib.rs", src)];
        let mut out = Vec::new();
        EnvDoc.check_workspace(&files, dir, &Config::default(), &mut out);
        out
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ps2lint-envdoc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn undocumented_var_is_flagged() {
        let dir = temp_dir("bad");
        let diags = run_in(
            &dir,
            r#"fn f() { let _ = std::env::var("PS2_SECRET_KNOB"); }"#,
            "# Runtime\n\nOnly `PS2_RUNTIME` is documented here.\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].item, "PS2_SECRET_KNOB");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn documented_vars_and_prose_mentions_pass() {
        let dir = temp_dir("good");
        let diags = run_in(
            &dir,
            r#"
            // comment naming PS2_IMAGINARY is prose, not a read
            fn f() { let _ = std::env::var("PS2_RUNTIME"); }
            fn g() { let msg = "set PS2_ALSO_PROSE to tune"; drop(msg); }
            "#,
            "# Runtime\n\n`PS2_RUNTIME` selects the backend.\n",
        );
        assert!(diags.is_empty(), "false positives: {diags:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
