//! `unsafe-audit`: every `unsafe` block, function or impl carries a
//! `// SAFETY:` comment.
//!
//! The workspace has very little `unsafe` (one `ManuallyDrop` in the
//! channel wrapper, the counting allocator of the allocation tests) —
//! exactly why each occurrence must state its proof obligation where the
//! next reader will see it. The comment may sit on the same line, up to
//! three lines above, or inside the unsafe block itself; `/// # Safety` doc
//! headers on `unsafe fn` also count.

use super::Rule;
use crate::config::Config;
use crate::diagnostics::Diagnostic;
use crate::source::SourceFile;

/// How many lines above the `unsafe` token an attached comment may start.
const ATTACH_WINDOW: u32 = 3;

/// See module docs.
pub struct UnsafeAudit;

impl Rule for UnsafeAudit {
    fn name(&self) -> &'static str {
        "unsafe-audit"
    }

    fn description(&self) -> &'static str {
        "every unsafe block/fn/impl needs an attached SAFETY comment"
    }

    fn check_file(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let _ = cfg;
        for i in 0..file.code_len() {
            if !file.is_ident(i, "unsafe") {
                continue;
            }
            let line = file.line_of(i);
            if has_safety_comment(file, i, line) {
                continue;
            }
            out.push(Diagnostic {
                rule: self.name(),
                path: file.rel_path.clone(),
                line,
                item: "unsafe".to_string(),
                message: "unsafe without a `// SAFETY:` comment stating why the invariants hold"
                    .to_string(),
            });
        }
    }
}

fn has_safety_comment(file: &SourceFile, code_idx: usize, line: u32) -> bool {
    let mentions_safety =
        |text: &str| text.contains("SAFETY") || text.contains("Safety") || text.contains("safety");
    // a comment ending within the window just above (or on the same line)
    let above = file.tokens.iter().any(|t| {
        t.is_comment()
            && t.line <= line
            && t.line + ATTACH_WINDOW >= line
            && mentions_safety(&t.text)
    });
    if above {
        return true;
    }
    // or inside the unsafe block's braces
    if let Some(open) = (code_idx + 1..file.code_len()).find(|&j| {
        // stop scanning at statement end — an `unsafe impl Send for X {}`
        // body or `unsafe {}` block both open within a few tokens
        file.is_punct(j, "{") || file.is_punct(j, ";")
    }) {
        if file.is_punct(open, "{") {
            let close = {
                let mut depth = 0usize;
                let mut end = open;
                for j in open..file.code_len() {
                    if file.is_punct(j, "{") {
                        depth += 1;
                    } else if file.is_punct(j, "}") {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break;
                        }
                    }
                }
                end
            };
            let (start_tok, end_tok) = (file.code[open], file.code[close]);
            return file.tokens[start_tok..=end_tok]
                .iter()
                .any(|t| t.is_comment() && mentions_safety(&t.text));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn run(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        UnsafeAudit.check_file(&file, &Config::default(), &mut out);
        out
    }

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let diags = run(r#"
            fn pin(cpu: usize) -> bool {
                unsafe { sched_setaffinity(0, 8, MASK.as_ptr()) == 0 }
            }
        "#);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].item, "unsafe");
    }

    #[test]
    fn documented_unsafe_passes_in_all_accepted_positions() {
        let diags = run(r#"
            fn above() {
                // SAFETY: the mask outlives the call; pid 0 is the calling thread.
                unsafe { sched_setaffinity(0, 8, MASK.as_ptr()) };
            }
            fn inside() {
                unsafe {
                    // SAFETY: `inner` is never used again; Drop runs exactly once.
                    ManuallyDrop::drop(&mut self.inner)
                };
            }
            /// Does raw things.
            ///
            /// # Safety
            /// Caller must uphold the aliasing rules.
            pub unsafe fn raw(ptr: *mut u8) { touch(ptr) }
        "#);
        assert!(diags.is_empty(), "false positives: {diags:?}");
    }

    #[test]
    fn the_window_does_not_reach_across_unrelated_code() {
        let diags = run(r#"
            fn a() {
                // SAFETY: this comment belongs to the call below.
                unsafe { documented() };
            }
            fn far_away() {
                let x = 1;
                let y = 2;
                let z = 3;
                let w = x + y + z;
                unsafe { undocumented(w) };
            }
        "#);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].line > 7);
    }
}
