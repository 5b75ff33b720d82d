//! The `ps2lint.allow` file: rule configuration plus the audited allowlist.
//!
//! Line-oriented, hand-parsed (no TOML dependency). Blank lines and `#`
//! comments are ignored. Directives:
//!
//! ```text
//! hot <path> <fn> [<fn> …]       # declare allocation-free hot functions
//! operator-path <path-prefix>    # operator code for sim-determinism scope
//! persist-path <path-prefix>     # durable-storage code (durability-discipline scope)
//! allow <rule> <path> <item> :: <justification>
//! ```
//!
//! An `allow` line suppresses diagnostics of `rule` in `path` whose item key
//! (e.g. `Instant::now`, `unbounded`, a `PS2_*` variable) equals `<item>`
//! (`*` matches any item). The justification after `::` is mandatory — it is
//! what `ps2lint --explain` prints, making every exemption an audited,
//! greppable decision instead of a silent hole.

/// One audited `allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry applies to.
    pub rule: String,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Item key within the rule (`*` = any).
    pub item: String,
    /// One-line justification (printed by `--explain`).
    pub why: String,
    /// 1-based line in the allowlist file (for stale-entry reporting).
    pub line: u32,
}

/// Parsed configuration + allowlist.
#[derive(Debug, Default)]
pub struct Config {
    /// `(path, hot function names)` — bodies that must not allocate.
    pub hot: Vec<(String, Vec<String>)>,
    /// Path prefixes holding operator code (sim-determinism scope).
    pub operator_paths: Vec<String>,
    /// Path prefixes holding durable-storage code (durability-discipline
    /// framed-write scope).
    pub persist_paths: Vec<String>,
    /// Audited exemptions.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// Parses the allowlist text. Returns `Err` with a line-tagged message on
    /// malformed directives — a broken allowlist must fail the lint run, not
    /// silently allow everything.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap();
            match directive {
                "hot" => {
                    let path = words
                        .next()
                        .ok_or_else(|| format!("line {line_no}: `hot` needs a path"))?;
                    let fns: Vec<String> = words.map(str::to_string).collect();
                    if fns.is_empty() {
                        return Err(format!(
                            "line {line_no}: `hot {path}` declares no functions"
                        ));
                    }
                    cfg.hot.push((path.to_string(), fns));
                }
                "operator-path" => {
                    let path = words
                        .next()
                        .ok_or_else(|| format!("line {line_no}: `operator-path` needs a prefix"))?;
                    cfg.operator_paths.push(path.to_string());
                }
                "persist-path" => {
                    let path = words
                        .next()
                        .ok_or_else(|| format!("line {line_no}: `persist-path` needs a prefix"))?;
                    cfg.persist_paths.push(path.to_string());
                }
                "allow" => {
                    // the separator is ` :: ` with spaces — item keys like
                    // `Instant::now` contain bare `::`
                    let (head, why) = line.split_once(" :: ").ok_or_else(|| {
                        format!("line {line_no}: `allow` needs a ` :: justification`")
                    })?;
                    let why = why.trim();
                    if why.is_empty() {
                        return Err(format!("line {line_no}: empty justification"));
                    }
                    let parts: Vec<&str> = head.split_whitespace().collect();
                    if parts.len() != 4 {
                        return Err(format!(
                            "line {line_no}: expected `allow <rule> <path> <item> :: why`, got {} fields",
                            parts.len()
                        ));
                    }
                    cfg.allows.push(AllowEntry {
                        rule: parts[1].to_string(),
                        path: parts[2].to_string(),
                        item: parts[3].to_string(),
                        why: why.to_string(),
                        line: line_no,
                    });
                }
                other => {
                    return Err(format!("line {line_no}: unknown directive `{other}`"));
                }
            }
        }
        Ok(cfg)
    }

    /// Hot-function names declared for `path`, if any.
    pub fn hot_fns_for(&self, path: &str) -> Option<&[String]> {
        self.hot
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, fns)| fns.as_slice())
    }

    /// True if `path` is under any declared operator-code prefix.
    pub fn is_operator_path(&self, path: &str) -> bool {
        self.operator_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }

    /// True if `path` is under any declared persist-code prefix.
    pub fn is_persist_path(&self, path: &str) -> bool {
        self.persist_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_directive() {
        let cfg = Config::parse(
            "# comment\n\
             hot crates/index/src/gi2.rs match_batch match_in_cell\n\
             operator-path crates/core/src\n\
             allow sim-determinism crates/core/src/worker.rs Instant::now :: timing metrics only\n",
        )
        .unwrap();
        assert_eq!(
            cfg.hot_fns_for("crates/index/src/gi2.rs").unwrap(),
            ["match_batch", "match_in_cell"]
        );
        assert!(cfg.is_operator_path("crates/core/src/worker.rs"));
        assert!(!cfg.is_operator_path("crates/bench/src/lib.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].item, "Instant::now");
        assert_eq!(cfg.allows[0].why, "timing metrics only");
    }

    #[test]
    fn malformed_lines_are_errors_not_silent_allows() {
        assert!(Config::parse("allow sim-determinism a.rs Instant::now\n").is_err());
        assert!(Config::parse("allow x y z :: \n").is_err());
        assert!(Config::parse("frobnicate everything\n").is_err());
        assert!(Config::parse("hot crates/x/src/lib.rs\n").is_err());
    }
}
