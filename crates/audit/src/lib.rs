//! miss-audit — an in-tree static-analysis gate for the workspace's
//! determinism, unsafety and serving-robustness invariants.
//!
//! The whole stack rests on invariants no compiler pass checks: bitwise
//! determinism across `MISS_THREADS` forbids iterating hash containers,
//! reading wall-clock time, or spawning threads outside `miss-parallel`;
//! the GEMM kernels dispatch between a safe portable body and an avx2+fma
//! body whose `unsafe` preconditions must stay documented; the long-running
//! serving engine must never panic on a bad request and must not allocate
//! in its hot loops. The dynamic test suite only catches violations that
//! happen to fire under today's schedules — this crate catches the whole
//! *class* at review time, offline, with zero external dependencies.
//!
//! The analyzer is three layers (DESIGN.md §7):
//!
//! 1. [`lexer`] turns each `.rs` file into a token stream (strings, char
//!    literals and comments handled correctly — this is not a grep);
//! 2. [`syntax`] recovers the brace tree: `fn`/`impl`/`mod` structure,
//!    function spans, call sites, panic/alloc sites, loop extents;
//! 3. [`callgraph`] links every function workspace-wide with conservative
//!    by-name resolution and computes reachability.
//!
//! [`rules`] holds the token-level rules R1–R6; [`structural`] holds the
//! call-graph rules R7 (`panic-free-serving`) and R8
//! (`no-alloc-in-hot-loop`); R9 (`dead-allowlist`) lives in this module's
//! engine because it audits the suppression bookkeeping itself. [`config`]
//! supplies per-rule, per-path allowlists from the checked-in `audit.toml`.
//! The binary (`cargo run -p miss-audit`) emits `file:line:rule`
//! diagnostics with the offending source line (`--json` for the stable
//! machine-readable form, `--rule <id>` to filter) and exits non-zero on
//! any violation; it is the first gate in `scripts/ci.sh`.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod structural;
pub mod syntax;

use config::Config;
use rules::{FileCtx, Violation};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A filtered, printable finding: a [`Violation`] plus its source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Explanation.
    pub msg: String,
    /// The offending source line, trimmed.
    pub source: String,
    /// For call-graph rules: qualified names from a serving root to the
    /// offending function (empty for token-level rules).
    pub call_path: Vec<String>,
}

impl Finding {
    /// Render as `file:line:rule: message` plus the source line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}\n    | {}",
            self.path, self.line, self.rule, self.msg, self.source
        )
    }

    /// A ready-to-paste `[[allow]]` block for this finding.
    pub fn allow_block(&self) -> String {
        let escaped = self.source.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::new();
        if !self.call_path.is_empty() {
            out.push_str(&format!("# call path: {}\n", self.call_path.join(" -> ")));
        }
        out.push_str(&format!(
            "[[allow]]\nrule = \"{}\"\npath = \"{}\"\ncontains = \"{}\"\nreason = \"TODO: justify this exemption\"\n",
            self.rule, self.path, escaped
        ));
        out
    }

    /// Stable machine-readable form (one JSON object, sorted keys).
    pub fn to_json(&self) -> String {
        let path_items: Vec<String> = self.call_path.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\"call_path\":[{}],\"line\":{},\"msg\":{},\"path\":{},\"rule\":{},\"source\":{}}}",
            path_items.join(","),
            self.line,
            json_str(&self.msg),
            json_str(&self.path),
            json_str(self.rule),
            json_str(&self.source)
        )
    }
}

/// JSON-escape a string (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full report in stable JSON: scanned-file count + findings in the
/// same deterministic order the text output uses.
pub fn report_json(n_files: usize, findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::to_json).collect();
    format!(
        "{{\"files_scanned\":{},\"findings\":[{}],\"violations\":{}}}",
        n_files,
        items.join(","),
        findings.len()
    )
}

/// Map a rule's exemption key back to the rule id it belongs to, for R9's
/// dead-entry sweep. Only *exemption* lists rot; opt-in scoping lists
/// (`paths`, `roots`, `scopes`, `kernel_paths`, `kernel_prefixes`) are
/// rule configuration, not suppressions, and are never flagged.
const EXEMPT_KEYS: &[(&str, &str)] = &[
    ("no-hashmap-iter", "allowed_in"),
    ("no-wallclock-or-entropy", "allowed_in"),
    ("no-raw-threads", "allowed_in"),
    ("safety-comments", "unsafe_allowed_in"),
    ("panic-free-serving", "allowed_in"),
];

/// Filter raw violations through the config, recording which exemption
/// entries actually fired. Returns the surviving findings.
fn filter_violations(
    raw: Vec<Violation>,
    line_of: impl Fn(&str, u32) -> String,
    cfg: &Config,
    allow_hits: &mut [bool],
    list_hits: &mut BTreeSet<(String, &'static str, usize)>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for v in raw {
        let src_line = line_of(&v.path, v.line);
        if let Some(key) = v.exempt_key {
            if let Some(idx) = cfg.rule_list_match_idx(v.rule, key, &v.path) {
                list_hits.insert((v.rule.to_string(), key, idx));
                continue;
            }
        }
        if let Some(ai) = cfg.allow_match(v.rule, &v.path, &src_line) {
            allow_hits[ai] = true;
            continue;
        }
        out.push(Finding {
            path: v.path,
            line: v.line,
            rule: v.rule,
            msg: v.msg,
            source: src_line,
            call_path: v.call_path,
        });
    }
    out
}

/// Audit one source file (given as text). Token-level rules only — the
/// call-graph rules need the whole workspace and run in [`audit_files`].
/// Returns allowlist-filtered findings. `path` must be repo-relative with
/// `/` separators — rules and allowlists match against it.
pub fn audit_source(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let toks = lexer::lex(source);
    let ctx = FileCtx::new(path, &toks);
    let mut raw: Vec<Violation> = Vec::new();
    rules::run_all(&ctx, cfg, &mut raw);
    let lines: Vec<&str> = source.lines().collect();
    let mut allow_hits = vec![false; cfg.allows.len()];
    let mut list_hits = BTreeSet::new();
    filter_violations(
        raw,
        |_, line| {
            lines
                .get((line as usize).saturating_sub(1))
                .map(|l| l.trim())
                .unwrap_or("")
                .to_string()
        },
        cfg,
        &mut allow_hits,
        &mut list_hits,
    )
}

/// Audit a whole workspace given as `(repo-relative path, source)` pairs:
/// token-level rules per file, then the brace-tree parse, the call graph,
/// the structural rules R7–R8, and finally R9's dead-exemption sweep (R9
/// runs only when `audit.toml` declares a `[rule.dead-allowlist]` section).
/// Findings are sorted by `(path, line, rule)`.
pub fn audit_files(files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut raw: Vec<Violation> = Vec::new();
    let mut fns: Vec<syntax::FnDef> = Vec::new();
    for (path, source) in files {
        let toks = lexer::lex(source);
        let ctx = FileCtx::new(path, &toks);
        rules::run_all(&ctx, cfg, &mut raw);
        fns.extend(syntax::parse_fns(&ctx));
    }
    let graph = callgraph::CallGraph::build(&fns);
    structural::panic_free_serving(&graph, cfg, &mut raw);
    structural::no_alloc_in_hot_loop(&fns, cfg, &mut raw);

    // Source-line lookup across the file set (audit.toml findings from the
    // structural rules resolve to an empty source line).
    let line_of = |path: &str, line: u32| -> String {
        files
            .iter()
            .find(|(p, _)| p == path)
            .and_then(|(_, src)| src.lines().nth((line as usize).saturating_sub(1)))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut allow_hits = vec![false; cfg.allows.len()];
    let mut list_hits = BTreeSet::new();
    let mut findings = filter_violations(raw, line_of, cfg, &mut allow_hits, &mut list_hits);

    // R9: every exemption must still suppress something, or it has rotted.
    if cfg.rules.contains_key("dead-allowlist") {
        const RULE: &str = "dead-allowlist";
        let mut dead: Vec<Violation> = Vec::new();
        for &(rule, key) in EXEMPT_KEYS {
            for (idx, item) in cfg.rule_list(rule, key).iter().enumerate() {
                if !list_hits.contains(&(rule.to_string(), key, idx)) {
                    dead.push(Violation::new(
                        "audit.toml",
                        item.line,
                        RULE,
                        format!(
                            "`{key}` entry `{}` for rule `{rule}` matches no \
                             current candidate — delete the rotted exemption",
                            item.value
                        ),
                    ));
                }
            }
        }
        for (i, a) in cfg.allows.iter().enumerate() {
            // Meta-exemptions (allowing a dead-allowlist finding) are not
            // themselves liveness-checked — that would be circular.
            if a.rule == RULE {
                continue;
            }
            if !allow_hits[i] {
                dead.push(Violation::new(
                    "audit.toml",
                    a.line,
                    RULE,
                    format!(
                        "[[allow]] for rule `{}` at `{}`{} matches no current \
                         candidate — delete the rotted exemption",
                        a.rule,
                        a.path,
                        a.contains
                            .as_deref()
                            .map(|c| format!(" (contains `{c}`)"))
                            .unwrap_or_default()
                    ),
                ));
            }
        }
        // Dead-allowlist findings may themselves be allowlisted (rule
        // "dead-allowlist") — e.g. an entry kept for a gated feature.
        for v in dead {
            if cfg.allow_match(v.rule, &v.path, "").is_some() {
                continue;
            }
            findings.push(Finding {
                path: v.path,
                line: v.line,
                rule: v.rule,
                msg: v.msg,
                source: String::new(),
                call_path: Vec::new(),
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    findings
}

/// Recursively collect the workspace's `.rs` files, sorted by path so the
/// audit's output order is itself deterministic. Skips `target/`, VCS dirs
/// and everything hidden.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') {
                continue;
            }
            if path.is_dir() {
                if name == "target" || name == "node_modules" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Audit every `.rs` file under `root` (token rules + call-graph rules).
/// Returns `(files_scanned, findings)` sorted by `(path, line, rule)`.
pub fn audit_root(root: &Path, cfg: &Config) -> io::Result<(usize, Vec<Finding>)> {
    let paths = collect_rs_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for file in &paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, fs::read_to_string(file)?));
    }
    Ok((paths.len(), audit_files(&files, cfg)))
}

/// Load and parse `audit.toml` from `root`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("audit.toml");
    let src = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_workspace_is_clean() {
        // The audit is part of `cargo test`: a violation anywhere in the
        // tree fails this test with the same diagnostics the CI gate prints.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let cfg = load_config(root).expect("audit.toml parses");
        let (n_files, findings) = audit_root(root, &cfg).expect("workspace scan");
        assert!(n_files > 50, "scan found only {n_files} files — wrong root?");
        let rendered: Vec<String> = findings.iter().map(Finding::render).collect();
        assert!(
            findings.is_empty(),
            "miss-audit found {} violation(s):\n{}",
            findings.len(),
            rendered.join("\n")
        );
    }

    #[test]
    fn json_report_is_well_formed() {
        let f = Finding {
            path: "a/b.rs".into(),
            line: 3,
            rule: "panic-free-serving",
            msg: "say \"no\"".into(),
            source: "x.unwrap()".into(),
            call_path: vec!["root".into(), "leaf".into()],
        };
        let json = report_json(2, &[f]);
        assert_eq!(
            json,
            "{\"files_scanned\":2,\"findings\":[{\"call_path\":[\"root\",\"leaf\"],\
             \"line\":3,\"msg\":\"say \\\"no\\\"\",\"path\":\"a/b.rs\",\
             \"rule\":\"panic-free-serving\",\"source\":\"x.unwrap()\"}],\"violations\":1}"
        );
    }
}
