//! Level 2: the self-hosted engine-invariant source lint.
//!
//! A deliberately simple token/line-level scanner over the workspace's own
//! Rust sources — no external parser, no network, no build artifacts — so
//! it runs identically offline and in CI. It enforces invariants the
//! compiler cannot see:
//!
//! * **`no-unwrap`** — no `.unwrap()` / `.expect(` in non-test code of the
//!   I/O crates (`crates/storage`, `crates/net`, `crates/core`), of the
//!   tick path's window code (`crates/ivm`, `crates/cq`) and of the SQL
//!   front end (`crates/sql`), whose text arrives in `Query` frames. A
//!   panic in a storage, wire, SQL or window path takes down every
//!   standing CQ at once.
//! * **`lock-order`** — every function's `.lock()` receivers, qualified
//!   by the file's crate (`state` in `crates/core/` is `core.state`), are
//!   checked against [`GLOBAL_LOCK_ORDER`]. Out-of-order acquisition is
//!   the only deadlock source the engine has.
//! * **`undeclared-lock-order`** — a non-test function that acquires two
//!   or more distinct locks in a file that takes *no* lock in
//!   [`GLOBAL_LOCK_ORDER`]. Nested acquisition with no declared order is
//!   how the shard/pool locks would silently grow deadlock potential.
//! * **`relaxed-ordering`** — `Ordering::Relaxed` is allowed only in
//!   `crates/obs` (metrics counters, where staleness is acceptable), and
//!   even there only for *counter-style* atomics: a receiver that pairs a
//!   Relaxed `.store(` with a Relaxed `.load(` and never goes through a
//!   `fetch_*` RMW is a cross-thread handoff, which Relaxed cannot
//!   synchronize — flagged everywhere. Allowlist entries for this rule
//!   must carry a `-- justification` suffix.
//! * **`condvar-wait-loop`** — `Condvar::wait`/`wait_for`/`wait_while`
//!   sites in `crates/` must sit inside a `while`/`loop`/`for` guard (a
//!   condvar wake is a hint, not a proof — spurious wakeups and stolen
//!   wakes require re-checking the predicate), or carry a
//!   `// lint: wait-ok(reason)` justification.
//! * **`reserved-prefix`** — the reserved `streamrel_` catalog prefix may
//!   be hardcoded only at its definition/enforcement sites; everything
//!   else must go through `streamrel_obs::RESERVED_PREFIX`.
//! * **`deny-unsafe`** — every crate root carries `#![deny(unsafe_code)]`
//!   or a documented `lint: allow-unsafe(reason)` exception comment.
//!
//! The lint sees one function at a time: an acquisition made in a callee
//! while the caller holds a guard (say, a `&mut ShardState` passed down)
//! is the runtime lock witness's to check (DESIGN.md §14).
//!
//! Violations can be burned down via the `lint.allow` file at the repo
//! root (`<rule-id> <path> [-- justification]` per line). Entries that no
//! longer match anything **fail the lint** — the allowlist can only
//! shrink — and `relaxed-ordering` entries without a justification are
//! rejected.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lock_order::GLOBAL_LOCK_ORDER;

/// Crate subtrees where `.unwrap()` / `.expect(` are forbidden outside
/// tests.
const NO_UNWRAP_SCOPES: &[&str] = &[
    "crates/storage/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/ivm/src/",
    "crates/cq/src/",
    "crates/sql/src/",
];

/// Files allowed to hardcode the reserved catalog prefix: its definition
/// (`crates/obs`), the enforcement site, and this lint's own rule table.
const RESERVED_PREFIX_SITES: &[&str] = &["crates/core/src/provider.rs", "crates/check/src/lint.rs"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Repo-relative path (unix separators).
    pub path: String,
    /// 1-based line number (0 for whole-file rules).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Violations suppressed by allowlist entries.
    pub allowed: usize,
    /// Allowlist entries that matched nothing (these fail the run).
    pub stale: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when CI should fail.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || !self.stale.is_empty()
    }
}

/// Run the lint over a workspace root.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let allow = parse_allowlist(&fs::read_to_string(root.join("lint.allow")).unwrap_or_default());
    let mut files = Vec::new();
    for top in ["crates", "shims", "src"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut report = LintReport::default();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let mut found: Vec<Violation> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(file)?;
        report.files_scanned += 1;
        found.extend(lint_file(&rel, &content));
    }
    for v in found {
        match allow
            .iter()
            .position(|e| e.rule == v.rule && e.path == v.path && e.usable())
        {
            Some(i) => {
                used.insert(i);
                report.allowed += 1;
            }
            None => report.violations.push(v),
        }
    }
    for (i, e) in allow.iter().enumerate() {
        if !e.usable() {
            report.stale.push(format!(
                "{} {} (entries for this rule need a `-- justification` suffix)",
                e.rule, e.path
            ));
        } else if !used.contains(&i) {
            report.stale.push(format!("{} {}", e.rule, e.path));
        }
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let name = name.as_deref().unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One parsed `lint.allow` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AllowEntry {
    pub rule: String,
    pub path: String,
    /// Text after a `--` separator, if any.
    pub justification: Option<String>,
}

/// Rules whose allowlist entries must carry a `-- justification`.
const JUSTIFIED_RULES: &[&str] = &["relaxed-ordering"];

impl AllowEntry {
    /// False when the entry is rejected for missing its justification.
    fn usable(&self) -> bool {
        self.justification.is_some() || !JUSTIFIED_RULES.contains(&self.rule.as_str())
    }
}

/// Parse `lint.allow` text: `#` comments, blank lines, and
/// `<rule> <path> [-- justification]` entries.
fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (entry, justification) = match l.split_once("--") {
                Some((e, j)) => (e.trim(), Some(j.trim().to_string())),
                None => (l, None),
            };
            let (rule, path) = entry.split_once(char::is_whitespace)?;
            Some(AllowEntry {
                rule: rule.to_string(),
                path: path.trim().to_string(),
                justification: justification.filter(|j| !j.is_empty()),
            })
        })
        .collect()
}

/// Split one source line into (code with string contents blanked,
/// concatenated string-literal contents).
pub(crate) fn split_strings(line: &str) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut strings = String::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut prev = '\0';
    for c in line.chars() {
        if !in_str && c == '/' && prev == '/' {
            code.pop(); // drop the first slash of the trailing comment
            break;
        }
        prev = c;
        if in_str {
            if escaped {
                escaped = false;
                strings.push(c);
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
                code.push('"');
            } else {
                strings.push(c);
            }
        } else if c == '"' {
            in_str = true;
            code.push('"');
            strings.push(' ');
        } else {
            code.push(c);
        }
    }
    (code, strings)
}

/// True for lines that are only a comment (the scanner skips them).
pub(crate) fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

/// Index of the first line starting the `#[cfg(test)]` region, if any.
/// Everything at or after it is test code. This matches the repo-wide
/// convention of one trailing inline test module per file.
pub(crate) fn test_region_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| l.trim() == "#[cfg(test)]")
        .unwrap_or(lines.len())
}

/// Whether a path is a crate root (lib or binary) for the `deny-unsafe`
/// rule. Each `src/bin/*.rs` file is its own crate root under cargo, so
/// a `deny` in the sibling `lib.rs` does not cover it.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
}

/// Extract receiver identifiers before each occurrence of `pat`: the
/// last dot-separated path segment (`self.inner.lock()` with pat
/// `.lock()` → `inner`, `g.lock()` → `g`).
fn receivers_of(code: &str, pat: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(i) = rest.find(pat) {
        let head = &rest[..i];
        let seg: String = head
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let seg: String = seg.chars().rev().collect();
        if !seg.is_empty() {
            out.push(seg);
        }
        rest = &rest[i + pat.len()..];
    }
    out
}

/// Receivers of `.lock()` calls on one line of blanked code.
fn lock_receivers(code: &str) -> Vec<String> {
    receivers_of(code, ".lock()")
}

/// The crate a repo-relative path belongs to (`crates/core/src/db.rs` →
/// `core`); `None` outside `crates/`.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

/// Lint a single file's content. `rel` is the repo-relative unix path.
pub fn lint_file(rel: &str, content: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let test_start = test_region_start(&lines);

    let in_crates = rel.starts_with("crates/");
    let no_unwrap = NO_UNWRAP_SCOPES.iter().any(|s| rel.starts_with(s));
    let relaxed_ok = rel.starts_with("crates/obs/");
    let prefix_ok =
        !in_crates || rel.starts_with("crates/obs/") || RESERVED_PREFIX_SITES.contains(&rel);

    // A `.lock()` receiver's place in the global order, qualified by this
    // file's crate.
    let krate = crate_of(rel).map(|k| format!("{k}."));
    let order_pos = |recv: &str| {
        let k = krate.as_deref()?;
        GLOBAL_LOCK_ORDER
            .iter()
            .position(|n| n.strip_prefix(k) == Some(recv))
    };
    // A file that takes an ordered lock is checked by `lock-order`; any
    // other file under `crates/` may not take two locks in one function.
    let file_ordered = lines
        .iter()
        .take(test_start)
        .filter(|line| !is_comment(line))
        .any(|line| {
            lock_receivers(&split_strings(line).0)
                .iter()
                .any(|r| order_pos(r).is_some())
        });

    // Pre-pass for the relaxed-ordering handoff extension: a receiver
    // with a Relaxed `.store(` AND a Relaxed `.load(` that never goes
    // through a `fetch_*` RMW is a cross-thread handoff pair, not a
    // counter — Relaxed gives it no happens-before edge.
    let mut relaxed_stores: BTreeSet<String> = BTreeSet::new();
    let mut relaxed_loads: BTreeSet<String> = BTreeSet::new();
    let mut rmw_receivers: BTreeSet<String> = BTreeSet::new();
    if in_crates {
        for line in lines.iter().take(test_start) {
            if is_comment(line) {
                continue;
            }
            let (code, _) = split_strings(line);
            rmw_receivers.extend(receivers_of(&code, ".fetch_"));
            if code.contains("Ordering::Relaxed") {
                relaxed_stores.extend(receivers_of(&code, ".store("));
                relaxed_loads.extend(receivers_of(&code, ".load("));
            }
        }
    }
    let handoff = |code: &str| -> Option<String> {
        receivers_of(code, ".store(")
            .into_iter()
            .chain(receivers_of(code, ".load("))
            .find(|r| {
                relaxed_stores.contains(r)
                    && relaxed_loads.contains(r)
                    && !rmw_receivers.contains(r)
            })
    };

    // Per-function furthest lock position seen so far.
    let mut max_pos: Option<usize> = None;
    // Per-function distinct lock receivers (for files that take no
    // ordered lock), and whether this function was already reported.
    let mut fn_locks: Vec<String> = Vec::new();
    let mut fn_reported = false;
    // Loop-nesting stack for `condvar-wait-loop`: one bool per open
    // brace, true when the brace belongs to a `while`/`loop`/`for`.
    let mut loop_stack: Vec<bool> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = idx >= test_start;
        if is_comment(line) {
            continue;
        }
        let (code, strings) = split_strings(line);

        if !in_test {
            if no_unwrap && (code.contains(".unwrap()") || code.contains(".expect(")) {
                out.push(Violation {
                    rule: "no-unwrap",
                    path: rel.to_string(),
                    line: lineno,
                    message: "`.unwrap()`/`.expect()` in I/O crate non-test \
                              code; return a typed error instead"
                        .to_string(),
                });
            }
            if in_crates && code.contains("Ordering::Relaxed") {
                if !relaxed_ok {
                    out.push(Violation {
                        rule: "relaxed-ordering",
                        path: rel.to_string(),
                        line: lineno,
                        message: "`Ordering::Relaxed` outside crates/obs; use \
                                  SeqCst or justify in crates/obs"
                            .to_string(),
                    });
                } else if let Some(recv) = handoff(&code) {
                    out.push(Violation {
                        rule: "relaxed-ordering",
                        path: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "`{recv}` is a Relaxed store/load handoff pair \
                             (no fetch_* RMW); Relaxed provides no \
                             happens-before — use Acquire/Release"
                        ),
                    });
                }
            }
            if !prefix_ok && strings.contains("streamrel_") {
                out.push(Violation {
                    rule: "reserved-prefix",
                    path: rel.to_string(),
                    line: lineno,
                    message: "hardcoded reserved prefix; use \
                              streamrel_obs::RESERVED_PREFIX"
                        .to_string(),
                });
            }
            let t = code.trim_start();
            if t.starts_with("fn ") || code.contains(" fn ") {
                max_pos = None;
                fn_locks.clear();
                fn_reported = false;
                loop_stack.clear();
            }
            // `condvar-wait-loop`: a wait outside any loop construct. The
            // line carrying the loop keyword counts as inside it.
            let loopish = code.contains("while ")
                || code.contains("for ")
                || t.starts_with("loop")
                || code.contains(" loop ");
            if in_crates
                && [".wait(", ".wait_for(", ".wait_while("]
                    .iter()
                    .any(|p| code.contains(p))
                && !loopish
                && !loop_stack.iter().any(|&b| b)
                && !line.contains("lint: wait-ok")
            {
                out.push(Violation {
                    rule: "condvar-wait-loop",
                    path: rel.to_string(),
                    line: lineno,
                    message: "condvar wait outside a `while`/`loop` guard; \
                              spurious wakeups require re-checking the \
                              predicate (or add `// lint: wait-ok(reason)`)"
                        .to_string(),
                });
            }
            for c in code.chars() {
                match c {
                    '{' => loop_stack.push(loopish),
                    '}' => {
                        loop_stack.pop();
                    }
                    _ => {}
                }
            }
            for recv in lock_receivers(&code) {
                if !in_crates || line.contains("lint: lock-order-ok") {
                    continue;
                }
                let pos = order_pos(&recv);
                if let (Some(pos), Some(prev)) = (pos, max_pos) {
                    if pos < prev {
                        out.push(Violation {
                            rule: "lock-order",
                            path: rel.to_string(),
                            line: lineno,
                            message: format!(
                                "`{}` acquired after `{}`, against the order in \
                                 crates/check/src/lock_order.rs",
                                GLOBAL_LOCK_ORDER[pos], GLOBAL_LOCK_ORDER[prev]
                            ),
                        });
                    }
                }
                if let Some(pos) = pos {
                    max_pos = Some(max_pos.map_or(pos, |p| p.max(pos)));
                }
                if file_ordered {
                    continue;
                }
                if !fn_locks.contains(&recv) {
                    fn_locks.push(recv);
                }
                if fn_locks.len() >= 2 && !fn_reported {
                    fn_reported = true;
                    out.push(Violation {
                        rule: "undeclared-lock-order",
                        path: rel.to_string(),
                        line: lineno,
                        message: format!(
                            "function acquires `{}` in a file that takes no lock \
                             in crates/check/src/lock_order.rs",
                            fn_locks.join("` and `")
                        ),
                    });
                }
            }
        }
    }

    if is_crate_root(rel)
        && !content.contains("#![deny(unsafe_code)]")
        && !content.contains("lint: allow-unsafe(")
    {
        out.push(Violation {
            rule: "deny-unsafe",
            path: rel.to_string(),
            line: 0,
            message: "crate root lacks `#![deny(unsafe_code)]` (or a \
                      documented `lint: allow-unsafe(reason)` exception)"
                .to_string(),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(rel: &str, src: &str) -> Vec<&'static str> {
        lint_file(rel, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_flagged_in_io_crates_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_of("crates/storage/src/wal.rs", src),
            vec!["no-unwrap"]
        );
        assert_eq!(rules_of("crates/net/src/server.rs", src), vec!["no-unwrap"]);
        assert_eq!(rules_of("crates/cq/src/shared.rs", src), vec!["no-unwrap"]);
        assert_eq!(rules_of("crates/sql/src/parser.rs", src), vec!["no-unwrap"]);
        assert!(rules_of("crates/exec/src/expr.rs", src).is_empty());
        assert!(rules_of("crates/cq/tests/prop.rs", src).is_empty());
    }

    #[test]
    fn expect_flagged() {
        let src = "fn f() { x.expect(\"boom\"); }\n";
        assert_eq!(rules_of("crates/core/src/db.rs", src), vec!["no-unwrap"]);
    }

    #[test]
    fn unwrap_in_test_region_allowed() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}\n";
        assert!(rules_of("crates/storage/src/wal.rs", src).is_empty());
    }

    #[test]
    fn unwrap_inside_string_or_comment_ignored() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap()\n// x.unwrap()\n";
        assert!(rules_of("crates/storage/src/wal.rs", src).is_empty());
    }

    #[test]
    fn relaxed_ordering_scoped_to_obs() {
        let src = "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(
            rules_of("crates/net/src/server.rs", src),
            vec!["relaxed-ordering"]
        );
        assert!(rules_of("crates/obs/src/metrics.rs", src).is_empty());
        assert!(rules_of("shims/parking_lot/src/witness.rs", src).is_empty());
    }

    #[test]
    fn reserved_prefix_flagged_outside_definition_sites() {
        let src = "fn f() { let n = \"streamrel_sneaky\"; }\n";
        assert_eq!(
            rules_of("crates/core/src/db.rs", src),
            vec!["reserved-prefix"]
        );
        assert!(rules_of("crates/core/src/provider.rs", src).is_empty());
        assert!(rules_of("crates/obs/src/metrics.rs", src).is_empty());
        // In code position (an identifier, e.g. a crate name) it is fine.
        let code = "use streamrel_obs::RESERVED_PREFIX;\n";
        assert!(rules_of("crates/core/src/db.rs", code).is_empty());
    }

    #[test]
    fn lock_order_violation_detected() {
        let src = "fn ok(&self) { let a = self.catalog.lock(); let b = s.state.lock(); }\n\
                   fn bad(&self) { let b = s.state.lock(); let a = self.catalog.lock(); }\n";
        assert_eq!(
            rules_of("crates/core/src/db/tick.rs", src),
            vec!["lock-order"]
        );
        let v = &lint_file("crates/core/src/db/tick.rs", src)[0];
        assert_eq!(v.line, 2);
        assert!(v
            .message
            .contains("`core.catalog` acquired after `core.state`"));
        // The receivers name another crate's locks: outside the order
        // there, so each two-lock function is an unordered nesting.
        assert_eq!(
            rules_of("crates/storage/src/engine.rs", src),
            vec!["undeclared-lock-order"; 2]
        );
    }

    #[test]
    fn lock_order_resets_per_function() {
        let src = "fn f() { state.lock(); }\n\
                   fn g() { catalog.lock(); state.lock(); }\n";
        assert!(rules_of("crates/core/src/db.rs", src).is_empty());
    }

    #[test]
    fn undeclared_multi_lock_function_flagged() {
        // Two distinct locks in one function of a file that takes no
        // ordered lock: violation, in a crate with ordered locks or not.
        let src = "fn f(&self) { self.a.lock(); self.b.lock(); }\n";
        for file in ["crates/cq/src/pool.rs", "crates/net/src/server.rs"] {
            assert_eq!(rules_of(file, src), vec!["undeclared-lock-order"]);
        }
        // One lock per function is fine.
        let src = "fn f(&self) { self.a.lock(); }\nfn g(&self) { self.b.lock(); }\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
        // A file that takes an ordered lock is checked by `lock-order`
        // instead; the same lock names elsewhere are not ordered.
        let src = "fn f(&self) { self.a.lock(); self.b.lock(); }\n\
                   fn g(&self) { self.queue.lock(); }\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
        assert_eq!(
            rules_of("crates/net/src/server.rs", src),
            vec!["undeclared-lock-order"]
        );
        // Repeatedly taking the same lock is not a multi-lock function.
        let src = "fn f(&self) { self.a.lock(); self.a.lock(); }\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
    }

    #[test]
    fn deny_unsafe_required_in_crate_roots() {
        assert_eq!(
            rules_of("crates/exec/src/lib.rs", "pub fn f() {}\n"),
            vec!["deny-unsafe"]
        );
        assert!(rules_of(
            "crates/exec/src/lib.rs",
            "#![deny(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
        // Documented exception accepted.
        assert!(rules_of(
            "shims/parking_lot/src/lib.rs",
            "// lint: allow-unsafe(guard hand-off needs raw ptr)\npub fn f() {}\n"
        )
        .is_empty());
        // Non-roots don't need it.
        assert!(rules_of("crates/exec/src/expr.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn allowlist_parses_and_ignores_comments() {
        let allow = parse_allowlist("# comment\n\nno-unwrap crates/storage/src/wal.rs\n");
        assert_eq!(
            allow,
            vec![AllowEntry {
                rule: "no-unwrap".to_string(),
                path: "crates/storage/src/wal.rs".to_string(),
                justification: None,
            }]
        );
    }

    #[test]
    fn allowlist_justification_suffix_parses() {
        let allow = parse_allowlist(
            "relaxed-ordering crates/x/src/a.rs -- seqlock readers tolerate tears\n",
        );
        assert_eq!(allow.len(), 1);
        assert_eq!(allow[0].rule, "relaxed-ordering");
        assert_eq!(allow[0].path, "crates/x/src/a.rs");
        assert_eq!(
            allow[0].justification.as_deref(),
            Some("seqlock readers tolerate tears")
        );
        assert!(allow[0].usable());
        // relaxed-ordering without a justification is rejected; other
        // rules don't need one.
        let bare = parse_allowlist("relaxed-ordering crates/x/src/a.rs\n");
        assert!(!bare[0].usable());
        let other = parse_allowlist("no-unwrap crates/x/src/a.rs\n");
        assert!(other[0].usable());
    }

    #[test]
    fn condvar_wait_outside_loop_flagged() {
        // Bare wait in straight-line code: violation.
        let src = "fn f(&self) {\n    let mut g = self.m.lock();\n    self.cv.wait(&mut g);\n}\n";
        assert_eq!(
            rules_of("crates/cq/src/pool.rs", src),
            vec!["condvar-wait-loop"]
        );
        // Inside a `while` guard: fine.
        let src = "fn f(&self) {\n    let mut g = self.m.lock();\n    while !*g {\n        self.cv.wait(&mut g);\n    }\n}\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
        // Inside a `loop`: fine.
        let src = "fn f(&self) {\n    let mut g = self.m.lock();\n    loop {\n        if *g { break; }\n        self.cv.wait_for(&mut g, t);\n    }\n}\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
        // Justified single wait: fine.
        let src = "fn f(&self) {\n    let mut g = self.m.lock();\n    // lint: wait-ok(caller re-checks generation)\n    self.cv.wait(&mut g); // lint: wait-ok(caller re-checks generation)\n}\n";
        assert!(rules_of("crates/cq/src/pool.rs", src).is_empty());
        // Shims (the Condvar implementation itself) are out of scope.
        let src = "fn f(&self) { self.0.wait(g); }\n";
        assert!(rules_of("shims/parking_lot/src/lib.rs", src)
            .iter()
            .all(|r| *r != "condvar-wait-loop"));
    }

    #[test]
    fn relaxed_handoff_pair_flagged_even_in_obs() {
        // store+load pair with no RMW: a handoff — flagged in obs too.
        let src = "fn set(&self) { self.flag.store(1, Ordering::Relaxed); }\n\
                   fn get(&self) -> u64 { self.flag.load(Ordering::Relaxed) }\n";
        let rules = rules_of("crates/obs/src/metrics.rs", src);
        assert_eq!(rules, vec!["relaxed-ordering", "relaxed-ordering"]);
        // A counter (fetch_add + load) stays allowed in obs.
        let src = "fn inc(&self) { self.v.fetch_add(1, Ordering::Relaxed); }\n\
                   fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n";
        assert!(rules_of("crates/obs/src/metrics.rs", src).is_empty());
        // A gauge that also goes through fetch_sub keeps its store/load.
        let src = "fn set(&self) { self.v.store(1, Ordering::Relaxed); }\n\
                   fn dec(&self) { self.v.fetch_sub(1, Ordering::Relaxed); }\n\
                   fn get(&self) -> u64 { self.v.load(Ordering::Relaxed) }\n";
        assert!(rules_of("crates/obs/src/metrics.rs", src).is_empty());
    }
}
