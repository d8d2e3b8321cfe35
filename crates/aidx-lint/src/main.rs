//! aidx-lint: the workspace concurrency lint pass (PR 8).
//!
//! Four rules, run over every `.rs` file under `crates/` and `shims/`:
//!
//! 1. **ordering-allowlist** — every `Ordering::Relaxed` / `Ordering::SeqCst`
//!    in a file must be covered by an entry in `lint-allowlist.txt` carrying
//!    a one-line justification, and the per-file count must match exactly:
//!    adding a relaxed atomic forces a reviewed allowlist update, removing
//!    one forces the stale entry to be pruned. `Acquire`/`Release`/`AcqRel`
//!    are exempt — they say what they synchronise with; `Relaxed` and
//!    `SeqCst` are the two that hide reasoning.
//! 2. **safety-comment** — every `unsafe` block, fn, or impl must be
//!    preceded by (or carry) a `// SAFETY:` comment.
//! 3. **no-poison-unwrap** — non-test code must not call
//!    `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`:
//!    facade primitives don't poison, and std-sync internals must use
//!    `unwrap_or_else(PoisonError::into_inner)` so a checker panic doesn't
//!    cascade.
//! 4. **facade** — crates on the latch protocol path (`aidx-latch`,
//!    `aidx-core`, `aidx-parallel`, `aidx-table`) must route their sync
//!    primitives through `aidx_latch::facade`, never importing
//!    `std::sync::{Mutex, RwLock, Condvar}` or `parking_lot` directly
//!    (allowlisted exemptions: the facade itself and `dcheck`, which must
//!    not recurse through the primitives it checks).
//!
//! Exit status is non-zero when any violation is found, so CI can run
//! `cargo run -p aidx-lint` next to clippy. The linter's own crate is
//! skipped: rule patterns appear in it as string literals.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose sync primitives must come from `aidx_latch::facade`.
const FACADE_CRATES: &[&str] = &["aidx-latch", "aidx-core", "aidx-parallel", "aidx-table"];

/// The two orderings that require a written justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OrderingKind {
    Relaxed,
    SeqCst,
}

impl OrderingKind {
    fn pattern(self) -> String {
        // Built at runtime so the pattern never appears verbatim here.
        match self {
            OrderingKind::Relaxed => format!("Ordering::{}", "Relaxed"),
            OrderingKind::SeqCst => format!("Ordering::{}", "SeqCst"),
        }
    }
}

impl fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingKind::Relaxed => write!(f, "Relaxed"),
            OrderingKind::SeqCst => write!(f, "SeqCst"),
        }
    }
}

/// Parsed `lint-allowlist.txt`.
#[derive(Debug, Default)]
struct Allowlist {
    /// `(file, kind)` → `(allowed count, justification)`.
    orderings: HashMap<(String, OrderingKind), (usize, String)>,
    /// Files exempt from the facade rule, with the recorded reason.
    std_sync: HashMap<String, String>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line,
    /// `ordering <path> <Relaxed|SeqCst> <count> :: <justification>` or
    /// `std-sync <path> :: <reason>`; `#` starts a comment.
    fn parse(text: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, reason) = line
                .split_once("::")
                .ok_or_else(|| format!("allowlist line {}: missing ':: justification'", no + 1))?;
            let reason = reason.trim();
            if reason.is_empty() {
                return Err(format!("allowlist line {}: empty justification", no + 1));
            }
            let fields: Vec<&str> = head.split_whitespace().collect();
            match fields.as_slice() {
                ["ordering", path, kind, count] => {
                    let kind = match *kind {
                        "Relaxed" => OrderingKind::Relaxed,
                        "SeqCst" => OrderingKind::SeqCst,
                        other => {
                            return Err(format!(
                                "allowlist line {}: unknown ordering kind {other:?}",
                                no + 1
                            ))
                        }
                    };
                    let count: usize = count
                        .parse()
                        .map_err(|_| format!("allowlist line {}: bad count {count:?}", no + 1))?;
                    out.orderings
                        .insert((path.to_string(), kind), (count, reason.to_string()));
                }
                ["std-sync", path] => {
                    out.std_sync.insert(path.to_string(), reason.to_string());
                }
                _ => {
                    return Err(format!(
                        "allowlist line {}: unrecognised entry {head:?}",
                        no + 1
                    ))
                }
            }
        }
        Ok(out)
    }
}

/// One lint violation, printed `path:line: [rule] message`.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    message: String,
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

/// The code portion of a source line: everything before a `//` comment.
/// (Naive about `//` inside string literals — acceptable for this linter.)
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// True if `needle` occurs in `hay` delimited by non-identifier characters.
fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(rel) = hay[start..].find(needle) {
        let at = start + rel;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// True when line `i` opens an inline test module: a `#[cfg(test)]` (or
/// `#[cfg(all(test, …))]`) attribute whose item — the rest of its line,
/// or else the next line that is neither blank, a comment nor another
/// attribute — is `mod name {`. A `#[cfg(test)] mod name;` declaration and
/// a `#[cfg(test)]` on any other item open no test region.
fn opens_test_mod(lines: &[&str], i: usize) -> bool {
    let attr = code_part(lines[i]).trim();
    if !attr.starts_with("#[cfg(test)]") && !attr.starts_with("#[cfg(all(test") {
        return false;
    }
    let same_line = attr.split_once(")]").map_or("", |(_, rest)| rest.trim());
    let item = std::iter::once(same_line)
        .chain(lines[i + 1..].iter().map(|l| code_part(l).trim()))
        .find(|l| !l.is_empty() && !l.starts_with("#["))
        .unwrap_or("");
    has_word(item, "mod") && item.ends_with('{')
}

/// Lints one file's content. `rel` is the workspace-relative path with
/// forward slashes; `facade_crate` marks crates subject to rule 4.
fn lint_file(rel: &str, content: &str, allow: &Allowlist, facade_crate: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let is_test_file = rel.contains("/tests/") || rel.contains("/benches/");
    let mut in_test_mod = false; // set at the first inline test mod; test mods sit at file bottom
    let mut counts: HashMap<OrderingKind, usize> = HashMap::new();
    let patterns = [
        (OrderingKind::Relaxed, OrderingKind::Relaxed.pattern()),
        (OrderingKind::SeqCst, OrderingKind::SeqCst.pattern()),
    ];
    let poison_calls = [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"];

    for (i, &line) in lines.iter().enumerate() {
        let lineno = i + 1;
        in_test_mod = in_test_mod || opens_test_mod(&lines, i);
        let in_test = is_test_file || in_test_mod;
        let code = code_part(line);

        // Rule 1 bookkeeping: count target orderings (comments excluded).
        for (kind, pat) in &patterns {
            *counts.entry(*kind).or_default() += code.matches(pat.as_str()).count();
        }

        // Rule 2: unsafe needs a SAFETY comment on the line or just above.
        if has_word(code, "unsafe") {
            let annotated = line.contains("SAFETY:")
                || lines[..i]
                    .iter()
                    .rev()
                    .take(4)
                    .take_while(|l| {
                        let t = l.trim_start();
                        t.starts_with("//") || t.starts_with('#') || t.is_empty()
                    })
                    .any(|l| l.contains("SAFETY:"));
            if !annotated {
                violations.push(Violation {
                    path: rel.to_string(),
                    line: lineno,
                    rule: "safety-comment",
                    message: "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                });
            }
        }

        // Rule 3: poisoning unwraps in non-test code.
        if !in_test {
            for call in &poison_calls {
                if code.contains(call) {
                    violations.push(Violation {
                        path: rel.to_string(),
                        line: lineno,
                        rule: "no-poison-unwrap",
                        message: format!(
                            "poisoning `{call}` — facade primitives don't poison; std-sync \
                             internals must use unwrap_or_else(PoisonError::into_inner)"
                        ),
                    });
                }
            }
        }

        // Rule 4: direct sync-primitive imports in facade crates.
        if facade_crate && !in_test && !allow.std_sync.contains_key(rel) {
            let trimmed = code.trim_start();
            let bad_import = (trimmed.starts_with("use std::sync::")
                && ["Mutex", "RwLock", "Condvar", "Barrier"]
                    .iter()
                    .any(|t| has_word(code, t)))
                || trimmed.starts_with("use parking_lot")
                || code.contains("parking_lot::");
            if bad_import {
                violations.push(Violation {
                    path: rel.to_string(),
                    line: lineno,
                    rule: "facade",
                    message: "direct sync-primitive import — go through aidx_latch::facade \
                              (or add a justified std-sync allowlist entry)"
                        .to_string(),
                });
            }
        }
    }

    // Rule 1: compare counts against the allowlist.
    for (kind, found) in counts {
        if found == 0 {
            continue;
        }
        match allow.orderings.get(&(rel.to_string(), kind)) {
            Some(&(allowed, _)) if allowed == found => {}
            Some(&(allowed, _)) => {
                violations.push(Violation {
                    path: rel.to_string(),
                    line: 0,
                    rule: "ordering-allowlist",
                    message: format!(
                        "{found} `{kind}` orderings but the allowlist records {allowed} — \
                         justify the change and update the count"
                    ),
                });
            }
            None => {
                violations.push(Violation {
                    path: rel.to_string(),
                    line: 0,
                    rule: "ordering-allowlist",
                    message: format!(
                        "{found} `{kind}` orderings with no allowlist entry — add \
                         `ordering {rel} {kind} {found} :: <justification>` to lint-allowlist.txt"
                    ),
                });
            }
        }
    }
    violations
}

/// Stale allowlist entries: files that no longer contain the recorded
/// ordering at all (count drift is reported by `lint_file`).
fn stale_entries(
    allow: &Allowlist,
    seen: &HashMap<String, HashMap<OrderingKind, usize>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for ((path, kind), &(allowed, _)) in &allow.orderings {
        let found = seen
            .get(path)
            .and_then(|c| c.get(kind))
            .copied()
            .unwrap_or(0);
        if found == 0 && allowed > 0 {
            out.push(Violation {
                path: path.clone(),
                line: 0,
                rule: "ordering-allowlist",
                message: format!(
                    "stale allowlist entry: records {allowed} `{kind}` but the file has none"
                ),
            });
        }
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name != "target" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/aidx-lint/../.. when run via cargo; cwd as a fallback.
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|m| PathBuf::from(m).join("../..").canonicalize().ok())
        .unwrap_or_else(|| std::env::current_dir().unwrap())
}

fn main() {
    let root = workspace_root();
    let allow_path = root.join("lint-allowlist.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("aidx-lint: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => Allowlist::default(),
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("shims"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut seen: HashMap<String, HashMap<OrderingKind, usize>> = HashMap::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.starts_with("crates/aidx-lint/") {
            continue; // rule patterns appear here as string literals
        }
        let facade_crate = FACADE_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/")));
        let Ok(content) = std::fs::read_to_string(path) else {
            continue;
        };
        let counts = seen.entry(rel.clone()).or_default();
        for kind in [OrderingKind::Relaxed, OrderingKind::SeqCst] {
            let n = content
                .lines()
                .map(|l| code_part(l).matches(kind.pattern().as_str()).count())
                .sum::<usize>();
            if n > 0 {
                counts.insert(kind, n);
            }
        }
        violations.extend(lint_file(&rel, &content, &allow, facade_crate));
    }
    violations.extend(stale_entries(&allow, &seen));

    if violations.is_empty() {
        println!("aidx-lint: {} files clean", files.len());
    } else {
        violations.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("aidx-lint: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relaxed(n: usize) -> String {
        let mut s = String::from("use std::sync::atomic::{AtomicU64, Ordering};\n");
        for i in 0..n {
            s.push_str(&format!(
                "fn f{i}(a: &AtomicU64) -> u64 {{ a.load(Ordering::{}) }}\n",
                "Relaxed"
            ));
        }
        s
    }

    #[test]
    fn unannotated_relaxed_ordering_fails() {
        let allow = Allowlist::default();
        let v = lint_file("crates/x/src/lib.rs", &relaxed(2), &allow, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ordering-allowlist");
        assert!(v[0].message.contains("no allowlist entry"), "{}", v[0]);
    }

    #[test]
    fn allowlisted_ordering_with_matching_count_passes() {
        let allow = Allowlist::parse(&format!(
            "ordering crates/x/src/lib.rs {} 2 :: monotonic counters\n",
            "Relaxed"
        ))
        .unwrap();
        assert!(lint_file("crates/x/src/lib.rs", &relaxed(2), &allow, false).is_empty());
    }

    #[test]
    fn count_drift_fails_both_ways() {
        let allow = Allowlist::parse(&format!(
            "ordering crates/x/src/lib.rs {} 2 :: monotonic counters\n",
            "Relaxed"
        ))
        .unwrap();
        let grown = lint_file("crates/x/src/lib.rs", &relaxed(3), &allow, false);
        assert_eq!(grown.len(), 1, "extra ordering must fail");
        assert!(grown[0].message.contains("records 2"), "{}", grown[0]);
        let shrunk = lint_file("crates/x/src/lib.rs", &relaxed(1), &allow, false);
        assert_eq!(shrunk.len(), 1, "stale count must fail");
    }

    #[test]
    fn uncommented_unsafe_fails_and_safety_comment_passes() {
        let allow = Allowlist::default();
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let v = lint_file("crates/x/src/lib.rs", bad, &allow, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");

        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_file("crates/x/src/lib.rs", good, &allow, false).is_empty());

        let attr_gap =
            "/// Docs.\n// SAFETY: single-threaded access.\n#[allow(dead_code)]\nunsafe fn g() {}\n";
        assert!(
            lint_file("crates/x/src/lib.rs", attr_gap, &allow, false).is_empty(),
            "SAFETY above an attribute still counts"
        );
    }

    #[test]
    fn forbid_unsafe_attribute_is_not_flagged() {
        let v = lint_file(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n",
            &Allowlist::default(),
            false,
        );
        assert!(v.is_empty(), "unsafe_code is a different token");
    }

    #[test]
    fn poison_unwrap_fails_outside_tests_only() {
        let allow = Allowlist::default();
        let bad = "fn f() { STATE.lock().unwrap().push(1); }\n";
        let v = lint_file("crates/x/src/lib.rs", bad, &allow, false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-poison-unwrap");

        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {bad}\n}}\n");
        assert!(lint_file("crates/x/src/lib.rs", &in_tests, &allow, false).is_empty());
        assert!(lint_file("crates/x/tests/t.rs", bad, &allow, false).is_empty());
    }

    #[test]
    fn only_an_inline_test_mod_opens_a_test_region() {
        let allow = Allowlist::default();
        let bad = "fn f() { STATE.lock().unwrap().push(1); }\n";
        let import = "use std::sync::Mutex;\n";
        // A declaration of an out-of-line test module, or a test-only
        // item, leaves the code after it under rules 3 and 4…
        for head in [
            "#[cfg(test)]\nmod tests;\n",
            "#[cfg(test)]\nfn helper() {}\n",
            "#[cfg(test)] // helpers\n#[allow(dead_code)]\nconst N: usize = 1;\n",
        ] {
            let v = lint_file(
                "crates/x/src/lib.rs",
                &format!("{head}{bad}"),
                &allow,
                false,
            );
            assert_eq!(v.len(), 1, "{head}");
            assert_eq!(v[0].rule, "no-poison-unwrap");
            let v = lint_file(
                "crates/aidx-core/src/x.rs",
                &format!("{head}{import}"),
                &allow,
                true,
            );
            assert_eq!(v.len(), 1, "{head}");
            assert_eq!(v[0].rule, "facade");
        }
        // …and an inline one, on one line or after another attribute,
        // exempts what follows.
        for head in [
            "#[cfg(test)] mod tests {\n",
            "#[cfg(all(test, feature = \"x\"))]\n#[allow(unused)]\npub(crate) mod tests {\n",
        ] {
            let text = format!("{head}{bad}{import}}}\n");
            assert!(lint_file("crates/aidx-core/src/x.rs", &text, &allow, true).is_empty());
        }
    }

    #[test]
    fn facade_rule_flags_direct_imports_unless_allowlisted() {
        let allow = Allowlist::default();
        let bad = "use std::sync::{Mutex, Arc};\n";
        let v = lint_file("crates/aidx-core/src/x.rs", bad, &allow, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "facade");

        // Non-facade crates may use std::sync directly.
        assert!(lint_file("crates/aidx-check/src/x.rs", bad, &allow, false).is_empty());
        // Arc/atomics alone are fine even in facade crates.
        let arc_only = "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n";
        assert!(lint_file("crates/aidx-core/src/x.rs", arc_only, &allow, true).is_empty());
        // parking_lot is just as direct.
        let pl = "use parking_lot::Mutex;\n";
        assert_eq!(
            lint_file("crates/aidx-core/src/x.rs", pl, &allow, true).len(),
            1
        );
        // An allowlisted file is exempt.
        let exempted =
            Allowlist::parse("std-sync crates/aidx-core/src/x.rs :: checker internals\n").unwrap();
        assert!(lint_file("crates/aidx-core/src/x.rs", bad, &exempted, true).is_empty());
    }

    #[test]
    fn allowlist_rejects_missing_justification() {
        assert!(Allowlist::parse(&format!("ordering a.rs {} 1 ::\n", "Relaxed")).is_err());
        assert!(Allowlist::parse(&format!("ordering a.rs {} 1\n", "Relaxed")).is_err());
        assert!(Allowlist::parse("nonsense a.rs :: why\n").is_err());
    }
}
