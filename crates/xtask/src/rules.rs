//! The §3.3 label-discipline rules.
//!
//! Each rule is a textual-but-token-aware check over the blanked source
//! produced by [`crate::lexer`]. The rules deliberately enforce *repo
//! conventions* that rustc/clippy cannot express:
//!
//! | id                 | invariant                                              |
//! |--------------------|--------------------------------------------------------|
//! | `raw-disk-op`      | sector ops reach the disk only via `fs::page` wrappers |
//! | `hint-reverify`    | hint-cache reads are re-verified in the same function  |
//! | `diskerror-unwrap` | no `unwrap`/`expect` on fallible paths in fs/streams   |
//! | `clock-discipline` | only `crates/disk`/`crates/sim` mutate the `SimClock`  |
//! | `stale-allow`      | every `lint: allow` annotation suppresses something    |
//!
//! Escape hatch: `// lint: allow(<rule>) — <reason>`. The annotation covers
//! the first non-blank code line at or below it, must carry a reason, and is
//! itself checked: an annotation that suppresses nothing is a `stale-allow`
//! violation, so the escape hatches cannot rot.

use std::collections::HashSet;
use std::fmt;

use crate::model::SourceFile;

pub const RULE_IDS: [&str; 5] = [
    "raw-disk-op",
    "hint-reverify",
    "diskerror-unwrap",
    "clock-discipline",
    "stale-allow",
];

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
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

/// One suppressed finding: an allow annotation that matched a violation.
#[derive(Debug, Clone)]
pub struct Allowed {
    pub rule: String,
    pub path: String,
    pub line: usize,
    pub reason: String,
}

impl fmt::Display for Allowed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] allowed — {}",
            self.path, self.line, self.rule, self.reason
        )
    }
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub allowed: Vec<Allowed>,
    pub files_checked: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint a set of scanned files and produce a report.
pub fn lint_files(files: &[SourceFile]) -> Report {
    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };
    for file in files {
        lint_file(file, &mut report);
    }
    report
}

fn lint_file(file: &SourceFile, report: &mut Report) {
    // The linter's own sources document the annotation grammar in doc
    // comments; those are not escape hatches and must not be parsed as such.
    if file.crate_dir() == "crates/xtask" {
        return;
    }
    let mut raw = Vec::new();
    raw_disk_op(file, &mut raw);
    hint_reverify(file, &mut raw);
    diskerror_unwrap(file, &mut raw);
    clock_discipline(file, &mut raw);
    apply_allows(file, raw, &RULE_IDS, true, report);
}

/// Apply allow annotations for the rules in `owned` to one file's raw
/// violations, then flag stale annotations. An annotation at line A covers
/// the first line >= A holding non-blank code (a trailing comment covers its
/// own line). Each pass (lint, analyze) only stale-checks the annotations it
/// owns; `check_unknown` is set by the base pass so an annotation naming no
/// rule at all is reported exactly once.
pub(crate) fn apply_allows(
    file: &SourceFile,
    raw: Vec<Violation>,
    owned: &[&str],
    check_unknown: bool,
    report: &mut Report,
) {
    let mut used: HashSet<usize> = HashSet::new();
    for v in raw {
        let covering = file.scanned.annotations.iter().find(|a| {
            a.rule == v.rule && a.line <= v.line && covered_line(file, a.line) == Some(v.line)
        });
        match covering {
            Some(a) if !a.reason.is_empty() => {
                used.insert(a.line);
                report.allowed.push(Allowed {
                    rule: a.rule.clone(),
                    path: v.path.clone(),
                    line: v.line,
                    reason: a.reason.clone(),
                });
            }
            Some(a) => {
                used.insert(a.line);
                report.violations.push(Violation {
                    rule: v.rule,
                    path: v.path.clone(),
                    line: v.line,
                    message: format!(
                        "{} (the `lint: allow` on line {} has no reason — write one)",
                        v.message, a.line
                    ),
                });
            }
            None => report.violations.push(v),
        }
    }

    // Stale or unknown annotations among the rules this pass owns.
    for a in &file.scanned.annotations {
        if used.contains(&a.line) {
            continue;
        }
        let message = if owned.contains(&a.rule.as_str()) {
            format!(
                "`lint: allow({})` suppresses nothing — remove it or fix the rule id",
                a.rule
            )
        } else if check_unknown
            && !RULE_IDS.contains(&a.rule.as_str())
            && !crate::analyze::ANALYZE_RULE_IDS.contains(&a.rule.as_str())
        {
            format!("`lint: allow({})` names an unknown rule", a.rule)
        } else {
            continue;
        };
        report.violations.push(Violation {
            rule: "stale-allow",
            path: file.rel_path.clone(),
            line: a.line,
            message,
        });
    }
}

/// The first line >= `from` whose blanked code is non-blank.
pub(crate) fn covered_line(file: &SourceFile, from: usize) -> Option<usize> {
    file.scanned
        .lines
        .iter()
        .skip(from.saturating_sub(1))
        .find(|l| !l.code.trim().is_empty())
        .map(|l| l.number)
}

fn in_crates(file: &SourceFile, dirs: &[&str]) -> bool {
    dirs.contains(&file.crate_dir())
}

/// Lines eligible for production-code rules: skip `#[cfg(test)]` regions and
/// anything under a `tests/` or `examples/` tree.
fn production_lines(file: &SourceFile) -> impl Iterator<Item = &crate::lexer::Line> {
    let in_test_tree = file.rel_path.starts_with("tests/")
        || file.rel_path.starts_with("examples/")
        || file.rel_path.contains("/tests/");
    file.scanned
        .lines
        .iter()
        .filter(move |l| !in_test_tree && !file.is_test_line(l.number))
}

/// The raw sector-op spellings `raw-disk-op` and its transitive twin look
/// for: every `Disk` request form, and a hand-built operation.
pub(crate) const RAW_DISK_OPS: [&str; 5] = [
    ".do_op(",
    ".do_batch(",
    ".do_batch_read(",
    ".do_batch_write(",
    "SectorOp {",
];

/// `raw-disk-op`: in `crates/fs` and `crates/streams`, sector operations must
/// go through the `fs::page` retry wrappers. Direct `.do_op(` /
/// `.do_batch(` / `.do_batch_read(` / `.do_batch_write(` calls and literal
/// `SectorOp { .. }` construction are confined to `fs/src/page.rs` (the
/// wrapper module itself).
fn raw_disk_op(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_crates(file, &["crates/fs", "crates/streams"]) {
        return;
    }
    if file.rel_path == "crates/fs/src/page.rs" {
        return;
    }
    for line in production_lines(file) {
        for pat in RAW_DISK_OPS {
            if line.code.contains(pat) {
                out.push(Violation {
                    rule: "raw-disk-op",
                    path: file.rel_path.clone(),
                    line: line.number,
                    message: format!(
                        "raw disk operation `{}` outside fs::page — route it \
                         through retry_op/complete_with_retry/transfer \
                         so §3.3 checks and bounded retry apply",
                        pat.trim()
                    ),
                });
            }
        }
    }
}

/// `hint-reverify`: raw hint-cache accessors (`.lookup_name(`,
/// `.dir_entries(`, `cache.leader(`) hand back *hints*, not truth. Any
/// function consuming one must also contain a label re-verification call
/// (`read_page`, `verify_absolutes`, `retry_op`, `complete_with_retry`) or
/// carry an explicit allow annotation explaining why the hint is safe
/// unverified (e.g. epoch gating). The cache module itself is exempt — it is
/// the hint store, not a consumer.
fn hint_reverify(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_crates(file, &["crates/fs", "crates/streams", "crates/core"]) {
        return;
    }
    if file.rel_path == "crates/fs/src/cache.rs" {
        return;
    }
    const HINT_PATTERNS: [&str; 3] = [".lookup_name(", ".dir_entries(", "cache.leader("];
    const VERIFY_PATTERNS: [&str; 4] = [
        "read_page(",
        "verify_absolutes(",
        "retry_op(",
        "complete_with_retry(",
    ];
    for line in production_lines(file) {
        let Some(pat) = HINT_PATTERNS.iter().find(|p| line.code.contains(**p)) else {
            continue;
        };
        let Some(span) = file.enclosing_fn(line.number) else {
            continue;
        };
        let verified = file
            .scanned
            .lines
            .iter()
            .filter(|l| span.start_line <= l.number && l.number <= span.end_line)
            .any(|l| VERIFY_PATTERNS.iter().any(|v| l.code.contains(v)));
        if !verified {
            out.push(Violation {
                rule: "hint-reverify",
                path: file.rel_path.clone(),
                line: line.number,
                message: format!(
                    "hint consumed via `{}` in fn `{}` with no label \
                     re-verification in the same function — hints may be \
                     arbitrarily stale (§3.3); re-read the page or annotate \
                     why staleness is impossible",
                    pat.trim(),
                    span.name
                ),
            });
        }
    }
}

/// `diskerror-unwrap`: production code in `crates/fs` and `crates/streams`
/// may not `unwrap()`/`expect(` — every `DiskError` must flow to the retry
/// layer or the caller. (Test code is free to unwrap.)
fn diskerror_unwrap(file: &SourceFile, out: &mut Vec<Violation>) {
    if !in_crates(file, &["crates/fs", "crates/streams"]) {
        return;
    }
    for line in production_lines(file) {
        for pat in [".unwrap()", ".expect("] {
            if line.code.contains(pat) {
                out.push(Violation {
                    rule: "diskerror-unwrap",
                    path: file.rel_path.clone(),
                    line: line.number,
                    message: format!(
                        "`{pat}` in production fs/streams code — a transient \
                         fault here becomes a panic; propagate the DiskError \
                         (or annotate why it is statically impossible)"
                    ),
                });
            }
        }
    }
}

/// `clock-discipline`: the simulated clock is advanced by the disk layer as a
/// side effect of I/O; other crates moving it skew every latency number in
/// the simulation. Outside `crates/disk` and `crates/sim`, any `.advance(` /
/// `.advance_to(` / `.set(` whose receiver mentions a clock (on the same or
/// the two preceding lines, to survive rustfmt chains) must be annotated.
fn clock_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    if in_crates(file, &["crates/disk", "crates/sim"]) {
        return;
    }
    // Blank and comment-only lines are dropped so the lookback window sees
    // the nearest real code even when a comment sits inside a method chain.
    let lines: Vec<_> = production_lines(file)
        .filter(|l| !l.code.trim().is_empty())
        .collect();
    for (idx, line) in lines.iter().enumerate() {
        for pat in [".advance(", ".advance_to(", ".set("] {
            if !line.code.contains(pat) {
                continue;
            }
            let context_mentions_clock = (idx.saturating_sub(2)..=idx)
                .any(|j| lines[j].code.to_ascii_lowercase().contains("clock"));
            if context_mentions_clock {
                out.push(Violation {
                    rule: "clock-discipline",
                    path: file.rel_path.clone(),
                    line: line.number,
                    message: format!(
                        "`{pat}` on a clock outside crates/disk and crates/sim — \
                         simulated time is owned by the disk layer; model the \
                         delay as an I/O cost or annotate the exception"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn lint_one(path: &str, src: &str) -> Report {
        lint_files(&[SourceFile::from_source(path.into(), src)])
    }

    #[test]
    fn raw_disk_op_fires_outside_page() {
        let r = lint_one(
            "crates/fs/src/file.rs",
            "fn f(d: &mut dyn Disk) {\n    d.do_op(op).ok();\n}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "raw-disk-op");
    }

    #[test]
    fn raw_disk_op_exempts_page_rs_and_tests() {
        let src = "fn f(d: &mut dyn Disk) {\n    d.do_op(op).ok();\n}\n";
        assert!(lint_one("crates/fs/src/page.rs", src).is_clean());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn f(d: &mut dyn Disk) {\n        d.do_op(op).ok();\n    }\n}\n";
        assert!(lint_one("crates/fs/src/file.rs", test_src).is_clean());
    }

    #[test]
    fn hint_reverify_requires_verification() {
        let bad = "fn lookup(&self) -> u16 {\n    self.cache.lookup_name(k)\n}\n";
        let r = lint_one("crates/fs/src/file.rs", bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "hint-reverify");

        let good = "fn lookup(&mut self) -> u16 {\n    let h = self.cache.lookup_name(k);\n    self.read_page(h)\n}\n";
        assert!(lint_one("crates/fs/src/file.rs", good).is_clean());
    }

    #[test]
    fn unwrap_flagged_in_fs() {
        let r = lint_one(
            "crates/streams/src/disk.rs",
            "fn f() {\n    g().unwrap();\n}\n",
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "diskerror-unwrap");
    }

    #[test]
    fn clock_discipline_catches_split_chains() {
        let src =
            "fn f(&mut self) {\n    self.machine\n        .clock()\n        .advance(t);\n}\n";
        let r = lint_one("crates/net/src/ether.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "clock-discipline");
        // Same code inside crates/disk is fine.
        assert!(lint_one("crates/disk/src/drive.rs", src).is_clean());
    }

    #[test]
    fn allow_annotation_suppresses_and_is_recorded() {
        let src = "fn f() {\n    // lint: allow(diskerror-unwrap) — infallible by construction\n    g().unwrap();\n}\n";
        let r = lint_one("crates/fs/src/page.rs", src);
        assert!(r.is_clean());
        assert_eq!(r.allowed.len(), 1);
        assert_eq!(r.allowed[0].rule, "diskerror-unwrap");
        assert_eq!(r.allowed[0].reason, "infallible by construction");
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "fn f() {\n    // lint: allow(diskerror-unwrap)\n    g().unwrap();\n}\n";
        let r = lint_one("crates/fs/src/file.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("no reason"));
    }

    #[test]
    fn stale_allow_flagged() {
        let src = "// lint: allow(raw-disk-op) — left over\nfn f() {}\n";
        let r = lint_one("crates/fs/src/file.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "stale-allow");
    }

    #[test]
    fn unknown_rule_flagged() {
        let src = "// lint: allow(no-such-rule) — huh\nfn f() {}\n";
        let r = lint_one("crates/fs/src/file.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn patterns_in_strings_and_comments_ignored() {
        let src = "fn f() {\n    let s = \".do_op(\"; // .unwrap() in comment\n    log(s);\n}\n";
        assert!(lint_one("crates/fs/src/file.rs", src).is_clean());
    }
}
