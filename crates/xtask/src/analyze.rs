//! `cargo xtask analyze` — interprocedural discipline rules.
//!
//! The per-function lint ([`crate::rules`]) checks what a single function
//! looks like; these rules check what the *call graph* does. Four families:
//!
//! | id                           | invariant                                         |
//! |------------------------------|---------------------------------------------------|
//! | `raw-disk-op-transitive`     | no fs/streams helper *reaches* a raw sector op    |
//! | `error-path-discard`         | disk/net error results are never silently dropped |
//! | `hashmap-iteration`          | no hash-order iteration on deterministic paths    |
//! | `thread-discipline`          | no host threads or thread-locals in production    |
//! | `clock-discipline-transitive`| no helper *reaches* an undisciplined clock write  |
//! | `protocol-totality`          | every defined opcode is dispatched and replied to |
//!
//! The same `// lint: allow(<rule>) — <reason>` escape hatch applies, and the
//! analyze pass owns staleness checking for its own rule ids (the base lint
//! skips them, so the two passes never double-report).
//!
//! An allow on a *direct* violation sanctions the whole function for the
//! transitive rules: annotating the raw op (or clock write) line asserts that
//! call site is safe, so its callers inherit the sanction instead of each
//! needing their own annotation.

use std::collections::HashSet;

use crate::callgraph::{CallGraph, CallSite};
use crate::model::{find_word, SourceFile};
use crate::rules::{apply_allows, covered_line, Report, Violation};

pub const ANALYZE_RULE_IDS: [&str; 6] = [
    "raw-disk-op-transitive",
    "error-path-discard",
    "hashmap-iteration",
    "thread-discipline",
    "clock-discipline-transitive",
    "protocol-totality",
];

/// Crates whose batch-planning / serving / scavenging / trace-emitting paths
/// must stay deterministic.
const DETERMINISTIC_CRATES: [&str; 5] = [
    "crates/disk",
    "crates/fs",
    "crates/streams",
    "crates/net",
    "crates/core",
];

/// Run the interprocedural rules over a set of scanned files.
pub fn analyze_files(files: &[SourceFile]) -> Report {
    let graph = CallGraph::build(files);
    let mut raw = Vec::new();
    raw_disk_op_transitive(files, &graph, &mut raw);
    error_path_discard(files, &mut raw);
    hashmap_iteration(files, &mut raw);
    thread_discipline(files, &mut raw);
    clock_discipline_transitive(files, &graph, &mut raw);
    protocol_totality(files, &graph, &mut raw);

    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };
    for file in files {
        if file.crate_dir() == "crates/xtask" {
            continue;
        }
        let mine: Vec<Violation> = raw
            .iter()
            .filter(|v| v.path == file.rel_path)
            .cloned()
            .collect();
        apply_allows(file, mine, &ANALYZE_RULE_IDS, false, &mut report);
    }
    report
}

fn in_crates(file: &SourceFile, dirs: &[&str]) -> bool {
    dirs.contains(&file.crate_dir())
}

fn production_lines(file: &SourceFile) -> impl Iterator<Item = &crate::lexer::Line> {
    let in_test_tree = file.rel_path.starts_with("tests/")
        || file.rel_path.starts_with("examples/")
        || file.rel_path.contains("/tests/");
    file.scanned
        .lines
        .iter()
        .filter(move |l| !in_test_tree && !file.is_test_line(l.number))
}

/// True if the line at 1-based `line` carries a non-empty allow for `rule`.
fn line_is_allowed(file: &SourceFile, line: usize, rule: &str) -> bool {
    file.scanned.annotations.iter().any(|a| {
        a.rule == rule
            && !a.reason.is_empty()
            && a.line <= line
            && covered_line(file, a.line) == Some(line)
    })
}

fn push(
    out: &mut Vec<Violation>,
    rule: &'static str,
    file: &SourceFile,
    line: usize,
    message: String,
) {
    out.push(Violation {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
    });
}

/// Shared skeleton of the two taint rules: reverse-reach from `sources` and
/// flag every in-scope production caller at its witness call site.
fn flag_reaching(
    files: &[SourceFile],
    graph: &CallGraph,
    sources: &[usize],
    rule: &'static str,
    in_scope: impl Fn(&SourceFile) -> bool,
    message: impl Fn(&str, &str) -> String,
    out: &mut Vec<Violation>,
) {
    if sources.is_empty() {
        return;
    }
    let witness = graph.reach_into(sources);
    let mut ids: Vec<usize> = witness.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let node = &graph.nodes[id];
        let file = &files[node.file];
        if node.test || !in_scope(file) {
            continue;
        }
        let site: CallSite = witness[&id];
        let chain = graph.chain(id, &witness);
        push(out, rule, file, site.line, message(&node.name, &chain));
    }
}

/// `raw-disk-op-transitive`: the base `raw-disk-op` rule flags a function
/// that *contains* a raw sector op; this one flags every fs/streams function
/// that *reaches* one through calls. Sanctioned sinks: `fs/src/page.rs` (the
/// retry wrappers) and direct sites carrying a `raw-disk-op` allow.
fn raw_disk_op_transitive(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Violation>) {
    const RAW_PATTERNS: [&str; 3] = [".do_op(", ".do_batch(", "SectorOp {"];
    let mut sources = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        if node.test
            || !in_crates(file, &["crates/fs", "crates/streams"])
            || file.rel_path == "crates/fs/src/page.rs"
        {
            continue;
        }
        let tainted = production_lines(file).any(|l| {
            l.number >= node.start_line
                && l.number <= node.end_line
                && graph.node_at(node.file, l.number) == Some(id)
                && RAW_PATTERNS.iter().any(|p| l.code.contains(p))
                && !line_is_allowed(file, l.number, "raw-disk-op")
        });
        if tainted {
            sources.push(id);
        }
    }
    flag_reaching(
        files,
        graph,
        &sources,
        "raw-disk-op-transitive",
        |file| {
            in_crates(file, &["crates/fs", "crates/streams"])
                && file.rel_path != "crates/fs/src/page.rs"
        },
        |name, chain| {
            format!(
                "fn `{name}` reaches a raw sector op outside fs::page ({chain}) \
                 — route the whole path through retry_op/complete_with_retry/\
                 transfer so §3.3 checks and bounded retry apply"
            )
        },
        out,
    );
}

/// Error sources whose `Result` carries a `DiskError` or a net send status.
const ERROR_SOURCES: [&str; 14] = [
    ".send(",
    ".post(",
    ".do_op(",
    ".do_batch(",
    "read_page(",
    "write_page(",
    "free_page(",
    "delete_file(",
    "write_file(",
    "retry_op(",
    "complete_with_retry(",
    "transfer(",
    "rewrite_label(",
    "follow(",
];

/// `error-path-discard`: on fs/streams/net production paths, a disk or send
/// `Result` may be propagated, retried, or counted+traced — never discarded
/// via `let _ =` or a statement-position `.ok();`.
fn error_path_discard(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !in_crates(file, &["crates/fs", "crates/streams", "crates/net"]) {
            continue;
        }
        let lines: Vec<_> = production_lines(file)
            .filter(|l| !l.code.trim().is_empty())
            .collect();
        for (idx, line) in lines.iter().enumerate() {
            let code = line.code.trim();
            // `let _ = <error source>;` — scan forward to the statement end.
            if code.contains("let _ =") {
                let mut stmt_hit = None;
                for l in lines.iter().skip(idx).take(4) {
                    if let Some(p) = ERROR_SOURCES.iter().find(|p| l.code.contains(**p)) {
                        stmt_hit = Some(*p);
                    }
                    if l.code.contains(';') {
                        break;
                    }
                }
                if let Some(pat) = stmt_hit {
                    push(
                        out,
                        "error-path-discard",
                        file,
                        line.number,
                        discard_message(pat, "let _ ="),
                    );
                    continue;
                }
            }
            // `...<error source>....ok();` — statement-position swallow,
            // looking back two lines to survive rustfmt-split chains.
            if code.ends_with(".ok();") {
                let hit = (idx.saturating_sub(2)..=idx)
                    .find_map(|j| ERROR_SOURCES.iter().find(|p| lines[j].code.contains(**p)));
                if let Some(pat) = hit {
                    push(
                        out,
                        "error-path-discard",
                        file,
                        line.number,
                        discard_message(pat, ".ok()"),
                    );
                }
            }
        }
    }
}

fn discard_message(pat: &str, via: &str) -> String {
    format!(
        "`{}` result discarded via `{via}` — a failed disk/net operation \
         must be propagated, retried, or counted+traced (e.g. a stats \
         counter plus a trace event), never swallowed",
        pat.trim()
    )
}

/// Iteration accessors whose order is the hasher's, not the program's.
const ITER_SUFFIXES: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// `hashmap-iteration`: in the deterministic crates, `HashMap`/`HashSet`
/// *lookup* is fine but *iteration* order leaks the hasher state into batch
/// plans, serve order, and traces. Ordered walks must use `BTreeMap` or an
/// explicit sort.
fn hashmap_iteration(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        if !in_crates(file, &DETERMINISTIC_CRATES) {
            continue;
        }
        let names = hash_container_names(file);
        if names.is_empty() {
            continue;
        }
        for line in production_lines(file) {
            for name in &names {
                for pos in find_word(&line.code, name) {
                    let after = &line.code[pos + name.len()..];
                    let iterated = ITER_SUFFIXES.iter().any(|s| after.starts_with(s))
                        || is_for_loop_subject(&line.code[..pos]);
                    if iterated {
                        push(
                            out,
                            "hashmap-iteration",
                            file,
                            line.number,
                            format!(
                                "iteration over hash-ordered `{name}` on a \
                                 deterministic path — hash order varies run to \
                                 run; use BTreeMap/BTreeSet or collect and sort \
                                 before walking"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Identifiers declared as `HashMap`/`HashSet` in this file: struct fields
/// and let bindings (`x: HashMap<..>`, `let [mut] x = HashMap::new()`), plus
/// typed fn params (`m: &HashMap<..>`).
fn hash_container_names(file: &SourceFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in production_lines(file) {
        for ty in ["HashMap", "HashSet"] {
            for pos in find_word(&line.code, ty) {
                if let Some(name) = decl_name_before(&line.code[..pos]) {
                    if !names.iter().any(|n| n == name) {
                        names.push(name.to_string());
                    }
                }
            }
        }
    }
    names
}

/// Given the text preceding a `HashMap`/`HashSet` token, the identifier it
/// declares, if this is a declaration site.
fn decl_name_before(before: &str) -> Option<&str> {
    let mut b = before.trim_end();
    // `let x = HashMap::new()` / `let mut x = HashMap::with_capacity(..)`.
    if let Some(eq) = b.strip_suffix('=') {
        let binding = eq.trim_end();
        let ident = trailing_ident(binding)?;
        let decl = binding[..binding.len() - ident.len()].trim_end();
        if decl == "let" || decl.ends_with("let mut") || decl == "let mut" {
            return Some(ident);
        }
        return None;
    }
    // `x: HashMap<..>` / `x: &HashMap<..>` / `x: &mut HashMap<..>`.
    if let Some(s) = b.strip_suffix("mut") {
        b = s.trim_end();
    }
    if let Some(s) = b.strip_suffix('&') {
        b = s.trim_end();
    }
    b = b.strip_suffix(':')?.trim_end();
    trailing_ident(b)
}

fn trailing_ident(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = bytes.len();
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == bytes.len() || bytes[start].is_ascii_digit() {
        None
    } else {
        Some(&s[start..])
    }
}

/// True if the text before an identifier ends with a `for .. in` (optionally
/// `&`/`&mut`) — the identifier is being walked.
fn is_for_loop_subject(before: &str) -> bool {
    let mut b = before.trim_end();
    if let Some(s) = b.strip_suffix("mut") {
        let t = s.trim_end();
        if t.ends_with('&') {
            b = t;
        }
    }
    if let Some(s) = b.strip_suffix('&') {
        b = s.trim_end();
    }
    b.ends_with(" in") || b == "in"
}

/// `thread-discipline`: the simulation runs on one host thread. Concurrency
/// (overlapped drive arms, a fleet of clients) is modelled in simulated
/// time, so a host thread in production code of any crate is a
/// nondeterminism hazard. A `thread_local!` is the same thread's hidden
/// state shared by every drive, file system or ether on it: a buffer
/// belongs to the object whose lifetime it follows.
fn thread_discipline(files: &[SourceFile], out: &mut Vec<Violation>) {
    for file in files {
        for line in production_lines(file) {
            for pat in ["thread::spawn(", "thread::scope(", "thread::Builder"] {
                if line.code.contains(pat) {
                    push(
                        out,
                        "thread-discipline",
                        file,
                        line.number,
                        format!(
                            "`{pat}` in production code — the simulation runs \
                             on one host thread; model concurrency in simulated \
                             time instead"
                        ),
                    );
                }
            }
            if line.code.contains("thread_local!") {
                push(
                    out,
                    "thread-discipline",
                    file,
                    line.number,
                    "`thread_local!` in production code — state shared by \
                     every object on the thread; give the buffer to the object \
                     that uses it"
                        .to_string(),
                );
            }
        }
    }
}

/// `clock-discipline-transitive`: the base rule flags a *direct* clock write
/// outside crates/disk+sim; this one flags functions that reach one through
/// calls. An annotated direct site sanctions its callers.
fn clock_discipline_transitive(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Violation>) {
    let mut sources = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        if node.test || in_crates(file, &["crates/disk", "crates/sim"]) {
            continue;
        }
        let lines: Vec<_> = production_lines(file)
            .filter(|l| !l.code.trim().is_empty())
            .collect();
        let tainted = lines.iter().enumerate().any(|(idx, line)| {
            line.number >= node.start_line
                && line.number <= node.end_line
                && graph.node_at(node.file, line.number) == Some(id)
                && [".advance(", ".advance_to(", ".set("]
                    .iter()
                    .any(|p| line.code.contains(p))
                && (idx.saturating_sub(2)..=idx)
                    .any(|j| lines[j].code.to_ascii_lowercase().contains("clock"))
                && !line_is_allowed(file, line.number, "clock-discipline")
        });
        if tainted {
            sources.push(id);
        }
    }
    flag_reaching(
        files,
        graph,
        &sources,
        "clock-discipline-transitive",
        |file| !in_crates(file, &["crates/disk", "crates/sim"]),
        |name, chain| {
            format!(
                "fn `{name}` reaches an undisciplined clock mutation ({chain}) \
                 — simulated time is owned by the disk layer; annotate the \
                 direct site with its justification or model the delay as I/O"
            )
        },
        out,
    );
}

/// `protocol-totality`: every opcode defined as
/// `const NAME: PacketType = PacketType::Other(..)` in net/core must be a
/// complete citizen of the protocol: `*_REQUEST` opcodes need a dispatch
/// site (`NAME =>` arm or `==`/`!=` comparison) whose function transitively
/// reaches a `.send(` (the reply); `*_REPLY` opcodes must actually be
/// constructed (`ptype: NAME`); anything else must at least be referenced
/// outside its definition. Violations anchor at the const so one allow
/// covers the opcode.
fn protocol_totality(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Violation>) {
    const NET_CRATES: [&str; 2] = ["crates/net", "crates/core"];
    struct Opcode {
        name: String,
        file: usize,
        line: usize,
    }
    let mut ops = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_crates(file, &NET_CRATES) {
            continue;
        }
        for line in production_lines(file) {
            if let Some(pos) = line.code.find(": PacketType = PacketType::Other(") {
                if let Some(name) = trailing_ident(line.code[..pos].trim_end()) {
                    ops.push(Opcode {
                        name: name.to_string(),
                        file: fi,
                        line: line.number,
                    });
                }
            }
        }
    }
    if ops.is_empty() {
        return;
    }
    // Functions that directly contain a send — reply evidence sinks.
    let send_nodes: HashSet<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| {
            files[node.file].scanned.lines.iter().any(|l| {
                l.number >= node.start_line
                    && l.number <= node.end_line
                    && l.code.contains(".send(")
            })
        })
        .map(|(id, _)| id)
        .collect();

    for op in &ops {
        let mut dispatch_fns: Vec<usize> = Vec::new();
        let mut constructed = false;
        let mut referenced = false;
        for (fi, file) in files.iter().enumerate() {
            if !in_crates(file, &NET_CRATES) {
                continue;
            }
            for line in production_lines(file) {
                if fi == op.file && line.number == op.line {
                    continue;
                }
                let trimmed = line.code.trim_start();
                if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
                    continue;
                }
                if find_word(&line.code, &op.name).is_empty() {
                    continue;
                }
                referenced = true;
                if line.code.contains(&format!("ptype: {}", op.name)) {
                    constructed = true;
                }
                if ["=>", "==", "!="].iter().any(|t| line.code.contains(t)) {
                    if let Some(id) = graph.node_at(fi, line.number) {
                        dispatch_fns.push(id);
                    }
                }
            }
        }
        let file = &files[op.file];
        if op.name.ends_with("_REQUEST") {
            if dispatch_fns.is_empty() {
                push(
                    out,
                    "protocol-totality",
                    file,
                    op.line,
                    format!(
                        "request opcode `{}` has no dispatch site (`{} =>` arm \
                         or `==`/`!=` check) in net/core — an unhandled request \
                         is silently dropped on the wire",
                        op.name, op.name
                    ),
                );
            } else if !dispatch_fns
                .iter()
                .any(|&id| graph.reaches(id, &send_nodes))
            {
                push(
                    out,
                    "protocol-totality",
                    file,
                    op.line,
                    format!(
                        "request opcode `{}` is dispatched but its handler \
                         never reaches a `.send(` — every request deserves a \
                         reply (or an allow explaining why not)",
                        op.name
                    ),
                );
            }
        } else if op.name.ends_with("_REPLY") {
            if !constructed {
                push(
                    out,
                    "protocol-totality",
                    file,
                    op.line,
                    format!(
                        "reply opcode `{}` is never constructed (`ptype: {}`) \
                         — the protocol defines a reply nobody sends",
                        op.name, op.name
                    ),
                );
            }
        } else if !referenced {
            push(
                out,
                "protocol-totality",
                file,
                op.line,
                format!(
                    "opcode `{}` is defined but never referenced outside its \
                     definition — dead protocol surface",
                    op.name
                ),
            );
        }
    }
}
