//! Hostile-pack fuzz sweep: structure-aware image mutation against the
//! full recovery stack (ROADMAP 5a; the harness lives in
//! `alto_fs::hostile`).
//!
//! Each iteration derives a deterministic [`Case`] from the sweep seed —
//! a valid single-drive or K=4 array image plus a batch of structural
//! corruptions — and drives the Scavenger, directory walk, open-by-name,
//! `read_file`, the warm/cold hint paths, and `FsPageService` open/read
//! against it, asserting the recovery contract: no panic, no hang (a
//! simulated-time budget), §3.3-audit-clean repairs, fixed-point
//! re-scavenge, and byte-stable surviving files.
//!
//! ```text
//! cargo run -p alto-bench --release --bin fuzz -- --count 10000
//! cargo run -p alto-bench --release --bin fuzz -- --corpus crates/fs/tests/corpus
//! ```
//!
//! Failures are minimized (greedy drop-one over the edit list) and dumped
//! as corpus-format case files into `--out` (default `fuzz-failures/`),
//! ready to be checked into `crates/fs/tests/corpus/`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use alto_disk::Disk;
use alto_fs::file::{unpack_bytes, PAGE_BYTES};
use alto_fs::hostile::{self, Case, Survivor};
use alto_fs::FileSystem;
use alto_net::server::{PageRequest, PageStore};
use alto_os::FsPageService;

// lint: allow(thread-discipline) — a panic hook receives no state of its
// own, so this slot is where it leaves the message for the fuzz loop
thread_local! {
    /// The last panic's message + location, captured by our quiet hook.
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn install_quiet_panic_hook() {
    panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let at = info
            .location()
            .map_or(String::new(), |l| format!(" at {}:{}", l.file(), l.line()));
        LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("panic: {msg}{at}")));
    }));
}

/// The `FsPageService` consistency check: every unambiguous root-level
/// survivor must open by name and serve exactly the bytes `read_file`
/// returned — cold (guessed hints) and then warm (learned hints).
fn service_check<D: Disk>(fs: &mut FileSystem<D>, survivors: &[Survivor]) -> Result<(), String> {
    // Open-by-name is case-insensitive and picks the first match, so a
    // hostile directory holding several entries with the same folded name
    // is inherently ambiguous: skip those.
    let mut counts: HashMap<String, usize> = HashMap::new();
    for s in survivors.iter().filter(|s| s.in_root) {
        *counts.entry(s.path.to_ascii_lowercase()).or_default() += 1;
    }
    let mut service = FsPageService::new(fs);
    for s in survivors.iter().filter(|s| s.in_root) {
        if s.file.is_directory() || counts[&s.path.to_ascii_lowercase()] > 1 {
            continue;
        }
        let Some(want) = &s.bytes else { continue };
        let info = service
            .open(&s.path)
            .map_err(|status| format!("service open of {:?} failed: status {status}", s.path))?;
        if info.last_len as usize > PAGE_BYTES {
            return Err(format!(
                "service open of {:?} reports last_len {} > a page",
                s.path, info.last_len
            ));
        }
        let served_len = (info.pages as usize - 1) * PAGE_BYTES + info.last_len as usize;
        if served_len != want.len() {
            return Err(format!(
                "service length of {:?} is {served_len}, read_file returned {}",
                s.path,
                want.len()
            ));
        }
        let reqs: Vec<PageRequest> = (1..=info.pages)
            .map(|page| PageRequest {
                open_id: info.open_id,
                page,
                tag: page as u32,
            })
            .collect();
        // Cold pass (guessed hints), then warm pass (learned hints): both
        // must deliver every page with the same bytes.
        for pass in ["cold", "warm"] {
            let mut got: Vec<Option<[u8; PAGE_BYTES]>> = vec![None; info.pages as usize];
            let mut failed = Vec::new();
            service.serve(&reqs, &mut failed, |tag, data| {
                got[tag as usize - 1] = Some(unpack_bytes(data));
            });
            if let Some((tag, status)) = failed.first() {
                return Err(format!(
                    "{pass} serve of {:?} failed: page {tag} status {status}",
                    s.path
                ));
            }
            let mut assembled = Vec::with_capacity(served_len);
            for (i, page) in got.iter().enumerate() {
                let Some(bytes) = page else {
                    return Err(format!(
                        "{pass} serve of {:?} never delivered page {}",
                        s.path,
                        i + 1
                    ));
                };
                let take = if i + 1 == info.pages as usize {
                    info.last_len as usize
                } else {
                    PAGE_BYTES
                };
                assembled.extend_from_slice(&bytes[..take]);
            }
            if assembled != *want {
                return Err(format!(
                    "{pass} serve of {:?} returned different bytes than read_file",
                    s.path
                ));
            }
        }
    }
    Ok(())
}

/// Runs one case with panics caught; returns the failure description.
fn run_caught(case: &Case) -> Result<(), String> {
    LAST_PANIC.with(|p| *p.borrow_mut() = None);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        hostile::run_case_with(case, service_check, service_check)
    }));
    match outcome {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(e),
        Err(_) => Err(LAST_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or_else(|| "panic: unknown".to_string())),
    }
}

/// Greedy drop-one minimization: repeatedly remove any single edit whose
/// removal keeps the case failing (any failure counts — the goal is the
/// smallest crasher, not a byte-identical message).
fn minimize(case: &Case, budget: &mut u32) -> Case {
    let mut best = case.clone();
    let mut improved = true;
    while improved && *budget > 0 {
        improved = false;
        for i in 0..best.edits.len() {
            if *budget == 0 {
                break;
            }
            let mut candidate = best.clone();
            candidate.edits.remove(i);
            *budget -= 1;
            if run_caught(&candidate).is_err() {
                best = candidate;
                improved = true;
                break;
            }
        }
    }
    best
}

struct Failure {
    seed: u64,
    minimized_error: String,
    file: PathBuf,
}

fn write_failure(out_dir: &Path, seed: u64, case: &Case, error: &str, min_error: &str) -> PathBuf {
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join(format!("seed-{seed}.case"));
    let mut text = String::new();
    text.push_str(&format!("# sweep seed {seed}\n"));
    for line in error.lines() {
        text.push_str(&format!("# fails: {line}\n"));
    }
    if min_error != error {
        for line in min_error.lines() {
            text.push_str(&format!("# minimized fails: {line}\n"));
        }
    }
    text.push_str(&case.to_text());
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// A rough class signature for deduplicating failures in the report: the
/// failure text with digits and addresses collapsed.
fn signature(error: &str) -> String {
    let first = error.lines().next().unwrap_or("");
    first
        .chars()
        .map(|c| if c.is_ascii_digit() { '#' } else { c })
        .collect()
}

fn replay_corpus(dir: &Path) -> Result<u32, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    let mut failures = 0u32;
    for path in &entries {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case =
            Case::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        match run_caught(&case) {
            Ok(()) => println!("corpus {} .. ok", path.display()),
            Err(e) => {
                failures += 1;
                println!("corpus {} .. FAILED\n    {e}", path.display());
            }
        }
    }
    println!("corpus: {} cases, {} failures", entries.len(), failures);
    Ok(failures)
}

fn main() -> ExitCode {
    let mut count: u64 = 10_000;
    let mut seed: u64 = 0xA170_5EED;
    let mut corpus: Vec<PathBuf> = Vec::new();
    let mut out_dir = PathBuf::from("fuzz-failures");
    let mut json_path: Option<PathBuf> = None;
    let mut do_minimize = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--count" => count = value("--count").parse().expect("bad --count"),
            "--seed" => seed = value("--seed").parse().expect("bad --seed"),
            "--corpus" => corpus.push(PathBuf::from(value("--corpus"))),
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--json" => json_path = Some(PathBuf::from(value("--json"))),
            "--no-minimize" => do_minimize = false,
            other => {
                eprintln!(
                    "unknown argument {other}\nusage: fuzz [--count N] [--seed S] \
                     [--corpus DIR]... [--out DIR] [--json FILE] [--no-minimize]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    install_quiet_panic_hook();
    let start = Instant::now();

    // Corpus replay mode: no sweep, exercise every checked-in case.
    if !corpus.is_empty() {
        let mut failures = 0u32;
        for dir in &corpus {
            match replay_corpus(dir) {
                Ok(n) => failures += n,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut failures: Vec<Failure> = Vec::new();
    let mut seen_signatures: HashMap<String, u32> = HashMap::new();
    for i in 0..count {
        let case_seed = seed.wrapping_add(i);
        let case = match hostile::random_case(case_seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("seed {case_seed}: case derivation failed: {e}");
                failures.push(Failure {
                    seed: case_seed,
                    minimized_error: e,
                    file: PathBuf::new(),
                });
                continue;
            }
        };
        if let Err(error) = run_caught(&case) {
            let sig = signature(&error);
            let repeats = seen_signatures.entry(sig).or_insert(0);
            *repeats += 1;
            // Minimize and dump the first few of each failure class; count
            // the rest.
            let (min_case, min_error) = if do_minimize && *repeats <= 3 {
                let mut budget = 200u32;
                let m = minimize(&case, &mut budget);
                let me = run_caught(&m).err().unwrap_or_else(|| error.clone());
                (m, me)
            } else {
                (case.clone(), error.clone())
            };
            let file = if *repeats <= 3 {
                write_failure(&out_dir, case_seed, &min_case, &error, &min_error)
            } else {
                PathBuf::new()
            };
            eprintln!(
                "seed {case_seed} ({:?}, {} edits): {error}",
                case.base,
                case.edits.len()
            );
            failures.push(Failure {
                seed: case_seed,
                minimized_error: min_error,
                file,
            });
        }
        if (i + 1) % 1000 == 0 {
            println!(
                "{}/{count} mutants, {} failures, {:.1}s",
                i + 1,
                failures.len(),
                start.elapsed().as_secs_f64()
            );
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "sweep: {count} mutants from seed {seed:#x}, {} failures, {elapsed:.1}s",
        failures.len()
    );
    for (sig, n) in &seen_signatures {
        println!("  {n:5}x {sig}");
    }

    if let Some(path) = json_path {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"count\": {count},\n"));
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str(&format!("  \"failures\": {},\n", failures.len()));
        json.push_str(&format!("  \"elapsed_secs\": {elapsed:.3},\n"));
        json.push_str("  \"failing_seeds\": [");
        let seeds: Vec<String> = failures.iter().map(|f| f.seed.to_string()).collect();
        json.push_str(&seeds.join(", "));
        json.push_str("],\n  \"classes\": [\n");
        let classes: Vec<String> = seen_signatures
            .iter()
            .map(|(sig, n)| format!("    {{\"count\": {n}, \"signature\": {sig:?}}}"))
            .collect();
        json.push_str(&classes.join(",\n"));
        json.push_str("\n  ]\n}\n");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    // Keep the detailed failure list greppable in the log.
    for f in &failures {
        if !f.file.as_os_str().is_empty() {
            println!(
                "failing seed {} -> {} ({})",
                f.seed,
                f.file.display(),
                f.minimized_error.lines().next().unwrap_or("")
            );
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
