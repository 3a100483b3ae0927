//! The repository benchmark: four traffic workloads, end-to-end metrics in
//! simulated and host time, and an outside-in per-layer trace.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.json... --vs B.json...
//! ```
//!
//! With `--workload`, one workload runs in this process. Without it, every
//! workload runs in a child process of its own (own pools, own peak RSS)
//! and the results are printed together. Every run ends with one JSON
//! result line; `compare` reads saved runs back. See `README.md` beside
//! this file for the metrics, the workloads and why each was chosen.

mod probe;
mod report;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use probe::{Layer, Off, Tracer};
use report::{Metric, Summary};
use stats::{median, ratio, tail_percentile};
use workloads::{Plan, Workload};

// Counts heap allocations for `host.allocs_per_op`; delegates every call
// to `System` unchanged.
#[allow(unsafe_code)]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter bump has no
    // effect on the returned memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }
}

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Heap allocations so far, process-wide.
pub fn allocs() -> u64 {
    alloc_count::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Host seconds a run measures unless `--seconds` says otherwise.
const SECONDS: f64 = 20.0;

/// Host seconds a run spends setting up; `setup_s` is the median set-up.
const SETUP_SECONDS: f64 = 2.0;

/// Where a traced run writes its raw spans.
const SPANS_DIR: &str = "target/benchmark-spans";

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       benchmark compare A.json... --vs B.json...";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            o.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if alto_disk::Auditor::from_env().is_some() {
        eprintln!(
            "benchmark: ALTO_AUDIT is set; the auditor forces every batch onto the buffered \
             fallback path, so a run would not measure the shipping program"
        );
        return ExitCode::from(2);
    }
    let summary = match opts.workload {
        Some(w) if opts.trace => traced(w, &opts),
        Some(w) => untraced(w, &opts),
        None => all_workloads(&opts),
    };
    println!("{}", summary.to_json());
    if summary.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn e2e(name: &str, value: f64) -> Metric {
    let spec = report::spec(name).expect("an end-to-end metric");
    Metric::new(name, value, spec.unit)
}

/// The end-to-end run: the shipping program, untraced.
fn untraced(w: Workload, o: &Options) -> Summary {
    let shape = w.shape();
    let plan = Plan {
        seconds: o.seconds,
        setup_seconds: SETUP_SECONDS,
    };
    let out = workloads::run(w, &shape, o.seed, &plan, &Off);
    let mut errors = out.errors.clone();
    let (p, all) = (&out.prefix, &out.all);
    let n = p.latency.count();
    if tail_percentile(n) != Some(99.0) {
        errors.push(format!("{n} latency samples cannot support a p99"));
    }
    let ms = |q: f64| p.latency.percentile(q).unwrap_or(0.0) / 1e6;
    let metrics = vec![
        e2e("setup_s", median(&out.setup_s)),
        e2e("wall_ops_per_s", median(&all.rates)),
        e2e("sim_ops_per_s", ratio(p.ops as f64, p.sim_ns as f64 / 1e9)),
        e2e("sim_lat_p50_ms", ms(50.0)),
        e2e("sim_lat_p99_ms", ms(99.0)),
        e2e("peak_rss_mb", peak_rss_mb()),
    ];
    let notes = [
        format!("median of {} set-ups", out.setup_s.len()),
        format!(
            "median of {} rounds in {:.1} s",
            all.rounds,
            all.wall_ns as f64 / 1e9
        ),
        format!("{} ops in the first {} rounds", p.ops, p.rounds),
        format!("n={n}"),
        format!("n={n}"),
        "VmHWM".to_string(),
    ];
    println!("{} seed {}: an op is one {}", w.name(), o.seed, w.op());
    for (m, note) in metrics.iter().zip(&notes) {
        println!("  {:<16} {:>16.4} {:<10} {note}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<16} {:>16.4} {:<10} {} of {} attempted",
        "fail_frac",
        ratio(all.failed as f64, all.attempted as f64),
        "",
        all.failed,
        all.attempted
    );
    report_errors(&errors);
    Summary {
        correct: errors.is_empty(),
        attempted: all.attempted,
        failed: all.failed,
        metrics,
    }
}

/// The per-layer run: the fixed prefix untraced, then traced, on fresh
/// set-ups. The two must simulate the same thing bit for bit.
fn traced(w: Workload, o: &Options) -> Summary {
    let shape = w.shape();
    let plan = Plan {
        seconds: 0.0,
        setup_seconds: 0.0,
    };
    let plain = workloads::run(w, &shape, o.seed, &plan, &Off);
    let tracer = Tracer::new();
    let out = workloads::run(w, &shape, o.seed, &plan, &tracer);
    let mut errors = [plain.errors.clone(), out.errors.clone()].concat();
    if let Err(e) = workloads::same_simulation(&plain, &out) {
        errors.push(format!("tracing changed the simulation: {e}"));
    }
    let self_sim: u64 = Layer::ALL
        .iter()
        .map(|&l| out.layers.get(l).sim_self_ns)
        .sum();
    if self_sim != out.prefix.sim_ns {
        errors.push(format!(
            "simulated self times sum to {self_sim} ns, the run took {} ns",
            out.prefix.sim_ns
        ));
    }
    let metrics = report::per_layer(&out, &plain);
    println!(
        "{} seed {} traced: {} ops in {} rounds, {} simulated ns = sum of self times: {}",
        w.name(),
        o.seed,
        out.prefix.ops,
        out.prefix.rounds,
        out.prefix.sim_ns,
        self_sim == out.prefix.sim_ns
    );
    for m in &metrics {
        println!("  {:<34} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let path = Path::new(SPANS_DIR).join(format!("{}-seed{}.jsonl", w.name(), o.seed));
    match write_spans(&path, &tracer) {
        Ok(n) => println!("  wrote {n} spans of the first round to {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
    report_errors(&errors);
    Summary {
        correct: errors.is_empty(),
        attempted: out.prefix.attempted,
        failed: out.prefix.failed,
        metrics,
    }
}

fn write_spans(path: &Path, tracer: &Tracer) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let spans = tracer.raw();
    for s in &spans {
        writeln!(
            f,
            "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"callback\": {}, \
             \"wall_start_ns\": {}, \"wall_ns\": {}, \"sim_start_ns\": {}, \"sim_ns\": {}}}",
            s.id,
            s.parent,
            s.layer.name(),
            s.callback,
            s.wall_start_ns,
            s.wall_ns,
            s.sim_start_ns,
            s.sim_ns
        )?;
    }
    f.flush()?;
    Ok(spans.len())
}

fn report_errors(errors: &[String]) {
    for e in errors {
        println!("  CHECK FAILED: {e}");
    }
}

/// Every workload, each in a child process of its own.
fn all_workloads(o: &Options) -> Summary {
    let mut all = Summary {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find its own executable: {e}");
            all.correct = false;
            return all;
        }
    };
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                all.correct = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        match text.lines().rev().find_map(Summary::from_json) {
            Some(s) => {
                all.correct &= s.correct && out.status.success();
                all.attempted += s.attempted;
                all.failed += s.failed;
                all.metrics.extend(s.metrics.into_iter().map(|m| Metric {
                    name: format!("{}.{}", w.name(), m.name),
                    ..m
                }));
            }
            None => {
                eprintln!("benchmark: {} printed no result", w.name());
                all.correct = false;
            }
        }
    }
    all
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn compare(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--vs") else {
        eprintln!("benchmark: compare needs --vs\n{USAGE}");
        return ExitCode::from(2);
    };
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        eprintln!("benchmark: compare needs runs on both sides of --vs\n{USAGE}");
        return ExitCode::from(2);
    }
    let loaded = report::load(a).and_then(|a| Ok((a, report::load(b)?)));
    let (a, b) = match loaded {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (table, flagged) = report::compare(&a, &b);
    print!("{table}");
    if flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let o = parse(&args(
            "--workload file_edit --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::FileEdit));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 10.0, true));
        let o = parse(&args("--traced")).unwrap();
        assert!(o.trace && o.workload.is_none() && o.seed == 1);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}
