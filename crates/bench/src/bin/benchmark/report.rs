//! The metric table, the result line every run ends with, and
//! `benchmark compare`.

use alto_disk::DriveStats;
use alto_fs::CacheStats;

use crate::probe::Layer;
use crate::stats::{median, quartiles, ratio, spread};
use crate::workloads::Outcome;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, mirrored in the repository's `BENCHMARK.json`.
pub const END_TO_END: [Spec; 6] = [
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Spec {
        name: "wall_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Spec {
        name: "sim_ops_per_s",
        unit: "ops/sim-s",
        better: Better::Higher,
        bound: 0.03,
    },
    Spec {
        name: "sim_lat_p50_ms",
        unit: "sim-ms",
        better: Better::Lower,
        bound: 0.03,
    },
    Spec {
        name: "sim_lat_p99_ms",
        unit: "sim-ms",
        better: Better::Lower,
        bound: 0.03,
    },
    Spec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub fn spec(metric: &str) -> Option<&'static Spec> {
    // Keys of an all-workload run carry a `workload.` prefix.
    let base = metric.rsplit('.').next().unwrap_or(metric);
    END_TO_END.iter().find(|s| s.name == base)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The result object a run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Summary {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_json(text: &str) -> Option<Summary> {
        let v = Json::parse(text)?;
        let metrics = match v.get("metrics")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(name, m)| {
                    Some(Metric {
                        name: name.clone(),
                        value: m.get("value")?.num()?,
                        unit: m.get("unit")?.str()?.to_string(),
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Summary {
            correct: matches!(v.get("correct")?, Json::Bool(true)),
            attempted: v.get("attempted")?.num()? as u64,
            failed: v.get("failed")?.num()? as u64,
            metrics,
        })
    }
}

/// A finite number as JSON; every digit the measurement has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Just enough JSON to read back result lines and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&b)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Json::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Json::Num)
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Option<Json> {
        let end = self.i + w.len();
        (self.s.get(self.i..end)? == w.as_bytes()).then(|| {
            self.i = end;
            v
        })
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i)?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            self.i += 4;
                            let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// The per-layer metrics of a traced run, from its totals and counters.
/// `untraced` is the same prefix run without tracing: it gives the
/// allocation count of the shipping program and the tracing overhead.
pub fn per_layer(traced: &Outcome, untraced: &Outcome) -> Vec<Metric> {
    let ops = traced.prefix.ops as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let mut m = Vec::new();
    for layer in Layer::ALL {
        let t = traced.layers.get(layer);
        let name = layer.name();
        m.push(Metric::new(
            format!("{name}.calls"),
            t.calls as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("{name}.wall_self_ns_per_op"),
            per_op(t.wall_self_ns),
            "ns/op",
        ));
        m.push(Metric::new(
            format!("{name}.sim_self_ns_per_op"),
            per_op(t.sim_self_ns),
            "sim-ns/op",
        ));
    }
    let c = &traced.counts;
    let d = |f: fn(&DriveStats) -> u64| f(&c.drive_after) - f(&c.drive_before);
    let t = |f: fn(&DriveStats) -> alto_sim::SimTime| {
        (f(&c.drive_after) - f(&c.drive_before)).as_nanos()
    };
    let cache = |f: fn(&CacheStats) -> u64| (f(&c.cache_after) - f(&c.cache_before)) as f64;
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    m.extend([
        count("disk.calls.do_op", c.disk_calls.do_op),
        count("disk.calls.do_batch", c.disk_calls.do_batch),
        count("disk.calls.do_batch_read", c.disk_calls.do_batch_read),
        count("disk.calls.do_batch_write", c.disk_calls.do_batch_write),
        Metric::new("disk.sector_ops_per_op", per_op(d(|s| s.ops)), "sectors/op"),
        Metric::new(
            "disk.batch_mean",
            ratio(d(|s| s.batched_ops) as f64, d(|s| s.batches) as f64),
            "ops/batch",
        ),
        Metric::new(
            "disk.chain_ratio",
            ratio(d(|s| s.chained_transfers) as f64, d(|s| s.ops) as f64),
            "ratio",
        ),
        Metric::new(
            "disk.seek_ns_per_op",
            per_op(t(|s| s.seek_time)),
            "sim-ns/op",
        ),
        Metric::new(
            "disk.rot_wait_ns_per_op",
            per_op(t(|s| s.rotational_wait)),
            "sim-ns/op",
        ),
        Metric::new(
            "disk.transfer_ns_per_op",
            per_op(t(|s| s.transfer_time)),
            "sim-ns/op",
        ),
        Metric::new(
            "disk.command_ns_per_op",
            per_op(t(|s| s.command_time)),
            "sim-ns/op",
        ),
        Metric::new(
            "disk.failed_checks_per_op",
            per_op(d(|s| s.failed_checks)),
            "checks/op",
        ),
        Metric::new(
            "disk.overlap_saved_ns_per_op",
            per_op(t(|s| s.overlap_saved)),
            "sim-ns/op",
        ),
        count("disk.threaded_batches", c.threaded_batches),
        Metric::new(
            "disk.readahead_hit_ratio",
            ratio(
                d(|s| s.readahead_hits) as f64,
                d(|s| s.readahead_prefetched) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "disk.wb_pages_per_drain",
            ratio(d(|s| s.wb_coalesced) as f64, d(|s| s.wb_drains) as f64),
            "pages/drain",
        ),
        count("disk.retries", d(|s| s.retries)),
        Metric::new(
            "core.diskless.reqs_per_serve",
            ratio(c.store.requests as f64, c.store.serves as f64),
            "reqs/serve",
        ),
        Metric::new(
            "core.diskless.hint_hit_ratio",
            ratio(c.fast_served as f64, (c.fast_served + c.slow_served) as f64),
            "ratio",
        ),
        count("core.diskless.opens", c.store.opens),
        Metric::new(
            "net.server.packets_per_op",
            per_op(c.server.packets),
            "pkts/op",
        ),
        count("net.server.batches", c.server.batches),
        count("net.server.errors", c.server.errors),
        count("net.server.send_failures", c.server.send_failures),
        Metric::new(
            "net.client.retransmits_per_op",
            per_op(c.retransmits),
            "pkts/op",
        ),
        Metric::new(
            "net.client.duplicates_per_op",
            per_op(c.duplicates),
            "pkts/op",
        ),
        Metric::new("net.ether.sent_per_op", per_op(c.ether_sent), "pkts/op"),
        count("net.ether.lost", c.ether_lost),
        Metric::new(
            "fs.cache.name_hit_ratio",
            ratio(
                cache(|s| s.name_hits),
                cache(|s| s.name_hits) + cache(|s| s.name_misses),
            ),
            "ratio",
        ),
        Metric::new(
            "fs.cache.leader_hit_ratio",
            ratio(
                cache(|s| s.leader_hits),
                cache(|s| s.leader_hits) + cache(|s| s.leader_misses),
            ),
            "ratio",
        ),
        Metric::new(
            "fs.cache.invalidations_per_op",
            ratio(cache(|s| s.invalidations), ops),
            "inval/op",
        ),
        count("fs.scavenge.repairs", c.repairs),
        Metric::new(
            "host.allocs_per_op",
            ratio(untraced.prefix.allocs as f64, untraced.prefix.ops as f64),
            "allocs/op",
        ),
        Metric::new(
            "host.trace_overhead",
            if untraced.prefix.wall_ns == 0 {
                0.0
            } else {
                traced.prefix.wall_ns as f64 / untraced.prefix.wall_ns as f64 - 1.0
            },
            "ratio",
        ),
    ]);
    m
}

/// The names [`per_layer`] reports, in order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<String> {
    per_layer(&Outcome::default(), &Outcome::default())
        .into_iter()
        .map(|m| m.name)
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    /// The baseline's own spread exceeds the bound, so the change cannot
    /// be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(spec: &Spec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = ratio(mb - ma, ma.abs());
    let worse = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let v = if spread(a) > spec.bound {
        Verdict::Unresolved
    } else if worse > spec.bound {
        Verdict::Worse
    } else if -worse > spec.bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (change, v)
}

/// Reads the result line (the last line that parses) of each saved run.
pub fn load(paths: &[String]) -> Result<Vec<Summary>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            parse_run(&text).ok_or_else(|| format!("{p}: no result line"))
        })
        .collect()
}

/// The result of one saved run. A single-workload run's metrics take the
/// workload's name, which its first line begins with, as a prefix, so runs
/// of different workloads never share a row.
fn parse_run(text: &str) -> Option<Summary> {
    let mut s = text.lines().rev().find_map(Summary::from_json)?;
    let workload = text
        .split_whitespace()
        .next()
        .filter(|w| crate::workloads::Workload::parse(w).is_some());
    if let Some(w) = workload {
        for m in s.metrics.iter_mut().filter(|m| !m.name.contains('.')) {
            m.name = format!("{w}.{}", m.name);
        }
    }
    Some(s)
}

/// `benchmark compare A… --vs B…`: one row per end-to-end metric present
/// in both sets. Returns the table and whether any row is worse or
/// unresolved.
pub fn compare(a: &[Summary], b: &[Summary]) -> (String, bool) {
    let values = |runs: &[Summary], name: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == name).map(|m| m.value))
            .collect()
    };
    let mut names: Vec<&str> = Vec::new();
    for m in a.iter().flat_map(|r| &r.metrics) {
        if spec(&m.name).is_some() && !names.contains(&m.name.as_str()) {
            names.push(&m.name);
        }
    }
    let mut out = format!(
        "{:<34} {:>16} {:>16} {:>9} {:>9} {:>7}  verdict\n",
        "metric", "median A", "median B", "IQR A", "change", "bound"
    );
    let mut flagged = false;
    for name in names {
        let (va, vb) = (values(a, name), values(b, name));
        if vb.is_empty() {
            continue;
        }
        let s = spec(name).expect("filtered to specified metrics");
        let (q1, q3) = quartiles(&va);
        let (change, v) = verdict(s, &va, &vb);
        flagged |= matches!(v, Verdict::Worse | Verdict::Unresolved);
        out.push_str(&format!(
            "{:<34} {:>16.4} {:>16.4} {:>8.2}% {:>+8.2}% {:>6.1}%  {}\n",
            name,
            median(&va),
            median(&vb),
            100.0 * ratio(q3 - q1, median(&va).abs()),
            100.0 * change,
            100.0 * s.bound,
            v.name()
        ));
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(wall: f64, p99: f64) -> Summary {
        Summary {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("serve_fleet.wall_ops_per_s", wall, "ops/s"),
                Metric::new("serve_fleet.sim_lat_p99_ms", p99, "sim-ms"),
            ],
        }
    }

    #[test]
    fn result_lines_round_trip() {
        let r = Summary {
            correct: true,
            attempted: 1000,
            failed: 2,
            metrics: vec![
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("a\"b", 0.000_001_5, "ops/s"),
            ],
        };
        let line = r.to_json();
        assert_eq!(Summary::from_json(&line), Some(r));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 2"));
    }

    #[test]
    fn the_metric_table_matches_benchmark_json() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(e2e)) = json.get("end_to_end") else {
            panic!("no end_to_end list");
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(entry.get("name").and_then(Json::str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Json::str), Some(spec.unit));
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Json::str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::num), Some(spec.bound));
        }
        let Some(Json::Arr(layers)) = json.get("per_layer") else {
            panic!("no per_layer list");
        };
        let names: Vec<&str> = layers
            .iter()
            .filter_map(|l| l.get("name").and_then(Json::str))
            .collect();
        assert_eq!(names, per_layer_names());
    }

    #[test]
    fn saved_runs_name_their_workload() {
        let line = run(1.0, 2.0).to_json();
        let single = line.replace("serve_fleet.", "");
        let text = format!("file_edit seed 3: an op is one page streamed\n{single}\n");
        let names: Vec<String> = parse_run(&text)
            .unwrap()
            .metrics
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            ["file_edit.wall_ops_per_s", "file_edit.sim_lat_p99_ms"]
        );
        // An all-workload run's names already carry their workloads.
        let all = format!("serve_fleet seed 3: ...\n{line}\n");
        assert_eq!(parse_run(&all), Some(run(1.0, 2.0)));
        assert_eq!(parse_run("no result here"), None);
    }

    #[test]
    fn compare_gives_each_verdict() {
        let base = [run(100.0, 5.0), run(101.0, 5.0), run(99.0, 5.0)];
        let same = [run(100.5, 5.0), run(99.5, 5.0)];
        let (table, flagged) = compare(&base, &same);
        assert!(!flagged, "{table}");
        assert_eq!(table.matches("within").count(), 2, "{table}");

        let slower = [run(70.0, 5.2), run(71.0, 5.2)];
        let (table, flagged) = compare(&base, &slower);
        assert!(flagged);
        assert_eq!(table.matches("worse").count(), 2, "{table}");

        let faster = [run(130.0, 4.0)];
        assert_eq!(compare(&base, &faster).0.matches("better").count(), 2);

        let noisy = [run(50.0, 5.0), run(100.0, 5.0), run(150.0, 5.0)];
        let (table, flagged) = compare(&noisy, &same);
        assert!(flagged);
        assert!(table.contains("unresolved"), "{table}");
    }
}
