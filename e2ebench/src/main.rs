//! End-to-end benchmark of `v6census`: the supervised census over day
//! files and the serve daemon under an open-loop query stream, driven
//! from outside through public functions only.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload census-batch|serve-query|serve-follow \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     saturate [--seed N] [--seconds S]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics and write their spans to
//! `.bench_trace/<workload>.jsonl`. Every run checks the program's
//! outputs; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when any check failed. `saturate` measures the daemon's
//! closed-loop request rate, from which the fixed query rates were set.
//! See `METHODOLOGY.md`.

mod census_batch;
mod inputs;
mod layers;
mod loadgen;
mod oracle;
mod probe;
mod serve;
mod stats;
mod trace;

use oracle::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Setup repetitions in an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The default workload seed.
const DEFAULT_SEED: u64 = 0x76c3_15c3_0001;

/// The synth population scale of every workload.
const SCALE: f64 = 0.25;

/// The workloads.
const WORKLOADS: [&str; 3] = ["census-batch", "serve-query", "serve-follow"];

/// End-to-end metrics (untraced runs), with units. The workload's
/// operation latency is gated at its median: on a shared 2-CPU box the
/// higher percentiles rest on neighbours' load phases and scheduling
/// stalls and do not repeat from run to run (see METHODOLOGY.md).
const END_TO_END: [(&str, &str); 3] = [
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("vfs.read_ms", "ms"),
    ("vfs.read_bytes", "bytes"),
    ("vfs.write_ms", "ms"),
    ("vfs.write_bytes", "bytes"),
    ("vfs.fsyncs", "count"),
    ("addr.parse_ns", "ns"),
    ("addr.parse_allocs", "count"),
    ("stream.parse_file_ms", "ms"),
    ("stream.lines_per_s", "1/s"),
    ("stream.allocs_per_line", "count"),
    ("ingest.summary_ms", "ms"),
    ("ingest.commit_ms", "ms"),
    ("supervisor.ingest_ms", "ms"),
    ("supervisor.table1_ms", "ms"),
    ("supervisor.stability_ms", "ms"),
    ("supervisor.densify_ms", "ms"),
    ("supervisor.retried", "count"),
    ("supervisor.excluded", "count"),
    ("tables.table1_ms", "ms"),
    ("temporal.stable_on_ms", "ms"),
    ("temporal.stable_on_calls", "count"),
    ("trie.build_ms", "ms"),
    ("trie.densify_ms", "ms"),
    ("trie.nodes", "count"),
    ("query.profile_narrow_ms", "ms"),
    ("query.profile_wide_ms", "ms"),
    ("query.members", "count"),
    ("snapshot.clone_ms", "ms"),
    ("snapshot.build_ms", "ms"),
    ("snapshot.publish_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.accepted", "count"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.bad_queries", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.self_sum_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A metric's value, `0.0` when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `op_p50_ms` from the workload's operation latencies, and
    /// notes the sample count, the mean, p90 and the highest percentile
    /// with at least ten samples beyond it.
    pub fn e2e_timing(&mut self, samples: &[f64], what: &str) {
        let p50 = stats::median(samples).unwrap_or(0.0);
        let p90 = stats::percentile(samples, 90.0).unwrap_or(0.0);
        let (tail, which) = stats::tail(samples).unwrap_or((0.0, "max"));
        self.set("op_p50_ms", p50);
        self.notes.push(format!(
            "{what}: n={} mean={:.3}ms p50={p50:.3}ms p90={p90:.3}ms {which}={tail:.3}ms",
            samples.len(),
            stats::mean(samples)
        ));
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_seed(value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; expected 0 or 1")),
                }
            }
            "--out" => {}
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn flag_value<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

/// Modes in which this binary runs as a child of a workload run.
const CHILD_MODES: [&str; 4] = ["setup", "oracle", "census-run", "warm"];

/// The input child modes: `setup` writes the day files, `oracle` the
/// expected census products, both under `--out`.
fn child_mode(mode: &str, argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let out = PathBuf::from(flag_value(argv, "--out").ok_or("--out is required")?);
    match mode {
        "setup" => inputs::generate(args.seed, SCALE, &out).map(|_| ()),
        _ => oracle::Expected::from_world(args.seed, SCALE).write(&out),
    }
}

/// The run's private directory under `.bench_work`, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    match args.workload.as_str() {
        "census-batch" => census_batch::run(args, &work.0),
        "serve-query" => serve::query(args, &work.0),
        "serve-follow" => serve::follow(args, &work.0),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

/// The result line: exactly the metrics of the run's kind, each with
/// its unit, unset ones as 0.
fn result_json(out: &Outcome, traced: bool) -> String {
    let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = out.get(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.tally.failed == 0,
        out.tally.attempted.max(1),
        out.tally.failed
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode) = argv.first().filter(|m| CHILD_MODES.contains(&m.as_str())) {
        let rest = &argv[1..];
        let result = match mode.as_str() {
            "census-run" => census_batch::child(rest),
            "warm" => serve::warm_child(rest),
            _ => child_mode(mode, rest).map(|()| String::new()),
        };
        match result {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("e2ebench {mode}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("saturate") {
        let result = parse_args(&argv[1..]).and_then(|args| {
            let work =
                WorkDir(Path::new(".bench_work").join(format!("saturate-{}", std::process::id())));
            serve::saturate(&args, &work.0)
        });
        match result {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("e2ebench saturate: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "e2ebench: --workload must be one of {WORKLOADS:?}, got {:?}",
                a.workload
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let t = &out.tally;
    let ratio = t.failed as f64 / t.attempted.max(1) as f64;
    out.notes.push(format!(
        "failed_ratio: {ratio} ({} of {} operations)",
        t.failed, t.attempted
    ));
    for note in &out.tally.notes {
        eprintln!("check failed: {note}");
    }
    println!(
        "{} seed={:#x} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in list {
        println!("  {name:<26} {:>16.4} {unit}", out.get(name));
    }
    println!("{}", result_json(&out, args.trace));
    if out.tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")));
        }
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut out = Outcome::default();
        out.tally.check(true, String::new);
        out.set("op_p50_ms", 1.25);
        let line = result_json(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        let traced = result_json(&out, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn arguments() {
        let argv: Vec<String> = [
            "--workload",
            "serve-query",
            "--seed",
            "0x10",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-query", 16, 3, true)
        );
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string(), "1".to_string()]).is_err());
        assert!(parse_args(&["--trace".to_string(), "yes".to_string()]).is_err());
        assert_eq!(parse_seed("42"), Some(42));
    }
}
