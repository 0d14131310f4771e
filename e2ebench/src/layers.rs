//! Per-layer metrics shared by the traced runs: span self times by
//! layer, vfs counters, the address-parse probe and the trie probe.

use crate::probe::{self, CountingFs};
use crate::stats::median;
use crate::trace::{self, Span};
use crate::{Args, Outcome};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;
use v6census_addr::Addr;
use v6census_census::stream::day_from_filename;
use v6census_census::DaySummary;
use v6census_core::spatial::DensityClass;
use v6census_trie::{AddrSet, RadixTree};

/// Span names whose summed self time is reported under the same name
/// with an `_ms` suffix.
const SELF_TIMED: [(&str, &str); 9] = [
    ("stream.parse_file", "stream.parse_file_ms"),
    ("ingest.commit", "ingest.commit_ms"),
    ("tables.table1", "tables.table1_ms"),
    ("temporal.stable_on", "temporal.stable_on_ms"),
    ("trie.build", "trie.build_ms"),
    ("trie.densify", "trie.densify_ms"),
    ("snapshot.clone", "snapshot.clone_ms"),
    ("snapshot.build", "snapshot.build_ms"),
    ("snapshot.publish", "snapshot.publish_ms"),
];

/// Sets the metrics that come from spans and the vfs counters.
pub fn span_metrics(out: &mut Outcome, spans: &[Span], fs: &CountingFs, lines: usize) {
    let totals = trace::by_name(spans);
    for (span, metric) in SELF_TIMED {
        if let Some(t) = totals.get(span) {
            out.set(metric, t.self_ns as f64 / 1e6);
        }
    }
    let io = &fs.io;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    out.set("vfs.read_ms", load(&io.read_ns) / 1e6);
    out.set("vfs.read_bytes", load(&io.read_bytes));
    out.set("vfs.write_ms", load(&io.write_ns) / 1e6);
    out.set("vfs.write_bytes", load(&io.write_bytes));
    out.set("vfs.fsyncs", load(&io.fsyncs));
    if let Some(t) = totals.get("stream.parse_file") {
        // Whole-span time, reads included: the rate a day file streams in.
        out.set(
            "stream.lines_per_s",
            lines as f64 / (t.total as f64 / 1e9).max(1e-9),
        );
    }
    coverage_metrics(out, spans);
}

/// Sets `trace.overhead_pct`: how much slower the traced runs of a
/// replay were than the untraced runs of the same replay, by median.
pub fn overhead(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    if let (Some(u), Some(t)) = (median(untraced_ms), median(traced_ms)) {
        out.set("trace.overhead_pct", (t - u) / u.max(1e-9) * 100.0);
    }
}

/// Sets `trace.*`: root wall time, the layers' summed self time, the
/// share of wall time no layer span explains, and the span count.
pub fn coverage_metrics(out: &mut Outcome, spans: &[Span]) {
    let (wall, layers) = trace::coverage(spans);
    out.set("trace.wall_ms", wall as f64 / 1e6);
    out.set("trace.self_sum_ms", layers as f64 / 1e6);
    out.set(
        "trace.unattributed_pct",
        wall.saturating_sub(layers) as f64 / wall.max(1) as f64 * 100.0,
    );
    out.set("trace.spans", spans.len() as f64);
}

/// The `addr` and `ingest` probe over every address column of the
/// inputs: `str::parse::<Addr>` time and allocations per address, and
/// `DaySummary::from_entries` time on the parsed entries.
pub fn parse_probe(out: &mut Outcome, files: &[PathBuf]) -> Result<(), String> {
    let (mut n, mut parse_ns, mut allocs, mut summary_ns) = (0u64, 0u64, 0u64, 0u64);
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let day = path
            .file_name()
            .and_then(|n| day_from_filename(&n.to_string_lossy()))
            .ok_or_else(|| format!("{}: no day in name", path.display()))?;
        let cols: Vec<(&str, u64)> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let mut c = l.split_whitespace();
                let addr = c.next().unwrap_or("");
                (addr, c.next().and_then(|h| h.parse().ok()).unwrap_or(1))
            })
            .collect();
        let mut entries: Vec<(Addr, u64)> = Vec::with_capacity(cols.len());
        let a0 = probe::allocs();
        let t0 = Instant::now();
        for &(s, hits) in &cols {
            if let Ok(a) = s.parse::<Addr>() {
                entries.push((a, hits));
            }
        }
        parse_ns += t0.elapsed().as_nanos() as u64;
        allocs += probe::allocs() - a0;
        n += cols.len() as u64;
        let t0 = Instant::now();
        std::hint::black_box(DaySummary::from_entries(day, entries.iter().copied()));
        summary_ns += t0.elapsed().as_nanos() as u64;
    }
    let n = n.max(1) as f64;
    out.set("addr.parse_ns", parse_ns as f64 / n);
    out.set("addr.parse_allocs", allocs as f64 / n);
    out.set("ingest.summary_ms", summary_ns as f64 / 1e6);
    Ok(())
}

/// The `trie` probe: `insert_addr` + `densify_budgeted` (at the
/// daemon's density class, unbudgeted) over one day's active set.
pub fn trie_probe(out: &mut Outcome, active: &AddrSet, class: DensityClass) {
    let t0 = Instant::now();
    let mut tree = RadixTree::new();
    for a in active.iter() {
        tree.insert_addr(a, 1);
    }
    let built = t0.elapsed();
    out.set("trie.nodes", tree.node_count() as f64);
    let t0 = Instant::now();
    std::hint::black_box(tree.densify_budgeted(class.n, class.p, 0));
    out.set("trie.build_ms", built.as_secs_f64() * 1e3);
    out.set("trie.densify_ms", t0.elapsed().as_secs_f64() * 1e3);
}

/// Writes the spans as JSON lines to `.bench_trace/<workload>.jsonl`.
pub fn write_trace(args: &Args, spans: &[Span]) -> Result<(), String> {
    let dir = Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.jsonl", args.workload));
    std::fs::write(&path, trace::to_json_lines(spans))
        .map_err(|e| format!("{}: {e}", path.display()))
}
