//! `census-batch`: the paper's batch job. One supervised census at CLI
//! defaults (jobs 1, reference 2015-03-17, 3d-stable, 8@/64, no
//! checkpoint) over the 15 day files, repeated for the run's duration.
//! The traced run replays the same pipeline through the public
//! per-layer calls with spans around each.

use crate::inputs;
use crate::oracle::{self, Expected};
use crate::probe::{self, CountingFs};
use crate::trace::Tracer;
use crate::{layers, Args, Outcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use v6census_census::stream::{IngestError, StreamIngestor};
use v6census_census::supervisor::{run_census, PipelineConfig, SupervisedRun};
use v6census_census::tables::{self, EpochSpec};
use v6census_census::{Census, IngestConfig};
use v6census_core::vfs::{RealFs, Vfs};
use v6census_trie::RadixTree;

/// The census configuration: CLI defaults with the reference day set.
fn config() -> PipelineConfig {
    PipelineConfig {
        reference: Some(inputs::reference_day()),
        ..PipelineConfig::default()
    }
}

/// The report a user reads: health, manifest and analysis sections, in
/// the shape `v6census census` prints them.
fn render(run: &SupervisedRun) -> String {
    let mut out = run.report.health_report();
    out.push_str(&run.manifest.render());
    if let Some(t) = run.table1.as_ref().and_then(|t| t.value.as_ref()) {
        out.push_str(t);
    }
    if let Some(v) = run.stability.as_ref().and_then(|s| s.value.as_ref()) {
        let _ = writeln!(out, "stable: {}", v.stable.len());
    }
    if let Some(d) = &run.dense {
        for dp in d.value.iter().take(12) {
            let _ = writeln!(out, "  {:<28} {:>10}", dp.prefix.to_string(), dp.count);
        }
    }
    out
}

/// One timed census: `run_census` plus the report render.
fn timed_census(dir: &Path) -> (f64, Result<SupervisedRun, IngestError>) {
    let t0 = Instant::now();
    let run = run_census(dir, &config());
    if let Ok(r) = &run {
        std::hint::black_box(render(r));
    }
    (t0.elapsed().as_secs_f64() * 1e3, run)
}

/// Sorted day files under `dir`.
pub fn day_files(dir: &Path) -> Vec<PathBuf> {
    let first = inputs::first_day();
    (0..inputs::DAYS as i32)
        .map(|i| inputs::day_file(dir, first + i))
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let days = work.join("days");
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let mut setups = Vec::new();
    for _ in 0..reps {
        setups.push(inputs::timed_generate(args.seed, &days)?);
    }
    let expected = inputs::expected(args.seed, &work.join("expected"))?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &days, &expected, &mut out)?;
        return Ok(out);
    }

    let exp_dir = work.join("expected");
    let t0 = Instant::now();
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    while walls.len() < 3 || t0.elapsed() < args.window() {
        let line = inputs::run_child("census-run", &[days.as_os_str(), exp_dir.as_os_str()])?;
        let r = RunResult::parse(&line).ok_or_else(|| format!("bad census-run output {line:?}"))?;
        walls.push(r.wall_ms);
        peaks.push(r.peak_rss_mb);
        out.tally.attempted += r.attempted;
        out.tally.failed += r.failed;
    }
    out.e2e_timing(&walls, "census run (run_census + render), one process each");
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.0}")).collect();
    out.notes
        .push(format!("census runs (ms): {}", each.join(" ")));
    out.set("setup_s", crate::stats::median(&setups).unwrap_or(0.0));
    out.set("peak_rss_mb", crate::stats::median(&peaks).unwrap_or(0.0));
    Ok(out)
}

/// What one `census-run` child reports.
struct RunResult {
    wall_ms: f64,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
}

impl RunResult {
    fn parse(line: &str) -> Option<RunResult> {
        let mut f = line.split_whitespace();
        Some(RunResult {
            wall_ms: f.next()?.parse().ok()?,
            attempted: f.next()?.parse().ok()?,
            failed: f.next()?.parse().ok()?,
            peak_rss_mb: f.next()?.parse().ok()?,
        })
    }
}

/// The `census-run DAYS EXPECTED` child: one census in a fresh process,
/// as a user runs it. Prints `wall_ms attempted failed peak_rss_mb`;
/// the peak is read before the output check allocates anything.
pub fn child(argv: &[String]) -> Result<String, String> {
    let [days, expected] = argv else {
        return Err("usage: census-run DAYS EXPECTED".into());
    };
    let exp = Expected::read(Path::new(expected))?;
    let (ms, run) = timed_census(Path::new(days));
    let peak = probe::peak_rss_mb();
    let t = oracle::check_census(&run, &exp, inputs::DAYS as usize);
    for note in &t.notes {
        eprintln!("check failed: {note}");
    }
    Ok(format!("{ms} {} {} {peak}", t.attempted, t.failed))
}

/// What one serial replay of the census pipeline produced.
struct Replay {
    wall_ms: f64,
    table1: String,
    stable: String,
    dense: String,
    nodes: usize,
    parse_allocs: u64,
    lines: usize,
}

/// The census pipeline replayed serially through the public per-layer
/// calls, each inside a span of `t`: `parse_file` per file (reading
/// through `vfs`), `commit_parsed`, `table1` + render,
/// `stable_on_gapped`, and the trie build + densify.
fn replay(days: &Path, t: &Tracer, vfs: Arc<dyn Vfs>) -> Result<Replay, String> {
    let ingestor = StreamIngestor::new(IngestConfig {
        vfs,
        ..IngestConfig::default()
    });
    let reference = inputs::reference_day();
    let cfg = config();
    let (mut parse_allocs, mut lines) = (0, 0);
    let mut census = Census::new_empty();
    let t0 = Instant::now();
    let (table1, verdict, dense, nodes) = t.span("census", Some(0), || -> Result<_, String> {
        let mut parsed = Vec::new();
        for (i, path) in day_files(days).iter().enumerate() {
            let a0 = probe::allocs();
            let p = t.span("stream.parse_file", Some(i as u64), || {
                ingestor.parse_file(path)
            });
            parse_allocs += probe::allocs() - a0;
            let p = p.map_err(|e| e.to_string())?;
            lines += p.report.data_lines;
            parsed.push(p);
        }
        let mut ingested = Vec::new();
        for (i, p) in parsed.into_iter().enumerate() {
            t.span("ingest.commit", Some(i as u64), || {
                ingestor.commit_parsed(p, &mut census, &mut ingested)
            })
            .map_err(|e| e.to_string())?;
        }
        let spec = [EpochSpec {
            label: "reference",
            reference,
        }];
        let table1 = t.span("tables.table1", None, || {
            tables::table1(&census, &spec).0.render()
        });
        let verdict = t.span("temporal.stable_on", None, || {
            census
                .other_daily()
                .stable_on_gapped(reference, &cfg.params, cfg.gap_policy)
        });
        let active = census.other_daily().on(reference);
        let mut tree = RadixTree::new();
        t.span("trie.build", None, || {
            for a in active.iter() {
                tree.insert_addr(a, 1);
            }
        });
        let nodes = tree.node_count();
        let dense = t.span("trie.densify", None, || {
            tree.densify_budgeted(cfg.dense_n, cfg.dense_p, 0).dense
        });
        Ok((table1, verdict, dense, nodes))
    })?;
    Ok(Replay {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        table1,
        stable: oracle::stable_text(&verdict.stable),
        dense: oracle::dense_text(&dense),
        nodes,
        parse_allocs,
        lines,
    })
}

/// Alternating untraced and traced replays in a traced run; the
/// tracing overhead compares their medians.
const REPLAY_PAIRS: usize = 3;

/// The traced run: in-process censuses for the manifest's stage times,
/// then alternating untraced and traced serial replays of the same
/// pipeline (the overhead baseline and the spans), then probes.
fn traced(args: &Args, days: &Path, exp: &Expected, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..2 {
        let (_, run) = timed_census(days);
        out.tally
            .merge(oracle::check_census(&run, exp, inputs::DAYS as usize));
        if let Ok(run) = &run {
            for stage in &run.manifest.stages {
                let key = match stage.stage.as_str() {
                    "ingest" => "supervisor.ingest_ms",
                    "table1" => "supervisor.table1_ms",
                    "stability" => "supervisor.stability_ms",
                    "densify" => "supervisor.densify_ms",
                    _ => continue,
                };
                out.set(key, stage.wall_millis as f64);
            }
            let stages = &run.manifest.stages;
            out.set(
                "supervisor.retried",
                stages.iter().map(|s| s.retried()).sum::<usize>() as f64,
            );
            out.set(
                "supervisor.excluded",
                stages.iter().map(|s| s.excluded().len()).sum::<usize>() as f64,
            );
        }
    }

    let mut check = |r: &Replay| {
        let t = &mut out.tally;
        t.check(r.table1 == exp.table1, || "replayed Table 1 differs".into());
        t.check(r.stable == exp.stable, || {
            "replayed stable set differs".into()
        });
        t.check(r.dense == exp.dense, || {
            "replayed dense list differs".into()
        });
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..REPLAY_PAIRS {
        let r = replay(days, &Tracer::off(), Arc::new(RealFs))?;
        check(&r);
        untraced.push(r.wall_ms);
        let tracer = Tracer::new();
        let fs = CountingFs::new(Some(Arc::clone(&tracer)));
        let r = replay(days, &tracer, Arc::new(fs.clone()))?;
        check(&r);
        traced.push(r.wall_ms);
        last = Some((r, tracer, fs));
    }
    let (r, tracer, fs) = last.ok_or("no traced replay")?;

    let spans = tracer.spans();
    layers::span_metrics(out, &spans, &fs, r.lines);
    out.set(
        "stream.allocs_per_line",
        r.parse_allocs as f64 / r.lines.max(1) as f64,
    );
    out.set("temporal.stable_on_calls", 1.0);
    out.set("trie.nodes", r.nodes as f64);
    layers::overhead(out, &untraced, &traced);
    layers::parse_probe(out, &day_files(days))?;
    layers::write_trace(args, &spans)
}
