//! Benchmarks the supervised census pipeline at `--jobs` ∈ {1, 2, 4, 8}
//! on a fixed synthetic world, verifying on the way that every parallel
//! run is equivalent to the serial one, and emits a
//! `BENCH_supervisor.json` point so later PRs can track the
//! parallel-speedup trajectory. The JSON is written to the repository
//! root unconditionally; CI uploads it as an artifact and commits
//! track it as the baseline.
//!
//! `BENCH_QUICK=1` trims samples for CI smoke runs.

use std::fmt::Write as _;
use v6census_bench::{samples, time_ms, Opts};
use v6census_census::supervisor::{run_census, PipelineConfig};
use v6census_synth::world::epochs;
use v6census_synth::{FaultInjector, FaultSpec};

/// The `cpus` value recorded in an existing baseline JSON, if any —
/// parsed textually so the guard needs no JSON dependency.
fn baseline_cpus(json: &str) -> Option<usize> {
    let rest = json.split("\"cpus\":").nth(1)?;
    rest.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    // `--force` is ours, not `Opts`'s (whose parser aborts on unknown
    // flags): strip it before delegating.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let force = argv.iter().any(|a| a == "--force");
    argv.retain(|a| a != "--force");
    let opts = Opts::parse_from(argv);
    let world = opts.world();
    let reference = epochs::mar2015();
    let (first, last) = (reference - 7, reference + 7);

    let dir = std::env::temp_dir().join(format!("v6census-supbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    eprintln!(
        "[supervisor_scaling] writing 15 day logs at scale {}…",
        opts.scale
    );
    FaultInjector::new(0xbe7c)
        .write_day_files(&world, first, last, &dir, &FaultSpec { faults: vec![] })
        .expect("write day logs");

    let samples = samples(2, 5);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs_axis = [1usize, 2, 4, 8];
    // (requested jobs, effective parallelism, min ms, median ms)
    let mut points: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut serial_key: Option<String> = None;

    for &jobs in &jobs_axis {
        let mut cfg = PipelineConfig {
            reference: Some(reference),
            ..PipelineConfig::default()
        };
        cfg.supervisor.jobs = jobs;
        let mut stage_walls: Vec<(String, u64)> = Vec::new();
        let (min, median) = time_ms(samples, || {
            let run = run_census(&dir, &cfg).expect("clean bench run");
            assert!(
                run.overall_quality().is_exact(),
                "bench world must run clean"
            );
            stage_walls = run
                .manifest
                .stages
                .iter()
                .map(|s| (s.stage.clone(), s.wall_millis))
                .collect();
            // Equivalence gate: a parallel run must be indistinguishable
            // from the serial one in everything but wall time.
            let key = run.manifest.equivalence_key();
            match &serial_key {
                None => serial_key = Some(key),
                Some(k) => assert_eq!(k, &key, "--jobs={jobs} diverged from --jobs=1"),
            }
        });
        let breakdown: Vec<String> = stage_walls
            .iter()
            .map(|(s, ms)| format!("{s}={ms}ms"))
            .collect();
        eprintln!("  [jobs={jobs}] stages: {}", breakdown.join(" "));
        let effective = jobs.min(cpus);
        println!(
            "jobs={jobs:<2} (effective {effective:<2}) min {min:>9.2}ms   median {median:>9.2}ms"
        );
        points.push((jobs, effective, min, median));
    }

    // A speedup headline is only honest when the widest point actually
    // got its requested parallelism; on a machine with fewer CPUs the
    // jobs=8 point is really a jobs=min(8,cpus) point and the ratio
    // says nothing about the code's scaling.
    let max_jobs = *jobs_axis.last().unwrap_or(&1);
    let constrained = max_jobs > cpus;
    let speedup = points[0].2 / points.last().unwrap().2;
    if constrained {
        eprintln!(
            "[supervisor_scaling] note: jobs={max_jobs} exceeds {cpus} cpu(s); \
             speedup headline suppressed (measured ratio {speedup:.2}x is CPU-bound, not code-bound)"
        );
    } else {
        println!(
            "speedup at jobs={max_jobs} vs jobs=1 (min-over-min): {speedup:.2}x on {cpus} cpu(s)"
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"supervisor_scaling\",");
    let _ = writeln!(json, "  \"scale\": {},", opts.scale);
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"days\": 15,");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"constrained_by_cpus\": {constrained},");
    let _ = writeln!(json, "  \"points\": [");
    for (i, (jobs, effective, min, median)) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"jobs\": {jobs}, \"effective_jobs\": {effective}, \"wall_ms_min\": {min:.3}, \"wall_ms_median\": {median:.3}}}{comma}"
        );
    }
    if constrained {
        // No speedup key at all: a number measured under CPU starvation
        // would be read as the code's scaling limit by trajectory
        // tooling, so it is omitted rather than emitted-with-caveat.
        let _ = writeln!(json, "  ]");
    } else {
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"speedup_jobs8_vs_jobs1\": {speedup:.3}");
    }
    json.push_str("}\n");
    opts.emit("BENCH_supervisor.json", &json);

    // A baseline captured with real parallelism must not be silently
    // clobbered by a run on a 1-CPU box, where every jobs>1 point is
    // CPU-starved and the speedup column is meaningless. `--force`
    // overrides for deliberate downgrades.
    let prior_cpus =
        std::fs::read_to_string(v6census_bench::baseline_path("BENCH_supervisor.json"))
            .ok()
            .as_deref()
            .and_then(baseline_cpus);
    match prior_cpus {
        Some(prior) if prior > 1 && cpus == 1 && !force => {
            eprintln!(
                "[supervisor_scaling] baseline kept: existing point was measured on \
                 {prior} cpus, this run had 1; pass --force to overwrite anyway"
            );
        }
        _ => v6census_bench::write_baseline("BENCH_supervisor.json", &json),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::baseline_cpus;

    #[test]
    fn parses_cpus_from_baseline_json() {
        assert_eq!(baseline_cpus("{\n  \"cpus\": 8,\n}"), Some(8));
        assert_eq!(baseline_cpus("{\"cpus\":1}"), Some(1));
        assert_eq!(baseline_cpus("{\"scale\": 0.25}"), None);
        assert_eq!(baseline_cpus(""), None);
    }
}
