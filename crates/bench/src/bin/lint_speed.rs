//! Benchmarks the full `v6census-lint` pipeline — scan, lex, symbol
//! table, call graph, per-file rules, semantic rules — over the
//! workspace at HEAD, plus the R002 abstract-interpretation pass in
//! isolation, and emits a `BENCH_lint.json` point (files scanned,
//! findings, wall ms, dataflow timings and summary counters) so later
//! PRs can track lint throughput as the rule set and the codebase grow.
//! The JSON is written to the repository root unconditionally; CI
//! uploads it as an artifact and commits track it as the baseline.
//!
//! `BENCH_QUICK=1` trims samples for CI smoke runs.

use std::fmt::Write as _;
use std::path::Path;

use lint::callgraph::CallGraph;
use lint::engine::{discover, lint_workspace, load_config, SeverityMap};
use lint::rules::Workspace;
use lint::symbols::SymbolTable;
use v6census_bench::{samples, time_ms, Opts};

fn main() {
    let opts = Opts::parse();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = load_config(&root).expect("lint.toml parses");
    let severities = SeverityMap::default();

    let samples = samples(3, 10);

    // The source of the scan/finding counts.
    let report = lint_workspace(&root, &cfg, &severities).expect("workspace lints");
    let files_scanned = report.files_scanned;
    let findings = report.diagnostics.len();
    let suppressed = report.suppressed_count();
    let discharged = report.discharged_count();

    let (min, median) = time_ms(samples, || {
        let run = lint_workspace(&root, &cfg, &severities).expect("workspace lints");
        assert_eq!(
            run.files_scanned, files_scanned,
            "scan must be deterministic"
        );
    });
    let files_per_sec = f64::from(u32::try_from(files_scanned).unwrap_or(u32::MAX)) / (min / 1e3);

    // The R002 dataflow pass in isolation: build the shared inputs
    // (scan, symbols, call graph) once, then time `analyze` alone so
    // the abstract-interpretation cost is tracked separately from the
    // full pipeline. The lint crate itself takes no wall-clock reads
    // (determinism discipline), so the timing lives out here.
    let paths = discover(&root).expect("workspace discovery");
    let files: Vec<_> = paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(p).expect("read source file");
            lint::scan::scan(p.clone(), rel, &text)
        })
        .collect();
    let views = lint::scan::code_views(&files);
    let symbols = SymbolTable::build(&files, &views);
    let calls = CallGraph::build(&symbols, &views);
    let ws = Workspace {
        files: &files,
        views,
        symbols: &symbols,
        calls: &calls,
    };
    let mut stats = lint::dataflow::DataflowStats::default();
    let (flow_min, flow_median) = time_ms(samples, || {
        stats = lint::dataflow::analyze(&ws, &cfg).stats;
    });

    // The R003/R004 concurrency pass in isolation, over the same
    // shared inputs: lock registry, guard scopes, effect lattice, and
    // the lock-order graph, timed separately like the dataflow above.
    let mut lock_stats = lint::locks::LockStats::default();
    let (lock_min, lock_median) = time_ms(samples, || {
        lock_stats = lint::locks::analyze(&ws, &cfg).stats;
    });

    // The R005/R006 allocation-effect pass in isolation, again over the
    // same shared inputs: per-function allocation summaries, hot-loop
    // obligations, and capacity-discipline proofs.
    let mut alloc_stats = lint::allocs::AllocStats::default();
    let (alloc_min, alloc_median) = time_ms(samples, || {
        alloc_stats = lint::allocs::analyze(&ws, &cfg).stats;
    });

    println!(
        "lint_workspace  {files_scanned} files, {findings} findings ({suppressed} suppressed, {discharged} discharged)"
    );
    println!(
        "                min {min:>8.2}ms   median {median:>8.2}ms   {files_per_sec:>8.0} files/s"
    );
    println!(
        "dataflow (R002) {} fns, {} passes, {} summaries, {}/{} obligations proven",
        stats.fns_analyzed, stats.passes, stats.summaries, stats.proven, stats.obligations
    );
    println!("                min {flow_min:>8.2}ms   median {flow_median:>8.2}ms");
    println!(
        "locks (R003/4)  {} fns, {} locks, {} edges (acyclic: {}), {}/{} obligations proven",
        lock_stats.fns_summarized,
        lock_stats.locks_found,
        lock_stats.lock_edges,
        lock_stats.acyclic,
        lock_stats.proven,
        lock_stats.effect_obligations
    );
    println!("                min {lock_min:>8.2}ms   median {lock_median:>8.2}ms");
    println!(
        "allocs (R005/6) {} fns ({} no-alloc, {} amortized, {} per-call), {} hot entries, {} loops, {}/{} loop + {}/{} capacity obligations proven",
        alloc_stats.fns_summarized,
        alloc_stats.no_alloc_fns,
        alloc_stats.amortized_fns,
        alloc_stats.per_call_fns,
        alloc_stats.hot_entry_points,
        alloc_stats.loops_scanned,
        alloc_stats.hot_loop_proven,
        alloc_stats.hot_loop_obligations,
        alloc_stats.capacity_proven,
        alloc_stats.capacity_obligations
    );
    println!("                min {alloc_min:>8.2}ms   median {alloc_median:>8.2}ms");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"lint_speed\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(json, "  \"findings\": {findings},");
    let _ = writeln!(json, "  \"suppressed\": {suppressed},");
    let _ = writeln!(json, "  \"discharged\": {discharged},");
    let _ = writeln!(json, "  \"wall_ms_min\": {min:.3},");
    let _ = writeln!(json, "  \"wall_ms_median\": {median:.3},");
    let _ = writeln!(json, "  \"files_per_sec\": {files_per_sec:.1},");
    let _ = writeln!(json, "  \"dataflow\": {{");
    let _ = writeln!(json, "    \"fns_analyzed\": {},", stats.fns_analyzed);
    let _ = writeln!(json, "    \"passes\": {},", stats.passes);
    let _ = writeln!(json, "    \"summaries\": {},", stats.summaries);
    let _ = writeln!(json, "    \"obligations\": {},", stats.obligations);
    let _ = writeln!(json, "    \"proven\": {},", stats.proven);
    let _ = writeln!(json, "    \"wall_ms_min\": {flow_min:.3},");
    let _ = writeln!(json, "    \"wall_ms_median\": {flow_median:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"locks\": {{");
    let _ = writeln!(
        json,
        "    \"fns_summarized\": {},",
        lock_stats.fns_summarized
    );
    let _ = writeln!(json, "    \"locks_found\": {},", lock_stats.locks_found);
    let _ = writeln!(json, "    \"lock_edges\": {},", lock_stats.lock_edges);
    let _ = writeln!(json, "    \"acyclic\": {},", lock_stats.acyclic);
    let _ = writeln!(
        json,
        "    \"effect_obligations\": {},",
        lock_stats.effect_obligations
    );
    let _ = writeln!(json, "    \"proven\": {},", lock_stats.proven);
    let _ = writeln!(json, "    \"wall_ms_min\": {lock_min:.3},");
    let _ = writeln!(json, "    \"wall_ms_median\": {lock_median:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"allocs\": {{");
    let _ = writeln!(
        json,
        "    \"fns_summarized\": {},",
        alloc_stats.fns_summarized
    );
    let _ = writeln!(json, "    \"no_alloc_fns\": {},", alloc_stats.no_alloc_fns);
    let _ = writeln!(
        json,
        "    \"amortized_fns\": {},",
        alloc_stats.amortized_fns
    );
    let _ = writeln!(json, "    \"per_call_fns\": {},", alloc_stats.per_call_fns);
    let _ = writeln!(
        json,
        "    \"hot_entry_points\": {},",
        alloc_stats.hot_entry_points
    );
    let _ = writeln!(
        json,
        "    \"loops_scanned\": {},",
        alloc_stats.loops_scanned
    );
    let _ = writeln!(
        json,
        "    \"hot_loop_obligations\": {},",
        alloc_stats.hot_loop_obligations
    );
    let _ = writeln!(
        json,
        "    \"hot_loop_proven\": {},",
        alloc_stats.hot_loop_proven
    );
    let _ = writeln!(
        json,
        "    \"capacity_obligations\": {},",
        alloc_stats.capacity_obligations
    );
    let _ = writeln!(
        json,
        "    \"capacity_proven\": {},",
        alloc_stats.capacity_proven
    );
    let _ = writeln!(json, "    \"wall_ms_min\": {alloc_min:.3},");
    let _ = writeln!(json, "    \"wall_ms_median\": {alloc_median:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    opts.emit("BENCH_lint.json", &json);
    v6census_bench::write_baseline("BENCH_lint.json", &json);
}
