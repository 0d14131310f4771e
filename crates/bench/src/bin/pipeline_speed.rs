//! Benchmarks the optimized census-pipeline kernels against the naive
//! reference implementations they replaced, and emits a committed
//! `BENCH_pipeline.json` point with per-stage wall-ms at scale 0.25 and
//! 1.0 — gated on byte-identical outputs.
//!
//! The "before" column is not a straw man: each naive implementation is
//! the shape the workspace actually shipped before the allocation-effect
//! PR made the hot paths allocation-free —
//!
//! * **trie_build** — a `Box`-per-node radix trie (one heap allocation
//!   per structural node, pointer-chasing descent) versus the
//!   index-packed arena [`RadixTree`].
//! * **densify** — per-node *recursive* subtree sums, `O(n·depth)` over
//!   compressed 128-bit paths, versus the one-pass memoized BFS sums
//!   inside [`RadixTree::densify`].
//! * **stability_window** — the union-of-intersections ±7-day scan that
//!   built and dropped two fresh sets per witness day, versus the
//!   merged-cursor [`DailyObservations::stable_on`].
//!
//! Every stage's before/after outputs are Debug-formatted and compared
//! byte-for-byte; any mismatch fails the run (exit 1), so the speedups
//! in the JSON are only ever claimed for equivalent results.
//!
//! `BENCH_QUICK=1` trims samples for CI smoke runs.

use std::fmt::Write as _;

use v6census_addr::Addr;
use v6census_bench::naive::{naive_stable_on, NaiveTrie};
use v6census_bench::{samples, time_ms, Opts};
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};
use v6census_trie::{AddrSet, RadixTree};

/// Density parameters for the densify stage: at least `DENSIFY_N`
/// addresses at density `DENSIFY_N`/2^(128−`DENSIFY_P`).
const DENSIFY_N: u64 = 4;
const DENSIFY_P: u8 = 64;

struct Stage {
    name: &'static str,
    before_ms_min: f64,
    before_ms_median: f64,
    after_ms_min: f64,
    after_ms_median: f64,
    equivalent: bool,
}

impl Stage {
    fn speedup(&self) -> f64 {
        if self.after_ms_min > 0.0 {
            self.before_ms_min / self.after_ms_min
        } else {
            f64::INFINITY
        }
    }
}

fn run_scale(scale: f64, seed: u64, samples: usize) -> (Vec<Stage>, usize) {
    let world = World::standard(WorldConfig { seed, scale });
    let reference = epochs::mar2015();
    let params = StabilityParams::three_day();

    // ±7-day coverage for every day of the reference week.
    let mut obs = DailyObservations::new();
    for day in (reference - 7).range_inclusive(reference + 13) {
        obs.record(day, AddrSet::from_iter(world.day_log(day).addrs()));
    }
    let day_addrs: Vec<Addr> = obs.on(reference).iter().collect();

    // --- Stage 1: trie build -----------------------------------------
    let (b_min, b_med) = time_ms(samples, || {
        let mut t = NaiveTrie::default();
        for &a in &day_addrs {
            t.insert_addr(a, 1);
        }
        t.entries().len()
    });
    let (a_min, a_med) = time_ms(samples, || {
        let mut t = RadixTree::new();
        for &a in &day_addrs {
            t.insert_addr(a, 1);
        }
        t.entries().len()
    });
    let mut naive = NaiveTrie::default();
    let mut arena = RadixTree::new();
    for &a in &day_addrs {
        naive.insert_addr(a, 1);
        arena.insert_addr(a, 1);
    }
    let build = Stage {
        name: "trie_build",
        before_ms_min: b_min,
        before_ms_median: b_med,
        after_ms_min: a_min,
        after_ms_median: a_med,
        equivalent: format!("{:?}", naive.entries()) == format!("{:?}", arena.entries()),
    };

    // --- Stage 2: densify --------------------------------------------
    let (b_min, b_med) = time_ms(samples, || naive.densify(DENSIFY_N, DENSIFY_P).len());
    let (a_min, a_med) = time_ms(samples, || arena.densify(DENSIFY_N, DENSIFY_P).len());
    let densify = Stage {
        name: "densify",
        before_ms_min: b_min,
        before_ms_median: b_med,
        after_ms_min: a_min,
        after_ms_median: a_med,
        equivalent: format!("{:?}", naive.densify(DENSIFY_N, DENSIFY_P))
            == format!("{:?}", arena.densify(DENSIFY_N, DENSIFY_P)),
    };

    // --- Stage 3: stability window -----------------------------------
    let week: Vec<Day> = reference.range_inclusive(reference + 6).collect();
    let (b_min, b_med) = time_ms(samples, || {
        week.iter()
            .map(|&d| naive_stable_on(&obs, d, &params).len())
            .sum::<usize>()
    });
    let (a_min, a_med) = time_ms(samples, || {
        week.iter()
            .map(|&d| obs.stable_on(d, &params).len())
            .sum::<usize>()
    });
    let before_sets: Vec<AddrSet> = week
        .iter()
        .map(|&d| naive_stable_on(&obs, d, &params))
        .collect();
    let after_sets: Vec<AddrSet> = week.iter().map(|&d| obs.stable_on(d, &params)).collect();
    let stability = Stage {
        name: "stability_window",
        before_ms_min: b_min,
        before_ms_median: b_med,
        after_ms_min: a_min,
        after_ms_median: a_med,
        equivalent: format!("{before_sets:?}") == format!("{after_sets:?}"),
    };

    (vec![build, densify, stability], day_addrs.len())
}

fn main() {
    let opts = Opts::parse();
    let samples = samples(3, 7);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"pipeline_speed\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"densify_n\": {DENSIFY_N},");
    let _ = writeln!(json, "  \"densify_p\": {DENSIFY_P},");
    let _ = writeln!(json, "  \"scales\": [");

    let mut all_equivalent = true;
    let scales = [0.25, 1.0];
    for (si, &scale) in scales.iter().enumerate() {
        eprintln!("[pipeline_speed] scale {scale}: building 21-day window…");
        let (stages, addrs_day) = run_scale(scale, opts.seed, samples);
        println!("scale {scale} ({addrs_day} addrs on the reference day):");
        for s in &stages {
            println!(
                "  {:<18} before min {:>9.2}ms   after min {:>9.2}ms   {:>6.2}x   equivalent: {}",
                s.name,
                s.before_ms_min,
                s.after_ms_min,
                s.speedup(),
                s.equivalent
            );
            all_equivalent &= s.equivalent;
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"scale\": {scale},");
        let _ = writeln!(json, "      \"addrs_day\": {addrs_day},");
        let _ = writeln!(json, "      \"stages\": [");
        for (i, s) in stages.iter().enumerate() {
            let _ = writeln!(json, "        {{");
            let _ = writeln!(json, "          \"stage\": \"{}\",", s.name);
            let _ = writeln!(json, "          \"before_ms_min\": {:.3},", s.before_ms_min);
            let _ = writeln!(
                json,
                "          \"before_ms_median\": {:.3},",
                s.before_ms_median
            );
            let _ = writeln!(json, "          \"after_ms_min\": {:.3},", s.after_ms_min);
            let _ = writeln!(
                json,
                "          \"after_ms_median\": {:.3},",
                s.after_ms_median
            );
            let _ = writeln!(json, "          \"speedup_min\": {:.2},", s.speedup());
            let _ = writeln!(json, "          \"equivalent\": {}", s.equivalent);
            let comma = if i + 1 < stages.len() { "," } else { "" };
            let _ = writeln!(json, "        }}{comma}");
        }
        let _ = writeln!(json, "      ]");
        let comma = if si + 1 < scales.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"equivalent\": {all_equivalent}");
    json.push_str("}\n");

    opts.emit("BENCH_pipeline.json", &json);
    v6census_bench::write_baseline("BENCH_pipeline.json", &json);

    if !all_equivalent {
        eprintln!("error: naive and optimized outputs diverged — speedups are void");
        std::process::exit(1);
    }
}
