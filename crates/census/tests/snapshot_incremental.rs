//! Incremental snapshot publishing against a naive twin.
//!
//! The serving daemon folds each committed day into a [`StableDays`] and
//! publishes with [`Snapshot::with_stability`], touching only the new day
//! and the days whose window contains it. These tests replay arrival
//! patterns through that path and check every generation against a
//! from-scratch twin: `stable_on` for every day of the whole census, and
//! beside it the §5.1 definition spelled out address by address, with
//! no incremental state and no shared kernel.

use v6census_census::{Census, DaySummary, Snapshot};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams, StableDays};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

const CLASS: DensityClass = DensityClass::new(8, 64);

/// Everything a snapshot serves, in comparable form: reference day,
/// reference actives and stables (keys), per-day `(day, active, stable)`
/// counts, and the scheme counts.
type View = (
    Option<Day>,
    Vec<u128>,
    Vec<u128>,
    Vec<(Day, usize, usize)>,
    Vec<(&'static str, usize)>,
);

fn view(s: &Snapshot) -> View {
    (
        s.reference,
        s.active.keys().to_vec(),
        s.stable.keys().to_vec(),
        s.stats
            .daily
            .iter()
            .map(|d| (d.day, d.active, d.stable))
            .collect(),
        s.stats.scheme_counts.clone(),
    )
}

/// §5.1 address by address: the actives of `day` also active on some
/// observed day at distance ≥ n + slew inside `[day − back, day + fwd]`.
fn definition(census: &Census, day: Day, p: &StabilityParams) -> Vec<u128> {
    let obs = census.other_daily();
    let witnesses: Vec<_> = obs
        .days()
        .filter(|&w| w >= day - p.back as i32 && w <= day + p.fwd as i32)
        .filter(|&w| (w - day).abs() >= (p.n + p.slew_tolerance) as i32)
        .filter_map(|w| obs.get(w))
        .collect();
    obs.on(day)
        .iter()
        .filter(|&a| witnesses.iter().any(|w| w.contains(a)))
        .map(|a| a.0)
        .collect()
}

/// The naive twin: per-day `stable_on` over the whole census, checked
/// against the definition.
fn naive(census: &Census, params: &StabilityParams) -> View {
    let obs = census.other_daily();
    let reference = census.days().last();
    for d in census.days() {
        assert_eq!(
            obs.stable_on(d, params).keys(),
            definition(census, d, params).as_slice(),
            "stable_on({d}) under {params:?}"
        );
    }
    let daily = census
        .days()
        .map(|d| (d, obs.on(d).len(), obs.stable_on(d, params).len()))
        .collect();
    let (active, stable, schemes) = match reference {
        None => (Vec::new(), Vec::new(), Vec::new()),
        Some(r) => {
            let s = census.summary(r).expect("reference day is ingested");
            (
                obs.on(r).keys().to_vec(),
                obs.stable_on(r, params).keys().to_vec(),
                vec![
                    ("teredo", s.teredo.len()),
                    ("isatap", s.isatap.len()),
                    ("6to4", s.sixtofour.len()),
                    ("other", s.other.len()),
                    ("eui64", s.eui64.len()),
                ],
            )
        }
    };
    (reference, active, stable, daily, schemes)
}

/// The parameter sets every pattern runs under: the daemon's default,
/// a lopsided short window, `n = 0` (a day witnesses itself) and a slew
/// tolerance.
fn param_sets() -> Vec<StabilityParams> {
    vec![
        StabilityParams::nd(3),
        StabilityParams::nd(1).with_window(2, 4),
        StabilityParams::nd(0).with_window(1, 1),
        StabilityParams::nd(2).with_slew(1),
    ]
}

fn summaries(seed: u64, offsets: &[i32]) -> Vec<DaySummary> {
    let world = World::standard(WorldConfig::tiny(seed));
    let first = epochs::mar2015();
    offsets
        .iter()
        .map(|&o| DaySummary::from_log(&world.day_log(first + o)))
        .collect()
}

/// Replays `arrivals` the way the daemon does — commit, fold the changed
/// day, publish — and checks every generation against the naive twin.
/// Returns the last published snapshot.
fn replay(arrivals: &[DaySummary], params: StabilityParams) -> Snapshot {
    let mut census = Census::new_empty();
    let mut stability = StableDays::of(census.other_daily(), params);
    let mut last = Snapshot::with_stability(census.clone(), &stability, CLASS);
    assert_eq!(view(&last), naive(&census, &params));
    for (i, s) in arrivals.iter().enumerate() {
        census.ingest_summary(s.clone());
        stability.fold(census.other_daily(), s.day);
        last = Snapshot::with_stability(census.clone(), &stability, CLASS);
        assert_eq!(
            view(&last),
            naive(&census, &params),
            "arrival {i} (day {}) under {params:?}",
            s.day
        );
        assert_eq!(last.generation, census.days().count() as u64);
        let scratch = Snapshot::build(census.clone(), params, CLASS);
        assert_eq!(view(&scratch), view(&last), "build is the same fold");
    }
    last
}

#[test]
fn in_order_arrivals_match_the_naive_twin() {
    let days = summaries(21, &(0..12).collect::<Vec<_>>());
    for params in param_sets() {
        replay(&days, params);
    }
}

#[test]
fn a_late_day_matches_the_naive_twin() {
    // Day 3 lands after day 7: it becomes a witness for days on both
    // sides of it, and the reference stays day 8.
    let days = summaries(22, &[0, 1, 2, 4, 5, 6, 7, 3, 8]);
    for params in param_sets() {
        let last = replay(&days, params);
        assert_eq!(last.reference, Some(epochs::mar2015() + 8));
    }
}

#[test]
fn gaps_match_the_naive_twin() {
    let days = summaries(23, &[0, 1, 2, 6, 7, 8, 12, 20]);
    for params in param_sets() {
        replay(&days, params);
    }
}

#[test]
fn a_duplicate_day_merge_matches_the_naive_twin() {
    // Day 4 arrives in two halves: the second delivery grows an already
    // folded day's set, the merge case of the update rule.
    let world = World::standard(WorldConfig::tiny(24));
    let first = epochs::mar2015();
    let mut arrivals = Vec::new();
    for o in 0..8 {
        let log = world.day_log(first + o);
        let entries: Vec<_> = log.entries.iter().map(|e| (e.addr, e.hits)).collect();
        if o == 4 {
            let (a, b) = entries.split_at(entries.len() / 2);
            arrivals.push(DaySummary::from_entries(log.day, a.iter().copied()));
            arrivals.push(DaySummary::from_entries(log.day, b.iter().copied()));
        } else {
            arrivals.push(DaySummary::from_entries(log.day, entries));
        }
    }
    // A late third delivery of day 4, after the days around it.
    let log = world.day_log(first + 4);
    let (_, tail) = log.entries.split_at(log.entries.len() / 3);
    arrivals.push(DaySummary::from_entries(
        log.day,
        tail.iter().map(|e| (e.addr, e.hits)),
    ));
    for params in param_sets() {
        replay(&arrivals, params);
    }
}

/// Every ordering of `items`, by Heap's algorithm.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    fn heap<T: Clone>(k: usize, a: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k - 1 {
            heap(k - 1, a, out);
            let j = if k.is_multiple_of(2) { i } else { 0 };
            a.swap(j, k - 1);
        }
        heap(k - 1, a, out);
    }
    let mut a = items.to_vec();
    let mut out = Vec::new();
    heap(a.len(), &mut a, &mut out);
    out
}

#[test]
fn every_arrival_order_ends_in_the_same_snapshot() {
    // Five days that witness one another under both windows below.
    let days = summaries(25, &[0, 1, 3, 4, 7]);
    let orders = permutations(&days);
    assert_eq!(orders.len(), 120);
    for params in [
        StabilityParams::nd(3),
        StabilityParams::nd(1).with_window(2, 4),
    ] {
        let mut census = Census::new_empty();
        for s in &days {
            census.ingest_summary(s.clone());
        }
        let want = naive(&census, &params);
        for order in &orders {
            let mut census = Census::new_empty();
            let mut stability = StableDays::new(params);
            for s in order {
                census.ingest_summary(s.clone());
                stability.fold(census.other_daily(), s.day);
            }
            let got = Snapshot::with_stability(census, &stability, CLASS);
            assert_eq!(view(&got), want, "order {:?}", {
                order.iter().map(|s| s.day).collect::<Vec<_>>()
            });
        }
    }
}
