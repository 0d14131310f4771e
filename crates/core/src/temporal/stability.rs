//! The nd-stable classifier over daily observation sets (§5.1).

use super::Day;
use std::collections::BTreeMap;
use std::sync::Arc;
use v6census_trie::AddrSet;

/// Parameters of an nd-stability assessment.
///
/// Definition (§5.1): an address is **nd-stable** when there exist
/// observations of activity on two different days with an intervening
/// period of at least *n−1* days — equivalently, on two days at distance
/// ≥ *n*. Assessment is relative to a reference day inside a sliding
/// window spanning `back` days before through `fwd` days after; the
/// paper's canonical window is `(-7d,+7d)`.
///
/// `slew_tolerance` accommodates the log-processing timestamp slew of
/// §4.1: aggregated logs complete up to a day after the requests occurred,
/// so two "log processed dates" at distance *k* may reflect activity as
/// close as *k − slew* days apart. A non-zero tolerance makes the
/// classifier conservative by requiring distance ≥ *n + slew* before
/// declaring nd-stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StabilityParams {
    /// The *n* of nd-stable: minimum day distance between observations.
    pub n: u32,
    /// Window reach before the reference day, in days.
    pub back: u32,
    /// Window reach after the reference day, in days.
    pub fwd: u32,
    /// Extra distance demanded to absorb log-timestamp slew (§4.1).
    pub slew_tolerance: u32,
}

impl StabilityParams {
    /// nd-stability with the paper's canonical `(-7d,+7d)` window and no
    /// slew tolerance.
    pub const fn nd(n: u32) -> StabilityParams {
        StabilityParams {
            n,
            back: 7,
            fwd: 7,
            slew_tolerance: 0,
        }
    }

    /// The paper's headline class: `3d-stable (-7d,+7d)`.
    pub const fn three_day() -> StabilityParams {
        StabilityParams::nd(3)
    }

    /// Replaces the window, keeping n and slew.
    pub const fn with_window(self, back: u32, fwd: u32) -> StabilityParams {
        StabilityParams { back, fwd, ..self }
    }

    /// Replaces the slew tolerance.
    pub const fn with_slew(self, slew_tolerance: u32) -> StabilityParams {
        StabilityParams {
            slew_tolerance,
            ..self
        }
    }

    /// The class label in the paper's notation, e.g. `3d-stable (-7d,+7d)`.
    pub fn label(&self) -> String {
        format!("{}d-stable (-{}d,+{}d)", self.n, self.back, self.fwd)
    }

    /// Effective minimum distance between observation days.
    fn min_distance(&self) -> u32 {
        self.n + self.slew_tolerance
    }
}

/// Per-day sets of active addresses (or prefixes): the input to temporal
/// classification.
///
/// The same engine classifies full addresses and /64s — record /64-mapped
/// sets (via [`AddrSet::map_prefix`]) in a second store, or use
/// [`DailyObservations::prefix_view`].
///
/// A day is **covered** when it was recorded at all — possibly with an
/// empty set ("observed inactive"). A day never recorded is a **gap**
/// ("not ingested"), which is a different thing: an address absent on a
/// covered day was provably quiet; an address absent on a gap day was
/// simply not looked at. The gap-aware classifier entry point
/// [`DailyObservations::stable_on_gapped`] keeps the two apart.
///
/// Each day's set sits behind an [`Arc`], so cloning a store copies
/// pointers, and a caller that already holds a day's set (the census's
/// per-day summary) can hand over its storage with
/// [`DailyObservations::record_shared`] instead of a second copy.
#[derive(Clone, Debug, Default)]
pub struct DailyObservations {
    days: BTreeMap<Day, Arc<AddrSet>>,
}

/// How the classifier treats days that were never ingested inside the
/// assessment window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapPolicy {
    /// Legacy semantics: a gap day is treated as if every address were
    /// inactive on it. The verdict is always reported [`VerdictQuality::Complete`]
    /// because the caller explicitly opted out of gap accounting.
    AssumeInactive,
    /// Widens the window by one day per gap day on each side (capped at
    /// `max_extra` per side), recovering the witness opportunities the
    /// gaps removed.
    Widen {
        /// Maximum extra reach added to either side of the window.
        max_extra: u32,
    },
    /// Leaves the window alone but downgrades the verdict to
    /// [`VerdictQuality::Unknown`] when gaps intersect it — a "not
    /// stable" outcome cannot be trusted if witness days are missing.
    Flag,
}

/// How trustworthy a gap-aware stability verdict is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerdictQuality {
    /// Every day of the assessment window was covered (or the caller
    /// chose [`GapPolicy::AssumeInactive`]).
    Complete,
    /// The window was widened to compensate for gap days.
    Widened {
        /// Extra backward reach applied, in days.
        back_extra: u32,
        /// Extra forward reach applied, in days.
        fwd_extra: u32,
    },
    /// Gap days intersect the window (or the reference day itself was
    /// never ingested); absence of a stability witness proves nothing.
    Unknown {
        /// The uncovered days, ascending.
        missing: Vec<Day>,
    },
}

impl VerdictQuality {
    /// True when a "not stable" outcome can be taken at face value.
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, VerdictQuality::Unknown { .. })
    }

    /// The position of this verdict on the run-level quality lattice:
    /// `Complete` is exact, a widened window is a degraded-but-honest
    /// answer, and uncovered days make the verdict partial.
    pub fn quality(&self) -> crate::quality::Quality {
        match self {
            VerdictQuality::Complete => crate::quality::Quality::Exact,
            VerdictQuality::Widened { .. } => crate::quality::Quality::Degraded,
            VerdictQuality::Unknown { .. } => crate::quality::Quality::Partial,
        }
    }
}

/// The outcome of [`DailyObservations::stable_on_gapped`].
#[derive(Clone, Debug)]
pub struct StabilityVerdict {
    /// Addresses assessed nd-stable on the reference day.
    pub stable: AddrSet,
    /// How trustworthy the assessment is given ingestion gaps.
    pub quality: VerdictQuality,
}

/// The outcome of a weekly stability assessment (Table 2c/2d): for each of
/// the seven days the nd-stable set is determined; the weekly classes are
/// the unions.
#[derive(Clone, Debug)]
pub struct WeeklyStability {
    /// Unique addresses active during the week.
    pub active: AddrSet,
    /// Unique addresses nd-stable on at least one day of the week.
    pub stable: AddrSet,
    /// Unique active addresses never assessed nd-stable — the paper's
    /// "not nd-stable", meaning only that stability was not witnessed.
    pub not_stable: AddrSet,
}

/// The outcome of a cross-epoch stability assessment (the `6m-stable
/// (-6m)` and `1y-stable (-1y)` rows of Table 2).
#[derive(Clone, Debug)]
pub struct EpochStability {
    /// Addresses active in the current epoch and the earlier one.
    pub stable: AddrSet,
    /// Size of the current epoch's active set (the percentage base).
    pub current_total: usize,
}

impl EpochStability {
    /// The stable fraction of the current epoch's actives.
    pub fn fraction(&self) -> f64 {
        if self.current_total == 0 {
            0.0
        } else {
            self.stable.len() as f64 / self.current_total as f64
        }
    }
}

impl DailyObservations {
    /// Creates an empty store.
    pub fn new() -> DailyObservations {
        DailyObservations::default()
    }

    /// Records (or merges) the active set observed on `day`.
    pub fn record(&mut self, day: Day, set: AddrSet) {
        self.days
            .entry(day)
            .and_modify(|existing| *existing = Arc::new(existing.union(&set)))
            .or_insert_with(|| Arc::new(set));
    }

    /// Records `set` as `day`'s active set, sharing the caller's storage.
    /// Unlike [`DailyObservations::record`] this does not merge: the
    /// caller owns the merge, so `set` must contain whatever was already
    /// recorded for the day (sets only grow, which is what
    /// [`StableDays::fold`] relies on).
    pub fn record_shared(&mut self, day: Day, set: Arc<AddrSet>) {
        debug_assert!(
            self.days.get(&day).map_or(0, |old| old.len()) <= set.len(),
            "record_shared must not shrink a day's set"
        );
        self.days.insert(day, set);
    }

    /// The active set for a day (empty when unobserved). This copies the
    /// set; [`DailyObservations::get`] borrows it.
    pub fn on(&self, day: Day) -> AddrSet {
        self.get(day).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for a day's set.
    pub fn get(&self, day: Day) -> Option<&AddrSet> {
        self.days.get(&day).map(|set| &**set)
    }

    /// A day's set as shared storage: cloning the `Arc` is a pointer copy.
    pub fn shared(&self, day: Day) -> Option<&Arc<AddrSet>> {
        self.days.get(&day)
    }

    /// The observed days in ascending order.
    pub fn days(&self) -> impl Iterator<Item = Day> + '_ {
        self.days.keys().copied()
    }

    /// Number of days with observations.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// A store of the same days with every set mapped to its containing
    /// `/len` blocks — e.g. `prefix_view(64)` for the paper's /64
    /// stability analysis (Table 2b/2d).
    pub fn prefix_view(&self, len: u8) -> DailyObservations {
        let mut view = DailyObservations::new();
        for (&d, set) in &self.days {
            view.record(d, set.map_prefix(len));
        }
        view
    }

    /// True when `day` was recorded at all (even with an empty set) —
    /// the "observed inactive" versus "not ingested" distinction.
    pub fn is_covered(&self, day: Day) -> bool {
        self.days.contains_key(&day)
    }

    /// The uncovered days within `first..=last`, ascending.
    pub fn gaps_in(&self, first: Day, last: Day) -> Vec<Day> {
        first
            .range_inclusive(last)
            .filter(|d| !self.is_covered(*d))
            .collect()
    }

    /// Gap-aware stability assessment: like
    /// [`DailyObservations::stable_on`], but days missing from the
    /// ingestion are accounted for per `policy` instead of being silently
    /// read as "inactive everywhere".
    pub fn stable_on_gapped(
        &self,
        reference: Day,
        params: &StabilityParams,
        policy: GapPolicy,
    ) -> StabilityVerdict {
        let missing = self.gaps_in(
            reference - params.back as i32,
            reference + params.fwd as i32,
        );
        if missing.is_empty() || policy == GapPolicy::AssumeInactive {
            return StabilityVerdict {
                stable: self.stable_on(reference, params),
                quality: VerdictQuality::Complete,
            };
        }
        // No amount of widening recovers an unobserved reference day.
        if !self.is_covered(reference) {
            return StabilityVerdict {
                stable: AddrSet::new(),
                quality: VerdictQuality::Unknown { missing },
            };
        }
        match policy {
            // Already returned Complete above; kept total for safety.
            GapPolicy::AssumeInactive => StabilityVerdict {
                stable: self.stable_on(reference, params),
                quality: VerdictQuality::Complete,
            },
            GapPolicy::Flag => StabilityVerdict {
                stable: self.stable_on(reference, params),
                quality: VerdictQuality::Unknown { missing },
            },
            GapPolicy::Widen { max_extra } => {
                let back_extra =
                    (missing.iter().filter(|&&d| d < reference).count() as u32).min(max_extra);
                let fwd_extra =
                    (missing.iter().filter(|&&d| d > reference).count() as u32).min(max_extra);
                let widened = params.with_window(params.back + back_extra, params.fwd + fwd_extra);
                StabilityVerdict {
                    stable: self.stable_on(reference, &widened),
                    quality: VerdictQuality::Widened {
                        back_extra,
                        fwd_extra,
                    },
                }
            }
        }
    }

    /// Addresses active on `reference` that are nd-stable per `params`:
    /// also active on some observed day `d` in the window with
    /// `|d − reference| ≥ n + slew`.
    pub fn stable_on(&self, reference: Day, params: &StabilityParams) -> AddrSet {
        let Some(active) = self.get(reference) else {
            return AddrSet::new();
        };
        let mut witnesses: Vec<&[u128]> = Vec::with_capacity(self.days.len());
        for (_, s) in self.witnesses_of(reference, params) {
            witnesses.push(s.keys());
        }
        witnessed(active.keys(), &witnesses)
    }

    /// The observed days whose activity can witness `reference`'s
    /// stability: inside `[reference − back, reference + fwd]` and at
    /// least `n + slew` days away. With `n + slew = 0` that includes
    /// `reference` itself.
    fn witnesses_of<'a>(
        &'a self,
        reference: Day,
        params: &StabilityParams,
    ) -> impl Iterator<Item = (Day, &'a AddrSet)> + 'a {
        let lo = reference - params.back as i32;
        let hi = reference + params.fwd as i32;
        let min_d = params.min_distance() as i32;
        self.days
            .range(lo..=hi)
            .filter(move |(&d, _)| (d - reference).abs() >= min_d)
            .map(|(&d, s)| (d, &**s))
    }

    /// Addresses active on `reference` but *not* witnessed nd-stable —
    /// the complement of [`DailyObservations::stable_on`] within the
    /// reference day's actives.
    pub fn not_stable_on(&self, reference: Day, params: &StabilityParams) -> AddrSet {
        let active = self.on(reference);
        let stable = self.stable_on(reference, params);
        AddrSet::from_iter(active.iter().filter(|&a| !stable.contains(a)))
    }

    /// Weekly stability (Table 2c/2d): for each day in
    /// `first..=first+6`, determine the nd-stable set; report unions.
    pub fn stable_over_week(&self, first: Day, params: &StabilityParams) -> WeeklyStability {
        self.stable_over_days(first.range_inclusive(first + 6), params)
    }

    /// Generalization of [`DailyObservations::stable_over_week`] to any
    /// set of reference days.
    pub fn stable_over_days<I: IntoIterator<Item = Day>>(
        &self,
        days: I,
        params: &StabilityParams,
    ) -> WeeklyStability {
        let mut active = AddrSet::new();
        let mut stable = AddrSet::new();
        for d in days {
            if let Some(s) = self.get(d) {
                active = active.union(s);
            }
            stable = stable.union(&self.stable_on(d, params));
        }
        let not_stable = AddrSet::from_iter(active.iter().filter(|&a| !stable.contains(a)));
        WeeklyStability {
            active,
            stable,
            not_stable,
        }
    }

    /// Cross-epoch stability (the `6m-stable (-6m)` / `1y-stable (-1y)`
    /// rows): addresses active in the current epoch (union over
    /// `current`) that were also active in the earlier epoch (union over
    /// `earlier`). The percentage base is the current epoch's active
    /// count.
    pub fn epoch_stable(
        &self,
        current: impl IntoIterator<Item = Day>,
        earlier: impl IntoIterator<Item = Day>,
    ) -> EpochStability {
        let cur = AddrSet::union_all(current.into_iter().filter_map(|d| self.get(d)));
        let old = AddrSet::union_all(earlier.into_iter().filter_map(|d| self.get(d)));
        EpochStability {
            stable: cur.intersection(&old),
            current_total: cur.len(),
        }
    }

    /// The Figure 4 series: for every observed day, the day's active
    /// count and the size of its intersection with the reference day's
    /// active set.
    pub fn reference_overlap_series(&self, reference: Day) -> Vec<(Day, usize, usize)> {
        let ref_set = self.on(reference);
        self.days
            .iter()
            .map(|(&d, s)| (d, s.len(), ref_set.intersection_len(s)))
            .collect()
    }
}

/// The members of sorted `active` that occur in at least one sorted
/// `witnesses` list: `active ∩ ⋃ witnesses`, the one kernel behind
/// [`DailyObservations::stable_on`] and [`StableDays::fold`].
///
/// One pass over `active` against a cursor per witness. Every cursor
/// moves monotonically forward, so the cost is
/// O(|active|·w + Σ|witness|) with a single reserved output buffer.
fn witnessed(active: &[u128], witnesses: &[&[u128]]) -> AddrSet {
    // Not `vec![0; …]`: the reserve-then-resize spelling keeps this fn
    // on the amortized point of R005's allocation lattice.
    #[allow(clippy::slow_vector_initialization)]
    let mut cursors: Vec<usize> = {
        let mut v = Vec::with_capacity(witnesses.len());
        v.resize(witnesses.len(), 0);
        v
    };
    let mut out: Vec<u128> = Vec::with_capacity(active.len());
    for &a in active {
        let mut hit = false;
        for (w, cur) in witnesses.iter().zip(cursors.iter_mut()) {
            while w.get(*cur).is_some_and(|&k| k < a) {
                *cur += 1;
            }
            if w.get(*cur) == Some(&a) {
                hit = true;
                break; // later witnesses' cursors catch up lazily
            }
        }
        if hit {
            out.push(a);
        }
    }
    AddrSet::from_sorted(out)
}

/// Every observed day's nd-stable set under one [`StabilityParams`],
/// kept current one changed day at a time — what a serving daemon
/// needs to publish a generation without re-classifying every day.
///
/// Write `A_d` for day `d`'s active set and call `w` a *witness* of `d`
/// when `d − back ≤ w ≤ d + fwd` and `|w − d| ≥ n + slew`. Then
/// `stable_on(d) = A_d ∩ ⋃ { A_w : w a witness of d }`. Suppose only
/// day `X`'s set changed, and only by growing (a new day grows from
/// nothing; a duplicate-day merge grows by union — ingest never removes
/// an address). [`StableDays::fold`] then updates exactly:
///
/// * `S_X` is recomputed in full;
/// * a day `d ≠ X` has `X` as a witness iff `X ∈ [d − back, d + fwd]`
///   and `|X − d| ≥ n + slew`. Its `A_d` is unchanged and its witness
///   union only gains `A′_X ⊇ A_X`, so
///   `S′_d = A_d ∩ (W_d ∪ A′_X) = S_d ∪ (A_d ∩ A′_X)`;
/// * every other day's witness union does not mention `X`, so its set
///   is reused unchanged.
///
/// The second case is cheap: when `d` is also a witness of `X` (always,
/// for a symmetric window), `A_d ∩ A′_X ⊆ S′_X`, so the gain is found by
/// walking the small `S′_X` against `A_d` rather than all of `A′_X`.
///
/// A fold therefore touches `X` plus at most `back + fwd` other days:
/// O(new day + window), independent of how many days are held.
///
/// Only days already folded count as witnesses, so folding the days of
/// a complete store one by one replays their arrival and ends in the
/// same sets as [`DailyObservations::stable_on`] per day —
/// [`StableDays::of`] is that fold, and the only from-scratch path.
#[derive(Clone, Debug)]
pub struct StableDays {
    params: StabilityParams,
    stable: BTreeMap<Day, AddrSet>,
}

impl StableDays {
    /// An empty index: no day folded yet.
    pub fn new(params: StabilityParams) -> StableDays {
        StableDays {
            params,
            stable: BTreeMap::new(),
        }
    }

    /// The stable sets of every day of `obs`, by folding its days in
    /// ascending order.
    pub fn of(obs: &DailyObservations, params: StabilityParams) -> StableDays {
        let mut index = StableDays::new(params);
        for day in obs.days() {
            index.fold(obs, day);
        }
        index
    }

    /// Folds day `day`'s new or grown set into the index. `obs` is the
    /// store *after* the change; every other day of `obs` must already
    /// be folded with its current set (see the type docs for why the
    /// update is exact). A day `obs` never recorded is ignored.
    pub fn fold(&mut self, obs: &DailyObservations, day: Day) {
        let Some(active) = obs.get(day) else {
            return;
        };
        let mut witnesses: Vec<&[u128]> = Vec::with_capacity(obs.day_count());
        for (d, s) in obs.witnesses_of(day, &self.params) {
            if d == day || self.stable.contains_key(&d) {
                witnesses.push(s.keys());
            }
        }
        let own = witnessed(active.keys(), &witnesses);
        // `d` has `day` as a witness iff `day ∈ [d − back, d + fwd]`.
        let lo = day - self.params.fwd as i32;
        let hi = day + self.params.back as i32;
        let min_d = self.params.min_distance() as i32;
        let (wlo, whi) = (day - self.params.back as i32, day + self.params.fwd as i32);
        for (&d, s) in self.stable.range_mut(lo..=hi) {
            if d == day || (d - day).abs() < min_d {
                continue;
            }
            let Some(a) = obs.get(d) else {
                continue;
            };
            // When `d` witnesses `day` too, everything the two days
            // share is already in `own`, a small fraction of `active`.
            let shared_with = if wlo <= d && d <= whi {
                own.keys()
            } else {
                active.keys()
            };
            *s = s.union(&witnessed(shared_with, &[a.keys()]));
        }
        *self.stable.entry(day).or_default() = own;
    }

    /// The parameters the sets are computed under.
    pub fn params(&self) -> &StabilityParams {
        &self.params
    }

    /// The nd-stable set of a folded day.
    pub fn on(&self, day: Day) -> Option<&AddrSet> {
        self.stable.get(&day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| a(s)))
    }

    fn day(d: u8) -> Day {
        Day::from_ymd(2015, 3, d)
    }

    #[test]
    fn paper_examples_from_section_5_1() {
        // "A given address seen on March 17 and again on March 18 ... is
        // 1d-stable. An address seen on March 17 and on March 19 ... is
        // 2d-stable [and therefore also 1d-stable]."
        let mut obs = DailyObservations::new();
        let x = a("2001:db8::1718");
        let y = a("2001:db8::1719");
        obs.record(day(17), set(&["2001:db8::1718", "2001:db8::1719"]));
        obs.record(day(18), set(&["2001:db8::1718"]));
        obs.record(day(19), set(&["2001:db8::1719"]));

        let s1 = obs.stable_on(day(17), &StabilityParams::nd(1));
        assert!(s1.contains(x));
        assert!(s1.contains(y));

        let s2 = obs.stable_on(day(17), &StabilityParams::nd(2));
        assert!(!s2.contains(x));
        assert!(s2.contains(y), "Mar 17 + Mar 19 is 2d-stable");

        // nd-stable implies (n-1)d-stable: s2 ⊆ s1.
        for addr in s2.iter() {
            assert!(s1.contains(addr));
        }
    }

    #[test]
    fn window_limits_witnesses() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(27), set(&["2001:db8::1"])); // 10 days later
        let p = StabilityParams::nd(3); // (-7d,+7d)
        assert!(obs.stable_on(day(17), &p).is_empty(), "outside window");
        let wide = p.with_window(7, 10);
        assert!(!obs.stable_on(day(17), &wide).is_empty());
    }

    #[test]
    fn backward_witnesses_count() {
        let mut obs = DailyObservations::new();
        obs.record(day(12), set(&["2001:db8::1"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        let s = obs.stable_on(day(17), &StabilityParams::nd(3));
        assert!(s.contains(a("2001:db8::1")));
        assert!(!s.contains(a("2001:db8::2")));
    }

    #[test]
    fn slew_tolerance_is_conservative() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::nd(3);
        assert_eq!(obs.stable_on(day(17), &p).len(), 1);
        // With 1-day slew, distance 3 no longer proves 3d-stability.
        assert!(obs.stable_on(day(17), &p.with_slew(1)).is_empty());
        // Distance 4 does.
        obs.record(day(21), set(&["2001:db8::1"]));
        assert_eq!(obs.stable_on(day(17), &p.with_slew(1)).len(), 1);
    }

    #[test]
    fn unobserved_reference_day_is_empty() {
        let obs = DailyObservations::new();
        assert!(obs
            .stable_on(day(17), &StabilityParams::three_day())
            .is_empty());
        assert!(obs.on(day(17)).is_empty());
    }

    #[test]
    fn not_stable_partitions_actives() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::three_day();
        let stable = obs.stable_on(day(17), &p);
        let not = obs.not_stable_on(day(17), &p);
        assert_eq!(stable.len() + not.len(), 3);
        assert_eq!(stable.intersection_len(&not), 0);
    }

    #[test]
    fn weekly_union_semantics() {
        let mut obs = DailyObservations::new();
        // Address A stable relative to Mar 18 (seen 18 and 23);
        // address B active only once.
        for d in [18u8, 23] {
            obs.record(day(d), set(&["2001:db8::a"]));
        }
        obs.record(day(19), set(&["2001:db8::b"]));
        let w = obs.stable_over_week(day(17), &StabilityParams::nd(3));
        assert_eq!(w.active.len(), 2);
        assert_eq!(w.stable.len(), 1);
        assert!(w.stable.contains(a("2001:db8::a")));
        assert_eq!(w.not_stable.len(), 1);
        assert!(w.not_stable.contains(a("2001:db8::b")));
        // Partition invariant: stable ∪ not = active, disjoint.
        assert_eq!(w.stable.len() + w.not_stable.len(), w.active.len());
    }

    #[test]
    fn epoch_stability() {
        let mut obs = DailyObservations::new();
        let mar14 = Day::from_ymd(2014, 3, 17);
        obs.record(mar14, set(&["2001:db8::1", "2001:db8::9"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        let e = obs.epoch_stable([day(17)], [mar14]);
        assert_eq!(e.stable.len(), 1);
        assert!(e.stable.contains(a("2001:db8::1")));
        assert_eq!(e.current_total, 2);
        assert!((e.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_view_generalizes_to_64s() {
        let mut obs = DailyObservations::new();
        // Two privacy addresses in the same /64 on different days: the
        // addresses are not stable, but the /64 is.
        obs.record(day(17), set(&["2001:db8:0:1:aaaa::1"]));
        obs.record(day(20), set(&["2001:db8:0:1:bbbb::2"]));
        let p = StabilityParams::three_day();
        assert!(obs.stable_on(day(17), &p).is_empty());
        let v64 = obs.prefix_view(64);
        let s = v64.stable_on(day(17), &p);
        assert_eq!(s.len(), 1);
        assert!(s.contains(a("2001:db8:0:1::")));
    }

    #[test]
    fn reference_overlap_series_shapes_figure_4() {
        let mut obs = DailyObservations::new();
        obs.record(day(16), set(&["2001:db8::1", "2001:db8::9"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        obs.record(day(18), set(&["2001:db8::2", "2001:db8::7"]));
        let series = obs.reference_overlap_series(day(17));
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (day(16), 2, 1));
        assert_eq!(series[1], (day(17), 2, 2)); // self-overlap is full
        assert_eq!(series[2], (day(18), 2, 1));
    }

    #[test]
    fn record_merges() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(17), set(&["2001:db8::2"]));
        assert_eq!(obs.on(day(17)).len(), 2);
        assert_eq!(obs.day_count(), 1);
        assert_eq!(obs.days().collect::<Vec<_>>(), vec![day(17)]);
    }

    #[test]
    fn coverage_distinguishes_inactive_from_missing() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(18), AddrSet::new()); // observed, nobody active
        assert!(obs.is_covered(day(17)));
        assert!(obs.is_covered(day(18)), "empty day is still covered");
        assert!(!obs.is_covered(day(19)), "never-ingested day is a gap");
        assert_eq!(obs.gaps_in(day(17), day(20)), vec![day(19), day(20)]);
    }

    #[test]
    fn gapped_verdict_complete_when_window_covered() {
        let mut obs = DailyObservations::new();
        for d in 10..=24u8 {
            obs.record(day(d), set(&["2001:db8::1"]));
        }
        let v = obs.stable_on_gapped(day(17), &StabilityParams::three_day(), GapPolicy::Flag);
        assert_eq!(v.quality, VerdictQuality::Complete);
        assert_eq!(v.stable.len(), 1);
        assert!(v.quality.is_conclusive());
    }

    #[test]
    fn flag_policy_downgrades_gapped_windows() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(18), set(&["2001:db8::1"]));
        // Days 10..=16 and 19..=24 never ingested.
        let v = obs.stable_on_gapped(day(17), &StabilityParams::three_day(), GapPolicy::Flag);
        match &v.quality {
            VerdictQuality::Unknown { missing } => {
                assert_eq!(missing.len(), 13);
                assert!(missing.contains(&day(10)) && missing.contains(&day(24)));
            }
            q => panic!("expected Unknown, got {q:?}"),
        }
        assert!(!v.quality.is_conclusive());
        // The stable set itself matches the legacy classifier.
        assert_eq!(
            v.stable.len(),
            obs.stable_on(day(17), &StabilityParams::three_day()).len()
        );
    }

    #[test]
    fn widen_policy_recovers_lost_witnesses() {
        let mut obs = DailyObservations::new();
        // Witness at distance 9 — outside (-7,+7). Days 13..=16 are gaps,
        // so widening by 4 restores reach to the day-8 witness.
        obs.record(day(8), set(&["2001:db8::1"]));
        for d in 9..=12u8 {
            obs.record(day(d), AddrSet::new());
        }
        obs.record(day(17), set(&["2001:db8::1"]));
        for d in 18..=24u8 {
            obs.record(day(d), AddrSet::new());
        }
        let p = StabilityParams::three_day();
        assert!(
            obs.stable_on(day(17), &p).is_empty(),
            "witness out of reach"
        );
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 7 });
        assert_eq!(
            v.quality,
            VerdictQuality::Widened {
                back_extra: 4,
                fwd_extra: 0
            }
        );
        assert_eq!(v.stable.len(), 1, "widened window reaches the witness");
        // The cap is honoured: back reach 7+1 = 8 stops short of day 8.
        let capped = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 1 });
        assert_eq!(
            capped.quality,
            VerdictQuality::Widened {
                back_extra: 1,
                fwd_extra: 0
            }
        );
        assert!(capped.stable.is_empty());
    }

    #[test]
    fn uncovered_reference_day_is_unknown() {
        let mut obs = DailyObservations::new();
        obs.record(day(10), set(&["2001:db8::1"]));
        let v = obs.stable_on_gapped(
            day(17),
            &StabilityParams::three_day(),
            GapPolicy::Widen { max_extra: 7 },
        );
        assert!(v.stable.is_empty());
        assert!(matches!(v.quality, VerdictQuality::Unknown { .. }));
    }

    #[test]
    fn assume_inactive_matches_legacy() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::three_day();
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::AssumeInactive);
        assert_eq!(v.quality, VerdictQuality::Complete);
        assert_eq!(v.stable.len(), obs.stable_on(day(17), &p).len());
    }

    #[test]
    fn labels() {
        assert_eq!(StabilityParams::nd(3).label(), "3d-stable (-7d,+7d)");
        assert_eq!(
            StabilityParams::nd(1).with_window(0, 14).label(),
            "1d-stable (-0d,+14d)"
        );
    }
}
