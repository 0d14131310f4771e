//! Immutable published census snapshots for the serving daemon.
//!
//! The serving robustness posture rests on one rule: **readers never see
//! a census mid-ingest**. Ingest builds everything a query could touch —
//! the census itself, the reference day's active and stable sets, and
//! the aggregate stats — into a fresh [`Snapshot`] *outside* any lock,
//! then publishes it into the [`SnapshotCell`] with a single pointer
//! swap under a briefly held write lock. Readers clone the `Arc` under a
//! read lock (nanoseconds) and keep the snapshot alive for the duration
//! of their request, so a response is internally consistent with exactly
//! one generation even while the next day is being ingested.
//!
//! The generation number is defined as the number of ingested days, so
//! `generation == days` is an invariant every response can carry and the
//! atomicity tests can assert: a torn read would break it.
//!
//! Publishing costs O(new day + window), not O(days): the ingest thread
//! keeps every day's stable set in a [`StableDays`] beside its census
//! and folds in only the day that changed (the update rule and why it is
//! exact are on [`StableDays`]), and the census clone a snapshot takes
//! copies `Arc`s, not sets.

use std::sync::{Arc, RwLock};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams, StableDays};
use v6census_trie::AddrSet;

use crate::ingest::Census;

/// Per-day stability counts — the `/stats` stability histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DayStat {
    /// The observation day.
    pub day: Day,
    /// Active "Other" addresses on the day.
    pub active: usize,
    /// Of those, nd-stable under the snapshot's parameters.
    pub stable: usize,
}

/// Aggregate figures precomputed at publish time so `/stats` is a read,
/// not a computation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotStats {
    /// Reference-day counts by scheme category, in a stable order:
    /// `(label, count)` for teredo / isatap / 6to4 / other / eui64.
    pub scheme_counts: Vec<(&'static str, usize)>,
    /// Per-day active/stable counts, ascending by day.
    pub daily: Vec<DayStat>,
}

/// One immutable, internally consistent view of the census. Everything a
/// query endpoint reads lives here; nothing is computed against shared
/// mutable state.
#[derive(Clone)]
pub struct Snapshot {
    /// Publish generation; equals the number of ingested days.
    pub generation: u64,
    /// The census as of this generation.
    pub census: Census,
    /// The reference day queries run against: the latest ingested day.
    pub reference: Option<Day>,
    /// Stability parameters the `stable` set was computed with.
    pub params: StabilityParams,
    /// Density class `/classify` profiles report against.
    pub dense_class: DensityClass,
    /// Active "Other" addresses on the reference day (the census's own
    /// storage, shared).
    pub active: Arc<AddrSet>,
    /// nd-stable "Other" addresses on the reference day.
    pub stable: AddrSet,
    /// Aggregate `/stats` figures.
    pub stats: SnapshotStats,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("generation", &self.load().generation)
            .finish()
    }
}

impl Snapshot {
    /// Builds a snapshot of `census` from scratch: folds every day into
    /// a fresh [`StableDays`], then assembles it with
    /// [`Snapshot::with_stability`]. Cold start and restore use this; the
    /// ingest loop keeps its [`StableDays`] and folds one day per
    /// generation instead.
    pub fn build(census: Census, params: StabilityParams, dense_class: DensityClass) -> Snapshot {
        let stability = StableDays::of(census.other_daily(), params);
        Snapshot::with_stability(census, &stability, dense_class)
    }

    /// Assembles a snapshot of `census` whose per-day stable sets are
    /// `stability` (which must be current for every day of `census`).
    /// Runs on the ingest thread, outside any lock readers touch; costs
    /// one copy of the reference day's stable set plus O(days) counts.
    pub fn with_stability(
        census: Census,
        stability: &StableDays,
        dense_class: DensityClass,
    ) -> Snapshot {
        let params = *stability.params();
        let obs = census.other_daily();
        let reference = census.days().last();
        let active = reference
            .and_then(|r| obs.shared(r))
            .map_or_else(|| Arc::new(AddrSet::new()), Arc::clone);
        let stable = reference
            .and_then(|r| stability.on(r))
            .cloned()
            .unwrap_or_default();
        let scheme_counts = match reference.and_then(|r| census.summary(r)) {
            None => Vec::new(),
            Some(s) => vec![
                ("teredo", s.teredo.len()),
                ("isatap", s.isatap.len()),
                ("6to4", s.sixtofour.len()),
                ("other", s.other.len()),
                ("eui64", s.eui64.len()),
            ],
        };
        let daily: Vec<DayStat> = census
            .days()
            .map(|day| DayStat {
                day,
                active: obs.get(day).map_or(0, AddrSet::len),
                stable: stability.on(day).map_or(0, AddrSet::len),
            })
            .collect();
        let generation = daily.len() as u64;
        Snapshot {
            generation,
            census,
            reference,
            params,
            dense_class,
            active,
            stable,
            stats: SnapshotStats {
                scheme_counts,
                daily,
            },
        }
    }

    /// Number of ingested days (always equals `generation`).
    pub fn days(&self) -> u64 {
        self.stats.daily.len() as u64
    }
}

/// The publish point: a swappable pointer to the current [`Snapshot`].
///
/// `load` takes a read lock only long enough to clone the `Arc`;
/// `publish` takes the write lock only long enough to swap the pointer.
/// Snapshot *construction* never happens under either lock, so readers
/// never block on ingest. Lock poisoning is survived the same way the
/// supervisor survives it: a poisoned cell still holds a complete
/// snapshot (the swap is a single pointer store), so we take the inner
/// value and keep serving.
pub struct SnapshotCell {
    inner: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: Snapshot) -> SnapshotCell {
        SnapshotCell {
            inner: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Cheap: one `Arc` clone under a read lock.
    pub fn load(&self) -> Arc<Snapshot> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Publishes a new snapshot, returning its generation. The write
    /// lock is held only for the pointer swap.
    pub fn publish(&self, snapshot: Snapshot) -> u64 {
        let generation = snapshot.generation;
        let fresh = Arc::new(snapshot);
        let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
        *slot = fresh;
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::world::epochs;
    use v6census_synth::{World, WorldConfig};

    fn snapshot_of(days: u32) -> Snapshot {
        let world = World::standard(WorldConfig::tiny(7));
        let first = epochs::mar2015();
        let census = Census::run(&world, first, first + (days as i32) - 1);
        Snapshot::build(census, StabilityParams::nd(3), DensityClass::new(8, 64))
    }

    #[test]
    fn generation_equals_days() {
        for days in [1u32, 3, 5] {
            let s = snapshot_of(days);
            assert_eq!(s.generation, days as u64);
            assert_eq!(s.days(), days as u64);
            assert_eq!(s.stats.daily.len(), days as usize);
        }
        let empty = Snapshot::build(
            Census::new_empty(),
            StabilityParams::nd(3),
            DensityClass::new(8, 64),
        );
        assert_eq!(empty.generation, 0);
        assert!(empty.reference.is_none());
        assert!(empty.active.is_empty());
    }

    #[test]
    fn reference_products_are_consistent() {
        let s = snapshot_of(5);
        let r = s.reference.expect("5 days ingested");
        assert_eq!(s.active.len(), s.census.other_daily().on(r).len());
        assert!(s.stable.len() <= s.active.len());
        assert_eq!(
            s.stats.scheme_counts.iter().map(|&(_, n)| n).sum::<usize>(),
            s.census
                .summary(r)
                .map(|d| d.total() + d.eui64.len())
                .unwrap_or(0),
            "scheme counts cover the reference day (other includes eui64)"
        );
        let last = s.stats.daily.last().expect("daily stats present");
        assert_eq!(last.active, s.active.len());
        assert_eq!(last.stable, s.stable.len());
    }

    #[test]
    fn cell_swaps_whole_snapshots() {
        let cell = SnapshotCell::new(snapshot_of(1));
        assert_eq!(cell.load().generation, 1);
        let held = cell.load();
        assert_eq!(cell.publish(snapshot_of(3)), 3);
        // The published snapshot replaced the pointer…
        assert_eq!(cell.load().generation, 3);
        assert_eq!(cell.load().days(), 3);
        // …but a reader that loaded before the swap still holds a
        // complete, consistent old generation.
        assert_eq!(held.generation, 1);
        assert_eq!(held.days(), 1);
    }
}
