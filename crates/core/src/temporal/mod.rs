//! Temporal classification (§5.1): address and prefix stability over time.

mod day;
mod longest_stable;
mod stability;

pub use day::Day;
pub use longest_stable::{
    longest_stable_prefixes, spectrum_between, stable_fraction_spectrum, StableSpectrum,
};
pub use stability::{
    DailyObservations, EpochStability, GapPolicy, StabilityParams, StabilityVerdict, StableDays,
    VerdictQuality, WeeklyStability,
};
