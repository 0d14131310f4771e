//! Shared plumbing for `repro_all` (the one regenerator of every paper
//! table and figure) and the four benches that write `BENCH_*.json`.
//!
//! Every binary accepts `--scale <f64>` (default 0.25; 1.0 ≈ 1/1000 of
//! the paper's population), `--seed <u64>`, and `--out <dir>` (write
//! TSV/report files next to printing them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;
use v6census_census::{Census, RoutingTable};
use v6census_core::temporal::Day;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

/// Command-line options shared by all regenerator binaries.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Population scale (1.0 ≈ 1/1000 of the paper).
    pub scale: f64,
    /// World seed.
    pub seed: u64,
    /// Optional output directory for TSV/report files.
    pub out: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            scale: 0.25,
            seed: 0x76c3_15c3_0001,
            out: None,
        }
    }
}

impl Opts {
    /// Parses `--scale`, `--seed`, `--out` from `std::env::args`.
    /// Unknown flags and a `--scale` outside `(0, 1000]` abort with a
    /// usage message (exit 2).
    pub fn parse() -> Opts {
        Opts::parse_from(std::env::args().skip(1).collect())
    }

    /// Testable core of [`Opts::parse`].
    pub fn parse_from(args: Vec<String>) -> Opts {
        let mut opts = Opts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
            };
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value()
                        .parse()
                        .ok()
                        .filter(|&s| WorldConfig::valid_scale(s))
                        .unwrap_or_else(|| usage("--scale must be positive and at most 1000"))
                }
                "--seed" => {
                    opts.seed = value()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --seed value"))
                }
                "--out" => opts.out = Some(PathBuf::from(value())),
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }

    /// Builds the world for these options.
    pub fn world(&self) -> World {
        World::standard(WorldConfig {
            seed: self.seed,
            scale: self.scale,
        })
    }

    /// Prints a report section and optionally writes it under `--out`.
    pub fn emit(&self, name: &str, content: &str) {
        println!("==== {name} ====");
        println!("{content}");
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).expect("create --out dir");
            let path = dir.join(name);
            std::fs::write(&path, content).expect("write report file");
            eprintln!("[wrote {}]", path.display());
        }
    }
}

/// Writes a benchmark JSON point at the repository root (next to the
/// workspace `Cargo.toml`), unconditionally — the `BENCH_*.json` files
/// are committed as the tracked baseline and uploaded by CI as build
/// artifacts. `Opts::emit` still honors `--out` for ad-hoc copies.
pub fn write_baseline(name: &str, content: &str) {
    let path = baseline_path(name);
    std::fs::write(&path, content).expect("write baseline JSON at repo root");
    eprintln!("[baseline {}]", path.display());
}

/// Where [`write_baseline`] puts (and the committed tree keeps) a
/// `BENCH_*.json` point — for benches that inspect the existing baseline
/// before deciding whether to overwrite it.
pub fn baseline_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

pub mod naive;

/// Times `f` over `samples` runs after one untimed warm-up and returns
/// `(min_ms, median_ms)`. The closure's result passes through
/// [`std::hint::black_box`] so the work is not optimized out; any
/// assertion inside it runs on every sample.
pub fn time_ms<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    (times[0], times[times.len() / 2])
}

/// The sample count for a `BENCH_*.json` run: `quick` when
/// `BENCH_QUICK` is set (CI smoke runs), `full` otherwise.
pub fn samples(quick: usize, full: usize) -> usize {
    if std::env::var_os("BENCH_QUICK").is_some() {
        quick
    } else {
        full
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--scale F (0 < F <= 1000)] [--seed N] [--out DIR]");
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// The three study epochs with the paper's column labels.
pub fn epoch_specs() -> Vec<v6census_census::tables::EpochSpec> {
    use v6census_census::tables::EpochSpec;
    vec![
        EpochSpec {
            label: "Mar 17, 2014",
            reference: epochs::mar2014(),
        },
        EpochSpec {
            label: "Sep 17, 2014",
            reference: epochs::sep2014(),
        },
        EpochSpec {
            label: "Mar 17, 2015",
            reference: epochs::mar2015(),
        },
    ]
}

/// A fully ingested snapshot: the three 21-day windows (±7 days around
/// each epoch's reference week) plus the routing table — enough for every
/// table and figure.
pub struct Snapshot {
    /// The world.
    pub world: World,
    /// Census over all ingested days.
    pub census: Census,
    /// Routing table as of March 2015.
    pub rt: RoutingTable,
}

impl Snapshot {
    /// Days ingested per epoch: reference−7 .. reference+13 (covers the
    /// ±7d window of every day in the reference week).
    pub fn epoch_days(reference: Day) -> impl Iterator<Item = Day> {
        (reference - 7).range_inclusive(reference + 13)
    }

    /// Builds the snapshot (generates 63 daily logs; the dominant cost).
    pub fn build(opts: &Opts) -> Snapshot {
        let world = opts.world();
        let mut census = Census::new_empty();
        for e in [epochs::mar2014(), epochs::sep2014(), epochs::mar2015()] {
            for day in Self::epoch_days(e) {
                census.ingest(&world.day_log(day));
            }
        }
        let rt = RoutingTable::of(&world, epochs::mar2015());
        Snapshot { world, census, rt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::world::epochs;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse_from(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn defaults_and_overrides() {
        let d = parse(&[]);
        assert_eq!(d.scale, 0.25);
        assert!(d.out.is_none());
        let o = parse(&["--scale", "0.5", "--seed", "9", "--out", "/tmp/x"]);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }

    #[test]
    fn time_ms_warms_up_then_samples() {
        let mut runs = 0;
        let (min, median) = time_ms(5, || runs += 1);
        assert_eq!(runs, 6);
        assert!(0.0 <= min && min <= median);
    }

    #[test]
    fn world_uses_options() {
        let o = parse(&["--scale", "0.01", "--seed", "5"]);
        let w = o.world();
        assert_eq!(w.config().seed, 5);
        assert!((w.config().scale - 0.01).abs() < 1e-12);
    }

    #[test]
    fn epoch_specs_cover_the_study() {
        let specs = epoch_specs();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].reference, epochs::mar2014());
        assert_eq!(specs[2].reference, epochs::mar2015());
        // Snapshot windows cover every reference week's ±7d reach.
        let days: Vec<_> = Snapshot::epoch_days(epochs::mar2015()).collect();
        assert_eq!(days.len(), 21);
        assert_eq!(days[0], epochs::mar2015() - 7);
        assert_eq!(days[20], epochs::mar2015() + 13);
    }
}
