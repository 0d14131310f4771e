//! Output checks. Every mismatch is one failed operation.
//!
//! * Census: the supervised run over the day files must reproduce the
//!   Table 1 text, the 3d-stable set and the dense-prefix list computed
//!   on the in-memory `Census::run` path from the same seeded world.
//!   That path never parses text, so it checks the parser independently
//!   of the seed. Every file must be ingested, with no gaps, at `exact`
//!   quality.
//! * Serve: each response's generation, active/stable flags, member and
//!   dense counts must equal `core::query` on the snapshot of that
//!   generation.

use crate::inputs;
use crate::loadgen::Reply;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv6Addr;
use std::path::Path;
use v6census_addr::{Addr, Prefix};
use v6census_census::stream::{FileOutcome, IngestError};
use v6census_census::supervisor::{PipelineConfig, SupervisedRun};
use v6census_census::tables::{self, EpochSpec};
use v6census_census::{Census, Snapshot};
use v6census_core::query::{days_seen, prefix_profile};
use v6census_core::temporal::Day;
use v6census_trie::{AddrSet, DensePrefix, RadixTree};

/// Counts attempted and failed operations, keeping the first few
/// failure descriptions for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failures, described.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure is described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// The census products as text, so they compare byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// The rendered Table 1 for the reference day.
    pub table1: String,
    /// The 3d-stable Other addresses, one hex key per line.
    pub stable: String,
    /// The `8@/64`-dense prefixes, `prefix count` per line.
    pub dense: String,
}

/// One hex key per line.
pub fn stable_text(set: &AddrSet) -> String {
    let mut out = String::new();
    for k in set.keys() {
        let _ = writeln!(out, "{k:032x}");
    }
    out
}

/// `prefix count` per line, in the given order.
pub fn dense_text(dense: &[DensePrefix]) -> String {
    let mut out = String::new();
    for d in dense {
        let _ = writeln!(out, "{} {}", d.prefix, d.count);
    }
    out
}

impl Expected {
    /// The products of an in-memory census: Table 1, gap-aware stability
    /// and an unsharded trie densify of the reference day.
    pub fn from_census(census: &Census, reference: Day) -> Expected {
        let spec = [EpochSpec {
            label: "reference",
            reference,
        }];
        // The settings the measured census runs with.
        let cfg = PipelineConfig::default();
        let table1 = tables::table1(census, &spec).0.render();
        let stable = census
            .other_daily()
            .stable_on_gapped(reference, &cfg.params, cfg.gap_policy)
            .stable;
        let mut tree = RadixTree::new();
        for a in census.other_daily().on(reference).iter() {
            tree.insert_addr(a, 1);
        }
        Expected {
            table1,
            stable: stable_text(&stable),
            dense: dense_text(&tree.densify(cfg.dense_n, cfg.dense_p)),
        }
    }

    /// The expected products for a seeded world, via `Census::run`.
    pub fn from_world(seed: u64, scale: f64) -> Expected {
        let world = inputs::world(seed, scale);
        let census = Census::run(&world, inputs::first_day(), inputs::last_day());
        Expected::from_census(&census, inputs::reference_day())
    }

    /// Writes the three products under `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        for (name, text) in [
            ("table1.txt", &self.table1),
            ("stable.txt", &self.stable),
            ("dense.txt", &self.dense),
        ] {
            std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Reads what [`Expected::write`] wrote.
    pub fn read(dir: &Path) -> Result<Expected, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
        };
        Ok(Expected {
            table1: read("table1.txt")?,
            stable: read("stable.txt")?,
            dense: read("dense.txt")?,
        })
    }
}

/// Checks one supervised run: each of `days` files ingested, then no
/// gaps, exact quality, and the three products equal to `exp`.
pub fn check_census(
    run: &Result<SupervisedRun, IngestError>,
    exp: &Expected,
    days: usize,
) -> Tally {
    let mut t = Tally::default();
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            for _ in 0..days + 5 {
                t.check(false, || format!("run_census failed: {e}"));
            }
            return t;
        }
    };
    let files = &run.report.files;
    for i in 0..days {
        let f = files.get(i);
        t.check(
            f.is_some_and(|f| f.outcome == FileOutcome::Ingested),
            || match f {
                Some(f) => format!("{} not ingested: {:?}", f.path.display(), f.outcome),
                None => format!("file {i} missing from the report"),
            },
        );
    }
    t.check(run.report.gaps.is_empty(), || {
        format!("gaps: {:?}", run.report.gaps)
    });
    t.check(run.overall_quality().is_exact(), || {
        format!("quality {:?}", run.overall_quality())
    });
    let table1 = run.table1.as_ref().and_then(|a| a.value.as_deref());
    t.check(table1 == Some(exp.table1.as_str()), || {
        "Table 1 differs from the in-memory census".into()
    });
    let stable = run
        .stability
        .as_ref()
        .and_then(|a| a.value.as_ref())
        .map(|v| stable_text(&v.stable));
    t.check(stable.as_deref() == Some(exp.stable.as_str()), || {
        "3d-stable set differs from the in-memory census".into()
    });
    let dense = run.dense.as_ref().map(|a| dense_text(&a.value));
    t.check(dense.as_deref() == Some(exp.dense.as_str()), || {
        "dense-prefix list differs from the in-memory census".into()
    });
    t
}

/// One query of a serve workload.
#[derive(Clone, Debug)]
pub enum Query {
    /// `/stable/<addr>`.
    Stable(u128),
    /// `/classify/<prefix>`.
    Classify(u128, u8),
    /// `/stats`.
    Stats,
}

impl Query {
    /// The request target.
    pub fn target(&self) -> String {
        match *self {
            Query::Stable(a) => format!("/stable/{}", Ipv6Addr::from(a)),
            Query::Classify(a, len) => format!("/classify/{}/{len}", Ipv6Addr::from(a)),
            Query::Stats => "/stats".to_string(),
        }
    }

    /// A `/classify` of `a`'s enclosing /`len`.
    pub fn classify(a: u128, len: u8) -> Query {
        let mask = if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        };
        Query::Classify(a & mask, len)
    }
}

/// The raw text of `"key":value` in a flat JSON body.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat)? + pat.len();
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num(body: &str, key: &str) -> Option<u64> {
    field(body, key)?.parse().ok()
}

/// The generation a response reports.
pub fn generation(reply: &Reply) -> Option<u64> {
    match reply {
        Reply::Http(200, body) => num(body, "generation"),
        _ => None,
    }
}

/// Per-snapshot memo of `prefix_profile` answers (members, dense
/// prefixes, dense members), so repeated targets are computed once.
pub type ProfileMemo = HashMap<(u128, u8), (usize, usize, usize)>;

/// Checks one reply against the snapshot it claims to come from.
pub fn check_reply(
    q: &Query,
    reply: &Reply,
    snap: &Snapshot,
    memo: &mut ProfileMemo,
) -> Result<(), String> {
    let body = match reply {
        Reply::Http(200, body) => body,
        Reply::Http(code, body) => return Err(format!("{}: HTTP {code} {body}", q.target())),
        Reply::Error(e) => return Err(format!("{}: {e}", q.target())),
    };
    let mismatch = |what: &str| format!("{}: {what} differs in {}", q.target(), body.trim());
    if num(body, "generation") != Some(snap.generation) || num(body, "days") != Some(snap.days()) {
        return Err(mismatch("generation"));
    }
    match *q {
        Query::Stable(a) => {
            let a = Addr(a);
            let seen = days_seen(snap.census.other_daily(), a).len() as u64;
            let flag = |b: bool| Some(if b { "true" } else { "false" });
            if field(body, "active") != flag(snap.active.contains(a))
                || field(body, "stable") != flag(snap.stable.contains(a))
                || num(body, "days_seen") != Some(seen)
            {
                return Err(mismatch("stable answer"));
            }
        }
        Query::Classify(a, len) => {
            let (members, dense, dense_members) = *memo.entry((a, len)).or_insert_with(|| {
                let p = prefix_profile(&snap.active, Prefix::new(Addr(a), len), snap.dense_class);
                (p.members, p.dense_prefixes, p.dense_members)
            });
            let dense_obj = body.find("\"dense\":").map(|i| &body[i..]).unwrap_or("");
            if num(body, "members") != Some(members as u64)
                || num(dense_obj, "prefixes") != Some(dense as u64)
                || num(dense_obj, "members") != Some(dense_members as u64)
            {
                return Err(mismatch("classify answer"));
            }
        }
        Query::Stats => {
            if num(body, "active") != Some(snap.active.len() as u64)
                || num(body, "stable") != Some(snap.stable.len() as u64)
            {
                return Err(mismatch("stats answer"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_census::supervisor::run_census;

    const SEED: u64 = 0x76c3_15c3_0001;
    const SCALE: f64 = 0.002;

    fn fixture(name: &str) -> std::path::PathBuf {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        inputs::generate(SEED, SCALE, &dir).unwrap();
        dir
    }

    fn census_run(dir: &Path) -> Result<SupervisedRun, IngestError> {
        let cfg = PipelineConfig {
            reference: Some(inputs::reference_day()),
            ..PipelineConfig::default()
        };
        run_census(dir, &cfg)
    }

    #[test]
    fn oracle_passes_a_clean_run_and_catches_a_corrupted_day() {
        let dir = fixture("oracle");
        let exp = Expected::from_world(SEED, SCALE);
        let days = inputs::DAYS as usize;
        let clean = check_census(&census_run(&dir), &exp, days);
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);
        assert_eq!(clean.attempted, days as u64 + 5);

        // Truncate the reference day mid-file: it can no longer be
        // ingested, so the run must show failed operations.
        let victim = inputs::day_file(&dir, inputs::reference_day());
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() / 2]).unwrap();
        let bad = check_census(&census_run(&dir), &exp, days);
        assert!(bad.failed >= 2, "{bad:?}");
        assert!(
            bad.notes.iter().any(|n| n.contains("not ingested")),
            "{bad:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oracle_catches_a_flipped_address() {
        // A corrupted line that still parses changes the data, not the
        // health report: only the product comparison can catch it. Move
        // one 3d-stable address to another /16, so it leaves the set.
        let dir = fixture("flip");
        let exp = Expected::from_world(SEED, SCALE);
        let victim = inputs::day_file(&dir, inputs::reference_day());
        let text = std::fs::read_to_string(&victim).unwrap();
        let stable_line = |l: &&str| {
            let addr = l.split('\t').next().unwrap_or("");
            addr.parse::<Ipv6Addr>()
                .is_ok_and(|a| exp.stable.contains(&format!("{:032x}", u128::from(a))))
        };
        let line = text.lines().find(stable_line).expect("a stable address");
        let (addr, rest) = line.split_once('\t').unwrap();
        let moved = format!("3fff:{}\t{rest}", &addr[addr.find(':').unwrap() + 1..]);
        std::fs::write(&victim, text.replacen(line, &moved, 1)).unwrap();
        let bad = check_census(&census_run(&dir), &exp, inputs::DAYS as usize);
        assert!(bad.failed >= 1, "{bad:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_fields_and_targets() {
        let body = "{\"generation\":15,\"days\":15,\"members\":7,\"dense\":{\"class\":\"8@/64-dense\",\"prefixes\":2,\"members\":30},\"asn\":null}";
        assert_eq!(field(body, "generation"), Some("15"));
        assert_eq!(num(body, "members"), Some(7));
        let dense = &body[body.find("\"dense\":").unwrap()..];
        assert_eq!(num(dense, "members"), Some(30));
        assert_eq!(field(body, "asn"), Some("null"));
        assert_eq!(field(body, "absent"), None);
        assert_eq!(generation(&Reply::Http(200, body.into())), Some(15));
        assert_eq!(generation(&Reply::Http(503, body.into())), None);
        let q = Query::classify(0x2001_0db8_1234_5678_9abc_def0_1234_5678, 48);
        assert_eq!(q.target(), "/classify/2001:db8:1234::/48");
        assert_eq!(Query::Stable(1).target(), "/stable/::1");
    }
}
