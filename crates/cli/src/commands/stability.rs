//! `v6census stability` — the paper's full nd-stable analysis (§5.1)
//! over user-supplied daily observation files.
//!
//! Input: a directory of files whose names start with a valid
//! `YYYY-MM-DD` (any suffix; listed by `census::stream::day_files`, as
//! for `census`), each holding one address per line. Output: per-day active counts and the
//! nd-stable / not-nd-stable partition for a reference day, for both
//! addresses and /64s — i.e. one column of the paper's Table 2a/2b for
//! your own data.

use crate::input::parse_addr_lines;
use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};

/// One day's input: its date and file contents.
pub struct DayFile {
    /// The observation date.
    pub day: Day,
    /// File contents (one address per line).
    pub text: String,
}

/// Runs the subcommand over pre-read day files (main.rs handles I/O).
pub fn stability(days: Vec<DayFile>, flags: &Flags) -> Result<String, CliError> {
    if days.is_empty() {
        return Err(err(
            "no day files found (expected names like 2015-03-17.txt with one address per line)",
        ));
    }
    let n: u32 = flags.get_parsed("n", 3u32)?;
    let reach: u32 = flags.get_parsed("window", 7u32)?;
    let slew: u32 = flags.get_parsed("slew", 0u32)?;
    if n == 0 {
        return Err(err("--n must be at least 1"));
    }
    let params = StabilityParams::nd(n)
        .with_window(reach, reach)
        .with_slew(slew);

    let mut obs = DailyObservations::new();
    let mut total_bad = 0usize;
    for f in &days {
        let (addrs, bad) = parse_addr_lines(&f.text);
        total_bad += bad;
        obs.record(f.day, v6census_trie::AddrSet::from_iter(addrs));
    }
    let reference = match flags.get("reference") {
        Some(s) => super::parse_day("reference", s)?,
        None => {
            // Default: the middle observed day.
            let all: Vec<Day> = obs.days().collect();
            all[all.len() / 2]
        }
    };

    let mut out = format!(
        "# {} over {} days ({} unparseable lines)\n\n",
        params.label(),
        obs.day_count(),
        total_bad
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10}",
        "day", "active", "∩reference", "/64s"
    );
    let ref_set = obs.on(reference);
    for d in obs.days().collect::<Vec<_>>() {
        let set = obs.on(d);
        let marker = if d == reference { "  <- reference" } else { "" };
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>10}{marker}",
            d.to_string(),
            set.len(),
            ref_set.intersection_len(&set),
            set.map_prefix(64).len(),
        );
    }

    for (what, store) in [
        ("addresses", obs.clone()),
        ("/64 prefixes", obs.prefix_view(64)),
    ] {
        let active = store.on(reference);
        if active.is_empty() {
            let _ = writeln!(out, "\n{what}: reference day has no observations");
            continue;
        }
        let stable = store.stable_on(reference, &params);
        let _ = writeln!(
            out,
            "\n{what} on {reference}:\n  {:<16} {:>10} ({:.2}%)\n  {:<16} {:>10} ({:.2}%)",
            params.label(),
            stable.len(),
            100.0 * stable.len() as f64 / active.len() as f64,
            format!("not {}d-stable", params.n),
            active.len() - stable.len(),
            100.0 * (active.len() - stable.len()) as f64 / active.len() as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_census::stream::day_from_filename;

    fn dayfile(date: &str, addrs: &[&str]) -> DayFile {
        DayFile {
            day: day_from_filename(date).unwrap(),
            text: addrs.join("\n"),
        }
    }

    #[test]
    fn date_parsing_from_names() {
        assert_eq!(
            day_from_filename("2015-03-17.txt"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert_eq!(
            day_from_filename("2015-03-17"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert_eq!(day_from_filename("notes.txt"), None);
        assert_eq!(day_from_filename("2015-13-17.txt"), None);
        // The same names `census` accepts: zero-padded, real dates only.
        assert_eq!(day_from_filename("2015-3-7.txt"), None);
        assert_eq!(day_from_filename("2015-02-30.txt"), None);
        let bad_reference = Flags::parse(&["--reference".into(), "2015-02-30".into()]);
        let days = vec![dayfile("2015-03-17.txt", &["2001:db8::a"])];
        assert!(stability(days, &bad_reference).unwrap_err().usage);
    }

    #[test]
    fn partitions_reference_day() {
        let days = vec![
            dayfile("2015-03-16.txt", &["2001:db8::a", "2001:db8::b"]),
            dayfile("2015-03-17.txt", &["2001:db8::a", "2001:db8::c"]),
            dayfile("2015-03-20.txt", &["2001:db8::a"]),
        ];
        let f = Flags::parse(&["--reference".into(), "2015-03-17".into()]);
        let out = stability(days, &f).unwrap();
        // ::a is 3d-stable (17th + 20th); ::c is not.
        assert!(out.contains("3d-stable (-7d,+7d)"));
        assert!(out.contains("1 (50.00%)"), "{out}");
        assert!(out.contains("<- reference"));
    }

    #[test]
    fn parameter_overrides() {
        let days = vec![
            dayfile("2015-03-17.txt", &["2001:db8::a"]),
            dayfile("2015-03-18.txt", &["2001:db8::a"]),
        ];
        let f = Flags::parse(&[
            "--n".into(),
            "1".into(),
            "--window".into(),
            "3".into(),
            "--reference".into(),
            "2015-03-17".into(),
        ]);
        let out = stability(days, &f).unwrap();
        assert!(out.contains("1d-stable (-3d,+3d)"));
        assert!(out.contains("1 (100.00%)"), "{out}");
    }

    #[test]
    fn errors() {
        assert!(stability(vec![], &Flags::default()).is_err());
        let days = vec![dayfile("2015-03-17.txt", &["2001:db8::a"])];
        assert!(stability(days, &Flags::parse(&["--n".into(), "0".into()])).is_err());
    }
}
