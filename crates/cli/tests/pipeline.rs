//! End-to-end pipeline tests over the pure subcommand functions: the
//! `synth | classify | dense | targets | stability` workflows a user
//! would run through shell pipes, exercised without spawning processes.

use v6census_cli::commands::{
    aggregate, classify, dense, mra, profile, ptr, stability, stable, synth, targets, DayFile,
};
use v6census_cli::Flags;

fn flags(args: &[&str]) -> Flags {
    Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// Strips the hits/kind columns from a synth log, leaving bare addresses.
fn addrs_only(log: &str) -> String {
    log.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(|a| format!("{a}\n"))
        .collect()
}

#[test]
fn synth_feeds_every_analysis_command() {
    let log = synth(&flags(&["--scale", "0.005", "--day", "2015-03-17"])).unwrap();
    let addrs = addrs_only(&log);
    assert!(addrs.lines().count() > 500);

    // classify: histogram covers the expected schemes.
    let c = classify(&addrs, &flags(&[])).unwrap();
    for label in ["pseudorandom", "6to4", "low-iid", "eui64"] {
        assert!(c.contains(label), "classify output missing {label}");
    }

    // mra: renders with all three resolutions.
    let m = mra(&addrs, &flags(&["--title", "pipeline"])).unwrap();
    assert!(m.contains("pipeline"));
    assert!(m.contains("single bits"));

    // dense: server blocks guarantee dense /112s.
    let d = dense(&addrs, &flags(&["--class", "2@/112"])).unwrap();
    assert!(d.lines().any(|l| l.contains("/112\t")), "{d}");

    // aggregate: n_0 = 1 row present.
    let a = aggregate(&addrs, &flags(&[])).unwrap();
    assert!(a.lines().any(|l| l.starts_with("0\t1\t")));

    // targets: produces probe candidates from the dense blocks.
    let t = targets(&addrs, &flags(&["--budget", "50"])).unwrap();
    assert_eq!(t.lines().filter(|l| !l.starts_with('#')).count(), 50);

    // profile: conserves total hits from the weighted log.
    let p = profile(&log, &flags(&["--threshold", "0.02"])).unwrap();
    assert!(p.contains("aguri profile"));

    // ptr: roundtrip through ip6.arpa for the first few addresses.
    let few: String = addrs.lines().take(5).map(|l| format!("{l}\n")).collect();
    let names = ptr(&few, &flags(&[])).unwrap();
    let back = ptr(&names, &flags(&["--reverse"])).unwrap();
    assert_eq!(back, few);
}

#[test]
fn cross_epoch_and_daily_stability_agree_on_direction() {
    // Two epochs of synthetic logs.
    let now = addrs_only(&synth(&flags(&["--scale", "0.005", "--day", "2015-03-17"])).unwrap());
    let before = addrs_only(&synth(&flags(&["--scale", "0.005", "--day", "2014-09-17"])).unwrap());
    let spectrum = stable(&now, &before, &flags(&[])).unwrap();
    assert!(spectrum.contains("stable boundary"), "{spectrum}");

    // Daily files across one window.
    let mut days = Vec::new();
    for d in 14..=20 {
        let date = format!("2015-03-{d}");
        let text = addrs_only(&synth(&flags(&["--scale", "0.005", "--day", &date])).unwrap());
        days.push(DayFile {
            day: v6census_core::temporal::Day::parse_ymd(&date).unwrap(),
            text,
        });
    }
    let report = stability(days, &flags(&["--reference", "2015-03-17"])).unwrap();
    assert!(report.contains("3d-stable (-7d,+7d)"));
    // /64 stability exceeds address stability (the paper's headline
    // ordering) — parse the two percentages.
    let pcts: Vec<f64> = report
        .lines()
        .filter(|l| l.contains("  3d-stable (-7d,+7d)") && l.trim_end().ends_with("%)"))
        .filter_map(|l| {
            l.rsplit('(')
                .next()?
                .trim_end_matches(')')
                .trim_end_matches('%')
                .parse()
                .ok()
        })
        .collect();
    assert_eq!(pcts.len(), 2, "{report}");
    assert!(pcts[1] > pcts[0], "addr {} vs /64 {}", pcts[0], pcts[1]);
}
