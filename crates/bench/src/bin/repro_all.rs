//! Runs the entire reproduction — every table, figure, and in-text
//! experiment of §4–§6 plus the §7.2 future work — and writes one
//! consolidated report (the source of EXPERIMENTS.md's measured column;
//! `--scale 1.0 --out DIR` reproduces `results/full/` byte-for-byte).
//!
//! Cost: generates 63 daily logs once and reuses them everywhere.

use std::collections::BTreeMap;
use v6census_addr::scheme::classify;
use v6census_addr::{Addr, AddressScheme, Iid};
use v6census_bench::{epoch_specs, Opts, Snapshot};
use v6census_census::experiments::{
    classifier_evaluation, dense_www, eui64_analysis, ptr_harvest, router_discovery, sample_every,
    stable_nid_by_mac,
};
use v6census_census::figures::{
    asn_highlights, AsnDistributionFigure, MraFigure, PopulationFigure, SegmentRatioFigure,
    StabilityFigure,
};
use v6census_census::humane::si;
use v6census_census::plot::{
    ascii_ccdf, ascii_mra, ascii_stability, tsv_ccdf, tsv_mra, tsv_stability,
};
use v6census_census::svg::{svg_ccdf, svg_mra};
use v6census_census::tables::{table1, Table2, Table3};
use v6census_core::temporal::{spectrum_between, stable_fraction_spectrum, Day, StabilityParams};
use v6census_synth::router::ProbeSim;
use v6census_synth::world::{asns, epochs};
use v6census_trie::AddrSet;

fn main() {
    let opts = Opts::parse();
    let t0 = std::time::Instant::now();
    eprintln!(
        "[repro-all] building 3-epoch snapshot at scale {} (63 daily logs)…",
        opts.scale
    );
    let snap = Snapshot::build(&opts);
    eprintln!("[repro-all] snapshot ready in {:.1?}", t0.elapsed());
    let specs = epoch_specs();
    let params = StabilityParams::three_day();
    let d15 = epochs::mar2015();
    let week15: Vec<Day> = d15.range_inclusive(d15 + 6).collect();
    let week_set = snap.census.other_over(week15.iter().copied());

    // ---- Table 1 -------------------------------------------------------
    let (t1d, t1w) = table1(&snap.census, &specs);
    opts.emit("table1a_per_day.txt", &t1d.render());
    opts.emit("table1b_per_week.txt", &t1w.render());

    // ---- Table 2 -------------------------------------------------------
    for (name, caption, obs, weekly) in [
        (
            "table2a_addr_daily.txt",
            "(a) Stability of IPv6 addresses per day",
            snap.census.other_daily(),
            false,
        ),
        (
            "table2b_64_daily.txt",
            "(b) Stability of /64 prefixes per day",
            snap.census.other64_daily(),
            false,
        ),
        (
            "table2c_addr_weekly.txt",
            "(c) Stability of IPv6 addresses per week",
            snap.census.other_daily(),
            true,
        ),
        (
            "table2d_64_weekly.txt",
            "(d) Stability of /64 prefixes per week",
            snap.census.other64_daily(),
            true,
        ),
    ] {
        let t = if weekly {
            Table2::weekly(caption, obs, &specs, params)
        } else {
            Table2::daily(caption, obs, &specs, params)
        };
        opts.emit(name, &t.render());
    }

    // ---- Table 3 -------------------------------------------------------
    let sim = ProbeSim::new(&snap.world, d15);
    let stable14 = snap
        .census
        .other_daily()
        .stable_over_week(epochs::mar2014(), &params)
        .stable
        .union(
            &snap
                .census
                .other_daily()
                .stable_over_week(epochs::sep2014(), &params)
                .stable,
        );
    let actives15 = snap.census.other_daily().on(d15);
    let mut clients = sample_every(&stable14, (12_000.0 * opts.scale) as usize);
    clients.extend(sample_every(&actives15, (6_000.0 * opts.scale) as usize));
    let routers = sim.router_dataset(&clients);
    let t3 = Table3::compute(&routers);
    opts.emit(
        "table3_dense_routers.txt",
        &format!(
            "Dense prefixes for {} router addrs\n\n{}",
            si(routers.len() as u128),
            t3.render()
        ),
    );

    // ---- Figures -------------------------------------------------------
    opts.emit("fig1_samples.txt", &fig1_samples());

    let by_asn = snap.rt.group_by_asn(&week_set);
    let asn_set = |a: u32| by_asn.get(&a).cloned().unwrap_or_else(AddrSet::new);

    let fig2a = MraFigure::of("(2a) university", &asn_set(asns::UNIVERSITY_FIRST + 1));
    let fig2b = MraFigure::of("(2b) JP telco", &asn_set(asns::JP_ISP));
    opts.emit("fig2a_university.txt", &ascii_mra(&fig2a));
    opts.emit("fig2a_university.tsv", &tsv_mra(&fig2a));
    opts.emit("fig2a_university.svg", &svg_mra(&fig2a));
    opts.emit("fig2b_jp_telco.txt", &ascii_mra(&fig2b));
    opts.emit("fig2b_jp_telco.tsv", &tsv_mra(&fig2b));
    opts.emit("fig2b_jp_telco.svg", &svg_mra(&fig2b));

    let fig3 = PopulationFigure::figure3(&week_set);
    opts.emit("fig3_population_ccdf.txt", &ascii_ccdf(&fig3));
    opts.emit("fig3_population_ccdf.tsv", &tsv_ccdf(&fig3));
    opts.emit(
        "fig3_population_ccdf.svg",
        &svg_ccdf("Figure 3: aggregate populations", &fig3),
    );

    // Restrict the series to the March 2015 window — the snapshot also
    // holds the 2014 epochs, which belong to Table 2, not Figure 4.
    let window = |mut f: StabilityFigure| -> StabilityFigure {
        let keep: Vec<usize> = f
            .days
            .iter()
            .enumerate()
            .filter(|&(_, &day)| day >= d15 - 7 && day <= d15 + 13)
            .map(|(i, _)| i)
            .collect();
        f.days = keep.iter().map(|&i| f.days[i]).collect();
        f.active = keep.iter().map(|&i| f.active[i]).collect();
        f.ref_a = keep.iter().map(|&i| f.ref_a[i]).collect();
        f.ref_b = keep.iter().map(|&i| f.ref_b[i]).collect();
        f
    };
    let fig4a = window(StabilityFigure::of(snap.census.other_daily(), d15, d15 + 6));
    let fig4b = window(StabilityFigure::of(
        snap.census.other64_daily(),
        d15,
        d15 + 6,
    ));
    opts.emit("fig4a_addr_stability.txt", &ascii_stability(&fig4a));
    opts.emit("fig4a_addr_stability.tsv", &tsv_stability(&fig4a));
    opts.emit("fig4b_64_stability.txt", &ascii_stability(&fig4b));
    opts.emit("fig4b_64_stability.tsv", &tsv_stability(&fig4b));

    let eui_week = snap.census.eui64_over(week15.iter().copied());
    let six_month_64s = snap
        .census
        .other64_daily()
        .epoch_stable(
            d15.range_inclusive(d15 + 6),
            epochs::sep2014().range_inclusive(epochs::sep2014() + 6),
        )
        .stable;
    let f5a = AsnDistributionFigure::figure5a(&snap.rt, &week_set, &eui_week, &six_month_64s);
    opts.emit(
        "fig5a_asn_ccdf.txt",
        &format!(
            "{} active ASNs\n{}",
            f5a.active_asns,
            ascii_ccdf(&PopulationFigure {
                series: f5a.series.clone()
            })
        ),
    );
    opts.emit(
        "fig5a_asn_ccdf.tsv",
        &tsv_ccdf(&PopulationFigure { series: f5a.series }),
    );

    let f5b = SegmentRatioFigure::figure5b(&snap.rt, &week_set, 20);
    let mut b_txt = format!("{} BGP prefixes (≥20 addrs)\n", f5b.prefixes);
    for (p, stats) in &f5b.boxes {
        b_txt.push_str(&format!("bits {:>3}-{:<3}  {}\n", p, p + 16, stats));
    }
    opts.emit("fig5b_segment_boxes.txt", &b_txt);

    let sixtofour_week = {
        AddrSet::union_all(
            week15
                .iter()
                .filter_map(|d| snap.census.summary(*d))
                .map(|s| &*s.sixtofour),
        )
    };
    let dept64 = {
        let uni0 = asn_set(asns::UNIVERSITY_FIRST);
        let best = v6census_trie::dense_prefixes_at(&uni0, 2, 64)
            .into_iter()
            .max_by_key(|d| d.count)
            .map(|d| d.prefix);
        AddrSet::from_iter(
            uni0.iter()
                .filter(|&a| best.map(|p| p.contains_addr(a)).unwrap_or(false)),
        )
    };
    for (name, fig) in [
        (
            "fig5c_all",
            MraFigure::of("(5c) all native clients", &week_set),
        ),
        (
            "fig5d_6to4",
            MraFigure::of("(5d) 6to4 clients", &sixtofour_week),
        ),
        (
            "fig5e_us_mobile",
            MraFigure::of("(5e) US mobile carrier", &asn_set(asns::MOBILE_A)),
        ),
        (
            "fig5f_eu_isp",
            MraFigure::of("(5f) EU ISP", &asn_set(asns::EU_ISP)),
        ),
        (
            "fig5g_univ_dept",
            MraFigure::of("(5g) EU univ. dept /64", &dept64),
        ),
        (
            "fig5h_jp_isp",
            MraFigure::of("(5h) JP ISP", &asn_set(asns::JP_ISP)),
        ),
    ] {
        opts.emit(&format!("{name}.txt"), &ascii_mra(&fig));
        opts.emit(&format!("{name}.tsv"), &tsv_mra(&fig));
        opts.emit(&format!("{name}.svg"), &svg_mra(&fig));
    }

    // §6.2.1's deduction: "by comparison to the same plot over only 1
    // day (not shown), we can deduce that this network seems to
    // dynamically assign /64s" — the mobile pool segment fills up over a
    // week far beyond one day's utilization.
    let mob_day = snap
        .rt
        .group_by_asn(&snap.census.other_daily().on(d15))
        .remove(&asns::MOBILE_A)
        .unwrap_or_default();
    let e1 = MraFigure::of("(e′) US mobile carrier — one day", &mob_day);
    opts.emit("fig5e_us_mobile_1day.txt", &ascii_mra(&e1));
    let day64 = mob_day.map_prefix(64).len();
    let week64 = asn_set(asns::MOBILE_A).map_prefix(64).len();
    opts.emit(
        "fig5e_pool_utilization.txt",
        &format!(
            "mobile pool /64s active: {} in one day vs {} over the week (×{:.2})\n\
             — the weekly growth without subscriber growth is the dynamic-pool signature.\n",
            day64,
            week64,
            week64 as f64 / day64.max(1) as f64
        ),
    );

    // ---- In-text experiments --------------------------------------------
    let rd = router_discovery(
        &snap.world,
        &snap.census,
        d15,
        (24_000.0 * opts.scale) as usize,
    );
    opts.emit(
        "router_discovery.txt",
        &format!(
            "targets/strategy {} | baseline {} | stable {} | improvement {:+.1}% (paper +129%)\n",
            rd.targets_per_strategy,
            rd.baseline_routers,
            rd.stable_routers,
            rd.improvement_pct()
        ),
    );

    let e14 = eui64_analysis(&snap.census, &snap.rt, epochs::sep2014());
    let e15 = eui64_analysis(&snap.census, &snap.rt, d15);
    let mut eui_txt = format!(
        "not-3d-stable EUI-64 (Sep'14 wk): {} | IID in >1 addr {:.1}% (62%) | IID in stable addr {:.1}% (14%)\n",
        e14.not_stable_eui64,
        e14.frac_iid_multi_addr * 100.0,
        e14.frac_iid_in_stable * 100.0
    );
    for (label, asn, paper) in [
        ("JP ISP", asns::JP_ISP, "99.6%"),
        ("EU ISP", asns::EU_ISP, "67.4%"),
    ] {
        if let Some(share) = e15.single_64_share_by_asn.get(&asn) {
            eui_txt.push_str(&format!(
                "{label} IIDs in one /64: {:.1}% (paper {paper})\n",
                share * 100.0
            ));
        }
    }
    opts.emit("eui64_analysis.txt", &eui_txt);

    let dw = dense_www(&snap.census, d15);
    opts.emit(
        "dense_www.txt",
        &format!(
            "2@/112-dense: {} prefixes | {} addrs | {} possible | density {:.7}\n",
            si(dw.dense_prefixes as u128),
            si(dw.covered_addresses as u128),
            si(dw.possible_addresses),
            dw.density()
        ),
    );

    let ph = ptr_harvest(&snap.world, &routers, &actives15, d15);
    opts.emit(
        "ptr_harvest.txt",
        &format!(
            "3@/120-dense {} prefixes | possible {} | sweep names {} | client names {} | additional {} (paper +47K)\n",
            ph.dense_prefixes,
            si(ph.possible_addresses),
            si(ph.names_from_sweep as u128),
            si(ph.names_from_clients as u128),
            si(ph.additional_names() as u128)
        ),
    );

    let h = asn_highlights(&snap.rt, &week_set, &six_month_64s);
    let ev = classifier_evaluation(&snap.world, &snap.census, d15);
    opts.emit(
        "highlights.txt",
        &format!(
            "top-5 ASNs {:?}\ntop-5 /64 share {:.1}% (85%) | top-5 addr share {:.1}% (59%) | 6m-common in one ASN {:.1}% (74%)\n\
             malone recall {:.1}% (≈73%) | stable lookalikes {:.1}% | privacy among 3d-stable {:.3}% (≈0)\n",
            h.top5_asns,
            h.top5_share_64s * 100.0,
            h.top5_share_addrs * 100.0,
            h.six_month_single_asn_share * 100.0,
            ev.malone_recall * 100.0,
            ev.stable_lookalike_rate * 100.0,
            ev.stable_privacy_contamination * 100.0
        ),
    );

    opts.emit("stable_prefixes.txt", &stable_prefixes(&snap, &by_asn));

    eprintln!("[repro-all] complete in {:.1?}", t0.elapsed());
}

/// Figure 1: the paper's four sample addresses with the content-based
/// classification each one illustrates (§3).
fn fig1_samples() -> String {
    let samples: [(&str, &str); 4] = [
        ("2001:db8:10:1::103", "(i) fixed IID value"),
        ("2001:db8:167:1109::10:901", "(ii) structured low 64 bits"),
        (
            "2001:db8:0:1cdf:21e:c2ff:fec0:11db",
            "(iii) SLAAC EUI-64 (Ethernet MAC)",
        ),
        (
            "2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a",
            "(iv) SLAAC privacy (pseudorandom IID)",
        ),
    ];
    let mut out =
        String::from("Sample IPv6 addresses (paper Figure 1), with content classification:\n\n");
    for (text, caption) in samples {
        let a: Addr = text.parse().expect("figure addresses parse");
        let scheme = classify(a);
        let extra = match scheme {
            AddressScheme::Eui64(mac) => format!(" mac={mac}"),
            _ => format!(" u-bit={}", Iid::of(a).u_bit()),
        };
        out.push_str(&format!(
            "  {text:<42} {caption}\n    -> classified: {}{extra}\n",
            scheme.label()
        ));
    }
    out
}

/// The §7.2 future-work experiment: discovering the stable portion of
/// network identifiers without inside information — per-ASN stability
/// spectra with their boundaries, and the §7.1 EUI-64-guided NID
/// inference. `by_asn` groups the March 2015 week's addresses.
fn stable_prefixes(snap: &Snapshot, by_asn: &BTreeMap<u32, AddrSet>) -> String {
    let m15 = epochs::mar2015();
    let s14 = epochs::sep2014();
    let week = |d: Day| d.range_inclusive(d + 6);
    let by_asn_old = snap.rt.group_by_asn(&snap.census.other_over(week(s14)));

    // Spectrum per network (address-population view).
    let mut report = String::from(
        "Stable-prefix spectra (fraction of active /p aggregates also active 6 months ago)\n\n",
    );
    report.push_str(&format!(
        "{:<26} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>9} {:>6}\n",
        "network", "/24", "/32", "/40", "/48", "/56", "/64", "boundary", "knee"
    ));
    let interesting = [
        ("US mobile A", asns::MOBILE_A),
        ("US mobile B", asns::MOBILE_B),
        ("EU ISP (rotating NID)", asns::EU_ISP),
        ("JP ISP (static /48)", asns::JP_ISP),
        ("US broadband", asns::US_BROADBAND),
        ("university 0", asns::UNIVERSITY_FIRST),
    ];
    let empty = AddrSet::new();
    for (label, asn) in interesting {
        let c = by_asn.get(&asn).unwrap_or(&empty);
        let o = by_asn_old.get(&asn).unwrap_or(&empty);
        let spec = stable_fraction_spectrum(c, o, (24..=64).step_by(8));
        let frac = |p: u8| {
            spec.points
                .iter()
                .find(|&&(q, _, _)| q == p)
                .map(|&(_, _, f)| f)
                .unwrap_or(0.0)
        };
        let at = |b: Option<u8>| b.map(|b| format!("/{b}")).unwrap_or_else(|| "—".into());
        report.push_str(&format!(
            "{:<26} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}  {:>8} {:>6}\n",
            label,
            frac(24),
            frac(32),
            frac(40),
            frac(48),
            frac(56),
            frac(64),
            at(spec.boundary(0.5)),
            at(spec.sharpest_drop().map(|(k, _)| k)),
        ));
    }

    // Global spectrum via the observation store.
    let global = spectrum_between(
        snap.census.other_daily(),
        week(m15),
        week(s14),
        (8..=64).step_by(8),
    );
    report.push_str("\nglobal spectrum: ");
    for (p, _, f) in &global.points {
        report.push_str(&format!("/{p}={f:.2} "));
    }
    report.push('\n');

    // §7.1: EUI-64 IIDs as guides.
    report.push_str("\nEUI-64-guided NID inference (median stable network bits per ASN):\n");
    let inferences = stable_nid_by_mac(&snap.census, &snap.rt, m15, s14, 5);
    for (label, asn) in interesting {
        if let Some(inf) = inferences.get(&asn) {
            report.push_str(&format!(
                "  {:<26} /{:<3} ({} devices tracked)\n",
                label, inf.median_stable_bits, inf.samples
            ));
        }
    }
    report
}
