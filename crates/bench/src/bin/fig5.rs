//! Regenerates **Figure 5**: (a) per-ASN count CCDFs, (b) 16-bit-segment
//! aggregation-ratio distributions across BGP prefixes, and (c)–(h) the
//! six MRA plots touring the active IPv6 address space.

use v6census_bench::{Opts, Snapshot};
use v6census_census::figures::{
    AsnDistributionFigure, MraFigure, PopulationFigure, SegmentRatioFigure,
};
use v6census_census::plot::{ascii_ccdf, ascii_mra, tsv_ccdf, tsv_mra};
use v6census_core::temporal::Day;
use v6census_synth::world::{asns, epochs};
use v6census_trie::AddrSet;

fn main() {
    let opts = Opts::parse();
    eprintln!("[fig5] building 3-epoch snapshot at scale {}…", opts.scale);
    let snap = Snapshot::build(&opts);
    let d15 = epochs::mar2015();
    let week15: Vec<Day> = d15.range_inclusive(d15 + 6).collect();
    let week_set = snap.census.other_over(week15.iter().copied());
    let eui_week = snap.census.eui64_over(week15.iter().copied());

    // (a) per-ASN distributions: actives, /64s, EUI-64, 6m-stable /64s.
    let six_month_64s = snap
        .census
        .other64_daily()
        .epoch_stable(
            d15.range_inclusive(d15 + 6),
            epochs::sep2014().range_inclusive(epochs::sep2014() + 6),
        )
        .stable;
    let f5a = AsnDistributionFigure::figure5a(&snap.rt, &week_set, &eui_week, &six_month_64s);
    let mut a_txt = format!("{} active ASNs\n", f5a.active_asns);
    a_txt.push_str(&ascii_ccdf(&PopulationFigure {
        series: f5a.series.clone(),
    }));
    opts.emit("fig5a_asn_ccdf.txt", &a_txt);
    opts.emit(
        "fig5a_asn_ccdf.tsv",
        &tsv_ccdf(&PopulationFigure { series: f5a.series }),
    );

    // (b) 16-bit segment aggregation ratio distributions per BGP prefix.
    let f5b = SegmentRatioFigure::figure5b(&snap.rt, &week_set, 20);
    let mut b_txt = format!(
        "16-bit segment aggregation distributions, {} BGP prefixes (≥20 addrs)\n",
        f5b.prefixes
    );
    for (p, stats) in &f5b.boxes {
        b_txt.push_str(&format!("bits {:>3}-{:<3}  {}\n", p, p + 16, stats));
    }
    opts.emit("fig5b_segment_boxes.txt", &b_txt);

    // (c)–(h): the six MRA plots.
    let by_asn = snap.rt.group_by_asn(&week_set);
    let empty = AddrSet::new();
    let asn_set = |a: u32| by_asn.get(&a).unwrap_or(&empty);

    // (c) all native clients.
    let c = MraFigure::of("(c) all native IPv6 client addrs", &week_set);
    // (d) 6to4 clients.
    let sixtofour = {
        AddrSet::union_all(
            week15
                .iter()
                .filter_map(|d| snap.census.summary(*d))
                .map(|s| &*s.sixtofour),
        )
    };
    let dd = MraFigure::of("(d) 6to4 client addrs", &sixtofour);
    // (e) US mobile carrier.
    let e = MraFigure::of("(e) US mobile carrier", asn_set(asns::MOBILE_A));
    // (f) EU ISP prefix.
    let f = MraFigure::of("(f) EU ISP prefix", asn_set(asns::EU_ISP));
    // (g) the dense university department /64.
    let uni0 = asn_set(asns::UNIVERSITY_FIRST);
    let dept64 = {
        let mut best: Option<(v6census_addr::Prefix, usize)> = None;
        for d in v6census_trie::dense_prefixes_at(uni0, 2, 64) {
            let c = d.count as usize;
            if best.map(|(_, n)| c > n).unwrap_or(true) {
                best = Some((d.prefix, c));
            }
        }
        let target = best.map(|(p, _)| p);
        AddrSet::from_iter(
            uni0.iter()
                .filter(|&a| target.map(|p| p.contains_addr(a)).unwrap_or(false)),
        )
    };
    let g = MraFigure::of("(g) EU univ. dept prefix (1 /64)", &dept64);
    // (h) JP ISP prefix.
    let h = MraFigure::of("(h) JP ISP prefix", asn_set(asns::JP_ISP));

    for (name, fig) in [
        ("fig5c_all", &c),
        ("fig5d_6to4", &dd),
        ("fig5e_us_mobile", &e),
        ("fig5f_eu_isp", &f),
        ("fig5g_univ_dept", &g),
        ("fig5h_jp_isp", &h),
    ] {
        opts.emit(&format!("{name}.txt"), &ascii_mra(fig));
        opts.emit(&format!("{name}.tsv"), &tsv_mra(fig));
    }

    // §6.2.1's deduction: "by comparison to the same plot over only 1
    // day (not shown), we can deduce that this network seems to
    // dynamically assign /64s" — the mobile pool segment fills up over a
    // week far beyond one day's utilization.
    let mob_day = {
        let day_set = snap.census.other_daily().on(d15);
        let by_asn_day = snap.rt.group_by_asn(&day_set);
        by_asn_day.get(&asns::MOBILE_A).cloned().unwrap_or_default()
    };
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
}
