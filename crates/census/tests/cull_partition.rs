//! The census culls every day-log entry with `scheme::cull`, the cheap
//! §4.1 half of `scheme::classify`. These tests pin the two together:
//! both must put every address in the same Teredo / 6to4 / ISATAP /
//! EUI-64 (with MAC) / other class, and the culled `DaySummary` of a
//! day read back from its text form must equal the in-memory one.

use v6census_addr::scheme::{classify, cull, Cull};
use v6census_addr::{Addr, AddressScheme};
use v6census_census::DaySummary;
use v6census_synth::{world::epochs, World, WorldConfig};

/// The partition `classify` implies.
fn partition_of(s: AddressScheme) -> Cull {
    match s {
        AddressScheme::Teredo => Cull::Teredo,
        AddressScheme::SixToFour => Cull::SixToFour,
        AddressScheme::Isatap => Cull::Isatap,
        AddressScheme::Eui64(mac) => Cull::Eui64(mac),
        _ => Cull::Other,
    }
}

fn assert_same_partition(a: Addr) -> Cull {
    let c = cull(a);
    assert_eq!(c, partition_of(classify(a)), "{a}");
    c
}

/// Which of the five classes `c` is, as an index.
fn class_index(c: Cull) -> usize {
    match c {
        Cull::Teredo => 0,
        Cull::SixToFour => 1,
        Cull::Isatap => 2,
        Cull::Eui64(_) => 3,
        Cull::Other => 4,
    }
}

/// Deterministic splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random addresses steered into every class: Teredo and 6to4
    /// prefixes, ISATAP and EUI-64 IID markers, small and embedded-IPv4
    /// IIDs, and raw bits.
    fn addr(&mut self) -> Addr {
        let net = self.u64();
        let iid = self.u64();
        let net = match self.u64() % 4 {
            0 => 0x2001_0000_0000_0000 | (net & 0xffff_ffff),
            1 => 0x2002_0000_0000_0000 | (net & 0xffff_ffff_ffff),
            _ => net,
        };
        let iid = match self.u64() % 7 {
            0 => 0x0200_5efe_0000_0000 | (iid & 0xffff_ffff),
            1 => 0x0000_5efe_0000_0000 | (iid & 0xffff_ffff),
            2 => (iid & 0xffff_ff00_00ff_ffff) | 0x0000_00ff_fe00_0000,
            3 => iid & 0xffff,
            4 => iid & 0xffff_ffff,
            _ => iid,
        };
        Addr((u128::from(net) << 64) | u128::from(iid))
    }
}

#[test]
fn cull_matches_classify_on_random_addresses() {
    let mut g = Gen(7);
    let mut seen = [0usize; 5];
    for _ in 0..200_000 {
        seen[class_index(assert_same_partition(g.addr()))] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "classes seen: {seen:?}");
}

#[test]
fn cull_matches_classify_on_every_address_of_a_synth_day() {
    let log = World::standard(WorldConfig::tiny(13)).day_log(epochs::mar2015());
    let mut seen = [0usize; 5];
    for e in &log.entries {
        seen[class_index(assert_same_partition(e.addr))] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "classes seen: {seen:?}");
}

#[test]
fn cull_matches_classify_on_the_figure1_samples() {
    for (s, want) in [
        ("2001:db8:10:1::103", AddressScheme::LowIid),
        ("2001:db8:167:1109::10:901", AddressScheme::Structured),
        (
            "2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a",
            AddressScheme::Pseudorandom,
        ),
    ] {
        let a: Addr = s.parse().expect("sample parses");
        assert_eq!(classify(a), want, "{s}");
        assert_eq!(assert_same_partition(a), Cull::Other, "{s}");
    }
    let eui: Addr = "2001:db8:0:1cdf:21e:c2ff:fec0:11db"
        .parse()
        .expect("sample parses");
    assert!(matches!(assert_same_partition(eui), Cull::Eui64(_)));
}

#[test]
fn summary_of_parsed_text_equals_summary_of_the_log() {
    let log = World::standard(WorldConfig::tiny(13)).day_log(epochs::mar2015());
    let text = log.to_text();
    let entries: Vec<(Addr, u64)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut cols = l.split('\t');
            let addr = cols.next().and_then(|a| a.parse().ok()).expect("address");
            let hits = cols.next().and_then(|h| h.parse().ok()).expect("hits");
            (addr, hits)
        })
        .collect();
    assert_eq!(entries.len(), log.len());
    let parsed = DaySummary::from_entries(log.day, entries);
    let direct = DaySummary::from_log(&log);
    assert_eq!(parsed.day, direct.day);
    assert_eq!(parsed.teredo, direct.teredo);
    assert_eq!(parsed.isatap, direct.isatap);
    assert_eq!(parsed.sixtofour, direct.sixtofour);
    assert_eq!(parsed.other, direct.other);
    assert_eq!(parsed.eui64, direct.eui64);
    assert_eq!(parsed.eui64_macs, direct.eui64_macs);
    assert_eq!(parsed.hits, direct.hits);

    // And the partition is the one `classify` gives, class by class.
    for e in &log.entries {
        let set = match classify(e.addr) {
            AddressScheme::Teredo => &direct.teredo,
            AddressScheme::SixToFour => &direct.sixtofour,
            AddressScheme::Isatap => &direct.isatap,
            _ => &direct.other,
        };
        assert!(set.contains(e.addr), "{}", e.addr);
        let is_eui = matches!(classify(e.addr), AddressScheme::Eui64(_));
        assert_eq!(direct.eui64.contains(e.addr), is_eui, "{}", e.addr);
    }
}
