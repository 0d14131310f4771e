//! Differential test of the address formatter against the standard
//! library: `Addr`'s RFC 5952 text (`Display` and `Addr::format_into`)
//! must equal `std::net::Ipv6Addr`'s on every address except the
//! IPv4-mapped block `::ffff:0:0/96`, where `std` writes a dotted quad
//! and `Addr` stays in hex (documented on `Addr`'s `Display`).
//!
//! Inputs come from a deterministic splitmix64 stream biased towards
//! zero groups, every zero/non-zero group pattern (all 256 of them, so
//! every run length, tie, and leading or trailing run), and a fixed
//! adversarial list.

use std::net::Ipv6Addr;
use v6census_addr::Addr;

/// Generated cases.
const CASES: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// Deterministic case generator: a splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Address bits with each group zeroed at probability 1/2 and the
    /// rest shortened at random, so runs, ties and short groups abound.
    fn addr(&mut self) -> Addr {
        let mut segs = [0u16; 8];
        for s in &mut segs {
            let r = self.u64();
            if r & 1 == 0 {
                *s = (r >> 16) as u16 >> ((r >> 8) % 16);
            }
        }
        Addr::from_segments(segs)
    }
}

fn mapped(a: Addr) -> bool {
    a.0 >> 32 == 0xffff
}

/// Checks one address: `Display` equals `format_into`, and both equal
/// `std` outside the mapped block.
fn check(a: Addr) {
    let mut buf = [0u8; Addr::TEXT_MAX];
    let ours = a.to_string();
    assert_eq!(ours.as_bytes(), a.format_into(&mut buf), "{:032x}", a.0);
    if !mapped(a) {
        assert_eq!(ours, Ipv6Addr::from(a.0).to_string(), "{:032x}", a.0);
    }
    assert_eq!(ours.parse::<Addr>(), Ok(a), "text must round-trip");
}

#[test]
fn random_addresses_format_like_std() {
    let mut g = Gen(0x5952);
    for _ in 0..CASES {
        check(g.addr());
        check(Addr((u128::from(g.u64()) << 64) | u128::from(g.u64())));
    }
}

#[test]
fn every_zero_group_pattern_formats_like_std() {
    // Bit i of the pattern zeroes group i; the rest take distinct widths
    // (one to four digits) so each group's text is visible.
    for pattern in 0u32..256 {
        for fill in [0x1u16, 0xab, 0xfff, 0xffff] {
            let mut segs = [fill; 8];
            for (i, s) in segs.iter_mut().enumerate() {
                if pattern >> i & 1 == 1 {
                    *s = 0;
                }
            }
            check(Addr::from_segments(segs));
        }
    }
}

#[test]
fn adversarial_addresses_format_like_std() {
    for text in [
        "::",
        "::1",
        "1::",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
        "1:0:1:0:1:0:1:0",
        "0:1:0:1:0:1:0:1",
        "1:0:0:1:0:0:1:1",
        "1:1:0:0:1:0:0:1",
        "0:0:1:0:0:1:0:0",
        "1:0:0:0:1:0:0:0",
        "0:0:0:1:0:0:0:1",
        "1:0:0:0:0:0:0:1",
        "0:0:0:0:0:0:0:ffff",
        "::ffff:0:0",
        "::fffe:1.2.3.4",
        "::1.2.3.4",
        "64:ff9b::1.2.3.4",
        "2001:db8::",
        "2001:0:0:1::1",
        "fe80::1:0:0:1",
        "0:ffff::",
    ] {
        let a: Addr = text.parse().unwrap();
        check(a);
    }
}

#[test]
fn the_mapped_block_is_the_only_difference() {
    let a: Addr = "::ffff:192.0.2.1".parse().unwrap();
    assert_eq!(a.to_string(), "::ffff:c000:201");
    assert_eq!(Ipv6Addr::from(a.0).to_string(), "::ffff:192.0.2.1");
    // Its neighbours on either side of the /96 format like std.
    for bits in [0xfffe_u128 << 32 | 1, 0x1_0000_u128 << 32 | 1] {
        let a = Addr(bits);
        assert!(!mapped(a));
        assert_eq!(a.to_string(), Ipv6Addr::from(bits).to_string());
    }
}
