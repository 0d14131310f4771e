//! Differential test of the address parser against the standard
//! library: `Addr::from_str` and `std::net::Ipv6Addr::from_str` must
//! accept exactly the same strings and agree on the 128-bit value of
//! every accepted one.
//!
//! Inputs come from a deterministic splitmix64 stream: random strings
//! over the parser's alphabet plus noise, grammar-shaped near-misses,
//! canonical forms with one byte substituted, inserted or deleted, and
//! a fixed adversarial list. A release build (`cargo test --release`)
//! runs over a million generated cases; a debug build runs a small
//! sample so `cargo test` stays fast.

use std::net::Ipv6Addr;
use v6census_addr::{Addr, ParseError};

/// Generated cases per generator.
const CASES: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    400_000
};

/// Bytes the random strings draw from: the parser's alphabet, one
/// out-of-alphabet letter and a space.
const ALPHABET: &[u8] = b"0123456789abcdefABCDEF:.g ";

/// Deterministic case generator: a splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.u64()) * u128::from(n)) >> 64) as u64
    }

    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    fn pick(&mut self, bytes: &[u8]) -> char {
        char::from(bytes[self.index(bytes.len())])
    }

    /// Address bits heavy in zero runs, so `::` compression shows up.
    fn addr_bits(&mut self) -> u128 {
        let raw = (u128::from(self.u64()) << 64) | u128::from(self.u64());
        let mut zeros = 0u128;
        for g in 0..8 {
            if self.below(3) == 0 {
                zeros |= 0xffff << (16 * g);
            }
        }
        raw & !zeros
    }

    /// A hex group of 1–5 digits (5 is always too long).
    fn group(&mut self) -> String {
        let max = if self.below(8) == 0 { 5 } else { 4 };
        let len = 1 + self.index(max);
        (0..len)
            .map(|_| self.pick(b"0123456789abcdefABCDEF"))
            .collect()
    }

    /// A dotted quad of 3–5 octets, sometimes out of range or with a
    /// leading zero.
    fn quad(&mut self) -> String {
        let n = match self.below(10) {
            0 => 3,
            1 => 5,
            _ => 4,
        };
        let octets: Vec<String> = (0..n)
            .map(|_| match self.below(12) {
                0 => format!("0{}", self.below(100)),
                1 => (256 + self.below(800)).to_string(),
                _ => self.below(256).to_string(),
            })
            .collect();
        octets.join(".")
    }

    /// Grammar-shaped strings: 0–9 groups, an optional `::` at a random
    /// group boundary, an optional quad that may land anywhere.
    fn shaped(&mut self) -> String {
        let groups = self.index(10);
        let mut parts: Vec<String> = (0..groups).map(|_| self.group()).collect();
        if self.below(4) == 0 {
            let at = self.index(parts.len() + 1);
            parts.insert(at, self.quad());
        }
        let mut s = if self.below(3) == 0 {
            parts.join(":")
        } else {
            let cut = self.index(parts.len() + 1);
            format!("{}::{}", parts[..cut].join(":"), parts[cut..].join(":"))
        };
        if self.below(8) == 0 {
            mutate(self, &mut s);
        }
        s
    }

    /// The presentation form of a random address: canonical, full, or
    /// with a dotted-quad tail.
    fn presentation(&mut self) -> String {
        let bits = self.addr_bits();
        match self.below(3) {
            0 => Addr(bits).to_string(),
            1 => Addr(bits)
                .segments()
                .iter()
                .map(|g| format!("{g:x}"))
                .collect::<Vec<_>>()
                .join(":"),
            _ => {
                let segs = Addr(bits).segments();
                let head: Vec<String> = segs[..6].iter().map(|g| format!("{g:x}")).collect();
                let [a, b, c, d] = ((bits & 0xffff_ffff) as u32).to_be_bytes();
                format!("{}:{a}.{b}.{c}.{d}", head.join(":"))
            }
        }
    }
}

/// Substitutes, inserts or deletes one byte of `s`.
fn mutate(g: &mut Gen, s: &mut String) {
    let mut b = std::mem::take(s).into_bytes();
    let at = g.index(b.len() + 1);
    let c = ALPHABET[g.index(ALPHABET.len())];
    match g.below(3) {
        0 if at < b.len() => b[at] = c,
        1 if at < b.len() => {
            b.remove(at);
        }
        _ => b.insert(at, c),
    }
    *s = String::from_utf8(b).expect("the alphabet is ASCII");
}

fn ours(s: &str) -> Option<u128> {
    s.parse::<Addr>().ok().map(|a| a.0)
}

fn std(s: &str) -> Option<u128> {
    s.parse::<Ipv6Addr>().ok().map(Ipv6Addr::to_bits)
}

/// Checks one input; returns whether std accepted it.
fn agree(s: &str, how: &str) -> bool {
    let (o, t) = (ours(s), std(s));
    assert_eq!(
        o, t,
        "{how}: {s:?}: Addr says {o:x?}, std::net::Ipv6Addr says {t:x?}"
    );
    t.is_some()
}

#[test]
fn random_strings_agree_with_std() {
    let mut g = Gen::new(1);
    for case in 0..CASES {
        let len = g.index(42);
        let s: String = (0..len).map(|_| g.pick(ALPHABET)).collect();
        agree(&s, &format!("random case {case}"));
    }
}

#[test]
fn grammar_shaped_strings_agree_with_std() {
    let mut g = Gen::new(2);
    let mut accepted = 0u64;
    for case in 0..CASES {
        let s = g.shaped();
        accepted += u64::from(agree(&s, &format!("shaped case {case}")));
    }
    // The generator must reach both sides of the accept set.
    assert!(accepted > CASES / 20, "only {accepted} of {CASES} accepted");
    assert!(accepted < CASES / 2, "{accepted} of {CASES} accepted");
}

#[test]
fn one_byte_edits_of_presentation_forms_agree_with_std() {
    let mut g = Gen::new(3);
    for case in 0..CASES {
        let mut s = g.presentation();
        assert!(agree(&s, &format!("edit case {case} (unedited)")));
        mutate(&mut g, &mut s);
        agree(&s, &format!("edit case {case}"));
    }
}

#[test]
fn adversarial_inputs_agree_with_std() {
    let mut inputs: Vec<String> = [
        "",
        " ",
        ":",
        "::",
        ":::",
        "::::",
        ":1::",
        "1::2:",
        "::1:",
        "1:2:3:4:5:6:7:8",
        "1:2:3:4:5:6:7:8:9",
        "1:2:3:4:5:6:7:8::",
        "::1:2:3:4:5:6:7:8",
        "1:2:3:4:5:6:7::",
        "::1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7::8",
        "1:2:3:4::5:6:7:8",
        "12345::",
        "::12345",
        "0000:0:0:0:0:0:0:00000",
        "::0.0.0.0",
        "::255.255.255.255",
        "::1.2.3.4",
        "::ffff:1.2.3.4",
        "1:2:3:4:5:6:1.2.3.4",
        "1:2:3:4:5:6:7:1.2.3.4",
        "1:2:3:4:5::1.2.3.4",
        "1:2:3:4:5:6::1.2.3.4",
        "::01.2.3.4",
        "::1.02.3.4",
        "::1.2.3.00",
        "::001.2.3.4",
        "::0001.2.3.4",
        "::256.1.1.1",
        "::1.1.1.256",
        "::1.2.3.4.5",
        "::1.2.3",
        "::1..2.3",
        "::.1.2.3",
        "::1.2.3.",
        "::1.2.3.4:",
        "::1.2.3.4::",
        "::1.2.3.4:1",
        "::1.2.3.a",
        "::a.1.2.3",
        "::1234.1.2.3",
        "1.2.3.4",
        "1.2.3.4::",
        "1:1.2.3.4::",
        "1.2.3.4::1",
        "2001:db8::1 ",
        " 2001:db8::1",
        "2001:db8::1\n",
        "2001:db8::1%eth0",
        "[2001:db8::1]",
        "2001:db8::1/64",
        "2001:DB8::AbCd",
        "::é",
        "é::",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // `::` at every position of an eight-group address, with the group
    // it lands on kept or dropped.
    let full = "1111:2222:3333:4444:5555:6666:7777:8888";
    for at in 0..=full.len() {
        inputs.push(format!("{}::{}", &full[..at], &full[at..]));
    }
    let groups: Vec<&str> = full.split(':').collect();
    for cut in 0..=groups.len() {
        for drop in 0..=(groups.len() - cut).min(2) {
            let head = groups[..cut].join(":");
            let tail = groups[cut + drop..].join(":");
            inputs.push(format!("{head}::{tail}"));
            inputs.push(format!("{head}::{tail}:1.2.3.4"));
        }
    }
    for s in &inputs {
        agree(s, "adversarial");
    }
}

/// Expected variant for one input per address-parse [`ParseError`]
/// variant, plus multiply-bad inputs where the leftmost offending byte
/// decides.
#[test]
fn each_error_variant_has_its_documented_input() {
    use ParseError::*;
    for (input, want) in [
        ("", Empty),
        ("2001:db8::g", InvalidCharacter('g')),
        ("2001:db8::1 ", InvalidCharacter(' ')),
        ("::é", InvalidCharacter('é')),
        ("12345::", GroupTooLong),
        ("1::2::3", MultipleElisions),
        ("1:::2", MultipleElisions),
        ("1:2:3:4:5:6:7:8:9", TooManyGroups),
        ("1:2:3:4:5:6:7::8", TooManyGroups),
        ("1:2:3:4:5:6:7:1.2.3.4", TooManyGroups),
        ("1:2:3", TooFewGroups),
        ("1.2.3.4", TooFewGroups),
        (":1::", StrayColon),
        ("1::2:", StrayColon),
        ("::256.1.1.1", BadIpv4Tail),
        ("::01.2.3.4", BadIpv4Tail),
        ("::1.2.3", BadIpv4Tail),
        ("1.2.3.4::", BadIpv4Tail),
        ("::1.2.3.4:1", BadIpv4Tail),
        // Multiply bad: the first offending byte, left to right.
        ("g:12345::1::2", InvalidCharacter('g')),
        ("12345:g::1::2", GroupTooLong),
        ("1::2::g", MultipleElisions),
        ("::1.2.3.999 ", BadIpv4Tail),
        ("1:2:3:4:5:6:7:8:9g", TooManyGroups),
    ] {
        assert_eq!(input.parse::<Addr>(), Err(want), "{input:?}");
        assert!(std(input).is_none(), "std accepts {input:?}");
    }
}
