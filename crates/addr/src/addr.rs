//! The [`Addr`] type: a 128-bit IPv6 address.

use crate::bits::{high_mask, msb_mask, shl128, shr128};
use crate::cast::{checked_nybble, checked_seg, checked_u32, checked_u8, checked_usize};
use crate::ParseError;
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// A 128-bit IPv6 address.
///
/// Internally a big-endian-interpreted `u128`: bit 0 is the most
/// significant bit of the address (the first bit on the wire), matching the
/// prefix-length convention, so `addr.bit(0)` is the top bit of the first
/// hextet. This orientation makes prefix arithmetic (`common_prefix_len`,
/// masking, trie descent) a matter of plain shifts.
///
/// ```
/// use v6census_addr::Addr;
/// let a: Addr = "2001:db8::1".parse().unwrap();
/// assert_eq!(a.segment(0), 0x2001);
/// assert_eq!(a.nybble(0), 0x2);
/// assert_eq!(a.bit(0), 0); // 0x2001 starts with binary 0010...
/// assert_eq!(a.bit(2), 1);
/// assert_eq!(a.to_string(), "2001:db8::1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u128);

impl Addr {
    /// The unspecified address `::`.
    pub const UNSPECIFIED: Addr = Addr(0);
    /// The loopback address `::1`.
    pub const LOCALHOST: Addr = Addr(1);

    /// Builds an address from eight 16-bit segments, first segment most
    /// significant (the order they are written in presentation format).
    pub const fn from_segments(s: [u16; 8]) -> Addr {
        let mut v: u128 = 0;
        let mut i = 0;
        while i < 8 {
            v = (v << 16) | s[i] as u128;
            i += 1;
        }
        Addr(v)
    }

    /// Builds an address from 16 bytes, most significant first.
    pub const fn from_bytes(b: [u8; 16]) -> Addr {
        Addr(u128::from_be_bytes(b))
    }

    /// Returns the address as 16 bytes, most significant first.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Returns the eight 16-bit segments, most significant first.
    pub const fn segments(self) -> [u16; 8] {
        let v = self.0;
        [
            checked_seg(v >> 112),
            checked_seg((v >> 96) & 0xffff),
            checked_seg((v >> 80) & 0xffff),
            checked_seg((v >> 64) & 0xffff),
            checked_seg((v >> 48) & 0xffff),
            checked_seg((v >> 32) & 0xffff),
            checked_seg((v >> 16) & 0xffff),
            checked_seg(v & 0xffff),
        ]
    }

    /// Returns 16-bit segment `i` (0..8), segment 0 most significant.
    ///
    /// # Panics
    /// Panics if `i >= 8`.
    pub const fn segment(self, i: usize) -> u16 {
        assert!(i < 8, "segment index out of range");
        checked_seg(shr128(self.0, 112 - 16 * i) & 0xffff)
    }

    /// Returns nybble (hex character) `i` (0..32), nybble 0 most significant.
    ///
    /// # Panics
    /// Panics if `i >= 32`.
    pub const fn nybble(self, i: usize) -> u8 {
        assert!(i < 32, "nybble index out of range");
        checked_nybble(shr128(self.0, 124 - 4 * i) & 0xf)
    }

    /// All 32 nybbles at once, most significant first — the batched form
    /// of [`Addr::nybble`] for whole-address scans: one pass over the
    /// big-endian bytes instead of 32 independent 128-bit shifts.
    pub const fn nybbles(self) -> [u8; 32] {
        let bytes = self.0.to_be_bytes();
        let mut out = [0u8; 32];
        let mut i = 0;
        while i < 16 {
            out[2 * i] = bytes[i] >> 4;
            out[2 * i + 1] = bytes[i] & 0xf;
            i += 1;
        }
        out
    }

    /// Returns bit `i` (0..128) as 0 or 1; bit 0 is the most significant.
    ///
    /// # Panics
    /// Panics if `i >= 128`.
    pub const fn bit(self, i: usize) -> u8 {
        assert!(i < 128, "bit index out of range");
        checked_u8(shr128(self.0, 127 - i) & 1)
    }

    /// Returns a copy with bit `i` set to `v` (0 or 1); bit 0 is the most
    /// significant.
    ///
    /// # Panics
    /// Panics if `i >= 128`.
    pub const fn with_bit(self, i: usize, v: u8) -> Addr {
        assert!(i < 128, "bit index out of range");
        let mask = msb_mask(i);
        if v == 0 {
            Addr(self.0 & !mask)
        } else {
            Addr(self.0 | mask)
        }
    }

    /// The high 64 bits: the canonical network identifier (subnet prefix)
    /// under /64 addressing.
    pub const fn network_bits(self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The low 64 bits: the interface identifier under /64 addressing.
    pub const fn iid_bits(self) -> u64 {
        self.0 as u64
    }

    /// Keeps the first `len` bits and zeroes the rest.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub const fn mask(self, len: u8) -> Addr {
        assert!(len <= 128, "prefix length out of range");
        Addr(self.0 & high_mask(len))
    }

    /// Length of the longest common prefix of `self` and `other`, in bits
    /// (0..=128).
    pub const fn common_prefix_len(self, other: Addr) -> u8 {
        checked_u8((self.0 ^ other.0).leading_zeros() as u128)
    }

    /// Interprets segments 1..3 (bits 16–48) as an embedded IPv4 address,
    /// as in 6to4 (`2002:AABB:CCDD::/48`).
    pub const fn v4_in_6to4(self) -> [u8; 4] {
        checked_u32((self.0 >> 80) & 0xffff_ffff).to_be_bytes()
    }

    /// Interprets the low 32 bits as an embedded IPv4 address, as in
    /// ISATAP and many ad hoc schemes.
    pub const fn v4_in_low32(self) -> [u8; 4] {
        checked_u32(self.0 & 0xffff_ffff).to_be_bytes()
    }

    /// Conversion to the standard library type (used in tests as a parsing
    /// and formatting oracle, and by callers doing real I/O).
    pub const fn to_std(self) -> Ipv6Addr {
        Ipv6Addr::from_bits(self.0)
    }

    /// Conversion from the standard library type.
    pub const fn from_std(a: Ipv6Addr) -> Addr {
        Addr(a.to_bits())
    }

    /// Formats the address as 32 lower-case hex characters with no
    /// separators — the fixed-width form used by the sort-based aggregate
    /// counter (paper footnote 3: `sort | cut -c1-$((p/4)) | uniq -c`).
    pub fn to_fixed_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Formats the address as its reverse-DNS pointer name under
    /// `ip6.arpa` (RFC 3596 §2.5): 32 nybbles in reverse order,
    /// dot-separated, e.g. `1.0.0.0…8.b.d.0.1.0.0.2.ip6.arpa`.
    pub fn to_ip6_arpa(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(72);
        for &n in self.nybbles().iter().rev() {
            // nybbles() yields 0..=15, so the table lookup is total.
            out.push(char::from(HEX[usize::from(n) & 0xf]));
            out.push('.');
        }
        out.push_str("ip6.arpa");
        out
    }

    /// Parses an `ip6.arpa` pointer name back to the address. Accepts an
    /// optional trailing dot and any ASCII case.
    pub fn from_ip6_arpa(s: &str) -> Result<Addr, ParseError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        let body = s
            .strip_suffix("ip6.arpa")
            .and_then(|b| b.strip_suffix('.'))
            .ok_or(ParseError::NotIp6Arpa)?;
        let mut v: u128 = 0;
        let mut count = 0usize;
        for part in body.split('.') {
            let mut chars = part.chars();
            let (Some(c), None) = (chars.next(), chars.next()) else {
                return Err(ParseError::GroupTooLong);
            };
            let d = c.to_digit(16).ok_or(ParseError::InvalidCharacter(c))?;
            if count >= 32 {
                return Err(ParseError::TooManyGroups);
            }
            // Nybbles arrive least-significant first.
            v |= shl128(d as u128, 4 * count);
            count += 1;
        }
        if count != 32 {
            return Err(ParseError::TooFewGroups);
        }
        Ok(Addr(v))
    }

    /// Parses the 32-hex-character fixed-width form produced by
    /// [`Addr::to_fixed_hex`].
    pub fn from_fixed_hex(s: &str) -> Result<Addr, ParseError> {
        if s.len() != 32 {
            return Err(ParseError::TooFewGroups);
        }
        let mut v: u128 = 0;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseError::InvalidCharacter(c))?;
            v = (v << 4) | d as u128;
        }
        Ok(Addr(v))
    }
}

impl From<u128> for Addr {
    fn from(v: u128) -> Addr {
        Addr(v)
    }
}

impl From<Addr> for u128 {
    fn from(a: Addr) -> u128 {
        a.0
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Addr {
        Addr::from_std(a)
    }
}

impl From<Addr> for Ipv6Addr {
    fn from(a: Addr) -> Ipv6Addr {
        a.to_std()
    }
}

// ---------------------------------------------------------------------------
// Parsing (RFC 4291 §2.2)
// ---------------------------------------------------------------------------

impl FromStr for Addr {
    type Err = ParseError;

    /// Parses RFC 4291 §2.2 presentation format in one left-to-right
    /// pass; [`ParseError`] documents the grammar and which variant a
    /// malformed input gets.
    fn from_str(s: &str) -> Result<Addr, ParseError> {
        parse_addr(s)
    }
}

/// Marks a byte that is not a hex digit in [`HEX`].
const NOT_HEX: u8 = 0xff;

/// The hex digit value of every byte, [`NOT_HEX`] for the rest.
const HEX: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let digits = b"0123456789abcdefABCDEF";
    let mut k = 0;
    while k < digits.len() {
        let value = if k < 16 { k } else { k - 6 };
        table[checked_usize(digits[k] as u128)] = checked_u8(value as u128);
        k += 1;
    }
    table
};

/// Reads groups into a fixed `[u16; 8]`, noting where `::` sits, then
/// slides the groups after `::` to the end. A group followed by `.` is
/// re-read as the first octet of the dotted quad that must end the input.
fn parse_addr(s: &str) -> Result<Addr, ParseError> {
    let b = s.as_bytes();
    let mut segs = [0u16; 8];
    // Groups stored so far, and the group index `::` stands before.
    let mut n = 0usize;
    let mut gap: Option<usize> = None;
    let mut i = match b {
        [] => return Err(ParseError::Empty),
        [b':', b':', ..] => {
            gap = Some(0);
            2
        }
        [b':', ..] => return Err(ParseError::StrayColon),
        _ => 0,
    };
    loop {
        // `i` is at the start of a group.
        let start = i;
        let mut group = 0u16;
        while let Some(&c) = b.get(i) {
            let d = HEX[usize::from(c)];
            if d == NOT_HEX {
                break;
            }
            if i - start == 4 {
                return Err(ParseError::GroupTooLong);
            }
            group = (group << 4) | u16::from(d);
            i += 1;
        }
        // `::` stands for at least one zero group.
        let limit = if gap.is_some() { 7 } else { 8 };
        match b.get(i) {
            Some(b'.') => {
                if n + 2 > limit {
                    return Err(ParseError::TooManyGroups);
                }
                let [o0, o1, o2, o3] = parse_quad(s, start)?;
                if let Some([hi, lo]) = segs.get_mut(n..n + 2) {
                    *hi = u16::from_be_bytes([o0, o1]);
                    *lo = u16::from_be_bytes([o2, o3]);
                }
                return finish(segs, n + 2, gap);
            }
            next if i == start => {
                return match next {
                    // The input ends right after `::`.
                    None if gap == Some(n) => finish(segs, n, gap),
                    None => Err(ParseError::StrayColon),
                    // Only `::` leaves a group start on a colon.
                    Some(b':') => Err(ParseError::MultipleElisions),
                    Some(_) => Err(invalid_char(s, i)),
                };
            }
            None | Some(b':') => {}
            Some(_) => return Err(invalid_char(s, i)),
        }
        if let Some(slot) = segs.get_mut(n) {
            *slot = group;
        }
        n += 1;
        if i == b.len() {
            return finish(segs, n, gap);
        }
        // A separator promises another group (or `::`), so the address
        // must still have room for one.
        if n == limit {
            return Err(ParseError::TooManyGroups);
        }
        i += 1;
        if b.get(i) == Some(&b':') {
            if gap.is_some() {
                return Err(ParseError::MultipleElisions);
            }
            gap = Some(n);
            i += 1;
            // With seven groups the `::` is the eighth: nothing may follow.
            if n == 7 && i < b.len() {
                return Err(ParseError::TooManyGroups);
            }
        }
    }
}

/// The address from `n` parsed groups, with the groups after `::` (if
/// any) moved to the end and the zero groups it stands for in between.
fn finish(mut segs: [u16; 8], n: usize, gap: Option<usize>) -> Result<Addr, ParseError> {
    match gap {
        None if n < 8 => return Err(ParseError::TooFewGroups),
        None => {}
        Some(g) => {
            if let Some(tail) = segs.get_mut(g..) {
                tail.rotate_right(8 - n);
            }
        }
    }
    Ok(Addr::from_segments(segs))
}

/// Parses the dotted quad that runs from byte `start` to the end of `s`:
/// four decimal octets, each `0` or `1`–`255` without a leading zero.
fn parse_quad(s: &str, start: usize) -> Result<[u8; 4], ParseError> {
    let mut octets = [0u8; 4];
    let mut k = 0usize;
    let mut digits = 0usize;
    let mut octet = 0u8;
    for (j, &c) in s.as_bytes().iter().enumerate().skip(start) {
        match c {
            b'0'..=b'9' => {
                if digits > 0 && octet == 0 {
                    return Err(ParseError::BadIpv4Tail);
                }
                octet = octet
                    .checked_mul(10)
                    .and_then(|o| o.checked_add(HEX[usize::from(c)]))
                    .ok_or(ParseError::BadIpv4Tail)?;
                digits += 1;
            }
            b'.' => {
                if digits == 0 || k == 3 {
                    return Err(ParseError::BadIpv4Tail);
                }
                if let Some(slot) = octets.get_mut(k) {
                    *slot = octet;
                }
                k += 1;
                digits = 0;
                octet = 0;
            }
            b':' | b'a'..=b'f' | b'A'..=b'F' => return Err(ParseError::BadIpv4Tail),
            _ => return Err(invalid_char(s, j)),
        }
    }
    if k != 3 || digits == 0 {
        return Err(ParseError::BadIpv4Tail);
    }
    if let Some(slot) = octets.get_mut(3) {
        *slot = octet;
    }
    Ok(octets)
}

/// [`ParseError::InvalidCharacter`] for the character starting at byte
/// `i` (every byte before it was ASCII, so `i` is a char boundary).
fn invalid_char(s: &str, i: usize) -> ParseError {
    let c = s.get(i..).and_then(|rest| rest.chars().next());
    ParseError::InvalidCharacter(c.unwrap_or(char::REPLACEMENT_CHARACTER))
}

// ---------------------------------------------------------------------------
// Formatting (RFC 5952 canonical form)
// ---------------------------------------------------------------------------

impl Addr {
    /// Length of the longest RFC 5952 text: eight four-digit groups and
    /// seven colons.
    pub const TEXT_MAX: usize = 39;

    /// Writes the RFC 5952 canonical text into `buf` and returns the
    /// written prefix: lower-case hex, no leading zeros, the single
    /// longest run of two-or-more zero groups compressed to `::`
    /// (leftmost on ties). The one formatter behind [`Addr`]'s `Display`;
    /// bulk writers (checkpoints) call it directly to skip `fmt`.
    pub fn format_into(self, buf: &mut [u8; Addr::TEXT_MAX]) -> &[u8] {
        let segs = self.segments();
        // The longest run of zero groups: [gap_start, gap_end).
        let (mut gap_start, mut gap_end) = (0usize, 0usize);
        let mut run_start = 0usize;
        for (i, &g) in segs.iter().enumerate() {
            if g != 0 {
                run_start = i + 1;
            } else if i + 1 - run_start > gap_end - gap_start {
                gap_start = run_start;
                gap_end = i + 1;
            }
        }
        if gap_end - gap_start < 2 {
            (gap_start, gap_end) = (8, 8);
        }
        let mut n = 0usize;
        let mut put = |c: u8| {
            if let Some(slot) = buf.get_mut(n) {
                *slot = c;
            }
            n += 1;
        };
        for (i, &g) in segs.iter().enumerate() {
            if i >= gap_start && i < gap_end {
                if i == gap_start {
                    put(b':');
                    put(b':');
                }
                continue;
            }
            if i > 0 && i != gap_end {
                put(b':');
            }
            let [hi, lo] = g.to_be_bytes();
            let nybbles = [hi >> 4, hi & 0xf, lo >> 4, lo & 0xf];
            let mut leading = true;
            for (k, &d) in nybbles.iter().enumerate() {
                leading = leading && d == 0 && k < 3;
                if !leading {
                    put(if d < 10 { b'0' + d } else { b'a' + (d - 10) });
                }
            }
        }
        buf.get(..n).unwrap_or_default()
    }
}

impl fmt::Display for Addr {
    /// Formats in RFC 5952 canonical form via [`Addr::format_into`].
    ///
    /// This matches `std::net::Ipv6Addr`'s `Display` on every address
    /// except the IPv4-mapped block `::ffff:0:0/96`, which `std` writes
    /// with a dotted quad (`::ffff:192.0.2.1`) and this writes in hex
    /// (`::ffff:c000:201`): a census address is always rendered as eight
    /// hex groups, whatever it embeds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; Addr::TEXT_MAX];
        let text = std::str::from_utf8(self.format_into(&mut buf)).map_err(|_| fmt::Error)?;
        f.write_str(text)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn parses_full_form() {
        let x = a("2001:0db8:0000:0001:001e:c2ff:fec0:11db");
        assert_eq!(
            x.segments(),
            [0x2001, 0xdb8, 0, 1, 0x1e, 0xc2ff, 0xfec0, 0x11db]
        );
    }

    #[test]
    fn parses_elision_everywhere() {
        assert_eq!(a("::"), Addr(0));
        assert_eq!(a("::1"), Addr(1));
        assert_eq!(a("1::"), Addr(1u128 << 112));
        assert_eq!(a("1::2"), Addr((1u128 << 112) | 2));
        assert_eq!(
            a("2001:db8::10:901").segments(),
            [0x2001, 0xdb8, 0, 0, 0, 0, 0x10, 0x901]
        );
    }

    #[test]
    fn parses_ipv4_tail() {
        let x = a("::ffff:192.0.2.1");
        assert_eq!(x.segments(), [0, 0, 0, 0, 0, 0xffff, 0xc000, 0x0201]);
        let y = a("64:ff9b::203.0.113.7");
        assert_eq!(y.segments()[6], 0xcb00);
        assert_eq!(y.segments()[7], 0x7107);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            ":",
            ":::",
            "1:2:3",
            "1:2:3:4:5:6:7:8:9",
            "::g",
            "12345::",
            "1::2::3",
            "::1.2.3",
            "::1.2.3.4.5",
            "::256.1.1.1",
            "::01.2.3.4",
            "1.2.3.4",
            "2001:db8::1 ",
            " 2001:db8::1",
            "2001:db8:::1",
            // A dotted quad is only ever the final 32 bits.
            "1.2.3.4::",
            "1:1.2.3.4::",
            "1.2.3.4::1",
        ] {
            assert!(bad.parse::<Addr>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn formats_rfc5952() {
        for (input, want) in [
            ("2001:0DB8:0:0:0:0:0:1", "2001:db8::1"),
            ("2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"),
            ("2001:0:0:1:0:0:0:1", "2001:0:0:1::1"),
            ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"),
            ("0:0:0:0:0:0:0:0", "::"),
            ("0:0:0:0:0:0:0:1", "::1"),
            ("1:0:0:0:0:0:0:0", "1::"),
            ("fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1"),
        ] {
            assert_eq!(input.parse::<Addr>().unwrap().to_string(), want);
        }
    }

    #[test]
    fn accessors_agree() {
        let x = a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a");
        assert_eq!(x.segment(2), 0x4137);
        assert_eq!(x.nybble(8), 0x4);
        assert_eq!(x.nybble(31), 0xa);
        assert_eq!(x.network_bits(), 0x20010db841379e76);
        assert_eq!(x.iid_bits(), 0x3031f3fdbbdd2c2a);
        // bit 0..3 spell 0x2 = 0b0010
        assert_eq!([x.bit(0), x.bit(1), x.bit(2), x.bit(3)], [0, 0, 1, 0]);
    }

    #[test]
    fn batched_nybbles_agree_with_single() {
        for s in [
            "2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a",
            "::",
            "::1",
            "ffff::ffff",
        ] {
            let x = a(s);
            let batch = x.nybbles();
            for (i, &n) in batch.iter().enumerate() {
                assert_eq!(n, x.nybble(i), "{s} nybble {i}");
            }
        }
    }

    #[test]
    fn mask_and_common_prefix() {
        let x = a("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff");
        assert_eq!(x.mask(32), a("2001:db8::"));
        assert_eq!(x.mask(0), Addr(0));
        assert_eq!(x.mask(128), x);
        assert_eq!(a("2001:db8::1").common_prefix_len(a("2001:db8::2")), 126);
        assert_eq!(a("::").common_prefix_len(a("8000::")), 0);
        assert_eq!(a("::1").common_prefix_len(a("::1")), 128);
    }

    #[test]
    fn with_bit_roundtrip() {
        let x = a("2001:db8::");
        let y = x.with_bit(127, 1);
        assert_eq!(y, a("2001:db8::1"));
        assert_eq!(y.with_bit(127, 0), x);
    }

    #[test]
    fn fixed_hex_roundtrip() {
        let x = a("2001:db8::9:1");
        let h = x.to_fixed_hex();
        assert_eq!(h.len(), 32);
        assert_eq!(Addr::from_fixed_hex(&h).unwrap(), x);
        assert!(Addr::from_fixed_hex("abc").is_err());
        assert!(Addr::from_fixed_hex(&"g".repeat(32)).is_err());
    }

    #[test]
    fn std_conversion_roundtrip() {
        let x = a("2001:db8:10:1::103");
        assert_eq!(Addr::from_std(x.to_std()), x);
    }

    #[test]
    fn ip6_arpa_roundtrip_and_format() {
        let x = a("2001:db8::567:89ab");
        let ptr = x.to_ip6_arpa();
        assert!(ptr.ends_with(".ip6.arpa"));
        assert!(ptr.starts_with("b.a.9.8.7.6.5.0."));
        assert_eq!(Addr::from_ip6_arpa(&ptr).unwrap(), x);
        assert_eq!(Addr::from_ip6_arpa(&(ptr.clone() + ".")).unwrap(), x);
        // RFC 3596's own example shape: 32 labels + ip6.arpa.
        assert_eq!(ptr.split('.').count(), 34);
        let bad_cases: Vec<String> = vec![
            "ip6.arpa".into(),
            "1.2.ip6.arpa".into(),
            "x.".repeat(32) + "ip6.arpa",
            "1.".repeat(33) + "ip6.arpa",
            "1.".repeat(32) + "in-addr.arpa",
            "11.".repeat(16) + "ip6.arpa",
        ];
        for bad in &bad_cases {
            assert!(Addr::from_ip6_arpa(bad).is_err(), "accepted {bad:?}");
        }
    }
}
