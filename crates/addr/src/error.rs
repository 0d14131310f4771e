//! Error types for textual IPv6 address and prefix parsing.

use std::fmt;

/// An error produced while parsing an IPv6 address or prefix from text.
///
/// The parser in this crate is strict RFC 4291 §2.2: it accepts the full
/// form, the `::` compressed form, and the embedded-IPv4 dotted-quad tail,
/// and nothing else (no zone indices, no brackets, no leading/trailing
/// whitespace). It accepts exactly what `std::net::Ipv6Addr` accepts.
///
/// # Address grammar
///
/// ```text
/// address = groups | [groups] "::" [groups]
/// groups  = group *(":" group) [":" quad] | quad
/// group   = 1*4HEXDIG                      ; either case
/// quad    = octet "." octet "." octet "." octet
/// octet   = "0" | %x31-39 *2DIGIT          ; 0..=255, no leading zero
/// ```
///
/// A quad counts as two groups and may only end the input: it is the
/// final 32 bits, never followed by `:` or `::`. Without `::` the address
/// has exactly 8 groups; with it, at most 7, since `::` stands for at
/// least one zero group.
///
/// # Which variant
///
/// The parser reads left to right and reports the first byte it cannot
/// accept, so an input with several faults gets the variant of the
/// leftmost one (`"12345:g"` is [`GroupTooLong`](Self::GroupTooLong),
/// `"g:12345"` is [`InvalidCharacter`](Self::InvalidCharacter)). For
/// addresses:
///
/// * [`Empty`](Self::Empty) — no bytes at all;
/// * [`InvalidCharacter`](Self::InvalidCharacter) — a byte outside
///   `[0-9a-fA-F:.]`, wherever it stands;
/// * [`GroupTooLong`](Self::GroupTooLong) — a fifth hex digit in a group;
/// * [`MultipleElisions`](Self::MultipleElisions) — a second `::`,
///   including the overlapping `:::`;
/// * [`TooManyGroups`](Self::TooManyGroups) — a `:` after the last group
///   the address has room for, anything after a `::` that already
///   stands for the eighth group, or a quad that starts with fewer than
///   two groups of room;
/// * [`StrayColon`](Self::StrayColon) — a single `:` at the start, or at
///   the end after a group;
/// * [`BadIpv4Tail`](Self::BadIpv4Tail) — a malformed quad (a hex letter,
///   an empty, out-of-range or leading-zero octet, fewer or more than
///   four octets) or anything after a complete one;
/// * [`TooFewGroups`](Self::TooFewGroups) — the input ends with fewer
///   than 8 groups and no `::`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The input was empty.
    Empty,
    /// A character outside `[0-9a-fA-F:.]` was encountered.
    InvalidCharacter(char),
    /// A hexadecimal group had more than 4 digits.
    GroupTooLong,
    /// More than one `::` appeared in the input.
    MultipleElisions,
    /// The address had too many 16-bit groups (more than 8, or more than
    /// the elision allows).
    TooManyGroups,
    /// The address had too few groups and no `::` to absorb the slack.
    TooFewGroups,
    /// A `:` appeared in a position where a group was required (e.g. a
    /// leading or trailing single colon).
    StrayColon,
    /// The embedded IPv4 dotted-quad tail was malformed.
    BadIpv4Tail,
    /// The prefix length following `/` was missing or not a number.
    BadPrefixLength,
    /// The prefix length exceeded 128.
    PrefixLengthRange(u16),
    /// A prefix had non-zero bits beyond its stated length (only an error
    /// for [`crate::Prefix::from_str_strict`]).
    HostBitsSet,
    /// The input was not an `ip6.arpa` pointer name.
    NotIp6Arpa,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty address"),
            ParseError::InvalidCharacter(c) => write!(f, "invalid character {c:?}"),
            ParseError::GroupTooLong => write!(f, "hex group longer than 4 digits"),
            ParseError::MultipleElisions => write!(f, "more than one '::'"),
            ParseError::TooManyGroups => write!(f, "too many 16-bit groups"),
            ParseError::TooFewGroups => write!(f, "too few 16-bit groups and no '::'"),
            ParseError::StrayColon => write!(f, "stray ':' without a group"),
            ParseError::BadIpv4Tail => write!(f, "malformed embedded IPv4 tail"),
            ParseError::BadPrefixLength => write!(f, "missing or malformed prefix length"),
            ParseError::PrefixLengthRange(n) => write!(f, "prefix length {n} exceeds 128"),
            ParseError::HostBitsSet => write!(f, "bits set beyond the prefix length"),
            ParseError::NotIp6Arpa => write!(f, "not an ip6.arpa pointer name"),
        }
    }
}

impl std::error::Error for ParseError {}
