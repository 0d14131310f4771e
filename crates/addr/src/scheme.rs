//! Content-based classification of an address into the addressing schemes
//! of §3 of the paper.
//!
//! Content-only classification is *exact* for the transition mechanisms
//! (their formats are reserved or strongly marked) and *heuristic* for
//! everything else — which is precisely the paper's motivation for adding
//! temporal analysis. The classifier here produces the categories used to
//! build Table 1 and to cull transition mechanisms before temporal/spatial
//! classification. [`cull`] is that culling step on its own: the census
//! ingest path needs only the §4.1 partition, not the IID heuristics.

use crate::{embedded_ipv4, iid_entropy_bits, special, Addr, Iid, Mac};

/// The addressing scheme an address appears (by content alone) to use.
///
/// Variants are ordered by the precedence the classifier applies: the
/// transition mechanisms are checked first because their formats are
/// authoritative; the remaining variants are content heuristics over the
/// IID of "Other" (native-transport) addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AddressScheme {
    /// Teredo (RFC 4380): inside `2001::/32`.
    Teredo,
    /// ISATAP (RFC 5214): IID is `[02]00:5efe` + embedded IPv4.
    Isatap,
    /// 6to4 (RFC 3056): inside `2002::/16`.
    SixToFour,
    /// SLAAC with modified EUI-64 IID (RFC 4862): `ff:fe` marker present.
    /// Carries the embedded MAC.
    Eui64(Mac),
    /// An IPv4 address embedded ad hoc in the low 32 bits (dual-stack
    /// router/host convenience, §3).
    EmbeddedV4([u8; 4]),
    /// "Low" IID: only the bottom 16 bits used — manual assignment or a
    /// small DHCPv6 pool (Figure 1 sample (i)).
    LowIid,
    /// Structured value in the low 64 bits: small IID (≤32 bits) with
    /// visible subnetting structure (Figure 1 sample (ii)).
    Structured,
    /// Apparently pseudorandom IID — consistent with RFC 4941 privacy
    /// extensions or RFC 7217 stable-privacy (Figure 1 sample (iv)).
    /// Content alone cannot distinguish these; the temporal classifier
    /// can.
    Pseudorandom,
    /// None of the above: a mid-entropy IID that is neither clearly
    /// structured nor clearly random.
    Unclassified,
}

impl AddressScheme {
    /// True for the three early transition mechanisms the census culls
    /// from the "Other" population (§4.1).
    pub const fn is_transition_mechanism(self) -> bool {
        matches!(
            self,
            AddressScheme::Teredo | AddressScheme::Isatap | AddressScheme::SixToFour
        )
    }

    /// True for EUI-64 (carries a persistent, globally meaningful IID).
    pub const fn is_eui64(self) -> bool {
        matches!(self, AddressScheme::Eui64(_))
    }

    /// A short stable label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            AddressScheme::Teredo => "teredo",
            AddressScheme::Isatap => "isatap",
            AddressScheme::SixToFour => "6to4",
            AddressScheme::Eui64(_) => "eui64",
            AddressScheme::EmbeddedV4(_) => "embedded-v4",
            AddressScheme::LowIid => "low-iid",
            AddressScheme::Structured => "structured",
            AddressScheme::Pseudorandom => "pseudorandom",
            AddressScheme::Unclassified => "unclassified",
        }
    }
}

/// Entropy (bits) at or above which an IID is deemed pseudorandom. Chosen
/// so RFC 4941 IIDs (uniform 64-bit less the fixed u-bit) essentially
/// always clear it while hand-assigned and subnet-structured IIDs do not;
/// see the calibration test below and `tests/scheme_calibration.rs`.
pub const PSEUDORANDOM_ENTROPY_BITS: f64 = 34.0;

/// The §4.1 culling partition: the three early transition mechanisms,
/// EUI-64 among the rest, and everything else. It is the first half of
/// [`classify`], the part every address pays for; [`classify`] refines
/// only [`Cull::Other`] further, by the IID heuristics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cull {
    /// Teredo (RFC 4380): inside `2001::/32`.
    Teredo,
    /// 6to4 (RFC 3056): inside `2002::/16`.
    SixToFour,
    /// ISATAP (RFC 5214): IID is `[02]00:5efe` + embedded IPv4.
    Isatap,
    /// Modified EUI-64 IID, carrying the embedded MAC.
    Eui64(Mac),
    /// Any other address: native IPv6 end-to-end transport.
    Other,
}

/// Culls an address into the §4.1 partition without running the IID
/// heuristics: `cull(a)` is [`classify`]`(a)` with every scheme other
/// than Teredo, 6to4, ISATAP and EUI-64 folded into [`Cull::Other`].
///
/// Precedence: Teredo and 6to4 by reserved prefix, then ISATAP, then
/// EUI-64 by IID marker.
pub fn cull(a: Addr) -> Cull {
    if special::is_teredo(a) {
        return Cull::Teredo;
    }
    if special::is_6to4(a) {
        return Cull::SixToFour;
    }
    cull_iid(Iid::of(a))
}

/// The IID half of [`cull`]: ISATAP, then EUI-64, else other.
fn cull_iid(iid: Iid) -> Cull {
    if iid.is_isatap() {
        return Cull::Isatap;
    }
    match iid.eui64_mac() {
        Some(mac) => Cull::Eui64(mac),
        None => Cull::Other,
    }
}

/// Classifies an address by content alone (§3 categories).
///
/// Precedence: [`cull`] first (Teredo and 6to4 by reserved prefix,
/// ISATAP and EUI-64 by IID marker), then, for the rest, embedded IPv4,
/// then IID size heuristics, then the entropy heuristic.
///
/// Note that 6to4 wins over IID structure: a 6to4 address with an EUI-64
/// IID is still 6to4 for culling purposes (Table 1 counts "EUI-64 addr
/// (!6to4)" separately for exactly this reason — use
/// [`classify_beneath_6to4`] to see through the 6to4 prefix).
pub fn classify(a: Addr) -> AddressScheme {
    refine(a, cull(a))
}

/// Classifies the IID content of an address, ignoring whether the network
/// prefix is 6to4 — used for the Table 1 "EUI-64 addr (!6to4)" split.
pub fn classify_beneath_6to4(a: Addr) -> AddressScheme {
    refine(a, cull_iid(Iid::of(a)))
}

/// The scheme of an address culled as `c`: the culled classes map one
/// to one, and "other" addresses go through the IID heuristics.
fn refine(a: Addr, c: Cull) -> AddressScheme {
    match c {
        Cull::Teredo => AddressScheme::Teredo,
        Cull::SixToFour => AddressScheme::SixToFour,
        Cull::Isatap => AddressScheme::Isatap,
        Cull::Eui64(mac) => AddressScheme::Eui64(mac),
        Cull::Other => classify_other_iid(a),
    }
}

/// The IID heuristics for an address [`cull`] left as other.
fn classify_other_iid(a: Addr) -> AddressScheme {
    if let Some(v4) = embedded_ipv4(a) {
        return AddressScheme::EmbeddedV4(v4);
    }
    let iid = Iid::of(a);
    if iid.is_low() {
        return AddressScheme::LowIid;
    }
    if iid.is_small() {
        return AddressScheme::Structured;
    }
    let e = iid_entropy_bits(iid);
    if e >= PSEUDORANDOM_ENTROPY_BITS {
        AddressScheme::Pseudorandom
    } else if e < 20.0 {
        AddressScheme::Structured
    } else {
        AddressScheme::Unclassified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn figure1_samples() {
        // The four sample addresses of the paper's Figure 1.
        assert_eq!(classify(a("2001:db8:10:1::103")), AddressScheme::LowIid);
        assert_eq!(
            classify(a("2001:db8:167:1109::10:901")),
            AddressScheme::Structured
        );
        assert!(matches!(
            classify(a("2001:db8:0:1cdf:21e:c2ff:fec0:11db")),
            AddressScheme::Eui64(_)
        ));
        assert_eq!(
            classify(a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a")),
            AddressScheme::Pseudorandom
        );
    }

    #[test]
    fn transition_mechanisms_take_precedence() {
        // A 6to4 address with an EUI-64 IID is 6to4 at top level...
        let sixtofour_eui = a("2002:c000:0201:1:21e:c2ff:fec0:11db");
        assert_eq!(classify(sixtofour_eui), AddressScheme::SixToFour);
        // ...but classify_beneath_6to4 sees the EUI-64.
        assert!(matches!(
            classify_beneath_6to4(sixtofour_eui),
            AddressScheme::Eui64(_)
        ));
        assert_eq!(classify(a("2001::1")), AddressScheme::Teredo);
        assert_eq!(
            classify(a("2400::200:5efe:192.0.2.1")),
            AddressScheme::Isatap
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AddressScheme::SixToFour.label(), "6to4");
        assert_eq!(AddressScheme::Pseudorandom.label(), "pseudorandom");
    }

    #[test]
    fn transition_predicate() {
        assert!(AddressScheme::Teredo.is_transition_mechanism());
        assert!(AddressScheme::Isatap.is_transition_mechanism());
        assert!(AddressScheme::SixToFour.is_transition_mechanism());
        assert!(!AddressScheme::Pseudorandom.is_transition_mechanism());
        assert!(!AddressScheme::Eui64(Mac::PAPER_DUPLICATE).is_transition_mechanism());
    }

    #[test]
    fn embedded_v4_scheme() {
        assert_eq!(
            classify(a("2600:db8:10:1::c633:6407")), // 198.51.100.7
            AddressScheme::EmbeddedV4([198, 51, 100, 7])
        );
    }
}
