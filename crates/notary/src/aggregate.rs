//! Monthly aggregation: the counters behind every figure in the paper.
//!
//! [`NotaryAggregate`] ingests [`ConnectionRecord`]s and maintains, per
//! calendar month, exactly the statistics the paper plots:
//!
//! * negotiated protocol versions (Figure 1)
//! * negotiated cipher classes RC4/CBC/AEAD (Figure 2) and the
//!   DES/3DES/NULL/anon/export/GOST oddities (§5.5–§6.2)
//! * advertised cipher classes per connection (Figures 3, 6, 7, 10)
//! * per-fingerprint class support (Figure 4) and lifetimes (§4.1)
//! * first-offer relative positions (Figure 5)
//! * key-exchange classes and negotiated curves (Figure 8, §6.3.3)
//! * AEAD algorithm breakdowns (Figures 9, 10)
//! * heartbeat negotiation (§5.4) and TLS 1.3 advertisement /
//!   negotiation with the draft-version mix (§6.4)

use std::collections::BTreeMap;

use tlscope_chron::Month;
use tlscope_fingerprint::{Fingerprint, FpId, FpInterner, Sighting, SightingTracker};
use tlscope_wire::fxhash::FxHashMap;
use tlscope_wire::{AeadAlg, Kx, ProtocolVersion};

use crate::conn::{ClientOffer, ConnectionRecord, ServerOutcome};

/// The Notary gained the ClientHello fields needed for fingerprinting
/// in February 2014 (§4.0.1); fingerprint-level tracking ignores flows
/// before this date, exactly as the paper's does.
pub const FINGERPRINT_FIELDS_SINCE: tlscope_chron::Date = tlscope_chron::Date::ymd(2014, 2, 1);

/// Coarse negotiated-version buckets (Figure 1 series).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VersionCounts {
    /// SSL 2 connections (client-side framing).
    pub ssl2: u64,
    /// SSL 3.
    pub ssl3: u64,
    /// TLS 1.0.
    pub tls10: u64,
    /// TLS 1.1.
    pub tls11: u64,
    /// TLS 1.2.
    pub tls12: u64,
    /// Any TLS 1.3 family member (final, draft, experiment).
    pub tls13: u64,
    /// Anything else.
    pub other: u64,
}

impl VersionCounts {
    fn bump(&mut self, v: ProtocolVersion) {
        match v {
            ProtocolVersion::Ssl2 => self.ssl2 += 1,
            ProtocolVersion::Ssl3 => self.ssl3 += 1,
            ProtocolVersion::Tls10 => self.tls10 += 1,
            ProtocolVersion::Tls11 => self.tls11 += 1,
            ProtocolVersion::Tls12 => self.tls12 += 1,
            v if v.is_tls13_family() => self.tls13 += 1,
            _ => self.other += 1,
        }
    }
}

/// Key-exchange buckets (Figure 8 series).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KxCounts {
    /// RSA key transport.
    pub rsa: u64,
    /// Finite-field ephemeral DH.
    pub dhe: u64,
    /// Elliptic-curve ephemeral DH.
    pub ecdhe: u64,
    /// Static DH.
    pub dh: u64,
    /// Static ECDH.
    pub ecdh: u64,
    /// TLS 1.3 (always ephemeral).
    pub tls13: u64,
    /// Everything else (PSK, SRP, Kerberos, GOST, ...).
    pub other: u64,
}

impl KxCounts {
    fn bump(&mut self, kx: Option<Kx>) {
        match kx {
            Some(Kx::Rsa) => self.rsa += 1,
            Some(Kx::Dhe) | Some(Kx::DhAnon) => self.dhe += 1,
            Some(Kx::Ecdhe) | Some(Kx::EcdhAnon) => self.ecdhe += 1,
            Some(Kx::Dh) => self.dh += 1,
            Some(Kx::Ecdh) => self.ecdh += 1,
            Some(Kx::Tls13) => self.tls13 += 1,
            _ => self.other += 1,
        }
    }
}

/// AEAD algorithm buckets (Figures 9 and 10).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AeadCounts {
    /// AES-128-GCM.
    pub aes128gcm: u64,
    /// AES-256-GCM.
    pub aes256gcm: u64,
    /// ChaCha20-Poly1305 (standard or pre-standard code points).
    pub chacha: u64,
    /// AES-CCM (all variants).
    pub ccm: u64,
    /// Camellia/ARIA GCM.
    pub other: u64,
}

impl AeadCounts {
    fn bump(&mut self, alg: AeadAlg) {
        match alg {
            AeadAlg::Aes128Gcm => self.aes128gcm += 1,
            AeadAlg::Aes256Gcm => self.aes256gcm += 1,
            AeadAlg::ChaCha20Poly1305 => self.chacha += 1,
            AeadAlg::AesCcm => self.ccm += 1,
            AeadAlg::Other => self.other += 1,
        }
    }

    /// Total AEAD count.
    pub fn total(&self) -> u64 {
        self.aes128gcm + self.aes256gcm + self.chacha + self.ccm + self.other
    }
}

/// Running mean of first-offer relative positions (Figure 5).
///
/// Positions are accumulated in integer micro-units (1e-6 of the
/// relative position) rather than as an `f64` sum: integer addition is
/// associative, so serial ingestion and any parallel sharding produce
/// byte-identical aggregates — an invariant the pipeline property
/// tests check exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PositionMean {
    pub(crate) sum_micro: u64,
    pub(crate) n: u64,
}

impl PositionMean {
    /// Mean relative position in percent (0 = head of list).
    pub fn mean_pct(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(100.0 * (self.sum_micro as f64 / 1e6) / self.n as f64)
        }
    }
}

/// Class-support flags of one fingerprint (Figure 4 rows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FpClassFlags {
    /// Offers at least one RC4 suite.
    pub rc4: bool,
    /// Offers at least one CBC suite.
    pub cbc: bool,
    /// Offers at least one AEAD suite.
    pub aead: bool,
    /// Offers single DES.
    pub des: bool,
    /// Offers 3DES.
    pub tdes: bool,
    /// Offers NULL encryption.
    pub null: bool,
    /// Offers anonymous suites.
    pub anon: bool,
}

// `OfferFold::classes` bits, one per advertised class counter.
const RC4: u16 = 1 << 0;
const CBC: u16 = 1 << 1;
const AEAD: u16 = 1 << 2;
const DES: u16 = 1 << 3;
const TDES: u16 = 1 << 4;
const EXPORT: u16 = 1 << 5;
const ANON: u16 = 1 << 6;
const NULL: u16 = 1 << 7;
const FS: u16 = 1 << 8;

/// `OfferFold::positions` value of a class the offer does not contain.
const ABSENT: u32 = u32::MAX;

/// `OfferFold::aead_algs` bit of one algorithm.
fn aead_bit(alg: AeadAlg) -> u8 {
    1 << match alg {
        AeadAlg::Aes128Gcm => 0,
        AeadAlg::Aes256Gcm => 1,
        AeadAlg::ChaCha20Poly1305 => 2,
        AeadAlg::AesCcm => 3,
        AeadAlg::Other => 4,
    }
}

/// One client offer's advertised-side contribution to its month: the
/// classes and AEAD algorithms it offers, and where each position class
/// first appears (Figures 3–7, 9, 10).
///
/// `OfferFold::of` is the only place a suite list is classified for
/// the aggregate. The fold depends only on the offer's GREASE-free
/// content: GREASE, SCSV and unregistered values belong to no class, and
/// positions skip GREASE and SCSV. So the parse cache computes it once
/// per distinct hello, next to the memoised fingerprint hash, and a hit
/// whose GREASE slots were re-patched carries the fold of the flow that
/// filled the entry. Every cache entry holds one, hence the 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferFold {
    /// Class-presence bits (`RC4` … `FS`).
    classes: u16,
    /// Offered AEAD algorithms, one [`aead_bit`] each.
    aead_algs: u8,
    /// First-offer relative position of the aead, cbc, rc4, des and
    /// 3des classes in micro-units, rounded as [`PositionMean`]
    /// accumulates them; `ABSENT` when the class is not offered.
    pub(crate) positions: [u32; 5],
}

const _: () = assert!(std::mem::size_of::<OfferFold>() == 24);

impl OfferFold {
    /// Classify every offered suite with one registry lookup each.
    pub(crate) fn of(offer: &ClientOffer) -> OfferFold {
        let mut fold = OfferFold {
            classes: 0,
            aead_algs: 0,
            positions: [ABSENT; 5],
        };
        let mut first = [None::<usize>; 5];
        let mut real = 0usize;
        for c in offer.suites.iter().copied() {
            let cl = c.classes();
            let bits = [
                (cl.rc4, RC4),
                (cl.cbc, CBC),
                (cl.aead, AEAD),
                (cl.des, DES),
                (cl.tdes, TDES),
                (cl.export, EXPORT),
                (cl.anon, ANON),
                (cl.null_enc, NULL),
                (cl.forward_secret, FS),
            ];
            for (member, bit) in bits {
                if member {
                    fold.classes |= bit;
                }
            }
            if let Some(alg) = cl.aead_alg {
                fold.aead_algs |= aead_bit(alg);
            }
            // GREASE and SCSV entries count for neither a position nor
            // the denominator.
            if tlscope_wire::is_grease(c.0) || c.is_signaling() {
                continue;
            }
            for (hit, member) in first
                .iter_mut()
                .zip([cl.aead, cl.cbc, cl.rc4, cl.des, cl.tdes])
            {
                if member && hit.is_none() {
                    *hit = Some(real);
                }
            }
            real += 1;
        }
        // A hit implies `real > 0`.
        for (pos, hit) in fold.positions.iter_mut().zip(first) {
            if let Some(i) = hit {
                *pos = ((i as f64 / real as f64) * 1e6).round() as u32;
            }
        }
        fold
    }

    /// Class-support flags of the fingerprint this offer carries.
    pub(crate) fn fp_flags(self) -> FpClassFlags {
        let has = |bit| self.classes & bit != 0;
        FpClassFlags {
            rc4: has(RC4),
            cbc: has(CBC),
            aead: has(AEAD),
            des: has(DES),
            tdes: has(TDES),
            null: has(NULL),
            anon: has(ANON),
        }
    }

    /// Add this offer's connection to the advertised counters and
    /// position means.
    fn add_to(self, stats: &mut MonthlyStats) {
        let has = |bit| u64::from(self.classes & bit != 0);
        stats.adv_rc4 += has(RC4);
        stats.adv_cbc += has(CBC);
        stats.adv_aead += has(AEAD);
        stats.adv_des += has(DES);
        stats.adv_3des += has(TDES);
        stats.adv_export += has(EXPORT);
        stats.adv_anon += has(ANON);
        stats.adv_null += has(NULL);
        stats.adv_fs += has(FS);
        let alg = |a| u64::from(self.aead_algs & aead_bit(a) != 0);
        let algs = &mut stats.adv_aead_alg;
        algs.aes128gcm += alg(AeadAlg::Aes128Gcm);
        algs.aes256gcm += alg(AeadAlg::Aes256Gcm);
        algs.chacha += alg(AeadAlg::ChaCha20Poly1305);
        algs.ccm += alg(AeadAlg::AesCcm);
        algs.other += alg(AeadAlg::Other);
        let means = [
            &mut stats.pos_aead,
            &mut stats.pos_cbc,
            &mut stats.pos_rc4,
            &mut stats.pos_des,
            &mut stats.pos_3des,
        ];
        for (mean, micro) in means.into_iter().zip(self.positions) {
            if micro != ABSENT {
                mean.sum_micro += u64::from(micro);
                mean.n += 1;
            }
        }
    }
}

/// All per-month counters.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MonthlyStats {
    /// Connections ingested this month.
    pub total: u64,
    /// SSLv2-framed connections.
    pub sslv2: u64,
    /// Server rejected with an alert.
    pub rejected: u64,
    /// Server flow missing from the tap.
    pub missing_server: u64,
    /// Server flow present but unparseable.
    pub garbled_server: u64,
    /// Successfully negotiated connections.
    pub answered: u64,

    /// Negotiated protocol versions.
    pub neg_version: VersionCounts,
    /// Negotiated cipher class counters.
    pub neg_rc4: u64,
    /// Negotiated CBC-mode.
    pub neg_cbc: u64,
    /// Negotiated AEAD.
    pub neg_aead: u64,
    /// Negotiated NULL encryption.
    pub neg_null: u64,
    /// Negotiated the fully-null suite.
    pub neg_null_null: u64,
    /// Negotiated 3DES.
    pub neg_3des: u64,
    /// Negotiated single DES.
    pub neg_des: u64,
    /// Negotiated an export-grade suite.
    pub neg_export: u64,
    /// Negotiated an anonymous suite.
    pub neg_anon: u64,
    /// Negotiated a suite the client did not offer (out-of-spec, §7.3).
    pub neg_unoffered: u64,
    /// Negotiated forward secrecy.
    pub neg_fs: u64,
    /// Negotiated key-exchange classes.
    pub neg_kx: KxCounts,
    /// Negotiated AEAD algorithms.
    pub neg_aead_alg: AeadCounts,
    /// Negotiated curve counts by wire id.
    pub curves: FxHashMap<u16, u64>,
    /// Heartbeat negotiated (offered + echoed, §5.4).
    pub heartbeat_negotiated: u64,

    /// Connections whose client offered RC4.
    pub adv_rc4: u64,
    /// ... CBC.
    pub adv_cbc: u64,
    /// ... AEAD.
    pub adv_aead: u64,
    /// ... single DES.
    pub adv_des: u64,
    /// ... 3DES.
    pub adv_3des: u64,
    /// ... export-grade suites.
    pub adv_export: u64,
    /// ... anonymous suites.
    pub adv_anon: u64,
    /// ... NULL encryption.
    pub adv_null: u64,
    /// ... forward-secret suites.
    pub adv_fs: u64,
    /// ... the heartbeat extension.
    pub adv_heartbeat: u64,
    /// ... any TLS 1.3 family version.
    pub adv_tls13: u64,
    /// Advertised AEAD algorithms (connection-weighted).
    pub adv_aead_alg: AeadCounts,
    /// supported_versions values seen (wire value → connections).
    pub supported_versions_values: FxHashMap<u16, u64>,
    /// Connections advertising each extension type (§9's RIE and
    /// Encrypt-then-MAC tracking, SNI/EMS adoption, ...).
    pub adv_extensions: FxHashMap<u16, u64>,

    /// Mean first-offer positions per class.
    pub pos_aead: PositionMean,
    /// CBC position mean.
    pub pos_cbc: PositionMean,
    /// RC4 position mean.
    pub pos_rc4: PositionMean,
    /// DES position mean.
    pub pos_des: PositionMean,
    /// 3DES position mean.
    pub pos_3des: PositionMean,

    /// Distinct fingerprints seen this month with their class flags,
    /// keyed by the owning aggregate's interned fingerprint id.
    pub fp_flags: FxHashMap<FpId, FpClassFlags>,
}

/// Every counter of [`MonthlyStats`] but `fp_flags`, each named once
/// with its checkpoint key, in on-disk key order: the macro emits the
/// month merge and both halves of the checkpoint's `month`-line codec
/// from this table.
macro_rules! month_counts {
    (
        scalars { $($key:literal => $($field:ident).+,)* }
        maps { $($tag:literal => $map:ident,)* }
    ) => {
        impl MonthlyStats {
            /// Add every counter of `other` except `fp_flags`, whose ids
            /// belong to `other`'s interner.
            pub(crate) fn add_counts(&mut self, other: &MonthlyStats) {
                $(self.$($field).+ += other.$($field).+;)*
                $(
                    for (key, n) in &other.$map {
                        *self.$map.entry(*key).or_insert(0) += n;
                    }
                )*
            }

            /// Append `\t<key>=<value>` for every scalar counter, then
            /// `\t<tag>:<key>=<value>` for every map entry, sorted.
            pub(crate) fn write_counts(&self, out: &mut String) {
                $(out.push_str(&format!("\t{}={}", $key, self.$($field).+));)*
                $(
                    let mut entries: Vec<_> = self.$map.iter().collect();
                    entries.sort();
                    for (key, val) in entries {
                        out.push_str(&format!("\t{}:{key}={val}", $tag));
                    }
                )*
            }

            /// Set the scalar counter `key`, or the map entry a
            /// `<tag>:<map key>` key names, to `val`; `None` for any
            /// other key, which would otherwise silently drop a counter.
            pub(crate) fn set_count(&mut self, key: &str, val: u64) -> Option<()> {
                match key {
                    $($key => self.$($field).+ = val,)*
                    _ => {
                        let (tag, map_key) = key.split_once(':')?;
                        let map = match tag {
                            $($tag => &mut self.$map,)*
                            _ => return None,
                        };
                        map.insert(map_key.parse().ok()?, val);
                    }
                }
                Some(())
            }
        }
    };
}

month_counts! {
    scalars {
        "total" => total,
        "sslv2" => sslv2,
        "rejected" => rejected,
        "missing_server" => missing_server,
        "garbled_server" => garbled_server,
        "answered" => answered,
        "v_ssl2" => neg_version.ssl2,
        "v_ssl3" => neg_version.ssl3,
        "v_tls10" => neg_version.tls10,
        "v_tls11" => neg_version.tls11,
        "v_tls12" => neg_version.tls12,
        "v_tls13" => neg_version.tls13,
        "v_other" => neg_version.other,
        "neg_rc4" => neg_rc4,
        "neg_cbc" => neg_cbc,
        "neg_aead" => neg_aead,
        "neg_null" => neg_null,
        "neg_null_null" => neg_null_null,
        "neg_3des" => neg_3des,
        "neg_des" => neg_des,
        "neg_export" => neg_export,
        "neg_anon" => neg_anon,
        "neg_unoffered" => neg_unoffered,
        "neg_fs" => neg_fs,
        "kx_rsa" => neg_kx.rsa,
        "kx_dhe" => neg_kx.dhe,
        "kx_ecdhe" => neg_kx.ecdhe,
        "kx_dh" => neg_kx.dh,
        "kx_ecdh" => neg_kx.ecdh,
        "kx_tls13" => neg_kx.tls13,
        "kx_other" => neg_kx.other,
        "na_128gcm" => neg_aead_alg.aes128gcm,
        "na_256gcm" => neg_aead_alg.aes256gcm,
        "na_chacha" => neg_aead_alg.chacha,
        "na_ccm" => neg_aead_alg.ccm,
        "na_other" => neg_aead_alg.other,
        "hb_neg" => heartbeat_negotiated,
        "adv_rc4" => adv_rc4,
        "adv_cbc" => adv_cbc,
        "adv_aead" => adv_aead,
        "adv_des" => adv_des,
        "adv_3des" => adv_3des,
        "adv_export" => adv_export,
        "adv_anon" => adv_anon,
        "adv_null" => adv_null,
        "adv_fs" => adv_fs,
        "adv_hb" => adv_heartbeat,
        "adv_tls13" => adv_tls13,
        "aa_128gcm" => adv_aead_alg.aes128gcm,
        "aa_256gcm" => adv_aead_alg.aes256gcm,
        "aa_chacha" => adv_aead_alg.chacha,
        "aa_ccm" => adv_aead_alg.ccm,
        "aa_other" => adv_aead_alg.other,
        // Raw PositionMean accumulators (micro-unit sum + sample count),
        // so a reloaded partial is bit-identical.
        "pa_sum" => pos_aead.sum_micro,
        "pa_n" => pos_aead.n,
        "pc_sum" => pos_cbc.sum_micro,
        "pc_n" => pos_cbc.n,
        "pr_sum" => pos_rc4.sum_micro,
        "pr_n" => pos_rc4.n,
        "pd_sum" => pos_des.sum_micro,
        "pd_n" => pos_des.n,
        "p3_sum" => pos_3des.sum_micro,
        "p3_n" => pos_3des.n,
    }
    maps {
        "curve" => curves,
        "sv" => supported_versions_values,
        "ext" => adv_extensions,
    }
}

impl MonthlyStats {
    /// Percentage of monthly connections, given a counter.
    pub fn pct(&self, count: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.total as f64
        }
    }

    /// Percentage of *answered* connections.
    pub fn pct_answered(&self, count: u64) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            100.0 * count as f64 / self.answered as f64
        }
    }

    /// Percentage of this month's distinct fingerprints matching `f`.
    pub fn pct_fingerprints(&self, f: impl Fn(&FpClassFlags) -> bool) -> f64 {
        if self.fp_flags.is_empty() {
            return 0.0;
        }
        100.0 * self.fp_flags.values().filter(|v| f(v)).count() as f64 / self.fp_flags.len() as f64
    }

    /// Percentage of negotiated curves that are `group`.
    pub fn pct_curve(&self, group: u16) -> f64 {
        let total: u64 = self.curves.values().sum();
        if total == 0 {
            0.0
        } else {
            100.0 * *self.curves.get(&group).unwrap_or(&0) as f64 / total as f64
        }
    }
}

/// The full longitudinal aggregate.
///
/// Equality is exact: with [`PositionMean`]'s integer accumulation,
/// two aggregates built from the same flows — in any ingestion order
/// or sharding — compare equal. Fingerprint state is interned: the
/// dense [`FpId`] each shard assigns depends on its ingestion order,
/// so equality (and [`NotaryAggregate::merge`]) resolve ids through
/// the interner rather than comparing them raw.
#[derive(Debug, Default)]
pub struct NotaryAggregate {
    months: BTreeMap<Month, MonthlyStats>,
    /// Hash-consed fingerprint table: every distinct fingerprint is
    /// stored once; all per-fingerprint state keys on its dense id.
    pub(crate) interner: FpInterner,
    /// First/last-seen tracking per interned fingerprint (§4.1).
    pub sightings: SightingTracker<FpId>,
    /// Total connections per fingerprint, indexed by [`FpId`] (Table 2
    /// coverage input).
    pub(crate) fp_counts: Vec<u64>,
    /// Flows that were not SSL/TLS at all.
    pub not_tls: u64,
    /// Client flows too damaged to parse.
    pub garbled_client: u64,
    /// Connections recovered by prefix salvage after tap damage
    /// (ingested normally; this counter only sizes the degradation).
    pub salvaged: u64,
}

impl NotaryAggregate {
    /// Empty aggregate.
    pub fn new() -> Self {
        NotaryAggregate::default()
    }

    /// Ingest one extracted connection record.
    pub fn ingest(&mut self, rec: &ConnectionRecord) {
        if rec.salvaged {
            self.salvaged += 1;
        }
        let stats = self.months.entry(rec.month).or_default();
        stats.total += 1;
        if rec.sslv2 {
            stats.sslv2 += 1;
            stats.neg_version.ssl2 += 1;
        }

        if let Some(offer) = &rec.client {
            // The parse cache hands over the fold with the offer; SSLv2,
            // salvaged and uncached offers are classified here.
            let fold = offer.fold.unwrap_or_else(|| OfferFold::of(offer));
            Self::ingest_offer(stats, offer, fold);
            if rec.date >= FINGERPRINT_FIELDS_SINCE {
                // A repeat fingerprint is a hash of the id64 and a u32
                // table hit — the clone runs only on first sight. The
                // parse cache memoises the id64 alongside the offer,
                // so cached flows skip even the rehash.
                let id64 = offer.fp_id64.unwrap_or_else(|| offer.fingerprint.id64());
                let fp = self
                    .interner
                    .intern_hashed(id64, || offer.fingerprint.clone());
                self.sightings.observe(fp, rec.date, 1);
                if self.fp_counts.len() <= fp.index() {
                    self.fp_counts.resize(fp.index() + 1, 0);
                }
                self.fp_counts[fp.index()] += 1;
                stats.fp_flags.entry(fp).or_insert_with(|| fold.fp_flags());
            }
        }

        match &rec.server {
            ServerOutcome::Missing => stats.missing_server += 1,
            ServerOutcome::Rejected { .. } => stats.rejected += 1,
            ServerOutcome::Garbled => stats.garbled_server += 1,
            ServerOutcome::Answered(ans) => {
                stats.answered += 1;
                stats.neg_version.bump(ans.version);
                let c = ans.cipher;
                let cl = c.classes();
                stats.neg_rc4 += u64::from(cl.rc4);
                stats.neg_cbc += u64::from(cl.cbc);
                stats.neg_aead += u64::from(cl.aead);
                stats.neg_null += u64::from(cl.null_enc);
                stats.neg_null_null += u64::from(c.is_null_null());
                stats.neg_3des += u64::from(cl.tdes);
                stats.neg_des += u64::from(cl.des);
                stats.neg_export += u64::from(cl.export);
                stats.neg_anon += u64::from(cl.anon);
                stats.neg_fs += u64::from(cl.forward_secret);
                stats.neg_kx.bump(c.kx());
                if let Some(alg) = cl.aead_alg {
                    stats.neg_aead_alg.bump(alg);
                }
                if let Some(curve) = ans.curve {
                    *stats.curves.entry(curve.0).or_insert(0) += 1;
                }
                if ans.heartbeat {
                    stats.heartbeat_negotiated += 1;
                }
                if let Some(offer) = &rec.client {
                    let offered = offer.suites.contains(&ans.cipher);
                    if !offered {
                        stats.neg_unoffered += 1;
                    }
                }
            }
        }
    }

    /// The advertised side of one flow: the offer's fold, plus the
    /// counters read from this flow's own extensions.
    fn ingest_offer(stats: &mut MonthlyStats, offer: &ClientOffer, fold: OfferFold) {
        fold.add_to(stats);
        if offer.heartbeat {
            stats.adv_heartbeat += 1;
        }
        if offer.versions.iter().any(|v| v.is_tls13_family()) {
            stats.adv_tls13 += 1;
        }
        for v in &offer.supported_versions_raw {
            *stats.supported_versions_values.entry(*v).or_insert(0) += 1;
        }
        for t in &offer.extension_types {
            *stats.adv_extensions.entry(*t).or_insert(0) += 1;
        }
    }

    /// Record a flow that failed extraction.
    pub fn ingest_failure(&mut self, err: crate::conn::ExtractError) {
        match err {
            crate::conn::ExtractError::NotTls => self.not_tls += 1,
            crate::conn::ExtractError::GarbledClient => self.garbled_client += 1,
        }
    }

    /// Stats for one month.
    pub fn month(&self, m: Month) -> Option<&MonthlyStats> {
        self.months.get(&m)
    }

    /// Insert a fully-built month record (used by the store loader).
    pub fn insert_month(&mut self, m: Month, stats: MonthlyStats) {
        self.months.insert(m, stats);
    }

    /// Iterate months in order.
    pub fn iter_months(&self) -> impl Iterator<Item = (&Month, &MonthlyStats)> {
        self.months.iter()
    }

    /// Total connections across all months.
    pub fn total(&self) -> u64 {
        self.months.values().map(|m| m.total).sum()
    }

    /// Number of distinct fingerprints interned.
    pub fn distinct_fingerprints(&self) -> usize {
        self.interner.len()
    }

    /// Iterate `(fingerprint, connection count)` pairs in interning
    /// order.
    pub fn iter_fp_counts(&self) -> impl Iterator<Item = (&Fingerprint, u64)> {
        self.interner
            .iter()
            .map(|(id, fp)| (fp, self.fp_counts.get(id.index()).copied().unwrap_or(0)))
    }

    /// Connection count for one fingerprint (0 when never seen).
    pub fn fp_count(&self, fp: &Fingerprint) -> u64 {
        self.interner
            .lookup_id64(fp.id64())
            .and_then(|id| self.fp_counts.get(id.index()).copied())
            .unwrap_or(0)
    }

    /// Sighting record for one fingerprint.
    pub fn sighting_of(&self, fp: &Fingerprint) -> Option<&Sighting> {
        let id = self.interner.lookup_id64(fp.id64())?;
        self.sightings.get(id)
    }

    /// Add `n` connections to a fingerprint id's count, growing the
    /// dense table as needed.
    pub(crate) fn bump_fp(&mut self, id: FpId, n: u64) {
        if self.fp_counts.len() <= id.index() {
            self.fp_counts.resize(id.index() + 1, 0);
        }
        self.fp_counts[id.index()] += n;
    }

    /// Merge another aggregate into this one (parallel ingestion).
    ///
    /// `other`'s dense fingerprint ids are meaningless here, so its
    /// interner is drained first into a remap table; every id-keyed
    /// structure is translated through it. The result is identical to
    /// having ingested `other`'s records into `self` directly.
    pub fn merge(&mut self, other: NotaryAggregate) {
        let remap: Vec<FpId> = other
            .interner
            .into_entries()
            .map(|(id64, fp)| self.interner.intern_hashed(id64, || fp))
            .collect();
        for (month, stats) in other.months {
            let mine = self.months.entry(month).or_default();
            mine.add_counts(&stats);
            for (fp, flags) in stats.fp_flags {
                mine.fp_flags.entry(remap[fp.index()]).or_insert(flags);
            }
        }
        for (i, count) in other.fp_counts.into_iter().enumerate() {
            self.bump_fp(remap[i], count);
        }
        // Merge sighting windows.
        for (id, s) in other.sightings.iter_raw() {
            let id = remap[id.index()];
            self.sightings.observe(id, s.first, 0);
            self.sightings.observe(id, s.last, s.connections);
        }
        self.not_tls += other.not_tls;
        self.garbled_client += other.garbled_client;
        self.salvaged += other.salvaged;
    }
}

/// Id-order-independent equality: months, failure counters, and all
/// per-fingerprint state must agree, with dense ids resolved through
/// each side's interner (two shards that interned the same
/// fingerprints in different orders still compare equal).
impl PartialEq for NotaryAggregate {
    fn eq(&self, other: &Self) -> bool {
        if self.not_tls != other.not_tls
            || self.garbled_client != other.garbled_client
            || self.salvaged != other.salvaged
            || self.months.len() != other.months.len()
            || self.interner.len() != other.interner.len()
        {
            return false;
        }
        for ((ma, sa), (mb, sb)) in self.months.iter().zip(other.months.iter()) {
            if ma != mb {
                return false;
            }
            let fa: BTreeMap<u64, FpClassFlags> = sa
                .fp_flags
                .iter()
                .map(|(id, f)| (self.interner.id64_of(*id), *f))
                .collect();
            let fb: BTreeMap<u64, FpClassFlags> = sb
                .fp_flags
                .iter()
                .map(|(id, f)| (other.interner.id64_of(*id), *f))
                .collect();
            if fa != fb {
                return false;
            }
            let mut ca = sa.clone();
            let mut cb = sb.clone();
            ca.fp_flags.clear();
            cb.fp_flags.clear();
            if ca != cb {
                return false;
            }
        }
        let counts_a: BTreeMap<&Fingerprint, u64> = self.iter_fp_counts().collect();
        let counts_b: BTreeMap<&Fingerprint, u64> = other.iter_fp_counts().collect();
        if counts_a != counts_b {
            return false;
        }
        let sights_a: BTreeMap<u64, Sighting> = self
            .sightings
            .iter_raw()
            .map(|(id, s)| (self.interner.id64_of(*id), *s))
            .collect();
        let sights_b: BTreeMap<u64, Sighting> = other
            .sightings
            .iter_raw()
            .map(|(id, s)| (other.interner.id64_of(*id), *s))
            .collect();
        sights_a == sights_b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{ClientOffer, ServerAnswer};
    use tlscope_chron::Date;
    use tlscope_wire::CipherSuite;

    // The per-flow fold `OfferFold` replaced, kept verbatim as the
    // reference: every flow re-classifies its whole suite list.

    impl ClientOffer {
        /// True if any offered suite satisfies `pred` (signalling values
        /// excluded by the classifiers themselves).
        fn offers(&self, pred: impl Fn(CipherSuite) -> bool) -> bool {
            self.suites.iter().any(|c| pred(*c))
        }
    }

    impl PositionMean {
        fn add(&mut self, pos: Option<f64>) {
            if let Some(p) = pos {
                self.sum_micro += (p * 1e6).round() as u64;
                self.n += 1;
            }
        }
    }

    impl FpClassFlags {
        fn from_offer(offer: &ClientOffer) -> Self {
            FpClassFlags {
                rc4: offer.offers(|c| c.is_rc4()),
                cbc: offer.offers(|c| c.is_cbc()),
                aead: offer.offers(|c| c.is_aead()),
                des: offer.offers(|c| c.is_des()),
                tdes: offer.offers(|c| c.is_3des()),
                null: offer.offers(|c| c.is_null_encryption()),
                anon: offer.offers(|c| c.is_anon()),
            }
        }
    }

    /// `NotaryAggregate::ingest_offer` before the memo.
    fn reference_ingest_offer(stats: &mut MonthlyStats, offer: &ClientOffer) {
        // One fused pass over the suite list replaces the former
        // nine `offers()` scans, AEAD-algorithm scan, and five
        // `first_position` scans. Each suite is classified along every
        // axis with a single registry lookup (`classes()`); the
        // arithmetic matches those helpers exactly, so the fold stays
        // bit-identical to the multi-pass version.
        let mut any = tlscope_wire::SuiteClasses::default();
        let mut seen = [false; 5];
        // First-hit real index per position class: aead cbc rc4 des 3des.
        let mut pos_hit = [None::<usize>; 5];
        let mut real = 0usize;
        for c in offer.suites.iter().copied() {
            // `offers()` semantics: every suite, GREASE included
            // (GREASE/SCSV/unregistered values are in no class).
            let cl = c.classes();
            any.rc4 |= cl.rc4;
            any.cbc |= cl.cbc;
            any.aead |= cl.aead;
            any.des |= cl.des;
            any.tdes |= cl.tdes;
            any.export |= cl.export;
            any.anon |= cl.anon;
            any.null_enc |= cl.null_enc;
            any.forward_secret |= cl.forward_secret;
            // Connection-weighted advertised AEAD algorithms (one
            // count per algorithm present in the offer).
            if let Some(alg) = cl.aead_alg {
                let idx = match alg {
                    AeadAlg::Aes128Gcm => 0,
                    AeadAlg::Aes256Gcm => 1,
                    AeadAlg::ChaCha20Poly1305 => 2,
                    AeadAlg::AesCcm => 3,
                    AeadAlg::Other => 4,
                };
                if !seen[idx] {
                    seen[idx] = true;
                    stats.adv_aead_alg.bump(alg);
                }
            }
            // `first_position()` semantics: GREASE/SCSV entries count
            // for neither position nor the denominator.
            if tlscope_wire::is_grease(c.0) || c.is_signaling() {
                continue;
            }
            if pos_hit[0].is_none() && cl.aead {
                pos_hit[0] = Some(real);
            }
            if pos_hit[1].is_none() && cl.cbc {
                pos_hit[1] = Some(real);
            }
            if pos_hit[2].is_none() && cl.rc4 {
                pos_hit[2] = Some(real);
            }
            if pos_hit[3].is_none() && cl.des {
                pos_hit[3] = Some(real);
            }
            if pos_hit[4].is_none() && cl.tdes {
                pos_hit[4] = Some(real);
            }
            real += 1;
        }
        stats.adv_rc4 += u64::from(any.rc4);
        stats.adv_cbc += u64::from(any.cbc);
        stats.adv_aead += u64::from(any.aead);
        stats.adv_des += u64::from(any.des);
        stats.adv_3des += u64::from(any.tdes);
        stats.adv_export += u64::from(any.export);
        stats.adv_anon += u64::from(any.anon);
        stats.adv_null += u64::from(any.null_enc);
        stats.adv_fs += u64::from(any.forward_secret);
        if offer.heartbeat {
            stats.adv_heartbeat += 1;
        }
        if offer.versions.iter().any(|v| v.is_tls13_family()) {
            stats.adv_tls13 += 1;
        }
        for v in &offer.supported_versions_raw {
            *stats.supported_versions_values.entry(*v).or_insert(0) += 1;
        }
        for t in &offer.extension_types {
            *stats.adv_extensions.entry(*t).or_insert(0) += 1;
        }
        // Identical to `first_position`: `i as f64 / real as f64`,
        // `None` when no real suite exists.
        let frac = |hit: Option<usize>| {
            if real == 0 {
                None
            } else {
                hit.map(|i| i as f64 / real as f64)
            }
        };
        stats.pos_aead.add(frac(pos_hit[0]));
        stats.pos_cbc.add(frac(pos_hit[1]));
        stats.pos_rc4.add(frac(pos_hit[2]));
        stats.pos_des.add(frac(pos_hit[3]));
        stats.pos_3des.add(frac(pos_hit[4]));
    }

    fn offer(suites: &[u16]) -> ClientOffer {
        let cs: Vec<CipherSuite> = suites.iter().map(|&s| CipherSuite(s)).collect();
        ClientOffer {
            legacy_version: ProtocolVersion::Tls12,
            versions: vec![ProtocolVersion::Tls12],
            supported_versions_raw: vec![],
            heartbeat: false,
            extension_types: vec![],
            fingerprint: Fingerprint {
                ciphers: suites.to_vec(),
                extensions: vec![],
                curves: vec![],
                point_formats: vec![],
            },
            suites: cs,
            fp_id64: None,
            fold: None,
        }
    }

    fn record(
        month_day: (i32, u8, u8),
        suites: &[u16],
        answer: Option<(u16, u16)>,
    ) -> ConnectionRecord {
        let date = Date::ymd(month_day.0, month_day.1, month_day.2);
        ConnectionRecord {
            date,
            month: date.month(),
            port: 443,
            sslv2: false,
            client: Some(offer(suites)),
            server: match answer {
                Some((cipher, version)) => ServerOutcome::Answered(ServerAnswer {
                    version: ProtocolVersion::from_wire(version),
                    cipher: CipherSuite(cipher),
                    curve: None,
                    heartbeat: false,
                }),
                None => ServerOutcome::Rejected { alert: None },
            },
            salvaged: false,
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut agg = NotaryAggregate::new();
        agg.ingest(&record(
            (2015, 6, 1),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record(
            (2015, 6, 2),
            &[0x0005, 0x000a],
            Some((0x0005, 0x0301)),
        ));
        agg.ingest(&record((2015, 6, 3), &[0xc02f], None));
        let m = agg.month(Month::ym(2015, 6)).unwrap();
        assert_eq!(m.total, 3);
        assert_eq!(m.answered, 2);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.neg_aead, 1);
        assert_eq!(m.neg_rc4, 1);
        assert_eq!(m.adv_rc4, 2);
        assert_eq!(m.adv_aead, 2);
        assert_eq!(m.neg_version.tls12, 1);
        assert_eq!(m.neg_version.tls10, 1);
        assert!((m.pct(m.adv_rc4) - 66.666).abs() < 0.01);
        assert!((m.pct_answered(m.neg_rc4) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unoffered_cipher_detected() {
        let mut agg = NotaryAggregate::new();
        // Server picks GOST which the client never offered (§7.3).
        agg.ingest(&record((2016, 1, 5), &[0xc02f], Some((0x0081, 0x0303))));
        let m = agg.month(Month::ym(2016, 1)).unwrap();
        assert_eq!(m.neg_unoffered, 1);
    }

    #[test]
    fn fingerprint_tracking() {
        let mut agg = NotaryAggregate::new();
        agg.ingest(&record(
            (2015, 6, 1),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record(
            (2015, 6, 20),
            &[0xc02f, 0x0005],
            Some((0xc02f, 0x0303)),
        ));
        agg.ingest(&record((2015, 6, 2), &[0xc02f], Some((0xc02f, 0x0303))));
        let m = agg.month(Month::ym(2015, 6)).unwrap();
        assert_eq!(m.fp_flags.len(), 2);
        assert!((m.pct_fingerprints(|f| f.rc4) - 50.0).abs() < 1e-9);
        assert_eq!(agg.distinct_fingerprints(), 2);
        assert_eq!(agg.sightings.len(), 2);
        let fp = offer(&[0xc02f, 0x0005]).fingerprint;
        assert_eq!(agg.fp_count(&fp), 2);
        let s = agg.sighting_of(&fp).unwrap();
        assert_eq!(s.duration_days(), 20);
        assert_eq!(s.connections, 2);
    }

    #[test]
    fn merge_matches_sequential() {
        let recs: Vec<ConnectionRecord> = (0..50)
            .map(|i| {
                record(
                    (2016, 1 + (i % 3) as u8, 1 + (i % 27) as u8),
                    if i % 2 == 0 {
                        &[0xc02f, 0x0005]
                    } else {
                        &[0x002f]
                    },
                    if i % 5 == 0 {
                        None
                    } else {
                        Some((0xc02f, 0x0303))
                    },
                )
            })
            .collect();
        let mut seq = NotaryAggregate::new();
        for r in &recs {
            seq.ingest(r);
        }
        let mut a = NotaryAggregate::new();
        let mut b = NotaryAggregate::new();
        for (i, r) in recs.iter().enumerate() {
            if i % 2 == 0 {
                a.ingest(r);
            } else {
                b.ingest(r);
            }
        }
        a.merge(b);
        assert_eq!(a.total(), seq.total());
        for (m, s) in seq.iter_months() {
            let am = a.month(*m).unwrap();
            assert_eq!(am.total, s.total);
            assert_eq!(am.answered, s.answered);
            assert_eq!(am.adv_rc4, s.adv_rc4);
            assert_eq!(am.fp_flags.len(), s.fp_flags.len());
        }
        // Full id-order-independent equality: the merged shard interned
        // fingerprints in a different order than the serial pass.
        assert_eq!(a, seq);
    }

    #[test]
    fn equality_ignores_interning_order() {
        // Same records, opposite ingestion order → different dense ids
        // but equal aggregates.
        let r1 = record((2016, 3, 1), &[0xc02f, 0x0005], Some((0xc02f, 0x0303)));
        let r2 = record((2016, 3, 2), &[0x002f], Some((0x002f, 0x0303)));
        let mut a = NotaryAggregate::new();
        a.ingest(&r1);
        a.ingest(&r2);
        let mut b = NotaryAggregate::new();
        b.ingest(&r2);
        b.ingest(&r1);
        assert_ne!(
            a.interner
                .lookup_id64(offer(&[0xc02f, 0x0005]).fingerprint.id64()),
            b.interner
                .lookup_id64(offer(&[0xc02f, 0x0005]).fingerprint.id64()),
        );
        assert_eq!(a, b);
        // And a genuinely different count is still detected.
        b.ingest(&r1);
        assert_ne!(a, b);
    }

    #[test]
    fn pct_curve() {
        let mut m = MonthlyStats::default();
        m.curves.insert(23, 80);
        m.curves.insert(29, 20);
        assert!((m.pct_curve(23) - 80.0).abs() < 1e-9);
        assert!((m.pct_curve(29) - 20.0).abs() < 1e-9);
        assert_eq!(m.pct_curve(24), 0.0);
    }

    /// A month with every `u64` counter set to a distinct value and
    /// every counter map holding an entry. No `..Default::default()`: a
    /// counter added to `MonthlyStats` or to one of its count structs
    /// does not compile here until it is listed, and then fails the
    /// test below until the counter table names it. `fp_flags` stays
    /// empty: its ids belong to an aggregate's interner, it travels on
    /// its own checkpoint lines, and `merge` remaps it.
    fn every_counter_set() -> MonthlyStats {
        MonthlyStats {
            total: 1,
            sslv2: 2,
            rejected: 3,
            missing_server: 4,
            garbled_server: 5,
            answered: 6,
            neg_version: VersionCounts {
                ssl2: 7,
                ssl3: 8,
                tls10: 9,
                tls11: 10,
                tls12: 11,
                tls13: 12,
                other: 13,
            },
            neg_rc4: 14,
            neg_cbc: 15,
            neg_aead: 16,
            neg_null: 17,
            neg_null_null: 18,
            neg_3des: 19,
            neg_des: 20,
            neg_export: 21,
            neg_anon: 22,
            neg_unoffered: 23,
            neg_fs: 24,
            neg_kx: KxCounts {
                rsa: 25,
                dhe: 26,
                ecdhe: 27,
                dh: 28,
                ecdh: 29,
                tls13: 30,
                other: 31,
            },
            neg_aead_alg: AeadCounts {
                aes128gcm: 32,
                aes256gcm: 33,
                chacha: 34,
                ccm: 35,
                other: 36,
            },
            curves: FxHashMap::from_iter([(23, 37)]),
            heartbeat_negotiated: 38,
            adv_rc4: 39,
            adv_cbc: 40,
            adv_aead: 41,
            adv_des: 42,
            adv_3des: 43,
            adv_export: 44,
            adv_anon: 45,
            adv_null: 46,
            adv_fs: 47,
            adv_heartbeat: 48,
            adv_tls13: 49,
            adv_aead_alg: AeadCounts {
                aes128gcm: 50,
                aes256gcm: 51,
                chacha: 52,
                ccm: 53,
                other: 54,
            },
            supported_versions_values: FxHashMap::from_iter([(0x0304, 55)]),
            adv_extensions: FxHashMap::from_iter([(0xff01, 56)]),
            pos_aead: PositionMean {
                sum_micro: 57,
                n: 58,
            },
            pos_cbc: PositionMean {
                sum_micro: 59,
                n: 60,
            },
            pos_rc4: PositionMean {
                sum_micro: 61,
                n: 62,
            },
            pos_des: PositionMean {
                sum_micro: 63,
                n: 64,
            },
            pos_3des: PositionMean {
                sum_micro: 65,
                n: 66,
            },
            fp_flags: FxHashMap::default(),
        }
    }

    /// The counter table names every counter, each under its own key:
    /// the merge and the checkpoint line both carry a counter that is
    /// zero in every other test's data.
    #[test]
    fn counter_table_names_every_counter() {
        let every = every_counter_set();
        let mut merged = MonthlyStats::default();
        merged.add_counts(&every);
        assert_eq!(merged, every, "add_counts");
        let mut line = String::new();
        every.write_counts(&mut line);
        let mut read = MonthlyStats::default();
        for field in line.split('\t').skip(1) {
            let (key, val) = field.split_once('=').unwrap();
            read.set_count(key, val.parse().unwrap())
                .unwrap_or_else(|| panic!("set_count refused {field}"));
        }
        assert_eq!(read, every, "write_counts then set_count");
    }

    mod memo_fold {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use tlscope_wire::grease::{grease_value, GREASE_VALUES};
        use tlscope_wire::suites_table::SUITES;

        /// A code point from every population an offer carries:
        /// registered, TLS 1.3, GREASE, both SCSVs, and (almost always)
        /// unregistered.
        fn suite() -> impl Strategy<Value = CipherSuite> {
            prop_oneof![
                (0..SUITES.len()).prop_map(|i| SUITES[i].id),
                0x1301u16..=0x1305,
                any::<u8>().prop_map(grease_value),
                prop_oneof![Just(0x00ffu16), Just(0x5600)],
                any::<u16>(),
            ]
            .prop_map(CipherSuite)
        }

        fn version() -> impl Strategy<Value = ProtocolVersion> {
            prop_oneof![
                Just(ProtocolVersion::Ssl3),
                Just(ProtocolVersion::Tls10),
                Just(ProtocolVersion::Tls11),
                Just(ProtocolVersion::Tls12),
                Just(ProtocolVersion::Tls13),
                (18u8..=28).prop_map(ProtocolVersion::Tls13Draft),
                Just(ProtocolVersion::Tls13Experiment(2)),
            ]
        }

        prop_compose! {
            fn offer()(
                suites in vec(suite(), 0..=40),
                versions in vec(version(), 0..=4),
                supported_versions_raw in vec(
                    prop_oneof![Just(0x0303u16), Just(0x0304), 0x7f12u16..=0x7f1c, any::<u16>()],
                    0..=4,
                ),
                heartbeat in any::<bool>(),
                extension_types in vec(prop_oneof![0u16..=24, Just(0xff01)], 0..=12),
            ) -> ClientOffer {
                ClientOffer {
                    legacy_version: ProtocolVersion::Tls12,
                    fingerprint: Fingerprint {
                        ciphers: suites
                            .iter()
                            .map(|c| c.0)
                            .filter(|v| !tlscope_wire::is_grease(*v))
                            .collect(),
                        extensions: extension_types.clone(),
                        curves: vec![],
                        point_formats: vec![],
                    },
                    suites,
                    versions,
                    supported_versions_raw,
                    heartbeat,
                    extension_types,
                    fp_id64: None,
                    fold: None,
                }
            }
        }

        /// `offer` with every GREASE suite redrawn to another GREASE
        /// value, as another flow from the same client stack draws them.
        fn redraw_grease(offer: &ClientOffer, shift: u8) -> ClientOffer {
            let mut next = offer.clone();
            for c in &mut next.suites {
                if let Some(k) = GREASE_VALUES.iter().position(|g| *g == c.0) {
                    c.0 = GREASE_VALUES[(k + 1 + usize::from(shift % 15)) % 16];
                }
            }
            next
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn grease_redraw_leaves_the_fold_unchanged(offer in offer(), shift in any::<u8>()) {
                let redrawn = redraw_grease(&offer, shift);
                let greased = offer.suites.iter().any(|c| tlscope_wire::is_grease(c.0));
                prop_assert_eq!(redrawn.suites != offer.suites, greased);
                prop_assert_eq!(OfferFold::of(&redrawn), OfferFold::of(&offer));
            }

            #[test]
            fn memo_fold_matches_the_reference(
                offers in vec(offer(), 1..=6),
                shift in any::<u8>(),
            ) {
                let date = Date::ymd(2016, 5, 1);
                let mut memo = NotaryAggregate::new();
                let mut reference = MonthlyStats::default();
                for offer in &offers {
                    // A cache hit: this flow's suites with the fold of the
                    // flow that filled the entry, whose GREASE draws
                    // differed.
                    let fold = OfferFold::of(&redraw_grease(offer, shift));
                    memo.ingest(&ConnectionRecord {
                        date,
                        month: date.month(),
                        port: 443,
                        sslv2: false,
                        client: Some(ClientOffer {
                            fold: Some(fold),
                            ..offer.clone()
                        }),
                        server: ServerOutcome::Missing,
                        salvaged: false,
                    });
                    reference.total += 1;
                    reference.missing_server += 1;
                    reference_ingest_offer(&mut reference, offer);
                    let id = memo
                        .interner
                        .lookup_id64(offer.fingerprint.id64())
                        .expect("ingest interned the fingerprint");
                    reference
                        .fp_flags
                        .entry(id)
                        .or_insert_with(|| FpClassFlags::from_offer(offer));
                }
                prop_assert_eq!(memo.month(date.month()), Some(&reference));
            }
        }
    }
}
