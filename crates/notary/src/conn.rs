//! Per-connection record extraction: wire bytes → [`ConnectionRecord`].
//!
//! This is the Bro/Zeek-analogue layer of the reproduction: everything
//! it knows comes from parsing the tapped bytes. It never receives
//! generator ground truth.
//!
//! Extraction is zero-copy: records are walked as [`RecordView`]s
//! borrowed straight from the flow, and the handshake is only ever
//! copied when it actually spans multiple records — the common
//! single-record case hands a borrowed slice to the hello parsers.
//! The one coalesce buffer lives in [`ExtractScratch`], with the record
//! slot and the parse cache, so a worker ingesting millions of flows
//! reuses the same allocations throughout: each of the study's workers
//! owns one scratch and passes it to every flow it folds.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::OnceLock;

use tlscope_chron::{Date, Month};
use tlscope_fingerprint::Fingerprint;
use tlscope_wire::codec::Reader;
use tlscope_wire::exts::ext_type;
use tlscope_wire::fxhash::{hash_bytes, FxHashMap};
use tlscope_wire::handshake::{handshake_type, read_handshake};
use tlscope_wire::record::{sslv2_kind_as_suite, ContentType, RecordView};
use tlscope_wire::view::{ext_view, ClientHelloView, ServerHelloView};
use tlscope_wire::{sniff, CipherSuite, NamedGroup, ProtocolVersion, Sslv2ClientHello, WireFlavor};

use crate::aggregate::OfferFold;

/// What the client side of a connection offered.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOffer {
    /// Legacy version field.
    pub legacy_version: ProtocolVersion,
    /// Offered suites (exact wire order, GREASE included).
    pub suites: Vec<CipherSuite>,
    /// Versions actually offered (supported_versions-aware).
    pub versions: Vec<ProtocolVersion>,
    /// Raw supported_versions values (for the draft-mix analysis,
    /// §6.4); empty when the extension is absent.
    pub supported_versions_raw: Vec<u16>,
    /// Whether the heartbeat extension was offered.
    pub heartbeat: bool,
    /// All advertised extension type codes (GREASE stripped).
    pub extension_types: Vec<u16>,
    /// The 4-feature fingerprint (GREASE-stripped).
    pub fingerprint: Fingerprint,
    /// Memoised 64-bit fingerprint hash, populated by the parse cache
    /// so aggregation can intern without rehashing; `None` when the
    /// offer came from a non-cached parse (SSLv2, salvage, cache off).
    pub fp_id64: Option<u64>,
    /// Memoised advertised-side fold, populated by the parse cache
    /// alongside `fp_id64` so aggregation skips classifying the suites;
    /// `None` exactly when `fp_id64` is.
    pub fold: Option<OfferFold>,
}

/// What the server answered.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerAnswer {
    /// Negotiated protocol version (supported_versions-aware).
    pub version: ProtocolVersion,
    /// Selected cipher suite.
    pub cipher: CipherSuite,
    /// Negotiated curve, from ServerKeyExchange or TLS 1.3 key_share.
    pub curve: Option<NamedGroup>,
    /// True when the server echoed the heartbeat extension.
    pub heartbeat: bool,
}

/// The outcome of the server side of the flow.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerOutcome {
    /// Handshake proceeded: ServerHello seen.
    Answered(ServerAnswer),
    /// Server rejected with an alert. Carries the alert description
    /// code when the alert payload parsed; a damaged alert still
    /// counts as a rejection, just with no code.
    Rejected {
        /// Alert description code (RFC 5246 §7.2), if parseable.
        alert: Option<u8>,
    },
    /// Tap did not capture the server flow.
    Missing,
    /// Server bytes present but unparseable (tap damage).
    Garbled,
}

/// A fully-extracted connection record.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionRecord {
    /// Capture date.
    pub date: Date,
    /// Capture month bucket.
    pub month: Month,
    /// Destination port.
    pub port: u16,
    /// True for SSLv2-framed connections (client side).
    pub sslv2: bool,
    /// Client offer, if the client flow parsed.
    pub client: Option<ClientOffer>,
    /// Server outcome.
    pub server: ServerOutcome,
    /// True when tap damage forced prefix salvage: the flow's record
    /// stream was unparseable end-to-end (truncated or gapped
    /// mid-stream) but the intact record prefix still yielded the
    /// handshake, so the connection was recovered instead of
    /// discarded (§3.1 best-effort collection).
    pub salvaged: bool,
}

/// Errors recording why a flow could not be processed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractError {
    /// Client flow empty or not SSL/TLS at all.
    NotTls,
    /// Client flow recognisably TLS but damaged beyond parsing.
    GarbledClient,
}

/// Reusable extraction state: one coalesce buffer, one record slot —
/// offer vectors included — and the parse cache, shared by every flow
/// a worker processes, so the steady state of [`extract_into`]
/// performs no allocation at all.
#[derive(Debug)]
pub struct ExtractScratch {
    coalesce: Vec<u8>,
    record: ConnectionRecord,
    cache: HelloCache,
}

impl Default for ExtractScratch {
    fn default() -> Self {
        ExtractScratch {
            coalesce: Vec::new(),
            cache: HelloCache::default(),
            record: ConnectionRecord {
                date: Date::ymd(2000, 1, 1),
                month: Date::ymd(2000, 1, 1).month(),
                port: 0,
                sslv2: false,
                client: None,
                server: ServerOutcome::Missing,
                salvaged: false,
            },
        }
    }
}

impl ExtractScratch {
    /// Fresh scratch with no buffer capacity yet and a parse cache of
    /// the default capacity.
    pub fn new() -> Self {
        ExtractScratch::default()
    }

    /// Fresh scratch whose parse cache holds at most `capacity`
    /// hellos. Capacity 0 disables memoisation entirely: every flow
    /// takes the full-parse path and no counter moves.
    pub fn with_cache_capacity(capacity: usize) -> Self {
        let mut scratch = ExtractScratch::default();
        scratch.cache.capacity = capacity;
        scratch
    }

    /// This scratch's cumulative parse-cache counters.
    pub fn parse_cache_stats(&self) -> ParseCacheStats {
        self.cache.stats
    }
}

/// An offer slot with every vector empty, ready for refilling.
fn empty_offer() -> ClientOffer {
    ClientOffer {
        legacy_version: ProtocolVersion::Ssl2,
        suites: Vec::new(),
        versions: Vec::new(),
        supported_versions_raw: Vec::new(),
        heartbeat: false,
        extension_types: Vec::new(),
        fingerprint: Fingerprint {
            ciphers: Vec::new(),
            extensions: Vec::new(),
            curves: Vec::new(),
            point_formats: Vec::new(),
        },
        fp_id64: None,
        fold: None,
    }
}

thread_local! {
    /// The scratch behind [`extract`] and [`parse_cache_set_capacity`]
    /// alone; every other caller passes a scratch of its own.
    static SCRATCH: RefCell<ExtractScratch> = RefCell::new(ExtractScratch::new());
}

/// Extract a connection record from tapped flows.
///
/// Convenience wrapper over [`extract_with`] using a thread-local
/// [`ExtractScratch`], so repeated calls on one thread reuse the
/// coalesce buffer.
pub fn extract(
    date: Date,
    port: u16,
    client_flow: &[u8],
    server_flow: Option<&[u8]>,
) -> Result<ConnectionRecord, ExtractError> {
    SCRATCH.with(|s| extract_with(date, port, client_flow, server_flow, &mut s.borrow_mut()))
}

/// Extract a connection record from tapped flows, reusing `scratch`
/// across calls so the steady state performs no coalesce allocation.
///
/// Owned wrapper over [`extract_into`]; hot-path callers that only
/// need to *read* the record should use `extract_into` directly and
/// skip the clone.
pub fn extract_with(
    date: Date,
    port: u16,
    client_flow: &[u8],
    server_flow: Option<&[u8]>,
    scratch: &mut ExtractScratch,
) -> Result<ConnectionRecord, ExtractError> {
    extract_into(date, port, client_flow, server_flow, scratch).cloned()
}

/// Extract a connection record into `scratch`'s record slot and
/// return a borrow of it, valid until the next call on the same
/// scratch. Every vector in the record — suites, versions, extension
/// types, the fingerprint features — is refilled in place, so a
/// worker's steady state allocates nothing per flow. On `Err` the
/// slot's contents are unspecified.
pub fn extract_into<'s>(
    date: Date,
    port: u16,
    client_flow: &[u8],
    server_flow: Option<&[u8]>,
    scratch: &'s mut ExtractScratch,
) -> Result<&'s ConnectionRecord, ExtractError> {
    match sniff(client_flow) {
        WireFlavor::Sslv2 => {
            let hello =
                Sslv2ClientHello::parse(client_flow).map_err(|_| ExtractError::GarbledClient)?;
            let rec = &mut scratch.record;
            let offer = rec.client.get_or_insert_with(empty_offer);
            offer.legacy_version = ProtocolVersion::Ssl2;
            offer.suites.clear();
            offer.suites.extend(
                hello
                    .cipher_specs
                    .iter()
                    .filter_map(|k| sslv2_kind_as_suite(*k)),
            );
            offer.versions.clear();
            offer.versions.push(ProtocolVersion::Ssl2);
            offer.supported_versions_raw.clear();
            offer.heartbeat = false;
            offer.extension_types.clear();
            offer.fingerprint.ciphers.clear();
            offer
                .fingerprint
                .ciphers
                .extend(offer.suites.iter().map(|c| c.0));
            offer.fingerprint.extensions.clear();
            offer.fingerprint.curves.clear();
            offer.fingerprint.point_formats.clear();
            offer.fp_id64 = None;
            offer.fold = None;
            rec.date = date;
            rec.month = date.month();
            rec.port = port;
            rec.sslv2 = true;
            rec.server = ServerOutcome::Missing;
            rec.salvaged = false;
            Ok(rec)
        }
        WireFlavor::Tls => {
            let ExtractScratch {
                coalesce,
                record,
                cache,
            } = scratch;
            let offer = record.client.get_or_insert_with(empty_offer);
            let client_salvaged = refill_client_offer_cached(client_flow, coalesce, offer, cache)
                .ok_or(ExtractError::GarbledClient)?;
            let client_heartbeat = offer.heartbeat;
            let (server, server_salvaged) = match server_flow {
                None => (ServerOutcome::Missing, false),
                Some(bytes) => parse_server_flow(bytes, client_heartbeat, coalesce),
            };
            record.date = date;
            record.month = date.month();
            record.port = port;
            record.sslv2 = false;
            record.server = server;
            record.salvaged = client_salvaged || server_salvaged;
            Ok(record)
        }
        WireFlavor::Other => Err(ExtractError::NotTls),
    }
}

/// The result of streaming a record-layer flow into handshake bytes.
enum CoalesceOutcome<'a> {
    /// All parsed records were handshake; `bytes` is the concatenated
    /// handshake stream — borrowed from the flow when a single record
    /// held it, from the scratch buffer when it spanned records.
    Handshake { bytes: &'a [u8], salvaged: bool },
    /// The first record was an alert; `payload` is its fragment.
    FirstAlert { payload: &'a [u8], salvaged: bool },
    /// No record parsed at all (empty or immediately damaged flow).
    Empty,
    /// A parsed record was neither handshake nor leading alert.
    NonHandshake,
}

/// Walk the record stream once, coalescing handshake fragments.
///
/// Replaces the old parse-all-records-then-concatenate path: records
/// are borrowed views, and the intact record *prefix* is used when
/// strict end-to-end parsing fails (the §3.1 salvage path —
/// `salvaged` reports that fallback). A lone handshake record is
/// returned as a borrowed slice with no copy at all.
fn coalesce_stream<'a>(flow: &'a [u8], scratch: &'a mut Vec<u8>) -> CoalesceOutcome<'a> {
    let mut r = Reader::new(flow);
    if r.is_empty() {
        return CoalesceOutcome::Empty;
    }
    let Ok(first) = RecordView::read(&mut r) else {
        return CoalesceOutcome::Empty;
    };
    if first.content_type == ContentType::Alert {
        // Keep scanning: damage *after* the alert still marks the
        // flow as salvaged, exactly as the whole-flow parse did.
        let mut salvaged = false;
        while !r.is_empty() {
            if RecordView::read(&mut r).is_err() {
                salvaged = true;
                break;
            }
        }
        return CoalesceOutcome::FirstAlert {
            payload: first.payload,
            salvaged,
        };
    }
    if first.content_type != ContentType::Handshake {
        return CoalesceOutcome::NonHandshake;
    }
    let mut salvaged = false;
    let mut single = Some(first.payload);
    scratch.clear();
    while !r.is_empty() {
        match RecordView::read(&mut r) {
            Err(_) => {
                salvaged = true;
                break;
            }
            Ok(rec) if rec.content_type != ContentType::Handshake => {
                return CoalesceOutcome::NonHandshake;
            }
            Ok(rec) => {
                if let Some(first_payload) = single.take() {
                    scratch.extend_from_slice(first_payload);
                }
                scratch.extend_from_slice(rec.payload);
            }
        }
    }
    let bytes = match single {
        Some(payload) => payload,
        None => scratch.as_slice(),
    };
    CoalesceOutcome::Handshake { bytes, salvaged }
}

#[cfg(test)]
fn parse_client_offer(flow: &[u8], scratch: &mut Vec<u8>) -> Option<(ClientOffer, bool)> {
    let mut offer = empty_offer();
    let salvaged = refill_client_offer(flow, scratch, &mut offer)?;
    Some((offer, salvaged))
}

/// Coalesce and parse a client flow, refilling `offer`'s vectors in
/// place. Returns the salvage flag, or `None` when the flow is
/// garbled (leaving `offer` in an unspecified state). The production
/// path is [`refill_client_offer_cached`]; this uncached twin backs
/// tests that need a guaranteed-fresh parse.
#[cfg(test)]
fn refill_client_offer(
    flow: &[u8],
    scratch: &mut Vec<u8>,
    offer: &mut ClientOffer,
) -> Option<bool> {
    let CoalesceOutcome::Handshake { bytes, salvaged } = coalesce_stream(flow, scratch) else {
        return None;
    };
    let hello = ClientHelloView::parse_handshake(bytes).ok()?;
    refill_offer(offer, &hello);
    Some(salvaged)
}

/// Default parse-cache capacity of a scratch, in memoised hellos.
const PARSE_CACHE_DEFAULT_CAPACITY: usize = 4096;

/// Canonical stand-in written over every GREASE-patterned u16 before
/// hashing, so two hellos differing only in their per-connection
/// GREASE draws collide onto the same cache key.
const GREASE_MARK: [u8; 2] = [0x0a, 0x0a];

/// Cumulative parse-cache counters of one [`ExtractScratch`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ParseCacheStats {
    /// Hellos served from the cache without a full parse.
    pub hits: u64,
    /// Hellos that were fully parsed and then memoised.
    pub misses: u64,
    /// Entries dropped to keep the cache within capacity.
    pub evictions: u64,
}

/// A memoised parse result: the handshake length guards against the
/// (astronomically unlikely) masked-hash collision between hellos of
/// different lengths. The cache boxes each entry: its map keeps about
/// twice as many buckets as entries, and a bucket then holds a pointer
/// rather than a whole offer.
#[derive(Debug)]
struct HelloEntry {
    hs_len: usize,
    offer: ClientOffer,
}

/// Bounded FIFO memo of parsed ClientHellos, keyed by a masked
/// content hash of the coalesced handshake. Offsets of volatile
/// fields (random, session id, GREASE slots) are derived from TLS
/// structure alone — this layer never sees generator metadata.
#[derive(Debug)]
struct HelloCache {
    map: FxHashMap<u64, Box<HelloEntry>>,
    order: VecDeque<u64>,
    capacity: usize,
    /// GREASE cipher-suite slots found by the *current* flow's masked
    /// scan, as (suite index, wire offset) — reused across flows.
    slots: Vec<(usize, usize)>,
    /// The current flow's masked hello copy — reused across flows.
    masked: Vec<u8>,
    /// Scratch offer for verify-mode re-parses.
    verify_offer: Option<Box<ClientOffer>>,
    stats: ParseCacheStats,
}

impl Default for HelloCache {
    fn default() -> Self {
        HelloCache {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: PARSE_CACHE_DEFAULT_CAPACITY,
            slots: Vec::new(),
            masked: Vec::new(),
            verify_offer: None,
            stats: ParseCacheStats::default(),
        }
    }
}

/// True when `TLSCOPE_VERIFY_PARSE_CACHE=1`: every cache hit also
/// runs the full parse, re-derives the fingerprint hash and fold, and
/// asserts the memoised offer matches it bit for bit.
fn verify_parse_cache() -> bool {
    static VERIFY: OnceLock<bool> = OnceLock::new();
    *VERIFY.get_or_init(|| std::env::var("TLSCOPE_VERIFY_PARSE_CACHE").is_ok_and(|v| v == "1"))
}

/// Give the calling thread's [`extract`] a fresh scratch whose parse
/// cache holds at most `capacity` hellos
/// ([`ExtractScratch::with_cache_capacity`]).
pub fn parse_cache_set_capacity(capacity: usize) {
    SCRATCH.set(ExtractScratch::with_cache_capacity(capacity));
}

/// Field-wise copy that reuses every destination vector's capacity.
/// (`derive(Clone)` provides no such `clone_from`; a plain assignment
/// would re-allocate all seven vectors per hit.)
fn copy_offer_from(dst: &mut ClientOffer, src: &ClientOffer) {
    dst.legacy_version = src.legacy_version;
    dst.suites.clone_from(&src.suites);
    dst.versions.clone_from(&src.versions);
    dst.supported_versions_raw
        .clone_from(&src.supported_versions_raw);
    dst.heartbeat = src.heartbeat;
    dst.extension_types.clone_from(&src.extension_types);
    dst.fingerprint.ciphers.clone_from(&src.fingerprint.ciphers);
    dst.fingerprint
        .extensions
        .clone_from(&src.fingerprint.extensions);
    dst.fingerprint.curves.clone_from(&src.fingerprint.curves);
    dst.fingerprint
        .point_formats
        .clone_from(&src.fingerprint.point_formats);
    dst.fp_id64 = src.fp_id64;
    dst.fold = src.fold;
}

fn be16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([b[off], b[off + 1]])
}

/// Mask the GREASE entries of an extension body holding a
/// length-prefixed list of u16s. `prefix` is the length-prefix width
/// (1 for vec8, 2 for vec16). A body that fails strict validation is
/// left raw — deterministic either way, so correctness holds; it just
/// forgoes GREASE collapsing for that hello.
fn mask_u16_list(body: &mut [u8], prefix: usize) {
    let well_formed = body.len() >= prefix && {
        let list_len = if prefix == 1 {
            body[0] as usize
        } else {
            be16(body, 0) as usize
        };
        body.len() == prefix + list_len && list_len.is_multiple_of(2)
    };
    if !well_formed {
        return;
    }
    for entry in body[prefix..].chunks_exact_mut(2) {
        if tlscope_wire::is_grease(be16(entry, 0)) {
            entry.copy_from_slice(&GREASE_MARK);
        }
    }
}

/// Copy a coalesced ClientHello handshake into `masked`, overwrite the
/// structurally-known volatile fields, and hash the copy a word at a
/// time. The 32-byte random and the session-id contents are zeroed
/// (their lengths stay), and GREASE-patterned u16s in the cipher list,
/// extension type ids, supported_versions and supported_groups bodies
/// become the canonical [`GREASE_MARK`]. GREASE cipher-suite positions
/// are recorded into `grease_suites` as (suite index, wire offset) so
/// a cache hit can patch the memoised offer with this flow's values.
///
/// Returns `None` on any structural anomaly — the caller falls back
/// to the full parse and the flow bypasses the cache.
fn masked_hello_scan(
    bytes: &[u8],
    grease_suites: &mut Vec<(usize, usize)>,
    masked: &mut Vec<u8>,
) -> Option<u64> {
    grease_suites.clear();
    if bytes.len() < 4 || bytes[0] != handshake_type::CLIENT_HELLO {
        return None;
    }
    let body_len = u32::from_be_bytes([0, bytes[1], bytes[2], bytes[3]]) as usize;
    if bytes.len() != 4 + body_len {
        return None;
    }
    masked.clear();
    masked.extend_from_slice(bytes);
    let m = masked.as_mut_slice();
    let mut off = 4;
    // Legacy version, then the masked 32-byte random.
    if m.len() < off + 2 + 32 + 1 {
        return None;
    }
    m[off + 2..off + 2 + 32].fill(0);
    off += 2 + 32;
    // Session id: length kept, contents masked.
    let sid_len = m[off] as usize;
    off += 1;
    if m.len() < off + sid_len + 2 {
        return None;
    }
    m[off..off + sid_len].fill(0);
    off += sid_len;
    // Cipher suites: GREASE entries masked and their slots recorded.
    let suites_len = be16(m, off) as usize;
    off += 2;
    if !suites_len.is_multiple_of(2) || m.len() < off + suites_len {
        return None;
    }
    for i in 0..suites_len / 2 {
        let p = off + 2 * i;
        if tlscope_wire::is_grease(be16(m, p)) {
            grease_suites.push((i, p));
            m[p..p + 2].copy_from_slice(&GREASE_MARK);
        }
    }
    off += suites_len;
    // Compression methods, kept verbatim.
    if m.len() < off + 1 {
        return None;
    }
    let comp_len = m[off] as usize;
    off += 1;
    if m.len() < off + comp_len {
        return None;
    }
    off += comp_len;
    if off < m.len() {
        // Extension block.
        if m.len() < off + 2 {
            return None;
        }
        let ext_total = be16(m, off) as usize;
        off += 2;
        if m.len() != off + ext_total {
            return None;
        }
        let end = m.len();
        while off < end {
            if end - off < 4 {
                return None;
            }
            let typ = be16(m, off);
            if tlscope_wire::is_grease(typ) {
                m[off..off + 2].copy_from_slice(&GREASE_MARK);
            }
            let ext_len = be16(m, off + 2) as usize;
            off += 4;
            if end - off < ext_len {
                return None;
            }
            let body = &mut m[off..off + ext_len];
            match typ {
                ext_type::SUPPORTED_VERSIONS => mask_u16_list(body, 1),
                ext_type::SUPPORTED_GROUPS => mask_u16_list(body, 2),
                _ => {}
            }
            off += ext_len;
        }
    }
    Some(hash_bytes(m))
}

/// Cache-aware variant of [`refill_client_offer`]: flows whose masked
/// hash hits the memo skip the full parse entirely — the memoised
/// offer is copied in place and its GREASE suite slots re-patched
/// from this flow's wire bytes. A miss hashes the fingerprint and folds
/// the offer once for every later hit. Salvaged flows and structural
/// anomalies bypass the cache (no counters move).
fn refill_client_offer_cached(
    flow: &[u8],
    scratch: &mut Vec<u8>,
    offer: &mut ClientOffer,
    cache: &mut HelloCache,
) -> Option<bool> {
    let CoalesceOutcome::Handshake { bytes, salvaged } = coalesce_stream(flow, scratch) else {
        return None;
    };
    if salvaged || cache.capacity == 0 {
        let hello = ClientHelloView::parse_handshake(bytes).ok()?;
        refill_offer(offer, &hello);
        return Some(salvaged);
    }
    let Some(hash) = masked_hello_scan(bytes, &mut cache.slots, &mut cache.masked) else {
        let hello = ClientHelloView::parse_handshake(bytes).ok()?;
        refill_offer(offer, &hello);
        return Some(salvaged);
    };
    let hit = match cache.map.get(&hash) {
        Some(entry) if entry.hs_len == bytes.len() => {
            copy_offer_from(offer, &entry.offer);
            true
        }
        _ => false,
    };
    if hit {
        cache.stats.hits += 1;
        // The memoised suites carry the *original* flow's GREASE
        // draws; overwrite them with this flow's wire values.
        for &(idx, wire_off) in &cache.slots {
            if idx < offer.suites.len() && wire_off + 2 <= bytes.len() {
                offer.suites[idx] = CipherSuite(be16(bytes, wire_off));
            }
        }
        if verify_parse_cache() {
            let hello = ClientHelloView::parse_handshake(bytes)
                .expect("parse-cache hit on an unparseable hello");
            let fresh = cache
                .verify_offer
                .get_or_insert_with(|| Box::new(empty_offer()));
            refill_offer(fresh, &hello);
            fresh.fp_id64 = Some(fresh.fingerprint.id64());
            fresh.fold = Some(OfferFold::of(fresh));
            assert_eq!(
                **fresh, *offer,
                "parse-cache hit diverged from the full parse"
            );
        }
        return Some(salvaged);
    }
    let hello = ClientHelloView::parse_handshake(bytes).ok()?;
    refill_offer(offer, &hello);
    offer.fp_id64 = Some(offer.fingerprint.id64());
    offer.fold = Some(OfferFold::of(offer));
    cache.stats.misses += 1;
    let entry = Box::new(HelloEntry {
        hs_len: bytes.len(),
        offer: offer.clone(),
    });
    if cache.map.insert(hash, entry).is_none() {
        cache.order.push_back(hash);
        while cache.map.len() > cache.capacity {
            match cache.order.pop_front() {
                Some(old) => {
                    if cache.map.remove(&old).is_some() {
                        cache.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }
    Some(salvaged)
}

fn refill_offer(offer: &mut ClientOffer, hello: &ClientHelloView<'_>) {
    offer.legacy_version = hello.legacy_version;
    offer.suites.clear();
    offer.suites.extend(hello.cipher_suites());
    hello.offered_versions_into(&mut offer.versions);
    offer.supported_versions_raw.clear();
    if let Some(vs) = hello
        .find_extension(ext_type::SUPPORTED_VERSIONS)
        .and_then(|body| ext_view::supported_versions(body).ok())
    {
        offer
            .supported_versions_raw
            .extend(vs.filter(|w| !tlscope_wire::is_grease(*w)));
    }
    offer.heartbeat = hello.find_extension(ext_type::HEARTBEAT).is_some();
    offer.extension_types.clear();
    if let Some(exts) = &hello.extensions {
        offer.extension_types.extend(
            exts.iter()
                .map(|(typ, _)| typ)
                .filter(|t| !tlscope_wire::is_grease(*t)),
        );
    }
    offer.fingerprint.refill_from_view(hello);
    offer.fp_id64 = None;
    offer.fold = None;
}

fn parse_server_flow(
    bytes: &[u8],
    client_heartbeat: bool,
    scratch: &mut Vec<u8>,
) -> (ServerOutcome, bool) {
    let (handshake, salvaged) = match coalesce_stream(bytes, scratch) {
        CoalesceOutcome::Handshake { bytes, salvaged } => (bytes, salvaged),
        CoalesceOutcome::FirstAlert { payload, salvaged } => {
            let alert = tlscope_wire::Alert::parse(payload)
                .ok()
                .map(|a| a.description);
            return (ServerOutcome::Rejected { alert }, salvaged);
        }
        CoalesceOutcome::Empty | CoalesceOutcome::NonHandshake => {
            return (ServerOutcome::Garbled, false);
        }
    };
    let mut r = Reader::new(handshake);
    let mut server_hello: Option<ServerHelloView<'_>> = None;
    let mut ske_curve: Option<NamedGroup> = None;
    while !r.is_empty() {
        let Ok((typ, body)) = read_handshake(&mut r) else {
            break;
        };
        match typ {
            handshake_type::SERVER_HELLO => {
                server_hello = ServerHelloView::parse_body(body).ok();
            }
            handshake_type::SERVER_KEY_EXCHANGE => {
                ske_curve = tlscope_wire::ske::parse_ske_curve(body).ok();
            }
            _ => {}
        }
    }
    let Some(sh) = server_hello else {
        return (ServerOutcome::Garbled, false);
    };
    let version = sh.negotiated_version();
    let key_share_curve = sh
        .find_extension(ext_type::KEY_SHARE)
        .or_else(|| sh.find_extension(ext_type::KEY_SHARE_DRAFT))
        .and_then(|body| ext_view::key_share_server(body).ok());
    let heartbeat = client_heartbeat && sh.find_extension(ext_type::HEARTBEAT).is_some();
    (
        ServerOutcome::Answered(ServerAnswer {
            version,
            cipher: sh.cipher_suite,
            curve: ske_curve.or(key_share_curve),
            heartbeat,
        }),
        salvaged,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_wire::record::Record;
    use tlscope_wire::{ClientHello, Extension, ServerHello};

    fn client_bytes(hello: &ClientHello) -> Vec<u8> {
        Record::wrap_handshake(ProtocolVersion::Tls10, &hello.to_handshake_bytes())
            .iter()
            .flat_map(|r| r.to_bytes())
            .collect()
    }

    fn sample_hello() -> ClientHello {
        ClientHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [3; 32],
            session_id: vec![],
            cipher_suites: vec![
                CipherSuite(0xc02f),
                CipherSuite(0xc013),
                CipherSuite(0x0005),
                CipherSuite(0x000a),
                CipherSuite(0x00ff),
            ],
            compression_methods: vec![0],
            extensions: Some(vec![
                Extension::server_name("x.test"),
                Extension::heartbeat(1),
                Extension::supported_groups(&[NamedGroup::X25519, NamedGroup::SECP256R1]),
                Extension::ec_point_formats(&[0]),
            ]),
        }
    }

    fn server_bytes(sh: &ServerHello, curve: Option<NamedGroup>) -> Vec<u8> {
        let mut hs = sh.to_handshake_bytes();
        if let Some(c) = curve {
            hs.extend_from_slice(&tlscope_wire::ske::ecdhe_ske(c, 65));
        }
        Record::wrap_handshake(ProtocolVersion::Tls12, &hs)
            .iter()
            .flat_map(|r| r.to_bytes())
            .collect()
    }

    #[test]
    fn extract_full_connection() {
        let hello = sample_hello();
        let sh = ServerHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [5; 32],
            session_id: vec![],
            cipher_suite: CipherSuite(0xc02f),
            compression_method: 0,
            extensions: Some(vec![Extension::heartbeat(1)]),
        };
        let rec = extract(
            Date::ymd(2015, 6, 3),
            443,
            &client_bytes(&hello),
            Some(&server_bytes(&sh, Some(NamedGroup::X25519))),
        )
        .unwrap();
        assert!(!rec.sslv2);
        let client = rec.client.as_ref().unwrap();
        let flags = OfferFold::of(client).fp_flags();
        assert!(flags.rc4);
        assert!(flags.aead);
        assert!(client.heartbeat);
        match &rec.server {
            ServerOutcome::Answered(ans) => {
                assert_eq!(ans.version, ProtocolVersion::Tls12);
                assert!(ans.cipher.is_aead());
                assert_eq!(ans.curve, Some(NamedGroup::X25519));
                assert!(ans.heartbeat);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn positions_ignore_scsv() {
        let hello = sample_hello();
        let mut scratch = Vec::new();
        let (offer, salvaged) = parse_client_offer(&client_bytes(&hello), &mut scratch).unwrap();
        assert!(!salvaged);
        // 4 real suites: aead at 0, cbc at 1/4, rc4 at 2/4, des absent,
        // 3des at 3/4 (micro-units).
        assert_eq!(
            OfferFold::of(&offer).positions,
            [0, 250_000, 500_000, u32::MAX, 750_000]
        );
    }

    #[test]
    fn alert_is_rejected_with_description() {
        let hello = sample_hello();
        let alert = Record {
            content_type: ContentType::Alert,
            version: ProtocolVersion::Tls12,
            payload: vec![2, 40],
        }
        .to_bytes();
        let rec = extract(
            Date::ymd(2015, 6, 3),
            443,
            &client_bytes(&hello),
            Some(&alert),
        )
        .unwrap();
        assert_eq!(rec.server, ServerOutcome::Rejected { alert: Some(40) });
    }

    #[test]
    fn damaged_alert_still_rejects() {
        // A one-byte alert fragment cannot carry a description, but the
        // rejection itself is unambiguous.
        let hello = sample_hello();
        let alert = Record {
            content_type: ContentType::Alert,
            version: ProtocolVersion::Tls12,
            payload: vec![2],
        }
        .to_bytes();
        let rec = extract(
            Date::ymd(2015, 6, 3),
            443,
            &client_bytes(&hello),
            Some(&alert),
        )
        .unwrap();
        assert_eq!(rec.server, ServerOutcome::Rejected { alert: None });
        assert!(!rec.salvaged);
    }

    #[test]
    fn alert_followed_by_damage_is_salvaged() {
        let hello = sample_hello();
        let mut alert = Record {
            content_type: ContentType::Alert,
            version: ProtocolVersion::Tls12,
            payload: vec![2, 40],
        }
        .to_bytes();
        alert.extend_from_slice(&[0x16, 0x03, 0x03, 0xff]); // severed record header
        let rec = extract(
            Date::ymd(2015, 6, 3),
            443,
            &client_bytes(&hello),
            Some(&alert),
        )
        .unwrap();
        assert_eq!(rec.server, ServerOutcome::Rejected { alert: Some(40) });
        assert!(rec.salvaged);
    }

    #[test]
    fn missing_server_flow() {
        let hello = sample_hello();
        let rec = extract(Date::ymd(2015, 6, 3), 443, &client_bytes(&hello), None).unwrap();
        assert_eq!(rec.server, ServerOutcome::Missing);
    }

    #[test]
    fn garbled_flows() {
        let hello = sample_hello();
        let bytes = client_bytes(&hello);
        // Truncated client flow.
        assert_eq!(
            extract(Date::ymd(2015, 6, 3), 443, &bytes[..bytes.len() / 2], None),
            Err(ExtractError::GarbledClient)
        );
        // Non-TLS flow.
        assert_eq!(
            extract(Date::ymd(2015, 6, 3), 443, b"GET / HTTP/1.1", None),
            Err(ExtractError::NotTls)
        );
        // Garbled server flow.
        let rec = extract(Date::ymd(2015, 6, 3), 443, &bytes, Some(&[0xff, 0x00])).unwrap();
        assert_eq!(rec.server, ServerOutcome::Garbled);
    }

    #[test]
    fn server_half_prefix_salvage() {
        // A mid-stream gap severs a later record: strict end-to-end
        // parsing fails, but the intact prefix still holds the
        // ServerHello — the connection is salvaged, not discarded.
        let hello = sample_hello();
        let sh = ServerHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [5; 32],
            session_id: vec![],
            cipher_suite: CipherSuite(0xc02f),
            compression_method: 0,
            extensions: Some(vec![]),
        };
        let mut bytes = server_bytes(&sh, Some(NamedGroup::X25519));
        bytes.extend_from_slice(&[0x16, 0x03, 0x03, 0xff]); // severed record header
        let rec = extract(
            Date::ymd(2015, 6, 3),
            443,
            &client_bytes(&hello),
            Some(&bytes),
        )
        .unwrap();
        assert!(rec.salvaged);
        match &rec.server {
            ServerOutcome::Answered(ans) => {
                assert_eq!(ans.cipher, CipherSuite(0xc02f));
                assert_eq!(ans.curve, Some(NamedGroup::X25519));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn client_half_prefix_salvage() {
        let hello = sample_hello();
        let mut bytes = client_bytes(&hello);
        bytes.extend_from_slice(&[0x16, 0x03, 0x01, 0x00]); // severed record header
        let rec = extract(Date::ymd(2015, 6, 3), 443, &bytes, None).unwrap();
        assert!(rec.salvaged);
        let offer = rec.client.unwrap();
        assert!(OfferFold::of(&offer).fp_flags().aead);
    }

    #[test]
    fn undamaged_flows_are_not_salvaged() {
        let hello = sample_hello();
        let rec = extract(Date::ymd(2015, 6, 3), 443, &client_bytes(&hello), None).unwrap();
        assert!(!rec.salvaged);
    }

    #[test]
    fn multi_record_handshake_coalesces_via_scratch() {
        // Force the handshake across two records so the scratch-buffer
        // branch (not the borrowed single-record fast path) runs.
        let hello = sample_hello();
        let hs = hello.to_handshake_bytes();
        let split = hs.len() / 2;
        let mut bytes = Vec::new();
        for chunk in [&hs[..split], &hs[split..]] {
            Record {
                content_type: ContentType::Handshake,
                version: ProtocolVersion::Tls10,
                payload: chunk.to_vec(),
            }
            .view()
            .write_into(&mut bytes);
        }
        let mut scratch = ExtractScratch::new();
        let rec = extract_with(Date::ymd(2015, 6, 3), 443, &bytes, None, &mut scratch).unwrap();
        assert!(!rec.salvaged);
        let offer = rec.client.unwrap();
        assert_eq!(offer.suites.len(), 5);
        assert!(offer.heartbeat);
        // Scratch kept its buffer for the next flow.
        assert!(scratch.coalesce.capacity() >= hs.len());
    }

    #[test]
    fn masked_scan_collapses_volatile_fields() {
        let mut hello = sample_hello();
        let (mut slots, mut masked) = (Vec::new(), Vec::new());
        let h1 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert!(slots.is_empty());
        // Different client random: same key.
        hello.random = [9; 32];
        let h2 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert_eq!(h1, h2);
        // Different cipher stack: different key.
        hello.cipher_suites.push(CipherSuite(0x1301));
        let h3 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert_ne!(h1, h3);
        // Session-id *contents* are masked but the length is hashed.
        hello.cipher_suites.pop();
        hello.session_id = vec![1; 32];
        let h4 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert_ne!(h1, h4);
        hello.session_id = vec![2; 32];
        let h5 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert_eq!(h4, h5);
    }

    #[test]
    fn masked_scan_collapses_grease_and_records_slots() {
        let mut hello = sample_hello();
        hello.cipher_suites.insert(0, CipherSuite(0x2a2a));
        let (mut slots, mut masked) = (Vec::new(), Vec::new());
        let h1 = masked_hello_scan(&hello.to_handshake_bytes(), &mut slots, &mut masked).unwrap();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].0, 0);
        // A different GREASE draw in the same slot: same key, and the
        // recorded wire offset reads back the new value.
        hello.cipher_suites[0] = CipherSuite(0xfafa);
        let hs = hello.to_handshake_bytes();
        let h2 = masked_hello_scan(&hs, &mut slots, &mut masked).unwrap();
        assert_eq!(h1, h2);
        let (_, off) = slots[0];
        assert_eq!(u16::from_be_bytes([hs[off], hs[off + 1]]), 0xfafa);
    }

    #[test]
    fn masked_key_notices_every_non_volatile_byte() {
        // `sample_hello()` with a session id and a GREASE value in each
        // masked place; `draw` picks the volatile values.
        let hello_with = |draw: u8| {
            let grease = |i: u8| u16::from(draw.wrapping_add(i) % 16) * 0x1010 + 0x0a0a;
            let mut hello = sample_hello();
            hello.random = [draw; 32];
            hello.session_id = vec![draw; 8];
            hello.cipher_suites.insert(1, CipherSuite(grease(0)));
            let exts = hello.extensions.as_mut().unwrap();
            exts.insert(0, Extension::new(grease(1), vec![]));
            exts.push(Extension::supported_versions(&[
                ProtocolVersion::Unknown(grease(2)),
                ProtocolVersion::Tls13,
                ProtocolVersion::Tls12,
            ]));
            exts[3] = Extension::supported_groups(&[NamedGroup(grease(3)), NamedGroup::X25519]);
            hello.to_handshake_bytes()
        };
        let (mut slots, mut masked) = (Vec::new(), Vec::new());
        let base = hello_with(1);
        let key = masked_hello_scan(&base, &mut slots, &mut masked).unwrap();
        // Rewriting the random, the session id and every GREASE value
        // keeps the key; the bytes that moved are the volatile ones.
        let other = hello_with(2);
        assert_eq!(other.len(), base.len());
        assert_eq!(
            masked_hello_scan(&other, &mut slots, &mut masked),
            Some(key)
        );
        let volatile: Vec<bool> = base.iter().zip(&other).map(|(a, b)| a != b).collect();
        assert_eq!(volatile.iter().filter(|v| **v).count(), 32 + 8 + 4 * 2);
        // Any other single byte, set to any other value, either breaks
        // the structure or moves the key.
        for (i, _) in volatile.iter().enumerate().filter(|(_, v)| !**v) {
            for x in 0..=u8::MAX {
                if x == base[i] {
                    continue;
                }
                let mut flipped = base.clone();
                flipped[i] = x;
                if let Some(k) = masked_hello_scan(&flipped, &mut slots, &mut masked) {
                    assert_ne!(k, key, "byte {i} set to {x:#04x}");
                }
            }
        }
    }

    /// Extract a client-only flow of `hello` through `scratch`.
    fn extract_hello(hello: &ClientHello, scratch: &mut ExtractScratch) -> ConnectionRecord {
        extract_with(
            Date::ymd(2016, 3, 1),
            443,
            &client_bytes(hello),
            None,
            scratch,
        )
        .unwrap()
    }

    #[test]
    fn parse_cache_hit_matches_full_parse() {
        let mut scratch = ExtractScratch::with_cache_capacity(64);
        let mut hello = sample_hello();
        hello.cipher_suites.insert(0, CipherSuite(0x0a0a));
        let first = extract_hello(&hello, &mut scratch).client.unwrap();
        hello.random = [7; 32];
        hello.cipher_suites[0] = CipherSuite(0x5a5a);
        let second = extract_hello(&hello, &mut scratch).client.unwrap();
        let stats = scratch.parse_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The memoised id64 and fold match what a fresh hash and fold
        // of this flow would produce.
        assert_eq!(second.fp_id64, Some(second.fingerprint.id64()));
        assert_eq!(second.fold, Some(OfferFold::of(&second)));
        // GREASE-stripped features identical; raw suites carry each
        // flow's own GREASE draw.
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.suites[0], CipherSuite(0x0a0a));
        assert_eq!(second.suites[0], CipherSuite(0x5a5a));
        assert_eq!(&first.suites[1..], &second.suites[1..]);
    }

    #[test]
    fn salvaged_flows_bypass_the_cache() {
        let mut scratch = ExtractScratch::with_cache_capacity(64);
        let hello = sample_hello();
        let mut bytes = client_bytes(&hello);
        bytes.extend_from_slice(&[0x16, 0x03, 0x01, 0x00]); // severed record header
        for _ in 0..2 {
            let rec = extract_with(Date::ymd(2016, 3, 1), 443, &bytes, None, &mut scratch).unwrap();
            assert!(rec.salvaged);
            let offer = rec.client.unwrap();
            assert_eq!((offer.fp_id64, offer.fold), (None, None));
        }
        assert_eq!(scratch.parse_cache_stats(), ParseCacheStats::default());
    }

    /// Capacity 0 disables the cache, whether set on a scratch of its
    /// own or on the thread's scratch behind `extract`.
    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut scratch = ExtractScratch::with_cache_capacity(0);
        parse_cache_set_capacity(0);
        let hello = sample_hello();
        for _ in 0..2 {
            extract_hello(&hello, &mut scratch);
            extract(Date::ymd(2016, 3, 1), 443, &client_bytes(&hello), None).unwrap();
        }
        assert_eq!(scratch.parse_cache_stats(), ParseCacheStats::default());
        let thread_stats = SCRATCH.with(|s| s.borrow().parse_cache_stats());
        assert_eq!(thread_stats, ParseCacheStats::default());
    }

    #[test]
    fn fifo_eviction_counts_and_bounds() {
        let mut scratch = ExtractScratch::with_cache_capacity(2);
        let mut hello = sample_hello();
        for n in 0..3u16 {
            hello.cipher_suites[0] = CipherSuite(0xc02f - n);
            extract_hello(&hello, &mut scratch);
        }
        let stats = scratch.parse_cache_stats();
        assert_eq!((stats.misses, stats.evictions), (3, 1));
        // The oldest stack was evicted: replaying it misses again.
        hello.cipher_suites[0] = CipherSuite(0xc02f);
        extract_hello(&hello, &mut scratch);
        assert_eq!(scratch.parse_cache_stats().misses, 4);
    }

    #[test]
    fn sslv2_extraction() {
        let v2 = Sslv2ClientHello {
            version: ProtocolVersion::Ssl2,
            cipher_specs: vec![tlscope_wire::record::sslv2_cipher::RC4_128_WITH_MD5],
            session_id: vec![],
            challenge: [1; 16],
        };
        let rec = extract(Date::ymd(2018, 2, 10), 5666, &v2.to_bytes(), None).unwrap();
        assert!(rec.sslv2);
        let offer = rec.client.unwrap();
        assert_eq!(offer.legacy_version, ProtocolVersion::Ssl2);
        assert!(OfferFold::of(&offer).fp_flags().rc4);
    }

    #[test]
    fn tls13_answer_extraction() {
        let hello = sample_hello();
        let sh = ServerHello {
            legacy_version: ProtocolVersion::Tls12,
            random: [5; 32],
            session_id: vec![],
            cipher_suite: CipherSuite(0x1301),
            compression_method: 0,
            extensions: Some(vec![
                Extension::selected_version(ProtocolVersion::Tls13Experiment(2)),
                Extension::key_share_server(NamedGroup::X25519),
            ]),
        };
        let rec = extract(
            Date::ymd(2018, 4, 2),
            443,
            &client_bytes(&hello),
            Some(&server_bytes(&sh, None)),
        )
        .unwrap();
        match rec.server {
            ServerOutcome::Answered(ans) => {
                assert_eq!(ans.version, ProtocolVersion::Tls13Experiment(2));
                assert!(ans.cipher.is_tls13());
                assert_eq!(ans.curve, Some(NamedGroup::X25519));
            }
            other => panic!("{other:?}"),
        }
    }
}
