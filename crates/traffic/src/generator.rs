//! The connection-event generator: the synthetic Internet's tap point.
//!
//! For each simulated connection the generator (1) draws a client
//! family from the market model and a configuration era from the
//! adoption model, (2) draws the destination and a server profile from
//! the population model, (3) emits the actual wire bytes both sides
//! would put on the network (ClientHello records; ServerHello records
//! plus ServerKeyExchange for classic ECDHE, or an alert on failure),
//! and (4) runs the best-effort-tap fault injector over both flows.
//!
//! Everything downstream (the notary) sees only bytes — the ground
//! truth used for generation never crosses this boundary.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use tlscope_chron::{Date, Month};
use tlscope_clients::{catalog, Family, HelloEntropy, HelloPatches};
use tlscope_servers::{negotiate, Destination, ParamsCache, ServerPopulation};
use tlscope_wire::codec::{patch_bytes, Writer};
use tlscope_wire::exts::ext_type;
use tlscope_wire::grease::grease_value;
use tlscope_wire::handshake::handshake_type;
use tlscope_wire::record::{ContentType, Record, RecordView};
use tlscope_wire::{CipherSuite, NamedGroup, ProtocolVersion, Sslv2ClientHello};

use crate::faults::FaultInjector;
use crate::market::Market;

/// One tapped connection: wire bytes only.
#[derive(Debug, Clone)]
pub struct ConnectionEvent {
    /// Day the connection was seen.
    pub date: Date,
    /// Destination TCP port (the Notary watches all ports).
    pub port: u16,
    /// Client → server bytes (TLS records or an SSLv2 record).
    pub client_flow: Vec<u8>,
    /// Server → client bytes; `None` when the tap missed them.
    pub server_flow: Option<Vec<u8>>,
}

impl ConnectionEvent {
    /// Total wire bytes the tap captured for this connection.
    pub fn wire_bytes(&self) -> u64 {
        self.client_flow.len() as u64 + self.server_flow.as_ref().map_or(0, |s| s.len() as u64)
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed; every month derives its own stream from it.
    pub seed: u64,
    /// Connections generated per month.
    pub connections_per_month: u32,
    /// Fault injection for the tap.
    pub faults: FaultInjector,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 0x715C0,
            connections_per_month: 20_000,
            faults: FaultInjector::tap_defaults(),
        }
    }
}

/// The generator: market + adoption + server population.
pub struct Generator {
    market: Market,
    population: ServerPopulation,
    /// Where each weight sits in a stream's per-day client tables.
    layout: DayLayout,
    cfg: TrafficConfig,
}

impl Generator {
    /// Build a generator over the full client catalog.
    pub fn new(cfg: TrafficConfig) -> Self {
        let market = Market::new();
        let layout = DayLayout::new(market.families());
        Generator {
            market,
            population: ServerPopulation::new(),
            layout,
            cfg,
        }
    }

    /// Access the market model (for analyses that need shares).
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Generate one month of traffic as owned events: every flow
    /// [`Generator::stream_month`] yields, copied out of its scratch.
    /// Deterministic in (seed, month).
    pub fn month(&self, month: Month) -> Vec<ConnectionEvent> {
        self.stream_month(month).copy_out()
    }

    /// Lazily generate one month of traffic, one event at a time.
    ///
    /// The same event sequence as [`Generator::month`] (same per-month
    /// RNG stream, same fault injection) without ever materializing
    /// the month — the streaming study runner aggregates each event as
    /// it is drawn, so peak memory stays at one event per worker
    /// instead of one month per worker.
    pub fn stream_month(&self, month: Month) -> MonthStream<'_> {
        MonthStream {
            generator: self,
            month,
            rng: SmallRng::seed_from_u64(
                self.cfg
                    .seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(month.index() as u64),
            ),
            remaining: self.cfg.connections_per_month,
            pending: None,
            flows: 0,
            wire_bytes: 0,
            outage_dropped: 0,
            duplicated: 0,
            scratch: GenScratch {
                // One (lazily filled) client table per calendar day; a
                // filled table is never empty, so an empty slot
                // unambiguously means "not yet computed".
                day_tables: vec![Vec::new(); month.len_days() as usize],
                ..GenScratch::default()
            },
        }
    }

    /// Generate one connection straight into `scratch`'s flow buffers.
    ///
    /// The returned [`FlowMeta`] describes bytes left in
    /// `scratch.client_buf` / `scratch.server_buf`; nothing is heap-
    /// allocated per call once the scratch buffers have grown to their
    /// working sizes. Draws the identical RNG sequence as the previous
    /// owned implementation, so every pinned event stream is unchanged.
    fn connection_into(
        &self,
        date: Date,
        rng: &mut SmallRng,
        scratch: &mut GenScratch,
    ) -> Option<FlowMeta> {
        // 1. Client family + era. Market and era shares are pure
        // functions of the calendar date, so within one month they take
        // at most 31 distinct values — the scratch keeps one flat table
        // per day (shares, era weights and their totals) instead of
        // re-interpolating ~45 anchor curves and re-summing the weights
        // per connection.
        let day_idx = date.day() as usize - 1;
        if scratch.day_tables[day_idx].is_empty() {
            let GenScratch {
                day_tables,
                era_shares,
                ..
            } = scratch;
            self.layout
                .fill(&self.market, date, era_shares, &mut day_tables[day_idx]);
        }
        let (fam_idx, era_idx) = self.layout.pick(&scratch.day_tables[day_idx], rng)?;
        let family = &self.market.families()[fam_idx];
        let era = &family.eras[era_idx];

        // 2. Destination.
        let (dest, port) = destination_for(family, rng);

        // 3. Client bytes.
        let entropy = HelloEntropy::from_seed(rng.random::<u64>());
        if era.tls.legacy_version == ProtocolVersion::Ssl2 {
            const SSLV2_SPECS: &[u32] = &[
                tlscope_wire::record::sslv2_cipher::RC4_128_WITH_MD5,
                tlscope_wire::record::sslv2_cipher::DES_192_EDE3_CBC_WITH_MD5,
            ];
            let mut challenge = [0u8; 16];
            challenge.copy_from_slice(&entropy.random[..16]);
            scratch.client_buf.clear();
            Sslv2ClientHello::write_parts_into(
                ProtocolVersion::Ssl2,
                SSLV2_SPECS,
                &[],
                &challenge,
                &mut scratch.client_buf,
            );
            if !self.cfg.faults.apply(&mut scratch.client_buf, rng) {
                return None;
            }
            return Some(FlowMeta {
                date,
                port,
                has_server: false,
            });
        }

        let sni = sni_for(dest, rng);
        let cfg = &era.tls;
        cfg.hello_ciphers_into(&entropy, &mut scratch.ciphers);
        let shuffled = family.name == "(cipher-shuffling client)";
        if shuffled {
            // §4.1: the fingerprint-exploding bug — unstable cipher
            // order per connection.
            shuffle(&mut scratch.ciphers, rng);
        }
        let record_version = if cfg.legacy_version.rank() <= ProtocolVersion::Ssl3.rank() {
            ProtocolVersion::Ssl3
        } else {
            ProtocolVersion::Tls10
        };
        let GenScratch {
            ciphers,
            versions,
            curves,
            handshake,
            client_buf,
            server_buf,
            params_cache,
            templates,
            ..
        } = scratch;
        // Client bytes via the template cache: for a stable-order
        // config the serialised hello is a pure function of
        // (family, era, sni) outside its patch map, so steady state is
        // memcpy + patch. The shuffling client's suite order changes
        // per connection and bypasses the cache, as would a non-empty
        // session id (resumption would move every offset).
        let cacheable = !shuffled && entropy.session_id.is_empty();
        let client_key = (fam_idx, era_idx, sni);
        let mut hit = false;
        if cacheable {
            if let Some(t) = templates.client.get(&client_key) {
                client_buf.clear();
                client_buf.extend_from_slice(&t.bytes);
                t.patches.apply(client_buf, &entropy);
                hit = true;
            }
        }
        if hit {
            templates.hits += 1;
        } else {
            let mut patches = None;
            with_writer(handshake, |w| {
                patches = Some(cfg.write_hello_recording(Some(sni), &entropy, ciphers, w));
            });
            client_buf.clear();
            Record::wrap_handshake_into(record_version, handshake, client_buf);
            let header = client_buf.len() - handshake.len();
            // header == 5 means the hello fits one record — the only
            // shape the patch map's uniform +5 shift describes (real
            // hellos always do; a multi-record monster just stays
            // uncached).
            if cacheable && header == 5 {
                let mut patches = patches.expect("with_writer runs its closure");
                patches.shift(header);
                templates.client.insert(
                    client_key,
                    ClientTemplate {
                        bytes: client_buf.clone(),
                        patches,
                    },
                );
            }
            templates.misses += 1;
        }

        // 4. Server side. Negotiation runs on ClientFacts assembled
        // from the configuration that just emitted the hello — the
        // same information a parse of the client flow would recover,
        // without materialising a ClientHello.
        let profile = self
            .population
            .sample_for_traffic(params_cache, dest, date, rng);
        let mut server_random = [0u8; 32];
        for chunk in server_random.chunks_mut(8) {
            chunk.copy_from_slice(&rng.random::<u64>().to_le_bytes());
        }
        let supported_versions = if cfg.extensions.contains(&ext_type::SUPPORTED_VERSIONS) {
            versions.clear();
            if cfg.grease {
                versions.push(ProtocolVersion::Unknown(grease_value(
                    entropy.grease_draws[0],
                )));
            }
            versions.extend(cfg.supported_versions.iter().copied());
            Some(versions.as_slice())
        } else {
            None
        };
        let groups = if cfg.extensions.contains(&ext_type::SUPPORTED_GROUPS) {
            curves.clear();
            if cfg.grease {
                curves.push(NamedGroup(grease_value(entropy.grease_draws[3])));
            }
            curves.extend(cfg.curves.iter().copied());
            Some(curves.as_slice())
        } else {
            None
        };
        let facts = negotiate::ClientFacts {
            legacy_version: cfg.legacy_version,
            session_id: &entropy.session_id,
            cipher_suites: ciphers,
            supported_versions,
            curves: groups,
            has_renegotiation_info: cfg.extensions.contains(&ext_type::RENEGOTIATION_INFO),
            has_heartbeat: cfg.extensions.contains(&ext_type::HEARTBEAT),
            has_extensions: !cfg.extensions.is_empty() || cfg.grease,
        };
        server_buf.clear();
        match negotiate::decide(&profile, &facts) {
            Ok(d) => {
                // The whole server flight is a pure function of
                // (Decision, echoed facts, server_random) when the
                // session id is empty — so the flight is cached per
                // template key and only the 32 random bytes at the
                // fixed ServerHello offset are rewritten.
                let server_key = d.template_key(&facts);
                if entropy.session_id.is_empty() {
                    if let Some(bytes) = templates.server.get(&server_key) {
                        server_buf.extend_from_slice(bytes);
                        patch_bytes(server_buf, SERVER_RANDOM_OFFSET, &server_random);
                        templates.hits += 1;
                    } else {
                        build_server_flight(&d, &facts, server_random, handshake, server_buf);
                        debug_assert_eq!(
                            &server_buf[SERVER_RANDOM_OFFSET..SERVER_RANDOM_OFFSET + 32],
                            &server_random[..],
                        );
                        templates.server.insert(server_key, server_buf.clone());
                        templates.misses += 1;
                    }
                } else {
                    build_server_flight(&d, &facts, server_random, handshake, server_buf);
                }
            }
            Err(failure) => {
                let alert = match failure {
                    tlscope_servers::HandshakeFailure::VersionMismatch => {
                        tlscope_wire::Alert::protocol_version()
                    }
                    tlscope_servers::HandshakeFailure::NoCommonCipher => {
                        tlscope_wire::Alert::handshake_failure()
                    }
                };
                RecordView {
                    content_type: ContentType::Alert,
                    version: record_version,
                    payload: &[alert.level.to_wire(), alert.description],
                }
                .write_into(server_buf);
            }
        }

        if !self.cfg.faults.apply(client_buf, rng) {
            return None;
        }
        let has_server = self.cfg.faults.apply(server_buf, rng);
        Some(FlowMeta {
            date,
            port,
            has_server,
        })
    }
}

/// Where one generated connection's bytes are: the flows live in the
/// stream's [`GenScratch`] buffers, this carries everything else.
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    date: Date,
    port: u16,
    /// The server flow survived fault injection (when false,
    /// `server_buf` holds meaningless bytes).
    has_server: bool,
}

/// One tapped connection, borrowed from the stream's scratch buffers.
///
/// Valid until the next [`MonthStream::next_flow`] call; the borrow
/// checker enforces exactly that. The borrowed twin of
/// [`ConnectionEvent`].
#[derive(Debug, Clone, Copy)]
pub struct FlowRef<'a> {
    /// Day the connection was seen.
    pub date: Date,
    /// Destination TCP port.
    pub port: u16,
    /// Client → server bytes.
    pub client: &'a [u8],
    /// Server → client bytes; `None` when the tap missed them.
    pub server: Option<&'a [u8]>,
}

/// Where each weight sits in a per-day client table.
///
/// One flat table per calendar day holds, in order: every family's
/// market share, their total, every family's era weights, and each
/// family's era total. The era offsets are fixed by the catalog (51
/// families, 107 eras), so a day costs one allocation, not one per
/// family.
struct DayLayout {
    /// Family `f`'s era weights sit at `era_offsets[f]..era_offsets[f
    /// + 1]` of the era block; one entry per family plus the end.
    era_offsets: Vec<usize>,
}

impl DayLayout {
    fn new(families: &[Family]) -> Self {
        let mut era_offsets = vec![0];
        for family in families {
            era_offsets.push(era_offsets[era_offsets.len() - 1] + family.eras.len());
        }
        DayLayout { era_offsets }
    }

    fn families(&self) -> usize {
        self.era_offsets.len() - 1
    }

    /// Start of the era block (after the shares and their total).
    fn eras_at(&self) -> usize {
        self.families() + 1
    }

    /// Start of the era totals (after the era block).
    fn era_totals_at(&self) -> usize {
        self.eras_at() + self.era_offsets[self.families()]
    }

    /// Fill `table` with `date`'s weights, using `era_buf` as scratch.
    /// Each total is the left-to-right `sum` of its weights, so a draw
    /// over a stored total is bit-identical to one that sums in place.
    fn fill(&self, market: &Market, date: Date, era_buf: &mut Vec<f64>, table: &mut Vec<f64>) {
        table.reserve_exact(self.era_totals_at() + self.families());
        market.shares_into(date, table);
        let total = table.iter().sum();
        table.push(total);
        for family in market.families() {
            catalog::adoption_for(family).era_shares_into(family, date, era_buf);
            table.extend_from_slice(era_buf);
        }
        for f in 0..self.families() {
            let total = self.eras_of(table, f).iter().sum();
            table.push(total);
        }
    }

    fn eras_of<'t>(&self, table: &'t [f64], family: usize) -> &'t [f64] {
        let at = self.eras_at();
        &table[at + self.era_offsets[family]..at + self.era_offsets[family + 1]]
    }

    /// Draw `(family, era)` from a filled table: the family by market
    /// share, then its era by adoption weight.
    fn pick(&self, table: &[f64], rng: &mut SmallRng) -> Option<(usize, usize)> {
        let families = self.families();
        let family = pick_index(rng, &table[..families], table[families])?;
        let era = pick_index(
            rng,
            self.eras_of(table, family),
            table[self.era_totals_at() + family],
        )?;
        Some((family, era))
    }
}

/// Per-stream reusable buffers. Every connection draws through these
/// instead of allocating fresh intermediates — including the flow
/// bytes themselves: `client_buf`/`server_buf` hold the current
/// connection's wire bytes, and only a caller that needs owned flows
/// ([`Generator::month`]) copies them out.
#[derive(Default)]
struct GenScratch {
    /// Client-draw weights, one flat table per day of the month (slot
    /// `day - 1`; empty = not yet computed; layout: [`DayLayout`]).
    /// Sized by [`Generator::stream_month`].
    day_tables: Vec<Vec<f64>>,
    /// Memoised cohort parameter curves for profile sampling.
    params_cache: ParamsCache,
    /// Scratch for one family's era weights while a day table fills.
    era_shares: Vec<f64>,
    ciphers: Vec<CipherSuite>,
    versions: Vec<ProtocolVersion>,
    curves: Vec<NamedGroup>,
    handshake: Vec<u8>,
    client_buf: Vec<u8>,
    server_buf: Vec<u8>,
    /// Serialised-flight templates for both sides of the tap.
    templates: TemplateCache,
}

/// Byte offset of the 32-byte server random inside a record-framed
/// ServerHello: 5 record-header bytes, 1 handshake type, 3 length,
/// 2 legacy version.
const SERVER_RANDOM_OFFSET: usize = 11;

/// A cached record-framed client flow plus the offsets of its volatile
/// ranges.
struct ClientTemplate {
    bytes: Vec<u8>,
    patches: HelloPatches,
}

/// Per-stream cache of serialised wire flights.
///
/// Client flows are keyed by (family, era, sni) — the hello bytes are
/// a pure function of that triple outside the patch map (the calendar
/// day shifts *which* stacks appear, never their bytes, so day is
/// deliberately not part of the key). Server flights are keyed by
/// [`Decision::template_key`](tlscope_servers::Decision::template_key)
/// and re-randomised by patching the server random in place. Both maps
/// are unbounded: the key space is the client catalog × a handful of
/// SNIs, resp. the set of distinct negotiation outcomes — a few
/// hundred entries per stream at most.
#[derive(Default)]
struct TemplateCache {
    client: HashMap<(usize, usize, &'static str), ClientTemplate>,
    server: HashMap<u64, Vec<u8>>,
    hits: u64,
    misses: u64,
}

/// Serialise the server flight for an already-made decision into
/// `server_buf` (which the caller cleared): ServerHello, then for
/// classic TLS the ECDHE ServerKeyExchange (when a curve was selected)
/// and ServerHelloDone — one record per handshake message, the framing
/// real stacks use (which lets a tap that truncated the tail of the
/// flight still keep an intact ServerHello prefix for salvage).
fn build_server_flight(
    d: &negotiate::Decision,
    facts: &negotiate::ClientFacts<'_>,
    server_random: [u8; 32],
    handshake: &mut Vec<u8>,
    server_buf: &mut Vec<u8>,
) {
    let version = if d.version.is_tls13_family() {
        ProtocolVersion::Tls12
    } else {
        d.version
    };
    with_writer(handshake, |w| {
        negotiate::write_decision_into(d, facts, server_random, w);
    });
    Record::wrap_handshake_into(version, handshake, server_buf);
    if !d.version.is_tls13_family() {
        if let Some(curve) = d.curve {
            with_writer(handshake, |w| {
                tlscope_wire::ske::write_ecdhe_ske(w, curve, 65);
            });
            Record::wrap_handshake_into(version, handshake, server_buf);
        }
        Record::wrap_handshake_into(
            version,
            &[handshake_type::SERVER_HELLO_DONE, 0, 0, 0],
            server_buf,
        );
    }
}

/// Run a serialiser over a [`Writer`] that borrows `buf`'s storage,
/// leaving the (possibly grown) storage in `buf` for the next use.
fn with_writer(buf: &mut Vec<u8>, f: impl FnOnce(&mut Writer)) {
    buf.clear();
    let mut w = Writer::from_vec(std::mem::take(buf));
    f(&mut w);
    *buf = w.into_bytes();
}

/// What a [`MonthStream`] has done so far, in plain counters. The
/// stream counts as it goes and the study runner records the tally
/// once per month, so no flow pays for metering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamTally {
    /// Flows yielded, tap duplicates included.
    pub flows: u64,
    /// Wire bytes of the yielded flows (client plus captured server).
    pub wire_bytes: u64,
    /// Connections lost to tap outage windows (never generated).
    pub outage_dropped: u64,
    /// Flows the tap duplicated (each copy is also in `flows`).
    pub duplicated: u64,
    /// Template-cache hits: flights served by memcpy + patch.
    pub template_hits: u64,
    /// Template-cache misses: flights serialised in full and cached.
    pub template_misses: u64,
}

/// Lazy per-event stream over one month's traffic.
///
/// Created by [`Generator::stream_month`]. [`MonthStream::tally`]
/// reports what it has yielded so far (flows, wire bytes, outage
/// losses, duplicates, template-cache use).
pub struct MonthStream<'a> {
    generator: &'a Generator,
    month: Month,
    rng: SmallRng,
    remaining: u32,
    /// Replay token for a tap-duplicated flow: the duplicate's bytes
    /// are still sitting untouched in `scratch`, so the second copy is
    /// re-emitted from there on the next draw — no owned clone of the
    /// event is ever held.
    pending: Option<FlowMeta>,
    flows: u64,
    wire_bytes: u64,
    outage_dropped: u64,
    duplicated: u64,
    /// Reusable per-connection buffers, including the current flow
    /// bytes.
    scratch: GenScratch,
}

impl MonthStream<'_> {
    /// Wire bytes of the connection currently in scratch.
    fn scratch_wire_bytes(&self, meta: FlowMeta) -> u64 {
        let server = if meta.has_server {
            self.scratch.server_buf.len() as u64
        } else {
            0
        };
        self.scratch.client_buf.len() as u64 + server
    }

    /// Draw the next connection into scratch. Handles duplication
    /// replay and counts what it yields.
    fn advance(&mut self) -> Option<FlowMeta> {
        let meta = match self.pending.take() {
            // Second copy of a duplicated flow, replayed from scratch.
            Some(meta) => meta,
            None => self.draw()?,
        };
        self.flows += 1;
        self.wire_bytes += self.scratch_wire_bytes(meta);
        Some(meta)
    }

    /// Generate the next captured connection into scratch, skipping
    /// the ones the tap loses, and mark a duplicate for replay.
    fn draw(&mut self) -> Option<FlowMeta> {
        let faults = &self.generator.cfg.faults;
        // Shares drift within a month; sampling per connection-day
        // keeps the curves smooth without recomputing per event.
        while self.remaining > 0 {
            self.remaining -= 1;
            let day = self.rng.random_range(1..=self.month.len_days());
            let date = Date::new(self.month.year(), self.month.month_of_year(), day).unwrap();
            if faults.in_outage(self.generator.cfg.seed, date) {
                // The tap is dark: the connection happened on the wire
                // but was never captured. The check precedes generation
                // — an outage costs no RNG draws, mirroring a capture
                // process that simply is not running.
                self.outage_dropped += 1;
                continue;
            }
            if let Some(meta) =
                self.generator
                    .connection_into(date, &mut self.rng, &mut self.scratch)
            {
                if faults.duplicates(&mut self.rng) {
                    self.duplicated += 1;
                    self.pending = Some(meta);
                }
                return Some(meta);
            }
        }
        None
    }

    /// What this stream has yielded so far. Cheap: the counters are
    /// plain fields, bumped as flows are drawn.
    pub fn tally(&self) -> StreamTally {
        StreamTally {
            flows: self.flows,
            wire_bytes: self.wire_bytes,
            outage_dropped: self.outage_dropped,
            duplicated: self.duplicated,
            template_hits: self.scratch.templates.hits,
            template_misses: self.scratch.templates.misses,
        }
    }

    /// Cumulative template-cache (hits, misses) for this stream —
    /// client and server flights combined.
    pub fn template_cache_stats(&self) -> (u64, u64) {
        (self.scratch.templates.hits, self.scratch.templates.misses)
    }

    /// Pull the next connection without allocating: the returned
    /// [`FlowRef`] borrows the stream's scratch buffers and is valid
    /// until the next call. The fused study runner folds straight from
    /// these borrows into the aggregate.
    pub fn next_flow(&mut self) -> Option<FlowRef<'_>> {
        let meta = self.advance()?;
        Some(FlowRef {
            date: meta.date,
            port: meta.port,
            client: &self.scratch.client_buf,
            server: meta
                .has_server
                .then_some(self.scratch.server_buf.as_slice()),
        })
    }

    /// Copy every flow left in the stream out of its scratch: the
    /// owned collector behind [`Generator::month`].
    fn copy_out(&mut self) -> Vec<ConnectionEvent> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        while let Some(flow) = self.next_flow() {
            out.push(ConnectionEvent {
                date: flow.date,
                port: flow.port,
                client_flow: flow.client.to_vec(),
                server_flow: flow.server.map(<[u8]>::to_vec),
            });
        }
        out
    }
}

/// Draw an index in proportion to `weights`, whose sum is `total`. A
/// non-positive total returns `None` without drawing.
fn pick_index(rng: &mut SmallRng, weights: &[f64], total: f64) -> Option<usize> {
    if total <= 0.0 {
        return None;
    }
    let mut draw = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return Some(i);
        }
        draw -= w;
    }
    weights.iter().rposition(|w| *w > 0.0)
}

fn destination_for(family: &Family, rng: &mut SmallRng) -> (Destination, u16) {
    match family.name {
        "Globus GridFTP" => (Destination::Grid, 2811),
        "Nagios NRPE" => (Destination::Nagios, 5666),
        "Legacy Nagios probe (SSLv2)" => (Destination::Sslv2Relic, 5666),
        "Thunderbird" | "Apple Mail" => (Destination::Mail, 993),
        "Splunk forwarder" => (Destination::Splunk, 9997),
        "Interwise" => (Destination::Interwise, 443),
        _ => {
            let draw = rng.random::<f64>();
            if draw < 0.9830 {
                (Destination::Web, 443)
            } else if draw < 0.9930 {
                (Destination::Enterprise, 443)
            } else if draw < 0.9970 {
                (Destination::Iot, 8443)
            } else if draw < 0.9986 {
                (Destination::BankLegacy, 443)
            } else if draw < 0.9990 {
                (Destination::Gost, 443)
            } else {
                (Destination::Nagios, 5666)
            }
        }
    }
}

fn sni_for(dest: Destination, rng: &mut SmallRng) -> &'static str {
    const WEB: &[&str] = &[
        "www.example.com",
        "search.example.org",
        "social.example.net",
        "video.example.com",
        "news.example.org",
        "shop.example.net",
    ];
    match dest {
        Destination::Web => WEB[rng.random_range(0..WEB.len())],
        Destination::Mail => "imap.example.org",
        Destination::Grid => "gridftp.example.edu",
        Destination::Nagios => "nagios.example.edu",
        Destination::Interwise => "meet.interwise.example",
        Destination::Gost => "gost.example.ru",
        Destination::BankLegacy => "bankmellat.example.ir",
        Destination::Splunk => "splunk.example.corp",
        _ => "internal.example.corp",
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlscope_wire::{sniff, WireFlavor};

    fn small_gen() -> Generator {
        Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 500,
            faults: FaultInjector::none(),
        })
    }

    #[test]
    fn month_is_deterministic() {
        let g = small_gen();
        let a = g.month(Month::ym(2015, 6));
        let b = g.month(Month::ym(2015, 6));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].client_flow, b[0].client_flow);
        assert_eq!(a[10].server_flow, b[10].server_flow);
    }

    #[test]
    fn different_months_differ() {
        let g = small_gen();
        let a = g.month(Month::ym(2015, 6));
        let b = g.month(Month::ym(2015, 7));
        assert_ne!(a[0].client_flow, b[0].client_flow);
    }

    #[test]
    fn flows_are_parseable_tls() {
        let g = small_gen();
        let events = g.month(Month::ym(2016, 3));
        assert_eq!(events.len(), 500);
        let mut tls = 0;
        let mut answered = 0;
        for ev in &events {
            match sniff(&ev.client_flow) {
                WireFlavor::Tls => {
                    tls += 1;
                    let records = Record::read_all(&ev.client_flow).unwrap();
                    let hs = Record::coalesce_handshake(&records).unwrap();
                    tlscope_wire::ClientHello::parse_handshake(&hs).unwrap();
                }
                WireFlavor::Sslv2 => {
                    Sslv2ClientHello::parse(&ev.client_flow).unwrap();
                }
                WireFlavor::Other => panic!("unsniffable flow"),
            }
            if ev.server_flow.is_some() {
                answered += 1;
            }
        }
        assert!(tls > 490);
        assert!(answered > 450);
    }

    #[test]
    fn dates_fall_in_month() {
        let g = small_gen();
        for ev in g.month(Month::ym(2014, 2)) {
            assert_eq!(ev.date.month(), Month::ym(2014, 2));
        }
    }

    #[test]
    fn early_traffic_has_no_aead_negotiation() {
        let g = small_gen();
        for ev in g.month(Month::ym(2012, 3)) {
            let Some(sf) = &ev.server_flow else { continue };
            let records = Record::read_all(sf).unwrap();
            if records[0].content_type != ContentType::Handshake {
                continue;
            }
            let hs = Record::coalesce_handshake(&records).unwrap();
            let mut r = tlscope_wire::codec::Reader::new(&hs);
            let (typ, body) = tlscope_wire::handshake::read_handshake(&mut r).unwrap();
            assert_eq!(typ, 2);
            let sh = tlscope_wire::ServerHello::parse_body(body).unwrap();
            assert!(
                !sh.cipher_suite.is_aead(),
                "AEAD negotiated in 2012: {}",
                sh.cipher_suite
            );
        }
    }

    #[test]
    fn stream_matches_materialized_month() {
        let g = small_gen();
        let materialized = g.month(Month::ym(2015, 6));
        let mut stream = g.stream_month(Month::ym(2015, 6));
        let mut streamed = 0;
        while let Some(a) = stream.next_flow() {
            let b = &materialized[streamed];
            assert_eq!(a.date, b.date);
            assert_eq!(a.port, b.port);
            assert_eq!(a.client, b.client_flow);
            assert_eq!(a.server, b.server_flow.as_deref());
            streamed += 1;
        }
        assert_eq!(streamed, materialized.len());
    }

    #[test]
    fn stream_tally_accounts_flows_and_bytes() {
        let g = small_gen();
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let total_bytes: u64 = stream.copy_out().iter().map(|ev| ev.wire_bytes()).sum();
        let tally = stream.tally();
        assert_eq!(tally.flows, 500);
        assert_eq!(tally.wire_bytes, total_bytes);
    }

    #[test]
    fn fault_injection_reduces_flows() {
        let lossy = Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 2000,
            faults: FaultInjector {
                drop_prob: 0.5,
                ..FaultInjector::none()
            },
        });
        let events = lossy.month(Month::ym(2016, 3));
        // Client-side drops remove the whole event.
        assert!(events.len() < 1300, "{}", events.len());
    }

    #[test]
    fn outage_windows_remove_whole_days_deterministically() {
        let cfg = TrafficConfig {
            seed: 42,
            connections_per_month: 1000,
            faults: FaultInjector {
                outage_prob: 0.4,
                ..FaultInjector::none()
            },
        };
        let g = Generator::new(cfg.clone());
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let events = stream.copy_out();
        let dropped = stream.tally().outage_dropped;
        assert!(dropped > 0, "expected some outage losses");
        assert_eq!(events.len() as u64 + dropped, 1000);
        // No surviving event is dated inside an outage window.
        for ev in &events {
            assert!(!cfg.faults.in_outage(cfg.seed, ev.date));
        }
        // Deterministic: a second run sees the identical event stream.
        let again = g.month(Month::ym(2016, 3));
        assert_eq!(events.len(), again.len());
        for (a, b) in events.iter().zip(&again) {
            assert_eq!(a.client_flow, b.client_flow);
        }
    }

    #[test]
    fn duplication_emits_adjacent_identical_flows() {
        let g = Generator::new(TrafficConfig {
            seed: 42,
            connections_per_month: 500,
            faults: FaultInjector {
                duplicate_prob: 0.2,
                ..FaultInjector::none()
            },
        });
        let mut stream = g.stream_month(Month::ym(2016, 3));
        let events = stream.copy_out();
        let tally = stream.tally();
        assert!(tally.duplicated > 0, "expected some duplicates");
        assert_eq!(events.len() as u64, 500 + tally.duplicated);
        assert_eq!(tally.flows, events.len() as u64);
        // Each duplicate is an exact adjacent copy.
        let adjacent_dups = events
            .windows(2)
            .filter(|w| {
                w[0].client_flow == w[1].client_flow && w[0].server_flow == w[1].server_flow
            })
            .count() as u64;
        assert!(adjacent_dups >= tally.duplicated);
    }
}
