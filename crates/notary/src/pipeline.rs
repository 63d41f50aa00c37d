//! Flow ingestion: extract one tapped flow and fold it into an
//! aggregate.
//!
//! The real Notary fans captured flows out to parallel Bro workers; the
//! reproduction's fan-out is the month-sharded study runner
//! (`tlscope_analysis::Study`), which folds the generator's borrowed
//! flows straight through [`ingest_borrowed`] and puts its panic
//! boundary on the month. This module holds the per-flow fold it uses,
//! plus the owned [`TappedFlow`] form and a serial reference runner.

use tlscope_chron::Date;

use crate::aggregate::NotaryAggregate;
use crate::conn::{extract_into, with_thread_scratch};

/// A flow handed to the monitor: everything a tap knows.
#[derive(Debug, Clone)]
pub struct TappedFlow {
    /// Capture date.
    pub date: Date,
    /// Destination port.
    pub port: u16,
    /// Client-to-server bytes.
    pub client: Vec<u8>,
    /// Server-to-client bytes, when captured.
    pub server: Option<Vec<u8>>,
}

/// Extract one flow and fold it into `agg`: the owned wrapper over
/// [`ingest_borrowed`].
pub fn ingest_flow(agg: &mut NotaryAggregate, flow: &TappedFlow) {
    ingest_borrowed(
        agg,
        flow.date,
        flow.port,
        &flow.client,
        flow.server.as_deref(),
    );
}

/// Extract one borrowed flow and fold it into `agg` — the zero-copy
/// fast path. The connection record is refilled into this thread's
/// shared [`ExtractScratch`](crate::conn::ExtractScratch) slot and
/// aggregated by reference, so the steady state allocates neither
/// flow buffers nor record vectors. The fused study runner folds the
/// generator's scratch borrows straight through here.
pub fn ingest_borrowed(
    agg: &mut NotaryAggregate,
    date: Date,
    port: u16,
    client: &[u8],
    server: Option<&[u8]>,
) {
    with_thread_scratch(
        |scratch| match extract_into(date, port, client, server, scratch) {
            Ok(rec) => agg.ingest(rec),
            Err(e) => agg.ingest_failure(e),
        },
    )
}

/// Ingest a stream of flows on the current thread: the reference every
/// sharded run is compared against.
pub fn ingest_serial(flows: impl IntoIterator<Item = TappedFlow>) -> NotaryAggregate {
    let mut agg = NotaryAggregate::new();
    for flow in flows {
        ingest_flow(&mut agg, &flow);
    }
    agg
}
