//! Flow ingestion: extract one tapped flow and fold it into an
//! aggregate.
//!
//! The real Notary fans captured flows out to parallel Bro workers; the
//! reproduction's fan-out is the month-sharded study runner
//! (`tlscope_analysis::Study`), which folds the generator's borrowed
//! flows straight through [`ingest_borrowed`], each worker with the one
//! [`ExtractScratch`] it owns, and puts its panic boundary on the
//! month. This module holds that per-flow fold.

use tlscope_chron::Date;

use crate::aggregate::NotaryAggregate;
use crate::conn::{extract_into, ExtractScratch};

/// Extract one borrowed flow and fold it into `agg` — the zero-copy
/// fast path. The connection record is refilled into `scratch`'s
/// record slot, through its parse cache, and aggregated by reference,
/// so the steady state allocates neither flow buffers nor record
/// vectors. Each of the study's workers passes the one scratch it owns
/// for every flow it folds.
pub fn ingest_borrowed(
    agg: &mut NotaryAggregate,
    scratch: &mut ExtractScratch,
    date: Date,
    port: u16,
    client: &[u8],
    server: Option<&[u8]>,
) {
    match extract_into(date, port, client, server, scratch) {
        Ok(rec) => agg.ingest(rec),
        Err(e) => agg.ingest_failure(e),
    }
}
