//! # tlscope-traffic
//!
//! The synthetic Internet: a market-share model over the client catalog,
//! a version-adoption model, the server population, and a deterministic
//! generator that emits the wire bytes a passive tap would capture.
//!
//! This crate is the data substitute for the ICSI SSL Notary's live
//! feed (319.3 B connections): everything downstream consumes only the
//! bytes produced here, so the measurement pipeline stays honest.
//!
//! ```
//! use tlscope_traffic::{Generator, TrafficConfig, FaultInjector};
//! use tlscope_chron::Month;
//!
//! let gen = Generator::new(TrafficConfig {
//!     seed: 1,
//!     connections_per_month: 100,
//!     faults: FaultInjector::none(),
//! });
//! let events = gen.month(Month::ym(2015, 6).into());
//! assert_eq!(events.len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod generator;
pub mod market;

pub use faults::FaultInjector;
pub use generator::{ConnectionEvent, Generator, MonthStream, StreamTally, TrafficConfig};
pub use market::{Market, ShareCurve};
