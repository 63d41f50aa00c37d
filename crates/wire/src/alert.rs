//! TLS alert protocol: levels, descriptions, and parsing.
//!
//! The monitor sees failed handshakes as alert records; classifying
//! *why* servers reject (handshake_failure vs protocol_version vs
//! insufficient_security) is part of understanding downgrade behaviour.

use crate::codec::Reader;
use crate::error::{WireError, WireResult};

/// Alert severity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertLevel {
    /// warning(1).
    Warning,
    /// fatal(2).
    Fatal,
    /// Anything else on the wire.
    Unknown(u8),
}

impl AlertLevel {
    /// Decode a wire value.
    pub fn from_wire(v: u8) -> Self {
        match v {
            1 => AlertLevel::Warning,
            2 => AlertLevel::Fatal,
            other => AlertLevel::Unknown(other),
        }
    }

    /// Wire value.
    pub fn to_wire(self) -> u8 {
        match self {
            AlertLevel::Warning => 1,
            AlertLevel::Fatal => 2,
            AlertLevel::Unknown(v) => v,
        }
    }
}

/// A parsed alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// Description code.
    pub description: u8,
}

/// Well-known alert description codes (RFC 5246 §7.2).
pub mod alert_desc {
    /// close_notify.
    pub const CLOSE_NOTIFY: u8 = 0;
    /// unexpected_message.
    pub const UNEXPECTED_MESSAGE: u8 = 10;
    /// bad_record_mac.
    pub const BAD_RECORD_MAC: u8 = 20;
    /// record_overflow.
    pub const RECORD_OVERFLOW: u8 = 22;
    /// decompression_failure.
    pub const DECOMPRESSION_FAILURE: u8 = 30;
    /// handshake_failure.
    pub const HANDSHAKE_FAILURE: u8 = 40;
    /// bad_certificate.
    pub const BAD_CERTIFICATE: u8 = 42;
    /// unsupported_certificate.
    pub const UNSUPPORTED_CERTIFICATE: u8 = 43;
    /// certificate_expired.
    pub const CERTIFICATE_EXPIRED: u8 = 45;
    /// illegal_parameter.
    pub const ILLEGAL_PARAMETER: u8 = 47;
    /// unknown_ca.
    pub const UNKNOWN_CA: u8 = 48;
    /// decode_error.
    pub const DECODE_ERROR: u8 = 50;
    /// decrypt_error.
    pub const DECRYPT_ERROR: u8 = 51;
    /// protocol_version.
    pub const PROTOCOL_VERSION: u8 = 70;
    /// insufficient_security.
    pub const INSUFFICIENT_SECURITY: u8 = 71;
    /// internal_error.
    pub const INTERNAL_ERROR: u8 = 80;
    /// inappropriate_fallback (RFC 7507 — the POODLE-era SCSV response).
    pub const INAPPROPRIATE_FALLBACK: u8 = 86;
    /// user_canceled.
    pub const USER_CANCELED: u8 = 90;
    /// no_renegotiation.
    pub const NO_RENEGOTIATION: u8 = 100;
    /// unsupported_extension.
    pub const UNSUPPORTED_EXTENSION: u8 = 110;
}

impl Alert {
    /// A fatal handshake_failure — what servers send when no common
    /// cipher exists.
    pub fn handshake_failure() -> Self {
        Alert {
            level: AlertLevel::Fatal,
            description: alert_desc::HANDSHAKE_FAILURE,
        }
    }

    /// A fatal protocol_version alert — version intersection failure.
    pub fn protocol_version() -> Self {
        Alert {
            level: AlertLevel::Fatal,
            description: alert_desc::PROTOCOL_VERSION,
        }
    }

    /// Serialise to the 2-byte alert payload.
    pub fn to_bytes(self) -> Vec<u8> {
        vec![self.level.to_wire(), self.description]
    }

    /// Parse an alert payload.
    pub fn parse(payload: &[u8]) -> WireResult<Self> {
        let mut r = Reader::new(payload);
        let level = AlertLevel::from_wire(r.u8()?);
        let description = r.u8()?;
        r.expect_empty()
            .map_err(|_| WireError::TrailingBytes(r.remaining()))?;
        Ok(Alert { level, description })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for a in [
            Alert::handshake_failure(),
            Alert::protocol_version(),
            Alert {
                level: AlertLevel::Warning,
                description: alert_desc::CLOSE_NOTIFY,
            },
        ] {
            assert_eq!(Alert::parse(&a.to_bytes()).unwrap(), a);
        }
    }

    #[test]
    fn known_codes() {
        assert_eq!(Alert::handshake_failure().to_bytes(), vec![2, 40]);
    }

    #[test]
    fn malformed_rejected() {
        assert!(Alert::parse(&[]).is_err());
        assert!(Alert::parse(&[2]).is_err());
        assert!(Alert::parse(&[2, 40, 0]).is_err());
    }

    #[test]
    fn unknown_level_preserved() {
        let a = Alert::parse(&[9, 40]).unwrap();
        assert_eq!(a.level, AlertLevel::Unknown(9));
        assert_eq!(a.level.to_wire(), 9);
    }
}
