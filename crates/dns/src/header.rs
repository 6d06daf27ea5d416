//! The 12-byte DNS message header (RFC 1035 §4.1.1).

use std::fmt;

use crate::wire::{WireReader, WireWriter};
use crate::DnsError;

/// Query/operation kind carried in the header's OPCODE field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query (the only kind the proxy forwards).
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// A value outside the three assigned ones.
    Other(u8),
}

impl Opcode {
    /// Numeric wire value.
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit wire value.
    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            other => Opcode::Other(other),
        }
    }
}

/// Response code carried in the header's RCODE field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The query was malformed.
    FormErr,
    /// The server failed internally.
    ServFail,
    /// The name does not exist.
    NxDomain,
    /// The server does not implement the request.
    NotImp,
    /// The server refused the request.
    Refused,
    /// A value outside the assigned ones.
    Other(u8),
}

impl Rcode {
    /// Numeric wire value.
    fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// Decodes the 4-bit wire value.
    fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NOERROR",
            Rcode::FormErr => "FORMERR",
            Rcode::ServFail => "SERVFAIL",
            Rcode::NxDomain => "NXDOMAIN",
            Rcode::NotImp => "NOTIMP",
            Rcode::Refused => "REFUSED",
            Rcode::Other(v) => return write!(f, "RCODE{v}"),
        };
        f.write_str(s)
    }
}

/// Decoded DNS header with section counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier chosen by the querier.
    pub id: u16,
    /// `true` for responses, `false` for queries (QR bit).
    pub response: bool,
    /// Operation kind.
    pub opcode: Opcode,
    /// Authoritative-answer bit.
    pub authoritative: bool,
    /// Truncation bit.
    pub truncated: bool,
    /// Recursion-desired bit.
    pub recursion_desired: bool,
    /// Recursion-available bit.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Number of entries in the question section.
    pub qdcount: u16,
    /// Number of entries in the answer section.
    pub ancount: u16,
    /// Number of entries in the authority section.
    pub nscount: u16,
    /// Number of entries in the additional section.
    pub arcount: u16,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            id: 0,
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
            qdcount: 0,
            ancount: 0,
            nscount: 0,
            arcount: 0,
        }
    }
}

impl Header {
    /// Size of the header on the wire.
    pub const WIRE_LEN: usize = 12;

    /// Packs the flag fields into the second 16-bit word.
    pub(crate) fn flags_word(&self) -> u16 {
        let mut w = 0u16;
        if self.response {
            w |= 0x8000;
        }
        w |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            w |= 0x0400;
        }
        if self.truncated {
            w |= 0x0200;
        }
        if self.recursion_desired {
            w |= 0x0100;
        }
        if self.recursion_available {
            w |= 0x0080;
        }
        w |= self.rcode.to_u8() as u16;
        w
    }

    /// Unpacks the second 16-bit word into flag fields (counts untouched).
    fn apply_flags_word(&mut self, w: u16) {
        self.response = w & 0x8000 != 0;
        self.opcode = Opcode::from_u8((w >> 11) as u8);
        self.authoritative = w & 0x0400 != 0;
        self.truncated = w & 0x0200 != 0;
        self.recursion_desired = w & 0x0100 != 0;
        self.recursion_available = w & 0x0080 != 0;
        self.rcode = Rcode::from_u8(w as u8);
    }

    /// Encodes the header.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        w.write_u16(self.id)?;
        w.write_u16(self.flags_word())?;
        w.write_u16(self.qdcount)?;
        w.write_u16(self.ancount)?;
        w.write_u16(self.nscount)?;
        w.write_u16(self.arcount)
    }

    /// Decodes a header from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] if fewer than 12 bytes remain.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let id = r.read_u16("header id")?;
        let flags = r.read_u16("header flags")?;
        let mut h = Header {
            id,
            qdcount: r.read_u16("header qdcount")?,
            ancount: r.read_u16("header ancount")?,
            nscount: r.read_u16("header nscount")?,
            arcount: r.read_u16("header arcount")?,
            ..Header::default()
        };
        h.apply_flags_word(flags);
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_word_roundtrip() {
        let mut h = Header {
            id: 7,
            response: true,
            opcode: Opcode::Status,
            authoritative: true,
            truncated: false,
            recursion_desired: true,
            recursion_available: true,
            rcode: Rcode::NxDomain,
            ..Header::default()
        };
        let word = h.flags_word();
        let mut h2 = Header {
            id: 7,
            ..Header::default()
        };
        h2.apply_flags_word(word);
        h.qdcount = 0;
        assert_eq!(h, h2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = Header {
            id: 0xBEEF,
            response: true,
            qdcount: 1,
            ancount: 2,
            nscount: 3,
            arcount: 4,
            ..Header::default()
        };
        let mut w = WireWriter::new();
        h.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), Header::WIRE_LEN);
        let mut r = WireReader::new(&bytes);
        assert_eq!(Header::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn decode_truncated() {
        let mut r = WireReader::new(&[0; 5]);
        assert!(matches!(
            Header::decode(&mut r),
            Err(DnsError::Truncated { .. })
        ));
    }

    #[test]
    fn opcode_rcode_exhaustive() {
        for v in 0u8..16 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn rcode_display() {
        assert_eq!(Rcode::NoError.to_string(), "NOERROR");
        assert_eq!(Rcode::Other(9).to_string(), "RCODE9");
    }
}
