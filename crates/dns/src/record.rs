//! Resource records and their RDATA (RFC 1035 §3.2, RFC 3596).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::name::{CompressionTable, Name};
use crate::view::RecordRef;
use crate::wire::{WireReader, WireWriter};
use crate::DnsError;

/// Record type (the TYPE/QTYPE field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address (the paper's delivery vector).
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name alias.
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer (reverse lookups).
    Ptr,
    /// Mail exchange.
    Mx,
    /// Free-form text.
    Txt,
    /// IPv6 host address (the paper's alternate vector).
    Aaaa,
    /// Any other type, carried opaquely.
    Other(u16),
}

impl RecordType {
    /// Numeric wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }

    /// Decodes the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }

    /// Whether the simulated Connman proxy caches this type; the
    /// vulnerable decompression path is only reached for these
    /// (`dnsproxy.c` caches type A and AAAA).
    pub fn is_cached_by_connman(self) -> bool {
        matches!(self, RecordType::A | RecordType::Aaaa)
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordType::A => "A",
            RecordType::Ns => "NS",
            RecordType::Cname => "CNAME",
            RecordType::Soa => "SOA",
            RecordType::Ptr => "PTR",
            RecordType::Mx => "MX",
            RecordType::Txt => "TXT",
            RecordType::Aaaa => "AAAA",
            RecordType::Other(v) => return write!(f, "TYPE{v}"),
        };
        f.write_str(s)
    }
}

/// Record class (the CLASS/QCLASS field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// The Internet class — the only one Connman forwards.
    In,
    /// Chaosnet.
    Ch,
    /// Hesiod.
    Hs,
    /// QCLASS `*`.
    Any,
    /// Anything else.
    Other(u16),
}

impl RecordClass {
    /// Numeric wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Hs => 4,
            RecordClass::Any => 255,
            RecordClass::Other(v) => v,
        }
    }

    /// Decodes the wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            4 => RecordClass::Hs,
            255 => RecordClass::Any,
            other => RecordClass::Other(other),
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecordClass::In => "IN",
            RecordClass::Ch => "CH",
            RecordClass::Hs => "HS",
            RecordClass::Any => "ANY",
            RecordClass::Other(v) => return write!(f, "CLASS{v}"),
        };
        f.write_str(s)
    }
}

/// Typed RDATA payload of a resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Alias target.
    Cname(Name),
    /// Name-server host.
    Ns(Name),
    /// Reverse-pointer target.
    Ptr(Name),
    /// Mail exchange: preference and host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// Exchange host name.
        exchange: Name,
    },
    /// Text strings, each at most 255 bytes.
    Txt(Vec<Vec<u8>>),
    /// Start of authority.
    Soa {
        /// Primary master name.
        mname: Name,
        /// Responsible mailbox.
        rname: Name,
        /// Zone serial.
        serial: u32,
        /// Refresh interval, seconds.
        refresh: u32,
        /// Retry interval, seconds.
        retry: u32,
        /// Expiry, seconds.
        expire: u32,
        /// Negative-caching TTL, seconds.
        minimum: u32,
    },
    /// Unparsed payload for unknown types.
    Opaque(Vec<u8>),
}

impl RecordData {
    /// The record type this payload corresponds to; `Opaque` reports the
    /// type it was decoded under via [`Record::rtype`], so here it maps to
    /// `Other(0)` and callers should prefer the record's own type field.
    fn natural_type(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Aaaa(_) => RecordType::Aaaa,
            RecordData::Cname(_) => RecordType::Cname,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Ptr(_) => RecordType::Ptr,
            RecordData::Mx { .. } => RecordType::Mx,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::Soa { .. } => RecordType::Soa,
            RecordData::Opaque(_) => RecordType::Other(0),
        }
    }
}

/// A complete resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    name: Name,
    rtype: RecordType,
    class: RecordClass,
    ttl: u32,
    data: RecordData,
}

impl Record {
    /// Creates an `IN`-class record whose type is inferred from `data`.
    pub fn new(name: Name, ttl: u32, data: RecordData) -> Self {
        let rtype = data.natural_type();
        Record {
            name,
            rtype,
            class: RecordClass::In,
            ttl,
            data,
        }
    }

    /// Creates a record with explicit type and class (needed for opaque
    /// payloads).
    pub fn with_parts(
        name: Name,
        rtype: RecordType,
        class: RecordClass,
        ttl: u32,
        data: RecordData,
    ) -> Self {
        Record {
            name,
            rtype,
            class,
            ttl,
            data,
        }
    }

    /// The owner name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// The record type.
    pub fn rtype(&self) -> RecordType {
        self.rtype
    }

    /// The record class.
    pub fn class(&self) -> RecordClass {
        self.class
    }

    /// Time-to-live in seconds.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// The typed payload.
    pub fn data(&self) -> &RecordData {
        &self.data
    }

    /// Encodes the record, sharing name compression state.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter, table: &mut CompressionTable) -> Result<(), DnsError> {
        self.name.encode_compressed(w, table)?;
        w.write_u16(self.rtype.to_u16())?;
        w.write_u16(self.class.to_u16())?;
        w.write_u32(self.ttl)?;
        // Reserve RDLENGTH, encode RDATA, patch the length in afterwards.
        let len_at = w.len();
        w.write_u16(0)?;
        let start = w.len();
        self.encode_rdata(w, table)?;
        let rdlen = w.len() - start;
        w.patch_u16(len_at, rdlen as u16);
        Ok(())
    }

    fn encode_rdata(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError> {
        match &self.data {
            RecordData::A(ip) => w.write_bytes(&ip.octets()),
            RecordData::Aaaa(ip) => w.write_bytes(&ip.octets()),
            RecordData::Cname(n) | RecordData::Ns(n) | RecordData::Ptr(n) => {
                n.encode_compressed(w, table)
            }
            RecordData::Mx {
                preference,
                exchange,
            } => {
                w.write_u16(*preference)?;
                exchange.encode_compressed(w, table)
            }
            RecordData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(DnsError::BadRdata {
                            rtype: RecordType::Txt.to_u16(),
                            detail: "txt string over 255 bytes",
                        });
                    }
                    w.write_u8(s.len() as u8)?;
                    w.write_bytes(s)?;
                }
                Ok(())
            }
            RecordData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                mname.encode_compressed(w, table)?;
                rname.encode_compressed(w, table)?;
                w.write_u32(*serial)?;
                w.write_u32(*refresh)?;
                w.write_u32(*retry)?;
                w.write_u32(*expire)?;
                w.write_u32(*minimum)
            }
            RecordData::Opaque(bytes) => w.write_bytes(bytes),
        }
    }

    /// Decodes one record.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] on truncation, malformed names, or RDATA
    /// whose length disagrees with its type.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let rec = RecordRef::scan(r.message(), r.position())?;
        r.seek(rec.end())?;
        Ok(rec.to_record())
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.name, self.ttl, self.class, self.rtype
        )?;
        match &self.data {
            RecordData::A(ip) => write!(f, " {ip}"),
            RecordData::Aaaa(ip) => write!(f, " {ip}"),
            RecordData::Cname(n) | RecordData::Ns(n) | RecordData::Ptr(n) => write!(f, " {n}"),
            RecordData::Mx {
                preference,
                exchange,
            } => write!(f, " {preference} {exchange}"),
            RecordData::Txt(strings) => {
                for s in strings {
                    write!(f, " \"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RecordData::Soa {
                mname,
                rname,
                serial,
                ..
            } => {
                write!(f, " {mname} {rname} {serial}")
            }
            RecordData::Opaque(b) => write!(f, " \\# {}", b.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: &Record) -> Record {
        let mut w = WireWriter::new();
        rec.encode(&mut w, &mut CompressionTable::new()).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = Record::decode(&mut r).unwrap();
        assert!(r.is_empty(), "reader must land on the record boundary");
        back
    }

    #[test]
    fn a_record_roundtrip() {
        let rec = Record::new(
            Name::parse("host.example").unwrap(),
            300,
            RecordData::A(Ipv4Addr::new(10, 1, 2, 3)),
        );
        assert_eq!(roundtrip(&rec), rec);
        assert_eq!(rec.rtype(), RecordType::A);
    }

    #[test]
    fn aaaa_record_roundtrip() {
        let rec = Record::new(
            Name::parse("v6.example").unwrap(),
            60,
            RecordData::Aaaa("2001:db8::1".parse().unwrap()),
        );
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn cname_mx_txt_soa_roundtrip() {
        let recs = vec![
            Record::new(
                Name::parse("alias.example").unwrap(),
                1,
                RecordData::Cname(Name::parse("real.example").unwrap()),
            ),
            Record::new(
                Name::parse("example").unwrap(),
                1,
                RecordData::Mx {
                    preference: 10,
                    exchange: Name::parse("mx.example").unwrap(),
                },
            ),
            Record::new(
                Name::parse("example").unwrap(),
                1,
                RecordData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]),
            ),
            Record::new(
                Name::parse("example").unwrap(),
                1,
                RecordData::Soa {
                    mname: Name::parse("ns1.example").unwrap(),
                    rname: Name::parse("admin.example").unwrap(),
                    serial: 2024,
                    refresh: 7200,
                    retry: 600,
                    expire: 86400,
                    minimum: 300,
                },
            ),
        ];
        for rec in recs {
            assert_eq!(roundtrip(&rec), rec);
        }
    }

    #[test]
    fn opaque_roundtrip() {
        let rec = Record::with_parts(
            Name::parse("x").unwrap(),
            RecordType::Other(999),
            RecordClass::In,
            0,
            RecordData::Opaque(vec![1, 2, 3, 4, 5]),
        );
        assert_eq!(roundtrip(&rec), rec);
    }

    #[test]
    fn a_record_with_wrong_rdlen_rejected() {
        // Hand-build: name "a", type A, class IN, ttl 0, rdlen 3.
        let bytes = [1, b'a', 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 3, 9, 9, 9];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Record::decode(&mut r),
            Err(DnsError::BadRdata { .. })
        ));
    }

    #[test]
    fn rdata_truncation_rejected() {
        // rdlen promises 4 but only 2 bytes remain.
        let bytes = [1, b'a', 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 4, 9, 9];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Record::decode(&mut r),
            Err(DnsError::Truncated {
                context: "record rdata"
            })
        ));
    }

    #[test]
    fn connman_caches_only_a_and_aaaa() {
        assert!(RecordType::A.is_cached_by_connman());
        assert!(RecordType::Aaaa.is_cached_by_connman());
        assert!(!RecordType::Cname.is_cached_by_connman());
        assert!(!RecordType::Txt.is_cached_by_connman());
    }

    #[test]
    fn type_class_wire_values_roundtrip() {
        for v in [1u16, 2, 5, 6, 12, 15, 16, 28, 77] {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
        for v in [1u16, 3, 4, 255, 42] {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn display_forms() {
        let rec = Record::new(
            Name::parse("h.e").unwrap(),
            30,
            RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
        );
        assert_eq!(rec.to_string(), "h.e 30 IN A 1.2.3.4");
    }
}
