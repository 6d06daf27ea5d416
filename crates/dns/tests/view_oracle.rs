//! Differential oracle for the borrowed message view.
//!
//! `MessageView::parse` and `Message::decode` share one validator, so
//! this file keeps an independent copy of the strict decoder as it stood
//! before the view existed (`reference`) and checks all three against
//! each other on seeded mutants of real packets — queries, glued and
//! glueless referrals, CNAME answers, NXDOMAIN replies and records of
//! every RDATA shape — under bit flips, off-by-one bytes, truncation,
//! byte insertion, pointer loops and inflated section counts:
//!
//! - the view, `Message::decode` and the reference accept exactly the
//!   same inputs, with the same error;
//! - on an accepted message every record ref materializes to the record
//!   `Message::decode` produced, and re-encodes to that record's bytes;
//! - every wire name displays, compares and keys like its `Name`.

use std::net::{Ipv4Addr, Ipv6Addr};

use cml_dns::{
    CompressionTable, DnsError, Header, Label, Message, MessageView, Name, NameRef, Question,
    Record, RecordClass, RecordData, RecordType, WireReader, WireWriter, Zone, ZoneServer,
    FOLDED_KEY_LEN,
};

/// The strict decoder before the view: a name walk, per-type RDATA
/// decoding and per-section count errors, written out independently.
mod reference {
    use super::*;

    pub struct Decoded {
        pub header: Header,
        pub questions: Vec<Question>,
        pub sections: [Vec<Record>; 3],
    }

    pub fn name(r: &mut WireReader<'_>) -> Result<Name, DnsError> {
        let msg = r.message();
        let mut labels = Vec::new();
        let mut wire_len = 1usize;
        let mut hops = 0usize;
        let mut resume: Option<usize> = None;
        let mut pos = r.position();
        loop {
            let len = *msg.get(pos).ok_or(DnsError::Truncated {
                context: "name length byte",
            })? as usize;
            match len {
                0 => {
                    pos += 1;
                    break;
                }
                l if l & 0xC0 == 0xC0 => {
                    let lo = *msg.get(pos + 1).ok_or(DnsError::Truncated {
                        context: "pointer low byte",
                    })? as usize;
                    let target = ((l & 0x3F) << 8) | lo;
                    if target >= pos {
                        return Err(DnsError::ForwardPointer { target, at: pos });
                    }
                    hops += 1;
                    if hops > 32 {
                        return Err(DnsError::PointerLimit(32));
                    }
                    if resume.is_none() {
                        resume = Some(pos + 2);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(DnsError::BadLabelType(l as u8)),
                l => {
                    let end = pos + 1 + l;
                    let bytes = msg.get(pos + 1..end).ok_or(DnsError::Truncated {
                        context: "label bytes",
                    })?;
                    wire_len += l + 1;
                    if wire_len > 255 {
                        return Err(DnsError::NameTooLong(wire_len));
                    }
                    labels.push(Label::from_bytes_relaxed(bytes)?);
                    pos = end;
                }
            }
        }
        r.seek(resume.unwrap_or(pos))?;
        Name::from_labels(labels)
    }

    fn record(r: &mut WireReader<'_>) -> Result<Record, DnsError> {
        let owner = name(r)?;
        let rtype = RecordType::from_u16(r.read_u16("record type")?);
        let class = RecordClass::from_u16(r.read_u16("record class")?);
        let ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("record rdlength")? as usize;
        let rd_start = r.position();
        if r.remaining() < rdlen {
            return Err(DnsError::Truncated {
                context: "record rdata",
            });
        }
        let bad = |detail| DnsError::BadRdata {
            rtype: rtype.to_u16(),
            detail,
        };
        let data = match rtype {
            RecordType::A => {
                if rdlen != 4 {
                    return Err(bad("A rdata must be 4 bytes"));
                }
                let b = r.read_bytes(4, "A rdata")?;
                RecordData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            RecordType::Aaaa => {
                if rdlen != 16 {
                    return Err(bad("AAAA rdata must be 16 bytes"));
                }
                let mut oct = [0u8; 16];
                oct.copy_from_slice(r.read_bytes(16, "AAAA rdata")?);
                RecordData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::Cname => RecordData::Cname(name(r)?),
            RecordType::Ns => RecordData::Ns(name(r)?),
            RecordType::Ptr => RecordData::Ptr(name(r)?),
            RecordType::Mx => {
                let preference = r.read_u16("MX preference")?;
                RecordData::Mx {
                    preference,
                    exchange: name(r)?,
                }
            }
            RecordType::Txt => {
                let mut strings = Vec::new();
                let end = r.position() + rdlen;
                while r.position() < end {
                    let len = r.read_u8("TXT string length")? as usize;
                    if r.position() + len > end {
                        return Err(bad("txt string overruns rdata"));
                    }
                    strings.push(r.read_bytes(len, "TXT string")?.to_vec());
                }
                RecordData::Txt(strings)
            }
            RecordType::Soa => {
                let mname = name(r)?;
                let rname = name(r)?;
                RecordData::Soa {
                    mname,
                    rname,
                    serial: r.read_u32("SOA serial")?,
                    refresh: r.read_u32("SOA refresh")?,
                    retry: r.read_u32("SOA retry")?,
                    expire: r.read_u32("SOA expire")?,
                    minimum: r.read_u32("SOA minimum")?,
                }
            }
            RecordType::Other(_) => {
                RecordData::Opaque(r.read_bytes(rdlen, "opaque rdata")?.to_vec())
            }
        };
        r.seek(rd_start + rdlen)?;
        Ok(Record::with_parts(owner, rtype, class, ttl, data))
    }

    fn section_err(e: DnsError, section: &'static str) -> DnsError {
        match e {
            DnsError::Truncated { .. } => DnsError::CountMismatch { section },
            other => other,
        }
    }

    pub fn message(bytes: &[u8]) -> Result<Decoded, DnsError> {
        let mut r = WireReader::new(bytes);
        let header = Header::decode(&mut r)?;
        let mut questions = Vec::new();
        for _ in 0..header.qdcount {
            let q = (|| {
                let qname = name(&mut r)?;
                let qtype = RecordType::from_u16(r.read_u16("question type")?);
                let qclass = RecordClass::from_u16(r.read_u16("question class")?);
                Ok(Question::with_class(qname, qtype, qclass))
            })();
            questions.push(q.map_err(|e| section_err(e, "question"))?);
        }
        let mut sections: [Vec<Record>; 3] = Default::default();
        let counts = [header.ancount, header.nscount, header.arcount];
        for ((records, count), section) in
            sections
                .iter_mut()
                .zip(counts)
                .zip(["answer", "authority", "additional"])
        {
            for _ in 0..count {
                records.push(record(&mut r).map_err(|e| section_err(e, section))?);
            }
        }
        if !r.is_empty() {
            return Err(DnsError::TrailingBytes(r.remaining()));
        }
        Ok(Decoded {
            header,
            questions,
            sections,
        })
    }
}

/// SplitMix64: the test's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn query(id: u16, name: &str, rtype: RecordType) -> Vec<u8> {
    Message::query(id, Question::new(Name::parse(name).unwrap(), rtype))
        .encode()
        .unwrap()
}

/// Real packets: client and upstream queries, authoritative answers,
/// glued and glueless referrals, CNAME answers, NXDOMAIN replies, and
/// one response carrying every RDATA shape.
fn seed_packets() -> Vec<Vec<u8>> {
    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86400, "ns1.vendor.example")
        .a("ns1.vendor.example", 86400, Ipv4Addr::new(203, 0, 113, 53))
        .aaaa("ns1.vendor.example", 86400, "2001:db8::53".parse().unwrap())
        .ns("cdn.example", 86400, "cdnns.vendor.example");
    let mut vendor = Zone::rooted("vendor.example");
    vendor
        .a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .cname("www.vendor.example", 600, "telemetry.vendor.example")
        .cname("alias.vendor.example", 600, "edge.cdn.example");
    let (mut tld, mut vendor) = (ZoneServer::new(tld), ZoneServer::new(vendor));
    let mut packets = Vec::new();
    for (name, rtype) in [
        ("www.vendor.example", RecordType::A),
        ("edge.cdn.example", RecordType::A),
        ("Telemetry.VENDOR.example", RecordType::A),
        ("alias.vendor.example", RecordType::Aaaa),
        ("ghost.vendor.example", RecordType::A),
        ("ghost.example", RecordType::Mx),
    ] {
        let q = query(0x4242, name, rtype);
        for server in [&mut tld, &mut vendor] {
            packets.extend(server.handle(&q));
        }
        packets.push(q);
    }
    let q = Message::decode(&packets[0]).unwrap();
    let mut every = Message::response_to(&q);
    let host = |s: &str| Name::parse(s).unwrap();
    for data in [
        RecordData::A(Ipv4Addr::new(10, 0, 0, 1)),
        RecordData::Aaaa(Ipv6Addr::LOCALHOST),
        RecordData::Cname(host("www.vendor.example")),
        RecordData::Ptr(host("ptr.vendor.example")),
        RecordData::Mx {
            preference: 10,
            exchange: host("mx.vendor.example"),
        },
        RecordData::Txt(vec![b"v=spf1".to_vec(), Vec::new(), b"x".to_vec()]),
        RecordData::Soa {
            mname: host("ns1.vendor.example"),
            rname: host("admin.vendor.example"),
            serial: 2024,
            refresh: 7200,
            retry: 600,
            expire: 86400,
            minimum: 300,
        },
    ] {
        every.push_answer(Record::new(host("www.vendor.example"), 60, data));
    }
    every.push_authority(Record::with_parts(
        host("vendor.example"),
        RecordType::Other(99),
        RecordClass::Ch,
        1,
        RecordData::Opaque(vec![1, 2, 3]),
    ));
    every.push_additional(Record::new(
        host("ns1.vendor.example"),
        0,
        RecordData::Ns(host("vendor.example")),
    ));
    packets.push(every.encode().unwrap());
    packets
}

/// One mutant of `seed`: one to three of the mutation kinds, stacked.
fn mutate(seed: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut p = seed.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(7) {
            0 => {
                let i = rng.below(p.len());
                if let Some(b) = p.get_mut(i) {
                    *b ^= 1 << rng.below(8);
                }
            }
            // Off by one, as a length or count field goes wrong.
            6 => {
                let i = rng.below(p.len());
                if let Some(b) = p.get_mut(i) {
                    *b = if rng.next() & 1 == 0 {
                        b.wrapping_add(1)
                    } else {
                        b.wrapping_sub(1)
                    };
                }
            }
            1 => p.truncate(rng.below(p.len() + 1)),
            2 => {
                let i = rng.below(p.len() + 1);
                p.insert(i, rng.next() as u8);
            }
            // A pointer to itself, to a later byte or to an earlier
            // one, planted where a name byte was.
            3 if p.len() > 13 => {
                let at = 12 + rng.below(p.len() - 13);
                let target = match rng.below(3) {
                    0 => at,
                    1 => at + 1 + rng.below(8),
                    _ => rng.below(at),
                };
                p[at] = 0xC0 | (target >> 8) as u8 & 0x3F;
                p[at + 1] = target as u8;
            }
            4 if p.len() >= 12 => {
                let at = 4 + 2 * rng.below(4);
                let count = u16::from_be_bytes([p[at], p[at + 1]]);
                let count = count.wrapping_add(1 + rng.below(3) as u16);
                p[at..at + 2].copy_from_slice(&count.to_be_bytes());
            }
            _ => {
                let i = rng.below(p.len());
                if let Some(b) = p.get_mut(i) {
                    *b = [0, 0x3F, 0x40, 0x80, 0xC0, 0xFF, b'.', b'\\'][rng.below(8)];
                }
            }
        }
    }
    p
}

/// The wire name and its materialized `Name` agree everywhere.
fn check_name(wire: NameRef<'_>, name: &Name, what: &str) {
    assert_eq!(wire.to_name(), *name, "{what}: materialized");
    assert_eq!(wire.to_string(), name.to_string(), "{what}: display");
    assert!(wire.eq_name(name), "{what}: eq_name");
    assert!(wire.eq_ignore_case(&wire), "{what}: eq_ignore_case");
    let mut folded = name.clone();
    folded.make_ascii_lowercase();
    assert!(wire.eq_name(&folded), "{what}: case-insensitive");
    let (mut a, mut b) = ([0; FOLDED_KEY_LEN], [0; FOLDED_KEY_LEN]);
    assert_eq!(
        wire.folded_key(RecordType::A, &mut a),
        name.folded_key(RecordType::A, &mut b),
        "{what}: folded key"
    );
}

fn encoded(f: impl FnOnce(&mut WireWriter, &mut CompressionTable)) -> Vec<u8> {
    let mut w = WireWriter::new();
    let mut table = CompressionTable::new();
    // A prefix to compress against, so re-encoded names take pointers.
    Name::parse("vendor.example")
        .unwrap()
        .encode_compressed(&mut w, &mut table)
        .unwrap();
    f(&mut w, &mut table);
    w.into_bytes()
}

fn check(packet: &[u8], accepted: &mut usize) {
    let view = MessageView::parse(packet);
    let decoded = Message::decode(packet);
    let oracle = reference::message(packet);
    let (view, decoded, oracle) = match (view, decoded, oracle) {
        (Ok(v), Ok(d), Ok(o)) => (v, d, o),
        (v, d, o) => {
            let (v, d, o) = (v.err(), d.err(), o.err());
            assert!(
                v.is_some() && d.is_some() && o.is_some(),
                "verdicts differ on {packet:02x?}"
            );
            assert_eq!(v, o, "view error on {packet:02x?}");
            assert_eq!(d, o, "decode error on {packet:02x?}");
            return;
        }
    };
    *accepted += 1;
    assert_eq!(*decoded.header(), oracle.header);
    assert_eq!(*view.header(), oracle.header);
    assert_eq!(decoded.questions(), &oracle.questions[..]);
    let questions: Vec<_> = view.questions().collect();
    assert_eq!(questions.len(), oracle.questions.len());
    for (q, expected) in questions.iter().zip(&oracle.questions) {
        assert_eq!(q.to_question(), *expected);
        check_name(q.name(), expected.qname(), "question");
    }
    let sections = [
        (view.answers(), decoded.answers()),
        (view.authorities(), decoded.authorities()),
        (view.additionals(), decoded.additionals()),
    ];
    for ((refs, records), expected) in sections.into_iter().zip(&oracle.sections) {
        assert_eq!(records, &expected[..]);
        assert_eq!(refs.len(), records.len());
        for (r, record) in refs.zip(records) {
            assert_eq!(r.to_record(), *record, "record in {packet:02x?}");
            assert_eq!(
                (r.rtype(), r.class(), r.ttl()),
                (record.rtype(), record.class(), record.ttl())
            );
            check_name(r.owner(), record.name(), "owner");
            let name_at = |at| {
                let mut reader = WireReader::new(packet);
                reader.seek(at).unwrap();
                Name::decode(&mut reader).unwrap()
            };
            assert_eq!(name_at(r.owner_offset()), *record.name());
            match record.data() {
                RecordData::Cname(n) | RecordData::Ns(n) | RecordData::Ptr(n) => {
                    check_name(r.target().expect("has a target"), n, "target");
                    assert_eq!(name_at(r.rdata_offset()), *n);
                }
                RecordData::A(a) => {
                    assert_eq!(r.a(), Some(*a));
                    assert_eq!(packet[r.rdata_offset()..][..4], a.octets());
                }
                _ => assert!(r.target().is_none() && r.a().is_none()),
            }
            assert_eq!(
                encoded(|w, t| r.encode(w, t).unwrap()),
                encoded(|w, t| record.encode(w, t).unwrap()),
                "re-encode of {record}"
            );
        }
    }
}

#[test]
fn view_and_decode_agree_with_the_reference_on_seeded_mutants() {
    let seeds = seed_packets();
    let mut rng = Rng(0x0DD5_EED5);
    let (mut accepted, mut total) = (0, 0);
    for seed in &seeds {
        check(seed, &mut accepted);
        total += 1;
    }
    assert_eq!(accepted, seeds.len(), "every seed packet is well formed");
    while total < 120_000 {
        let seed = &seeds[rng.below(seeds.len())];
        check(&mutate(seed, &mut rng), &mut accepted);
        total += 1;
    }
    // Both verdicts must be well represented for the agreement to mean
    // anything.
    assert!(accepted > total / 20, "{accepted} of {total} accepted");
    assert!(accepted < total / 2, "{accepted} of {total} accepted");
}
