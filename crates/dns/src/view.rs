//! A borrowed, validating view of a DNS message.
//!
//! [`MessageView::parse`] runs the strict decoder's checks — the same
//! name walk and record checks [`Message::decode`](crate::Message::decode)
//! uses, so the two accept exactly the same packets — but keeps nothing
//! but offsets. Records and names are then read in place: a record's
//! type, TTL and owner/RDATA offsets, case-insensitive name comparison
//! (wire against [`Name`], wire against wire), presentation-form
//! display, and the zone table's folded key. A [`Name`], [`Question`] or
//! [`Record`] is built only when a caller asks for one.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::header::{Header, Rcode};
use crate::name::{encode_labels_compressed, fmt_labels, fold_key, walk_name, Label, MAX_LABELS};
use crate::name::{CompressionTable, Name, FOLDED_KEY_LEN, MAX_NAME_LEN};
use crate::question::Question;
use crate::record::{Record, RecordClass, RecordData, RecordType};
use crate::wire::{WireReader, WireWriter};
use crate::DnsError;

/// A validated message: the header plus the offset each section starts
/// at. Every name and record reachable from it passed the strict checks.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    header: Header,
    /// Start offsets of the answer, authority and additional sections.
    sections: [usize; 3],
}

impl<'a> MessageView<'a> {
    /// Validates a complete message, rejecting trailing bytes — with
    /// exactly [`Message::decode`](crate::Message::decode)'s verdict and
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation.
    pub fn parse(msg: &'a [u8]) -> Result<Self, DnsError> {
        let header = Header::decode(&mut WireReader::new(msg))?;
        let mut pos = Header::WIRE_LEN;
        for _ in 0..header.qdcount {
            pos = read_question(msg, pos)
                .map_err(|e| section_err(e, "question"))?
                .1;
        }
        let mut sections = [0; 3];
        let counts = [header.ancount, header.nscount, header.arcount];
        for ((start, count), section) in
            sections
                .iter_mut()
                .zip(counts)
                .zip(["answer", "authority", "additional"])
        {
            *start = pos;
            for _ in 0..count {
                pos = RecordRef::scan(msg, pos)
                    .map_err(|e| section_err(e, section))?
                    .end();
            }
        }
        if pos != msg.len() {
            return Err(DnsError::TrailingBytes(msg.len() - pos));
        }
        Ok(MessageView {
            msg,
            header,
            sections,
        })
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// Whether the QR bit marks this as a response.
    pub fn is_response(&self) -> bool {
        self.header.response
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.rcode
    }

    /// The question section.
    pub fn questions(&self) -> impl Iterator<Item = QuestionRef<'a>> + '_ {
        let msg = self.msg;
        let mut pos = Header::WIRE_LEN;
        (0..self.header.qdcount).map(move |_| {
            let name = NameRef { msg, at: pos };
            pos = skip_name(msg, pos);
            let q = QuestionRef {
                name,
                qtype: RecordType::from_u16(be16(msg, pos)),
                qclass: RecordClass::from_u16(be16(msg, pos + 2)),
            };
            pos += 4;
            q
        })
    }

    /// The answer section.
    pub fn answers(&self) -> Records<'a> {
        self.section(0, self.header.ancount)
    }

    /// The authority section.
    pub fn authorities(&self) -> Records<'a> {
        self.section(1, self.header.nscount)
    }

    /// The additional section.
    pub fn additionals(&self) -> Records<'a> {
        self.section(2, self.header.arcount)
    }

    fn section(&self, i: usize, count: u16) -> Records<'a> {
        Records {
            msg: self.msg,
            pos: self.sections[i],
            left: count,
        }
    }
}

fn section_err(e: DnsError, section: &'static str) -> DnsError {
    match e {
        DnsError::Truncated { .. } => DnsError::CountMismatch { section },
        other => other,
    }
}

/// Reads one question entry at `pos` with the strict checks — the name
/// walk, then the type and class — and returns it with the offset after
/// it.
pub(crate) fn read_question(msg: &[u8], pos: usize) -> Result<(QuestionRef<'_>, usize), DnsError> {
    let mut r = WireReader::new(msg);
    r.seek(walk_name(msg, pos, |_| {})?)?;
    let qtype = RecordType::from_u16(r.read_u16("question type")?);
    let qclass = RecordClass::from_u16(r.read_u16("question class")?);
    let name = NameRef { msg, at: pos };
    Ok((
        QuestionRef {
            name,
            qtype,
            qclass,
        },
        r.position(),
    ))
}

/// Reads the one query shape the simulated proxy sends: a header with
/// QR clear, QDCOUNT 1 and empty record sections, then exactly one
/// uncompressed question and nothing after it. Returns the id, the
/// qtype and the question-section bytes; the qname's wire form is those
/// bytes less the last 4 (qtype and qclass).
///
/// On this shape the checks are the strict decoder's (label lengths
/// 1..=63, at most [`MAX_NAME_LEN`] bytes of name, label content
/// unrestricted, no trailing bytes), so a caller that falls back to
/// [`Message::decode`](crate::Message::decode) on `None` keeps every
/// accept and drop verdict.
#[inline]
pub fn canonical_question(b: &[u8]) -> Option<(u16, RecordType, &[u8])> {
    if b.len() < 12 || b[2] & 0x80 != 0 || b[4..12] != [0, 1, 0, 0, 0, 0, 0, 0] {
        return None;
    }
    let mut i = 12;
    loop {
        let l = *b.get(i)? as usize;
        i += 1;
        if l == 0 {
            break;
        }
        if l & 0xC0 != 0 {
            return None; // compression pointer or reserved label type
        }
        i += l;
    }
    if i - 12 > MAX_NAME_LEN || b.len() != i + 4 {
        return None;
    }
    Some((be16(b, 0), RecordType::from_u16(be16(b, i)), &b[12..]))
}

/// The offset just past the in-place bytes of the (validated) name at
/// `pos`.
fn skip_name(msg: &[u8], mut pos: usize) -> usize {
    loop {
        match msg[pos] {
            0 => return pos + 1,
            l if l & 0xC0 == 0xC0 => return pos + 2,
            l => pos += 1 + l as usize,
        }
    }
}

fn be16(msg: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([msg[at], msg[at + 1]])
}

fn be32(msg: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([msg[at], msg[at + 1], msg[at + 2], msg[at + 3]])
}

/// One question entry of a [`MessageView`].
#[derive(Debug, Clone, Copy)]
pub struct QuestionRef<'a> {
    name: NameRef<'a>,
    qtype: RecordType,
    qclass: RecordClass,
}

impl<'a> QuestionRef<'a> {
    /// The queried name.
    pub fn name(&self) -> NameRef<'a> {
        self.name
    }

    /// The queried record type.
    pub fn qtype(&self) -> RecordType {
        self.qtype
    }

    /// The queried class.
    pub fn qclass(&self) -> RecordClass {
        self.qclass
    }

    /// Materializes the question.
    pub fn to_question(&self) -> Question {
        Question::with_class(self.name.to_name(), self.qtype, self.qclass)
    }

    /// Encodes the question with name compression, exactly as
    /// [`Question::encode`] encodes [`to_question`](Self::to_question).
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter, table: &mut CompressionTable) -> Result<(), DnsError> {
        self.name.encode_compressed(w, table)?;
        w.write_u16(self.qtype.to_u16())?;
        w.write_u16(self.qclass.to_u16())
    }
}

/// The records of one section of a [`MessageView`], in wire order.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    msg: &'a [u8],
    pos: usize,
    left: u16,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        let r = RecordRef::read(self.msg, self.pos);
        self.pos = r.end();
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left.into(), Some(self.left.into()))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// One validated resource record, read in place.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    msg: &'a [u8],
    owner: usize,
    rtype: RecordType,
    class: RecordClass,
    ttl: u32,
    rdata: usize,
    rdlen: usize,
}

impl<'a> RecordRef<'a> {
    /// The record checks: validates the record at `pos` — owner name,
    /// fixed fields, RDATA length against the message, and the RDATA
    /// shape its type demands. [`Record::decode`] runs exactly these.
    pub(crate) fn scan(msg: &'a [u8], pos: usize) -> Result<Self, DnsError> {
        let mut r = WireReader::new(msg);
        r.seek(walk_name(msg, pos, |_| {})?)?;
        r.read_u16("record type")?;
        r.read_u16("record class")?;
        r.read_u32("record ttl")?;
        let rdlen = r.read_u16("record rdlength")? as usize;
        if r.remaining() < rdlen {
            return Err(DnsError::Truncated {
                context: "record rdata",
            });
        }
        let rec = RecordRef::read(msg, pos);
        rec.check_rdata()?;
        Ok(rec)
    }

    /// Reads the fixed fields of the record at `pos`, which [`scan`]
    /// has already validated.
    ///
    /// [`scan`]: Self::scan
    fn read(msg: &'a [u8], pos: usize) -> Self {
        let fixed = skip_name(msg, pos);
        RecordRef {
            msg,
            owner: pos,
            rtype: RecordType::from_u16(be16(msg, fixed)),
            class: RecordClass::from_u16(be16(msg, fixed + 2)),
            ttl: be32(msg, fixed + 4),
            rdata: fixed + 10,
            rdlen: be16(msg, fixed + 8).into(),
        }
    }

    /// RDATA checks by type. Names inside RDATA are walked from the
    /// RDATA offset and may run past RDLENGTH; the record still ends at
    /// the RDATA boundary.
    fn check_rdata(&self) -> Result<(), DnsError> {
        let (msg, at, rdlen) = (self.msg, self.rdata, self.rdlen);
        let bad = |detail| DnsError::BadRdata {
            rtype: self.rtype.to_u16(),
            detail,
        };
        let mut r = WireReader::new(msg);
        match self.rtype {
            RecordType::A if rdlen != 4 => return Err(bad("A rdata must be 4 bytes")),
            RecordType::Aaaa if rdlen != 16 => return Err(bad("AAAA rdata must be 16 bytes")),
            RecordType::Cname | RecordType::Ns | RecordType::Ptr => {
                walk_name(msg, at, |_| {})?;
            }
            RecordType::Mx => {
                r.seek(at)?;
                r.read_u16("MX preference")?;
                walk_name(msg, r.position(), |_| {})?;
            }
            RecordType::Txt => {
                let end = at + rdlen;
                let mut pos = at;
                while pos < end {
                    pos += 1 + msg[pos] as usize;
                    if pos > end {
                        return Err(bad("txt string overruns rdata"));
                    }
                }
            }
            RecordType::Soa => {
                let rname = walk_name(msg, at, |_| {})?;
                r.seek(walk_name(msg, rname, |_| {})?)?;
                for context in [
                    "SOA serial",
                    "SOA refresh",
                    "SOA retry",
                    "SOA expire",
                    "SOA minimum",
                ] {
                    r.read_u32(context)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The offset just past this record.
    pub fn end(&self) -> usize {
        self.rdata + self.rdlen
    }

    /// The owner name.
    pub fn owner(&self) -> NameRef<'a> {
        NameRef {
            msg: self.msg,
            at: self.owner,
        }
    }

    /// Offset of the owner name in the message.
    pub fn owner_offset(&self) -> usize {
        self.owner
    }

    /// Offset of the RDATA in the message.
    pub fn rdata_offset(&self) -> usize {
        self.rdata
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

    /// The address of an A record.
    pub fn a(&self) -> Option<Ipv4Addr> {
        (self.rtype == RecordType::A).then(|| be32(self.msg, self.rdata).into())
    }

    /// The target of a CNAME, NS or PTR record.
    pub fn target(&self) -> Option<NameRef<'a>> {
        matches!(
            self.rtype,
            RecordType::Cname | RecordType::Ns | RecordType::Ptr
        )
        .then_some(NameRef {
            msg: self.msg,
            at: self.rdata,
        })
    }

    /// Encodes the record with name compression, exactly as
    /// [`Record::encode`] encodes [`to_record`](Self::to_record): names
    /// are re-encoded against `table`, other RDATA is copied as it
    /// stands.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter, table: &mut CompressionTable) -> Result<(), DnsError> {
        self.owner().encode_compressed(w, table)?;
        w.write_u16(self.rtype.to_u16())?;
        w.write_u16(self.class.to_u16())?;
        w.write_u32(self.ttl)?;
        let len_at = w.len();
        w.write_u16(0)?;
        let start = w.len();
        let (msg, at) = (self.msg, self.rdata);
        let name_at = |at| NameRef { msg, at };
        match self.rtype {
            RecordType::Cname | RecordType::Ns | RecordType::Ptr => {
                name_at(at).encode_compressed(w, table)?;
            }
            RecordType::Mx => {
                w.write_bytes(&msg[at..at + 2])?;
                name_at(at + 2).encode_compressed(w, table)?;
            }
            RecordType::Soa => {
                let rname = skip_name(msg, at);
                let fixed = skip_name(msg, rname);
                name_at(at).encode_compressed(w, table)?;
                name_at(rname).encode_compressed(w, table)?;
                w.write_bytes(&msg[fixed..fixed + 20])?;
            }
            // A, AAAA, TXT (whose strings tile the RDATA exactly) and
            // opaque types.
            _ => w.write_bytes(&msg[at..self.end()])?,
        }
        let rdlen = w.len() - start;
        w.patch_u16(len_at, rdlen as u16);
        Ok(())
    }

    /// Materializes the record — equal to what
    /// [`Record::decode`] returns for it.
    pub fn to_record(&self) -> Record {
        let (msg, at) = (self.msg, self.rdata);
        let name_at = |at| NameRef { msg, at }.to_name();
        let data = match self.rtype {
            RecordType::A => RecordData::A(be32(msg, at).into()),
            RecordType::Aaaa => {
                let mut oct = [0u8; 16];
                oct.copy_from_slice(&msg[at..at + 16]);
                RecordData::Aaaa(Ipv6Addr::from(oct))
            }
            RecordType::Cname => RecordData::Cname(name_at(at)),
            RecordType::Ns => RecordData::Ns(name_at(at)),
            RecordType::Ptr => RecordData::Ptr(name_at(at)),
            RecordType::Mx => RecordData::Mx {
                preference: be16(msg, at),
                exchange: name_at(at + 2),
            },
            RecordType::Txt => {
                let mut strings = Vec::new();
                let mut pos = at;
                while pos < self.end() {
                    let len = msg[pos] as usize;
                    strings.push(msg[pos + 1..pos + 1 + len].to_vec());
                    pos += 1 + len;
                }
                RecordData::Txt(strings)
            }
            RecordType::Soa => {
                let rname = skip_name(msg, at);
                let fixed = skip_name(msg, rname);
                RecordData::Soa {
                    mname: name_at(at),
                    rname: name_at(rname),
                    serial: be32(msg, fixed),
                    refresh: be32(msg, fixed + 4),
                    retry: be32(msg, fixed + 8),
                    expire: be32(msg, fixed + 12),
                    minimum: be32(msg, fixed + 16),
                }
            }
            RecordType::Other(_) => RecordData::Opaque(msg[at..self.end()].to_vec()),
        };
        Record::with_parts(
            self.owner().to_name(),
            self.rtype,
            self.class,
            self.ttl,
            data,
        )
    }
}

/// A validated (possibly compressed) name inside a [`MessageView`].
#[derive(Debug, Clone, Copy)]
pub struct NameRef<'a> {
    msg: &'a [u8],
    at: usize,
}

impl<'a> NameRef<'a> {
    /// The labels, most-specific first, with pointers followed.
    pub fn labels(&self) -> Labels<'a> {
        Labels {
            msg: self.msg,
            pos: self.at,
        }
    }

    /// Case-insensitive equality with a [`Name`] (RFC 1035 §2.3.3).
    pub fn eq_name(&self, name: &Name) -> bool {
        let mut mine = self.labels();
        name.labels().iter().all(|l| {
            mine.next()
                .is_some_and(|m| m.eq_ignore_ascii_case(l.as_bytes()))
        }) && mine.next().is_none()
    }

    /// Case-insensitive equality with another wire name, in this
    /// message or another.
    pub fn eq_ignore_case(&self, other: &NameRef<'_>) -> bool {
        let mut theirs = other.labels();
        self.labels()
            .all(|l| theirs.next().is_some_and(|t| t.eq_ignore_ascii_case(l)))
            && theirs.next().is_none()
    }

    /// Materializes the name.
    pub fn to_name(&self) -> Name {
        Name::from_validated(self.labels().map(Label::from_checked).collect())
    }

    /// [`Name::folded_key`] of this name, written without materializing
    /// it. A validated name always fits, so this never returns `None`
    /// in practice.
    pub fn folded_key<'b>(
        &self,
        rtype: RecordType,
        buf: &'b mut [u8; FOLDED_KEY_LEN],
    ) -> Option<&'b [u8]> {
        fold_key(self.labels(), rtype, buf)
    }

    /// Encodes the name with compression, exactly as
    /// [`Name::encode_compressed`] encodes [`to_name`](Self::to_name).
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_compressed(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError> {
        // Each label's length-byte offset; a validated name has at most
        // `MAX_LABELS` labels.
        let mut starts = [0u32; MAX_LABELS];
        let mut n = 0;
        let mut labels = self.labels();
        while let Some(at) = labels.next_start() {
            starts[n] = at as u32;
            n += 1;
        }
        let msg = self.msg;
        let label = |i: usize| {
            let at = starts[i] as usize;
            &msg[at + 1..at + 1 + usize::from(msg[at])]
        };
        encode_labels_compressed(n, label, w, table)
    }
}

/// Displays byte for byte like the materialized [`Name`].
impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels(), f)
    }
}

/// The labels of a [`NameRef`], pointers followed.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl Labels<'_> {
    /// The offset of the next label's length byte.
    fn next_start(&mut self) -> Option<usize> {
        loop {
            let len = *self.msg.get(self.pos)? as usize;
            if len == 0 {
                return None;
            }
            if len & 0xC0 == 0xC0 {
                // Validated pointers point strictly backward.
                self.pos = (len & 0x3F) << 8 | *self.msg.get(self.pos + 1)? as usize;
                continue;
            }
            let start = self.pos;
            self.pos += 1 + len;
            return Some(start);
        }
    }
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let at = self.next_start()?;
        self.msg.get(at + 1..self.pos)
    }
}
