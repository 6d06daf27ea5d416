//! Whole-message assembly and parsing.

use std::fmt;

use crate::header::{Header, Rcode};
use crate::name::{CompressionTable, Name, MAX_NAME_LEN};
use crate::question::Question;
use crate::record::{Record, RecordClass, RecordType};
use crate::view::{MessageView, RecordRef};
use crate::wire::{WireBuf, WireWriter};
use crate::DnsError;

/// The longest query [`Message::write_query`] writes: the header, a
/// [`MAX_NAME_LEN`]-byte name, the qtype and the qclass.
pub const MAX_QUERY_LEN: usize = Header::WIRE_LEN + MAX_NAME_LEN + 4;

/// A complete DNS message: header plus the four sections.
///
/// Construction goes through [`Message::query`] / [`Message::response_to`]
/// and the `push_*` methods, which keep the header counts consistent with
/// the section contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    header: Header,
    questions: Vec<Question>,
    answers: Vec<Record>,
    authorities: Vec<Record>,
    additionals: Vec<Record>,
}

impl Message {
    /// Creates a standard recursive query with one question.
    pub fn query(id: u16, question: Question) -> Self {
        let mut m = Message {
            header: Header {
                id,
                ..Header::default()
            },
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        m.push_question(question);
        m
    }

    /// Creates an empty response echoing `query`'s id and question
    /// section, with the QR and RA bits set — the shape Connman's checks
    /// expect before it will parse answers.
    pub fn response_to(query: &Message) -> Self {
        let mut m = Message {
            header: Header {
                id: query.header.id,
                response: true,
                recursion_desired: query.header.recursion_desired,
                recursion_available: true,
                ..Header::default()
            },
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        for q in &query.questions {
            m.push_question(q.clone());
        }
        m
    }

    /// Writes the wire bytes of `Message::query(id, Question::new(name,
    /// qtype)).encode()` into `out` without building the message, and
    /// returns their length. A name is at most [`MAX_NAME_LEN`] bytes on
    /// the wire, so the query always fits; nothing is allocated.
    pub fn write_query(
        id: u16,
        name: &Name,
        qtype: RecordType,
        out: &mut [u8; MAX_QUERY_LEN],
    ) -> usize {
        out[..2].copy_from_slice(&id.to_be_bytes());
        out[2..4].copy_from_slice(&Header::default().flags_word().to_be_bytes());
        out[4..12].copy_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]);
        let mut at = Header::WIRE_LEN;
        for label in name.labels() {
            out[at] = label.len() as u8;
            out[at + 1..at + 1 + label.len()].copy_from_slice(label.as_bytes());
            at += 1 + label.len();
        }
        out[at] = 0;
        out[at + 1..at + 3].copy_from_slice(&qtype.to_u16().to_be_bytes());
        out[at + 3..at + 5].copy_from_slice(&RecordClass::In.to_u16().to_be_bytes());
        at + 5
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.header.id
    }

    /// The header (counts always reflect the sections).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Whether the QR bit marks this as a response.
    pub fn is_response(&self) -> bool {
        self.header.response
    }

    /// Sets the response code.
    pub fn set_rcode(&mut self, rcode: Rcode) {
        self.header.rcode = rcode;
    }

    /// Question section.
    pub fn questions(&self) -> &[Question] {
        &self.questions
    }

    /// Answer section.
    pub fn answers(&self) -> &[Record] {
        &self.answers
    }

    /// Authority section.
    pub fn authorities(&self) -> &[Record] {
        &self.authorities
    }

    /// Additional section.
    pub fn additionals(&self) -> &[Record] {
        &self.additionals
    }

    /// Appends a question, updating QDCOUNT.
    pub fn push_question(&mut self, q: Question) {
        self.questions.push(q);
        self.header.qdcount = self.questions.len() as u16;
    }

    /// Appends an answer record, updating ANCOUNT.
    pub fn push_answer(&mut self, r: Record) {
        self.answers.push(r);
        self.header.ancount = self.answers.len() as u16;
    }

    /// Appends an authority record, updating NSCOUNT.
    pub fn push_authority(&mut self, r: Record) {
        self.authorities.push(r);
        self.header.nscount = self.authorities.len() as u16;
    }

    /// Appends an additional record, updating ARCOUNT.
    pub fn push_additional(&mut self, r: Record) {
        self.additionals.push(r);
        self.header.arcount = self.additionals.len() as u16;
    }

    /// Encodes the message with name compression and no size ceiling.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if any component fails to encode.
    pub fn encode(&self) -> Result<Vec<u8>, DnsError> {
        self.encode_with(WireWriter::new())
    }

    /// Encodes with a size ceiling (e.g. [`crate::MAX_UDP_MESSAGE`]).
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling is exceeded.
    pub fn encode_with_limit(&self, limit: usize) -> Result<Vec<u8>, DnsError> {
        self.encode_with(WireWriter::with_limit(limit))
    }

    /// [`encode`](Self::encode) into a reusable buffer: `out`'s
    /// contents are replaced, its capacity is kept, and a warm buffer
    /// makes the whole encode allocation-free. Name compression stays
    /// off the heap for up to 32 distinct suffixes (see
    /// [`CompressionTable`]).
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if any component fails to encode.
    pub fn encode_into(&self, out: &mut WireBuf) -> Result<(), DnsError> {
        let w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
        *out.as_mut_vec() = self.encode_with(w)?;
        Ok(())
    }

    fn encode_with(&self, mut w: WireWriter) -> Result<Vec<u8>, DnsError> {
        let mut table = CompressionTable::new();
        self.header.encode(&mut w)?;
        for q in &self.questions {
            q.encode(&mut w, &mut table)?;
        }
        for r in &self.answers {
            r.encode(&mut w, &mut table)?;
        }
        for r in &self.authorities {
            r.encode(&mut w, &mut table)?;
        }
        for r in &self.additionals {
            r.encode(&mut w, &mut table)?;
        }
        Ok(w.into_bytes())
    }

    /// Decodes a complete message, rejecting trailing bytes: the
    /// [`MessageView`] checks, then every entry materialized.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, DnsError> {
        let view = MessageView::parse(bytes)?;
        Ok(Message {
            header: *view.header(),
            questions: view.questions().map(|q| q.to_question()).collect(),
            answers: view.answers().map(|r| r.to_record()).collect(),
            authorities: view.authorities().map(|r| r.to_record()).collect(),
            additionals: view.additionals().map(|r| r.to_record()).collect(),
        })
    }
}

/// A record a [`ResponseEncoder`] appends: an owned [`Record`], or a
/// [`RecordRef`] read off another message, which encodes to the same
/// bytes as the record it would materialize.
pub trait EncodeRecord {
    /// Encodes the record, sharing name compression state.
    ///
    /// # Errors
    ///
    /// Propagates encode errors.
    fn encode_record(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError>;
}

impl EncodeRecord for Record {
    fn encode_record(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError> {
        self.encode(w, table)
    }
}

impl EncodeRecord for RecordRef<'_> {
    fn encode_record(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError> {
        self.encode(w, table)
    }
}

/// Encodes a response to a viewed query straight into a pooled buffer,
/// one borrowed record at a time, without building a [`Message`]. The
/// bytes are those of [`Message::response_to`] on the decoded query,
/// the same records pushed, a response code set and
/// [`Message::encode_into`]: the id, RD bit and every question are
/// echoed, QR and RA are set, names share one compression table.
///
/// Records must arrive in section order: answers, then authorities,
/// then additionals.
#[derive(Debug)]
pub struct ResponseEncoder {
    w: WireWriter,
    table: CompressionTable,
    counts: [u16; 3],
}

impl ResponseEncoder {
    /// Starts the response in `out`'s storage (its capacity is kept):
    /// writes the header and echoes the question section.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn new(out: &mut WireBuf, query: &MessageView<'_>, rcode: Rcode) -> Result<Self, DnsError> {
        let header = Header {
            id: query.id(),
            response: true,
            recursion_desired: query.header().recursion_desired,
            recursion_available: true,
            rcode,
            qdcount: query.header().qdcount,
            ..Header::default()
        };
        let mut w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
        let mut table = CompressionTable::new();
        header.encode(&mut w)?;
        for q in query.questions() {
            q.encode(&mut w, &mut table)?;
        }
        Ok(ResponseEncoder {
            w,
            table,
            counts: [0; 3],
        })
    }

    /// Appends an answer record.
    ///
    /// # Errors
    ///
    /// Propagates record encode errors.
    pub fn answer(&mut self, r: &impl EncodeRecord) -> Result<(), DnsError> {
        self.push(0, r)
    }

    /// Appends an authority record.
    ///
    /// # Errors
    ///
    /// Propagates record encode errors.
    pub fn authority(&mut self, r: &impl EncodeRecord) -> Result<(), DnsError> {
        self.push(1, r)
    }

    /// Appends an additional record.
    ///
    /// # Errors
    ///
    /// Propagates record encode errors.
    pub fn additional(&mut self, r: &impl EncodeRecord) -> Result<(), DnsError> {
        self.push(2, r)
    }

    fn push(&mut self, section: usize, r: &impl EncodeRecord) -> Result<(), DnsError> {
        r.encode_record(&mut self.w, &mut self.table)?;
        self.counts[section] = self.counts[section].wrapping_add(1);
        Ok(())
    }

    /// Patches the section counts and hands the bytes back to `out`.
    pub fn finish(mut self, out: &mut WireBuf) {
        for (i, &count) in self.counts.iter().enumerate() {
            self.w.patch_u16(6 + 2 * i, count);
        }
        *out.as_mut_vec() = self.w.into_bytes();
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} qd={} an={} ns={} ar={}",
            self.header.id,
            if self.header.response {
                "response"
            } else {
                "query"
            },
            self.header.rcode,
            self.header.qdcount,
            self.header.ancount,
            self.header.nscount,
            self.header.arcount
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for r in &self.answers {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::record::{RecordData, RecordType};
    use std::net::Ipv4Addr;

    fn sample_query() -> Message {
        Message::query(
            0xABCD,
            Question::new(Name::parse("www.example.com").unwrap(), RecordType::A),
        )
    }

    #[test]
    fn query_roundtrip() {
        let q = sample_query();
        let bytes = q.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, q);
        assert!(!back.is_response());
    }

    #[test]
    fn response_echoes_question_and_id() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        resp.push_answer(Record::new(
            Name::parse("www.example.com").unwrap(),
            120,
            RecordData::A(Ipv4Addr::new(93, 184, 216, 34)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.id(), 0xABCD);
        assert!(back.is_response());
        assert_eq!(back.questions(), q.questions());
        assert_eq!(back.answers().len(), 1);
        assert_eq!(back.header().ancount, 1);
    }

    #[test]
    fn counts_track_sections() {
        let mut m = sample_query();
        m.push_answer(Record::new(
            Name::parse("a").unwrap(),
            0,
            RecordData::A(Ipv4Addr::UNSPECIFIED),
        ));
        m.push_authority(Record::new(
            Name::parse("b").unwrap(),
            0,
            RecordData::Ns(Name::parse("ns.b").unwrap()),
        ));
        m.push_additional(Record::new(
            Name::parse("c").unwrap(),
            0,
            RecordData::A(Ipv4Addr::LOCALHOST),
        ));
        let h = m.header();
        assert_eq!((h.qdcount, h.ancount, h.nscount, h.arcount), (1, 1, 1, 1));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_query().encode().unwrap();
        bytes.push(0xFF);
        assert_eq!(Message::decode(&bytes), Err(DnsError::TrailingBytes(1)));
    }

    #[test]
    fn count_mismatch_reported_per_section() {
        let mut m = sample_query();
        m.push_answer(Record::new(
            Name::parse("a").unwrap(),
            0,
            RecordData::A(Ipv4Addr::UNSPECIFIED),
        ));
        let mut bytes = m.encode().unwrap();
        // Claim two answers but provide one.
        bytes[7] = 2;
        assert_eq!(
            Message::decode(&bytes),
            Err(DnsError::CountMismatch { section: "answer" })
        );
    }

    #[test]
    fn udp_limit_enforced() {
        let mut m = sample_query();
        for i in 0..60 {
            m.push_answer(Record::new(
                Name::parse(&format!("host-{i}.example.com")).unwrap(),
                300,
                RecordData::A(Ipv4Addr::new(10, 0, 0, i as u8)),
            ));
        }
        assert!(matches!(
            m.encode_with_limit(crate::MAX_UDP_MESSAGE),
            Err(DnsError::MessageTooLarge { .. })
        ));
        assert!(m.encode().is_ok());
    }

    #[test]
    fn compression_round_trips_shared_names() {
        let q = sample_query();
        let mut resp = Message::response_to(&q);
        for i in 0..4 {
            resp.push_answer(Record::new(
                Name::parse("www.example.com").unwrap(),
                60 + i,
                RecordData::A(Ipv4Addr::new(1, 1, 1, i as u8)),
            ));
        }
        let bytes = resp.encode().unwrap();
        // All four answer owner names should be 2-byte pointers; a naive
        // encoding would repeat 17 bytes each.
        assert!(bytes.len() < 12 + 21 + 4 * (2 + 10 + 4) + 8);
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back.answers().len(), 4);
        assert_eq!(back.answers()[2].name().to_string(), "www.example.com");
    }
}
