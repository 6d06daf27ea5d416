//! The proxy's "header gate": the plausibility checks a response must
//! pass before Connman's `parse_response` ever runs.
//!
//! The paper emphasises that "the DNS responses must appear legitimate,
//! otherwise Connman dumps the packet as a bad response and never enters
//! the vulnerable portion of code". This module reproduces those checks as
//! a standalone, reusable function so both the simulated proxy and tests
//! agree on exactly which packets reach the vulnerable path.

use std::error::Error;
use std::fmt;

use crate::header::{Header, Opcode, Rcode};
use crate::view::read_question;
use crate::wire::WireReader;
use crate::DnsError;

/// Why a response was dropped before reaching the vulnerable parser.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResponseRejection {
    /// The packet was too short to carry a header, or the header itself
    /// was malformed.
    BadHeader(DnsError),
    /// The QR bit says this is a query, not a response.
    NotAResponse,
    /// The transaction id does not match the outstanding query.
    IdMismatch {
        /// Id the proxy is waiting for.
        expected: u16,
        /// Id found in the packet.
        found: u16,
    },
    /// The opcode is not a standard query.
    BadOpcode(Opcode),
    /// The response carries an error rcode; the proxy forwards it to the
    /// client but never caches (and so never decompresses) the answers.
    ErrorRcode(Rcode),
    /// The question section does not echo the query.
    QuestionMismatch,
    /// The response carries no answers to cache.
    NoAnswers,
    /// The question section itself failed to parse.
    BadQuestion(DnsError),
}

impl fmt::Display for ResponseRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseRejection::BadHeader(e) => write!(f, "bad header: {e}"),
            ResponseRejection::NotAResponse => write!(f, "qr bit not set"),
            ResponseRejection::IdMismatch { expected, found } => {
                write!(f, "id {found:#06x} does not match query {expected:#06x}")
            }
            ResponseRejection::BadOpcode(op) => write!(f, "unexpected opcode {op:?}"),
            ResponseRejection::ErrorRcode(rc) => write!(f, "error rcode {rc}"),
            ResponseRejection::QuestionMismatch => write!(f, "question does not echo query"),
            ResponseRejection::NoAnswers => write!(f, "no answers present"),
            ResponseRejection::BadQuestion(e) => write!(f, "bad question: {e}"),
        }
    }
}

impl Error for ResponseRejection {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ResponseRejection::BadHeader(e) | ResponseRejection::BadQuestion(e) => Some(e),
            _ => None,
        }
    }
}

/// Result of a successful gate check: the parsed header and the offset at
/// which the answer section begins (where the vulnerable decompression
/// starts reading).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateReport {
    /// The decoded header.
    pub header: Header,
    /// Byte offset of the first answer record.
    pub answers_offset: usize,
}

/// Applies the proxy's pre-parse plausibility checks to raw response
/// bytes, without touching the answer section. `query` is the
/// outstanding query's wire bytes, as the proxy sent them.
///
/// On success the caller knows the packet *looks* legitimate and may hand
/// its answer section to the (possibly vulnerable) record parser.
///
/// # Errors
///
/// Returns the first [`ResponseRejection`] encountered, mirroring the
/// order of checks in `dnsproxy.c`. A `query` that is not a well-formed
/// header and question section is echoed by nothing: its responses are
/// [`ResponseRejection::QuestionMismatch`]es.
pub fn gate_response(query: &[u8], bytes: &[u8]) -> Result<GateReport, ResponseRejection> {
    let header =
        Header::decode(&mut WireReader::new(bytes)).map_err(ResponseRejection::BadHeader)?;
    if !header.response {
        return Err(ResponseRejection::NotAResponse);
    }
    let asked = Header::decode(&mut WireReader::new(query))
        .map_err(|_| ResponseRejection::QuestionMismatch)?;
    if header.id != asked.id {
        return Err(ResponseRejection::IdMismatch {
            expected: asked.id,
            found: header.id,
        });
    }
    if header.opcode != Opcode::Query {
        return Err(ResponseRejection::BadOpcode(header.opcode));
    }
    if header.rcode != Rcode::NoError {
        return Err(ResponseRejection::ErrorRcode(header.rcode));
    }
    if header.qdcount != asked.qdcount {
        return Err(ResponseRejection::QuestionMismatch);
    }
    // Each echoed question is read in place and compared with the
    // query's wire question, case-insensitively: nothing is
    // materialized.
    let (mut pos, mut asked_pos) = (Header::WIRE_LEN, Header::WIRE_LEN);
    for _ in 0..asked.qdcount {
        let (q, end) = read_question(bytes, pos).map_err(ResponseRejection::BadQuestion)?;
        let (expected, asked_end) =
            read_question(query, asked_pos).map_err(|_| ResponseRejection::QuestionMismatch)?;
        if !q.name().eq_ignore_case(&expected.name())
            || q.qtype() != expected.qtype()
            || q.qclass() != expected.qclass()
        {
            return Err(ResponseRejection::QuestionMismatch);
        }
        (pos, asked_pos) = (end, asked_end);
    }
    if header.ancount == 0 {
        return Err(ResponseRejection::NoAnswers);
    }
    Ok(GateReport {
        header,
        answers_offset: pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forge::ResponseForge;
    use crate::message::Message;
    use crate::name::Name;
    use crate::question::Question;
    use crate::record::RecordType;

    fn query() -> Message {
        Message::query(
            0x1111,
            Question::new(Name::parse("ntp.pool.example").unwrap(), RecordType::A),
        )
    }

    fn forged(q: &Message) -> Vec<u8> {
        ResponseForge::answering(q)
            .with_chunked_payload(&[0x90; 1200])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn forged_overflow_passes_the_gate() {
        let q = query();
        let report = gate_response(&q.encode().unwrap(), &forged(&q)).unwrap();
        assert_eq!(report.header.ancount, 1);
        // header + name(18) + type + class = 12 + 18 + 4
        assert_eq!(
            report.answers_offset,
            12 + q.questions()[0].qname().wire_len() + 4
        );
    }

    #[test]
    fn id_mismatch_rejected() {
        let q = query();
        let other = Message::query(0x2222, q.questions()[0].clone());
        let bytes = forged(&other);
        assert_eq!(
            gate_response(&q.encode().unwrap(), &bytes),
            Err(ResponseRejection::IdMismatch {
                expected: 0x1111,
                found: 0x2222
            })
        );
    }

    #[test]
    fn query_bit_rejected() {
        let q = query();
        let bytes = q.encode().unwrap();
        assert_eq!(
            gate_response(&q.encode().unwrap(), &bytes),
            Err(ResponseRejection::NotAResponse)
        );
    }

    #[test]
    fn question_mismatch_rejected() {
        let q = query();
        let other = Message::query(
            0x1111,
            Question::new(Name::parse("other.example").unwrap(), RecordType::A),
        );
        let bytes = forged(&other);
        assert_eq!(
            gate_response(&q.encode().unwrap(), &bytes),
            Err(ResponseRejection::QuestionMismatch)
        );
    }

    #[test]
    fn error_rcode_rejected() {
        let q = query();
        let mut bytes = forged(&q);
        bytes[3] |= 0x03; // NXDOMAIN
        assert_eq!(
            gate_response(&q.encode().unwrap(), &bytes),
            Err(ResponseRejection::ErrorRcode(Rcode::NxDomain))
        );
    }

    #[test]
    fn no_answers_rejected() {
        let q = query();
        let resp = Message::response_to(&q);
        let bytes = resp.encode().unwrap();
        assert_eq!(
            gate_response(&q.encode().unwrap(), &bytes),
            Err(ResponseRejection::NoAnswers)
        );
    }

    #[test]
    fn short_packet_rejected() {
        let q = query();
        assert!(matches!(
            gate_response(&q.encode().unwrap(), &[0u8; 4]),
            Err(ResponseRejection::BadHeader(_))
        ));
    }

    #[test]
    fn case_insensitive_question_echo_accepted() {
        let q = query();
        let upper = Message::query(
            0x1111,
            Question::new(Name::parse("NTP.Pool.Example").unwrap(), RecordType::A),
        );
        let bytes = forged(&upper);
        assert!(gate_response(&q.encode().unwrap(), &bytes).is_ok());
    }
}
