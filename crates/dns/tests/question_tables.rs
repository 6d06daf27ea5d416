//! Table tests for the two readers of a wire question section: the
//! proxy's header gate, which checks a response's echoed question
//! against the outstanding query's wire bytes, and the canonical-query
//! reader, which recognises the one query shape the proxy sends.

use cml_dns::forge::ResponseForge;
use cml_dns::validate::{gate_response, GateReport, ResponseRejection};
use cml_dns::{
    canonical_question, DnsError, Message, Name, Question, RecordClass, RecordType, WireWriter,
};

const ID: u16 = 0x1111;
const QNAME: &str = "ntp.pool.example";
/// Wire length of [`QNAME`]: `3ntp4pool7example0`.
const QNAME_WIRE: usize = 18;
/// Offset of the echoed qtype in a forged response to [`query`].
const QTYPE_AT: usize = 12 + QNAME_WIRE;

fn query_for(name: &str, qtype: RecordType, qclass: RecordClass) -> Message {
    let q = Question::with_class(Name::parse(name).unwrap(), qtype, qclass);
    Message::query(ID, q)
}

fn query() -> Message {
    query_for(QNAME, RecordType::A, RecordClass::In)
}

/// A forged response to `q`, as the attacker's server builds it.
fn forged(q: &Message) -> Vec<u8> {
    ResponseForge::answering(q)
        .with_payload_labels(vec![b"pay".to_vec(), b"load".to_vec()])
        .unwrap()
        .build()
        .unwrap()
}

/// The gate against [`query`]'s wire bytes, as the proxy holds them.
fn gate(bytes: &[u8]) -> Result<GateReport, ResponseRejection> {
    gate_response(&query().encode().unwrap(), bytes)
}

#[test]
fn gate_verdicts_on_echoed_questions() {
    let good = forged(&query());
    let pass = gate(&good).expect("the exact echo passes");
    assert_eq!(pass.answers_offset, QTYPE_AT + 4);

    let mut forward = good.clone();
    forward[12..14].copy_from_slice(&[0xC0, 40]);
    let mut qdcount2 = good.clone();
    qdcount2[5] = 2;
    let qdcount0 = ResponseForge::for_id(ID)
        .with_payload_labels(vec![b"pay".to_vec()])
        .unwrap()
        .build()
        .unwrap();

    let bad_question = |e| Err(ResponseRejection::BadQuestion(e));
    let table: [(&str, Vec<u8>, Result<GateReport, ResponseRejection>); 9] = [
        (
            "qname cut mid-label",
            good[..14].to_vec(),
            bad_question(DnsError::Truncated {
                context: "label bytes",
            }),
        ),
        (
            "qtype cut after one byte",
            good[..QTYPE_AT + 1].to_vec(),
            bad_question(DnsError::Truncated {
                context: "question type",
            }),
        ),
        (
            "forward pointer as the qname",
            forward,
            bad_question(DnsError::ForwardPointer { target: 40, at: 12 }),
        ),
        (
            "qtype AAAA",
            forged(&query_for(QNAME, RecordType::Aaaa, RecordClass::In)),
            Err(ResponseRejection::QuestionMismatch),
        ),
        (
            "class CH",
            forged(&query_for(QNAME, RecordType::A, RecordClass::Ch)),
            Err(ResponseRejection::QuestionMismatch),
        ),
        (
            "extra label",
            forged(&query_for(
                "x.ntp.pool.example",
                RecordType::A,
                RecordClass::In,
            )),
            Err(ResponseRejection::QuestionMismatch),
        ),
        (
            "qdcount 0",
            qdcount0,
            Err(ResponseRejection::QuestionMismatch),
        ),
        (
            "qdcount 2",
            qdcount2,
            Err(ResponseRejection::QuestionMismatch),
        ),
        (
            "case-flipped echo",
            forged(&query_for(
                "NTP.Pool.EXAMPLE",
                RecordType::A,
                RecordClass::In,
            )),
            Ok(pass),
        ),
    ];
    for (case, bytes, want) in table {
        assert_eq!(gate(&bytes), want, "{case}");
    }
}

/// A query's wire bytes: the 12-byte header with the given flags byte
/// and counts, then `name` (wire form) as qtype A, class IN.
fn raw_query(flags: u8, counts: [u16; 4], name: &[u8]) -> Vec<u8> {
    let mut b = vec![0x12, 0x34, flags, 0];
    for c in counts {
        b.extend_from_slice(&c.to_be_bytes());
    }
    b.extend_from_slice(name);
    b.extend_from_slice(&[0, 1, 0, 1]);
    b
}

/// A name's wire form: 63-byte labels of `x`, then one `last`-byte
/// label, then the root byte.
fn long_name(full: usize, last: usize) -> Vec<u8> {
    let mut w = Vec::new();
    for len in std::iter::repeat_n(63, full).chain([last]) {
        w.push(len as u8);
        w.resize(w.len() + len, b'x');
    }
    w.push(0);
    w
}

#[test]
fn canonical_question_table() {
    const ONE: [u16; 4] = [1, 0, 0, 0];
    let qname = b"\x03ntp\x04pool\x07example\x00";
    let plain = raw_query(0, ONE, qname);
    let name255 = long_name(3, 61);
    let name256 = long_name(3, 62);
    assert_eq!((name255.len(), name256.len()), (255, 256));

    let mut upper = plain.clone();
    upper[12..].make_ascii_uppercase();
    for (case, bytes, name) in [
        ("plain", plain.clone(), &qname[..]),
        ("255-byte name", raw_query(0, ONE, &name255), &name255[..]),
        ("RD set", raw_query(0x01, ONE, qname), &qname[..]),
        (
            "upper-cased qname",
            upper.clone(),
            &upper[12..upper.len() - 4],
        ),
    ] {
        let (id, qtype, question) = canonical_question(&bytes).expect(case);
        assert_eq!((id, qtype), (0x1234, RecordType::A), "{case}");
        assert_eq!(question, &bytes[12..], "{case}");
        assert_eq!(&question[..question.len() - 4], name, "{case}");
        // The strict decoder accepts it too, and re-encodes the
        // question uncompressed to exactly these bytes.
        let decoded = Message::decode(&bytes).expect(case);
        let q = &decoded.questions()[0];
        let mut w = WireWriter::new();
        q.qname().encode_uncompressed(&mut w).unwrap();
        w.write_u16(q.qtype().to_u16()).unwrap();
        w.write_u16(q.qclass().to_u16()).unwrap();
        assert_eq!(w.as_bytes(), question, "{case}");
    }

    let label_type = |b: u8| {
        let mut q = plain.clone();
        q[12] = b;
        q
    };
    let mut trailing = plain.clone();
    trailing.push(0);
    for (case, bytes) in [
        ("256-byte name", raw_query(0, ONE, &name256)),
        ("pointer label byte 0xC0", label_type(0xC0)),
        ("reserved label byte 0x40", label_type(0x40)),
        ("reserved label byte 0x80", label_type(0x80)),
        ("QR set", raw_query(0x80, ONE, qname)),
        ("qdcount 0", raw_query(0, [0, 0, 0, 0], qname)),
        ("qdcount 2", raw_query(0, [2, 0, 0, 0], qname)),
        ("ancount 1", raw_query(0, [1, 1, 0, 0], qname)),
        ("trailing byte", trailing),
        ("cut mid-name", plain[..16].to_vec()),
        ("cut mid-qtype", plain[..12 + qname.len() + 1].to_vec()),
        ("11 bytes", plain[..11].to_vec()),
    ] {
        assert_eq!(canonical_question(&bytes), None, "{case}");
    }
}
