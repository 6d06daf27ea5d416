//! Differential tests of the two name kernels against the algorithms
//! they replaced, which live on here only as oracles:
//!
//! * suffix compression through a `HashMap<Name, u16>` of every suffix
//!   written so far, checked byte for byte against `Message::encode`
//!   and every `encode_with_limit` cut-off;
//! * the `to_string().to_ascii_lowercase()` table key, checked for the
//!   same equality as `Name::folded_key`.

use std::collections::HashMap;

use cml_dns::{
    CompressionTable, DnsError, Label, Message, Name, Question, Record, RecordData, RecordType,
    WireWriter, FOLDED_KEY_LEN, MAX_NAME_LEN,
};

/// xorshift64*: a fixed-seed stream, so a failure replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

// ---- the replaced compression algorithm ----

fn oracle_name(
    name: &Name,
    w: &mut WireWriter,
    offsets: &mut HashMap<Name, u16>,
) -> Result<(), DnsError> {
    let mut suffix = name.clone();
    loop {
        if suffix.is_root() {
            return w.write_u8(0);
        }
        if let Some(&off) = offsets.get(&suffix) {
            return w.write_u16(0xC000 | off);
        }
        let here = w.len();
        if here <= 0x3FFF {
            offsets.insert(suffix.clone(), here as u16);
        }
        let label = &suffix.labels()[0];
        w.write_u8(label.len() as u8)?;
        w.write_bytes(label.as_bytes())?;
        suffix = suffix.parent().expect("non-root name has a parent");
    }
}

fn oracle_record(
    r: &Record,
    w: &mut WireWriter,
    offsets: &mut HashMap<Name, u16>,
) -> Result<(), DnsError> {
    oracle_name(r.name(), w, offsets)?;
    w.write_u16(r.rtype().to_u16())?;
    w.write_u16(r.class().to_u16())?;
    w.write_u32(r.ttl())?;
    let len_at = w.len();
    w.write_u16(0)?;
    let start = w.len();
    match r.data() {
        RecordData::A(ip) => w.write_bytes(&ip.octets())?,
        RecordData::Aaaa(ip) => w.write_bytes(&ip.octets())?,
        RecordData::Cname(n) | RecordData::Ns(n) | RecordData::Ptr(n) => {
            oracle_name(n, w, offsets)?
        }
        RecordData::Mx {
            preference,
            exchange,
        } => {
            w.write_u16(*preference)?;
            oracle_name(exchange, w, offsets)?;
        }
        RecordData::Txt(strings) => {
            for s in strings {
                w.write_u8(s.len() as u8)?;
                w.write_bytes(s)?;
            }
        }
        other => panic!("the generator makes no {other:?}"),
    }
    let rdlen = w.len() - start;
    w.patch_u16(len_at, rdlen as u16);
    Ok(())
}

fn oracle_message(m: &Message, mut w: WireWriter) -> Result<Vec<u8>, DnsError> {
    let mut offsets = HashMap::new();
    m.header().encode(&mut w)?;
    for q in m.questions() {
        oracle_name(q.qname(), &mut w, &mut offsets)?;
        w.write_u16(q.qtype().to_u16())?;
        w.write_u16(q.qclass().to_u16())?;
    }
    for r in m
        .answers()
        .iter()
        .chain(m.authorities())
        .chain(m.additionals())
    {
        oracle_record(r, &mut w, &mut offsets)?;
    }
    Ok(w.into_bytes())
}

// ---- generators ----

/// Labels that share suffixes and differ only in case, plus relaxed
/// labels holding `.`, `\` and bytes at or above 0x80.
fn label_pool() -> Vec<Label> {
    let mut pool: Vec<Label> = [
        "a", "A", "b", "B", "www", "WWW", "Www", "mail", "example", "Example", "EXAMPLE", "com",
        "Com", "org", "vendor", "x-1",
    ]
    .iter()
    .map(|t| Label::new(t).expect("valid"))
    .collect();
    for bytes in [
        &b"a.b"[..],
        b"A.B",
        b"a\\b",
        b"\\",
        b".",
        &[0xC1, b'x'],
        &[0xE1, b'x'],
        &[0xFF],
        &[0x80, b'Q'],
        &[0x00, b' '],
    ] {
        pool.push(Label::from_bytes_relaxed(bytes).expect("1..=63 bytes"));
    }
    pool.push(Label::from_bytes_relaxed(&[b'z'; 60]).expect("60 bytes"));
    pool
}

fn random_name(rng: &mut Rng, pool: &[Label]) -> Name {
    let count = rng.below(5);
    let labels = (0..count).map(|_| *rng.pick(pool)).collect();
    Name::from_labels(labels).expect("at most 4 labels of 60 bytes")
}

fn random_record(rng: &mut Rng, pool: &[Label]) -> Record {
    let name = random_name(rng, pool);
    let data = match rng.below(7) {
        0 => RecordData::A([10, 0, 0, rng.below(256) as u8].into()),
        1 => RecordData::Aaaa([rng.below(256) as u8; 16].into()),
        2 => RecordData::Cname(random_name(rng, pool)),
        3 => RecordData::Ns(random_name(rng, pool)),
        4 => RecordData::Ptr(random_name(rng, pool)),
        5 => RecordData::Mx {
            preference: rng.below(100) as u16,
            exchange: random_name(rng, pool),
        },
        _ => RecordData::Txt(vec![vec![b't'; rng.below(41)]]),
    };
    Record::new(name, rng.below(1000) as u32, data)
}

/// A response with `records` random records, after a first answer
/// whose TXT strings hold `filler` bytes.
fn random_message(rng: &mut Rng, pool: &[Label], records: usize, filler: usize) -> Message {
    let q = Question::new(random_name(rng, pool), RecordType::A);
    let mut m = Message::response_to(&Message::query(rng.below(65536) as u16, q));
    if filler > 0 {
        let strings = (0..filler)
            .step_by(250)
            .map(|at| vec![b'f'; (filler - at).min(250)]);
        let txt = RecordData::Txt(strings.collect());
        m.push_answer(Record::new(random_name(rng, pool), 0, txt));
    }
    for _ in 0..records {
        let r = random_record(rng, pool);
        match rng.below(3) {
            0 => m.push_answer(r),
            1 => m.push_authority(r),
            _ => m.push_additional(r),
        }
    }
    m
}

/// `encode`, and `encode_with_limit` at every cut-off from 0 to one past
/// the full length, match the oracle: the same bytes, or the same error.
fn assert_matches_oracle(m: &Message) {
    let full = m.encode().expect("unbounded encode");
    assert_eq!(full, oracle_message(m, WireWriter::new()).unwrap(), "{m}");
    for limit in 0..=full.len() + 1 {
        assert_eq!(
            m.encode_with_limit(limit),
            oracle_message(m, WireWriter::with_limit(limit)),
            "limit {limit} of {}",
            full.len()
        );
    }
}

#[test]
fn compression_matches_the_hashmap_oracle_at_every_cut_off() {
    let pool = label_pool();
    let mut rng = Rng(0x5EED_C0DE);
    for _ in 0..200 {
        let records = rng.below(12);
        assert_matches_oracle(&random_message(&mut rng, &pool, records, 0));
    }
    // A message with more distinct suffixes than the table holds inline.
    let mut m = Message::query(1, Question::new(Name::root(), RecordType::A));
    for i in 0..40u32 {
        let name = Name::parse(&format!("h{i}.z{}.example", i % 7)).expect("valid");
        m.push_answer(Record::new(name, i, RecordData::A([10, 0, 0, 1].into())));
    }
    assert_matches_oracle(&m);
}

#[test]
fn compression_matches_the_oracle_across_the_pointer_limit() {
    // TXT filler pushes names to both sides of 0x3FFF: suffixes written
    // past it are never recorded, so later copies are spelled out.
    let pool = label_pool();
    let mut rng = Rng(0x3FFF);
    for filler in [0x3E00, 0x3F80] {
        let m = random_message(&mut rng, &pool, 30, filler);
        let full = m.encode().expect("unbounded encode");
        assert!(full.len() > 0x4000, "records reach past 0x3FFF");
        assert_matches_oracle(&m);
    }
    // Name by name, starting at every offset around the limit.
    let names: Vec<Name> = (0..40).map(|_| random_name(&mut rng, &pool)).collect();
    for start in 0x3FF0..0x4008 {
        let mut ours = WireWriter::new();
        let mut theirs = WireWriter::new();
        ours.write_bytes(&vec![0xAA; start]).unwrap();
        theirs.write_bytes(&vec![0xAA; start]).unwrap();
        let (mut table, mut offsets) = (CompressionTable::new(), HashMap::new());
        for n in &names {
            n.encode_compressed(&mut ours, &mut table).unwrap();
            oracle_name(n, &mut theirs, &mut offsets).unwrap();
        }
        assert_eq!(ours.as_bytes(), theirs.as_bytes(), "start {start:#x}");
    }
}

// ---- the replaced key ----

fn display_key(name: &Name, rtype: RecordType) -> (String, RecordType) {
    (name.to_string().to_ascii_lowercase(), rtype)
}

fn folded(name: &Name, rtype: RecordType) -> Vec<u8> {
    let mut buf = [0; FOLDED_KEY_LEN];
    name.folded_key(rtype, &mut buf)
        .expect("constructed names fit")
        .to_vec()
}

#[test]
fn folded_key_has_the_display_key_equality() {
    let pool = label_pool();
    let mut rng = Rng(0xCA5E);
    let types = [RecordType::A, RecordType::Aaaa, RecordType::Ns];
    let mut names: Vec<Name> = (0..400).map(|_| random_name(&mut rng, &pool)).collect();
    // `a.b` as two labels and as one relaxed label.
    names.push(Name::parse("a.b").unwrap());
    names.push(Name::from_labels(vec![Label::from_bytes_relaxed(b"a.b").unwrap()]).unwrap());
    names.push(Name::root());
    let mut equal_pairs = 0;
    for a in &names {
        for b in &names {
            let (ta, tb) = (*rng.pick(&types), *rng.pick(&types));
            let old = display_key(a, ta) == display_key(b, tb);
            assert_eq!(old, folded(a, ta) == folded(b, tb), "{a} {ta} vs {b} {tb}");
            equal_pairs += usize::from(old && a != b);
        }
    }
    assert!(equal_pairs > 0, "some pairs differ only in case");
    let two = Name::parse("a.b").unwrap();
    let one = Name::from_labels(vec![Label::from_bytes_relaxed(b"a.b").unwrap()]).unwrap();
    assert_ne!(folded(&two, RecordType::A), folded(&one, RecordType::A));
}

#[test]
fn folded_key_fits_the_longest_name() {
    let label = Label::from_bytes_relaxed(&[b'Q'; 63]).unwrap();
    let tail = Label::from_bytes_relaxed(&[b'R'; 61]).unwrap();
    let name = Name::from_labels(vec![label, label, label, tail]).unwrap();
    assert_eq!(name.wire_len(), MAX_NAME_LEN);
    let key = folded(&name, RecordType::A);
    assert_eq!(key.len(), FOLDED_KEY_LEN);
    assert!(key[1..64].iter().all(|&b| b == b'q'));
}
