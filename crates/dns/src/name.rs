//! Domain names: labels, parsing, wire encoding and decompression.

use std::fmt;

use crate::record::RecordType;
use crate::wire::{WireBuf, WireReader, WireWriter};
use crate::DnsError;

/// Maximum length of a single label on the wire (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum length of a full name on the wire, including length bytes and
/// the root terminator (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Maximum number of compression pointers the strict decoder will chase
/// for one name before declaring the message malicious.
pub const MAX_POINTER_HOPS: usize = 32;

/// Most labels a name within [`MAX_NAME_LEN`] can hold: each takes at
/// least two wire bytes, and the root byte takes one.
pub(crate) const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;

/// Size of the buffer [`Name::folded_key`] writes into: the longest name
/// wire form (whose root byte the key leaves out) plus the record type.
pub const FOLDED_KEY_LEN: usize = MAX_NAME_LEN + 1;

/// One label of a domain name.
///
/// The strict constructor only accepts the conventional hostname alphabet
/// (letters, digits, hyphen, underscore); [`Label::from_bytes_relaxed`]
/// accepts any bytes, which decoding uses because real-world traffic is
/// not always polite.
///
/// Stored inline (a label is at most 63 bytes by construction), so
/// building one never allocates — decoding a name costs one `Vec` for
/// the label list and nothing per label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    len: u8,
    // Invariant: bytes past `len` are zero, so the derived equality over
    // the whole buffer equals byte-string equality.
    buf: [u8; MAX_LABEL_LEN],
}

impl Label {
    pub(crate) fn from_checked(bytes: &[u8]) -> Self {
        let mut buf = [0u8; MAX_LABEL_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        Label {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// Creates a label from text, validating the hostname alphabet.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`], [`DnsError::LabelTooLong`] or
    /// [`DnsError::InvalidLabelByte`] on bad input.
    pub fn new(text: &str) -> Result<Self, DnsError> {
        let bytes = text.as_bytes();
        if bytes.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        for &b in bytes {
            if !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                return Err(DnsError::InvalidLabelByte(b));
            }
        }
        Ok(Label::from_checked(bytes))
    }

    /// Creates a label from arbitrary bytes, checking only the length
    /// limits that the wire format itself enforces.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`] or [`DnsError::LabelTooLong`].
    pub fn from_bytes_relaxed(bytes: &[u8]) -> Result<Self, DnsError> {
        if bytes.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        Ok(Label::from_checked(bytes))
    }

    /// The raw bytes of the label.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }

    /// Length of the label in bytes (1..=63).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// A label is never empty; this always returns `false` but exists for
    /// API symmetry with collection types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Case-insensitive comparison as required for name matching
    /// (RFC 1035 §2.3.3).
    pub fn eq_ignore_case(&self, other: &Label) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(std::iter::once(self.as_bytes()), f)
    }
}

/// Writes labels in presentation form: `.` for none, otherwise the
/// labels joined by dots, with graphic ASCII other than `.` and `\\`
/// as itself and every other byte as `\\DDD`. The text is assembled on
/// the stack and written with one `write_str` per 256 bytes.
pub(crate) fn fmt_labels<'l>(
    labels: impl Iterator<Item = &'l [u8]>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let mut out = Presentation {
        f,
        buf: [0; 256],
        len: 0,
    };
    let mut empty = true;
    for label in labels {
        if !empty {
            out.push(b".")?;
        }
        empty = false;
        let mut rest = label;
        while let Some(i) = rest
            .iter()
            .position(|&b| !b.is_ascii_graphic() || b == b'.' || b == b'\\')
        {
            let b = rest[i];
            out.push(&rest[..i])?;
            out.push(&[b'\\', b'0' + b / 100, b'0' + b / 10 % 10, b'0' + b % 10])?;
            rest = &rest[i + 1..];
        }
        out.push(rest)?;
    }
    if empty {
        out.push(b".")?;
    }
    out.flush()
}

/// The stack buffer [`fmt_labels`] assembles ASCII text in.
struct Presentation<'f, 'a> {
    f: &'f mut fmt::Formatter<'a>,
    buf: [u8; 256],
    len: usize,
}

impl Presentation<'_, '_> {
    fn push(&mut self, bytes: &[u8]) -> fmt::Result {
        if self.len + bytes.len() > self.buf.len() {
            self.flush()?;
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }

    fn flush(&mut self) -> fmt::Result {
        let text = std::str::from_utf8(&self.buf[..self.len]).map_err(|_| fmt::Error)?;
        self.len = 0;
        self.f.write_str(text)
    }
}

/// A fully-qualified domain name as an ordered list of labels.
///
/// The empty list is the DNS root. `Name` values built through the public
/// constructors always satisfy the RFC length limits; only the [`forge`]
/// module emits names that do not.
///
/// [`forge`]: crate::forge
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Name {
    labels: Vec<Label>,
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { labels: Vec::new() }
    }

    /// Parses a dotted name such as `"www.example.com"`.
    ///
    /// A single trailing dot is accepted and ignored. The empty string and
    /// `"."` both denote the root.
    ///
    /// # Errors
    ///
    /// Returns an error if any label is invalid or the total wire length
    /// would exceed [`MAX_NAME_LEN`].
    pub fn parse(text: &str) -> Result<Self, DnsError> {
        let trimmed = text.strip_suffix('.').unwrap_or(text);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        let mut labels = Vec::new();
        for part in trimmed.split('.') {
            labels.push(Label::new(part)?);
        }
        Name::from_labels(labels)
    }

    /// A name from labels a strict walk has already bounded.
    pub(crate) fn from_validated(labels: Vec<Label>) -> Self {
        Name { labels }
    }

    /// Folds ASCII letters to lower case in place — the canonical form
    /// a resolver re-encodes upstream queries in.
    pub fn make_ascii_lowercase(&mut self) {
        for label in &mut self.labels {
            label.buf.make_ascii_lowercase();
        }
    }

    /// Builds a name from pre-validated labels, enforcing the total
    /// length limit.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the wire form would exceed
    /// [`MAX_NAME_LEN`] bytes.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, DnsError> {
        let name = Name { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// The labels of this name, most-specific first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// Length of the uncompressed wire encoding, including each label's
    /// length byte and the trailing root byte.
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| l.len() + 1).sum::<usize>()
    }

    /// Case-insensitive equality, as used for cache lookups.
    pub fn eq_ignore_case(&self, other: &Name) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(&other.labels)
                .all(|(a, b)| a.eq_ignore_case(b))
    }

    /// The parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        if self.labels.is_empty() {
            None
        } else {
            Some(Name {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Encodes without compression.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_uncompressed(&self, w: &mut WireWriter) -> Result<(), DnsError> {
        for label in &self.labels {
            w.write_u8(label.len() as u8)?;
            w.write_bytes(label.as_bytes())?;
        }
        w.write_u8(0)
    }

    /// [`encode_uncompressed`](Self::encode_uncompressed) into a
    /// reusable buffer: `out`'s contents are replaced, its capacity is
    /// kept, and a warm buffer makes the encode allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_into(&self, out: &mut WireBuf) -> Result<(), DnsError> {
        let mut w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
        self.encode_uncompressed(&mut w)?;
        *out.as_mut_vec() = w.into_bytes();
        Ok(())
    }

    /// Encodes with RFC 1035 §4.1.4 compression.
    ///
    /// `table` holds the offsets of suffixes already written to `w`;
    /// this method both consults and extends it. A suffix matches only a
    /// written suffix with the same label bytes (case-sensitive), the
    /// first offset recorded for a suffix wins, and only offsets that
    /// fit the 14-bit pointer encoding are recorded.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode_compressed(
        &self,
        w: &mut WireWriter,
        table: &mut CompressionTable,
    ) -> Result<(), DnsError> {
        encode_labels_compressed(self.labels.len(), |i| self.labels[i].as_bytes(), w, table)
    }

    /// Writes the lookup key of `(self, rtype)` into `buf` and returns
    /// it: the name's wire form without the root byte, with ASCII
    /// letters folded to lower case, followed by the record type.
    ///
    /// Two names get the same key for one type exactly when they have
    /// the same label count and their labels are equal under ASCII case
    /// folding (RFC 1035 §2.3.3); other bytes compare exactly. Returns
    /// `None` when the name's wire form exceeds [`MAX_NAME_LEN`], which
    /// no public constructor allows.
    pub fn folded_key<'b>(
        &self,
        rtype: RecordType,
        buf: &'b mut [u8; FOLDED_KEY_LEN],
    ) -> Option<&'b [u8]> {
        fold_key(self.labels.iter().map(Label::as_bytes), rtype, buf)
    }

    /// Decodes a (possibly compressed) name at the reader's position,
    /// leaving the reader just past the name's in-place bytes.
    ///
    /// This is the *strict* decoder: it enforces backward-only pointers, a
    /// hop limit, and the 255-byte total. The vulnerable proxy in
    /// `cml-connman` deliberately does **not** use this routine — it
    /// re-implements the buggy C logic.
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] describing the first malformation found.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, DnsError> {
        let mut labels = Vec::new();
        let end = walk_name(r.message(), r.position(), |bytes| {
            labels.push(Label::from_checked(bytes));
        })?;
        r.seek(end)?;
        Ok(Name { labels })
    }
}

/// The strict name walk, the one place the decoder's name rules live:
/// backward-only pointers, at most [`MAX_POINTER_HOPS`] of them, no
/// reserved label types, and at most [`MAX_NAME_LEN`] bytes of
/// expanded wire form. Calls `label` with each label's bytes (1..=63 of
/// them), most-specific first, and returns the offset just past the
/// name's in-place bytes (after its first pointer, or after its root
/// byte when it has none).
///
/// [`Name::decode`] collects the labels; the message view
/// ([`crate::MessageView`]) only validates.
///
/// # Errors
///
/// Returns a [`DnsError`] describing the first malformation found.
pub(crate) fn walk_name<'m>(
    msg: &'m [u8],
    mut pos: usize,
    mut label: impl FnMut(&'m [u8]),
) -> Result<usize, DnsError> {
    let mut wire_len = 1usize;
    let mut hops = 0usize;
    // Where the in-place portion of the name ends. Set on the first
    // pointer only.
    let mut resume: Option<usize> = None;
    loop {
        let len = *msg.get(pos).ok_or(DnsError::Truncated {
            context: "name length byte",
        })? as usize;
        match len {
            0 => return Ok(resume.unwrap_or(pos + 1)),
            l if l & 0xC0 == 0xC0 => {
                let lo = *msg.get(pos + 1).ok_or(DnsError::Truncated {
                    context: "pointer low byte",
                })? as usize;
                let target = ((l & 0x3F) << 8) | lo;
                if target >= pos {
                    return Err(DnsError::ForwardPointer { target, at: pos });
                }
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return Err(DnsError::PointerLimit(MAX_POINTER_HOPS));
                }
                resume.get_or_insert(pos + 2);
                pos = target;
            }
            l if l & 0xC0 != 0 => return Err(DnsError::BadLabelType(l as u8)),
            l => {
                let end = pos + 1 + l;
                let bytes = msg.get(pos + 1..end).ok_or(DnsError::Truncated {
                    context: "label bytes",
                })?;
                wire_len += l + 1;
                if wire_len > MAX_NAME_LEN {
                    return Err(DnsError::NameTooLong(wire_len));
                }
                label(bytes);
                pos = end;
            }
        }
    }
}

/// [`Name::folded_key`] over any label sequence.
pub(crate) fn fold_key<'l, 'b>(
    labels: impl Iterator<Item = &'l [u8]>,
    rtype: RecordType,
    buf: &'b mut [u8; FOLDED_KEY_LEN],
) -> Option<&'b [u8]> {
    let mut at = 0;
    for bytes in labels {
        let dst = buf.get_mut(at..at + 1 + bytes.len())?;
        dst[0] = bytes.len() as u8;
        for (d, s) in dst[1..].iter_mut().zip(bytes) {
            *d = s.to_ascii_lowercase();
        }
        at += dst.len();
    }
    buf.get_mut(at..at + 2)?
        .copy_from_slice(&rtype.to_u16().to_be_bytes());
    Some(&buf[..at + 2])
}

/// [`Name::encode_compressed`] over any sequence of `count` labels,
/// `label(i)` being the `i`th: a `Name`'s labels, or those of a name
/// read off the wire.
pub(crate) fn encode_labels_compressed<'l>(
    count: usize,
    label: impl Fn(usize) -> &'l [u8],
    w: &mut WireWriter,
    table: &mut CompressionTable,
) -> Result<(), DnsError> {
    // Every constructor and the strict walk bound the wire length, so
    // the label count fits; suffix `i`'s hash lands in `hashes[i]`.
    let mut hashes = [0u32; MAX_LABELS];
    let mut h = 0;
    for i in (0..count).rev() {
        h = suffix_hash(h, label(i));
        hashes[i] = h;
    }
    for (i, &hash) in hashes[..count].iter().enumerate() {
        if let Some(off) = table.find(hash, |off| {
            written_matches(w.as_bytes(), off.into(), (i..count).map(&label))
        }) {
            return w.write_u16(0xC000 | off);
        }
        let here = w.len();
        if here <= 0x3FFF {
            table.insert(hash, here as u16);
        }
        let bytes = label(i);
        w.write_u8(bytes.len() as u8)?;
        w.write_bytes(bytes)?;
    }
    w.write_u8(0)
}

/// Hash of the suffix that starts with `label`, given the hash of the
/// suffix after it (0 for the root).
fn suffix_hash(after: u32, label: &[u8]) -> u32 {
    const K: u64 = 0x517C_C1B7_2722_0A95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut h = (u64::from(after) << 8 | label.len() as u64).wrapping_mul(K);
    // Little-endian 8-byte words, the last one zero-padded; the tail is
    // assembled bytewise, which beats a variable-length copy.
    let mut words = label.chunks_exact(8);
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let word = tail.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        h = mix(h, word);
    }
    (h >> 32) as u32
}

/// Whether the name written at `pos` in `msg` is exactly `labels`,
/// following the backward pointers the encoder wrote. A forward or
/// self pointer, a truncated name or a label mismatch is `false`.
fn written_matches<'l>(
    msg: &[u8],
    mut pos: usize,
    mut labels: impl Iterator<Item = &'l [u8]>,
) -> bool {
    loop {
        let Some(&len) = msg.get(pos) else {
            return false;
        };
        if len & 0xC0 == 0xC0 {
            let Some(&lo) = msg.get(pos + 1) else {
                return false;
            };
            let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
            if target >= pos {
                return false;
            }
            pos = target;
            continue;
        }
        let Some(label) = labels.next() else {
            return len == 0;
        };
        let end = pos + 1 + usize::from(len);
        if msg.get(pos + 1..end) != Some(label) {
            return false;
        }
        pos = end;
    }
}

/// Name-compression state for one message encode: a `(suffix hash,
/// offset)` entry for every suffix written so far, in write order.
///
/// The first 32 entries live inline, so a message with up to 32
/// distinct suffixes compresses without touching the heap; later ones
/// spill to a `Vec`. A hash hit is confirmed against the bytes already
/// written (see [`Name::encode_compressed`]), so colliding hashes cost
/// a comparison, never a wrong pointer.
#[derive(Debug, Clone)]
pub struct CompressionTable {
    inline: [(u32, u16); INLINE_ENTRIES],
    inline_len: usize,
    spill: Vec<(u32, u16)>,
}

const INLINE_ENTRIES: usize = 32;

impl Default for CompressionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl CompressionTable {
    /// An empty table.
    pub fn new() -> Self {
        CompressionTable {
            inline: [(0, 0); INLINE_ENTRIES],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// The first recorded offset with this hash that `confirm` accepts.
    fn find(&self, hash: u32, mut confirm: impl FnMut(u16) -> bool) -> Option<u16> {
        self.inline[..self.inline_len]
            .iter()
            .chain(&self.spill)
            .find(|&&(h, off)| h == hash && confirm(off))
            .map(|&(_, off)| off)
    }

    fn insert(&mut self, hash: u32, offset: u16) {
        match self.inline.get_mut(self.inline_len) {
            Some(entry) => {
                *entry = (hash, offset);
                self.inline_len += 1;
            }
            None => self.spill.push((hash, offset)),
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_labels(self.labels.iter().map(Label::as_bytes), f)
    }
}

impl std::str::FromStr for Name {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(name: &Name) -> Vec<u8> {
        let mut w = WireWriter::new();
        name.encode_uncompressed(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let n = Name::parse("www.Example.com").unwrap();
        assert_eq!(n.labels().len(), 3);
        assert_eq!(n.to_string(), "www.Example.com");
        assert_eq!(Name::parse("www.example.com.").unwrap().labels().len(), 3);
    }

    #[test]
    fn root_forms() {
        assert!(Name::parse("").unwrap().is_root());
        assert!(Name::parse(".").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(encode(&Name::root()), vec![0]);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(matches!(Name::parse("a..b"), Err(DnsError::EmptyLabel)));
        assert!(matches!(
            Name::parse("bad domain"),
            Err(DnsError::InvalidLabelByte(b' '))
        ));
        let long = "x".repeat(64);
        assert!(matches!(
            Name::parse(&long),
            Err(DnsError::LabelTooLong(64))
        ));
    }

    #[test]
    fn rejects_overlong_name() {
        let label = "a".repeat(63);
        let text = vec![label; 5].join(".");
        assert!(matches!(Name::parse(&text), Err(DnsError::NameTooLong(_))));
    }

    #[test]
    fn wire_len_counts_length_bytes_and_root() {
        let n = Name::parse("ab.cd").unwrap();
        // 1+2 + 1+2 + 1 = 7
        assert_eq!(n.wire_len(), 7);
        assert_eq!(encode(&n).len(), 7);
    }

    #[test]
    fn uncompressed_encoding_matches_rfc_example() {
        let n = Name::parse("f.isi.arpa").unwrap();
        assert_eq!(
            encode(&n),
            vec![1, b'f', 3, b'i', b's', b'i', 4, b'a', b'r', b'p', b'a', 0]
        );
    }

    #[test]
    fn decode_simple() {
        let bytes = encode(&Name::parse("a.bc").unwrap());
        let mut r = WireReader::new(&bytes);
        let n = Name::decode(&mut r).unwrap();
        assert_eq!(n.to_string(), "a.bc");
        assert!(r.is_empty());
    }

    #[test]
    fn compression_shares_suffixes() {
        let mut w = WireWriter::new();
        let mut table = CompressionTable::new();
        Name::parse("mail.example.com")
            .unwrap()
            .encode_compressed(&mut w, &mut table)
            .unwrap();
        let first_len = w.len();
        Name::parse("ftp.example.com")
            .unwrap()
            .encode_compressed(&mut w, &mut table)
            .unwrap();
        let bytes = w.into_bytes();
        // Second name is "ftp" label + 2-byte pointer.
        assert_eq!(bytes.len() - first_len, 1 + 3 + 2);
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            Name::decode(&mut r).unwrap().to_string(),
            "mail.example.com"
        );
        assert_eq!(Name::decode(&mut r).unwrap().to_string(), "ftp.example.com");
        assert!(r.is_empty());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let bytes = [0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::ForwardPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_bits() {
        let bytes = [0x40, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::BadLabelType(0x40))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = [5, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::Truncated {
                context: "label bytes"
            })
        ));
    }

    #[test]
    fn decode_rejects_overlong_expansion() {
        // Chain of labels each pointing backward would exceed 255 bytes of
        // logical name: build 5 in-place 63-byte labels.
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.push(63);
            bytes.extend(std::iter::repeat_n(b'a', 63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Name::decode(&mut r),
            Err(DnsError::NameTooLong(_))
        ));
    }

    #[test]
    fn decode_resumes_after_first_pointer() {
        // message: name "x" at 0; then at 3: label "y" + pointer to 0; then
        // a sentinel byte.
        let bytes = [1, b'x', 0, 1, b'y', 0xC0, 0x00, 0xEE];
        let mut r = WireReader::new(&bytes);
        r.seek(3).unwrap();
        let n = Name::decode(&mut r).unwrap();
        assert_eq!(n.to_string(), "y.x");
        assert_eq!(r.position(), 7);
        assert_eq!(r.read_u8("sentinel").unwrap(), 0xEE);
    }

    #[test]
    fn case_insensitive_matching() {
        let a = Name::parse("WWW.Example.COM").unwrap();
        let b = Name::parse("www.example.com").unwrap();
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn label_display_escapes_dots_backslashes_and_non_graphic_bytes() {
        let label = Label::from_bytes_relaxed(b"a.b\\c d\x00e\x7f\xffZ-9").unwrap();
        assert_eq!(label.to_string(), "a\\046b\\092c\\032d\\000e\\127\\255Z-9");
        let name = Name::from_labels(vec![
            Label::from_bytes_relaxed(b".").unwrap(),
            Label::from_bytes_relaxed(b"ok").unwrap(),
        ])
        .unwrap();
        assert_eq!(name.to_string(), "\\046.ok");
    }

    #[test]
    fn parent_walks_to_root() {
        let mut n = Name::parse("a.b.c").unwrap();
        let mut seen = Vec::new();
        loop {
            seen.push(n.to_string());
            match n.parent() {
                Some(p) => n = p,
                None => break,
            }
        }
        assert_eq!(seen, vec!["a.b.c", "b.c", "c", "."]);
    }
}
