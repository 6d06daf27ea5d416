//! Structure-aware DNS mutators.
//!
//! Every operator rewrites a base input into a caller-supplied scratch
//! buffer (a pooled [`cml_dns::WireBuf`]'s backing `Vec`), so the
//! steady-state mutation loop allocates nothing. The structured
//! operators understand just enough DNS to stay interesting — they walk
//! the question to find the answer name, then splice, extend, or bend
//! that label chain — and every one of them degrades gracefully to
//! havoc when a previous mutation has already mangled the framing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard cap on mutated-input size, matching the proxy's own
/// [`cml_dns::MAX_PROXY_MESSAGE`] so the mutator never manufactures
/// packets the transport would have refused to carry.
pub const MAX_INPUT: usize = cml_dns::MAX_PROXY_MESSAGE;

/// Where the answer name lives in a (still well-framed) input, as
/// discovered by [`walk_answer_name`].
#[derive(Debug, Clone, Copy)]
struct AnswerName {
    /// Offset of the answer name's first label length byte.
    start: usize,
    /// Offset of the terminator: a root byte or the first byte of a
    /// compression pointer.
    term: usize,
}

/// Walks the question section from offset 12 (labels, root, qtype,
/// qclass) and then the answer name's in-place labels. Returns `None`
/// whenever the framing is no longer DNS-shaped — the caller falls back
/// to havoc.
fn walk_answer_name(p: &[u8]) -> Option<AnswerName> {
    let mut pos = 12usize;
    // Question name: plain labels only (the proxy's own queries never
    // compress), terminated by a root byte.
    loop {
        let len = *p.get(pos)? as usize;
        if len == 0 {
            pos += 1;
            break;
        }
        if len & 0xC0 != 0 {
            return None;
        }
        pos += 1 + len;
        if pos > p.len() {
            return None;
        }
    }
    pos += 4; // qtype + qclass
    let start = pos;
    // Answer name: labels until a root byte or a compression pointer.
    let mut guard = 0usize;
    loop {
        guard += 1;
        if guard > 128 {
            return None;
        }
        let len = *p.get(pos)? as usize;
        if len == 0 || len & 0xC0 == 0xC0 {
            return Some(AnswerName { start, term: pos });
        }
        if len & 0xC0 != 0 {
            return None;
        }
        pos += 1 + len;
        if pos > p.len() {
            return None;
        }
    }
}

/// The deterministic mutation engine: one per fuzzing worker.
#[derive(Debug, Clone)]
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    /// A mutator with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Rewrites `base` into `out` with 1–4 stacked mutations. When
    /// `donor` is given, one of the candidate operators is a corpus
    /// splice (crossover with another admitted input).
    pub fn mutate(&mut self, base: &[u8], donor: Option<&[u8]>, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(base);
        let stack = self.rng.gen_range(1usize..=4);
        for _ in 0..stack {
            let op = self.rng.gen_range(0u32..8);
            match op {
                0 => self.label_extend(out),
                1 => self.label_splice(out),
                2 => self.pointer_bend(out),
                3 => self.rdata_grow(out),
                4 => self.ancount_bump(out),
                5 => {
                    if let Some(d) = donor {
                        self.splice_with(d, out);
                    } else {
                        self.havoc(out);
                    }
                }
                _ => self.havoc(out),
            }
            if out.len() > MAX_INPUT {
                out.truncate(MAX_INPUT);
            }
        }
    }

    /// Inserts a fresh label before the answer name's terminator.
    fn label_extend(&mut self, p: &mut Vec<u8>) {
        let Some(name) = walk_answer_name(p) else {
            return self.havoc(p);
        };
        let len = self.rng.gen_range(1usize..=63);
        let mut label = [0u8; 64];
        label[0] = len as u8;
        for b in &mut label[1..=len] {
            *b = self.rng.gen_range(b'a'..=b'z');
        }
        splice_in(p, name.term, &label[..=len]);
    }

    /// Duplicates the whole in-place label run of the answer name —
    /// doubling the name with one mutation, which compounds quickly
    /// under repeated admission. The copy is made inside `p`'s own
    /// buffer: appended, then rotated into place after the run.
    fn label_splice(&mut self, p: &mut Vec<u8>) {
        let Some(name) = walk_answer_name(p) else {
            return self.havoc(p);
        };
        if name.term == name.start {
            return self.label_extend(p);
        }
        p.extend_from_within(name.start..name.term);
        p[name.term..].rotate_right(name.term - name.start);
    }

    /// Replaces the answer name's terminator with a compression pointer
    /// aimed somewhere earlier in the packet — the CVE's amplification
    /// device: a pointer back into the name re-walks the labels on every
    /// hop, so a short packet can write far more than its own length.
    fn pointer_bend(&mut self, p: &mut Vec<u8>) {
        let Some(name) = walk_answer_name(p) else {
            return self.havoc(p);
        };
        let hi_cap = p.len().min(0x3FFF);
        if hi_cap <= 12 {
            return self.havoc(p);
        }
        let target = self.rng.gen_range(12usize..hi_cap);
        let ptr = [0xC0 | ((target >> 8) as u8), target as u8];
        if name.term + 2 <= p.len() {
            p[name.term] = ptr[0];
            p[name.term + 1] = ptr[1];
        } else {
            p.truncate(name.term);
            p.extend_from_slice(&ptr);
        }
    }

    /// Grows the answer's rdata: bumps the rdlength field (right after
    /// the name terminator's type/class/ttl) and appends the bytes.
    fn rdata_grow(&mut self, p: &mut Vec<u8>) {
        let Some(name) = walk_answer_name(p) else {
            return self.havoc(p);
        };
        // Fixed RR header after the name: type(2) class(2) ttl(4) rdlen(2).
        let term_len = if p.get(name.term).is_some_and(|&b| b & 0xC0 == 0xC0) {
            2
        } else {
            1
        };
        let rdlen_off = name.term + term_len + 8;
        if rdlen_off + 2 > p.len() {
            return self.havoc(p);
        }
        let grow = self.rng.gen_range(1usize..=64);
        let old = u16::from_be_bytes([p[rdlen_off], p[rdlen_off + 1]]);
        let new = old.saturating_add(grow as u16);
        p[rdlen_off] = (new >> 8) as u8;
        p[rdlen_off + 1] = new as u8;
        for _ in 0..grow {
            let b: u8 = self.rng.gen();
            p.push(b);
        }
    }

    /// Rewrites the header's answer count — more records mean more
    /// trips through the decompressor per delivery.
    fn ancount_bump(&mut self, p: &mut Vec<u8>) {
        if p.len() < 8 {
            return self.havoc(p);
        }
        let n = self.rng.gen_range(1u16..=8);
        p[6] = (n >> 8) as u8;
        p[7] = n as u8;
    }

    /// Crossover: keeps a prefix of the current input and appends a
    /// suffix of the donor.
    fn splice_with(&mut self, donor: &[u8], p: &mut Vec<u8>) {
        if p.is_empty() || donor.is_empty() {
            return self.havoc(p);
        }
        let cut_a = self.rng.gen_range(0usize..p.len());
        let cut_b = self.rng.gen_range(0usize..donor.len());
        p.truncate(cut_a);
        p.extend_from_slice(&donor[cut_b..]);
    }

    /// Unstructured byte soup: flips, overwrites, deletions,
    /// duplications, insertions.
    fn havoc(&mut self, p: &mut Vec<u8>) {
        let rounds = self.rng.gen_range(1usize..=8);
        for _ in 0..rounds {
            if p.is_empty() {
                let b: u8 = self.rng.gen();
                p.push(b);
                continue;
            }
            match self.rng.gen_range(0u32..5) {
                0 => {
                    let i = self.rng.gen_range(0usize..p.len());
                    let bit = self.rng.gen_range(0u32..8);
                    p[i] ^= 1 << bit;
                }
                1 => {
                    let i = self.rng.gen_range(0usize..p.len());
                    p[i] = self.rng.gen();
                }
                2 => {
                    // Overwrite a big-endian u16 (counts, lengths, ids).
                    let i = self.rng.gen_range(0usize..p.len());
                    let v: u16 = self.rng.gen_range(0u16..=0x0400);
                    p[i] = (v >> 8) as u8;
                    if i + 1 < p.len() {
                        p[i + 1] = v as u8;
                    }
                }
                3 => {
                    let i = self.rng.gen_range(0usize..p.len());
                    let n = self.rng.gen_range(1usize..=8).min(p.len() - i);
                    p.drain(i..i + n);
                }
                _ => {
                    let i = self.rng.gen_range(0usize..p.len());
                    let n = self.rng.gen_range(1usize..=16).min(p.len() - i);
                    // Duplicate the chunk in place, as `label_splice` does.
                    p.extend_from_within(i..i + n);
                    p[i..].rotate_right(n);
                }
            }
        }
    }
}

/// Inserts `bytes` at `at`, shifting the tail right.
fn splice_in(p: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    let at = at.min(p.len());
    p.splice(at..at, bytes.iter().copied());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// header(12) + question "ab." A/IN + answer name "ab" + A record.
    fn shaped_input() -> Vec<u8> {
        let mut p = vec![0u8; 12];
        p[0] = 0x10; // id 0x1000
        p[5] = 1; // qdcount
        p[7] = 1; // ancount
        p.extend_from_slice(&[2, b'a', b'b', 0]); // qname
        p.extend_from_slice(&[0, 1, 0, 1]); // qtype/qclass
        p.extend_from_slice(&[2, b'a', b'b', 0]); // answer name
        p.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 10, 0, 0, 1]);
        p
    }

    #[test]
    fn walker_finds_answer_name() {
        let p = shaped_input();
        let name = walk_answer_name(&p).expect("well-formed");
        assert_eq!(name.start, 20);
        assert_eq!(name.term, 23);
    }

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let base = shaped_input();
        let run = |seed| {
            let mut m = Mutator::new(seed);
            let mut out = Vec::new();
            let mut all = Vec::new();
            for _ in 0..50 {
                m.mutate(&base, Some(&base), &mut out);
                all.extend_from_slice(&out);
            }
            all
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mutations_respect_max_input() {
        let base = shaped_input();
        let mut m = Mutator::new(1);
        let mut out = Vec::new();
        for _ in 0..500 {
            m.mutate(&base, None, &mut out);
            assert!(out.len() <= MAX_INPUT);
        }
    }

    #[test]
    fn label_extend_grows_the_name() {
        let base = shaped_input();
        let mut m = Mutator::new(3);
        let mut out = base.clone();
        m.label_extend(&mut out);
        let before = walk_answer_name(&base).unwrap();
        let after = walk_answer_name(&out).unwrap();
        assert!(after.term - after.start > before.term - before.start);
    }

    #[test]
    fn pointer_bend_installs_a_pointer() {
        let base = shaped_input();
        let mut m = Mutator::new(4);
        let mut out = base.clone();
        m.pointer_bend(&mut out);
        let name = walk_answer_name(&out).unwrap();
        assert_eq!(out[name.term] & 0xC0, 0xC0, "terminator is now a pointer");
    }

    #[test]
    fn havoc_handles_tiny_inputs() {
        let mut m = Mutator::new(5);
        let mut out = Vec::new();
        for _ in 0..100 {
            m.mutate(&[], None, &mut out);
        }
        m.mutate(&[1], None, &mut out);
    }
}
