//! Coverage-novelty admission and the corpus itself.

use cml_vm::{CoverageMap, COV_MAP_SIZE};
use rand::rngs::StdRng;
use rand::Rng;

/// Buckets a raw hit count into the AFL count classes — one bit per
/// class, so "this edge fired twice" and "this edge fired a hundred
/// times" are distinct novelty signals while byte-level count noise is
/// not.
fn class_bit(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1 << 0,
        2 => 1 << 1,
        3 => 1 << 2,
        4..=7 => 1 << 3,
        8..=15 => 1 << 4,
        16..=31 => 1 << 5,
        32..=127 => 1 << 6,
        _ => 1 << 7,
    }
}

/// Folds one counter into its virgin byte; `true` when it shows a count
/// class the byte had not seen.
#[inline]
fn fold(seen: &mut u8, count: u8) -> bool {
    let bit = class_bit(count);
    let novel = bit & !*seen != 0;
    *seen |= bit;
    novel
}

/// The campaign-global "virgin map": which count classes each edge has
/// ever shown. An input is admitted to the corpus iff it lights a class
/// bit no earlier input did.
#[derive(Debug, Clone)]
pub struct CoverageAccum {
    virgin: Vec<u8>,
}

impl Default for CoverageAccum {
    fn default() -> Self {
        CoverageAccum::new()
    }
}

impl CoverageAccum {
    /// An accumulator that has seen nothing.
    pub fn new() -> Self {
        CoverageAccum {
            virgin: vec![0u8; COV_MAP_SIZE],
        }
    }

    /// Folds one execution's coverage map in, walking only the
    /// counters it lit ([`CoverageMap::touched`]). Returns `true` when
    /// the run showed any new edge/count-class — the admission signal.
    /// Same verdict and virgin map as
    /// [`note_new`](CoverageAccum::note_new) of the map's bytes.
    pub fn note_touched(&mut self, map: &CoverageMap) -> bool {
        let counts = map.bytes();
        let mut novel = false;
        for &idx in map.touched() {
            let idx = idx as usize;
            novel |= fold(&mut self.virgin[idx], counts[idx]);
        }
        novel
    }

    /// Folds a raw counter map in. Returns `true` when it showed any
    /// new edge/count-class. This scans the whole map, skipping zero
    /// bytes a word at a time; the fuzz harness folds through
    /// [`note_touched`](CoverageAccum::note_touched) instead, which
    /// costs only the edges an execution lit.
    pub fn note_new(&mut self, map: &[u8]) -> bool {
        let mut novel = false;
        let words = self.virgin.len().min(map.len()) / 8;
        for (seen8, map8) in self.virgin[..words * 8]
            .chunks_exact_mut(8)
            .zip(map[..words * 8].chunks_exact(8))
        {
            if u64::from_ne_bytes(map8.try_into().expect("exact chunk")) == 0 {
                continue;
            }
            for (seen, &count) in seen8.iter_mut().zip(map8) {
                novel |= fold(seen, count);
            }
        }
        for (seen, &count) in self.virgin[words * 8..].iter_mut().zip(&map[words * 8..]) {
            novel |= fold(seen, count);
        }
        novel
    }

    /// Distinct edges observed so far across the whole campaign.
    pub fn edges_seen(&self) -> usize {
        self.virgin.iter().filter(|&&b| b != 0).count()
    }
}

/// The admitted inputs, in admission order (which is deterministic per
/// seed — the driver's reproducibility contract depends on it).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<Vec<u8>>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Admits an input (unconditionally — the caller owns the novelty
    /// decision via [`CoverageAccum::note_new`]).
    pub fn admit(&mut self, input: &[u8]) {
        self.entries.push(input.to_vec());
    }

    /// Number of admitted inputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in admission order.
    pub fn entries(&self) -> &[Vec<u8>] {
        &self.entries
    }

    /// Picks a base input uniformly.
    pub fn pick<'a>(&'a self, rng: &mut StdRng) -> &'a [u8] {
        &self.entries[rng.gen_range(0usize..self.entries.len())]
    }

    /// Picks a splice donor distinct from `avoid` when possible.
    pub fn pick_donor<'a>(&'a self, rng: &mut StdRng, avoid: &[u8]) -> Option<&'a [u8]> {
        if self.entries.len() < 2 {
            return None;
        }
        let idx = rng.gen_range(0usize..self.entries.len());
        let e = &self.entries[idx];
        if e.as_slice() == avoid {
            // One deterministic retry; identical donors are harmless.
            let idx2 = (idx + 1) % self.entries.len();
            return Some(&self.entries[idx2]);
        }
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn novelty_fires_once_per_class() {
        let mut acc = CoverageAccum::new();
        let mut map = vec![0u8; COV_MAP_SIZE];
        map[5] = 1;
        assert!(acc.note_new(&map), "first sighting is novel");
        assert!(!acc.note_new(&map), "same map again is not");
        map[5] = 2;
        assert!(acc.note_new(&map), "new count class is novel");
        map[5] = 3;
        assert!(acc.note_new(&map));
        map[5] = 6;
        assert!(acc.note_new(&map), "4..=7 class");
        map[5] = 7;
        assert!(!acc.note_new(&map), "same class");
        assert_eq!(acc.edges_seen(), 1);
    }

    #[test]
    fn touched_fold_matches_the_full_map_fold() {
        let mut rng = StdRng::seed_from_u64(0xF01D);
        // 150 locations give ~22k distinct edges, so indices collide.
        let locs: Vec<u32> = (0..150).map(|_| rng.gen()).collect();
        let mut map = CoverageMap::new();
        let (mut touched, mut full) = (CoverageAccum::new(), CoverageAccum::new());
        let mut novel_execs = 0;
        for exec in 0..300 {
            // Short runs over a few locations, so later execs often
            // bring nothing new and count classes keep climbing.
            let pool = rng.gen_range(2usize..locs.len());
            for _ in 0..rng.gen_range(0usize..400) {
                map.note(locs[rng.gen_range(0usize..pool)]);
            }
            if exec % 7 == 0 {
                // A tight loop saturates its edges at 255.
                for _ in 0..300 {
                    map.note(locs[0]);
                    map.note(locs[1]);
                }
            }
            let nonzero = map.bytes().iter().filter(|&&c| c != 0).count();
            assert_eq!(map.edges(), nonzero, "exec {exec}");
            let verdict = touched.note_touched(&map);
            assert_eq!(verdict, full.note_new(map.bytes()), "exec {exec}: verdict");
            assert_eq!(touched.virgin, full.virgin, "exec {exec}: virgin map");
            novel_execs += verdict as u32;
            map.reset();
            assert!(map.bytes().iter().all(|&c| c == 0), "exec {exec}: reset");
        }
        assert!(
            novel_execs > 10 && novel_execs < 290,
            "{novel_execs} novel execs"
        );
    }

    #[test]
    fn corpus_preserves_admission_order() {
        let mut c = Corpus::new();
        c.admit(b"one");
        c.admit(b"two");
        assert_eq!(c.entries()[0], b"one");
        assert_eq!(c.entries()[1], b"two");
        let mut rng = StdRng::seed_from_u64(1);
        let picked = c.pick(&mut rng);
        assert!(picked == b"one" || picked == b"two");
        assert!(c.pick_donor(&mut rng, b"one").is_some());
        let mut solo = Corpus::new();
        solo.admit(b"x");
        assert!(solo.pick_donor(&mut rng, b"x").is_none());
    }
}
