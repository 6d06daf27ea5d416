//! AFL-style edge-coverage bitmap for the fuzzing subsystem.
//!
//! The map is a fixed-size table of saturating 8-bit hit counters
//! indexed by `hash(prev) ^ hash(cur)` — the classic AFL edge encoding,
//! here riding the IR dispatch path: every block entry (and every
//! instruction on the single-step path) notes its location,
//! so two executions that traverse different control-flow edges light
//! up different counters even when they visit the same set of blocks.
//!
//! Because most of the simulated daemon's DNS parsing is *ported* code
//! running natively (it writes through the machine's MMU but executes
//! no guest instructions), the map also accepts **virtual edges** via
//! [`crate::Machine::cov_note`]: instrumentation points in the ported
//! `get_name` loop feed bucketed parse-progress locations into the same
//! map, exactly like compile-time instrumentation of a real target.
//! Guest edges and virtual edges share one `prev` register, so the
//! interleaving of boot-time execution and parse progress is itself an
//! observable path signal.
//!
//! The map also lists the index of every counter that went 0→1, in
//! first-hit order ([`CoverageMap::touched`]). A fuzz execution lights
//! a few hundred of the 8 Ki counters, so the fuzzer's novelty fold and
//! the per-input [`CoverageMap::reset`] walk that list rather than the
//! whole map, and an execution pays for the edges it lit.
//!
//! The hook is off by default and costs exploit runs a single `Option`
//! check per dispatched block, mirroring the shadow-memory sanitizer's
//! "pay only when armed" contract.

/// Number of counters in the edge map. A power of two so indexing is a
/// mask; 8 KiB keeps the whole map in L1 while leaving collision rates
/// low for a workload of this size (the real daemon lights up a few
/// hundred edges).
pub const COV_MAP_SIZE: usize = 1 << 13;

/// Mixes a location (a guest pc, or a virtual-edge id) into a
/// well-distributed 32-bit value. Multiplicative hashing by the golden
/// ratio, same recipe as the decode cache.
#[inline]
fn mix(loc: u32) -> u32 {
    let h = loc.wrapping_mul(0x9E37_79B1);
    h ^ (h >> 16)
}

/// [`mix`] exposed to the threaded-code IR lowering, which bakes the
/// mixed block-entry hash into a `Cov` op at build time so the dispatch
/// loop's coverage update is two loads, an xor and a saturating add.
#[inline]
pub(crate) fn premix(loc: u32) -> u32 {
    mix(loc)
}

/// A fixed-size edge-coverage map: saturating hit counters, the list
/// of counters lit since the last reset, and the rolling `prev`
/// location register.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    map: Box<[u8]>,
    /// Index of every nonzero counter, in first-hit order. A counter
    /// saturates rather than wraps, so each index appears exactly once.
    touched: Vec<u16>,
    prev: u32,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// A zeroed map.
    pub fn new() -> Self {
        CoverageMap {
            map: vec![0u8; COV_MAP_SIZE].into_boxed_slice(),
            // Room for every counter, so noting never reallocates.
            touched: Vec::with_capacity(COV_MAP_SIZE),
            prev: 0,
        }
    }

    /// Records one location: bumps the counter for the edge from the
    /// previously noted location to `loc`.
    #[inline]
    pub fn note(&mut self, loc: u32) {
        self.note_premixed(mix(loc));
    }

    /// Records one location whose [`premix`] hash was computed at IR
    /// build time. `note_premixed(premix(loc))` updates the map exactly
    /// like `note(loc)` — the differential suite holds the two dispatch
    /// modes to byte-identical maps.
    #[inline]
    pub(crate) fn note_premixed(&mut self, h: u32) {
        let idx = (self.prev ^ h) as usize & (COV_MAP_SIZE - 1);
        let c = &mut self.map[idx];
        if *c == 0 {
            self.touched.push(idx as u16);
        }
        *c = c.saturating_add(1);
        // Shift so that A→B and B→A land in different slots.
        self.prev = h >> 1;
    }

    /// Zeroes every counter and the `prev` register — called by the
    /// fuzzer between inputs so each execution reports its own edges.
    /// Only the touched counters are written, so a reset costs the edges
    /// the last execution lit, not the whole map.
    pub fn reset(&mut self) {
        for &idx in &self.touched {
            self.map[idx as usize] = 0;
        }
        self.touched.clear();
        self.prev = 0;
    }

    /// The raw counter bytes ([`COV_MAP_SIZE`] of them).
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// The index of every nonzero counter, in first-hit order: the
    /// sparse view of [`bytes`](CoverageMap::bytes) the fuzzer folds.
    pub fn touched(&self) -> &[u16] {
        &self.touched
    }

    /// How many distinct edges have a nonzero counter.
    pub fn edges(&self) -> usize {
        self.touched.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_order_sensitive() {
        let mut ab = CoverageMap::new();
        ab.note(0x1000);
        ab.note(0x2000);
        let mut ba = CoverageMap::new();
        ba.note(0x2000);
        ba.note(0x1000);
        assert_ne!(ab.bytes(), ba.bytes(), "A→B must differ from B→A");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = CoverageMap::new();
        for _ in 0..300 {
            m.note(0x4000);
            m.note(0x4004);
        }
        assert_eq!(m.bytes().iter().max().copied(), Some(255));
        assert!(m.edges() >= 2);
    }

    #[test]
    fn premixed_note_matches_plain_note() {
        let mut plain = CoverageMap::new();
        let mut pre = CoverageMap::new();
        for loc in [0x1000u32, 0x2044, 0xAAAA_0001, 7] {
            plain.note(loc);
            pre.note_premixed(premix(loc));
        }
        assert_eq!(plain.bytes(), pre.bytes(), "same edges, same map");
    }

    #[test]
    fn touched_list_is_exactly_the_nonzero_counters() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC0DE);
        // 150 locations give ~22k distinct edges, so indices collide.
        let locs: Vec<u32> = (0..150).map(|_| rng.gen()).collect();
        let mut m = CoverageMap::new();
        for exec in 0..200 {
            for _ in 0..rng.gen_range(0usize..1500) {
                let loc = locs[rng.gen_range(0usize..locs.len())];
                if rng.gen_range(0u32..2) == 0 {
                    m.note(loc);
                } else {
                    m.note_premixed(premix(loc));
                }
            }
            if exec % 3 == 0 {
                // A tight loop saturates its edges at 255.
                for _ in 0..300 {
                    m.note(locs[0]);
                    m.note(locs[1]);
                }
                assert!(m.bytes().contains(&255));
            }
            let nonzero: Vec<usize> = (0..COV_MAP_SIZE).filter(|&i| m.bytes()[i] != 0).collect();
            let mut touched: Vec<usize> = m.touched().iter().map(|&i| i as usize).collect();
            touched.sort_unstable();
            assert_eq!(
                touched, nonzero,
                "exec {exec}: each lit counter listed once"
            );
            assert_eq!(m.edges(), nonzero.len());
            m.reset();
            assert!(m.bytes().iter().all(|&c| c == 0), "exec {exec}: reset");
            assert_eq!(m.edges(), 0);
        }
    }

    #[test]
    fn reset_clears_counters_and_history() {
        let mut m = CoverageMap::new();
        m.note(0xAA);
        m.note(0xBB);
        let first = m.bytes().to_vec();
        m.reset();
        assert_eq!(m.edges(), 0);
        m.note(0xAA);
        m.note(0xBB);
        assert_eq!(m.bytes(), &first[..], "reset restarts the edge stream");
    }
}
