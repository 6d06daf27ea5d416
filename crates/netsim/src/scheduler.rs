//! The simulated clock and its latency draws.
//!
//! The recursive-resolution simulation needs packets to arrive in a
//! realistic (latency-ordered) sequence, and the fleet harness needs
//! that sequence to be *reproducible*: the same seed must replay the
//! same trace byte for byte at any worker count. The resolver walks
//! one exchange at a time, so its event clock is a [`SimTime`] plus a
//! count of latency draws taken, and every link delay is a pure
//! function of `(seed, link, draw index)` — no RNG state threads
//! through the run. See [`link_latency_us`].
//!
//! Time is a virtual clock in microseconds; nothing here reads wall
//! clocks, so a simulation is a deterministic function of its inputs.

/// One tick of simulated time, in microseconds.
pub type SimTime = u64;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. The
/// same mixing the fleet runner's `derive_seed` uses, duplicated here
/// because `cml-netsim` sits below `cml-core` in the crate graph.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Smallest latency any link ever exhibits, in microseconds.
pub const MIN_LATENCY_US: SimTime = 200;

/// Span of the jitter above [`MIN_LATENCY_US`], in microseconds.
pub const JITTER_SPAN_US: SimTime = 1_800;

/// The per-hop latency draw: a pure function of `(seed, link, event
/// index)` in `MIN_LATENCY_US..MIN_LATENCY_US + JITTER_SPAN_US`.
///
/// Because the draw depends only on its arguments, two simulations with
/// the same seed see identical delays regardless of scheduling order,
/// worker count, or how many *other* links exist — the property the
/// determinism suites pin.
#[inline]
pub fn link_latency_us(seed: u64, link: u64, event_index: u64) -> SimTime {
    let h = mix64(seed ^ mix64(link) ^ mix64(event_index.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    MIN_LATENCY_US + h % JITTER_SPAN_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_draw_is_pure_and_bounded() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            for link in [0u64, 7, u64::MAX] {
                for idx in [0u64, 1, 1_000_000] {
                    let a = link_latency_us(seed, link, idx);
                    let b = link_latency_us(seed, link, idx);
                    assert_eq!(a, b, "pure function of its arguments");
                    assert!((MIN_LATENCY_US..MIN_LATENCY_US + JITTER_SPAN_US).contains(&a));
                }
            }
        }
    }

    #[test]
    fn latency_draw_varies_by_link_and_index() {
        let base = link_latency_us(42, 1, 0);
        let draws: Vec<_> = (0..16)
            .map(|i| link_latency_us(42, 1, i))
            .chain((1..16).map(|l| link_latency_us(42, l, 0)))
            .collect();
        assert!(
            draws.iter().any(|&d| d != base),
            "jitter must actually jitter: {draws:?}"
        );
    }
}
