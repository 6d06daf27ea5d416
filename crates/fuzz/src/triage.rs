//! Crash triage: stable deduplication keys and input minimization.

use std::fmt;

use cml_vm::{Addr, Fault};

/// Rounds an overflow extent up to a power of two, so "overflowed by
/// 277 bytes" and "overflowed by 312 bytes" triage to the same site
/// while an order-of-magnitude difference does not.
fn extent_bucket(extent: u32) -> u32 {
    extent.max(1).next_power_of_two()
}

/// Where a crash happened: the identity [`crash_key`] renders, as a
/// `Copy` value. Two sites are equal exactly when their keys are, so a
/// campaign deduplicates crashes without formatting a key per crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A sanitizer finding: the buffer, the pc of the offending store,
    /// and the extent's power-of-two bucket.
    Redzone {
        /// Base address of the overflowed buffer.
        buffer: Addr,
        /// Program counter of the first out-of-bounds store.
        pc: Addr,
        /// The overflow extent, rounded up to a power of two.
        bucket: u32,
    },
    /// A fault that carries a pc: its kind (`"unmapped-read"`, …) and pc.
    At(&'static str, Addr),
    /// A site that is its whole key: `"canary-smashed"`, `"step-limit"`,
    /// or an oracle escape (`"oracle-escape-compromised"`, …).
    Named(&'static str),
}

impl CrashSite {
    /// The site of `fault`.
    pub fn of(fault: &Fault) -> Self {
        use CrashSite::At;
        match *fault {
            Fault::RedzoneViolation {
                buffer, pc, extent, ..
            } => CrashSite::Redzone {
                buffer,
                pc,
                bucket: extent_bucket(extent),
            },
            Fault::UnmappedRead { pc, .. } => At("unmapped-read", pc),
            Fault::UnmappedWrite { pc, .. } => At("unmapped-write", pc),
            Fault::UnmappedFetch { pc } => At("unmapped-fetch", pc),
            Fault::ProtectedRead { pc, .. } => At("protected-read", pc),
            Fault::ProtectedWrite { pc, .. } => At("protected-write", pc),
            Fault::NxViolation { pc, .. } => At("nx", pc),
            Fault::IllegalInstruction { pc, .. } => At("illegal-insn", pc),
            Fault::UnalignedFetch { pc } => At("unaligned-fetch", pc),
            Fault::UnknownSyscall { pc, .. } => At("unknown-syscall", pc),
            Fault::CfiViolation { pc, .. } => At("cfi", pc),
            Fault::CanarySmashed { .. } => CrashSite::Named("canary-smashed"),
            Fault::StepLimit { .. } => CrashSite::Named("step-limit"),
            ref other => At("fault", other.pc().unwrap_or(0)),
        }
    }
}

/// Renders the site's deduplication key.
impl fmt::Display for CrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashSite::Redzone { buffer, pc, bucket } => {
                write!(f, "redzone-{buffer:08x}-pc{pc:08x}-x{bucket:x}")
            }
            CrashSite::At(kind, pc) => write!(f, "{kind}-pc{pc:08x}"),
            CrashSite::Named(key) => f.write_str(key),
        }
    }
}

/// A stable, human-readable deduplication key for a fault.
///
/// Sanitizer findings key on the fault *site* — buffer address, pc of
/// the offending store, and the extent's power-of-two bucket — so a
/// thousand inputs that all overflow the same `parse_response` buffer
/// collapse into one crash. Other faults key on their kind and pc.
pub fn crash_key(fault: &Fault) -> String {
    CrashSite::of(fault).to_string()
}

/// Deterministic ddmin-style minimization: repeatedly tries dropping
/// chunks (halves, then quarters, down to single bytes) and keeps any
/// reduction that still reproduces `same_crash`. `same_crash` is called
/// once per candidate, so the caller can count those executions against
/// its budget; minimization stops early when `same_crash` starts
/// returning `None` budget-out signals. Candidates are built in one
/// reused buffer, so a minimization allocates two buffers in all.
pub fn minimize<F>(input: &[u8], mut same_crash: F) -> Vec<u8>
where
    F: FnMut(&[u8]) -> Option<bool>,
{
    let mut best = input.to_vec();
    let mut candidate = Vec::with_capacity(best.len());
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 {
        let mut offset = 0usize;
        let mut reduced = false;
        while offset < best.len() && best.len() > 1 {
            let end = (offset + chunk).min(best.len());
            candidate.clear();
            candidate.extend_from_slice(&best[..offset]);
            candidate.extend_from_slice(&best[end..]);
            if candidate.is_empty() {
                offset = end;
                continue;
            }
            match same_crash(&candidate) {
                Some(true) => {
                    std::mem::swap(&mut best, &mut candidate);
                    reduced = true;
                    // Re-test from the same offset against the shorter input.
                }
                Some(false) => offset = end,
                None => return best, // budget exhausted
            }
        }
        if chunk == 1 && !reduced {
            break;
        }
        chunk /= 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redzone_keys_bucket_extent() {
        let a = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8500,
            extent: 277,
            pc: 0x1234,
        };
        let b = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8520,
            extent: 300,
            pc: 0x1234,
        };
        let c = Fault::RedzoneViolation {
            buffer: 0x8100,
            capacity: 1024,
            first: 0x8500,
            extent: 3000,
            pc: 0x1234,
        };
        assert_eq!(crash_key(&a), crash_key(&b), "same pow2 bucket");
        assert_ne!(crash_key(&a), crash_key(&c), "different magnitude");
    }

    #[test]
    fn distinct_sites_get_distinct_keys() {
        let w = Fault::UnmappedWrite { addr: 0x10, pc: 5 };
        let r = Fault::UnmappedRead { addr: 0x10, pc: 5 };
        assert_ne!(crash_key(&w), crash_key(&r));
    }

    #[test]
    fn keys_read_as_before_and_sites_compare_as_keys() {
        let perms = cml_image::Perms::RW;
        let faults = [
            (
                Fault::RedzoneViolation {
                    buffer: 0x8100,
                    capacity: 1024,
                    first: 0x8500,
                    extent: 277,
                    pc: 0x1234,
                },
                "redzone-00008100-pc00001234-x200",
            ),
            (
                Fault::UnmappedRead { addr: 1, pc: 0x10 },
                "unmapped-read-pc00000010",
            ),
            (
                Fault::UnmappedWrite { addr: 1, pc: 0x10 },
                "unmapped-write-pc00000010",
            ),
            (
                Fault::UnmappedFetch { pc: 0x4141_4141 },
                "unmapped-fetch-pc41414141",
            ),
            (
                Fault::ProtectedRead {
                    addr: 1,
                    perms,
                    pc: 0x10,
                },
                "protected-read-pc00000010",
            ),
            (
                Fault::ProtectedWrite {
                    addr: 1,
                    perms,
                    pc: 0x10,
                },
                "protected-write-pc00000010",
            ),
            (Fault::NxViolation { pc: 0x10, perms }, "nx-pc00000010"),
            (
                Fault::IllegalInstruction {
                    pc: 0x10,
                    bytes: [0; 4],
                },
                "illegal-insn-pc00000010",
            ),
            (
                Fault::UnalignedFetch { pc: 0x11 },
                "unaligned-fetch-pc00000011",
            ),
            (
                Fault::UnknownSyscall {
                    number: 9,
                    pc: 0x10,
                },
                "unknown-syscall-pc00000010",
            ),
            (
                Fault::CfiViolation {
                    target: 1,
                    expected: None,
                    pc: 0x10,
                },
                "cfi-pc00000010",
            ),
            (
                Fault::CanarySmashed {
                    found: 1,
                    expected: 2,
                },
                "canary-smashed",
            ),
            (Fault::StepLimit { limit: 5 }, "step-limit"),
        ];
        for (a, key) in &faults {
            assert_eq!(crash_key(a), *key);
            for (b, other) in &faults {
                assert_eq!(CrashSite::of(a) == CrashSite::of(b), key == other);
            }
        }
    }

    #[test]
    fn minimize_strips_irrelevant_bytes() {
        // Crash iff the input still contains byte 0x2A.
        let input: Vec<u8> = (0..64u8).collect();
        let out = minimize(&input, |c| Some(c.contains(&0x2A)));
        assert_eq!(out, vec![0x2A]);
    }

    #[test]
    fn minimize_respects_budget() {
        let input = vec![7u8; 32];
        let mut calls = 0;
        let out = minimize(&input, |_| {
            calls += 1;
            if calls > 3 {
                None
            } else {
                Some(false)
            }
        });
        assert_eq!(out, input, "no successful reduction before budget-out");
    }
}
