//! Differential test of the run-coalescing [`get_name_into`] against the
//! per-label loop it replaced, which lives on here only as an oracle.
//!
//! Both walk the same generated packets into identically laid out
//! machines — vulnerable and patched, with pointer hops and loops,
//! malformed tails, and buffers placed so a run crosses into unmapped
//! or read-only memory — with coverage armed and the sanitizer on and
//! off. Results, memory, coverage-map bytes, fault values and the
//! sanitizer record must all agree.

use cml_image::{Arch, Perms, SectionKind};
use cml_vm::{Addr, Machine};

use super::{get_name_into, UncompressError, Uncompressed, MAX_HOPS};
use crate::{cov, ConnmanVersion, NAME_BUFFER_SIZE};

/// The replaced walk: one `write_bytes` per label, one `write_u8` for
/// the root byte.
fn get_name_per_label(
    machine: &mut Machine,
    version: ConnmanVersion,
    packet: &[u8],
    offset: usize,
    buf_addr: Addr,
    buf_cap: usize,
    pc: Addr,
) -> Result<Uncompressed, UncompressError> {
    let mut pos = offset;
    let mut name_len = 0usize;
    let mut hops = 0usize;
    let mut resume: Option<usize> = None;
    loop {
        let len = match packet.get(pos) {
            Some(&b) => b as usize,
            None => {
                machine.cov_note(cov::NAME_MALFORMED);
                return Err(UncompressError::Malformed);
            }
        };
        if len == 0 {
            pos += 1;
            break;
        }
        if len & 0xC0 == 0xC0 {
            let lo = match packet.get(pos + 1) {
                Some(&b) => b as usize,
                None => {
                    machine.cov_note(cov::NAME_MALFORMED);
                    return Err(UncompressError::Malformed);
                }
            };
            let target = ((len & 0x3F) << 8) | lo;
            hops += 1;
            machine.cov_note(cov::HOP | cov::bucket(hops));
            if hops > MAX_HOPS {
                machine.cov_note(cov::NAME_LOOP | cov::bucket(name_len));
                return Err(UncompressError::PointerLoop);
            }
            if resume.is_none() {
                resume = Some(pos + 2);
            }
            pos = target;
            continue;
        }
        if len & 0xC0 != 0 {
            machine.cov_note(cov::NAME_MALFORMED);
            return Err(UncompressError::Malformed);
        }
        let Some(chunk) = packet.get(pos..pos + 1 + len) else {
            machine.cov_note(cov::NAME_MALFORMED);
            return Err(UncompressError::Malformed);
        };
        if !version.is_vulnerable() && name_len + len + 2 > buf_cap {
            machine.cov_note(cov::NAME_FULL | cov::bucket(name_len + len + 2));
            return Err(UncompressError::BufferFull {
                needed: name_len + len + 2,
            });
        }
        if let Err(f) =
            machine
                .mem_mut()
                .write_bytes(buf_addr.wrapping_add(name_len as u32), chunk, pc)
        {
            machine.cov_note(cov::NAME_FAULT);
            return Err(UncompressError::MachineFault(f));
        }
        name_len += 1 + len;
        pos += 1 + len;
        machine.cov_note(cov::LABEL | cov::bucket(name_len));
    }
    if let Err(f) = machine
        .mem_mut()
        .write_u8(buf_addr.wrapping_add(name_len as u32), 0, pc)
    {
        machine.cov_note(cov::NAME_FAULT);
        return Err(UncompressError::MachineFault(f));
    }
    name_len += 1;
    machine.cov_note(cov::NAME_OK | cov::bucket(name_len));
    Ok(Uncompressed {
        name_len,
        next_offset: resume.unwrap_or(pos),
    })
}

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
}

/// A packet of label runs joined by pointer hops (forward, backward,
/// self-loops), optionally ending in a reserved-bit byte or truncated.
fn packet(rng: &mut Rng) -> Vec<u8> {
    let mut p = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let segment = p.len();
        for _ in 0..rng.below(24) {
            let len = match rng.below(4) {
                0 => 63,
                1 => 1 + rng.below(4),
                _ => 1 + rng.below(63),
            };
            p.push(len as u8);
            p.extend((0..len).map(|i| (0x41 + i % 26) as u8));
        }
        let target = match rng.below(6) {
            0 => {
                p.push(0);
                continue;
            }
            // Back to somewhere already written, or to itself.
            1 => rng.below(p.len() + 1),
            // Back to this segment's start: a loop.
            2 => segment,
            // Past the segment: forward, possibly off the end.
            3 => p.len() + 2 + rng.below(64),
            _ => continue,
        };
        p.extend_from_slice(&[0xC0 | (target >> 8) as u8, target as u8]);
    }
    match rng.below(8) {
        0 => p.push([0x40, 0x80][rng.below(2)]),
        1 => p.truncate(rng.below(p.len() + 1)),
        2 => p.push(0xC0),
        _ => p.push(0),
    }
    p
}

/// Where the name buffer sits: room to spare, against the end of the
/// mapping, or against a read-only region.
fn machine(rng: &mut Rng) -> (Machine, Addr) {
    let mut m = Machine::new(Arch::X86);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    let buf = match rng.below(3) {
        0 => 0x8100,
        1 => 0x8FFF - rng.below(1500) as Addr,
        _ => {
            m.mem_mut().map("ro", None, 0x9000, 0x1000, Perms::READ);
            0x8FFF - rng.below(1500) as Addr
        }
    };
    m.set_coverage_enabled(true);
    (m, buf)
}

type Walk = fn(
    &mut Machine,
    ConnmanVersion,
    &[u8],
    usize,
    Addr,
    usize,
    Addr,
) -> Result<Uncompressed, UncompressError>;

fn memory(m: &Machine) -> Vec<Vec<u8>> {
    m.mem()
        .regions()
        .iter()
        .map(|r| r.data().to_vec())
        .collect()
}

#[test]
fn coalesced_runs_match_the_per_label_loop() {
    let mut rng = Rng(0x5EED_CA11);
    let mut outcomes = [0usize; 5];
    for case in 0..4000 {
        let p = packet(&mut rng);
        let (template, buf) = machine(&mut rng);
        let version = [ConnmanVersion::V1_34, ConnmanVersion::V1_35][rng.below(2)];
        let cap = [NAME_BUFFER_SIZE, 64 + rng.below(1024)][rng.below(2)];
        let offset = if rng.below(4) == 0 {
            rng.below(p.len() + 1)
        } else {
            0
        };
        let sanitize = rng.below(2) == 0;

        let (mut coalesced, mut reference) = (template.clone(), template);
        let mut results = Vec::new();
        for (m, walk) in [
            (&mut coalesced, get_name_into as Walk),
            (&mut reference, get_name_per_label as Walk),
        ] {
            if sanitize {
                let zone_end = m.mem().region_containing(buf).unwrap().end();
                m.mem_mut().arm_redzone(buf, cap as u32, zone_end);
            }
            let res = walk(m, version, &p, offset, buf, cap, 0x77);
            // One trailing note, so a divergent last location shows in
            // the map too.
            m.cov_note(0xABCD);
            results.push((res, m.mem_mut().disarm_redzone()));
        }
        let ctx = format!("case {case}: {version} cap {cap} buf {buf:#x} sanitize {sanitize}");
        assert_eq!(results[0], results[1], "{ctx}");
        assert_eq!(memory(&coalesced), memory(&reference), "{ctx}");
        assert_eq!(
            coalesced.coverage().unwrap().bytes(),
            reference.coverage().unwrap().bytes(),
            "{ctx}"
        );
        outcomes[match &results[0].0 {
            Ok(_) => 0,
            Err(UncompressError::Malformed) => 1,
            Err(UncompressError::PointerLoop) => 2,
            Err(UncompressError::BufferFull { .. }) => 3,
            Err(UncompressError::MachineFault(_)) => 4,
        }] += 1;
    }
    // The generator reaches every outcome, so each path was compared.
    assert!(outcomes.iter().all(|&n| n >= 25), "{outcomes:?}");
}
