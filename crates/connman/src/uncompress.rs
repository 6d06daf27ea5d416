//! The `get_name` port: DNS name decompression into a stack buffer.
//!
//! The real code (Connman `dnsproxy.c`) walks the response packet's
//! label chain, appending each label's length byte and content to the
//! caller's `name` buffer:
//!
//! ```c
//! name[(*name_len)++] = label_len;
//! memcpy(name + *name_len, p + 1, label_len + 1);
//! *name_len += label_len;
//! ```
//!
//! Versions ≤ 1.34 never compare `*name_len` against the buffer size —
//! that is CVE-2017-12865. Version 1.35 returns `-ENOBUFS` when the
//! label would overflow. Both behaviours are implemented here, selected
//! by [`ConnmanVersion`]; the vulnerable path writes straight through
//! the simulated MMU, so the overflow lands in real (simulated) stack
//! memory.

use std::ops::Range;

use cml_vm::{Addr, Fault, Machine};

use crate::{cov, ConnmanVersion, NAME_BUFFER_SIZE};

/// Why decompression stopped without producing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UncompressError {
    /// The packet ended mid-name; the daemon dumps the response and
    /// keeps running.
    Malformed,
    /// Too many compression-pointer hops (both versions cap the walk so
    /// a pointer loop cannot hang the daemon forever).
    PointerLoop,
    /// The 1.35 bounds check fired (`-ENOBUFS`); never returned by
    /// vulnerable versions.
    BufferFull {
        /// Bytes the name would have needed.
        needed: usize,
    },
    /// The overflowing write itself faulted (ran off the stack
    /// mapping) — an immediate crash.
    MachineFault(Fault),
}

/// Result of a successful walk: how many bytes were written into the
/// buffer and where the reader ended up in the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uncompressed {
    /// Bytes written to the `name` buffer (length bytes + labels).
    pub name_len: usize,
    /// Packet offset just past the name's in-place bytes.
    pub next_offset: usize,
}

/// Maximum pointer hops before either version gives up.
pub const MAX_HOPS: usize = 128;

/// Ports `get_name`: decompresses the name at `offset` in `packet` into
/// the buffer at `buf_addr` in machine memory.
///
/// For vulnerable versions the write is unchecked: names longer than
/// [`NAME_BUFFER_SIZE`] keep writing past the buffer — over locals,
/// saved registers and the return address.
///
/// # Errors
///
/// Returns an [`UncompressError`]; only patched versions produce
/// [`UncompressError::BufferFull`].
pub fn get_name(
    machine: &mut Machine,
    version: ConnmanVersion,
    packet: &[u8],
    offset: usize,
    buf_addr: Addr,
    pc: Addr,
) -> Result<Uncompressed, UncompressError> {
    get_name_into(
        machine,
        version,
        packet,
        offset,
        buf_addr,
        NAME_BUFFER_SIZE,
        pc,
    )
}

/// Like [`get_name`] but with an explicit buffer capacity — the §V
/// adaptation experiments model other services' (smaller or larger)
/// stack buffers with it. The *vulnerable* path still ignores the
/// capacity entirely; only the patched bounds check consults it.
///
/// # Errors
///
/// Returns an [`UncompressError`]; only patched versions produce
/// [`UncompressError::BufferFull`].
pub fn get_name_into(
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
    // The wire already stores each `label_len` immediately followed by
    // the label bytes, and a run of labels with no pointer between them
    // ends in the root byte: exactly the layout the buffer wants. So the
    // C loop's per-label
    //
    //   name[(*name_len)++] = label_len;
    //   memcpy(name + *name_len, p + 1, label_len); *name_len += label_len;
    //
    // collapses into one copy per contiguous run, straight from the
    // packet. `run` is the run's first packet offset; it lands in the
    // buffer at `run_name`. The run is flushed before any other event
    // (a pointer hop, a malformed byte, the 1.35 bounds check firing,
    // the end of the name), so coverage notes keep their order.
    let mut run = pos;
    let mut run_name = 0usize;
    loop {
        let Some(&byte) = packet.get(pos) else {
            flush_run(machine, packet, run..pos, buf_addr, run_name, pc)?;
            machine.cov_note(cov::NAME_MALFORMED);
            return Err(UncompressError::Malformed);
        };
        let len = byte as usize;
        if len == 0 {
            // Trailing root byte: the run's last.
            pos += 1;
            name_len += 1;
            flush_run(machine, packet, run..pos, buf_addr, run_name, pc)?;
            break;
        }
        if len & 0xC0 != 0 {
            // A pointer or a reserved-bit byte ends the run.
            flush_run(machine, packet, run..pos, buf_addr, run_name, pc)?;
            if len & 0xC0 != 0xC0 {
                machine.cov_note(cov::NAME_MALFORMED);
                return Err(UncompressError::Malformed);
            }
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
            run = pos;
            run_name = name_len;
            continue;
        }
        if pos + 1 + len > packet.len() {
            flush_run(machine, packet, run..pos, buf_addr, run_name, pc)?;
            machine.cov_note(cov::NAME_MALFORMED);
            return Err(UncompressError::Malformed);
        }
        if !version.is_vulnerable() {
            // The 1.35 fix: refuse labels that would overflow the buffer
            // (length byte + label + eventual terminator).
            if name_len + len + 2 > buf_cap {
                flush_run(machine, packet, run..pos, buf_addr, run_name, pc)?;
                machine.cov_note(cov::NAME_FULL | cov::bucket(name_len + len + 2));
                return Err(UncompressError::BufferFull {
                    needed: name_len + len + 2,
                });
            }
        }
        name_len += 1 + len;
        pos += 1 + len;
    }
    machine.cov_note(cov::NAME_OK | cov::bucket(name_len));
    Ok(Uncompressed {
        name_len,
        next_offset: resume.unwrap_or(pos),
    })
}

/// Writes one run of contiguous wire labels, `packet[run]`, into the
/// buffer at offset `name_base` with a single `write_bytes`, then notes
/// each label (bucketed growth of the name buffer: the gradient that
/// walks the fuzzer's corpus toward and past the 1024-byte boundary).
///
/// `write_bytes` stops at the first inaccessible byte with everything
/// before it written, so a fault leaves the same prefix as per-label
/// writes would; only the labels written whole before it are noted.
fn flush_run(
    machine: &mut Machine,
    packet: &[u8],
    run: Range<usize>,
    buf_addr: Addr,
    name_base: usize,
    pc: Addr,
) -> Result<(), UncompressError> {
    if run.is_empty() {
        return Ok(());
    }
    let bytes = &packet[run];
    let at = buf_addr.wrapping_add(name_base as u32);
    let res = machine.mem_mut().write_bytes(at, bytes, pc);
    let written = match &res {
        Ok(()) => bytes.len(),
        Err(Fault::UnmappedWrite { addr, .. } | Fault::ProtectedWrite { addr, .. }) => {
            addr.wrapping_sub(at) as usize
        }
        Err(_) => 0,
    };
    let mut end = 0;
    // A zero length byte is the root, which ends the run.
    while let Some(&len) = bytes.get(end).filter(|&&len| len != 0) {
        end += 1 + len as usize;
        if end > written {
            break;
        }
        machine.cov_note(cov::LABEL | cov::bucket(name_base + end));
    }
    res.map_err(|f| {
        machine.cov_note(cov::NAME_FAULT);
        UncompressError::MachineFault(f)
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use cml_image::{Arch, Perms, SectionKind};

    fn machine() -> Machine {
        let mut m = Machine::new(Arch::X86);
        m.mem_mut()
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x2000, Perms::RW);
        m
    }

    fn packet_with_labels(labels: &[&[u8]]) -> Vec<u8> {
        let mut p = Vec::new();
        for l in labels {
            p.push(l.len() as u8);
            p.extend_from_slice(l);
        }
        p.push(0);
        p
    }

    #[test]
    fn normal_name_lands_in_buffer() {
        let mut m = machine();
        let packet = packet_with_labels(&[b"www", b"example", b"com"]);
        let out = get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8100, 0).unwrap();
        assert_eq!(out.name_len, packet.len());
        assert_eq!(out.next_offset, packet.len());
        assert_eq!(
            m.mem().read_bytes(0x8100, packet.len(), 0).unwrap(),
            packet,
            "wire-format labels copied verbatim"
        );
    }

    #[test]
    fn vulnerable_version_overflows_buffer() {
        let mut m = machine();
        let labels: Vec<Vec<u8>> = (0..20).map(|_| vec![0x41u8; 63]).collect();
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        let packet = packet_with_labels(&refs);
        let out = get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8100, 0).unwrap();
        assert!(out.name_len > NAME_BUFFER_SIZE, "{}", out.name_len);
        // Bytes beyond the 1024-byte buffer were really written.
        assert_eq!(m.mem().read_u8(0x8100 + 1024 + 10, 0).unwrap(), 0x41);
    }

    #[test]
    fn patched_version_stops_at_boundary() {
        let mut m = machine();
        let labels: Vec<Vec<u8>> = (0..20).map(|_| vec![0x41u8; 63]).collect();
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        let packet = packet_with_labels(&refs);
        let err = get_name(&mut m, ConnmanVersion::V1_35, &packet, 0, 0x8100, 0).unwrap_err();
        assert!(matches!(err, UncompressError::BufferFull { .. }));
        // Nothing past the buffer was touched.
        assert_eq!(m.mem().read_u8(0x8100 + 1024 + 10, 0).unwrap(), 0);
    }

    #[test]
    fn patched_version_accepts_max_fitting_name() {
        let mut m = machine();
        // 15 labels of 63 bytes: 15 length bytes + 945... each label is
        // 64 buffer bytes (length + content), plus the root byte.
        let labels: Vec<Vec<u8>> = (0..15).map(|_| vec![0x42u8; 63]).collect();
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        let packet = packet_with_labels(&refs);
        let out = get_name(&mut m, ConnmanVersion::V1_35, &packet, 0, 0x8100, 0).unwrap();
        assert_eq!(out.name_len, 15 * 64 + 1);
    }

    #[test]
    fn pointer_followed_and_resume_reported() {
        // "x" at 0; at 3: "y" + pointer to 0.
        let packet = vec![1, b'x', 0, 1, b'y', 0xC0, 0x00];
        let mut m = machine();
        let out = get_name(&mut m, ConnmanVersion::V1_34, &packet, 3, 0x8100, 0).unwrap();
        assert_eq!(out.next_offset, 7);
        // Buffer holds "y" label then "x" label then root.
        assert_eq!(
            m.mem().read_bytes(0x8100, 5, 0).unwrap(),
            vec![1, b'y', 1, b'x', 0]
        );
    }

    #[test]
    fn pointer_loop_capped() {
        // Pointer to itself.
        let packet = vec![0xC0, 0x00];
        let mut m = machine();
        assert_eq!(
            get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8100, 0),
            Err(UncompressError::PointerLoop)
        );
    }

    #[test]
    fn truncated_packet_malformed() {
        let packet = vec![5, b'a'];
        let mut m = machine();
        assert_eq!(
            get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8100, 0),
            Err(UncompressError::Malformed)
        );
    }

    #[test]
    fn overflow_off_the_stack_faults() {
        let mut m = Machine::new(Arch::X86);
        // Tiny stack: 0x100 bytes.
        m.mem_mut()
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x100, Perms::RW);
        let labels: Vec<Vec<u8>> = (0..20).map(|_| vec![0x41u8; 63]).collect();
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_slice()).collect();
        let packet = packet_with_labels(&refs);
        let err = get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8000, 0).unwrap_err();
        assert!(matches!(
            err,
            UncompressError::MachineFault(Fault::UnmappedWrite { .. })
        ));
    }

    #[test]
    fn reserved_label_bits_malformed() {
        let packet = vec![0x40, 0x00];
        let mut m = machine();
        assert_eq!(
            get_name(&mut m, ConnmanVersion::V1_34, &packet, 0, 0x8100, 0),
            Err(UncompressError::Malformed)
        );
    }
}
