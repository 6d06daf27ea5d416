//! Sections of a binary image.

use std::fmt;

use crate::{Addr, Perms};

/// The role a section plays; determines default permissions and whether
/// the loader randomizes its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionKind {
    /// Program code (fixed base in a non-PIE binary).
    Text,
    /// Procedure linkage table stubs (fixed base).
    Plt,
    /// Global offset table (fixed base, writable).
    Got,
    /// Read-only constants (fixed base).
    Rodata,
    /// Initialized writable data (fixed base).
    Data,
    /// Uninitialized writable data — the paper's staging ground for the
    /// crafted `/bin/sh` string precisely because it is *not* randomized.
    Bss,
    /// Shared C library mapping (randomized under ASLR).
    Libc,
    /// The process stack (randomized under ASLR; executable only when no
    /// protections are enabled).
    Stack,
    /// The process heap.
    Heap,
}

impl SectionKind {
    /// Every section kind, in [`SectionKind::index`] order.
    pub const ALL: [SectionKind; 9] = [
        SectionKind::Text,
        SectionKind::Plt,
        SectionKind::Got,
        SectionKind::Rodata,
        SectionKind::Data,
        SectionKind::Bss,
        SectionKind::Libc,
        SectionKind::Stack,
        SectionKind::Heap,
    ];

    /// Number of section kinds: [`SectionKind::index`] is below it.
    pub const COUNT: usize = SectionKind::ALL.len();

    /// Dense index in `0..COUNT`, for per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Default permissions for this kind under a no-protection loader
    /// (the paper's §III-A configuration, where even the stack is
    /// executable).
    pub fn default_perms(self) -> Perms {
        match self {
            SectionKind::Text | SectionKind::Plt => Perms::RX,
            SectionKind::Libc => Perms::RX,
            SectionKind::Rodata => Perms::READ,
            SectionKind::Got | SectionKind::Data | SectionKind::Bss | SectionKind::Heap => {
                Perms::RW
            }
            // Executable stack: hardened loaders clear the X bit.
            SectionKind::Stack => Perms::RWX,
        }
    }

    /// Whether ASLR randomizes this section's base address. Matches the
    /// paper: the non-PIE program sections stay put; libc, stack and heap
    /// move.
    pub fn randomized_by_aslr(self) -> bool {
        matches!(
            self,
            SectionKind::Libc | SectionKind::Stack | SectionKind::Heap
        )
    }

    /// Conventional section name.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Text => ".text",
            SectionKind::Plt => ".plt",
            SectionKind::Got => ".got",
            SectionKind::Rodata => ".rodata",
            SectionKind::Data => ".data",
            SectionKind::Bss => ".bss",
            SectionKind::Libc => "libc",
            SectionKind::Stack => "[stack]",
            SectionKind::Heap => "[heap]",
        }
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One section: an address range, permissions, and initialized contents.
///
/// `bytes` may be shorter than `size`; the remainder is zero-filled at
/// load time (how `.bss` works).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    kind: SectionKind,
    base: Addr,
    size: u32,
    perms: Perms,
    bytes: Vec<u8>,
}

impl Section {
    /// Creates a section. `bytes.len()` must not exceed `size`.
    ///
    /// # Panics
    ///
    /// Panics if the initialized bytes overflow the declared size or the
    /// range wraps the 32-bit address space; both indicate a builder bug.
    pub fn new(kind: SectionKind, base: Addr, size: u32, perms: Perms, bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len() as u64 <= size as u64,
            "initialized bytes exceed section size"
        );
        assert!(
            (base as u64) + (size as u64) <= (u32::MAX as u64) + 1,
            "section wraps the address space"
        );
        Section {
            kind,
            base,
            size,
            perms,
            bytes,
        }
    }

    /// The section's role.
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// Lowest address of the section.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// One past the highest address.
    pub fn end(&self) -> u64 {
        self.base as u64 + self.size as u64
    }

    /// Permission bits.
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// Initialized contents (may be shorter than [`Section::size`]).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether `addr` lies inside this section.
    pub fn contains(&self, addr: Addr) -> bool {
        (addr as u64) >= self.base as u64 && (addr as u64) < self.end()
    }

    /// Reads `len` initialized bytes at `addr`, if fully inside the
    /// initialized region.
    pub fn initialized_at(&self, addr: Addr, len: usize) -> Option<&[u8]> {
        if !self.contains(addr) {
            return None;
        }
        let off = (addr - self.base) as usize;
        self.bytes.get(off..off + len)
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:#010x}..{:#010x} {} ({} bytes init)",
            self.kind.name(),
            self.base,
            self.end(),
            self.perms,
            self.bytes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_dense_and_matches_all() {
        for (i, kind) in SectionKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind}");
        }
    }

    #[test]
    fn defaults_match_paper_model() {
        assert_eq!(SectionKind::Text.default_perms(), Perms::RX);
        assert_eq!(SectionKind::Bss.default_perms(), Perms::RW);
        assert!(SectionKind::Stack.default_perms().violates_wxorx());
        assert!(SectionKind::Libc.randomized_by_aslr());
        assert!(SectionKind::Stack.randomized_by_aslr());
        assert!(!SectionKind::Bss.randomized_by_aslr());
        assert!(!SectionKind::Plt.randomized_by_aslr());
    }

    #[test]
    fn contains_and_reads() {
        let s = Section::new(
            SectionKind::Text,
            0x1000,
            0x100,
            Perms::RX,
            vec![1, 2, 3, 4],
        );
        assert!(s.contains(0x1000));
        assert!(s.contains(0x10FF));
        assert!(!s.contains(0x1100));
        assert_eq!(s.initialized_at(0x1001, 2), Some(&[2u8, 3][..]));
        assert_eq!(s.initialized_at(0x1003, 2), None, "past initialized bytes");
        assert_eq!(s.initialized_at(0x2000, 1), None);
    }

    #[test]
    #[should_panic(expected = "initialized bytes exceed")]
    fn oversized_bytes_panic() {
        let _ = Section::new(SectionKind::Data, 0, 2, Perms::RW, vec![0; 3]);
    }

    #[test]
    fn end_at_address_space_top() {
        let s = Section::new(SectionKind::Stack, 0xFFFF_F000, 0x1000, Perms::RW, vec![]);
        assert_eq!(s.end(), 1u64 << 32);
        assert!(s.contains(0xFFFF_FFFF));
    }
}
