//! The assembled image and its query API.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::{Addr, Arch, Section, SectionKind, Symbol};

/// Errors from image construction or queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// Two sections overlap in the address space.
    Overlap {
        /// First of the two overlapping kinds.
        a: SectionKind,
        /// Second of the two overlapping kinds.
        b: SectionKind,
    },
    /// Two symbols share a name.
    DuplicateSymbol(String),
    /// A symbol's address is not covered by any section.
    DanglingSymbol(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Overlap { a, b } => write!(f, "sections {a} and {b} overlap"),
            ImageError::DuplicateSymbol(n) => write!(f, "duplicate symbol {n}"),
            ImageError::DanglingSymbol(n) => write!(f, "symbol {n} outside all sections"),
        }
    }
}

impl Error for ImageError {}

/// A complete binary image: architecture, sections and symbols.
///
/// `Image` is immutable once built (see [`crate::ImageBuilder`]); the VM's
/// loader copies its contents into permissioned memory, applying the
/// protection policy and ASLR slides.
#[derive(Debug, Clone)]
pub struct Image {
    /// Process-unique identity, see [`Image::id`].
    id: u64,
    arch: Arch,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
    by_name: HashMap<String, usize>,
    /// Lazily-built byte-occurrence index backing [`Image::find_bytes`]
    /// (safe to memoise: the image is immutable once built).
    byte_index: OnceLock<ByteIndex>,
}

/// Counting-sort layout of every byte in the readable sections:
/// `posns[starts[b]..starts[b + 1]]` lists the `(section, offset)` of
/// each occurrence of byte value `b`, in section-insertion order — the
/// exact order a linear sweep would visit them.
#[derive(Debug, Clone, Default)]
struct ByteIndex {
    starts: Vec<u32>,
    posns: Vec<(u32, u32)>,
}

impl ByteIndex {
    fn build(sections: &[Section]) -> ByteIndex {
        let mut counts = [0u32; 256];
        for s in sections.iter().filter(|s| s.perms().readable()) {
            for &b in s.bytes() {
                counts[b as usize] += 1;
            }
        }
        let mut starts = vec![0u32; 257];
        for (i, &c) in counts.iter().enumerate() {
            starts[i + 1] = starts[i] + c;
        }
        let mut cursor: Vec<u32> = starts[..256].to_vec();
        let mut posns = vec![(0u32, 0u32); starts[256] as usize];
        for (si, s) in sections.iter().enumerate() {
            if !s.perms().readable() {
                continue;
            }
            for (off, &b) in s.bytes().iter().enumerate() {
                let at = &mut cursor[b as usize];
                posns[*at as usize] = (si as u32, off as u32);
                *at += 1;
            }
        }
        ByteIndex { starts, posns }
    }
}

impl Image {
    pub(crate) fn from_parts(
        arch: Arch,
        sections: Vec<Section>,
        symbols: Vec<Symbol>,
    ) -> Result<Self, ImageError> {
        // Overlap check: sort by base, ensure disjoint.
        let mut sorted: Vec<&Section> = sections.iter().collect();
        sorted.sort_by_key(|s| s.base());
        for w in sorted.windows(2) {
            if w[0].end() > w[1].base() as u64 {
                return Err(ImageError::Overlap {
                    a: w[0].kind(),
                    b: w[1].kind(),
                });
            }
        }
        let mut by_name = HashMap::with_capacity(symbols.len());
        for (i, sym) in symbols.iter().enumerate() {
            if by_name.insert(sym.name().to_string(), i).is_some() {
                return Err(ImageError::DuplicateSymbol(sym.name().to_string()));
            }
            if !sections.iter().any(|s| s.contains(sym.addr())) {
                return Err(ImageError::DanglingSymbol(sym.name().to_string()));
            }
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Ok(Image {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            arch,
            sections,
            symbols,
            by_name,
            byte_index: OnceLock::new(),
        })
    }

    /// Process-unique identity of this image, assigned when it is built
    /// and shared by its clones (an image is immutable, so a clone is
    /// interchangeable with the original). Tables derived from an image
    /// key on it to tell whether they still describe a given image.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// All sections, in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// All symbols, in insertion order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Looks up a symbol by exact name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.by_name.get(name).map(|&i| &self.symbols[i])
    }

    /// The section of the given kind, if present.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind() == kind)
    }

    /// The section containing `addr`, if any.
    pub fn section_containing(&self, addr: Addr) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Reads initialized bytes spanning `addr..addr+len` from whichever
    /// section holds them.
    pub fn bytes_at(&self, addr: Addr, len: usize) -> Option<&[u8]> {
        self.section_containing(addr)?.initialized_at(addr, len)
    }

    /// Finds every occurrence of `needle` in the initialized bytes of
    /// readable sections, returning absolute addresses — the equivalent of
    /// `ROPgadget --memstr`, which the paper uses to find single
    /// characters of `/bin/sh` in Connman's memory.
    pub fn find_bytes(&self, needle: &[u8]) -> Vec<Addr> {
        let Some(&first) = needle.first() else {
            return Vec::new();
        };
        // The index enumerates candidate positions of the first needle
        // byte directly; only those get the (rare) full comparison.
        let idx = self
            .byte_index
            .get_or_init(|| ByteIndex::build(&self.sections));
        let range = idx.starts[first as usize] as usize..idx.starts[first as usize + 1] as usize;
        let mut hits = Vec::new();
        for &(si, off) in &idx.posns[range] {
            let s = &self.sections[si as usize];
            let bytes = s.bytes();
            let off = off as usize;
            if off + needle.len() <= bytes.len() && &bytes[off..off + needle.len()] == needle {
                hits.push(s.base() + off as Addr);
            }
        }
        hits
    }

    /// Like [`Image::find_bytes`] but returns the first hit.
    pub fn find_first(&self, needle: &[u8]) -> Option<Addr> {
        self.find_bytes(needle).into_iter().next()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "image for {} ({} sections, {} symbols)",
            self.arch,
            self.sections.len(),
            self.symbols.len()
        )?;
        for s in &self.sections {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Perms, SymbolKind};

    fn img() -> Image {
        Image::from_parts(
            Arch::X86,
            vec![
                Section::new(
                    SectionKind::Text,
                    0x1000,
                    0x100,
                    Perms::RX,
                    b"AB/bin".to_vec(),
                ),
                Section::new(SectionKind::Bss, 0x3000, 0x100, Perms::RW, vec![]),
            ],
            vec![Symbol::new("main", 0x1000, 4, SymbolKind::Function)],
        )
        .unwrap()
    }

    #[test]
    fn queries() {
        let im = img();
        assert_eq!(im.symbol("main").unwrap().addr(), 0x1000);
        assert!(im.symbol("nope").is_none());
        assert_eq!(im.section(SectionKind::Bss).unwrap().base(), 0x3000);
        assert_eq!(
            im.section_containing(0x1005).unwrap().kind(),
            SectionKind::Text
        );
        assert_eq!(im.bytes_at(0x1002, 4), Some(&b"/bin"[..]));
    }

    #[test]
    fn memstr_equivalent() {
        let im = img();
        assert_eq!(im.find_bytes(b"/"), vec![0x1002]);
        assert_eq!(im.find_first(b"bin"), Some(0x1003));
        assert!(im.find_bytes(b"zz").is_empty());
        assert!(im.find_bytes(b"").is_empty());
    }

    #[test]
    fn overlap_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![
                Section::new(SectionKind::Text, 0x1000, 0x100, Perms::RX, vec![]),
                Section::new(SectionKind::Data, 0x10FF, 0x10, Perms::RW, vec![]),
            ],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, ImageError::Overlap { .. }));
    }

    #[test]
    fn dangling_symbol_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![Section::new(
                SectionKind::Text,
                0x1000,
                0x10,
                Perms::RX,
                vec![],
            )],
            vec![Symbol::new("ghost", 0x9999, 0, SymbolKind::Object)],
        )
        .unwrap_err();
        assert_eq!(err, ImageError::DanglingSymbol("ghost".into()));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        let err = Image::from_parts(
            Arch::X86,
            vec![Section::new(
                SectionKind::Text,
                0x1000,
                0x10,
                Perms::RX,
                vec![],
            )],
            vec![
                Symbol::new("f", 0x1000, 0, SymbolKind::Function),
                Symbol::new("f", 0x1004, 0, SymbolKind::Function),
            ],
        )
        .unwrap_err();
        assert_eq!(err, ImageError::DuplicateSymbol("f".into()));
    }
}
