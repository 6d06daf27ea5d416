//! Incremental image construction.

use crate::image::{Image, ImageError};
use crate::{Addr, Arch, Perms, Section, SectionKind, Symbol, SymbolKind};

/// Builder for [`Image`] values.
///
/// The firmware crate drives this to lay out a simulated Connman binary:
/// code bytes are appended to `.text`/`.plt` cursors and symbols are
/// recorded as they are placed, so the builder doubles as a tiny linker.
///
/// ```
/// use cml_image::{Arch, ImageBuilder, Perms, SectionKind, SymbolKind};
///
/// # fn main() -> Result<(), cml_image::ImageError> {
/// let mut b = ImageBuilder::new(Arch::X86);
/// b.section(SectionKind::Text, 0x1000, 0x100, Perms::RX);
/// let entry = b.append_code(SectionKind::Text, &[0x90, 0xC3]);
/// b.symbol("entry", entry, 2, SymbolKind::Function);
/// let image = b.build()?;
/// assert_eq!(image.symbol("entry").unwrap().addr(), 0x1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ImageBuilder {
    arch: Arch,
    sections: Vec<PendingSection>,
    symbols: Vec<Symbol>,
}

#[derive(Debug)]
struct PendingSection {
    kind: SectionKind,
    base: Addr,
    size: u32,
    perms: Perms,
    bytes: Vec<u8>,
}

impl ImageBuilder {
    /// Starts an empty image for `arch`.
    pub fn new(arch: Arch) -> Self {
        ImageBuilder {
            arch,
            sections: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// The target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Declares a section with explicit permissions. Returns `&mut self`
    /// for chaining.
    pub fn section(&mut self, kind: SectionKind, base: Addr, size: u32, perms: Perms) -> &mut Self {
        self.sections.push(PendingSection {
            kind,
            base,
            size,
            perms,
            bytes: Vec::new(),
        });
        self
    }

    /// Declares a section with the kind's default permissions.
    pub fn section_default(&mut self, kind: SectionKind, base: Addr, size: u32) -> &mut Self {
        self.section(kind, base, size, kind.default_perms())
    }

    /// Appends `code` to the end of the named section's initialized bytes
    /// and returns the address where it landed.
    ///
    /// # Panics
    ///
    /// Panics if the section was not declared or the bytes overflow it —
    /// both are builder-programming errors, not runtime input.
    pub fn append_code(&mut self, kind: SectionKind, code: &[u8]) -> Addr {
        let s = self
            .sections
            .iter_mut()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("section {kind} not declared"));
        let addr = s.base + s.bytes.len() as Addr;
        assert!(
            s.bytes.len() + code.len() <= s.size as usize,
            "section {kind} overflow: {} + {} > {}",
            s.bytes.len(),
            code.len(),
            s.size
        );
        s.bytes.extend_from_slice(code);
        addr
    }

    /// Current append cursor of a section.
    ///
    /// # Panics
    ///
    /// Panics if the section was not declared.
    pub fn cursor(&self, kind: SectionKind) -> Addr {
        let s = self
            .sections
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("section {kind} not declared"));
        s.base + s.bytes.len() as Addr
    }

    /// Records a symbol. Returns `&mut self` for chaining.
    pub fn symbol(
        &mut self,
        name: impl Into<String>,
        addr: Addr,
        size: u32,
        kind: SymbolKind,
    ) -> &mut Self {
        self.symbols.push(Symbol::new(name, addr, size, kind));
        self
    }

    /// Finalizes the image, validating section disjointness and symbol
    /// integrity.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageError`] describing the first inconsistency.
    pub fn build(self) -> Result<Image, ImageError> {
        let sections = self
            .sections
            .into_iter()
            .map(|p| Section::new(p.kind, p.base, p.size, p.perms, p.bytes))
            .collect();
        Image::from_parts(self.arch, sections, self.symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_cursor() {
        let mut b = ImageBuilder::new(Arch::Armv7);
        b.section_default(SectionKind::Text, 0x1_0000, 0x1000);
        assert_eq!(b.cursor(SectionKind::Text), 0x1_0000);
        let a1 = b.append_code(SectionKind::Text, &[1, 2, 3]);
        let a2 = b.append_code(SectionKind::Text, &[4; 4]);
        assert_eq!(a1, 0x1_0000);
        assert_eq!(a2, 0x1_0003);
        assert_eq!(b.cursor(SectionKind::Text), 0x1_0007);
        let img = b.build().unwrap();
        assert_eq!(img.bytes_at(0x1_0000, 7), Some(&[1, 2, 3, 4, 4, 4, 4][..]));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn append_to_missing_section_panics() {
        let mut b = ImageBuilder::new(Arch::X86);
        b.append_code(SectionKind::Text, &[0x90]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = ImageBuilder::new(Arch::X86);
        b.section_default(SectionKind::Text, 0, 2);
        b.append_code(SectionKind::Text, &[0x90; 3]);
    }

    #[test]
    fn build_validates() {
        let mut b = ImageBuilder::new(Arch::X86);
        b.section_default(SectionKind::Text, 0x1000, 0x10);
        b.symbol("ghost", 0xFFFF, 0, SymbolKind::Object);
        assert!(b.build().is_err());
    }
}
