//! Region-based permissioned memory.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use cml_image::{Addr, Perms, SectionKind};

use crate::dcache::{CachedInsn, DecodeCache, PAGE_SIZE};
use crate::ir::IrBlock;
use crate::Fault;

/// One mapped region of the address space.
#[derive(Debug, Clone)]
pub struct Region {
    name: String,
    kind: Option<SectionKind>,
    base: Addr,
    perms: Perms,
    data: Vec<u8>,
    /// Dirty-page bitmap, armed while a snapshot is outstanding. One bit
    /// per [`PAGE_SIZE`] page of `data`; a set bit means the page has
    /// changed since the snapshot and must be copied back on restore.
    /// `None` = no snapshot taken, writes pay nothing.
    dirty: Option<Vec<u64>>,
}

impl Region {
    /// The region's human-readable name (`".text"`, `"[stack]"`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The section kind this region was loaded from, if any.
    pub fn kind(&self) -> Option<SectionKind> {
        self.kind
    }

    /// Lowest mapped address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// One past the highest mapped address.
    pub fn end(&self) -> u64 {
        self.base as u64 + self.data.len() as u64
    }

    /// Current permissions.
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        (addr as u64) >= self.base as u64 && (addr as u64) < self.end()
    }

    /// Raw contents (ignores permissions; for the debugger).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// (Re-)arms dirty-page tracking with all pages clean.
    fn arm_dirty(&mut self) {
        let pages = self.data.len().div_ceil(PAGE_SIZE as usize);
        self.dirty = Some(vec![0u64; pages.div_ceil(64)]);
    }

    /// Marks the page containing `addr` dirty. One branch when no
    /// snapshot is outstanding — this is on the per-store path.
    #[inline]
    fn mark_dirty(&mut self, addr: Addr) {
        if let Some(bits) = &mut self.dirty {
            let page = ((addr - self.base) / PAGE_SIZE) as usize;
            bits[page / 64] |= 1 << (page % 64);
        }
    }

    /// Marks every page overlapping `len` bytes at `addr` dirty.
    fn mark_dirty_range(&mut self, addr: Addr, len: usize) {
        if len == 0 {
            return;
        }
        if let Some(bits) = &mut self.dirty {
            let first = ((addr - self.base) / PAGE_SIZE) as usize;
            let last = ((addr - self.base) as usize + len - 1) / PAGE_SIZE as usize;
            for page in first..=last {
                bits[page / 64] |= 1 << (page % 64);
            }
        }
    }
}

/// Copy-on-restore capture of one region: page-granular `Arc` chunks, so
/// cloning a snapshot shares every page and restoring copies back only
/// the pages the run dirtied.
#[derive(Debug, Clone)]
struct RegionSnapshot {
    name: String,
    kind: Option<SectionKind>,
    base: Addr,
    perms: Perms,
    /// `data` split into [`PAGE_SIZE`] chunks (last may be short).
    pages: Vec<Arc<[u8]>>,
}

/// A point-in-time capture of the whole address space, taken by
/// [`Memory::snapshot`] and replayed by [`Memory::restore`].
///
/// Pages are `Arc`-shared: cloning a snapshot is O(regions), not
/// O(image), and restore cost is proportional to the pages written since
/// the snapshot (plus any permission/mapping deltas), not to image size.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    regions: Vec<RegionSnapshot>,
}

/// How an access touched the redzone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedzoneAccess {
    /// An out-of-bounds store — diverted: recorded, never committed.
    Store,
    /// An out-of-bounds load — diverted: reads the poison byte `0`.
    Load,
}

impl fmt::Display for RedzoneAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RedzoneAccess::Store => "store",
            RedzoneAccess::Load => "load",
        })
    }
}

/// An armed shadow-memory redzone: the poisoned address range past the
/// end of a protected buffer, plus a record of the out-of-bounds
/// accesses it has absorbed so far.
///
/// The hit-recording fields are `Cell`s because loads arrive through
/// `&self` accessors — the same interior-mutability trick as the
/// region-lookup memo above.
#[derive(Debug, Clone)]
struct Redzone {
    buffer: Addr,
    capacity: u32,
    /// Poisoned range `[zone_start, zone_end)`.
    zone_start: Addr,
    zone_end: u64,
    /// Lowest / highest poisoned address touched, plus the pc and
    /// access kind of the first offending instruction.
    first: Cell<Option<Addr>>,
    last: Cell<Addr>,
    pc: Cell<Addr>,
    access: Cell<RedzoneAccess>,
}

/// Diagnostic returned when disarming a redzone that absorbed at least
/// one out-of-bounds access (the shadow-memory sanitizer's finding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedzoneHit {
    /// Base address of the protected buffer.
    pub buffer: Addr,
    /// Declared capacity of the buffer in bytes.
    pub capacity: u32,
    /// First (lowest) poisoned address touched.
    pub first: Addr,
    /// Last (highest) poisoned address touched.
    pub last: Addr,
    /// pc of the instruction that performed the first poisoned access.
    pub pc: Addr,
    /// Whether the first poisoned access was a store or a load.
    pub access: RedzoneAccess,
}

impl RedzoneHit {
    /// How many bytes past the buffer's end the writer reached.
    pub fn extent(&self) -> u32 {
        self.last
            .wrapping_sub(self.buffer.wrapping_add(self.capacity))
            .wrapping_add(1)
    }
}

/// The machine's memory: a set of disjoint regions with R/W/X checking.
///
/// All accessors take the current program counter so that faults can
/// report where the access originated — the same information a debugger
/// extracts from a core dump.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    regions: Vec<Region>,
    /// Index of the most recently hit region — repeated lookups (step
    /// loops, bulk copies) resolve with a single range compare.
    last_region: Cell<usize>,
    /// Predecoded-instruction cache; every mutation path below notifies
    /// it so cached decodes can never go stale.
    dcache: DecodeCache,
    /// Armed shadow-memory redzone, if any (ASan-style sanitizer).
    redzone: Option<Box<Redzone>>,
}

impl Memory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Maps a new zero-filled region.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty, wraps the address space, or
    /// overlaps an existing region — mapping is loader-controlled, so
    /// these are programming errors rather than runtime conditions.
    pub fn map(
        &mut self,
        name: impl Into<String>,
        kind: Option<SectionKind>,
        base: Addr,
        size: u32,
        perms: Perms,
    ) -> &mut Region {
        assert!(size > 0, "cannot map empty region");
        let end = base as u64 + size as u64;
        assert!(end <= (u32::MAX as u64) + 1, "region wraps address space");
        for r in &self.regions {
            assert!(
                end <= r.base as u64 || base as u64 >= r.end(),
                "region {:#x}..{:#x} overlaps {}",
                base,
                end,
                r.name
            );
        }
        self.regions.push(Region {
            name: name.into(),
            kind,
            base,
            perms,
            data: vec![0; size as usize],
            dirty: None,
        });
        self.regions.sort_by_key(|r| r.base);
        // A fresh mapping (firmware reload, per-boot ASLR slide) must
        // never execute through decodes cached for the old layout.
        self.dcache.flush();
        self.regions
            .iter_mut()
            .find(|r| r.base == base)
            .expect("region just inserted")
    }

    /// All regions, ordered by base address.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region containing `addr`, if any.
    pub fn region_containing(&self, addr: Addr) -> Option<&Region> {
        let cached = self.last_region.get();
        if let Some(r) = self.regions.get(cached) {
            if r.contains(addr) {
                return Some(r);
            }
        }
        let i = self.regions.iter().position(|r| r.contains(addr))?;
        self.last_region.set(i);
        Some(&self.regions[i])
    }

    fn region_mut(&mut self, addr: Addr) -> Option<&mut Region> {
        let cached = self.last_region.get();
        if self.regions.get(cached).is_some_and(|r| r.contains(addr)) {
            return self.regions.get_mut(cached);
        }
        let i = self.regions.iter().position(|r| r.contains(addr))?;
        self.last_region.set(i);
        self.regions.get_mut(i)
    }

    /// Changes the permissions of the region containing `addr`
    /// (`mprotect` analogue). Returns `false` if nothing is mapped there.
    pub fn set_perms(&mut self, addr: Addr, perms: Perms) -> bool {
        let found = match self.region_mut(addr) {
            Some(r) => {
                r.perms = perms;
                true
            }
            None => false,
        };
        if found {
            // Cached decodes were validated under the old permissions
            // (a hit implies the X bit was set at insert time).
            self.dcache.flush();
        }
        found
    }

    /// Reads one byte, honouring permissions.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedRead`] or [`Fault::ProtectedRead`].
    pub fn read_u8(&self, addr: Addr, pc: Addr) -> Result<u8, Fault> {
        if self.redzone_absorbs(addr, pc, RedzoneAccess::Load) {
            // A diverted load sees poison, never the shadowed contents.
            return Ok(0);
        }
        let r = self
            .region_containing(addr)
            .ok_or(Fault::UnmappedRead { addr, pc })?;
        if !r.perms.readable() {
            return Err(Fault::ProtectedRead {
                addr,
                perms: r.perms,
                pc,
            });
        }
        Ok(r.data[(addr - r.base) as usize])
    }

    /// Reads a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns a read fault if any of the four bytes is inaccessible.
    pub fn read_u32(&self, addr: Addr, pc: Addr) -> Result<u32, Fault> {
        let mut v = 0u32;
        for i in 0..4 {
            let a = addr.wrapping_add(i);
            v |= (self.read_u8(a, pc)? as u32) << (8 * i);
        }
        Ok(v)
    }

    /// Reads `len` bytes (region-sized chunks, not byte-at-a-time).
    ///
    /// Prefer [`read_into`](Memory::read_into) or
    /// [`read_slice`](Memory::read_slice) on hot paths — this variant
    /// allocates the returned `Vec`.
    ///
    /// # Errors
    ///
    /// Returns a read fault at the first inaccessible byte.
    pub fn read_bytes(&self, addr: Addr, len: usize, pc: Addr) -> Result<Vec<u8>, Fault> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out, pc)?;
        Ok(out)
    }

    /// Allocation-free bulk read: fills `buf` from `addr`, honouring
    /// permissions and crossing region boundaries like
    /// [`read_bytes`](Memory::read_bytes).
    ///
    /// # Errors
    ///
    /// Returns a read fault at the first inaccessible byte.
    pub fn read_into(&self, addr: Addr, buf: &mut [u8], pc: Addr) -> Result<(), Fault> {
        if self.redzone.is_some() {
            // Byte-at-a-time so every poisoned byte is diverted and
            // recorded individually, mirroring `write_bytes`.
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = self.read_u8(addr.wrapping_add(i as u32), pc)?;
            }
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.wrapping_add(done as u32);
            let r = self
                .region_containing(a)
                .ok_or(Fault::UnmappedRead { addr: a, pc })?;
            if !r.perms.readable() {
                return Err(Fault::ProtectedRead {
                    addr: a,
                    perms: r.perms,
                    pc,
                });
            }
            let off = (a - r.base) as usize;
            let n = (r.data.len() - off).min(buf.len() - done);
            buf[done..done + n].copy_from_slice(&r.data[off..off + n]);
            done += n;
        }
        Ok(())
    }

    /// Borrowing read fast path: a permission-checked view of `len`
    /// bytes at `addr` with **zero** copies, valid only when the whole
    /// range lies inside one region (the common case for packet buffers
    /// and stack frames).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedRead`] when nothing is mapped at `addr`
    /// *or* when the range spills past the containing region (callers
    /// needing cross-region reads use [`read_into`](Memory::read_into)),
    /// and [`Fault::ProtectedRead`] on a permission violation.
    pub fn read_slice(&self, addr: Addr, len: usize, pc: Addr) -> Result<&[u8], Fault> {
        let r = self
            .region_containing(addr)
            .ok_or(Fault::UnmappedRead { addr, pc })?;
        if !r.perms.readable() {
            return Err(Fault::ProtectedRead {
                addr,
                perms: r.perms,
                pc,
            });
        }
        let off = (addr - r.base) as usize;
        if r.data.len() - off < len {
            return Err(Fault::UnmappedRead {
                addr: addr.wrapping_add((r.data.len() - off) as u32),
                pc,
            });
        }
        Ok(&r.data[off..off + len])
    }

    /// Reads a NUL-terminated C string of at most `max` bytes.
    ///
    /// # Errors
    ///
    /// Returns a read fault if the string runs into inaccessible memory
    /// before a NUL (or before `max` bytes, in which case the truncated
    /// prefix is returned).
    pub fn read_cstr(&self, addr: Addr, max: usize, pc: Addr) -> Result<Vec<u8>, Fault> {
        let mut out = Vec::new();
        for i in 0..max {
            let b = self.read_u8(addr.wrapping_add(i as u32), pc)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(out)
    }

    /// Writes one byte, honouring permissions.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedWrite`] or [`Fault::ProtectedWrite`].
    pub fn write_u8(&mut self, addr: Addr, v: u8, pc: Addr) -> Result<(), Fault> {
        if self.redzone_absorbs(addr, pc, RedzoneAccess::Store) {
            return Ok(());
        }
        self.dcache.note_write(addr);
        let r = self
            .region_mut(addr)
            .ok_or(Fault::UnmappedWrite { addr, pc })?;
        if !r.perms.writable() {
            return Err(Fault::ProtectedWrite {
                addr,
                perms: r.perms,
                pc,
            });
        }
        r.mark_dirty(addr);
        r.data[(addr - r.base) as usize] = v;
        Ok(())
    }

    /// Writes a little-endian 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns a write fault if any of the four bytes is inaccessible.
    pub fn write_u32(&mut self, addr: Addr, v: u32, pc: Addr) -> Result<(), Fault> {
        for (i, b) in v.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b, pc)?;
        }
        Ok(())
    }

    /// Writes a byte slice (region-sized chunks, not byte-at-a-time).
    ///
    /// # Errors
    ///
    /// Returns a write fault at the first inaccessible byte; bytes before
    /// it will already have been written (matching real partial stores).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8], pc: Addr) -> Result<(), Fault> {
        if bytes.is_empty() {
            return Ok(());
        }
        if self.redzone.is_some() {
            // Byte-at-a-time so the in-bounds prefix commits and every
            // poisoned byte is recorded individually.
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b, pc)?;
            }
            return Ok(());
        }
        self.dcache.note_write_range(addr, bytes.len());
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u32);
            let r = self
                .region_mut(a)
                .ok_or(Fault::UnmappedWrite { addr: a, pc })?;
            if !r.perms.writable() {
                return Err(Fault::ProtectedWrite {
                    addr: a,
                    perms: r.perms,
                    pc,
                });
            }
            let off = (a - r.base) as usize;
            let n = (r.data.len() - off).min(bytes.len() - done);
            r.mark_dirty_range(a, n);
            r.data[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Privileged write that ignores the W bit (loader/debugger only;
    /// still faults on unmapped addresses).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedWrite`] if the range is not fully mapped.
    pub fn poke(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), Fault> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.dcache.note_write_range(addr, bytes.len());
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr.wrapping_add(done as u32);
            let r = self
                .region_mut(a)
                .ok_or(Fault::UnmappedWrite { addr: a, pc: 0 })?;
            let off = (a - r.base) as usize;
            let n = (r.data.len() - off).min(bytes.len() - done);
            r.mark_dirty_range(a, n);
            r.data[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Fetches an instruction byte: like a read but also requires the X
    /// permission.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedFetch`] or [`Fault::NxViolation`].
    pub fn fetch_u8(&self, pc: Addr, offset: u32) -> Result<u8, Fault> {
        let addr = pc.wrapping_add(offset);
        let r = self
            .region_containing(addr)
            .ok_or(Fault::UnmappedFetch { pc })?;
        if !r.perms.executable() {
            return Err(Fault::NxViolation { pc, perms: r.perms });
        }
        Ok(r.data[(addr - r.base) as usize])
    }

    /// Fetches up to `len` instruction bytes starting at `pc`, stopping
    /// early at a region boundary (the decoder treats a short fetch like
    /// truncated code).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedFetch`] or [`Fault::NxViolation`] if even
    /// the first byte is unavailable.
    pub fn fetch_window(&self, pc: Addr, len: usize) -> Result<Vec<u8>, Fault> {
        let mut out = vec![0; len];
        let n = self.fetch_into(pc, &mut out)?;
        out.truncate(n);
        Ok(out)
    }

    /// Allocation-free [`fetch_window`](Memory::fetch_window): fills
    /// `buf` and returns how many bytes were fetchable.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedFetch`] or [`Fault::NxViolation`] if even
    /// the first byte is unavailable.
    pub fn fetch_into(&self, pc: Addr, buf: &mut [u8]) -> Result<usize, Fault> {
        let mut n = 0usize;
        while n < buf.len() {
            let a = pc.wrapping_add(n as u32);
            let r = match self.region_containing(a) {
                Some(r) if r.perms.executable() => r,
                _ => break,
            };
            let off = (a - r.base) as usize;
            let take = (r.data.len() - off).min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&r.data[off..off + take]);
            n += take;
        }
        if n == 0 {
            return match self.region_containing(pc) {
                None => Err(Fault::UnmappedFetch { pc }),
                Some(r) => Err(Fault::NxViolation { pc, perms: r.perms }),
            };
        }
        Ok(n)
    }

    // ---- shadow-memory sanitizer (ASan-style redzone) ----

    /// Arms a redzone over `[buffer + capacity, zone_end)`: permissioned
    /// stores landing there are *diverted* — recorded, not committed —
    /// so an overflow neither corrupts adjacent state nor faults early,
    /// and its full extent can be measured on disarm. Permissioned loads
    /// from the zone are likewise diverted: they read the poison byte
    /// `0` and are recorded, so read-overflow mutants trip the oracle
    /// too.
    ///
    /// Only one redzone can be armed at a time; re-arming replaces any
    /// previous one. `poke`, instruction fetch, and the borrowing
    /// [`read_slice`](Memory::read_slice) fast path (host-side views,
    /// not guest loads) are unaffected.
    pub fn arm_redzone(&mut self, buffer: Addr, capacity: u32, zone_end: u64) {
        let zone_start = buffer.wrapping_add(capacity);
        self.redzone = Some(Box::new(Redzone {
            buffer,
            capacity,
            zone_start,
            zone_end,
            first: Cell::new(None),
            last: Cell::new(0),
            pc: Cell::new(0),
            access: Cell::new(RedzoneAccess::Store),
        }));
    }

    /// Disarms the redzone. Returns the absorbed-overflow diagnostic if
    /// any poisoned byte was written while armed; `None` on a clean run
    /// (or when nothing was armed).
    pub fn disarm_redzone(&mut self) -> Option<RedzoneHit> {
        let z = self.redzone.take()?;
        let first = z.first.get()?;
        Some(RedzoneHit {
            buffer: z.buffer,
            capacity: z.capacity,
            first,
            last: z.last.get(),
            pc: z.pc.get(),
            access: z.access.get(),
        })
    }

    /// Whether a redzone is currently armed.
    pub fn redzone_armed(&self) -> bool {
        self.redzone.is_some()
    }

    /// Records `addr` if it falls in the poisoned range; returns `true`
    /// when the access must be diverted. `&self` because loads arrive
    /// through shared accessors — the recording fields are `Cell`s.
    fn redzone_absorbs(&self, addr: Addr, pc: Addr, access: RedzoneAccess) -> bool {
        let Some(z) = self.redzone.as_deref() else {
            return false;
        };
        if (addr as u64) < (z.zone_start as u64) || (addr as u64) >= z.zone_end {
            return false;
        }
        match z.first.get() {
            None => {
                z.first.set(Some(addr));
                z.pc.set(pc);
                z.last.set(addr);
                z.access.set(access);
            }
            Some(f) => {
                z.first.set(Some(f.min(addr)));
                z.last.set(z.last.get().max(addr));
            }
        }
        true
    }

    // ---- snapshot / restore (boot-once, fork-many) ----

    /// Captures the whole address space and arms dirty-page tracking, so
    /// a later [`restore`](Memory::restore) only has to copy back the
    /// pages written in between.
    ///
    /// Taking a snapshot is O(image) — it happens once per boot. The
    /// returned value is cheap to clone (pages are `Arc`-shared).
    pub fn snapshot(&mut self) -> MemorySnapshot {
        let regions = self
            .regions
            .iter_mut()
            .map(|r| {
                r.arm_dirty();
                RegionSnapshot {
                    name: r.name.clone(),
                    kind: r.kind,
                    base: r.base,
                    perms: r.perms,
                    pages: r.data.chunks(PAGE_SIZE as usize).map(Arc::from).collect(),
                }
            })
            .collect();
        MemorySnapshot { regions }
    }

    /// Rewinds the address space to `snap`: every page dirtied since the
    /// snapshot is copied back (O(dirty pages), not O(image)), regions
    /// mapped afterwards are dropped, and bases/permissions that drifted
    /// are reset. Restored code pages are pushed through the decode
    /// cache's write hooks, so stale predecoded instructions and lowered
    /// IR blocks can never execute. Any armed redzone is disarmed.
    ///
    /// Dirty tracking is re-armed, so the same snapshot can be restored
    /// any number of times.
    pub fn restore(&mut self, snap: &MemorySnapshot) {
        if self.regions.len() != snap.regions.len() {
            // Regions mapped after the snapshot (there is no unmap, so
            // the live set is always a superset).
            self.regions
                .retain(|r| snap.regions.iter().any(|s| s.name == r.name));
            self.last_region.set(0);
            self.dcache.flush();
        }
        let mut resort = false;
        for rs in &snap.regions {
            let Some(r) = self.regions.iter_mut().find(|r| r.name == rs.name) else {
                unreachable!("snapshot region {} cannot be unmapped", rs.name);
            };
            if r.perms != rs.perms {
                r.perms = rs.perms;
                self.dcache.flush();
            }
            if r.base != rs.base {
                // A post-snapshot reslide moved the region; move it back.
                r.base = rs.base;
                resort = true;
                self.dcache.flush();
            }
            r.kind = rs.kind;
            if let Some(bits) = &mut r.dirty {
                // Copy back and re-arm in place: each word is zeroed as
                // its pages are restored, so no bitmap is reallocated.
                for (word_idx, bits_word) in bits.iter_mut().enumerate() {
                    let mut word = std::mem::take(bits_word);
                    while word != 0 {
                        let page = word_idx * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        let off = page * PAGE_SIZE as usize;
                        let src = &rs.pages[page];
                        r.data[off..off + src.len()].copy_from_slice(src);
                        self.dcache
                            .note_write_range(rs.base.wrapping_add(off as u32), src.len());
                    }
                }
            } else {
                // Tracking was never armed for this region — full copy.
                for (page, src) in rs.pages.iter().enumerate() {
                    let off = page * PAGE_SIZE as usize;
                    r.data[off..off + src.len()].copy_from_slice(src);
                }
                self.dcache.flush();
                r.arm_dirty();
            }
        }
        if resort {
            self.regions.sort_by_key(|r| r.base);
            self.last_region.set(0);
        }
        self.redzone = None;
    }

    /// Moves sections to new bases (the loader's re-slide path for
    /// forking a snapshot under a different ASLR seed): `bases` holds the
    /// new base per [`SectionKind::index`], `None` leaving that kind in
    /// place. Contents and dirty tracking travel with the region; the
    /// decode cache is flushed because every cached pc is now stale.
    ///
    /// # Panics
    ///
    /// Panics if the new bases make any two regions overlap.
    pub(crate) fn rebase_regions(&mut self, bases: &[Option<Addr>; SectionKind::COUNT]) {
        for r in &mut self.regions {
            if let Some(base) = r.kind.and_then(|k| bases[k.index()]) {
                r.base = base;
            }
        }
        self.regions.sort_by_key(|r| r.base);
        for w in self.regions.windows(2) {
            assert!(
                w[0].end() <= w[1].base as u64,
                "rebase made {} overlap {}",
                w[0].name,
                w[1].name
            );
        }
        self.last_region.set(0);
        self.dcache.flush();
    }

    // ---- predecoded-instruction cache plumbing (used by the
    // interpreters; invalidation happens in the mutators above) ----

    pub(crate) fn dcache_get(&mut self, pc: Addr) -> Option<CachedInsn> {
        self.dcache.get(pc)
    }

    pub(crate) fn dcache_insert(&mut self, pc: Addr, insn: CachedInsn, byte_len: u32) {
        self.dcache.insert(pc, insn, byte_len);
    }

    pub(crate) fn dcache_set_enabled(&mut self, on: bool) {
        self.dcache.set_enabled(on);
    }

    pub(crate) fn dcache_enabled(&self) -> bool {
        self.dcache.enabled()
    }

    pub(crate) fn dcache_stats(&self) -> (u64, u64) {
        self.dcache.stats()
    }

    pub(crate) fn dcache_generation(&self) -> u64 {
        self.dcache.generation()
    }

    pub(crate) fn dcache_flush(&mut self) {
        self.dcache.flush();
    }

    // ---- threaded-code IR block table plumbing ----

    pub(crate) fn dcache_get_ir(&mut self, pc: Addr) -> Option<Arc<IrBlock>> {
        self.dcache.get_ir(pc)
    }

    pub(crate) fn dcache_insert_ir(&mut self, pc: Addr, block: Arc<IrBlock>, span: u32) {
        self.dcache.insert_ir(pc, block, span);
    }

    pub(crate) fn dcache_set_ir_enabled(&mut self, on: bool) {
        self.dcache.set_ir_enabled(on);
    }

    pub(crate) fn dcache_ir_enabled(&self) -> bool {
        self.dcache.ir_enabled()
    }

    // ---- word-at-a-time fast paths for the IR dispatcher ----
    //
    // Each falls back to the canonical byte path on any anomaly —
    // redzone armed, region straddle, permission violation, unmapped —
    // so the observable faults and sanitizer records stay
    // byte-identical with per-instruction execution.

    /// Word load with a single region probe; exact same result as
    /// [`read_u32`](Memory::read_u32).
    #[inline]
    pub(crate) fn read_u32_ir(&self, addr: Addr, pc: Addr) -> Result<u32, Fault> {
        if self.redzone.is_none() {
            if let Some(r) = self.region_containing(addr) {
                if r.perms.readable() {
                    let off = (addr.wrapping_sub(r.base)) as usize;
                    if let Some(b) = r.data.get(off..off + 4) {
                        return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                    }
                }
            }
        }
        self.read_u32(addr, pc)
    }

    /// Word store with a single region probe. The decode-cache write
    /// note precedes the permission check, matching the byte path's
    /// ordering (a store that faults still invalidates).
    #[inline]
    pub(crate) fn write_u32_ir(&mut self, addr: Addr, v: u32, pc: Addr) -> Result<(), Fault> {
        if self.redzone.is_none() {
            self.dcache.note_write_range(addr, 4);
            let done = match self.region_mut(addr) {
                Some(r) if r.perms.writable() => {
                    let off = (addr.wrapping_sub(r.base)) as usize;
                    if off + 4 <= r.data.len() {
                        r.mark_dirty_range(addr, 4);
                        r.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if done {
                return Ok(());
            }
        }
        self.write_u32(addr, v, pc)
    }

    /// Block-entry licence for the IR's fast stack ops: `true` when the
    /// whole `len`-byte window at `addr` sits inside one readable,
    /// writable, **non-executable** region with no redzone armed. The
    /// fast push/pop ops may then skip per-access permission checks and
    /// decode-cache write notes — a non-X region holds no cached
    /// decodes, and turning one executable flushes the caches.
    pub(crate) fn stack_precheck(&self, addr: Addr, len: u32) -> bool {
        if self.redzone.is_some() {
            return false;
        }
        match self.region_containing(addr) {
            Some(r) => {
                r.perms.readable()
                    && r.perms.writable()
                    && !r.perms.executable()
                    && (addr as u64) + len as u64 <= r.end()
            }
            None => false,
        }
    }

    /// Prechecked word store — sound only under a passing
    /// [`stack_precheck`](Memory::stack_precheck) covering `addr`.
    /// Returns `false` (nothing written) if the probe lands badly so
    /// the caller can take the canonical path instead.
    #[inline]
    pub(crate) fn stack_write_u32(&mut self, addr: Addr, v: u32) -> bool {
        match self.region_mut(addr) {
            Some(r) if r.perms.writable() && !r.perms.executable() => {
                let off = (addr.wrapping_sub(r.base)) as usize;
                if off + 4 <= r.data.len() {
                    r.mark_dirty_range(addr, 4);
                    r.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Prechecked word load; `None` sends the caller to the slow path.
    #[inline]
    pub(crate) fn stack_read_u32(&self, addr: Addr) -> Option<u32> {
        let r = self.region_containing(addr)?;
        if !r.perms.readable() {
            return None;
        }
        let off = (addr.wrapping_sub(r.base)) as usize;
        let b = r.data.get(off..off + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map(".text", Some(SectionKind::Text), 0x1000, 0x100, Perms::RX);
        m.map("stack", Some(SectionKind::Stack), 0x8000, 0x100, Perms::RW);
        m
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = mem();
        m.write_u32(0x8000, 0xdead_beef, 0).unwrap();
        assert_eq!(m.read_u32(0x8000, 0).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u8(0x8000, 0).unwrap(), 0xef, "little endian");
    }

    #[test]
    fn unmapped_faults() {
        let mut m = mem();
        assert_eq!(
            m.read_u8(0x4000, 0x77),
            Err(Fault::UnmappedRead {
                addr: 0x4000,
                pc: 0x77
            })
        );
        assert_eq!(
            m.write_u8(0x4000, 1, 0x77),
            Err(Fault::UnmappedWrite {
                addr: 0x4000,
                pc: 0x77
            })
        );
    }

    #[test]
    fn write_to_text_denied() {
        let mut m = mem();
        assert!(matches!(
            m.write_u8(0x1000, 0x90, 0),
            Err(Fault::ProtectedWrite { addr: 0x1000, .. })
        ));
    }

    #[test]
    fn nx_enforced_on_fetch() {
        let m = mem();
        assert!(matches!(
            m.fetch_u8(0x8000, 0),
            Err(Fault::NxViolation { pc: 0x8000, .. })
        ));
        assert!(m.fetch_u8(0x1000, 0).is_ok());
    }

    #[test]
    fn rwx_stack_allows_fetch() {
        let mut m = Memory::new();
        m.map("stack", Some(SectionKind::Stack), 0x8000, 0x10, Perms::RWX);
        assert!(m.fetch_u8(0x8005, 0).is_ok());
    }

    #[test]
    fn mprotect_analogue() {
        let mut m = mem();
        assert!(m.set_perms(0x8000, Perms::RWX));
        assert!(m.fetch_u8(0x8000, 0).is_ok());
        assert!(!m.set_perms(0x4000, Perms::RW));
    }

    #[test]
    fn cstr_reads() {
        let mut m = mem();
        m.write_bytes(0x8010, b"/bin/sh\0junk", 0).unwrap();
        assert_eq!(m.read_cstr(0x8010, 64, 0).unwrap(), b"/bin/sh");
        // max cap truncates without fault
        assert_eq!(m.read_cstr(0x8010, 3, 0).unwrap(), b"/bi");
    }

    #[test]
    fn word_read_across_region_edge_faults() {
        let m = mem();
        assert!(matches!(
            m.read_u32(0x10FE, 0),
            Err(Fault::UnmappedRead { .. })
        ));
    }

    #[test]
    fn fetch_window_stops_at_boundary() {
        let m = mem();
        let w = m.fetch_window(0x10FE, 8).unwrap();
        assert_eq!(w.len(), 2);
        assert!(matches!(
            m.fetch_window(0x2000, 4),
            Err(Fault::UnmappedFetch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_map_panics() {
        let mut m = mem();
        m.map("bad", None, 0x10FF, 0x10, Perms::RW);
    }

    #[test]
    fn redzone_diverts_and_measures_overflow() {
        let mut m = mem();
        // Buffer of 8 bytes at 0x8000; zone to end of the region.
        m.arm_redzone(0x8000, 8, 0x8100);
        assert!(m.redzone_armed());
        // 12-byte write: 8 in bounds, 4 diverted.
        m.write_bytes(0x8000, &[0xAA; 12], 0x42).unwrap();
        assert_eq!(m.read_u8(0x8007, 0).unwrap(), 0xAA);
        assert_eq!(m.read_u8(0x8008, 0).unwrap(), 0, "poisoned byte diverted");
        let hit = m.disarm_redzone().expect("overflow recorded");
        assert_eq!(hit.first, 0x8008);
        assert_eq!(hit.last, 0x800B);
        assert_eq!(hit.pc, 0x42);
        assert_eq!(hit.extent(), 4);
        assert!(!m.redzone_armed());
    }

    #[test]
    fn redzone_diverts_and_reports_oob_loads() {
        let mut m = mem();
        m.write_u8(0x8008, 0x5A, 0).unwrap();
        m.arm_redzone(0x8000, 8, 0x8100);
        assert_eq!(m.read_u8(0x8008, 0x77).unwrap(), 0, "load reads poison");
        let hit = m.disarm_redzone().expect("load recorded");
        assert_eq!(hit.first, 0x8008);
        assert_eq!(hit.last, 0x8008);
        assert_eq!(hit.pc, 0x77);
        assert_eq!(hit.access, RedzoneAccess::Load);
        assert_eq!(hit.extent(), 1);
        // The shadowed byte itself is intact once disarmed.
        assert_eq!(m.read_u8(0x8008, 0).unwrap(), 0x5A);
    }

    #[test]
    fn redzone_bulk_read_diverts_poisoned_suffix() {
        let mut m = mem();
        m.write_bytes(0x8000, &[0x11; 16], 0).unwrap();
        m.arm_redzone(0x8000, 8, 0x8100);
        let mut buf = [0xFFu8; 12];
        m.read_into(0x8000, &mut buf, 0x99).unwrap();
        assert_eq!(&buf[..8], &[0x11; 8], "in-bounds prefix reads through");
        assert_eq!(&buf[8..], &[0; 4], "poisoned tail reads 0");
        let hit = m.disarm_redzone().unwrap();
        assert_eq!((hit.first, hit.last), (0x8008, 0x800B));
        assert_eq!(hit.access, RedzoneAccess::Load);
    }

    #[test]
    fn redzone_reports_kind_of_first_access() {
        let mut m = mem();
        m.arm_redzone(0x8000, 8, 0x8100);
        m.write_u8(0x8009, 0xAB, 0x42).unwrap();
        let _ = m.read_u8(0x8008, 0x77).unwrap();
        let hit = m.disarm_redzone().unwrap();
        assert_eq!(hit.access, RedzoneAccess::Store, "store came first");
        assert_eq!(hit.pc, 0x42);
        assert_eq!((hit.first, hit.last), (0x8008, 0x8009));
    }

    #[test]
    fn clean_run_disarms_quietly() {
        let mut m = mem();
        m.arm_redzone(0x8000, 8, 0x8100);
        m.write_bytes(0x8000, &[1; 8], 0).unwrap();
        assert!(m.disarm_redzone().is_none());
    }

    #[test]
    fn redzone_does_not_mask_unmapped_faults() {
        let mut m = mem();
        m.arm_redzone(0x8000, 8, 0x8100);
        // Past zone_end (= region end) still faults.
        assert!(matches!(
            m.write_u8(0x8100, 1, 0),
            Err(Fault::UnmappedWrite { .. })
        ));
    }

    #[test]
    fn poke_ignores_write_protection() {
        let mut m = mem();
        m.poke(0x1000, &[0xC3]).unwrap();
        assert_eq!(m.read_u8(0x1000, 0).unwrap(), 0xC3);
    }
}
