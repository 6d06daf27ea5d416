//! Region-based permissioned memory.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use cml_image::{Addr, Perms, SectionKind};

use crate::dcache::{block_footprint, CachedInsn, DecodeCache, PAGE_SIZE};
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
    redzone: Option<Redzone>,
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
        self.region_index(addr).map(|i| &self.regions[i])
    }

    fn region_mut(&mut self, addr: Addr) -> Option<&mut Region> {
        self.region_index(addr).map(|i| &mut self.regions[i])
    }

    /// The one region probe every accessor pays: the memoised last hit,
    /// else a scan that re-seats the memo.
    #[inline]
    fn region_index(&self, addr: Addr) -> Option<usize> {
        let cached = self.last_region.get();
        if self.regions.get(cached).is_some_and(|r| r.contains(addr)) {
            return Some(cached);
        }
        let i = self.regions.iter().position(|r| r.contains(addr))?;
        self.last_region.set(i);
        Some(i)
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

    /// Reads a little-endian 32-bit word with one region probe. Any
    /// anomaly — a word touching the armed redzone, a region straddle, a
    /// missing R bit, nothing mapped — takes the byte loop instead, so
    /// faults and sanitizer records are exactly those of four
    /// [`read_u8`]s.
    ///
    /// [`read_u8`]: Memory::read_u8
    ///
    /// # Errors
    ///
    /// Returns a read fault at the first inaccessible byte.
    #[inline]
    pub fn read_u32(&self, addr: Addr, pc: Addr) -> Result<u32, Fault> {
        if self.misses_redzone(addr, 4) {
            if let Some(r) = self.region_containing(addr) {
                let off = (addr - r.base) as usize;
                if r.perms.readable() {
                    if let Some(b) = r.data.get(off..off + 4) {
                        return Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                    }
                }
            }
        }
        self.read_u32_bytes(addr, pc)
    }

    /// The byte-at-a-time word load behind [`read_u32`](Memory::read_u32)'s
    /// anomalies.
    #[cold]
    fn read_u32_bytes(&self, addr: Addr, pc: Addr) -> Result<u32, Fault> {
        let mut v = 0u32;
        for i in 0..4 {
            let a = addr.wrapping_add(i);
            v |= (self.read_u8(a, pc)? as u32) << (8 * i);
        }
        Ok(v)
    }

    /// Reads `len` bytes (region-sized chunks, not byte-at-a-time).
    ///
    /// Prefer [`read_into`](Memory::read_into) on hot paths — this
    /// variant allocates the returned `Vec`.
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
        if !self.misses_redzone(addr, buf.len()) {
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

    /// Reads a NUL-terminated C string of at most `buf.len()` bytes
    /// into `buf` and returns the bytes read, scanning each region's
    /// bytes for the NUL with one probe per region crossed. A
    /// `[addr, addr + buf.len())` range that touches the armed redzone
    /// takes the byte loop, so every poisoned byte is diverted (reads as
    /// the terminating `0`) and recorded.
    ///
    /// # Errors
    ///
    /// Returns a read fault if the string runs into inaccessible memory
    /// before a NUL (or before `buf.len()` bytes, in which case the
    /// truncated prefix is returned).
    pub fn read_cstr<'b>(
        &self,
        addr: Addr,
        buf: &'b mut [u8],
        pc: Addr,
    ) -> Result<&'b [u8], Fault> {
        let max = buf.len();
        let mut len = 0;
        if !self.misses_redzone(addr, max) {
            while len < max {
                let b = self.read_u8(addr.wrapping_add(len as u32), pc)?;
                if b == 0 {
                    break;
                }
                buf[len] = b;
                len += 1;
            }
            return Ok(&buf[..len]);
        }
        while len < max {
            let a = addr.wrapping_add(len as u32);
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
            let take = (r.data.len() - off).min(max - len);
            let window = &r.data[off..off + take];
            let nul = window.iter().position(|&b| b == 0);
            let keep = nul.unwrap_or(take);
            buf[len..len + keep].copy_from_slice(&window[..keep]);
            len += keep;
            if nul.is_some() {
                break;
            }
        }
        Ok(&buf[..len])
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

    /// Writes a little-endian 32-bit word with one region probe. Any
    /// anomaly — a word touching the armed redzone, a region straddle, a
    /// missing W bit, nothing mapped — takes the byte loop instead, which
    /// notes each byte to the decode cache before its own permission
    /// check: the committed prefix, the fault, the dropped decodes and
    /// the sanitizer record are exactly those of four [`write_u8`]s.
    ///
    /// [`write_u8`]: Memory::write_u8
    ///
    /// # Errors
    ///
    /// Returns a write fault at the first inaccessible byte; bytes before
    /// it will already have been written.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, v: u32, pc: Addr) -> Result<(), Fault> {
        if self.misses_redzone(addr, 4) {
            if let Some(i) = self.region_index(addr) {
                let r = &mut self.regions[i];
                let off = (addr - r.base) as usize;
                if r.perms.writable() && off + 4 <= r.data.len() {
                    self.dcache.note_write_range(addr, 4);
                    r.mark_dirty_range(addr, 4);
                    r.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
                    return Ok(());
                }
            }
        }
        self.write_u32_bytes(addr, v, pc)
    }

    /// The byte-at-a-time word store behind
    /// [`write_u32`](Memory::write_u32)'s anomalies.
    #[cold]
    fn write_u32_bytes(&mut self, addr: Addr, v: u32, pc: Addr) -> Result<(), Fault> {
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
        if !self.misses_redzone(addr, bytes.len()) {
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

    /// Fetches up to `buf.len()` instruction bytes starting at `pc`:
    /// like a read, but every byte also needs the X permission. Stops
    /// early at the first unmapped or non-executable byte (the decoder
    /// treats a short fetch like truncated code) and returns how many
    /// bytes were fetchable.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UnmappedFetch`] or [`Fault::NxViolation`] if even
    /// the first byte is unavailable.
    pub fn fetch_into(&self, pc: Addr, buf: &mut [u8]) -> Result<usize, Fault> {
        let n = self.fetch_chunks(pc, buf.len(), |at, chunk| {
            buf[at..at + chunk.len()].copy_from_slice(chunk);
            true
        });
        if n == 0 {
            return match self.region_containing(pc) {
                None => Err(Fault::UnmappedFetch { pc }),
                Some(r) => Err(Fault::NxViolation { pc, perms: r.perms }),
            };
        }
        Ok(n)
    }

    /// The fetchable prefix of `[pc, pc + len)`, with
    /// [`fetch_into`](Memory::fetch_into)'s semantics: what a lowered
    /// block keeps of its footprint.
    pub(crate) fn fetch_vec(&self, pc: Addr, len: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.fetch_chunks(pc, len as usize, |_, chunk| {
            out.extend_from_slice(chunk);
            true
        });
        out
    }

    /// Whether exactly `want.len()` of the `len` bytes from `pc` are
    /// fetchable and they equal `want`: the bytes
    /// [`fetch_vec`](Memory::fetch_vec) returned are still there, and
    /// the byte that ended them still cannot be fetched.
    fn fetch_matches(&self, pc: Addr, want: &[u8], len: u32) -> bool {
        let mut same = true;
        let n = self.fetch_chunks(pc, len as usize, |at, chunk| {
            same = want.get(at..at + chunk.len()) == Some(chunk);
            same
        });
        same && n == want.len()
    }

    /// Walks the fetchable bytes of `[pc, pc + len)` one region-sized
    /// chunk at a time, handing `f` each chunk's offset from `pc`, until
    /// an unmapped or non-executable byte, the end of the range, or `f`
    /// returning `false`. Returns the bytes walked.
    #[inline]
    fn fetch_chunks(&self, pc: Addr, len: usize, mut f: impl FnMut(usize, &[u8]) -> bool) -> usize {
        let mut n = 0usize;
        while n < len {
            let a = pc.wrapping_add(n as u32);
            let r = match self.region_containing(a) {
                Some(r) if r.perms.executable() => r,
                _ => break,
            };
            let off = (a - r.base) as usize;
            let take = (r.data.len() - off).min(len - n);
            if !f(n, &r.data[off..off + take]) {
                break;
            }
            n += take;
        }
        n
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
    /// previous one. `poke` and instruction fetch are unaffected.
    pub fn arm_redzone(&mut self, buffer: Addr, capacity: u32, zone_end: u64) {
        let zone_start = buffer.wrapping_add(capacity);
        self.redzone = Some(Redzone {
            buffer,
            capacity,
            zone_start,
            zone_end,
            first: Cell::new(None),
            last: Cell::new(0),
            pc: Cell::new(0),
            access: Cell::new(RedzoneAccess::Store),
        });
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

    /// Whether the access `[addr, addr + len)` lies wholly outside the
    /// armed redzone (always, when none is armed), so it may take a
    /// fast path: only an access that touches the zone needs the byte
    /// loop's per-byte diversion and recording. An access that wraps
    /// past 2^32 counts as touching it.
    #[inline]
    fn misses_redzone(&self, addr: Addr, len: usize) -> bool {
        match self.redzone.as_ref() {
            None => true,
            Some(z) => {
                let end = addr as u64 + len as u64;
                end <= 1 << 32 && (end <= z.zone_start as u64 || addr as u64 >= z.zone_end)
            }
        }
    }

    /// Records `addr` if it falls in the poisoned range; returns `true`
    /// when the access must be diverted. `&self` because loads arrive
    /// through shared accessors — the recording fields are `Cell`s.
    fn redzone_absorbs(&self, addr: Addr, pc: Addr, access: RedzoneAccess) -> bool {
        let Some(z) = self.redzone.as_ref() else {
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
    /// are reset. The decode cache drops exactly what this changes: each
    /// restored page goes through its write hook, and a region whose
    /// permissions or base drifted drops its ranges (old and restored),
    /// so stale predecoded instructions and lowered IR blocks can never
    /// execute while decodes of untouched code stay warm. A restored
    /// page is a content change, so the lowered blocks it drops wait in
    /// the cache's victim table for a payload that writes the same bytes
    /// back; a drifted region is a layout change and discards the
    /// victims in its ranges. Dropping regions mapped after the snapshot
    /// flushes. Any armed redzone is disarmed.
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
            if r.perms != rs.perms || r.base != rs.base {
                // Drift from an `mprotect` or a post-snapshot reslide:
                // drop what was cached where the region sits now, and
                // what looks ahead into where it goes back to.
                let len = r.data.len() as u64;
                self.dcache.invalidate_range(r.base, len);
                self.dcache.invalidate_range(rs.base, len);
                resort |= r.base != rs.base;
                r.perms = rs.perms;
                r.base = rs.base;
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
    /// place. Contents and dirty tracking travel with the region. The
    /// decode cache drops the old and new range of each region that
    /// moved; the entries of regions that stay put (a non-PIE `.text`
    /// under ASLR) survive.
    ///
    /// # Panics
    ///
    /// Panics if the new bases make any two regions overlap.
    pub(crate) fn rebase_regions(&mut self, bases: &[Option<Addr>; SectionKind::COUNT]) {
        for r in &mut self.regions {
            if let Some(base) = r.kind.and_then(|k| bases[k.index()]) {
                if base != r.base {
                    let len = r.data.len() as u64;
                    self.dcache.invalidate_range(r.base, len);
                    self.dcache.invalidate_range(base, len);
                    r.base = base;
                }
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
    }

    // ---- predecoded-instruction cache plumbing (used by the
    // interpreters; invalidation happens in the mutators above) ----

    pub(crate) fn dcache_get(&mut self, pc: Addr) -> Option<CachedInsn> {
        self.dcache.get(pc)
    }

    pub(crate) fn dcache_insert(&mut self, pc: Addr, insn: CachedInsn, byte_len: u32) {
        self.dcache.insert(pc, insn, byte_len);
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

    pub(crate) fn dcache_invalidate_blocks_at(&mut self, pc: Addr) {
        self.dcache.invalidate_blocks_at(pc);
    }

    // ---- threaded-code IR block table plumbing ----

    /// Looks up the lowered block at `pc`; on a miss, revives a victim
    /// block there whose footprint bytes memory holds again.
    #[inline]
    pub(crate) fn dcache_get_ir(&mut self, pc: Addr) -> Option<Arc<IrBlock>> {
        match self.dcache.get_ir(pc) {
            None if self.dcache.has_victims() => self.revive_ir(pc),
            found => found,
        }
    }

    /// The second-chance path: a victim at `pc` comes back only when
    /// exactly as many footprint bytes are fetchable as it kept, and
    /// they are the same bytes. A declined victim is discarded.
    #[cold]
    #[inline(never)]
    fn revive_ir(&mut self, pc: Addr) -> Option<Arc<IrBlock>> {
        if !self.dcache.ir_enabled() {
            return None;
        }
        let block = self.dcache.take_victim(pc)?;
        if !self.fetch_matches(pc, &block.code, block_footprint(block.span)) {
            return None;
        }
        self.dcache.revive_ir(pc, Arc::clone(&block));
        Some(block)
    }

    pub(crate) fn dcache_insert_ir(&mut self, pc: Addr, block: Arc<IrBlock>) {
        self.dcache.insert_ir(pc, block);
    }

    pub(crate) fn dcache_set_ir_enabled(&mut self, on: bool) {
        self.dcache.set_ir_enabled(on);
    }

    pub(crate) fn dcache_ir_enabled(&self) -> bool {
        self.dcache.ir_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fetches the one instruction byte at `pc`, as the interpreters do.
    fn fetch1(m: &Memory, pc: Addr) -> Result<usize, Fault> {
        m.fetch_into(pc, &mut [0u8; 1])
    }

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
            fetch1(&m, 0x8000),
            Err(Fault::NxViolation { pc: 0x8000, .. })
        ));
        assert_eq!(fetch1(&m, 0x1000), Ok(1));
    }

    #[test]
    fn rwx_stack_allows_fetch() {
        let mut m = Memory::new();
        m.map("stack", Some(SectionKind::Stack), 0x8000, 0x10, Perms::RWX);
        assert_eq!(fetch1(&m, 0x8005), Ok(1));
    }

    #[test]
    fn mprotect_analogue() {
        let mut m = mem();
        assert!(fetch1(&m, 0x8000).is_err());
        assert!(m.set_perms(0x8000, Perms::RWX));
        assert_eq!(fetch1(&m, 0x8000), Ok(1));
        assert!(!m.set_perms(0x4000, Perms::RW));
    }

    #[test]
    fn cstr_reads() {
        let mut m = mem();
        m.write_bytes(0x8010, b"/bin/sh\0junk", 0).unwrap();
        assert_eq!(m.read_cstr(0x8010, &mut [0; 64], 0).unwrap(), b"/bin/sh");
        // max cap truncates without fault
        assert_eq!(m.read_cstr(0x8010, &mut [0; 3], 0).unwrap(), b"/bi");
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
    fn fetch_into_stops_at_boundary() {
        let mut m = mem();
        m.poke(0x10FE, &[0x90, 0xC3]).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(m.fetch_into(0x10FE, &mut buf), Ok(2));
        assert_eq!(&buf[..2], &[0x90, 0xC3]);
        assert!(matches!(
            m.fetch_into(0x2000, &mut buf),
            Err(Fault::UnmappedFetch { pc: 0x2000 })
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
        assert!(m.redzone.is_some());
        // 12-byte write: 8 in bounds, 4 diverted.
        m.write_bytes(0x8000, &[0xAA; 12], 0x42).unwrap();
        assert_eq!(m.read_u8(0x8007, 0).unwrap(), 0xAA);
        assert_eq!(m.read_u8(0x8008, 0).unwrap(), 0, "poisoned byte diverted");
        let hit = m.disarm_redzone().expect("overflow recorded");
        assert_eq!(hit.first, 0x8008);
        assert_eq!(hit.last, 0x800B);
        assert_eq!(hit.pc, 0x42);
        assert_eq!(hit.extent(), 4);
        assert!(m.redzone.is_none());
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

    // ---- the one-probe word path against four byte accesses ----

    fn bytewise_write_u32(m: &mut Memory, addr: Addr, v: u32, pc: Addr) -> Result<(), Fault> {
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            m.write_u8(addr.wrapping_add(i as u32), b, pc)?;
        }
        Ok(())
    }

    fn bytewise_read_u32(m: &Memory, addr: Addr, pc: Addr) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = m.read_u8(addr.wrapping_add(i as u32), pc)?;
        }
        Ok(u32::from_le_bytes(b))
    }

    /// Asserts two memories hold the same bytes, dirty pages,
    /// permissions and decode-cache generation, and disarm to the same
    /// sanitizer record.
    fn assert_same(mut word: Memory, mut bytes: Memory) {
        assert_eq!(word.regions.len(), bytes.regions.len());
        for (w, b) in word.regions.iter().zip(&bytes.regions) {
            assert_eq!((w.base, w.perms), (b.base, b.perms), "{}", w.name);
            assert_eq!(w.data, b.data, "{} contents", w.name);
            assert_eq!(w.dirty, b.dirty, "{} dirty pages", w.name);
        }
        assert_eq!(word.dcache_generation(), bytes.dcache_generation());
        assert_eq!(word.disarm_redzone(), bytes.disarm_redzone());
    }

    /// Runs one word store and one word load each way on clones of `m`.
    fn check_word(m: &Memory, addr: Addr, v: u32) -> (Result<(), Fault>, Result<u32, Fault>) {
        let (mut word, mut bytes) = (m.clone(), m.clone());
        let stored = word.write_u32(addr, v, 0x42);
        assert_eq!(stored, bytewise_write_u32(&mut bytes, addr, v, 0x42));
        let loaded = word.read_u32(addr, 0x43);
        assert_eq!(loaded, bytewise_read_u32(&bytes, addr, 0x43));
        assert_same(word, bytes);
        (stored, loaded)
    }

    #[test]
    fn word_store_straddling_into_unmapped_writes_the_prefix() {
        let mut m = mem();
        m.snapshot();
        let (stored, loaded) = check_word(&m, 0x80FE, 0xDDCC_BBAA);
        assert_eq!(
            stored,
            Err(Fault::UnmappedWrite {
                addr: 0x8100,
                pc: 0x42
            })
        );
        assert_eq!(
            loaded,
            Err(Fault::UnmappedRead {
                addr: 0x8100,
                pc: 0x43
            })
        );
        let mut word = m.clone();
        let _ = word.write_u32(0x80FE, 0xDDCC_BBAA, 0x42);
        assert_eq!(word.read_bytes(0x80FE, 2, 0).unwrap(), [0xAA, 0xBB]);
    }

    #[test]
    fn word_store_straddling_into_read_only_writes_the_prefix() {
        let mut m = mem();
        m.map("ro", None, 0x8100, 0x100, Perms::READ);
        let (stored, loaded) = check_word(&m, 0x80FD, 0x1122_3344);
        assert!(matches!(
            stored,
            Err(Fault::ProtectedWrite { addr: 0x8100, .. })
        ));
        assert_eq!(loaded, Ok(0x0022_3344), "the read-only byte reads back 0");
    }

    #[test]
    fn word_store_to_read_only_writes_nothing() {
        let m = mem();
        let (stored, loaded) = check_word(&m, 0x1010, 0xFFFF_FFFF);
        assert!(matches!(
            stored,
            Err(Fault::ProtectedWrite {
                addr: 0x1010,
                pc: 0x42,
                ..
            })
        ));
        assert_eq!(loaded, Ok(0));
    }

    #[test]
    fn word_access_past_everything_faults_at_its_first_byte() {
        let m = mem();
        let (stored, loaded) = check_word(&m, 0x4000, 1);
        assert_eq!(
            stored,
            Err(Fault::UnmappedWrite {
                addr: 0x4000,
                pc: 0x42
            })
        );
        assert!(matches!(
            loaded,
            Err(Fault::UnmappedRead { addr: 0x4000, .. })
        ));
    }

    #[test]
    fn armed_redzone_records_every_poisoned_byte_of_a_word() {
        let mut m = mem();
        m.write_bytes(0x8000, &[0x5A; 16], 0).unwrap();
        m.arm_redzone(0x8000, 8, 0x8100);
        // Bytes 0x8006..0x8008 commit; 0x8008 and 0x8009 are diverted.
        let (stored, loaded) = check_word(&m, 0x8006, 0x0403_0201);
        assert_eq!((stored, loaded), (Ok(()), Ok(0x0000_0201)));
        let mut word = m.clone();
        word.write_u32(0x8006, 0x0403_0201, 0x42).unwrap();
        let hit = word.disarm_redzone().unwrap();
        assert_eq!((hit.first, hit.last, hit.pc), (0x8008, 0x8009, 0x42));
        assert_eq!(hit.access, RedzoneAccess::Store);
        assert_eq!(word.read_bytes(0x8006, 4, 0).unwrap(), [1, 2, 0x5A, 0x5A]);
    }

    #[test]
    fn word_store_to_cached_code_drops_decodes_and_restore_rewinds() {
        let mut m = Memory::new();
        m.map("code", Some(SectionKind::Stack), 0x8000, 0x2000, Perms::RWX);
        let snap = m.snapshot();
        let nop = CachedInsn::X86(crate::x86::Insn::Nop, 1);
        // One decode on the stored-to page, one on the next page.
        m.dcache_insert(0x8010, nop, 1);
        m.dcache_insert(0x9010, nop, 1);
        let generation = m.dcache_generation();
        let (stored, _) = check_word(&m, 0x8010, 0xCCCC_CCCC);
        assert_eq!(stored, Ok(()));

        m.write_u32(0x8010, 0xCCCC_CCCC, 0).unwrap();
        assert_eq!(m.dcache_generation(), generation + 1);
        assert!(m.dcache_get(0x8010).is_none(), "stale decode dropped");
        assert!(m.dcache_get(0x9010).is_some(), "other page stays warm");

        m.restore(&snap);
        assert_eq!(m.read_u32(0x8010, 0).unwrap(), 0, "store rewound");
        let rewound = m.regions[0].dirty.as_ref().unwrap();
        assert!(rewound.iter().all(|&w| w == 0), "dirty tracking re-armed");
    }

    #[test]
    fn word_path_matches_bytes_at_every_offset_near_region_edges() {
        let mut m = mem();
        m.map("ro", None, 0x8100, 0x10, Perms::READ);
        m.snapshot();
        for addr in (0x0FFC..0x1008).chain(0x80F8..0x8114) {
            let _ = check_word(&m, addr, 0xA1B2_C3D4);
        }
    }

    // ---- the redzone range check against the byte loops ----

    fn bytewise_read_into(m: &Memory, addr: Addr, buf: &mut [u8], pc: Addr) -> Result<(), Fault> {
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = m.read_u8(addr.wrapping_add(i as u32), pc)?;
        }
        Ok(())
    }

    fn bytewise_write_bytes(
        m: &mut Memory,
        addr: Addr,
        bytes: &[u8],
        pc: Addr,
    ) -> Result<(), Fault> {
        for (i, &b) in bytes.iter().enumerate() {
            m.write_u8(addr.wrapping_add(i as u32), b, pc)?;
        }
        Ok(())
    }

    /// Holds every accessor with a redzone-miss fast path to its byte
    /// loop for one `len`-byte access at `addr` (wrapping past 2^32 like
    /// the byte loops do), and the miss test itself to its definition:
    /// no byte of the access is poisoned and none wraps. (An empty
    /// access does nothing on either path, so its verdict is free.)
    fn check_range(m: &Memory, addr: u64, len: usize) {
        let addr = addr as Addr;
        let z = m.redzone.as_ref().expect("armed");
        let touches = (addr as u64..addr as u64 + len as u64)
            .any(|a| a >= 1 << 32 || (a >= z.zone_start as u64 && a < z.zone_end));
        let at = format!("{addr:#x}+{len}");
        if len > 0 {
            assert_eq!(m.misses_redzone(addr, len), !touches, "miss test at {at}");
        }

        if len == 4 {
            let _ = check_word(m, addr, 0xA1B2_C3D4);
        }
        let (fast, slow) = (m.clone(), m.clone());
        let (mut a, mut b) = (vec![0xEE; len], vec![0xEE; len]);
        let got = fast.read_into(addr, &mut a, 0x44);
        assert_eq!(
            got,
            bytewise_read_into(&slow, addr, &mut b, 0x44),
            "read_into at {at}"
        );
        assert_eq!(a, b, "read_into bytes at {at}");
        assert_same(fast, slow);

        let (mut fast, mut slow) = (m.clone(), m.clone());
        let data: Vec<u8> = (0..len).map(|i| 0x80 | i as u8).collect();
        let got = fast.write_bytes(addr, &data, 0x45);
        assert_eq!(
            got,
            bytewise_write_bytes(&mut slow, addr, &data, 0x45),
            "write_bytes at {at}"
        );
        assert_same(fast, slow);

        let (fast, slow) = (m.clone(), m.clone());
        let got = fast
            .read_cstr(addr, &mut vec![0; len], 0x9)
            .map(<[u8]>::to_vec);
        assert_eq!(
            got,
            bytewise_read_cstr(&slow, addr, len),
            "read_cstr at {at}"
        );
        assert_same(fast, slow);
    }

    #[test]
    fn redzone_miss_fast_paths_match_the_byte_loops_at_every_boundary() {
        /// RW regions, filled with 'a'; the zone's buffer, capacity and
        /// end; a NUL byte.
        type Setup = (&'static [(Addr, u32)], Addr, u32, u64, Option<Addr>);
        let setups: [Setup; 5] = [
            // The zone runs to the end of the mapping, as in the daemon.
            (&[(0x8000, 0x100)], 0x8000, 0x40, 0x8100, None),
            // The same, with another region right after it.
            (
                &[(0x8000, 0x100), (0x8100, 0x20)],
                0x8000,
                0x40,
                0x8100,
                None,
            ),
            // The zone ends mid-region; a NUL past it ends strings there.
            (&[(0x8000, 0x100)], 0x8000, 0x40, 0x8080, Some(0x8090)),
            // A NUL just before the zone ends strings short of it.
            (&[(0x8000, 0x100)], 0x8000, 0x40, 0x8080, Some(0x803D)),
            // The zone ends at 2^32; an access past it wraps to 0.
            (
                &[(0xFFFF_FF00, 0x100), (0, 0x20)],
                0xFFFF_FF00,
                0x80,
                1 << 32,
                None,
            ),
        ];
        for (regions, buffer, capacity, zone_end, nul) in setups {
            let mut m = Memory::new();
            for &(base, size) in regions {
                m.map("rw", None, base, size, Perms::RW);
                m.write_bytes(base, &vec![b'a'; size as usize], 0).unwrap();
            }
            if let Some(at) = nul {
                m.write_u8(at, 0, 0).unwrap();
            }
            m.snapshot();
            m.arm_redzone(buffer, capacity, zone_end);
            let zone_start = buffer as u64 + capacity as u64;
            for boundary in [zone_start, zone_end] {
                // Ends just before, straddles, sits inside, or starts at
                // the boundary, and a few bytes either side.
                for start in boundary - 12..=boundary + 4 {
                    for len in 0..=12 {
                        check_range(&m, start, len);
                    }
                }
            }
            // Accesses spanning the whole zone and past it.
            for start in [buffer as u64, zone_start - 1, zone_start] {
                check_range(&m, start, (zone_end - start) as usize + 8);
            }
        }
    }

    fn bytewise_read_cstr(m: &Memory, addr: Addr, max: usize) -> Result<Vec<u8>, Fault> {
        let mut out = Vec::new();
        for i in 0..max {
            match m.read_u8(addr.wrapping_add(i as u32), 0x9)? {
                0 => break,
                b => out.push(b),
            }
        }
        Ok(out)
    }

    #[test]
    fn cstr_scan_matches_byte_reads_across_regions() {
        let mut m = mem();
        m.map("next", None, 0x8100, 0x10, Perms::RW);
        m.map("locked", None, 0x8110, 0x10, Perms::NONE);
        m.write_bytes(0x80F0, &[b'a'; 0x20], 0).unwrap();
        m.write_u8(0x8108, 0, 0).unwrap();
        for (addr, max) in [
            (0x80F0, 64),
            (0x80F0, 5),
            (0x80F0, 16),
            (0x8109, 64),
            (0x10F0, 64),
        ] {
            assert_eq!(
                m.read_cstr(addr, &mut vec![0; max], 0x9)
                    .map(<[u8]>::to_vec),
                bytewise_read_cstr(&m, addr, max),
                "{addr:#x}/{max}"
            );
        }
        assert_eq!(m.read_cstr(0x80F0, &mut [0; 64], 0).unwrap(), [b'a'; 0x18]);
        assert!(matches!(
            m.read_cstr(0x8109, &mut [0; 64], 0),
            Err(Fault::ProtectedRead { addr: 0x8110, .. })
        ));
        // Armed: poisoned bytes read as the terminator and are recorded.
        m.arm_redzone(0x80F0, 4, 0x8100);
        assert_eq!(m.read_cstr(0x80F0, &mut [0; 64], 0x9).unwrap(), b"aaaa");
        let hit = m.disarm_redzone().unwrap();
        assert_eq!(
            (hit.first, hit.last, hit.access),
            (0x80F4, 0x80F4, RedzoneAccess::Load)
        );
    }

    /// An RWX stack holding a 16-byte NOP run at 0x8100 written after
    /// the snapshot, with the one-NOP block there lowered and cached as
    /// the IR builder does.
    fn stack_code() -> (Memory, MemorySnapshot) {
        let mut m = Memory::new();
        m.map(
            "stack",
            Some(SectionKind::Stack),
            0x8000,
            0x2000,
            Perms::RWX,
        );
        let snap = m.snapshot();
        m.poke(0x8100, &[0x90; 16]).unwrap();
        let mut b = crate::ir::lower(&[CachedInsn::X86(crate::x86::Insn::Nop, 1)], 0x8100);
        b.code = m.fetch_vec(0x8100, block_footprint(b.span));
        assert_eq!(b.code.len(), 17);
        m.dcache_insert_ir(0x8100, Arc::new(b));
        (m, snap)
    }

    #[test]
    fn restored_stack_code_is_revived_when_its_bytes_come_back() {
        let (mut m, snap) = stack_code();
        m.restore(&snap);
        assert!(m.dcache.has_victims(), "the restore kept the block");
        m.poke(0x8100, &[0x90; 16]).unwrap();
        let generation = m.dcache_generation();
        let (hits, misses) = m.dcache_stats();
        assert!(m.dcache_get_ir(0x8100).is_some(), "same bytes revive");
        assert_eq!(m.dcache_stats(), (hits + 1, misses));
        assert_eq!(m.dcache_generation(), generation);
        assert!(m.dcache_get_ir(0x8100).is_some(), "and stay in the table");
    }

    #[test]
    fn one_changed_footprint_byte_declines_the_victim() {
        // The encoding itself, and the last byte of the lookahead.
        for at in [0x8100, 0x8110] {
            let (mut m, snap) = stack_code();
            m.restore(&snap);
            m.poke(0x8100, &[0x90; 16]).unwrap();
            m.poke(at, &[0xCC]).unwrap();
            assert!(m.dcache_get_ir(0x8100).is_none(), "byte {at:#x}");
            assert!(!m.dcache.has_victims(), "a declined victim is gone");
        }
    }

    #[test]
    fn victim_whose_tail_became_unfetchable_is_declined() {
        // A block whose lookahead runs into the next region.
        let mut m = Memory::new();
        m.map(
            "stack",
            Some(SectionKind::Stack),
            0x8000,
            0x1000,
            Perms::RWX,
        );
        m.map("next", None, 0x9000, 0x1000, Perms::RWX);
        let mut b = crate::ir::lower(&[CachedInsn::X86(crate::x86::Insn::Nop, 1)], 0x8FF8);
        b.code = m.fetch_vec(0x8FF8, block_footprint(b.span));
        assert_eq!(b.code.len(), 17);
        let code = b.code.clone();
        m.dcache_insert_ir(0x8FF8, Arc::new(b));
        m.write_u8(0x8FF8, 0, 0).unwrap();
        m.write_u8(0x8FF8, code[0], 0).unwrap();
        // No path keeps a victim across a permission change, so flip the
        // bit behind the cache's back: only the length check sees it.
        m.regions[1].perms = Perms::RW;
        assert!(!m.fetch_matches(0x8FF8, &code, 17));
        assert!(m.fetch_matches(0x8FF8, &code[..8], 17), "a short capture");
        assert!(m.dcache_get_ir(0x8FF8).is_none());
        m.regions[1].perms = Perms::RWX;
        assert!(m.fetch_matches(0x8FF8, &code, 17));
        assert!(!m.fetch_matches(0x8FF8, &code[..8], 17), "bytes long");
    }

    #[test]
    fn layout_changes_discard_victims() {
        let mut moved = [None; SectionKind::COUNT];
        moved[SectionKind::Stack.index()] = Some(0x2_0000);
        let changes = [
            "set_perms",
            "map",
            "flush",
            "hook change",
            "reslide",
            "IR off",
        ];
        for name in changes {
            let (mut m, snap) = stack_code();
            m.restore(&snap);
            assert!(m.dcache.has_victims(), "{name}");
            match name {
                "set_perms" => assert!(m.set_perms(0x8000, Perms::RWX)),
                "map" => {
                    m.map("late", None, 0x4_0000, 0x1000, Perms::RW);
                }
                "flush" => m.dcache_flush(),
                "hook change" => m.dcache_invalidate_blocks_at(0x8110),
                "reslide" => m.rebase_regions(&moved),
                _ => m.dcache_set_ir_enabled(false),
            }
            assert!(!m.dcache.has_victims(), "{name}");
            m.dcache_set_ir_enabled(true);
            m.poke(0x8100, &[0x90; 16]).unwrap_or(());
            assert!(m.dcache_get_ir(0x8100).is_none(), "{name}");
        }
    }

    #[test]
    fn restore_drift_discards_victims() {
        let mut m = Memory::new();
        m.map(
            "stack",
            Some(SectionKind::Stack),
            0x8000,
            0x2000,
            Perms::RWX,
        );
        let snap = m.snapshot();
        let mut moved = [None; SectionKind::COUNT];
        moved[SectionKind::Stack.index()] = Some(0x2_0000);
        m.rebase_regions(&moved);
        m.poke(0x2_0100, &[0x90; 16]).unwrap();
        let mut b = crate::ir::lower(&[CachedInsn::X86(crate::x86::Insn::Nop, 1)], 0x2_0100);
        b.code = m.fetch_vec(0x2_0100, block_footprint(b.span));
        m.dcache_insert_ir(0x2_0100, Arc::new(b));
        m.write_u8(0x2_0100, 0x90, 0).unwrap();
        assert!(m.dcache.has_victims());
        m.restore(&snap);
        assert!(!m.dcache.has_victims(), "the region moved back");
    }
}
