//! Predecoded-instruction cache.
//!
//! Decoding is pure — the same bytes at the same pc always decode to the
//! same [`Insn`](crate::x86::Insn) — so the fetch/decode half of the
//! interpreter loop can be memoised. The cache is owned by
//! [`Memory`](crate::Memory) and uses *push* invalidation: every path
//! that can change code bytes, their executability or their address
//! (`write_u8`, `poke`, `set_perms`, `map`, a snapshot restore, a
//! reslide) and every hook change notifies the cache directly, so a
//! cache hit needs **no** validation — no permission re-check, no
//! generation compare. This keeps self-modifying shellcode and per-boot
//! reloads correct while the hot path is a single probe of an
//! open-addressing table.
//!
//! Invalidation is precise: each entry covers a byte *footprint* — an
//! instruction's encoding, or a lowered block's encodings plus the
//! fetch window past its end that decided where the block stops — and
//! drops exactly the entries whose footprint overlaps the changed
//! bytes. A write drops only what it overlaps, so shellcode that pushes
//! onto the page it runs from keeps its other decodes; a reslide or
//! restore that moves a region drops the region's old and new ranges; a
//! hook change drops only the blocks whose footprint holds a pc that
//! gained or lost its hook (per-instruction entries are hook-agnostic:
//! `step` checks hooks before it decodes). So a fork keeps every decode
//! of code that did not move — the non-PIE `.text` gadgets and `.plt`
//! stubs a W⊕X+ASLR chain runs stay warm across every reslide. Rare
//! events (a new mapping, `register_hook`, an `mprotect`) still flush
//! the whole table. The cache is always on; there is no switch to turn
//! it off.
//!
//! A lowered block carries a copy of its footprint's bytes. When a
//! *content* change (a guest write, or a restore copying a dirty page
//! back) drops it, the block moves to a small victim table instead of
//! being freed; an IR-table miss at its pc revives it when memory holds
//! those bytes again — the injected stack code a fork rewinds and the
//! payload rewrites at the same address. The compare runs only on the
//! miss path (Valgrind's `--smc-check=stack` idea), so a hit still
//! validates nothing. Layout changes discard overlapping victims, since
//! equal bytes cannot show a moved region, a revoked X bit or a hook.

use std::sync::Arc;

use cml_image::Addr;

use crate::ir::IrBlock;
use crate::{arm, riscv, x86};

/// Pages are the invalidation granule.
pub(crate) const PAGE_SIZE: u32 = 0x1000;
pub(crate) const PAGE_MASK: u32 = !(PAGE_SIZE - 1);

/// Bytes past a lowered block's last encoding that the block builder
/// read or probed to decide where the block ends: the widest fetch
/// window of any ISA (x86's 16 bytes), which also covers a hook at the
/// first pc after the block.
const BLOCK_LOOKAHEAD: u32 = 16;

/// Lowered blocks that a content invalidation dropped and that an
/// IR-table miss may still revive; the oldest go first past this many.
const VICTIMS: usize = 32;

/// Footprint length of a lowered block whose encodings span `span`
/// bytes.
pub(crate) fn block_footprint(span: u32) -> u32 {
    span.saturating_add(BLOCK_LOOKAHEAD)
}

/// A memoised decode for either ISA.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CachedInsn {
    /// x86 instruction plus its encoded length.
    X86(x86::Insn, u8),
    /// ARM instructions are always 4 bytes.
    Arm(arm::Insn),
    /// RISC-V instruction (RVC forms pre-expanded to RV32I) plus its
    /// encoded length: 2 for a compressed parcel, 4 for a base word.
    Riscv(riscv::Insn, u8),
}

impl CachedInsn {
    /// Encoded length of the instruction in bytes.
    pub(crate) fn byte_len(self) -> u32 {
        match self {
            CachedInsn::X86(_, len) => len as u32,
            CachedInsn::Arm(_) => 4,
            CachedInsn::Riscv(_, len) => len as u32,
        }
    }
}

/// One cached value keyed by `pc`, covering the `len`-byte footprint
/// its validity depends on.
#[derive(Debug, Clone)]
struct Slot<T> {
    pc: Addr,
    len: u32,
    val: T,
}

impl<T> Slot<T> {
    /// Whether the footprint overlaps `[lo, hi)` (64-bit, so a footprint
    /// may run past the top of the address space).
    fn overlaps(&self, lo: u64, hi: u64) -> bool {
        (self.pc as u64) < hi && lo < self.pc as u64 + self.len as u64
    }
}

/// Open-addressing (linear-probe) pc → value table.
///
/// Starts empty (a machine that never executes pays nothing), grows
/// geometrically from a small table so short-lived machines pay a few
/// hundred nanoseconds at most.
#[derive(Debug, Clone)]
struct Table<T> {
    slots: Vec<Option<Slot<T>>>,
    /// Indices of the occupied `slots`, so clearing and scanning touch
    /// only those (a session fills a handful of a table's hundreds).
    occupied: Vec<usize>,
    /// Holding area for [`Table::rehash`]; keeps its capacity, so a warm
    /// invalidation allocates nothing.
    spare: Vec<Slot<T>>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            slots: Vec::new(),
            occupied: Vec::new(),
            spare: Vec::new(),
        }
    }
}

const INITIAL_SLOTS: usize = 256;

fn hash(pc: Addr) -> usize {
    (pc.wrapping_mul(0x9E37_79B1)) as usize
}

impl<T> Table<T> {
    fn find(&self, pc: Addr) -> Option<&T> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(pc) & mask;
        loop {
            match &self.slots[i] {
                Some(e) if e.pc == pc => return Some(&e.val),
                Some(_) => i = (i + 1) & mask,
                None => return None,
            }
        }
    }

    /// Inserts `val` unless `pc` already has an entry.
    fn insert(&mut self, pc: Addr, len: u32, val: T) {
        if self.slots.len() * 3 <= (self.occupied.len() + 1) * 4 {
            let cap = (self.slots.len() * 4).max(INITIAL_SLOTS);
            self.rehash(cap, Some);
        }
        self.place(Slot { pc, len, val });
    }

    fn place(&mut self, e: Slot<T>) {
        let mask = self.slots.len() - 1;
        let mut i = hash(e.pc) & mask;
        loop {
            match &self.slots[i] {
                Some(o) if o.pc == e.pc => return,
                Some(_) => i = (i + 1) & mask,
                None => {
                    self.slots[i] = Some(e);
                    self.occupied.push(i);
                    return;
                }
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Slot<T>> {
        self.occupied.iter().filter_map(|&i| self.slots[i].as_ref())
    }

    /// Empties the occupied slots; the table keeps its capacity.
    fn clear(&mut self) {
        for i in self.occupied.drain(..) {
            self.slots[i] = None;
        }
    }

    /// Hands every entry whose footprint overlaps `[lo, hi)` to
    /// `dropped`. Returns whether anything was dropped.
    fn invalidate(&mut self, lo: u64, hi: u64, mut dropped: impl FnMut(Slot<T>)) -> bool {
        if !self.iter().any(|e| e.overlaps(lo, hi)) {
            return false;
        }
        self.rehash(self.slots.len(), |e| {
            if e.overlaps(lo, hi) {
                dropped(e);
                None
            } else {
                Some(e)
            }
        });
        true
    }

    /// Re-seats the entries `keep` hands back into `cap` slots. Every
    /// entry leaves the table before any is placed again, so no
    /// survivor's probe chain can run through a slot a dropped entry
    /// vacated.
    fn rehash(&mut self, cap: usize, mut keep: impl FnMut(Slot<T>) -> Option<Slot<T>>) {
        let mut held = std::mem::take(&mut self.spare);
        for i in self.occupied.drain(..) {
            if let Some(e) = self.slots[i].take().and_then(&mut keep) {
                held.push(e);
            }
        }
        if cap != self.slots.len() {
            self.slots.clear();
            self.slots.resize_with(cap, || None);
        }
        for e in held.drain(..) {
            self.place(e);
        }
        self.spare = held;
    }
}

/// Page bases of the footprint `[pc, pc + len)`.
fn pages(pc: Addr, len: u32) -> impl Iterator<Item = u32> {
    let first = pc & PAGE_MASK;
    let last = (pc as u64 + len.max(1) as u64 - 1).min(u32::MAX as u64) as u32 & PAGE_MASK;
    (first..=last).step_by(PAGE_SIZE as usize)
}

/// Adds the pages of `[pc, pc + len)` to the sorted set `code_pages`
/// (in place, so it never outgrows the set it is rebuilt to). Returns
/// whether any page was new.
fn add_pages(code_pages: &mut Vec<u32>, pc: Addr, len: u32) -> bool {
    let mut added = false;
    for page in pages(pc, len) {
        if let Err(at) = code_pages.binary_search(&page) {
            code_pages.insert(at, page);
            added = true;
        }
    }
    added
}

/// The predecoded-instruction cache: per-insn decodes and lowered IR
/// blocks, each in its own pc-keyed [`Table`].
#[derive(Debug, Clone)]
pub(crate) struct DecodeCache {
    /// Whether the threaded-code IR dispatcher may use the IR table
    /// (per-insn entries stay usable either way).
    ir_enabled: bool,
    insns: Table<CachedInsn>,
    blocks: Table<Arc<IrBlock>>,
    /// Blocks a content invalidation dropped, oldest first, at most
    /// [`VICTIMS`]; each keeps the footprint bytes it was lowered from.
    victims: Vec<Slot<Arc<IrBlock>>>,
    /// Sorted page bases that some cached footprint touches. Writes and
    /// range invalidations consult this before scanning the tables.
    code_pages: Vec<u32>,
    /// Last page verified *not* to hold cached decodes — dedups the
    /// `code_pages` lookup for sequential write bursts.
    last_clean_page: Option<u32>,
    /// Bumped whenever cached state is dropped; the IR dispatch loop
    /// re-checks it so a self-modifying write mid-block abandons the
    /// lowered block.
    generation: u64,
    /// Dispatches served without decoding: per-insn hits plus IR block
    /// hits and revivals.
    hits: u64,
    /// Per-insn lookups that had to decode.
    misses: u64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache {
            ir_enabled: true,
            insns: Table::default(),
            blocks: Table::default(),
            victims: Vec::new(),
            code_pages: Vec::new(),
            last_clean_page: None,
            generation: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl DecodeCache {
    /// Turns the threaded-code IR dispatcher on or off for this machine
    /// (off selects the single-step reference tier). Disabling flushes.
    pub(crate) fn set_ir_enabled(&mut self, on: bool) {
        self.ir_enabled = on;
        if !on {
            self.flush();
        }
    }

    pub(crate) fn ir_enabled(&self) -> bool {
        self.ir_enabled
    }

    /// Invalidation-generation counter; bumped whenever cached state is
    /// dropped.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// `(hits, misses)` counters.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a memoised decode. A hit is valid by construction: any
    /// mutation since insertion would have dropped the entry.
    pub(crate) fn get(&mut self, pc: Addr) -> Option<CachedInsn> {
        let found = self.insns.find(pc).copied();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Memoises a successful decode of `byte_len` bytes at `pc`.
    pub(crate) fn insert(&mut self, pc: Addr, insn: CachedInsn, byte_len: u32) {
        self.insns.insert(pc, byte_len, insn);
        // Record every page the encoding touches so writes to any of
        // them (including the tail page of a straddling x86 insn)
        // invalidate it.
        self.note_code_pages(pc, byte_len);
    }

    /// Looks up a lowered IR block starting at `pc`. Valid by
    /// construction, like per-insn entries (push invalidation), and
    /// additionally hook-free by construction: a hook change drops every
    /// block whose footprint holds the pc, and the builder refuses
    /// hooked start addresses, so a hit never needs a per-entry hook
    /// probe. A hit counts toward `hits`; a miss counts nothing (the
    /// rebuild's per-insn lookups do).
    pub(crate) fn get_ir(&mut self, pc: Addr) -> Option<Arc<IrBlock>> {
        if !self.ir_enabled {
            return None;
        }
        let found = self.blocks.find(pc).map(Arc::clone);
        if found.is_some() {
            self.hits += 1;
        }
        found
    }

    /// Memoises a lowered IR block (its footprint is
    /// [`block_footprint`] of its span).
    pub(crate) fn insert_ir(&mut self, pc: Addr, block: Arc<IrBlock>) {
        if !self.ir_enabled {
            return;
        }
        let len = block_footprint(block.span);
        self.blocks.insert(pc, len, block);
        self.note_code_pages(pc, len);
    }

    /// Whether an IR-table miss has any victim to try.
    #[inline]
    pub(crate) fn has_victims(&self) -> bool {
        !self.victims.is_empty()
    }

    /// Removes and returns the victim block at `pc`. The caller revives
    /// it with [`revive_ir`](DecodeCache::revive_ir) only when memory
    /// still holds its footprint bytes; otherwise it is gone for good.
    pub(crate) fn take_victim(&mut self, pc: Addr) -> Option<Arc<IrBlock>> {
        let i = self.victims.iter().position(|v| v.pc == pc)?;
        Some(self.victims.remove(i).val)
    }

    /// Puts a victim whose footprint bytes matched memory back in the IR
    /// table. Nothing was dropped, so the generation stays; serving the
    /// block without decoding counts as a hit.
    pub(crate) fn revive_ir(&mut self, pc: Addr, block: Arc<IrBlock>) {
        self.hits += 1;
        self.insert_ir(pc, block);
    }

    fn note_code_pages(&mut self, pc: Addr, len: u32) {
        if add_pages(&mut self.code_pages, pc, len) {
            // A page just became cache-backed; a previous "clean"
            // verdict for it no longer holds.
            self.last_clean_page = None;
        }
    }

    /// Whether any cached footprint may touch `[lo, hi)`. A range past
    /// either end of the code pages (libc or the stack, seen from
    /// `.text`) answers in two compares.
    #[inline]
    fn has_code_in(&self, lo: u64, hi: u64) -> bool {
        let (Some(&first), Some(&last)) = (self.code_pages.first(), self.code_pages.last()) else {
            return false;
        };
        if hi <= first as u64 || lo >= last as u64 + PAGE_SIZE as u64 {
            return false;
        }
        let i = self
            .code_pages
            .partition_point(|&p| p as u64 + PAGE_SIZE as u64 <= lo);
        self.code_pages.get(i).is_some_and(|&p| (p as u64) < hi)
    }

    /// A byte at `addr` is about to change.
    #[inline]
    pub(crate) fn note_write(&mut self, addr: Addr) {
        self.note_write_range(addr, 1);
    }

    /// `len` bytes from `addr` are about to change, or were just copied
    /// back by a restore. One compare in the common case (writes to a
    /// page verified to hold no footprint); otherwise drops the decodes
    /// and blocks whose footprint overlaps the written bytes, moving the
    /// blocks to the victim table.
    #[inline]
    pub(crate) fn note_write_range(&mut self, addr: Addr, len: usize) {
        let page = addr & PAGE_MASK;
        if self.last_clean_page == Some(page) && (addr - page) as usize + len <= PAGE_SIZE as usize
        {
            return;
        }
        self.note_write_slow(addr, len);
    }

    fn note_write_slow(&mut self, addr: Addr, len: usize) {
        let (lo, hi) = (addr as u64, (addr as u64 + len.max(1) as u64).min(1 << 32));
        self.drop_overlapping(lo, hi, true);
        let last = (hi - 1) as u32 & PAGE_MASK;
        if self.code_pages.binary_search(&last).is_err() {
            self.last_clean_page = Some(last);
        }
    }

    /// The region at `[addr, addr + len)` moves or changes permissions:
    /// drops every per-insn decode, lowered block and victim whose
    /// footprint overlaps it, then bumps the generation (so an in-flight
    /// IR block abandons itself) if a table entry went. Entries
    /// elsewhere stay cached.
    #[inline]
    pub(crate) fn invalidate_range(&mut self, addr: Addr, len: u64) {
        let (lo, hi) = (addr as u64, addr as u64 + len);
        self.discard_victims(lo, hi);
        self.drop_overlapping(lo, hi, false);
    }

    /// Drops the per-insn decodes and blocks whose footprint overlaps
    /// `[lo, hi)`; `keep_blocks` moves the blocks to the victim table.
    fn drop_overlapping(&mut self, lo: u64, hi: u64, keep_blocks: bool) {
        if !self.has_code_in(lo, hi) {
            return;
        }
        let insns = self.insns.invalidate(lo, hi, drop);
        let victims = &mut self.victims;
        let blocks = self.blocks.invalidate(lo, hi, |e| {
            if keep_blocks {
                victims.retain(|v| v.pc != e.pc);
                if victims.len() == VICTIMS {
                    victims.remove(0);
                }
                victims.push(e);
            }
        });
        if insns || blocks {
            self.after_invalidate();
        }
    }

    /// Discards the victims whose footprint overlaps `[lo, hi)`.
    #[inline]
    fn discard_victims(&mut self, lo: u64, hi: u64) {
        if self.has_victims() {
            self.victims.retain(|v| !v.overlaps(lo, hi));
        }
    }

    /// `pc` gained or lost a libc hook: drops the lowered blocks and
    /// victims whose footprint holds it (a block must stop before a
    /// hooked pc, and a block that stopped before a now-unhooked one
    /// would run longer if rebuilt). Per-insn decodes are hook-agnostic
    /// and stay.
    #[inline]
    pub(crate) fn invalidate_blocks_at(&mut self, pc: Addr) {
        let (lo, hi) = (pc as u64, pc as u64 + 1);
        self.discard_victims(lo, hi);
        if self.has_code_in(lo, hi) && self.blocks.invalidate(lo, hi, drop) {
            self.after_invalidate();
        }
    }

    /// Rebuilds `code_pages` from the surviving footprints and bumps the
    /// generation.
    fn after_invalidate(&mut self) {
        self.code_pages.clear();
        let footprints = self.insns.iter().map(|e| (e.pc, e.len));
        for (pc, len) in footprints.chain(self.blocks.iter().map(|e| (e.pc, e.len))) {
            add_pages(&mut self.code_pages, pc, len);
        }
        self.last_clean_page = None;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Drops every cached decode, lowered block and victim (new mapping,
    /// permission change, hook registration, IR turned off, or a restore
    /// that drops regions). Clears only the occupied slots; the tables
    /// keep their capacity.
    pub(crate) fn flush(&mut self) {
        self.insns.clear();
        self.blocks.clear();
        self.victims.clear();
        self.code_pages.clear();
        self.last_clean_page = None;
        self.generation = self.generation.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x86_nop() -> CachedInsn {
        CachedInsn::X86(x86::Insn::Nop, 1)
    }

    fn block(pc: Addr) -> Arc<IrBlock> {
        Arc::new(crate::ir::lower(&[x86_nop()], pc))
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let mut c = DecodeCache::default();
        assert!(c.get(0x1000).is_none());
        c.insert(0x1000, x86_nop(), 1);
        assert!(matches!(
            c.get(0x1000),
            Some(CachedInsn::X86(x86::Insn::Nop, 1))
        ));
        assert_eq!(c.stats(), (1, 1));
        // A block hit counts as a hit; a block miss counts nothing.
        assert!(c.get_ir(0x1000).is_none());
        c.insert_ir(0x1000, block(0x1000));
        assert!(c.get_ir(0x1000).is_some());
        assert_eq!(c.stats(), (2, 1));
    }

    fn x86_nop5() -> CachedInsn {
        CachedInsn::X86(x86::Insn::Nop, 5)
    }

    #[test]
    fn write_drops_only_the_footprints_it_overlaps() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop5(), 5);
        c.insert(0x1800, x86_nop(), 1);
        c.insert(0x3000, x86_nop(), 1);
        c.note_write(0x8000); // unrelated page: nothing dropped
        c.note_write(0x1A00); // same page, outside every footprint
        assert!(c.get(0x1000).is_some() && c.get(0x1800).is_some());
        c.note_write(0x1002); // inside the first encoding
        assert!(c.get(0x1000).is_none());
        assert!(c.get(0x1800).is_some(), "a same-page decode survives");
        assert!(c.get(0x3000).is_some(), "another page's decode survives");
    }

    #[test]
    fn write_one_byte_before_inside_and_past_a_footprint() {
        // A 5-byte encoding covers [0x1010, 0x1015); a block of one
        // 1-byte insn covers its byte plus the 16-byte lookahead.
        for (pc, footprint) in [(0x1010, 5), (0x1010, 17)] {
            for (at, dropped) in [
                (pc - 1, false),
                (pc, true),
                (pc + footprint - 1, true),
                (pc + footprint, false),
            ] {
                let mut c = DecodeCache::default();
                if footprint == 5 {
                    c.insert(pc, x86_nop5(), 5);
                } else {
                    c.insert_ir(pc, block(pc));
                }
                let generation = c.generation();
                c.note_write(at);
                let gone = if footprint == 5 {
                    c.get(pc).is_none()
                } else {
                    c.get_ir(pc).is_none()
                };
                assert_eq!(gone, dropped, "footprint {footprint}, write {at:#x}");
                assert_eq!(c.generation() != generation, dropped);
            }
        }
    }

    #[test]
    fn clean_page_verdict_is_revoked_when_page_becomes_cached() {
        let mut c = DecodeCache::default();
        c.note_write(0x1004); // page 0x1000 marked clean
        c.insert(0x1000, x86_nop5(), 5); // …now it holds a decode
        c.note_write(0x1800); // same page, outside the footprint: kept
        assert!(c.get(0x1000).is_some());
        c.note_write(0x1004); // must drop it despite the earlier verdict
        assert!(c.get(0x1000).is_none());
    }

    #[test]
    fn a_page_that_still_holds_footprints_is_not_marked_clean() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        c.insert(0x1800, x86_nop(), 1);
        c.note_write(0x1000);
        assert!(c.get(0x1000).is_none());
        c.note_write(0x1800); // the page still held a decode: checked again
        assert!(c.get(0x1800).is_none());
        assert!(c.code_pages.is_empty());
        c.note_write(0x1900); // now clean
        assert_eq!(c.last_clean_page, Some(0x1000));
    }

    #[test]
    fn straddling_insert_tracks_tail_page() {
        let mut c = DecodeCache::default();
        c.insert(0x1FFE, CachedInsn::X86(x86::Insn::Nop, 5), 5);
        c.note_write(0x2001); // tail page of the straddling encoding
        assert!(c.get(0x1FFE).is_none());
    }

    #[test]
    fn straddling_entry_is_dropped_from_either_page() {
        for written in [0x1000, 0x2000] {
            let mut c = DecodeCache::default();
            c.insert(0x1FFE, CachedInsn::X86(x86::Insn::Nop, 5), 5);
            c.insert(0x1100, x86_nop(), 1);
            c.insert(0x2100, x86_nop(), 1);
            c.invalidate_range(written, PAGE_SIZE as u64);
            assert!(c.get(0x1FFE).is_none(), "write to page {written:#x}");
            let other = if written == 0x1000 { 0x2100 } else { 0x1100 };
            assert!(c.get(other).is_some(), "write to page {written:#x}");
        }
    }

    #[test]
    fn range_invalidation_keeps_probe_chains_intact() {
        // pcs 0x100 apart share a home slot in any table of at most 256
        // slots, so these three sit in one probe chain.
        let pcs = [0x1000, 0x1100, 0x1200];
        assert!(pcs.iter().all(|&pc| hash(pc) & 0xFF == hash(0x1000) & 0xFF));
        let mut c = DecodeCache::default();
        for pc in pcs {
            c.insert(pc, x86_nop(), 1);
            c.insert_ir(pc, block(pc));
        }
        c.invalidate_range(0x1100, 1);
        assert!(c.get(0x1100).is_none(), "the middle decode went");
        assert!(c.get(0x1200).is_some(), "the later decode is still found");
        assert!(c.get(0x1000).is_some());
        assert!(c.get_ir(0x1100).is_none(), "the middle block went");
        assert!(c.get_ir(0x1200).is_some(), "the later block is still found");
        assert!(c.get_ir(0x1000).is_some());
        assert_eq!(c.insns.occupied.len(), 2);
        assert_eq!(c.blocks.occupied.len(), 2);
    }

    #[test]
    fn generation_bumps_only_when_something_was_dropped() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        let generation = c.generation();
        c.invalidate_range(0x8000, 0x1000); // no code there
        c.invalidate_range(0x1800, 0x100); // a code page, but no footprint
        c.invalidate_blocks_at(0x1000); // no blocks at all
        assert_eq!(c.generation(), generation);
        c.invalidate_range(0x1000, 1);
        assert_eq!(c.generation(), generation + 1);
        assert!(c.code_pages.is_empty(), "code pages follow the survivors");
    }

    #[test]
    fn hook_invalidation_drops_blocks_and_keeps_decodes() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        c.insert_ir(0x1000, block(0x1000));
        c.insert_ir(0x1800, block(0x1800));
        // Just past the block's last byte: the builder probed that pc.
        c.invalidate_blocks_at(0x1001);
        assert!(c.get_ir(0x1000).is_none());
        assert!(c.get_ir(0x1800).is_some());
        assert!(
            c.get(0x1000).is_some(),
            "per-insn decodes are hook-agnostic"
        );
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut c = DecodeCache::default();
        for i in 0..2_000u32 {
            c.insert(0x1000 + i, x86_nop(), 1);
        }
        for i in 0..2_000u32 {
            assert!(c.get(0x1000 + i).is_some(), "entry {i} survived growth");
        }
    }

    #[test]
    fn flush_after_growth_drops_every_entry() {
        let mut c = DecodeCache::default();
        let n = INITIAL_SLOTS as u32 * 2;
        for i in 0..n {
            c.insert(0x1000 + i, x86_nop(), 1);
            c.insert_ir(0x1000 + i, block(0x1000 + i));
        }
        assert!(c.insns.slots.len() > INITIAL_SLOTS && c.blocks.slots.len() > INITIAL_SLOTS);
        let generation = c.generation();
        c.flush();
        assert_eq!(c.generation(), generation + 1);
        for i in 0..n {
            assert!(c.get(0x1000 + i).is_none(), "entry {i} survived the flush");
            assert!(
                c.get_ir(0x1000 + i).is_none(),
                "block {i} survived the flush"
            );
        }
        assert!(c.insns.slots.iter().all(Option::is_none));
        assert!(c.blocks.slots.iter().all(Option::is_none));
        // The emptied tables fill again from scratch.
        c.insert(0x1000, x86_nop(), 1);
        assert!(c.get(0x1000).is_some());
    }

    #[test]
    fn flush_releases_lowered_blocks() {
        let mut c = DecodeCache::default();
        let b = block(0x1000);
        c.insert_ir(0x1000, Arc::clone(&b));
        assert_eq!(Arc::strong_count(&b), 2);
        c.flush();
        assert_eq!(Arc::strong_count(&b), 1, "the table kept a reference");
        c.insert_ir(0x1000, Arc::clone(&b));
        c.invalidate_range(0x1000, 1);
        assert_eq!(Arc::strong_count(&b), 1, "the spare area kept a reference");
    }

    #[test]
    fn content_invalidation_keeps_blocks_as_victims_and_layout_discards_them() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        c.insert_ir(0x1000, block(0x1000));
        c.note_write(0x1000);
        assert!(c.get_ir(0x1000).is_none() && c.get(0x1000).is_none());
        assert!(c.has_victims(), "the block waits for a revival");
        assert!(c.take_victim(0x1000).is_some());
        assert!(c.take_victim(0x1000).is_none(), "taking removes it");

        // A restore's page copy-back is a content change too; moving the
        // region is not.
        c.insert_ir(0x1000, block(0x1000));
        c.note_write_range(0x1000, PAGE_SIZE as usize);
        assert!(c.has_victims());
        c.invalidate_range(0x1010, 1); // overlaps the lookahead
        assert!(!c.has_victims());
    }

    #[test]
    fn revival_reinserts_without_a_generation_bump_and_counts_a_hit() {
        let mut c = DecodeCache::default();
        c.insert_ir(0x1000, block(0x1000));
        c.note_write(0x1000);
        let (generation, (hits, misses)) = (c.generation(), c.stats());
        let b = c.take_victim(0x1000).unwrap();
        c.revive_ir(0x1000, b);
        assert_eq!(c.generation(), generation);
        assert_eq!(c.stats(), (hits + 1, misses));
        assert!(c.get_ir(0x1000).is_some());
        c.note_write(0x1005); // the revived block's page is code again
        assert!(c.get_ir(0x1000).is_none());
    }

    #[test]
    fn victims_are_capped_oldest_first_and_unique_per_pc() {
        let mut c = DecodeCache::default();
        let n = VICTIMS as u32 + 4;
        for i in 0..n {
            let pc = 0x1000 + i * 0x100;
            c.insert_ir(pc, block(pc));
            c.note_write(pc);
        }
        c.insert_ir(0x1000 + (n - 1) * 0x100, block(0x1000));
        c.note_write(0x1000 + (n - 1) * 0x100);
        assert_eq!(c.victims.len(), VICTIMS);
        for i in 0..4 {
            assert!(c.take_victim(0x1000 + i * 0x100).is_none(), "victim {i}");
        }
        assert!(c.take_victim(0x1000 + 4 * 0x100).is_some());
    }

    #[test]
    fn flushes_and_hook_changes_discard_victims() {
        let kept = |c: &mut DecodeCache| {
            c.insert_ir(0x1000, block(0x1000));
            c.insert_ir(0x2000, block(0x2000));
            c.note_write(0x1000);
            c.note_write(0x2000);
            assert_eq!(c.victims.len(), 2);
        };
        let mut c = DecodeCache::default();
        kept(&mut c);
        c.invalidate_blocks_at(0x1010); // a hook in the first's lookahead
        assert!(c.take_victim(0x1000).is_none());
        assert!(c.take_victim(0x2000).is_some());
        kept(&mut c);
        c.flush();
        assert!(!c.has_victims());
        kept(&mut c);
        c.set_ir_enabled(false);
        assert!(!c.has_victims());
    }

    #[test]
    fn per_insn_decodes_are_never_kept() {
        let mut c = DecodeCache::default();
        c.insert(0x1000, x86_nop(), 1);
        c.note_write(0x1000);
        assert!(!c.has_victims());
    }
}
