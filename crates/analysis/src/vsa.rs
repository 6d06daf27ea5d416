//! Interprocedural value-set analysis (VSA) with a strided-interval
//! domain: the crate's one abstract interpreter.
//!
//! Every register holds a [`ValueSet`]: a memory-region tag
//! ([`Region`]) paired with a [`StridedInterval`] `stride[lo, hi]`
//! describing the numeric values it may take, in the style of
//! Balakrishnan & Reps' a-loc analysis. One run over a function answers
//! both *"does attacker data reach this store?"* and *"which stack bytes
//! can the store touch?"*: taint is two of the regions —
//! [`Region::Input`], the packet pointer a source function receives, and
//! [`Region::Tainted`], the bytes read through it — and the run also
//! records each call site's outgoing first argument, whether the body
//! writes memory and the constant it returns. [`crate::taint`] turns
//! those facts into findings and source propagation, and
//! [`crate::callgraph`] into call summaries.
//!
//! Stack offsets are entry-SP relative (the same coordinate system as
//! [`crate::frames`]): the stack pointer enters every function as
//! `StackRel 0[0,0]`, prologue arithmetic moves it exactly, and a
//! pointer derived from it (`lea edi,[ebp-0x40C]`, `mov r3,sp`) stays
//! `StackRel` with a known offset. A copy loop advances the pointer by
//! its stride each iteration; at the loop head the interval is widened
//! (`hi → +∞`, strides folded by gcd), so the fixpoint converges and
//! the widened set `1[-1040, +∞]` *is* the write extent.
//!
//! Loop bounds are then narrowed back: a loop exit that compares an
//! untainted counter with known start (`0`, stride 1) against an exact
//! constant `k` caps the trip count at `k − lo`, so the patched 1.35
//! body's `cmp counter, 0x400` exit bounds its copy to 1024 bytes —
//! which never reaches the saved return address — while the vulnerable
//! body's only exit tests a tainted byte and the write stays unbounded.
//!
//! A call site whose callee is summarized as returning a constant
//! re-seeds the return register with it instead of clobbering it to
//! unknown.

use std::collections::{BTreeSet, HashMap};

use cml_image::{Addr, Arch, Image};
use cml_vm::{arm, riscv, x86, X86Reg};

use crate::cfg::{BasicBlock, Cfg, Function, Op, Terminator};

/// Joins at the same block input before widening kicks in.
const WIDEN_AFTER: u32 = 4;

/// A strided interval `stride[lo, hi]`: all values `lo + n·stride`
/// within the bounds. `stride == 0` means a singleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedInterval {
    /// Step between representable values (0 for a singleton).
    pub stride: u32,
    /// Lowest representable value (`i64::MIN` = unbounded below).
    pub lo: i64,
    /// Highest representable value (`i64::MAX` = unbounded above).
    pub hi: i64,
}

impl StridedInterval {
    /// The singleton `0[v, v]`.
    pub fn exact(v: i64) -> Self {
        StridedInterval {
            stride: 0,
            lo: v,
            hi: v,
        }
    }

    /// The full interval — no information.
    pub fn top() -> Self {
        StridedInterval {
            stride: 1,
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// `Some(v)` when the interval is the singleton `v`.
    fn as_exact(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether the upper bound is unknown.
    fn unbounded_above(&self) -> bool {
        self.hi == i64::MAX
    }

    /// Whether either bound is unknown.
    fn unbounded(&self) -> bool {
        self.lo == i64::MIN || self.unbounded_above()
    }

    /// Shifts the interval by a constant. An infinite bound stays
    /// infinite.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, k: i64) -> Self {
        let shift = |b: i64| {
            if b == i64::MIN || b == i64::MAX {
                b
            } else {
                b.saturating_add(k)
            }
        };
        StridedInterval {
            stride: self.stride,
            lo: shift(self.lo),
            hi: shift(self.hi),
        }
    }

    /// Least upper bound: hull of the bounds, strides (and the gap
    /// between anchors) folded by gcd.
    pub fn join(self, other: Self) -> Self {
        if self == other {
            return self;
        }
        let gap = self.lo.abs_diff(other.lo);
        let folded = fold_stride(self.stride as u64, other.stride as u64);
        let stride = fold_stride(folded as u64, gap);
        StridedInterval {
            stride,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widening: any bound that moved jumps straight to ±∞ so loop
    /// fixpoints terminate.
    fn widen(self, next: Self) -> Self {
        let joined = self.join(next);
        StridedInterval {
            stride: joined.stride,
            lo: if joined.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if joined.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }
}

fn fold_stride(a: u64, b: u64) -> u32 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    gcd(a, b).min(u32::MAX as u64) as u32
}

/// Provenance tag of an abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// A plain number (or a value of unknown provenance — the domain's
    /// top collapses here with a top interval).
    Const,
    /// An address inside the loaded image (position-dependent until
    /// relocation; "PIE-relative" in a real build).
    PieRel,
    /// An offset from the function's entry stack pointer.
    StackRel,
    /// A pointer into the attacker-controlled input (the DNS response a
    /// source function receives).
    Input,
    /// Attacker-controlled data: bytes read through an [`Region::Input`]
    /// pointer and values computed from them.
    Tainted,
}

/// One abstract value: a region tag plus a strided interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueSet {
    /// Which memory region the value lives in / points into.
    pub region: Region,
    /// The numeric values it may take within that region.
    pub si: StridedInterval,
}

impl ValueSet {
    fn unknown() -> Self {
        ValueSet {
            region: Region::Const,
            si: StridedInterval::top(),
        }
    }

    fn constant(v: i64) -> Self {
        ValueSet {
            region: Region::Const,
            si: StridedInterval::exact(v),
        }
    }

    fn stack(off: i64) -> Self {
        ValueSet {
            region: Region::StackRel,
            si: StridedInterval::exact(off),
        }
    }

    fn input() -> Self {
        ValueSet {
            region: Region::Input,
            si: StridedInterval::top(),
        }
    }

    fn tainted() -> Self {
        ValueSet {
            region: Region::Tainted,
            si: StridedInterval::top(),
        }
    }

    /// A tainted byte: attacker-chosen but 8-bit.
    fn tainted_byte() -> Self {
        ValueSet {
            region: Region::Tainted,
            si: StridedInterval {
                stride: 1,
                lo: 0,
                hi: 0xFF,
            },
        }
    }

    fn add(self, k: i64) -> Self {
        ValueSet {
            region: self.region,
            si: self.si.add(k),
        }
    }

    /// A value the domain does not track numerically, computed from
    /// `self` and `other`: attacker data if either is, else a pointer
    /// into the input if either is one, else unknown.
    fn mix(self, other: Self) -> Self {
        match (self.region, other.region) {
            (Region::Tainted, _) | (_, Region::Tainted) => ValueSet::tainted(),
            (Region::Input, _) | (_, Region::Input) => ValueSet::input(),
            _ => ValueSet::unknown(),
        }
    }

    /// The constant this value certainly holds, if any.
    fn as_const(self) -> Option<u32> {
        match self.region {
            Region::Const | Region::PieRel => self.si.as_exact().map(|v| v as u32),
            _ => None,
        }
    }

    fn merge(self, other: Self, widen: bool) -> Self {
        // May-taint: attacker data absorbs everything, the input
        // pointer everything but data.
        let region = if self.region == other.region {
            self.region
        } else {
            self.mix(other).region
        };
        let si = if region == self.region && region == other.region {
            if widen {
                self.si.widen(other.si)
            } else {
                self.si.join(other.si)
            }
        } else {
            StridedInterval::top()
        };
        ValueSet { region, si }
    }

    /// Whether the value is attacker data or a pointer into the input.
    pub(crate) fn is_tainted(self) -> bool {
        matches!(self.region, Region::Input | Region::Tainted)
    }
}

/// Per-program-point abstract state: 32 register slots (x86 uses the
/// low 8, ARM the low 16), the operands of the last flag-setting
/// comparison (on RISC-V, of the last conditional branch — there is no
/// separate compare) with the registers they were read from, and the
/// most recent push (the outgoing x86 call argument).
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [ValueSet; 32],
    flags: (ValueSet, ValueSet),
    flag_regs: [Option<usize>; 2],
    last_push: ValueSet,
}

impl State {
    fn entry(arch: Arch, is_source: bool) -> State {
        let mut regs = [ValueSet::unknown(); 32];
        match arch {
            Arch::X86 => regs[X86Reg::Esp.bits() as usize] = ValueSet::stack(0),
            Arch::Armv7 => {
                regs[13] = ValueSet::stack(0);
                if is_source {
                    regs[0] = ValueSet::input();
                }
            }
            Arch::Riscv => {
                regs[0] = ValueSet::constant(0); // x0 is hardwired
                regs[2] = ValueSet::stack(0);
                if is_source {
                    regs[10] = ValueSet::input(); // a0
                }
            }
        }
        State {
            regs,
            flags: (ValueSet::unknown(), ValueSet::unknown()),
            flag_regs: [None; 2],
            last_push: ValueSet::unknown(),
        }
    }

    fn merge_with(&mut self, other: &State, widen: bool) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let m = self.regs[i].merge(other.regs[i], widen);
            if m != self.regs[i] {
                self.regs[i] = m;
                changed = true;
            }
        }
        let f = (
            self.flags.0.merge(other.flags.0, widen),
            self.flags.1.merge(other.flags.1, widen),
        );
        if f != self.flags {
            self.flags = f;
            changed = true;
        }
        for (mine, theirs) in self.flag_regs.iter_mut().zip(other.flag_regs) {
            if mine.is_some() && *mine != theirs {
                *mine = None;
                changed = true;
            }
        }
        let p = self.last_push.merge(other.last_push, widen);
        if p != self.last_push {
            self.last_push = p;
            changed = true;
        }
        changed
    }

    /// Records a comparison of `l` with `r`, each with the register it
    /// was read from, if any.
    fn compare(&mut self, l: (ValueSet, Option<usize>), r: (ValueSet, Option<usize>)) {
        self.flags = (l.0, r.0);
        self.flag_regs = [l.1, r.1];
    }
}

/// One store through a stack-derived pointer, with its statically
/// derived write geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackWrite {
    /// Address of the store instruction.
    pub store_addr: Addr,
    /// Entry-SP-relative offset of the first byte written.
    pub start: i64,
    /// Step between consecutive writes (1 for a byte-copy loop).
    pub stride: u32,
    /// Whether the stored value is attacker-derived.
    pub tainted: bool,
    /// Whether the store sits inside a loop.
    pub in_loop: bool,
    /// Maximum bytes the store can touch: `Some(n)` when every
    /// enclosing loop is bounded (or the store is straight-line),
    /// `None` when some enclosing loop has no untainted bound — a
    /// statically unbounded write.
    pub extent: Option<u32>,
}

impl StackWrite {
    /// Highest entry-SP-relative offset this write can reach, when
    /// bounded.
    pub fn end(&self) -> Option<i64> {
        self.extent.map(|e| self.start + e as i64 - 1)
    }
}

/// Value-set results for one function.
#[derive(Debug, Clone)]
pub struct FnVsa {
    /// Function name.
    pub function: String,
    /// Entry-SP-relative offset of the saved return address, when the
    /// prologue stores one (x86: always 0; ARM: the pushed `lr` slot).
    pub ret_slot: Option<i64>,
    /// Stores through stack-derived pointers.
    pub writes: Vec<StackWrite>,
}

impl FnVsa {
    /// The tainted stack writes — the ones an exploit can steer.
    pub fn tainted_writes(&self) -> impl Iterator<Item = &StackWrite> {
        self.writes.iter().filter(|w| w.tainted)
    }
}

/// Runs VSA over every function. `sources` is the effective taint
/// source set (see [`crate::taint::effective_sources`]); in those
/// functions the incoming packet pointer is modeled as
/// [`Region::Input`]. No call summaries are consumed: a callee's return
/// value is unknown.
pub fn vsa_pass(cfg: &Cfg, image: &Image, sources: &BTreeSet<String>) -> Vec<FnVsa> {
    run(cfg, Some(image), sources, &HashMap::new())
        .into_iter()
        .map(|facts| facts.vsa)
        .collect()
}

/// Everything one interpreter run over a function yields: the public
/// value-set results plus the facts the taint rule and the call
/// summaries read.
#[derive(Debug)]
pub(crate) struct FnFacts {
    /// Return slot and stack writes.
    pub(crate) vsa: FnVsa,
    /// Per entry of `vsa.writes`, in order: the stored value's region
    /// and the heads of the loops enclosing the store.
    pub(crate) write_loops: Vec<(Region, Vec<Addr>)>,
    /// Per call site: the outgoing first argument (the last push on
    /// x86, `r0` on ARM, `a0` on RISC-V).
    pub(crate) call_args: Vec<(Addr, ValueSet)>,
    /// Whether the body stores through any pointer.
    pub(crate) writes_mem: bool,
    /// The constant the return register holds on every return path,
    /// when statically evident.
    pub(crate) returns_const: Option<u32>,
}

/// Runs the interpreter over every function of `cfg`: the functions in
/// `sources` receive an attacker-controlled packet pointer, and a call
/// site in `ret_consts` returns that constant. Without an `image` every
/// immediate is a plain constant; the region tag of an image address
/// shapes intervals only, never taint.
pub(crate) fn run(
    cfg: &Cfg,
    image: Option<&Image>,
    sources: &BTreeSet<String>,
    ret_consts: &HashMap<Addr, u32>,
) -> Vec<FnFacts> {
    cfg.functions
        .iter()
        .map(|f| {
            let cx = Ctx {
                image,
                is_source: sources.contains(&f.name),
                ret_consts,
            };
            analyze_function(cfg.arch, f, &cx)
        })
        .collect()
}

/// What the transfer functions need besides the state.
pub(crate) struct Ctx<'a> {
    /// The image whose addresses are `PieRel`; without one every
    /// immediate is a plain constant.
    pub(crate) image: Option<&'a Image>,
    /// Whether the function's incoming argument is the packet pointer.
    pub(crate) is_source: bool,
    /// Call-site address → the constant the callee returns.
    pub(crate) ret_consts: &'a HashMap<Addr, u32>,
}

impl Ctx<'_> {
    /// Classifies an immediate: an address inside the loaded image is
    /// `PieRel`, anything else a plain constant.
    fn classify(&self, v: u32) -> ValueSet {
        if self
            .image
            .is_some_and(|img| img.section_containing(v).is_some())
        {
            ValueSet {
                region: Region::PieRel,
                si: StridedInterval::exact(v as i64),
            }
        } else {
            ValueSet::constant(v as i64)
        }
    }

    /// The return register after the call at `site`.
    fn returned(&self, site: Addr) -> ValueSet {
        self.ret_consts
            .get(&site)
            .map_or_else(ValueSet::unknown, |&v| self.classify(v))
    }
}

/// A raw store event observed on the post-fixpoint pass.
struct RawStore {
    addr: Addr,
    width: u32,
    target: ValueSet,
    value: ValueSet,
}

#[derive(Default)]
struct Collected {
    stores: Vec<RawStore>,
    ret_slot: Option<i64>,
    call_args: Vec<(Addr, ValueSet)>,
}

pub(crate) fn analyze_function(arch: Arch, f: &Function, cx: &Ctx<'_>) -> FnFacts {
    let mut out = FnFacts {
        vsa: FnVsa {
            function: f.name.clone(),
            ret_slot: match arch {
                // The caller's `call` pushed the return address at entry SP.
                Arch::X86 => Some(0),
                // Link-register ISAs: found when the prologue spills it.
                Arch::Armv7 | Arch::Riscv => None,
            },
            writes: Vec::new(),
        },
        write_loops: Vec::new(),
        call_args: Vec::new(),
        writes_mem: false,
        returns_const: None,
    };
    if f.blocks.is_empty() {
        return out;
    }
    let idx: HashMap<Addr, usize> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();
    let n = f.blocks.len();

    // Fixpoint over block inputs, widening after repeated joins.
    let mut inputs: Vec<Option<State>> = vec![None; n];
    let mut joins: Vec<u32> = vec![0; n];
    inputs[0] = Some(State::entry(arch, cx.is_source));
    loop {
        let mut changed = false;
        for i in 0..n {
            let Some(mut st) = inputs[i].clone() else {
                continue;
            };
            walk_block(&mut st, &f.blocks[i], cx, None);
            for succ in &f.blocks[i].succs {
                let Some(&j) = idx.get(succ) else { continue };
                match &mut inputs[j] {
                    slot @ None => {
                        *slot = Some(st.clone());
                        changed = true;
                    }
                    Some(existing) => {
                        joins[j] += 1;
                        changed |= existing.merge_with(&st, joins[j] > WIDEN_AFTER);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect stores, call arguments, the ARM/RISC-V ret
    // slot and every block's exit state.
    let mut collected = Collected::default();
    let mut exits: Vec<Option<State>> = vec![None; n];
    for i in 0..n {
        let Some(mut st) = inputs[i].clone() else {
            continue;
        };
        walk_block(&mut st, &f.blocks[i], cx, Some(&mut collected));
        exits[i] = Some(st);
    }
    if collected.ret_slot.is_some() {
        out.vsa.ret_slot = collected.ret_slot;
    }
    out.writes_mem = !collected.stores.is_empty();
    out.call_args = collected.call_args;

    // Every return path must leave the same constant in the return
    // register.
    let ret_reg = match arch {
        Arch::X86 => X86Reg::Eax.bits() as usize,
        Arch::Armv7 => 0,
        Arch::Riscv => 10, // a0
    };
    let mut returned = f
        .blocks
        .iter()
        .zip(&exits)
        .filter(|(b, _)| b.term == Terminator::Return)
        .map(|(_, st)| st.as_ref().and_then(|st| st.regs[ret_reg].as_const()));
    out.returns_const = returned
        .next()
        .flatten()
        .filter(|&v| returned.all(|r| r == Some(v)));

    // Natural-loop approximation (back edge b→h bounds [h, b.end)),
    // then per-loop trip bounds from counter-vs-constant exits.
    let loops: Vec<(Addr, Addr)> = f
        .blocks
        .iter()
        .flat_map(|b| {
            b.succs
                .iter()
                .filter(move |&&s| s <= b.start)
                .map(move |&s| (s, b.end))
        })
        .collect();
    let bounds: Vec<Option<u64>> = loops
        .iter()
        .map(|&(head, end)| loop_trip_bound(f, &inputs, &exits, head, end))
        .collect();

    for s in &collected.stores {
        if s.target.region != Region::StackRel {
            continue;
        }
        let stride = s.target.si.stride;
        let enclosing: Vec<usize> = loops
            .iter()
            .enumerate()
            .filter(|(_, &(h, e))| s.addr >= h && s.addr < e)
            .map(|(i, _)| i)
            .collect();
        let extent = if enclosing.is_empty() {
            // Straight-line store: the interval hull plus access width.
            let si = s.target.si;
            (!si.unbounded()).then(|| {
                si.lo
                    .abs_diff(si.hi)
                    .saturating_add(s.width as u64)
                    .min(u32::MAX as u64) as u32
            })
        } else {
            // One write of `stride` bytes per trip of the tightest
            // bounded enclosing loop; unbounded if none is bounded.
            enclosing
                .iter()
                .filter_map(|&i| bounds[i])
                .min()
                .map(|trips| {
                    (trips.saturating_mul(stride.max(1) as u64)).min(u32::MAX as u64) as u32
                })
        };
        out.vsa.writes.push(StackWrite {
            store_addr: s.addr,
            start: s.target.si.lo,
            stride,
            tainted: s.value.is_tainted(),
            in_loop: !enclosing.is_empty(),
            extent,
        });
        out.write_loops.push((
            s.value.region,
            enclosing.iter().map(|&i| loops[i].0).collect(),
        ));
    }
    out
}

/// The best trip-count bound for the loop `[head, end)`: the smallest
/// count over exits comparing an untainted counter against an exact
/// untainted constant `k` — `k − lo` for a counter with a known lower
/// bound `lo` below `k`, else `hi − k` for one with a known upper bound
/// `hi` above it.
///
/// `lo` and `hi` are the counter's range where the loop is entered: a
/// compare that follows the counter's step reads it one step on, which
/// would leave the bound one trip short.
fn loop_trip_bound(
    f: &Function,
    inputs: &[Option<State>],
    exits: &[Option<State>],
    head: Addr,
    end: Addr,
) -> Option<u64> {
    let in_range = |a: Addr| a >= head && a < end;
    let entered = f
        .blocks
        .iter()
        .position(|b| b.start == head)
        .and_then(|h| inputs[h].as_ref());
    let mut best: Option<u64> = None;
    for (i, b) in f.blocks.iter().enumerate() {
        if !in_range(b.start) {
            continue;
        }
        let Terminator::Branch { taken, fall } = b.term else {
            continue;
        };
        if in_range(taken) && in_range(fall) {
            continue; // not an exit
        }
        let Some(st) = exits[i].as_ref() else {
            continue;
        };
        let ((l, r), [l_reg, r_reg]) = (st.flags, st.flag_regs);
        // Either order: (counter, k) or (k, counter).
        for ((counter, reg), konst) in [((l, l_reg), r), ((r, r_reg), l)] {
            if counter.is_tainted() || konst.is_tainted() {
                continue;
            }
            let Some(k) = konst.si.as_exact() else {
                continue;
            };
            // The counter's register at the loop head, when it is open
            // on the same sides as at the compare.
            let open = |si: StridedInterval| (si.lo == i64::MIN, si.hi == i64::MAX);
            let si = reg
                .zip(entered)
                .map(|(reg, st)| st.regs[reg].si)
                .filter(|&h| open(h) == open(counter.si))
                .unwrap_or(counter.si);
            // An up-counter runs from a finite `lo` up to `k`, a
            // down-counter from a finite `hi` down to it.
            let (lo, hi) = (si.lo, si.hi);
            let trips = if lo != i64::MIN && k > lo {
                k.abs_diff(lo)
            } else if hi != i64::MAX && hi > k {
                hi.abs_diff(k)
            } else {
                continue;
            };
            best = Some(best.map_or(trips, |b| b.min(trips)));
        }
    }
    best
}

fn walk_block(st: &mut State, b: &BasicBlock, cx: &Ctx<'_>, mut collect: Option<&mut Collected>) {
    for insn in &b.insns {
        match insn.op {
            Op::X86(i) => step_x86(st, &i, cx, insn.addr, collect.as_deref_mut()),
            Op::Arm(i) => step_arm(st, &i, cx, insn.addr, collect.as_deref_mut()),
            Op::Riscv(i) => step_riscv(st, &i, cx, insn.addr, collect.as_deref_mut()),
        }
    }
}

fn step_x86(
    st: &mut State,
    i: &x86::Insn,
    cx: &Ctx<'_>,
    addr: Addr,
    collect: Option<&mut Collected>,
) {
    use x86::Insn as I;
    use x86::Operand as O;
    let r = |reg: X86Reg| reg.bits() as usize;
    let esp = r(X86Reg::Esp);
    let reg_of = |o: O| match o {
        O::Reg(d) => Some(r(d)),
        O::Mem { .. } => None,
    };
    match *i {
        I::MovRImm(d, v) => st.regs[r(d)] = cx.classify(v),
        I::MovR8Imm(d, _) => st.regs[r(d)] = ValueSet::unknown(),
        I::MovRmR { dst, src } => match dst {
            O::Reg(d) => st.regs[r(d)] = st.regs[r(src)],
            O::Mem {
                base: Some(b),
                disp,
            } => {
                if let Some(out) = collect {
                    out.stores.push(RawStore {
                        addr,
                        width: 4,
                        target: st.regs[r(b)].add(disp as i64),
                        value: st.regs[r(src)],
                    });
                }
            }
            O::Mem { base: None, .. } => {}
        },
        I::MovRRm { dst, src } => st.regs[r(dst)] = load_vs(st, src, cx.is_source, false, &r),
        I::Movzx8 { dst, src } => st.regs[r(dst)] = load_vs(st, src, cx.is_source, true, &r),
        I::Lea { dst, src } => {
            st.regs[r(dst)] = match src {
                O::Mem {
                    base: Some(b),
                    disp,
                } => st.regs[r(b)].add(disp as i64),
                _ => ValueSet::unknown(),
            };
        }
        I::XorRmR {
            dst: O::Reg(d),
            src,
        } if d == src => st.regs[r(d)] = ValueSet::constant(0),
        I::XorRmR { dst: O::Reg(d), .. }
        | I::AndRmR { dst: O::Reg(d), .. }
        | I::OrRmR { dst: O::Reg(d), .. } => st.regs[r(d)] = ValueSet::unknown(),
        I::AddRmImm8 {
            dst: O::Reg(d),
            imm,
        } => st.regs[r(d)] = st.regs[r(d)].add(imm as i64),
        I::SubRmImm8 {
            dst: O::Reg(d),
            imm,
        } => st.regs[r(d)] = st.regs[r(d)].add(-(imm as i64)),
        I::AddRmImm32 {
            dst: O::Reg(d),
            imm,
        } => st.regs[r(d)] = st.regs[r(d)].add(imm as i64),
        I::SubRmImm32 {
            dst: O::Reg(d),
            imm,
        } => st.regs[r(d)] = st.regs[r(d)].add(-(imm as i64)),
        I::IncR(d) => st.regs[r(d)] = st.regs[r(d)].add(1),
        I::DecR(d) => st.regs[r(d)] = st.regs[r(d)].add(-1),
        I::ShlRImm8 { reg, .. } | I::ShrRImm8 { reg, .. } => {
            st.regs[r(reg)] = st.regs[r(reg)].mix(st.regs[r(reg)]);
        }
        I::PushR(s) => {
            st.last_push = st.regs[r(s)];
            st.regs[esp] = st.regs[esp].add(-4);
        }
        I::PushImm(v) => {
            st.last_push = cx.classify(v);
            st.regs[esp] = st.regs[esp].add(-4);
        }
        I::PopR(d) => {
            st.regs[r(d)] = ValueSet::unknown();
            st.regs[esp] = st.regs[esp].add(4);
        }
        I::XchgEaxR(d) => {
            let eax = r(X86Reg::Eax);
            st.regs.swap(eax, r(d));
        }
        I::TestRmR { dst, src } | I::CmpRmR { dst, src } => {
            let l = (load_vs(st, dst, cx.is_source, false, &r), reg_of(dst));
            st.compare(l, (st.regs[r(src)], Some(r(src))));
        }
        I::CmpRmImm8 { dst, imm } => {
            let l = (load_vs(st, dst, cx.is_source, false, &r), reg_of(dst));
            st.compare(l, (ValueSet::constant(imm as i64), None));
        }
        I::CmpRmImm32 { dst, imm } => {
            let l = (load_vs(st, dst, cx.is_source, false, &r), reg_of(dst));
            st.compare(l, (ValueSet::constant(imm as i64), None));
        }
        I::Leave => {
            let ebp = st.regs[r(X86Reg::Ebp)];
            st.regs[esp] = ebp.add(4);
            st.regs[r(X86Reg::Ebp)] = ValueSet::unknown();
        }
        I::CallRel32(_) | I::CallRm(_) => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.last_push));
            }
            // Caller-saved registers are clobbered by the callee.
            for reg in [X86Reg::Ecx, X86Reg::Edx] {
                st.regs[r(reg)] = ValueSet::unknown();
            }
            st.regs[r(X86Reg::Eax)] = cx.returned(addr);
        }
        _ => {}
    }
}

/// The value read through an operand: an argument slot of a source
/// function yields the packet pointer; dereferencing it (or anything
/// attacker-derived) yields attacker data.
fn load_vs(
    st: &State,
    operand: x86::Operand,
    is_source: bool,
    byte: bool,
    r: &impl Fn(X86Reg) -> usize,
) -> ValueSet {
    match operand {
        x86::Operand::Reg(s) => st.regs[r(s)],
        x86::Operand::Mem {
            base: Some(b),
            disp,
        } => {
            let base = st.regs[r(b)];
            if base.region == Region::StackRel && is_source && disp >= 8 {
                ValueSet::input()
            } else if base.is_tainted() {
                if byte {
                    ValueSet::tainted_byte()
                } else {
                    ValueSet::tainted()
                }
            } else {
                ValueSet::unknown()
            }
        }
        x86::Operand::Mem { base: None, .. } => ValueSet::unknown(),
    }
}

fn step_arm(
    st: &mut State,
    i: &arm::Insn,
    cx: &Ctx<'_>,
    addr: Addr,
    collect: Option<&mut Collected>,
) {
    use arm::Insn as I;
    match *i {
        I::MovImm { rd, imm } => st.regs[rd as usize] = cx.classify(imm),
        I::MvnImm { rd, .. } => st.regs[rd as usize] = ValueSet::unknown(),
        I::MovReg { rd, rm } => st.regs[rd as usize] = st.regs[rm as usize],
        I::AddImm { rd, rn, imm } => st.regs[rd as usize] = st.regs[rn as usize].add(imm as i64),
        I::SubImm { rd, rn, imm } => st.regs[rd as usize] = st.regs[rn as usize].add(-(imm as i64)),
        I::OrrImm { rd, rn, .. } | I::AndImm { rd, rn, .. } | I::EorImm { rd, rn, .. } => {
            st.regs[rd as usize] = st.regs[rn as usize].mix(st.regs[rn as usize]);
        }
        I::LslImm { rd, .. } => st.regs[rd as usize] = ValueSet::unknown(),
        I::CmpImm { rn, imm } => {
            let rn = rn as usize;
            st.compare(
                (st.regs[rn], Some(rn)),
                (ValueSet::constant(imm as i64), None),
            );
        }
        I::Ldr { rd, rn, .. } => {
            st.regs[rd as usize] = if st.regs[rn as usize].is_tainted() {
                ValueSet::tainted()
            } else {
                ValueSet::unknown()
            };
        }
        I::Ldrb { rd, rn, .. } => {
            st.regs[rd as usize] = if st.regs[rn as usize].is_tainted() {
                ValueSet::tainted_byte()
            } else {
                ValueSet::unknown()
            };
        }
        I::Str { rd, rn, offset } => {
            if let Some(out) = collect {
                out.stores.push(RawStore {
                    addr,
                    width: 4,
                    target: st.regs[rn as usize].add(offset as i64),
                    value: st.regs[rd as usize],
                });
            }
        }
        I::Strb { rd, rn, offset } => {
            if let Some(out) = collect {
                out.stores.push(RawStore {
                    addr,
                    width: 1,
                    target: st.regs[rn as usize].add(offset as i64),
                    value: st.regs[rd as usize],
                });
            }
        }
        I::Push { list } => {
            let sp_after = st.regs[13].add(-4 * list.count_ones() as i64);
            if let Some(out) = collect {
                if let Some(base) = sp_after.si.as_exact() {
                    for (slot, reg) in arm::reg_list(list).enumerate() {
                        if reg == 14 && st.regs[13].region == Region::StackRel {
                            out.ret_slot = Some(base + 4 * slot as i64);
                        }
                    }
                }
            }
            st.regs[13] = sp_after;
        }
        I::Pop { list } => {
            for reg in arm::reg_list(list) {
                if reg != 15 && reg != 13 {
                    st.regs[reg as usize] = ValueSet::unknown();
                }
            }
            st.regs[13] = st.regs[13].add(4 * list.count_ones() as i64);
        }
        I::Bl { .. } | I::Blx { .. } => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.regs[0]));
            }
            // AAPCS caller-saved registers.
            for reg in 1..4 {
                st.regs[reg] = ValueSet::unknown();
            }
            st.regs[0] = cx.returned(addr);
        }
        _ => {}
    }
}

fn step_riscv(
    st: &mut State,
    i: &riscv::Insn,
    cx: &Ctx<'_>,
    addr: Addr,
    collect: Option<&mut Collected>,
) {
    use riscv::Insn as I;
    // Writes to the hardwired x0 are discarded.
    match *i {
        I::Lui { rd, imm } if rd != 0 => st.regs[rd as usize] = cx.classify(imm),
        I::Auipc { rd, imm } if rd != 0 => {
            st.regs[rd as usize] = cx.classify(addr.wrapping_add(imm));
        }
        I::Addi { rd, rs1: 0, imm } if rd != 0 => {
            st.regs[rd as usize] = ValueSet::constant(imm as i64);
        }
        I::Addi { rd, rs1, imm } if rd != 0 => {
            st.regs[rd as usize] = st.regs[rs1 as usize].add(imm as i64);
        }
        I::Andi { rd, rs1, .. }
        | I::Ori { rd, rs1, .. }
        | I::Xori { rd, rs1, .. }
        | I::Slli { rd, rs1, .. }
        | I::Srli { rd, rs1, .. }
            if rd != 0 =>
        {
            st.regs[rd as usize] = st.regs[rs1 as usize].mix(st.regs[rs1 as usize]);
        }
        I::Add { rd, rs1, rs2 } | I::Sub { rd, rs1, rs2 } if rd != 0 => {
            st.regs[rd as usize] = st.regs[rs1 as usize].mix(st.regs[rs2 as usize]);
        }
        I::Lw { rd, rs1, .. } if rd != 0 => {
            st.regs[rd as usize] = if st.regs[rs1 as usize].is_tainted() {
                ValueSet::tainted()
            } else {
                ValueSet::unknown()
            };
        }
        I::Lbu { rd, rs1, .. } if rd != 0 => {
            st.regs[rd as usize] = if st.regs[rs1 as usize].is_tainted() {
                ValueSet::tainted_byte()
            } else {
                ValueSet::unknown()
            };
        }
        I::Sw { rs2, rs1, offset } => {
            if let Some(out) = collect {
                let target = st.regs[rs1 as usize].add(offset as i64);
                // The prologue's `sw ra` spill marks the return slot.
                if rs2 == 1 && target.region == Region::StackRel {
                    if let Some(slot) = target.si.as_exact() {
                        out.ret_slot = Some(slot);
                    }
                }
                out.stores.push(RawStore {
                    addr,
                    width: 4,
                    target,
                    value: st.regs[rs2 as usize],
                });
            }
        }
        I::Sb { rs2, rs1, offset } => {
            if let Some(out) = collect {
                out.stores.push(RawStore {
                    addr,
                    width: 1,
                    target: st.regs[rs1 as usize].add(offset as i64),
                    value: st.regs[rs2 as usize],
                });
            }
        }
        // No compare instruction: the branch's own operands are the
        // "flags" a loop-bound exit is judged by.
        I::Beq { rs1, rs2, .. } | I::Bne { rs1, rs2, .. } => {
            let (rs1, rs2) = (rs1 as usize, rs2 as usize);
            st.compare((st.regs[rs1], Some(rs1)), (st.regs[rs2], Some(rs2)));
        }
        I::Jal { rd: 1, .. } | I::Jalr { rd: 1, .. } => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.regs[10]));
            }
            // Caller-saved: ra, t0-t6, a1-a7; a0 carries the result.
            for reg in [1usize, 5, 6, 7, 28, 29, 30, 31] {
                st.regs[reg] = ValueSet::unknown();
            }
            for reg in 11..18 {
                st.regs[reg] = ValueSet::unknown();
            }
            st.regs[10] = cx.returned(addr);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use crate::taint::{effective_sources, TaintConfig};
    use cml_firmware::build_image_for;

    fn vsa_of(arch: Arch, patched: bool, name: &str) -> FnVsa {
        let (img, _) = build_image_for(arch, 0, patched);
        let cfg = cfg::recover(&img);
        let sources = effective_sources(&cfg, &TaintConfig::default());
        vsa_pass(&cfg, &img, &sources)
            .into_iter()
            .find(|v| v.function == name)
            .expect("function analyzed")
    }

    #[test]
    fn vulnerable_write_is_unbounded_and_reaches_the_return_slot() {
        for (arch, start, ret) in [
            (Arch::X86, -1040, 0),
            (Arch::Armv7, -1076, -4),
            (Arch::Riscv, -1060, -4),
        ] {
            let v = vsa_of(arch, false, "parse_response");
            assert_eq!(v.ret_slot, Some(ret), "{arch}");
            let w: Vec<&StackWrite> = v.tainted_writes().collect();
            assert_eq!(w.len(), 1, "{arch}: one tainted stack write");
            assert_eq!(w[0].start, start, "{arch}");
            assert_eq!(w[0].stride, 1, "{arch}");
            assert!(w[0].in_loop, "{arch}");
            assert_eq!(w[0].extent, None, "{arch}: statically unbounded");
            assert_eq!(ret - w[0].start, i64::from(1024 + buf_pad(arch)), "{arch}");
        }
    }

    #[test]
    fn patched_write_is_bounded_below_the_return_slot() {
        for arch in Arch::ALL {
            let v = vsa_of(arch, true, "parse_response");
            let w: Vec<&StackWrite> = v.tainted_writes().collect();
            assert_eq!(w.len(), 1, "{arch}");
            assert_eq!(w[0].extent, Some(1024), "{arch}: capped at NAME_SIZE");
            let end = w[0].end().unwrap();
            assert!(
                end < v.ret_slot.unwrap(),
                "{arch}: bounded write must stop short of the return slot"
            );
        }
    }

    /// Frame padding between the 1024-byte buffer and the saved return
    /// address: x86 has 12 bytes of locals + saved ebp, ARM 48 bytes of
    /// locals + callee saves below lr, RISC-V 32 bytes of padding and
    /// callee saves below ra.
    fn buf_pad(arch: Arch) -> u32 {
        match arch {
            Arch::X86 => 16,
            Arch::Armv7 => 48,
            Arch::Riscv => 32,
        }
    }

    /// The one stack write of `mov r0,#init; sub r1,sp,#64; l: strb
    /// r2,[r1]; add r1,r1,#1; <step r0>; cmp r0,#k; bne l; bx lr`: a
    /// one-byte copy whose counter is stepped before its exit compare.
    fn stepped_loop_write(init: u32, step: arm::Insn, k: u32) -> StackWrite {
        use crate::cfg::CfgStats;
        use arm::Insn as I;
        let f = cfg::tests::hand_built(
            "stepped_loop",
            4,
            vec![
                (
                    0x100,
                    vec![
                        Op::Arm(I::MovImm { rd: 0, imm: init }),
                        Op::Arm(I::SubImm {
                            rd: 1,
                            rn: 13,
                            imm: 64,
                        }),
                    ],
                    Terminator::FallThrough(0x108),
                ),
                (
                    0x108,
                    vec![
                        Op::Arm(I::Strb {
                            rd: 2,
                            rn: 1,
                            offset: 0,
                        }),
                        Op::Arm(I::AddImm {
                            rd: 1,
                            rn: 1,
                            imm: 1,
                        }),
                        Op::Arm(step),
                        Op::Arm(I::CmpImm { rn: 0, imm: k }),
                        Op::Arm(I::BNe { offset: -24 }),
                    ],
                    Terminator::Branch {
                        taken: 0x108,
                        fall: 0x11c,
                    },
                ),
                (0x11c, vec![Op::Arm(I::Bx { rm: 14 })], Terminator::Return),
            ],
        );
        let cfg = Cfg {
            arch: Arch::Armv7,
            functions: vec![f],
            call_edges: Vec::new(),
            stats: CfgStats::default(),
        };
        let (img, _) = build_image_for(Arch::Armv7, 0, false);
        let v = &vsa_pass(&cfg, &img, &Default::default())[0];
        assert_eq!(v.writes.len(), 1);
        let w = v.writes[0].clone();
        assert_eq!((w.store_addr, w.start, w.stride), (0x108, -64, 1));
        assert!(w.in_loop);
        w
    }

    /// A count-down copy, 16 down to 0: widening sends the counter's
    /// `lo` to -inf, and its `hi` is 16 where the loop is entered (15
    /// at the compare, after the step).
    #[test]
    fn a_count_down_loop_bounds_its_stores() {
        let step = arm::Insn::SubImm {
            rd: 0,
            rn: 0,
            imm: 1,
        };
        let w = stepped_loop_write(16, step, 0);
        assert_eq!(w.extent, Some(16), "one byte per trip of the down-counter");
    }

    /// A count-up copy, 0 up to 16: the compare reads 1..=16, so the
    /// bound must start from the 0 the loop is entered with.
    #[test]
    fn an_up_counter_stepped_before_its_compare_bounds_exactly() {
        let step = arm::Insn::AddImm {
            rd: 0,
            rn: 0,
            imm: 1,
        };
        let w = stepped_loop_write(0, step, 16);
        assert_eq!(w.extent, Some(16), "one byte per trip of the up-counter");
    }

    #[test]
    fn strided_interval_algebra_holds() {
        let a = StridedInterval::exact(-1040);
        let b = a.add(1);
        let j = a.join(b);
        assert_eq!((j.lo, j.hi, j.stride), (-1040, -1039, 1));
        let w = j.widen(j.add(1));
        assert_eq!((w.lo, w.hi), (-1040, i64::MAX));
        assert!(w.unbounded_above());
        assert_eq!(StridedInterval::exact(7).as_exact(), Some(7));
    }
}
