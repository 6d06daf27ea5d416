//! Mapping an image into a machine under a protection policy.
//!
//! The loader is where the paper's three protection levels are realized:
//!
//! * **no protections** — sections keep their image permissions, so the
//!   stack stays `rwx` and injected code runs;
//! * **W⊕X** — the execute bit is stripped from every writable mapping;
//! * **W⊕X + ASLR** — additionally, the libc, stack and heap bases are
//!   slid by a random page-aligned offset each boot, while the non-PIE
//!   `.text`/`.plt`/`.got`/`.bss` stay fixed (which is precisely the
//!   residual attack surface the paper's ROP chains use).

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

use cml_image::{layout, Addr, Image, SectionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hooks::LibcFn;
use crate::machine::Machine;

/// ASLR policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AslrConfig {
    /// Whether randomization is applied at all.
    pub enabled: bool,
    /// Number of random bits in the page-aligned slide (compat 32-bit
    /// Linux defaults to 8; see [`layout::DEFAULT_ASLR_ENTROPY_BITS`]).
    pub entropy_bits: u32,
}

impl AslrConfig {
    /// ASLR disabled.
    pub const fn disabled() -> Self {
        AslrConfig {
            enabled: false,
            entropy_bits: 0,
        }
    }

    /// ASLR at the default 32-bit entropy.
    pub const fn default_on() -> Self {
        AslrConfig {
            enabled: true,
            entropy_bits: layout::DEFAULT_ASLR_ENTROPY_BITS,
        }
    }

    /// ASLR with explicit entropy (the brute-force experiment sweeps
    /// this).
    pub fn with_entropy(entropy_bits: u32) -> Self {
        AslrConfig {
            enabled: true,
            entropy_bits,
        }
    }
}

/// The full protection policy for one boot — the experiment matrix of the
/// paper varies exactly these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protections {
    /// Writable-xor-executable enforcement.
    pub wxorx: bool,
    /// Address-space layout randomization.
    pub aslr: AslrConfig,
    /// Per-frame stack canaries (disabled in all six paper PoCs, enabled
    /// in the mitigation experiments).
    pub stack_canary: bool,
    /// Shadow-stack CFI (paper §IV's suggested mitigation).
    pub cfi: bool,
    /// Position-independent executable: the program's own sections
    /// (`.text`/`.plt`/`.got`/`.bss`/…) slide together by a per-boot
    /// offset, removing the fixed-address surface the paper's ROP chains
    /// depend on (cf. §IV's software-diversity discussion).
    pub pie: bool,
}

impl Protections {
    /// Paper §III-A: everything off.
    pub const fn none() -> Self {
        Protections {
            wxorx: false,
            aslr: AslrConfig::disabled(),
            stack_canary: false,
            cfi: false,
            pie: false,
        }
    }

    /// Paper §III-B: W⊕X only.
    pub const fn wxorx() -> Self {
        Protections {
            aslr: AslrConfig::disabled(),
            wxorx: true,
            ..Protections::none()
        }
    }

    /// Paper §III-C: W⊕X + ASLR.
    pub const fn full() -> Self {
        Protections {
            aslr: AslrConfig::default_on(),
            wxorx: true,
            ..Protections::none()
        }
    }

    /// Adds stack canaries to this policy.
    pub fn with_canary(mut self) -> Self {
        self.stack_canary = true;
        self
    }

    /// Adds shadow-stack CFI to this policy.
    pub fn with_cfi(mut self) -> Self {
        self.cfi = true;
        self
    }

    /// Builds the binary as position-independent (program sections slide
    /// per boot).
    pub fn with_pie(mut self) -> Self {
        self.pie = true;
        self
    }

    /// Short human-readable label ("none", "W^X", "W^X+ASLR", …).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.wxorx {
            parts.push("W^X");
        }
        if self.aslr.enabled {
            parts.push("ASLR");
        }
        if self.stack_canary {
            parts.push("canary");
        }
        if self.cfi {
            parts.push("CFI");
        }
        if self.pie {
            parts.push("PIE");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The canonical `--prot` / cohort-spec spelling of this policy
    /// (`"none"`, `"wxorx"`, `"full"`, `"canary"`, `"cfi"`, `"pie"`),
    /// or `"custom"` for a combination without one. ASLR entropy is not
    /// part of the spelling.
    pub fn spelling(&self) -> &'static str {
        match (
            self.wxorx,
            self.aslr.enabled,
            self.stack_canary,
            self.cfi,
            self.pie,
        ) {
            (false, false, false, false, false) => "none",
            (true, false, false, false, false) => "wxorx",
            (true, true, false, false, false) => "full",
            (true, true, true, false, false) => "canary",
            (true, true, false, true, false) => "cfi",
            (true, true, false, false, true) => "pie",
            _ => "custom",
        }
    }
}

/// Parses a protection policy by name: `none`, `wxorx` (or `wx`),
/// `full`, and W⊕X+ASLR plus one extra mitigation as `canary`, `cfi`,
/// `pie` (or `full+canary`, `full+cfi`, `full+pie`).
impl FromStr for Protections {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "none" => Protections::none(),
            "wxorx" | "wx" => Protections::wxorx(),
            "full" => Protections::full(),
            "canary" | "full+canary" => Protections::full().with_canary(),
            "cfi" | "full+cfi" => Protections::full().with_cfi(),
            "pie" | "full+pie" => Protections::full().with_pie(),
            other => {
                return Err(format!(
                    "unknown protections {other:?} (want none | wxorx | full | canary | cfi | pie)"
                ))
            }
        })
    }
}

/// Where everything ended up after loading: per-section slides and the
/// runtime symbol table. The *attacker* is not given this for randomized
/// sections — exploits compute addresses from a reference boot, exactly
/// like the paper's gdb reconnaissance.
#[derive(Debug)]
pub struct LoadMap {
    /// Slide per section kind, indexed by [`SectionKind::index`].
    slides: [i64; SectionKind::COUNT],
    table: Arc<ReslideTable>,
    /// Runtime address of each symbol, in image symbol order.
    values: Vec<Addr>,
    stack_top: Addr,
    stack_size: u32,
    canary: u32,
}

impl Clone for LoadMap {
    fn clone(&self) -> Self {
        LoadMap {
            slides: self.slides,
            table: Arc::clone(&self.table),
            values: self.values.clone(),
            stack_top: self.stack_top,
            stack_size: self.stack_size,
            canary: self.canary,
        }
    }

    /// Snapshot-restore loops rewind a map millions of times between
    /// boots of the *same image*: the shared table stays put and the
    /// symbol values are one slice copy into the existing buffer.
    fn clone_from(&mut self, src: &Self) {
        self.slides = src.slides;
        if !Arc::ptr_eq(&self.table, &src.table) {
            self.table = Arc::clone(&src.table);
        }
        self.values.clone_from(&src.values);
        self.stack_top = src.stack_top;
        self.stack_size = src.stack_size;
        self.canary = src.canary;
    }
}

impl LoadMap {
    fn new(table: Arc<ReslideTable>) -> Self {
        LoadMap {
            slides: [0; SectionKind::COUNT],
            table,
            values: Vec::new(),
            stack_top: 0,
            stack_size: 0,
            canary: 0,
        }
    }

    /// The signed slide applied to a section kind (0 when not present or
    /// not randomized).
    pub fn slide(&self, kind: SectionKind) -> i64 {
        self.slides[kind.index()]
    }

    /// Runtime address of a symbol, after slides.
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbol_index(name).map(|i| self.values[i])
    }

    /// Position of a symbol in its image's symbol list. Stable across
    /// every boot and reslide of the same image, so a caller that needs
    /// the same symbol after each reslide can look the name up once and
    /// read [`LoadMap::symbol_at`] from then on.
    pub fn symbol_index(&self, name: &str) -> Option<usize> {
        self.table.by_name.get(name).copied()
    }

    /// Runtime address of the symbol at `index` (see
    /// [`LoadMap::symbol_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a symbol position of this map's image.
    pub fn symbol_at(&self, index: usize) -> Addr {
        self.values[index]
    }

    /// All runtime symbols as `(name, address)`, in no particular order.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, Addr)> + '_ {
        self.table
            .by_name
            .iter()
            .map(|(name, &i)| (name.as_str(), self.values[i]))
    }

    /// [`Image::id`] of the image this map describes.
    pub fn image_id(&self) -> u64 {
        self.table.image_id
    }

    /// Runtime top of the stack mapping (exclusive).
    pub fn stack_top(&self) -> Addr {
        self.stack_top
    }

    /// Stack mapping size.
    pub fn stack_size(&self) -> u32 {
        self.stack_size
    }

    /// The per-boot canary value (the *defender's* secret; tests use it
    /// to verify canary behaviour, exploits must not).
    pub fn canary(&self) -> u32 {
        self.canary
    }
}

/// The slide-independent facts about an image's symbols, computed once
/// per load and shared by `Arc` through every clone of its [`LoadMap`]
/// (and so through every daemon snapshot), so that a reslide is only RNG
/// draws and arithmetic: no section search, no name hashing, no libc
/// name compares.
#[derive(Debug)]
struct ReslideTable {
    /// [`Image::id`] of the image the table describes.
    image_id: u64,
    /// Symbol name → position in `syms` (and in `LoadMap::values`).
    by_name: HashMap<String, usize>,
    syms: Vec<TableSym>,
}

#[derive(Debug, Clone, Copy)]
struct TableSym {
    /// [`SectionKind::index`] of the section holding the symbol.
    kind: usize,
    /// Link-time address.
    addr: Addr,
    /// The libc function hooked at the symbol. `None` also for a libc
    /// symbol shadowed by a later one at the same address, so the hooks
    /// a boot installs always have distinct addresses.
    hook: Option<LibcFn>,
}

impl ReslideTable {
    fn build(image: &Image) -> ReslideTable {
        let mut syms: Vec<TableSym> = Vec::with_capacity(image.symbols().len());
        let mut by_name = HashMap::with_capacity(image.symbols().len());
        for (i, sym) in image.symbols().iter().enumerate() {
            let kind = image
                .section_containing(sym.addr())
                .map(|s| s.kind().index())
                .expect("image validated symbols");
            let base_name = sym.name().strip_suffix("@plt").unwrap_or(sym.name());
            let hook = libc_fn_by_name(base_name);
            if hook.is_some() {
                // Aliases share a section, so they collide after every
                // slide: the last one registered wins, as it always has.
                for earlier in syms.iter_mut().filter(|e| e.addr == sym.addr()) {
                    earlier.hook = None;
                }
            }
            syms.push(TableSym {
                kind,
                addr: sym.addr(),
                hook,
            });
            by_name.insert(sym.name().to_string(), i);
        }
        ReslideTable {
            image_id: image.id(),
            by_name,
            syms,
        }
    }

    /// Writes every symbol's runtime address under `slides` into
    /// `values` and installs the libc hooks there as one batch.
    fn place(
        &self,
        slides: &[i64; SectionKind::COUNT],
        machine: &mut Machine,
        values: &mut Vec<Addr>,
    ) {
        values.clear();
        values.extend(
            self.syms
                .iter()
                .map(|s| (s.addr as i64 + slides[s.kind]) as Addr),
        );
        machine.set_hooks(
            self.syms
                .iter()
                .zip(values.iter())
                .filter_map(|(s, &runtime)| Some((runtime, s.hook?))),
        );
    }
}

/// Loads [`Image`]s into fresh [`Machine`]s.
#[derive(Debug)]
pub struct Loader<'a> {
    image: &'a Image,
    protections: Protections,
    seed: u64,
}

/// The random choices of one boot. Computed by [`Loader::plan`] so that
/// [`Loader::load`] and [`Loader::reslide`] consume the seeded RNG in
/// exactly the same draw order and can never drift apart.
struct BootPlan {
    slides: [i64; SectionKind::COUNT],
    canary: u32,
}

impl<'a> Loader<'a> {
    /// Starts a loader for `image` with no protections and seed 0.
    pub fn new(image: &'a Image) -> Self {
        Loader {
            image,
            protections: Protections::none(),
            seed: 0,
        }
    }

    /// Sets the protection policy.
    pub fn protections(mut self, p: Protections) -> Self {
        self.protections = p;
        self
    }

    /// Sets the boot seed: every random choice (ASLR slides, canary) is a
    /// deterministic function of it, so experiments are reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Draws every random choice of this boot in a fixed order:
    /// the PIE slide (when enabled), then one slide per section in image
    /// order, then the canary. Both [`Loader::load`] and
    /// [`Loader::reslide`] go through here.
    fn plan(&self) -> BootPlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = self.protections;
        // PIE: all program sections share one slide so intra-binary
        // offsets stay valid (as a real PIE relocation does).
        let pie_slide: i64 = if p.pie {
            let bits = p
                .aslr
                .entropy_bits
                .clamp(layout::DEFAULT_ASLR_ENTROPY_BITS, 16);
            let span = (1u64 << bits).max(2);
            rng.gen_range(1..span) as i64 * layout::ASLR_PAGE as i64
        } else {
            0
        };
        let mut slides = [0i64; SectionKind::COUNT];
        for section in self.image.sections() {
            let kind = section.kind();
            let slide: i64 =
                if p.aslr.enabled && kind.randomized_by_aslr() && p.aslr.entropy_bits > 0 {
                    // Slides are 1..2^bits pages: the degenerate zero slide
                    // would silently equal an ASLR-off boot.
                    let span = (1u64 << p.aslr.entropy_bits.min(16)).max(2);
                    let pages = rng.gen_range(1..span) as i64;
                    // The stack slides down, mmap regions slide up; both stay
                    // clear of neighbouring sections for supported entropies.
                    if kind == SectionKind::Stack {
                        -pages * layout::ASLR_PAGE as i64
                    } else {
                        pages * layout::ASLR_PAGE as i64
                    }
                } else if !kind.randomized_by_aslr() {
                    pie_slide
                } else {
                    0
                };
            slides[kind.index()] = slide;
        }
        let canary = if p.stack_canary {
            // Real glibc canaries keep a NUL low byte to stop string
            // overflows; ours does too.
            rng.gen::<u32>() & 0xFFFF_FF00
        } else {
            0
        };
        BootPlan { slides, canary }
    }

    /// Performs the load.
    ///
    /// # Panics
    ///
    /// Panics if the image's sections cannot be mapped (overlap after
    /// slides); the firmware layouts leave wide gaps precisely to make
    /// this impossible for the supported entropies.
    pub fn load(self) -> (Machine, LoadMap) {
        let plan = self.plan();
        let mut machine = Machine::new(self.image.arch());
        let p = self.protections;

        let mut stack_top = 0u32;
        let mut stack_size = 0u32;
        for section in self.image.sections() {
            let kind = section.kind();
            let slide = plan.slides[kind.index()];
            let base = (section.base() as i64 + slide) as Addr;
            let mut perms = section.perms();
            if p.wxorx && perms.writable() {
                perms = perms.without_exec();
            }
            machine
                .mem
                .map(kind.name(), Some(kind), base, section.size(), perms);
            if !section.bytes().is_empty() {
                machine
                    .mem
                    .poke(base, section.bytes())
                    .expect("mapped just above");
            }
            if kind == SectionKind::Stack {
                stack_top = (section.end() as i64 + slide) as Addr;
                stack_size = section.size();
            }
        }

        let mut map = LoadMap::new(Arc::new(ReslideTable::build(self.image)));
        map.table.place(&plan.slides, &mut machine, &mut map.values);

        machine.set_canary(plan.canary);
        if p.cfi {
            machine.enable_cfi();
        }
        if stack_top != 0 {
            // Leave room for environment/auxv like a real process start.
            machine.regs_mut().set_sp(stack_top - 0x200);
        }

        map.slides = plan.slides;
        map.stack_top = stack_top;
        map.stack_size = stack_size;
        map.canary = plan.canary;
        (machine, map)
    }

    /// Re-randomizes an already-loaded `machine` in place to the layout a
    /// fresh [`Loader::load`] with this seed would produce: region bases
    /// move, hooks are re-registered at the slid symbol addresses, the
    /// canary and initial stack pointer are reset. Section *contents* are
    /// not re-poked — the firmware images are slide-independent (all
    /// in-image pokes are section-relative and libc calls resolve through
    /// pc-entry hooks, never absolute pointers), which is what makes the
    /// snapshot/fork boot path sound.
    ///
    /// The caller is expected to have restored a
    /// [`crate::MachineSnapshot`] of a boot of the *same image under the
    /// same protections* first; only the seed may differ.
    ///
    /// # Panics
    ///
    /// Panics (like `load`) if the slid sections would overlap.
    pub fn reslide(self, machine: &mut Machine) -> LoadMap {
        let mut map = LoadMap::new(Arc::new(ReslideTable::build(self.image)));
        self.reslide_into(machine, &mut map);
        map
    }

    /// [`Loader::reslide`] that updates an existing [`LoadMap`] in place.
    ///
    /// The map's per-image table (section kind, link address and libc
    /// hook of every symbol) is shared by every map and snapshot of the
    /// same image, so a fork-per-device loop reslides with RNG draws and
    /// arithmetic alone: symbol values are rewritten in the existing
    /// buffer, regions move from a stack array, and the hooks are
    /// installed as one batch. The decode cache drops only the ranges of
    /// regions that moved and the lowered blocks around pcs whose hook
    /// changed, so decodes of non-PIE code stay warm. Only a map
    /// from a *different* image rebuilds the table. This is the
    /// allocation-free path fork-per-device drivers (the firmware crate's
    /// `BootForge::fork`) take millions of times per campaign.
    ///
    /// # Panics
    ///
    /// Panics (like `load`) if the slid sections would overlap.
    pub fn reslide_into(self, machine: &mut Machine, map: &mut LoadMap) {
        let plan = self.plan();
        if map.table.image_id != self.image.id() {
            map.table = Arc::new(ReslideTable::build(self.image));
        }

        let mut stack_top = 0u32;
        let mut stack_size = 0u32;
        let mut bases = [None; SectionKind::COUNT];
        for section in self.image.sections() {
            let kind = section.kind();
            let slide = plan.slides[kind.index()];
            bases[kind.index()] = Some((section.base() as i64 + slide) as Addr);
            if kind == SectionKind::Stack {
                stack_top = (section.end() as i64 + slide) as Addr;
                stack_size = section.size();
            }
        }
        machine.mem.rebase_regions(&bases);
        map.table.place(&plan.slides, machine, &mut map.values);

        machine.set_canary(plan.canary);
        if stack_top != 0 {
            machine.regs_mut().set_sp(stack_top - 0x200);
        }

        map.slides = plan.slides;
        map.stack_top = stack_top;
        map.stack_size = stack_size;
        map.canary = plan.canary;
    }
}

fn libc_fn_by_name(name: &str) -> Option<LibcFn> {
    LibcFn::ALL.into_iter().find(|f| f.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_image::{Arch, ImageBuilder, SymbolKind};

    fn image() -> Image {
        let l = layout::layout_for(Arch::X86);
        let mut b = ImageBuilder::new(Arch::X86);
        b.section_default(SectionKind::Text, l.text_base, 0x1000);
        b.section_default(SectionKind::Plt, l.plt_base, 0x100);
        b.section_default(SectionKind::Bss, l.bss_base, 0x100);
        b.section_default(SectionKind::Libc, l.libc_base, 0x2000);
        b.section_default(SectionKind::Stack, l.stack_top - l.stack_size, l.stack_size);
        b.append_code(SectionKind::Text, &[0x90, 0xC3]);
        b.append_code(SectionKind::Libc, &[0xC3; 16]);
        b.symbol("system", l.libc_base, 4, SymbolKind::LibcFunction);
        b.symbol("memcpy@plt", l.plt_base, 4, SymbolKind::PltEntry);
        b.build().unwrap()
    }

    #[test]
    fn protection_spellings_round_trip() {
        for name in ["none", "wxorx", "full", "canary", "cfi", "pie"] {
            let p: Protections = name.parse().unwrap();
            assert_eq!(p.spelling(), name);
            if name != "none" && name != "wxorx" && name != "full" {
                assert_eq!(format!("full+{name}").parse(), Ok(p));
            }
        }
        assert_eq!("wx".parse(), Ok(Protections::wxorx()));
        assert!("bogus".parse::<Protections>().is_err());
    }

    #[test]
    fn no_protections_keeps_stack_executable() {
        let img = image();
        let (m, map) = Loader::new(&img).load();
        let stack = m.mem().region_containing(map.stack_top() - 4).unwrap();
        assert!(stack.perms().executable());
        assert_eq!(map.slide(SectionKind::Libc), 0);
    }

    #[test]
    fn wxorx_strips_exec_from_stack() {
        let img = image();
        let (m, map) = Loader::new(&img).protections(Protections::wxorx()).load();
        let stack = m.mem().region_containing(map.stack_top() - 4).unwrap();
        assert!(!stack.perms().executable());
        assert!(stack.perms().writable());
        // Text remains executable and non-writable.
        let text = m.mem().region_containing(0x0804_8000).unwrap();
        assert!(text.perms().executable() && !text.perms().writable());
    }

    #[test]
    fn aslr_slides_libc_and_stack_only() {
        let img = image();
        let (_, map) = Loader::new(&img)
            .protections(Protections::full())
            .seed(1234)
            .load();
        assert_eq!(map.slide(SectionKind::Text), 0);
        assert_eq!(map.slide(SectionKind::Bss), 0);
        assert_ne!(map.slide(SectionKind::Libc), 0);
        assert!(map.slide(SectionKind::Stack) <= 0);
        // Symbol table reflects the slide.
        let sys = map.symbol("system").unwrap();
        assert_eq!(sys as i64, 0xb750_0000i64 + map.slide(SectionKind::Libc));
    }

    #[test]
    fn aslr_differs_between_boots_and_repeats_with_seed() {
        let img = image();
        let s = |seed| {
            Loader::new(&img)
                .protections(Protections::full())
                .seed(seed)
                .load()
                .1
                .slide(SectionKind::Libc)
        };
        assert_eq!(s(7), s(7), "same seed, same layout");
        let distinct: std::collections::HashSet<i64> = (0..16).map(s).collect();
        assert!(distinct.len() > 4, "slides vary across boots: {distinct:?}");
    }

    #[test]
    fn hooks_registered_at_runtime_addresses() {
        let img = image();
        let (m, map) = Loader::new(&img)
            .protections(Protections::full())
            .seed(99)
            .load();
        let sys = map.symbol("system").unwrap();
        assert_eq!(m.hook_at(sys), Some(LibcFn::System));
        // PLT entry is at a *fixed* address.
        assert_eq!(
            m.hook_at(map.symbol("memcpy@plt").unwrap()),
            Some(LibcFn::Memcpy)
        );
        assert_eq!(map.symbol("memcpy@plt").unwrap(), 0x0805_2000);
    }

    #[test]
    fn canary_and_cfi_flags() {
        let img = image();
        let (m, map) = Loader::new(&img)
            .protections(Protections::full().with_canary().with_cfi())
            .seed(5)
            .load();
        assert!(m.shadow.is_some());
        assert_eq!(map.canary() & 0xFF, 0, "canary has NUL low byte");
        assert_eq!(m.canary(), map.canary());
        assert_ne!(map.canary(), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(Protections::none().label(), "none");
        assert_eq!(Protections::wxorx().label(), "W^X");
        assert_eq!(Protections::full().label(), "W^X+ASLR");
        assert_eq!(Protections::full().with_cfi().label(), "W^X+ASLR+CFI");
    }

    #[test]
    fn sp_initialized_below_stack_top() {
        let img = image();
        let (m, map) = Loader::new(&img).load();
        assert_eq!(m.regs().sp(), map.stack_top() - 0x200);
    }

    #[test]
    fn reslide_matches_fresh_load() {
        let img = image();
        let p = Protections::full().with_canary();
        // Boot under seed 7, then reslide the same machine to seed 21.
        let (mut m, _) = Loader::new(&img).protections(p).seed(7).load();
        let map = Loader::new(&img).protections(p).seed(21).reslide(&mut m);
        // A fresh boot under seed 21 must agree on everything observable.
        let (fresh, fresh_map) = Loader::new(&img).protections(p).seed(21).load();
        assert_eq!(
            map.slide(SectionKind::Libc),
            fresh_map.slide(SectionKind::Libc)
        );
        assert_eq!(
            map.slide(SectionKind::Stack),
            fresh_map.slide(SectionKind::Stack)
        );
        assert_eq!(map.stack_top(), fresh_map.stack_top());
        assert_eq!(map.canary(), fresh_map.canary());
        assert_eq!(m.canary(), fresh.canary());
        assert_eq!(m.regs().sp(), fresh.regs().sp());
        for (name, addr) in fresh_map.symbols() {
            assert_eq!(map.symbol(name), Some(addr), "symbol {name}");
        }
        let sys = map.symbol("system").unwrap();
        assert_eq!(m.hook_at(sys), Some(LibcFn::System));
        // Old-layout hook addresses are gone.
        let (_, old_map) = Loader::new(&img).protections(p).seed(7).load();
        let old_sys = old_map.symbol("system").unwrap();
        if old_sys != sys {
            assert_eq!(m.hook_at(old_sys), None);
        }
        // Region contents followed their section: the libc bytes live at
        // the new base.
        let b = m.mem().read_bytes(sys, 4, 0).unwrap();
        let fb = fresh.mem().read_bytes(sys, 4, 0).unwrap();
        assert_eq!(b, fb);
    }

    #[test]
    fn reslide_and_restore_keep_decodes_of_code_that_stays_only() {
        let img = image();
        let p = Protections::full();
        let (mut m, map) = Loader::new(&img).protections(p).seed(7).load();
        let boot = m.snapshot();
        let text = layout::layout_for(Arch::X86).text_base;
        // Steps one instruction at `pc` with the layout's initial sp: a
        // `nop` in .text, or a `ret` in libc past the hooked `system`.
        let step_at = |m: &mut Machine, map: &LoadMap, pc: Addr| {
            m.regs_mut().set_pc(pc);
            m.regs_mut().set_sp(map.stack_top() - 0x200);
            m.step()
        };
        let ret_at = |map: &LoadMap| map.symbol("system").unwrap() + 4;
        let boot_ret = ret_at(&map);
        for pc in [text, boot_ret] {
            assert_eq!(step_at(&mut m, &map, pc), Ok(None), "{pc:#x}");
        }
        let (_, misses) = m.decode_cache_stats();

        // The reslide moves libc off its old range and leaves .text.
        let slid = Loader::new(&img).protections(p).seed(21).reslide(&mut m);
        assert!(m.mem().region_containing(boot_ret).is_none());
        assert_eq!(step_at(&mut m, &slid, text), Ok(None));
        assert_eq!(m.decode_cache_stats().1, misses, "the .text decode stayed");
        assert!(
            matches!(
                step_at(&mut m, &slid, boot_ret),
                Err(crate::Fault::UnmappedFetch { .. })
            ),
            "a decode cached at the old libc address ran"
        );

        // Restoring the boot moves libc back; the decode cached at the
        // slid address must go with it.
        let slid_ret = ret_at(&slid);
        assert_eq!(step_at(&mut m, &slid, slid_ret), Ok(None));
        m.restore(&boot);
        assert!(m.mem().region_containing(slid_ret).is_none());
        assert!(
            matches!(
                step_at(&mut m, &map, slid_ret),
                Err(crate::Fault::UnmappedFetch { .. })
            ),
            "a decode cached at the slid libc address ran"
        );
        let misses = m.decode_cache_stats().1;
        assert_eq!(step_at(&mut m, &map, text), Ok(None));
        assert_eq!(m.decode_cache_stats().1, misses, "the .text decode stayed");
    }
}

#[cfg(test)]
mod pie_tests {
    use super::*;
    use cml_image::{Arch, ImageBuilder, SymbolKind};

    fn image() -> Image {
        let l = layout::layout_for(Arch::Armv7);
        let mut b = ImageBuilder::new(Arch::Armv7);
        b.section_default(SectionKind::Text, l.text_base, 0x1000);
        b.section_default(SectionKind::Plt, l.plt_base, 0x100);
        b.section_default(SectionKind::Bss, l.bss_base, 0x100);
        b.section_default(SectionKind::Libc, l.libc_base, 0x2000);
        b.section_default(SectionKind::Stack, l.stack_top - l.stack_size, l.stack_size);
        b.symbol("memcpy@plt", l.plt_base, 4, SymbolKind::PltEntry);
        b.symbol("memcpy", l.libc_base, 4, SymbolKind::LibcFunction);
        b.build().unwrap()
    }

    #[test]
    fn pie_slides_program_sections_together() {
        let img = image();
        let (m, map) = Loader::new(&img)
            .protections(Protections::full().with_pie())
            .seed(77)
            .load();
        let text = map.slide(SectionKind::Text);
        assert_ne!(text, 0, "pie must move .text");
        assert_eq!(map.slide(SectionKind::Plt), text, "one common slide");
        assert_eq!(map.slide(SectionKind::Bss), text);
        // The hook sits at the *slid* PLT address, not the link address.
        let plt = map.symbol("memcpy@plt").unwrap();
        assert_eq!(m.hook_at(plt), Some(LibcFn::Memcpy));
        assert_ne!(plt, layout::layout_for(Arch::Armv7).plt_base);
    }

    #[test]
    fn pie_slides_differ_per_boot_and_repeat_per_seed() {
        let img = image();
        let s = |seed| {
            Loader::new(&img)
                .protections(Protections::full().with_pie())
                .seed(seed)
                .load()
                .1
                .slide(SectionKind::Text)
        };
        assert_eq!(s(3), s(3));
        let distinct: std::collections::HashSet<i64> = (0..12).map(s).collect();
        assert!(distinct.len() > 3, "{distinct:?}");
    }

    #[test]
    fn without_pie_program_sections_stay_fixed() {
        let img = image();
        let (_, map) = Loader::new(&img)
            .protections(Protections::full())
            .seed(77)
            .load();
        assert_eq!(map.slide(SectionKind::Text), 0);
        assert_eq!(map.slide(SectionKind::Plt), 0);
    }

    #[test]
    fn pie_label() {
        assert_eq!(Protections::full().with_pie().label(), "W^X+ASLR+PIE");
    }
}
