//! The DNS-proxy daemon state machine.
//!
//! Lifecycle per lookup: a client asks the proxy for a name → the proxy
//! issues an upstream query ([`Daemon::resolve`]) → somebody (the benign
//! resolver or the attacker's server) answers →
//! [`Daemon::deliver_response`] runs the ported `parse_response` against
//! the bytes. That call is where every outcome of the paper happens:
//! rejection, normal caching, crash (DoS), or control-flow hijack (RCE).

use std::error::Error;
use std::fmt;
use std::net::IpAddr;

use cml_dns::validate::{gate_response, ResponseRejection};
use cml_dns::{Message, Name, Question, RecordType, WireReader};
use cml_image::Addr;
use cml_vm::debug::FaultReport;
use cml_vm::{Fault, LoadMap, Loader, Machine, MachineSnapshot, RunOutcome, ShellSpawn};

use crate::cov;
use crate::frame::{Frame, FrameLayout};
use crate::uncompress::{get_name_into, UncompressError};
use crate::{
    Cache, ConnmanVersion, ParseFailure, ProxyOutcome, SYM_DAEMON_LOOP, SYM_PARSE_RESPONSE,
};

/// Stack distance between the boot-time stack pointer and the daemon
/// loop's frame when it calls `parse_response`.
const CALL_DEPTH: u32 = 0x40;

/// Instruction budget for hijacked execution before the watchdog deems
/// the daemon hung.
const HIJACK_STEP_BUDGET: u64 = 500_000;

/// Maximum in-flight upstream queries (the real daemon keeps a bounded
/// request list).
const MAX_PENDING: usize = 32;

/// Errors constructing a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonError {
    /// The loaded image lacks a required symbol.
    MissingSymbol(&'static str),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::MissingSymbol(s) => write!(f, "image lacks required symbol {s}"),
        }
    }
}

impl Error for DaemonError {}

/// Whether the daemon is alive, and if not, why.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonState {
    /// Serving queries.
    Running,
    /// Dead from a fault (the DoS outcome).
    Crashed(Fault),
    /// An attacker-controlled shell replaced it (the RCE outcome).
    Compromised(ShellSpawn),
    /// Hijacked execution exited cleanly.
    Exited(i32),
}

/// An upstream query awaiting its response.
#[derive(Debug, Clone)]
pub struct PendingQuery {
    message: Message,
}

impl PendingQuery {
    /// The outstanding query message.
    pub fn message(&self) -> &Message {
        &self.message
    }

    /// Transaction id the response must echo.
    pub fn id(&self) -> u16 {
        self.message.id()
    }
}

/// What [`Daemon::resolve`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// Served from cache, no network traffic.
    Cached(Vec<IpAddr>),
    /// An upstream query was issued; deliver its wire bytes to the
    /// configured DNS server.
    Query(Vec<u8>),
}

/// Everything needed to rewind a booted [`Daemon`] to an earlier point:
/// the machine snapshot (copy-on-write pages) plus the daemon's own
/// protocol state. Produced by [`Daemon::snapshot`], consumed by
/// [`Daemon::restore`] — the "boot once, fork per trial" primitive the
/// experiment harness builds on.
#[derive(Debug, Clone)]
pub struct DaemonSnapshot {
    version: ConnmanVersion,
    machine: MachineSnapshot,
    map: LoadMap,
    syms: EntrySyms,
    cache: Cache,
    layout: FrameLayout,
    parse_pc: Addr,
    resume_pc: Addr,
    boot_sp: Addr,
    next_id: u16,
    pending: Vec<PendingQuery>,
    clock: u64,
    state: DaemonState,
    sanitize: bool,
}

/// The simulated Connman DNS proxy daemon.
#[derive(Debug, Clone)]
pub struct Daemon {
    version: ConnmanVersion,
    machine: Machine,
    map: LoadMap,
    syms: EntrySyms,
    cache: Cache,
    layout: FrameLayout,
    parse_pc: Addr,
    resume_pc: Addr,
    boot_sp: Addr,
    next_id: u16,
    /// Outstanding queries in issue order, at most [`MAX_PENDING`]: a
    /// lookup scans at most that many ids, and eviction drops index 0,
    /// the oldest.
    pending: Vec<PendingQuery>,
    clock: u64,
    state: DaemonState,
    /// When set, a shadow-memory redzone guards the name buffer during
    /// each parse (see [`Daemon::with_sanitizer`]).
    sanitize: bool,
}

/// Positions of the daemon's entry symbols in its image's symbol list
/// (see [`LoadMap::symbol_index`]): resolved by name once per image, so
/// a reslide reads the new addresses without a name lookup.
#[derive(Debug, Clone, Copy)]
struct EntrySyms {
    parse: usize,
    resume: usize,
}

impl EntrySyms {
    fn resolve(map: &LoadMap) -> Result<Self, DaemonError> {
        let find = |name| {
            map.symbol_index(name)
                .ok_or(DaemonError::MissingSymbol(name))
        };
        Ok(EntrySyms {
            parse: find(SYM_PARSE_RESPONSE)?,
            resume: find(SYM_DAEMON_LOOP)?,
        })
    }
}

impl Daemon {
    /// Wraps a loaded machine as a running daemon.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::MissingSymbol`] if the image did not define
    /// `parse_response` and `daemon_loop`.
    pub fn new(
        machine: Machine,
        map: LoadMap,
        version: ConnmanVersion,
    ) -> Result<Self, DaemonError> {
        let syms = EntrySyms::resolve(&map)?;
        let parse_pc = map.symbol_at(syms.parse);
        let resume_pc = map.symbol_at(syms.resume);
        let boot_sp = machine.regs().sp();
        let layout = FrameLayout::connman(machine.arch());
        Ok(Daemon {
            version,
            machine,
            map,
            syms,
            cache: Cache::default(),
            layout,
            parse_pc,
            resume_pc,
            boot_sp,
            next_id: 0x1000,
            pending: Vec::new(),
            clock: 0,
            state: DaemonState::Running,
            sanitize: false,
        })
    }

    /// Overrides the vulnerable function's frame geometry — used to
    /// model *other* overflow-prone services (paper §V) with the same
    /// daemon machinery.
    pub fn with_frame_layout(mut self, layout: FrameLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The active frame geometry.
    pub fn frame_layout(&self) -> FrameLayout {
        self.layout
    }

    /// Enables the shadow-memory sanitizer: during each parse a redzone
    /// is armed past the name buffer, out-of-bounds writes are diverted
    /// instead of corrupting the frame, and an overflow surfaces as a
    /// precise [`Fault::RedzoneViolation`] crash (faulting pc, buffer,
    /// extent) rather than a hijack or silent corruption.
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// In-place variant of [`Daemon::with_sanitizer`] — for daemons that
    /// are already booted (e.g. a snapshot fork).
    pub fn set_sanitizer(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Whether the shadow-memory sanitizer is enabled.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitize
    }

    /// The Connman release being simulated.
    pub fn version(&self) -> ConnmanVersion {
        self.version
    }

    /// Current lifecycle state.
    pub fn state(&self) -> &DaemonState {
        &self.state
    }

    /// Whether the daemon still serves queries.
    pub fn is_running(&self) -> bool {
        matches!(self.state, DaemonState::Running)
    }

    /// The record cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The underlying machine (for inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine, mutably — for harness-level toggles
    /// (dispatch mode, decode cache) and instrumentation. Daemon
    /// bookkeeping (pcs, pending queries) is not touched, so callers
    /// must not move regions or rewrite register state.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Enables execution tracing on the underlying machine: hijacked
    /// control flow is recorded step by step (see [`cml_vm::Trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.machine.enable_trace(capacity);
    }

    /// The load map (runtime symbol addresses).
    pub fn map(&self) -> &LoadMap {
        &self.map
    }

    /// Number of queries awaiting answers.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The outstanding query with the given transaction id.
    pub fn pending_for(&self, id: u16) -> Option<&PendingQuery> {
        self.pending.iter().find(|p| p.id() == id)
    }

    /// Advances the daemon's clock (TTL bookkeeping).
    pub fn tick(&mut self, n: u64) {
        self.clock += n;
        self.cache.evict_expired(self.clock);
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Handles a client lookup: serve from cache or issue an upstream
    /// query whose wire bytes the caller must forward to the DNS server.
    pub fn resolve(&mut self, name: &Name, rtype: RecordType) -> Resolution {
        if let Some(entry) = self.cache.lookup(name, rtype, self.clock) {
            return Resolution::Cached(entry.addresses.clone());
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let query = Message::query(id, Question::new(name.clone(), rtype));
        let bytes = query.encode().expect("queries are small and well-formed");
        if self.pending.len() >= MAX_PENDING {
            // Evict the oldest request, as the real bounded list does.
            self.pending.remove(0);
        }
        self.pending.push(PendingQuery { message: query });
        Resolution::Query(bytes)
    }

    /// Feeds an upstream response into the vulnerable parser.
    ///
    /// This is the experiment's trigger point: everything the paper does
    /// to the daemon flows through here.
    pub fn deliver_response(&mut self, bytes: &[u8]) -> ProxyOutcome {
        if !self.is_running() {
            return ProxyOutcome::DaemonDown;
        }
        let found_id = u16::from_be_bytes([
            bytes.first().copied().unwrap_or(0),
            bytes.get(1).copied().unwrap_or(0),
        ]);
        let Some(slot) = self.pending.iter().position(|p| p.id() == found_id) else {
            return ProxyOutcome::Rejected(ResponseRejection::IdMismatch {
                expected: 0,
                found: found_id,
            });
        };
        // 1. Header gate — "otherwise Connman dumps the packet".
        let gate = match gate_response(self.pending[slot].message(), bytes) {
            Ok(g) => g,
            Err(rej) => return ProxyOutcome::Rejected(rej),
        };
        self.machine
            .cov_note(cov::GATE_PASS | cov::bucket(gate.header.ancount as usize));

        // 2. Enter the parse_response frame on the simulated stack.
        let caller_sp = self.boot_sp - CALL_DEPTH;
        let canary = self.machine.canary();
        let frame = match Frame::enter_with(
            &mut self.machine,
            self.layout,
            caller_sp,
            self.resume_pc,
            canary,
            self.parse_pc,
        ) {
            Ok(f) => f,
            Err(fault) => return self.crash(fault),
        };

        // 2b. Sanitizer: arm a redzone from the buffer's end to the top
        //     of the stack region. Frame setup above already committed,
        //     so every absorbed write is a genuine overflow.
        if self.sanitize {
            let buf = frame.buf_addr();
            let cap = self.layout.buf_size as u32;
            let zone_start = buf.wrapping_add(cap);
            let zone_end = self
                .machine
                .mem()
                .region_containing(zone_start)
                .map_or(zone_start as u64, |r| r.end());
            self.machine.mem_mut().arm_redzone(buf, cap, zone_end);
        }

        // 3. Walk the answer records through the (possibly unchecked)
        //    decompressor.
        let mut offset = gate.answers_offset;
        let mut parse_failure: Option<ParseFailure> = None;
        let mut to_cache: Vec<(RecordType, Vec<IpAddr>, u32)> = Vec::new();
        for rr_idx in 0..gate.header.ancount {
            match get_name_into(
                &mut self.machine,
                self.version,
                bytes,
                offset,
                frame.buf_addr(),
                self.layout.buf_size,
                self.parse_pc,
            ) {
                Ok(out) => offset = out.next_offset,
                Err(e) => {
                    parse_failure = Some(match e {
                        UncompressError::Malformed => ParseFailure::MalformedName,
                        UncompressError::PointerLoop => ParseFailure::PointerLoop,
                        UncompressError::BufferFull { needed } => {
                            ParseFailure::BufferFull { needed }
                        }
                        UncompressError::MachineFault(fault) => {
                            // Prefer the precise sanitizer diagnostic over
                            // the raw machine fault, if the redzone saw the
                            // overflow.
                            let fault = self.sanitizer_verdict().unwrap_or(fault);
                            return self.crash(fault);
                        }
                    });
                    break;
                }
            }
            // Fixed RR fields: type, class, ttl, rdlength, rdata.
            match parse_rr_fixed(bytes, offset) {
                Ok(rr) => {
                    offset = rr.next_offset;
                    self.machine
                        .cov_note(cov::RR_PARSED | cov::bucket(rr_idx as usize));
                    if let Some(addr) = rr.address() {
                        to_cache.push((rr.rtype, vec![addr], rr.ttl));
                    }
                }
                Err(reason) => {
                    parse_failure = Some(reason);
                    break;
                }
            }
        }

        // 3b. Sanitizer: disarm. An absorbed overflow becomes a precise
        //     crash diagnostic; the frame beneath is untouched, so the
        //     exploit never progresses past this point.
        if let Some(fault) = self.sanitizer_verdict() {
            return self.crash(fault);
        }

        // 4. parse_rr's pointer checks (the ARM NULL-slot quirk).
        if let Err(fault) = frame.run_parse_rr_checks(&self.machine, self.parse_pc) {
            return self.crash(fault);
        }

        // 5. Canary verification (when compiled in).
        if let Err(fault) = frame.check_canary(&self.machine, self.parse_pc) {
            return self.crash(fault);
        }

        // 6. Epilogue: restore saved state and "return".
        if let Err(fault) = frame.leave(&mut self.machine, self.parse_pc) {
            return self.crash(fault);
        }

        if self.machine.regs().pc() == self.resume_pc {
            // The saved return address survived: normal control flow.
            if let Some(reason) = parse_failure {
                return ProxyOutcome::ParseFailed { reason };
            }
            let qname = self.pending[slot].message().questions()[0].qname().clone();
            let mut cached = 0;
            for (rtype, addrs, ttl) in to_cache {
                if self.cache.insert(&qname, rtype, addrs, ttl, self.clock) {
                    cached += 1;
                }
            }
            self.pending.remove(slot);
            return ProxyOutcome::Answered { cached };
        }

        // 7. Hijacked: the machine now runs attacker-chosen control flow.
        match self.machine.run(HIJACK_STEP_BUDGET) {
            RunOutcome::ShellSpawned(spawn) => {
                self.state = DaemonState::Compromised(spawn.clone());
                ProxyOutcome::Compromised(spawn)
            }
            RunOutcome::Exited(code) => {
                self.state = DaemonState::Exited(code);
                ProxyOutcome::HijackedExit { code }
            }
            RunOutcome::Fault(fault) => self.crash(fault),
        }
    }

    /// Captures the daemon's complete state for later [`Daemon::restore`].
    ///
    /// Cheap to restore from: memory pages are shared copy-on-write with
    /// the live machine, so rewinding costs O(pages dirtied since the
    /// snapshot), not O(address space).
    pub fn snapshot(&mut self) -> DaemonSnapshot {
        DaemonSnapshot {
            version: self.version,
            machine: self.machine.snapshot(),
            map: self.map.clone(),
            syms: self.syms,
            cache: self.cache.clone(),
            layout: self.layout,
            parse_pc: self.parse_pc,
            resume_pc: self.resume_pc,
            boot_sp: self.boot_sp,
            next_id: self.next_id,
            pending: self.pending.clone(),
            clock: self.clock,
            state: self.state.clone(),
            sanitize: self.sanitize,
        }
    }

    /// Rewinds the daemon to `snap` (taken from this daemon or a clone of
    /// it booted from the same image).
    pub fn restore(&mut self, snap: &DaemonSnapshot) {
        self.version = snap.version;
        self.machine.restore(&snap.machine);
        // `clone_from` so the fork-per-device loop reuses the live
        // daemon's table capacity instead of reallocating every rewind.
        self.map.clone_from(&snap.map);
        self.syms = snap.syms;
        self.cache.clone_from(&snap.cache);
        self.layout = snap.layout;
        self.parse_pc = snap.parse_pc;
        self.resume_pc = snap.resume_pc;
        self.boot_sp = snap.boot_sp;
        self.next_id = snap.next_id;
        self.pending.clone_from(&snap.pending);
        self.clock = snap.clock;
        self.state.clone_from(&snap.state);
        self.sanitize = snap.sanitize;
    }

    /// Re-randomizes the booted machine with `loader`'s seed (see
    /// [`Loader::reslide`]) and rebases every symbol-derived address the
    /// daemon caches. Used by the fork-per-trial boot path to give each
    /// fork its own ASLR layout without re-booting.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::MissingSymbol`] if the reslid map lost a
    /// required symbol (it cannot, for images accepted by
    /// [`Daemon::new`]).
    pub fn reslide(&mut self, loader: Loader<'_>) -> Result<(), DaemonError> {
        // An idle daemon parks its pc at the loop; keep it parked at the
        // loop's *new* address so a forked boot matches a fresh one.
        let at_loop = self.machine.regs().pc() == self.resume_pc;
        // In-place reslide: the daemon's existing symbol values are
        // rewritten, so a fork neither allocates nor looks up a name
        // (unless the loader brought a different image).
        let image = self.map.image_id();
        loader.reslide_into(&mut self.machine, &mut self.map);
        if self.map.image_id() != image {
            self.syms = EntrySyms::resolve(&self.map)?;
        }
        self.parse_pc = self.map.symbol_at(self.syms.parse);
        self.resume_pc = self.map.symbol_at(self.syms.resume);
        self.boot_sp = self.machine.regs().sp();
        if at_loop {
            self.machine.regs_mut().set_pc(self.resume_pc);
        }
        Ok(())
    }

    /// Disarms the parse-time redzone (no-op when the sanitizer is off
    /// or nothing overflowed) and converts an absorbed overflow into
    /// the sanitizer fault.
    fn sanitizer_verdict(&mut self) -> Option<Fault> {
        let hit = self.machine.mem_mut().disarm_redzone()?;
        Some(Fault::RedzoneViolation {
            buffer: hit.buffer,
            capacity: hit.capacity,
            first: hit.first,
            extent: hit.extent(),
            pc: hit.pc,
        })
    }

    fn crash(&mut self, fault: Fault) -> ProxyOutcome {
        self.state = DaemonState::Crashed(fault.clone());
        ProxyOutcome::Crashed(Box::new(FaultReport::capture(&self.machine, fault)))
    }
}

/// Fixed RR fields, borrowing `rdata` straight from the packet — one
/// record is parsed per decompressed name, so a per-record `Vec` here
/// would be the only allocation left in the DNS decode loop.
struct RrFixed<'a> {
    rtype: RecordType,
    ttl: u32,
    rdata: &'a [u8],
    next_offset: usize,
}

impl RrFixed<'_> {
    fn address(&self) -> Option<IpAddr> {
        match (self.rtype, self.rdata.len()) {
            (RecordType::A, 4) => {
                let mut o = [0u8; 4];
                o.copy_from_slice(self.rdata);
                Some(IpAddr::from(o))
            }
            (RecordType::Aaaa, 16) => {
                let mut o = [0u8; 16];
                o.copy_from_slice(self.rdata);
                Some(IpAddr::from(o))
            }
            _ => None,
        }
    }
}

fn parse_rr_fixed(bytes: &[u8], offset: usize) -> Result<RrFixed<'_>, ParseFailure> {
    let truncated = |_| ParseFailure::RecordTruncated;
    let mut r = WireReader::new(bytes);
    r.seek(offset).map_err(truncated)?;
    let rtype = RecordType::from_u16(r.read_u16("type").map_err(truncated)?);
    let _class = r.read_u16("class").map_err(truncated)?;
    let ttl = r.read_u32("ttl").map_err(truncated)?;
    let rdlen = r.read_u16("rdlength").map_err(truncated)? as usize;
    let rdata = r
        .read_bytes(rdlen, "rdata")
        .map_err(|_| ParseFailure::RdataTruncated)?;
    Ok(RrFixed {
        rtype,
        ttl,
        rdata,
        next_offset: r.position(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_dns::forge::ResponseForge;
    use cml_image::{layout, Arch, ImageBuilder, SectionKind, SymbolKind};
    use cml_vm::{Loader, Protections};

    /// A minimal bootable image: enough code and symbols for the daemon.
    fn test_image(arch: Arch) -> cml_image::Image {
        let l = layout::layout_for(arch);
        let mut b = ImageBuilder::new(arch);
        b.section_default(SectionKind::Text, l.text_base, 0x4000);
        b.section_default(SectionKind::Libc, l.libc_base, 0x4000);
        b.section_default(SectionKind::Stack, l.stack_top - l.stack_size, l.stack_size);
        // daemon_loop: benign code then parse_response marker.
        let loop_addr = match arch {
            Arch::X86 => b.append_code(SectionKind::Text, &[0x90, 0x90, 0x90, 0xC3]),
            Arch::Armv7 => b.append_code(
                SectionKind::Text,
                &cml_vm::arm::Asm::new().mov_reg(1, 1).bx(14).finish(),
            ),
            Arch::Riscv => b.append_code(
                SectionKind::Text,
                &cml_vm::riscv::Asm::new().c_nop().jalr(0, 1, 0).finish(),
            ),
        };
        b.symbol(SYM_DAEMON_LOOP, loop_addr, 4, SymbolKind::Function);
        let parse_addr = b.cursor(SectionKind::Text);
        match arch {
            Arch::X86 => b.append_code(SectionKind::Text, &[0xC3]),
            Arch::Armv7 => {
                b.append_code(SectionKind::Text, &cml_vm::arm::Asm::new().bx(14).finish())
            }
            Arch::Riscv => b.append_code(
                SectionKind::Text,
                &cml_vm::riscv::Asm::new().c_ret().finish(),
            ),
        };
        b.symbol(SYM_PARSE_RESPONSE, parse_addr, 4, SymbolKind::Function);
        b.build().unwrap()
    }

    pub(crate) fn daemon(arch: Arch, version: ConnmanVersion, protections: Protections) -> Daemon {
        let img = test_image(arch);
        let (machine, map) = Loader::new(&img).protections(protections).seed(42).load();
        Daemon::new(machine, map, version).unwrap()
    }

    pub(crate) fn issue_query(d: &mut Daemon) -> Message {
        let name = Name::parse("iot.example.com").unwrap();
        match d.resolve(&name, RecordType::A) {
            Resolution::Query(bytes) => Message::decode(&bytes).unwrap(),
            Resolution::Cached(_) => panic!("cache should be cold"),
        }
    }

    #[test]
    fn benign_response_is_cached() {
        let mut d = daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let q = issue_query(&mut d);
        let resp = ResponseForge::answering(&q)
            .with_payload_labels(vec![b"iot".to_vec(), b"example".to_vec(), b"com".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        let out = d.deliver_response(&resp);
        assert_eq!(out, ProxyOutcome::Answered { cached: 1 });
        assert!(d.is_running());
        // Second lookup hits the cache.
        let name = Name::parse("iot.example.com").unwrap();
        assert!(matches!(
            d.resolve(&name, RecordType::A),
            Resolution::Cached(_)
        ));
    }

    #[test]
    fn oversized_response_crashes_vulnerable_daemon() {
        for arch in Arch::ALL {
            let mut d = daemon(arch, ConnmanVersion::V1_34, Protections::none());
            let q = issue_query(&mut d);
            let resp = ResponseForge::answering(&q)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap()
                .build()
                .unwrap();
            let out = d.deliver_response(&resp);
            assert!(
                out.is_dos() || !out.is_root_shell() && !out.daemon_alive(),
                "{arch}: {out}"
            );
            assert!(!d.is_running(), "{arch}: daemon must be dead");
            // Subsequent deliveries bounce.
            assert_eq!(d.deliver_response(&resp), ProxyOutcome::DaemonDown);
        }
    }

    #[test]
    fn crash_report_carries_pattern_pc_on_x86() {
        let mut d = daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let q = issue_query(&mut d);
        // 'AAAA' everywhere: the classic smashed-pc signature.
        let resp = ResponseForge::answering(&q)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        match d.deliver_response(&resp) {
            ProxyOutcome::Crashed(report) => {
                assert_eq!(report.pc, Some(0x4141_4141), "pc is attacker bytes");
            }
            other => panic!("expected crash, got {other}"),
        }
    }

    #[test]
    fn sanitizer_reports_precise_overflow() {
        for arch in Arch::ALL {
            let mut d =
                daemon(arch, ConnmanVersion::V1_34, Protections::none()).with_sanitizer(true);
            let q = issue_query(&mut d);
            let forge = ResponseForge::answering(&q)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap();
            // Total bytes the decompressor emits: labels + final root.
            let written = forge.decompressed_len() as u32 + 1;
            let resp = forge.build().unwrap();
            let out = d.deliver_response(&resp);
            let ProxyOutcome::Crashed(report) = out else {
                panic!("{arch}: expected sanitizer crash, got {out}");
            };
            match &report.fault {
                Fault::RedzoneViolation {
                    capacity, extent, ..
                } => {
                    assert_eq!(*capacity, 1024, "{arch}");
                    assert_eq!(*extent, written - 1024, "{arch}");
                }
                f => panic!("{arch}: unexpected fault {f}"),
            }
            assert!(!d.is_running(), "{arch}: sanitizer abort is fail-stop");
        }
    }

    #[test]
    fn sanitizer_quiet_on_benign_response() {
        let mut d =
            daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none()).with_sanitizer(true);
        let q = issue_query(&mut d);
        let resp = ResponseForge::answering(&q)
            .with_payload_labels(vec![b"iot".to_vec(), b"example".to_vec(), b"com".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(
            d.deliver_response(&resp),
            ProxyOutcome::Answered { cached: 1 }
        );
        assert!(d.is_running());
    }

    #[test]
    fn patched_daemon_survives_oversized_response() {
        for arch in Arch::ALL {
            let mut d = daemon(arch, ConnmanVersion::V1_35, Protections::none());
            let q = issue_query(&mut d);
            let resp = ResponseForge::answering(&q)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap()
                .build()
                .unwrap();
            let out = d.deliver_response(&resp);
            assert!(
                matches!(out, ProxyOutcome::ParseFailed { .. }),
                "{arch}: {out}"
            );
            assert!(d.is_running());
        }
    }

    #[test]
    fn wrong_id_rejected_without_parsing() {
        let mut d = daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let _ = issue_query(&mut d);
        let other = Message::query(
            0xFFFF,
            Question::new(Name::parse("iot.example.com").unwrap(), RecordType::A),
        );
        let resp = ResponseForge::answering(&other)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            d.deliver_response(&resp),
            ProxyOutcome::Rejected(ResponseRejection::IdMismatch { .. })
        ));
        assert!(d.is_running(), "bad responses must not reach the overflow");
    }

    #[test]
    fn response_without_pending_query_rejected() {
        let mut d = daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let out = d.deliver_response(&[0u8; 32]);
        assert!(matches!(out, ProxyOutcome::Rejected(_)));
    }

    #[test]
    fn arm_overflow_without_null_slots_faults_in_parse_rr() {
        let mut d = daemon(Arch::Armv7, ConnmanVersion::V1_34, Protections::none());
        let q = issue_query(&mut d);
        // Non-zero bytes land in the NULL-check slots → parse_rr
        // dereferences 0x41414141 and dies before the epilogue.
        let resp = ResponseForge::answering(&q)
            .with_chunked_payload(&[0x41; 1100])
            .unwrap()
            .build()
            .unwrap();
        match d.deliver_response(&resp) {
            ProxyOutcome::Crashed(report) => {
                // The dereferenced "pointer" is attacker label bytes
                // (0x41s, with a 0x3F label-length byte possibly mixed in).
                match report.fault {
                    Fault::UnmappedRead { addr, .. } => {
                        assert_eq!(addr & 0xFFFF_FF00, 0x4141_4100, "{addr:#x}")
                    }
                    other => panic!("expected unmapped read, got {other}"),
                }
            }
            other => panic!("expected parse_rr crash, got {other}"),
        }
    }

    #[test]
    fn canary_detects_overflow_before_return() {
        let mut d = daemon(
            Arch::X86,
            ConnmanVersion::V1_34,
            Protections::none().with_canary(),
        );
        let q = issue_query(&mut d);
        let resp = ResponseForge::answering(&q)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        match d.deliver_response(&resp) {
            ProxyOutcome::Crashed(report) => {
                assert!(matches!(report.fault, Fault::CanarySmashed { .. }));
            }
            other => panic!("expected canary abort, got {other}"),
        }
    }

    #[test]
    fn ttl_expiry_through_ticks() {
        let mut d = daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let q = issue_query(&mut d);
        let resp = ResponseForge::answering(&q)
            .with_payload_labels(vec![b"iot".to_vec()])
            .unwrap()
            .ttl(30)
            .build()
            .unwrap();
        assert!(matches!(
            d.deliver_response(&resp),
            ProxyOutcome::Answered { .. }
        ));
        let name = Name::parse("iot.example.com").unwrap();
        assert!(matches!(
            d.resolve(&name, RecordType::A),
            Resolution::Cached(_)
        ));
        d.tick(31);
        assert!(matches!(
            d.resolve(&name, RecordType::A),
            Resolution::Query(_)
        ));
    }
}

#[cfg(test)]
mod pending_tests {
    use super::*;
    use crate::daemon::tests::{daemon as boot_daemon, issue_query};
    use cml_dns::forge::ResponseForge;
    use cml_image::Arch;
    use cml_vm::Protections;

    #[test]
    fn multiple_in_flight_queries_answered_out_of_order() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let mut queries = Vec::new();
        for i in 0..5 {
            let name = Name::parse(&format!("host-{i}.example")).unwrap();
            let Resolution::Query(bytes) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            queries.push(Message::decode(&bytes).unwrap());
        }
        assert_eq!(d.pending_count(), 5);
        // Answer in reverse order.
        for q in queries.iter().rev() {
            let resp = ResponseForge::answering(q)
                .with_payload_labels(vec![b"ok".to_vec()])
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(
                d.deliver_response(&resp),
                ProxyOutcome::Answered { cached: 1 }
            );
        }
        assert_eq!(d.pending_count(), 0);
        assert_eq!(d.cache().len(), 5);
    }

    #[test]
    fn attacker_matching_any_outstanding_id_reaches_the_overflow() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let mut first = None;
        for i in 0..3 {
            let name = Name::parse(&format!("svc-{i}.example")).unwrap();
            let Resolution::Query(bytes) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            if first.is_none() {
                first = Some(Message::decode(&bytes).unwrap());
            }
        }
        // Exploit the *oldest* outstanding query, not the latest.
        let attack = ResponseForge::answering(&first.unwrap())
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        assert!(!d.deliver_response(&attack).daemon_alive());
    }

    #[test]
    fn request_list_is_bounded_with_oldest_first_eviction() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let mut first_query = None;
        for i in 0..40 {
            let name = Name::parse(&format!("n{i}.example")).unwrap();
            let Resolution::Query(bytes) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            if i == 0 {
                first_query = Some(Message::decode(&bytes).unwrap());
            }
        }
        assert_eq!(d.pending_count(), 32, "bounded request list");
        // The first query was evicted: answering it is now rejected.
        let resp = ResponseForge::answering(&first_query.unwrap())
            .with_payload_labels(vec![b"ok".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            d.deliver_response(&resp),
            ProxyOutcome::Rejected(_)
        ));
    }

    #[test]
    fn eviction_strictly_follows_issue_order() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let mut ids = Vec::new();
        for i in 0..MAX_PENDING + 3 {
            let name = Name::parse(&format!("q{i}.example")).unwrap();
            let Resolution::Query(bytes) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            ids.push(Message::decode(&bytes).unwrap().id());
        }
        // Three over capacity: exactly the three oldest are gone, the
        // fourth-oldest and everything newer remain.
        assert_eq!(d.pending_count(), MAX_PENDING);
        for id in &ids[..3] {
            assert!(d.pending_for(*id).is_none(), "{id:#06x} should be evicted");
        }
        for id in &ids[3..] {
            assert!(d.pending_for(*id).is_some(), "{id:#06x} should survive");
        }
    }

    #[test]
    fn answered_oldest_query_moves_eviction_to_the_next_oldest() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let mut queries = Vec::new();
        for i in 0..MAX_PENDING {
            let name = Name::parse(&format!("s{i}.example")).unwrap();
            let Resolution::Query(bytes) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            queries.push(Message::decode(&bytes).unwrap());
        }
        // Answer the OLDEST query: it leaves the request list.
        let resp = ResponseForge::answering(&queries[0])
            .with_payload_labels(vec![b"ok".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(
            d.deliver_response(&resp),
            ProxyOutcome::Answered { cached: 1 }
        );
        assert_eq!(d.pending_count(), MAX_PENDING - 1);
        // Refill to capacity (no eviction), then one more: queries[1] —
        // now the oldest outstanding query — is the one evicted.
        for i in 0..2 {
            let name = Name::parse(&format!("extra{i}.example")).unwrap();
            let Resolution::Query(_) = d.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
        }
        assert_eq!(d.pending_count(), MAX_PENDING);
        assert!(
            d.pending_for(queries[1].id()).is_none(),
            "oldest live evicted"
        );
        assert!(
            d.pending_for(queries[2].id()).is_some(),
            "next-oldest survives"
        );
    }

    #[test]
    fn unanswered_query_stays_pending_after_rejected_packets() {
        let mut d = boot_daemon(Arch::X86, ConnmanVersion::V1_34, Protections::none());
        let q = issue_query(&mut d);
        let mut bad = ResponseForge::answering(&q)
            .with_payload_labels(vec![b"ok".to_vec()])
            .unwrap()
            .build()
            .unwrap();
        bad[3] |= 0x03; // NXDOMAIN rcode → gate rejects as error rcode
        assert!(matches!(
            d.deliver_response(&bad),
            ProxyOutcome::Rejected(_)
        ));
        assert_eq!(d.pending_count(), 1, "still waiting for a good answer");
        assert!(d.pending_for(q.id()).is_some());
    }
}
