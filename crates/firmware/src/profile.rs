//! Firmware profiles and booting.

use std::fmt;
use std::sync::Arc;

use cml_connman::{
    ConnmanVersion, Daemon, DaemonSnapshot, FrameLayout, SYM_DAEMON_INIT, SYM_DAEMON_LOOP,
};
use cml_image::{Addr, Arch, Image};
use cml_vm::{ArmReg, Loader, Machine, Protections, Regs, RiscvReg};

use crate::build::{build_image_for, GadgetAddrs};

/// Instruction budget for the boot-time `daemon_init` routine.
const INIT_STEP_BUDGET: u64 = 65_536;

/// The firmware families the paper surveys (§III): each pins a Connman
/// release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareKind {
    /// Yocto-built distributions — compile Connman 1.31.
    Yocto,
    /// OpenELEC media-streaming OS — ships Connman 1.34, the last
    /// vulnerable release.
    OpenElec,
    /// Tizen OS before 4.0 — carries a vulnerable Connman.
    Tizen,
    /// A hypothetical updated build with the patched 1.35.
    Patched,
}

impl FirmwareKind {
    /// The Connman release this firmware ships.
    pub fn connman_version(self) -> ConnmanVersion {
        match self {
            FirmwareKind::Yocto => ConnmanVersion::V1_31,
            FirmwareKind::OpenElec => ConnmanVersion::V1_34,
            FirmwareKind::Tizen => ConnmanVersion::new(1, 33),
            FirmwareKind::Patched => ConnmanVersion::V1_35,
        }
    }

    /// OS/product name used in reports.
    pub fn os_name(self) -> &'static str {
        match self {
            FirmwareKind::Yocto => "Yocto",
            FirmwareKind::OpenElec => "OpenELEC",
            FirmwareKind::Tizen => "Tizen (<4.0)",
            FirmwareKind::Patched => "patched build",
        }
    }

    /// Whether this firmware is exploitable via CVE-2017-12865.
    pub fn is_vulnerable(self) -> bool {
        self.connman_version().is_vulnerable()
    }

    /// All profiles, in the paper's order.
    pub const ALL: [FirmwareKind; 4] = [
        FirmwareKind::Yocto,
        FirmwareKind::OpenElec,
        FirmwareKind::Tizen,
        FirmwareKind::Patched,
    ];
}

impl fmt::Display for FirmwareKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (Connman {})", self.os_name(), self.connman_version())
    }
}

/// A vulnerable network service modelled after the paper's §V list of
/// adaptable CVEs. Each differs only in the overflowable buffer's size —
/// exactly the "basic changes such as changing variables to memory
/// addresses suitable for the targeted vulnerability" the paper
/// describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Service name.
    pub name: &'static str,
    /// The CVE this service stands in for.
    pub cve: &'static str,
    /// Size of the stack buffer its parser overflows.
    pub buf_size: usize,
}

impl ServiceProfile {
    /// Connman's DNS proxy — the paper's main target.
    pub const CONNMAN: ServiceProfile = ServiceProfile {
        name: "connman dnsproxy",
        cve: "CVE-2017-12865",
        buf_size: 1024,
    };
    /// A dnsmasq-like forwarder with a small parsing buffer.
    pub const DNSMASQ_LIKE: ServiceProfile = ServiceProfile {
        name: "dnsmasq-like forwarder",
        cve: "CVE-2017-14493 (analogue)",
        buf_size: 296,
    };
    /// A systemd-resolved-like resolver with a large parsing buffer.
    pub const RESOLVED_LIKE: ServiceProfile = ServiceProfile {
        name: "resolved-like resolver",
        cve: "CVE-2018-9445 (analogue)",
        buf_size: 2048,
    };
    /// An Asterisk-like DNS handler with a tiny buffer.
    pub const ASTERISK_LIKE: ServiceProfile = ServiceProfile {
        name: "asterisk-like dns handler",
        cve: "CVE-2018-19278 (analogue)",
        buf_size: 128,
    };

    /// All modelled services, Connman first.
    pub const ALL: [ServiceProfile; 4] = [
        ServiceProfile::CONNMAN,
        ServiceProfile::DNSMASQ_LIKE,
        ServiceProfile::RESOLVED_LIKE,
        ServiceProfile::ASTERISK_LIKE,
    ];
}

/// A firmware build: profile + architecture + the assembled binary
/// image. Build once, boot many times (each boot re-randomizes under
/// ASLR).
///
/// ```
/// use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
///
/// let fw = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
/// let daemon = fw.boot(Protections::full(), 42);
/// assert!(daemon.is_running());
/// assert!(daemon.version().is_vulnerable());
/// ```
#[derive(Debug, Clone)]
pub struct Firmware {
    kind: FirmwareKind,
    arch: Arch,
    image: Image,
    gadgets: GadgetAddrs,
}

impl Firmware {
    /// Assembles the firmware image for a profile/architecture pair.
    pub fn build(kind: FirmwareKind, arch: Arch) -> Self {
        Self::build_variant(kind, arch, 0)
    }

    /// Assembles a different *build* of the same firmware: identical
    /// interface, shuffled code layout (see
    /// [`build_image_variant`](crate::build_image_variant)).
    pub fn build_variant(kind: FirmwareKind, arch: Arch, variant: u64) -> Self {
        // Patched firmware carries the bounds-checked `parse_response`
        // body, so static analysis can tell the builds apart the same
        // way the runtime `uncompress` switch does.
        let (image, gadgets) = build_image_for(arch, variant, !kind.is_vulnerable());
        Firmware {
            kind,
            arch,
            image,
            gadgets,
        }
    }

    /// The firmware profile.
    pub fn kind(&self) -> FirmwareKind {
        self.kind
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The binary image (what the attacker's recon tooling scans).
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Planted-gadget ground truth (test oracle only).
    pub fn gadget_ground_truth(&self) -> GadgetAddrs {
        self.gadgets
    }

    /// Ground-truth `parse_response` frame geometry for this build — the
    /// layout the runtime materializes on every parse. The static
    /// analyzer never reads this; the static↔dynamic oracle compares the
    /// analyzer's *recovered* frame (buffer slot, buf→ret distance,
    /// canary placement) against it, the way a differential test would
    /// consult DWARF on a real binary.
    pub fn frame_truth(&self) -> FrameLayout {
        FrameLayout::scaled(self.arch, ServiceProfile::CONNMAN.buf_size)
    }

    /// Boots the firmware: loads the image under `protections` with the
    /// per-boot `seed` and starts the Connman daemon.
    pub fn boot(&self, protections: Protections, seed: u64) -> Daemon {
        self.boot_service(protections, seed, ServiceProfile::CONNMAN)
    }

    /// Boots the firmware with the vulnerable parser configured as a
    /// *different* service (paper §V): same machinery, different frame
    /// geometry.
    pub fn boot_service(
        &self,
        protections: Protections,
        seed: u64,
        service: ServiceProfile,
    ) -> Daemon {
        let (mut machine, map) = Loader::new(&self.image)
            .protections(protections)
            .seed(seed)
            .load();
        // Run the one-time boot routine when the image provides it. This
        // is the work a forked boot (see [`Firmware::forge`]) skips.
        if let (Some(init), Some(target)) =
            (map.symbol(SYM_DAEMON_INIT), map.symbol(SYM_DAEMON_LOOP))
        {
            run_daemon_init(&mut machine, init, target);
        }
        let layout = FrameLayout::scaled(self.arch, service.buf_size);
        Daemon::new(machine, map, self.kind.connman_version())
            .expect("firmware images define the daemon symbols")
            .with_frame_layout(layout)
    }

    /// Boots the firmware once and wraps the result in a [`BootForge`]:
    /// subsequent [`BootForge::fork`] calls rewind to the just-booted
    /// state (and reslide the layout for other seeds) instead of paying
    /// for a full load and `daemon_init` run per trial.
    pub fn forge(&self, protections: Protections, seed: u64) -> BootForge {
        self.forge_service(protections, seed, ServiceProfile::CONNMAN)
    }

    /// [`Firmware::forge`] with an explicit service profile.
    pub fn forge_service(
        &self,
        protections: Protections,
        seed: u64,
        service: ServiceProfile,
    ) -> BootForge {
        let mut daemon = self.boot_service(protections, seed, service);
        let snap = daemon.snapshot();
        BootForge {
            firmware: Arc::new(self.clone()),
            protections,
            base_seed: seed,
            daemon,
            snap,
        }
    }
}

/// Calls the image's `daemon_init` routine and scrubs the
/// layout-dependent call residue, so that a forked boot (snapshot →
/// restore → reslide) is byte-identical to a fresh boot of the same
/// seed.
fn run_daemon_init(machine: &mut Machine, init: Addr, target: Addr) {
    // The init call's return edge must be shadowed like any other (CFI).
    machine.shadow_push(target);
    match machine.arch() {
        Arch::X86 => {
            let sp = machine.regs().sp().wrapping_sub(4);
            machine.regs_mut().set_sp(sp);
            machine
                .mem_mut()
                .poke(sp, &target.to_le_bytes())
                .expect("boot stack is mapped");
        }
        Arch::Armv7 => {
            if let Regs::Arm(r) = machine.regs_mut() {
                r.set(ArmReg::LR, target);
            }
        }
        Arch::Riscv => {
            if let Regs::Riscv(r) = machine.regs_mut() {
                r.set(RiscvReg::RA, target);
            }
        }
    }
    machine.regs_mut().set_pc(init);
    machine
        .run_to(target, INIT_STEP_BUDGET)
        .expect("daemon_init runs to completion");
    // Scrub the return-address residue: the x86 `ret` leaves it just
    // below sp, ARM leaves it in lr. Both are layout-dependent values a
    // reslide could not fix up.
    match machine.arch() {
        Arch::X86 => {
            let sp = machine.regs().sp();
            machine
                .mem_mut()
                .poke(sp.wrapping_sub(4), &[0u8; 4])
                .expect("boot stack is mapped");
        }
        Arch::Armv7 => {
            if let Regs::Arm(r) = machine.regs_mut() {
                r.set(ArmReg::LR, 0);
            }
        }
        Arch::Riscv => {
            if let Regs::Riscv(r) = machine.regs_mut() {
                r.set(RiscvReg::RA, 0);
            }
        }
    }
}

/// A booted daemon plus the snapshot needed to rewind it: the
/// "boot once, fork many" primitive. One expensive boot (image load,
/// `daemon_init`) amortizes over every [`BootForge::fork`] call.
#[derive(Debug)]
pub struct BootForge {
    firmware: Arc<Firmware>,
    protections: Protections,
    base_seed: u64,
    daemon: Daemon,
    snap: DaemonSnapshot,
}

impl BootForge {
    /// The protection policy every fork boots under.
    pub fn protections(&self) -> Protections {
        self.protections
    }

    /// The seed of the boot the snapshot was taken from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Rewinds the daemon to its just-booted state under `seed`.
    ///
    /// For the base seed this is a pure snapshot restore; for any other
    /// seed the restored machine is additionally reslid to the layout a
    /// fresh boot with that seed would have produced (same ASLR draws,
    /// same canary — see [`cml_vm::Loader::reslide`]).
    pub fn fork(&mut self, seed: u64) -> &mut Daemon {
        self.daemon.restore(&self.snap);
        if seed != self.base_seed {
            let loader = Loader::new(self.firmware.image())
                .protections(self.protections)
                .seed(seed);
            self.daemon
                .reslide(loader)
                .expect("reslide preserves the daemon symbols");
        }
        &mut self.daemon
    }
}

/// One boot shared copy-on-write across every worker of a campaign.
///
/// [`Firmware::forge`] boots per call site, so a fleet with `W` workers
/// and `P` firmware profiles pays `W × P` boots and keeps `W × P`
/// snapshots. `SharedForge` boots once per profile, takes one
/// [`DaemonSnapshot`] (whose pages are `Arc`-shared), and hands each
/// worker a [`BootForge`] through [`SharedForge::spawn`]:
///
/// * the snapshot **pages are shared** — a spawned forge's
///   `DaemonSnapshot` clone only bumps `Arc` refcounts, so the heavy
///   boot image exists once per profile no matter the worker count;
/// * the **dirty sets are per worker** — each spawned forge owns a live
///   daemon (one materialization copy at spawn) whose per-region dirty
///   bitmaps track only *that worker's* writes, so a fork rewinds just
///   the pages its own sessions touched.
///
/// `SharedForge` itself is `Clone + Send + Sync`: hand it to worker
/// threads and let each spawn its private forge on first use.
#[derive(Debug, Clone)]
pub struct SharedForge {
    inner: Arc<SharedForgeInner>,
}

#[derive(Debug)]
struct SharedForgeInner {
    firmware: Arc<Firmware>,
    protections: Protections,
    base_seed: u64,
    // The live prototype machine carries `Cell`-based access bookkeeping
    // and is not `Sync`; the mutex makes the *handle* shareable while
    // spawns take one short lock to copy it out.
    proto: std::sync::Mutex<Daemon>,
    snap: DaemonSnapshot,
}

impl SharedForge {
    /// Boots `firmware` once under `protections`/`seed` and snapshots
    /// the just-booted daemon for sharing.
    pub fn new(firmware: &Firmware, protections: Protections, seed: u64) -> SharedForge {
        let mut proto = firmware.boot(protections, seed);
        let snap = proto.snapshot();
        SharedForge {
            inner: Arc::new(SharedForgeInner {
                firmware: Arc::new(firmware.clone()),
                protections,
                base_seed: seed,
                proto: std::sync::Mutex::new(proto),
                snap,
            }),
        }
    }

    /// The protection policy every fork boots under.
    pub fn protections(&self) -> Protections {
        self.inner.protections
    }

    /// The seed of the shared boot.
    pub fn base_seed(&self) -> u64 {
        self.inner.base_seed
    }

    /// Materializes a worker-private [`BootForge`] backed by the shared
    /// snapshot.
    ///
    /// Costs one daemon copy (the worker's live, mutable machine); the
    /// snapshot and firmware image ride along by refcount. Forks taken
    /// from the result behave exactly like forks of a locally forged
    /// boot with the same seed — `tests` pin that equivalence.
    pub fn spawn(&self) -> BootForge {
        BootForge {
            firmware: Arc::clone(&self.inner.firmware),
            protections: self.inner.protections,
            base_seed: self.inner.base_seed,
            daemon: self.inner.proto.lock().expect("proto lock").clone(),
            snap: self.inner.snap.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_connman::{ProxyOutcome, Resolution};
    use cml_dns::forge::ResponseForge;
    use cml_dns::{Message, Name, RecordType};
    use cml_image::SectionKind;

    #[test]
    fn profiles_match_paper_survey() {
        assert_eq!(FirmwareKind::Yocto.connman_version(), ConnmanVersion::V1_31);
        assert_eq!(
            FirmwareKind::OpenElec.connman_version(),
            ConnmanVersion::V1_34
        );
        assert!(FirmwareKind::Tizen.is_vulnerable());
        assert!(!FirmwareKind::Patched.is_vulnerable());
    }

    #[test]
    fn boots_and_crashes_end_to_end() {
        for arch in Arch::ALL {
            let fw = Firmware::build(FirmwareKind::OpenElec, arch);
            let mut daemon = fw.boot(Protections::none(), 7);
            let name = Name::parse("update.example").unwrap();
            let Resolution::Query(qbytes) = daemon.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            let query = Message::decode(&qbytes).unwrap();
            let attack = ResponseForge::answering(&query)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap()
                .build()
                .unwrap();
            let out = daemon.deliver_response(&attack);
            assert!(!out.daemon_alive(), "{arch}: {out}");
        }
    }

    #[test]
    fn patched_firmware_survives_same_attack() {
        for arch in Arch::ALL {
            let fw = Firmware::build(FirmwareKind::Patched, arch);
            let mut daemon = fw.boot(Protections::none(), 7);
            let name = Name::parse("update.example").unwrap();
            let Resolution::Query(qbytes) = daemon.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            let query = Message::decode(&qbytes).unwrap();
            let attack = ResponseForge::answering(&query)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap()
                .build()
                .unwrap();
            let out = daemon.deliver_response(&attack);
            assert!(
                matches!(out, ProxyOutcome::ParseFailed { .. }),
                "{arch}: {out}"
            );
            assert!(daemon.is_running());
        }
    }

    fn attack_outcome(daemon: &mut Daemon) -> String {
        let name = Name::parse("update.example").unwrap();
        let Resolution::Query(qbytes) = daemon.resolve(&name, RecordType::A) else {
            panic!("cold cache");
        };
        let query = Message::decode(&qbytes).unwrap();
        let attack = ResponseForge::answering(&query)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        format!("{:?}", daemon.deliver_response(&attack))
    }

    #[test]
    fn forked_boot_matches_fresh_boot() {
        for arch in Arch::ALL {
            let fw = Firmware::build(FirmwareKind::OpenElec, arch);
            let p = Protections::full().with_canary();
            let mut forge = fw.forge(p, 100);
            // Base seed (pure restore) and two reslid seeds.
            for seed in [100u64, 101, 202] {
                let mut fresh = fw.boot(p, seed);
                let forked = forge.fork(seed);
                assert_eq!(
                    forked.map().canary(),
                    fresh.map().canary(),
                    "{arch} seed {seed}"
                );
                let out_fork = attack_outcome(forked);
                let out_fresh = attack_outcome(&mut fresh);
                assert_eq!(out_fork, out_fresh, "{arch} seed {seed}");
            }
        }
    }

    #[test]
    fn every_fork_matches_a_fresh_boot_in_depth() {
        // Every {none, W⊕X, W⊕X+ASLR} × ISA cell, with and without a
        // canary, over 32 seeds (the base seed among them). An overflow
        // is delivered after each fork, so every restore rewinds dirty
        // pages and a crashed daemon, and the next fork must leave no
        // hook at the previous layout's addresses.
        for arch in Arch::ALL {
            let fw = Firmware::build(FirmwareKind::OpenElec, arch);
            for base in [
                Protections::none(),
                Protections::wxorx(),
                Protections::full(),
            ] {
                for p in [base, base.with_canary()] {
                    let mut forge = fw.forge(p, 40);
                    let mut previous: Vec<Addr> = Vec::new();
                    for seed in 32..64u64 {
                        let cell = format!("{arch} {} seed {seed}", p.label());
                        let mut fresh = fw.boot(p, seed);
                        let forked = forge.fork(seed);
                        let (fm, m) = (fresh.map(), forked.map());
                        for kind in SectionKind::ALL {
                            assert_eq!(m.slide(kind), fm.slide(kind), "{cell} {kind}");
                        }
                        assert_eq!(m.stack_top(), fm.stack_top(), "{cell}");
                        assert_eq!(m.canary(), fm.canary(), "{cell}");
                        assert_eq!(forked.machine().canary(), fm.canary(), "{cell}");
                        let (regs, fresh_regs) = (forked.machine().regs(), fresh.machine().regs());
                        assert_eq!(regs.sp(), fresh_regs.sp(), "{cell}");
                        assert_eq!(regs.pc(), fresh_regs.pc(), "{cell}");
                        assert_eq!(m.symbols().count(), fm.symbols().count(), "{cell}");
                        for (name, addr) in fm.symbols() {
                            assert_eq!(m.symbol(name), Some(addr), "{cell} {name}");
                            assert_eq!(
                                forked.machine().hook_at(addr),
                                fresh.machine().hook_at(addr),
                                "{cell} hook at {name}"
                            );
                        }
                        for &old in &previous {
                            assert_eq!(
                                forked.machine().hook_at(old),
                                fresh.machine().hook_at(old),
                                "{cell}: hook left at old-layout address {old:#x}"
                            );
                        }
                        previous = fm.symbols().map(|(_, addr)| addr).collect();
                        let out_fork = attack_outcome(forked);
                        assert_eq!(out_fork, attack_outcome(&mut fresh), "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn fork_skips_daemon_init_instructions() {
        let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
        let mut forge = fw.forge(Protections::none(), 9);
        let booted = forge.fork(9).machine().insn_count();
        let _ = forge.fork(9);
        let after_second_fork = forge.fork(9).machine().insn_count();
        // Forking executes zero instructions; only the single boot paid
        // for daemon_init.
        assert_eq!(booted, after_second_fork);
        assert!(booted > 1000, "daemon_init ran at boot: {booted}");
    }

    #[test]
    fn shared_forge_spawns_match_local_forges() {
        // A forge spawned from the shared snapshot must fork the exact
        // machine a locally forged boot would — including across worker
        // handles whose dirty sets diverge between forks.
        for arch in Arch::ALL {
            let fw = Firmware::build(FirmwareKind::OpenElec, arch);
            let shared = SharedForge::new(&fw, Protections::full(), 0xA11CE);
            let mut local = fw.forge(Protections::full(), 0xA11CE);
            let mut a = shared.spawn();
            let mut b = shared.spawn();
            for seed in [0xA11CE, 0xD0_0D, 0xFEED] {
                let want = local.fork(seed).machine().regs().pc();
                assert_eq!(a.fork(seed).machine().regs().pc(), want, "{arch} {seed}");
                assert_eq!(b.fork(seed).machine().regs().pc(), want, "{arch} {seed}");
            }
        }
    }

    #[test]
    fn benign_traffic_works_on_all_profiles() {
        for kind in FirmwareKind::ALL {
            let fw = Firmware::build(kind, Arch::Armv7);
            let mut daemon = fw.boot(Protections::full(), 3);
            let name = Name::parse("time.example").unwrap();
            let Resolution::Query(qbytes) = daemon.resolve(&name, RecordType::A) else {
                panic!("cold cache");
            };
            let query = Message::decode(&qbytes).unwrap();
            let ok = ResponseForge::answering(&query)
                .with_payload_labels(vec![b"time".to_vec(), b"example".to_vec()])
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(
                daemon.deliver_response(&ok),
                ProxyOutcome::Answered { cached: 1 }
            );
        }
    }
}
