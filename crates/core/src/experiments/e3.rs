//! E3 — the remote man-in-the-middle attack (§III-D, Fig. 1).
//!
//! Topology per the paper's Figure 1: a legitimate access point with a
//! benign upstream resolver; a victim device configured only with
//! "DHCP + automatic DNS"; a Wi-Fi Pineapple impersonating the trusted
//! SSID at higher signal whose DHCP hands out the attacker's DNS
//! server. On x86 the paper demonstrates the basic stack smash as a
//! feasibility proof; on ARMv7 it runs all three exploits.

use std::net::Ipv4Addr;

use cml_dns::{Name, RecordType};
use cml_exploit::{matrix, ExploitStrategy, MaliciousDnsServer};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
use cml_netsim::{
    share, AccessPoint, ApConfig, DhcpConfig, HwAddr, RadioEnvironment, Ssid, WifiPineapple,
};

use crate::device::{IotDevice, LookupOutcome};
use crate::lab::Lab;
use crate::report::Table;

/// One remote attack: set up Fig. 1, lure the device, intercept its DNS.
fn remote_attack(
    arch: Arch,
    protections: Protections,
    strategy: &dyn ExploitStrategy,
) -> Result<RemoteRun, String> {
    let fw = Firmware::build(FirmwareKind::OpenElec, arch);

    // Attacker-side preparation in the controlled lab, as in §III-A..C.
    let lab = Lab::with_firmware(fw.clone()).with_protections(protections);
    let target = lab.recon().map_err(|e| e.to_string())?;
    let payload = strategy.build(&target).map_err(|e| e.to_string())?;

    // Fig. 1: legitimate infrastructure.
    let mut env = RadioEnvironment::new();
    let upstream_dns = Ipv4Addr::new(192, 168, 1, 53);
    env.add_ap(AccessPoint::new(ApConfig {
        ssid: Ssid::new("LabNet"),
        bssid: HwAddr::local(0x0001),
        signal_dbm: -55,
        dhcp: DhcpConfig::new([192, 168, 1], upstream_dns),
    }));
    // The honest upstream: a zone server with the vendor's records.
    let mut zone = cml_dns::Zone::new();
    zone.a(
        "firmware-update.vendor.example",
        300,
        Ipv4Addr::new(93, 184, 216, 34),
    )
    .a(
        "telemetry.vendor.example",
        300,
        Ipv4Addr::new(93, 184, 216, 35),
    );
    let mut upstream = cml_dns::ZoneServer::new(zone);
    env.register_service(upstream_dns, share(move |p: &[u8]| upstream.handle(p)));

    // The victim: stock configuration, joins its trusted SSID.
    let mut device = IotDevice::boot(
        &fw,
        protections,
        0xBEEF,
        HwAddr::local(0x0071),
        Ssid::new("LabNet"),
    );
    device.reconnect(&mut env);
    let name = Name::parse("firmware-update.vendor.example").map_err(|e| e.to_string())?;
    let before = device.lookup(&mut env, &name, RecordType::A);
    let healthy_before = matches!(
        before,
        LookupOutcome::Network(cml_connman::ProxyOutcome::Answered { .. })
    );

    // The Pineapple goes up; the device hops on its next scan.
    let mut malicious = MaliciousDnsServer::new(&payload).map_err(|e| e.to_string())?;
    let service = share(move |p: &[u8]| malicious.handle(p));
    let pineapple = WifiPineapple::deploy(&mut env, &Ssid::new("LabNet"), service)
        .ok_or("target ssid not on air")?;
    let hopped = device.reconnect(&mut env);
    let on_rogue_dns = device.station().dns_server() == Some(pineapple.dns_addr());

    // The next ordinary lookup delivers the exploit.
    let name2 = Name::parse("telemetry.vendor.example").map_err(|e| e.to_string())?;
    let attack = device.lookup(&mut env, &name2, RecordType::A);
    Ok(RemoteRun {
        healthy_before,
        hopped,
        on_rogue_dns,
        outcome: attack,
    })
}

struct RemoteRun {
    healthy_before: bool,
    hopped: bool,
    on_rogue_dns: bool,
    outcome: LookupOutcome,
}

/// A cell of E3: the ISA, the victim's protections and the exploit.
pub type Cell = (Arch, Protections, Box<dyn ExploitStrategy>);

/// E3's remote runs, in table order. x86: the basic stack smash only,
/// "as a proof of feasibility". ARMv7: all three exploits, as in the
/// paper. RISC-V has none.
pub fn cells() -> Vec<Cell> {
    let remote = |(arch, protections, _): &Cell| {
        *arch == Arch::Armv7 || (*arch == Arch::X86 && *protections == Protections::none())
    };
    matrix().into_iter().filter(remote).collect()
}

/// Runs the experiment.
pub fn run() -> Table {
    table(cells())
}

/// Runs the remote attack of each of `cells` and tabulates the results.
pub fn table(cells: Vec<Cell>) -> Table {
    let mut t = Table::new(
        "E3",
        "remote exploitation through a Wi-Fi Pineapple rogue AP (Fig. 1)",
        &[
            "paper §",
            "arch",
            "protections",
            "lured",
            "rogue DNS",
            "attack outcome",
        ],
    );
    for (arch, protections, strategy) in cells {
        match remote_attack(arch, protections, strategy.as_ref()) {
            Ok(run) => {
                assert!(run.healthy_before, "device must work before the attack");
                t.row([
                    strategy.paper_section().to_string(),
                    arch.to_string(),
                    protections.label(),
                    if run.hopped { "yes" } else { "no" }.to_string(),
                    if run.on_rogue_dns { "yes" } else { "no" }.to_string(),
                    match &run.outcome {
                        LookupOutcome::Network(o) if o.is_root_shell() => "root shell".into(),
                        other => other.to_string(),
                    },
                ]);
            }
            Err(e) => {
                t.row([
                    strategy.paper_section().to_string(),
                    arch.to_string(),
                    protections.label(),
                    "-".into(),
                    "-".into(),
                    format!("error: {e}"),
                ]);
            }
        }
    }
    t.note(
        "All four remote runs reproduce §III-D: the stronger rogue SSID lures \
         the stock-configured device, DHCP re-points its resolver, and the very \
         next lookup delivers the exploit — x86 stack smash as feasibility \
         proof, then all three ARMv7 exploits with no configuration change on \
         the victim.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_remote_attacks_succeed() {
        let t = run();
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[3], "yes", "lured: {row:?}");
            assert_eq!(row[4], "yes", "rogue dns: {row:?}");
            assert_eq!(row[5], "root shell", "{row:?}");
        }
    }
}
