//! A networked IoT device: firmware daemon + wireless station.

use std::fmt;
use std::net::IpAddr;

use cml_connman::{Daemon, ProxyOutcome, Resolution};
use cml_dns::{Name, RecordType};
use cml_firmware::{Firmware, Protections};
use cml_netsim::{HwAddr, RadioEnvironment, Ssid, Station};

/// What one name lookup on the device produced.
// `ProxyOutcome` holds its spawn inline, so no lookup outcome allocates.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum LookupOutcome {
    /// Served from the proxy's cache.
    Cached(Vec<IpAddr>),
    /// Resolved over the network; carries the proxy's verdict on the
    /// response it received (which is where exploitation happens).
    Network(ProxyOutcome),
    /// No association / no DNS server.
    NoNetwork,
    /// The DNS server did not answer.
    NoResponse,
    /// The daemon was already dead.
    DaemonDown,
}

impl LookupOutcome {
    /// Whether this lookup compromised the device.
    pub fn compromised(&self) -> bool {
        matches!(self, LookupOutcome::Network(o) if o.is_root_shell())
    }
}

impl fmt::Display for LookupOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LookupOutcome::Cached(addrs) => write!(f, "cached {addrs:?}"),
            LookupOutcome::Network(o) => write!(f, "network: {o}"),
            LookupOutcome::NoNetwork => write!(f, "no network"),
            LookupOutcome::NoResponse => write!(f, "no response"),
            LookupOutcome::DaemonDown => write!(f, "daemon down"),
        }
    }
}

/// The victim device of §III-D: a Raspberry-Pi-like board whose only
/// network configuration is "DHCP with automatic DNS" and a preferred
/// SSID.
#[derive(Debug)]
pub struct IotDevice {
    daemon: Daemon,
    station: Station,
}

impl IotDevice {
    /// Boots the firmware and configures the wireless interface.
    pub fn boot(
        firmware: &Firmware,
        protections: Protections,
        seed: u64,
        mac: HwAddr,
        ssid: Ssid,
    ) -> Self {
        IotDevice {
            daemon: firmware.boot(protections, seed),
            station: Station::new(mac, ssid),
        }
    }

    /// The embedded Connman daemon.
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// The wireless interface.
    pub fn station(&self) -> &Station {
        &self.station
    }

    /// Scans and (re)associates; returns `true` when the association
    /// changed (e.g. lured onto a rogue AP).
    pub fn reconnect(&mut self, env: &mut RadioEnvironment) -> bool {
        self.station.rescan(env)
    }

    /// Whether the daemon still serves.
    pub fn is_alive(&self) -> bool {
        self.daemon.is_running()
    }

    /// Resolves `name` the way the device's applications do: cache
    /// first, then a proxied query to the DHCP-assigned DNS server.
    pub fn lookup(
        &mut self,
        env: &mut RadioEnvironment,
        name: &Name,
        rtype: RecordType,
    ) -> LookupOutcome {
        if !self.daemon.is_running() {
            return LookupOutcome::DaemonDown;
        }
        if self.station.association().is_none() {
            return LookupOutcome::NoNetwork;
        }
        match self.daemon.resolve(name, rtype) {
            Resolution::Cached(addrs) => LookupOutcome::Cached(addrs.to_vec()),
            Resolution::Query(query_bytes) => match self.station.query_dns(env, &query_bytes) {
                Some(response) => LookupOutcome::Network(self.daemon.deliver_response(&response)),
                None => LookupOutcome::NoResponse,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_firmware::{Arch, FirmwareKind};
    use cml_netsim::{share, AccessPoint, ApConfig, DhcpConfig};
    use std::net::Ipv4Addr;

    fn home_env() -> RadioEnvironment {
        let mut env = RadioEnvironment::new();
        env.add_ap(AccessPoint::new(ApConfig {
            ssid: "HomeNet".into(),
            bssid: HwAddr::local(1),
            signal_dbm: -55,
            dhcp: DhcpConfig::new([192, 168, 1], Ipv4Addr::new(192, 168, 1, 53)),
        }));
        let mut benign = cml_exploit::MaliciousDnsServer::benign(Ipv4Addr::new(93, 184, 216, 34));
        env.register_service(
            Ipv4Addr::new(192, 168, 1, 53),
            share(move |p: &[u8]| benign.handle(p)),
        );
        env
    }

    #[test]
    fn device_resolves_over_benign_network() {
        let fw = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
        let mut env = home_env();
        let mut dev = IotDevice::boot(
            &fw,
            Protections::full(),
            77,
            HwAddr::local(9),
            "HomeNet".into(),
        );
        assert!(dev.reconnect(&mut env));
        let name = Name::parse("cloud.vendor.example").unwrap();
        let out = dev.lookup(&mut env, &name, RecordType::A);
        assert!(
            matches!(&out, LookupOutcome::Network(ProxyOutcome::Answered { .. })),
            "{out}"
        );
        // Second lookup: cache hit, no network traffic.
        let out = dev.lookup(&mut env, &name, RecordType::A);
        assert!(matches!(out, LookupOutcome::Cached(_)), "{out}");
    }

    #[test]
    fn disconnected_device_reports_no_network() {
        let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
        let mut env = RadioEnvironment::new();
        let mut dev = IotDevice::boot(
            &fw,
            Protections::none(),
            1,
            HwAddr::local(2),
            "Nowhere".into(),
        );
        dev.reconnect(&mut env);
        let name = Name::parse("a.b").unwrap();
        assert_eq!(
            dev.lookup(&mut env, &name, RecordType::A),
            LookupOutcome::NoNetwork
        );
    }
}
