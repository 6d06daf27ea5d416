//! Access points and their DHCP service.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::addr::{HwAddr, Ssid};

/// DHCP parameters an AP hands to clients. `dns` is the knob the whole
/// §III-D attack turns: the Pineapple's DHCP points it at the malicious
/// resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhcpConfig {
    /// First three octets define the /24; hosts are allocated from .10.
    pub subnet: [u8; 3],
    /// Default gateway (usually the AP itself).
    pub gateway: Ipv4Addr,
    /// DNS server to advertise.
    pub dns: Ipv4Addr,
}

impl DhcpConfig {
    /// Conventional config: gateway at `.1`, DNS as given.
    pub fn new(subnet: [u8; 3], dns: Ipv4Addr) -> Self {
        DhcpConfig {
            subnet,
            gateway: Ipv4Addr::new(subnet[0], subnet[1], subnet[2], 1),
            dns,
        }
    }
}

/// A granted DHCP lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Client address.
    pub ip: Ipv4Addr,
    /// Default gateway.
    pub gateway: Ipv4Addr,
    /// Advertised DNS server — what the victim's proxy will trust.
    pub dns: Ipv4Addr,
}

/// Static configuration of an access point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApConfig {
    /// Broadcast network name.
    pub ssid: Ssid,
    /// The AP's own hardware address.
    pub bssid: HwAddr,
    /// Received signal strength clients observe, in dBm (closer to 0 is
    /// stronger).
    pub signal_dbm: i32,
    /// DHCP parameters for associated clients.
    pub dhcp: DhcpConfig,
}

/// A running access point: configuration plus its DHCP lease table.
#[derive(Debug, Clone)]
pub struct AccessPoint {
    config: ApConfig,
    leases: HashMap<HwAddr, Lease>,
    next_host: u8,
}

impl AccessPoint {
    /// Brings up an AP.
    pub fn new(config: ApConfig) -> Self {
        AccessPoint {
            config,
            leases: HashMap::new(),
            next_host: 10,
        }
    }

    /// The AP's configuration.
    pub fn config(&self) -> &ApConfig {
        &self.config
    }

    /// Broadcast SSID.
    pub fn ssid(&self) -> &Ssid {
        &self.config.ssid
    }

    /// Signal strength in dBm.
    pub fn signal_dbm(&self) -> i32 {
        self.config.signal_dbm
    }

    /// Grants (or renews) a DHCP lease for a client.
    pub fn lease(&mut self, mac: HwAddr) -> Lease {
        if let Some(existing) = self.leases.get(&mac) {
            return *existing;
        }
        let [a, b, c] = self.config.dhcp.subnet;
        let lease = Lease {
            ip: Ipv4Addr::new(a, b, c, self.next_host),
            gateway: self.config.dhcp.gateway,
            dns: self.config.dhcp.dns,
        };
        self.next_host = self.next_host.wrapping_add(1).max(10);
        self.leases.insert(mac, lease);
        lease
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> AccessPoint {
        AccessPoint::new(ApConfig {
            ssid: "Lab".into(),
            bssid: HwAddr::local(1),
            signal_dbm: -55,
            dhcp: DhcpConfig::new(
                [192, 168, 1, 0][..3].try_into().unwrap(),
                Ipv4Addr::new(192, 168, 1, 53),
            ),
        })
    }

    #[test]
    fn leases_are_stable_per_client() {
        let mut ap = ap();
        let l1 = ap.lease(HwAddr::local(7));
        let l2 = ap.lease(HwAddr::local(7));
        assert_eq!(l1, l2);
        assert_eq!(l1.ip, Ipv4Addr::new(192, 168, 1, 10));
        assert_eq!(l1.dns, Ipv4Addr::new(192, 168, 1, 53));
        assert_eq!(l1.gateway, Ipv4Addr::new(192, 168, 1, 1));
    }

    #[test]
    fn distinct_clients_distinct_ips() {
        let mut ap = ap();
        let a = ap.lease(HwAddr::local(1)).ip;
        let b = ap.lease(HwAddr::local(2)).ip;
        assert_ne!(a, b);
        assert_eq!(ap.leases.len(), 2);
    }
}
