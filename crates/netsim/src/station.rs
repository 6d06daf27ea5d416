//! A wireless client (the IoT device's network interface).

use std::net::Ipv4Addr;

use crate::addr::{HwAddr, Ssid};
use crate::ap::Lease;
use crate::env::{ApId, RadioEnvironment};

/// A live association.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Association {
    /// Which AP the station is on.
    pub ap: ApId,
    /// The DHCP lease it holds.
    pub lease: Lease,
}

/// A station configured like the paper's Raspberry Pi: "utilize DHCP
/// and automatic DNS server via DHCP", preferring one SSID.
#[derive(Debug, Clone)]
pub struct Station {
    mac: HwAddr,
    preferred_ssid: Ssid,
    association: Option<Association>,
}

impl Station {
    /// Creates a station that trusts `ssid`.
    pub fn new(mac: HwAddr, ssid: Ssid) -> Self {
        Station {
            mac,
            preferred_ssid: ssid,
            association: None,
        }
    }

    /// Hardware address.
    pub fn mac(&self) -> HwAddr {
        self.mac
    }

    /// Current association, if any.
    pub fn association(&self) -> Option<Association> {
        self.association
    }

    /// Scans and (re)associates with the strongest AP broadcasting the
    /// preferred SSID. Returns `true` when the association changed —
    /// including the silent hop onto a rogue AP.
    pub fn rescan(&mut self, env: &mut RadioEnvironment) -> bool {
        let new = env
            .associate(self.mac, &self.preferred_ssid)
            .map(|(ap, lease)| Association { ap, lease });
        let changed = match (&self.association, &new) {
            (Some(a), Some(b)) => a != b,
            (None, None) => false,
            _ => true,
        };
        self.association = new;
        changed
    }

    /// The DNS server DHCP gave us (what the proxy will query).
    pub fn dns_server(&self) -> Option<Ipv4Addr> {
        self.association.map(|a| a.lease.dns)
    }

    /// Sends a DNS query to the DHCP-assigned resolver and returns the
    /// response, if connected and answered.
    pub fn query_dns(&self, env: &mut RadioEnvironment, query: &[u8]) -> Option<Vec<u8>> {
        let dns = self.dns_server()?;
        env.send(dns, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::{AccessPoint, ApConfig, DhcpConfig};
    use crate::env::share;

    fn env_with_home(dbm: i32) -> (RadioEnvironment, ApId) {
        let mut env = RadioEnvironment::new();
        let id = env.add_ap(AccessPoint::new(ApConfig {
            ssid: "Home".into(),
            bssid: HwAddr::local(1),
            signal_dbm: dbm,
            dhcp: DhcpConfig::new([192, 168, 0], Ipv4Addr::new(192, 168, 0, 53)),
        }));
        (env, id)
    }

    #[test]
    fn connects_and_learns_dns() {
        let (mut env, _) = env_with_home(-50);
        let mut sta = Station::new(HwAddr::local(77), "Home".into());
        assert!(sta.rescan(&mut env));
        assert_eq!(sta.dns_server(), Some(Ipv4Addr::new(192, 168, 0, 53)));
        assert!(!sta.rescan(&mut env), "stable association is not a change");
    }

    #[test]
    fn hops_to_stronger_clone() {
        let (mut env, _) = env_with_home(-60);
        let mut sta = Station::new(HwAddr::local(77), "Home".into());
        sta.rescan(&mut env);
        // A stronger AP with the same SSID appears.
        env.add_ap(AccessPoint::new(ApConfig {
            ssid: "Home".into(),
            bssid: HwAddr::local(66),
            signal_dbm: -30,
            dhcp: DhcpConfig::new([172, 16, 0], Ipv4Addr::new(172, 16, 0, 66)),
        }));
        assert!(sta.rescan(&mut env), "station hops");
        assert_eq!(sta.dns_server(), Some(Ipv4Addr::new(172, 16, 0, 66)));
    }

    #[test]
    fn queries_flow_to_dhcp_dns() {
        let (mut env, _) = env_with_home(-50);
        env.register_service(
            Ipv4Addr::new(192, 168, 0, 53),
            share(|p: &[u8]| Some([p, b"!"].concat())),
        );
        let mut sta = Station::new(HwAddr::local(5), "Home".into());
        sta.rescan(&mut env);
        assert_eq!(sta.query_dns(&mut env, b"q"), Some(b"q!".to_vec()));
    }

    #[test]
    fn disconnected_station_cannot_query() {
        let mut env = RadioEnvironment::new();
        let sta = Station::new(HwAddr::local(5), "Home".into());
        assert!(sta.query_dns(&mut env, b"q").is_none());
    }
}
