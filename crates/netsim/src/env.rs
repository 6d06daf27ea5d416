//! The radio environment: APs, scanning, association, and datagram
//! routing to services.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::addr::{HwAddr, Ssid};
use crate::ap::{AccessPoint, Lease};

/// Handle to a deployed access point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApId(usize);

/// One beacon a scan observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// The AP handle.
    pub ap: ApId,
    /// Broadcast SSID.
    pub ssid: Ssid,
    /// The AP's hardware address.
    pub bssid: HwAddr,
    /// Observed signal strength in dBm.
    pub signal_dbm: i32,
}

/// A request/response UDP endpoint (a DNS server, in this lab).
pub trait UdpService: Send {
    /// Handles one datagram; `Some(bytes)` is sent back to the caller.
    fn handle_datagram(&mut self, payload: &[u8]) -> Option<Vec<u8>>;
}

impl<F> UdpService for F
where
    F: FnMut(&[u8]) -> Option<Vec<u8>> + Send,
{
    fn handle_datagram(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        self(payload)
    }
}

/// A shareable service endpoint.
pub type SharedService = Arc<Mutex<dyn UdpService>>;

/// Observable things that happened on the network (for experiment
/// transcripts).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetEvent {
    /// An AP started broadcasting.
    ApUp {
        /// Its handle.
        ap: ApId,
        /// Its SSID.
        ssid: Ssid,
        /// Its signal.
        signal_dbm: i32,
    },
    /// An AP went away.
    ApDown {
        /// Its handle.
        ap: ApId,
    },
    /// A station associated and got a lease.
    Associated {
        /// Client hardware address.
        mac: HwAddr,
        /// The chosen AP.
        ap: ApId,
        /// The granted lease.
        lease: Lease,
    },
    /// A datagram was delivered to a service.
    Delivered {
        /// Destination service address.
        dst: Ipv4Addr,
        /// Payload size.
        len: usize,
        /// Whether a response came back.
        answered: bool,
    },
    /// A datagram had no service to go to.
    Unroutable {
        /// Destination address.
        dst: Ipv4Addr,
    },
}

/// The simulated airspace plus the IP services reachable through it.
#[derive(Default)]
pub struct RadioEnvironment {
    aps: Vec<Option<AccessPoint>>,
    services: HashMap<Ipv4Addr, SharedService>,
    events: Vec<NetEvent>,
}

impl std::fmt::Debug for RadioEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadioEnvironment")
            .field("aps", &self.aps.iter().filter(|a| a.is_some()).count())
            .field("services", &self.services.keys().collect::<Vec<_>>())
            .field("events", &self.events.len())
            .finish()
    }
}

impl RadioEnvironment {
    /// An empty environment.
    pub fn new() -> Self {
        RadioEnvironment::default()
    }

    /// Deploys an access point.
    pub fn add_ap(&mut self, ap: AccessPoint) -> ApId {
        let id = ApId(self.aps.len());
        self.events.push(NetEvent::ApUp {
            ap: id,
            ssid: ap.ssid().clone(),
            signal_dbm: ap.signal_dbm(),
        });
        self.aps.push(Some(ap));
        id
    }

    /// Tears an access point down.
    pub fn remove_ap(&mut self, id: ApId) {
        if let Some(slot) = self.aps.get_mut(id.0) {
            if slot.take().is_some() {
                self.events.push(NetEvent::ApDown { ap: id });
            }
        }
    }

    /// Registers a UDP service at an address.
    pub fn register_service(&mut self, addr: Ipv4Addr, service: SharedService) {
        self.services.insert(addr, service);
    }

    /// Removes the service at an address.
    pub fn unregister_service(&mut self, addr: Ipv4Addr) {
        self.services.remove(&addr);
    }

    /// Scans the airspace: every live AP's beacon.
    pub fn scan(&self) -> Vec<ScanResult> {
        self.aps
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|ap| ScanResult {
                    ap: ApId(i),
                    ssid: ap.ssid().clone(),
                    bssid: ap.config().bssid,
                    signal_dbm: ap.signal_dbm(),
                })
            })
            .collect()
    }

    /// Associates `mac` with the **strongest** AP broadcasting `ssid`
    /// and runs DHCP — the 802.11 roaming behaviour the Pineapple preys
    /// on.
    ///
    /// Walks the beacon table directly rather than materializing a
    /// [`scan`](Self::scan) result vector; ties break toward the
    /// most-recently deployed AP, matching `Iterator::max_by_key` over
    /// the scan order.
    pub fn associate(&mut self, mac: HwAddr, ssid: &Ssid) -> Option<(ApId, Lease)> {
        let mut best: Option<(usize, i32)> = None;
        for (i, slot) in self.aps.iter().enumerate() {
            if let Some(ap) = slot {
                if ap.ssid() == ssid && best.is_none_or(|(_, dbm)| ap.signal_dbm() >= dbm) {
                    best = Some((i, ap.signal_dbm()));
                }
            }
        }
        let (idx, _) = best?;
        let ap = self.aps[idx].as_mut()?;
        let lease = ap.lease(mac);
        self.events.push(NetEvent::Associated {
            mac,
            ap: ApId(idx),
            lease,
        });
        Some((ApId(idx), lease))
    }

    /// Sends a datagram to the service at `dst`, returning its response.
    pub fn send(&mut self, dst: Ipv4Addr, payload: &[u8]) -> Option<Vec<u8>> {
        let Some(service) = self.services.get(&dst).cloned() else {
            self.events.push(NetEvent::Unroutable { dst });
            return None;
        };
        let response = service.lock().handle_datagram(payload);
        self.events.push(NetEvent::Delivered {
            dst,
            len: payload.len(),
            answered: response.is_some(),
        });
        response
    }

    /// The event transcript so far.
    pub fn events(&self) -> &[NetEvent] {
        &self.events
    }
}

/// Wraps a service value into the shared handle form.
pub fn share<S: UdpService + 'static>(service: S) -> SharedService {
    Arc::new(Mutex::new(service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ap::{ApConfig, DhcpConfig};

    fn ap(ssid: &str, id: u16, dbm: i32, dns_last: u8) -> AccessPoint {
        AccessPoint::new(ApConfig {
            ssid: ssid.into(),
            bssid: HwAddr::local(id),
            signal_dbm: dbm,
            dhcp: DhcpConfig::new([10, 0, id as u8], Ipv4Addr::new(10, 0, 0, dns_last)),
        })
    }

    #[test]
    fn association_picks_strongest_matching_ssid() {
        let mut env = RadioEnvironment::new();
        env.add_ap(ap("Home", 1, -70, 1));
        let strong = env.add_ap(ap("Home", 2, -40, 2));
        env.add_ap(ap("Other", 3, -10, 3));
        let (chosen, lease) = env.associate(HwAddr::local(9), &"Home".into()).unwrap();
        assert_eq!(chosen, strong);
        assert_eq!(lease.dns, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn association_fails_without_matching_ssid() {
        let mut env = RadioEnvironment::new();
        env.add_ap(ap("Home", 1, -70, 1));
        assert!(env.associate(HwAddr::local(9), &"Work".into()).is_none());
    }

    #[test]
    fn removed_ap_stops_beaconing() {
        let mut env = RadioEnvironment::new();
        let id = env.add_ap(ap("Home", 1, -40, 1));
        env.add_ap(ap("Home", 2, -80, 2));
        env.remove_ap(id);
        let (chosen, _) = env.associate(HwAddr::local(9), &"Home".into()).unwrap();
        assert_ne!(chosen, id, "fallback to the weaker survivor");
        assert_eq!(env.scan().len(), 1);
    }

    #[test]
    fn datagram_routing() {
        let mut env = RadioEnvironment::new();
        let echo = share(|payload: &[u8]| Some(payload.to_vec()));
        env.register_service(Ipv4Addr::new(10, 0, 0, 53), echo);
        assert_eq!(
            env.send(Ipv4Addr::new(10, 0, 0, 53), b"ping"),
            Some(b"ping".to_vec())
        );
        assert_eq!(env.send(Ipv4Addr::new(10, 9, 9, 9), b"ping"), None);
        assert!(matches!(
            env.events().last(),
            Some(NetEvent::Unroutable { .. })
        ));
    }
}
