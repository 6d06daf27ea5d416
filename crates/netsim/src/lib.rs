//! Simulated wireless network for the remote (Wi-Fi Pineapple)
//! experiments.
//!
//! Models exactly what the paper's §III-D setup needs:
//!
//! * a [`RadioEnvironment`] of [`AccessPoint`]s with SSIDs and signal
//!   strengths; stations associate to the **strongest** AP broadcasting
//!   their preferred SSID — which is the Pineapple's entire trick
//!   ("the Wi-Fi Pineapple is able to broadcast a stronger signal than
//!   the legitimate access point, causing our targeted machine to switch
//!   its connection");
//! * per-AP DHCP that hands out an address, gateway and — the attack
//!   vector — a **DNS server** address;
//! * datagram delivery to registered [`UdpService`]s (the benign
//!   resolver, the malicious DNS server);
//! * [`WifiPineapple`]: a rogue AP cloning a trusted SSID at higher
//!   signal, whose DHCP points clients at the attacker's resolver.
//!
//! Everything is synchronous and deterministic: a "datagram" is a
//! request/response call, which is all DNS-over-UDP needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod ap;
mod env;
mod pineapple;
pub mod resolver;
pub mod scheduler;
mod station;

pub use addr::{HwAddr, Ssid};
pub use ap::{AccessPoint, ApConfig, DhcpConfig, Lease};
pub use env::{share, ApId, NetEvent, RadioEnvironment, ScanResult, SharedService, UdpService};
pub use pineapple::WifiPineapple;
pub use resolver::{
    example_internet, CacheStats, Internet, RecursiveResolver, ResolverCache, ResolverStats,
    TICKS_PER_SEC,
};
pub use scheduler::{link_latency_us, SimTime, JITTER_SPAN_US, MIN_LATENCY_US};
pub use station::{Association, Station};
