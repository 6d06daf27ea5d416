//! Orchestration and experiment harness for `connman-lab`.
//!
//! The crate ties the substrates together into the workflows of the
//! reproduced paper:
//!
//! * [`Lab`] — the controlled-environment workflow of §III: build a
//!   firmware, reconnoitre a local replica, construct an exploit, attack
//!   a freshly booted victim, and report what happened;
//! * [`IotDevice`] — a firmware daemon attached to a simulated wireless
//!   [`cml_netsim::Station`], for the §III-D remote scenario;
//! * [`experiments`] — the E1–E8 experiment suite that regenerates every
//!   result the paper reports (and the extensions DESIGN.md commits to),
//!   as renderable [`report::Table`]s.
//!
//! # Quickstart
//!
//! ```
//! use cml_core::{AttackOutcome, Lab};
//! use cml_exploit::RopMemcpyChain;
//! use cml_firmware::{Arch, FirmwareKind, Protections};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // OpenELEC on ARMv7 with full W⊕X + ASLR, like the paper's Pi.
//! let lab = Lab::new(FirmwareKind::OpenElec, Arch::Armv7)
//!     .with_protections(Protections::full());
//! let report = lab.run_exploit(&RopMemcpyChain::new(Arch::Armv7))?;
//! assert_eq!(report.outcome, AttackOutcome::RootShell);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod experiments;
pub mod fleet;
pub mod json;
mod lab;
pub mod report;
pub mod runner;

pub use device::{IotDevice, LookupOutcome};
pub use fleet::{
    CohortAccum, CohortReport, CohortSpec, FleetConfig, FleetReport, FleetSpec, PhaseTimings,
    Verdict,
};
pub use lab::{AttackOutcome, AttackReport, Lab, LabError};
pub use runner::{derive_seed, Runner};

pub use cml_connman::ProxyOutcome;
pub use cml_exploit::{ExploitStrategy, TargetInfo};
pub use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
