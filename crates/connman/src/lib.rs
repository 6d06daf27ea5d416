//! Simulated Connman DNS proxy — the target of every experiment.
//!
//! This crate ports the `dnsproxy.c` logic at the heart of
//! CVE-2017-12865 into the lab. The port is *behaviourally* faithful
//! where it matters:
//!
//! * the proxy accepts a response only after the same header checks the
//!   real daemon performs ([`cml_dns::validate::gate_response`]);
//! * name decompression ([`uncompress`]) re-implements the vulnerable
//!   `get_name` loop — length byte plus label bytes appended to a
//!   1024-byte `name` buffer with **no bounds check** in versions ≤ 1.34,
//!   and with the August-2017 bounds check in 1.35;
//! * the `name` buffer, locals, saved registers and return address live
//!   in a [`Frame`] on the *simulated machine's stack*, so an oversized
//!   response genuinely overwrites a saved return address in memory;
//! * after parsing, the daemon executes the function epilogue: saved
//!   registers are restored from (possibly clobbered) stack slots and
//!   control transfers to the saved return address. If that address was
//!   overwritten, the machine interprets whatever the attacker supplied —
//!   shellcode, a ret2libc frame, or a ROP chain.
//!
//! The crate also provides the proxy's record [`Cache`] (type A/AAAA
//! only, as in Connman) and the [`Daemon`] state machine gluing it all
//! together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cov;
mod daemon;
mod frame;
mod outcome;
pub mod uncompress;
mod version;

pub use cache::{Cache, CacheEntry};
pub use daemon::{Daemon, DaemonError, DaemonSnapshot, DaemonState, PendingQuery, Resolution};
pub use frame::{layout_for, Frame, FrameLayout};
pub use outcome::{ParseFailure, ProxyOutcome};
pub use version::ConnmanVersion;

/// Size of the `name` buffer in `parse_response` — the constant whose
/// unchecked use is the vulnerability (`dnsproxy.c`: `char name[NAME_SIZE]`
/// with `NAME_SIZE 1024`).
pub const NAME_BUFFER_SIZE: usize = 1024;

/// Symbol name the daemon's image must define for the vulnerable
/// function (used for fault attribution).
pub const SYM_PARSE_RESPONSE: &str = "parse_response";

/// Symbol name for the legitimate return site inside the daemon loop.
pub const SYM_DAEMON_LOOP: &str = "daemon_loop";

/// Symbol name for the one-time boot initialization routine. Optional:
/// when an image defines it, `Firmware::boot_service` executes it once
/// before the daemon starts serving — which is exactly the work the
/// snapshot/fork boot path amortizes away.
pub const SYM_DAEMON_INIT: &str = "daemon_init";

/// Symbol name for the dnsproxy reply entry point — the function that
/// first touches attacker bytes (`dnsproxy.c: forward_dns_reply`). The
/// static analyzer seeds taint here and propagates it down the call
/// chain to [`SYM_PARSE_RESPONSE`].
pub const SYM_FORWARD_DNS_REPLY: &str = "forward_dns_reply";

/// Symbol name for the name-decompression helper sitting between
/// [`SYM_FORWARD_DNS_REPLY`] and [`SYM_PARSE_RESPONSE`] on the real
/// CVE-2017-12865 call path (`dnsproxy.c: uncompress`).
pub const SYM_UNCOMPRESS: &str = "uncompress";
