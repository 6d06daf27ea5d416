//! What happened when the proxy processed a response.

use std::fmt;

use cml_dns::validate::ResponseRejection;
use cml_vm::debug::FaultReport;
use cml_vm::ShellSpawn;

/// Outcome of delivering one upstream response to the proxy.
// The fault report and the spawn are held inline on purpose: boxing
// either would put an allocation back on every crash or hijack.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProxyOutcome {
    /// The header gate dropped the packet; the daemon keeps running.
    Rejected(ResponseRejection),
    /// The answer section failed to parse (including the 1.35 bounds
    /// check); the daemon keeps running.
    ParseFailed {
        /// Why the parse stopped.
        reason: ParseFailure,
    },
    /// Normal operation: the response was parsed and forwarded.
    Answered {
        /// How many answer records were cached.
        cached: usize,
    },
    /// The daemon crashed — the denial-of-service outcome.
    Crashed(FaultReport),
    /// Arbitrary code executed and spawned a shell — the RCE outcome.
    Compromised(ShellSpawn),
    /// Hijacked execution ended in a clean exit (e.g. a ret2libc frame
    /// that called `exit`).
    HijackedExit {
        /// The exit code.
        code: i32,
    },
    /// The daemon was already dead when the response arrived.
    DaemonDown,
}

/// Why a response's answer section failed to parse. `Copy`, so a parse
/// failure allocates nothing; `Display` gives the human-readable reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseFailure {
    /// A name ran past the end of the packet.
    MalformedName,
    /// A name's compression pointers hopped too often.
    PointerLoop,
    /// The 1.35 bounds check fired.
    BufferFull {
        /// Bytes the name would have needed.
        needed: usize,
    },
    /// A record's type, class, TTL or RDLENGTH ran past the packet.
    RecordTruncated,
    /// A record's RDATA ran past the packet.
    RdataTruncated,
}

impl fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseFailure::MalformedName => f.write_str("malformed name in answer"),
            ParseFailure::PointerLoop => f.write_str("compression pointer loop"),
            ParseFailure::BufferFull { needed } => {
                write!(
                    f,
                    "name of {needed} bytes exceeds buffer (patched bounds check)"
                )
            }
            ParseFailure::RecordTruncated => f.write_str("record header truncated"),
            ParseFailure::RdataTruncated => f.write_str("rdata truncated"),
        }
    }
}

impl ProxyOutcome {
    /// The paper's success criterion: a root shell.
    pub fn is_root_shell(&self) -> bool {
        matches!(self, ProxyOutcome::Compromised(s) if s.is_root_shell())
    }

    /// Whether the daemon survived this response.
    pub fn daemon_alive(&self) -> bool {
        matches!(
            self,
            ProxyOutcome::Rejected(_)
                | ProxyOutcome::ParseFailed { .. }
                | ProxyOutcome::Answered { .. }
        )
    }

    /// Whether this is a denial of service (daemon dead, no shell).
    pub fn is_dos(&self) -> bool {
        matches!(
            self,
            ProxyOutcome::Crashed(_) | ProxyOutcome::HijackedExit { .. }
        )
    }
}

impl fmt::Display for ProxyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyOutcome::Rejected(r) => write!(f, "rejected: {r}"),
            ProxyOutcome::ParseFailed { reason } => write!(f, "parse failed: {reason}"),
            ProxyOutcome::Answered { cached } => write!(f, "answered ({cached} cached)"),
            ProxyOutcome::Crashed(report) => write!(f, "crashed: {}", report.fault),
            ProxyOutcome::Compromised(s) => write!(f, "compromised: {s}"),
            ProxyOutcome::HijackedExit { code } => write!(f, "hijacked exit ({code})"),
            ProxyOutcome::DaemonDown => write!(f, "daemon down"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_vm::debug::StackDump;
    use cml_vm::Fault;

    #[test]
    fn parse_failure_reasons_read_as_before() {
        for (reason, text) in [
            (ParseFailure::MalformedName, "malformed name in answer"),
            (ParseFailure::PointerLoop, "compression pointer loop"),
            (
                ParseFailure::BufferFull { needed: 1300 },
                "name of 1300 bytes exceeds buffer (patched bounds check)",
            ),
            (ParseFailure::RecordTruncated, "record header truncated"),
            (ParseFailure::RdataTruncated, "rdata truncated"),
        ] {
            let outcome = ProxyOutcome::ParseFailed { reason };
            assert_eq!(outcome.to_string(), format!("parse failed: {text}"));
            assert!(outcome.daemon_alive());
        }
    }

    #[test]
    fn classification() {
        let answered = ProxyOutcome::Answered { cached: 1 };
        assert!(answered.daemon_alive());
        assert!(!answered.is_dos());
        assert!(!answered.is_root_shell());

        let crash = ProxyOutcome::Crashed(FaultReport {
            fault: Fault::UnmappedFetch { pc: 0x41414141 },
            pc: Some(0x41414141),
            sp: 0,
            stack: StackDump::default(),
        });
        assert!(crash.is_dos());
        assert!(!crash.daemon_alive());

        let shell = ProxyOutcome::Compromised(ShellSpawn::new(b"/bin/sh", "execve", 0));
        assert!(shell.is_root_shell());
        assert!(!shell.daemon_alive());
        assert!(!shell.is_dos());
    }
}
