//! DNS wire-protocol substrate for `connman-lab`.
//!
//! This crate implements the subset of RFC 1035 (plus AAAA from RFC 3596)
//! that the reproduced paper exercises: full message encoding/decoding with
//! name compression, query construction, and — crucially — *response
//! forging*: building syntactically plausible DNS responses whose answer
//! names decompress to attacker-chosen byte streams of arbitrary length.
//! Those forged responses are what trigger CVE-2017-12865 in the simulated
//! Connman DNS proxy (`cml-connman`).
//!
//! The crate is intentionally split in two layers:
//!
//! * [`Message`], [`Question`], [`Record`], [`Name`] — a strict,
//!   validating model that refuses to *construct* malformed data. This is
//!   what well-behaved code (the proxy's own queries, the benign upstream
//!   server) uses.
//! * [`forge`] — an escape hatch that emits raw wire bytes which are
//!   header-valid (so the proxy accepts the packet and reaches the
//!   vulnerable decompression routine) but carry oversized or cyclic label
//!   chains.
//!
//! # Example
//!
//! ```
//! use cml_dns::{Message, Name, Question, RecordType};
//!
//! # fn main() -> Result<(), cml_dns::DnsError> {
//! let name = Name::parse("sensor.example.com")?;
//! let query = Message::query(0x1234, Question::new(name, RecordType::A));
//! let bytes = query.encode()?;
//! let back = Message::decode(&bytes)?;
//! assert_eq!(back.id(), 0x1234);
//! assert_eq!(back.questions()[0].qtype(), RecordType::A);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod forge;
mod header;
mod message;
mod name;
mod question;
mod record;
pub mod validate;
mod view;
mod wire;
pub mod zone;

pub use error::DnsError;
pub use header::{Header, Opcode, Rcode};
pub use message::{EncodeRecord, Message, ResponseEncoder, MAX_QUERY_LEN};
pub use name::{CompressionTable, Label, Name, FOLDED_KEY_LEN, MAX_LABEL_LEN, MAX_NAME_LEN};
pub use question::Question;
pub use record::{Record, RecordClass, RecordData, RecordType};
pub use view::{canonical_question, Labels, MessageView, NameRef, QuestionRef, RecordRef, Records};
pub use wire::{BufPool, WireBuf, WireReader, WireWriter};
pub use zone::{Delegation, RecordSets, Zone, ZoneServer};

/// Maximum size of a DNS message carried over UDP without EDNS0, in bytes.
pub const MAX_UDP_MESSAGE: usize = 512;

/// Maximum size of a DNS message the forged-response path will emit.
///
/// Matches the receive buffer used by the simulated proxy (the real
/// Connman reads up to 4096 bytes from its upstream socket).
pub const MAX_PROXY_MESSAGE: usize = 4096;
