//! The question section entry (RFC 1035 §4.1.2).

use std::fmt;

use crate::name::{CompressionTable, Name};
use crate::record::{RecordClass, RecordType};
use crate::wire::WireWriter;
use crate::DnsError;

/// One entry of the question section: the name, type and class being
/// asked about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    qname: Name,
    qtype: RecordType,
    qclass: RecordClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    /// Creates a question with an explicit class.
    pub fn with_class(qname: Name, qtype: RecordType, qclass: RecordClass) -> Self {
        Question {
            qname,
            qtype,
            qclass,
        }
    }

    /// The queried name.
    pub fn qname(&self) -> &Name {
        &self.qname
    }

    /// The queried record type.
    pub fn qtype(&self) -> RecordType {
        self.qtype
    }

    /// The queried class.
    pub fn qclass(&self) -> RecordClass {
        self.qclass
    }

    /// Encodes the question, sharing name compression state.
    ///
    /// # Errors
    ///
    /// Propagates writer capacity errors.
    pub fn encode(&self, w: &mut WireWriter, table: &mut CompressionTable) -> Result<(), DnsError> {
        self.qname.encode_compressed(w, table)?;
        w.write_u16(self.qtype.to_u16())?;
        w.write_u16(self.qclass.to_u16())
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let q = Question::new(Name::parse("x.example").unwrap(), RecordType::A);
        assert_eq!(q.to_string(), "x.example IN A");
    }
}
