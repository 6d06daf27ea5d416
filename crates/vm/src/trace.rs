//! Execution tracing: a bounded ring of (pc, sp) samples with optional
//! hook attribution — enough to reconstruct a ROP chain's gadget-by-
//! gadget walk after the fact.

use std::fmt;

use cml_image::Addr;

/// One executed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter at the start of the step.
    pub pc: Addr,
    /// Stack pointer at the start of the step.
    pub sp: Addr,
    /// Name of the native libc hook, when the step was a hook dispatch
    /// rather than an interpreted instruction.
    pub hook: Option<&'static str>,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.hook {
            Some(name) => write!(f, "{:#010x} sp={:#010x} [{name}]", self.pc, self.sp),
            None => write!(f, "{:#010x} sp={:#010x}", self.pc, self.sp),
        }
    }
}

/// A bounded execution trace. When full, the oldest entries are
/// discarded (crash analysis cares about the *end* of the run).
#[derive(Debug, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
}

impl Trace {
    /// Creates a trace holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Trace {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
        }
    }

    /// Records one step.
    pub fn push(&mut self, entry: TraceEntry) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The last `n` entries (or fewer).
    pub fn tail(&self, n: usize) -> &[TraceEntry] {
        let start = self.entries.len().saturating_sub(n);
        &self.entries[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(pc: Addr) -> TraceEntry {
        TraceEntry {
            pc,
            sp: 0x8000,
            hook: None,
        }
    }

    #[test]
    fn bounded_ring_keeps_the_tail() {
        let mut t = Trace::new(3);
        for pc in 1..=5 {
            t.push(e(pc));
        }
        let pcs: Vec<Addr> = t.entries().iter().map(|x| x.pc).collect();
        assert_eq!(pcs, vec![3, 4, 5]);
        assert_eq!(t.tail(2).len(), 2);
        assert_eq!(t.tail(99).len(), 3);
    }

    #[test]
    fn display_includes_hook() {
        let entry = TraceEntry {
            pc: 0x1000,
            sp: 0x8000,
            hook: Some("memcpy"),
        };
        assert!(entry.to_string().contains("[memcpy]"));
    }
}
