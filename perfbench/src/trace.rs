//! In-memory spans recorded by the benchmark around its own calls into
//! the lab's layers, and the summaries computed from them.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the index of the span that caused it, and the id of
//! the session, exec or query it belongs to. Spans stay in memory until
//! the run ends; [`Tracer::write_tsv`] writes them out then.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one epoch. A tracer made with [`Tracer::off`]
/// records nothing and reads no clock, so one loop serves the untraced
/// and the traced runs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            on: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the `parent` of its children).
    pub fn open(&mut self, name: &'static str, id: u32, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        idx
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: u32) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Closes span `idx` under a name decided by what the call did
    /// (a resolver query is a hit or a miss only once it returns).
    pub fn close_as(&mut self, idx: u32, name: &'static str) {
        self.close(idx);
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, id, parent);
        let r = f();
        self.close(idx);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as `id parent name start_ns end_ns`, one a line.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Inclusive durations, ns, sorted ascending.
    pub durations: Vec<u64>,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

impl NameStats {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Nearest-rank percentile of the inclusive durations, in µs.
    pub fn pct_us(&self, p: f64) -> f64 {
        percentile(&self.durations, p) as f64 / 1e3
    }
}

/// Self time per span: its duration minus the part of its interval
/// that its children cover. Children of one parent are recorded in
/// start order, so their union is a single forward sweep.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_to = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == ROOT {
            continue;
        }
        let p = s.parent as usize;
        let from = s.start_ns.max(covered_to[p]);
        if s.end_ns > from {
            covered[p] += s.end_ns - from;
        }
        covered_to[p] = covered_to[p].max(s.end_ns);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Groups spans by name: sorted inclusive durations and summed self time.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.durations.push(s.dur_ns());
        e.self_ns += self_ns;
    }
    for e in out.values_mut() {
        e.durations.sort_unstable();
    }
    out
}

/// Sum of self times over spans whose name starts with one of the
/// program's layer prefixes — the time the traced loop spent inside
/// the lab's code rather than in the benchmark's own bookkeeping.
pub fn layer_self_ns(stats: &BTreeMap<&'static str, NameStats>) -> u64 {
    stats
        .iter()
        .filter(|(name, _)| is_layer(name))
        .map(|(_, s)| s.self_ns)
        .sum()
}

/// Whether a span name belongs to one of the lab's layers (as opposed
/// to a benchmark root span such as `session`, `iteration` or `query`).
pub fn is_layer(name: &str) -> bool {
    ["forge.", "daemon.", "exploit.", "fuzz.", "resolver."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Nearest-rank percentile of a sorted slice (0 for an empty one).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("session", ROOT, 0, 100),
            span("forge.fork", 0, 10, 40),
            span("daemon.deliver", 0, 30, 70),
            span("daemon.inner", 2, 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![40, 30, 30, 10]);
        let stats = by_name(&spans);
        assert_eq!(layer_self_ns(&stats), 70);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
