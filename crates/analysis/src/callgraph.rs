//! Whole-image call graph and per-function call summaries.
//!
//! CFG recovery resolves direct call targets against the symbol table
//! ([`crate::cfg::CallEdge`]); this module organizes those edges into a
//! queryable graph and attaches a [`FnSummary`] to every recovered
//! function. Summaries are computed bottom-up from the per-function
//! taint profile (arguments assumed attacker-controlled), then closed
//! transitively: a function *may overflow* if its own body contains an
//! unbounded tainted copy or if it passes its argument to a callee that
//! may. The report layer uses `chain_to` to print the statically
//! recovered attack path `forward_dns_reply → uncompress →
//! parse_response` — the exact dnsproxy call chain of CVE-2017-12865.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use cml_image::Addr;

use crate::cfg::Cfg;
use crate::taint::{self, FnProfile};

/// Static call summary for one recovered function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// The constant the function leaves in the return register on every
    /// return path, when statically evident (`uncompress` returns 0).
    pub returns_const: Option<u32>,
    /// Whether the body stores through any pointer.
    pub writes_mem: bool,
    /// Whether the body itself contains an unbounded tainted copy into
    /// its stack frame, assuming its arguments are attacker-controlled.
    pub unbounded_copy: bool,
    /// `unbounded_copy` closed over callees: true when this function or
    /// anything it (transitively) calls may overflow a stack buffer.
    pub may_overflow: bool,
}

/// Per-function summaries keyed by function name.
#[derive(Debug, Default)]
pub struct Summaries {
    map: BTreeMap<String, FnSummary>,
}

impl Summaries {
    /// Computes summaries for every function in `cfg`: a local taint
    /// profile per body, then a transitive closure of `may_overflow`
    /// over the call graph.
    pub fn compute(cfg: &Cfg) -> Summaries {
        Summaries::from_profiles(cfg, &taint::profiles(cfg))
    }

    /// [`Summaries::compute`] over precomputed per-function profiles
    /// (indexed like `cfg.functions`).
    pub(crate) fn from_profiles(cfg: &Cfg, profiles: &[FnProfile]) -> Summaries {
        let mut map = BTreeMap::new();
        for (f, p) in cfg.functions.iter().zip(profiles) {
            map.insert(
                f.name.clone(),
                FnSummary {
                    returns_const: p.returns_const,
                    writes_mem: p.writes_mem,
                    unbounded_copy: p.unbounded_copy,
                    may_overflow: p.unbounded_copy,
                },
            );
        }
        // Transitive closure: propagate may_overflow caller-ward.
        let graph = CallGraph::build(cfg);
        loop {
            let mut changed = false;
            for (caller, callees) in &graph.callees {
                let hot = callees
                    .iter()
                    .any(|c| map.get(c).is_some_and(|s| s.may_overflow));
                if hot {
                    if let Some(s) = map.get_mut(caller) {
                        if !s.may_overflow {
                            s.may_overflow = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return Summaries { map };
            }
        }
    }

    /// The summary for `name`, if the function was recovered.
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name)
    }

    /// All summaries, sorted by function name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FnSummary)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Call-site address → the constant the callee returns.
    pub(crate) fn ret_const_sites(&self, cfg: &Cfg) -> HashMap<Addr, u32> {
        cfg.call_edges
            .iter()
            .filter_map(|e| {
                self.get(&e.callee)
                    .and_then(|s| s.returns_const)
                    .map(|v| (e.at, v))
            })
            .collect()
    }
}

/// The image's direct-call graph, keyed by function name.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// caller → sorted unique callees.
    pub callees: BTreeMap<String, Vec<String>>,
    /// callee → sorted unique callers.
    pub callers: BTreeMap<String, Vec<String>>,
}

impl CallGraph {
    /// Builds the graph from the CFG's resolved call edges.
    pub fn build(cfg: &Cfg) -> CallGraph {
        let mut callees: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut callers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &cfg.functions {
            callees.entry(f.name.clone()).or_default();
        }
        for e in &cfg.call_edges {
            callees
                .entry(e.caller.clone())
                .or_default()
                .insert(e.callee.clone());
            callers
                .entry(e.callee.clone())
                .or_default()
                .insert(e.caller.clone());
        }
        let flat = |m: BTreeMap<String, BTreeSet<String>>| {
            m.into_iter()
                .map(|(k, v)| (k, v.into_iter().collect::<Vec<_>>()))
                .collect()
        };
        CallGraph {
            callees: flat(callees),
            callers: flat(callers),
        }
    }

    /// Functions nothing in the image calls — the graph's entry points.
    pub fn roots(&self) -> Vec<&str> {
        self.callees
            .keys()
            .filter(|name| !self.callers.contains_key(name.as_str()))
            .map(|s| s.as_str())
            .collect()
    }

    /// Shortest call chain from `from` to `to` (inclusive), if any.
    pub fn chain_to(&self, from: &str, to: &str) -> Option<Vec<String>> {
        let mut prev: HashMap<&str, &str> = HashMap::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            if cur == to {
                let mut chain = vec![cur.to_string()];
                let mut walk = cur;
                while let Some(&p) = prev.get(walk) {
                    chain.push(p.to_string());
                    walk = p;
                }
                chain.reverse();
                return Some(chain);
            }
            for callee in self.callees.get(cur).into_iter().flatten() {
                if callee != from && !prev.contains_key(callee.as_str()) {
                    prev.insert(callee, cur);
                    queue.push_back(callee);
                }
            }
        }
        None
    }

    /// Total number of direct call edges.
    pub fn edge_count(&self) -> usize {
        self.callees.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use cml_firmware::build_image_for;
    use cml_image::Arch;

    #[test]
    fn recovers_the_dnsproxy_attack_chain() {
        for arch in Arch::ALL {
            let (img, _) = build_image_for(arch, 0, false);
            let graph = CallGraph::build(&cfg::recover(&img));
            let chain = graph
                .chain_to("forward_dns_reply", "parse_response")
                .unwrap_or_else(|| panic!("{arch}: no chain"));
            assert_eq!(
                chain,
                ["forward_dns_reply", "uncompress", "parse_response"],
                "{arch}"
            );
            assert!(
                graph.roots().contains(&"forward_dns_reply"),
                "{arch}: reply entry should be a call-graph root"
            );
        }
    }

    #[test]
    fn summaries_flag_the_overflow_and_the_constant_return() {
        for arch in Arch::ALL {
            let (img, _) = build_image_for(arch, 0, false);
            let cfg = cfg::recover(&img);
            let sums = Summaries::compute(&cfg);

            let parse = sums.get("parse_response").unwrap();
            assert!(parse.unbounded_copy, "{arch}");
            assert!(parse.writes_mem, "{arch}");

            let unc = sums.get("uncompress").unwrap();
            assert_eq!(unc.returns_const, Some(0), "{arch}: uncompress returns 0");
            assert!(!unc.unbounded_copy, "{arch}");
            assert!(unc.may_overflow, "{arch}: transitive via parse_response");

            let fwd = sums.get("forward_dns_reply").unwrap();
            assert!(fwd.may_overflow, "{arch}");

            // Patched image: nothing may overflow.
            let (fixed, _) = build_image_for(arch, 0, true);
            let fixed_sums = Summaries::compute(&cfg::recover(&fixed));
            assert!(
                fixed_sums.iter().all(|(_, s)| !s.may_overflow),
                "{arch}: patched image must be quiet"
            );
        }
    }
}
