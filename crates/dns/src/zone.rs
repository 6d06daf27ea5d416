//! A tiny authoritative zone and server — the *benign* side of the lab.
//!
//! The malicious server lives in `cml-exploit`; this one answers
//! honestly from configured records, so the legitimate access point in
//! the remote experiments serves real-looking traffic (and control-group
//! devices work normally).

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::header::Rcode;
use crate::message::Message;
use crate::name::{Name, FOLDED_KEY_LEN};
use crate::record::{Record, RecordData, RecordType};
use crate::wire::WireBuf;

/// An in-memory zone: records keyed by case-folded name and type (see
/// [`Name::folded_key`]).
///
/// A zone may carry NS records below its origin; those express
/// *delegation*, and [`Zone::delegation`] finds the referral (NS set
/// plus glue addresses) a query outside the zone's own data should be
/// bounced to. NS records *at* the origin are the zone's own apex set,
/// never a referral.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    records: HashMap<Box<[u8]>, Vec<Record>>,
    origin: Option<Name>,
}

impl Zone {
    /// An empty zone.
    pub fn new() -> Self {
        Zone::default()
    }

    /// An empty zone rooted at `origin` (e.g. `"com"` for a TLD server,
    /// `""` for the root). The origin marks where the zone's own
    /// authority starts: NS records *below* it are delegations, NS
    /// records *at* it are the apex set.
    ///
    /// # Panics
    ///
    /// Panics on an unparsable origin; zone origins are static strings.
    pub fn rooted(origin: &str) -> Self {
        Zone {
            records: HashMap::new(),
            origin: Some(Name::parse(origin).expect("zone origins are static and valid")),
        }
    }

    /// The zone's origin, if one was declared.
    pub fn origin(&self) -> Option<&Name> {
        self.origin.as_ref()
    }

    /// Adds a record. A name whose wire form exceeds
    /// [`crate::MAX_NAME_LEN`] has no key and is not stored; no public
    /// constructor builds one.
    pub fn insert(&mut self, record: Record) -> &mut Self {
        let mut buf = [0; FOLDED_KEY_LEN];
        if let Some(key) = record.name().folded_key(record.rtype(), &mut buf) {
            match self.records.get_mut(key) {
                Some(set) => set.push(record),
                None => {
                    self.records.insert(key.into(), vec![record]);
                }
            }
        }
        self
    }

    /// The record set stored under `(name, rtype)`, found without
    /// allocating.
    fn get(&self, name: &Name, rtype: RecordType) -> Option<&Vec<Record>> {
        let mut buf = [0; FOLDED_KEY_LEN];
        self.records.get(name.folded_key(rtype, &mut buf)?)
    }

    /// Convenience: adds an A record.
    pub fn a(&mut self, name: &str, ttl: u32, addr: Ipv4Addr) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::A(addr)))
    }

    /// Convenience: adds an AAAA record.
    pub fn aaaa(&mut self, name: &str, ttl: u32, addr: Ipv6Addr) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Aaaa(addr)))
    }

    /// Convenience: adds a CNAME record.
    pub fn cname(&mut self, name: &str, ttl: u32, target: &str) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        let target = Name::parse(target).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Cname(target)))
    }

    /// Convenience: adds an NS record delegating `name` to `nameserver`.
    /// Pair with [`a`](Self::a) records for the nameserver's own name to
    /// provide glue.
    pub fn ns(&mut self, name: &str, ttl: u32, nameserver: &str) -> &mut Self {
        let name = Name::parse(name).expect("zone names are static and valid");
        let ns = Name::parse(nameserver).expect("zone names are static and valid");
        self.insert(Record::new(name, ttl, RecordData::Ns(ns)))
    }

    /// Finds the deepest delegation covering `qname`: walks from the
    /// query name up through its ancestors (stopping at the zone
    /// origin, whose NS set is the apex, not a cut) and returns the
    /// first NS set found together with its glue — the A/AAAA records
    /// this zone holds for the delegated nameservers.
    pub fn delegation(&self, qname: &Name) -> Option<(Vec<Record>, Vec<Record>)> {
        let mut cut = Some(qname.clone());
        while let Some(name) = cut {
            if self.origin.as_ref().is_some_and(|o| name.eq_ignore_case(o)) {
                return None;
            }
            let ns_set = self.get(&name, RecordType::Ns).filter(|r| !r.is_empty());
            if let Some(ns_set) = ns_set {
                let mut glue = Vec::new();
                for ns in ns_set {
                    if let RecordData::Ns(target) = ns.data() {
                        for rtype in [RecordType::A, RecordType::Aaaa] {
                            if let Some(addrs) = self.get(target, rtype) {
                                glue.extend(addrs.iter().cloned());
                            }
                        }
                    }
                }
                return Some((ns_set.clone(), glue));
            }
            cut = name.parent();
        }
        None
    }

    /// Looks records up, following at most `depth` CNAME links.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> Vec<Record> {
        let mut out = Vec::new();
        let mut current = name;
        for _ in 0..=4 {
            if let Some(records) = self.get(current, rtype) {
                out.extend(records.iter().cloned());
                return out;
            }
            match self.get(current, RecordType::Cname) {
                Some(cnames) => {
                    out.extend(cnames.iter().cloned());
                    match cnames.first().map(Record::data) {
                        Some(RecordData::Cname(target)) => current = target,
                        _ => return out,
                    }
                }
                None => return out,
            }
        }
        out
    }

    /// Number of record sets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the zone has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A request/response server over a [`Zone`].
#[derive(Debug, Clone, Default)]
pub struct ZoneServer {
    zone: Zone,
    queries_answered: u64,
    queries_nxdomain: u64,
    queries_referred: u64,
}

impl ZoneServer {
    /// Serves the given zone.
    pub fn new(zone: Zone) -> Self {
        ZoneServer {
            zone,
            queries_answered: 0,
            queries_nxdomain: 0,
            queries_referred: 0,
        }
    }

    /// The zone being served.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// (answered, nxdomain) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.queries_answered, self.queries_nxdomain)
    }

    /// Queries bounced with a referral (NS records in the authority
    /// section, glue in the additional section).
    pub fn referrals(&self) -> u64 {
        self.queries_referred
    }

    /// Handles one datagram: decodes the query, answers from the zone,
    /// refers queries under a delegation cut to the delegated
    /// nameservers (NS in the authority section, glue addresses in the
    /// additional section), returns `NXDOMAIN` for unknown names, drops
    /// undecodable input.
    pub fn handle(&mut self, query_bytes: &[u8]) -> Option<Vec<u8>> {
        let mut out = WireBuf::new();
        if self.handle_into(query_bytes, &mut out) {
            Some(out.into_vec())
        } else {
            None
        }
    }

    /// [`handle`](Self::handle) through the pooled encode path:
    /// replaces `out`'s contents with the response (keeping its
    /// capacity, so a warm buffer encodes without allocating for the
    /// response bytes) and returns `true`, or returns `false` when the
    /// packet is dropped.
    pub fn handle_into(&mut self, query_bytes: &[u8], out: &mut WireBuf) -> bool {
        let query = match Message::decode(query_bytes) {
            Ok(q) if !q.is_response() && !q.questions().is_empty() => q,
            _ => return false,
        };
        let q = &query.questions()[0];
        let records = self.zone.lookup(q.qname(), q.qtype());
        let mut resp = Message::response_to(&query);
        if !records.is_empty() {
            for r in records {
                resp.push_answer(r);
            }
            self.queries_answered += 1;
        } else if let Some((ns_set, glue)) = self.zone.delegation(q.qname()) {
            for ns in ns_set {
                resp.push_authority(ns);
            }
            for g in glue {
                resp.push_additional(g);
            }
            self.queries_referred += 1;
        } else {
            resp.set_rcode(Rcode::NxDomain);
            self.queries_nxdomain += 1;
        }
        resp.encode_into(out).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::Question;

    fn server() -> ZoneServer {
        let mut zone = Zone::new();
        zone.a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 7))
            .a("cloud.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 8))
            .aaaa("cloud.vendor.example", 300, "2001:db8::7".parse().unwrap())
            .cname("www.vendor.example", 600, "cloud.vendor.example");
        ZoneServer::new(zone)
    }

    fn ask(s: &mut ZoneServer, host: &str, rtype: RecordType) -> Message {
        let q = Message::query(9, Question::new(Name::parse(host).unwrap(), rtype));
        let resp = s.handle(&q.encode().unwrap()).expect("responds");
        Message::decode(&resp).unwrap()
    }

    #[test]
    fn answers_from_zone() {
        let mut s = server();
        let m = ask(&mut s, "cloud.vendor.example", RecordType::A);
        assert_eq!(m.answers().len(), 2);
        assert_eq!(m.header().rcode, Rcode::NoError);
    }

    #[test]
    fn follows_cnames() {
        let mut s = server();
        let m = ask(&mut s, "www.vendor.example", RecordType::A);
        // CNAME + the two A records behind it.
        assert_eq!(m.answers().len(), 3);
        assert_eq!(m.answers()[0].rtype(), RecordType::Cname);
    }

    #[test]
    fn nxdomain_for_unknown() {
        let mut s = server();
        let m = ask(&mut s, "ghost.example", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NxDomain);
        assert!(m.answers().is_empty());
        assert_eq!(s.stats(), (0, 1));
    }

    #[test]
    fn case_insensitive_lookup() {
        let mut s = server();
        let m = ask(&mut s, "CLOUD.Vendor.EXAMPLE", RecordType::A);
        assert_eq!(m.answers().len(), 2);
    }

    #[test]
    fn drops_garbage() {
        let mut s = server();
        assert!(s.handle(&[1, 2, 3]).is_none());
    }

    fn tld_server() -> ZoneServer {
        // A "com" TLD zone delegating vendor.example-style children:
        // NS cuts below the origin plus in-bailiwick glue.
        let mut zone = Zone::rooted("com");
        zone.ns("vendor.com", 86400, "ns1.vendor.com")
            .ns("vendor.com", 86400, "ns2.vendor.com")
            .a("ns1.vendor.com", 86400, Ipv4Addr::new(198, 51, 100, 1))
            .a("ns2.vendor.com", 86400, Ipv4Addr::new(198, 51, 100, 2))
            .aaaa("ns1.vendor.com", 86400, "2001:db8::53".parse().unwrap())
            .ns("com", 86400, "a.gtld.example");
        ZoneServer::new(zone)
    }

    #[test]
    fn referral_carries_ns_and_glue() {
        let mut s = tld_server();
        let m = ask(&mut s, "www.vendor.com", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NoError);
        assert!(m.answers().is_empty(), "a referral answers nothing");
        assert_eq!(m.authorities().len(), 2);
        assert!(m
            .authorities()
            .iter()
            .all(|r| r.rtype() == RecordType::Ns && r.name().to_string() == "vendor.com"));
        // Glue: both nameservers' A records plus ns1's AAAA.
        assert_eq!(m.additionals().len(), 3);
        assert_eq!(s.referrals(), 1);
        assert_eq!(s.stats(), (0, 0));
    }

    #[test]
    fn apex_ns_is_not_a_referral() {
        let mut s = tld_server();
        // The origin's own NS set is an answer when asked for directly…
        let m = ask(&mut s, "com", RecordType::Ns);
        assert_eq!(m.answers().len(), 1);
        // …and a miss at the apex is NXDOMAIN, not a self-referral.
        let m = ask(&mut s, "com", RecordType::A);
        assert_eq!(m.header().rcode, Rcode::NxDomain);
        assert!(m.authorities().is_empty());
    }

    #[test]
    fn delegation_finds_deepest_cut_case_insensitively() {
        let zone = {
            let mut z = Zone::rooted("com");
            z.ns("vendor.com", 60, "ns1.vendor.com").a(
                "ns1.vendor.com",
                60,
                Ipv4Addr::new(198, 51, 100, 1),
            );
            z
        };
        let q = Name::parse("Deep.Sub.VENDOR.Com").unwrap();
        let (ns_set, glue) = zone.delegation(&q).expect("covered by the cut");
        assert_eq!(ns_set.len(), 1);
        assert_eq!(glue.len(), 1);
        assert!(zone
            .delegation(&Name::parse("other.org").unwrap())
            .is_none());
    }

    #[test]
    fn referral_roundtrips_through_pooled_encode_path() {
        use crate::wire::BufPool;
        let q = Message::query(
            77,
            Question::new(Name::parse("www.vendor.com").unwrap(), RecordType::A),
        )
        .encode()
        .unwrap();
        let mut s = tld_server();
        let via_handle = s.handle(&q).expect("responds");

        let mut pool = BufPool::new();
        let mut buf = pool.checkout();
        let mut s2 = tld_server();
        assert!(s2.handle_into(&q, &mut buf));
        assert_eq!(buf.as_bytes(), &via_handle[..], "pooled path is identical");

        // Round-trip: the decoded referral re-encodes to the same bytes
        // through a *warm* pooled buffer without growing it.
        let decoded = Message::decode(buf.as_bytes()).unwrap();
        assert_eq!(decoded.authorities().len(), 2);
        assert_eq!(decoded.additionals().len(), 3);
        let warm_cap = buf.as_mut_vec().capacity();
        decoded.encode_into(&mut buf).unwrap();
        assert_eq!(buf.as_bytes(), &via_handle[..]);
        assert_eq!(buf.as_mut_vec().capacity(), warm_cap, "warm buffer reused");
        pool.checkin(buf);
    }

    #[test]
    fn cname_loop_bounded() {
        let mut zone = Zone::new();
        zone.cname("a.example", 60, "b.example");
        zone.cname("b.example", 60, "a.example");
        let mut s = ZoneServer::new(zone);
        // Must terminate (bounded follow), answering with the CNAME chain.
        let m = ask(&mut s, "a.example", RecordType::A);
        assert!(m.answers().len() <= 12);
    }
}
