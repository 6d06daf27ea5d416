//! A tiny authoritative zone and server — the *benign* side of the lab.
//!
//! The malicious server lives in `cml-exploit`; this one answers
//! honestly from configured records, so the legitimate access point in
//! the remote experiments serves real-looking traffic (and control-group
//! devices work normally).

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::header::Rcode;
use crate::message::ResponseEncoder;
use crate::name::{Name, FOLDED_KEY_LEN};
use crate::record::{Record, RecordData, RecordType};
use crate::view::{MessageView, NameRef};
use crate::wire::WireBuf;
use crate::DnsError;

/// Most record sets one lookup returns: up to four CNAME links, then
/// the answer set.
const MAX_LOOKUP_SETS: usize = 5;

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

    /// The records stored under `key`'s name for `rtype`.
    fn get_key(&self, key: &mut Key, rtype: RecordType) -> Option<&[Record]> {
        self.records.get(key.typed(0, rtype)).map(Vec::as_slice)
    }

    /// Finds the deepest delegation covering `qname`: walks from the
    /// query name up through its ancestors (stopping at the zone
    /// origin, whose NS set is the apex, not a cut) and returns the
    /// first NS set found, whose glue is the A/AAAA records this zone
    /// holds for the delegated nameservers.
    pub fn delegation(&self, qname: &Name) -> Option<Delegation<'_>> {
        self.delegation_key(&mut Key::of(qname)?)
    }

    /// [`delegation`](Self::delegation) over a keyed name: each
    /// ancestor is a suffix of the key's label bytes, so the walk
    /// allocates nothing.
    fn delegation_key(&self, key: &mut Key) -> Option<Delegation<'_>> {
        let mut origin = [0; FOLDED_KEY_LEN];
        let origin = match &self.origin {
            Some(o) => o.folded_key(RecordType::Ns, &mut origin),
            None => None,
        };
        let mut from = 0;
        loop {
            let suffix = key.typed(from, RecordType::Ns);
            if origin == Some(suffix) {
                return None;
            }
            if let Some(ns) = self.records.get(suffix).filter(|r| !r.is_empty()) {
                return Some(Delegation { zone: self, ns });
            }
            if from == key.len {
                return None;
            }
            from += 1 + usize::from(key.buf[from]);
        }
    }

    /// Looks `name`'s `rtype` records up, following at most four
    /// CNAME links: the CNAME sets passed through, then the answer set
    /// (if the chain reached one).
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> RecordSets<'_> {
        Key::of(name).map_or_else(RecordSets::default, |key| self.lookup_key(key, rtype))
    }

    fn lookup_key(&self, mut key: Key, rtype: RecordType) -> RecordSets<'_> {
        let mut sets = RecordSets::default();
        for _ in 0..MAX_LOOKUP_SETS {
            if let Some(records) = self.get_key(&mut key, rtype) {
                sets.push(records);
                return sets;
            }
            let Some(cnames) = self.get_key(&mut key, RecordType::Cname) else {
                return sets;
            };
            sets.push(cnames);
            match cnames.first().map(Record::data) {
                Some(RecordData::Cname(target)) => match Key::of(target) {
                    Some(next) => key = next,
                    None => return sets,
                },
                _ => return sets,
            }
        }
        sets
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

/// A name in the zone table's key form — [`Name::folded_key`] without
/// the record type — with room to append one. Every ancestor's key is a
/// suffix of it that starts at a label boundary.
#[derive(Debug, Clone, Copy)]
struct Key {
    buf: [u8; FOLDED_KEY_LEN],
    /// Length of the name part.
    len: usize,
}

impl Key {
    fn of(name: &Name) -> Option<Key> {
        let mut buf = [0; FOLDED_KEY_LEN];
        let len = name.folded_key(RecordType::A, &mut buf)?.len() - 2;
        Some(Key { buf, len })
    }

    fn of_wire(name: NameRef<'_>) -> Option<Key> {
        let mut buf = [0; FOLDED_KEY_LEN];
        let len = name.folded_key(RecordType::A, &mut buf)?.len() - 2;
        Some(Key { buf, len })
    }

    /// The table key of the suffix starting at byte `from`, for `rtype`.
    fn typed(&mut self, from: usize, rtype: RecordType) -> &[u8] {
        self.buf[self.len..self.len + 2].copy_from_slice(&rtype.to_u16().to_be_bytes());
        &self.buf[from..self.len + 2]
    }
}

/// The record sets one [`Zone::lookup`] found, borrowed from the zone.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordSets<'z> {
    sets: [&'z [Record]; MAX_LOOKUP_SETS],
    len: usize,
}

impl<'z> RecordSets<'z> {
    fn push(&mut self, set: &'z [Record]) {
        self.sets[self.len] = set;
        self.len += 1;
    }

    /// Every record found, in answer order.
    pub fn iter(&self) -> impl Iterator<Item = &'z Record> + '_ {
        self.sets[..self.len].iter().flat_map(|set| set.iter())
    }

    /// Number of records found.
    pub fn len(&self) -> usize {
        self.sets[..self.len].iter().map(|set| set.len()).sum()
    }

    /// Whether nothing was found.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A referral found by [`Zone::delegation`], borrowed from the zone.
#[derive(Debug, Clone, Copy)]
pub struct Delegation<'z> {
    zone: &'z Zone,
    ns: &'z [Record],
}

impl<'z> Delegation<'z> {
    /// The cut's NS set.
    pub fn ns(&self) -> &'z [Record] {
        self.ns
    }

    /// The glue: for each NS record in order, the zone's A then AAAA
    /// records for its nameserver.
    pub fn glue(&self) -> impl Iterator<Item = &'z Record> + 'z {
        let zone = self.zone;
        self.ns
            .iter()
            .filter_map(|r| match r.data() {
                RecordData::Ns(target) => Key::of(target),
                _ => None,
            })
            .flat_map(move |mut key| {
                [RecordType::A, RecordType::Aaaa]
                    .into_iter()
                    .filter_map(move |rtype| zone.get_key(&mut key, rtype))
                    .flatten()
            })
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
    ///
    /// The query is read through a [`MessageView`] and the response is
    /// encoded straight from the zone's borrowed records.
    pub fn handle_into(&mut self, query_bytes: &[u8], out: &mut WireBuf) -> bool {
        let query = match MessageView::parse(query_bytes) {
            Ok(q) if !q.is_response() && q.header().qdcount > 0 => q,
            _ => return false,
        };
        let Some(q) = query.questions().next() else {
            return false;
        };
        let key = Key::of_wire(q.name());
        let answers = key.map_or_else(RecordSets::default, |k| self.zone.lookup_key(k, q.qtype()));
        let referral = match key {
            Some(mut k) if answers.is_empty() => self.zone.delegation_key(&mut k),
            _ => None,
        };
        let rcode = if !answers.is_empty() {
            self.queries_answered += 1;
            Rcode::NoError
        } else if referral.is_some() {
            self.queries_referred += 1;
            Rcode::NoError
        } else {
            self.queries_nxdomain += 1;
            Rcode::NxDomain
        };
        respond(out, &query, rcode, answers, referral).is_ok()
    }
}

/// Encodes the answer or referral for `query` into `out`.
fn respond(
    out: &mut WireBuf,
    query: &MessageView<'_>,
    rcode: Rcode,
    answers: RecordSets<'_>,
    referral: Option<Delegation<'_>>,
) -> Result<(), DnsError> {
    let mut enc = ResponseEncoder::new(out, query, rcode)?;
    for r in answers.iter() {
        enc.answer(r)?;
    }
    if let Some(d) = referral {
        for r in d.ns() {
            enc.authority(r)?;
        }
        for r in d.glue() {
            enc.additional(r)?;
        }
    }
    enc.finish(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
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
        let cut = zone.delegation(&q).expect("covered by the cut");
        assert_eq!(cut.ns().len(), 1);
        assert_eq!(cut.ns()[0].name().to_string(), "vendor.com");
        assert_eq!(cut.glue().count(), 1);
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

    /// The response the server built before it answered from borrowed
    /// records: a decoded query, cloned records, an owned `Message`.
    fn message_built_response(zone: &Zone, query: &[u8]) -> Option<Vec<u8>> {
        let query = Message::decode(query).ok()?;
        let q = query.questions().first()?;
        let mut resp = Message::response_to(&query);
        let answers = zone.lookup(q.qname(), q.qtype());
        if !answers.is_empty() {
            answers.iter().for_each(|r| resp.push_answer(r.clone()));
        } else if let Some(cut) = zone.delegation(q.qname()) {
            cut.ns().iter().for_each(|r| resp.push_authority(r.clone()));
            cut.glue().for_each(|r| resp.push_additional(r.clone()));
        } else {
            resp.set_rcode(Rcode::NxDomain);
        }
        resp.encode().ok()
    }

    #[test]
    fn borrowed_responses_match_message_built_ones() {
        let mut queries = Vec::new();
        for host in [
            "cloud.vendor.example",
            "WWW.vendor.example",
            "www.vendor.com",
            "Deep.Sub.VENDOR.Com",
            "com",
            "ghost.example",
            "",
        ] {
            for rtype in [RecordType::A, RecordType::Aaaa, RecordType::Ns] {
                let mut q =
                    Message::query(0x5150, Question::new(Name::parse(host).unwrap(), rtype));
                queries.push(q.encode().unwrap());
                // Two questions, the second compressed against the first.
                q.push_question(Question::new(Name::parse("x.vendor.com").unwrap(), rtype));
                queries.push(q.encode().unwrap());
            }
        }
        // RD clear, and a response (dropped).
        let mut q = queries[0].clone();
        q[2] &= !0x01;
        queries.push(q);
        let mut q = queries[0].clone();
        q[2] |= 0x80;
        queries.push(q);
        for mut s in [server(), tld_server()] {
            for q in &queries {
                let expected = message_built_response(s.zone(), q)
                    .filter(|_| Message::decode(q).is_ok_and(|m| !m.is_response()));
                assert_eq!(s.handle(q), expected, "query {q:02x?}");
            }
        }
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
