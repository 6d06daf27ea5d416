//! A recursive resolver with an allocation-free answer cache, timed by
//! the deterministic simulated clock of [`scheduler`](crate::scheduler).
//!
//! # The walk
//!
//! A cache miss walks the delegation tree exactly the way a real
//! iterative resolver does, one exchange at a time, in three steps:
//!
//! * **InitQuery** — a client query arrives; the cache missed, so a
//!   resolution chain starts at the deepest cached zone cut that
//!   encloses the name, or at a root server when none does.
//! * **QueryTarget** — the resolver sends a (case-normalized,
//!   uncompressed) query to one authoritative server; the packet is in
//!   flight for one seeded latency draw.
//! * **QueryResponse** — the server's answer arrives after a second
//!   draw and is classified: a final answer set, a CNAME to follow
//!   (start again at the deepest cut enclosing the target), a referral
//!   to chase (use glue from the additional section, or recurse to
//!   resolve the nameserver's own address first, from its own deepest
//!   cut), or a dead end.
//!
//! Only one step is ever pending, so the clock is a [`SimTime`] and a
//! draw counter: the arrival takes one draw index and each step after
//! it advances the clock by one latency draw. Every latency is a pure
//! function of `(seed, link, draw index)`, so the whole trace is a
//! deterministic function of the seed — byte-identical at any worker
//! count.
//!
//! # The cache (the hot path)
//!
//! [`ResolverCache`] keys entries by a hash of the *canonical* question
//! — the qname lowercased on the fly, plus the qtype — so any case
//! variant of the same question hits. An entry stores the full response
//! message in a pooled [`WireBuf`]; a hit copies it into the caller's
//! warm buffer and patches the transaction id, touching the heap not at
//! all. Expiry is batched: entries carry an expiry tick on the event
//! clock and a binary heap drains everything due whenever the clock
//! advances past it.
//!
//! # The delegation cache
//!
//! Beside the answers, [`ResolverCache`] keeps the zone cuts the walk
//! has learned: a cut name, one server address and an expiry tick,
//! keyed by the cut's canonical key with qtype NS. A referral with glue
//! is cached at once, for the smaller of the NS and glue TTLs. A
//! glueless referral's cut waits on its frame until the glue chase
//! answers, and then takes the chased address for the smaller of the NS
//! and A TTLs. Lookups probe each label boundary of the name's wire
//! form, deepest first, and allocate nothing.
//!
//! Each frame tracks the zone it is asking (the root, or the cut it
//! started at or was referred to). XDRI's bailiwick rule (arXiv
//! 2208.12003) decides what is cached: a cut only when it lies on the
//! frame's name and strictly below that zone, and its glue only when
//! the glue's owner lies inside that zone. A referral that breaks the
//! rule is still followed, but nothing from it is cached, and its frame
//! caches nothing more until it restarts. So a server can only
//! delegate its own subtree, and only along the name it was asked.
//!
//! # The attack surface
//!
//! [`RecursiveResolver::poison`] injects an attacker-controlled
//! response under a question's canonical key — the XDRI
//! (arXiv 2208.12003) upstream-compromise model. Every dependent
//! client from then on receives the injected bytes as an ordinary
//! cache hit: one poisoning event, fleet-wide redirection, no
//! per-device malicious delivery. It injects an answer, never a cut.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::{self, Write};
use std::net::Ipv4Addr;

use cml_dns::{
    canonical_question, BufPool, DnsError, Header, Label, MessageView, Name, NameRef, Rcode,
    RecordClass, RecordType, ResponseEncoder, WireBuf, WireWriter, ZoneServer,
};

use crate::scheduler::{link_latency_us, mix64, SimTime};

/// Event-clock ticks per second of DNS TTL.
pub const TICKS_PER_SEC: SimTime = 1_000_000;

/// Most CNAME links one resolution will follow.
const MAX_CNAME_FOLLOWS: u8 = 8;

/// Most referrals one resolution will chase.
const MAX_REFERRALS: u8 = 16;

/// FNV-1a over the case-folded qname wire plus the qtype, finished with
/// a SplitMix64 mix. Length bytes are at most 63, outside the ASCII
/// uppercase range, so folding every byte never corrupts the structure.
fn canonical_key(qname_wire: &[u8], qtype: RecordType) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in qname_wire {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in qtype.to_u16().to_be_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// The qname's wire form (root byte included) within a question
/// section: everything before the qtype and qclass.
fn qname_wire(question: &[u8]) -> &[u8] {
    &question[..question.len() - 4]
}

/// Counters the cache keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries stored (including overwrites).
    pub inserts: u64,
    /// Entries dropped by batched TTL expiry.
    pub expirations: u64,
    /// Entries dropped to make room at capacity.
    pub evictions: u64,
    /// Entries injected by an attacker.
    pub poisonings: u64,
}

#[derive(Debug)]
struct CacheEntry {
    /// Canonical (lowercased) qname wire bytes, for collision safety.
    qname: WireBuf,
    qtype: RecordType,
    /// The full response message; byte 0..2 (the id) is patched per hit.
    answer: WireBuf,
    expires_at: SimTime,
}

/// A delegation point: the server to ask about names under a zone cut.
#[derive(Debug)]
struct CutEntry {
    /// The cut's lowercased wire name, for collision safety.
    cut: WireBuf,
    server: Ipv4Addr,
    expires_at: SimTime,
}

/// The table an expiry ticket belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Table {
    Answers,
    Cuts,
}

/// An expiry ticket: due tick, key, table.
type Ticket = (SimTime, u64, Table);

/// Longest uncompressed wire name a cut lookup handles.
const MAX_WIRE: usize = cml_dns::MAX_NAME_LEN;

/// Writes `name`'s uncompressed wire form into `buf` and returns it, or
/// `None` when it does not fit (only forged names are that long).
fn name_wire<'b>(name: &Name, buf: &'b mut [u8; MAX_WIRE]) -> Option<&'b [u8]> {
    let mut at = 0;
    for label in name.labels() {
        let bytes = label.as_bytes();
        let next = buf.get_mut(at..at + 1 + bytes.len())?;
        next[0] = bytes.len() as u8;
        next[1..].copy_from_slice(bytes);
        at += 1 + bytes.len();
    }
    *buf.get_mut(at)? = 0;
    Some(&buf[..=at])
}

/// The suffix of a wire name that starts after its first `skip` labels.
fn skip_labels(mut wire: &[u8], skip: usize) -> &[u8] {
    for _ in 0..skip {
        wire = &wire[1 + wire[0] as usize..];
    }
    wire
}

/// The resolver's answer cache: hashed canonical-question keys, pooled
/// buffers, batched TTL expiry on the event clock. The steady-state hit
/// path ([`lookup_into`](Self::lookup_into) with a warm `out`) performs
/// zero heap allocations.
///
/// Beside the answers it keeps the delegation points the resolver has
/// learned (see the module doc), bounded by the same capacity and
/// expired on the same clock heap. [`CacheStats`] counts answers only.
#[derive(Debug)]
pub struct ResolverCache {
    entries: HashMap<u64, CacheEntry>,
    /// Zone cuts by `canonical_key(cut wire, NS)`.
    cuts: HashMap<u64, CutEntry>,
    expiry: BinaryHeap<Reverse<Ticket>>,
    /// Tickets of the other table set aside while an eviction searches
    /// the heap (kept for its capacity).
    aside: Vec<Ticket>,
    capacity: usize,
    pool: BufPool,
    stats: CacheStats,
}

impl ResolverCache {
    /// An empty cache holding at most `capacity` answers and at most
    /// `capacity` zone cuts.
    pub fn new(capacity: usize) -> Self {
        ResolverCache {
            entries: HashMap::with_capacity(capacity.min(4096)),
            cuts: HashMap::new(),
            expiry: BinaryHeap::new(),
            aside: Vec::new(),
            capacity: capacity.max(1),
            pool: BufPool::new(),
            stats: CacheStats::default(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Serves `query` from the cache if a live entry matches its
    /// canonical question: copies the stored response into `out`
    /// (contents replaced, capacity kept) with the query's transaction
    /// id patched in, and returns `true`. A warm `out` makes the whole
    /// hit allocation-free.
    pub fn lookup_into(&mut self, now: SimTime, query: &[u8], out: &mut Vec<u8>) -> bool {
        if let Some((id, qtype, question)) = canonical_question(query) {
            let qname = qname_wire(question);
            let key = canonical_key(qname, qtype);
            if let Some(e) = self.entries.get(&key) {
                if now < e.expires_at
                    && e.qtype == qtype
                    && e.qname.as_bytes().eq_ignore_ascii_case(qname)
                {
                    out.clear();
                    out.extend_from_slice(e.answer.as_bytes());
                    out[0..2].copy_from_slice(&id.to_be_bytes());
                    self.stats.hits += 1;
                    return true;
                }
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Stores `response` under `query`'s canonical question until
    /// `now + ttl_ticks`. A zero TTL stores nothing. At capacity the
    /// soonest-expiring entry is evicted first. Returns whether the
    /// entry was stored.
    pub fn insert(
        &mut self,
        now: SimTime,
        query: &[u8],
        response: &[u8],
        ttl_ticks: SimTime,
    ) -> bool {
        if ttl_ticks == 0 || response.len() < 12 {
            return false;
        }
        let Some((_, qtype, question)) = canonical_question(query) else {
            return false;
        };
        let qname = qname_wire(question);
        let key = canonical_key(qname, qtype);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict_soonest(Table::Answers);
            if self.entries.len() >= self.capacity {
                return false;
            }
        }
        let mut qbuf = self.pool.checkout();
        qbuf.as_mut_vec().extend_from_slice(qname);
        qbuf.as_mut_vec().make_ascii_lowercase();
        let mut abuf = self.pool.checkout();
        abuf.as_mut_vec().extend_from_slice(response);
        let expires_at = now.saturating_add(ttl_ticks);
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                qname: qbuf,
                qtype,
                answer: abuf,
                expires_at,
            },
        ) {
            self.pool.checkin(old.qname);
            self.pool.checkin(old.answer);
        }
        self.expiry.push(Reverse((expires_at, key, Table::Answers)));
        self.stats.inserts += 1;
        true
    }

    /// [`insert`](Self::insert) as the attacker: same mechanics, counted
    /// as a poisoning. One successful call redirects every dependent
    /// client until the TTL runs out.
    pub fn poison(
        &mut self,
        now: SimTime,
        query: &[u8],
        response: &[u8],
        ttl_ticks: SimTime,
    ) -> bool {
        let stored = self.insert(now, query, response, ttl_ticks);
        if stored {
            self.stats.poisonings += 1;
        }
        stored
    }

    /// The deepest live cut that encloses `name` (lowercased): its label
    /// count and server. One probe per label boundary of the wire name,
    /// deepest first; allocation-free. `None` means start at the root.
    fn deepest_cut(&self, now: SimTime, name: &Name) -> Option<(u8, Ipv4Addr)> {
        let mut buf = [0u8; MAX_WIRE];
        let mut wire = name_wire(name, &mut buf)?;
        let mut labels = name.labels().len() as u8;
        while labels > 0 {
            if let Some(c) = self.cuts.get(&canonical_key(wire, RecordType::Ns)) {
                if now < c.expires_at && c.cut.as_bytes() == wire {
                    return Some((labels, c.server));
                }
            }
            wire = skip_labels(wire, 1);
            labels -= 1;
        }
        None
    }

    /// Caches the cut made of the last `labels` labels of `name`
    /// (lowercased), served at `server`, until `now + ttl_ticks`. A zero
    /// TTL stores nothing; at capacity the soonest-expiring cut goes
    /// first.
    fn insert_cut(
        &mut self,
        now: SimTime,
        name: &Name,
        labels: u8,
        server: Ipv4Addr,
        ttl_ticks: SimTime,
    ) {
        let mut buf = [0u8; MAX_WIRE];
        let wire = match name_wire(name, &mut buf) {
            Some(wire) if ttl_ticks > 0 => wire,
            _ => return,
        };
        let cut = skip_labels(wire, name.labels().len() - labels as usize);
        let key = canonical_key(cut, RecordType::Ns);
        if self.cuts.len() >= self.capacity && !self.cuts.contains_key(&key) {
            self.evict_soonest(Table::Cuts);
        }
        let mut cbuf = self.pool.checkout();
        cbuf.as_mut_vec().extend_from_slice(cut);
        let expires_at = now.saturating_add(ttl_ticks);
        let entry = CutEntry {
            cut: cbuf,
            server,
            expires_at,
        };
        if let Some(old) = self.cuts.insert(key, entry) {
            self.pool.checkin(old.cut);
        }
        self.expiry.push(Reverse((expires_at, key, Table::Cuts)));
    }

    /// Batched expiry: drops every entry and cut whose TTL has run out
    /// at `now`. Amortized O(expired · log n); nothing is scanned when
    /// nothing is due, so the hot path stays flat under churn.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&Reverse((due, key, table))) = self.expiry.peek() {
            if due > now {
                break;
            }
            self.expiry.pop();
            // The heap may hold stale tickets for keys that were
            // overwritten with a later expiry; drop only a true match.
            if self.remove_if(table, key, |at| at <= now) && table == Table::Answers {
                self.stats.expirations += 1;
            }
        }
    }

    /// Drops `table`'s soonest-expiring entry. Live tickets of the
    /// other table that the search pops go back on the heap.
    fn evict_soonest(&mut self, table: Table) {
        while let Some(Reverse(ticket)) = self.expiry.pop() {
            let (due, key, of) = ticket;
            if of != table {
                self.aside.push(ticket);
            } else if self.remove_if(table, key, |at| at == due) {
                if table == Table::Answers {
                    self.stats.evictions += 1;
                }
                break;
            }
        }
        self.expiry.extend(self.aside.drain(..).map(Reverse));
    }

    /// Removes `key` from `table` if its expiry satisfies `due`, and
    /// returns its buffers to the pool.
    fn remove_if(&mut self, table: Table, key: u64, due: impl Fn(SimTime) -> bool) -> bool {
        match table {
            Table::Answers if self.entries.get(&key).is_some_and(|e| due(e.expires_at)) => {
                let e = self.entries.remove(&key).expect("checked present");
                self.pool.checkin(e.qname);
                self.pool.checkin(e.answer);
                true
            }
            Table::Cuts if self.cuts.get(&key).is_some_and(|c| due(c.expires_at)) => {
                let c = self.cuts.remove(&key).expect("checked present");
                self.pool.checkin(c.cut);
                true
            }
            _ => false,
        }
    }
}

/// The simulated internet: authoritative [`ZoneServer`]s by address,
/// plus the root hint a resolution chain starts from.
#[derive(Debug)]
pub struct Internet {
    servers: HashMap<Ipv4Addr, ZoneServer>,
    root: Ipv4Addr,
}

impl Internet {
    /// An internet whose root servers answer at `root`.
    pub fn new(root: Ipv4Addr) -> Self {
        Internet {
            servers: HashMap::new(),
            root,
        }
    }

    /// The root hint.
    pub fn root(&self) -> Ipv4Addr {
        self.root
    }

    /// Deploys an authoritative server at `addr`.
    pub fn add_server(&mut self, addr: Ipv4Addr, server: ZoneServer) -> &mut Self {
        self.servers.insert(addr, server);
        self
    }

    /// The server at `addr`, if one is deployed.
    pub fn server(&self, addr: Ipv4Addr) -> Option<&ZoneServer> {
        self.servers.get(&addr)
    }
}

/// Counters the resolver keeps (cache counters live in [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries handled (hit or miss).
    pub client_queries: u64,
    /// Queries sent to authoritative servers.
    pub upstream_queries: u64,
    /// Referrals followed.
    pub referrals: u64,
    /// CNAME links followed.
    pub cname_follows: u64,
    /// Referrals whose nameserver had no glue and needed its own
    /// resolution chain.
    pub glue_chases: u64,
    /// Resolutions that dead-ended (NXDOMAIN, loops, silent servers).
    pub failures: u64,
    /// Frames (client misses, followed CNAMEs, glue chases) that started
    /// at a cached zone cut instead of the root.
    pub cut_starts: u64,
}

/// One link of the resolution chain: the name currently being resolved
/// (lowercased; CNAME rewrites replace it), the zone it is asking, and
/// loop budgets. Glue chases push a fresh frame; its answer becomes the
/// parent's next server address.
#[derive(Debug)]
struct Frame {
    name: Name,
    qtype: RecordType,
    /// The zone the next server is asked as: the label count of a suffix
    /// of `name`. `None` once the frame followed a referral off its
    /// path, or a server address no enclosing zone vouched for; such a
    /// frame caches nothing until it restarts.
    zone: Option<u8>,
    /// A glueless cut this frame waits on: its label count and NS TTL.
    /// The glue chase above the frame fills in its server.
    pending: Option<(u8, u32)>,
    cnames: u8,
    referrals: u8,
}

impl Frame {
    fn new(mut name: Name, qtype: RecordType) -> Self {
        name.make_ascii_lowercase();
        Frame {
            name,
            qtype,
            zone: Some(0),
            pending: None,
            cnames: 0,
            referrals: 0,
        }
    }

    /// The last `n` labels of the name.
    fn suffix(&self, n: usize) -> &[Label] {
        let labels = self.name.labels();
        &labels[labels.len() - n..]
    }

    /// Bailiwick rule for a referral to `cut`: its label count when the
    /// cut lies on this frame's path, strictly below the zone asked.
    fn cacheable_cut(&self, cut: NameRef<'_>) -> Option<u8> {
        let zone = self.zone? as usize;
        let n = cut.labels().count();
        let on_path = n > zone && n <= self.name.labels().len() && ends_with(cut, self.suffix(n));
        on_path.then_some(n as u8)
    }
}

/// Whether `name` ends with the labels `zone`, ignoring ASCII case.
fn ends_with(name: NameRef<'_>, zone: &[Label]) -> bool {
    let n = name.labels().count();
    n >= zone.len()
        && name
            .labels()
            .skip(n - zone.len())
            .zip(zone)
            .all(|(a, b)| a.eq_ignore_ascii_case(b.as_bytes()))
}

/// A recursive resolver over an [`Internet`], with a poisonable
/// [`ResolverCache`] and a deterministic event trace.
#[derive(Debug)]
pub struct RecursiveResolver {
    seed: u64,
    cache: ResolverCache,
    /// The event clock.
    now: SimTime,
    /// Draw indices used so far, one per arrival and one per latency
    /// draw: the next draw's index.
    events: u64,
    trace: String,
    stats: ResolverStats,
    next_id: u16,
    /// The frame stack of the resolution in progress (kept between
    /// misses for its capacity).
    stack: Vec<Frame>,
    /// Upstream query and reply buffers.
    pool: BufPool,
}

fn ip_link(addr: Ipv4Addr) -> u64 {
    u32::from(addr) as u64
}

/// Appends one clock-stamped line, `[{t:>10}us] {line}`, to the trace.
/// The stamp's digits are written by hand: the padded integer format
/// costs about as much as the rest of a line.
fn trace_line(trace: &mut String, t: SimTime, line: fmt::Arguments<'_>) {
    let mut stamp = [b' '; 20];
    let mut at = stamp.len();
    let mut rest = t;
    loop {
        at -= 1;
        stamp[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    trace.push('[');
    trace.push_str(std::str::from_utf8(&stamp[at.min(10)..]).unwrap_or_default());
    trace.push_str("us] ");
    let _ = trace.write_fmt(line);
    trace.push('\n');
}

/// Displays an IPv4 address exactly as [`Ipv4Addr`] does, with one
/// `write_str`. The std impl formats each octet through the integer
/// padding machinery, which made addresses the costliest part of a
/// trace line.
#[derive(Debug, Clone, Copy)]
struct Dotted(Ipv4Addr);

impl fmt::Display for Dotted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 15];
        let mut n = 0;
        for (i, octet) in self.0.octets().into_iter().enumerate() {
            if i > 0 {
                buf[n] = b'.';
                n += 1;
            }
            if octet >= 100 {
                buf[n] = b'0' + octet / 100;
                n += 1;
            }
            if octet >= 10 {
                buf[n] = b'0' + octet / 10 % 10;
                n += 1;
            }
            buf[n] = b'0' + octet % 10;
            n += 1;
        }
        f.write_str(std::str::from_utf8(&buf[..n]).map_err(|_| fmt::Error)?)
    }
}

/// Writes the upstream query for `frame` into `out`: the bytes of
/// `Message::query(id, Question::new(name, qtype)).encode()` (RD set,
/// one uncompressed IN question).
fn write_query(out: &mut WireBuf, id: u16, frame: &Frame) -> Result<(), DnsError> {
    let mut w = WireWriter::from_vec(std::mem::take(out.as_mut_vec()));
    Header {
        id,
        qdcount: 1,
        ..Header::default()
    }
    .encode(&mut w)?;
    frame.name.encode_uncompressed(&mut w)?;
    w.write_u16(frame.qtype.to_u16())?;
    w.write_u16(RecordClass::In.to_u16())?;
    *out.as_mut_vec() = w.into_bytes();
    Ok(())
}

impl RecursiveResolver {
    /// A resolver with the given latency seed and cache capacity.
    pub fn new(seed: u64, cache_capacity: usize) -> Self {
        RecursiveResolver {
            seed,
            cache: ResolverCache::new(cache_capacity),
            now: 0,
            events: 0,
            trace: String::new(),
            stats: ResolverStats::default(),
            next_id: 1,
            stack: Vec::new(),
            pool: BufPool::new(),
        }
    }

    /// The event clock, in ticks ([`TICKS_PER_SEC`] per second).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the event clock to `t` (arrivals between queries),
    /// expiring everything due on the way.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        self.cache.advance(self.now);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// The answer cache.
    pub fn cache(&self) -> &ResolverCache {
        &self.cache
    }

    /// The event trace so far: one line per state-machine transition,
    /// stamped with the event clock. Byte-identical for equal seeds.
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Discards the trace (long fleet runs truncate between cohorts).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Injects `response` under `query`'s canonical question for
    /// `ttl_secs` — the upstream cache-poisoning event. Returns whether
    /// the injection stuck.
    pub fn poison(&mut self, query: &[u8], response: &[u8], ttl_secs: u32) -> bool {
        let now = self.now;
        let stored = self
            .cache
            .poison(now, query, response, ttl_secs as SimTime * TICKS_PER_SEC);
        // A stored entry implies a canonical question.
        if let Some((_, qtype, _)) = canonical_question(query).filter(|_| stored) {
            let line = format_args!("poisoned {qtype} ttl={ttl_secs}s");
            trace_line(&mut self.trace, now, line);
        }
        stored
    }

    /// Handles one client query: answers from the cache when a live
    /// entry matches, otherwise runs the full recursive chain and
    /// caches the result. Returns the response bytes, or `None` when
    /// resolution dead-ends.
    pub fn handle_query(&mut self, net: &mut Internet, query: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        if self.handle_query_into(net, query, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// [`handle_query`](Self::handle_query) into a reusable buffer:
    /// replaces `out`'s contents and returns `true`, or returns `false`
    /// on a dead end. The cache-hit path with a warm `out` is
    /// allocation-free.
    pub fn handle_query_into(
        &mut self,
        net: &mut Internet,
        query: &[u8],
        out: &mut Vec<u8>,
    ) -> bool {
        self.stats.client_queries += 1;
        let now = self.now;
        self.cache.advance(now);
        if self.cache.lookup_into(now, query, out) {
            return true;
        }
        let client = match MessageView::parse(query) {
            Ok(m) if !m.is_response() => m,
            _ => {
                self.stats.failures += 1;
                return false;
            }
        };
        let Some(question) = client.questions().next() else {
            self.stats.failures += 1;
            return false;
        };
        let frame = Frame::new(question.name().to_name(), question.qtype());
        let Some(reply) = self.run(net, frame) else {
            self.stats.failures += 1;
            return false;
        };
        let mut buf = WireBuf::from_vec(std::mem::take(out));
        let ttl_secs = respond(&mut buf, &client, reply.as_bytes());
        *out = buf.into_vec();
        self.pool.checkin(reply);
        let Ok(ttl_secs) = ttl_secs else {
            self.stats.failures += 1;
            return false;
        };
        self.cache
            .insert(self.now, query, out, ttl_secs as SimTime * TICKS_PER_SEC);
        true
    }

    /// Walks InitQuery → QueryTarget → QueryResponse to completion for
    /// one question. Returns the reply that carried the final answer
    /// set.
    fn run(&mut self, net: &mut Internet, frame: Frame) -> Option<WireBuf> {
        let root = net.root();
        trace_line(
            &mut self.trace,
            self.now,
            format_args!("init {} {}", frame.name, frame.qtype),
        );
        self.stack.clear();
        self.stack.push(frame);
        // The arrival takes a draw index of its own.
        self.events += 1;
        let mut server = self.start(root);
        loop {
            self.wait(server);
            let reply = self.exchange(net, self.now, server);
            self.wait(server);
            let step = self.on_response(self.now, server, reply.as_ref().map(WireBuf::as_bytes));
            let next = match step {
                Step::Done => return reply,
                Step::Send(next) => Some(next),
                Step::Start => Some(self.start(root)),
                Step::Fail => None,
            };
            if let Some(reply) = reply {
                self.pool.checkin(reply);
            }
            server = next?;
        }
    }

    /// Points the top frame at the deepest live cut enclosing its name,
    /// or at `root` when none does, and returns that server.
    fn start(&mut self, root: Ipv4Addr) -> Ipv4Addr {
        let frame = self.stack.last_mut().expect("a start implies a frame");
        let (zone, server) = self
            .cache
            .deepest_cut(self.now, &frame.name)
            .unwrap_or((0, root));
        frame.zone = Some(zone);
        if zone > 0 {
            self.stats.cut_starts += 1;
        }
        server
    }

    /// Sends the top frame's query to `server` and returns its reply in
    /// a pooled buffer (`None` when no server answers there).
    fn exchange(&mut self, net: &mut Internet, t: SimTime, server: Ipv4Addr) -> Option<WireBuf> {
        let f = self.stack.last().expect("a query implies a frame");
        trace_line(
            &mut self.trace,
            t,
            format_args!("-> {} {} {}", Dotted(server), f.name, f.qtype),
        );
        self.stats.upstream_queries += 1;
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let mut query = self.pool.checkout();
        let mut reply = self.pool.checkout();
        let answered = write_query(&mut query, id, f).is_ok()
            && net
                .servers
                .get_mut(&server)
                .is_some_and(|s| s.handle_into(query.as_bytes(), &mut reply));
        self.pool.checkin(query);
        if answered {
            Some(reply)
        } else {
            self.pool.checkin(reply);
            None
        }
    }

    /// Classifies one upstream reply in place, caches the zone cuts the
    /// bailiwick rule admits, and advances the frame stack. Names are
    /// materialized only for a followed CNAME or a glue chase.
    fn on_response(&mut self, t: SimTime, server: Ipv4Addr, reply: Option<&[u8]>) -> Step {
        let trace = &mut self.trace;
        let server = Dotted(server);
        let Some(reply) = reply else {
            trace_line(trace, t, format_args!("<- {server} silent"));
            return Step::Fail;
        };
        let Ok(msg) = MessageView::parse(reply) else {
            trace_line(trace, t, format_args!("<- {server} undecodable"));
            return Step::Fail;
        };
        if msg.rcode() == Rcode::NxDomain {
            trace_line(trace, t, format_args!("<- {server} nxdomain"));
            return Step::Fail;
        }
        let frame = self.stack.last_mut().expect("a response implies a frame");
        // A final answer: records of the asked type at the asked name.
        let done = msg
            .answers()
            .any(|r| r.rtype() == frame.qtype && r.owner().eq_name(&frame.name));
        if done {
            let n = msg.answers().len();
            trace_line(trace, t, format_args!("<- {server} answer ({n} records)"));
            let chase = self.stack.pop().expect("a response implies a frame");
            let Some(parent) = self.stack.last_mut() else {
                return Step::Done;
            };
            // A finished glue chase: the first address becomes the
            // parent frame's next server, and the server of the cut the
            // parent waits on.
            let Some((addr, a_ttl)) = msg.answers().find_map(|r| Some((r.a()?, r.ttl()))) else {
                return Step::Fail;
            };
            trace_line(trace, t, format_args!("glue resolved -> {}", Dotted(addr)));
            match parent.pending.take() {
                Some((labels, ns_ttl)) if chase.zone.is_some() => {
                    let ttl = ns_ttl.min(a_ttl) as SimTime * TICKS_PER_SEC;
                    self.cache.insert_cut(t, &parent.name, labels, addr, ttl);
                }
                // An address found off-path vouches for nothing.
                _ => parent.zone = None,
            }
            return Step::Send(addr);
        }
        // A CNAME for the current name: rewrite and restart at the
        // deepest cut enclosing the target.
        let cname = msg
            .answers()
            .find(|r| r.rtype() == RecordType::Cname && r.owner().eq_name(&frame.name));
        if let Some(target) = cname.and_then(|r| r.target()) {
            frame.cnames += 1;
            if frame.cnames > MAX_CNAME_FOLLOWS {
                trace_line(trace, t, format_args!("cname loop"));
                return Step::Fail;
            }
            frame.name = target.to_name();
            frame.name.make_ascii_lowercase();
            self.stats.cname_follows += 1;
            trace_line(
                trace,
                t,
                format_args!("<- {server} cname -> {}", frame.name),
            );
            return Step::Start;
        }
        // A referral: NS in the authority section, maybe glue in the
        // additional section.
        let ns = msg.authorities().find(|r| r.rtype() == RecordType::Ns);
        if let Some((ns, cut, ns_name)) = ns.and_then(|r| Some((r, r.owner(), r.target()?))) {
            frame.referrals += 1;
            if frame.referrals > MAX_REFERRALS {
                trace_line(trace, t, format_args!("referral loop"));
                return Step::Fail;
            }
            self.stats.referrals += 1;
            let cacheable = frame.cacheable_cut(cut);
            let glue = msg
                .additionals()
                .find(|r| r.rtype() == RecordType::A && r.owner().eq_ignore_case(&ns_name))
                .and_then(|r| Some((r, r.a()?)));
            if let Some((glue, addr)) = glue {
                trace_line(
                    trace,
                    t,
                    format_args!("<- {server} referral {cut} -> {ns_name} ({})", Dotted(addr)),
                );
                // Glue counts only from the zone that owns its name.
                let zone = frame.zone.unwrap_or(0) as usize;
                frame.zone = cacheable.filter(|_| ends_with(glue.owner(), frame.suffix(zone)));
                if let Some(labels) = frame.zone {
                    let ttl = ns.ttl().min(glue.ttl()) as SimTime * TICKS_PER_SEC;
                    self.cache.insert_cut(t, &frame.name, labels, addr, ttl);
                }
                return Step::Send(addr);
            }
            // Glue chase: resolve the nameserver's address first.
            trace_line(
                trace,
                t,
                format_args!("<- {server} referral {cut} -> {ns_name} (no glue)"),
            );
            self.stats.glue_chases += 1;
            frame.zone = cacheable;
            frame.pending = cacheable.map(|labels| (labels, ns.ttl()));
            if self.stack.len() > MAX_REFERRALS as usize {
                return Step::Fail;
            }
            self.stack
                .push(Frame::new(ns_name.to_name(), RecordType::A));
            return Step::Start;
        }
        trace_line(trace, t, format_args!("<- {server} dead end"));
        Step::Fail
    }

    /// Advances the clock by one seeded latency draw on `server`'s link.
    fn wait(&mut self, server: Ipv4Addr) {
        let delay = link_latency_us(self.seed, ip_link(server), self.events);
        self.events += 1;
        self.now = self.now.saturating_add(delay);
    }
}

/// Encodes the client's response into `out` from the answer section of
/// the final upstream `reply`, record by record without decoding them.
/// Returns the smallest answer TTL, in seconds.
fn respond(out: &mut WireBuf, client: &MessageView<'_>, reply: &[u8]) -> Result<u32, DnsError> {
    let reply = MessageView::parse(reply)?;
    let mut enc = ResponseEncoder::new(out, client, Rcode::NoError)?;
    let mut ttl_secs = u32::MAX;
    for a in reply.answers() {
        ttl_secs = ttl_secs.min(a.ttl());
        enc.answer(&a)?;
    }
    enc.finish(out);
    Ok(ttl_secs)
}

/// Control-flow result of classifying one response.
enum Step {
    /// Query this server next, for the top frame.
    Send(Ipv4Addr),
    /// Start the top frame at the deepest cached cut enclosing its name.
    Start,
    /// The reply carries the final answer set.
    Done,
    Fail,
}

/// Builds the small demo internet the CLI and the smoke tests resolve
/// against: a root zone delegating `example`, an `example` TLD zone
/// delegating `vendor.example` (with glue) and `cdn.example` (without
/// glue, forcing a chase), and authoritative zones with a CNAME chain.
/// Returns the internet and the name whose resolution exercises every
/// transition: `www.vendor.example` → CNAME → `edge.cdn.example`.
pub fn example_internet() -> (Internet, Name) {
    use cml_dns::Zone;

    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let tld_addr = Ipv4Addr::new(192, 5, 6, 30);
    let vendor_addr = Ipv4Addr::new(203, 0, 113, 53);
    let cdn_addr = Ipv4Addr::new(203, 0, 113, 54);

    let mut root = Zone::rooted("");
    root.ns("example", 172800, "a.gtld.example")
        .a("a.gtld.example", 172800, tld_addr);

    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86400, "ns1.vendor.example")
        .a("ns1.vendor.example", 86400, vendor_addr)
        // The cdn nameserver is out-of-bailiwick (its address lives in
        // the vendor zone), so this delegation carries no glue and any
        // resolution under cdn.example chases the nameserver first.
        .ns("cdn.example", 86400, "cdnns.vendor.example");

    let mut vendor = Zone::rooted("vendor.example");
    vendor
        .a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .cname("www.vendor.example", 600, "edge.cdn.example")
        .a("ns1.vendor.example", 86400, vendor_addr)
        .a("cdnns.vendor.example", 86400, cdn_addr);

    let mut cdn = Zone::rooted("cdn.example");
    cdn.a("edge.cdn.example", 120, Ipv4Addr::new(203, 0, 113, 80));

    let mut net = Internet::new(root_addr);
    net.add_server(root_addr, ZoneServer::new(root))
        .add_server(tld_addr, ZoneServer::new(tld))
        .add_server(vendor_addr, ZoneServer::new(vendor))
        .add_server(cdn_addr, ZoneServer::new(cdn));
    (net, Name::parse("www.vendor.example").expect("static name"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_dns::{Message, Question, Record, RecordData};

    fn a_query(id: u16, name: &str) -> Vec<u8> {
        Message::query(id, Question::new(Name::parse(name).unwrap(), RecordType::A))
            .encode()
            .unwrap()
    }

    #[test]
    fn resolves_through_delegation_and_glue() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let resp = r
            .handle_query(&mut net, &a_query(42, "telemetry.vendor.example"))
            .expect("resolves");
        let m = Message::decode(&resp).unwrap();
        assert_eq!(m.id(), 42);
        assert_eq!(
            m.answers()[0].to_string(),
            "telemetry.vendor.example 300 IN A 203.0.113.7"
        );
        // Chain: root referral -> tld referral -> authoritative answer.
        assert_eq!(r.stats().referrals, 2);
        assert_eq!(r.stats().upstream_queries, 3);
        assert!(r.trace().contains("referral example -> a.gtld.example"));
    }

    #[test]
    fn follows_cname_across_zones_with_glue_chase() {
        let (mut net, www) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(9, &www.to_string());
        let resp = r.handle_query(&mut net, &q).expect("resolves");
        let m = Message::decode(&resp).unwrap();
        assert!(m
            .answers()
            .iter()
            .any(|rec| rec.to_string() == "edge.cdn.example 120 IN A 203.0.113.80"));
        assert_eq!(r.stats().cname_follows, 1);
        assert_eq!(r.stats().glue_chases, 1, "cdn delegation has no glue");
        assert!(r.trace().contains("(no glue)"));
        assert!(r.trace().contains("glue resolved ->"));
        // The chased address now serves the glueless cut: a second name
        // under it costs one exchange, started at that cut.
        let cdn = Ipv4Addr::new(203, 0, 113, 54);
        let edge = Name::parse("edge.cdn.example").unwrap();
        assert_eq!(r.cache.deepest_cut(r.now(), &edge), Some((2, cdn)));
        let (upstream, starts) = (r.stats().upstream_queries, r.stats().cut_starts);
        assert!(r
            .handle_query(&mut net, &a_query(10, "img.cdn.example"))
            .is_none());
        assert_eq!(r.stats().upstream_queries - upstream, 1);
        assert_eq!(r.stats().cut_starts - starts, 1);
    }

    #[test]
    fn second_query_hits_cache_and_any_case_matches() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let cold = r
            .handle_query(&mut net, &a_query(1, "telemetry.vendor.example"))
            .expect("resolves");
        let upstream_after_cold = r.stats().upstream_queries;
        let warm = r
            .handle_query(&mut net, &a_query(0xBEEF, "Telemetry.VENDOR.example"))
            .expect("cache hit");
        assert_eq!(
            r.stats().upstream_queries,
            upstream_after_cold,
            "no re-fetch"
        );
        assert_eq!(r.cache().stats().hits, 1);
        assert_eq!(warm[0..2], 0xBEEFu16.to_be_bytes(), "id patched");
        assert_eq!(warm[2..], cold[2..], "same answer bytes after the id");
    }

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let run = |seed| {
            let (mut net, www) = example_internet();
            let mut r = RecursiveResolver::new(seed, 64);
            r.handle_query(&mut net, &a_query(5, &www.to_string()))
                .expect("resolves");
            r.trace().to_string()
        };
        assert_eq!(run(7), run(7), "same seed, same trace bytes");
        assert_ne!(run(7), run(8), "latency draws depend on the seed");
    }

    #[test]
    fn nxdomain_fails_cleanly() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        assert!(r
            .handle_query(&mut net, &a_query(1, "ghost.vendor.example"))
            .is_none());
        assert_eq!(r.stats().failures, 1);
    }

    #[test]
    fn poisoned_cache_redirects_every_dependent_query() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(1, "telemetry.vendor.example");
        // The attacker's answer: same question, attacker's address.
        let mut forged = Message::response_to(&Message::decode(&q).unwrap());
        forged.push_answer(Record::new(
            Name::parse("telemetry.vendor.example").unwrap(),
            600,
            RecordData::A(Ipv4Addr::new(10, 13, 37, 99)),
        ));
        let forged = forged.encode().unwrap();
        assert!(r.poison(&q, &forged, 600));
        // Every client from now on gets the injected bytes — the
        // authoritative servers are never consulted.
        for id in [2u16, 3, 4] {
            let resp = r
                .handle_query(&mut net, &a_query(id, "telemetry.vendor.example"))
                .expect("served from poison");
            let m = Message::decode(&resp).unwrap();
            assert_eq!(m.id(), id);
            assert_eq!(
                m.answers()[0].to_string(),
                "telemetry.vendor.example 600 IN A 10.13.37.99"
            );
        }
        assert_eq!(r.stats().upstream_queries, 0);
        assert_eq!(r.cache().stats().poisonings, 1);
        assert_eq!(r.cache().stats().hits, 3);
        assert_eq!(
            r.cache.cuts.len(),
            0,
            "poison injects an answer, never a cut"
        );
    }

    const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const EVIL: Ipv4Addr = Ipv4Addr::new(10, 13, 37, 99);

    /// A root that delegates `example` to [`TLD`] with glue, and that
    /// TLD zone, for the hostile internets below.
    fn root_and_tld() -> (Internet, cml_dns::Zone) {
        let mut root = cml_dns::Zone::rooted("");
        root.ns("example", 172800, "a.gtld.example")
            .a("a.gtld.example", 172800, TLD);
        let mut net = Internet::new(Ipv4Addr::new(198, 41, 0, 4));
        net.add_server(net.root(), ZoneServer::new(root));
        (net, cml_dns::Zone::rooted("example"))
    }

    /// A resolver whose top frame resolves `name` and is asking the zone
    /// with `zone` labels.
    fn asking(name: &str, zone: u8) -> RecursiveResolver {
        let mut r = RecursiveResolver::new(7, 64);
        let mut frame = Frame::new(Name::parse(name).unwrap(), RecordType::A);
        frame.zone = Some(zone);
        r.stack.push(frame);
        r
    }

    /// A reply to `name` that refers `cut` to `ns`, with glue when given.
    fn referral(
        name: &str,
        cut: &str,
        ns: &str,
        ttl: u32,
        glue: Option<(u32, Ipv4Addr)>,
    ) -> Vec<u8> {
        let q = Message::decode(&a_query(1, name)).unwrap();
        let mut m = Message::response_to(&q);
        let ns_name = Name::parse(ns).unwrap();
        let data = RecordData::Ns(ns_name.clone());
        m.push_authority(Record::new(Name::parse(cut).unwrap(), ttl, data));
        if let Some((ttl, addr)) = glue {
            m.push_additional(Record::new(ns_name, ttl, RecordData::A(addr)));
        }
        m.encode().unwrap()
    }

    fn name(text: &str) -> Name {
        Name::parse(text).unwrap()
    }

    #[test]
    fn child_zone_cannot_redirect_its_parent_zone() {
        let (mut net, mut tld) = root_and_tld();
        let vendor = Ipv4Addr::new(203, 0, 113, 53);
        let other = Ipv4Addr::new(203, 0, 113, 60);
        tld.ns("vendor.example", 86400, "ns1.vendor.example")
            .a("ns1.vendor.example", 86400, vendor)
            .ns("other.example", 86400, "ns1.other.example")
            .a("ns1.other.example", 86400, other);
        // The hostile child answers every name under it with a referral
        // for its parent zone, glue inside its own zone.
        let mut hostile = cml_dns::Zone::new();
        hostile
            .ns("example", 172800, "ns.vendor.example")
            .a("ns.vendor.example", 172800, EVIL);
        let mut honest = cml_dns::Zone::rooted("other.example");
        honest.a("www.other.example", 300, Ipv4Addr::new(198, 51, 100, 1));
        net.add_server(TLD, ZoneServer::new(tld))
            .add_server(vendor, ZoneServer::new(hostile))
            .add_server(other, ZoneServer::new(honest));

        let mut r = RecursiveResolver::new(7, 64);
        assert!(r
            .handle_query(&mut net, &a_query(1, "x.vendor.example"))
            .is_none());
        assert!(r
            .trace()
            .contains("referral example -> ns.vendor.example (10.13.37.99)"));
        assert!(
            r.trace().contains("-> 10.13.37.99 x.vendor.example"),
            "followed"
        );
        let later = name("www.other.example");
        assert_eq!(r.cache.deepest_cut(r.now(), &later), Some((1, TLD)));
        r.clear_trace();
        let resp = r
            .handle_query(&mut net, &a_query(2, "www.other.example"))
            .expect("resolves honestly");
        let m = Message::decode(&resp).unwrap();
        assert_eq!(
            m.answers()[0].to_string(),
            "www.other.example 300 IN A 198.51.100.1"
        );
        assert!(!r.trace().contains("10.13.37.99"), "{}", r.trace());
    }

    #[test]
    fn off_path_referral_is_followed_but_not_cached() {
        let mut r = asking("x.vendor.example", 2);
        let sibling = referral(
            "x.vendor.example",
            "sibling.vendor.example",
            "ns.sibling.vendor.example",
            86400,
            Some((86400, EVIL)),
        );
        let step = r.on_response(0, TLD, Some(&sibling));
        assert!(matches!(step, Step::Send(a) if a == EVIL), "followed");
        assert_eq!(r.cache.cuts.len(), 0);
        assert_eq!(r.stack[0].zone, None);
        // Nothing more is cached for this frame, even on its own path.
        let on_path = referral(
            "x.vendor.example",
            "x.vendor.example",
            "ns.x.vendor.example",
            86400,
            Some((86400, EVIL)),
        );
        assert!(matches!(
            r.on_response(1, EVIL, Some(&on_path)),
            Step::Send(_)
        ));
        assert_eq!(r.cache.cuts.len(), 0);
        assert_eq!(
            r.cache.deepest_cut(2, &name("a.sibling.vendor.example")),
            None
        );
    }

    #[test]
    fn glue_outside_the_asked_zone_is_not_cached() {
        let (mut net, mut tld) = root_and_tld();
        let vendor = Ipv4Addr::new(203, 0, 113, 53);
        // The TLD vouches for an address in a zone it does not own.
        tld.ns("vendor.example", 86400, "ns.vendor.test")
            .a("ns.vendor.test", 86400, vendor);
        let mut zone = cml_dns::Zone::rooted("vendor.example");
        zone.a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .a("api.vendor.example", 300, Ipv4Addr::new(203, 0, 113, 8));
        net.add_server(TLD, ZoneServer::new(tld))
            .add_server(vendor, ZoneServer::new(zone));

        let mut r = RecursiveResolver::new(7, 64);
        assert!(r
            .handle_query(&mut net, &a_query(1, "telemetry.vendor.example"))
            .is_some());
        assert_eq!(r.stats().upstream_queries, 3, "the glue is still followed");
        assert_eq!(r.cache.cuts.len(), 1, "only the root's referral is cached");
        let api = name("api.vendor.example");
        assert_eq!(r.cache.deepest_cut(r.now(), &api), Some((1, TLD)));
        assert!(r
            .handle_query(&mut net, &a_query(2, "api.vendor.example"))
            .is_some());
        assert_eq!(r.stats().upstream_queries, 5, "the TLD is asked again");
    }

    #[test]
    fn cut_ttl_boundaries_are_exact() {
        let host = name("x.vendor.example");
        let vendor = Ipv4Addr::new(203, 0, 113, 53);
        let mut cache = ResolverCache::new(8);
        cache.insert_cut(1000, &host, 2, vendor, 500);
        assert_eq!(
            cache.deepest_cut(1499, &host),
            Some((2, vendor)),
            "one tick before"
        );
        assert_eq!(cache.deepest_cut(1500, &host), None, "exactly at expiry");
        cache.advance(1499);
        assert_eq!(cache.cuts.len(), 1);
        cache.advance(1500);
        assert_eq!(cache.cuts.len(), 0, "batched expiry reclaims the cut");
        assert_eq!(cache.stats().expirations, 0, "answer counters only");

        // A referral with glue lives for the smaller of the NS and glue
        // TTLs, from the tick its reply arrived.
        let mut r = asking("x.vendor.example", 1);
        let reply = referral(
            "x.vendor.example",
            "vendor.example",
            "ns1.vendor.example",
            30,
            Some((20, vendor)),
        );
        assert!(matches!(
            r.on_response(1000, TLD, Some(&reply)),
            Step::Send(_)
        ));
        let end = 1000 + 20 * TICKS_PER_SEC;
        assert_eq!(r.cache.deepest_cut(end - 1, &host), Some((2, vendor)));
        assert_eq!(r.cache.deepest_cut(end, &host), None);

        // A glueless cut takes the chased address for the smaller of
        // the NS and A TTLs, from the tick the chase's answer arrived.
        let mut r = asking("x.cdn.example", 1);
        let reply = referral(
            "x.cdn.example",
            "cdn.example",
            "ns.vendor.example",
            50,
            None,
        );
        assert!(matches!(
            r.on_response(1000, TLD, Some(&reply)),
            Step::Start
        ));
        assert_eq!(r.stack[0].pending, Some((2, 50)));
        let cdn = Ipv4Addr::new(203, 0, 113, 54);
        let q = Message::decode(&a_query(1, "ns.vendor.example")).unwrap();
        let mut answer = Message::response_to(&q);
        answer.push_answer(Record::new(
            name("ns.vendor.example"),
            40,
            RecordData::A(cdn),
        ));
        let answer = answer.encode().unwrap();
        let step = r.on_response(2000, vendor, Some(&answer));
        assert!(matches!(step, Step::Send(a) if a == cdn));
        let edge = name("edge.cdn.example");
        let end = 2000 + 40 * TICKS_PER_SEC;
        assert_eq!(r.cache.deepest_cut(end - 1, &edge), Some((2, cdn)));
        assert_eq!(r.cache.deepest_cut(end, &edge), None);
    }

    #[test]
    fn cut_table_evicts_at_capacity() {
        let addr = |k| Ipv4Addr::new(10, 0, 0, k);
        let mut cache = ResolverCache::new(2);
        // An answer due first: cut evictions must leave its ticket.
        let q = a_query(1, "host.example");
        let resp = Message::response_to(&Message::decode(&q).unwrap())
            .encode()
            .unwrap();
        assert!(cache.insert(0, &q, &resp, 50));
        cache.insert_cut(0, &name("a.example"), 2, addr(1), 100); // expires first
        cache.insert_cut(0, &name("b.example"), 2, addr(2), 1000);
        cache.insert_cut(0, &name("c.example"), 2, addr(3), 500); // evicts a
        assert_eq!(cache.cuts.len(), 2);
        assert_eq!(cache.deepest_cut(1, &name("x.a.example")), None);
        assert_eq!(
            cache.deepest_cut(1, &name("x.b.example")),
            Some((2, addr(2)))
        );
        assert_eq!(
            cache.deepest_cut(1, &name("x.c.example")),
            Some((2, addr(3)))
        );
        assert_eq!(cache.stats().evictions, 0, "answer counters only");
        cache.advance(50);
        assert_eq!(cache.stats().expirations, 1, "the answer's ticket survived");
        // Answers evict among answers; the cuts' tickets survive too.
        let q2 = a_query(1, "other.example");
        let q3 = a_query(1, "third.example");
        assert!(cache.insert(60, &q2, &resp, 10));
        assert!(cache.insert(60, &q3, &resp, 10));
        assert!(cache.insert(60, &q, &resp, 10));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
        assert_eq!(cache.cuts.len(), 2);
        cache.advance(1000);
        assert_eq!((cache.len(), cache.cuts.len()), (0, 0));
    }

    #[test]
    fn ttl_expiry_boundaries_are_exact() {
        let mut cache = ResolverCache::new(8);
        let q = a_query(1, "host.example");
        let resp = {
            let mut m = Message::response_to(&Message::decode(&q).unwrap());
            m.push_answer(Record::new(
                Name::parse("host.example").unwrap(),
                1,
                RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ));
            m.encode().unwrap()
        };
        cache.insert(1000, &q, &resp, 500);
        let mut out = Vec::new();
        assert!(
            cache.lookup_into(1499, &q, &mut out),
            "one tick before expiry"
        );
        assert!(!cache.lookup_into(1500, &q, &mut out), "exactly at expiry");
        assert!(
            !cache.lookup_into(1501, &q, &mut out),
            "one tick after expiry"
        );
        // Batched expiry actually reclaims the entry.
        cache.advance(1500);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().expirations, 1);
    }

    #[test]
    fn capacity_evicts_soonest_expiring_first() {
        let mut cache = ResolverCache::new(2);
        let mk = |name: &str| {
            let q = a_query(1, name);
            let mut m = Message::response_to(&Message::decode(&q).unwrap());
            m.push_answer(Record::new(
                Name::parse(name).unwrap(),
                60,
                RecordData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ));
            (q, m.encode().unwrap())
        };
        let (qa, ra) = mk("a.example");
        let (qb, rb) = mk("b.example");
        let (qc, rc) = mk("c.example");
        cache.insert(0, &qa, &ra, 100); // expires first
        cache.insert(0, &qb, &rb, 1000);
        cache.insert(0, &qc, &rc, 500); // evicts a
        let mut out = Vec::new();
        assert!(
            !cache.lookup_into(1, &qa, &mut out),
            "soonest-expiring evicted"
        );
        assert!(cache.lookup_into(1, &qb, &mut out));
        assert!(cache.lookup_into(1, &qc, &mut out));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn upstream_queries_are_the_message_encoders_bytes() {
        for (id, name, qtype) in [
            (1, "www.vendor.example", RecordType::A),
            (0xFFFF, "edge.cdn.example", RecordType::Aaaa),
            (77, "", RecordType::Ns),
        ] {
            let frame = Frame::new(Name::parse(name).unwrap(), qtype);
            let mut out = WireBuf::new();
            write_query(&mut out, id, &frame).unwrap();
            let expected = Message::query(id, Question::new(frame.name.clone(), qtype));
            assert_eq!(out.as_bytes(), &expected.encode().unwrap()[..]);
        }
        let frame = Frame::new(Name::parse("WWW.Vendor.EXAMPLE").unwrap(), RecordType::A);
        assert_eq!(
            frame.name.to_string(),
            "www.vendor.example",
            "case-normalized"
        );
    }

    #[test]
    fn trace_stamps_and_addresses_format_like_std() {
        for t in [0, 7, 10, 1_348, 9_999_999_999, 10_000_000_000, u64::MAX] {
            let mut line = String::new();
            trace_line(&mut line, t, format_args!("x {}", 1));
            assert_eq!(line, format!("[{t:>10}us] x 1\n"));
        }
        for octets in [[0, 0, 0, 0], [198, 41, 0, 4], [9, 10, 99, 100], [255; 4]] {
            let addr = Ipv4Addr::from(octets);
            assert_eq!(Dotted(addr).to_string(), addr.to_string());
        }
    }

    #[test]
    fn warm_hit_path_reuses_the_output_buffer() {
        let (mut net, _) = example_internet();
        let mut r = RecursiveResolver::new(7, 64);
        let q = a_query(1, "telemetry.vendor.example");
        let mut out = Vec::new();
        assert!(r.handle_query_into(&mut net, &q, &mut out));
        assert!(r.handle_query_into(&mut net, &q, &mut out), "warm hit");
        let ptr = out.as_ptr();
        let cap = out.capacity();
        for _ in 0..64 {
            assert!(r.handle_query_into(&mut net, &q, &mut out));
        }
        assert_eq!(out.as_ptr(), ptr, "no reallocation across warm hits");
        assert_eq!(out.capacity(), cap);
    }
}
