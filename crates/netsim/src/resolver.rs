//! A recursive resolver with an allocation-free answer cache, timed by
//! the deterministic simulated clock of [`scheduler`](crate::scheduler).
//!
//! # The walk
//!
//! A cache miss walks the delegation tree exactly the way a real
//! iterative resolver does, one exchange at a time, in three steps:
//!
//! * **InitQuery** — a client query arrives; the cache missed, so a
//!   resolution chain starts at a root server.
//! * **QueryTarget** — the resolver sends a (case-normalized,
//!   uncompressed) query to one authoritative server; the packet is in
//!   flight for one seeded latency draw.
//! * **QueryResponse** — the server's answer arrives after a second
//!   draw and is classified: a final answer set, a CNAME to follow
//!   (restart at the root for the target), a referral to chase (use
//!   glue from the additional section, or recurse to resolve the
//!   nameserver's own address first), or a dead end.
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
//! # The attack surface
//!
//! [`RecursiveResolver::poison`] injects an attacker-controlled
//! response under a question's canonical key — the XDRI
//! (arXiv 2208.12003) upstream-compromise model. Every dependent
//! client from then on receives the injected bytes as an ordinary
//! cache hit: one poisoning event, fleet-wide redirection, no
//! per-device malicious delivery.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::{self, Write};
use std::net::Ipv4Addr;

use cml_dns::{
    canonical_question, BufPool, DnsError, Header, MessageView, Name, Rcode, RecordClass,
    RecordType, ResponseEncoder, WireBuf, WireWriter, ZoneServer,
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

/// The resolver's answer cache: hashed canonical-question keys, pooled
/// buffers, batched TTL expiry on the event clock. The steady-state hit
/// path ([`lookup_into`](Self::lookup_into) with a warm `out`) performs
/// zero heap allocations.
#[derive(Debug)]
pub struct ResolverCache {
    entries: HashMap<u64, CacheEntry>,
    expiry: BinaryHeap<Reverse<(SimTime, u64)>>,
    capacity: usize,
    pool: BufPool,
    stats: CacheStats,
}

impl ResolverCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ResolverCache {
            entries: HashMap::with_capacity(capacity.min(4096)),
            expiry: BinaryHeap::new(),
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
            self.evict_soonest();
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
        self.expiry.push(Reverse((expires_at, key)));
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

    /// Batched expiry: drops every entry whose TTL has run out at `now`.
    /// Amortized O(expired · log n); nothing is scanned when nothing is
    /// due, so the hot path stays flat under churn.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(&Reverse((due, key))) = self.expiry.peek() {
            if due > now {
                break;
            }
            self.expiry.pop();
            // The heap may hold stale tickets for keys that were
            // overwritten with a later expiry; drop only a true match.
            if self.entries.get(&key).is_some_and(|e| e.expires_at <= now) {
                let e = self.entries.remove(&key).expect("checked present");
                self.pool.checkin(e.qname);
                self.pool.checkin(e.answer);
                self.stats.expirations += 1;
            }
        }
    }

    fn evict_soonest(&mut self) {
        while let Some(Reverse((due, key))) = self.expiry.pop() {
            if self.entries.get(&key).is_some_and(|e| e.expires_at == due) {
                let e = self.entries.remove(&key).expect("checked present");
                self.pool.checkin(e.qname);
                self.pool.checkin(e.answer);
                self.stats.evictions += 1;
                return;
            }
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
}

/// One link of the resolution chain: the name currently being resolved
/// (lowercased; CNAME rewrites replace it) and loop budgets. Glue
/// chases push a fresh frame; its answer becomes the parent's next
/// server address.
#[derive(Debug)]
struct Frame {
    name: Name,
    qtype: RecordType,
    cnames: u8,
    referrals: u8,
}

impl Frame {
    fn new(mut name: Name, qtype: RecordType) -> Self {
        name.make_ascii_lowercase();
        Frame {
            name,
            qtype,
            cnames: 0,
            referrals: 0,
        }
    }
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
        let mut server = root;
        loop {
            self.wait(server);
            let reply = self.exchange(net, self.now, server);
            self.wait(server);
            let step = self.on_response(self.now, server, reply.as_ref().map(WireBuf::as_bytes));
            let next = match step {
                Step::Done => return reply,
                Step::Send(next) => Some(next),
                Step::Root => Some(root),
                Step::Fail => None,
            };
            if let Some(reply) = reply {
                self.pool.checkin(reply);
            }
            server = next?;
        }
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

    /// Classifies one upstream reply in place and advances the frame
    /// stack. Names are materialized only for a followed CNAME or a
    /// glue chase.
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
            self.stack.pop();
            if self.stack.is_empty() {
                return Step::Done;
            }
            // A finished glue chase: the first address becomes the
            // parent frame's next server.
            let Some(addr) = msg.answers().find_map(|r| r.a()) else {
                return Step::Fail;
            };
            trace_line(trace, t, format_args!("glue resolved -> {}", Dotted(addr)));
            return Step::Send(addr);
        }
        // A CNAME for the current name: rewrite and restart at the root.
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
            return Step::Root;
        }
        // A referral: NS in the authority section, maybe glue in the
        // additional section.
        let ns = msg.authorities().find(|r| r.rtype() == RecordType::Ns);
        if let Some((cut, ns_name)) = ns.and_then(|r| Some((r.owner(), r.target()?))) {
            frame.referrals += 1;
            if frame.referrals > MAX_REFERRALS {
                trace_line(trace, t, format_args!("referral loop"));
                return Step::Fail;
            }
            self.stats.referrals += 1;
            let glue = msg
                .additionals()
                .find(|r| r.rtype() == RecordType::A && r.owner().eq_ignore_case(&ns_name))
                .and_then(|r| r.a());
            if let Some(addr) = glue {
                trace_line(
                    trace,
                    t,
                    format_args!("<- {server} referral {cut} -> {ns_name} ({})", Dotted(addr)),
                );
                return Step::Send(addr);
            }
            // Glue chase: resolve the nameserver's address first.
            trace_line(
                trace,
                t,
                format_args!("<- {server} referral {cut} -> {ns_name} (no glue)"),
            );
            self.stats.glue_chases += 1;
            if self.stack.len() > MAX_REFERRALS as usize {
                return Step::Fail;
            }
            self.stack
                .push(Frame::new(ns_name.to_name(), RecordType::A));
            return Step::Root;
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
    /// Restart the top frame at the root.
    Root,
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
