//! The recursive-resolve workload.
//!
//! The benchmark builds a zone tree from the seed: a root, one TLD and
//! many authoritative zones, some delegated without glue (their
//! nameserver lives in another zone), some names CNAMEs into other
//! zones. One closed-loop client sends a skewed draw over a name
//! population several times the cache capacity, advancing the
//! simulated clock between queries so that both TTL expiry and capacity
//! eviction happen, and clears the resolver's trace periodically as a
//! long-running client would. A unit builds the world (the timed
//! set-up), then runs the whole query stream against a fresh
//! `RecursiveResolver`; every answer is checked against the zone the
//! name was generated in.

use std::net::Ipv4Addr;
use std::time::Instant;

use cml_dns::{Message, Name, Question, RecordType, Zone, ZoneServer};
use cml_netsim::{CacheStats, Internet, RecursiveResolver, ResolverStats, TICKS_PER_SEC};

use crate::trace::{self, median, Tracer, ROOT};
use crate::{metrics, ratio, repeat, Metric, Outcome, Replays, Run};

/// Shape of the generated zone tree and query stream.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Authoritative zones under the TLD.
    pub zones: usize,
    /// A-record hosts per zone.
    pub hosts: usize,
    /// CNAMEs per zone, each pointing into another zone.
    pub cnames: usize,
    /// Queries per unit.
    pub queries: usize,
}

/// Population ÷ cache capacity.
const POPULATION_PER_SLOT: usize = 4;

/// One in this many zones is delegated without glue.
const GLUELESS_EVERY: u64 = 8;

/// Skew of the query draw: rank = population · u^SKEW.
const SKEW: f64 = 2.0;

/// Mean simulated time between two client queries.
const MEAN_GAP_TICKS: f64 = 0.05 * TICKS_PER_SEC as f64;

/// The client clears the resolver's trace every this many queries.
const TRACE_CLEAR_EVERY: usize = 256;

const TTLS: [u32; 5] = [60, 120, 300, 600, 1800];

/// The generated internet, query population and stream.
pub struct World {
    net: Internet,
    /// Wire query per population name (the id is patched per send).
    queries: Vec<Vec<u8>>,
    /// The address each population name must resolve to.
    truth: Vec<[u8; 4]>,
    /// `(population index, clock advance)` per client query.
    stream: Vec<(u32, u64)>,
    capacity: usize,
    latency_seed: u64,
}

/// SplitMix64 step: the benchmark's own seeded stream for generated
/// inputs, so inputs never depend on the program under test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`splitmix`].
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn zone_addr(k: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1 + (k / 256) as u8, (k % 256) as u8, 53)
}

fn draw(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// Builds the world for `seed`.
pub fn build(seed: u64, size: Size) -> World {
    let mut rng = seed ^ 0x5E50_17E5;
    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let tld_addr = Ipv4Addr::new(192, 5, 6, 30);
    let mut root = Zone::rooted("");
    root.ns("example", 172_800, "a.gtld.example")
        .a("a.gtld.example", 172_800, tld_addr);
    let mut tld = Zone::rooted("example");
    let mut zones: Vec<Zone> = (0..size.zones)
        .map(|k| Zone::rooted(&format!("z{k}.example")))
        .collect();

    // Delegations: a glueless zone's nameserver is a host of an earlier
    // glued zone, so resolving it costs a chase through that zone.
    let mut glued: Vec<usize> = Vec::new();
    for k in 0..size.zones {
        let apex = format!("z{k}.example");
        if k > 0 && splitmix(&mut rng).is_multiple_of(GLUELESS_EVERY) {
            let j = glued[draw(&mut rng, glued.len())];
            let ns = format!("ns{k}.z{j}.example");
            tld.ns(&apex, 86_400, &ns);
            zones[j].a(&ns, 86_400, zone_addr(k));
        } else {
            let ns = format!("ns.{apex}");
            tld.ns(&apex, 86_400, &ns).a(&ns, 86_400, zone_addr(k));
            glued.push(k);
        }
    }

    // Hosts, then CNAMEs into other zones' hosts.
    let mut names = Vec::new();
    let mut truth = Vec::new();
    for (k, zone) in zones.iter_mut().enumerate() {
        for m in 0..size.hosts {
            let host = format!("h{m}.z{k}.example");
            let addr = (splitmix(&mut rng) as u32 | 0x0100_0000).to_be_bytes();
            zone.a(
                &host,
                TTLS[draw(&mut rng, TTLS.len())],
                Ipv4Addr::from(addr),
            );
            names.push(host);
            truth.push(addr);
        }
    }
    for k in 0..size.zones {
        for c in 0..size.cnames {
            let other = (k + 1 + draw(&mut rng, size.zones - 1)) % size.zones;
            let m = draw(&mut rng, size.hosts);
            let alias = format!("c{c}.z{k}.example");
            let target = format!("h{m}.z{other}.example");
            zones[k].cname(&alias, TTLS[draw(&mut rng, TTLS.len())], &target);
            names.push(alias);
            truth.push(truth[other * size.hosts + m]);
        }
    }

    let mut net = Internet::new(root_addr);
    net.add_server(root_addr, ZoneServer::new(root))
        .add_server(tld_addr, ZoneServer::new(tld));
    for (k, zone) in zones.into_iter().enumerate() {
        net.add_server(zone_addr(k), ZoneServer::new(zone));
    }
    let queries = names
        .iter()
        .map(|n| {
            let name = Name::parse(n).expect("generated names parse");
            Message::query(1, Question::new(name, RecordType::A))
                .encode()
                .expect("queries encode")
        })
        .collect();

    // Skewed stream: rank → name through a seeded shuffle, so the hot
    // names are spread over zones.
    let population = names.len();
    let mut order: Vec<u32> = (0..population as u32).collect();
    for i in (1..population).rev() {
        order.swap(i, draw(&mut rng, i + 1));
    }
    let stream = (0..size.queries)
        .map(|_| {
            let rank = (population as f64 * unit_f64(&mut rng).powf(SKEW)) as usize;
            let gap = -MEAN_GAP_TICKS * (1.0 - unit_f64(&mut rng)).ln();
            (order[rank.min(population - 1)], gap as u64)
        })
        .collect();
    World {
        net,
        queries,
        truth,
        stream,
        capacity: (population / POPULATION_PER_SLOT).max(1),
        latency_seed: splitmix(&mut rng),
    }
}

/// What one pass of the client over the stream saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    pub queries: u64,
    /// Dead ends plus answers that differ from the zone truth.
    pub failed: u64,
    pub stats: ResolverStats,
    pub cache: CacheStats,
    pub trace_bytes: u64,
}

/// Runs the stream once against a fresh resolver and returns what it
/// saw and the pass's wall time. The client times every query into
/// `latencies_ns`. Each query gets a `query` root span with the
/// resolver calls under it.
pub fn serve(world: &mut World, tr: &mut Tracer, latencies_ns: &mut Vec<u64>) -> (Served, f64) {
    let mut r = RecursiveResolver::new(world.latency_seed, world.capacity);
    let mut out = Vec::with_capacity(512);
    let mut failed = 0u64;
    let mut trace_bytes = 0u64;
    let t = Instant::now();
    for (k, &(idx, gap)) in world.stream.iter().enumerate() {
        let id = (k as u16).wrapping_add(1).to_be_bytes();
        let query = &mut world.queries[idx as usize];
        query[0..2].copy_from_slice(&id);
        let qid = k as u32;
        let root = tr.open("query", qid, ROOT);
        let s = tr.open("resolver.advance", qid, root);
        r.advance_to(r.now() + gap);
        tr.close(s);
        let hits = r.cache().stats().hits;
        let s = tr.open("resolver.handle", qid, root);
        let t0 = Instant::now();
        let ok = r.handle_query_into(&mut world.net, query, &mut out);
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        let hit = r.cache().stats().hits > hits;
        tr.close_as(s, if hit { "resolver.hit" } else { "resolver.miss" });
        // The response ends with the A record of the final name.
        let n = out.len();
        let right = ok
            && n >= 16
            && out[0..2] == id
            && out[6..8] != [0, 0]
            && out[n - 4..] == world.truth[idx as usize];
        failed += u64::from(!right);
        if k % TRACE_CLEAR_EVERY == TRACE_CLEAR_EVERY - 1 {
            trace_bytes += r.trace().len() as u64;
            r.clear_trace();
        }
        tr.close(root);
    }
    let wall_s = t.elapsed().as_secs_f64();
    trace_bytes += r.trace().len() as u64;
    (
        Served {
            queries: world.stream.len() as u64,
            failed,
            stats: r.stats(),
            cache: r.cache().stats(),
            trace_bytes,
        },
        wall_s,
    )
}

/// One unit: the world built from the seed (the set-up, timed), then
/// one pass of the client over its stream.
struct Pass {
    served: Served,
    wall_s: f64,
    setup_s: f64,
}

fn pass(seed: u64, size: Size, tr: &mut Tracer, latencies_ns: &mut Vec<u64>) -> Pass {
    let t = Instant::now();
    let mut world = build(seed, size);
    let setup_s = t.elapsed().as_secs_f64();
    let (served, wall_s) = serve(&mut world, tr, latencies_ns);
    Pass {
        served,
        wall_s,
        setup_s,
    }
}

/// Queries per second over every pass of a run.
fn queries_per_s(passes: &[Pass]) -> f64 {
    let queries: u64 = passes.iter().map(|p| p.served.queries).sum();
    queries as f64 / passes.iter().map(|p| p.wall_s).sum::<f64>()
}

fn untraced_pass(seed: u64, size: Size, latencies_ns: &mut Vec<u64>) -> Pass {
    pass(seed, size, &mut Tracer::off(), latencies_ns)
}

/// Counts a run's untraced passes; every pass must see exactly what the
/// first one saw.
fn check_untraced(passes: &[Pass], out: &mut Outcome) {
    let reference = &passes[0].served;
    for p in passes {
        out.attempted += p.served.queries;
        out.failed += p.served.failed;
        out.check(p.served == *reference, || {
            "resolver counts differ between passes over one stream".to_string()
        });
    }
}

fn put_rates(run: &Run<Pass>, out: &mut Outcome) {
    let setups: Vec<f64> = run.units.iter().map(|p| p.setup_s).collect();
    out.put_rates(queries_per_s(&run.units), median(&setups), run.speed);
}

pub fn run_untraced(seed: u64, size: Size, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let run = repeat(seconds, || {
        latencies.clear();
        untraced_pass(seed, size, &mut latencies)
    });
    check_untraced(&run.units, &mut out);
    put_rates(&run, &mut out);
    out
}

/// Traced run: untraced passes alternate with traced passes over the
/// same stream, so both see the same machine conditions.
pub fn run_traced(seed: u64, size: Size, seconds: f64) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut replays = Replays::default();
    let (mut latencies, mut traced_latencies) = (Vec::new(), Vec::new());
    let run = repeat(seconds, || {
        let mut tr = Tracer::new();
        traced_latencies.clear();
        let traced = pass(seed, size, &mut tr, &mut traced_latencies);
        let untraced = untraced_pass(seed, size, &mut latencies);
        out.check(traced.served == untraced.served, || {
            "traced pass differs from the untraced pass".to_string()
        });
        let (counts, timings) = (counts(&traced.served), per_layer(&tr, traced.wall_s));
        let ops = (traced.served.queries, traced.wall_s);
        replays.add(counts, timings, tr, ops, &mut out);
        untraced
    });
    check_untraced(&run.units, &mut out);
    let setups: Vec<f64> = run.units.iter().map(|p| p.setup_s).collect();
    out.put("setup.zone_build_s", median(&setups), "s");
    latencies.sort_unstable();
    out.put(
        "client.query_p50_us",
        trace::percentile(&latencies, 50.0) as f64 / 1e3,
        "us",
    );
    out.put(
        "client.query_p99_us",
        trace::percentile(&latencies, 99.0) as f64 / 1e3,
        "us",
    );
    put_rates(&run, &mut out);
    let tracer = replays.finish(queries_per_s(&run.units), &mut out);
    (out, tracer)
}

/// Deterministic resolver and cache counts of one pass.
fn counts(s: &Served) -> Vec<Metric> {
    let misses = s.cache.misses;
    metrics([
        (
            "resolver.cache_hit_ratio",
            ratio(s.cache.hits, s.cache.hits + misses),
            "ratio",
        ),
        (
            "resolver.upstream_per_miss",
            ratio(s.stats.upstream_queries, misses),
            "ratio",
        ),
        (
            "resolver.referrals_per_miss",
            ratio(s.stats.referrals, misses),
            "ratio",
        ),
        ("resolver.evictions", s.cache.evictions as f64, "count"),
        ("resolver.expirations", s.cache.expirations as f64, "count"),
        ("resolver.failures", s.stats.failures as f64, "count"),
        (
            "resolver.trace_bytes_per_query",
            ratio(s.trace_bytes, s.queries),
            "bytes",
        ),
    ])
}

/// Span timings of one traced pass.
fn per_layer(tr: &Tracer, wall_s: f64) -> Vec<Metric> {
    let stats = trace::by_name(tr.spans());
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let (hit, miss) = (get("resolver.hit"), get("resolver.miss"));
    metrics([
        ("resolver.hit_s", hit.self_s(), "s"),
        ("resolver.miss_s", miss.self_s(), "s"),
        ("resolver.advance_s", get("resolver.advance").self_s(), "s"),
        ("resolver.hit_us_p50", hit.pct_us(50.0), "us"),
        ("resolver.miss_us_p50", miss.pct_us(50.0), "us"),
        ("resolver.miss_us_p99", miss.pct_us(99.0), "us"),
        (
            "trace.span_coverage",
            trace::layer_self_ns(&stats) as f64 / 1e9 / wall_s,
            "ratio",
        ),
    ])
}
