//! E10 — upstream-resolver cache poisoning at fleet scale (extension;
//! the XDRI threat model, arXiv 2208.12003).
//!
//! The paper delivers its forged answer directly to one victim; XDRI
//! observes that real fleets resolve through *shared upstream
//! resolvers*, so one poisoned cache entry redirects every dependent
//! device with no per-device malicious delivery. This experiment runs
//! that scenario on the deterministic recursive resolver
//! ([`cml_netsim::resolver`]): a cohort of devices staggers ordinary
//! telemetry lookups through one upstream [`RecursiveResolver`] whose
//! cache the attacker poisons **once** at t = 0 with the relocated
//! exploit response. A device arriving while the injected entry is
//! live receives the exploit as a plain cache hit and falls; a device
//! arriving after the entry expires (TTL) or is evicted (cache
//! pressure from long-TTL benign traffic squeezing the short-TTL
//! poison out first) resolves honestly through the delegation chain
//! and survives.
//!
//! The sweep crosses poison TTL {short, long} × cache capacity
//! {small, large}: TTL bounds the attack window in *time*, capacity
//! bounds it in *traffic*. Every cell reports exactly one malicious
//! delivery — the poisoning itself.

use std::net::Ipv4Addr;

use cml_dns::{Message, Name, Question, RecordType, Zone, ZoneServer};
use cml_exploit::{ExploitStrategy, MaliciousDnsServer, RopMemcpyChain};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
use cml_netsim::{Internet, RecursiveResolver, SimTime, TICKS_PER_SEC};

use crate::lab::Lab;
use crate::report::Table;
use crate::runner::{derive_seed, Runner};

/// Devices in each cell's cohort.
const DEVICES: u64 = 200;

/// Event-clock spacing between device arrivals (50 ms).
const SPACING: SimTime = 50_000;

/// Benign lookups other tenants push through the resolver between
/// consecutive device arrivals — the cache pressure.
const NOISE_PER_ARRIVAL: u64 = 4;

/// TTL of the benign noise records: longer than either poison TTL, so
/// at capacity the soonest-expiring victim is always the poison.
const NOISE_TTL_SECS: u32 = 86_400;

/// One sweep cell.
struct Cell {
    label: &'static str,
    poison_ttl_secs: u32,
    cache_capacity: usize,
}

const CELLS: [Cell; 4] = [
    Cell {
        label: "long TTL / large cache",
        poison_ttl_secs: 60,
        cache_capacity: 1024,
    },
    Cell {
        label: "long TTL / small cache",
        poison_ttl_secs: 60,
        cache_capacity: 16,
    },
    Cell {
        label: "short TTL / large cache",
        poison_ttl_secs: 2,
        cache_capacity: 1024,
    },
    Cell {
        label: "short TTL / small cache",
        poison_ttl_secs: 2,
        cache_capacity: 16,
    },
];

/// The delegation tree every cell resolves against: root → `example`
/// TLD → authoritative `vendor.example` carrying the telemetry record
/// and the long-TTL noise records.
fn build_internet() -> Internet {
    let root_addr = Ipv4Addr::new(198, 41, 0, 4);
    let tld_addr = Ipv4Addr::new(192, 5, 6, 30);
    let vendor_addr = Ipv4Addr::new(203, 0, 113, 53);

    let mut root = Zone::rooted("");
    root.ns("example", 172_800, "a.gtld.example")
        .a("a.gtld.example", 172_800, tld_addr);

    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86_400, "ns1.vendor.example").a(
        "ns1.vendor.example",
        86_400,
        vendor_addr,
    );

    let mut vendor = Zone::rooted("vendor.example");
    vendor
        .a(
            "telemetry.vendor.example",
            300,
            Ipv4Addr::new(203, 0, 113, 7),
        )
        .a("ns1.vendor.example", 86_400, vendor_addr);
    for k in 0..DEVICES * NOISE_PER_ARRIVAL {
        vendor.a(
            &format!("noise{k}.vendor.example"),
            NOISE_TTL_SECS,
            Ipv4Addr::new(203, 0, 114, (k % 250) as u8),
        );
    }

    let mut net = Internet::new(root_addr);
    net.add_server(root_addr, ZoneServer::new(root))
        .add_server(tld_addr, ZoneServer::new(tld))
        .add_server(vendor_addr, ZoneServer::new(vendor));
    net
}

/// What one cell's campaign produced.
struct CellResult {
    label: &'static str,
    poison_ttl_secs: u32,
    cache_capacity: usize,
    compromised: u64,
    /// Event-clock time of the last compromise (ticks), if any device
    /// fell.
    last_shell_at: Option<SimTime>,
    upstream_queries: u64,
    cache_hits: u64,
    malicious_deliveries: u64,
}

/// Runs one cell: poison at t = 0, then `DEVICES` staggered arrivals
/// under `NOISE_PER_ARRIVAL` benign lookups each.
fn run_cell(cell: &Cell, base_seed: u64, cell_idx: u64) -> CellResult {
    let cell_seed = derive_seed(base_seed, cell_idx);
    let mut net = build_internet();
    let mut resolver = RecursiveResolver::new(cell_seed, cell.cache_capacity);

    // The victims: one boot, forked per device (the fleet fast path).
    let protections = Protections::full();
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
    let mut forge = fw.forge(protections, cell_seed);
    let host = Name::parse("telemetry.vendor.example").expect("static name");

    // The attacker: recon the replica, relocate the payload, craft ONE
    // malicious response, inject it — then never transmit again.
    let target = Lab::new(FirmwareKind::OpenElec, Arch::Armv7)
        .with_protections(protections)
        .recon()
        .expect("vulnerable replica recon succeeds");
    let payload = RopMemcpyChain::new(Arch::Armv7)
        .build(&target)
        .expect("payload builds against the replica");
    let mut evil = MaliciousDnsServer::new(&payload).expect("payload labelizes");
    let probe = match forge
        .fork(derive_seed(cell_seed, 0))
        .resolve(&host, RecordType::A)
    {
        cml_connman::Resolution::Query(q) => q,
        cml_connman::Resolution::Cached(_) => unreachable!("fresh fork has an empty cache"),
    };
    let forged = evil.handle(&probe).expect("server answers the probe");
    assert!(
        resolver.poison(&probe, &forged, cell.poison_ttl_secs),
        "the poisoning event sticks"
    );

    let mut compromised = 0u64;
    let mut last_shell_at = None;
    let mut noise_id = 0u64;
    let mut buf = Vec::new();
    for d in 0..DEVICES {
        resolver.advance_to((d + 1) * SPACING);
        // Other tenants' traffic between arrivals: distinct long-TTL
        // names, each a full recursive miss that fills the cache.
        for _ in 0..NOISE_PER_ARRIVAL {
            let noise = Name::parse(&format!("noise{noise_id}.vendor.example"))
                .expect("noise names are static and valid");
            noise_id += 1;
            let nq = Message::query(
                (noise_id % 0xFFFF) as u16 + 1,
                Question::new(noise, RecordType::A),
            )
            .encode()
            .expect("query encodes");
            resolver.handle_query_into(&mut net, &nq, &mut buf);
        }
        // The device's ordinary telemetry lookup through the shared
        // upstream.
        let daemon = forge.fork(derive_seed(cell_seed, d));
        let query = match daemon.resolve(&host, RecordType::A) {
            cml_connman::Resolution::Query(q) => q,
            cml_connman::Resolution::Cached(_) => unreachable!("fresh fork has an empty cache"),
        };
        if resolver.handle_query_into(&mut net, &query, &mut buf) {
            let outcome = daemon.deliver_response(&buf);
            if outcome.is_root_shell() {
                compromised += 1;
                last_shell_at = Some(resolver.now());
            }
        }
    }
    resolver.clear_trace();
    CellResult {
        label: cell.label,
        poison_ttl_secs: cell.poison_ttl_secs,
        cache_capacity: cell.cache_capacity,
        compromised,
        last_shell_at,
        upstream_queries: resolver.stats().upstream_queries,
        cache_hits: resolver.cache().stats().hits,
        malicious_deliveries: evil.stats().exploit_responses,
    }
}

/// Runs the sweep on `jobs` workers, one cell per work item. Cells are
/// self-contained simulations merged in order, so the table is
/// byte-identical at any worker count.
pub fn run(jobs: usize) -> Table {
    let base_seed = 0xD05ED;
    let runner = Runner::new(jobs);
    let results = runner.run(CELLS.iter().collect(), |idx, cell: &Cell| {
        run_cell(cell, base_seed, idx as u64)
    });
    let mut t = Table::new(
        "E10",
        "upstream-resolver cache poisoning: time-to-fleet-compromise vs TTL and cache size",
        &[
            "cell",
            "ttl",
            "cache",
            "devices",
            "compromised",
            "t-fleet",
            "upstream q",
            "cache hits",
            "malicious tx",
        ],
    );
    for r in &results {
        let t_fleet = match r.last_shell_at {
            Some(ticks) if r.compromised == DEVICES => {
                format!("{:.2}s", ticks as f64 / TICKS_PER_SEC as f64)
            }
            Some(ticks) => format!("({:.2}s partial)", ticks as f64 / TICKS_PER_SEC as f64),
            None => "—".to_string(),
        };
        t.row([
            r.label.to_string(),
            format!("{}s", r.poison_ttl_secs),
            r.cache_capacity.to_string(),
            DEVICES.to_string(),
            r.compromised.to_string(),
            t_fleet,
            r.upstream_queries.to_string(),
            r.cache_hits.to_string(),
            r.malicious_deliveries.to_string(),
        ]);
    }
    t.note(format!(
        "One poisoning event per cell — the malicious server transmits exactly \
         once, then every compromise is a cache-hit replay. With a long TTL and \
         a large cache the single injected record fells the entire \
         {DEVICES}-device cohort; shortening the TTL closes the window in time \
         (arrivals after expiry resolve honestly, in one exchange with the \
         vendor.example server at its cached zone cut), and shrinking the \
         cache closes it in traffic (the long-TTL benign noise makes the \
         short-TTL poison the soonest-expiring eviction victim). Timings ride the deterministic \
         event clock, so every cell is byte-identical at any --jobs."
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_byte_identical_serial_vs_parallel() {
        assert_eq!(run(1).to_markdown(), run(2).to_markdown());
        assert_eq!(run(1).to_markdown(), run(4).to_markdown());
    }

    #[test]
    fn poisoning_window_narrows_with_ttl_and_cache_size() {
        let t = run(1);
        assert_eq!(t.rows.len(), 4);
        let compromised: Vec<u64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // The headline: one injection, the whole cohort falls, and the
        // malicious server transmitted exactly once.
        assert_eq!(
            compromised[0], DEVICES,
            "long TTL + large cache compromises every device"
        );
        for row in &t.rows {
            assert_eq!(row[8], "1", "exactly one malicious delivery: {row:?}");
        }
        // Cache pressure evicts the poison early.
        assert!(
            compromised[1] < compromised[0],
            "small cache narrows the window: {compromised:?}"
        );
        // TTL expiry closes the window in time.
        assert!(
            compromised[2] < compromised[0],
            "short TTL narrows the window: {compromised:?}"
        );
        // Both pressures together are no wider than either alone.
        assert!(compromised[3] <= compromised[1] && compromised[3] <= compromised[2]);
        // Devices the poison missed still resolved and survived: the
        // resolver did real upstream work in the narrow cells.
        let upstream: Vec<u64> = t.rows.iter().map(|r| r[6].parse().unwrap()).collect();
        assert!(upstream.iter().all(|&q| q > 0), "noise traffic resolves");
    }
}
