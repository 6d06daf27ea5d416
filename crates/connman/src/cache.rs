//! The proxy's record cache (type A/AAAA only, as in `dnsproxy.c`).

use std::collections::HashMap;
use std::net::IpAddr;

use cml_dns::{Name, RecordType, FOLDED_KEY_LEN};

/// One cached answer set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// Addresses extracted from the answer records.
    pub addresses: Vec<IpAddr>,
    /// Absolute expiry tick (insert tick + TTL).
    pub expires_at: u64,
    /// Tick at which the entry was inserted (for LRU-ish eviction).
    pub inserted_at: u64,
}

/// A TTL-aware, capacity-bounded cache keyed by case-folded name and
/// record type (see [`Name::folded_key`]).
///
/// Connman caches only A and AAAA responses — which is exactly why the
/// vulnerable decompression runs only for those types; the cache honours
/// the same restriction via [`RecordType::is_cached_by_connman`].
#[derive(Debug, Clone)]
pub struct Cache {
    entries: HashMap<Box<[u8]>, CacheEntry>,
    capacity: usize,
}

impl Default for Cache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl Cache {
    /// Default maximum entry count.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Cache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of live entries (including not-yet-expired ones only after
    /// [`Cache::evict_expired`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an answer set; ignores types Connman does not cache.
    /// Returns whether the entry was stored. An entry already under
    /// `(name, rtype)` is replaced, and evicts nothing.
    pub fn insert(
        &mut self,
        name: &Name,
        rtype: RecordType,
        addresses: Vec<IpAddr>,
        ttl: u32,
        now: u64,
    ) -> bool {
        if !rtype.is_cached_by_connman() {
            return false;
        }
        let mut buf = [0; FOLDED_KEY_LEN];
        let Some(key) = name.folded_key(rtype, &mut buf) else {
            return false;
        };
        self.insert_key(key, addresses, ttl, now);
        true
    }

    /// [`Cache::insert`] under a folded key (see [`Name::folded_key`])
    /// of a type Connman caches.
    pub(crate) fn insert_key(&mut self, key: &[u8], addresses: Vec<IpAddr>, ttl: u32, now: u64) {
        let entry = CacheEntry {
            addresses,
            expires_at: now + ttl as u64,
            inserted_at: now,
        };
        if let Some(slot) = self.entries.get_mut(key) {
            *slot = entry;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Evict the oldest entry; entries inserted on the same tick
            // go in key order, so the victim does not depend on the
            // map's per-instance hash seed.
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by(|(ka, a), (kb, b)| (a.inserted_at, ka).cmp(&(b.inserted_at, kb)))
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key.into(), entry);
    }

    /// Looks up a live entry.
    pub fn lookup(&self, name: &Name, rtype: RecordType, now: u64) -> Option<&CacheEntry> {
        let mut buf = [0; FOLDED_KEY_LEN];
        self.entries
            .get(name.folded_key(rtype, &mut buf)?)
            .filter(|e| e.expires_at > now)
    }

    /// Drops expired entries; returns how many were removed.
    pub fn evict_expired(&mut self, now: u64) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_at > now);
        before - self.entries.len()
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn insert_lookup_roundtrip_case_insensitive() {
        let mut c = Cache::default();
        assert!(c.insert(&name("Example.COM"), RecordType::A, vec![ip(1)], 60, 100));
        let e = c.lookup(&name("example.com"), RecordType::A, 120).unwrap();
        assert_eq!(e.addresses, vec![ip(1)]);
        assert!(c
            .lookup(&name("example.com"), RecordType::Aaaa, 120)
            .is_none());
    }

    #[test]
    fn ttl_expiry() {
        let mut c = Cache::default();
        c.insert(&name("a.b"), RecordType::A, vec![ip(2)], 30, 100);
        assert!(c.lookup(&name("a.b"), RecordType::A, 129).is_some());
        assert!(c.lookup(&name("a.b"), RecordType::A, 130).is_none());
        assert_eq!(c.evict_expired(130), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn only_a_and_aaaa_cached() {
        let mut c = Cache::default();
        assert!(!c.insert(&name("a.b"), RecordType::Txt, vec![], 60, 0));
        assert!(c.insert(&name("a.b"), RecordType::Aaaa, vec![], 60, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = Cache::new(2);
        c.insert(&name("one"), RecordType::A, vec![ip(1)], 600, 1);
        c.insert(&name("two"), RecordType::A, vec![ip(2)], 600, 2);
        c.insert(&name("three"), RecordType::A, vec![ip(3)], 600, 3);
        assert_eq!(c.len(), 2);
        assert!(
            c.lookup(&name("one"), RecordType::A, 4).is_none(),
            "oldest evicted"
        );
        assert!(c.lookup(&name("three"), RecordType::A, 4).is_some());
    }

    #[test]
    fn replacing_an_entry_at_capacity_evicts_nothing() {
        let mut c = Cache::new(2);
        c.insert(&name("one"), RecordType::A, vec![ip(1)], 600, 1);
        c.insert(&name("two"), RecordType::A, vec![ip(2)], 600, 2);
        assert!(c.insert(&name("TWO"), RecordType::A, vec![ip(3), ip(4)], 60, 3));
        assert_eq!(c.len(), 2);
        let two = c.lookup(&name("two"), RecordType::A, 4).expect("replaced");
        assert_eq!(two.addresses, vec![ip(3), ip(4)]);
        assert_eq!((two.inserted_at, two.expires_at), (3, 63));
        assert!(
            c.lookup(&name("one"), RecordType::A, 4).is_some(),
            "the oldest entry is not evicted by a replacement"
        );
    }

    #[test]
    fn same_tick_eviction_does_not_depend_on_the_hash_seed() {
        // Each cache draws its own hash seed; five same-tick inserts into
        // four slots must still evict the same entry every time.
        let names = [
            "e.example",
            "b.example",
            "D.example",
            "a.example",
            "c.example",
        ];
        let survivors = |c: &Cache| -> Vec<bool> {
            names
                .iter()
                .map(|n| c.lookup(&name(n), RecordType::A, 2).is_some())
                .collect()
        };
        let fill = || {
            let mut c = Cache::new(4);
            for (i, n) in names.iter().enumerate() {
                c.insert(&name(n), RecordType::A, vec![ip(i as u8)], 60, 1);
            }
            c
        };
        let first = survivors(&fill());
        for _ in 0..20 {
            assert_eq!(survivors(&fill()), first);
        }
        // The smallest key among the four first inserts goes.
        assert_eq!(first, [true, true, true, false, true]);
    }
}
