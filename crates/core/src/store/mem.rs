//! The in-memory tier: a sharded, byte-capped, LRU-evicting map of
//! validated serialized entries.

use super::{load_histogram, StoreStats};
use crate::analysis::ProcedureSummary;
use crate::cache::{decode_entry, ScopeResolver};
use chora_ir::Fingerprint;
use chora_telemetry::metrics::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One entry of the memory tier: validated serialized bytes plus the LRU
/// clock and insertion time.
struct MemEntry {
    text: String,
    last_used: u64,
    inserted: Instant,
}

/// One lock's worth of the memory tier.
#[derive(Default)]
struct Shard {
    map: HashMap<Fingerprint, MemEntry>,
    bytes: u64,
    /// Logical LRU clock: bumped on every touch, entries carry the stamp.
    tick: u64,
}

/// The L1 tier: a sharded in-memory LRU map of serialized entries.
///
/// * Inserts that push a shard past its share of the byte cap evict
///   least-recently-used entries; entries bigger than a whole shard are
///   not kept at all.
/// * Entries older than `max_age` (by *true* age — promotions from disk
///   backdate the clock) are dropped on sight.
/// * A hit decodes under the shard lock; an entry that no longer decodes
///   (memory was scribbled on) is evicted as corrupt and the probe falls
///   through to the disk tier.
pub struct MemTier {
    shards: Vec<Mutex<Shard>>,
    cap_bytes: Option<u64>,
    max_age: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    stored: AtomicU64,
    lru_evictions: AtomicU64,
    age_evictions: AtomicU64,
    corrupt_evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    load_hist: &'static Histogram,
}

impl MemTier {
    /// A memory tier with `shards` independent locks (at least one),
    /// `cap_bytes` total budget (`None` = unbounded), and `max_age` expiry
    /// (`None` = never).
    pub fn new(shards: usize, cap_bytes: Option<u64>, max_age: Option<Duration>) -> MemTier {
        MemTier {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            cap_bytes,
            max_age,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            lru_evictions: AtomicU64::new(0),
            age_evictions: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            load_hist: load_histogram("memory"),
        }
    }

    /// Current `(entries, bytes)` across all shards.
    pub fn usage(&self) -> (u64, u64) {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("mem tier shard lock");
                (shard.map.len() as u64, shard.bytes)
            })
            .fold((0, 0), |(e, b), (se, sb)| (e + se, b + sb))
    }

    /// Loads this tier answered.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries evicted by LRU pressure against the byte cap.
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted because they outlived `max_age`.
    pub fn age_evictions(&self) -> u64 {
        self.age_evictions.load(Ordering::Relaxed)
    }

    /// Entries evicted as corrupt.
    pub fn corrupt_evictions(&self) -> u64 {
        self.corrupt_evictions.load(Ordering::Relaxed)
    }

    /// Bytes removed from this tier for any reason.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes.load(Ordering::Relaxed)
    }

    fn shard(&self, key: &Fingerprint) -> &Mutex<Shard> {
        &self.shards[(key.0 % self.shards.len() as u128) as usize]
    }

    /// Each shard gets an even split of the byte budget.
    fn shard_cap(&self) -> Option<u64> {
        self.cap_bytes
            .map(|cap| (cap / self.shards.len() as u64).max(1))
    }

    fn evict(&self, shard: &mut Shard, key: &Fingerprint, reason: &AtomicU64) {
        if let Some(entry) = shard.map.remove(key) {
            shard.bytes = shard.bytes.saturating_sub(entry.text.len() as u64);
            reason.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(entry.text.len() as u64, Ordering::Relaxed);
        }
    }

    /// Drops every expired entry (the memory half of a GC pass).
    pub fn sweep_expired(&self) {
        let Some(max_age) = self.max_age else { return };
        for shard in &self.shards {
            let mut shard = shard.lock().expect("mem tier shard lock");
            let expired: Vec<Fingerprint> = shard
                .map
                .iter()
                .filter(|(_, e)| e.inserted.elapsed() > max_age)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                self.evict(&mut shard, &key, &self.age_evictions);
            }
        }
    }

    /// Probes the tier: the decoded summaries under `key`, if present,
    /// unexpired, and intact.
    pub(crate) fn load(
        &self,
        key: &Fingerprint,
        scopes: &dyn ScopeResolver,
    ) -> Option<Vec<ProcedureSummary>> {
        let started = Instant::now();
        let result = (|| {
            let mut shard = self.shard(key).lock().expect("mem tier shard lock");
            let expired = {
                let entry = shard.map.get(key)?;
                self.max_age
                    .is_some_and(|limit| entry.inserted.elapsed() > limit)
            };
            if expired {
                self.evict(&mut shard, key, &self.age_evictions);
                return None;
            }
            shard.tick += 1;
            let stamp = shard.tick;
            let entry = shard.map.get_mut(key).expect("entry checked above");
            entry.last_used = stamp;
            match decode_entry(&entry.text, key, scopes) {
                Some(summaries) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(summaries)
                }
                None => {
                    // Can only happen if memory was scribbled on — treat
                    // like disk corruption: evict and fall through.
                    self.evict(&mut shard, key, &self.corrupt_evictions);
                    None
                }
            }
        })();
        if result.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.load_hist
            .observe_ms(started.elapsed().as_secs_f64() * 1e3);
        result
    }

    /// Inserts validated serialized bytes, evicting least-recently-used
    /// entries until the shard fits its cap again.  `age` backdates the
    /// expiry clock for entries promoted from the disk tier, so `max_age`
    /// bounds an entry's *true* age, not its tier residency.
    pub(crate) fn store(&self, key: &Fingerprint, text: &str, age: Option<Duration>) {
        let size = text.len() as u64;
        if self.shard_cap().is_some_and(|cap| size > cap) {
            return;
        }
        let inserted = age
            .and_then(|a| Instant::now().checked_sub(a))
            .unwrap_or_else(Instant::now);
        let mut shard = self.shard(key).lock().expect("mem tier shard lock");
        if let Some(old) = shard.map.remove(key) {
            shard.bytes = shard.bytes.saturating_sub(old.text.len() as u64);
        }
        shard.tick += 1;
        let stamp = shard.tick;
        shard.map.insert(
            *key,
            MemEntry {
                text: text.to_string(),
                last_used: stamp,
                inserted,
            },
        );
        shard.bytes += size;
        self.stored.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.shard_cap() {
            while shard.bytes > cap {
                // The just-inserted entry can never be the LRU minimum: it
                // carries the freshest stamp and fits the cap on its own.
                let Some(victim) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                self.evict(&mut shard, &victim, &self.lru_evictions);
            }
        }
    }

    /// This tier's statistics snapshot.
    pub(crate) fn stats(&self) -> StoreStats {
        let (entries, bytes) = self.usage();
        StoreStats {
            hits: self.hits(),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stored.load(Ordering::Relaxed),
            corrupt_evictions: self.corrupt_evictions(),
            gc_evictions: self.lru_evictions() + self.age_evictions(),
            evicted_bytes: self.evicted_bytes(),
            entries,
            bytes,
            ..StoreStats::named("memory")
        }
    }
}
