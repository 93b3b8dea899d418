//! Partition-key interning: the zero-allocation half of the routing hot
//! path.
//!
//! The paper's constant-time-per-event claim (§3, §7) only holds if the
//! per-event bookkeeping is constant too. The seed router paid for a
//! fresh `Vec<Value>` *per event* just to probe `HashMap<GroupKey, _>`,
//! plus a SipHash over that vector. [`KeyInterner`] removes both costs:
//!
//! * the event's partition attributes are hashed **in place** (the caller
//!   folds each [`Value`] into an [`fxhash::FxHasher`] straight off the
//!   event, no scratch vector);
//! * the hash probes a bucket of candidate [`PartitionId`]s; candidates
//!   are confirmed by comparing the event's attributes against the
//!   interned key **element-wise**, again without materializing;
//! * only a **first-seen** key allocates: the caller's `materialize`
//!   closure builds the one `Vec<Value>` that lives for the interner's
//!   lifetime, and the key gets the next dense id.
//!
//! Dense ids are the second half of the bargain: `PartitionId(u32)`
//! indexes a plain `Vec` of partition states, so the router's per-event
//! map lookup becomes an array index. Ids are stable for the interner's
//! lifetime — a partition that goes quiet and returns maps back to the
//! same id, which also keeps results reproducible across drain cadences.
//!
//! [`RunStats`] counts probes and first-seen materializations; the
//! difference is the number of events routed with **zero** heap
//! allocations, surfaced all the way up through `SessionRun` so tests
//! (and users) can assert the hot path stays allocation-free.
//!
//! Memory accounting is O(1): the interner keeps its logical footprint
//! (key values plus table overhead) in a running counter that grows as
//! keys and buckets are materialized, instead of walking every key ever
//! seen whenever a caller samples memory. Keys are never freed (id
//! stability), so the counter only grows, and a session's periodic
//! memory sample costs time proportional to its live window state, not
//! to the distinct-key count. Debug builds re-walk the table on every
//! read and assert the two agree.

use crate::output::GroupKey;
use cogra_events::Value;
use fxhash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::mem::size_of;

/// Dense identifier of an interned partition key. Ids are handed out in
/// first-seen order, so they index contiguous `Vec` storage directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Routing hot-path statistics, aggregated across engines and shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Interner probes — one per event that reached partition routing.
    pub key_probes: u64,
    /// First-seen partition keys materialized. The *only* probes that
    /// heap-allocate; `key_probes - key_allocs` events were routed with
    /// zero allocations.
    pub key_allocs: u64,
}

impl RunStats {
    /// Fold another engine's/shard's counters into this one.
    pub fn merge(&mut self, other: RunStats) {
        self.key_probes += other.key_probes;
        self.key_allocs += other.key_allocs;
    }

    /// Serialize both counters.
    pub fn save(&self, enc: &mut cogra_checkpoint::Enc) {
        enc.u64(self.key_probes);
        enc.u64(self.key_allocs);
    }

    /// Inverse of [`RunStats::save`].
    pub fn load(
        dec: &mut cogra_checkpoint::Dec,
    ) -> Result<RunStats, cogra_checkpoint::CheckpointError> {
        Ok(RunStats {
            key_probes: dec.u64()?,
            key_allocs: dec.u64()?,
        })
    }
}

/// The interner refused to materialize another key: the number of
/// distinct partition keys reached the configured ceiling (by default
/// `u32::MAX`, the dense-id address space itself). Surfaced as a typed
/// ingest error instead of a worker-thread panic — unbounded key churn is
/// a data problem, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOverflow {
    /// The limit that was hit.
    pub limit: u32,
}

/// Interner from partition keys to dense [`PartitionId`]s.
///
/// Generic over nothing but driven by closures, so the caller decides how
/// to compare a candidate against the (never materialized) probe key and
/// how to build the key on first sight — see [`KeyInterner::intern_with`].
#[derive(Debug)]
pub struct KeyInterner {
    /// `keys[id]` — the interned key. Never shrinks: id stability is part
    /// of the contract.
    keys: Vec<GroupKey>,
    /// hash → ids of the keys with that hash (almost always exactly one;
    /// collisions are resolved by the caller's equality check).
    buckets: FxHashMap<u64, Vec<u32>>,
    stats: RunStats,
    /// Maximum number of distinct keys this interner will hold. The
    /// default is the full `u32` id space; sessions lower it via
    /// `EngineConfig::key_limit` to turn unbounded key churn into a typed
    /// error instead of unbounded memory growth.
    limit: u32,
    /// Running [`KeyInterner::memory_bytes`]: bumped on every
    /// materialized key and every new bucket, so reading it never walks
    /// the table.
    bytes: usize,
}

impl Default for KeyInterner {
    fn default() -> KeyInterner {
        KeyInterner {
            keys: Vec::new(),
            buckets: FxHashMap::default(),
            stats: RunStats::default(),
            limit: u32::MAX,
            bytes: 0,
        }
    }
}

/// Fold a sequence of values into an [`FxHasher`], exactly as
/// [`KeyInterner`] expects probe hashes to be computed. Hashing the
/// values of a materialized `GroupKey` and hashing the same values
/// straight off an event produce the same hash — that equivalence is what
/// makes the in-place probe sound.
#[inline]
pub fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Accounted footprint of one interned key: the `GroupKey` header plus
/// its values.
fn key_bytes(key: &[Value]) -> usize {
    size_of::<GroupKey>() + key.iter().map(Value::memory_bytes).sum::<usize>()
}

/// Accounted footprint of one bucket, excluding its ids.
const BUCKET_BYTES: usize = size_of::<(u64, Vec<u32>)>();

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// Cap the number of distinct keys at `limit`. Existing keys are
    /// unaffected (ids are stable); once `len()` reaches the limit, every
    /// first-seen probe returns [`KeyOverflow`].
    pub fn set_limit(&mut self, limit: u32) {
        self.limit = limit;
    }

    /// The configured distinct-key ceiling.
    #[inline]
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Intern the key with the given `hash`. `matches` decides whether a
    /// stored candidate equals the probe key (called for each candidate in
    /// the hash's bucket — usually at most one); `materialize` builds the
    /// owned key if, and only if, it was never seen before.
    ///
    /// `hash` must be [`hash_values`] over the same value sequence that
    /// `matches` compares and `materialize` produces.
    ///
    /// A first-seen key past the configured limit is refused with
    /// [`KeyOverflow`]; re-probes of already-interned keys always succeed.
    pub fn intern_with(
        &mut self,
        hash: u64,
        mut matches: impl FnMut(&[Value]) -> bool,
        materialize: impl FnOnce() -> GroupKey,
    ) -> Result<PartitionId, KeyOverflow> {
        self.stats.key_probes += 1;
        // One probe serves both the lookup and the insert; a vacant entry
        // inserts nothing unless a key is actually materialized, so
        // refused first-seen keys leave no empty bucket behind.
        let entry = self.buckets.entry(hash);
        if let Entry::Occupied(bucket) = &entry {
            for &id in bucket.get() {
                if matches(&self.keys[id as usize]) {
                    return Ok(PartitionId(id));
                }
            }
        }
        // First sight: materialize and assign the next dense id — unless
        // the key population hit the ceiling. (`len() < limit <= u32::MAX`
        // also guarantees the id fits in a `u32` without a checked cast.)
        if self.keys.len() >= self.limit as usize {
            return Err(KeyOverflow { limit: self.limit });
        }
        self.stats.key_allocs += 1;
        let id = self.keys.len() as u32;
        let key = materialize();
        debug_assert!(matches(&key), "materialized key must match its own probe");
        self.bytes += key_bytes(&key) + size_of::<u32>();
        match entry {
            Entry::Occupied(mut bucket) => bucket.get_mut().push(id),
            Entry::Vacant(slot) => {
                self.bytes += BUCKET_BYTES;
                slot.insert(vec![id]);
            }
        }
        self.keys.push(key);
        Ok(PartitionId(id))
    }

    /// The interned key of `id`.
    #[inline]
    pub fn resolve(&self, id: PartitionId) -> &[Value] {
        &self.keys[id.index()]
    }

    /// Number of distinct keys interned so far (also the next id).
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Probe/allocation counters since construction.
    #[inline]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// All interned keys in dense-id order.
    #[inline]
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// Rebuild an interner from saved keys (dense-id order) and counters.
    /// Buckets are recomputed with [`hash_values`], so ids and probe
    /// behavior match an interner that saw the same keys first-hand —
    /// this is how a restored router re-interns a (possibly compacted)
    /// key set. A key set too large for the dense `u32` id space is
    /// refused instead of panicking (it cannot come from a well-formed
    /// snapshot, so it is corruption, not load).
    pub fn from_parts(keys: Vec<GroupKey>, stats: RunStats) -> Result<KeyInterner, KeyOverflow> {
        if u32::try_from(keys.len()).is_err() {
            return Err(KeyOverflow { limit: u32::MAX });
        }
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (id, key) in keys.iter().enumerate() {
            buckets
                .entry(hash_values(key.iter()))
                .or_default()
                .push(id as u32);
        }
        let mut interner = KeyInterner {
            keys,
            buckets,
            stats,
            limit: u32::MAX,
            bytes: 0,
        };
        interner.bytes = interner.walk_bytes();
        Ok(interner)
    }

    /// Logical memory footprint: interned key values plus table overhead.
    /// Keys are retained for the interner's lifetime (id stability), so
    /// this grows with the number of *distinct* keys, not with the stream.
    ///
    /// O(1): the value is kept current as keys are interned, so sampling
    /// it costs nothing however many keys were ever seen.
    pub fn memory_bytes(&self) -> usize {
        debug_assert_eq!(
            self.bytes,
            self.walk_bytes(),
            "running byte counter drifted from the table walk"
        );
        self.bytes
    }

    /// [`KeyInterner::memory_bytes`] recounted from scratch, key by key
    /// and bucket by bucket — O(keys ever interned). The oracle the
    /// running counter is checked against.
    pub(crate) fn walk_bytes(&self) -> usize {
        let keys: usize = self.keys.iter().map(|k| key_bytes(k)).sum();
        let table: usize = self
            .buckets
            .values()
            .map(|ids| BUCKET_BYTES + std::mem::size_of_val(&ids[..]))
            .sum();
        keys + table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(vals: &[i64]) -> GroupKey {
        vals.iter().copied().map(Value::Int).collect()
    }

    fn intern(interner: &mut KeyInterner, vals: &[i64]) -> PartitionId {
        let k = key(vals);
        let hash = hash_values(k.iter());
        interner
            .intern_with(hash, |cand| cand == &k[..], || k.clone())
            .expect("under the key limit")
    }

    #[test]
    fn dense_ids_in_first_seen_order() {
        let mut i = KeyInterner::new();
        assert_eq!(intern(&mut i, &[7]), PartitionId(0));
        assert_eq!(intern(&mut i, &[9]), PartitionId(1));
        assert_eq!(intern(&mut i, &[7]), PartitionId(0), "id is stable");
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(PartitionId(1)), &key(&[9])[..]);
    }

    #[test]
    fn collision_probe_separates_distinct_keys() {
        // Force both keys into one bucket with an identical (fake) hash:
        // the element-wise equality check must keep them apart.
        let mut i = KeyInterner::new();
        let a = key(&[1, 2]);
        let b = key(&[2, 1]);
        let ia = i.intern_with(42, |c| c == &a[..], || a.clone());
        let ib = i.intern_with(42, |c| c == &b[..], || b.clone());
        assert_ne!(ia, ib);
        assert_eq!(i.intern_with(42, |c| c == &a[..], || a.clone()), ia);
        assert_eq!(i.intern_with(42, |c| c == &b[..], || b.clone()), ib);
        assert_eq!(i.len(), 2);
        let s = i.stats();
        assert_eq!(s.key_probes, 4);
        assert_eq!(s.key_allocs, 2, "re-probes allocate nothing");
    }

    #[test]
    fn stats_count_probes_and_allocs() {
        let mut i = KeyInterner::new();
        for _ in 0..5 {
            intern(&mut i, &[3]);
        }
        intern(&mut i, &[4]);
        let s = i.stats();
        assert_eq!(s.key_probes, 6);
        assert_eq!(s.key_allocs, 2);
        let mut total = RunStats::default();
        total.merge(s);
        total.merge(s);
        assert_eq!(total.key_probes, 12);
    }

    #[test]
    fn memory_accounting_grows_with_distinct_keys_only() {
        let mut i = KeyInterner::new();
        intern(&mut i, &[1]);
        let one = i.memory_bytes();
        for _ in 0..100 {
            intern(&mut i, &[1]);
        }
        assert_eq!(i.memory_bytes(), one, "re-probes allocate nothing");
        intern(&mut i, &[2]);
        assert!(i.memory_bytes() > one);
    }

    #[test]
    fn key_limit_refuses_fresh_keys_but_keeps_serving_old_ones() {
        // Regression for the former `expect("more than u32::MAX
        // partitions")` panic: past the ceiling the interner returns a
        // typed error instead, and everything already interned still
        // routes.
        let mut i = KeyInterner::new();
        i.set_limit(2);
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        let k = key(&[3]);
        let overflow = i
            .intern_with(hash_values(k.iter()), |c| c == &k[..], || k.clone())
            .expect_err("third distinct key is over the limit");
        assert_eq!(overflow, KeyOverflow { limit: 2 });
        // Old keys keep resolving to their stable ids…
        assert_eq!(intern(&mut i, &[1]), PartitionId(0));
        assert_eq!(intern(&mut i, &[2]), PartitionId(1));
        assert_eq!(i.len(), 2);
        // …and the refused probe counted as a probe, not an allocation.
        let s = i.stats();
        assert_eq!(s.key_probes, 5);
        assert_eq!(s.key_allocs, 2);
        // Refused keys hold no memory: a churn of distinct first-seen
        // keys past the ceiling leaves neither buckets nor bytes behind.
        let (bytes, buckets) = (i.memory_bytes(), i.buckets.len());
        for v in 100..1_100 {
            let k = key(&[v]);
            assert!(i
                .intern_with(hash_values(k.iter()), |c| c == &k[..], || k.clone())
                .is_err());
        }
        assert_eq!(i.memory_bytes(), bytes);
        assert_eq!(i.buckets.len(), buckets);
        assert_eq!(i.stats().key_probes, 1_005);
    }

    #[test]
    fn in_place_hash_equals_materialized_hash() {
        let k = key(&[1, -9, 42]);
        let h1 = hash_values(k.iter());
        // "In place": hash the same logical values from another container.
        let vals = [Value::Int(1), Value::Int(-9), Value::Int(42)];
        let h2 = hash_values(vals.iter());
        assert_eq!(h1, h2);
    }

    /// A key of the forced-collision family: every member of one family
    /// probes with the same fake hash, so distinct keys share a bucket.
    fn colliding(a: u16) -> (GroupKey, u64) {
        let k = vec![
            Value::Bool(true),
            Value::Int(a.into()),
            Value::str("c".repeat(usize::from(a % 7))),
        ];
        (k, 0xC0_11DE + u64::from(a % 3))
    }

    /// A key probed with its real hash, with or without a string value.
    fn plain(a: u16) -> (GroupKey, u64) {
        let mut k = vec![Value::Int(a.into())];
        if a % 2 == 1 {
            k.push(Value::str("s".repeat(usize::from(a % 5))));
        }
        let h = hash_values(k.iter());
        (k, h)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The running byte counter equals the table walk after every
        /// step of a mixed workload — fresh keys, re-probes, forced
        /// collisions, overflow refusals, limit changes and `from_parts`
        /// round trips — and ids follow a first-seen model throughout.
        #[test]
        fn running_counter_equals_walk(
            ops in proptest::collection::vec((0u8..6, 0u16..48, 0u8..8), 1..160)
        ) {
            let mut i = KeyInterner::new();
            // key → (id, the hash it must be probed with). `from_parts`
            // rebuilds buckets from real hashes, so a round trip moves
            // forced-collision keys back to their real hash.
            let mut model: Vec<(GroupKey, u64)> = Vec::new();
            for (step, &(op, a, b)) in ops.iter().enumerate() {
                match op {
                    0..=2 => {
                        let (k, fresh_hash) = match op {
                            0 => plain(a),
                            1 if !model.is_empty() => model[usize::from(a) % model.len()].clone(),
                            1 => plain(a),
                            _ => colliding(a),
                        };
                        let known = model.iter().position(|(m, _)| *m == k);
                        let hash = known.map_or(fresh_hash, |id| model[id].1);
                        let got = i.intern_with(hash, |c| c == &k[..], || k.clone());
                        match known {
                            Some(id) => prop_assert_eq!(got, Ok(PartitionId(id as u32))),
                            None if model.len() >= i.limit() as usize => {
                                prop_assert_eq!(got, Err(KeyOverflow { limit: i.limit() }))
                            }
                            None => {
                                prop_assert_eq!(got, Ok(PartitionId(model.len() as u32)));
                                model.push((k, hash));
                            }
                        }
                    }
                    3 => {
                        // Around the current population: below, at and
                        // above it, or lifted entirely.
                        let limit = match b % 5 {
                            4 => u32::MAX,
                            d => (model.len() + usize::from(d)).saturating_sub(1) as u32,
                        };
                        i.set_limit(limit);
                    }
                    _ => {
                        let limit = i.limit();
                        i = KeyInterner::from_parts(i.keys().to_vec(), i.stats())
                            .expect("a handful of keys fits the id space");
                        i.set_limit(limit);
                        for (k, h) in &mut model {
                            *h = hash_values(k.iter());
                        }
                    }
                }
                prop_assert_eq!(i.bytes, i.walk_bytes(), "after step {}", step);
                prop_assert_eq!(i.len(), model.len());
                prop_assert!(i.buckets.values().all(|ids| !ids.is_empty()));
            }
        }
    }
}
