//! The sharded, cached, multi-region TAO store.
//!
//! [`Tao`] composes [`Shard`]s (leader storage) with per-region follower
//! cache tiers and exposes the query API the rest of the workspace uses.
//! Reads go through the calling region's follower cache; writes are applied
//! at the leader, invalidate the local region's cache synchronously, and
//! emit [`ReplicationEvent`]s that the simulation orchestrator delivers to
//! remote regions after a cross-region delay — which is exactly the window
//! in which remote followers serve stale data, as in the real system.

use std::sync::Arc;

use simkit::fxhash::FxHashSet;
use simkit::snap::{Snap, SnapError, SnapReader, SnapResult, SnapWriter};
use simkit::{snap_enum, snap_struct};

use crate::cost::{CostCounters, QueryCost};
use crate::lru::LruCache;
use crate::shard::Shard;
use crate::types::{Assoc, Data, Object, ObjectId};

/// Region index; region 0 is the leader region.
pub type RegionId = u16;

/// Configuration for a [`Tao`] instance.
#[derive(Clone, Debug)]
pub struct TaoConfig {
    /// Number of storage shards.
    pub shards: u32,
    /// Number of regions (each gets a follower cache tier).
    pub regions: u16,
    /// Follower-cache capacity, in entries, per region.
    pub cache_capacity: usize,
}

impl TaoConfig {
    /// A small configuration suitable for unit tests and examples.
    pub fn small() -> Self {
        TaoConfig {
            shards: 16,
            regions: 3,
            cache_capacity: 4_096,
        }
    }
}

snap_struct!(TaoConfig {
    shards,
    regions,
    cache_capacity
});

/// A key in the follower cache.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CacheKey {
    Obj(ObjectId),
    /// The head (most recent entries) of an association list.
    AssocHead(ObjectId, String),
}

/// What the follower cache stores for a key.
#[derive(Clone, Debug)]
enum CacheVal {
    Obj(Object),
    AssocHead(Vec<Assoc>),
}

snap_enum!(CacheKey { 0 => Obj(id), 1 => AssocHead(id, atype) });
snap_enum!(CacheVal { 0 => Obj(obj), 1 => AssocHead(head) });

/// A pending cross-region cache invalidation.
///
/// Returned from mutations; the orchestrator should call
/// [`Tao::apply_replication`] for each one after its chosen cross-region
/// delay. Until applied, the target region's followers may serve stale data.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationEvent {
    /// Region whose follower tier must be invalidated.
    pub region: RegionId,
    /// The object whose cached state is now stale.
    pub object: ObjectId,
    /// If the mutation touched an association list, its `(id1, atype)`.
    pub assoc_head: Option<(ObjectId, String)>,
}

// It rides inside queued simulator events.
snap_struct!(ReplicationEvent {
    region,
    object,
    assoc_head
});

struct RegionTier {
    cache: LruCache<CacheKey, CacheVal>,
    counters: CostCounters,
}

/// The TAO store: leader shards plus per-region follower caches.
pub struct Tao {
    config: TaoConfig,
    shards: Vec<Shard>,
    regions: Vec<RegionTier>,
    next_id: u64,
    /// Interned object-type names ([`Object::otype`] is shared, not owned).
    otypes: Vec<std::sync::Arc<str>>,
    /// Interned payload field names (see [`Tao::intern_data_keys`]).
    keys: Vec<std::sync::Arc<str>>,
}

/// How many association-list entries a follower caches per list head.
const ASSOC_HEAD_LEN: usize = 64;

impl Tao {
    /// Creates a store from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if shard or region counts are zero.
    pub fn new(config: TaoConfig) -> Self {
        assert!(config.shards > 0 && config.regions > 0);
        let shards = (0..config.shards).map(|_| Shard::new()).collect();
        let regions = (0..config.regions)
            .map(|_| RegionTier {
                cache: LruCache::new(config.cache_capacity),
                counters: CostCounters::default(),
            })
            .collect();
        Tao {
            config,
            shards,
            regions,
            next_id: 1,
            otypes: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The shared handle for an object-type name, interning on first use.
    fn intern_otype(&mut self, otype: &str) -> std::sync::Arc<str> {
        if let Some(t) = self.otypes.iter().find(|t| &***t == otype) {
            return t.clone();
        }
        let t: std::sync::Arc<str> = otype.into();
        self.otypes.push(t.clone());
        t
    }

    /// Rewrites a payload's field names through the key intern table, so
    /// stored objects share one allocation per distinct name. Callers
    /// construct `Data` with fresh `Arc<str>` keys; those are transient —
    /// what the shards (and cache copies) retain is the shared handle.
    fn intern_data_keys(&mut self, data: &mut Data) {
        for (k, _) in data.iter_mut() {
            if let Some(shared) = self.keys.iter().find(|t| ***t == **k) {
                *k = shared.clone();
            } else {
                self.keys.push(k.clone());
            }
        }
    }

    /// The configuration this store was built with.
    pub fn config(&self) -> &TaoConfig {
        &self.config
    }

    /// The shard an object id maps to.
    pub fn shard_of(&self, id: ObjectId) -> u32 {
        // Multiplicative hash to spread sequential ids across shards.
        ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as u32 % self.config.shards
    }

    /// Aggregate cost counters for a region.
    pub fn counters(&self, region: RegionId) -> &CostCounters {
        &self.regions[region as usize].counters
    }

    /// Follower-cache hit rate for a region.
    pub fn cache_hit_rate(&self, region: RegionId) -> f64 {
        self.regions[region as usize].cache.hit_rate()
    }

    /// The id the next object added will get: every id issued so far is
    /// below it.
    pub fn next_object_id(&self) -> u64 {
        self.next_id
    }

    fn alloc_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        id
    }

    fn invalidate_all_regions(
        &mut self,
        object: ObjectId,
        assoc_head: Option<(ObjectId, String)>,
    ) -> Vec<ReplicationEvent> {
        // Local (leader) region is invalidated synchronously; remote regions
        // get replication events.
        let mut events = Vec::new();
        for region in 0..self.config.regions {
            if region == 0 {
                let tier = &mut self.regions[0];
                tier.cache.invalidate(&CacheKey::Obj(object));
                if let Some((id1, ref atype)) = assoc_head {
                    tier.cache
                        .invalidate(&CacheKey::AssocHead(id1, atype.clone()));
                }
            } else {
                events.push(ReplicationEvent {
                    region,
                    object,
                    assoc_head: assoc_head.clone(),
                });
            }
        }
        events
    }

    /// Applies a cross-region replication event (cache invalidation).
    pub fn apply_replication(&mut self, event: &ReplicationEvent) {
        let tier = &mut self.regions[event.region as usize];
        tier.cache.invalidate(&CacheKey::Obj(event.object));
        if let Some((id1, atype)) = &event.assoc_head {
            tier.cache
                .invalidate(&CacheKey::AssocHead(*id1, atype.clone()));
        }
    }

    // ------------------------------------------------------------------
    // Mutations (applied at the leader).
    // ------------------------------------------------------------------

    /// Creates a new object, returning its id.
    pub fn obj_add(&mut self, otype: &str, data: Data) -> ObjectId {
        let (id, _) = self.obj_add_with_events(otype, data);
        id
    }

    /// Creates a new object, returning its id and the replication events.
    pub fn obj_add_with_events(
        &mut self,
        otype: &str,
        mut data: Data,
    ) -> (ObjectId, Vec<ReplicationEvent>) {
        let id = self.alloc_id();
        let shard = self.shard_of(id) as usize;
        let otype = self.intern_otype(otype);
        self.intern_data_keys(&mut data);
        self.shards[shard].put_object(Object {
            id,
            otype,
            data,
            version: 0,
        });
        let events = self.invalidate_all_regions(id, None);
        (id, events)
    }

    /// Updates an object's data. Returns replication events, or `None` if
    /// the object does not exist.
    pub fn obj_update(&mut self, id: ObjectId, mut data: Data) -> Option<Vec<ReplicationEvent>> {
        let shard = self.shard_of(id) as usize;
        self.intern_data_keys(&mut data);
        if self.shards[shard].update_object(id, data) {
            Some(self.invalidate_all_regions(id, None))
        } else {
            None
        }
    }

    /// Adds an association `(id1) -[atype]-> (id2)` at time `time`.
    pub fn assoc_add(
        &mut self,
        id1: ObjectId,
        atype: &str,
        id2: ObjectId,
        time: u64,
        mut data: Data,
    ) -> Vec<ReplicationEvent> {
        let shard = self.shard_of(id1) as usize;
        self.intern_data_keys(&mut data);
        self.shards[shard].add_assoc(Assoc {
            id1,
            atype: atype.to_owned(),
            id2,
            time,
            data,
        });
        self.invalidate_all_regions(id1, Some((id1, atype.to_owned())))
    }

    // ------------------------------------------------------------------
    // Reads (served through a region's follower tier).
    // ------------------------------------------------------------------

    /// Point read of one object through `region`'s follower cache.
    ///
    /// This is the query shape BRASSes use: it touches exactly one shard
    /// and caches extremely well.
    pub fn obj_get(&mut self, region: RegionId, id: ObjectId) -> (Option<Object>, QueryCost) {
        let mut cost = QueryCost {
            shards_touched: 1,
            ..Default::default()
        };
        let key = CacheKey::Obj(id);
        if let Some(CacheVal::Obj(obj)) = self.regions[region as usize].cache.get(&key) {
            cost.cache_hits = 1;
            cost.rows_read = 1;
            let obj = obj.clone();
            let cost = cost.finish();
            self.regions[region as usize].counters.record(cost, 1);
            return (Some(obj), cost);
        }
        cost.cache_misses = 1;
        let shard = self.shard_of(id) as usize;
        let obj = self.shards[shard].get_object(id).cloned();
        cost.rows_read = 1;
        if let Some(ref o) = obj {
            self.regions[region as usize]
                .cache
                .insert(key, CacheVal::Obj(o.clone()));
        }
        let cost = cost.finish();
        self.regions[region as usize]
            .counters
            .record(cost, obj.iter().count());
        (obj, cost)
    }

    /// Range query, newest first, through `region`'s follower cache.
    ///
    /// The head of each association list is cached; queries that reach past
    /// the cached head (or miss) fall through to the leader shard.
    pub fn assoc_range(
        &mut self,
        region: RegionId,
        id1: ObjectId,
        atype: &str,
        offset: usize,
        limit: usize,
    ) -> (Vec<Assoc>, QueryCost) {
        let mut cost = QueryCost {
            shards_touched: 1,
            ..Default::default()
        };
        let key = CacheKey::AssocHead(id1, atype.to_owned());
        let want = offset + limit;
        if want <= ASSOC_HEAD_LEN {
            if let Some(CacheVal::AssocHead(head)) = self.regions[region as usize].cache.get(&key) {
                // Serve from the cached head when it covers the request:
                // either the range fits, or the whole list is shorter than
                // the cached head capacity (so the head is the full list).
                if head.len() >= want || head.len() < ASSOC_HEAD_LEN {
                    let rows: Vec<Assoc> = head.iter().skip(offset).take(limit).cloned().collect();
                    cost.cache_hits = 1;
                    cost.rows_read = rows.len() as u64;
                    let cost = cost.finish();
                    let n = rows.len();
                    self.regions[region as usize].counters.record(cost, n);
                    return (rows, cost);
                }
            }
        }
        cost.cache_misses = 1;
        let shard = self.shard_of(id1) as usize;
        let (rows, scanned) = self.shards[shard].assoc_range(id1, atype, offset, limit);
        cost.rows_read = scanned;
        // Refresh the cached head.
        let (head, _) = self.shards[shard].assoc_range(id1, atype, 0, ASSOC_HEAD_LEN);
        self.regions[region as usize]
            .cache
            .insert(key, CacheVal::AssocHead(head));
        let cost = cost.finish();
        let n = rows.len();
        self.regions[region as usize].counters.record(cost, n);
        (rows, cost)
    }

    /// Time-range query ("all comments on V since X"), newest first.
    ///
    /// Always goes to storage: the freshness requirement of a since-query
    /// defeats head caching under a high write rate, which is exactly the
    /// paper's complaint about polling queries.
    pub fn assoc_time_range(
        &mut self,
        region: RegionId,
        id1: ObjectId,
        atype: &str,
        low: u64,
        high: u64,
        limit: usize,
    ) -> (Vec<Assoc>, QueryCost) {
        let mut cost = QueryCost {
            shards_touched: 1,
            cache_misses: 1,
            ..Default::default()
        };
        let shard = self.shard_of(id1) as usize;
        let (rows, scanned) = self.shards[shard].assoc_time_range(id1, atype, low, high, limit);
        cost.rows_read = scanned;
        let cost = cost.finish();
        let n = rows.len();
        self.regions[region as usize].counters.record(cost, n);
        (rows, cost)
    }

    /// Point lookup of specific edges, served from the follower cache when
    /// the cached list head is complete (short lists — friend and blocked
    /// sets — cache extremely well, which is why BRASS point fetches are
    /// cheap).
    pub fn assoc_get(
        &mut self,
        region: RegionId,
        id1: ObjectId,
        atype: &str,
        id2s: &[ObjectId],
    ) -> (Vec<Assoc>, QueryCost) {
        let mut cost = QueryCost {
            shards_touched: 1,
            ..Default::default()
        };
        let key = CacheKey::AssocHead(id1, atype.to_owned());
        if let Some(CacheVal::AssocHead(head)) = self.regions[region as usize].cache.get(&key) {
            if head.len() < ASSOC_HEAD_LEN {
                // The cached head is the complete list: serve the lookup.
                let rows: Vec<Assoc> = id2s
                    .iter()
                    .filter_map(|id2| head.iter().find(|a| a.id2 == *id2).cloned())
                    .collect();
                cost.cache_hits = 1;
                cost.rows_read = id2s.len() as u64;
                let cost = cost.finish();
                let n = rows.len();
                self.regions[region as usize].counters.record(cost, n);
                return (rows, cost);
            }
        }
        cost.cache_misses = 1;
        let shard = self.shard_of(id1) as usize;
        let (rows, scanned) = self.shards[shard].get_assocs(id1, atype, id2s);
        cost.rows_read = scanned;
        // Refresh the cached head for subsequent lookups.
        let (head, _) = self.shards[shard].assoc_range(id1, atype, 0, ASSOC_HEAD_LEN);
        self.regions[region as usize]
            .cache
            .insert(key, CacheVal::AssocHead(head));
        let cost = cost.finish();
        let n = rows.len();
        self.regions[region as usize].counters.record(cost, n);
        (rows, cost)
    }

    /// Association count for a list.
    pub fn assoc_count(
        &mut self,
        region: RegionId,
        id1: ObjectId,
        atype: &str,
    ) -> (u64, QueryCost) {
        let mut cost = QueryCost {
            shards_touched: 1,
            rows_read: 1,
            cache_misses: 1,
            ..Default::default()
        };
        let shard = self.shard_of(id1) as usize;
        let n = self.shards[shard].assoc_count(id1, atype);
        cost = cost.finish();
        self.regions[region as usize]
            .counters
            .record(cost, n as usize);
        (n, cost)
    }

    /// Intersect query: the top-`limit` most recent associations across all
    /// of `id1s`' lists (e.g. "newest stories among my friends").
    ///
    /// This is the expensive polling shape: it touches the shard of *every*
    /// `id1` and scans each list head before merging.
    pub fn assoc_intersect(
        &mut self,
        region: RegionId,
        id1s: &[ObjectId],
        atype: &str,
        limit: usize,
    ) -> (Vec<Assoc>, QueryCost) {
        let mut cost = QueryCost::default();
        let mut shards_touched = FxHashSet::default();
        let mut all = Vec::new();
        for &id1 in id1s {
            let shard_idx = self.shard_of(id1);
            shards_touched.insert(shard_idx);
            let (rows, scanned) = self.shards[shard_idx as usize].assoc_range(id1, atype, 0, limit);
            cost.rows_read += scanned;
            cost.cache_misses += 1;
            all.extend(rows);
        }
        cost.shards_touched = shards_touched.len() as u64;
        all.sort_by(|a, b| b.time.cmp(&a.time).then(a.id2.cmp(&b.id2)));
        all.truncate(limit);
        let cost = cost.finish();
        let n = all.len();
        self.regions[region as usize].counters.record(cost, n);
        (all, cost)
    }
}

/// Config, intern tables (in intern order), leader shards, and each
/// region's follower cache in recency order plus its cost counters.
/// Reading re-points every restored `otype` and payload key at the
/// restored intern tables, reproducing the sharing the live store
/// maintains; strings absent from the tables are a corruption signal and
/// fail the restore.
impl Snap for Tao {
    fn snap(&self, w: &mut SnapWriter) {
        self.config.snap(w);
        self.otypes.snap(w);
        self.keys.snap(w);
        for shard in &self.shards {
            shard.snap(w);
        }
        for tier in &self.regions {
            w.put_usize(tier.cache.len());
            for (key, val) in tier.cache.iter_recency() {
                key.snap(w);
                val.snap(w);
            }
            w.put_u64(tier.cache.hits());
            w.put_u64(tier.cache.misses());
            tier.counters.snap(w);
        }
        self.next_id.snap(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> SnapResult<Self> {
        let config = TaoConfig::restore(r)?;
        // The counts size allocations below and every shard and region
        // encodes at least one byte, so neither can exceed what is left.
        let fits = |n: usize| n > 0 && n <= r.remaining();
        if !fits(config.shards as usize)
            || !fits(config.regions as usize)
            || config.cache_capacity == 0
        {
            return Err(SnapError::Invalid(format!("bad tao config {config:?}")));
        }
        let intern_table = |r: &mut SnapReader<'_>| -> SnapResult<Vec<Arc<str>>> {
            let table = Vec::<Arc<str>>::restore(r)?;
            if table.iter().collect::<FxHashSet<_>>().len() != table.len() {
                return Err(SnapError::Invalid("duplicate interned string".into()));
            }
            Ok(table)
        };
        let otypes = intern_table(r)?;
        let keys = intern_table(r)?;
        let reintern = |table: &[Arc<str>], s: &mut Arc<str>| -> SnapResult<()> {
            let shared = table.iter().find(|t| **t == *s);
            *s = shared
                .cloned()
                .ok_or_else(|| SnapError::Invalid(format!("{s:?} not in intern table")))?;
            Ok(())
        };
        let reintern_data =
            |data: &mut Data| data.iter_mut().try_for_each(|(k, _)| reintern(&keys, k));
        let reintern_object = |obj: &mut Object| -> SnapResult<()> {
            reintern(&otypes, &mut obj.otype)?;
            reintern_data(&mut obj.data)
        };
        let mut shards = Vec::with_capacity(config.shards as usize);
        for _ in 0..config.shards {
            let mut shard = Shard::restore(r)?;
            shard.objects_mut().try_for_each(reintern_object)?;
            shard
                .assocs_mut()
                .try_for_each(|a| reintern_data(&mut a.data))?;
            shards.push(shard);
        }
        let mut regions = Vec::with_capacity(config.regions as usize);
        for _ in 0..config.regions {
            let mut entries = Vec::<(CacheKey, CacheVal)>::restore(r)?;
            for (_, val) in &mut entries {
                match val {
                    CacheVal::Obj(obj) => reintern_object(obj)?,
                    CacheVal::AssocHead(head) => head
                        .iter_mut()
                        .try_for_each(|a| reintern_data(&mut a.data))?,
                }
            }
            let (hits, misses) = Snap::restore(r)?;
            let cache = LruCache::from_recency(config.cache_capacity, entries, hits, misses)
                .map_err(|e| SnapError::Invalid(e.into()))?;
            regions.push(RegionTier {
                cache,
                counters: Snap::restore(r)?,
            });
        }
        Ok(Tao {
            config,
            shards,
            regions,
            next_id: Snap::restore(r)?,
            otypes,
            keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn tao() -> Tao {
        Tao::new(TaoConfig::small())
    }

    #[test]
    fn obj_roundtrip_and_point_cost() {
        let mut t = tao();
        let id = t.obj_add("user", vec![("name".into(), Value::from("ada"))]);
        let (obj, cost) = t.obj_get(0, id);
        assert_eq!(obj.unwrap().get("name").unwrap().as_str(), Some("ada"));
        assert_eq!(cost.shards_touched, 1);
        assert_eq!(cost.cache_misses, 1);
        // Second read hits the follower cache.
        let (_, cost2) = t.obj_get(0, id);
        assert_eq!(cost2.cache_hits, 1);
        assert_eq!(cost2.cache_misses, 0);
        assert!(cost2.cpu_us < cost.cpu_us);
    }

    #[test]
    fn write_invalidates_local_cache_and_emits_remote_events() {
        let mut t = tao();
        let id = t.obj_add("user", vec![("v".into(), Value::from(1i64))]);
        t.obj_get(0, id);
        t.obj_get(1, id);
        let events = t
            .obj_update(id, vec![("v".into(), Value::from(2i64))])
            .unwrap();
        // Events for regions 1 and 2 (region 0 is local).
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.region != 0));
        // Local region sees fresh data immediately.
        let (obj, _) = t.obj_get(0, id);
        assert_eq!(obj.unwrap().get("v").unwrap().as_int(), Some(2));
        // Remote region still serves the stale cached copy.
        let (stale, _) = t.obj_get(1, id);
        assert_eq!(stale.unwrap().get("v").unwrap().as_int(), Some(1));
        // After replication applies, the remote region reads fresh data.
        for e in &events {
            t.apply_replication(e);
        }
        let (fresh, _) = t.obj_get(1, id);
        assert_eq!(fresh.unwrap().get("v").unwrap().as_int(), Some(2));
    }

    #[test]
    fn assoc_range_cached_head() {
        let mut t = tao();
        let v = t.obj_add("video", vec![]);
        for i in 0..10u64 {
            let c = t.obj_add("comment", vec![]);
            t.assoc_add(v, "has_comment", c, i, vec![]);
        }
        let (rows, cost1) = t.assoc_range(0, v, "has_comment", 0, 5);
        assert_eq!(rows.len(), 5);
        assert_eq!(cost1.cache_misses, 1);
        let (rows2, cost2) = t.assoc_range(0, v, "has_comment", 0, 5);
        assert_eq!(rows2, rows);
        assert_eq!(cost2.cache_hits, 1);
        // A write to the list invalidates the head.
        let c = t.obj_add("comment", vec![]);
        t.assoc_add(v, "has_comment", c, 99, vec![]);
        let (rows3, cost3) = t.assoc_range(0, v, "has_comment", 0, 5);
        assert_eq!(cost3.cache_misses, 1);
        assert_eq!(rows3[0].time, 99);
    }

    #[test]
    fn cached_head_serves_short_lists() {
        let mut t = tao();
        let v = t.obj_add("video", vec![]);
        let c = t.obj_add("comment", vec![]);
        t.assoc_add(v, "has_comment", c, 1, vec![]);
        t.assoc_range(0, v, "has_comment", 0, 10);
        // Head has 1 entry (< want=10) but list is short, so it still serves.
        let (_, cost) = t.assoc_range(0, v, "has_comment", 0, 10);
        assert_eq!(cost.cache_hits, 1);
    }

    #[test]
    fn time_range_always_hits_storage() {
        let mut t = tao();
        let v = t.obj_add("video", vec![]);
        for i in 0..5u64 {
            let c = t.obj_add("comment", vec![]);
            t.assoc_add(v, "has_comment", c, i, vec![]);
        }
        let (rows, cost) = t.assoc_time_range(0, v, "has_comment", 2, 4, 10);
        assert_eq!(rows.len(), 3);
        assert_eq!(cost.cache_misses, 1);
        let (_, cost2) = t.assoc_time_range(0, v, "has_comment", 2, 4, 10);
        assert_eq!(cost2.cache_misses, 1, "since-queries never cache");
    }

    #[test]
    fn intersect_touches_many_shards() {
        let mut t = tao();
        let friends: Vec<ObjectId> = (0..50).map(|_| t.obj_add("user", vec![])).collect();
        for (i, &f) in friends.iter().enumerate() {
            let s = t.obj_add("story", vec![]);
            t.assoc_add(f, "has_story", s, i as u64, vec![]);
        }
        let (rows, cost) = t.assoc_intersect(0, &friends, "has_story", 10);
        assert_eq!(rows.len(), 10);
        assert!(
            cost.shards_touched > 5,
            "intersect should touch many shards, got {}",
            cost.shards_touched
        );
        // Compare to a point read.
        let (_, point) = t.obj_get(0, friends[0]);
        assert!(cost.cpu_us > 10 * point.cpu_us);
    }

    #[test]
    fn intersect_merges_newest_first() {
        let mut t = tao();
        let a = t.obj_add("user", vec![]);
        let b = t.obj_add("user", vec![]);
        let s1 = t.obj_add("story", vec![]);
        let s2 = t.obj_add("story", vec![]);
        let s3 = t.obj_add("story", vec![]);
        t.assoc_add(a, "has_story", s1, 10, vec![]);
        t.assoc_add(b, "has_story", s2, 30, vec![]);
        t.assoc_add(a, "has_story", s3, 20, vec![]);
        let (rows, _) = t.assoc_intersect(0, &[a, b], "has_story", 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].time, 30);
        assert_eq!(rows[1].time, 20);
    }

    #[test]
    fn assoc_get_and_count() {
        let mut t = tao();
        let u = t.obj_add("user", vec![]);
        let v = t.obj_add("user", vec![]);
        let w = t.obj_add("user", vec![]);
        t.assoc_add(u, "friend", v, 1, vec![]);
        t.assoc_add(u, "friend", w, 2, vec![]);
        let (rows, _) = t.assoc_get(0, u, "friend", &[v]);
        assert_eq!(rows.len(), 1);
        let (n, _) = t.assoc_count(0, u, "friend");
        assert_eq!(n, 2);
    }

    #[test]
    fn counters_accumulate_per_region() {
        let mut t = tao();
        let id = t.obj_add("user", vec![]);
        t.obj_get(0, id);
        t.obj_get(0, id);
        t.obj_get(1, id);
        assert_eq!(t.counters(0).ops, 2);
        assert_eq!(t.counters(1).ops, 1);
        assert!(t.cache_hit_rate(0) > 0.0);
    }

    #[test]
    fn empty_fraction_tracks_empty_polls() {
        let mut t = tao();
        let v = t.obj_add("video", vec![]);
        for _ in 0..8 {
            t.assoc_time_range(0, v, "has_comment", 0, u64::MAX, 10);
        }
        let c = t.obj_add("comment", vec![]);
        t.assoc_add(v, "has_comment", c, 1, vec![]);
        t.assoc_time_range(0, v, "has_comment", 0, u64::MAX, 10);
        // 8 of 9 range reads were empty, close to the paper's "80% of the
        // queries return no new data".
        let frac = t.counters(0).empty_fraction();
        assert!(frac > 0.8, "empty fraction {frac}");
    }

    #[test]
    fn ids_spread_across_shards() {
        let mut t = tao();
        let mut used = std::collections::HashSet::new();
        for _ in 0..200 {
            let id = t.obj_add("user", vec![]);
            used.insert(t.shard_of(id));
        }
        assert!(used.len() > 10, "ids landed on {} shards", used.len());
    }

    fn snapped(t: &Tao) -> Vec<u8> {
        let mut w = SnapWriter::new();
        t.snap(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut t = tao();
        let a = t.obj_add("user", vec![("name".into(), Value::from("ada"))]);
        let b = t.obj_add("video", vec![("title".into(), Value::from("eclipse"))]);
        t.assoc_add(a, "likes", b, 7, vec![("w".into(), Value::from(0.5))]);
        t.obj_get(0, a);
        t.obj_get(1, b);
        t.assoc_range(2, a, "likes", 0, 10);
        let bytes = snapped(&t);
        let mut r = SnapReader::new(&bytes);
        let back = Tao::restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        assert_eq!(snapped(&back), bytes);
    }

    /// A shard or region count the rest of the body cannot hold is
    /// corruption; it must fail before it sizes an allocation (one flipped
    /// byte used to ask for 166 GB of shards and abort the process).
    #[test]
    fn restore_rejects_counts_the_body_cannot_hold() {
        let bytes = snapped(&tao());
        let mut shards = bytes.clone();
        shards[3] ^= 0x7f; // top byte of the u32 shard count
        let mut regions = bytes.clone();
        regions[5] ^= 0x7f; // top byte of the u16 region count
        for bad in [shards, regions] {
            let err = Tao::restore(&mut SnapReader::new(&bad)).err();
            assert!(
                matches!(err, Some(SnapError::Invalid(_))),
                "accepted or misreported: {err:?}"
            );
        }
    }

    /// Restoring follower caches is linear in their entries: 80 k of them
    /// took 11 s (release) when every restored key was compared with all
    /// earlier ones.
    #[test]
    fn follower_cache_restore_is_linear() {
        let mut t = Tao::new(TaoConfig {
            shards: 4,
            regions: 3,
            cache_capacity: 100_000,
        });
        for i in 0..80_000i64 {
            let id = t.obj_add("user", vec![("n".into(), Value::from(i))]);
            t.obj_get(0, id);
        }
        let bytes = snapped(&t);
        let started = std::time::Instant::now();
        let back = Tao::restore(&mut SnapReader::new(&bytes)).expect("restore");
        let took = started.elapsed();
        assert_eq!(back.regions[0].cache.len(), 80_000);
        assert!(took.as_secs_f64() < 3.0, "restore took {took:?}");
    }
}
