//! The model sharded across simulated nodes: routing, hot-shard replication and
//! failover by re-cutting from the coordinator.
//!
//! The paper runs X-Map on a Spark cluster whose executors each hold a *partition*
//! of the fitted state. This module reproduces that deployment shape on one
//! machine, with the same bit-identity discipline as the rest of the workspace:
//!
//! * [`ShardMap`] — a deterministic item-range partition of the catalogue. The
//!   per-item rows a read consults (replacement pairs, item-kNN pools) of a
//!   [`ModelEpoch`] are cut into one [`ShardSlice`] per shard; the similarity graph
//!   and X-Sim are fit-time inputs that stay with the coordinator. Shard `s` is
//!   owned by node `s mod n`, and *hot* shards — shards holding an item from the
//!   popularity head — carry extra replicas on the following nodes (clamped to the
//!   node count).
//! * [`ShardedModel`] — the router. It owns the coordinator [`XMapModel`] (the
//!   authoritative fit/ingest plane: adjusted-cosine similarities, X-Sim walks and
//!   replacement draws all read *cross-shard* state, so the global recompute stays
//!   in one place) and a set of simulated nodes, each holding the slices of the
//!   shards it hosts, each with its epoch, plus, per shard, the mode's recommender
//!   assembled (`recommend::assemble`) over the slice's own pool table — the same
//!   `Arc`, not a copy — and the same items' rows of the coordinator's X-Map-ib
//!   release — copied, never redrawn: only the coordinator's build draws — once per
//!   shard, its hosts sharing it exactly as they share the slice, replicas of a
//!   fragment being copies of one state — so a replica answers with the single-node
//!   code, over the rows it holds. A read goes only where the state it reads lives:
//!   a prediction to a live replica of the item's shard, a user-based top-N (which
//!   reads only the replicated matrix) whole to one replica of the profile's home
//!   shard, and an item-based top-N (which reads the partitioned pools) to the
//!   shards owning its candidates, each scoring its contiguous ascending segment of
//!   the candidate stream, every score offered in stream order to one [`TopK`] — the
//!   single-node read's offers, so the same bits.
//! * Failover — a shard replica is a copy of the coordinator's state, refreshed from
//!   it, and nothing about it is durable. [`ShardedModel::persist`] persists the
//!   coordinator, whose `apply_delta` is the only journal an ingest writes. Killing a
//!   node drops its in-memory state; [`ShardedModel::recover_node`] gives it back each
//!   hosted shard of the coordinator's current epoch — a live sibling's slice and
//!   recommender, shared, or one fresh cut — so it needs no files and serves the
//!   coordinator's bits.
//!
//! Every write (`ingest`, `persist`, `kill_node`, `recover_node`) takes `&mut self`,
//! so no read races it, and a node holds its slices as plain values.
//!
//! Routing, per-shard serving and per-shard ingest work are tallied per node
//! ([`ShardedModel::ledger`]: `route` / `shard_serve` / `shard_ingest`) with
//! data-derived costs, so `xmap_engine::ClusterSim::replay_pinned` can replay a
//! serving trace on a simulated cluster exactly like the fit ledger.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::delta::{DeltaReport, RatingDelta};
use crate::generator::{self, AlterEgo};
use crate::pipeline::{ModelEpoch, XMapModel};
use crate::recommend::{self, NeighborTable, ProfileScratch, ServePlan, SharedRecommender};
use crate::{Result, XMapError};
use xmap_cf::knn::{ItemNeighbor, Profile};
use xmap_cf::topk::TopK;
use xmap_cf::{ItemId, UserId};
use xmap_engine::RoutedTally;
use xmap_privacy::PrivacyBudget;

// ---------------------------------------------------------------------------
// Shard map
// ---------------------------------------------------------------------------

/// A deterministic partition of the item catalogue into contiguous id ranges,
/// with a per-shard replica count.
///
/// The map is a pure function of `(n_items, n_shards)` plus any explicit
/// [`ShardMap::replicate_hot`] calls, so every node derives identical placement
/// without coordination — the moral equivalent of Spark's hash partitioner, made
/// range-based so each shard's part of an ascending candidate stream is one
/// contiguous segment (what lets a routed top-N offer scores in stream order).
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMap {
    n_items: u32,
    /// `n_shards + 1` ascending bounds; shard `s` covers `bounds[s]..bounds[s+1]`.
    bounds: Vec<u32>,
    /// Replica count per shard, each ≥ 1 (1 = owner only).
    replicas: Vec<u32>,
}

impl ShardMap {
    /// An even split of `n_items` into `n_shards` contiguous ranges (the first
    /// `n_items % n_shards` shards get one extra item). Shards beyond the
    /// catalogue are empty — legal, they simply contribute nothing to any query.
    pub fn uniform(n_items: u32, n_shards: usize) -> Result<ShardMap> {
        if n_shards == 0 {
            return Err(XMapError::InvalidConfig(
                "shard map needs at least one shard".into(),
            ));
        }
        let base = n_items / n_shards as u32;
        let rem = (n_items % n_shards as u32) as usize;
        let mut bounds = Vec::with_capacity(n_shards + 1);
        let mut at = 0u32;
        bounds.push(at);
        for s in 0..n_shards {
            at += base + u32::from(s < rem);
            bounds.push(at);
        }
        Ok(ShardMap {
            n_items,
            bounds,
            replicas: vec![1; n_shards],
        })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.replicas.len()
    }

    /// Number of catalogue items the map was built over.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// The shard owning an item. Ids at or beyond the catalogue clamp into the
    /// last shard, so items that arrive in later deltas still have a home.
    pub fn shard_of(&self, item: ItemId) -> u32 {
        let idx = self.bounds[1..].partition_point(|&end| end <= item.0);
        (idx as u32).min(self.n_shards() as u32 - 1)
    }

    /// The `[start, end)` item-id range of a shard as laid out at map build time.
    pub fn range(&self, shard: u32) -> (u32, u32) {
        (self.bounds[shard as usize], self.bounds[shard as usize + 1])
    }

    /// Like [`ShardMap::range`], but with the last shard stretched to a grown
    /// catalogue: items appended by deltas after the map was built clamp into the
    /// last shard (see [`ShardMap::shard_of`]), so its effective range must cover
    /// them when slices are cut.
    pub(crate) fn effective_range(&self, shard: u32, catalogue_items: u32) -> (u32, u32) {
        let (start, end) = self.range(shard);
        if shard as usize + 1 == self.n_shards() {
            (start, end.max(catalogue_items))
        } else {
            (start, end)
        }
    }

    /// The replica count of a shard (1 = owner only), before node-count clamping.
    pub fn replication(&self, shard: u32) -> u32 {
        self.replicas[shard as usize]
    }

    /// The node owning a shard: round-robin `shard mod n_nodes`.
    pub fn owner(&self, shard: u32, n_nodes: usize) -> usize {
        shard as usize % n_nodes
    }

    /// The nodes hosting a shard: the owner plus the next `replication - 1` nodes
    /// round-robin. The count clamps to `n_nodes` — asking for more replicas than
    /// nodes yields every node exactly once, never a duplicate host.
    pub fn hosts(&self, shard: u32, n_nodes: usize) -> Vec<usize> {
        self.host_seq(shard, n_nodes).collect()
    }

    /// [`ShardMap::hosts`], unallocated.
    fn host_seq(&self, shard: u32, n_nodes: usize) -> impl Iterator<Item = usize> + Clone {
        let owner = self.owner(shard, n_nodes);
        let count = (self.replication(shard) as usize).min(n_nodes).max(1);
        (0..count).map(move |i| (owner + i) % n_nodes)
    }

    /// Raises the replica count of every shard holding one of the `head` most
    /// popular items to `factor`. `popularity[i]` is the observed rating count of
    /// item `i`; the head is taken by descending count with ascending-id
    /// tie-break, so the hot set is deterministic.
    pub fn replicate_hot(&mut self, popularity: &[usize], head: usize, factor: u32) {
        let mut order: Vec<u32> = (0..popularity.len() as u32).collect();
        order.sort_by(|&a, &b| {
            popularity[b as usize]
                .cmp(&popularity[a as usize])
                .then(a.cmp(&b))
        });
        for &item in order.iter().take(head) {
            let s = self.shard_of(ItemId(item)) as usize;
            self.replicas[s] = self.replicas[s].max(factor.max(1));
        }
    }
}

// ---------------------------------------------------------------------------
// Shard slices
// ---------------------------------------------------------------------------

/// The rows a replica of one shard's item range serves, cut from a [`ModelEpoch`]:
/// the replacement pairs of its source items (routed AlterEgo gathering), sorted by
/// source, and, for the item-based modes, the item-kNN pool table its recommender
/// reads — indexed by item id up to `end`, every row before `start` empty, the
/// shard's one copy of its pools. The similarity graph and X-Sim are fit-time inputs
/// the coordinator alone reads, so no slice holds them. Two cuts of the same epoch
/// compare bit-for-bit with `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSlice {
    shard: u32,
    start: u32,
    end: u32,
    replacement_pairs: Vec<(ItemId, ItemId)>,
    pools: Option<NeighborTable>,
}

impl ShardSlice {
    /// The `[start, end)` item-id range the slice covers (the last shard's range
    /// stretches over catalogue growth, see [`ShardMap::shard_of`]).
    pub fn item_range(&self) -> (u32, u32) {
        (self.start, self.end)
    }

    /// Cuts the slice of `shard` out of a published epoch.
    pub(crate) fn cut(epoch: &ModelEpoch, map: &ShardMap, shard: u32) -> ShardSlice {
        let (start, end) = map.effective_range(shard, epoch.matrix().n_items() as u32);
        let mut replacement_pairs: Vec<(ItemId, ItemId)> = epoch
            .replacements()
            .iter()
            .filter(|&(source, _)| map.shard_of(source) == shard)
            .collect();
        replacement_pairs.sort_unstable();
        let pools = epoch
            .item_pools
            .as_deref()
            .map(|all| padded(all, start, end));
        ShardSlice {
            shard,
            start,
            end,
            replacement_pairs,
            pools,
        }
    }

    /// The replacement of a source item owned by this shard, if any.
    pub(crate) fn replacement_of(&self, item: ItemId) -> Option<ItemId> {
        replacement_in(&self.replacement_pairs, item)
    }

    /// The mode's recommender over this slice's own pool table (the same `Arc`), the
    /// same items' rows of `epoch`'s X-Map-ib release padded alike, and the epoch's
    /// target-domain matrix. Built once per shard and shared by its hosts. The release
    /// rows are copies of the ones the coordinator's build drew, so a shard draws
    /// nothing and spends no ε.
    fn recommender(&self, epoch: &ModelEpoch) -> Result<SharedRecommender> {
        let target = Arc::clone(epoch.recommender.target());
        let released = epoch.item_release.as_deref();
        let released = released.map(|all| padded(all, self.start, self.end));
        recommend::assemble(epoch.config(), target, self.pools.clone(), released)
    }
}

/// Rows `start..end` of a per-item table, indexed by item id: every row before
/// `start` (or past the table) empty.
fn padded(table: &[Vec<ItemNeighbor>], start: u32, end: u32) -> NeighborTable {
    let row = |at: usize| table.get(at).filter(|_| at >= start as usize).cloned();
    let rows = (0..end as usize).map(|at| row(at).unwrap_or_default());
    Arc::new(rows.collect())
}

/// The replacement of `item` among `(source, replacement)` pairs ascending by source.
fn replacement_in(pairs: &[(ItemId, ItemId)], item: ItemId) -> Option<ItemId> {
    let at = pairs.binary_search_by_key(&item, |&(source, _)| source);
    at.ok().map(|ix| pairs[ix].1)
}

// ---------------------------------------------------------------------------
// Nodes and the sharded model
// ---------------------------------------------------------------------------

/// One hosted shard on one node: the slice with the epoch it was cut at, and the
/// mode's recommender over the slice's own pool table and its release rows (empty rows
/// outside the shard) and the epoch's target-domain matrix. Slice and recommender are
/// the shard's, not the node's — every host holds a clone of the same two `Arc`s. The
/// matrix is the replicated data plane every node reads (user-based prediction needs
/// all raters' averages) and is shared, not copied; the pools are the genuinely
/// partitioned fitted state. Writes take the model's `&mut self`, so the slice is
/// replaced in place: no read can race it.
struct NodeShard {
    epoch: u64,
    slice: Arc<ShardSlice>,
    serve: SharedRecommender,
}

/// One simulated node: alive flag plus the shards it hosts. Killing a node
/// clears `shards`: its in-memory state is lost.
struct ShardNode {
    alive: bool,
    shards: BTreeMap<u32, NodeShard>,
}

impl ShardNode {
    fn new() -> ShardNode {
        ShardNode {
            alive: true,
            shards: BTreeMap::new(),
        }
    }

    /// Installs `slice`, cut at `epoch`, and the recommender built from it as this
    /// node's replica of its shard.
    fn install(&mut self, epoch: u64, slice: Arc<ShardSlice>, serve: SharedRecommender) {
        let shard = slice.shard;
        let hosted = NodeShard {
            epoch,
            slice,
            serve,
        };
        self.shards.insert(shard, hosted);
    }
}

/// The three routed-work tallies plus the read-routing rotation counter.
#[derive(Default)]
struct ShardLedgers {
    route: RoutedTally,
    serve: RoutedTally,
    ingest: RoutedTally,
    next_read: u64,
}

/// The X-Map model sharded across simulated nodes.
///
/// Owns the coordinator [`XMapModel`] (authoritative fit/ingest plane) and the
/// per-node shard replicas serving routed reads. All serving entry points are
/// `&self` and bit-identical to the coordinator's single-node answers; ingest,
/// persistence and failover are `&mut self` coordinator-driven operations. See
/// the [module docs](self) for the full contract.
pub struct ShardedModel {
    model: XMapModel,
    map: ShardMap,
    nodes: Vec<ShardNode>,
    ledgers: Mutex<ShardLedgers>,
}

fn lock_ledgers(ledgers: &Mutex<ShardLedgers>) -> std::sync::MutexGuard<'_, ShardLedgers> {
    ledgers.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedModel {
    /// Shards a fitted model across `n_nodes` simulated nodes, one shard per
    /// node, no replication. The coordinator model moves in and keeps running
    /// fits, ingests and the privacy ledger; the nodes get slices of the
    /// per-item rows they serve, cut from its current epoch.
    pub fn from_model(model: XMapModel, n_nodes: usize) -> Result<ShardedModel> {
        let n_items = model.snapshot().1.matrix().n_items() as u32;
        let map = ShardMap::uniform(n_items, n_nodes)?;
        Self::build(model, map, n_nodes)
    }

    /// Like [`ShardedModel::from_model`], but with hot-shard partial
    /// replication: shards holding an item of the observed popularity head (the
    /// top tenth of items by rating count, at least one) carry `factor` replicas,
    /// clamped to the node count.
    pub fn with_hot_replication(
        model: XMapModel,
        n_nodes: usize,
        factor: u32,
    ) -> Result<ShardedModel> {
        let full = model.matrix();
        let n_items = full.n_items() as u32;
        let mut map = ShardMap::uniform(n_items, n_nodes)?;
        let popularity: Vec<usize> = (0..n_items).map(|i| full.item_degree(ItemId(i))).collect();
        map.replicate_hot(&popularity, (n_items as usize / 10).max(1), factor);
        Self::build(model, map, n_nodes)
    }

    fn build(model: XMapModel, map: ShardMap, n_nodes: usize) -> Result<ShardedModel> {
        if n_nodes == 0 {
            return Err(XMapError::InvalidConfig(
                "sharded model needs at least one node".into(),
            ));
        }
        let (epoch_no, epoch) = model.snapshot();
        let mut nodes: Vec<ShardNode> = (0..n_nodes).map(|_| ShardNode::new()).collect();
        for shard in 0..map.n_shards() as u32 {
            let slice = Arc::new(ShardSlice::cut(&epoch, &map, shard));
            let serve = slice.recommender(&epoch)?;
            for host in map.hosts(shard, n_nodes) {
                nodes[host].install(epoch_no, Arc::clone(&slice), Arc::clone(&serve));
            }
        }
        drop(epoch);
        Ok(ShardedModel {
            model,
            map,
            nodes,
            ledgers: Mutex::new(ShardLedgers::default()),
        })
    }

    /// The item-range shard map the model was built with.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// The coordinator model: the authoritative fit/ingest plane.
    pub fn coordinator(&self) -> &XMapModel {
        &self.model
    }

    /// The coordinator's current epoch (live slices are installed in lockstep with it).
    pub fn epoch(&self) -> u64 {
        self.model.epoch()
    }

    /// Whether a node is alive (serving reads and receiving ingests).
    pub fn node_is_alive(&self, node: usize) -> bool {
        self.nodes.get(node).is_some_and(|n| n.alive)
    }

    /// The slice a node currently holds for a shard, with the epoch it was cut at.
    /// `None` if the node does not host the shard (or lost it to a kill).
    pub fn slice(&self, node: usize, shard: u32) -> Option<(u64, Arc<ShardSlice>)> {
        let ns = self.nodes.get(node)?.shards.get(&shard)?;
        Some((ns.epoch, Arc::clone(&ns.slice)))
    }

    /// The privacy accountant of the coordinator's current epoch (private modes
    /// only) — sharding never spends additional ε.
    pub fn privacy_budget(&self) -> Option<Arc<PrivacyBudget>> {
        self.model.privacy_budget()
    }

    /// Picks a live replica of a shard (rotating across replicas) and records
    /// the routing decision in the `route` ledger. Fails when every host of the
    /// shard is dead.
    fn read_host(&self, shard: u32) -> Result<usize> {
        let hosts = self.map.host_seq(shard, self.nodes.len());
        let live =
            hosts.filter(|&h| self.nodes[h].alive && self.nodes[h].shards.contains_key(&shard));
        let n_live = live.clone().count().max(1) as u64;
        let mut led = lock_ledgers(&self.ledgers);
        let Some(pick) = live.clone().nth((led.next_read % n_live) as usize) else {
            let dead = format!("shard {shard} has no live replica (all hosts killed)");
            return Err(XMapError::Data(dead));
        };
        led.next_read += 1;
        led.route.add(pick, 1.0);
        Ok(pick)
    }

    fn node_shard(&self, node: usize, shard: u32) -> Result<&NodeShard> {
        self.nodes[node].shards.get(&shard).ok_or_else(|| {
            XMapError::Data(format!(
                "node {node} does not hold a replica of shard {shard}"
            ))
        })
    }

    fn push_serve(&self, node: usize, cost: f64) {
        lock_ledgers(&self.ledgers).serve.add(node, cost);
    }

    /// The home shard of a profile: the shard of its first item (shard 0 for an
    /// empty profile). A user-based top-N runs whole on a replica of it.
    fn home_shard(&self, profile: &Profile) -> u32 {
        profile
            .first()
            .map(|&(i, _, _)| self.map.shard_of(i))
            .unwrap_or(0)
    }

    /// The AlterEgo of a user, assembled by gathering the user's source items'
    /// replacement pairs from their owning shards — bit-identical to the
    /// coordinator's table because the mapping only ever consults those pairs.
    pub fn alterego(&self, user: UserId) -> Result<AlterEgo> {
        let (_, epoch) = self.model.snapshot();
        let full = epoch.matrix();
        let source = epoch.source_domain();
        let mut by_shard: BTreeMap<u32, Vec<ItemId>> = BTreeMap::new();
        for e in full.user_profile(user) {
            if full.item_domain(e.item) == source {
                by_shard
                    .entry(self.map.shard_of(e.item))
                    .or_default()
                    .push(e.item);
            }
        }
        let mut pairs: Vec<(ItemId, ItemId)> = Vec::new();
        for (shard, items) in &by_shard {
            let host = self.read_host(*shard)?;
            let slice = &self.node_shard(host, *shard)?.slice;
            for &i in items {
                if let Some(t) = slice.replacement_of(i) {
                    pairs.push((i, t));
                }
            }
            self.push_serve(host, 1.0 + items.len() as f64);
        }
        // `pairs` ascend by source item: the profile does, and shards are ascending ranges.
        Ok(generator::map_profile(
            |item| replacement_in(&pairs, item),
            full,
            user,
            source,
            epoch.target_domain(),
            epoch.config().transfer,
        ))
    }

    /// Routed single-item prediction for a user, driven by their gathered
    /// AlterEgo.
    pub fn predict(&self, user: UserId, item: ItemId) -> Result<f64> {
        let alter = self.alterego(user)?;
        self.predict_for_profile(&alter.profile, item)
    }

    /// Routed single-item prediction for an explicit profile: served by a live
    /// replica of the item's owning shard.
    pub fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> Result<f64> {
        self.on_replica(self.map.shard_of(item), |replica| {
            let out = replica.serve.predict_for_profile(profile, item);
            (out, 1.0 + profile.len() as f64)
        })
    }

    /// Routed top-N recommendations for a user (AlterEgo gathered first).
    pub fn recommend(&self, user: UserId, n: usize) -> Result<Vec<(ItemId, f64)>> {
        let alter = self.alterego(user)?;
        self.recommend_for_profile(&alter.profile, n)
    }

    /// Routed top-N recommendations for an explicit profile, sent only where the
    /// state it reads lives. A user-based request reads nothing but the replicated
    /// target matrix, so it is one hop: the single-node read on a replica of the
    /// profile's home shard (cost `1 + |profile|`). An item-based one reads the
    /// partitioned pools: `candidates` runs on the shards owning the profile's items
    /// (cost `1 +` those items), then [`routed_scores`](Self::routed_scores) ranks
    /// the stream. Bit-identical to the single-node recommender either way.
    pub fn recommend_for_profile(&self, profile: &Profile, n: usize) -> Result<Vec<(ItemId, f64)>> {
        if !self.model.config().mode.is_item_based() {
            return self.on_replica(self.home_shard(profile), |replica| {
                let out = replica.serve.recommend_for_profile(profile, n);
                (out, 1.0 + profile.len() as f64)
            });
        }
        let mut hops: BTreeMap<u32, f64> = BTreeMap::new();
        for &(i, _, _) in profile {
            *hops.entry(self.map.shard_of(i)).or_insert(1.0) += 1.0;
        }
        // One scratch for every hop: the first hop's replica plans (loads the term
        // table every shard's `score` reads), and the plan rides along.
        recommend::with_thread_scratch(|scratch| {
            let mut plan = None;
            let mut gathered: Vec<ItemId> = Vec::new();
            for (&shard, &cost) in &hops {
                gathered.extend(self.on_replica(shard, |replica| {
                    let plan = plan.get_or_insert_with(|| replica.serve.plan(profile, scratch));
                    let (start, end) = replica.slice.item_range();
                    (replica.serve.candidates(profile, plan, start..end), cost)
                })?);
            }
            let stream = scratch.candidate_stream(profile, &gathered);
            self.routed_scores(profile, &plan.unwrap_or_default(), &stream, n, scratch)
        })
    }

    /// Runs one shard-local phase of a routed request on a live replica of
    /// `shard`; `f` returns its output with the phase's serve-ledger cost.
    fn on_replica<T>(&self, shard: u32, f: impl FnOnce(&NodeShard) -> (T, f64)) -> Result<T> {
        let host = self.read_host(shard)?;
        let (out, cost) = f(self.node_shard(host, shard)?);
        self.push_serve(host, cost);
        Ok(out)
    }

    /// Scores the ascending candidate stream on the shards that own it, one
    /// contiguous segment per shard in shard order, and offers every score, in
    /// stream order, to one [`TopK`]: the very offers the single-node read makes, so
    /// the ranking is bit-identical.
    fn routed_scores(
        &self,
        profile: &Profile,
        plan: &ServePlan,
        candidates: &[ItemId],
        n: usize,
        scratch: &mut ProfileScratch,
    ) -> Result<Vec<(ItemId, f64)>> {
        let last = self.map.n_shards() as u32 - 1;
        let mut global = TopK::new(n);
        let mut ix = 0;
        while ix < candidates.len() {
            let shard = self.map.shard_of(candidates[ix]);
            // Ids past the map clamp into the last shard, which takes the rest.
            let end = if shard == last {
                candidates.len()
            } else {
                let (_, bound) = self.map.range(shard);
                ix + candidates[ix..].partition_point(|c| c.0 < bound)
            };
            let segment = &candidates[ix..end];
            let scored = self.on_replica(shard, |replica| {
                let scored = replica.serve.score(profile, plan, segment, scratch);
                (scored, 1.0 + segment.len() as f64)
            })?;
            for (score, item) in scored {
                global.push(score, item);
            }
            ix = end;
        }
        Ok(global
            .into_sorted_vec()
            .into_iter()
            .map(|(s, i)| (i, s))
            .collect())
    }

    /// Routed delta ingest: applies the **full** delta on the coordinator (slice
    /// rows are cross-shard functions of the whole matrix; with a store attached, its
    /// `apply_delta` journals the delta), then re-cuts every shard's slice from the new
    /// epoch and installs it on the shard's live hosts. Each live host of a shard is
    /// charged `1 +` the delta's ratings of items the shard owns. Dead nodes are
    /// skipped: [`ShardedModel::recover_node`] re-cuts them.
    pub fn ingest(&mut self, delta: &RatingDelta) -> Result<DeltaReport> {
        let mut ratings = vec![0usize; self.map.n_shards()];
        for r in delta.ratings() {
            ratings[self.map.shard_of(r.item) as usize] += 1;
        }
        let report = self.model.apply_delta(delta)?;
        let (epoch_no, epoch) = self.model.snapshot();
        for shard in 0..self.map.n_shards() as u32 {
            let slice = Arc::new(ShardSlice::cut(&epoch, &self.map, shard));
            let serve = slice.recommender(&epoch)?;
            let cost = 1.0 + ratings[shard as usize] as f64;
            for host in self.map.host_seq(shard, self.nodes.len()) {
                if self.nodes[host].alive {
                    self.nodes[host].install(epoch_no, Arc::clone(&slice), Arc::clone(&serve));
                    lock_ledgers(&self.ledgers).ingest.add(host, cost);
                }
            }
        }
        Ok(report)
    }

    /// Attaches a durable store to the coordinator ([`XMapModel::persist`]): the
    /// shards keep no files, being re-cut from the coordinator. Returns the snapshot
    /// epoch.
    pub fn persist(&mut self, dir: &Path) -> Result<u64> {
        self.model.persist(dir)
    }

    /// Kills a node: marks it dead and drops its in-memory shard state. Reads of the
    /// shards it hosted fail over to the remaining replicas (promotion is implicit in
    /// the read routing), and shards with no other replica error until recovery.
    pub fn kill_node(&mut self, node: usize) -> Result<()> {
        let n = self
            .nodes
            .get_mut(node)
            .ok_or_else(|| XMapError::Data(format!("no such node: {node}")))?;
        n.alive = false;
        n.shards.clear();
        Ok(())
    }

    /// Recovers a node from the coordinator: every shard it hosts gets the current
    /// epoch's slice and recommender — a live sibling's, shared, or, when the shard has
    /// no live host, one fresh cut. The node then serves the coordinator's bits, however
    /// many ingests it was dead across; no file is read, so no `persist` is needed.
    pub fn recover_node(&mut self, node: usize) -> Result<()> {
        if node >= self.nodes.len() {
            return Err(XMapError::Data(format!("no such node: {node}")));
        }
        let (epoch_no, epoch) = self.model.snapshot();
        let mut rebuilt = ShardNode::new();
        for shard in 0..self.map.n_shards() as u32 {
            let mut hosts = self.map.host_seq(shard, self.nodes.len());
            if !hosts.clone().any(|h| h == node) {
                continue;
            }
            let sibling = hosts.find_map(|h| {
                let live = h != node && self.nodes[h].alive;
                live.then(|| self.nodes[h].shards.get(&shard)).flatten()
            });
            let (slice, serve) = match sibling {
                Some(ns) => (Arc::clone(&ns.slice), Arc::clone(&ns.serve)),
                None => {
                    let slice = Arc::new(ShardSlice::cut(&epoch, &self.map, shard));
                    let serve = slice.recommender(&epoch)?;
                    (slice, serve)
                }
            };
            rebuilt.install(epoch_no, slice, serve);
        }
        self.nodes[node] = rebuilt;
        Ok(())
    }

    /// The routed-work ledger: one per-node tally per kind of routed work, each
    /// replayable by `xmap_engine::ClusterSim::replay_pinned` —
    /// * `route`: one unit-cost task per routed request→shard interaction, on the
    ///   serving node;
    /// * `shard_serve`: one task per shard-local phase of a routed request, cost
    ///   `1 + items processed`;
    /// * `shard_ingest`: one task per (shard, live hosting node) of each ingest, cost
    ///   `1 + the delta's ratings of items the shard owns`.
    pub fn ledger(&self) -> [(&'static str, RoutedTally); 3] {
        let led = lock_ledgers(&self.ledgers);
        [
            ("route", led.route.clone()),
            ("shard_serve", led.serve.clone()),
            ("shard_ingest", led.ingest.clone()),
        ]
    }

    /// Zeroes the three tallies (the rotation counter is kept, so routing decisions
    /// stay on their sequence).
    pub fn clear_ledgers(&self) {
        let mut led = lock_ledgers(&self.ledgers);
        let next_read = led.next_read;
        *led = ShardLedgers {
            next_read,
            ..ShardLedgers::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_covers_the_catalogue_with_contiguous_ranges() {
        let map = ShardMap::uniform(10, 3).unwrap();
        assert_eq!(map.n_shards(), 3);
        assert_eq!(map.range(0), (0, 4));
        assert_eq!(map.range(1), (4, 7));
        assert_eq!(map.range(2), (7, 10));
        for id in 0..10u32 {
            let s = map.shard_of(ItemId(id));
            let (start, end) = map.range(s);
            assert!((start..end).contains(&id), "item {id} outside shard {s}");
        }
        // ids beyond the catalogue clamp into the last shard
        assert_eq!(map.shard_of(ItemId(10)), 2);
        assert_eq!(map.shard_of(ItemId(u32::MAX)), 2);
        assert!(ShardMap::uniform(10, 0).is_err());
    }

    #[test]
    fn small_catalogues_leave_trailing_shards_empty() {
        let map = ShardMap::uniform(2, 4).unwrap();
        assert_eq!(map.range(0), (0, 1));
        assert_eq!(map.range(1), (1, 2));
        assert_eq!(map.range(2), (2, 2));
        assert_eq!(map.range(3), (2, 2));
        assert_eq!(map.shard_of(ItemId(1)), 1);
        // clamped ids go to the last shard even though it is empty by layout
        assert_eq!(map.shard_of(ItemId(7)), 3);
    }

    #[test]
    fn hosts_rotate_from_the_owner_and_clamp_to_the_node_count() {
        let mut map = ShardMap::uniform(12, 4).unwrap();
        assert_eq!(map.hosts(2, 3), vec![2]);
        // replicate shard 1 three-fold on a 4-node cluster
        map.replicate_hot(&[0, 0, 0, 9, 9, 0, 0, 0, 0, 0, 0, 0], 2, 3);
        assert_eq!(map.replication(1), 3);
        assert_eq!(map.hosts(1, 4), vec![1, 2, 3]);
        // more replicas than nodes: every node once, never a duplicate
        map.replicate_hot(&[0, 0, 0, 9, 9, 0, 0, 0, 0, 0, 0, 0], 2, 10);
        assert_eq!(map.hosts(1, 4), vec![1, 2, 3, 0]);
        assert_eq!(map.hosts(1, 2), vec![1, 0]);
    }

    #[test]
    fn replicate_hot_breaks_popularity_ties_by_ascending_id() {
        let mut map = ShardMap::uniform(4, 4).unwrap();
        map.replicate_hot(&[5, 5, 5, 5], 1, 2);
        assert_eq!(map.replication(0), 2);
        assert_eq!(map.replication(1), 1);
    }

    fn sample_slice() -> ShardSlice {
        let mut pools = vec![Vec::new(); 8];
        pools[4] = vec![neighbor(5, 0.75)];
        pools[6] = vec![neighbor(4, 0.5), neighbor(7, 0.25)];
        ShardSlice {
            shard: 1,
            start: 4,
            end: 8,
            replacement_pairs: vec![(ItemId(4), ItemId(9)), (ItemId(6), ItemId(8))],
            pools: Some(Arc::new(pools)),
        }
    }

    fn neighbor(item: u32, similarity: f64) -> ItemNeighbor {
        ItemNeighbor {
            item: ItemId(item),
            similarity,
        }
    }

    /// The hosts of a shard share one slice and one recommender, which reads that
    /// slice's pool table — at the cut, after an ingest, and after a node recovers: a
    /// recovered node shares its live siblings' `Arc`s, and a node recovered while its
    /// shards had no live host gets one fresh cut each — the coordinator's — which the
    /// next node to recover shares in turn. No `persist` precedes any recovery.
    #[test]
    fn the_hosts_of_a_shard_share_one_recommender_and_a_recovered_node_serves_its_bits() {
        let (ds, model) = private_item_based();
        let mut sharded = ShardedModel::with_hot_replication(model, 2, 2).unwrap();
        let replicated: Vec<u32> = (0..sharded.map.n_shards() as u32)
            .filter(|&shard| sharded.map.hosts(shard, 2).len() == 2)
            .collect();
        assert!(!replicated.is_empty(), "the hot head replicates some shard");
        let assert_shared = |sharded: &ShardedModel, when: &str| {
            for shard in &replicated {
                let [a, b] = [0, 1].map(|node| &sharded.nodes[node].shards[shard]);
                assert!(
                    Arc::ptr_eq(&a.serve, &b.serve) && Arc::ptr_eq(&a.slice, &b.slice),
                    "{when}: the hosts of shard {shard} hold separate copies"
                );
            }
        };
        // Every hosted recommender reads its slice's pool table, not a copy of it, and
        // every slice is the coordinator's cut of its epoch.
        let assert_one_table = |sharded: &ShardedModel, when: &str| {
            let (epoch_no, epoch) = sharded.model.snapshot();
            for (node, hosted) in sharded.nodes.iter().enumerate() {
                for (&shard, ns) in &hosted.shards {
                    let served = recommend::tests::pool_table(&ns.serve).unwrap();
                    assert!(
                        Arc::ptr_eq(served, ns.slice.pools.as_ref().unwrap()),
                        "{when}: node {node} shard {shard} serves a copy of its pools"
                    );
                    assert_eq!(ns.epoch, epoch_no, "{when}: node {node} shard {shard}");
                    let cut = ShardSlice::cut(&epoch, &sharded.map, shard);
                    assert!(*ns.slice == cut, "{when}: node {node} shard {shard}");
                }
            }
        };
        assert_shared(&sharded, "after with_hot_replication");
        assert_one_table(&sharded, "at the cut");

        let mut delta = RatingDelta::new();
        delta.push_timed(ds.overlap_users[0].0, ds.target_items()[0].0, 5.0, 77);
        sharded.ingest(&delta).unwrap();
        assert_shared(&sharded, "after ingest");
        assert_one_table(&sharded, "after ingest");

        sharded.kill_node(1).unwrap();
        sharded.recover_node(1).unwrap();
        assert_shared(&sharded, "after recovery beside a live sibling");
        assert_one_table(&sharded, "after recovery beside a live sibling");

        // Both nodes dead across an ingest: the first to recover cuts each shard once,
        // and the second shares those cuts.
        sharded.kill_node(0).unwrap();
        sharded.kill_node(1).unwrap();
        let mut delta = RatingDelta::new();
        delta.push_timed(ds.overlap_users[1].0, ds.target_items()[1].0, 4.0, 78);
        sharded.ingest(&delta).unwrap();
        sharded.recover_node(1).unwrap();
        assert_one_table(&sharded, "after a recovery with no live sibling");
        sharded.recover_node(0).unwrap();
        assert_shared(&sharded, "after both nodes recovered");
        assert_one_table(&sharded, "after both nodes recovered");
        assert_eq!(
            probe_bits(&sharded, &ds),
            coordinator_bits(&sharded, &ds),
            "the recovered nodes' answers"
        );
    }

    /// An X-Map-ib model fitted on the small synthetic trace, with the trace.
    fn private_item_based() -> (xmap_dataset::synthetic::CrossDomainDataset, XMapModel) {
        use xmap_dataset::synthetic::{CrossDomainConfig, CrossDomainDataset};
        let ds = CrossDomainDataset::generate(CrossDomainConfig::small());
        let config = crate::XMapConfig {
            mode: crate::XMapMode::XMapItemBased,
            k: 8,
            ..Default::default()
        };
        let (source, target) = (xmap_cf::DomainId::SOURCE, xmap_cf::DomainId::TARGET);
        let model = XMapModel::fit(&ds.matrix, source, target, config).unwrap();
        (ds, model)
    }

    /// The top-5 bits of the routed reads of four overlap users.
    fn probe_bits(
        sharded: &ShardedModel,
        ds: &xmap_dataset::synthetic::CrossDomainDataset,
    ) -> Vec<Vec<(ItemId, u64)>> {
        let bits = |recs: Vec<(ItemId, f64)>| recs.into_iter().map(|(i, s)| (i, s.to_bits()));
        let probe = |&user| bits(sharded.recommend(user, 5).unwrap()).collect();
        ds.overlap_users[..4].iter().map(probe).collect()
    }

    /// The coordinator's top-5 bits for the users [`probe_bits`] reads.
    fn coordinator_bits(
        sharded: &ShardedModel,
        ds: &xmap_dataset::synthetic::CrossDomainDataset,
    ) -> Vec<Vec<(ItemId, u64)>> {
        let bits = |recs: Vec<(ItemId, f64)>| recs.into_iter().map(|(i, s)| (i, s.to_bits()));
        let probe = |&user| bits(sharded.model.recommend(user, 5)).collect();
        ds.overlap_users[..4].iter().map(probe).collect()
    }

    /// The per-shard redraw shards served before they copied the coordinator's
    /// release, kept as the oracle of the copy: `recommend::build` over the slice's
    /// own pool table.
    fn redrawn_release(slice: &ShardSlice, epoch: &ModelEpoch) -> Option<NeighborTable> {
        let target = Arc::clone(epoch.recommender.target());
        let workers = xmap_engine::WorkerPool::new(1);
        let pools = slice.pools.clone();
        recommend::build(epoch.config(), target, pools, &workers)
            .unwrap()
            .1
    }

    /// Every hosted shard's recommender serves, bit for bit, the release rows its own
    /// per-shard redraw draws — at 1, 2, 4 and 8 nodes, with and without hot
    /// replication: at the cut, after an item-declaring ingest (which changes most rows
    /// through `n_items`), after a node dead across that ingest recovers by
    /// a re-cut, and after a node recovers beside live siblings.
    #[test]
    fn every_shard_serves_the_release_rows_a_per_shard_redraw_draws() {
        let bits = |table: &[Vec<ItemNeighbor>]| -> Vec<Vec<(ItemId, u64)>> {
            let row = |row: &Vec<ItemNeighbor>| {
                row.iter()
                    .map(|n| (n.item, n.similarity.to_bits()))
                    .collect()
            };
            table.iter().map(row).collect()
        };
        let assert_copies = |sharded: &ShardedModel, when: &str| {
            let (_, epoch) = sharded.model.snapshot();
            let mut released_rows = 0;
            for (node, hosted) in sharded.nodes.iter().enumerate() {
                for (shard, ns) in &hosted.shards {
                    let served = recommend::tests::released_table(&ns.serve).unwrap();
                    let redrawn = redrawn_release(&ns.slice, &epoch).unwrap();
                    let served = bits(served);
                    assert!(
                        served == bits(&redrawn),
                        "{when}: node {node} shard {shard}"
                    );
                    released_rows += served.iter().filter(|row| !row.is_empty()).count();
                }
            }
            assert!(released_rows > 0, "{when}: no shard serves a released row");
        };
        for n_nodes in [1, 2, 4, 8] {
            for hot in [false, true] {
                let (ds, model) = private_item_based();
                let mut sharded = match hot {
                    false => ShardedModel::from_model(model, n_nodes).unwrap(),
                    true => ShardedModel::with_hot_replication(model, n_nodes, 3).unwrap(),
                };
                let case = format!("{n_nodes} nodes, hot replication {hot}");
                assert_copies(&sharded, &format!("{case}, at the cut"));

                let last = n_nodes - 1;
                sharded.kill_node(last).unwrap();
                let (new_user, new_item) = (ds.matrix.n_users() as u32, ds.matrix.n_items() as u32);
                let mut delta = RatingDelta::new();
                delta
                    .declare_item(ItemId(new_item), xmap_cf::DomainId::TARGET)
                    .push_timed(new_user, ds.target_items()[0].0, 4.0, 91)
                    .push_timed(new_user, new_item, 3.0, 92)
                    .push_timed(ds.overlap_users[0].0, new_item, 5.0, 93);
                let (_, before) = sharded.model.snapshot();
                sharded.ingest(&delta).unwrap();
                let (_, after) = sharded.model.snapshot();
                let [before, after] = [&before, &after].map(|e| e.item_release.clone().unwrap());
                let released = before
                    .iter()
                    .zip(after.iter())
                    .filter(|(a, _)| !a.is_empty());
                let kept = released.clone().filter(|(a, b)| a == b).count();
                let n_released = released.count();
                assert!(
                    4 * kept < n_released,
                    "{case}: {kept} of {n_released} rows kept"
                );
                if n_nodes > 1 {
                    assert_copies(&sharded, &format!("{case}, after an item-declaring ingest"));
                }
                sharded.recover_node(last).unwrap();
                assert_copies(&sharded, &format!("{case}, after a re-cut"));

                let mut delta = RatingDelta::new();
                delta.push_timed(ds.overlap_users[1].0, ds.target_items()[1].0, 2.0, 94);
                sharded.ingest(&delta).unwrap();
                sharded.kill_node(0).unwrap();
                sharded.recover_node(0).unwrap();
                assert_copies(&sharded, &format!("{case}, after recovery beside siblings"));
            }
        }
    }

    #[test]
    fn replacement_lookup_uses_the_sorted_pairs() {
        let slice = sample_slice();
        assert_eq!(slice.replacement_of(ItemId(4)), Some(ItemId(9)));
        assert_eq!(slice.replacement_of(ItemId(6)), Some(ItemId(8)));
        assert_eq!(slice.replacement_of(ItemId(5)), None);
    }
}
