//! The target-domain recommender consuming AlterEgo profiles (§4.4), in its four
//! variants over three types.
//!
//! * [`ItemBasedRecommender`] — NX-Map-ib: item-based CF (Equation 4) over the
//!   target-domain training data, with optional temporal weighting (Equation 7) — and
//!   X-Map-ib: the same loop over neighbour lists that PNSA selected and PNCF noised
//!   (Algorithms 4–5) once, when the recommender was built.
//! * [`UserBasedRecommender`] — NX-Map-ub: user-based CF (Equations 1–2) where the
//!   AlterEgo plays the role of Alice's profile.
//! * [`PrivateUserBasedRecommender`] — X-Map-ub: the user-based variant with the same
//!   mechanisms adapted to user–user similarities (global sensitivity 2, see DESIGN.md).
//!
//! This module is the only code that knows a mode. `assemble` is the one place a
//! [`XMapMode`] picks a concrete type, and `build` the one place X-Map-ib's release is
//! drawn: the fit, the delta fit and a reopened snapshot build (draw, then assemble);
//! a shard assembles over its rows of the coordinator's pools and release, drawing
//! nothing. Every variant answers a top-N request through the same three phases of
//! [`ProfileRecommender`]: `plan` (profile-level state), `candidates` (what the rows
//! of an item range add to the candidate stream) and `score`. A single-node read runs
//! the phases over the whole catalogue (the provided `recommend_for_profile`; a served
//! batch is that call per profile). The sharded router runs that read on one replica
//! for the user-based variants, and `candidates` and `score` once per shard, over the
//! rows each replica holds, for the item-based ones. Either way the dense per-request
//! state lives in the calling thread's one [`ProfileScratch`].

use crate::private::{
    centred_norms, pncf_noisy_similarity, pool_sensitivities, private_neighbor_selection,
    ScoredCandidate,
};
use crate::{XMapConfig, XMapMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;
use xmap_cf::epoch::IdBitSet;
use xmap_cf::knn::{profile_average, ItemNeighbor, Profile};
use xmap_cf::topk::top_k;
use xmap_cf::{ItemId, ItemKnnConfig, RatingMatrix, Timestep, UserId, UserKnn, UserKnnScratch};
use xmap_engine::WorkerPool;
use xmap_privacy::PrivacyBudget;

/// A recommender as the model layers hold it: shared, immutable, thread-safe.
pub(crate) type SharedRecommender = Arc<dyn ProfileRecommender + Send + Sync>;

/// A per-item table of neighbour lists indexed by item id — the fitted item-kNN pools,
/// or X-Map-ib's release — shared by whoever reads it.
pub(crate) type NeighborTable = Arc<Vec<Vec<ItemNeighbor>>>;

/// The profile-level state of one top-N request: computed once by
/// [`ProfileRecommender::plan`] and handed to every `candidates` / `score` call of the
/// request. The item-based variants need none (a sharded model hands every shard the
/// empty plan); the user-based ones carry the selected neighbourhood and the profile
/// average, and X-Map-ub also the pool its per-item draws select from.
#[derive(Debug, Default)]
pub struct ServePlan {
    pool: Vec<(UserId, f64)>,
    neighbors: Vec<(UserId, f64)>,
    avg: f64,
}

/// Common interface of the four target-domain recommenders.
///
/// Top-N serving is three phases, each a pure function of `&self` and its arguments:
/// [`plan`](Self::plan), [`candidates`](Self::candidates) over an item range, and
/// [`score`](Self::score) over a slice of the merged candidate stream.
/// [`recommend_for_profile`](Self::recommend_for_profile) is *provided*: it runs the
/// phases over the whole catalogue and ranks the stream with the workspace [`top_k`] —
/// so a recommender built over a fragment of the fitted rows answers with the same code
/// as the full copy.
pub trait ProfileRecommender: std::any::Any {
    /// Label matching the paper's figure legends.
    fn label(&self) -> &'static str;

    /// The target-domain training matrix, shared (never copied) with whoever else
    /// serves the same model version.
    fn target(&self) -> &Arc<RatingMatrix>;

    /// Predicted rating of `item` for the given (AlterEgo) profile.
    fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64;

    /// Phase 1: the profile-level state of a top-N request. Nothing for the
    /// item-based variants; the user-based ones run their neighbour search over the
    /// dense accumulators of `scratch`.
    fn plan(&self, _profile: &Profile, _scratch: &mut ProfileScratch) -> ServePlan {
        ServePlan::default()
    }

    /// Phase 2: what the rows of `item_range` contribute to the candidate stream, in
    /// any order and possibly with repeats. Item-based: the pool neighbours of the
    /// profile's items in the range (this recommender holds those pool rows).
    /// User-based: the items of the range rated by a planned neighbour.
    fn candidates(
        &self,
        profile: &Profile,
        plan: &ServePlan,
        item_range: Range<u32>,
    ) -> Vec<ItemId>;

    /// Phase 3: `(score, item)` for every item of `items`, in order — exactly
    /// [`predict_for_profile`](Self::predict_for_profile) per item, with the
    /// profile-level work hoisted into `plan` and the dense per-item state (the
    /// term table of the item-based variants, NX-Map-ub's Equation 2 sums) into
    /// `scratch`.
    fn score(
        &self,
        profile: &Profile,
        plan: &ServePlan,
        items: &[ItemId],
        scratch: &mut ProfileScratch,
    ) -> Vec<(f64, ItemId)>;

    /// Top-N recommendations for the profile, excluding the profile's own items.
    fn recommend_for_profile(&self, profile: &Profile, n: usize) -> Vec<(ItemId, f64)> {
        with_thread_scratch(|scratch| phased_top_n(self, profile, n, scratch))
    }
}

/// The one top-N read path: the three phases over the whole catalogue.
fn phased_top_n<R: ProfileRecommender + ?Sized>(
    rec: &R,
    profile: &Profile,
    n: usize,
    scratch: &mut ProfileScratch,
) -> Vec<(ItemId, f64)> {
    let plan = rec.plan(profile, scratch);
    let catalogue = 0..rec.target().n_items() as u32;
    let stream = scratch.candidate_stream(profile, &rec.candidates(profile, &plan, catalogue));
    let scored = rec.score(profile, &plan, &stream, scratch);
    top_k(n, scored).into_iter().map(|(s, i)| (i, s)).collect()
}

/// Builds the recommender of `config.mode` over the target-domain training matrix.
/// `pools` are the fitted item-kNN pools of the item-based modes (`pools[i]` = item
/// `i`'s row, at the width of [`item_pool_config`]; absent rows read as isolated
/// items), held as the very allocation the caller keeps, and ignored by the
/// user-based modes, which precompute nothing. For X-Map-ib this draws the release,
/// once — the only place it is drawn: per item, [`released_neighbors`] of its pool.
/// The `(seed, item)` streams are independent, so the items are the tasks of
/// `workers` (no task cost recorded) and the lists come back in item order, the same
/// at any worker count. Every build redraws every item — `n_items` enters PNSA's
/// truncation width, so a delta that declares one item changes every list. The
/// release is returned beside the recommender, which points at it.
///
/// Building never touches a [`PrivacyBudget`]: whoever *releases* the recommender (a
/// fit, a delta fit) debits ε′ through [`debit_stage_budget`] first; a reopened
/// snapshot re-derives, from the same seed, a release the persisted ledger already
/// recorded.
pub(crate) fn build(
    config: &XMapConfig,
    target: Arc<RatingMatrix>,
    pools: Option<NeighborTable>,
    workers: &WorkerPool,
) -> crate::Result<(SharedRecommender, Option<NeighborTable>)> {
    config.validate().map_err(crate::XMapError::InvalidConfig)?;
    let released = (config.mode == XMapMode::XMapItemBased).then(|| {
        let norms = centred_norms(&target);
        let pools = pools.as_deref().map_or(&[][..], Vec::as_slice);
        Arc::new(workers.parallel_map_indexed(pools, |i, pool| {
            released_neighbors(&target, &norms, config, ItemId(i as u32), pool)
        }))
    });
    Ok((assemble(config, target, pools, released.clone())?, released))
}

/// The recommender of `config.mode` over tables a build already holds — the single
/// place a mode names a concrete recommender type. It draws nothing: X-Map-ib scores
/// from `released`, a table [`build`] drew (a shard passes its rows of the
/// coordinator's), and a missing table, like missing pools, reads as isolated items.
pub(crate) fn assemble(
    config: &XMapConfig,
    target: Arc<RatingMatrix>,
    pools: Option<NeighborTable>,
    released: Option<NeighborTable>,
) -> crate::Result<SharedRecommender> {
    let privacy = &config.privacy;
    Ok(match config.mode {
        XMapMode::NxMapItemBased | XMapMode::XMapItemBased => Arc::new(ItemBasedRecommender {
            target,
            pools: pools.unwrap_or_default(),
            released: config
                .mode
                .is_private()
                .then(|| released.unwrap_or_default()),
            temporal_alpha: config.temporal_alpha,
        }),
        XMapMode::NxMapUserBased => Arc::new(UserBasedRecommender::fit(target, config.k)?),
        XMapMode::XMapUserBased => Arc::new(PrivateUserBasedRecommender::new(
            target,
            config.k,
            privacy.epsilon_prime,
            privacy.rho,
            config.seed,
        )?),
    })
}

/// The item-kNN configuration a mode's pools are fitted with — width `k` for
/// NX-Map-ib, the wider PNSA candidate pool for X-Map-ib — or `None` for the
/// user-based modes (no fit-time pools).
pub(crate) fn item_pool_config(config: &XMapConfig) -> Option<ItemKnnConfig> {
    let width = match config.mode {
        XMapMode::NxMapItemBased => config.k,
        XMapMode::XMapItemBased => private_pool_width(config.k),
        XMapMode::NxMapUserBased | XMapMode::XMapUserBased => return None,
    };
    Some(item_knn_config(width, config.temporal_alpha))
}

/// The candidate-pool width PNSA selects from for a given `k`: slightly wider than `k`,
/// so the exponential mechanism can also pick sub-optimal neighbours (which is where
/// the selection privacy comes from), but close to it — on small catalogues a very
/// wide pool makes the ε′-constrained selection close to uniform over the catalogue,
/// a scale artefact the paper's 400K-item catalogue does not exhibit (see DESIGN.md).
fn private_pool_width(k: usize) -> usize {
    (k + k / 4).max(4)
}

/// The ε′ debit of a stage about to release `config.mode`'s recommender, on the
/// stage's accountant: nothing for the non-private modes, ε′/2 for PNSA and ε′/2 for
/// PNCF (sequential composition, §4.4) for the private ones, atomically — an exhausted
/// budget fails instead of silently releasing noised answers that no accountant
/// vouches for. The single place the split and the ledger labels live: the build's
/// recommender step debits through here whether it shares or rebuilds, before any pool
/// work.
pub(crate) fn debit_stage_budget(
    config: &XMapConfig,
    budget: Option<&mut PrivacyBudget>,
) -> crate::Result<()> {
    if !config.mode.is_private() {
        return Ok(());
    }
    let half = config.privacy.epsilon_prime / 2.0;
    budget
        .expect("private modes carry a privacy budget") // lint: panic — reviewed invariant
        .spend_all(&[("PNSA", half), ("PNCF", half)])?;
    Ok(())
}

fn require_k(k: usize) -> crate::Result<()> {
    if k == 0 {
        return Err(crate::XMapError::InvalidConfig(
            "k must be at least 1".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dense profile scratch
// ---------------------------------------------------------------------------

/// The reusable per-thread state of the read path: the item-based variants' term table
/// (per catalogue item, `(r_j − r̄_j, w_j)` of the loaded profile's rating and `(0, 0)`
/// where it has none — why that moves no bit: [`predict_item_based`]), the candidate
/// stream's bit set ([`IdBitSet`]), and the user-based variants' accumulators.
///
/// A load re-zeroes only the last request's slots, and the other buffers reset by an
/// epoch bump or their own walk, so a use costs `O(what it touches)`; every buffer is
/// re-sized to the recommender's matrix at each use, so a warm scratch survives an
/// ingest that grows the model, or a thread that served another model. One scratch per
/// thread ([`with_thread_scratch`]) serves all phases of every request.
#[derive(Debug, Default)]
pub struct ProfileScratch {
    /// `(r_j − r̄_j, w_j)` per catalogue item of the loaded profile, `(0, 0)` elsewhere.
    terms: Vec<(f64, f64)>,
    /// The slots of `terms` the loaded profile wrote.
    written: Vec<usize>,
    /// The candidate stream's members, walked in ascending id.
    stream: IdBitSet,
    /// The user-based variants' Equation 1 / Equation 2 accumulators.
    knn: UserKnnScratch,
}

impl ProfileScratch {
    /// An empty scratch; buffers take their size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a profile's terms over `target`'s catalogue, re-zeroing whatever was
    /// loaded before. The temporal "now" is the profile's most recent timestep, taken
    /// over the full profile; later duplicate items overwrite earlier ones. Entries
    /// with out-of-catalogue ids are skipped — no neighbour row holds one, and sizing
    /// the table by a raw, possibly corrupted id would allocate unboundedly.
    fn load(&mut self, profile: &Profile, target: &RatingMatrix, alpha: f64) {
        for &j in &self.written {
            self.terms[j] = (0.0, 0.0);
        }
        self.written.clear();
        self.terms.resize(target.n_items(), (0.0, 0.0));
        let now = profile.iter().map(|&(_, _, t)| t).max();
        let now = now.unwrap_or(Timestep(0));
        for &(i, r, t) in profile {
            if let Some(slot) = self.terms.get_mut(i.index()) {
                *slot = (r - target.item_average(i), now.decay_since(t, alpha));
                self.written.push(i.index());
            }
        }
    }

    /// The candidate stream every top-N path scores, from the ids the `candidates`
    /// calls of a request gathered: ascending item id, deduplicated, the profile's own
    /// items dropped. The order is load-bearing — it is the offer order of the top-N
    /// tie-break. The gathered ids (catalogue ids, read off the model's rows) are marked
    /// in a bit set, the profile's are cleared, and the rest come out in id order:
    /// `O(|ids| + |profile|)` plus one step per 64 ids of the span, with no sort.
    pub(crate) fn candidate_stream(&mut self, profile: &Profile, ids: &[ItemId]) -> Vec<ItemId> {
        let set = &mut self.stream;
        set.begin(ids.iter().max().map_or(0, |i| i.index() + 1));
        ids.iter().for_each(|i| set.insert(i.index()));
        profile.iter().for_each(|(i, _, _)| set.remove(i.index()));
        set.ascending().map(|ix| ItemId(ix as u32)).collect()
    }
}

thread_local! {
    /// The one scratch mechanism: every read — a single call, a partition of a served
    /// batch, one hop of a routed request — borrows its thread's scratch, so loops on
    /// one thread amortise the dense buffers. Invalidation at every use makes reuse
    /// across unrelated profiles (and recommenders) safe.
    static THREAD_SCRATCH: std::cell::RefCell<ProfileScratch> =
        std::cell::RefCell::new(ProfileScratch::new());
}

/// Runs `f` with the calling thread's reusable [`ProfileScratch`]. Not re-entrant: the
/// phases take the scratch as a parameter precisely so nothing under `f` asks again.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut ProfileScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Item-based (NX-Map-ib, X-Map-ib)
// ---------------------------------------------------------------------------

/// Item-based CF over the target domain in both modes, owned (no borrows into the
/// training matrix): one scoring loop over one of two per-item tables.
pub struct ItemBasedRecommender {
    target: Arc<RatingMatrix>,
    /// The fitted `ItemKnn` pools, indexed by item id — the allocation the epoch (or a
    /// shard's slice) owns, never a copy. `candidates` reads them in both
    /// modes; NX-Map-ib also scores from them.
    pools: NeighborTable,
    /// X-Map-ib only: the released neighbour list of every item, which `score` reads in
    /// place of `pools` — like them, the epoch's (or a shard's padded rows of it).
    released: Option<NeighborTable>,
    temporal_alpha: f64,
}

impl ItemBasedRecommender {
    /// The fitted pool of an item (before private selection, in X-Map-ib).
    pub fn neighbors(&self, item: ItemId) -> &[ItemNeighbor] {
        row(&self.pools, item)
    }

    /// The table predictions read: the release for X-Map-ib, the pools for NX-Map-ib.
    fn scored(&self) -> &[Vec<ItemNeighbor>] {
        self.released.as_ref().unwrap_or(&self.pools)
    }
}

/// Row `item` of a per-item table; an id past its end reads as an isolated item.
fn row(table: &[Vec<ItemNeighbor>], item: ItemId) -> &[ItemNeighbor] {
    table.get(item.index()).map_or(&[], Vec::as_slice)
}

/// X-Map-ib's release of one item (Algorithms 4–5): PNSA selects `k` of the pool's
/// candidates, each annotated with its similarity-based sensitivity (one
/// [`pool_sensitivities`] gather over the build's `norms` table), and PNCF noises
/// every kept similarity, in selection order. The stream is seeded by `(seed, item)`
/// and reads only that item's pool, so rebuilding over the same pools and matrix —
/// a reopened snapshot — re-derives the same list: privacy-free post-processing of a
/// release the ledger recorded once.
fn released_neighbors(
    target: &RatingMatrix,
    norms: &[f64],
    config: &XMapConfig,
    item: ItemId,
    pool: &[ItemNeighbor],
) -> Vec<ItemNeighbor> {
    let epsilon_prime = config.privacy.epsilon_prime;
    let sensitivities = pool_sensitivities(target, norms, item, pool);
    let candidates: Vec<ScoredCandidate> = pool
        .iter()
        .zip(sensitivities)
        .map(|(n, sensitivity)| ScoredCandidate {
            item: n.item,
            similarity: n.similarity,
            sensitivity,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(
        config.seed ^ (0x5851_f42d_4c95_7f2du64.wrapping_mul(u64::from(item.0) + 1)),
    );
    let selected = private_neighbor_selection(
        &mut rng,
        &candidates,
        config.k,
        epsilon_prime,
        config.privacy.rho,
        target.n_items().max(config.k + 1),
    );
    selected
        .iter()
        .map(|c| ItemNeighbor {
            item: c.item,
            // Clamping the noisy similarity back into the metric's public range is
            // post-processing and therefore privacy-free; it bounds the damage of
            // large Laplace draws on sparsely supported pairs.
            similarity: pncf_noisy_similarity(&mut rng, c.similarity, c.sensitivity, epsilon_prime)
                .clamp(-1.0, 1.0),
        })
        .collect()
}

impl ProfileRecommender for ItemBasedRecommender {
    fn label(&self) -> &'static str {
        match self.released {
            Some(_) => "X-MAP-IB",
            None => "NX-MAP-IB",
        }
    }

    fn target(&self) -> &Arc<RatingMatrix> {
        &self.target
    }

    fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64 {
        with_thread_scratch(|scratch| {
            scratch.load(profile, &self.target, self.temporal_alpha);
            predict_item_based(&self.target, row(self.scored(), item), &scratch.terms, item)
        })
    }

    // The pools drive candidate generation in both modes: X-Map-ib's private selection
    // decides what a candidate is scored from, not whether it is one.
    fn candidates(&self, profile: &Profile, _: &ServePlan, item_range: Range<u32>) -> Vec<ItemId> {
        let mut out = Vec::new();
        for &(i, _, _) in profile {
            if item_range.contains(&i.0) {
                out.extend(self.neighbors(i).iter().map(|n| n.item));
            }
        }
        out
    }

    fn score(
        &self,
        profile: &Profile,
        _: &ServePlan,
        items: &[ItemId],
        scratch: &mut ProfileScratch,
    ) -> Vec<(f64, ItemId)> {
        scratch.load(profile, &self.target, self.temporal_alpha);
        let (table, terms) = (self.scored(), &scratch.terms);
        items
            .iter()
            .map(|&i| (predict_item_based(&self.target, row(table, i), terms, i), i))
            .collect()
    }
}

fn item_knn_config(k: usize, temporal_alpha: f64) -> ItemKnnConfig {
    ItemKnnConfig {
        k,
        temporal_alpha,
        ..Default::default()
    }
}

/// Equation 4 / 7 prediction shared by the item-based recommenders: `item`'s
/// neighbours against the loaded profile's [`ProfileScratch`] term table — one
/// multiply-add per neighbour, whether or not the profile holds it.
///
/// The bits are those of a loop that adds only the profile's items: a hit performs
/// exactly that loop's operations, `(sim · d) · w` and `|sim| · w`, and a miss adds
/// `±0` to `num` and `+0` to `den`. Both sums start at `+0`, and under round-to-nearest
/// a sum is `−0` only when both addends are (`x + (−x) = +0`), so neither ever holds
/// `−0` and adding a signed zero leaves it unchanged. That needs finite similarities
/// (`±∞ · 0` is NaN): fit, delta and release produce only finite ones, and a restored
/// snapshot refuses any other. The `#[cfg(test)]` probe loop is the oracle.
fn predict_item_based(
    target: &RatingMatrix,
    neighbors: &[ItemNeighbor],
    terms: &[(f64, f64)],
    item: ItemId,
) -> f64 {
    let item_avg = target.item_average(item);
    let mut num = 0.0;
    let mut den = 0.0;
    for n in neighbors {
        let (d, w) = terms.get(n.item.index()).copied().unwrap_or_default();
        num += n.similarity * d * w;
        den += n.similarity.abs() * w;
    }
    let raw = if den < 1e-12 {
        item_avg
    } else {
        item_avg + num / den
    };
    target.scale().clamp(raw)
}

// ---------------------------------------------------------------------------
// User-based (NX-Map-ub, X-Map-ub)
// ---------------------------------------------------------------------------

/// User-based CF over the target domain where the query profile is the AlterEgo.
pub struct UserBasedRecommender {
    target: Arc<RatingMatrix>,
    k: usize,
}

impl UserBasedRecommender {
    /// Creates the recommender over the target-domain training matrix.
    pub(crate) fn fit(target: impl Into<Arc<RatingMatrix>>, k: usize) -> crate::Result<Self> {
        require_k(k)?;
        Ok(UserBasedRecommender {
            target: target.into(),
            k,
        })
    }

    fn knn(&self) -> UserKnn<'_> {
        let knn = UserKnn::new(&self.target, self.k);
        knn.expect("k validated at construction") // lint: panic — reviewed invariant
    }
}

impl ProfileRecommender for UserBasedRecommender {
    fn label(&self) -> &'static str {
        "NX-MAP-UB"
    }

    fn target(&self) -> &Arc<RatingMatrix> {
        &self.target
    }

    fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64 {
        with_thread_scratch(|scratch| {
            self.knn()
                .predict_for_profile(profile, item, &mut scratch.knn)
        })
    }

    fn plan(&self, profile: &Profile, scratch: &mut ProfileScratch) -> ServePlan {
        ServePlan {
            pool: Vec::new(),
            neighbors: self.knn().neighbors_of_profile(profile, &mut scratch.knn),
            avg: profile_avg(&self.target, profile),
        }
    }

    fn candidates(&self, _: &Profile, plan: &ServePlan, item_range: Range<u32>) -> Vec<ItemId> {
        neighbor_rated_items(&self.target, &plan.neighbors, &item_range)
    }

    fn score(
        &self,
        _: &Profile,
        plan: &ServePlan,
        items: &[ItemId],
        scratch: &mut ProfileScratch,
    ) -> Vec<(f64, ItemId)> {
        self.knn()
            .score_with_neighbors(plan.avg, &plan.neighbors, items, &mut scratch.knn)
    }
}

/// User-based CF with private neighbour selection and noisy similarities.
///
/// The paper formulates PNSA/PNCF in item terms; for the user-based variant we apply the
/// same mechanisms to user–user similarities with the metric's global sensitivity
/// (range `[-1, 1]`, so `GS = 2`) — see the substitution notes in DESIGN.md.
pub struct PrivateUserBasedRecommender {
    target: Arc<RatingMatrix>,
    /// Neighbour-pool width, fixed at construction: the pool is slightly larger than
    /// `k` so the exponential mechanism has room without collapsing to a uniform choice
    /// over the whole user base.
    pool_k: usize,
    k: usize,
    epsilon_prime: f64,
    rho: f64,
    seed: u64,
}

/// RNG salt of the request-level PNSA/PNCF draw that selects the neighbourhood whose
/// rated items become the candidates (the per-item draws salt with the item id).
const PLAN_SALT: u64 = 0xfeed_beef;

impl PrivateUserBasedRecommender {
    /// Creates the recommender, fixing the neighbour-pool width once. Private
    /// because it debits nothing itself — a public no-debit constructor would let
    /// callers bypass the ε′ accounting; only [`assemble`] (for a build whose caller
    /// debits first, or a copy of a recorded release) reaches it.
    fn new(
        target: Arc<RatingMatrix>,
        k: usize,
        epsilon_prime: f64,
        rho: f64,
        seed: u64,
    ) -> crate::Result<Self> {
        require_k(k)?;
        Ok(PrivateUserBasedRecommender {
            target,
            pool_k: private_pool_width(k),
            k,
            epsilon_prime,
            rho,
            seed,
        })
    }

    fn knn(&self) -> UserKnn<'_> {
        let knn = UserKnn::new(&self.target, self.pool_k);
        knn.expect("pool k validated at construction") // lint: panic — reviewed invariant
    }

    /// The (non-private) candidate neighbour pool of a profile: one neighbour search
    /// over the training matrix. It depends only on the profile, so a top-N request
    /// computes it once (in `plan`) and reuses it across every candidate item.
    fn neighbor_pool(&self, profile: &Profile, scratch: &mut ProfileScratch) -> Vec<(UserId, f64)> {
        self.knn().neighbors_of_profile(profile, &mut scratch.knn)
    }

    /// PNSA selection + PNCF noise over a precomputed pool. The RNG is seeded from
    /// `(seed, salt)` only, so for a fixed profile the released neighbourhood of a given
    /// salt is identical whether the pool was rebuilt or reused.
    fn private_neighbors(&self, pool: &[(UserId, f64)], salt: u64) -> Vec<(UserId, f64)> {
        const USER_SIM_GLOBAL_SENSITIVITY: f64 = 2.0;
        let candidates: Vec<ScoredCandidate> = pool
            .iter()
            .enumerate()
            .map(|(idx, &(_, sim))| ScoredCandidate {
                // encode the pool position in the item id slot; resolved back below
                item: ItemId(idx as u32),
                similarity: sim,
                sensitivity: USER_SIM_GLOBAL_SENSITIVITY,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
        let selected = private_neighbor_selection(
            &mut rng,
            &candidates,
            self.k,
            self.epsilon_prime,
            self.rho,
            self.target.n_users().max(self.k + 1),
        );
        selected
            .into_iter()
            .map(|c| {
                let (user, sim) = pool[c.item.index()];
                // post-processing clamp into the similarity range (privacy-free)
                let noisy = pncf_noisy_similarity(&mut rng, sim, c.sensitivity, self.epsilon_prime)
                    .clamp(-1.0, 1.0);
                (user, noisy)
            })
            .collect()
    }

    /// Equation 2 over a privately selected neighbourhood of the given pool.
    fn predict_from_pool(&self, pool: &[(UserId, f64)], profile_avg: f64, item: ItemId) -> f64 {
        let neighbors = self.private_neighbors(pool, 0x9e37_79b9u64 ^ u64::from(item.0));
        self.knn()
            .predict_with_neighbors(profile_avg, &neighbors, item)
    }
}

impl ProfileRecommender for PrivateUserBasedRecommender {
    fn label(&self) -> &'static str {
        "X-MAP-UB"
    }

    fn target(&self) -> &Arc<RatingMatrix> {
        &self.target
    }

    fn predict_for_profile(&self, profile: &Profile, item: ItemId) -> f64 {
        // a single prediction needs the pool exactly once — nothing to reuse here
        let pool = with_thread_scratch(|scratch| self.neighbor_pool(profile, scratch));
        self.predict_from_pool(&pool, profile_avg(&self.target, profile), item)
    }

    fn plan(&self, profile: &Profile, scratch: &mut ProfileScratch) -> ServePlan {
        let pool = self.neighbor_pool(profile, scratch);
        ServePlan {
            neighbors: self.private_neighbors(&pool, PLAN_SALT),
            pool,
            avg: profile_avg(&self.target, profile),
        }
    }

    fn candidates(&self, _: &Profile, plan: &ServePlan, item_range: Range<u32>) -> Vec<ItemId> {
        neighbor_rated_items(&self.target, &plan.neighbors, &item_range)
    }

    // The per-item PNSA/PNCF draws stay per-item-seeded, so scoring from the planned
    // pool matches a fresh pool scan per item bit for bit.
    fn score(
        &self,
        _: &Profile,
        plan: &ServePlan,
        items: &[ItemId],
        _: &mut ProfileScratch,
    ) -> Vec<(f64, ItemId)> {
        items
            .iter()
            .map(|&i| (self.predict_from_pool(&plan.pool, plan.avg, i), i))
            .collect()
    }
}

/// The average a user-based prediction centres on: the profile's, or the global
/// average for an empty profile.
fn profile_avg(target: &RatingMatrix, profile: &Profile) -> f64 {
    profile_average(profile).unwrap_or_else(|| target.global_average())
}

/// User-based candidate contribution of the rows in `item_range`: every item there
/// rated by at least one planned neighbour — only the range's slice of each row is
/// walked, so a routed hop reads its own shard's part of the neighbour rows.
fn neighbor_rated_items(
    target: &RatingMatrix,
    neighbors: &[(UserId, f64)],
    item_range: &Range<u32>,
) -> Vec<ItemId> {
    let range = ItemId(item_range.start)..ItemId(item_range.end);
    let rated = |&(u, _): &(UserId, f64)| target.user_profile_in(u, range.clone());
    neighbors.iter().flat_map(rated).map(|e| e.item).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::private::pair_sensitivity;
    use crate::PrivacyConfig;
    use proptest::prelude::*;
    use xmap_cf::knn::profile_from_pairs;
    use xmap_cf::{DomainId, ItemKnn, RatingMatrixBuilder};

    /// Target-domain matrix with two item clusters (0-2 liked together, 3-5 liked
    /// together by the other half of the users).
    pub(crate) fn target_matrix() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        for u in 0..4u32 {
            for i in 0..3u32 {
                b.push_parts(u, i, 5.0).unwrap();
            }
            for i in 3..6u32 {
                b.push_parts(u, i, 1.0).unwrap();
            }
        }
        for u in 4..8u32 {
            for i in 0..3u32 {
                b.push_parts(u, i, 1.0).unwrap();
            }
            for i in 3..6u32 {
                b.push_parts(u, i, 5.0).unwrap();
            }
        }
        for i in 0..6u32 {
            b.set_item_domain(ItemId(i), DomainId::TARGET);
        }
        b.build().unwrap()
    }

    impl ItemBasedRecommender {
        /// Fits NX-Map-ib on the target-domain training matrix with the serial
        /// [`ItemKnn::fit`] — the reference the partition-parallel pool fit is held to.
        pub(crate) fn fit(
            target: impl Into<Arc<RatingMatrix>>,
            k: usize,
            temporal_alpha: f64,
        ) -> crate::Result<Self> {
            let target = target.into();
            let config = item_knn_config(k, temporal_alpha);
            let pools = ItemKnn::fit(&target, config)?.into_neighbors();
            Ok(ItemBasedRecommender {
                target,
                pools: Arc::new(pools),
                released: None,
                temporal_alpha,
            })
        }
    }

    fn cluster_profile() -> Profile {
        profile_from_pairs([(ItemId(0), 5.0), (ItemId(1), 4.0)])
    }

    /// A configuration of `mode` with the given `k`, ε′ (ρ = 0.05) and seed.
    fn config(mode: XMapMode, k: usize, epsilon_prime: f64, seed: u64) -> XMapConfig {
        XMapConfig {
            mode,
            k,
            privacy: PrivacyConfig {
                epsilon_prime,
                rho: 0.05,
                ..Default::default()
            },
            seed,
            ..Default::default()
        }
    }

    /// [`build`] over `target` as the fit stage reaches it, with the pools of the
    /// serial `ItemKnn::fit` — the oracle of the partition-parallel pool fit.
    fn fitted_on(
        target: Arc<RatingMatrix>,
        config: &XMapConfig,
    ) -> crate::Result<SharedRecommender> {
        let pools = item_pool_config(config)
            .map(|knn| Arc::new(ItemKnn::fit(&target, knn).unwrap().into_neighbors()));
        Ok(build(config, target, pools, &WorkerPool::new(1))?.0)
    }

    fn fitted(config: &XMapConfig) -> SharedRecommender {
        fitted_on(Arc::new(target_matrix()), config).unwrap()
    }

    /// What a releasing stage does: debit ε′ on its accountant, then build.
    fn released(
        config: &XMapConfig,
        budget: &mut PrivacyBudget,
    ) -> crate::Result<SharedRecommender> {
        debit_stage_budget(config, Some(budget))?;
        Ok(fitted(config))
    }

    /// X-Map-ub by the constructor [`build`] calls, for the tests that reach into the
    /// concrete type.
    fn private_user_based(k: usize, epsilon_prime: f64, seed: u64) -> PrivateUserBasedRecommender {
        let target = Arc::new(target_matrix());
        PrivateUserBasedRecommender::new(target, k, epsilon_prime, 0.05, seed).unwrap()
    }

    #[test]
    fn item_based_follows_the_profile_cluster() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let p = cluster_profile();
        let liked = rec.predict_for_profile(&p, ItemId(2));
        let disliked = rec.predict_for_profile(&p, ItemId(4));
        assert!(liked > disliked, "{liked} vs {disliked}");
        let recs = rec.recommend_for_profile(&p, 3);
        assert_eq!(recs[0].0, ItemId(2));
        assert!(recs.iter().all(|(i, _)| *i != ItemId(0) && *i != ItemId(1)));
        assert_eq!(rec.label(), "NX-MAP-IB");
        assert!(!rec.neighbors(ItemId(0)).is_empty());
        assert_eq!(rec.target().n_items(), 6);
    }

    #[test]
    fn user_based_follows_the_profile_cluster() {
        let rec = UserBasedRecommender::fit(target_matrix(), 3).unwrap();
        let p = cluster_profile();
        let liked = rec.predict_for_profile(&p, ItemId(2));
        let disliked = rec.predict_for_profile(&p, ItemId(4));
        assert!(liked > disliked, "{liked} vs {disliked}");
        let recs = rec.recommend_for_profile(&p, 2);
        assert_eq!(recs[0].0, ItemId(2));
        assert_eq!(rec.label(), "NX-MAP-UB");
        assert!(UserBasedRecommender::fit(target_matrix(), 0).is_err());
    }

    #[test]
    fn private_item_based_is_noisier_but_still_directionally_correct() {
        let rec = fitted(&config(XMapMode::XMapItemBased, 3, 5.0, 7));
        let p = cluster_profile();
        let liked = rec.predict_for_profile(&p, ItemId(2));
        let disliked = rec.predict_for_profile(&p, ItemId(4));
        // with a generous ε′ the ordering should survive the noise
        assert!(liked > disliked, "{liked} vs {disliked}");
        assert_eq!(rec.label(), "X-MAP-IB");
        // item 0's candidate pool is not empty
        let of_item_0 = profile_from_pairs([(ItemId(0), 5.0)]);
        assert!(!rec
            .candidates(&of_item_0, &ServePlan::default(), 0..6)
            .is_empty());
        assert_eq!(rec.target().n_users(), 8);
        let recs = rec.recommend_for_profile(&p, 3);
        assert!(!recs.is_empty());
        for (i, _) in recs {
            assert!(i != ItemId(0) && i != ItemId(1));
        }
    }

    #[test]
    fn private_predictions_are_deterministic_per_seed_and_vary_across_seeds() {
        let p = cluster_profile();
        let a = fitted(&config(XMapMode::XMapItemBased, 3, 0.5, 7));
        let b = fitted(&config(XMapMode::XMapItemBased, 3, 0.5, 7));
        assert_eq!(
            a.predict_for_profile(&p, ItemId(2)),
            b.predict_for_profile(&p, ItemId(2))
        );
        let c = fitted(&config(XMapMode::XMapItemBased, 3, 0.5, 1234));
        // different seeds usually give different noise; check over several items
        let differs = (0..6u32)
            .any(|i| a.predict_for_profile(&p, ItemId(i)) != c.predict_for_profile(&p, ItemId(i)));
        assert!(
            differs,
            "different seeds should perturb at least one prediction"
        );
    }

    #[test]
    fn stronger_privacy_degrades_item_based_accuracy_on_average() {
        let target = Arc::new(target_matrix());
        let p = cluster_profile();
        // ground truth: item 2 should be ~5, item 4 should be ~1
        let truth = [(ItemId(2), 5.0), (ItemId(4), 1.0)];
        let error_for = |eps: f64, seed: u64| {
            let config = config(XMapMode::XMapItemBased, 3, eps, seed);
            let rec = fitted_on(Arc::clone(&target), &config).unwrap();
            truth
                .iter()
                .map(|&(i, t)| (rec.predict_for_profile(&p, i) - t).abs())
                .sum::<f64>()
                / truth.len() as f64
        };
        let mut strict = 0.0;
        let mut loose = 0.0;
        for seed in 0..30u64 {
            strict += error_for(0.05, seed);
            loose += error_for(10.0, seed);
        }
        assert!(
            strict >= loose,
            "stronger privacy (smaller ε′) should not beat weaker privacy on average: {strict} vs {loose}"
        );
    }

    #[test]
    fn private_user_based_runs_and_respects_scale() {
        let rec = fitted(&config(XMapMode::XMapUserBased, 3, 2.0, 11));
        let p = cluster_profile();
        for i in 0..6u32 {
            let v = rec.predict_for_profile(&p, ItemId(i));
            assert!((1.0..=5.0).contains(&v));
        }
        let recs = rec.recommend_for_profile(&p, 4);
        assert!(!recs.is_empty());
        for (i, _) in &recs {
            assert!(*i != ItemId(0) && *i != ItemId(1));
        }
        assert_eq!(rec.label(), "X-MAP-UB");
        assert_eq!(rec.target().n_users(), 8);
        let no_neighbours = config(XMapMode::XMapUserBased, 0, 2.0, 1);
        assert!(fitted_on(Arc::new(target_matrix()), &no_neighbours).is_err());
    }

    /// The historical X-Map-ub per-call path, kept as the equivalence oracle: candidates
    /// come from a request-level draw over a fresh pool, and every prediction rebuilds
    /// the neighbour pool with a full matrix scan (top-N quadratic in the candidate
    /// count). Release outputs must equal the phased path's bit for bit.
    fn recommend_for_profile_rescan(
        rec: &PrivateUserBasedRecommender,
        profile: &Profile,
        n: usize,
    ) -> Vec<(ItemId, f64)> {
        let pool = rec.neighbor_pool(profile, &mut ProfileScratch::new());
        let neighbors = rec.private_neighbors(&pool, PLAN_SALT);
        let owned: Vec<ItemId> = profile.iter().map(|&(i, _, _)| i).collect();
        let mut candidates: Vec<ItemId> = Vec::new();
        for &(u, _) in &neighbors {
            for e in rec.target.user_profile(u) {
                candidates.push(e.item);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|i| !owned.contains(i));
        // the quadratic defect: a fresh `neighbor_pool` scan for every candidate
        let scored = candidates
            .into_iter()
            .map(|i| (rec.predict_for_profile(profile, i), i));
        top_k(n, scored).into_iter().map(|(s, i)| (i, s)).collect()
    }

    #[test]
    fn private_user_based_pooled_recommendations_match_the_rescan_reference() {
        // Regression for the quadratic serving path: hoisting the neighbour-pool scan
        // out of the per-candidate loop must not change a single released value.
        let rec = private_user_based(3, 2.0, 11);
        for profile in [
            cluster_profile(),
            profile_from_pairs([(ItemId(3), 5.0), (ItemId(4), 4.0)]),
            profile_from_pairs([(ItemId(0), 2.0)]),
            Vec::new(),
        ] {
            assert_eq!(
                rec.recommend_for_profile(&profile, 4),
                recommend_for_profile_rescan(&rec, &profile, 4),
                "pooled and rescan paths diverged for {profile:?}"
            );
        }
    }

    /// One recommender per mode (both item-based ones with and without temporal decay).
    pub(crate) fn all_modes() -> Vec<SharedRecommender> {
        all_modes_on(target_matrix())
    }

    /// [`all_modes`] over any target-domain matrix.
    pub(crate) fn all_modes_on(target: RatingMatrix) -> Vec<SharedRecommender> {
        let target = Arc::new(target);
        let decayed = |config: XMapConfig| XMapConfig {
            temporal_alpha: 0.3,
            ..config
        };
        let nx_ib = config(XMapMode::NxMapItemBased, 5, 0.8, 42);
        let x_ib = config(XMapMode::XMapItemBased, 3, 5.0, 7);
        [
            nx_ib,
            decayed(nx_ib),
            config(XMapMode::NxMapUserBased, 3, 0.8, 42),
            x_ib,
            decayed(x_ib),
            config(XMapMode::XMapUserBased, 3, 2.0, 11),
        ]
        .iter()
        .map(|config| fitted_on(Arc::clone(&target), config).unwrap())
        .collect()
    }

    #[test]
    fn phases_equal_per_item_predict_in_all_four_modes() {
        // The provided top-N is nothing but the three phases: ranking the candidate
        // stream by the *single-item* prediction must reproduce it bit for bit, and
        // gathering candidates range by range (what a sharded router does) must yield
        // the stream of the undivided catalogue.
        let mut foreign = cluster_profile();
        foreign.push((ItemId(u32::MAX), 5.0, Timestep(0)));
        // ratings far apart in time, so that a temporal α weighs them differently
        let timed = vec![
            (ItemId(0), 5.0, Timestep(0)),
            (ItemId(4), 2.0, Timestep(50)),
        ];
        let profiles = [cluster_profile(), Vec::new(), foreign, timed];
        for rec in all_modes() {
            for profile in &profiles {
                let plan = rec.plan(profile, &mut ProfileScratch::new());
                let n_items = rec.target().n_items() as u32;
                let stream =
                    candidate_stream_by_sort(profile, rec.candidates(profile, &plan, 0..n_items));

                let mut by_range = rec.candidates(profile, &plan, 0..2);
                by_range.extend(rec.candidates(profile, &plan, 2..n_items));
                assert_eq!(
                    ProfileScratch::new().candidate_stream(profile, &by_range),
                    stream,
                    "{}: ranges do not compose for {profile:?}",
                    rec.label()
                );

                for n in [0, 1, 3, stream.len() + 2] {
                    let scored = stream
                        .iter()
                        .map(|&i| (rec.predict_for_profile(profile, i), i));
                    let reference: Vec<(ItemId, f64)> =
                        top_k(n, scored).into_iter().map(|(s, i)| (i, s)).collect();
                    assert_eq!(
                        rec.recommend_for_profile(profile, n),
                        reference,
                        "{}: top-{n} diverged from per-item predict for {profile:?}",
                        rec.label()
                    );
                }
            }
        }
        // The X-Map-ub stream is also the independently derived one of the oracle.
        let rec = private_user_based(3, 2.0, 11);
        for profile in &profiles {
            for n in [0, 2, 9] {
                assert_eq!(
                    rec.recommend_for_profile(profile, n),
                    recommend_for_profile_rescan(&rec, profile, n)
                );
            }
        }
    }

    #[test]
    fn private_fits_record_pnsa_and_pncf_in_the_ledger() {
        let mut budget = PrivacyBudget::new(1.0);
        released(&config(XMapMode::XMapItemBased, 3, 0.8, 7), &mut budget).unwrap();
        let mechanisms: Vec<&str> = budget
            .ledger()
            .iter()
            .map(|e| e.mechanism.as_str())
            .collect();
        assert_eq!(mechanisms, vec!["PNSA", "PNCF"]);
        assert!((budget.spent() - 0.8).abs() < 1e-12);
        assert!((budget.ledger()[0].epsilon - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exhausted_budget_fails_the_private_fits() {
        let mut drained = PrivacyBudget::new(0.8);
        drained.spend("PRS", 0.7).unwrap();
        let err = match released(&config(XMapMode::XMapItemBased, 3, 0.8, 7), &mut drained) {
            Err(e) => e,
            Ok(_) => panic!("fit must fail on an exhausted budget"),
        };
        assert!(matches!(err, crate::XMapError::Privacy(_)), "{err}");
        // the failed fit must not have recorded anything
        assert_eq!(drained.ledger().len(), 1);

        let err = match released(&config(XMapMode::XMapUserBased, 3, 0.8, 7), &mut drained) {
            Err(e) => e,
            Ok(_) => panic!("fit must fail on an exhausted budget"),
        };
        assert!(matches!(err, crate::XMapError::Privacy(_)), "{err}");
    }

    #[test]
    fn temporal_alpha_changes_item_based_predictions() {
        let flat = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let decayed = ItemBasedRecommender::fit(target_matrix(), 5, 0.3).unwrap();
        // profile: old high rating on item 0, recent low rating on item 1
        let profile: Profile = vec![
            (ItemId(0), 5.0, Timestep(0)),
            (ItemId(1), 1.0, Timestep(50)),
        ];
        let p_flat = flat.predict_for_profile(&profile, ItemId(2));
        let p_decay = decayed.predict_for_profile(&profile, ItemId(2));
        assert!(
            p_decay <= p_flat + 1e-9,
            "decay must favour the recent low rating: {p_decay} vs {p_flat}"
        );
    }

    #[test]
    fn empty_profile_falls_back_to_item_average() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let empty: Profile = Vec::new();
        let pred = rec.predict_for_profile(&empty, ItemId(3));
        assert!((pred - rec.target().item_average(ItemId(3))).abs() < 1e-9);
        assert!(rec.recommend_for_profile(&empty, 3).is_empty());
        let urec = UserBasedRecommender::fit(target_matrix(), 3).unwrap();
        let upred = urec.predict_for_profile(&empty, ItemId(3));
        assert!((1.0..=5.0).contains(&upred));
    }

    #[test]
    fn predictions_ignore_unknown_items_gracefully() {
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let p = cluster_profile();
        let v = rec.predict_for_profile(&p, ItemId(999));
        assert!((1.0..=5.0).contains(&v));
        assert!(rec.neighbors(ItemId(999)).is_empty());
    }

    #[test]
    fn out_of_catalogue_profile_entries_are_skipped_not_allocated() {
        // The dense scratch must bound its buffers to the catalogue: a corrupted or
        // foreign-domain id like u32::MAX in the *profile* must neither abort on a
        // gigantic allocation nor change predictions (it can never match a neighbour).
        let rec = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let clean = cluster_profile();
        let mut poisoned = clean.clone();
        poisoned.push((ItemId(u32::MAX), 5.0, Timestep(0)));
        assert_eq!(
            rec.predict_for_profile(&poisoned, ItemId(2)),
            rec.predict_for_profile(&clean, ItemId(2))
        );
        // the foreign id is still excluded from its own recommendations like any owned item
        let recs = rec.recommend_for_profile(&poisoned, 3);
        assert_eq!(recs, rec.recommend_for_profile(&clean, 3));
    }

    // -----------------------------------------------------------------------
    // The term-table kernel against the probe loop it replaced.
    // -----------------------------------------------------------------------

    /// Equation 4 / 7 as it was computed before the term table: probe the profile for
    /// every neighbour and do arithmetic on a hit only. Of duplicate items the last
    /// wins, ids past the catalogue are never found, and "now" is the latest timestep
    /// of the full profile.
    fn predict_by_probe(
        target: &RatingMatrix,
        neighbors: &[ItemNeighbor],
        profile: &Profile,
        item: ItemId,
        temporal_alpha: f64,
    ) -> f64 {
        let ratings: std::collections::HashMap<ItemId, (f64, Timestep)> = profile
            .iter()
            .filter(|(i, _, _)| i.index() < target.n_items())
            .map(|&(i, r, t)| (i, (r, t)))
            .collect();
        let now = profile.iter().map(|&(_, _, t)| t).max();
        let now = now.unwrap_or(Timestep(0));
        let item_avg = target.item_average(item);
        let mut num = 0.0;
        let mut den = 0.0;
        for &ItemNeighbor {
            item: j,
            similarity: sim,
        } in neighbors
        {
            if let Some(&(r, t)) = ratings.get(&j) {
                let weight = now.decay_since(t, temporal_alpha);
                num += sim * (r - target.item_average(j)) * weight;
                den += sim.abs() * weight;
            }
        }
        let raw = if den < 1e-12 {
            item_avg
        } else {
            item_avg + num / den
        };
        target.scale().clamp(raw)
    }

    /// A neighbour row over a catalogue of `n_items`: catalogue ids (mostly the head,
    /// where profiles hit), ids at and past its end, and similarities of either sign,
    /// signed zeros and ±1 among them.
    fn random_row(rng: &mut TestRng, n_items: u32) -> Vec<ItemNeighbor> {
        (0..rng.next_u64() % 24)
            .map(|_| ItemNeighbor {
                item: match rng.next_u64() % 10 {
                    0 => ItemId(n_items + (rng.next_u64() % 2) as u32),
                    1 => ItemId(u32::MAX),
                    _ => ItemId(skewed_item(rng, n_items)),
                },
                similarity: match rng.next_u64() % 8 {
                    0 => [0.0, -0.0, 1.0, -1.0][(rng.next_u64() % 4) as usize],
                    _ => 2.0 * rng.next_f64() - 1.0,
                },
            })
            .collect()
    }

    proptest! {
        /// The branch-free kernel over the term table has the bits of the probe loop,
        /// on one warmed scratch: random rows against profiles with duplicate items,
        /// ids at and past the catalogue, and hits rated exactly at their item's
        /// average (a signed-zero term), under no decay, decay, and a decay that
        /// underflows a hit's weight to zero.
        #[test]
        fn the_term_table_kernel_has_the_bits_of_the_probe_loop(
            seed in any::<u64>(),
            n_users in 1u32..60,
            n_items in 1u32..40,
            alpha in 0usize..3,
        ) {
            let alpha = [0.0, 0.3, 1e3][alpha];
            let mut rng = TestRng::from_name(&seed.to_string());
            let target = skewed_matrix(&mut rng, n_users, n_items);
            let catalogue = target.n_items() as u32;
            let mut scratch = ProfileScratch::new();
            for _ in 0..6 {
                let mut profile = random_profile(&mut rng, catalogue);
                for _ in 0..rng.next_u64() % 4 {
                    let i = ItemId(skewed_item(&mut rng, catalogue));
                    let t = Timestep((rng.next_u64() % 60) as u32);
                    profile.push((i, target.item_average(i), t));
                }
                scratch.load(&profile, &target, alpha);
                for _ in 0..12 {
                    let row = random_row(&mut rng, catalogue);
                    let item = ItemId((rng.next_u64() % u64::from(catalogue + 1)) as u32);
                    let got = predict_item_based(&target, &row, &scratch.terms, item);
                    let expect = predict_by_probe(&target, &row, &profile, item, alpha);
                    prop_assert_eq!(got.to_bits(), expect.to_bits(), "{:?} on {:?}", row, profile);
                }
            }
        }
    }

    /// A thread's one scratch alternates between two profiles and two recommenders of
    /// different catalogue sizes, and every answer is a fresh scratch's: no slot of an
    /// earlier request leaks into a later one.
    #[test]
    fn a_warmed_scratch_scores_what_a_fresh_one_scores() {
        let mut rng = TestRng::from_name("warmed scratch");
        let small = ItemBasedRecommender::fit(target_matrix(), 5, 0.0).unwrap();
        let large = ItemBasedRecommender::fit(skewed_matrix(&mut rng, 40, 30), 5, 0.3).unwrap();
        let profiles: [Profile; 2] = [
            vec![
                (ItemId(3), 4.0, Timestep(2)),
                (ItemId(4), 1.0, Timestep(9)),
                (ItemId(20), 5.0, Timestep(5)),
                (ItemId(31), 2.0, Timestep(1)),
            ],
            cluster_profile(),
        ];
        let mut warm = ProfileScratch::new();
        for round in 0..8 {
            let rec = if round % 4 < 2 { &large } else { &small };
            let profile = &profiles[round % 2];
            let items: Vec<ItemId> = (0..=rec.target().n_items() as u32).map(ItemId).collect();
            let plan = ServePlan::default();
            let fresh = rec.score(profile, &plan, &items, &mut ProfileScratch::new());
            let got = rec.score(profile, &plan, &items, &mut warm);
            let bits =
                |s: &[(f64, ItemId)]| s.iter().map(|(v, i)| (v.to_bits(), *i)).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&fresh), "round {round}");
            for &(expect, item) in &fresh {
                let single = rec.predict_for_profile(profile, item);
                assert_eq!(single.to_bits(), expect.to_bits(), "round {round}, {item}");
            }
        }
    }

    // -----------------------------------------------------------------------
    // X-Map-ib's build-time release against the per-read draw it replaced.
    // -----------------------------------------------------------------------

    /// The per-read PNSA/PNCF draw X-Map-ib predicted with before its lists were
    /// released at build, kept as the oracle of the release: every single prediction
    /// re-seeds the `(seed, item)` stream, re-runs the selection over the
    /// sensitivity-annotated pool of `item` and redraws the noise.
    fn predict_per_read(
        target: &RatingMatrix,
        config: &XMapConfig,
        pools: &[Vec<ItemNeighbor>],
        profile: &Profile,
        item: ItemId,
    ) -> f64 {
        let pool: Vec<ScoredCandidate> = pools
            .get(item.index())
            .into_iter()
            .flatten()
            .map(|n| ScoredCandidate {
                item: n.item,
                similarity: n.similarity,
                sensitivity: pair_sensitivity(target, item, n.item),
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ (0x5851_f42d_4c95_7f2du64.wrapping_mul(u64::from(item.0) + 1)),
        );
        let epsilon_prime = config.privacy.epsilon_prime;
        let selected = private_neighbor_selection(
            &mut rng,
            &pool,
            config.k,
            epsilon_prime,
            config.privacy.rho,
            target.n_items().max(config.k + 1),
        );
        let neighbor_sims: Vec<ItemNeighbor> = selected
            .iter()
            .map(|c| {
                let noisy =
                    pncf_noisy_similarity(&mut rng, c.similarity, c.sensitivity, epsilon_prime);
                ItemNeighbor {
                    item: c.item,
                    similarity: noisy.clamp(-1.0, 1.0),
                }
            })
            .collect();
        let mut scratch = ProfileScratch::new();
        scratch.load(profile, target, config.temporal_alpha);
        predict_item_based(target, &neighbor_sims, &scratch.terms, item)
    }

    /// An item id skewed towards the head of the catalogue.
    fn skewed_item(rng: &mut TestRng, n_items: u32) -> u32 {
        let x = rng.next_f64();
        (x * x * x * f64::from(n_items)) as u32
    }

    /// A random matrix with skewed item popularity over items `0..n_items`, plus three
    /// fixed ones: item `n_items` is rated by nobody (an empty pool) and items
    /// `n_items + 1` and `n_items + 2` by one extra user only, who disagrees with
    /// themself about them (one-candidate pools, `|pool| ≤ k` for every `k`).
    fn skewed_matrix(rng: &mut TestRng, n_users: u32, n_items: u32) -> RatingMatrix {
        let mut b =
            RatingMatrixBuilder::new().with_dimensions(n_users as usize + 1, n_items as usize + 3);
        for u in 0..n_users {
            for _ in 0..rng.next_u64() % 12 {
                let value = (1 + rng.next_u64() % 5) as f64;
                b.push_parts(u, skewed_item(rng, n_items), value).unwrap();
            }
        }
        b.push_parts(n_users, n_items + 1, 5.0).unwrap();
        b.push_parts(n_users, n_items + 2, 2.0).unwrap();
        b.build().unwrap()
    }

    /// A random profile over a catalogue of `n_items`: possibly empty, with duplicate
    /// items, ids past the catalogue, and ratings spread over time.
    fn random_profile(rng: &mut TestRng, n_items: u32) -> Profile {
        let mut profile: Profile = Vec::new();
        for _ in 0..rng.next_u64() % 10 {
            let item = match rng.next_u64() % 8 {
                0 => ItemId(n_items + (rng.next_u64() % 3) as u32),
                1 => ItemId(u32::MAX),
                2 if !profile.is_empty() => profile[rng.next_u64() as usize % profile.len()].0,
                _ => ItemId(skewed_item(rng, n_items)),
            };
            let value = (1 + rng.next_u64() % 5) as f64;
            profile.push((item, value, Timestep((rng.next_u64() % 60) as u32)));
        }
        profile
    }

    /// The candidate stream by its definition: sort, deduplicate, and drop every id the
    /// profile holds by a linear search of the profile.
    fn candidate_stream_by_sort(profile: &Profile, mut gathered: Vec<ItemId>) -> Vec<ItemId> {
        let owned: Vec<ItemId> = profile.iter().map(|&(i, _, _)| i).collect();
        gathered.sort_unstable();
        gathered.dedup();
        gathered.retain(|i| !owned.contains(i));
        gathered
    }

    proptest! {
        /// The bit-set stream ≡ the sorted one, on one warmed scratch: gathered ids
        /// repeated, spread over catalogues of different sizes or absent altogether,
        /// against profiles holding some of them, ids the stream never saw, ids past
        /// the catalogue and `u32::MAX`.
        #[test]
        fn the_bit_set_stream_equals_the_sorted_stream(
            seed in any::<u64>(),
            n_items in 1u32..300,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut scratch = ProfileScratch::new();
            for round in 0..6u32 {
                let catalogue = (n_items >> (round % 3)).max(1);
                let len = if round == 5 { 0 } else { rng.next_u64() % 40 };
                let gathered: Vec<ItemId> = (0..len)
                    .map(|_| ItemId(skewed_item(&mut rng, catalogue)))
                    .collect();
                let mut profile = random_profile(&mut rng, catalogue);
                if let Some(&i) = gathered.first() {
                    profile.push((i, 3.0, Timestep(0)));
                }
                let got = scratch.candidate_stream(&profile, &gathered);
                prop_assert_eq!(got, candidate_stream_by_sort(&profile, gathered));
            }
        }

        /// The lists released once at build serve the bits of the per-read draw: every
        /// item id — one past the catalogue, one with an empty pool and one with
        /// `|pool| ≤ k` among them — predicts what the oracle predicts, and top-N is
        /// the ranking of the oracle's predictions over the candidate stream.
        #[test]
        fn released_lists_serve_the_bits_of_the_per_read_draw(
            seed in any::<u64>(),
            n_users in 1u32..80,
            n_items in 2u32..40,
            picks in (0usize..3, 0usize..3, 0usize..2),
            rho in 0.01f64..0.5,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let config = XMapConfig {
                temporal_alpha: [0.0, 0.3][picks.2],
                privacy: PrivacyConfig {
                    epsilon_prime: [0.05, 0.8, 10.0][picks.1],
                    rho,
                    ..Default::default()
                },
                ..config(XMapMode::XMapItemBased, [1, 3, 8][picks.0], 0.8, seed)
            };
            let target = Arc::new(skewed_matrix(&mut rng, n_users, n_items));
            let catalogue = target.n_items() as u32;
            let knn = item_pool_config(&config).unwrap();
            let pools = Arc::new(ItemKnn::fit(&target, knn).unwrap().into_neighbors());
            prop_assert!(pools[n_items as usize].is_empty());
            prop_assert_eq!(pools[n_items as usize + 1].len(), 1);
            let workers = WorkerPool::new(2);
            let (rec, _) = build(&config, Arc::clone(&target), Some(Arc::clone(&pools)), &workers).unwrap();
            for _ in 0..4 {
                let profile = random_profile(&mut rng, catalogue);
                let oracle: Vec<f64> = (0..=catalogue)
                    .map(|i| predict_per_read(&target, &config, &pools, &profile, ItemId(i)))
                    .collect();
                for (i, expect) in oracle.iter().enumerate() {
                    let got = rec.predict_for_profile(&profile, ItemId(i as u32));
                    prop_assert_eq!(got.to_bits(), expect.to_bits(), "item {} of {:?}", i, profile);
                }
                let gathered = rec.candidates(&profile, &ServePlan::default(), 0..catalogue);
                let stream = ProfileScratch::new().candidate_stream(&profile, &gathered);
                for n in [1, 5, stream.len() + 1] {
                    let ranked: Vec<(ItemId, f64)> =
                        top_k(n, stream.iter().map(|&i| (oracle[i.index()], i)))
                            .into_iter()
                            .map(|(s, i)| (i, s))
                            .collect();
                    prop_assert_eq!(rec.recommend_for_profile(&profile, n), ranked);
                }
            }
        }
    }

    /// The concrete item-based recommender behind a shared one (`None` for the
    /// user-based modes).
    pub(crate) fn item_based(rec: &SharedRecommender) -> Option<&ItemBasedRecommender> {
        let any: &dyn std::any::Any = &**rec;
        any.downcast_ref()
    }

    /// The item-kNN pool table an item-based recommender holds (`None` for the
    /// user-based modes).
    pub(crate) fn pool_table(rec: &SharedRecommender) -> Option<&NeighborTable> {
        Some(&item_based(rec)?.pools)
    }

    /// X-Map-ib's released table as a recommender holds it (`None` for the other modes).
    pub(crate) fn released_table(rec: &SharedRecommender) -> Option<&NeighborTable> {
        item_based(rec)?.released.as_ref()
    }

    #[test]
    fn an_item_based_recommender_holds_the_pools_it_is_handed_not_a_copy() {
        let target = Arc::new(target_matrix());
        for mode in [XMapMode::NxMapItemBased, XMapMode::XMapItemBased] {
            let config = config(mode, 3, 0.8, 7);
            let knn = item_pool_config(&config).unwrap();
            let pools = Arc::new(ItemKnn::fit(&target, knn).unwrap().into_neighbors());
            let workers = WorkerPool::new(1);
            let (rec, released) = build(
                &config,
                Arc::clone(&target),
                Some(Arc::clone(&pools)),
                &workers,
            )
            .unwrap();
            let held = item_based(&rec).unwrap();
            assert!(
                Arc::ptr_eq(&held.pools, &pools),
                "{mode:?} copied its pools"
            );
            assert_eq!(released.is_some(), mode.is_private());
            if let (Some(held), Some(released)) = (&held.released, &released) {
                assert!(Arc::ptr_eq(held, released), "{mode:?} copied its release");
            }
        }
    }
}
