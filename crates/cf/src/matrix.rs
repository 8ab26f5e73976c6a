//! Compact rating matrix with user-major and item-major views.
//!
//! The paper works with the standard sparse user × item rating matrix `M_D` (Table 1) and
//! repeatedly needs both *user profiles* `X_u` (the items rated by a user) and *item
//! profiles* `Y_i` (the users who rated an item), together with the per-user and per-item
//! average ratings `r̄_u` and `r̄_i` used by the similarity metrics and predictors.
//!
//! [`RatingMatrix`] stores the ratings once in CSR (compressed sparse row) form keyed by
//! user and keeps a mirrored CSC-style item-major index, so that both `X_u` and `Y_i` are
//! contiguous slices. Entries within a row/column are sorted by the secondary id, which
//! lets pairwise similarity computations run as linear merges.

use crate::error::{CfError, Result};
use crate::ids::{DomainId, ItemId, UserId};
use crate::rating::{Rating, RatingScale, Timestep};
use serde::{Deserialize, Serialize};
use std::ops::{Bound, RangeBounds};

/// One stored rating as seen from the user-major view: `(item, value, timestep)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UserEntry {
    /// The rated item.
    pub item: ItemId,
    /// The rating value.
    pub value: f64,
    /// Logical time of the rating.
    pub timestep: Timestep,
}

/// One stored rating as seen from the item-major view: `(user, value, timestep)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ItemEntry {
    /// The user who rated.
    pub user: UserId,
    /// The rating value.
    pub value: f64,
    /// Logical time of the rating.
    pub timestep: Timestep,
}

/// Builder that accumulates raw [`Rating`] events and produces a [`RatingMatrix`].
///
/// Duplicate `(user, item)` pairs keep the *latest* rating by timestep (ties broken by
/// insertion order), mirroring the common practice of retaining a user's most recent
/// opinion of an item.
#[derive(Clone, Debug, Default)]
pub struct RatingMatrixBuilder {
    ratings: Vec<Rating>,
    item_domains: Vec<(ItemId, DomainId)>,
    scale: RatingScale,
    n_users_hint: usize,
    n_items_hint: usize,
}

impl RatingMatrixBuilder {
    /// Creates an empty builder with the default 1–5 scale.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with an explicit rating scale.
    pub fn with_scale(scale: RatingScale) -> Self {
        RatingMatrixBuilder {
            scale,
            ..Default::default()
        }
    }

    /// Hints the number of users and items so unrated trailing ids are still represented.
    pub fn with_dimensions(mut self, n_users: usize, n_items: usize) -> Self {
        self.n_users_hint = n_users;
        self.n_items_hint = n_items;
        self
    }

    /// Adds a rating event.
    ///
    /// Non-finite rating values are rejected; the rating scale is *not* enforced here so
    /// that mean-centred or synthetic data can be stored, but see
    /// [`RatingMatrix::scale`] for prediction clamping.
    pub fn push(&mut self, rating: Rating) -> Result<&mut Self> {
        if !rating.value.is_finite() {
            return Err(CfError::InvalidRating {
                value: rating.value,
                context: "RatingMatrixBuilder::push",
            });
        }
        self.ratings.push(rating);
        Ok(self)
    }

    /// Adds a rating by raw ids, defaulting the timestep to 0.
    pub fn push_parts(&mut self, user: u32, item: u32, value: f64) -> Result<&mut Self> {
        self.push(Rating::new(UserId(user), ItemId(item), value))
    }

    /// Adds a rating by raw ids with an explicit timestep.
    pub fn push_timed(&mut self, user: u32, item: u32, value: f64, t: u32) -> Result<&mut Self> {
        self.push(Rating::at(UserId(user), ItemId(item), value, Timestep(t)))
    }

    /// Declares the domain an item belongs to (defaults to [`DomainId::SOURCE`]).
    pub fn set_item_domain(&mut self, item: ItemId, domain: DomainId) -> &mut Self {
        self.item_domains.push((item, domain));
        self
    }

    /// Number of rating events accumulated so far (before deduplication).
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// Whether no rating has been added yet.
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// Finalises the builder into an immutable [`RatingMatrix`].
    pub fn build(mut self) -> Result<RatingMatrix> {
        if self.ratings.is_empty() && self.n_users_hint == 0 && self.n_items_hint == 0 {
            return Err(CfError::EmptyMatrix);
        }

        let mut n_users = self.n_users_hint;
        let mut n_items = self.n_items_hint;
        for r in &self.ratings {
            n_users = n_users.max(r.user.index() + 1);
            n_items = n_items.max(r.item.index() + 1);
        }
        for (item, _) in &self.item_domains {
            n_items = n_items.max(item.index() + 1);
        }

        // Deduplicate (user, item) keeping the most recent entry. Stable sort keeps
        // insertion order for equal timesteps so "last pushed wins" among ties.
        self.ratings.sort_by_key(|a| (a.user, a.item, a.timestep));
        let mut deduped: Vec<Rating> = Vec::with_capacity(self.ratings.len());
        for r in self.ratings {
            match deduped.last_mut() {
                Some(last) if last.user == r.user && last.item == r.item => *last = r,
                _ => deduped.push(r),
            }
        }

        // User-major CSR.
        let mut user_offsets = vec![0usize; n_users + 1];
        for r in &deduped {
            user_offsets[r.user.index() + 1] += 1;
        }
        for u in 0..n_users {
            user_offsets[u + 1] += user_offsets[u];
        }
        let mut user_entries = vec![
            UserEntry {
                item: ItemId(0),
                value: 0.0,
                timestep: Timestep(0)
            };
            deduped.len()
        ];
        {
            let mut cursor = user_offsets.clone();
            for r in &deduped {
                let pos = cursor[r.user.index()];
                user_entries[pos] = UserEntry {
                    item: r.item,
                    value: r.value,
                    timestep: r.timestep,
                };
                cursor[r.user.index()] += 1;
            }
        }
        // Entries are already sorted by item within each user because of the global sort.

        // Item-major CSC mirror.
        let mut item_offsets = vec![0usize; n_items + 1];
        for r in &deduped {
            item_offsets[r.item.index() + 1] += 1;
        }
        for i in 0..n_items {
            item_offsets[i + 1] += item_offsets[i];
        }
        let mut item_entries = vec![
            ItemEntry {
                user: UserId(0),
                value: 0.0,
                timestep: Timestep(0)
            };
            deduped.len()
        ];
        {
            let mut cursor = item_offsets.clone();
            // Iterating in (user, item) order yields user-sorted columns.
            for r in &deduped {
                let pos = cursor[r.item.index()];
                item_entries[pos] = ItemEntry {
                    user: r.user,
                    value: r.value,
                    timestep: r.timestep,
                };
                cursor[r.item.index()] += 1;
            }
        }

        // Averages.
        let mut user_avg = vec![0.0f64; n_users];
        for u in 0..n_users {
            let row = &user_entries[user_offsets[u]..user_offsets[u + 1]];
            if !row.is_empty() {
                user_avg[u] = row.iter().map(|e| e.value).sum::<f64>() / row.len() as f64;
            }
        }
        let mut item_avg = vec![0.0f64; n_items];
        for i in 0..n_items {
            let col = &item_entries[item_offsets[i]..item_offsets[i + 1]];
            if !col.is_empty() {
                item_avg[i] = col.iter().map(|e| e.value).sum::<f64>() / col.len() as f64;
            }
        }
        let global_avg = if deduped.is_empty() {
            self.scale.midpoint()
        } else {
            deduped.iter().map(|r| r.value).sum::<f64>() / deduped.len() as f64
        };

        // Item domains (default SOURCE).
        let mut item_domain = vec![DomainId::SOURCE; n_items];
        for (item, domain) in self.item_domains {
            item_domain[item.index()] = domain;
        }

        Ok(RatingMatrix {
            n_users,
            n_items,
            user_offsets,
            user_entries,
            item_offsets,
            item_entries,
            user_avg,
            item_avg,
            global_avg,
            item_domain,
            scale: self.scale,
        })
    }
}

/// Immutable sparse rating matrix with dual user-major / item-major views.
///
/// `PartialEq` compares every stored field (both CSR views, the average caches, domains
/// and scale) — it is what the incremental builder path
/// ([`RatingMatrix::apply_delta`]) is tested bit-identical to a full rebuild against.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatingMatrix {
    n_users: usize,
    n_items: usize,
    user_offsets: Vec<usize>,
    user_entries: Vec<UserEntry>,
    item_offsets: Vec<usize>,
    item_entries: Vec<ItemEntry>,
    user_avg: Vec<f64>,
    item_avg: Vec<f64>,
    global_avg: f64,
    item_domain: Vec<DomainId>,
    scale: RatingScale,
}

impl RatingMatrix {
    /// Number of users (including users with no rating, if declared via dimensions).
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of stored ratings (after deduplication).
    pub fn n_ratings(&self) -> usize {
        self.user_entries.len()
    }

    /// Density of the matrix: ratings / (users × items). Zero for degenerate shapes.
    pub fn density(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            0.0
        } else {
            self.n_ratings() as f64 / (self.n_users as f64 * self.n_items as f64)
        }
    }

    /// The rating scale declared at build time.
    pub fn scale(&self) -> RatingScale {
        self.scale
    }

    /// Iterator over all user ids.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.n_users as u32).map(UserId)
    }

    /// Iterator over all item ids.
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        (0..self.n_items as u32).map(ItemId)
    }

    /// The user profile `X_u`: every `(item, value, timestep)` rated by `user`, sorted by
    /// item id. Empty slice (not an error) for in-range users with no ratings.
    pub fn user_profile(&self, user: UserId) -> &[UserEntry] {
        let u = user.index();
        if u >= self.n_users {
            return &[];
        }
        &self.user_entries[self.user_offsets[u]..self.user_offsets[u + 1]]
    }

    /// The part of [`user_profile`](Self::user_profile) whose items lie in `items`,
    /// found by two binary searches over the sorted profile.
    pub fn user_profile_in(&self, user: UserId, items: impl RangeBounds<ItemId>) -> &[UserEntry] {
        let row = self.user_profile(user);
        let start = row.partition_point(|e| match items.start_bound() {
            Bound::Included(&lo) => e.item < lo,
            Bound::Excluded(&lo) => e.item <= lo,
            Bound::Unbounded => false,
        });
        let end = row.partition_point(|e| match items.end_bound() {
            Bound::Included(&hi) => e.item <= hi,
            Bound::Excluded(&hi) => e.item < hi,
            Bound::Unbounded => true,
        });
        &row[start..end.max(start)]
    }

    /// The item profile `Y_i`: every `(user, value, timestep)` who rated `item`, sorted by
    /// user id. Empty slice for in-range items with no ratings.
    pub fn item_profile(&self, item: ItemId) -> &[ItemEntry] {
        let i = item.index();
        if i >= self.n_items {
            return &[];
        }
        &self.item_entries[self.item_offsets[i]..self.item_offsets[i + 1]]
    }

    /// Number of ratings given by a user.
    pub fn user_degree(&self, user: UserId) -> usize {
        self.user_profile(user).len()
    }

    /// Number of ratings received by an item.
    pub fn item_degree(&self, item: ItemId) -> usize {
        self.item_profile(item).len()
    }

    /// The rating a user gave an item, if any (binary search in the user row).
    pub fn rating(&self, user: UserId, item: ItemId) -> Option<f64> {
        let row = self.user_profile(user);
        row.binary_search_by(|e| e.item.cmp(&item))
            .ok()
            .map(|idx| row[idx].value)
    }

    /// The timestep at which a user rated an item, if any.
    pub fn rating_timestep(&self, user: UserId, item: ItemId) -> Option<Timestep> {
        let row = self.user_profile(user);
        row.binary_search_by(|e| e.item.cmp(&item))
            .ok()
            .map(|idx| row[idx].timestep)
    }

    /// Average rating `r̄_u` of a user; falls back to the global average for users with no
    /// ratings (the paper completes the sparse matrix with averages, Table 1 footnote).
    pub fn user_average(&self, user: UserId) -> f64 {
        let u = user.index();
        if u >= self.n_users || self.user_degree(user) == 0 {
            self.global_avg
        } else {
            self.user_avg[u]
        }
    }

    /// Average rating `r̄_i` of an item; falls back to the global average for unrated items.
    pub fn item_average(&self, item: ItemId) -> f64 {
        let i = item.index();
        if i >= self.n_items || self.item_degree(item) == 0 {
            self.global_avg
        } else {
            self.item_avg[i]
        }
    }

    /// Global average rating over the whole matrix.
    pub fn global_average(&self) -> f64 {
        self.global_avg
    }

    /// Domain that an item belongs to.
    pub fn item_domain(&self, item: ItemId) -> DomainId {
        self.item_domain
            .get(item.index())
            .copied()
            .unwrap_or(DomainId::SOURCE)
    }

    /// Items belonging to a given domain.
    pub fn items_in_domain(&self, domain: DomainId) -> Vec<ItemId> {
        self.items()
            .filter(|&i| self.item_domain(i) == domain)
            .collect()
    }

    /// The set of domains present in the matrix, in ascending id order.
    pub fn domains(&self) -> Vec<DomainId> {
        let mut ds: Vec<DomainId> = self.item_domain.clone();
        ds.sort_unstable();
        ds.dedup();
        ds
    }

    /// Users who rated at least one item in *every* domain of `domains` — the *overlap*
    /// (straddler) users that make heterogeneous recommendation possible (§1.3).
    pub fn overlapping_users(&self, domains: &[DomainId]) -> Vec<UserId> {
        if domains.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        'users: for u in self.users() {
            let profile = self.user_profile(u);
            for &d in domains {
                if !profile.iter().any(|e| self.item_domain(e.item) == d) {
                    continue 'users;
                }
            }
            out.push(u);
        }
        out
    }

    /// Iterates all ratings in user-major order.
    pub fn iter(&self) -> impl Iterator<Item = Rating> + '_ {
        self.users().flat_map(move |u| {
            self.user_profile(u).iter().map(move |e| Rating {
                user: u,
                item: e.item,
                value: e.value,
                timestep: e.timestep,
            })
        })
    }

    /// Returns a new matrix containing only ratings for which `keep` returns true,
    /// preserving dimensions, domains and scale. Useful for building training subsets.
    pub fn filter(&self, mut keep: impl FnMut(&Rating) -> bool) -> Result<RatingMatrix> {
        let mut b =
            RatingMatrixBuilder::with_scale(self.scale).with_dimensions(self.n_users, self.n_items);
        for r in self.iter() {
            if keep(&r) {
                b.push(r)?;
            }
        }
        for i in self.items() {
            b.set_item_domain(i, self.item_domain(i));
        }
        b.build()
    }

    /// The growth rule of a delta: its ratings may name users below
    /// `n_users + delta.len()`, and its ratings and declarations items below
    /// `n_items + delta.len() + new_domains.len()`. A delta grows the matrix by at most
    /// its own size, so no allocation is sized by an id; anything past that is
    /// [`CfError::IdPastGrowthBound`].
    pub fn check_delta_growth(
        &self,
        delta: &[Rating],
        new_domains: &[(ItemId, DomainId)],
    ) -> Result<()> {
        let user_bound = self.n_users + delta.len();
        let item_bound = self.n_items + delta.len() + new_domains.len();
        let declared = new_domains.iter().map(|&(item, _)| item);
        let max_user = delta.iter().map(|r| r.user).max();
        let max_item = delta.iter().map(|r| r.item).chain(declared).max();
        if max_user.is_some_and(|u| u.index() >= user_bound)
            || max_item.is_some_and(|i| i.index() >= item_bound)
        {
            return Err(CfError::IdPastGrowthBound {
                max_user: max_user.map(|u| u.0),
                max_item: max_item.map(|i| i.0),
                user_bound,
                item_bound,
            });
        }
        Ok(())
    }

    /// Applies a batch of new/updated ratings (plus item-domain declarations for new
    /// items) through an incremental merge — the fold every ingest and recovery runs
    /// ahead of its build.
    ///
    /// The result is **bit-identical** to pushing `self.iter()` followed by `delta`
    /// (in order) through a [`RatingMatrixBuilder`] carrying this matrix's scale,
    /// dimensions and domains: duplicate `(user, item)` pairs keep the latest rating by
    /// timestep, ties won by the delta (it is "pushed later"), and every average is
    /// recomputed with the builder's exact summation order. Only the rows of users
    /// appearing in `delta` are merged; everything else is copied, so the merge costs
    /// `O(n_ratings)` in memcpy-style passes plus `O(|delta| log |delta|)` — no global
    /// re-sort of the trace.
    ///
    /// Domain declarations follow builder semantics (last declaration wins), which lets
    /// new items be declared; redeclaring an existing item to a *different* domain is
    /// the caller's responsibility to reject (the model-level delta path does). Ids
    /// past [`RatingMatrix::check_delta_growth`] are refused before anything is sized.
    pub fn apply_delta(
        &self,
        delta: &[Rating],
        new_domains: &[(ItemId, DomainId)],
    ) -> Result<RatingMatrix> {
        for r in delta {
            if !r.value.is_finite() {
                return Err(CfError::InvalidRating {
                    value: r.value,
                    context: "RatingMatrix::apply_delta",
                });
            }
        }
        self.check_delta_growth(delta, new_domains)?;

        let mut n_users = self.n_users;
        let mut n_items = self.n_items;
        for r in delta {
            n_users = n_users.max(r.user.index() + 1);
            n_items = n_items.max(r.item.index() + 1);
        }
        for (item, _) in new_domains {
            n_items = n_items.max(item.index() + 1);
        }

        // The delta's own winner per (user, item): latest timestep, ties by push order —
        // exactly what the builder's stable sort + keep-last dedup produces.
        let mut winners: Vec<Rating> = delta.to_vec();
        winners.sort_by_key(|r| (r.user, r.item, r.timestep));
        let mut deduped: Vec<Rating> = Vec::with_capacity(winners.len());
        for r in winners {
            match deduped.last_mut() {
                Some(last) if last.user == r.user && last.item == r.item => *last = r,
                _ => deduped.push(r),
            }
        }
        let winners = deduped;

        // Users whose rows must be merged, with their slice of `winners`.
        let mut delta_rows: Vec<(UserId, std::ops::Range<usize>)> = Vec::new();
        let mut start = 0usize;
        for ix in 0..winners.len() {
            if ix + 1 == winners.len() || winners[ix + 1].user != winners[ix].user {
                delta_rows.push((winners[ix].user, start..ix + 1));
                start = ix + 1;
            }
        }

        // --- User-major view: copy unchanged rows, merge the delta users' rows. ---
        let mut user_offsets = Vec::with_capacity(n_users + 1);
        user_offsets.push(0usize);
        let mut user_entries: Vec<UserEntry> = Vec::with_capacity(self.n_ratings() + winners.len());
        let mut next_delta_row = 0usize;
        for u in 0..n_users {
            let user = UserId(u as u32);
            let old_row = self.user_profile(user);
            match delta_rows.get(next_delta_row) {
                Some(&(delta_user, ref range)) if delta_user == user => {
                    next_delta_row += 1;
                    let fresh = &winners[range.clone()];
                    let (mut a, mut b) = (0usize, 0usize);
                    while a < old_row.len() || b < fresh.len() {
                        let take_fresh = match (old_row.get(a), fresh.get(b)) {
                            (Some(o), Some(f)) => match o.item.cmp(&f.item) {
                                std::cmp::Ordering::Less => {
                                    user_entries.push(*o);
                                    a += 1;
                                    continue;
                                }
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Equal => {
                                    // Builder dedup: the delta entry was pushed later,
                                    // so it wins unless the stored timestep is newer.
                                    if f.timestep >= o.timestep {
                                        a += 1;
                                        true
                                    } else {
                                        user_entries.push(*o);
                                        a += 1;
                                        b += 1;
                                        continue;
                                    }
                                }
                            },
                            (Some(o), None) => {
                                user_entries.push(*o);
                                a += 1;
                                continue;
                            }
                            (None, Some(_)) => true,
                            (None, None) => unreachable!("loop condition"),
                        };
                        if take_fresh {
                            let f = fresh[b];
                            user_entries.push(UserEntry {
                                item: f.item,
                                value: f.value,
                                timestep: f.timestep,
                            });
                            b += 1;
                        }
                    }
                }
                _ => user_entries.extend_from_slice(old_row),
            }
            user_offsets.push(user_entries.len());
        }
        debug_assert_eq!(next_delta_row, delta_rows.len());

        if user_entries.is_empty() && n_users == 0 && n_items == 0 {
            return Err(CfError::EmptyMatrix);
        }

        // --- Item-major mirror: scatter the merged entries in user-major order, the
        // builder's exact fill order (user-sorted columns). ---
        let mut item_offsets = vec![0usize; n_items + 1];
        for e in &user_entries {
            item_offsets[e.item.index() + 1] += 1;
        }
        for i in 0..n_items {
            item_offsets[i + 1] += item_offsets[i];
        }
        let mut item_entries = vec![
            ItemEntry {
                user: UserId(0),
                value: 0.0,
                timestep: Timestep(0)
            };
            user_entries.len()
        ];
        {
            let mut cursor = item_offsets.clone();
            for u in 0..n_users {
                for e in &user_entries[user_offsets[u]..user_offsets[u + 1]] {
                    let pos = cursor[e.item.index()];
                    item_entries[pos] = ItemEntry {
                        user: UserId(u as u32),
                        value: e.value,
                        timestep: e.timestep,
                    };
                    cursor[e.item.index()] += 1;
                }
            }
        }

        // --- Averages: copy the untouched ones, recompute the touched ones with the
        // builder's summation order (row/column order), never by adjusting sums. ---
        let mut user_avg = vec![0.0f64; n_users];
        user_avg[..self.n_users].copy_from_slice(&self.user_avg);
        for &(user, _) in &delta_rows {
            let u = user.index();
            let row = &user_entries[user_offsets[u]..user_offsets[u + 1]];
            user_avg[u] = if row.is_empty() {
                0.0
            } else {
                row.iter().map(|e| e.value).sum::<f64>() / row.len() as f64
            };
        }
        let mut touched_items: Vec<usize> = winners.iter().map(|r| r.item.index()).collect();
        touched_items.sort_unstable();
        touched_items.dedup();
        let mut item_avg = vec![0.0f64; n_items];
        item_avg[..self.n_items].copy_from_slice(&self.item_avg);
        for &i in &touched_items {
            let col = &item_entries[item_offsets[i]..item_offsets[i + 1]];
            item_avg[i] = if col.is_empty() {
                0.0
            } else {
                col.iter().map(|e| e.value).sum::<f64>() / col.len() as f64
            };
        }
        let global_avg = if user_entries.is_empty() {
            self.scale.midpoint()
        } else {
            // One linear pass in (user, item) order — the builder's `deduped` order.
            user_entries.iter().map(|e| e.value).sum::<f64>() / user_entries.len() as f64
        };

        let mut item_domain = vec![DomainId::SOURCE; n_items];
        item_domain[..self.n_items].copy_from_slice(&self.item_domain);
        for &(item, domain) in new_domains {
            item_domain[item.index()] = domain;
        }

        Ok(RatingMatrix {
            n_users,
            n_items,
            user_offsets,
            user_entries,
            item_offsets,
            item_entries,
            user_avg,
            item_avg,
            global_avg,
            item_domain,
            scale: self.scale,
        })
    }

    /// Splits the matrix view of a user's profile by domain: `(in_domain, out_of_domain)`.
    pub fn profile_by_domain(
        &self,
        user: UserId,
        domain: DomainId,
    ) -> (Vec<UserEntry>, Vec<UserEntry>) {
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for &e in self.user_profile(user) {
            if self.item_domain(e.item) == domain {
                inside.push(e);
            } else {
                outside.push(e);
            }
        }
        (inside, outside)
    }
}

/// On-disk codec for the matrix: both CSR views, the average caches, domains and
/// scale, in field order. Lives here (not in `codec.rs`) because the fields are
/// private to this module; decode reconstructs the struct verbatim, so a decoded
/// matrix is bit-identical (`PartialEq` over every field) to the encoded one.
impl xmap_store::Codec for RatingMatrix {
    fn enc(&self, e: &mut xmap_store::Encoder) {
        e.put_usize(self.n_users);
        e.put_usize(self.n_items);
        self.user_offsets.enc(e);
        self.user_entries.enc(e);
        self.item_offsets.enc(e);
        self.item_entries.enc(e);
        self.user_avg.enc(e);
        self.item_avg.enc(e);
        e.put_f64(self.global_avg);
        self.item_domain.enc(e);
        self.scale.enc(e);
    }

    fn dec(d: &mut xmap_store::Decoder<'_>) -> std::result::Result<Self, xmap_store::StoreError> {
        Ok(RatingMatrix {
            n_users: d.take_usize()?,
            n_items: d.take_usize()?,
            user_offsets: Vec::dec(d)?,
            user_entries: Vec::dec(d)?,
            item_offsets: Vec::dec(d)?,
            item_entries: Vec::dec(d)?,
            user_avg: Vec::dec(d)?,
            item_avg: Vec::dec(d)?,
            global_avg: d.take_f64()?,
            item_domain: Vec::dec(d)?,
            scale: RatingScale::dec(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RatingMatrix {
        let mut b = RatingMatrixBuilder::new();
        b.push_parts(0, 0, 5.0).unwrap();
        b.push_parts(0, 1, 3.0).unwrap();
        b.push_parts(1, 0, 4.0).unwrap();
        b.push_parts(1, 2, 2.0).unwrap();
        b.push_parts(2, 1, 1.0).unwrap();
        b.set_item_domain(ItemId(2), DomainId::TARGET);
        b.build().unwrap()
    }

    #[test]
    fn dimensions_and_counts() {
        let m = small();
        assert_eq!(m.n_users(), 3);
        assert_eq!(m.n_items(), 3);
        assert_eq!(m.n_ratings(), 5);
        assert!((m.density() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn profiles_are_sorted_and_consistent() {
        let m = small();
        let p0 = m.user_profile(UserId(0));
        assert_eq!(p0.len(), 2);
        assert!(p0[0].item < p0[1].item);
        let y0 = m.item_profile(ItemId(0));
        assert_eq!(y0.len(), 2);
        assert!(y0[0].user < y0[1].user);
        // every user-view rating appears in the item view
        for r in m.iter() {
            assert!(m
                .item_profile(r.item)
                .iter()
                .any(|e| e.user == r.user && e.value == r.value));
        }
    }

    #[test]
    fn a_profile_span_is_the_filter_of_the_profile_by_the_range() {
        let mut b = RatingMatrixBuilder::new();
        for item in [0u32, 2, 3, 7, 9] {
            b.push_parts(0, item, 3.0).unwrap();
        }
        let m = b.build().unwrap();
        let filtered = |keep: &dyn Fn(ItemId) -> bool| -> Vec<ItemId> {
            let row = m.user_profile(UserId(0));
            row.iter().map(|e| e.item).filter(|&i| keep(i)).collect()
        };
        let ids = |row: &[UserEntry]| row.iter().map(|e| e.item).collect::<Vec<_>>();
        for lo in 0..11u32 {
            for hi in 0..11u32 {
                let (lo, hi) = (ItemId(lo), ItemId(hi));
                let half_open = m.user_profile_in(UserId(0), lo..hi);
                assert_eq!(ids(half_open), filtered(&|i| lo <= i && i < hi));
                let closed = m.user_profile_in(UserId(0), lo..=hi);
                assert_eq!(ids(closed), filtered(&|i| lo <= i && i <= hi));
            }
        }
        let all = m.user_profile_in(UserId(0), ..=ItemId(u32::MAX));
        assert_eq!(ids(all), [0, 2, 3, 7, 9].map(ItemId));
        assert!(m.user_profile_in(UserId(5), ..).is_empty());
    }

    #[test]
    fn rating_lookup_and_averages() {
        let m = small();
        assert_eq!(m.rating(UserId(0), ItemId(1)), Some(3.0));
        assert_eq!(m.rating(UserId(2), ItemId(0)), None);
        assert!((m.user_average(UserId(0)) - 4.0).abs() < 1e-12);
        assert!((m.item_average(ItemId(0)) - 4.5).abs() < 1e-12);
        assert!((m.global_average() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_ids_fall_back_gracefully() {
        let m = small();
        assert!(m.user_profile(UserId(99)).is_empty());
        assert!(m.item_profile(ItemId(99)).is_empty());
        assert_eq!(m.user_average(UserId(99)), m.global_average());
        assert_eq!(m.item_average(ItemId(99)), m.global_average());
        assert_eq!(m.item_domain(ItemId(99)), DomainId::SOURCE);
    }

    #[test]
    fn duplicate_ratings_keep_latest_timestep() {
        let mut b = RatingMatrixBuilder::new();
        b.push_timed(0, 0, 2.0, 1).unwrap();
        b.push_timed(0, 0, 5.0, 9).unwrap();
        b.push_timed(0, 0, 3.0, 4).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.n_ratings(), 1);
        assert_eq!(m.rating(UserId(0), ItemId(0)), Some(5.0));
        assert_eq!(m.rating_timestep(UserId(0), ItemId(0)), Some(Timestep(9)));
    }

    #[test]
    fn empty_builder_errors_unless_dimensioned() {
        assert_eq!(
            RatingMatrixBuilder::new().build().unwrap_err(),
            CfError::EmptyMatrix
        );
        let m = RatingMatrixBuilder::new()
            .with_dimensions(2, 3)
            .build()
            .unwrap();
        assert_eq!(m.n_users(), 2);
        assert_eq!(m.n_items(), 3);
        assert_eq!(m.n_ratings(), 0);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn non_finite_ratings_rejected() {
        let mut b = RatingMatrixBuilder::new();
        let err = b.push_parts(0, 0, f64::NAN).unwrap_err();
        assert!(matches!(err, CfError::InvalidRating { .. }));
    }

    #[test]
    fn domains_and_overlap() {
        let m = small();
        assert_eq!(m.item_domain(ItemId(2)), DomainId::TARGET);
        assert_eq!(m.items_in_domain(DomainId::TARGET), vec![ItemId(2)]);
        assert_eq!(m.domains(), vec![DomainId::SOURCE, DomainId::TARGET]);
        // user 1 rated items in both domains; users 0 and 2 only in SOURCE
        assert_eq!(
            m.overlapping_users(&[DomainId::SOURCE, DomainId::TARGET]),
            vec![UserId(1)]
        );
        assert_eq!(m.overlapping_users(&[]), Vec::<UserId>::new());
    }

    #[test]
    fn filter_preserves_dimensions_and_domains() {
        let m = small();
        let only_high = m.filter(|r| r.value >= 4.0).unwrap();
        assert_eq!(only_high.n_users(), m.n_users());
        assert_eq!(only_high.n_items(), m.n_items());
        assert_eq!(only_high.n_ratings(), 2);
        assert_eq!(only_high.item_domain(ItemId(2)), DomainId::TARGET);
    }

    #[test]
    fn profile_by_domain_partitions_profile() {
        let m = small();
        let (inside, outside) = m.profile_by_domain(UserId(1), DomainId::TARGET);
        assert_eq!(inside.len(), 1);
        assert_eq!(outside.len(), 1);
        assert_eq!(inside[0].item, ItemId(2));
    }

    /// The delta oracle: the full rebuild `apply_delta` must match bit for bit — the
    /// old matrix's ratings pushed first (in iteration order), then the delta events.
    fn rebuild_with_delta(
        base: &RatingMatrix,
        delta: &[Rating],
        new_domains: &[(ItemId, DomainId)],
    ) -> RatingMatrix {
        let mut b = RatingMatrixBuilder::with_scale(base.scale())
            .with_dimensions(base.n_users(), base.n_items());
        for r in base.iter() {
            b.push(r).unwrap();
        }
        for &r in delta {
            b.push(r).unwrap();
        }
        for i in base.items() {
            b.set_item_domain(i, base.item_domain(i));
        }
        for &(i, d) in new_domains {
            b.set_item_domain(i, d);
        }
        b.build().unwrap()
    }

    #[test]
    fn apply_delta_matches_full_rebuild_on_update_insert_and_growth() {
        let base = small();
        // an update of an existing rating (newer timestep), a brand-new (user, item)
        // cell, a new user and a new item in one batch — both at the growth bound
        // (3 + 4 users, 3 + 4 + 1 items), unrated ids left behind them
        let delta = vec![
            Rating::at(UserId(0), ItemId(0), 2.0, Timestep(5)),
            Rating::at(UserId(2), ItemId(0), 4.0, Timestep(1)),
            Rating::at(UserId(6), ItemId(1), 5.0, Timestep(2)),
            Rating::at(UserId(1), ItemId(7), 3.0, Timestep(3)),
        ];
        let domains = vec![(ItemId(7), DomainId::TARGET)];
        let updated = base.apply_delta(&delta, &domains).unwrap();
        assert_eq!(updated, rebuild_with_delta(&base, &delta, &domains));
        assert_eq!(updated.n_users(), 7);
        assert_eq!(updated.n_items(), 8);
        assert_eq!(updated.rating(UserId(0), ItemId(0)), Some(2.0));
        assert_eq!(updated.item_domain(ItemId(7)), DomainId::TARGET);
        // untouched cells keep their exact bits
        assert_eq!(
            updated.rating(UserId(0), ItemId(1)).map(f64::to_bits),
            base.rating(UserId(0), ItemId(1)).map(f64::to_bits)
        );
    }

    #[test]
    fn apply_delta_empty_delta_is_identity() {
        let base = small();
        let updated = base.apply_delta(&[], &[]).unwrap();
        assert_eq!(updated, base);
    }

    #[test]
    fn apply_delta_keeps_stored_rating_when_it_is_newer() {
        let mut b = RatingMatrixBuilder::new();
        b.push_timed(0, 0, 5.0, 9).unwrap();
        let base = b.build().unwrap();
        // older delta timestep loses; equal timestep wins (delta is "pushed later")
        let older = base
            .apply_delta(&[Rating::at(UserId(0), ItemId(0), 1.0, Timestep(3))], &[])
            .unwrap();
        assert_eq!(older.rating(UserId(0), ItemId(0)), Some(5.0));
        let tied = base
            .apply_delta(&[Rating::at(UserId(0), ItemId(0), 1.0, Timestep(9))], &[])
            .unwrap();
        assert_eq!(tied.rating(UserId(0), ItemId(0)), Some(1.0));
    }

    #[test]
    fn apply_delta_repeated_updates_to_one_cell_keep_the_last_winner() {
        let base = small();
        let delta = vec![
            Rating::at(UserId(0), ItemId(0), 1.0, Timestep(4)),
            Rating::at(UserId(0), ItemId(0), 2.0, Timestep(4)),
            Rating::at(UserId(0), ItemId(0), 3.0, Timestep(2)),
        ];
        let updated = base.apply_delta(&delta, &[]).unwrap();
        assert_eq!(updated, rebuild_with_delta(&base, &delta, &[]));
        // timestep 4 wins over 2; among the two t=4 pushes the later one wins
        assert_eq!(updated.rating(UserId(0), ItemId(0)), Some(2.0));
        assert_eq!(updated.n_ratings(), base.n_ratings());
    }

    #[test]
    fn apply_delta_rejects_non_finite_values() {
        let base = small();
        let err = base
            .apply_delta(&[Rating::new(UserId(0), ItemId(0), f64::NAN)], &[])
            .unwrap_err();
        assert!(matches!(err, CfError::InvalidRating { .. }));
    }

    /// One rating event by `user` for `item`.
    fn event(user: u32, item: u32) -> [Rating; 1] {
        [Rating::at(UserId(user), ItemId(item), 3.0, Timestep(9))]
    }

    #[test]
    fn apply_delta_grows_users_by_at_most_its_events() {
        let base = small();
        let n_users = base.n_users() as u32;
        let grown = base.apply_delta(&event(n_users, 0), &[]).unwrap();
        assert_eq!(grown.n_users() as u32, n_users + 1);
        let err = base.apply_delta(&event(n_users + 1, 0), &[]).unwrap_err();
        assert_eq!(
            err,
            CfError::IdPastGrowthBound {
                max_user: Some(n_users + 1),
                max_item: Some(0),
                user_bound: base.n_users() + 1,
                item_bound: base.n_items() + 1,
            }
        );
        assert!(err.to_string().contains("can grow the matrix"), "{err}");
        assert!(base.apply_delta(&event(u32::MAX, 0), &[]).is_err());
    }

    #[test]
    fn apply_delta_grows_items_by_at_most_its_events() {
        let base = small();
        let n_items = base.n_items() as u32;
        let grown = base.apply_delta(&event(0, n_items), &[]).unwrap();
        assert_eq!(grown.n_items() as u32, n_items + 1);
        for past in [n_items + 1, u32::MAX] {
            let err = base.apply_delta(&event(0, past), &[]).unwrap_err();
            assert!(
                matches!(err, CfError::IdPastGrowthBound { max_item: Some(i), .. } if i == past),
                "{err}"
            );
        }
    }

    #[test]
    fn apply_delta_declarations_widen_the_item_bound_by_one_each() {
        let base = small();
        let n_items = base.n_items() as u32;
        let declare = |item: u32| [(ItemId(item), DomainId::TARGET)];
        // alone, a declaration may name item `n_items`; beside an event, `n_items + 1`
        let grown = base.apply_delta(&[], &declare(n_items)).unwrap();
        assert_eq!(grown.n_items() as u32, n_items + 1);
        let grown = base
            .apply_delta(&event(0, n_items + 1), &declare(n_items + 1))
            .unwrap();
        assert_eq!(grown.n_items() as u32, n_items + 2);
        assert_eq!(grown.item_domain(ItemId(n_items + 1)), DomainId::TARGET);
        for (events, declared) in [
            (&[][..], declare(n_items + 1)),
            (&event(0, 0)[..], declare(n_items + 2)),
            (&[][..], declare(u32::MAX)),
        ] {
            let err = base.apply_delta(events, &declared).unwrap_err();
            assert!(matches!(err, CfError::IdPastGrowthBound { .. }), "{err}");
        }
    }

    #[test]
    fn iter_round_trips_through_from_ratings() {
        let m = small();
        let mut b = RatingMatrixBuilder::new();
        for r in m.iter() {
            b.push(r).unwrap();
        }
        let m2 = b.build().unwrap();
        assert_eq!(m2.n_ratings(), m.n_ratings());
        for r in m.iter() {
            assert_eq!(m2.rating(r.user, r.item), Some(r.value));
        }
    }

    mod delta_props {
        use super::*;
        use proptest::prelude::*;

        fn matrix_from(ratings: &[(u32, u32, u32, u32)]) -> Option<RatingMatrix> {
            if ratings.is_empty() {
                return None;
            }
            let mut b = RatingMatrixBuilder::new();
            for &(u, i, v, t) in ratings {
                b.push_timed(u, i, v as f64, t).unwrap();
            }
            for i in 0..=ratings.iter().map(|r| r.1).max().unwrap() {
                b.set_item_domain(ItemId(i), DomainId((i % 2) as u16));
            }
            Some(b.build().unwrap())
        }

        /// Rating events with every id folded inside `base`'s growth bound for a delta
        /// of this many events (`check_delta_growth`), which stays inside the bound of
        /// any concatenation of such deltas.
        fn inside_growth_bound(
            base: &RatingMatrix,
            events: Vec<(u32, u32, u32, u32)>,
        ) -> Vec<Rating> {
            let users = (base.n_users() + events.len()) as u32;
            let items = (base.n_items() + events.len()) as u32;
            events
                .into_iter()
                .map(|(u, i, v, t)| {
                    Rating::at(UserId(u % users), ItemId(i % items), v as f64, Timestep(t))
                })
                .collect()
        }

        proptest! {
            /// The incremental merge is bit-identical to the full rebuild for random
            /// bases and random deltas (updates, inserts, duplicate delta keys, new
            /// users and new items all drawn from overlapping id ranges, folded inside
            /// the growth bound).
            #[test]
            fn apply_delta_is_bit_identical_to_full_rebuild(
                base in proptest::collection::vec((0u32..8, 0u32..10, 1u32..=5, 0u32..6), 1..120),
                delta in proptest::collection::vec((0u32..12, 0u32..14, 1u32..=5, 0u32..8), 0..40),
            ) {
                let base = matrix_from(&base).unwrap();
                let delta = inside_growth_bound(&base, delta);
                // declare a domain for every genuinely new item, like a real delta would
                let new_domains: Vec<(ItemId, DomainId)> = delta
                    .iter()
                    .map(|r| r.item)
                    .filter(|i| i.index() >= base.n_items())
                    .map(|i| (i, DomainId((i.0 % 2) as u16)))
                    .collect();
                let incremental = base.apply_delta(&delta, &new_domains).unwrap();
                let rebuilt = rebuild_with_delta(&base, &delta, &new_domains);
                prop_assert_eq!(&incremental, &rebuilt);
                // the averages must agree in bits, not merely within tolerance
                for u in incremental.users() {
                    prop_assert_eq!(
                        incremental.user_average(u).to_bits(),
                        rebuilt.user_average(u).to_bits()
                    );
                }
                for i in incremental.items() {
                    prop_assert_eq!(
                        incremental.item_average(i).to_bits(),
                        rebuilt.item_average(i).to_bits()
                    );
                }
                prop_assert_eq!(
                    incremental.global_average().to_bits(),
                    rebuilt.global_average().to_bits()
                );
            }

            /// The winner rule composes: 1–6 deltas applied one by one, their
            /// concatenation applied once, and the builder over the concatenated trace
            /// all give the same matrix (`PartialEq`: both views, averages, domains).
            /// The small id and timestep ranges (ids folded inside each delta's growth
            /// bound) make duplicate cells, descending and equal timesteps, new users
            /// and new items the common case; every delta
            /// declares the items it introduces and re-declares some existing items'
            /// current domain.
            #[test]
            fn deltas_applied_one_by_one_equal_their_concatenation_applied_once(
                base in proptest::collection::vec((0u32..8, 0u32..10, 1u32..=5, 0u32..6), 1..120),
                deltas in proptest::collection::vec(
                    (
                        proptest::collection::vec((0u32..12, 0u32..14, 1u32..=5, 0u32..8), 0..12),
                        proptest::collection::vec(0u32..14, 0..4),
                    ),
                    1..=6,
                ),
            ) {
                let base = matrix_from(&base).unwrap();
                let mut one_by_one = base.clone();
                let mut all_ratings: Vec<Rating> = Vec::new();
                let mut all_domains: Vec<(ItemId, DomainId)> = Vec::new();
                for (events, redeclared) in deltas {
                    let ratings = inside_growth_bound(&one_by_one, events);
                    let n_items = one_by_one.n_items();
                    let introduced = ratings
                        .iter()
                        .map(|r| r.item)
                        .filter(|i| i.index() >= n_items)
                        .map(|i| (i, DomainId((i.0 % 2) as u16)));
                    let restated = redeclared
                        .into_iter()
                        .map(ItemId)
                        .filter(|i| i.index() < n_items)
                        .map(|i| (i, one_by_one.item_domain(i)));
                    let domains: Vec<(ItemId, DomainId)> = introduced.chain(restated).collect();
                    one_by_one = one_by_one.apply_delta(&ratings, &domains).unwrap();
                    all_ratings.extend(ratings);
                    all_domains.extend(domains);
                }
                let at_once = base.apply_delta(&all_ratings, &all_domains).unwrap();
                prop_assert_eq!(&one_by_one, &at_once);
                prop_assert_eq!(
                    &at_once,
                    &rebuild_with_delta(&base, &all_ratings, &all_domains)
                );
            }
        }
    }
}
