//! Everything the program is fed, made from `--seed` and nothing else: the
//! `xmap48k` trace parameters, the Zipf request stream and the rating deltas.
//!
//! The generators use their own SplitMix64 so the inputs cannot drift with the
//! workspace's vendored `rand`; an FNV-64 hash of the op sequence is recorded
//! with every result so two commits can show they ran the same inputs.

use xmap_cf::{DomainId, ItemId, UserId};
use xmap_core::RatingDelta;
use xmap_dataset::synthetic::CrossDomainConfig;

pub const N_SOURCE_ITEMS: u32 = 1000;
pub const N_TARGET_ITEMS: u32 = 1000;
pub const N_SOURCE_ONLY_USERS: u32 = 1200;
pub const N_TARGET_ONLY_USERS: u32 = 1200;
pub const N_OVERLAP_USERS: u32 = 800;
/// Ops in the request stream; the workloads wrap around it.
pub const STREAM_LEN: usize = 1 << 18;
/// Top-N of every `recommend`.
pub const TOP_N: usize = 10;
pub const DELTA_RATINGS: usize = 8;
/// Delta `i` declares a new target item when `i % NEW_ITEM_EVERY == NEW_ITEM_PHASE`.
/// The phase is inside the first six deltas so `lifecycle` replays one too.
pub const NEW_ITEM_EVERY: u64 = 16;
pub const NEW_ITEM_PHASE: u64 = 2;

/// The `xmap48k` trace: 48 000 ratings, both domains, a popularity head.
pub fn trace_config(seed: u64) -> CrossDomainConfig {
    CrossDomainConfig {
        n_source_items: N_SOURCE_ITEMS as usize,
        n_target_items: N_TARGET_ITEMS as usize,
        n_source_only_users: N_SOURCE_ONLY_USERS as usize,
        n_target_only_users: N_TARGET_ONLY_USERS as usize,
        n_overlap_users: N_OVERLAP_USERS as usize,
        ratings_per_user: 12,
        latent_dim: 3,
        noise: 0.25,
        seed,
        popularity_skew: 1.1,
    }
}

/// The 2000 serveable users — source-only then overlap, the paper's cold-start
/// population — in Zipf rank order. The order is fixed, not shuffled by the
/// seed, so the head of every seed's stream has the same kind of user.
pub fn serveable_users() -> Vec<UserId> {
    let overlap_start = N_SOURCE_ONLY_USERS + N_TARGET_ONLY_USERS;
    (0..N_SOURCE_ONLY_USERS)
        .chain(overlap_start..overlap_start + N_OVERLAP_USERS)
        .map(UserId)
        .collect()
}

/// The 64-user probe set whose answers are compared bit for bit: 32 source-only
/// and 32 overlap users, evenly strided through their groups.
pub fn probe_users() -> Vec<UserId> {
    let overlap_start = N_SOURCE_ONLY_USERS + N_TARGET_ONLY_USERS;
    let source_only = (0..32).map(|i| i * (N_SOURCE_ONLY_USERS / 32));
    let overlap = (0..32).map(|i| overlap_start + i * (N_OVERLAP_USERS / 32));
    source_only.chain(overlap).map(UserId).collect()
}

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Recommend(UserId),
    Predict(UserId, ItemId),
}

/// The read stream: users Zipf(1.0) over [`serveable_users`], 90 % `recommend`,
/// 10 % `predict` with the item uniform over the target domain.
pub fn request_stream(seed: u64, len: usize) -> Vec<Op> {
    let users = serveable_users();
    let zipf = Zipf::new(users.len(), 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0001);
    (0..len)
        .map(|_| {
            let user = users[zipf.sample(&mut rng)];
            if rng.below(10) == 0 {
                let item = N_SOURCE_ITEMS + rng.below(u64::from(N_TARGET_ITEMS)) as u32;
                Op::Predict(user, ItemId(item))
            } else {
                Op::Recommend(user)
            }
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over a sequence of words, each fed as 8 little-endian bytes.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn stream_hash(ops: &[Op]) -> u64 {
    let mut h = Fnv64::new();
    for op in ops {
        match *op {
            Op::Recommend(u) => h.word(u64::from(u.0)),
            Op::Predict(u, i) => h.word(1 << 63 | u64::from(i.0) << 32 | u64::from(u.0)),
        }
    }
    h.finish()
}

/// Hash of a delta sequence, folded into the workload's stream hash.
pub fn delta_hash(deltas: &[RatingDelta]) -> u64 {
    let mut h = Fnv64::new();
    for d in deltas {
        for r in d.ratings() {
            h.word(u64::from(r.user.0) << 32 | u64::from(r.item.0));
            h.word(r.value.to_bits());
        }
        for &(item, _) in d.item_domains() {
            h.word(1 << 63 | u64::from(item.0));
        }
    }
    h.finish()
}

/// The write stream: delta `i` holds eight ratings by Zipf-drawn serveable users,
/// 75 % on target items and 25 % on source items, timestamped after the trace.
/// Every sixteenth delta declares one new target item and rates it first.
pub struct DeltaGen {
    rng: SplitMix64,
    zipf: Zipf,
    users: Vec<UserId>,
    index: u64,
    next_new_item: u32,
}

impl DeltaGen {
    pub fn new(seed: u64) -> Self {
        let users = serveable_users();
        DeltaGen {
            rng: SplitMix64::new(seed ^ 0x5EED_0002),
            zipf: Zipf::new(users.len(), 1.0),
            users,
            index: 0,
            next_new_item: N_SOURCE_ITEMS + N_TARGET_ITEMS,
        }
    }

    pub fn next_delta(&mut self) -> RatingDelta {
        let mut delta = RatingDelta::new();
        let timestep = 100 + self.index as u32;
        let declares = self.index % NEW_ITEM_EVERY == NEW_ITEM_PHASE;
        for slot in 0..DELTA_RATINGS {
            let user = self.users[self.zipf.sample(&mut self.rng)];
            let item = if declares && slot == 0 {
                let item = self.next_new_item;
                self.next_new_item += 1;
                delta.declare_item(ItemId(item), DomainId::TARGET);
                item
            } else if self.rng.below(4) == 0 {
                self.rng.below(u64::from(N_SOURCE_ITEMS)) as u32
            } else {
                N_SOURCE_ITEMS + self.rng.below(u64::from(N_TARGET_ITEMS)) as u32
            };
            let value = 1.0 + self.rng.below(5) as f64;
            delta.push_timed(user.0, item, value, timestep);
        }
        self.index += 1;
        delta
    }

    pub fn take(&mut self, n: usize) -> Vec<RatingDelta> {
        (0..n).map(|_| self.next_delta()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_carries_the_expected_mass() {
        let zipf = Zipf::new(2000, 1.0);
        let mut rng = SplitMix64::new(7);
        let n = 200_000;
        let rank0 = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count();
        // 1 / H_2000 = 0.1222
        let share = rank0 as f64 / n as f64;
        assert!((share - 0.1222).abs() < 0.005, "rank-0 share {share}");
    }

    #[test]
    fn request_stream_repeats_for_a_seed_and_moves_with_it() {
        let a = request_stream(19, 4096);
        assert_eq!(a, request_stream(19, 4096));
        assert_eq!(stream_hash(&a), stream_hash(&request_stream(19, 4096)));
        assert_ne!(stream_hash(&a), stream_hash(&request_stream(23, 4096)));
        let predicts = a.iter().filter(|op| matches!(op, Op::Predict(..))).count();
        assert!(
            (300..520).contains(&predicts),
            "predict share off: {predicts}"
        );
        let serveable = serveable_users();
        for op in &a {
            match *op {
                Op::Recommend(u) => assert!(serveable.contains(&u)),
                Op::Predict(u, i) => {
                    assert!(serveable.contains(&u));
                    assert!((N_SOURCE_ITEMS..N_SOURCE_ITEMS + N_TARGET_ITEMS).contains(&i.0));
                }
            }
        }
    }

    #[test]
    fn deltas_repeat_for_a_seed_and_declare_every_sixteenth() {
        let a = DeltaGen::new(19).take(40);
        let b = DeltaGen::new(19).take(40);
        assert_eq!(delta_hash(&a), delta_hash(&b));
        assert_ne!(delta_hash(&a), delta_hash(&DeltaGen::new(23).take(40)));
        for (i, d) in a.iter().enumerate() {
            assert_eq!(d.len(), DELTA_RATINGS);
            let declares = i as u64 % NEW_ITEM_EVERY == NEW_ITEM_PHASE;
            assert_eq!(d.item_domains().len(), usize::from(declares), "delta {i}");
        }
        assert_eq!(a[2].item_domains()[0].0, ItemId(2000));
        assert_eq!(a[18].item_domains()[0].0, ItemId(2001));
        assert_eq!(a[2].ratings()[0].item, ItemId(2000));
    }

    #[test]
    fn probe_set_is_64_distinct_serveable_users() {
        let probes = probe_users();
        let serveable = serveable_users();
        assert_eq!(probes.len(), 64);
        for (i, p) in probes.iter().enumerate() {
            assert!(serveable.contains(p));
            assert!(!probes[..i].contains(p));
        }
    }
}
