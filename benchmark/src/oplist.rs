//! Seeded op-list generators.
//!
//! The workload seed decides the *order and choice* of operations, and
//! nothing else: every seed makes a workload do the same amount of work
//! over the same dataset (the datagen seed is separate and fixed), so
//! runs with different seeds stay comparable. The generator is the
//! benchmark's own, so a change to the product's RNG cannot move the
//! inputs.

/// SplitMix64: small, fast, and good enough to shuffle op lists.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one purpose (`stream`) of one workload seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias at these bounds
    /// is below 2^-40).
    pub fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded permutation of `0..n`: the order one `bi_power` pass runs
/// its bindings in, and the order a `bi_refresh` microbatch runs its
/// reads in.
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    SplitMix64::new(seed, stream).shuffle(&mut order);
    order
}

/// `k` distinct values drawn from `ids` (all of them when there are
/// fewer), in seeded order.
pub fn sample(seed: u64, stream: u64, ids: &[u64], k: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, stream);
    let mut pool = ids.to_vec();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// One short read: query number 1–7 and its key.
pub type ShortOp = (u8, u64);

/// `n` IS 1–7 requests: the query is drawn uniformly, the key from
/// `person_keys` for IS 1–3 and from `message_keys` for IS 4–7.
pub fn short_ops(seed: u64, person_keys: &[u64], message_keys: &[u64], n: usize) -> Vec<ShortOp> {
    let mut rng = SplitMix64::new(seed, 3);
    (0..n)
        .map(|_| {
            let query = 1 + rng.below(7) as u8;
            let keys = if query <= 3 { person_keys } else { message_keys };
            (query, keys[rng.below(keys.len())])
        })
        .collect()
}

/// Cuts `total` events into `parts` consecutive non-empty batches at
/// seeded points; returns the end offset of each batch. The events
/// replayed are the same for every seed, only the batch boundaries
/// move.
pub fn cuts(seed: u64, total: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1 && total >= parts, "need at least one event per batch");
    let mut rng = SplitMix64::new(seed, 4);
    // Choose parts-1 distinct interior cut points from 1..total.
    let mut points = std::collections::BTreeSet::new();
    while points.len() < parts - 1 {
        points.insert(1 + rng.below(total - 1));
    }
    points.into_iter().chain([total]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(42, 1, 200);
        assert_eq!(a, permutation(42, 1, 200));
        assert_ne!(a, permutation(43, 1, 200));
        assert_ne!(a, permutation(42, 2, 200));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_is_seeded_distinct_and_drawn_from_the_ids() {
        let ids: Vec<u64> = (0..5000).map(|i| i * 7 + 1).collect();
        let a = sample(42, 1, &ids, 1024);
        assert_eq!(a, sample(42, 1, &ids, 1024));
        assert_ne!(a, sample(7, 1, &ids, 1024));
        assert_eq!(a.len(), 1024);
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), 1024);
        assert!(a.iter().all(|id| ids.contains(id)));
        assert_eq!(sample(42, 1, &ids[..10], 1024).len(), 10);
    }

    #[test]
    fn short_ops_are_seeded_and_keyed_by_entity_kind() {
        let persons = [1u64, 2, 3];
        let messages = [100u64, 200, 300];
        let a = short_ops(42, &persons, &messages, 7000);
        assert_eq!(a, short_ops(42, &persons, &messages, 7000));
        assert_ne!(a, short_ops(43, &persons, &messages, 7000));
        for &(query, key) in &a {
            assert!((1..=7).contains(&query));
            assert_eq!(key >= 100, query >= 4, "IS {query} got key {key}");
        }
        for q in 1..=7u8 {
            let share = a.iter().filter(|(query, _)| *query == q).count();
            assert!((800..1200).contains(&share), "IS {q} drawn {share} times of 7000");
        }
    }

    #[test]
    fn cuts_are_seeded_increasing_and_cover_everything() {
        let a = cuts(42, 12_800, 64);
        assert_eq!(a, cuts(42, 12_800, 64));
        assert_ne!(a, cuts(43, 12_800, 64));
        assert_eq!(a.len(), 64);
        assert_eq!(*a.last().unwrap(), 12_800);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[0] >= 1);
        assert_eq!(cuts(1, 3, 3), vec![1, 2, 3]);
        assert_eq!(cuts(1, 9, 1), vec![9]);
    }
}
