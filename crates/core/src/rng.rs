//! Deterministic pseudo-random number generation.
//!
//! Datagen's determinism guarantee (spec §2.3.3) requires that the same
//! seed produce the same dataset regardless of thread count. We achieve
//! this by deriving an independent generator per `(seed, entity id,
//! stream tag)` triple: no generator state is ever shared across work
//! items, so how work is split over threads cannot change the
//! output.
//!
//! The generator is xoshiro256** seeded through splitmix64 — both public
//! domain algorithms with well-studied statistical quality, implemented
//! here directly so the output is stable across dependency upgrades.

/// Advances a splitmix64 state and returns the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a single 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// Creates a generator for a derived stream: `(seed, entity, tag)`.
    ///
    /// Each datagen pass uses a distinct `tag`, and each entity its own
    /// `entity` value, so streams never overlap no matter how generation
    /// is scheduled.
    pub fn derive(seed: u64, entity: u64, tag: u64) -> Self {
        // Mix the three inputs through splitmix so nearby (entity, tag)
        // pairs land in unrelated states.
        let mut sm = seed ^ 0xA076_1D64_78BD_642F;
        let a = splitmix64(&mut sm);
        let mut sm2 = entity.wrapping_mul(0xE703_7ED1_A0B4_28DB) ^ a;
        let b = splitmix64(&mut sm2);
        let mut sm3 = tag.wrapping_mul(0x8EBC_6AF0_9C88_C6E3) ^ b;
        Rng::new(splitmix64(&mut sm3))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.next_bounded(span) as i64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_bounded(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Geometric distribution on `{0, 1, 2, ...}` with success
    /// probability `p` (the spec's window-distance distribution for
    /// `knows`-edge selection uses this shape).
    pub fn geometric(&mut self, p: f64) -> u64 {
        debug_assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Chooses an element of a slice uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k <= n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= n);
        if k * 3 >= n {
            // Dense case: shuffle a full index vector and truncate.
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all
        } else {
            // Sparse case: rejection sample into a small set.
            let mut seen = Vec::with_capacity(k);
            while seen.len() < k {
                let c = self.index(n);
                if !seen.contains(&c) {
                    seen.push(c);
                }
            }
            seen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Published reference values for seed 1234567.
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
        assert_eq!(splitmix64(&mut s), 9817491932198370423);
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::derive(7, 1, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::derive(7, 2, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::derive(7, 1, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut r = Rng::new(99);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.next_bounded(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_i64_inclusive_bounds() {
        let mut r = Rng::new(3);
        let mut hit_lo = false;
        let mut hit_hi = false;
        for _ in 0..10_000 {
            let v = r.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            hit_lo |= v == -2;
            hit_hi |= v == 2;
        }
        assert!(hit_lo && hit_hi);
    }

    #[test]
    fn geometric_mean_approximates_theory() {
        let mut r = Rng::new(11);
        let p = 0.25;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!((mean - expected).abs() < 0.15, "mean {mean} vs {expected}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input ordered");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::new(21);
        for &(n, k) in &[(10usize, 10usize), (100, 5), (50, 25), (1, 1), (5, 0)] {
            let s = r.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), k, "duplicates for n={n} k={k}");
            assert!(s.iter().all(|&i| i < n));
        }
    }
}
