//! BI 22 — *International dialog* (reconstructed).
//!
//! For person pairs across two countries, score their interaction:
//! `4` per direct reply in either direction, `10` if they know each
//! other, `1` per like in either direction. For each City of the first
//! country, report the top-scoring pair involving a resident of that
//! city.
//!
//! Reconstruction note: the supplied extraction elides this query; the
//! weights (reply 4, knows 10, like 1) and the per-city maximisation
//! follow the official v0.3.x shape, documented here because exact
//! constants may differ from the official text.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store, NONE};

snb_core::query_params! {
    /// Parameters of BI 22.
    pub struct Params {
        /// First country name (cities reported come from here).
        country1: String = "country1",
        /// Second country name.
        country2: String = "country2",
    }
}

/// One result row of BI 22.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person of country 1.
    pub person1_id: u64,
    /// Person of country 2.
    pub person2_id: u64,
    /// City (of person 1) this row represents.
    pub city1_name: String,
    /// Interaction score.
    pub score: u64,
}

const LIMIT: usize = 100;
const W_REPLY: u64 = 4;
const W_KNOWS: u64 = 10;
const W_LIKE: u64 = 1;

/// A scored pair `(country-1 person, country-2 person, score)`.
type Pair = (Ix, Ix, u64);

fn sort_key(store: &Store, &(a, b, score): &Pair) -> (std::cmp::Reverse<u64>, u64, u64) {
    (std::cmp::Reverse(score), store.persons.id[a as usize], store.persons.id[b as usize])
}

fn to_row(store: &Store, (a, b, score): Pair) -> Row {
    let city = store.persons.city[a as usize];
    Row {
        person1_id: store.persons.id[a as usize],
        person2_id: store.persons.id[b as usize],
        city1_name: store.places.name[city as usize].to_string(),
        score,
    }
}

/// Accumulates pairwise scores between residents of the two countries,
/// starting from the country populations (CP-2.1: the country filter is
/// far more selective than scanning every message/like/edge). The two
/// countries must be distinct; equal countries yield no pairs.
fn pair_scores(store: &Store, ctx: &QueryContext, c1: Ix, c2: Ix) -> FxHashMap<(Ix, Ix), u64> {
    let mut scores: FxHashMap<(Ix, Ix), u64> = FxHashMap::default();
    if c1 == c2 {
        return scores;
    }
    let merge_into = |into: &mut FxHashMap<(Ix, Ix), u64>, from: FxHashMap<(Ix, Ix), u64>| {
        for (k, w) in from {
            *into.entry(k).or_insert(0) += w;
        }
    };
    // Outbound actions of each side toward the other; the key is always
    // (country1 person, country2 person). Each side's residents fan out
    // as morsels; per-pair weights are additive, so the merge order is
    // immaterial to the result.
    for (home, other, swapped) in [(c1, c2, false), (c2, c1, true)] {
        let residents: Vec<Ix> = store.persons_in_country(home).collect();
        let partial = ctx.par_map_reduce(
            residents.len(),
            FxHashMap::<(Ix, Ix), u64>::default,
            |acc, range| {
                for &a in &residents[range] {
                    let add = |b: Ix, w: u64, acc: &mut FxHashMap<(Ix, Ix), u64>| {
                        let key = if swapped { (b, a) } else { (a, b) };
                        *acc.entry(key).or_insert(0) += w;
                    };
                    for c in store.person_messages.targets_of(a) {
                        let parent = store.messages.reply_of[c as usize];
                        if parent == NONE {
                            continue;
                        }
                        let b = store.messages.creator[parent as usize];
                        if store.person_country(b) == other {
                            add(b, W_REPLY, acc);
                        }
                    }
                    for (m, _) in store.person_likes.neighbors(a) {
                        let b = store.messages.creator[m as usize];
                        if store.person_country(b) == other {
                            add(b, W_LIKE, acc);
                        }
                    }
                }
            },
            merge_into,
        );
        merge_into(&mut scores, partial);
    }
    // Friendships: iterate only country1's residents.
    for a in store.persons_in_country(c1) {
        for b in store.knows.targets_of(a) {
            if store.person_country(b) == c2 {
                *scores.entry((a, b)).or_insert(0) += W_KNOWS;
            }
        }
    }
    scores
}

fn best_pairs(store: &Store, scores: FxHashMap<(Ix, Ix), u64>) -> Vec<Pair> {
    // Best pair per city of country1.
    let mut best: FxHashMap<Ix, Pair> = FxHashMap::default();
    let mut entries: Vec<((Ix, Ix), u64)> = scores.into_iter().collect();
    // Deterministic iteration for tie handling: lowest ids win ties.
    entries
        .sort_by_key(|&((a, b), _)| (store.persons.id[a as usize], store.persons.id[b as usize]));
    for ((a, b), score) in entries {
        let city = store.persons.city[a as usize];
        match best.get(&city) {
            Some(cur) if cur.2 >= score => {}
            _ => {
                best.insert(city, (a, b, score));
            }
        }
    }
    best.into_values().collect()
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.country_by_name(&params.country1), store.country_by_name(&params.country2))
    else {
        return Vec::new();
    };
    let mut tk = TopK::new(LIMIT);
    for pair in best_pairs(store, pair_scores(store, ctx, c1, c2)) {
        tk.offer(sort_key(store, &pair), pair);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, pair| to_row(store, pair))
}

/// Naive reference: scores every candidate pair by direct probing.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.country_by_name(&params.country1), store.country_by_name(&params.country2))
    else {
        return Vec::new();
    };
    let p1: Vec<Ix> = store.persons_in_country(c1).collect();
    let p2: Vec<Ix> = store.persons_in_country(c2).collect();
    let mut scores: FxHashMap<(Ix, Ix), u64> = FxHashMap::default();
    for &a in &p1 {
        for &b in &p2 {
            let mut score = 0u64;
            if store.knows.contains(a, b) {
                score += W_KNOWS;
            }
            for (who, other) in [(a, b), (b, a)] {
                // Replies who -> other.
                for c in store.person_messages.targets_of(who) {
                    let parent = store.messages.reply_of[c as usize];
                    if parent != NONE && store.messages.creator[parent as usize] == other {
                        score += W_REPLY;
                    }
                }
                // Likes who -> other.
                for (m, _) in store.person_likes.neighbors(who) {
                    if store.messages.creator[m as usize] == other {
                        score += W_LIKE;
                    }
                }
            }
            if score > 0 {
                scores.insert((a, b), score);
            }
        }
    }
    let items: Vec<_> = best_pairs(store, scores)
        .into_iter()
        .map(|pair| (sort_key(store, &pair), to_row(store, pair)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { country1: "China".into(), country2: "India".into() }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
    }

    #[test]
    fn at_most_one_row_per_city() {
        let s = testutil::store();
        let rows = run(s, &params());
        let mut cities: Vec<&str> = rows.iter().map(|r| r.city1_name.as_str()).collect();
        let before = cities.len();
        cities.sort_unstable();
        cities.dedup();
        assert_eq!(before, cities.len());
    }

    #[test]
    fn persons_on_correct_sides() {
        let s = testutil::store();
        let c1 = s.country_by_name("China").unwrap();
        let c2 = s.country_by_name("India").unwrap();
        for r in run(s, &params()) {
            let a = s.person(r.person1_id).unwrap();
            let b = s.person(r.person2_id).unwrap();
            assert_eq!(s.person_country(a), c1);
            assert_eq!(s.person_country(b), c2);
            assert!(r.score > 0);
        }
    }

    #[test]
    fn swapping_countries_mirrors_pairs() {
        let s = testutil::store();
        let ab: u64 = run(s, &params()).iter().map(|r| r.score).sum();
        let ba: u64 = run(s, &Params { country1: "India".into(), country2: "China".into() })
            .iter()
            .map(|r| r.score)
            .sum();
        // Not necessarily equal (per-city maximisation differs) but both
        // must be derived from the same symmetric pair scores; a crude
        // sanity bound: both zero or both positive.
        assert_eq!(ab > 0, ba > 0);
    }
}
