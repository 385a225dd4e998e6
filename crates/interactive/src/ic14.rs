//! IC 14 — *Trusted connection paths*.
//!
//! All shortest `knows` paths between two Persons, each weighted by the
//! interactions between consecutive pairs: a direct reply to a Post
//! contributes 1.0, a direct reply to a Comment 0.5 (counted both
//! ways). Paths are returned by weight descending.

use snb_engine::traverse::all_shortest_paths;
use snb_store::{Ix, Store, NONE};

snb_core::query_params! {
    /// Parameters of IC 14.
    #[derive(Copy)]
    pub struct Params {
        /// First person (raw id).
        person1_id: u64 = "person1Id",
        /// Second person (raw id).
        person2_id: u64 = "person2Id",
    }
}

/// One result row of IC 14.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Person ids along the path.
    pub person_ids_in_path: Vec<u64>,
    /// Total path weight.
    pub path_weight: f64,
}

/// The interaction weight between a pair of persons.
fn pair_weight(store: &Store, a: Ix, b: Ix) -> f64 {
    let mut weight = 0.0;
    for (x, y) in [(a, b), (b, a)] {
        for c in store.person_messages.targets_of(x) {
            let parent = store.messages.reply_of[c as usize];
            if parent != NONE && store.messages.creator[parent as usize] == y {
                weight += if store.messages.is_post(parent) { 1.0 } else { 0.5 };
            }
        }
    }
    weight
}

/// Runs IC 14.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    let mut rows: Vec<Row> = all_shortest_paths(store, snb_engine::QueryMetrics::sink(), a, b)
        .into_iter()
        .map(|path| Row {
            path_weight: path.windows(2).map(|w| pair_weight(store, w[0], w[1])).sum(),
            person_ids_in_path: path.iter().map(|&p| store.persons.id[p as usize]).collect(),
        })
        .collect();
    rows.sort_by(|x, y| {
        y.path_weight
            .partial_cmp(&x.path_weight)
            .expect("weights are finite")
            .then_with(|| x.person_ids_in_path.cmp(&y.person_ids_in_path))
    });
    rows
}

/// Naive reference: pair weights recomputed through a full message
/// scan per path edge.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    let scan_weight = |x: Ix, y: Ix| -> f64 {
        let mut weight = 0.0;
        for c in 0..store.messages.len() as Ix {
            let parent = store.messages.reply_of[c as usize];
            if parent == NONE {
                continue;
            }
            let (cc, pc) =
                (store.messages.creator[c as usize], store.messages.creator[parent as usize]);
            if (cc == x && pc == y) || (cc == y && pc == x) {
                weight += if store.messages.is_post(parent) { 1.0 } else { 0.5 };
            }
        }
        weight
    };
    let mut rows: Vec<Row> = all_shortest_paths(store, snb_engine::QueryMetrics::sink(), a, b)
        .into_iter()
        .map(|path| Row {
            path_weight: path.windows(2).map(|w| scan_weight(w[0], w[1])).sum(),
            person_ids_in_path: path.iter().map(|&p| store.persons.id[p as usize]).collect(),
        })
        .collect();
    rows.sort_by(|x, y| {
        y.path_weight
            .partial_cmp(&x.path_weight)
            .expect("weights are finite")
            .then_with(|| x.person_ids_in_path.cmp(&y.person_ids_in_path))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::store;
    use snb_engine::traverse::shortest_path_len;

    fn pair_at_distance(s: &Store, d: i32) -> Option<(u64, u64)> {
        for a in 0..s.persons.len() as Ix {
            for b in a + 1..s.persons.len() as Ix {
                if shortest_path_len(s, snb_engine::QueryMetrics::sink(), a, b) == d {
                    return Some((s.persons.id[a as usize], s.persons.id[b as usize]));
                }
            }
        }
        None
    }

    #[test]
    fn paths_have_uniform_shortest_length() {
        let s = store();
        let (p1, p2) = pair_at_distance(s, 2).expect("pair at distance 2");
        let rows = run(s, &Params { person1_id: p1, person2_id: p2 });
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.person_ids_in_path.len(), 3);
            assert_eq!(r.person_ids_in_path[0], p1);
            assert_eq!(*r.person_ids_in_path.last().unwrap(), p2);
        }
    }

    #[test]
    fn weights_descend_and_are_half_integral() {
        let s = store();
        let (p1, p2) = pair_at_distance(s, 2).unwrap();
        let rows = run(s, &Params { person1_id: p1, person2_id: p2 });
        for w in rows.windows(2) {
            assert!(w[0].path_weight >= w[1].path_weight);
        }
        for r in &rows {
            let doubled = r.path_weight * 2.0;
            assert!((doubled - doubled.round()).abs() < 1e-9, "weight not multiple of 0.5");
        }
    }

    #[test]
    fn no_rows_for_unreachable() {
        let s = store();
        if let Some(lonely) = (0..s.persons.len() as Ix).find(|&p| s.knows.degree(p) == 0) {
            let rows = run(
                s,
                &Params {
                    person1_id: s.persons.id[lonely as usize],
                    person2_id: s.persons.id[(lonely as usize + 1) % s.persons.len()],
                },
            );
            assert!(rows.is_empty());
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let (p1, p2) = pair_at_distance(s, 2).unwrap();
        let p = Params { person1_id: p1, person2_id: p2 };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
