//! IC 13 — *Single shortest path*.
//!
//! The length of the shortest `knows` path between two Persons:
//! `-1` when unreachable, `0` when both are the same person.

use snb_engine::traverse::shortest_path_len;
use snb_store::Store;

snb_core::query_params! {
    /// Parameters of IC 13.
    #[derive(Copy)]
    pub struct Params {
        /// First person (raw id).
        person1_id: u64 = "person1Id",
        /// Second person (raw id).
        person2_id: u64 = "person2Id",
    }
}

/// The single result row of IC 13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// Shortest path length (see module docs for the sentinel values).
    pub shortest_path_length: i32,
}

/// Runs IC 13.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    vec![Row {
        shortest_path_length: shortest_path_len(store, snb_engine::QueryMetrics::sink(), a, b),
    }]
}

/// Naive reference: plain single-direction layered BFS (the optimized
/// engine uses bidirectional search).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    if a == b {
        return vec![Row { shortest_path_length: 0 }];
    }
    let mut visited = rustc_hash::FxHashSet::default();
    visited.insert(a);
    let mut frontier = vec![a];
    let mut depth = 0;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for v in store.knows.targets_of(u) {
                if v == b {
                    return vec![Row { shortest_path_length: depth }];
                }
                if visited.insert(v) {
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    vec![Row { shortest_path_length: -1 }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::store;

    #[test]
    fn same_person_is_zero() {
        let s = store();
        let id = s.persons.id[0];
        assert_eq!(
            run(s, &Params { person1_id: id, person2_id: id }),
            vec![Row { shortest_path_length: 0 }]
        );
    }

    #[test]
    fn direct_friends_are_one() {
        let s = store();
        let a = (0..s.persons.len() as u32).find(|&p| s.knows.degree(p) > 0).unwrap();
        let b = s.knows.targets_of(a).next().unwrap();
        let rows = run(
            s,
            &Params { person1_id: s.persons.id[a as usize], person2_id: s.persons.id[b as usize] },
        );
        assert_eq!(rows[0].shortest_path_length, 1);
    }

    #[test]
    fn symmetric() {
        let s = store();
        let (a, b) = (s.persons.id[3], s.persons.id[90]);
        let ab = run(s, &Params { person1_id: a, person2_id: b });
        let ba = run(s, &Params { person1_id: b, person2_id: a });
        assert_eq!(ab, ba);
    }

    #[test]
    fn unknown_person_yields_empty() {
        let s = store();
        assert!(run(s, &Params { person1_id: 1, person2_id: 77_777_777 }).is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        for (a, b) in [(0usize, 50usize), (3, 90), (7, 7)] {
            let p = Params { person1_id: s.persons.id[a], person2_id: s.persons.id[b] };
            assert_eq!(run(s, &p), run_naive(s, &p), "{a}->{b}");
        }
    }
}
