//! BI 25 — *Trusted connection paths* (reconstructed).
//!
//! Enumerate all (unweighted) shortest paths between two Persons over
//! `knows` and weight each path by the interactions between consecutive
//! pairs: a direct reply to a Post contributes 1.0, a direct reply to a
//! Comment 0.5 — counting only messages whose thread lives in a Forum
//! created within `[start_date, end_date]`. Paths are returned ordered
//! by weight descending.

use snb_core::Date;
use snb_engine::traverse::all_shortest_paths;
use snb_engine::QueryContext;
use snb_store::{Ix, Store, NONE};

snb_core::query_params! {
    /// Parameters of BI 25.
    pub struct Params {
        /// First endpoint (raw person id).
        person1_id: u64 = "person1Id",
        /// Second endpoint (raw person id).
        person2_id: u64 = "person2Id",
        /// Forum window start (inclusive).
        start_date: Date = "startDate",
        /// Forum window end (inclusive).
        end_date: Date = "endDate",
    }
}

/// One result row of BI 25.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Person ids along the path, from person 1 to person 2.
    pub person_ids_in_path: Vec<u64>,
    /// Total path weight.
    pub path_weight: f64,
}

/// Interaction weight between two persons (order-insensitive): replies
/// by either to the other's posts (1.0) and comments (0.5), restricted
/// to threads in forums created inside the window.
fn pair_weight(store: &Store, a: Ix, b: Ix, lo: snb_core::DateTime, hi: snb_core::DateTime) -> f64 {
    let mut weight = 0.0;
    for (x, y) in [(a, b), (b, a)] {
        for c in store.person_messages.targets_of(x) {
            let parent = store.messages.reply_of[c as usize];
            if parent == NONE || store.messages.creator[parent as usize] != y {
                continue;
            }
            let forum = store.thread_forum(c);
            if forum == NONE {
                continue;
            }
            let created = store.forums.creation_date[forum as usize];
            if created < lo || created >= hi {
                continue;
            }
            weight += if store.messages.is_post(parent) { 1.0 } else { 0.5 };
        }
    }
    weight
}

/// Shared core: enumerate shortest paths, weight them, sort by weight
/// descending (ties by path sequence ascending for determinism). Each
/// path's weight is computed wholly inside one morsel, so the per-path
/// f64 summation order matches the sequential evaluation exactly.
fn paths_with_weights(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    let lo = params.start_date.at_midnight();
    let hi = params.end_date.plus_days(1).at_midnight();
    let paths = all_shortest_paths(store, ctx.metrics(), a, b);
    let mut rows: Vec<Row> = ctx.par_scan(paths.len(), |out, range| {
        for path in &paths[range] {
            let weight: f64 = path.windows(2).map(|w| pair_weight(store, w[0], w[1], lo, hi)).sum();
            out.push(Row {
                person_ids_in_path: path.iter().map(|&p| store.persons.id[p as usize]).collect(),
                path_weight: weight,
            });
        }
    });
    rows.sort_by(|x, y| {
        y.path_weight
            .partial_cmp(&x.path_weight)
            .expect("weights are finite")
            .then_with(|| x.person_ids_in_path.cmp(&y.person_ids_in_path))
    });
    rows
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    paths_with_weights(store, ctx, params)
}

/// Naive reference: recomputes each pair weight through a full message
/// scan instead of the creator index.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(a), Ok(b)) = (store.person(params.person1_id), store.person(params.person2_id)) else {
        return Vec::new();
    };
    let lo = params.start_date.at_midnight();
    let hi = params.end_date.plus_days(1).at_midnight();
    let paths = all_shortest_paths(store, snb_engine::QueryMetrics::sink(), a, b);
    let mut rows: Vec<Row> = paths
        .into_iter()
        .map(|path| {
            let mut weight = 0.0;
            for w in path.windows(2) {
                for c in 0..store.messages.len() as Ix {
                    let parent = store.messages.reply_of[c as usize];
                    if parent == NONE {
                        continue;
                    }
                    let (cc, pc) = (
                        store.messages.creator[c as usize],
                        store.messages.creator[parent as usize],
                    );
                    if !((cc == w[0] && pc == w[1]) || (cc == w[1] && pc == w[0])) {
                        continue;
                    }
                    let forum = store.thread_forum(c);
                    let created = store.forums.creation_date[forum as usize];
                    if created < lo || created >= hi {
                        continue;
                    }
                    weight += if store.messages.is_post(parent) { 1.0 } else { 0.5 };
                }
            }
            Row {
                person_ids_in_path: path.iter().map(|&p| store.persons.id[p as usize]).collect(),
                path_weight: weight,
            }
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
    use crate::common::testutil;
    use snb_engine::traverse::shortest_path_len;

    fn connected_pair(s: &Store) -> (u64, u64) {
        // Find two persons at distance 2-3 for an interesting path set.
        for a in 0..s.persons.len() as Ix {
            for b in (a + 1..s.persons.len() as Ix).rev() {
                let d = shortest_path_len(s, snb_engine::QueryMetrics::sink(), a, b);
                if (2..=3).contains(&d) {
                    return (s.persons.id[a as usize], s.persons.id[b as usize]);
                }
            }
        }
        panic!("no mid-distance pair found");
    }

    fn params(s: &Store) -> Params {
        let (p1, p2) = connected_pair(s);
        Params {
            person1_id: p1,
            person2_id: p2,
            start_date: Date::from_ymd(2010, 1, 1),
            end_date: Date::from_ymd(2012, 12, 31),
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = params(s);
        assert_eq!(run(s, &p), run_naive(s, &p));
    }

    #[test]
    fn paths_are_shortest_and_endpoints_correct() {
        let s = testutil::store();
        let p = params(s);
        let rows = run(s, &p);
        assert!(!rows.is_empty());
        let len = rows[0].person_ids_in_path.len();
        for r in &rows {
            assert_eq!(r.person_ids_in_path.len(), len, "non-uniform path length");
            assert_eq!(r.person_ids_in_path[0], p.person1_id);
            assert_eq!(*r.person_ids_in_path.last().unwrap(), p.person2_id);
        }
    }

    #[test]
    fn weights_descend() {
        let s = testutil::store();
        let rows = run(s, &params(s));
        for w in rows.windows(2) {
            assert!(w[0].path_weight >= w[1].path_weight);
        }
    }

    #[test]
    fn narrow_window_lowers_weights() {
        let s = testutil::store();
        let mut p = params(s);
        let wide: f64 = run(s, &p).iter().map(|r| r.path_weight).sum();
        p.start_date = Date::from_ymd(2012, 12, 1);
        p.end_date = Date::from_ymd(2012, 12, 2);
        let narrow: f64 = run(s, &p).iter().map(|r| r.path_weight).sum();
        assert!(narrow <= wide);
    }

    #[test]
    fn disconnected_pair_yields_empty() {
        let s = testutil::store();
        // An isolated person (degree 0) if any; otherwise skip.
        if let Some(lonely) = (0..s.persons.len() as Ix).find(|&p| s.knows.degree(p) == 0) {
            let other = (0..s.persons.len() as Ix).find(|&p| s.knows.degree(p) > 0).unwrap();
            let p = Params {
                person1_id: s.persons.id[lonely as usize],
                person2_id: s.persons.id[other as usize],
                start_date: Date::from_ymd(2010, 1, 1),
                end_date: Date::from_ymd(2013, 1, 1),
            };
            assert!(run(s, &p).is_empty());
        }
    }
}
