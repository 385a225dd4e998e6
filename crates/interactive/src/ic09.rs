//! IC 9 — *Recent messages by friends or friends of friends*.
//!
//! Messages created before a given date by persons within two hops of
//! the start person. Sort: creation desc, id asc; limit 20.

use snb_engine::{QueryContext, TopK};
use snb_store::Store;

use crate::common::{content_or_image, friends_within_2};

snb_core::query_params! {
    /// Parameters of IC 9.
    #[derive(Copy)]
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Exclusive upper bound day.
        max_date: snb_core::Date = "maxDate",
    }
}

/// One result row of IC 9.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Author id.
    pub person_id: u64,
    /// Author first name.
    pub person_first_name: String,
    /// Author last name.
    pub person_last_name: String,
    /// Message id.
    pub message_id: u64,
    /// Content or image file.
    pub message_content: String,
    /// Message creation timestamp.
    pub message_creation_date: snb_core::DateTime,
}

const LIMIT: usize = 20;

/// Runs IC 9.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Runs IC 9 on an explicit execution context: the two-hop circle fans
/// out as morsels with per-worker bounded heaps (total sort key, so the
/// merged top-20 is thread-count independent).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.max_date.at_midnight();
    let circle = friends_within_2(store, start);
    let tk: TopK<_, Row> = ctx.par_topk(circle.len(), LIMIT, |tk, range| {
        for &p in &circle[range] {
            for m in store.person_messages.targets_of(p) {
                let t = store.messages.creation_date[m as usize];
                if t >= cutoff {
                    continue;
                }
                let key = (std::cmp::Reverse(t), store.messages.id[m as usize]);
                if !tk.would_accept(&key) {
                    continue;
                }
                tk.push(
                    key,
                    Row {
                        person_id: store.persons.id[p as usize],
                        person_first_name: store.persons.first_name[p as usize].to_string(),
                        person_last_name: store.persons.last_name[p as usize].to_string(),
                        message_id: store.messages.id[m as usize],
                        message_content: content_or_image(store, m),
                        message_creation_date: t,
                    },
                );
            }
        }
    });
    tk.into_sorted()
}

/// Naive reference: full message scan with per-author distance
/// recomputation.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    use snb_store::Ix;
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.max_date.at_midnight();
    let mut items = Vec::new();
    for m in 0..store.messages.len() as Ix {
        if store.messages.creation_date[m as usize] >= cutoff {
            continue;
        }
        let p = store.messages.creator[m as usize];
        if p == start {
            continue;
        }
        let d = snb_engine::traverse::shortest_path_len(
            store,
            snb_engine::QueryMetrics::sink(),
            start,
            p,
        );
        if !(1..=2).contains(&d) {
            continue;
        }
        let row = Row {
            person_id: store.persons.id[p as usize],
            person_first_name: store.persons.first_name[p as usize].to_string(),
            person_last_name: store.persons.last_name[p as usize].to_string(),
            message_id: store.messages.id[m as usize],
            message_content: content_or_image(store, m),
            message_creation_date: store.messages.creation_date[m as usize],
        };
        items.push(((std::cmp::Reverse(row.message_creation_date), row.message_id), row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};
    use snb_core::Date;

    fn params() -> Params {
        Params { person_id: hub_person(), max_date: Date::from_ymd(2012, 6, 1) }
    }

    #[test]
    fn superset_of_ic2() {
        // IC 9's two-hop author set contains IC 2's one-hop set, so at
        // equal cut-off the top-20 by recency can only be newer-or-equal.
        let s = store();
        let ic2 = crate::ic02::run(
            s,
            &crate::ic02::Params { person_id: hub_person(), max_date: params().max_date },
        );
        let ic9 = run(s, &params());
        assert!(!ic9.is_empty());
        if let (Some(a), Some(b)) = (ic9.first(), ic2.first()) {
            assert!(a.message_creation_date >= b.message_creation_date);
        }
    }

    #[test]
    fn authors_within_two_hops() {
        let s = store();
        let start = s.person(hub_person()).unwrap();
        for r in run(s, &params()) {
            let author = s.person(r.person_id).unwrap();
            let d = snb_engine::traverse::shortest_path_len(
                s,
                snb_engine::QueryMetrics::sink(),
                start,
                author,
            );
            assert!((1..=2).contains(&d), "author at distance {d}");
        }
    }

    #[test]
    fn sorted_and_limited() {
        let s = store();
        let rows = run(s, &params());
        assert!(rows.len() <= 20);
        for w in rows.windows(2) {
            assert!(
                w[0].message_creation_date > w[1].message_creation_date
                    || (w[0].message_creation_date == w[1].message_creation_date
                        && w[0].message_id < w[1].message_id)
            );
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
