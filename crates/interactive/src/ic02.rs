//! IC 2 — *Recent messages by your friends*.
//!
//! Messages created by direct friends before a given date (exclusive of
//! that day). Sort: creation date descending, message id ascending;
//! limit 20.

use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::{content_or_image, friends};

snb_core::query_params! {
    /// Parameters of IC 2.
    #[derive(Copy)]
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Exclusive upper bound day.
        max_date: snb_core::Date = "maxDate",
    }
}

/// One result row of IC 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Friend id.
    pub person_id: u64,
    /// Friend first name.
    pub person_first_name: String,
    /// Friend last name.
    pub person_last_name: String,
    /// Message id.
    pub message_id: u64,
    /// Message content or image file.
    pub message_content: String,
    /// Message creation timestamp.
    pub message_creation_date: snb_core::DateTime,
}

const LIMIT: usize = 20;

/// Runs IC 2.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Runs IC 2 on an explicit execution context: friends fan out as
/// morsels with per-worker bounded heaps; the (date desc, id asc) key
/// is total, so the merged top-20 is thread-count independent.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.max_date.at_midnight();
    let friends = friends(store, start);
    let tk: TopK<_, Row> = ctx.par_topk(friends.len(), LIMIT, |tk, range| {
        for &f in &friends[range] {
            for m in store.person_messages.targets_of(f) {
                let t = store.messages.creation_date[m as usize];
                if t >= cutoff {
                    continue;
                }
                let key = (std::cmp::Reverse(t), store.messages.id[m as usize]);
                if !tk.would_accept(&key) {
                    continue;
                }
                tk.push(key, to_row(store, f, m));
            }
        }
    });
    tk.into_sorted()
}

fn to_row(store: &Store, f: Ix, m: Ix) -> Row {
    Row {
        person_id: store.persons.id[f as usize],
        person_first_name: store.persons.first_name[f as usize].to_string(),
        person_last_name: store.persons.last_name[f as usize].to_string(),
        message_id: store.messages.id[m as usize],
        message_content: content_or_image(store, m),
        message_creation_date: store.messages.creation_date[m as usize],
    }
}

/// Naive reference: full message-table scan with a friend-set test.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.max_date.at_midnight();
    let friend_set: rustc_hash::FxHashSet<Ix> = store.knows.targets_of(start).collect();
    let mut items = Vec::new();
    for m in 0..store.messages.len() as Ix {
        let f = store.messages.creator[m as usize];
        if !friend_set.contains(&f) || store.messages.creation_date[m as usize] >= cutoff {
            continue;
        }
        let row = to_row(store, f, m);
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
    fn messages_are_by_friends_and_before_date() {
        let s = store();
        let start = s.person(hub_person()).unwrap();
        let friends: Vec<_> = s.knows.targets_of(start).collect();
        for r in run(s, &params()) {
            let author = s.person(r.person_id).unwrap();
            assert!(friends.contains(&author));
            assert!(r.message_creation_date < Date::from_ymd(2012, 6, 1).at_midnight());
        }
    }

    #[test]
    fn newest_first_limit_20() {
        let s = store();
        let rows = run(s, &params());
        assert!(!rows.is_empty());
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
    fn matches_exhaustive_recomputation() {
        let s = store();
        let p = params();
        let start = s.person(p.person_id).unwrap();
        let cutoff = p.max_date.at_midnight();
        let friends: std::collections::HashSet<_> = s.knows.targets_of(start).collect();
        let mut all: Vec<(std::cmp::Reverse<snb_core::DateTime>, u64)> = (0..s.messages.len()
            as Ix)
            .filter(|&m| {
                friends.contains(&s.messages.creator[m as usize])
                    && s.messages.creation_date[m as usize] < cutoff
            })
            .map(|m| {
                (std::cmp::Reverse(s.messages.creation_date[m as usize]), s.messages.id[m as usize])
            })
            .collect();
        all.sort();
        all.truncate(20);
        let got: Vec<u64> = run(s, &p).into_iter().map(|r| r.message_id).collect();
        let want: Vec<u64> = all.into_iter().map(|(_, id)| id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
