//! IC 7 — *Recent likers*.
//!
//! For each person who liked any of the start person's Messages,
//! return their most recent like (ties broken toward the lowest
//! message id), with the like-to-creation latency in minutes and a
//! flag telling whether the liker is *not* a friend. Sort: like date
//! desc, liker id asc; limit 20.

use rustc_hash::FxHashMap;
use snb_core::datetime::minutes_between;
use snb_engine::TopK;
use snb_store::{Ix, Store};

use crate::common::content_or_image;

snb_core::query_params! {
    /// Parameters of IC 7.
    #[derive(Copy)]
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
    }
}

/// One result row of IC 7.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Liker id.
    pub person_id: u64,
    /// Liker first name.
    pub person_first_name: String,
    /// Liker last name.
    pub person_last_name: String,
    /// When the like was issued.
    pub like_creation_date: snb_core::DateTime,
    /// The liked message id.
    pub message_id: u64,
    /// The liked message's content (or image file).
    pub message_content: String,
    /// Minutes between message creation and like.
    pub minutes_latency: i64,
    /// `false` if the liker is a friend of the start person.
    pub is_new: bool,
}

const LIMIT: usize = 20;

/// Runs IC 7.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    // liker -> (like date, message) with the most-recent/lowest-id rule.
    let mut latest: FxHashMap<Ix, (snb_core::DateTime, Ix)> = FxHashMap::default();
    for m in store.person_messages.targets_of(start) {
        for (liker, date) in store.message_likes.neighbors(m) {
            match latest.get(&liker) {
                Some(&(d, mid))
                    if d > date
                        || (d == date
                            && store.messages.id[mid as usize]
                                <= store.messages.id[m as usize]) => {}
                _ => {
                    latest.insert(liker, (date, m));
                }
            }
        }
    }
    let friends: rustc_hash::FxHashSet<Ix> = store.knows.targets_of(start).collect();
    let mut tk = TopK::new(LIMIT);
    for (liker, (date, m)) in latest {
        let row = Row {
            person_id: store.persons.id[liker as usize],
            person_first_name: store.persons.first_name[liker as usize].to_string(),
            person_last_name: store.persons.last_name[liker as usize].to_string(),
            like_creation_date: date,
            message_id: store.messages.id[m as usize],
            message_content: content_or_image(store, m),
            minutes_latency: minutes_between(store.messages.creation_date[m as usize], date),
            is_new: !friends.contains(&liker),
        };
        tk.push((std::cmp::Reverse(date), row.person_id), row);
    }
    tk.into_sorted()
}

/// Naive reference: person-major scan over every like in the store.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let mut latest: FxHashMap<Ix, (snb_core::DateTime, Ix)> = FxHashMap::default();
    for liker in 0..store.persons.len() as Ix {
        for (m, date) in store.person_likes.neighbors(liker) {
            if store.messages.creator[m as usize] != start {
                continue;
            }
            match latest.get(&liker) {
                Some(&(d, mid))
                    if d > date
                        || (d == date
                            && store.messages.id[mid as usize]
                                <= store.messages.id[m as usize]) => {}
                _ => {
                    latest.insert(liker, (date, m));
                }
            }
        }
    }
    let friends: rustc_hash::FxHashSet<Ix> = store.knows.targets_of(start).collect();
    let items: Vec<_> = latest
        .into_iter()
        .map(|(liker, (date, m))| {
            let row = Row {
                person_id: store.persons.id[liker as usize],
                person_first_name: store.persons.first_name[liker as usize].to_string(),
                person_last_name: store.persons.last_name[liker as usize].to_string(),
                like_creation_date: date,
                message_id: store.messages.id[m as usize],
                message_content: content_or_image(store, m),
                minutes_latency: minutes_between(store.messages.creation_date[m as usize], date),
                is_new: !friends.contains(&liker),
            };
            ((std::cmp::Reverse(date), row.person_id), row)
        })
        .collect();
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::store;

    fn liked_person(s: &Store) -> u64 {
        // Pick a person with many likes on their messages.
        let p = (0..s.persons.len() as Ix)
            .max_by_key(|&p| {
                s.person_messages.targets_of(p).map(|m| s.message_likes.degree(m)).sum::<usize>()
            })
            .unwrap();
        s.persons.id[p as usize]
    }

    #[test]
    fn one_row_per_liker_latest_like() {
        let s = store();
        let pid = liked_person(s);
        let rows = run(s, &Params { person_id: pid });
        assert!(!rows.is_empty());
        let mut likers: Vec<u64> = rows.iter().map(|r| r.person_id).collect();
        let before = likers.len();
        likers.sort_unstable();
        likers.dedup();
        assert_eq!(before, likers.len(), "duplicate likers");
        // Each row's like is the liker's most recent on this person's
        // messages.
        let start = s.person(pid).unwrap();
        for r in &rows {
            let liker = s.person(r.person_id).unwrap();
            for m in s.person_messages.targets_of(start) {
                for (l, d) in s.message_likes.neighbors(m) {
                    if l == liker {
                        assert!(d <= r.like_creation_date);
                    }
                }
            }
        }
    }

    #[test]
    fn latency_non_negative_and_flags_consistent() {
        let s = store();
        let pid = liked_person(s);
        let start = s.person(pid).unwrap();
        let friends: Vec<Ix> = s.knows.targets_of(start).collect();
        for r in run(s, &Params { person_id: pid }) {
            assert!(r.minutes_latency >= 0);
            let liker = s.person(r.person_id).unwrap();
            assert_eq!(r.is_new, !friends.contains(&liker));
        }
    }

    #[test]
    fn sorted_recent_first() {
        let s = store();
        let rows = run(s, &Params { person_id: liked_person(s) });
        for w in rows.windows(2) {
            assert!(
                w[0].like_creation_date > w[1].like_creation_date
                    || (w[0].like_creation_date == w[1].like_creation_date
                        && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = Params { person_id: liked_person(s) };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
