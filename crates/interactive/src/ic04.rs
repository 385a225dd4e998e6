//! IC 4 — *New topics*.
//!
//! Tags on Posts created by the start person's friends within the
//! window `[start_date, start_date + duration_days)` that never
//! appeared on friends' Posts before the window. Sort: postCount desc,
//! tag name asc; limit 10.

use rustc_hash::{FxHashMap, FxHashSet};
use snb_engine::TopK;
use snb_store::{Ix, Store};

use crate::common::friends;

/// Parameters of IC 4.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Start person (raw id).
    pub person_id: u64,
    /// Window start.
    pub start_date: snb_core::Date,
    /// Window length in days (closed-open).
    pub duration_days: u32,
}

/// One result row of IC 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Tag name.
    pub tag_name: String,
    /// Posts in the window carrying the tag.
    pub post_count: u64,
}

const LIMIT: usize = 10;

/// Runs IC 4.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let lo = params.start_date.at_midnight();
    let hi = params.start_date.plus_days(params.duration_days as i32).at_midnight();
    let mut in_window: FxHashMap<Ix, u64> = FxHashMap::default();
    let mut before: FxHashSet<Ix> = FxHashSet::default();
    for f in friends(store, start) {
        for m in store.person_messages.targets_of(f) {
            if !store.messages.is_post(m) {
                continue;
            }
            let t = store.messages.creation_date[m as usize];
            if t < lo {
                before.extend(store.message_tag.targets_of(m));
            } else if t < hi {
                for tag in store.message_tag.targets_of(m) {
                    *in_window.entry(tag).or_insert(0) += 1;
                }
            }
        }
    }
    let mut tk = TopK::new(LIMIT);
    for (tag, count) in in_window {
        if before.contains(&tag) {
            continue;
        }
        let row = Row { tag_name: store.tags.name[tag as usize].to_string(), post_count: count };
        tk.push((std::cmp::Reverse(count), row.tag_name.clone()), row);
    }
    tk.into_sorted()
}

/// Naive reference: full post scan (no per-friend adjacency).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let lo = params.start_date.at_midnight();
    let hi = params.start_date.plus_days(params.duration_days as i32).at_midnight();
    let friend_set: FxHashSet<Ix> = store.knows.targets_of(start).collect();
    let mut in_window: FxHashMap<Ix, u64> = FxHashMap::default();
    let mut before: FxHashSet<Ix> = FxHashSet::default();
    for m in 0..store.messages.len() as Ix {
        if !store.messages.is_post(m) || !friend_set.contains(&store.messages.creator[m as usize]) {
            continue;
        }
        let t = store.messages.creation_date[m as usize];
        if t < lo {
            before.extend(store.message_tag.targets_of(m));
        } else if t < hi {
            for tag in store.message_tag.targets_of(m) {
                *in_window.entry(tag).or_insert(0) += 1;
            }
        }
    }
    let items: Vec<_> = in_window
        .into_iter()
        .filter(|(tag, _)| !before.contains(tag))
        .map(|(tag, count)| {
            let row =
                Row { tag_name: store.tags.name[tag as usize].to_string(), post_count: count };
            ((std::cmp::Reverse(count), row.tag_name.clone()), row)
        })
        .collect();
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};
    use snb_core::Date;

    fn params() -> Params {
        Params {
            person_id: hub_person(),
            start_date: Date::from_ymd(2011, 6, 1),
            duration_days: 120,
        }
    }

    #[test]
    fn tags_are_genuinely_new() {
        let s = store();
        let p = params();
        let start = s.person(p.person_id).unwrap();
        let lo = p.start_date.at_midnight();
        let rows = run(s, &p);
        for r in &rows {
            let tag = s.tag_named(&r.tag_name).unwrap();
            // Recheck: no friend post before the window has the tag.
            for f in s.knows.targets_of(start) {
                for m in s.person_messages.targets_of(f) {
                    if s.messages.is_post(m) && s.messages.creation_date[m as usize] < lo {
                        assert!(
                            !s.message_tag.targets_of(m).any(|t| t == tag),
                            "tag {} seen before window",
                            r.tag_name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sorted_and_limited_to_10() {
        let s = store();
        let rows = run(s, &params());
        assert!(rows.len() <= 10);
        for w in rows.windows(2) {
            assert!(
                w[0].post_count > w[1].post_count
                    || (w[0].post_count == w[1].post_count && w[0].tag_name <= w[1].tag_name)
            );
        }
    }

    #[test]
    fn whole_window_has_no_new_tags_before_history() {
        // A window covering the whole simulation has no "before", so
        // any friend-post tag qualifies.
        let s = store();
        let p = Params {
            person_id: hub_person(),
            start_date: Date::from_ymd(2010, 1, 1),
            duration_days: 1096,
        };
        let rows = run(s, &p);
        assert!(!rows.is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
