//! IC 5 — *New groups*.
//!
//! Forums that the start person's friends or friends-of-friends joined
//! after a given date; per forum, count the Posts created in it by
//! those late-joining friends. Sort: postCount desc, forum id asc;
//! limit 20.

use rustc_hash::{FxHashMap, FxHashSet};
use snb_engine::TopK;
use snb_store::{Ix, Store};

use crate::common::friends_within_2;

snb_core::query_params! {
    /// Parameters of IC 5.
    #[derive(Copy)]
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Memberships strictly after this date qualify.
        min_date: snb_core::Date = "minDate",
    }
}

/// One result row of IC 5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Forum title.
    pub forum_title: String,
    /// Posts by qualifying friends in the forum.
    pub post_count: u64,
}

const LIMIT: usize = 20;

/// Runs IC 5.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.min_date.at_midnight();
    let circle: FxHashSet<Ix> = friends_within_2(store, start).into_iter().collect();
    // Forum -> set of circle members who joined after the date.
    let mut late_members: FxHashMap<Ix, FxHashSet<Ix>> = FxHashMap::default();
    for &p in &circle {
        for (f, join) in store.member_forum.neighbors(p) {
            if join > cutoff {
                late_members.entry(f).or_default().insert(p);
            }
        }
    }
    let mut tk = TopK::new(LIMIT);
    for (f, members) in late_members {
        let count = store
            .forum_posts
            .targets_of(f)
            .filter(|&post| members.contains(&store.messages.creator[post as usize]))
            .count() as u64;
        let row =
            Row { forum_title: store.forums.title[f as usize].to_string(), post_count: count };
        tk.push((std::cmp::Reverse(count), store.forums.id[f as usize]), row);
    }
    tk.into_sorted()
}

/// Naive reference: forum-major scan of memberships and a full post
/// scan per forum.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let cutoff = params.min_date.at_midnight();
    let circle: FxHashSet<Ix> = friends_within_2(store, start).into_iter().collect();
    let mut items = Vec::new();
    for f in 0..store.forums.len() as Ix {
        let members: FxHashSet<Ix> = store
            .forum_member
            .neighbors(f)
            .filter(|&(p, join)| circle.contains(&p) && join > cutoff)
            .map(|(p, _)| p)
            .collect();
        if members.is_empty() {
            continue;
        }
        let count = (0..store.messages.len() as Ix)
            .filter(|&m| {
                store.messages.is_post(m)
                    && store.messages.forum[m as usize] == f
                    && members.contains(&store.messages.creator[m as usize])
            })
            .count() as u64;
        let row =
            Row { forum_title: store.forums.title[f as usize].to_string(), post_count: count };
        items.push(((std::cmp::Reverse(count), store.forums.id[f as usize]), row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};
    use snb_core::Date;

    fn params() -> Params {
        Params { person_id: hub_person(), min_date: Date::from_ymd(2011, 1, 1) }
    }

    #[test]
    fn returns_rows_sorted_and_limited() {
        let s = store();
        let rows = run(s, &params());
        assert!(!rows.is_empty());
        assert!(rows.len() <= 20);
        for w in rows.windows(2) {
            assert!(w[0].post_count >= w[1].post_count);
        }
    }

    #[test]
    fn later_min_date_never_grows_forums() {
        let s = store();
        let early =
            run(s, &Params { person_id: hub_person(), min_date: Date::from_ymd(2010, 1, 1) });
        let late =
            run(s, &Params { person_id: hub_person(), min_date: Date::from_ymd(2012, 10, 1) });
        // The qualifying membership set shrinks with a later date; at
        // full result materialisation (< limit) the forum count shrinks
        // too. With a limit both are capped, so compare only when under.
        if early.len() < 20 && late.len() < 20 {
            assert!(late.len() <= early.len());
        }
    }

    #[test]
    fn unknown_person_yields_empty() {
        let s = store();
        assert!(run(s, &Params { person_id: 42_424_242, min_date: Date::from_ymd(2011, 1, 1) })
            .is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
