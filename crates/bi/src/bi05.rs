//! BI 5 — *Top posters in a country* (reconstructed).
//!
//! Find the 100 most popular Forums of a country (popularity = number
//! of members located in the country); then for every member of those
//! popular forums count the Posts they created in any popular forum
//! (members with zero posts are reported too).

use rustc_hash::{FxHashMap, FxHashSet};
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of BI 5.
    pub struct Params {
        /// Country name.
        country: String = "country",
    }
}

/// One result row of BI 5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// First name.
    pub first_name: String,
    /// Last name.
    pub last_name: String,
    /// Person creation date.
    pub creation_date: snb_core::DateTime,
    /// Posts in the popular forums.
    pub post_count: u64,
}

const FORUM_LIMIT: usize = 100;
const LIMIT: usize = 100;

fn popular_forums(store: &Store, ctx: &QueryContext, country: Ix) -> FxHashSet<Ix> {
    let tk: TopK<(std::cmp::Reverse<u64>, u64), Ix> =
        ctx.par_topk(store.forums.len(), FORUM_LIMIT, |tk, range| {
            for f in range.start as Ix..range.end as Ix {
                let members_in_country = store
                    .forum_member
                    .targets_of(f)
                    .filter(|&p| store.person_country(p) == country)
                    .count() as u64;
                if members_in_country == 0 {
                    continue;
                }
                tk.push((std::cmp::Reverse(members_in_country), store.forums.id[f as usize]), f);
            }
        });
    ctx.metrics().note_topk(&tk);
    tk.into_sorted().into_iter().collect()
}

fn sort_key(store: &Store, p: Ix, count: u64) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(count), store.persons.id[p as usize])
}

fn to_row(store: &Store, p: Ix, count: u64) -> Row {
    Row {
        person_id: store.persons.id[p as usize],
        first_name: store.persons.first_name[p as usize].to_string(),
        last_name: store.persons.last_name[p as usize].to_string(),
        creation_date: store.persons.creation_date[p as usize],
        post_count: count,
    }
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// forum-popularity scan runs as a parallel top-k; the per-member post
/// counting stays sequential (it touches only the ~100 popular forums).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let forums = popular_forums(store, ctx, country);
    // Members of popular forums.
    let mut members: FxHashSet<Ix> = FxHashSet::default();
    for &f in &forums {
        members.extend(store.forum_member.targets_of(f));
    }
    // Posts per member inside the popular forums.
    let mut counts: FxHashMap<Ix, u64> = FxHashMap::default();
    for &f in &forums {
        for post in store.forum_posts.targets_of(f) {
            let creator = store.messages.creator[post as usize];
            if members.contains(&creator) {
                *counts.entry(creator).or_insert(0) += 1;
            }
        }
    }
    let mut tk = TopK::new(LIMIT);
    for &p in &members {
        let count = counts.get(&p).copied().unwrap_or(0);
        tk.offer(sort_key(store, p, count), (p, count));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, count)| to_row(store, p, count))
}

/// Naive reference: per-member scan of all their messages.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let forums = popular_forums(store, &QueryContext::single_threaded(), country);
    let mut members: Vec<Ix> = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if store.member_forum.targets_of(p).any(|f| forums.contains(&f)) {
            members.push(p);
        }
    }
    let mut items = Vec::new();
    for p in members {
        let count = store
            .person_messages
            .targets_of(p)
            .filter(|&m| {
                store.messages.is_post(m) && forums.contains(&store.messages.forum[m as usize])
            })
            .count() as u64;
        items.push((sort_key(store, p, count), to_row(store, p, count)));
    }
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        for c in ["China", "India", "Germany"] {
            let p = Params { country: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn sorted_and_limited() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        assert!(rows.len() <= 100);
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(
                w[0].post_count > w[1].post_count
                    || (w[0].post_count == w[1].post_count && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn zero_post_members_are_reported() {
        // The query spec includes members that never posted in the
        // popular forums; with a 100-row limit and small data some may
        // survive the cut. This at least checks zero counts are legal.
        let s = testutil::store();
        let rows = run(s, &Params { country: "New_Zealand".into() });
        for r in &rows {
            // Every reported person must exist.
            s.person(r.person_id).unwrap();
        }
    }

    #[test]
    fn unknown_country_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { country: "Narnia".into() }).is_empty());
    }
}
