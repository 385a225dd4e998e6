//! BI 4 — *Popular topics in a country* (reconstructed).
//!
//! Forums located in a given country (a Forum's location is its
//! moderator's location) that contain at least one Post with a Tag of a
//! given TagClass (direct `hasType`, not transitive); per forum, count
//! the posts carrying such tags.

use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::has_tag_of_class;

/// Parameters of BI 4.
#[derive(Clone, Debug)]
pub struct Params {
    /// Tag-class name.
    pub tag_class: String,
    /// Country name.
    pub country: String,
}

/// One result row of BI 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Forum id.
    pub forum_id: u64,
    /// Forum title.
    pub forum_title: String,
    /// Forum creation timestamp.
    pub forum_creation_date: snb_core::DateTime,
    /// Moderator person id.
    pub moderator_id: u64,
    /// Posts in the forum with a tag of the class.
    pub post_count: u64,
}

const LIMIT: usize = 20;

type Key = (std::cmp::Reverse<u64>, u64);

fn sort_key(store: &Store, f: Ix, count: u64) -> Key {
    (std::cmp::Reverse(count), store.forums.id[f as usize])
}

fn to_row(store: &Store, f: Ix, count: u64) -> Row {
    let moderator = store.forums.moderator[f as usize];
    Row {
        forum_id: store.forums.id[f as usize],
        forum_title: store.forums.title[f as usize].to_string(),
        forum_creation_date: store.forums.creation_date[f as usize],
        moderator_id: store.persons.id[moderator as usize],
        post_count: count,
    }
}

/// Optimized implementation: iterate forums moderated from the country,
/// count matching posts via the forum→posts CSR.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: parallel
/// forum scan with per-worker bounded top-k heaps merged in worker
/// order (the sort key is total, so the merge is order-insensitive).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(class), Ok(country)) =
        (store.tag_class_named(&params.tag_class), store.country_by_name(&params.country))
    else {
        return Vec::new();
    };
    let tk = ctx.par_topk(store.forums.len(), LIMIT, |tk, range| {
        for f in range.start as Ix..range.end as Ix {
            let moderator = store.forums.moderator[f as usize];
            if store.person_country(moderator) != country {
                continue;
            }
            let count = store
                .forum_posts
                .targets_of(f)
                .filter(|&post| has_tag_of_class(store, post, class))
                .count() as u64;
            if count == 0 {
                continue;
            }
            tk.offer(sort_key(store, f, count), (f, count));
        }
    });
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (f, count)| to_row(store, f, count))
}

/// Naive reference: post-major scan, aggregating per forum.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(class), Ok(country)) =
        (store.tag_class_named(&params.tag_class), store.country_by_name(&params.country))
    else {
        return Vec::new();
    };
    let mut counts: rustc_hash::FxHashMap<Ix, u64> = rustc_hash::FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !store.messages.is_post(m) {
            continue;
        }
        let f = store.messages.forum[m as usize];
        let moderator = store.forums.moderator[f as usize];
        if store.person_country(moderator) != country {
            continue;
        }
        if has_tag_of_class(store, m, class) {
            *counts.entry(f).or_insert(0) += 1;
        }
    }
    let items: Vec<(Key, Row)> = counts
        .into_iter()
        .map(|(f, count)| (sort_key(store, f, count), to_row(store, f, count)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { tag_class: "MusicalArtist".into(), country: "China".into() }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let p2 = Params { tag_class: "Scientist".into(), country: "India".into() };
        assert_eq!(run(s, &p2), run_naive(s, &p2));
    }

    #[test]
    fn limit_is_20_and_sorted() {
        let s = testutil::store();
        let rows = run(s, &params());
        assert!(rows.len() <= 20);
        for w in rows.windows(2) {
            assert!(
                w[0].post_count > w[1].post_count
                    || (w[0].post_count == w[1].post_count && w[0].forum_id < w[1].forum_id)
            );
        }
    }

    #[test]
    fn counts_are_positive_and_moderators_in_country() {
        let s = testutil::store();
        let country = s.country_by_name("China").unwrap();
        for r in run(s, &params()) {
            assert!(r.post_count > 0);
            let m = s.person(r.moderator_id).unwrap();
            assert_eq!(s.person_country(m), country);
        }
    }

    #[test]
    fn unknown_inputs_yield_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { tag_class: "NoClass".into(), country: "China".into() }).is_empty());
        assert!(
            run(s, &Params { tag_class: "Person".into(), country: "Nowhere".into() }).is_empty()
        );
    }
}
