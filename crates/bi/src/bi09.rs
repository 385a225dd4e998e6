//! BI 9 — *Forum with related tags* (reconstructed).
//!
//! Given two TagClasses, find Forums with more than `threshold` members
//! that contain Posts tagged with each class (direct `hasType`), and
//! report both per-forum post counts.
//!
//! Reconstruction note: the supplied extraction elides this query; the
//! sort order used here is `count1` desc, `count2` desc, forum id asc.
//!
//! The optimized plan is class-driven: it walks the messages of the
//! classes' tags, not every post of every forum.

use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::has_tag_of_class;

/// Parameters of BI 9.
#[derive(Clone, Debug)]
pub struct Params {
    /// First tag-class name.
    pub tag_class1: String,
    /// Second tag-class name.
    pub tag_class2: String,
    /// Minimum member count (exclusive).
    pub threshold: u64,
}

/// One result row of BI 9.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Forum id.
    pub forum_id: u64,
    /// Posts tagged with a tag of class 1.
    pub count1: u64,
    /// Posts tagged with a tag of class 2.
    pub count2: u64,
}

const LIMIT: usize = 100;

type Key = (std::cmp::Reverse<u64>, std::cmp::Reverse<u64>, u64);

fn sort_key(row: &Row) -> Key {
    (std::cmp::Reverse(row.count1), std::cmp::Reverse(row.count2), row.forum_id)
}

/// Per-forum post counts of the two classes, driven from each class's
/// tags: `tag_message` of every tag of the class, posts only. A post
/// carrying two tags of one class is met twice, so `counted` keeps one
/// bit per class per message and a post counts once per class. Returns
/// the counts and the number of CSR edges walked.
fn class_post_counts(store: &Store, classes: [Ix; 2]) -> (Vec<[u64; 2]>, u64) {
    let mut counts = vec![[0u64; 2]; store.forums.len()];
    let mut counted = vec![0u8; store.messages.len()];
    let mut edges = 0u64;
    for (k, class) in classes.into_iter().enumerate() {
        let bit = 1u8 << k;
        for t in store.tagclass_tags.targets_of(class) {
            edges += 1;
            for m in store.tag_message.targets_of(t) {
                edges += 1;
                if !store.messages.is_post(m) || counted[m as usize] & bit != 0 {
                    continue;
                }
                counted[m as usize] |= bit;
                counts[store.messages.forum[m as usize] as usize][k] += 1;
            }
        }
    }
    (counts, edges)
}

/// Optimized implementation: class-driven post counts, then a forum
/// scan with the member-count filter.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// posts of each class are reached through its tags (a class has a few
/// of the tags, so most posts are never touched), counted per forum,
/// then a parallel forum scan applies the member-count filter into
/// per-worker bounded top-k heaps.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.tag_class_named(&params.tag_class1), store.tag_class_named(&params.tag_class2))
    else {
        return Vec::new();
    };
    let (counts, edges) = class_post_counts(store, [c1, c2]);
    ctx.metrics().note_edges(edges);
    let tk = ctx.par_topk(store.forums.len(), LIMIT, |tk, range| {
        for f in range.start as Ix..range.end as Ix {
            let [n1, n2] = counts[f as usize];
            if n1 == 0 || n2 == 0 || (store.forum_member.degree(f) as u64) <= params.threshold {
                continue;
            }
            let row = Row { forum_id: store.forums.id[f as usize], count1: n1, count2: n2 };
            tk.push(sort_key(&row), row);
        }
    });
    ctx.metrics().note_topk(&tk);
    tk.into_sorted()
}

/// Naive reference: post-major aggregation, member filter applied last.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.tag_class_named(&params.tag_class1), store.tag_class_named(&params.tag_class2))
    else {
        return Vec::new();
    };
    let mut counts: rustc_hash::FxHashMap<Ix, (u64, u64)> = rustc_hash::FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !store.messages.is_post(m) {
            continue;
        }
        let f = store.messages.forum[m as usize];
        let e = counts.entry(f).or_insert((0, 0));
        if has_tag_of_class(store, m, c1) {
            e.0 += 1;
        }
        if has_tag_of_class(store, m, c2) {
            e.1 += 1;
        }
    }
    let items: Vec<_> = counts
        .into_iter()
        .filter(|&(f, (n1, n2))| {
            n1 > 0 && n2 > 0 && (store.forum_member.degree(f) as u64) > params.threshold
        })
        .map(|(f, (n1, n2))| {
            let row = Row { forum_id: store.forums.id[f as usize], count1: n1, count2: n2 };
            (sort_key(&row), row)
        })
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { tag_class1: "MusicalArtist".into(), tag_class2: "Band".into(), threshold: 0 }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let p2 = Params {
            tag_class1: "Scientist".into(),
            tag_class2: "Politician".into(),
            threshold: 2,
        };
        assert_eq!(run(s, &p2), run_naive(s, &p2));
    }

    #[test]
    fn both_counts_positive() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.count1 > 0 && r.count2 > 0);
        }
    }

    #[test]
    fn threshold_filters_small_forums() {
        let s = testutil::store();
        let mut p = params();
        p.threshold = 5;
        for r in run(s, &p) {
            let f = s.forum(r.forum_id).unwrap();
            assert!(s.forum_member.degree(f) > 5);
        }
    }

    #[test]
    fn sorted_correctly() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            let ka =
                (std::cmp::Reverse(w[0].count1), std::cmp::Reverse(w[0].count2), w[0].forum_id);
            let kb =
                (std::cmp::Reverse(w[1].count1), std::cmp::Reverse(w[1].count2), w[1].forum_id);
            assert!(ka < kb);
        }
    }
}
