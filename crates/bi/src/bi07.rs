//! BI 7 — *Authoritative users on a given topic* (reconstructed).
//!
//! A person is authoritative on a tag when popular people like their
//! tagged messages. For each person who created a Message with the
//! given Tag: for every like those messages received, add the liker's
//! *popularity* — the total number of likes on any of the liker's own
//! messages — to the person's authority score.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag;

snb_core::query_params! {
    /// Parameters of BI 7.
    pub struct Params {
        /// Tag name.
        tag: String = "tag",
    }
}

/// One result row of BI 7.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Sum of the likers' popularity scores.
    pub authority_score: u64,
}

const LIMIT: usize = 100;

fn sort_key(store: &Store, p: Ix, score: u64) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(score), store.persons.id[p as usize])
}

fn to_row(store: &Store, p: Ix, score: u64) -> Row {
    Row { person_id: store.persons.id[p as usize], authority_score: score }
}

/// Total likes received by any of `p`'s messages.
fn popularity(store: &Store, p: Ix) -> u64 {
    store.person_messages.targets_of(p).map(|m| store.message_likes.degree(m) as u64).sum()
}

/// Optimized implementation: reverse tag index + memoised popularity.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: parallel
/// morsels over the tag's message list, each worker memoising liker
/// popularity in its own cache.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let tagged: Vec<Ix> = store.tag_message.targets_of(tag).collect();
    let scores = ctx.par_map_reduce(
        tagged.len(),
        || (FxHashMap::<Ix, u64>::default(), FxHashMap::<Ix, u64>::default()),
        |(scores, pop_cache), range| {
            for &m in &tagged[range] {
                let author = store.messages.creator[m as usize];
                let mut sum = 0u64;
                for liker in store.message_likes.targets_of(m) {
                    let pop = *pop_cache.entry(liker).or_insert_with(|| popularity(store, liker));
                    sum += pop;
                }
                // Ensure authors of tagged messages appear even with
                // zero likes.
                *scores.entry(author).or_insert(0) += sum;
            }
        },
        |(into, _), (from, _)| {
            for (k, s) in from {
                *into.entry(k).or_insert(0) += s;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    let scores = scores.0;
    for (p, score) in scores {
        tk.offer(sort_key(store, p, score), (p, score));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, score)| to_row(store, p, score))
}

/// Naive reference: message-major scan, popularity recomputed per like.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let mut scores: FxHashMap<Ix, u64> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !has_tag(store, m, tag) {
            continue;
        }
        let author = store.messages.creator[m as usize];
        let entry = scores.entry(author).or_insert(0);
        for liker in store.message_likes.targets_of(m) {
            *entry += popularity(store, liker);
        }
    }
    let items: Vec<_> = scores
        .into_iter()
        .map(|(p, score)| (sort_key(store, p, score), to_row(store, p, score)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn busy_tag(s: &Store) -> String {
        let t = (0..s.tags.len() as Ix).max_by_key(|&t| s.tag_message.degree(t)).unwrap();
        s.tags.name[t as usize].to_string()
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = Params { tag: busy_tag(s) };
        let rows = run(s, &p);
        assert!(!rows.is_empty());
        assert_eq!(rows, run_naive(s, &p));
    }

    #[test]
    fn popularity_counts_all_likes() {
        let s = testutil::store();
        // Independent check: sum of popularity over all persons equals
        // total like edges.
        let total: u64 = (0..s.persons.len() as Ix).map(|p| popularity(s, p)).sum();
        assert_eq!(total, s.person_likes.edge_count() as u64);
    }

    #[test]
    fn sorted_desc() {
        let s = testutil::store();
        let rows = run(s, &Params { tag: busy_tag(s) });
        for w in rows.windows(2) {
            assert!(
                w[0].authority_score > w[1].authority_score
                    || (w[0].authority_score == w[1].authority_score
                        && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn unknown_tag_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { tag: "Nope".into() }).is_empty());
    }
}
