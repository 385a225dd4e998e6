//! BI 6 — *Active posters of a given topic* (reconstructed).
//!
//! For every person who created a Message with the given Tag, compute
//! an activity score over those messages:
//! `score = messageCount + 2 * replyCount + 10 * likeCount`,
//! where `replyCount` counts direct replies received and `likeCount`
//! likes received.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag;

/// Parameters of BI 6.
#[derive(Clone, Debug)]
pub struct Params {
    /// Tag name.
    pub tag: String,
}

/// One result row of BI 6.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Messages with the tag.
    pub message_count: u64,
    /// Direct replies those messages received.
    pub reply_count: u64,
    /// Likes those messages received.
    pub like_count: u64,
    /// Combined score.
    pub score: u64,
}

const LIMIT: usize = 100;

/// Per-person `(messages, replies, likes)` over the tagged messages.
type Counts = (u64, u64, u64);

fn score((msgs, replies, likes): Counts) -> u64 {
    msgs + 2 * replies + 10 * likes
}

fn sort_key(store: &Store, p: Ix, counts: Counts) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(score(counts)), store.persons.id[p as usize])
}

fn make_row(store: &Store, p: Ix, counts: Counts) -> Row {
    Row {
        person_id: store.persons.id[p as usize],
        message_count: counts.0,
        reply_count: counts.1,
        like_count: counts.2,
        score: score(counts),
    }
}

/// Optimized implementation: start from the tag's reverse message index.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the tag's
/// message list is materialized once and scanned in parallel morsels.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let tagged: Vec<Ix> = store.tag_message.targets_of(tag).collect();
    let acc = ctx.par_map_reduce(
        tagged.len(),
        FxHashMap::<Ix, Counts>::default,
        |acc, range| {
            for &m in &tagged[range] {
                let p = store.messages.creator[m as usize];
                let e = acc.entry(p).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += store.message_replies.degree(m) as u64;
                e.2 += store.message_likes.degree(m) as u64;
            }
        },
        |into, from| {
            for (k, (m, r, l)) in from {
                let e = into.entry(k).or_insert((0, 0, 0));
                e.0 += m;
                e.1 += r;
                e.2 += l;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for (p, counts) in acc {
        tk.offer(sort_key(store, p, counts), (p, counts));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, counts)| make_row(store, p, counts))
}

/// Naive reference: full message scan with per-message tag test.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let mut acc: FxHashMap<Ix, Counts> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !has_tag(store, m, tag) {
            continue;
        }
        let p = store.messages.creator[m as usize];
        let replies = store.message_replies.targets_of(m).count() as u64;
        let likes = store.message_likes.targets_of(m).count() as u64;
        let e = acc.entry(p).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += replies;
        e.2 += likes;
    }
    let items: Vec<_> = acc
        .into_iter()
        .map(|(p, counts)| (sort_key(store, p, counts), make_row(store, p, counts)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn busiest_tag(s: &Store) -> String {
        let t = (0..s.tags.len() as Ix).max_by_key(|&t| s.tag_message.degree(t)).unwrap();
        s.tags.name[t as usize].to_string()
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = Params { tag: busiest_tag(s) };
        let rows = run(s, &p);
        assert!(!rows.is_empty());
        assert_eq!(rows, run_naive(s, &p));
    }

    #[test]
    fn score_formula_holds() {
        let s = testutil::store();
        for r in run(s, &Params { tag: busiest_tag(s) }) {
            assert_eq!(r.score, r.message_count + 2 * r.reply_count + 10 * r.like_count);
            assert!(r.message_count > 0, "person without tagged message reported");
        }
    }

    #[test]
    fn sorted_desc_by_score() {
        let s = testutil::store();
        let rows = run(s, &Params { tag: busiest_tag(s) });
        for w in rows.windows(2) {
            assert!(
                w[0].score > w[1].score
                    || (w[0].score == w[1].score && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn unknown_tag_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { tag: "NotATag".into() }).is_empty());
    }
}
