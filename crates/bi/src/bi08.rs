//! BI 8 — *Related topics* (reconstructed).
//!
//! For a given Tag, find the Tags attached to Comments that directly
//! reply to Messages carrying the given Tag — excluding the given Tag
//! itself and excluding replies that also carry it — and count the
//! replies per related tag.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag;

snb_core::query_params! {
    /// Parameters of BI 8.
    pub struct Params {
        /// Tag name.
        tag: String = "tag",
    }
}

/// One result row of BI 8.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Related tag name.
    pub related_tag_name: String,
    /// Number of reply comments carrying the related tag.
    pub count: u64,
}

const LIMIT: usize = 100;

fn sort_key(store: &Store, t: Ix, count: u64) -> (std::cmp::Reverse<u64>, &str) {
    (std::cmp::Reverse(count), store.tags.name.get(t as usize))
}

fn to_row(store: &Store, t: Ix, count: u64) -> Row {
    Row { related_tag_name: store.tags.name[t as usize].to_string(), count }
}

/// Optimized implementation: walk the tag's messages, then their direct
/// replies.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: parallel
/// morsels over the tag's message list; per-worker tag counters merged
/// in worker order.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let tagged: Vec<Ix> = store.tag_message.targets_of(tag).collect();
    let counts = ctx.par_map_reduce(
        tagged.len(),
        FxHashMap::<Ix, u64>::default,
        |acc, range| {
            for &m in &tagged[range] {
                for reply in store.message_replies.targets_of(m) {
                    if has_tag(store, reply, tag) {
                        continue;
                    }
                    for t in store.message_tag.targets_of(reply) {
                        *acc.entry(t).or_insert(0) += 1;
                    }
                }
            }
        },
        |into, from| {
            for (k, c) in from {
                *into.entry(k).or_insert(0) += c;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for (t, count) in counts {
        tk.offer(sort_key(store, t, count), (t, count));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (t, count)| to_row(store, t, count))
}

/// Naive reference: comment-major scan testing the parent's tags.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let mut counts: FxHashMap<Ix, u64> = FxHashMap::default();
    for c in 0..store.messages.len() as Ix {
        let parent = store.messages.reply_of[c as usize];
        if parent == snb_store::NONE {
            continue;
        }
        if !has_tag(store, parent, tag) || has_tag(store, c, tag) {
            continue;
        }
        for t in store.message_tag.targets_of(c) {
            *counts.entry(t).or_insert(0) += 1;
        }
    }
    let items: Vec<_> = counts
        .into_iter()
        .map(|(t, count)| (sort_key(store, t, count), to_row(store, t, count)))
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
        assert_eq!(run(s, &p), run_naive(s, &p));
    }

    #[test]
    fn given_tag_excluded() {
        let s = testutil::store();
        let name = busy_tag(s);
        let rows = run(s, &Params { tag: name.clone() });
        assert!(rows.iter().all(|r| r.related_tag_name != name));
    }

    #[test]
    fn sorted_by_count_then_name() {
        let s = testutil::store();
        let rows = run(s, &Params { tag: busy_tag(s) });
        for w in rows.windows(2) {
            assert!(
                w[0].count > w[1].count
                    || (w[0].count == w[1].count && w[0].related_tag_name <= w[1].related_tag_name)
            );
        }
    }

    #[test]
    fn unknown_tag_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { tag: "Void".into() }).is_empty());
    }
}
