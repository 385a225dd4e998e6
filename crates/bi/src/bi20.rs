//! BI 20 — *High-level topics* (spec-text).
//!
//! For each given TagClass, count the Messages carrying at least one
//! Tag belonging to that class or any of its descendants (transitive
//! `isSubclassOf` closure).
//!
//! The optimized plan walks each class subtree's tags and their
//! messages, marking each message in a bitmap over the message rows:
//! a message with two tags of one subtree is marked twice and counted
//! once.

use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag_in_class_subtree;

snb_core::query_params! {
    /// Parameters of BI 20.
    pub struct Params {
        /// Tag-class names.
        tag_classes: Vec<String> = "tagClasses",
    }
}

/// One result row of BI 20.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Tag-class name (the requested root).
    pub tag_class_name: String,
    /// Distinct messages with a tag in the class subtree.
    pub message_count: u64,
}

const LIMIT: usize = 100;

fn sort_key(row: &Row) -> (std::cmp::Reverse<u64>, String) {
    (std::cmp::Reverse(row.message_count), row.tag_class_name.clone())
}

/// Optimized implementation: expand each class to its subtree's tags,
/// mark their reverse message lists in one bitmap per class.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the tags
/// of every requested subtree fan out as morsels of one parallel call.
/// Each worker allocates its bitmap once per query, one run of
/// `messages.len().div_ceil(64)` words per class; the merge ORs them,
/// and a class's count is its run's popcount.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let classes: Vec<(&String, Ix)> = params
        .tag_classes
        .iter()
        .filter_map(|name| Some((name, store.tag_class_named(name).ok()?)))
        .collect();
    let tags: Vec<(usize, Ix)> = classes
        .iter()
        .enumerate()
        .flat_map(|(i, &(_, class))| {
            let subtree = store.tagclass_subtree(class).into_iter();
            subtree.flat_map(|c| store.tagclass_tags.targets_of(c)).map(move |t| (i, t))
        })
        .collect();
    let words = store.messages.len().div_ceil(64);
    let bits = ctx.par_map_reduce(
        tags.len(),
        || vec![0u64; classes.len() * words],
        |acc, range| {
            for &(i, t) in &tags[range] {
                for m in store.tag_message.targets_of(t) {
                    acc[i * words + m as usize / 64] |= 1 << (m % 64);
                }
            }
        },
        |into, from| into.iter_mut().zip(from).for_each(|(a, b)| *a |= b),
    );
    let mut tk = TopK::new(LIMIT);
    for (i, &(name, _)) in classes.iter().enumerate() {
        let count =
            bits[i * words..(i + 1) * words].iter().map(|w| u64::from(w.count_ones())).sum();
        let row = Row { tag_class_name: name.clone(), message_count: count };
        tk.push(sort_key(&row), row);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_sorted()
}

/// Naive reference: full message scan with the per-message subtree
/// test.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let mut items = Vec::new();
    for name in &params.tag_classes {
        let Ok(class) = store.tag_class_named(name) else { continue };
        let count = (0..store.messages.len() as Ix)
            .filter(|&m| has_tag_in_class_subtree(store, m, class))
            .count() as u64;
        let row = Row { tag_class_name: name.clone(), message_count: count };
        items.push((sort_key(&row), row));
    }
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params {
            tag_classes: vec![
                "Person".into(),
                "Work".into(),
                "Event".into(),
                "Organisation".into(),
            ],
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
    }

    #[test]
    fn subtree_dominates_leaf() {
        let s = testutil::store();
        // The Person class subtree includes MusicalArtist, so its count
        // must be at least the leaf count.
        let person = run(s, &Params { tag_classes: vec!["Person".into()] })[0].message_count;
        let artist = run(s, &Params { tag_classes: vec!["MusicalArtist".into()] })[0].message_count;
        assert!(person >= artist);
        assert!(person > 0);
    }

    #[test]
    fn thing_covers_everything_tagged() {
        let s = testutil::store();
        let thing = run(s, &Params { tag_classes: vec!["Thing".into()] })[0].message_count;
        let tagged = (0..s.messages.len() as Ix)
            .filter(|&m| s.message_tag.targets_of(m).next().is_some())
            .count() as u64;
        assert_eq!(thing, tagged);
    }

    #[test]
    fn unknown_classes_skipped() {
        let s = testutil::store();
        let rows = run(s, &Params { tag_classes: vec!["Ghost".into(), "Person".into()] });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tag_class_name, "Person");
    }

    #[test]
    fn sorted_by_count_then_name() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(sort_key(&w[0]) < sort_key(&w[1]));
        }
    }
}
