//! IC 12 — *Expert search*.
//!
//! Direct friends who commented (single-hop reply) on Posts tagged with
//! a Tag in the given TagClass or a descendant; count their replies and
//! collect the matching tag names. Sort: replyCount desc, person id
//! asc; limit 20.

use rustc_hash::{FxHashMap, FxHashSet};
use snb_engine::TopK;
use snb_store::{Ix, Store, NONE};

use crate::common::friends;

snb_core::query_params! {
    /// Parameters of IC 12.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Tag-class name (subtree applies).
        tag_class_name: String = "tagClassName",
    }
}

/// One result row of IC 12.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Friend id.
    pub person_id: u64,
    /// First name.
    pub person_first_name: String,
    /// Last name.
    pub person_last_name: String,
    /// Names of matching tags on the posts replied to (sorted).
    pub tag_names: Vec<String>,
    /// Number of qualifying reply comments.
    pub reply_count: u64,
}

const LIMIT: usize = 20;

/// Runs IC 12.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(class)) =
        (store.person(params.person_id), store.tag_class_named(&params.tag_class_name))
    else {
        return Vec::new();
    };
    let mut acc: FxHashMap<Ix, (u64, FxHashSet<Ix>)> = FxHashMap::default();
    for f in friends(store, start) {
        for c in store.person_messages.targets_of(f) {
            let parent = store.messages.reply_of[c as usize];
            if parent == NONE || !store.messages.is_post(parent) {
                continue; // only direct replies to Posts
            }
            let matching: Vec<Ix> = store
                .message_tag
                .targets_of(parent)
                .filter(|&t| store.tag_in_class_subtree(t, class))
                .collect();
            if matching.is_empty() {
                continue;
            }
            let e = acc.entry(f).or_default();
            e.0 += 1;
            e.1.extend(matching);
        }
    }
    let mut tk = TopK::new(LIMIT);
    for (f, (count, tags)) in acc {
        let mut tag_names: Vec<String> =
            tags.into_iter().map(|t| store.tags.name[t as usize].to_string()).collect();
        tag_names.sort();
        let row = Row {
            person_id: store.persons.id[f as usize],
            person_first_name: store.persons.first_name[f as usize].to_string(),
            person_last_name: store.persons.last_name[f as usize].to_string(),
            tag_names,
            reply_count: count,
        };
        tk.push((std::cmp::Reverse(count), row.person_id), row);
    }
    tk.into_sorted()
}

/// Naive reference: full comment scan with subtree test per tag.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(class)) =
        (store.person(params.person_id), store.tag_class_named(&params.tag_class_name))
    else {
        return Vec::new();
    };
    let friend_set: FxHashSet<Ix> = store.knows.targets_of(start).collect();
    let mut acc: FxHashMap<Ix, (u64, FxHashSet<Ix>)> = FxHashMap::default();
    for c in 0..store.messages.len() as Ix {
        let f = store.messages.creator[c as usize];
        if !friend_set.contains(&f) {
            continue;
        }
        let parent = store.messages.reply_of[c as usize];
        if parent == NONE || !store.messages.is_post(parent) {
            continue;
        }
        let matching: Vec<Ix> = store
            .message_tag
            .targets_of(parent)
            .filter(|&t| store.tag_in_class_subtree(t, class))
            .collect();
        if matching.is_empty() {
            continue;
        }
        let e = acc.entry(f).or_default();
        e.0 += 1;
        e.1.extend(matching);
    }
    let items: Vec<_> = acc
        .into_iter()
        .map(|(f, (count, tags))| {
            let mut tag_names: Vec<String> =
                tags.into_iter().map(|t| store.tags.name[t as usize].to_string()).collect();
            tag_names.sort();
            let row = Row {
                person_id: store.persons.id[f as usize],
                person_first_name: store.persons.first_name[f as usize].to_string(),
                person_last_name: store.persons.last_name[f as usize].to_string(),
                tag_names,
                reply_count: count,
            };
            ((std::cmp::Reverse(count), row.person_id), row)
        })
        .collect();
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};

    fn params() -> Params {
        Params { person_id: hub_person(), tag_class_name: "Person".into() }
    }

    #[test]
    fn replies_target_matching_posts() {
        let s = store();
        let class = s.tag_class_named("Person").unwrap();
        let start = s.person(hub_person()).unwrap();
        let friends: Vec<Ix> = s.knows.targets_of(start).collect();
        for r in run(s, &params()) {
            let f = s.person(r.person_id).unwrap();
            assert!(friends.contains(&f));
            assert!(r.reply_count > 0);
            assert!(!r.tag_names.is_empty());
            for name in &r.tag_names {
                let t = s.tag_named(name).unwrap();
                assert!(s.tag_in_class_subtree(t, class), "tag {name} outside class");
            }
        }
    }

    #[test]
    fn thing_class_covers_leaf_class() {
        // Counting against the root class can only increase counts.
        let s = store();
        let root: u64 = run(s, &Params { person_id: hub_person(), tag_class_name: "Thing".into() })
            .iter()
            .map(|r| r.reply_count)
            .sum();
        let leaf: u64 = run(s, &params()).iter().map(|r| r.reply_count).sum();
        assert!(root >= leaf);
    }

    #[test]
    fn sorted_and_limited() {
        let s = store();
        let rows = run(s, &params());
        assert!(rows.len() <= 20);
        for w in rows.windows(2) {
            assert!(
                w[0].reply_count > w[1].reply_count
                    || (w[0].reply_count == w[1].reply_count && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
        let root = Params { person_id: hub_person(), tag_class_name: "Thing".into() };
        assert_eq!(run(s, &root), run_naive(s, &root));
    }
}
