//! IC 6 — *Tag co-occurrence*.
//!
//! Posts by friends or friends-of-friends that carry a given Tag; count
//! the other tags co-occurring on those posts. Sort: postCount desc,
//! tag name asc; limit 10. (The query body is a figure placeholder in
//! the supplied extraction; semantics follow the official definition.)

use rustc_hash::FxHashMap;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::friends_within_2;

snb_core::query_params! {
    /// Parameters of IC 6.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Tag name.
        tag_name: String = "tagName",
    }
}

/// One result row of IC 6.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Co-occurring tag name.
    pub tag_name: String,
    /// Posts carrying both tags.
    pub post_count: u64,
}

const LIMIT: usize = 10;

/// Runs IC 6.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Runs IC 6 on an explicit execution context: the tag's message list
/// fans out as morsels; co-occurrence counts are additive, so the merge
/// order is immaterial.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(tag)) = (store.person(params.person_id), store.tag_named(&params.tag_name))
    else {
        return Vec::new();
    };
    let circle: rustc_hash::FxHashSet<Ix> = friends_within_2(store, start).into_iter().collect();
    let tagged: Vec<Ix> = store.tag_message.targets_of(tag).collect();
    let counts = ctx.par_map_reduce(
        tagged.len(),
        FxHashMap::<Ix, u64>::default,
        |acc, range| {
            for &m in &tagged[range] {
                if !store.messages.is_post(m)
                    || !circle.contains(&store.messages.creator[m as usize])
                {
                    continue;
                }
                for t in store.message_tag.targets_of(m) {
                    if t != tag {
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
        let row = Row { tag_name: store.tags.name[t as usize].to_string(), post_count: count };
        tk.push((std::cmp::Reverse(count), row.tag_name.clone()), row);
    }
    tk.into_sorted()
}

/// Naive reference: full post scan with per-post tag membership tests.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(tag)) = (store.person(params.person_id), store.tag_named(&params.tag_name))
    else {
        return Vec::new();
    };
    let circle: rustc_hash::FxHashSet<Ix> = friends_within_2(store, start).into_iter().collect();
    let mut counts: FxHashMap<Ix, u64> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !store.messages.is_post(m)
            || !circle.contains(&store.messages.creator[m as usize])
            || !store.message_tag.targets_of(m).any(|t| t == tag)
        {
            continue;
        }
        for t in store.message_tag.targets_of(m) {
            if t != tag {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
    }
    let items: Vec<_> = counts
        .into_iter()
        .map(|(t, count)| {
            let row = Row { tag_name: store.tags.name[t as usize].to_string(), post_count: count };
            ((std::cmp::Reverse(count), row.tag_name.clone()), row)
        })
        .collect();
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};

    fn busy_tag(s: &Store) -> String {
        let t = (0..s.tags.len() as Ix).max_by_key(|&t| s.tag_message.degree(t)).unwrap();
        s.tags.name[t as usize].to_string()
    }

    #[test]
    fn given_tag_never_in_results() {
        let s = store();
        let tag = busy_tag(s);
        let rows = run(s, &Params { person_id: hub_person(), tag_name: tag.clone() });
        assert!(rows.iter().all(|r| r.tag_name != tag));
        assert!(rows.len() <= 10);
    }

    #[test]
    fn counts_verify_against_rescan() {
        let s = store();
        let tag_name = busy_tag(s);
        let tag = s.tag_named(&tag_name).unwrap();
        let start = s.person(hub_person()).unwrap();
        let circle: rustc_hash::FxHashSet<Ix> = friends_within_2(s, start).into_iter().collect();
        for r in run(s, &Params { person_id: hub_person(), tag_name: tag_name.clone() }) {
            let other = s.tag_named(&r.tag_name).unwrap();
            let recount = (0..s.messages.len() as Ix)
                .filter(|&m| {
                    s.messages.is_post(m)
                        && circle.contains(&s.messages.creator[m as usize])
                        && s.message_tag.targets_of(m).any(|t| t == tag)
                        && s.message_tag.targets_of(m).any(|t| t == other)
                })
                .count() as u64;
            assert_eq!(recount, r.post_count, "{}", r.tag_name);
        }
    }

    #[test]
    fn sorted_desc() {
        let s = store();
        let rows = run(s, &Params { person_id: hub_person(), tag_name: busy_tag(s) });
        for w in rows.windows(2) {
            assert!(
                w[0].post_count > w[1].post_count
                    || (w[0].post_count == w[1].post_count && w[0].tag_name <= w[1].tag_name)
            );
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = Params { person_id: hub_person(), tag_name: busy_tag(s) };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
