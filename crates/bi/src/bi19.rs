//! BI 19 — *Stranger's interaction* (reconstructed).
//!
//! *Strangers* of a person are other persons they do not know who are
//! members of at least one forum tagged with a tag of `tag_class1`
//! *and* at least one forum tagged with a tag of `tag_class2` (direct
//! class relation). For each Person born after a given date, count
//! their direct reply Comments to strangers' Messages and the number of
//! distinct strangers interacted with; report persons with at least
//! one interaction.
//!
//! The optimized plan is replier-major: the candidate strangers come
//! from the two classes' tags, and each replier walks only their own
//! messages, with friendship and distinctness answered by stamp arrays
//! instead of a friend-list scan or a hash set per person.

use rustc_hash::FxHashSet;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store, NONE};

/// Parameters of BI 19.
#[derive(Clone, Debug)]
pub struct Params {
    /// Persons born strictly after this date qualify.
    pub date: Date,
    /// First tag-class name.
    pub tag_class1: String,
    /// Second tag-class name.
    pub tag_class2: String,
}

/// One result row of BI 19.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Distinct strangers the person replied to.
    pub stranger_count: u64,
    /// Reply comments to strangers' messages.
    pub interaction_count: u64,
}

const LIMIT: usize = 100;

type Key = (std::cmp::Reverse<u64>, u64);

fn sort_key(row: &Row) -> Key {
    (std::cmp::Reverse(row.interaction_count), row.person_id)
}

/// Marks persons who are members of ≥1 forum tagged with each class,
/// walking class → its tags → their forums → members, so only forums
/// that carry a tag of either class are visited. Returns the bitmap and
/// the number of CSR edges walked.
fn class_members(store: &Store, c1: Ix, c2: Ix) -> (Vec<bool>, u64) {
    let mut mark = vec![0u8; store.persons.len()];
    let mut edges = 0u64;
    for (bit, class) in [(1u8, c1), (2u8, c2)] {
        for t in store.tagclass_tags.targets_of(class) {
            edges += 1;
            for f in store.tag_forum.targets_of(t) {
                edges += 1;
                for p in store.forum_member.targets_of(f) {
                    mark[p as usize] |= bit;
                    edges += 1;
                }
            }
        }
    }
    (mark.into_iter().map(|m| m == 3).collect(), edges)
}

/// One worker's scratch: `friend[f] == r` while replier `r` is counted
/// and `f` knows `r`; `seen[a] == r` once `r` has replied to stranger
/// `a`. Person indices never repeat across a scan, so neither array is
/// ever cleared.
struct Replier {
    friend: Vec<Ix>,
    seen: Vec<Ix>,
    tk: TopK<Key, Row>,
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// stranger-candidate bitmap is built from the two classes' tags, then
/// persons born after the date are scanned as parallel morsels. Each
/// replier walks their messages to the replied-to author; their friends
/// are stamped once, on the first reply that reaches a candidate, and a
/// stranger counts as distinct the first time it is stamped `seen`.
/// Worker top-k heaps merge in worker order.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.tag_class_named(&params.tag_class1), store.tag_class_named(&params.tag_class2))
    else {
        return Vec::new();
    };
    let (candidate_stranger, edges) = class_members(store, c1, c2);
    ctx.metrics().note_edges(edges);
    let n = store.persons.len();
    let acc = ctx.par_map_reduce(
        n,
        || Replier { friend: vec![NONE; n], seen: vec![NONE; n], tk: TopK::new(LIMIT) },
        |acc, range| {
            let mut edges = 0u64;
            for r in range.start as Ix..range.end as Ix {
                if store.persons.birthday[r as usize] <= params.date {
                    continue;
                }
                let mut friends_stamped = false;
                let (mut strangers, mut interactions) = (0u64, 0u64);
                for c in store.person_messages.targets_of(r) {
                    edges += 1;
                    let parent = store.messages.reply_of[c as usize];
                    if parent == NONE {
                        continue;
                    }
                    let author = store.messages.creator[parent as usize];
                    if author == r || !candidate_stranger[author as usize] {
                        continue;
                    }
                    if !friends_stamped {
                        for f in store.knows.targets_of(r) {
                            acc.friend[f as usize] = r;
                            edges += 1;
                        }
                        friends_stamped = true;
                    }
                    if acc.friend[author as usize] == r {
                        continue;
                    }
                    interactions += 1;
                    if acc.seen[author as usize] != r {
                        acc.seen[author as usize] = r;
                        strangers += 1;
                    }
                }
                if interactions > 0 {
                    let row = Row {
                        person_id: store.persons.id[r as usize],
                        stranger_count: strangers,
                        interaction_count: interactions,
                    };
                    acc.tk.push(sort_key(&row), row);
                }
            }
            ctx.metrics().note_edges(edges);
        },
        |into, from| into.tk.merge_from(from.tk),
    );
    ctx.metrics().note_topk(&acc.tk);
    acc.tk.into_sorted()
}

/// Naive reference: person-major with per-pair stranger re-testing.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.tag_class_named(&params.tag_class1), store.tag_class_named(&params.tag_class2))
    else {
        return Vec::new();
    };
    let is_stranger_candidate = |p: Ix| {
        let member_of = |class: Ix| {
            store.member_forum.targets_of(p).any(|f| {
                store.forum_tag.targets_of(f).any(|t| store.tags.class[t as usize] == class)
            })
        };
        member_of(c1) && member_of(c2)
    };
    let mut items = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if store.persons.birthday[p as usize] <= params.date {
            continue;
        }
        let friends: FxHashSet<Ix> = store.knows.targets_of(p).collect();
        let mut strangers = FxHashSet::default();
        let mut interactions = 0u64;
        for c in store.person_messages.targets_of(p) {
            let parent = store.messages.reply_of[c as usize];
            if parent == NONE {
                continue;
            }
            let author = store.messages.creator[parent as usize];
            if author == p || friends.contains(&author) || !is_stranger_candidate(author) {
                continue;
            }
            strangers.insert(author);
            interactions += 1;
        }
        if interactions == 0 {
            continue;
        }
        let row = Row {
            person_id: store.persons.id[p as usize],
            stranger_count: strangers.len() as u64,
            interaction_count: interactions,
        };
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
            date: Date::from_ymd(1984, 1, 1),
            tag_class1: "MusicalArtist".into(),
            tag_class2: "Band".into(),
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let p2 = Params {
            date: Date::from_ymd(1980, 1, 1),
            tag_class1: "Scientist".into(),
            tag_class2: "Writer".into(),
        };
        assert_eq!(run(s, &p2), run_naive(s, &p2));
    }

    #[test]
    fn stranger_count_bounded_by_interactions() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.stranger_count <= r.interaction_count);
            assert!(r.interaction_count > 0);
        }
    }

    #[test]
    fn birthday_filter_applies() {
        let s = testutil::store();
        let p = Params { date: Date::from_ymd(1996, 1, 1), ..params() };
        // Everyone is born 1980-1995, so no repliers qualify.
        assert!(run(s, &p).is_empty());
    }

    #[test]
    fn sorted_desc() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(sort_key(&w[0]) < sort_key(&w[1]));
        }
    }
}
