//! BI 11 — *Unrelated replies* (reconstructed).
//!
//! Find Persons of a given Country whose reply Comments share no Tag
//! with the Message they reply to and contain none of the blacklisted
//! words. Group these replies by (person, tag of the reply) and count
//! replies and the likes they received.
//!
//! The optimized plan is person-driven: the country's residents and
//! their messages, not a scan of every message for the few written by
//! residents.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store, NONE};

use crate::common::has_tag;

snb_core::query_params! {
    /// Parameters of BI 11.
    pub struct Params {
        /// Country name.
        country: String = "country",
        /// Words that disqualify a reply.
        blacklist: Vec<String> = "blacklist",
    }
}

/// One result row of BI 11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Tag name of the reply.
    pub tag_name: String,
    /// Likes received by the qualifying replies.
    pub like_count: u64,
    /// Number of qualifying replies.
    pub reply_count: u64,
}

const LIMIT: usize = 100;

type Key<'s> = (std::cmp::Reverse<u64>, u64, &'s str);

/// One aggregated group: `((person, tag), (likes, replies))`.
type Group = ((Ix, Ix), (u64, u64));

fn sort_key<'s>(store: &'s Store, &((p, t), (likes, _)): &Group) -> Key<'s> {
    (std::cmp::Reverse(likes), store.persons.id[p as usize], store.tags.name.get(t as usize))
}

fn to_row(store: &Store, ((p, t), (likes, replies)): Group) -> Row {
    Row {
        person_id: store.persons.id[p as usize],
        tag_name: store.tags.name[t as usize].to_string(),
        like_count: likes,
        reply_count: replies,
    }
}

/// Whether comment `c` is an "unrelated, clean" reply. A message has at
/// most a few tags, so the shared-tag test scans the parent's list.
fn qualifies(store: &Store, c: Ix, blacklist: &[String]) -> bool {
    let parent = store.messages.reply_of[c as usize];
    parent != NONE
        && !store.message_tag.targets_of(c).any(|t| has_tag(store, parent, t))
        && !blacklist.iter().any(|w| store.messages.content[c as usize].contains(w.as_str()))
}

fn aggregate(
    store: &Store,
    ctx: &QueryContext,
    country: Ix,
    blacklist: &[String],
) -> FxHashMap<(Ix, Ix), (u64, u64)> {
    let residents: Vec<Ix> = store.persons_in_country(country).collect();
    ctx.par_map_reduce(
        residents.len(),
        FxHashMap::<(Ix, Ix), (u64, u64)>::default,
        |acc, range| {
            let mut edges = 0u64;
            for &p in &residents[range] {
                for c in store.person_messages.targets_of(p) {
                    edges += 1;
                    // An untagged reply joins no group: skip it before
                    // its parent's tags or its text are read.
                    let parent = store.messages.reply_of[c as usize];
                    if parent == NONE
                        || store.message_tag.degree(c) == 0
                        || store.message_tag.targets_of(c).any(|t| has_tag(store, parent, t))
                        || blacklist.iter().any(|w| store.messages.content[c as usize].contains(w))
                    {
                        continue;
                    }
                    let likes = store.message_likes.degree(c) as u64;
                    for t in store.message_tag.targets_of(c) {
                        let e = acc.entry((p, t)).or_insert((0, 0));
                        e.0 += likes;
                        e.1 += 1;
                    }
                }
            }
            ctx.metrics().note_edges(edges);
        },
        |into, from| {
            for (k, (l, r)) in from {
                let e = into.entry(k).or_insert((0, 0));
                e.0 += l;
                e.1 += r;
            }
        },
    )
}

/// Optimized implementation: the country's residents, their replies,
/// hash aggregation, bounded top-k.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// country's residents are scanned as parallel morsels, each walking
/// their own messages with the reply, tag, shared-tag and blacklist
/// tests inline; per-worker group maps merge in worker order.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let groups = aggregate(store, ctx, country, &params.blacklist);
    let mut tk = TopK::new(LIMIT);
    for group in groups {
        tk.offer(sort_key(store, &group), group);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, group| to_row(store, group))
}

/// Naive reference: person-major, recomputing qualification per
/// message (the expensive test first, exercising the opposite plan).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let mut items = Vec::new();
    let mut groups: FxHashMap<(Ix, Ix), (u64, u64)> = FxHashMap::default();
    for p in 0..store.persons.len() as Ix {
        for c in store.person_messages.targets_of(p) {
            if store.messages.reply_of[c as usize] == NONE
                || !qualifies(store, c, &params.blacklist)
                || store.person_country(p) != country
            {
                continue;
            }
            let likes = store.message_likes.degree(c) as u64;
            for t in store.message_tag.targets_of(c) {
                let e = groups.entry((p, t)).or_insert((0, 0));
                e.0 += likes;
                e.1 += 1;
            }
        }
    }
    for group in groups {
        items.push((sort_key(store, &group), to_row(store, group)));
    }
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { country: "China".into(), blacklist: vec!["maybe".into(), "great".into()] }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let p2 = Params { country: "India".into(), blacklist: vec![] };
        assert_eq!(run(s, &p2), run_naive(s, &p2));
    }

    #[test]
    fn blacklist_reduces_results() {
        let s = testutil::store();
        let clean: u64 = run(s, &Params { country: "China".into(), blacklist: vec![] })
            .iter()
            .map(|r| r.reply_count)
            .sum();
        let filtered: u64 = run(s, &params()).iter().map(|r| r.reply_count).sum();
        assert!(filtered <= clean);
    }

    #[test]
    fn replies_never_share_parent_tags() {
        let s = testutil::store();
        // Independent semantic check on the qualifier.
        for c in 0..s.messages.len() as Ix {
            let parent = s.messages.reply_of[c as usize];
            if parent == NONE {
                continue;
            }
            if qualifies(s, c, &[]) {
                for t in s.message_tag.targets_of(c) {
                    assert!(
                        !s.message_tag.targets_of(parent).any(|pt| pt == t),
                        "shared tag passed the filter"
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_by_likes() {
        let s = testutil::store();
        let rows = run(s, &params());
        let key = |r: &Row| (std::cmp::Reverse(r.like_count), r.person_id, r.tag_name.clone());
        for w in rows.windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
    }
}
