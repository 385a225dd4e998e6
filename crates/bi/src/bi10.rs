//! BI 10 — *Central person for a tag* (reconstructed).
//!
//! A person's own score for a tag is `100` if they are interested in it
//! plus the number of their Messages created after a given date that
//! carry it; their friends-score is the sum of their friends' scores.
//! Persons with any signal (own or friends score positive) are ranked
//! by the combined total.

use rustc_hash::FxHashMap;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::has_tag;

snb_core::query_params! {
    /// Parameters of BI 10.
    pub struct Params {
        /// Tag name.
        tag: String = "tag",
        /// Messages strictly after this date count toward the score.
        date: Date = "date",
    }
}

/// One result row of BI 10.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Own score (interest bonus + tagged-message count).
    pub score: u64,
    /// Sum of friends' own scores.
    pub friends_score: u64,
}

const LIMIT: usize = 100;
const INTEREST_BONUS: u64 = 100;

fn sort_key(store: &Store, p: Ix, own: u64, friends: u64) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(own + friends), store.persons.id[p as usize])
}

fn to_row(store: &Store, p: Ix, own: u64, friends: u64) -> Row {
    Row { person_id: store.persons.id[p as usize], score: own, friends_score: friends }
}

/// Computes the per-person own scores (shared by both engines; the
/// difference is in how message counts are gathered).
fn scores_via_tag_index(store: &Store, tag: Ix, cutoff: snb_core::DateTime) -> Vec<u64> {
    let mut scores = vec![0u64; store.persons.len()];
    for p in store.interest_person.targets_of(tag) {
        scores[p as usize] += INTEREST_BONUS;
    }
    for m in store.tag_message.targets_of(tag) {
        if store.messages.creation_date[m as usize] > cutoff {
            scores[store.messages.creator[m as usize] as usize] += 1;
        }
    }
    scores
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the own
/// scores are materialized once from the tag index, then the person
/// scan (summing friends' scores over `knows`) runs as a parallel
/// top-k.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let cutoff = params.date.at_midnight();
    let scores = scores_via_tag_index(store, tag, cutoff);
    let tk = ctx.par_topk(store.persons.len(), LIMIT, |tk, range| {
        for p in range.start as Ix..range.end as Ix {
            let own = scores[p as usize];
            let friends: u64 = store.knows.targets_of(p).map(|f| scores[f as usize]).sum();
            if own == 0 && friends == 0 {
                continue;
            }
            tk.offer(sort_key(store, p, own, friends), (p, own, friends));
        }
    });
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, own, friends)| to_row(store, p, own, friends))
}

/// Naive reference: per-person message scans.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(tag) = store.tag_named(&params.tag) else { return Vec::new() };
    let cutoff = params.date.at_midnight();
    let mut scores: FxHashMap<Ix, u64> = FxHashMap::default();
    for p in 0..store.persons.len() as Ix {
        let mut score = 0u64;
        if store.person_interest.targets_of(p).any(|t| t == tag) {
            score += INTEREST_BONUS;
        }
        score += store
            .person_messages
            .targets_of(p)
            .filter(|&m| {
                store.messages.creation_date[m as usize] > cutoff && has_tag(store, m, tag)
            })
            .count() as u64;
        scores.insert(p, score);
    }
    let mut items = Vec::new();
    for p in 0..store.persons.len() as Ix {
        let own = scores[&p];
        let friends: u64 = store.knows.targets_of(p).map(|f| scores[&f]).sum();
        if own == 0 && friends == 0 {
            continue;
        }
        items.push((sort_key(store, p, own, friends), to_row(store, p, own, friends)));
    }
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

    fn params(s: &Store) -> Params {
        Params { tag: busy_tag(s), date: Date::from_ymd(2010, 6, 1) }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = params(s);
        let rows = run(s, &p);
        assert!(!rows.is_empty());
        assert_eq!(rows, run_naive(s, &p));
    }

    #[test]
    fn interest_bonus_applied() {
        let s = testutil::store();
        let p = params(s);
        let tag = s.tag_named(&p.tag).unwrap();
        let rows = run(s, &p);
        for r in &rows {
            let pix = s.person(r.person_id).unwrap();
            let interested = s.person_interest.targets_of(pix).any(|t| t == tag);
            if interested {
                assert!(r.score >= INTEREST_BONUS);
            }
        }
    }

    #[test]
    fn late_date_drops_message_component() {
        let s = testutil::store();
        let mut p = params(s);
        p.date = Date::from_ymd(2013, 1, 1);
        // After the window, only interest bonuses remain.
        for r in run(s, &p) {
            assert!(r.score % INTEREST_BONUS == 0);
        }
    }

    #[test]
    fn sorted_by_total() {
        let s = testutil::store();
        let rows = run(s, &params(s));
        for w in rows.windows(2) {
            let ta = w[0].score + w[0].friends_score;
            let tb = w[1].score + w[1].friends_score;
            assert!(ta > tb || (ta == tb && w[0].person_id < w[1].person_id));
        }
    }
}
