//! BI 12 — *Trending posts* (spec-text).
//!
//! Find all Messages created after a given date (exclusive) that
//! received more than `like_threshold` likes.

use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::messages_after;

/// Parameters of BI 12.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Messages strictly after this date qualify.
    pub date: snb_core::Date,
    /// Minimum like count (exclusive).
    pub like_threshold: u64,
}

/// One result row of BI 12.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Message id.
    pub message_id: u64,
    /// Message creation timestamp.
    pub creation_date: snb_core::DateTime,
    /// Creator first name.
    pub first_name: String,
    /// Creator last name.
    pub last_name: String,
    /// Number of likes received.
    pub like_count: u64,
}

const LIMIT: usize = 100;

fn sort_key(store: &Store, m: Ix, likes: u64) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(likes), store.messages.id[m as usize])
}

fn to_row(store: &Store, m: Ix, likes: u64) -> Row {
    let c = store.messages.creator[m as usize] as usize;
    Row {
        message_id: store.messages.id[m as usize],
        creation_date: store.messages.creation_date[m as usize],
        first_name: store.persons.first_name[c].to_string(),
        last_name: store.persons.last_name[c].to_string(),
        like_count: likes,
    }
}

/// Optimized implementation: date filter first, degree lookup, top-k
/// pruning on the like count.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the date
/// filter becomes a binary-searched suffix of the permutation index,
/// scanned as a parallel top-k with per-worker CP-1.3 pruning.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let window = messages_after(store, ctx.metrics(), cutoff);
    let tk = ctx.par_topk(window.len(), LIMIT, |tk, range| {
        for &m in &window[range] {
            let likes = store.message_likes.degree(m) as u64;
            if likes <= params.like_threshold {
                continue;
            }
            tk.offer(sort_key(store, m, likes), (m, likes));
        }
    });
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (m, likes)| to_row(store, m, likes))
}

/// Naive reference: materialise all candidates, count likes by
/// iteration, full sort.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let mut items = Vec::new();
    for m in 0..store.messages.len() as Ix {
        if store.messages.creation_date[m as usize] <= cutoff {
            continue;
        }
        let likes = store.message_likes.targets_of(m).count() as u64;
        if likes > params.like_threshold {
            items.push((sort_key(store, m, likes), to_row(store, m, likes)));
        }
    }
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;
    use snb_core::Date;

    fn params() -> Params {
        Params { date: Date::from_ymd(2010, 6, 1), like_threshold: 1 }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let p0 = Params { date: Date::from_ymd(2012, 1, 1), like_threshold: 0 };
        assert_eq!(run(s, &p0), run_naive(s, &p0));
    }

    #[test]
    fn threshold_is_exclusive() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.like_count > 1);
            assert!(r.creation_date > Date::from_ymd(2010, 6, 1).at_midnight());
        }
    }

    #[test]
    fn sorted_by_likes_then_id() {
        let s = testutil::store();
        let rows = run(s, &params());
        assert!(!rows.is_empty());
        assert!(rows.len() <= 100);
        for w in rows.windows(2) {
            assert!(
                w[0].like_count > w[1].like_count
                    || (w[0].like_count == w[1].like_count && w[0].message_id < w[1].message_id)
            );
        }
    }

    #[test]
    fn impossible_threshold_yields_empty() {
        let s = testutil::store();
        let p = Params { date: Date::from_ymd(2010, 1, 1), like_threshold: 1_000_000 };
        assert!(run(s, &p).is_empty());
    }
}
