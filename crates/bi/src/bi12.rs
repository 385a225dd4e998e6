//! BI 12 — *Trending posts* (spec-text).
//!
//! Find all Messages created after a given date (exclusive) that
//! received more than `like_threshold` likes.
//!
//! The optimized plan scans every message in row order with the like
//! and date tests inline: the curated windows cover nearly all
//! messages, and walking them through the date index gathers each
//! column read.

use std::cmp::Reverse;

use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

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

type TopK = snb_engine::TopK<(Reverse<u64>, u64), (Ix, u64)>;

fn sort_key(store: &Store, m: Ix, likes: u64) -> (Reverse<u64>, u64) {
    (Reverse(likes), store.messages.id[m as usize])
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

/// Optimized implementation: like and date tests in row order, top-k
/// pruning on the like count.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: a scan
/// of every message in row order with the like and date tests inline,
/// as a parallel top-k with per-worker CP-1.3 pruning. It touches
/// neither the date index nor an index list. Once a worker's collector
/// is full, a message with fewer likes than its worst row cannot enter,
/// so the like floor rises to there: most rows then fail one
/// predictable compare and never read their date.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let dates: &[snb_core::DateTime] = &store.messages.creation_date;
    let floor_of =
        |tk: &TopK, floor| tk.threshold().map_or(floor, |&(Reverse(worst), _)| worst - 1);
    let tk = ctx.par_topk(store.messages.len(), LIMIT, |tk, range| {
        let mut floor = floor_of(tk, params.like_threshold);
        for m in range.start as Ix..range.end as Ix {
            let likes = store.message_likes.degree(m) as u64;
            if likes <= floor || dates[m as usize] <= cutoff {
                continue;
            }
            tk.offer(sort_key(store, m, likes), (m, likes));
            floor = floor_of(tk, floor);
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
