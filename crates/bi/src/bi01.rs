//! BI 1 — *Posting summary* (spec-text).
//!
//! Given a date, find all Messages created before that date and group
//! them three ways: by creation year, by kind (Post vs Comment), and by
//! content-length category (short / one-liner / tweet / long). Report
//! per-group count, average and total length, and the group's share of
//! all matching messages.

use rustc_hash::FxHashMap;
use snb_core::model::length_category;
use snb_core::Date;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::messages_before;

snb_core::query_params! {
    /// Parameters of BI 1.
    #[derive(Copy)]
    pub struct Params {
        /// Only messages created strictly before this date count.
        date: Date = "date",
    }
}

/// One result row of BI 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Creation year of the group.
    pub year: i32,
    /// `true` for Comments, `false` for Posts.
    pub is_comment: bool,
    /// Length category `0..=3` (spec BI 1 boundaries).
    pub length_category: u8,
    /// Messages in the group.
    pub message_count: u64,
    /// Average content length.
    pub average_message_length: f64,
    /// Total content length.
    pub sum_message_length: u64,
    /// Group share of all messages created before the date.
    pub percentage_of_messages: f64,
}

/// Sort order: year descending, Posts before Comments, category
/// ascending (no limit — the group count is inherently small).
fn sort_rows(rows: &mut [Row]) {
    rows.sort_by(|a, b| {
        b.year
            .cmp(&a.year)
            .then(a.is_comment.cmp(&b.is_comment))
            .then(a.length_category.cmp(&b.length_category))
    });
}

/// Optimized implementation: single scan, dense group key.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: parallel
/// scan of the binary-searched date window, per-worker group maps
/// merged in worker order (integer sums, so the merge is exact).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let window = messages_before(store, ctx.metrics(), cutoff);
    let total = window.len() as u64;
    let groups = ctx.par_map_reduce(
        window.len(),
        FxHashMap::<(i32, bool, u8), (u64, u64)>::default,
        |acc, range| {
            for &m in &window[range] {
                let year = store.messages.creation_date[m as usize].year();
                let is_comment = !store.messages.is_post(m);
                let len = store.messages.length[m as usize];
                let e = acc.entry((year, is_comment, length_category(len))).or_insert((0, 0));
                e.0 += 1;
                e.1 += len as u64;
            }
        },
        |into, from| {
            for (k, (c, s)) in from {
                let e = into.entry(k).or_insert((0, 0));
                e.0 += c;
                e.1 += s;
            }
        },
    );
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|((year, is_comment, cat), (count, sum))| Row {
            year,
            is_comment,
            length_category: cat,
            message_count: count,
            average_message_length: sum as f64 / count as f64,
            sum_message_length: sum,
            percentage_of_messages: count as f64 / total as f64,
        })
        .collect();
    sort_rows(&mut rows);
    rows
}

/// Naive reference: re-scans the message table once per group.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let matching: Vec<Ix> =
        messages_before(store, snb_engine::QueryMetrics::sink(), cutoff).to_vec();
    let total = matching.len() as u64;
    let mut keys: Vec<(i32, bool, u8)> = matching
        .iter()
        .map(|&m| {
            (
                store.messages.creation_date[m as usize].year(),
                !store.messages.is_post(m),
                length_category(store.messages.length[m as usize]),
            )
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut rows = Vec::new();
    for (year, is_comment, cat) in keys {
        let members: Vec<Ix> = matching
            .iter()
            .copied()
            .filter(|&m| {
                store.messages.creation_date[m as usize].year() == year
                    && store.messages.is_post(m) != is_comment
                    && length_category(store.messages.length[m as usize]) == cat
            })
            .collect();
        let count = members.len() as u64;
        let sum: u64 = members.iter().map(|&m| store.messages.length[m as usize] as u64).sum();
        rows.push(Row {
            year,
            is_comment,
            length_category: cat,
            message_count: count,
            average_message_length: sum as f64 / count as f64,
            sum_message_length: sum,
            percentage_of_messages: count as f64 / total as f64,
        });
    }
    sort_rows(&mut rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = Params { date: testutil::mid_date() };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }

    #[test]
    fn percentages_sum_to_one() {
        let s = testutil::store();
        let rows = run(s, &Params { date: Date::from_ymd(2013, 1, 1) });
        assert!(!rows.is_empty());
        let total: f64 = rows.iter().map(|r| r.percentage_of_messages).sum();
        assert!((total - 1.0).abs() < 1e-9, "percentages sum to {total}");
        let count: u64 = rows.iter().map(|r| r.message_count).sum();
        assert_eq!(count as usize, s.messages.len());
    }

    #[test]
    fn sorted_year_desc_posts_first() {
        let s = testutil::store();
        let rows = run(s, &Params { date: Date::from_ymd(2013, 1, 1) });
        for w in rows.windows(2) {
            let key = |r: &Row| (-r.year, r.is_comment, r.length_category);
            assert!(key(&w[0]) < key(&w[1]), "order violated: {w:?}");
        }
    }

    #[test]
    fn early_date_yields_empty() {
        let s = testutil::store();
        let rows = run(s, &Params { date: Date::from_ymd(2009, 1, 1) });
        assert!(rows.is_empty());
    }

    #[test]
    fn categories_respect_boundaries() {
        let s = testutil::store();
        let rows = run(s, &Params { date: Date::from_ymd(2013, 1, 1) });
        for r in &rows {
            assert!(r.length_category <= 3);
            if r.length_category == 0 && r.message_count > 0 {
                assert!(r.average_message_length < 40.0);
            }
            if r.length_category == 3 {
                assert!(r.average_message_length >= 160.0);
            }
        }
    }
}
