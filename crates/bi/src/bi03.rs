//! BI 3 — *Tag evolution* (reconstructed).
//!
//! For a given year/month, compare each tag's message volume in that
//! month against the following month and rank tags by the absolute
//! difference — "which topics spiked or collapsed".

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::{messages_in, month_window, next_month};

snb_core::query_params! {
    /// Parameters of BI 3.
    #[derive(Copy)]
    pub struct Params {
        /// Reference year.
        year: i32 = "year",
        /// Reference month (1–12).
        month: u32 = "month",
    }
}

/// One result row of BI 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Tag name.
    pub tag_name: String,
    /// Messages with the tag in the reference month.
    pub count_month1: u64,
    /// Messages with the tag in the following month.
    pub count_month2: u64,
    /// `|count_month1 - count_month2|`.
    pub diff: u64,
}

const LIMIT: usize = 100;

fn sort_key(store: &Store, tag: Ix, c1: u64, c2: u64) -> (std::cmp::Reverse<u64>, &str) {
    (std::cmp::Reverse(c1.abs_diff(c2)), store.tags.name.get(tag as usize))
}

fn to_row(store: &Store, tag: Ix, c1: u64, c2: u64) -> Row {
    Row {
        tag_name: store.tags.name[tag as usize].to_string(),
        count_month1: c1,
        count_month2: c2,
        diff: c1.abs_diff(c2),
    }
}

/// Optimized implementation: per-tag counters over a single scan of the
/// two month windows.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the two
/// month windows are contiguous runs of the date permutation index,
/// each counted with a parallel scan.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (m1_lo, m1_hi) = month_window(params.year, params.month);
    let (ny, nm) = next_month(params.year, params.month);
    let (m2_lo, m2_hi) = month_window(ny, nm);
    let mut counts: FxHashMap<Ix, (u64, u64)> = FxHashMap::default();
    for (slot, (lo, hi)) in [(0usize, (m1_lo, m1_hi)), (1, (m2_lo, m2_hi))] {
        let window = messages_in(store, ctx.metrics(), lo, hi);
        let partial = ctx.par_map_reduce(
            window.len(),
            FxHashMap::<Ix, u64>::default,
            |acc, range| {
                for &m in &window[range] {
                    for tag in store.message_tag.targets_of(m) {
                        *acc.entry(tag).or_insert(0) += 1;
                    }
                }
            },
            |into, from| {
                for (k, c) in from {
                    *into.entry(k).or_insert(0) += c;
                }
            },
        );
        for (tag, c) in partial {
            let e = counts.entry(tag).or_insert((0, 0));
            if slot == 0 {
                e.0 += c;
            } else {
                e.1 += c;
            }
        }
    }
    let mut tk = TopK::new(LIMIT);
    for (tag, (c1, c2)) in counts {
        tk.offer(sort_key(store, tag, c1, c2), (tag, c1, c2));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (tag, c1, c2)| to_row(store, tag, c1, c2))
}

/// Naive reference: tag-major scan through the reverse tag index.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (m1_lo, m1_hi) = month_window(params.year, params.month);
    let (ny, nm) =
        if params.month == 12 { (params.year + 1, 1) } else { (params.year, params.month + 1) };
    let (m2_lo, m2_hi) = month_window(ny, nm);
    let mut items = Vec::new();
    for tag in 0..store.tags.len() as Ix {
        let mut c1 = 0u64;
        let mut c2 = 0u64;
        for m in store.tag_message.targets_of(tag) {
            let t = store.messages.creation_date[m as usize];
            if t >= m1_lo && t < m1_hi {
                c1 += 1;
            } else if t >= m2_lo && t < m2_hi {
                c2 += 1;
            }
        }
        if c1 == 0 && c2 == 0 {
            continue;
        }
        items.push((sort_key(store, tag, c1, c2), to_row(store, tag, c1, c2)));
    }
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        for (y, m) in [(2011, 3), (2011, 12), (2012, 6)] {
            let p = Params { year: y, month: m };
            assert_eq!(run(s, &p), run_naive(s, &p), "{y}-{m}");
        }
    }

    #[test]
    fn december_rolls_into_january() {
        let s = testutil::store();
        let rows = run(s, &Params { year: 2011, month: 12 });
        // Just exercising the year rollover path; diff must be
        // consistent.
        for r in &rows {
            assert_eq!(r.diff, r.count_month1.abs_diff(r.count_month2));
        }
    }

    #[test]
    fn sorted_by_diff_desc_then_name() {
        let s = testutil::store();
        let rows = run(s, &Params { year: 2011, month: 6 });
        assert!(!rows.is_empty());
        for w in rows.windows(2) {
            assert!(
                w[0].diff > w[1].diff || (w[0].diff == w[1].diff && w[0].tag_name <= w[1].tag_name)
            );
        }
    }

    #[test]
    fn window_outside_simulation_is_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { year: 2005, month: 1 }).is_empty());
    }
}
