//! BI 13 — *Popular tags per month in a country* (spec-text).
//!
//! Messages located in a given Country, grouped by creation year and
//! month; each group reports its five most popular tags (by message
//! count within the group, ties by tag name). Groups exist even when
//! none of their messages carry tags (empty `popular_tags`).

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of BI 13.
    pub struct Params {
        /// Country name.
        country: String = "country",
    }
}

/// One result row of BI 13.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Creation year.
    pub year: i32,
    /// Creation month.
    pub month: u32,
    /// Up to five `(tag name, count)` pairs, popularity descending.
    pub popular_tags: Vec<(String, u64)>,
}

const LIMIT: usize = 100;
const TAGS_PER_GROUP: usize = 5;

fn sort_key(year: i32, month: u32) -> (std::cmp::Reverse<i32>, u32) {
    // Spec sort: year descending, month ascending.
    (std::cmp::Reverse(year), month)
}

fn top_tags(store: &Store, counts: FxHashMap<Ix, u64>) -> Vec<(String, u64)> {
    let mut tk = TopK::new(TAGS_PER_GROUP);
    for (t, c) in counts {
        tk.offer((std::cmp::Reverse(c), store.tags.name.get(t as usize)), c);
    }
    tk.into_rows(|(_, name), c| (name.to_string(), c))
}

/// Optimized implementation: single scan over messages of the country.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// country filter runs as parallel morsels over the message block,
/// merging per-worker nested (month → tag → count) maps.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let groups = ctx.par_map_reduce(
        store.messages.len(),
        FxHashMap::<(i32, u32), FxHashMap<Ix, u64>>::default,
        |acc, range| {
            for m in range.start as Ix..range.end as Ix {
                if store.messages.country[m as usize] != country {
                    continue;
                }
                let (y, mo) = store.messages.creation_date[m as usize].year_month();
                let g = acc.entry((y, mo)).or_default();
                for t in store.message_tag.targets_of(m) {
                    *g.entry(t).or_insert(0) += 1;
                }
            }
        },
        |into, from| {
            for (k, counts) in from {
                let g = into.entry(k).or_default();
                for (t, c) in counts {
                    *g.entry(t).or_insert(0) += c;
                }
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for ((year, month), counts) in groups {
        tk.offer(sort_key(year, month), (year, month, counts));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (year, month, counts)| Row {
        year,
        month,
        popular_tags: top_tags(store, counts),
    })
}

/// Naive reference: group keys first, then per-group rescans.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let in_country: Vec<Ix> = (0..store.messages.len() as Ix)
        .filter(|&m| store.messages.country[m as usize] == country)
        .collect();
    let mut keys: Vec<(i32, u32)> =
        in_country.iter().map(|&m| store.messages.creation_date[m as usize].year_month()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut items = Vec::new();
    for (year, month) in keys {
        let mut counts: FxHashMap<Ix, u64> = FxHashMap::default();
        for &m in &in_country {
            if store.messages.creation_date[m as usize].year_month() != (year, month) {
                continue;
            }
            for t in store.message_tag.targets_of(m) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        // Sort-truncate top five.
        let mut pairs: Vec<(String, u64)> =
            counts.into_iter().map(|(t, c)| (store.tags.name[t as usize].to_string(), c)).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(TAGS_PER_GROUP);
        items.push((sort_key(year, month), Row { year, month, popular_tags: pairs }));
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
        for c in ["China", "United_States", "Hungary"] {
            let p = Params { country: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn at_most_five_tags_per_group() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.popular_tags.len() <= 5);
            for w in r.popular_tags.windows(2) {
                assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 <= w[1].0));
            }
        }
    }

    #[test]
    fn year_desc_month_asc() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "India".into() });
        for w in rows.windows(2) {
            assert!(w[0].year > w[1].year || (w[0].year == w[1].year && w[0].month < w[1].month));
        }
    }

    #[test]
    fn months_cover_simulation_window() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        for r in &rows {
            assert!((2010..=2012).contains(&r.year));
            assert!((1..=12).contains(&r.month));
        }
    }
}
