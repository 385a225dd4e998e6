//! BI 21 — *Zombies in a country* (spec-text).
//!
//! A zombie is a Person of the given country created before `end_date`
//! whose average message rate is in `[0, 1)` messages per month,
//! months counted inclusively on both partial ends (spec example:
//! Jan 31 → Mar 1 is 3 months). For each zombie report likes received
//! from other zombies, total likes received (both restricted to likers
//! whose profiles were created before `end_date`), and the ratio.

use snb_core::datetime::spanned_months;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of BI 21.
    pub struct Params {
        /// Country name.
        country: String = "country",
        /// End of the observation window.
        end_date: Date = "endDate",
    }
}

/// One result row of BI 21.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Zombie person id.
    pub zombie_id: u64,
    /// Likes received from other zombies.
    pub zombie_like_count: u64,
    /// Total likes received.
    pub total_like_count: u64,
    /// `zombie_like_count / total_like_count` (0.0 when undefined).
    pub zombie_score: f64,
}

const LIMIT: usize = 100;

/// Ordered f64 wrapper for the score key (scores are ratios in [0, 1],
/// never NaN).
#[derive(PartialEq, PartialOrd, Clone, Copy)]
struct Score(f64);
impl Eq for Score {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("scores are never NaN")
    }
}

fn sort_key(row: &Row) -> (std::cmp::Reverse<Score>, u64) {
    (std::cmp::Reverse(Score(row.zombie_score)), row.zombie_id)
}

/// Whether person `p` is a zombie wrt `end`: created before `end`, with
/// `< 1` message per spanned month before `end`.
fn is_zombie(store: &Store, p: Ix, end: snb_core::DateTime) -> bool {
    let created = store.persons.creation_date[p as usize];
    if created >= end {
        return false;
    }
    let months = spanned_months(created, end).max(1) as u64;
    let messages = store
        .person_messages
        .targets_of(p)
        .filter(|&m| store.messages.creation_date[m as usize] < end)
        .count() as u64;
    messages < months
}

fn build_rows(store: &Store, ctx: &QueryContext, country: Ix, end: snb_core::DateTime) -> Vec<Row> {
    // Zombie flags for the whole population (likers can be zombies from
    // any country); order-preserving parallel scan over the person ids.
    let zombie: Vec<bool> = ctx.par_scan(store.persons.len(), |out, range| {
        for p in range.start as Ix..range.end as Ix {
            out.push(is_zombie(store, p, end));
        }
    });
    let residents: Vec<Ix> =
        store.persons_in_country(country).filter(|&p| zombie[p as usize]).collect();
    // One row per zombie resident; `par_scan` stitches morsels back in
    // resident order, so the output order matches the sequential loop.
    ctx.par_scan(residents.len(), |out, range| {
        for &p in &residents[range] {
            let mut total = 0u64;
            let mut from_zombies = 0u64;
            for m in store.person_messages.targets_of(p) {
                for liker in store.message_likes.targets_of(m) {
                    if store.persons.creation_date[liker as usize] >= end {
                        continue;
                    }
                    total += 1;
                    if zombie[liker as usize] {
                        from_zombies += 1;
                    }
                }
            }
            let score = if total == 0 { 0.0 } else { from_zombies as f64 / total as f64 };
            out.push(Row {
                zombie_id: store.persons.id[p as usize],
                zombie_like_count: from_zombies,
                total_like_count: total,
                zombie_score: score,
            });
        }
    })
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let end = params.end_date.at_midnight();
    let mut tk = TopK::new(LIMIT);
    for row in build_rows(store, ctx, country, end) {
        tk.push(sort_key(&row), row);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_sorted()
}

/// Naive reference: identical row construction (single-threaded), full
/// sort (zombie classification itself is cross-checked in unit tests).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let end = params.end_date.at_midnight();
    let ctx = QueryContext::single_threaded();
    let items: Vec<_> =
        build_rows(store, &ctx, country, end).into_iter().map(|r| (sort_key(&r), r)).collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { country: "China".into(), end_date: Date::from_ymd(2012, 6, 1) }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
    }

    #[test]
    fn score_is_ratio_or_zero() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.zombie_like_count <= r.total_like_count);
            if r.total_like_count == 0 {
                assert_eq!(r.zombie_score, 0.0);
            } else {
                let expect = r.zombie_like_count as f64 / r.total_like_count as f64;
                assert!((r.zombie_score - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zombies_post_less_than_monthly() {
        let s = testutil::store();
        let end = params().end_date.at_midnight();
        for r in run(s, &params()) {
            let p = s.person(r.zombie_id).unwrap();
            let months = spanned_months(s.persons.creation_date[p as usize], end).max(1) as u64;
            let msgs = s
                .person_messages
                .targets_of(p)
                .filter(|&m| s.messages.creation_date[m as usize] < end)
                .count() as u64;
            assert!(msgs < months, "zombie with {msgs} messages over {months} months");
        }
    }

    #[test]
    fn sorted_by_score_desc() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(
                w[0].zombie_score > w[1].zombie_score
                    || (w[0].zombie_score == w[1].zombie_score && w[0].zombie_id < w[1].zombie_id)
            );
        }
    }

    #[test]
    fn early_end_date_yields_empty() {
        let s = testutil::store();
        let p = Params { country: "China".into(), end_date: Date::from_ymd(2010, 1, 1) };
        assert!(run(s, &p).is_empty());
    }
}
