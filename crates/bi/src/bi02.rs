//! BI 2 — *Top tags for country, age, gender, time* (reconstructed).
//!
//! Messages created within `[start_date, end_date]` by persons located
//! in one of two countries are grouped by (country, creation month,
//! creator gender, creator age group, tag); groups above a frequency
//! threshold are reported. The age group is `floor(years between the
//! birthday and the simulation end (2013-01-01) / 5)`.
//!
//! Reconstruction notes: the supplied spec extraction elides this query
//! body; parameters, grouping and sort follow the official v0.3.x
//! definition, with the group-count threshold exposed as a parameter
//! (the official text fixes it at 100, far above what laptop scales can
//! produce).
//!
//! The optimized plan is person-driven: the residents of the two
//! countries and their messages, not a date window that covers almost
//! every message.

use rustc_hash::FxHashMap;
use snb_core::model::Gender;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::{age_group, day_range_window};

snb_core::query_params! {
    /// Parameters of BI 2.
    pub struct Params {
        /// Start of the window (inclusive).
        start_date: Date = "startDate",
        /// End of the window (inclusive).
        end_date: Date = "endDate",
        /// First country name.
        country1: String = "country1",
        /// Second country name.
        country2: String = "country2",
        /// Minimum group size (exclusive threshold; official value 100).
        min_count: u64 = "minCount",
    }
}

/// One result row of BI 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Country name the creator lives in.
    pub country_name: String,
    /// Creation month (1–12).
    pub month: u32,
    /// Creator gender.
    pub gender: Gender,
    /// Age group (5-year buckets against 2013-01-01).
    pub age_group: i32,
    /// Tag name.
    pub tag_name: String,
    /// Messages in the group.
    pub message_count: u64,
}

type Key = (Ix, u32, Gender, i32, Ix); // (country, month, gender, ageGroup, tag)

fn sort_key(store: &Store, key: &Key, count: u64) -> impl Ord + Clone {
    (
        std::cmp::Reverse(count),
        store.tags.name.get(key.4 as usize),
        key.3,
        key.1,
        key.2 == Gender::Male, // female < male alphabetically
        store.places.name.get(key.0 as usize),
    )
}

fn to_row(store: &Store, key: Key, count: u64) -> Row {
    Row {
        country_name: store.places.name[key.0 as usize].to_string(),
        month: key.1,
        gender: key.2,
        age_group: key.3,
        tag_name: store.tags.name[key.4 as usize].to_string(),
        message_count: count,
    }
}

const LIMIT: usize = 100;

/// Optimized implementation: the two countries' residents and their
/// messages, hash aggregation, bounded top-k.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// residents of the two countries are scanned as parallel morsels, each
/// walking their own messages with the date test inline (the window
/// usually covers nearly every message, the two countries a few
/// percent of them); per-worker count maps merge in worker order.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let c1 = store.country_by_name(&params.country1);
    let c2 = store.country_by_name(&params.country2);
    let (Ok(c1), Ok(c2)) = (c1, c2) else { return Vec::new() };
    let (lo, hi) = day_range_window(params.start_date, params.end_date);
    let mut residents: Vec<Ix> = store.persons_in_country(c1).collect();
    if c2 != c1 {
        residents.extend(store.persons_in_country(c2));
    }
    let groups = ctx.par_map_reduce(
        residents.len(),
        FxHashMap::<Key, u64>::default,
        |acc, range| {
            let mut edges = 0u64;
            for &p in &residents[range] {
                let country = store.person_country(p);
                let gender = store.persons.gender[p as usize];
                let ag = age_group(store, p);
                for m in store.person_messages.targets_of(p) {
                    edges += 1;
                    let t = store.messages.creation_date[m as usize];
                    if t < lo || t >= hi {
                        continue;
                    }
                    let month = t.month();
                    for tag in store.message_tag.targets_of(m) {
                        edges += 1;
                        *acc.entry((country, month, gender, ag, tag)).or_insert(0) += 1;
                    }
                }
            }
            ctx.metrics().note_edges(edges);
        },
        |into, from| {
            for (k, c) in from {
                *into.entry(k).or_insert(0) += c;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for (key, count) in groups {
        if count > params.min_count {
            tk.offer(sort_key(store, &key, count), (key, count));
        }
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (key, count)| to_row(store, key, count))
}

/// Naive reference: person-major nested loops, full sort.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(c1), Ok(c2)) =
        (store.country_by_name(&params.country1), store.country_by_name(&params.country2))
    else {
        return Vec::new();
    };
    let (lo, hi) = day_range_window(params.start_date, params.end_date);
    let mut groups: FxHashMap<Key, u64> = FxHashMap::default();
    for p in 0..store.persons.len() as Ix {
        let country = store.person_country(p);
        if country != c1 && country != c2 {
            continue;
        }
        for m in store.person_messages.targets_of(p) {
            let t = store.messages.creation_date[m as usize];
            if t < lo || t >= hi {
                continue;
            }
            for tag in store.message_tag.targets_of(m) {
                let key = (
                    country,
                    t.month(),
                    store.persons.gender[p as usize],
                    age_group(store, p),
                    tag,
                );
                *groups.entry(key).or_insert(0) += 1;
            }
        }
    }
    let items: Vec<_> = groups
        .into_iter()
        .filter(|&(_, c)| c > params.min_count)
        .map(|(key, count)| (sort_key(store, &key, count), to_row(store, key, count)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params {
            start_date: Date::from_ymd(2010, 1, 1),
            end_date: Date::from_ymd(2012, 12, 31),
            country1: "China".into(),
            country2: "India".into(),
            min_count: 0,
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
    }

    #[test]
    fn respects_threshold_and_limit() {
        let s = testutil::store();
        let all = run(s, &params());
        assert!(all.len() <= 100);
        let mut p = params();
        p.min_count = 2;
        let filtered = run(s, &p);
        assert!(filtered.iter().all(|r| r.message_count > 2));
        assert!(filtered.len() <= all.len());
    }

    #[test]
    fn only_requested_countries_appear() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.country_name == "China" || r.country_name == "India");
            assert!((1..=12).contains(&r.month));
        }
    }

    #[test]
    fn unknown_country_yields_empty() {
        let s = testutil::store();
        let mut p = params();
        p.country1 = "Atlantis".into();
        assert!(run(s, &p).is_empty());
        assert!(run_naive(s, &p).is_empty());
    }

    #[test]
    fn sorted_by_count_then_tag() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(
                w[0].message_count > w[1].message_count
                    || (w[0].message_count == w[1].message_count && w[0].tag_name <= w[1].tag_name)
            );
        }
    }
}
