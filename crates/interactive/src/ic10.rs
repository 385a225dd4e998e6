//! IC 10 — *Friend recommendation*.
//!
//! Friends of friends (distance exactly 2) born around the 21st of a
//! given month (on/after the 21st of that month, before the 22nd of the
//! next), scored by how much their posting matches the start person's
//! interests: `commonInterestScore = common - uncommon`, where `common`
//! counts their posts with at least one tag the start person is
//! interested in and `uncommon` those without. Sort: score desc, id
//! asc; limit 10.

use rustc_hash::FxHashSet;
use snb_engine::traverse::khop_neighborhood;
use snb_engine::TopK;
use snb_store::{Ix, Store};

/// Parameters of IC 10.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Start person (raw id).
    pub person_id: u64,
    /// Month of interest, 1..=12.
    pub month: u32,
}

/// One result row of IC 10.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Candidate id.
    pub person_id: u64,
    /// First name.
    pub person_first_name: String,
    /// Last name.
    pub person_last_name: String,
    /// `common - uncommon`.
    pub common_interest_score: i64,
    /// Gender string.
    pub person_gender: String,
    /// Home city name.
    pub person_city_name: String,
}

const LIMIT: usize = 10;

/// The birthday window: on/after the 21st of `month`, before the 22nd
/// of the following month (any year).
fn birthday_matches(birthday: snb_core::Date, month: u32) -> bool {
    let (_, m, d) = birthday.to_ymd();
    let next = if month == 12 { 1 } else { month + 1 };
    (m == month && d >= 21) || (m == next && d < 22)
}

/// Runs IC 10.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let interests: FxHashSet<Ix> = store.person_interest.targets_of(start).collect();
    let mut tk = TopK::new(LIMIT);
    for (p, d) in khop_neighborhood(store, snb_engine::QueryMetrics::sink(), start, 2) {
        if d != 2 || !birthday_matches(store.persons.birthday[p as usize], params.month) {
            continue;
        }
        let mut common = 0i64;
        let mut uncommon = 0i64;
        for m in store.person_messages.targets_of(p) {
            if !store.messages.is_post(m) {
                continue;
            }
            if store.message_tag.targets_of(m).any(|t| interests.contains(&t)) {
                common += 1;
            } else {
                uncommon += 1;
            }
        }
        let score = common - uncommon;
        let row = Row {
            person_id: store.persons.id[p as usize],
            person_first_name: store.persons.first_name[p as usize].to_string(),
            person_last_name: store.persons.last_name[p as usize].to_string(),
            common_interest_score: score,
            person_gender: store.persons.gender[p as usize].as_str().to_string(),
            person_city_name: store.places.name[store.persons.city[p as usize] as usize]
                .to_string(),
        };
        tk.push((std::cmp::Reverse(score), row.person_id), row);
    }
    tk.into_sorted()
}

/// Naive reference: per-person distance recomputation and message scan.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let interests: FxHashSet<Ix> = store.person_interest.targets_of(start).collect();
    let mut items = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if p == start
            || snb_engine::traverse::shortest_path_len(
                store,
                snb_engine::QueryMetrics::sink(),
                start,
                p,
            ) != 2
            || !birthday_matches(store.persons.birthday[p as usize], params.month)
        {
            continue;
        }
        let mut common = 0i64;
        let mut uncommon = 0i64;
        for m in 0..store.messages.len() as Ix {
            if store.messages.creator[m as usize] != p || !store.messages.is_post(m) {
                continue;
            }
            if store.message_tag.targets_of(m).any(|t| interests.contains(&t)) {
                common += 1;
            } else {
                uncommon += 1;
            }
        }
        let score = common - uncommon;
        let row = Row {
            person_id: store.persons.id[p as usize],
            person_first_name: store.persons.first_name[p as usize].to_string(),
            person_last_name: store.persons.last_name[p as usize].to_string(),
            common_interest_score: score,
            person_gender: store.persons.gender[p as usize].as_str().to_string(),
            person_city_name: store.places.name[store.persons.city[p as usize] as usize]
                .to_string(),
        };
        items.push(((std::cmp::Reverse(score), row.person_id), row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};

    #[test]
    fn birthday_window_boundaries() {
        use snb_core::Date;
        assert!(birthday_matches(Date::from_ymd(1990, 5, 21), 5));
        assert!(birthday_matches(Date::from_ymd(1990, 5, 31), 5));
        assert!(birthday_matches(Date::from_ymd(1990, 6, 21), 5));
        assert!(!birthday_matches(Date::from_ymd(1990, 6, 22), 5));
        assert!(!birthday_matches(Date::from_ymd(1990, 5, 20), 5));
        // December rolls into January.
        assert!(birthday_matches(Date::from_ymd(1990, 1, 3), 12));
        assert!(birthday_matches(Date::from_ymd(1990, 12, 25), 12));
    }

    #[test]
    fn candidates_are_exactly_two_hops() {
        let s = store();
        let start = s.person(hub_person()).unwrap();
        for month in 1..=12 {
            for r in run(s, &Params { person_id: hub_person(), month }) {
                let p = s.person(r.person_id).unwrap();
                assert_eq!(
                    snb_engine::traverse::shortest_path_len(
                        s,
                        snb_engine::QueryMetrics::sink(),
                        start,
                        p
                    ),
                    2
                );
                assert!(birthday_matches(s.persons.birthday[p as usize], month));
            }
        }
    }

    #[test]
    fn score_matches_recount() {
        let s = store();
        let start = s.person(hub_person()).unwrap();
        let interests: FxHashSet<Ix> = s.person_interest.targets_of(start).collect();
        for month in [3u32, 7, 11] {
            for r in run(s, &Params { person_id: hub_person(), month }) {
                let p = s.person(r.person_id).unwrap();
                let mut common = 0i64;
                let mut uncommon = 0i64;
                for m in s.person_messages.targets_of(p) {
                    if s.messages.is_post(m) {
                        if s.message_tag.targets_of(m).any(|t| interests.contains(&t)) {
                            common += 1;
                        } else {
                            uncommon += 1;
                        }
                    }
                }
                assert_eq!(r.common_interest_score, common - uncommon);
            }
        }
    }

    #[test]
    fn limit_is_10_and_sorted() {
        let s = store();
        for month in 1..=12 {
            let rows = run(s, &Params { person_id: hub_person(), month });
            assert!(rows.len() <= 10);
            for w in rows.windows(2) {
                assert!(
                    w[0].common_interest_score > w[1].common_interest_score
                        || (w[0].common_interest_score == w[1].common_interest_score
                            && w[0].person_id < w[1].person_id)
                );
            }
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        for month in [2u32, 8] {
            let p = Params { person_id: hub_person(), month };
            assert_eq!(run(s, &p), run_naive(s, &p), "month {month}");
        }
    }
}
