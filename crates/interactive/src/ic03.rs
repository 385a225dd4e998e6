//! IC 3 — *Friends and friends of friends that have been to given
//! countries*.
//!
//! Persons within two hops of the start person who are foreign to both
//! countries X and Y and created messages in both within the period
//! `[start_date, start_date + duration_days)`. Sort: xCount desc, id
//! asc; limit 20.

use snb_engine::{QueryContext, TopK};
use snb_store::Store;

use crate::common::friends_within_2;

snb_core::query_params! {
    /// Parameters of IC 3.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Country X name.
        country_x: String = "countryXName",
        /// Country Y name.
        country_y: String = "countryYName",
        /// Period start.
        start_date: snb_core::Date = "startDate",
        /// Period length in days (closed-open interval).
        duration_days: u32 = "durationDays",
    }
}

/// One result row of IC 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// First name.
    pub person_first_name: String,
    /// Last name.
    pub person_last_name: String,
    /// Messages from country X in the window.
    pub x_count: u64,
    /// Messages from country Y in the window.
    pub y_count: u64,
    /// `x_count + y_count`.
    pub count: u64,
}

const LIMIT: usize = 20;

/// Runs IC 3.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Runs IC 3 on an explicit execution context: each circle member's
/// message-window count is independent, so the circle fans out as
/// morsels with per-worker bounded heaps.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(cx), Ok(cy)) = (
        store.person(params.person_id),
        store.country_by_name(&params.country_x),
        store.country_by_name(&params.country_y),
    ) else {
        return Vec::new();
    };
    let lo = params.start_date.at_midnight();
    let hi = params.start_date.plus_days(params.duration_days as i32).at_midnight();
    let circle = friends_within_2(store, start);
    let tk: TopK<_, Row> = ctx.par_topk(circle.len(), LIMIT, |tk, range| {
        for &p in &circle[range] {
            let home = store.person_country(p);
            if home == cx || home == cy {
                continue; // only foreigners to both countries
            }
            let mut x = 0u64;
            let mut y = 0u64;
            for m in store.person_messages.targets_of(p) {
                let t = store.messages.creation_date[m as usize];
                if t < lo || t >= hi {
                    continue;
                }
                let c = store.messages.country[m as usize];
                if c == cx {
                    x += 1;
                } else if c == cy {
                    y += 1;
                }
            }
            if x == 0 || y == 0 {
                continue;
            }
            let row = Row {
                person_id: store.persons.id[p as usize],
                person_first_name: store.persons.first_name[p as usize].to_string(),
                person_last_name: store.persons.last_name[p as usize].to_string(),
                x_count: x,
                y_count: y,
                count: x + y,
            };
            tk.push((std::cmp::Reverse(x), row.person_id), row);
        }
    });
    tk.into_sorted()
}

/// Naive reference: distance recomputed per person, counts via full
/// message scan.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    use snb_store::Ix;
    let (Ok(start), Ok(cx), Ok(cy)) = (
        store.person(params.person_id),
        store.country_by_name(&params.country_x),
        store.country_by_name(&params.country_y),
    ) else {
        return Vec::new();
    };
    let lo = params.start_date.at_midnight();
    let hi = params.start_date.plus_days(params.duration_days as i32).at_midnight();
    let mut items = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if p == start {
            continue;
        }
        let d = snb_engine::traverse::shortest_path_len(
            store,
            snb_engine::QueryMetrics::sink(),
            start,
            p,
        );
        if !(1..=2).contains(&d) {
            continue;
        }
        let home = store.person_country(p);
        if home == cx || home == cy {
            continue;
        }
        let mut x = 0u64;
        let mut y = 0u64;
        for m in 0..store.messages.len() as Ix {
            if store.messages.creator[m as usize] != p {
                continue;
            }
            let t = store.messages.creation_date[m as usize];
            if t < lo || t >= hi {
                continue;
            }
            let c = store.messages.country[m as usize];
            if c == cx {
                x += 1;
            } else if c == cy {
                y += 1;
            }
        }
        if x == 0 || y == 0 {
            continue;
        }
        let row = Row {
            person_id: store.persons.id[p as usize],
            person_first_name: store.persons.first_name[p as usize].to_string(),
            person_last_name: store.persons.last_name[p as usize].to_string(),
            x_count: x,
            y_count: y,
            count: x + y,
        };
        items.push(((std::cmp::Reverse(x), row.person_id), row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};
    use snb_core::Date;

    fn params() -> Params {
        Params {
            person_id: hub_person(),
            country_x: "China".into(),
            country_y: "India".into(),
            start_date: Date::from_ymd(2010, 1, 1),
            duration_days: 1096,
        }
    }

    #[test]
    fn rows_are_foreign_with_both_counts() {
        let s = store();
        let cx = s.country_by_name("China").unwrap();
        let cy = s.country_by_name("India").unwrap();
        for r in run(s, &params()) {
            let p = s.person(r.person_id).unwrap();
            let home = s.person_country(p);
            assert_ne!(home, cx);
            assert_ne!(home, cy);
            assert!(r.x_count > 0 && r.y_count > 0);
            assert_eq!(r.count, r.x_count + r.y_count);
        }
    }

    #[test]
    fn sorted_by_xcount() {
        let s = store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(
                w[0].x_count > w[1].x_count
                    || (w[0].x_count == w[1].x_count && w[0].person_id < w[1].person_id)
            );
        }
    }

    #[test]
    fn zero_duration_empty() {
        let s = store();
        let mut p = params();
        p.duration_days = 0;
        assert!(run(s, &p).is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
