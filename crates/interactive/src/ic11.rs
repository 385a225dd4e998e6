//! IC 11 — *Job referral*.
//!
//! Friends or friends-of-friends of the start person who work at a
//! Company in a given Country, having started before a given year.
//! Sort: workFrom asc, person id asc, company name desc; limit 10.
//! (The query body is a figure placeholder in the supplied extraction;
//! semantics follow the official definition.)

use snb_core::model::OrganisationKind;
use snb_engine::TopK;
use snb_store::Store;

use crate::common::friends_within_2;

snb_core::query_params! {
    /// Parameters of IC 11.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Country name.
        country: String = "countryName",
        /// Exclusive upper bound on `workFrom`.
        work_from_year: i32 = "workFromYear",
    }
}

/// One result row of IC 11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// First name.
    pub person_first_name: String,
    /// Last name.
    pub person_last_name: String,
    /// Company name.
    pub organization_name: String,
    /// Year the person started there.
    pub organization_work_from_year: i32,
}

const LIMIT: usize = 10;

/// Runs IC 11.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(country)) =
        (store.person(params.person_id), store.country_by_name(&params.country))
    else {
        return Vec::new();
    };
    let mut tk = TopK::new(LIMIT);
    for p in friends_within_2(store, start) {
        for (org, from) in store.person_work.neighbors(p) {
            if from >= params.work_from_year {
                continue;
            }
            if store.organisations.kind[org as usize] != OrganisationKind::Company
                || store.organisations.place[org as usize] != country
            {
                continue;
            }
            let row = Row {
                person_id: store.persons.id[p as usize],
                person_first_name: store.persons.first_name[p as usize].to_string(),
                person_last_name: store.persons.last_name[p as usize].to_string(),
                organization_name: store.organisations.name[org as usize].to_string(),
                organization_work_from_year: from,
            };
            let key = (from, row.person_id, std::cmp::Reverse(row.organization_name.clone()));
            tk.push(key, row);
        }
    }
    tk.into_sorted()
}

/// Naive reference: per-person distance recomputation.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    use snb_store::Ix;
    let (Ok(start), Ok(country)) =
        (store.person(params.person_id), store.country_by_name(&params.country))
    else {
        return Vec::new();
    };
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
        for (org, from) in store.person_work.neighbors(p) {
            if from >= params.work_from_year
                || store.organisations.kind[org as usize] != OrganisationKind::Company
                || store.organisations.place[org as usize] != country
            {
                continue;
            }
            let row = Row {
                person_id: store.persons.id[p as usize],
                person_first_name: store.persons.first_name[p as usize].to_string(),
                person_last_name: store.persons.last_name[p as usize].to_string(),
                organization_name: store.organisations.name[org as usize].to_string(),
                organization_work_from_year: from,
            };
            let key = (from, row.person_id, std::cmp::Reverse(row.organization_name.clone()));
            items.push((key, row));
        }
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};

    fn params() -> Params {
        Params { person_id: hub_person(), country: "China".into(), work_from_year: 2025 }
    }

    #[test]
    fn companies_in_country_before_year() {
        let s = store();
        let country = s.country_by_name("China").unwrap();
        for r in run(s, &params()) {
            assert!(r.organization_work_from_year < 2025);
            assert!(r.organization_name.starts_with("China_"));
            let org = (0..s.organisations.len() as u32)
                .find(|&o| s.organisations.name[o as usize] == r.organization_name)
                .unwrap();
            assert_eq!(s.organisations.place[org as usize], country);
        }
    }

    #[test]
    fn sorted_by_year_then_id_then_company_desc() {
        let s = store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            let ka = (
                w[0].organization_work_from_year,
                w[0].person_id,
                std::cmp::Reverse(w[0].organization_name.clone()),
            );
            let kb = (
                w[1].organization_work_from_year,
                w[1].person_id,
                std::cmp::Reverse(w[1].organization_name.clone()),
            );
            assert!(ka <= kb);
        }
        assert!(rows.len() <= 10);
    }

    #[test]
    fn tight_year_bound_filters_all() {
        let s = store();
        let mut p = params();
        p.work_from_year = 1900;
        assert!(run(s, &p).is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = params();
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
