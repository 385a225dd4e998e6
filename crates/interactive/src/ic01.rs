//! IC 1 — *Friends with certain name*.
//!
//! From a start Person, find Persons with a given first name within
//! three `knows` hops (excluding the start person), with full profile
//! projection. Sort: distance, last name, id; limit 20.

use snb_engine::traverse::khop_neighborhood;
use snb_engine::TopK;
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of IC 1.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// First name to match.
        first_name: String = "firstName",
    }
}

/// One result row of IC 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Friend id.
    pub friend_id: u64,
    /// Last name.
    pub last_name: String,
    /// Distance from the start person (1..=3).
    pub distance: u32,
    /// Birthday.
    pub birthday: snb_core::Date,
    /// Profile creation date.
    pub creation_date: snb_core::DateTime,
    /// Gender string.
    pub gender: String,
    /// Browser used.
    pub browser_used: String,
    /// Location IP.
    pub location_ip: String,
    /// Emails.
    pub emails: Vec<String>,
    /// Languages.
    pub languages: Vec<String>,
    /// Home city name.
    pub city_name: String,
    /// `(university, classYear, city)` triples.
    pub universities: Vec<(String, i32, String)>,
    /// `(company, workFrom, country)` triples.
    pub companies: Vec<(String, i32, String)>,
}

const LIMIT: usize = 20;

fn to_row(store: &Store, p: Ix, distance: u32) -> Row {
    let i = p as usize;
    let universities = store
        .person_study
        .neighbors(p)
        .map(|(org, year)| {
            let city = store.organisations.place[org as usize];
            (
                store.organisations.name[org as usize].to_string(),
                year,
                store.places.name[city as usize].to_string(),
            )
        })
        .collect();
    let companies = store
        .person_work
        .neighbors(p)
        .map(|(org, from)| {
            let country = store.organisations.place[org as usize];
            (
                store.organisations.name[org as usize].to_string(),
                from,
                store.places.name[country as usize].to_string(),
            )
        })
        .collect();
    Row {
        friend_id: store.persons.id[i],
        last_name: store.persons.last_name[i].to_string(),
        distance,
        birthday: store.persons.birthday[i],
        creation_date: store.persons.creation_date[i],
        gender: store.persons.gender[i].as_str().to_string(),
        browser_used: store.persons.browser[i].to_string(),
        location_ip: store.persons.location_ip[i].to_string(),
        emails: store.persons.emails.row_vec(i),
        languages: store.persons.speaks.row_vec(i),
        city_name: store.places.name[store.persons.city[i] as usize].to_string(),
        universities,
        companies,
    }
}

/// Runs IC 1.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    // The name is client-supplied: looked up, never added. A name
    // absent from the first-name dictionary belongs to no person.
    let Some(name) = store.persons.first_name.lookup(&params.first_name) else {
        return Vec::new();
    };
    let mut tk = TopK::new(LIMIT);
    for (p, d) in khop_neighborhood(store, snb_engine::QueryMetrics::sink(), start, 3) {
        if store.persons.first_name.sym(p as usize) != name {
            continue;
        }
        let key = (d, store.persons.last_name.get(p as usize), store.persons.id[p as usize]);
        tk.offer(key, (p, d));
    }
    tk.into_rows(|_, (p, d)| to_row(store, p, d))
}

/// Naive reference: tests every person's name, then recomputes their
/// distance with a from-scratch shortest-path search (no shared BFS).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(start) = store.person(params.person_id) else { return Vec::new() };
    let mut items = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if p == start || store.persons.first_name[p as usize] != params.first_name {
            continue;
        }
        let d = snb_engine::traverse::shortest_path_len(
            store,
            snb_engine::QueryMetrics::sink(),
            start,
            p,
        );
        if !(1..=3).contains(&d) {
            continue;
        }
        let row = to_row(store, p, d as u32);
        let key = (row.distance, row.last_name.clone(), row.friend_id);
        items.push((key, row));
    }
    snb_engine::topk::sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil::{hub_person, store};

    fn common_name(s: &Store) -> String {
        use std::collections::HashMap;
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for n in s.persons.first_name.iter() {
            *freq.entry(n).or_default() += 1;
        }
        freq.into_iter().max_by_key(|&(_, c)| c).unwrap().0.to_string()
    }

    #[test]
    fn results_match_name_and_distance_band() {
        let s = store();
        let name = common_name(s);
        let rows = run(s, &Params { person_id: hub_person(), first_name: name.clone() });
        for r in &rows {
            let p = s.person(r.friend_id).unwrap();
            assert_eq!(s.persons.first_name[p as usize], name);
            assert!((1..=3).contains(&r.distance));
            assert_ne!(r.friend_id, hub_person());
            let d = snb_engine::traverse::shortest_path_len(
                s,
                snb_engine::QueryMetrics::sink(),
                s.person(hub_person()).unwrap(),
                p,
            );
            assert_eq!(d, r.distance as i32, "distance disagrees with BFS");
        }
    }

    #[test]
    fn sorted_by_distance_lastname_id() {
        let s = store();
        let rows = run(s, &Params { person_id: hub_person(), first_name: common_name(s) });
        for w in rows.windows(2) {
            let ka = (w[0].distance, w[0].last_name.clone(), w[0].friend_id);
            let kb = (w[1].distance, w[1].last_name.clone(), w[1].friend_id);
            assert!(ka <= kb);
        }
        assert!(rows.len() <= 20);
    }

    #[test]
    fn unknown_person_or_name_empty() {
        let s = store();
        assert!(run(s, &Params { person_id: 9_999_999, first_name: "X".into() }).is_empty());
        assert!(run(s, &Params { person_id: hub_person(), first_name: "Zzzz".into() }).is_empty());
    }

    #[test]
    fn optimized_matches_naive() {
        let s = store();
        let p = Params { person_id: hub_person(), first_name: common_name(s) };
        assert_eq!(run(s, &p), run_naive(s, &p));
    }
}
