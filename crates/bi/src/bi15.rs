//! BI 15 — *Social normals* (reconstructed).
//!
//! For a given Country, compute the "social normal": the floor of the
//! average number of same-country friends of the country's residents.
//! Return the residents whose same-country friend count equals it.

use snb_engine::topk::sort_truncate;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

use crate::common::persons_of_country;

snb_core::query_params! {
    /// Parameters of BI 15.
    pub struct Params {
        /// Country name.
        country: String = "country",
    }
}

/// One result row of BI 15.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// Same-country friend count (equals the social normal).
    pub count: u64,
}

const LIMIT: usize = 100;

fn in_country_degree(store: &Store, p: Ix, country: Ix) -> u64 {
    store.knows.targets_of(p).filter(|&f| store.person_country(f) == country).count() as u64
}

/// Optimized implementation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// per-resident friend counting runs as an order-preserving parallel
/// scan (`par_scan` stitches morsel outputs back in resident order).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let residents = persons_of_country(store, country);
    if residents.is_empty() {
        return Vec::new();
    }
    let metrics = ctx.metrics();
    let counts: Vec<u64> = ctx.par_scan(residents.len(), |out, range| {
        let mut edges = 0u64;
        for &p in &residents[range] {
            let mut degree = 0u64;
            for f in store.knows.targets_of(p) {
                edges += 1;
                if store.person_country(f) == country {
                    degree += 1;
                }
            }
            out.push(degree);
        }
        metrics.note_edges(edges);
    });
    let normal = counts.iter().sum::<u64>() / residents.len() as u64;
    let mut rows: Vec<Row> = residents
        .iter()
        .zip(&counts)
        .filter(|&(_, &c)| c == normal)
        .map(|(&p, &c)| Row { person_id: store.persons.id[p as usize], count: c })
        .collect();
    rows.sort_by_key(|r| r.person_id);
    rows.truncate(LIMIT);
    rows
}

/// Naive reference: recomputes the per-person counts from scratch and
/// filters with a full sort.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let mut residents = Vec::new();
    for p in 0..store.persons.len() as Ix {
        if store.person_country(p) == country {
            residents.push(p);
        }
    }
    if residents.is_empty() {
        return Vec::new();
    }
    let total: u64 = residents.iter().map(|&p| in_country_degree(store, p, country)).sum();
    let normal = total / residents.len() as u64;
    let items: Vec<_> = residents
        .into_iter()
        .filter(|&p| in_country_degree(store, p, country) == normal)
        .map(|p| {
            let row = Row { person_id: store.persons.id[p as usize], count: normal };
            (row.person_id, row)
        })
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        for c in ["China", "India", "Germany", "Sweden"] {
            let p = Params { country: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn all_rows_share_the_normal_value() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        if let Some(first) = rows.first() {
            assert!(rows.iter().all(|r| r.count == first.count));
        }
    }

    #[test]
    fn sorted_by_person_id() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "India".into() });
        for w in rows.windows(2) {
            assert!(w[0].person_id < w[1].person_id);
        }
    }

    #[test]
    fn counts_match_independent_recount() {
        let s = testutil::store();
        let country = s.country_by_name("China").unwrap();
        for r in run(s, &Params { country: "China".into() }) {
            let p = s.person(r.person_id).unwrap();
            let recount =
                s.knows.targets_of(p).filter(|&f| s.person_country(f) == country).count() as u64;
            assert_eq!(recount, r.count);
        }
    }
}
