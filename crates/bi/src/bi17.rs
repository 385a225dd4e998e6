//! BI 17 — *Friend triangles* (reconstructed).
//!
//! Count the distinct triangles of mutual friendship among Persons of a
//! given Country (unordered person triples where all three `knows` each
//! other).

use rustc_hash::FxHashSet;
use snb_engine::QueryContext;
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of BI 17.
    pub struct Params {
        /// Country name.
        country: String = "country",
    }
}

/// The single result row of BI 17.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Number of distinct triangles.
    pub count: u64,
}

/// Optimized implementation: order-based triangle counting (each
/// triangle found exactly once via `a < b < c`), neighbour set probes.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// members are apexes of independent triangle counts, so the scan
/// parallelizes as a plain integer map-reduce.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let members: Vec<Ix> = store.persons_in_country(country).collect();
    let member_set: FxHashSet<Ix> = members.iter().copied().collect();
    let metrics = ctx.metrics();
    let count = ctx.par_map_reduce(
        members.len(),
        || 0u64,
        |count, range| {
            let mut edges = 0u64;
            for &a in &members[range] {
                let mut nbrs_a: FxHashSet<Ix> = FxHashSet::default();
                for b in store.knows.targets_of(a) {
                    edges += 1;
                    if b > a && member_set.contains(&b) {
                        nbrs_a.insert(b);
                    }
                }
                for &b in &nbrs_a {
                    for c in store.knows.targets_of(b) {
                        edges += 1;
                        if c > b && nbrs_a.contains(&c) {
                            *count += 1;
                        }
                    }
                }
            }
            metrics.note_edges(edges);
        },
        |into, from| *into += from,
    );
    vec![Row { count }]
}

/// Naive reference: cubic scan over country members.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(country) = store.country_by_name(&params.country) else { return Vec::new() };
    let members: Vec<Ix> = store.persons_in_country(country).collect();
    let mut count = 0u64;
    for (i, &a) in members.iter().enumerate() {
        for (j, &b) in members.iter().enumerate().skip(i + 1) {
            if !store.knows.contains(a, b) {
                continue;
            }
            for &c in members.iter().skip(j + 1) {
                if store.knows.contains(a, c) && store.knows.contains(b, c) {
                    count += 1;
                }
            }
        }
    }
    vec![Row { count }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        for c in ["China", "India", "United_States", "Sweden"] {
            let p = Params { country: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn always_single_row() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn homophily_generates_triangles_somewhere() {
        // The generator's correlation dimensions should produce at
        // least one within-country triangle across all countries.
        let s = testutil::store();
        let total: u64 = snb_datagen::dictionaries::COUNTRIES
            .iter()
            .map(|c| run(s, &Params { country: c.name.into() })[0].count)
            .sum();
        assert!(total > 0, "no in-country triangles at all");
    }

    #[test]
    fn unknown_country_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { country: "Mordor".into() }).is_empty());
    }
}
