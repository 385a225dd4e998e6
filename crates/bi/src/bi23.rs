//! BI 23 — *Holiday destinations* (reconstructed).
//!
//! Messages created abroad by residents of a given Country, grouped by
//! (destination country, creation month); count messages per group.

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

snb_core::query_params! {
    /// Parameters of BI 23.
    pub struct Params {
        /// Home country name.
        country: String = "country",
    }
}

/// One result row of BI 23.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Messages in the group.
    pub message_count: u64,
    /// Destination country name.
    pub destination_name: String,
    /// Creation month (1–12).
    pub month: u32,
}

const LIMIT: usize = 100;

type Key = (std::cmp::Reverse<u64>, &'static str, u32);

fn sort_key(store: &Store, dest: Ix, month: u32, count: u64) -> Key {
    (std::cmp::Reverse(count), store.places.name.get(dest as usize), month)
}

fn to_row(store: &Store, dest: Ix, month: u32, count: u64) -> Row {
    Row {
        message_count: count,
        destination_name: store.places.name[dest as usize].to_string(),
        month,
    }
}

/// Optimized implementation: start from the selective side — residents
/// of the home country via the city→person index — and only touch
/// their messages (CP-2.1 join ordering: the country filter is far more
/// selective than the message scan).
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the home
/// country's residents fan out as morsels; group counts are additive so
/// the deterministic merge order reproduces the sequential totals.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(home) = store.country_by_name(&params.country) else { return Vec::new() };
    let residents: Vec<Ix> = store.persons_in_country(home).collect();
    let groups = ctx.par_map_reduce(
        residents.len(),
        FxHashMap::<(Ix, u32), u64>::default,
        |acc, range| {
            for &p in &residents[range] {
                for m in store.person_messages.targets_of(p) {
                    let dest = store.messages.country[m as usize];
                    if dest == home {
                        continue;
                    }
                    let month = store.messages.creation_date[m as usize].month();
                    *acc.entry((dest, month)).or_insert(0) += 1;
                }
            }
        },
        |into, from| {
            for (k, c) in from {
                *into.entry(k).or_insert(0) += c;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for ((dest, month), count) in groups {
        tk.offer(sort_key(store, dest, month, count), (dest, month, count));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (dest, month, count)| to_row(store, dest, month, count))
}

/// Naive reference: full message-table scan with per-message creator
/// location test.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(home) = store.country_by_name(&params.country) else { return Vec::new() };
    let mut groups: FxHashMap<(Ix, u32), u64> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        let dest = store.messages.country[m as usize];
        if dest == home {
            continue;
        }
        let creator = store.messages.creator[m as usize];
        if store.person_country(creator) != home {
            continue;
        }
        let month = store.messages.creation_date[m as usize].month();
        *groups.entry((dest, month)).or_insert(0) += 1;
    }
    let items: Vec<_> = groups
        .into_iter()
        .map(|((dest, month), count)| {
            (sort_key(store, dest, month, count), to_row(store, dest, month, count))
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
        for c in ["China", "Germany"] {
            let p = Params { country: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn home_country_never_a_destination() {
        let s = testutil::store();
        for r in run(s, &Params { country: "China".into() }) {
            assert_ne!(r.destination_name, "China");
            assert!((1..=12).contains(&r.month));
            assert!(r.message_count > 0);
        }
    }

    #[test]
    fn sorted_by_count_then_destination() {
        let s = testutil::store();
        let rows = run(s, &Params { country: "India".into() });
        let key =
            |r: &Row| (std::cmp::Reverse(r.message_count), r.destination_name.clone(), r.month);
        for w in rows.windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
    }

    #[test]
    fn travel_messages_produce_destinations() {
        // The generator issues ~5% of messages while travelling, so a
        // populous country must show at least one holiday destination.
        let s = testutil::store();
        let rows = run(s, &Params { country: "China".into() });
        assert!(!rows.is_empty(), "no abroad messages generated");
    }
}
