//! BI 16 — *Experts in social circle* (spec-text).
//!
//! From a start Person, find Persons living in a given Country that are
//! connected by a *trail* (edges unique, nodes repeatable) of length in
//! `[min_path_distance, max_path_distance]` over `knows`. For those
//! persons, take their Messages carrying at least one Tag of the given
//! TagClass (direct relation, not transitive), collect all Tags of
//! those Messages, and count messages per (person, tag).
//!
//! Per the spec note, persons also reachable on shorter trails are
//! *included* (the permissive reading of the current reference
//! implementations).

use rustc_hash::FxHashMap;
use snb_engine::topk::sort_truncate;
use snb_engine::traverse::trail_reachable;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag_of_class;

snb_core::query_params! {
    /// Parameters of BI 16.
    pub struct Params {
        /// Start person (raw id).
        person_id: u64 = "personId",
        /// Country name.
        country: String = "country",
        /// Tag-class name.
        tag_class: String = "tagClass",
        /// Minimum trail length (inclusive).
        min_path_distance: u32 = "minPathDistance",
        /// Maximum trail length (inclusive).
        max_path_distance: u32 = "maxPathDistance",
    }
}

/// One result row of BI 16.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Expert person id.
    pub person_id: u64,
    /// Tag name.
    pub tag_name: String,
    /// Messages by the person carrying the tag (among class-matching
    /// messages).
    pub message_count: u64,
}

const LIMIT: usize = 100;

type Key<'s> = (std::cmp::Reverse<u64>, &'s str, u64);

fn sort_key(store: &Store, p: Ix, t: Ix, count: u64) -> Key<'_> {
    (std::cmp::Reverse(count), store.tags.name.get(t as usize), store.persons.id[p as usize])
}

fn to_row(store: &Store, p: Ix, t: Ix, count: u64) -> Row {
    Row {
        person_id: store.persons.id[p as usize],
        tag_name: store.tags.name[t as usize].to_string(),
        message_count: count,
    }
}

fn collect_rows(
    store: &Store,
    experts: impl Iterator<Item = Ix>,
    country: Ix,
    class: Ix,
) -> FxHashMap<(Ix, Ix), u64> {
    let mut groups: FxHashMap<(Ix, Ix), u64> = FxHashMap::default();
    for p in experts {
        if store.person_country(p) != country {
            continue;
        }
        for m in store.person_messages.targets_of(p) {
            if !has_tag_of_class(store, m, class) {
                continue;
            }
            for t in store.message_tag.targets_of(m) {
                *groups.entry((p, t)).or_insert(0) += 1;
            }
        }
    }
    groups
}

/// Optimized implementation: trail search bounded by the distance band,
/// then person-major aggregation.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the trail
/// search stays sequential (its frontier is inherently ordered); the
/// per-expert message aggregation fans out as parallel morsels.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(country), Ok(class)) = (
        store.person(params.person_id),
        store.country_by_name(&params.country),
        store.tag_class_named(&params.tag_class),
    ) else {
        return Vec::new();
    };
    let reachable = trail_reachable(
        store,
        ctx.metrics(),
        start,
        params.min_path_distance,
        params.max_path_distance,
    );
    let experts: Vec<Ix> = reachable.into_iter().filter(|&p| p != start).collect();
    let groups = ctx.par_map_reduce(
        experts.len(),
        FxHashMap::<(Ix, Ix), u64>::default,
        |acc, range| {
            let morsel = collect_rows(store, experts[range].iter().copied(), country, class);
            for (k, c) in morsel {
                *acc.entry(k).or_insert(0) += c;
            }
        },
        |into, from| {
            for (k, c) in from {
                *into.entry(k).or_insert(0) += c;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for ((p, t), count) in groups {
        tk.offer(sort_key(store, p, t, count), (p, t, count));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, t, count)| to_row(store, p, t, count))
}

/// Naive reference: same trail semantics, full sort (trail enumeration
/// has no simpler oracle; the traversal itself is cross-checked against
/// BFS in `snb-engine`).
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let (Ok(start), Ok(country), Ok(class)) = (
        store.person(params.person_id),
        store.country_by_name(&params.country),
        store.tag_class_named(&params.tag_class),
    ) else {
        return Vec::new();
    };
    let reachable = trail_reachable(
        store,
        snb_engine::QueryMetrics::sink(),
        start,
        params.min_path_distance,
        params.max_path_distance,
    );
    let groups = collect_rows(store, reachable.into_iter().filter(|&p| p != start), country, class);
    let items: Vec<_> = groups
        .into_iter()
        .map(|((p, t), count)| (sort_key(store, p, t, count), to_row(store, p, t, count)))
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params(s: &Store) -> Params {
        // Start from a person with friends.
        let start = (0..s.persons.len() as Ix).max_by_key(|&p| s.knows.degree(p)).unwrap();
        Params {
            person_id: s.persons.id[start as usize],
            country: "China".into(),
            tag_class: "MusicalArtist".into(),
            min_path_distance: 1,
            max_path_distance: 2,
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        let p = params(s);
        assert_eq!(run(s, &p), run_naive(s, &p));
    }

    #[test]
    fn start_person_excluded() {
        let s = testutil::store();
        let p = params(s);
        for r in run(s, &p) {
            assert_ne!(r.person_id, p.person_id);
        }
    }

    #[test]
    fn experts_live_in_country() {
        let s = testutil::store();
        let p = params(s);
        let country = s.country_by_name(&p.country).unwrap();
        for r in run(s, &p) {
            let pix = s.person(r.person_id).unwrap();
            assert_eq!(s.person_country(pix), country);
        }
    }

    #[test]
    fn widening_the_band_never_shrinks_reachability() {
        // The permissive trail semantics: everyone reachable with
        // length in [1, 1] stays reachable with [1, 3]. Checked on the
        // traversal itself — the query's 100-row cut would otherwise
        // mask set membership.
        let s = testutil::store();
        let p = params(s);
        let start = s.person(p.person_id).unwrap();
        let narrow =
            snb_engine::traverse::trail_reachable(s, snb_engine::QueryMetrics::sink(), start, 1, 1);
        let wide =
            snb_engine::traverse::trail_reachable(s, snb_engine::QueryMetrics::sink(), start, 1, 3);
        assert!(narrow.is_subset(&wide));
        assert!(wide.len() >= narrow.len());
    }

    #[test]
    fn unknown_person_yields_empty() {
        let s = testutil::store();
        let mut p = params(s);
        p.person_id = 10_000_000;
        assert!(run(s, &p).is_empty());
    }
}
