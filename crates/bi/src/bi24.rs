//! BI 24 — *Messages by topic and continent* (reconstructed).
//!
//! Messages carrying at least one Tag of a given TagClass (direct
//! relation), grouped by (creation year, month, continent of the
//! message's origin country); count messages and the likes they
//! received.

use rustc_hash::{FxHashMap, FxHashSet};
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::has_tag_of_class;

snb_core::query_params! {
    /// Parameters of BI 24.
    pub struct Params {
        /// Tag-class name.
        tag_class: String = "tagClass",
    }
}

/// One result row of BI 24.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Messages in the group.
    pub message_count: u64,
    /// Likes those messages received.
    pub like_count: u64,
    /// Creation year.
    pub year: i32,
    /// Creation month.
    pub month: u32,
    /// Continent name.
    pub continent_name: String,
}

const LIMIT: usize = 100;

type Key<'s> = (i32, u32, &'s str);

/// One aggregated group: `((year, month, continent), (messages, likes))`.
type Group = ((i32, u32, Ix), (u64, u64));

fn sort_key<'s>(store: &'s Store, &((year, month, continent), _): &Group) -> Key<'s> {
    (year, month, store.places.name.get(continent as usize))
}

fn to_row(store: &Store, ((year, month, continent), (msgs, likes)): Group) -> Row {
    Row {
        message_count: msgs,
        like_count: likes,
        year,
        month,
        continent_name: store.places.name[continent as usize].to_string(),
    }
}

/// Optimized implementation: start from the class's tags via the
/// reverse index, dedup messages, then group.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// deduped message set fans out as morsels; counts are additive so the
/// merge order is immaterial.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let Ok(class) = store.tag_class_named(&params.tag_class) else { return Vec::new() };
    let mut seen: FxHashSet<Ix> = FxHashSet::default();
    for t in store.tagclass_tags.targets_of(class) {
        seen.extend(store.tag_message.targets_of(t));
    }
    let messages: Vec<Ix> = seen.into_iter().collect();
    let groups = ctx.par_map_reduce(
        messages.len(),
        FxHashMap::<(i32, u32, Ix), (u64, u64)>::default,
        |acc, range| {
            for &m in &messages[range] {
                let (y, mo) = store.messages.creation_date[m as usize].year_month();
                let continent = store.country_continent(store.messages.country[m as usize]);
                let e = acc.entry((y, mo, continent)).or_insert((0, 0));
                e.0 += 1;
                e.1 += store.message_likes.degree(m) as u64;
            }
        },
        |into, from| {
            for (k, (msgs, likes)) in from {
                let e = into.entry(k).or_insert((0, 0));
                e.0 += msgs;
                e.1 += likes;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for group in groups {
        tk.offer(sort_key(store, &group), group);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, group| to_row(store, group))
}

/// Naive reference: full message scan with the class test per message.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let Ok(class) = store.tag_class_named(&params.tag_class) else { return Vec::new() };
    let mut groups: FxHashMap<(i32, u32, Ix), (u64, u64)> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !has_tag_of_class(store, m, class) {
            continue;
        }
        let (y, mo) = store.messages.creation_date[m as usize].year_month();
        let continent = store.country_continent(store.messages.country[m as usize]);
        let e = groups.entry((y, mo, continent)).or_insert((0, 0));
        e.0 += 1;
        e.1 += store.message_likes.targets_of(m).count() as u64;
    }
    let items: Vec<_> =
        groups.into_iter().map(|group| (sort_key(store, &group), to_row(store, group))).collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        for c in ["MusicalArtist", "Band", "Scientist"] {
            let p = Params { tag_class: c.into() };
            assert_eq!(run(s, &p), run_naive(s, &p), "{c}");
        }
    }

    #[test]
    fn chronological_order() {
        let s = testutil::store();
        let rows = run(s, &Params { tag_class: "MusicalArtist".into() });
        assert!(!rows.is_empty());
        let key = |r: &Row| (r.year, r.month, r.continent_name.clone());
        for w in rows.windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
    }

    #[test]
    fn continents_are_valid() {
        let s = testutil::store();
        let continents: Vec<&str> =
            snb_datagen::dictionaries::CONTINENTS.iter().map(|c| c.name).collect();
        for r in run(s, &Params { tag_class: "Person".into() }) {
            assert!(continents.contains(&r.continent_name.as_str()), "{}", r.continent_name);
        }
    }

    #[test]
    fn unknown_class_yields_empty() {
        let s = testutil::store();
        assert!(run(s, &Params { tag_class: "Unknown".into() }).is_empty());
    }
}
