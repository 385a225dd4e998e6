//! Helpers shared across the BI query implementations.

use snb_core::datetime::DateTime;
use snb_core::Date;
use snb_engine::QueryMetrics;
use snb_store::{Ix, Store};

/// The language of a message per BI 18: a Post's own `language`
/// attribute; a Comment inherits the language of the Post at the root
/// of its thread.
pub fn thread_language(store: &Store, m: Ix) -> &str {
    let root = store.messages.root_post[m as usize];
    &store.messages.language[root as usize]
}

/// Whether message `m` carries tag `t`.
pub fn has_tag(store: &Store, m: Ix, t: Ix) -> bool {
    store.message_tag.targets_of(m).any(|x| x == t)
}

/// Whether message `m` carries at least one tag whose *direct* class is
/// `class` (the "direct relation, not transitive" reading of BI 4/16).
pub fn has_tag_of_class(store: &Store, m: Ix, class: Ix) -> bool {
    store.message_tag.targets_of(m).any(|t| store.tags.class[t as usize] == class)
}

/// Whether message `m` carries a tag whose class lies in the subtree of
/// `class` (the transitive reading of BI 20).
pub fn has_tag_in_class_subtree(store: &Store, m: Ix, class: Ix) -> bool {
    store.message_tag.targets_of(m).any(|t| store.tag_in_class_subtree(t, class))
}

/// All message indices created strictly before `t`: a binary-searched
/// prefix of the store's date index, the slice the parallel primitives
/// chunk over. Records an index hit with the window size on `metrics`;
/// callers without a query context pass [`QueryMetrics::sink`].
pub fn messages_before<'s>(store: &'s Store, metrics: &QueryMetrics, t: DateTime) -> &'s [Ix] {
    let window = store.messages_created_before(t);
    metrics.note_index_hit(window.len() as u64);
    window
}

/// All message indices created in the half-open window `[lo, hi)`, as
/// [`messages_before`] takes them.
pub fn messages_in<'s>(
    store: &'s Store,
    metrics: &QueryMetrics,
    lo: DateTime,
    hi: DateTime,
) -> &'s [Ix] {
    let window = store.messages_created_in(lo, hi);
    metrics.note_index_hit(window.len() as u64);
    window
}

/// Half-open `[lo, hi)` timestamp window covering the *inclusive* day
/// range `[start, end]` — the convention every dated BI parameter pair
/// uses.
pub fn day_range_window(start: Date, end: Date) -> (DateTime, DateTime) {
    (start.at_midnight(), end.plus_days(1).at_midnight())
}

/// Half-open `[lo, hi)` timestamp window covering the calendar month
/// `year-month`.
pub fn month_window(year: i32, month: u32) -> (DateTime, DateTime) {
    let start = Date::from_ymd(year, month, 1);
    let (ny, nm) = next_month(year, month);
    (start.at_midnight(), Date::from_ymd(ny, nm, 1).at_midnight())
}

/// The calendar month following `(year, month)`, handling the December
/// rollover.
pub fn next_month(year: i32, month: u32) -> (i32, u32) {
    if month == 12 {
        (year + 1, 1)
    } else {
        (year, month + 1)
    }
}

/// Simulation-end anchor for the BI 2 age-group calculation.
pub const AGE_ANCHOR: (i32, u32, u32) = (2013, 1, 1);

/// Whole calendar years between `bday` and the simulation-end anchor
/// (2013-01-01): the calendar year difference, minus one when the
/// birthday has not yet occurred by the anchor date. A leap-day
/// birthday (Feb 29) counts as passed on Mar 1 of common years.
pub fn age_years(bday: Date) -> i32 {
    let (by, bm, bd) = bday.to_ymd();
    let mut years = AGE_ANCHOR.0 - by;
    if (AGE_ANCHOR.1, AGE_ANCHOR.2) < (bm, bd) {
        years -= 1;
    }
    years
}

/// Age group per BI 2: floor of whole years between the birthday and
/// the simulation end (2013-01-01), in 5-year buckets.
pub fn age_group(store: &Store, p: Ix) -> i32 {
    age_years(store.persons.birthday[p as usize]) / 5
}

/// All persons located in `country` (any of its cities), as a vector.
pub fn persons_of_country(store: &Store, country: Ix) -> Vec<Ix> {
    store.persons_in_country(country).collect()
}

/// Size of the reply tree rooted at message `m` (inclusive), counting
/// only messages that satisfy `keep`.
pub fn thread_size(store: &Store, root: Ix, keep: impl Fn(Ix) -> bool) -> u64 {
    let mut count = 0;
    let mut stack = vec![root];
    while let Some(m) = stack.pop() {
        if keep(m) {
            count += 1;
        }
        stack.extend(store.message_replies.targets_of(m));
    }
    count
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A shared store for the per-query unit tests: built once per test
    //! binary (the generator is deterministic, so every test sees the
    //! same graph).

    use snb_datagen::GeneratorConfig;
    use snb_store::{store_for_config, Store};
    use std::sync::OnceLock;

    /// The shared tiny store (150 persons, full window).
    pub fn store() -> &'static Store {
        static STORE: OnceLock<Store> = OnceLock::new();
        STORE.get_or_init(|| {
            let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale exists");
            c.persons = 150;
            store_for_config(&c)
        })
    }

    /// A mid-window timestamp useful as a default date parameter.
    pub fn mid_date() -> snb_core::Date {
        snb_core::Date::from_ymd(2011, 7, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::store;

    #[test]
    fn thread_language_inherits_from_root() {
        let s = store();
        for m in 0..s.messages.len() as Ix {
            if !s.messages.is_post(m) {
                let root = s.messages.root_post[m as usize];
                assert_eq!(thread_language(s, m), &s.messages.language[root as usize]);
            }
        }
    }

    #[test]
    fn thread_size_counts_inclusive() {
        let s = store();
        let post = (0..s.messages.len() as Ix).find(|&m| s.messages.is_post(m)).unwrap();
        let all = thread_size(s, post, |_| true);
        assert!(all >= 1);
        let none = thread_size(s, post, |_| false);
        assert_eq!(none, 0);
    }

    #[test]
    fn messages_before_and_after_cover_every_message() {
        let s = store();
        let t = testutil::mid_date().at_midnight();
        let before = messages_before(s, QueryMetrics::sink(), t).len();
        let at_or_after =
            (0..s.messages.len()).filter(|&m| s.messages.creation_date[m] >= t).count();
        assert!(before > 0 && at_or_after > 0, "the cut splits the messages");
        assert_eq!(before + at_or_after, s.messages.len());
    }

    #[test]
    fn window_helpers_are_half_open() {
        let (lo, hi) = day_range_window(Date::from_ymd(2011, 3, 1), Date::from_ymd(2011, 3, 31));
        assert_eq!((lo, hi), month_window(2011, 3));
        assert_eq!(next_month(2011, 12), (2012, 1));
        assert_eq!(next_month(2011, 1), (2011, 2));
        let s = store();
        let m = QueryMetrics::sink();
        let in_window = messages_before(s, m, hi).len() - messages_before(s, m, lo).len();
        let scanned = (0..s.messages.len())
            .filter(|&m| {
                let t = s.messages.creation_date[m];
                t >= lo && t < hi
            })
            .count();
        assert_eq!(in_window, scanned);
    }

    #[test]
    fn age_years_exact_at_year_boundaries() {
        // The regression the old `(anchor - bday) / 366` floor missed:
        // a 1990-01-01 birthday is a 8401-day span and exactly 23 whole
        // years by 2013-01-01 (the old code said 22).
        assert_eq!(age_years(Date::from_ymd(1990, 1, 1)), 23);
        // Birthday one day after the anchor's month/day: not yet passed.
        assert_eq!(age_years(Date::from_ymd(1990, 1, 2)), 22);
        // Day before the anchor within the prior year: passed.
        assert_eq!(age_years(Date::from_ymd(1989, 12, 31)), 23);
        // Anchor-day birthday counts the full year.
        assert_eq!(age_years(Date::from_ymd(2013, 1, 1)), 0);
        assert_eq!(age_years(Date::from_ymd(2012, 12, 31)), 0);
    }

    #[test]
    fn age_years_leap_day_birthday() {
        // Feb 29 birthdays: by the 2013-01-01 anchor the 2012-02-29
        // birthday has passed, so 1988-02-29 is exactly 24.
        assert_eq!(age_years(Date::from_ymd(1988, 2, 29)), 24);
        assert_eq!(age_years(Date::from_ymd(2012, 2, 29)), 0);
    }

    #[test]
    fn age_group_buckets_at_boundaries() {
        // 25 years (1988-01-01) lands in group 5; one day later the age
        // is 24 and the group drops to 4.
        assert_eq!(age_years(Date::from_ymd(1988, 1, 1)) / 5, 5);
        assert_eq!(age_years(Date::from_ymd(1988, 1, 2)) / 5, 4);
        // Every stored person gets a non-negative group.
        let s = store();
        for p in 0..s.persons.len() as Ix {
            assert!(age_group(s, p) >= 0);
        }
    }
}
