//! BI 18 — *How many persons have a given number of messages*
//! (spec-text).
//!
//! For each Person, count their Messages that have non-empty content,
//! length below a threshold (exclusive), creation date after a given
//! date (exclusive), and are written in one of the given languages (a
//! Post's own language; a Comment inherits the root Post's language).
//! Then histogram: for each message count, the number of Persons with
//! exactly that count — including Persons with zero qualifying
//! messages.
//!
//! The optimized plan scans every message in row order with the date
//! test inline, so the predicate's columns are read sequentially: the
//! curated windows cover nearly all messages, and walking them through
//! the date index gathers each column read.

use rustc_hash::FxHashMap;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{interner, Ix, Store, Sym};

use crate::common::thread_language;

snb_core::query_params! {
    /// Parameters of BI 18.
    pub struct Params {
        /// Messages strictly after this date qualify.
        date: Date = "date",
        /// Maximum content length (exclusive).
        length_threshold: u32 = "lengthThreshold",
        /// Accepted (thread) languages.
        languages: Vec<String> = "languages",
    }
}

/// One result row of BI 18.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Number of qualifying messages.
    pub message_count: u64,
    /// Number of persons with exactly that many.
    pub person_count: u64,
}

const LIMIT: usize = 100;

fn sort_key(row: &Row) -> (std::cmp::Reverse<u64>, std::cmp::Reverse<u64>) {
    (std::cmp::Reverse(row.person_count), std::cmp::Reverse(row.message_count))
}

/// The string form of the predicate: what the spec says, and the
/// oracle [`qualifies_sym`] is tested against.
fn qualifies(store: &Store, m: Ix, cutoff: snb_core::DateTime, p: &Params) -> bool {
    store.messages.creation_date[m as usize] > cutoff
        && !store.messages.content[m as usize].is_empty()
        && store.messages.length[m as usize] < p.length_threshold
        && p.languages.iter().any(|l| l == thread_language(store, m))
}

/// The requested languages as dictionary symbols, resolved once per
/// query. A language absent from the dictionary occurs in no row, so it
/// is dropped — and never interned: the parameter is client-supplied.
fn language_syms(p: &Params) -> Vec<Sym> {
    p.languages.iter().filter_map(|l| interner().lookup(l)).collect()
}

/// The scan form of [`qualifies`]: the date compare, then an integer
/// compare, an offset subtraction and a `u32` membership test on the
/// thread's language symbol. No string is resolved or validated. Past
/// the date the tests are joined with `&`, not `&&`: whether a dated
/// message passes them is data-dependent, and a branch per test
/// mispredicted more than the three column reads it saved.
fn qualifies_sym(
    store: &Store,
    m: Ix,
    cutoff: snb_core::DateTime,
    p: &Params,
    langs: &[Sym],
) -> bool {
    let (msgs, m) = (&store.messages, m as usize);
    msgs.creation_date[m] > cutoff
        && (msgs.length[m] < p.length_threshold)
            & !msgs.content.row_is_empty(m)
            & langs.contains(&msgs.language.sym(msgs.root_post[m] as usize))
}

fn histogram(per_person: &[u64]) -> FxHashMap<u64, u64> {
    let mut hist: FxHashMap<u64, u64> = FxHashMap::default();
    for &c in per_person {
        *hist.entry(c).or_insert(0) += 1;
    }
    hist
}

/// Optimized implementation: message scan accumulating per-creator,
/// then the second-level aggregation (CP-8.2 subsequent aggregation).
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: a scan
/// of every message in row order with the date test inline, touching
/// neither the date index nor an index list. Workers accumulate dense
/// per-person counters merged element-wise.
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let langs = language_syms(params);
    let per_person = ctx.par_map_reduce(
        store.messages.len(),
        || vec![0u64; store.persons.len()],
        |acc, range| {
            for m in range.start as Ix..range.end as Ix {
                acc[store.messages.creator[m as usize] as usize] +=
                    qualifies_sym(store, m, cutoff, params, &langs) as u64;
            }
        },
        |into, from| {
            for (i, c) in from.into_iter().enumerate() {
                into[i] += c;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for (count, persons) in histogram(&per_person) {
        let row = Row { message_count: count, person_count: persons };
        tk.push(sort_key(&row), row);
    }
    ctx.metrics().note_topk(&tk);
    tk.into_sorted()
}

/// Naive reference: person-major scan through their message lists.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let cutoff = params.date.at_midnight();
    let per_person: Vec<u64> = (0..store.persons.len() as Ix)
        .map(|p| {
            store
                .person_messages
                .targets_of(p)
                .filter(|&m| qualifies(store, m, cutoff, params))
                .count() as u64
        })
        .collect();
    let items: Vec<_> = histogram(&per_person)
        .into_iter()
        .map(|(count, persons)| {
            let row = Row { message_count: count, person_count: persons };
            (sort_key(&row), row)
        })
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;
    use proptest::prelude::*;

    fn params() -> Params {
        Params {
            date: Date::from_ymd(2010, 6, 1),
            length_threshold: 150,
            languages: vec!["zh".into(), "en".into(), "hi".into()],
        }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
    }

    #[test]
    fn person_counts_cover_population() {
        let s = testutil::store();
        let rows = run(s, &params());
        let covered: u64 = rows.iter().map(|r| r.person_count).sum();
        // With <=100 distinct counts at this scale, every person is in
        // exactly one bucket.
        if rows.len() < 100 {
            assert_eq!(covered as usize, s.persons.len());
        }
        // The zero bucket must exist (plenty of inactive users).
        assert!(rows.iter().any(|r| r.message_count == 0));
    }

    #[test]
    fn language_filter_excludes() {
        let s = testutil::store();
        let mut p = params();
        p.languages = vec!["xx-unknown".into()];
        let rows = run(s, &p);
        // Nothing qualifies, so everyone lands in the zero bucket.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].message_count, 0);
        assert_eq!(rows[0].person_count as usize, s.persons.len());
        assert_eq!(rows, run_naive(s, &p));
        // The parameter was looked up, not interned.
        assert_eq!(interner().lookup("xx-unknown"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The symbol predicate the scan runs agrees with the string
        /// predicate of the spec on every message, for any cutoff,
        /// threshold and language subset — including the empty
        /// language and languages absent from the dictionary.
        #[test]
        fn sym_predicate_matches_string_predicate(
            day in 0i32..1100,
            length_threshold in 0u32..400,
            subset in 0u32..512
        ) {
            const LANGS: [&str; 9] =
                ["zh", "en", "hi", "es", "de", "pt", "", "xx-absent", "tlh-absent"];
            let s = testutil::store();
            let p = Params {
                date: Date::from_ymd(2010, 1, 1).plus_days(day),
                length_threshold,
                languages: LANGS
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| subset & (1 << i) != 0)
                    .map(|(_, l)| l.to_string())
                    .collect(),
            };
            let cutoff = p.date.at_midnight();
            let langs = language_syms(&p);
            for m in 0..s.messages.len() as Ix {
                prop_assert_eq!(
                    qualifies_sym(s, m, cutoff, &p, &langs),
                    qualifies(s, m, cutoff, &p),
                    "message {} under {:?}", m, p
                );
            }
            prop_assert_eq!(interner().lookup("xx-absent"), None);
        }
    }

    #[test]
    fn image_posts_never_qualify() {
        let s = testutil::store();
        let cutoff = Date::from_ymd(2010, 1, 1).at_midnight();
        for m in 0..s.messages.len() as Ix {
            if !s.messages.image_file[m as usize].is_empty() {
                assert!(!qualifies(s, m, cutoff, &params()), "image post qualified");
            }
        }
    }

    #[test]
    fn sorted_by_person_count() {
        let s = testutil::store();
        let rows = run(s, &params());
        for w in rows.windows(2) {
            assert!(sort_key(&w[0]) < sort_key(&w[1]));
        }
    }
}
