//! BI 14 — *Top thread initiators* (spec-text).
//!
//! For Posts created within `[begin, end]`, count per person the
//! threads they initiated and the total number of Messages (root Post
//! included) that appeared in those reply trees within the same window.

use rustc_hash::FxHashMap;
use snb_core::Date;
use snb_engine::topk::sort_truncate;
use snb_engine::{QueryContext, TopK};
use snb_store::{Ix, Store};

use crate::common::{day_range_window, messages_in, thread_size};

/// Parameters of BI 14.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Window start (inclusive).
    pub begin: Date,
    /// Window end (inclusive).
    pub end: Date,
}

/// One result row of BI 14.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Person id.
    pub person_id: u64,
    /// First name.
    pub first_name: String,
    /// Last name.
    pub last_name: String,
    /// Threads initiated in the window.
    pub thread_count: u64,
    /// Messages in those threads within the window.
    pub message_count: u64,
}

const LIMIT: usize = 100;

fn sort_key(store: &Store, p: Ix, msgs: u64) -> (std::cmp::Reverse<u64>, u64) {
    (std::cmp::Reverse(msgs), store.persons.id[p as usize])
}

fn to_row(store: &Store, p: Ix, threads: u64, msgs: u64) -> Row {
    Row {
        person_id: store.persons.id[p as usize],
        first_name: store.persons.first_name[p as usize].to_string(),
        last_name: store.persons.last_name[p as usize].to_string(),
        thread_count: threads,
        message_count: msgs,
    }
}

/// Optimized implementation: post scan + recursive thread counting via
/// the reply CSR.
pub fn run(store: &Store, params: &Params) -> Vec<Row> {
    run_ctx(store, QueryContext::global(), params)
}

/// Optimized implementation on an explicit execution context: the
/// windowed post scan is a contiguous run of the date permutation
/// index, processed in parallel morsels (thread counting recurses from
/// each root post independently).
pub fn run_ctx(store: &Store, ctx: &QueryContext, params: &Params) -> Vec<Row> {
    let (lo, hi) = day_range_window(params.begin, params.end);
    let in_window = |m: Ix| {
        let t = store.messages.creation_date[m as usize];
        t >= lo && t < hi
    };
    let window = messages_in(store, ctx.metrics(), lo, hi);
    let acc = ctx.par_map_reduce(
        window.len(),
        FxHashMap::<Ix, (u64, u64)>::default,
        |acc, range| {
            for &post in &window[range] {
                if !store.messages.is_post(post) {
                    continue;
                }
                let creator = store.messages.creator[post as usize];
                let msgs = thread_size(store, post, in_window);
                let e = acc.entry(creator).or_insert((0, 0));
                e.0 += 1;
                e.1 += msgs;
            }
        },
        |into, from| {
            for (k, (t, m)) in from {
                let e = into.entry(k).or_insert((0, 0));
                e.0 += t;
                e.1 += m;
            }
        },
    );
    let mut tk = TopK::new(LIMIT);
    for (p, (threads, msgs)) in acc {
        tk.offer(sort_key(store, p, msgs), (p, threads, msgs));
    }
    ctx.metrics().note_topk(&tk);
    tk.into_rows(|_, (p, threads, msgs)| to_row(store, p, threads, msgs))
}

/// Naive reference: counts thread membership through the `root_post`
/// column instead of recursion.
pub fn run_naive(store: &Store, params: &Params) -> Vec<Row> {
    let lo = params.begin.at_midnight();
    let hi = params.end.plus_days(1).at_midnight();
    let in_window = |m: Ix| {
        let t = store.messages.creation_date[m as usize];
        t >= lo && t < hi
    };
    // Threads: root posts in window.
    let mut threads: FxHashMap<Ix, u64> = FxHashMap::default();
    for post in 0..store.messages.len() as Ix {
        if store.messages.is_post(post) && in_window(post) {
            *threads.entry(store.messages.creator[post as usize]).or_insert(0) += 1;
        }
    }
    // Messages grouped by their thread's root creator, if the root post
    // is in the window.
    let mut msgs: FxHashMap<Ix, u64> = FxHashMap::default();
    for m in 0..store.messages.len() as Ix {
        if !in_window(m) {
            continue;
        }
        let root = store.messages.root_post[m as usize];
        if !in_window(root) {
            continue;
        }
        *msgs.entry(store.messages.creator[root as usize]).or_insert(0) += 1;
    }
    let items: Vec<_> = threads
        .into_iter()
        .map(|(p, threads)| {
            let msgs = msgs.get(&p).copied().unwrap_or(0);
            (sort_key(store, p, msgs), to_row(store, p, threads, msgs))
        })
        .collect();
    sort_truncate(items, LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testutil;

    fn params() -> Params {
        Params { begin: Date::from_ymd(2010, 6, 1), end: Date::from_ymd(2012, 6, 1) }
    }

    #[test]
    fn optimized_matches_naive() {
        let s = testutil::store();
        assert_eq!(run(s, &params()), run_naive(s, &params()));
        let narrow = Params { begin: Date::from_ymd(2011, 3, 1), end: Date::from_ymd(2011, 3, 31) };
        assert_eq!(run(s, &narrow), run_naive(s, &narrow));
    }

    #[test]
    fn message_count_at_least_thread_count() {
        let s = testutil::store();
        for r in run(s, &params()) {
            assert!(r.message_count >= r.thread_count, "{r:?}");
            assert!(r.thread_count > 0);
        }
    }

    #[test]
    fn sorted_and_limited() {
        let s = testutil::store();
        let rows = run(s, &params());
        assert!(!rows.is_empty());
        assert!(rows.len() <= 100);
        let key = |r: &Row| (std::cmp::Reverse(r.message_count), r.person_id);
        for w in rows.windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
    }

    #[test]
    fn empty_window_yields_empty() {
        let s = testutil::store();
        let p = Params { begin: Date::from_ymd(2009, 1, 1), end: Date::from_ymd(2009, 2, 1) };
        assert!(run(s, &p).is_empty());
    }
}
