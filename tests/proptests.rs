//! Property-based tests (proptest) on the core data structures and
//! invariants, cross-crate.

use proptest::prelude::*;
use rustc_hash::FxHashSet;

use ldbc_snb::core::datetime::{civil_from_days, days_from_civil, Date};
use ldbc_snb::engine::topk::{sort_truncate, TopK};
use ldbc_snb::engine::traverse::floyd_warshall;
use ldbc_snb::params::curate;
use ldbc_snb::store::Adj;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Date round trip: any day number in a ±200-year window maps to a
    /// civil date and back.
    #[test]
    fn date_round_trip(days in -73_000i32..73_000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert_eq!(days_from_civil(y, m, d), days);
        prop_assert!((1..=12u32).contains(&m));
        prop_assert!((1..=31u32).contains(&d));
    }

    /// Adding one day always advances the civil date lexicographically.
    #[test]
    fn dates_are_monotone(days in -73_000i32..73_000) {
        let a = Date(days).to_ymd();
        let b = Date(days + 1).to_ymd();
        prop_assert!(b > a);
    }

    /// Top-k agrees with sort-then-truncate for arbitrary inputs.
    #[test]
    fn topk_matches_sort_truncate(
        items in prop::collection::vec((0u64..100, 0u64..1000), 0..200),
        k in 0usize..25
    ) {
        let mut tk = TopK::new(k);
        for &(key, v) in &items {
            tk.push((key, v), v);
        }
        let expect = sort_truncate(
            items.iter().map(|&(key, v)| ((key, v), v)).collect(),
            k,
        );
        prop_assert_eq!(tk.into_sorted(), expect);
    }

    /// CSR adjacency reproduces an adjacency-list oracle, including
    /// after overflow inserts and compaction.
    #[test]
    fn adjacency_matches_oracle(
        base in prop::collection::vec((0u32..20, 0u32..20), 0..120),
        inserts in prop::collection::vec((0u32..20, 0u32..20), 0..40)
    ) {
        let edges: Vec<(u32, u32, ())> = base.iter().map(|&(s, t)| (s, t, ())).collect();
        let mut adj = Adj::from_edges(20, &edges);
        let mut oracle: Vec<Vec<u32>> = vec![Vec::new(); 20];
        for &(s, t) in &base {
            oracle[s as usize].push(t);
        }
        for &(s, t) in &inserts {
            adj.insert(s, t, ());
            oracle[s as usize].push(t);
        }
        for u in 0..20u32 {
            let got: Vec<u32> = adj.targets_of(u).collect();
            prop_assert_eq!(&got, &oracle[u as usize], "vertex {}", u);
            prop_assert_eq!(adj.degree(u), oracle[u as usize].len());
        }
        let adj = adj.compact();
        prop_assert!(!adj.has_overflow());
        for u in 0..20u32 {
            let got: Vec<u32> = adj.targets_of(u).collect();
            prop_assert_eq!(&got, &oracle[u as usize], "post-compact vertex {}", u);
        }
    }

    /// Curation output is a subset with minimal factor spread compared
    /// with any other window of the same size.
    #[test]
    fn curation_minimises_spread(
        factors in prop::collection::vec(0u64..10_000, 1..80),
        k in 1usize..12
    ) {
        let cands: Vec<(usize, u64)> = factors.iter().copied().enumerate().collect();
        let picked = curate(&cands, k);
        let n = k.min(cands.len());
        prop_assert_eq!(picked.len(), n);
        // Distinct indices within range.
        let set: FxHashSet<usize> = picked.iter().copied().collect();
        prop_assert_eq!(set.len(), n);
        // Spread is minimal among sorted windows.
        let mut sorted = factors.clone();
        sorted.sort_unstable();
        let best = sorted.windows(n).map(|w| w[n - 1] - w[0]).min().unwrap();
        let mut picked_factors: Vec<u64> = picked.iter().map(|&i| factors[i]).collect();
        picked_factors.sort_unstable();
        let spread = picked_factors[n - 1] - picked_factors[0];
        prop_assert_eq!(spread, best);
    }

    /// `par_map_reduce` equals the sequential fold for any input length,
    /// thread count, and morsel size (the determinism contract of the
    /// morsel-driven execution layer).
    #[test]
    fn par_map_reduce_equals_sequential_fold(
        values in prop::collection::vec(0u64..1_000, 0..300),
        threads in 1usize..6,
        morsel in 1usize..50
    ) {
        use ldbc_snb::engine::QueryContext;
        let ctx = QueryContext::new(threads).with_morsel(morsel);
        let got = ctx.par_map_reduce(
            values.len(),
            || 0u64,
            |acc, range| {
                for &v in &values[range] {
                    *acc += v;
                }
            },
            |into, from| *into += from,
        );
        let want: u64 = values.iter().sum();
        prop_assert_eq!(got, want);

        // Order-preserving variant: par_scan stitches morsels back into
        // the sequential order.
        let scanned: Vec<u64> = ctx.par_scan(values.len(), |out, range| {
            out.extend(values[range].iter().map(|v| v * 2));
        });
        let expect: Vec<u64> = values.iter().map(|v| v * 2).collect();
        prop_assert_eq!(scanned, expect);
    }

    /// The stale-index linear-scan fallback and the fresh date index
    /// select the same message sets for arbitrary windows (the fallback
    /// returns ascending message order, the index date order — compare
    /// as sorted sets). Also pins that the access-path counters tell
    /// the two paths apart.
    #[test]
    fn stale_fallback_agrees_with_fresh_index(
        lo_day in 0u32..2000,
        len_days in 0u32..400
    ) {
        use ldbc_snb::bi::common::{messages_before, messages_in};
        use ldbc_snb::core::Date as CDate;
        use ldbc_snb::engine::QueryMetrics;

        let fresh = window_test_store(false);
        let stale = window_test_store(true);
        let lo = CDate::from_ymd(2010, 1, 1).plus_days(lo_day as i32).at_midnight();
        let hi = CDate::from_ymd(2010, 1, 1).plus_days((lo_day + len_days) as i32).at_midnight();

        let fresh_metrics = QueryMetrics::new(1);
        let stale_metrics = QueryMetrics::new(1);
        let sort = |mut v: Vec<u32>| { v.sort_unstable(); v };
        let via_index = sort(messages_in(fresh, &fresh_metrics, lo, hi).to_vec());
        let via_scan = sort(messages_in(stale, &stale_metrics, lo, hi).to_vec());
        prop_assert_eq!(&via_index, &via_scan);
        prop_assert_eq!(
            sort(messages_before(fresh, &fresh_metrics, lo).to_vec()),
            sort(messages_before(stale, &stale_metrics, lo).to_vec())
        );
        let fresh_profile = fresh_metrics.snapshot();
        let stale_profile = stale_metrics.snapshot();
        prop_assert_eq!(fresh_profile.index_hits, 2);
        prop_assert_eq!(fresh_profile.index_fallbacks, 0);
        prop_assert_eq!(stale_profile.index_hits, 0);
        prop_assert_eq!(stale_profile.index_fallbacks, 2);
    }

    /// Thread-count determinism: for any thread count in {1, 2, 4} and
    /// any BI query, the morsel-parallel engine returns byte-identical
    /// results (rows and fingerprint) to the single-threaded naive
    /// reference oracle.
    #[test]
    fn parallel_execution_matches_naive_oracle(
        t_idx in 0usize..3,
        q_idx in 0usize..25
    ) {
        use ldbc_snb::engine::QueryContext;
        use ldbc_snb::params::ParamGen;
        const SWEEP: [usize; 3] = [1, 2, 4];
        let store = window_test_store(false);
        let query = (q_idx + 1) as u8;
        let gen = ParamGen::new(store, 7);
        let ctx = QueryContext::new(SWEEP[t_idx]);
        for b in gen.bi_params(query, 2) {
            let got = ldbc_snb::bi::run_with(store, &ctx, &b);
            let want = ldbc_snb::bi::run_naive(store, &b);
            prop_assert_eq!(got.rows, want.rows, "BI {} rows at {} threads", query, SWEEP[t_idx]);
            prop_assert_eq!(
                got.fingerprint, want.fingerprint,
                "BI {} fingerprint at {} threads", query, SWEEP[t_idx]
            );
        }
    }
}

/// Shared stores for the window proptest: built once per process (the
/// generator is deterministic). The stale variant has the tail of its
/// date permutation index popped, forcing every window read down the
/// linear-scan fallback path.
fn window_test_store(stale: bool) -> &'static ldbc_snb::store::Store {
    use ldbc_snb::datagen::GeneratorConfig;
    use ldbc_snb::store::{store_for_config, Store};
    use std::sync::OnceLock;
    static FRESH: OnceLock<Store> = OnceLock::new();
    static STALE: OnceLock<Store> = OnceLock::new();
    let build = || {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        store_for_config(&c)
    };
    if stale {
        STALE.get_or_init(|| {
            let mut s = build();
            s.message_by_date.pop();
            assert!(!s.date_index_fresh());
            s
        })
    } else {
        FRESH.get_or_init(build)
    }
}

/// Shortest-path lengths from the engine's bidirectional BFS agree with
/// Floyd–Warshall on random graphs expressed through a real store. The
/// graph is built by inserting `knows` edges into a generated store
/// whose own edges are removed by construction (fresh persons only).
#[test]
fn bfs_agrees_with_floyd_warshall_on_random_graphs() {
    use ldbc_snb::core::model::{PersonId, PlaceId};
    use ldbc_snb::core::rng::Rng;
    use ldbc_snb::core::Date as CDate;
    use ldbc_snb::core::DateTime;
    use ldbc_snb::datagen::dictionaries::StaticWorld;
    use ldbc_snb::datagen::graph::{RawKnows, RawPerson};
    use ldbc_snb::datagen::stream::{TimedEvent, UpdateEvent};
    use ldbc_snb::datagen::GeneratorConfig;
    use ldbc_snb::store::store_for_config;

    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 10;
    let mut store = store_for_config(&c);
    let world = StaticWorld::build(c.seed);
    let apply = |store: &mut ldbc_snb::store::Store, event| {
        let event = TimedEvent { timestamp: DateTime(0), dependent: DateTime(0), event };
        store.apply_event(&event, &world).unwrap();
    };
    // Add an isolated cohort of fresh persons and wire random edges
    // among them only.
    let city = store.places.id[store.persons.city[0] as usize];
    let base_ix = store.persons.len();
    let n = 24usize;
    for i in 0..n {
        let person = RawPerson {
            id: PersonId(1_000_000 + i as u64),
            first_name: "P".into(),
            last_name: "Prop".into(),
            gender: ldbc_snb::core::model::Gender::Male,
            birthday: CDate::from_ymd(1990, 1, 1),
            creation_date: DateTime(0),
            location_ip: String::new(),
            browser: 0,
            city: PlaceId(city),
            country: 0,
            languages: vec![],
            emails: vec![],
            interests: vec![],
            study_at: None,
            work_at: vec![],
        };
        apply(&mut store, UpdateEvent::AddPerson(person));
    }
    let mut rng = Rng::new(12345);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if rng.chance(0.12) {
                edges.push((a, b));
                let (a, b) = (PersonId(1_000_000 + a as u64), PersonId(1_000_000 + b as u64));
                let knows = RawKnows { a, b, creation_date: DateTime(1), dimension: 0 };
                apply(&mut store, UpdateEvent::AddKnows(knows));
            }
        }
    }
    let oracle = floyd_warshall(n, &edges);
    for (a, row) in oracle.iter().enumerate() {
        for (b, &want) in row.iter().enumerate() {
            let got = ldbc_snb::engine::traverse::shortest_path_len(
                &store,
                ldbc_snb::engine::QueryMetrics::sink(),
                (base_ix + a) as u32,
                (base_ix + b) as u32,
            );
            if want >= u32::MAX / 4 {
                assert_eq!(got, -1, "{a}->{b}");
            } else {
                assert_eq!(got, want as i32, "{a}->{b}");
            }
        }
    }
}
