//! `bi_power`: the paper's power test. All 25 BI queries over their
//! curated bindings, sequentially, in-process on a read-only store.
//! All of the time is in `bi`/`engine`/`store` scans and the server is
//! bypassed, so a kernel gain shows here and nowhere else.

use snb_bi::{BiParams, QuerySummary};
use snb_engine::QueryContext;
use snb_store::Store;

use crate::dataset::{self, BINDINGS_PER_QUERY};
use crate::harness::{Plan, Recorder, Workload};
use crate::metrics::Layers;
use crate::oplist;
use crate::trace::Rollup;

/// One slice is one full power pass: 25 queries × 8 bindings, about
/// 0.24 s at SF 0.3 on the reference host. The nominal slice time is
/// shorter so that `--seconds 12` plans 67 passes: the longer the
/// window, the likelier it holds a fifth of undisturbed passes.
const SLICE_S: f64 = 0.18;

/// Bindings per query checked against the naive reference engine; the
/// rest are checked for identical results across passes.
const NAIVE_CHECKED: usize = 2;

pub struct BiPower {
    store: Store,
    ctx: QueryContext,
    /// All bindings, query-major: index `(q-1) * 8 + binding`.
    bindings: Vec<BiParams>,
    /// The seeded order one pass runs them in.
    order: Vec<u32>,
    /// `[pass][binding index]`, warm-up excluded.
    results: Vec<Vec<Option<QuerySummary>>>,
}

/// Span names, one per query, so the roll-up yields the paper's
/// per-query runtime table.
const SPAN_NAMES: [&str; 25] = [
    "bi.q01", "bi.q02", "bi.q03", "bi.q04", "bi.q05", "bi.q06", "bi.q07", "bi.q08", "bi.q09",
    "bi.q10", "bi.q11", "bi.q12", "bi.q13", "bi.q14", "bi.q15", "bi.q16", "bi.q17", "bi.q18",
    "bi.q19", "bi.q20", "bi.q21", "bi.q22", "bi.q23", "bi.q24", "bi.q25",
];

impl Workload for BiPower {
    const NAME: &'static str = "bi_power";
    const SCALE: &'static str = "0.3";

    fn op_types() -> Vec<String> {
        (1..=25).map(|q| format!("q{q:02}")).collect()
    }

    fn slices(plan: &Plan) -> usize {
        plan.slices(SLICE_S)
    }

    fn setup(plan: &Plan) -> Self {
        let (store, _stream) = dataset::load(plan.scale(Self::SCALE));
        let all: Vec<u8> = (1..=25).collect();
        let bindings: Vec<BiParams> = dataset::curate(&store, &all).into_iter().flatten().collect();
        assert_eq!(bindings.len(), 25 * BINDINGS_PER_QUERY, "every query curates 8 bindings");
        BiPower {
            store,
            ctx: QueryContext::single_threaded(),
            bindings,
            order: Vec::new(),
            results: Vec::new(),
        }
    }

    fn prepare(&mut self, plan: &Plan) {
        self.order = oplist::permutation(plan.seed, 1, self.bindings.len());
    }

    fn run_slice(&mut self, slice: Option<usize>, rec: &mut Recorder) {
        let mut pass = vec![None; self.bindings.len()];
        for &i in &self.order {
            let params = &self.bindings[i as usize];
            let query = params.query() as usize;
            pass[i as usize] = rec.op(query - 1, |tr, op| {
                let span = tr.begin(SPAN_NAMES[query - 1], op);
                let summary = snb_bi::run_with(&self.store, &self.ctx, params);
                tr.end(span);
                Ok(summary)
            });
        }
        if slice.is_some() {
            self.results.push(pass);
        }
    }

    fn layers(&mut self, spans: &Rollup, layers: &mut Layers) {
        for (q, span) in SPAN_NAMES.iter().enumerate() {
            layers.set(&format!("bi.q{:02}_ms", q + 1), spans.median_ns(span) / 1e6);
        }
        // Operator counts of one full pass; they depend on the data
        // and the bindings only, so they repeat exactly.
        self.ctx.metrics().reset();
        let rows: usize =
            self.bindings.iter().map(|p| snb_bi::run_with(&self.store, &self.ctx, p).rows).sum();
        let profile = self.ctx.metrics().snapshot();
        layers.set("engine.rows_scanned", profile.rows_scanned as f64);
        layers.set("engine.edges_traversed", profile.edges_traversed as f64);
        layers.set("engine.morsels", profile.morsels as f64);
        layers.set("engine.topk_pruned", profile.topk_pruned as f64);
        layers.set("engine.index_fallbacks", profile.index_fallbacks as f64);
        layers.set("engine.rows_per_result", profile.rows_scanned as f64 / rows.max(1) as f64);
    }

    fn verify(self, rec: &mut Recorder) {
        let Some(first) = self.results.first() else {
            return rec.fail("no measured pass".into());
        };
        for (i, params) in self.bindings.iter().enumerate() {
            let label = format!("BI {} binding {}", params.query(), i % BINDINGS_PER_QUERY);
            if i % BINDINGS_PER_QUERY < NAIVE_CHECKED {
                let naive = snb_bi::run_naive(&self.store, params);
                if first[i] != Some(naive) {
                    rec.fail(format!("{label}: engine {:?} != naive {naive:?}", first[i]));
                }
            }
            for (pass, results) in self.results.iter().enumerate().skip(1) {
                if results[i] != first[i] {
                    rec.fail(format!("{label}: pass {pass} differs from pass 0"));
                }
            }
        }
    }
}
