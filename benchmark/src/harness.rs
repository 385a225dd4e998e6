//! The part every workload shares: timed set-up, warm-up, equal-work
//! slices, pooled latencies, the traced variant, verification and the
//! result line.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, Layers};
use crate::trace::{Rollup, Tracer};
use crate::{dataset, host, stats};

/// Fewest measured slices a run may have; the smoke pass runs exactly
/// this many.
pub const MIN_SLICES: usize = 7;

/// How often set-up runs in an end-to-end run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Time metrics are taken from the fastest 1/`KEEP_ONE_IN` of a run's
/// slices (never fewer than [`MIN_KEPT`]). Slices do equal work, so
/// undisturbed they take equal time, and whatever the host adds only
/// ever slows a slice. On the shared host this was calibrated on, a
/// neighbour slows everything that touches memory by about 1.5× for 10
/// to 80 seconds at a time, a quarter to a third of the time: the
/// median slice of a 10 s window then moves by 37 % between runs of the
/// same code (interquartile), the fastest fifth by 6–9 %.
const KEEP_ONE_IN: usize = 5;
const MIN_KEPT: usize = 3;

/// Everything a workload needs to know about this invocation.
pub struct Plan {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny scale factor and op counts: a functional pass in seconds.
    pub smoke: bool,
    /// Directory of this process for WAL segments and store images.
    pub scratch: PathBuf,
    /// Where `run-*.json` and `trace-*.json` go.
    pub out_dir: PathBuf,
}

impl Plan {
    /// Slices for a workload whose slice takes `slice_s` on the
    /// reference host: as many as fit `--seconds`, never fewer than
    /// [`MIN_SLICES`]. Work is fixed by this count, not by a clock.
    pub fn slices(&self, slice_s: f64) -> usize {
        if self.smoke {
            return MIN_SLICES;
        }
        let n = ((self.seconds as f64 / slice_s).round() as usize).max(MIN_SLICES);
        // A traced run alternates untraced and traced slices; an even
        // count gives both sides the same number.
        if self.trace {
            n.next_multiple_of(2)
        } else {
            n
        }
    }

    /// The scale factor a workload runs at.
    pub fn scale(&self, full: &'static str) -> &'static str {
        if self.smoke {
            "0.003"
        } else {
            full
        }
    }
}

/// One workload: product calls only, no clocks of its own beyond what
/// [`Recorder`] gives it.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Scale factor name at full size.
    const SCALE: &'static str;

    /// Names of the operation types, indexed by the `ty` passed to
    /// [`Recorder::op`]. `lat_geomean_ms` weighs each the same.
    fn op_types() -> Vec<String>;

    /// Measured slices of this run.
    fn slices(plan: &Plan) -> usize;

    /// Timed as `setup_s`: datagen → store build → binding curation →
    /// server start. Product work only.
    fn setup(plan: &Plan) -> Self;

    /// Untimed: turns `plan.seed` into this run's op lists.
    fn prepare(&mut self, plan: &Plan);

    /// Runs one slice (`None` is the discarded warm-up slice).
    fn run_slice(&mut self, slice: Option<usize>, rec: &mut Recorder);

    /// Traced runs only: fills the per-layer metrics this workload
    /// covers from its spans and from direct probes of single layers.
    fn layers(&mut self, spans: &Rollup, layers: &mut Layers);

    /// Oracle verification, after the measured window. Reports every
    /// mismatch through [`Recorder::fail`].
    fn verify(self, rec: &mut Recorder);
}

struct SliceStat {
    ops: usize,
    secs: f64,
    traced: bool,
}

/// One measured operation.
struct OpSample {
    ty: u16,
    slice: u32,
    ns: u64,
}

/// Collects what one run measures.
pub struct Recorder {
    pub tracer: Tracer,
    /// Every measured op, warm-up excluded.
    ops: Vec<OpSample>,
    slices: Vec<SliceStat>,
    measuring: bool,
    slice_ops: usize,
    paused_ns: u64,
    next_op: u32,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            tracer: Tracer::new(),
            ops: Vec::new(),
            slices: Vec::new(),
            measuring: false,
            slice_ops: 0,
            paused_ns: 0,
            next_op: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Times one operation of type `ty` under a top-level span. `f`
    /// gets the tracer (for the layer calls inside the op) and the op
    /// id; an `Err` counts the op as failed.
    pub fn op<T>(
        &mut self,
        ty: usize,
        f: impl FnOnce(&mut Tracer, u32) -> Result<T, String>,
    ) -> Option<T> {
        let id = self.next_op_id();
        let span = self.tracer.begin("op", id);
        let started = Instant::now();
        let out = f(&mut self.tracer, id);
        let ns = started.elapsed().as_nanos() as u64;
        self.tracer.end(span);
        self.sample(ty, ns);
        match out {
            Ok(v) => Some(v),
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    /// A fresh op id, for a workload that opens its own spans.
    pub fn next_op_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// Records one attempted operation the workload timed itself
    /// (requests in flight together cannot be timed by one closure).
    pub fn sample(&mut self, ty: usize, ns: u64) {
        self.attempted += 1;
        if self.measuring {
            self.ops.push(OpSample { ty: ty as u16, slice: self.slices.len() as u32, ns });
            self.slice_ops += 1;
        }
    }

    /// Counts one failed, refused or mismatching operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            eprintln!("FAIL: {why}");
            self.failures.push(why);
        }
    }

    /// Runs `f` with the slice clock stopped: for checks that must see
    /// a result before it is dropped but are not part of the workload.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.paused_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// Whether the current slice records spans (probes that feed the
    /// per-layer metrics sample only then).
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Which slices the time metrics are taken from: the fastest fifth
    /// of each kind (traced slices run slower than untraced ones, so
    /// they are ranked apart).
    fn kept_slices(&self) -> Vec<bool> {
        let mut kept = vec![false; self.slices.len()];
        for traced in [false, true] {
            let mut of_kind: Vec<usize> =
                (0..self.slices.len()).filter(|&i| self.slices[i].traced == traced).collect();
            of_kind.sort_by(|&a, &b| self.slices[a].secs.total_cmp(&self.slices[b].secs));
            for &i in of_kind.iter().take(kept_of(of_kind.len())) {
                kept[i] = true;
            }
        }
        kept
    }
}

/// How many of `n` slices are kept.
fn kept_of(n: usize) -> usize {
    n.div_ceil(KEEP_ONE_IN).max(MIN_KEPT).min(n)
}

/// Median milliseconds of `f(0)`, …, `f(n - 1)`: the timer of the
/// direct layer probes.
pub fn median_ms(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|i| {
            let started = Instant::now();
            f(i);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn run_slices<W: Workload>(w: &mut W, plan: &Plan, rec: &mut Recorder) {
    w.run_slice(None, rec);
    rec.measuring = true;
    for slice in 0..W::slices(plan) {
        let traced = plan.trace && slice % 2 == 1;
        rec.tracer.set_enabled(traced);
        rec.slice_ops = 0;
        rec.paused_ns = 0;
        let started = Instant::now();
        w.run_slice(Some(slice), rec);
        let secs = (started.elapsed().as_nanos() as u64 - rec.paused_ns) as f64 / 1e9;
        rec.slices.push(SliceStat { ops: rec.slice_ops, secs, traced });
    }
    rec.tracer.set_enabled(false);
    rec.measuring = false;
}

/// Runs workload `W` as the contract asks and returns the result line
/// (`correct`, `attempted`, `failed`, `metrics`).
pub fn drive<W: Workload>(plan: &Plan) -> Json {
    let load_start = host::loadavg();
    let core = host::confine_to_one_core();
    let sentinel_before = host::sentinel_ms();
    std::fs::create_dir_all(&plan.out_dir).expect("create output directory");
    let scale = plan.scale(W::SCALE);

    // Set-up, repeated so one slow start cannot set `setup_s`; each
    // instance is dropped before the next is built, so only one is
    // ever resident.
    let repeats = if plan.trace || plan.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::with_capacity(repeats);
    let mut ready = None;
    let mut rss_after_setup_mb = 0.0;
    for repeat in 0..repeats {
        drop(ready.take());
        let _ = std::fs::remove_dir_all(&plan.scratch);
        std::fs::create_dir_all(&plan.scratch).expect("create scratch directory");
        let started = Instant::now();
        ready = Some(W::setup(plan));
        setup_secs.push(started.elapsed().as_secs_f64());
        if repeat == 0 {
            // The process is fresh: nothing but the first set-up is
            // resident.
            rss_after_setup_mb = host::rss_mb();
        }
    }
    let mut w = ready.expect("at least one set-up");
    let setup_s = stats::median(&setup_secs);
    w.prepare(plan);

    let mut rec = Recorder::new();
    let window = Instant::now();
    run_slices(&mut w, plan, &mut rec);
    let window_s = window.elapsed().as_secs_f64();
    // Sampled before verification allocates its oracle.
    let peak_rss_mb = host::peak_rss_mb();

    // Time metrics come from the kept slices only. Their number is
    // fixed by the plan, so the sample count behind the percentiles is
    // the same in every run.
    let kept = rec.kept_slices();
    let rate = |traced: bool| {
        let rates: Vec<(usize, f64)> = rec
            .slices
            .iter()
            .zip(&kept)
            .filter(|(s, kept)| s.traced == traced && **kept)
            .map(|(s, _)| (s.ops, s.secs))
            .collect();
        stats::slice_throughput(&rates)
    };
    let latencies_ms = |ty: Option<usize>| -> Vec<f64> {
        rec.ops
            .iter()
            .filter(|op| kept[op.slice as usize] && ty.is_none_or(|ty| op.ty as usize == ty))
            .map(|op| op.ns as f64 / 1e6)
            .collect()
    };
    let pooled = latencies_ms(None);
    let tail = stats::tail_percentile(pooled.len());
    let per_type: Vec<(String, f64)> = W::op_types()
        .into_iter()
        .enumerate()
        .map(|(ty, name)| (name, latencies_ms(Some(ty))))
        .filter(|(_, lat)| !lat.is_empty())
        .map(|(name, lat)| (name, stats::median(&lat)))
        .collect();
    let ops_per_s = rate(false);
    let lat_geomean_ms = stats::geomean(&per_type.iter().map(|(_, ms)| *ms).collect::<Vec<_>>());
    let end_to_end = [
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("lat_p50_ms", stats::median(&pooled)),
        ("lat_tail_ms", stats::percentile(&pooled, tail)),
        ("lat_geomean_ms", lat_geomean_ms),
        ("peak_rss_mb", peak_rss_mb),
    ];

    let mut layers = Layers::new();
    let mut traced = None;
    if plan.trace {
        let rollup = rec.tracer.rollup();
        w.layers(&rollup, &mut layers);
        dataset::setup_layers(scale, &mut layers);
        layers.set("store.rss_after_build_mb", rss_after_setup_mb);
        layers.set("trace.overhead_share", rate(true) / ops_per_s - 1.0);
        layers.set("trace.spans", rec.tracer.spans().len() as f64);
        let traced_wall: f64 = rec.slices.iter().filter(|s| s.traced).map(|s| s.secs).sum();
        traced = Some((rec.tracer.top_level_ns() as f64 / 1e9 / traced_wall, rollup));
        let path = plan.out_dir.join(format!("trace-{}.json", W::NAME));
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut out = std::io::BufWriter::new(file);
        rec.tracer.write_json(&mut out).expect("write trace file");
        std::io::Write::flush(&mut out).expect("flush trace file");
    }

    w.verify(&mut rec);
    let _ = std::fs::remove_dir_all(&plan.scratch);

    let sentinel_after = host::sentinel_ms();
    layers.set("host.sentinel_ms", (sentinel_before + sentinel_after) / 2.0);
    let sentinel_low = sentinel_before.min(sentinel_after);
    let contaminated = sentinel_before.max(sentinel_after) / sentinel_low - 1.0 > 0.10;

    let metrics = if plan.trace {
        metrics::metrics_json(metrics::per_layer(), |name| layers.get(name))
    } else {
        metrics::metrics_json(metrics::end_to_end().into_iter().map(|(d, _)| d), |name| {
            end_to_end.iter().find(|(n, _)| *n == name).expect("registered end-to-end metric").1
        })
    };
    let result = Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Int(rec.attempted)),
        ("failed", Json::Int(rec.failed)),
        ("metrics", metrics),
    ]);

    let sf: f64 = scale.parse().expect("scale names are numbers");
    let mut run = vec![
        ("workload", Json::str(W::NAME)),
        ("scale", Json::str(scale)),
        ("seed", Json::Int(plan.seed)),
        ("datagen_seed", Json::Int(dataset::config(scale).seed)),
        ("seconds", Json::Int(plan.seconds)),
        ("traced", Json::Bool(plan.trace)),
        ("scratch", Json::str(plan.scratch.display().to_string())),
        ("setup_runs_s", Json::Arr(setup_secs.iter().map(|s| Json::Num(*s)).collect())),
        ("window_s", Json::Num(window_s)),
        ("slice_s", Json::Arr(rec.slices.iter().map(|s| Json::Num(s.secs)).collect())),
        ("core", core.map_or(Json::Null, |c| Json::Int(c as u64))),
        ("slice_kept", Json::Arr(kept.iter().map(|c| Json::Bool(*c)).collect())),
        ("samples", Json::Int(pooled.len() as u64)),
        ("tail_percentile", Json::Num(tail)),
        ("per_type_median_ms", Json::obj(per_type.into_iter().map(|(n, ms)| (n, Json::Num(ms))))),
        // Informational, after the paper: power@SF = 3600·SF ÷ geomean
        // seconds; the throughput score scales ops per hour the same way.
        ("power_score", Json::Num(3600.0 * sf / (lat_geomean_ms / 1e3))),
        ("throughput_score", Json::Num(3600.0 * sf * ops_per_s)),
        ("sentinel_before_ms", Json::Num(sentinel_before)),
        ("sentinel_after_ms", Json::Num(sentinel_after)),
        ("contaminated", Json::Bool(contaminated)),
        ("loadavg_start", Json::str(load_start)),
        ("loadavg_end", Json::str(host::loadavg())),
        ("failures", Json::Arr(rec.failures.iter().map(Json::str).collect())),
        ("result", result.clone()),
    ];
    if let Some((c, rollup)) = traced {
        run.push(("top_level_span_coverage", Json::Num(c)));
        let rollup = rollup.0.into_iter().map(|(name, t)| {
            let fields = [
                ("count", Json::Int(t.count)),
                ("median_ms", Json::Num(t.median_ns / 1e6)),
                ("self_s", Json::Num(t.self_ns as f64 / 1e9)),
            ];
            (name, Json::obj(fields))
        });
        run.push(("spans", Json::obj(rollup)));
        if c < 0.9 {
            eprintln!("WARNING: top-level spans cover only {:.1} % of the traced wall", c * 100.0);
        }
    }
    run.extend(host::metadata());
    let run = Json::obj(run);
    std::fs::write(plan.out_dir.join(format!("run-{}.json", W::NAME)), format!("{run}\n"))
        .expect("write run metadata");

    eprintln!(
        "# {} seed {} SF {}: {} ops in the fastest {} of {} slices, window {:.1} s, tail = p{:.0}{}",
        W::NAME,
        plan.seed,
        scale,
        pooled.len(),
        kept.iter().filter(|k| **k).count(),
        rec.slices.len(),
        window_s,
        tail * 100.0,
        if contaminated { ", CONTAMINATED (sentinel moved > 10 %)" } else { "" },
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fifth_of_the_slices_is_kept_but_never_fewer_than_three() {
        assert_eq!(kept_of(48), 10);
        assert_eq!(kept_of(63), 13);
        assert_eq!(kept_of(7), 3);
        assert_eq!(kept_of(2), 2);
    }

    #[test]
    fn the_fastest_slices_of_each_kind_are_kept() {
        let mut rec = Recorder::new();
        let secs = [1.0, 1.5, 0.9, 1.6, 1.1, 1.4, 0.8, 1.5, 1.2, 1.5];
        for (i, secs) in secs.into_iter().enumerate() {
            rec.slices.push(SliceStat { ops: 10, secs, traced: i % 2 == 1 });
        }
        // Five untraced slices (0.8–1.2 s) and five traced ones
        // (1.4–1.6 s): three of each are kept, ranked within their kind.
        let kept = rec.kept_slices();
        assert_eq!(kept, [true, true, true, false, false, true, true, true, false, false]);
    }

    #[test]
    fn only_measured_ops_are_pooled_but_all_are_counted() {
        let mut rec = Recorder::new();
        rec.sample(0, 5);
        rec.measuring = true;
        rec.sample(1, 7);
        assert_eq!(rec.op(2, |_, _| Err::<(), _>("refused".into())), None);
        assert_eq!((rec.attempted, rec.failed, rec.ops.len()), (3, 1, 2));
    }
}
