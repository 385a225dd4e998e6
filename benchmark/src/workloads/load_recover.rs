//! `load_recover`: image write, recovery from image + WAL tail, and
//! recovery by full rebuild + replay, in a cycle. It is the only
//! workload that runs `server::wal`, `server::image`, `store::image`,
//! `datagen` and the store builders hot, so it guards changes to how
//! the system persists and comes back.

use std::path::PathBuf;
use std::time::Instant;

use snb_bi::BiParams;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_engine::QueryContext;
use snb_server::{SegmentedWal, WalOptions, WriteOps};
use snb_store::Store;

use crate::dataset;
use crate::harness::{median_ms, Plan, Recorder, Workload};
use crate::metrics::Layers;
use crate::oplist;
use crate::stats;
use crate::trace::Rollup;

/// One slice is one cycle of three ops. A cycle takes about 0.26 s at
/// SF 0.1; the nominal slice time is shorter so that `--seconds 12`
/// plans 67 cycles, of which the fastest fifth pools 42 samples — the
/// fewest that leave ten beyond p75.
const SLICE_S: f64 = 0.18;

/// Batches in the WAL tail every recovery replays, and their events.
const TAIL_BATCHES: usize = 64;
const TAIL_EVENTS: usize = 6_400;

const TY_IMAGE_WRITE: usize = 0;
const TY_RECOVER_TAIL: usize = 1;
const TY_RECOVER_REPLAY: usize = 2;

/// One binding per BI query fingerprints a store.
type Fingerprint = Vec<(usize, u64)>;

pub struct LoadRecover {
    scale: &'static str,
    dir: PathBuf,
    /// The bulk store images are written from.
    source: Store,
    stream: Vec<TimedEvent>,
    /// One curated binding per BI query.
    probes: Vec<BiParams>,
    ctx: QueryContext,
    /// End offset of each tail batch in `stream`.
    tail_cuts: Vec<usize>,
    /// Microseconds per append + flush while the tail was written.
    append_us: Vec<f64>,
    tail_fsyncs: u64,
    /// What every store recovered in the measured window answered.
    recovered: Vec<Fingerprint>,
    /// `(image_us, tail_replayed)` of the traced `recover_tail` ops.
    tail_reports: Vec<(u64, u64)>,
}

impl LoadRecover {
    fn fingerprint(&self, store: &Store) -> Fingerprint {
        self.probes
            .iter()
            .map(|p| {
                let s = snb_bi::run_with(store, &self.ctx, p);
                (s.rows, s.fingerprint)
            })
            .collect()
    }

    /// Recovers `dir` under a span; `Err` when recovery refuses or does
    /// not reach the end of the tail.
    fn recover(
        &self,
        ty: usize,
        span: &'static str,
        rec: &mut Recorder,
    ) -> Option<snb_server::Recovered> {
        let config = dataset::config(self.scale);
        rec.op(ty, |tr, op| {
            let s = tr.begin(span, op);
            let out = snb_server::recover(&self.dir, &config, self.scale, WalOptions::default());
            tr.end(s);
            let out = out.map_err(|e| format!("{span}: {e}"))?;
            if out.report.last_seq != TAIL_BATCHES as u64 {
                return Err(format!("{span}: recovered to seq {}", out.report.last_seq));
            }
            Ok(out)
        })
    }

    fn cycle(&mut self, keep: bool, rec: &mut Recorder) {
        let config = dataset::config(self.scale);
        rec.op(TY_IMAGE_WRITE, |tr, op| {
            let s = tr.begin("server.image_write", op);
            let out =
                snb_server::write_image(&self.dir, self.scale, config.seed, 0, 0, 1, &self.source);
            tr.end(s);
            out.map_err(|e| format!("image_write: {e}"))
        });
        if let Some(r) = self.recover(TY_RECOVER_TAIL, "server.recover_tail", rec) {
            if rec.tracing() {
                self.tail_reports.push((r.report.image_us, r.report.tail_replayed));
            }
            // The recovered store is checked while it exists, with the
            // slice clock stopped; the oracle it is held against is
            // built only after the window.
            if keep {
                let fp = rec.pause(|| self.fingerprint(&r.store));
                self.recovered.push(fp);
            }
        }
        if let Err(e) = std::fs::remove_file(self.dir.join(snb_server::IMAGE_FILE)) {
            rec.fail(format!("remove image: {e}"));
        }
        if let Some(r) = self.recover(TY_RECOVER_REPLAY, "server.recover_replay", rec) {
            if r.report.image_seq != 0 || r.report.tail_replayed != TAIL_BATCHES as u64 {
                rec.fail("recover_replay did not rebuild and replay the whole tail".into());
            }
            if keep {
                let fp = rec.pause(|| self.fingerprint(&r.store));
                self.recovered.push(fp);
            }
        }
    }

    fn tail_batch(&self, i: usize) -> &[TimedEvent] {
        let start = if i == 0 { 0 } else { self.tail_cuts[i - 1] };
        &self.stream[start..self.tail_cuts[i]]
    }
}

impl Workload for LoadRecover {
    const NAME: &'static str = "load_recover";
    const SCALE: &'static str = "0.1";

    fn op_types() -> Vec<String> {
        ["image_write", "recover_tail", "recover_replay"].map(String::from).to_vec()
    }

    fn slices(plan: &Plan) -> usize {
        plan.slices(SLICE_S)
    }

    fn setup(plan: &Plan) -> Self {
        let scale = plan.scale(Self::SCALE);
        let (source, stream) = dataset::load(scale);
        let all: Vec<u8> = (1..=25).collect();
        let probes = dataset::curate(&source, &all)
            .into_iter()
            .filter_map(|b| b.into_iter().next())
            .collect();
        LoadRecover {
            scale,
            dir: plan.scratch.join("recover"),
            source,
            stream,
            probes,
            ctx: QueryContext::single_threaded(),
            tail_cuts: Vec::new(),
            append_us: Vec::new(),
            tail_fsyncs: 0,
            recovered: Vec::new(),
            tail_reports: Vec::new(),
        }
    }

    /// Writes the WAL tail the recoveries replay: the first events of
    /// the update stream, cut into batches at seeded points, each
    /// appended and flushed like an acknowledged write.
    fn prepare(&mut self, plan: &Plan) {
        let events = if plan.smoke { 640 } else { TAIL_EVENTS }.min(self.stream.len());
        self.tail_cuts = oplist::cuts(plan.seed, events, TAIL_BATCHES);
        let config = dataset::config(self.scale);
        let mut wal = SegmentedWal::open(
            &self.dir,
            self.scale,
            config.seed,
            WalOptions::default(),
            0,
            &[],
            0,
        )
        .expect("open a fresh log");
        for i in 0..TAIL_BATCHES {
            let ops = WriteOps::Updates(self.tail_batch(i).to_vec());
            let started = Instant::now();
            wal.append(i as u64 + 1, &ops).expect("append to the tail");
            wal.sync().expect("flush the tail");
            self.append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        self.tail_fsyncs = wal.syncs();
    }

    fn run_slice(&mut self, slice: Option<usize>, rec: &mut Recorder) {
        self.cycle(slice.is_some(), rec);
    }

    fn layers(&mut self, spans: &Rollup, layers: &mut Layers) {
        layers.set("server.image_write_ms", spans.median_ns("server.image_write") / 1e6);
        layers.set("server.recover_tail_ms", spans.median_ns("server.recover_tail") / 1e6);
        layers.set("server.recover_replay_ms", spans.median_ns("server.recover_replay") / 1e6);
        let image_ms: Vec<f64> = self.tail_reports.iter().map(|r| r.0 as f64 / 1e3).collect();
        layers.set("server.recover_image_ms", stats::median(&image_ms));
        layers.set("server.tail_replayed", self.tail_reports.first().map_or(0.0, |r| r.1 as f64));
        layers.set("server.wal_append_us", stats::median(&self.append_us));
        layers.set("server.wal_fsyncs", self.tail_fsyncs as f64);
        let wal_bytes = std::fs::metadata(self.dir.join("wal.log")).map_or(0, |m| m.len());
        let events = *self.tail_cuts.last().expect("tail batches");
        layers.set("server.wal_bytes_per_event", wal_bytes as f64 / events as f64);

        // The image codec alone, and the image file without recovery.
        let mut encoded = Vec::new();
        let ms = median_ms(3, |_| encoded = snb_store::encode_store(&self.source));
        layers.set("store.image_encode_ms", ms);
        layers.set("store.image_mb", encoded.len() as f64 / (1u64 << 20) as f64);
        let ms = median_ms(3, |_| {
            std::hint::black_box(snb_store::decode_store(&encoded).expect("decode the image"));
        });
        layers.set("store.image_decode_ms", ms);
        let config = dataset::config(self.scale);
        snb_server::write_image(&self.dir, self.scale, config.seed, 0, 0, 1, &self.source)
            .expect("write the probe image");
        let ms = median_ms(3, |_| {
            let image = snb_server::load_image(&self.dir, self.scale, config.seed);
            std::hint::black_box(image.expect("load the image"));
        });
        layers.set("server.image_load_ms", ms);
    }

    fn verify(self, rec: &mut Recorder) {
        // The source of truth: the bulk store with the tail applied
        // directly.
        let config = dataset::config(self.scale);
        let world = StaticWorld::build(config.seed);
        let (mut oracle, _) = snb_store::bulk_store_and_stream(&config);
        for i in 0..TAIL_BATCHES {
            if let Err(why) = dataset::apply_direct(&mut oracle, &world, self.tail_batch(i), &[]) {
                return rec.fail(why);
            }
        }
        let want = self.fingerprint(&oracle);
        if self.recovered.is_empty() {
            rec.fail("no store was recovered in the measured window".into());
        }
        for (i, got) in self.recovered.iter().enumerate() {
            for (q, (g, w)) in got.iter().zip(&want).enumerate() {
                if g != w {
                    rec.fail(format!("recovery {i}: BI {} answers {g:?}, source {w:?}", q + 1));
                }
            }
        }
    }
}
