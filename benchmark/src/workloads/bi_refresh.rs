//! `bi_refresh`: the paper's throughput batch in its disjoint
//! read/write mode. Each microbatch is one insert batch (about a
//! simulated day of the update stream), one delete batch (the likes on
//! posts that day added), then every read binding once, all through an
//! in-process durable server. It uses the store the other way round from
//! `bi_power`: writes beside reads, copy-on-write publishes, WAL
//! appends, snapshot pins. Writes and reads each take about half the
//! wall, so a read gain paid for by slower inserts or deletes shows.
//! Reader/writer *contention* is deliberately not measured: one
//! client, one request in flight.

use std::time::Instant;

use snb_bi::BiParams;
use snb_core::SnbResult;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_engine::QueryContext;
use snb_server::{
    InProcClient, OkBody, SegmentedWal, Server, ServiceParams, WalOptions, WriteBatch, WriteOps,
};
use snb_store::{DeleteOp, PartitionedStore, StoreHandle};

use crate::dataset;
use crate::harness::{median_ms, Plan, Recorder, Workload};
use crate::metrics::Layers;
use crate::oplist;
use crate::trace::Rollup;

/// The BI queries the reads cycle through.
const READ_QUERIES: [u8; 10] = [2, 3, 5, 9, 12, 13, 14, 19, 21, 24];

/// One slice is one microbatch, about 0.19 s at SF 0.3.
const SLICE_S: f64 = 0.19;

/// Insert events per microbatch at full size (fewer when the update
/// stream is too short for the planned number of microbatches).
const EVENTS_PER_BATCH: usize = 1200;

/// Microbatches the copy-on-write probe applies per variant.
const PROBE_BATCHES: usize = 3;

const TY_INSERT: usize = 0;
const TY_DELETE: usize = 1;
const TY_READ0: usize = 2;

pub struct BiRefresh {
    scale: &'static str,
    server: Option<Server>,
    client: InProcClient,
    world: StaticWorld,
    stream: Vec<TimedEvent>,
    /// Read bindings, flattened over [`READ_QUERIES`].
    reads: Vec<BiParams>,
    /// Seeded order every microbatch runs the reads in. Each microbatch
    /// runs each binding once (80 reads, about half of its wall), so
    /// the slices do equal read work whatever the seed.
    read_order: Vec<u32>,
    events_per_batch: usize,
    /// Write batches of the microbatches not yet submitted, built
    /// ahead so no clone runs inside the measured window.
    pending: std::collections::VecDeque<(WriteOps, WriteOps)>,
    /// Microbatches submitted so far (warm-up included).
    submitted: usize,
    last_applied: u64,
    wal_dir: std::path::PathBuf,
    /// Server-side `(queue_us, exec_us)` of traced reads.
    server_side: Vec<(u64, u64)>,
}

impl BiRefresh {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until the workload is dropped")
    }

    /// The insert events and the delete batch of microbatch `i`.
    fn microbatch(&self, i: usize) -> (&[TimedEvent], Vec<DeleteOp>) {
        let events = &self.stream[i * self.events_per_batch..(i + 1) * self.events_per_batch];
        (events, dataset::post_like_deletes(events))
    }

    /// Checks one acknowledgement: sequence numbers never go back.
    fn note_ack(&mut self, ok: &OkBody, rec: &mut Recorder) {
        if ok.applied_seq < self.last_applied {
            rec.fail(format!(
                "applied_seq went back: {} after {}",
                ok.applied_seq, self.last_applied
            ));
        }
        self.last_applied = ok.applied_seq;
    }

    fn write(&mut self, ty: usize, span: &'static str, ops: WriteOps, rec: &mut Recorder) {
        // Two write batches per microbatch, numbered from 1 without a
        // gap, as the server's exactly-once contract asks.
        let seq = self.submitted as u64 * 2 + if ty == TY_INSERT { 1 } else { 2 };
        let request = ServiceParams::Write(WriteBatch { seq, ops });
        let client = &self.client;
        let ok = rec.op(ty, |tr, op| {
            let s = tr.begin(span, op);
            let response = client.call(request, 0);
            tr.end(s);
            response
                .body
                .map_err(|e| format!("write {seq} refused: {} {}", e.kind.name(), e.detail))
        });
        if let Some(ok) = ok {
            if ok.applied_seq != seq {
                rec.fail(format!("write {seq} acknowledged at applied_seq {}", ok.applied_seq));
            }
            self.note_ack(&ok, rec);
        }
    }

    fn run_microbatch(&mut self, rec: &mut Recorder) {
        let (inserts, deletes) = self.pending.pop_front().expect("a prepared microbatch");
        self.write(TY_INSERT, "server.write_ack_insert", inserts, rec);
        self.write(TY_DELETE, "server.write_ack_delete", deletes, rec);
        self.submitted += 1;
        for i in 0..self.read_order.len() {
            let which = self.read_order[i] as usize;
            let params = self.reads[which].clone();
            let ty = TY_READ0 + which / dataset::BINDINGS_PER_QUERY;
            let client = &self.client;
            let ok = rec.op(ty, |tr, op| {
                let s = tr.begin("server.inproc_call", op);
                let response = client.call(ServiceParams::Bi(params), 0);
                tr.end(s);
                response.body.map_err(|e| format!("read refused: {} {}", e.kind.name(), e.detail))
            });
            if let Some(ok) = ok {
                if rec.tracing() {
                    self.server_side.push((ok.queue_us, ok.exec_us));
                }
                self.note_ack(&ok, rec);
            }
        }
    }
}

impl Drop for BiRefresh {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for BiRefresh {
    const NAME: &'static str = "bi_refresh";
    const SCALE: &'static str = "0.3";

    fn op_types() -> Vec<String> {
        ["insert", "delete"]
            .into_iter()
            .map(String::from)
            .chain(READ_QUERIES.iter().map(|q| format!("q{q:02}")))
            .collect()
    }

    fn slices(plan: &Plan) -> usize {
        plan.slices(SLICE_S)
    }

    fn setup(plan: &Plan) -> Self {
        let scale = plan.scale(Self::SCALE);
        let config = dataset::config(scale);
        let (bulk, stream) = dataset::load(scale);
        let reads = dataset::curate(&bulk, &READ_QUERIES).into_iter().flatten().collect();
        drop(bulk);
        // A fresh directory: recovery rebuilds the bulk store and opens
        // an empty log. Every append is flushed before its ack
        // (`fsync_every` = 1, no group commit).
        let wal_dir = plan.scratch.join("wal");
        let recovered = snb_server::recover(&wal_dir, &config, scale, WalOptions::default())
            .expect("recover a fresh WAL directory");
        let (store, durability, _report) = recovered.into_durability();
        let server = Server::start_durable(store, super::server_config(), durability);
        let events_per_batch = if plan.smoke { 20 } else { EVENTS_PER_BATCH };
        BiRefresh {
            scale,
            client: server.client(),
            server: Some(server),
            world: StaticWorld::build(config.seed),
            stream,
            reads,
            read_order: Vec::new(),
            events_per_batch,
            pending: Default::default(),
            submitted: 0,
            last_applied: 0,
            wal_dir,
            server_side: Vec::new(),
        }
    }

    fn prepare(&mut self, plan: &Plan) {
        self.read_order = oplist::permutation(plan.seed, 1, self.reads.len());
        // Warm-up, the measured slices and the layer probes all draw
        // consecutive microbatches from the one event stream.
        let run = 1 + Self::slices(plan);
        let needed = run + 2 * PROBE_BATCHES;
        self.events_per_batch = self.events_per_batch.min(self.stream.len() / needed);
        assert!(self.events_per_batch > 0, "the update stream is too short for {needed} batches");
        self.pending = (0..run)
            .map(|i| {
                let (events, deletes) = self.microbatch(i);
                (WriteOps::Updates(events.to_vec()), WriteOps::Deletes(deletes))
            })
            .collect();
    }

    fn run_slice(&mut self, _slice: Option<usize>, rec: &mut Recorder) {
        self.run_microbatch(rec);
    }

    fn layers(&mut self, spans: &Rollup, layers: &mut Layers) {
        layers.set("server.write_ack_insert_ms", spans.median_ns("server.write_ack_insert") / 1e6);
        layers.set("server.write_ack_delete_ms", spans.median_ns("server.write_ack_delete") / 1e6);
        layers.set("server.inproc_call_us", spans.median_ns("server.inproc_call") / 1e3);
        super::server_layers(self.server(), &self.server_side, layers);
        layers.set("server.wal_fsyncs", self.server().wal_syncs() as f64);
        let written: usize = (0..self.submitted)
            .map(|i| {
                let (events, deletes) = self.microbatch(i);
                events.len() + deletes.len()
            })
            .sum();
        let wal_bytes = std::fs::metadata(self.wal_dir.join("wal.log")).map_or(0, |m| m.len());
        layers.set("server.wal_bytes_per_event", wal_bytes as f64 / written.max(1) as f64);

        // The log alone: append + flush of the next unused insert
        // batches into a log of their own.
        let probe_dir = self.wal_dir.with_file_name("wal-probe");
        let config = dataset::config(self.scale);
        let mut wal = SegmentedWal::open(
            &probe_dir,
            self.scale,
            config.seed,
            WalOptions::default(),
            0,
            &[],
            0,
        )
        .expect("open the probe log");
        let first = self.submitted;
        let append_ms = median_ms(2 * PROBE_BATCHES, |i| {
            let (events, _) = self.microbatch(first + i);
            wal.append(i as u64 + 1, &WriteOps::Updates(events.to_vec())).expect("append");
            wal.sync().expect("flush");
        });
        layers.set("server.wal_append_us", append_ms * 1e3);

        // The store alone. `apply_*` mutates an owned store in place;
        // `publish_*` goes through `StoreHandle::publish_with` with one
        // reader pinned, which clones copy-on-write and publishes. The
        // difference is the copy-on-write share of a write.
        let insert = |store: &mut PartitionedStore, i: usize| -> SnbResult<()> {
            for ev in self.microbatch(first + i).0 {
                store.apply_event(ev, &self.world)?;
            }
            if !store.date_index_fresh() {
                store.rebuild_date_index();
            }
            Ok(())
        };
        let delete = |store: &mut PartitionedStore, i: usize| -> SnbResult<()> {
            store.apply_deletes(&self.microbatch(first + i).1)?;
            if !store.date_index_fresh() {
                store.rebuild_date_index();
            }
            Ok(())
        };
        let current = self.server().snapshot();
        let mut owned: PartitionedStore = (*current).clone();
        let ms = median_ms(PROBE_BATCHES, |i| insert(&mut owned, i).expect("direct insert"));
        layers.set("store.apply_insert_ms", ms);
        let ms = median_ms(PROBE_BATCHES, |i| delete(&mut owned, i).expect("direct delete"));
        layers.set("store.apply_delete_ms", ms);
        drop(owned);
        let handle = StoreHandle::new((*current).clone());
        let _pinned = handle.snapshot();
        let ms = median_ms(PROBE_BATCHES, |i| {
            handle.publish_with(|next| insert(next, i)).expect("published insert")
        });
        layers.set("store.publish_insert_ms", ms);
        let ms = median_ms(PROBE_BATCHES, |i| {
            handle.publish_with(|next| delete(next, i)).expect("published delete")
        });
        layers.set("store.publish_delete_ms", ms);
        let started = Instant::now();
        for _ in 0..100_000 {
            std::hint::black_box(handle.snapshot());
        }
        layers.set("store.snapshot_pin_ns", started.elapsed().as_nanos() as f64 / 1e5);
    }

    fn verify(self, rec: &mut Recorder) {
        let batches = self.submitted as u64 * 2;
        if self.server().last_applied_seq() != batches || self.last_applied != batches {
            rec.fail(format!(
                "{batches} write batches submitted, server applied {}, last ack {}",
                self.server().last_applied_seq(),
                self.last_applied
            ));
        }
        // The oracle: a fresh bulk store with the same microbatches
        // applied directly, no server, log or snapshots in between.
        let (mut oracle, _) = snb_store::bulk_store_and_stream(&dataset::config(self.scale));
        for i in 0..self.submitted {
            let (events, deletes) = self.microbatch(i);
            if let Err(why) = dataset::apply_direct(&mut oracle, &self.world, events, &deletes) {
                return rec.fail(why);
            }
        }
        let ctx = QueryContext::single_threaded();
        let all: Vec<u8> = (1..=25).collect();
        for params in dataset::curate(&oracle, &all).into_iter().flat_map(|b| b.into_iter().take(2))
        {
            let want = snb_bi::run_with(&oracle, &ctx, &params);
            match self.client.call(ServiceParams::Bi(params.clone()), 0).body {
                Ok(ok) if ok.rows as usize == want.rows && ok.fingerprint == want.fingerprint => {}
                other => {
                    rec.fail(format!("BI {}: server {other:?} != oracle {want:?}", params.query()))
                }
            }
        }
    }
}
