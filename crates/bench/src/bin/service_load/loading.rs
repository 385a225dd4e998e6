//! `--loading`: Experiment E19 — the millions-scale loading path.
//!
//! Four measurements over the same scale factor, emitted as the
//! `"loading"` block of `BENCH_service.json`:
//!
//! 1. **Streaming ingest throughput.** The datagen→store pipeline is
//!    driven through the streaming builder with a counting sink in the
//!    middle, so every entity type (persons, knows, forums,
//!    memberships, messages, likes) reports rows/sec and MB/sec of
//!    logical payload — the numbers a loader data sheet would quote.
//! 2. **Packed string footprint.** The interned/packed columns are
//!    summed against the `String`-per-row baseline the store replaced;
//!    the run **fails hard** if packing is not at least 2× smaller —
//!    that is the acceptance gate for the storage refactor, enforced
//!    where it is measured.
//! 3. **Peak RSS, streaming vs materialised.** The streaming phase
//!    runs first (`VmHWM` is sticky), the high-water mark is reset via
//!    `/proc/self/clear_refs` where the kernel allows it, and the
//!    classic materialise-everything build runs second, so the two
//!    peaks are attributable per phase.
//! 4. **Recovery vs history length.** The same update history is
//!    pushed through in-process durable servers at three lengths, with
//!    compaction on (`snapshot_every = 4`: an image every four batches)
//!    and off (`snapshot_every = 0`). With compaction the replayed tail
//!    is bounded by `snapshot_every` no matter the history (asserted);
//!    without, replay grows linearly. The longest recoveries are proven
//!    equal to a direct-apply oracle before anything is reported.

use std::time::Instant;

use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::graph::{RawForum, RawKnows, RawLike, RawMembership, RawMessage, RawPerson};
use snb_datagen::ActivitySink;
use snb_server::{Server, ServiceParams, WalOptions, WriteBatch, WriteOps};
use snb_store::StreamBuilder;

use crate::Args;

/// Events per write batch in the recovery curve (matches the chaos
/// harness carve).
const EVENTS_PER_BATCH: usize = 10;
/// Compaction cadence for the "compaction on" half of the recovery
/// curve: an image every four batches.
const SNAPSHOT_EVERY: u64 = 4;

/// Rows and logical payload bytes for one entity type.
#[derive(Default, Clone, Copy)]
struct Tally {
    rows: u64,
    bytes: u64,
}

impl Tally {
    fn add(&mut self, bytes: usize) {
        self.rows += 1;
        self.bytes += bytes as u64;
    }

    /// `{"rows": …, "bytes": …, "rows_per_sec": …, "mb_per_sec": …}`
    /// against the wall-clock of the stage that produced the rows.
    fn json(&self, wall_us: u64) -> String {
        let secs = wall_us.max(1) as f64 / 1e6;
        format!(
            "{{\"rows\": {}, \"bytes\": {}, \"rows_per_sec\": {:.0}, \"mb_per_sec\": {:.2}}}",
            self.rows,
            self.bytes,
            self.rows as f64 / secs,
            self.bytes as f64 / (1u64 << 20) as f64 / secs,
        )
    }
}

/// Logical payload size of each raw record: the variable-length content
/// plus a fixed overhead for the scalar fields. This is what a CSV/raw
/// loader would have to move, so it is the honest numerator for MB/sec.
fn person_bytes(p: &RawPerson) -> usize {
    64 + p.first_name.len()
        + p.last_name.len()
        + p.location_ip.len()
        + p.emails.iter().map(String::len).sum::<usize>()
        + p.languages.len()
        + p.interests.len() * 8
        + if p.study_at.is_some() { 12 } else { 0 }
        + p.work_at.len() * 12
}

fn forum_bytes(f: &RawForum) -> usize {
    32 + f.title.len() + f.tags.len() * 8
}

fn message_bytes(m: &RawMessage) -> usize {
    64 + m.content.len()
        + m.location_ip.len()
        + m.image_file.as_ref().map_or(0, String::len)
        + m.tags.len() * 8
}

/// [`ActivitySink`] adaptor: tallies every record, then hands it to the
/// real [`StreamBuilder`]. Generation order and content are untouched,
/// so the built store is bit-identical to an uncounted streaming build.
struct CountingSink<'a, 'w> {
    inner: &'a mut StreamBuilder<'w>,
    forums: Tally,
    memberships: Tally,
    messages: Tally,
    likes: Tally,
}

impl ActivitySink for CountingSink<'_, '_> {
    fn forum(&mut self, f: RawForum) {
        self.forums.add(forum_bytes(&f));
        self.inner.forum(f);
    }
    fn membership(&mut self, m: RawMembership) {
        self.memberships.add(std::mem::size_of::<RawMembership>());
        self.inner.membership(m);
    }
    fn message(&mut self, m: RawMessage) {
        self.messages.add(message_bytes(&m));
        self.inner.message(m);
    }
    fn like(&mut self, l: RawLike) {
        self.likes.add(std::mem::size_of::<RawLike>());
        self.inner.like(l);
    }
}

/// One point on the recovery-vs-history curve.
struct RecPoint {
    history: usize,
    /// Compaction was on, so recovery started from an image.
    image: bool,
    recovery_us: u64,
    image_seq: u64,
    tail_replayed: u64,
    /// Recovered node/edge counts, for the oracle gate at the longest
    /// history.
    stats: (u64, u64),
}

/// Drives `history` batches through an in-process durable server
/// (compaction on or off), shuts it down cleanly, and measures a cold
/// recovery of the directory.
fn recovery_point(args: &Args, batches: &[WriteOps], history: usize, image: bool) -> RecPoint {
    let dir = std::env::temp_dir().join(format!(
        "snb_loading_{history}_{}_{}",
        if image { "img" } else { "noimg" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions {
        fsync_every: 1,
        snapshot_every: if image { SNAPSHOT_EVERY } else { 0 },
        ..WalOptions::default()
    };
    let recovered = snb_server::recover(&dir, &args.config, &args.scale, options)
        .expect("loading: recovery on a fresh directory");
    let (store, durability, _) = recovered.into_durability();
    let server = Server::start_durable(store, args.server.clone(), durability);
    let client = server.client();
    for (i, ops) in batches.iter().take(history).enumerate() {
        let resp = client
            .call(ServiceParams::Write(WriteBatch { seq: i as u64 + 1, ops: ops.clone() }), 0);
        assert!(resp.body.is_ok(), "loading: batch {} refused: {:?}", i + 1, resp.body.err());
    }
    server.shutdown();

    let rec = snb_server::recover(&dir, &args.config, &args.scale, WalOptions::default())
        .expect("loading: cold recovery");
    assert_eq!(rec.report.last_seq, history as u64, "recovery must reach the full history");
    if image {
        assert!(
            rec.report.tail_replayed <= SNAPSHOT_EVERY,
            "history {history}: image recovery replayed {} > snapshot_every — \
             the image is not bounding recovery",
            rec.report.tail_replayed
        );
    }
    let stats = rec.store.stats();
    let point = RecPoint {
        history,
        image,
        recovery_us: rec.report.recovery_us,
        image_seq: rec.report.image_seq,
        tail_replayed: rec.report.tail_replayed,
        stats: (stats.nodes as u64, stats.edges as u64),
    };
    let _ = std::fs::remove_dir_all(&dir);
    point
}

/// Best-effort `VmHWM` reset between phases; returns whether it worked
/// (containerised kernels sometimes refuse the write).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs the loading experiment and writes the full JSON document.
pub fn run(args: &Args) {
    let config = &args.config;
    eprintln!(
        "# loading: streaming datagen→ingest at {} persons (seed {})",
        config.persons, config.seed
    );

    // ---- Phase 1: streaming build with per-entity tallies.
    let world = StaticWorld::build(config.seed);
    let streaming_started = Instant::now();
    let mut builder = StreamBuilder::new(&world, Some(config.stream_cut()));

    let mut person_tally = Tally::default();
    let mut persons: Vec<RawPerson> = Vec::with_capacity(config.persons as usize);
    let t0 = Instant::now();
    for chunk in snb_datagen::person_chunks(config, &world, 4096) {
        for p in &chunk {
            person_tally.add(person_bytes(p));
        }
        builder.add_persons(&chunk);
        persons.extend(chunk);
    }
    let persons_us = t0.elapsed().as_micros() as u64;

    let mut knows_tally = Tally::default();
    let t0 = Instant::now();
    let knows: Vec<RawKnows> = snb_datagen::knows::generate_knows(config, &persons);
    for _ in &knows {
        knows_tally.add(std::mem::size_of::<RawKnows>());
    }
    builder.add_knows(&knows);
    let knows_us = t0.elapsed().as_micros() as u64;

    let t0 = Instant::now();
    let mut sink = CountingSink {
        inner: &mut builder,
        forums: Tally::default(),
        memberships: Tally::default(),
        messages: Tally::default(),
        likes: Tally::default(),
    };
    snb_datagen::generate_activity_into(config, &world, &persons, &knows, &mut sink);
    let CountingSink { forums, memberships, messages, likes, .. } = sink;
    let activity_us = t0.elapsed().as_micros() as u64;
    drop(persons);
    drop(knows);

    let t0 = Instant::now();
    let (streaming_store, stream) = builder.finish();
    let finish_us = t0.elapsed().as_micros() as u64;
    let streaming_us = streaming_started.elapsed().as_micros() as u64;
    let rss_streaming = snb_bench::peak_rss_bytes();
    let streaming_stats = streaming_store.stats();
    eprintln!(
        "# loading: streamed {} messages in {} ({} MiB peak RSS)",
        messages.rows,
        snb_bench::fmt_duration(std::time::Duration::from_micros(streaming_us)),
        rss_streaming >> 20,
    );

    // ---- Phase 2: packed vs String-baseline footprint. The gate of
    // the storage refactor is per-person bytes: person string columns
    // are dictionary-heavy (names, browsers, languages), so interning
    // must carry them in at most half the bytes a String-per-row
    // layout would. Forum and message columns are reported alongside
    // for the full picture — message *content* is unique text, where
    // packing only recovers the per-row `String` header and allocator
    // slack, so no 2× is possible or claimed there.
    let (p_packed, p_base) = streaming_store.persons.string_bytes();
    let (f_packed, f_base) = streaming_store.forums.string_bytes();
    let (m_packed, m_base) = streaming_store.messages.string_bytes();
    let packed = (p_packed + f_packed + m_packed) as u64;
    let baseline = (p_base + f_base + m_base) as u64;
    let ratio = baseline as f64 / packed.max(1) as f64;
    let person_ratio = p_base as f64 / p_packed.max(1) as f64;
    let per_person_packed = p_packed as f64 / config.persons.max(1) as f64;
    let per_person_base = p_base as f64 / config.persons.max(1) as f64;
    eprintln!(
        "# loading: person strings {p_packed} B packed vs {p_base} B baseline \
         ({person_ratio:.2}x, {per_person_packed:.0} vs {per_person_base:.0} B/person); \
         all strings {packed} vs {baseline} B ({ratio:.2}x)"
    );
    assert!(
        person_ratio >= 2.0,
        "LOADING GATE FAILURE: packed person columns are only {person_ratio:.2}x smaller than \
         the String-per-row baseline (need >= 2x): {p_packed} vs {p_base} bytes"
    );

    // ---- Phase 3: the materialise-everything baseline build.
    drop(streaming_store);
    let rss_reset = reset_peak_rss();
    let t0 = Instant::now();
    let (bulk_store, bulk_stream) = snb_store::bulk_store_and_stream(config);
    let materialized_us = t0.elapsed().as_micros() as u64;
    let rss_materialized = snb_bench::peak_rss_bytes();
    let bulk_stats = bulk_store.stats();
    assert_eq!(
        (streaming_stats.nodes, streaming_stats.edges),
        (bulk_stats.nodes, bulk_stats.edges),
        "streaming and materialised builds must agree"
    );
    assert_eq!(stream.len(), bulk_stream.len(), "both builds must carve the same update tail");
    drop(bulk_store);
    drop(bulk_stream);

    // ---- Phase 4: recovery vs history length, compaction on and off.
    let batches: Vec<WriteOps> =
        stream.chunks(EVENTS_PER_BATCH).map(|chunk| WriteOps::Updates(chunk.to_vec())).collect();
    let mut histories: Vec<usize> =
        [4usize, 8, 12].into_iter().map(|h| h.min(batches.len())).collect();
    histories.dedup();
    let longest = *histories.last().expect("at least one history length");
    let mut points = Vec::new();
    for &history in &histories {
        for image in [false, true] {
            eprintln!("# loading: recovery point history={history} image={image}");
            points.push(recovery_point(args, &batches, history, image));
        }
    }

    // Oracle: the longest recoveries equal direct application of the
    // same batches onto a fresh bulk store.
    let oracle_stats = {
        let (mut store, _) = snb_store::bulk_store_and_stream(config);
        for ops in batches.iter().take(longest) {
            let WriteOps::Updates(events) = ops else { unreachable!("loading carves updates") };
            for ev in events {
                store.apply_event(ev, &world).expect("oracle apply");
            }
        }
        if !store.date_index_fresh() {
            store.rebuild_date_index();
        }
        let s = store.stats();
        (s.nodes, s.edges)
    };
    for p in points.iter().filter(|p| p.history == longest) {
        assert_eq!(
            p.stats, oracle_stats,
            "LOADING VERIFY FAILURE: history {} (image={}) diverges from the oracle",
            p.history, p.image
        );
    }

    // ---- Report.
    snb_bench::print_table(
        "E19: streaming ingest",
        &["entity", "rows", "MB", "rows/s"],
        &[
            ("persons", person_tally, persons_us),
            ("knows", knows_tally, knows_us),
            ("forums", forums, activity_us),
            ("memberships", memberships, activity_us),
            ("messages", messages, activity_us),
            ("likes", likes, activity_us),
        ]
        .iter()
        .map(|(name, t, us)| {
            vec![
                name.to_string(),
                t.rows.to_string(),
                format!("{:.1}", t.bytes as f64 / (1u64 << 20) as f64),
                format!("{:.0}", t.rows as f64 / (*us).max(1) as f64 * 1e6),
            ]
        })
        .collect::<Vec<_>>(),
    );
    snb_bench::print_table(
        "E19: recovery vs history",
        &["history", "image", "recovery", "tail", "image_seq"],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.history.to_string(),
                    p.image.to_string(),
                    snb_bench::fmt_duration(std::time::Duration::from_micros(p.recovery_us)),
                    p.tail_replayed.to_string(),
                    p.image_seq.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"meta\": {},\n", snb_bench::meta_json(config)));
    out.push_str("  \"loading\": {\n");
    out.push_str(&format!("    \"persons\": {},\n", person_tally.json(persons_us)));
    out.push_str(&format!("    \"knows\": {},\n", knows_tally.json(knows_us)));
    out.push_str(&format!("    \"forums\": {},\n", forums.json(activity_us)));
    out.push_str(&format!("    \"memberships\": {},\n", memberships.json(activity_us)));
    out.push_str(&format!("    \"messages\": {},\n", messages.json(activity_us)));
    out.push_str(&format!("    \"likes\": {},\n", likes.json(activity_us)));
    out.push_str(&format!(
        "    \"streaming\": {{\"wall_us\": {streaming_us}, \"finish_us\": {finish_us}, \
         \"peak_rss_bytes\": {rss_streaming}}},\n"
    ));
    out.push_str(&format!(
        "    \"materialized\": {{\"wall_us\": {materialized_us}, \
         \"peak_rss_bytes\": {rss_materialized}, \"rss_reset\": {rss_reset}}},\n"
    ));
    out.push_str(&format!(
        "    \"strings\": {{\"packed_bytes\": {packed}, \"baseline_bytes\": {baseline}, \
         \"ratio\": {ratio:.2}, \"person_packed_bytes\": {p_packed}, \
         \"person_baseline_bytes\": {p_base}, \"person_ratio\": {person_ratio:.2}, \
         \"forum_packed_bytes\": {f_packed}, \"forum_baseline_bytes\": {f_base}, \
         \"message_packed_bytes\": {m_packed}, \"message_baseline_bytes\": {m_base}, \
         \"bytes_per_person_packed\": {per_person_packed:.1}, \
         \"bytes_per_person_baseline\": {per_person_base:.1}}},\n"
    ));
    out.push_str("    \"recovery\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"history\": {}, \"image\": {}, \"recovery_us\": {}, \"image_seq\": {}, \
             \"tail_replayed\": {}}}{}\n",
            p.history,
            p.image,
            p.recovery_us,
            p.image_seq,
            p.tail_replayed,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"oracle\": {{\"verified_history\": {longest}, \"nodes\": {}, \"edges\": {}}}\n",
        oracle_stats.0, oracle_stats.1
    ));
    out.push_str("  }\n}\n");
    std::fs::write(&args.out, out).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
    eprintln!(
        "# loading: PASS ({person_ratio:.2}x person-string packing, {} recovery points, \
         oracle verified)",
        points.len()
    );
}
