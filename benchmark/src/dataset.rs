//! The data every workload starts from: the generated graph at a named
//! scale factor, split at the stream cut, plus curated bindings.

use std::time::Instant;

use snb_bi::BiParams;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::{TimedEvent, UpdateEvent};
use snb_datagen::GeneratorConfig;
use snb_params::ParamGen;
use snb_store::{DeleteOp, Store};

use crate::metrics::Layers;

/// Curated bindings taken per BI query.
pub const BINDINGS_PER_QUERY: usize = 8;

/// The generator configuration of a scale factor, at the datagen's own
/// default seed (531389). The workload seed never reaches the
/// generator: the dataset is the same for every run.
pub fn config(scale: &str) -> GeneratorConfig {
    GeneratorConfig::for_scale_name(scale).unwrap_or_else(|| panic!("unknown scale factor {scale}"))
}

/// Bulk store plus the update-event tail, through the streaming
/// datagen → ingest pipeline.
pub fn load(scale: &str) -> (Store, Vec<TimedEvent>) {
    snb_store::streaming_bulk_store_and_stream(&config(scale))
}

/// Curated bindings of the given BI queries, `[query][binding]`.
pub fn curate(store: &Store, queries: &[u8]) -> Vec<Vec<BiParams>> {
    // The generator's seed feeds only its uncurated control group.
    let gen = ParamGen::new(store, 0);
    queries.iter().map(|&q| gen.bi_params(q, BINDINGS_PER_QUERY)).collect()
}

/// The delete batch that follows an insert batch in a refresh
/// microbatch: the likes on posts that batch just added.
pub fn post_like_deletes(events: &[TimedEvent]) -> Vec<DeleteOp> {
    events
        .iter()
        .filter_map(|ev| match &ev.event {
            UpdateEvent::AddLikePost(like) => Some(DeleteOp::Like(like.person.0, like.message.0)),
            _ => None,
        })
        .collect()
}

/// Applies one refresh microbatch directly to an owned store — the
/// oracle's write path, with no server, WAL or snapshot in between.
pub fn apply_direct(
    store: &mut Store,
    world: &StaticWorld,
    events: &[TimedEvent],
    deletes: &[DeleteOp],
) -> Result<(), String> {
    for ev in events {
        store.apply_event(ev, world).map_err(|e| format!("oracle insert: {e}"))?;
    }
    if !deletes.is_empty() {
        store.apply_deletes(deletes).map_err(|e| format!("oracle delete: {e}"))?;
    }
    if !store.date_index_fresh() {
        store.rebuild_date_index();
    }
    Ok(())
}

/// Times the set-up layers one by one, which the fused set-up path
/// does not allow: the generator alone, the materialising builder, the
/// streaming pipeline, and binding curation.
pub fn setup_layers(scale: &str, layers: &mut Layers) {
    let config = config(scale);
    let world = StaticWorld::build(config.seed);
    let cut = config.stream_cut();

    let started = Instant::now();
    let graph = snb_datagen::generate(&config);
    layers.set("datagen.generate_s", started.elapsed().as_secs_f64());

    let started = Instant::now();
    let bulk = snb_store::build_store(&graph, &world, Some(cut));
    layers.set("store.build_s", started.elapsed().as_secs_f64());
    drop(graph);
    drop(bulk);

    let started = Instant::now();
    let (store, stream) = load(scale);
    layers.set("store.stream_build_s", started.elapsed().as_secs_f64());
    layers.set("datagen.stream_events", stream.len() as f64);
    let counts = store.stats();
    layers.set("datagen.nodes", counts.nodes as f64);
    layers.set("datagen.edges", counts.edges as f64);

    let all: Vec<u8> = (1..=25).collect();
    let started = Instant::now();
    std::hint::black_box(curate(&store, &all));
    layers.set("params.curate_s", started.elapsed().as_secs_f64());
}
