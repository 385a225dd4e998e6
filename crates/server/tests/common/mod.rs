//! Helpers shared by the server's integration tests: the scale they
//! run at, a durable server on a fresh WAL directory, the write batches
//! they submit, and the direct-apply oracle.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::UpdateEvent;
use snb_datagen::GeneratorConfig;
use snb_server::{
    recover, ErrorKind, OkBody, Server, ServerConfig, ServiceParams, WalOptions, WriteBatch,
    WriteOps,
};
use snb_store::{DeleteOp, Store};

pub const SCALE: &str = "0.001";

pub fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name(SCALE).unwrap()
}

/// An empty temp directory named after `tag` and this process.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snb_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, threads_per_worker: 1, ..ServerConfig::default() }
}

/// A durable server recovered from the WAL directory `dir`.
pub fn start(dir: &Path, options: WalOptions) -> Server {
    let recovered = recover(dir, &config(), SCALE, options).expect("recovery succeeds");
    let (store, durability, _) = recovered.into_durability();
    Server::start_durable(store, server_config(), durability)
}

/// Submits batch `seq` through the in-process client.
pub fn submit(server: &Server, seq: u64, ops: &WriteOps) -> Result<OkBody, (ErrorKind, String)> {
    let resp = server.client().call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
    resp.body.map_err(|e| (e.kind, e.detail))
}

/// Sequenced batches carved from the real update stream: `chunks`
/// slices of `chunk` events in stream order, each an insert batch
/// followed by a batch deleting the post-likes it inserted.
pub fn batches(chunk: usize, chunks: usize) -> Vec<WriteOps> {
    let (_, stream) = snb_store::bulk_store_and_stream(&config());
    let mut out = Vec::new();
    for slice in stream.chunks(chunk).take(chunks) {
        let likes: Vec<DeleteOp> = slice
            .iter()
            .filter_map(|ev| match &ev.event {
                UpdateEvent::AddLikePost(l) => Some(DeleteOp::Like(l.person.0, l.message.0)),
                _ => None,
            })
            .collect();
        out.push(WriteOps::Updates(slice.to_vec()));
        if !likes.is_empty() {
            out.push(WriteOps::Deletes(likes));
        }
    }
    out
}

/// Applies one batch straight to `store` the way the durable path
/// does.
pub fn apply(store: &mut Store, ops: &WriteOps, world: &StaticWorld) {
    match ops {
        WriteOps::Updates(events) => {
            for ev in events {
                store.apply_event(ev, world).expect("direct apply");
            }
        }
        WriteOps::Deletes(dels) => {
            store.apply_deletes(dels).expect("direct delete");
        }
    }
}
