#![warn(missing_docs)]

//! # snb-store
//!
//! The System Under Test of this reproduction: an in-memory columnar
//! property-graph store purpose-built for the SNB schema.
//!
//! * [`columns`] — struct-of-arrays attribute storage per entity type,
//!   dense `u32` indices, raw-id hash indexes;
//! * [`intern`] — the global string interner plus packed string
//!   columns (`u32` symbols / byte arenas instead of `Vec<String>`);
//! * [`adj`] — CSR adjacency (forward + reverse) for every relation,
//!   with an insert overflow so the Interactive workload's IU 1–8 don't
//!   rebuild anything on the write path;
//! * [`build`] — bulk load from the generator's in-memory output (with
//!   optional bulk/stream split);
//! * [`image`] — the checksummed store-image codec (full store ⇄ packed
//!   bytes) backing the server's snapshot files and follower bootstrap;
//! * [`load`] — bulk load from a CsvBasic dataset directory;
//! * [`insert`] — the IU 1–8 write operations and update-stream replay;
//! * [`snapshot`] — immutable published store versions for lock-free
//!   readers beside one writer.

pub mod adj;
pub mod build;
pub mod columns;
pub mod cow;
pub mod delete;
pub mod image;
pub mod insert;
pub mod intern;
pub mod load;
pub mod snapshot;
mod store;
pub mod stream_build;

pub use adj::Adj;
pub use build::{build_store, bulk_store_and_stream, store_for_config, StoreStats};
pub use columns::{Ix, NONE};
pub use cow::CowBox;
pub use delete::{DeleteOp, DeleteStats};
pub use image::{decode_store, encode_store, fnv64 as image_fnv64};
pub use insert::{CommentInsert, ForumInsert, PersonInsert, PostInsert};
pub use intern::{interner, PackCol, PackListCol, StrInterner, Sym, SymCol, SymListCol};
pub use snapshot::{SnapshotCell, SnapshotStats, StoreHandle, StoreSnapshot, StoreVersion};
pub use store::Store;

/// Kept only because the frozen `benchmark/` package still names it.
pub type PartitionedStore = Store;
pub use stream_build::{
    streaming_bulk_store_and_stream, streaming_store_for_config, StreamBuilder,
};
