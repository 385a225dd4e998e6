#![warn(missing_docs)]

//! # snb-store
//!
//! The System Under Test of this reproduction: an in-memory columnar
//! property-graph store purpose-built for the SNB schema.
//!
//! * `store` — the [`Store`] schema, declared once: the seven column
//!   groups with their id maps, then the 21 adjacencies with payload,
//!   source and target class. The struct and every pass over all groups
//!   or all adjacencies (image sections, delete filter and rewrites,
//!   overflow fold, `validate_invariants`' per-structure checks) derive
//!   from it;
//! * [`columns`] — struct-of-arrays attribute storage per entity type,
//!   each group's fields declared once (a reference column with the
//!   class it points into); dense `u32` indices, raw-id hash indexes
//!   (base + delta [`IdMap`](columns::IdMap)s);
//! * [`append_vec`] — the buffer behind every column and adjacency
//!   array: store versions share it, and inserts append into it in
//!   place;
//! * [`intern`] — string columns: dictionary-coded (`u32` symbols into
//!   the column's own dictionary) and packed (byte arenas) instead of
//!   `Vec<String>`;
//! * [`adj`] — CSR adjacency (forward + reverse) for every relation,
//!   with an insert overflow so inserts don't rebuild anything on the
//!   write path;
//! * [`build`] — the one store builder, [`StreamBuilder`], fed by the
//!   streaming generator (with optional bulk/stream split), from a
//!   materialised graph's vectors, or from a CsvBasic dataset directory
//!   ([`load_csv_basic`]);
//! * `insert` — the one write record: [`Store::apply_event`] applies an
//!   update-stream event (IU 1–8, the generator's `Raw*` records)
//!   through the per-entity row writers [`StreamBuilder`] also uses;
//! * [`image`] — the checksummed store-image codec (full store ⇄ packed
//!   bytes, streamed a frame at a time) backing the server's
//!   store-image files;
//! * [`delete`] — the cascading deletes (DEL 1–8);
//! * [`snapshot`] — immutable published store versions that readers
//!   pin beside one writer.

pub mod adj;
pub mod append_vec;
pub mod build;
pub mod columns;
pub mod cow;
pub mod delete;
pub mod image;
mod insert;
pub mod intern;
pub mod snapshot;
mod store;

pub use adj::Adj;
pub use build::{
    build_store, bulk_store, bulk_store_and_stream, load_csv_basic, store_for_config, StoreStats,
    StreamBuilder,
};
pub use columns::{Ix, NONE};
pub use cow::CowBox;
pub use delete::{DeleteOp, DeleteStats};
pub use image::{decode_store, encode_store, read_store, write_store};
pub use intern::{PackCol, PackListCol, Sym, SymCol, SymListCol};
pub use snapshot::{SnapshotStats, StoreHandle, StoreSnapshot, StoreVersion};
pub use store::Store;

/// Kept only because the frozen `benchmark/` package still names it.
pub type PartitionedStore = Store;
/// Kept only because the frozen `benchmark/` package still names it.
pub use build::bulk_store_and_stream as streaming_bulk_store_and_stream;
