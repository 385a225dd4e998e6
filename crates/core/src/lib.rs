#![warn(missing_docs)]

//! # snb-core
//!
//! Core data model and numeric substrate shared by every crate of the
//! LDBC Social Network Benchmark reproduction:
//!
//! * [`datetime`] — civil-date arithmetic (`Date`, `DateTime`) with the
//!   spec's textual formats (`yyyy-mm-dd`, `yyyy-mm-ddTHH:MM:ss.sss+0000`);
//! * [`rng`] — deterministic PRNG (splitmix64 seeding + xoshiro256**) used
//!   by Datagen so that generation is reproducible bit-for-bit regardless
//!   of parallelism (spec §2.3.3, *Determinism*);
//! * [`dist`] — the sampling distributions the generator relies on
//!   (Zipf-ranked dictionaries, geometric window picking, Facebook-like
//!   degree distribution);
//! * [`scale`] — the scale-factor table (spec Table 2.12) plus the
//!   laptop-scale factors this reproduction adds below SF 0.1;
//! * [`model`] — entity/relation vocabulary and raw-id newtypes;
//! * [`bytes`] — the one byte codec every wire and durable format
//!   reads and writes through;
//! * [`binding`] — query bindings declared once: each field's spec key,
//!   wire form and substitution-file JSON form.

pub mod binding;
pub mod bytes;
pub mod datetime;
pub mod dist;
pub mod error;
pub mod model;
pub mod rng;
pub mod scale;

pub use datetime::{Date, DateTime};
pub use error::{SnbError, SnbResult};
pub use rng::Rng;
pub use scale::ScaleFactor;
