#![warn(missing_docs)]

//! # snb-params
//!
//! Parameter curation (spec §3.3): factor-count collection, the greedy
//! minimum-spread selection, per-query binding generation for both
//! workloads, and substitution-parameter files in the official layout.

pub mod bindings;
pub mod curation;
pub mod files;

pub use bindings::ParamGen;
pub use curation::{curate, variance};
pub use files::{read_bi_params, read_ic_params, write_substitution_files};
