#![warn(missing_docs)]

//! # snb-interactive
//!
//! The LDBC SNB **Interactive workload** (spec chapter 4): complex
//! reads IC 1–14 and short reads IS 1–7.
//!
//! Complex reads traverse the two-hop neighbourhood of a start person
//! and are sublinear in dataset size; short reads are single-entity
//! lookups the driver chains after complex reads. The updates IU 1–8
//! are update-stream events, which `snb_store::Store::apply_event`
//! writes.

pub mod common;
pub mod ic01;
pub mod ic02;
pub mod ic03;
pub mod ic04;
pub mod ic05;
pub mod ic06;
pub mod ic07;
pub mod ic08;
pub mod ic09;
pub mod ic10;
pub mod ic11;
pub mod ic12;
pub mod ic13;
pub mod ic14;
pub mod short;

use snb_engine::QueryContext;
use snb_store::Store;

/// The IC query table, one entry per query: `number => Variant(module)`,
/// the variant holding `module::Params`; `, ctx` marks the scan-heavy
/// queries (IC 2, 3, 6, 9) whose `run_ctx` parallelizes over the
/// execution context. Hands the table to the macro `$callback`; this
/// crate's expands to [`IcParams`] (its wire codec and JSON line
/// included), [`run_complex_with`] and [`validate_complex`], and a test
/// can expand one of its own to reach each module's typed rows.
#[macro_export]
macro_rules! ic_queries {
    ($callback:ident) => {
        $callback! {
            1 => Q1(ic01), 2 => Q2(ic02, ctx), 3 => Q3(ic03, ctx), 4 => Q4(ic04), 5 => Q5(ic05),
            6 => Q6(ic06, ctx), 7 => Q7(ic07), 8 => Q8(ic08), 9 => Q9(ic09, ctx), 10 => Q10(ic10),
            11 => Q11(ic11), 12 => Q12(ic12), 13 => Q13(ic13), 14 => Q14(ic14),
        }
    };
}

/// One complex read's rows: `run_ctx` on the context for a query marked
/// `ctx`, the sequential `run` otherwise.
macro_rules! complex_rows {
    ($module:ident, $store:ident, $ctx:ident, $p:ident) => {
        $module::run($store, $p)
    };
    ($module:ident ctx, $store:ident, $ctx:ident, $p:ident) => {
        $module::run_ctx($store, $ctx, $p)
    };
}

macro_rules! derive_ic {
    ($($n:literal => $variant:ident($module:ident $(, $ctx:ident)?),)*) => {
        snb_core::query_enum! {
            /// A parameter binding for any complex read — the uniform
            /// currency for the driver and benches.
            pub enum IcParams = "IC" {
                $($n => $variant($module),)*
            }
        }

        /// Runs a complex read on an explicit execution context. The
        /// scan-heavy queries (IC 2, 3, 6, 9) parallelize over it; the
        /// point lookups stay sequential regardless of the context's
        /// thread count.
        pub fn run_complex_with(store: &Store, ctx: &QueryContext, params: &IcParams) -> usize {
            match params {
                $(IcParams::$variant(p) => complex_rows!($module $($ctx)?, store, ctx, p).len(),)*
            }
        }

        /// Validation mode for complex reads: executes both the optimized
        /// and the independent naive engine and errors unless the full
        /// row sequences match exactly (order included). Returns the row
        /// count.
        pub fn validate_complex(store: &Store, params: &IcParams) -> snb_core::SnbResult<usize> {
            match params {
                $(IcParams::$variant(p) => {
                    check_complex($n, $module::run(store, p), $module::run_naive(store, p))
                })*
            }
        }
    };
}

ic_queries!(derive_ic);

fn check_complex<T: std::fmt::Debug + PartialEq>(
    q: u8,
    optimized: Vec<T>,
    naive: Vec<T>,
) -> snb_core::SnbResult<usize> {
    if optimized != naive {
        return Err(snb_core::SnbError::Validation {
            query: format!("IC {q}"),
            detail: format!(
                "optimized ({} rows) != naive ({} rows): {optimized:?} vs {naive:?}",
                optimized.len(),
                naive.len()
            ),
        });
    }
    Ok(optimized.len())
}

/// A parameter binding for any short read — the uniform currency for
/// the driver, the service tier, and the benches. Short reads are
/// `Copy`-cheap point lookups (IS 1–3 key on a person, IS 4–7 on a
/// message), which is what makes them the latency-critical lane of the
/// mixed workload.
#[derive(Clone, Copy, Debug)]
pub enum IsParams {
    /// IS 1 parameters.
    Q1(short::is1::Params),
    /// IS 2 parameters.
    Q2(short::is2::Params),
    /// IS 3 parameters.
    Q3(short::is3::Params),
    /// IS 4 parameters.
    Q4(short::is4::Params),
    /// IS 5 parameters.
    Q5(short::is5::Params),
    /// IS 6 parameters.
    Q6(short::is6::Params),
    /// IS 7 parameters.
    Q7(short::is7::Params),
}

impl IsParams {
    /// The query number (1–7).
    pub fn query(&self) -> u8 {
        match self {
            IsParams::Q1(_) => 1,
            IsParams::Q2(_) => 2,
            IsParams::Q3(_) => 3,
            IsParams::Q4(_) => 4,
            IsParams::Q5(_) => 5,
            IsParams::Q6(_) => 6,
            IsParams::Q7(_) => 7,
        }
    }

    /// Builds the binding from its wire form: query number + the single
    /// `u64` key (person id for IS 1–3, message id for IS 4–7). Returns
    /// `None` for an unknown query number.
    pub fn from_parts(query: u8, id: u64) -> Option<IsParams> {
        Some(match query {
            1 => IsParams::Q1(short::is1::Params { person_id: id }),
            2 => IsParams::Q2(short::is2::Params { person_id: id }),
            3 => IsParams::Q3(short::is3::Params { person_id: id }),
            4 => IsParams::Q4(short::is4::Params { message_id: id }),
            5 => IsParams::Q5(short::is5::Params { message_id: id }),
            6 => IsParams::Q6(short::is6::Params { message_id: id }),
            7 => IsParams::Q7(short::is7::Params { message_id: id }),
            _ => return None,
        })
    }

    /// The single `u64` key of the binding — person id for IS 1–3,
    /// message id for IS 4–7. Exact inverse of [`IsParams::from_parts`].
    pub fn key(&self) -> u64 {
        match self {
            IsParams::Q1(p) => p.person_id,
            IsParams::Q2(p) => p.person_id,
            IsParams::Q3(p) => p.person_id,
            IsParams::Q4(p) => p.message_id,
            IsParams::Q5(p) => p.message_id,
            IsParams::Q6(p) => p.message_id,
            IsParams::Q7(p) => p.message_id,
        }
    }
}

/// Runs a short read, returning its row count. Short reads never
/// parallelize — they are point lookups, so a context would only add
/// overhead.
pub fn run_short(store: &Store, params: &IsParams) -> usize {
    match params {
        IsParams::Q1(p) => short::is1::run(store, p).len(),
        IsParams::Q2(p) => short::is2::run(store, p).len(),
        IsParams::Q3(p) => short::is3::run(store, p).len(),
        IsParams::Q4(p) => short::is4::run(store, p).len(),
        IsParams::Q5(p) => short::is5::run(store, p).len(),
        IsParams::Q6(p) => short::is6::run(store, p).len(),
        IsParams::Q7(p) => short::is7::run(store, p).len(),
    }
}

/// Runs a short read against the store snapshot bound to `ctx` (see
/// `snb_bi::run_bound`). Panics if the context has no bound snapshot.
pub fn run_short_bound(ctx: &QueryContext, params: &IsParams) -> usize {
    let snapshot =
        ctx.snapshot().expect("run_short_bound requires a snapshot-bound context").clone();
    run_short(&snapshot, params)
}

/// Runs a complex read, returning its row count (the driver's
/// type-erased result).
pub fn run_complex(store: &Store, params: &IcParams) -> usize {
    run_complex_with(store, QueryContext::global(), params)
}

/// Runs a complex read against the store snapshot bound to `ctx` (see
/// `snb_bi::run_bound`). Panics if the context has no bound snapshot.
pub fn run_complex_bound(ctx: &QueryContext, params: &IcParams) -> usize {
    let snapshot =
        ctx.snapshot().expect("run_complex_bound requires a snapshot-bound context").clone();
    run_complex_with(&snapshot, ctx, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_numbers() {
        assert_eq!(IcParams::Q13(ic13::Params { person1_id: 0, person2_id: 1 }).query(), 13);
        assert_eq!(IcParams::Q7(ic07::Params { person_id: 0 }).query(), 7);
    }

    #[test]
    fn is_params_wire_parts_roundtrip() {
        for q in 1u8..=7 {
            let p = IsParams::from_parts(q, 0xfeed + q as u64).expect("valid query");
            assert_eq!(p.query(), q);
            assert_eq!(p.key(), 0xfeed + q as u64);
        }
        assert!(IsParams::from_parts(0, 1).is_none());
        assert!(IsParams::from_parts(8, 1).is_none());
    }
}
