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

/// A parameter binding for any complex read — the uniform currency for
/// the driver and benches.
#[derive(Clone, Debug)]
pub enum IcParams {
    /// IC 1 parameters.
    Q1(ic01::Params),
    /// IC 2 parameters.
    Q2(ic02::Params),
    /// IC 3 parameters.
    Q3(ic03::Params),
    /// IC 4 parameters.
    Q4(ic04::Params),
    /// IC 5 parameters.
    Q5(ic05::Params),
    /// IC 6 parameters.
    Q6(ic06::Params),
    /// IC 7 parameters.
    Q7(ic07::Params),
    /// IC 8 parameters.
    Q8(ic08::Params),
    /// IC 9 parameters.
    Q9(ic09::Params),
    /// IC 10 parameters.
    Q10(ic10::Params),
    /// IC 11 parameters.
    Q11(ic11::Params),
    /// IC 12 parameters.
    Q12(ic12::Params),
    /// IC 13 parameters.
    Q13(ic13::Params),
    /// IC 14 parameters.
    Q14(ic14::Params),
}

impl IcParams {
    /// The query number (1–14).
    pub fn query(&self) -> u8 {
        match self {
            IcParams::Q1(_) => 1,
            IcParams::Q2(_) => 2,
            IcParams::Q3(_) => 3,
            IcParams::Q4(_) => 4,
            IcParams::Q5(_) => 5,
            IcParams::Q6(_) => 6,
            IcParams::Q7(_) => 7,
            IcParams::Q8(_) => 8,
            IcParams::Q9(_) => 9,
            IcParams::Q10(_) => 10,
            IcParams::Q11(_) => 11,
            IcParams::Q12(_) => 12,
            IcParams::Q13(_) => 13,
            IcParams::Q14(_) => 14,
        }
    }
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

/// Runs a complex read on an explicit execution context. The scan-heavy
/// queries (IC 2, 3, 6, 9) parallelize over it; the point lookups stay
/// sequential regardless of the context's thread count.
pub fn run_complex_with(store: &Store, ctx: &QueryContext, params: &IcParams) -> usize {
    match params {
        IcParams::Q1(p) => ic01::run(store, p).len(),
        IcParams::Q2(p) => ic02::run_ctx(store, ctx, p).len(),
        IcParams::Q3(p) => ic03::run_ctx(store, ctx, p).len(),
        IcParams::Q4(p) => ic04::run(store, p).len(),
        IcParams::Q5(p) => ic05::run(store, p).len(),
        IcParams::Q6(p) => ic06::run_ctx(store, ctx, p).len(),
        IcParams::Q7(p) => ic07::run(store, p).len(),
        IcParams::Q8(p) => ic08::run(store, p).len(),
        IcParams::Q9(p) => ic09::run_ctx(store, ctx, p).len(),
        IcParams::Q10(p) => ic10::run(store, p).len(),
        IcParams::Q11(p) => ic11::run(store, p).len(),
        IcParams::Q12(p) => ic12::run(store, p).len(),
        IcParams::Q13(p) => ic13::run(store, p).len(),
        IcParams::Q14(p) => ic14::run(store, p).len(),
    }
}

/// Validation mode for complex reads: executes both the optimized and
/// the independent naive engine and errors unless the full row
/// sequences match exactly (order included). Returns the row count.
pub fn validate_complex(store: &Store, params: &IcParams) -> snb_core::SnbResult<usize> {
    fn check<T: std::fmt::Debug + PartialEq>(
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
    match params {
        IcParams::Q1(p) => check(1, ic01::run(store, p), ic01::run_naive(store, p)),
        IcParams::Q2(p) => check(2, ic02::run(store, p), ic02::run_naive(store, p)),
        IcParams::Q3(p) => check(3, ic03::run(store, p), ic03::run_naive(store, p)),
        IcParams::Q4(p) => check(4, ic04::run(store, p), ic04::run_naive(store, p)),
        IcParams::Q5(p) => check(5, ic05::run(store, p), ic05::run_naive(store, p)),
        IcParams::Q6(p) => check(6, ic06::run(store, p), ic06::run_naive(store, p)),
        IcParams::Q7(p) => check(7, ic07::run(store, p), ic07::run_naive(store, p)),
        IcParams::Q8(p) => check(8, ic08::run(store, p), ic08::run_naive(store, p)),
        IcParams::Q9(p) => check(9, ic09::run(store, p), ic09::run_naive(store, p)),
        IcParams::Q10(p) => check(10, ic10::run(store, p), ic10::run_naive(store, p)),
        IcParams::Q11(p) => check(11, ic11::run(store, p), ic11::run_naive(store, p)),
        IcParams::Q12(p) => check(12, ic12::run(store, p), ic12::run_naive(store, p)),
        IcParams::Q13(p) => check(13, ic13::run(store, p), ic13::run_naive(store, p)),
        IcParams::Q14(p) => check(14, ic14::run(store, p), ic14::run_naive(store, p)),
    }
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
