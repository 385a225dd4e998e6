#![warn(missing_docs)]

//! # snb-bi
//!
//! The LDBC SNB **Business Intelligence workload**: all 25 read queries
//! (spec chapter 5), each as a module with
//!
//! * a documented `Params` struct, declared once with
//!   `snb_core::query_params!` (each field's spec key, wire and JSON
//!   forms),
//! * a typed `Row` result with the spec's sort/limit semantics,
//! * `run` — the optimized physical plan (CSR traversal, hash
//!   aggregation, bounded top-k with pruning), and
//! * `run_naive` — an independent reference implementation used for
//!   cross-validation (the benchmark's validation-mode oracle) and as
//!   the comparison baseline of experiment E6.
//!
//! Queries whose full text appears in the supplied spec extraction are
//! implemented verbatim; the rest are reconstructed from the official
//! v0.3.x workload and carry a "reconstructed" marker in their module
//! docs (see `DESIGN.md` §5 for the fidelity table).

pub mod bi01;
pub mod bi02;
pub mod bi03;
pub mod bi04;
pub mod bi05;
pub mod bi06;
pub mod bi07;
pub mod bi08;
pub mod bi09;
pub mod bi10;
pub mod bi11;
pub mod bi12;
pub mod bi13;
pub mod bi14;
pub mod bi15;
pub mod bi16;
pub mod bi17;
pub mod bi18;
pub mod bi19;
pub mod bi20;
pub mod bi21;
pub mod bi22;
pub mod bi23;
pub mod bi24;
pub mod bi25;
pub mod common;
pub mod meta;

use snb_engine::QueryContext;
use snb_store::Store;

/// The BI query table, one entry per query: `number => Variant(module)`,
/// the variant holding `module::Params`. Hands the table to the macro
/// `$callback`; this crate's expands to [`BiParams`] (its wire codec and
/// JSON line included), [`run_with`] and [`run_naive`], and a test can
/// expand one of its own to reach each module's typed rows.
#[macro_export]
macro_rules! bi_queries {
    ($callback:ident) => {
        $callback! {
            1 => Q1(bi01), 2 => Q2(bi02), 3 => Q3(bi03), 4 => Q4(bi04), 5 => Q5(bi05),
            6 => Q6(bi06), 7 => Q7(bi07), 8 => Q8(bi08), 9 => Q9(bi09), 10 => Q10(bi10),
            11 => Q11(bi11), 12 => Q12(bi12), 13 => Q13(bi13), 14 => Q14(bi14), 15 => Q15(bi15),
            16 => Q16(bi16), 17 => Q17(bi17), 18 => Q18(bi18), 19 => Q19(bi19), 20 => Q20(bi20),
            21 => Q21(bi21), 22 => Q22(bi22), 23 => Q23(bi23), 24 => Q24(bi24), 25 => Q25(bi25),
        }
    };
}

macro_rules! derive_bi {
    ($($n:literal => $variant:ident($module:ident),)*) => {
        snb_core::query_enum! {
            /// A parameter binding for any BI query — the uniform currency
            /// between the parameter-curation crate, the driver and the
            /// benchmark harness.
            pub enum BiParams = "BI" {
                $($n => $variant($module),)*
            }
        }

        /// Runs a BI query through the optimized engine on an explicit
        /// execution context — the entry point used by the driver, which
        /// constructs one context per benchmark stream.
        pub fn run_with(store: &Store, ctx: &QueryContext, params: &BiParams) -> QuerySummary {
            match params {
                $(BiParams::$variant(p) => summarize(&$module::run_ctx(store, ctx, p)),)*
            }
        }

        /// Runs a BI query through the naive reference engine.
        pub fn run_naive(store: &Store, params: &BiParams) -> QuerySummary {
            match params {
                $(BiParams::$variant(p) => summarize(&$module::run_naive(store, p)),)*
            }
        }
    };
}

bi_queries!(derive_bi);

/// A type-erased execution summary: the row count plus an
/// order-sensitive fingerprint of the result, enough for validation
/// without materialising heterogeneous row types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySummary {
    /// Number of result rows.
    pub rows: usize,
    /// FNV-style fingerprint over the Debug rendering of the rows.
    pub fingerprint: u64,
}

fn summarize<T: std::fmt::Debug>(rows: &[T]) -> QuerySummary {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for r in rows {
        let s = format!("{r:?}");
        for b in s.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    QuerySummary { rows: rows.len(), fingerprint: hash }
}

/// Runs a BI query through the optimized engine on the process-global
/// execution context.
pub fn run(store: &Store, params: &BiParams) -> QuerySummary {
    run_with(store, QueryContext::global(), params)
}

/// Runs a BI query against the store snapshot bound to `ctx` — the
/// entry point for snapshot-published readers (the service tier and
/// concurrent replay): the context, not the caller, names the store,
/// so a bound request can never read anything but its pinned version.
///
/// Panics if the context has no bound snapshot; binding is the whole
/// point of this entry.
pub fn run_bound(ctx: &QueryContext, params: &BiParams) -> QuerySummary {
    let snapshot = ctx.snapshot().expect("run_bound requires a snapshot-bound context").clone();
    run_with(&snapshot, ctx, params)
}

/// Validation mode (spec §6.2): runs both engines and errors on any
/// mismatch.
pub fn validate(store: &Store, params: &BiParams) -> snb_core::SnbResult<QuerySummary> {
    validate_with(store, QueryContext::global(), params)
}

/// Validation mode on an explicit execution context: the optimized
/// engine runs on `ctx`, the naive oracle stays single-threaded.
pub fn validate_with(
    store: &Store,
    ctx: &QueryContext,
    params: &BiParams,
) -> snb_core::SnbResult<QuerySummary> {
    let optimized = run_with(store, ctx, params);
    let naive = run_naive(store, params);
    if optimized != naive {
        return Err(snb_core::SnbError::Validation {
            query: format!("BI {}", params.query()),
            detail: format!("optimized {optimized:?} != naive {naive:?}"),
        });
    }
    Ok(optimized)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_order_sensitive() {
        let a = summarize(&[1, 2, 3]);
        let b = summarize(&[3, 2, 1]);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn query_numbers_match_variants() {
        let p = BiParams::Q17(bi17::Params { country: "China".into() });
        assert_eq!(p.query(), 17);
        let p = BiParams::Q1(bi01::Params { date: snb_core::Date::from_ymd(2012, 1, 1) });
        assert_eq!(p.query(), 1);
        let p = BiParams::Q25(bi25::Params {
            person1_id: 0,
            person2_id: 1,
            start_date: snb_core::Date::from_ymd(2010, 1, 1),
            end_date: snb_core::Date::from_ymd(2012, 1, 1),
        });
        assert_eq!(p.query(), 25);
    }
}
