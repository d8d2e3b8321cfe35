//! The op generator the table property tests draw from, shared with the
//! tests that replay a longer drawn stream.

// Each test binary compiles this module and uses a different part of it.
#![allow(dead_code)]

use aidx_table::{ColumnPredicate, TableOp};

/// Turns one generated `(kind, a, b, c)` into an op on a two-column
/// table: a select on column 0 over `[a, b)` sorted (kind 0), the same
/// plus a column-1 predicate (kind 1), an insert of `(a, b)` (kind 2), or
/// a delete of key `a` on column `c % 2` (kind 3).
pub fn table_op((kind, a, b, c): (u8, i64, i64, i64)) -> TableOp {
    let (low, high) = if a <= b { (a, b) } else { (b, a) };
    match kind {
        0 => TableOp::SelectMulti(vec![ColumnPredicate::new(0, low, high)]),
        1 => TableOp::SelectMulti(vec![
            ColumnPredicate::new(0, low, high),
            ColumnPredicate::new(1, c.min(b), c.max(a)),
        ]),
        2 => TableOp::InsertTuple(vec![a, b]),
        _ => TableOp::DeleteWhere {
            column: (c.unsigned_abs() % 2) as usize,
            value: a,
        },
    }
}

/// A seeded stream of draws: `draw(bound)` is in `[0, bound)`.
pub fn draws(seed: u64) -> impl FnMut(i64) -> i64 {
    let mut state = seed;
    move |bound| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as i64 % bound
    }
}
