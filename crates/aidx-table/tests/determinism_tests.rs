//! Plan determinism: the table planner decides from counts alone, so two
//! fresh engines fed one op stream make the same plan for every op —
//! the same cracks, the same candidate sets, the same joins — and
//! end with the same structure in every column.

use aidx_core::{CompactionPolicy, LatchProtocol};
use aidx_obs::StructureProbe;
use aidx_table::{ColumnPredicate, JoinStrategy, TableBackend, TableEngine, TableOp};
use rand::prelude::*;

const FACT_ROWS: i64 = 20_000;
const DIM_ROWS: i64 = 500;
const OPS: usize = 400;

/// One step of the stream. Joins are kept apart from [`TableOp`] because
/// each engine pair joins against its own dimension table.
#[derive(Debug)]
enum Step {
    Table(TableOp),
    /// `fact.fk == dim.key` under each side's filters, the engine's join.
    Join {
        fact_filters: Vec<ColumnPredicate>,
        dim_filters: Vec<ColumnPredicate>,
    },
}

/// A fact table (`fk` into the dimension's key domain, then three
/// uniform columns) and its dimension table (`key`, `attr`).
struct Pair {
    fact: TableEngine,
    dim: TableEngine,
}

impl Pair {
    fn new(backend: TableBackend) -> Self {
        let mut rng = StdRng::seed_from_u64(11);
        let fact = (0..4)
            .map(|c| {
                let domain = if c == 0 { DIM_ROWS } else { FACT_ROWS };
                let values = (0..FACT_ROWS).map(|_| rng.gen_range(0..domain)).collect();
                (format!("c{c}"), values)
            })
            .collect();
        let key: Vec<i64> = (0..DIM_ROWS).map(|i| (i * 211) % DIM_ROWS).collect();
        let attr: Vec<i64> = (0..DIM_ROWS).map(|i| i % 17).collect();
        let compaction = CompactionPolicy::rows(256).incremental(16);
        Pair {
            fact: TableEngine::new("fact", fact, backend, compaction),
            dim: TableEngine::new(
                "dim",
                vec![("key".into(), key), ("attr".into(), attr)],
                backend,
                compaction,
            ),
        }
    }

    /// Runs one step; returns what the plan shows of itself.
    fn run(&self, step: &Step) -> [u64; 3] {
        let result = match step {
            Step::Table(op) => self.fact.execute(op),
            Step::Join {
                fact_filters,
                dim_filters,
            } => self.fact.execute_join(
                &self.dim,
                0,
                0,
                fact_filters,
                dim_filters,
                JoinStrategy::Auto,
            ),
        };
        let m = result.metrics;
        [
            u64::from(m.cracks_performed),
            m.candidate_set_bytes,
            m.result_count,
        ]
    }

    /// Every column's structure record, fact columns first: piece sizes
    /// in position order, delta and hole counts, compaction counters and
    /// per-range load.
    fn column_probes(&self) -> Vec<StructureProbe> {
        [&self.fact, &self.dim]
            .iter()
            .flat_map(|t| (0..t.column_count()).map(|c| t.column_index(c).structure_probe()))
            .collect()
    }
}

/// A predicate on `column` covering `per_mille`‰ of its domain.
fn predicate(rng: &mut StdRng, column: usize, per_mille: i64) -> ColumnPredicate {
    let domain = if column == 0 { DIM_ROWS } else { FACT_ROWS };
    let width = (domain * per_mille / 1000).max(1);
    let low = rng.gen_range(0..domain - width + 1);
    ColumnPredicate::new(column, low, low + width)
}

/// A seeded single-client stream: 1–3-predicate selects whose widths
/// span narrow to wide (so some predicates read their own column `Within`
/// the candidates and some project — see [`second_predicate_arms`]),
/// key-window and attribute-filtered joins (so joins both with and
/// without candidate sets run), and inserts and deletes.
fn op_stream(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let widths = [1, 10, 100, 500];
    (0..OPS)
        .map(|_| match rng.gen_range(0..20) {
            0..=13 => {
                let mut columns = [0, 1, 2, 3];
                columns.shuffle(&mut rng);
                let n = rng.gen_range(1..=3);
                let predicates = columns[..n]
                    .iter()
                    .map(|&c| {
                        let per_mille = *widths.choose(&mut rng).unwrap();
                        predicate(&mut rng, c, per_mille)
                    })
                    .collect();
                Step::Table(TableOp::SelectMulti(predicates))
            }
            14 | 15 => Step::Table(TableOp::InsertTuple(vec![
                rng.gen_range(0..DIM_ROWS),
                rng.gen_range(0..FACT_ROWS),
                rng.gen_range(0..FACT_ROWS),
                rng.gen_range(0..FACT_ROWS),
            ])),
            16 | 17 => {
                let column = rng.gen_range(1..4);
                Step::Table(TableOp::DeleteWhere {
                    column,
                    value: rng.gen_range(0..FACT_ROWS),
                })
            }
            18 => Step::Join {
                fact_filters: vec![],
                dim_filters: vec![predicate(&mut rng, 0, 20)],
            },
            _ => {
                let low = rng.gen_range(0..15);
                Step::Join {
                    fact_filters: vec![predicate(&mut rng, 1, 500)],
                    dim_filters: vec![ColumnPredicate::new(1, low, low + 3)],
                }
            }
        })
        .collect()
}

/// How many selects of `stream` plan their second predicate on each
/// arm, as `(within, projected)`. Widths are the estimate, so a second
/// predicate, against candidates as many as the driver's rows, projects
/// when it is more than 8 times wider than the driver
/// (`candidates × 8 < rows`): the width pairs 1‰:10‰ and up project,
/// 100‰:500‰ and equal widths read `Within`.
fn second_predicate_arms(stream: &[Step]) -> (usize, usize) {
    let mut arms = (0, 0);
    for step in stream {
        let Step::Table(TableOp::SelectMulti(predicates)) = step else {
            continue;
        };
        let mut widths: Vec<u64> = predicates.iter().map(ColumnPredicate::width).collect();
        widths.sort_unstable();
        if let [driver, second, ..] = widths[..] {
            if second > 8 * driver {
                arms.1 += 1;
            } else {
                arms.0 += 1;
            }
        }
    }
    arms
}

#[test]
fn plans_are_a_function_of_the_ops_and_the_data() {
    let stream = op_stream(7);
    let (within, projected) = second_predicate_arms(&stream);
    assert!(
        within > 10 && projected > 10,
        "both planner arms: {within} within, {projected} projected"
    );
    for backend in [
        TableBackend::Serial(LatchProtocol::Piece),
        TableBackend::Range { partitions: 2 },
    ] {
        let (a, b) = (Pair::new(backend), Pair::new(backend));
        for (i, step) in stream.iter().enumerate() {
            assert_eq!(
                a.run(step),
                b.run(step),
                "{}: op {i} ({step:?}) planned differently \
                 ([cracks, candidate bytes, results])",
                a.fact.name()
            );
        }
        let joins = a.fact.join_strategy_counts();
        assert_eq!(joins, b.fact.join_strategy_counts(), "{}", a.fact.name());
        assert!(joins.1 > 0, "{}: the stream ran no join", a.fact.name());
        assert_eq!(a.column_probes(), b.column_probes(), "{}", a.fact.name());
    }
}
