//! Property tests for the sharded-execution scaffold (`ifaq_engine::par`)
//! and for the executors built on it: chunked partial-sum merging must
//! equal one-shot accumulation on random inputs, random chunk layouts,
//! and random thread counts — including the empty-chunk (`rows = 0`) and
//! `rows < threads` edge cases.

use ifaq_engine::exec::{build_tree, Source};
use ifaq_engine::par::{run_chunked, run_chunked_sums, ExecConfig};
use ifaq_engine::{Dim, Layout, StarDb};
use ifaq_ir::Sym;
use ifaq_query::batch::covar_batch;
use ifaq_query::{JoinTree, ViewPlan};
use ifaq_storage::{ColRelation, Column};
use proptest::prelude::*;

fn cfg(threads: usize, chunk_rows: usize) -> ExecConfig {
    ExecConfig::with_threads(threads).with_chunk_rows(chunk_rows)
}

/// Prepares and executes `layout` over `db` through the executor tree.
fn run(layout: Layout, plan: &ViewPlan, db: &StarDb, cfg: &ExecConfig) -> Vec<f64> {
    let mut tree = build_tree(plan, None, layout, cfg);
    tree.prepare(Source::Resident(db)).unwrap();
    tree.execute(Source::Resident(db)).unwrap()
}

/// A random star database over a fixed two-dimension schema:
/// `F(k1, k2, x, y) ⋈ D1(k1, a) ⋈ D2(k2, b)`. Fact keys are drawn from a
/// range one wider than each dimension, so some rows dangle and the
/// inner join drops them — the executors' other code path.
#[derive(Clone, Debug)]
struct RandomStar {
    k1: Vec<i64>,
    k2: Vec<i64>,
    x: Vec<f64>,
    y: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl RandomStar {
    fn db(&self) -> StarDb {
        let fact = ColRelation::new(
            "F",
            vec![Sym::new("k1"), Sym::new("k2"), Sym::new("x"), Sym::new("y")],
            vec![
                Column::I64(self.k1.clone()),
                Column::I64(self.k2.clone()),
                Column::F64(self.x.clone()),
                Column::F64(self.y.clone()),
            ],
        );
        let d1 = ColRelation::new(
            "D1",
            vec![Sym::new("k1"), Sym::new("a")],
            vec![
                Column::I64((0..self.a.len() as i64).collect()),
                Column::F64(self.a.clone()),
            ],
        );
        let d2 = ColRelation::new(
            "D2",
            vec![Sym::new("k2"), Sym::new("b")],
            vec![
                Column::I64((0..self.b.len() as i64).collect()),
                Column::F64(self.b.clone()),
            ],
        );
        StarDb::new(fact, vec![Dim::new(d1, "k1"), Dim::new(d2, "k2")])
    }
}

fn arb_star() -> impl Strategy<Value = RandomStar> {
    // Row count 0..40 (covering rows < threads and the empty table),
    // dimension cardinalities 1..8.
    (0usize..40, 1usize..8, 1usize..8)
        .prop_flat_map(|(rows, c1, c2)| {
            (
                proptest::collection::vec(0i64..(c1 as i64 + 1), rows..(rows + 1)),
                proptest::collection::vec(0i64..(c2 as i64 + 1), rows..(rows + 1)),
                proptest::collection::vec(-2.0f64..2.0, rows..(rows + 1)),
                proptest::collection::vec(-2.0f64..2.0, rows..(rows + 1)),
                proptest::collection::vec(-2.0f64..2.0, c1..(c1 + 1)),
                proptest::collection::vec(-2.0f64..2.0, c2..(c2 + 1)),
            )
        })
        .prop_map(|(k1, k2, x, y, a, b)| RandomStar { k1, k2, x, y, a, b })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunked merging over any chunk size and thread count equals the
    /// one-shot accumulation of the same data within fp tolerance, and is
    /// *exactly* thread-invariant for a fixed chunk size.
    #[test]
    fn chunked_sum_equals_one_shot(
        data in proptest::collection::vec(-1.0e3f64..1.0e3, 0..200),
        chunk_rows in 1usize..64,
        threads in 1usize..9,
    ) {
        let one_shot: f64 = data.iter().sum();
        let shard = |r: std::ops::Range<usize>| vec![data[r].iter().sum::<f64>()];
        let chunked = run_chunked_sums(&cfg(threads, chunk_rows), data.len(), 1, shard);
        let serial = run_chunked_sums(&cfg(1, chunk_rows), data.len(), 1, shard);
        // Exact thread invariance at fixed chunk layout…
        prop_assert_eq!(&chunked, &serial);
        // …and agreement with the unchunked association within tolerance.
        prop_assert!(
            (chunked[0] - one_shot).abs() <= 1e-9 * (1.0 + one_shot.abs()),
            "chunked {} vs one-shot {}", chunked[0], one_shot
        );
    }

    /// Wide partial vectors merge element-wise in chunk order: each lane
    /// behaves like an independent chunked sum.
    #[test]
    fn multi_lane_merge_is_per_lane(
        data in proptest::collection::vec((-9.0f64..9.0, -9.0f64..9.0), 0..120),
        chunk_rows in 1usize..40,
        threads in 1usize..9,
    ) {
        let shard = |r: std::ops::Range<usize>| {
            let mut p = vec![0.0; 2];
            for (u, v) in &data[r] {
                p[0] += u;
                p[1] += v * v;
            }
            p
        };
        let merged = run_chunked_sums(&cfg(threads, chunk_rows), data.len(), 2, shard);
        let lane0 = run_chunked_sums(&cfg(1, chunk_rows), data.len(), 1, |r| {
            vec![data[r].iter().map(|(u, _)| u).sum::<f64>()]
        });
        let lane1 = run_chunked_sums(&cfg(1, chunk_rows), data.len(), 1, |r| {
            vec![data[r].iter().map(|(_, v)| v * v).sum::<f64>()]
        });
        prop_assert_eq!(merged[0].to_bits(), lane0[0].to_bits());
        prop_assert_eq!(merged[1].to_bits(), lane1[0].to_bits());
    }

    /// The generic fold visits every chunk exactly once, in ascending
    /// order, with ranges that tile `0..n` — for any (n, chunk, threads),
    /// including n = 0 (no chunks) and n < threads.
    #[test]
    fn chunks_tile_the_input(
        n in 0usize..300,
        chunk_rows in 1usize..50,
        threads in 1usize..9,
    ) {
        let starts = run_chunked(
            &cfg(threads, chunk_rows),
            n,
            Vec::new(),
            |r| vec![(r.start, r.end)],
            |acc: &mut Vec<(usize, usize)>, p| acc.extend(p),
        );
        let mut expect_start = 0;
        for &(s, e) in &starts {
            prop_assert_eq!(s, expect_start);
            prop_assert!(e > s && e <= n);
            expect_start = e;
        }
        prop_assert_eq!(expect_start, n);
    }

    /// Random star databases: the sharded merged-view executor agrees
    /// with its own sequential baseline exactly (any threads × chunk
    /// size) and with the materialized reference within tolerance.
    #[test]
    fn random_star_db_executors_agree(
        star in arb_star(),
        chunk_rows in 1usize..32,
        threads in 2usize..9,
    ) {
        let db = star.db();
        let cat = db.catalog();
        let tree = JoinTree::build_with_root(&cat, "F", &["D1", "D2"]).unwrap();
        let batch = covar_batch(&["a", "b", "x"], "y");
        let plan = ViewPlan::plan(&batch, &tree, &cat).unwrap();
        let baseline = run(Layout::MergedHash, &plan, &db, &cfg(1, chunk_rows));
        let sharded = run(Layout::MergedHash, &plan, &db, &cfg(threads, chunk_rows));
        prop_assert_eq!(&baseline, &sharded);
        let reference = run(Layout::Materialized, &plan, &db, &ExecConfig::serial());
        for (t, (p, q)) in baseline.iter().zip(&reference).enumerate() {
            prop_assert!(
                (p - q).abs() <= 1e-9 * (1.0 + p.abs().max(q.abs())),
                "term {}: merged {} vs materialized {}", t, p, q
            );
        }
    }
}
