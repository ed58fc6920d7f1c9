//! Retailer-shaped synthetic dataset.
//!
//! Shape (Table 1: 5 relations, 35 continuous attributes; the real dataset
//! is a proprietary US-retailer inventory database):
//!
//! ```text
//! Inventory(locn, dateid, ksn, inventoryunits)  -- fact; label inventoryunits
//! Location(locn, l1..l11)                       -- 11 store-site attributes
//! Census(locn, c1..c12)                         -- 12 demographic attributes
//! Item(ksn, i1..i5)                             -- 5 product attributes
//! Weather(dateid, w1..w6)                       -- 6 weather attributes
//! ```
//!
//! In the real schema Census joins Location on `zip`; rekeying it by
//! `locn` (each location's zip demographics denormalized per location)
//! keeps the join a star without changing the aggregate structure — every
//! attribute still reaches the fact table through exactly one key. This
//! rekeying is the one place the synthetic schema departs from the real
//! one.

use crate::favorita::skewed_index;
use crate::Dataset;
use ifaq_engine::{Dim, StarDb};
use ifaq_ir::Sym;
use ifaq_storage::{ColRelation, Column};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn wide_dim(
    name: &str,
    key: &str,
    prefix: &str,
    rows: usize,
    width: usize,
    rng: &mut StdRng,
) -> ColRelation {
    let mut attrs = vec![Sym::new(key)];
    let mut cols = vec![Column::I64((0..rows as i64).collect())];
    for w in 0..width {
        attrs.push(Sym::new(format!("{prefix}{}", w + 1)));
        let scale = 1.0 + w as f64;
        cols.push(Column::F64(
            (0..rows).map(|_| rng.gen_range(0.0..scale)).collect(),
        ));
    }
    ColRelation::new(name, attrs, cols)
}

/// Generates the Retailer-shaped dataset with `n_fact` inventory rows.
pub fn retailer(n_fact: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_locn = (n_fact / 400).clamp(5, 1_300);
    let n_dates = (n_fact / 200).clamp(20, 120);
    let n_ksn = (n_fact / 15).clamp(20, 400_000);

    let location = wide_dim("Location", "locn", "l", n_locn, 11, &mut rng);
    let census = wide_dim("Census", "locn", "c", n_locn, 12, &mut rng);
    let item = wide_dim("Item", "ksn", "i", n_ksn, 5, &mut rng);
    let weather = wide_dim("Weather", "dateid", "w", n_dates, 6, &mut rng);

    // Pull a few columns the label depends on.
    let l1 = location
        .column("l1")
        .unwrap()
        .as_f64_slice()
        .unwrap()
        .to_vec();
    let c1 = census
        .column("c1")
        .unwrap()
        .as_f64_slice()
        .unwrap()
        .to_vec();
    let i1 = item.column("i1").unwrap().as_f64_slice().unwrap().to_vec();
    let w1 = weather
        .column("w1")
        .unwrap()
        .as_f64_slice()
        .unwrap()
        .to_vec();

    let mut locn_col = Vec::with_capacity(n_fact);
    let mut date_col = Vec::with_capacity(n_fact);
    let mut ksn_col = Vec::with_capacity(n_fact);
    let mut units_col = Vec::with_capacity(n_fact);
    for row in 0..n_fact {
        let dateid = (row * n_dates / n_fact) as i64;
        let locn = skewed_index(&mut rng, n_locn);
        let ksn = skewed_index(&mut rng, n_ksn);
        let noise: f64 = rng.gen_range(-0.5..0.5);
        let units = 2.0
            + 1.2 * l1[locn as usize]
            + 0.8 * c1[locn as usize]
            + 2.5 * i1[ksn as usize]
            + 0.6 * w1[dateid as usize]
            + noise;
        locn_col.push(locn);
        date_col.push(dateid);
        ksn_col.push(ksn);
        units_col.push(units.max(0.0));
    }
    let fact = ColRelation::new(
        "Inventory",
        vec![
            Sym::new("locn"),
            Sym::new("dateid"),
            Sym::new("ksn"),
            Sym::new("inventoryunits"),
        ],
        vec![
            Column::I64(locn_col),
            Column::I64(date_col),
            Column::I64(ksn_col),
            Column::F64(units_col),
        ],
    );

    let mut features: Vec<String> = Vec::new();
    for (prefix, width) in [("l", 11), ("c", 12), ("i", 5), ("w", 6)] {
        for w in 0..width {
            features.push(format!("{prefix}{}", w + 1));
        }
    }
    let db = StarDb::new(
        fact,
        vec![
            Dim::new(location, "locn"),
            Dim::new(census, "locn"),
            Dim::new(item, "ksn"),
            Dim::new(weather, "dateid"),
        ],
    );
    Dataset {
        name: "retailer",
        db,
        features,
        label: "inventoryunits".into(),
        test_fraction: 0.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        let ds = retailer(10_000, 42);
        assert_eq!(ds.relation_names().len(), 5);
        // 35 continuous attributes: 34 features + the label.
        assert_eq!(ds.features.len() + 1, 35);
        assert_eq!(ds.db.fact_rows(), 10_000);
    }

    #[test]
    fn join_result_is_wide() {
        let ds = retailer(2_000, 1);
        let m = ds.db.materialize();
        assert_eq!(m.rows, 2_000);
        // Fact (4) + 11 + 12 + 5 + 6 payload attrs.
        assert_eq!(m.attrs.len(), 4 + 34);
        // Join result bytes exceed the database bytes (Table 1's point:
        // the Retailer join result is ~10x the database size).
        assert!(m.bytes() > ds.db.total_bytes());
    }

    #[test]
    fn determinism_under_seed() {
        let a = retailer(500, 9);
        let b = retailer(500, 9);
        assert_eq!(a.db.fact, b.db.fact);
    }

    #[test]
    fn all_features_exist_in_join() {
        let ds = retailer(1_000, 2);
        let m = ds.db.materialize();
        for f in &ds.features {
            assert!(m.col(f).is_some(), "missing feature {f}");
        }
        assert!(m.col(&ds.label).is_some());
    }
}
