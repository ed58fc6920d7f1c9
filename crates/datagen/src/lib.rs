//! Synthetic dataset generators with the schema shapes of the paper's
//! evaluation datasets (Table 1).
//!
//! The real datasets — the Corporación Favorita Kaggle dump and a
//! proprietary US-retailer database — cannot ship with this repository.
//! These generators produce seeded synthetic databases with the same
//! *relational* shape: a large fact table joined to several dimension
//! tables on item/store/date surrogate keys, skewed key frequencies, and
//! the same continuous-attribute counts the paper reports (35 for
//! Retailer, 6 for Favorita). The optimizations under study (factorized
//! aggregates, view merging, tries) are sensitive to the structure and
//! cardinalities, not to the numeric payloads, so shape-preserving
//! synthesis exercises the same code paths. That is the substitution:
//! seeded synthetic data of the same shape in place of the real datasets.
//!
//! Both generators also produce a train/test split in the spirit of the
//! paper's setup ("all dates except the last month" for training): the
//! last `test_fraction` of fact rows, which are generated in date order,
//! form the test set.

pub mod favorita;
pub mod retailer;

pub use favorita::favorita;
pub use retailer::retailer;

use ifaq_engine::StarDb;
use ifaq_storage::{ColRelation, Column};

/// A generated dataset: the star database, the feature attributes, and
/// the label attribute.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable dataset name (`"favorita"` / `"retailer"`).
    pub name: &'static str,
    /// The star-schema database (all rows).
    pub db: StarDb,
    /// Continuous feature attribute names (across fact and dimensions).
    pub features: Vec<String>,
    /// Label attribute (on the fact table).
    pub label: String,
    /// Fraction of (trailing, by date) fact rows reserved for testing.
    pub test_fraction: f64,
}

impl Dataset {
    /// The training database: all but the trailing test rows.
    pub fn train(&self) -> StarDb {
        let n = self.db.fact_rows();
        let cut = ((n as f64) * (1.0 - self.test_fraction)).round() as usize;
        self.db.take_fact(cut.min(n))
    }

    /// The held-out test rows, materialized (the baselines and the RMSE
    /// evaluation both need the joined feature vectors).
    pub fn test_matrix(&self) -> ifaq_engine::TrainMatrix {
        let n = self.db.fact_rows();
        let cut = ((n as f64) * (1.0 - self.test_fraction)).round() as usize;
        // Take the tail by materializing the full set and slicing rows
        // belonging to the tail of the fact table.
        let full = self.db.materialize();
        let train_rows = self.db.take_fact(cut.min(n)).materialize().rows;
        let width = full.attrs.len();
        ifaq_engine::TrainMatrix {
            attrs: full.attrs.clone(),
            rows: full.rows - train_rows,
            data: full.data[train_rows * width..].to_vec(),
        }
    }

    /// Feature names as `&str` slices (convenience for batch builders).
    pub fn feature_refs(&self) -> Vec<&str> {
        self.features.iter().map(String::as_str).collect()
    }

    /// Relation names: fact first, then dimensions.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names = vec![self.db.fact.name.as_str()];
        names.extend(self.db.dims.iter().map(|d| d.rel.name.as_str()));
        names
    }

    /// Derives the binary-classification variant of this dataset for the
    /// logistic workload: a new 0/1 fact column `<label>_hi`, 1.0 where
    /// the continuous label exceeds its (full-dataset) median, becomes
    /// the label; the original label column stays in the fact table but
    /// is no longer the target. Features and the train/test split are
    /// unchanged. For Favorita this is "was this an above-median sales
    /// day" — a churn/promotion-style target with real signal in
    /// `onpromotion`, `holiday`, and the rest.
    pub fn binarize_label(&self) -> Dataset {
        let fact = &self.db.fact;
        let col = fact.column(&self.label).expect("label column");
        let mut sorted: Vec<f64> = (0..fact.len()).map(|i| col.get_f64(i)).collect();
        sorted.sort_by(f64::total_cmp);
        let median = if sorted.is_empty() {
            0.0
        } else {
            sorted[sorted.len() / 2]
        };
        let bin: Vec<f64> = (0..fact.len())
            .map(|i| if col.get_f64(i) > median { 1.0 } else { 0.0 })
            .collect();
        let bin_label = format!("{}_hi", self.label);
        let mut attrs = fact.attrs.clone();
        attrs.push(ifaq_ir::Sym::new(bin_label.as_str()));
        let mut columns = fact.columns.clone();
        columns.push(Column::F64(bin));
        let fact = ColRelation::new(fact.name.clone(), attrs, columns);
        Dataset {
            name: self.name,
            db: StarDb::new(fact, self.db.dims.clone()),
            features: self.features.clone(),
            label: bin_label,
            test_fraction: self.test_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_test_split_partitions_rows() {
        let ds = favorita(5_000, 7);
        let train = ds.train();
        assert!(train.fact_rows() < ds.db.fact_rows());
        let test = ds.test_matrix();
        let full = ds.db.materialize();
        assert_eq!(train.materialize().rows + test.rows, full.rows);
    }

    #[test]
    fn feature_refs_match_features() {
        let ds = retailer(1_000, 3);
        assert_eq!(ds.feature_refs().len(), ds.features.len());
    }

    #[test]
    fn binarize_label_splits_at_the_median() {
        let ds = favorita(4_000, 9);
        let bin = ds.binarize_label();
        assert_eq!(bin.label, "unit_sales_hi");
        assert_eq!(bin.features, ds.features);
        let col = bin.db.fact.column("unit_sales_hi").unwrap();
        let ones = (0..bin.db.fact_rows())
            .filter(|&i| col.get_f64(i) == 1.0)
            .count();
        // Strictly-above-median split: roughly balanced, never degenerate.
        assert!(
            ones * 10 >= bin.db.fact_rows() * 2 && ones * 10 <= bin.db.fact_rows() * 8,
            "{ones} positives of {}",
            bin.db.fact_rows()
        );
        // Every value is exactly 0 or 1.
        assert!((0..bin.db.fact_rows()).all(|i| {
            let v = col.get_f64(i);
            v == 0.0 || v == 1.0
        }));
        // The original continuous label column is still present.
        assert!(bin.db.fact.column("unit_sales").is_some());
        // The split and materialization still work on the augmented fact.
        assert_eq!(bin.db.materialize().rows, bin.db.fact_rows());
        let test = bin.test_matrix();
        assert!(test.col("unit_sales_hi").is_some());
    }

    #[test]
    fn binarize_label_works_on_retailer() {
        let ds = retailer(1_000, 4).binarize_label();
        assert_eq!(ds.label, "inventoryunits_hi");
        assert!(ds.db.fact.column(&ds.label).is_some());
    }
}
