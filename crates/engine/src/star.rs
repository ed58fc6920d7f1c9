//! Star-schema columnar databases and join materialization.
//!
//! The physical engines operate on a [`StarDb`]: one columnar fact table
//! plus dimension tables each joined on a single integer key. This is the
//! shape of both evaluation datasets (Table 1): a sales/inventory fact
//! table with item/store/date dimensions.
//!
//! [`StarDb::materialize`] computes the full project-join result as a
//! dense row-major matrix — what the scikit-learn / TensorFlow pipelines
//! must build before learning, and the input to the baseline learners.

use ifaq_ir::{Attribute, Catalog, RelSchema, ScalarType, Sym};
use ifaq_query::jointree::JoinTreeError;
use ifaq_query::JoinTree;
use ifaq_storage::{ColRelation, Column};
use std::collections::HashMap;
use std::path::Path;

/// A dimension table: a columnar relation joined to the fact table on
/// `key` (an integer attribute present in both).
#[derive(Clone, Debug)]
pub struct Dim {
    /// The dimension relation.
    pub rel: ColRelation,
    /// Join key attribute.
    pub key: Sym,
}

impl Dim {
    /// Creates a dimension.
    pub fn new(rel: ColRelation, key: impl Into<Sym>) -> Self {
        Dim {
            rel,
            key: key.into(),
        }
    }

    /// Builds a key → row-index map (unique keys assumed; later rows win).
    pub fn key_index(&self) -> HashMap<i64, usize> {
        let col = self
            .rel
            .column(self.key.as_str())
            .expect("dimension key column")
            .as_i64()
            .expect("dimension key must be an integer column");
        col.iter().enumerate().map(|(i, &k)| (k, i)).collect()
    }

    /// Non-key attribute names.
    pub fn payload_attrs(&self) -> Vec<Sym> {
        self.rel
            .attrs
            .iter()
            .filter(|a| **a != self.key)
            .cloned()
            .collect()
    }
}

/// A star-schema database: fact table plus dimensions.
#[derive(Clone, Debug)]
pub struct StarDb {
    /// Fact table.
    pub fact: ColRelation,
    /// Dimension tables.
    pub dims: Vec<Dim>,
    /// Mutation epoch: bumped by [`StarDb::bump_generation`] whenever a
    /// delta is applied to the database. `layout::Prepared` records the
    /// generation it was built at, so state prepared before a delta
    /// fails fast instead of silently executing over changed rows.
    /// Private so the only way to move it is the explicit bump; cloning
    /// preserves it (a snapshot is the same epoch).
    generation: u64,
}

/// The materialized training matrix: dense row-major `f64` data over the
/// listed attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainMatrix {
    /// Column names.
    pub attrs: Vec<Sym>,
    /// Number of rows.
    pub rows: usize,
    /// Row-major data (`rows * attrs.len()` values).
    pub data: Vec<f64>,
}

impl TrainMatrix {
    /// Column index of `attr`.
    pub fn col(&self, attr: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.as_str() == attr)
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.attrs.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * 8
    }
}

impl StarDb {
    /// Creates a star database (at generation 0).
    pub fn new(fact: ColRelation, dims: Vec<Dim>) -> Self {
        StarDb {
            fact,
            dims,
            generation: 0,
        }
    }

    /// The database's mutation epoch (see [`StarDb::bump_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances the mutation epoch and returns the new generation.
    ///
    /// Call this after applying a delta (fact rows inserted or deleted):
    /// every [`crate::layout::Prepared`] built before the bump becomes
    /// stale and panics on use, naming both generations. Pure fact
    /// *value* rewrites of an iteration column (logistic's `__sigma`)
    /// intentionally do **not** bump — prepared state never captures
    /// fact values, so it stays valid across them (the PR 4 contract).
    pub fn bump_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// A new database with the same dimensions but a different fact
    /// table — the Δ-`StarDb` view used for delta-scoped execution: a
    /// fact table holding only the Δ rows joins against the resident
    /// dimensions, so the existing executors compute exactly the Δ
    /// partial of any aggregate batch. Starts a fresh epoch
    /// (generation 0): it is a new database, not a mutation of this one.
    pub fn with_fact(&self, fact: ColRelation) -> StarDb {
        StarDb::new(fact, self.dims.clone())
    }

    /// Number of fact tuples.
    pub fn fact_rows(&self) -> usize {
        self.fact.len()
    }

    /// Total tuples across all relations (Table 1's "Tuples of Database").
    pub fn total_tuples(&self) -> usize {
        self.fact.len() + self.dims.iter().map(|d| d.rel.len()).sum::<usize>()
    }

    /// Total bytes across all relations (Table 1's "Size of Database").
    pub fn total_bytes(&self) -> usize {
        self.fact.bytes() + self.dims.iter().map(|d| d.rel.bytes()).sum::<usize>()
    }

    /// A catalog describing this database (distinct counts estimated from
    /// the data), for join-tree construction and planning.
    pub fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        // Distinct counts are estimated from the key range (the generators
        // use compact surrogate keys), which keeps catalog construction
        // O(n) without sorting copies of every column.
        let rel_schema = |rel: &ColRelation| -> RelSchema {
            let attrs = rel
                .attrs
                .iter()
                .zip(&rel.columns)
                .map(|(name, col)| {
                    let (ty, distinct) = match col {
                        Column::I64(v) => {
                            let min = v.iter().copied().min().unwrap_or(0);
                            let max = v.iter().copied().max().unwrap_or(0);
                            let range = (max - min + 1).max(1) as u64;
                            (ScalarType::Int, range.min(v.len().max(1) as u64))
                        }
                        Column::F64(v) => (ScalarType::Real, v.len() as u64),
                    };
                    Attribute::new(name.clone(), ty, distinct.max(1))
                })
                .collect();
            RelSchema::new(rel.name.clone(), attrs, rel.len() as u64)
        };
        cat.add_relation(rel_schema(&self.fact));
        for d in &self.dims {
            cat.add_relation(rel_schema(&d.rel));
        }
        cat
    }

    /// The star's join tree: rooted at the fact table, every dimension a
    /// child. `cat` must describe this database (see [`StarDb::catalog`]).
    pub fn join_tree(&self, cat: &Catalog) -> Result<JoinTree, JoinTreeError> {
        let dims: Vec<&str> = self.dims.iter().map(|d| d.rel.name.as_str()).collect();
        JoinTree::build_with_root(cat, self.fact.name.as_str(), &dims)
    }

    /// Restricts the fact table to its first `n` rows (scaled variants).
    /// Like [`StarDb::with_fact`], the result is a new database at
    /// generation 0.
    pub fn take_fact(&self, n: usize) -> StarDb {
        self.with_fact(self.fact.take(n))
    }

    /// Resolves the project-join's row structure: which fact rows survive
    /// the inner join and which dimension row each joins with. This is the
    /// θ-free half of materialization — it reads only the join *keys*, so
    /// it stays valid when fact or dimension value columns change (e.g.
    /// the `__sigma` column rewritten each logistic iteration) and can be
    /// built once and reused across [`StarDb::materialize_via`] calls.
    pub fn join_index(&self) -> JoinIndex {
        // Row numbers are stored as u32; fail loudly rather than let an
        // `as` cast alias rows on >4Gi-row tables.
        assert!(
            self.fact.len() <= u32::MAX as usize,
            "join_index supports at most u32::MAX fact rows (got {})",
            self.fact.len()
        );
        for d in &self.dims {
            assert!(
                d.rel.len() <= u32::MAX as usize,
                "join_index supports at most u32::MAX rows per dimension (`{}` has {})",
                d.rel.name,
                d.rel.len()
            );
        }
        let indexes: Vec<HashMap<i64, usize>> = self.dims.iter().map(Dim::key_index).collect();
        let fact_key_cols: Vec<&[i64]> = self
            .dims
            .iter()
            .map(|d| {
                self.fact
                    .column(d.key.as_str())
                    .expect("fact join key")
                    .as_i64()
                    .expect("fact join key must be integer")
            })
            .collect();
        let n = self.fact.len();
        let mut fact_rows = Vec::new();
        let mut dim_rows: Vec<Vec<u32>> = vec![Vec::new(); self.dims.len()];
        'fact: for i in 0..n {
            // Resolve all dimension rows first (inner join: skip on miss).
            let mut resolved = Vec::with_capacity(self.dims.len());
            for (d, keys) in indexes.iter().zip(&fact_key_cols) {
                match d.get(&keys[i]) {
                    Some(&j) => resolved.push(j as u32),
                    None => continue 'fact,
                }
            }
            fact_rows.push(i as u32);
            for (per_dim, j) in dim_rows.iter_mut().zip(resolved) {
                per_dim.push(j);
            }
        }
        JoinIndex {
            fact_rows,
            dim_rows,
        }
    }

    /// Materializes the project-join through a prebuilt [`JoinIndex`]: a
    /// pure gather over the current column values (no hashing), producing
    /// exactly the matrix [`StarDb::materialize`] would — all fact
    /// attributes followed by all dimension payload attributes, in the
    /// surviving fact rows' original order.
    pub fn materialize_via(&self, index: &JoinIndex) -> TrainMatrix {
        let mut attrs: Vec<Sym> = self.fact.attrs.clone();
        for d in &self.dims {
            attrs.extend(d.payload_attrs());
        }
        let width = attrs.len();
        let dim_payload_cols: Vec<Vec<&Column>> = self
            .dims
            .iter()
            .map(|d| {
                d.payload_attrs()
                    .iter()
                    .map(|a| d.rel.column(a.as_str()).expect("payload column"))
                    .collect()
            })
            .collect();
        let rows = index.fact_rows.len();
        let mut data = Vec::with_capacity(rows * width);
        for (r, &i) in index.fact_rows.iter().enumerate() {
            for c in &self.fact.columns {
                data.push(c.get_f64(i as usize));
            }
            for (cols, per_dim) in dim_payload_cols.iter().zip(&index.dim_rows) {
                let j = per_dim[r] as usize;
                for c in cols {
                    data.push(c.get_f64(j));
                }
            }
        }
        TrainMatrix { attrs, rows, data }
    }

    /// Materializes the project-join: every fact row joined (inner) with
    /// its dimension rows, producing all fact attributes followed by all
    /// dimension payload attributes as dense `f64` columns. Equivalent to
    /// [`StarDb::join_index`] + [`StarDb::materialize_via`].
    pub fn materialize(&self) -> TrainMatrix {
        self.materialize_via(&self.join_index())
    }

    /// Serializes the whole star to `dir`: one `IFAQTBL1` file per
    /// relation (named by [`ifaq_storage::export::table_file_name`]) plus
    /// a `star.manifest` recording which file is the fact table and each
    /// dimension's join key. This is the data the *generated* C++
    /// programs load — see `ifaq_codegen` — and [`StarDb::import_dir`]
    /// reads it back for round-trip checks.
    ///
    /// # Panics
    ///
    /// If two relations map to the same file name (relation names must be
    /// unique up to file-name sanitization), or if a relation or join-key
    /// name contains whitespace — the manifest is whitespace-delimited,
    /// so such a name would export fine but never re-import.
    pub fn export_dir(&self, dir: &Path) -> std::io::Result<()> {
        use ifaq_storage::export::{table_file_name, write_relation};
        std::fs::create_dir_all(dir)?;
        let no_ws = |kind: &str, name: &str| {
            assert!(
                !name.chars().any(char::is_whitespace),
                "{kind} `{name}` contains whitespace; the star.manifest format \
                 cannot represent it"
            );
        };
        let mut seen = std::collections::HashSet::new();
        let mut manifest = String::from("ifaq-star v1\n");
        let mut write = |rel: &ColRelation| -> std::io::Result<String> {
            no_ws("relation name", rel.name.as_str());
            let file = table_file_name(rel.name.as_str());
            assert!(
                seen.insert(file.clone()),
                "relation `{}` collides with another relation's file name `{file}`",
                rel.name
            );
            write_relation(rel, &dir.join(&file))?;
            Ok(file)
        };
        let fact_file = write(&self.fact)?;
        manifest.push_str(&format!("fact {fact_file} {}\n", self.fact.name));
        for d in &self.dims {
            no_ws("join key", d.key.as_str());
            let file = write(&d.rel)?;
            manifest.push_str(&format!("dim {file} {} {}\n", d.rel.name, d.key));
        }
        std::fs::write(dir.join("star.manifest"), manifest)
    }

    /// Reads a star previously written by [`StarDb::export_dir`].
    pub fn import_dir(dir: &Path) -> std::io::Result<StarDb> {
        use ifaq_storage::export::read_relation;
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let manifest = std::fs::read_to_string(dir.join("star.manifest"))?;
        let mut lines = manifest.lines();
        if lines.next() != Some("ifaq-star v1") {
            return Err(bad(format!(
                "{}: not an ifaq-star v1 manifest",
                dir.display()
            )));
        }
        let mut fact = None;
        let mut dims = Vec::new();
        for line in lines {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["fact", file, _name] => fact = Some(read_relation(&dir.join(file))?),
                ["dim", file, _name, key] => {
                    dims.push(Dim::new(read_relation(&dir.join(file))?, *key));
                }
                [] => {}
                other => return Err(bad(format!("bad manifest line: {other:?}"))),
            }
        }
        Ok(StarDb::new(
            fact.ok_or_else(|| bad("manifest has no fact entry".into()))?,
            dims,
        ))
    }
}

/// The resolved row structure of the project-join (see
/// [`StarDb::join_index`]): θ-free prepared state for materialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinIndex {
    /// Fact rows that survive the inner join, ascending.
    pub fact_rows: Vec<u32>,
    /// Per dimension, the joined dimension row for each surviving fact
    /// row (parallel to `fact_rows`).
    pub dim_rows: Vec<Vec<u32>>,
}

impl JoinIndex {
    /// Number of joined rows.
    pub fn rows(&self) -> usize {
        self.fact_rows.len()
    }
}

/// Builds the running-example star database (§3.1) in columnar form:
/// `S(item, store, units)` ⋈ `R(store, city)` ⋈ `I(item, price)`.
pub fn running_example_star() -> StarDb {
    let fact = ColRelation::new(
        "S",
        vec![Sym::new("item"), Sym::new("store"), Sym::new("units")],
        vec![
            Column::I64(vec![1, 1, 2, 3, 2]),
            Column::I64(vec![1, 2, 1, 2, 2]),
            Column::F64(vec![10.0, 5.0, 3.0, 8.0, 2.0]),
        ],
    );
    let r = ColRelation::new(
        "R",
        vec![Sym::new("store"), Sym::new("city")],
        vec![Column::I64(vec![1, 2]), Column::F64(vec![100.0, 200.0])],
    );
    let i = ColRelation::new(
        "I",
        vec![Sym::new("item"), Sym::new("price")],
        vec![Column::I64(vec![1, 2, 3]), Column::F64(vec![1.5, 2.5, 3.5])],
    );
    StarDb::new(fact, vec![Dim::new(r, "store"), Dim::new(i, "item")])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materializes_running_example() {
        let db = running_example_star();
        let m = db.materialize();
        assert_eq!(m.rows, 5);
        assert_eq!(
            m.attrs
                .iter()
                .map(|a| a.as_str().to_string())
                .collect::<Vec<_>>(),
            vec!["item", "store", "units", "city", "price"]
        );
        // Row 0: item 1, store 1, units 10, city 100, price 1.5.
        assert_eq!(m.row(0), &[1.0, 1.0, 10.0, 100.0, 1.5]);
        // Row 3: item 3, store 2, units 8, city 200, price 3.5.
        assert_eq!(m.row(3), &[3.0, 2.0, 8.0, 200.0, 3.5]);
    }

    #[test]
    fn inner_join_drops_dangling_keys() {
        let mut db = running_example_star();
        // Add a fact row referencing a store that does not exist.
        db.fact = ColRelation::new(
            "S",
            db.fact.attrs.clone(),
            vec![
                Column::I64(vec![1, 1]),
                Column::I64(vec![1, 99]),
                Column::F64(vec![10.0, 4.0]),
            ],
        );
        let m = db.materialize();
        assert_eq!(m.rows, 1);
    }

    #[test]
    fn catalog_reflects_data() {
        let db = running_example_star();
        let cat = db.catalog();
        let s = cat.relation("S").unwrap();
        assert_eq!(s.cardinality, 5);
        assert_eq!(s.attr("item").unwrap().distinct, 3);
        assert_eq!(s.attr("store").unwrap().distinct, 2);
        assert!(cat.relation("R").is_some() && cat.relation("I").is_some());
    }

    #[test]
    fn sizes_and_counts() {
        let db = running_example_star();
        assert_eq!(db.fact_rows(), 5);
        assert_eq!(db.total_tuples(), 5 + 2 + 3);
        assert_eq!(db.total_bytes(), (5 * 3 + 2 * 2 + 3 * 2) * 8);
        let m = db.materialize();
        assert_eq!(m.bytes(), 5 * 5 * 8);
    }

    #[test]
    fn join_index_gather_reproduces_materialize() {
        let db = running_example_star();
        let index = db.join_index();
        assert_eq!(index.rows(), 5);
        assert_eq!(db.materialize_via(&index), db.materialize());
    }

    #[test]
    fn join_index_survives_value_mutation() {
        // The index reads only join keys, so rewriting a value column
        // (the logistic `__sigma` pattern) must not invalidate it: the
        // gather picks up the new values.
        let mut db = running_example_star();
        let index = db.join_index();
        let units = db.fact.columns[2].as_f64_slice().unwrap().to_vec();
        db.fact.columns[2] = Column::F64(units.iter().map(|u| u * 10.0).collect());
        let m = db.materialize_via(&index);
        assert_eq!(m, db.materialize());
        assert_eq!(m.row(0)[2], 100.0);
    }

    #[test]
    fn take_fact_scales_down() {
        let db = running_example_star().take_fact(2);
        assert_eq!(db.fact_rows(), 2);
        assert_eq!(db.materialize().rows, 2);
    }

    #[test]
    fn generation_bumps_and_clones_preserve_it() {
        let mut db = running_example_star();
        assert_eq!(db.generation(), 0);
        assert_eq!(db.bump_generation(), 1);
        assert_eq!(db.bump_generation(), 2);
        // A clone is a snapshot of the same epoch…
        assert_eq!(db.clone().generation(), 2);
        // …while derived databases start a fresh epoch.
        assert_eq!(db.take_fact(2).generation(), 0);
        assert_eq!(db.with_fact(db.fact.take(1)).generation(), 0);
    }

    #[test]
    fn with_fact_is_a_delta_view() {
        // Aggregating over a Δ fact against the resident dimensions
        // yields exactly the Δ rows' contribution: materializing the
        // 2-row view gives the first two joined rows of the full join.
        let db = running_example_star();
        let delta = db.with_fact(db.fact.take(2));
        assert_eq!(delta.dims.len(), db.dims.len());
        let m = delta.materialize();
        let full = db.materialize();
        assert_eq!(m.rows, 2);
        assert_eq!(m.row(0), full.row(0));
        assert_eq!(m.row(1), full.row(1));
    }

    #[test]
    fn export_import_round_trips() {
        let db = running_example_star();
        let dir = std::env::temp_dir().join(format!("ifaq_star_rt_{}", std::process::id()));
        db.export_dir(&dir).unwrap();
        assert!(dir.join("star.manifest").exists());
        assert!(dir.join("S.ifaqtbl").exists());
        let back = StarDb::import_dir(&dir).unwrap();
        assert_eq!(back.fact, db.fact);
        assert_eq!(back.dims.len(), db.dims.len());
        for (a, b) in back.dims.iter().zip(&db.dims) {
            assert_eq!(a.rel, b.rel);
            assert_eq!(a.key, b.key);
        }
        assert_eq!(back.materialize(), db.materialize());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "contains whitespace")]
    fn export_rejects_whitespace_relation_names() {
        // The manifest is whitespace-delimited: a name with a space would
        // export fine and then never re-import, so it must fail loudly.
        let mut db = running_example_star();
        db.fact.name = Sym::new("My Sales");
        let dir = std::env::temp_dir().join(format!("ifaq_star_ws_{}", std::process::id()));
        let _ = db.export_dir(&dir);
    }

    #[test]
    fn import_rejects_foreign_manifest() {
        let dir = std::env::temp_dir().join(format!("ifaq_star_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("star.manifest"), "something else\n").unwrap();
        let err = StarDb::import_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("ifaq-star"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dim_helpers() {
        let db = running_example_star();
        let r = &db.dims[0];
        assert_eq!(r.payload_attrs(), vec![Sym::new("city")]);
        let idx = r.key_index();
        assert_eq!(idx[&1], 0);
        assert_eq!(idx[&2], 1);
    }
}
