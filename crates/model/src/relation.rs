//! Relations: schemas plus sets of tuples.
//!
//! Relations follow **set semantics** (as Relational Algebra, the calculi
//! and Datalog assume): tuples are stored in a `BTreeSet`, so iteration is
//! deterministic and results compare structurally.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::error::{ModelError, Result};
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::tuple::{IntoTuple, Tuple};
use crate::value::Value;

/// A named-attribute relation with set semantics.
///
/// The relation also owns its optimizer sketches ([`Relation::stats`]):
/// collected on first use, shared by clones, and reset by every
/// `&mut self` method that changes the content. Equality and `Debug`
/// ignore them.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
    #[serde(skip)]
    stats: OnceLock<Arc<TableStats>>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl Relation {
    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> Self {
        Relation::with_tuples(schema, BTreeSet::new())
    }

    fn with_tuples(schema: Schema, tuples: BTreeSet<Tuple>) -> Self {
        Relation { schema, tuples, stats: OnceLock::new() }
    }

    /// Builds a relation and inserts the given rows, checking arity/types.
    pub fn from_rows<T: IntoTuple>(schema: Schema, rows: Vec<T>) -> Result<Self> {
        let mut r = Relation::empty(schema);
        for row in rows {
            r.insert(row.into_tuple())?;
        }
        Ok(r)
    }

    /// The Boolean TRUE relation: zero-ary with the single empty tuple.
    pub fn boolean_true() -> Self {
        Relation::with_tuples(Schema::empty(), BTreeSet::from([Tuple::new(vec![])]))
    }

    /// The Boolean FALSE relation: zero-ary and empty.
    pub fn boolean_false() -> Self {
        Relation::empty(Schema::empty())
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Deterministic (sorted) iteration.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// The optimizer sketches of the current content, collected on the
    /// first call and kept until the next mutation.
    pub fn stats(&self) -> &Arc<TableStats> {
        self.stats.get_or_init(|| Arc::new(TableStats::collect(self)))
    }

    /// Inserts a tuple after validating arity and types.
    /// Returns `Ok(true)` if the tuple was new.
    pub fn insert(&mut self, t: Tuple) -> Result<bool> {
        if t.arity() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.arity(),
            });
        }
        for (v, a) in t.values().iter().zip(self.schema.attrs()) {
            if !v.conforms_to(a.ty) {
                return Err(ModelError::TypeMismatch {
                    attr: a.name.clone(),
                    expected: a.ty.to_string(),
                    got: v.data_type().to_string(),
                });
            }
        }
        Ok(self.insert_unchecked(t))
    }

    /// Inserts without validation; used by evaluators whose output schema is
    /// correct by construction.
    pub fn insert_unchecked(&mut self, t: Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.schema.arity());
        let new = self.tuples.insert(t);
        if new {
            self.stats.take();
        }
        new
    }

    /// Builds a relation from a whole batch of rows without validation,
    /// in one bulk set construction (sort + bulk build) instead of
    /// per-tuple tree inserts — the fast path for evaluators converting
    /// a large correct-by-construction batch back to set semantics.
    /// Duplicates collapse as always.
    pub fn from_tuples_unchecked(schema: Schema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|t| t.arity() == schema.arity()));
        Relation::with_tuples(schema, rows.into_iter().collect())
    }

    /// Replaces the schema with an equally-shaped one (rename operations).
    /// The sketches are positional, so they carry over.
    pub fn with_schema(self, schema: Schema) -> Result<Self> {
        if schema.arity() != self.schema.arity() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation { schema, ..self })
    }

    /// All distinct values appearing in this relation (its active domain).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for t in &self.tuples {
            for v in t.values() {
                dom.insert(v.clone());
            }
        }
        dom
    }

    /// All distinct values of one attribute.
    pub fn column_values(&self, attr: &str) -> Result<BTreeSet<Value>> {
        let idx = self
            .schema
            .index_of(attr)
            .ok_or_else(|| ModelError::UnknownAttribute(attr.to_string()))?;
        Ok(self.tuples.iter().map(|t| t.values()[idx].clone()).collect())
    }

    /// Structural equality ignoring attribute names (same arity, same tuple
    /// set) — the right notion for comparing query answers across languages
    /// whose output naming conventions differ.
    ///
    /// Tuples compare by the same total order that governs set membership
    /// (`Ord`), not by derived `PartialEq` — the two differ on float edge
    /// values (a relation containing `NaN` must still equal itself).
    pub fn same_contents(&self, other: &Relation) -> bool {
        self.schema.arity() == other.schema.arity()
            && self.tuples.len() == other.tuples.len()
            && self
                .tuples
                .iter()
                .zip(&other.tuples)
                .all(|(a, b)| a.cmp(b) == std::cmp::Ordering::Equal)
    }
}

impl fmt::Display for Relation {
    /// Pretty-prints as an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::of(&[("sid", DataType::Int), ("sname", DataType::Str)]),
            vec![(1, "a"), (2, "b"), (1, "a")],
        )
        .unwrap()
    }

    #[test]
    fn set_semantics_dedups() {
        assert_eq!(rel().len(), 2);
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut r = rel();
        assert!(matches!(
            r.insert(Tuple::of((1,))),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            r.insert(Tuple::of(("oops", "b"))),
            Err(ModelError::TypeMismatch { .. })
        ));
        assert!(r.insert(Tuple::of((Value::Null, Value::Null))).unwrap());
    }

    #[test]
    fn boolean_relations() {
        assert_eq!(Relation::boolean_true().len(), 1);
        assert!(Relation::boolean_false().is_empty());
        assert_eq!(Relation::boolean_true().schema().arity(), 0);
    }

    #[test]
    fn active_domain_and_columns() {
        let r = rel();
        let dom = r.active_domain();
        assert!(dom.contains(&Value::Int(1)));
        assert!(dom.contains(&Value::str("b")));
        assert_eq!(r.column_values("sid").unwrap().len(), 2);
        assert!(r.column_values("ghost").is_err());
    }

    /// Regression: comparison must follow the set's own total order —
    /// under derived `PartialEq`, a NaN-holding relation was unequal to
    /// an identical copy of itself.
    #[test]
    fn same_contents_follows_the_total_order() {
        let schema = Schema::of(&[("x", DataType::Float)]);
        let r = Relation::from_rows(schema, vec![(f64::NAN,), (1.0,)]).unwrap();
        assert!(r.same_contents(&r.clone()));
    }

    #[test]
    fn same_contents_ignores_names() {
        let a = rel();
        let b = Relation::from_rows(
            Schema::of(&[("x", DataType::Int), ("y", DataType::Str)]),
            vec![(2, "b"), (1, "a")],
        )
        .unwrap();
        assert!(a.same_contents(&b));
    }

    /// The sketches follow the content: an insert drops them, the next
    /// read recollects, and a clone shares them until one side changes.
    #[test]
    fn stats_follow_mutation_and_clones_share_until_mutated() {
        let mut r = Relation::from_rows(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            vec![(1, 10), (2, 10)],
        )
        .unwrap();
        let before = Arc::clone(r.stats());
        assert_eq!((before.rows, before.cols[1].distinct), (2, 1));
        assert_eq!(before.cols[0].max, Some(Value::Int(2)));

        let copy = r.clone();
        assert!(Arc::ptr_eq(copy.stats(), &before), "a clone shares the sketch");
        assert!(!r.insert(Tuple::of((1, 10))).unwrap());
        assert!(Arc::ptr_eq(r.stats(), &before), "a duplicate changes nothing");

        assert!(r.insert(Tuple::of((7, -5))).unwrap());
        let after = r.stats();
        assert_eq!((after.rows, after.cols[0].distinct, after.cols[1].distinct), (3, 3, 2));
        assert_eq!(after.cols[0].max, Some(Value::Int(7)));
        assert_eq!(after.cols[1].min, Some(Value::Int(-5)));
        assert!(Arc::ptr_eq(copy.stats(), &before), "the untouched clone keeps its own");
        assert_eq!(r, r.clone(), "equality ignores the sketch cell");
    }

    #[test]
    fn display_is_aligned() {
        let s = rel().to_string();
        assert!(s.starts_with("| sid | sname |"));
        assert!(s.contains("| 1   | a     |"));
    }
}
