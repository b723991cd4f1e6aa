//! Table statistics: the per-column sketches the cost-based optimizer
//! estimates cardinalities from.
//!
//! A [`Relation`] owns its own sketches ([`Relation::stats`]): they are
//! collected on first use, shared by clones, and dropped by every
//! mutation, so they always describe the content they sit next to.

use std::collections::BTreeSet;

use crate::relation::Relation;
use crate::value::Value;

/// Per-column sketch: exact distinct count plus min/max.
#[derive(Debug, Clone)]
pub struct ColSketch {
    pub distinct: usize,
    pub min: Option<Value>,
    pub max: Option<Value>,
}

/// Per-relation statistics: row count plus one [`ColSketch`] per column.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rows: usize,
    pub cols: Vec<ColSketch>,
}

impl TableStats {
    /// Collects sketches in one pass over the stored tuples.
    pub fn collect(rel: &Relation) -> TableStats {
        let arity = rel.schema().arity();
        let mut sets: Vec<BTreeSet<&Value>> = vec![BTreeSet::new(); arity];
        for t in rel.iter() {
            for (set, v) in sets.iter_mut().zip(t.values()) {
                set.insert(v);
            }
        }
        let cols = sets
            .into_iter()
            .map(|set| ColSketch {
                distinct: set.len(),
                min: set.iter().next().map(|v| (*v).clone()),
                max: set.iter().next_back().map(|v| (*v).clone()),
            })
            .collect();
        TableStats { rows: rel.len(), cols }
    }
}
