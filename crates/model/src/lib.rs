//! # relviz-model
//!
//! The relational substrate of the `relviz` workspace: values, types,
//! schemas, tuples, relations (with set semantics), and an in-memory
//! [`Database`].
//!
//! The crate also ships the *sailors–reserves–boats* catalog from
//! Ramakrishnan & Gehrke's "cow book" — the running example of the ICDE'24
//! tutorial this workspace reproduces — together with deterministic, seeded
//! data generators so benchmarks can sweep database sizes.
//!
//! Everything downstream (SQL, RA, TRC/DRC, Datalog evaluators and all
//! diagram builders) is defined against the types in this crate.
//!
//! ## Quick start
//!
//! ```
//! use relviz_model::catalog::sailors_sample;
//!
//! let db = sailors_sample();
//! let sailors = db.relation("Sailor").unwrap();
//! assert_eq!(sailors.schema().arity(), 4);
//! assert!(sailors.len() > 0);
//! ```

pub mod catalog;
pub mod compare;
pub mod database;
pub mod error;
pub mod generate;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod text;
pub mod tuple;
pub mod value;

pub use compare::CmpOp;
pub use database::Database;
pub use error::{ModelError, Result};
pub use relation::Relation;
pub use schema::{Attribute, DataType, Schema};
pub use stats::{ColSketch, TableStats};
pub use tuple::Tuple;
pub use value::{Value, ValueRef};
