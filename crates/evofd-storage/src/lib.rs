//! # evofd-storage
//!
//! In-memory, dictionary-encoded relational storage engine underlying the
//! `evofd` reproduction of *"Semi-automatic support for evolving functional
//! dependencies"* (Mazuran et al., EDBT 2016).
//!
//! The paper's method runs against MySQL and reduces every measure to
//! `SELECT COUNT(DISTINCT …)` queries. This crate provides the equivalent
//! substrate:
//!
//! * typed values with total ordering/hashing ([`value`]),
//! * schemas and attribute bitsets ([`schema`], [`attrset`]),
//! * dictionary-encoded columns and relations ([`mod@column`], [`relation`]),
//! * distinct counting — one hash kernel over dictionary codes — with a
//!   thread-safe memo ([`distinct`]), on the group-key machinery it shares
//!   with the repair index and the incremental trackers ([`fastkey`]),
//! * partitions — the paper's clusterings — via refinement ([`partition`]),
//! * per-column statistics, CSV I/O and a table catalog
//!   ([`stats`], [`csv`], [`catalog`]).

#![warn(missing_docs)]

pub mod attrset;
pub mod catalog;
pub mod column;
pub mod csv;
pub mod distinct;
pub mod error;
pub mod fastkey;
pub mod partition;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod value;

pub use attrset::{AttrId, AttrSet};
pub use catalog::Catalog;
pub use column::{Column, Dictionary, NULL_CODE};
pub use csv::{
    parse_cell, read_csv_path, read_csv_records, read_csv_str, read_csv_str_chunked,
    read_csv_str_with_schema, write_csv_path, write_csv_str, CsvOptions,
};
pub use distinct::{count_distinct, count_distinct_naive, CacheStats, DistinctCache};
pub use error::{Result, StorageError};
pub use partition::Partition;
pub use relation::{relation_of_strs, Relation, RelationBuilder};
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, RelationProfile};
pub use value::{DataType, Value};
