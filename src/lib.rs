//! # evofd — evolving functional dependencies
//!
//! A complete Rust implementation of *"Semi-automatic support for evolving
//! functional dependencies"* (Mazuran, Quintarelli, Tanca, Ugolini —
//! EDBT 2016): detect the functional dependencies violated by the current
//! data and evolve them — at the constraint level, not the data level — by
//! adding a minimal set of attributes to their antecedents, ranked by
//! **confidence** and **goodness**.
//!
//! ## Quickstart
//!
//! ```
//! use evofd::prelude::*;
//!
//! // The paper's Figure 1 relation and its FDs.
//! let places = evofd::datagen::places();
//! let fds = evofd::datagen::places_fds(&places);
//!
//! // 1. Which FDs are violated, and how badly?
//! let report = validate(&places, &fds);
//! assert_eq!(report.violation_count(), 3);
//!
//! // 2. Repair the worst one: F1 = [District, Region] -> [AreaCode].
//! let search = repair_fd(&places, &fds[0], &RepairConfig::find_first()).unwrap();
//! let best = search.best().expect("repairable");
//! assert_eq!(
//!     best.fd.display(places.schema()),
//!     "[District, Region, Municipal] -> [AreaCode]"
//! );
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `evofd-core` | FDs, measures, repair search, advisor loop |
//! | [`storage`] | `evofd-storage` | relations, distinct counting, partitions |
//! | [`incremental`] | `evofd-incremental` | live relations, delta-maintained measures, drift feed |
//! | [`persist`] | `evofd-persist` | delta WAL, columnar snapshots, crash recovery |
//! | [`baseline`] | `evofd-baseline` | entropy-based (Chiang–Miller) baseline |
//! | [`datagen`] | `evofd-datagen` | Places, TPC-H DBGEN, dataset simulators |
//! | [`sql`] | `evofd-sql` | `SELECT COUNT(DISTINCT …)`-capable SQL engine |
//! | [`server`] | `evofd-server` | multi-client SQL + replication service over TCP |
//! | [`obs`] | `evofd-obs` | metrics registry, tracing spans, stage timings |
//! | [`pool`] | `mintpool` | work-stealing threadpool behind every parallel path |

#![warn(missing_docs)]

pub use evofd_baseline as baseline;
pub use evofd_core as core;
pub use evofd_datagen as datagen;
pub use evofd_incremental as incremental;
pub use evofd_obs as obs;
pub use evofd_persist as persist;
pub use evofd_server as server;
pub use evofd_sql as sql;
pub use evofd_storage as storage;
/// The vendored work-stealing threadpool behind every parallel path;
/// `pool::set_threads(1)` restores fully sequential execution.
pub use mintpool as pool;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use evofd_core::{
        candidate_pool, condition_repairs, discover_fds, extend_by_one, find_fd_repairs,
        is_satisfied, order_fds, repair_fd, validate, violations, AdvisorSession, Candidate, Cfd,
        ConflictMode, DiscoveryConfig, Fd, FdOutcome, Measures, Pattern, Repair, RepairConfig,
        RepairIndex, RepairSearch, SearchMode, ViolationReport,
    };
    pub use evofd_incremental::{
        AppliedDelta, DecisionAction, DecisionRecord, Delta, DriftKind, FdDrift,
        IncrementalValidator, LiveAdvisor, LiveFdState, LiveRelation, ValidatorConfig,
        ViolationSummary,
    };
    pub use evofd_persist::{
        ChannelTransport, Database, DirTransport, DurableEngine, DurableRelation, FrameTransport,
        PersistOptions, ReplicaState, SyncPolicy,
    };
    pub use evofd_storage::{
        count_distinct, read_csv_path, read_csv_str, AttrId, AttrSet, Catalog, CsvOptions,
        DataType, DistinctCache, Field, Partition, Relation, RelationBuilder, Schema, Value,
    };
}
