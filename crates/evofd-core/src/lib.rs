//! # evofd-core
//!
//! The confidence-based (CB) method of *"Semi-automatic support for
//! evolving functional dependencies"* (Mazuran, Quintarelli, Tanca,
//! Ugolini — EDBT 2016): detect functional dependencies violated by the
//! current data and evolve them by adding a minimal set of attributes to
//! their antecedent, ranked by **confidence** and **goodness**.
//!
//! * [`fd`] — FD syntax/semantics (Definitions 1–2), parsing, decomposition;
//! * [`measures`] — confidence, goodness, ε_CB (Definition 3, §5);
//! * [`clustering`] — FDs as functions between clusterings (Definitions 5–6);
//! * [`mod@closure`] — Armstrong reasoning: closures, implication, minimal cover,
//!   candidate keys;
//! * [`ordering`] — multi-FD repair ordering (§4.1);
//! * [`candidates`] — `ExtendByOne` candidate ranking (§4.2, Algorithm 2);
//! * [`repair`] — the `Extend` best-first search and `FindFDRepairs`
//!   (§4.3–4.4, Algorithms 1 & 3), find-first/find-all modes, goodness
//!   threshold;
//! * [`repair_index`] — the repair search as a resumable index whose
//!   candidate scores are maintained from row-level deltas;
//! * [`advisor`] — the semi-automatic designer loop;
//! * [`mod@violations`] — the tuple-level evidence behind each violation;
//! * [`mod@validate`] — FD validation reports;
//! * [`discovery`] — a TANE-style levelwise FD miner (the §2 alternative);
//! * [`cfd`] — conditional FDs: evolving by *restricting scope* (§7);
//! * [`normalize`] — BCNF analysis and lossless decomposition;
//! * [`report`] — paper-style text tables and duration formatting.

#![warn(missing_docs)]

pub mod advisor;
pub mod candidates;
pub mod cfd;
pub mod closure;
pub mod clustering;
pub mod discovery;
pub mod error;
pub mod fd;
pub mod measures;
pub mod normalize;
pub mod ordering;
pub mod repair;
pub mod repair_index;
pub mod report;
pub mod validate;
pub mod violations;

pub use advisor::{AdvisorSession, AuditEvent, FdState};
pub use candidates::{candidate_pool, extend_by_one, Candidate};
pub use cfd::{condition_repairs, Cfd, ConditionRepair, Pattern};
pub use closure::{
    candidate_keys, closure, determines, equivalent, implies, minimal_cover, reduce_determined,
};
pub use clustering::{Clustering, FdClusterView};
pub use discovery::{discover_fds, DiscoveredFd, DiscoveryConfig, DiscoveryResult};
pub use error::{FdError, Result};
pub use fd::Fd;
pub use measures::{confidence, epsilon_cb, goodness, is_satisfied, Measures};
pub use normalize::{bcnf_decompose, bcnf_violations, is_bcnf, is_superkey, Fragment};
pub use ordering::{conflict_score, order_fds, ConflictMode, RankedFd};
pub use repair::{
    find_fd_repairs, repair_fd, FdOutcome, Repair, RepairConfig, RepairSearch, SearchMode,
    SearchStats,
};
pub use repair_index::{IndexOutcome, IndexStats, RepairIndex};
pub use report::{format_confidence, format_duration, TextTable};
pub use validate::{validate, FdStatus, ValidationReport};
pub use violations::{violations, ViolationGroup, ViolationReport};
