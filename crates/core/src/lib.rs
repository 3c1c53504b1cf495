//! # aarray-core
//!
//! Associative arrays and the paper's primary contribution: constructing
//! adjacency arrays from incidence arrays by array multiplication,
//! `A = Eᵀout ⊕.⊗ Ein`, with Theorem II.1's correctness criteria
//! enforced in the type system.
//!
//! An [`AArray`] is a map `A : K1 × K2 → V` (Definition I.1) where `K1`,
//! `K2` are finite totally-ordered sets of string keys and `V` is any
//! value set from `aarray-algebra`. Storage is sparse: entries equal to
//! an operator pair's zero are never stored, so the stored pattern *is*
//! the nonzero pattern the paper's definitions quantify over.
//!
//! The headline API is [`incidence::adjacency_array`]:
//!
//! ```
//! use aarray_core::prelude::*;
//!
//! // A two-edge graph: e1: alice→bob, e2: alice→carol.
//! let pair = PlusTimes::<Nat>::new();
//! let eout = AArray::from_triples(&pair, [
//!     ("e1", "alice", Nat(1)),
//!     ("e2", "alice", Nat(1)),
//! ]);
//! let ein = AArray::from_triples(&pair, [
//!     ("e1", "bob", Nat(1)),
//!     ("e2", "carol", Nat(1)),
//! ]);
//! let a = adjacency_array(&eout, &ein, &pair);
//! assert_eq!(a.get("alice", "bob"), Some(&Nat(1)));
//! assert_eq!(a.get("alice", "carol"), Some(&Nat(1)));
//! ```
//!
//! The `where OpPair: AdjacencyCompatible` bound on `adjacency_array`
//! *is* Theorem II.1's sufficiency direction: only operator pairs that
//! are zero-sum-free, zero-divisor-free, and zero-annihilating can be
//! used, so the result provably has the graph's edge pattern. For
//! experimentation with non-compliant pairs (the necessity direction),
//! use [`incidence::adjacency_array_unchecked`] or the runtime-validated
//! [`incidence::adjacency_array_checked`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod concat;
pub mod display;
pub mod elementwise;
pub mod incidence;
pub mod incremental;
pub mod io;
pub mod keys;
pub mod matmul;
pub mod plan;
pub mod query;
pub mod select;
#[cfg(feature = "serde")]
pub mod serde_impls;
pub mod stats;
pub mod theorem;
pub mod validate;
pub mod vector;

pub use array::AArray;
pub use incidence::{
    adjacency_array, adjacency_array_checked, adjacency_array_unchecked, adjacency_array_verified,
    adjacency_arrays_multi, adjacency_plan, reverse_adjacency_array, ComplianceError, PatternError,
};
pub use incremental::{AdjacencyView, BatchError, BatchKind, IncidenceBuilder, RefreshReport};
pub use keys::{InternedKeySet, KeyDict, KeySelect, KeySet};
pub use matmul::{
    parallel_flops_threshold, publish_pool_stats, set_parallel_flops_threshold, would_parallelize,
    DEFAULT_PARALLEL_FLOPS_THRESHOLD, PAR_FLOPS_THRESHOLD_ENV,
};
pub use plan::MatmulPlan;
pub use vector::AVector;

/// Commonly used items (re-exporting the algebra prelude too).
pub mod prelude {
    pub use crate::array::AArray;
    pub use crate::incidence::{
        adjacency_array, adjacency_array_checked, adjacency_array_unchecked,
        adjacency_array_verified, adjacency_arrays_multi, adjacency_plan, reverse_adjacency_array,
    };
    pub use crate::incremental::{AdjacencyView, IncidenceBuilder};
    pub use crate::keys::{KeyDict, KeySelect, KeySet};
    pub use crate::plan::MatmulPlan;
    pub use crate::theorem::{pattern_diff, PatternDiff};
    pub use aarray_algebra::prelude::*;
}
