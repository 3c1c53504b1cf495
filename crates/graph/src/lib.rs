//! # aarray-graph
//!
//! The graph side of the pipeline: directed multigraphs with labelled,
//! weighted edges; extraction of the incidence arrays `Eout`/`Ein`
//! (Definition I.4); a direct hash-aggregation baseline for adjacency
//! construction (what you would write *without* array multiplication);
//! synthetic generators (Erdős–Rényi, R-MAT/Kronecker, music-like
//! bipartite metadata, classic families); Section III's structured
//! document×word arrays; and semiring graph algorithms (BFS, min-plus
//! SSSP, triangle counting) that run on constructed adjacency arrays —
//! the "variety of algorithms" the paper's abstract hands off to.
//!
//! ```
//! use aarray_graph::{algorithms, generators};
//! use aarray_core::adjacency_array;
//! use aarray_algebra::pairs::{OrAnd, PlusTimes};
//! use aarray_algebra::values::nat::Nat;
//!
//! let g = generators::cycle(5);
//! let pair = PlusTimes::<Nat>::new();
//! let (eout, ein) = g.incidence_arrays(&pair);
//! let bpair = OrAnd::new();
//! let adj = adjacency_array(
//!     &eout.map_prune(&bpair, |v| v.0 > 0),
//!     &ein.map_prune(&bpair, |v| v.0 > 0),
//!     &bpair,
//! );
//! let levels = algorithms::bfs_levels(&adj, "v0000000");
//! assert_eq!(levels.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod baseline;
pub mod bipartite;
pub mod components;
pub mod export;
pub mod generators;
pub mod hits;
pub mod hypergraph;
pub mod kcore;
pub mod metrics;
pub mod multigraph;
pub mod pagerank;
pub mod scc;
pub mod structured;

pub use baseline::direct_adjacency;
pub use multigraph::{Edge, MultiGraph};
