//! `aabench`: the repository's benchmark of incidence-to-adjacency
//! construction, `A = Eᵀout ⊕.⊗ Ein`, end to end and layer by layer.
//! See `README.md` for the workloads, metrics and bounds.

mod digest;
mod gen;
pub mod run;
mod trace;
mod watchdog;
pub mod workloads;
