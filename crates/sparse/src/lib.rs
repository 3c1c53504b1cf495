//! # aarray-sparse
//!
//! Generic sparse-array kernels over arbitrary value sets — the array
//! engine the paper assumes (D4M's sparse associative-array backend /
//! a GraphBLAS-style substrate), rebuilt in Rust.
//!
//! Everything is generic over a value type `V` and an `⊕.⊗` pair from
//! `aarray-algebra`; nothing assumes numbers.
//!
//! There are two multiply kernels. The one-pass [`spgemm()`] (and its
//! row-parallel twin) multiplies any `A ⊕.⊗ B`. The construction
//! product `Eoutᵀ ⊕.⊗ Ein` runs in steps that a caller can reuse: the
//! edge-major [`gather`] lays out each output row's terms in
//! ascending edge order, resolving every single-head edge to its
//! column; the [`symbolic`] pass finds the output pattern; and the
//! fused numeric pass ([`spgemm_multi`]) fills `K` algebras' lanes in
//! one traversal of the gathered rows. [`spgemm_delta`] runs the three
//! steps on one edge batch.
//!
//! Two semantic commitments hold throughout (both are consequences of
//! the paper's framing):
//!
//! 1. **Implicit zeros.** Arrays store no entries equal to the pair's
//!    zero; construction and every kernel drop zeros they produce, so
//!    the stored pattern *is* the nonzero pattern of Definition I.4/I.5.
//! 2. **Deterministic fold order.** Because the paper does not assume
//!    `⊕` is associative or commutative, every reduction folds
//!    **left-associated in ascending inner-key order**. The row-parallel
//!    kernels partition by output row and keep the same per-row fold
//!    order, so they are bit-identical to the serial kernels for *any*
//!    operations. No kernel here requires the
//!    [`aarray_algebra::AssociativeOp`] or
//!    [`aarray_algebra::CommutativeOp`] marker bounds.
//!
//! A further subtlety, documented once here: sparse multiplication only
//! folds terms where **both** operands are stored. This equals the
//! paper's dense semantics exactly when condition (c) holds (skipped
//! terms are `x ⊗ 0 = 0`) and since `0` is the `⊕`-identity, folding
//! them away is a no-op. For *non-compliant* pairs the two semantics
//! can differ; the dense reference evaluator in [`dense`] exists to
//! expose that difference in the theorem tests.
//!
//! ```
//! use aarray_sparse::{spgemm, Coo};
//! use aarray_algebra::pairs::MaxMin;
//! use aarray_algebra::values::nat::Nat;
//!
//! let pair = MaxMin::<Nat>::new();
//! let mut a = Coo::new(1, 2);
//! a.push(0, 0, Nat(3));
//! a.push(0, 1, Nat(7));
//! let mut b = Coo::new(2, 1);
//! b.push(0, 0, Nat(9));
//! b.push(1, 0, Nat(5));
//! let c = spgemm(&a.into_csr(&pair), &b.into_csr(&pair), &pair);
//! // max(min(3,9), min(7,5)) = 5: the widest bottleneck.
//! assert_eq!(c.get(0, 0), Some(&Nat(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunks;
pub mod coo;
pub mod csr;
pub mod dcsr;
pub mod dense;
pub mod elementwise;
pub mod gather;
pub mod spgemm;
pub mod spgemm_delta;
pub mod spgemm_multi;
pub mod spmv;
pub mod symbolic;

pub use coo::Coo;
pub use csr::Csr;
pub use gather::EdgeGather;
pub use spgemm::{spgemm, spgemm_flops, spgemm_parallel};
