//! Output digests for the correctness oracle: `nnz` plus an
//! order-sensitive hash of every stored entry's row key, column key and
//! value bits. Two arrays with equal digests hold the same entries in
//! the same order, up to a 64-bit hash collision.

use aarray_algebra::values::nn::NN;
use aarray_algebra::values::tropical::Tropical;
use aarray_algebra::Value;
use aarray_core::AArray;

/// A value whose exact bit pattern can be hashed.
pub trait Bits: Value {
    fn bits(&self) -> u64;
}

impl Bits for NN {
    fn bits(&self) -> u64 {
        self.get().to_bits()
    }
}

impl Bits for Tropical {
    fn bits(&self) -> u64 {
        self.get().to_bits()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub nnz: usize,
    pub hash: u64,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub fn digest<V: Bits>(a: &AArray<V>) -> Digest {
    let rows: Vec<u64> = a.row_keys().keys().iter().map(|k| fnv(k)).collect();
    let cols: Vec<u64> = a.col_keys().keys().iter().map(|k| fnv(k)).collect();
    let csr = a.csr();
    let mut h = mix(rows.len() as u64, cols.len() as u64);
    for (r, &rh) in rows.iter().enumerate() {
        let (ci, vals) = csr.row(r);
        for (&c, v) in ci.iter().zip(vals) {
            h = mix(mix(mix(h, rh), cols[c as usize]), v.bits());
        }
    }
    Digest {
        nnz: a.nnz(),
        hash: h,
    }
}

/// Compare one output against its reference digest.
pub fn expect<V: Bits>(what: &str, got: &AArray<V>, want: Digest) -> Result<(), String> {
    let d = digest(got);
    if d == want {
        Ok(())
    } else {
        Err(format!("{what}: digest {d:?} != reference {want:?}"))
    }
}
