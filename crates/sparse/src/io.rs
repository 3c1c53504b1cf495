//! Plain-text triple serialization for sparse arrays.
//!
//! Format, one entry per line: `row<TAB>col<TAB>value`, preceded by a
//! header `%aarray <nrows> <ncols>`. Human-diffable, order-stable
//! (row-major), and generic: values round-trip through caller-supplied
//! format/parse functions so any value set can use it.

use crate::coo::Coo;
use crate::csr::Csr;
use aarray_algebra::{BinaryOp, OpPair, Value};

/// Serialize in row-major order with a caller-supplied value formatter.
pub fn write_triples<V: Value>(csr: &Csr<V>, fmt: impl Fn(&V) -> String) -> String {
    let mut out = String::new();
    out.push_str(&format!("%aarray {} {}\n", csr.nrows(), csr.ncols()));
    for (r, c, v) in csr.iter() {
        out.push_str(&format!("{}\t{}\t{}\n", r, c, fmt(v)));
    }
    out
}

/// Errors from [`read_triples`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The `%aarray nrows ncols` header is missing or malformed.
    BadHeader,
    /// A data line does not have three tab-separated fields, or its
    /// indices do not parse.
    BadLine(usize),
    /// The caller's value parser rejected a value.
    BadValue(usize),
    /// An index exceeds the header's dimensions.
    OutOfBounds(usize),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::BadHeader => write!(f, "missing or malformed %aarray header"),
            ReadError::BadLine(n) => write!(f, "malformed line {}", n),
            ReadError::BadValue(n) => write!(f, "unparseable value on line {}", n),
            ReadError::OutOfBounds(n) => write!(f, "index out of bounds on line {}", n),
        }
    }
}

impl std::error::Error for ReadError {}

/// Parse the triple format back into CSR, combining duplicates with the
/// pair's `⊕` (file order) and pruning zeros.
pub fn read_triples<V, A, M>(
    text: &str,
    pair: &OpPair<V, A, M>,
    parse: impl Fn(&str) -> Option<V>,
) -> Result<Csr<V>, ReadError>
where
    V: Value,
    A: BinaryOp<V>,
    M: BinaryOp<V>,
{
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(ReadError::BadHeader)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("%aarray") {
        return Err(ReadError::BadHeader);
    }
    let nrows: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ReadError::BadHeader)?;
    let ncols: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(ReadError::BadHeader)?;

    let mut coo = Coo::new(nrows, ncols);
    for (n, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.splitn(3, '\t');
        let r: usize = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ReadError::BadLine(n + 1))?;
        let c: usize = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ReadError::BadLine(n + 1))?;
        let vs = fields.next().ok_or(ReadError::BadLine(n + 1))?;
        let v = parse(vs).ok_or(ReadError::BadValue(n + 1))?;
        if r >= nrows || c >= ncols {
            return Err(ReadError::OutOfBounds(n + 1));
        }
        coo.push(r, c, v);
    }
    Ok(coo.into_csr(pair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarray_algebra::ops::{Plus, Times};
    use aarray_algebra::values::nat::Nat;
    use aarray_algebra::values::nn::NN;

    fn pt() -> OpPair<Nat, Plus, Times> {
        OpPair::new()
    }

    fn sample() -> Csr<Nat> {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 1, Nat(5));
        coo.push(1, 2, Nat(7));
        coo.into_csr(&pt())
    }

    #[test]
    fn roundtrip() {
        let a = sample();
        let text = write_triples(&a, |v| v.0.to_string());
        let b = read_triples(&text, &pt(), |s| s.parse().ok().map(Nat)).expect("parses");
        assert_eq!(a, b);
    }

    #[test]
    fn serialized_layout() {
        let text = write_triples(&sample(), |v| v.0.to_string());
        assert_eq!(text, "%aarray 2 3\n0\t1\t5\n1\t2\t7\n");
    }

    #[test]
    fn float_values_roundtrip() {
        let pair: OpPair<NN, Plus, Times> = OpPair::new();
        let mut coo = Coo::new(1, 2);
        coo.push(0, 0, NN::new(2.5).unwrap());
        coo.push(0, 1, NN::INF);
        let a = coo.into_csr(&pair);
        let text = write_triples(&a, |v| {
            if v.is_infinite() {
                "inf".to_string()
            } else {
                v.get().to_string()
            }
        });
        let b = read_triples(&text, &pair, |s| {
            if s == "inf" {
                Some(NN::INF)
            } else {
                s.parse::<f64>().ok().and_then(NN::new)
            }
        })
        .expect("parses");
        assert_eq!(a, b);
    }

    #[test]
    fn negative_zero_is_read_as_positive_zero() {
        // Under min.+ a zero weight is stored (the pair's zero is ∞).
        let pair: OpPair<NN, aarray_algebra::ops::Min, Plus> = OpPair::new();
        let a = read_triples("%aarray 1 1\n0\t0\t-0.0\n", &pair, |s| {
            s.parse::<f64>().ok().and_then(NN::new)
        })
        .expect("parses");
        assert_eq!(a.get(0, 0).map(|v| v.get().to_bits()), Some(0));
    }

    #[test]
    fn errors() {
        let pair = pt();
        let p = |s: &str| s.parse().ok().map(Nat);
        assert_eq!(read_triples("", &pair, p), Err(ReadError::BadHeader));
        assert_eq!(
            read_triples("%wrong 1 1\n", &pair, p),
            Err(ReadError::BadHeader)
        );
        assert_eq!(
            read_triples("%aarray 1 1\nnot\ta\tline?", &pair, p),
            Err(ReadError::BadLine(2))
        );
        assert_eq!(
            read_triples("%aarray 1 1\n0\t0\tnotanumber", &pair, p),
            Err(ReadError::BadValue(2))
        );
        assert_eq!(
            read_triples("%aarray 1 1\n0\t5\t3", &pair, p),
            Err(ReadError::OutOfBounds(2))
        );
        assert!(ReadError::BadHeader.to_string().contains("header"));
    }

    #[test]
    fn duplicates_combine_on_read() {
        let text = "%aarray 1 1\n0\t0\t3\n0\t0\t4\n";
        let a = read_triples(text, &pt(), |s| s.parse().ok().map(Nat)).unwrap();
        assert_eq!(a.get(0, 0), Some(&Nat(7)));
    }
}
