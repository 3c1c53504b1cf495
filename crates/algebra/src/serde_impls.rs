//! Serde support (feature `serde`) — with **validated
//! deserialization**: the float-backed value types re-check their
//! domain invariants on the way in, so a hostile or corrupted document
//! cannot smuggle a `NaN`, a negative `NN`, or an out-of-range `Unit`
//! into the algebra (which would silently break the total orders the
//! lattice pairs rely on).
//!
//! Integer-backed types serialize as their raw representation; modular
//! and bounded types re-normalize/validate on deserialization.

use crate::values::bstr::BStr;
use crate::values::chain::Chain;
use crate::values::nat::Nat;
use crate::values::nn::NN;
use crate::values::powerset::PowerSet;
use crate::values::tropical::Tropical;
use crate::values::unit::Unit;
use crate::values::wordset::WordSet;
use crate::values::zn::Zn;
use serde::de::Error as DeError;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

impl Serialize for Nat {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(s)
    }
}

impl<'de> Deserialize<'de> for Nat {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Nat(u64::deserialize(d)?))
    }
}

/// Infinity-capable float representation: JSON (and several other
/// formats) cannot encode `±∞` as a number, so infinities round-trip
/// as the strings `"inf"` / `"-inf"`.
#[derive(Serialize, Deserialize)]
#[serde(untagged)]
enum FloatRepr {
    Num(f64),
    Tag(String),
}

impl FloatRepr {
    fn encode(x: f64) -> FloatRepr {
        if x == f64::INFINITY {
            FloatRepr::Tag("inf".to_string())
        } else if x == f64::NEG_INFINITY {
            FloatRepr::Tag("-inf".to_string())
        } else {
            FloatRepr::Num(x)
        }
    }

    fn decode<E: DeError>(self) -> Result<f64, E> {
        match self {
            FloatRepr::Num(x) => Ok(x),
            FloatRepr::Tag(t) if t == "inf" => Ok(f64::INFINITY),
            FloatRepr::Tag(t) if t == "-inf" => Ok(f64::NEG_INFINITY),
            FloatRepr::Tag(t) => Err(E::custom(format!("unknown float tag {:?}", t))),
        }
    }
}

impl Serialize for NN {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        FloatRepr::encode(self.get()).serialize(s)
    }
}

impl<'de> Deserialize<'de> for NN {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let x = FloatRepr::deserialize(d)?.decode()?;
        NN::new(x).ok_or_else(|| D::Error::custom(format!("NN out of domain: {}", x)))
    }
}

impl Serialize for Tropical {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        FloatRepr::encode(self.get()).serialize(s)
    }
}

impl<'de> Deserialize<'de> for Tropical {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let x = FloatRepr::deserialize(d)?.decode()?;
        Tropical::new(x).ok_or_else(|| D::Error::custom(format!("Tropical out of domain: {}", x)))
    }
}

impl Serialize for Unit {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.get().serialize(s)
    }
}

impl<'de> Deserialize<'de> for Unit {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let x = f64::deserialize(d)?;
        Unit::new(x).ok_or_else(|| D::Error::custom(format!("Unit out of [0,1]: {}", x)))
    }
}

impl<const N: u64> Serialize for Zn<N> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.get().serialize(s)
    }
}

impl<'de, const N: u64> Deserialize<'de> for Zn<N> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        // Re-normalizing is the honest move for residues.
        Ok(Zn::new(u64::deserialize(d)?))
    }
}

impl<const N: u32> Serialize for Chain<N> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.get().serialize(s)
    }
}

impl<'de, const N: u32> Deserialize<'de> for Chain<N> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = u32::deserialize(d)?;
        Chain::new(v).ok_or_else(|| D::Error::custom(format!("Chain<{}> out of range: {}", N, v)))
    }
}

impl<const N: u8> Serialize for PowerSet<N> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.bits().serialize(s)
    }
}

impl<'de, const N: u8> Deserialize<'de> for PowerSet<N> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        // Out-of-universe bits are masked (same as from_bits).
        Ok(PowerSet::from_bits(u16::deserialize(d)?))
    }
}

impl Serialize for BStr {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        // ⊥/⊤ use sentinel strings that cannot collide with Word
        // contents thanks to the tag.
        match self {
            BStr::Bot => ("bot", "").serialize(s),
            BStr::Word(w) => ("word", w.as_str()).serialize(s),
            BStr::Top => ("top", "").serialize(s),
        }
    }
}

impl<'de> Deserialize<'de> for BStr {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (tag, body) = <(String, String)>::deserialize(d)?;
        match tag.as_str() {
            "bot" => Ok(BStr::Bot),
            "word" => Ok(BStr::Word(body)),
            "top" => Ok(BStr::Top),
            other => Err(D::Error::custom(format!("unknown BStr tag {:?}", other))),
        }
    }
}

impl Serialize for WordSet {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            WordSet::All => None::<Vec<String>>.serialize(s),
            WordSet::Some(set) => Some(set.iter().cloned().collect::<Vec<String>>()).serialize(s),
        }
    }
}

impl<'de> Deserialize<'de> for WordSet {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match Option::<Vec<String>>::deserialize(d)? {
            None => Ok(WordSet::All),
            Some(words) => Ok(WordSet::of(words)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::nn::nn;
    use crate::values::unit::unit;

    fn roundtrip<T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug>(v: T) {
        let text = serde_json::to_string(&v).expect("serialize");
        let back: T = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Nat(42));
        roundtrip(nn(2.5));
        roundtrip(NN::INF);
        roundtrip(Tropical::NEG_INF);
        roundtrip(unit(0.75));
        roundtrip(Zn::<6>::new(5));
        roundtrip(Chain::<9>::new(3).unwrap());
        roundtrip(PowerSet::<4>::from_elems(&[0, 2]));
        roundtrip(BStr::word("hello"));
        roundtrip(BStr::Top);
        roundtrip(WordSet::of(["a", "b"]));
        roundtrip(WordSet::All);
    }

    #[test]
    fn hostile_documents_are_rejected() {
        assert!(serde_json::from_str::<NN>("-1.0").is_err());
        assert!(serde_json::from_str::<NN>("null").is_err());
        assert!(serde_json::from_str::<Unit>("1.5").is_err());
        assert!(serde_json::from_str::<Chain<3>>("9").is_err());
        assert!(serde_json::from_str::<BStr>("[\"evil\",\"x\"]").is_err());
    }

    #[test]
    fn negative_zero_arrives_as_positive_zero() {
        let z: NN = serde_json::from_str("-0.0").unwrap();
        assert_eq!(z.get().to_bits(), 0);
    }

    #[test]
    fn zn_renormalizes() {
        let z: Zn<6> = serde_json::from_str("13").unwrap();
        assert_eq!(z, Zn::<6>::new(1));
    }

    #[test]
    fn powerset_masks_foreign_bits() {
        let p: PowerSet<2> = serde_json::from_str("15").unwrap();
        assert_eq!(p.bits(), 0b11);
    }
}
