//! Boxed runtime values with IFAQ ring semantics.

use crate::dict::Dict;
use ifaq_ir::{Sym, R};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A dynamically-typed runtime value.
///
/// `Value` implements the semantics of the IFAQ core language operators:
/// ring addition and multiplication ([`Value::add`], [`Value::mul`],
/// [`Value::neg`]) are total over the "addable" fragment and return an
/// [`EvalError`] elsewhere.
///
/// Records keep their fields sorted by name so that structurally equal
/// records compare equal regardless of construction order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Real (with total order via [`ifaq_ir::R`]).
    Real(R),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(Arc<str>),
    /// A field-name value.
    Field(Sym),
    /// Record with name-sorted fields.
    Record(Vec<(Sym, Value)>),
    /// Variant: a single tagged value.
    Variant(Sym, Box<Value>),
    /// Ordered set.
    Set(BTreeSet<Value>),
    /// Ordered dictionary.
    Dict(Dict),
}

/// An error produced by evaluating an ill-typed operation at runtime —
/// D-IFAQ's dynamic counterpart of [`ifaq_ir::TypeError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> Self {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Result alias for value operations.
pub type VResult = Result<Value, EvalError>;

impl Value {
    /// Real value helper.
    pub fn real(v: f64) -> Value {
        Value::Real(R(v))
    }

    /// String value helper.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Record constructor that sorts fields by name.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Sym>,
    {
        let mut fs: Vec<(Sym, Value)> = fields.into_iter().map(|(n, v)| (n.into(), v)).collect();
        fs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Record(fs)
    }

    /// The additive identity adjoined to every type: integer zero. `add`
    /// treats it as the identity for all operand types, so an empty `Σ`
    /// can produce it regardless of the body type.
    pub fn zero() -> Value {
        Value::Int(0)
    }

    /// True for `Int(0)` and `Real(0.0)`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Value::Int(0)) || *self == Value::real(0.0)
    }

    /// Numeric view of `Int`/`Real`/`Bool` (booleans embed as 0/1, which is
    /// how the paper's δ guard conditions multiply into aggregates).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(r.0),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Record field access: a copy of the field's value (of the payload,
    /// for a variant whose tag is `name`).
    pub fn get_field(&self, name: &Sym) -> VResult {
        self.field_ref(name).cloned()
    }

    /// [`Value::get_field`] by reference: the field's value in place,
    /// with the same errors.
    pub fn field_ref(&self, name: &Sym) -> Result<&Value, EvalError> {
        match self {
            Value::Record(fs) => fs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .ok_or_else(|| EvalError::new(format!("no field `{name}` in record"))),
            Value::Variant(n, v) => {
                if n == name {
                    Ok(v)
                } else {
                    Err(EvalError::new(format!(
                        "variant has tag `{n}`, not `{name}`"
                    )))
                }
            }
            other => Err(EvalError::new(format!("field access on {}", other.kind()))),
        }
    }

    /// A short description of the value's dynamic type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Field(_) => "field",
            Value::Record(_) => "record",
            Value::Variant(..) => "variant",
            Value::Set(_) => "set",
            Value::Dict(_) => "dictionary",
        }
    }

    /// Ring addition: numeric addition, boolean or, set union, pointwise
    /// dictionary merge, pointwise record addition. [`Value::zero`] is an
    /// identity for every type.
    pub fn add(&self, other: &Value) -> VResult {
        use Value::*;
        match (self, other) {
            (Int(0), v) | (v, Int(0)) => Ok(v.clone()),
            (Int(a), Int(b)) => Ok(Int(a + b)),
            (Int(a), Real(b)) => Ok(Value::real(*a as f64 + b.0)),
            (Real(a), Int(b)) => Ok(Value::real(a.0 + *b as f64)),
            (Real(a), Real(b)) => Ok(Value::real(a.0 + b.0)),
            (Bool(a), Bool(b)) => Ok(Bool(*a || *b)),
            (Set(a), Set(b)) => Ok(Set(a.union(b).cloned().collect())),
            (Dict(a), Dict(b)) => Ok(Dict(a.merge_add(b)?)),
            (Record(a), Record(b)) => {
                if a.len() != b.len() {
                    return Err(EvalError::new("adding records with different arity"));
                }
                let mut out = Vec::with_capacity(a.len());
                for ((na, va), (nb, vb)) in a.iter().zip(b) {
                    if na != nb {
                        return Err(EvalError::new(format!(
                            "adding records with different fields `{na}` vs `{nb}`"
                        )));
                    }
                    out.push((na.clone(), va.add(vb)?));
                }
                Ok(Record(out))
            }
            (a, b) => Err(EvalError::new(format!(
                "cannot add {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// Ring multiplication: numeric product; booleans act as 0/1 guards;
    /// a scalar (numeric or boolean) scales a dictionary's values or a
    /// record's fields from either side.
    pub fn mul(&self, other: &Value) -> VResult {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => Ok(Int(a * b)),
            (Int(a), Real(b)) => Ok(Value::real(*a as f64 * b.0)),
            (Real(a), Int(b)) => Ok(Value::real(a.0 * *b as f64)),
            (Real(a), Real(b)) => Ok(Value::real(a.0 * b.0)),
            (Bool(a), Bool(b)) => Ok(Bool(*a && *b)),
            (Bool(g), v) | (v, Bool(g)) => {
                if *g {
                    Ok(v.clone())
                } else {
                    Ok(v.zero_like())
                }
            }
            (s @ (Int(_) | Real(_)), Dict(d)) | (Dict(d), s @ (Int(_) | Real(_))) => {
                Ok(Dict(d.scale(s)?))
            }
            (s @ (Int(_) | Real(_)), Record(fs)) | (Record(fs), s @ (Int(_) | Real(_))) => {
                let mut out = Vec::with_capacity(fs.len());
                for (n, v) in fs {
                    out.push((n.clone(), s.mul(v)?));
                }
                Ok(Record(out))
            }
            (a, b) => Err(EvalError::new(format!(
                "cannot multiply {} and {}",
                a.kind(),
                b.kind()
            ))),
        }
    }

    /// A zero of the same shape as `self` (used when a boolean guard is
    /// false).
    pub fn zero_like(&self) -> Value {
        use Value::*;
        match self {
            Int(_) => Int(0),
            Real(_) => Value::real(0.0),
            Bool(_) => Bool(false),
            Set(_) => Set(BTreeSet::new()),
            Dict(_) => Dict(crate::dict::Dict::new()),
            Record(fs) => Record(fs.iter().map(|(n, v)| (n.clone(), v.zero_like())).collect()),
            other => other.clone(),
        }
    }

    /// Ring negation.
    pub fn neg(&self) -> VResult {
        match self {
            Value::Int(a) => Ok(Value::Int(-a)),
            Value::Real(a) => Ok(Value::real(-a.0)),
            Value::Record(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for (n, v) in fs {
                    out.push((n.clone(), v.neg()?));
                }
                Ok(Value::Record(out))
            }
            Value::Dict(d) => {
                let mut out = crate::dict::Dict::new();
                for (k, v) in d.iter() {
                    out.insert(k.clone(), v.neg()?);
                }
                Ok(Value::Dict(out))
            }
            other => Err(EvalError::new(format!("cannot negate {}", other.kind()))),
        }
    }

    /// Numeric subtraction (and record/dict pointwise via `add`/`neg`).
    pub fn sub(&self, other: &Value) -> VResult {
        self.add(&other.neg()?)
    }

    /// Numeric division; produces a real.
    pub fn div(&self, other: &Value) -> VResult {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::real(a / b)),
            _ => Err(EvalError::new(format!(
                "cannot divide {} by {}",
                self.kind(),
                other.kind()
            ))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{}", r.0),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Field(s) => write!(f, "`{s}`"),
            Value::Record(fs) => {
                f.write_str("{")?;
                for (i, (n, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n} = {v}")?;
                }
                f.write_str("}")
            }
            Value::Variant(n, v) => write!(f, "<{n} = {v}>"),
            Value::Set(s) => {
                f.write_str("[|")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("|]")
            }
            Value::Dict(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_ring_ops() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::real(0.5)).unwrap(),
            Value::real(2.5)
        );
        assert_eq!(Value::Int(2).mul(&Value::Int(3)).unwrap(), Value::Int(6));
        assert_eq!(Value::real(2.0).neg().unwrap(), Value::real(-2.0));
        assert_eq!(Value::Int(7).sub(&Value::Int(3)).unwrap(), Value::Int(4));
        assert_eq!(Value::Int(1).div(&Value::Int(2)).unwrap(), Value::real(0.5));
    }

    #[test]
    fn zero_is_identity_for_every_type() {
        let d = Value::Dict(Dict::from_pairs(vec![(Value::Int(1), Value::Int(2))]));
        assert_eq!(Value::zero().add(&d).unwrap(), d);
        assert_eq!(d.add(&Value::zero()).unwrap(), d);
        let s = Value::Set([Value::Int(1)].into_iter().collect());
        assert_eq!(Value::zero().add(&s).unwrap(), s);
    }

    #[test]
    fn bool_guard_multiplication() {
        let r = Value::record([("a", Value::real(3.0))]);
        assert_eq!(Value::Bool(true).mul(&r).unwrap(), r);
        assert_eq!(
            Value::Bool(false).mul(&r).unwrap(),
            Value::record([("a", Value::real(0.0))])
        );
        assert_eq!(
            Value::Bool(true).mul(&Value::Int(5)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::Bool(false).mul(&Value::Int(5)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn record_addition_is_pointwise() {
        let a = Value::record([("x", Value::Int(1)), ("y", Value::real(2.0))]);
        let b = Value::record([("y", Value::real(3.0)), ("x", Value::Int(4))]);
        assert_eq!(
            a.add(&b).unwrap(),
            Value::record([("x", Value::Int(5)), ("y", Value::real(5.0))])
        );
    }

    #[test]
    fn record_field_order_is_canonical() {
        let a = Value::record([("b", Value::Int(1)), ("a", Value::Int(2))]);
        let b = Value::record([("a", Value::Int(2)), ("b", Value::Int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn set_union() {
        let a = Value::Set([Value::Int(1), Value::Int(2)].into_iter().collect());
        let b = Value::Set([Value::Int(2), Value::Int(3)].into_iter().collect());
        match a.add(&b).unwrap() {
            Value::Set(s) => assert_eq!(s.len(), 3),
            _ => panic!("expected set"),
        }
    }

    #[test]
    fn dict_merge_adds_common_keys() {
        let a = Value::Dict(Dict::from_pairs(vec![
            (Value::Int(1), Value::Int(10)),
            (Value::Int(2), Value::Int(20)),
        ]));
        let b = Value::Dict(Dict::from_pairs(vec![
            (Value::Int(2), Value::Int(5)),
            (Value::Int(3), Value::Int(30)),
        ]));
        let merged = a.add(&b).unwrap();
        match merged {
            Value::Dict(d) => {
                assert_eq!(d.get(&Value::Int(1)), Some(&Value::Int(10)));
                assert_eq!(d.get(&Value::Int(2)), Some(&Value::Int(25)));
                assert_eq!(d.get(&Value::Int(3)), Some(&Value::Int(30)));
            }
            _ => panic!("expected dict"),
        }
    }

    #[test]
    fn scalar_scales_dict() {
        let d = Value::Dict(Dict::from_pairs(vec![(Value::Int(1), Value::real(2.0))]));
        let scaled = Value::Int(3).mul(&d).unwrap();
        match scaled {
            Value::Dict(d) => assert_eq!(d.get(&Value::Int(1)), Some(&Value::real(6.0))),
            _ => panic!("expected dict"),
        }
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(Value::str("a").add(&Value::Int(1)).is_err());
        assert!(Value::str("a").mul(&Value::str("b")).is_err());
        assert!(Value::Bool(true).neg().is_err());
        assert!(Value::str("a").div(&Value::Int(1)).is_err());
    }

    #[test]
    fn field_access() {
        let r = Value::record([("price", Value::real(9.5))]);
        assert_eq!(r.get_field(&Sym::new("price")).unwrap(), Value::real(9.5));
        assert!(r.get_field(&Sym::new("nope")).is_err());
        let v = Value::Variant(Sym::new("t"), Box::new(Value::Int(1)));
        assert_eq!(v.get_field(&Sym::new("t")).unwrap(), Value::Int(1));
        assert!(v.get_field(&Sym::new("u")).is_err());
    }

    #[test]
    fn as_f64_embeds_bools() {
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Bool(false).as_f64(), Some(0.0));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn display_is_readable() {
        let r = Value::record([("a", Value::Int(1))]);
        assert_eq!(r.to_string(), "{a = 1}");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
    }
}
