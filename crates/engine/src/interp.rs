//! Tree-walking interpreter for IFAQ expressions and programs.
//!
//! The interpreter implements the reference semantics of the core language
//! over boxed [`Value`]s: `Σ` folds the body values with ring addition
//! (empty sums yield the adjoined zero), `λ` builds dictionaries,
//! dictionary application on a missing key yields zero (views behave as
//! sparse tensors), and iteration over a dictionary ranges over its keys.
//!
//! Programs additionally bind two builtin loop variables: `_iter` (number
//! of completed iterations) and `_prev` (the loop variable's value at the
//! start of the current iteration) — the concrete rendering of the paper's
//! `not converged` condition.
//!
//! Access paths are evaluated by reference: a variable followed by any
//! chain of field steps (`memo.f.g`, or `r[`f`]` with a field-name key)
//! is resolved in place inside the environment, and only the value at
//! the end of the path is copied. The same in-place resolution serves
//! every operand that is only read — the base of an application or a
//! field access, the argument of `dom`, a collection iterated by `Σ` or
//! `λ` — so reading one entry of a large record or relation never copies
//! the rest of it. A path that does not resolve is evaluated by value
//! instead, so its error is the by-value evaluator's.

use ifaq_ir::{BinOp, CmpOp, Const, Expr, Program, Sym, UnOp};
use ifaq_storage::value::{EvalError, VResult};
use ifaq_storage::{Dict, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Variable environment.
pub type Env = BTreeMap<Sym, Value>;

/// Numerically stable logistic function: branches on the sign of `x` so
/// `exp` is only ever called on non-positive arguments and can never
/// overflow. Exact at the extremes (`σ(1000) = 1`, `σ(-1000) = 0`) and
/// monotone everywhere; shared by the interpreter's `UnOp::Sigmoid` and
/// the `ifaq_ml` logistic-regression learners.
#[inline]
pub fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The interpreter. Stateless; exists to hang configuration on later
/// (e.g. iteration limits).
#[derive(Debug, Default, Clone)]
pub struct Interpreter {
    /// Safety limit on `while` iterations (guards non-terminating
    /// conditions in tests). `None` = unlimited.
    pub max_iterations: Option<u64>,
}

/// Evaluates an expression under an environment.
pub fn eval_expr(env: &Env, e: &Expr) -> VResult {
    Interpreter::default().eval(env, e)
}

/// Evaluates a program under an environment.
pub fn eval_program(env: &Env, p: &Program) -> VResult {
    Interpreter::default().run(env, p)
}

impl Interpreter {
    /// Creates an interpreter with an iteration safety limit.
    pub fn with_max_iterations(max: u64) -> Self {
        Interpreter {
            max_iterations: Some(max),
        }
    }

    /// The place resolver: the value of `e` in place inside `env` when
    /// `e` is an access path — a variable, then any chain of `.f` and
    /// `[`f`]` steps whose keys are field names (static, or a variable
    /// bound to one). `None` for every other expression and for every
    /// path that does not resolve (unbound variable, missing field,
    /// field access on a non-record, wrong variant tag); the caller then
    /// evaluates `e` by value, which reports the error. Evaluates
    /// nothing and allocates nothing on success.
    fn eval_ref<'a>(&self, env: &'a Env, e: &Expr) -> Option<&'a Value> {
        match e {
            Expr::Var(x) => env.get(x),
            Expr::Field(a, n) => self.eval_ref(env, a)?.field_ref(n).ok(),
            Expr::FieldDyn(a, k) => {
                let key = match &**k {
                    Expr::Const(Const::Field(f)) => f,
                    k => match self.eval_ref(env, k)? {
                        Value::Field(f) => f,
                        _ => return None,
                    },
                };
                self.eval_ref(env, a)?.field_ref(key).ok()
            }
            _ => None,
        }
    }

    /// `e` resolved in place when it is an access path ([`Self::eval_ref`]),
    /// else evaluated by value — for operands that are only read (the base
    /// of a field access or application, a `dom`, a collection iterated).
    fn eval_base<'a>(&self, env: &'a Env, e: &Expr) -> Result<Cow<'a, Value>, EvalError> {
        match self.eval_ref(env, e) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => self.eval(env, e).map(Cow::Owned),
        }
    }

    /// Evaluates `e` under `env`.
    pub fn eval(&self, env: &Env, e: &Expr) -> VResult {
        match e {
            Expr::Const(c) => Ok(match c {
                Const::Int(i) => Value::Int(*i),
                Const::Real(r) => Value::Real(*r),
                Const::Bool(b) => Value::Bool(*b),
                Const::Str(s) => Value::str(s),
                Const::Field(f) => Value::Field(f.clone()),
            }),
            Expr::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("unbound variable `{x}`"))),
            Expr::Add(a, b) => self.eval(env, a)?.add(&self.eval(env, b)?),
            Expr::Mul(a, b) => self.eval(env, a)?.mul(&self.eval(env, b)?),
            Expr::Neg(a) => self.eval(env, a)?.neg(),
            Expr::Bin(op, a, b) => {
                let va = self.eval(env, a)?;
                let vb = self.eval(env, b)?;
                self.eval_bin(*op, &va, &vb)
            }
            Expr::Un(op, a) => {
                let v = self.eval(env, a)?;
                self.eval_un(*op, &v)
            }
            Expr::Sum { var, coll, body } => {
                let collection = self.eval_base(env, coll)?;
                let mut acc = Value::zero();
                let mut env2 = env.clone();
                for item in iterate(&collection)? {
                    env2.insert(var.clone(), item);
                    let v = self.eval(&env2, body)?;
                    acc = acc.add(&v)?;
                }
                Ok(acc)
            }
            Expr::DictComp { var, dom, body } => {
                let domain = self.eval_base(env, dom)?;
                let mut out = Dict::new();
                let mut env2 = env.clone();
                for key in iterate(&domain)? {
                    env2.insert(var.clone(), key.clone());
                    let v = self.eval(&env2, body)?;
                    out.insert(key, v);
                }
                Ok(Value::Dict(out))
            }
            Expr::DictLit(kvs) => {
                let mut out = Dict::new();
                for (k, v) in kvs {
                    let kv = self.eval(env, k)?;
                    let vv = self.eval(env, v)?;
                    out.insert_add(kv, vv)?;
                }
                Ok(Value::Dict(out))
            }
            Expr::SetLit(es) => {
                let mut out = std::collections::BTreeSet::new();
                for item in es {
                    out.insert(self.eval(env, item)?);
                }
                Ok(Value::Set(out))
            }
            Expr::Dom(a) => match &*self.eval_base(env, a)? {
                Value::Dict(d) => Ok(Value::Set(d.domain())),
                other => Err(EvalError::new(format!("dom() of {}", other.kind()))),
            },
            Expr::Apply(f, k) => {
                // Look up in place — cloning a relation per application
                // would make every aggregate quadratic.
                let fv = self.eval_base(env, f)?;
                let kv = self.eval(env, k)?;
                match &*fv {
                    Value::Dict(d) => Ok(d.get_or_zero(&kv)),
                    other => Err(EvalError::new(format!(
                        "application of {} (not a dictionary)",
                        other.kind()
                    ))),
                }
            }
            Expr::Record(fs) => {
                let mut fields = Vec::with_capacity(fs.len());
                for (n, fe) in fs {
                    fields.push((n.clone(), self.eval(env, fe)?));
                }
                Ok(Value::record(fields))
            }
            Expr::Variant(n, a) => Ok(Value::Variant(n.clone(), Box::new(self.eval(env, a)?))),
            Expr::Field(a, n) => self.eval_base(env, a)?.get_field(n),
            Expr::FieldDyn(a, k) => {
                let base = self.eval_base(env, a)?;
                let key = self.eval(env, k)?;
                match (&*base, &key) {
                    (_, Value::Field(f)) => base.get_field(f),
                    (Value::Dict(d), _) => Ok(d.get_or_zero(&key)),
                    _ => Err(EvalError::new(format!(
                        "dynamic access with {} key on {}",
                        key.kind(),
                        base.kind()
                    ))),
                }
            }
            Expr::Let { var, val, body } => {
                let v = self.eval(env, val)?;
                let mut env2 = env.clone();
                env2.insert(var.clone(), v);
                self.eval(&env2, body)
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(env, cond)?;
                match c.as_bool() {
                    Some(true) => self.eval(env, then),
                    Some(false) => self.eval(env, els),
                    None => Err(EvalError::new(format!(
                        "condition evaluated to {}",
                        c.kind()
                    ))),
                }
            }
        }
    }

    fn eval_bin(&self, op: BinOp, a: &Value, b: &Value) -> VResult {
        match op {
            BinOp::Sub => a.sub(b),
            BinOp::Div => a.div(b),
            BinOp::And => match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => Ok(Value::Bool(x && y)),
                _ => Err(EvalError::new("&& on non-booleans")),
            },
            BinOp::Or => match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => Ok(Value::Bool(x || y)),
                _ => Err(EvalError::new("|| on non-booleans")),
            },
            BinOp::Min | BinOp::Max => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let keep_a = if op == BinOp::Min { x <= y } else { x >= y };
                    Ok(if keep_a { a.clone() } else { b.clone() })
                }
                _ => Err(EvalError::new("min/max on non-numerics")),
            },
            BinOp::Cmp(c) => self.eval_cmp(c, a, b),
        }
    }

    fn eval_cmp(&self, op: CmpOp, a: &Value, b: &Value) -> VResult {
        // Numeric comparison when both sides are numeric; structural
        // comparison otherwise (strings, fields, records as keys).
        let ord = match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x
                .partial_cmp(&y)
                .ok_or_else(|| EvalError::new("NaN comparison"))?,
            _ => a.cmp(b),
        };
        use std::cmp::Ordering::*;
        Ok(Value::Bool(match op {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }))
    }

    fn eval_un(&self, op: UnOp, v: &Value) -> VResult {
        match op {
            UnOp::Not => v
                .as_bool()
                .map(|b| Value::Bool(!b))
                .ok_or_else(|| EvalError::new("not() on non-boolean")),
            _ => {
                let x = v
                    .as_f64()
                    .ok_or_else(|| EvalError::new(format!("{op:?} on {}", v.kind())))?;
                Ok(match op {
                    UnOp::Abs => Value::real(x.abs()),
                    UnOp::Sqrt => Value::real(x.sqrt()),
                    UnOp::Log => Value::real(x.ln()),
                    UnOp::Exp => Value::real(x.exp()),
                    UnOp::Sigmoid => Value::real(stable_sigmoid(x)),
                    UnOp::Not => unreachable!(),
                })
            }
        }
    }

    /// Runs a program: evaluates the bindings, the initializer, then
    /// iterates the loop while the condition holds.
    pub fn run(&self, env: &Env, p: &Program) -> VResult {
        let mut env = env.clone();
        for (name, e) in &p.lets {
            let v = self.eval(&env, e)?;
            env.insert(name.clone(), v);
        }
        let mut state = self.eval(&env, &p.init)?;
        // `_prev` is the state before the most recent step (equal to the
        // initializer before the first step), so `x == _prev` expresses
        // convergence.
        let mut prev = state.clone();
        let mut iter: u64 = 0;
        loop {
            if let Some(max) = self.max_iterations {
                if iter >= max {
                    break;
                }
            }
            let mut loop_env = env.clone();
            loop_env.insert(p.var.clone(), state.clone());
            loop_env.insert(Sym::new("_iter"), Value::Int(iter as i64));
            loop_env.insert(Sym::new("_prev"), prev.clone());
            let cond = self.eval(&loop_env, &p.cond)?;
            match cond.as_bool() {
                Some(true) => {
                    prev = state;
                    state = self.eval(&loop_env, &p.step)?;
                    iter += 1;
                }
                Some(false) => break,
                None => return Err(EvalError::new("loop condition is not a boolean")),
            }
        }
        let mut final_env = env;
        final_env.insert(p.var.clone(), state);
        final_env.insert(Sym::new("_iter"), Value::Int(iter as i64));
        self.eval(&final_env, &p.result)
    }
}

/// Iterates a collection value: set elements or dictionary keys.
fn iterate(v: &Value) -> Result<Vec<Value>, EvalError> {
    match v {
        Value::Set(s) => Ok(s.iter().cloned().collect()),
        Value::Dict(d) => Ok(d.keys().cloned().collect()),
        other => Err(EvalError::new(format!("iteration over {}", other.kind()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifaq_ir::parser::{parse_expr, parse_program};
    use ifaq_storage::relation::running_example_db;

    fn eval(src: &str) -> Value {
        eval_expr(&Env::new(), &parse_expr(src).unwrap()).unwrap()
    }

    fn eval_in(env: &Env, src: &str) -> Value {
        eval_expr(env, &parse_expr(src).unwrap()).unwrap()
    }

    fn db_env() -> Env {
        running_example_db().to_env().unwrap().into_iter().collect()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("(1 + 2) * 3.0"), Value::real(9.0));
        assert_eq!(eval("7 - 2 - 1"), Value::Int(4));
        assert_eq!(eval("3 / 2"), Value::real(1.5));
        assert_eq!(eval("1 < 2"), Value::Bool(true));
        assert_eq!(eval("2 <= 2 && 3 != 4"), Value::Bool(true));
        assert_eq!(eval("min(3, 1 + 1)"), Value::Int(2));
        assert_eq!(eval("max(3.5, 2.0)"), Value::real(3.5));
        assert_eq!(eval("-(2 + 3)"), Value::Int(-5));
    }

    #[test]
    fn unary_operators() {
        assert_eq!(eval("abs(-3.0)"), Value::real(3.0));
        assert_eq!(eval("sqrt(9.0)"), Value::real(3.0));
        assert_eq!(eval("not(1 > 2)"), Value::Bool(true));
        assert_eq!(eval("sigmoid(0.0)"), Value::real(0.5));
    }

    #[test]
    fn sigmoid_is_stable_at_extreme_arguments() {
        // ±1e3 would overflow a naive `exp(-x)` on the negative side
        // (`exp(1000) = inf`); the sign-branched form never calls `exp`
        // on a positive argument.
        assert_eq!(eval("sigmoid(1000.0)"), Value::real(1.0));
        assert_eq!(eval("sigmoid(-1000.0)"), Value::real(0.0));
        assert_eq!(stable_sigmoid(1e3), 1.0);
        assert_eq!(stable_sigmoid(-1e3), 0.0);
        assert_eq!(stable_sigmoid(0.0), 0.5);
        for x in [-1e3, -50.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 50.0, 1e3] {
            let s = stable_sigmoid(x);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "σ({x}) = {s}");
            // σ(x) + σ(-x) = 1 (the symmetry the two branches must share).
            assert!((s + stable_sigmoid(-x) - 1.0).abs() < 1e-15, "σ({x})");
        }
        // Monotone across the branch point.
        assert!(stable_sigmoid(-1e-12) <= stable_sigmoid(0.0));
        assert!(stable_sigmoid(0.0) <= stable_sigmoid(1e-12));
    }

    #[test]
    fn let_if_and_records() {
        assert_eq!(eval("let x = 4 in x * x"), Value::Int(16));
        assert_eq!(eval("if 1 < 2 then 10 else 20"), Value::Int(10));
        assert_eq!(eval("{a = 1, b = 2.5}.b"), Value::real(2.5));
        assert_eq!(eval("{a = 1}[`a`]"), Value::Int(1));
        assert_eq!(eval("<t = 9>.t"), Value::Int(9));
    }

    #[test]
    fn collections() {
        assert_eq!(eval("sum(x in [|1, 2, 3|]) x * x"), Value::Int(14));
        assert_eq!(eval("sum(x in [||]) x"), Value::zero());
        assert_eq!(eval("{|`a` -> 1, `b` -> 2|}(`b`)"), Value::Int(2));
        // Missing key yields zero (sparse semantics).
        assert_eq!(eval("{|`a` -> 1|}(`zz`)"), Value::zero());
        // dom() of a dict is its key set; sums iterate it.
        assert_eq!(eval("sum(k in dom({|1 -> 5, 2 -> 7|})) k"), Value::Int(3));
        // Iterating a dict directly also ranges over keys.
        assert_eq!(eval("sum(k in {|1 -> 5, 2 -> 7|}) k"), Value::Int(3));
    }

    #[test]
    fn dict_comprehension() {
        let v = eval("dict(f in [|`a`, `b`|]) 0.5");
        match v {
            Value::Dict(d) => {
                assert_eq!(d.len(), 2);
                assert_eq!(d.get(&Value::Field(Sym::new("a"))), Some(&Value::real(0.5)));
            }
            _ => panic!("expected dict"),
        }
    }

    #[test]
    fn duplicate_dict_literal_keys_accumulate() {
        assert_eq!(eval("{|1 -> 2, 1 -> 3|}(1)"), Value::Int(5));
    }

    #[test]
    fn sum_over_relation_counts_multiplicity() {
        let env = db_env();
        // Σ_{x∈dom(S)} S(x) = total multiplicity = 5 rows.
        assert_eq!(eval_in(&env, "sum(x in dom(S)) S(x)"), Value::Int(5));
        // Σ units over S.
        assert_eq!(
            eval_in(&env, "sum(x in dom(S)) S(x) * x.units"),
            Value::real(28.0)
        );
    }

    #[test]
    fn join_query_materializes_like_example_47() {
        let env = db_env();
        // Example 4.7's Q as nested sums of singleton dictionaries.
        let q = "sum(xs in dom(S)) sum(xr in dom(R)) sum(xi in dom(I)) \
                 {|{i = xs.item, s = xs.store, c = xr.city, p = xi.price} -> \
                   S(xs) * R(xr) * I(xi) * (xs.item == xi.item) * (xs.store == xr.store)|}";
        let v = eval_in(&env, q);
        match &v {
            Value::Dict(d) => {
                // 5 sales rows, each with exactly one matching store & item.
                assert_eq!(d.len(), 5);
                assert!(d.values().all(|m| *m == Value::Int(1)));
            }
            _ => panic!("expected dict"),
        }
        // Covar entry over the join: Σ Q(x)·c·p.
        let mut env2 = env.clone();
        env2.insert(Sym::new("Q"), v);
        let m_cp = eval_in(&env2, "sum(x in dom(Q)) Q(x) * x.c * x.p");
        // Hand-computed: rows (c,p): (100,1.5),(200,1.5),(100,2.5),(200,3.5),(200,2.5)
        let expected = 100.0 * 1.5 + 200.0 * 1.5 + 100.0 * 2.5 + 200.0 * 3.5 + 200.0 * 2.5;
        assert_eq!(m_cp, Value::real(expected));
    }

    #[test]
    fn program_loop_with_builtins() {
        let p = parse_program("acc := 0;\nwhile (_iter < 5) { acc := acc + _iter }\nacc").unwrap();
        // 0+0+1+2+3+4 = 10.
        assert_eq!(eval_program(&Env::new(), &p).unwrap(), Value::Int(10));
    }

    #[test]
    fn program_prev_binding() {
        // Stop when the state stops changing (reaches the fixpoint 8).
        let p = parse_program(
            "x := 1;\nwhile (_iter < 100 && not(x == _prev) || _iter == 0) \
             { x := min(x * 2, 8) }\nx",
        )
        .unwrap();
        assert_eq!(eval_program(&Env::new(), &p).unwrap(), Value::Int(8));
    }

    #[test]
    fn max_iterations_guard() {
        let p = parse_program("x := 0;\nwhile (true) { x := x + 1 }\nx").unwrap();
        let interp = Interpreter::with_max_iterations(7);
        assert_eq!(interp.run(&Env::new(), &p).unwrap(), Value::Int(7));
    }

    #[test]
    fn errors_are_reported() {
        assert!(eval_expr(&Env::new(), &parse_expr("nope").unwrap()).is_err());
        assert!(eval_expr(&Env::new(), &parse_expr("1(2)").unwrap()).is_err());
        assert!(eval_expr(&Env::new(), &parse_expr("sum(x in 3) x").unwrap()).is_err());
        assert!(eval_expr(&Env::new(), &parse_expr("if 3 then 1 else 2").unwrap()).is_err());
    }

    fn eval_err(src: &str) -> String {
        eval_expr(&Env::new(), &parse_expr(src).unwrap())
            .unwrap_err()
            .message
    }

    #[test]
    fn nested_field_path_resolves_in_place() {
        assert_eq!(eval("let r = {a = {b = 2.0}} in r.a.b"), Value::real(2.0));
        // The resolver hands back the leaf inside the environment itself.
        let mut env = Env::new();
        env.insert(
            Sym::new("r"),
            Value::record([("a", Value::record([("b", Value::real(2.0))]))]),
        );
        let leaf = env[&Sym::new("r")]
            .field_ref(&Sym::new("a"))
            .and_then(|a| a.field_ref(&Sym::new("b")))
            .unwrap();
        let path = parse_expr("r.a.b").unwrap();
        let resolved = Interpreter::default().eval_ref(&env, &path).unwrap();
        assert!(std::ptr::eq(resolved, leaf));
    }

    #[test]
    fn variant_field_path_and_wrong_tag() {
        assert_eq!(eval("let v = {w = <t = 9>} in v.w.t"), Value::Int(9));
        assert_eq!(
            eval_err("let v = {w = <t = 9>} in v.w.u"),
            "variant has tag `t`, not `u`"
        );
    }

    #[test]
    fn path_errors_match_by_value_evaluation() {
        assert_eq!(
            eval_err("let r = {a = {b = 1}} in r.a.x"),
            "no field `x` in record"
        );
        assert_eq!(
            eval_err("let r = {a = 1.5} in r.a.b"),
            "field access on real"
        );
        assert_eq!(eval_err("{a = {b = 1}}.a.x"), "no field `x` in record");
        assert_eq!(eval_err("(1.5).b"), "field access on real");
        assert_eq!(eval_err("r.a"), "unbound variable `r`");
        assert_eq!(eval_err("let r = {a = 1} in r[k]"), "unbound variable `k`");
    }

    #[test]
    fn field_dyn_with_field_key_resolves_in_place() {
        assert_eq!(
            eval("let r = {a = 1, b = {c = 3.5}} in r[`b`][`c`]"),
            Value::real(3.5)
        );
        assert_eq!(
            eval("let r = {a = 1, b = {c = 3.5}} in let k = `b` in r[k].c"),
            Value::real(3.5)
        );
        assert_eq!(
            eval_err("let r = {a = 1} in r[`z`]"),
            "no field `z` in record"
        );
        // A non-field key on a dictionary is a lookup, not a path step.
        assert_eq!(
            eval("let r = {d = {|1 -> 5|}} in r.d[1] + r.d[2]"),
            Value::Int(5)
        );
    }

    #[test]
    fn apply_over_nested_path() {
        assert_eq!(
            eval("let r = {a = {d = {|1 -> 5|}}} in r.a.d(1)"),
            Value::Int(5)
        );
        assert_eq!(
            eval("let r = {a = {d = {|1 -> 5|}}} in r.a.d(2)"),
            Value::zero()
        );
        assert_eq!(
            eval("let r = {a = {d = {|1 -> 5|}}} in sum(k in dom(r.a.d)) k"),
            Value::Int(1)
        );
    }

    #[test]
    fn program_lets_bind_in_order() {
        let p = parse_program("let a = 2; let b = a * 3; b + a").unwrap();
        assert_eq!(eval_program(&Env::new(), &p).unwrap(), Value::Int(8));
    }
}
