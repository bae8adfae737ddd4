//! The model (satisfaction) relation `ρ ⊨ ψ` (Fig. 8, M-rules).
//!
//! The paper proves soundness model-theoretically: a runtime environment
//! ρ *satisfies* a proposition when its assignment of values makes the
//! proposition a tautology. This module makes the relation executable so
//! the soundness lemmas become property tests:
//!
//! * Lemma 2(2): if `Γ ⊢ e : (τ; ψ₊|ψ₋; o)`, `ρ ⊨ Γ` and `ρ ⊢ e ⇓ v`,
//!   then `v ≠ false ⇒ ρ ⊨ ψ₊` and `v = false ⇒ ρ ⊨ ψ₋`;
//! * Lemma 2(3) / Theorem 1: `⊢ v : τ`;
//! * Lemma 2(1): the non-null parts of `o` evaluate to the corresponding
//!   parts of `v`.
//!
//! Satisfaction returns `Option<bool>`: `None` means the proposition
//! mentions an object ρ cannot evaluate (e.g. an existential ghost
//! variable that names an intermediate value). Test drivers treat `None`
//! as vacuously satisfied — the quantified variable denotes the value the
//! program actually computed, which is not recorded in ρ.

use crate::check::Checker;
use crate::interp::{RtEnv, Value};
use crate::syntax::{BvCmp, BvObj, Field, LinCmp, LinObj, Obj, Prop, StrObj, Ty};

/// Evaluates a symbolic object under ρ (the `ρ(o)` of M-Type/M-Alias).
pub fn eval_obj(rho: &RtEnv, o: &Obj) -> Option<Value> {
    match o {
        Obj::Null => None,
        Obj::Path(p) => {
            let mut v = rho.lookup(p.base)?;
            for f in p.fields() {
                v = match (f, v) {
                    (Field::Fst, Value::Pair(a, _)) => (*a).clone(),
                    (Field::Snd, Value::Pair(_, b)) => (*b).clone(),
                    (Field::Len, Value::Vector(vs)) => Value::Int(vs.borrow().len() as i64),
                    (Field::Len, Value::Str(s)) => Value::Int(s.chars().count() as i64),
                    _ => return None,
                };
            }
            Some(v)
        }
        Obj::Pair(a, b) => Some(Value::Pair(
            std::rc::Rc::new(eval_obj(rho, a)?),
            std::rc::Rc::new(eval_obj(rho, b)?),
        )),
        Obj::Lin(l) => eval_lin(rho, l).map(Value::Int),
        Obj::Bv(b) => eval_bv(rho, b).map(Value::Bv),
        Obj::Str(s) => Some(Value::Str(s.clone())),
        Obj::Re(r) => Some(Value::Re(r.clone())),
    }
}

fn eval_lin(rho: &RtEnv, l: &LinObj) -> Option<i64> {
    let mut acc = l.constant;
    for (c, p) in l.terms() {
        let v = eval_obj(rho, &Obj::Path(p))?;
        let Value::Int(n) = v else { return None };
        acc = acc.checked_add(c.checked_mul(n)?)?;
    }
    Some(acc)
}

const BV_MASK: u64 = 0xffff;

fn eval_bv(rho: &RtEnv, b: &BvObj) -> Option<u64> {
    Some(match b {
        BvObj::Const(v) => *v & BV_MASK,
        BvObj::Path(p) => match eval_obj(rho, &Obj::Path(*p))? {
            Value::Bv(v) => v & BV_MASK,
            _ => return None,
        },
        BvObj::Not(a) => !eval_bv(rho, a)? & BV_MASK,
        BvObj::And(a, c) => eval_bv(rho, a)? & eval_bv(rho, c)?,
        BvObj::Or(a, c) => eval_bv(rho, a)? | eval_bv(rho, c)?,
        BvObj::Xor(a, c) => eval_bv(rho, a)? ^ eval_bv(rho, c)?,
        BvObj::Add(a, c) => eval_bv(rho, a)?.wrapping_add(eval_bv(rho, c)?) & BV_MASK,
        BvObj::Sub(a, c) => eval_bv(rho, a)?.wrapping_sub(eval_bv(rho, c)?) & BV_MASK,
        BvObj::Mul(a, c) => eval_bv(rho, a)?.wrapping_mul(eval_bv(rho, c)?) & BV_MASK,
    })
}

/// `⊢ v : τ` — semantic value typing (including T-Closure, approximated
/// by re-checking the stored lambda; see module docs).
pub fn value_has_type(checker: &Checker, rho: &RtEnv, v: &Value, t: &Ty) -> bool {
    match t {
        Ty::Top => true,
        Ty::Int => matches!(v, Value::Int(_)),
        Ty::True => matches!(v, Value::Bool(true)),
        Ty::False => matches!(v, Value::Bool(false)),
        Ty::Unit => matches!(v, Value::Unit),
        Ty::BitVec => matches!(v, Value::Bv(_)),
        Ty::Str => matches!(v, Value::Str(_)),
        Ty::Regex => matches!(v, Value::Re(_)),
        Ty::Pair(a, b) => match v {
            Value::Pair(x, y) => {
                value_has_type(checker, rho, x, a) && value_has_type(checker, rho, y, b)
            }
            _ => false,
        },
        Ty::Vec(elem) => match v {
            Value::Vector(vs) => vs
                .borrow()
                .iter()
                .all(|x| value_has_type(checker, rho, x, elem)),
            _ => false,
        },
        Ty::Union(ts) => ts.iter().any(|t| value_has_type(checker, rho, v, t)),
        // M-Refine: satisfy the base type and the proposition with the
        // value substituted for the refinement variable.
        Ty::Refine(r) => {
            if !value_has_type(checker, rho, v, &r.base) {
                return false;
            }
            let ghost = crate::syntax::Symbol::fresh("model");
            let rho2 = rho.extend(ghost, v.clone());
            let prop = r.prop.subst(r.var, &Obj::var(ghost));
            satisfies(checker, &rho2, &prop).unwrap_or(true)
        }
        Ty::Fun(_) | Ty::Poly(_) => match v {
            // T-Closure: ∃Γ. ρ ⊨ Γ and Γ ⊢ λx:τ.e : R. We re-check the
            // closure's code against the expected type under an
            // environment typing its captured values.
            Value::Closure(c) => {
                let mut env = crate::env::Env::new();
                for (x, val) in c.env.bindings() {
                    let vt = type_of_value(checker, &c.env, &val, 4);
                    checker.bind(&mut env, x, &vt, checker.config.logic_fuel);
                }
                if let Some(name) = c.rec_name {
                    checker.bind(&mut env, name, t, checker.config.logic_fuel);
                }
                checker
                    .check_lambda(&env, &c.lambda, t, &|| "closure".to_owned())
                    .is_ok()
            }
            Value::Prim(p) => {
                let env = crate::env::Env::new();
                checker.subtype(&env, &crate::prims::delta(*p), t, checker.config.logic_fuel)
            }
            _ => false,
        },
        Ty::TVar(_) => false,
    }
}

/// Infers a (precise, structural) type for a runtime value; used to
/// reconstruct the Γ with ρ ⊨ Γ in T-Closure.
#[allow(clippy::only_used_in_recursion)] // signature kept uniform with value_has_type
pub fn type_of_value(checker: &Checker, rho: &RtEnv, v: &Value, depth: u32) -> Ty {
    if depth == 0 {
        return Ty::Top;
    }
    match v {
        Value::Int(_) => Ty::Int,
        Value::Bool(true) => Ty::True,
        Value::Bool(false) => Ty::False,
        Value::Bv(_) => Ty::BitVec,
        Value::Unit => Ty::Unit,
        Value::Pair(a, b) => Ty::pair(
            type_of_value(checker, rho, a, depth - 1),
            type_of_value(checker, rho, b, depth - 1),
        ),
        Value::Vector(vs) => {
            let tys: Vec<Ty> = vs
                .borrow()
                .iter()
                .map(|x| type_of_value(checker, rho, x, depth - 1))
                .collect();
            Ty::vec(Ty::union_of(tys))
        }
        Value::Str(_) => Ty::Str,
        Value::Re(_) => Ty::Regex,
        Value::Prim(p) => crate::prims::delta(*p),
        Value::Closure(_) => Ty::Top,
    }
}

/// `ρ ⊨ ψ` (M-rules). `None` = the proposition mentions an object ρ
/// cannot evaluate.
pub fn satisfies(checker: &Checker, rho: &RtEnv, p: &Prop) -> Option<bool> {
    match p {
        Prop::TT => Some(true),
        Prop::FF => Some(false),
        Prop::And(a, b) => match (satisfies(checker, rho, a), satisfies(checker, rho, b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Prop::Or(a, b) => match (satisfies(checker, rho, a), satisfies(checker, rho, b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        // M-Type / M-TypeNot.
        Prop::Is(o, t) => {
            let v = eval_obj(rho, o)?;
            Some(value_has_type(checker, rho, &v, t))
        }
        Prop::IsNot(o, t) => {
            let v = eval_obj(rho, o)?;
            Some(!value_has_type(checker, rho, &v, t))
        }
        // M-Alias.
        Prop::Alias(o1, o2) => {
            let v1 = eval_obj(rho, o1)?;
            let v2 = eval_obj(rho, o2)?;
            Some(v1.structurally_equal(&v2))
        }
        // M-Theory (ground evaluation decides theory atoms).
        Prop::Lin(a) => {
            let l = eval_lin(rho, &a.lhs)?;
            let r = eval_lin(rho, &a.rhs)?;
            Some(match a.cmp {
                LinCmp::Lt => l < r,
                LinCmp::Le => l <= r,
                LinCmp::Eq => l == r,
                LinCmp::Ne => l != r,
            })
        }
        Prop::Bv(a) => {
            let l = eval_bv(rho, &a.lhs)?;
            let r = eval_bv(rho, &a.rhs)?;
            let holds = match a.cmp {
                BvCmp::Eq => l == r,
                BvCmp::Ule => l <= r,
                BvCmp::Ult => l < r,
            };
            Some(holds == a.positive)
        }
        Prop::Str(a) => {
            let s = match &a.lhs {
                StrObj::Const(s) => s.clone(),
                StrObj::Path(p) => match eval_obj(rho, &Obj::Path(*p))? {
                    Value::Str(s) => s,
                    _ => return None,
                },
            };
            Some(a.re.is_match(&s) == a.positive)
        }
    }
}

/// Lemma 2(1): every non-null structural part of `o` evaluates in ρ to
/// the corresponding part of `v`.
pub fn obj_agrees_with_value(rho: &RtEnv, o: &Obj, v: &Value) -> bool {
    match o {
        Obj::Null => true,
        Obj::Pair(a, b) => match v {
            Value::Pair(x, y) => {
                obj_agrees_with_value(rho, a, x) && obj_agrees_with_value(rho, b, y)
            }
            _ => false,
        },
        _ => match eval_obj(rho, o) {
            Some(w) => w.structurally_equal(v),
            None => true, // object mentions values ρ does not record
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Symbol;
    use std::rc::Rc;

    fn s(n: &str) -> Symbol {
        Symbol::intern(n)
    }

    #[test]
    fn object_evaluation() {
        let rho = RtEnv::new()
            .extend(s("mx"), Value::Int(5))
            .extend(
                s("mp"),
                Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(true))),
            )
            .extend(
                s("mv"),
                Value::Vector(Rc::new(std::cell::RefCell::new(vec![Value::Int(0); 7]))),
            );
        assert!(matches!(
            eval_obj(&rho, &Obj::var(s("mx"))),
            Some(Value::Int(5))
        ));
        assert!(matches!(
            eval_obj(&rho, &Obj::var(s("mp")).fst()),
            Some(Value::Int(1))
        ));
        assert!(matches!(
            eval_obj(&rho, &Obj::var(s("mv")).len()),
            Some(Value::Int(7))
        ));
        // 2x + 1 = 11
        let o = Obj::var(s("mx")).scale(2).add(&Obj::int(1));
        assert!(matches!(eval_obj(&rho, &o), Some(Value::Int(11))));
        assert!(eval_obj(&rho, &Obj::var(s("absent"))).is_none());
        assert!(eval_obj(&rho, &Obj::var(s("mx")).fst()).is_none());
    }

    #[test]
    fn value_typing_structural() {
        let c = Checker::default();
        let rho = RtEnv::new();
        assert!(value_has_type(&c, &rho, &Value::Int(3), &Ty::Int));
        assert!(value_has_type(
            &c,
            &rho,
            &Value::Bool(false),
            &Ty::bool_ty()
        ));
        assert!(!value_has_type(&c, &rho, &Value::Bool(true), &Ty::Int));
        let pair = Value::Pair(Rc::new(Value::Int(1)), Rc::new(Value::Bool(true)));
        assert!(value_has_type(
            &c,
            &rho,
            &pair,
            &Ty::pair(Ty::Int, Ty::bool_ty())
        ));
        assert!(value_has_type(&c, &rho, &pair, &Ty::Top));
    }

    #[test]
    fn value_typing_refinements() {
        // 5 : {x:Int | x ≤ 10} but not {x:Int | x ≤ 3}.
        let c = Checker::default();
        let rho = RtEnv::new();
        let x = s("mrx");
        let le = |n: i64| Ty::refine(x, Ty::Int, Prop::lin(Obj::var(x), LinCmp::Le, Obj::int(n)));
        assert!(value_has_type(&c, &rho, &Value::Int(5), &le(10)));
        assert!(!value_has_type(&c, &rho, &Value::Int(5), &le(3)));
    }

    #[test]
    fn satisfaction_of_theory_atoms() {
        let c = Checker::default();
        let rho = RtEnv::new().extend(s("sx"), Value::Int(4));
        let p = Prop::lin(Obj::var(s("sx")), LinCmp::Lt, Obj::int(10));
        assert_eq!(satisfies(&c, &rho, &p), Some(true));
        let q = Prop::lin(Obj::var(s("sx")), LinCmp::Lt, Obj::int(4));
        assert_eq!(satisfies(&c, &rho, &q), Some(false));
        // Unknown objects are None.
        let r = Prop::lin(Obj::var(s("unknown")), LinCmp::Lt, Obj::int(4));
        assert_eq!(satisfies(&c, &rho, &r), None);
    }

    #[test]
    fn closures_satisfy_their_types() {
        use crate::interp::eval_program;
        use crate::syntax::{Expr, Prim};
        let c = Checker::default();
        let x = s("cfx");
        let lam = Expr::lam(
            vec![(x, Ty::Int)],
            Expr::prim_app(Prim::Add1, vec![Expr::Var(x)]),
        );
        let v = eval_program(&lam, 1000).unwrap();
        let want = Ty::simple_fun(vec![Ty::Int], Ty::Int);
        assert!(value_has_type(&c, &RtEnv::new(), &v, &want));
        let wrong = Ty::simple_fun(vec![Ty::bool_ty()], Ty::Int);
        assert!(!value_has_type(&c, &RtEnv::new(), &v, &wrong));
    }

    #[test]
    fn obj_value_agreement() {
        let rho = RtEnv::new().extend(s("ax"), Value::Int(2));
        assert!(obj_agrees_with_value(
            &rho,
            &Obj::var(s("ax")),
            &Value::Int(2)
        ));
        assert!(!obj_agrees_with_value(
            &rho,
            &Obj::var(s("ax")),
            &Value::Int(3)
        ));
        assert!(obj_agrees_with_value(&rho, &Obj::Null, &Value::Int(9)));
    }
}
