//! Abstract syntax of λ_RTR (Fig. 2): expressions, types, propositions,
//! symbolic objects, fields, and type-results.

mod expr;
mod obj;
mod prop;
mod result;
mod symbol;
mod ty;

pub use expr::{Expr, Lambda, Prim};
pub use obj::{BvObj, Field, LinObj, LinTerms, Obj, Path, StrObj};
pub use prop::{BvAtomProp, BvCmp, LinAtom, LinCmp, Prop, StrAtomProp};
pub use result::TyResult;
pub use symbol::Symbol;
pub use ty::{FunTy, PolyTy, RefineTy, Ty};

/// The sizes of the syntax trees' hot values. Every check clones and
/// moves these by the thousand, so a larger value costs time even where
/// it saves an allocation: a change that grows one should say why.
#[cfg(all(test, target_pointer_width = "64"))]
mod size_tests {
    use std::mem::size_of;

    use super::*;

    #[test]
    fn hot_values_keep_their_sizes() {
        // (name, size, size before paths and linear objects were packed)
        let sizes = [
            ("Path", size_of::<Path>(), 32),
            ("LinObj", size_of::<LinObj>(), 32),
            ("Obj", size_of::<Obj>(), 40),
            ("Prop", size_of::<Prop>(), 80),
            ("LinAtom", size_of::<LinAtom>(), 72),
            ("TyResult", size_of::<TyResult>(), 248),
        ];
        for (name, size, before) in sizes {
            assert!(size <= before, "{name} grew to {size} bytes from {before}");
        }
        let now: Vec<_> = sizes.iter().map(|&(name, size, _)| (name, size)).collect();
        assert_eq!(
            now,
            [
                ("Path", 16),
                ("LinObj", 24),
                ("Obj", 32),
                ("Prop", 64),
                ("LinAtom", 56),
                ("TyResult", 208),
            ]
        );
    }
}
