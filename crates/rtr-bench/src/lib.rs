//! Shared fixtures for the benchmark suite: the paper programs, the
//! synthetic workload builders and the solver queries that `bench_json`
//! times.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtr_solver::bv::{BvAtom, BvLit, BvTerm};
use rtr_solver::lin::{Constraint, LinExpr, SolverVar};
use rtr_solver::sat::{Cnf, Lit, Var};

/// Fig. 1's `max` with its refined range.
pub const MAX_SRC: &str = r#"
    (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
    (define (max x y) (if (> x y) x y))
"#;

/// §2.1's `dot-prod` with the dynamic length guard (verifies the loop).
pub const DOT_PROD_SRC: &str = r#"
    (: dot-prod : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)
    (define (dot-prod A B)
      (begin
        (unless (= (len A) (len B))
          (error "invalid vector lengths!"))
        (for/sum ([i (in-range (len A))])
          (* (safe-vec-ref A i) (safe-vec-ref B i)))))
"#;

/// §2.2's `xtime` (bitvector theory).
pub const XTIME_SRC: &str = r#"
    (: xtime : [num : Byte] -> Byte)
    (define (xtime num)
      (let ([n (AND (bv* #x02 num) #xff)])
        (cond
          [(bv= #x00 (AND num #x80)) n]
          [else (XOR n #x1b)])))
"#;

/// The guarded router of `examples/input_validation.rs`: the regex
/// theory is on its hot path.
pub const ROUTER_GUARDED_SRC: &str = r#"
    (: serve-port : [s : Str #:where (=~ s #rx"[0-9]+")] -> Int)
    (define (serve-port s) (string-length s))
    (: route : Str -> Int)
    (define (route req)
      (if (regexp-match? #rx"[0-9]+" req)
          (serve-port req)
          -1))
"#;

/// [`ROUTER_GUARDED_SRC`] with a plain `Str` parameter, so `serve-port`'s
/// call needs no regex entailment: the pair prices the regex theory.
pub const ROUTER_PLAIN_SRC: &str = r#"
    (: serve-port : Str -> Int)
    (define (serve-port s) (string-length s))
    (: route : Str -> Int)
    (define (route req)
      (if (regexp-match? #rx"[0-9]+" req)
          (serve-port req)
          -1))
"#;

/// A guarded access behind a chain of `n` let-aliases — the workload the
/// §4.1 representative-objects optimization targets.
pub fn alias_chain_src(n: usize) -> String {
    assert!(n >= 1);
    let mut binds = String::new();
    binds.push_str("  (let ([a0 (len v)])\n");
    for k in 1..n {
        binds.push_str(&format!("  (let ([a{k} a{}])\n", k - 1));
    }
    let last = n - 1;
    let closes = ")".repeat(n);
    format!(
        "(define (chain [v : (Vecof Int)] [i : Int])\n\
         {binds}\
         \x20 (if (and (<= 0 i) (< i a{last}))\n\
         \x20     (safe-vec-ref v i)\n\
         \x20     0){closes})\n"
    )
}

/// A function with `n` union-typed parameters, each narrowed by a test
/// before all are used — the workload that separates the §4.1 hybrid
/// environment (each test refines the stored type once) from the formal
/// model's pure-proposition environment (each *use* replays every
/// recorded atom).
pub fn narrowing_chain_src(n: usize) -> String {
    assert!(n >= 1);
    let params: String = (0..n).map(|k| format!("[x{k} : (U Int Bool)] ")).collect();
    let mut body = {
        let mut sum = "0".to_string();
        for k in (0..n).rev() {
            sum = format!("(+ x{k} {sum})");
        }
        sum
    };
    for k in (0..n).rev() {
        body = format!("(if (int? x{k}) {body} 0)");
    }
    format!(
        "(: narrow : {params}-> Int)
(define (narrow {}) {body})
",
        (0..n)
            .map(|k| format!("x{k}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// A module of `n` `dot-prod`-shaped functions — the solver-heavy §2.1
/// workload at module scale. Every function poses the same linear
/// constraint systems modulo variable renaming, which is exactly what the
/// canonicalized solver-verdict fingerprints are built to exploit.
pub fn dot_prod_module_src(n: usize) -> String {
    let mut out = String::new();
    for k in 0..n {
        out.push_str(&format!(
            "(: dp{k} : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)\n\
             (define (dp{k} A B)\n\
             \x20 (begin\n\
             \x20   (unless (= (len A) (len B))\n\
             \x20     (error \"invalid vector lengths!\"))\n\
             \x20   (for/sum ([i (in-range (len A))])\n\
             \x20     (* (safe-vec-ref A i) (safe-vec-ref B i)))))\n"
        ));
    }
    out
}

/// A module of `n` `xtime`-shaped functions — the bitvector-theory §2.2
/// workload at module scale (each function re-poses the same bit-blast
/// queries, exercising the persistent session's term/clause reuse).
pub fn xtime_module_src(n: usize) -> String {
    let mut out = String::new();
    for k in 0..n {
        out.push_str(&format!(
            "(: xt{k} : [num : Byte] -> Byte)\n\
             (define (xt{k} num)\n\
             \x20 (let ([n (AND (bv* #x02 num) #xff)])\n\
             \x20   (cond\n\
             \x20     [(bv= #x00 (AND num #x80)) n]\n\
             \x20     [else (XOR n #x1b)])))\n"
        ));
    }
    out
}

/// A function narrowing one bitvector through a chain of `n` mask tests,
/// each `let`-bound so the program grows linearly — every test adds a
/// bitvector fact, so consistency is re-decided over a growing fact set
/// (the workload for incremental fact-set solving).
pub fn bv_chain_src(n: usize) -> String {
    assert!(n >= 1);
    let mut binds = String::from("  (let ([b0 (AND num #xff)])\n");
    for k in 1..=n {
        let mask = 1u64 << (k % 8);
        binds.push_str(&format!(
            "  (let ([b{k} (if (bv= #x00 (AND num #x{mask:02x})) b{} (AND (XOR b{} #x01) #xff))])\n",
            k - 1,
            k - 1
        ));
    }
    let closes = ")".repeat(n + 1);
    format!(
        "(: bvchain : [num : Byte] -> Byte)\n\
         (define (bvchain num)\n\
         {binds}\
         \x20 (AND b{n} #xff){closes})\n"
    )
}

/// A module of `n` regex-guarded string validators — the string-theory
/// (§7 regex extension) workload at module scale. Every function nests
/// two membership tests and calls a refinement-typed helper, so the
/// checker keeps re-posing entailments over overlapping regex sets: the
/// `[0-9]+` base literal recurs in every function (a persistent regex
/// session compiles its DFA once), while the counted inner test cycles
/// through four variants so queries don't all collapse into a single
/// memoized fingerprint.
pub fn string_module_src(n: usize) -> String {
    let mut out = String::new();
    for k in 0..n {
        let m = k % 4 + 1;
        out.push_str(&format!(
            "(: digits{k} : [s : Str #:where (=~ s #rx\"[0-9]+\")] -> Int)\n\
             (define (digits{k} s) (string-length s))\n\
             (: parse{k} : Str -> Int)\n\
             (define (parse{k} s)\n\
             \x20 (if (regexp-match? #rx\"[0-9]+\" s)\n\
             \x20     (if (regexp-match? #rx\"[0-9]{{{m},}}\" s)\n\
             \x20         (digits{k} s)\n\
             \x20         (digits{k} s))\n\
             \x20     0))\n"
        ));
    }
    out
}

/// The `k`-th definition of [`filler_module_src`].
fn filler_define(k: usize) -> String {
    format!(
        "(: u{k} : [x : Int] [y : Int] -> Int)\n\
         (define (u{k} x y) (+ (* 2 x) (- y {})))\n",
        k % 7
    )
}

/// A module of `n` simple well-typed definitions (checker throughput).
pub fn filler_module_src(n: usize) -> String {
    (0..n).map(filler_define).collect()
}

/// [`filler_module_src`] with every fifth definition replaced by an
/// unannotated value define `(define k<k> c)`, whose only effect on the
/// environment is an alias: the warm-edit workload for value defines.
pub fn values_module_src(n: usize) -> String {
    (0..n)
        .map(|k| match k % 5 {
            0 => format!("(define k{k} {})\n", k % 7),
            _ => filler_define(k),
        })
        .collect()
}

/// A module of `n` definitions where every third one is ill-typed — the
/// multi-error *recovery* workload. The recovering module checker must
/// report every failing definition (poisoning each and moving on), so
/// this measures the diagnostics path without giving up the well-typed
/// majority of the module.
pub fn many_errors_module_src(n: usize) -> String {
    let mut out = String::new();
    for k in 0..n {
        if k % 3 == 0 {
            // Range mismatch: Bool body against an Int range.
            out.push_str(&format!(
                "(: e{k} : [x : Int] -> Int)\n\
                 (define (e{k} x) (int? x))\n"
            ));
        } else {
            out.push_str(&format!(
                "(: w{k} : [x : Int] [y : Int] -> Int)\n\
                 (define (w{k} x y) (+ (* 2 x) (- y {})))\n",
                k % 7
            ));
        }
    }
    out
}

/// The satisfiable "bounds chain" `0 ≤ x₀`, `x_{k-1} + (k mod 3) ≤ x_k`,
/// `x_{n-1} ≤ 100`: the shape of the index facts the checker accumulates.
pub fn bounds_chain(n: u32) -> Vec<Constraint> {
    let x = |k: u32| LinExpr::var(SolverVar(k));
    let mut cs = vec![Constraint::ge(x(0), LinExpr::constant(0))];
    for k in 1..n {
        let off = LinExpr::constant(i64::from(k % 3));
        cs.push(Constraint::le(x(k - 1).add(&off), x(k)));
    }
    cs.push(Constraint::le(x(n - 1), LinExpr::constant(100)));
    cs
}

/// §2.2's xtime obligation at `width` bits, as `(facts, goal)`:
/// `num ≤ mask ⊢ ((2·num) & mask) ⊕ 0x1b ≤ mask`. It holds.
pub fn xtime_query(width: u32) -> (Vec<BvLit>, BvLit) {
    let mask = (1u64 << (width.clamp(9, 16) - 1)) - 1;
    let num = BvTerm::var(SolverVar(0), width);
    let k = |v: u64| BvTerm::constant(v, width);
    let fact = BvLit::positive(BvAtom::ule(num.clone(), k(mask)));
    let value = num.mul(k(2)).and(k(mask)).xor(k(0x1b));
    (vec![fact], BvLit::positive(BvAtom::ule(value, k(mask))))
}

/// The pigeonhole formula for `n + 1` pigeons in `n` holes: unsatisfiable,
/// and the CDCL core's stress test.
pub fn pigeonhole(n: u32) -> Cnf {
    let mut cnf = Cnf::new();
    let pigeons = n + 1;
    let var = |p: u32, h: u32| Var(p * n + h);
    for _ in 0..pigeons * n {
        cnf.fresh_var();
    }
    for p in 0..pigeons {
        cnf.add_clause((0..n).map(|h| Lit::pos(var(p, h))));
    }
    for h in 0..n {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause([Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    cnf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtr_core::check::Checker;
    use rtr_core::syntax::TyResult;

    /// `src` verifies through the module driver, and its nested
    /// `letrec`/`let` encoding, checked as one expression, verifies with
    /// the same lifted value up to fresh-name suffixes.
    fn verifies(src: &str, c: &Checker) {
        let driver = rtr_lang::check_source(src, c).expect("the module driver verifies");
        let nested = rtr_lang::elaborate_module_items(src)
            .expect("reads")
            .program();
        let oracle = c
            .check_program(&nested)
            .expect("the nested encoding verifies");
        assert_eq!(modulo_fresh(&driver), modulo_fresh(&oracle), "{src}");
    }

    /// `r`'s rendering without fresh-name suffixes (`b%24`): fresh names
    /// are numbered process-wide, so two checks mint different ones.
    fn modulo_fresh(r: &TyResult) -> String {
        let mut in_suffix = false;
        format!("{r:?}")
            .chars()
            .filter(|&c| {
                in_suffix = c == '%' || (in_suffix && c.is_ascii_digit());
                !in_suffix
            })
            .collect()
    }

    #[test]
    fn fixtures_type_check() {
        let c = Checker::default();
        verifies(MAX_SRC, &c);
        verifies(DOT_PROD_SRC, &c);
        verifies(XTIME_SRC, &c);
        verifies(ROUTER_GUARDED_SRC, &c);
        verifies(ROUTER_PLAIN_SRC, &c);
        verifies(&alias_chain_src(8), &c);
        verifies(&narrowing_chain_src(6), &c);
        // Each ablation's largest fixture verifies with its optimization
        // off, as its `bench_json` rows assert.
        let no_repr = Checker::with_config(rtr_core::config::CheckerConfig {
            representative_objects: false,
            ..Default::default()
        });
        verifies(&alias_chain_src(16), &no_repr);
        let pure = Checker::with_config(rtr_core::config::CheckerConfig {
            hybrid_env: false,
            ..Default::default()
        });
        verifies(&narrowing_chain_src(6), &pure);
        verifies(&narrowing_chain_src(12), &pure);
        verifies(&filler_module_src(5), &c);
        verifies(&values_module_src(10), &c);
        verifies(&dot_prod_module_src(2), &c);
        verifies(&xtime_module_src(2), &c);
        verifies(&bv_chain_src(4), &c);
        verifies(&string_module_src(5), &c);
        let one_shot = Checker::with_config(rtr_core::config::CheckerConfig {
            solver_cache: false,
            ..Default::default()
        });
        verifies(&string_module_src(5), &one_shot);
    }

    #[test]
    fn many_errors_module_reports_one_diagnostic_per_bad_define() {
        let c = Checker::default();
        let report = rtr_lang::check_module_source(&many_errors_module_src(9), &c);
        assert_eq!(report.error_count(), 3);
        assert!(report.diagnostics.iter().all(|d| d.primary.is_some()));
    }
}
