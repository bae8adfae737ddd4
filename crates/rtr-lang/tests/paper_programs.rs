//! The paper's programs, written in the surface syntax and pushed through
//! the full pipeline: read → expand → elaborate → check → run.
//!
//! Every program is also checked against the paper's own meaning of a
//! module: its nested `letrec`/`let` encoding, checked as one expression.

use rtr_core::check::Checker;
use rtr_core::config::CheckerConfig;
use rtr_core::interp::Value;
use rtr_core::syntax::{Symbol, TyResult};
use rtr_lang::{elaborate_module_items, run_source_unchecked, LangError};

/// [`rtr_lang::check_source`], compared with the oracle: the nested
/// encoding is clean exactly when the module driver is, and its value is
/// the driver's lifted value, as rendered.
#[allow(clippy::result_large_err)] // rtr_lang's shape
fn check_source(src: &str, checker: &Checker) -> Result<TyResult, LangError> {
    let driver = rtr_lang::check_source(src, checker);
    let m = elaborate_module_items(src).expect("reads");
    if m.syntax_errors.is_empty() {
        match (&driver, checker.check_program(&m.program())) {
            (Ok(d), Ok(o)) => assert_eq!(shown(d), shown(&o), "{src}"),
            (d, o) => assert_eq!(
                d.is_ok(),
                o.is_ok(),
                "the nested encoding disagrees:\n{src}"
            ),
        }
    }
    driver
}

/// [`rtr_lang::run_source`] after the oracle comparison of
/// [`check_source`].
#[allow(clippy::result_large_err)] // rtr_lang's shape
fn run_source(src: &str, checker: &Checker, fuel: u64) -> Result<Value, LangError> {
    let _ = check_source(src, checker);
    rtr_lang::run_source(src, checker, fuel)
}

/// `r` as rendered: fresh names numbered by first occurrence (the two
/// values mint their existentials in different scopes).
fn shown(r: &TyResult) -> String {
    Symbol::renumbered(|| format!("{r:?}"))
}

fn rtr() -> Checker {
    Checker::default()
}

fn tr() -> Checker {
    Checker::with_config(CheckerConfig::lambda_tr())
}

/// Fig. 1, verbatim modulo ASCII operators.
#[test]
fn fig1_max() {
    let src = r#"
        (: max : [x : Int] [y : Int] -> [z : Int #:where (and (>= z x) (>= z y))])
        (define (max x y) (if (> x y) x y))
        (max 3 7)
    "#;
    assert!(check_source(src, &rtr()).is_ok());
    assert!(
        check_source(src, &tr()).is_err(),
        "λTR cannot prove the range"
    );
    assert!(matches!(run_source(src, &rtr(), 10_000), Ok(Value::Int(7))));
}

/// §2's least-significant-bit with an (U Int (Pairof Int Int)) input.
#[test]
fn section2_least_significant_bit() {
    let src = r#"
        (: least-significant-bit : [n : (U Int (Pairof Int Int))] -> Int)
        (define (least-significant-bit n)
          (if (int? n)
              (if (even? n) 0 1)
              (fst n)))
        (+ (least-significant-bit 7) (least-significant-bit (cons 1 0)))
    "#;
    assert!(check_source(src, &rtr()).is_ok());
    assert!(
        check_source(src, &tr()).is_ok(),
        "pure occurrence typing suffices here"
    );
    assert!(matches!(run_source(src, &rtr(), 10_000), Ok(Value::Int(2))));
}

/// §2.1's vec-ref with its runtime guard, defined in terms of the unsafe
/// primitive (the safe-vec-ref spec is the primitive's own type).
#[test]
fn section21_guarded_vec_ref() {
    let src = r#"
        (: my-vec-ref : [v : (Vecof Int)] [i : Int] -> Int)
        (define (my-vec-ref v i)
          (if (<= 0 i)
              (if (< i (len v))
                  (safe-vec-ref v i)
                  (error "invalid vector index!"))
              (error "invalid vector index!")))
        (my-vec-ref (vec 10 20 30) 2)
    "#;
    assert!(check_source(src, &rtr()).is_ok());
    assert!(matches!(
        run_source(src, &rtr(), 10_000),
        Ok(Value::Int(30))
    ));
    // The λTR baseline rejects the unsafe call even though it is guarded.
    assert!(check_source(src, &tr()).is_err());
}

/// §2.1's safe-dot-prod: *rejected* without knowledge that the lengths
/// match — reproducing the paper's error message scenario.
#[test]
fn section21_safe_dot_prod_rejected() {
    let src = r#"
        (: safe-dot-prod : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)
        (define (safe-dot-prod A B)
          (for/sum ([i (in-range (len A))])
            (* (safe-vec-ref A i) (safe-vec-ref B i))))
    "#;
    match check_source(src, &rtr()) {
        Err(LangError::Type(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("argument 2"), "should flag the B index: {msg}");
        }
        other => panic!("expected rejection of the B access, got {other:?}"),
    }
}

/// §2.1's dot-prod: the `unless` guard makes the same loop verify, and
/// the program runs.
#[test]
fn section21_dot_prod_with_guard() {
    let src = r#"
        (: dot-prod : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)
        (define (dot-prod A B)
          (begin
            (unless (= (len A) (len B))
              (error "invalid vector lengths!"))
            (for/sum ([i (in-range (len A))])
              (* (safe-vec-ref A i) (safe-vec-ref B i)))))
        (dot-prod (vec 1 2 3) (vec 4 5 6))
    "#;
    assert!(
        check_source(src, &rtr()).is_ok(),
        "guarded dot-prod must verify"
    );
    assert!(matches!(
        run_source(src, &rtr(), 100_000),
        Ok(Value::Int(32))
    ));
    // And the guard actually fires at runtime on mismatched lengths.
    let bad = src.replace("(vec 4 5 6)", "(vec 4 5)");
    match run_source(&bad, &rtr(), 100_000) {
        Err(LangError::Eval(rtr_core::interp::EvalError::UserError(m))) => {
            assert!(m.contains("invalid vector lengths"));
        }
        other => panic!("expected the guard to fire, got {other:?}"),
    }
}

/// §4.4: reverse iteration defeats the Nat heuristic, as in the paper.
#[test]
fn section44_reverse_iteration_fails() {
    let src = r#"
        (: rev-sum : [A : (Vecof Int)] -> Int)
        (define (rev-sum A)
          (for/sum ([i (in-range (len A) 0 -1)])
            (safe-vec-ref A i)))
    "#;
    assert!(
        check_source(src, &rtr()).is_err(),
        "the Nat heuristic must fail on reverse iteration (§4.4)"
    );
}

/// §2.2's xtime, in the paper's AND/XOR spelling, with Byte sugar.
#[test]
fn section22_xtime() {
    let src = r#"
        (: xtime : [num : Byte] -> Byte)
        (define (xtime num)
          (let ([n (AND (bv* #x02 num) #xff)])
            (cond
              [(bv= #x00 (AND num #x80)) n]
              [else (XOR n #x1b)])))
        (xtime #x57)
    "#;
    assert!(
        check_source(src, &rtr()).is_ok(),
        "xtime must verify with the BV theory"
    );
    // 0x57·x = 0xae (no reduction: high bit of 0x57 is 0).
    assert!(matches!(
        run_source(src, &rtr(), 10_000),
        Ok(Value::Bv(0xae))
    ));
    // With the high bit set, the reduction polynomial applies:
    // xtime(0x80) = (0x00) ⊕ 0x1b = 0x1b.
    let src2 = src.replace("(xtime #x57)", "(xtime #x80)");
    assert!(matches!(
        run_source(&src2, &rtr(), 10_000),
        Ok(Value::Bv(0x1b))
    ));
}

/// §5.1's annotated recursive loop over a vector, surface form.
#[test]
fn section51_annotated_loop() {
    let src = r#"
        (: prod : [ds : (Vecof Int)] -> Int)
        (define (prod ds)
          (let loop : Int ([i : (Refine [i : Int] (<= 0 i (len ds))) (len ds)]
                           [res : Int 1])
            (cond
              [(zero? i) res]
              [else (loop (- i 1) (* res (safe-vec-ref ds (- i 1))))])))
        (prod (vec 2 3 4))
    "#;
    assert!(
        check_source(src, &rtr()).is_ok(),
        "annotated loop must verify"
    );
    assert!(matches!(
        run_source(src, &rtr(), 100_000),
        Ok(Value::Int(24))
    ));
}

/// §5.1's vec-swap! with the two added guards.
#[test]
fn section51_vec_swap() {
    let src = r#"
        (: vec-swap! : [vs : (Vecof Int)] [i : Int] [j : Int] -> Unit)
        (define (vec-swap! vs i j)
          (unless (= i j)
            (cond
              [(and (< -1 i (len vs))
                    (< -1 j (len vs)))
               (let ([i-val (safe-vec-ref vs i)]
                     [j-val (safe-vec-ref vs j)])
                 (begin
                   (safe-vec-set! vs i j-val)
                   (safe-vec-set! vs j i-val)))]
              [else (error "bad index(s)!")])))
        (define v (vec 1 2 3))
        (begin (vec-swap! v 0 2) (vec-ref v 0))
    "#;
    assert!(
        check_source(src, &rtr()).is_ok(),
        "guarded swap must verify"
    );
    assert!(matches!(
        run_source(src, &rtr(), 100_000),
        Ok(Value::Int(3))
    ));
}

/// §4.2: the mutable cache-size exploit. The checker rejects the
/// safe-access version; the unchecked unsafe version crashes at runtime —
/// the bug the paper found in the math library.
#[test]
fn section42_mutable_cache_exploit() {
    let checked = r#"
        (define (f [data : (Vecof Int)])
          (let ([cache-size 0])
            (begin
              (set! cache-size (len data))
              (if (< 0 cache-size)
                  (safe-vec-ref data (- cache-size 1))
                  0))))
        (f (vec 1 2 3))
    "#;
    assert!(
        check_source(checked, &rtr()).is_err(),
        "tests on a mutable variable must not verify accesses (§4.2)"
    );

    // Simulating the concurrent shrink with an in-line mutation: the raw
    // access goes out of bounds — undefined behaviour the type system
    // (correctly) refused to bless.
    let exploit = r#"
        (define (g [data : (Vecof Int)] [small : (Vecof Int)])
          (let ([cache data])
            (let ([n (len data)])
              (begin
                (set! cache small)
                (if (< 0 n)
                    (unsafe-vec-ref cache (- n 1))
                    0)))))
        (g (vec 1 2 3 4 5) (vec 9))
    "#;
    match run_source_unchecked(exploit, 100_000) {
        Err(LangError::Eval(rtr_core::interp::EvalError::Stuck(m))) => {
            assert!(m.contains("out-of-bounds"), "unexpected stuck reason: {m}");
        }
        other => panic!("the exploit should crash the raw access, got {other:?}"),
    }
}

/// Polymorphic vector reads through local type inference (§4.3).
#[test]
fn section43_polymorphic_instantiation() {
    let src = r#"
        (define (second-of [v : (Vecof Bool)])
          (if (< 1 (len v)) (safe-vec-ref v 1) #f))
        (second-of (vec #t #f #t))
    "#;
    assert!(check_source(src, &rtr()).is_ok());
    assert!(matches!(
        run_source(src, &rtr(), 10_000),
        Ok(Value::Bool(false))
    ));
}

/// The checked vec-ref needs no proof but fails at runtime when out of
/// bounds (user error, not stuck): the legacy behaviour RTR coexists with.
#[test]
fn checked_access_is_a_user_error() {
    let src = "(vec-ref (vec 1 2) 5)";
    assert!(check_source(src, &rtr()).is_ok());
    match run_source(src, &rtr(), 1_000) {
        Err(LangError::Eval(rtr_core::interp::EvalError::UserError(_))) => {}
        other => panic!("expected a checked bounds error, got {other:?}"),
    }
}

/// Racket's unnamed `let` is parallel: right-hand sides see the *outer*
/// bindings, not each other. `let*` is sequential.
#[test]
fn let_is_parallel_let_star_is_sequential() {
    let parallel = r#"
        (define x 1)
        (let ([x 2] [y x]) y)
    "#;
    match run_source(parallel, &rtr(), 10_000) {
        Ok(Value::Int(1)) => {}
        other => panic!("parallel let must see the outer x: {other:?}"),
    }
    let sequential = r#"
        (define x 1)
        (let* ([x 2] [y x]) y)
    "#;
    match run_source(sequential, &rtr(), 10_000) {
        Ok(Value::Int(2)) => {}
        other => panic!("let* must see the inner x: {other:?}"),
    }
}

/// `or` returns the first truthy *value* (not a boolean coercion).
#[test]
fn or_returns_the_witness_value() {
    match run_source("(or #f 5)", &rtr(), 1_000) {
        Ok(Value::Int(5)) => {}
        other => panic!("(or #f 5) must be 5: {other:?}"),
    }
    match run_source("(and 1 2)", &rtr(), 1_000) {
        Ok(Value::Int(2)) => {}
        other => panic!("(and 1 2) must be 2: {other:?}"),
    }
}
