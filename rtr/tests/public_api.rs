//! Cross-crate integration tests through the `rtr` facade's public API.

use rtr::prelude::*;

#[test]
fn prelude_covers_the_workflow() {
    let src = r#"
        (: abs : [x : Int] -> [z : Int #:where (and (>= z x) (>= z 0))])
        (define (abs x) (if (< x 0) (- 0 x) x))
        (abs -5)
    "#;
    let checker = Checker::default();
    let r = check_source(src, &checker).expect("abs verifies");
    assert!(matches!(r.ty, Ty::Refine(_)));
    let v = run_source(src, &checker, 10_000).unwrap();
    assert_eq!(v.to_string(), "5");
}

#[test]
fn layers_compose() {
    // solver → core → lang, each reachable from the facade.
    use rtr::solver::lin::{Constraint, FourierMotzkin, LinExpr, SolverVar};
    let x = LinExpr::var(SolverVar(0));
    let facts = [Constraint::ge(x.clone(), LinExpr::constant(3))];
    assert!(FourierMotzkin::default().entails(&facts, &Constraint::gt(x, LinExpr::constant(0))));

    let e = Expr::prim_app(Prim::Plus, vec![Expr::Int(20), Expr::Int(22)]);
    let r = Checker::default().check_program(&e).unwrap();
    assert_eq!(r.ty, Ty::Int);
    assert_eq!(eval_program(&e, 100).unwrap().to_string(), "42");
}

#[test]
fn corpus_is_reachable_and_consistent() {
    use rtr::corpus::classify::classify_library;
    use rtr::corpus::gen::{generate, Library};
    use rtr::corpus::profiles::libraries;

    let checker = Checker::default();
    let profile = &libraries()[0];
    let lib = generate(profile, 99);
    let sample = Library {
        profile: lib.profile.clone(),
        sites: lib.sites.into_iter().take(8).collect(),
        filler: Vec::new(),
    };
    let tally = classify_library(&sample, &checker);
    assert_eq!(tally.misclassified, 0);
    assert!(tally.total() > 0);
}

#[test]
fn error_types_are_std_errors() {
    fn takes_error<E: std::error::Error>(_: &E) {}
    let checker = Checker::default();
    let err = check_source("(add1 #t)", &checker).unwrap_err();
    takes_error(&err);
    let type_err: Diagnostic = match err {
        LangError::Type(t) => t,
        other => panic!("expected a type error, got {other}"),
    };
    assert!(type_err.to_string().contains("expected"));
}

#[test]
fn checker_is_configurable_through_the_facade() {
    let src = r#"
        (define (f [v : (Vecof Int)] [i : Int])
          (if (and (<= 0 i) (< i (len v))) (safe-vec-ref v i) 0))
    "#;
    assert!(check_source(src, &Checker::default()).is_ok());
    let tr = Checker::with_config(CheckerConfig::lambda_tr());
    assert!(check_source(src, &tr).is_err());
    let no_repr = CheckerConfig {
        representative_objects: false,
        ..CheckerConfig::default()
    };
    assert!(check_source(src, &Checker::with_config(no_repr)).is_ok());
}
