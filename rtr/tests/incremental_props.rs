//! Incremental ≡ from-scratch: randomized edit-script equivalence.
//!
//! One warm incremental [`Session`] replays a script of edits against a
//! synthetic module; after every step, the report is compared against a
//! cold check of the same text (a session that forgets the file first). Diagnostic codes, primary
//! spans, per-item verdicts, the module value type, and the whole
//! human rendering must agree. (The single permitted normalization:
//! fresh existential names `%N` are numbered per *run*, not per
//! module, so their digits are stripped before comparison — the same
//! caveat the core equivalence tests document.)
//!
//! Edits cover every cache-relevant transition: body tweaks, flipping
//! an item clean ↔ ill-typed ↔ unbound, insertion, deletion,
//! reordering, dependency rewiring, and whitespace/comment-only
//! touches that must splice everything. They also cover what the
//! driver's dependency splice must see through: signature flips
//! between `Int` and a refined domain, signature refinements that name
//! another module-level define, lambda parameters named like a
//! module-level item inserted later (shadowing), value defines that add
//! linear facts (a change keyed by no name), bindings at an empty type,
//! unannotated value defines (an alias), unannotated functions (a
//! negative fact) and redefinitions of live names.

use rtr::prelude::*;

/// A deterministic LCG (no rand dependency); high bits are the usable
/// ones.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// How a definition's body is shaped this step.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    /// `(+ (* a x) y)` — well typed, self-contained.
    Clean,
    /// `(+ (u<dep> x y) a)` — well typed, *depends on* `u<dep>` (which
    /// may or may not exist: an unbound dep is a legal ill-typed step).
    Calls(usize),
    /// `(+ (u<dep> x 3) a)` — like `Calls`, with an argument that also
    /// meets a non-negative domain.
    CallsConst(usize),
    /// `((lambda ([u<k> : Int]) (+ u<k> x)) y)` — a parameter named like
    /// a module-level definition, which may exist or be inserted later.
    Shadow(usize),
    /// `(+ (ann y (Refine [n : Int] (isnot u<j> False))) x)` — reads
    /// `u<j>` only through a type written in the body.
    Ascribes(usize),
    /// `((lambda ([p : (Refine [n : Int] (isnot u<j> False))]) (+ p x)) y)`
    /// — reads `u<j>` only through a lambda parameter's type.
    ParamNames(usize),
    /// `(+ x #t)` — a type error; the definition is poisoned.
    IllTyped,
    /// `(+ x zzz)` — an unbound variable; also poisoned.
    Unbound,
}

/// The declared domain of a definition's `y` parameter.
#[derive(Clone, Copy, PartialEq)]
enum Dom {
    Int,
    /// `(Refine [n : Int] (>= n 0))`.
    Nat,
    /// `(Refine [n : Int] (< n k<j>))` — names a value define.
    BelowValue(usize),
    /// `(Refine [n : Int] (isnot u<j> False))` — names a function
    /// define, so proving it reads that define's binding.
    NotFalse(usize),
}

#[derive(Clone)]
enum Item {
    Define {
        name: usize,
        a: i64,
        body: Body,
        dom: Dom,
    },
    /// `(define k<name> : (Refine [n : Int] (<= 0 n)) c)` — a value
    /// define whose binding adds linear facts (ill typed when `c < 0`).
    Value { name: usize, c: i64 },
    /// `(define z<name> : (U) 0)` — poisoned at an empty type.
    Empty { name: usize },
    /// `(define k<name> c)` — an unannotated value define, whose effect
    /// is an alias.
    Alias { name: usize, c: i64 },
    /// `(define (v<name> [x : Int]) (+ x a))` — an unannotated function,
    /// which also records `v<name> ∉ False`.
    Unannotated { name: usize, a: i64 },
    /// `(define k<target> c)` — a redefinition of a value define's name
    /// (or, with none live, of any name's `k` spelling).
    Redefine { target: usize, c: i64 },
    /// A trailing expression `(u<callee> <arg> 2)`.
    Call { callee: usize, arg: i64 },
}

fn render(items: &[Item], rng: &mut Rng) -> String {
    let mut src = String::new();
    for item in items {
        // Whitespace and comments between items must never force a
        // re-check on their own (the textual key ignores trivia).
        match rng.next(3) {
            0 => src.push('\n'),
            1 => src.push_str("  ; trivia\n"),
            _ => {}
        }
        match item {
            Item::Define { name, a, body, dom } => {
                let dom = match dom {
                    Dom::Int => "Int".to_owned(),
                    Dom::Nat => "(Refine [n : Int] (>= n 0))".to_owned(),
                    Dom::BelowValue(j) => format!("(Refine [n : Int] (< n k{j}))"),
                    Dom::NotFalse(j) => format!("(Refine [n : Int] (isnot u{j} False))"),
                };
                src.push_str(&format!("(: u{name} : [x : Int] [y : {dom}] -> Int)\n"));
                let body = match body {
                    Body::Clean => format!("(+ (* {a} x) y)"),
                    Body::Calls(dep) => format!("(+ (u{dep} x y) {a})"),
                    Body::CallsConst(dep) => format!("(+ (u{dep} x 3) {a})"),
                    Body::Shadow(k) => format!("((lambda ([u{k} : Int]) (+ u{k} x)) y)"),
                    Body::Ascribes(j) => {
                        format!("(+ (ann y (Refine [n : Int] (isnot u{j} False))) x)")
                    }
                    Body::ParamNames(j) => format!(
                        "((lambda ([p : (Refine [n : Int] (isnot u{j} False))]) (+ p x)) y)"
                    ),
                    Body::IllTyped => "(+ x #t)".to_owned(),
                    Body::Unbound => "(+ x zzz)".to_owned(),
                };
                src.push_str(&format!("(define (u{name} x y) {body})\n"));
            }
            Item::Value { name, c } => src.push_str(&format!(
                "(define k{name} : (Refine [n : Int] (<= 0 n)) {c})\n"
            )),
            Item::Empty { name } => src.push_str(&format!("(define z{name} : (U) 0)\n")),
            Item::Alias { name: k, c } | Item::Redefine { target: k, c } => {
                src.push_str(&format!("(define k{k} {c})\n"))
            }
            Item::Unannotated { name, a } => {
                src.push_str(&format!("(define (v{name} [x : Int]) (+ x {a}))\n"))
            }
            Item::Call { callee, arg } => src.push_str(&format!("(u{callee} {arg} 2)\n")),
        }
    }
    src
}

/// Strips the digits after `%`: fresh existentials are numbered per
/// process-wide counter, so two runs of the same module differ only
/// there.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '%' {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
        }
    }
    out
}

/// Everything observable about a report, up to `%N` renaming.
fn report_key(r: &CheckReport, source: &str) -> String {
    let mut out = String::new();
    for d in &r.diagnostics {
        out.push_str(d.code.as_str());
        if let Some(s) = d.primary {
            out.push_str(&format!(
                " @{}:{}-{}:{}",
                s.start.line, s.start.col, s.end.line, s.end.col
            ));
        }
        out.push('\n');
    }
    for i in &r.results {
        out.push_str(&format!(
            "{:?} : {:?} poisoned={}\n",
            i.name.map(|n| n.as_str().to_owned()),
            i.ty.as_ref().map(|t| normalize(&t.to_string())),
            i.poisoned
        ));
    }
    out.push_str(&format!(
        "value {:?}\n",
        r.value
            .as_ref()
            .map(|v| normalize(&v.lift().ty.to_string()))
    ));
    out.push_str(&format!(
        "clean {} errors {}\n",
        r.is_clean(),
        r.stats.errors
    ));
    out.push_str(&normalize(&r.render_human(source)));
    out
}

fn mutate(items: &mut Vec<Item>, rng: &mut Rng, fresh_name: &mut usize) {
    let names = *fresh_name;
    // A definition that exists now, so that a body reading it only
    // through a type is likely to see it deleted or re-signed later.
    let defines: Vec<usize> = items
        .iter()
        .filter_map(|it| match it {
            Item::Define { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    let live = match defines.len() {
        0 => rng.next(names),
        n => defines[rng.next(n)],
    };
    let values: Vec<usize> = items
        .iter()
        .filter_map(|it| match it {
            Item::Value { name, .. } | Item::Alias { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    let bodies = [
        Body::Clean,
        Body::Calls(rng.next(names)),
        Body::CallsConst(rng.next(names)),
        // Possibly the name of a definition inserted by a later step.
        Body::Shadow(rng.next(names + 4)),
        Body::Ascribes(live),
        Body::ParamNames(live),
        Body::IllTyped,
        Body::Unbound,
    ];
    let doms = [
        Dom::Int,
        Dom::Nat,
        Dom::BelowValue(rng.next(names)),
        Dom::NotFalse(rng.next(names)),
    ];
    match rng.next(9) {
        // Tweak a definition's coefficient (the classic one-line edit).
        0 => {
            let at = rng.next(items.len());
            if let Some(Item::Define { a, .. } | Item::Unannotated { a, .. }) = items.get_mut(at) {
                *a += 1;
            }
        }
        // Flip a definition's body shape (clean / calls / shadowing /
        // types naming a define / ill-typed / unbound) — exercises poisoning going stale in both
        // directions.
        1 => {
            let (at, shape) = (rng.next(items.len()), rng.next(bodies.len()));
            if let Some(Item::Define { body, .. }) = items.get_mut(at) {
                *body = bodies[shape];
            }
        }
        // Insert a new item at a random position: mostly definitions
        // and calls, sometimes a fact-adding value define, a binding at
        // an empty type, an unannotated value define or function, or a
        // redefinition.
        2 => {
            let at = rng.next(items.len() + 1);
            let name = *fresh_name;
            let item = match rng.next(11) {
                0..=3 => Item::Define {
                    name,
                    a: rng.next(9) as i64,
                    body: bodies[rng.next(bodies.len())],
                    dom: doms[rng.next(doms.len())],
                },
                4 => Item::Value {
                    name,
                    c: rng.next(9) as i64 - 2,
                },
                5 => Item::Empty { name },
                6 => Item::Alias {
                    name,
                    c: rng.next(9) as i64 - 2,
                },
                7 => Item::Unannotated {
                    name,
                    a: rng.next(9) as i64,
                },
                8 => Item::Redefine {
                    target: match values.len() {
                        0 => rng.next(names),
                        n => values[rng.next(n)],
                    },
                    c: rng.next(9) as i64 - 2,
                },
                _ => Item::Call {
                    callee: rng.next(names),
                    arg: rng.next(9) as i64,
                },
            };
            if !matches!(item, Item::Call { .. } | Item::Redefine { .. }) {
                *fresh_name += 1;
            }
            items.insert(at, item);
        }
        // Delete an item (callers of a deleted define go unbound).
        3 => {
            if items.len() > 1 {
                items.remove(rng.next(items.len()));
            }
        }
        // Swap two items (reorder; FIFO key matching must stay sound).
        4 => {
            let (i, j) = (rng.next(items.len()), rng.next(items.len()));
            items.swap(i, j);
        }
        // Flip a definition's signature domain: callers may start or
        // stop meeting it, and a refinement may name another define.
        5 | 6 => {
            let (at, d) = (rng.next(items.len()), rng.next(doms.len()));
            if let Some(Item::Define { dom, .. }) = items.get_mut(at) {
                *dom = doms[d];
            }
        }
        // Tweak a value define's constant (possibly below zero).
        7 => {
            let at = rng.next(items.len());
            if let Some(Item::Value { c, .. } | Item::Alias { c, .. } | Item::Redefine { c, .. }) =
                items.get_mut(at)
            {
                *c -= 1;
            }
        }
        // Tweak a call site.
        _ => {
            let at = rng.next(items.len());
            if let Some(Item::Call { arg, .. }) = items.get_mut(at) {
                *arg += 1;
            }
        }
    }
}

#[test]
fn random_edit_scripts_match_the_from_scratch_path() {
    // Splices past a changed binding, over all scripts: the oracle must
    // actually see the dependency splice at work.
    let mut dep_spliced = 0;
    for seed in 1..=24u64 {
        let warm = Session::new(SessionConfig::default());
        let scratch = Session::new(SessionConfig::default());
        let mut rng = Rng(seed);
        let mut fresh_name = 7;
        let mut items: Vec<Item> = (0..4)
            .map(|name| Item::Define {
                name,
                a: name as i64,
                body: if name == 0 {
                    Body::Clean
                } else {
                    Body::Calls(name - 1)
                },
                dom: Dom::Int,
            })
            .collect();
        items.insert(1, Item::Value { name: 4, c: 5 });
        items.insert(3, Item::Alias { name: 5, c: 2 });
        items.insert(4, Item::Unannotated { name: 6, a: 1 });
        items.push(Item::Call { callee: 3, arg: 1 });

        for step in 0..12 {
            // Step 0 checks the seed module cold; later steps mutate
            // (and sometimes only re-render trivia, exercising the
            // pure-splice path).
            if step > 0 && rng.next(8) != 0 {
                mutate(&mut items, &mut rng, &mut fresh_name);
            }
            let src = render(&items, &mut rng);
            let file = SourceFile::new("props.rtr", &src);
            let incremental = warm.check(&file);
            dep_spliced += incremental.stats.trace.map_or(0, |t| t.dep_spliced);
            scratch.forget(&file.name);
            let full = scratch.check(&file);
            assert_eq!(
                full.stats.trace.map(|t| t.skipped),
                Some(0),
                "the comparator must run cold"
            );
            assert_eq!(
                report_key(&incremental, &src),
                report_key(&full, &src),
                "seed {seed} step {step} diverged; source:\n{src}"
            );
        }
    }
    assert!(dep_spliced > 0, "no script spliced past a changed binding");
}

#[test]
fn a_disjunction_naming_a_deleted_define_blocks_the_splice() {
    // `k`'s poisoned binding stores `w ∈ Int ∨ k ∈ Bool`. While `w` is a
    // function both disjuncts are absurd, so `d`'s unprovable range
    // checks vacuously; deleting `w`, which `d` never names, makes `d`
    // fail. The stored disjunction is a way to read `w` without naming
    // it, so the driver must not splice `d` past `w`'s deletion.
    let w = "(: w : [x : Int] -> Int)\n(define (w x) x)\n";
    let text = |with_w: bool| {
        format!(
            "(define k : (Refine [n : Int] (or (is w Int) (is n Bool))) 3)\n{}\
             (: d : [y : Int] -> (Refine [r : Int] (< r 0)))\n(define (d y) 5)\n",
            if with_w { w } else { "" }
        )
    };
    let warm = Session::new(SessionConfig::default());
    for with_w in [true, false, true] {
        let src = text(with_w);
        let file = SourceFile::new("disj.rtr", &src);
        let incremental = warm.check(&file);
        let full = Session::new(SessionConfig::default()).check(&file);
        assert_eq!(incremental.stats.errors, if with_w { 1 } else { 2 });
        assert_eq!(report_key(&incremental, &src), report_key(&full, &src));
    }
}

/// Checks each step's text on one warm session and asserts that every
/// report equals a cold check's; returns the warm error counts.
fn warm_matches_cold(name: &str, steps: &[String]) -> Vec<usize> {
    let warm = Session::new(SessionConfig::default());
    steps
        .iter()
        .map(|src| {
            let file = SourceFile::new(name, src.as_str());
            let incremental = warm.check(&file);
            let full = Session::new(SessionConfig::default()).check(&file);
            assert_eq!(
                report_key(&incremental, src),
                report_key(&full, src),
                "warm and cold disagree on:\n{src}"
            );
            incremental.stats.errors
        })
        .collect()
}

#[test]
fn a_binding_leaving_the_empty_type_rechecks_the_items_it_made_vacuous() {
    // `z` is `set!` somewhere, so binding it learns nothing: at the empty
    // type it makes every later environment inconsistent without
    // marking it absurd. The ill-typed `f`, which never names `z`, then
    // checks vacuously and is cached clean; re-typing `z` must re-check
    // `f`.
    let text = |ty: &str| {
        format!(
            "(define z : {ty} 0)\n(: m : [x : Int] -> Int)\n(define (m x) (begin (set! z 3) x))\n\
             (: f : [x : Int] -> Int)\n(define (f x) (+ x #t))\n"
        )
    };
    let errors = warm_matches_cold("empty.rtr", &[text("(U)"), text("Int"), text("(U)")]);
    assert_eq!(errors, [1, 1, 1]);
}

#[test]
fn editing_a_value_define_named_by_a_callees_signature_rechecks_the_caller() {
    // `c` reads `k` only through `h`'s signature.
    let text = |k: i64| {
        format!(
            "(define k {k})\n(: h : [y : (Refine [n : Int] (< n k))] -> Int)\n(define (h y) y)\n\
             (: c : [y : Int] -> Int)\n(define (c y) (h 4))\n"
        )
    };
    let errors = warm_matches_cold("sig.rtr", &[text(5), text(3), text(5)]);
    assert_eq!(errors, [0, 1, 0]);
}

#[test]
fn deleting_a_define_named_only_by_a_type_in_a_body_rechecks_the_reader() {
    // `d` reads `w` only through the refinement in an ascription or in a
    // lambda parameter's type: deleting `w` must re-check `d`, which
    // then cannot prove `w ∉ False`.
    let w = "(: w : [x : Int] -> Int)\n(define (w x) x)\n";
    let reads = [
        "(ann y (Refine [n : Int] (isnot w False)))",
        "((lambda ([p : (Refine [n : Int] (isnot w False))]) p) y)",
    ];
    for body in reads {
        let text = |with_w: bool| {
            format!(
                "{}(: d : [y : Int] -> Int)\n(define (d y) {body})\n\
                 (: e : [y : Int] -> Int)\n(define (e y) y)\n",
                if with_w { w } else { "" }
            )
        };
        let warm = Session::new(SessionConfig::default());
        for with_w in [true, false, true] {
            let src = text(with_w);
            let file = SourceFile::new("ann.rtr", &src);
            let incremental = warm.check(&file);
            let full = Session::new(SessionConfig::default()).check(&file);
            assert_eq!(incremental.stats.errors, usize::from(!with_w), "{body}");
            assert_eq!(report_key(&incremental, &src), report_key(&full, &src));
        }
    }
}

#[test]
fn one_item_edit_reuses_the_unchanged_items() {
    let session = Session::new(SessionConfig::default());
    let mut rng = Rng(7);
    let items: Vec<Item> = (0..6)
        .map(|name| Item::Define {
            name,
            a: name as i64,
            body: Body::Clean,
            dom: Dom::Int,
        })
        .collect();
    let src = render(&items, &mut rng);
    let cold = session.check(&SourceFile::new("edit.rtr", &src));
    assert!(cold.is_clean());

    // Edit one body; everything else must splice.
    let mut edited = items;
    if let Item::Define { a, .. } = &mut edited[2] {
        *a = 99;
    }
    let src2 = render(&edited, &mut rng);
    let warm = session.check(&SourceFile::new("edit.rtr", &src2));
    assert!(warm.is_clean());
    assert_eq!(
        warm.stats.trace.map(|t| t.rechecked),
        Some(1),
        "exactly the edited item"
    );
    assert!(
        warm.stats.trace.map(|t| t.skipped).is_some_and(|u| u >= 4),
        "the other defines must be reused, got {:?}",
        warm.stats.trace.map(|t| t.skipped)
    );
}

/// A definition whose body is an `n`-binder `let` alias chain: nested
/// past the checker's 160-level inline-stack limit for large `n`, so
/// the module runs on the big-stack worker.
fn alias_chain(n: usize) -> String {
    let mut binds = String::from("(let ([a0 (len v)])\n");
    for k in 1..n {
        binds.push_str(&format!("(let ([a{k} a{}])\n", k - 1));
    }
    format!(
        "(define (chain [v : (Vecof Int)] [i : Int])\n{binds}(if (and (<= 0 i) (< i a{})) (safe-vec-ref v i) 0){})\n",
        n - 1,
        ")".repeat(n)
    )
}

#[test]
fn deep_modules_splice_on_the_big_stack() {
    // The reader and elaborator recurse once per binder; 200 binders
    // need more than a debug build's default 2 MiB test-thread stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(deep_module_edit)
        .expect("spawn")
        .join()
        .expect("deep module edit");
}

fn deep_module_edit() {
    let session = Session::new(SessionConfig::default());
    let mut rng = Rng(11);
    let items: Vec<Item> = (0..3)
        .map(|name| Item::Define {
            name,
            a: name as i64,
            body: Body::Clean,
            dom: Dom::Int,
        })
        .collect();
    let src = format!("{}{}", render(&items, &mut rng), alias_chain(200));
    let cold = session.check(&SourceFile::new("deep.rtr", &src));
    assert!(cold.is_clean(), "{:#?}", cold.diagnostics);
    assert_eq!(cold.stats.trace.map(|t| t.rechecked), Some(4));

    // Edit one shallow body: the deep chain still splices.
    let mut edited = items;
    if let Item::Define { a, .. } = &mut edited[1] {
        *a = 99;
    }
    let src2 = format!("{}{}", render(&edited, &mut rng), alias_chain(200));
    let file = SourceFile::new("deep.rtr", &src2);
    let warm = session.check(&file);
    assert_eq!(
        warm.stats.trace.map(|t| t.rechecked),
        Some(1),
        "exactly the edited item"
    );
    assert_eq!(warm.stats.trace.map(|t| t.skipped), Some(3));
    let fresh = Session::new(SessionConfig::default()).check(&file);
    assert_eq!(report_key(&warm, &src2), report_key(&fresh, &src2));
}

/// Like [`warm_matches_cold`] on a session built from `config`, but
/// returns each warm check's `(rechecked, errors)`.
fn warm_counts_match_cold(
    config: &SessionConfig,
    name: &str,
    steps: &[String],
) -> Vec<(u64, usize)> {
    let warm = Session::new(config.clone());
    steps
        .iter()
        .map(|src| {
            let file = SourceFile::new(name, src.as_str());
            let incremental = warm.check(&file);
            let full = Session::new(config.clone()).check(&file);
            assert_eq!(
                report_key(&incremental, src),
                report_key(&full, src),
                "warm and cold disagree on:\n{src}"
            );
            let t = incremental.stats.trace.expect("incremental path");
            (t.rechecked, incremental.stats.errors)
        })
        .collect()
}

#[test]
fn error_items_splice_and_move_with_the_edits_around_them() {
    // `b` fails with a label on its signature, the trailing `(add1 #t)`
    // fails as the module's last expression. Inserts, trivia and
    // re-indentation move them; a reorder moves `b` itself; breaking
    // and fixing items re-checks exactly the edited one.
    let a = "(: a : [x : Int] -> Int)\n(define (a x) (+ x 1))\n";
    let h = "(: h : [y : Int] -> Int)\n(define (h y) y)\n";
    let b_sig = "(: b : [x : Int] -> Int)\n";
    let b_bad = "(define (b x) (+ x #t))\n";
    let b_ok = "(define (b x) (+ x 2))\n";
    let c_ok = "(: c : [x : Int] -> Int)\n(define (c x) (a x))\n";
    let c_bad = "(: c : [x : Int] -> Int)\n(define (c x) (a #f))\n";
    let e = "(add1 #t)\n";
    let steps = [
        format!("{a}{b_sig}{b_bad}{c_ok}{e}"),
        // Insert a helper above everything.
        format!("{h}{a}{b_sig}{b_bad}{c_ok}{e}"),
        // Trivia between b's signature and its define.
        format!("{h}{a}{b_sig}; moved\n\n{b_bad}{c_ok}{e}"),
        // Re-indent b's define: its columns move, its text does not.
        format!("{h}{a}{b_sig}; moved\n\n   {b_bad}{c_ok}{e}"),
        // Move b below c.
        format!("{h}{a}{c_ok}{b_sig}; moved\n\n   {b_bad}{e}"),
        // Break c, then fix it.
        format!("{h}{a}{c_bad}{b_sig}; moved\n\n   {b_bad}{e}"),
        format!("{h}{a}{c_ok}{b_sig}; moved\n\n   {b_bad}{e}"),
        // The failing last expression stops being last.
        format!("{h}{a}{c_ok}{b_sig}; moved\n\n   {b_bad}{e}(a 3)\n"),
        // Fix b, break it again.
        format!("{h}{a}{c_ok}{b_sig}{b_ok}{e}(a 3)\n"),
        format!("{h}{a}{c_ok}{b_sig}{b_bad}{e}(a 3)\n"),
        // Delete the helper, and the trailing call.
        format!("{a}{c_ok}{b_sig}{b_bad}{e}"),
    ];
    let counts = warm_counts_match_cold(&SessionConfig::default(), "moves.rtr", &steps);
    assert_eq!(
        counts,
        [
            (4, 2),
            (1, 2),
            (0, 2),
            (0, 2),
            (0, 2),
            (1, 3),
            (1, 2),
            (1, 2),
            (1, 1),
            (1, 2),
            (0, 2)
        ]
    );
}

#[test]
fn a_cached_failing_item_after_a_starved_one_comes_back_as_e0202() {
    // Every item forks a budget of `max_steps`; `h`'s heavy body
    // exhausts it, which degrades the rest of the run. `b`'s ordinary
    // failure is cached by the first check, but once `h` starves, a cold
    // check reports `b` as E0202 — so must the warm one.
    let heavy = format!("(begin {}x)", "(+ x 1) ".repeat(400));
    let text = |h_body: &str| {
        format!(
            "(: h : [x : Int] -> Int)\n(define (h x) {h_body})\n\
             (: b : [x : Int] -> Int)\n(define (b x) (+ x #t))\n"
        )
    };
    let config = SessionConfig {
        checker: CheckerConfig {
            max_steps: Some(300),
            ..CheckerConfig::default()
        },
        ..SessionConfig::default()
    };
    let (light, starved) = (text("x"), text(&heavy));
    let check = |session: &Session, src: &str| {
        let r = session.check(&SourceFile::new("starved.rtr", src));
        let t = r.stats.trace.expect("incremental path");
        (t.rechecked, r)
    };
    let warm = Session::new(config.clone());
    let (n, first) = check(&warm, &light);
    assert_eq!((n, first.stats.errors), (2, 1));
    // How far `h` gets before it starves depends on the memo tables a
    // session has warmed, so only `b`'s verdict is compared whole.
    let (n, warm_starved) = check(&warm, &starved);
    let (_, cold_starved) = check(&Session::new(config.clone()), &starved);
    assert_eq!(n, 2, "b must not splice into a degraded run");
    for r in [&warm_starved, &cold_starved] {
        let codes: Vec<&str> = r.diagnostics.iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["E0202", "E0202"], "{:#?}", r.diagnostics);
    }
    let render = |d: &Diagnostic| rtr::core::diag::render(d, "starved.rtr", &starved);
    assert_eq!(
        render(&warm_starved.diagnostics[1]),
        render(&cold_starved.diagnostics[1])
    );
    // The degraded verdict was not cached: back to the light `h`, `b`
    // re-checks and fails ordinarily again.
    let (n, again) = check(&warm, &light);
    let (_, cold) = check(&Session::new(config), &light);
    assert_eq!(n, 2);
    assert_eq!(report_key(&again, &light), report_key(&cold, &light));
}
