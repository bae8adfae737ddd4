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
//! touches that must splice everything.

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
    /// `(+ x #t)` — a type error; the definition is poisoned.
    IllTyped,
    /// `(+ x zzz)` — an unbound variable; also poisoned.
    Unbound,
}

#[derive(Clone)]
enum Item {
    Define {
        name: usize,
        a: i64,
        body: Body,
    },
    /// A trailing expression `(u<callee> <arg> 2)`.
    Call {
        callee: usize,
        arg: i64,
    },
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
            Item::Define { name, a, body } => {
                src.push_str(&format!("(: u{name} : [x : Int] [y : Int] -> Int)\n"));
                let body = match body {
                    Body::Clean => format!("(+ (* {a} x) y)"),
                    Body::Calls(dep) => format!("(+ (u{dep} x y) {a})"),
                    Body::IllTyped => "(+ x #t)".to_owned(),
                    Body::Unbound => "(+ x zzz)".to_owned(),
                };
                src.push_str(&format!("(define (u{name} x y) {body})\n"));
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
        r.value.as_ref().map(|v| normalize(&v.ty.to_string()))
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
    let bodies = [
        Body::Clean,
        Body::Calls(rng.next(*fresh_name)),
        Body::IllTyped,
        Body::Unbound,
    ];
    match rng.next(6) {
        // Tweak a definition's coefficient (the classic one-line edit).
        0 => {
            let at = rng.next(items.len());
            if let Some(Item::Define { a, .. }) = items.get_mut(at) {
                *a += 1;
            }
        }
        // Flip a definition's body shape (clean / calls / ill-typed /
        // unbound) — exercises poisoning going stale in both directions.
        1 => {
            let (at, shape) = (rng.next(items.len()), rng.next(bodies.len()));
            if let Some(Item::Define { body, .. }) = items.get_mut(at) {
                *body = bodies[shape];
            }
        }
        // Insert a new definition or call at a random position.
        2 => {
            let at = rng.next(items.len() + 1);
            let item = if rng.next(2) == 0 {
                let name = *fresh_name;
                *fresh_name += 1;
                Item::Define {
                    name,
                    a: rng.next(9) as i64,
                    body: bodies[rng.next(bodies.len())],
                }
            } else {
                Item::Call {
                    callee: rng.next(*fresh_name),
                    arg: rng.next(9) as i64,
                }
            };
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
    for seed in 1..=12u64 {
        let warm = Session::new(SessionConfig::default());
        let scratch = Session::new(SessionConfig::default());
        let mut rng = Rng(seed);
        let mut fresh_name = 4;
        let mut items: Vec<Item> = (0..4)
            .map(|name| Item::Define {
                name,
                a: name as i64,
                body: if name == 0 {
                    Body::Clean
                } else {
                    Body::Calls(name - 1)
                },
            })
            .collect();
        items.push(Item::Call { callee: 3, arg: 1 });

        for step in 0..10 {
            // Step 0 checks the seed module cold; later steps mutate
            // (and sometimes only re-render trivia, exercising the
            // pure-splice path).
            if step > 0 && rng.next(8) != 0 {
                mutate(&mut items, &mut rng, &mut fresh_name);
            }
            let src = render(&items, &mut rng);
            let file = SourceFile::new("props.rtr", &src);
            let incremental = warm.check(&file);
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
