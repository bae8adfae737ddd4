//! Seeded input generators: the `cold_modules` mix and the `edit_loop`
//! composite document with its edit script. Every generator also knows
//! the answer the checker must give, independently of the checker.

use crate::util::{Digest, Rng};

/// The theory family a module's checking time is filed under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// No theory beyond occurrence typing (filler, alias and narrowing chains).
    Plain,
    /// Linear integer arithmetic (`dot-prod` loops, corpus bounds proofs).
    Lin,
    /// Bitvectors (`xtime`, mask chains).
    Bv,
    /// Regular expressions (string validators).
    Re,
    /// Modules whose verdict carries errors (the recovery path).
    Errors,
}

/// One module of the `cold_modules` mix with its known answer.
pub struct ColdModule {
    pub name: &'static str,
    pub text: String,
    pub items: usize,
    /// Error diagnostics the module must produce, all `E0002`.
    pub errors: usize,
    pub family: Family,
}

// ---------------------------------------------------------------------------
// Item templates
//
// The benchmark's inputs are frozen here rather than taken from the
// `rtr-bench` fixtures they were copied from: the benchmark compares a
// change against its parent on the same inputs, so a later edit to those
// shared fixtures must not change what it measures. Every template gives
// one item on exactly two lines, a signature and a definition, and both
// the `cold_modules` mix and the `edit_loop` document are built from them.
// ---------------------------------------------------------------------------

/// A Bool body against an Int range: exactly one `E0002`.
const ILL_TYPED: &str = "(int? x)";

/// The string helper's body.
const DIGITS_BODY: &str = "(string-length s)";

/// A two-argument definition with an Int range; `y` is the type of its
/// second parameter.
fn linear(name: &str, y: &str, body: &str) -> String {
    format!("(: {name} : [x : Int] [y : {y}] -> Int)\n(define ({name} x y) {body})\n")
}

fn linear_body(m: usize, c: usize) -> String {
    format!("(+ (* {m} x) (- y {c}))")
}

/// Calls the linear definition `target` with a non-negative constant.
fn caller(name: &str, target: &str, k: usize) -> String {
    format!("(: {name} : [x : Int] -> Int)\n(define ({name} x) ({target} x {k}))\n")
}

/// §2.1's `dot-prod` with its dynamic length guard.
fn dot_prod(name: &str) -> String {
    format!(
        "(: {name} : [A : (Vecof Int)] [B : (Vecof Int)] -> Int)\n\
         (define ({name} A B) (begin (unless (= (len A) (len B)) (error \"invalid vector lengths!\")) \
         (for/sum ([i (in-range (len A))]) (* (safe-vec-ref A i) (safe-vec-ref B i)))))\n"
    )
}

/// §2.2's `xtime` over bitvectors.
fn xtime(name: &str) -> String {
    format!(
        "(: {name} : [num : Byte] -> Byte)\n\
         (define ({name} num) (let ([n (AND (bv* #x02 num) #xff)]) \
         (cond [(bv= #x00 (AND num #x80)) n] [else (XOR n #x1b)])))\n"
    )
}

/// A regex-refined string helper.
fn digits(name: &str, body: &str) -> String {
    format!(
        "(: {name} : [s : Str #:where (=~ s #rx\"[0-9]+\")] -> Int)\n(define ({name} s) {body})\n"
    )
}

/// A validator that calls the string helper `helper` under two regex
/// tests, the inner one counted `{m,}`.
fn parse(name: &str, helper: &str, m: usize) -> String {
    format!(
        "(: {name} : Str -> Int)\n(define ({name} s) (if (regexp-match? #rx\"[0-9]+\" s) \
         (if (regexp-match? #rx\"[0-9]{{{m},}}\" s) ({helper} s) ({helper} s)) 0))\n"
    )
}

/// `n` well-typed linear definitions `u{k}`.
fn filler(n: usize, salt: usize) -> String {
    (0..n)
        .map(|k| {
            linear(
                &format!("u{k}"),
                "Int",
                &linear_body(2 + salt % 3, (k + salt) % 7),
            )
        })
        .collect()
}

/// Every third definition is ill typed: one `E0002` each, the rest well
/// typed.
fn many_errors(n: usize, salt: usize) -> String {
    (0..n)
        .map(|k| {
            if k % 3 == 0 {
                linear(&format!("e{k}"), "Int", ILL_TYPED)
            } else {
                linear(&format!("w{k}"), "Int", &linear_body(2, (k + salt) % 7))
            }
        })
        .collect()
}

fn dot_prods(n: usize) -> String {
    (0..n).map(|k| dot_prod(&format!("dp{k}"))).collect()
}

fn xtimes(n: usize) -> String {
    (0..n).map(|k| xtime(&format!("xt{k}"))).collect()
}

/// `n` string helper/validator pairs.
fn string_pairs(n: usize, salt: usize) -> String {
    (0..n)
        .map(|k| {
            let helper = format!("digits{k}");
            digits(&helper, DIGITS_BODY) + &parse(&format!("parse{k}"), &helper, (k + salt) % 4 + 1)
        })
        .collect()
}

/// A guarded access behind `n` let-aliases of a vector length.
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

/// `n` union-typed parameters, each narrowed before all are summed.
fn narrowing_chain(n: usize) -> String {
    let params: String = (0..n).map(|k| format!("[x{k} : (U Int Bool)] ")).collect();
    let mut body = "0".to_owned();
    for k in (0..n).rev() {
        body = format!("(+ x{k} {body})");
    }
    for k in (0..n).rev() {
        body = format!("(if (int? x{k}) {body} 0)");
    }
    let names: Vec<String> = (0..n).map(|k| format!("x{k}")).collect();
    format!(
        "(: narrow : {params}-> Int)\n(define (narrow {}) {body})\n",
        names.join(" ")
    )
}

/// One bitvector narrowed through `n` mask tests.
fn bv_chain(n: usize, salt: usize) -> String {
    let mut binds = String::from("(let ([b0 (AND num #xff)])\n");
    for k in 1..=n {
        let mask = 1u64 << ((k + salt) % 8);
        binds.push_str(&format!(
            "(let ([b{k} (if (bv= #x00 (AND num #x{mask:02x})) b{p} (AND (XOR b{p} #x01) #xff))])\n",
            p = k - 1
        ));
    }
    format!(
        "(: bvchain : [num : Byte] -> Byte)\n(define (bvchain num)\n{binds}(AND b{n} #xff){})\n",
        ")".repeat(n + 1)
    )
}

/// The `cold_modules` mix at both sizes, in a seeded order.
pub fn cold_mix(seed: u64) -> Vec<ColdModule> {
    let mut rng = Rng::new(seed);
    let salt = rng.below(1 << 16);
    let m = |name, text, items, errors, family| ColdModule {
        name,
        text,
        items,
        errors,
        family,
    };
    let mut mix = vec![
        m("filler_50", filler(50, salt), 50, 0, Family::Plain),
        m("filler_500", filler(500, salt), 500, 0, Family::Plain),
        m(
            "many_errors_50",
            many_errors(50, salt),
            50,
            17,
            Family::Errors,
        ),
        m(
            "many_errors_500",
            many_errors(500, salt),
            500,
            167,
            Family::Errors,
        ),
        m("dot_prod_8", dot_prods(8), 8, 0, Family::Lin),
        m("dot_prod_32", dot_prods(32), 32, 0, Family::Lin),
        m("xtime_4", xtimes(4), 4, 0, Family::Bv),
        m("xtime_16", xtimes(16), 16, 0, Family::Bv),
        m("string_8", string_pairs(8, salt), 16, 0, Family::Re),
        m("string_32", string_pairs(32, salt), 64, 0, Family::Re),
        m("alias_chain_512", alias_chain(512), 1, 0, Family::Plain),
        m(
            "narrowing_chain_32",
            narrowing_chain(32),
            1,
            0,
            Family::Plain,
        ),
        m("bv_chain_6", bv_chain(6, salt), 1, 0, Family::Bv),
    ];
    rng.shuffle(&mut mix);
    mix
}

// ---------------------------------------------------------------------------
// The edit_loop document and its edit script
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Kind {
    /// `u{id}`: a linear helper; `refined` narrows its `y` to naturals.
    Helper {
        m: usize,
        c: usize,
        refined: bool,
        broken: bool,
    },
    /// `c{id}` calls helper `u{target}`.
    Caller { target: usize },
    /// `e{id}`: an ill-typed definition the script never edits.
    Bad,
    /// `dp{id}`: §2.1's `dot-prod`.
    DotProd,
    /// `digits{id}`: a regex-refined string helper.
    StrHelper { padded: bool },
    /// `parse{id}` calls `digits{target}` under two regex tests.
    StrCaller { target: usize, m: usize },
}

#[derive(Clone, Debug)]
struct Item {
    id: usize,
    kind: Kind,
}

impl Item {
    fn name(&self) -> String {
        let id = self.id;
        match self.kind {
            Kind::Helper { .. } => format!("u{id}"),
            Kind::Caller { .. } => format!("c{id}"),
            Kind::Bad => format!("e{id}"),
            Kind::DotProd => format!("dp{id}"),
            Kind::StrHelper { .. } => format!("digits{id}"),
            Kind::StrCaller { .. } => format!("parse{id}"),
        }
    }

    fn broken(&self) -> bool {
        matches!(self.kind, Kind::Bad | Kind::Helper { broken: true, .. })
    }

    /// The item's two lines: its signature, then its definition.
    fn render(&self) -> String {
        let name = self.name();
        match &self.kind {
            Kind::Helper {
                m,
                c,
                refined,
                broken,
            } => {
                let y = if *refined {
                    "(Refine [n : Int] (>= n 0))"
                } else {
                    "Int"
                };
                let body = if *broken {
                    ILL_TYPED.to_owned()
                } else {
                    linear_body(*m, *c)
                };
                linear(&name, y, &body)
            }
            Kind::Caller { target } => caller(&name, &format!("u{target}"), self.id % 5),
            Kind::Bad => linear(&name, "Int", ILL_TYPED),
            Kind::DotProd => dot_prod(&name),
            Kind::StrHelper { padded } => digits(
                &name,
                if *padded {
                    "(+ (string-length s) 0)"
                } else {
                    DIGITS_BODY
                },
            ),
            Kind::StrCaller { target, m } => parse(&name, &format!("digits{target}"), *m),
        }
    }
}

/// What the edit did, for the per-kind latency split.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EditKind {
    /// A helper's body constant changes; its signature does not.
    Body,
    /// A called helper's `y` domain flips between `Int` and a
    /// non-negative refinement, which dirties its callers.
    Signature,
    /// A clean helper's body becomes ill typed.
    Break,
    /// The helper the last break broke is restored.
    Fix,
    /// A new helper is inserted, shifting every later offset.
    Insert,
    /// The helper the last insert added is deleted.
    Delete,
    /// Two body edits sent back to back; the first may be cancelled.
    Burst,
}

impl EditKind {
    pub const ALL: [EditKind; 7] = [
        EditKind::Body,
        EditKind::Signature,
        EditKind::Break,
        EditKind::Fix,
        EditKind::Insert,
        EditKind::Delete,
        EditKind::Burst,
    ];
}

/// A version of the document and the answer for it.
pub struct Version {
    pub text: String,
    /// 0-based lines of the definitions that must carry one `E0002`.
    pub broken_lines: Vec<u32>,
    /// Per item in check order: its id and a hash of its text, so a
    /// client can tell which items an edit left untouched.
    pub keys: Vec<(usize, u64)>,
}

/// One scripted edit: one version (two for a burst) and a hover target.
pub struct Edit {
    pub kind: EditKind,
    /// An intermediate version sent just before `last` (bursts only).
    pub first: Option<Version>,
    pub last: Version,
    /// Hover: 0-based line of a definition and the name expected there.
    pub hover_line: u32,
    pub hover_name: String,
    pub hover_poisoned: bool,
}

/// The composite document and the seeded script that edits it.
pub struct EditScript {
    rng: Rng,
    items: Vec<Item>,
    /// Ids above this belong to helpers the script inserted.
    opened_ids: usize,
    next_id: usize,
    /// Edit kinds still to play in the current round of [`EDIT_MIX`].
    deck: Vec<EditKind>,
}

// The document's make-up. Nothing in the repository records what real
// documents under edit look like, so these are assumptions, chosen as
// follows. The families are the `cold_modules` blocks: one `many_errors`
// block of 50 items at the smaller size, so the document carries that
// block's 17 ill-typed definitions (the baseline error count stays
// small), plus `dot_prod_32` and `string_32`. Linear helpers and their
// callers fill the rest up to 500 items, one caller per five helpers, so
// most helpers are leaves as in `filler` and a called helper has one or
// two callers.

/// Ill-typed definitions: the `many_errors_50` block's 17.
const ILL_TYPED_ITEMS: usize = 17;
/// Linear helpers: the block's 33 well-typed ones plus 290 filler ones.
const HELPERS: usize = 323;
const CALLERS: usize = 64;
const DOT_PRODS: usize = 32;
const STRING_PAIRS: usize = 32;

/// Weights of the edit kinds, out of 8. Nothing in the repository
/// records how often each kind of edit happens, so these are assumptions.
/// With full-text sync every keystroke inside a definition sends a body
/// edit, so body edits get half of all edits; the structural kinds
/// (signature, break/fix, insert/delete) and two-version bursts get one
/// eighth each. The share also keeps the median latency inside the body
/// edits' cluster: with equal weights for the four edit families it fell
/// among the bursts, whose latency depends on whether the first version
/// was cancelled in time. Each round of 8 edits plays every kind as often
/// as its weight, in a seeded order, so every run has the same mix. A
/// `Break` turns into the `Fix` of the helper it broke on its next turn,
/// and an `Insert` into the `Delete` of the helper it added, so every
/// error the script makes is later fixed and the document stays at about
/// 500 items.
const EDIT_MIX: [(EditKind, usize); 5] = [
    (EditKind::Body, 4),
    (EditKind::Signature, 1),
    (EditKind::Break, 1),
    (EditKind::Insert, 1),
    (EditKind::Burst, 1),
];

impl EditScript {
    pub fn new(seed: u64) -> EditScript {
        let mut rng = Rng::new(seed ^ 0xED17);
        let mut items: Vec<Item> = Vec::new();
        let mut id = 0usize;
        let mut fresh = |kind| {
            id += 1;
            Item { id, kind }
        };
        for _ in 0..HELPERS {
            let (m, c) = (2 + rng.below(3), rng.below(9));
            items.push(fresh(Kind::Helper {
                m,
                c,
                refined: false,
                broken: false,
            }));
        }
        for _ in 0..ILL_TYPED_ITEMS {
            items.push(fresh(Kind::Bad));
        }
        for _ in 0..DOT_PRODS {
            items.push(fresh(Kind::DotProd));
        }
        let mut string_helpers = Vec::new();
        for _ in 0..STRING_PAIRS {
            let h = fresh(Kind::StrHelper { padded: false });
            string_helpers.push(h.id);
            items.push(h);
        }
        rng.shuffle(&mut items);
        // Callers go after their callee; string callers right after theirs.
        for target in string_helpers {
            let at = items.iter().position(|it| it.id == target).expect("placed") + 1;
            let m = 1 + rng.below(4);
            items.insert(at, fresh(Kind::StrCaller { target, m }));
        }
        let helpers: Vec<usize> = items
            .iter()
            .filter(|it| matches!(it.kind, Kind::Helper { .. }))
            .map(|it| it.id)
            .collect();
        for _ in 0..CALLERS {
            let target = helpers[rng.below(helpers.len())];
            let after = items.iter().position(|it| it.id == target).expect("placed");
            let at = after + 1 + rng.below(items.len() - after);
            items.insert(at, fresh(Kind::Caller { target }));
        }
        EditScript {
            rng,
            items,
            opened_ids: id,
            next_id: id,
            deck: Vec::new(),
        }
    }

    pub fn version(&self) -> Version {
        let mut text = String::new();
        let mut keys = Vec::with_capacity(self.items.len());
        for it in &self.items {
            let rendered = it.render();
            let mut d = Digest::new();
            d.add(&rendered);
            keys.push((it.id, d.value()));
            text.push_str(&rendered);
        }
        let broken_lines = self
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.broken())
            .map(|(i, _)| 2 * i as u32 + 1)
            .collect();
        Version {
            text,
            broken_lines,
            keys,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Indices of the items for which `pred` holds.
    fn indices(&self, pred: impl Fn(&Item) -> bool) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| pred(&self.items[i]))
            .collect()
    }

    fn pick(&mut self, from: &[usize]) -> usize {
        from[self.rng.below(from.len())]
    }

    /// Changes one body without touching any signature.
    fn body_edit(&mut self) {
        let pool = self.indices(|it| {
            matches!(
                it.kind,
                Kind::Helper { broken: false, .. } | Kind::StrHelper { .. }
            )
        });
        let i = self.pick(&pool);
        let bump = 1 + self.rng.below(8);
        match &mut self.items[i].kind {
            Kind::Helper { c, .. } => *c = (*c + bump) % 9,
            Kind::StrHelper { padded } => *padded = !*padded,
            _ => unreachable!("pool holds helpers"),
        }
    }

    /// Applies one scripted edit and returns it.
    pub fn next_edit(&mut self) -> Edit {
        if self.deck.is_empty() {
            self.deck = EDIT_MIX
                .iter()
                .flat_map(|&(k, w)| std::iter::repeat_n(k, w))
                .collect();
            self.rng.shuffle(&mut self.deck);
        }
        let mut kind = self.deck.pop().expect("a full deck");
        let broken = self.indices(|it| matches!(it.kind, Kind::Helper { broken: true, .. }));
        if kind == EditKind::Break && !broken.is_empty() {
            kind = EditKind::Fix;
        }
        let added = self.indices(|it| it.id > self.opened_ids);
        if kind == EditKind::Insert && !added.is_empty() {
            kind = EditKind::Delete;
        }
        let mut first = None;
        match kind {
            EditKind::Body => self.body_edit(),
            EditKind::Burst => {
                self.body_edit();
                first = Some(self.version());
                self.body_edit();
            }
            EditKind::Signature => {
                let called: Vec<usize> = self
                    .items
                    .iter()
                    .filter_map(|it| match it.kind {
                        Kind::Caller { target } => Some(target),
                        _ => None,
                    })
                    .collect();
                let pool = self.indices(|it| called.contains(&it.id));
                let i = self.pick(&pool);
                if let Kind::Helper { refined, .. } = &mut self.items[i].kind {
                    *refined = !*refined;
                }
            }
            EditKind::Break | EditKind::Fix => {
                let pool = if kind == EditKind::Break {
                    self.indices(|it| matches!(it.kind, Kind::Helper { broken: false, .. }))
                } else {
                    broken
                };
                let i = self.pick(&pool);
                if let Kind::Helper { broken, .. } = &mut self.items[i].kind {
                    *broken = !*broken;
                }
            }
            EditKind::Insert => {
                self.next_id += 1;
                let (m, c) = (2 + self.rng.below(3), self.rng.below(9));
                let at = self.rng.below(self.items.len() + 1);
                self.items.insert(
                    at,
                    Item {
                        id: self.next_id,
                        kind: Kind::Helper {
                            m,
                            c,
                            refined: false,
                            broken: false,
                        },
                    },
                );
            }
            EditKind::Delete => {
                self.items.remove(added[0]);
            }
        }
        let h = self.rng.below(self.items.len());
        let target = &self.items[h];
        Edit {
            kind,
            first,
            last: self.version(),
            hover_line: 2 * h as u32 + 1,
            hover_name: target.name(),
            hover_poisoned: target.broken(),
        }
    }
}
