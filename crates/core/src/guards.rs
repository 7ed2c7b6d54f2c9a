//! Branch-condition synthesis (§3.3) and the BDD-backed guard pool.
//!
//! A guard for spec set `Ψ₁` against `Ψ₂` is a boolean expression that
//! evaluates truthy under every setup in `Ψ₁` and falsy under every setup
//! in `Ψ₂` (`def m(x) = b ⊢ Sᵢ; assert x_r ⇓ v` and the negated check).
//!
//! Per the §4 optimizations, cheap candidates are tried before falling back
//! to a fresh type-guided search: the constants `true`/`false`, previously
//! synthesized conditionals, and their negations ("the condition in one
//! spec often turns out to be the negation of the condition in another").
//!
//! **The guard pool.** A merge issues *many* strengthening requests
//! (every Rule-3 pair needs two, across every `⊕` order), and every
//! request used to launch its own work-list search over what is — because
//! guard oracles never report effects, so S-Eff can never reorder the
//! frontier — always the *same* boolean candidate stream. [`GuardPool`]
//! exploits that: it enumerates the stream **once per problem** (lazily,
//! as far as the deepest request needs) and records, per evaluable
//! candidate, a pass/fail **bitvector** over the problem's specs — bit
//! `i` answers "does this candidate run without error under spec `i`'s
//! setup, and is `x_r` truthy?". One interpreter run fills both the
//! truthy and the ok bit for a spec; bits are filled lazily per
//! (candidate, spec) — exactly the specs a request touches — so
//! re-requests, reversed pairs and backtracking re-checks are pure bit
//! arithmetic ([`SearchStats::vector_hits`]). Vectors hold one `u64`
//! word inline for ≤64-spec problems and spill to boxed words beyond
//! that; the old `>64-spec` fallback to eager per-request searches is
//! gone.
//!
//! The enumeration pipeline is **pool-local and lock-free**: candidates
//! hash-cons into a private [`ExprArena`] and S-App templates memoize
//! into a private [`TemplateStore`], so the stream never touches the
//! shared search cache — it is byte-identical with and without
//! `--no-cache`, and it pays none of the shared cache's lock (or
//! `contention`-probe) overhead on the merge's hottest path.
//!
//! **Deferred children.** The pool keeps its own work list, a
//! [`crate::engine::Frontier`] of unbuilt items (strategy priority, then
//! insertion order), and never builds a child it does not pop. Popping
//! an item looks up the complete filling list of its leftmost hole
//! (shared out of the [`FillMemo`]) and pushes one unbuilt `(parent,
//! fills, index)` entry per filling, ranked by the child's size
//! `|parent| − 1 + |fill|`, which needs no tree. Only a child that reaches the top of the list is
//! built, type-narrowed, hash-consed and checked against the `seen` set;
//! one that fails narrowing or is a duplicate is dropped there and does
//! not count as a pop. A filling that closes the parent's last hole
//! makes an evaluable candidate, which is still built at the parent's pop,
//! in list order, and joins the candidate stream at once. The stream is
//! the one eager expansion yields, pop for pop: every guard item has
//! `c = 0`, so its priority depends on its size alone under every
//! strategy; identical expressions have identical sizes, so of several
//! copies the first pushed is also the first popped, and dedup at pop
//! time keeps the survivor dedup at push time would keep. Deferring pays
//! because most children are never popped: on A4, about 2.5M children
//! within `max_guard_size` are still queued when the search ends. Guard
//! items contain no sequences, binders or effect holes (a debug assertion
//! checks each one), so they need no `simplify` pass.
//!
//! **Canonical semantics.** With [`Options::bdd`] (the default), a
//! request's spec sets and every distinct evaluation vector it observes
//! are interned into a reduced-ordered BDD over the spec-index domain
//! ([`rbsyn_bdd`]): semantically equal candidates collapse to one
//! canonical class per request ([`SearchStats::guard_dedup`]), each
//! class's covering verdict is decided **once**, as two BDD-difference
//! satisfiability queries (`Ψ₁ ∖ truthy(c) = ∅ ∧ Ψ₂ ∖ falsy(c) = ∅`),
//! and bits of literal and negated candidates are *derived* from known
//! semantics instead of interpreter runs. Programs and effort counters
//! are byte-identical with `--no-bdd` — only the time differs — which
//! the CI `no-bdd` determinism leg and the debug assertions comparing
//! the BDD verdict against word arithmetic both enforce.
//!
//! [`search_guards`] (the per-request search the pool replaced on the
//! merge path) remains for single-shot callers: it collects *several*
//! oracle-passing guards because the smallest one can be semantically
//! wrong for the final program (only running the merged program against
//! all specs decides, §3.4), so the merge backtracks over alternatives —
//! the pool's [`GuardPool::covering_guards`] reproduces exactly that
//! candidate order and stopping rule.

use crate::engine::{Frontier, Scheduler, SearchStats};
use crate::error::SynthError;
use crate::expand::{fill_first, Expander, FillMemo, TemplateStore};
use crate::generate::{generate_many, GuardOracle, Oracle};
use crate::infer::{infer_ty, Gamma};
use crate::options::Options;
use rbsyn_bdd::{Bdd, IndexDomain, NodeId};
use rbsyn_interp::{InterpEnv, PreparedSpec, Spec, SpecOutcome};
use rbsyn_lang::metrics::node_count;
use rbsyn_lang::{Expr, ExprArena, ExprId, FxBuild, Program, Symbol, Ty, Value};
use rbsyn_trace::Mark;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Extra work-list pops to spend hunting alternative guards after the
/// first oracle-passing one. Each pop can test hundreds of candidates, so
/// this stays small; the odometer only needs a handful of alternatives.
const EXTRA_GUARD_BUDGET: u64 = 300;

/// Widest strengthening-request footprint (`|Ψ₁| + |Ψ₂|`) the semantic
/// class memo covers — the compact class key is footprint-relative, two
/// bits per spec, packed into `u128`s. Wider requests (no merge the
/// odometer generates comes close) still answer correctly; they just
/// decide by word arithmetic alone.
const MAX_SEM_FOOTPRINT: usize = 128;

/// Searches for up to `k` guards satisfying `oracle`, by ascending size.
/// `sched` carries the deadline, cancellation token and memoization handle,
/// as in [`crate::generate::generate`].
#[allow(clippy::too_many_arguments)]
pub fn search_guards(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    oracle: &GuardOracle,
    k: usize,
    opts: &Options,
    sched: &Scheduler,
    stats: &mut SearchStats,
) -> Result<Vec<Expr>, SynthError> {
    rbsyn_lang::failpoint::hit("guards::cover");
    match generate_many(
        env,
        method_name,
        params,
        &Ty::Bool,
        oracle,
        opts,
        opts.max_guard_size,
        sched,
        stats,
        k,
        EXTRA_GUARD_BUDGET,
    ) {
        Ok(gs) => Ok(gs),
        Err(SynthError::Timeout) => Err(SynthError::Timeout),
        Err(_) => Ok(Vec::new()),
    }
}

/// Synthesizes a single guard that is truthy under `pos` setups and falsy
/// under `neg` setups. `known` are previously synthesized conditionals to
/// try (with their negations) before searching.
#[allow(clippy::too_many_arguments)]
pub fn synth_guard(
    env: &InterpEnv,
    method_name: &str,
    params: &[(Symbol, Ty)],
    pos: &[&Spec],
    neg: &[&Spec],
    known: &[Expr],
    opts: &Options,
    sched: &Scheduler,
    stats: &mut SearchStats,
) -> Result<Expr, SynthError> {
    let oracle = GuardOracle::new(env, pos, neg);
    let name_sym = Symbol::intern(method_name);
    let param_syms: Vec<Symbol> = params.iter().map(|(n, _)| *n).collect();

    // Fast path: constants, known conditionals, and negations thereof.
    let mut quick: Vec<Expr> = vec![Expr::Lit(Value::Bool(true)), Expr::Lit(Value::Bool(false))];
    for k in known {
        quick.push(k.clone());
        quick.push(negate(k));
    }
    for cand in quick {
        stats.tested += 1;
        let p = Program::from_parts(name_sym, param_syms.clone(), cand.clone());
        if oracle.test(env, &p).success {
            return Ok(cand);
        }
    }

    // Fall back to type-guided search at type Bool (effect guidance is
    // never used for guards; GuardOracle reports no effects, so S-Eff
    // cannot fire).
    let mut found = search_guards(env, method_name, params, &oracle, 1, opts, sched, stats)?;
    found.pop().ok_or(SynthError::GuardNotFound)
}

/// Everything a [`GuardPool`] needs from the enclosing synthesis run,
/// passed by reference on every call so the pool itself stays a plain
/// owned value inside the merge context.
pub struct GuardQuery<'a> {
    /// Interpreter environment.
    pub env: &'a InterpEnv,
    /// Method name (guard programs are built under it), pre-interned so
    /// per-candidate program construction never touches the symbol table.
    pub name: Symbol,
    /// Method parameters.
    pub params: &'a [(Symbol, Ty)],
    /// All specs of the problem — bit `i` of every vector refers to
    /// `specs[i]`.
    pub specs: &'a [Spec],
    /// Search options (guard size bound, pop budget, strategy, BDD mode).
    pub opts: &'a Options,
    /// Deadline/cancellation and the run's memoization handle.
    pub sched: &'a Scheduler,
}

/// Per-spec prepared check, or why it cannot be evaluated.
enum CheckSlot {
    /// `assert x_r` over the spec's prepared setup.
    Ready(Box<PreparedSpec>),
    /// The spec's own setup failed (a suite bug): the message raised when
    /// a covering request actually touches this spec, mirroring the panic
    /// `GuardOracle::new` used to raise at request time.
    Failed(String),
}

/// Lazily filled pass/fail bitvector of one guard candidate over the
/// problem's specs: `evald` marks which bits are known, `ok` whether the
/// candidate ran to the assert without error, `truthy` whether `x_r` was
/// truthy. One interpreter run per bit, ever; everything else is word
/// arithmetic. One inline word covers ≤64 specs (every Table-1 problem);
/// larger problems spill to boxed words — same engine, no fallback.
#[derive(Clone, Debug)]
enum Bits {
    One { ok: u64, truthy: u64, evald: u64 },
    Wide(Box<WideBits>),
}

/// The spilled representation: parallel word planes.
#[derive(Clone, Debug)]
struct WideBits {
    ok: Vec<u64>,
    truthy: Vec<u64>,
    evald: Vec<u64>,
}

impl Bits {
    fn new(nwords: usize) -> Bits {
        if nwords <= 1 {
            Bits::One {
                ok: 0,
                truthy: 0,
                evald: 0,
            }
        } else {
            Bits::Wide(Box::new(WideBits {
                ok: vec![0; nwords],
                truthy: vec![0; nwords],
                evald: vec![0; nwords],
            }))
        }
    }

    fn evald(&self, s: usize) -> bool {
        match self {
            Bits::One { evald, .. } => evald & (1u64 << s) != 0,
            Bits::Wide(w) => w.evald[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn ok(&self, s: usize) -> bool {
        match self {
            Bits::One { ok, .. } => ok & (1u64 << s) != 0,
            Bits::Wide(w) => w.ok[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn truthy(&self, s: usize) -> bool {
        match self {
            Bits::One { truthy, .. } => truthy & (1u64 << s) != 0,
            Bits::Wide(w) => w.truthy[s / 64] & (1u64 << (s % 64)) != 0,
        }
    }

    fn any_evald(&self) -> bool {
        match self {
            Bits::One { evald, .. } => *evald != 0,
            Bits::Wide(w) => w.evald.iter().any(|&x| x != 0),
        }
    }

    /// Records one spec's outcome (and marks the bit evaluated).
    fn record(&mut self, s: usize, ok_bit: bool, truthy_bit: bool) {
        match self {
            Bits::One { ok, truthy, evald } => {
                let m = 1u64 << s;
                *evald |= m;
                if ok_bit {
                    *ok |= m;
                }
                if truthy_bit {
                    *truthy |= m;
                }
            }
            Bits::Wide(w) => {
                let (i, m) = (s / 64, 1u64 << (s % 64));
                w.evald[i] |= m;
                if ok_bit {
                    w.ok[i] |= m;
                }
                if truthy_bit {
                    w.truthy[i] |= m;
                }
            }
        }
    }
}

/// How a candidate's spec bits can be *derived* from known semantics
/// instead of an interpreter run (BDD mode only).
///
/// Soundness: a literal body evaluates to itself and cannot raise, so its
/// outcome is decided by the spec's own setup health (`setup_ok`); and
/// `!e` evaluates `e` exactly once from the same fresh setup snapshot as
/// `e` alone — identical world trajectory, identical post-steps — so its
/// bits are `ok(e)` and `ok(e) ∧ ¬truthy(e)`. (`e || f` is *not*
/// derived: a write in `e` could change `f`'s world.)
enum Derived {
    /// Literal body with the given truthiness.
    Lit { truthy: bool },
    /// `!inner`, with `inner`'s already-known bits.
    Not(Bits),
}

/// One enumerated evaluable boolean candidate: its hash-consed identity,
/// the work-list pop that produced it (for per-request stopping budgets),
/// and its lazily filled bitvector.
struct GuardCand {
    expr: Arc<Expr>,
    pop: u64,
    bits: Bits,
}

/// An unbuilt item of the guard stream's work list.
enum Pending {
    /// The stream's root, `□:Bool`.
    Root,
    /// `parent` with its leftmost hole replaced by `fills[idx]` — child
    /// `idx` of the parent's expansion, built only when popped.
    Child {
        parent: Arc<Expr>,
        fills: Arc<Vec<Expr>>,
        idx: u32,
    },
}

impl Pending {
    fn build(&self) -> Expr {
        match self {
            Pending::Root => Expr::Hole(Ty::Bool),
            Pending::Child { parent, fills, idx } => {
                fill_first(parent, &fills[*idx as usize]).expect("expanded items have a hole")
            }
        }
    }
}

/// Does `e` have the guard stream's shape? Boolean candidates are built
/// from typed holes, calls, literals, variables, hashes, `!` and `||`
/// only — no sequences, binders or effect holes — which is what makes the
/// pool's fixed-`Γ` fill memo sound and `simplify` an identity.
fn guard_shaped(e: &Expr) -> bool {
    match e {
        Expr::Seq(_) | Expr::Let { .. } | Expr::EffHole(_) => false,
        Expr::Lit(_) | Expr::Var(_) | Expr::Hole(_) => true,
        Expr::Call { recv, args, .. } => guard_shaped(recv) && args.iter().all(guard_shaped),
        Expr::If { cond, then, els } => {
            guard_shaped(cond) && guard_shaped(then) && guard_shaped(els)
        }
        Expr::HashLit(entries) => entries.iter().all(|(_, v)| guard_shaped(v)),
        Expr::Not(b) => guard_shaped(b),
        Expr::Or(a, b) => guard_shaped(a) && guard_shaped(b),
    }
}

/// Pool-local template memo: the same pure S-App/S-EffApp lists the
/// shared cache would compute, without its locks (or their `contention`
/// probes) — the pool enumerates on one thread, so a `RefCell` suffices.
#[derive(Default)]
struct LocalTemplates(RefCell<HashMap<String, Arc<Vec<Expr>>, FxBuild>>);

impl TemplateStore for LocalTemplates {
    fn templates(&self, key: String, compute: &mut dyn FnMut() -> Vec<Expr>) -> Arc<Vec<Expr>> {
        if let Some(v) = self.0.borrow().get(&key) {
            return Arc::clone(v);
        }
        let v = Arc::new(compute());
        self.0.borrow_mut().insert(key, Arc::clone(&v));
        v
    }
}

/// The pool's semantic layer: spec-index sets live as canonical nodes in
/// a shared reduced-ordered BDD, so set inclusion — the covering check —
/// is a pair of difference-is-unsatisfiable queries, decided once per
/// distinct evaluation vector.
struct Semantics {
    bdd: Bdd,
    dom: IndexDomain,
}

impl Semantics {
    fn new(n_specs: usize) -> Semantics {
        Semantics {
            bdd: Bdd::new(),
            dom: IndexDomain::new(n_specs.max(1)),
        }
    }

    /// `Ψ₁ ⊆ truthy-ok(c) ∧ Ψ₂ ⊆ falsy-ok(c)` as satisfiability queries:
    /// covered iff both BDD differences are the canonical FALSE node.
    fn decide(&mut self, rs: &ReqSem, bits: &Bits, pos: &[usize], neg: &[usize]) -> bool {
        let t = self.vector_set(bits, pos, neg, true);
        let f = self.vector_set(bits, pos, neg, false);
        let pd = self.bdd.diff(rs.p, t);
        let nd = self.bdd.diff(rs.n, f);
        self.bdd.is_false(pd) && self.bdd.is_false(nd)
    }

    /// The candidate's evaluated footprint specs where `x_r` ran ok and
    /// was truthy (`want_truthy`) / falsy, as a canonical set node —
    /// semantically equal vectors intern to the same node.
    fn vector_set(
        &mut self,
        bits: &Bits,
        pos: &[usize],
        neg: &[usize],
        want_truthy: bool,
    ) -> NodeId {
        let idxs: Vec<u64> = pos
            .iter()
            .chain(neg)
            .filter(|&&s| bits.evald(s) && bits.ok(s) && bits.truthy(s) == want_truthy)
            .map(|&s| s as u64)
            .collect();
        self.dom.set(&mut self.bdd, idxs)
    }
}

/// A request's interned BDD spec sets plus its semantic-class memo: each
/// footprint-relative evaluation pattern maps to the covering verdict the
/// BDD decided for that class; every later candidate landing in the class
/// is a [`SearchStats::guard_dedup`].
struct ReqSem {
    p: NodeId,
    n: NodeId,
    classes: HashMap<(u128, u128, u128), bool, FxBuild>,
}

/// The candidate's footprint-relative evaluation pattern `(evaluated,
/// ok∧truthy, ok∧falsy)` — bit `j` is the request's `j`-th footprint
/// spec (`pos` then `neg`). Two candidates with equal patterns are
/// indistinguishable to this request, so they share one verdict.
fn class_key(bits: &Bits, pos: &[usize], neg: &[usize]) -> (u128, u128, u128) {
    let (mut e, mut t, mut f) = (0u128, 0u128, 0u128);
    for (j, &s) in pos.iter().chain(neg).enumerate() {
        if bits.evald(s) {
            e |= 1 << j;
            if bits.ok(s) {
                if bits.truthy(s) {
                    t |= 1 << j;
                } else {
                    f |= 1 << j;
                }
            }
        }
    }
    (e, t, f)
}

/// A strengthening request's lazy scan state: how far into the shared
/// candidate stream it has looked, the covering guards found so far,
/// whether its (per-request) stopping rule has latched, and its BDD-side
/// state (spec-set nodes + semantic-class memo) when BDD mode is on.
#[derive(Default)]
struct ReqState {
    found: Vec<Expr>,
    next_cand: usize,
    first: Option<u64>,
    done: bool,
    sem: Option<ReqSem>,
}

/// A strengthening request: spec indices that must be truthy / falsy.
type ReqKey = (Vec<usize>, Vec<usize>);

/// The per-problem guard-covering pool (see the [module docs](self)).
///
/// The pool is deterministic by construction: the candidate stream is the
/// same oracle-independent enumeration every per-request search performed
/// (same expander, same template lists, same work-list order, same
/// survivors of dedup — see "Deferred children" in the module docs), so
/// [`GuardPool::nth_covering_guard`] returns byte-identical guards in
/// byte-identical order — it just never re-enumerates or
/// re-judges anything, and it is **lazy twice over**: the stream extends
/// only as far as the deepest request needs, and a request only scans far
/// enough to answer the guard index the merge actually consumes. The old
/// eager per-request search burned its worst time hunting alternatives
/// #2–#5 plus a 300-pop tail for an odometer that rarely turns; here that
/// work is deferred until a failed validation actually asks for it.
pub struct GuardPool {
    ready: bool,
    checks: Vec<CheckSlot>,
    /// Words per bitvector plane: `⌈|specs| / 64⌉`.
    nwords: usize,
    /// Per-spec setup health learned from interpreter runs: `Some(true)`
    /// once any candidate reached the assert, `Some(false)` once a
    /// literal body — which cannot raise — still produced a setup error.
    /// Feeds literal-bit derivation in BDD mode.
    setup_ok: Vec<Option<bool>>,
    /// The lazy work list (see the [module docs](self)); every item is
    /// pushed with `c = 0`.
    work: Option<Frontier<'static, Pending>>,
    /// Items already popped and evaluable candidates already recorded.
    seen: HashSet<ExprId, FxBuild>,
    gamma: Option<Gamma>,
    pops: u64,
    exhausted: bool,
    cands: Vec<GuardCand>,
    /// Hash-consed candidate id → index into `cands` (derivation lookup).
    cand_idx: HashMap<ExprId, u32, FxBuild>,
    /// Per-request lazy scan state.
    reqs: HashMap<ReqKey, ReqState, FxBuild>,
    /// Bitvectors for ad-hoc expressions (the merge's quick candidates and
    /// rule-6/7 negation guesses), keyed structurally.
    extra_bits: HashMap<Expr, Bits, FxBuild>,
    /// Pool-private hash-consing arena: the enumeration pipeline never
    /// touches the shared cache, so the stream is identical with and
    /// without it — and lock-free either way.
    arena: ExprArena,
    /// Pool-local template memo (see [`LocalTemplates`]).
    templates: LocalTemplates,
    /// Complete hole-filling lists per goal type. Sound here because the
    /// guard stream contains no binders: the pool's `Γ` (the spec
    /// bindings) is fixed for its whole lifetime, so `fill_typed` is a
    /// pure function of the goal (see [`FillMemo`]).
    fill_memo: FillMemo,
    /// BDD semantic layer, present iff [`Options::bdd`].
    sem: Option<Semantics>,
}

impl Default for GuardPool {
    fn default() -> GuardPool {
        GuardPool::new()
    }
}

impl GuardPool {
    /// An empty pool; all state (prepared checks, the enumeration
    /// work list, the BDD) is created lazily on the first request, so
    /// merges that never need a guard pay nothing.
    pub fn new() -> GuardPool {
        GuardPool {
            ready: false,
            checks: Vec::new(),
            nwords: 1,
            setup_ok: Vec::new(),
            work: None,
            seen: HashSet::default(),
            gamma: None,
            pops: 0,
            exhausted: false,
            cands: Vec::new(),
            cand_idx: HashMap::default(),
            reqs: HashMap::default(),
            extra_bits: HashMap::default(),
            arena: ExprArena::new(),
            templates: LocalTemplates::default(),
            fill_memo: FillMemo::new(),
            sem: None,
        }
    }

    fn ensure_ready(&mut self, q: &GuardQuery<'_>) {
        if self.ready {
            return;
        }
        self.ready = true;
        self.checks = q
            .specs
            .iter()
            .map(|s| match PreparedSpec::prepare(q.env, s) {
                Ok(p) => {
                    let xr = p.result_var();
                    CheckSlot::Ready(Box::new(p.with_asserts(vec![Expr::Var(xr)])))
                }
                Err(e) => CheckSlot::Failed(format!("spec {:?} setup failed: {e}", s.name)),
            })
            .collect();
        self.nwords = q.specs.len().div_ceil(64).max(1);
        self.setup_ok = vec![None; q.specs.len()];
        if q.opts.bdd {
            self.sem = Some(Semantics::new(q.specs.len()));
        }
        self.gamma = Some(Gamma::from_params(q.params));
        let mut work = Frontier::new(q.opts.strategy.strategy());
        work.push_item(0, 1, Pending::Root);
        self.work = Some(work);
    }

    /// Type-narrows, interns and dedups a freshly built stream item.
    /// `None` when it has no typing derivation or is already `seen`.
    fn admit(&mut self, q: &GuardQuery<'_>, e: Expr, stats: &mut SearchStats) -> Option<ExprId> {
        debug_assert!(guard_shaped(&e), "not a guard item: {}", e.compact());
        let gamma = self.gamma.as_mut().expect("pool is ready");
        // Type narrowing, as in `expand_compute` — same filter, same
        // order, pool-local interning.
        if q.opts.guidance.types && infer_ty(&q.env.table, gamma, &e).is_none() {
            return None;
        }
        let id = self.arena.intern(e);
        if self.seen.contains(&id) {
            stats.deduped += 1;
            return None;
        }
        Some(id)
    }

    /// Advances the shared enumeration by one work-list pop, recording
    /// evaluable candidates (unjudged) and deferring partial ones — the
    /// loop body of the per-request search, minus S-Eff (guard oracles
    /// never report effects, so it could never fire), run entirely against
    /// pool-local state: expansion, type narrowing and hash-consing never
    /// take a lock.
    ///
    /// Partial children go on the work list unbuilt, ranked by their size
    /// `|parent| − 1 + |fill|`; each is built, narrowed and deduplicated
    /// only when it reaches the top. An entry dropped there is not a pop.
    fn extend_one_pop(
        &mut self,
        q: &GuardQuery<'_>,
        stats: &mut SearchStats,
    ) -> Result<(), SynthError> {
        let (pri, seq, pending, id) = loop {
            let Some((pri, seq, pending)) = self.work.as_mut().and_then(|w| w.pop_ranked()) else {
                self.exhausted = true;
                return Ok(());
            };
            if let Some(id) = self.admit(q, pending.build(), stats) {
                break (pri, seq, pending, id);
            }
        };
        self.pops += 1;
        stats.popped += 1;
        if self.pops.is_multiple_of(64) && q.sched.should_stop() {
            // Roll the un-expanded item (and the pop count) back so a
            // hypothetical post-deadline continuation resumes exactly
            // here; the caller decides whether the timeout is fatal.
            self.pops -= 1;
            stats.popped -= 1;
            self.work
                .as_mut()
                .expect("pool is ready")
                .requeue(pri, seq, pending);
            return Err(SynthError::Timeout);
        }
        self.seen.insert(id);
        let item = Arc::clone(self.arena.get(id));
        let parent_size = self.arena.size(id);
        let closes_last_hole = item.hole_count() == 1;
        let fills = {
            let expander =
                Expander::with_fill_memo(&q.env.table, q.opts, &self.templates, &self.fill_memo);
            let gamma = self.gamma.as_ref().expect("pool is ready");
            expander
                .first_hole_fills(&item, gamma)
                .expect("non-evaluable expression must have a hole")
        };
        stats.expanded += fills.len() as u64;
        for (j, fill) in fills.iter().enumerate() {
            if closes_last_hole && !fill.has_holes() {
                // An evaluable child joins the candidate stream now, in
                // list order, exactly as the eager expansion recorded it.
                let sub = fill_first(&item, fill).expect("expanded items have a hole");
                let Some(cid) = self.admit(q, sub, stats) else {
                    continue;
                };
                self.seen.insert(cid);
                self.cand_idx.insert(cid, self.cands.len() as u32);
                self.cands.push(GuardCand {
                    expr: Arc::clone(self.arena.get(cid)),
                    pop: self.pops,
                    bits: Bits::new(self.nwords),
                });
            } else {
                let size = parent_size - 1 + node_count(fill);
                if size <= q.opts.max_guard_size {
                    self.work.as_mut().expect("pool is ready").push_item(
                        0,
                        size,
                        Pending::Child {
                            parent: Arc::clone(&item),
                            fills: Arc::clone(&fills),
                            idx: j as u32,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Fills any missing footprint bits of `bits` (by derivation when
    /// possible, by interpreter run otherwise) and checks the request by
    /// word arithmetic, short-circuiting on the first violated spec.
    /// `filled` reports whether any bit was newly determined — the
    /// tested/vector-hit accounting key, identical whether the bit came
    /// from a run or a derivation.
    #[allow(clippy::too_many_arguments)]
    fn fill_and_check(
        checks: &[CheckSlot],
        setup_ok: &mut [Option<bool>],
        deriv: Option<&Derived>,
        bits: &mut Bits,
        expr: &Expr,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
        filled: &mut bool,
    ) -> bool {
        let mut program: Option<Program> = None;
        for (specs, want_truthy) in [(pos, true), (neg, false)] {
            for &s in specs {
                if !bits.evald(s) {
                    let check = match &checks[s] {
                        CheckSlot::Ready(p) => p,
                        CheckSlot::Failed(_) => return false,
                    };
                    let mut derived = false;
                    match deriv {
                        Some(Derived::Lit { truthy }) => {
                            if let Some(good) = setup_ok[s] {
                                // A literal cannot raise: outcome is the
                                // spec's setup health plus its own
                                // truthiness.
                                bits.record(s, good, good && *truthy);
                                derived = true;
                            }
                        }
                        Some(Derived::Not(inner)) if inner.evald(s) => {
                            let ok = inner.ok(s);
                            bits.record(s, ok, ok && !inner.truthy(s));
                            derived = true;
                        }
                        _ => {}
                    }
                    if !derived {
                        let p = program.get_or_insert_with(|| {
                            Program::from_parts(
                                q.name,
                                q.params.iter().map(|(n, _)| *n).collect(),
                                expr.clone(),
                            )
                        });
                        let started = Instant::now();
                        let outcome = check.run(q.env, p);
                        stats.eval_nanos = stats
                            .eval_nanos
                            .saturating_add(started.elapsed().as_nanos() as u64);
                        match outcome {
                            SpecOutcome::Passed { .. } => {
                                bits.record(s, true, true);
                                setup_ok[s] = Some(true);
                            }
                            SpecOutcome::Failed { .. } => {
                                bits.record(s, true, false);
                                setup_ok[s] = Some(true);
                            }
                            SpecOutcome::SetupError(_) => {
                                bits.record(s, false, false);
                                // Only a literal body pins the blame on
                                // the spec itself — any other candidate
                                // may have raised on its own.
                                if matches!(deriv, Some(Derived::Lit { .. })) {
                                    setup_ok[s] = Some(false);
                                }
                            }
                        }
                    }
                    *filled = true;
                }
                if !(bits.ok(s) && bits.truthy(s) == want_truthy) {
                    return false;
                }
            }
        }
        true
    }

    /// How `e`'s bits can be derived without interpreter runs (BDD mode
    /// only — `--no-bdd` reproduces the pure-interpreter behavior).
    fn derive_for(&self, e: &Expr) -> Option<Derived> {
        self.sem.as_ref()?;
        match e {
            Expr::Lit(v) => Some(Derived::Lit { truthy: v.truthy() }),
            Expr::Not(inner) => self.peek_bits(inner).map(Derived::Not),
            _ => None,
        }
    }

    /// Already-known bits of `e`, wherever they live: the ad-hoc map or
    /// the candidate stream (via the pool arena's hash-consing).
    fn peek_bits(&self, e: &Expr) -> Option<Bits> {
        if let Some(b) = self.extra_bits.get(e) {
            return Some(b.clone());
        }
        let id = self.arena.lookup_hashed(ExprArena::hash_of(e), e)?;
        let i = *self.cand_idx.get(&id)?;
        Some(self.cands[i as usize].bits.clone())
    }

    /// Does candidate `i` cover the request? Fills missing bits, maintains
    /// the tested/vector-hit counters, and — in BDD mode — interns the
    /// vector's semantic class so the verdict is decided once per class
    /// (a pair of BDD satisfiability queries) and reused for every
    /// semantically equal candidate ([`SearchStats::guard_dedup`]).
    fn cand_passes(
        &mut self,
        i: usize,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        rsem: &mut Option<ReqSem>,
        stats: &mut SearchStats,
    ) -> bool {
        let mut bits = self.cands[i].bits.clone();
        let fresh = !bits.any_evald();
        let expr = Arc::clone(&self.cands[i].expr);
        // Derivation lookups hash the candidate structurally — only worth
        // it when some footprint bit is actually missing.
        let complete = pos.iter().chain(neg).all(|&s| bits.evald(s));
        let deriv = if complete {
            None
        } else {
            self.derive_for(&expr)
        };
        let mut filled = false;
        let pass = Self::fill_and_check(
            &self.checks,
            &mut self.setup_ok,
            deriv.as_ref(),
            &mut bits,
            &expr,
            q,
            pos,
            neg,
            stats,
            &mut filled,
        );
        if fresh && filled {
            stats.tested += 1;
        } else if !filled {
            stats.vector_hits += 1;
        }
        let verdict = if let (Some(sem), Some(rs)) = (self.sem.as_mut(), rsem.as_mut()) {
            let key = class_key(&bits, pos, neg);
            if let Some(&v) = rs.classes.get(&key) {
                stats.guard_dedup += 1;
                debug_assert_eq!(v, pass, "class verdict must match word arithmetic");
                v
            } else {
                let v = sem.decide(rs, &bits, pos, neg);
                debug_assert_eq!(v, pass, "BDD covering must match word arithmetic");
                rs.classes.insert(key, v);
                stats.bdd_nodes = stats.bdd_nodes.max(sem.bdd.node_count() as u64);
                v
            }
        } else {
            pass
        };
        self.cands[i].bits = bits;
        verdict
    }

    /// Advances one request's lazy scan over the shared stream until it
    /// has found `need` guards, hit its per-request stopping rule (`k`
    /// guards, or [`EXTRA_GUARD_BUDGET`] pops past the first one, or the
    /// pop budget, or stream exhaustion), or timed out. The stopping rule
    /// latches — once a request is done, its guard list is final, exactly
    /// like the one-shot search it replaces.
    #[allow(clippy::too_many_arguments)]
    fn advance_request(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        state: &mut ReqState,
        need: usize,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<(), SynthError> {
        if let Some(sem) = self.sem.as_mut() {
            if state.sem.is_none() && pos.len() + neg.len() <= MAX_SEM_FOOTPRINT {
                let p = sem.dom.set(&mut sem.bdd, pos.iter().map(|&s| s as u64));
                let n = sem.dom.set(&mut sem.bdd, neg.iter().map(|&s| s as u64));
                state.sem = Some(ReqSem {
                    p,
                    n,
                    classes: HashMap::default(),
                });
            }
        }
        while state.found.len() < need && !state.done {
            let bound = state.first.map_or(q.opts.max_expansions, |f| {
                (f + EXTRA_GUARD_BUDGET).min(q.opts.max_expansions)
            });
            if state.next_cand == self.cands.len() {
                if self.exhausted || self.pops >= bound {
                    state.done = true;
                    break;
                }
                match self.extend_one_pop(q, stats) {
                    Ok(()) => continue,
                    Err(SynthError::Timeout) if !state.found.is_empty() => {
                        // A timeout after the first guard finalizes the
                        // partial list (the eager search returned it).
                        state.done = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let i = state.next_cand;
            if self.cands[i].pop > bound {
                state.done = true;
                break;
            }
            if self.cand_passes(i, q, pos, neg, &mut state.sem, stats) {
                state.found.push((*self.cands[i].expr).clone());
                if state.found.len() >= k {
                    state.done = true;
                }
                if state.first.is_none() {
                    state.first = Some(self.cands[i].pop);
                }
            }
            state.next_cand += 1;
        }
        Ok(())
    }

    /// Runs `f` with the request's scan state temporarily checked out of
    /// the pool (so `f` may extend the shared stream through `&mut self`).
    fn with_request<T>(
        &mut self,
        pos: &[usize],
        neg: &[usize],
        f: impl FnOnce(&mut Self, &mut ReqState) -> Result<T, SynthError>,
    ) -> Result<T, SynthError> {
        let key: ReqKey = (pos.to_vec(), neg.to_vec());
        let mut state = self.reqs.remove(&key).unwrap_or_default();
        let out = f(self, &mut state);
        self.reqs.insert(key, state);
        out
    }

    /// The `n`-th (0-based) covering guard for a strengthening request
    /// (`pos` truthy, `neg` falsy) under the request cap `k` — the same
    /// guard, in the same position, that the eager per-request search
    /// would have put at index `n` of its result list. Scans lazily: a
    /// merge that validates on the first guard never pays for the
    /// alternatives.
    ///
    /// # Panics
    ///
    /// Panics when a requested spec's own setup raises — that is a suite
    /// bug, not a candidate failure (same contract as `GuardOracle::new`).
    pub fn nth_covering_guard(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        n: usize,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Option<Expr>, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, n + 1, k, stats)?;
            Ok(state.found.get(n).cloned())
        })
    }

    /// The final number of covering guards a request yields under cap `k`
    /// (materializes the request's full list — the merge only calls this
    /// from the backtracking odometer, after a failed validation).
    pub fn covering_count(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<usize, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, k, k, stats)?;
            Ok(state.found.len())
        })
    }

    /// Shared request entry: readiness and the suite-bug panic contract.
    fn prepare_request(&mut self, q: &GuardQuery<'_>, pos: &[usize], neg: &[usize]) {
        self.ensure_ready(q);
        for &s in pos.iter().chain(neg) {
            if let CheckSlot::Failed(msg) = &self.checks[s] {
                panic!("{msg}");
            }
        }
    }

    /// Eagerly materializes the ordered covering guards of a request, up
    /// to `k` — [`search_guards`] semantics served from the pool. Tests
    /// and one-shot callers use this; the merge goes through the lazy
    /// [`GuardPool::nth_covering_guard`].
    pub fn covering_guards(
        &mut self,
        q: &GuardQuery<'_>,
        pos: &[usize],
        neg: &[usize],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Expr>, SynthError> {
        if let Some(t) = q.sched.trace() {
            t.mark(Mark::CoveringQuery);
        }
        self.prepare_request(q, pos, neg);
        self.with_request(pos, neg, |pool, state| {
            pool.advance_request(q, pos, neg, state, k, k, stats)?;
            Ok(state.found.clone())
        })
    }

    /// Checks an ad-hoc expression (quick candidate, negation guess)
    /// against a request, through the same lazily filled bitvectors — and,
    /// in BDD mode, through bit derivation: a negation guess whose operand
    /// already has bits never runs the interpreter. Unpreparable specs
    /// answer `false` (the lenient contract `guard_holds` always had).
    pub fn check_expr(
        &mut self,
        q: &GuardQuery<'_>,
        e: &Expr,
        pos: &[usize],
        neg: &[usize],
        stats: &mut SearchStats,
    ) -> bool {
        self.ensure_ready(q);
        // Unpreparable specs answer `false` without touching (or
        // counting) any bit — the lenient `guard_holds` contract.
        if pos
            .iter()
            .chain(neg)
            .any(|&s| matches!(self.checks[s], CheckSlot::Failed(_)))
        {
            return false;
        }
        let mut bits = self
            .extra_bits
            .get(e)
            .cloned()
            .unwrap_or_else(|| Bits::new(self.nwords));
        let complete = pos.iter().chain(neg).all(|&s| bits.evald(s));
        let deriv = if complete { None } else { self.derive_for(e) };
        let mut filled = false;
        let pass = Self::fill_and_check(
            &self.checks,
            &mut self.setup_ok,
            deriv.as_ref(),
            &mut bits,
            e,
            q,
            pos,
            neg,
            stats,
            &mut filled,
        );
        if !filled {
            // Pure word-op hit: nothing new to store — skip the AST clone
            // and re-hash (this is the merge's hottest re-check loop).
            stats.vector_hits += 1;
        } else {
            self.extra_bits.insert(e.clone(), bits);
        }
        pass
    }
}

/// `!b`, collapsing double negation.
pub fn negate(b: &Expr) -> Expr {
    match b {
        Expr::Not(inner) => (**inner).clone(),
        Expr::Lit(Value::Bool(x)) => Expr::Lit(Value::Bool(!x)),
        other => Expr::Not(Box::new(other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbsyn_interp::SetupStep;
    use rbsyn_lang::builder::*;
    use rbsyn_stdlib::EnvBuilder;

    fn env_with_post() -> (InterpEnv, rbsyn_lang::ClassId) {
        let mut b = EnvBuilder::with_stdlib();
        let post = b.define_model("Post", &[("author", Ty::Str), ("slug", Ty::Str)]);
        b.add_const(Value::Class(post));
        (b.finish(), post)
    }

    fn call_spec(name: &str, steps: Vec<SetupStep>) -> Spec {
        let mut steps = steps;
        steps.push(SetupStep::CallTarget {
            bind: "xr".into(),
            args: vec![],
        });
        Spec::new(name, steps, vec![])
    }

    #[test]
    fn trivial_guard_is_true() {
        let (env, _) = env_with_post();
        let s = call_spec("s", vec![]);
        let mut stats = SearchStats::default();
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&s],
            &[],
            &[],
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(g.compact(), "true");
    }

    #[test]
    fn known_negations_are_tried_first() {
        let (env, post) = env_with_post();
        let seeded = call_spec(
            "seeded",
            vec![SetupStep::Exec(call(cls(post), "create", [hash([])]))],
        );
        let empty = call_spec("empty", vec![]);
        let known = vec![call(cls(post), "exists?", [])];
        let mut stats = SearchStats::default();
        // Guard for `empty` against `seeded`: !Post.exists? — found via the
        // negation fast path without search.
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&empty],
            &[&seeded],
            &known,
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(g.compact(), "!Post.exists?");
        assert!(stats.popped == 0, "no search was needed");
    }

    #[test]
    fn searches_when_quick_candidates_fail() {
        let (env, post) = env_with_post();
        let alice = call_spec(
            "alice",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        let mut stats = SearchStats::default();
        let g = synth_guard(
            &env,
            "m",
            &[],
            &[&alice],
            &[&empty],
            &[],
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        // Any Post-emptiness test works (`Post.count.positive?`,
        // `Post.exists?(…)`); verify semantically.
        assert!(g.compact().contains("Post."), "got {}", g.compact());
        let oracle = GuardOracle::new(&env, &[&alice], &[&empty]);
        let p = Program::new("m", [], g);
        assert!(oracle.test(&env, &p).success);
    }

    #[test]
    fn search_guards_returns_alternatives() {
        let (env, post) = env_with_post();
        let alice = call_spec(
            "alice",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        let oracle = GuardOracle::new(&env, &[&alice], &[&empty]);
        let mut stats = SearchStats::default();
        let gs = search_guards(
            &env,
            "m",
            &[],
            &oracle,
            4,
            &Options::default(),
            &Scheduler::sequential(),
            &mut stats,
        )
        .unwrap();
        assert!(gs.len() >= 2, "expected several guards, got {gs:?}");
        // All of them pass the oracle.
        for g in &gs {
            let p = Program::new("m", [], g.clone());
            assert!(oracle.test(&env, &p).success, "bad guard {}", g.compact());
        }
        // And they are distinct.
        let mut keys: Vec<String> = gs.iter().map(|g| g.compact()).collect();
        keys.dedup();
        assert_eq!(keys.len(), gs.len());
    }

    #[test]
    fn negate_collapses() {
        assert_eq!(negate(&not(var("b"))).compact(), "b");
        assert_eq!(negate(&var("b")).compact(), "!b");
        assert_eq!(negate(&true_()).compact(), "false");
    }

    #[test]
    fn wide_bits_round_trip() {
        let mut b = Bits::new(2);
        assert!(!b.any_evald());
        b.record(0, true, true);
        b.record(64, true, false);
        b.record(100, false, false);
        assert!(b.any_evald());
        assert!(b.evald(0) && b.ok(0) && b.truthy(0));
        assert!(b.evald(64) && b.ok(64) && !b.truthy(64));
        assert!(b.evald(100) && !b.ok(100) && !b.truthy(100));
        assert!(!b.evald(63) && !b.evald(101));
    }

    /// Two specs a guard must separate: seeded world vs empty world.
    fn pool_fixture() -> (InterpEnv, Vec<Spec>) {
        let (env, post) = env_with_post();
        let seeded = call_spec(
            "seeded",
            vec![SetupStep::Exec(call(
                cls(post),
                "create",
                [hash([("author", str_("alice"))])],
            ))],
        );
        let empty = call_spec("none", vec![]);
        (env, vec![seeded, empty])
    }

    #[test]
    fn pool_covering_matches_the_per_request_search() {
        let (env, specs) = pool_fixture();
        let sched = Scheduler::sequential();
        let oracle = GuardOracle::new(&env, &[&specs[0]], &[&specs[1]]);
        // Every work-list order and both covering deciders: the lazy
        // stream's order rests on every guard item having `c = 0`, so the
        // first copy of an expression pushed is the first popped under any
        // strategy.
        for strategy in crate::engine::StrategyKind::all() {
            for bdd in [true, false] {
                let opts = Options {
                    strategy,
                    bdd,
                    ..Options::default()
                };
                let q = GuardQuery {
                    env: &env,
                    name: Symbol::intern("m"),
                    params: &[],
                    specs: &specs,
                    opts: &opts,
                    sched: &sched,
                };
                let config = format!("strategy {}, bdd {bdd}", strategy.name());
                // Reference: the eager per-request search.
                let mut ref_stats = SearchStats::default();
                let reference =
                    search_guards(&env, "m", &[], &oracle, 4, &opts, &sched, &mut ref_stats)
                        .unwrap();
                assert!(!reference.is_empty(), "{config}: a separating guard exists");
                // Pool: same guards, same order — eager and lazy agree.
                let mut pool = GuardPool::new();
                let mut stats = SearchStats::default();
                let pooled = pool.covering_guards(&q, &[0], &[1], 4, &mut stats).unwrap();
                assert_eq!(
                    pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
                    reference.iter().map(|g| g.compact()).collect::<Vec<_>>(),
                    "{config}: pool covering must reproduce the per-request search"
                );
                // A fresh pool serving one request walks the eager
                // search's exact stream: same pops, same expansions, same
                // candidates judged.
                assert_eq!(
                    (stats.popped, stats.expanded, stats.tested),
                    (ref_stats.popped, ref_stats.expanded, ref_stats.tested),
                    "{config}: effort counters"
                );
                for (n, g) in pooled.iter().enumerate() {
                    let nth = pool
                        .nth_covering_guard(&q, &[0], &[1], n, 4, &mut stats)
                        .unwrap();
                    assert_eq!(nth.as_ref().map(|e| e.compact()), Some(g.compact()));
                }
                assert_eq!(
                    pool.covering_count(&q, &[0], &[1], 4, &mut stats).unwrap(),
                    pooled.len()
                );
            }
        }
    }

    /// Children are built only when popped: after a request, the pool's
    /// arena holds the popped items, the evaluable candidates and nothing
    /// else, while most of the `expanded` children still wait unbuilt.
    #[test]
    fn pool_builds_only_what_it_pops() {
        let (env, specs) = pool_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let guards = pool.covering_guards(&q, &[0], &[1], 4, &mut stats).unwrap();
        assert!(!guards.is_empty());
        let built = pool.arena.len() as u64;
        assert!(
            built <= 1 + stats.popped + pool.cands.len() as u64 + stats.deduped,
            "arena {built}, popped {}, candidates {}, duplicates {}",
            stats.popped,
            pool.cands.len(),
            stats.deduped
        );
        let queued = pool.work.as_ref().unwrap().len() as u64;
        assert!(queued > 0, "unpopped children stay unbuilt");
        assert!(
            built + queued <= stats.expanded + 1,
            "every queued entry is one expansion child"
        );
    }

    #[test]
    fn pool_reverse_request_reuses_bitvectors() {
        let (env, specs) = pool_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let fwd = pool
            .nth_covering_guard(&q, &[0], &[1], 0, 1, &mut stats)
            .unwrap()
            .expect("a separating guard exists");
        let tested_after_fwd = stats.tested;
        // The reverse request re-walks already-judged candidates: any
        // candidate whose bits are fully known answers from the vector.
        let rev = pool
            .nth_covering_guard(&q, &[1], &[0], 0, 1, &mut stats)
            .unwrap()
            .expect("the reverse guard exists");
        assert_ne!(fwd.compact(), rev.compact());
        assert!(stats.tested >= tested_after_fwd);
        // Ad-hoc checks ride the same bitvectors: the found guards really
        // cover their requests, and their negations cover the reverse.
        assert!(pool.check_expr(&q, &fwd, &[0], &[1], &mut stats));
        assert!(pool.check_expr(&q, &negate(&fwd), &[1], &[0], &mut stats));
        assert!(!pool.check_expr(&q, &fwd, &[1], &[0], &mut stats));
        // Repeating an ad-hoc check is a pure vector hit.
        let hits = stats.vector_hits;
        assert!(pool.check_expr(&q, &fwd, &[0], &[1], &mut stats));
        assert_eq!(stats.vector_hits, hits + 1);
    }

    /// A 65-spec problem — one spec past the inline bitvector word — whose
    /// first 32 specs seed a `Post` and whose rest are empty. The same
    /// unified pool engine (spilled words + BDD semantics) must answer it;
    /// the eager per-request search is kept only as the reference.
    fn oversized_fixture() -> (InterpEnv, Vec<Spec>) {
        let (env, post) = env_with_post();
        let mut specs = Vec::with_capacity(65);
        for i in 0..65 {
            if i < 32 {
                specs.push(call_spec(
                    "seeded",
                    vec![SetupStep::Exec(call(
                        cls(post),
                        "create",
                        [hash([("author", str_("alice"))])],
                    ))],
                ));
            } else {
                specs.push(call_spec("empty", vec![]));
            }
        }
        (env, specs)
    }

    #[test]
    fn oversized_pool_matches_the_per_request_search() {
        let (env, specs) = oversized_fixture();
        assert!(specs.len() > 64, "fixture must overflow one bitvector word");
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        // Reference: the eager per-request search on the same request.
        let oracle = GuardOracle::new(&env, &[&specs[0]], &[&specs[64]]);
        let mut ref_stats = SearchStats::default();
        let reference = search_guards(
            &env,
            "m",
            &[],
            &oracle,
            4,
            &opts,
            &Scheduler::sequential(),
            &mut ref_stats,
        )
        .unwrap();
        assert!(!reference.is_empty(), "a separating guard exists");

        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        let pooled = pool
            .covering_guards(&q, &[0], &[64], 4, &mut stats)
            .unwrap();
        assert_eq!(
            pooled.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            reference.iter().map(|g| g.compact()).collect::<Vec<_>>(),
            "the unified engine must reproduce the per-request search"
        );
        // The request latches: nth/count answer from the stored scan
        // without extending the stream.
        let popped = stats.popped;
        for (n, g) in pooled.iter().enumerate() {
            let nth = pool
                .nth_covering_guard(&q, &[0], &[64], n, 4, &mut stats)
                .unwrap();
            assert_eq!(nth.as_ref().map(|e| e.compact()), Some(g.compact()));
        }
        assert_eq!(
            pool.covering_count(&q, &[0], &[64], 4, &mut stats).unwrap(),
            pooled.len()
        );
        assert_eq!(
            stats.popped, popped,
            "request state is reused, not re-searched"
        );
    }

    #[test]
    fn oversized_check_expr_agrees_with_oracle() {
        let (env, specs) = oversized_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let post = env.table.hierarchy.find("Post").unwrap();
        let exists = call(cls(post), "exists?", []);
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        // Bits span the whole 65-spec index range, including spec 64.
        assert!(pool.check_expr(&q, &exists, &[0, 31], &[32, 64], &mut stats));
        assert!(!pool.check_expr(&q, &exists, &[64], &[0], &mut stats));
        assert!(pool.check_expr(&q, &negate(&exists), &[64], &[0], &mut stats));
        assert!(pool.check_expr(&q, &true_(), &[0, 64], &[], &mut stats));
        assert!(!pool.check_expr(&q, &false_(), &[0, 64], &[], &mut stats));
    }

    /// The A/B gate at unit scope: `--no-bdd` must produce the same
    /// guards and the same effort counters (`guard_dedup`/`bdd_nodes`
    /// excepted — they are the BDD's own telemetry), on a request wide
    /// enough to exercise the spilled-word path.
    #[test]
    fn bdd_and_word_covering_agree() {
        let (env, specs) = oversized_fixture();
        let sched = Scheduler::sequential();
        let run = |bdd: bool| {
            let opts = Options {
                bdd,
                ..Options::default()
            };
            let q = GuardQuery {
                env: &env,
                name: Symbol::intern("m"),
                params: &[],
                specs: &specs,
                opts: &opts,
                sched: &sched,
            };
            let mut pool = GuardPool::new();
            let mut stats = SearchStats::default();
            let guards = pool
                .covering_guards(&q, &[0, 31], &[32, 64], 4, &mut stats)
                .unwrap();
            let texts: Vec<String> = guards.iter().map(|g| g.compact()).collect();
            (texts, stats)
        };
        let (on, s_on) = run(true);
        let (off, s_off) = run(false);
        assert_eq!(on, off, "the BDD decider and word arithmetic agree");
        assert!(!on.is_empty(), "a separating guard exists");
        assert_eq!(
            (
                s_on.popped,
                s_on.expanded,
                s_on.tested,
                s_on.deduped,
                s_on.vector_hits
            ),
            (
                s_off.popped,
                s_off.expanded,
                s_off.tested,
                s_off.deduped,
                s_off.vector_hits
            ),
            "effort counters are BDD-mode independent"
        );
        assert!(s_on.guard_dedup > 0, "semantically equal candidates dedup");
        assert!(s_on.bdd_nodes > 0, "the vector forest is populated");
        assert_eq!(s_off.guard_dedup, 0, "off mode never touches the BDD");
        assert_eq!(s_off.bdd_nodes, 0);
    }

    #[test]
    fn pool_guard_holds_semantics() {
        let (env, specs) = pool_fixture();
        let opts = Options::default();
        let sched = Scheduler::sequential();
        let q = GuardQuery {
            env: &env,
            name: Symbol::intern("m"),
            params: &[],
            specs: &specs,
            opts: &opts,
            sched: &sched,
        };
        let mut pool = GuardPool::new();
        let mut stats = SearchStats::default();
        // `true` holds under every setup; `false` under none (pos-only
        // requests are the rule-6/7 `guard_holds` checks).
        assert!(pool.check_expr(&q, &true_(), &[0, 1], &[], &mut stats));
        assert!(!pool.check_expr(&q, &false_(), &[0, 1], &[], &mut stats));
    }
}
