//! Translation validation of one optimization run.
//!
//! The optimizer emits a [`JustLog`] — one structured event per decision.
//! The verifier treats that log as an *advisory certificate*: nothing in
//! it is trusted. Every claim is re-checked from scratch against the
//! final (optimized) CFG using independently recomputed facts:
//!
//! * availability is re-solved on the **optimized** function over a check
//!   universe built from the **reference** function (widened with every
//!   check the log or the optimized code mentions), so an `Eliminated`
//!   event must name a witness that really is available at the deleted
//!   check's site in the final code;
//! * anticipatability is re-solved on the **reference** function, so an
//!   `Inserted` or `Strengthened` check must be implied by a check the
//!   original program performs on every path from the insertion point;
//! * hoists are re-derived from a fresh loop analysis of the optimized
//!   CFG: entry guards are recomputed from the loop's induction variable,
//!   invariance and loop-limit substitution are replayed, and the hoisted
//!   condition must correspond to a check anticipated at the loop body
//!   entry of the reference;
//! * the value-range analysis ([`crate::vra`]) independently discharges
//!   checks it can prove always-true.
//!
//! The two directions of trap equivalence:
//!
//! * **no missed traps** — every check of the reference program is either
//!   still performed (a check at the same aligned point implies it) or
//!   justified by a re-checked event chain;
//! * **no spurious traps** — every check or `TRAP` of the optimized
//!   program is either matched by a reference check at the same point or
//!   justified (inserted-but-anticipated, hoisted with recomputed guards,
//!   folded from a proven-false check, …).
//!
//! Alignment uses the pipeline's structural guarantee that no pass ever
//! modifies a non-check statement: shared blocks must carry identical
//! non-check statement sequences, and checks are compared per *gap* — the
//! position between two consecutive non-check statements. Blocks the
//! optimizer added (preheaders, split edges) may contain only checks and
//! traps and are mapped to a reference point by following their jump
//! chain to the first shared block.
//!
//! Every failed obligation becomes a [`Diagnostic`] naming the check, the
//! block, and the gap, plus the implication that could not be discharged.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use nascent_analysis::context::PassContext;
use nascent_analysis::dataflow::{solve, Solution};
use nascent_analysis::dom::Dominators;
use nascent_analysis::loops::{LoopForest, LoopInfo};
use nascent_analysis::reach::UniqueDefs;
use nascent_ir::{BlockId, Check, CheckExpr, Function, LinForm, Program, Stmt, Terminator, VarId};
use nascent_obs::trace::span;
use nascent_rangecheck::dataflow::{antic_step, avail_step, Antic, Avail};
use nascent_rangecheck::util::BitSet;
use nascent_rangecheck::{inx, CheckKind, Discharge, Event, JustLog, OptimizeOptions, Universe};

use crate::vra::{self, Vra};

/// One failed proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display form of the check the obligation is about.
    pub check: String,
    /// Block the obligation is anchored at.
    pub block: BlockId,
    /// Gap index within the block (position between non-check statements).
    pub gap: usize,
    /// Why the obligation could not be discharged.
    pub reason: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b{}/gap {}: check `{}`: {}",
            self.block.index(),
            self.gap,
            self.check,
            self.reason
        )
    }
}

/// The result of certifying one function (or, summed, one program).
#[derive(Debug, Clone, Default)]
pub struct Certificate {
    /// Total proof obligations examined (reference checks that must not be
    /// lost + optimized checks/traps that must not trap spuriously).
    pub obligations: usize,
    /// Obligations discharged through a re-checked justification event
    /// (the rest were discharged structurally or by VRA alone).
    pub discharged_by_log: usize,
    /// Reference checks the value-range analysis proves always-true at
    /// their original site, independent of the log.
    pub vra_discharged: usize,
    /// `Discharged` events examined (direction C: each must name a real
    /// reference check the trusted VRA re-proves at its site).
    pub discharge_events: usize,
    /// `Discharged` events rejected (tampered, relocated, or claiming an
    /// unprovable verdict). Counted in `diagnostics` too.
    pub discharge_rejected: usize,
    /// Failed obligations. Empty means the optimization run is certified.
    pub diagnostics: Vec<Diagnostic>,
}

impl Certificate {
    /// True when every obligation was discharged.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Accumulates another function's certificate into this one.
    pub fn absorb(&mut self, other: Certificate) {
        self.obligations += other.obligations;
        self.discharged_by_log += other.discharged_by_log;
        self.vra_discharged += other.vra_discharged;
        self.discharge_events += other.discharge_events;
        self.discharge_rejected += other.discharge_rejected;
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(
                f,
                "certified: {} obligations ({} via justification log, {} statically discharged by VRA)",
                self.obligations, self.discharged_by_log, self.vra_discharged
            )?;
            if self.discharge_events > 0 {
                write!(f, "; {} discharge events re-proved", self.discharge_events)?;
            }
            Ok(())
        } else {
            write!(
                f,
                "REJECTED: {} of {} obligations failed",
                self.diagnostics.len(),
                self.obligations
            )
        }
    }
}

/// How one obligation was discharged.
enum Cover {
    /// A check at the same aligned point settles it structurally.
    Direct,
    /// A justification event, re-checked, settles it.
    Log,
    /// The value-range analysis alone settles it.
    Vra,
}

/// Certifies a whole optimization run: `naive` is the program as compiled
/// (before optimization), `optimized` the result, `logs` one log per
/// function in `naive.functions` order. Under [`CheckKind::Inx`] the
/// reference first receives the same induction-expression rewrite — that
/// normalization is shared by optimizer and verifier, not a decision that
/// needs justification (DESIGN.md §7).
pub fn certify_program(
    naive: &Program,
    optimized: &Program,
    logs: &[JustLog],
    opts: &OptimizeOptions,
) -> Certificate {
    let mut sp = span("certify", "verify");
    sp.attr("functions", naive.functions.len());
    let mut cert = Certificate::default();
    if naive.functions.len() != optimized.functions.len() || naive.functions.len() != logs.len() {
        cert.diagnostics.push(Diagnostic {
            check: "<program>".into(),
            block: BlockId(0),
            gap: 0,
            reason: format!(
                "function count mismatch: {} reference, {} optimized, {} logs",
                naive.functions.len(),
                optimized.functions.len(),
                logs.len()
            ),
        });
        return cert;
    }
    // only the INX rewrite needs a copy; under PRX the naive program is
    // the reference as it stands
    let mut reference = Cow::Borrowed(naive);
    if opts.kind == CheckKind::Inx {
        for f in &mut reference.to_mut().functions {
            inx::rewrite_checks(f);
        }
    }
    for (i, log) in logs.iter().enumerate() {
        cert.absorb(certify_function(
            &reference.functions[i],
            &optimized.functions[i],
            log,
            opts,
        ));
    }
    cert
}

/// Certifies one function pair. `reference` must already carry the shared
/// INX normalization when the optimizer ran with [`CheckKind::Inx`] (use
/// [`certify_program`] for that).
pub fn certify_function(
    reference: &Function,
    optimized: &Function,
    log: &JustLog,
    opts: &OptimizeOptions,
) -> Certificate {
    let mut cert = Certificate::default();
    if optimized.blocks.len() < reference.blocks.len() {
        cert.diagnostics.push(Diagnostic {
            check: "<function>".into(),
            block: BlockId(0),
            gap: 0,
            reason: "optimized function has fewer blocks than the reference".into(),
        });
        return cert;
    }

    // universe on the reference, widened with everything the optimized
    // code or the log mentions, so every implication query resolves
    let trusted = span("trusted-context", "verify");
    let mut extra: Vec<CheckExpr> = log.mentioned_checks();
    for b in optimized.block_ids() {
        for s in &optimized.block(b).stmts {
            if let Stmt::Check(c) = s {
                extra.push(c.cond.clone());
                extra.extend(c.guards.iter().cloned());
            }
        }
    }
    // the trusted side recomputes every analysis itself: two fresh
    // per-function contexts (one per CFG), fully independent of whatever
    // the untrusted optimizer cached during its run
    let mut ref_ctx = PassContext::new();
    let mut opt_ctx = PassContext::new();
    let u = Universe::build_with_extra_ctx(reference, opts.implications, &extra, &mut ref_ctx);
    let ref_forest = ref_ctx.loop_forest(reference);
    let forest = opt_ctx.loop_forest(optimized);
    let dom = opt_ctx.dominators(optimized);
    let udefs = opt_ctx.unique_defs(optimized);
    drop(trusted);
    // summaries are per-(function, universe): Antic is summarized over the
    // reference CFG, Avail over the optimized one, sharing the universe
    let ref_antic = {
        let _s = span("antic", "verify");
        solve(reference, &Antic::new(reference, &u))
    };
    let opt_avail = {
        let _s = span("avail", "verify");
        solve(optimized, &Avail::new(optimized, &u))
    };
    // every reference check's verdict is consulted (direction A counts
    // the provable ones), so the reference side is analyzed up front,
    // one forward sweep per block
    let ref_verdicts = {
        let _s = span("vra-ref", "verify");
        let vra_ref = vra::analyze_with(reference, &ref_forest);
        reference
            .block_ids()
            .map(|b| vra_ref.check_verdicts(reference, b))
            .collect()
    };

    let ctx = Ctx {
        ref_f: reference,
        opt_f: optimized,
        log,
        ref_events: events_by_block(log, reference.blocks.len()),
        u,
        ref_antic,
        opt_avail,
        ref_verdicts,
        vra_opt: OnceCell::new(),
        forest,
        dom,
        udefs,
        shared: reference.blocks.len(),
    };

    // structural alignment of shared blocks
    let mut aligned = vec![true; ctx.shared];
    for (bi, ok) in aligned.iter_mut().enumerate() {
        let b = BlockId(bi as u32);
        let rn: Vec<&Stmt> = ctx
            .ref_f
            .block(b)
            .stmts
            .iter()
            .filter(|s| !is_item(s))
            .collect();
        let on: Vec<&Stmt> = ctx
            .opt_f
            .block(b)
            .stmts
            .iter()
            .filter(|s| !is_item(s))
            .collect();
        if rn.len() != on.len() || rn.iter().zip(&on).any(|(a, c)| a != c) {
            cert.diagnostics.push(Diagnostic {
                check: "<block>".into(),
                block: b,
                gap: 0,
                reason: "non-check statement sequences diverge between reference and optimized"
                    .into(),
            });
            *ok = false;
        }
    }

    // direction A: every reference check is covered
    let direction_a = span("direction-a", "verify");
    for (bi, ok) in aligned.iter().enumerate() {
        if !ok {
            continue;
        }
        let b = BlockId(bi as u32);
        let mut gap = 0;
        for (idx, s) in ctx.ref_f.block(b).stmts.iter().enumerate() {
            if !is_item(s) {
                gap += 1;
                continue;
            }
            let Stmt::Check(c) = s else { continue };
            if !c.is_unconditional() {
                continue; // the reference is naive: only unconditional checks
            }
            cert.obligations += 1;
            let vra_proved = ctx.ref_verdicts[bi][idx] == Some(true);
            if vra_proved {
                cert.vra_discharged += 1;
            }
            let mut visited = HashSet::new();
            match ctx.cover_ref_check(b, gap, vra_proved, &c.cond, 16, &mut visited) {
                Ok(Cover::Log) => cert.discharged_by_log += 1,
                Ok(_) => {}
                Err(reason) => cert.diagnostics.push(Diagnostic {
                    check: c.cond.to_string(),
                    block: b,
                    gap,
                    reason: format!("reference check not covered: {reason}"),
                }),
            }
        }
    }
    drop(direction_a);

    // direction B: every optimized check or trap is justified
    let direction_b = span("direction-b", "verify");
    for b in ctx.opt_f.block_ids() {
        let bi = b.index();
        if bi < ctx.shared && !aligned[bi] {
            continue;
        }
        if bi >= ctx.shared {
            // optimizer-created block: checks and traps only
            if ctx.opt_f.block(b).stmts.iter().any(|s| !is_item(s)) {
                cert.diagnostics.push(Diagnostic {
                    check: "<block>".into(),
                    block: b,
                    gap: 0,
                    reason: "optimizer-created block contains a non-check statement".into(),
                });
                continue;
            }
        }
        let mut gap = 0;
        for (idx, s) in ctx.opt_f.block(b).stmts.iter().enumerate() {
            match s {
                Stmt::Check(c) => {
                    cert.obligations += 1;
                    match ctx.justify_opt_check(b, gap, idx, c) {
                        Ok(Cover::Log) => cert.discharged_by_log += 1,
                        Ok(_) => {}
                        Err(reason) => cert.diagnostics.push(Diagnostic {
                            check: c.cond.to_string(),
                            block: b,
                            gap,
                            reason: format!("optimized check not justified: {reason}"),
                        }),
                    }
                }
                Stmt::Trap { .. } => {
                    cert.obligations += 1;
                    match ctx.justify_trap(b, gap, idx) {
                        Ok(Cover::Log) => cert.discharged_by_log += 1,
                        Ok(_) => {}
                        Err(reason) => cert.diagnostics.push(Diagnostic {
                            check: "TRAP".into(),
                            block: b,
                            gap,
                            reason: format!("trap not justified: {reason}"),
                        }),
                    }
                }
                _ => gap += 1,
            }
        }
    }
    drop(direction_b);

    // direction C: every `Discharged` event names a real reference check
    // the trusted VRA re-proves at its site. Direction A alone cannot
    // catch a tampered or relocated event — its VRA fallback would cover
    // the deletion without consulting the log — so the events themselves
    // are obligations: an event pointing at a nonexistent site or an
    // unprovable check means the optimizer's justification was forged.
    let _direction_c = span("direction-c", "verify");
    for e in log.events.iter() {
        let Event::Discharged { block, check, .. } = e else {
            continue;
        };
        cert.obligations += 1;
        cert.discharge_events += 1;
        let reject = |cert: &mut Certificate, reason: String| {
            cert.discharge_rejected += 1;
            cert.diagnostics.push(Diagnostic {
                check: check.to_string(),
                block: *block,
                gap: 0,
                reason,
            });
        };
        if opts.discharge == Discharge::Off {
            reject(
                &mut cert,
                "discharge event logged but the discharge tier is off".into(),
            );
            continue;
        }
        if block.index() >= ctx.shared {
            reject(
                &mut cert,
                format!(
                    "discharge event names b{}, outside the reference function",
                    block.index()
                ),
            );
            continue;
        }
        let proved = ctx
            .ref_f
            .block(*block)
            .stmts
            .iter()
            .zip(&ctx.ref_verdicts[block.index()])
            .any(|(s, verdict)| match s {
                Stmt::Check(c) if c.is_unconditional() && &c.cond == check => {
                    *verdict == Some(true)
                }
                _ => false,
            });
        if !proved {
            reject(
                &mut cert,
                "discharge not re-proved: no matching reference check at this block \
                 has a provably-true verdict under the trusted value-range analysis"
                    .into(),
            );
        }
    }

    cert
}

/// True for statements that participate in gap alignment (everything the
/// optimizer may add or remove).
fn is_item(s: &Stmt) -> bool {
    matches!(s, Stmt::Check(_) | Stmt::Trap { .. })
}

/// Guard-list equivalence modulo constant-true guards (which the fold
/// pass drops from conditional checks).
fn guards_match(actual: &[CheckExpr], expected: &[CheckExpr]) -> bool {
    expected
        .iter()
        .all(|g| actual.contains(g) || g.constant_verdict() == Some(true))
        && actual.iter().all(|g| expected.contains(g))
}

/// The events direction A consults (`Eliminated`, `Strengthened`,
/// `FoldedTrue`, `HoistCovered`, `Discharged`), indexed by the reference
/// block they name and kept in log order within each block. Events naming
/// a block outside the reference can never cover a reference check and
/// are left out.
fn events_by_block(log: &JustLog, blocks: usize) -> Vec<Vec<&Event>> {
    let mut by_block = vec![Vec::new(); blocks];
    for e in &log.events {
        let (Event::Eliminated { block, .. }
        | Event::Strengthened { block, .. }
        | Event::FoldedTrue { block, .. }
        | Event::HoistCovered { block, .. }
        | Event::Discharged { block, .. }) = e
        else {
            continue;
        };
        if let Some(events) = by_block.get_mut(block.index()) {
            events.push(e);
        }
    }
    by_block
}

/// Replay of the loop-limit substitution rule (§3.3): the induction
/// variable is replaced by the bound that maximizes its signed
/// contribution, so the substituted check covers every body-valid value.
fn substitute_limit(info: &LoopInfo, cond: &CheckExpr) -> Option<CheckExpr> {
    let coeff = info.linear_in_iv(cond.form())?;
    let iv = info.iv.as_ref()?;
    let bound_form = if coeff > 0 {
        iv.upper.as_ref()?
    } else {
        iv.lower.as_ref()?
    };
    let substituted = cond.form().substitute_var(iv.var, bound_form)?;
    Some(CheckExpr::new(substituted, cond.bound()))
}

struct Ctx<'a> {
    ref_f: &'a Function,
    opt_f: &'a Function,
    log: &'a JustLog,
    /// [`events_by_block`] of `log`.
    ref_events: Vec<Vec<&'a Event>>,
    u: Universe,
    ref_antic: Solution<BitSet>,
    opt_avail: Solution<BitSet>,
    /// Trusted VRA verdict of every reference statement
    /// ([`Vra::check_verdicts`]), per block.
    ref_verdicts: Vec<Vec<Option<bool>>>,
    /// Trusted VRA of the optimized function, built on first use: only
    /// direction B's fallback and `TRAP` obligations consult it.
    vra_opt: OnceCell<Vra>,
    forest: Arc<LoopForest>,
    dom: Arc<Dominators>,
    udefs: Arc<UniqueDefs>,
    shared: usize,
}

impl Ctx<'_> {
    fn vra_opt(&self) -> &Vra {
        self.vra_opt.get_or_init(|| {
            let _s = span("vra-opt", "verify");
            vra::analyze_with(self.opt_f, &self.forest)
        })
    }

    fn implies(&self, c: &CheckExpr, d: &CheckExpr) -> bool {
        self.u.implies_checks(c, d) == Some(true)
    }

    /// Availability fact on the **optimized** function at the end of gap
    /// `g` of block `b` (checks within the gap included: they execute at
    /// the same program progress as anything else in the gap).
    fn avail_at_gap(&self, b: BlockId, g: usize) -> BitSet {
        let mut fact = self.opt_avail.entry[b.index()].clone();
        let mut nc = 0;
        for s in &self.opt_f.block(b).stmts {
            if is_item(s) {
                avail_step(&self.u, &mut fact, s);
            } else {
                if nc == g {
                    break;
                }
                avail_step(&self.u, &mut fact, s);
                nc += 1;
            }
        }
        fact
    }

    /// Anticipatability fact on the **reference** function at the start of
    /// gap `g` of block `b` (the gap's own checks included).
    fn antic_at_gap(&self, b: BlockId, g: usize) -> BitSet {
        let stmts = &self.ref_f.block(b).stmts;
        let n_nc = stmts.iter().filter(|s| !is_item(s)).count();
        let mut fact = self.ref_antic.exit[b.index()].clone();
        let mut seen = 0;
        for s in stmts.iter().rev() {
            if is_item(s) {
                if n_nc - seen >= g {
                    antic_step(&self.u, &mut fact, s);
                }
            } else {
                if n_nc - 1 - seen < g {
                    break;
                }
                antic_step(&self.u, &mut fact, s);
                seen += 1;
            }
        }
        fact
    }

    /// Unconditional optimized checks present in gap `g` of block `b`,
    /// plus whether the gap (or an earlier one) holds a `TRAP`.
    fn opt_gap_contents(&self, b: BlockId, g: usize) -> (Vec<&CheckExpr>, bool) {
        let mut checks = Vec::new();
        let mut trapped = false;
        let mut nc = 0;
        for s in &self.opt_f.block(b).stmts {
            match s {
                Stmt::Check(c) if nc == g && c.is_unconditional() => checks.push(&c.cond),
                Stmt::Trap { .. } if nc <= g => trapped = true,
                _ if !is_item(s) => {
                    if nc == g {
                        break;
                    }
                    nc += 1;
                }
                _ => {}
            }
        }
        (checks, trapped)
    }

    /// Reference checks present in gap `g` of block `b`.
    fn ref_gap_checks(&self, b: BlockId, g: usize) -> Vec<&CheckExpr> {
        let mut checks = Vec::new();
        let mut nc = 0;
        for s in &self.ref_f.block(b).stmts {
            match s {
                Stmt::Check(c) if nc == g && c.is_unconditional() => checks.push(&c.cond),
                _ if !is_item(s) => {
                    if nc == g {
                        break;
                    }
                    nc += 1;
                }
                _ => {}
            }
        }
        checks
    }

    /// Follows jump chains from an optimizer-created block to the first
    /// shared block, which provides the reference point for its checks.
    fn map_new_block(&self, b: BlockId) -> Option<BlockId> {
        let mut cur = b;
        let mut seen = HashSet::new();
        while cur.index() >= self.shared {
            if !seen.insert(cur) {
                return None;
            }
            match &self.opt_f.block(cur).term {
                Terminator::Jump(t) => cur = *t,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Loops plausibly preheadered by `ph`: direct match, or the header is
    /// reachable from `ph` by a short jump chain (edge splitting may have
    /// interposed check-only blocks).
    fn loops_for_preheader(&self, ph: BlockId) -> Vec<&LoopInfo> {
        let mut chain = vec![ph];
        let mut cur = ph;
        for _ in 0..8 {
            match &self.opt_f.block(cur).term {
                Terminator::Jump(t) if !chain.contains(t) => {
                    chain.push(*t);
                    cur = *t;
                }
                _ => break,
            }
        }
        self.forest
            .loops
            .iter()
            .filter(|l| {
                l.preheader == Some(ph)
                    || l.preheader.is_some_and(|p| chain.contains(&p))
                    || chain.contains(&l.header)
            })
            .collect()
    }

    /// Replay of the optimizer's loop-limit-temporary normalization: a
    /// uniquely defined variable whose definition does not dominate `at`
    /// is substituted by its defining expression when that expression is
    /// evaluable at the end of `at`. Sound to replay on the final CFG:
    /// no pass after hoisting adds variable definitions, and added blocks
    /// preserve dominance among original blocks.
    fn normalize_form(&self, at: BlockId, form: &LinForm) -> LinForm {
        let stable = |w: VarId| -> bool {
            match self.udefs.get(&w) {
                Some(site) => site.block == at || self.dom.dominates(site.block, at),
                None => self
                    .opt_f
                    .blocks
                    .iter()
                    .all(|b| b.stmts.iter().all(|s| s.defined_var() != Some(w))),
            }
        };
        let mut cur = form.clone();
        for _ in 0..8 {
            let mut changed = false;
            for v in cur.vars() {
                let Some(site) = self.udefs.get(&v) else {
                    continue;
                };
                if site.block == at || self.dom.dominates(site.block, at) {
                    continue;
                }
                let Some(rhs) = &site.rhs else { continue };
                let r = LinForm::from_expr(rhs);
                if r.uses_var(v) || !r.vars().iter().all(|w| stable(*w)) {
                    continue;
                }
                if let Some(next) = cur.substitute_var(v, &r) {
                    cur = next;
                    changed = true;
                    break;
                }
            }
            if !changed {
                break;
            }
        }
        cur
    }

    fn normalize_check(&self, at: BlockId, ce: &CheckExpr) -> CheckExpr {
        CheckExpr::new(self.normalize_form(at, ce.form()), ce.bound())
    }

    // ---------------- direction A: no missed traps ----------------

    /// `vra_proved` is the trusted VRA verdict on `c` at its reference
    /// site; `false` for a strengthened check, which has no such site.
    fn cover_ref_check(
        &self,
        b: BlockId,
        g: usize,
        vra_proved: bool,
        c: &CheckExpr,
        depth: u32,
        visited: &mut HashSet<CheckExpr>,
    ) -> Result<Cover, String> {
        let (present, trapped) = self.opt_gap_contents(b, g);
        // an unconditional trap at (or before) the same gap means the
        // optimized program stops at the same progress the check would
        // have been reached: nothing can be missed past it
        if trapped {
            return Ok(Cover::Direct);
        }
        if present.iter().any(|x| self.implies(x, c)) {
            return Ok(Cover::Direct);
        }
        if depth == 0 || !visited.insert(c.clone()) {
            return Err("justification chain too deep or cyclic".into());
        }
        let mut tried = Vec::new();
        for e in &self.ref_events[b.index()] {
            match e {
                Event::Eliminated {
                    block,
                    check,
                    because,
                } if *block == b && check == c => {
                    if !self.implies(because, c) {
                        tried.push(format!("`{because}` does not imply `{c}`"));
                        continue;
                    }
                    match self.u.id(because) {
                        Some(id) if self.avail_at_gap(b, g).contains(id) => return Ok(Cover::Log),
                        _ => tried.push(format!(
                            "witness `{because}` not available at the deleted site"
                        )),
                    }
                }
                Event::Strengthened { block, from, to } if *block == b && from == c => {
                    if !self.implies(to, c) {
                        tried.push(format!("strengthened `{to}` does not imply `{c}`"));
                        continue;
                    }
                    match self.cover_ref_check(b, g, false, to, depth - 1, visited) {
                        Ok(_) => return Ok(Cover::Log),
                        Err(r) => tried.push(format!("strengthened `{to}` uncovered: {r}")),
                    }
                }
                Event::FoldedTrue { block, check } if *block == b && check == c => {
                    if c.constant_verdict() == Some(true) || vra_proved {
                        return Ok(Cover::Log);
                    }
                    tried.push(format!("folded-true `{c}` is not provably true"));
                }
                Event::HoistCovered {
                    block,
                    check,
                    preheader,
                    by,
                } if *block == b && check == c => {
                    match self.verify_hoist_cover(b, g, c, *preheader, by) {
                        Ok(()) => return Ok(Cover::Log),
                        Err(r) => tried.push(format!("hoist cover by `{by}` fails: {r}")),
                    }
                }
                Event::Discharged { block, check, .. } if *block == b && check == c => {
                    // the recorded reason is advisory; the trusted VRA
                    // must re-prove the verdict at the original site
                    if vra_proved {
                        return Ok(Cover::Log);
                    }
                    tried.push(format!("discharged `{c}` is not provably in-bounds"));
                }
                _ => {}
            }
        }
        // VRA fallback: the check can never fail at its original site
        if vra_proved {
            return Ok(Cover::Vra);
        }
        if tried.is_empty() {
            Err("no covering check in the gap and no justification event".into())
        } else {
            Err(tried.join("; "))
        }
    }

    /// Re-checks a `HoistCovered` claim: the deleted in-loop check must be
    /// covered by the preheader check under the invariance or loop-limit
    /// substitution rule, with the induction variable still at a
    /// body-valid value at the deleted site, and the preheader check must
    /// itself exist (or be accounted for).
    fn verify_hoist_cover(
        &self,
        b: BlockId,
        g: usize,
        c: &CheckExpr,
        ph: BlockId,
        by: &CheckExpr,
    ) -> Result<(), String> {
        let loops = self.loops_for_preheader(ph);
        if loops.is_empty() {
            return Err(format!("no loop has preheader b{}", ph.index()));
        }
        let mut last = String::from("no candidate loop matches");
        for info in loops {
            if !info.blocks.contains(&b) {
                last = format!("b{} is not in the loop body", b.index());
                continue;
            }
            let Some(iv) = &info.iv else {
                last = "loop has no recognized induction variable".into();
                continue;
            };
            let Some(ge) = iv.entry_guard() else {
                last = "loop has no computable entry guard".into();
                continue;
            };
            let expected = match ge.constant_verdict() {
                Some(true) => vec![],
                // the loop provably never runs: the deleted check was
                // unreachable, coverage is vacuous
                Some(false) => return Ok(()),
                None => vec![ge],
            };
            let covers = if info.is_invariant(c.form()) {
                by.family_key() == c.family_key() && by.bound() <= c.bound()
            } else if info.linear_in_iv(c.form()).is_some() {
                // the substitution only covers sites where the induction
                // variable still holds a body-valid value: reject if it
                // was redefined earlier in this block
                let iv_redefined = self
                    .ref_f
                    .block(b)
                    .stmts
                    .iter()
                    .filter(|s| !is_item(s))
                    .take(g)
                    .any(|s| s.defined_var() == Some(iv.var));
                if iv_redefined {
                    last = "induction variable redefined before the deleted check".into();
                    false
                } else {
                    match substitute_limit(info, c) {
                        Some(subst) => {
                            by.family_key() == subst.family_key() && by.bound() <= subst.bound()
                        }
                        None => {
                            last = "loop-limit substitution not applicable".into();
                            false
                        }
                    }
                }
            } else {
                last = "deleted check neither invariant nor linear in the loop".into();
                false
            };
            if covers {
                return self.resolve_cond_check(ph, &expected, by, 8);
            }
            if last == "no candidate loop matches" {
                last = format!("`{by}` does not cover `{c}` under the hoist rules");
            }
        }
        Err(last)
    }

    /// The hoisted conditional check claimed at `ph` must be present there
    /// with matching guards — or its absence must itself be justified
    /// (eliminated with an available witness, folded as constant-true,
    /// vacuous because a guard is constant-false, or re-hoisted outward).
    fn resolve_cond_check(
        &self,
        ph: BlockId,
        expected_guards: &[CheckExpr],
        cond: &CheckExpr,
        depth: u32,
    ) -> Result<(), String> {
        if depth == 0 {
            return Err("re-hoist chain too deep".into());
        }
        if expected_guards
            .iter()
            .any(|gd| gd.constant_verdict() == Some(false))
        {
            return Ok(()); // guard can never hold: the check never fires
        }
        for s in &self.opt_f.block(ph).stmts {
            if let Stmt::Check(c) = s {
                if &c.cond == cond && guards_match(&c.guards, expected_guards) {
                    return Ok(());
                }
            }
        }
        for e in &self.log.events {
            match e {
                Event::Eliminated {
                    block,
                    check,
                    because,
                } if *block == ph && check == cond && self.implies(because, cond) => {
                    // the conditional check sat at the end of the
                    // preheader: use the fact after the whole block
                    let stmts = &self.opt_f.block(ph).stmts;
                    let n_nc = stmts.iter().filter(|s| !is_item(s)).count();
                    if let Some(id) = self.u.id(because) {
                        if self.avail_at_gap(ph, n_nc).contains(id) {
                            return Ok(());
                        }
                    }
                }
                Event::FoldedTrue { block, check }
                    if *block == ph && check == cond && cond.constant_verdict() == Some(true) =>
                {
                    return Ok(());
                }
                Event::FoldedFalse { block, check }
                    if *block == ph
                        && check == cond
                        && cond.constant_verdict() == Some(false)
                        && self
                            .opt_f
                            .block(ph)
                            .stmts
                            .iter()
                            .any(|s| matches!(s, Stmt::Trap { .. })) =>
                {
                    // the hoisted check folded into an unconditional trap:
                    // every execution through the preheader traps before
                    // the covered in-loop site, so coverage is vacuous
                    // (the trap itself is a separate obligation)
                    return Ok(());
                }
                Event::Rehoisted {
                    preheader,
                    guards,
                    cond: moved_cond,
                    from_block,
                    original,
                } if *from_block == ph
                    && &original.cond == cond
                    && guards_match(&original.guards, expected_guards) =>
                {
                    self.verify_rehoist(*preheader, guards, moved_cond, *from_block, original)?;
                    return self.resolve_cond_check(*preheader, guards, moved_cond, depth - 1);
                }
                _ => {}
            }
        }
        Err(format!(
            "hoisted check `{cond}` not found in preheader b{} and its absence is unjustified",
            ph.index()
        ))
    }

    /// Re-checks a `Rehoisted` event by replaying the optimizer's rewrite:
    /// normalization of loop-limit temporaries, invariance of the guards,
    /// invariance-or-substitution of the condition, and the outer entry
    /// guard appended.
    fn verify_rehoist(
        &self,
        preheader: BlockId,
        eguards: &[CheckExpr],
        econd: &CheckExpr,
        from_block: BlockId,
        original: &Check,
    ) -> Result<(), String> {
        let loops = self.loops_for_preheader(preheader);
        if loops.is_empty() {
            return Err(format!("no loop has preheader b{}", preheader.index()));
        }
        let mut last = String::from("no candidate loop matches the re-hoist");
        for info in loops {
            let [latch] = info.latches[..] else {
                last = "loop has multiple latches".into();
                continue;
            };
            if !info.blocks.contains(&from_block) || from_block == info.header {
                last = format!("b{} is not a hoistable body block", from_block.index());
                continue;
            }
            if !self.dom.dominates(from_block, latch) {
                last = format!("b{} does not dominate the latch", from_block.index());
                continue;
            }
            let outer = match &info.iv {
                Some(iv) => match iv.entry_guard() {
                    Some(gd) => match gd.constant_verdict() {
                        Some(true) => None,
                        Some(false) => {
                            last = "outer loop provably never runs".into();
                            continue;
                        }
                        None => Some(gd),
                    },
                    None => {
                        last = "outer loop has no computable entry guard".into();
                        continue;
                    }
                },
                None => {
                    last = "outer loop has no induction variable".into();
                    continue;
                }
            };
            let nguards: Vec<CheckExpr> = original
                .guards
                .iter()
                .map(|gd| self.normalize_check(preheader, gd))
                .collect();
            if !nguards.iter().all(|gd| info.is_invariant(gd.form())) {
                last = "a guard is not invariant in the outer loop".into();
                continue;
            }
            let ncond = self.normalize_check(preheader, &original.cond);
            let expect_cond = if info.is_invariant(ncond.form()) {
                Some(ncond.clone())
            } else {
                substitute_limit(info, &ncond).map(|c| self.normalize_check(preheader, &c))
            };
            let Some(expect_cond) = expect_cond else {
                last = "condition neither invariant nor substitutable in the outer loop".into();
                continue;
            };
            if &expect_cond != econd {
                last = format!("rewritten condition should be `{expect_cond}`, log says `{econd}`");
                continue;
            }
            let mut expect_guards = nguards;
            if let Some(gd) = outer {
                expect_guards.push(self.normalize_check(preheader, &gd));
            }
            if !guards_match(eguards, &expect_guards) {
                last = "rewritten guards do not match the recomputed guard list".into();
                continue;
            }
            return Ok(());
        }
        Err(last)
    }

    // ---------------- direction B: no spurious traps ----------------

    fn justify_opt_check(
        &self,
        b: BlockId,
        g: usize,
        idx: usize,
        check: &Check,
    ) -> Result<Cover, String> {
        // reference point: same (block, gap) for shared blocks, the entry
        // of the first shared jump-successor for optimizer-created blocks
        let (ant_b, ant_g) = if b.index() < self.shared {
            (b, g)
        } else {
            match self.map_new_block(b) {
                Some(s) => (s, 0),
                None => {
                    return Err(
                        "optimizer-created block does not reach a shared block by jumps".into(),
                    )
                }
            }
        };
        // a reference check at the same point that implies this one means
        // the reference traps whenever this check does
        if self
            .ref_gap_checks(ant_b, ant_g)
            .iter()
            .any(|c| self.implies(c, &check.cond))
        {
            return Ok(Cover::Direct);
        }
        let mut tried = Vec::new();
        if check.is_unconditional() {
            let inserted = self.log.events.iter().any(|e| {
                matches!(e, Event::Inserted { block, check: x } if *block == b && x == &check.cond)
                    || matches!(e, Event::Strengthened { block, to, .. } if *block == b && to == &check.cond)
            });
            if inserted {
                let fact = self.antic_at_gap(ant_b, ant_g);
                if fact
                    .iter()
                    .any(|d| self.implies(&self.u.checks[d], &check.cond))
                {
                    return Ok(Cover::Log);
                }
                tried.push(format!(
                    "inserted check not anticipated at b{}/gap {}",
                    ant_b.index(),
                    ant_g
                ));
            }
        }
        // hoisted (possibly with all guards folded away) or re-hoisted
        match self.justify_cond_at(b, &check.guards, &check.cond, 8) {
            Ok(()) => return Ok(Cover::Log),
            Err(r) => tried.push(r),
        }
        // VRA fallback on the optimized function: a check that can never
        // fail can never trap spuriously
        if self.vra_opt().at(self.opt_f, b, idx).verdict(&check.cond) == Some(true) {
            return Ok(Cover::Vra);
        }
        Err(tried.join("; "))
    }

    /// Justifies a conditional (or guard-folded) check at `b`: it is a
    /// hoist into this preheader (recomputed guards and an anticipated
    /// origin at the loop body entry), or a re-hoist whose origin is
    /// justified recursively.
    fn justify_cond_at(
        &self,
        b: BlockId,
        guards: &[CheckExpr],
        cond: &CheckExpr,
        depth: u32,
    ) -> Result<(), String> {
        if depth == 0 {
            return Err("re-hoist justification chain too deep".into());
        }
        let mut tried = Vec::new();
        match self.verify_hoist(b, guards, cond) {
            Ok(()) => return Ok(()),
            Err(r) => tried.push(r),
        }
        for e in &self.log.events {
            if let Event::Rehoisted {
                preheader,
                guards: eg,
                cond: ec,
                from_block,
                original,
            } = e
            {
                if *preheader == b && ec == cond && guards_match(guards, eg) {
                    match self
                        .verify_rehoist(*preheader, eg, ec, *from_block, original)
                        .and_then(|()| {
                            self.justify_cond_at(
                                *from_block,
                                &original.guards,
                                &original.cond,
                                depth - 1,
                            )
                        }) {
                        Ok(()) => return Ok(()),
                        Err(r) => tried.push(format!("re-hoist from b{}: {r}", from_block.index())),
                    }
                }
            }
        }
        Err(tried.join("; "))
    }

    /// Re-checks a hoist into preheader `b`: the guards must equal the
    /// recomputed loop entry guard, and the condition must correspond —
    /// as an invariant or by loop-limit substitution — to a check the
    /// reference anticipates at the loop's body entry.
    fn verify_hoist(
        &self,
        b: BlockId,
        guards: &[CheckExpr],
        cond: &CheckExpr,
    ) -> Result<(), String> {
        let loops = self.loops_for_preheader(b);
        if loops.is_empty() {
            return Err(format!("b{} is not a loop preheader", b.index()));
        }
        let mut last = String::from("no candidate loop certifies the hoist");
        for info in loops {
            let Some(iv) = &info.iv else {
                last = "loop has no recognized induction variable".into();
                continue;
            };
            let Some(ge) = iv.entry_guard() else {
                last = "loop has no computable entry guard".into();
                continue;
            };
            let expected = match ge.constant_verdict() {
                Some(true) => vec![],
                Some(false) => {
                    last = "loop provably never runs yet a check was hoisted for it".into();
                    continue;
                }
                None => vec![ge],
            };
            if !guards_match(guards, &expected) {
                last = "guards do not match the recomputed loop entry guard".into();
                continue;
            }
            let Some(be) = info.body_entry else {
                last = "loop has no unique body entry".into();
                continue;
            };
            if be.index() >= self.shared {
                last = "loop body entry is not a shared block".into();
                continue;
            }
            let fact = &self.ref_antic.entry[be.index()];
            for d in fact.iter() {
                let dc = &self.u.checks[d];
                if (dc == cond && info.is_invariant(cond.form()))
                    || substitute_limit(info, dc).as_ref() == Some(cond)
                {
                    return Ok(());
                }
            }
            last = format!(
                "`{cond}` does not correspond to any check anticipated at the loop body entry"
            );
        }
        Err(last)
    }

    /// A `TRAP` is justified when it replaced a check proven false at
    /// compile time — and that check is one the reference performs (or
    /// anticipates) at the same point, so the reference traps here too.
    fn justify_trap(&self, b: BlockId, g: usize, idx: usize) -> Result<Cover, String> {
        // unreachable trap: nothing to justify
        if self.vra_opt().at(self.opt_f, b, idx).bottom {
            return Ok(Cover::Vra);
        }
        let (ant_b, ant_g) = if b.index() < self.shared {
            (b, g)
        } else {
            match self.map_new_block(b) {
                Some(s) => (s, 0),
                None => {
                    return Err(
                        "optimizer-created block does not reach a shared block by jumps".into(),
                    )
                }
            }
        };
        for e in &self.log.events {
            let Event::FoldedFalse { block, check } = e else {
                continue;
            };
            if *block != b || check.constant_verdict() != Some(false) {
                continue;
            }
            if self
                .ref_gap_checks(ant_b, ant_g)
                .iter()
                .any(|c| self.implies(c, check))
            {
                return Ok(Cover::Log);
            }
            let fact = self.antic_at_gap(ant_b, ant_g);
            if fact.iter().any(|d| self.implies(&self.u.checks[d], check)) {
                return Ok(Cover::Log);
            }
            // a hoisted check whose guards all folded constant-true and
            // whose condition folded constant-false: the unconditional
            // trap fires exactly when the certified conditional check
            // would have
            if self.justify_cond_at(b, &[], check, 8).is_ok() {
                return Ok(Cover::Log);
            }
        }
        Err("no folded-false justification matches this trap".into())
    }
}
