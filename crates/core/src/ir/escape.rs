//! Intraprocedural address-taken/escape analysis over lowered bytecode.
//!
//! This is the static-analysis half of the fast mode (DESIGN.md §12,
//! ROADMAP item 1 track (b)): for every local slot of every function it
//! decides whether the local is *provably never addressed* — no `&x`, no
//! array decay, no capability derivation, no aliasing path at all — and
//! therefore eligible for register promotion by [`super::promote`]. A
//! local that is not eligible carries a *why-not* reason set ([`WhyNot`]),
//! which the CLI renders through `--emit-escape` so every decision is
//! observable and golden-testable.
//!
//! ## How it works
//!
//! The paper's memory model makes every local a formal allocation, and the
//! lowering keeps locals behind explicit instructions: `AllocLocal` makes
//! the object, an initialising `Store` writes it, `BindSlot` publishes it,
//! and every later access goes `SlotLoc` → `Load`/`Store`/finisher. The
//! only way a local's address can leave that closed world is through a
//! tracked *location register*, so the analysis is a forward dataflow over
//! the instruction CFG computing, per program point and per register,
//! which local object the register may locate:
//!
//! * `Site(pc)` — the object allocated by the `AllocLocal` at `pc`
//!   (the decl window, before its `BindSlot` attributes it to a slot);
//! * `Slot(s)` — the object currently bound to slot `s`;
//! * `Bot` — not a tracked location (plain values, globals, heap);
//! * `Top` — a merged/unknown location; both merge sides are blocked at
//!   the join, so `Top` itself never needs attributing.
//!
//! Register recycling (`FnLower::free_to`) makes a flow-*insensitive*
//! version uselessly coarse — the same register holds a different local's
//! location in every statement — hence the per-pc states, with dead
//! registers masked to `Bot` at CFG edges (a stale location in a dead
//! register is not a use).
//!
//! A use of a tracked register then classifies directly: `Load`/`Store`
//! and the compound-assignment finishers are *transparent* accesses
//! (recorded for type consistency), while `AddrOf` and everything that
//! lets the object's capability out (aggregate shifts, freezes, rebinds,
//! any unexpected consumer) *blocks* the local with a precise reason.
//! A second, definite-bind (must) pass guards the `SlotLoc`-before-
//! `BindSlot` error paths (`switch` can jump over a declaration, and
//! `int x = x + 1;` reads `x` unbound), and a per-slot access-type check
//! restricts promotion to single-typed scalars.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::types::Ty;

use super::peephole::{for_each_use, successors, Liveness};
use super::{Inst, IrFunc, IrProgram, Reg};

/// Why a local was *not* promoted. The variants follow the escape lattice
/// of DESIGN.md §12; a local can accumulate several.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WhyNot {
    /// Its address is taken (`&x`, or an array decaying to a pointer).
    AddressTaken,
    /// The taken address is passed to a call.
    PassedToCall,
    /// The taken address is stored through memory.
    StoredToMemory,
    /// The taken address is compared (provenance-aware `PtrCmp`).
    Compared,
    /// The taken address reaches a capability-deriving operation
    /// (`(uintptr_t)&x`, pointer arithmetic, sub-object narrowing).
    CapabilityDerived,
    /// Not a single scalar object (array/struct/union, string init,
    /// aggregate copy).
    NotScalar,
    /// Accessed at more than one static type.
    MixedAccessTypes,
    /// Declared without an initialiser: the memory form's first read is
    /// an uninitialised-read UB the register form could not reproduce.
    NoInitialiser,
    /// `const`-qualified (its capability is frozen read-only, §3.9).
    ConstQualified,
    /// A `SlotLoc` may execute before the slot's `BindSlot` (the
    /// "unbound variable" error path must be preserved).
    MaybeUnbound,
    /// Its location merges with another location or is rebound — the
    /// object is no longer uniquely identified by its slot.
    Aliased,
    /// Its location reaches an instruction the analysis does not model.
    Escapes,
}

impl WhyNot {
    /// Stable kebab-case label (used by `--emit-escape` and the goldens).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WhyNot::AddressTaken => "addr-taken",
            WhyNot::PassedToCall => "addr-passed-to-call",
            WhyNot::StoredToMemory => "addr-stored",
            WhyNot::Compared => "addr-compared",
            WhyNot::CapabilityDerived => "cap-derived",
            WhyNot::NotScalar => "not-scalar",
            WhyNot::MixedAccessTypes => "mixed-access-types",
            WhyNot::NoInitialiser => "no-initialiser",
            WhyNot::ConstQualified => "const-qualified",
            WhyNot::MaybeUnbound => "maybe-unbound",
            WhyNot::Aliased => "aliased",
            WhyNot::Escapes => "escapes",
        }
    }
}

/// The decision for one local slot.
#[derive(Clone, Debug)]
pub struct LocalDecision {
    /// Slot index within the function.
    pub slot: u32,
    /// Pretty source name.
    pub name: String,
    /// Is this a parameter (promoted parameters are passed in registers)?
    pub is_param: bool,
    /// Did the analysis prove it promotable?
    pub promoted: bool,
    /// Why not, when `promoted` is false (sorted, deduplicated).
    pub reasons: Vec<WhyNot>,
}

/// All decisions for one function.
#[derive(Clone, Debug)]
pub struct FuncEscape {
    /// Function name.
    pub func: String,
    /// Per-slot decisions, in slot order.
    pub locals: Vec<LocalDecision>,
}

/// The whole-program escape report (`--emit-escape`).
#[derive(Clone, Debug)]
pub struct EscapeReport {
    /// Per-function reports, in [`IrProgram::funcs`] order.
    pub funcs: Vec<FuncEscape>,
}

/// Analyse every function of a lowered program. Runs on the *raw*
/// lowering (the same input [`super::promote`] rewrites); the peephole
/// passes run after promotion.
#[must_use]
pub fn analyze_program(ir: &IrProgram) -> EscapeReport {
    EscapeReport {
        funcs: ir
            .funcs
            .iter()
            .map(|f| FuncEscape { func: f.name.clone(), locals: analyze_func(ir, f).decisions })
            .collect(),
    }
}

/// Abstract value of a register: which local object it may locate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Av {
    /// Not a tracked location.
    Bot,
    /// The object allocated by the `AllocLocal` at this pc.
    Site(u32),
    /// The object currently bound to this slot.
    Slot(u32),
    /// Merged locations (both sides were blocked when this was made).
    Top,
}

/// Analysis result for one function, with enough per-pc detail for the
/// promotion rewrite to consume.
pub(crate) struct FuncAnalysis {
    /// Per-slot decisions (public report form).
    pub(crate) decisions: Vec<LocalDecision>,
    /// In-state per pc (`None` = unreachable), `n_regs` wide.
    pub(crate) av_in: Vec<Option<Vec<Av>>>,
    /// `AllocLocal` pc → the slot its object gets bound to.
    pub(crate) site_slot: BTreeMap<u32, u32>,
}

impl FuncAnalysis {
    /// The slot the tracked register `r` locates at `pc`, if any.
    pub(crate) fn slot_at(&self, pc: usize, r: Reg) -> Option<u32> {
        match self.av_in[pc].as_ref()?[r as usize] {
            Av::Slot(s) => Some(s),
            Av::Site(p) => self.site_slot.get(&p).copied(),
            Av::Bot | Av::Top => None,
        }
    }
}

/// Per-slot facts accumulated by the classification pass.
#[derive(Default)]
struct SlotFacts {
    reasons: BTreeSet<WhyNot>,
    access_tys: BTreeSet<u32>,
    name: Option<String>,
}

/// Per-`AllocLocal` facts.
#[derive(Default)]
struct SiteFacts {
    init_stores: usize,
    bound_to: Option<u32>,
}

pub(crate) fn analyze_func(ir: &IrProgram, func: &IrFunc) -> FuncAnalysis {
    let n = func.code.len();
    let nr = func.n_regs as usize;
    let lv = Liveness::compute(func);

    // ── Forward location dataflow ───────────────────────────────────────
    let mut av_in: Vec<Option<Vec<Av>>> = vec![None; n];
    let mut merged: BTreeSet<Av> = BTreeSet::new();
    if n > 0 {
        av_in[0] = Some(vec![Av::Bot; nr]);
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        while let Some(pc) = work.pop_front() {
            let mut out = av_in[pc].clone().expect("queued pcs have states");
            transfer(&func.code[pc], pc, &mut out);
            successors(&func.code, pc, |s| {
                if s >= n {
                    return;
                }
                // Mask registers dead at the successor: a stale location in
                // a recycled register is not a use and must not merge.
                let mut masked = out.clone();
                for (r, v) in masked.iter_mut().enumerate() {
                    if !lv.is_live_in(s, r as Reg) {
                        *v = Av::Bot;
                    }
                }
                let changed = match &mut av_in[s] {
                    Some(cur) => {
                        let mut any = false;
                        for (c, m) in cur.iter_mut().zip(&masked) {
                            let j = join(*c, *m, &mut merged);
                            if j != *c {
                                *c = j;
                                any = true;
                            }
                        }
                        any
                    }
                    None => {
                        av_in[s] = Some(masked);
                        true
                    }
                };
                if changed {
                    work.push_back(s);
                }
            });
        }
    }

    // ── Classification pass over the stable states ──────────────────────
    let mut slots: BTreeMap<u32, SlotFacts> = BTreeMap::new();
    let mut sites: BTreeMap<u32, SiteFacts> = BTreeMap::new();
    // Reasons recorded against a decl site before its bind is known.
    let mut site_reasons: BTreeMap<u32, BTreeSet<WhyNot>> = BTreeMap::new();
    for (pc, entry) in av_in.iter().enumerate().take(n) {
        let Some(state) = entry else { continue };
        classify(ir, func, pc, state, &mut slots, &mut sites, &mut site_reasons);
    }
    // Every token that took part in a merge is blocked.
    for t in merged {
        match t {
            Av::Slot(s) => {
                slots.entry(s).or_default().reasons.insert(WhyNot::Aliased);
            }
            Av::Site(p) => {
                site_reasons.entry(p).or_default().insert(WhyNot::Aliased);
            }
            Av::Bot | Av::Top => {}
        }
    }

    // ── Definite-bind (must) pass: guard unbound-variable errors ────────
    for (pc, slot) in maybe_unbound(func, n) {
        let _ = pc;
        slots.entry(slot).or_default().reasons.insert(WhyNot::MaybeUnbound);
    }

    // ── Fold site facts into their slots ────────────────────────────────
    let mut site_slot: BTreeMap<u32, u32> = BTreeMap::new();
    for (p, f) in &sites {
        let Some(s) = f.bound_to else {
            // A reachable allocation whose bind never runs (the
            // initialiser always diverges): nothing attributes it, so the
            // slot — if anything ever touches it — stays unpromoted via
            // the definite-bind pass. Nothing to fold.
            continue;
        };
        site_slot.insert(*p, s);
        let sf = slots.entry(s).or_default();
        if f.init_stores == 0 {
            sf.reasons.insert(WhyNot::NoInitialiser);
        }
        if let Some(rs) = site_reasons.get(p) {
            sf.reasons.extend(rs.iter().copied());
        }
    }

    // ── Decide per slot ─────────────────────────────────────────────────
    let param_slots: BTreeMap<u32, &super::IrParam> =
        func.params.iter().map(|p| (p.slot, p)).collect();
    let bound_slots: BTreeSet<u32> = site_slot.values().copied().collect();
    // A local that no instruction names had its declaration deleted by an
    // optimisation pass (the §3.5 copy loop's counter): no decision.
    let named: BTreeSet<u32> = func
        .code
        .iter()
        .filter_map(|inst| match inst {
            Inst::BindSlot { slot, .. } | Inst::SlotLoc { slot, .. } => Some(*slot),
            _ => None,
        })
        .collect();
    let mut decisions = Vec::new();
    for slot in 0..func.n_slots {
        let is_param = param_slots.contains_key(&slot);
        if !is_param && !named.contains(&slot) {
            continue;
        }
        let mut facts = slots.remove(&slot).unwrap_or_default();
        if let Some(p) = param_slots.get(&slot) {
            facts.access_tys.insert(p.ty.0);
            facts.name = Some(ir.strs[p.name.0 as usize].clone());
        }
        if !is_param && !bound_slots.contains(&slot) {
            // No reachable declaration binds this slot: leave it to the
            // memory engine (its only behaviour is the unbound error).
            facts.reasons.insert(WhyNot::MaybeUnbound);
        }
        match facts.access_tys.len() {
            0 | 1 => {}
            _ => {
                facts.reasons.insert(WhyNot::MixedAccessTypes);
            }
        }
        if let Some(&t) = facts.access_tys.iter().next() {
            if !is_scalar(&ir.types[t as usize]) {
                facts.reasons.insert(WhyNot::NotScalar);
            }
        }
        let name = facts.name.unwrap_or_else(|| format!("slot{slot}"));
        let promoted = facts.reasons.is_empty();
        decisions.push(LocalDecision {
            slot,
            name,
            is_param,
            promoted,
            reasons: facts.reasons.into_iter().collect(),
        });
    }
    FuncAnalysis { decisions, av_in, site_slot }
}

fn is_scalar(ty: &Ty) -> bool {
    matches!(ty, Ty::Int(_) | Ty::Float(_) | Ty::Ptr { .. })
}

/// Join two abstract values; both sides of a genuine merge are recorded
/// in `merged` (and blocked later) so `Top` never needs attributing.
fn join(a: Av, b: Av, merged: &mut BTreeSet<Av>) -> Av {
    match (a, b) {
        (x, y) if x == y => x,
        (Av::Bot, x) | (x, Av::Bot) => {
            // A register live at a join holding a location on one path and
            // a plain value on the other: the lowering never produces this
            // for a loc that is subsequently used, but block the location
            // side rather than trust that.
            if x != Av::Top {
                merged.insert(x);
            }
            if x == Av::Top { Av::Top } else { x }
        }
        (x, y) => {
            merged.insert(x);
            merged.insert(y);
            Av::Top
        }
    }
}

/// The pure value-propagation half of the transfer function.
fn transfer(inst: &Inst, pc: usize, state: &mut [Av]) {
    match inst {
        Inst::AllocLocal { dst, .. } => state[*dst as usize] = Av::Site(pc as u32),
        Inst::SlotLoc { dst, slot, .. } => state[*dst as usize] = Av::Slot(*slot),
        Inst::Move { dst, src } => state[*dst as usize] = state[*src as usize],
        // A frozen location still locates the same object.
        Inst::FreezeLoc { dst, src } => state[*dst as usize] = state[*src as usize],
        _ => {
            if let Some(d) = super::peephole::def_of(inst) {
                state[d as usize] = Av::Bot;
            }
        }
    }
}

/// Record what `inst` does to every tracked location its operands hold.
#[allow(clippy::too_many_lines)]
fn classify(
    ir: &IrProgram,
    func: &IrFunc,
    pc: usize,
    state: &[Av],
    slots: &mut BTreeMap<u32, SlotFacts>,
    sites: &mut BTreeMap<u32, SiteFacts>,
    site_reasons: &mut BTreeMap<u32, BTreeSet<WhyNot>>,
) {
    let tracked = |r: Reg| match state[r as usize] {
        Av::Site(p) => Some(Av::Site(p)),
        Av::Slot(s) => Some(Av::Slot(s)),
        Av::Bot | Av::Top => None,
    };
    macro_rules! block {
        ($t:expr, $why:expr) => {
            match $t {
                Av::Slot(s) => {
                    slots.entry(s).or_default().reasons.insert($why);
                }
                Av::Site(p) => {
                    site_reasons.entry(p).or_default().insert($why);
                }
                Av::Bot | Av::Top => {}
            }
        };
    }
    macro_rules! access {
        ($loc:expr, $ty:expr) => {
            if let Some(t) = tracked($loc) {
                match t {
                    Av::Slot(s) => {
                        slots.entry(s).or_default().access_tys.insert($ty.0);
                    }
                    Av::Site(p) => {
                        // Decl-window accesses type-check against the slot
                        // once the bind resolves; record on the site's slot
                        // later is unnecessary — the init store's type is
                        // the same TyId the slot accesses use, and a
                        // mismatch would then show up there. Still record
                        // on the slot when already known.
                        let _ = p;
                    }
                    _ => {}
                }
            }
        };
    }
    match inst_at(func, pc) {
        Inst::SlotLoc { slot, name, .. } => {
            let f = slots.entry(*slot).or_default();
            if f.name.is_none() {
                f.name = Some(ir.strs[name.0 as usize].clone());
            }
        }
        Inst::AllocLocal { name, .. } => {
            sites.entry(pc as u32).or_default();
            let _ = name;
        }
        Inst::BindSlot { slot, src } => match state[*src as usize] {
            Av::Site(p) => {
                let site = sites.entry(p).or_default();
                match site.bound_to {
                    None => site.bound_to = Some(*slot),
                    Some(s) if s == *slot => {}
                    Some(s) => {
                        // One allocation bound to two slots: alias both.
                        block!(Av::Slot(s), WhyNot::Aliased);
                        block!(Av::Slot(*slot), WhyNot::Aliased);
                    }
                }
                // The allocation carries the pretty source name (`SlotLoc`
                // names get the lowering's shadowing suffix) — prefer it.
                if let Inst::AllocLocal { name, .. } = inst_at(func, p as usize) {
                    slots.entry(*slot).or_default().name =
                        Some(ir.strs[name.0 as usize].clone());
                }
            }
            // Rebinding a slot to another slot's object (or to an unknown
            // location) aliases it out of the closed world.
            other => {
                block!(Av::Slot(*slot), WhyNot::Aliased);
                if let Some(t) = match other {
                    Av::Slot(s) => Some(Av::Slot(s)),
                    _ => None,
                } {
                    block!(t, WhyNot::Aliased);
                }
            }
        },
        Inst::Load { loc, ty, .. } => access!(*loc, *ty),
        Inst::Store { loc, ty, src } => {
            if let Some(t) = tracked(*loc) {
                match t {
                    Av::Slot(s) => {
                        slots.entry(s).or_default().access_tys.insert(ty.0);
                    }
                    Av::Site(p) => {
                        sites.entry(p).or_default().init_stores += 1;
                    }
                    _ => {}
                }
            }
            // Storing a *location register* as the value is malformed;
            // be loud about the object rather than assume.
            if let Some(t) = tracked(*src) {
                block!(t, WhyNot::Escapes);
            }
        }
        Inst::IncDec { loc, ty, .. } => access!(*loc, *ty),
        Inst::AssignOpInt { loc, ty, .. } => access!(*loc, *ty),
        Inst::AssignOpFloat { loc, ty, .. } => access!(*loc, *ty),
        Inst::PtrAssignAdd { loc, ty, .. } => access!(*loc, *ty),
        Inst::AddrOf { dst, loc, .. } => {
            if let Some(t) = tracked(*loc) {
                block!(t, WhyNot::AddressTaken);
                if let Some(refined) = classify_addr_use(func, pc, *dst) {
                    block!(t, refined);
                }
            }
        }
        Inst::FreezeLoc { src, .. } => {
            if let Some(t) = tracked(*src) {
                block!(t, WhyNot::ConstQualified);
            }
        }
        Inst::MemberShift { src, .. } => {
            if let Some(t) = tracked(*src) {
                block!(t, WhyNot::NotScalar);
            }
        }
        Inst::MemcpyAgg { dst, src, .. } => {
            for r in [*dst, *src] {
                if let Some(t) = tracked(r) {
                    block!(t, WhyNot::NotScalar);
                }
            }
        }
        Inst::InitStr { loc, .. } => {
            if let Some(t) = tracked(*loc) {
                block!(t, WhyNot::NotScalar);
            }
        }
        // `Move` propagates the token (handled in `transfer`), but a
        // location that flows through a register copy is no longer the
        // single `SlotLoc`-to-use chain the promotion rewrite handles —
        // block it (the lowering only ever `Move`s values, so this arm is
        // purely defensive).
        Inst::Move { src, .. } => {
            if let Some(t) = tracked(*src) {
                block!(t, WhyNot::Aliased);
            }
        }
        inst => {
            for_each_use(inst, |r| {
                if let Some(t) = tracked(r) {
                    let why = match inst {
                        Inst::CallDirect { .. }
                        | Inst::CallIndirect { .. }
                        | Inst::CallBuiltin { .. } => WhyNot::PassedToCall,
                        Inst::PtrCmp { .. } => WhyNot::Compared,
                        Inst::PtrToInt { .. } | Inst::PtrAdd { .. } | Inst::IntToPtr { .. } => {
                            WhyNot::CapabilityDerived
                        }
                        _ => WhyNot::Escapes,
                    };
                    block!(t, why);
                }
            });
        }
    }
}

fn inst_at(func: &IrFunc, pc: usize) -> &Inst {
    &func.code[pc]
}

/// Refine a plain `AddressTaken` by following the produced pointer value
/// to its first consumer along the fall-through window (stopping at a
/// block boundary, control transfer, or redefinition). Purely a better
/// label — the local is blocked either way.
fn classify_addr_use(func: &IrFunc, pc: usize, dst: Reg) -> Option<WhyNot> {
    for (off, inst) in func.code.iter().enumerate().skip(pc + 1) {
        if func.block_pc.binary_search(&(off as u32)).is_ok() {
            return None; // a join: the value may flow anywhere
        }
        let mut used = false;
        for_each_use(inst, |r| used |= r == dst);
        if used {
            return Some(match inst {
                Inst::CallDirect { .. } | Inst::CallIndirect { .. } | Inst::CallBuiltin { .. } => {
                    WhyNot::PassedToCall
                }
                Inst::Store { src, .. } if *src == dst => WhyNot::StoredToMemory,
                Inst::PtrCmp { .. } => WhyNot::Compared,
                Inst::PtrToInt { .. } | Inst::PtrAdd { .. } => WhyNot::CapabilityDerived,
                _ => return None,
            });
        }
        match inst {
            Inst::Jump { .. }
            | Inst::JumpIfFalse { .. }
            | Inst::JumpIfTrue { .. }
            | Inst::SwitchInt { .. }
            | Inst::Ret { .. }
            | Inst::RetVoid
            | Inst::RetFall => return None,
            _ => {}
        }
        if super::peephole::def_of(inst) == Some(dst) {
            return None;
        }
    }
    None
}

/// Definite-bind forward must-analysis: yields `(pc, slot)` for every
/// reachable `SlotLoc` whose slot is not bound on **all** paths to it.
fn maybe_unbound(func: &IrFunc, n: usize) -> Vec<(usize, u32)> {
    if n == 0 {
        return Vec::new();
    }
    let words = (func.n_slots as usize).div_ceil(64).max(1);
    // `None` = unreached (top of the must-lattice).
    let mut bound_in: Vec<Option<Vec<u64>>> = vec![None; n];
    let mut entry = vec![0u64; words];
    for p in &func.params {
        entry[p.slot as usize / 64] |= 1u64 << (p.slot % 64);
    }
    bound_in[0] = Some(entry);
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    while let Some(pc) = work.pop_front() {
        let mut out = bound_in[pc].clone().expect("queued pcs have states");
        if let Inst::BindSlot { slot, .. } = &func.code[pc] {
            out[*slot as usize / 64] |= 1u64 << (slot % 64);
        }
        successors(&func.code, pc, |s| {
            if s >= n {
                return;
            }
            let changed = match &mut bound_in[s] {
                Some(cur) => {
                    let mut any = false;
                    for (c, o) in cur.iter_mut().zip(&out) {
                        let m = *c & *o;
                        if m != *c {
                            *c = m;
                            any = true;
                        }
                    }
                    any
                }
                None => {
                    bound_in[s] = Some(out.clone());
                    true
                }
            };
            if changed {
                work.push_back(s);
            }
        });
    }
    let mut bad = Vec::new();
    for (pc, inst) in func.code.iter().enumerate() {
        if let Inst::SlotLoc { slot, .. } = inst {
            if let Some(b) = &bound_in[pc] {
                if b[*slot as usize / 64] >> (slot % 64) & 1 == 0 {
                    bad.push((pc, *slot));
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str) -> EscapeReport {
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        analyze_program(&super::super::lower(&prog))
    }

    fn local<'r>(r: &'r EscapeReport, func: &str, name: &str) -> &'r LocalDecision {
        r.funcs
            .iter()
            .find(|f| f.func == func)
            .unwrap_or_else(|| panic!("no func {func}"))
            .locals
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("no local {name} in {func}"))
    }

    #[test]
    fn plain_scalars_promote() {
        let r = report(
            "int main(void) { long s = 0; for (int i = 0; i < 4; i++) s += i; return (int)s; }",
        );
        assert!(local(&r, "main", "s").promoted);
        assert!(local(&r, "main", "i").promoted);
    }

    #[test]
    fn address_taken_blocks() {
        let r = report("int main(void) { int x = 1; int *p = &x; return *p; }");
        let x = local(&r, "main", "x");
        assert!(!x.promoted);
        assert!(x.reasons.contains(&WhyNot::AddressTaken), "{:?}", x.reasons);
        assert!(x.reasons.contains(&WhyNot::StoredToMemory), "{:?}", x.reasons);
        // ... while the pointer itself is a never-addressed scalar.
        assert!(local(&r, "main", "p").promoted);
    }

    #[test]
    fn call_argument_blocks_with_reason() {
        let r = report(
            "void f(int *p) { *p = 2; } int main(void) { int x = 1; f(&x); return x; }",
        );
        let x = local(&r, "main", "x");
        assert!(!x.promoted);
        assert!(x.reasons.contains(&WhyNot::PassedToCall), "{:?}", x.reasons);
        // The callee's pointer parameter is itself promotable: the *pointer*
        // object is never addressed, only the pointee.
        assert!(local(&r, "f", "p").promoted);
    }

    #[test]
    fn arrays_and_aggregates_do_not_promote() {
        let r = report(
            "struct s { int a; int b; };
             int main(void) {
               int arr[3] = {1, 2, 3};
               struct s v = {4, 5};
               return arr[1] + v.b;
             }",
        );
        assert!(!local(&r, "main", "arr").promoted);
        assert!(!local(&r, "main", "v").promoted);
    }

    #[test]
    fn uninitialised_and_const_do_not_promote() {
        let r = report(
            "int main(void) { int u; const int c = 3; u = 2; return u + c; }",
        );
        let u = local(&r, "main", "u");
        assert!(!u.promoted);
        assert!(u.reasons.contains(&WhyNot::NoInitialiser), "{:?}", u.reasons);
        let c = local(&r, "main", "c");
        assert!(!c.promoted);
        assert!(c.reasons.contains(&WhyNot::ConstQualified), "{:?}", c.reasons);
    }

    #[test]
    fn capability_derivation_blocks() {
        let r = report(
            "int main(void) { int x = 1; uintptr_t u = (uintptr_t)&x; return (int)(u & 0); }",
        );
        let x = local(&r, "main", "x");
        assert!(!x.promoted, "{:?}", x.reasons);
        assert!(x.reasons.contains(&WhyNot::AddressTaken), "{:?}", x.reasons);
        assert!(x.reasons.contains(&WhyNot::CapabilityDerived), "{:?}", x.reasons);
    }

    #[test]
    fn conditionally_bound_slot_stays_unpromoted() {
        // The typechecker makes a source-level unbound read unrepresentable,
        // so the `SlotLoc`-before-`BindSlot` guard is exercised on
        // hand-built IR: a path that jumps over the declaration must keep
        // the slot in memory so the VM's "unbound variable" error survives.
        use crate::types::{IntTy, Ty};
        use super::super::{IrFunc, StrId, TyId};
        let code = vec![
            Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 1 },
            Inst::JumpIfFalse { src: 0, target: 6 },
            Inst::AllocLocal { dst: 1, name: StrId(0), size: 4, align: 4, zero: false },
            Inst::ConstInt { dst: 2, ity: IntTy::Int, v: 7 },
            Inst::Store { loc: 1, ty: TyId(0), src: 2 },
            Inst::BindSlot { slot: 0, src: 1 },
            Inst::SlotLoc { dst: 3, slot: 0, name: StrId(0) },
            Inst::Load { dst: 4, loc: 3, ty: TyId(0) },
            Inst::Ret { src: 4 },
        ];
        let ir = IrProgram {
            funcs: vec![IrFunc {
                name: "main".into(),
                is_main: true,
                params: Vec::new(),
                n_slots: 1,
                n_regs: 5,
                code,
                block_pc: vec![0, 2, 6],
                promoted: Vec::new(),
            }],
            func_index: std::iter::once(("main".to_string(), 0)).collect(),
            types: vec![Ty::Int(IntTy::Int)],
            strs: vec!["x".into()],
            globals: Vec::new(),
            main: Some(0),
        };
        let a = analyze_func(&ir, &ir.funcs[0]);
        let x = &a.decisions[0];
        assert!(!x.promoted);
        assert!(x.reasons.contains(&WhyNot::MaybeUnbound), "{:?}", x.reasons);
    }
}
