//! The fast mode's promotion decision and its `--emit-escape` report.
//!
//! This is the decision half of the fast mode (DESIGN.md §12): a local
//! slot may move into a register ([`super::promote`]) exactly when it is a
//! scalar that nothing addresses, initialised by its declaration and not
//! `const`. A local that is not eligible carries a *why-not* reason set
//! ([`WhyNot`]), which the CLI renders through `--emit-escape` so every
//! decision is observable and golden-testable.
//!
//! ## Where the facts come from
//!
//! The paper's memory model makes every local a formal allocation, and in
//! C a local's address leaves only through `&` or array-to-pointer decay.
//! Both are typed nodes the lowering already visits, so
//! [`super::lower()`] records the facts per slot in [`IrFunc::locals`] as
//! it emits the instructions (see [`super::LocalFacts`]): an `AddrOf`,
//! `Decay` or bare-lvalue fallback directly on a local (`addr-taken`,
//! refined by the node the address feeds), an aggregate use (member
//! access, aggregate copy, string or list initialiser, a whole load at a
//! non-scalar type), no scalar initialiser, and `const`. It reads the
//! program after `opt::optimize`, so an address that is never lowered
//! (`sizeof(&x)`) takes nothing, and a declaration an optimisation
//! deleted (the §3.5 copy loop's counter) gets no row.
//!
//! The facts are syntactic, so they rely on the front end's scoping: a
//! name enters scope after its initialiser, `case` sections are separate
//! scopes, and there is no `goto`. Every use of a local is therefore
//! dominated by its declaration, and a promoted local is never read
//! before its initialising store.

use super::{IrFunc, IrProgram, LocalFacts};

/// Why a local was *not* promoted; a local can accumulate several.
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
    /// (`(uintptr_t)&x`, pointer arithmetic).
    CapabilityDerived,
    /// Not a single scalar object (array/struct/union, string or list
    /// initialiser, aggregate copy).
    NotScalar,
    /// Declared without a scalar initialiser: the memory form's first read
    /// is an uninitialised-read UB the register form could not reproduce.
    NoInitialiser,
    /// `const`-qualified (its capability is frozen read-only, §3.9).
    ConstQualified,
}

impl WhyNot {
    /// Every reason, in report order.
    const ALL: [WhyNot; 8] = [
        WhyNot::AddressTaken,
        WhyNot::PassedToCall,
        WhyNot::StoredToMemory,
        WhyNot::Compared,
        WhyNot::CapabilityDerived,
        WhyNot::NotScalar,
        WhyNot::NoInitialiser,
        WhyNot::ConstQualified,
    ];

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
            WhyNot::NoInitialiser => "no-initialiser",
            WhyNot::ConstQualified => "const-qualified",
        }
    }
}

/// A set of [`WhyNot`]s, one bit each.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WhyNotSet(u8);

impl WhyNotSet {
    /// Add `why` to the set.
    pub fn insert(&mut self, why: WhyNot) {
        self.0 |= 1 << why as u8;
    }

    /// No reason at all: the local may be promoted.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The reasons, in report order.
    pub fn iter(self) -> impl Iterator<Item = WhyNot> {
        WhyNot::ALL.into_iter().filter(move |&w| self.0 >> w as u8 & 1 != 0)
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
    /// Was it found promotable?
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

/// Report the decision for every local of every function of a lowered
/// program, from the facts [`super::lower()`] recorded.
#[must_use]
pub fn analyze_program(ir: &IrProgram) -> EscapeReport {
    EscapeReport {
        funcs: ir
            .funcs
            .iter()
            .map(|f| FuncEscape { func: f.name.clone(), locals: decisions(ir, f) })
            .collect(),
    }
}

/// The decision: a local moves into a register exactly when lowering
/// reached its declaration (or it is a parameter) and recorded no reason
/// to keep it in memory.
pub(crate) fn promotable(facts: LocalFacts) -> bool {
    facts.name.is_some() && facts.why_not.is_empty()
}

fn decisions(ir: &IrProgram, func: &IrFunc) -> Vec<LocalDecision> {
    func.locals
        .iter()
        .enumerate()
        .filter_map(|(slot, facts)| {
            Some(LocalDecision {
                slot: slot as u32,
                name: ir.strs[facts.name?.0 as usize].clone(),
                is_param: slot < func.params.len(),
                promoted: promotable(*facts),
                reasons: facts.why_not.iter().collect(),
            })
        })
        .collect()
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

    /// The address's use is refined by the node it feeds, whatever the
    /// evaluation of a later operand branches through.
    #[test]
    fn address_use_is_refined_past_a_branching_operand() {
        let r = report(
            "int g(int *p, int v) { return *p + v; }
             int main(void) { int c = 1; int x = 1; return g(&x, c ? 1 : 2); }",
        );
        let x = local(&r, "main", "x");
        assert_eq!(x.reasons, [WhyNot::AddressTaken, WhyNot::PassedToCall]);
    }

    /// An address the program never computes takes nothing.
    #[test]
    fn unevaluated_address_does_not_block() {
        let r = report("int main(void) { int x = 1; return (int)sizeof(&x) + x; }");
        assert!(local(&r, "main", "x").promoted);
    }
}
