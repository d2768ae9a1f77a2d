//! Implementation profiles.
//!
//! §5 and Appendix A of the paper compare the Cerberus reference semantics
//! against Clang (Morello and CHERI-RISC-V backends) and GCC (Morello
//! bare-metal), each at several optimisation levels. A [`Profile`] captures
//! the axes along which those implementations observably differ when running
//! the test suite:
//!
//! * the *semantics mode* of the memory model — abstract machine with UB
//!   detection (Cerberus) vs. hardware trap-only checking (real
//!   implementations), see [`cheri_mem::MemConfig`];
//! * the *allocator address layout* — which determines, e.g., whether
//!   `cap & INT_MAX` moves the address out of the representable range
//!   (Appendix A);
//! * *optimisation effects* — the specific transformations §3 discusses:
//!   identity-write elision (§3.5), transient out-of-bounds folding
//!   (§3.2/§3.3), and byte-copy-loop-to-`memcpy` conversion (§3.5). The
//!   paper compares each implementation at `-O0` and at `-O3` only, so the
//!   three come and go together.

use cheri_mem::{AddressLayout, MemConfig};

/// Emulated compiler-optimisation effects (only those the paper's semantics
/// discussion identifies as observable).
#[derive(Clone, Copy, Debug, Default)]
pub struct OptFlags {
    /// `-O3`: the three effects of §3 the paper observes at that level.
    /// An identity byte write (`p[0] = p[0]`) is removed, so it does not
    /// invalidate a stored capability (§3.5): the interpreter skips data
    /// stores that do not change memory contents. Constant folding collapses
    /// `(p + a) - b` into `p + (a-b)`, removing transient
    /// non-representability (§3.2/§3.3), and a byte-copy loop becomes a
    /// tag-preserving `memcpy` (§3.5): [`crate::opt::optimize`] rewrites the
    /// typed program.
    pub o3: bool,
    /// The *non-oracle* fast mode (ROADMAP item 1 track (b)): escape-analyse
    /// the lowered IR and register-promote provably never-addressed scalar
    /// locals, eliding their allocations entirely (DESIGN.md §12). Off by
    /// default and deliberately **not** part of [`OptFlags::o3`]: `o3` models
    /// *observable* compiler effects the paper discusses, while promotion is
    /// validated to be outcome/stdout-invariant (the event trace is out of
    /// contract). Enabled by the CLI `--fast` flag or a `@fast` profile
    /// suffix in batch manifests.
    pub register_promote: bool,
}

impl OptFlags {
    /// No optimisations (`-O0`).
    #[must_use]
    pub fn o0() -> Self {
        OptFlags::default()
    }

    /// The observable `-O3`-style effects.
    #[must_use]
    pub fn o3() -> Self {
        OptFlags {
            o3: true,
            register_promote: false,
        }
    }

    /// This flag set with the fast-mode register-promotion bit set.
    #[must_use]
    pub fn fast(mut self) -> Self {
        self.register_promote = true;
        self
    }
}

/// A complete implementation profile: how to run a CHERI C program.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Display name, e.g. `"clang-morello-O3"`.
    pub name: String,
    /// Memory-model configuration.
    pub mem: MemConfig,
    /// Optimisation effects.
    pub opt: OptFlags,
    /// Strict sub-object bounds (§3.8): narrow capabilities to the member
    /// or array element when taking its address. Off by default ("the
    /// current default behaviour of CHERI C is to not enforce subobject
    /// bounds"); Clang's `-cheri-bounds=subobject-safe` turns it on.
    pub subobject_bounds: bool,
}

impl Profile {
    /// The Cerberus-CHERI reference semantics (abstract machine, ghost
    /// state, UB detection, no optimisation).
    #[must_use]
    pub fn cerberus() -> Self {
        Profile {
            name: "cerberus".into(),
            mem: MemConfig::cheri_reference(),
            opt: OptFlags::o0(),
            subobject_bounds: false,
        }
    }

    /// The ISO C baseline (PNVI-ae-udi concrete model, no capabilities).
    #[must_use]
    pub fn iso_baseline() -> Self {
        Profile {
            name: "iso-baseline".into(),
            mem: MemConfig::iso_baseline(),
            opt: OptFlags::o0(),
            subobject_bounds: false,
        }
    }

    /// A CHERIoT-style embedded profile: 32-bit layout, hardware checking
    /// *plus* heap revocation — the "additional temporal guarantees" of
    /// §5.4. Pair it with [`cheri_cap::CheriotCap`] via
    /// [`crate::run_with`].
    #[must_use]
    pub fn cheriot() -> Self {
        Profile {
            name: "cheriot".into(),
            mem: MemConfig::cheriot(),
            opt: OptFlags::o0(),
            subobject_bounds: false,
        }
    }

    /// Clang's `-cheri-bounds=subobject-safe` mode (§3.8): like
    /// [`Profile::clang_morello`] but with sub-object bounds narrowing.
    #[must_use]
    pub fn clang_morello_subobject_safe() -> Self {
        let mut p = Self::clang_morello(false);
        p.name = "clang-morello-O0-subobject-safe".into();
        p.subobject_bounds = true;
        p
    }

    fn hardware(name: &str, layout: AddressLayout, opt: OptFlags) -> Self {
        Profile {
            name: format!("{name}-O{}", if opt.o3 { 3 } else { 0 }),
            mem: MemConfig::cheri_hardware(layout),
            opt,
            subobject_bounds: false,
        }
    }

    /// Clang targeting Morello under CheriBSD.
    #[must_use]
    pub fn clang_morello(o3: bool) -> Self {
        Self::hardware(
            "clang-morello",
            AddressLayout::clang_morello(),
            if o3 { OptFlags::o3() } else { OptFlags::o0() },
        )
    }

    /// Clang targeting CHERI-RISC-V under CheriBSD.
    #[must_use]
    pub fn clang_riscv(o3: bool) -> Self {
        Self::hardware(
            "clang-riscv",
            AddressLayout::clang_riscv(),
            if o3 { OptFlags::o3() } else { OptFlags::o0() },
        )
    }

    /// GCC targeting Morello bare-metal (newlib).
    #[must_use]
    pub fn gcc_morello(o3: bool) -> Self {
        Self::hardware(
            "gcc-morello",
            AddressLayout::gcc_morello(),
            if o3 { OptFlags::o3() } else { OptFlags::o0() },
        )
    }

    /// All the profiles the evaluation harness compares (the reference plus
    /// the six implementation configurations of §5 / Appendix A).
    #[must_use]
    pub fn all_compared() -> Vec<Profile> {
        vec![
            Profile::cerberus(),
            Profile::clang_morello(false),
            Profile::clang_morello(true),
            Profile::clang_riscv(false),
            Profile::clang_riscv(true),
            Profile::gcc_morello(false),
            Profile::gcc_morello(true),
        ]
    }

    /// Is this the abstract-machine reference semantics?
    #[must_use]
    pub fn is_reference(&self) -> bool {
        self.mem.abstract_ub && self.mem.capabilities
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile::cerberus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names() {
        assert_eq!(Profile::clang_morello(true).name, "clang-morello-O3");
        assert_eq!(Profile::gcc_morello(false).name, "gcc-morello-O0");
        assert_eq!(Profile::cerberus().name, "cerberus");
    }

    #[test]
    fn reference_is_abstract() {
        assert!(Profile::cerberus().is_reference());
        assert!(!Profile::clang_morello(false).is_reference());
        assert!(!Profile::iso_baseline().is_reference());
    }

    #[test]
    fn all_compared_has_seven_configs() {
        assert_eq!(Profile::all_compared().len(), 7);
    }

    #[test]
    fn fast_mode_is_off_by_default() {
        assert!(!OptFlags::o0().register_promote);
        assert!(!OptFlags::o3().register_promote);
        assert!(OptFlags::o0().fast().register_promote);
        for p in Profile::all_compared() {
            assert!(!p.opt.register_promote, "{} must default to the full model", p.name);
        }
    }
}
