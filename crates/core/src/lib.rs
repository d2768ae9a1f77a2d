//! Executable CHERI C semantics.
//!
//! This crate is the Rust reconstruction of the paper's executable
//! semantics (§4): a C front end (lexer, parser, type checker with explicit
//! capability derivation), an interpreter over the CHERI memory object model
//! of `cheri-mem`, the CHERI intrinsics with their polymorphic typing
//! (§4.5), and *implementation profiles* that emulate the observable
//! behaviour of the Clang and GCC CHERI C implementations the paper
//! compares against (§5, Appendix A).
//!
//! # Quickstart
//!
//! ```
//! use cheri_core::{run, Profile};
//!
//! // The §3.1 example: a one-past write. Under the reference semantics it
//! // is UB; on emulated hardware it traps.
//! let src = r#"
//!     void f(int *p, int i) { int *q = p + i; *q = 42; }
//!     int main(void) { int x=0, y=0; f(&x, 1); return y; }
//! "#;
//! let r = run(src, &Profile::cerberus());
//! assert_eq!(r.outcome.label(), "UB:UB_CHERI_BoundsViolation");
//! let r = run(src, &Profile::clang_morello(false));
//! assert_eq!(r.outcome.label(), "trap:capability bounds fault");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod interp;
pub mod ir;
pub mod lex;
pub mod opt;
pub mod parse;
pub mod profile;
pub mod report;
pub mod tast;
pub mod typeck;
pub mod types;

use cheri_cap::Capability;
pub use cheri_cap::{CheriotCap, MorelloCap};
pub use interp::{Engine, Interp};
pub use profile::{OptFlags, Profile};
pub use report::{Outcome, RunResult};

use types::TargetLayout;

/// Parse, type-check and optimise a program for a given profile.
///
/// # Errors
///
/// Returns a human-readable message on parse or type errors.
pub fn compile(src: &str, profile: &Profile) -> Result<tast::TProgram, String> {
    compile_for::<MorelloCap>(src, profile)
}

/// [`compile`] for an explicit capability model (the pointer size differs):
/// [`front_end`] for the profile's [`ptr_size_for`], then
/// [`opt::optimize`] with its flags.
///
/// # Errors
///
/// Returns a human-readable message on parse or type errors.
pub fn compile_for<C: Capability>(src: &str, profile: &Profile) -> Result<tast::TProgram, String> {
    front_end(src, ptr_size_for::<C>(profile)).map(|prog| opt::optimize(prog, &profile.opt))
}

/// Parse and type-check a program whose pointers (and `(u)intptr_t`)
/// occupy `ptr_size` bytes. This is everything [`compile_for`] does before
/// the profile's optimisation flags come in, so every profile with the
/// same pointer size shares its result.
///
/// # Errors
///
/// Returns a human-readable message on parse or type errors.
pub fn front_end(src: &str, ptr_size: u64) -> Result<tast::TProgram, String> {
    let parsed = parse::parse(src, TargetLayout { ptr_size }).map_err(|e| e.to_string())?;
    typeck::check(parsed).map_err(|e| e.to_string())
}

/// The stored-pointer size in bytes under `profile` and capability model
/// `C`: the capability size, or the machine-word size when the profile
/// runs without capabilities (the ISO baseline).
#[must_use]
pub fn ptr_size_for<C: Capability>(profile: &Profile) -> u64 {
    if profile.mem.capabilities {
        C::CAP_BYTES as u64
    } else {
        u64::from(C::ADDR_BITS / 8)
    }
}

/// Run a CHERI C program under a profile with the Morello capability model.
/// Front-end errors are reported as [`Outcome::Error`].
#[must_use]
pub fn run(src: &str, profile: &Profile) -> RunResult {
    run_with::<MorelloCap>(src, profile)
}

/// [`run`] generalised over the capability model — e.g. pass
/// [`CheriotCap`] to execute against the 64-bit CHERIoT-style format
/// (portability across architectures, §3.10).
#[must_use]
pub fn run_with<C: Capability>(src: &str, profile: &Profile) -> RunResult {
    run_with_engine::<C>(src, profile, Engine::default())
}

/// [`run_with`] with an explicit [`Engine`] selection (`run`/`run_with`
/// use the default, [`Engine::Bytecode`]; pass [`Engine::Tree`] for the
/// legacy recursive walker, e.g. via the CLI's `--engine tree`).
#[must_use]
pub fn run_with_engine<C: Capability>(src: &str, profile: &Profile, engine: Engine) -> RunResult {
    match compile_for::<C>(src, profile) {
        Ok(prog) => Interp::<C>::new(&prog, profile).with_engine(engine).run(),
        Err(msg) => front_end_error(msg),
    }
}

/// [`run`] returning the typed memory-event stream as well (with a
/// terminal exit/UB/trap event), for trace diffing and analysis. Front-end
/// errors are reported as [`Outcome::Error`] with an empty stream.
#[must_use]
pub fn run_traced(src: &str, profile: &Profile) -> (RunResult, Vec<cheri_mem::MemEvent>) {
    run_traced_with_engine(src, profile, Engine::default())
}

/// [`run_traced`] with an explicit [`Engine`] selection.
#[must_use]
pub fn run_traced_with_engine(
    src: &str,
    profile: &Profile,
    engine: Engine,
) -> (RunResult, Vec<cheri_mem::MemEvent>) {
    match compile_for::<MorelloCap>(src, profile) {
        Ok(prog) => Interp::<MorelloCap>::new(&prog, profile)
            .with_engine(engine)
            .run_with_events(),
        Err(msg) => (front_end_error(msg), Vec::new()),
    }
}

/// The result of a run the front end stopped before it began.
fn front_end_error(msg: String) -> RunResult {
    RunResult {
        outcome: Outcome::Error(msg),
        stdout: String::new(),
        stderr: String::new(),
        unspecified_reads: 0,
        mem_stats: cheri_mem::MemStats::default(),
    }
}

#[cfg(test)]
mod tests;
