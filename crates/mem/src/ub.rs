//! Undefined behaviours and the memory-model error monad.
//!
//! §4.2 of the paper: CHERI C adds four new undefined behaviours to ISO C's
//! catalogue, and the executable semantics flags the ISO ones too. The
//! [`Ub`] and [`TrapKind`] taxonomies themselves live in `cheri-obs` (so
//! trace events can carry them without a dependency cycle) and are
//! re-exported here under their historical paths; this module keeps the
//! error monad ([`MemError`], [`MemResult`]) that threads them through the
//! memory model's operations.

use std::fmt;

pub use cheri_obs::kinds::{TrapKind, Ub};

/// Error type of all memory-model operations (the `memM` monad of §4.3:
/// state threading is Rust `&mut self`, the error component is this enum).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The abstract machine encountered undefined behaviour.
    Ub(Ub, String),
    /// The (emulated) hardware raised a capability exception — used by the
    /// implementation profiles, where there is no abstract UB detection and
    /// the only checks are the architectural ones.
    Trap(TrapKind, String),
    /// A constraint failure that is not UB (e.g. allocation exhaustion).
    Fail(String),
}

impl MemError {
    /// Construct a UB error with context.
    pub fn ub(ub: Ub, ctx: impl Into<String>) -> Self {
        MemError::Ub(ub, ctx.into())
    }

    /// Construct a hardware trap error with context.
    pub fn trap(kind: TrapKind, ctx: impl Into<String>) -> Self {
        MemError::Trap(kind, ctx.into())
    }

    /// The UB, if this error is one.
    #[must_use]
    pub fn as_ub(&self) -> Option<Ub> {
        match self {
            MemError::Ub(ub, _) => Some(*ub),
            _ => None,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Ub(ub, ctx) if ctx.is_empty() => write!(f, "undefined behaviour: {ub}"),
            MemError::Ub(ub, ctx) => write!(f, "undefined behaviour: {ub} ({ctx})"),
            MemError::Trap(k, ctx) if ctx.is_empty() => write!(f, "hardware trap: {k}"),
            MemError::Trap(k, ctx) => write!(f, "hardware trap: {k} ({ctx})"),
            MemError::Fail(msg) => write!(f, "memory model failure: {msg}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Result type of memory-model operations.
pub type MemResult<T> = Result<T, MemError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheri_ubs_are_flagged() {
        assert!(Ub::CheriInvalidCap.is_cheri());
        assert!(Ub::CheriBoundsViolation.is_cheri());
        assert!(!Ub::AccessOutOfBounds.is_cheri());
        assert!(!Ub::LvalueReadTrapRepresentation.is_cheri());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Ub::CheriInvalidCap.name(), "UB_CHERI_InvalidCap");
        assert_eq!(Ub::CheriUndefinedTag.name(), "UB_CHERI_UndefinedTag");
        assert_eq!(
            Ub::CheriInsufficientPermissions.name(),
            "UB_CHERI_InsufficientPermissions"
        );
        assert_eq!(Ub::CheriBoundsViolation.name(), "UB_CHERI_BoundsViolation");
    }

    #[test]
    fn display_includes_context() {
        let e = MemError::ub(Ub::DoubleFree, "p");
        assert_eq!(e.to_string(), "undefined behaviour: UB_double_free (p)");
        assert_eq!(e.as_ub(), Some(Ub::DoubleFree));
    }
}
