//! Execution outcomes and reporting.

use std::fmt;

use cheri_mem::{MemError, MemEvent, MemStats, TrapKind, Ub};

/// The message of the [`Outcome::Error`] a run ends with when it exhausts
/// its step budget.
pub(crate) const STEP_LIMIT: &str = "step limit exceeded";

/// How a program run ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Normal termination with an exit code.
    Exit(i64),
    /// The abstract machine detected undefined behaviour.
    Ub {
        /// Which UB.
        ub: Ub,
        /// Human-readable context.
        detail: String,
    },
    /// The (emulated) hardware raised a capability exception; on a real
    /// system the process dies with SIGPROT/SIGSEGV.
    Trap {
        /// Which architectural check failed.
        kind: TrapKind,
        /// Human-readable context.
        detail: String,
    },
    /// An `assert` failed.
    AssertFailed(String),
    /// `abort()` was called.
    Abort,
    /// The interpreter could not run the program (unsupported feature,
    /// step limit, internal failure). Not a program behaviour.
    Error(String),
}

impl Outcome {
    /// Did the program terminate normally with code 0?
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Exit(0))
    }

    /// Is this a memory-safety stop (UB detection or hardware trap)?
    #[must_use]
    pub fn is_safety_stop(&self) -> bool {
        matches!(self, Outcome::Ub { .. } | Outcome::Trap { .. })
    }

    /// Did the run stop at its step budget? The tree engine counts steps
    /// per AST node and the VM per instruction (and `--fast` runs fewer
    /// instructions), so two step-limited runs of one program count as
    /// agreeing wherever each stopped.
    #[must_use]
    pub fn is_step_limit(&self) -> bool {
        matches!(self, Outcome::Error(m) if m == STEP_LIMIT)
    }

    /// Short classification label for comparison tables.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Outcome::Exit(c) => format!("exit({c})"),
            Outcome::Ub { ub, .. } => format!("UB:{ub}"),
            Outcome::Trap { kind, .. } => format!("trap:{kind}"),
            Outcome::AssertFailed(_) => "assert-fail".into(),
            Outcome::Abort => "abort".into(),
            Outcome::Error(_) => "error".into(),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Exit(c) => write!(f, "exited with code {c}"),
            Outcome::Ub { ub, detail } => write!(f, "undefined behaviour: {ub} ({detail})"),
            Outcome::Trap { kind, detail } => write!(f, "hardware trap: {kind} ({detail})"),
            Outcome::AssertFailed(m) => write!(f, "assertion failed: {m}"),
            Outcome::Abort => write!(f, "aborted"),
            Outcome::Error(m) => write!(f, "interpreter error: {m}"),
        }
    }
}

impl From<MemError> for Outcome {
    fn from(e: MemError) -> Self {
        match e {
            MemError::Ub(ub, detail) => Outcome::Ub { ub, detail },
            MemError::Trap(kind, detail) => Outcome::Trap { kind, detail },
            MemError::Fail(m) => Outcome::Error(m),
        }
    }
}

/// The full result of running a program.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Number of reads of unspecified values that were concretised (each is
    /// a place where the semantics allows any value).
    pub unspecified_reads: u32,
    /// Memory-model operation counters for the run (loads, stores,
    /// allocations, padding, revoked capabilities) — the benchmark and
    /// experiment harnesses read these instead of re-instrumenting.
    pub mem_stats: MemStats,
}

impl RunResult {
    /// Shorthand used by tests: outcome label plus combined output.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.stdout.is_empty() && self.stderr.is_empty() {
            self.outcome.label()
        } else {
            format!("{}\n{}{}", self.outcome.label(), self.stdout, self.stderr)
        }
    }

    /// The engine-equivalence gate (`engine-diff` jobs and
    /// `tests/engine_differential.rs`): where the tree engine's run
    /// `self`, with its `events`, and the VM's run `vm` of one program
    /// part, in one line, or `None` if they agree. Two runs the step
    /// budget stopped agree wherever each stopped: the tree engine counts
    /// nodes and the VM instructions.
    #[must_use]
    pub fn engine_disagreement(
        &self,
        events: &[MemEvent],
        vm: &RunResult,
        vm_events: &[MemEvent],
    ) -> Option<String> {
        if self.outcome.is_step_limit() && vm.outcome.is_step_limit() {
            return None;
        }
        let (tl, vl) = (self.outcome.label(), vm.outcome.label());
        if tl != vl {
            Some(format!("outcome tree={tl} bytecode={vl}"))
        } else if self.stdout != vm.stdout || self.stderr != vm.stderr {
            Some("output differs between engines".to_string())
        } else if self.mem_stats != vm.mem_stats {
            Some("memory statistics differ between engines".to_string())
        } else if events == vm_events {
            None
        } else {
            let at = events.iter().zip(vm_events).position(|(a, b)| a != b);
            Some(format!(
                "event stream differs at #{} (tree {} vs bytecode {} events)",
                at.unwrap_or_else(|| events.len().min(vm_events.len())),
                events.len(),
                vm_events.len(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Outcome::Exit(0).label(), "exit(0)");
        assert!(Outcome::Exit(0).is_success());
        let ub = Outcome::Ub {
            ub: Ub::CheriBoundsViolation,
            detail: String::new(),
        };
        assert_eq!(ub.label(), "UB:UB_CHERI_BoundsViolation");
        assert!(ub.is_safety_stop());
        let trap = Outcome::Trap {
            kind: TrapKind::BoundsViolation,
            detail: String::new(),
        };
        assert!(trap.is_safety_stop());
        assert!(!trap.is_success());
        assert!(Outcome::Error(STEP_LIMIT.into()).is_step_limit());
        assert!(!Outcome::Error(format!("{STEP_LIMIT} at 3")).is_step_limit());
        assert!(!ub.is_step_limit());
    }

    #[test]
    fn mem_error_conversion() {
        let o: Outcome = MemError::ub(Ub::DoubleFree, "x").into();
        assert_eq!(
            o,
            Outcome::Ub {
                ub: Ub::DoubleFree,
                detail: "x".into()
            }
        );
    }
}
