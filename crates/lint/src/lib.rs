//! `cheri-lint` — a static capability/UB analyzer over the typed CHERI C
//! AST, soundness-gated against the dynamic semantics.
//!
//! The analyzer assigns every program a three-valued verdict *per UB/trap
//! class* (out-of-bounds, use-after-free, uninitialised read, provenance,
//! tag stripping, permission, arithmetic, null dereference, misaligned
//! capability store — see [`classes`]):
//!
//! * [`Verdict::MustUb`] — the class *will* occur when the program runs
//!   under this profile;
//! * [`Verdict::Clean`] — the class *cannot* occur;
//! * [`Verdict::MayUb`] — the analysis lost precision and can promise
//!   neither.
//!
//! Architecture: a two-mode abstract interpretation. Mode A, the
//! definite pass, runs the program over the singleton abstract domain —
//! every value fully concrete — and that domain is exactly a concrete
//! run. So Mode A *is* the interpreter's tree engine
//! ([`cheri_core::Engine::Tree`]), started with
//! [`cheri_core::Interp::run_observed`] under an observer that enforces
//! the lint's step budget and turns the run's memory events and lossy
//! conversions into positioned cause notes. `MustUb` verdicts are the
//! memory model itself faulting and `Clean` verdicts are completed
//! executions, with no second copy of the semantics to drift. When Mode A
//! exhausts its step budget or call depth, or meets an unsupported
//! construct, it *widens* to Mode B ([`mayscan`]), a one-pass syntactic
//! over-approximation that downgrades only the classes the program could
//! syntactically exhibit to `MayUb`.
//!
//! The headline property, enforced by `tests/lint_soundness.rs` over the
//! oracle-fuzz corpus on every compared profile: every `MustUb` program
//! dynamically stops with UB/trap of the predicted class, and no `Clean`
//! program ever dynamically UBs. Disagreements are shrunk to minimal
//! reproducers automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod mayscan;

use std::collections::HashMap;

use cheri_cap::Capability;
use cheri_core::interp::{Conversion, Observer, Stop};
use cheri_core::lex::Pos;
use cheri_core::profile::Profile;
use cheri_core::report::Outcome;
use cheri_core::tast::TProgram;
use cheri_core::{Interp, MorelloCap};
use cheri_mem::{CheriMemory, MemError, MemEvent, TagClearReason};
use cheri_obs::{DiagSeverity, Diagnostic};

pub use classes::{class_of_trap, class_of_ub, UbClass, ALL_CLASSES};

/// The analyzer's step budget before widening — deliberately far below
/// the interpreter's 50M so lint always terminates quickly; programs that
/// run longer get the (sound) widened verdicts instead.
pub const LINT_STEP_BUDGET: u64 = 5_000_000;

/// A three-valued verdict for one UB/trap class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Verdict {
    /// The class cannot occur in any execution of this program under this
    /// profile.
    Clean,
    /// The analysis cannot exclude the class (widened, or a latent hazard
    /// was observed).
    MayUb,
    /// The class occurs: the definite execution faulted with it.
    MustUb,
}

impl Verdict {
    /// Stable lower-case label (`clean` / `may-ub` / `must-ub`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::MayUb => "may-ub",
            Verdict::MustUb => "must-ub",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which mode produced the report.
#[derive(Clone, Debug)]
pub enum LintMode {
    /// Mode A ran to completion: verdicts are exact.
    Definite,
    /// Mode A widened (reason attached): `MayUb` verdicts are the
    /// syntactic over-approximation.
    Widened(String),
}

/// One finding: a classed, positioned observation backing a verdict.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Severity: `Must` backs a `MustUb` verdict, `May` a widened one,
    /// `Note` is a supporting observation.
    pub severity: DiagSeverity,
    /// The verdict class.
    pub class: UbClass,
    /// Paper anchor (defaults to the class anchor).
    pub anchor: &'static str,
    /// Source position (line 0 = none).
    pub pos: Pos,
    /// Human-readable message.
    pub message: String,
    /// Deduplicated occurrence count.
    pub count: u64,
}

impl Finding {
    fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            severity: self.severity,
            class: self.class.name().to_string(),
            anchor: self.anchor.to_string(),
            line: self.pos.line,
            col: self.pos.col,
            message: self.message.clone(),
            count: self.count,
        }
    }
}

/// The analyzer's full result for one program under one profile.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Per-class verdicts, in [`ALL_CLASSES`] order.
    pub verdicts: Vec<(UbClass, Verdict)>,
    /// Findings backing the verdicts (must first, then may, then notes).
    pub findings: Vec<Finding>,
    /// Which mode produced the verdicts.
    pub mode: LintMode,
    /// The predicted dynamic outcome label (e.g. `exit(0)`,
    /// `UB:CHERI_BoundsViolation`) — only when the analysis is
    /// [`LintMode::Definite`], where it must match the interpreter
    /// bit-for-bit.
    pub predicted: Option<String>,
    /// Steps the definite pass ran.
    pub steps: u64,
}

impl LintReport {
    /// The verdict for one class.
    #[must_use]
    pub fn verdict(&self, class: UbClass) -> Verdict {
        self.verdicts
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(Verdict::Clean, |(_, v)| *v)
    }

    /// The worst verdict across all classes.
    #[must_use]
    pub fn overall(&self) -> Verdict {
        self.verdicts
            .iter()
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(Verdict::Clean)
    }

    /// The class of the `MustUb` verdict, if any.
    #[must_use]
    pub fn must_class(&self) -> Option<UbClass> {
        self.verdicts
            .iter()
            .find(|(_, v)| *v == Verdict::MustUb)
            .map(|(c, _)| *c)
    }

    /// The lint-soundness gate (`lint-check` jobs and
    /// `tests/lint_soundness.rs`): how this report contradicts the
    /// dynamic `outcome` of the same program under the same profile, or
    /// `None` if it does not. A `MustUb` run must stop with UB or a trap
    /// of the predicted class, a `Clean` one must not safety-stop, and a
    /// definite prediction must be the outcome's label.
    #[must_use]
    pub fn soundness_violation(&self, outcome: &Outcome) -> Option<String> {
        let dynamic_class = match outcome {
            Outcome::Ub { ub, .. } => Some(class_of_ub(*ub)),
            Outcome::Trap { kind, .. } => Some(class_of_trap(*kind)),
            _ => None,
        };
        let label = outcome.label();
        match (self.overall(), self.must_class()) {
            (Verdict::MustUb, Some(predicted)) if dynamic_class != Some(predicted) => {
                return Some(format!("MustUb({predicted}) but dynamic outcome is {label}"));
            }
            (Verdict::Clean, _) if outcome.is_safety_stop() => {
                return Some(format!("Clean but dynamic outcome is a safety stop: {label}"));
            }
            _ => {}
        }
        match (&self.mode, &self.predicted) {
            (LintMode::Definite, Some(pred)) if *pred != label => Some(format!(
                "definite analysis predicted {pred} but dynamic outcome is {label}"
            )),
            _ => None,
        }
    }

    /// Documented process exit code: 0 = clean, 3 = may-UB, 4 = must-UB.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self.overall() {
            Verdict::Clean => 0,
            Verdict::MayUb => 3,
            Verdict::MustUb => 4,
        }
    }

    /// Convert the findings into renderer-ready diagnostics.
    #[must_use]
    pub fn to_diagnostics(&self) -> Vec<Diagnostic> {
        let mut ds: Vec<&Finding> = self.findings.iter().collect();
        ds.sort_by_key(|d| std::cmp::Reverse(d.severity));
        ds.iter().map(|f| f.to_diagnostic()).collect()
    }

    /// Render the full report as text: a verdict header, the per-class
    /// table, and the diagnostics.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mode = match &self.mode {
            LintMode::Definite => "definite".to_string(),
            LintMode::Widened(r) => format!("widened: {r}"),
        };
        out.push_str(&format!("lint: {} [{}]\n", self.overall(), mode));
        if let Some(p) = &self.predicted {
            out.push_str(&format!("predicted outcome: {p}\n"));
        }
        for (c, v) in &self.verdicts {
            out.push_str(&format!("  {:<20} {}\n", c.name(), v.label()));
        }
        let diags = self.to_diagnostics();
        if !diags.is_empty() {
            out.push('\n');
            out.push_str(&cheri_obs::render_diagnostics_text(&diags));
        }
        out
    }

    /// Render the full report as JSON (stable key order, one diagnostic
    /// per line).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"verdict\": \"{}\",\n",
            self.overall().label()
        ));
        let (mode, reason) = match &self.mode {
            LintMode::Definite => ("definite", None),
            LintMode::Widened(r) => ("widened", Some(r.as_str())),
        };
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        if let Some(r) = reason {
            out.push_str("  \"widen_reason\": \"");
            cheri_obs::render::json_escape(r, &mut out);
            out.push_str("\",\n");
        }
        if let Some(p) = &self.predicted {
            out.push_str("  \"predicted\": \"");
            cheri_obs::render::json_escape(p, &mut out);
            out.push_str("\",\n");
        }
        out.push_str("  \"classes\": {");
        for (i, (c, v)) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": \"{}\"", c.name(), v.label()));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"diagnostics\": ");
        let diags = self.to_diagnostics();
        let rendered = cheri_obs::render_diagnostics_json(&diags);
        // Indent the array body to nest inside the report object.
        let mut first = true;
        for line in rendered.lines() {
            if first {
                out.push_str(line);
                first = false;
            } else {
                out.push('\n');
                out.push_str("  ");
                out.push_str(line);
            }
        }
        out.push('\n');
        out.push_str("}\n");
        out
    }
}

/// Mode A's observer: it enforces [`LINT_STEP_BUDGET`] and folds what
/// the run does without stopping — tag clears with their mechanism,
/// non-representable derivations, representability padding and lossy
/// conversions (§2.2/§3.3/§3.5) — into cause notes at the current source
/// position. They explain a fault when one follows.
#[derive(Default)]
struct NoteTaker {
    /// Cause notes in first-occurrence order, deduplicated by class and
    /// message.
    notes: Vec<Finding>,
    index: HashMap<(UbClass, String), usize>,
    steps: u64,
}

impl NoteTaker {
    fn note(&mut self, class: UbClass, anchor: &'static str, message: String, pos: Pos) {
        let key = (class, message.clone());
        if let Some(i) = self.index.get(&key) {
            self.notes[*i].count += 1;
            return;
        }
        self.index.insert(key, self.notes.len());
        self.notes.push(Finding {
            severity: DiagSeverity::Note,
            class,
            anchor,
            pos,
            message,
            count: 1,
        });
    }

    /// Fold the memory events drained since the last harvest into notes
    /// at `pos`.
    fn harvest(&mut self, events: Vec<MemEvent>, pos: Pos) {
        for ev in events {
            let (class, anchor, message) = match ev {
                MemEvent::CapTagClear { reason, .. } => match reason {
                    TagClearReason::MisalignedStore => (
                        UbClass::Misaligned,
                        "§3.5",
                        "capability store at a non-capability-aligned address: stored tag cleared".to_string(),
                    ),
                    TagClearReason::NonCapWrite => (
                        UbClass::TagStripped,
                        "§3.5/§4.3",
                        "non-capability data write overlapped a stored capability: tag cleared".to_string(),
                    ),
                    TagClearReason::Memcpy => (
                        UbClass::TagStripped,
                        "§3.5",
                        "partial or misaligned memcpy overwrote a capability slot: tag cleared".to_string(),
                    ),
                    TagClearReason::Revoked => (
                        UbClass::UseAfterFree,
                        "§3.8/§5.4",
                        "revocation sweep cleared capabilities referring to the freed region".to_string(),
                    ),
                },
                MemEvent::CapDerive { tag_cleared: true, .. } => (
                    UbClass::TagStripped,
                    "§3.3",
                    "pointer arithmetic produced a non-representable capability: tag cleared"
                        .to_string(),
                ),
                MemEvent::RepCheck { padded: true, size, reserved } => (
                    UbClass::OutOfBounds,
                    "§2.1/§3.7",
                    format!(
                        "allocation padded for bounds representability ({size} requested, {reserved} reserved)"
                    ),
                ),
                _ => continue,
            };
            self.note(class, anchor, message, pos);
        }
    }
}

impl<C: Capability> Observer<C> for NoteTaker {
    fn tick(&mut self, steps: u64, pos: Pos, mem: &mut CheriMemory<C>) -> Result<(), String> {
        self.steps = steps;
        if steps > LINT_STEP_BUDGET {
            return Err("step budget exceeded".into());
        }
        if steps.is_multiple_of(64) {
            self.harvest(mem.take_events(), pos);
        }
        Ok(())
    }

    fn conversion(&mut self, conv: Conversion, pos: Pos) {
        let (class, anchor, message) = match conv {
            Conversion::GhostedArith => (
                UbClass::TagStripped,
                "§3.3",
                "integer arithmetic moved a capability-carrying value outside its representable range: ghost state set",
            ),
            Conversion::CapIntNarrowed => (
                UbClass::Provenance,
                "§2.2",
                "(u)intptr_t narrowed to a plain integer: capability metadata and provenance stripped",
            ),
            Conversion::PtrToPlainInt => (
                UbClass::Provenance,
                "§2.2",
                "pointer cast to a non-capability integer type: round-tripping loses the capability",
            ),
            Conversion::PlainIntToPtr => (
                UbClass::Provenance,
                "§2.2/§4.3",
                "int→pointer cast from a non-capability integer: provenance recovered by PNVI-ae-udi lookup, capability untagged",
            ),
        };
        self.note(class, anchor, message.to_string(), pos);
    }
}

/// Analyze an already-compiled program under a profile with an explicit
/// capability model.
#[must_use]
pub fn lint_program_with<C: Capability>(prog: &TProgram, profile: &Profile) -> LintReport {
    let mut taker = NoteTaker::default();
    let mut interp = Interp::<C>::new(prog, profile);
    interp.mem.enable_trace();
    let mut run = interp.run_observed(&mut taker);
    taker.harvest(run.mem.take_events(), run.pos);
    let NoteTaker {
        notes: mut findings,
        steps,
        ..
    } = taker;
    let mut verdicts: Vec<(UbClass, Verdict)> = ALL_CLASSES
        .iter()
        .map(|c| (*c, Verdict::Clean))
        .collect();
    let set = |verdicts: &mut Vec<(UbClass, Verdict)>, class: UbClass, v: Verdict| {
        for (c, slot) in verdicts.iter_mut() {
            if *c == class && *slot < v {
                *slot = v;
            }
        }
    };

    let (mode, predicted) = match run.end {
        Err(Stop::Mem(MemError::Fail(m))) => {
            elevate_latent(&mut verdicts, &findings, &set);
            findings.push(Finding {
                severity: DiagSeverity::Note,
                class: UbClass::OutOfBounds,
                anchor: "§3.7",
                pos: run.pos,
                message: format!("constraint failure (not UB): {m}"),
                count: 1,
            });
            (LintMode::Definite, Some(Outcome::Error(m).label()))
        }
        Err(Stop::Mem(e)) => {
            let (class, detail) = match &e {
                MemError::Ub(ub, d) => (class_of_ub(*ub), d.clone()),
                MemError::Trap(k, d) => (class_of_trap(*k), d.clone()),
                MemError::Fail(_) => unreachable!("constraint failures are matched above"),
            };
            set(&mut verdicts, class, Verdict::MustUb);
            findings.push(Finding {
                severity: DiagSeverity::Must,
                class,
                anchor: class.anchor(),
                pos: run.pos,
                message: detail,
                count: 1,
            });
            (LintMode::Definite, Some(Outcome::from(e).label()))
        }
        Ok(c) | Err(Stop::Exit(c)) => {
            elevate_latent(&mut verdicts, &findings, &set);
            (LintMode::Definite, Some(Outcome::Exit(c).label()))
        }
        Err(Stop::Assert(m)) => {
            elevate_latent(&mut verdicts, &findings, &set);
            (LintMode::Definite, Some(Outcome::AssertFailed(m).label()))
        }
        Err(Stop::Abort) => {
            elevate_latent(&mut verdicts, &findings, &set);
            (LintMode::Definite, Some(Outcome::Abort.label()))
        }
        Err(Stop::Limit(reason) | Stop::Unsupported(reason)) => {
            for t in mayscan::scan(prog, profile) {
                set(&mut verdicts, t.class, Verdict::MayUb);
                findings.push(Finding {
                    severity: DiagSeverity::May,
                    class: t.class,
                    anchor: t.class.anchor(),
                    pos: t.pos,
                    message: format!("{} may exhibit {} (analysis widened)", t.what, t.class),
                    count: 1,
                });
            }
            (LintMode::Widened(reason), None)
        }
    };

    LintReport {
        verdicts,
        findings,
        mode,
        predicted,
        steps,
    }
}

/// After a *completed* definite run, elevate the latent misaligned-store
/// class to `MayUb` if a misaligned capability store was observed: the
/// dynamic semantics never stops with this class (the machine clears the
/// stored tag instead, §3.5), so `MustUb` is impossible and `Clean` would
/// hide a real hazard.
fn elevate_latent(
    verdicts: &mut Vec<(UbClass, Verdict)>,
    findings: &[Finding],
    set: &impl Fn(&mut Vec<(UbClass, Verdict)>, UbClass, Verdict),
) {
    if findings.iter().any(|f| f.class == UbClass::Misaligned) {
        set(verdicts, UbClass::Misaligned, Verdict::MayUb);
    }
}

/// Compile and analyze a source program with an explicit capability
/// model.
///
/// # Errors
///
/// Returns a human-readable message on parse or type errors.
pub fn lint_with<C: Capability>(src: &str, profile: &Profile) -> Result<LintReport, String> {
    let prog = cheri_core::compile_for::<C>(src, profile)?;
    Ok(lint_program_with::<C>(&prog, profile))
}

/// Compile and analyze a source program with the Morello capability
/// model (the default, matching [`cheri_core::run`]).
///
/// # Errors
///
/// Returns a human-readable message on parse or type errors.
pub fn lint(src: &str, profile: &Profile) -> Result<LintReport, String> {
    lint_with::<MorelloCap>(src, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_core::profile::Profile;

    #[test]
    fn clean_program_is_clean() {
        let r = lint("int main(void) { return 0; }", &Profile::cerberus()).unwrap();
        assert_eq!(r.overall(), Verdict::Clean);
        assert!(matches!(r.mode, LintMode::Definite));
        assert_eq!(r.predicted.as_deref(), Some("exit(0)"));
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn oob_is_must_ub() {
        let src = "int main(void) { int a[2]; a[2] = 1; return 0; }";
        let r = lint(src, &Profile::cerberus()).unwrap();
        assert_eq!(r.verdict(UbClass::OutOfBounds), Verdict::MustUb);
        assert_eq!(r.overall(), Verdict::MustUb);
        assert_eq!(r.exit_code(), 4);
        let p = r.predicted.as_deref().unwrap();
        assert!(p.starts_with("UB:"), "predicted {p}");
    }

    /// `strlen`/`strcpy` count the bytes of a C string, not its UTF-8
    /// decoding: a 2-byte string whose first byte is not UTF-8 copies into
    /// a 3-byte array cleanly, as the interpreter runs it (cheri-core's
    /// `strlen_and_strcpy_count_bytes_not_utf8`).
    #[test]
    fn non_utf8_c_string_copy_is_clean() {
        let src = r#"
int main(void) {
  char s[3] = {(char)200, 'a', 0};
  char d[3];
  strcpy(d, s);
  printf("%d\n", (int)strlen(d));
  return (int)strlen(s);
}"#;
        for p in Profile::all_compared() {
            let r = lint(src, &p).unwrap();
            assert_eq!(r.overall(), Verdict::Clean, "{}", p.name);
            assert_eq!(r.predicted.as_deref(), Some("exit(2)"), "{}", p.name);
        }
    }

    #[test]
    fn infinite_loop_widens() {
        let src = "int main(void) { int x = 0; while (1) { x = x + 1; if (x > 2) x = 0; } return x; }";
        let r = lint(src, &Profile::cerberus()).unwrap();
        assert!(matches!(r.mode, LintMode::Widened(_)));
        assert!(r.predicted.is_none());
        // The loop has arithmetic and assignments but no pointer reads:
        // arithmetic may overflow, but provenance stays clean.
        assert_eq!(r.verdict(UbClass::Arithmetic), Verdict::MayUb);
        assert_eq!(r.verdict(UbClass::Provenance), Verdict::Clean);
    }

    #[test]
    fn report_renders() {
        let src = "int main(void) { int a[2]; a[2] = 1; return 0; }";
        let r = lint(src, &Profile::cerberus()).unwrap();
        let t = r.render_text();
        assert!(t.starts_with("lint: must-ub"));
        assert!(t.contains("out-of-bounds"));
        let j = r.render_json();
        assert!(j.contains("\"verdict\": \"must-ub\""));
        assert!(j.trim_end().ends_with('}'));
    }
}
