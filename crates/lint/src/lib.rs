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
//! Architecture: a two-mode abstract interpretation. Mode A ([`exec`])
//! runs the program over the singleton abstract domain — every value
//! fully concrete, the store a real [`cheri_mem::CheriMemory`] with the
//! same capability encoding the interpreter uses — so `MustUb` verdicts
//! are the memory model itself faulting and `Clean` verdicts are
//! completed executions. When Mode A exhausts its step budget or meets an
//! unsupported construct it *widens* to Mode B ([`mayscan`]), a one-pass
//! syntactic over-approximation that downgrades only the classes the
//! program could syntactically exhibit to `MayUb`.
//!
//! The headline property, enforced by `tests/lint_soundness.rs` over the
//! oracle-fuzz corpus on every compared profile: every `MustUb` program
//! dynamically stops with UB/trap of the predicted class, and no `Clean`
//! program ever dynamically UBs. Disagreements are shrunk to minimal
//! reproducers automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod exec;
pub mod mayscan;

use cheri_cap::Capability;
use cheri_core::lex::Pos;
use cheri_core::profile::Profile;
use cheri_core::report::Outcome;
use cheri_core::tast::TProgram;
use cheri_core::MorelloCap;
use cheri_obs::{DiagSeverity, Diagnostic};

pub use classes::{class_of_trap, class_of_ub, UbClass, ALL_CLASSES};
use exec::{Exec, RunEnd};

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
    /// Steps the definite executor ran.
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
            out.push_str(&format!(
                "  \"widen_reason\": \"{}\",\n",
                json_escape_local(r)
            ));
        }
        if let Some(p) = &self.predicted {
            out.push_str(&format!(
                "  \"predicted\": \"{}\",\n",
                json_escape_local(p)
            ));
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

fn json_escape_local(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Analyze an already-compiled program under a profile with an explicit
/// capability model.
#[must_use]
pub fn lint_program_with<C: Capability>(prog: &TProgram, profile: &Profile) -> LintReport {
    let report = Exec::<C>::new(prog, profile, LINT_STEP_BUDGET).run();
    let mut findings: Vec<Finding> = report
        .notes
        .iter()
        .map(|n| Finding {
            severity: DiagSeverity::Note,
            class: n.class,
            anchor: n.anchor,
            pos: n.pos,
            message: n.message.clone(),
            count: n.count,
        })
        .collect();
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

    let (mode, predicted) = match report.end {
        RunEnd::Fault(e) => {
            let class = match &e {
                cheri_mem::MemError::Ub(ub, _) => class_of_ub(*ub),
                cheri_mem::MemError::Trap(k, _) => class_of_trap(*k),
                cheri_mem::MemError::Fail(_) => unreachable!("Fail handled as RunEnd::Fail"),
            };
            let detail = match &e {
                cheri_mem::MemError::Ub(_, d) | cheri_mem::MemError::Trap(_, d) => d.clone(),
                cheri_mem::MemError::Fail(d) => d.clone(),
            };
            set(&mut verdicts, class, Verdict::MustUb);
            findings.push(Finding {
                severity: DiagSeverity::Must,
                class,
                anchor: class.anchor(),
                pos: report.pos,
                message: detail,
                count: 1,
            });
            (LintMode::Definite, Some(Outcome::from(e).label()))
        }
        RunEnd::Exit(c) => {
            elevate_latent(&mut verdicts, &findings, &set);
            (LintMode::Definite, Some(Outcome::Exit(c).label()))
        }
        RunEnd::Assert => {
            elevate_latent(&mut verdicts, &findings, &set);
            (
                LintMode::Definite,
                Some(Outcome::AssertFailed(String::new()).label()),
            )
        }
        RunEnd::Abort => {
            elevate_latent(&mut verdicts, &findings, &set);
            (LintMode::Definite, Some(Outcome::Abort.label()))
        }
        RunEnd::Fail(m) => {
            elevate_latent(&mut verdicts, &findings, &set);
            findings.push(Finding {
                severity: DiagSeverity::Note,
                class: UbClass::OutOfBounds,
                anchor: "§3.7",
                pos: report.pos,
                message: format!("constraint failure (not UB): {m}"),
                count: 1,
            });
            (LintMode::Definite, Some(Outcome::Error(m).label()))
        }
        RunEnd::Bail(reason) => {
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
        steps: report.steps,
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
