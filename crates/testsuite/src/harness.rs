//! Suite runner: executes every test under every implementation profile and
//! aggregates the results into the paper's Table 1 and §5 summary.

use std::fmt::Write as _;

use cheri_core::{run, Profile};

use crate::{all_tests, Category};

/// Result of one test under one profile.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The profile name.
    pub profile: String,
    /// Outcome label observed.
    pub observed: String,
    /// Did it match the expectation for that profile?
    pub matched: bool,
}

/// Result of one test across all profiles.
#[derive(Clone, Debug)]
pub struct TestReport {
    /// Test identifier.
    pub id: &'static str,
    /// Per-profile results.
    pub cells: Vec<CellResult>,
}

impl TestReport {
    /// Did every profile behave as expected?
    #[must_use]
    pub fn all_matched(&self) -> bool {
        self.cells.iter().all(|c| c.matched)
    }
}

/// Results of the full suite.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Per-test reports in suite order.
    pub tests: Vec<TestReport>,
    /// The profile names, in run order.
    pub profiles: Vec<String>,
}

/// Run the whole suite under the given profiles.
#[must_use]
pub fn run_suite(profiles: &[Profile]) -> SuiteReport {
    let tests = all_tests();
    let mut reports = Vec::with_capacity(tests.len());
    for t in &tests {
        let mut cells = Vec::new();
        for p in profiles {
            let r = run(t.source, p);
            let expected = t.expected_for(&p.name);
            cells.push(CellResult {
                profile: p.name.clone(),
                observed: r.outcome.label(),
                matched: expected.matches(&r),
            });
        }
        reports.push(TestReport { id: t.id, cells });
    }
    SuiteReport {
        tests: reports,
        profiles: profiles.iter().map(|p| p.name.clone()).collect(),
    }
}

/// Render Table 1: the category descriptions with the number of covering
/// tests, in the paper's row order.
#[must_use]
pub fn render_table1() -> String {
    let tests = all_tests();
    let mut s = String::new();
    let _ = writeln!(s, "Tests  Description");
    for (cat, desc, _) in Category::TABLE1 {
        let n = tests.iter().filter(|t| t.cats.contains(cat)).count();
        let _ = writeln!(s, "{n:>5}  {desc}");
    }
    let _ = writeln!(s, "total distinct tests: {}", tests.len());
    s
}

/// Render the §5-style compliance summary for a report.
#[must_use]
pub fn render_summary(report: &SuiteReport) -> String {
    let mut s = String::new();
    let total = report.tests.len();
    let _ = writeln!(
        s,
        "{total} tests under {} implementation configurations",
        report.profiles.len()
    );
    for (i, pname) in report.profiles.iter().enumerate() {
        let ok = report
            .tests
            .iter()
            .filter(|t| t.cells[i].matched)
            .count();
        let _ = writeln!(s, "  {pname:<22} {ok:>3}/{total} as expected");
    }
    let agree = report.tests.iter().filter(|t| t.all_matched()).count();
    let _ = writeln!(s, "  all-configuration agreement: {agree}/{total}");
    s
}

/// Render the complete results as a Markdown table — the analogue of the
/// paper's published test-results page ("The complete results of our
/// testing are available at ...").
#[must_use]
pub fn render_markdown(report: &SuiteReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# CHERI C test-suite results\n");
    let _ = writeln!(
        s,
        "{} tests under {} implementation configurations. Each cell shows \
         the observed outcome; ✓ marks agreement with the per-configuration \
         expectation (intended divergences between configurations are part \
         of the expectations).\n",
        report.tests.len(),
        report.profiles.len()
    );
    let _ = write!(s, "| test |");
    for p in &report.profiles {
        let _ = write!(s, " {p} |");
    }
    let _ = writeln!(s);
    let _ = write!(s, "|---|");
    for _ in &report.profiles {
        let _ = write!(s, "---|");
    }
    let _ = writeln!(s);
    for t in &report.tests {
        let _ = write!(s, "| `{}` |", t.id);
        for c in &t.cells {
            let mark = if c.matched { "✓" } else { "✗" };
            let _ = write!(s, " {} {mark} |", c.observed.replace('|', "\\|"));
        }
        let _ = writeln!(s);
    }
    s
}

/// Convenience: the tests a given profile diverges on.
#[must_use]
pub fn divergences(report: &SuiteReport, profile: &str) -> Vec<(&'static str, String)> {
    let idx = match report.profiles.iter().position(|p| p == profile) {
        Some(i) => i,
        None => return Vec::new(),
    };
    report
        .tests
        .iter()
        .filter(|t| !t.cells[idx].matched)
        .map(|t| (t.id, t.cells[idx].observed.clone()))
        .collect()
}
