//! Reference checks: every job output is compared with a reference that
//! does not come from the system under test — the progen shadow oracle,
//! Table-1's hand-written expectations, and kernel checksums computed
//! natively in Rust.

use cheri_serve::{JobOutput, ProfileOutcome};
use cheri_testsuite::Expected;

use crate::workload::{Expect, Job, Kernel, KernelKind};

/// Outcomes that are never acceptable: interpreter errors and the
/// checking modes' gate failures.
#[must_use]
pub fn is_failure(outcome: &str) -> bool {
    outcome.starts_with("error")
        || outcome.starts_with("engine-divergence")
        || outcome.starts_with("lint-unsound")
}

/// Does a serve outcome satisfy a Table-1 expectation? The serve form of
/// [`Expected::matches`]: outcome labels are `exit(n)`, `UB:<name>` and
/// `trap:<kind>`.
#[must_use]
pub fn table1_matches(expected: Expected, p: &ProfileOutcome) -> bool {
    let o = p.outcome.as_str();
    match expected {
        Expected::Exit(c) => o == format!("exit({c})"),
        Expected::Ub(ub) => o == format!("UB:{ub}"),
        Expected::AnyUb => o.starts_with("UB:"),
        Expected::Trap => o.starts_with("trap:"),
        Expected::SafetyStop => o.starts_with("UB:") || o.starts_with("trap:"),
        Expected::OutputContains(s) => {
            o == "exit(0)" && (p.stdout.contains(s) || p.stderr.contains(s))
        }
    }
}

/// The progen oracle rule: a defined program exits with the oracle's code;
/// a program with a planted bug stops or masks the bug, but never errors.
#[must_use]
pub fn progen_matches(oracle_exit: Option<i64>, p: &ProfileOutcome) -> bool {
    match oracle_exit {
        Some(c) => p.outcome == format!("exit({c})"),
        None => !is_failure(&p.outcome),
    }
}

/// The checksum a kernel prints, computed natively.
#[must_use]
pub fn kernel_checksum(k: &Kernel) -> i64 {
    let rounds = i64::from(k.rounds);
    let d = &k.data;
    match k.kind {
        KernelKind::Dispatch => {
            let mut acc = d[16];
            for r in 0..rounds {
                for (pc, &op) in (0i64..).zip(&d[..16]) {
                    acc = match op {
                        0 => acc + pc + r,
                        1 => acc ^ (acc >> 3),
                        2 => acc * 5 + 1,
                        3 => acc - pc * 7,
                        _ => acc + 11,
                    } & 0xFF_FFFF;
                }
            }
            acc
        }
        KernelKind::Churn => (0..rounds)
            .map(|i| (0..d[(i % 8) as usize]).map(|j| j ^ i).sum::<i64>())
            .sum(),
        KernelKind::List => rounds * (0..64).map(|i| d[(i % 8) as usize] + i).sum::<i64>(),
        KernelKind::Bounds => {
            let buf: Vec<i64> = (0..64).map(|i| (i * d[0]) % 101).collect();
            (0..rounds)
                .map(|r| {
                    let k = (r % 8) as usize;
                    let (off, len) = (d[1 + 2 * k] as usize, d[2 + 2 * k]);
                    buf[off..off + len as usize].iter().sum::<i64>() + len * 4
                })
                .sum()
        }
        KernelKind::CapCopy => {
            // The copied array is a permutation of `data` (the step is
            // odd), rotated once per round: each round sums all of it.
            let data: Vec<i64> = (0..16).map(|i| (i * d[0] + d[1]) % 50).collect();
            let src: Vec<i64> = (0..16)
                .map(|i| data[((i * d[2] + d[3]) % 16) as usize])
                .collect();
            rounds * src.iter().sum::<i64>()
        }
        KernelKind::Strings => (0..rounds)
            .map(|r| {
                let a = &k.words[(r % 4) as usize];
                let b = &k.words[((r + 1) % 4) as usize];
                let cmp = match a.cmp(b) {
                    std::cmp::Ordering::Less => 1,
                    std::cmp::Ordering::Greater => 2,
                    std::cmp::Ordering::Equal => 3,
                };
                a.len() as i64 * 3 + b.len() as i64 + cmp + i64::from(b'a') + r % 26
            })
            .sum(),
    }
}

/// Check one job's output against its reference. `Err` names the first
/// disagreeing profile.
///
/// # Errors
///
/// Returns a one-line description of the first mismatch.
pub fn check_job(job: &Job, out: &JobOutput) -> Result<(), String> {
    if out.profiles.len() != job.spec.profiles.len() {
        return Err(format!(
            "job {}: {} profile outcomes for {} profiles",
            job.spec.id,
            out.profiles.len(),
            job.spec.profiles.len()
        ));
    }
    for (i, p) in out.profiles.iter().enumerate() {
        let ok = !is_failure(&p.outcome)
            && match &job.expect {
                Expect::Progen(exit) => progen_matches(*exit, p),
                Expect::Table1(expected) => table1_matches(expected[i], p),
                Expect::Checksum(sum) => p.outcome == "exit(0)" && p.stdout == format!("{sum}\n"),
            };
        if !ok {
            return Err(format!(
                "job {} [{}] {}: got {} (stdout {:?}), expected {:?}",
                job.spec.id,
                out.mode.label(),
                p.profile,
                p.outcome,
                p.stdout,
                job.expect
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_core::{MorelloCap, Profile};
    use cheri_serve::run_batch;
    use cheri_testsuite::all_tests;
    use cheri_testsuite::harness::run_suite;

    use crate::workload::{fuzz_cold, Kernel};

    #[test]
    fn table1_mapping_agrees_with_expected_matches_on_every_cell() {
        let profiles = Profile::all_compared();
        let report = run_suite(&profiles);
        let tests = all_tests();
        let jobs = tests
            .iter()
            .map(|t| cheri_serve::JobSpec {
                id: t.id.to_string(),
                source: std::sync::Arc::new(t.source.to_string()),
                profiles: profiles.clone(),
                mode: cheri_serve::Mode::Run,
            })
            .collect();
        let outs = run_batch::<MorelloCap>(jobs, 2);
        assert_eq!(outs.len(), 94);
        let mut cells = 0;
        for ((t, rep), out) in tests.iter().zip(&report.tests).zip(&outs) {
            for (i, p) in profiles.iter().enumerate() {
                let mapped = table1_matches(t.expected_for(&p.name), &out.profiles[i]);
                assert_eq!(mapped, rep.cells[i].matched, "{} under {}", t.id, p.name);
                cells += 1;
            }
        }
        assert_eq!(cells, 94 * 7);
    }

    #[test]
    fn progen_rule_accepts_the_oracle_and_rejects_errors() {
        let outcome = |o: &str| ProfileOutcome {
            profile: "cerberus".into(),
            outcome: o.into(),
            stdout: String::new(),
            stderr: String::new(),
            stats: String::new(),
            lint: None,
            events: None,
        };
        for seed in [1, 2, 3] {
            let w = fuzz_cold(seed, 8);
            let outs = run_batch::<MorelloCap>(w.jobs.iter().map(|j| j.spec.clone()).collect(), 2);
            for (job, out) in w.jobs.iter().zip(&outs) {
                check_job(job, out).unwrap();
            }
        }
        assert!(progen_matches(Some(3), &outcome("exit(3)")));
        assert!(!progen_matches(Some(3), &outcome("exit(4)")));
        assert!(progen_matches(
            None,
            &outcome("trap:capability bounds fault")
        ));
        assert!(progen_matches(None, &outcome("exit(1)")));
        assert!(!progen_matches(
            None,
            &outcome("error: step limit exceeded")
        ));
        assert!(!progen_matches(
            None,
            &outcome("engine-divergence: outcome")
        ));
    }

    #[test]
    fn kernel_checksums_match_the_interpreter() {
        for seed in [1, 2, 3] {
            for kind in KernelKind::ALL {
                let k = Kernel::new(kind, seed, Some(3 + seed as u32));
                let r = cheri_core::run(&k.source(), &Profile::cerberus());
                assert_eq!(
                    r.outcome.label(),
                    "exit(0)",
                    "{kind:?} seed {seed}\n{}",
                    k.source()
                );
                assert_eq!(
                    r.stdout,
                    format!("{}\n", kernel_checksum(&k)),
                    "{kind:?} seed {seed}"
                );
            }
        }
    }
}
