//! The four workloads: their jobs, made from the seed alone, and what each
//! job's output must be.
//!
//! Each workload stresses a different layer (see README.md): `fuzz-cold`
//! the front end, `table1-warm` the capability-dense memory paths and the
//! service's hand-off, `kernels` VM dispatch and the memory model, and
//! `ci-gates` the tree engine, the lint analyser and event diffing.

use std::fmt::Write as _;
use std::sync::Arc;

use cheri_bench::progen::generate_traced;
use cheri_core::Profile;
use cheri_qc::{Rng, SplitMix64};
use cheri_serve::{fast_variant, JobSpec, Mode};
use cheri_testsuite::{all_tests, Expected};

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Never-seen progen programs on a cold cache (§7 oracle fuzzing).
    FuzzCold,
    /// The Table-1 suite replayed on a warm cache.
    Table1Warm,
    /// Long-running kernels with natively computed checksums.
    Kernels,
    /// Progen programs through the checking modes on a warm cache.
    CiGates,
}

impl Kind {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Kind; 4] = [
        Kind::FuzzCold,
        Kind::Table1Warm,
        Kind::Kernels,
        Kind::CiGates,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::FuzzCold => "fuzz-cold",
            Kind::Table1Warm => "table1-warm",
            Kind::Kernels => "kernels",
            Kind::CiGates => "ci-gates",
        }
    }

    /// Look a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload at its benchmark size.
    #[must_use]
    pub fn build(self, seed: u64) -> Workload {
        match self {
            Kind::FuzzCold => fuzz_cold(seed, 256),
            Kind::Table1Warm => table1_warm(seed, 4),
            Kind::Kernels => kernels(seed, 4, None),
            Kind::CiGates => ci_gates(seed, 96, 2),
        }
    }
}

/// What a job's output must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A progen program: its oracle exit code, or `None` for a planted
    /// bug (which must stop or be masked, never error).
    Progen(Option<i64>),
    /// A Table-1 test: the hand-written expectation for each profile of
    /// the job, in order.
    Table1(Vec<Expected>),
    /// A kernel: exit 0 after printing this checksum.
    Checksum(i64),
}

/// One job and its reference.
#[derive(Clone, Debug)]
pub struct Job {
    /// What the service runs.
    pub spec: JobSpec,
    /// What it must produce.
    pub expect: Expect,
}

/// A workload's inputs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The jobs, in submission order.
    pub jobs: Vec<Job>,
    /// Is every program compiled before the measured traffic starts?
    pub warm: bool,
}

fn spec(id: usize, source: &Arc<String>, profiles: &[Profile], mode: Mode) -> JobSpec {
    JobSpec {
        id: id.to_string(),
        source: Arc::clone(source),
        profiles: profiles.to_vec(),
        mode,
    }
}

/// `n` progen programs derived from `seed`, one in four with a planted
/// bug, with the oracle's verdict for each.
fn progen_programs(seed: u64, n: usize) -> Vec<(Arc<String>, Option<i64>)> {
    (0..n as u64)
        .map(|i| {
            let prog = generate_traced(SplitMix64::mix(seed, i), i % 4 == 0);
            (Arc::new(prog.source()), prog.oracle_exit())
        })
        .collect()
}

/// `fuzz-cold`: `programs` never-seen progen programs × the 7 compared
/// profiles in `run` mode. Every job misses the cache.
#[must_use]
pub fn fuzz_cold(seed: u64, programs: usize) -> Workload {
    let profiles = Profile::all_compared();
    let jobs = progen_programs(seed, programs)
        .into_iter()
        .enumerate()
        .map(|(i, (src, exit))| Job {
            spec: spec(i, &src, &profiles, Mode::Run),
            expect: Expect::Progen(exit),
        })
        .collect();
    Workload { jobs, warm: false }
}

/// `table1-warm`: `passes` passes over the 94 Table-1 tests × 7 profiles,
/// each pass in its own seeded order.
#[must_use]
pub fn table1_warm(seed: u64, passes: usize) -> Workload {
    let profiles = Profile::all_compared();
    let tests: Vec<(Arc<String>, Vec<Expected>)> = all_tests()
        .iter()
        .map(|t| {
            let expect = profiles.iter().map(|p| t.expected_for(&p.name)).collect();
            (Arc::new(t.source.to_string()), expect)
        })
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut jobs = Vec::with_capacity(passes * tests.len());
    for _ in 0..passes {
        let mut order: Vec<usize> = (0..tests.len()).collect();
        rng.shuffle(&mut order);
        for t in order {
            let (src, expect) = &tests[t];
            jobs.push(Job {
                spec: spec(jobs.len(), src, &profiles, Mode::Run),
                expect: Expect::Table1(expect.clone()),
            });
        }
    }
    Workload { jobs, warm: true }
}

/// `kernels`: `reps` repetitions of the 6 kernels × {`cerberus`,
/// `cerberus@fast`, `clang-morello-O0`}, one profile per job, each
/// repetition in its own seeded order. `rounds` overrides every kernel's
/// outer loop count (`None`: sized to about 8 ms each under `cerberus`).
#[must_use]
pub fn kernels(seed: u64, reps: usize, rounds: Option<u32>) -> Workload {
    let profiles = [
        Profile::cerberus(),
        fast_variant(Profile::cerberus()),
        Profile::clang_morello(false),
    ];
    let programs: Vec<(Arc<String>, i64)> = KernelKind::ALL
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let kernel = Kernel::new(kind, SplitMix64::mix(seed, k as u64), rounds);
            (
                Arc::new(kernel.source()),
                crate::check::kernel_checksum(&kernel),
            )
        })
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut jobs = Vec::with_capacity(reps * programs.len() * profiles.len());
    for _ in 0..reps {
        let mut order: Vec<(usize, usize)> = (0..programs.len())
            .flat_map(|k| (0..profiles.len()).map(move |p| (k, p)))
            .collect();
        rng.shuffle(&mut order);
        for (k, p) in order {
            let (src, sum) = &programs[k];
            jobs.push(Job {
                spec: spec(jobs.len(), src, &profiles[p..=p], Mode::Run),
                expect: Expect::Checksum(*sum),
            });
        }
    }
    Workload { jobs, warm: true }
}

/// `ci-gates`: `passes` passes over `programs` progen programs × 7
/// profiles, with the modes `engine-diff`, `lint-check` and `trace-diff`
/// taken round-robin.
#[must_use]
pub fn ci_gates(seed: u64, programs: usize, passes: usize) -> Workload {
    const MODES: [Mode; 3] = [Mode::EngineDiff, Mode::LintCheck, Mode::TraceDiff];
    let profiles = Profile::all_compared();
    let corpus = progen_programs(seed, programs);
    let mut jobs = Vec::with_capacity(passes * programs);
    for _ in 0..passes {
        for (i, (src, exit)) in corpus.iter().enumerate() {
            jobs.push(Job {
                spec: spec(jobs.len(), src, &profiles, MODES[i % MODES.len()]),
                expect: Expect::Progen(*exit),
            });
        }
    }
    Workload { jobs, warm: true }
}

/// The six kernel programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// A `switch` dispatch loop over a seeded opcode table.
    Dispatch,
    /// `malloc`/fill/sum/`free` churn over seeded sizes.
    Churn,
    /// Build, walk and free a linked list.
    List,
    /// Sum through `cheri_bounds_set` sub-bounds of an array.
    Bounds,
    /// `memcpy` of an array of capabilities, then load through the copy.
    CapCopy,
    /// `strcpy`/`strlen`/`strcmp` over seeded words.
    Strings,
}

impl KernelKind {
    /// Every kernel.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::Dispatch,
        KernelKind::Churn,
        KernelKind::List,
        KernelKind::Bounds,
        KernelKind::CapCopy,
        KernelKind::Strings,
    ];

    /// The outer loop count that makes the kernel take about 8 ms under
    /// `cerberus` on a 2-core x86-64 box, so that no single kernel sets
    /// the latency tail.
    #[must_use]
    pub fn full_rounds(self) -> u32 {
        match self {
            KernelKind::Dispatch => 370,
            KernelKind::Churn => 52,
            KernelKind::List => 84,
            KernelKind::Bounds => 395,
            KernelKind::CapCopy => 180,
            KernelKind::Strings => 650,
        }
    }
}

/// A kernel with its seeded data. Values stay small enough that no C
/// arithmetic overflows, so [`crate::check::kernel_checksum`] can compute
/// the printed checksum with plain `i64` arithmetic.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Which kernel.
    pub kind: KernelKind,
    /// Outer loop count.
    pub rounds: u32,
    /// Seeded integers; their meaning depends on `kind` (see
    /// [`Kernel::source`]).
    pub data: Vec<i64>,
    /// Seeded words (`Strings` only).
    pub words: Vec<String>,
}

impl Kernel {
    /// The kernel `kind` with data drawn from `seed`. Every quantity that
    /// sets a kernel's work or memory (opcode mix, allocation sizes, slice
    /// and word lengths) is a seeded permutation of a fixed set, so every
    /// seed gives the same kernel cost.
    #[must_use]
    pub fn new(kind: KernelKind, seed: u64, rounds: Option<u32>) -> Kernel {
        let mut rng = Rng::seed_from_u64(seed);
        let mut shuffled = |mut v: Vec<i64>| {
            rng.shuffle(&mut v);
            v
        };
        let mut words = Vec::new();
        let data: Vec<i64> = match kind {
            // 16 opcodes in 0..5, then the initial accumulator.
            KernelKind::Dispatch => {
                let mut d = shuffled(vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]);
                d.push(rng.gen_range(0..1i64 << 20));
                d
            }
            // 8 allocation sizes (in ints).
            KernelKind::Churn => shuffled((1..=8).map(|i| 16 * i).collect()),
            // 8 node values.
            KernelKind::List => (0..8).map(|_| rng.gen_range(0..100i64)).collect(),
            // The buffer multiplier, then 8 (offset, length) pairs in 64 ints.
            KernelKind::Bounds => {
                let lens = shuffled((0..8).map(|i| 1 + 3 * i).collect());
                let mut d = vec![rng.gen_range(1..100i64)];
                for len in lens {
                    d.push(rng.gen_range(0..=64 - len));
                    d.push(len);
                }
                d
            }
            // data[i] = (i * mul + add) % 50; src[i] = &data[(i * step + off) % 16].
            KernelKind::CapCopy => vec![
                rng.gen_range(1..50i64),
                rng.gen_range(0..50i64),
                2 * rng.gen_range(0..8i64) + 1,
                rng.gen_range(0..16i64),
            ],
            // 4 words of 4, 8, 12 and 16 letters, in seeded order.
            KernelKind::Strings => {
                words = shuffled(vec![4, 8, 12, 16])
                    .into_iter()
                    .map(|len| {
                        (0..len)
                            .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
                            .collect()
                    })
                    .collect();
                Vec::new()
            }
        };
        Kernel {
            kind,
            rounds: rounds.unwrap_or_else(|| kind.full_rounds()),
            data,
            words,
        }
    }

    fn list(values: &[i64]) -> String {
        values
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The C program. It prints the checksum and returns 0.
    #[must_use]
    pub fn source(&self) -> String {
        let r = self.rounds;
        let d = &self.data;
        let body = match self.kind {
            KernelKind::Dispatch => format!(
                "  int ops[16] = {{{ops}}};\n  long acc = {init};\n  \
                 for (int r = 0; r < {r}; r++) {{\n    for (int pc = 0; pc < 16; pc++) {{\n      \
                 switch (ops[pc]) {{\n        case 0: acc = acc + pc + r; break;\n        \
                 case 1: acc = acc ^ (acc >> 3); break;\n        case 2: acc = acc * 5 + 1; break;\n        \
                 case 3: acc = acc - pc * 7; break;\n        default: acc = acc + 11; break;\n      }}\n      \
                 acc = acc & 16777215;\n    }}\n  }}\n",
                ops = Kernel::list(&d[..16]),
                init = d[16],
            ),
            KernelKind::Churn => format!(
                "  int sizes[8] = {{{sizes}}};\n  long acc = 0;\n  \
                 for (int i = 0; i < {r}; i++) {{\n    int n = sizes[i % 8];\n    \
                 int *p = malloc(n * sizeof(int));\n    for (int j = 0; j < n; j++) p[j] = j ^ i;\n    \
                 for (int j = 0; j < n; j++) acc += p[j];\n    free(p);\n  }}\n",
                sizes = Kernel::list(d),
            ),
            KernelKind::List => format!(
                "  int vals[8] = {{{vals}}};\n  struct node *head = NULL;\n  \
                 for (int i = 0; i < 64; i++) {{\n    struct node *n = malloc(sizeof(struct node));\n    \
                 n->val = vals[i % 8] + i;\n    n->next = head;\n    head = n;\n  }}\n  long acc = 0;\n  \
                 for (int r = 0; r < {r}; r++)\n    \
                 for (struct node *p = head; p != NULL; p = p->next) acc += p->val;\n  \
                 while (head != NULL) {{ struct node *nx = head->next; free(head); head = nx; }}\n",
                vals = Kernel::list(d),
            ),
            KernelKind::Bounds => {
                let offs: Vec<i64> = d[1..].iter().step_by(2).copied().collect();
                let lens: Vec<i64> = d[2..].iter().step_by(2).copied().collect();
                format!(
                    "  int buf[64];\n  for (int i = 0; i < 64; i++) buf[i] = (i * {mul}) % 101;\n  \
                     int offs[8] = {{{offs}}};\n  int lens[8] = {{{lens}}};\n  long acc = 0;\n  \
                     for (int r = 0; r < {r}; r++) {{\n    int k = r % 8;\n    \
                     int *q = cheri_bounds_set(buf + offs[k], lens[k] * sizeof(int));\n    \
                     for (int j = 0; j < lens[k]; j++) acc += q[j];\n    \
                     acc += cheri_length_get(q);\n  }}\n",
                    mul = d[0],
                    offs = Kernel::list(&offs),
                    lens = Kernel::list(&lens),
                )
            }
            KernelKind::CapCopy => format!(
                "  int data[16];\n  for (int i = 0; i < 16; i++) data[i] = (i * {mul} + {add}) % 50;\n  \
                 int *src[16];\n  int *dst[16];\n  \
                 for (int i = 0; i < 16; i++) src[i] = &data[(i * {step} + {off}) % 16];\n  long acc = 0;\n  \
                 for (int r = 0; r < {r}; r++) {{\n    memcpy(dst, src, sizeof(src));\n    \
                 for (int i = 0; i < 16; i++) acc += *dst[i];\n    int *t = src[0];\n    \
                 for (int i = 0; i < 15; i++) src[i] = src[i + 1];\n    src[15] = t;\n  }}\n",
                mul = d[0],
                add = d[1],
                step = d[2],
                off = d[3],
            ),
            KernelKind::Strings => {
                let words: Vec<String> = self.words.iter().map(|w| format!("\"{w}\"")).collect();
                format!(
                    "  char a[32];\n  char b[32];\n  const char *words[4] = {{{words}}};\n  long acc = 0;\n  \
                     for (int r = 0; r < {r}; r++) {{\n    strcpy(a, words[r % 4]);\n    \
                     strcpy(b, words[(r + 1) % 4]);\n    acc += strlen(a) * 3 + strlen(b);\n    \
                     int c = strcmp(a, b);\n    acc += c < 0 ? 1 : (c > 0 ? 2 : 3);\n    \
                     a[0] = 'a' + r % 26;\n    acc += a[0];\n  }}\n",
                    words = words.join(", "),
                )
            }
        };
        let mut src = String::from(
            "#include <cheriintrin.h>\n#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n",
        );
        if self.kind == KernelKind::List {
            src.push_str("struct node { int val; struct node *next; };\n");
        }
        let _ = write!(
            src,
            "int main(void) {{\n{body}  printf(\"%ld\\n\", acc);\n  return 0;\n}}\n"
        );
        src
    }
}
