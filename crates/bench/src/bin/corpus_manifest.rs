//! `corpus_manifest` — materialise the deterministic oracle-fuzz corpus
//! as batch manifests for `cheri-c --batch`.
//!
//! The extended-corpus CI gates (engine differential, lint soundness)
//! historically ran as single-threaded `cargo test` sweeps: 1024 seeds ×
//! two program families × all compared profiles, one program at a time.
//! The `cheri-serve` batch engine runs the same checks as job modes
//! (`engine-diff`, `lint-check`) behind a program cache and a worker
//! pool — this binary writes the corpus to disk so CI can shard those
//! sweeps across every runner core:
//!
//! ```text
//! corpus_manifest <out_dir> [seeds]      # default 1024
//! cheri-c --batch <out_dir>/engine-diff.txt --jobs max
//! cheri-c --batch <out_dir>/lint-check.txt --jobs max
//! ```
//!
//! Outputs, all deterministic functions of the seed count:
//!
//! * `seed<N>-<0|1>.c` — the program of seed N (clean / buggy family);
//! * `engine-diff.txt` — one `engine-diff compared seed<N>-<B>.c` line
//!   per program: both engines, any divergence is an erroring outcome;
//! * `lint-check.txt` — one `lint-check compared seed<N>-<B>.c` line per
//!   program: dynamic outcome vs static verdict, any soundness violation
//!   is an erroring outcome;
//! * `run.txt`, `lint.txt` and `trace-diff.txt` — the same programs under
//!   the `run`, `lint` and `trace-diff` modes, so that every batch mode
//!   can be compared byte for byte between two builds.
//!
//! `cheri-c --batch` exits non-zero if any job errs, so the gate
//! manifests are CI gates on their own; the batch output is
//! byte-deterministic across worker counts, which CI pins once per sweep
//! by comparing the `--jobs max` bytes against `--jobs 1`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;

use cheri_bench::progen::generate_traced;

fn main() {
    let mut args = std::env::args().skip(1);
    let out_dir = args.next().unwrap_or_else(|| "corpus".into());
    let seeds: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let dir = Path::new(&out_dir);
    std::fs::create_dir_all(dir).expect("create corpus dir");

    // One manifest per batch mode, written to `<mode>.txt`.
    let mut manifests = [
        ("engine-diff", "engine differential: tree vs bytecode"),
        ("lint-check", "lint soundness: static verdict vs dynamic outcome"),
        ("run", "run every compared profile"),
        ("lint", "lint report under every compared profile"),
        ("trace-diff", "cross-profile event-stream diff"),
    ]
    .map(|(mode, what)| (mode, format!("# {what} over the oracle corpus\n")));
    let mut programs = 0u64;
    for seed in 0..seeds {
        for buggy in [false, true] {
            let name = format!("seed{seed}-{}.c", u8::from(buggy));
            let src = generate_traced(seed, buggy).source();
            std::fs::write(dir.join(&name), src).expect("write corpus program");
            for (mode, text) in &mut manifests {
                let _ = writeln!(text, "{mode} compared {name}");
            }
            programs += 1;
        }
    }
    for (mode, text) in &manifests {
        std::fs::write(dir.join(format!("{mode}.txt")), text).expect("write manifest");
    }
    println!(
        "wrote {programs} programs ({seeds} seeds x 2 families) and {} manifests to {out_dir}/",
        manifests.len()
    );
}
