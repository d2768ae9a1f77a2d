//! The `cheri-c` binary end to end: what its options accept and how it
//! exits.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `sizeof(int *)`: 16 under Morello's 128-bit capabilities, 8 under
/// CHERIoT's 64-bit ones.
const PTR_SIZE: &str = "int main(void) { int *p = 0; return sizeof(p); }\n";

/// Run `cheri-c` on [`PTR_SIZE`] with `args`: its exit code and stderr.
fn cheri_c(args: &[&str]) -> (Option<i32>, String) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("ptr_size.c");
    std::fs::write(&file, PTR_SIZE).expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_cheri-c"))
        .arg(&file)
        .args(args)
        .output()
        .expect("run cheri-c");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn arch_selects_the_capability_model() {
    assert_eq!(cheri_c(&[]).0, Some(16), "default is Morello");
    assert_eq!(cheri_c(&["--arch", "morello"]).0, Some(16));
    assert_eq!(cheri_c(&["--arch", "cheriot"]).0, Some(8));
}

#[test]
fn unknown_arch_is_a_usage_error() {
    for arch in ["bogus", "CHERIoT"] {
        let (code, stderr) = cheri_c(&["--arch", arch]);
        assert_eq!(code, Some(2), "--arch {arch}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "unknown arch {arch} (expected morello or cheriot)"
            )),
            "{stderr}"
        );
    }
}
