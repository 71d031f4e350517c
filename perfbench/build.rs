//! Records the toolchain and source revision the benchmark was built
//! from, so every result carries them without running other programs.

use std::path::Path;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit());
    println!("cargo:rerun-if-changed=build.rs");
}

/// The commit checked out at the repository root, read from `.git`
/// directly. A source tree without `.git` (an exported checkout) has no
/// commit to report.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    println!("cargo:rerun-if-changed={}", git.join(reference).display());
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
