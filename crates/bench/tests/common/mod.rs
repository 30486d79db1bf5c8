//! Process helpers shared by the binary-level gates: run a bin with
//! arguments and environment, and give each test a temp dir of its own.
//!
//! The monitor's tests pull this file in with `#[path]`, so every
//! process-level gate in the workspace spawns its bins one way.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};

/// One finished process: its exit status and its output, lossily
/// decoded.
pub struct Run {
    pub status: ExitStatus,
    pub stdout: String,
    pub stderr: String,
}

/// A command for `bin` with no inherited `BTPUB_*` variable: a gate
/// sees exactly the environment it names, whatever the shell that runs
/// `cargo test` has set.
pub fn command(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (key, _) in std::env::vars() {
        if key.starts_with("BTPUB_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    cmd
}

/// Runs `bin` to completion (see [`command`]).
pub fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Run {
    let out = command(bin, args, env)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    Run {
        status: out.status,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// A fresh, empty temp dir keyed by the test process's pid and `tag`.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btpub-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test's temp dir");
    dir
}

/// `path` as a `&str` argument.
pub fn arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// The black-box dumps (`bb-*.json`) a run armed with
/// `BTPUB_TRACE_SNAPSHOT=<dir>/bb` left in `dir`, in name order.
pub fn dumps(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("bb-") && name.ends_with(".json")
        })
        .collect();
    found.sort();
    found
}
