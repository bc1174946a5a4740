//! Host metadata carried with every result, and process memory.

use std::path::Path;
use std::process::Command;

use scenario::{content_hash64, Value};

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The first line a command prints, or `unknown` when it cannot run.
fn command_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `content_hash64` over the workspace crates' sources (paths and
/// bytes, in path order): identifies the code under test where no
/// git revision is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x} ({} files)", content_hash64(&bytes), files.len())
}

/// The host and build the run measured.
pub fn metadata(workers: usize, connections: usize) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Git must not look for a repository above the checkout.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(&root);
    if let Some(outside) = root
        .canonicalize()
        .ok()
        .and_then(|r| r.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", outside);
    }
    Value::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model())
        .with(
            "rustc",
            command_line(Command::new("rustc").arg("--version")),
        )
        .with("git_revision", command_line(&mut git))
        .with("source_digest", source_digest(&root.join("crates")))
        .with("workers", workers)
        .with("connections", connections)
}
