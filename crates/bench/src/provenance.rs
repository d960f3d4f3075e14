//! Artifact provenance: the exact command, git revision and device
//! hash stamped into every generated report, so a file in `results/`
//! can be reproduced without archaeology.

use gpu_sim::DeviceSpec;
use milc_dslash::tune::cache::device_spec_hash;

/// The repository's current commit, short form, with a `-dirty` suffix
/// when the working tree has modifications; `"unknown"` when git is
/// unavailable (e.g. a source tarball).
pub fn git_sha() -> String {
    let sha = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string());
    let sha = match sha {
        Some(s) if !s.is_empty() => s,
        _ => return "unknown".to_string(),
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

/// The invocation as a reproducible `cargo run` command: binary name
/// (`argv[0]` without its path) plus the arguments as given.
pub fn command_line() -> String {
    let mut args = std::env::args();
    let bin = args
        .next()
        .map(|a| {
            std::path::Path::new(&a)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or(a.clone())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rest: Vec<String> = args.collect();
    let mut cmd = format!("cargo run -p milc-bench --release --bin {bin}");
    if !rest.is_empty() {
        cmd.push_str(" -- ");
        cmd.push_str(&rest.join(" "));
    }
    cmd
}

/// Markdown provenance header block for `results/*.md` reports.
pub fn header_md(device: &DeviceSpec) -> String {
    format!(
        "> Command: `{}`  \n> Git: `{}` · device hash: `{:016x}`\n\n",
        command_line(),
        git_sha(),
        device_spec_hash(device)
    )
}

/// The full opening block every `results/*.md` report shares: title
/// heading, provenance header, and a one-line run context.
pub fn report_prologue(title: &str, device: &DeviceSpec, context: &str) -> String {
    format!("# {title}\n\n{}{context}\n\n", header_md(device))
}

/// `#`-comment provenance header for text artifacts (Prometheus
/// snapshots, trace sidecars).
pub fn header_comment(device: &DeviceSpec) -> String {
    format!(
        "# command: {}\n# git: {} device_hash: {:016x}\n",
        command_line(),
        git_sha(),
        device_spec_hash(device)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_line_is_a_cargo_invocation() {
        let cmd = command_line();
        assert!(cmd.starts_with("cargo run -p milc-bench --release --bin "));
        let bin_part = cmd.split(" -- ").next().unwrap();
        assert!(
            !bin_part.contains('/'),
            "argv[0] path must be stripped: {cmd}"
        );
    }

    #[test]
    fn header_md_carries_sha_and_device_hash() {
        let device = DeviceSpec::a100();
        let h = header_md(&device);
        assert!(h.contains("> Command: `cargo run"));
        assert!(h.contains("device hash: `"));
        // The device hash is deterministic for a fixed spec.
        assert_eq!(h, header_md(&DeviceSpec::a100()));
    }

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }
}
