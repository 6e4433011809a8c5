//! Hermeticity: ambient-knob refusal, the pinned configuration, the private
//! scratch store, the host record and the process's peak RSS.

use std::path::{Path, PathBuf};

/// Environment prefix of every knob the program reads.
pub const KNOB_PREFIX: &str = "MATCH_";

/// The scheduler backend every workload's load runs on.
pub const BACKEND: &str = "coop";

/// Names of the `MATCH_*` variables set in the environment. Any of them could
/// change a workload (backend, jobs, design axis, rack layout, cache, explorer
/// budget...), so the benchmark refuses to run instead of adapting.
pub fn ambient_knobs() -> Vec<String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with(KNOB_PREFIX))
        .collect();
    knobs.sort();
    knobs
}

/// Pins the scheduler backend for every cluster the program builds from the
/// environment. Call while the process is still single-threaded.
pub fn pin_backend() {
    std::env::set_var(match_core::mpisim::BACKEND_ENV_VAR, BACKEND);
}

/// A private directory under the working directory, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

/// Parent of every scratch directory, relative to the working directory.
pub const SCRATCH_PARENT: &str = ".perfbench-tmp";

impl Scratch {
    /// Creates a fresh, empty scratch directory.
    pub fn create() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let root = Path::new(SCRATCH_PARENT).join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A not-yet-existing path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only when no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH_PARENT);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The revision of the checkout in the working directory, when it is a git
/// checkout with a readable `HEAD`.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Everything wall-clock depends on besides the code: core count, toolchain,
/// build profile, revision and the simulator's source fingerprint. Wall-clock is
/// comparable only between runs whose records are equal.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "nproc={nproc} rustc=\"{}\" profile={} rev={} source_fingerprint={:016x} backend={BACKEND} jobs=1",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_revision().unwrap_or_else(|| "none".into()),
        match_core::persist::source_fingerprint(),
    )
}
