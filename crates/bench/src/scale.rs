//! The `scale` target: how far each scheduler backend stretches in rank count.
//!
//! Runs a fixed synthetic communication kernel — per iteration: a little compute, a
//! ring halo exchange (`sendrecv`) and a world `allreduce` — at a ladder of rank
//! counts on each backend, recording host wall-clock time and process RSS. The
//! workload is communication-dominated on purpose: it stresses exactly the part the
//! backends implement differently (blocking, wakeups, scheduling), not the proxy
//! applications' numerics.
//!
//! The simulated *virtual* time of every cell is also recorded and cross-checked:
//! backends must agree bit-for-bit, so a mismatch is reported loudly (it would mean
//! the cooperative scheduler broke the virtual-time contract, not that the host was
//! slow).
//!
//! Environment knobs:
//!
//! * `MATCH_SCALE_RANKS` — comma-separated rank ladder (default `512,1024,2048,4096`),
//! * `MATCH_SCALE_BACKENDS` — subset of `coop,par` (default both),
//! * `MATCH_SCALE_WORKERS` — comma-separated worker counts swept for the `par`
//!   backend (default `1,2,4,8`; `coop` has no worker dimension and runs one cell
//!   per rank count),
//! * `MATCH_SCALE_ITERS` — iterations of the kernel per run (default 5),
//! * `MATCH_SCALE_STACK_KB` — per-rank fiber stack in KiB (default 256).

use std::time::Instant;

use match_core::mpisim::{Cluster, ClusterConfig, SchedBackend};
use match_core::table::TextTable;

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// The scheduler backend.
    pub backend: SchedBackend,
    /// Worker threads used by the `par` backend for this cell; `1` for `coop`, which
    /// has no worker dimension.
    pub workers: usize,
    /// Number of simulated ranks.
    pub nranks: usize,
    /// Host wall-clock seconds for the whole job, or `None` when the run failed.
    pub wall_secs: Option<f64>,
    /// Simulated virtual seconds (`RunOutcome::max_time`); identical across backends
    /// by construction.
    pub virt_secs: Option<f64>,
    /// Process resident set size after the run, in MiB (`VmRSS`).
    pub rss_mib: Option<f64>,
    /// Why the cell has no measurement (the run failed), when it has none.
    pub note: Option<String>,
}

/// The whole sweep.
#[derive(Debug, Clone, Default)]
pub struct ScaleReport {
    /// All cells, in `(backend, nranks)` sweep order.
    pub rows: Vec<ScaleRow>,
}

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_list(var: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(var)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .filter(|&p| p > 0)
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn backends_from_env() -> Vec<SchedBackend> {
    match std::env::var("MATCH_SCALE_BACKENDS") {
        Err(_) => SchedBackend::ALL.to_vec(),
        Ok(s) => {
            let picked: Vec<SchedBackend> = SchedBackend::ALL
                .into_iter()
                .filter(|b| {
                    s.split(',')
                        .any(|name| name.trim().eq_ignore_ascii_case(b.name()))
                })
                .collect();
            if picked.is_empty() {
                SchedBackend::ALL.to_vec()
            } else {
                picked
            }
        }
    }
}

/// Reads a `VmRSS`-style line (kB) from `/proc/self/status`; `None` off Linux.
fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The synthetic kernel: `iters` rounds of compute + ring halo exchange + allreduce.
/// Returns the job's simulated completion time, or the panic note when the backend
/// could not run the job at all (e.g. fiber stacks exhausting memory).
fn run_kernel(
    backend: SchedBackend,
    workers: usize,
    nranks: usize,
    iters: u64,
    stack: usize,
) -> Result<f64, String> {
    let result = std::panic::catch_unwind(|| {
        let cluster = Cluster::new(
            ClusterConfig::with_ranks(nranks)
                .backend(backend)
                .workers(workers)
                .stack_size(stack),
        );
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let n = world.size();
            let next = (world.rank() + 1) % n;
            let prev = (world.rank() + n - 1) % n;
            let halo = vec![ctx.rank() as f64; 8];
            let mut acc = 0.0f64;
            for _ in 0..iters {
                ctx.compute(1e4);
                let got = ctx.sendrecv_f64(&world, next, &halo, prev, 11)?;
                acc += got[0];
                acc += ctx.allreduce_sum_f64(&world, 1.0)?;
            }
            Ok(acc)
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        outcome.max_time().as_secs()
    });
    result.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        let first = msg.lines().next().unwrap_or("panic");
        format!("failed: {first}")
    })
}

/// Runs the sweep (see the module docs), printing one progress line per cell.
pub fn run() -> ScaleReport {
    let ranks = env_list("MATCH_SCALE_RANKS", &[512, 1024, 2048, 4096]);
    let backends = backends_from_env();
    let worker_ladder = env_list("MATCH_SCALE_WORKERS", &[1, 2, 4, 8]);
    let iters = env_usize("MATCH_SCALE_ITERS", 5) as u64;
    let stack = env_usize("MATCH_SCALE_STACK_KB", 256) * 1024;

    // `par` is swept over the worker ladder; `coop` has no worker dimension and gets
    // one cell per rank count.
    let mut cells: Vec<(SchedBackend, usize)> = Vec::new();
    for &backend in &backends {
        if backend == SchedBackend::Par {
            cells.extend(worker_ladder.iter().map(|&w| (backend, w)));
        } else {
            cells.push((backend, 1));
        }
    }

    let mut report = ScaleReport::default();
    let mut virt_by_ranks: std::collections::BTreeMap<usize, f64> = Default::default();
    for &(backend, workers) in &cells {
        let label = if backend == SchedBackend::Par {
            format!("{backend}[w={workers}]")
        } else {
            backend.to_string()
        };
        for &nranks in &ranks {
            let started = Instant::now();
            match run_kernel(backend, workers, nranks, iters, stack) {
                Ok(virt) => {
                    let wall = started.elapsed().as_secs_f64();
                    let rss = proc_status_mib("VmRSS:");
                    match virt_by_ranks.get(&nranks) {
                        None => {
                            virt_by_ranks.insert(nranks, virt);
                        }
                        Some(&other) if other.to_bits() != virt.to_bits() => {
                            eprintln!(
                                "[scale] VIRTUAL-TIME MISMATCH at {nranks} ranks: {label} says \
                                 {virt}, another backend said {other} — scheduler contract broken"
                            );
                        }
                        Some(_) => {}
                    }
                    println!(
                        "[scale] {label}/{nranks}: {wall:.2}s wall, {virt:.3}s simulated{}",
                        rss.map(|r| format!(", {r:.0} MiB RSS")).unwrap_or_default()
                    );
                    report.rows.push(ScaleRow {
                        backend,
                        workers,
                        nranks,
                        wall_secs: Some(wall),
                        virt_secs: Some(virt),
                        rss_mib: rss,
                        note: None,
                    });
                }
                Err(note) => {
                    println!("[scale] {label}/{nranks}: {note}");
                    report.rows.push(ScaleRow {
                        backend,
                        workers,
                        nranks,
                        wall_secs: None,
                        virt_secs: None,
                        rss_mib: None,
                        note: Some(note),
                    });
                }
            }
        }
    }
    report
}

impl ScaleReport {
    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Backend",
            "Workers",
            "Ranks",
            "Wall (s)",
            "Simulated (s)",
            "RSS (MiB)",
            "Note",
        ]);
        for row in &self.rows {
            table.add_row(vec![
                row.backend.to_string(),
                row.workers.to_string(),
                row.nranks.to_string(),
                row.wall_secs.map(|w| format!("{w:.2}")).unwrap_or_default(),
                row.virt_secs.map(|v| format!("{v:.3}")).unwrap_or_default(),
                row.rss_mib.map(|r| format!("{r:.0}")).unwrap_or_default(),
                row.note.clone().unwrap_or_default(),
            ]);
        }
        table.render()
    }

    /// Serializes the sweep as canonical JSON (floats in shortest-round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"match-bench-scale-v2\",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let field = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or("null".into());
            out.push_str(&format!(
                "    {{\"backend\": \"{}\", \"workers\": {}, \"nranks\": {}, \"wall_secs\": {}, \
                 \"virt_secs\": {}, \"rss_mib\": {}, \"note\": \"{}\"}}{}\n",
                row.backend.name(),
                row.workers,
                row.nranks,
                field(row.wall_secs),
                field(row.virt_secs),
                field(row.rss_mib),
                json_escape(row.note.as_deref().unwrap_or_default()),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal (the `note` field can
/// carry arbitrary panic text; Rust's `{:?}` escapes like `\u{1b}` are not valid
/// JSON, so this does it by hand).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_agrees_across_backends_at_smoke_scale() {
        let a = run_kernel(SchedBackend::Coop, 1, 16, 3, 256 * 1024).unwrap();
        for workers in [1, 2, 4] {
            let c = run_kernel(SchedBackend::Par, workers, 16, 3, 256 * 1024).unwrap();
            assert_eq!(
                a.to_bits(),
                c.to_bits(),
                "virtual time must not depend on par worker count ({workers})"
            );
        }
        assert!(a > 0.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = ScaleReport {
            rows: vec![ScaleRow {
                backend: SchedBackend::Par,
                workers: 4,
                nranks: 64,
                wall_secs: Some(0.5),
                virt_secs: Some(1.25),
                rss_mib: Some(100.0),
                note: None,
            }],
        };
        let text = report.render();
        assert!(text.contains("par"));
        assert!(text.contains("64"));
        let json = report.to_json();
        assert!(json.contains("match-bench-scale-v2"));
        assert!(json.contains("\"nranks\": 64"));
        assert!(json.contains("\"workers\": 4"));
    }

    #[test]
    fn json_escape_produces_valid_json_escapes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
        // Control characters use JSON's \uXXXX form, not Rust's \u{XX}.
        assert_eq!(json_escape("\u{1b}[31m"), "\\u001b[31m");
    }
}
