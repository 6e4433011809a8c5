//! The figure cell set and one engine pass over it.
//!
//! The cell set is every distinct cell behind Figs. 5–10, the MTBF sweep and the
//! findings at smoke scale (process ladder 4/8/16/32, six proxies, four designs).
//! A pass asks a fresh `SuiteEngine` (jobs = 1) for every cell in order, timing
//! each request from outside, then renders the figures through the same engine —
//! which must answer them from memory — and digests their canonical JSON.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use match_bench::{figure_to_json, mtbf_to_json};
use match_core::cache::{CacheStats, ExperimentId};
use match_core::matrix::{full_suite_matrix, MatrixOptions};
use match_core::mtbf::mtbf_sweep_with_engine;
use match_core::persist::{fnv1a64, DiskCache};
use match_core::proxies::registry::ExecutionScale;
use match_core::proxies::ProxyKind;
use match_core::recovery::RunReport;
use match_core::{
    enabled_designs, figures, Experiment, FailureScenario, Findings, MtbfSweepOptions, SuiteEngine,
    SuiteError, SuiteOptions,
};

/// The matrix options and the distinct cells of one figure regeneration.
#[derive(Debug, Clone)]
pub struct CellSet {
    /// Options of the figure matrices.
    pub options: MatrixOptions,
    /// Options of the MTBF sweep (derived from `options`).
    pub mtbf: MtbfSweepOptions,
    /// Every distinct cell, in first-request order.
    pub cells: Vec<Experiment>,
}

/// The smoke-scale figure options with failure plans drawn from `suite_seed`.
pub fn matrix_options(suite_seed: u64) -> MatrixOptions {
    MatrixOptions {
        process_counts: vec![4, 8, 16, 32],
        default_procs: 4,
        apps: ProxyKind::ALL.to_vec(),
        suite: SuiteOptions {
            scale: ExecutionScale::smoke(),
            repetitions: 1,
            seed: suite_seed,
        },
    }
}

/// The distinct cells of Figs. 5–10, the MTBF sweep and the findings.
pub fn cell_set(suite_seed: u64) -> CellSet {
    let options = matrix_options(suite_seed);
    let mtbf = MtbfSweepOptions::from_matrix(&options);
    let mut requests = full_suite_matrix(&options);
    for &strategy in enabled_designs() {
        let base =
            Experiment::new(mtbf.app, mtbf.input, mtbf.nprocs, strategy).with_options(&mtbf.suite);
        requests.push(base);
        for &node_mtbf_iterations in &mtbf.node_mtbf_ladder {
            requests.push(base.with_scenario(FailureScenario::Mtbf {
                node_mtbf_iterations,
                node_crash_pct: mtbf.node_crash_pct,
                rack_neighbor_pct: mtbf.rack_neighbor_pct,
                recovery_window_pct: mtbf.recovery_window_pct,
            }));
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    requests.retain(|e| seen.insert(ExperimentId::of(e)));
    CellSet {
        options,
        mtbf,
        cells: requests,
    }
}

/// What rendering the figures produced.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// FNV-1a-64 of the canonical fig5–fig10 and MTBF JSON.
    pub digest: u64,
    /// The Section V-C findings.
    pub findings: Findings,
}

/// One pass of a fresh engine over the cell set.
#[derive(Debug)]
pub struct EnginePass {
    /// Host seconds of the whole pass: every cell plus the figure rendering.
    pub wall_s: f64,
    /// Host seconds of each cell request, in cell order.
    pub cell_s: Vec<f64>,
    /// Each cell's result, in cell order.
    pub reports: Vec<Result<RunReport, SuiteError>>,
    /// The engine's counters after the pass.
    pub stats: CacheStats,
    /// The rendered figures, or the first failing cell.
    pub rendered: Result<Rendered, SuiteError>,
}

/// Runs one pass over `set` on a fresh serial engine, backed by the store at
/// `store` (created when missing) or by memory only.
pub fn engine_pass(set: &CellSet, store: Option<&Path>) -> EnginePass {
    let disk = store.map(|root| Arc::new(DiskCache::new(root, None)));
    let engine = SuiteEngine::with_jobs_and_disk(1, disk);
    let start = Instant::now();
    let mut cell_s = Vec::with_capacity(set.cells.len());
    let mut reports = Vec::with_capacity(set.cells.len());
    for cell in &set.cells {
        let t = Instant::now();
        let report = engine.run(cell);
        cell_s.push(t.elapsed().as_secs_f64());
        reports.push(report);
    }
    let rendered = render(&engine, set);
    let wall_s = start.elapsed().as_secs_f64();
    EnginePass {
        wall_s,
        cell_s,
        reports,
        stats: engine.cache_stats(),
        rendered: rendered.map(|(json, findings)| Rendered {
            digest: fnv1a64(json.as_bytes()),
            findings,
        }),
    }
}

/// Renders fig5–fig10 and the MTBF sweep to their canonical `match-bench` JSON,
/// and derives the findings.
fn render(engine: &SuiteEngine, set: &CellSet) -> Result<(String, Findings), SuiteError> {
    let options = &set.options;
    let mut json = String::new();
    for figure in [
        figures::fig5_with_engine(engine, options)?,
        figures::fig6_with_engine(engine, options)?,
        figures::fig7_with_engine(engine, options)?,
        figures::fig8_with_engine(engine, options)?,
        figures::fig9_with_engine(engine, options)?,
        figures::fig10_with_engine(engine, options)?,
    ] {
        json.push_str(&figure_to_json(&figure));
    }
    json.push_str(&mtbf_to_json(&mtbf_sweep_with_engine(engine, &set.mtbf)?));
    Ok((json, Findings::compute(engine, options)?))
}

/// The paper's values of the six findings it quantifies, in the order of
/// [`measured_findings`].
pub const PAPER_FINDINGS: [f64; 6] = [4.0, 13.0, 16.0, 22.0, 2.5, 0.13];

/// Floor applied to a measured finding before the log ratio, so that a 0%
/// checkpoint share stays finite.
pub const FINDING_FLOOR: f64 = 1e-3;

/// ULFM/Reinit recovery avg and max, Restart/Reinit avg and max, Restart/ULFM
/// avg, and the checkpoint-write share of total time.
pub fn measured_findings(f: &Findings) -> [f64; 6] {
    [
        f.ulfm_over_reinit_avg,
        f.ulfm_over_reinit_max,
        f.restart_over_reinit_avg,
        f.restart_over_reinit_max,
        f.restart_over_ulfm_avg,
        f.checkpoint_fraction_avg,
    ]
}

/// Mean over the six quantified findings of `|log10(measured / paper)|`.
pub fn fidelity_err(findings: &Findings) -> f64 {
    let measured = measured_findings(findings);
    measured
        .iter()
        .zip(PAPER_FINDINGS)
        .map(|(&m, paper)| (m.max(FINDING_FLOOR) / paper).log10().abs())
        .sum::<f64>()
        / PAPER_FINDINGS.len() as f64
}

/// The findings of the smoke Fig. 6 matrix at `suite_seed`, on a memory-only
/// serial engine.
pub fn findings_only(suite_seed: u64) -> Result<Findings, SuiteError> {
    let engine = SuiteEngine::with_jobs_and_disk(1, None);
    Findings::compute(&engine, &matrix_options(suite_seed))
}
