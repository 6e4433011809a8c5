//! The four workloads, each in an untraced form (end-to-end metrics) and a traced
//! form (per-layer metrics).
//!
//! Every workload runs in this one process on the `coop` backend with one job at
//! a time. Its inputs derive from the run's seed only: the figure cells' failure
//! plans, the explorer's mutation seed and the scale kernel's halo values.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use match_core::cache::ExperimentId;
use match_core::mpisim::SchedBackend;
use match_core::persist::{encode_entry, DiskCache, DiskLookup};
use match_core::recovery::{RecoveryStrategy, RunReport};
use match_core::{run_trace, runner, SuiteError};
use match_explorer::search::check_property;
use match_explorer::{ExploreConfig, Explorer, Property, TraceGenome};
use proptest::TestRng;

use crate::figures::{cell_set, engine_pass, fidelity_err, findings_only, CellSet, EnginePass};
use crate::host::{peak_rss_mib, Scratch};
use crate::layers::{median_metrics, time_kernels, Layers, Metric};
use crate::redrive;
use crate::stats::{median, tail};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["figures-cold", "figures-warm", "explore", "scale-16k"];

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Ranks of the `scale-16k` job.
pub const SCALE_RANKS: usize = 16384;

/// Jobs in one `scale-16k` pass, each with its own halo offset: the distinct ops
/// whose best times over the passes give the per-op latencies.
pub const SCALE_JOBS: u64 = 4;

/// Failure-plan draws of `figures-cold`: one pass regenerates the figures under
/// each. The lost work of a failing cell depends on where its failure lands, so
/// one draw alone moves a pass's host time by about a tenth from seed to seed.
pub const FIGURE_DRAWS: u64 = 3;

/// Ranks, iterations and per-design budget of the `explore` workload.
pub const EXPLORE: (usize, u64, u32) = (8, 12, 48);

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Counts `n` operations of which `failed` failed.
    fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one correctness check.
    fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }
}

/// Derives an independent stream of the run's seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn suite_seed(seed: u64) -> u64 {
    derive(seed, 1)
}

/// The cell sets of `figures-cold`: the run's suite seed, then further draws.
fn figure_sets(seed: u64) -> Vec<CellSet> {
    (0..FIGURE_DRAWS)
        .map(|draw| match draw {
            0 => cell_set(suite_seed(seed)),
            _ => cell_set(derive(seed, 100 + draw)),
        })
        .collect()
}

fn explore_config(seed: u64) -> ExploreConfig {
    let (nprocs, iterations, budget) = EXPLORE;
    ExploreConfig {
        nprocs,
        iterations,
        budget,
        seed: derive(seed, 2) % 1_000_000,
        corpus: None,
        assert_label: None,
    }
}

/// The integer halo offset of the scale kernel's `job`-th job in a pass.
fn scale_salt(seed: u64, job: u64) -> f64 {
    (derive(seed, 3).wrapping_add(job) % 1000) as f64
}

/// Runs `workload`: untraced (`trace == false`, end-to-end metrics) or traced
/// (per-layer metrics). `None` for an unknown workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunResult> {
    let budget = Duration::from_secs_f64(seconds);
    let result = match (workload, trace) {
        ("figures-cold", false) => figures_cold(seed, budget),
        ("figures-cold", true) => figures_cold_traced(seed, budget),
        ("figures-warm", false) => figures_warm(seed, budget),
        ("figures-warm", true) => figures_warm_traced(seed, budget),
        ("explore", false) => explore(seed, budget),
        ("explore", true) => explore_traced(seed, budget),
        ("scale-16k", false) => scale(seed, budget),
        ("scale-16k", true) => scale_traced(seed, budget),
        _ => return None,
    };
    Some(result)
}

/// What an untraced workload measured.
#[derive(Debug, Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Host seconds of each pass.
    pass_s: Vec<f64>,
    /// Host seconds of each pass outside its timed ops (rendering the figures),
    /// for workloads whose pass is a sequence of its ops.
    residual_s: Vec<f64>,
    /// Per-op latency samples.
    op_s: Vec<f64>,
    /// Ops in one pass (every pass does the same work).
    ops_per_pass: u64,
    fidelity: f64,
}

impl EndToEnd {
    fn finish(self, mut out: RunResult, op: &str) -> RunResult {
        // Host wall-clock is min-of-N: the best time is the least disturbed by
        // other tenants of the host. A pass made of its ops takes each op at its
        // best, which filters disturbances far shorter than a pass.
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let wall_s = if self.residual_s.is_empty() {
            best(&self.pass_s)
        } else {
            self.op_s.iter().sum::<f64>() + best(&self.residual_s)
        };
        let op_ms: Vec<f64> = self.op_s.iter().map(|s| s * 1e3).collect();
        let tail = tail(&op_ms).unwrap_or(crate::stats::Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            n: 0,
        });
        out.notes.push(format!(
            "op = {op}; {} ops per pass, {} passes; op_tail_ms is p{:.2} of n={} per-op samples",
            self.ops_per_pass,
            self.pass_s.len(),
            tail.percentile,
            tail.n
        ));
        if let Some([q1, q2, q3]) = crate::stats::quartiles(&self.pass_s) {
            out.notes
                .push(format!("pass wall_s quartiles: {q1:.6} {q2:.6} {q3:.6}"));
        }
        out.notes.push(format!(
            "fail_rate = {} ({} of {} ops and checks failed)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        out.metrics = vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("ops_per_s", self.ops_per_pass as f64 / wall_s, "1/s"),
            Metric::new("op_p50_ms", median(&op_ms), "ms"),
            Metric::new("op_tail_ms", tail.value, "ms"),
            Metric::new("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
            Metric::new("fidelity_err", self.fidelity, "log10"),
        ];
        out
    }
}

/// Loops `round` until `budget` has elapsed (at least once).
fn for_budget(budget: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    loop {
        round();
        if start.elapsed() >= budget {
            break;
        }
    }
}

fn scratch_or_fail(out: &mut RunResult) -> Option<Scratch> {
    match Scratch::create() {
        Ok(s) => Some(s),
        Err(e) => {
            out.check(false, format!("cannot create the private store: {e}"));
            None
        }
    }
}

/// Checks one engine pass: every cell `Ok`, rendering answered from memory,
/// `expect_simulated` cells simulated, no read errors, and the figure digest
/// and findings equal to the reference (the first pass when `None`). Returns
/// the number of failed cells.
fn check_pass(
    out: &mut RunResult,
    pass: &EnginePass,
    expect_simulated: u64,
    reference: &mut Option<(u64, [f64; 6])>,
) -> u64 {
    let mut failed = 0;
    for (cell, report) in pass.reports.iter().enumerate() {
        if let Err(e) = report {
            failed += 1;
            out.notes.push(format!("FAILED: cell {cell}: {e}"));
        }
    }
    let s = pass.stats;
    out.check(
        s.disk_misses == expect_simulated && s.disk_read_errors == 0,
        format!(
            "expected {expect_simulated} simulated cells and no read errors, got {} and {}",
            s.disk_misses, s.disk_read_errors
        ),
    );
    match &pass.rendered {
        Ok(r) => {
            let now = (r.digest, crate::figures::measured_findings(&r.findings));
            let same = reference.get_or_insert(now) == &now;
            out.check(same, "figure JSON digest or findings differ between passes");
        }
        Err(e) => out.check(false, format!("figure rendering failed: {e}")),
    }
    failed
}

/// Checks the pass that filled a store: every cell simulated, `Ok` and written
/// through.
fn check_fill(out: &mut RunResult, fill: &EnginePass, reference: &mut Option<(u64, [f64; 6])>) {
    let cells = fill.reports.len() as u64;
    let failed = check_pass(out, fill, cells, reference);
    out.check(
        failed == 0 && fill.stats.disk_writes == cells,
        format!(
            "filling the store: {failed} cells failed, {} of {cells} written through",
            fill.stats.disk_writes
        ),
    );
}

fn fidelity_of(pass: &EnginePass) -> f64 {
    pass.rendered
        .as_ref()
        .map(|r| fidelity_err(&r.findings))
        .unwrap_or(f64::NAN)
}

/// Each cell's latency is its best time over the passes (min-of-N, like every
/// host wall-clock figure of the benchmark).
fn per_cell_best(per_pass: &[Vec<f64>]) -> Vec<f64> {
    let cells = per_pass.first().map_or(0, Vec::len);
    (0..cells)
        .map(|i| per_pass.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

fn figures_cold(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let mut sets = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        sets = figure_sets(seed);
        // Warm-up: one cell per proxy and input size, uncached, so lazy state
        // (fiber stack pool, allocator arenas, page cache) settles before timing.
        let mut primed = BTreeSet::new();
        for cell in &sets[0].cells {
            if primed.insert((cell.app.name(), cell.input.name())) {
                let ok = runner::run_single(cell, 0).is_ok();
                out.check(ok, format!("priming cell {} failed", cell.label()));
            }
        }
        e2e.setup_s.push(t.elapsed().as_secs_f64());
    }
    e2e.ops_per_pass = sets.iter().map(|s| s.cells.len() as u64).sum();
    let mut references = vec![None; sets.len()];
    let mut per_pass = Vec::new();
    for_budget(budget, || {
        let (mut pass_s, mut residual_s) = (0.0, 0.0);
        let mut cell_s = Vec::new();
        for (draw, (set, reference)) in sets.iter().zip(&mut references).enumerate() {
            // Memory-only engine: with write-through, the host's fsync latency
            // set the median cell's time (see METRICS.md); the write side is
            // measured by `figures-warm`'s set-up and by `persist.store_s`.
            let pass = engine_pass(set, None);
            let cells = set.cells.len() as u64;
            let failed = check_pass(&mut out, &pass, cells, reference);
            out.ops(cells, failed);
            pass_s += pass.wall_s;
            residual_s += pass.wall_s - pass.cell_s.iter().sum::<f64>();
            if draw == 0 {
                e2e.fidelity = fidelity_of(&pass);
            }
            cell_s.extend(pass.cell_s);
        }
        e2e.pass_s.push(pass_s);
        e2e.residual_s.push(residual_s);
        per_pass.push(cell_s);
    });
    e2e.op_s = per_cell_best(&per_pass);
    e2e.finish(
        out,
        "one distinct figure cell, simulated by a memory-only engine",
    )
}

fn figures_warm(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let Some(scratch) = scratch_or_fail(&mut out) else {
        return out;
    };
    let set = cell_set(suite_seed(seed));
    let cells = set.cells.len() as u64;
    e2e.ops_per_pass = cells;
    let mut reference = None;
    let mut filled = None;
    for i in 0..SETUPS {
        let store = scratch.path(&format!("warm-{i}"));
        let t = Instant::now();
        let cold = engine_pass(&set, Some(&store));
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        check_fill(&mut out, &cold, &mut reference);
        filled = Some((store, cold));
    }
    let (store, cold) = filled.expect("set-up ran");
    let mut per_pass = Vec::new();
    for_budget(budget, || {
        let pass = engine_pass(&set, Some(&store));
        let mut failed = check_pass(&mut out, &pass, 0, &mut reference);
        failed += pass
            .reports
            .iter()
            .zip(&cold.reports)
            .filter(|(warm, cold)| warm.is_ok() && warm != cold)
            .count() as u64;
        failed += pass.stats.disk_misses + pass.stats.disk_read_errors;
        out.ops(cells, failed.min(cells));
        e2e.pass_s.push(pass.wall_s);
        e2e.residual_s
            .push(pass.wall_s - pass.cell_s.iter().sum::<f64>());
        e2e.fidelity = fidelity_of(&pass);
        per_pass.push(pass.cell_s);
    });
    e2e.op_s = per_cell_best(&per_pass);
    e2e.finish(
        out,
        "one distinct figure cell, recalled from disk by a fresh engine",
    )
}

fn organic_violations(outcome: &match_explorer::ExploreOutcome) -> u64 {
    outcome
        .violations
        .iter()
        .filter(|v| v.property != Property::AssertLabel)
        .count() as u64
}

fn traces_of(report: &match_explorer::ExploreReport) -> u64 {
    report.designs.iter().map(|d| d.runs as u64).sum()
}

fn explore(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let config = explore_config(seed);
    let mut reference = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let outcome = Explorer::new(config.clone()).run();
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        reference = Some(outcome.report.to_json());
    }
    let reference = reference.expect("set-up ran");
    let explorer = Explorer::new(config.clone());
    let mut per_pass = Vec::new();
    for_budget(budget, || {
        let t = Instant::now();
        let outcome = explorer.run();
        e2e.pass_s.push(t.elapsed().as_secs_f64());
        let traces = traces_of(&outcome.report);
        out.ops(traces, organic_violations(&outcome).min(traces));
        out.check(
            outcome.report.to_json() == reference,
            "explorer report differs between runs",
        );
        e2e.ops_per_pass = traces;
        // `Explorer::run` has no per-trace hook, so each trace is timed by
        // stepping the same search from outside.
        let mut trace_s = Vec::with_capacity(traces as usize);
        for (strategy, design) in match_core::enabled_designs()
            .iter()
            .zip(&outcome.report.designs)
        {
            let (paths, dead_ends, violations) = time_search(&config, *strategy, &mut trace_s);
            out.check(
                paths == design.paths && dead_ends == design.dead_ends && violations == 0,
                "stepping the search from outside did not reproduce the explorer's report",
            );
        }
        per_pass.push(trace_s);
    });
    e2e.op_s = per_cell_best(&per_pass);
    e2e.fidelity = after_phase_fidelity(&mut out, seed);
    e2e.finish(
        out,
        "one explored trace (stepped from outside: its run plus its property checks)",
    )
}

/// The fidelity of the smoke Fig. 6 findings at the run's seed, for workloads
/// that do not regenerate the figures themselves (computed after the measured
/// phase).
fn after_phase_fidelity(out: &mut RunResult, seed: u64) -> f64 {
    match findings_only(suite_seed(seed)) {
        Ok(f) => fidelity_err(&f),
        Err(e) => {
            out.check(false, format!("fig6 findings failed: {e}"));
            f64::NAN
        }
    }
}

fn scale(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let salts: Vec<f64> = (0..SCALE_JOBS).map(|job| scale_salt(seed, job)).collect();
    let mut virt = None;
    for _ in 0..SETUPS {
        // Set-up is a warm-up job: it fills the fiber stack pool.
        let t = Instant::now();
        let job = redrive::scale_job(SchedBackend::Coop, 1, SCALE_RANKS, salts[0], false);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        out.check(
            job.wrong_ranks == 0,
            "warm-up scale job computed wrong values",
        );
        virt = Some(job.total_time);
    }
    let virt = virt.expect("set-up ran");
    e2e.ops_per_pass = SCALE_JOBS;
    let mut per_pass = Vec::new();
    for_budget(budget, || {
        let start = Instant::now();
        let mut job_s = Vec::with_capacity(salts.len());
        for &salt in &salts {
            let job = redrive::scale_job(SchedBackend::Coop, 1, SCALE_RANKS, salt, false);
            // The halo values do not enter the cost model, so every job takes
            // the set-up job's virtual time.
            let ok = job.wrong_ranks == 0 && job.total_time == virt;
            out.ops(1, u64::from(!ok));
            if !ok {
                out.notes.push(format!(
                    "FAILED: scale job: {} wrong ranks, virtual time {} (expected {})",
                    job.wrong_ranks,
                    job.total_time.as_secs(),
                    virt.as_secs()
                ));
            }
            job_s.push(job.times.run_s);
        }
        let pass_s = start.elapsed().as_secs_f64();
        e2e.residual_s.push(pass_s - job_s.iter().sum::<f64>());
        e2e.pass_s.push(pass_s);
        per_pass.push(job_s);
    });
    e2e.op_s = per_cell_best(&per_pass);
    let par = redrive::scale_job(SchedBackend::Par, 2, SCALE_RANKS, salts[0], false);
    out.check(
        par.wrong_ranks == 0 && par.total_time == virt,
        "scale-16k virtual time differs between coop and par",
    );
    e2e.fidelity = after_phase_fidelity(&mut out, seed);
    e2e.finish(
        out,
        "one 16384-rank kernel job, one per halo offset in a pass",
    )
}

// ---------------------------------------------------------------- traced runs

/// Finishes a traced run: per-layer medians over the rounds, the data-plane
/// kernels, and the guard verdict.
fn finish_traced(mut out: RunResult, rounds: &[Layers]) -> RunResult {
    let kernels = time_kernels(Duration::from_millis(150));
    out.check(
        kernels.is_some(),
        "an FTI data-plane kernel returned wrong bytes",
    );
    let kernels = kernels.unwrap_or_default();
    let lists: Vec<Vec<Metric>> = rounds.iter().map(|l| l.metrics(&kernels)).collect();
    out.metrics = median_metrics(&lists);
    let (probes, mismatches) = rounds
        .iter()
        .fold((0, 0), |(r, m), l| (r + l.probes, m + l.mismatches));
    if mismatches > 0 {
        out.notes.push(format!(
            "WARNING: {mismatches} of {probes} probes did not reproduce the program's result \
             bit for bit; the per-layer split is invalid (trace.valid = 0)"
        ));
    } else {
        out.notes.push(format!(
            "{probes} probes reproduced the program's result bit for bit; {} rounds",
            rounds.len()
        ));
    }
    out
}

fn same_result(redriven: &redrive::Redriven, report: &RunReport) -> bool {
    redriven.all_ok && redriven.total_time == report.total_time && redriven.stats == report.stats
}

fn figures_cold_traced(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let Some(scratch) = scratch_or_fail(&mut out) else {
        return out;
    };
    let sets = figure_sets(seed);
    let mut rounds = Vec::new();
    let mut references = vec![None; sets.len()];
    let mut round_no = 0;
    for_budget(budget, || {
        let mut layers = Layers::default();
        for (set, reference) in sets.iter().zip(&mut references) {
            let probe_store = scratch.path(&format!("probe-{round_no}"));
            round_no += 1;
            traced_cell_set(&mut out, &mut layers, set, reference, &probe_store);
        }
        rounds.push(layers);
    });
    finish_traced(out, &rounds)
}

/// One traced pass over `set`, added to `layers`: the untraced engine pass, then
/// every cell through `runner::run_single`, a private probe store and a re-drive.
fn traced_cell_set(
    out: &mut RunResult,
    layers: &mut Layers,
    set: &CellSet,
    reference: &mut Option<(u64, [f64; 6])>,
    probe_store: &std::path::Path,
) {
    let cells = set.cells.len() as u64;
    let pass = engine_pass(set, None);
    let failed = check_pass(out, &pass, cells, reference);
    out.ops(cells, failed);
    layers.add_engine(&pass.stats);
    layers.untraced_wall_s += pass.wall_s;
    // The write side of the persistent cache, on a private store of its own.
    let disk = DiskCache::new(probe_store, None);
    let traced_start = Instant::now();
    let mut cell_s = 0.0;
    for (cell, engine_report) in set.cells.iter().zip(&pass.reports) {
        let t = Instant::now();
        let report = runner::run_single(cell, 0);
        let span = t.elapsed().as_secs_f64();
        cell_s += span;
        *layers.cell_s.entry(cell.app.name()).or_default() += span;
        let Ok(report) = report else {
            layers.guard(false);
            continue;
        };
        let id = ExperimentId::of(cell);
        let t = Instant::now();
        let lookup = disk.load(&id);
        layers.load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let stored = disk.store(&id, &report);
        layers.store_s += t.elapsed().as_secs_f64();
        layers.entries += 1;
        layers.bytes += encode_entry(&id, &report).len() as u64;
        out.check(
            matches!(lookup, DiskLookup::Miss) && stored.is_ok(),
            "probe store: fresh lookup did not miss or the write failed",
        );
        let redriven = redrive::cell(cell);
        layers.build_s += redriven.build_s;
        layers.add_times(&redriven.times);
        layers.store_bytes += redriven.store_bytes;
        layers.guard(same_result(&redriven, &report) && engine_report.as_ref() == Ok(&report));
        layers.add_report(&report);
    }
    layers.traced_wall_s += traced_start.elapsed().as_secs_f64();
    layers.engine_self_s += pass.wall_s - cell_s;
}

fn figures_warm_traced(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let Some(scratch) = scratch_or_fail(&mut out) else {
        return out;
    };
    let set = cell_set(suite_seed(seed));
    let cells = set.cells.len() as u64;
    let store = scratch.path("warm");
    let mut reference = None;
    let cold = engine_pass(&set, Some(&store));
    check_fill(&mut out, &cold, &mut reference);
    let disk = DiskCache::new(&store, None);
    let mut rounds = Vec::new();
    for_budget(budget, || {
        let pass = engine_pass(&set, Some(&store));
        let failed = check_pass(&mut out, &pass, 0, &mut reference);
        out.ops(cells, failed);
        let mut layers = Layers {
            engine: pass.stats,
            untraced_wall_s: pass.wall_s,
            ..Layers::default()
        };
        let traced_start = Instant::now();
        for (cell, cold_report) in set.cells.iter().zip(&cold.reports) {
            let id = ExperimentId::of(cell);
            let t = Instant::now();
            let lookup = disk.load(&id);
            layers.load_s += t.elapsed().as_secs_f64();
            match (lookup, cold_report) {
                (DiskLookup::Hit(report), Ok(cold_report)) => {
                    layers.entries += 1;
                    layers.bytes += encode_entry(&id, &report).len() as u64;
                    layers.guard(&report == cold_report);
                }
                _ => layers.guard(false),
            }
        }
        layers.traced_wall_s = traced_start.elapsed().as_secs_f64();
        layers.engine_self_s = pass.wall_s - layers.load_s;
        rounds.push(layers);
    });
    finish_traced(out, &rounds)
}

fn explore_traced(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let config = explore_config(seed);
    let explorer = Explorer::new(config.clone());
    let mut rounds = Vec::new();
    for_budget(budget, || {
        let t = Instant::now();
        let outcome = explorer.run();
        let wall = t.elapsed().as_secs_f64();
        let traces = traces_of(&outcome.report);
        out.ops(traces, organic_violations(&outcome).min(traces));
        let mut layers = Layers {
            untraced_wall_s: wall,
            traces,
            paths: outcome
                .report
                .designs
                .iter()
                .map(|d| d.paths.len() as u64)
                .sum(),
            dead_ends: outcome
                .report
                .designs
                .iter()
                .map(|d| d.dead_ends as u64)
                .sum(),
            ..Layers::default()
        };
        let traced_start = Instant::now();
        for (strategy, design) in match_core::enabled_designs()
            .iter()
            .zip(&outcome.report.designs)
        {
            let (paths, dead_ends) = replay_search(&config, *strategy, &mut layers);
            layers.guard(paths == design.paths && dead_ends == design.dead_ends);
        }
        layers.traced_wall_s = traced_start.elapsed().as_secs_f64();
        rounds.push(layers);
    });
    finish_traced(out, &rounds)
}

/// Steps the explorer's search loop for one design from outside — the same seed
/// corpus, mutation RNG and novelty rule. `run` runs one trace and returns its
/// path labels, or `None` for a dead end; `after` sees the trace and whether its
/// signature was novel. Returns the distinct paths and dead ends, for comparison
/// with the explorer's report.
fn search_loop<S>(
    config: &ExploreConfig,
    strategy: RecoveryStrategy,
    state: &mut S,
    mut run: impl FnMut(&mut S, &TraceGenome) -> Option<Vec<String>>,
    mut after: impl FnMut(&mut S, &TraceGenome, bool),
) -> (Vec<String>, u32) {
    let baseline = TraceGenome::baseline(config.nprocs, config.iterations);
    let topology = baseline.topology();
    let pending = TraceGenome::seeds(config.nprocs, config.iterations, &topology);
    let mut rng = TestRng::deterministic(strategy.design_name(), config.seed as u32);
    let mut kept: Vec<TraceGenome> = Vec::new();
    let mut signatures = BTreeSet::new();
    let mut paths = BTreeSet::new();
    let mut dead_ends = 0u32;
    for round in 0..config.budget {
        let genome = match pending.get(round as usize) {
            Some(seed) => seed.clone(),
            None => {
                let parent = if kept.is_empty() {
                    &baseline
                } else {
                    &kept[rng.below(kept.len())]
                };
                parent.mutate(&mut rng, &topology)
            }
        };
        let novel = match run(state, &genome) {
            Some(labels) => {
                let novel = signatures.insert(labels.join("|"));
                if novel {
                    paths.extend(labels);
                }
                novel
            }
            None => {
                dead_ends += 1;
                false
            }
        };
        after(state, &genome, novel);
        if novel {
            kept.push(genome);
        }
    }
    (paths.into_iter().collect(), dead_ends)
}

/// Times every trace of one design's search as the explorer spends it: the run,
/// then the property checks (determinism only on a novel signature). Appends the
/// host seconds per trace to `trace_s`; returns the paths, dead ends and organic
/// violations.
fn time_search(
    config: &ExploreConfig,
    strategy: RecoveryStrategy,
    trace_s: &mut Vec<f64>,
) -> (Vec<String>, u32, u32) {
    let mut state = (Instant::now(), 0u32);
    let (paths, dead_ends) = search_loop(
        config,
        strategy,
        &mut state,
        |(start, _), genome| {
            *start = Instant::now();
            run_trace(&genome.spec(strategy))
                .ok()
                .map(|outcome| outcome.report.path_labels())
        },
        |(start, violations), genome, novel| {
            let mut properties = vec![Property::Survivability, Property::Oracle];
            if novel {
                properties.push(Property::Determinism);
            }
            for property in properties {
                if check_property(strategy, genome, property, None).violated {
                    *violations += 1;
                }
            }
            trace_s.push(start.elapsed().as_secs_f64());
        },
    );
    (paths, dead_ends, state.1)
}

/// Replays one design's search from outside, running every trace through
/// `run_trace` (the program) and through an instrumented re-drive.
fn replay_search(
    config: &ExploreConfig,
    strategy: RecoveryStrategy,
    layers: &mut Layers,
) -> (Vec<String>, u32) {
    search_loop(
        config,
        strategy,
        layers,
        |layers, genome| {
            let spec = genome.spec(strategy);
            let run: Result<_, SuiteError> = run_trace(&spec);
            let redriven = redrive::trace(&spec);
            layers.add_times(&redriven.times);
            layers.store_bytes += redriven.store_bytes;
            match run {
                Ok(outcome) => {
                    layers.guard(same_result(&redriven, &outcome.report));
                    layers.add_report(&outcome.report);
                    Some(outcome.report.path_labels())
                }
                Err(_) => {
                    layers.guard(!redriven.all_ok);
                    None
                }
            }
        },
        |_, _, _| {},
    )
}

fn scale_traced(seed: u64, budget: Duration) -> RunResult {
    let mut out = RunResult::default();
    let salt = scale_salt(seed, 0);
    let per_rank_iter = |s: f64| s * 1e9 / (SCALE_RANKS as f64 * redrive::SCALE_ITERS as f64);
    // Warm-up job, as in the untraced set-up.
    let warm_up = redrive::scale_job(SchedBackend::Coop, 1, SCALE_RANKS, salt, false);
    out.check(
        warm_up.wrong_ranks == 0,
        "warm-up scale job computed wrong values",
    );
    let mut rounds = Vec::new();
    for_budget(budget, || {
        let plain = redrive::scale_job(SchedBackend::Coop, 1, SCALE_RANKS, salt, false);
        out.ops(1, u64::from(plain.wrong_ranks != 0));
        let mut layers = Layers {
            untraced_wall_s: plain.times.run_s,
            ..Layers::default()
        };
        layers.add_stats(&plain.stats);
        let traced = redrive::scale_job(SchedBackend::Coop, 1, SCALE_RANKS, salt, true);
        layers.add_times(&traced.times);
        layers.traced_wall_s = traced.times.run_s;
        layers.guard(
            traced.wrong_ranks == 0
                && traced.total_time == plain.total_time
                && traced.stats == plain.stats,
        );
        let par1 = redrive::scale_job(SchedBackend::Par, 1, SCALE_RANKS, salt, false);
        let par2 = redrive::scale_job(SchedBackend::Par, 2, SCALE_RANKS, salt, false);
        for par in [&par1, &par2] {
            out.check(
                par.wrong_ranks == 0 && par.total_time == plain.total_time,
                "scale-16k virtual time differs between coop and par",
            );
        }
        layers.ns_per_rank_iter = [
            per_rank_iter(plain.times.run_s),
            per_rank_iter(par1.times.run_s),
            per_rank_iter(par2.times.run_s),
        ];
        rounds.push(layers);
    });
    finish_traced(out, &rounds)
}
