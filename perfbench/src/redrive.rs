//! Instrumented re-drives of the program's jobs, for the traced run.
//!
//! The benchmark adds no tracing inside the program. Instead it re-drives a job
//! from outside through the same public layers the program uses —
//! `runner::experiment_cluster` → `Cluster::run` → `FtDriver::execute` →
//! `ProxyApp::run` — and timestamps each boundary from the closures it passes in.
//! A re-drive is only trusted when it reproduces the program's own result
//! (virtual total time and `RankStats`) bit for bit; callers compare and mark the
//! per-layer split invalid otherwise.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use match_core::fti::store::CheckpointStore;
use match_core::fti::{CheckpointLevel, FtiConfig, Protectable};
use match_core::mpisim::{
    Cluster, ClusterConfig, MpiError, RankCtx, RankStats, RunOutcome, SchedBackend, SimTime,
};
use match_core::proxies::ProxySpec;
use match_core::recovery::{ArrivalModel, FailureTrace, FaultPlan, FtConfig, FtDriver};
use match_core::runner::experiment_cluster;
use match_core::{Experiment, FailureScenario, TraceRunSpec};

use crate::stats::{difference_len, union_len};

/// Host-time boundaries recorded while one job runs. Times are seconds since the
/// log's epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    inner: Mutex<Spans>,
}

#[derive(Debug, Default)]
struct Spans {
    first_entry: Option<f64>,
    last_exit: Option<f64>,
    execute: Vec<(f64, f64)>,
    app: Vec<(f64, f64)>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn rank_entered(&self) {
        let t = self.now();
        let mut spans = self.inner.lock().expect("span log lock");
        spans.first_entry = Some(spans.first_entry.map_or(t, |f| f.min(t)));
    }

    fn rank_exited(&self) {
        let t = self.now();
        let mut spans = self.inner.lock().expect("span log lock");
        spans.last_exit = Some(spans.last_exit.map_or(t, |l| l.max(t)));
    }

    fn execute(&self, start: f64) {
        let end = self.now();
        self.inner
            .lock()
            .expect("span log lock")
            .execute
            .push((start, end));
    }

    fn app(&self, start: f64) {
        let end = self.now();
        self.inner
            .lock()
            .expect("span log lock")
            .app
            .push((start, end));
    }
}

/// The layer times of one re-driven job, in host seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobTimes {
    /// `Cluster::run` entry to the first rank-closure entry.
    pub spawn_s: f64,
    /// Last rank-closure exit to the return of `Cluster::run`.
    pub join_s: f64,
    /// Wall time during which at least one rank was inside the application body.
    pub app_s: f64,
    /// Wall time during which some rank was inside `FtDriver::execute` and no rank
    /// was inside the application body.
    pub recovery_s: f64,
    /// The whole `Cluster::run` call.
    pub run_s: f64,
}

/// What one re-drive produced: the program-visible result to compare against the
/// program's own, plus the layer times and data-plane counters.
#[derive(Debug, Clone)]
pub struct Redriven {
    /// Virtual completion time of the job (the slowest rank).
    pub total_time: SimTime,
    /// Counters summed over ranks.
    pub stats: RankStats,
    /// Whether every rank finished without an unrecovered error.
    pub all_ok: bool,
    /// Layer times.
    pub times: JobTimes,
    /// `ProxySpec::build` time (zero for jobs without a proxy application).
    pub build_s: f64,
    /// Bytes the job's FTI checkpoint store received (`CheckpointStore::bytes_written`).
    pub store_bytes: u64,
}

/// Runs `body` once per rank on `config` and records the job's boundaries.
fn traced_run<R, F>(config: ClusterConfig, body: F) -> (RunOutcome<R>, JobTimes)
where
    R: Send,
    F: Fn(&mut RankCtx, &SpanLog) -> Result<R, MpiError> + Send + Sync,
{
    let log = SpanLog::new();
    let cluster = Cluster::new(config);
    let entered = log.now();
    let outcome = cluster.run(|ctx| {
        log.rank_entered();
        let result = body(ctx, &log);
        log.rank_exited();
        result
    });
    let returned = log.now();
    let spans = log.inner.into_inner().expect("span log lock");
    let times = JobTimes {
        spawn_s: spans.first_entry.map_or(0.0, |t| t - entered),
        join_s: spans.last_exit.map_or(0.0, |t| returned - t),
        app_s: union_len(&spans.app),
        recovery_s: difference_len(&spans.execute, &spans.app),
        run_s: returned - entered,
    };
    (outcome, times)
}

/// The fault-tolerance configuration `runner::run_single` builds for repetition 0
/// of `experiment` (same failure-plan seed, checkpoint interval and level
/// provisioning). Figure cells run one repetition, whose seed is the cell's.
fn cell_config(experiment: &Experiment, iterations: u64) -> FtConfig {
    let rep_seed = experiment.seed;
    let interval = 10u64.min((iterations / 2).max(1));
    let (fault, fti_config): (FailureTrace, FtiConfig) = match experiment.scenario {
        FailureScenario::None => (FailureTrace::none(), FtiConfig::default()),
        FailureScenario::SingleRandom => (
            FaultPlan::random(rep_seed, iterations.max(2)).into(),
            FtiConfig::default(),
        ),
        FailureScenario::Mtbf {
            node_mtbf_iterations,
            node_crash_pct,
            rack_neighbor_pct,
            recovery_window_pct,
        } => {
            let model = ArrivalModel::exponential(
                rep_seed,
                node_mtbf_iterations.max(1) as f64,
                iterations.max(2),
            )
            .correlated(node_crash_pct, rack_neighbor_pct)
            .recovery_window(recovery_window_pct);
            let fti = if node_crash_pct > 0 && rack_neighbor_pct > 0 {
                let anchor = interval * 4u64.min((iterations / interval).max(1));
                FtiConfig::level(CheckpointLevel::L3).l4_every(anchor)
            } else if node_crash_pct > 0 {
                FtiConfig::level(CheckpointLevel::L2)
            } else {
                FtiConfig::default()
            };
            (model.into(), fti)
        }
    };
    FtConfig::new(experiment.strategy, fti_config.interval(interval)).with_fault(fault)
}

/// Re-drives a figure cell the way `runner::run_single(experiment, 0)` runs it.
pub fn cell(experiment: &Experiment) -> Redriven {
    let built = Instant::now();
    let app = ProxySpec::new(experiment.app, experiment.input, experiment.scale).build();
    let build_s = built.elapsed().as_secs_f64();
    let ft_config = cell_config(experiment, app.iterations());
    let store = CheckpointStore::shared();
    let (outcome, times) = traced_run(experiment_cluster(experiment.nprocs), |ctx, log| {
        let driver = FtDriver::new(ft_config.clone(), Arc::clone(&store));
        let start = log.now();
        let result = driver.execute(ctx, |ctx, fti, injector| {
            let entered = log.now();
            let result = app.run(ctx, fti, injector);
            log.app(entered);
            result
        });
        log.execute(start);
        result
    });
    Redriven {
        total_time: outcome.max_time(),
        stats: outcome.total_stats(),
        all_ok: outcome.all_ok(),
        times,
        build_s,
        store_bytes: store.bytes_written(),
    }
}

/// Re-drives one explicit failure trace the way `match_core::run_trace` runs it
/// (its synthetic all-reduce workload stands in for the application body).
pub fn trace(spec: &TraceRunSpec) -> Redriven {
    let iterations = spec.iterations.max(1);
    let ft_config = FtConfig::new(spec.strategy, spec.fti.clone()).with_fault(spec.trace.clone());
    let store = CheckpointStore::shared();
    let (outcome, times) = traced_run(experiment_cluster(spec.nprocs), |ctx, log| {
        let driver = FtDriver::new(ft_config.clone(), Arc::clone(&store));
        let start = log.now();
        let result = driver.execute(ctx, |ctx, fti, injector| {
            let entered = log.now();
            let result = (|| {
                let world = ctx.world();
                let mut acc = 0.0f64;
                let mut first = 1u64;
                fti.protect(0, "acc", &acc);
                if fti.status().is_restart() {
                    let at = fti.recover_object(ctx, 0, &mut acc)?;
                    first = at + 1;
                }
                for iteration in first..=iterations {
                    injector.maybe_fail(ctx, iteration)?;
                    ctx.compute(5e4);
                    acc += ctx.allreduce_sum_f64(&world, (ctx.rank() + 1) as f64)?;
                    if fti.should_checkpoint(iteration) {
                        fti.checkpoint(ctx, iteration, &[(0, &acc as &dyn Protectable)])?;
                    }
                }
                fti.finalize(ctx)?;
                Ok(acc)
            })();
            log.app(entered);
            result
        });
        log.execute(start);
        result
    });
    Redriven {
        total_time: outcome.max_time(),
        stats: outcome.total_stats(),
        all_ok: outcome.all_ok(),
        times,
        build_s: 0.0,
        store_bytes: store.bytes_written(),
    }
}

/// Iterations of the scale kernel per job.
pub const SCALE_ITERS: u64 = 5;

/// Per-rank stack of the scale kernel, in bytes (the `match-bench scale` default).
pub const SCALE_STACK: usize = 256 * 1024;

/// The result of one scale-kernel job.
#[derive(Debug, Clone)]
pub struct ScaleJob {
    /// Virtual completion time.
    pub total_time: SimTime,
    /// Counters summed over ranks.
    pub stats: RankStats,
    /// Ranks whose final value differs from the closed form (or that failed).
    pub wrong_ranks: usize,
    /// Boundaries of the job (all fields but `run_s` are zero when untraced).
    pub times: JobTimes,
}

/// The `match-bench scale` kernel — `SCALE_ITERS` rounds of compute, a ring halo
/// exchange and a world all-reduce — at `nranks` ranks. The halo carries
/// `rank + salt`, so every rank must end with `iters * (prev + salt + nranks)`,
/// exactly. With `traced`, rank entry and exit are timestamped.
pub fn scale_job(
    backend: SchedBackend,
    workers: usize,
    nranks: usize,
    salt: f64,
    traced: bool,
) -> ScaleJob {
    let config = ClusterConfig::with_ranks(nranks)
        .backend(backend)
        .workers(workers)
        .stack_size(SCALE_STACK);
    let kernel = |ctx: &mut RankCtx| {
        let world = ctx.world();
        let n = world.size();
        let next = (world.rank() + 1) % n;
        let prev = (world.rank() + n - 1) % n;
        let halo = vec![ctx.rank() as f64 + salt; 8];
        let mut acc = 0.0f64;
        for _ in 0..SCALE_ITERS {
            ctx.compute(1e4);
            let got = ctx.sendrecv_f64(&world, next, &halo, prev, 11)?;
            acc += got[0];
            acc += ctx.allreduce_sum_f64(&world, 1.0)?;
        }
        Ok(acc)
    };
    let (outcome, times) = if traced {
        traced_run(config, |ctx, _| kernel(ctx))
    } else {
        let cluster = Cluster::new(config);
        let start = Instant::now();
        let outcome = cluster.run(kernel);
        let run_s = start.elapsed().as_secs_f64();
        (
            outcome,
            JobTimes {
                run_s,
                ..JobTimes::default()
            },
        )
    };
    let wrong_ranks = outcome
        .ranks()
        .iter()
        .filter(|r| {
            let prev = ((r.rank + nranks - 1) % nranks) as f64;
            let expected = SCALE_ITERS as f64 * (prev + salt + nranks as f64);
            r.result.as_ref().ok() != Some(&expected)
        })
        .count();
    ScaleJob {
        total_time: outcome.max_time(),
        stats: outcome.total_stats(),
        wrong_ranks,
        times,
    }
}
