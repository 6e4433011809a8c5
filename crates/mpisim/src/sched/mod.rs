//! Scheduler backends: how simulated ranks are mapped onto host execution.
//!
//! A simulated job is `nprocs` rank programs that block on each other through
//! simulated MPI operations. *How* those programs are interleaved on the host is a
//! backend decision with no observable effect on results: since every run is a pure
//! function of virtual time (failure detection, message deliver-vs-abort decisions and
//! collective completion are all resolved by virtual-time rules, never by host
//! timing), any schedule that respects the blocking semantics produces bit-identical
//! [`RunOutcome`](crate::RunOutcome)s. That property is the contract of the
//! [`RankScheduler`] trait, and the backend-equivalence test suite enforces it.
//!
//! Every rank runs as a stackful [`fiber`] and blocks by *parking* that fiber on a
//! wait channel until the event it needs (message arrival, round completion, failure
//! publication) wakes it. Two backends implement the trait:
//!
//! * [`CoopScheduler`] (**`coop`**, the default) — all ranks of a job multiplexed
//!   over **one** OS thread, driven by a virtual-time run queue: the scheduler always
//!   resumes the runnable rank with the lowest virtual clock. No per-rank host thread
//!   exists, which lifts the practical rank ceiling to tens of thousands.
//! * [`ParScheduler`] (**`par`**) — the multi-core variant of `coop`: the virtual-time
//!   run queue is sharded over `MATCH_WORKERS` worker threads with deterministic
//!   contiguous rank-block ownership, each worker driving its own `(clock, rank)`
//!   min-heap of pinned fibers, with token-validated park/wake channels at every
//!   communication edge and published per-worker virtual-time watermarks.
//!
//! The backend is selected per job through
//! [`ClusterConfig::backend`](crate::ClusterConfig) (defaulting to the
//! `MATCH_BACKEND` environment variable, then to `coop`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

pub(crate) mod coop;
pub(crate) mod fiber;
pub(crate) mod par;

pub use coop::CoopScheduler;
pub use par::ParScheduler;

/// Environment variable selecting the default scheduler backend (`coop` or `par`).
pub const BACKEND_ENV_VAR: &str = "MATCH_BACKEND";

/// Environment variable selecting the default worker-thread count of the `par`
/// backend. Explicit [`ClusterConfig::workers`](crate::ClusterConfig) settings win
/// over it; when neither is set, the process-wide default published by the suite
/// engine's core-budget arithmetic (see [`set_default_par_workers`]) applies, and
/// failing that the host's available parallelism.
pub const WORKERS_ENV_VAR: &str = "MATCH_WORKERS";

/// Environment variable bounding how far a `par` worker may run ahead of the slowest
/// worker's published virtual-time watermark, in simulated seconds. Unset (the
/// default) disables the pacing gate entirely — it is never needed for correctness,
/// only to bound memory skew on pathological workloads (see the `par` module docs).
pub const HORIZON_ENV_VAR: &str = "MATCH_HORIZON";

/// Process-wide default `par` worker count published by the suite engine (0 = unset).
static DEFAULT_PAR_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Publishes a process-wide default worker count for `par` jobs whose configuration
/// does not pin one explicitly. The suite engine calls this with its core-budget
/// arithmetic (`MATCH_CORES / MATCH_JOBS`) so that concurrently running experiments
/// do not oversubscribe the host; the `MATCH_WORKERS` environment variable still
/// overrides it when the user pins a count by hand.
pub fn set_default_par_workers(workers: usize) {
    DEFAULT_PAR_WORKERS.store(workers, Ordering::Relaxed);
}

/// Resolves the worker count of a `par` job: an explicit per-job setting, then the
/// `MATCH_WORKERS` environment variable, then the engine-published process default,
/// then the host's available parallelism.
pub(crate) fn resolve_workers(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if let Ok(s) = std::env::var(WORKERS_ENV_VAR) {
        match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => eprintln!(
                "warning: {WORKERS_ENV_VAR}='{s}' is not a positive worker count; ignoring"
            ),
        }
    }
    let engine_default = DEFAULT_PAR_WORKERS.load(Ordering::Relaxed);
    if engine_default > 0 {
        return engine_default;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which scheduler backend a job runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedBackend {
    /// All ranks as cooperative fibers over a virtual-time run queue in one OS thread
    /// (the default).
    #[default]
    Coop,
    /// The virtual-time run queue sharded over `MATCH_WORKERS` worker threads, each
    /// owning a contiguous rank block of pinned fibers.
    Par,
}

impl SchedBackend {
    /// Every backend, in the order benches sweep them.
    pub const ALL: [SchedBackend; 2] = [SchedBackend::Coop, SchedBackend::Par];

    /// Reads the backend from the `MATCH_BACKEND` environment variable, defaulting to
    /// [`SchedBackend::Coop`]. Unrecognized values fall back to the default (with a
    /// warning on stderr) rather than aborting a long bench run.
    pub fn from_env() -> SchedBackend {
        match std::env::var(BACKEND_ENV_VAR) {
            Err(_) => SchedBackend::Coop,
            Ok(s) => s.parse().unwrap_or_else(|_| {
                eprintln!(
                    "warning: {BACKEND_ENV_VAR}='{s}' is not a backend (coop|par); using coop"
                );
                SchedBackend::Coop
            }),
        }
    }

    /// The backend's canonical name (`"coop"` / `"par"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedBackend::Coop => "coop",
            SchedBackend::Par => "par",
        }
    }
}

impl std::str::FromStr for SchedBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "coop" | "fiber" | "fibers" => Ok(SchedBackend::Coop),
            "par" | "parallel" => Ok(SchedBackend::Par),
            other => Err(format!("unknown scheduler backend '{other}'")),
        }
    }
}

impl std::fmt::Display for SchedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scheduler backend: executes one simulated job over a shared
/// [`ClusterState`] and returns every rank's outcome, ordered by rank.
///
/// # Contract
///
/// Implementations must deliver **bit-identical** outcomes for the same
/// `(state, body)` pair, with and without injected failures. This is achievable
/// because the simulator resolves every scheduling-sensitive decision in virtual
/// time; a backend's job is purely to find *an* execution order consistent with the
/// blocking semantics:
///
/// * a rank blocked in a receive may only proceed when a matching message is queued
///   or the deterministic abort rule fires;
/// * a rank blocked in a collective may only proceed when the round has completed or
///   the abort rule fires;
/// * a rank parked at the recovery rendezvous proceeds when all ranks have arrived.
///
/// Backends must also propagate rank panics to the caller (after all other ranks have
/// finished or been abandoned), mirroring `std::thread::JoinHandle::join`.
pub trait RankScheduler {
    /// Runs one job: executes `body` once per rank over `state` and collects the
    /// per-rank outcomes ordered by rank.
    fn run_job<R, F>(
        &self,
        config: &ClusterConfig,
        state: Arc<ClusterState>,
        body: &F,
    ) -> Vec<RankOutcome<R>>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync;
}

/// Identifies what a cooperatively scheduled rank is parked on: a wait channel.
///
/// Keys are plain integers carved out of disjoint ranges so they can never collide:
/// per-rank mailbox keys are odd, the failure-event channel is the constant `2`, and
/// object channels (collective slots, survivor-rendezvous state) use the object's
/// address, which is 8-aligned and far above small constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WaitKey(pub(crate) usize);

impl WaitKey {
    /// The cluster-wide failure-event channel ([`RankCtx::wait_for_failure_events`]
    /// parks here; every failure publication wakes it).
    pub(crate) const FAILURE_EVENTS: WaitKey = WaitKey(2);

    /// The channel of `rank`'s mailbox (receives park here; sends to `rank` wake it).
    pub(crate) fn mailbox(rank: usize) -> WaitKey {
        WaitKey((rank << 2) | 1)
    }

    /// A channel identified by a shared object's address (the object must stay alive
    /// while any task is parked on it, which the simulator's `Arc`s guarantee).
    pub(crate) fn object<T>(obj: &T) -> WaitKey {
        WaitKey(obj as *const T as usize)
    }
}

/// Hook through which [`ClusterState`](crate::state::ClusterState) reaches the
/// scheduler of the job it belongs to: cluster-wide condition changes (failure
/// publication, recovery parking, revocation, abort) must wake every parked task so
/// it re-evaluates its abort/quiescence predicates.
pub(crate) trait JobWaker: Send + Sync {
    /// Makes every parked task runnable again.
    fn wake_all_parked(&self);
}

/// A snapshot of a wait channel's state, read **before** the caller checks its wait
/// condition and consumed by the park that follows a failed check.
///
/// On the single-threaded `coop` backend the check-then-park sequence is atomic by
/// construction and the token carries no information. On the multi-worker `par`
/// backend it is an eventcount: the park validates — under the channel's registry
/// lock — that neither the channel's sequence number nor the cluster-wide wake epoch
/// has moved since the token was read, and returns *without suspending* if either
/// did. A wake that raced between the condition check and the park therefore can
/// never be lost; the caller's retry loop simply re-checks its condition.
#[derive(Debug, Clone, Copy)]
pub struct WaitToken {
    pub(crate) key: WaitKey,
    pub(crate) epoch: u64,
    pub(crate) seq: u64,
}

impl WaitToken {
    /// A token that always validates (the `coop` backend, where validation is
    /// unnecessary: its check-then-park runs atomically on one OS thread).
    pub(crate) fn immediate(key: WaitKey) -> WaitToken {
        WaitToken {
            key,
            epoch: 0,
            seq: 0,
        }
    }
}

/// The per-rank park/wake handle of the backend the rank runs on, held by its
/// [`RankCtx`].
#[derive(Debug, Clone)]
pub(crate) enum Yielder {
    /// Single-threaded cooperative scheduling: parks are unconditional (the
    /// check-then-park sequence is atomic on one OS thread).
    Coop(coop::CoopYielder),
    /// Sharded multi-worker scheduling: parks are token-validated (see [`WaitToken`]).
    Par(par::ParYielder),
}

impl Yielder {
    /// Reads a wait token for `key`; must be called before the caller checks the
    /// condition it would park on.
    pub(crate) fn wait_token(&self, key: WaitKey) -> WaitToken {
        match self {
            Yielder::Coop(_) => WaitToken::immediate(key),
            Yielder::Par(y) => y.wait_token(key),
        }
    }

    /// Parks the calling rank on the token's channel; returns when a wakeup resumes
    /// it, or immediately if the token no longer validates. `now` is the rank's
    /// virtual clock, which orders it in the run queue on wakeup.
    pub(crate) fn park(&self, token: WaitToken, now: SimTime) {
        match self {
            Yielder::Coop(y) => y.park(token.key, now),
            Yielder::Par(y) => y.park(token, now),
        }
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        match self {
            Yielder::Coop(y) => y.wake(key),
            Yielder::Par(y) => y.wake(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_prints() {
        assert!("threads".parse::<SchedBackend>().is_err());
        assert_eq!("Coop".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("fibers".parse::<SchedBackend>(), Ok(SchedBackend::Coop));
        assert_eq!("par".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert_eq!("parallel".parse::<SchedBackend>(), Ok(SchedBackend::Par));
        assert!("green-threads".parse::<SchedBackend>().is_err());
        assert_eq!(SchedBackend::Coop.to_string(), "coop");
        assert_eq!(SchedBackend::Par.to_string(), "par");
        assert_eq!(SchedBackend::default(), SchedBackend::Coop);
        assert_eq!(SchedBackend::ALL.len(), 2);
    }

    #[test]
    fn wait_keys_never_collide() {
        let slot = 0u64;
        let addr = WaitKey::object(&slot);
        for rank in 0..64 {
            let mb = WaitKey::mailbox(rank);
            assert_eq!(mb.0 & 1, 1, "mailbox keys are odd");
            assert_ne!(mb, WaitKey::FAILURE_EVENTS);
            assert_ne!(mb, addr);
        }
        assert_ne!(addr, WaitKey::FAILURE_EVENTS);
    }
}
