//! The cooperative backend: all ranks of a job as fibers over a virtual-time run
//! queue in one OS thread.
//!
//! # How it works
//!
//! Every rank's program runs on its own [`fiber`](super::fiber) stack. The scheduler
//! loop owns the OS thread: it pops the runnable rank with the **lowest virtual
//! clock** (ties broken by rank id, so the order — and with it memory behaviour like
//! mailbox depth — is fully deterministic) and context-switches into its fiber. The
//! fiber runs until its rank either finishes or blocks in a simulated operation; a
//! blocked operation *parks* the fiber on a [`WaitKey`] channel and switches straight
//! back to the scheduler.
//!
//! Wakeups are precise and event-driven:
//!
//! * a send wakes the destination's mailbox channel,
//! * a completed (or newly drained) collective round wakes the slot's channel,
//! * survivor-rendezvous progress wakes the rendezvous channel,
//! * failure publication, recovery parking, revocation and abort wake **all** parked
//!   tasks (via the [`JobWaker`] hook on the cluster state), so every blocked
//!   operation re-evaluates its deterministic abort predicate.
//!
//! Because everything runs on one thread, the check-then-park sequence is atomic by
//! construction: no condition can change between a task observing "not ready" and its
//! fiber being parked, so there are no lost wakeups, no timeouts and no polling.
//!
//! If the run queue empties while unfinished tasks remain parked (an application
//! deadlock — e.g. a receive nothing will ever send to), the scheduler panics with a
//! per-rank diagnosis instead of hanging.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ctx::RankCtx;
use crate::error::MpiError;
use crate::runtime::{ClusterConfig, RankOutcome};
use crate::state::ClusterState;
use crate::time::SimTime;

use super::{JobWaker, RankScheduler, WaitKey, Yielder};

/// Status of one cooperatively scheduled rank task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the run queue (or about to be popped from it).
    Runnable,
    /// Currently executing on the job thread.
    Running,
    /// Suspended on a wait channel.
    Parked(WaitKey),
    /// Finished (outcome or panic recorded).
    Done,
}

/// Run-queue and wait-channel bookkeeping (behind one mutex; uncontended — only the
/// job's OS thread ever takes it, but the type must be `Sync` because the cluster
/// state holds a handle).
struct Queues {
    /// Min-heap of runnable ranks ordered by `(virtual clock bits, rank)`.
    runnable: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Parked ranks per wait channel.
    waiting: HashMap<usize, Vec<usize>>,
    status: Vec<Status>,
    /// Last observed virtual clock per rank (IEEE-754 bits of seconds; non-negative
    /// floats order identically to their bit patterns).
    clock: Vec<u64>,
    finished: usize,
}

/// Shared state of one cooperative job: the queues plus the raw context slots used
/// for fiber switching (slot 0 is the scheduler, slot `1 + rank` is the rank's
/// fiber).
pub(crate) struct CoopShared {
    inner: Mutex<Queues>,
    ctxs: Vec<std::cell::UnsafeCell<usize>>,
}

// SAFETY: the UnsafeCell context slots are only ever read or written by the single OS
// thread that runs the job (scheduler loop and all of its fibers); the handle stored
// in ClusterState is only used for `wake_all_parked`, which touches the mutex-guarded
// queues, never the context slots.
unsafe impl Send for CoopShared {}
// SAFETY: same single-thread discipline as the Send impl above — shared references
// only ever dereference the context slots from the job's one OS thread.
unsafe impl Sync for CoopShared {}

impl CoopShared {
    fn new(nprocs: usize) -> CoopShared {
        let mut runnable = BinaryHeap::with_capacity(nprocs);
        for rank in 0..nprocs {
            runnable.push(std::cmp::Reverse((0, rank)));
        }
        CoopShared {
            inner: Mutex::new(Queues {
                runnable,
                waiting: HashMap::new(),
                status: vec![Status::Runnable; nprocs],
                clock: vec![0; nprocs],
                finished: 0,
            }),
            ctxs: (0..nprocs + 1)
                .map(|_| std::cell::UnsafeCell::new(0))
                .collect(),
        }
    }

    fn sched_ctx(&self) -> *mut usize {
        self.ctxs[0].get()
    }

    fn task_ctx(&self, rank: usize) -> *mut usize {
        self.ctxs[rank + 1].get()
    }

    /// Parks the calling rank's fiber on `key` and switches to the scheduler. Returns
    /// when the rank is next resumed.
    fn park(&self, rank: usize, key: WaitKey, now: SimTime) {
        {
            let mut q = self.inner.lock();
            debug_assert_eq!(q.status[rank], Status::Running);
            q.status[rank] = Status::Parked(key);
            q.clock[rank] = now.as_secs().to_bits();
            q.waiting.entry(key.0).or_default().push(rank);
        }
        // SAFETY: single-thread switch discipline (see CoopShared's Sync rationale);
        // the scheduler context was saved when this fiber was resumed.
        unsafe {
            super::fiber::switch_context(self.task_ctx(rank), *self.sched_ctx());
        }
    }

    /// Makes every rank parked on `key` runnable.
    fn wake(&self, key: WaitKey) {
        let mut q = self.inner.lock();
        if let Some(ranks) = q.waiting.remove(&key.0) {
            for rank in ranks {
                debug_assert_eq!(q.status[rank], Status::Parked(key));
                q.status[rank] = Status::Runnable;
                let clock = q.clock[rank];
                q.runnable.push(std::cmp::Reverse((clock, rank)));
            }
        }
    }

    /// Marks the calling rank done and leaves its fiber for good.
    fn finish(&self, rank: usize) -> ! {
        {
            let mut q = self.inner.lock();
            q.status[rank] = Status::Done;
            q.finished += 1;
        }
        loop {
            // SAFETY: as in `park`; the scheduler never resumes a Done task, so the
            // loop body runs exactly once.
            unsafe {
                super::fiber::switch_context(self.task_ctx(rank), *self.sched_ctx());
            }
        }
    }
}

impl JobWaker for CoopShared {
    fn wake_all_parked(&self) {
        let mut q = self.inner.lock();
        let waiting = std::mem::take(&mut q.waiting);
        for ranks in waiting.into_values() {
            for rank in ranks {
                q.status[rank] = Status::Runnable;
                let clock = q.clock[rank];
                q.runnable.push(std::cmp::Reverse((clock, rank)));
            }
        }
    }
}

/// The per-rank handle blocked operations use to park and to wake their peers. Held
/// by [`RankCtx`] when (and only when) the rank runs on the cooperative backend.
#[derive(Clone)]
pub(crate) struct CoopYielder {
    shared: Arc<CoopShared>,
    rank: usize,
}

impl std::fmt::Debug for CoopYielder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoopYielder")
            .field("rank", &self.rank)
            .finish()
    }
}

impl CoopYielder {
    /// Parks the calling rank on `key`; returns when a wakeup resumes it. `now` is
    /// the rank's virtual clock, which orders it in the run queue on wakeup.
    pub(crate) fn park(&self, key: WaitKey, now: SimTime) {
        self.shared.park(self.rank, key, now);
    }

    /// Wakes every rank parked on `key`.
    pub(crate) fn wake(&self, key: WaitKey) {
        self.shared.wake(key);
    }
}

/// The cooperative scheduler backend (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoopScheduler;

/// Everything one fiber needs, at a stable address for the fiber's whole lifetime.
struct RankJob<R, F> {
    rank: usize,
    state: Arc<ClusterState>,
    shared: Arc<CoopShared>,
    body: *const F,
    out: *mut Option<RankOutcome<R>>,
    panic_slot: *mut Option<Box<dyn std::any::Any + Send>>,
}

extern "C" fn fiber_main<R, F>(arg: *mut ()) -> !
where
    R: Send,
    F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
{
    // SAFETY: `arg` is the address of this fiber's RankJob, alive until the job ends.
    let job = unsafe { &*(arg as *const RankJob<R, F>) };
    let rank = job.rank;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let yielder = CoopYielder {
            shared: Arc::clone(&job.shared),
            rank,
        };
        let mut ctx = RankCtx::new(rank, Arc::clone(&job.state), Yielder::Coop(yielder));
        // SAFETY: `body` outlives the scheduler loop (it is a reference held by the
        // caller of run_job); fibers never outlive that call.
        let result = unsafe { (*job.body)(&mut ctx) };
        RankOutcome {
            rank,
            result,
            finish_time: ctx.now(),
            breakdown: *ctx.breakdown(),
            stats: *ctx.stats(),
        }
    }));
    match outcome {
        // SAFETY: `out` points into a vector owned by run_job, which only reads
        // it after this fiber is Done; slot `rank` is written by this fiber alone.
        Ok(o) => unsafe { *job.out = Some(o) },
        // SAFETY: as for `out` — `panic_slot` is this rank's private slot in a
        // vector that outlives every fiber of the job.
        Err(p) => unsafe { *job.panic_slot = Some(p) },
    }
    job.shared.finish(rank)
}

impl RankScheduler for CoopScheduler {
    fn run_job<R, F>(
        &self,
        config: &ClusterConfig,
        state: Arc<ClusterState>,
        body: &F,
    ) -> Vec<RankOutcome<R>>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> Result<R, MpiError> + Sync,
    {
        use super::fiber::{switch_context, Fiber};

        let nprocs = state.nprocs;
        let shared = Arc::new(CoopShared::new(nprocs));
        state.set_job_waker(Arc::clone(&shared) as Arc<dyn JobWaker>);

        let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..nprocs).map(|_| None).collect();
        let mut panics: Vec<Option<Box<dyn std::any::Any + Send>>> =
            (0..nprocs).map(|_| None).collect();

        let jobs: Vec<RankJob<R, F>> = (0..nprocs)
            .map(|rank| RankJob {
                rank,
                state: Arc::clone(&state),
                shared: Arc::clone(&shared),
                body: body as *const F,
                // SAFETY: in-bounds (`rank < nprocs`, the vector's length); the vector
                // is never resized while fibers live.
                out: unsafe { outcomes.as_mut_ptr().add(rank) },
                // SAFETY: same in-bounds offset into the equally sized panics vector.
                panic_slot: unsafe { panics.as_mut_ptr().add(rank) },
            })
            .collect();

        let mut fibers: Vec<Fiber> = jobs
            .iter()
            .map(|job| {
                Fiber::new(
                    config.stack_size,
                    fiber_main::<R, F>,
                    job as *const RankJob<R, F> as *mut (),
                )
            })
            .collect();
        for (rank, fiber) in fibers.iter_mut().enumerate() {
            // SAFETY: installing each fiber's initial context into its switch slot;
            // nothing runs yet.
            unsafe { *shared.task_ctx(rank) = *fiber.context_slot() };
        }

        // The scheduler loop: always resume the runnable rank with the lowest virtual
        // clock. Each switch returns here when that rank parks or finishes.
        loop {
            let next = {
                let mut q = shared.inner.lock();
                match q.runnable.pop() {
                    Some(std::cmp::Reverse((_, rank))) => {
                        q.status[rank] = Status::Running;
                        Some(rank)
                    }
                    None => None,
                }
            };
            match next {
                Some(rank) => {
                    // SAFETY: `rank` is suspended (fresh or parked-then-woken) and its
                    // stack is alive; we run on the job's only thread.
                    unsafe { switch_context(shared.sched_ctx(), *shared.task_ctx(rank)) };
                }
                None => {
                    let q = shared.inner.lock();
                    if q.finished == nprocs {
                        break;
                    }
                    let any_panic = panics.iter().any(Option::is_some);
                    if any_panic {
                        // A rank died by panic; its peers may be parked on it forever.
                        // Abandon the job and propagate the panic below.
                        break;
                    }
                    let stuck: Vec<String> = q
                        .status
                        .iter()
                        .enumerate()
                        .filter_map(|(r, s)| match s {
                            Status::Parked(key) => Some(format!("rank {r} on {key:?}")),
                            _ => None,
                        })
                        .collect();
                    drop(q);
                    state.clear_job_waker();
                    panic!(
                        "cooperative scheduler deadlock: no runnable rank and {} unfinished \
                         task(s) parked [{}] — a cooperative rank program must only block \
                         through simulated operations",
                        stuck.len(),
                        stuck.join(", ")
                    );
                }
            }
        }

        state.clear_job_waker();
        if let Some(p) = panics.iter_mut().find_map(Option::take) {
            // Mirror `JoinHandle::join`'s panic propagation. Unfinished fibers are
            // abandoned: their stacks are unmapped without unwinding, which can leak
            // heap objects held by suspended frames — acceptable for a dying job.
            drop(fibers);
            std::panic::resume_unwind(p);
        }
        drop(fibers);
        outcomes
            .into_iter()
            .map(|o| o.expect("missing rank outcome"))
            .collect()
    }
}
