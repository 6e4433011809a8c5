//! Cluster-wide shared state.
//!
//! One [`ClusterState`] is shared (via `Arc`) by every rank of a simulated job.
//! It owns the machine model, the topology, the per-rank mailboxes, the liveness table,
//! the world communicator, the registry of derived communicators (so they can be reset
//! during repair) and the global rendezvous used by recovery.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::collective::CollSlot;
use crate::comm::CommShared;
use crate::error::MpiError;
use crate::machine::MachineModel;
use crate::mailbox::Mailbox;
use crate::time::SimTime;
use crate::topology::Topology;

/// Liveness of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// The process is alive and participating.
    Alive,
    /// The process has suffered a fail-stop failure and has not yet been replaced.
    Failed,
    /// The process failed and was permanently removed from the job by a shrinking
    /// recovery: it is never revived, owns no communicator membership anymore, and
    /// the job completes without it.
    Retired,
}

/// Cluster-wide shared state for one simulated job.
pub struct ClusterState {
    /// The machine model advancing virtual time.
    pub machine: MachineModel,
    /// Mapping of ranks onto nodes.
    pub topology: Topology,
    /// Number of processes in the job.
    pub nprocs: usize,
    /// Per-rank incoming message queues, indexed by global rank.
    pub mailboxes: Vec<Mailbox>,
    /// Per-rank liveness, indexed by global rank.
    liveness: Vec<Mutex<ProcState>>,
    /// Number of currently failed processes (fast path for health checks). Retired
    /// ranks are *not* counted: once a shrinking recovery removes them from the job
    /// they no longer disturb the survivors' health checks.
    nfailed: AtomicUsize,
    /// Number of ranks permanently retired by shrinking recoveries.
    nretired: AtomicUsize,
    /// Monotonically increasing count of failure events (used by tests and detectors).
    failure_events: AtomicU64,
    /// Per-rank value of `failure_events` at the instant the rank was last marked
    /// failed (0 while never killed). Failure events fire in a globally serialized
    /// order (the injector's detection barrier admits event *i+1* only after event
    /// *i* has fired), so this is a deterministic observable — unlike a live read of
    /// the counter by a casualty, which races with later events of the same
    /// iteration. Cleared on revival.
    death_events: Vec<AtomicU64>,
    /// Virtual-time stamp (IEEE-754 bits of seconds) of the *earliest* failure of the
    /// current disruption epoch, or [`u64::MAX`] when no failure is outstanding. This
    /// is what makes failure detection deterministic: a rank observes the failure only
    /// once its own virtual clock has reached this instant, and a rank aborted out of a
    /// blocked operation has its clock advanced to it — so detection latency is a pure
    /// function of the machine model, the failure event and the blocked operation, not
    /// of host thread scheduling.
    fail_time_bits: AtomicU64,
    /// Ranks that have aborted their current attempt and are waiting at the recovery
    /// rendezvous. A parked rank sends nothing more until the job is repaired, which
    /// lets blocked receivers decide deterministically that no matching message can
    /// arrive anymore.
    parked: Vec<AtomicBool>,
    /// Set when a global-restart recovery is in progress: every MPI operation on every
    /// communicator reports a process failure until the job is repaired. Recovery
    /// drivers set this so that ranks blocked in communicators that do not contain the
    /// failed process are also rolled back (global, backward, non-shrinking recovery).
    global_disruption: AtomicBool,
    /// Abort code if `MPI_Abort` was called.
    abort: Mutex<Option<i32>>,
    /// The world communicator shared object.
    pub world: Arc<CommShared>,
    /// Source of unique communicator identifiers.
    next_comm_id: AtomicU64,
    /// Registry of all live communicators (world and derived) so repair can reset them.
    comms: Mutex<Vec<Weak<CommShared>>>,
    /// Nodes whose local storage was destroyed by a crash in the current epoch. The
    /// recovery drivers drain this inside the repair rendezvous (while every rank is
    /// parked), so storage erasure never races in-flight checkpoint writes.
    pending_node_failures: Mutex<Vec<usize>>,
    /// Rendezvous over *all* ranks used by global-restart recovery and job completion.
    pub recovery_slot: CollSlot,
    /// Wake-up hook into the scheduler of the job this state belongs to (`None`
    /// outside a job). Cluster-wide condition changes must wake every parked task.
    job_waker: Mutex<Option<Arc<dyn crate::sched::JobWaker>>>,
    /// A small shared blackboard for tests and out-of-band coordination.
    pub blackboard: Mutex<std::collections::HashMap<String, Vec<u8>>>,
}

impl std::fmt::Debug for ClusterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterState")
            .field("nprocs", &self.nprocs)
            .field("nfailed", &self.nfailed.load(Ordering::SeqCst))
            .field("aborted", &self.abort.lock().is_some())
            .finish()
    }
}

impl ClusterState {
    /// Creates the shared state for a job of `nprocs` ranks.
    pub fn new(nprocs: usize, topology: Topology, machine: MachineModel) -> Arc<Self> {
        assert!(nprocs > 0, "a job needs at least one process");
        assert_eq!(topology.nranks(), nprocs, "topology size must match nprocs");
        let world = CommShared::new(0, (0..nprocs).collect());

        Arc::new(ClusterState {
            machine,
            topology,
            nprocs,
            mailboxes: (0..nprocs).map(|_| Mailbox::new()).collect(),
            liveness: (0..nprocs).map(|_| Mutex::new(ProcState::Alive)).collect(),
            nfailed: AtomicUsize::new(0),
            nretired: AtomicUsize::new(0),
            failure_events: AtomicU64::new(0),
            death_events: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            fail_time_bits: AtomicU64::new(u64::MAX),
            parked: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            global_disruption: AtomicBool::new(false),
            abort: Mutex::new(None),
            world: Arc::clone(&world),
            next_comm_id: AtomicU64::new(1),
            comms: Mutex::new(vec![Arc::downgrade(&world)]),
            pending_node_failures: Mutex::new(Vec::new()),
            recovery_slot: CollSlot::new(nprocs),
            job_waker: Mutex::new(None),
            blackboard: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// Allocates a fresh communicator identifier.
    pub fn next_comm_id(&self) -> u64 {
        self.next_comm_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Registers a derived communicator so that recovery can reset it.
    pub fn register_comm(&self, comm: &Arc<CommShared>) {
        let mut comms = self.comms.lock();
        comms.retain(|w| w.strong_count() > 0);
        comms.push(Arc::downgrade(comm));
    }

    /// Whether `rank` is currently alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        *self.liveness[rank].lock() == ProcState::Alive
    }

    /// Marks `rank` failed with an unspecified (immediately visible) failure time.
    /// Returns true if the rank was alive before the call.
    pub fn mark_failed(&self, rank: usize) -> bool {
        self.mark_failed_at(rank, SimTime::ZERO)
    }

    /// Marks `rank` failed at virtual time `at`. The earliest failure time of the
    /// epoch is retained (see [`ClusterState::fail_time`]). Returns true if the rank
    /// was alive before the call.
    pub fn mark_failed_at(&self, rank: usize, at: SimTime) -> bool {
        self.mark_failed_burst(&[rank], at) == 1
    }

    /// Marks every still-alive rank of `ranks` failed at virtual time `at` as *one*
    /// burst, and returns how many were newly marked. Every victim's liveness lock is
    /// held until the whole burst is counted (the failure instant, the liveness
    /// flags, the event counts, then [`ClusterState::failed_count`]), so no rank can
    /// observe the burst half-published: one that sees a victim dead, or sees
    /// `failed_count() > 0` (the injector's detection barrier releases on it), also
    /// sees every event of the burst, whichever thread it runs on.
    pub(crate) fn mark_failed_burst(&self, ranks: &[usize], at: SimTime) -> usize {
        let mut victims = ranks.to_vec();
        // Ascending lock order; no other path holds two liveness locks at once.
        victims.sort_unstable();
        victims.dedup();
        let mut guards: Vec<_> = victims
            .iter()
            .map(|&rank| (rank, self.liveness[rank].lock()))
            .collect();
        let mut newly = 0;
        for (rank, st) in &mut guards {
            if **st == ProcState::Alive {
                self.fail_time_bits
                    .fetch_min(at.as_secs().to_bits(), Ordering::SeqCst);
                **st = ProcState::Failed;
                let count = self.failure_events.fetch_add(1, Ordering::SeqCst) + 1;
                self.death_events[*rank].store(count, Ordering::SeqCst);
                newly += 1;
            }
        }
        self.nfailed.fetch_add(newly, Ordering::SeqCst);
        drop(guards);
        if newly > 0 {
            self.wake_all_waiters();
        }
        newly
    }

    /// The virtual time of the earliest failure of the current disruption epoch, or
    /// `None` while no failure is outstanding. Cleared by [`ClusterState::repair_all`].
    pub fn fail_time(&self) -> Option<SimTime> {
        let bits = self.fail_time_bits.load(Ordering::SeqCst);
        (bits != u64::MAX).then(|| SimTime::from_secs(f64::from_bits(bits)))
    }

    /// Marks `rank` as parked: its current attempt has aborted and it is waiting at
    /// the recovery rendezvous, so it will send nothing more until repair. Wakes all
    /// blocked operations so receivers re-evaluate their quiescence condition.
    pub fn set_parked(&self, rank: usize) {
        self.parked[rank].store(true, Ordering::SeqCst);
        self.wake_all_waiters();
    }

    /// Whether `rank` is parked at the recovery rendezvous.
    pub fn is_parked(&self, rank: usize) -> bool {
        self.parked[rank].load(Ordering::SeqCst)
    }

    /// Whether `rank` can still produce messages or collective contributions in the
    /// current epoch (alive and not parked at the recovery rendezvous).
    pub fn can_still_act(&self, rank: usize) -> bool {
        self.is_alive(rank) && !self.is_parked(rank)
    }

    /// Records that `node` physically crashed in this epoch (its local checkpoint
    /// storage is gone). Drained by [`ClusterState::take_pending_node_failures`].
    pub fn note_node_failure(&self, node: usize) {
        self.pending_node_failures.lock().push(node);
    }

    /// Drains the nodes that crashed in this epoch.
    pub fn take_pending_node_failures(&self) -> Vec<usize> {
        std::mem::take(&mut *self.pending_node_failures.lock())
    }

    /// Wakes every rank parked in a receive, a collective or a rendezvous so it
    /// re-checks the cluster health. Called on every cluster-wide condition change
    /// (failure, recovery parking, global-disruption declaration, revocation, abort).
    pub fn wake_all_waiters(&self) {
        let waker = self.job_waker.lock().clone();
        if let Some(waker) = waker {
            waker.wake_all_parked();
        }
    }

    /// Installs the scheduler's wake-up hook for the duration of a job (see
    /// [`ClusterState::wake_all_waiters`]).
    pub(crate) fn set_job_waker(&self, waker: Arc<dyn crate::sched::JobWaker>) {
        *self.job_waker.lock() = Some(waker);
    }

    /// Removes the scheduler's wake-up hook at the end of a job.
    pub(crate) fn clear_job_waker(&self) {
        *self.job_waker.lock() = None;
    }

    /// Marks every *failed* rank alive again (non-shrinking recovery replaces failed
    /// processes). Retired ranks stay retired: a shrinking recovery removed them from
    /// the job for good, and a later non-shrinking repair of the survivors must not
    /// resurrect them.
    pub fn revive_all(&self) {
        for (rank, l) in self.liveness.iter().enumerate() {
            let mut st = l.lock();
            if *st == ProcState::Failed {
                *st = ProcState::Alive;
                self.death_events[rank].store(0, Ordering::SeqCst);
            }
        }
        self.nfailed.store(0, Ordering::SeqCst);
    }

    /// Permanently retires every currently failed rank (shrinking recovery: the dead
    /// processes are not replaced). Returns the retired ranks in ascending order.
    pub fn retire_failed_ranks(&self) -> Vec<usize> {
        let mut retired = Vec::new();
        for (rank, l) in self.liveness.iter().enumerate() {
            let mut st = l.lock();
            if *st == ProcState::Failed {
                *st = ProcState::Retired;
                retired.push(rank);
            }
        }
        self.nfailed.fetch_sub(retired.len(), Ordering::SeqCst);
        self.nretired.fetch_add(retired.len(), Ordering::SeqCst);
        retired
    }

    /// Whether `rank` was permanently retired by a shrinking recovery.
    pub fn is_retired(&self, rank: usize) -> bool {
        *self.liveness[rank].lock() == ProcState::Retired
    }

    /// The ranks permanently retired by shrinking recoveries, ascending.
    pub fn retired_ranks(&self) -> Vec<usize> {
        (0..self.nprocs)
            .filter(|&r| *self.liveness[r].lock() == ProcState::Retired)
            .collect()
    }

    /// Number of ranks permanently retired by shrinking recoveries.
    pub fn retired_count(&self) -> usize {
        self.nretired.load(Ordering::SeqCst)
    }

    /// Number of currently failed processes (excluding retired ranks).
    pub fn failed_count(&self) -> usize {
        self.nfailed.load(Ordering::SeqCst)
    }

    /// Total number of failure events injected so far.
    pub fn failure_events(&self) -> u64 {
        self.failure_events.load(Ordering::SeqCst)
    }

    /// The value of the failure-event counter at the instant `rank` was last marked
    /// failed, or 0 while the rank has never been killed (cleared again on revival).
    /// Because failure events fire in a globally serialized order, this is
    /// deterministic even when several events share an injection iteration — the
    /// per-casualty observable a live [`ClusterState::failure_events`] read cannot
    /// provide.
    pub fn failure_events_at_death(&self, rank: usize) -> u64 {
        self.death_events[rank].load(Ordering::SeqCst)
    }

    /// Global ranks failed in the current epoch (not including permanently retired
    /// ranks of earlier shrink recoveries).
    pub fn failed_ranks(&self) -> Vec<usize> {
        (0..self.nprocs)
            .filter(|&r| *self.liveness[r].lock() == ProcState::Failed)
            .collect()
    }

    /// Global ranks currently alive.
    pub fn alive_ranks(&self) -> Vec<usize> {
        (0..self.nprocs).filter(|&r| self.is_alive(r)).collect()
    }

    /// Declares that a global-restart recovery is in progress (see
    /// [`ClusterState::health_error`]).
    pub fn declare_global_disruption(&self) {
        self.global_disruption.store(true, Ordering::SeqCst);
        self.wake_all_waiters();
    }

    /// Whether a global-restart recovery is in progress.
    pub fn is_globally_disrupted(&self) -> bool {
        self.global_disruption.load(Ordering::SeqCst)
    }

    /// Records an `MPI_Abort`.
    pub fn set_abort(&self, code: i32) {
        {
            let mut a = self.abort.lock();
            if a.is_none() {
                *a = Some(code);
            }
        }
        self.wake_all_waiters();
    }

    /// The abort code, if the job was aborted.
    pub fn abort_code(&self) -> Option<i32> {
        *self.abort.lock()
    }

    /// The health error (if any) that an operation on `comm` should report.
    ///
    /// Failure notification follows ULFM semantics: an operation fails with
    /// [`MpiError::ProcFailed`] when the communicator contains a failed member, and
    /// with [`MpiError::Revoked`] when the communicator has been revoked. Operations on
    /// communicators made only of survivors (e.g. the result of a shrink) keep working.
    /// Additionally, while a *global-restart* recovery is in progress (see
    /// [`ClusterState::declare_global_disruption`]) every operation on every
    /// communicator reports the failure, which is how the Reinit and global
    /// ULFM/Restart designs roll back ranks that were not communicating with the failed
    /// process.
    pub fn health_error(&self, comm: &CommShared) -> Option<MpiError> {
        if let Some(code) = self.abort_code() {
            return Some(MpiError::Aborted { code });
        }
        if comm.is_revoked() {
            return Some(MpiError::Revoked);
        }
        if self.failed_count() > 0 {
            if self.is_globally_disrupted() {
                let rank = self.failed_ranks().into_iter().next().unwrap_or(0);
                return Some(MpiError::ProcFailed { rank });
            }
            if let Some(&rank) = comm.members.iter().find(|&&r| !self.is_alive(r)) {
                return Some(MpiError::ProcFailed { rank });
            }
        }
        None
    }

    /// Like [`ClusterState::health_error`], but failure notification follows the
    /// deterministic virtual-time visibility rule: a process failure (or an ongoing
    /// global-restart disruption) is reported only once the observer's clock `now` has
    /// reached the failure instant. Abort and revocation are always visible (both are
    /// control-plane transitions, not modelled physical events).
    pub fn visible_health_error(&self, comm: &CommShared, now: SimTime) -> Option<MpiError> {
        match self.health_error(comm)? {
            err @ (MpiError::Aborted { .. } | MpiError::Revoked) => Some(err),
            err => match self.fail_time() {
                Some(t) if now >= t => Some(err),
                _ => None,
            },
        }
    }

    /// Completes a *shrinking* repair: ends the disruption epoch without reviving
    /// anyone (the failed ranks were just retired by
    /// [`ClusterState::retire_failed_ranks`]), drops every in-flight message and
    /// unparks the survivors. Retired ranks stay parked — they can never act again.
    /// Called exactly once per shrink recovery by the last survivor to reach the
    /// shrink rendezvous, while every survivor is inside it.
    pub fn complete_shrink_repair(&self) {
        self.global_disruption.store(false, Ordering::SeqCst);
        self.fail_time_bits.store(u64::MAX, Ordering::SeqCst);
        for (rank, p) in self.parked.iter().enumerate() {
            if self.is_alive(rank) {
                p.store(false, Ordering::SeqCst);
            }
        }
        for mb in &self.mailboxes {
            mb.clear();
        }
    }

    /// Repairs the job after a failure: revives all processes, drops every in-flight
    /// message, clears revocation flags and resets the collective state of every
    /// registered communicator. Called exactly once per recovery by the last rank to
    /// reach the recovery rendezvous.
    pub fn repair_all(&self) {
        self.revive_all();
        self.global_disruption.store(false, Ordering::SeqCst);
        self.fail_time_bits.store(u64::MAX, Ordering::SeqCst);
        for p in &self.parked {
            p.store(false, Ordering::SeqCst);
        }
        for mb in &self.mailboxes {
            mb.clear();
        }
        let mut comms = self.comms.lock();
        comms.retain(|w| w.strong_count() > 0);
        for weak in comms.iter() {
            if let Some(comm) = weak.upgrade() {
                comm.repair();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> Arc<ClusterState> {
        ClusterState::new(n, Topology::single_node(n), MachineModel::default())
    }

    #[test]
    fn initial_state_is_healthy() {
        let s = state(4);
        assert_eq!(s.failed_count(), 0);
        assert!(s.is_alive(0));
        assert!(s.health_error(&s.world).is_none());
        assert_eq!(s.alive_ranks(), vec![0, 1, 2, 3]);
        assert!(s.failed_ranks().is_empty());
        assert_eq!(s.abort_code(), None);
    }

    #[test]
    fn failure_marks_and_health_error() {
        let s = state(4);
        assert!(s.mark_failed(2));
        assert!(!s.mark_failed(2), "double-failing is idempotent");
        assert_eq!(s.failed_count(), 1);
        assert_eq!(s.failed_ranks(), vec![2]);
        assert_eq!(
            s.health_error(&s.world),
            Some(MpiError::ProcFailed { rank: 2 })
        );
        s.revive_all();
        assert_eq!(s.failed_count(), 0);
        assert!(s.health_error(&s.world).is_none());
        assert_eq!(
            s.failure_events(),
            1,
            "revive does not erase the event count"
        );
    }

    #[test]
    fn revoked_comm_reports_revoked() {
        let s = state(2);
        s.world.revoke();
        assert_eq!(s.health_error(&s.world), Some(MpiError::Revoked));
        s.world.repair();
        assert!(s.health_error(&s.world).is_none());
    }

    #[test]
    fn abort_takes_priority() {
        let s = state(2);
        s.mark_failed(0);
        s.set_abort(13);
        s.set_abort(99); // first abort code wins
        assert_eq!(
            s.health_error(&s.world),
            Some(MpiError::Aborted { code: 13 })
        );
        assert_eq!(s.abort_code(), Some(13));
    }

    #[test]
    fn repair_clears_mailboxes_and_revocation() {
        use crate::msg::Message;
        use crate::time::SimTime;
        let s = state(2);
        s.mailboxes[1].push(Message {
            src: 0,
            tag: 0,
            comm_id: 0,
            payload: vec![1].into(),
            sent_at: SimTime::ZERO,
        });
        s.world.revoke();
        s.mark_failed(1);
        s.repair_all();
        assert!(s.mailboxes[1].is_empty());
        assert!(!s.world.is_revoked());
        assert_eq!(s.failed_count(), 0);
    }

    #[test]
    fn comm_ids_are_unique() {
        let s = state(2);
        let a = s.next_comm_id();
        let b = s.next_comm_id();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn topology_mismatch_panics() {
        let _ = ClusterState::new(4, Topology::single_node(2), MachineModel::default());
    }
}
