//! The rendezvous engine behind collective operations.
//!
//! Every communicator owns a [`CollSlot`]. A collective operation is executed as a
//! *rendezvous round*: each member deposits its contribution (an arbitrary `Send`
//! value) together with its current virtual time; the last member to arrive runs a
//! *finish* closure that combines all contributions into one output per member and
//! computes the common completion time (`max` of the entry times plus the modelled
//! collective cost); every member then picks up its output and advances its clock to
//! the completion time.
//!
//! Rounds are strictly ordered: a member cannot deposit into round *n+1* until every
//! member has collected its output from round *n*. A waiting member parks its fiber on
//! the slot's wait channel and re-evaluates a caller-supplied `abort_check` every time
//! it is woken, so members blocked in a collective whose peers have failed observe the
//! failure (ULFM semantics) instead of hanging.

use std::any::Any;

use parking_lot::Mutex;

use crate::error::MpiError;
use crate::sched::{WaitKey, Yielder};
use crate::time::SimTime;

/// Type-erased contribution/output values exchanged through a rendezvous.
pub type AnyBox = Box<dyn Any + Send>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Members are depositing contributions for the current round.
    Collecting,
    /// Outputs are ready; members are picking them up.
    Delivering,
}

struct RoundState {
    phase: Phase,
    round: u64,
    deposited: usize,
    collected: usize,
    /// Per-member (entry time, declared cost, contribution).
    contributions: Vec<Option<(SimTime, SimTime, AnyBox)>>,
    outputs: Vec<Option<AnyBox>>,
    finish_time: SimTime,
}

impl RoundState {
    fn fresh(nmembers: usize) -> Self {
        RoundState {
            phase: Phase::Collecting,
            round: 0,
            deposited: 0,
            collected: 0,
            contributions: (0..nmembers).map(|_| None).collect(),
            outputs: (0..nmembers).map(|_| None).collect(),
            finish_time: SimTime::ZERO,
        }
    }

    fn reset_for_next_round(&mut self) {
        self.phase = Phase::Collecting;
        self.round += 1;
        self.deposited = 0;
        self.collected = 0;
        for c in &mut self.contributions {
            *c = None;
        }
        for o in &mut self.outputs {
            *o = None;
        }
        self.finish_time = SimTime::ZERO;
    }
}

/// A reusable rendezvous slot for a fixed group of members.
pub struct CollSlot {
    nmembers: usize,
    state: Mutex<RoundState>,
}

impl std::fmt::Debug for CollSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("CollSlot")
            .field("nmembers", &self.nmembers)
            .field("round", &s.round)
            .field("deposited", &s.deposited)
            .field("collected", &s.collected)
            .finish()
    }
}

impl CollSlot {
    /// Creates a slot for a group of `nmembers` members.
    ///
    /// # Panics
    ///
    /// Panics if `nmembers` is zero.
    pub fn new(nmembers: usize) -> Self {
        assert!(nmembers > 0, "a collective needs at least one member");
        CollSlot {
            nmembers,
            state: Mutex::new(RoundState::fresh(nmembers)),
        }
    }

    /// Number of members expected in every round.
    pub fn nmembers(&self) -> usize {
        self.nmembers
    }

    /// Executes one rendezvous round for member `member`.
    ///
    /// * `now` — the member's virtual time on entry (it also orders the member in its
    ///   scheduler's run queue whenever it is woken from a park).
    /// * `cost` — the modelled cost of the collective as seen by this member; the
    ///   completion time is `max(entry times) + max(declared costs)`, which keeps the
    ///   result deterministic even when members declare different payload sizes (e.g. a
    ///   broadcast root versus its receivers).
    /// * `contribution` — this member's type-erased input.
    /// * `finish` — run exactly once per round, by the last member to deposit; receives
    ///   all contributions ordered by member index and must return exactly one output
    ///   per member.
    /// * `abort_check` — re-evaluated every time the waiting member is woken;
    ///   returning `Some(err)` makes this member abandon the round with `Err(err)`
    ///   (used for failure notification).
    /// * `yielder` — the member's park/wake handle. A waiting member parks on the
    ///   slot's wait channel; whichever member publishes progress (outputs ready,
    ///   round drained) wakes it under the slot lock, and cluster-wide transitions
    ///   (which change what `abort_check` returns) invalidate the token read before
    ///   each check, so no wakeup can be lost.
    ///
    /// Returns the common completion time and this member's output.
    ///
    /// # Errors
    ///
    /// Returns whatever error `abort_check` produced, or [`MpiError::Internal`] if the
    /// finish closure returned the wrong number of outputs or a duplicate member index
    /// was used.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        member: usize,
        now: SimTime,
        cost: SimTime,
        contribution: AnyBox,
        finish: impl FnOnce(Vec<(SimTime, AnyBox)>) -> Vec<AnyBox>,
        mut abort_check: impl FnMut() -> Option<MpiError>,
        yielder: &Yielder,
    ) -> Result<(SimTime, AnyBox), MpiError> {
        let key = WaitKey::object(self);
        let declared_cost = cost;
        if member >= self.nmembers {
            return Err(MpiError::Internal(format!(
                "collective member index {member} out of range ({})",
                self.nmembers
            )));
        }

        let mut st = self.state.lock();

        // Wait for the previous round to fully drain before joining a new one. The
        // token is read before the condition and abort checks: slot-progress wakes
        // happen under the slot lock we hold, and cluster-wide transition wakes
        // (which change what `abort_check` returns) invalidate the token, so the park
        // below can never sleep through either.
        loop {
            let token = yielder.wait_token(key);
            if !(st.phase == Phase::Delivering && st.outputs[member].is_none()) {
                break;
            }
            if let Some(err) = abort_check() {
                return Err(err);
            }
            drop(st);
            yielder.park(token, now);
            st = self.state.lock();
        }

        if st.contributions[member].is_some() {
            return Err(MpiError::Internal(format!(
                "member {member} deposited twice in the same collective round"
            )));
        }

        // Deposit.
        st.contributions[member] = Some((now, declared_cost, contribution));
        st.deposited += 1;
        let my_round = st.round;

        if st.deposited == self.nmembers {
            // Last to arrive: combine and publish.
            let raw: Vec<(SimTime, SimTime, AnyBox)> = st
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("all contributions present"))
                .collect();
            let max_entry = raw
                .iter()
                .map(|(t, _, _)| *t)
                .fold(SimTime::ZERO, SimTime::max);
            let max_cost = raw
                .iter()
                .map(|(_, c, _)| *c)
                .fold(SimTime::ZERO, SimTime::max);
            let contribs: Vec<(SimTime, AnyBox)> =
                raw.into_iter().map(|(t, _, v)| (t, v)).collect();
            let outputs = finish(contribs);
            if outputs.len() != self.nmembers {
                return Err(MpiError::Internal(format!(
                    "collective finish produced {} outputs for {} members",
                    outputs.len(),
                    self.nmembers
                )));
            }
            for (slot, out) in st.outputs.iter_mut().zip(outputs) {
                *slot = Some(out);
            }
            st.finish_time = max_entry + max_cost;
            st.phase = Phase::Delivering;
            yielder.wake(key);
        } else {
            // Wait for the round to complete (token-before-check, as above).
            loop {
                let token = yielder.wait_token(key);
                if st.phase == Phase::Delivering && st.round == my_round {
                    break;
                }
                if let Some(err) = abort_check() {
                    // Withdraw our contribution so a later repair/reset starts clean.
                    if st.round == my_round && st.contributions[member].is_some() {
                        st.contributions[member] = None;
                        st.deposited -= 1;
                    }
                    return Err(err);
                }
                drop(st);
                yielder.park(token, now);
                st = self.state.lock();
            }
        }

        // Collect the output.
        let out = st.outputs[member]
            .take()
            .ok_or_else(|| MpiError::Internal("collective output missing".into()))?;
        let finish_time = st.finish_time;
        st.collected += 1;
        if st.collected == self.nmembers {
            st.reset_for_next_round();
            yielder.wake(key);
        }
        Ok((finish_time, out))
    }

    /// Forcibly resets the slot to an empty collecting state.
    ///
    /// Used when a communicator is repaired after a failure: contributions from the
    /// aborted round are discarded. Must only be called when no member is blocked
    /// inside [`CollSlot::run`] (the recovery protocol guarantees this by first driving
    /// every rank out of its pending operations).
    pub fn reset(&self) {
        *self.state.lock() = RoundState::fresh(self.nmembers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Cluster, ClusterConfig};
    use crate::sched::SchedBackend;
    use crate::RankCtx;

    /// Runs `f(ctx)` as every rank of an `n`-rank job on `coop` and on `par` with one
    /// worker thread per rank, returning each backend's per-rank results.
    fn run_members<R: Send + Clone>(
        n: usize,
        f: impl Fn(&mut RankCtx) -> R + Send + Sync,
    ) -> Vec<Vec<R>> {
        [SchedBackend::Coop, SchedBackend::Par]
            .into_iter()
            .map(|backend| {
                let config = ClusterConfig::with_ranks(n).backend(backend).workers(n);
                let outcome = Cluster::new(config).run(|ctx| Ok(f(ctx)));
                (0..n).map(|rank| outcome.value_of(rank).clone()).collect()
            })
            .collect()
    }

    /// Runs `f(ctx)` as the only rank of a one-rank job.
    fn run_single<R: Send + Clone>(f: impl Fn(&mut RankCtx) -> R + Send + Sync) -> R {
        run_members(1, f).remove(0).remove(0)
    }

    #[test]
    fn single_member_round_completes_immediately() {
        let (t, out) = run_single(|ctx| {
            let slot = CollSlot::new(1);
            let (t, out) = slot
                .run(
                    0,
                    SimTime::from_secs(1.0),
                    SimTime::from_secs(0.5),
                    Box::new(41u64),
                    |mut contribs| {
                        let (_, v) = contribs.pop().unwrap();
                        let v = *v.downcast::<u64>().unwrap();
                        vec![Box::new(v + 1) as AnyBox]
                    },
                    || None,
                    ctx.yielder(),
                )
                .unwrap();
            (t, *out.downcast::<u64>().unwrap())
        });
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(out, 42);
    }

    #[test]
    fn sum_across_threads() {
        let slot = CollSlot::new(4);
        for results in run_members(4, |ctx| {
            let i = ctx.rank();
            let (t, out) = slot
                .run(
                    i,
                    SimTime::from_secs(i as f64),
                    SimTime::from_secs(1.0),
                    Box::new(i as u64),
                    |contribs| {
                        let total: u64 = contribs
                            .iter()
                            .map(|(_, v)| *v.downcast_ref::<u64>().unwrap())
                            .sum();
                        (0..4).map(|_| Box::new(total) as AnyBox).collect()
                    },
                    || None,
                    ctx.yielder(),
                )
                .unwrap();
            (t.as_secs(), *out.downcast::<u64>().unwrap())
        }) {
            for (t, sum) in results {
                // max entry time is 3.0, cost 1.0.
                assert_eq!(t, 4.0);
                assert_eq!(sum, 6);
            }
        }
    }

    #[test]
    fn consecutive_rounds_do_not_mix() {
        let slot = CollSlot::new(3);
        for results in run_members(3, |ctx| {
            let i = ctx.rank();
            let mut sums = Vec::new();
            for round in 0..5u64 {
                let (_, out) = slot
                    .run(
                        i,
                        SimTime::from_secs(round as f64),
                        SimTime::ZERO,
                        Box::new(round * 10 + i as u64),
                        |contribs| {
                            let total: u64 = contribs
                                .iter()
                                .map(|(_, v)| *v.downcast_ref::<u64>().unwrap())
                                .sum();
                            (0..3).map(|_| Box::new(total) as AnyBox).collect()
                        },
                        || None,
                        ctx.yielder(),
                    )
                    .unwrap();
                sums.push(*out.downcast::<u64>().unwrap());
            }
            sums
        }) {
            for sums in results {
                assert_eq!(sums, vec![3, 33, 63, 93, 123]);
            }
        }
    }

    #[test]
    fn abort_check_unblocks_waiting_member() {
        // Member 0 enters alone and parks; member 1 never arrives but dies, and the
        // failure publication wakes member 0, whose abort check then fires. Both
        // backends' jobs share the slot, so the second run also proves the first
        // left it clean.
        let slot = CollSlot::new(2);
        let results = run_members(2, |ctx| {
            if ctx.rank() == 1 {
                let _ = ctx.kill_self();
                return None;
            }
            let cluster = std::sync::Arc::clone(ctx.cluster());
            let res = slot.run(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(()),
                |_| vec![Box::new(()) as AnyBox, Box::new(()) as AnyBox],
                move || (!cluster.is_alive(1)).then_some(MpiError::ProcFailed { rank: 1 }),
                ctx.yielder(),
            );
            Some(res.map(|_| ()))
        });
        for per_rank in results {
            let res = per_rank[0].clone().expect("member 0 ran the round");
            assert_eq!(res.unwrap_err(), MpiError::ProcFailed { rank: 1 });
        }
        // The aborting member withdrew its contribution, leaving a clean slot.
        assert!(format!("{slot:?}").contains("deposited: 0"));
        // After a reset the slot is reusable.
        slot.reset();
        assert!(format!("{slot:?}").contains("round: 0"));
    }

    #[test]
    fn wrong_output_count_is_an_internal_error() {
        let err = run_single(|ctx| {
            CollSlot::new(1)
                .run(
                    0,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    Box::new(()),
                    |_| vec![],
                    || None,
                    ctx.yielder(),
                )
                .map(|_| ())
                .unwrap_err()
        });
        assert!(matches!(err, MpiError::Internal(_)));
    }

    #[test]
    fn out_of_range_member_is_rejected() {
        let err = run_single(|ctx| {
            CollSlot::new(2)
                .run(
                    5,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    Box::new(()),
                    |_| vec![],
                    || None,
                    ctx.yielder(),
                )
                .map(|_| ())
                .unwrap_err()
        });
        assert!(matches!(err, MpiError::Internal(_)));
    }

    #[test]
    fn reset_clears_partial_round() {
        // Member 0 deposits alone; member 1 revokes the world instead of arriving,
        // which wakes member 0 into its abort check.
        let slot = CollSlot::new(2);
        run_members(2, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                crate::ulfm::comm_revoke(ctx, &world);
                return;
            }
            let _ = slot.run(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(1u8),
                |_| vec![Box::new(0u8) as AnyBox, Box::new(0u8) as AnyBox],
                || world.shared().is_revoked().then_some(MpiError::Revoked),
                ctx.yielder(),
            );
        });
        slot.reset();
        assert!(format!("{slot:?}").contains("deposited: 0"));
    }
}
