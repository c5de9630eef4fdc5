//! Task model and fair-share scheduling state.
//!
//! A [`Task`] is one admitted query decomposed into its serial
//! post-order of operator steps. The scheduler keeps per-tenant ready
//! queues and picks the next step from the tenant with the least work
//! consumed so far (deficit fair share): a tenant running heavy queries
//! yields the pool to light tenants between steps, without preemption
//! and without touching any query's results — the step sequence *within*
//! a query is fixed, only the interleaving *across* queries moves.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use lqo_engine::exec::keep_for_child;
use lqo_engine::{JoinAlgo, PhysNode, Relation, SpjQuery, TableSet, Telemetry, WorkMeter};

use crate::server::TenantGuard;

/// Handle to one admitted query; redeem it once with
/// [`crate::LqoServer::wait`].
///
/// A ticket names a slot of the server's ticket slab and the slot's
/// generation at admission. Redeeming it frees the slot for a later
/// submission and bumps the generation, so a ticket that was already
/// redeemed can never read the outcome of the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    pub(crate) slot: usize,
    pub(crate) generation: u64,
}

/// One operator step in a query's serial post-order, with the tables
/// whose row-id slots its output keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PlanOp {
    Scan { pos: usize, keep: TableSet },
    Join { algo: JoinAlgo, keep: TableSet },
}

/// Flatten a plan into its serial post-order step sequence — the exact
/// order the engine's in-thread executor visits operators, so threading
/// one meter through the steps reproduces the serial charge sequence.
/// Each step keeps what [`lqo_engine::Executor::execute`] keeps there
/// (the engine's [`keep_for_child`] from `keep` down); called with
/// [`TableSet::EMPTY`], the root step keeps nothing and counts.
pub(crate) fn flatten(query: &SpjQuery, plan: &PhysNode, keep: TableSet, out: &mut Vec<PlanOp>) {
    match plan {
        PhysNode::Scan { pos } => out.push(PlanOp::Scan { pos: *pos, keep }),
        PhysNode::Join { algo, left, right } => {
            flatten(query, left, keep_for_child(query, left.tables(), keep), out);
            flatten(
                query,
                right,
                keep_for_child(query, right.tables(), keep),
                out,
            );
            out.push(PlanOp::Join { algo: *algo, keep });
        }
    }
}

/// Successful `COUNT(*)` answer: the count and the work it took. Both
/// fields are schedule-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Count-star result.
    pub count: u64,
    /// Total work units (bit-exact across schedules — compare with
    /// `to_bits`).
    pub work: f64,
}

/// Outcome of one admitted query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The billing tenant.
    pub tenant: String,
    /// Submission sequence number: the order of admission, counted from
    /// 0 over the server's lifetime.
    pub seq: usize,
    /// Estimated cost of the admitted plan.
    pub plan_cost: f64,
    /// The answer, or the engine error (budget trips included) rendered
    /// to its stable display form. Deterministic for a fixed workload.
    pub result: Result<QueryAnswer, String>,
    /// Operator steps executed.
    pub steps: u64,
    /// Admission-to-completion latency. Wall clock — NOT part of the
    /// differential contract.
    pub wall_ns: u64,
}

/// One admitted query in flight.
pub(crate) struct Task {
    pub seq: usize,
    pub tenant: String,
    /// The tenant's guard, looked up once at admission.
    pub guard: Arc<TenantGuard>,
    /// The server's telemetry as of admission, so a step does not lock
    /// and clone the shared handles.
    pub telemetry: Telemetry,
    pub query: SpjQuery,
    pub ops: Vec<PlanOp>,
    pub next_op: usize,
    /// Intermediates awaiting their join, each holding only the slots a
    /// later join reads.
    pub stack: Vec<Relation>,
    /// Per-query budget meter, threaded through every step.
    pub meter: WorkMeter,
    /// Profiler query id ([`lqo_prof::ProfContext::begin_query_id`]).
    pub qid: u64,
    pub plan_cost: f64,
    pub steps: u64,
    /// Work already added to the tenant's fair-share deficit (the meter
    /// is cumulative; parking charges only the delta).
    pub charged: f64,
    pub admitted_at: Instant,
}

/// Per-tenant scheduling state (guarded by the scheduler lock).
pub(crate) struct TenantSched {
    /// Slots of the tasks ready for their next step, FIFO within the
    /// tenant.
    pub ready: VecDeque<usize>,
    /// Actual work units consumed by completed steps — the fair-share
    /// deficit counter.
    pub consumed: f64,
    /// Admission quota, charged with estimated plan cost. Reuses the
    /// engine's budget accumulator so quota trips share the engine's
    /// budget semantics.
    pub quota: WorkMeter,
}

/// One ticket slot: the query's parked task between steps, then its
/// outcome until the ticket is redeemed.
#[derive(Default)]
pub(crate) struct Slot {
    /// Bumped each time the slot is freed; a ticket is live while it
    /// matches.
    pub generation: u64,
    /// The task while parked (`None` while a worker runs it, and once
    /// it finished).
    pub task: Option<Task>,
    /// The outcome, from completion until [`SchedState::redeem`].
    pub outcome: Option<QueryOutcome>,
}

/// Scheduler state behind the server's mutex.
pub(crate) struct SchedState {
    pub tenants: BTreeMap<String, TenantSched>,
    /// The ticket slab: one slot per admitted query not yet redeemed.
    pub slots: Vec<Slot>,
    /// Indices of free slots, reused before the slab grows.
    free: Vec<usize>,
    /// Sequence number of the next admitted query.
    next_seq: usize,
    /// Admitted but not yet completed (the bounded admission queue).
    pub pending: usize,
    pub completed: usize,
    /// Workers gated (see [`crate::ServeConfig::hold`]).
    pub held: bool,
    pub shutdown: bool,
}

impl SchedState {
    pub fn new(held: bool) -> SchedState {
        SchedState {
            tenants: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            pending: 0,
            completed: 0,
            held,
            shutdown: false,
        }
    }

    /// The next submission sequence number.
    pub fn next_seq(&mut self) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Park a newly admitted task in a free slot (or a new one), queue
    /// it behind its tenant's ready tasks, and return its ticket.
    pub fn admit(&mut self, task: Task) -> Ticket {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() - 1
        });
        if let Some(t) = self.tenants.get_mut(&task.tenant) {
            t.ready.push_back(slot);
        }
        let entry = &mut self.slots[slot];
        entry.task = Some(task);
        Ticket {
            slot,
            generation: entry.generation,
        }
    }

    /// Take `ticket`'s outcome if its query has completed, freeing the
    /// slot. Panics if the ticket was already redeemed.
    pub fn redeem(&mut self, ticket: Ticket) -> Option<QueryOutcome> {
        let entry = &mut self.slots[ticket.slot];
        assert!(
            entry.generation == ticket.generation,
            "ticket {ticket:?} was already redeemed"
        );
        let outcome = entry.outcome.take()?;
        entry.generation += 1;
        self.free.push(ticket.slot);
        Some(outcome)
    }

    /// Pick the next ready task: the front of the queue of the tenant
    /// with the least consumed work (ties broken by tenant name, so the
    /// choice is a pure function of scheduler state).
    pub fn pick(&mut self) -> Option<(usize, Task)> {
        let (_, tenant) = self
            .tenants
            .iter_mut()
            .filter(|(_, t)| !t.ready.is_empty())
            .min_by(|(na, a), (nb, b)| {
                a.consumed
                    .total_cmp(&b.consumed)
                    .then_with(|| na.as_str().cmp(nb.as_str()))
            })?;
        let slot = tenant.ready.pop_front()?;
        let task = self.slots[slot].task.take()?;
        Some((slot, task))
    }
}
