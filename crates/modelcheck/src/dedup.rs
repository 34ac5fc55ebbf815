//! Interleaving model of the session executor's dedup-slot state machine.
//!
//! In `stacksim_core::harness::session`, `submit()` first probes the
//! memo cache without the lock; a hit takes a slot that is `Done` from
//! the start and never enters the in-flight table. On a miss it holds the
//! session mutex while it checks the in-flight table and, on a miss
//! there too, creates a slot and queues it ready — check and insert are
//! one critical section. Executor workers pop ready slots under the same
//! mutex, run them (storing the result in the memo cache), and complete
//! each one in two steps: first *sweep* it out of the in-flight table
//! under the lock, then *publish* its outcome, waking the waiters.
//! [`DedupModel`] models that machine with two submitters racing on the
//! same digest plus two workers, and checks that a digest is never in
//! flight twice, that every queued slot executes exactly once, that an
//! admission hit is never executed nor deduplicated onto, that no
//! submission attaches to an already finished slot, and that every
//! waiter resolves.
//!
//! Two negative controls prove the explorer still sees the bugs the code
//! is shaped against: `atomic_submit: false` splits the check and the
//! insert into two steps (dropping the lock between them), which puts the
//! digest in flight twice; `sweep_first: false` publishes before it
//! sweeps, which lets a submission dedup onto a finished slot.

use crate::explore::{Model, Step};

/// Lifecycle of one dedup slot, mirroring `SlotState` in session.rs
/// (`Ran` is a worker holding a result it has not published yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SlotState {
    Queued,
    Running,
    Ran,
    Done,
}

/// A submitter thread: probe the memo cache, else look up or create the
/// slot, then wait on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SubmitterPc {
    /// The memo probe, outside the lock: a hit takes a slot that is done
    /// from the start.
    Probe,
    /// Atomic mode: check the in-flight table and insert in one step.
    /// Split mode: just the check, remembering the miss.
    Lookup,
    /// Split mode only: insert the slot checked as missing earlier.
    Insert,
    /// Block until the attached slot is `Done`.
    Wait,
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Submitter {
    pc: SubmitterPc,
    /// Index into `slots` once attached.
    slot: Option<usize>,
}

/// An executor worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WorkerPc {
    /// Pop a ready slot under the lock (or park).
    Pop,
    /// Run the popped slot's experiment.
    Run(usize),
    /// Remove the slot from the in-flight table under the lock.
    Sweep(usize),
    /// Publish the outcome and wake the slot's waiters.
    Publish(usize),
    Finished,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DedupState {
    /// Slot the in-flight table maps the (single, shared) digest to.
    inflight: Option<usize>,
    slots: Vec<SlotState>,
    /// Whether each slot has left the in-flight table.
    swept: Vec<bool>,
    /// Slots queued ready, in order.
    ready: Vec<usize>,
    /// Times each slot's experiment ran.
    executions: Vec<u8>,
    /// Whether each slot was an admission hit, done from the start.
    admitted: Vec<bool>,
    /// Whether the memo cache holds the digest (a worker stored it).
    cached: bool,
    /// A submission attached to a slot that had already finished.
    stale_hit: bool,
    submitters: [Submitter; 2],
    workers: [WorkerPc; 2],
}

/// Two submitters racing on one digest, two executor workers.
pub struct DedupModel {
    /// When false, the check-then-insert in `submit()` is modelled as
    /// two separate steps (the bug the session lock prevents).
    pub atomic_submit: bool,
    /// When false, a worker publishes a slot's outcome before sweeping
    /// it from the in-flight table (the order `complete()` avoids).
    pub sweep_first: bool,
}

const SUBMITTERS: usize = 2;

impl Model for DedupModel {
    type State = DedupState;

    fn name(&self) -> &'static str {
        "session dedup slots"
    }

    fn threads(&self) -> usize {
        4
    }

    fn init(&self) -> Self::State {
        DedupState {
            inflight: None,
            slots: Vec::new(),
            swept: Vec::new(),
            ready: Vec::new(),
            executions: Vec::new(),
            admitted: Vec::new(),
            cached: false,
            stale_hit: false,
            submitters: [Submitter {
                pc: SubmitterPc::Probe,
                slot: None,
            }; 2],
            workers: [WorkerPc::Pop; 2],
        }
    }

    fn step(&self, st: &mut Self::State, tid: usize) -> Step {
        if tid >= SUBMITTERS {
            return self.worker_step(st, tid - SUBMITTERS);
        }
        let sub = st.submitters[tid];
        match sub.pc {
            SubmitterPc::Probe => {
                st.submitters[tid] = if st.cached {
                    // Memo hit: a finished slot no worker or table sees.
                    let slot = new_slot(st, SlotState::Done);
                    st.admitted[slot] = true;
                    st.swept[slot] = true;
                    Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    }
                } else {
                    Submitter {
                        pc: SubmitterPc::Lookup,
                        slot: None,
                    }
                };
                Step::Ran
            }
            SubmitterPc::Lookup => {
                if let Some(slot) = st.inflight {
                    // Dedup hit: attach to the in-flight slot.
                    if st.slots[slot] == SlotState::Done || st.admitted[slot] {
                        st.stale_hit = true;
                    }
                    st.submitters[tid] = Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    };
                } else if self.atomic_submit {
                    let slot = create_slot(st);
                    st.submitters[tid] = Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    };
                } else {
                    // Buggy split: the miss is observed now, the insert
                    // happens in a later step with the lock dropped.
                    st.submitters[tid].pc = SubmitterPc::Insert;
                }
                Step::Ran
            }
            SubmitterPc::Insert => {
                let slot = create_slot(st);
                st.submitters[tid] = Submitter {
                    pc: SubmitterPc::Wait,
                    slot: Some(slot),
                };
                Step::Ran
            }
            SubmitterPc::Wait => {
                let Some(slot) = sub.slot else {
                    // Unreachable by construction: Wait is only entered
                    // with a slot attached. Treat as blocked, not panic.
                    return Step::Blocked;
                };
                if st.slots[slot] == SlotState::Done {
                    st.submitters[tid].pc = SubmitterPc::Finished;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            SubmitterPc::Finished => Step::Done,
        }
    }

    fn invariant(&self, st: &Self::State) -> Result<(), String> {
        let unswept = st.swept.iter().filter(|s| !**s).count();
        if unswept > 1 {
            return Err(format!(
                "digest in flight in {unswept} slots at once: duplicate execution"
            ));
        }
        if let Some(n) = st.executions.iter().find(|n| **n > 1) {
            return Err(format!("one slot ran {n} times: duplicate execution"));
        }
        for (slot, admitted) in st.admitted.iter().enumerate() {
            if *admitted && (st.executions[slot] > 0 || st.ready.contains(&slot)) {
                return Err("an admission hit was queued or executed".to_string());
            }
            if *admitted && st.inflight == Some(slot) {
                return Err("an admission hit entered the in-flight table".to_string());
            }
        }
        if st.stale_hit {
            return Err("a submission deduplicated onto a finished slot".to_string());
        }
        Ok(())
    }

    fn on_final(&self, st: &Self::State) -> Result<(), String> {
        let slots = st.slots.iter().zip(&st.executions).zip(&st.admitted);
        for (i, ((state, runs), admitted)) in slots.enumerate() {
            if *state != SlotState::Done || *runs != u8::from(!admitted) {
                return Err(format!(
                    "slot {i} ended {state:?} after {runs} execution(s)"
                ));
            }
        }
        for (i, sub) in st.submitters.iter().enumerate() {
            if sub.pc != SubmitterPc::Finished {
                return Err(format!("submitter {i} never resolved"));
            }
        }
        Ok(())
    }
}

impl DedupModel {
    /// One worker action. A worker parks once both submissions are in
    /// and nothing is ready — no later step can queue more work.
    fn worker_step(&self, st: &mut DedupState, w: usize) -> Step {
        match st.workers[w] {
            WorkerPc::Pop => {
                if !st.ready.is_empty() {
                    let slot = st.ready.remove(0);
                    st.slots[slot] = SlotState::Running;
                    st.workers[w] = WorkerPc::Run(slot);
                    Step::Ran
                } else if st
                    .submitters
                    .iter()
                    .all(|s| matches!(s.pc, SubmitterPc::Wait | SubmitterPc::Finished))
                {
                    st.workers[w] = WorkerPc::Finished;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            WorkerPc::Run(slot) => {
                // the run ends with the memo-cache store
                st.executions[slot] += 1;
                st.cached = true;
                st.slots[slot] = SlotState::Ran;
                st.workers[w] = if self.sweep_first {
                    WorkerPc::Sweep(slot)
                } else {
                    WorkerPc::Publish(slot)
                };
                Step::Ran
            }
            WorkerPc::Sweep(slot) => {
                if st.inflight == Some(slot) {
                    st.inflight = None;
                }
                st.swept[slot] = true;
                st.workers[w] = if self.sweep_first {
                    WorkerPc::Publish(slot)
                } else {
                    WorkerPc::Pop
                };
                Step::Ran
            }
            WorkerPc::Publish(slot) => {
                st.slots[slot] = SlotState::Done;
                st.workers[w] = if self.sweep_first {
                    WorkerPc::Pop
                } else {
                    WorkerPc::Sweep(slot)
                };
                Step::Ran
            }
            WorkerPc::Finished => Step::Done,
        }
    }
}

/// A new slot in `state`, in no table yet.
fn new_slot(st: &mut DedupState, state: SlotState) -> usize {
    let slot = st.slots.len();
    st.slots.push(state);
    st.swept.push(false);
    st.executions.push(0);
    st.admitted.push(false);
    slot
}

/// `submit()` miss path: new slot, queued ready and registered in-flight.
fn create_slot(st: &mut DedupState) -> usize {
    let slot = new_slot(st, SlotState::Queued);
    st.ready.push(slot);
    st.inflight = Some(slot);
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn locked_submit_executes_once() {
        let stats = explore(&DedupModel {
            atomic_submit: true,
            sweep_first: true,
        })
        .expect("clean");
        assert!(stats.terminals >= 1);
    }

    /// A witness that the explored schedules include an admission hit:
    /// the model above would pass vacuously if no submitter ever probed
    /// after a worker's store.
    #[test]
    fn some_schedule_answers_a_submission_at_admission() {
        struct Witness(DedupModel);
        impl Model for Witness {
            type State = DedupState;
            fn name(&self) -> &'static str {
                "admission-hit witness"
            }
            fn threads(&self) -> usize {
                self.0.threads()
            }
            fn init(&self) -> DedupState {
                self.0.init()
            }
            fn step(&self, st: &mut DedupState, tid: usize) -> Step {
                self.0.step(st, tid)
            }
            fn invariant(&self, st: &DedupState) -> Result<(), String> {
                self.0.invariant(st)
            }
            fn on_final(&self, st: &DedupState) -> Result<(), String> {
                self.0.on_final(st)?;
                match st.admitted.iter().any(|a| *a) {
                    true => Err("witness: an admission hit was reached".to_string()),
                    false => Ok(()),
                }
            }
        }
        let err = explore(&Witness(DedupModel {
            atomic_submit: true,
            sweep_first: true,
        }))
        .unwrap_err();
        assert!(err.contains("witness: an admission hit"), "{err}");
    }

    #[test]
    fn split_check_then_insert_double_executes() {
        // Both submitters observe the miss before either inserts; each
        // then queues its own slot and the digest is in flight twice.
        // This is the race the session mutex exists to prevent.
        let err = explore(&DedupModel {
            atomic_submit: false,
            sweep_first: true,
        })
        .unwrap_err();
        assert!(err.contains("execution"), "{err}");
    }

    #[test]
    fn publish_before_sweep_dedups_onto_a_finished_slot() {
        // A submission landing between publish and sweep still finds the
        // slot in the table and attaches to a finished run.
        let err = explore(&DedupModel {
            atomic_submit: true,
            sweep_first: false,
        })
        .unwrap_err();
        assert!(err.contains("finished slot"), "{err}");
    }
}
