//! Interleaving model of the session executor's dedup-slot state machine.
//!
//! In `stacksim_core::harness::session`, `submit()` holds the session
//! mutex while it checks the in-flight table and, on a miss, creates a
//! slot and queues it ready — check and insert are one critical section.
//! Executor workers pop ready slots under the same mutex, run them, and
//! complete each one in two steps: first *sweep* it out of the in-flight
//! table under the lock, then *publish* its outcome, waking the waiters.
//! [`DedupModel`] models that machine with two submitters racing on the
//! same digest plus two workers, and checks that a digest is never in
//! flight twice, that every slot executes exactly once, that no
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

/// A submitter thread: look up or create the slot, then wait on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SubmitterPc {
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
            stale_hit: false,
            submitters: [Submitter {
                pc: SubmitterPc::Lookup,
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
            SubmitterPc::Lookup => {
                if let Some(slot) = st.inflight {
                    // Dedup hit: attach to the in-flight slot.
                    if st.slots[slot] == SlotState::Done {
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
        if st.stale_hit {
            return Err("a submission deduplicated onto a finished slot".to_string());
        }
        Ok(())
    }

    fn on_final(&self, st: &Self::State) -> Result<(), String> {
        for (i, (state, runs)) in st.slots.iter().zip(&st.executions).enumerate() {
            if *state != SlotState::Done || *runs != 1 {
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
                st.executions[slot] += 1;
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

/// `submit()` miss path: new slot, queued ready and registered in-flight.
fn create_slot(st: &mut DedupState) -> usize {
    let slot = st.slots.len();
    st.slots.push(SlotState::Queued);
    st.swept.push(false);
    st.executions.push(0);
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
