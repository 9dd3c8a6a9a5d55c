//! Logical timers for sans-I/O automatons.
//!
//! Automatons never read a clock; they request timers via
//! [`crate::automaton::Action::SetTimer`] and receive
//! [`crate::automaton::Event::Timeout`] events. [`TimerKind`] enumerates
//! every timer PoE replicas and clients use, so timeouts are
//! self-describing and need no id-to-meaning table in protocol code.

use crate::ids::{SeqNum, View};
use poe_crypto::Digest;

/// What a timer means to the automaton that set it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TimerKind {
    /// A replica is waiting for progress on a client request it forwarded
    /// to the primary (PoE failure-detection rule 1, §II-C1).
    RequestProgress(Digest),
    /// A replica is waiting for the normal case to advance past `seq`.
    SlotProgress(SeqNum),
    /// Waiting for the NV-PROPOSE of `view` after requesting a
    /// view change; expiry escalates to the next view.
    ViewChange(View),
    /// A client is waiting for enough replies to its request.
    ClientRetry(u64),
    /// The primary's batch cut-off (flush a partial batch).
    BatchCut,
    /// A lagging replica's state-transfer retry timer: re-drives the
    /// current repair phase (probe, missing chunks, or tail) with
    /// exponential backoff and source rotation.
    Repair,
    /// A responder whose repair-serving budget ran dry arms this to
    /// refill on an idle tick: budgets normally refill when a new
    /// checkpoint stabilizes, but a repair that starts after client
    /// traffic fully drains would otherwise stall until traffic
    /// resumes (no new checkpoints → no refills).
    RepairBudget,
}

/// Bookkeeping for pending timers on the runtime side.
///
/// Runtimes (simulator, fabric) use this to implement cancellation: a
/// fired timer is delivered only if its generation is still current.
#[derive(Clone, Debug, Default)]
pub struct TimerTable {
    generations: std::collections::HashMap<TimerKind, u64>,
    next_gen: u64,
}

impl TimerTable {
    /// An empty table.
    pub fn new() -> TimerTable {
        TimerTable::default()
    }

    /// Registers (or re-registers) a timer, returning its generation
    /// token. Older generations of the same kind become stale.
    pub fn arm(&mut self, kind: TimerKind) -> u64 {
        self.next_gen += 1;
        self.generations.insert(kind, self.next_gen);
        self.next_gen
    }

    /// Cancels a timer (future fires of any generation are stale).
    pub fn cancel(&mut self, kind: &TimerKind) {
        self.generations.remove(kind);
    }

    /// Whether a fire of `kind` with generation `gen` is still current.
    pub fn is_current(&self, kind: &TimerKind, gen: u64) -> bool {
        self.generations.get(kind) == Some(&gen)
    }

    /// Consumes a fire: returns true (and disarms) when current.
    pub fn fire(&mut self, kind: &TimerKind, gen: u64) -> bool {
        if self.is_current(kind, gen) {
            self.generations.remove(kind);
            true
        } else {
            false
        }
    }

    /// Number of armed timers.
    pub fn armed(&self) -> usize {
        self.generations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_fire_cycle() {
        let mut t = TimerTable::new();
        let g = t.arm(TimerKind::BatchCut);
        assert!(t.is_current(&TimerKind::BatchCut, g));
        assert!(t.fire(&TimerKind::BatchCut, g));
        // Second fire of the same generation is stale.
        assert!(!t.fire(&TimerKind::BatchCut, g));
    }

    #[test]
    fn rearm_invalidates_old_generation() {
        let mut t = TimerTable::new();
        let g1 = t.arm(TimerKind::ViewChange(View(1)));
        let g2 = t.arm(TimerKind::ViewChange(View(1)));
        assert!(!t.fire(&TimerKind::ViewChange(View(1)), g1));
        assert!(t.fire(&TimerKind::ViewChange(View(1)), g2));
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut t = TimerTable::new();
        let g = t.arm(TimerKind::SlotProgress(SeqNum(5)));
        t.cancel(&TimerKind::SlotProgress(SeqNum(5)));
        assert!(!t.fire(&TimerKind::SlotProgress(SeqNum(5)), g));
        assert_eq!(t.armed(), 0);
    }

    #[test]
    fn kinds_are_independent() {
        let mut t = TimerTable::new();
        let g1 = t.arm(TimerKind::ClientRetry(1));
        let g2 = t.arm(TimerKind::ClientRetry(2));
        assert!(t.fire(&TimerKind::ClientRetry(1), g1));
        assert!(t.fire(&TimerKind::ClientRetry(2), g2));
    }
}
