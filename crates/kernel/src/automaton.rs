//! The sans-I/O automaton model.
//!
//! PoE replicas and clients are implemented as deterministic state
//! machines: each consumes [`Event`]s and appends [`Action`]s to an
//! [`Outbox`]. Two runtimes interpret the same
//! automatons:
//!
//! * `poe-sim` — a discrete-event simulator with virtual time, a
//!   network delay model, and failure injection (used for all the paper's figures);
//! * `poe-fabric` — a multi-threaded pipelined runtime on the wall clock
//!   (the ResilientDB-style deployment of paper §III).
//!
//! Determinism is a protocol requirement ("non-faulty replicas … are
//! deterministic", §II-A) and is what makes simulation traces replayable.
//!
//! Convention: [`Outbox::broadcast`] targets all *other* replicas. An
//! automaton that wants its own vote counts it directly in its state
//! (mirroring the paper's optimization "the primary can generate one
//! signature share itself", §II-E).

use crate::ids::{ClientId, NodeId, ReplicaId, SeqNum, View};
use crate::messages::ProtocolMsg;
use crate::request::Batch;
use crate::time::{Duration, Time};
use crate::timer::TimerKind;
use poe_crypto::Digest;
use std::sync::Arc;

/// An input to a replica automaton.
#[derive(Clone, Debug)]
pub enum Event {
    /// Delivered at time zero, before any other event.
    Init,
    /// A message arrived.
    Deliver {
        /// Sender (already authenticated by the runtime).
        from: NodeId,
        /// The message.
        msg: ProtocolMsg,
    },
    /// A previously set timer fired (and was still armed).
    Timeout(TimerKind),
}

/// A state-transition observation emitted for metrics, ledgers, and
/// invariant checking. Notifications never affect other nodes.
#[derive(Clone, Debug)]
pub enum Notification {
    /// A batch was (speculatively) executed as the `seq`-th transaction.
    Executed {
        /// View under which it executed.
        view: View,
        /// Sequence number.
        seq: SeqNum,
        /// The batch.
        batch: Arc<Batch>,
        /// Digest of the execution results.
        results_digest: Digest,
    },
    /// Speculatively executed batches above `to` were reverted.
    RolledBack {
        /// Highest surviving sequence number (`None` = everything).
        to: Option<SeqNum>,
    },
    /// The replica moved into `view`.
    ViewChanged {
        /// The new view.
        view: View,
    },
    /// A checkpoint at `seq` became stable (2f+1 matching votes).
    CheckpointStable {
        /// The stable sequence number.
        seq: SeqNum,
    },
    /// A consensus decision completed at this replica (used by the
    /// decisions/s metric of Figure 11; for PoE this is the view-commit).
    Decided {
        /// Sequence number decided.
        seq: SeqNum,
    },
    /// The replica discovered that the cluster's stable checkpoint is
    /// ahead of its own state and the missing history cannot be rebuilt
    /// from VC-REQUESTs alone. The replica stays live (forwarding,
    /// voting on in-window slots) and starts the state-transfer repair
    /// protocol; a later [`Notification::CaughtUp`] marks its completion.
    FellBehind {
        /// The stable checkpoint the cluster proved.
        stable: SeqNum,
        /// This replica's contiguous execution frontier.
        exec_frontier: SeqNum,
        /// The next sequence number this replica's ledger expects.
        ledger_frontier: SeqNum,
    },
    /// State-transfer repair finished: the replica installed a verified
    /// checkpoint (and any certified tail above it) and rejoined the
    /// live protocol. Pairs with an earlier [`Notification::FellBehind`]
    /// or lag detection via peer checkpoint votes.
    CaughtUp {
        /// The stable checkpoint that was installed.
        stable: SeqNum,
        /// The contiguous execution frontier after catch-up.
        exec_frontier: SeqNum,
    },
    /// A client completed a request (client automatons only).
    RequestComplete {
        /// The client.
        client: ClientId,
        /// The client-local request id.
        req_id: u64,
        /// Time the request was first sent.
        submitted_at: Time,
    },
}

impl Notification {
    /// A stable single-line rendering, used by the simulator's
    /// notification trace. Two runs of the same seeded simulation must
    /// produce byte-identical trace lines, so this goes through explicit
    /// fields only (digests, ids, sequence numbers) — never through
    /// `Debug` formatting of nested structures.
    pub fn trace_line(&self) -> String {
        match self {
            Notification::Executed { view, seq, batch, results_digest } => {
                format!(
                    "executed {view} {seq} reqs={} batch={} results={}",
                    batch.len(),
                    batch.digest.short_hex(),
                    results_digest.short_hex()
                )
            }
            Notification::RolledBack { to: Some(seq) } => format!("rolledback to={seq}"),
            Notification::RolledBack { to: None } => "rolledback to=genesis".to_string(),
            Notification::ViewChanged { view } => format!("viewchanged {view}"),
            Notification::CheckpointStable { seq } => format!("checkpoint {seq}"),
            Notification::Decided { seq } => format!("decided {seq}"),
            Notification::FellBehind { stable, exec_frontier, ledger_frontier } => {
                format!("fellbehind stable={stable} exec={exec_frontier} ledger={ledger_frontier}")
            }
            Notification::CaughtUp { stable, exec_frontier } => {
                format!("caughtup stable={stable} exec={exec_frontier}")
            }
            Notification::RequestComplete { client, req_id, submitted_at } => {
                format!("complete {client} req={req_id} submitted={}", submitted_at.as_nanos())
            }
        }
    }
}

/// An output of an automaton.
#[derive(Clone, Debug)]
pub enum Action {
    /// Send `msg` to a single node.
    Send {
        /// Destination.
        to: NodeId,
        /// Message.
        msg: ProtocolMsg,
    },
    /// Send `msg` to every replica except the sender itself.
    Broadcast {
        /// Message.
        msg: ProtocolMsg,
    },
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// Timer identity.
        kind: TimerKind,
        /// Delay from now.
        delay: Duration,
    },
    /// Disarm a timer.
    CancelTimer {
        /// Timer identity.
        kind: TimerKind,
    },
    /// Emit an observation.
    Notify(Notification),
}

/// Collects the actions of one automaton step.
#[derive(Debug, Default)]
pub struct Outbox {
    actions: Vec<Action>,
}

impl Outbox {
    /// An empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queues a unicast.
    pub fn send(&mut self, to: impl Into<NodeId>, msg: ProtocolMsg) {
        self.actions.push(Action::Send { to: to.into(), msg });
    }

    /// Queues a broadcast to all other replicas.
    pub fn broadcast(&mut self, msg: ProtocolMsg) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, kind: TimerKind, delay: Duration) {
        self.actions.push(Action::SetTimer { kind, delay });
    }

    /// Disarms a timer.
    pub fn cancel_timer(&mut self, kind: TimerKind) {
        self.actions.push(Action::CancelTimer { kind });
    }

    /// Emits an observation.
    pub fn notify(&mut self, n: Notification) {
        self.actions.push(Action::Notify(n));
    }

    /// Drains the queued actions.
    pub fn drain(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Drains the queued actions in order while keeping the outbox's
    /// capacity, so a runtime can recycle one outbox across events
    /// instead of allocating a fresh action vector per delivery.
    pub fn drain_iter(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    /// Read-only view of queued actions (tests).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A replica-side protocol automaton.
pub trait ReplicaAutomaton: Send {
    /// This replica's identity.
    fn id(&self) -> ReplicaId;

    /// Handles one event, appending resulting actions to `out`.
    fn on_event(&mut self, now: Time, event: Event, out: &mut Outbox);

    /// The replica's current view.
    fn current_view(&self) -> View;

    /// The next sequence number this replica has not yet executed
    /// (the contiguous execution frontier).
    fn execution_frontier(&self) -> SeqNum;

    /// Digest of the replica's application state, for cross-replica
    /// convergence audits (the runtimes assert all live replicas agree
    /// at quiescence).
    fn state_digest(&self) -> Digest;

    /// Digest of the replica's committed ledger history (sequence
    /// numbers, views, and batch digests — proof-independent, so it is
    /// comparable across replicas even in MAC mode where acceptance
    /// proofs are local evidence).
    fn ledger_digest(&self) -> Digest;

    /// Protocol name for reports.
    fn protocol_name(&self) -> &'static str;

    /// The concrete automaton behind the trait object — the escape
    /// hatch for runtime-side inspection of protocol-specific state
    /// (e.g. repair counters in recovery tests).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A client-side automaton: submits requests, collects replies,
/// retransmits on timeout.
pub trait ClientAutomaton: Send {
    /// This client's identity.
    fn id(&self) -> ClientId;

    /// Handles one event, appending resulting actions to `out`.
    fn on_event(&mut self, now: Time, event: Event, out: &mut Outbox);

    /// Number of requests this client has completed.
    fn completed(&self) -> u64;

    /// Number of requests currently in flight.
    fn in_flight(&self) -> usize;
}

/// Supplies operation payloads to client automatons (implemented by
/// `poe-workload`).
pub trait RequestSource: Send {
    /// The next operation for `client`, or `None` when the workload is
    /// exhausted.
    fn next_op(&mut self, client: ClientId) -> Option<Vec<u8>>;
}

/// A request source yielding a fixed payload forever (tests, zero-payload
/// runs).
#[derive(Clone, Debug)]
pub struct FixedPayloadSource {
    payload: Vec<u8>,
    remaining: Option<u64>,
}

impl FixedPayloadSource {
    /// Yields `payload` forever.
    pub fn unbounded(payload: Vec<u8>) -> FixedPayloadSource {
        FixedPayloadSource { payload, remaining: None }
    }

    /// Yields `payload` exactly `count` times per source.
    pub fn bounded(payload: Vec<u8>, count: u64) -> FixedPayloadSource {
        FixedPayloadSource { payload, remaining: Some(count) }
    }
}

impl RequestSource for FixedPayloadSource {
    fn next_op(&mut self, _client: ClientId) -> Option<Vec<u8>> {
        match &mut self.remaining {
            None => Some(self.payload.clone()),
            Some(0) => None,
            Some(left) => {
                *left -= 1;
                Some(self.payload.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(
            ReplicaId(1),
            ProtocolMsg::Checkpoint { seq: SeqNum(1), state_digest: Digest::EMPTY },
        );
        out.broadcast(ProtocolMsg::Checkpoint { seq: SeqNum(2), state_digest: Digest::EMPTY });
        out.set_timer(TimerKind::BatchCut, Duration::from_millis(1));
        out.cancel_timer(TimerKind::BatchCut);
        out.notify(Notification::Decided { seq: SeqNum(1) });
        assert_eq!(out.len(), 5);
        let actions = out.drain();
        assert!(matches!(actions[0], Action::Send { .. }));
        assert!(matches!(actions[1], Action::Broadcast { .. }));
        assert!(matches!(actions[2], Action::SetTimer { .. }));
        assert!(matches!(actions[3], Action::CancelTimer { .. }));
        assert!(matches!(actions[4], Action::Notify(_)));
        assert!(out.is_empty());
    }

    #[test]
    fn fixed_source_bounded() {
        let mut src = FixedPayloadSource::bounded(vec![1], 2);
        assert!(src.next_op(ClientId(0)).is_some());
        assert!(src.next_op(ClientId(0)).is_some());
        assert!(src.next_op(ClientId(0)).is_none());
    }

    #[test]
    fn fixed_source_unbounded() {
        let mut src = FixedPayloadSource::unbounded(vec![9]);
        for _ in 0..100 {
            assert_eq!(src.next_op(ClientId(1)), Some(vec![9]));
        }
    }
}
