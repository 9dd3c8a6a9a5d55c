//! # poe-kernel
//!
//! The consensus kernel under the Proof-of-Execution protocol
//! (`poe-consensus`): everything the protocol automaton, its runtimes
//! and its clients share:
//!
//! * [`ids`] — replica/client/node identifiers, views, sequence numbers.
//! * [`time`] — virtual time and durations (nanosecond granularity).
//! * [`config`] — cluster configuration (`n`, `f`, batch size, timeouts,
//!   watermarks, crypto mode).
//! * [`request`] — client requests, transactions-as-bytes, and batches.
//! * [`messages`] — the PoE message vocabulary plus checkpointing and
//!   state transfer.
//! * [`codec`] — a hand-written, dependency-free binary wire format.
//! * [`quorum`] — distinct-sender vote counting and matching-value quorums.
//! * [`watermark`] — the out-of-order sequence window (PBFT-style
//!   low/high watermarks) that §II-F of the paper identifies as crucial.
//! * [`timer`] — logical timers for the sans-I/O automatons.
//! * [`automaton`] — the [`automaton::ReplicaAutomaton`] trait: protocols
//!   are deterministic state machines consuming [`automaton::Event`]s and
//!   emitting [`automaton::Action`]s; the simulator and the threaded fabric
//!   are two interpreters of the same automatons.
//! * [`statemachine`] — the replicated application interface with
//!   *speculative execution support* (apply / rollback / checkpoint), the
//!   hook that PoE's safe-rollback ingredient (I2) requires.
//! * [`wire`] — refcounted wire-buffer views ([`wire::WireBytes`]): the
//!   zero-copy unit shared by the codec's frame-backed decode mode, the
//!   network substrates, and request/reply payloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod codec;
pub mod config;
pub mod ids;
pub mod messages;
pub mod quorum;
pub mod request;
pub mod statemachine;
pub mod time;
pub mod timer;
pub mod watermark;
pub mod wire;

pub use automaton::{Action, Event, Outbox, ReplicaAutomaton};
pub use config::ClusterConfig;
pub use ids::{ClientId, NodeId, ReplicaId, SeqNum, View};
pub use messages::{ClientReply, Envelope, ProtocolMsg};
pub use request::{Batch, ClientRequest};
pub use statemachine::{ExecOutcome, StateMachine};
pub use time::{Duration, Time};
pub use wire::WireBytes;
