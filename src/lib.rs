//! # proof-of-execution
//!
//! Facade crate re-exporting the full PoE reproduction: the
//! Proof-of-Execution BFT consensus protocol (EDBT 2021) with its
//! substrates. See the individual crates for details:
//!
//! * [`poe_crypto`] — from-scratch cryptographic toolbox.
//! * [`poe_kernel`] — consensus kernel (ids, messages, codec, automatons).
//! * [`poe_store`] — speculative key-value store with rollback.
//! * [`poe_ledger`] — hash-chained blockchain ledger.
//! * [`poe_workload`] — YCSB-style workload generation.
//! * [`poe_net`] — simulated and in-process network substrates.
//! * [`poe_consensus`] — the PoE protocol itself.
//! * [`poe_sim`] — deterministic discrete-event cluster simulator.
//! * [`poe_fabric`] — multi-threaded pipelined replica runtime.

#![forbid(unsafe_code)]

pub use poe_consensus as consensus;
pub use poe_crypto as crypto;
pub use poe_fabric as fabric;
pub use poe_kernel as kernel;
pub use poe_ledger as ledger;
pub use poe_net as net;
pub use poe_sim as sim;
pub use poe_store as store;
pub use poe_workload as workload;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude;
