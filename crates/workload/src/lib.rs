//! # poe-workload
//!
//! Workload generation matching the paper's evaluation setup (§IV):
//! YCSB-style requests from Blockbench's macro benchmarks — a table of
//! records, 90% write queries, Zipfian-distributed keys with skew 0.9 —
//! plus the zero-payload mode and the client automatons that submit
//! requests and collect replies.
//!
//! * [`zipf`] — the YCSB Zipfian generator (Gray et al.), with optional
//!   scrambling so hot keys spread over the table.
//! * [`ycsb`] — a [`poe_kernel::automaton::RequestSource`] producing
//!   serialized `poe-store` transactions.
//! * [`client`] — the client automaton: open/closed-loop submission,
//!   reply-quorum collection, and retransmission with primary discovery.
//! * [`openloop`] — the open-loop load engine: fixed-rate/Poisson
//!   arrival schedules and the session multiplexer that drives 10⁵–10⁶
//!   simulated client sessions from a few driver threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod openloop;
pub mod ycsb;
pub mod zipf;

pub use client::{ClientConfig, WorkloadClient};
pub use openloop::{ArrivalGen, ArrivalProcess, MuxStats, OpSource, SessionMux, Signer};
pub use ycsb::{YcsbConfig, YcsbWorkload};
pub use zipf::Zipfian;
