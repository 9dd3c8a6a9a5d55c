//! # poe-consensus
//!
//! The Proof-of-Execution (PoE) consensus protocol of Gupta, Hellings,
//! Rahnama & Sadoghi (EDBT 2021), as a sans-I/O
//! [`poe_kernel::automaton::ReplicaAutomaton`]. The same automaton is
//! driven by the deterministic discrete-event simulator (`poe-sim`) and —
//! eventually — the threaded fabric runtime (`poe-fabric`).
//!
//! ## Map from code to paper
//!
//! | Paper | Here |
//! |---|---|
//! | Fig. 3 normal case, Lines 1–7 (client) | `poe_workload::client` with an `nf` reply quorum |
//! | Fig. 3 Lines 8–13: primary batches `⟨T⟩c`, sends PROPOSE | [`replica::PoeReplica::on_event`] request path + batch-cut timer (§III "Batching") |
//! | Fig. 3 Lines 14–19: backup checks PROPOSE, speculatively executes, sends SUPPORT | `accept_proposal` / `try_execute`; TS shares via [`poe_crypto::CryptoProvider::ts_share`], MAC digests per Appendix A |
//! | Fig. 3 Lines 20–22: primary aggregates `nf` shares into CERTIFY | `try_aggregate` (batch share verification, blame fallback) |
//! | Fig. 3 Line 23: view-commit + INFORM | `commit_slot` / `try_inform` |
//! | §II-C failure detection (rules 1–2) | `TimerKind::RequestProgress` / `TimerKind::SlotProgress` timeouts |
//! | Fig. 5 view change: VC-REQUEST(v, E) | `start_view_change` (entries = certified prefix after the stable checkpoint) |
//! | Fig. 5 NV-PROPOSE(v+1, m₁…m_nf) | `maybe_nv_propose` / `enter_new_view` |
//! | Fig. 5 Line 14: rollback of unproven speculative batches | `enter_new_view` → [`poe_kernel::statemachine::StateMachine::rollback_to`] + ledger truncation |
//! | §II-F out-of-order processing | [`poe_kernel::watermark::Watermarks`] window around `commit` frontier |
//! | Checkpoint protocol (§II-E, bounding E) | `Checkpoint` votes, `2f+1` stability, undo-log GC at the low watermark |
//! | State transfer (checkpoint recovery) | `STATE-REQUEST`/`STATE-CHUNK`: `f+1`-vouched manifest, chunked image fetch, certified tail adoption, token-bucket serving budget |
//! | Appendix A (MAC-based PoE) | [`replica::SupportMode::Mac`]: broadcast SUPPORT digests, local `nf`-matching certification, `f+1`-multiplicity view-change adoption |
//!
//! Both certificate instantiations of the crypto layer are supported:
//! `CertScheme::MultiSig` (vector-of-Ed25519 certificates, real
//! cryptography) and `CertScheme::Simulated` (dealer-keyed HMAC tags for
//! large simulation runs); the protocol logic is identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replica;

pub use replica::{support_digest, PoeReplica, RepairStats, SupportMode};
