//! The PoE message vocabulary.
//!
//! One flat [`ProtocolMsg`] enum carries every message of PoE, plus the
//! checkpoint protocol, state transfer, and client traffic. A single enum
//! keeps the network substrate, codec, and simulator message-agnostic.
//!
//! Message names follow the paper: PoE's normal case is
//! PROPOSE → SUPPORT → CERTIFY → INFORM (Figure 3); its view change is
//! VC-REQUEST → NV-PROPOSE (Figure 5).

use crate::ids::{ReplicaId, SeqNum, View};
use crate::request::{Batch, ClientRequest};
use crate::wire::WireBytes;
use poe_crypto::digest::Digest;
use poe_crypto::ed25519::Signature;
use poe_crypto::provider::AuthTag;
use poe_crypto::threshold::{SignatureShare, ThresholdCert};
use std::sync::Arc;

/// One executed transaction in a PoE VC-REQUEST: the pair
/// `(CERTIFY(⟨h⟩, w, k), ⟨T⟩c)` of Figure 5 Line 4.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecEntry {
    /// The view in which the batch was certified.
    pub view: View,
    /// The sequence number.
    pub seq: SeqNum,
    /// The CERTIFY certificate proving `nf` replicas supported it.
    ///
    /// `None` in the MAC support mode (Appendix A): MAC-authenticated
    /// SUPPORT votes produce no transferable certificate, so the new
    /// primary instead requires an entry to appear in `f + 1` distinct
    /// VC-REQUESTs before adopting it.
    pub cert: Option<ThresholdCert>,
    /// The batch itself.
    pub batch: Arc<Batch>,
}

/// PoE view-change request: `VC-REQUEST(v, E)` (Figure 5).
///
/// Carried both standalone and inside NV-PROPOSE, so it is signed with the
/// sender's digital signature ("The VC-REQUEST messages need to be signed,
/// as they need to be forwarded without tampering", §II-E).
#[derive(Clone, PartialEq, Debug)]
pub struct PoeVcRequest {
    /// The requesting replica.
    pub from: ReplicaId,
    /// The view being abandoned.
    pub view: View,
    /// Stable checkpoint this summary starts after.
    pub stable_seq: Option<SeqNum>,
    /// Consecutive executed transactions after the stable checkpoint.
    pub entries: Vec<ExecEntry>,
    /// Ed25519 signature over the encoding of the fields above.
    pub signature: Signature,
}

/// A reply sent by a replica to a client.
#[derive(Clone, PartialEq, Debug)]
pub struct ClientReply {
    /// View in which the request executed.
    pub view: View,
    /// Sequence number under which the request's batch executed.
    pub seq: SeqNum,
    /// Digest of the client request this reply answers.
    pub req_digest: Digest,
    /// Client-local request id (for matching).
    pub req_id: u64,
    /// Execution result bytes. A shared view: every replica's INFORM for
    /// the same execution clones the view, not the bytes.
    pub result: WireBytes,
    /// The replying replica.
    pub replica: ReplicaId,
}

/// Description of a responder's latest stable checkpoint, sent in reply
/// to a STATE-REQUEST manifest probe. A lagging replica acts on a
/// manifest only once `f + 1` distinct peers vouch for the same one
/// (field-for-field), which guarantees at least one honest voucher.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RepairManifest {
    /// Sequence number of the stable checkpoint being offered.
    pub stable: SeqNum,
    /// Application state digest at `stable`.
    pub state_digest: Digest,
    /// [`Ledger::history_digest`] of the chain through `stable`.
    pub history_digest: Digest,
    /// Total length in bytes of the checkpoint image.
    pub image_len: u64,
    /// Digest of the full checkpoint image (verified after reassembly).
    pub image_digest: Digest,
}

/// What a STATE-REQUEST asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateRequestKind {
    /// "Describe your latest stable checkpoint" (broadcast probe).
    Manifest,
    /// One chunk of the checkpoint image at `stable`.
    Chunk {
        /// The checkpoint the requester is fetching.
        stable: SeqNum,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// Certified transactions committed above `after` (the requester's
    /// freshly installed checkpoint), so it can rejoin at the live edge.
    Tail {
        /// The sequence number the tail starts after.
        after: SeqNum,
    },
}

/// The payload of a STATE-CHUNK response.
#[derive(Clone, PartialEq, Debug)]
pub enum StateChunkPayload {
    /// Answer to a manifest probe.
    Manifest(RepairManifest),
    /// One chunk of the checkpoint image. `data` stays a shared view of
    /// the receive frame on decode (zero-copy).
    Chunk {
        /// The checkpoint the chunk belongs to.
        stable: SeqNum,
        /// Zero-based chunk index.
        chunk: u32,
        /// Total number of chunks in the image.
        total: u32,
        /// The chunk bytes.
        data: WireBytes,
    },
    /// The responder's committed transactions above `after`, oldest
    /// first and gap-free. Entries reuse [`ExecEntry`]: certificates are
    /// present in threshold mode and `None` in MAC mode (where the
    /// requester instead demands `f + 1` matching tails).
    Tail {
        /// The sequence number the tail starts after (echoes the request).
        after: SeqNum,
        /// Consecutive committed entries starting at `after + 1`.
        entries: Vec<ExecEntry>,
    },
}

/// Every message that can travel between nodes.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtocolMsg {
    // ------------------------------------------------------ client traffic
    /// Client → primary: a fresh request.
    Request(ClientRequest),
    /// Client → all replicas (retransmission fallback); replicas forward
    /// to the primary and start a progress timer.
    RequestBroadcast(ClientRequest),
    /// Replica → primary: forwarded client request.
    Forward(ClientRequest),
    /// Replica → client.
    Reply(ClientReply),

    // ------------------------------------------------------------ PoE (TS)
    /// Primary → all: `PROPOSE(⟨T⟩c, v, k)`.
    PoePropose {
        /// Current view.
        view: View,
        /// Assigned sequence number.
        seq: SeqNum,
        /// Proposed batch.
        batch: Arc<Batch>,
    },
    /// Backup → primary: `SUPPORT(s⟨h⟩i, v, k)` (threshold-signature mode).
    PoeSupport {
        /// Current view.
        view: View,
        /// Sequence number being supported.
        seq: SeqNum,
        /// This replica's signature share over `h = D(k‖v‖batch)`.
        share: SignatureShare,
    },
    /// Backup → all: `SUPPORT(D(⟨T⟩c), v, k)` (MAC mode, Appendix A).
    PoeSupportMac {
        /// Current view.
        view: View,
        /// Sequence number being supported.
        seq: SeqNum,
        /// Digest of the supported proposal.
        digest: Digest,
    },
    /// Primary → all: `CERTIFY(⟨h⟩, v, k)`.
    PoeCertify {
        /// Current view.
        view: View,
        /// Certified sequence number.
        seq: SeqNum,
        /// Aggregated threshold certificate.
        cert: ThresholdCert,
    },
    /// Replica → all: `VC-REQUEST(v, E)`.
    PoeVcRequest(PoeVcRequest),
    /// New primary → all: `NV-PROPOSE(v+1, m1…m_nf)`.
    PoeNvPropose {
        /// The view being proposed.
        new_view: View,
        /// The `nf` VC-REQUEST messages justifying the new view.
        requests: Vec<PoeVcRequest>,
    },

    // ----------------------------------------------------------- check-
    /// Periodic checkpoint vote (all → all).
    Checkpoint {
        /// Sequence number of the checkpoint.
        seq: SeqNum,
        /// Application state digest at that point.
        state_digest: Digest,
    },

    // ------------------------------------------------------ state transfer
    /// Lagging replica → peers: a repair request (manifest probe, image
    /// chunk fetch, or tail fetch).
    StateRequest(StateRequestKind),
    /// Peer → lagging replica: a repair response.
    StateChunk(StateChunkPayload),
}

impl ProtocolMsg {
    /// Short label for metrics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolMsg::Request(_) => "REQUEST",
            ProtocolMsg::RequestBroadcast(_) => "REQUEST-BCAST",
            ProtocolMsg::Forward(_) => "FORWARD",
            ProtocolMsg::Reply(_) => "INFORM",
            ProtocolMsg::PoePropose { .. } => "PROPOSE",
            ProtocolMsg::PoeSupport { .. } => "SUPPORT",
            ProtocolMsg::PoeSupportMac { .. } => "SUPPORT-MAC",
            ProtocolMsg::PoeCertify { .. } => "CERTIFY",
            ProtocolMsg::PoeVcRequest(_) => "VC-REQUEST",
            ProtocolMsg::PoeNvPropose { .. } => "NV-PROPOSE",
            ProtocolMsg::Checkpoint { .. } => "CHECKPOINT",
            ProtocolMsg::StateRequest(_) => "STATE-REQUEST",
            ProtocolMsg::StateChunk(_) => "STATE-CHUNK",
        }
    }
}

/// A message wrapped with sender identity and link authentication,
/// as it travels on the network.
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope {
    /// The sending node.
    pub from: crate::ids::NodeId,
    /// The message.
    pub msg: ProtocolMsg,
    /// Link authenticator (MAC, signature, or none; see
    /// [`poe_crypto::CryptoMode`]).
    pub auth: AuthTag,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use std::sync::Arc as StdArc;

    fn sample_batch() -> StdArc<Batch> {
        Batch::new(vec![ClientRequest::new(ClientId(1), 1, vec![1u8, 2, 3], None)])
    }

    #[test]
    fn labels_are_paper_names() {
        let b = sample_batch();
        assert_eq!(
            ProtocolMsg::PoePropose { view: View(0), seq: SeqNum(0), batch: b.clone() }.label(),
            "PROPOSE"
        );
        assert_eq!(
            ProtocolMsg::PoeSupportMac { view: View(0), seq: SeqNum(0), digest: b.digest }.label(),
            "SUPPORT-MAC"
        );
        assert_eq!(
            ProtocolMsg::Checkpoint { seq: SeqNum(0), state_digest: Digest::EMPTY }.label(),
            "CHECKPOINT"
        );
    }
}
