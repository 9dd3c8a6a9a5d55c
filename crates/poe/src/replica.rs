//! The PoE replica automaton (paper Figures 3 and 5).
//!
//! Sans-I/O: the replica consumes [`Event`]s and emits [`Action`]s; the
//! simulator and fabric runtimes interpret them. All internal maps are
//! ordered (`BTreeMap`/`BTreeSet`) so the action stream is a pure
//! function of the event stream — the determinism the discrete-event
//! simulator's replayable traces rely on.

use poe_crypto::digest::{digest_concat, Digest, DIGEST_LEN};
use poe_crypto::ed25519::Signature;
use poe_crypto::provider::{CryptoMode, CryptoProvider, NodeIndex};
use poe_crypto::threshold::{SignatureShare, ThresholdCert, ThresholdError};
use poe_kernel::automaton::{Event, Notification, Outbox, ReplicaAutomaton};
use poe_kernel::codec::poe_vc_signing_bytes;
use poe_kernel::config::ClusterConfig;
use poe_kernel::ids::{NodeId, ReplicaId, SeqNum, View};
use poe_kernel::messages::{
    ClientReply, ExecEntry, PoeVcRequest, ProtocolMsg, RepairManifest, StateChunkPayload,
    StateRequestKind,
};
use poe_kernel::quorum::MatchingVotes;
use poe_kernel::request::{Batch, Batcher, ClientRequest};
use poe_kernel::statemachine::{ExecOutcome, StateMachine};
use poe_kernel::time::Time;
use poe_kernel::timer::TimerKind;
use poe_kernel::watermark::{ContiguousTracker, Watermarks};
use poe_kernel::wire::WireBytes;
use poe_ledger::{BlockProof, Ledger};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Cap on buffered future-view messages (delivery races around a view
/// change); beyond this, newcomers are dropped and client retransmission
/// recovers.
const MAX_STASHED: usize = 4096;

/// Cap on the retired-batch buffer filled at checkpoint GC. Runtimes
/// that recycle batch containers ([`PoeReplica::take_retired_batches`])
/// drain it every event; runtimes that do not (the simulator) must not
/// accumulate dead batches forever, so beyond this the GC simply drops
/// them.
const MAX_RETIRED: usize = 256;

/// How SUPPORT votes are authenticated and certified.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SupportMode {
    /// Figure 3: backups send signature shares to the primary, which
    /// aggregates `nf` of them into a CERTIFY certificate.
    Threshold,
    /// Appendix A: backups broadcast SUPPORT digests; every replica
    /// certifies locally once it holds `nf` matching votes. No
    /// transferable certificate exists, so view changes adopt entries
    /// appearing in `f + 1` distinct VC-REQUESTs instead.
    Mac,
}

impl SupportMode {
    /// The paper's pairing of support mode to authentication mode: MAC
    /// clusters (CMAC/HMAC) run the Appendix-A variant, signature
    /// clusters the threshold variant.
    pub fn for_crypto(mode: CryptoMode) -> SupportMode {
        match mode {
            CryptoMode::Hmac | CryptoMode::Cmac => SupportMode::Mac,
            CryptoMode::None | CryptoMode::Ed25519 => SupportMode::Threshold,
        }
    }
}

/// The digest `h = D(v ‖ k ‖ D(⟨T⟩c))` that SUPPORT shares and CERTIFY
/// certificates cover (Figure 3 Line 15).
pub fn support_digest(view: View, seq: SeqNum, batch_digest: &Digest) -> Digest {
    digest_concat(&[
        b"poe-support",
        &view.0.to_le_bytes(),
        &seq.0.to_le_bytes(),
        batch_digest.as_bytes(),
    ])
}

/// Per-sequence-number consensus state.
struct Slot {
    batch: Option<Arc<Batch>>,
    proposed_view: View,
    /// `h` for the accepted proposal (valid when `batch` is set).
    digest: Digest,
    /// TS mode, primary: collected signature shares (own included).
    shares: BTreeMap<u32, SignatureShare>,
    /// MAC mode: SUPPORT votes per digest from distinct replicas.
    mac_votes: MatchingVotes<Digest>,
    /// CERTIFY that arrived before its PROPOSE (verified once the batch
    /// is known).
    pending_cert: Option<ThresholdCert>,
    /// The verified certificate (TS mode).
    cert: Option<ThresholdCert>,
    committed: bool,
    executed: bool,
    results: Option<ExecOutcome>,
    informed: bool,
    certify_sent: bool,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            batch: None,
            proposed_view: View::ZERO,
            digest: Digest::EMPTY,
            shares: BTreeMap::new(),
            mac_votes: MatchingVotes::new(),
            pending_cert: None,
            cert: None,
            committed: false,
            executed: false,
            results: None,
            informed: false,
            certify_sent: false,
        }
    }
}

impl Slot {
    fn matches(&self, batch_digest: &Digest) -> bool {
        self.batch.as_ref().is_some_and(|b| b.digest == *batch_digest)
    }
}

/// In-progress view change.
struct VcState {
    target: View,
}

/// Largest checkpoint image a [`RepairManifest`] may advertise. The
/// manifest is vouched for by `f + 1` distinct replicas before any
/// fetching starts, so this is purely a defensive bound on allocation.
const MAX_REPAIR_IMAGE_BYTES: u64 = 1 << 31;

/// Cap on entries per served STATE-CHUNK tail (bounds response frames;
/// anything longer than the out-of-order window never occurs anyway).
const MAX_TAIL_ENTRIES: usize = 4096;

/// Number of chunks a checkpoint image of `image_len` bytes splits
/// into under `chunk_bytes`-sized chunks, or `None` when the advertised
/// length is implausible. Requester and responders share the cluster
/// config, so both sides compute the same split.
fn chunk_count(image_len: u64, chunk_bytes: usize) -> Option<u32> {
    if image_len > MAX_REPAIR_IMAGE_BYTES {
        return None;
    }
    Some(image_len.div_ceil(chunk_bytes as u64).max(1) as u32)
}

/// Counters for the state-transfer repair protocol: requester-side
/// progress plus responder-side serving and rate-limiting. Runtimes
/// surface these in their reports so operators can see both that a
/// lagging replica caught up and that serving it was budget-bounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RepairStats {
    /// Repairs started (manifest probe broadcast).
    pub repairs_started: u64,
    /// Repairs completed (`CaughtUp` emitted).
    pub repairs_completed: u64,
    /// Image chunks fetched and accepted.
    pub chunks_fetched: u64,
    /// Retry-timer fires while a repair was in progress.
    pub retries: u64,
    /// Manifests served to lagging peers.
    pub manifests_served: u64,
    /// Image chunks served to lagging peers.
    pub chunks_served: u64,
    /// Certified tails served to lagging peers.
    pub tails_served: u64,
    /// Repair requests dropped because the per-view serving budget was
    /// exhausted (the rate limit protecting normal-case consensus).
    pub throttled: u64,
    /// Budget refills granted by the idle tick rather than a new stable
    /// checkpoint — the liveness valve for repairs that start after
    /// client traffic has fully drained.
    pub idle_refills: u64,
}

/// Requester-side state of an in-progress repair (state transfer).
struct RepairState {
    /// Retry-timer fires so far; drives the exponential back-off and
    /// the source rotation for re-requested chunks.
    attempts: u32,
    /// Manifest → distinct replicas vouching for it (Probing phase).
    manifests: BTreeMap<RepairManifest, BTreeSet<ReplicaId>>,
    phase: RepairPhase,
}

enum RepairPhase {
    /// Broadcast STATE-REQUEST(Manifest); waiting for `f + 1` distinct
    /// peers to vouch for the same checkpoint manifest (at least one of
    /// them honest), which makes it safe to act on.
    Probing,
    /// Fetching the image chunks, round-robin across the vouchers.
    Fetching {
        manifest: RepairManifest,
        vouchers: Vec<ReplicaId>,
        chunks: Vec<Option<WireBytes>>,
        received: u32,
    },
    /// Checkpoint installed; fetching the certified entries above it.
    Tailing {
        manifest: RepairManifest,
        vouchers: Vec<ReplicaId>,
        /// Tails received so far, per sender (MAC mode cross-checks
        /// `f + 1` of them; TS mode verifies certificates directly).
        tails: BTreeMap<ReplicaId, Vec<ExecEntry>>,
    },
}

/// Responder-side cache of the serialized checkpoint image for the
/// current stable checkpoint, built lazily on the first manifest
/// request and reused for every chunk request against it.
struct RepairImageCache {
    manifest: RepairManifest,
    image: WireBytes,
}

/// The PoE replica automaton.
pub struct PoeReplica {
    cfg: ClusterConfig,
    id: ReplicaId,
    mode: SupportMode,
    crypto: CryptoProvider,
    store: Box<dyn StateMachine>,
    ledger: Ledger,
    view: View,
    view_change: Option<VcState>,
    /// Consecutive view changes without progress (exponential back-off,
    /// Theorem 7); reset when a slot commits.
    vc_attempts: u32,
    watermarks: Watermarks,
    /// Primary: next sequence number to assign.
    next_seq: SeqNum,
    batcher: Batcher,
    pending_batches: VecDeque<Arc<Batch>>,
    batch_timer_armed: bool,
    slots: BTreeMap<SeqNum, Slot>,
    /// Contiguous speculative-execution frontier (Figure 3 Line 20).
    exec: ContiguousTracker,
    /// Contiguous view-commit frontier; drives the watermark window.
    committed: ContiguousTracker,
    stable_seq: Option<SeqNum>,
    checkpoint_votes: BTreeMap<SeqNum, MatchingVotes<Digest>>,
    /// Client requests we forwarded to the primary and are watching
    /// (failure-detection rule 1, §II-C).
    forwarded: BTreeSet<Digest>,
    /// Primary: request digests already batched or proposed (dedup).
    proposed: BTreeSet<Digest>,
    /// Executed request digest → slot, for re-INFORM on retransmission.
    executed_reqs: BTreeMap<Digest, SeqNum>,
    /// VC-REQUESTs per *target* view (the view being moved into).
    pending_vc: BTreeMap<View, BTreeMap<ReplicaId, PoeVcRequest>>,
    /// Target views for which we already broadcast NV-PROPOSE.
    nv_sent: BTreeSet<View>,
    /// Messages from views ahead of ours, replayed after a view change.
    stashed: Vec<(NodeId, ProtocolMsg)>,
    /// Reused signing-bytes scratch for batched client-signature
    /// verification (one buffer per replica instead of one `Vec` per
    /// request per PROPOSE).
    sig_scratch: Vec<u8>,
    /// Batches whose slots were garbage-collected at the last stable
    /// checkpoints — this is where decoded batches actually die, so a
    /// runtime can recycle their containers into its decode
    /// [`poe_kernel::codec::BatchPool`]. Bounded by [`MAX_RETIRED`].
    retired: Vec<Arc<Batch>>,
    /// In-progress state transfer (requester side), if any.
    repair: Option<RepairState>,
    /// Highest aligned checkpoint vote seen per peer — the lag detector
    /// feeding [`Self::maybe_start_repair`]. Bounded by `n`.
    peer_checkpoints: BTreeMap<ReplicaId, SeqNum>,
    /// Responder-side serving budget: tokens left in the current view
    /// (refilled on checkpoint stability and view installation). Serving
    /// catch-up traffic must not starve normal-case consensus.
    repair_tokens: u32,
    /// Whether the idle-refill timer is armed (set on the first throttle
    /// after the budget runs dry; cleared when any refill lands).
    repair_refill_armed: bool,
    /// Responder-side cached checkpoint image.
    repair_cache: Option<RepairImageCache>,
    repair_stats: RepairStats,
}

impl PoeReplica {
    /// Builds a replica. `crypto` must be the provider for `id`; `store`
    /// is the replicated application (must support rollback).
    pub fn new(
        cfg: ClusterConfig,
        id: ReplicaId,
        mode: SupportMode,
        crypto: CryptoProvider,
        store: Box<dyn StateMachine>,
    ) -> PoeReplica {
        assert_eq!(crypto.index(), id.0, "crypto provider must belong to this replica");
        let initial_primary = View::ZERO.primary(cfg.n);
        let primary_key =
            *crypto.verifying_key_of(initial_primary.0).expect("initial primary key exists");
        let batch_size = cfg.batch_size;
        let window = cfg.ooo_window;
        let repair_tokens = cfg.repair_budget_chunks;
        PoeReplica {
            cfg,
            id,
            mode,
            crypto,
            store,
            ledger: Ledger::new(initial_primary, &primary_key),
            view: View::ZERO,
            view_change: None,
            vc_attempts: 0,
            watermarks: Watermarks::new(window),
            next_seq: SeqNum::ZERO,
            batcher: Batcher::new(batch_size),
            pending_batches: VecDeque::new(),
            batch_timer_armed: false,
            slots: BTreeMap::new(),
            exec: ContiguousTracker::new(),
            committed: ContiguousTracker::new(),
            stable_seq: None,
            checkpoint_votes: BTreeMap::new(),
            forwarded: BTreeSet::new(),
            proposed: BTreeSet::new(),
            executed_reqs: BTreeMap::new(),
            pending_vc: BTreeMap::new(),
            nv_sent: BTreeSet::new(),
            stashed: Vec::new(),
            sig_scratch: Vec::new(),
            retired: Vec::new(),
            repair: None,
            peer_checkpoints: BTreeMap::new(),
            repair_tokens,
            repair_refill_armed: false,
            repair_cache: None,
            repair_stats: RepairStats::default(),
        }
    }

    /// Rebuilds this replica as it restarts after a crash, keeping only
    /// what the durability model persists: configuration, identity, key
    /// material, the committed ledger, and the application state at the
    /// last stable checkpoint. All volatile consensus state — open
    /// slots, votes, batches, timers, the reply cache — is lost. The
    /// replica resumes in the view of its ledger head and relies on the
    /// checkpoint repair protocol to catch back up.
    pub fn into_restarted(mut self) -> PoeReplica {
        let stable = self.stable_seq;
        self.store.rollback_to(stable);
        self.ledger.truncate_above(stable);
        let view = self.ledger.iter().last().map(|b| b.view).unwrap_or(View::ZERO);
        let resume = stable.map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        let window = self.cfg.ooo_window;
        let batch_size = self.cfg.batch_size;
        let repair_tokens = self.cfg.repair_budget_chunks;
        let mut watermarks = Watermarks::new(window);
        watermarks.advance_to(resume);
        PoeReplica {
            cfg: self.cfg,
            id: self.id,
            mode: self.mode,
            crypto: self.crypto,
            store: self.store,
            ledger: self.ledger,
            view,
            view_change: None,
            vc_attempts: 0,
            watermarks,
            next_seq: resume,
            batcher: Batcher::new(batch_size),
            pending_batches: VecDeque::new(),
            batch_timer_armed: false,
            slots: BTreeMap::new(),
            exec: ContiguousTracker::starting_at(resume),
            committed: ContiguousTracker::starting_at(resume),
            stable_seq: stable,
            checkpoint_votes: BTreeMap::new(),
            forwarded: BTreeSet::new(),
            proposed: BTreeSet::new(),
            executed_reqs: BTreeMap::new(),
            pending_vc: BTreeMap::new(),
            nv_sent: BTreeSet::new(),
            stashed: Vec::new(),
            sig_scratch: Vec::new(),
            retired: Vec::new(),
            repair: None,
            peer_checkpoints: BTreeMap::new(),
            repair_tokens,
            repair_refill_armed: false,
            repair_cache: None,
            repair_stats: RepairStats::default(),
        }
    }

    /// The support mode in use.
    pub fn support_mode(&self) -> SupportMode {
        self.mode
    }

    /// Whether a view change is currently in progress.
    pub fn in_view_change(&self) -> bool {
        self.view_change.is_some()
    }

    /// The last stable checkpoint.
    pub fn stable_seq(&self) -> Option<SeqNum> {
        self.stable_seq
    }

    /// The committed ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Number of live consensus slots (bounded by window + GC).
    pub fn live_slots(&self) -> usize {
        self.slots.len()
    }

    /// The contiguous view-commit frontier.
    pub fn commit_frontier(&self) -> SeqNum {
        self.committed.frontier()
    }

    /// The low/high watermark window.
    pub fn watermarks(&self) -> &Watermarks {
        &self.watermarks
    }

    /// Counters for the state-transfer repair protocol.
    pub fn repair_stats(&self) -> RepairStats {
        self.repair_stats
    }

    /// Whether a repair (state transfer) is currently in progress.
    pub fn repairing(&self) -> bool {
        self.repair.is_some()
    }

    // ----------------------------------------------------------- helpers

    fn primary_of(&self, v: View) -> ReplicaId {
        v.primary(self.cfg.n)
    }

    fn is_primary(&self) -> bool {
        self.view_change.is_none() && self.primary_of(self.view) == self.id
    }

    fn nf(&self) -> usize {
        self.cfg.nf()
    }

    fn current_timeout(&self) -> poe_kernel::time::Duration {
        self.cfg.view_change_timeout(self.vc_attempts)
    }

    fn client_index(&self, client: poe_kernel::ids::ClientId) -> NodeIndex {
        NodeId::Client(client).global_index(self.cfg.n)
    }

    /// Verifies a client request signature under the cluster's crypto
    /// mode (`None` ⇒ unsigned requests are accepted).
    fn client_request_ok(&self, req: &ClientRequest) -> bool {
        match self.cfg.crypto_mode {
            CryptoMode::None => true,
            _ => match &req.signature {
                Some(sig) => {
                    let bytes = ClientRequest::signing_bytes(req.client, req.req_id, &req.op);
                    self.crypto.verify_from(self.client_index(req.client), &bytes, sig)
                }
                None => false,
            },
        }
    }

    fn stash(&mut self, from: NodeId, msg: ProtocolMsg) {
        if self.stashed.len() < MAX_STASHED {
            self.stashed.push((from, msg));
        }
    }

    // ------------------------------------------------------ client path

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Outbox) {
        let digest = req.digest();
        // Retransmission of an already-executed request: answer from the
        // cached results instead of re-ordering it (PBFT-style reply
        // cache; keeps re-proposals from double-executing).
        if let Some(seq) = self.executed_reqs.get(&digest).copied() {
            self.reinform(seq, &digest, out);
            return;
        }
        if self.view_change.is_some() {
            return; // Client retry re-drives after the view change.
        }
        if self.is_primary() {
            if self.proposed.contains(&digest) || !self.client_request_ok(&req) {
                return;
            }
            self.proposed.insert(digest);
            if let Some(batch) = self.batcher.push(req) {
                self.enqueue_proposal(batch, out);
            } else if !self.batch_timer_armed {
                self.batch_timer_armed = true;
                out.set_timer(TimerKind::BatchCut, self.cfg.batch_cut_delay);
            }
        } else {
            // Forward to the primary and start the progress detector
            // (§II-B / failure-detection rule 1).
            let primary = self.primary_of(self.view);
            out.send(primary, ProtocolMsg::Forward(req));
            self.forwarded.insert(digest);
            out.set_timer(TimerKind::RequestProgress(digest), self.current_timeout());
        }
    }

    /// Re-sends the INFORM for an executed request (client retransmitted
    /// after missing replies).
    fn reinform(&self, seq: SeqNum, req_digest: &Digest, out: &mut Outbox) {
        let Some(slot) = self.slots.get(&seq) else { return };
        if !slot.committed {
            return;
        }
        let (Some(batch), Some(results)) = (&slot.batch, &slot.results) else { return };
        for (i, req) in batch.requests.iter().enumerate() {
            if req.digest() == *req_digest {
                out.send(
                    NodeId::Client(req.client),
                    ProtocolMsg::Reply(ClientReply {
                        view: slot.proposed_view,
                        seq,
                        req_digest: *req_digest,
                        req_id: req.req_id,
                        result: results.results[i].clone(),
                        replica: self.id,
                    }),
                );
                return;
            }
        }
    }

    /// Fabric entry point: a batch pre-cut by the runtime's batching
    /// stage (paper §III / Figure 6: the primary's batch threads run
    /// ahead of the consensus thread). The runtime is expected to have
    /// verified client signatures already — the same trust the
    /// `Event::Deliver` contract places in it for sender identity.
    ///
    /// The automaton stays the safety net: if this replica is not (or no
    /// longer) the primary, or any request needs dedup handling (already
    /// proposed, or already executed and awaiting a re-INFORM), the
    /// batch is unbundled through the ordinary per-request client path.
    /// On the clean common path the pre-cut batch is proposed as-is.
    pub fn on_local_batch(&mut self, batch: Arc<Batch>, out: &mut Outbox) {
        if batch.is_empty() {
            return;
        }
        // Clean = every request is new to this replica *and* unique
        // within the batch (a client-retry storm can put several copies
        // of one request into the same cut window; proposing them as-is
        // would execute the op more than once).
        let mut fresh = BTreeSet::new();
        let clean = self.is_primary()
            && batch.requests.iter().all(|r| {
                let d = r.digest();
                !self.proposed.contains(&d)
                    && !self.executed_reqs.contains_key(&d)
                    && fresh.insert(d)
            });
        if clean {
            for req in &batch.requests {
                self.proposed.insert(req.digest());
            }
            self.enqueue_proposal(batch, out);
        } else {
            for req in batch.requests.iter().cloned() {
                self.on_client_request(req, out);
            }
        }
    }

    // ----------------------------------------------------- normal case

    fn enqueue_proposal(&mut self, batch: Arc<Batch>, out: &mut Outbox) {
        self.pending_batches.push_back(batch);
        self.drain_proposals(out);
    }

    /// Opens consensus slots while the out-of-order window has headroom
    /// (§II-F).
    fn drain_proposals(&mut self, out: &mut Outbox) {
        while self.is_primary()
            && !self.pending_batches.is_empty()
            && self.watermarks.in_window(self.next_seq)
        {
            let batch = self.pending_batches.pop_front().expect("checked non-empty");
            let seq = self.next_seq;
            self.next_seq = seq.next();
            let view = self.view;
            out.broadcast(ProtocolMsg::PoePropose { view, seq, batch: batch.clone() });
            self.accept_proposal(self.id, view, seq, batch, out);
        }
    }

    fn on_propose(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        batch: Arc<Batch>,
        out: &mut Outbox,
    ) {
        if view > self.view {
            self.stash(NodeId::Replica(from), ProtocolMsg::PoePropose { view, seq, batch });
            return;
        }
        if view < self.view || self.view_change.is_some() || from != self.primary_of(view) {
            return;
        }
        if !self.watermarks.in_window(seq) {
            return;
        }
        // Backups validate the client signatures the primary vouched for
        // (Figure 3 Line 14) — in one batched pass over one reused
        // scratch buffer (no per-request body allocations).
        if self.cfg.crypto_mode != CryptoMode::None {
            let n = self.cfg.n;
            let scratch = &mut self.sig_scratch;
            scratch.clear();
            let mut spans: Vec<(NodeIndex, std::ops::Range<usize>, Signature)> =
                Vec::with_capacity(batch.requests.len());
            for req in &batch.requests {
                let Some(sig) = &req.signature else { return };
                let start = scratch.len();
                ClientRequest::write_signing_bytes(scratch, req.client, req.req_id, &req.op);
                spans.push((
                    NodeId::Client(req.client).global_index(n),
                    start..scratch.len(),
                    *sig,
                ));
            }
            let items: Vec<(NodeIndex, &[u8], Signature)> =
                spans.iter().map(|(idx, span, sig)| (*idx, &scratch[span.clone()], *sig)).collect();
            if !self.crypto.verify_batch_from(&items) {
                return;
            }
        }
        self.accept_proposal(from, view, seq, batch, out);
    }

    fn accept_proposal(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        batch: Arc<Batch>,
        out: &mut Outbox,
    ) {
        let digest = support_digest(view, seq, &batch.digest);
        let slot = self.slots.entry(seq).or_default();
        if slot.batch.is_some() {
            // Duplicate (or equivocating) proposal: first accepted wins.
            return;
        }
        slot.batch = Some(batch);
        slot.digest = digest;
        slot.proposed_view = view;
        // The proposal carries the primary's own support.
        slot.mac_votes.insert(from, digest);
        let i_am_primary = from == self.id;
        match self.mode {
            SupportMode::Threshold => {
                let share = self.crypto.ts_share(digest.as_bytes());
                if i_am_primary {
                    slot.shares.insert(self.id.0, share);
                } else {
                    out.send(from, ProtocolMsg::PoeSupport { view, seq, share });
                }
            }
            SupportMode::Mac => {
                slot.mac_votes.insert(self.id, digest);
                if !i_am_primary {
                    out.broadcast(ProtocolMsg::PoeSupportMac { view, seq, digest });
                }
            }
        }
        if !slot.committed {
            out.set_timer(TimerKind::SlotProgress(seq), self.current_timeout());
        }
        // A CERTIFY that raced ahead of this PROPOSE can be checked now.
        let pending = self.slots.get_mut(&seq).and_then(|s| s.pending_cert.take());
        if let Some(cert) = pending {
            self.on_certify(self.primary_of(view), view, seq, cert, out);
        }
        self.try_execute(out);
        self.try_aggregate(seq, out);
        self.try_mac_commit(seq, out);
    }

    fn on_support(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        share: SignatureShare,
        out: &mut Outbox,
    ) {
        if view > self.view {
            self.stash(NodeId::Replica(from), ProtocolMsg::PoeSupport { view, seq, share });
            return;
        }
        if self.mode != SupportMode::Threshold
            || view < self.view
            || self.view_change.is_some()
            || self.primary_of(view) != self.id
            || share.signer != from.0
        {
            return;
        }
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        if slot.batch.is_none() || slot.certify_sent || slot.shares.contains_key(&share.signer) {
            // Unknown slot, already certified, or duplicate share from
            // this replica: either way the vote cannot advance anything
            // (Proposition 2's single-SUPPORT rule).
            return;
        }
        slot.shares.insert(share.signer, share);
        self.try_aggregate(seq, out);
    }

    /// Primary, TS mode: aggregate `nf` shares into a CERTIFY
    /// certificate. Shares are *not* verified on arrival — aggregation
    /// batch-verifies the whole set in one pass and only attributes
    /// blame serially if that fails, discarding the offender.
    fn try_aggregate(&mut self, seq: SeqNum, out: &mut Outbox) {
        if self.mode != SupportMode::Threshold || !self.is_primary() {
            return;
        }
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        if slot.batch.is_none() || slot.certify_sent || slot.shares.len() < self.cfg.nf() {
            return;
        }
        loop {
            let shares: Vec<SignatureShare> = slot.shares.values().cloned().collect();
            match self.crypto.ts_aggregate(slot.digest.as_bytes(), &shares) {
                Ok(cert) => {
                    slot.certify_sent = true;
                    let view = slot.proposed_view;
                    out.broadcast(ProtocolMsg::PoeCertify { view, seq, cert: cert.clone() });
                    self.commit_slot(seq, Some(cert), out);
                    return;
                }
                Err(ThresholdError::InvalidShare(signer)) => {
                    slot.shares.remove(&signer);
                    if slot.shares.len() < self.cfg.nf() {
                        return; // Wait for replacement shares.
                    }
                }
                Err(_) => return,
            }
        }
    }

    fn on_support_mac(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        digest: Digest,
        out: &mut Outbox,
    ) {
        if view > self.view {
            self.stash(NodeId::Replica(from), ProtocolMsg::PoeSupportMac { view, seq, digest });
            return;
        }
        if self.mode != SupportMode::Mac
            || view < self.view
            || self.view_change.is_some()
            || !self.watermarks.in_window(seq)
        {
            // The window check also bounds the slot table: a byzantine
            // replica voting on arbitrary far-future sequence numbers
            // must not materialize slots outside the active window.
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        slot.mac_votes.insert(from, digest);
        self.try_mac_commit(seq, out);
    }

    fn try_mac_commit(&mut self, seq: SeqNum, out: &mut Outbox) {
        if self.mode != SupportMode::Mac {
            return;
        }
        let Some(slot) = self.slots.get(&seq) else { return };
        if slot.batch.is_none() || slot.committed {
            return;
        }
        if slot.mac_votes.count_for(&slot.digest) >= self.nf() {
            self.commit_slot(seq, None, out);
        }
    }

    fn on_certify(
        &mut self,
        from: ReplicaId,
        view: View,
        seq: SeqNum,
        cert: ThresholdCert,
        out: &mut Outbox,
    ) {
        if view > self.view {
            self.stash(NodeId::Replica(from), ProtocolMsg::PoeCertify { view, seq, cert });
            return;
        }
        if self.mode != SupportMode::Threshold
            || view < self.view
            || self.view_change.is_some()
            || from != self.primary_of(view)
        {
            return;
        }
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        if slot.committed {
            return;
        }
        if slot.batch.is_none() {
            slot.pending_cert = Some(cert); // Raced ahead of its PROPOSE.
            return;
        }
        let valid = cert.signers.len() >= self.cfg.nf()
            && self.crypto.ts_verify_cert(slot.digest.as_bytes(), &cert);
        if valid {
            self.commit_slot(seq, Some(cert), out);
        }
    }

    /// View-commit (Figure 3 Line 23): the proposal is certified at this
    /// replica.
    fn commit_slot(&mut self, seq: SeqNum, cert: Option<ThresholdCert>, out: &mut Outbox) {
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        if slot.committed {
            return;
        }
        slot.committed = true;
        slot.cert = cert;
        out.cancel_timer(TimerKind::SlotProgress(seq));
        // Progress: reset the view-change back-off (Theorem 7).
        self.vc_attempts = 0;
        self.committed.complete(seq);
        self.watermarks.advance_to(self.committed.frontier());
        out.notify(Notification::Decided { seq });
        self.try_inform(seq, out);
        self.try_append_ledger();
        self.drain_proposals(out);
    }

    /// Speculative execution at the contiguous frontier (Figure 3
    /// Line 20: execute `k` only once `k − 1` has executed).
    fn try_execute(&mut self, out: &mut Outbox) {
        loop {
            let next = self.exec.frontier();
            let Some(slot) = self.slots.get_mut(&next) else { break };
            let Some(batch) = slot.batch.clone() else { break };
            if slot.executed {
                break;
            }
            let outcome = self.store.apply(next, &batch);
            let results_digest = outcome.digest();
            slot.executed = true;
            slot.results = Some(outcome);
            let view = slot.proposed_view;
            self.exec.complete(next);
            out.notify(Notification::Executed {
                view,
                seq: next,
                batch: batch.clone(),
                results_digest,
            });
            for req in &batch.requests {
                let d = req.digest();
                self.executed_reqs.insert(d, next);
                if self.forwarded.remove(&d) {
                    out.cancel_timer(TimerKind::RequestProgress(d));
                }
            }
            if (next.0 + 1).is_multiple_of(self.cfg.checkpoint_interval) {
                let state_digest = self.store.state_digest();
                out.broadcast(ProtocolMsg::Checkpoint { seq: next, state_digest });
                self.checkpoint_votes.entry(next).or_default().insert(self.id, state_digest);
                self.try_stable_checkpoint(next, out);
            }
            self.try_inform(next, out);
        }
        self.try_append_ledger();
    }

    /// INFORM the clients once a slot is both executed and view-committed.
    fn try_inform(&mut self, seq: SeqNum, out: &mut Outbox) {
        let Some(slot) = self.slots.get_mut(&seq) else { return };
        if !slot.committed || !slot.executed || slot.informed {
            return;
        }
        let (Some(batch), Some(results)) = (&slot.batch, &slot.results) else { return };
        slot.informed = true;
        for (i, req) in batch.requests.iter().enumerate() {
            out.send(
                NodeId::Client(req.client),
                ProtocolMsg::Reply(ClientReply {
                    view: slot.proposed_view,
                    seq,
                    req_digest: req.digest(),
                    req_id: req.req_id,
                    result: results.results[i].clone(),
                    replica: self.id,
                }),
            );
        }
    }

    /// Appends executed-and-committed slots to the ledger in order
    /// (§III-A; the proof of acceptance is the CERTIFY certificate in TS
    /// mode, the locally observed committee in MAC mode).
    fn try_append_ledger(&mut self) {
        loop {
            let next = self.ledger.head_seq().map(SeqNum::next).unwrap_or(SeqNum::ZERO);
            let Some(slot) = self.slots.get(&next) else { break };
            if !slot.committed || !slot.executed {
                break;
            }
            let Some(batch) = &slot.batch else { break };
            let proof = match &slot.cert {
                Some(cert) => BlockProof::Certificate(cert.clone()),
                None => {
                    let committee: Vec<_> = slot.mac_votes.voters_for(&slot.digest).collect();
                    if committee.len() >= self.cfg.nf() {
                        BlockProof::Committee(committee)
                    } else {
                        // Sub-quorum commits only arise from checkpoint
                        // subsumption (see `try_stable_checkpoint`).
                        let stable = self.stable_seq.expect("subsumed commit implies a checkpoint");
                        BlockProof::Checkpoint(stable)
                    }
                }
            };
            self.ledger.append(next, slot.proposed_view, batch.digest, proof);
        }
        self.gc_stable_slots();
    }

    /// Drops consensus slots that are both stable (at or below the last
    /// stable checkpoint) and fully retired (committed, executed, and on
    /// the ledger). A slot whose CERTIFY is still in flight when its
    /// checkpoint stabilizes survives until it commits — otherwise the
    /// commit would be lost and the ledger would hold a permanent gap.
    fn gc_stable_slots(&mut self) {
        let Some(stable) = self.stable_seq else { return };
        let appended = self.ledger.head_seq().map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        let bound = SeqNum(stable.next().0.min(appended.0));
        if self.slots.first_key_value().is_none_or(|(s, _)| *s >= bound) {
            return;
        }
        let live = self.slots.split_off(&bound);
        let dead = std::mem::replace(&mut self.slots, live);
        for slot in dead.into_values() {
            if let Some(batch) = slot.batch {
                for req in &batch.requests {
                    let d = req.digest();
                    self.proposed.remove(&d);
                    self.executed_reqs.remove(&d);
                }
                if self.retired.len() < MAX_RETIRED {
                    self.retired.push(batch);
                }
            }
        }
    }

    /// Drains the batches retired by checkpoint GC since the last call.
    /// The fabric runtime feeds these back into its ingress
    /// [`poe_kernel::codec::BatchPool`], closing the allocation-free
    /// decode loop (containers are recycled exactly where batches die).
    /// Runtimes that do not recycle may simply never call this; the
    /// buffer is bounded.
    pub fn take_retired_batches(&mut self) -> Vec<Arc<Batch>> {
        std::mem::take(&mut self.retired)
    }

    // ----------------------------------------------------- checkpoints

    fn on_checkpoint_vote(
        &mut self,
        from: ReplicaId,
        seq: SeqNum,
        state_digest: Digest,
        out: &mut Outbox,
    ) {
        // Honest checkpoints sit on interval boundaries and at most one
        // window ahead of us; anything else is noise and must not grow
        // the vote table (byzantine flooding of far-future seqs).
        let aligned = (seq.0 + 1).is_multiple_of(self.cfg.checkpoint_interval);
        if aligned {
            // Lag detector: remember the highest aligned checkpoint each
            // peer claims, even when the vote itself is filtered below
            // (a vote far past our window is exactly the signal that we
            // fell behind). Bounded by `n` entries.
            let best = self.peer_checkpoints.entry(from).or_insert(seq);
            if seq > *best {
                *best = seq;
            }
            self.maybe_start_repair(out);
        }
        let in_range = seq.0 < self.watermarks.high().0 + self.cfg.checkpoint_interval;
        if self.stable_seq.is_some_and(|s| seq <= s) || !aligned || !in_range {
            return;
        }
        self.checkpoint_votes.entry(seq).or_default().insert(from, state_digest);
        self.try_stable_checkpoint(seq, out);
    }

    /// `2f + 1` matching checkpoint votes (our own among them) make the
    /// checkpoint stable: undo logs below it are garbage-collected and
    /// the low watermark advances.
    fn try_stable_checkpoint(&mut self, seq: SeqNum, out: &mut Outbox) {
        if self.stable_seq.is_some_and(|s| seq <= s) {
            return;
        }
        let quorum = 2 * self.cfg.f + 1;
        let Some(votes) = self.checkpoint_votes.get(&seq) else { return };
        let Some(digest) = votes.quorum_value(quorum).copied() else { return };
        // We must agree with the stable value ourselves — a quorum we
        // are not part of means our state diverged or lags; that gap is
        // closed by the repair protocol (state transfer), not by
        // adopting a checkpoint we cannot verify.
        if !votes.voters_for(&digest).any(|r| r == self.id) {
            return;
        }
        self.stable_seq = Some(seq);
        self.store.stabilize(seq);
        // A stable checkpoint subsumes the per-slot acceptance proofs at
        // or below it: `2f + 1` replicas — our own matching state vote
        // among them — attest to a state that embeds every batch up to
        // `seq`. Speculative execution makes this matter: the checkpoint
        // can stabilize while a slot's SUPPORT/CERTIFY quorum is still
        // in flight, after which the advancing watermark discards the
        // late votes and the slot would otherwise never commit — gapping
        // the ledger and starving its clients forever.
        let subsumed: Vec<SeqNum> = self
            .slots
            .range(..=seq)
            .filter(|(_, s)| s.executed && !s.committed && s.batch.is_some())
            .map(|(k, _)| *k)
            .collect();
        for k in subsumed {
            self.commit_slot(k, None, out);
        }
        // Retire what is already on the ledger; slots whose commit is
        // still in flight are collected when it lands.
        self.try_append_ledger();
        self.checkpoint_votes = self.checkpoint_votes.split_off(&seq.next());
        self.watermarks.advance_to(seq.next());
        // A fresh stable checkpoint refills the repair-serving budget:
        // the rate limit is per checkpoint interval, so a recovering
        // peer makes steady progress while normal-case consensus always
        // keeps the lion's share of this replica's bandwidth.
        self.refill_repair_budget(out);
        out.notify(Notification::CheckpointStable { seq });
        self.drain_proposals(out);
    }

    // -------------------------------------- state transfer (repair)
    //
    // Closes the FellBehind gap: a replica whose execution or ledger
    // frontier sits below the cluster's stable checkpoint can never
    // recover through VC-REQUESTs (they only carry entries above the
    // checkpoint). Instead it fetches an `f + 1`-vouched checkpoint
    // image in chunks, installs it, rolls back unproven speculative
    // state, then adopts the certified tail above the checkpoint and
    // resumes live. Responders rate-limit serving with a token budget
    // so catch-up traffic cannot starve normal-case consensus.

    /// Lag detector: `f + 1` distinct peers voting for a checkpoint at
    /// least two full intervals past our execution frontier prove (at
    /// least one of them being honest) that the cluster moved on
    /// without us — our missing slots may already be garbage-collected
    /// there, so only state transfer can catch us up. This fires even
    /// when no view change occurs (n − 1 replicas keep forming quorums
    /// happily while we starve).
    fn maybe_start_repair(&mut self, out: &mut Outbox) {
        if self.repair.is_some() {
            return;
        }
        let need = self.cfg.f_plus_one();
        if self.peer_checkpoints.len() < need {
            return;
        }
        let mut seqs: Vec<SeqNum> = self.peer_checkpoints.values().copied().collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        let proved = seqs[need - 1];
        if proved.0 + 1 < self.exec.frontier().0 + 2 * self.cfg.checkpoint_interval {
            return;
        }
        if let Some(vc) = &self.view_change {
            // A view change with real backing takes precedence — it will
            // either complete (and its fell-behind branch starts the
            // repair) or time out and land back here. But a *unilateral*
            // attempt can never complete while the cluster demonstrably
            // makes progress without us (that is what the f + 1
            // checkpoint votes prove): typically our progress timers
            // fired during a partition. Waiting on it would deadlock the
            // recovery, so abandon it and repair instead.
            let backers = self.pending_vc.get(&vc.target).map_or(0, BTreeMap::len);
            if backers >= self.cfg.f_plus_one() {
                return;
            }
            let target = vc.target;
            self.view_change = None;
            out.cancel_timer(TimerKind::ViewChange(target));
        }
        self.start_repair(out);
    }

    /// Starts a repair: probe all peers for their checkpoint manifest.
    fn start_repair(&mut self, out: &mut Outbox) {
        if self.repair.is_some() {
            return;
        }
        self.repair = Some(RepairState {
            attempts: 0,
            manifests: BTreeMap::new(),
            phase: RepairPhase::Probing,
        });
        self.repair_stats.repairs_started += 1;
        out.broadcast(ProtocolMsg::StateRequest(StateRequestKind::Manifest));
        out.set_timer(TimerKind::Repair, self.cfg.repair_retry_timeout(0));
    }

    fn abandon_repair(&mut self, out: &mut Outbox) {
        if self.repair.take().is_some() {
            out.cancel_timer(TimerKind::Repair);
        }
    }

    /// Spends one serving token, counting the drop when none are left.
    ///
    /// The first throttle after the budget runs dry arms the idle-refill
    /// timer: refills normally ride on checkpoint stabilization, but
    /// when a repair starts after client traffic has fully drained no
    /// new checkpoints form, so without this valve the requester's
    /// retries would bounce off an empty bucket forever. The timer is
    /// armed once (not re-armed per throttle — requester retries faster
    /// than the refill period would push the deadline out indefinitely)
    /// and cleared by whichever refill lands first.
    fn take_repair_token(&mut self, out: &mut Outbox) -> bool {
        if self.repair_tokens == 0 {
            self.repair_stats.throttled += 1;
            if !self.repair_refill_armed {
                self.repair_refill_armed = true;
                out.set_timer(TimerKind::RepairBudget, self.cfg.repair_retry_timeout(0));
            }
            return false;
        }
        self.repair_tokens -= 1;
        true
    }

    /// Refills the serving budget to the configured cap and disarms the
    /// idle-refill timer (it only backstops the checkpoint refills).
    fn refill_repair_budget(&mut self, out: &mut Outbox) {
        self.repair_tokens = self.cfg.repair_budget_chunks;
        if self.repair_refill_armed {
            self.repair_refill_armed = false;
            out.cancel_timer(TimerKind::RepairBudget);
        }
    }

    /// Builds (or reuses) the serialized image + manifest for `stable`.
    /// Only the *current* stable checkpoint can be built; requests for
    /// an older cached one are still served from the cache until it is
    /// replaced.
    fn ensure_repair_cache(&mut self, stable: SeqNum) -> bool {
        if self.repair_cache.as_ref().is_some_and(|c| c.manifest.stable == stable) {
            return true;
        }
        if self.stable_seq != Some(stable) {
            return false;
        }
        // The repaired requester rebuilds its ledger from the image, so
        // ours must have reached the checkpoint (a commit may still be
        // in flight right after stabilization).
        if self.ledger.head_seq().is_none_or(|h| h < stable) {
            return false;
        }
        let Some(store_image) = self.store.checkpoint_image() else { return false };
        let count = stable.0 + 1;
        let mut image =
            Vec::with_capacity(8 + count as usize * (8 + DIGEST_LEN) + store_image.len());
        image.extend_from_slice(&count.to_le_bytes());
        for b in self.ledger.iter().take(count as usize) {
            image.extend_from_slice(&b.view.0.to_le_bytes());
            image.extend_from_slice(b.batch_digest.as_bytes());
        }
        image.extend_from_slice(&store_image);
        let manifest = RepairManifest {
            stable,
            state_digest: self.store.stable_state_digest(),
            history_digest: self.ledger.history_digest_up_to(stable),
            image_len: image.len() as u64,
            image_digest: Digest::of(&image),
        };
        self.repair_cache = Some(RepairImageCache { manifest, image: WireBytes::from(image) });
        true
    }

    /// Responder side: serve manifest / chunk / tail requests within
    /// the per-view token budget.
    fn on_state_request(&mut self, from: ReplicaId, kind: StateRequestKind, out: &mut Outbox) {
        if from == self.id {
            return;
        }
        match kind {
            StateRequestKind::Manifest => {
                let Some(stable) = self.stable_seq else { return };
                if !self.ensure_repair_cache(stable) || !self.take_repair_token(out) {
                    return;
                }
                let manifest = self.repair_cache.as_ref().expect("just built").manifest;
                self.repair_stats.manifests_served += 1;
                out.send(from, ProtocolMsg::StateChunk(StateChunkPayload::Manifest(manifest)));
            }
            StateRequestKind::Chunk { stable, chunk } => {
                if !self.ensure_repair_cache(stable) {
                    return;
                }
                // The cache may hold an older checkpoint than requested.
                if self.repair_cache.as_ref().is_none_or(|c| c.manifest.stable != stable) {
                    return;
                }
                if !self.take_repair_token(out) {
                    return;
                }
                let cache = self.repair_cache.as_ref().expect("checked");
                let chunk_bytes = self.cfg.repair_chunk_bytes;
                let len = cache.image.len();
                let total = len.div_ceil(chunk_bytes).max(1) as u32;
                if chunk >= total {
                    return;
                }
                let start = chunk as usize * chunk_bytes;
                let end = (start + chunk_bytes).min(len);
                let data = cache.image.slice(start..end);
                self.repair_stats.chunks_served += 1;
                out.send(
                    from,
                    ProtocolMsg::StateChunk(StateChunkPayload::Chunk {
                        stable,
                        chunk,
                        total,
                        data,
                    }),
                );
            }
            StateRequestKind::Tail { after } => {
                if !self.take_repair_token(out) {
                    return;
                }
                let mut entries = Vec::new();
                let mut s = after.next();
                while let Some(slot) = self.slots.get(&s) {
                    if !slot.committed || entries.len() >= MAX_TAIL_ENTRIES {
                        break;
                    }
                    let Some(batch) = &slot.batch else { break };
                    entries.push(ExecEntry {
                        view: slot.proposed_view,
                        seq: s,
                        cert: slot.cert.clone(),
                        batch: batch.clone(),
                    });
                    s = s.next();
                }
                self.repair_stats.tails_served += 1;
                out.send(from, ProtocolMsg::StateChunk(StateChunkPayload::Tail { after, entries }));
            }
        }
    }

    /// Requester side: STATE-CHUNK responses.
    fn on_state_chunk(&mut self, from: ReplicaId, payload: StateChunkPayload, out: &mut Outbox) {
        if from == self.id {
            return;
        }
        match payload {
            StateChunkPayload::Manifest(m) => self.on_repair_manifest(from, m, out),
            StateChunkPayload::Chunk { stable, chunk, total, data } => {
                self.on_repair_chunk(from, stable, chunk, total, data, out)
            }
            StateChunkPayload::Tail { after, entries } => {
                self.on_repair_tail(from, after, entries, out)
            }
        }
    }

    fn on_repair_manifest(&mut self, from: ReplicaId, m: RepairManifest, out: &mut Outbox) {
        // Reject manifests that would not advance us or advertise an
        // implausible image size.
        let Some(total) = chunk_count(m.image_len, self.cfg.repair_chunk_bytes) else { return };
        if m.stable < self.exec.frontier() {
            return;
        }
        let Some(repair) = self.repair.as_mut() else { return };
        if !matches!(repair.phase, RepairPhase::Probing) {
            return;
        }
        repair.manifests.entry(m).or_default().insert(from);
        let need = self.cfg.f_plus_one();
        if repair.manifests[&m].len() < need {
            return;
        }
        // `f + 1` distinct peers vouch for this exact manifest, so at
        // least one honest replica holds this checkpoint: fetch its
        // chunks, round-robin across the vouchers.
        let vouchers: Vec<ReplicaId> = repair.manifests[&m].iter().copied().collect();
        let attempts = repair.attempts;
        repair.phase = RepairPhase::Fetching {
            manifest: m,
            vouchers: vouchers.clone(),
            chunks: vec![None; total as usize],
            received: 0,
        };
        for i in 0..total {
            let to = vouchers[i as usize % vouchers.len()];
            out.send(
                to,
                ProtocolMsg::StateRequest(StateRequestKind::Chunk { stable: m.stable, chunk: i }),
            );
        }
        out.set_timer(TimerKind::Repair, self.cfg.repair_retry_timeout(attempts));
    }

    fn on_repair_chunk(
        &mut self,
        from: ReplicaId,
        stable: SeqNum,
        chunk: u32,
        total: u32,
        data: WireBytes,
        out: &mut Outbox,
    ) {
        let chunk_bytes = self.cfg.repair_chunk_bytes as u64;
        let Some(repair) = self.repair.as_mut() else { return };
        let RepairPhase::Fetching { manifest, vouchers, chunks, received } = &mut repair.phase
        else {
            return;
        };
        if manifest.stable != stable
            || !vouchers.contains(&from)
            || total as usize != chunks.len()
            || chunk as usize >= chunks.len()
        {
            return;
        }
        // Every chunk is exactly chunk_bytes long except the last.
        let expected = if chunk + 1 == total {
            (manifest.image_len - chunk_bytes * (total as u64 - 1)) as usize
        } else {
            chunk_bytes as usize
        };
        if data.len() != expected || chunks[chunk as usize].is_some() {
            return;
        }
        chunks[chunk as usize] = Some(data);
        *received += 1;
        self.repair_stats.chunks_fetched += 1;
        if (*received as usize) < chunks.len() {
            return;
        }
        // All chunks in hand: reassemble and verify against the vouched
        // manifest — the image digest is the safety gate (at least one
        // voucher is honest, so a digest-matching image IS the cluster's
        // checkpoint; a corrupt chunk can only fail the digest).
        let manifest = *manifest;
        let vouchers = std::mem::take(vouchers);
        let parts = std::mem::take(chunks);
        let mut image = Vec::with_capacity(manifest.image_len as usize);
        for part in &parts {
            image.extend_from_slice(part.as_ref().expect("all received").as_slice());
        }
        drop(parts);
        let ok = image.len() as u64 == manifest.image_len
            && Digest::of(&image) == manifest.image_digest
            && self.install_repair_image(&manifest, &image, out);
        let Some(repair) = self.repair.as_mut() else { return };
        if !ok {
            // Reassembly failed (some voucher lied) or the image did not
            // parse: refetch everything with rotated chunk sources.
            repair.attempts = repair.attempts.saturating_add(1);
            let attempts = repair.attempts;
            repair.phase = RepairPhase::Fetching {
                manifest,
                vouchers: vouchers.clone(),
                chunks: vec![None; total as usize],
                received: 0,
            };
            for i in 0..total {
                let to = vouchers[(i as usize + attempts as usize) % vouchers.len()];
                out.send(
                    to,
                    ProtocolMsg::StateRequest(StateRequestKind::Chunk {
                        stable: manifest.stable,
                        chunk: i,
                    }),
                );
            }
            out.set_timer(TimerKind::Repair, self.cfg.repair_retry_timeout(attempts));
            return;
        }
        // Checkpoint installed; fetch the certified tail above it.
        let attempts = repair.attempts;
        repair.phase =
            RepairPhase::Tailing { manifest, vouchers: vouchers.clone(), tails: BTreeMap::new() };
        for v in &vouchers {
            out.send(
                *v,
                ProtocolMsg::StateRequest(StateRequestKind::Tail { after: manifest.stable }),
            );
        }
        out.set_timer(TimerKind::Repair, self.cfg.repair_retry_timeout(attempts));
    }

    /// Parses and installs a digest-verified checkpoint image: replaces
    /// the application state, rebuilds the ledger prefix with
    /// [`BlockProof::Repaired`], rolls back speculative execution, and
    /// resets every tracker to resume from the checkpoint. Slots above
    /// the checkpoint survive (their commits are still valid) but are
    /// re-executed against the installed state.
    fn install_repair_image(&mut self, m: &RepairManifest, image: &[u8], out: &mut Outbox) -> bool {
        let stable = m.stable;
        let count = stable.0 + 1;
        // Layout: u64 block count, then (u64 view, batch digest) per
        // block, remainder = application state image.
        if image.len() < 8 || u64::from_le_bytes(image[..8].try_into().expect("8")) != count {
            return false;
        }
        let entry_len = 8 + DIGEST_LEN;
        let Some(blocks_len) = (count as usize).checked_mul(entry_len) else { return false };
        let Some(store_start) = blocks_len.checked_add(8) else { return false };
        if image.len() < store_start {
            return false;
        }
        let mut blocks = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let at = 8 + i * entry_len;
            let view = View(u64::from_le_bytes(image[at..at + 8].try_into().expect("8")));
            let digest = Digest::from_bytes(
                image[at + 8..at + entry_len].try_into().expect("digest length"),
            );
            blocks.push((view, digest));
        }
        // Roll back unproven speculative batches before overwriting the
        // application state (surfaced so runtimes can count it).
        let old_resume = self.stable_seq.map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        if self.exec.frontier() > old_resume {
            out.notify(Notification::RolledBack { to: self.stable_seq });
        }
        if !self.store.install_checkpoint(stable, &image[store_start..]) {
            return false;
        }
        self.ledger.truncate_above(None);
        for (i, (view, digest)) in blocks.into_iter().enumerate() {
            self.ledger.append(SeqNum(i as u64), view, digest, BlockProof::Repaired);
        }
        if self.store.state_digest() != m.state_digest
            || self.ledger.history_digest() != m.history_digest
        {
            // The image digest matched but its contents do not hash to
            // the vouched state: defensive — restart from a fresh probe.
            return false;
        }
        // Resume from the installed checkpoint: drop retired slots,
        // keep-but-reset live ones, and rebuild the trackers.
        let resume = stable.next();
        self.stable_seq = Some(stable);
        let live = self.slots.split_off(&resume);
        let dead = std::mem::replace(&mut self.slots, live);
        for slot in dead.into_values() {
            if let Some(batch) = slot.batch {
                for req in &batch.requests {
                    let d = req.digest();
                    self.proposed.remove(&d);
                    self.executed_reqs.remove(&d);
                }
                if self.retired.len() < MAX_RETIRED {
                    self.retired.push(batch);
                }
            }
        }
        self.exec = ContiguousTracker::starting_at(resume);
        self.committed = ContiguousTracker::starting_at(resume);
        self.executed_reqs.clear();
        for (seq, slot) in self.slots.iter_mut() {
            slot.executed = false;
            slot.results = None;
            slot.informed = false;
            if slot.committed {
                self.committed.complete(*seq);
            }
        }
        self.checkpoint_votes = self.checkpoint_votes.split_off(&resume);
        self.watermarks.advance_to(self.committed.frontier());
        if self.next_seq < self.committed.frontier() {
            self.next_seq = self.committed.frontier();
        }
        self.vc_attempts = 0;
        // Kept committed slots re-execute immediately against the
        // installed state (at small scale the out-of-order window often
        // spans the whole gap, leaving only these to replay).
        self.try_execute(out);
        true
    }

    fn on_repair_tail(
        &mut self,
        from: ReplicaId,
        after: SeqNum,
        entries: Vec<ExecEntry>,
        out: &mut Outbox,
    ) {
        {
            let Some(repair) = self.repair.as_ref() else { return };
            let RepairPhase::Tailing { manifest, vouchers, .. } = &repair.phase else { return };
            if manifest.stable != after || !vouchers.contains(&from) {
                return;
            }
        }
        match self.mode {
            SupportMode::Threshold => {
                // Certificates are transferable: one verified tail is
                // enough. (A faulty voucher could send a short or empty
                // tail and stop us early — liveness-only: the lag
                // detector re-fires and the next attempt rotates to a
                // different responder.)
                let adopt = self.verified_tail_prefix(after, &entries);
                let vouchers = vec![from];
                self.finish_repair(after, &vouchers, adopt, out);
            }
            SupportMode::Mac => {
                // No transferable certificates: adopt entries matching
                // in f + 1 distinct tails (at least one honest), exactly
                // the view-change adoption rule.
                let need = self.cfg.f_plus_one();
                let Some(repair) = self.repair.as_mut() else { return };
                let RepairPhase::Tailing { vouchers, tails, .. } = &mut repair.phase else {
                    return;
                };
                tails.insert(from, entries);
                if tails.len() < vouchers.len() {
                    return;
                }
                let mut adopt: Vec<ExecEntry> = Vec::new();
                let mut s = after.next();
                'adopting: loop {
                    let mut counts: BTreeMap<(View, Digest), (usize, &ExecEntry)> = BTreeMap::new();
                    for tail in tails.values() {
                        if let Some(e) = tail.iter().find(|e| e.seq == s) {
                            counts.entry((e.view, e.batch.digest)).or_insert((0, e)).0 += 1;
                        }
                    }
                    for (count, entry) in counts.into_values() {
                        if count >= need {
                            adopt.push(entry.clone());
                            s = s.next();
                            continue 'adopting;
                        }
                    }
                    break;
                }
                let vouchers = vouchers.clone();
                self.finish_repair(after, &vouchers, adopt, out);
            }
        }
    }

    /// TS mode: the longest consecutive certificate-verified prefix of a
    /// served tail.
    fn verified_tail_prefix(&self, after: SeqNum, entries: &[ExecEntry]) -> Vec<ExecEntry> {
        let mut adopt = Vec::new();
        let mut s = after.next();
        for e in entries {
            if e.seq != s {
                break;
            }
            let Some(cert) = &e.cert else { break };
            let h = support_digest(e.view, e.seq, &e.batch.digest);
            if cert.signers.len() < self.nf() || !self.crypto.ts_verify_cert(h.as_bytes(), cert) {
                break;
            }
            adopt.push(e.clone());
            s = s.next();
        }
        adopt
    }

    /// Adopts the proven tail entries, re-enters normal operation, and
    /// reports the catch-up. An empty tail still finishes: the lag
    /// detector restarts repair if we are still behind.
    fn finish_repair(
        &mut self,
        stable: SeqNum,
        vouchers: &[ReplicaId],
        adopt: Vec<ExecEntry>,
        out: &mut Outbox,
    ) {
        for e in adopt {
            let seq = e.seq;
            let slot = self.slots.entry(seq).or_default();
            if !slot.committed {
                let digest = support_digest(e.view, seq, &e.batch.digest);
                slot.batch = Some(e.batch.clone());
                slot.digest = digest;
                slot.proposed_view = e.view;
                slot.committed = true;
                slot.cert = e.cert.clone();
                slot.certify_sent = true;
                slot.executed = false;
                slot.results = None;
                slot.informed = false;
                // MAC mode has no certificate; the ledger proof becomes
                // the committee of vouchers that served this tail.
                for v in vouchers {
                    slot.mac_votes.insert(*v, digest);
                }
            }
            for req in &e.batch.requests {
                self.proposed.insert(req.digest());
            }
            self.committed.complete(seq);
        }
        self.watermarks.advance_to(self.committed.frontier());
        self.try_execute(out);
        out.cancel_timer(TimerKind::Repair);
        self.repair = None;
        self.repair_stats.repairs_completed += 1;
        out.notify(Notification::CaughtUp { stable, exec_frontier: self.exec.frontier() });
    }

    /// Retry timer: exponential back-off, re-request what is missing
    /// with rotated sources, and periodically restart from a fresh
    /// probe (the responders' stable checkpoint may have moved past the
    /// manifest we were fetching).
    fn repair_retry(&mut self, out: &mut Outbox) {
        let Some(repair) = self.repair.as_mut() else { return };
        self.repair_stats.retries += 1;
        repair.attempts = repair.attempts.saturating_add(1);
        let attempts = repair.attempts;
        if attempts.is_multiple_of(4) {
            repair.manifests.clear();
            repair.phase = RepairPhase::Probing;
        }
        match &repair.phase {
            RepairPhase::Probing => {
                out.broadcast(ProtocolMsg::StateRequest(StateRequestKind::Manifest));
            }
            RepairPhase::Fetching { manifest, vouchers, chunks, .. } => {
                for (i, c) in chunks.iter().enumerate() {
                    if c.is_none() {
                        let to = vouchers[(i + attempts as usize) % vouchers.len()];
                        out.send(
                            to,
                            ProtocolMsg::StateRequest(StateRequestKind::Chunk {
                                stable: manifest.stable,
                                chunk: i as u32,
                            }),
                        );
                    }
                }
            }
            RepairPhase::Tailing { manifest, vouchers, tails } => {
                for v in vouchers {
                    if !tails.contains_key(v) {
                        out.send(
                            *v,
                            ProtocolMsg::StateRequest(StateRequestKind::Tail {
                                after: manifest.stable,
                            }),
                        );
                    }
                }
            }
        }
        out.set_timer(TimerKind::Repair, self.cfg.repair_retry_timeout(attempts));
    }

    // ----------------------------------------------------- view change

    /// Requests a view change into `target` (Figure 5 Lines 1–5).
    fn start_view_change(&mut self, target: View, out: &mut Outbox) {
        if self.repair.is_some() {
            // Mid-repair this replica knows its state is stale: a
            // VC-REQUEST voted from it would carry an E behind the
            // cluster's stable checkpoint. The repair timer owns
            // liveness until the gap is closed; progress timers resume
            // after `finish_repair`.
            return;
        }
        if target <= self.view {
            return;
        }
        if let Some(vc) = &self.view_change {
            if vc.target >= target {
                return;
            }
        }
        self.view_change = Some(VcState { target });
        if self.batch_timer_armed {
            self.batch_timer_armed = false;
            out.cancel_timer(TimerKind::BatchCut);
        }
        // E: the consecutive certified transactions after the stable
        // checkpoint (Figure 5 Line 4).
        let mut entries = Vec::new();
        let mut s = self.stable_seq.map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        while let Some(slot) = self.slots.get(&s) {
            if !slot.committed {
                break;
            }
            let Some(batch) = &slot.batch else { break };
            entries.push(ExecEntry {
                view: slot.proposed_view,
                seq: s,
                cert: slot.cert.clone(),
                batch: batch.clone(),
            });
            s = s.next();
        }
        let mut vc = PoeVcRequest {
            from: self.id,
            view: View(target.0 - 1),
            stable_seq: self.stable_seq,
            entries,
            signature: Signature::from_bytes([0u8; 64]),
        };
        vc.signature = self.crypto.sign(&poe_vc_signing_bytes(&vc));
        out.broadcast(ProtocolMsg::PoeVcRequest(vc.clone()));
        self.pending_vc.entry(target).or_default().insert(self.id, vc);
        out.set_timer(TimerKind::ViewChange(target), self.current_timeout());
        self.vc_attempts = self.vc_attempts.saturating_add(1);
        self.maybe_nv_propose(target, out);
    }

    fn on_vc_request(&mut self, from: ReplicaId, vc: PoeVcRequest, out: &mut Outbox) {
        let target = vc.view.next();
        if target <= self.view || vc.from != from {
            return;
        }
        if !self.crypto.verify_from(vc.from.0, &poe_vc_signing_bytes(&vc), &vc.signature) {
            return;
        }
        self.pending_vc.entry(target).or_default().insert(vc.from, vc);
        // Join rule: f + 1 replicas demanding a newer view cannot all be
        // faulty — move with them (Figure 5 Line 7).
        let count = self.pending_vc.get(&target).map(|m| m.len()).unwrap_or(0);
        let past_ours = self.view_change.as_ref().is_none_or(|s| s.target < target);
        if past_ours && count >= self.cfg.f_plus_one() {
            self.start_view_change(target, out);
        }
        self.maybe_nv_propose(target, out);
    }

    /// The primary-elect of `target` proposes the new view once it holds
    /// `nf` VC-REQUESTs (Figure 5 Lines 9–11).
    fn maybe_nv_propose(&mut self, target: View, out: &mut Outbox) {
        if self.primary_of(target) != self.id
            || self.view >= target
            || self.nv_sent.contains(&target)
        {
            return;
        }
        let Some(requests) = self.pending_vc.get(&target) else { return };
        if requests.len() < self.nf() {
            return;
        }
        let chosen: Vec<PoeVcRequest> = requests.values().take(self.nf()).cloned().collect();
        self.nv_sent.insert(target);
        out.broadcast(ProtocolMsg::PoeNvPropose { new_view: target, requests: chosen.clone() });
        self.enter_new_view(target, &chosen, out);
    }

    fn on_nv_propose(
        &mut self,
        from: ReplicaId,
        new_view: View,
        requests: Vec<PoeVcRequest>,
        out: &mut Outbox,
    ) {
        if new_view <= self.view || from != self.primary_of(new_view) {
            return;
        }
        if requests.len() < self.nf() {
            return;
        }
        let mut senders = BTreeSet::new();
        for vc in &requests {
            if vc.view.next() != new_view
                || !senders.insert(vc.from)
                || !self.crypto.verify_from(vc.from.0, &poe_vc_signing_bytes(vc), &vc.signature)
            {
                return;
            }
        }
        self.enter_new_view(new_view, &requests, out);
    }

    /// Installs view `w` from `nf` VC-REQUESTs: recover the certified
    /// history, roll back speculative batches that did not survive
    /// (Figure 5 Lines 12–15), and resume normal operation.
    fn enter_new_view(&mut self, w: View, requests: &[PoeVcRequest], out: &mut Outbox) {
        // Stable base: the highest checkpoint any participant proved.
        let mut base = self.stable_seq;
        for r in requests {
            if r.stable_seq > base {
                base = r.stable_seq;
            }
        }
        let start = base.map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        let appended = self.ledger.head_seq().map(SeqNum::next).unwrap_or(SeqNum::ZERO);
        if base.is_some_and(|b| !self.exec.is_complete(b)) || appended < start {
            // We are behind the cluster's stable checkpoint — either we
            // have not executed through it, or a lost commit left our
            // ledger short of it (rebuilding only `start..` slots would
            // freeze the ledger at the gap forever). The VC-REQUESTs
            // cannot contain the batches we are missing. Adopt the view
            // (stay live for forwarding), surface the lag, and start the
            // checkpoint repair protocol: fetch an `f + 1`-vouched
            // checkpoint image plus the certified tail above it from the
            // peers that proved the newer checkpoint.
            if let Some(stable) = base {
                out.notify(Notification::FellBehind {
                    stable,
                    exec_frontier: self.exec.frontier(),
                    ledger_frontier: appended,
                });
            }
            self.install_view(w, out);
            self.start_repair(out);
            return;
        }
        // Recovering through the VC-REQUESTs means we are *not* behind a
        // stable checkpoint; any in-flight state transfer is moot.
        self.abandon_repair(out);
        // Recover the new history (Figure 5 Lines 9–10): per sequence
        // number the best provably-supported entry.
        let mut recovered: BTreeMap<SeqNum, ExecEntry> = BTreeMap::new();
        match self.mode {
            SupportMode::Threshold => {
                for r in requests {
                    for e in &r.entries {
                        if e.seq < start {
                            continue;
                        }
                        let Some(cert) = &e.cert else { continue };
                        let better = recovered.get(&e.seq).is_none_or(|prev| e.view > prev.view);
                        if !better {
                            continue;
                        }
                        let h = support_digest(e.view, e.seq, &e.batch.digest);
                        if cert.signers.len() >= self.nf()
                            && self.crypto.ts_verify_cert(h.as_bytes(), cert)
                        {
                            recovered.insert(e.seq, e.clone());
                        }
                    }
                }
            }
            SupportMode::Mac => {
                // No transferable certificates: adopt entries vouched for
                // by f + 1 distinct replicas (at least one non-faulty).
                let mut counts: BTreeMap<(SeqNum, View, Digest), BTreeSet<ReplicaId>> =
                    BTreeMap::new();
                for r in requests {
                    for e in &r.entries {
                        if e.seq < start {
                            continue;
                        }
                        counts.entry((e.seq, e.view, e.batch.digest)).or_default().insert(r.from);
                    }
                }
                for r in requests {
                    for e in &r.entries {
                        if e.seq < start {
                            continue;
                        }
                        let supporters =
                            counts.get(&(e.seq, e.view, e.batch.digest)).map(|s| s.len());
                        if supporters.is_some_and(|c| c >= self.cfg.f_plus_one()) {
                            let better =
                                recovered.get(&e.seq).is_none_or(|prev| e.view > prev.view);
                            if better {
                                recovered.insert(e.seq, e.clone());
                            }
                        }
                    }
                }
            }
        }
        // Keep only the gap-free prefix.
        let mut h_max: Option<SeqNum> = None;
        let mut s = start;
        while recovered.contains_key(&s) {
            h_max = Some(s);
            s = s.next();
        }
        match h_max {
            Some(h) => recovered.retain(|k, _| *k <= h),
            None => recovered.clear(),
        }
        // Longest locally-executed prefix that matches the recovered
        // history survives; everything above rolls back.
        let mut keep = base;
        let mut s = start;
        while h_max.is_some_and(|h| s <= h) {
            let matches = self.exec.is_complete(s)
                && self.slots.get(&s).is_some_and(|slot| slot.matches(&recovered[&s].batch.digest));
            if !matches {
                break;
            }
            keep = Some(s);
            s = s.next();
        }
        let keep_frontier = keep.map(|k| k.next()).unwrap_or(SeqNum::ZERO);
        if self.exec.frontier() > keep_frontier {
            self.store.rollback_to(keep);
            self.ledger.truncate_above(keep);
            out.notify(Notification::RolledBack { to: keep });
        }
        // Rebuild the slot table around the recovered history.
        let mut old = std::mem::take(&mut self.slots);
        for (seq, entry) in recovered {
            let mut slot = match old.remove(&seq) {
                Some(s) if s.matches(&entry.batch.digest) => s,
                _ => Slot::default(),
            };
            if seq >= keep_frontier {
                slot.executed = false;
                slot.results = None;
                slot.informed = false;
            }
            slot.batch = Some(entry.batch.clone());
            slot.digest = support_digest(entry.view, seq, &entry.batch.digest);
            slot.proposed_view = entry.view;
            slot.committed = true;
            slot.cert = entry.cert;
            slot.certify_sent = true;
            self.slots.insert(seq, slot);
        }
        // Reset the trackers to the recovered history.
        let committed_frontier = h_max.map(|h| h.next()).unwrap_or(start);
        self.exec = ContiguousTracker::starting_at(keep_frontier);
        self.committed = ContiguousTracker::starting_at(committed_frontier);
        self.next_seq = committed_frontier;
        self.watermarks.advance_to(committed_frontier);
        // Request bookkeeping now reflects exactly the recovered slots.
        self.proposed.clear();
        self.executed_reqs.clear();
        for (seq, slot) in &self.slots {
            if let Some(batch) = &slot.batch {
                for req in &batch.requests {
                    let d = req.digest();
                    self.proposed.insert(d);
                    if slot.executed {
                        self.executed_reqs.insert(d, *seq);
                    }
                }
            }
        }
        self.install_view(w, out);
        self.try_execute(out);
    }

    /// Common tail of a view installation: bookkeeping, notification,
    /// and replay of stashed future-view messages.
    fn install_view(&mut self, w: View, out: &mut Outbox) {
        out.cancel_timer(TimerKind::ViewChange(w));
        self.view = w;
        self.view_change = None;
        self.pending_vc = self.pending_vc.split_off(&w.next());
        self.batcher = Batcher::new(self.cfg.batch_size);
        self.pending_batches.clear();
        for d in std::mem::take(&mut self.forwarded) {
            out.cancel_timer(TimerKind::RequestProgress(d));
        }
        // Per-view refill of the repair-serving budget.
        self.refill_repair_budget(out);
        out.notify(Notification::ViewChanged { view: w });
        let stashed = std::mem::take(&mut self.stashed);
        for (from, msg) in stashed {
            self.dispatch(from, msg, out);
        }
    }

    // -------------------------------------------------------- dispatch

    fn dispatch(&mut self, from: NodeId, msg: ProtocolMsg, out: &mut Outbox) {
        match (from, msg) {
            (_, ProtocolMsg::Request(req)) | (_, ProtocolMsg::RequestBroadcast(req)) => {
                self.on_client_request(req, out)
            }
            (NodeId::Replica(_), ProtocolMsg::Forward(req)) if self.is_primary() => {
                self.on_client_request(req, out)
            }
            (NodeId::Replica(r), ProtocolMsg::PoePropose { view, seq, batch }) => {
                self.on_propose(r, view, seq, batch, out)
            }
            (NodeId::Replica(r), ProtocolMsg::PoeSupport { view, seq, share }) => {
                self.on_support(r, view, seq, share, out)
            }
            (NodeId::Replica(r), ProtocolMsg::PoeSupportMac { view, seq, digest }) => {
                self.on_support_mac(r, view, seq, digest, out)
            }
            (NodeId::Replica(r), ProtocolMsg::PoeCertify { view, seq, cert }) => {
                self.on_certify(r, view, seq, cert, out)
            }
            (NodeId::Replica(r), ProtocolMsg::PoeVcRequest(vc)) => self.on_vc_request(r, vc, out),
            (NodeId::Replica(r), ProtocolMsg::PoeNvPropose { new_view, requests }) => {
                self.on_nv_propose(r, new_view, requests, out)
            }
            (NodeId::Replica(r), ProtocolMsg::Checkpoint { seq, state_digest }) => {
                self.on_checkpoint_vote(r, seq, state_digest, out)
            }
            (NodeId::Replica(r), ProtocolMsg::StateRequest(kind)) => {
                self.on_state_request(r, kind, out)
            }
            (NodeId::Replica(r), ProtocolMsg::StateChunk(payload)) => {
                self.on_state_chunk(r, payload, out)
            }
            _ => {}
        }
    }

    fn on_timeout(&mut self, kind: TimerKind, out: &mut Outbox) {
        match kind {
            TimerKind::BatchCut => {
                self.batch_timer_armed = false;
                if self.is_primary() {
                    if let Some(batch) = self.batcher.flush() {
                        self.enqueue_proposal(batch, out);
                    }
                }
            }
            TimerKind::RequestProgress(d)
                if self.view_change.is_none() && self.forwarded.contains(&d) =>
            {
                self.start_view_change(self.view.next(), out);
            }
            TimerKind::SlotProgress(seq) => {
                let stalled = self
                    .slots
                    .get(&seq)
                    .is_some_and(|slot| slot.batch.is_some() && !slot.committed);
                if self.view_change.is_none() && stalled {
                    self.start_view_change(self.view.next(), out);
                }
            }
            TimerKind::ViewChange(target)
                if self.view_change.as_ref().is_some_and(|vc| vc.target == target) =>
            {
                // The new primary never materialized: escalate (Theorem
                // 7's exponential back-off keeps this live).
                self.start_view_change(target.next(), out);
            }
            TimerKind::Repair => self.repair_retry(out),
            TimerKind::RepairBudget => {
                // Idle refill: grant a fresh budget so a repair that
                // started after traffic drained keeps making progress.
                self.repair_refill_armed = false;
                self.repair_tokens = self.cfg.repair_budget_chunks;
                self.repair_stats.idle_refills += 1;
            }
            _ => {}
        }
    }
}

impl ReplicaAutomaton for PoeReplica {
    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_event(&mut self, _now: Time, event: Event, out: &mut Outbox) {
        match event {
            Event::Init => {}
            Event::Deliver { from, msg } => self.dispatch(from, msg, out),
            Event::Timeout(kind) => self.on_timeout(kind, out),
        }
    }

    fn current_view(&self) -> View {
        self.view
    }

    fn execution_frontier(&self) -> SeqNum {
        self.exec.frontier()
    }

    fn state_digest(&self) -> Digest {
        self.store.state_digest()
    }

    fn ledger_digest(&self) -> Digest {
        self.ledger.history_digest()
    }

    fn protocol_name(&self) -> &'static str {
        "poe"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
