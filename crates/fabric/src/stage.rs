//! The four pipeline stages of one fabric replica (paper §III, Fig. 6).
//!
//! ```text
//!  hub ──▶ ingress ══▶ batching ──▶ consensus ──▶ egress ──▶ hub
//!            ▲  (bounded queue,        │ (replies)
//!            │   shed policy)          │
//!            └────── recycle ◀─────────┘ (batches retired at
//!                                         checkpoint GC)
//! ```
//!
//! * **ingress** — reads [`WireBytes`] frames from the hub, does pooled
//!   zero-copy decode ([`IngressDecoder`]), and routes: client traffic
//!   onto the **bounded** batch queue (shedding retransmissions at the
//!   high-water mark and any client request when full — open-loop
//!   overload must not grow memory without bound), everything else to
//!   the consensus stage (never bounded, never shed). The batch pool is
//!   refilled from the recycle channel.
//! * **batching** — the primary's admission stage: dedups against the
//!   per-client [`SessionTable`] (exactly-once replies under retry
//!   storms), verifies client signatures in chunks sharded across the
//!   [`AdmissionPool`], warms request digests, and cuts PROPOSE batches
//!   on size or `batch_cut_delay` triggers. While the consensus queue
//!   is deep it *defers* pulling admissions, which backpressures
//!   through the bounded queue into ingress shedding. On a non-primary
//!   it degrades to a relay (plus cached-reply service) so the
//!   automaton's forward/progress-timer machinery sees every request.
//! * **consensus** — owns the [`PoeReplica`] automaton and its
//!   [`TimerWheel`]; every outbox action is interpreted here: sends and
//!   broadcasts encode **once** into a shared frame, client replies are
//!   handed to the egress stage, timers go on the wheel, and batches
//!   retired by checkpoint GC flow back to the ingress pool.
//! * **egress** — encodes and delivers client replies (the INFORM
//!   fan-out is `batch_size` messages per batch, so taking it off the
//!   consensus thread is a real pipeline win), recording each encoded
//!   frame in the session table's reply cache.
//!
//! Every stage thread reports its on-CPU time at exit, so a run can be
//! normalized to requests/sec/core with the load generator excluded.
//!
//! Speculative execution itself stays inside the automaton transition
//! (on the consensus thread): in PoE, execution at the proposal is part
//! of the deterministic state machine the protocol's safety argument is
//! about, so splitting it out would change the automaton, not just the
//! runtime. What the paper's execution stage *delivers* — results to
//! clients — is what the egress stage pipelines.

use crate::admission::{default_workers, AdmissionPool};
use crate::cpu::thread_cpu_ns;
use crate::ingress::{IngressDecoder, IngressStats};
use crate::queue::{bounded, BoundedReceiver, BoundedSender, DepthGauge, RecvError, TrySendError};
use crate::runtime::{encode_frame, ClusterShared, LinkAuth, TICK};
use crate::session::{Admit, SessionStats, SessionTable};
use crate::telemetry::{ReplicaTelemetry, TelemetrySources};
use crate::wheel::TimerWheel;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use poe_consensus::{PoeReplica, SupportMode};
use poe_crypto::{CryptoMode, CryptoProvider, KeyMaterial};
use poe_kernel::automaton::{Action, Event, Notification, Outbox, ReplicaAutomaton};
use poe_kernel::codec::envelope_msg_offset;
use poe_kernel::config::ClusterConfig;
use poe_kernel::ids::{ClientId, NodeId, ReplicaId};
use poe_kernel::messages::ProtocolMsg;
use poe_kernel::request::{Batch, Batcher, ClientRequest};
use poe_kernel::wire::WireBytes;
use poe_net::Hub;
use poe_store::SpeculativeStore;
use poe_telemetry::ProtoEvent;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How many client messages the batching stage drains per admission
/// chunk (amortizes batched signature verification and session-table
/// locking; also the scatter unit for the admission pool).
const ADMIT_CHUNK: usize = 64;

/// How long batching pauses before re-checking a deep consensus queue.
const DEFER_PAUSE: std::time::Duration = std::time::Duration::from_millis(1);

/// Runtime tuning knobs of the pipeline: backpressure bounds, session
/// reply cache, and admission parallelism. Everything protocol-visible
/// stays in [`ClusterConfig`]; these only shape how the wall-clock
/// runtime schedules the same automaton.
#[derive(Clone, Debug)]
pub struct FabricTuning {
    /// Capacity of the bounded ingress→batching queue (the backpressure
    /// point: when full, ingress sheds client requests).
    pub batch_queue_cap: usize,
    /// Client-signature verify workers per replica; `None` picks a
    /// default from the core count (0 on small hosts = inline batched
    /// verification).
    pub admission_workers: Option<usize>,
    /// Byte budget for cached encoded reply frames per replica.
    pub reply_cache_bytes: usize,
    /// How long a duplicate-in-flight request is suppressed before
    /// being passed through to the automaton anyway (liveness valve).
    pub session_grace: std::time::Duration,
    /// Consensus-queue depth above which batching defers admissions.
    pub consensus_defer_depth: u64,
}

impl Default for FabricTuning {
    fn default() -> FabricTuning {
        FabricTuning {
            batch_queue_cap: 4096,
            admission_workers: None,
            reply_cache_bytes: 1 << 20,
            session_grace: std::time::Duration::from_millis(400),
            consensus_defer_depth: 256,
        }
    }
}

/// Work items on a replica's consensus queue.
enum ConsensusJob {
    /// A decoded protocol message (from ingress, or relayed by batching).
    Deliver { from: NodeId, msg: ProtocolMsg },
    /// A batch pre-cut by the batching stage.
    LocalBatch(Arc<Batch>),
}

/// An unbounded sender with occupancy tracking: producers `inc` the
/// gauge on send, the consuming loop `dec`s on receive, so reports can
/// show where the pipeline queues (and batching can defer on depth).
struct Gauged<T> {
    tx: Sender<T>,
    gauge: Arc<DepthGauge>,
}

impl<T> Clone for Gauged<T> {
    fn clone(&self) -> Gauged<T> {
        Gauged { tx: self.tx.clone(), gauge: self.gauge.clone() }
    }
}

impl<T> Gauged<T> {
    fn send(&self, item: T) -> bool {
        // Inc *before* the send: the receiver may dequeue (and dec)
        // before a post-send inc could run, wrapping the gauge.
        self.gauge.inc();
        let ok = self.tx.send(item).is_ok();
        if !ok {
            self.gauge.dec();
        }
        ok
    }
}

/// Cheap cross-thread view of one replica's progress, published by the
/// consensus stage after every event. The harness polls these to detect
/// quiescence; the batching stage reads `primary` to know whether to
/// cut batches or relay.
pub(crate) struct ReplicaProbe {
    id: ReplicaId,
    n: usize,
    view: AtomicU64,
    exec: AtomicU64,
    commit: AtomicU64,
    events: AtomicU64,
    primary: AtomicBool,
}

/// Snapshot of a [`ReplicaProbe`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ProbeSnapshot {
    pub view: u64,
    pub exec: u64,
    pub commit: u64,
    pub events: u64,
}

impl ReplicaProbe {
    fn new(id: ReplicaId, n: usize) -> Arc<ReplicaProbe> {
        Arc::new(ReplicaProbe {
            id,
            n,
            view: AtomicU64::new(0),
            exec: AtomicU64::new(0),
            commit: AtomicU64::new(0),
            events: AtomicU64::new(0),
            primary: AtomicBool::new(poe_kernel::ids::View::ZERO.primary(n) == id),
        })
    }

    fn publish(&self, replica: &PoeReplica) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let view = replica.current_view();
        self.view.store(view.0, Ordering::Relaxed);
        self.exec.store(replica.execution_frontier().0, Ordering::Relaxed);
        self.commit.store(replica.commit_frontier().0, Ordering::Relaxed);
        let primary = view.primary(self.n) == self.id && !replica.in_view_change();
        self.primary.store(primary, Ordering::Relaxed);
    }

    fn is_primary(&self) -> bool {
        self.primary.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            view: self.view.load(Ordering::Relaxed),
            exec: self.exec.load(Ordering::Relaxed),
            commit: self.commit.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
        }
    }
}

/// Counters of one replica's batching stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchingStats {
    /// Client requests that reached this stage.
    pub requests_seen: u64,
    /// Requests rejected for a missing/invalid client signature.
    pub rejected_sigs: u64,
    /// Batches cut (size or delay trigger) and handed to consensus.
    pub batches_cut: u64,
    /// Messages relayed to consensus while not primary.
    pub relayed: u64,
    /// Cached replies served directly from this stage (retry hits).
    pub cache_replies_sent: u64,
    /// Times the stage paused admissions because the consensus queue
    /// was above the defer depth (backpressure propagating to ingress).
    pub deferrals: u64,
    /// Peak depth of the bounded ingress→batching queue.
    pub queue_peak: usize,
    /// Items ever accepted by the bounded queue.
    pub queue_enqueued: u64,
    /// On-CPU ns of the admission pool's worker threads.
    pub admission_cpu_ns: u64,
    /// On-CPU ns of the batching thread itself.
    pub cpu_ns: u64,
}

/// Counters of one replica's consensus stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConsensusStats {
    /// Automaton events processed (deliveries, local batches, timeouts).
    pub events: u64,
    /// Timer fires delivered (current generation only).
    pub timer_fires: u64,
    /// Unicast frames sent to replicas.
    pub sends: u64,
    /// Broadcasts (each encoded exactly once).
    pub broadcasts: u64,
    /// Batches speculatively executed.
    pub executed: u64,
    /// View-commits (`Decided` notifications).
    pub decided: u64,
    /// Stable checkpoints observed.
    pub checkpoints: u64,
    /// View changes completed.
    pub view_changes: u64,
    /// Speculative rollbacks.
    pub rollbacks: u64,
    /// `FellBehind` notifications (replica needs state transfer).
    pub fell_behind: u64,
    /// `CaughtUp` notifications (a state-transfer repair completed).
    pub caught_up: u64,
    /// Batches retired by checkpoint GC and sent back for recycling.
    pub retired: u64,
    /// Peak depth of the consensus queue.
    pub queue_peak: u64,
    /// On-CPU ns of the consensus thread.
    pub cpu_ns: u64,
}

/// Counters of one replica's egress (reply) stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct EgressStats {
    /// Client replies encoded and delivered.
    pub replies_sent: u64,
    /// Replies whose client was already gone (send failed).
    pub dropped: u64,
    /// Peak depth of the reply queue.
    pub queue_peak: u64,
    /// On-CPU ns of the egress thread.
    pub cpu_ns: u64,
}

/// Everything needed to spawn one replica's stage threads.
pub(crate) struct ReplicaSpawn<H: Hub> {
    pub shared: Arc<ClusterShared<H>>,
    pub cluster: ClusterConfig,
    pub support: SupportMode,
    pub km: Arc<KeyMaterial>,
    pub id: ReplicaId,
    pub tuning: FabricTuning,
    /// Clients' in-flight window: reply frames cached per session.
    pub client_window: usize,
    /// Per-peer tagging of replica→replica frames (socket substrates);
    /// [`LinkAuth::disabled`] on trusted in-process hubs.
    pub link_auth: LinkAuth,
    /// Shared metrics + flight recorder; outlives crash/restart so the
    /// protocol timeline spans the fault.
    pub telemetry: Arc<ReplicaTelemetry>,
}

/// Join handles + probe of one running replica.
pub(crate) struct ReplicaHandle {
    pub id: ReplicaId,
    pub probe: Arc<ReplicaProbe>,
    /// Per-replica kill switch: set by [`ReplicaHandle::halt`] to crash
    /// just this replica's four stage threads while the rest of the
    /// cluster keeps running (crash-recovery experiments).
    halt: Arc<AtomicBool>,
    session: Arc<Mutex<SessionTable>>,
    ingress: JoinHandle<IngressStats>,
    batching: JoinHandle<BatchingStats>,
    consensus: JoinHandle<(ConsensusStats, Box<PoeReplica>)>,
    egress: JoinHandle<EgressStats>,
}

/// What joining a replica yields: final automaton state + stage stats.
pub(crate) struct ReplicaJoin {
    pub id: ReplicaId,
    pub replica: Box<PoeReplica>,
    pub ingress: IngressStats,
    pub batching: BatchingStats,
    pub consensus: ConsensusStats,
    pub egress: EgressStats,
    pub session: SessionStats,
}

impl ReplicaHandle {
    /// Registers the replica on the hub and spawns its four stage
    /// threads. Must be called for every replica before any client
    /// starts submitting (the hub only routes to registered nodes).
    pub fn spawn<H: Hub>(spec: ReplicaSpawn<H>) -> ReplicaHandle {
        let replica = Box::new(PoeReplica::new(
            spec.cluster.clone(),
            spec.id,
            spec.support,
            spec.km.replica(spec.id.index()),
            Box::new(SpeculativeStore::new()),
        ));
        ReplicaHandle::spawn_with(spec, replica)
    }

    /// [`ReplicaHandle::spawn`] with an existing automaton — the restart
    /// path after a crash: the caller rebuilds the replica from its
    /// durable state ([`PoeReplica::into_restarted`]) and re-registering
    /// on the hub replaces the dead endpoint, so traffic flows again.
    pub fn spawn_with<H: Hub>(spec: ReplicaSpawn<H>, replica: Box<PoeReplica>) -> ReplicaHandle {
        let ReplicaSpawn {
            shared,
            cluster,
            support: _,
            km,
            id,
            tuning,
            client_window,
            link_auth,
            telemetry,
        } = spec;
        let hub_rx = shared.hub.register(NodeId::Replica(id));
        let (cons_tx, cons_rx) = unbounded::<ConsensusJob>();
        let cons_tx = Gauged { tx: cons_tx, gauge: DepthGauge::new() };
        let (batch_tx, batch_rx) = bounded::<(NodeId, ProtocolMsg)>(tuning.batch_queue_cap);
        let (reply_tx, reply_rx) = unbounded::<(ClientId, ProtocolMsg)>();
        let reply_tx = Gauged { tx: reply_tx, gauge: DepthGauge::new() };
        let (recycle_tx, recycle_rx) = unbounded::<Arc<Batch>>();
        let probe = ReplicaProbe::new(id, cluster.n);
        let halt = Arc::new(AtomicBool::new(false));
        let session = Arc::new(Mutex::new(SessionTable::new(
            tuning.reply_cache_bytes,
            client_window,
            tuning.session_grace,
        )));
        telemetry.attach_sources(TelemetrySources {
            probe: probe.clone(),
            batch_depth: batch_tx.gauge(),
            cons_depth: cons_tx.gauge.clone(),
            reply_depth: reply_tx.gauge.clone(),
        });

        let name = |stage: &str| format!("r{}-{stage}", id.0);

        let ingress = {
            let shared = shared.clone();
            let cons_tx = cons_tx.clone();
            let halt = halt.clone();
            let link_auth = link_auth.clone();
            let tel = telemetry.clone();
            let n = cluster.n;
            std::thread::Builder::new()
                .name(name("ingress"))
                .spawn(move || {
                    ingress_loop(
                        shared, halt, hub_rx, recycle_rx, batch_tx, cons_tx, link_auth, tel, n,
                    )
                })
                .expect("spawn ingress")
        };
        let batching = {
            let deps = BatchingDeps {
                shared: shared.clone(),
                halt: halt.clone(),
                batch_rx,
                cons_tx: cons_tx.clone(),
                probe: probe.clone(),
                crypto: (cluster.crypto_mode != CryptoMode::None).then(|| km.replica(id.index())),
                batch_size: cluster.batch_size,
                cut_delay: cluster.batch_cut_delay.to_std(),
                n: cluster.n,
                session: session.clone(),
                workers: tuning.admission_workers.unwrap_or_else(default_workers),
                defer_depth: tuning.consensus_defer_depth,
                id,
                tel: telemetry.clone(),
            };
            std::thread::Builder::new()
                .name(name("batching"))
                .spawn(move || batching_loop(deps))
                .expect("spawn batching")
        };
        let reply_gauge = reply_tx.gauge.clone();
        let consensus = {
            let shared = shared.clone();
            let probe = probe.clone();
            let halt = halt.clone();
            let gauge = cons_tx.gauge.clone();
            let link_auth = link_auth.clone();
            let tel = telemetry.clone();
            let n = cluster.n;
            std::thread::Builder::new()
                .name(name("consensus"))
                .spawn(move || {
                    consensus_loop(
                        shared, halt, cons_rx, gauge, reply_tx, recycle_tx, probe, replica,
                        link_auth, tel, n,
                    )
                })
                .expect("spawn consensus")
        };
        let egress = {
            let shared = shared.clone();
            let halt = halt.clone();
            let session = session.clone();
            let tel = telemetry.clone();
            std::thread::Builder::new()
                .name(name("egress"))
                .spawn(move || egress_loop(shared, halt, reply_rx, reply_gauge, id, session, tel))
                .expect("spawn egress")
        };
        ReplicaHandle { id, probe, halt, session, ingress, batching, consensus, egress }
    }

    /// Crashes this replica: all four stage threads observe the flag
    /// within one `TICK` and wind down, dropping every queued frame and
    /// all volatile state — only what the consensus thread returns (the
    /// automaton with its store + ledger) survives, mirroring a process
    /// crash where durable state is what's on disk. Follow with
    /// [`ReplicaHandle::join`].
    pub fn halt(&self) {
        self.halt.store(true, Ordering::Relaxed);
    }

    /// Joins all four stage threads (requires the stop flag to be set or
    /// the pipeline's channels to have drained; every loop is bounded by
    /// `recv_timeout`, so this cannot deadlock).
    pub fn join(self) -> ReplicaJoin {
        let id = self.id;
        let ingress = self.ingress.join().unwrap_or_else(|_| panic!("{id} ingress panicked"));
        let batching = self.batching.join().unwrap_or_else(|_| panic!("{id} batching panicked"));
        let (consensus, replica) =
            self.consensus.join().unwrap_or_else(|_| panic!("{id} consensus panicked"));
        let egress = self.egress.join().unwrap_or_else(|_| panic!("{id} egress panicked"));
        let session = self.session.lock().expect("session table poisoned").stats();
        ReplicaJoin { id, replica, ingress, batching, consensus, egress, session }
    }
}

// ------------------------------------------------------------- ingress

/// A stage winds down when the whole cluster stops or this one replica
/// is crashed via its halt flag.
fn winding_down<H: Hub>(shared: &ClusterShared<H>, halt: &AtomicBool) -> bool {
    shared.stopped() || halt.load(Ordering::Relaxed)
}

/// Link-auth admission check on one decoded frame. Replica-origin
/// envelopes must carry a tag valid over the message region; client-
/// origin envelopes may only be request traffic (whose authenticity
/// rides on per-request signatures checked at admission) — anything
/// else claiming a client sender is a spoofed consensus message.
fn frame_authentic(
    link_auth: &LinkAuth,
    frame: &WireBytes,
    env: &poe_kernel::messages::Envelope,
    n: usize,
) -> bool {
    if !link_auth.enabled() {
        return true;
    }
    match env.from {
        NodeId::Replica(_) => match envelope_msg_offset(frame.as_slice()) {
            Some(off) => {
                link_auth.verify(env.from.global_index(n), &frame.as_slice()[off..], &env.auth)
            }
            None => false,
        },
        NodeId::Client(_) => {
            matches!(env.msg, ProtocolMsg::Request(_) | ProtocolMsg::RequestBroadcast(_))
        }
    }
}

/// How long a shed-free stretch closes a coalesced shed episode: one
/// recorder event summarizes a burst instead of one event per dropped
/// frame (overload would otherwise evict the interesting history).
const SHED_EPISODE_GAP: std::time::Duration = std::time::Duration::from_millis(100);

#[allow(clippy::too_many_arguments)]
fn ingress_loop<H: Hub>(
    shared: Arc<ClusterShared<H>>,
    halt: Arc<AtomicBool>,
    hub_rx: Receiver<WireBytes>,
    recycle_rx: Receiver<Arc<Batch>>,
    batch_tx: BoundedSender<(NodeId, ProtocolMsg)>,
    cons_tx: Gauged<ConsensusJob>,
    link_auth: LinkAuth,
    tel: Arc<ReplicaTelemetry>,
    n: usize,
) -> IngressStats {
    let mut decoder = IngressDecoder::new();
    let mut to_batching = 0u64;
    let mut to_consensus = 0u64;
    let mut shed_retransmits = 0u64;
    let mut shed_full = 0u64;
    let mut auth_failures = 0u64;
    let high_water = batch_tx.capacity() / 2;
    let batch_depth = batch_tx.gauge();
    // Coalesced shed episode: counts at episode start + last shed time.
    let mut shed_mark: (u64, u64) = (0, 0);
    let mut last_shed: Option<Instant> = None;
    loop {
        // Refill the pool with containers GC retired, so subsequent
        // batch decodes reuse instead of allocating.
        for batch in recycle_rx.try_iter() {
            decoder.recycle(batch);
        }
        match hub_rx.recv_timeout(TICK) {
            Ok(frame) => {
                tel.frames.inc();
                let env = match decoder.decode(&frame) {
                    Some(env) if frame_authentic(&link_auth, &frame, &env, n) => Some(env),
                    Some(_) => {
                        auth_failures += 1;
                        None
                    }
                    None => None,
                };
                if let Some(env) = env {
                    match env.msg {
                        msg @ (ProtocolMsg::Request(_)
                        | ProtocolMsg::RequestBroadcast(_)
                        | ProtocolMsg::Forward(_)) => {
                            // Shed policy, cheapest loss first: above
                            // the high-water mark drop retransmissions
                            // (the client retries anyway); at capacity
                            // drop any client request. Consensus
                            // traffic is never shed.
                            if matches!(msg, ProtocolMsg::RequestBroadcast(_))
                                && batch_tx.len() >= high_water
                            {
                                shed_retransmits += 1;
                                tel.shed_retransmits.inc();
                                last_shed = Some(Instant::now());
                            } else {
                                match batch_tx.try_send((env.from, msg)) {
                                    Ok(()) => {
                                        to_batching += 1;
                                        tel.batch_depth_hist.record(batch_depth.depth());
                                    }
                                    Err(TrySendError::Full(_)) => {
                                        shed_full += 1;
                                        tel.shed_full.inc();
                                        last_shed = Some(Instant::now());
                                    }
                                    Err(TrySendError::Disconnected(_)) => {}
                                }
                            }
                        }
                        msg => {
                            to_consensus += 1;
                            cons_tx.send(ConsensusJob::Deliver { from: env.from, msg });
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Close a coalesced shed episode once the burst has been quiet
        // for a beat: one timeline event summarizes the whole burst.
        if last_shed.is_some_and(|t| t.elapsed() >= SHED_EPISODE_GAP) {
            record_shed_episode(&tel, &shared, &mut shed_mark, shed_retransmits, shed_full);
            last_shed = None;
        }
        if winding_down(&shared, &halt) {
            break;
        }
    }
    if last_shed.is_some() {
        record_shed_episode(&tel, &shared, &mut shed_mark, shed_retransmits, shed_full);
    }
    let mut stats = decoder.stats();
    stats.to_batching = to_batching;
    stats.to_consensus = to_consensus;
    stats.shed_retransmits = shed_retransmits;
    stats.shed_full = shed_full;
    stats.auth_failures = auth_failures;
    stats.cpu_ns = thread_cpu_ns();
    stats
}

/// Flushes one coalesced shed episode into the flight recorder.
fn record_shed_episode<H: Hub>(
    tel: &ReplicaTelemetry,
    shared: &ClusterShared<H>,
    mark: &mut (u64, u64),
    retransmits: u64,
    full: u64,
) {
    let (dr, df) = (retransmits - mark.0, full - mark.1);
    if dr + df > 0 {
        tel.recorder().record(
            shared.now().0,
            ProtoEvent::Shed {
                retransmits: dr.min(u32::MAX as u64) as u32,
                full: df.min(u32::MAX as u64) as u32,
            },
        );
    }
    *mark = (retransmits, full);
}

// ------------------------------------------------------------ batching

struct BatchingDeps<H: Hub> {
    shared: Arc<ClusterShared<H>>,
    halt: Arc<AtomicBool>,
    batch_rx: BoundedReceiver<(NodeId, ProtocolMsg)>,
    cons_tx: Gauged<ConsensusJob>,
    probe: Arc<ReplicaProbe>,
    crypto: Option<CryptoProvider>,
    batch_size: usize,
    cut_delay: std::time::Duration,
    n: usize,
    session: Arc<Mutex<SessionTable>>,
    workers: usize,
    defer_depth: u64,
    id: ReplicaId,
    tel: Arc<ReplicaTelemetry>,
}

fn batching_loop<H: Hub>(deps: BatchingDeps<H>) -> BatchingStats {
    let BatchingDeps {
        shared,
        halt,
        batch_rx,
        cons_tx,
        probe,
        crypto,
        batch_size,
        cut_delay,
        n,
        session,
        workers,
        defer_depth,
        id,
        tel,
    } = deps;
    let mut stats = BatchingStats::default();
    let mut batcher = Batcher::new(batch_size);
    let mut deadline: Option<Instant> = None;
    let mut pool = crypto.map(|c| AdmissionPool::new(c, n, workers, id.0));
    let mut disconnected = false;
    let mut chunk: Vec<(NodeId, ProtocolMsg)> = Vec::with_capacity(ADMIT_CHUNK);
    let mut verify_set: Vec<ClientRequest> = Vec::with_capacity(ADMIT_CHUNK);
    let mut chunk_seen: HashSet<(u32, u64)> = HashSet::with_capacity(ADMIT_CHUNK);
    let mut defer_run: u32 = 0;
    loop {
        // Backpressure valve: while the consensus queue is deep, stop
        // pulling admissions — the bounded batch queue fills up and
        // ingress starts shedding, so overload is absorbed at the edge
        // instead of ballooning the consensus queue.
        if cons_tx.gauge.depth() > defer_depth && !disconnected && !winding_down(&shared, &halt) {
            stats.deferrals += 1;
            tel.deferrals.inc();
            defer_run += 1;
            std::thread::sleep(DEFER_PAUSE);
        } else {
            // A deferral episode just ended: one timeline event per
            // backpressure burst, not one per 1 ms pause.
            if defer_run > 0 {
                tel.recorder().record(shared.now().0, ProtoEvent::Deferred { count: defer_run });
                defer_run = 0;
            }
            let wait = match deadline {
                Some(d) => d.saturating_duration_since(Instant::now()).min(TICK),
                None => TICK,
            };
            match batch_rx.recv_timeout(wait) {
                Ok(item) => {
                    chunk.push(item);
                    while chunk.len() < ADMIT_CHUNK {
                        match batch_rx.try_recv() {
                            Some(item) => chunk.push(item),
                            None => break,
                        }
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => disconnected = true,
            }
            if !chunk.is_empty() {
                admit_chunk(
                    &shared,
                    &probe,
                    &session,
                    &cons_tx,
                    &mut pool,
                    &mut batcher,
                    &mut deadline,
                    cut_delay,
                    &mut stats,
                    &mut chunk,
                    &mut verify_set,
                    &mut chunk_seen,
                    &tel,
                );
            }
        }
        // Cut triggers: the delay expired, primaryship moved away while
        // requests were pending, or the stage is winding down. The
        // automaton re-screens every local batch, so a stale cut is
        // safe — it degrades to the per-request path.
        let cut = batcher.pending_len() > 0
            && (disconnected
                || winding_down(&shared, &halt)
                || !probe.is_primary()
                || deadline.is_some_and(|d| Instant::now() >= d));
        if cut {
            if let Some(batch) = batcher.flush() {
                stats.batches_cut += 1;
                note_batch_cut(&tel, &shared, batch.len());
                cons_tx.send(ConsensusJob::LocalBatch(batch));
            }
            deadline = None;
        }
        if disconnected || winding_down(&shared, &halt) {
            break;
        }
    }
    if defer_run > 0 {
        tel.recorder().record(shared.now().0, ProtoEvent::Deferred { count: defer_run });
    }
    if let Some(pool) = pool {
        stats.admission_cpu_ns = pool.shutdown();
    }
    let (queue_peak, queue_enqueued) = batch_rx.occupancy();
    stats.queue_peak = queue_peak;
    stats.queue_enqueued = queue_enqueued;
    stats.cpu_ns = thread_cpu_ns();
    stats
}

/// Processes one drained chunk of client traffic: session dedup,
/// sharded signature verification, then batch insertion — the order
/// matters (dedup before the expensive verify; watermarks only after
/// the verify passed).
#[allow(clippy::too_many_arguments)]
fn admit_chunk<H: Hub>(
    shared: &Arc<ClusterShared<H>>,
    probe: &ReplicaProbe,
    session: &Mutex<SessionTable>,
    cons_tx: &Gauged<ConsensusJob>,
    pool: &mut Option<AdmissionPool>,
    batcher: &mut Batcher,
    deadline: &mut Option<Instant>,
    cut_delay: std::time::Duration,
    stats: &mut BatchingStats,
    chunk: &mut Vec<(NodeId, ProtocolMsg)>,
    verify_set: &mut Vec<ClientRequest>,
    chunk_seen: &mut HashSet<(u32, u64)>,
    tel: &ReplicaTelemetry,
) {
    stats.requests_seen += chunk.len() as u64;
    let now_ns = shared.now().0;
    let primary = probe.is_primary();
    verify_set.clear();
    chunk_seen.clear();
    for (from, msg) in chunk.drain(..) {
        if !primary {
            // Not the primary: serve exact retries straight from the
            // reply cache; relay everything else so the automaton's
            // forward path and failure-detection timers stay exact.
            if let ProtocolMsg::Request(r)
            | ProtocolMsg::RequestBroadcast(r)
            | ProtocolMsg::Forward(r) = &msg
            {
                let cached =
                    session.lock().expect("session table poisoned").replay(r.client, r.req_id);
                if let Some(frame) = cached {
                    stats.cache_replies_sent += 1;
                    shared.hub.send(NodeId::Client(r.client), frame);
                    continue;
                }
            }
            stats.relayed += 1;
            cons_tx.send(ConsensusJob::Deliver { from, msg });
            continue;
        }
        let req = match msg {
            ProtocolMsg::Request(r)
            | ProtocolMsg::RequestBroadcast(r)
            | ProtocolMsg::Forward(r) => r,
            // Ingress only routes client traffic here, but a stray
            // message is relayed rather than lost.
            other => {
                stats.relayed += 1;
                cons_tx.send(ConsensusJob::Deliver { from, msg: other });
                continue;
            }
        };
        let verdict = session
            .lock()
            .expect("session table poisoned")
            .classify(req.client, req.req_id, now_ns);
        match verdict {
            Admit::Fresh => {
                // The same request may appear twice in one chunk (a
                // Request racing its own broadcast) — verify it once.
                if chunk_seen.insert((req.client.0, req.req_id)) {
                    verify_set.push(req);
                }
            }
            Admit::ReplyCached(frame) => {
                stats.cache_replies_sent += 1;
                shared.hub.send(NodeId::Client(req.client), frame);
            }
            // Counted inside the session table.
            Admit::DuplicateInFlight | Admit::Stale => {}
        }
    }
    if verify_set.is_empty() {
        return;
    }
    let verdicts = match pool.as_mut() {
        Some(pool) => pool.verify(verify_set),
        None => vec![true; verify_set.len()],
    };
    let mut table = session.lock().expect("session table poisoned");
    for (req, ok) in verify_set.drain(..).zip(verdicts) {
        if !ok {
            stats.rejected_sigs += 1;
            continue;
        }
        table.note_enqueued(req.client, req.req_id, now_ns);
        // Warm the digest cache here, off the consensus thread (the
        // clone inside the batch shares it).
        let _ = req.digest();
        if let Some(batch) = batcher.push(req) {
            stats.batches_cut += 1;
            note_batch_cut(tel, shared, batch.len());
            cons_tx.send(ConsensusJob::LocalBatch(batch));
            *deadline = None;
        } else if deadline.is_none() {
            *deadline = Some(Instant::now() + cut_delay);
        }
    }
}

/// Counts a cut batch and drops it on the timeline.
fn note_batch_cut<H: Hub>(tel: &ReplicaTelemetry, shared: &ClusterShared<H>, len: usize) {
    tel.batches_cut.inc();
    tel.batch_len.record(len as u64);
    tel.recorder().record(shared.now().0, ProtoEvent::BatchCut { len: len as u32 });
}

// ----------------------------------------------------------- consensus

struct ConsensusCtx<H: Hub> {
    shared: Arc<ClusterShared<H>>,
    reply_tx: Gauged<(ClientId, ProtocolMsg)>,
    recycle_tx: Sender<Arc<Batch>>,
    probe: Arc<ReplicaProbe>,
    replica: Box<PoeReplica>,
    wheel: TimerWheel,
    scratch: poe_kernel::codec::ScratchPool,
    out: Outbox,
    stats: ConsensusStats,
    my_node: NodeId,
    link_auth: LinkAuth,
    tel: Arc<ReplicaTelemetry>,
    n: usize,
}

impl<H: Hub> ConsensusCtx<H> {
    fn step_event(&mut self, event: Event) {
        let now = self.shared.now();
        let mut out = std::mem::take(&mut self.out);
        self.replica.on_event(now, event, &mut out);
        self.finish(out);
    }

    fn step_local_batch(&mut self, batch: Arc<Batch>) {
        let mut out = std::mem::take(&mut self.out);
        self.replica.on_local_batch(batch, &mut out);
        self.finish(out);
    }

    fn finish(&mut self, mut out: Outbox) {
        let now = self.shared.now();
        self.stats.events += 1;
        for action in out.drain_iter() {
            self.apply(now, action);
        }
        self.out = out;
        // Containers freed by checkpoint GC go back to the ingress pool
        // — this is where decoded batches actually die.
        for batch in self.replica.take_retired_batches() {
            self.stats.retired += 1;
            let _ = self.recycle_tx.send(batch);
        }
        self.probe.publish(&self.replica);
    }

    fn apply(&mut self, now: poe_kernel::time::Time, action: Action) {
        match action {
            Action::Send { to: NodeId::Client(c), msg } => {
                // Replies are encoded and delivered by the egress stage.
                self.reply_tx.send((c, msg));
            }
            Action::Send { to, msg } => {
                self.stats.sends += 1;
                let frame = if self.link_auth.enabled() {
                    match to {
                        NodeId::Replica(r) => {
                            self.link_auth.encode_to(&mut self.scratch, self.my_node, r.0, &msg)
                        }
                        NodeId::Client(_) => encode_frame(&mut self.scratch, self.my_node, msg),
                    }
                } else {
                    encode_frame(&mut self.scratch, self.my_node, msg)
                };
                self.shared.hub.send(to, frame);
            }
            Action::Broadcast { msg } => {
                self.stats.broadcasts += 1;
                if self.link_auth.enabled() && !self.link_auth.shared_tag() {
                    // Pairwise MACs: every peer needs its own tag, so
                    // the encode-once shared frame is gone — the message
                    // body is still encoded once, but each recipient
                    // gets its own envelope assembly + copy. This is the
                    // paper's MAC-cluster trade-off, measured for real
                    // by the inproc-vs-TCP A/B.
                    let me = match self.my_node {
                        NodeId::Replica(r) => r.0,
                        NodeId::Client(_) => unreachable!("replica stage"),
                    };
                    for peer in 0..self.n as u32 {
                        if peer == me {
                            continue;
                        }
                        let frame =
                            self.link_auth.encode_to(&mut self.scratch, self.my_node, peer, &msg);
                        self.shared.hub.send(NodeId::Replica(ReplicaId(peer)), frame);
                    }
                } else if self.link_auth.enabled() {
                    // Signature tags convince every verifier: one encode,
                    // frame sharing preserved.
                    let frame = self.link_auth.encode_shared(&mut self.scratch, self.my_node, &msg);
                    self.shared.hub.broadcast(self.my_node, &frame);
                } else {
                    // Encode once; the hub clones the *view* per recipient.
                    let frame = encode_frame(&mut self.scratch, self.my_node, msg);
                    self.shared.hub.broadcast(self.my_node, &frame);
                }
            }
            Action::SetTimer { kind, delay } => self.wheel.arm(kind, now + delay),
            Action::CancelTimer { kind } => self.wheel.cancel(&kind),
            Action::Notify(n) => self.note(n),
        }
    }

    fn note(&mut self, n: Notification) {
        let t_ns = self.shared.now().0;
        let rec = self.tel.recorder();
        match n {
            Notification::Executed { view, seq, .. } => {
                self.stats.executed += 1;
                self.tel.executed.inc();
                rec.record(t_ns, ProtoEvent::Executed { view: view.0, seq: seq.0 });
            }
            Notification::Decided { seq } => {
                self.stats.decided += 1;
                self.tel.decided.inc();
                rec.record(t_ns, ProtoEvent::Decided { seq: seq.0 });
            }
            Notification::CheckpointStable { seq } => {
                self.stats.checkpoints += 1;
                self.tel.checkpoints.inc();
                rec.record(t_ns, ProtoEvent::CheckpointStable { seq: seq.0 });
            }
            Notification::ViewChanged { view } => {
                self.stats.view_changes += 1;
                self.tel.view_changes.inc();
                rec.record(t_ns, ProtoEvent::ViewChanged { view: view.0 });
            }
            Notification::RolledBack { to } => {
                self.stats.rollbacks += 1;
                self.tel.rollbacks.inc();
                rec.record(t_ns, ProtoEvent::RolledBack { to: to.map_or(0, |s| s.0) });
            }
            Notification::FellBehind { stable, exec_frontier, .. } => {
                self.stats.fell_behind += 1;
                self.tel.fell_behind.inc();
                rec.record(
                    t_ns,
                    ProtoEvent::FellBehind { stable: stable.0, exec: exec_frontier.0 },
                );
            }
            Notification::CaughtUp { stable, exec_frontier } => {
                self.stats.caught_up += 1;
                self.tel.caught_up.inc();
                rec.record(t_ns, ProtoEvent::CaughtUp { stable: stable.0, exec: exec_frontier.0 });
            }
            Notification::RequestComplete { .. } => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn consensus_loop<H: Hub>(
    shared: Arc<ClusterShared<H>>,
    halt: Arc<AtomicBool>,
    cons_rx: Receiver<ConsensusJob>,
    gauge: Arc<DepthGauge>,
    reply_tx: Gauged<(ClientId, ProtocolMsg)>,
    recycle_tx: Sender<Arc<Batch>>,
    probe: Arc<ReplicaProbe>,
    replica: Box<PoeReplica>,
    link_auth: LinkAuth,
    tel: Arc<ReplicaTelemetry>,
    n: usize,
) -> (ConsensusStats, Box<PoeReplica>) {
    let my_node = NodeId::Replica(replica.id());
    let cons_depth_hist = tel.cons_depth_hist.clone();
    let mut ctx = ConsensusCtx {
        shared,
        reply_tx,
        recycle_tx,
        probe,
        replica,
        wheel: TimerWheel::new(),
        scratch: poe_kernel::codec::ScratchPool::new(),
        out: Outbox::new(),
        stats: ConsensusStats::default(),
        my_node,
        link_auth,
        tel,
        n,
    };
    ctx.step_event(Event::Init);
    loop {
        // Fire due timers first (the wheel filters stale generations).
        let now = ctx.shared.now();
        while let Some(kind) = ctx.wheel.pop_expired(now) {
            ctx.stats.timer_fires += 1;
            ctx.step_event(Event::Timeout(kind));
        }
        let wait = ctx.wheel.wait_budget(ctx.shared.now(), TICK);
        match cons_rx.recv_timeout(wait) {
            Ok(job) => {
                gauge.dec();
                cons_depth_hist.record(gauge.depth());
                handle(&mut ctx, job);
                // Opportunistic burst drain amortizes wakeups under load.
                for _ in 0..128 {
                    match cons_rx.try_recv() {
                        Ok(job) => {
                            gauge.dec();
                            handle(&mut ctx, job);
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Both senders (ingress, batching) exited: the queue is
            // drained and the pipeline upstream is gone — wind down.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // A halted replica drops its queue on the floor — a crash, not
        // a graceful drain (the cluster-wide stop still drains via the
        // disconnect cascade above).
        if halt.load(Ordering::Relaxed) {
            break;
        }
    }
    ctx.probe.publish(&ctx.replica);
    ctx.stats.queue_peak = gauge.peak();
    ctx.stats.cpu_ns = thread_cpu_ns();
    (ctx.stats, ctx.replica)
}

fn handle<H: Hub>(ctx: &mut ConsensusCtx<H>, job: ConsensusJob) {
    match job {
        ConsensusJob::Deliver { from, msg } => ctx.step_event(Event::Deliver { from, msg }),
        ConsensusJob::LocalBatch(batch) => ctx.step_local_batch(batch),
    }
}

// -------------------------------------------------------------- egress

fn egress_loop<H: Hub>(
    shared: Arc<ClusterShared<H>>,
    halt: Arc<AtomicBool>,
    reply_rx: Receiver<(ClientId, ProtocolMsg)>,
    gauge: Arc<DepthGauge>,
    id: ReplicaId,
    session: Arc<Mutex<SessionTable>>,
    tel: Arc<ReplicaTelemetry>,
) -> EgressStats {
    let mut stats = EgressStats::default();
    let mut scratch = poe_kernel::codec::ScratchPool::new();
    let my_node = NodeId::Replica(id);
    loop {
        match reply_rx.recv_timeout(TICK) {
            Ok((client, msg)) => {
                gauge.dec();
                let req_id = match &msg {
                    ProtocolMsg::Reply(r) => Some(r.req_id),
                    _ => None,
                };
                let frame = encode_frame(&mut scratch, my_node, msg);
                // Record before sending: even if this client's endpoint
                // is gone, a retry must hit the cache, not re-execute.
                if let Some(req_id) = req_id {
                    session
                        .lock()
                        .expect("session table poisoned")
                        .record_reply(client, req_id, &frame);
                }
                if shared.hub.send(NodeId::Client(client), frame) {
                    stats.replies_sent += 1;
                    tel.replies_sent.inc();
                } else {
                    stats.dropped += 1;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if winding_down(&shared, &halt) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    stats.queue_peak = gauge.peak();
    stats.cpu_ns = thread_cpu_ns();
    stats
}
