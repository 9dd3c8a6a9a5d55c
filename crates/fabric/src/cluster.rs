//! [`FabricCluster`]: n replicas × four pipeline stages + YCSB client
//! threads, wired over any [`Hub`] substrate (in-process channels or
//! supervised TCP links, selected by a [`Transport`]), with a
//! deterministic three-phase shutdown (clients drain → replicas
//! quiesce → stop/join).

use crate::client::{client_loop, ClientStats};
use crate::runtime::{ClusterCtl, ClusterShared, LinkAuth};
use crate::session::SessionStats;
use crate::stage::{
    BatchingStats, ConsensusStats, EgressStats, FabricTuning, ProbeSnapshot, ReplicaHandle,
    ReplicaJoin, ReplicaSpawn,
};
use crate::telemetry::ReplicaTelemetry;
use crate::transport::{link_key_material, InprocTransport, Transport};
use crate::IngressStats;
use poe_consensus::{RepairStats, SupportMode};
use poe_crypto::{CertScheme, CryptoMode, Digest, KeyMaterial};
use poe_kernel::automaton::ReplicaAutomaton;
use poe_kernel::config::ClusterConfig;
use poe_kernel::ids::{ClientId, NodeId, ReplicaId, SeqNum, View};
use poe_net::{Hub, InprocHub, LinkReport};
use poe_telemetry::{Histogram, TimeBase};
use poe_workload::{ClientConfig, WorkloadClient, YcsbConfig, YcsbWorkload};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a wall-clock fabric cluster.
///
/// Defaults mirror [`poe_sim`'s cluster defaults] for comparability
/// (unauthenticated links, dealer-keyed simulated certificates, batch
/// size 20) — except the checkpoint interval, which is shortened to 8 so
/// realistic runs exercise checkpoint stability, undo-log GC, and the
/// batch-container recycle loop on the wall clock.
///
/// [`poe_sim`'s cluster defaults]: https://docs.rs/poe-sim
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Shared cluster parameters (n, f, batch size, timeouts, crypto).
    pub cluster: ClusterConfig,
    /// SUPPORT mode: threshold shares (Fig. 3) or MAC votes (App. A).
    pub support: SupportMode,
    /// Number of client threads.
    pub n_clients: usize,
    /// Requests each client submits before stopping.
    pub requests_per_client: u64,
    /// Per-client in-flight window (closed loop when 1).
    pub client_outstanding: usize,
    /// Workload shape (defaults to the laptop-scale YCSB table).
    pub ycsb: YcsbConfig,
    /// Pipeline runtime knobs (queue bounds, reply cache, admission
    /// parallelism) — protocol-invisible.
    pub tuning: FabricTuning,
    /// Link authentication of replica→replica frames: `Some(mode)`
    /// tags every consensus frame with a per-peer MAC (or signature)
    /// in that mode and verifies it at ingress — the paper's
    /// MAC-cluster trade-off. `None` (default) keeps the trusted-
    /// channel model. Independent of `cluster.crypto_mode`, which
    /// governs client request signatures.
    pub link_auth: Option<CryptoMode>,
}

impl FabricConfig {
    /// An `n`-replica wall-clock cluster with four YCSB clients
    /// submitting 250 requests each (≥ 1000 total).
    pub fn new(n: usize, support: SupportMode) -> FabricConfig {
        let cluster = ClusterConfig::new(n)
            .with_crypto_mode(CryptoMode::None)
            .with_cert_scheme(CertScheme::Simulated)
            .with_batch_size(20)
            .with_checkpoint_interval(8);
        FabricConfig {
            cluster,
            support,
            n_clients: 4,
            requests_per_client: 250,
            client_outstanding: 4,
            ycsb: YcsbConfig::small(),
            tuning: FabricTuning::default(),
            link_auth: None,
        }
    }

    /// Enables per-peer link authentication of replica frames.
    pub fn with_link_auth(mut self, mode: CryptoMode) -> FabricConfig {
        self.link_auth = (mode != CryptoMode::None).then_some(mode);
        self
    }

    /// Total requests the clients will submit.
    pub fn total_requests(&self) -> u64 {
        self.n_clients as u64 * self.requests_per_client
    }
}

/// Why a fabric run did not complete.
#[derive(Debug)]
pub enum FabricError {
    /// Clients did not finish their workload before the deadline.
    ClientsStalled {
        /// Requests completed when the run was aborted.
        completed: u64,
        /// The configured target.
        target: u64,
        /// Probe dump for debugging.
        detail: String,
    },
    /// Clients finished but the replicas kept processing (or diverged in
    /// frontier) past the deadline.
    QuiesceTimeout {
        /// Probe dump for debugging.
        detail: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::ClientsStalled { completed, target, detail } => {
                write!(f, "clients stalled at {completed}/{target} requests; {detail}")
            }
            FabricError::QuiesceTimeout { detail } => {
                write!(f, "replicas did not quiesce: {detail}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Final state and counters of one replica after shutdown.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// The replica.
    pub id: ReplicaId,
    /// Final view.
    pub view: View,
    /// Contiguous execution frontier.
    pub exec_frontier: SeqNum,
    /// Committed blocks on the ledger.
    pub ledger_len: usize,
    /// Proof-independent committed-history digest (the cross-replica
    /// convergence criterion; see `Ledger::history_digest`).
    pub history_digest: Digest,
    /// Application state digest.
    pub state_digest: Digest,
    /// Ingress-stage counters.
    pub ingress: IngressStats,
    /// Batching-stage counters.
    pub batching: BatchingStats,
    /// Consensus-stage counters.
    pub consensus: ConsensusStats,
    /// Egress-stage counters.
    pub egress: EgressStats,
    /// Session-table counters (dedup, reply cache, eviction).
    pub session: SessionStats,
    /// State-transfer counters (repairs run/served, budget throttling).
    pub repair: RepairStats,
    /// Per-link supervision counters of this replica's hub (connects,
    /// reconnects, frames/bytes, queue peaks, sheds). Empty on
    /// link-less substrates like the in-process hub.
    pub links: Vec<LinkReport>,
}

impl ReplicaReport {
    /// Total on-CPU nanoseconds of this replica's stage threads plus its
    /// admission workers (zero when the platform lacks CPU accounting).
    pub fn cpu_ns(&self) -> u64 {
        self.ingress.cpu_ns
            + self.batching.cpu_ns
            + self.batching.admission_cpu_ns
            + self.consensus.cpu_ns
            + self.egress.cpu_ns
    }
}

/// Latency summary over all completed requests (microseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum.
    pub max_us: u64,
    /// Arithmetic mean.
    pub mean_us: u64,
}

impl LatencySummary {
    /// Summarizes a nanosecond latency histogram in microseconds.
    ///
    /// This replaced the original sort-all-samples quantile pick: the
    /// log-linear histogram holds quantile error under 1 % from a fixed
    /// ~58 KiB table, so hour-long open-loop windows no longer grow a
    /// raw sample vector without bound.
    pub(crate) fn from_hist(hist: &Histogram) -> LatencySummary {
        if hist.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: hist.count(),
            p50_us: hist.quantile(0.5) / 1_000,
            p99_us: hist.quantile(0.99) / 1_000,
            max_us: hist.max() / 1_000,
            mean_us: (hist.mean() / 1_000.0) as u64,
        }
    }
}

/// What a completed (and fully joined) fabric run reports.
#[derive(Clone, Debug)]
pub struct FabricReport {
    /// Wall-clock duration from launch to the last thread join.
    pub wall: Duration,
    /// Requests completed across all clients.
    pub completed_requests: u64,
    /// End-to-end request latency summary.
    pub latency: LatencySummary,
    /// Per-replica final state and stage counters.
    pub replicas: Vec<ReplicaReport>,
    /// Threads joined during shutdown (stages + clients).
    pub threads_joined: usize,
}

impl FabricReport {
    /// True when every replica agrees on committed history and state.
    pub fn converged(&self) -> bool {
        let Some(first) = self.replicas.first() else { return true };
        self.replicas.iter().all(|r| {
            r.history_digest == first.history_digest && r.state_digest == first.state_digest
        })
    }

    /// The common history digest (when converged).
    pub fn history_digest(&self) -> Option<Digest> {
        self.converged().then(|| self.replicas[0].history_digest)
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        self.completed_requests as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Summed on-CPU seconds of every replica stage thread (+ admission
    /// workers). Driver/client threads are excluded by construction —
    /// only replica-side threads report `cpu_ns`.
    pub fn replica_cpu_secs(&self) -> f64 {
        self.replicas.iter().map(ReplicaReport::cpu_ns).sum::<u64>() as f64 / 1e9
    }

    /// Completed requests per second per replica CPU core — completed
    /// requests divided by the CPU-seconds the replicas burned. `None`
    /// when the platform reported no CPU accounting.
    pub fn requests_per_sec_per_core(&self) -> Option<f64> {
        let cpu = self.replica_cpu_secs();
        (cpu > 0.0).then(|| self.completed_requests as f64 / cpu)
    }
}

/// A running wall-clock PoE cluster: all threads are live from
/// [`FabricCluster::launch`] on; clients start submitting immediately.
///
/// Generic over the [`Hub`] substrate: `FabricCluster<InprocHub>` (the
/// default) wires every node through one in-process hub;
/// `FabricCluster<TcpHub>` (via [`crate::TcpTransport`]) gives every
/// node its own socket hub meshed over real TCP links.
pub struct FabricCluster<H: Hub = InprocHub> {
    cfg: FabricConfig,
    ctl: Arc<ClusterCtl>,
    /// One shared runtime context per replica (its hub + the cluster
    /// ctl). On the in-proc substrate the hubs are clones of one hub.
    replica_shared: Vec<Arc<ClusterShared<H>>>,
    /// Client-side hubs handed out by the transport, kept for shutdown.
    client_hubs: Vec<H>,
    started: Instant,
    km: Arc<KeyMaterial>,
    link_km: Option<Arc<KeyMaterial>>,
    /// `None` while a replica is crashed (its durable state is parked in
    /// `downed` until [`FabricCluster::restart_replica`]).
    replicas: Vec<Option<ReplicaHandle>>,
    downed: BTreeMap<usize, ReplicaJoin>,
    clients: Vec<JoinHandle<ClientStats>>,
    /// Per-replica metrics + flight recorder. Outlives crash/restart:
    /// the restarted stages write into the same recorder, so one
    /// timeline spans the fault.
    telemetries: Vec<Arc<ReplicaTelemetry>>,
}

impl FabricCluster<InprocHub> {
    /// Builds key material, registers every node on a fresh in-process
    /// hub, and spawns all replica stage threads and client threads.
    pub fn launch(cfg: &FabricConfig) -> FabricCluster {
        FabricCluster::launch_with(cfg, &mut InprocTransport::new())
    }

    /// Replicas only, on the in-process substrate.
    #[cfg(test)]
    pub(crate) fn launch_headless(cfg: &FabricConfig) -> FabricCluster {
        FabricCluster::launch_headless_with(cfg, &mut InprocTransport::new())
    }

    /// The shared runtime context (on the in-proc substrate every node
    /// shares one hub, so replica 0's handle serves a test harness as
    /// "the" cluster hub).
    #[cfg(test)]
    pub(crate) fn shared(&self) -> Arc<ClusterShared<InprocHub>> {
        self.replica_shared[0].clone()
    }
}

impl<H: Hub> FabricCluster<H> {
    /// [`FabricCluster::launch`] over an explicit transport (e.g.
    /// [`crate::TcpTransport::loopback`] for a socket-substrate cluster
    /// in one process).
    pub fn launch_with<T: Transport<Hub = H>>(
        cfg: &FabricConfig,
        transport: &mut T,
    ) -> FabricCluster<H> {
        let mut cluster = FabricCluster::launch_headless_with(cfg, transport);
        let km = cluster.km.clone();
        let ctl = cluster.ctl.clone();
        let ccluster = &cfg.cluster;
        for c in 0..cfg.n_clients {
            let id = ClientId(c as u32);
            let hub = transport.client_hub(c as u32, 1);
            let rx = hub.register(NodeId::Client(id));
            cluster.client_hubs.push(hub.clone());
            let shared = ClusterShared::with_ctl(hub, ctl.clone());
            let mut ccfg = ClientConfig::matching(id, ccluster.n, ccluster.f, ccluster.nf())
                .with_outstanding(cfg.client_outstanding)
                .with_max_requests(cfg.requests_per_client)
                .with_retry(ccluster.client_timeout);
            ccfg.sign = ccluster.crypto_mode != CryptoMode::None;
            let source = YcsbWorkload::new(YcsbConfig {
                seed: ccluster.seed ^ (0xC0FFEE + c as u64),
                ..cfg.ycsb.clone()
            });
            let client = WorkloadClient::new(ccfg, km.client(c), Box::new(source));
            let handle = std::thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn(move || client_loop(shared, rx, client))
                .expect("spawn client");
            cluster.clients.push(handle);
        }
        cluster
    }

    /// Replicas only — no client threads. The open-loop engine registers
    /// its own driver endpoints (client groups) on transport-provided
    /// hubs and submits directly; with zero client handles,
    /// `run_to_completion`'s client phase is trivially satisfied and the
    /// quiesce/join machinery is reused as-is.
    pub(crate) fn launch_headless_with<T: Transport<Hub = H>>(
        cfg: &FabricConfig,
        transport: &mut T,
    ) -> FabricCluster<H> {
        let cluster = &cfg.cluster;
        let km = KeyMaterial::generate(
            cluster.n,
            cfg.n_clients,
            cluster.nf(),
            cluster.crypto_mode,
            cluster.cert_scheme,
            cluster.seed,
        );
        let link_km = cfg.link_auth.map(|mode| link_key_material(cluster, mode));
        let ctl = ClusterCtl::new();
        let started = Instant::now();
        // Replicas first: every replica endpoint must exist before the
        // first client request can be broadcast.
        let replica_shared: Vec<Arc<ClusterShared<H>>> = (0..cluster.n)
            .map(|i| {
                ClusterShared::with_ctl(transport.replica_hub(ReplicaId(i as u32)), ctl.clone())
            })
            .collect();
        let telemetries: Vec<Arc<ReplicaTelemetry>> =
            (0..cluster.n).map(|i| ReplicaTelemetry::new(i as u32, TimeBase::Wall)).collect();
        let replicas: Vec<Option<ReplicaHandle>> = (0..cluster.n)
            .map(|i| {
                Some(ReplicaHandle::spawn(ReplicaSpawn {
                    shared: replica_shared[i].clone(),
                    cluster: cluster.clone(),
                    support: cfg.support,
                    km: km.clone(),
                    id: ReplicaId(i as u32),
                    tuning: cfg.tuning.clone(),
                    client_window: cfg.client_outstanding,
                    link_auth: link_auth_for(&link_km, i),
                    telemetry: telemetries[i].clone(),
                }))
            })
            .collect();
        FabricCluster {
            cfg: cfg.clone(),
            ctl,
            replica_shared,
            client_hubs: Vec::new(),
            started,
            km,
            link_km,
            replicas,
            downed: BTreeMap::new(),
            clients: Vec::new(),
            telemetries,
        }
    }

    /// Replica `i`'s metrics + flight recorder.
    pub fn telemetry(&self, i: usize) -> &Arc<ReplicaTelemetry> {
        &self.telemetries[i]
    }

    /// All replicas' telemetry, cluster order.
    pub fn telemetries(&self) -> &[Arc<ReplicaTelemetry>] {
        &self.telemetries
    }

    /// The cluster control block (clock + stop flag) — for driver
    /// threads that bring their own hubs.
    pub(crate) fn ctl(&self) -> Arc<ClusterCtl> {
        self.ctl.clone()
    }

    /// Registers a driver-owned client hub for teardown at shutdown.
    pub(crate) fn adopt_client_hub(&mut self, hub: H) {
        self.client_hubs.push(hub);
    }

    /// The cluster's key material (driver threads sign client requests
    /// with it when the cluster runs a signed crypto mode).
    pub(crate) fn key_material(&self) -> Arc<KeyMaterial> {
        self.km.clone()
    }

    /// Crashes replica `i` mid-run: its four stage threads halt and are
    /// joined, every queued frame and all volatile consensus state is
    /// lost; only the automaton (application store + ledger — the
    /// durable state) is parked for a later
    /// [`FabricCluster::restart_replica`]. The rest of the cluster keeps
    /// running; with `n ≥ 3f+1` and one crash, quorums still form.
    pub fn crash_replica(&mut self, i: usize) {
        let handle = self.replicas[i].take().expect("replica is running");
        handle.halt();
        self.telemetries[i].recorder().record(self.ctl.now().0, poe_telemetry::ProtoEvent::Crashed);
        self.downed.insert(i, handle.join());
    }

    /// Restarts a crashed replica from its durable state: the automaton
    /// is rebuilt via `PoeReplica::into_restarted` (speculative suffix
    /// rolled back, volatile state reset) and re-registered on the hub,
    /// which revives the dead endpoint. The replica rejoins live traffic
    /// immediately and relies on the state-transfer protocol to close
    /// whatever gap opened while it was down. Stage counters restart
    /// from zero — the final report covers the new incarnation.
    pub fn restart_replica(&mut self, i: usize) {
        let join = self.downed.remove(&i).expect("replica is down");
        let replica = Box::new((*join.replica).into_restarted());
        self.telemetries[i]
            .recorder()
            .record(self.ctl.now().0, poe_telemetry::ProtoEvent::Restarted);
        self.replicas[i] = Some(ReplicaHandle::spawn_with(
            ReplicaSpawn {
                shared: self.replica_shared[i].clone(),
                cluster: self.cfg.cluster.clone(),
                support: self.cfg.support,
                km: self.km.clone(),
                id: ReplicaId(i as u32),
                tuning: self.cfg.tuning.clone(),
                client_window: self.cfg.client_outstanding,
                link_auth: link_auth_for(&self.link_km, i),
                telemetry: self.telemetries[i].clone(),
            },
            replica,
        ));
    }

    /// Phase 1 + 2 + 3: wait for the clients to finish their workload,
    /// wait for the replicas to quiesce (frontiers equal, no events for
    /// two consecutive polls), then stop and join everything. `deadline`
    /// bounds the whole call — on expiry all threads are stopped and
    /// joined before the error returns, so a failed run never leaks
    /// threads.
    pub fn run_to_completion(self, deadline: Duration) -> Result<FabricReport, FabricError> {
        let t0 = Instant::now();
        let target = self.cfg.total_requests();
        // Phase 1: clients drain their workload budget.
        while !self.clients.iter().all(JoinHandle::is_finished) {
            if t0.elapsed() > deadline {
                let detail = self.probe_dump();
                let report = self.shutdown();
                return Err(FabricError::ClientsStalled {
                    completed: report.completed_requests,
                    target,
                    detail,
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Phase 2: replicas quiesce — in-flight CERTIFYs, checkpoint
        // votes, and INFORMs settle. Quiescence = all probes stop
        // advancing *and* the cheap frontiers agree, twice in a row.
        let mut last: Option<Vec<ProbeSnapshot>> = None;
        let mut stable_rounds = 0;
        loop {
            let snaps: Vec<ProbeSnapshot> =
                self.replicas.iter().flatten().map(|r| r.probe.snapshot()).collect();
            let frontiers_agree =
                snaps.iter().all(|s| s.exec == snaps[0].exec && s.commit == snaps[0].commit);
            if frontiers_agree && last.as_ref() == Some(&snaps) {
                stable_rounds += 1;
                if stable_rounds >= 2 {
                    break;
                }
            } else {
                stable_rounds = 0;
            }
            last = Some(snaps);
            if t0.elapsed() > deadline {
                let detail = self.probe_dump();
                let _ = self.shutdown();
                return Err(FabricError::QuiesceTimeout { detail });
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Phase 3: stop and join.
        Ok(self.shutdown())
    }

    /// Signals every thread to stop and joins them all (stages and
    /// clients), assembling the final report. Safe to call at any point
    /// — all loops are `recv_timeout`-bounded, so no join can hang on a
    /// blocked queue.
    pub fn shutdown(self) -> FabricReport {
        self.ctl.request_stop();
        let FabricCluster {
            replica_shared, client_hubs, started, replicas, downed, clients, ..
        } = self;
        let mut threads_joined = 0;
        let mut latencies = Histogram::new();
        let mut completed = 0;
        for (i, handle) in clients.into_iter().enumerate() {
            let stats = handle.join().unwrap_or_else(|_| panic!("client {i} panicked"));
            completed += stats.completed;
            latencies.merge(&stats.latencies);
            threads_joined += 1;
        }
        let mut reports = Vec::new();
        // Replicas still crashed at shutdown were joined at crash time;
        // their parked durable state is reported (and audited) as-is.
        let mut downed = downed;
        for (i, handle) in replicas.into_iter().enumerate() {
            let join = match handle {
                Some(handle) => handle.join(),
                None => downed.remove(&i).expect("crashed replica state parked"),
            };
            threads_joined += 4;
            let links = replica_shared[i].hub.link_reports();
            reports.push(report_replica(join, links));
        }
        // Tear down the network substrate last: every stage thread is
        // joined, so no send can race a closing socket. No-op on the
        // in-process hub.
        for hub in client_hubs {
            hub.shutdown();
        }
        for shared in &replica_shared {
            shared.hub.shutdown();
        }
        FabricReport {
            wall: started.elapsed(),
            completed_requests: completed,
            latency: LatencySummary::from_hist(&latencies),
            replicas: reports,
            threads_joined,
        }
    }

    /// Human-readable probe dump for error diagnostics, with the tail
    /// of every replica's protocol timeline so a failed run is
    /// diagnosable from its error message alone.
    fn probe_dump(&self) -> String {
        let probes = self
            .replicas
            .iter()
            .flatten()
            .map(|r| {
                let s = r.probe.snapshot();
                format!(
                    "{}: view={} exec={} commit={} events={}",
                    r.id, s.view, s.exec, s.commit, s.events
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let timelines =
            self.telemetries.iter().map(|t| t.timeline_tail(12)).collect::<Vec<_>>().join("");
        format!("{probes}\nrecorder tails:\n{timelines}")
    }
}

/// The per-replica [`LinkAuth`] (disabled when no link key material).
fn link_auth_for(link_km: &Option<Arc<KeyMaterial>>, i: usize) -> LinkAuth {
    match link_km {
        Some(km) => LinkAuth::new(km.replica(i)),
        None => LinkAuth::disabled(),
    }
}

/// Builds one replica's final report from its joined stage threads,
/// auditing the committed chain end to end before it is reported.
pub(crate) fn report_replica(join: ReplicaJoin, links: Vec<LinkReport>) -> ReplicaReport {
    let replica = &join.replica;
    replica.ledger().verify_chain().expect("ledger chain must verify");
    ReplicaReport {
        id: join.id,
        view: replica.current_view(),
        exec_frontier: replica.execution_frontier(),
        ledger_len: replica.ledger().len(),
        history_digest: replica.ledger().history_digest(),
        state_digest: replica.state_digest(),
        ingress: join.ingress,
        batching: join.batching,
        consensus: join.consensus,
        egress: join.egress,
        session: join.session,
        repair: replica.repair_stats(),
        links,
    }
}

/// Convenience: launch, run to completion, and report.
pub fn run_fabric(cfg: &FabricConfig, deadline: Duration) -> Result<FabricReport, FabricError> {
    FabricCluster::launch(cfg).run_to_completion(deadline)
}
