//! A single replica as a standalone socket-substrate node — the library
//! half of the `poe-node` binary. One process = one [`ReplicaNode`]:
//! bind a [`TcpHub`] on a listen address, mesh it with the peer
//! addresses, run the four stage threads, and report the final state
//! (digests, stage counters, per-link supervision counters) on stop.
//!
//! Unlike [`crate::FabricCluster`], there is no cross-process quiesce
//! oracle: a node can only watch its *own* progress. The harness
//! protocol is therefore: stop the load, wait for every node's probe to
//! go stable ([`ReplicaNode::wait_quiesce`]), then stop and compare the
//! reported `history_digest`s — byte-identical digests are the
//! convergence criterion, exactly as in-process.

use crate::cluster::{report_replica, FabricConfig, ReplicaReport};
use crate::runtime::{ClusterCtl, ClusterShared, LinkAuth};
use crate::stage::{ReplicaHandle, ReplicaSpawn};
use crate::telemetry::ReplicaTelemetry;
use crate::transport::{cluster_instance_id, link_key_material};
use poe_crypto::KeyMaterial;
use poe_kernel::ids::ReplicaId;
use poe_net::{Hub, LinkRecorder, TcpConfig, TcpHub};
use poe_telemetry::TimeBase;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Public mirror of the replica progress probe (view / frontiers /
/// event count), for harnesses that poll for local quiescence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeProgress {
    /// Current view number.
    pub view: u64,
    /// Contiguous execution frontier.
    pub exec: u64,
    /// Commit frontier.
    pub commit: u64,
    /// Automaton events processed (monotonic; stability indicator).
    pub events: u64,
}

/// One running replica over its own socket hub.
pub struct ReplicaNode {
    shared: Arc<ClusterShared<TcpHub>>,
    handle: ReplicaHandle,
    telemetry: Arc<ReplicaTelemetry>,
}

impl ReplicaNode {
    /// Binds this replica's hub on `listen` and spawns its four stage
    /// threads. The node is passive until [`ReplicaNode::connect`]
    /// meshes it with its peers (inbound connections are accepted from
    /// the start). `cfg.link_auth` keys both the peer handshakes and
    /// the per-frame tags — every process derives identical key
    /// material from the shared cluster seed.
    pub fn bind(
        cfg: &FabricConfig,
        id: ReplicaId,
        listen: SocketAddr,
    ) -> std::io::Result<ReplicaNode> {
        let cluster = &cfg.cluster;
        let km = KeyMaterial::generate(
            cluster.n,
            cfg.n_clients,
            cluster.nf(),
            cluster.crypto_mode,
            cluster.cert_scheme,
            cluster.seed,
        );
        let (link_auth, hub_auth) = match cfg.link_auth {
            Some(mode) => {
                let link_km = link_key_material(cluster, mode);
                let provider = link_km.replica(id.index());
                (LinkAuth::new(provider.clone()), Some(provider))
            }
            None => (LinkAuth::disabled(), None),
        };
        let mut tcp = TcpConfig::replica(id.0, cluster.n, cluster_instance_id(cluster));
        if let Some(provider) = hub_auth {
            tcp = tcp.with_auth(provider);
        }
        let telemetry = ReplicaTelemetry::new(id.0, TimeBase::Wall);
        let ctl = ClusterCtl::new();
        // Link supervision events share the stage threads' clock, so
        // the dump interleaves protocol and transport events coherently.
        let clock_ctl = ctl.clone();
        tcp = tcp.with_recorder(LinkRecorder::new(
            telemetry.recorder().clone(),
            Arc::new(move || clock_ctl.now().0),
        ));
        let hub = TcpHub::bind(tcp, listen)?;
        let shared = ClusterShared::with_ctl(hub, ctl);
        let handle = ReplicaHandle::spawn(ReplicaSpawn {
            shared: shared.clone(),
            cluster: cluster.clone(),
            support: cfg.support,
            km,
            id,
            tuning: cfg.tuning.clone(),
            client_window: cfg.client_outstanding,
            link_auth,
            telemetry: telemetry.clone(),
        });
        Ok(ReplicaNode { shared, handle, telemetry })
    }

    /// The bound listen address (port-0 binds resolve here).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.shared.hub.local_addr()
    }

    /// Meshes this node with the cluster: one supervised outbound link
    /// per peer (own id skipped).
    pub fn connect(&self, peers: &[(u32, SocketAddr)]) {
        self.shared.hub.set_peers(peers);
    }

    /// Severs every live connection of this node's hub (supervision
    /// drill: writers redial with backoff, peers reconnect).
    pub fn drop_links(&self) {
        self.shared.hub.drop_links();
    }

    /// This node's telemetry (metrics registry + flight recorder).
    pub fn telemetry(&self) -> &Arc<ReplicaTelemetry> {
        &self.telemetry
    }

    /// Prometheus text exposition of this node's metrics, refreshed at
    /// call time (the `metrics` stdio command of `poe-node`).
    pub fn metrics_text(&self) -> String {
        self.telemetry.render()
    }

    /// Human-readable protocol timeline from this node's flight
    /// recorder (the `dump-trace` stdio command of `poe-node`).
    pub fn trace_dump(&self) -> String {
        self.telemetry.timeline()
    }

    /// Point-in-time progress snapshot.
    pub fn progress(&self) -> NodeProgress {
        let s = self.handle.probe.snapshot();
        NodeProgress { view: s.view, exec: s.exec, commit: s.commit, events: s.events }
    }

    /// Waits until the local event counter stops advancing for
    /// `stable_for` (polling every 25 ms), or `deadline` expires.
    /// Returns whether stability was reached.
    pub fn wait_quiesce(&self, stable_for: Duration, deadline: Duration) -> bool {
        let t0 = Instant::now();
        let mut last = self.progress();
        let mut stable_since = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(25));
            let now = self.progress();
            if now != last {
                last = now;
                stable_since = Instant::now();
            } else if stable_since.elapsed() >= stable_for {
                return true;
            }
            if t0.elapsed() > deadline {
                return false;
            }
        }
    }

    /// Stops the stage threads, joins them, tears the hub down, and
    /// reports final state — including per-link supervision counters.
    pub fn stop(self) -> ReplicaReport {
        self.shared.request_stop();
        let join = self.handle.join();
        let links = self.shared.hub.link_reports();
        let report = report_replica(join, links);
        self.shared.hub.shutdown();
        report
    }
}
