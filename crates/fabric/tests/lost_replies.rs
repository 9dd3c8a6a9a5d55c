//! Lost INFORMs of a client with several requests outstanding.
//!
//! A client with a window of `k` requests in flight can lose any of the
//! `k` replies (a link that comes up late, or one that is severed
//! mid-run). Its retry of a lost reply must be answered from the
//! replicas' reply caches; if only the last reply per client were kept,
//! the retry of every other one would be dropped as stale forever and
//! the run would stall `k − 1` requests short per lossy window.
//!
//! The loss is injected in-process, with no sockets: two of the four
//! replicas swallow their first `client_outstanding` sends to client 0,
//! so that client sees at most two matching INFORMs for its whole first
//! window, one short of its quorum of three.

use crossbeam::channel::Receiver;
use poe_consensus::SupportMode;
use poe_fabric::{FabricCluster, FabricConfig, FabricReport, Transport};
use poe_kernel::ids::{ClientId, NodeId, ReplicaId};
use poe_kernel::wire::WireBytes;
use poe_net::{Hub, InprocHub};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(20);

/// An in-process hub that swallows the next `budget` sends to one node.
#[derive(Clone)]
struct DropHub {
    inner: InprocHub,
    victim: NodeId,
    budget: Arc<AtomicUsize>,
}

impl Hub for DropHub {
    fn register(&self, node: NodeId) -> Receiver<WireBytes> {
        self.inner.register(node)
    }

    fn register_client_group(&self, base: u32, count: u32) -> Receiver<WireBytes> {
        self.inner.register_client_group(base, count)
    }

    fn deregister(&self, node: NodeId) {
        self.inner.deregister(node)
    }

    fn deregister_client_group(&self, base: u32) {
        self.inner.deregister_client_group(base)
    }

    fn send(&self, to: NodeId, frame: WireBytes) -> bool {
        let swallow = to == self.victim
            && self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok();
        swallow || self.inner.send(to, frame)
    }

    fn broadcast(&self, from: NodeId, frame: &WireBytes) -> usize {
        self.inner.broadcast(from, frame)
    }
}

/// One shared in-process hub; replicas 1 and 2 lose their first `drops`
/// sends to client 0.
struct LossyTransport {
    hub: InprocHub,
    drops: usize,
}

impl LossyTransport {
    fn hub(&self, budget: usize) -> DropHub {
        DropHub {
            inner: self.hub.clone(),
            victim: NodeId::Client(ClientId(0)),
            budget: Arc::new(AtomicUsize::new(budget)),
        }
    }
}

impl Transport for LossyTransport {
    type Hub = DropHub;

    fn replica_hub(&mut self, id: ReplicaId) -> DropHub {
        self.hub(if matches!(id.0, 1 | 2) { self.drops } else { 0 })
    }

    fn client_hub(&mut self, _base: u32, _count: u32) -> DropHub {
        self.hub(0)
    }
}

fn run_lossy(cfg: FabricConfig) -> FabricReport {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut transport = LossyTransport { hub: InprocHub::new(), drops: cfg.client_outstanding };
        let cluster = FabricCluster::launch_with(&cfg, &mut transport);
        let _ = tx.send(cluster.run_to_completion(DEADLINE));
    });
    match rx.recv_timeout(DEADLINE + Duration::from_secs(30)) {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => panic!("lossy fabric run failed: {e}"),
        Err(_) => panic!("lossy fabric run wedged past the watchdog deadline"),
    }
}

#[test]
fn retries_of_a_lost_reply_window_are_served_from_the_cache() {
    let mut cfg = FabricConfig::new(4, SupportMode::Threshold);
    cfg.requests_per_client = 40;
    assert!(cfg.client_outstanding > 1, "the loss must cover a multi-request window");
    let report = run_lossy(cfg.clone());
    assert_eq!(report.completed_requests, cfg.total_requests(), "all requests completed");
    assert_eq!(report.latency.count, cfg.total_requests(), "one completion per request");
    assert!(report.converged(), "replicas diverged: {:#?}", report.replicas);
    let first = &report.replicas[0];
    for r in &report.replicas {
        // Exactly-once: the retries were answered, never re-executed.
        assert_eq!(r.consensus.executed, first.consensus.executed, "executions at {}", r.id);
        assert_eq!(r.history_digest, first.history_digest, "history digest at {}", r.id);
    }
    let replayed: u64 = report.replicas.iter().map(|r| r.session.replayed_from_cache).sum();
    assert!(replayed > 0, "the lost window must be replayed from the reply caches");
}
