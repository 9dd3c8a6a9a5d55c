//! Retry-storm tests: the session table must keep replies exactly-once
//! per *execution* no matter how aggressively a client retransmits —
//! duplicates while the request is in flight, retries after the reply,
//! and retries after the cached reply frame was evicted. Run in both
//! SUPPORT modes (threshold shares and MAC votes), since the reply path
//! the cache serves is the INFORM fan-out of either.

use crate::cluster::{FabricCluster, FabricConfig, FabricReport};
use crate::runtime::encode_frame;
use poe_consensus::SupportMode;
use poe_kernel::codec::{decode_envelope_shared, ScratchPool};
use poe_kernel::ids::{ClientId, NodeId, ReplicaId};
use poe_kernel::messages::ProtocolMsg;
use poe_kernel::request::ClientRequest;
use poe_kernel::wire::WireBytes;
use poe_workload::{YcsbConfig, YcsbWorkload};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const CLIENT: ClientId = ClientId(0);

struct Storm {
    cluster: FabricCluster,
    rx: crossbeam::channel::Receiver<WireBytes>,
    scratch: ScratchPool,
    source: YcsbWorkload,
}

impl Storm {
    fn launch(support: SupportMode, reply_cache_bytes: usize) -> Storm {
        let mut cfg = FabricConfig::new(4, support);
        cfg.n_clients = 1; // Key material for the one storming client.
        cfg.tuning.reply_cache_bytes = reply_cache_bytes;
        // Keep the dup-suppression window wide so the storm cannot
        // sneak through on grace passthrough and blur the counters.
        cfg.tuning.session_grace = Duration::from_secs(30);
        let cluster = FabricCluster::launch_headless(&cfg);
        let rx = cluster.shared().hub.register(NodeId::Client(CLIENT));
        Storm {
            cluster,
            rx,
            scratch: ScratchPool::new(),
            source: YcsbWorkload::new(YcsbConfig::small()),
        }
    }

    fn request(&mut self, req_id: u64) -> ClientRequest {
        let op = self.source.next_transaction().encode();
        ClientRequest::new(CLIENT, req_id, op, None)
    }

    /// One encoded copy of `req`, as the client would frame it.
    fn frame(&mut self, req: &ClientRequest, broadcast: bool) -> WireBytes {
        let msg = if broadcast {
            ProtocolMsg::RequestBroadcast(req.clone())
        } else {
            ProtocolMsg::Request(req.clone())
        };
        encode_frame(&mut self.scratch, NodeId::Client(CLIENT), msg)
    }

    fn send_to_primary(&mut self, req: &ClientRequest, copies: usize) {
        let frame = self.frame(req, false);
        for _ in 0..copies {
            self.cluster.shared().hub.send(NodeId::Replica(ReplicaId(0)), frame.clone());
        }
    }

    fn broadcast(&mut self, req: &ClientRequest, copies: usize) {
        let frame = self.frame(req, true);
        for _ in 0..copies {
            self.cluster.shared().hub.broadcast(NodeId::Client(CLIENT), &frame);
        }
    }

    /// Drains INFORM replies for `req` until `want` distinct replicas
    /// answered (panics after 5 s — the request was lost). Egress
    /// records the reply in the session cache *before* sending, so once
    /// a replica's INFORM arrived here, its cache is known warm.
    fn await_informs(&mut self, req: &ClientRequest, want: usize) -> usize {
        let mut replicas = HashSet::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while replicas.len() < want {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no INFORM quorum for req {} in 5s", req.req_id);
            let Ok(frame) = self.rx.recv_timeout(left.min(Duration::from_millis(50))) else {
                continue;
            };
            let Ok(env) = decode_envelope_shared(&frame) else { continue };
            if let ProtocolMsg::Reply(r) = env.msg {
                if r.req_id == req.req_id {
                    replicas.insert(r.replica);
                }
            }
        }
        replicas.len()
    }

    /// Counts replies for `req` arriving within `window` (for phases
    /// where *some* replay service is expected, or none at all).
    fn count_replies(&mut self, req: &ClientRequest, window: Duration) -> usize {
        let deadline = Instant::now() + window;
        let mut seen = 0;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return seen;
            }
            let Ok(frame) = self.rx.recv_timeout(left) else { continue };
            let Ok(env) = decode_envelope_shared(&frame) else { continue };
            if let ProtocolMsg::Reply(r) = env.msg {
                if r.req_id == req.req_id {
                    seen += 1;
                }
            }
        }
    }

    fn finish(self) -> FabricReport {
        let report =
            self.cluster.run_to_completion(Duration::from_secs(30)).expect("storm run completes");
        assert!(report.converged(), "replicas must converge after the storm");
        report
    }
}

/// The exactly-once invariant, independent of storm timing: each
/// replica executed exactly `batches` batches, no matter how many
/// copies of the requests it saw.
fn assert_executed(report: &FabricReport, batches: u64) {
    for r in &report.replicas {
        assert_eq!(
            r.consensus.executed, batches,
            "replica {} re-executed under the retry storm",
            r.id
        );
    }
}

fn storm_in_flight_and_after_reply(support: SupportMode) {
    let mut storm = Storm::launch(support, 1 << 20);
    let req = storm.request(1);

    // Phase 1 — duplicates in flight: two waves so the second wave
    // classifies against a noted (post-verify) watermark even if the
    // first wave shares one admission chunk.
    storm.send_to_primary(&req, 16);
    std::thread::sleep(Duration::from_millis(2));
    storm.send_to_primary(&req, 16);
    // Wait for *all four* INFORMs: every replica's reply cache is then
    // warm (in MAC mode the quorum can complete off backups before the
    // primary's own egress has recorded its reply).
    let informs = storm.await_informs(&req, 4);
    assert!(informs >= 3, "nf matching INFORMs complete the request");

    // Phase 2 — retry after the reply: the primary must answer from the
    // reply cache; a broadcast retransmission also exercises the
    // non-primary replay path.
    storm.send_to_primary(&req, 8);
    storm.broadcast(&req, 2);
    let replays = storm.count_replies(&req, Duration::from_millis(300));
    assert!(replays > 0, "retry after reply must be served from the cache");

    // A second request keeps the session advancing normally.
    let req2 = storm.request(2);
    storm.send_to_primary(&req2, 1);
    storm.await_informs(&req2, 4);

    let report = storm.finish();
    assert_executed(&report, 2);
    let primary = &report.replicas[0];
    assert!(
        primary.session.replayed_from_cache > 0,
        "primary must have served cached replies: {:?}",
        primary.session
    );
    let dedup = primary.session.dup_in_flight + primary.session.replayed_from_cache;
    assert!(dedup > 0, "storm copies must be absorbed by the session table");
    // Backups saw broadcast retransmissions after the reply was cached.
    assert!(
        report.replicas.iter().skip(1).any(|r| r.session.replayed_from_cache > 0),
        "some backup must have replayed from its cache"
    );
}

fn storm_after_eviction(support: SupportMode) {
    // A 1-byte budget evicts every reply frame the moment it is cached.
    let mut storm = Storm::launch(support, 1);
    let req = storm.request(1);
    storm.send_to_primary(&req, 4);
    storm.await_informs(&req, 4);
    storm.count_replies(&req, Duration::from_millis(50)); // Drain stragglers.

    // Retry after eviction, at the primary: must be dropped as stale —
    // NOT re-executed, and no reply can be served (the frame is gone).
    storm.send_to_primary(&req, 8);
    let replies = storm.count_replies(&req, Duration::from_millis(300));
    assert_eq!(replies, 0, "evicted reply cannot be replayed by the session table");

    // Broadcast retransmissions additionally reach the backups, whose
    // caches are also evicted: the relay path hands them to the
    // automaton, whose own last-reply state may re-serve the INFORM
    // (liveness) — but nothing may re-execute.
    storm.broadcast(&req, 2);
    storm.count_replies(&req, Duration::from_millis(200));

    let report = storm.finish();
    assert_executed(&report, 1);
    let primary = &report.replicas[0];
    assert!(primary.session.evicted_replies > 0, "budget must have evicted: {:?}", primary.session);
    assert!(
        primary.session.stale_dropped > 0,
        "post-eviction retries must be dropped stale, not re-executed: {:?}",
        primary.session
    );
}

#[test]
fn retry_storm_exactly_once_ts() {
    storm_in_flight_and_after_reply(SupportMode::Threshold);
}

#[test]
fn retry_storm_exactly_once_mac() {
    storm_in_flight_and_after_reply(SupportMode::Mac);
}

#[test]
fn retry_after_eviction_is_not_reexecuted_ts() {
    storm_after_eviction(SupportMode::Threshold);
}

#[test]
fn retry_after_eviction_is_not_reexecuted_mac() {
    storm_after_eviction(SupportMode::Mac);
}
