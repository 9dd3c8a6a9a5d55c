//! Per-client session table: exactly-once replies under retry storms.
//!
//! An open-loop engine multiplexing 10⁵–10⁶ sessions retries by
//! *broadcast* (the kernel's `RequestBroadcast` fallback), so one slow
//! batch can turn into n copies of every pending request arriving at
//! every replica. Without dedup, each copy costs an Ed25519 verify and
//! a consensus-queue slot — the retry storm itself saturates the
//! pipeline and the cluster collapses exactly when it is busiest.
//!
//! The table gives each replica the classic SMR session discipline
//! (PBFT §4.1 keeps "the last reply to each client"; PoE inherits it),
//! widened to a client's whole request window: PBFT's rule assumes one
//! outstanding request, but a client with `k` in flight can lose any of
//! the `k` replies, and a retry of a lost reply that is not the last
//! one must still be answered rather than dropped as stale:
//!
//! * a duplicate of a request still *in flight* is dropped at the
//!   batching stage, before signature verification — the reply it is
//!   waiting for is already on its way;
//! * a duplicate of one of the last `window` replied requests (the
//!   cluster's client window, see [`SessionTable::new`]) is answered
//!   straight from a cache of the encoded INFORM frame (a refcount
//!   bump, no re-encode, no consensus work) — this is what makes the
//!   reply exactly-once-per-execution rather than
//!   once-per-retransmission;
//! * anything older than the ring is stale and dropped.
//!
//! Admission is two-phase on the primary: [`SessionTable::classify`]
//! decides, then [`SessionTable::note_enqueued`] advances the in-flight
//! watermark only *after* the signature verified — otherwise a forged
//! request for `(client, req_id)` could mark the session busy and
//! dup-suppress the client's genuine request behind it.
//!
//! Memory is bounded on both axes: cached reply *frames* live under a
//! byte budget with FIFO eviction, and eviction only ever drops frames
//! — which are by construction at-or-below the session's last-replied
//! request — never the per-session watermarks, so exactly-once
//! admission survives eviction (a retry of an evicted reply is dropped
//! as stale rather than re-executed; the client's remaining `n − 1`
//! replicas still hold its reply in the common case).
//!
//! Safety valve: a duplicate in flight longer than the grace window is
//! passed through to the automaton anyway. The automaton's own dedup
//! keeps it safe, and the passthrough keeps the failure-detection path
//! alive — retransmissions of a request a faulty primary sat on must
//! eventually reach the protocol layer.

use poe_kernel::ids::ClientId;
use poe_kernel::wire::WireBytes;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// What the batching stage should do with an arriving client request.
#[derive(Debug)]
pub(crate) enum Admit {
    /// First sighting (or grace-expired retry): verify and batch it.
    Fresh,
    /// A copy of a request currently in the pipeline: drop it.
    DuplicateInFlight,
    /// A retry of a recently replied request: resend this cached frame.
    ReplyCached(WireBytes),
    /// Below the session's reply watermark (or its cache was evicted):
    /// drop it.
    Stale,
}

/// Counters of one replica's session table.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Distinct client sessions tracked.
    pub sessions: u64,
    /// Duplicates dropped while the original was still in flight.
    pub dup_in_flight: u64,
    /// Retries answered from the encoded-reply cache.
    pub replayed_from_cache: u64,
    /// Grace-expired duplicates passed through to the automaton.
    pub grace_passthrough: u64,
    /// Requests dropped below the reply watermark.
    pub stale_dropped: u64,
    /// Cached reply frames evicted by the byte budget.
    pub evicted_replies: u64,
    /// Peak bytes held by cached reply frames.
    pub cached_bytes_peak: usize,
}

#[derive(Default)]
struct SessionEntry {
    /// Highest request id admitted into the pipeline.
    last_enqueued: Option<u64>,
    /// When it was admitted (cluster time, ns).
    enqueued_at: u64,
    /// Highest request id this replica has replied to.
    last_replied: Option<u64>,
    /// Encoded reply frames of the last `window` replies, in the order
    /// they were recorded (minus any the byte budget evicted).
    cached: VecDeque<(u64, WireBytes)>,
}

impl SessionEntry {
    fn cached_frame(&self, req_id: u64) -> Option<&WireBytes> {
        self.cached.iter().find(|(id, _)| *id == req_id).map(|(_, frame)| frame)
    }
}

/// One replica's session table, shared (behind a mutex) between the
/// batching stage (admission) and the egress stage (reply recording).
pub(crate) struct SessionTable {
    sessions: HashMap<ClientId, SessionEntry>,
    /// Eviction order of cached frames; entries whose frame already left
    /// its session's ring are skipped lazily on pop.
    fifo: VecDeque<(ClientId, u64)>,
    cached_bytes: usize,
    budget_bytes: usize,
    /// Reply frames kept per session.
    window: usize,
    grace_ns: u64,
    stats: SessionStats,
}

impl SessionTable {
    /// A table caching at most `budget_bytes` of encoded reply frames,
    /// the last `window` of them per session, passing duplicates through
    /// after `grace` in flight. `window` is the clients' in-flight
    /// window: a client whose whole window lost its replies retries all
    /// of them, and each retry must be served from the cache.
    pub fn new(budget_bytes: usize, window: usize, grace: Duration) -> SessionTable {
        SessionTable {
            sessions: HashMap::new(),
            fifo: VecDeque::new(),
            cached_bytes: 0,
            budget_bytes,
            window: window.max(1),
            grace_ns: grace.as_nanos() as u64,
            stats: SessionStats::default(),
        }
    }

    /// Classifies one arriving request on the primary path. Watermarks
    /// are untouched — the caller reports verified admissions via
    /// [`SessionTable::note_enqueued`]. `now_ns` is cluster time.
    pub fn classify(&mut self, client: ClientId, req_id: u64, now_ns: u64) -> Admit {
        let Some(entry) = self.sessions.get(&client) else {
            return Admit::Fresh;
        };
        match entry.last_enqueued {
            None => return Admit::Fresh,
            Some(last) if req_id > last => return Admit::Fresh,
            Some(last) if req_id == last && entry.last_replied != Some(req_id) => {
                if now_ns.saturating_sub(entry.enqueued_at) > self.grace_ns {
                    // Let the automaton see it — its own dedup is safe,
                    // and progress timers need retransmissions to stay
                    // live behind a faulty primary.
                    self.stats.grace_passthrough += 1;
                    return Admit::Fresh;
                }
                self.stats.dup_in_flight += 1;
                return Admit::DuplicateInFlight;
            }
            Some(_) => {}
        }
        if let Some(frame) = entry.cached_frame(req_id) {
            self.stats.replayed_from_cache += 1;
            return Admit::ReplyCached(frame.clone());
        }
        self.stats.stale_dropped += 1;
        Admit::Stale
    }

    /// Marks `(client, req_id)` in flight — called once the request's
    /// signature verified and it entered the batcher.
    pub fn note_enqueued(&mut self, client: ClientId, req_id: u64, now_ns: u64) {
        let entry = self.sessions.entry(client).or_default();
        if entry.last_enqueued.is_none_or(|last| req_id >= last) {
            entry.last_enqueued = Some(req_id);
            entry.enqueued_at = now_ns;
        }
    }

    /// The non-primary path: serves a cached reply for an exact retry
    /// of a recently replied request, without touching any watermark
    /// (relays must keep flowing so the automaton's failure-detection
    /// timers see retransmissions).
    pub fn replay(&mut self, client: ClientId, req_id: u64) -> Option<WireBytes> {
        let frame = self.sessions.get(&client)?.cached_frame(req_id)?.clone();
        self.stats.replayed_from_cache += 1;
        Some(frame)
    }

    /// Records the encoded reply frame for `(client, req_id)` — called
    /// by egress right after the INFORM is encoded. Advances the reply
    /// watermark (a late reply is cached without moving it back), pushes
    /// the frame onto the session's ring, dropping the ring's oldest
    /// frame beyond `window`, then evicts oldest frames until the byte
    /// budget holds.
    pub fn record_reply(&mut self, client: ClientId, req_id: u64, frame: &WireBytes) {
        let entry = self.sessions.entry(client).or_default();
        if entry.cached_frame(req_id).is_some() {
            return; // Duplicate of a reply already cached.
        }
        if entry.last_replied.is_none_or(|r| req_id > r) {
            entry.last_replied = Some(req_id);
        }
        entry.cached.push_back((req_id, frame.clone()));
        self.cached_bytes += frame.len();
        if entry.cached.len() > self.window {
            let (_, old) = entry.cached.pop_front().expect("ring is over length");
            self.cached_bytes -= old.len();
        }
        self.fifo.push_back((client, req_id));
        self.stats.cached_bytes_peak = self.stats.cached_bytes_peak.max(self.cached_bytes);
        while self.cached_bytes > self.budget_bytes {
            let Some((c, id)) = self.fifo.pop_front() else { break };
            let Some(e) = self.sessions.get_mut(&c) else { continue };
            // Skip lazily if this fifo entry's frame already left the
            // session's ring.
            if let Some(pos) = e.cached.iter().position(|(cached_id, _)| *cached_id == id) {
                let (_, frame) = e.cached.remove(pos).expect("position is in range");
                self.cached_bytes -= frame.len();
                self.stats.evicted_replies += 1;
            }
        }
    }

    /// Counters so far (sessions gauge refreshed on read).
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        s.sessions = self.sessions.len() as u64;
        s
    }

    /// Bytes currently held by cached reply frames.
    #[cfg(test)]
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRACE: Duration = Duration::from_secs(1);
    const WINDOW: usize = 4;
    const GRACE_NS: u64 = 1_000_000_000;

    fn c(i: u32) -> ClientId {
        ClientId(i)
    }

    fn frame(n: usize) -> WireBytes {
        WireBytes::from(vec![0xAB; n])
    }

    /// classify-then-note, the verified-admission path.
    fn admit(t: &mut SessionTable, client: ClientId, req_id: u64, now: u64) -> Admit {
        let verdict = t.classify(client, req_id, now);
        if matches!(verdict, Admit::Fresh) {
            t.note_enqueued(client, req_id, now);
        }
        verdict
    }

    #[test]
    fn first_sighting_is_fresh_even_at_req_id_zero() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        assert!(matches!(admit(&mut t, c(0), 0, 10), Admit::Fresh));
        assert!(matches!(admit(&mut t, c(1), 0, 10), Admit::Fresh));
        // And a retransmission of that id 0 is then a duplicate.
        assert!(matches!(admit(&mut t, c(0), 0, 20), Admit::DuplicateInFlight));
    }

    #[test]
    fn duplicate_in_flight_is_dropped_then_passes_after_grace() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        assert!(matches!(admit(&mut t, c(0), 5, 100), Admit::Fresh));
        assert!(matches!(admit(&mut t, c(0), 5, 200), Admit::DuplicateInFlight));
        assert!(matches!(admit(&mut t, c(0), 5, 100 + GRACE_NS + 1), Admit::Fresh));
        assert_eq!(t.stats().grace_passthrough, 1);
        // The passthrough re-stamps the clock: the next duplicate is
        // swallowed again.
        assert!(matches!(admit(&mut t, c(0), 5, 100 + GRACE_NS + 2), Admit::DuplicateInFlight));
    }

    #[test]
    fn unverified_classify_does_not_mark_in_flight() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        // A forged request is classified but never noted (its signature
        // failed) — the genuine request must still be Fresh.
        assert!(matches!(t.classify(c(0), 5, 100), Admit::Fresh));
        assert!(matches!(t.classify(c(0), 5, 101), Admit::Fresh));
    }

    #[test]
    fn retry_after_reply_is_served_from_cache() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        admit(&mut t, c(0), 7, 0);
        t.record_reply(c(0), 7, &frame(32));
        match admit(&mut t, c(0), 7, 10) {
            Admit::ReplyCached(f) => assert_eq!(f.len(), 32),
            other => panic!("expected cached reply, got {other:?}"),
        }
        assert_eq!(t.stats().replayed_from_cache, 1);
        // The next request id is fresh as usual.
        assert!(matches!(admit(&mut t, c(0), 8, 20), Admit::Fresh));
    }

    #[test]
    fn retry_after_eviction_is_stale_not_reexecuted() {
        let mut t = SessionTable::new(64, WINDOW, GRACE);
        admit(&mut t, c(0), 1, 0);
        t.record_reply(c(0), 1, &frame(48));
        // The second session's reply blows the budget; c0's frame (the
        // FIFO head) is evicted.
        admit(&mut t, c(1), 1, 0);
        t.record_reply(c(1), 1, &frame(48));
        assert_eq!(t.stats().evicted_replies, 1);
        assert!(t.cached_bytes() <= 64);
        // Exactly-once must hold: the retry is dropped, not re-admitted.
        assert!(matches!(admit(&mut t, c(0), 1, 10), Admit::Stale));
        assert_eq!(t.stats().stale_dropped, 1);
    }

    #[test]
    fn eviction_never_drops_the_watermark() {
        let mut t = SessionTable::new(16, WINDOW, GRACE);
        for id in 1..=5u64 {
            admit(&mut t, c(0), id, id);
            t.record_reply(c(0), id, &frame(32)); // Always over budget.
        }
        // All frames evicted as they went; the watermark still advanced.
        assert!(matches!(admit(&mut t, c(0), 3, 100), Admit::Stale));
        assert!(matches!(admit(&mut t, c(0), 6, 100), Admit::Fresh));
    }

    #[test]
    fn newer_reply_replaces_the_cached_frame() {
        let mut t = SessionTable::new(1 << 16, WINDOW, GRACE);
        admit(&mut t, c(0), 1, 0);
        t.record_reply(c(0), 1, &frame(100));
        // The ring fills up; the reply that falls off its end releases
        // its frame and becomes stale.
        for id in 2..=WINDOW as u64 + 1 {
            admit(&mut t, c(0), id, id);
            t.record_reply(c(0), id, &frame(60));
        }
        assert_eq!(t.cached_bytes(), 60 * WINDOW, "old frame released");
        assert!(matches!(admit(&mut t, c(0), 1, 100), Admit::Stale));
        assert!(matches!(admit(&mut t, c(0), 2, 100), Admit::ReplyCached(_)));
        assert!(matches!(admit(&mut t, c(0), WINDOW as u64 + 1, 100), Admit::ReplyCached(_)));
    }

    #[test]
    fn out_of_order_reply_does_not_regress_the_watermark() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        admit(&mut t, c(0), 9, 0);
        t.record_reply(c(0), 9, &frame(10));
        t.record_reply(c(0), 4, &frame(10)); // Late: cached, watermark kept.
        assert!(t.replay(c(0), 9).is_some());
        assert!(t.replay(c(0), 4).is_some());
        // Had the watermark moved back to 4, request 9 would look in
        // flight again and its retry would be swallowed.
        assert!(matches!(admit(&mut t, c(0), 9, 10), Admit::ReplyCached(_)));
        // A duplicate reply is not cached twice.
        t.record_reply(c(0), 9, &frame(10));
        assert_eq!(t.cached_bytes(), 20);
    }

    #[test]
    fn every_lost_reply_in_a_client_window_is_served_from_cache() {
        let mut t = SessionTable::new(1 << 16, WINDOW, GRACE);
        // A client with a full window outstanding: every request executes
        // and is replied to, but the client saw none of the replies.
        for id in 1..=WINDOW as u64 {
            admit(&mut t, c(0), id, id);
        }
        for id in 1..=WINDOW as u64 {
            t.record_reply(c(0), id, &frame(32));
        }
        // Its retries of every request in the window hit the cache at
        // the primary and on the relay path; none is re-admitted.
        for id in 1..=WINDOW as u64 {
            assert!(matches!(admit(&mut t, c(0), id, 10), Admit::ReplyCached(_)), "req {id}");
            assert!(t.replay(c(0), id).is_some(), "req {id}");
        }
        assert_eq!(t.stats().replayed_from_cache, 2 * WINDOW as u64);
        assert_eq!(t.stats().stale_dropped, 0);
    }

    #[test]
    fn replay_serves_only_the_exact_cached_request() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        assert!(t.replay(c(0), 1).is_none(), "unknown session");
        t.record_reply(c(0), 1, &frame(8));
        assert!(t.replay(c(0), 1).is_some());
        assert!(t.replay(c(0), 2).is_none());
        assert_eq!(t.stats().replayed_from_cache, 1);
    }

    #[test]
    fn stats_count_sessions() {
        let mut t = SessionTable::new(1024, WINDOW, GRACE);
        admit(&mut t, c(0), 1, 0);
        admit(&mut t, c(1), 1, 0);
        t.record_reply(c(2), 1, &frame(4));
        assert_eq!(t.stats().sessions, 3);
    }
}
