//! The client automaton.
//!
//! Clients submit signed requests to the primary, keep a bounded number in
//! flight (closed loop), complete a request once a quorum of identical
//! INFORMs arrives (PoE: `nf`, Figure 3), and retransmit by
//! broadcasting to all replicas when a timeout expires — the fallback
//! path of paper §II-B: "If client c does not know the current primary or
//! does not get any timely response … it can broadcast its request to all
//! replicas".

use poe_crypto::provider::CryptoProvider;
use poe_kernel::automaton::{ClientAutomaton, Event, Notification, Outbox, RequestSource};
use poe_kernel::ids::{ClientId, SeqNum, View};
use poe_kernel::messages::{ClientReply, ProtocolMsg};
use poe_kernel::quorum::MatchingVotes;
use poe_kernel::request::ClientRequest;
use poe_kernel::time::{Duration, Time};
use poe_kernel::timer::TimerKind;
use poe_kernel::wire::WireBytes;
use std::collections::HashMap;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// This client's id.
    pub id: ClientId,
    /// Number of replicas.
    pub n: usize,
    /// Fault bound `f`.
    pub f: usize,
    /// Number of identical replies from distinct replicas that complete
    /// a request.
    pub quorum: usize,
    /// Maximum requests in flight (1 = fully closed loop, the Fig. 9(k,l)
    /// configuration).
    pub outstanding: usize,
    /// Stop after this many completions (`None` = unbounded).
    pub max_requests: Option<u64>,
    /// Retransmission timeout (paper uses 3 s).
    pub retry: Duration,
    /// Whether requests are signed (false only in `CryptoMode::None`).
    pub sign: bool,
}

impl ClientConfig {
    /// Defaults for a client needing `quorum` matching replies.
    pub fn matching(id: ClientId, n: usize, f: usize, quorum: usize) -> ClientConfig {
        ClientConfig {
            id,
            n,
            f,
            quorum,
            outstanding: 1,
            max_requests: None,
            retry: Duration::from_secs(3),
            sign: true,
        }
    }

    /// Sets the in-flight window.
    pub fn with_outstanding(mut self, outstanding: usize) -> Self {
        assert!(outstanding >= 1);
        self.outstanding = outstanding;
        self
    }

    /// Bounds the number of requests.
    pub fn with_max_requests(mut self, max: u64) -> Self {
        self.max_requests = Some(max);
        self
    }

    /// Sets the retransmission timeout.
    pub fn with_retry(mut self, retry: Duration) -> Self {
        self.retry = retry;
        self
    }
}

/// Reply-matching key: identical means same (view, seq, result). Replies
/// are matched by *value* (the result is a cheap shared view), not by
/// hashing: reply collection runs once per reply per request, and a
/// tuple compare beats a digest there.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct ReplyKey {
    view: View,
    seq: SeqNum,
    result: WireBytes,
}

struct InFlight {
    request: ClientRequest,
    submitted_at: Time,
    votes: MatchingVotes<ReplyKey>,
    retries: u32,
}

/// The workload-driven client automaton.
pub struct WorkloadClient {
    cfg: ClientConfig,
    crypto: CryptoProvider,
    source: Box<dyn RequestSource>,
    next_req_id: u64,
    inflight: HashMap<u64, InFlight>,
    completed: u64,
    view_hint: View,
    exhausted: bool,
}

impl WorkloadClient {
    /// Creates a client driving `source` under `cfg`, signing with
    /// `crypto`.
    pub fn new(
        cfg: ClientConfig,
        crypto: CryptoProvider,
        source: Box<dyn RequestSource>,
    ) -> WorkloadClient {
        WorkloadClient {
            cfg,
            crypto,
            source,
            next_req_id: 0,
            inflight: HashMap::new(),
            completed: 0,
            view_hint: View::ZERO,
            exhausted: false,
        }
    }

    /// The client's view of who is primary.
    pub fn view_hint(&self) -> View {
        self.view_hint
    }

    /// True once this client has nothing left to do: the workload budget
    /// *or* the request source is exhausted (whichever comes first) and
    /// no request is in flight. Wall-clock runtimes use this as the
    /// client thread's exit condition.
    pub fn is_done(&self) -> bool {
        let budget_spent =
            self.exhausted || self.cfg.max_requests.is_some_and(|max| self.completed >= max);
        budget_spent && self.inflight.is_empty()
    }

    fn budget_left(&self) -> bool {
        match self.cfg.max_requests {
            Some(max) => self.completed + self.inflight.len() as u64 > max,
            None => false,
        }
    }

    fn may_submit(&self) -> bool {
        if self.exhausted {
            return false;
        }
        if let Some(max) = self.cfg.max_requests {
            if self.completed + self.inflight.len() as u64 >= max {
                return false;
            }
        }
        self.inflight.len() < self.cfg.outstanding
    }

    fn submit_up_to_window(&mut self, now: Time, out: &mut Outbox) {
        while self.may_submit() {
            let Some(op) = self.source.next_op(self.cfg.id) else {
                self.exhausted = true;
                break;
            };
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            let signature = self.cfg.sign.then(|| {
                let bytes = ClientRequest::signing_bytes(self.cfg.id, req_id, &op);
                self.crypto.sign(&bytes)
            });
            let request = ClientRequest::new(self.cfg.id, req_id, op, signature);
            let primary = self.view_hint.primary(self.cfg.n);
            out.send(primary, ProtocolMsg::Request(request.clone()));
            out.set_timer(TimerKind::ClientRetry(req_id), self.cfg.retry);
            self.inflight.insert(
                req_id,
                InFlight { request, submitted_at: now, votes: MatchingVotes::new(), retries: 0 },
            );
        }
    }

    fn complete(&mut self, req_id: u64, now: Time, out: &mut Outbox) {
        let Some(entry) = self.inflight.remove(&req_id) else {
            return;
        };
        out.cancel_timer(TimerKind::ClientRetry(req_id));
        self.completed += 1;
        out.notify(Notification::RequestComplete {
            client: self.cfg.id,
            req_id,
            submitted_at: entry.submitted_at,
        });
        self.submit_up_to_window(now, out);
    }

    fn on_reply(&mut self, reply: ClientReply, now: Time, out: &mut Outbox) {
        if reply.view > self.view_hint {
            self.view_hint = reply.view;
        }
        let req_id = reply.req_id;
        let Some(entry) = self.inflight.get_mut(&req_id) else {
            return; // Stale or duplicate reply for a finished request.
        };
        if reply.req_digest != entry.request.digest() {
            return; // Reply for a different incarnation of this id.
        }
        let key = ReplyKey { view: reply.view, seq: reply.seq, result: reply.result };
        entry.votes.insert(reply.replica, key.clone());
        if entry.votes.count_for(&key) >= self.cfg.quorum {
            self.complete(req_id, now, out);
        }
    }

    fn on_retry(&mut self, req_id: u64, out: &mut Outbox) {
        let Some(entry) = self.inflight.get_mut(&req_id) else {
            return;
        };
        entry.retries += 1;
        // Fall back to broadcasting to all replicas; they forward to the
        // primary and start failure-detection timers.
        out.broadcast(ProtocolMsg::RequestBroadcast(entry.request.clone()));
        out.set_timer(TimerKind::ClientRetry(req_id), self.cfg.retry);
    }
}

impl ClientAutomaton for WorkloadClient {
    fn id(&self) -> ClientId {
        self.cfg.id
    }

    fn on_event(&mut self, now: Time, event: Event, out: &mut Outbox) {
        match event {
            Event::Init => self.submit_up_to_window(now, out),
            Event::Deliver { from: _, msg: ProtocolMsg::Reply(reply) } => {
                self.on_reply(reply, now, out)
            }
            Event::Deliver { .. } => {}
            Event::Timeout(TimerKind::ClientRetry(req_id)) => self.on_retry(req_id, out),
            Event::Timeout(_) => {}
        }
        // Defensive: budget accounting should never go negative.
        debug_assert!(!self.budget_left() || self.cfg.max_requests.is_none());
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_crypto::{CertScheme, CryptoMode, Digest, KeyMaterial};
    use poe_kernel::automaton::{Action, FixedPayloadSource};
    use poe_kernel::ids::{NodeId, ReplicaId};

    fn client(quorum: usize, outstanding: usize) -> WorkloadClient {
        let km = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 3);
        let cfg = ClientConfig {
            id: ClientId(0),
            n: 4,
            f: 1,
            quorum,
            outstanding,
            max_requests: None,
            retry: Duration::from_secs(3),
            sign: true,
        };
        WorkloadClient::new(cfg, km.client(0), Box::new(FixedPayloadSource::unbounded(vec![1])))
    }

    fn reply(c: &WorkloadClient, replica: u32, req_id: u64, result: &[u8]) -> ClientReply {
        // Build a reply matching the client's in-flight request digest.
        let entry = c.inflight.get(&req_id).expect("in flight");
        ClientReply {
            view: View(0),
            seq: SeqNum(0),
            req_digest: entry.request.digest(),
            req_id,
            result: result.to_vec().into(),
            replica: ReplicaId(replica),
        }
    }

    fn deliver_raw(c: &mut WorkloadClient, r: ClientReply, now: Time) -> Vec<Action> {
        let mut out = Outbox::new();
        c.on_event(
            now,
            Event::Deliver { from: NodeId::Replica(r.replica), msg: ProtocolMsg::Reply(r) },
            &mut out,
        );
        out.drain()
    }

    fn deliver(
        c: &mut WorkloadClient,
        replica: u32,
        req_id: u64,
        result: &[u8],
        now: Time,
    ) -> Vec<Action> {
        let r = reply(c, replica, req_id, result);
        deliver_raw(c, r, now)
    }

    #[test]
    fn init_submits_window() {
        let mut c = client(3, 2);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        let sends = out
            .actions()
            .iter()
            .filter(|a| matches!(a, Action::Send { msg: ProtocolMsg::Request(_), .. }))
            .count();
        assert_eq!(sends, 2);
        assert_eq!(c.in_flight(), 2);
    }

    #[test]
    fn quorum_of_identical_replies_completes() {
        let mut c = client(3, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        for r in 0..2 {
            deliver(&mut c, r, 0, b"ok", Time(1));
            assert_eq!(c.completed(), 0);
        }
        let actions = deliver(&mut c, 2, 0, b"ok", Time(2));
        assert_eq!(c.completed(), 1);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Notify(Notification::RequestComplete { .. }))));
        // Closed loop: next request submitted.
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn divergent_replies_do_not_complete() {
        let mut c = client(3, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        deliver(&mut c, 0, 0, b"a", Time(1));
        deliver(&mut c, 1, 0, b"b", Time(1));
        deliver(&mut c, 2, 0, b"c", Time(1));
        assert_eq!(c.completed(), 0);
    }

    #[test]
    fn duplicate_replica_does_not_count_twice() {
        let mut c = client(2, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        deliver(&mut c, 0, 0, b"ok", Time(1));
        deliver(&mut c, 0, 0, b"ok", Time(1));
        assert_eq!(c.completed(), 0);
        deliver(&mut c, 1, 0, b"ok", Time(1));
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn retry_broadcasts_request() {
        let mut c = client(3, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        let mut out2 = Outbox::new();
        c.on_event(Time(1), Event::Timeout(TimerKind::ClientRetry(0)), &mut out2);
        assert!(out2
            .actions()
            .iter()
            .any(|a| matches!(a, Action::Broadcast { msg: ProtocolMsg::RequestBroadcast(_) })));
    }

    #[test]
    fn max_requests_bounds_submission() {
        let km = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 3);
        let cfg = ClientConfig::matching(ClientId(0), 4, 1, 1).with_max_requests(2);
        let mut c = WorkloadClient::new(
            cfg,
            km.client(0),
            Box::new(FixedPayloadSource::unbounded(vec![1])),
        );
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        assert_eq!(c.in_flight(), 1);
        deliver(&mut c, 0, 0, b"ok", Time(1));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.in_flight(), 1);
        deliver(&mut c, 0, 1, b"ok", Time(2));
        assert_eq!(c.completed(), 2);
        assert_eq!(c.in_flight(), 0, "budget exhausted: no further submissions");
    }

    #[test]
    fn is_done_when_source_exhausts_before_budget() {
        let km = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 3);
        // Budget allows 5 requests, but the source dries up after 2:
        // the client must still report done (a wall-clock runtime would
        // otherwise spin on it until its deadline).
        let cfg = ClientConfig::matching(ClientId(0), 4, 1, 1).with_max_requests(5);
        let mut c = WorkloadClient::new(
            cfg,
            km.client(0),
            Box::new(FixedPayloadSource::bounded(vec![1], 2)),
        );
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        assert!(!c.is_done());
        deliver(&mut c, 0, 0, b"ok", Time(1));
        assert!(!c.is_done(), "one request left in the source");
        deliver(&mut c, 0, 1, b"ok", Time(2));
        assert_eq!(c.completed(), 2);
        assert!(c.is_done(), "source exhausted + nothing in flight = done");
    }

    #[test]
    fn is_done_when_budget_spent() {
        let mut c = client(1, 1);
        assert!(!c.is_done(), "unbounded budget, infinite source");
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        c.cfg.max_requests = Some(1);
        deliver(&mut c, 0, 0, b"ok", Time(1));
        assert!(c.is_done());
    }

    #[test]
    fn view_hint_tracks_replies() {
        let mut c = client(3, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        let mut r = reply(&c, 0, 0, b"ok");
        r.view = View(5);
        deliver_raw(&mut c, r, Time(1));
        assert_eq!(c.view_hint(), View(5));
    }

    #[test]
    fn stale_reply_ignored() {
        let mut c = client(1, 1);
        let mut out = Outbox::new();
        c.on_event(Time::ZERO, Event::Init, &mut out);
        // Complete request 0.
        deliver(&mut c, 0, 0, b"ok", Time(1));
        assert_eq!(c.completed(), 1);
        // A late duplicate for request 0 must not disturb request 1.
        let stale = ClientReply {
            view: View(0),
            seq: SeqNum(0),
            req_digest: Digest::of(b"whatever"),
            req_id: 0,
            result: b"ok".to_vec().into(),
            replica: ReplicaId(2),
        };
        deliver_raw(&mut c, stale, Time(2));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.in_flight(), 1);
    }
}
