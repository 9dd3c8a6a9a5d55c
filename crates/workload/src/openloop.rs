//! Open-loop load generation: arrival processes and client-session
//! multiplexing.
//!
//! The closed-loop clients in [`crate::client`] measure *latency*: each
//! keeps a bounded window in flight, so offered load collapses to
//! whatever the cluster acknowledges and the system never saturates. An
//! open-loop engine severs that feedback: requests arrive on a clock
//! (fixed-rate or Poisson), regardless of how the cluster is doing —
//! the only honest way to measure throughput and to drive a system into
//! (and past) saturation.
//!
//! Two pieces, both runtime-agnostic and deterministic per seed:
//!
//! * [`ArrivalGen`] — turns a target rate into a monotone schedule of
//!   arrival instants (constant spacing, or exponential inter-arrivals
//!   for a Poisson process).
//! * [`SessionMux`] — multiplexes a shard of 10⁵–10⁶ simulated client
//!   sessions over one driver thread: per-session request ids, ≤ 1
//!   request in flight per session (so fabric-side session tables see
//!   realistic per-client ordering), reply-quorum counting, and
//!   bounded-memory accounting for arrivals that found every session
//!   busy or requests the cluster never answered.
//!
//! Replies lose their destination when 10⁵ client endpoints multiplex
//! onto one driver channel, so the mux encodes the session offset in
//! the high bits of `req_id` (per-session ids stay strictly monotone —
//! exactly what fabric session tables key their eviction on) and
//! recovers it from the reply without decoding anything else.

use poe_crypto::ed25519::Signature;
use poe_crypto::Digest;
use poe_kernel::ids::{ClientId, SeqNum, View};
use poe_kernel::messages::ClientReply;
use poe_kernel::quorum::MatchingVotes;
use poe_kernel::request::ClientRequest;
use poe_kernel::time::{Duration, Time};
use poe_kernel::wire::WireBytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The inter-arrival distribution of the open-loop clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Constant spacing `1/rate` (deterministic pacing).
    Fixed,
    /// Exponential inter-arrivals (a Poisson process at `rate`): the
    /// standard model for independent client populations, and the one
    /// that exposes queueing behavior near saturation — bursts arrive
    /// even when the *mean* rate is below capacity.
    Poisson,
}

/// A monotone schedule of arrival instants at a target rate.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    /// Mean inter-arrival gap in nanoseconds.
    mean_gap_ns: f64,
    rng: StdRng,
    next_at_ns: f64,
}

impl ArrivalGen {
    /// A generator producing arrivals at `rate_rps` requests/second,
    /// starting at instant 0. Deterministic per `seed`.
    pub fn new(process: ArrivalProcess, rate_rps: f64, seed: u64) -> ArrivalGen {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        ArrivalGen {
            process,
            mean_gap_ns: 1e9 / rate_rps,
            rng: StdRng::seed_from_u64(seed),
            next_at_ns: 0.0,
        }
    }

    /// The next arrival instant, in nanoseconds since the schedule
    /// epoch. Monotone non-decreasing.
    pub fn next_arrival_ns(&mut self) -> u64 {
        let at = self.next_at_ns;
        let gap = match self.process {
            ArrivalProcess::Fixed => self.mean_gap_ns,
            ArrivalProcess::Poisson => {
                // Inverse-CDF sampling; 1 - u ∈ (0, 1] avoids ln(0).
                let u: f64 = self.rng.gen();
                -(1.0 - u).ln() * self.mean_gap_ns
            }
        };
        self.next_at_ns = at + gap;
        at as u64
    }

    /// All arrivals due at or before `now_ns`, bounded by `max` (the
    /// driver's per-wake burst cap, so a stalled driver cannot build an
    /// unbounded catch-up burst).
    pub fn due_by(&mut self, now_ns: u64, max: usize) -> usize {
        let mut due = 0;
        while due < max && self.next_at_ns as u64 <= now_ns {
            self.next_arrival_ns();
            due += 1;
        }
        due
    }

    /// Nanoseconds from `now_ns` until the next arrival (0 if overdue).
    pub fn ns_until_next(&self, now_ns: u64) -> u64 {
        (self.next_at_ns as u64).saturating_sub(now_ns)
    }
}

/// Produces the serialized operation for a session's next request.
/// (Mirrors [`poe_kernel::automaton::RequestSource`] but without the
/// per-client shape — one source feeds a whole mux shard.)
pub trait OpSource: Send {
    /// The next operation payload, or `None` when the source dries up.
    fn next_op(&mut self) -> Option<Vec<u8>>;
}

impl OpSource for crate::ycsb::YcsbWorkload {
    fn next_op(&mut self) -> Option<Vec<u8>> {
        Some(self.next_transaction().encode())
    }
}

/// Reply-matching key: a request is complete once `quorum` distinct
/// replicas agree on (view, seq, result).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct CompletionKey {
    view: View,
    seq: SeqNum,
    result: WireBytes,
}

struct InFlightSession {
    req_id: u64,
    req_digest: Digest,
    submitted_at: Time,
    votes: MatchingVotes<CompletionKey>,
}

/// `req_id` layout: session offset in the high 32 bits, the session's
/// own monotone counter in the low 32. Per client the id is strictly
/// increasing (the offset is fixed per session), and the driver
/// recovers the session from any reply in O(1).
fn req_id_for(offset: u32, local: u32) -> u64 {
    (offset as u64) << 32 | local as u64
}

/// Inverse of [`req_id_for`]: the session offset.
fn offset_of(req_id: u64) -> u32 {
    (req_id >> 32) as u32
}

/// Signs a request on behalf of a session (client id, req id, op bytes)
/// when the cluster authenticates clients.
pub type Signer<'a> = &'a dyn Fn(ClientId, u64, &[u8]) -> Signature;

/// Counters a driver reports after its run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Requests handed to the wire.
    pub submitted: u64,
    /// Requests that reached their reply quorum.
    pub completed: u64,
    /// Arrivals dropped because every session in the shard was busy —
    /// the session population itself saturated (undersized `sessions`
    /// for the offered rate × latency product, by Little's law).
    pub no_idle_session: u64,
    /// In-flight requests abandoned by [`SessionMux::reap`]: the
    /// cluster shed or lost them and the session was reclaimed.
    pub abandoned: u64,
}

/// One driver thread's shard of the simulated client population.
pub struct SessionMux {
    /// First client id of the shard.
    base: u32,
    /// Replies needed to complete a request (PoE: `n − f`).
    quorum: usize,
    /// Per-session next local request counter (index = session − base).
    next_local: Vec<u32>,
    /// Stack of idle session offsets.
    idle: Vec<u32>,
    /// Session offset → in-flight bookkeeping. Bounded by the shard
    /// size (≤ 1 in flight per session).
    inflight: HashMap<u32, InFlightSession>,
    /// Highest view observed in replies (primary routing hint).
    view_hint: View,
    stats: MuxStats,
}

impl SessionMux {
    /// A shard of `count` sessions with client ids `base .. base+count`.
    pub fn new(base: u32, count: u32, quorum: usize) -> SessionMux {
        assert!(count >= 1, "empty session shard");
        assert!(quorum >= 1, "quorum must be positive");
        SessionMux {
            base,
            quorum,
            next_local: vec![0; count as usize],
            // Pop order: lowest ids first (purely cosmetic, but it makes
            // small runs readable).
            idle: (0..count).rev().collect(),
            inflight: HashMap::new(),
            view_hint: View::ZERO,
            stats: MuxStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// The mux's view of who is primary (from replies).
    pub fn view_hint(&self) -> View {
        self.view_hint
    }

    /// Begins one arrival: claims an idle session, draws its next
    /// operation, and returns the request to put on the wire (signed
    /// via `signer` when the cluster authenticates clients). `None`
    /// when every session is busy (counted) or the source dried up.
    pub fn begin(
        &mut self,
        now: Time,
        source: &mut dyn OpSource,
        signer: Option<Signer<'_>>,
    ) -> Option<ClientRequest> {
        let Some(offset) = self.idle.pop() else {
            self.stats.no_idle_session += 1;
            return None;
        };
        let Some(op) = source.next_op() else {
            self.idle.push(offset);
            return None;
        };
        let client = ClientId(self.base + offset);
        let req_id = req_id_for(offset, self.next_local[offset as usize]);
        self.next_local[offset as usize] += 1;
        let signature = signer.map(|sign| sign(client, req_id, &op));
        let request = ClientRequest::new(client, req_id, op, signature);
        self.inflight.insert(
            offset,
            InFlightSession {
                req_id,
                req_digest: request.digest(),
                submitted_at: now,
                votes: MatchingVotes::new(),
            },
        );
        self.stats.submitted += 1;
        Some(request)
    }

    /// Feeds one reply to the shard. Returns the request's submission
    /// instant when this reply completed its quorum (the caller records
    /// `now − submitted_at` as the latency sample).
    pub fn on_reply(&mut self, reply: &ClientReply) -> Option<Time> {
        if reply.view > self.view_hint {
            self.view_hint = reply.view;
        }
        let offset = offset_of(reply.req_id);
        let entry = self.inflight.get_mut(&offset)?;
        if entry.req_id != reply.req_id || entry.req_digest != reply.req_digest {
            return None; // Stale reply for an earlier incarnation.
        }
        let key = CompletionKey { view: reply.view, seq: reply.seq, result: reply.result.clone() };
        entry.votes.insert(reply.replica, key.clone());
        if entry.votes.count_for(&key) < self.quorum {
            return None;
        }
        let done = self.inflight.remove(&offset).expect("checked");
        self.idle.push(offset);
        self.stats.completed += 1;
        Some(done.submitted_at)
    }

    /// Reclaims sessions whose request has been in flight longer than
    /// `older_than` — the cluster shed it (backpressure) or lost it.
    /// Open-loop semantics: the arrival is *dropped*, not retried; the
    /// session returns to the idle pool so the offered rate is
    /// sustained with bounded memory. Returns how many were reaped.
    pub fn reap(&mut self, now: Time, older_than: Duration) -> usize {
        let cutoff = now.0.saturating_sub(older_than.as_nanos());
        let stale: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, s)| s.submitted_at.0 <= cutoff)
            .map(|(k, _)| *k)
            .collect();
        let reaped = stale.len();
        for offset in stale {
            self.inflight.remove(&offset);
            self.idle.push(offset);
            self.stats.abandoned += 1;
        }
        reaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_kernel::ids::ReplicaId;

    struct CountingSource(u64);

    impl OpSource for CountingSource {
        fn next_op(&mut self) -> Option<Vec<u8>> {
            self.0 += 1;
            Some(self.0.to_le_bytes().to_vec())
        }
    }

    fn inform(req: &ClientRequest, replica: u32, result: &[u8]) -> ClientReply {
        ClientReply {
            view: View(0),
            seq: SeqNum(0),
            req_digest: req.digest(),
            req_id: req.req_id,
            result: result.to_vec().into(),
            replica: ReplicaId(replica),
        }
    }

    #[test]
    fn fixed_arrivals_are_evenly_spaced() {
        let mut g = ArrivalGen::new(ArrivalProcess::Fixed, 1000.0, 1);
        let times: Vec<u64> = (0..5).map(|_| g.next_arrival_ns()).collect();
        assert_eq!(times, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }

    #[test]
    fn poisson_mean_matches_rate_and_is_deterministic() {
        let draw = |seed| {
            let mut g = ArrivalGen::new(ArrivalProcess::Poisson, 10_000.0, seed);
            let mut last = 0;
            let mut gaps = Vec::new();
            for _ in 0..20_000 {
                let at = g.next_arrival_ns();
                gaps.push(at - last);
                last = at;
            }
            gaps
        };
        let gaps = draw(7);
        assert_eq!(gaps, draw(7), "same seed must replay the schedule");
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        // Expected gap 100 µs; 20 k samples keep the estimate tight.
        assert!((95_000.0..105_000.0).contains(&mean), "mean gap {mean}");
        // Exponential gaps: the variance is visibly non-zero.
        assert!(gaps.iter().any(|g| *g > 200_000), "no long gaps at all?");
    }

    #[test]
    fn due_by_caps_catchup_bursts() {
        let mut g = ArrivalGen::new(ArrivalProcess::Fixed, 1_000_000.0, 1);
        // 1 ms of backlog at 1 M rps = 1000 arrivals; the cap wins.
        assert_eq!(g.due_by(1_000_000, 64), 64);
        assert!(g.ns_until_next(1_000_000) == 0, "still overdue after the cap");
    }

    #[test]
    fn session_ids_are_monotone_per_client() {
        let mut mux = SessionMux::new(0, 2, 3);
        let mut src = CountingSource(0);
        let a = mux.begin(Time(1), &mut src, None).expect("session");
        let b = mux.begin(Time(1), &mut src, None).expect("session");
        assert_ne!(a.client, b.client);
        // Complete a's request; its next request id must increase.
        for r in 0..3 {
            mux.on_reply(&inform(&a, r, b"ok"));
        }
        let a2 = mux.begin(Time(2), &mut src, None).expect("session");
        assert_eq!(a2.client, a.client);
        assert!(a2.req_id > a.req_id, "per-session ids must grow");
    }

    #[test]
    fn quorum_completes_and_frees_the_session() {
        let mut mux = SessionMux::new(0, 1, 3);
        let mut src = CountingSource(0);
        let req = mux.begin(Time(5), &mut src, None).expect("session");
        assert!(mux.begin(Time(5), &mut src, None).is_none(), "population busy");
        assert_eq!(mux.stats().no_idle_session, 1);
        assert!(mux.on_reply(&inform(&req, 0, b"ok")).is_none());
        assert!(mux.on_reply(&inform(&req, 0, b"ok")).is_none(), "dup replica");
        assert!(mux.on_reply(&inform(&req, 1, b"ok")).is_none());
        let submitted_at = mux.on_reply(&inform(&req, 2, b"ok")).expect("quorum");
        assert_eq!(submitted_at, Time(5));
        assert_eq!(mux.stats().completed, 1);
        assert_eq!(mux.in_flight(), 0);
        assert!(mux.begin(Time(6), &mut src, None).is_some(), "session freed");
    }

    #[test]
    fn divergent_results_do_not_complete() {
        let mut mux = SessionMux::new(0, 1, 2);
        let mut src = CountingSource(0);
        let req = mux.begin(Time(0), &mut src, None).expect("session");
        assert!(mux.on_reply(&inform(&req, 0, b"a")).is_none());
        assert!(mux.on_reply(&inform(&req, 1, b"b")).is_none());
        assert_eq!(mux.stats().completed, 0);
    }

    #[test]
    fn stale_reply_for_earlier_incarnation_ignored() {
        let mut mux = SessionMux::new(0, 1, 1);
        let mut src = CountingSource(0);
        let first = mux.begin(Time(0), &mut src, None).expect("session");
        mux.on_reply(&inform(&first, 0, b"ok")).expect("done");
        let second = mux.begin(Time(1), &mut src, None).expect("session");
        // A late duplicate reply for the *first* request must not
        // complete the second.
        assert!(mux.on_reply(&inform(&first, 1, b"ok")).is_none());
        assert_eq!(mux.stats().completed, 1);
        mux.on_reply(&inform(&second, 2, b"ok")).expect("done");
    }

    #[test]
    fn reap_reclaims_abandoned_sessions() {
        let mut mux = SessionMux::new(0, 2, 3);
        let mut src = CountingSource(0);
        mux.begin(Time(0), &mut src, None).expect("session");
        mux.begin(Time(Duration::from_secs(2).as_nanos()), &mut src, None).expect("session");
        let now = Time(Duration::from_secs(3).as_nanos());
        assert_eq!(mux.reap(now, Duration::from_secs(2)), 1, "only the old one");
        assert_eq!(mux.stats().abandoned, 1);
        assert_eq!(mux.in_flight(), 1);
    }

    #[test]
    fn view_hint_tracks_replies() {
        let mut mux = SessionMux::new(0, 1, 3);
        let mut src = CountingSource(0);
        let req = mux.begin(Time(0), &mut src, None).expect("session");
        let mut r = inform(&req, 0, b"ok");
        r.view = View(4);
        mux.on_reply(&r);
        assert_eq!(mux.view_hint(), View(4));
    }

    #[test]
    fn shard_base_offsets_client_ids() {
        let mut mux = SessionMux::new(1000, 4, 1);
        let mut src = CountingSource(0);
        let req = mux.begin(Time(0), &mut src, None).expect("session");
        assert_eq!(req.client, ClientId(1000));
        assert_eq!(offset_of(req.req_id), 0, "offset is shard-relative");
    }
}
