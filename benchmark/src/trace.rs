//! The traced run's instruments: a span recorder and the decorators
//! the benchmark wraps around the public `ReplicaAutomaton`,
//! `StateMachine` and `ClientAutomaton` traits, so layer boundaries
//! are timed from the benchmark's own files and the product stays
//! untouched.
//!
//! A span is `{name, node, parent, start, end, seq}`. Store calls made
//! inside an automaton step are child spans of that step, so a layer's
//! self time is its span minus the part its children cover. Spans stay
//! in memory (pre-sized) until the run ends. The simulator runs on one
//! thread, so the recorder is a thread-local.

use poe_crypto::Digest;
use poe_kernel::automaton::{Action, ClientAutomaton, Event, Outbox, ReplicaAutomaton};
use poe_kernel::ids::{ClientId, ReplicaId, SeqNum, View};
use poe_kernel::messages::ProtocolMsg;
use poe_kernel::request::Batch;
use poe_kernel::statemachine::{ExecOutcome, StateMachine};
use poe_kernel::time::Time;
use poe_kernel::timer::TimerKind;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span without a parent or a sequence number.
pub const NONE: u32 = u32::MAX;
pub const NO_SEQ: u64 = u64::MAX;
/// Node ids of clients are offset by this in [`Span::node`].
pub const CLIENT_NODE_BASE: u16 = 0x8000;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Interned name (index into [`Recorder::names`]).
    pub name: u16,
    /// Replica index, or `CLIENT_NODE_BASE + client`.
    pub node: u16,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The batch sequence number the span works on, or [`NO_SEQ`]:
    /// spans of one batch share it.
    pub seq: u64,
}

/// Count and a few samples of one message kind, for the codec replay.
#[derive(Default)]
pub struct MixEntry {
    /// Send/broadcast actions carrying this kind (one encode each).
    pub sent: u64,
    /// Deliveries of this kind (one decode each).
    pub delivered: u64,
    pub samples: Vec<ProtocolMsg>,
}

const MIX_SAMPLES: usize = 32;

/// In-memory span store plus the message mix seen at the boundaries.
pub struct Recorder {
    epoch: Instant,
    pub names: Vec<&'static str>,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub mix: BTreeMap<&'static str, MixEntry>,
}

impl Recorder {
    fn new(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            mix: BTreeMap::new(),
        }
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        // A few dozen short names at most: a scan is cheaper than hashing.
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn begin(&mut self, name: &'static str, node: u16, seq: u64) -> u32 {
        let name = self.intern(name);
        let parent = self.open.last().copied().unwrap_or(NONE);
        let index = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, node, parent, start_ns, end_ns: start_ns, seq });
        self.open.push(index);
        index
    }

    fn end(&mut self, index: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close innermost-first");
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn saw(&mut self, msg: &ProtocolMsg, sent: bool) {
        let entry = self.mix.entry(msg.label()).or_default();
        if sent {
            entry.sent += 1;
        } else {
            entry.delivered += 1;
        }
        if entry.samples.len() < MIX_SAMPLES {
            entry.samples.push(msg.clone());
        }
    }

    /// Self time (span minus the part its children cover) and call
    /// count, summed by span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(self.names[s.name as usize]).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(*children);
            entry.1 += 1;
        }
        by_name
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, with room for `capacity` spans.
pub fn start(capacity: usize) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(capacity)));
}

/// Stops recording and hands the spans over.
pub fn finish() -> Recorder {
    RECORDER.with(|r| r.borrow_mut().take()).expect("trace::start was called")
}

/// Runs `f` on the recorder; a no-op outside `start` … `finish`, so a
/// traced cluster can keep stepping (to quiesce) after its spans were
/// taken.
fn with<T>(f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Runs `f` inside a span.
fn in_span<T>(name: &'static str, node: u16, seq: u64, f: impl FnOnce() -> T) -> T {
    let span = with(|r| r.begin(name, node, seq));
    let result = f();
    if let Some(span) = span {
        with(|r| r.end(span));
    }
    result
}

/// The batch sequence number a message works on, if it names one.
fn seq_of(msg: &ProtocolMsg) -> u64 {
    match msg {
        ProtocolMsg::PoePropose { seq, .. }
        | ProtocolMsg::PoeSupport { seq, .. }
        | ProtocolMsg::PoeSupportMac { seq, .. }
        | ProtocolMsg::PoeCertify { seq, .. }
        | ProtocolMsg::Checkpoint { seq, .. } => seq.0,
        ProtocolMsg::Reply(reply) => reply.seq.0,
        _ => NO_SEQ,
    }
}

fn timer_name(kind: &TimerKind) -> &'static str {
    match kind {
        TimerKind::RequestProgress(_) => "timeout.RequestProgress",
        TimerKind::SlotProgress(_) => "timeout.SlotProgress",
        TimerKind::ViewChange(_) => "timeout.ViewChange",
        TimerKind::ClientRetry(_) => "timeout.ClientRetry",
        TimerKind::BatchCut => "timeout.BatchCut",
        TimerKind::Repair => "timeout.Repair",
        TimerKind::RepairBudget => "timeout.RepairBudget",
        _ => "timeout.other",
    }
}

/// Names an event: `Init`, the message label for a delivery, the timer
/// kind for a timeout.
fn event_name(event: &Event) -> (&'static str, u64) {
    match event {
        Event::Init => ("Init", NO_SEQ),
        Event::Deliver { msg, .. } => (msg.label(), seq_of(msg)),
        Event::Timeout(kind) => (timer_name(kind), NO_SEQ),
    }
}

/// Notes what one step consumed and produced, for the codec replay.
fn note_step(event: &Event) {
    if let Event::Deliver { msg, .. } = event {
        with(|r| r.saw(msg, false));
    }
}

fn note_sends(out: &Outbox, from: usize) {
    with(|r| {
        for action in &out.actions()[from..] {
            if let Action::Send { msg, .. } | Action::Broadcast { msg } = action {
                r.saw(msg, true);
            }
        }
    });
}

/// A replica automaton with a span around every step.
pub struct TracedReplica<R: ReplicaAutomaton> {
    pub inner: R,
}

impl<R: ReplicaAutomaton> ReplicaAutomaton for TracedReplica<R> {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_event(&mut self, now: Time, event: Event, out: &mut Outbox) {
        note_step(&event);
        let already = out.len();
        let (name, seq) = event_name(&event);
        let node = self.inner.id().0 as u16;
        in_span(name, node, seq, || self.inner.on_event(now, event, out));
        note_sends(out, already);
    }

    fn current_view(&self) -> View {
        self.inner.current_view()
    }

    fn execution_frontier(&self) -> SeqNum {
        self.inner.execution_frontier()
    }

    fn state_digest(&self) -> Digest {
        self.inner.state_digest()
    }

    fn ledger_digest(&self) -> Digest {
        self.inner.ledger_digest()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    /// The wrapped automaton, so runtime-side inspection downcasts the
    /// same way with and without tracing.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// A state machine whose mutating calls are spans (children of the
/// automaton step that makes them).
pub struct TracedStore<S: StateMachine> {
    pub inner: S,
    pub node: u16,
}

impl<S: StateMachine> TracedStore<S> {
    fn span<T>(&mut self, name: &'static str, seq: u64, f: impl FnOnce(&mut S) -> T) -> T {
        in_span(name, self.node, seq, || f(&mut self.inner))
    }
}

impl<S: StateMachine> StateMachine for TracedStore<S> {
    fn apply(&mut self, seq: SeqNum, batch: &Batch) -> ExecOutcome {
        self.span("store.apply", seq.0, |s| s.apply(seq, batch))
    }

    fn rollback_to(&mut self, keep_up_to: Option<SeqNum>) {
        self.span("store.rollback_to", keep_up_to.map_or(NO_SEQ, |s| s.0), |s| {
            s.rollback_to(keep_up_to)
        })
    }

    fn state_digest(&self) -> Digest {
        self.inner.state_digest()
    }

    fn stabilize(&mut self, seq: SeqNum) {
        self.span("store.stabilize", seq.0, |s| s.stabilize(seq))
    }

    fn applied_up_to(&self) -> Option<SeqNum> {
        self.inner.applied_up_to()
    }

    fn checkpoint_image(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint_image()
    }

    fn stable_state_digest(&self) -> Digest {
        self.inner.stable_state_digest()
    }

    fn install_checkpoint(&mut self, seq: SeqNum, image: &[u8]) -> bool {
        self.span("store.install_checkpoint", seq.0, |s| s.install_checkpoint(seq, image))
    }
}

/// A client automaton with a span around every step.
pub struct TracedClient<C: ClientAutomaton> {
    pub inner: C,
}

impl<C: ClientAutomaton> ClientAutomaton for TracedClient<C> {
    fn id(&self) -> ClientId {
        self.inner.id()
    }

    fn on_event(&mut self, now: Time, event: Event, out: &mut Outbox) {
        note_step(&event);
        let already = out.len();
        let (name, seq) = event_name(&event);
        let node = CLIENT_NODE_BASE + self.inner.id().0 as u16;
        // Client spans are told apart from replica spans by name, so
        // self time sums per layer without consulting the node.
        let name = match name {
            "Init" => "client.Init",
            "INFORM" => "client.INFORM",
            "timeout.ClientRetry" => "client.timeout.ClientRetry",
            _ => "client.other",
        };
        in_span(name, node, seq, || self.inner.on_event(now, event, out));
        note_sends(out, already);
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}
