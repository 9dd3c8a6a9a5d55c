//! Hand-written binary wire format.
//!
//! The offline dependency set has no serde *format* crate, so the wire
//! format is written by hand: little-endian fixed-width integers,
//! u32-length-prefixed sequences, one tag byte per enum variant. The same
//! writer is generic over a [`Sink`] so messages can be *measured*
//! (`encoded_len`) without allocating — the simulator's bandwidth model
//! uses that path on every send.
//!
//! Decoding has two modes sharing one grammar:
//!
//! * **owned** ([`decode_msg`] / [`decode_envelope`]) — payload byte
//!   strings are copied out of the input slice;
//! * **shared** ([`decode_msg_shared`] / [`decode_envelope_shared`]) —
//!   the input is a refcounted [`WireBytes`] frame and every payload
//!   (request `op`s, reply results) becomes a *view* into it, so nothing
//!   is copied. With a warmed [`BatchPool`] the shared mode decodes a
//!   full PROPOSE — request payloads included — without touching the
//!   heap at all (proved by `tests/alloc_free_decode.rs`).
//!
//! Every top-level decode entry point ends with [`Reader::finish`], so a
//! frame carrying trailing garbage after a well-formed message is
//! rejected, not silently accepted.
//!
//! The signed view-change payload ([`PoeVcRequest`]) exposes
//! [`poe_vc_signing_bytes`], the exact byte string covered by its
//! embedded Ed25519 signature.

use crate::ids::{ClientId, NodeId, ReplicaId, SeqNum, View};
use crate::messages::{
    ClientReply, Envelope, ExecEntry, PoeVcRequest, ProtocolMsg, RepairManifest, StateChunkPayload,
    StateRequestKind,
};
use crate::request::{Batch, ClientRequest};
use crate::wire::WireBytes;
use poe_crypto::digest::{Digest, DIGEST_LEN};
use poe_crypto::ed25519::Signature;
use poe_crypto::provider::AuthTag;
use poe_crypto::threshold::{SignatureShare, ThresholdCert};
use std::sync::Arc;

pub use poe_crypto::sink::Sink;

/// A sink that only counts bytes.
#[derive(Default)]
pub struct LenCounter(pub usize);

impl Sink for LenCounter {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Decoding error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message")
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// In shared mode, the frame `buf` is a view of — byte-string fields
    /// decode as sub-views of it instead of copies.
    frame: Option<&'a WireBytes>,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, frame: None }
    }

    fn over_frame(frame: &'a WireBytes) -> Reader<'a> {
        Reader { buf: frame, pos: 0, frame: Some(frame) }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("len 8")))
    }

    fn digest(&mut self) -> Option<Digest> {
        self.take(DIGEST_LEN).map(|s| Digest::from_bytes(s.try_into().expect("digest len")))
    }

    fn signature(&mut self) -> Option<Signature> {
        self.take(64).map(|s| Signature::from_bytes(s.try_into().expect("sig len")))
    }

    /// Reads a u32-length-prefixed byte string as a **borrowed**
    /// sub-slice of the input buffer. Decoders that need ownership copy
    /// at the last moment (directly into the output structure), so
    /// decoding never materializes intermediate heap buffers.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a u32-length-prefixed byte string as a [`WireBytes`]. In
    /// shared mode this is a zero-copy, zero-allocation sub-view of the
    /// frame; in owned mode the bytes are copied into a fresh buffer.
    fn wire_bytes(&mut self) -> Option<WireBytes> {
        let len = self.u32()? as usize;
        let start = self.pos;
        let slice = self.take(len)?;
        Some(match self.frame {
            Some(f) => f.slice(start..start + len),
            None => WireBytes::copy_from(slice),
        })
    }

    fn remainder(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Exhaustion check every top-level decode must end with: a
    /// well-formed message followed by trailing bytes is malformed.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.remainder() == 0 {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
}

// --------------------------------------------------------------- writers

fn put_view<S: Sink>(out: &mut S, v: View) {
    out.put(&v.0.to_le_bytes());
}

fn put_seq<S: Sink>(out: &mut S, k: SeqNum) {
    out.put(&k.0.to_le_bytes());
}

fn put_digest<S: Sink>(out: &mut S, d: &Digest) {
    out.put(d.as_bytes());
}

fn put_bytes<S: Sink>(out: &mut S, b: &[u8]) {
    out.put(&(b.len() as u32).to_le_bytes());
    out.put(b);
}

fn put_opt_seq<S: Sink>(out: &mut S, s: Option<SeqNum>) {
    match s {
        None => out.put_u8(0),
        Some(k) => {
            out.put_u8(1);
            put_seq(out, k);
        }
    }
}

fn put_request<S: Sink>(out: &mut S, req: &ClientRequest) {
    out.put(&req.client.0.to_le_bytes());
    out.put(&req.req_id.to_le_bytes());
    put_bytes(out, &req.op);
    match &req.signature {
        None => out.put_u8(0),
        Some(sig) => {
            out.put_u8(1);
            out.put(sig.as_bytes());
        }
    }
}

fn put_batch<S: Sink>(out: &mut S, batch: &Batch) {
    out.put(&(batch.requests.len() as u32).to_le_bytes());
    for req in &batch.requests {
        put_request(out, req);
    }
}

/// Streams a share into the sink via the crypto crate's (single,
/// authoritative) encoder — no intermediate buffer; this runs once per
/// SUPPORT on the hot path.
fn put_share<S: Sink>(out: &mut S, share: &SignatureShare) {
    share.encode(out);
}

/// Streams a length-prefixed certificate into the sink. The prefix
/// comes from [`ThresholdCert::encoded_len`], which is pure arithmetic;
/// the body is the crypto crate's own encoder.
fn put_cert<S: Sink>(out: &mut S, cert: &ThresholdCert) {
    out.put(&(cert.encoded_len() as u32).to_le_bytes());
    cert.encode(out);
}

/// Streams a length-prefixed auth tag into the sink (crypto crate's
/// encoder, no intermediate buffer).
fn put_auth_tag<S: Sink>(out: &mut S, tag: &AuthTag) {
    out.put(&(tag.encoded_len() as u32).to_le_bytes());
    tag.encode(out);
}

fn put_opt_cert<S: Sink>(out: &mut S, cert: &Option<ThresholdCert>) {
    match cert {
        None => out.put_u8(0),
        Some(c) => {
            out.put_u8(1);
            put_cert(out, c);
        }
    }
}

fn put_exec_entry<S: Sink>(out: &mut S, e: &ExecEntry) {
    put_view(out, e.view);
    put_seq(out, e.seq);
    put_opt_cert(out, &e.cert);
    put_batch(out, &e.batch);
}

fn put_vc_request_body<S: Sink>(out: &mut S, vc: &PoeVcRequest) {
    out.put(&vc.from.0.to_le_bytes());
    put_view(out, vc.view);
    put_opt_seq(out, vc.stable_seq);
    out.put(&(vc.entries.len() as u32).to_le_bytes());
    for e in &vc.entries {
        put_exec_entry(out, e);
    }
}

fn put_vc_request<S: Sink>(out: &mut S, vc: &PoeVcRequest) {
    put_vc_request_body(out, vc);
    out.put(vc.signature.as_bytes());
}

fn put_reply<S: Sink>(out: &mut S, r: &ClientReply) {
    put_view(out, r.view);
    put_seq(out, r.seq);
    put_digest(out, &r.req_digest);
    out.put(&r.req_id.to_le_bytes());
    put_bytes(out, &r.result);
    out.put(&r.replica.0.to_le_bytes());
}

/// Writes `msg` into `out`.
pub fn write_msg<S: Sink>(out: &mut S, msg: &ProtocolMsg) {
    match msg {
        ProtocolMsg::Request(req) => {
            out.put_u8(0);
            put_request(out, req);
        }
        ProtocolMsg::RequestBroadcast(req) => {
            out.put_u8(1);
            put_request(out, req);
        }
        ProtocolMsg::Forward(req) => {
            out.put_u8(2);
            put_request(out, req);
        }
        ProtocolMsg::Reply(r) => {
            out.put_u8(3);
            put_reply(out, r);
        }
        ProtocolMsg::PoePropose { view, seq, batch } => {
            out.put_u8(10);
            put_view(out, *view);
            put_seq(out, *seq);
            put_batch(out, batch);
        }
        ProtocolMsg::PoeSupport { view, seq, share } => {
            out.put_u8(11);
            put_view(out, *view);
            put_seq(out, *seq);
            put_share(out, share);
        }
        ProtocolMsg::PoeSupportMac { view, seq, digest } => {
            out.put_u8(12);
            put_view(out, *view);
            put_seq(out, *seq);
            put_digest(out, digest);
        }
        ProtocolMsg::PoeCertify { view, seq, cert } => {
            out.put_u8(13);
            put_view(out, *view);
            put_seq(out, *seq);
            put_cert(out, cert);
        }
        ProtocolMsg::PoeVcRequest(vc) => {
            out.put_u8(14);
            put_vc_request(out, vc);
        }
        ProtocolMsg::PoeNvPropose { new_view, requests } => {
            out.put_u8(15);
            put_view(out, *new_view);
            out.put(&(requests.len() as u32).to_le_bytes());
            for vc in requests {
                put_vc_request(out, vc);
            }
        }
        ProtocolMsg::Checkpoint { seq, state_digest } => {
            out.put_u8(60);
            put_seq(out, *seq);
            put_digest(out, state_digest);
        }
        ProtocolMsg::StateRequest(kind) => {
            out.put_u8(61);
            match kind {
                StateRequestKind::Manifest => out.put_u8(0),
                StateRequestKind::Chunk { stable, chunk } => {
                    out.put_u8(1);
                    put_seq(out, *stable);
                    out.put(&chunk.to_le_bytes());
                }
                StateRequestKind::Tail { after } => {
                    out.put_u8(2);
                    put_seq(out, *after);
                }
            }
        }
        ProtocolMsg::StateChunk(payload) => {
            out.put_u8(62);
            match payload {
                StateChunkPayload::Manifest(m) => {
                    out.put_u8(0);
                    put_seq(out, m.stable);
                    put_digest(out, &m.state_digest);
                    put_digest(out, &m.history_digest);
                    out.put(&m.image_len.to_le_bytes());
                    put_digest(out, &m.image_digest);
                }
                StateChunkPayload::Chunk { stable, chunk, total, data } => {
                    out.put_u8(1);
                    put_seq(out, *stable);
                    out.put(&chunk.to_le_bytes());
                    out.put(&total.to_le_bytes());
                    put_bytes(out, data);
                }
                StateChunkPayload::Tail { after, entries } => {
                    out.put_u8(2);
                    put_seq(out, *after);
                    out.put(&(entries.len() as u32).to_le_bytes());
                    for e in entries {
                        put_exec_entry(out, e);
                    }
                }
            }
        }
    }
}

/// Encodes a message into a fresh, exactly-sized buffer.
///
/// The buffer is pre-sized with [`encoded_len`] (a measuring pass over
/// the same writer, no allocation), so encoding performs exactly one
/// heap allocation and zero reallocations. Hot loops that can reuse
/// buffers should prefer [`ScratchPool::encode_msg`], which performs
/// zero.
pub fn encode_msg(msg: &ProtocolMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(msg));
    write_msg(&mut out, msg);
    out
}

/// Encodes `msg` into `out`, clearing it first. Reserves the exact
/// encoded size, so a buffer that has ever held a message of this size
/// is never reallocated.
pub fn encode_msg_into(msg: &ProtocolMsg, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(encoded_len(msg));
    write_msg(out, msg);
}

/// Exact encoded size of `msg`, without allocating the buffer.
pub fn encoded_len(msg: &ProtocolMsg) -> usize {
    let mut counter = LenCounter::default();
    write_msg(&mut counter, msg);
    counter.0
}

/// Encodes `msg` once into a refcounted frame ready to be shared across
/// all recipients of a broadcast (clone the view per edge, decode with
/// [`decode_msg_shared`] at each receiver).
pub fn encode_frame(msg: &ProtocolMsg) -> WireBytes {
    WireBytes::from(encode_msg(msg))
}

/// The byte string a PoE VC-REQUEST signature covers (everything except
/// the signature itself).
pub fn poe_vc_signing_bytes(vc: &PoeVcRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    put_vc_request_body(&mut out, vc);
    out
}

// ----------------------------------------------------------- batch pool

/// A recycler of uniquely-owned `Arc<Batch>` allocations for
/// allocation-free steady-state decode (the receive-side twin of
/// [`ScratchPool`]).
///
/// Decoding a batch-carrying message needs one `Arc<Batch>` and its
/// `requests` vector — the only heap objects left on the shared-decode
/// path once payloads became [`WireBytes`] views. A warmed pool hands
/// those back out, so a full PROPOSE decode performs **zero**
/// allocations. Recycling only accepts batches with no other references
/// (checked via `Arc::get_mut`), so a batch still referenced by a
/// consensus slot is simply dropped from the pool's perspective.
#[derive(Debug)]
pub struct BatchPool {
    free: Vec<Arc<Batch>>,
    max_batches: usize,
    hits: u64,
    misses: u64,
}

impl Default for BatchPool {
    fn default() -> Self {
        BatchPool::new()
    }
}

impl BatchPool {
    /// Default pool bound (matches [`ScratchPool::DEFAULT_MAX_BUFFERS`]).
    pub const DEFAULT_MAX_BATCHES: usize = 64;

    /// An empty pool with the default bound.
    pub fn new() -> BatchPool {
        BatchPool::with_max_batches(Self::DEFAULT_MAX_BATCHES)
    }

    /// An empty pool holding at most `max_batches` recycled batches.
    pub fn with_max_batches(max_batches: usize) -> BatchPool {
        BatchPool { free: Vec::new(), max_batches, hits: 0, misses: 0 }
    }

    /// Takes a uniquely-owned batch (recycled or freshly allocated).
    fn take(&mut self) -> Arc<Batch> {
        match self.free.pop() {
            Some(b) => {
                self.hits += 1;
                b
            }
            None => {
                self.misses += 1;
                Arc::new(Batch { requests: Vec::new(), digest: Digest::EMPTY })
            }
        }
    }

    /// Returns a decoded batch for reuse. Kept only when the caller holds
    /// the last reference and the pool has room; otherwise dropped. The
    /// requests are cleared immediately (capacity retained) so a pooled
    /// container never pins its last receive frame in memory.
    pub fn recycle(&mut self, mut batch: Arc<Batch>) {
        if self.free.len() < self.max_batches {
            if let Some(b) = Arc::get_mut(&mut batch) {
                b.requests.clear();
                b.digest = Digest::EMPTY;
                self.free.push(batch);
            }
        }
    }

    /// Batches currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// `(reuse_hits, fresh_allocations)` counters, for instrumentation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Per-decode context: an optional batch recycler.
struct DecodeCtx<'p> {
    pool: Option<&'p mut BatchPool>,
}

impl DecodeCtx<'_> {
    fn take_batch(&mut self, count: usize) -> Arc<Batch> {
        match self.pool.as_deref_mut() {
            Some(pool) => pool.take(),
            None => Arc::new(Batch { requests: Vec::with_capacity(count), digest: Digest::EMPTY }),
        }
    }
}

// --------------------------------------------------------------- readers

fn get_request(r: &mut Reader<'_>) -> Option<ClientRequest> {
    let client = ClientId(r.u32()?);
    let req_id = r.u64()?;
    let op = r.wire_bytes()?;
    let signature = match r.u8()? {
        0 => None,
        1 => Some(r.signature()?),
        _ => return None,
    };
    Some(ClientRequest::new(client, req_id, op, signature))
}

fn get_batch(r: &mut Reader<'_>, ctx: &mut DecodeCtx<'_>) -> Option<Arc<Batch>> {
    let count = r.u32()? as usize;
    // Guard against absurd allocations from corrupt input.
    if count > r.remainder() {
        return None;
    }
    let mut arc = ctx.take_batch(count);
    {
        let batch = Arc::get_mut(&mut arc).expect("pool hands out uniquely owned batches");
        batch.requests.clear();
        batch.requests.reserve(count);
        for _ in 0..count {
            batch.requests.push(get_request(r)?);
        }
        batch.digest = Batch::digest_of(&batch.requests);
    }
    Some(arc)
}

fn get_share(r: &mut Reader<'_>) -> Option<SignatureShare> {
    let (share, used) = SignatureShare::decode(&r.buf[r.pos..])?;
    r.pos += used;
    Some(share)
}

fn get_cert(r: &mut Reader<'_>) -> Option<ThresholdCert> {
    // Borrowed view: the certificate decodes straight out of the wire
    // buffer, with no intermediate copy of its length-prefixed body.
    let raw = r.bytes()?;
    let (cert, used) = ThresholdCert::decode(raw)?;
    (used == raw.len()).then_some(cert)
}

fn get_opt_cert(r: &mut Reader<'_>) -> Option<Option<ThresholdCert>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(get_cert(r)?)),
        _ => None,
    }
}

fn get_exec_entry(r: &mut Reader<'_>, ctx: &mut DecodeCtx<'_>) -> Option<ExecEntry> {
    Some(ExecEntry {
        view: View(r.u64()?),
        seq: SeqNum(r.u64()?),
        cert: get_opt_cert(r)?,
        batch: get_batch(r, ctx)?,
    })
}

fn get_opt_seq(r: &mut Reader<'_>) -> Option<Option<SeqNum>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(SeqNum(r.u64()?))),
        _ => None,
    }
}

fn get_vc_request(r: &mut Reader<'_>, ctx: &mut DecodeCtx<'_>) -> Option<PoeVcRequest> {
    let from = ReplicaId(r.u32()?);
    let view = View(r.u64()?);
    let stable_seq = get_opt_seq(r)?;
    let count = r.u32()? as usize;
    if count > r.remainder() {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(get_exec_entry(r, ctx)?);
    }
    let signature = r.signature()?;
    Some(PoeVcRequest { from, view, stable_seq, entries, signature })
}

fn get_reply(r: &mut Reader<'_>) -> Option<ClientReply> {
    Some(ClientReply {
        view: View(r.u64()?),
        seq: SeqNum(r.u64()?),
        req_digest: r.digest()?,
        req_id: r.u64()?,
        result: r.wire_bytes()?,
        replica: ReplicaId(r.u32()?),
    })
}

/// Decodes one message from `buf` (must consume the entire buffer).
/// Payload byte strings are copied; prefer [`decode_msg_shared`] when
/// the input is a shared frame.
pub fn decode_msg(buf: &[u8]) -> Result<ProtocolMsg, DecodeError> {
    let mut r = Reader::new(buf);
    let mut ctx = DecodeCtx { pool: None };
    let msg = decode_inner(&mut r, &mut ctx).ok_or(DecodeError)?;
    r.finish()?;
    Ok(msg)
}

/// Decodes one message from a shared frame (must consume it entirely).
/// Request payloads and reply results become zero-copy views into
/// `frame`; the frame stays alive as long as any decoded payload does.
pub fn decode_msg_shared(frame: &WireBytes) -> Result<ProtocolMsg, DecodeError> {
    let mut r = Reader::over_frame(frame);
    let mut ctx = DecodeCtx { pool: None };
    let msg = decode_inner(&mut r, &mut ctx).ok_or(DecodeError)?;
    r.finish()?;
    Ok(msg)
}

/// [`decode_msg_shared`] with batch-container recycling: a warmed pool
/// makes the whole decode allocation-free (request payloads included).
pub fn decode_msg_pooled(
    frame: &WireBytes,
    pool: &mut BatchPool,
) -> Result<ProtocolMsg, DecodeError> {
    let mut r = Reader::over_frame(frame);
    let mut ctx = DecodeCtx { pool: Some(pool) };
    let msg = decode_inner(&mut r, &mut ctx).ok_or(DecodeError)?;
    r.finish()?;
    Ok(msg)
}

fn decode_inner(r: &mut Reader<'_>, ctx: &mut DecodeCtx<'_>) -> Option<ProtocolMsg> {
    Some(match r.u8()? {
        0 => ProtocolMsg::Request(get_request(r)?),
        1 => ProtocolMsg::RequestBroadcast(get_request(r)?),
        2 => ProtocolMsg::Forward(get_request(r)?),
        3 => ProtocolMsg::Reply(get_reply(r)?),
        10 => ProtocolMsg::PoePropose {
            view: View(r.u64()?),
            seq: SeqNum(r.u64()?),
            batch: get_batch(r, ctx)?,
        },
        11 => ProtocolMsg::PoeSupport {
            view: View(r.u64()?),
            seq: SeqNum(r.u64()?),
            share: get_share(r)?,
        },
        12 => ProtocolMsg::PoeSupportMac {
            view: View(r.u64()?),
            seq: SeqNum(r.u64()?),
            digest: r.digest()?,
        },
        13 => ProtocolMsg::PoeCertify {
            view: View(r.u64()?),
            seq: SeqNum(r.u64()?),
            cert: get_cert(r)?,
        },
        14 => ProtocolMsg::PoeVcRequest(get_vc_request(r, ctx)?),
        15 => {
            let new_view = View(r.u64()?);
            let count = r.u32()? as usize;
            if count > r.remainder() {
                return None;
            }
            let mut requests = Vec::with_capacity(count);
            for _ in 0..count {
                requests.push(get_vc_request(r, ctx)?);
            }
            ProtocolMsg::PoeNvPropose { new_view, requests }
        }
        60 => ProtocolMsg::Checkpoint { seq: SeqNum(r.u64()?), state_digest: r.digest()? },
        61 => ProtocolMsg::StateRequest(match r.u8()? {
            0 => StateRequestKind::Manifest,
            1 => StateRequestKind::Chunk { stable: SeqNum(r.u64()?), chunk: r.u32()? },
            2 => StateRequestKind::Tail { after: SeqNum(r.u64()?) },
            _ => return None,
        }),
        62 => ProtocolMsg::StateChunk(match r.u8()? {
            0 => StateChunkPayload::Manifest(RepairManifest {
                stable: SeqNum(r.u64()?),
                state_digest: r.digest()?,
                history_digest: r.digest()?,
                image_len: r.u64()?,
                image_digest: r.digest()?,
            }),
            1 => StateChunkPayload::Chunk {
                stable: SeqNum(r.u64()?),
                chunk: r.u32()?,
                total: r.u32()?,
                // Shared mode: a zero-copy sub-view of the frame.
                data: r.wire_bytes()?,
            },
            2 => {
                let after = SeqNum(r.u64()?);
                let count = r.u32()? as usize;
                if count > r.remainder() {
                    return None;
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(get_exec_entry(r, ctx)?);
                }
                StateChunkPayload::Tail { after, entries }
            }
            _ => return None,
        }),
        _ => return None,
    })
}

// -------------------------------------------------------------- envelope

/// Writes an envelope (sender, auth, message) into any sink.
pub fn write_envelope<S: Sink>(out: &mut S, env: &Envelope) {
    match env.from {
        NodeId::Replica(r) => {
            out.put_u8(0);
            out.put(&r.0.to_le_bytes());
        }
        NodeId::Client(c) => {
            out.put_u8(1);
            out.put(&c.0.to_le_bytes());
        }
    }
    put_auth_tag(out, &env.auth);
    write_msg(out, &env.msg);
}

/// Exact encoded size of an envelope, without allocating.
pub fn envelope_encoded_len(env: &Envelope) -> usize {
    let mut counter = LenCounter::default();
    write_envelope(&mut counter, env);
    counter.0
}

/// Encodes an envelope into a fresh, exactly-sized buffer (one
/// allocation; see [`ScratchPool::encode_envelope`] for zero).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(envelope_encoded_len(env));
    write_envelope(&mut out, env);
    out
}

/// Encodes an envelope into `out`, clearing it first and reserving the
/// exact encoded size.
pub fn encode_envelope_into(env: &Envelope, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(envelope_encoded_len(env));
    write_envelope(out, env);
}

/// Writes an envelope around **already-encoded** message bytes — the
/// per-peer link-authentication path: the message is encoded once (via
/// [`ScratchPool::encode_msg`]), then each peer's envelope is assembled
/// around the shared bytes with that peer's tag, without re-walking the
/// message structure per recipient.
pub fn write_envelope_parts<S: Sink>(out: &mut S, from: NodeId, auth: &AuthTag, msg_bytes: &[u8]) {
    match from {
        NodeId::Replica(r) => {
            out.put_u8(0);
            out.put(&r.0.to_le_bytes());
        }
        NodeId::Client(c) => {
            out.put_u8(1);
            out.put(&c.0.to_le_bytes());
        }
    }
    put_auth_tag(out, auth);
    out.put(msg_bytes);
}

/// Byte offset where the message encoding starts inside an encoded
/// envelope — exactly the region a link authenticator covers (the
/// sender header and the tag itself are excluded, since the tag cannot
/// cover its own bytes). `None` when the buffer is too short to hold
/// the header or claims a tag running past the end.
pub fn envelope_msg_offset(buf: &[u8]) -> Option<usize> {
    // [from kind u8][from id u32][auth_len u32][auth tag ...][msg ...]
    if buf.len() < 9 || buf[0] > 1 {
        return None;
    }
    let auth_len = u32::from_le_bytes(buf[5..9].try_into().expect("len 4")) as usize;
    let offset = 9usize.checked_add(auth_len)?;
    (offset <= buf.len()).then_some(offset)
}

// ---------------------------------------------------------- scratch pool

/// A reusable pool of encode buffers for allocation-free steady-state
/// encoding.
///
/// Every `encode_msg`/`encode_envelope` call on the pool takes a
/// recycled buffer (or allocates one the first few times), encodes into
/// it pre-sized via [`encoded_len`], and hands it out; callers return it
/// with [`ScratchPool::recycle`] once the bytes are on the wire. After
/// warm-up the pool reaches a fixed point where **no encode allocates**:
/// buffers keep their high-water-mark capacity, and `clear()` +
/// `reserve()` are O(1) no-ops.
///
/// **Complexity.** `take`/`recycle` are O(1) vector push/pop; memory is
/// bounded by `max_buffers × high-water-mark message size` (default 64
/// buffers; beyond that `recycle` drops the buffer instead of growing
/// the pool, so a burst cannot pin memory forever).
///
/// The pool is deliberately not thread-safe: each replica/worker thread
/// owns one (the fabric runtime is one automaton per thread), so there
/// is no synchronization on the hot path.
#[derive(Debug)]
pub struct ScratchPool {
    free: Vec<Vec<u8>>,
    max_buffers: usize,
    /// Encodes served without taking a fresh allocation for the buffer.
    reuse_hits: u64,
    /// Buffers newly allocated because the pool was empty.
    misses: u64,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool::new()
    }
}

impl ScratchPool {
    /// Default pool bound: enough for every in-flight message of a
    /// replica's send window without unbounded growth.
    pub const DEFAULT_MAX_BUFFERS: usize = 64;

    /// An empty pool with the default bound.
    pub fn new() -> ScratchPool {
        ScratchPool::with_max_buffers(Self::DEFAULT_MAX_BUFFERS)
    }

    /// An empty pool holding at most `max_buffers` recycled buffers.
    pub fn with_max_buffers(max_buffers: usize) -> ScratchPool {
        ScratchPool { free: Vec::new(), max_buffers, reuse_hits: 0, misses: 0 }
    }

    /// Takes a cleared buffer from the pool (allocating if empty).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.reuse_hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for reuse. Dropped (deallocating) if
    /// the pool is already at its bound.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.free.len() < self.max_buffers {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Encodes `msg` into a pooled buffer (allocation-free once warm).
    ///
    /// Deliberately skips the `encoded_len` measuring pass: a recycled
    /// buffer already carries its high-water-mark capacity, so the
    /// reserve would be a no-op bought with a full structural traversal.
    /// Only cold (freshly allocated) buffers pay amortized growth.
    pub fn encode_msg(&mut self, msg: &ProtocolMsg) -> Vec<u8> {
        let mut buf = self.take();
        write_msg(&mut buf, msg);
        buf
    }

    /// Encodes `env` into a pooled buffer (allocation-free once warm;
    /// same no-measuring-pass strategy as [`ScratchPool::encode_msg`]).
    pub fn encode_envelope(&mut self, env: &Envelope) -> Vec<u8> {
        let mut buf = self.take();
        write_envelope(&mut buf, env);
        buf
    }

    /// Buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// `(reuse_hits, fresh_allocations)` counters, for instrumentation.
    pub fn stats(&self) -> (u64, u64) {
        (self.reuse_hits, self.misses)
    }
}

/// Decodes an envelope (payloads copied out of `buf`).
pub fn decode_envelope(buf: &[u8]) -> Result<Envelope, DecodeError> {
    let mut r = Reader::new(buf);
    decode_envelope_inner(&mut r, &mut DecodeCtx { pool: None })
}

/// Decodes an envelope from a shared frame: the carried message's
/// payloads become zero-copy views into `frame`.
pub fn decode_envelope_shared(frame: &WireBytes) -> Result<Envelope, DecodeError> {
    let mut r = Reader::over_frame(frame);
    decode_envelope_inner(&mut r, &mut DecodeCtx { pool: None })
}

/// [`decode_envelope_shared`] with batch-container recycling (see
/// [`BatchPool`]).
pub fn decode_envelope_pooled(
    frame: &WireBytes,
    pool: &mut BatchPool,
) -> Result<Envelope, DecodeError> {
    let mut r = Reader::over_frame(frame);
    decode_envelope_inner(&mut r, &mut DecodeCtx { pool: Some(pool) })
}

fn decode_envelope_inner(
    r: &mut Reader<'_>,
    ctx: &mut DecodeCtx<'_>,
) -> Result<Envelope, DecodeError> {
    let from = match r.u8().ok_or(DecodeError)? {
        0 => NodeId::Replica(ReplicaId(r.u32().ok_or(DecodeError)?)),
        1 => NodeId::Client(ClientId(r.u32().ok_or(DecodeError)?)),
        _ => return Err(DecodeError),
    };
    let auth_raw = r.bytes().ok_or(DecodeError)?;
    let (auth, used) = AuthTag::decode(auth_raw).ok_or(DecodeError)?;
    if used != auth_raw.len() {
        return Err(DecodeError);
    }
    let msg = decode_inner(r, ctx).ok_or(DecodeError)?;
    r.finish()?;
    Ok(Envelope { from, msg, auth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_crypto::{CertScheme, CryptoMode, KeyMaterial};

    fn km() -> std::sync::Arc<KeyMaterial> {
        KeyMaterial::generate(4, 2, 3, CryptoMode::Cmac, CertScheme::MultiSig, 1)
    }

    fn sample_request(signed: bool) -> ClientRequest {
        let sig = signed.then(|| km().client(0).sign(b"x"));
        ClientRequest::new(ClientId(0), 7, vec![1u8, 2, 3, 4, 5], sig)
    }

    fn sample_batch() -> Arc<Batch> {
        Batch::new(vec![sample_request(true), sample_request(false)])
    }

    fn sample_cert() -> ThresholdCert {
        let km = km();
        let providers: Vec<_> = (0..4).map(|i| km.replica(i)).collect();
        let shares: Vec<_> = providers.iter().map(|p| p.ts_share(b"m")).collect();
        providers[0].ts_aggregate(b"m", &shares).unwrap()
    }

    fn sample_vc() -> PoeVcRequest {
        PoeVcRequest {
            from: ReplicaId(2),
            view: View(3),
            stable_seq: Some(SeqNum(10)),
            entries: vec![
                ExecEntry {
                    view: View(3),
                    seq: SeqNum(11),
                    cert: Some(sample_cert()),
                    batch: sample_batch(),
                },
                ExecEntry { view: View(3), seq: SeqNum(12), cert: None, batch: sample_batch() },
            ],
            signature: km().replica(2).sign(b"vc"),
        }
    }

    fn all_sample_messages() -> Vec<ProtocolMsg> {
        let b = sample_batch();
        let cert = sample_cert();
        let share = km().replica(1).ts_share(b"m");
        let d = Digest::of(b"d");
        let reply = ClientReply {
            view: View(1),
            seq: SeqNum(2),
            req_digest: d,
            req_id: 9,
            result: vec![4u8, 5].into(),
            replica: ReplicaId(3),
        };
        vec![
            ProtocolMsg::Request(sample_request(true)),
            ProtocolMsg::RequestBroadcast(sample_request(false)),
            ProtocolMsg::Forward(sample_request(true)),
            ProtocolMsg::Reply(reply),
            ProtocolMsg::PoePropose { view: View(1), seq: SeqNum(2), batch: b },
            ProtocolMsg::PoeSupport { view: View(1), seq: SeqNum(2), share },
            ProtocolMsg::PoeSupportMac { view: View(1), seq: SeqNum(2), digest: d },
            ProtocolMsg::PoeCertify { view: View(1), seq: SeqNum(2), cert },
            ProtocolMsg::PoeVcRequest(sample_vc()),
            ProtocolMsg::PoeNvPropose { new_view: View(4), requests: vec![sample_vc()] },
            ProtocolMsg::Checkpoint { seq: SeqNum(100), state_digest: d },
            ProtocolMsg::StateRequest(StateRequestKind::Manifest),
            ProtocolMsg::StateRequest(StateRequestKind::Chunk { stable: SeqNum(99), chunk: 3 }),
            ProtocolMsg::StateRequest(StateRequestKind::Tail { after: SeqNum(99) }),
            ProtocolMsg::StateChunk(StateChunkPayload::Manifest(RepairManifest {
                stable: SeqNum(99),
                state_digest: d,
                history_digest: Digest::of(b"h"),
                image_len: 123_456,
                image_digest: Digest::of(b"img"),
            })),
            ProtocolMsg::StateChunk(StateChunkPayload::Chunk {
                stable: SeqNum(99),
                chunk: 3,
                total: 31,
                data: vec![9u8, 8, 7, 6, 5].into(),
            }),
            ProtocolMsg::StateChunk(StateChunkPayload::Tail {
                after: SeqNum(99),
                entries: vec![
                    ExecEntry {
                        view: View(3),
                        seq: SeqNum(100),
                        cert: Some(sample_cert()),
                        batch: sample_batch(),
                    },
                    ExecEntry {
                        view: View(3),
                        seq: SeqNum(101),
                        cert: None,
                        batch: sample_batch(),
                    },
                ],
            }),
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for msg in all_sample_messages() {
            let bytes = encode_msg(&msg);
            let decoded = decode_msg(&bytes).unwrap_or_else(|_| panic!("{}", msg.label()));
            assert_eq!(decoded, msg, "variant {}", msg.label());
        }
    }

    #[test]
    fn encoded_len_matches_buffer() {
        for msg in all_sample_messages() {
            assert_eq!(encoded_len(&msg), encode_msg(&msg).len(), "variant {}", msg.label());
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for msg in all_sample_messages() {
            let bytes = encode_msg(&msg);
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    decode_msg(&bytes[..cut]).is_err(),
                    "variant {} accepted truncation at {cut}",
                    msg.label()
                );
                let frame = WireBytes::copy_from(&bytes[..cut]);
                assert!(
                    decode_msg_shared(&frame).is_err(),
                    "variant {} accepted truncation at {cut} (shared mode)",
                    msg.label()
                );
            }
        }
    }

    /// The `finish()` exhaustion check: a well-formed message followed by
    /// padding must be rejected, for every variant, in every decode mode.
    #[test]
    fn padded_frames_rejected_everywhere() {
        let mut pool = BatchPool::new();
        for msg in all_sample_messages() {
            let mut bytes = encode_msg(&msg);
            bytes.push(0);
            assert!(decode_msg(&bytes).is_err(), "variant {} accepted padding", msg.label());
            let frame = WireBytes::from(bytes);
            assert!(
                decode_msg_shared(&frame).is_err(),
                "variant {} accepted padding (shared mode)",
                msg.label()
            );
            assert!(
                decode_msg_pooled(&frame, &mut pool).is_err(),
                "variant {} accepted padding (pooled mode)",
                msg.label()
            );
        }
    }

    #[test]
    fn padded_envelope_rejected() {
        let env = Envelope {
            from: NodeId::Client(ClientId(9)),
            auth: AuthTag::None,
            msg: ProtocolMsg::Request(sample_request(false)),
        };
        let mut bytes = encode_envelope(&env);
        bytes.push(7);
        assert!(decode_envelope(&bytes).is_err());
        assert!(decode_envelope_shared(&WireBytes::from(bytes)).is_err());
    }

    #[test]
    fn shared_decode_matches_owned_everywhere() {
        for msg in all_sample_messages() {
            let frame = encode_frame(&msg);
            let shared = decode_msg_shared(&frame).unwrap_or_else(|_| panic!("{}", msg.label()));
            assert_eq!(shared, msg, "variant {}", msg.label());
            let owned = decode_msg(&frame).expect("owned decode");
            assert_eq!(shared, owned, "variant {}", msg.label());
        }
    }

    /// Shared-mode payloads are views into the frame, not copies.
    #[test]
    fn shared_decode_is_zero_copy() {
        let msg = ProtocolMsg::PoePropose { view: View(1), seq: SeqNum(2), batch: sample_batch() };
        let frame = encode_frame(&msg);
        let ProtocolMsg::PoePropose { batch, .. } = decode_msg_shared(&frame).expect("decode")
        else {
            panic!("wrong variant");
        };
        for req in &batch.requests {
            assert!(
                req.op.shares_buffer_with(&frame),
                "request payload must be a view into the receive frame"
            );
        }
        // Reply results share the frame too.
        let reply_msg = {
            let mut m = all_sample_messages();
            m.remove(3) // the Reply sample
        };
        let frame = encode_frame(&reply_msg);
        let ProtocolMsg::Reply(r) = decode_msg_shared(&frame).expect("decode") else {
            panic!("expected Reply, got {}", reply_msg.label());
        };
        assert!(r.result.shares_buffer_with(&frame));
    }

    /// STATE-CHUNK image data decodes as a sub-view of the receive frame
    /// (the whole point of chunked repair: no per-chunk copies on the
    /// requester's hot path).
    #[test]
    fn state_chunk_shared_decode_is_zero_copy() {
        let msg = ProtocolMsg::StateChunk(StateChunkPayload::Chunk {
            stable: SeqNum(40),
            chunk: 1,
            total: 4,
            data: vec![0xAB; 512].into(),
        });
        let frame = encode_frame(&msg);
        let ProtocolMsg::StateChunk(StateChunkPayload::Chunk { data, .. }) =
            decode_msg_shared(&frame).expect("decode")
        else {
            panic!("wrong variant");
        };
        assert_eq!(data.len(), 512);
        assert!(
            data.shares_buffer_with(&frame),
            "chunk data must be a view into the receive frame"
        );
    }

    /// A warmed [`BatchPool`] hands the same batch container back out.
    #[test]
    fn batch_pool_recycles_containers() {
        let msg = ProtocolMsg::PoePropose { view: View(1), seq: SeqNum(2), batch: sample_batch() };
        let frame = encode_frame(&msg);
        let mut pool = BatchPool::new();

        let ProtocolMsg::PoePropose { batch, .. } =
            decode_msg_pooled(&frame, &mut pool).expect("decode")
        else {
            panic!("wrong variant");
        };
        let first_ptr = Arc::as_ptr(&batch);
        pool.recycle(batch);
        assert_eq!(pool.available(), 1);

        let ProtocolMsg::PoePropose { batch, .. } =
            decode_msg_pooled(&frame, &mut pool).expect("decode")
        else {
            panic!("wrong variant");
        };
        assert_eq!(Arc::as_ptr(&batch), first_ptr, "second decode must reuse the container");
        // A batch still referenced elsewhere is not recycled.
        let held = batch.clone();
        pool.recycle(batch);
        assert_eq!(pool.available(), 0, "shared batch must not enter the pool");
        drop(held);
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    /// Well-formed frames of message layouts that are no longer part of
    /// the wire format: one for every tag of the retired baseline-protocol
    /// messages (20–24, 30–31, 40–44, 50–52), and an INFORM (tag 3) in the
    /// old layout that carried a reply-kind byte and a history-digest
    /// option.
    fn retired_frames() -> Vec<(u8, Vec<u8>)> {
        let put = |write: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            write(&mut out);
            out
        };
        let le = |x: u64| x.to_le_bytes();
        let view_seq = [le(1), le(2)].concat();
        let d = Digest::of(b"d").as_bytes().to_vec();
        let batch = put(&|o| put_batch(o, &sample_batch()));
        let share = put(&|o| put_share(o, &km().replica(1).ts_share(b"m")));
        let cert = put(&|o| put_cert(o, &sample_cert()));
        let sig = km().replica(1).sign(b"vc").as_bytes().to_vec();
        let result = put(&|o| put_bytes(o, &[4, 5]));
        let (zero, one) = (&0u32.to_le_bytes(), &1u32.to_le_bytes());
        let frame = |tag: u8, parts: &[&[u8]]| (tag, [&[tag], parts.concat().as_slice()].concat());
        vec![
            // INFORM: kind, view, seq, request digest, req id, result, replica, history option.
            frame(3, &[&[0], &view_seq, &d, &le(9), &result, &3u32.to_le_bytes(), &[0]]),
            // PBFT PRE-PREPARE, PREPARE, COMMIT, VIEW-CHANGE, NEW-VIEW.
            frame(20, &[&view_seq, &batch]),
            frame(21, &[&view_seq, &d]),
            frame(22, &[&view_seq, &d]),
            frame(23, &[one, &le(4), &[0], zero, &sig]),
            frame(24, &[&le(4), zero, one, &le(13), &batch]),
            // ORDER-REQ and the client's commit certificate.
            frame(30, &[&view_seq, &d, &batch]),
            frame(31, &[&view_seq, &d, one, zero]),
            // SBFT PRE-PREPARE, SIGN-SHARE, FULL-COMMIT-PROOF, SIGN-STATE, EXECUTE-ACK.
            frame(40, &[&view_seq, &batch]),
            frame(41, &[&view_seq, &share]),
            frame(42, &[&view_seq, &cert]),
            frame(43, &[&view_seq, &share]),
            frame(44, &[&view_seq, &cert]),
            // HotStuff PROPOSAL (with a justify QC), VOTE, NEW-VIEW.
            frame(50, &[&le(5), &d, &[1], &le(4), &d, &cert, &batch]),
            frame(51, &[&le(5), &d, &share]),
            frame(52, &[&le(5), &[0]]),
        ]
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decode_msg(&[200]).is_err());
        assert!(decode_msg(&[]).is_err());
        let mut pool = BatchPool::new();
        for (tag, bytes) in retired_frames() {
            assert!(decode_msg(&bytes).is_err(), "tag {tag} accepted");
            let frame = WireBytes::copy_from(&bytes);
            assert!(decode_msg_shared(&frame).is_err(), "tag {tag} accepted (shared mode)");
            assert!(
                decode_msg_pooled(&frame, &mut pool).is_err(),
                "tag {tag} accepted (pooled mode)"
            );
            let mut env = Vec::new();
            write_envelope_parts(&mut env, NodeId::Replica(ReplicaId(1)), &AuthTag::None, &bytes);
            assert!(decode_envelope(&env).is_err(), "tag {tag} accepted (envelope)");
            let env = WireBytes::from(env);
            assert!(decode_envelope_shared(&env).is_err(), "tag {tag} accepted (shared envelope)");
            assert!(
                decode_envelope_pooled(&env, &mut pool).is_err(),
                "tag {tag} accepted (pooled envelope)"
            );
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let km = km();
        let provider = km.replica(0);
        let msg =
            ProtocolMsg::PoeSupportMac { view: View(0), seq: SeqNum(1), digest: Digest::of(b"q") };
        let body = encode_msg(&msg);
        let env = Envelope {
            from: NodeId::Replica(ReplicaId(0)),
            auth: provider.authenticate(1, &body),
            msg,
        };
        let bytes = encode_envelope(&env);
        let decoded = decode_envelope(&bytes).expect("envelope");
        assert_eq!(decoded, env);
        // And the receiving replica can verify the link tag.
        let receiver = km.replica(1);
        let rebody = encode_msg(&decoded.msg);
        assert!(receiver.check(0, &rebody, &decoded.auth));
    }

    #[test]
    fn envelope_client_sender_roundtrip() {
        let env = Envelope {
            from: NodeId::Client(ClientId(9)),
            auth: AuthTag::None,
            msg: ProtocolMsg::Request(sample_request(false)),
        };
        let bytes = encode_envelope(&env);
        assert_eq!(decode_envelope(&bytes).expect("envelope"), env);
    }

    #[test]
    fn vc_signing_bytes_exclude_signature() {
        let mut vc = sample_vc();
        let before = poe_vc_signing_bytes(&vc);
        vc.signature = km().replica(2).sign(b"different");
        assert_eq!(poe_vc_signing_bytes(&vc), before);
    }

    /// The streamed writers frame crypto payloads with a length prefix
    /// taken from `encoded_len()` (pure arithmetic) rather than from a
    /// materialized buffer — so the prefix must equal the bytes the
    /// shared encoder actually emits, for every scheme and tag variant.
    #[test]
    fn share_cert_writers_match_crypto_encoders() {
        let km = km();
        for scheme in [CertScheme::MultiSig, CertScheme::Simulated] {
            let skm = KeyMaterial::generate(4, 0, 3, CryptoMode::Cmac, scheme, 9);
            let share = skm.replica(1).ts_share(b"m");
            let mut streamed = Vec::new();
            put_share(&mut streamed, &share);
            assert_eq!(streamed.len(), share.encoded_len(), "share scheme {scheme:?}");

            let providers: Vec<_> = (0..4).map(|i| skm.replica(i)).collect();
            let shares: Vec<_> = providers.iter().map(|p| p.ts_share(b"m")).collect();
            let cert = providers[0].ts_aggregate(b"m", &shares).expect("aggregate");
            let mut streamed = Vec::new();
            put_cert(&mut streamed, &cert);
            let mut cert_bytes = Vec::new();
            cert.encode(&mut cert_bytes);
            let mut framed = Vec::new();
            put_bytes(&mut framed, &cert_bytes);
            assert_eq!(streamed, framed, "cert scheme {scheme:?}");
        }

        for tag in [
            AuthTag::None,
            AuthTag::Hmac([7u8; 32]),
            AuthTag::Cmac([8u8; 16]),
            AuthTag::Sig(km.replica(0).sign(b"x")),
        ] {
            let mut streamed = Vec::new();
            put_auth_tag(&mut streamed, &tag);
            let mut tag_bytes = Vec::new();
            tag.encode(&mut tag_bytes);
            let mut framed = Vec::new();
            put_bytes(&mut framed, &tag_bytes);
            assert_eq!(streamed, framed, "tag {tag:?}");
        }
    }

    #[test]
    fn encode_msg_buffer_is_exactly_sized() {
        for msg in all_sample_messages() {
            let buf = encode_msg(&msg);
            assert_eq!(buf.capacity(), buf.len(), "variant {}", msg.label());
        }
    }

    #[test]
    fn encode_msg_into_matches_encode_msg() {
        let mut buf = Vec::new();
        for msg in all_sample_messages() {
            encode_msg_into(&msg, &mut buf);
            assert_eq!(buf, encode_msg(&msg), "variant {}", msg.label());
        }
    }

    #[test]
    fn envelope_encoded_len_matches_buffer() {
        let env = Envelope {
            from: NodeId::Client(ClientId(9)),
            auth: AuthTag::Hmac([3u8; 32]),
            msg: ProtocolMsg::Request(sample_request(true)),
        };
        let buf = encode_envelope(&env);
        assert_eq!(envelope_encoded_len(&env), buf.len());
        assert_eq!(buf.capacity(), buf.len());
        let mut into = Vec::new();
        encode_envelope_into(&env, &mut into);
        assert_eq!(into, buf);
    }

    #[test]
    fn envelope_parts_match_whole_envelope_encode() {
        for from in [NodeId::Replica(ReplicaId(3)), NodeId::Client(ClientId(7))] {
            for auth in [AuthTag::None, AuthTag::Hmac([9u8; 32]), AuthTag::Cmac([2u8; 16])] {
                let msg =
                    ProtocolMsg::Checkpoint { seq: SeqNum(4), state_digest: Digest::of(b"c") };
                let env = Envelope { from, auth: auth.clone(), msg: msg.clone() };
                let whole = encode_envelope(&env);
                let msg_bytes = encode_msg(&msg);
                let mut parts = Vec::new();
                write_envelope_parts(&mut parts, from, &auth, &msg_bytes);
                assert_eq!(parts, whole);
            }
        }
    }

    #[test]
    fn envelope_msg_offset_finds_the_authenticated_region() {
        let msg = ProtocolMsg::Checkpoint { seq: SeqNum(8), state_digest: Digest::of(b"x") };
        for auth in [AuthTag::None, AuthTag::Hmac([1u8; 32]), AuthTag::Cmac([6u8; 16])] {
            let env = Envelope { from: NodeId::Replica(ReplicaId(1)), auth, msg: msg.clone() };
            let buf = encode_envelope(&env);
            let offset = envelope_msg_offset(&buf).expect("well-formed envelope");
            assert_eq!(&buf[offset..], &encode_msg(&msg)[..], "auth {:?}", env.auth);
        }
    }

    #[test]
    fn envelope_msg_offset_rejects_malformed_headers() {
        assert_eq!(envelope_msg_offset(&[]), None, "empty");
        assert_eq!(envelope_msg_offset(&[0u8; 8]), None, "short of the auth length");
        assert_eq!(envelope_msg_offset(&[2, 0, 0, 0, 0, 0, 0, 0, 0]), None, "bad sender kind");
        // Claimed tag length runs past the end of the buffer.
        let mut lying = vec![0u8; 9];
        lying[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(envelope_msg_offset(&lying), None, "tag length overruns");
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let mut pool = ScratchPool::new();
        let msg = ProtocolMsg::PoePropose { view: View(1), seq: SeqNum(2), batch: sample_batch() };
        let expect = encode_msg(&msg);

        let buf = pool.encode_msg(&msg);
        assert_eq!(buf, expect);
        let first_ptr = buf.as_ptr();
        let first_cap = buf.capacity();
        pool.recycle(buf);
        assert_eq!(pool.available(), 1);

        // The second encode must reuse the exact same backing buffer.
        let buf = pool.encode_msg(&msg);
        assert_eq!(buf, expect);
        assert_eq!(buf.as_ptr(), first_ptr);
        assert_eq!(buf.capacity(), first_cap);
        pool.recycle(buf);

        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn scratch_pool_envelope_roundtrips() {
        let mut pool = ScratchPool::new();
        let env = Envelope {
            from: NodeId::Replica(ReplicaId(2)),
            auth: AuthTag::Cmac([5u8; 16]),
            msg: ProtocolMsg::Checkpoint { seq: SeqNum(3), state_digest: Digest::of(b"s") },
        };
        for _ in 0..3 {
            let buf = pool.encode_envelope(&env);
            assert_eq!(decode_envelope(&buf).expect("roundtrip"), env);
            pool.recycle(buf);
        }
        assert_eq!(pool.stats().1, 1, "exactly one fresh buffer allocated");
    }

    #[test]
    fn scratch_pool_respects_bound() {
        let mut pool = ScratchPool::with_max_buffers(2);
        for _ in 0..5 {
            pool.recycle(Vec::with_capacity(64));
        }
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn propose_size_scales_with_batch() {
        let small = ProtocolMsg::PoePropose {
            view: View(0),
            seq: SeqNum(0),
            batch: Batch::new(vec![sample_request(true)]),
        };
        let large = ProtocolMsg::PoePropose {
            view: View(0),
            seq: SeqNum(0),
            batch: Batch::new(
                (0..100)
                    .map(|i| {
                        let r = sample_request(true);
                        ClientRequest::new(r.client, i, r.op, r.signature)
                    })
                    .collect(),
            ),
        };
        assert!(encoded_len(&large) > 50 * encoded_len(&small));
    }
}
