//! Proves the codec hot-path allocation claims with a counting global
//! allocator: decoding allocates only the *output* structures (zero heap
//! traffic for fixed-size messages), a warmed [`ScratchPool`] encode
//! allocates nothing at all, and — with [`WireBytes`] payload views plus
//! a warmed [`BatchPool`] — a **full PROPOSE decode, request payloads
//! included, is allocation-free** end-to-end.
//!
//! The library crates forbid `unsafe`; this integration test is its own
//! crate, and the `GlobalAlloc` impl below is the standard counting
//! wrapper around the system allocator.

use poe_crypto::digest::Digest;
use poe_crypto::{CertScheme, CryptoMode, KeyMaterial};
use poe_kernel::codec::{
    decode_envelope, decode_msg, decode_msg_pooled, decode_msg_shared, encode_envelope,
    encode_frame, encode_msg, BatchPool, ScratchPool,
};
use poe_kernel::ids::{ClientId, NodeId, ReplicaId, SeqNum, View};
use poe_kernel::messages::{
    Envelope, ProtocolMsg, RepairManifest, StateChunkPayload, StateRequestKind,
};
use poe_kernel::request::{Batch, ClientRequest};
use poe_kernel::wire::WireBytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Minimum allocation count of `f` across a few runs (the minimum
/// filters out one-off interference from the test harness).
fn min_allocs(mut f: impl FnMut()) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            f();
            ALLOC_EVENTS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("non-empty")
}

#[test]
fn decode_and_pooled_encode_allocation_budgets() {
    let km = KeyMaterial::generate(4, 2, 3, CryptoMode::Cmac, CertScheme::MultiSig, 1);

    // --- fixed-size messages decode with ZERO heap allocations -------
    let digest_msgs = vec![
        ProtocolMsg::PoeSupportMac { view: View(1), seq: SeqNum(2), digest: Digest::of(b"d") },
        ProtocolMsg::Checkpoint { seq: SeqNum(9), state_digest: Digest::of(b"s") },
        ProtocolMsg::StateRequest(StateRequestKind::Manifest),
        ProtocolMsg::StateRequest(StateRequestKind::Chunk { stable: SeqNum(8), chunk: 3 }),
        ProtocolMsg::StateRequest(StateRequestKind::Tail { after: SeqNum(8) }),
        ProtocolMsg::PoeSupport {
            view: View(1),
            seq: SeqNum(2),
            share: km.replica(1).ts_share(b"m"),
        },
    ];
    for msg in &digest_msgs {
        let bytes = encode_msg(msg);
        let allocs = min_allocs(|| {
            let decoded = decode_msg(&bytes).expect("decode");
            std::hint::black_box(&decoded);
        });
        assert_eq!(allocs, 0, "decoding {} allocated", msg.label());
    }

    // --- certificate decode allocates only its two output Vecs -------
    let cert = {
        let providers: Vec<_> = (0..4).map(|i| km.replica(i)).collect();
        let shares: Vec<_> = providers.iter().map(|p| p.ts_share(b"m")).collect();
        providers[0].ts_aggregate(b"m", &shares).expect("aggregate")
    };
    let cert_msg = ProtocolMsg::PoeCertify { view: View(1), seq: SeqNum(2), cert };
    let bytes = encode_msg(&cert_msg);
    let allocs = min_allocs(|| {
        let decoded = decode_msg(&bytes).expect("decode");
        std::hint::black_box(&decoded);
    });
    assert_eq!(allocs, 2, "cert decode should allocate exactly signers + sigs Vecs");

    // --- envelope decode: no allocation beyond the message's own -----
    let env = Envelope {
        from: NodeId::Replica(ReplicaId(3)),
        auth: km.replica(3).authenticate(0, b"body"),
        msg: ProtocolMsg::PoeSupportMac { view: View(0), seq: SeqNum(1), digest: Digest::of(b"x") },
    };
    let bytes = encode_envelope(&env);
    let allocs = min_allocs(|| {
        let decoded = decode_envelope(&bytes).expect("decode");
        std::hint::black_box(&decoded);
    });
    assert_eq!(allocs, 0, "fixed-size envelope decode allocated");

    // --- owned request decode allocates only the op buffer -----------
    let req_msg =
        ProtocolMsg::Request(ClientRequest::new(ClientId(0), 7, vec![1u8, 2, 3, 4], None));
    let bytes = encode_msg(&req_msg);
    let allocs = min_allocs(|| {
        let decoded = decode_msg(&bytes).expect("decode");
        std::hint::black_box(&decoded);
    });
    // One shared buffer (`Arc<[u8]>`) = 1 allocation event.
    assert!(allocs <= 1, "request decode allocated {allocs} times (expected <= 1)");

    // --- shared-mode request decode allocates NOTHING -----------------
    let frame = encode_frame(&req_msg);
    let allocs = min_allocs(|| {
        let decoded = decode_msg_shared(&frame).expect("decode");
        std::hint::black_box(&decoded);
    });
    assert_eq!(allocs, 0, "zero-copy request decode allocated");

    // --- warmed ScratchPool encodes allocate NOTHING -------------------
    let batch_msg = ProtocolMsg::PoePropose {
        view: View(0),
        seq: SeqNum(0),
        batch: Batch::new(vec![ClientRequest::new(ClientId(0), 1, vec![9u8; 100], None)]),
    };
    let mut pool = ScratchPool::new();
    // Warm-up: the first encode may allocate the backing buffer.
    let buf = pool.encode_msg(&batch_msg);
    pool.recycle(buf);
    let allocs = min_allocs(|| {
        let buf = pool.encode_msg(&batch_msg);
        std::hint::black_box(&buf);
        pool.recycle(buf);
    });
    assert_eq!(allocs, 0, "warmed pooled encode allocated");

    let env_allocs = {
        let buf = pool.encode_envelope(&env);
        pool.recycle(buf);
        min_allocs(|| {
            let buf = pool.encode_envelope(&env);
            std::hint::black_box(&buf);
            pool.recycle(buf);
        })
    };
    assert_eq!(env_allocs, 0, "warmed pooled envelope encode allocated");

    // The remaining proofs run inside this single #[test] on purpose:
    // the counting allocator is process-global, and a second test
    // thread would pollute the counters.
    propose_decode_with_payloads_is_allocation_free();
    shared_decode_allocates_only_containers();
    wire_bytes_clone_and_slice_are_allocation_free();
    state_chunk_decode_is_zero_copy_and_lean();
}

/// State-transfer chunks ride the same zero-copy wire path as batches:
/// a shared-frame STATE-CHUNK decode performs ZERO heap allocations and
/// its `data` payload is a view into the receive frame — catch-up
/// traffic never memcpys checkpoint images on the consensus thread.
fn state_chunk_decode_is_zero_copy_and_lean() {
    let chunk_msg = ProtocolMsg::StateChunk(StateChunkPayload::Chunk {
        stable: SeqNum(15),
        chunk: 3,
        total: 8,
        data: WireBytes::from(vec![0xAB; 4096]),
    });
    let frame = encode_frame(&chunk_msg);
    let allocs = min_allocs(|| {
        let decoded = decode_msg_shared(&frame).expect("decode");
        match &decoded {
            ProtocolMsg::StateChunk(StateChunkPayload::Chunk { data, .. }) => {
                debug_assert!(data.shares_buffer_with(&frame));
            }
            other => panic!("wrong variant {}", other.label()),
        }
        std::hint::black_box(&decoded);
    });
    assert_eq!(allocs, 0, "zero-copy STATE-CHUNK decode allocated");

    // The fixed-size repair messages are allocation-free too.
    let manifest_msg = ProtocolMsg::StateChunk(StateChunkPayload::Manifest(RepairManifest {
        stable: SeqNum(15),
        state_digest: Digest::of(b"s"),
        history_digest: Digest::of(b"h"),
        image_len: 1 << 20,
        image_digest: Digest::of(b"i"),
    }));
    let request_msg =
        ProtocolMsg::StateRequest(StateRequestKind::Chunk { stable: SeqNum(15), chunk: 3 });
    for msg in [&manifest_msg, &request_msg] {
        let bytes = encode_msg(msg);
        let allocs = min_allocs(|| {
            let decoded = decode_msg(&bytes).expect("decode");
            std::hint::black_box(&decoded);
        });
        assert_eq!(allocs, 0, "decoding {} allocated", msg.label());
    }
}

/// The tentpole claim: a full PROPOSE decode — multi-request batch,
/// real payloads, signatures — performs ZERO heap allocations in the
/// shared-frame mode with a warmed [`BatchPool`]. Payloads are views
/// into the frame; the batch container and its requests vector are
/// recycled; digests accumulate on the stack.
fn propose_decode_with_payloads_is_allocation_free() {
    let km = KeyMaterial::generate(4, 2, 3, CryptoMode::Cmac, CertScheme::MultiSig, 1);
    let requests: Vec<ClientRequest> = (0..20)
        .map(|i| {
            let op = vec![i as u8; 64];
            let sig = km.client(0).sign(&ClientRequest::signing_bytes(ClientId(0), i, &op));
            ClientRequest::new(ClientId(0), i, op, Some(sig))
        })
        .collect();
    let msg =
        ProtocolMsg::PoePropose { view: View(3), seq: SeqNum(9), batch: Batch::new(requests) };
    let frame = encode_frame(&msg);

    let mut pool = BatchPool::new();
    // Warm-up: the first decode allocates the container once.
    match decode_msg_pooled(&frame, &mut pool).expect("decode") {
        ProtocolMsg::PoePropose { batch, .. } => pool.recycle(batch),
        other => panic!("wrong variant {}", other.label()),
    }

    let allocs = min_allocs(|| {
        let decoded = decode_msg_pooled(&frame, &mut pool).expect("decode");
        std::hint::black_box(&decoded);
        match decoded {
            ProtocolMsg::PoePropose { batch, .. } => {
                // The decoded payloads are views into the receive frame.
                debug_assert!(batch.requests[0].op.shares_buffer_with(&frame));
                pool.recycle(batch);
            }
            other => panic!("wrong variant {}", other.label()),
        }
    });
    assert_eq!(allocs, 0, "full PROPOSE decode with payloads allocated");
    let (hits, misses) = pool.stats();
    assert_eq!(misses, 1, "only the warm-up decode may allocate the container");
    assert!(hits >= 5, "steady-state decodes must reuse the container");
}

/// Shared-frame decode of a PROPOSE without a pool stays within the two
/// container allocations (requests vec + Arc), with zero per-request or
/// per-byte allocations.
fn shared_decode_allocates_only_containers() {
    let requests: Vec<ClientRequest> = (0..50)
        .map(|i| ClientRequest::new(ClientId(i as u32 % 4), i, vec![7u8; 48], None))
        .collect();
    let msg =
        ProtocolMsg::PoePropose { view: View(0), seq: SeqNum(1), batch: Batch::new(requests) };
    let frame = encode_frame(&msg);
    let allocs = min_allocs(|| {
        let decoded = decode_msg_shared(&frame).expect("decode");
        std::hint::black_box(&decoded);
    });
    assert!(
        allocs <= 2,
        "shared PROPOSE decode allocated {allocs} times (expected <= 2: requests vec + Arc)"
    );
}

/// Cloning a [`WireBytes`] view or slicing sub-views never touches the
/// heap — the property the encode-once broadcast path relies on.
fn wire_bytes_clone_and_slice_are_allocation_free() {
    let frame = WireBytes::from(vec![5u8; 4096]);
    let allocs = min_allocs(|| {
        let a = frame.clone();
        let b = a.slice(100..2000);
        let c = b.slice(5..50);
        std::hint::black_box((&a, &b, &c));
    });
    assert_eq!(allocs, 0, "WireBytes clone/slice allocated");
    let empties = min_allocs(|| {
        let e = WireBytes::empty();
        std::hint::black_box(&e);
    });
    assert_eq!(empties, 0, "WireBytes::empty allocated");
}
