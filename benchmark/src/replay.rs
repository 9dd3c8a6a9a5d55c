//! Costs of layers that cannot be wrapped from outside — crypto, the
//! ledger, the workload generator — timed alone through their public
//! functions, on inputs shaped like the workload's (its key material,
//! its observed batch fill, a replica's committed chain).

use crate::outcome::Outcome;
use crate::stats::time_us;
use poe_consensus::PoeReplica;
use poe_crypto::KeyMaterial;
use poe_kernel::config::ClusterConfig;
use poe_kernel::ids::ClientId;
use poe_kernel::request::{Batch, ClientRequest};
use poe_ledger::Ledger;
use poe_workload::{OpSource, YcsbConfig, YcsbWorkload};
use std::time::Instant;

/// Times each crypto primitive the protocol calls per request or per
/// batch, on `cluster`'s key material at batch fill `fill`.
pub fn crypto_costs(out: &mut Outcome, cluster: &ClusterConfig, ycsb: &YcsbConfig, fill: usize) {
    let fill = fill.max(1);
    let nf = cluster.nf();
    let km = KeyMaterial::generate(
        cluster.n,
        fill,
        nf,
        cluster.crypto_mode,
        cluster.cert_scheme,
        cluster.seed,
    );
    let signed = cluster.crypto_mode != poe_crypto::CryptoMode::None;
    let mut source = YcsbWorkload::new(ycsb.clone());
    // One batch worth of requests, signed like the clients sign them.
    let requests: Vec<ClientRequest> = (0..fill)
        .map(|c| {
            let client = ClientId(c as u32);
            let op = source.next_op().expect("ycsb never dries up");
            let sig =
                signed.then(|| km.client(c).sign(&ClientRequest::signing_bytes(client, 1, &op)));
            ClientRequest::new(client, 1, op, sig)
        })
        .collect();
    let signing: Vec<Vec<u8>> =
        requests.iter().map(|r| ClientRequest::signing_bytes(r.client, r.req_id, &r.op)).collect();

    if signed {
        let client0 = km.client(0);
        out.layer("crypto.client_sign_us", time_us(|| client0.sign(&signing[0])));
        let verifier = km.replica(0);
        let items: Vec<(u32, &[u8], _)> = requests
            .iter()
            .zip(&signing)
            .map(|(r, bytes)| {
                let index = (cluster.n + r.client.index()) as u32;
                (index, bytes.as_slice(), r.signature.expect("signed above"))
            })
            .collect();
        assert!(verifier.verify_batch_from(&items), "freshly signed requests must verify");
        let per_batch = time_us(|| verifier.verify_batch_from(&items));
        out.layer("crypto.client_verify_us_per_req", per_batch / fill as f64);
    }

    // SUPPORT share → aggregate at the primary → CERTIFY verified at a backup.
    let digest = Batch::digest_of(&requests);
    let msg = digest.as_bytes();
    let primary = km.replica(0);
    let backup = km.replica(1);
    out.layer("crypto.share_sign_us", time_us(|| backup.ts_share(msg)));
    let shares: Vec<_> = (0..nf).map(|i| km.replica(i).ts_share(msg)).collect();
    let cert = primary.ts_aggregate(msg, &shares).expect("nf honest shares aggregate");
    out.layer("crypto.aggregate_us", time_us(|| primary.ts_aggregate(msg, &shares)));
    assert!(backup.ts_verify_cert(msg, &cert), "aggregated certificate must verify");
    out.layer("crypto.cert_verify_us", time_us(|| backup.ts_verify_cert(msg, &cert)));
    out.layer("crypto.digest_us_per_batch", time_us(|| Batch::digest_of(&requests)));
    // A link tag over a SUPPORT-sized message.
    let frame = [0x5au8; 96];
    out.layer("crypto.cmac_tag_us", time_us(|| primary.authenticate(1, &frame)));
}

/// Times drawing one operation from the YCSB source.
pub fn workload_costs(out: &mut Outcome, ycsb: &YcsbConfig) {
    let mut source = YcsbWorkload::new(ycsb.clone());
    out.layer("workload.next_op_us", time_us(|| source.next_op()));
}

/// Replays `replica`'s committed chain into a fresh ledger, timing the
/// appends, then times the audit of the rebuilt chain.
pub fn ledger_costs(out: &mut Outcome, replica: &PoeReplica, cluster: &ClusterConfig) {
    let blocks: Vec<_> =
        replica.ledger().iter().map(|b| (b.seq, b.view, b.batch_digest, b.proof.clone())).collect();
    if blocks.is_empty() {
        return;
    }
    let km = KeyMaterial::generate(
        cluster.n,
        0,
        cluster.nf(),
        cluster.crypto_mode,
        cluster.cert_scheme,
        cluster.seed,
    );
    let primary = poe_kernel::ids::View::ZERO.primary(cluster.n);
    let key = *km.replica(0).verifying_key_of(primary.0).expect("primary key exists");
    let count = blocks.len();
    let mut ledger = Ledger::new(primary, &key);
    let t0 = Instant::now();
    for (seq, view, digest, proof) in blocks {
        ledger.append(seq, view, digest, proof);
    }
    let append = t0.elapsed();
    out.layer("ledger.append_us_per_batch", append.as_secs_f64() * 1e6 / count as f64);
    assert_eq!(
        ledger.history_digest(),
        replica.ledger().history_digest(),
        "replayed chain differs"
    );
    let t0 = Instant::now();
    ledger.verify_chain().expect("replayed chain verifies");
    out.layer("ledger.verify_chain_us", t0.elapsed().as_secs_f64() * 1e6);
}
