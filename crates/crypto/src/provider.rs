//! Per-node cryptographic facade.
//!
//! [`KeyMaterial`] holds the key setup for an entire cluster (replicas and
//! clients); [`CryptoProvider`] is the per-node view used by protocol code.
//! The [`CryptoMode`] selects between the configurations the paper compares
//! in Figure 8: no authentication, Ed25519 everywhere, or MACs between
//! replicas with Ed25519-signing clients.
//!
//! Node indexing convention: replicas occupy global indices
//! `0..n_replicas`, clients occupy `n_replicas..n_replicas+n_clients`.

use crate::cmac::AesCmac;
use crate::ed25519::{PreparedKey, Signature, SigningKey, VerifyingKey};
use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sink::Sink;
use crate::threshold::{
    CertScheme, SignatureShare, ThresholdCert, ThresholdError, ThresholdSigner,
};
use std::sync::Arc;

/// Global node index (replicas first, then clients).
pub type NodeIndex = u32;

/// Replica/client authentication configuration (paper Figure 8).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CryptoMode {
    /// No signatures or MACs at all ("None" in Fig. 8). Unsafe; upper-bound
    /// measurements only.
    None,
    /// Everyone signs everything with Ed25519 ("ED" in Fig. 8).
    Ed25519,
    /// Replicas use HMAC-SHA256 pairwise MACs; clients sign with Ed25519.
    Hmac,
    /// Replicas use AES-CMAC pairwise MACs; clients sign with Ed25519
    /// ("CMAC" in Fig. 8, the paper's recommended configuration).
    #[default]
    Cmac,
}

/// An authenticator attached to a message, produced by
/// [`CryptoProvider::authenticate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuthTag {
    /// No authentication (CryptoMode::None).
    None,
    /// HMAC-SHA256 tag.
    Hmac([u8; 32]),
    /// AES-CMAC tag.
    Cmac([u8; 16]),
    /// Ed25519 signature.
    Sig(Signature),
}

impl AuthTag {
    /// Serialized size in bytes (for the bandwidth model).
    pub fn encoded_len(&self) -> usize {
        match self {
            AuthTag::None => 1,
            AuthTag::Hmac(_) => 33,
            AuthTag::Cmac(_) => 17,
            AuthTag::Sig(_) => 65,
        }
    }

    /// Manual wire encoding into any [`Sink`].
    pub fn encode<S: Sink>(&self, out: &mut S) {
        match self {
            AuthTag::None => out.put_u8(0),
            AuthTag::Hmac(t) => {
                out.put_u8(1);
                out.put(t);
            }
            AuthTag::Cmac(t) => {
                out.put_u8(2);
                out.put(t);
            }
            AuthTag::Sig(s) => {
                out.put_u8(3);
                out.put(s.as_bytes());
            }
        }
    }

    /// Decodes a tag, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(AuthTag, usize)> {
        match *buf.first()? {
            0 => Some((AuthTag::None, 1)),
            1 => {
                let raw: [u8; 32] = buf.get(1..33)?.try_into().ok()?;
                Some((AuthTag::Hmac(raw), 33))
            }
            2 => {
                let raw: [u8; 16] = buf.get(1..17)?.try_into().ok()?;
                Some((AuthTag::Cmac(raw), 17))
            }
            3 => {
                let raw: [u8; 64] = buf.get(1..65)?.try_into().ok()?;
                Some((AuthTag::Sig(Signature::from_bytes(raw)), 65))
            }
            _ => None,
        }
    }
}

/// Cluster-wide key material: the trusted-setup output distributed to every
/// node before the system starts (standard assumption in the BFT
/// literature).
///
/// Verifying keys are held prepared (with their curve points), which key
/// generation computes anyway: no verification ever decompresses a
/// signer's key. That costs 160 B per node, e.g. 164 kB for 4 replicas
/// and 1 024 clients.
pub struct KeyMaterial {
    n_replicas: usize,
    n_clients: usize,
    mode: CryptoMode,
    cert_scheme: CertScheme,
    threshold: usize,
    mac_master: [u8; 32],
    sim_master: [u8; 32],
    signing_keys: Vec<SigningKey>,
    verifying_keys: Vec<PreparedKey>,
}

impl KeyMaterial {
    /// Generates deterministic key material for a cluster from a seed.
    ///
    /// `threshold` is the number of signature shares needed for a
    /// certificate (the paper's `nf = n - f`).
    pub fn generate(
        n_replicas: usize,
        n_clients: usize,
        threshold: usize,
        mode: CryptoMode,
        cert_scheme: CertScheme,
        seed: u64,
    ) -> Arc<KeyMaterial> {
        let total = n_replicas + n_clients;
        let signing_keys: Vec<SigningKey> = (0..total)
            .map(|i| SigningKey::from_label(format!("poe/seed={seed}/node={i}").as_bytes()))
            .collect();
        let verifying_keys = signing_keys.iter().map(SigningKey::prepared_key).collect();
        let mac_master = hmac_sha256(&seed.to_le_bytes(), b"mac-master");
        let sim_master = hmac_sha256(&seed.to_le_bytes(), b"sim-ts-master");
        Arc::new(KeyMaterial {
            n_replicas,
            n_clients,
            mode,
            cert_scheme,
            threshold,
            mac_master,
            sim_master,
            signing_keys,
            verifying_keys,
        })
    }

    /// Number of replicas in the setup.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// Number of clients in the setup.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// The configured authentication mode.
    pub fn mode(&self) -> CryptoMode {
        self.mode
    }

    /// Provider for replica `i`.
    pub fn replica(self: &Arc<Self>, i: usize) -> CryptoProvider {
        assert!(i < self.n_replicas, "replica index {i} out of range");
        CryptoProvider::new(Arc::clone(self), i as NodeIndex)
    }

    /// Provider for client `c` (0-based client index).
    pub fn client(self: &Arc<Self>, c: usize) -> CryptoProvider {
        assert!(c < self.n_clients, "client index {c} out of range");
        CryptoProvider::new(Arc::clone(self), (self.n_replicas + c) as NodeIndex)
    }

    fn pair_key(&self, a: NodeIndex, b: NodeIndex) -> [u8; 32] {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut label = [0u8; 8];
        label[..4].copy_from_slice(&lo.to_le_bytes());
        label[4..].copy_from_slice(&hi.to_le_bytes());
        hmac_sha256(&self.mac_master, &label)
    }
}

/// The per-node cryptographic interface protocol code talks to.
#[derive(Clone)]
pub struct CryptoProvider {
    material: Arc<KeyMaterial>,
    me: NodeIndex,
    threshold_signer: ThresholdSigner,
}

impl CryptoProvider {
    fn new(material: Arc<KeyMaterial>, me: NodeIndex) -> Self {
        let is_replica = (me as usize) < material.n_replicas;
        let ed_key = is_replica.then(|| material.signing_keys[me as usize].clone());
        let threshold_signer = ThresholdSigner::new(
            material.cert_scheme,
            material.threshold,
            me,
            ed_key,
            material.verifying_keys[..material.n_replicas].to_vec(),
            material.sim_master,
        );
        CryptoProvider { material, me, threshold_signer }
    }

    /// This node's global index.
    pub fn index(&self) -> NodeIndex {
        self.me
    }

    /// The configured mode.
    pub fn mode(&self) -> CryptoMode {
        self.material.mode
    }

    /// The digest function `D(·)`.
    pub fn digest(&self, data: &[u8]) -> crate::digest::Digest {
        crate::digest::Digest::of(data)
    }

    // -- Point-to-point authentication ------------------------------------

    /// Authenticates `msg` for transmission to `peer` under the configured
    /// mode.
    pub fn authenticate(&self, peer: NodeIndex, msg: &[u8]) -> AuthTag {
        match self.material.mode {
            CryptoMode::None => AuthTag::None,
            CryptoMode::Ed25519 => AuthTag::Sig(self.sign(msg)),
            CryptoMode::Hmac => {
                AuthTag::Hmac(HmacSha256::new(&self.material.pair_key(self.me, peer)).tag(msg))
            }
            CryptoMode::Cmac => {
                let key = self.material.pair_key(self.me, peer);
                let k16: [u8; 16] = key[..16].try_into().expect("split");
                AuthTag::Cmac(AesCmac::new(&k16).tag(msg))
            }
        }
    }

    /// Checks a whole batch of received authenticators in one pass.
    ///
    /// Each item is `(peer, msg, tag)` as it would be passed to
    /// [`CryptoProvider::check`]; the result is `true` iff every item
    /// checks out. The win over calling `check` in a loop depends on the
    /// mode:
    ///
    /// * `Ed25519` — signatures are handed to
    ///   [`crate::ed25519::verify_batch_prepared`], amortizing the doubling chain
    ///   across the batch (>2× at batch size 64).
    /// * `Hmac` / `Cmac` — the pairwise session key **and** the MAC key
    ///   schedule (HMAC ipad/opad block states, AES round keys + CMAC
    ///   subkeys) are derived once per distinct peer instead of once per
    ///   message, then all tags are checked in one vectorized pass.
    /// * `None` — every tag must be [`AuthTag::None`].
    ///
    /// Replicas use this on the PREPREPARE/certificate firehose where
    /// consecutive messages overwhelmingly share a small peer set.
    pub fn check_batch(&self, items: &[(NodeIndex, &[u8], &AuthTag)]) -> bool {
        match self.material.mode {
            CryptoMode::None => items.iter().all(|(_, _, tag)| matches!(tag, AuthTag::None)),
            CryptoMode::Ed25519 => {
                let mut sigs = Vec::with_capacity(items.len());
                for (peer, msg, tag) in items {
                    match tag {
                        AuthTag::Sig(sig) => sigs.push((*peer, *msg, *sig)),
                        _ => return false,
                    }
                }
                self.verify_batch_from(&sigs)
            }
            CryptoMode::Hmac => {
                let mut macs: std::collections::HashMap<NodeIndex, HmacSha256> =
                    std::collections::HashMap::new();
                items.iter().all(|(peer, msg, tag)| match tag {
                    AuthTag::Hmac(t) => macs
                        .entry(*peer)
                        .or_insert_with(|| HmacSha256::new(&self.material.pair_key(self.me, *peer)))
                        .verify(msg, t),
                    _ => false,
                })
            }
            CryptoMode::Cmac => {
                let mut macs: std::collections::HashMap<NodeIndex, AesCmac> =
                    std::collections::HashMap::new();
                items.iter().all(|(peer, msg, tag)| match tag {
                    AuthTag::Cmac(t) => macs
                        .entry(*peer)
                        .or_insert_with(|| {
                            let key = self.material.pair_key(self.me, *peer);
                            let k16: [u8; 16] = key[..16].try_into().expect("split");
                            AesCmac::new(&k16)
                        })
                        .verify(msg, t),
                    _ => false,
                })
            }
        }
    }

    /// Checks an authenticator on `msg` received from `peer`.
    pub fn check(&self, peer: NodeIndex, msg: &[u8], tag: &AuthTag) -> bool {
        match (tag, self.material.mode) {
            (AuthTag::None, CryptoMode::None) => true,
            (AuthTag::Sig(sig), CryptoMode::Ed25519) => self.verify_from(peer, msg, sig),
            (AuthTag::Hmac(t), CryptoMode::Hmac) => {
                HmacSha256::new(&self.material.pair_key(self.me, peer)).verify(msg, t)
            }
            (AuthTag::Cmac(t), CryptoMode::Cmac) => {
                let key = self.material.pair_key(self.me, peer);
                let k16: [u8; 16] = key[..16].try_into().expect("split");
                AesCmac::new(&k16).verify(msg, t)
            }
            _ => false,
        }
    }

    // -- Digital signatures (always available: clients sign requests) -----

    /// Signs `msg` with this node's Ed25519 key.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.material.signing_keys[self.me as usize].sign(msg)
    }

    /// Verifies a signature allegedly from node `from`.
    pub fn verify_from(&self, from: NodeIndex, msg: &[u8], sig: &Signature) -> bool {
        self.material.verifying_keys.get(from as usize).is_some_and(|pk| pk.verify(msg, sig))
    }

    /// Verifies a batch of `(from, msg, signature)` triples in one shot
    /// via [`crate::ed25519::verify_batch_prepared`].
    ///
    /// `true` iff *every* triple verifies (and every `from` index is
    /// known). Callers that need to identify the offending message after
    /// a `false` fall back to per-item [`CryptoProvider::verify_from`] —
    /// the common case (all honest) never pays the serial cost.
    pub fn verify_batch_from(&self, items: &[(NodeIndex, &[u8], Signature)]) -> bool {
        let mut batch = Vec::with_capacity(items.len());
        for (from, msg, sig) in items {
            match self.material.verifying_keys.get(*from as usize) {
                Some(pk) => batch.push((*msg, pk, *sig)),
                None => return false,
            }
        }
        crate::ed25519::verify_batch_prepared(&batch)
    }

    /// The verifying key of node `i` (e.g. for genesis-block construction).
    pub fn verifying_key_of(&self, i: NodeIndex) -> Option<&VerifyingKey> {
        self.material.verifying_keys.get(i as usize).map(PreparedKey::key)
    }

    // -- Threshold certificates --------------------------------------------

    /// Produces this replica's signature share over `msg`.
    pub fn ts_share(&self, msg: &[u8]) -> SignatureShare {
        self.threshold_signer.share(msg)
    }

    /// Verifies a single signature share.
    pub fn ts_verify_share(&self, msg: &[u8], share: &SignatureShare) -> bool {
        self.threshold_signer.verify_share(msg, share)
    }

    /// Aggregates shares into a certificate.
    pub fn ts_aggregate(
        &self,
        msg: &[u8],
        shares: &[SignatureShare],
    ) -> Result<ThresholdCert, ThresholdError> {
        self.threshold_signer.aggregate(msg, shares)
    }

    /// Verifies an aggregated certificate.
    pub fn ts_verify_cert(&self, msg: &[u8], cert: &ThresholdCert) -> bool {
        self.threshold_signer.verify_cert(msg, cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(mode: CryptoMode) -> Arc<KeyMaterial> {
        KeyMaterial::generate(4, 2, 3, mode, CertScheme::MultiSig, 42)
    }

    #[test]
    fn replica_client_indexing() {
        let km = setup(CryptoMode::Cmac);
        assert_eq!(km.replica(0).index(), 0);
        assert_eq!(km.replica(3).index(), 3);
        assert_eq!(km.client(0).index(), 4);
        assert_eq!(km.client(1).index(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replica_index_bounds_checked() {
        let km = setup(CryptoMode::Cmac);
        let _ = km.replica(4);
    }

    #[test]
    fn mac_roundtrip_all_modes() {
        for mode in [CryptoMode::None, CryptoMode::Ed25519, CryptoMode::Hmac, CryptoMode::Cmac] {
            let km = setup(mode);
            let a = km.replica(0);
            let b = km.replica(1);
            let tag = a.authenticate(1, b"payload");
            assert!(b.check(0, b"payload", &tag), "mode {mode:?}");
            if mode != CryptoMode::None {
                assert!(!b.check(0, b"tampered", &tag), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn mac_is_pairwise() {
        // A tag made for peer 1 must not verify as coming over the (0,2) link.
        let km = setup(CryptoMode::Cmac);
        let a = km.replica(0);
        let c = km.replica(2);
        let tag = a.authenticate(1, b"m");
        assert!(!c.check(0, b"m", &tag));
    }

    #[test]
    fn wrong_mode_tag_rejected() {
        let km = setup(CryptoMode::Cmac);
        let a = km.replica(0);
        let b = km.replica(1);
        let tag = AuthTag::Hmac([0u8; 32]);
        assert!(!b.check(0, b"m", &tag));
        let _ = a;
    }

    #[test]
    fn client_signatures_verify_at_replicas() {
        let km = setup(CryptoMode::Cmac);
        let client = km.client(0);
        let replica = km.replica(2);
        let sig = client.sign(b"request");
        assert!(replica.verify_from(client.index(), b"request", &sig));
        assert!(!replica.verify_from(client.index(), b"forged", &sig));
        // Not attributable to another client.
        assert!(!replica.verify_from(km.client(1).index(), b"request", &sig));
    }

    #[test]
    fn threshold_via_provider() {
        let km = setup(CryptoMode::Cmac);
        let providers: Vec<_> = (0..4).map(|i| km.replica(i)).collect();
        let msg = b"h";
        let shares: Vec<_> = providers.iter().map(|p| p.ts_share(msg)).collect();
        let cert = providers[0].ts_aggregate(msg, &shares).expect("agg");
        for p in &providers {
            assert!(p.ts_verify_cert(msg, &cert));
        }
    }

    #[test]
    fn auth_tag_codec_roundtrip() {
        let km = setup(CryptoMode::Ed25519);
        let a = km.replica(0);
        for tag in [
            AuthTag::None,
            AuthTag::Hmac([7u8; 32]),
            AuthTag::Cmac([8u8; 16]),
            AuthTag::Sig(a.sign(b"x")),
        ] {
            let mut buf = Vec::new();
            tag.encode(&mut buf);
            assert_eq!(buf.len(), tag.encoded_len());
            let (decoded, used) = AuthTag::decode(&buf).expect("decode");
            assert_eq!(used, buf.len());
            assert_eq!(decoded, tag);
        }
        assert!(AuthTag::decode(&[]).is_none());
        assert!(AuthTag::decode(&[1, 2, 3]).is_none());
        assert!(AuthTag::decode(&[9]).is_none());
    }

    #[test]
    fn verify_batch_from_matches_serial() {
        let km = setup(CryptoMode::Ed25519);
        let replica = km.replica(0);
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 16 + i as usize]).collect();
        let items: Vec<(NodeIndex, &[u8], crate::ed25519::Signature)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let signer = km.replica(i % 4);
                (signer.index(), m.as_slice(), signer.sign(m))
            })
            .collect();
        assert!(replica.verify_batch_from(&items));
        // One flipped bit anywhere sinks the batch.
        let mut bad = items.clone();
        let mut raw = *bad[5].2.as_bytes();
        raw[10] ^= 1;
        bad[5].2 = crate::ed25519::Signature::from_bytes(raw);
        assert!(!replica.verify_batch_from(&bad));
        // Unknown sender index sinks the batch.
        let mut unknown = items.clone();
        unknown[0].0 = 999;
        assert!(!replica.verify_batch_from(&unknown));
    }

    /// 2 000 seeded client-signed requests: `verify_batch_from` (prepared
    /// keys) agrees with `verify_from` and with the public
    /// `VerifyingKey::verify` at batch sizes 2, 3, 10 and 11, on honest
    /// batches, on batches with one corrupted signature and on batches
    /// naming an unknown sender.
    #[test]
    fn verify_batch_from_agreement_sweep() {
        let km = KeyMaterial::generate(4, 12, 3, CryptoMode::Ed25519, CertScheme::MultiSig, 43);
        let replica = km.replica(1);
        let clients: Vec<CryptoProvider> = (0..12).map(|c| km.client(c)).collect();
        let msgs: Vec<Vec<u8>> =
            (0..2000u32).map(|i| i.to_le_bytes().repeat(1 + i as usize % 16)).collect();
        let mut items: Vec<(NodeIndex, &[u8], Signature)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (clients[i % 12].index(), m.as_slice(), clients[i % 12].sign(m)))
            .collect();
        for (from, m, sig) in &items {
            assert!(replica.verify_from(*from, m, sig));
            assert!(replica.verifying_key_of(*from).expect("known").verify(m, sig));
        }
        let (mut start, mut batch_no) = (0, 0);
        while start < items.len() {
            let n = [2, 3, 10, 11][batch_no % 4].min(items.len() - start);
            let batch = &mut items[start..start + n];
            match batch_no % 6 {
                4 => {
                    let mut raw = *batch[batch_no % n].2.as_bytes();
                    raw[batch_no % 64] ^= 0x04;
                    batch[batch_no % n].2 = Signature::from_bytes(raw);
                }
                5 => batch[batch_no % n].0 = 999,
                _ => {}
            }
            let serial = batch.iter().all(|(from, m, sig)| replica.verify_from(*from, m, sig));
            assert_eq!(serial, batch_no % 6 < 4, "batch {batch_no}");
            assert_eq!(replica.verify_batch_from(batch), serial, "batch {batch_no}");
            start += n;
            batch_no += 1;
        }
    }

    #[test]
    fn check_batch_all_modes() {
        for mode in [CryptoMode::None, CryptoMode::Ed25519, CryptoMode::Hmac, CryptoMode::Cmac] {
            let km = setup(mode);
            let receiver = km.replica(0);
            let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 24]).collect();
            let tags: Vec<(NodeIndex, AuthTag)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let peer = km.replica(1 + i % 3);
                    (peer.index(), peer.authenticate(0, m))
                })
                .collect();
            let items: Vec<(NodeIndex, &[u8], &AuthTag)> =
                msgs.iter().zip(&tags).map(|(m, (peer, tag))| (*peer, m.as_slice(), tag)).collect();
            assert!(receiver.check_batch(&items), "mode {mode:?}");
            // Per-item agreement with `check`.
            for (peer, m, tag) in &items {
                assert!(receiver.check(*peer, m, tag), "mode {mode:?}");
            }
            if mode != CryptoMode::None {
                // Tamper with one message: the batch must fail.
                let mut tampered = items.clone();
                tampered[3].1 = b"tampered message";
                assert!(!receiver.check_batch(&tampered), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn check_batch_rejects_wrong_tag_kind() {
        let km = setup(CryptoMode::Cmac);
        let receiver = km.replica(0);
        let wrong = AuthTag::Hmac([0u8; 32]);
        assert!(!receiver.check_batch(&[(1, b"m".as_slice(), &wrong)]));
        let km_none = setup(CryptoMode::None);
        assert!(!km_none.replica(0).check_batch(&[(1, b"m".as_slice(), &wrong)]));
    }

    #[test]
    fn check_batch_empty_is_true() {
        for mode in [CryptoMode::None, CryptoMode::Ed25519, CryptoMode::Hmac, CryptoMode::Cmac] {
            assert!(setup(mode).replica(0).check_batch(&[]));
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 7);
        let b = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 7);
        let c = KeyMaterial::generate(4, 1, 3, CryptoMode::Cmac, CertScheme::MultiSig, 8);
        assert_eq!(a.replica(0).sign(b"m").as_bytes(), b.replica(0).sign(b"m").as_bytes());
        assert_ne!(a.replica(0).sign(b"m").as_bytes(), c.replica(0).sign(b"m").as_bytes());
    }
}
