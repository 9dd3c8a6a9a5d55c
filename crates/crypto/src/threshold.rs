//! Threshold certificates: the paper's `⟨v⟩` aggregated signatures.
//!
//! In PoE's threshold-signature mode, each replica sends a *signature share*
//! `s⟨h⟩i` to the primary, which aggregates `nf` shares into a single
//! certificate `⟨h⟩` broadcast in the CERTIFY message. The paper instantiates
//! this with BLS. Pairing-based BLS is out of scope for a from-scratch
//! no-dependency build, so this module offers two schemes with the same
//! quorum semantics.
//!
//! Why a vector of Ed25519 signatures may stand in for BLS: PoE uses the
//! certificate for one thing, to prove that `nf` distinct replicas signed
//! the same digest, so that any two certificates for a view and sequence
//! number share an honest signer. A vector of `nf` signatures from distinct
//! signers proves exactly that, is publicly verifiable and cannot be forged
//! by f byzantine replicas; the protocol sends the same messages in the
//! same phases. What changes is cost, not semantics: the certificate grows
//! from one group element to `nf` signatures, and verifying it is one
//! `nf`-item batch verification instead of one pairing check.
//!
//! * [`CertScheme::MultiSig`] — a *multi-signature certificate*: the share is
//!   a real Ed25519 signature and the certificate is the vector of `nf`
//!   signatures from distinct replicas, O(n)·64 bytes (the simulator's
//!   bandwidth model accounts for this).
//! * [`CertScheme::Simulated`] — a dealer-keyed scheme for simulation runs:
//!   shares and certificates are HMAC tags under keys derived from a master
//!   secret known to the (single-process) simulation environment. It has
//!   BLS-like constant-size certificates and a configurable cost model, but
//!   offers no real asymmetric security — byzantine *scripted* behaviour in
//!   the simulator never forges tags, and adversarial unit tests use
//!   `MultiSig`.

use crate::ed25519::{PreparedKey, Signature, SigningKey, SIGNATURE_LEN};
use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sink::Sink;
use std::fmt;

/// Which certificate scheme a cluster runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertScheme {
    /// Vector-of-Ed25519-signatures certificate (real cryptography).
    #[default]
    MultiSig,
    /// Dealer-keyed HMAC certificate (simulation only).
    Simulated,
}

/// A signature share `s⟨h⟩i` produced by replica `signer`.
#[derive(Clone, PartialEq, Eq)]
pub struct SignatureShare {
    /// Index of the replica that produced the share.
    pub signer: u32,
    /// Scheme-specific share payload.
    pub payload: SharePayload,
}

/// Scheme-specific share payload.
#[derive(Clone, PartialEq, Eq)]
pub enum SharePayload {
    /// An Ed25519 signature over the message.
    Ed(Signature),
    /// An HMAC tag under the signer's dealer-derived share key.
    Sim([u8; 32]),
}

impl fmt::Debug for SignatureShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            SharePayload::Ed(_) => write!(f, "Share(ed, signer={})", self.signer),
            SharePayload::Sim(_) => write!(f, "Share(sim, signer={})", self.signer),
        }
    }
}

impl SignatureShare {
    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        match &self.payload {
            SharePayload::Ed(_) => 5 + SIGNATURE_LEN,
            SharePayload::Sim(_) => 5 + 32,
        }
    }

    /// Manual wire encoding (tag, signer, payload) into any [`Sink`]
    /// — a buffer, or a counter for allocation-free measurement.
    pub fn encode<S: Sink>(&self, out: &mut S) {
        match &self.payload {
            SharePayload::Ed(sig) => {
                out.put_u8(0);
                out.put(&self.signer.to_le_bytes());
                out.put(sig.as_bytes());
            }
            SharePayload::Sim(tag) => {
                out.put_u8(1);
                out.put(&self.signer.to_le_bytes());
                out.put(tag);
            }
        }
    }

    /// Decodes a share, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(SignatureShare, usize)> {
        let tag = *buf.first()?;
        let signer = u32::from_le_bytes(buf.get(1..5)?.try_into().ok()?);
        match tag {
            0 => {
                let raw: [u8; SIGNATURE_LEN] = buf.get(5..5 + SIGNATURE_LEN)?.try_into().ok()?;
                Some((
                    SignatureShare {
                        signer,
                        payload: SharePayload::Ed(Signature::from_bytes(raw)),
                    },
                    5 + SIGNATURE_LEN,
                ))
            }
            1 => {
                let raw: [u8; 32] = buf.get(5..37)?.try_into().ok()?;
                Some((SignatureShare { signer, payload: SharePayload::Sim(raw) }, 37))
            }
            _ => None,
        }
    }
}

/// An aggregated threshold certificate `⟨h⟩`.
#[derive(Clone, PartialEq, Eq)]
pub struct ThresholdCert {
    /// Sorted indices of contributing replicas (length = threshold).
    pub signers: Vec<u32>,
    /// Scheme-specific proof.
    pub proof: CertProof,
}

/// Scheme-specific certificate proof.
#[derive(Clone, PartialEq, Eq)]
pub enum CertProof {
    /// One Ed25519 signature per signer, in `signers` order.
    Multi(Vec<Signature>),
    /// A single dealer-keyed HMAC tag binding message and signer set.
    Sim([u8; 32]),
}

impl fmt::Debug for ThresholdCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ThresholdCert({} signers)", self.signers.len())
    }
}

impl ThresholdCert {
    /// Serialized size in bytes (used by the bandwidth model).
    pub fn encoded_len(&self) -> usize {
        match &self.proof {
            CertProof::Multi(sigs) => 1 + 2 + self.signers.len() * 4 + sigs.len() * SIGNATURE_LEN,
            CertProof::Sim(_) => 1 + 2 + self.signers.len() * 4 + 32,
        }
    }

    /// Manual wire encoding (tag, count, signers, proof) into any
    /// [`Sink`].
    pub fn encode<S: Sink>(&self, out: &mut S) {
        match &self.proof {
            CertProof::Multi(sigs) => {
                out.put_u8(0);
                out.put(&(self.signers.len() as u16).to_le_bytes());
                for s in &self.signers {
                    out.put(&s.to_le_bytes());
                }
                for sig in sigs {
                    out.put(sig.as_bytes());
                }
            }
            CertProof::Sim(tag) => {
                out.put_u8(1);
                out.put(&(self.signers.len() as u16).to_le_bytes());
                for s in &self.signers {
                    out.put(&s.to_le_bytes());
                }
                out.put(tag);
            }
        }
    }

    /// Decodes a certificate, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(ThresholdCert, usize)> {
        let tag = *buf.first()?;
        if buf.len() < 3 {
            return None;
        }
        let count = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let mut off = 3;
        let mut signers = Vec::with_capacity(count);
        for _ in 0..count {
            if buf.len() < off + 4 {
                return None;
            }
            signers.push(u32::from_le_bytes(buf[off..off + 4].try_into().ok()?));
            off += 4;
        }
        let proof = match tag {
            0 => {
                let mut sigs = Vec::with_capacity(count);
                for _ in 0..count {
                    if buf.len() < off + SIGNATURE_LEN {
                        return None;
                    }
                    let raw: [u8; SIGNATURE_LEN] = buf[off..off + SIGNATURE_LEN].try_into().ok()?;
                    sigs.push(Signature::from_bytes(raw));
                    off += SIGNATURE_LEN;
                }
                CertProof::Multi(sigs)
            }
            1 => {
                if buf.len() < off + 32 {
                    return None;
                }
                let raw: [u8; 32] = buf[off..off + 32].try_into().ok()?;
                off += 32;
                CertProof::Sim(raw)
            }
            _ => return None,
        };
        Some((ThresholdCert { signers, proof }, off))
    }
}

/// Errors from certificate aggregation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdError {
    /// Fewer than `threshold` distinct valid shares were supplied.
    NotEnoughShares,
    /// A share failed verification.
    InvalidShare(u32),
    /// A share used the wrong scheme.
    SchemeMismatch,
    /// The same signer contributed twice.
    DuplicateSigner(u32),
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThresholdError::NotEnoughShares => write!(f, "not enough valid signature shares"),
            ThresholdError::InvalidShare(i) => write!(f, "invalid signature share from {i}"),
            ThresholdError::SchemeMismatch => write!(f, "signature share scheme mismatch"),
            ThresholdError::DuplicateSigner(i) => write!(f, "duplicate signature share from {i}"),
        }
    }
}

impl std::error::Error for ThresholdError {}

/// Cluster-wide threshold signing context for one replica.
///
/// Holds whatever key material the selected scheme needs. Constructed by
/// [`crate::provider::KeyMaterial`].
#[derive(Clone)]
pub struct ThresholdSigner {
    scheme: CertScheme,
    threshold: usize,
    my_index: u32,
    /// MultiSig: this replica's Ed25519 key.
    ed_key: Option<SigningKey>,
    /// MultiSig: everyone's verifying keys with their points, indexed by
    /// replica.
    ed_public: Vec<PreparedKey>,
    /// Simulated: dealer master secret (shared by the simulation process).
    sim_master: [u8; 32],
    /// Simulated: precomputed keyed HMAC state per replica (share
    /// creation/verification run on every SUPPORT; re-deriving the share
    /// key — two extra HMAC passes — per call would dominate large
    /// simulation runs).
    sim_share_macs: Vec<HmacSha256>,
}

impl ThresholdSigner {
    /// Builds a signer context.
    pub fn new(
        scheme: CertScheme,
        threshold: usize,
        my_index: u32,
        ed_key: Option<SigningKey>,
        ed_public: Vec<PreparedKey>,
        sim_master: [u8; 32],
    ) -> Self {
        let sim_share_macs = match scheme {
            CertScheme::Simulated => (0..ed_public.len() as u32)
                .map(|i| {
                    let mut label = [0u8; 8];
                    label[..4].copy_from_slice(&i.to_le_bytes());
                    HmacSha256::new(&hmac_sha256(&sim_master, &label))
                })
                .collect(),
            CertScheme::MultiSig => Vec::new(),
        };
        ThresholdSigner {
            scheme,
            threshold,
            my_index,
            ed_key,
            ed_public,
            sim_master,
            sim_share_macs,
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> CertScheme {
        self.scheme
    }

    /// Produces this replica's share `s⟨msg⟩i`.
    pub fn share(&self, msg: &[u8]) -> SignatureShare {
        let payload = match self.scheme {
            CertScheme::MultiSig => {
                let key = self.ed_key.as_ref().expect("multisig signer needs an Ed25519 key");
                SharePayload::Ed(key.sign(msg))
            }
            CertScheme::Simulated => {
                SharePayload::Sim(self.sim_share_macs[self.my_index as usize].tag(msg))
            }
        };
        SignatureShare { signer: self.my_index, payload }
    }

    /// Verifies a share claimed to come from `share.signer` (an index
    /// outside the replica set is rejected).
    pub fn verify_share(&self, msg: &[u8], share: &SignatureShare) -> bool {
        match (&share.payload, self.scheme) {
            (SharePayload::Ed(sig), CertScheme::MultiSig) => {
                self.ed_public.get(share.signer as usize).is_some_and(|pk| pk.verify(msg, sig))
            }
            (SharePayload::Sim(tag), CertScheme::Simulated) => self
                .sim_share_macs
                .get(share.signer as usize)
                .is_some_and(|mac| mac.verify(msg, tag)),
            _ => false,
        }
    }

    /// Aggregates at least `threshold` valid shares from distinct signers
    /// into a certificate.
    ///
    /// All shares cover the **same** message — the ideal batch shape —
    /// so in `MultiSig` mode the whole selected share set is verified in
    /// one [`crate::ed25519::verify_batch_prepared`] pass (one shared doubling
    /// chain instead of one per share). Only when that combined check
    /// fails does aggregation fall back to per-share verification, to
    /// attribute blame: the honest-primary hot path never pays the
    /// serial cost, and a byzantine replica that submits a bad share is
    /// still identified (by ascending signer index) so the caller can
    /// discard it and retry with the remaining shares.
    pub fn aggregate(
        &self,
        msg: &[u8],
        shares: &[SignatureShare],
    ) -> Result<ThresholdCert, ThresholdError> {
        // Select up to `threshold` shares from distinct signers, in the
        // order supplied (first-come wins, as the primary collects them).
        let mut seen = std::collections::BTreeMap::new();
        for share in shares {
            if seen.contains_key(&share.signer) {
                return Err(ThresholdError::DuplicateSigner(share.signer));
            }
            seen.insert(share.signer, share.clone());
            if seen.len() == self.threshold {
                break;
            }
        }
        if seen.len() < self.threshold {
            return Err(ThresholdError::NotEnoughShares);
        }
        match self.scheme {
            CertScheme::MultiSig => {
                let mut batch = Vec::with_capacity(seen.len());
                for share in seen.values() {
                    let sig = match &share.payload {
                        SharePayload::Ed(sig) => *sig,
                        SharePayload::Sim(_) => {
                            return Err(ThresholdError::InvalidShare(share.signer))
                        }
                    };
                    match self.ed_public.get(share.signer as usize) {
                        Some(pk) => batch.push((msg, pk, sig)),
                        None => return Err(ThresholdError::InvalidShare(share.signer)),
                    }
                }
                if !crate::ed25519::verify_batch_prepared(&batch) {
                    // Attribute blame serially; report the lowest-index
                    // offender.
                    for share in seen.values() {
                        if !self.verify_share(msg, share) {
                            return Err(ThresholdError::InvalidShare(share.signer));
                        }
                    }
                    // The combined check fails on any invalid signature
                    // except with probability 2⁻¹²⁸; reaching this line
                    // means that event occurred — treat as not enough
                    // *provably* valid shares rather than minting a
                    // certificate we could not re-verify.
                    return Err(ThresholdError::NotEnoughShares);
                }
                let signers: Vec<u32> = seen.keys().copied().collect();
                let sigs = batch.iter().map(|(_, _, sig)| *sig).collect();
                Ok(ThresholdCert { signers, proof: CertProof::Multi(sigs) })
            }
            CertScheme::Simulated => {
                for share in seen.values() {
                    if !self.verify_share(msg, share) {
                        return Err(ThresholdError::InvalidShare(share.signer));
                    }
                }
                let signers: Vec<u32> = seen.keys().copied().collect();
                let proof = CertProof::Sim(self.sim_cert_tag(msg, &signers));
                Ok(ThresholdCert { signers, proof })
            }
        }
    }

    fn sim_cert_tag(&self, msg: &[u8], signers: &[u32]) -> [u8; 32] {
        let mut data = Vec::with_capacity(msg.len() + signers.len() * 4 + 4);
        data.extend_from_slice(b"cert");
        data.extend_from_slice(msg);
        for s in signers {
            data.extend_from_slice(&s.to_le_bytes());
        }
        hmac_sha256(&self.sim_master, &data)
    }

    /// Verifies an aggregated certificate over `msg`.
    pub fn verify_cert(&self, msg: &[u8], cert: &ThresholdCert) -> bool {
        if cert.signers.len() < self.threshold {
            return false;
        }
        // Signers must be distinct (sorted ascending enforces it cheaply).
        if cert.signers.windows(2).any(|w| w[0] >= w[1]) {
            return false;
        }
        match (&cert.proof, self.scheme) {
            (CertProof::Multi(sigs), CertScheme::MultiSig) => {
                if sigs.len() != cert.signers.len() {
                    return false;
                }
                // All nf signatures cover the same message: the ideal
                // batch-verification shape (one shared doubling chain).
                let mut batch = Vec::with_capacity(sigs.len());
                for (signer, sig) in cert.signers.iter().zip(sigs) {
                    match self.ed_public.get(*signer as usize) {
                        Some(pk) => batch.push((msg, pk, *sig)),
                        None => return false,
                    }
                }
                crate::ed25519::verify_batch_prepared(&batch)
            }
            (CertProof::Sim(tag), CertScheme::Simulated) => {
                let expect = self.sim_cert_tag(msg, &cert.signers);
                crate::hmac::ct_eq(&expect, tag)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(scheme: CertScheme, n: usize, threshold: usize) -> Vec<ThresholdSigner> {
        let keys: Vec<SigningKey> =
            (0..n).map(|i| SigningKey::from_label(format!("replica-{i}").as_bytes())).collect();
        let publics: Vec<PreparedKey> = keys.iter().map(SigningKey::prepared_key).collect();
        (0..n)
            .map(|i| {
                ThresholdSigner::new(
                    scheme,
                    threshold,
                    i as u32,
                    Some(keys[i].clone()),
                    publics.clone(),
                    [9u8; 32],
                )
            })
            .collect()
    }

    fn roundtrip(scheme: CertScheme) {
        let n = 4;
        let t = 3;
        let signers = cluster(scheme, n, t);
        let msg = b"propose:view=0,k=7";
        let shares: Vec<SignatureShare> = signers.iter().map(|s| s.share(msg)).collect();
        // Every replica can verify every share.
        for s in &signers {
            for share in &shares {
                assert!(s.verify_share(msg, share));
            }
        }
        let cert = signers[0].aggregate(msg, &shares[..t]).expect("aggregate");
        assert_eq!(cert.signers.len(), t);
        for s in &signers {
            assert!(s.verify_cert(msg, &cert));
        }
        // Wrong message rejected.
        assert!(!signers[1].verify_cert(b"other", &cert));
    }

    #[test]
    fn multisig_roundtrip() {
        roundtrip(CertScheme::MultiSig);
    }

    #[test]
    fn simulated_roundtrip() {
        roundtrip(CertScheme::Simulated);
    }

    #[test]
    fn too_few_shares_rejected() {
        let signers = cluster(CertScheme::MultiSig, 4, 3);
        let msg = b"m";
        let shares: Vec<_> = signers.iter().take(2).map(|s| s.share(msg)).collect();
        assert_eq!(signers[0].aggregate(msg, &shares), Err(ThresholdError::NotEnoughShares));
    }

    #[test]
    fn duplicate_signer_rejected() {
        let signers = cluster(CertScheme::MultiSig, 4, 3);
        let msg = b"m";
        let s0 = signers[0].share(msg);
        let shares = vec![s0.clone(), s0, signers[1].share(msg)];
        assert_eq!(signers[0].aggregate(msg, &shares), Err(ThresholdError::DuplicateSigner(0)));
    }

    #[test]
    fn forged_share_rejected() {
        let signers = cluster(CertScheme::MultiSig, 4, 3);
        let msg = b"m";
        // Replica 3 forges a share claiming to be replica 0.
        let mut forged = signers[3].share(msg);
        forged.signer = 0;
        assert!(!signers[1].verify_share(msg, &forged));
        let shares = vec![forged, signers[1].share(msg), signers[2].share(msg)];
        assert_eq!(signers[0].aggregate(msg, &shares), Err(ThresholdError::InvalidShare(0)));
    }

    #[test]
    fn aggregate_blames_offender_and_succeeds_without_it() {
        let signers = cluster(CertScheme::MultiSig, 7, 5);
        let msg = b"m";
        let mut shares: Vec<_> = signers.iter().take(5).map(|s| s.share(msg)).collect();
        // Replica 6 forges a share claiming to be replica 2: the batch
        // check fails and the serial fallback names the offender.
        let mut forged = signers[6].share(msg);
        forged.signer = 2;
        shares[2] = forged;
        assert_eq!(signers[0].aggregate(msg, &shares), Err(ThresholdError::InvalidShare(2)));
        // The caller discards the blamed share and retries with a
        // replacement — the batch path then succeeds.
        shares[2] = signers[5].share(msg);
        let cert = signers[0].aggregate(msg, &shares).expect("aggregate after retry");
        assert!(signers[1].verify_cert(msg, &cert));
    }

    #[test]
    fn aggregate_ignores_shares_beyond_threshold() {
        // A bad share that is never selected (it arrives after the
        // threshold is already met) cannot poison aggregation.
        let signers = cluster(CertScheme::MultiSig, 5, 3);
        let msg = b"m";
        let mut shares: Vec<_> = signers.iter().take(3).map(|s| s.share(msg)).collect();
        let mut forged = signers[4].share(msg);
        forged.payload = SharePayload::Ed(Signature::from_bytes([7u8; 64]));
        shares.push(forged);
        let cert = signers[0].aggregate(msg, &shares).expect("aggregate");
        assert_eq!(cert.signers, vec![0, 1, 2]);
    }

    #[test]
    fn undersized_cert_rejected() {
        let signers = cluster(CertScheme::MultiSig, 4, 3);
        let msg = b"m";
        let shares: Vec<_> = signers.iter().map(|s| s.share(msg)).collect();
        let cert = signers[0].aggregate(msg, &shares).unwrap();
        let small = ThresholdCert {
            signers: cert.signers[..2].to_vec(),
            proof: match &cert.proof {
                CertProof::Multi(sigs) => CertProof::Multi(sigs[..2].to_vec()),
                CertProof::Sim(t) => CertProof::Sim(*t),
            },
        };
        assert!(!signers[1].verify_cert(msg, &small));
    }

    #[test]
    fn unsorted_or_duplicated_signers_rejected() {
        let signers = cluster(CertScheme::Simulated, 4, 3);
        let msg = b"m";
        let shares: Vec<_> = signers.iter().map(|s| s.share(msg)).collect();
        let mut cert = signers[0].aggregate(msg, &shares[..3]).unwrap();
        cert.signers = vec![2, 1, 0];
        assert!(!signers[1].verify_cert(msg, &cert));
        cert.signers = vec![1, 1, 2];
        assert!(!signers[1].verify_cert(msg, &cert));
    }

    #[test]
    fn cert_encode_decode_roundtrip() {
        for scheme in [CertScheme::MultiSig, CertScheme::Simulated] {
            let signers = cluster(scheme, 4, 3);
            let msg = b"roundtrip";
            let shares: Vec<_> = signers.iter().map(|s| s.share(msg)).collect();
            let cert = signers[0].aggregate(msg, &shares[..3]).unwrap();
            let mut buf = Vec::new();
            cert.encode(&mut buf);
            assert_eq!(buf.len(), cert.encoded_len());
            let (decoded, used) = ThresholdCert::decode(&buf).expect("decode");
            assert_eq!(used, buf.len());
            assert_eq!(decoded, cert);
            assert!(signers[2].verify_cert(msg, &decoded));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let signers = cluster(CertScheme::MultiSig, 4, 3);
        let msg = b"x";
        let shares: Vec<_> = signers.iter().map(|s| s.share(msg)).collect();
        let cert = signers[0].aggregate(msg, &shares[..3]).unwrap();
        let mut buf = Vec::new();
        cert.encode(&mut buf);
        for cut in [0, 1, 2, 5, buf.len() - 1] {
            assert!(ThresholdCert::decode(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn sim_scheme_smaller_cert_than_multisig() {
        let ms = cluster(CertScheme::MultiSig, 4, 3);
        let sim = cluster(CertScheme::Simulated, 4, 3);
        let msg = b"size";
        let ms_cert = ms[0]
            .aggregate(msg, &ms.iter().map(|s| s.share(msg)).collect::<Vec<_>>()[..3])
            .unwrap();
        let sim_cert = sim[0]
            .aggregate(msg, &sim.iter().map(|s| s.share(msg)).collect::<Vec<_>>()[..3])
            .unwrap();
        assert!(sim_cert.encoded_len() < ms_cert.encoded_len());
    }
}
