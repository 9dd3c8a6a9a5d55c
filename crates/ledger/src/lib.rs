//! # poe-ledger
//!
//! The blockchain ledger substrate of paper §III-A ("Ledger Management").
//!
//! A blockchain is an immutable ledger where blocks are chained as a
//! linked list: block `Bᵢ = {k, d, v, H(Bᵢ₋₁)}` holds the sequence number,
//! the batch digest, the view, and the hash of the previous block. The
//! genesis block is derived from the identity of the initial primary —
//! information every replica already has, so no communication is needed.
//!
//! Instead of (or in addition to) hashing the previous block, the paper
//! suggests storing the *proof of acceptance* — for PoE, the threshold
//! certificate from the CERTIFY message — in each block; [`BlockProof`]
//! supports both styles.
//!
//! Because PoE executes speculatively, a ledger suffix may have to be
//! discarded during a view change; [`Ledger::truncate_above`] mirrors the
//! store's rollback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use poe_crypto::digest::{digest_concat, Digest};
use poe_crypto::ed25519::VerifyingKey;
use poe_crypto::threshold::ThresholdCert;
use poe_kernel::ids::{ReplicaId, SeqNum, View};
use std::fmt;

/// The consensus proof stored in a block.
#[derive(Clone, PartialEq, Debug)]
pub enum BlockProof {
    /// The genesis block needs no proof.
    Genesis,
    /// Threshold-signature mode: the aggregated threshold certificate.
    Certificate(ThresholdCert),
    /// MAC mode (paper Appendix A): the committee of replicas whose
    /// matching SUPPORT votes committed the block (MAC-authenticated
    /// votes yield no compact transferable certificate).
    Committee(Vec<ReplicaId>),
    /// The per-slot acceptance proof never completed locally — e.g. the
    /// watermark advanced past the slot and discarded its late SUPPORT
    /// votes. The commit is subsumed by the stable checkpoint at this
    /// sequence number: its `2f + 1` matching state votes (the local
    /// replica's own among them) attest to every batch up to and
    /// including this block.
    Checkpoint(SeqNum),
    /// The block was installed by state transfer from a checkpoint image
    /// vouched for by `f + 1` distinct peers; the original acceptance
    /// proof was garbage-collected with the serving replica's slots.
    /// Convergence audits compare [`Ledger::history_digest`], which is
    /// proof-independent, so repaired and original chains agree.
    Repaired,
}

impl BlockProof {
    fn digest_bytes(&self) -> Vec<u8> {
        match self {
            BlockProof::Genesis => b"genesis".to_vec(),
            BlockProof::Certificate(cert) => {
                let mut buf = Vec::with_capacity(cert.encoded_len());
                cert.encode(&mut buf);
                buf
            }
            BlockProof::Committee(ids) => ids.iter().flat_map(|r| r.0.to_le_bytes()).collect(),
            BlockProof::Checkpoint(seq) => {
                let mut buf = b"checkpoint".to_vec();
                buf.extend(seq.0.to_le_bytes());
                buf
            }
            BlockProof::Repaired => b"repaired".to_vec(),
        }
    }
}

/// One block in the chain.
#[derive(Clone, PartialEq, Debug)]
pub struct Block {
    /// Sequence number `k` of the batch this block commits.
    pub seq: SeqNum,
    /// Digest `d` of the batch.
    pub batch_digest: Digest,
    /// View `v` under which it was certified.
    pub view: View,
    /// Hash of the previous block, `H(Bᵢ₋₁)`.
    pub prev_hash: Digest,
    /// Proof of acceptance.
    pub proof: BlockProof,
}

impl Block {
    /// The hash of this block.
    pub fn hash(&self) -> Digest {
        digest_concat(&[
            &self.seq.0.to_le_bytes(),
            self.batch_digest.as_bytes(),
            &self.view.0.to_le_bytes(),
            self.prev_hash.as_bytes(),
            &self.proof.digest_bytes(),
        ])
    }
}

/// Errors from [`Ledger::verify_chain`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChainError {
    /// A block's `prev_hash` does not match its predecessor.
    BrokenLink {
        /// Index of the offending block.
        at: usize,
    },
    /// Sequence numbers are not consecutive.
    NonConsecutive {
        /// Index of the offending block.
        at: usize,
    },
    /// The first block is not a genesis block.
    MissingGenesis,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BrokenLink { at } => write!(f, "broken hash link at block {at}"),
            ChainError::NonConsecutive { at } => {
                write!(f, "non-consecutive sequence number at block {at}")
            }
            ChainError::MissingGenesis => write!(f, "chain does not start with genesis"),
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only (but speculatively truncatable) block chain.
#[derive(Clone, Debug)]
pub struct Ledger {
    genesis_hash: Digest,
    blocks: Vec<Block>,
}

impl Ledger {
    /// Creates a ledger whose genesis block is derived from the initial
    /// primary's public identity (paper §III-A: "we use the hash of the
    /// identity of the initial primary").
    pub fn new(initial_primary: ReplicaId, primary_key: &VerifyingKey) -> Ledger {
        let genesis_hash = digest_concat(&[
            b"poe-genesis",
            &initial_primary.0.to_le_bytes(),
            primary_key.as_bytes(),
        ]);
        Ledger { genesis_hash, blocks: Vec::new() }
    }

    /// The genesis hash (acts as `H(B₋₁)` for the first real block).
    pub fn genesis_hash(&self) -> Digest {
        self.genesis_hash
    }

    /// Hash of the newest block (genesis hash when empty).
    pub fn head_hash(&self) -> Digest {
        self.blocks.last().map(Block::hash).unwrap_or(self.genesis_hash)
    }

    /// Sequence number of the newest block.
    pub fn head_seq(&self) -> Option<SeqNum> {
        self.blocks.last().map(|b| b.seq)
    }

    /// Number of blocks (excluding genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when only the genesis exists.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Appends the next block. The caller provides consensus results; the
    /// ledger enforces chain discipline (consecutive sequence numbers).
    ///
    /// # Panics
    /// Panics if `seq` is not exactly one past the head (blocks are only
    /// created by the execute stage, which runs in order).
    pub fn append(&mut self, seq: SeqNum, view: View, batch_digest: Digest, proof: BlockProof) {
        let expected = self.blocks.last().map(|b| b.seq.next()).unwrap_or(SeqNum::ZERO);
        assert_eq!(seq, expected, "ledger appends must be consecutive");
        let prev_hash = self.head_hash();
        self.blocks.push(Block { seq, batch_digest, view, prev_hash, proof });
    }

    /// Removes every block with sequence number above `keep_up_to`
    /// (`None` removes all): the ledger counterpart of speculative
    /// rollback.
    pub fn truncate_above(&mut self, keep_up_to: Option<SeqNum>) {
        match keep_up_to {
            Some(seq) => self.blocks.retain(|b| b.seq <= seq),
            None => self.blocks.clear(),
        }
    }

    /// The block at sequence number `seq`, if present.
    pub fn block_at(&self, seq: SeqNum) -> Option<&Block> {
        let idx = seq.0 as usize;
        self.blocks.get(idx).filter(|b| b.seq == seq)
    }

    /// Iterates the chain oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Digest of the committed *history*: a fold over each block's
    /// `(seq, view, batch_digest)`, excluding acceptance proofs.
    ///
    /// [`Ledger::head_hash`] covers proofs, which are only canonical in
    /// threshold-signature mode. In MAC mode every replica commits on its
    /// *own* `nf` matching SUPPORT votes, so the recorded committee — and
    /// hence the block hash — can legitimately differ across replicas that
    /// agree on the history.
    /// Convergence audits therefore compare this digest instead.
    pub fn history_digest(&self) -> Digest {
        let mut acc = self.genesis_hash;
        for b in &self.blocks {
            acc = digest_concat(&[
                acc.as_bytes(),
                &b.seq.0.to_le_bytes(),
                &b.view.0.to_le_bytes(),
                b.batch_digest.as_bytes(),
            ]);
        }
        acc
    }

    /// [`Ledger::history_digest`] restricted to blocks with sequence
    /// numbers at or below `up_to`: what a replica whose chain ends at
    /// `up_to` would report. Repair manifests advertise this for the
    /// offered checkpoint so a requester can verify its installed prefix.
    pub fn history_digest_up_to(&self, up_to: SeqNum) -> Digest {
        let mut acc = self.genesis_hash;
        for b in self.blocks.iter().take_while(|b| b.seq <= up_to) {
            acc = digest_concat(&[
                acc.as_bytes(),
                &b.seq.0.to_le_bytes(),
                &b.view.0.to_le_bytes(),
                b.batch_digest.as_bytes(),
            ]);
        }
        acc
    }

    /// Audits the whole chain: hash links, consecutive sequence numbers.
    pub fn verify_chain(&self) -> Result<(), ChainError> {
        let mut prev_hash = self.genesis_hash;
        for (i, block) in self.blocks.iter().enumerate() {
            if block.prev_hash != prev_hash {
                return Err(ChainError::BrokenLink { at: i });
            }
            if block.seq.0 != i as u64 {
                return Err(ChainError::NonConsecutive { at: i });
            }
            prev_hash = block.hash();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_crypto::ed25519::SigningKey;

    fn ledger() -> Ledger {
        let key = SigningKey::from_label(b"replica-0").verifying_key();
        Ledger::new(ReplicaId(0), &key)
    }

    fn d(s: &str) -> Digest {
        Digest::of(s.as_bytes())
    }

    #[test]
    fn genesis_is_deterministic_and_identity_bound() {
        let k0 = SigningKey::from_label(b"replica-0").verifying_key();
        let k1 = SigningKey::from_label(b"replica-1").verifying_key();
        let a = Ledger::new(ReplicaId(0), &k0);
        let b = Ledger::new(ReplicaId(0), &k0);
        let c = Ledger::new(ReplicaId(1), &k1);
        assert_eq!(a.genesis_hash(), b.genesis_hash());
        assert_ne!(a.genesis_hash(), c.genesis_hash());
    }

    #[test]
    fn append_links_blocks() {
        let mut l = ledger();
        assert!(l.is_empty());
        l.append(SeqNum(0), View(0), d("b0"), BlockProof::Genesis);
        l.append(SeqNum(1), View(0), d("b1"), BlockProof::Committee(vec![ReplicaId(0)]));
        l.append(SeqNum(2), View(1), d("b2"), BlockProof::Genesis);
        assert_eq!(l.len(), 3);
        assert_eq!(l.head_seq(), Some(SeqNum(2)));
        l.verify_chain().expect("valid chain");
        // Each block's prev_hash is its predecessor's hash.
        let blocks: Vec<_> = l.iter().collect();
        assert_eq!(blocks[1].prev_hash, blocks[0].hash());
        assert_eq!(blocks[2].prev_hash, blocks[1].hash());
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn gap_rejected() {
        let mut l = ledger();
        l.append(SeqNum(1), View(0), d("x"), BlockProof::Genesis);
    }

    #[test]
    fn tampering_detected() {
        let mut l = ledger();
        l.append(SeqNum(0), View(0), d("b0"), BlockProof::Genesis);
        l.append(SeqNum(1), View(0), d("b1"), BlockProof::Genesis);
        // Tamper with block 0's payload.
        l.blocks[0].batch_digest = d("evil");
        assert_eq!(l.verify_chain(), Err(ChainError::BrokenLink { at: 1 }));
    }

    #[test]
    fn broken_first_link_detected() {
        let mut l = ledger();
        l.append(SeqNum(0), View(0), d("b0"), BlockProof::Genesis);
        l.blocks[0].prev_hash = d("wrong");
        assert_eq!(l.verify_chain(), Err(ChainError::BrokenLink { at: 0 }));
    }

    #[test]
    fn truncate_above_rolls_back() {
        let mut l = ledger();
        for k in 0..5u64 {
            l.append(SeqNum(k), View(0), d(&format!("b{k}")), BlockProof::Genesis);
        }
        l.truncate_above(Some(SeqNum(2)));
        assert_eq!(l.len(), 3);
        assert_eq!(l.head_seq(), Some(SeqNum(2)));
        l.verify_chain().expect("still valid");
        // Can re-append after truncation.
        l.append(SeqNum(3), View(1), d("b3'"), BlockProof::Genesis);
        l.verify_chain().expect("valid after re-append");
        l.truncate_above(None);
        assert!(l.is_empty());
        assert_eq!(l.head_hash(), l.genesis_hash());
    }

    #[test]
    fn history_digest_ignores_proofs_but_not_history() {
        let mut a = ledger();
        let mut b = ledger();
        a.append(SeqNum(0), View(0), d("b0"), BlockProof::Committee(vec![ReplicaId(0)]));
        b.append(SeqNum(0), View(0), d("b0"), BlockProof::Committee(vec![ReplicaId(1)]));
        // Same history, different local acceptance evidence.
        assert_ne!(a.head_hash(), b.head_hash());
        assert_eq!(a.history_digest(), b.history_digest());
        // Different history diverges.
        a.append(SeqNum(1), View(0), d("b1"), BlockProof::Genesis);
        b.append(SeqNum(1), View(0), d("b1'"), BlockProof::Genesis);
        assert_ne!(a.history_digest(), b.history_digest());
    }

    #[test]
    fn history_digest_up_to_matches_truncated_chain() {
        let mut l = ledger();
        for k in 0..5u64 {
            l.append(SeqNum(k), View(0), d(&format!("b{k}")), BlockProof::Genesis);
        }
        let mut prefix = ledger();
        for k in 0..3u64 {
            prefix.append(SeqNum(k), View(0), d(&format!("b{k}")), BlockProof::Repaired);
        }
        // A chain rebuilt from a repaired prefix agrees digest-for-digest
        // with the original through the checkpoint, proofs regardless.
        assert_eq!(l.history_digest_up_to(SeqNum(2)), prefix.history_digest());
        assert_eq!(l.history_digest_up_to(SeqNum(4)), l.history_digest());
        prefix.verify_chain().expect("repaired prefix is a valid chain");
    }

    #[test]
    fn block_at_lookup() {
        let mut l = ledger();
        l.append(SeqNum(0), View(0), d("b0"), BlockProof::Genesis);
        l.append(SeqNum(1), View(0), d("b1"), BlockProof::Genesis);
        assert_eq!(l.block_at(SeqNum(1)).unwrap().batch_digest, d("b1"));
        assert!(l.block_at(SeqNum(9)).is_none());
    }

    #[test]
    fn proof_variants_change_hash() {
        let base = Block {
            seq: SeqNum(0),
            batch_digest: d("b"),
            view: View(0),
            prev_hash: d("p"),
            proof: BlockProof::Genesis,
        };
        let mut committee = base.clone();
        committee.proof = BlockProof::Committee(vec![ReplicaId(0), ReplicaId(1)]);
        assert_ne!(base.hash(), committee.hash());
    }
}
