//! # poe-crypto
//!
//! From-scratch cryptographic toolbox for the Proof-of-Execution (PoE)
//! reproduction. The PoE paper (EDBT 2021) is *signature-scheme agnostic*:
//! replicas may authenticate messages with MACs (symmetric) or with
//! threshold signatures (asymmetric). This crate provides every primitive
//! the paper's evaluation exercises:
//!
//! * [`sha2`] — SHA-256 and SHA-512 (FIPS 180-4), used for message digests
//!   (`D(·)` in the paper) and inside Ed25519.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), the default pairwise MAC.
//! * [`aes`] / [`cmac`] — AES-128 (FIPS 197) and AES-CMAC (RFC 4493), the
//!   `CMAC+AES` configuration of the paper's Figure 8.
//! * [`ed25519`] — complete RFC 8032 Ed25519 signatures built on a
//!   from-scratch curve25519 field and twisted-Edwards point arithmetic
//!   (the paper's `ED` configuration).
//! * [`threshold`] — threshold certificates with `nf` shares. The paper
//!   uses BLS; pairing-based BLS is replaced by a multi-signature
//!   certificate (a vector of `nf` Ed25519 signatures) with identical
//!   quorum semantics, plus a cheap simulation-oriented scheme. The
//!   [`threshold`] module doc gives the substitution argument.
//! * [`provider`] — a per-replica [`provider::CryptoProvider`] facade that
//!   bundles keys for a whole cluster and dispatches on a
//!   [`provider::CryptoMode`] (None / MACs / digital signatures), mirroring
//!   the configurations compared in the paper's Figure 8.
//!
//! Everything is implemented without external cryptography dependencies and
//! validated against official test vectors (NIST CAVP, RFC 4231, RFC 4493,
//! RFC 8032) in the unit tests.
//!
//! ## Security note
//!
//! The implementations favour clarity and portability over side-channel
//! resistance: scalar multiplication is not constant time. That is
//! appropriate for a research reproduction and benchmark substrate, not for
//! production secrets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod digest;
pub mod ed25519;
pub mod hmac;
pub mod provider;
pub mod sha2;
pub mod sink;
pub mod threshold;

pub use digest::{digest_concat, Digest, DigestWriter, DIGEST_LEN};
pub use provider::{CryptoMode, CryptoProvider, KeyMaterial};
pub use sink::Sink;
pub use threshold::{CertScheme, SignatureShare, ThresholdCert};
