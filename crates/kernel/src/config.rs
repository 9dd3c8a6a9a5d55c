//! Cluster configuration.
//!
//! Collects every knob the paper's evaluation sweeps: replica count,
//! batch size (Fig. 9i/j), payload mode (Fig. 9e–h), crypto mode (Fig. 8),
//! certificate scheme (I3), out-of-order window (Fig. 9k/l and §II-F),
//! checkpoint period, and the view-change timeout with exponential
//! back-off (Theorem 7).

use crate::time::Duration;
use poe_crypto::{CertScheme, CryptoMode};

/// Payload configuration of the workload (paper §IV: "Standard Payload"
/// vs "Zero Payload").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PayloadMode {
    /// Full request payloads travel in PROPOSE messages (~5400 B per
    /// 100-request batch in the paper).
    #[default]
    Standard,
    /// Replicas execute dummy instructions; proposals carry no request
    /// bodies, so bandwidth is not the bottleneck.
    Zero,
}

/// Static configuration shared by every replica and client of a cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas `n`.
    pub n: usize,
    /// Maximum number of byzantine replicas `f` (largest `f` with
    /// `n > 3f`).
    pub f: usize,
    /// Number of requests aggregated into one batch.
    pub batch_size: usize,
    /// Out-of-order window: how many consensus slots may be in flight at
    /// once (the PBFT high-minus-low watermark). `1` disables
    /// out-of-order processing (Fig. 9k/l).
    pub ooo_window: usize,
    /// Checkpoint period in sequence numbers.
    pub checkpoint_interval: u64,
    /// How long the primary lets a partial batch sit before flushing it
    /// (the batch-cut timer of the paper's Figure 6 pipeline; full
    /// batches are cut immediately).
    pub batch_cut_delay: Duration,
    /// Base timeout before a replica suspects the primary.
    pub base_timeout: Duration,
    /// Client retransmission timeout.
    pub client_timeout: Duration,
    /// Authentication scheme for replica/client messages.
    pub crypto_mode: CryptoMode,
    /// Threshold-certificate scheme (the paper's TS instantiation).
    pub cert_scheme: CertScheme,
    /// Payload mode.
    pub payload: PayloadMode,
    /// Base retry timeout for the state-transfer repair protocol (doubles
    /// per retry, like the view-change back-off).
    pub repair_timeout: Duration,
    /// Responder-side repair budget: STATE-CHUNK responses a replica will
    /// serve between budget refills (refilled on every stable checkpoint
    /// and view entry), so catch-up traffic cannot starve consensus.
    pub repair_budget_chunks: u32,
    /// Size of one checkpoint-image chunk in a STATE-CHUNK message.
    pub repair_chunk_bytes: usize,
    /// Deterministic seed for key generation and workloads.
    pub seed: u64,
}

impl ClusterConfig {
    /// A configuration for `n` replicas with the paper's defaults:
    /// batch size 100, checkpointing every 1000 sequence numbers, 3 s
    /// timeouts (§IV-D chooses 3 s), CMAC replica authentication.
    pub fn new(n: usize) -> ClusterConfig {
        assert!(n >= 4, "BFT needs n >= 4 (n > 3f with f >= 1)");
        ClusterConfig {
            n,
            f: (n - 1) / 3,
            batch_size: 100,
            ooo_window: 256,
            checkpoint_interval: 1_000,
            batch_cut_delay: Duration::from_millis(5),
            base_timeout: Duration::from_secs(3),
            client_timeout: Duration::from_secs(3),
            crypto_mode: CryptoMode::Cmac,
            cert_scheme: CertScheme::MultiSig,
            payload: PayloadMode::Standard,
            repair_timeout: Duration::from_millis(500),
            repair_budget_chunks: 64,
            repair_chunk_bytes: 4096,
            seed: 0xD1CE,
        }
    }

    /// Number of non-faulty replicas `nf = n - f`; also the quorum and
    /// threshold-certificate size used throughout the paper.
    pub fn nf(&self) -> usize {
        self.n - self.f
    }

    /// The `f + 1` quorum (e.g. view-change join).
    pub fn f_plus_one(&self) -> usize {
        self.f + 1
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1);
        self.batch_size = batch_size;
        self
    }

    /// Sets the out-of-order window (1 = sequential consensus).
    pub fn with_ooo_window(mut self, window: usize) -> Self {
        assert!(window >= 1);
        self.ooo_window = window;
        self
    }

    /// Sets the crypto mode.
    pub fn with_crypto_mode(mut self, mode: CryptoMode) -> Self {
        self.crypto_mode = mode;
        self
    }

    /// Sets the certificate scheme.
    pub fn with_cert_scheme(mut self, scheme: CertScheme) -> Self {
        self.cert_scheme = scheme;
        self
    }

    /// Sets the payload mode.
    pub fn with_payload(mut self, payload: PayloadMode) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the base (view-change) timeout.
    pub fn with_base_timeout(mut self, t: Duration) -> Self {
        self.base_timeout = t;
        self
    }

    /// Sets the client retransmission timeout.
    pub fn with_client_timeout(mut self, t: Duration) -> Self {
        self.client_timeout = t;
        self
    }

    /// Sets the batch-cut delay for partial batches.
    pub fn with_batch_cut_delay(mut self, t: Duration) -> Self {
        self.batch_cut_delay = t;
        self
    }

    /// Sets the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, every: u64) -> Self {
        assert!(every >= 1);
        self.checkpoint_interval = every;
        self
    }

    /// Sets the deterministic seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the repair (state-transfer) base retry timeout.
    pub fn with_repair_timeout(mut self, t: Duration) -> Self {
        self.repair_timeout = t;
        self
    }

    /// Sets the responder-side repair budget (chunks per refill).
    pub fn with_repair_budget_chunks(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1);
        self.repair_budget_chunks = chunks;
        self
    }

    /// Sets the checkpoint-image chunk size.
    pub fn with_repair_chunk_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes >= 1);
        self.repair_chunk_bytes = bytes;
        self
    }

    /// View-change timeout for a replica that has already performed
    /// `attempts` view changes: exponential back-off, doubling each time
    /// (Theorem 7's liveness argument).
    pub fn view_change_timeout(&self, attempts: u32) -> Duration {
        self.base_timeout.saturating_mul(1u64 << attempts.min(20))
    }

    /// Repair retry timeout after `attempts` unproductive retries: same
    /// doubling back-off shape as [`ClusterConfig::view_change_timeout`].
    pub fn repair_retry_timeout(&self, attempts: u32) -> Duration {
        self.repair_timeout.saturating_mul(1u64 << attempts.min(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_is_max_for_n() {
        assert_eq!(ClusterConfig::new(4).f, 1);
        assert_eq!(ClusterConfig::new(7).f, 2);
        assert_eq!(ClusterConfig::new(16).f, 5);
        assert_eq!(ClusterConfig::new(32).f, 10);
        assert_eq!(ClusterConfig::new(64).f, 21);
        assert_eq!(ClusterConfig::new(91).f, 30);
    }

    #[test]
    fn n_gt_3f_holds() {
        for n in 4..100 {
            let c = ClusterConfig::new(n);
            assert!(c.n > 3 * c.f, "n={n}");
            assert!(c.nf() > 2 * c.f, "n={n}");
        }
    }

    #[test]
    fn quorum_sizes() {
        let c = ClusterConfig::new(4);
        assert_eq!(c.nf(), 3);
        assert_eq!(c.f_plus_one(), 2);
        let c = ClusterConfig::new(91);
        assert_eq!(c.nf(), 61); // paper: "clients wait for the fastest nf = 61 replies"
    }

    #[test]
    #[should_panic(expected = "n >= 4")]
    fn too_small_cluster_rejected() {
        let _ = ClusterConfig::new(3);
    }

    #[test]
    fn backoff_doubles() {
        let c = ClusterConfig::new(4).with_base_timeout(Duration::from_millis(100));
        assert_eq!(c.view_change_timeout(0), Duration::from_millis(100));
        assert_eq!(c.view_change_timeout(1), Duration::from_millis(200));
        assert_eq!(c.view_change_timeout(3), Duration::from_millis(800));
    }

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::new(16)
            .with_batch_size(50)
            .with_ooo_window(1)
            .with_crypto_mode(CryptoMode::Ed25519)
            .with_payload(PayloadMode::Zero)
            .with_checkpoint_interval(10)
            .with_seed(7);
        assert_eq!(c.batch_size, 50);
        assert_eq!(c.ooo_window, 1);
        assert_eq!(c.crypto_mode, CryptoMode::Ed25519);
        assert_eq!(c.payload, PayloadMode::Zero);
        assert_eq!(c.checkpoint_interval, 10);
        assert_eq!(c.seed, 7);
    }
}
