//! The benchmark's contract in one place: workload names and the
//! reason each exists, every constant a workload runs with, and the
//! metric tables (name, unit, direction, regression bound).
//! `BENCHMARK.json` at the repo root is [`benchmark_json`] printed
//! (`poe-benchmark --emit-spec`); `tests/smoke.rs` holds the two equal.

use crate::json::Json;

/// One named set of inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Signed,
    Tcp,
    Capacity,
    BackupCrash,
    SimViewchange,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Steady,
        Workload::Signed,
        Workload::Tcp,
        Workload::Capacity,
        Workload::BackupCrash,
        Workload::SimViewchange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Signed => "signed",
            Workload::Tcp => "tcp",
            Workload::Capacity => "capacity",
            Workload::BackupCrash => "backup_crash",
            Workload::SimViewchange => "sim_viewchange",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady => {
                "open loop, 8000 req/s Poisson, in-proc fabric, no crypto: far below the knee, so latency is batch-fill wait plus stage hops and CPU/request is the fabric+kernel+poe bill"
            }
            Workload::Signed => {
                "steady with the paper's crypto (Ed25519 clients, CMAC links, MultiSig certificates) at 1500 req/s: poe-crypto does over 90 % of the work, invisible on steady"
            }
            Workload::Tcp => {
                "steady row for row (same rate, seed, requests) over loopback TCP: the difference to steady is poe-net (framing, per-peer reader/writer threads, syscalls)"
            }
            Workload::Capacity => {
                "512 sessions that resubmit as fast as a 150000 req/s clock lets them: CPU-bound on 2 cores, goodput is the headline throughput; burning CPU for latency loses here"
            }
            Workload::BackupCrash => {
                "closed loop (2 waiting clients x 8 outstanding) with a backup crashed and restarted mid-run: service must not dent, the victim must catch up by state transfer"
            }
            Workload::SimViewchange => {
                "deterministic simulator, n=16, primary crashed: no threads, queues or sockets, so kernel codec + poe automaton + store + ledger do all the work and the view change runs"
            }
        }
    }
}

// ---- constants every workload runs with --------------------------------
//
// Nothing below is derived at run time. `--seconds` (the measured window)
// is the one size argument; `BENCHMARK.json` fixes it at `RUN_SECONDS`
// and the smoke test passes 1.

/// The measured window the driver asks for.
pub const RUN_SECONDS: u64 = 14;
/// Fabric workloads: replicas / SUPPORT mode TS / batch 20 / cut delay
/// 5 ms / checkpoint every 8 / YCSB `small` are `FabricConfig::new(4, ..)`.
pub const FABRIC_N: usize = 4;
/// Cluster seed of the open-loop workloads (keys only: the arrival and
/// YCSB streams take `--seed`).
pub const FABRIC_KEY_SEED: u64 = 0xD1CE;
/// A fabric run is this many rounds — a fresh cluster each, measured
/// for `--seconds ÷ ROUNDS` — and reports the median round, so that a
/// stall of the machine or an unlucky thread placement costs one round,
/// not the run.
pub const ROUNDS: usize = 7;
/// Rounds dropped from each end before `p99_ms` is averaged (see
/// [`EndToEnd::mean_trim`]): the mean of the middle three of seven. One
/// 20 ms stall of a shared host lands 30 requests — all of `signed`'s
/// 1 % — in a round's tail, so up to two such rounds must not move the
/// run.
pub const TRIMMED_ROUNDS: usize = 2;
/// Open-loop warm-up before each round's measured window (at most a
/// quarter of the window, which is what the smoke test's rounds get).
pub const WARMUP_SECS: f64 = 0.4;
/// Open-loop in-flight age after which a request counts as failed.
pub const ABANDON_SECS: f64 = 1.0;
/// Offered rates, req/s (Poisson arrivals, one driver thread).
pub const STEADY_RPS: f64 = 8_000.0;
pub const SIGNED_RPS: f64 = 1_500.0;
pub const CAPACITY_CLOCK_RPS: f64 = 150_000.0;
/// Session populations. `steady`/`tcp` never run short of idle
/// sessions; `signed` keeps key generation (linear in sessions) out of
/// the CPU bill; `capacity` is bounded so nothing is shed.
pub const STEADY_SESSIONS: u32 = 16_384;
pub const SIGNED_SESSIONS: u32 = 1_024;
pub const CAPACITY_SESSIONS: u32 = 512;
/// `backup_crash`: client threads, window, requests per client per
/// measured second (≈ the 1400 req/s each client sustains, so a round
/// lasts about its share of `--seconds`), victim, fault times as shares
/// of the round.
pub const CRASH_CLIENTS: usize = 2;
pub const CRASH_OUTSTANDING: usize = 8;
pub const CRASH_REQUESTS_PER_CLIENT_PER_SEC: f64 = 1_400.0;
pub const CRASH_VICTIM: usize = 2;
pub const CRASH_AT_SHARE: f64 = 0.25;
pub const RESTART_AT_SHARE: f64 = 0.5;
/// `sim_viewchange`: one scenario is `SIM_CLIENTS × SIM_REQUESTS`
/// requests; scenarios repeat until the window is spent and medians
/// are reported. 128 requests are in flight when the primary dies —
/// 0.64 % of a scenario, so p99 stays a normal-case number and the
/// outage is reported on its own (`sim.virt_outage_ms`).
pub const SIM_N: usize = 16;
pub const SIM_CLIENTS: usize = 8;
pub const SIM_OUTSTANDING: usize = 16;
pub const SIM_REQUESTS: u64 = 2_500;
pub const SIM_CHECKPOINT_INTERVAL: u64 = 8;
/// Link delay, µs: uniform in this range from the seeded RNG (a
/// constant delay makes every virtual-time number identical on every
/// seed, which tells a reader nothing about spread).
pub const SIM_DELAY_US: (u64, u64) = (800, 1_200);
pub const SIM_CRASH_AT_VIRTUAL_MS: u64 = 200;

/// The constants above, for result files.
pub fn constants() -> Json {
    let n = Json::Num;
    Json::obj([
        ("run_seconds", n(RUN_SECONDS as f64)),
        ("fabric_n", n(FABRIC_N as f64)),
        ("warmup_secs", n(WARMUP_SECS)),
        ("abandon_secs", n(ABANDON_SECS)),
        ("steady_rps", n(STEADY_RPS)),
        ("signed_rps", n(SIGNED_RPS)),
        ("capacity_clock_rps", n(CAPACITY_CLOCK_RPS)),
        ("steady_sessions", n(STEADY_SESSIONS as f64)),
        ("signed_sessions", n(SIGNED_SESSIONS as f64)),
        ("capacity_sessions", n(CAPACITY_SESSIONS as f64)),
        ("crash_clients", n(CRASH_CLIENTS as f64)),
        ("crash_outstanding", n(CRASH_OUTSTANDING as f64)),
        ("crash_requests_per_client_per_sec", n(CRASH_REQUESTS_PER_CLIENT_PER_SEC)),
        ("crash_victim", n(CRASH_VICTIM as f64)),
        ("crash_at_share", n(CRASH_AT_SHARE)),
        ("restart_at_share", n(RESTART_AT_SHARE)),
        ("sim_n", n(SIM_N as f64)),
        ("sim_clients", n(SIM_CLIENTS as f64)),
        ("sim_outstanding", n(SIM_OUTSTANDING as f64)),
        ("sim_requests_per_client", n(SIM_REQUESTS as f64)),
        ("sim_checkpoint_interval", n(SIM_CHECKPOINT_INTERVAL as f64)),
        ("sim_delay_us", Json::Arr(vec![n(SIM_DELAY_US.0 as f64), n(SIM_DELAY_US.1 as f64)])),
        ("sim_crash_at_virtual_ms", n(SIM_CRASH_AT_VIRTUAL_MS as f64)),
        ("rounds", n(ROUNDS as f64)),
        ("trimmed_rounds", n(TRIMMED_ROUNDS as f64)),
    ])
}

// ---- metrics ------------------------------------------------------------

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported on every workload, never 0, with the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// How a fabric run folds its rounds: the median (`None`), or the
    /// mean of the rounds left after this many are dropped from each
    /// end. The product's latency histogram rounds a quantile to a
    /// bucket 0.4 % wide, so the median of the rounds' quantiles reads
    /// the same to the last digit run after run; a mean moves with
    /// every round it takes in. A round's median shrugs off a stall, so
    /// `p50_ms` takes in all rounds (on `backup_crash` even the middle
    /// three share one bucket); its 99th percentile does not.
    pub mean_trim: Option<usize>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound, mean_trim: None }
}

/// The end-to-end metrics, in print order. Definitions are in the
/// README; bounds are at least three times the widest spread (IQR ÷
/// median over ten seeds) seen on any workload on the reference runner.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("goodput_rps", "1/s", Better::Higher, 0.10),
    EndToEnd { mean_trim: Some(0), ..e2e("p50_ms", "ms", Better::Lower, 0.10) },
    EndToEnd { mean_trim: Some(TRIMMED_ROUNDS), ..e2e("p99_ms", "ms", Better::Lower, 0.25) },
    e2e("cpu_us_per_req", "us", Better::Lower, 0.10),
    e2e("proc_cpu_us_per_req", "us", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric (no bound; 0 on workloads where the layer or the
/// event does not occur).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// The per-layer metrics, grouped by crate.
pub const PER_LAYER: &[PerLayer] = &[
    // poe-fabric: stage CPU per completed request, batching, queues,
    // backpressure and session-table outcomes.
    lo("fabric.ingress.cpu_us_per_req", "us"),
    lo("fabric.batching.cpu_us_per_req", "us"),
    lo("fabric.admission.cpu_us_per_req", "us"),
    lo("fabric.consensus.cpu_us_per_req", "us"),
    lo("fabric.egress.cpu_us_per_req", "us"),
    hi("fabric.batch_fill", "req/batch"),
    lo("fabric.batches_cut", "count"),
    lo("fabric.batch_queue_peak", "count"),
    lo("fabric.consensus_queue_peak", "count"),
    lo("fabric.egress_queue_peak", "count"),
    lo("fabric.batch_depth_med", "count"),
    lo("fabric.consensus_depth_med", "count"),
    lo("fabric.deferrals", "count"),
    lo("fabric.shed_full", "count"),
    lo("fabric.shed_retransmits", "count"),
    lo("fabric.egress.dropped", "count"),
    hi("fabric.ingress.pool_hit_ratio", "ratio"),
    lo("fabric.ingress.decode_errors", "count"),
    lo("fabric.ingress.auth_failures", "count"),
    lo("fabric.batching.rejected_sigs", "count"),
    lo("fabric.session.dup_in_flight", "count"),
    lo("fabric.session.replayed_from_cache", "count"),
    lo("fabric.session.evicted_replies", "count"),
    lo("fabric.consensus.events_per_req", "1/req"),
    lo("fabric.consensus.timer_fires", "count"),
    lo("fabric.threads", "count"),
    // poe-net (tcp only).
    lo("net.frames_out_per_req", "1/req"),
    lo("net.bytes_out_per_req", "B/req"),
    lo("net.link_queue_peak", "count"),
    lo("net.link_shed", "count"),
    lo("net.reconnects", "count"),
    lo("net.rejected_in", "count"),
    lo("net.tcp_threads_cpu_us_per_req", "us"),
    lo("net.nonstage_cpu_us_per_req", "us"),
    // poe-consensus: protocol outcomes, repair, and (traced simulator
    // run) self time of the automaton by event kind.
    lo("poe.executed_batches", "count"),
    lo("poe.decided", "count"),
    lo("poe.checkpoints", "count"),
    lo("poe.view_changes", "count"),
    lo("poe.rollbacks", "count"),
    lo("poe.fell_behind", "count"),
    lo("poe.caught_up", "count"),
    lo("poe.repair.chunks_fetched", "count"),
    lo("poe.repair.retries", "count"),
    lo("poe.repair.throttled", "count"),
    lo("poe.repair.recovery_ms", "ms"),
    lo("poe.on_event.request_us", "us"),
    lo("poe.on_event.propose_us", "us"),
    lo("poe.on_event.support_us", "us"),
    lo("poe.on_event.certify_us", "us"),
    lo("poe.on_event.checkpoint_us", "us"),
    lo("poe.on_event.viewchange_us", "us"),
    lo("poe.on_event.timeout_us", "us"),
    lo("poe.self_us_per_req", "us"),
    // poe-store (traced).
    lo("store.apply_us_per_req", "us"),
    lo("store.other_us_per_req", "us"),
    lo("store.apply_calls", "count"),
    lo("store.rollback_us", "us"),
    lo("store.rollback_calls", "count"),
    lo("store.stabilize_us", "us"),
    // poe-ledger (a replica's committed chain replayed into a fresh ledger).
    lo("ledger.append_us_per_batch", "us"),
    lo("ledger.verify_chain_us", "us"),
    // poe-kernel: message counts and the codec's share (traced mix
    // replayed through encode/decode).
    lo("kernel.msgs_per_req", "1/req"),
    lo("kernel.encodes_per_req", "1/req"),
    lo("kernel.decodes_per_req", "1/req"),
    lo("kernel.wire_bytes_per_req", "B/req"),
    lo("kernel.encode_us_per_req", "us"),
    lo("kernel.decode_us_per_req", "us"),
    // poe-crypto: each primitive timed alone on the workload's keys.
    lo("crypto.client_sign_us", "us"),
    lo("crypto.client_verify_us_per_req", "us"),
    lo("crypto.share_sign_us", "us"),
    lo("crypto.aggregate_us", "us"),
    lo("crypto.cert_verify_us", "us"),
    lo("crypto.digest_us_per_batch", "us"),
    lo("crypto.cmac_tag_us", "us"),
    // poe-workload: the load generator's fidelity and cost.
    hi("workload.offered_ratio", "ratio"),
    lo("workload.no_idle_session", "count"),
    lo("workload.abandoned", "count"),
    lo("workload.next_op_us", "us"),
    lo("workload.driver_cpu_us_per_req", "us"),
    lo("workload.client_us_per_req", "us"),
    // poe-sim: the engine's remainder, the outage in virtual time, and
    // what tracing cost.
    lo("sim.engine_us_per_req", "us"),
    lo("sim.events_per_req", "1/req"),
    lo("sim.timer_fires", "count"),
    lo("sim.virt_outage_ms", "ms"),
    hi("sim.virt_goodput_rps", "1/s"),
    lo("sim.traced_host_us_per_req", "us"),
    lo("sim.trace.overhead_ratio", "ratio"),
    lo("sim.trace.spans", "count"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn spec_is_within_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && names.insert(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
