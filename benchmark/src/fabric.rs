//! The five wall-clock workloads: four open-loop runs of the pipelined
//! fabric (`steady`, `signed`, `tcp`, `capacity`) through
//! `run_open_loop[_with]`, and the closed-loop `backup_crash` through
//! `FabricCluster::{launch, crash_replica, restart_replica,
//! run_to_completion}`. Layers are read from outside: the public
//! reports, the victim's flight recorder, and `/proc`.

use crate::outcome::Outcome;
use crate::procstat;
use crate::replay;
use crate::spec::*;
use crate::stats::median;
use poe_consensus::SupportMode;
use poe_crypto::{CertScheme, CryptoMode};
use poe_fabric::{
    run_open_loop, run_open_loop_with, FabricCluster, FabricConfig, FabricReport, OpenLoopConfig,
    OpenLoopReport, TcpTransport,
};
use poe_telemetry::ProtoEvent;
use poe_workload::ArrivalProcess;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Bound on the post-run quiesce (and on the closed-loop clients): a
/// wedged pipeline fails the run instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(60);

fn fabric_config(w: Workload) -> FabricConfig {
    let mut cfg = FabricConfig::new(FABRIC_N, SupportMode::Threshold);
    cfg.cluster.seed = FABRIC_KEY_SEED;
    if w == Workload::Signed {
        // The paper's recommended setup: Ed25519-signed client requests,
        // CMAC between replicas, real (vector-of-signatures) certificates.
        cfg.cluster =
            cfg.cluster.with_crypto_mode(CryptoMode::Cmac).with_cert_scheme(CertScheme::MultiSig);
    }
    cfg
}

fn open_loop_config(w: Workload, seed: u64, measure_secs: f64) -> OpenLoopConfig {
    let (rate, sessions) = match w {
        Workload::Steady | Workload::Tcp => (STEADY_RPS, STEADY_SESSIONS),
        Workload::Signed => (SIGNED_RPS, SIGNED_SESSIONS),
        Workload::Capacity => (CAPACITY_CLOCK_RPS, CAPACITY_SESSIONS),
        other => unreachable!("{} is not an open-loop workload", other.name()),
    };
    let mut cfg = OpenLoopConfig::new(fabric_config(w), rate);
    cfg.sessions = sessions;
    cfg.drivers = 1;
    cfg.process = ArrivalProcess::Poisson;
    cfg.warmup = Duration::from_secs_f64(WARMUP_SECS.min(measure_secs / 4.0));
    cfg.measure = Duration::from_secs_f64(measure_secs);
    cfg.abandon_after = Duration::from_secs_f64(ABANDON_SECS);
    cfg.seed = seed;
    cfg
}

fn drive(cfg: &OpenLoopConfig, tcp: bool) -> OpenLoopReport {
    let result = if tcp {
        let mut transport = TcpTransport::loopback(&cfg.fabric.cluster, cfg.fabric.link_auth)
            .unwrap_or_else(|e| crate::die(&format!("cannot bind the loopback mesh: {e}")));
        run_open_loop_with(cfg, &mut transport, DEADLINE)
    } else {
        run_open_loop(cfg, DEADLINE)
    };
    result.unwrap_or_else(|e| crate::die(&format!("the open-loop run did not complete: {e}")))
}

/// One scan of per-thread CPU taken by a helper thread `after` the
/// call starts — i.e. while the run's threads are all still alive.
fn scan_threads_after(after: Duration) -> std::thread::JoinHandle<BTreeMap<String, u64>> {
    std::thread::Builder::new()
        .name("bench-scan".into())
        .spawn(move || {
            std::thread::sleep(after);
            procstat::cpu_ns_by_thread_class()
        })
        .expect("spawn the thread scanner")
}

/// Seed of one round: every round draws its own arrivals and operations.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(ROUNDS as u64).wrapping_add(round as u64)
}

/// `steady`, `signed`, `tcp`, `capacity`: `ROUNDS` fresh clusters, each
/// warmed up and then measured for its share of `seconds`.
pub fn run_open(w: Workload, seed: u64, seconds: f64, trace_on: bool) -> Outcome {
    let tcp = w == Workload::Tcp;
    let configs: Vec<OpenLoopConfig> = (0..ROUNDS)
        .map(|round| open_loop_config(w, round_seed(seed, round), seconds / ROUNDS as f64))
        .collect();
    let expected = configs[0].target_rps * seconds;
    let mut rounds = Vec::with_capacity(ROUNDS);
    let (mut submitted, mut no_idle) = (0u64, 0u64);
    for cfg in &configs {
        let (out, report) = open_round(cfg, tcp, trace_on);
        submitted += report.measured_submitted;
        no_idle += report.mux.no_idle_session;
        rounds.push(out);
    }
    let mut out = Outcome::median_of(rounds);

    // Generator fidelity, over all rounds together.
    let (attempted, failed) = (out.attempted, out.failed);
    out.check(failed as f64 <= 0.01 * attempted as f64, || {
        format!("{failed} of {attempted} requests failed (shed, abandoned or lost)")
    });
    if w != Workload::Capacity {
        // The fixed rate must sit below this runner's knee, or the run
        // measures the generator. The fabric's driver stamps latency at
        // the actual send, not at the due time, so these are the
        // outside proxies for generator lateness. Allowed: 1 % lateness
        // plus four standard deviations of a Poisson count of that size.
        let offered_ratio = submitted as f64 / expected;
        let tolerance = 0.01 + 4.0 / expected.sqrt();
        out.check((offered_ratio - 1.0).abs() <= tolerance, || {
            format!(
                "offered {offered_ratio:.4} of the fixed rate (tolerance {tolerance:.4}): the \
                 generator ran late"
            )
        });
        out.check(no_idle == 0, || format!("{no_idle} arrivals found no idle session"));
        let p99_ms = out.end_to_end.get("p99_ms").copied().unwrap_or(f64::INFINITY);
        out.check(p99_ms <= 50.0, || {
            format!("p99 {p99_ms} ms: the fixed rate is past this runner's knee")
        });
    }
    finish(&mut out, trace_on, &configs[0].fabric);
    out
}

/// What every fabric workload does after its rounds: memory and thread
/// accounting for the whole process, and the standalone layer costs.
fn finish(out: &mut Outcome, trace_on: bool, cfg: &FabricConfig) {
    out.e2e("peak_rss_mb", procstat::peak_rss_mib());
    if trace_on {
        let fill = out.per_layer.get("fabric.batch_fill").copied().unwrap_or(1.0);
        replay::crypto_costs(out, &cfg.cluster, &cfg.ycsb, fill.round() as usize);
        replay::workload_costs(out, &cfg.ycsb);
    }
    // Every thread a round starts must be joined by the time it reports.
    let live = procstat::live_threads();
    out.check(live <= 1, || format!("{live} threads are still alive after the run"));
}

/// One open-loop round: launch, warm up, measure, drain, quiesce, join.
fn open_round(cfg: &OpenLoopConfig, tcp: bool, trace_on: bool) -> (Outcome, OpenLoopReport) {
    let mut out = Outcome::default();
    let window = cfg.warmup + cfg.measure;
    let scanner = trace_on.then(|| scan_threads_after(window.mul_f64(0.9)));
    let cpu0 = procstat::process_cpu_secs();
    let started = Instant::now();
    let report = drive(cfg, tcp);
    // Launch (keys, threads, mesh), drain, quiesce and join: what the
    // call took beyond its two load windows.
    out.e2e("setup_s", started.elapsed().saturating_sub(window).as_secs_f64());
    let proc_cpu_secs = procstat::process_cpu_secs() - cpu0;
    let thread_cpu = scanner.map(|s| s.join().expect("thread scanner"));

    let completions = report.mux.completed as f64;
    if completions == 0.0 {
        crate::die("a round completed no request");
    }
    out.attempted = report.measured_submitted;
    out.failed = report.measured_submitted - report.measured_completed;
    let stage_cpu_us = report.fabric.replica_cpu_secs() * 1e6 / completions;
    let proc_cpu_us = proc_cpu_secs * 1e6 / completions;
    out.e2e("goodput_rps", report.measured_completed as f64 / cfg.measure.as_secs_f64());
    out.e2e("p50_ms", report.latency.p50_us as f64 / 1e3);
    out.e2e("p99_ms", report.latency.p99_us as f64 / 1e3);
    out.e2e("cpu_us_per_req", stage_cpu_us);
    out.e2e("proc_cpu_us_per_req", proc_cpu_us);
    out.notes.push(format!(
        "{} latency samples in a {:.1} s window, p50 {:.3} ms, p99 {:.3} ms",
        report.latency.count,
        cfg.measure.as_secs_f64(),
        report.latency.p50_us as f64 / 1e3,
        report.latency.p99_us as f64 / 1e3
    ));
    check_fabric(&mut out, &report.fabric);

    fabric_layers(&mut out, &report.fabric, completions);
    let expected = cfg.target_rps * cfg.measure.as_secs_f64();
    out.layer("workload.offered_ratio", report.measured_submitted as f64 / expected);
    out.layer("workload.no_idle_session", report.mux.no_idle_session as f64);
    out.layer("workload.abandoned", report.mux.abandoned as f64);
    let depths = |f: fn(&poe_fabric::TickSample) -> u64| {
        let series: Vec<f64> = report.timeseries.iter().map(|t| f(t) as f64).collect();
        if series.is_empty() {
            0.0
        } else {
            median(&series)
        }
    };
    out.layer("fabric.batch_depth_med", depths(|t| t.batch_depth));
    out.layer("fabric.consensus_depth_med", depths(|t| t.cons_depth));
    out.layer("net.nonstage_cpu_us_per_req", proc_cpu_us - stage_cpu_us);
    if let Some(thread_cpu) = thread_cpu {
        thread_class_layers(&mut out, &thread_cpu, stage_cpu_us);
    }
    (out, report)
}

/// `backup_crash`: callers that wait, with a backup crashed and
/// restarted while they do — `ROUNDS` times, on a fresh cluster each.
pub fn run_backup_crash(seed: u64, seconds: f64, trace_on: bool) -> Outcome {
    let mut cfg = fabric_config(Workload::BackupCrash);
    cfg.n_clients = CRASH_CLIENTS;
    cfg.client_outstanding = CRASH_OUTSTANDING;
    let round_secs = seconds / ROUNDS as f64;
    cfg.requests_per_client = (CRASH_REQUESTS_PER_CLIENT_PER_SEC * round_secs).round() as u64;
    let rounds = (0..ROUNDS)
        .map(|round| {
            // The closed-loop clients draw their YCSB streams from the
            // cluster seed, so here the seed goes in whole (crypto is
            // off: the key labels it also changes are never used).
            cfg.cluster.seed = round_seed(seed, round);
            crash_round(&cfg, round_secs, trace_on)
        })
        .collect();
    let mut out = Outcome::median_of(rounds);
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} requests never completed"));
    finish(&mut out, trace_on, &cfg);
    out
}

/// One closed-loop round of about `secs` seconds.
fn crash_round(cfg: &FabricConfig, secs: f64, trace_on: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up, as on the open-loop workloads: launch, quiesce and join —
    // timed on a cluster that serves one request per client, because
    // the measured cluster's quiesce cannot be told from its service.
    let setting_up = Instant::now();
    FabricCluster::launch(&FabricConfig { requests_per_client: 1, ..cfg.clone() })
        .run_to_completion(DEADLINE)
        .unwrap_or_else(|e| crate::die(&format!("the set-up cycle did not complete: {e}")));
    out.e2e("setup_s", setting_up.elapsed().as_secs_f64());

    let scanner = trace_on.then(|| scan_threads_after(Duration::from_secs_f64(secs * 0.9)));
    let cpu0 = procstat::process_cpu_secs();
    let mut cluster = FabricCluster::launch(cfg);
    let started = Instant::now();
    let victim = cluster.telemetry(CRASH_VICTIM).clone();
    let sleep_until = |share: f64| {
        let at = Duration::from_secs_f64(secs * share);
        std::thread::sleep(at.saturating_sub(started.elapsed()));
    };
    sleep_until(CRASH_AT_SHARE);
    cluster.crash_replica(CRASH_VICTIM);
    sleep_until(RESTART_AT_SHARE);
    cluster.restart_replica(CRASH_VICTIM);
    // The flight recorder is a ring that later traffic overwrites, so
    // the victim's `Restarted` → `CaughtUp` interval is polled for now.
    let mut recovery_ms = 0.0;
    let poll_until = started.elapsed() + Duration::from_secs_f64(secs * 0.25);
    while started.elapsed() < poll_until {
        let events = victim.recorder().events();
        let restarted = events.iter().rev().find(|e| matches!(e.event, ProtoEvent::Restarted));
        let caught_up =
            events.iter().rev().find(|e| matches!(e.event, ProtoEvent::CaughtUp { .. }));
        if let (Some(r), Some(c)) = (restarted, caught_up) {
            if c.t_ns >= r.t_ns {
                recovery_ms = (c.t_ns - r.t_ns) as f64 / 1e6;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // `run_to_completion` returns once the clients are done *and* the
    // replicas have quiesced and joined; the clients' last completion
    // is not visible from outside, so the tail counts as service time.
    let report = cluster
        .run_to_completion(DEADLINE)
        .unwrap_or_else(|e| crate::die(&format!("the closed-loop round did not complete: {e}")));
    let wall_secs = started.elapsed().as_secs_f64();
    let proc_cpu_secs = procstat::process_cpu_secs() - cpu0;
    let thread_cpu = scanner.map(|s| s.join().expect("thread scanner"));

    let completions = report.completed_requests as f64;
    if completions == 0.0 {
        crate::die("a round completed no request");
    }
    out.attempted = cfg.total_requests();
    out.failed = cfg.total_requests() - report.completed_requests.min(cfg.total_requests());
    let stage_cpu_us = report.replica_cpu_secs() * 1e6 / completions;
    let proc_cpu_us = proc_cpu_secs * 1e6 / completions;
    out.e2e("goodput_rps", completions / wall_secs);
    out.e2e("p50_ms", report.latency.p50_us as f64 / 1e3);
    out.e2e("p99_ms", report.latency.p99_us as f64 / 1e3);
    out.e2e("cpu_us_per_req", stage_cpu_us);
    out.e2e("proc_cpu_us_per_req", proc_cpu_us);
    out.notes.push(format!(
        "{} latency samples, {} requests in {wall_secs:.2} s, victim caught up in {recovery_ms:.1} ms",
        report.latency.count, report.completed_requests
    ));

    check_fabric(&mut out, &report);
    let repairs = report.replicas[CRASH_VICTIM].repair.repairs_completed;
    out.check(repairs >= 1, || {
        "the restarted backup never completed a state-transfer repair".into()
    });

    fabric_layers(&mut out, &report, completions);
    out.layer("poe.repair.recovery_ms", recovery_ms);
    out.layer("net.nonstage_cpu_us_per_req", proc_cpu_us - stage_cpu_us);
    if let Some(thread_cpu) = thread_cpu {
        thread_class_layers(&mut out, &thread_cpu, stage_cpu_us);
    }
    out
}

/// The correctness gate every fabric workload shares.
fn check_fabric(out: &mut Outcome, report: &FabricReport) {
    out.check(report.converged(), || {
        let digests: Vec<String> = report
            .replicas
            .iter()
            .map(|r| format!("{}: {} @{}", r.id, r.history_digest.short_hex(), r.exec_frontier))
            .collect();
        format!("replicas diverged: {}", digests.join(", "))
    });
    let sum = |f: fn(&poe_fabric::ReplicaReport) -> u64| report.replicas.iter().map(f).sum::<u64>();
    let rejected = sum(|r| r.batching.rejected_sigs);
    let auth = sum(|r| r.ingress.auth_failures);
    let decode = sum(|r| r.ingress.decode_errors);
    out.check(rejected == 0, || format!("{rejected} client signatures rejected"));
    out.check(auth == 0, || format!("{auth} link authentication failures"));
    out.check(decode == 0, || format!("{decode} frames failed to decode"));
}

/// Per-layer metrics read from the public report: per completed
/// request and summed over replicas, unless a count or a peak.
fn fabric_layers(out: &mut Outcome, report: &FabricReport, completions: f64) {
    let replicas = &report.replicas;
    let sum =
        |f: &dyn Fn(&poe_fabric::ReplicaReport) -> u64| replicas.iter().map(f).sum::<u64>() as f64;
    let peak = |f: &dyn Fn(&poe_fabric::ReplicaReport) -> u64| {
        replicas.iter().map(f).max().unwrap_or(0) as f64
    };
    let us_per_req = |ns: f64| ns / 1e3 / completions;

    out.layer("fabric.ingress.cpu_us_per_req", us_per_req(sum(&|r| r.ingress.cpu_ns)));
    out.layer("fabric.batching.cpu_us_per_req", us_per_req(sum(&|r| r.batching.cpu_ns)));
    out.layer("fabric.admission.cpu_us_per_req", us_per_req(sum(&|r| r.batching.admission_cpu_ns)));
    out.layer("fabric.consensus.cpu_us_per_req", us_per_req(sum(&|r| r.consensus.cpu_ns)));
    out.layer("fabric.egress.cpu_us_per_req", us_per_req(sum(&|r| r.egress.cpu_ns)));
    let batches_cut = sum(&|r| r.batching.batches_cut);
    out.layer("fabric.batches_cut", batches_cut);
    // Every executed request was cut into exactly one batch by whoever
    // was primary, so requests ÷ batches is the mean fill.
    out.layer("fabric.batch_fill", completions / batches_cut.max(1.0));
    out.layer("fabric.batch_queue_peak", peak(&|r| r.batching.queue_peak as u64));
    out.layer("fabric.consensus_queue_peak", peak(&|r| r.consensus.queue_peak));
    out.layer("fabric.egress_queue_peak", peak(&|r| r.egress.queue_peak));
    out.layer("fabric.deferrals", sum(&|r| r.batching.deferrals));
    out.layer("fabric.shed_full", sum(&|r| r.ingress.shed_full));
    out.layer("fabric.shed_retransmits", sum(&|r| r.ingress.shed_retransmits));
    out.layer("fabric.egress.dropped", sum(&|r| r.egress.dropped));
    let (hits, misses) = (sum(&|r| r.ingress.pool_hits), sum(&|r| r.ingress.pool_misses));
    out.layer("fabric.ingress.pool_hit_ratio", hits / (hits + misses).max(1.0));
    out.layer("fabric.ingress.decode_errors", sum(&|r| r.ingress.decode_errors));
    out.layer("fabric.ingress.auth_failures", sum(&|r| r.ingress.auth_failures));
    out.layer("fabric.batching.rejected_sigs", sum(&|r| r.batching.rejected_sigs));
    out.layer("fabric.session.dup_in_flight", sum(&|r| r.session.dup_in_flight));
    out.layer("fabric.session.replayed_from_cache", sum(&|r| r.session.replayed_from_cache));
    out.layer("fabric.session.evicted_replies", sum(&|r| r.session.evicted_replies));
    out.layer("fabric.consensus.events_per_req", sum(&|r| r.consensus.events) / completions);
    out.layer("fabric.consensus.timer_fires", sum(&|r| r.consensus.timer_fires));
    out.layer("fabric.threads", report.threads_joined as f64);

    let link = |f: &dyn Fn(&poe_fabric::LinkReport) -> u64| {
        replicas.iter().flat_map(|r| r.links.iter()).map(f).sum::<u64>() as f64
    };
    out.layer("net.frames_out_per_req", link(&|l| l.frames_out) / completions);
    out.layer("net.bytes_out_per_req", link(&|l| l.bytes_out) / completions);
    let queue_peak = replicas.iter().flat_map(|r| r.links.iter()).map(|l| l.queue_peak).max();
    out.layer("net.link_queue_peak", queue_peak.unwrap_or(0) as f64);
    out.layer("net.link_shed", link(&|l| l.shed));
    out.layer("net.reconnects", link(&|l| l.reconnects));
    out.layer("net.rejected_in", link(&|l| l.rejected_in));

    out.layer("poe.executed_batches", sum(&|r| r.consensus.executed));
    out.layer("poe.decided", sum(&|r| r.consensus.decided));
    out.layer("poe.checkpoints", sum(&|r| r.consensus.checkpoints));
    out.layer("poe.view_changes", sum(&|r| r.consensus.view_changes));
    out.layer("poe.rollbacks", sum(&|r| r.consensus.rollbacks));
    out.layer("poe.fell_behind", sum(&|r| r.consensus.fell_behind));
    out.layer("poe.caught_up", sum(&|r| r.consensus.caught_up));
    out.layer("poe.repair.chunks_fetched", sum(&|r| r.repair.chunks_fetched));
    out.layer("poe.repair.retries", sum(&|r| r.repair.retries));
    out.layer("poe.repair.throttled", sum(&|r| r.repair.throttled));

    // Messages: one decode per frame an ingress stage took, one encode
    // per consensus send/broadcast and per reply.
    out.layer("kernel.msgs_per_req", sum(&|r| r.ingress.decoded) / completions);
    out.layer("kernel.decodes_per_req", sum(&|r| r.ingress.decoded) / completions);
    let encodes = sum(&|r| r.consensus.sends + r.consensus.broadcasts + r.egress.replies_sent);
    out.layer("kernel.encodes_per_req", encodes / completions);
}

/// CPU of the threads that are not stage threads — the load generator
/// and the socket threads — from one `/proc` scan late in the run.
/// Every thread has burned CPU for the same stretch by then, so a
/// class's share of the stage threads' CPU, times the stage CPU per
/// request the report gives, is that class's CPU per request.
fn thread_class_layers(out: &mut Outcome, cpu_ns: &BTreeMap<String, u64>, stage_cpu_us: f64) {
    let class = |pick: &dyn Fn(&str) -> bool| {
        cpu_ns.iter().filter(|(name, _)| pick(name)).map(|(_, ns)| *ns).sum::<u64>() as f64
    };
    let stage = class(&|n| n.starts_with("r-"));
    if stage == 0.0 {
        return;
    }
    let generator = class(&|n| n.starts_with("driver-") || n.starts_with("client-"));
    let sockets = class(&|n| n.starts_with("tcp-"));
    out.layer("workload.driver_cpu_us_per_req", stage_cpu_us * generator / stage);
    out.layer("net.tcp_threads_cpu_us_per_req", stage_cpu_us * sockets / stage);
}
