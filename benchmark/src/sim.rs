//! `sim_viewchange`: the deterministic simulator at n = 16 with the
//! primary crashed at a fixed virtual instant. One scenario is a fixed
//! number of requests; scenarios repeat until the measured window is
//! spent and every timing is the median over them. No threads, queues
//! or sockets take part, so host time per simulated request is the
//! sans-I/O cost of kernel codec + poe automaton + store + ledger, and
//! every count repeats exactly under one seed.
//!
//! The traced run builds the same cluster with the decorators of
//! [`crate::trace`] around every automaton and store, alternates
//! traced and untraced scenarios (their ratio is the tracing
//! overhead), and itemises the traced host time into layers.

use crate::outcome::Outcome;
use crate::procstat;
use crate::replay;
use crate::spec::*;
use crate::stats::{median, quantile, quartiles, time_us};
use crate::trace::{self, Recorder, TracedClient, TracedReplica, TracedStore, NONE, NO_SEQ};
use poe_consensus::{PoeReplica, SupportMode};
use poe_crypto::{CertScheme, CryptoMode, KeyMaterial};
use poe_kernel::automaton::{ClientAutomaton, ReplicaAutomaton};
use poe_kernel::codec;
use poe_kernel::config::ClusterConfig;
use poe_kernel::ids::{ClientId, NodeId, ReplicaId};
use poe_kernel::time::{Duration as VirtualDuration, Time};
use poe_kernel::wire::WireBytes;
use poe_net::{DelayModel, NetworkModel};
use poe_sim::{Fault, SimStats, Simulator};
use poe_store::SpeculativeStore;
use poe_workload::{ClientConfig, WorkloadClient, YcsbConfig, YcsbWorkload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The crashed replica: the view-0 primary.
const PRIMARY: usize = 0;

fn cluster_config(seed: u64) -> ClusterConfig {
    let mut cluster = ClusterConfig::new(SIM_N)
        .with_crypto_mode(CryptoMode::None)
        .with_cert_scheme(CertScheme::Simulated)
        .with_batch_size(20)
        .with_checkpoint_interval(SIM_CHECKPOINT_INTERVAL);
    // The seed reaches the program as inputs only: key labels, the
    // clients' YCSB streams, and the link-delay draws.
    cluster.seed = seed;
    cluster
}

/// `poe_sim::build_poe_cluster`, spelled out so the traced variant can
/// hand decorated automatons to the same public `Simulator::new`.
fn build(cluster: &ClusterConfig, traced: bool) -> Simulator {
    let km = KeyMaterial::generate(
        cluster.n,
        SIM_CLIENTS,
        cluster.nf(),
        cluster.crypto_mode,
        cluster.cert_scheme,
        cluster.seed,
    );
    let replicas: Vec<Box<dyn ReplicaAutomaton>> = (0..cluster.n)
        .map(|i| {
            let id = ReplicaId(i as u32);
            let replica = |store| {
                PoeReplica::new(cluster.clone(), id, SupportMode::Threshold, km.replica(i), store)
            };
            if traced {
                let store = TracedStore { inner: SpeculativeStore::new(), node: i as u16 };
                Box::new(TracedReplica { inner: replica(Box::new(store)) })
                    as Box<dyn ReplicaAutomaton>
            } else {
                Box::new(replica(Box::new(SpeculativeStore::new())))
            }
        })
        .collect();
    let clients: Vec<Box<dyn ClientAutomaton>> = (0..SIM_CLIENTS)
        .map(|c| {
            let cfg =
                ClientConfig::matching(ClientId(c as u32), cluster.n, cluster.f, cluster.nf())
                    .with_outstanding(SIM_OUTSTANDING)
                    .with_max_requests(SIM_REQUESTS)
                    .with_retry(cluster.client_timeout);
            let cfg = ClientConfig { sign: false, ..cfg };
            let source = YcsbWorkload::new(YcsbConfig {
                seed: cluster.seed ^ (0xC0FFEE + c as u64),
                ..YcsbConfig::small()
            });
            let client = WorkloadClient::new(cfg, km.client(c), Box::new(source));
            if traced {
                Box::new(TracedClient { inner: client }) as Box<dyn ClientAutomaton>
            } else {
                Box::new(client)
            }
        })
        .collect();
    let delay = DelayModel::Uniform {
        min: VirtualDuration::from_micros(SIM_DELAY_US.0),
        max: VirtualDuration::from_micros(SIM_DELAY_US.1),
    };
    Simulator::new(NetworkModel::new(delay), cluster.seed, replicas, clients)
}

/// Self time and call count by span name.
type Bill = BTreeMap<&'static str, (u64, u64)>;

/// The timings of one scenario, and the numbers its seed fixes.
struct Scenario {
    build_secs: f64,
    host_secs: f64,
    cpu_secs: f64,
    /// Process CPU over the same loop (adds nothing here but the
    /// kernel's bookkeeping; kept so the metric means what it means on
    /// the threaded workloads).
    proc_cpu_secs: f64,
    /// Every count of the scenario, rendered: two scenarios of one seed
    /// that differ here are a determinism bug.
    exact_counts: String,
    /// Traced scenarios: where the host time went.
    bill: Option<Bill>,
}

/// The bulky remains of a scenario — kept for the first of each kind
/// only, so peak memory does not depend on how many scenarios fit.
struct Detail {
    steps: u64,
    stats: SimStats,
    /// Virtual instant of the last completion.
    virtual_ns: u64,
    /// Virtual submit → complete latency of every request, ns.
    latencies_ns: Vec<u64>,
    /// Longest virtual gap between consecutive completions, ns.
    outage_ns: u64,
    recorder: Option<Recorder>,
    sim: Simulator,
}

const TARGET: u64 = SIM_CLIENTS as u64 * SIM_REQUESTS;

fn run_scenario(cluster: &ClusterConfig, traced: bool, span_capacity: usize) -> (Scenario, Detail) {
    let t_build = Instant::now();
    let mut sim = build(cluster, traced);
    let build_secs = t_build.elapsed().as_secs_f64();
    sim.schedule_fault(
        Time::ZERO + VirtualDuration::from_millis(SIM_CRASH_AT_VIRTUAL_MS),
        Fault::Crash(NodeId::Replica(ReplicaId(PRIMARY as u32))),
    );
    if traced {
        trace::start(span_capacity);
    }
    let mut steps = 0u64;
    let cpu0 = procstat::thread_cpu_ns();
    let proc_cpu0 = procstat::process_cpu_secs();
    let t0 = Instant::now();
    while sim.stats().completed_requests < TARGET && sim.step() {
        steps += 1;
    }
    let host_secs = t0.elapsed().as_secs_f64();
    let cpu_secs = (procstat::thread_cpu_ns() - cpu0) as f64 / 1e9;
    let proc_cpu_secs = procstat::process_cpu_secs() - proc_cpu0;
    let recorder = traced.then(trace::finish);
    let stats = *sim.stats();
    let virtual_ns = sim.now().as_nanos();

    // Completion timeline from the simulator's own notification trace:
    // "<now_ns> <node> complete <client> req=<id> submitted=<ns>".
    let mut latencies_ns = Vec::with_capacity(TARGET as usize);
    let (mut outage_ns, mut last_done_ns) = (0u64, 0u64);
    for line in sim.trace() {
        let Some((at, rest)) = line.trim_start().split_once(' ') else { continue };
        if !rest.contains(" complete ") {
            continue;
        }
        let (Ok(at), Some(Ok(submitted))) =
            (at.parse::<u64>(), rest.rsplit_once("submitted=").map(|(_, s)| s.parse::<u64>()))
        else {
            continue;
        };
        latencies_ns.push(at - submitted);
        outage_ns = outage_ns.max(at - last_done_ns);
        last_done_ns = at;
    }
    let scenario = Scenario {
        build_secs,
        host_secs,
        cpu_secs,
        proc_cpu_secs,
        exact_counts: format!(
            "{stats:?} steps={steps} virtual_ns={virtual_ns} outage_ns={outage_ns}"
        ),
        bill: recorder.as_ref().map(Recorder::self_time_by_name),
    };
    (scenario, Detail { steps, stats, virtual_ns, latencies_ns, outage_ns, recorder, sim })
}

/// Lets in-flight CERTIFYs and checkpoint votes settle, then holds
/// every live replica to the same state, ledger and frontier.
fn check_agreement(out: &mut Outcome, s: &mut Detail) {
    out.check(s.stats.completed_requests == TARGET, || {
        format!("only {} of {TARGET} simulated requests completed", s.stats.completed_requests)
    });
    out.check(s.latencies_ns.len() as u64 == s.stats.completed_requests, || {
        "completion lines in the simulator trace do not match its counter".to_string()
    });
    out.check(s.stats.view_changes >= 1, || "the primary crashed but no view change ran".into());
    s.sim.run_for(VirtualDuration::from_secs(10));
    let live: Vec<usize> = (0..SIM_N).filter(|i| *i != PRIMARY).collect();
    let first = s.sim.replica(live[0]);
    let reference = (first.state_digest(), first.ledger_digest(), first.execution_frontier());
    for i in &live[1..] {
        let r = s.sim.replica(*i);
        out.check(
            (r.state_digest(), r.ledger_digest(), r.execution_frontier()) == reference,
            || {
                format!(
                    "replica {i} disagrees with replica {} on state, ledger or frontier",
                    live[0]
                )
            },
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Outcome {
    let mut out = Outcome::default();
    let cluster = cluster_config(seed);
    let started = Instant::now();

    let mut plain: Vec<Scenario> = Vec::new();
    let mut traced: Vec<Scenario> = Vec::new();
    let mut plain_first: Option<Detail> = None;
    let mut traced_first: Option<Detail> = None;
    let mut span_capacity = 1 << 20;
    // One scenario of each wanted kind, then as many as the window
    // holds; the traced run alternates the kinds so both see the same
    // machine state.
    loop {
        let (scenario, detail) = run_scenario(&cluster, false, 0);
        plain.push(scenario);
        plain_first.get_or_insert(detail);
        if trace_on {
            let (scenario, detail) = run_scenario(&cluster, true, span_capacity);
            span_capacity =
                detail.recorder.as_ref().map_or(span_capacity, |r| r.spans.len() + 1024);
            traced.push(scenario);
            traced_first.get_or_insert(detail);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut first = plain_first.expect("the loop ran once");
    let measured_secs = started.elapsed().as_secs_f64();

    // ---- correctness: agreement on the first scenario of each kind, and
    // identical counts across every scenario of the run.
    check_agreement(&mut out, &mut first);
    let reference = &plain[0].exact_counts;
    for s in plain.iter().chain(traced.iter()) {
        out.check(s.exact_counts == *reference, || {
            format!(
                "counts differ between scenarios of one seed:\n  {reference}\n  {}",
                s.exact_counts
            )
        });
    }
    if let Some(traced_first) = traced_first.as_mut() {
        check_agreement(&mut out, traced_first);
    }

    let scenarios = plain.len() as u64;
    let done = first.stats.completed_requests as f64;
    // Counts are identical across scenarios (checked above), so the
    // first scenario's shortfall is every scenario's.
    out.attempted = TARGET * scenarios;
    out.failed = (TARGET - first.stats.completed_requests.min(TARGET)) * scenarios;

    // ---- end to end. A scenario is the same computation every time,
    // so whatever else the machine does can only add to its cost: the
    // first quartile over the scenarios estimates the undisturbed cost
    // far more steadily than their median (on the reference runner the
    // cost drifts by ±5 % within one run).
    let undisturbed = |cost: &dyn Fn(&Scenario) -> f64| -> f64 {
        let costs: Vec<f64> = plain.iter().map(cost).collect();
        if costs.len() < 2 {
            costs[0]
        } else {
            quartiles(&costs).0
        }
    };
    let host_us_per_req = undisturbed(&|s| s.host_secs * 1e6 / done);
    out.e2e("goodput_rps", 1e6 / host_us_per_req);
    out.e2e("cpu_us_per_req", undisturbed(&|s| s.cpu_secs * 1e6 / done));
    out.e2e("proc_cpu_us_per_req", undisturbed(&|s| s.proc_cpu_secs * 1e6 / done));
    let latencies = &mut first.latencies_ns;
    if !latencies.is_empty() {
        out.e2e("p50_ms", quantile(latencies, 0.50) as f64 / 1e6);
        out.e2e("p99_ms", quantile(latencies, 0.99) as f64 / 1e6);
    }
    out.e2e("peak_rss_mb", procstat::peak_rss_mib());
    // Set-up here is building the cluster: key material, 16 automatons
    // with their stores, 8 clients, the event queue.
    let mut builds: Vec<f64> = plain.iter().chain(traced.iter()).map(|s| s.build_secs).collect();
    while builds.len() < 15 {
        let t0 = Instant::now();
        drop(black_box(build(&cluster, false)));
        builds.push(t0.elapsed().as_secs_f64());
    }
    out.e2e("setup_s", median(&builds));
    let each: Vec<String> =
        plain.iter().map(|s| format!("{:.1}", s.host_secs * 1e6 / done)).collect();
    out.notes.push(format!(
        "{scenarios} scenarios of {TARGET} requests in {measured_secs:.2} s; latency samples {}; \
         host us/request per scenario: {}",
        latencies.len(),
        each.join(" ")
    ));

    // ---- per layer: exact counts.
    let st = first.stats;
    out.layer("poe.executed_batches", st.executed_batches as f64);
    out.layer("poe.decided", st.decided as f64);
    out.layer("poe.checkpoints", st.checkpoints as f64);
    out.layer("poe.view_changes", st.view_changes as f64);
    out.layer("poe.rollbacks", st.rollbacks as f64);
    out.layer("poe.fell_behind", st.fell_behind as f64);
    out.layer("poe.caught_up", st.caught_up as f64);
    out.layer("kernel.msgs_per_req", st.delivered as f64 / done);
    out.layer("kernel.encodes_per_req", st.wire_encodes as f64 / done);
    out.layer("kernel.decodes_per_req", st.wire_decodes as f64 / done);
    out.layer("kernel.wire_bytes_per_req", st.wire_encoded_bytes as f64 / done);
    out.layer("sim.events_per_req", first.steps as f64 / done);
    out.layer("sim.timer_fires", st.timer_fires as f64);
    out.layer("sim.virt_outage_ms", first.outage_ns as f64 / 1e6);
    out.layer("sim.virt_goodput_rps", done / (first.virtual_ns as f64 / 1e9));

    if let Some(traced_first) = &traced_first {
        // Tracing overhead compares like with like: median traced
        // against median untraced scenario.
        let plain_median =
            median(&plain.iter().map(|s| s.host_secs * 1e6 / done).collect::<Vec<_>>());
        layers_from_trace(&mut out, &cluster, done, &traced, traced_first, plain_median, seed);
    }
    out
}

/// Mean self time per call, µs, over the spans whose name passes `pick`.
fn mean_self_us(by_name: &Bill, pick: impl Fn(&str) -> bool) -> f64 {
    let (ns, calls) = by_name
        .iter()
        .filter(|(name, _)| pick(name))
        .fold((0u64, 0u64), |acc, (_, (ns, calls))| (acc.0 + ns, acc.1 + calls));
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

fn total_self_ns(by_name: &Bill, pick: impl Fn(&str) -> bool) -> u64 {
    by_name.iter().filter(|(name, _)| pick(name)).map(|(_, (ns, _))| ns).sum()
}

fn is_store(name: &str) -> bool {
    name.starts_with("store.")
}

fn is_client(name: &str) -> bool {
    name.starts_with("client.")
}

fn is_replica(name: &str) -> bool {
    !is_store(name) && !is_client(name)
}

fn layers_from_trace(
    out: &mut Outcome,
    cluster: &ClusterConfig,
    done: f64,
    traced: &[Scenario],
    traced_first: &Detail,
    plain_host_us_per_req: f64,
    seed: u64,
) {
    let bills: Vec<(&Bill, f64)> = traced
        .iter()
        .map(|s| (s.bill.as_ref().expect("traced scenarios record spans"), s.host_secs * 1e9))
        .collect();
    // Every timing below is the median over the traced scenarios.
    let med = |f: &dyn Fn(&Bill, f64) -> f64| -> f64 {
        median(&bills.iter().map(|(by_name, host_ns)| f(by_name, *host_ns)).collect::<Vec<_>>())
    };
    let per_req_us = |ns: u64| ns as f64 / done / 1e3;

    let group = |names: &'static [&'static str]| {
        move |by_name: &Bill, _: f64| mean_self_us(by_name, |n| names.contains(&n))
    };
    out.layer("poe.on_event.request_us", med(&group(&["REQUEST", "REQUEST-BCAST", "FORWARD"])));
    out.layer("poe.on_event.propose_us", med(&group(&["PROPOSE"])));
    out.layer("poe.on_event.support_us", med(&group(&["SUPPORT", "SUPPORT-MAC"])));
    out.layer("poe.on_event.certify_us", med(&group(&["CERTIFY"])));
    out.layer("poe.on_event.checkpoint_us", med(&group(&["CHECKPOINT"])));
    out.layer("poe.on_event.viewchange_us", med(&group(&["VC-REQUEST", "NV-PROPOSE"])));
    out.layer(
        "poe.on_event.timeout_us",
        med(&|b, _| mean_self_us(b, |n| n.starts_with("timeout."))),
    );
    out.layer("store.rollback_us", med(&group(&["store.rollback_to"])));
    out.layer("store.stabilize_us", med(&group(&["store.stabilize"])));
    let calls = |name: &str| bills[0].0.get(name).map_or(0.0, |(_, calls)| *calls as f64);
    out.layer("store.apply_calls", calls("store.apply"));
    out.layer("store.rollback_calls", calls("store.rollback_to"));

    // The bill: five named parts and the traced whole they must add up to.
    let poe = med(&|b, _| per_req_us(total_self_ns(b, is_replica)));
    let apply = med(&|b, _| per_req_us(total_self_ns(b, |n| n == "store.apply")));
    let store_other =
        med(&|b, _| per_req_us(total_self_ns(b, |n| is_store(n) && n != "store.apply")));
    let client = med(&|b, _| per_req_us(total_self_ns(b, is_client)));
    let engine = med(&|b, host_ns| per_req_us(host_ns as u64 - total_self_ns(b, |_| true)));
    let whole = med(&|_, host_ns| host_ns / done / 1e3);
    out.layer("poe.self_us_per_req", poe);
    out.layer("store.apply_us_per_req", apply);
    out.layer("store.other_us_per_req", store_other);
    out.layer("workload.client_us_per_req", client);
    out.layer("sim.engine_us_per_req", engine);
    out.layer("sim.traced_host_us_per_req", whole);
    out.layer("sim.trace.overhead_ratio", whole / plain_host_us_per_req);
    let parts = poe + apply + store_other + client + engine;
    out.check(((parts - whole) / whole).abs() <= 0.02, || {
        format!("per-layer self times sum to {parts:.2} us/request, the traced whole is {whole:.2}")
    });
    out.notes.push(format!(
        "traced bill, us/request: poe {poe:.2} + store.apply {apply:.2} + store.other \
         {store_other:.2} + client {client:.2} + sim.engine {engine:.2} = {parts:.2} of {whole:.2} \
         traced ({plain_host_us_per_req:.2} untraced)"
    ));

    // Codec: the traced message mix replayed through the functions the
    // engine calls (`write_msg` + one frame copy per send, zero-copy
    // shared decode per delivery). Part of `sim.engine_us_per_req`.
    let recorder = traced_first.recorder.as_ref().expect("traced scenarios record spans");
    let (mut encode_ns, mut decode_ns) = (0.0, 0.0);
    let mut scratch = Vec::new();
    for entry in recorder.mix.values() {
        let frames: Vec<WireBytes> = entry.samples.iter().map(codec::encode_frame).collect();
        let per_encode = time_us(|| {
            for msg in &entry.samples {
                scratch.clear();
                codec::write_msg(&mut scratch, msg);
                black_box(WireBytes::copy_from(&scratch));
            }
        }) / entry.samples.len() as f64;
        let per_decode = time_us(|| {
            for frame in &frames {
                black_box(codec::decode_msg_shared(frame).expect("own frame decodes"));
            }
        }) / frames.len() as f64;
        encode_ns += per_encode * 1e3 * entry.sent as f64;
        decode_ns += per_decode * 1e3 * entry.delivered as f64;
    }
    out.layer("kernel.encode_us_per_req", encode_ns / done / 1e3);
    out.layer("kernel.decode_us_per_req", decode_ns / done / 1e3);
    out.layer("sim.trace.spans", recorder.spans.len() as f64);

    // Ledger, crypto and generator: timed alone on this run's shapes.
    let backup = traced_first.sim.replica(1).as_any().downcast_ref::<PoeReplica>();
    match backup {
        Some(replica) => replay::ledger_costs(out, replica, cluster),
        None => out.violations.push("replica 1 is not a PoeReplica behind as_any".into()),
    }
    replay::crypto_costs(out, cluster, &YcsbConfig::small(), cluster.batch_size);
    replay::workload_costs(out, &YcsbConfig::small());

    match write_span_file(recorder, seed) {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.violations.push(format!("cannot write the span file: {e}")),
    }
}

/// Writes the first traced scenario's spans, once, as the run ends.
fn write_span_file(recorder: &Recorder, seed: u64) -> std::io::Result<String> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("trace_sim_viewchange.json");
    let mut text = String::with_capacity(recorder.spans.len() * 48 + 4096);
    let names: Vec<String> = recorder.names.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = write!(
        text,
        "{{\"workload\":\"sim_viewchange\",\"seed\":{seed},\"time_unit\":\"ns since the scenario's first step\",\
         \"null\":-1,\"names\":[{}],\n\"fields\":[\"name\",\"node\",\"parent\",\"start\",\"end\",\"seq\"],\n\"spans\":[\n",
        names.join(",")
    );
    for (i, s) in recorder.spans.iter().enumerate() {
        let parent = if s.parent == NONE { -1 } else { s.parent as i64 };
        let seq = if s.seq == NO_SEQ { -1 } else { s.seq as i64 };
        let sep = if i + 1 == recorder.spans.len() { "" } else { "," };
        let _ = writeln!(
            text,
            "[{},{},{parent},{},{},{seq}]{sep}",
            s.name, s.node, s.start_ns, s.end_ns
        );
    }
    text.push_str("]}\n");
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}
