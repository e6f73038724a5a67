//! `wire_mixed`: an open loop at one fixed rate, well below the knee, over
//! one loopback connection into `SynthesisService` (one worker, one-thread
//! engine) behind `WireServer`. Mostly exact repeats of a hot set that is
//! warmed in set-up, plus fresh sparse targets; no deadlines, no tenant
//! rate limits. Cache hits make solving negligible, so the wire and the
//! queue and micro-batch wait set the latency. Measured on a two-core
//! x86-64 host: the median latency (5.2 ms) tracks the 5 ms send interval
//! while the server's own time per request is ~2.3 ms, so the wire holds a
//! response until the next request arrives.
//!
//! The client is built on the public `codec`/`proto` functions: one sender
//! thread writes pre-encoded frames on the schedule, one receiver thread
//! reads responses. Each request is timed from when it was due to be sent,
//! so a stall also counts against the requests queued behind it.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsp_core::{BatchStats, ObsOptions, QspWorkflow, SynthesisRequest};
use qsp_serve::{SchedulerConfig, ServiceConfig, Shutdown, SynthesisService};
use qsp_state::SparseState;
use qsp_wire::codec::{encode_frame, read_frame, write_frame, DEFAULT_MAX_FRAME};
use qsp_wire::{ClientFrame, ServerFrame, WireConfig, WireServer, PROTOCOL_VERSION};

use crate::inputs::{exact_key, wire_mix, ExactKey};
use crate::layers::{self, Layers};
use crate::util::{self, ms, Report};
use crate::{verify, Outcome};

/// Hot-set size (warmed in set-up).
const HOT: usize = 256;
/// Share of requests that are fresh targets, in percent.
const FRESH_PERCENT: u32 = 10;
/// The offered rate in requests per second, far below the ~2.5k req/s
/// knee of this service on a two-core host. Latency here tracks the send
/// interval (p50 5.2 ms at 200 req/s, 2.6 ms at 400 req/s); at 400 req/s
/// the median fell on the slope between that mode and the queueing tail
/// and moved 15 % between runs.
const RATE: f64 = 200.0;
/// The latency limit a request must meet, timed from when it was due.
const SLO_MS: f64 = 20.0;
/// A generator that sends more than this after a request's due time is
/// late.
const LATE_MS: f64 = 1.0;
/// Requests per latency-tail window (5 s at the offered rate).
const TAIL_WINDOW: usize = 1000;
/// The highest percentile the tail takes: the median. Above it the
/// latency measures the host's CPU steal, not the program. On a shared
/// two-core VM the sender, sleeping 5 ms between requests, woke more than
/// 1 ms late in 0.3–18 % of its sends depending on the minute (a separate
/// idle process sleeping the same way: 5–7 %), and each late send holds
/// the previous response (see `RATE`). Between runs of one binary p99
/// moved 5.7–25 ms, p90 5.3–8.3 ms and p75 5.2–8.4 ms, while p50 stayed
/// within 5.18–5.30 ms. The p99 is printed on stderr; `slo_met_share`
/// counts the requests beyond 20 ms.
const TAIL_CAP: f64 = 50.0;

/// A running service, server and connected client, ready to send.
struct Rig {
    service: Arc<SynthesisService>,
    server: WireServer,
    stream: Option<TcpStream>,
    requests: Vec<SparseState>,
    frames: Vec<Vec<u8>>,
    warm: BatchStats,
    warm_circuits: Vec<qsp_circuit::Circuit>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        drop(self.stream.take());
        self.server.shutdown();
        self.service.shutdown(Shutdown::Drain);
    }
}

fn set_up(seed: u64, total: usize, obs: ObsOptions) -> Rig {
    let (hot, requests) = wire_mix(seed, HOT, total, FRESH_PERCENT);
    let frames = requests
        .iter()
        .enumerate()
        .map(|(id, target)| {
            let frame = ClientFrame::Request {
                id: id as u64,
                target: target.clone(),
                deadline_ms: None,
                priority: None,
            };
            encode_frame(&frame.to_payload(), DEFAULT_MAX_FRAME).expect("request frame fits")
        })
        .collect();
    let service = Arc::new(SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(total.max(1024))
            .with_scheduler(SchedulerConfig::default().with_workers(1))
            .with_batch(layers::engine_options(0).with_obs(obs)),
    ));
    // Warm the hot set with one in-process batch call.
    let hot_requests: Vec<SynthesisRequest<SparseState>> =
        hot.into_iter().map(SynthesisRequest::new).collect();
    let outcome = service.engine().synthesize_requests(&hot_requests);
    let warm_circuits = outcome
        .reports
        .into_iter()
        .map(|r| r.expect("hot-set target synthesizes").circuit)
        .collect();
    let server = WireServer::bind("127.0.0.1:0", Arc::clone(&service), WireConfig::new())
        .expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect loopback");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let hello = ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        tenant: None,
    };
    write_frame(&mut stream, &hello.to_payload(), DEFAULT_MAX_FRAME).expect("send hello");
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .expect("read hello_ack")
        .expect("server answers the hello");
    assert!(
        matches!(ServerFrame::parse(&ack), Ok(ServerFrame::HelloAck { .. })),
        "handshake failed: {ack}"
    );
    Rig {
        service,
        server,
        stream: Some(stream),
        requests,
        frames,
        warm: outcome.stats,
        warm_circuits,
    }
}

/// What the client saw of one request.
#[derive(Debug, Clone, Default)]
struct Seen {
    sent: Option<Instant>,
    received: Option<Instant>,
    cost: Option<usize>,
    server_ms: f64,
}

struct Phase {
    start: Instant,
    due: Vec<Instant>,
    seen: Vec<Seen>,
    threads_peak: f64,
}

/// Sends every pre-encoded frame on the fixed-rate schedule from one
/// thread while another reads the responses; both are joined before this
/// returns.
fn drive(rig: &mut Rig) -> Phase {
    let n = rig.frames.len();
    let stream = rig.stream.as_ref().expect("rig is connected");
    let mut writer = stream.try_clone().expect("clone client socket");
    let mut reader = stream.try_clone().expect("clone client socket");
    // A lost response must not hang the run.
    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..n)
        .map(|i| start + Duration::from_secs_f64(i as f64 / RATE))
        .collect();
    let frames = &rig.frames;
    let (sent, threads_peak, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut seen: Vec<(Instant, ServerFrame)> = Vec::with_capacity(n);
            while seen.len() < n {
                match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                    Ok(Some(payload)) => {
                        let at = Instant::now();
                        match ServerFrame::parse(&payload) {
                            Ok(frame) => seen.push((at, frame)),
                            Err(e) => {
                                eprintln!("wire_mixed: unparsable response: {e}");
                                break;
                            }
                        }
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            seen
        });
        let mut sent = Vec::with_capacity(n);
        let mut threads_peak: f64 = 0.0;
        for (i, frame) in frames.iter().enumerate() {
            let now = Instant::now();
            if due[i] > now {
                std::thread::sleep(due[i] - now);
            }
            sent.push(Instant::now());
            if writer.write_all(frame).is_err() {
                break;
            }
            if i % 64 == 0 {
                threads_peak = threads_peak.max(util::threads_now());
            }
        }
        (
            sent,
            threads_peak,
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let mut seen = vec![Seen::default(); n];
    for (i, at) in sent.into_iter().enumerate() {
        seen[i].sent = Some(at);
    }
    for (at, frame) in received {
        let Some(id) = frame
            .request_id()
            .map(|id| id as usize)
            .filter(|&id| id < n)
        else {
            continue;
        };
        seen[id].received = Some(at);
        if let ServerFrame::Report {
            cnot_cost,
            total_ms,
            ..
        } = frame
        {
            seen[id].cost = Some(cnot_cost as usize);
            seen[id].server_ms = total_ms;
        }
    }
    Phase {
        start,
        due,
        seen,
        threads_peak,
    }
}

/// Latency (from due time) of every answered request, in ms.
fn latencies(phase: &Phase) -> Vec<f64> {
    phase
        .seen
        .iter()
        .zip(&phase.due)
        .filter_map(|(s, &due)| s.received.map(|r| ms(r - due)))
        .collect()
}

fn completed_rate(phase: &Phase) -> f64 {
    let done = phase.seen.iter().filter(|s| s.cost.is_some()).count();
    let last = phase.seen.iter().filter_map(|s| s.received).max();
    match last {
        Some(last) if done > 0 => done as f64 / (last - phase.start).as_secs_f64(),
        _ => 0.0,
    }
}

/// Checks every report against an in-process reference (the same engine,
/// same target: identical cost, and a circuit the simulator accepts) and a
/// direct workflow solve. Returns `(failed, matching direct cost)`.
fn check(rig: &Rig, phase: &Phase) -> (u64, usize) {
    let workflow = QspWorkflow::new();
    let mut reference: HashMap<ExactKey, (Option<usize>, Option<usize>)> = HashMap::new();
    let (mut failed, mut matches) = (0u64, 0usize);
    for (target, seen) in rig.requests.iter().zip(&phase.seen) {
        let Some(cost) = seen.cost else {
            failed += 1;
            continue;
        };
        let (in_process, direct) = *reference.entry(exact_key(target)).or_insert_with(|| {
            let request = SynthesisRequest::new(target.clone());
            let in_process = rig
                .service
                .engine()
                .synthesize_request(&request)
                .ok()
                .filter(|r| verify(&r.circuit, target))
                .map(|r| r.cnot_cost);
            let direct = workflow
                .synthesize_request(&request)
                .ok()
                .map(|r| r.cnot_cost);
            (in_process, direct)
        });
        if in_process != Some(cost) {
            failed += 1;
        }
        if direct == Some(cost) {
            matches += 1;
        }
    }
    (failed, matches)
}

fn lags_ms(phase: &Phase) -> Vec<f64> {
    phase
        .seen
        .iter()
        .zip(&phase.due)
        .filter_map(|(s, &due)| s.sent.map(|at| ms(at.saturating_duration_since(due))))
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        return run_traced(seed, seconds);
    }
    let total = (RATE * seconds).round().max(1.0) as usize;
    let (setup_s, mut rig) = util::timed_setup(util::SETUP_REPS, || {
        set_up(seed, total, ObsOptions::default())
    });
    let phase = drive(&mut rig);
    let lat = latencies(&phase);
    let (failed, matches) = check(&rig, &phase);
    let attempted = total as u64;
    let lags = lags_ms(&phase);
    eprintln!(
        "wire_mixed: {total} requests at {RATE} req/s, {} answered; generator lag p50 {:.3} ms, p99 {:.3} ms, late (> {LATE_MS} ms) {:.4}",
        lat.len(),
        util::median(&lags),
        util::percentile(&lags, 99.0),
        lags.iter().filter(|&&l| l > LATE_MS).count() as f64 / lags.len().max(1) as f64
    );
    eprintln!(
        "wire_mixed: latency deciles (ms) {:.2?}",
        (1..10)
            .map(|d| util::percentile(&lat, d as f64 * 10.0))
            .collect::<Vec<_>>()
    );
    let ratios: Vec<f64> = rig
        .requests
        .iter()
        .zip(&phase.seen)
        .take(1000)
        .filter_map(|(target, seen)| {
            let baseline = layers::best_baseline(target);
            (baseline > 0).then(|| seen.cost.map(|c| c as f64 / baseline as f64))?
        })
        .collect();
    let cnot_total: usize = phase.seen.iter().filter_map(|s| s.cost).sum();
    let slo_met = phase
        .seen
        .iter()
        .zip(&phase.due)
        .filter(|(s, &due)| s.cost.is_some() && s.received.is_some_and(|r| ms(r - due) <= SLO_MS))
        .count();

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    report.put("targets_per_s", completed_rate(&phase), "1/s");
    // Consecutive windows of about `TAIL_WINDOW` requests each.
    let windows = lat.len() / TAIL_WINDOW;
    let windows: Vec<Vec<f64>> = lat
        .chunks(lat.len().div_ceil(windows.max(1)).max(1))
        .map(<[f64]>::to_vec)
        .collect();
    util::put_latency(&mut report, &windows, TAIL_CAP);
    report.put("cnot_total", cnot_total as f64, "count");
    report.put("cnot_vs_baseline_geomean", util::geomean(&ratios), "ratio");
    report.put(
        "cost_match_share",
        matches as f64 / attempted as f64,
        "share",
    );
    report.put("ok_share", 1.0 - failed as f64 / attempted as f64, "share");
    report.put("slo_met_share", slo_met as f64 / attempted as f64, "share");
    report.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    Outcome {
        report,
        attempted,
        failed,
        correct: failed == 0,
    }
}

/// The server's own submission-to-completion time of every report, in ms.
fn server_ms(phase: &Phase) -> Vec<f64> {
    phase
        .seen
        .iter()
        .filter(|s| s.cost.is_some())
        .map(|s| s.server_ms)
        .collect()
}

/// The traced run: four phases of a quarter of the time each, untraced,
/// traced, traced, untraced (each on its own rig), so that drift in the
/// host's speed falls on both arms alike. Tracing is ring tracing, the
/// flight recorder and cache timing; the layer metrics come from the first
/// traced phase.
fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let total = (RATE * seconds / 4.0).round().max(1.0) as usize;
    let mut layers = Layers::new();
    let (mut failed, mut within_wall) = (0u64, true);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for (i, traced) in [false, true, true, false].into_iter().enumerate() {
        let obs = if traced {
            layers::traced_obs()
        } else {
            ObsOptions::default()
        };
        let mut rig = set_up(seed, total, obs);
        let phase = drive(&mut rig);
        failed += check(&rig, &phase).0;
        if traced {
            traced_ms.extend(server_ms(&phase));
            within_wall &= layer_sum_within_wall(&rig, &phase, &mut layers);
            if i == 1 {
                set_traced_layers(&rig, &phase, &mut layers);
            }
        } else {
            plain_ms.extend(server_ms(&phase));
        }
    }
    // The server's own time per request, not the completion rate: the
    // open loop completes requests at the offered rate either way.
    layers.set(
        "obs.trace_overhead_share",
        1.0 - util::median(&plain_ms) / util::median(&traced_ms),
    );
    Outcome {
        report: layers.into_report(),
        attempted: 4 * total as u64,
        failed,
        correct: failed == 0 && within_wall,
    }
}

/// Checks that the layers on a request's blocking path sum to no more than
/// its latency, over every answered request of a traced phase: the
/// generator's lag, the server's trace-ring spans (queue wait, validate,
/// key, probe, solve, reconstruct) and the wire's share (round trip minus
/// the server's own time) against the latency from the due time. Sets
/// `trace.layer_sum_share` to the largest share seen.
fn layer_sum_within_wall(rig: &Rig, phase: &Phase, layers: &mut Layers) -> bool {
    let snapshot = rig.service.obs_snapshot();
    // Serve-path traces only: the warm-up batch also records traces, but
    // without a queue wait.
    let mut per_trace: HashMap<u64, (bool, f64)> = HashMap::new();
    for recorded in &snapshot.spans {
        let entry = per_trace.entry(recorded.trace.as_u64()).or_default();
        entry.0 |= recorded.span.kind == qsp_obs::SpanKind::QueueWait;
        entry.1 += ms(recorded.span.duration);
    }
    let spans: f64 = per_trace.values().filter(|t| t.0).map(|t| t.1).sum();
    let (mut end_to_end, mut outside_server) = (0.0, 0.0);
    for (s, &due) in phase.seen.iter().zip(&phase.due) {
        if let (Some(sent), Some(received), Some(_)) = (s.sent, s.received, s.cost) {
            end_to_end += ms(received - due);
            outside_server +=
                ms(sent.saturating_duration_since(due)) + ms(received - sent) - s.server_ms;
        }
    }
    let share = (spans + outside_server) / end_to_end;
    let previous = layers.get("trace.layer_sum_share");
    layers.set("trace.layer_sum_share", previous.max(share));
    if share > 1.0 + layers::LAYER_SUM_TOLERANCE {
        eprintln!("wire_mixed: blocking-path layers sum to {share:.4} of the measured latency");
        return false;
    }
    true
}

/// The per-layer metrics of one traced phase.
fn set_traced_layers(rig: &Rig, phase: &Phase, layers: &mut Layers) {
    let snapshot = rig.service.obs_snapshot();
    let stats = rig.service.stats();
    let requests: Vec<&SparseState> = rig.requests.iter().collect();
    let expanded = layers::set_flight_counts(layers, &snapshot);
    let ns_per_node = layers::astar_direct(&requests, 300);
    let wall = phase
        .seen
        .iter()
        .filter_map(|s| s.received)
        .max()
        .map_or(Duration::ZERO, |last| last - phase.start);
    layers::set_astar_cost(layers, expanded, ns_per_node, wall);
    layers::set_branch_counts(layers, &requests);
    layers::set_keying(layers, &requests, 0);
    let cache = rig.service.engine().cache_stats();
    layers.set(
        "cache.hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    layers.set("cache.evictions", cache.evictions as f64);
    layers.set(
        "cache.probe_ns_p50",
        layers::cache_probe(rig.service.engine(), &requests),
    );
    layers::set_batch(layers, &rig.warm);

    // Serve-layer spans from the trace ring, grouped per request.
    let mut per_trace: HashMap<u64, (f64, f64)> = HashMap::new();
    for recorded in &snapshot.spans {
        let entry = per_trace.entry(recorded.trace.as_u64()).or_default();
        let span_ms = ms(recorded.span.duration);
        match recorded.span.kind {
            qsp_obs::SpanKind::QueueWait => entry.0 += span_ms,
            qsp_obs::SpanKind::Solve => entry.1 += span_ms,
            _ => {}
        }
    }
    let queue_waits: Vec<f64> = per_trace.values().map(|v| v.0).collect();
    let solves: Vec<f64> = per_trace.values().map(|v| v.1).collect();
    if !per_trace.is_empty() {
        layers.set("serve.queue_wait_ms_p50", util::median(&queue_waits));
        layers.set(
            "serve.queue_wait_ms_p99",
            util::percentile(&queue_waits, 99.0),
        );
        layers.set("serve.solve_ms_p99", util::percentile(&solves, 99.0));
    }
    let completed = stats.completed.max(1) as f64;
    layers.set("serve.cache_hit_share", stats.cache_hits as f64 / completed);
    layers.set("serve.dedup_attach_share", stats.deduped as f64 / completed);

    let prefix = requests.len().min(2000);
    let circuits: Vec<_> = rig.warm_circuits.iter().collect();
    let (encode_us, decode_us) = layers::codec(&requests[..prefix], &circuits);
    layers.set("wire.encode_us_per_frame", encode_us);
    layers.set("wire.decode_us_per_frame", decode_us);
    // Client round trip minus the server's own submission-to-completion
    // time.
    let overhead: Vec<f64> = phase
        .seen
        .iter()
        .filter_map(|s| match (s.sent, s.received, s.cost) {
            (Some(sent), Some(received), Some(_)) => Some(ms(received - sent) - s.server_ms),
            _ => None,
        })
        .collect();
    if !overhead.is_empty() {
        layers.set("wire.overhead_ms_p50", util::median(&overhead));
    }
    layers.set("wire.threads_peak", phase.threads_peak);
    let lags = lags_ms(phase);
    layers.set("loadgen.lag_p99_ms", util::percentile(&lags, 99.0));
    layers.set(
        "loadgen.late_share",
        lags.iter().filter(|&&l| l > LATE_MS).count() as f64 / lags.len().max(1) as f64,
    );
}
