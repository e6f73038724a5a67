//! `sparse_stream`: a long seeded stream of sparse targets in fixed-size
//! batches through one long-lived one-thread `BatchSynthesizer` whose
//! bounded cache is smaller than the stream's working set of classes.
//! A fresh solve costs tens of µs here and A* little, so the reuse paths
//! carry the time: template replay (about three quarters of it on a
//! two-core x86-64 host, at ~1.2 ms per replay), keying, planning and
//! assembly. The traced run prints the measured split.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qsp_core::{
    BatchStats, BatchSynthesizer, ObsOptions, Provenance, QspWorkflow, SynthesisReport,
    SynthesisRequest, WorkflowConfig,
};
use qsp_state::SparseState;

use crate::inputs::{exact_key, sparse_stream, ExactKey};
use crate::layers::{self, Layers};
use crate::util::{self, ms, Report};
use crate::{verify, Outcome};

/// Targets per pass.
const STREAM_LEN: usize = 12_000;
/// Requests per `synthesize_requests` call: pinned, so batch boundaries
/// (and with them dedup and every count) repeat exactly.
const BATCH: usize = 64;
/// Cached classes, fewer than a pass's distinct classes (the traced run
/// prints the count).
const CACHE_CAPACITY: usize = 2048;
/// Distinct targets repeats and variants draw from: half as many again as
/// the cache holds, so a reuse of the oldest third misses the cache.
const REUSE_WINDOW: usize = CACHE_CAPACITY * 3 / 2;
/// Targets the baseline ratio and the per-layer codec and cache probes use.
const PREFIX: usize = 2000;
/// Per-request latency limit (a request completes with its batch).
const SLO_MS: f64 = 100.0;
/// Seconds of `--seconds` per pass. The pass count follows from
/// `--seconds` alone, never from how fast the host runs. One pass takes
/// about 3 s on a two-core x86-64 host.
const SECONDS_PER_PASS: f64 = 3.3;
/// Set-up repetitions: one set-up takes about 0.4 s.
const SETUP_REPS: usize = 7;

/// One engine fed the stream batch by batch, with what it returned.
struct Arm {
    engine: BatchSynthesizer,
    wall: Duration,
    batch_ms: Vec<f64>,
    costs: Vec<Option<usize>>,
    reports: Vec<Option<SynthesisReport>>,
    stats: BatchStats,
}

impl Arm {
    fn new(threads: usize, obs: ObsOptions) -> Self {
        Arm {
            engine: BatchSynthesizer::with_options(
                WorkflowConfig::default(),
                layers::engine_options(CACHE_CAPACITY)
                    .with_threads(threads)
                    .with_obs(obs),
            ),
            wall: Duration::ZERO,
            batch_ms: Vec::with_capacity(STREAM_LEN / BATCH + 1),
            costs: Vec::with_capacity(STREAM_LEN),
            reports: Vec::with_capacity(STREAM_LEN),
            stats: BatchStats::default(),
        }
    }

    fn run_batch(&mut self, chunk: &[SynthesisRequest<SparseState>]) {
        let started = Instant::now();
        let outcome = self.engine.synthesize_requests(chunk);
        let elapsed = started.elapsed();
        self.wall += elapsed;
        self.batch_ms.push(ms(elapsed));
        layers::add_stats(&mut self.stats, &outcome.stats);
        for report in outcome.reports {
            let report = report.ok();
            self.costs.push(report.as_ref().map(|r| r.cnot_cost));
            self.reports.push(report);
        }
    }

    fn rate(&self) -> f64 {
        self.costs.len() as f64 / self.wall.as_secs_f64()
    }
}

fn run_pass(requests: &[SynthesisRequest<SparseState>], threads: usize) -> Arm {
    let mut arm = Arm::new(threads, ObsOptions::default());
    for chunk in requests.chunks(BATCH) {
        arm.run_batch(chunk);
    }
    arm
}

/// Requests that failed or whose circuit the simulator rejects.
fn count_failed(
    requests: &[SynthesisRequest<SparseState>],
    reports: &[Option<SynthesisReport>],
) -> u64 {
    requests
        .iter()
        .zip(reports)
        .filter(|(request, report)| {
            report
                .as_ref()
                .is_none_or(|r| !verify(&r.circuit, &request.target))
        })
        .count() as u64
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Set-up: generate the stream and warm code and allocator on a
    // throwaway engine over its first batches.
    let (setup_s, requests) = util::timed_setup(SETUP_REPS, || {
        let requests: Vec<SynthesisRequest<SparseState>> =
            sparse_stream(seed, STREAM_LEN, REUSE_WINDOW)
                .into_iter()
                .map(SynthesisRequest::new)
                .collect();
        let warm = BatchSynthesizer::with_options(
            WorkflowConfig::default(),
            layers::engine_options(CACHE_CAPACITY),
        );
        for chunk in requests[..PREFIX].chunks(BATCH) {
            std::hint::black_box(warm.synthesize_requests(chunk));
        }
        requests
    });
    let states: Vec<&SparseState> = requests.iter().map(|r| &r.target).collect();
    if trace {
        return run_traced(&requests, &states);
    }

    let pass_count = (seconds / SECONDS_PER_PASS).round().max(1.0) as usize;
    let mut passes: Vec<Arm> = Vec::with_capacity(pass_count);
    for _ in 0..pass_count {
        let mut pass = run_pass(&requests, 1);
        if !passes.is_empty() {
            // Only the first pass's circuits are verified; later passes
            // must repeat its costs exactly.
            pass.reports = Vec::new();
        }
        passes.push(pass);
    }
    let repeatable = passes.iter().all(|p| p.costs == passes[0].costs);
    if !repeatable {
        eprintln!("sparse_stream: passes of one seed disagree on cnot costs");
    }
    // A request completes with its batch, so the batch is the latency
    // sample: every request of it has the batch's wall time. Each pass is
    // one tail window.
    let windows: Vec<Vec<f64>> = passes.iter().map(|p| p.batch_ms.clone()).collect();
    let rates: Vec<f64> = passes.iter().map(Arm::rate).collect();
    eprintln!(
        "sparse_stream: {} passes of {} targets, latency sampled per batch of {BATCH}, pass rates {rates:.0?}",
        passes.len(),
        requests.len()
    );
    // Correctness: simulate every first-pass circuit; compare every cost
    // with a direct workflow solve of the same target (memoized by exact
    // target, since exact repeats solve identically).
    let failed = count_failed(&requests, &passes[0].reports);
    let workflow = QspWorkflow::new();
    let mut direct: HashMap<ExactKey, Option<usize>> = HashMap::new();
    let (mut matches, mut cnot_total) = (0usize, 0usize);
    for (request, report) in requests.iter().zip(&passes[0].reports) {
        let Some(report) = report else {
            continue;
        };
        cnot_total += report.cnot_cost;
        let reference = *direct.entry(exact_key(&request.target)).or_insert_with(|| {
            workflow
                .synthesize_request(request)
                .map(|r| r.cnot_cost)
                .ok()
        });
        if reference == Some(report.cnot_cost) {
            matches += 1;
        }
    }
    let ratios: Vec<f64> = states[..PREFIX]
        .iter()
        .zip(&passes[0].reports)
        .filter_map(|(state, report)| {
            let baseline = layers::best_baseline(state);
            let ours = report.as_ref()?.cnot_cost;
            (baseline > 0).then(|| ours as f64 / baseline as f64)
        })
        .collect();
    let attempted = requests.len() as u64;
    let slo_met = passes
        .iter()
        .flat_map(|p| p.batch_ms.iter().zip(requests.chunks(BATCH)))
        .filter(|(&l, _)| l <= SLO_MS)
        .map(|(_, chunk)| chunk.len())
        .sum::<usize>() as f64
        - failed as f64 * passes.len() as f64;

    let mut report = Report::default();
    report.put("setup_s", setup_s, "s");
    report.put("targets_per_s", util::median(&rates), "1/s");
    util::put_latency(&mut report, &windows, 100.0);
    report.put("cnot_total", cnot_total as f64, "count");
    report.put("cnot_vs_baseline_geomean", util::geomean(&ratios), "ratio");
    report.put(
        "cost_match_share",
        matches as f64 / attempted as f64,
        "share",
    );
    report.put("ok_share", 1.0 - failed as f64 / attempted as f64, "share");
    report.put(
        "slo_met_share",
        slo_met.max(0.0) / (passes.len() * requests.len()) as f64,
        "share",
    );
    report.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    Outcome {
        report,
        attempted,
        failed,
        correct: failed == 0 && repeatable,
    }
}

fn run_traced(requests: &[SynthesisRequest<SparseState>], states: &[&SparseState]) -> Outcome {
    // A plain and a traced engine take the stream in lockstep; the arm that
    // runs a batch first alternates per batch (plain-traced, traced-plain),
    // so neither arm always runs on the warmer cache lines.
    let mut plain = Arm::new(1, ObsOptions::default());
    let mut traced = Arm::new(1, layers::traced_obs());
    for (i, chunk) in requests.chunks(BATCH).enumerate() {
        if i % 2 == 0 {
            plain.run_batch(chunk);
            traced.run_batch(chunk);
        } else {
            traced.run_batch(chunk);
            plain.run_batch(chunk);
        }
    }
    let two = run_pass(requests, 2);
    let failed = count_failed(requests, &traced.reports);
    let repeatable = traced.costs == plain.costs;
    if !repeatable {
        eprintln!("sparse_stream: the traced pass disagrees with the plain pass on cnot costs");
    }
    // With two threads the class representative that is solved first, and
    // with it a variant's cost, can depend on scheduling: reported, not
    // failed.
    let drift = two
        .costs
        .iter()
        .zip(&plain.costs)
        .filter(|(a, b)| a != b)
        .count();
    eprintln!("sparse_stream: two-thread pass differs from the one-thread pass on {drift} costs");
    print_time_split(&traced);
    let snapshot = traced.engine.obs().snapshot();

    let mut layers = Layers::new();
    let expanded = layers::set_flight_counts(&mut layers, &snapshot);
    let ns_per_node = layers::astar_direct(states, 300);
    layers::set_astar_cost(&mut layers, expanded, ns_per_node, traced.wall);
    layers::set_branch_counts(&mut layers, states);
    let classes = layers::set_keying(&mut layers, states, CACHE_CAPACITY);
    eprintln!(
        "sparse_stream: {} targets in {classes} distinct classes (cache holds {CACHE_CAPACITY})",
        states.len()
    );
    let cache = traced.engine.cache_stats();
    layers.set(
        "cache.hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    layers.set("cache.evictions", cache.evictions as f64);
    layers.set(
        "cache.probe_ns_p50",
        layers::cache_probe(&traced.engine, &states[..PREFIX]),
    );
    layers::set_batch(&mut layers, &traced.stats);
    layers.set("batch.two_thread_speedup", two.rate() / plain.rate());
    let circuits: Vec<_> = traced.reports[..PREFIX]
        .iter()
        .flatten()
        .map(|r| &r.circuit)
        .collect();
    let (encode_us, decode_us) = layers::codec(&states[..PREFIX], &circuits);
    layers.set("wire.encode_us_per_frame", encode_us);
    layers.set("wire.decode_us_per_frame", decode_us);
    layers.set("wire.threads_peak", util::threads_now());
    layers.set(
        "obs.trace_overhead_share",
        1.0 - traced.rate() / plain.rate(),
    );
    let stages =
        traced.stats.keying + traced.stats.planning + traced.stats.solving + traced.stats.assembly;
    let layer_sum_share = stages.as_secs_f64() / traced.wall.as_secs_f64();
    layers.set("trace.layer_sum_share", layer_sum_share);
    let within_wall = layer_sum_share <= 1.0 + layers::LAYER_SUM_TOLERANCE;
    if !within_wall {
        eprintln!(
            "sparse_stream: batch stages sum to {layer_sum_share:.4} of the measured wall time"
        );
    }
    eprintln!(
        "sparse_stream traced: plain {:.0}/s, traced {:.0}/s, two threads {:.0}/s ({} cores available)",
        plain.rate(),
        traced.rate(),
        two.rate(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    Outcome {
        report: layers.into_report(),
        attempted: requests.len() as u64,
        failed,
        correct: failed == 0 && repeatable && within_wall,
    }
}

/// Prints where the traced arm's time went: the batch stages, and the
/// solve time of fresh solves and of template replays from the reports'
/// own per-request timings.
fn print_time_split(arm: &Arm) {
    let (mut fresh, mut fresh_ms, mut replays, mut replay_ms) = (0usize, 0.0, 0usize, 0.0);
    for report in arm.reports.iter().flatten() {
        match report.provenance {
            Provenance::Solved => {
                fresh += 1;
                fresh_ms += ms(report.timings.solving);
            }
            Provenance::TemplateInstantiated { .. } => {
                replays += 1;
                replay_ms += ms(report.timings.solving);
            }
            _ => {}
        }
    }
    let stats = &arm.stats;
    eprintln!(
        "sparse_stream time split of {:.0} ms: keying {:.0}, planning {:.0}, solving {:.0} (fresh solves {fresh}: {fresh_ms:.0}; template replays {replays}: {replay_ms:.0}), assembly {:.0}",
        ms(arm.wall),
        ms(stats.keying),
        ms(stats.planning),
        ms(stats.solving),
        ms(stats.assembly)
    );
}
