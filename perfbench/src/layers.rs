//! Per-layer probes. Each one times calls into a layer's public functions
//! from the benchmark's own code, or reads counters the program already
//! exposes; nothing here adds tracing inside the program.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use qsp_baselines::{CardinalityReduction, HybridPreparator, QubitReduction, StatePreparator};
use qsp_circuit::Circuit;
use qsp_core::search::{shortest_reduction, SearchState};
use qsp_core::{
    BatchOptions, BatchStats, BatchSynthesizer, KeyCoverage, ObsSnapshot, SearchConfig,
    WorkflowConfig,
};
use qsp_obs::CancellationCause;
use qsp_state::SparseState;
use qsp_wire::codec::{encode_frame, DEFAULT_MAX_FRAME};
use qsp_wire::{ClientFrame, ServerFrame};

use crate::util::{median, percentile};

/// Every per-layer metric, with its unit, in print order. A traced run
/// prints all of them on every workload; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("astar.expanded", "count"),
    ("astar.pushed", "count"),
    ("astar.ns_per_expanded", "ns"),
    ("astar.budget_exhausted", "count"),
    ("astar.share_of_wall", "share"),
    ("workflow.branch_exact", "count"),
    ("workflow.branch_sparse", "count"),
    ("workflow.branch_dense", "count"),
    ("baselines.guard_ms", "ms"),
    ("keying.ns_p50", "ns"),
    ("keying.ns_p99", "ns"),
    ("keying.sig_tier_share", "share"),
    ("cache.probe_ns_p50", "ns"),
    ("cache.hit_share", "share"),
    ("cache.evictions", "count"),
    ("batch.keying_ms", "ms"),
    ("batch.planning_ms", "ms"),
    ("batch.solving_ms", "ms"),
    ("batch.assembly_ms", "ms"),
    ("batch.dedup_share", "share"),
    ("batch.template_hit_share", "share"),
    ("batch.two_thread_speedup", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.solve_ms_p99", "ms"),
    ("serve.cache_hit_share", "share"),
    ("serve.dedup_attach_share", "share"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.decode_us_per_frame", "us"),
    ("wire.overhead_ms_p50", "ms"),
    ("wire.threads_peak", "count"),
    ("obs.trace_overhead_share", "share"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.late_share", "share"),
    ("trace.layer_sum_share", "share"),
];

/// How far the blocking-path layer times may sum above the measured wall
/// time before a traced run fails (clock reads at the span edges).
pub const LAYER_SUM_TOLERANCE: f64 = 0.01;

/// The per-layer values of one traced run; unset metrics read 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::slot(name)]
    }

    pub fn into_report(self) -> crate::util::Report {
        let mut report = crate::util::Report::default();
        for ((name, unit), value) in PER_LAYER.iter().zip(self.values) {
            report.put(name, value, unit);
        }
        report
    }
}

/// An engine with one thread and every thread count and shard count pinned,
/// so counts and eviction order repeat exactly.
pub fn engine_options(cache_capacity: usize) -> BatchOptions {
    BatchOptions::default()
        .with_threads(1)
        .with_cache(qsp_core::CacheConfig::bounded(cache_capacity).with_shards(4))
}

/// The observability options of a traced run: ring tracing, the solver
/// flight recorder and cache timing, sized to hold a whole run.
pub fn traced_obs() -> qsp_core::ObsOptions {
    qsp_core::ObsOptions::default()
        .with_tracing(true)
        .with_ring_capacity(1 << 17)
        .with_flight(true)
        .with_flight_capacity(1 << 16)
        .with_timing_detail(true)
}

fn active_qubits(state: &SparseState) -> usize {
    (0..state.num_qubits())
        .filter(|&q| state.iter().any(|(index, _)| index.bit(q)))
        .count()
}

/// Which workflow branch a target takes, from the public solver thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    Exact,
    Sparse,
    Dense,
}

pub fn branch_of(state: &SparseState) -> Branch {
    let search = WorkflowConfig::default().search;
    if state.cardinality() <= search.max_cardinality && active_qubits(state) <= search.max_qubits {
        Branch::Exact
    } else if state.is_sparse() {
        Branch::Sparse
    } else {
        Branch::Dense
    }
}

pub fn set_branch_counts(layers: &mut Layers, targets: &[&SparseState]) {
    let count = |b: Branch| targets.iter().filter(|t| branch_of(t) == b).count() as f64;
    layers.set("workflow.branch_exact", count(Branch::Exact));
    layers.set("workflow.branch_sparse", count(Branch::Sparse));
    layers.set("workflow.branch_dense", count(Branch::Dense));
}

/// A* node cost from direct `shortest_reduction` calls on the
/// exact-branch targets (residual solves inside the workflow show up in the
/// flight log instead). Returns ns per expanded node, 0 when the workload
/// has no exact-branch target.
pub fn astar_direct(targets: &[&SparseState], limit: usize) -> f64 {
    let config = SearchConfig::default();
    let (mut nanos, mut expanded) = (0u128, 0u64);
    for target in targets
        .iter()
        .filter(|t| branch_of(t) == Branch::Exact)
        .take(limit)
    {
        let state = SearchState::from_state(*target);
        let start = Instant::now();
        let outcome = shortest_reduction(&state, &config);
        nanos += start.elapsed().as_nanos();
        if let Ok(outcome) = outcome {
            expanded += outcome.expanded as u64;
        }
    }
    if expanded == 0 {
        0.0
    } else {
        nanos as f64 / expanded as f64
    }
}

/// Sets the A* node cost and an estimate of A*'s share of `wall`: the
/// flight log's expanded nodes at the node cost of direct calls (a flight
/// record's duration spans the whole fresh solve, not the search alone).
pub fn set_astar_cost(layers: &mut Layers, expanded: u64, ns_per_node: f64, wall: Duration) {
    layers.set("astar.ns_per_expanded", ns_per_node);
    layers.set(
        "astar.share_of_wall",
        expanded as f64 * ns_per_node / (wall.as_nanos() as f64).max(1.0),
    );
}

/// Folds the flight log into the A* counters and returns the number of
/// nodes expanded.
pub fn set_flight_counts(layers: &mut Layers, snapshot: &ObsSnapshot) -> u64 {
    let expanded: u64 = snapshot.flights.iter().map(|f| f.nodes_expanded).sum();
    let pushed: u64 = snapshot.flights.iter().map(|f| f.nodes_pushed).sum();
    let exhausted = snapshot
        .flights
        .iter()
        .filter(|f| f.cancellation == Some(CancellationCause::BudgetExhausted))
        .count();
    layers.set("astar.expanded", expanded as f64);
    layers.set("astar.pushed", pushed as f64);
    layers.set("astar.budget_exhausted", exhausted as f64);
    expanded
}

/// Timed `canonical_class` calls, in order, on a fresh engine (so the
/// tiered interner sees the stream as the run's engine did). Sets the
/// keying metrics (p50 and p99 ns, share keyed on the signature tier) and
/// returns the number of distinct classes among `targets`.
pub fn set_keying(layers: &mut Layers, targets: &[&SparseState], cache_capacity: usize) -> usize {
    let engine =
        BatchSynthesizer::with_options(WorkflowConfig::default(), engine_options(cache_capacity));
    let mut nanos = Vec::with_capacity(targets.len());
    let mut signature_only = 0usize;
    let mut classes = HashSet::new();
    for target in targets {
        let start = Instant::now();
        let keyed = engine.canonical_class(*target).expect("targets key");
        nanos.push(start.elapsed().as_nanos() as f64);
        if keyed.coverage == KeyCoverage::SignatureOnly {
            signature_only += 1;
        }
        classes.insert(keyed.key);
    }
    layers.set("keying.ns_p50", median(&nanos));
    layers.set("keying.ns_p99", percentile(&nanos, 99.0));
    layers.set(
        "keying.sig_tier_share",
        signature_only as f64 / targets.len() as f64,
    );
    classes.len()
}

/// Timed `ShardedCache::lookup` of every target's key against a warm
/// engine's cache; returns the median probe in ns.
pub fn cache_probe(engine: &BatchSynthesizer, targets: &[&SparseState]) -> f64 {
    let keys: Vec<_> = targets
        .iter()
        .map(|t| engine.canonical_class(*t).expect("targets key").key)
        .collect();
    let nanos: Vec<f64> = keys
        .iter()
        .map(|key| {
            let start = Instant::now();
            std::hint::black_box(engine.cache().lookup(key));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&nanos)
}

/// Frame codec cost on the workload's own frames: `to_payload` +
/// `encode_frame` of a request frame per target, and `ServerFrame::parse`
/// of a report frame per circuit. Returns `(encode µs, decode µs)` per
/// frame.
pub fn codec(targets: &[&SparseState], circuits: &[&Circuit]) -> (f64, f64) {
    let start = Instant::now();
    for (i, target) in targets.iter().enumerate() {
        let frame = ClientFrame::Request {
            id: i as u64,
            target: (*target).clone(),
            deadline_ms: None,
            priority: None,
        };
        std::hint::black_box(
            encode_frame(&frame.to_payload(), DEFAULT_MAX_FRAME).expect("frame fits"),
        );
    }
    let encode_us = start.elapsed().as_secs_f64() * 1e6 / targets.len().max(1) as f64;
    let payloads: Vec<String> = circuits
        .iter()
        .enumerate()
        .map(|(i, circuit)| {
            ServerFrame::Report {
                id: i as u64,
                cnot_cost: circuit.cnot_cost() as u64,
                provenance: "solved".to_string(),
                total_ms: 1.0,
                qasm: qsp_circuit::qasm::to_qasm(circuit).expect("circuit renders"),
            }
            .to_payload()
        })
        .collect();
    let start = Instant::now();
    for payload in &payloads {
        std::hint::black_box(ServerFrame::parse(payload).expect("own frame parses"));
    }
    let decode_us = start.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64;
    (encode_us, decode_us)
}

/// The baselines every "ours vs baseline" ratio compares against: the
/// cheapest of m-flow, hybrid and (up to 10 qubits, beyond which its
/// 2^n − 2 chain never wins on these targets) n-flow.
pub fn best_baseline(target: &SparseState) -> usize {
    let mut preparators: Vec<Box<dyn StatePreparator>> = vec![
        Box::new(CardinalityReduction::new()),
        Box::new(HybridPreparator::new()),
    ];
    if target.num_qubits() <= 10 {
        preparators.push(Box::new(QubitReduction::new()));
    }
    preparators
        .iter()
        .filter_map(|p| p.prepare_sparse(target).ok())
        .map(|c| c.cnot_cost())
        .min()
        .expect("a baseline prepares every benchmark target")
}

/// Sets the batch-layer metrics from summed [`BatchStats`].
pub fn set_batch(layers: &mut Layers, stats: &BatchStats) {
    layers.set("batch.keying_ms", crate::util::ms(stats.keying));
    layers.set("batch.planning_ms", crate::util::ms(stats.planning));
    layers.set("batch.solving_ms", crate::util::ms(stats.solving));
    layers.set("batch.assembly_ms", crate::util::ms(stats.assembly));
    let targets = stats.targets.max(1) as f64;
    layers.set(
        "batch.dedup_share",
        1.0 - (stats.solver_runs + stats.template_hits) as f64 / targets,
    );
    layers.set(
        "batch.template_hit_share",
        stats.template_hits as f64 / targets,
    );
}

/// Adds one batch's stats into a running total.
pub fn add_stats(total: &mut BatchStats, round: &BatchStats) {
    total.targets += round.targets;
    total.solver_runs += round.solver_runs;
    total.template_hits += round.template_hits;
    total.cache_hits += round.cache_hits;
    total.errors += round.errors;
    total.keying += round.keying;
    total.planning += round.planning;
    total.solving += round.solving;
    total.assembly += round.assembly;
    total.elapsed += round.elapsed;
}
