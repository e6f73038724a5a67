//! End-to-end and per-layer benchmark of the QSP synthesis stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cold|sparse_stream|wire_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. Inputs are generated from
//! `--seed`; the program under test receives only the generated states.
//! With `--trace 0` the run prints every end-to-end metric, with `--trace 1`
//! every per-layer metric (layers are probed through their public
//! functions and the counters and spans the program already exposes). The
//! last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Every circuit is checked against the state-vector simulator; the
//! process exits non-zero when one fails to prepare its target.

mod inputs;
mod layers;
mod paper;
mod stream;
mod util;
mod wire;

use qsp_circuit::Circuit;
use qsp_state::SparseState;

/// The result of one workload run.
pub struct Outcome {
    pub report: util::Report,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// The widest register the correctness check simulates (every benchmark
/// target fits).
const MAX_VERIFY_QUBITS: usize = 20;

/// Whether `circuit` prepares `target`, by dense simulation.
pub fn verify(circuit: &Circuit, target: &SparseState) -> bool {
    assert!(
        target.num_qubits() <= MAX_VERIFY_QUBITS,
        "target wider than the simulator check"
    );
    qsp_sim::verify_preparation(circuit, target).is_ok_and(|r| r.is_correct())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| {
        let workload = flag(&args, "--workload")?;
        let seed: u64 = flag(&args, "--seed")?.parse().ok()?;
        let seconds: f64 = flag(&args, "--seconds")?.parse().ok()?;
        let trace = match flag(&args, "--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return None,
        };
        Some((workload, seed, seconds, trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!(
            "usage: perfbench --workload <paper_cold|sparse_stream|wire_mixed> --seed <n> --seconds <s> [--trace 0|1]"
        );
        std::process::exit(2);
    };
    let outcome = match workload.as_str() {
        "paper_cold" => paper::run(seed, seconds, trace),
        "sparse_stream" => stream::run(seed, seconds, trace),
        "wire_mixed" => wire::run(seed, seconds, trace),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "{workload} seed {seed}: attempted {}, failed {}, correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    outcome
        .report
        .finish(outcome.correct, outcome.attempted, outcome.failed);
    if !outcome.correct {
        std::process::exit(1);
    }
}
