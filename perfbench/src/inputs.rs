//! Seeded input generation. Every workload's inputs are a pure function of
//! the `--seed` argument; the program under test only ever sees the
//! generated states.

use qsp_state::generators::{self, Workload};
use qsp_state::{BasisIndex, SparseState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One named target state.
#[derive(Debug, Clone)]
pub struct Target {
    pub name: String,
    pub state: SparseState,
}

/// An exact identity for a state: its width and `(index, amplitude bits)`
/// entries. Two targets with equal keys are the same request.
pub type ExactKey = (usize, Vec<(u64, u64)>);

pub fn exact_key(state: &SparseState) -> ExactKey {
    (
        state.num_qubits(),
        state
            .iter()
            .map(|(index, amplitude)| (index.value(), amplitude.to_bits()))
            .collect(),
    )
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// The paper's evaluation set: the Table IV Dicke rows for n = 3–6 plus a
/// GHZ and a W state, and the Table V random dense (n = 3–8) and sparse
/// (n = 6–20, every other width) uniform states, drawn from `seed` from n = 5
/// on.
pub fn paper_set(seed: u64) -> Vec<Target> {
    let mut targets = Vec::new();
    for (n, k) in [
        (3, 1),
        (4, 1),
        (4, 2),
        (5, 1),
        (5, 2),
        (6, 1),
        (6, 2),
        (6, 3),
    ] {
        targets.push(Target {
            name: format!("dicke_{n}_{k}"),
            state: generators::dicke(n, k).expect("valid Dicke parameters"),
        });
    }
    targets.push(Target {
        name: "ghz_8".to_string(),
        state: generators::ghz(8).expect("valid GHZ width"),
    });
    targets.push(Target {
        name: "w_8".to_string(),
        state: generators::w_state(8).expect("valid W width"),
    });
    // The exact-branch dense widths (n = 3, 4) use the Table V harness's
    // first sample: one n = 4 draw's exact A* takes 0.07–4.7 s depending on
    // the draw, which would make whole runs fast or slow by seed.
    for n in 3..=4 {
        targets.push(Target {
            name: format!("dense_{n}"),
            state: Workload::RandomDense { n, seed: 1000 }
                .instantiate()
                .expect("dense target"),
        });
    }
    let mut rng = rng_for(seed, 1);
    for n in 5..=8 {
        targets.push(Target {
            name: format!("dense_{n}"),
            state: generators::random_dense_state(n, &mut rng).expect("dense target"),
        });
    }
    // Every other sparse width: their solves take well under a millisecond,
    // and with more of them the median request would be one of those
    // instead of an A*-bound solve, the cost this set exists to measure.
    // The narrowest (n = 6) uses the Table V harness's first sample, like
    // the exact-branch dense widths: its solve takes 0.1–20 ms depending on
    // the draw, which alone moved the run's geometric-mean latency by up to
    // a sixth by seed.
    targets.push(Target {
        name: "sparse_6".to_string(),
        state: Workload::RandomSparse { n: 6, seed: 1000 }
            .instantiate()
            .expect("sparse target"),
    });
    for n in (8..=20).step_by(2) {
        targets.push(Target {
            name: format!("sparse_{n}"),
            state: generators::random_sparse_state(n, &mut rng).expect("sparse target"),
        });
    }
    targets
}

/// A product of disjoint `cos θ|00⟩ + sin θ|11⟩` pairs on an `n`-qubit
/// register. Its optimal circuit meets the entanglement lower bound, so the
/// engine captures a support-pattern template on the first solve and
/// replays it for later same-support, fresh-angle targets.
fn pair_product(n: usize, pairs: &[(usize, usize)], thetas: &[f64]) -> SparseState {
    let mut entries: Vec<(u64, f64)> = vec![(0, 1.0)];
    for (&(a, b), &theta) in pairs.iter().zip(thetas) {
        let mut next = Vec::with_capacity(entries.len() * 2);
        for &(index, amplitude) in &entries {
            next.push((index, amplitude * theta.cos()));
            next.push((index | (1 << a) | (1 << b), amplitude * theta.sin()));
        }
        entries = next;
    }
    SparseState::from_amplitudes(
        n,
        entries
            .into_iter()
            .map(|(index, amplitude)| (BasisIndex::new(index), amplitude)),
    )
    .expect("pair-product state is normalized")
}

/// A qubit-permuted, X-flipped copy of `state` (same Sec. V-B class).
fn variant_of(state: &SparseState, rng: &mut StdRng) -> SparseState {
    let n = state.num_qubits();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let mut variant = state.permute_qubits(&perm).expect("valid permutation");
    for qubit in 0..n {
        if rng.gen_bool(0.5) {
            variant = variant.apply_x(qubit).expect("qubit in range");
        }
    }
    variant
}

/// The `k`-th fresh sparse target, m = n: widths cycle through n = 9–12
/// and amplitudes through uniform, non-uniform, uniform, non-uniform,
/// uniform, so every stream has the same mix and only the states come from
/// the seed. Narrower uniform targets have a rare A* tail (a 4 s solve at
/// n = 8, 0.5 s at n = 7) that would make a whole stream run slow; those
/// widths are in `paper_set`.
fn fresh_sparse(k: usize, rng: &mut StdRng) -> SparseState {
    let n = 9 + k % 4;
    if matches!(k % 5, 0 | 2 | 4) {
        generators::random_uniform_state(n, n, rng).expect("uniform sparse target")
    } else {
        generators::random_real_state(n, n, rng).expect("non-uniform sparse target")
    }
}

/// Targets in one cycle of the `sparse_stream` mix.
const CYCLE: usize = 6;

/// The `sparse_stream` inputs: `total` sparse targets on n = 9–12 qubits in
/// cycles of six. The basis is `batch_bench`'s random families, which
/// repeat one target in six (`--repeat-every 6`); here each of the three
/// kinds of reuse the engine has comes once per six targets, and the other
/// three are fresh (m = n, uniform and non-uniform amplitudes):
/// - an exact repeat of a recent distinct target;
/// - a qubit-permuted, X-flipped variant of one (same class);
/// - a fresh-angle target on one of 16 fixed two-pair product layouts (same
///   support as earlier ones, so the engine replays a template).
///
/// Repeats and variants draw from the last `window` distinct targets; with
/// a window larger than the engine's cache, the working set of classes
/// exceeds the cache but recent classes are often resident.
pub fn sparse_stream(seed: u64, total: usize, window: usize) -> Vec<SparseState> {
    let mut rng = rng_for(seed, 2);
    // The layouts are the same for every seed: replay cost grows steeply
    // with the number of idle qubits and depends on the pair positions, so
    // layouts drawn per seed would make whole runs fast or slow by seed.
    let mut layout_rng = StdRng::seed_from_u64(LAYOUT_SEED);
    let layouts: Vec<(usize, Vec<(usize, usize)>)> = (0..16)
        .map(|i| {
            let n = 9 + i % 4;
            let mut qubits: Vec<usize> = (0..n).collect();
            qubits.shuffle(&mut layout_rng);
            (n, vec![(qubits[0], qubits[1]), (qubits[2], qubits[3])])
        })
        .collect();
    let mut distinct: Vec<SparseState> = Vec::new();
    let mut stream = Vec::with_capacity(total);
    for i in 0..total {
        let recent = distinct.len().saturating_sub(window)..distinct.len();
        let state = match i % CYCLE {
            3 => distinct[rng.gen_range(recent)].clone(),
            4 => variant_of(&distinct[rng.gen_range(recent)], &mut rng),
            5 => {
                let (n, pairs) = &layouts[(i / CYCLE) % layouts.len()];
                let thetas = [rng.gen_range(0.1..1.4), rng.gen_range(0.1..1.4)];
                pair_product(*n, pairs, &thetas)
            }
            _ => {
                let fresh = fresh_sparse(distinct.len(), &mut rng);
                distinct.push(fresh.clone());
                fresh
            }
        };
        stream.push(state);
    }
    stream
}

/// The seed of the fixed template layouts.
const LAYOUT_SEED: u64 = 0x5EED_1A70;

/// The `wire_mixed` inputs: a hot set of `hot` sparse targets and a
/// request sequence of `total` targets, `fresh_percent` of them fresh and
/// the rest exact repeats of the hot set.
pub fn wire_mix(
    seed: u64,
    hot: usize,
    total: usize,
    fresh_percent: u32,
) -> (Vec<SparseState>, Vec<SparseState>) {
    let mut rng = rng_for(seed, 3);
    let hot_set: Vec<SparseState> = (0..hot).map(|k| fresh_sparse(k, &mut rng)).collect();
    let mut fresh = hot;
    let requests = (0..total)
        .map(|_| {
            if rng.gen_range(0..100u32) < fresh_percent {
                fresh += 1;
                fresh_sparse(fresh, &mut rng)
            } else {
                hot_set[rng.gen_range(0..hot)].clone()
            }
        })
        .collect();
    (hot_set, requests)
}
