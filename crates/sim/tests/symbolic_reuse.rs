//! The sparse kernel's symbolic/numeric split, counted.
//!
//! Kept as a **single test in its own binary**: the
//! `sim.matrix.symbolic_analyses` counter is process-global, so sibling
//! tests building patterns in parallel would bump it mid-test.

use losac_obs::metrics::snapshot;
use losac_sim::sparse::{SparseFactors, SparsePattern};

fn symbolic_analyses() -> u64 {
    snapshot()
        .counters
        .get("sim.matrix.symbolic_analyses")
        .copied()
        .unwrap_or(0)
}

#[test]
fn refactor_with_new_values_reuses_the_symbolic_analysis() {
    // A diagonally dominant ring: every entry structural, two value sets.
    let n = 12;
    let entries: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| [(i, i), (i, (i + 1) % n), ((i + 1) % n, i)])
        .collect();
    let before = symbolic_analyses();
    let p = SparsePattern::build(n, n, &entries);
    assert_eq!(symbolic_analyses(), before + 1);
    let mut f = SparseFactors::new();
    for scale in [1.0, 2.5] {
        let mut vals = vec![0.0; p.nnz()];
        for &(i, j) in &entries {
            let slot = p.slot(i, j).expect("structural entry");
            vals[slot] = if i == j { 4.0 * scale } else { -scale };
        }
        p.factor(&vals, &mut f).expect("nonsingular");
    }
    assert_eq!(
        symbolic_analyses(),
        before + 1,
        "numeric refactors must reuse the one symbolic analysis"
    );
}
