//! The benchmark suite: deterministic synthetic stand-ins for the 26
//! SuiteSparse real-world graphs the paper uses for its performance
//! profiles (§7, Nagasaka et al.'s set). See "Substitutions" in
//! `docs/ARCHITECTURE.md` for the rationale; the suite spans skewed
//! (R-MAT), uniform (ER), banded (grids) and clustered (small-world,
//! communities) regimes.

use crate::rmat::RmatParams;
use crate::{er, rmat, structured};
use mspgemm_sparse::Csr;

/// A named suite graph. Synthetic generators and on-disk datasets (the
/// `mspgemm-io` loaders) both produce this shape, so the harness runners
/// sweep them uniformly.
pub struct SuiteGraph {
    /// Short identifier used in benchmark output rows (generator name or
    /// dataset file stem).
    pub name: String,
    /// Simple undirected adjacency matrix (symmetric, loop-free).
    pub adj: Csr<f64>,
}

impl SuiteGraph {
    /// Build a named suite entry.
    pub fn new(name: impl Into<String>, adj: Csr<f64>) -> Self {
        Self {
            name: name.into(),
            adj,
        }
    }
}

/// Which suite size to build. `Small` keeps default `cargo bench` runs
/// quick; `Full` approaches the paper's input sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteSize {
    /// ~100K-1M nnz per graph: CI-friendly.
    Small,
    /// Larger inputs (several M nnz): closer to the paper's scale.
    Full,
}

impl SuiteSize {
    /// Read from `MSPGEMM_SUITE` (`full` → Full, everything else Small).
    pub fn from_env() -> Self {
        match std::env::var("MSPGEMM_SUITE").as_deref() {
            Ok("full") | Ok("FULL") => SuiteSize::Full,
            _ => SuiteSize::Small,
        }
    }
}

/// Build the whole suite. Deterministic; independent of thread count.
pub fn build_suite(size: SuiteSize) -> Vec<SuiteGraph> {
    let bump = match size {
        SuiteSize::Small => 0,
        SuiteSize::Full => 2,
    };
    let rp = RmatParams::default();
    let mut graphs = vec![
        SuiteGraph::new("rmat_s10", rmat::rmat_symmetric(10 + bump, rp, 101)),
        SuiteGraph::new("rmat_s11", rmat::rmat_symmetric(11 + bump, rp, 102)),
        SuiteGraph::new("rmat_s12", rmat::rmat_symmetric(12 + bump, rp, 103)),
        SuiteGraph::new("rmat_s13", rmat::rmat_symmetric(13 + bump, rp, 104)),
        SuiteGraph::new("er_d4", er::er_symmetric(30_000 << bump, 4, 201)),
        SuiteGraph::new("er_d16", er::er_symmetric(20_000 << bump, 16, 202)),
        SuiteGraph::new("er_d64", er::er_symmetric(6_000 << bump, 64, 203)),
        SuiteGraph::new("grid2d", structured::grid2d(180 << bump, 180 << bump)),
        SuiteGraph::new("grid3d", structured::grid3d(32 << bump, 32 << bump, 32)),
        SuiteGraph::new(
            "smallworld_k8",
            structured::small_world(25_000 << bump, 8, 0.05, 301),
        ),
        SuiteGraph::new(
            "smallworld_k16",
            structured::small_world(12_000 << bump, 16, 0.1, 302),
        ),
        SuiteGraph::new(
            "community",
            structured::community_blocks(60 << bump, 300, 12, 2, 401),
        ),
    ];
    if size == SuiteSize::Full {
        graphs.push(SuiteGraph::new(
            "rmat_s16",
            rmat::rmat_symmetric(16, rp, 105),
        ));
        graphs.push(SuiteGraph::new(
            "er_d32",
            er::er_symmetric(100_000, 32, 204),
        ));
    }
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Idx;

    #[test]
    fn suite_is_simple_and_symmetric() {
        for g in build_suite(SuiteSize::Small) {
            assert!(g.adj.nnz() > 0, "{} empty", g.name);
            // Spot-check symmetry on the first few rows (full check done in
            // the generator tests).
            for i in 0..g.adj.nrows().min(50) {
                for &j in g.adj.row_cols(i) {
                    assert_ne!(i, j as usize, "{}: self loop", g.name);
                    assert!(
                        g.adj.get(j as usize, i as Idx).is_some(),
                        "{}: asymmetric ({i},{j})",
                        g.name
                    );
                }
            }
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let s = build_suite(SuiteSize::Small);
        let mut names: Vec<_> = s.iter().map(|g| g.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn suite_is_deterministic() {
        let a = build_suite(SuiteSize::Small);
        let b = build_suite(SuiteSize::Small);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.adj, y.adj, "{} differs between builds", x.name);
        }
    }
}
