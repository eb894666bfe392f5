//! The two workloads and the inputs each makes from its seed. Both run the
//! whole pipeline (generate → split → train → export → boot → read and write
//! slices); they differ in which layers dominate.

use coane_core::CoaneConfig;
use coane_datasets::{scale_graph, Preset, ScaleConfig};
use coane_graph::split::{EdgeSplit, SplitConfig};
use coane_graph::AttributedGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Context-row cache budget per node on the scale recipe: far below the
/// materialized CSR and below any compressed encoding, so the budget
/// implies the rebuild rung.
pub const BUDGET_BYTES_PER_NODE: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Graph {
    /// The Cora preset (2708 nodes, 1433 attributes).
    Cora,
    /// `scale_graph` with this many nodes.
    Scale(usize),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub graph: Graph,
    /// Share of the run's seconds spent on repeated timed fits; 0 means the
    /// fits are part of set-up (the last one is the store the server boots
    /// from).
    pub train_share: f64,
    /// Shares of the run's seconds for the read and the write slices.
    pub read_share: f64,
    pub write_share: f64,
    /// Writer rounds per second at the reference host speed: the write
    /// slices run `write_share × seconds × write_rounds_per_s` rounds in
    /// all, so they take about their share of the run on that host.
    pub write_rounds_per_s: f64,
    /// Floor on the held-out link AUC of every fit.
    pub auc_floor: f64,
    /// Floor on the served approximate recall@10 against brute force.
    pub recall_floor: f64,
    /// The recall floor fails on this store because of the HNSW defect
    /// named in CHANGES.md, so its check is a known-defect probe: reported
    /// on every run, kept out of `attempted`/`failed` (stats.rs).
    pub recall_defect: bool,
}

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "train-cora" => Workload {
            name: "train-cora",
            graph: Graph::Cora,
            train_share: 0.5,
            read_share: 0.2,
            write_share: 0.3,
            write_rounds_per_s: 30.0,
            auc_floor: 0.80,
            recall_floor: 0.9,
            recall_defect: true,
        },
        "serve" => Workload {
            name: "serve",
            graph: Graph::Scale(20_000),
            train_share: 0.0,
            read_share: 0.4,
            write_share: 0.6,
            write_rounds_per_s: 9.0,
            auc_floor: 0.75,
            recall_floor: 0.95,
            recall_defect: false,
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The training configuration. Cora: the trainer's defaults (d' = 128,
    /// decoder 256×256 over every attribute), materialized pipeline, 1
    /// thread. Scale graphs: the README "Scaling" recipe — d' = 16, other
    /// settings at their defaults, streaming walks, blocked co-occurrence
    /// counts and a cache budget that implies the rebuild rung — on 2
    /// threads.
    pub fn train_config(&self, seed: u64) -> CoaneConfig {
        match self.graph {
            Graph::Cora => CoaneConfig { epochs: 3, threads: 1, seed, ..Default::default() },
            Graph::Scale(nodes) => CoaneConfig {
                embed_dim: 16,
                epochs: 2,
                threads: 2,
                walk_block_size: 4096,
                coocc_block_size: 65_536,
                max_cache_bytes: nodes * BUDGET_BYTES_PER_NODE,
                seed,
                ..Default::default()
            },
        }
    }

    /// The full attributed graph for `seed` (datasets layer).
    pub fn generate(&self, seed: u64) -> AttributedGraph {
        match self.graph {
            Graph::Cora => Preset::Cora.generate_scaled(1.0, seed).0,
            Graph::Scale(nodes) => {
                scale_graph(&ScaleConfig { seed, ..ScaleConfig::with_nodes(nodes) }).0
            }
        }
    }

    /// The paper's 70/10/20 link split (graph layer).
    pub fn split(&self, graph: &AttributedGraph, seed: u64) -> EdgeSplit {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5b1e7);
        EdgeSplit::new(graph, SplitConfig::paper(), &mut rng)
    }
}
