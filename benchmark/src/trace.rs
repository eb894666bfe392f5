//! The traced run: spans (name, start, end, parent) recorded around calls
//! into each layer's public functions, kept in memory and written out when
//! the run ends, plus the per-layer metrics derived from them.
//!
//! The training step is split on a replica built from the public model,
//! loss, tape and optimizer functions in the trainer's order; the replica
//! must reproduce the trainer's embedding bit for bit, so its parts are
//! parts of the same computation, and `core.step_unattributed_ms` (the
//! trainer's epoch minus the replica's parts) shows any gap in coverage.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use coane_core::loss::{attribute_loss, negative_loss, positive_loss, total_loss, LossContext};
use coane_core::{CacheMode, Coane, CoaneConfig, CoaneModel, ContextRowCache};
use coane_graph::{AttributedGraph, GraphBuilder, NodeAttributes, NodeId};
use coane_nn::init::xavier_uniform;
use coane_nn::{Adam, Matrix, Scorer, Tape};
use coane_serve::{
    EmbeddingStore, HnswConfig, HnswIndex, HttpServer, KnnParams, KnnTarget, MutLog, MutOp,
    MutRecord, Precision, QueryEngine, UnseenNode, UpsertItem, UpsertSource,
};
use coane_walks::{
    CoMatrices, ContextSet, ContextsConfig, ContextualNegativeSampler, PositivePairs, WalkConfig,
    Walker,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checks::{self, VectorBook};
use crate::serving::{self, Plan, K};
use crate::stats::{median, Accounting};
use crate::workload::Workload;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: a span opened inside another's
/// closure records it as its parent.
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: RefCell::new(Vec::new()), open: RefCell::new(Vec::new()) }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start: self.now_us(), end: f64::NAN, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.now_us();
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Summed duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ms_since(name, f64::NEG_INFINITY)
    }

    /// Summed duration (ms) of the spans called `name` that started at or
    /// after `since_us` on the tracer's clock.
    pub fn total_ms_since(&self, name: &str, since_us: f64) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name && s.start >= since_us)
            .map(|s| s.end - s.start)
            .sum::<f64>()
            / 1e3
    }

    /// Median duration (µs) of the spans called `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(out, "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

/// Per-layer metrics in the order they are printed: (name, unit, value).
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The trainer's preprocessing, call by call, with the same configuration
/// the trainer derives from `cfg`.
struct Prepared {
    contexts: Arc<ContextSet>,
    co: CoMatrices,
    pairs: PositivePairs,
    sampler: ContextualNegativeSampler,
    cache: ContextRowCache,
    steps: usize,
}

fn prepare(tr: &Tracer, g: &AttributedGraph, cfg: &CoaneConfig) -> Prepared {
    let walker = Walker::new(
        g,
        WalkConfig {
            walks_per_node: cfg.walks_per_node,
            walk_length: cfg.walk_length,
            p: 1.0,
            q: 1.0,
            seed: cfg.seed,
        },
    );
    let walks = tr.span("walks.walks", || walker.generate_all(cfg.threads));
    let steps = walks.iter().map(Vec::len).sum();
    let ctx_cfg = ContextsConfig {
        context_size: cfg.context_size,
        subsample_t: cfg.subsample_t,
        seed: cfg.seed ^ 0x51_7e,
    };
    let contexts = if cfg.walk_block_size > 0 {
        drop(walks);
        // The streamed build regenerates its walks (three passes) instead
        // of reading a materialized corpus; its time includes them.
        tr.span("walks.contexts", || {
            ContextSet::build_streamed(&walker, g.num_nodes(), cfg.walk_block_size, &ctx_cfg)
        })
    } else {
        tr.span("walks.contexts", || ContextSet::build(&walks, g.num_nodes(), &ctx_cfg))
    };
    let contexts = Arc::new(contexts);
    let co = tr.span("walks.cooccurrence", || {
        if cfg.coocc_block_size > 0 {
            CoMatrices::build_blocked(&contexts, g, cfg.coocc_block_size)
        } else {
            CoMatrices::build(&contexts, g)
        }
    });
    let k_p = contexts.max_count().max(1);
    let pairs = tr.span("walks.pairs", || PositivePairs::select(&co, k_p));
    let sampler = tr.span("walks.sampler_build", || ContextualNegativeSampler::new(&contexts));
    let cache = tr.span("core.cache_build", || {
        if cfg.max_cache_bytes > 0 {
            ContextRowCache::build_budgeted(g, &contexts, cfg.encoder, cfg.max_cache_bytes)
        } else {
            ContextRowCache::build(g, &contexts, cfg.encoder)
        }
    });
    Prepared { contexts, co, pairs, sampler, cache, steps }
}

/// The cache rung the budget implies, computed from the contexts and
/// attributes alone: materialized when the CSR (8 bytes per nonzero, row
/// and node offsets) fits; rebuild when even the smallest possible
/// compressed stream (a length byte, a flag byte and a column byte per
/// nonzero per row, plus node and row offsets) does not.
pub fn implied_rung(
    g: &AttributedGraph,
    contexts: &ContextSet,
    budget: usize,
) -> Option<CacheMode> {
    if budget == 0 {
        return Some(CacheMode::Materialized);
    }
    let n = contexts.num_nodes();
    let rows = contexts.num_contexts();
    let mut nnz = 0usize;
    for v in 0..n as NodeId {
        for &u in contexts.slots_of(v) {
            if u != coane_walks::PAD {
                nnz += g.attrs().row(u).0.len();
            }
        }
    }
    let csr = nnz * 8 + (rows + 1) * 8 + (n + 1) * 8;
    let compressed_floor = nnz + 2 * rows + 2 * (n + 1) * 8;
    if csr <= budget {
        Some(CacheMode::Materialized)
    } else if compressed_floor > budget {
        Some(CacheMode::Rebuild)
    } else {
        None
    }
}

/// One replica epoch in the trainer's order, each part in its own span.
#[allow(clippy::too_many_arguments)]
fn replica_epoch(
    tr: &Tracer,
    g: &AttributedGraph,
    cfg: &CoaneConfig,
    prep: &Prepared,
    model: &mut CoaneModel,
    adam: &mut Adam,
    z_cache: &mut Matrix,
    order: &mut [NodeId],
    local_of: &mut [Option<u32>],
    rng: &mut ChaCha8Rng,
) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i as NodeId;
    }
    order.shuffle(rng);
    for batch_nodes in order.chunks(cfg.batch_size) {
        let batch = tr.span("core.batch", || prep.cache.batch(g, batch_nodes));
        for (k, &v) in batch_nodes.iter().enumerate() {
            local_of[v as usize] = Some(k as u32);
        }
        let negatives: Vec<Vec<NodeId>> = tr.span("walks.negatives", || {
            batch_nodes
                .iter()
                .map(|&v| {
                    prep.sampler.negatives(
                        v,
                        cfg.num_negatives,
                        cfg.negative_mode,
                        batch_nodes,
                        rng,
                    )
                })
                .collect()
        });
        let mut tape = Tape::new();
        let vars = model.params.attach(&mut tape);
        let z = tr.span("core.encode", || model.encode(&mut tape, &vars, &batch));
        let decoded = tr.span("core.decode", || model.decode(&mut tape, &vars, z));
        let ctx = LossContext { batch_nodes, local: local_of, z_cache };
        let l_pos = tr.span("core.loss_pos", || {
            positive_loss(&mut tape, z, &ctx, cfg.ablation.positive, &prep.pairs, &prep.co)
        });
        let l_neg = tr.span("core.loss_neg", || {
            negative_loss(&mut tape, z, &ctx, cfg.ablation.negative, &negatives, cfg.neg_strength)
        });
        let l_att = tr.span("core.loss_att", || {
            attribute_loss(&mut tape, decoded, &batch.x_target, cfg.gamma)
        });
        if let Some(loss) = total_loss(&mut tape, [l_pos, l_neg, l_att]) {
            tr.span("nn.backward", || tape.backward(loss));
            tr.span("nn.adam", || {
                let grads = model.params.take_grads(&mut tape, &vars);
                adam.step(&mut model.params, &grads);
            });
        }
        tr.span("core.writeback", || {
            let z_val = tape.value(z);
            for (k, &v) in batch_nodes.iter().enumerate() {
                z_cache.row_mut(v as usize).copy_from_slice(z_val.row(k));
                local_of[v as usize] = None;
            }
        });
    }
    tr.span("core.renew", || {
        let d = model.embed_dim();
        coane_nn::pool::parallel_chunks(
            z_cache.as_mut_slice(),
            cfg.infer_batch_size * d,
            |start, out| {
                let v0 = (start / d) as NodeId;
                let nodes: Vec<NodeId> = (v0..v0 + (out.len() / d) as NodeId).collect();
                out.copy_from_slice(
                    model.encode_nograd(&prep.cache.infer_batch(&nodes)).as_slice(),
                );
            },
        );
    });
}

/// Parts of the replica's training step, in the order they run.
const STEP_PARTS: [&str; 11] = [
    "core.batch",
    "walks.negatives",
    "core.encode",
    "core.decode",
    "core.loss_pos",
    "core.loss_neg",
    "core.loss_att",
    "nn.backward",
    "nn.adam",
    "core.renew",
    "core.writeback",
];

/// Runs the traced pipeline of `w` and returns its per-layer metrics.
pub fn run(
    w: &Workload,
    seed: u64,
    dir: &Path,
    trace_path: &Path,
    acct: &mut Accounting,
) -> Result<Metrics, String> {
    let tr = Tracer::new();
    let graph = tr.span("datasets.generate", || w.generate(seed));
    let split = tr.span("graph.split", || w.split(&graph, seed));
    let g = &split.train_graph;
    let cfg = w.train_config(seed);
    coane_nn::pool::set_threads(cfg.threads);

    // The trainer itself, untraced inside. A process's first fit runs
    // slower than later ones, so the trainer fits once before the replica
    // and once after it, and the split uses the second.
    let trainer_fit = |span: &'static str| {
        let mut deltas = Vec::new();
        let mut last = Instant::now();
        let out = tr.span(span, || {
            Coane::new(cfg.clone()).try_fit_full(g, None, |_, _| {
                deltas.push(last.elapsed().as_secs_f64() * 1e3);
                last = Instant::now();
            })
        });
        out.map(|fitted| (fitted, deltas)).map_err(|e| format!("training failed: {e}"))
    };
    let ((z, trained, _), _) = trainer_fit("core.fit_first")?;
    acct.attempt("fit", true);
    // Preprocessing, call by call.
    let prep = prepare(&tr, g, &cfg);
    let implied = implied_rung(g, &prep.contexts, cfg.max_cache_bytes);
    acct.check("check_cache_rung", implied.is_none_or(|m| m == prep.cache.mode()), || {
        format!("cache on {:?}, budget implies {implied:?}", prep.cache.mode())
    });

    // Replica of the training loop.
    let n = g.num_nodes();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0xC0A0E));
    let mut model = CoaneModel::new(&cfg, g.attr_dim(), &mut rng);
    let mut adam = Adam::new(cfg.learning_rate);
    let mut z_cache = xavier_uniform(n, cfg.embed_dim, &mut rng);
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut local_of: Vec<Option<u32>> = vec![None; n];
    // Epoch 1 of the trainer also pays for preprocessing, so both sides of
    // the split are taken over epochs 2..N.
    let mut steady_from = f64::NEG_INFINITY;
    for e in 0..cfg.epochs {
        if e == 1 {
            steady_from = tr.now_us();
        }
        tr.span("replica.epoch", || {
            replica_epoch(
                &tr,
                g,
                &cfg,
                &prep,
                &mut model,
                &mut adam,
                &mut z_cache,
                &mut order,
                &mut local_of,
                &mut rng,
            )
        });
    }
    let (contexts, nnz, resident_mib) = (
        prep.contexts.num_contexts(),
        prep.co.d.nnz(),
        prep.cache.resident_bytes() as f64 / (1 << 20) as f64,
    );
    let steps = prep.steps;
    drop(prep);

    let ((z_again, _, _), deltas) = trainer_fit("core.fit")?;
    acct.attempt("fit", true);
    acct.check("check_fit_repeat", z_again.as_slice() == z.as_slice(), || {
        "a repeated fit changed the embedding".into()
    });
    acct.check("check_replica_bits", z.as_slice() == z_cache.as_slice(), || {
        "replica embedding differs from the trainer's".into()
    });
    let auc = checks::link_auc(z.as_slice(), z.cols(), &split.test_pos, &split.test_neg);
    acct.check("check_auc", auc >= w.auc_floor, || format!("AUC {auc} below {}", w.auc_floor));
    let trainer_epoch_ms = median(&deltas[1..]);
    let epochs = (cfg.epochs - 1) as f64;
    let part = |name: &str| tr.total_ms_since(name, steady_from) / epochs;
    let parts_ms: f64 = STEP_PARTS.iter().map(|p| part(p)).sum();

    // Decoder-shaped dense kernels: forward h·W, backward g·Wᵀ and hᵀ·g.
    let (b, h, d) = (cfg.batch_size, cfg.decoder_hidden.1, g.attr_dim());
    let mut krng = ChaCha8Rng::seed_from_u64(seed ^ 0x3a7);
    let mut random = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|_| krng.gen_range(-1.0f32..1.0)).collect())
    };
    let (hm, wm, gm) = (random(b, h), random(h, d), random(b, d));
    for _ in 0..10 {
        std::hint::black_box(tr.span("nn.matmul", || hm.matmul(&wm)));
        std::hint::black_box(tr.span("nn.matmul_nt", || gm.matmul_nt(&wm)));
        std::hint::black_box(tr.span("nn.matmul_tn", || hm.matmul_tn(&gm)));
    }
    let flop = 2.0 * (b * h * d) as f64;
    let gflops = |name: &str| flop / (tr.median_us(name) * 1e3);

    // Serving layer, in process.
    let serve_metrics = serve_layer(&tr, w, seed, dir, g, &z, &trained, &cfg, acct)?;

    tr.write(trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let mut m: Metrics = vec![
        ("datasets.generate_ms", "ms", tr.total_ms("datasets.generate")),
        ("graph.split_ms", "ms", tr.total_ms("graph.split")),
        ("walks.walks_ms", "ms", tr.total_ms("walks.walks")),
        ("walks.steps", "count", steps as f64),
        ("walks.contexts_ms", "ms", tr.total_ms("walks.contexts")),
        ("walks.contexts", "count", contexts as f64),
        ("walks.cooccurrence_ms", "ms", tr.total_ms("walks.cooccurrence")),
        ("walks.cooccurrence_nnz", "count", nnz as f64),
        ("walks.pairs_ms", "ms", tr.total_ms("walks.pairs")),
        ("walks.sampler_build_ms", "ms", tr.total_ms("walks.sampler_build")),
        ("walks.negatives_ms", "ms", part("walks.negatives")),
        ("core.cache_build_ms", "ms", tr.total_ms("core.cache_build")),
        ("core.cache_resident_mib", "MiB", resident_mib),
        ("core.batch_ms", "ms", part("core.batch")),
        ("core.encode_ms", "ms", part("core.encode")),
        ("core.decode_ms", "ms", part("core.decode")),
        ("core.loss_pos_ms", "ms", part("core.loss_pos")),
        ("core.loss_neg_ms", "ms", part("core.loss_neg")),
        ("core.loss_att_ms", "ms", part("core.loss_att")),
        ("core.renew_ms", "ms", part("core.renew")),
        ("core.writeback_ms", "ms", part("core.writeback")),
        ("core.trainer_epoch_ms", "ms", trainer_epoch_ms),
        ("core.step_unattributed_ms", "ms", trainer_epoch_ms - parts_ms),
        ("nn.backward_ms", "ms", part("nn.backward")),
        ("nn.adam_ms", "ms", part("nn.adam")),
        ("nn.matmul_gflops", "GFLOP/s", gflops("nn.matmul")),
        ("nn.matmul_nt_gflops", "GFLOP/s", gflops("nn.matmul_nt")),
        ("nn.matmul_tn_gflops", "GFLOP/s", gflops("nn.matmul_tn")),
        ("nn.matmul_flop", "count", flop),
    ];
    m.extend(serve_metrics);
    Ok(m)
}

/// The serving layer's public calls on this workload's trained store.
#[allow(clippy::too_many_arguments)]
fn serve_layer(
    tr: &Tracer,
    w: &Workload,
    seed: u64,
    dir: &Path,
    g: &AttributedGraph,
    z: &Matrix,
    model: &CoaneModel,
    cfg: &CoaneConfig,
    acct: &mut Accounting,
) -> Result<Metrics, String> {
    serving::export(dir, z, model, cfg, g)?;
    coane_nn::pool::set_threads(serving::SERVER_THREADS);
    let store = tr
        .span("serve.store_load", || EmbeddingStore::open(&dir.join("store.bin")))
        .map_err(|e| e.to_string())?;
    let store = tr
        .span("serve.quantize", || store.with_precision(Precision::Int8))
        .map_err(|e| e.to_string())?;
    let index = tr.span("serve.hnsw_build", || {
        HnswIndex::build(&store, Scorer::Cosine, HnswConfig::default())
    });
    let hnsw_edges = index.num_edges() as f64;
    let book = VectorBook::new(z.as_slice().to_vec(), z.cols());
    let plan = Plan::new(g, z.cols(), seed);
    for &q in &plan.queries {
        std::hint::black_box(
            tr.span("serve.hnsw_knn", || index.knn(&store, book.get(q).expect("row"), K + 1)),
        );
    }

    let load = || coane_core::load_model(&dir.join("model.json")).map_err(|e| e.to_string());
    let (saved_model, saved_cfg) = load()?;
    // The engine embeds with the model as persisted; the core call below
    // gets the same model and configuration.
    let (served_model, served_cfg) = load()?;
    let inductive =
        coane_serve::InductiveContext { model: saved_model, config: saved_cfg, graph: g.clone() };
    let mutation = coane_serve::MutationConfig {
        dir: dir.join("trace-data"),
        compact_every: serving::COMPACT_EVERY,
    };
    let (engine, _) = QueryEngine::new_mutable(
        store,
        index,
        Some(inductive),
        Default::default(),
        coane_obs::Obs::enabled(),
        mutation,
    )
    .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);

    let approx = KnnParams { k: K, scorer: Scorer::Cosine, exact: false };
    let mut recall_sum = 0.0;
    for &q in &plan.queries {
        let ans = tr
            .span("serve.engine_knn", || engine.knn(&[KnnTarget::Id(q)], approx))
            .map_err(|e| e.to_string())?;
        let got: Vec<(u64, f32)> = ans[0].neighbors.clone();
        let truth = checks::brute_topk(&book, book.get(q).expect("row"), Some(q), K);
        recall_sum += checks::recall(&got, &truth);
        let exact = tr
            .span("serve.exact_knn", || {
                engine.knn(&[KnnTarget::Id(q)], KnnParams { exact: true, ..approx })
            })
            .map_err(|e| e.to_string())?;
        let verdict =
            checks::check_exact(&book, book.get(q).expect("row"), &exact[0].neighbors, &truth);
        acct.check("check_exact_knn", verdict.is_ok(), || {
            format!("query {q}: {}", verdict.unwrap_err())
        });
    }
    let recall = recall_sum / plan.queries.len() as f64;
    let what = || format!("recall@10 {recall} below {}", w.recall_floor);
    if w.recall_defect {
        acct.known_defect("check_recall", recall >= w.recall_floor, what);
    } else {
        acct.check("check_recall", recall >= w.recall_floor, what);
    }
    for i in 0..64 {
        let pairs = plan.pair_chunk(i);
        std::hint::black_box(
            tr.span("serve.engine_links", || engine.score_links(pairs, Scorer::Cosine))
                .map_err(|e| e.to_string())?,
        );
    }

    // HTTP floor: /healthz round trips against the same engine.
    let server = HttpServer::bind(Arc::clone(&engine), serving::server_config(None))
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = crate::client::Client::new(&addr);
    for _ in 0..200 {
        let ok = tr
            .span("serve.http_floor", || client.request("GET", "/healthz", ""))
            .is_ok_and(|r| r.status == 200);
        acct.attempt("healthz", ok);
    }
    let _ = client.request("POST", "/shutdown", "");
    handle.join().map_err(|_| "server thread panicked".to_string())?.map_err(|e| e.to_string())?;

    // Inductive encode through the engine, and the same embedding from the
    // core on a graph extended beforehand: the gap is the per-request
    // serving-graph rebuild.
    let node = plan.templates[0].unseen();
    let extended = extend(g, &node);
    let reps = 20;
    let mut served = Vec::new();
    for _ in 0..reps {
        served = tr
            .span("serve.engine_encode", || engine.encode_unseen(std::slice::from_ref(&node)))
            .map_err(|e| e.to_string())?;
    }
    let mut direct = Matrix::zeros(0, 0);
    for _ in 0..reps {
        direct = tr.span("core.embed_nodes", || {
            coane_core::embed_nodes(
                &served_model,
                &served_cfg,
                &extended,
                &[g.num_nodes() as NodeId],
            )
        });
    }
    acct.check(
        "check_encode_core",
        served.first().is_some_and(|v| v.as_slice() == direct.as_slice()),
        || "engine encode differs from embed_nodes".into(),
    );

    // Upserts through the engine beside bare WAL appends of the same records.
    let batch = serving::UPSERT_BATCH;
    let mut vrng = ChaCha8Rng::seed_from_u64(seed ^ 0xa99e);
    let rounds = 4 * serving::COMPACT_EVERY / batch;
    let mut wal = MutLog::create(&dir.join("trace.wal"), 0, 0, &[]).map_err(|e| e.to_string())?;
    for r in 0..rounds {
        let vectors: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..z.cols()).map(|_| vrng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let ids: Vec<u64> = (0..batch).map(|k| (1u64 << 40) + (r * batch + k) as u64).collect();
        let items: Vec<UpsertItem> = ids
            .iter()
            .zip(&vectors)
            .map(|(&id, v)| UpsertItem { id, source: UpsertSource::Vector(v.clone()) })
            .collect();
        let ack =
            tr.span("serve.engine_upsert", || engine.upsert(&items)).map_err(|e| e.to_string())?;
        acct.check("check_upsert_seq", ack.stamp.seq == ((r + 1) * batch) as u64, || {
            format!("seq {} after round {r}", ack.stamp.seq)
        });
        let records: Vec<MutRecord> = ids
            .iter()
            .zip(vectors)
            .enumerate()
            .map(|(k, (&id, vector))| MutRecord {
                seq: (r * batch + k + 1) as u64,
                op: MutOp::Upsert { id, vector },
            })
            .collect();
        tr.span("serve.wal_append", || wal.append(&records)).map_err(|e| e.to_string())?;
    }
    engine.wait_compactions();
    let compact = engine
        .obs()
        .scopes()
        .into_iter()
        .find(|(path, _)| path.ends_with("serve/mut/compact"))
        .map(|(_, s)| s);
    let compaction_ms = compact
        .filter(|s| s.calls > 0)
        .map_or(f64::NAN, |s| s.total.as_secs_f64() * 1e3 / s.calls as f64);
    acct.check("check_compaction", compaction_ms.is_finite(), || "no compaction ran".into());

    Ok(vec![
        ("serve.store_load_ms", "ms", tr.total_ms("serve.store_load")),
        ("serve.quantize_ms", "ms", tr.total_ms("serve.quantize")),
        ("serve.hnsw_build_ms", "ms", tr.total_ms("serve.hnsw_build")),
        ("serve.hnsw_edges", "count", hnsw_edges),
        ("serve.hnsw_knn_us", "us", tr.median_us("serve.hnsw_knn")),
        ("serve.engine_knn_us", "us", tr.median_us("serve.engine_knn")),
        ("serve.recall_at_10", "fraction", recall),
        ("serve.exact_knn_us", "us", tr.median_us("serve.exact_knn")),
        ("serve.engine_links_us", "us", tr.median_us("serve.engine_links")),
        ("serve.http_floor_us", "us", tr.median_us("serve.http_floor")),
        ("serve.engine_encode_us", "us", tr.median_us("serve.engine_encode")),
        ("core.embed_nodes_us", "us", tr.median_us("core.embed_nodes")),
        ("serve.engine_upsert_us", "us", tr.median_us("serve.engine_upsert")),
        ("serve.wal_append_us", "us", tr.median_us("serve.wal_append")),
        ("serve.compaction_ms", "ms", compaction_ms),
    ])
}

/// The serving graph with `node` appended as node `n`, built the way the
/// engine builds it per request.
pub fn extend(g: &AttributedGraph, node: &UnseenNode) -> AttributedGraph {
    let n = g.num_nodes();
    let mut b = GraphBuilder::new(n + 1, g.attr_dim());
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    for &e in &node.edges {
        b.add_edge(n as NodeId, e as NodeId, 1.0);
    }
    let mut rows: Vec<Vec<(u32, f32)>> = (0..n as NodeId)
        .map(|v| {
            let (idx, val) = g.attrs().row(v);
            idx.iter().copied().zip(val.iter().copied()).collect()
        })
        .collect();
    rows.push(node.attr_indices.iter().copied().zip(node.attr_values.iter().copied()).collect());
    b.with_attrs(NodeAttributes::from_sparse_rows(g.attr_dim(), &rows)).build()
}
