//! The serving half of every workload: the server processes, their boots,
//! the closed-loop read and write slices over keep-alive HTTP, and the
//! checks on what the servers answered.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coane_graph::AttributedGraph;
use coane_serve::http::{
    DeleteResponse, EncodeResponse, HealthResponse, KnnResponse, LinkResponse, UpsertResponse,
};
use coane_serve::{
    EmbeddingStore, EngineLimits, HnswConfig, HnswIndex, HttpServer, InductiveContext,
    MutationConfig, Precision, QueryEngine, ServerConfig, UnseenNode,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::checks::{self, VectorBook};
use crate::client::Client;
use crate::stats::{median, Accounting};
use crate::workload::Workload;

/// Neighbors asked for by every kNN request.
pub const K: usize = 10;
/// Handler threads and pool threads of the server.
pub const SERVER_THREADS: usize = 2;
/// Distinct query ids the phases cycle through.
const QUERIES: usize = 256;
/// Pairs per `/score_links` request.
const PAIRS_PER_REQUEST: usize = 16;
/// Distinct `/encode` bodies; repeats must return the same bytes.
const TEMPLATES: usize = 4;
/// Ids the writer upserts start here, far above any graph node id.
const FIRST_NEW_ID: u64 = 1 << 40;
/// Read slices and write slices per run, run in turn (read, write, read,
/// …). Every serving figure is the median over its slices, so a slowdown of
/// the host that lasts part of a run moves a few slices, not the figure.
pub const SLICES: usize = 8;
/// Mutation records per compaction fold on the server: small enough that
/// several folds run in every write slice.
pub const COMPACT_EVERY: usize = 32;
/// Vectors per `/upsert` batch of the writer.
pub const UPSERT_BATCH: usize = 4;

// ---------------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------------

/// Files the server boots from, written after training.
pub fn export(
    dir: &Path,
    z: &coane_nn::Matrix,
    model: &coane_core::CoaneModel,
    cfg: &coane_core::CoaneConfig,
    graph: &AttributedGraph,
) -> Result<(), String> {
    let store = EmbeddingStore::new(z.as_slice().to_vec(), z.cols(), None, String::new())
        .map_err(|e| e.to_string())?;
    store.save(&dir.join("store.bin")).map_err(|e| e.to_string())?;
    coane_core::save_model(&dir.join("model.json"), model, cfg, graph.attr_dim())
        .map_err(|e| e.to_string())?;
    coane_graph::io::save_json(graph, &dir.join("graph.json")).map_err(|e| e.to_string())
}

/// The engine as `coane-cli serve --mutable --precision int8` assembles it:
/// open the exported f32 store, quantize to int8 (exact-f32 sidecar kept
/// for rerank), build the HNSW index, load the model and serving graph.
pub fn build_engine(dir: &Path, data_dir: &Path) -> Result<QueryEngine, String> {
    let store = EmbeddingStore::open(&dir.join("store.bin"))
        .and_then(|s| s.with_precision(Precision::Int8))
        .map_err(|e| e.to_string())?;
    coane_nn::pool::set_threads(SERVER_THREADS);
    let index = HnswIndex::build(&store, coane_nn::Scorer::Cosine, HnswConfig::default());
    let (model, config) =
        coane_core::load_model(&dir.join("model.json")).map_err(|e| e.to_string())?;
    let graph = coane_graph::io::load_json(&dir.join("graph.json")).map_err(|e| e.to_string())?;
    let mutation = MutationConfig { dir: data_dir.to_path_buf(), compact_every: COMPACT_EVERY };
    QueryEngine::new_mutable(
        store,
        index,
        Some(InductiveContext { model, config, graph }),
        EngineLimits::default(),
        coane_obs::Obs::enabled(),
        mutation,
    )
    .map(|(engine, _)| engine)
    .map_err(|e| e.to_string())
}

pub fn server_config(addr_file: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: SERVER_THREADS,
        addr_file,
        ..Default::default()
    }
}

/// Entry point of the server child process `name`: boots from the files
/// in `dir`, keeps its generations in `dir/<name>-data`, writes its
/// address to `dir/<name>.addr` and serves until killed.
pub fn child_main(dir: &Path, name: &str) -> Result<(), String> {
    // Die with the benchmark, however it ends: a killed benchmark must not
    // leave servers behind.
    // SAFETY: `prctl` with these arguments reads and writes no memory.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL as u64) } != 0 {
        return Err(format!("prctl: {}", std::io::Error::last_os_error()));
    }
    let engine = build_engine(dir, &dir.join(format!("{name}-data")))?;
    let addr_file = dir.join(format!("{name}.addr"));
    let server = HttpServer::bind(Arc::new(engine), server_config(Some(addr_file)))
        .map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

/// A spawned child process, killed and reaped on drop, so no exit path of
/// the benchmark leaves it behind.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A booted server child.
pub struct ServerProc {
    name: &'static str,
    child: Reaped,
    pub addr: String,
    pub boot_s: f64,
    pub health: HealthResponse,
}

impl ServerProc {
    /// Spawns the child `name` and waits for its first `/healthz` answer;
    /// the interval is the boot time (load, quantize, HNSW build, bind).
    pub fn boot(dir: &Path, name: &'static str) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        // Every boot starts from the exported files alone: no address of
        // an earlier server, no generations of an earlier data directory.
        let addr_file = dir.join(format!("{name}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let _ = std::fs::remove_dir_all(dir.join(format!("{name}-data")));
        let started = Instant::now();
        let child = Command::new(exe)
            .arg("--serve-child")
            .arg(dir)
            .arg(name)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut child = Reaped(child);
        let deadline = started + Duration::from_secs(120);
        loop {
            if let Some(status) = child.0.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited during boot: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not answer /healthz within 120 s".into());
            }
            let addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
            let addr = addr.trim();
            if addr.parse::<std::net::SocketAddr>().is_ok() {
                if let Ok(reply) = Client::new(addr).request("GET", "/healthz", "") {
                    if reply.status == 200 {
                        let boot_s = started.elapsed().as_secs_f64();
                        let health = serde_json::from_str(&reply.body)
                            .map_err(|e| format!("healthz body: {e}"))?;
                        return Ok(ServerProc {
                            name,
                            child,
                            addr: addr.to_string(),
                            boot_s,
                            health,
                        });
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set size of the server process, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::stats::peak_rss_mib(&self.child.0.id().to_string())
    }

    /// Stops (`true`) or continues the process, so that its background
    /// compactions do not run while the other server is measured.
    fn set_stopped(&self, stopped: bool) -> Result<(), String> {
        let sig = if stopped { SIGSTOP } else { SIGCONT };
        // SAFETY: `kill` takes no pointers; the pid is our own live child.
        if unsafe { kill(self.child.0.id() as i32, sig) } == 0 {
            Ok(())
        } else {
            Err(format!(
                "signal {sig} to server {}: {}",
                self.name,
                std::io::Error::last_os_error()
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Request plan
// ---------------------------------------------------------------------------

/// One attributed node for `/encode` and attributed `/upsert`: a copy of an
/// existing node's attributes, linked to that node's first neighbors.
pub struct Template {
    pub attr_indices: Vec<u32>,
    pub attr_values: Vec<f32>,
    pub edges: Vec<u64>,
}

impl Template {
    pub fn unseen(&self) -> UnseenNode {
        UnseenNode {
            attr_indices: self.attr_indices.clone(),
            attr_values: self.attr_values.clone(),
            edges: self.edges.clone(),
        }
    }

    fn fields(&self) -> String {
        format!(
            "\"attr_indices\":{},\"attr_values\":{},\"edges\":{}",
            json_list(&self.attr_indices),
            json_list(&self.attr_values),
            json_list(&self.edges)
        )
    }
}

/// What the phases ask, made from the seed and the serving graph.
pub struct Plan {
    pub queries: Vec<u64>,
    pairs: Vec<(u64, u64)>,
    pub templates: Vec<Template>,
    /// Embedding dimension of the store.
    pub dim: usize,
    seed: u64,
}

impl Plan {
    pub fn new(graph: &AttributedGraph, dim: usize, seed: u64) -> Self {
        let n = graph.num_nodes() as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e_a1);
        let queries = (0..QUERIES).map(|_| rng.gen_range(0..n)).collect();
        let pairs = (0..QUERIES * PAIRS_PER_REQUEST / 4)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let mut templates = Vec::new();
        while templates.len() < TEMPLATES {
            let u = rng.gen_range(0..n) as u32;
            let nb = graph.neighbors_of(u);
            let (idx, val) = graph.attrs().row(u);
            if nb.is_empty() || idx.is_empty() {
                continue;
            }
            templates.push(Template {
                attr_indices: idx.to_vec(),
                attr_values: val.to_vec(),
                edges: nb.iter().take(3).map(|&v| v as u64).collect(),
            });
        }
        Plan { queries, pairs, templates, dim, seed }
    }

    /// The `i`-th `/score_links` body's pairs (cycling).
    pub fn pair_chunk(&self, i: usize) -> &[(u64, u64)] {
        let chunks = self.pairs.len() / PAIRS_PER_REQUEST;
        let c = i % chunks;
        &self.pairs[c * PAIRS_PER_REQUEST..(c + 1) * PAIRS_PER_REQUEST]
    }
}

fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Knn,
    Exact,
    Links,
}

/// The read round: two kNN by id, one exact kNN, one `/score_links`.
const READ_ROUND: [Kind; 4] = [Kind::Knn, Kind::Knn, Kind::Exact, Kind::Links];

/// One answer kept for checking after the run, so checks never compete
/// with the server for the cores while it is measured.
struct Sample {
    kind: Kind,
    /// Index into `Plan::queries` (kNN) or the pair chunk (links).
    index: usize,
    body: String,
}

/// What one client connection did in one slice.
#[derive(Default)]
struct Lane {
    latencies: HashMap<&'static str, Vec<f64>>,
    requests: u64,
    elapsed: f64,
    acct: Accounting,
    samples: Vec<Sample>,
}

impl Lane {
    /// Sends one request, records its latency under `class` and counts it;
    /// returns the body of a 200 answer.
    fn send(
        &mut self,
        client: &mut Client,
        class: &'static str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<String> {
        self.requests += 1;
        match client.request(method, path, body) {
            Ok(reply) if reply.status == 200 => {
                self.latencies.entry(class).or_default().push(reply.micros);
                self.acct.attempt(class, true);
                Some(reply.body)
            }
            Ok(reply) => {
                self.acct.attempt(class, false);
                eprintln!("{class}: HTTP {} {}", reply.status, reply.body);
                None
            }
            Err(e) => {
                self.acct.attempt(class, false);
                eprintln!("{class}: transport error: {e}");
                None
            }
        }
    }

    fn latencies(&self, class: &str) -> &[f64] {
        self.latencies.get(class).map_or(&[], Vec::as_slice)
    }
}

/// A closed-loop reader connection: whole rounds of `kinds` until `done`
/// says so. `cursor` walks the plan's queries across slices.
fn read_lane(
    addr: &str,
    plan: &Plan,
    kinds: &[Kind],
    cursor: &mut usize,
    done: &(dyn Fn() -> bool + Sync),
    beside_writer: bool,
) -> Lane {
    let mut lane = Lane::default();
    let mut client = Client::new(addr);
    let started = Instant::now();
    while !done() {
        for &kind in kinds {
            *cursor += 1;
            let i = *cursor;
            let q = i % plan.queries.len();
            let (class, body) = match kind {
                Kind::Knn => (
                    if beside_writer { "knn_write" } else { "knn" },
                    format!("{{\"ids\":[{}],\"k\":{K}}}", plan.queries[q]),
                ),
                Kind::Exact => (
                    "exact_knn",
                    format!("{{\"ids\":[{}],\"k\":{K},\"exact\":true}}", plan.queries[q]),
                ),
                Kind::Links => {
                    let pairs: Vec<String> =
                        plan.pair_chunk(i).iter().map(|(u, v)| format!("[{u},{v}]")).collect();
                    ("links", format!("{{\"pairs\":[{}]}}", pairs.join(",")))
                }
            };
            let path = if kind == Kind::Links { "/score_links" } else { "/knn" };
            if let Some(body) = lane.send(&mut client, class, "POST", path, &body) {
                let index = if kind == Kind::Links { i } else { q };
                lane.samples.push(Sample { kind, index, body });
            }
        }
    }
    lane.elapsed = started.elapsed().as_secs_f64();
    lane
}

/// The writer connection's state across write slices, and what it changed,
/// for the checks after the run.
struct Writer {
    rng: ChaCha8Rng,
    /// Last acknowledged sequence number.
    seq: u64,
    next_id: u64,
    /// The previous round's ids (still live), and its first vector.
    previous: Vec<u64>,
    previous_first: Vec<f32>,
    round: usize,
    /// The first `/encode` answer of each template, as bytes and parsed.
    encoded: Vec<Option<String>>,
    template_vectors: Vec<Option<Vec<f32>>>,
    /// Upserted vectors by id (never overwritten, so static).
    vectors: Vec<(u64, Vec<f32>)>,
    /// Attributed upserts: (id, template index).
    attributed: Vec<(u64, usize)>,
    /// Deleted id → sequence number of its delete.
    deleted: HashMap<u64, u64>,
}

impl Writer {
    fn new(plan: &Plan, start_seq: u64) -> Self {
        Writer {
            rng: ChaCha8Rng::seed_from_u64(plan.seed ^ 0x7a11e),
            seq: start_seq,
            next_id: FIRST_NEW_ID,
            previous: Vec::new(),
            previous_first: Vec::new(),
            round: 0,
            encoded: vec![None; plan.templates.len()],
            template_vectors: vec![None; plan.templates.len()],
            vectors: Vec::new(),
            attributed: Vec::new(),
            deleted: HashMap::new(),
        }
    }

    /// `rounds` whole rounds: upsert(vectors) → exact kNN of the first
    /// upserted vector → encode → upsert(attributed node) → delete(previous
    /// round's ids) → exact kNN of a deleted vector, checking sequence
    /// numbers, readbacks and repeat-encode bytes as it goes.
    fn slice(&mut self, addr: &str, plan: &Plan, rounds: usize) -> Lane {
        let mut lane = Lane::default();
        let mut client = Client::new(addr);
        let started = Instant::now();
        for _ in 0..rounds {
            self.round(&mut lane, &mut client, plan);
        }
        lane.elapsed = started.elapsed().as_secs_f64();
        lane
    }

    fn round(&mut self, lane: &mut Lane, client: &mut Client, plan: &Plan) {
        let batch = UPSERT_BATCH as u64;
        // 1. Upsert a batch of fresh vectors.
        let ids: Vec<u64> = (self.next_id..self.next_id + batch).collect();
        self.next_id += batch;
        let vecs: Vec<Vec<f32>> = (0..UPSERT_BATCH)
            .map(|_| (0..plan.dim).map(|_| self.rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let nodes: Vec<String> = ids
            .iter()
            .zip(&vecs)
            .map(|(id, v)| format!("{{\"id\":{id},\"vector\":{}}}", json_list(v)))
            .collect();
        let body = format!("{{\"nodes\":[{}]}}", nodes.join(","));
        if let Some(resp) = lane.send(client, "upsert", "POST", "/upsert", &body) {
            let seq = self.seq;
            let ok = serde_json::from_str::<UpsertResponse>(&resp)
                .is_ok_and(|a| a.applied as u64 == batch && a.seq == seq + batch);
            lane.acct.check("check_upsert_seq", ok, || {
                format!("ack {resp} after seq {seq}, batch {batch}")
            });
            self.seq += batch;
            // 2. The first upserted vector must be its own exact nearest neighbor.
            let body = exact_body(&vecs[0]);
            if let Some(resp) = lane.send(client, "upsert_readback", "POST", "/knn", &body) {
                let top = parse_knn(&resp).and_then(|a| a.first().copied());
                let ok = top.is_some_and(|(id, score)| {
                    id == ids[0] && (score as f64 - 1.0).abs() < checks::SCORE_TOL
                });
                lane.acct.check("check_upsert_readback", ok, || {
                    format!("upserted id {} not first: {resp}", ids[0])
                });
            }
        }
        // 3. Encode a template; repeats must return the same bytes.
        let t = self.round % plan.templates.len();
        let body = format!("{{\"nodes\":[{{{}}}]}}", plan.templates[t].fields());
        if let Some(resp) = lane.send(client, "encode", "POST", "/encode", &body) {
            match &self.encoded[t] {
                Some(first) => lane.acct.check("check_encode_repeat", *first == resp, || {
                    format!("template {t} encoded to different bytes")
                }),
                None => {
                    let parsed: Result<EncodeResponse, _> = serde_json::from_str(&resp);
                    let ok = parsed.as_ref().is_ok_and(|r| {
                        r.embeddings.len() == 1
                            && r.embeddings[0].len() == plan.dim
                            && r.embeddings[0].iter().all(|x| x.is_finite())
                    });
                    lane.acct
                        .check("check_encode_shape", ok, || format!("bad encode answer {resp}"));
                    self.template_vectors[t] = parsed.ok().and_then(|mut r| r.embeddings.pop());
                    self.encoded[t] = Some(resp);
                }
            }
        }
        // 4. Upsert the same template as an attributed node.
        let node_id = self.next_id;
        self.next_id += 1;
        let body = format!("{{\"nodes\":[{{\"id\":{node_id},{}}}]}}", plan.templates[t].fields());
        if let Some(resp) = lane.send(client, "upsert_node", "POST", "/upsert", &body) {
            let seq = self.seq;
            let ok = serde_json::from_str::<UpsertResponse>(&resp)
                .is_ok_and(|a| a.applied == 1 && a.seq == seq + 1);
            lane.acct
                .check("check_upsert_seq", ok, || format!("ack {resp} after seq {seq}, batch 1"));
            self.seq += 1;
            self.attributed.push((node_id, t));
        }
        // 5. Delete the previous round's ids; then its first vector, asked
        // for exactly, must no longer find its own id (it would come back
        // first, with score 1, were the delete ignored).
        if !self.previous.is_empty() {
            let body = format!("{{\"ids\":{}}}", json_list(&self.previous));
            if let Some(resp) = lane.send(client, "delete", "POST", "/delete", &body) {
                let (seq, n) = (self.seq, self.previous.len() as u64);
                let ok = serde_json::from_str::<DeleteResponse>(&resp)
                    .is_ok_and(|a| a.deleted as u64 == n && a.seq == seq + n);
                lane.acct.check("check_delete_seq", ok, || {
                    format!("ack {resp} after seq {seq}, batch {n}")
                });
                for (k, id) in self.previous.iter().enumerate() {
                    self.deleted.insert(*id, seq + 1 + k as u64);
                }
                self.seq += n;
                let body = exact_body(&self.previous_first);
                if let Some(resp) = lane.send(client, "delete_readback", "POST", "/knn", &body) {
                    let verdict = parse_knn(&resp)
                        .ok_or_else(|| "unparsable answer".to_string())
                        .and_then(|a| checks::check_absent(&a, &self.previous, K));
                    lane.acct.check("check_delete_gone", verdict.is_ok(), || {
                        format!("{}: {resp}", verdict.unwrap_err())
                    });
                }
            }
        }
        self.previous = ids.clone();
        self.previous.push(node_id);
        self.previous_first = vecs[0].clone();
        self.vectors.extend(ids.into_iter().zip(vecs));
        self.round += 1;
    }
}

fn exact_body(vector: &[f32]) -> String {
    format!("{{\"vectors\":[{}],\"k\":{K},\"exact\":true}}", json_list(vector))
}

/// End-to-end serving figures (medians over slices) and the accounting of
/// every slice.
pub struct ServeResult {
    /// Reported on stderr only, like `knn_p99_us`, `upsert_p50_us` and
    /// `knn_write_p50_us`: not steady enough across runs to gate on
    /// (README).
    pub read_req_per_s: f64,
    pub knn_p50_us: f64,
    /// Over every read-slice kNN.
    pub knn_p99_us: f64,
    pub knn_samples: usize,
    pub exact_knn_p50_us: f64,
    pub write_req_per_s: f64,
    pub upsert_p50_us: f64,
    pub encode_p50_us: f64,
    /// Reader kNN latency beside the writer.
    pub knn_write_p50_us: f64,
    pub recall_at_10: f64,
    /// The first `/encode` answer of each template.
    pub template_vectors: Vec<Option<Vec<f32>>>,
    pub acct: Accounting,
}

/// Runs `SLICES` read slices in turn with `SLICES` write slices, taking
/// the workload's read and write shares of `seconds`, then checks every
/// kept answer. Read slices drive `reader` from 2 connections while
/// `writer_server` is stopped, so reads see the exported store with no
/// writer and no compaction competing for the cores; the host probe runs
/// before each read slice. Write slices drive
/// `writer_server` from 1 writer beside 1 kNN reader, with its compaction
/// backlog carried from slice to slice as in one continuous write phase.
pub fn run_phases(
    reader: &ServerProc,
    writer_server: &ServerProc,
    book: &mut VectorBook,
    plan: &Plan,
    w: &Workload,
    seconds: f64,
    probe: &mut crate::hostspeed::HostProbe,
) -> Result<ServeResult, String> {
    let read_s = w.read_share * seconds;
    // Write slices are a fixed number of writer rounds, not a fixed time:
    // the compaction backlog, and with it the cost of every request, grows
    // with the mutations applied (CHANGES.md), so slices of fixed work see
    // the same backlog on a fast host and on a slow one.
    let write_rounds =
        (w.write_share * seconds * w.write_rounds_per_s / SLICES as f64).ceil().max(1.0) as usize;
    let mut acct = Accounting::default();
    for server in [reader, writer_server] {
        let h = &server.health;
        let ok = h.nodes == book.base_len()
            && h.dim == book.dim
            && h.precision == "int8"
            && h.mutable
            && h.encode;
        acct.check("check_boot", ok, || "healthz does not describe the exported store".into());
    }
    let (read_addr, write_addr) = (reader.addr.as_str(), writer_server.addr.as_str());

    let mut writer = Writer::new(plan, writer_server.health.seq);
    let mut cursors = [0, 97, 2 * 97];
    let (mut readers, mut writes, mut write_readers) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SLICES {
        writer_server.set_stopped(true)?;
        // Both servers are idle here: the reader between slices, the
        // writer stopped.
        probe.point()?;
        let deadline = Instant::now() + Duration::from_secs_f64(read_s / SLICES as f64);
        let past_deadline = move || Instant::now() >= deadline;
        let [c0, c1, c2] = &mut cursors;
        readers.push(std::thread::scope(|s| {
            let hs: Vec<_> = [c0, c1]
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        read_lane(read_addr, plan, &READ_ROUND, c, &past_deadline, false)
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("reader thread")).collect::<Vec<_>>()
        }));
        writer_server.set_stopped(false)?;
        let writer_done = AtomicBool::new(false);
        let done = || writer_done.load(Ordering::Acquire);
        let (w, r) = std::thread::scope(|s| {
            let r = s.spawn(|| read_lane(write_addr, plan, &[Kind::Knn], c2, &done, true));
            let w = writer.slice(write_addr, plan, write_rounds);
            writer_done.store(true, Ordering::Release);
            (w, r.join().expect("reader thread"))
        });
        writes.push(w);
        write_readers.push(r);
    }

    // How far the write server's compactor is behind its writer.
    let mut stats = Lane::default();
    if let Some(body) = stats.send(&mut Client::new(write_addr), "stats", "GET", "/stats", "") {
        let store = body.split("\"store\":").nth(1).unwrap_or_default();
        let field = |key: &str| -> String {
            let rest = store.split(&format!("\"{key}\":")).nth(1).unwrap_or_default();
            rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect()
        };
        eprintln!(
            "write server after the last slice: seq {}, generation {}, pending {}, tombstones {}",
            field("seq"),
            field("generation"),
            field("pending"),
            field("tombstones")
        );
    }
    acct.merge(stats.acct);

    // Everything the server may have returned is now known.
    for (id, v) in &writer.vectors {
        book.insert(*id, v.clone());
    }
    for &(id, t) in &writer.attributed {
        if let Some(v) = &writer.template_vectors[t] {
            book.insert(id, v.clone());
        }
    }
    let truth: Vec<Vec<(u64, f64)>> = plan
        .queries
        .iter()
        .map(|&q| checks::brute_topk(book, book.get(q).expect("query row"), Some(q), K))
        .collect();
    let mut recall_sum = 0.0;
    let mut recall_n = 0usize;
    for s in readers.iter().flatten().flat_map(|l| &l.samples) {
        match s.kind {
            Kind::Knn | Kind::Exact => {
                let q = plan.queries[s.index];
                let query = book.get(q).expect("query row");
                let truth = &truth[s.index];
                let answer = parse_knn(&s.body);
                let class =
                    if s.kind == Kind::Knn { "check_knn_scores" } else { "check_exact_knn" };
                let verdict = match (&answer, s.kind) {
                    (None, _) => Err("unparsable answer".to_string()),
                    (Some(a), Kind::Knn) => {
                        recall_sum += checks::recall(a, truth);
                        recall_n += 1;
                        checks::check_scores(book, query, a).and_then(|()| {
                            if a.len() == K {
                                Ok(())
                            } else {
                                Err(format!("{} neighbors", a.len()))
                            }
                        })
                    }
                    (Some(a), _) => checks::check_exact(book, query, a, truth),
                };
                acct.check(class, verdict.is_ok(), || {
                    format!("query {q}: {}", verdict.unwrap_err())
                });
            }
            Kind::Links => {
                let pairs = plan.pair_chunk(s.index);
                let scores = serde_json::from_str::<LinkResponse>(&s.body)
                    .map(|r| r.scores)
                    .unwrap_or_default();
                let ok = scores.len() == pairs.len()
                    && pairs.iter().zip(&scores).all(|(&(u, v), &got)| {
                        let want =
                            checks::cosine(book.get(u).expect("row"), book.get(v).expect("row"));
                        (got - want).abs() <= checks::SCORE_TOL
                    });
                acct.check("check_links", ok, || {
                    format!("link scores differ from cosine: {}", s.body)
                });
            }
        }
    }
    let recall_at_10 = if recall_n == 0 { 0.0 } else { recall_sum / recall_n as f64 };
    let what = || format!("recall@10 {recall_at_10} below {}", w.recall_floor);
    if w.recall_defect {
        acct.known_defect("check_recall", recall_at_10 >= w.recall_floor, what);
    } else {
        acct.check("check_recall", recall_at_10 >= w.recall_floor, what);
    }
    for s in write_readers.iter().flat_map(|l| &l.samples) {
        let q = plan.queries[s.index];
        let verdict =
            serde_json::from_str::<KnnResponse>(&s.body).map_err(|e| e.to_string()).and_then(|r| {
                let answer: Vec<(u64, f32)> = r
                    .results
                    .first()
                    .map(|a| a.neighbors.iter().map(|n| (n.id, n.score)).collect())
                    .unwrap_or_default();
                if let Some(&(id, _)) = answer
                    .iter()
                    .find(|(id, _)| writer.deleted.get(id).is_some_and(|&d| d <= r.seq))
                {
                    return Err(format!("id {id} deleted before seq {} yet returned", r.seq));
                }
                checks::check_scores(book, book.get(q).expect("query row"), &answer)
            });
        acct.check("check_knn_write", verdict.is_ok(), || {
            format!("query {q}: {}", verdict.unwrap_err())
        });
    }

    // Each figure is the median over its slices.
    let p50 = |v: &[f64]| if v.is_empty() { f64::NAN } else { crate::stats::percentile(v, 50.0) };
    let over = |lanes: &[Lane], class: &str| -> Vec<f64> {
        lanes.iter().flat_map(|l| l.latencies(class)).copied().collect()
    };
    let slice_median = |name: &str, f: &dyn Fn(usize) -> f64| {
        let per_slice: Vec<f64> = (0..SLICES).map(f).collect();
        let shown: Vec<String> = per_slice.iter().map(|v| format!("{v:.0}")).collect();
        eprintln!("slices {name}: {}", shown.join(" "));
        median(&per_slice)
    };
    let knn: Vec<f64> = readers.iter().flat_map(|ls| over(ls, "knn")).collect();
    let result = ServeResult {
        read_req_per_s: slice_median("read_req_per_s", &|i| {
            let ls = &readers[i];
            ls.iter().map(|l| l.requests).sum::<u64>() as f64
                / ls.iter().map(|l| l.elapsed).fold(0.0, f64::max)
        }),
        knn_p50_us: slice_median("knn_p50_us", &|i| p50(&over(&readers[i], "knn"))),
        knn_p99_us: if knn.is_empty() { f64::NAN } else { crate::stats::percentile(&knn, 99.0) },
        knn_samples: knn.len(),
        exact_knn_p50_us: slice_median("exact_knn_p50_us", &|i| {
            p50(&over(&readers[i], "exact_knn"))
        }),
        write_req_per_s: slice_median("write_req_per_s", &|i| {
            writes[i].requests as f64 / writes[i].elapsed
        }),
        upsert_p50_us: slice_median("upsert_p50_us", &|i| p50(writes[i].latencies("upsert"))),
        encode_p50_us: slice_median("encode_p50_us", &|i| p50(writes[i].latencies("encode"))),
        knn_write_p50_us: slice_median("knn_write_p50_us", &|i| {
            p50(write_readers[i].latencies("knn_write"))
        }),
        recall_at_10,
        template_vectors: std::mem::take(&mut writer.template_vectors),
        acct: Accounting::default(),
    };
    for lane in readers.into_iter().flatten().chain(writes).chain(write_readers) {
        acct.merge(lane.acct);
    }
    Ok(ServeResult { acct, ..result })
}

fn parse_knn(body: &str) -> Option<Vec<(u64, f32)>> {
    let r: KnnResponse = serde_json::from_str(body).ok()?;
    Some(r.results.first()?.neighbors.iter().map(|n| (n.id, n.score)).collect())
}
