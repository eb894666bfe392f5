//! End-to-end and per-layer benchmark of the CoANE pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-cora|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the traced pipeline and reports per-layer metrics
//! instead. Either way the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the per-class
//! accounting goes to stderr. See README.md for the workloads.

mod checks;
mod client;
mod hostspeed;
mod serving;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use coane_core::{Coane, CoaneConfig, CoaneModel};
use coane_graph::EdgeSplit;
use coane_nn::Matrix;

use checks::VectorBook;
use hostspeed::HostProbe;
use stats::{median, Accounting};
use workload::Workload;

/// Set-up repeats at the start of a run; set-up time is the median of all
/// repeats.
const SETUP_REPS: usize = 3;
/// Further set-up repeats before each timed fit, where set-up is only
/// generate and split (`train-cora`, ~15 ms). On a shared 2-vCPU virtual
/// machine the repeats of one run switched between ≈ 11 and ≈ 15 ms every
/// few seconds, so repeats spread over the fits give a steadier median
/// than a burst at the start.
const SETUP_REPS_PER_FIT: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => (out.workload, seen[0]) = (value.clone(), true),
            "--seed" => (out.seed, seen[1]) = (value.parse().map_err(|_| bad("an integer"))?, true),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                (out.seconds, seen[2]) = (s, true);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seen.iter().any(|s| !s) {
        return Err("usage: --workload NAME --seed N --seconds S --trace 0|1".into());
    }
    Ok(out)
}

type Metrics = trace::Metrics;

/// Spare server boots (killed once up) come first, until the boots have
/// taken `BOOT_MIN_S` (at most `MAX_SPARE_BOOTS`); then the reader, which
/// serves the read slices, and the writer, which serves the write slices.
/// Boot time is the median of all boots.
const BOOT_MIN_S: f64 = 2.0;
const MAX_SPARE_BOOTS: usize = 5;

/// Fit timings and the first fit's embedding bits, across a run's fits.
#[derive(Default)]
struct FitLog {
    /// CPU time of the training call and of epochs 2..N (every thread of
    /// the process), and the training call's wall time.
    fit_cpu_s: Vec<f64>,
    epoch_cpu_ms: Vec<f64>,
    fit_wall_s: Vec<f64>,
    first_bits: Option<Vec<u32>>,
    /// Peak RSS right after the first fit.
    first_fit_rss: Option<f64>,
}

/// One timed fit of `cfg` on the split's training graph, with its output
/// checks; every repeat must reproduce the first fit's bits.
fn fit(
    w: &Workload,
    cfg: &CoaneConfig,
    split: &EdgeSplit,
    log: &mut FitLog,
    acct: &mut Accounting,
) -> Result<(Matrix, CoaneModel), String> {
    let mut deltas = Vec::new();
    let t0 = Instant::now();
    let cpu0 = stats::process_cpu_s();
    let mut last = cpu0;
    let out = Coane::new(cfg.clone()).try_fit_full(&split.train_graph, None, |_, _| {
        let now = stats::process_cpu_s();
        deltas.push((now - last) * 1e3);
        last = now;
    });
    log.fit_cpu_s.push(stats::process_cpu_s() - cpu0);
    log.fit_wall_s.push(t0.elapsed().as_secs_f64());
    let (z, model, stats) = out.map_err(|e| format!("training failed: {e}"))?;
    acct.attempt("fit", true);
    log.epoch_cpu_ms.extend_from_slice(&deltas[1..]);
    check_fit(w, cfg.embed_dim, split, &z, &stats, acct);
    let bits: Vec<u32> = z.as_slice().iter().map(|x| x.to_bits()).collect();
    match &log.first_bits {
        None => {
            log.first_bits = Some(bits);
            log.first_fit_rss = crate::stats::peak_rss_mib("self");
        }
        Some(first) => acct.check("check_fit_repeat", *first == bits, || {
            "a repeated fit changed the embedding".into()
        }),
    }
    Ok((z, model))
}

/// Runs the host probe at a quiet point of the run. The probe's buffers
/// (32 MiB) are made at its first point after the first fit, so that they
/// stay out of `train_peak_rss_mib`, read right after that fit.
fn probe_point(probe: &mut Option<HostProbe>, log: &FitLog) -> Result<(), String> {
    if log.first_fit_rss.is_none() {
        return Ok(());
    }
    match probe {
        Some(p) => p.point(),
        None => probe.insert(HostProbe::new()?).point(),
    }
}

/// The untraced run: set-up, timed fits, export, boot, read and write
/// slices, then the checks.
fn run_e2e(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    acct: &mut Accounting,
) -> Result<Metrics, String> {
    let cfg = w.train_config(seed);
    let mut log = FitLog::default();
    let mut probe = None;
    // Set-up, several times: generate and split; on `serve` also train the
    // store and export it.
    let mut setup_s = Vec::new();
    let mut state = None;
    while setup_s.len() < SETUP_REPS {
        probe_point(&mut probe, &log)?;
        let started = Instant::now();
        let split = w.split(&w.generate(seed), seed);
        let fitted = if w.train_share == 0.0 {
            let (z, model) = fit(w, &cfg, &split, &mut log, acct)?;
            serving::export(dir, &z, &model, &cfg, &split.train_graph)?;
            Some((z, model))
        } else {
            None
        };
        setup_s.push(started.elapsed().as_secs_f64());
        state = Some((split, fitted));
    }
    let (split, fitted) = state.expect("at least one set-up");
    let g = &split.train_graph;

    // Whole fits until the training share of the run is spent, after one
    // untimed (but checked) fit: a process's first fit runs slower than
    // the ones after it, and mixing the two would make the medians jump.
    let (z, model) = match fitted {
        Some(f) => f,
        None => {
            fit(w, &cfg, &split, &mut log, acct)?;
            log.fit_cpu_s.clear();
            log.epoch_cpu_ms.clear();
            log.fit_wall_s.clear();
            let started = Instant::now();
            loop {
                probe_point(&mut probe, &log)?;
                for _ in 0..SETUP_REPS_PER_FIT {
                    let started = Instant::now();
                    std::hint::black_box(w.split(&w.generate(seed), seed));
                    setup_s.push(started.elapsed().as_secs_f64());
                }
                let f = fit(w, &cfg, &split, &mut log, acct)?;
                if started.elapsed().as_secs_f64() >= w.train_share * seconds {
                    serving::export(dir, &f.0, &f.1, &cfg, g)?;
                    break f;
                }
            }
        }
    };
    // Training's footprint is taken after the first fit: later fits of the
    // same process can raise the high-water mark through allocator state
    // alone (132 → 188 MiB on one Cora seed), which is not training work.
    let train_rss = log.first_fit_rss.ok_or("VmHWM unavailable")?;

    let mut boot_s: Vec<f64> = Vec::new();
    let mut servers = Vec::new();
    while boot_s.len() < MAX_SPARE_BOOTS && boot_s.iter().sum::<f64>() < BOOT_MIN_S {
        probe_point(&mut probe, &log)?;
        boot_s.push(serving::ServerProc::boot(dir, "spare")?.boot_s);
        acct.attempt("boot", true);
    }
    for name in ["reader", "writer"] {
        probe_point(&mut probe, &log)?;
        let s = serving::ServerProc::boot(dir, name)?;
        acct.attempt("boot", true);
        boot_s.push(s.boot_s);
        servers.push(s);
    }
    let [reader, writer] = &servers[..] else { unreachable!("two serving boots") };
    let mut probe = probe.expect("probed before the boots");
    let mut book = VectorBook::new(z.as_slice().to_vec(), z.cols());
    let plan = serving::Plan::new(g, z.cols(), seed);
    let res = serving::run_phases(reader, writer, &mut book, &plan, w, seconds, &mut probe)?;
    // The read server's peak: boot and read slices. The write server's
    // depends on how many compaction folds finish before the run ends
    // (87–119 MiB across four `serve` seeds), so it goes to stderr only.
    let server_rss = reader.peak_rss_mib().ok_or("server VmHWM unavailable")?;
    let writer_rss = writer.peak_rss_mib().ok_or("server VmHWM unavailable")?;
    eprintln!("write server peak RSS: {writer_rss:.1} MiB");
    drop(servers);
    acct.merge(res.acct);
    eprintln!(
        "read slices: {} kNN latencies, p99 {:.0} us, recall@10 {:.4}, {:.0} requests/s; \
         write slices: reader kNN p50 {:.0} us, upsert p50 {:.0} us",
        res.knn_samples,
        res.knn_p99_us,
        res.recall_at_10,
        res.read_req_per_s,
        res.knn_write_p50_us,
        res.upsert_p50_us
    );
    check_encode(&plan, &res.template_vectors, &model, &cfg, dir, g, acct)?;

    // Timings as measured, then scaled to the reference host speed
    // (hostspeed.rs): times by the speed, rates by its inverse. Training is
    // timed in CPU time, which leaves out the time other tenants take, and
    // scaled by the probe's compute parts alone (README, "Host speed
    // probe").
    let (speed, compute_speed) = (probe.speed(), probe.compute_speed());
    eprintln!("{}", probe.describe());
    eprintln!("fit wall time: median {:.6} s", median(&log.fit_wall_s));
    let raw = [
        ("setup_s", "s", median(&setup_s), speed),
        ("fit_cpu_s", "s", median(&log.fit_cpu_s), compute_speed),
        ("epoch_cpu_ms", "ms", median(&log.epoch_cpu_ms), compute_speed),
        ("boot_s", "s", median(&boot_s), speed),
        ("knn_p50_us", "us", res.knn_p50_us, speed),
        ("exact_knn_p50_us", "us", res.exact_knn_p50_us, speed),
        ("write_req_per_s", "1/s", res.write_req_per_s, speed),
        ("encode_p50_us", "us", res.encode_p50_us, speed),
    ];
    let mut metrics =
        vec![("peak_rss_mib", "MiB", server_rss), ("train_peak_rss_mib", "MiB", train_rss)];
    for (name, unit, v, speed) in raw {
        let scaled = if unit == "1/s" { v / speed } else { v * speed };
        eprintln!("{name}: {v:.6} {unit} as measured, {scaled:.6} {unit} at the reference speed");
        metrics.push((name, unit, scaled));
    }
    Ok(metrics)
}

/// Each template's served `/encode` answer against `embed_nodes` on the
/// graph extended by the template: under the configuration the server
/// loaded from the persisted model (a check), and under the training
/// configuration (a known-defect probe: the persisted model loses the
/// training seed, CHANGES.md).
fn check_encode(
    plan: &serving::Plan,
    served: &[Option<Vec<f32>>],
    model: &CoaneModel,
    cfg: &CoaneConfig,
    dir: &Path,
    g: &coane_graph::AttributedGraph,
    acct: &mut Accounting,
) -> Result<(), String> {
    let (_, persisted) =
        coane_core::load_model(&dir.join("model.json")).map_err(|e| e.to_string())?;
    for (t, v) in plan.templates.iter().zip(served) {
        let Some(v) = v else { continue };
        let extended = trace::extend(g, &t.unseen());
        let new = [g.num_nodes() as coane_graph::NodeId];
        let same = |c: &CoaneConfig| {
            coane_core::embed_nodes(model, c, &extended, &new).as_slice() == v.as_slice()
        };
        acct.check("check_encode_persisted", same(&persisted), || {
            "served /encode differs from embed_nodes under the persisted config".into()
        });
        acct.known_defect("check_encode_trained", same(cfg), || {
            "served /encode differs from embed_nodes under the training config".into()
        });
    }
    Ok(())
}

/// Output checks on one fit: shape, finiteness, falling loss, and the
/// held-out link AUC by the benchmark's own rank sum.
fn check_fit(
    w: &Workload,
    d: usize,
    split: &EdgeSplit,
    z: &Matrix,
    stats: &coane_core::TrainStats,
    acct: &mut Accounting,
) {
    let n = split.train_graph.num_nodes();
    acct.check(
        "check_embedding",
        z.shape() == (n, d) && z.as_slice().iter().all(|x| x.is_finite()),
        || format!("embedding {:?} not finite {n}×{d}", z.shape()),
    );
    let losses = &stats.epoch_losses;
    acct.check("check_loss", losses.len() >= 2 && losses.last() < losses.first(), || {
        format!("losses {losses:?} did not fall")
    });
    let auc = checks::link_auc(z.as_slice(), d, &split.test_pos, &split.test_neg);
    acct.check("check_auc", auc >= w.auc_floor, || format!("AUC {auc} below {}", w.auc_floor));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve-child") {
        let dir = PathBuf::from(args.get(1).cloned().unwrap_or_default());
        let name = args.get(2).map_or("server", String::as_str);
        if let Err(e) = serving::child_main(&dir, name) {
            eprintln!("server: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("unknown workload {:?} (train-cora, serve)", args.workload);
        std::process::exit(2);
    };
    let out = PathBuf::from(".bench_out");
    let dir = out.join(format!("run-{}-{}-{}", w.name, args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut acct = Accounting::default();
    let result = if args.trace {
        let trace_path = out.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        trace::run(&w, args.seed, &dir, &trace_path, &mut acct)
    } else {
        run_e2e(&w, args.seed, args.seconds, &dir, &mut acct)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            std::process::exit(1);
        }
    };
    if let Some((name, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("{}: metric {name} is {v}", w.name);
        std::process::exit(1);
    }
    eprintln!("{} seed {}: operations by class\n{}", w.name, args.seed, acct.table());
    for f in &acct.check_failures {
        eprintln!("FAILED CHECK {f}");
    }
    for f in &acct.known_failures {
        eprintln!("KNOWN DEFECT {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        acct.check_failures.is_empty(),
        acct.attempted(),
        acct.failed(),
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_and_rejects_the_rest() {
        let a = parse_args(&args("--workload serve --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve", 7, 20.0, true));
        assert!(parse_args(&args("--workload serve --seed 7 --seconds 20")).is_err());
        assert!(parse_args(&args("--workload serve --seed x --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(
            parse_args(&args("--workload serve --seed 1 --seconds 2 --trace 0 --extra 1")).is_err()
        );
    }
}
