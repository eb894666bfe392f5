//! Host speed probe: a fixed piece of work owned by the benchmark, timed at
//! quiet points all through a run, so that every timing can be scaled to a
//! reference host speed.
//!
//! On a virtual machine shared with other tenants the speed of the host
//! drifts over minutes: whole runs read 20–35% slower or faster than their
//! neighbours, every timing of a run moving together (README, "Reference
//! figures and steadiness"). A median inside the run cannot remove a
//! slowdown that covers the whole run. The probe sees the same slowdown:
//! its work — a dense f32 matrix product, a dependent walk through a
//! working set larger than the last-level cache, and TCP round trips over
//! loopback between two threads — runs the kinds of work the program runs
//! (dense kernels, scattered reads, HTTP), and none of it is the program's
//! code, so a change to the program cannot move it. Each time metric is
//! reported as `raw × REFERENCE_S / probe`, where `probe` is the median of
//! the run's probe times: the time the operation would have taken on a host
//! on which the probe takes `REFERENCE_S`. Rates are scaled the other way.
//! Training, timed in CPU time, is scaled by the compute parts alone
//! (`compute_speed`). The raw figures and the probe's median go to stderr.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::median;

/// The probe's median time on the reference host (a 2-vCPU Intel Xeon
/// virtual machine with light load from other tenants). Only the scale of
/// the reported figures depends on it.
pub const REFERENCE_S: f64 = 0.013;
/// The median time of the probe's compute parts (matrix product and
/// dependent walk) on the reference host.
pub const REFERENCE_COMPUTE_S: f64 = 0.0087;

/// Rows of the left operand of the probe's matrix product.
const GEMM_M: usize = 64;
/// Inner and output width of the matrix product.
const GEMM_N: usize = 256;
/// Matrix products per probe.
const GEMM_REPS: usize = 5;
/// Slots of the dependent walk: 8M `u32`, 32 MiB.
const CHASE_SLOTS: usize = 1 << 23;
/// Steps of the dependent walk per probe.
const CHASE_STEPS: usize = 20_000;
/// Loopback round trips per probe.
const PINGS: usize = 120;
/// Bytes per loopback message.
const PING_BYTES: usize = 64;
/// Probes per quiet point.
const PROBES_PER_POINT: usize = 3;

/// The probe's inputs, built once per run, and the times it has taken.
pub struct HostProbe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// A single random cycle through every slot.
    next: Vec<u32>,
    cursor: u32,
    stream: TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
    /// Probe times in seconds: whole probes, then each part.
    pub totals: Vec<f64>,
    parts: [Vec<f64>; 3],
}

impl HostProbe {
    /// Builds the probe's inputs from a fixed seed (the same work on every
    /// run, whatever the workload's seed) and starts its echo thread.
    pub fn new() -> Result<Self, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0f_4057);
        let a = (0..GEMM_M * GEMM_N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b = (0..GEMM_N * GEMM_N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Sattolo's algorithm: a permutation made of one cycle, so the walk
        // visits every slot before it repeats.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = rng.gen_range(0..i);
            next.swap(i, j);
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else { return };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; PING_BYTES];
            while s.read_exact(&mut buf).is_ok() {
                if s.write_all(&buf).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(HostProbe {
            a,
            b,
            c: vec![0.0; GEMM_M * GEMM_N],
            next,
            cursor: 0,
            stream,
            echo: Some(echo),
            totals: Vec::new(),
            parts: Default::default(),
        })
    }

    /// Runs the probe `PROBES_PER_POINT` times and records each time. Call
    /// it only where nothing else of the benchmark runs.
    pub fn point(&mut self) -> Result<(), String> {
        for _ in 0..PROBES_PER_POINT {
            let t0 = Instant::now();
            self.gemm();
            let t1 = Instant::now();
            self.chase();
            let t2 = Instant::now();
            self.ping()?;
            let t3 = Instant::now();
            self.totals.push((t3 - t0).as_secs_f64());
            for (part, (from, to)) in self.parts.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                part.push((to - from).as_secs_f64());
            }
        }
        Ok(())
    }

    fn gemm(&mut self) {
        for _ in 0..GEMM_REPS {
            self.c.iter_mut().for_each(|x| *x = 0.0);
            for i in 0..GEMM_M {
                let row = &mut self.c[i * GEMM_N..(i + 1) * GEMM_N];
                for k in 0..GEMM_N {
                    let aik = self.a[i * GEMM_N + k];
                    let bk = &self.b[k * GEMM_N..(k + 1) * GEMM_N];
                    for (c, b) in row.iter_mut().zip(bk) {
                        *c += aik * b;
                    }
                }
            }
            std::hint::black_box(&mut self.c);
        }
    }

    fn chase(&mut self) {
        let mut at = self.cursor;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.cursor = std::hint::black_box(at);
    }

    fn ping(&mut self) -> Result<(), String> {
        let mut buf = [7u8; PING_BYTES];
        for _ in 0..PINGS {
            self.stream.write_all(&buf).map_err(|e| format!("probe ping: {e}"))?;
            self.stream.read_exact(&mut buf).map_err(|e| format!("probe pong: {e}"))?;
        }
        Ok(())
    }

    /// Median probe time of the run, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.totals)
    }

    /// `REFERENCE_S` over the run's median probe time: above 1 on a host
    /// faster than the reference, below 1 on a slower one.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / self.median_s()
    }

    /// The same from the compute parts alone (matrix product and dependent
    /// walk), for timings of work that makes no round trips. Loopback
    /// round trips wait for the other thread to be scheduled, and when
    /// other tenants take the host's CPUs they slow far more than compute
    /// does (3.4 → 10.7 ms at 17% steal, against 8.9 → 10.7 ms for the
    /// compute parts).
    pub fn compute_speed(&self) -> f64 {
        let compute: Vec<f64> =
            self.parts[0].iter().zip(&self.parts[1]).map(|(g, w)| g + w).collect();
        REFERENCE_COMPUTE_S / median(&compute)
    }

    /// One line for stderr: probe count, median and its parts.
    pub fn describe(&self) -> String {
        let ms = |v: &[f64]| median(v) * 1e3;
        format!(
            "host probe: {} probes, median {:.3} ms (matrix product {:.3}, dependent walk {:.3}, \
             loopback {:.3}), speed {:.4} of the reference, compute speed {:.4}",
            self.totals.len(),
            self.median_s() * 1e3,
            ms(&self.parts[0]),
            ms(&self.parts[1]),
            ms(&self.parts[2]),
            self.speed(),
            self.compute_speed()
        )
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        // Closing the client end ends the echo thread's read loop.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_every_part_and_stops_its_thread() {
        let mut p = HostProbe::new().unwrap();
        p.point().unwrap();
        assert_eq!(p.totals.len(), PROBES_PER_POINT);
        assert!(p.parts.iter().all(|v| v.len() == PROBES_PER_POINT));
        assert!(p.totals.iter().all(|&t| t > 0.0));
        assert!(p.speed() > 0.0 && p.speed().is_finite());
        assert!(p.compute_speed() > 0.0 && p.compute_speed().is_finite());
        drop(p);
    }

    #[test]
    fn the_walk_is_one_cycle() {
        let p = HostProbe::new().unwrap();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = p.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
    }
}
