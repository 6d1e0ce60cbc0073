//! Bare-layer probes, run outside the timed solves: the `hs_linalg`
//! kernels a workload's tasks call, at the workload's tile shapes on one
//! lane; a plain single-thread solve of the whole problem; and the remote
//! transport's `ping` and `write` on a connection of their own.

use crate::stats::median;
use crate::workload::{Worker, Workload, N};
use hs_fabric::{RemoteDomain, Transport};
use hs_linalg::blas3::{dgemm, dgemm_nt, dsyrk_ln, dtrsm_rlt};
use hs_linalg::dense::{random, Matrix};
use hs_linalg::factor::dpotrf;
use hs_linalg::flops;
use hstreams_core::ChaosHub;
use std::hint::black_box;
use std::time::Instant;

/// Minimum measured time per kernel probe (repeated between traced
/// solves), and its call-count bounds.
const KERNEL_PROBE_S: f64 = 0.05;
const KERNEL_MIN_CALLS: usize = 30;
const KERNEL_MAX_CALLS: usize = 20_000;
/// Repetitions of the whole-problem serial solve.
const SERIAL_REPS: usize = 3;
/// Round trips of the transport probes.
const PINGS: usize = 200;
const WRITES: usize = 50;

/// A kernel as the workload's tasks call it, timed alone.
pub struct KernelProbe {
    /// The task function name the kernel serves.
    pub func: &'static str,
    /// Median seconds per call.
    pub secs: f64,
    pub flops: f64,
}

/// The remote transport, timed alone.
pub struct WireProbe {
    pub ping_us: f64,
    /// Median seconds per `write` of one tile.
    pub write_s: f64,
    pub bytes: usize,
}

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median of the seconds `one_call` returns over repeated calls. Each call
/// restores its inputs untimed and then times one kernel call with
/// [`timed`], so in-place kernels never see their own output.
fn time_calls(mut one_call: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < KERNEL_MAX_CALLS
        && (total < KERNEL_PROBE_S || samples.len() < KERNEL_MIN_CALLS)
    {
        let dt = one_call();
        total += dt;
        samples.push(dt);
    }
    median(&samples).expect("at least one call")
}

/// A symmetric, strictly diagonally dominant (hence SPD) n×n matrix.
fn spd(n: usize, seed: u64) -> Matrix {
    let mut a = random(n, n, seed);
    for i in 0..n {
        for j in 0..i {
            let v = a.at(i, j);
            a.set(j, i, v);
        }
        a.set(i, i, a.at(i, i) + n as f64);
    }
    a
}

/// The single-lane kernels behind each task function of `w`, at its tile.
pub fn kernels(w: Workload, seed: u64) -> Vec<KernelProbe> {
    let t = w.tile();
    let a = random(t, t, seed).into_vec();
    let b = random(t, t, seed ^ 1).into_vec();
    let c0 = random(t, t, seed ^ 2).into_vec();
    let mut c = c0.clone();
    let gemm = |f: &'static str, nt: bool, c: &mut Vec<f64>| KernelProbe {
        func: f,
        secs: time_calls(|| {
            let k = if nt { dgemm_nt } else { dgemm };
            timed(|| k(-1.0, black_box(&a), black_box(&b), 1.0, c, t, t, t))
        }),
        flops: flops::gemm(t, t, t),
    };
    match w {
        Workload::MatmulNative | Workload::MatmulRemote => {
            vec![gemm("tile_gemm_nn", false, &mut c)]
        }
        Workload::CholeskyFine => {
            let s0 = spd(t, seed ^ 3).into_vec();
            let mut l = s0.clone();
            dpotrf(&mut l, t).expect("diagonally dominant tile is SPD");
            let mut s = s0.clone();
            let potrf = KernelProbe {
                func: "tile_potrf",
                secs: time_calls(|| {
                    s.copy_from_slice(&s0);
                    timed(|| dpotrf(black_box(&mut s), t).expect("SPD"))
                }),
                flops: flops::potrf(t),
            };
            let mut x = c0.clone();
            let trsm = KernelProbe {
                func: "tile_trsm",
                secs: time_calls(|| {
                    x.copy_from_slice(&c0);
                    timed(|| dtrsm_rlt(black_box(&l), black_box(&mut x), t, t))
                }),
                flops: flops::trsm(t, t),
            };
            let mut y = c0.clone();
            let syrk = KernelProbe {
                func: "tile_syrk",
                secs: time_calls(|| {
                    y.copy_from_slice(&c0);
                    timed(|| dsyrk_ln(black_box(&a), black_box(&mut y), t, t))
                }),
                flops: flops::syrk(t, t),
            };
            vec![potrf, trsm, syrk, gemm("tile_gemm_nt", true, &mut c)]
        }
    }
}

/// Per task function, the median over `runs` of its probed seconds.
pub fn median_kernels(runs: &[Vec<KernelProbe>]) -> Vec<KernelProbe> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|k| {
            let secs: Vec<f64> = runs
                .iter()
                .flatten()
                .filter(|r| r.func == k.func)
                .map(|r| r.secs)
                .collect();
            KernelProbe {
                func: k.func,
                secs: median(&secs).expect("the first run probed this function"),
                flops: k.flops,
            }
        })
        .collect()
}

/// Median seconds of a plain single-thread solve of the whole N×N problem:
/// one `dgemm` (matmul) or one `dpotrf` (Cholesky).
pub fn serial(w: Workload, seed: u64) -> f64 {
    let mut secs = Vec::new();
    match w {
        Workload::CholeskyFine => {
            let a0 = spd(N, seed).into_vec();
            let mut a = a0.clone();
            for _ in 0..SERIAL_REPS {
                a.copy_from_slice(&a0);
                let t = Instant::now();
                dpotrf(black_box(&mut a), N).expect("diagonally dominant matrix is SPD");
                secs.push(t.elapsed().as_secs_f64());
            }
        }
        _ => {
            let a = random(N, N, seed).into_vec();
            let b = random(N, N, seed ^ 1).into_vec();
            let mut c = vec![0.0; N * N];
            for _ in 0..SERIAL_REPS {
                let t = Instant::now();
                dgemm(1.0, black_box(&a), black_box(&b), 0.0, &mut c, N, N, N);
                black_box(&c);
                secs.push(t.elapsed().as_secs_f64());
            }
        }
    }
    median(&secs).expect("SERIAL_REPS > 0")
}

/// `Transport::ping` and `Transport::write` of one `bytes`-long tile over
/// one connection to `worker`, from this thread alone.
pub fn wire(worker: &Worker, bytes: usize, seed: u64) -> Result<WireProbe, String> {
    let link = RemoteDomain::connect(&worker.endpoint(), 1, ChaosHub::new())
        .map_err(|e| format!("probe connect: {e}"))?;
    let err = |e: hs_fabric::TransportError| format!("transport probe: {e}");
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        link.ping().map_err(err)?;
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let payload: Vec<u8> = random(1, bytes / 8, seed)
        .into_vec()
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    const WIN: u64 = 1;
    link.alloc(WIN, bytes).map_err(err)?;
    let mut writes = Vec::with_capacity(WRITES);
    for _ in 0..WRITES {
        let t = Instant::now();
        link.write(WIN, 0, &payload).map_err(err)?;
        writes.push(t.elapsed().as_secs_f64());
    }
    link.free(WIN).map_err(err)?;
    Ok(WireProbe {
        ping_us: median(&pings).expect("PINGS > 0"),
        write_s: median(&writes).expect("WRITES > 0"),
        bytes: payload.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(func: &'static str, secs: f64) -> KernelProbe {
        KernelProbe {
            func,
            secs,
            flops: 1.0,
        }
    }

    #[test]
    fn kernel_runs_fold_to_per_function_medians() {
        let runs = vec![
            vec![probe("a", 1.0), probe("b", 10.0)],
            vec![probe("a", 3.0), probe("b", 30.0)],
            vec![probe("a", 2.0), probe("b", 20.0)],
        ];
        let m = median_kernels(&runs);
        assert_eq!(m.len(), 2);
        assert_eq!((m[0].func, m[0].secs), ("a", 2.0));
        assert_eq!((m[1].func, m[1].secs), ("b", 20.0));
        assert!(median_kernels(&[]).is_empty());
    }
}
