//! The three workloads and the solve each closed-loop iteration runs.
//!
//! Every solve gets a fresh runtime: the apps create their streams and tile
//! buffers on each call, so reusing one runtime would grow it solve by
//! solve. Creating that runtime (and, for the remote workload, its worker
//! process) is the set-up the benchmark times separately.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_linalg::flops;
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsRecord;
use hstreams_core::{Endpoint, ExecMode, HStreams, StreamId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Matrix side of every workload.
pub const N: usize = 1024;

/// Where worker sockets go, relative to the working directory so the path
/// stays within the Unix-socket length limit wherever the checkout lives.
const SOCK_DIR: &str = ".bench_build/sock";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Few big independent tasks: `linalg` does nearly all the work.
    MatmulNative,
    /// Many small dependent tasks: the runtime layers dominate.
    CholeskyFine,
    /// The matmul schedule on a card served by an `hs-worker` process over
    /// a Unix socket: `fabric` and its wire dominate.
    MatmulRemote,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MatmulNative,
        Workload::CholeskyFine,
        Workload::MatmulRemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatmulNative => "matmul_native",
            Workload::CholeskyFine => "cholesky_fine",
            Workload::MatmulRemote => "matmul_remote",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn tile(self) -> usize {
        match self {
            Workload::MatmulNative => 256,
            Workload::CholeskyFine => 32,
            Workload::MatmulRemote => 128,
        }
    }

    /// Compute lanes the solve's sinks run: streams × mask width. Matmul
    /// runs two width-1 streams (on the host, or on the card); Cholesky
    /// runs its panel stream, whose factorizations stay single-lane,
    /// beside one width-1 worker stream.
    pub fn lanes(self) -> usize {
        2
    }

    pub fn is_remote(self) -> bool {
        self == Workload::MatmulRemote
    }

    /// Flops of one solve, as the apps count them.
    pub fn flops(self) -> f64 {
        match self {
            Workload::CholeskyFine => flops::cholesky_total(N),
            _ => flops::matmul_total(N),
        }
    }

    /// Largest `max_err` a correct solve may show. Inputs are uniform in
    /// [0, 1); a length-N dot product of them rounds to within about
    /// N·ε·N ≈ 2e-10 (matmul), and the Cholesky check reconstructs
    /// A = B·Bᵀ + N·I, whose entries reach 2N, to within N·ε·2N ≈ 5e-10.
    pub fn tolerance(self) -> f64 {
        match self {
            Workload::CholeskyFine => 1e-8,
            _ => 1e-9,
        }
    }

    fn platform(self) -> PlatformCfg {
        match self {
            Workload::MatmulRemote => PlatformCfg::offload(Device::Hsw, 1),
            _ => PlatformCfg::native(Device::Hsw),
        }
    }

    fn matmul_cfg(self) -> MatmulConfig {
        let mut c = MatmulConfig::new(N, self.tile());
        c.streams_host = 2;
        c.streams_per_card = 2;
        c.mask_width = Some(1);
        c.host_participates = !self.is_remote();
        c.verify = true;
        c
    }

    fn chol_cfg(self) -> CholConfig {
        let mut c = CholConfig::new(N, self.tile(), CholVariant::Hetero);
        c.streams_host = 1;
        c.mask_width = Some(1);
        c.verify = true;
        c
    }

    /// Run the workload's app once on `hs`: (solve seconds, max_err,
    /// checksum).
    fn run(self, hs: &mut HStreams) -> Result<(f64, Option<f64>, Option<u64>), String> {
        let r = match self {
            Workload::CholeskyFine => {
                cholesky::run(hs, &self.chol_cfg()).map(|r| (r.secs, r.max_err, r.checksum))
            }
            _ => matmul::run(hs, &self.matmul_cfg()).map(|r| (r.secs, r.max_err, r.checksum)),
        };
        r.map_err(|e| format!("{} solve failed: {e}", self.name()))
    }
}

/// One verified solve.
pub struct Solve {
    /// Runtime creation (plus worker spawn and handshake when remote).
    pub setup_s: f64,
    /// The app's own span: first enqueue to `thread_synchronize`.
    pub solve_s: f64,
    pub trace: Option<Trace>,
}

/// What a traced solve leaves for the ledger, read through the runtime's
/// public counters once the solve has synchronized.
pub struct Trace {
    pub records: Vec<ObsRecord>,
    pub computes: u64,
    pub transfers: u64,
    pub syncs: u64,
    /// `HStreams::metrics().extra`.
    pub metrics: BTreeMap<String, f64>,
    /// Runtime clock when `metrics` was taken (the base of its DMA
    /// utilizations).
    pub now_s: f64,
    /// Per stream index: does the stream's sink live on a card?
    pub on_card: Vec<bool>,
}

/// An `hs-worker` process bound to a Unix socket. Dropping it kills the
/// process, waits for it and removes the socket. Unlike
/// `hs_apps::remote::WorkerProc`, it binds under [`SOCK_DIR`] rather than
/// the system temp directory and polls for the socket finely, since its
/// spawn is part of the timed set-up.
pub struct Worker {
    child: Child,
    sock: PathBuf,
}

impl Worker {
    /// Spawn `bin` on `sock` and wait until the socket exists.
    pub fn spawn(bin: &Path, sock: PathBuf) -> Result<Worker, String> {
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(bin)
            .arg("--uds")
            .arg(&sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut w = Worker { child, sock };
        let deadline = Instant::now() + Duration::from_secs(5);
        // Poll finely: the runtime's own connect retry sleeps 20 ms, which
        // would quantize set-up time if it raced the bind.
        while !w.sock.exists() {
            if let Ok(Some(st)) = w.child.try_wait() {
                return Err(format!("hs-worker exited before binding: {st}"));
            }
            if Instant::now() > deadline {
                return Err("hs-worker did not bind its socket within 5 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(w)
    }

    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Uds(self.sock.clone())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// Runs solves of one workload and checks each result.
pub struct Runner {
    workload: Workload,
    worker_bin: Option<PathBuf>,
    spawned: u64,
    /// The checksum of the first solve, which every later solve (and the
    /// remote workload's in-process reference) must reproduce.
    expect_checksum: Option<u64>,
}

impl Runner {
    /// `worker_bin` must name the `hs-worker` executable when the workload
    /// is remote.
    pub fn new(workload: Workload, worker_bin: Option<PathBuf>) -> Result<Runner, String> {
        if workload.is_remote() {
            match &worker_bin {
                Some(p) if p.is_file() => {}
                Some(p) => return Err(format!("hs-worker binary not found at {}", p.display())),
                None => return Err(format!("{} needs --worker <hs-worker>", workload.name())),
            }
            std::fs::create_dir_all(SOCK_DIR).map_err(|e| format!("creating {SOCK_DIR}: {e}"))?;
        }
        Ok(Runner {
            workload,
            worker_bin,
            spawned: 0,
            expect_checksum: None,
        })
    }

    /// For the remote workload, an untimed run of the same shape on an
    /// in-process card: checked like any solve, and its checksum must equal
    /// the one every remote solve reproduced (the differential suite
    /// guarantees the two transports agree bit for bit). Returns that run's
    /// solve seconds; `None` for the native workloads. Run it after the
    /// measured solves: its in-process card memory would otherwise set the
    /// process's peak RSS.
    pub fn reference(&mut self) -> Result<Option<f64>, String> {
        if !self.workload.is_remote() {
            return Ok(None);
        }
        let mut hs = HStreams::init(self.workload.platform(), ExecMode::Threads);
        let (secs, max_err, checksum) = self.workload.run(&mut hs)?;
        drop(hs);
        self.check(max_err, checksum)
            .map_err(|e| format!("in-process reference: {e}"))?;
        Ok(Some(secs))
    }

    /// Spawn a fresh `hs-worker` (remote workload only).
    pub fn spawn_worker(&mut self) -> Result<Worker, String> {
        let bin = self
            .worker_bin
            .as_ref()
            .ok_or("no hs-worker binary for a remote workload")?;
        self.spawned += 1;
        let sock =
            Path::new(SOCK_DIR).join(format!("w{}-{}.sock", std::process::id(), self.spawned));
        Worker::spawn(bin, sock)
    }

    /// One solve on a fresh runtime; `traced` switches lifecycle recording
    /// on for it. Fails when the app errors or its result is wrong.
    pub fn solve(&mut self, traced: bool) -> Result<Solve, String> {
        let t0 = Instant::now();
        let worker = if self.workload.is_remote() {
            Some(self.spawn_worker()?)
        } else {
            None
        };
        // Declared after `worker`, so dropped first: the runtime closes its
        // connections before the worker is killed.
        let mut hs = match &worker {
            Some(w) => HStreams::init_remote(
                self.workload.platform(),
                ExecMode::Threads,
                &[(1, w.endpoint())],
            )
            .map_err(|e| format!("init_remote: {e}"))?,
            None => HStreams::init(self.workload.platform(), ExecMode::Threads),
        };
        let setup_s = t0.elapsed().as_secs_f64();
        if traced {
            hs.obs_enable(true);
        }
        let (solve_s, max_err, checksum) = self.workload.run(&mut hs)?;
        let trace = traced.then(|| collect(&hs));
        drop(hs);
        drop(worker);
        self.check(max_err, checksum)?;
        Ok(Solve {
            setup_s,
            solve_s,
            trace,
        })
    }

    fn check(&mut self, max_err: Option<f64>, checksum: Option<u64>) -> Result<(), String> {
        let name = self.workload.name();
        let err = max_err.ok_or_else(|| format!("{name}: solve was not verified"))?;
        let tol = self.workload.tolerance();
        if err.is_nan() || err > tol {
            return Err(format!("{name}: max_err {err:e} exceeds tolerance {tol:e}"));
        }
        let sum = checksum.ok_or_else(|| format!("{name}: solve has no checksum"))?;
        match self.expect_checksum {
            None => self.expect_checksum = Some(sum),
            Some(want) if want != sum => {
                return Err(format!(
                    "{name}: checksum {sum:#018x} differs from reference {want:#018x}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

fn collect(hs: &HStreams) -> Trace {
    let records = hs.take_obs_records();
    let stats = hs.stats();
    let now_s = hs.now_secs();
    let metrics = hs.metrics().extra;
    let on_card = (0..hs.num_streams())
        .map(|i| {
            hs.stream_domain(StreamId(i as u32))
                .is_ok_and(|d| !d.is_host())
        })
        .collect();
    Trace {
        records,
        computes: stats.computes(),
        transfers: stats.transfers(),
        syncs: stats.syncs(),
        metrics,
        now_s,
        on_card,
    }
}
