//! The host a run was measured on, and the process's peak memory.

/// What every result is tagged with, so numbers from different hosts are
/// never compared as if they were one.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Cores this process may run on (`nproc`).
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub fma: bool,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma) = (false, false);
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2,
            fma,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
