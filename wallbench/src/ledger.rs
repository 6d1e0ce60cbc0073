//! The metrics a run reports: end-to-end ones from untraced solves, and
//! the per-layer ones of a traced run, with the ledger that splits lane
//! time into bare kernel work, sink overhead and idle time.
//!
//! Layers follow the real-mode path: `apps` → `core` (front-end enqueue,
//! dependence analysis) → `exec` (the thread executor's dispatch) → `coi`
//! (pipelines and their sinks) → `fabric` (DMA engines and the worker
//! wire) → `linalg` (kernels). A layer a workload never enters reports
//! explicit zeros.

use crate::phases::{lifecycles, Lifecycle};
use crate::probes::{KernelProbe, WireProbe};
use crate::stats::{median, percentile, tail};
use crate::workload::{Solve, Trace, Workload};
use hs_obs::ObsKind;
use std::collections::BTreeMap;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What the traced run measured besides its solves.
pub struct Probes {
    pub kernels: Vec<KernelProbe>,
    /// Seconds of the plain single-thread whole-problem solve.
    pub serial_s: f64,
    pub wire: Option<WireProbe>,
    /// Solve seconds of the same schedule on an in-process card (remote
    /// workload only).
    pub in_process_s: Option<f64>,
}

/// Sum of the `metrics().extra` values whose key starts with `prefix` and
/// ends with `suffix` (one entry per card).
fn sum_keys(m: &BTreeMap<String, f64>, prefix: &str, suffix: &str) -> f64 {
    m.iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .fold(0.0, |acc, (_, v)| acc + v)
}

/// Median over traced solves of a per-solve quantity (0 with no solves).
fn per_solve(
    solves: &[(&Solve, &Trace, Vec<Lifecycle>)],
    f: impl Fn(&Solve, &Trace, &[Lifecycle]) -> f64,
) -> f64 {
    let xs: Vec<f64> = solves.iter().map(|(s, t, l)| f(s, t, l)).collect();
    median(&xs).unwrap_or(0.0)
}

/// Pooled per-action durations over all traced solves.
fn pooled(
    solves: &[(&Solve, &Trace, Vec<Lifecycle>)],
    f: impl Fn(&Trace, &Lifecycle) -> Option<f64>,
) -> Vec<f64> {
    solves
        .iter()
        .flat_map(|(_, t, lcs)| lcs.iter().filter_map(|lc| f(t, lc)).collect::<Vec<_>>())
        .collect()
}

fn compute_on_card(t: &Trace, lc: &Lifecycle) -> bool {
    lc.kind == ObsKind::Compute && t.on_card.get(lc.stream as usize).copied().unwrap_or(false)
}

/// The bare-kernel probe behind each compute task of one solve.
fn task_kernels<'a>(
    lcs: &'a [Lifecycle],
    kernels: &'a [KernelProbe],
) -> impl Iterator<Item = &'a KernelProbe> {
    lcs.iter()
        .filter(|lc| lc.kind == ObsKind::Compute)
        .filter_map(|lc| kernels.iter().find(|k| k.func == lc.func))
}

/// Σ bare single-lane kernel seconds of one solve's compute tasks.
fn bare_kernel_s(lcs: &[Lifecycle], kernels: &[KernelProbe]) -> f64 {
    task_kernels(lcs, kernels).fold(0.0, |acc, k| acc + k.secs)
}

/// Σ flops / Σ bare seconds over one solve's compute tasks, in GF/s.
fn tile_gflops(lcs: &[Lifecycle], kernels: &[KernelProbe]) -> f64 {
    let (fl, s) =
        task_kernels(lcs, kernels).fold((0.0, 0.0), |(fl, s), k| (fl + k.flops, s + k.secs));
    if s > 0.0 {
        fl / s / 1e9
    } else {
        0.0
    }
}

/// Seconds from a solve's first to its last enqueue.
fn enqueue_span_s(lcs: &[Lifecycle]) -> f64 {
    let first = lcs.iter().map(|l| l.enqueued).min().unwrap_or(0);
    let last = lcs.iter().map(|l| l.enqueued).max().unwrap_or(0);
    (last - first) as f64 / 1e9
}

/// The end-to-end metrics of `w` from untraced solve and set-up times, and
/// the process's peak RSS.
pub fn end_to_end(w: Workload, solve_s: &[f64], setup_s: &[f64], rss_mb: f64) -> Vec<Metric> {
    let p50 = median(solve_s).unwrap_or(0.0);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("solve_s.p50", p50, "s"),
        m("solve_s.tail", tail(solve_s).map_or(0.0, |t| t.value), "s"),
        m(
            "gflops",
            if p50 > 0.0 {
                w.flops() / p50 / 1e9
            } else {
                0.0
            },
            "GF/s",
        ),
        m("setup_s", median(setup_s).unwrap_or(0.0), "s"),
        m("rss_peak_mb", rss_mb, "MB"),
    ]
}

/// Every per-layer metric of workload `w`. `untraced_p50` is the median
/// solve time of the same run's untraced solves.
pub fn per_layer(w: Workload, untraced_p50: f64, traced: &[Solve], probes: &Probes) -> Vec<Metric> {
    let lanes = w.lanes() as f64;
    let solves: Vec<(&Solve, &Trace, Vec<Lifecycle>)> = traced
        .iter()
        .filter_map(|s| s.trace.as_ref().map(|t| (s, t, lifecycles(&t.records))))
        .collect();
    let p50 = |xs: &[f64]| percentile(xs, 50.0);
    let p99 = |xs: &[f64]| percentile(xs, 99.0);

    let actions = per_solve(&solves, |_, t, _| {
        (t.computes + t.transfers + t.syncs) as f64
    });
    let enqueue_s = per_solve(&solves, |_, _, lcs| enqueue_span_s(lcs));
    let enqueue_us_per_action = per_solve(&solves, |_, _, lcs| {
        enqueue_span_s(lcs) * 1e6 / lcs.len().max(1) as f64
    });
    let deps_wait = pooled(&solves, |_, lc| lc.deps_wait_us());
    let dispatch = pooled(&solves, |_, lc| lc.dispatch_us());
    let is_compute = |lc: &Lifecycle| lc.kind == ObsKind::Compute;
    let queue_wait = pooled(&solves, |_, lc| {
        lc.queue_wait_us().filter(|_| is_compute(lc))
    });
    let task = pooled(&solves, |_, lc| lc.run_us().filter(|_| is_compute(lc)));
    let sink_busy = |lcs: &[Lifecycle]| {
        lcs.iter()
            .filter(|lc| is_compute(lc))
            .filter_map(Lifecycle::run_us)
            .fold(0.0, |acc, us| acc + us)
            / 1e6
    };
    let sink_busy_s = per_solve(&solves, |_, _, lcs| sink_busy(lcs));
    let sink_util = per_solve(&solves, |s, _, lcs| sink_busy(lcs) / (lanes * s.solve_s));

    let tile_gf = per_solve(&solves, |_, _, lcs| tile_gflops(lcs, &probes.kernels));
    let kernel_bound_s = if tile_gf > 0.0 {
        w.flops() / (lanes * tile_gf * 1e9)
    } else {
        0.0
    };

    let is_card_xfer = |lc: &Lifecycle| lc.kind == ObsKind::Transfer && lc.card.is_some();
    let xfer = pooled(&solves, |_, lc| lc.run_us().filter(|_| is_card_xfer(lc)));
    let (xfer_bytes, xfer_s) = solves
        .iter()
        .flat_map(|(_, _, lcs)| lcs.iter().filter(|lc| is_card_xfer(lc)))
        .filter_map(|lc| lc.run_us().map(|us| (lc.bytes as f64, us / 1e6)))
        .fold((0.0, 0.0), |(b, s), (lb, ls)| (b + lb, s + ls));
    let dma = |dir: &str, what: &str| {
        per_solve(&solves, |_, t, _| {
            sum_keys(&t.metrics, "dma.c", &format!(".{dir}.{what}"))
        })
    };
    let dma_util = |dir: &str| {
        per_solve(&solves, |s, t, _| {
            // The runtime reports busy / its own uptime; rescale to the solve.
            sum_keys(&t.metrics, "dma.c", &format!(".{dir}.utilization")) * t.now_s / s.solve_s
        })
    };
    let h2d_bytes = dma("h2d", "bytes");
    let d2h_bytes = dma("d2h", "bytes");
    let wire_bytes = per_solve(&solves, |_, t, _| {
        sum_keys(&t.metrics, "link.c", ".tx_bytes") + sum_keys(&t.metrics, "link.c", ".rx_bytes")
    });
    let payload = h2d_bytes + d2h_bytes;
    let rpc = pooled(&solves, |t, lc| {
        lc.run_us().filter(|_| compute_on_card(t, lc))
    });

    let bare_s = |lcs: &[Lifecycle]| bare_kernel_s(lcs, &probes.kernels);
    let kernel_frac = per_solve(&solves, |s, _, lcs| bare_s(lcs) / (lanes * s.solve_s));
    let overhead_frac = per_solve(&solves, |s, _, lcs| {
        (sink_busy(lcs) - bare_s(lcs)) / (lanes * s.solve_s)
    });
    let bare_over_busy = per_solve(&solves, |_, _, lcs| {
        let busy = sink_busy(lcs);
        if busy > 0.0 {
            bare_s(lcs) / busy
        } else {
            0.0
        }
    });
    let traced_p50 = median(&traced.iter().map(|s| s.solve_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let wire = probes.wire.as_ref();

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("apps.actions", actions, "count"),
        m(
            "apps.tasks",
            per_solve(&solves, |_, t, _| t.computes as f64),
            "count",
        ),
        m(
            "apps.xfers",
            per_solve(&solves, |_, t, _| t.transfers as f64),
            "count",
        ),
        m("apps.flops", w.flops(), "flop"),
        m("core.enqueue_s", enqueue_s, "s"),
        m("core.enqueue_us_per_action", enqueue_us_per_action, "us"),
        m("core.deps_wait_us.p50", p50(&deps_wait), "us"),
        m("core.deps_wait_us.p99", p99(&deps_wait), "us"),
        m(
            "core.deps_redundant_ratio",
            per_solve(&solves, |_, t, _| {
                t.metrics.get("deps.redundant").copied().unwrap_or(0.0)
                    / (t.computes + t.transfers + t.syncs).max(1) as f64
            }),
            "ratio",
        ),
        m(
            "core.stream_lock_contended",
            per_solve(&solves, |_, t, _| {
                t.metrics
                    .get("frontend.stream_lock.contended")
                    .copied()
                    .unwrap_or(0.0)
            }),
            "count",
        ),
        m("exec.dispatch_us.p50", p50(&dispatch), "us"),
        m("exec.dispatch_us.p99", p99(&dispatch), "us"),
        m(
            "exec.retries",
            per_solve(&solves, |_, _, lcs| {
                lcs.iter()
                    .map(|l| f64::from(l.retries))
                    .fold(0.0, |a, r| a + r)
            }),
            "count",
        ),
        m(
            "exec.failed",
            per_solve(&solves, |_, _, lcs| {
                lcs.iter().filter(|l| l.failed).count() as f64
            }),
            "count",
        ),
        m("coi.queue_wait_us.p50", p50(&queue_wait), "us"),
        m("coi.queue_wait_us.p99", p99(&queue_wait), "us"),
        m("coi.task_us.p50", p50(&task), "us"),
        m("coi.task_us.p99", p99(&task), "us"),
        m("coi.sink_busy_s", sink_busy_s, "s"),
        m("coi.sink_util", sink_util, "ratio"),
        m("linalg.tile_gflops", tile_gf, "GF/s"),
        m(
            "linalg.serial_gflops",
            w.flops() / probes.serial_s / 1e9,
            "GF/s",
        ),
        m("linalg.kernel_bound_s", kernel_bound_s, "s"),
        m(
            "linalg.roofline_frac",
            kernel_bound_s / untraced_p50,
            "ratio",
        ),
        m("fabric.h2d_bytes", h2d_bytes, "B"),
        m("fabric.d2h_bytes", d2h_bytes, "B"),
        m("fabric.h2d_ops", dma("h2d", "ops"), "count"),
        m("fabric.d2h_ops", dma("d2h", "ops"), "count"),
        m("fabric.dma_util.h2d", dma_util("h2d"), "ratio"),
        m("fabric.dma_util.d2h", dma_util("d2h"), "ratio"),
        m("fabric.xfer_us.p50", p50(&xfer), "us"),
        m("fabric.xfer_us.p99", p99(&xfer), "us"),
        m(
            "fabric.xfer_gbps",
            if xfer_s > 0.0 {
                xfer_bytes / xfer_s / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        m(
            "fabric.wire_reqs",
            per_solve(&solves, |_, t, _| sum_keys(&t.metrics, "link.c", ".reqs")),
            "count",
        ),
        m("fabric.wire_bytes", wire_bytes, "B"),
        m(
            "fabric.wire_frame_overhead",
            if payload > 0.0 && wire_bytes > 0.0 {
                wire_bytes / payload - 1.0
            } else {
                0.0
            },
            "ratio",
        ),
        m("fabric.exec_rpc_us.p50", p50(&rpc), "us"),
        m("fabric.exec_rpc_us.p99", p99(&rpc), "us"),
        m("fabric.ping_us.p50", wire.map_or(0.0, |p| p.ping_us), "us"),
        m(
            "fabric.wire_write_gbps",
            wire.map_or(0.0, |p| p.bytes as f64 / p.write_s / 1e9),
            "GB/s",
        ),
        m(
            "fabric.share_of_solve",
            probes.in_process_s.map_or(0.0, |s| 1.0 - s / untraced_p50),
            "ratio",
        ),
        m("ledger.kernel_frac", kernel_frac, "ratio"),
        m("ledger.sink_overhead_frac", overhead_frac, "ratio"),
        m("ledger.idle_frac", 1.0 - sink_util, "ratio"),
        m("ledger.bare_over_busy", bare_over_busy, "ratio"),
        m(
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        ),
    ]
}

/// The metric named `name` in `ms` (0 when absent).
pub fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

/// Does the ledger show the layer `w` was chosen to load? Returns the
/// verdict and the numbers it rests on.
pub fn layer_check(w: Workload, ms: &[Metric]) -> (bool, String) {
    match w {
        Workload::MatmulNative => {
            let k = value(ms, "ledger.kernel_frac");
            (
                k >= 0.5,
                format!("linalg: ledger.kernel_frac = {k:.3} (expected >= 0.5)"),
            )
        }
        Workload::CholeskyFine => {
            let o = value(ms, "ledger.sink_overhead_frac");
            let i = value(ms, "ledger.idle_frac");
            (
                o + i >= 0.5,
                format!(
                    "core/exec/coi: ledger.sink_overhead_frac + ledger.idle_frac = {o:.3} + {i:.3} (expected >= 0.5)"
                ),
            )
        }
        Workload::MatmulRemote => {
            let f = value(ms, "fabric.share_of_solve");
            (
                f >= 0.5,
                format!("fabric: fabric.share_of_solve = {f:.3} (expected >= 0.5)"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    /// The `"name"` values of one list in BENCHMARK.json, which sits at the
    /// repository root.
    fn listed(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted")].to_string())
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        assert!(ms.iter().all(|m| valid_metric_name(m.name)));
        ms.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        for w in Workload::ALL {
            assert_eq!(
                names(&end_to_end(w, &[1.0], &[1.0], 1.0)),
                listed("end_to_end")
            );
            let probes = Probes {
                kernels: Vec::new(),
                serial_s: 1.0,
                wire: None,
                in_process_s: None,
            };
            assert_eq!(names(&per_layer(w, 1.0, &[], &probes)), listed("per_layer"));
        }
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed("workloads"), workloads);
    }
}
