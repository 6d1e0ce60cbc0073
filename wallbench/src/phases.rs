//! Action lifecycles rebuilt from the runtime's observability records.
//!
//! `HStreams::take_obs_records` returns one `Enqueued` record per action and
//! one `Phase` record per later step (DepsResolved → Dispatched → SinkStart
//! → Completed). This module folds them back into one [`Lifecycle`] per
//! action, so the ledger can take the phase durations each layer owns.

use hs_obs::{ObsKind, ObsPhase, ObsRecord};
use std::collections::BTreeMap;

/// One action's lifecycle. Timestamps are the records' wall nanoseconds;
/// a phase the action never reached is `None`. When a retry repeats a
/// phase, the first occurrence is kept.
#[derive(Clone, Debug, PartialEq)]
pub struct Lifecycle {
    pub kind: ObsKind,
    pub stream: u32,
    /// Card domain of a transfer that crossed the fabric (`None` when the
    /// transfer aliased away on the host, and for computes).
    pub card: Option<u32>,
    pub bytes: u64,
    /// Kernel name of a compute (its label up to `@`), else empty.
    pub func: String,
    pub enqueued: u64,
    pub deps_resolved: Option<u64>,
    pub dispatched: Option<u64>,
    pub sink_start: Option<u64>,
    pub completed: Option<u64>,
    pub failed: bool,
    pub retries: u32,
}

impl Lifecycle {
    /// Enqueued → DepsResolved.
    pub fn deps_wait_us(&self) -> Option<f64> {
        span_us(Some(self.enqueued), self.deps_resolved)
    }

    /// DepsResolved → Dispatched.
    pub fn dispatch_us(&self) -> Option<f64> {
        span_us(self.deps_resolved, self.dispatched)
    }

    /// Dispatched → SinkStart.
    pub fn queue_wait_us(&self) -> Option<f64> {
        span_us(self.dispatched, self.sink_start)
    }

    /// SinkStart → Completed.
    pub fn run_us(&self) -> Option<f64> {
        span_us(self.sink_start, self.completed)
    }
}

/// Microseconds between two timestamps, when both exist.
fn span_us(from: Option<u64>, to: Option<u64>) -> Option<f64> {
    Some(to?.saturating_sub(from?) as f64 / 1e3)
}

/// Fold `records` into lifecycles, in action-id (enqueue) order. Phase
/// records of an action whose `Enqueued` record is missing are dropped.
pub fn lifecycles(records: &[ObsRecord]) -> Vec<Lifecycle> {
    let mut by_id: BTreeMap<u64, Lifecycle> = BTreeMap::new();
    for r in records {
        match r {
            ObsRecord::Enqueued { action, t_ns, meta } => {
                by_id.insert(
                    *action,
                    Lifecycle {
                        kind: meta.kind,
                        stream: meta.stream,
                        card: meta.card,
                        bytes: meta.bytes,
                        func: match meta.kind {
                            ObsKind::Compute => {
                                meta.label.split('@').next().unwrap_or("").to_string()
                            }
                            _ => String::new(),
                        },
                        enqueued: *t_ns,
                        deps_resolved: None,
                        dispatched: None,
                        sink_start: None,
                        completed: None,
                        failed: false,
                        retries: 0,
                    },
                );
            }
            ObsRecord::Phase {
                action,
                phase,
                t_ns,
            } => {
                let Some(lc) = by_id.get_mut(action) else {
                    continue;
                };
                let slot = match phase {
                    ObsPhase::DepsResolved => &mut lc.deps_resolved,
                    ObsPhase::Dispatched => &mut lc.dispatched,
                    ObsPhase::SinkStart => &mut lc.sink_start,
                    ObsPhase::Completed => &mut lc.completed,
                    ObsPhase::Failed => {
                        lc.failed = true;
                        continue;
                    }
                    ObsPhase::RetryScheduled => continue,
                };
                slot.get_or_insert(*t_ns);
            }
            ObsRecord::Retry { action, .. } => {
                if let Some(lc) = by_id.get_mut(action) {
                    lc.retries += 1;
                }
            }
            ObsRecord::Failure { action, .. } => {
                if let Some(lc) = by_id.get_mut(action) {
                    lc.failed = true;
                }
            }
            ObsRecord::Degraded { .. } => {}
        }
    }
    by_id.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_obs::ActionMeta;

    fn enq(action: u64, t_ns: u64, kind: ObsKind, label: &str) -> ObsRecord {
        ObsRecord::Enqueued {
            action,
            t_ns,
            meta: ActionMeta {
                stream: 1,
                kind,
                card: (kind == ObsKind::Transfer).then_some(1),
                h2d: true,
                bytes: 4096,
                footprint: 2,
                label: label.to_string(),
            },
        }
    }

    fn ph(action: u64, phase: ObsPhase, t_ns: u64) -> ObsRecord {
        ObsRecord::Phase {
            action,
            phase,
            t_ns,
        }
    }

    #[test]
    fn phases_fold_into_durations() {
        // Records interleave across actions, as concurrent sinks emit them.
        let recs = vec![
            enq(7, 1_000, ObsKind::Compute, "tile_gemm_nn@HSWs0"),
            enq(8, 1_500, ObsKind::Transfer, "xfer:A:d0->d1"),
            ph(7, ObsPhase::DepsResolved, 3_000),
            ph(8, ObsPhase::DepsResolved, 2_000),
            ph(7, ObsPhase::Dispatched, 4_000),
            ph(8, ObsPhase::Dispatched, 2_500),
            ph(7, ObsPhase::SinkStart, 9_000),
            ph(8, ObsPhase::SinkStart, 3_500),
            ph(8, ObsPhase::Completed, 5_500),
            ph(7, ObsPhase::Completed, 19_000),
        ];
        let lcs = lifecycles(&recs);
        assert_eq!(lcs.len(), 2);
        let (c, x) = (&lcs[0], &lcs[1]);
        assert_eq!(c.func, "tile_gemm_nn");
        assert_eq!(c.deps_wait_us(), Some(2.0));
        assert_eq!(c.dispatch_us(), Some(1.0));
        assert_eq!(c.queue_wait_us(), Some(5.0));
        assert_eq!(c.run_us(), Some(10.0));
        assert_eq!(x.func, "");
        assert_eq!(x.card, Some(1));
        assert_eq!(x.run_us(), Some(2.0));
        assert!(!c.failed && !x.failed);
    }

    #[test]
    fn retries_keep_first_phase_and_count() {
        let recs = vec![
            enq(1, 0, ObsKind::Compute, "k@HSWs0"),
            ph(1, ObsPhase::DepsResolved, 10),
            ph(1, ObsPhase::Dispatched, 20),
            ph(1, ObsPhase::RetryScheduled, 30),
            ObsRecord::Retry {
                action: 1,
                attempt: 1,
                backoff_us: 5,
                t_ns: 30,
            },
            ph(1, ObsPhase::DepsResolved, 40),
            ph(1, ObsPhase::Dispatched, 50),
            ph(1, ObsPhase::Failed, 60),
        ];
        let lcs = lifecycles(&recs);
        assert_eq!(lcs[0].deps_resolved, Some(10));
        assert_eq!(lcs[0].dispatched, Some(20));
        assert_eq!(lcs[0].retries, 1);
        assert!(lcs[0].failed);
        assert_eq!(lcs[0].run_us(), None, "never reached its sink");
    }

    #[test]
    fn orphan_phases_are_dropped() {
        let recs = vec![ph(3, ObsPhase::Completed, 10)];
        assert!(lifecycles(&recs).is_empty());
    }
}
