//! Executors: the semantic core (streams, buffers, dependences) is shared;
//! execution happens either on real threads ([`thread::ThreadExec`]) or in
//! virtual time ([`sim::SimExec`]). Both receive fully-resolved
//! [`ActionSpec`]s plus backend dependence events and return a backend
//! completion event.

pub mod sim;
pub mod thread;

use bytes::Bytes;
use hs_chaos::{FailureCause, RetryPolicy};
use hs_coi::pipeline::BufAccess;
use hs_coi::CoiEvent;
use hs_machine::Device;
use hs_sim::Token;

use crate::lockorder::LockClass;
use crate::small::FirstInline;
use crate::types::CostHint;
use crate::with_class;

/// Per-submission execution options (deadline + retry budget).
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOpts {
    /// Fail the action if it has not completed this many nanoseconds after
    /// submission: wall time in thread mode, virtual time in sim mode.
    pub deadline_ns: Option<u64>,
    /// Retry budget for transient (injected) faults.
    pub retry: RetryPolicy,
}

/// Real-mode endpoints of a transfer.
#[derive(Clone, Debug)]
pub struct RealXfer {
    pub src: (hs_fabric::WindowId, usize),
    pub dst: (hs_fabric::WindowId, usize),
}

/// A fully-resolved action handed to an executor.
pub enum ActionSpec {
    Compute {
        /// Dense stream index (not the public id).
        stream_idx: usize,
        device: Device,
        cores: u32,
        func: String,
        args: Bytes,
        /// Real-mode operand views in the sink domain.
        bufs: Vec<BufAccess>,
        cost: CostHint,
        label: String,
    },
    Transfer {
        /// Index of the card domain involved (None for host↔host, which is
        /// aliased away).
        card_domain: Option<usize>,
        /// Direction: true = toward the card.
        h2d: bool,
        bytes: usize,
        /// Real-mode windows (None in sim mode or for elided transfers).
        real: Option<RealXfer>,
        label: String,
    },
    /// Synchronization / bookkeeping: completes when its dependences do.
    Noop,
}

impl ActionSpec {
    pub fn label(&self) -> &str {
        match self {
            ActionSpec::Compute { label, .. } => label,
            ActionSpec::Transfer { label, .. } => label,
            ActionSpec::Noop => "sync",
        }
    }
}

/// One dependence of a batched submission.
pub enum BatchDep {
    /// An event that already exists in the table (pre-batch producer).
    External(BackendEvent),
    /// The batch's own item at this index (must precede the depender):
    /// resolved against the batch's freshly minted completion events, so
    /// intra-batch edges never round-trip through the event table.
    Internal(usize),
}

/// Why [`BatchDep::Internal`] indexes always resolve.
const EARLIER: &str = "batch dep must point at an earlier item";

/// Per-item completion-event hook for [`Executor::submit_batch`]: called
/// with (batch index, completion event) after creation, before wiring.
pub type BatchObserver<'a> = &'a dyn Fn(usize, &CoiEvent);

/// One action of a batched submission ([`Executor::submit_batch`]).
pub struct BatchSubmitItem {
    pub spec: ActionSpec,
    pub deps: FirstInline<BatchDep>,
    pub obs: hs_obs::ObsAction,
    pub opts: SubmitOpts,
}

/// Backend completion handle.
#[derive(Clone)]
pub enum BackendEvent {
    Thread(CoiEvent),
    Sim(Token),
}

impl BackendEvent {
    pub fn as_thread(&self) -> &CoiEvent {
        match self {
            BackendEvent::Thread(e) => e,
            BackendEvent::Sim(_) => panic!("sim event in thread executor"),
        }
    }

    pub fn as_sim(&self) -> Token {
        match self {
            BackendEvent::Sim(t) => *t,
            BackendEvent::Thread(_) => panic!("thread event in sim executor"),
        }
    }
}

/// The executor behind an `HStreams` instance.
///
/// Every method takes `&self`: the thread executor is internally
/// synchronized (concurrent submits from N source threads are the point),
/// and the inherently sequential simulator is serialized behind a mutex —
/// virtual time has a single global clock, so sim-mode concurrency degrades
/// to interleaving, which is all the semantics require.
pub enum Executor {
    Thread(thread::ThreadExec),
    Sim(crate::sync::Mutex<Box<sim::SimExec>>),
}

impl Executor {
    /// Register a new stream's sink resources; streams are indexed densely
    /// in creation order. The full mask flows to the thread executor (its
    /// workgroup is keyed off it); the simulator only needs the width.
    pub fn add_stream(&self, domain_idx: usize, mask: crate::CpuMask) {
        match self {
            Executor::Thread(t) => t.add_stream(domain_idx, mask),
            Executor::Sim(s) => with_class(LockClass::SimExec, || {
                s.lock().add_stream(domain_idx, mask.count())
            }),
        }
    }

    /// Submit a batch of actions in one executor round-trip — the only
    /// submission entry point: a single action is a batch of one. `obs` of
    /// each item is its lifecycle handle (inert when tracing is off);
    /// `opts` carries its deadline and retry budget. Returns the
    /// completion events, index-aligned with `items`. Thread mode amortizes
    /// the shared-state traffic (one counter RMW, one outstanding-list
    /// lock, one context read for the whole batch); sim mode takes the
    /// executor mutex once instead of per action. Intra-batch dependences
    /// ([`BatchDep::Internal`]) must point at earlier items.
    ///
    /// `observe` (thread mode only) is invoked with each item's completion
    /// event *after creation but before any dependence wiring*. Observers
    /// that register `on_complete` callbacks (the hsan completion log) must
    /// come first in each event's callback list: an intra-batch dependence
    /// countdown can dispatch-and-complete a dependent synchronously inside
    /// its producer's callback drain, and a later-registered observer on the
    /// producer would then record the completions inverted.
    pub fn submit_batch(
        &self,
        items: FirstInline<BatchSubmitItem>,
        observe: Option<BatchObserver<'_>>,
    ) -> FirstInline<BackendEvent> {
        match self {
            Executor::Thread(t) => t.submit_batch(items, observe),
            Executor::Sim(s) => with_class(LockClass::SimExec, || {
                let mut sim = s.lock();
                let mut out: FirstInline<BackendEvent> = FirstInline::with_capacity(items.len());
                for item in items {
                    let deps: Vec<BackendEvent> = item
                        .deps
                        .iter()
                        .map(|d| match d {
                            BatchDep::External(be) => be.clone(),
                            BatchDep::Internal(j) => out.get(*j).expect(EARLIER).clone(),
                        })
                        .collect();
                    let tok = sim.submit(item.spec, &deps, item.obs, item.opts);
                    out.push(BackendEvent::Sim(tok));
                }
                out
            }),
        }
    }

    /// Rebind a stream's sink resources to the host domain (card-loss
    /// degradation). Actions already dispatched are unaffected; subsequent
    /// submissions on the stream run on host resources.
    pub fn remap_stream_to_host(&self, stream_idx: usize) {
        match self {
            Executor::Thread(t) => t.remap_stream_to_host(stream_idx),
            Executor::Sim(s) => with_class(LockClass::SimExec, || {
                s.lock().remap_stream_to_host(stream_idx)
            }),
        }
    }

    pub fn is_complete(&self, ev: &BackendEvent) -> bool {
        match self {
            Executor::Thread(_) => ev.as_thread().is_complete(),
            Executor::Sim(s) => {
                with_class(LockClass::SimExec, || s.lock().is_complete(ev.as_sim()))
            }
        }
    }

    /// `is_complete && failure_of(..).is_none()` in one query. This is the
    /// dependence-window retirement predicate, called once per pending
    /// action per enqueue — the thread backend answers lock-free.
    pub fn completed_ok(&self, ev: &BackendEvent) -> bool {
        match self {
            Executor::Thread(_) => ev.as_thread().completed_ok(),
            Executor::Sim(s) => with_class(LockClass::SimExec, || {
                let g = s.lock();
                g.is_complete(ev.as_sim()) && g.failure_of(ev.as_sim()).is_none()
            }),
        }
    }

    /// Block (real time or virtual time) until the event completes.
    pub fn wait(&self, ev: &BackendEvent) -> Result<(), FailureCause> {
        match self {
            Executor::Thread(_) => ev.as_thread().wait(),
            Executor::Sim(s) => with_class(LockClass::SimExec, || s.lock().wait(ev.as_sim())),
        }
    }

    /// Wait until any of the events *succeeds*; returns its index. Errors
    /// (with the first failure in list order) only when all have failed.
    pub fn wait_any(&self, evs: &[BackendEvent]) -> Result<usize, FailureCause> {
        match self {
            Executor::Thread(_) => {
                let evs: Vec<CoiEvent> = evs.iter().map(|e| e.as_thread().clone()).collect();
                CoiEvent::wait_any(&evs)
            }
            Executor::Sim(s) => with_class(LockClass::SimExec, || {
                s.lock()
                    .wait_any(&evs.iter().map(|e| e.as_sim()).collect::<Vec<_>>())
            }),
        }
    }

    /// The failure cause of an event that has completed with an error
    /// (None while pending or after success).
    pub fn failure_of(&self, ev: &BackendEvent) -> Option<FailureCause> {
        match self {
            Executor::Thread(_) => match ev.as_thread().status() {
                hs_coi::EventStatus::Failed(c) => Some(c),
                _ => None,
            },
            Executor::Sim(s) => with_class(LockClass::SimExec, || s.lock().failure_of(ev.as_sim())),
        }
    }

    /// Run all outstanding virtual-time work to quiescence (sim mode); a
    /// no-op on real threads, where callers wait on concrete events
    /// instead. Degradation uses this to settle every in-flight action's
    /// status before selecting the replay set.
    pub fn run_all(&self) {
        if let Executor::Sim(s) = self {
            with_class(LockClass::SimExec, || s.lock().run_all());
        }
    }

    /// Charge synchronous source-side time (buffer instantiation, layered
    /// runtimes' per-task overheads). No-op in real mode.
    pub fn charge_source(&self, dur: hs_sim::Dur) {
        if let Executor::Sim(s) = self {
            with_class(LockClass::SimExec, || s.lock().charge_source(dur));
        }
    }

    /// Elapsed time: virtual seconds in sim mode, wall seconds in real mode.
    pub fn now_secs(&self) -> f64 {
        match self {
            Executor::Thread(t) => t.elapsed_secs(),
            Executor::Sim(s) => with_class(LockClass::SimExec, || s.lock().now_secs()),
        }
    }
}
