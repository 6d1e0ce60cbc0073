//! # hstreams-core — the hStreams library
//!
//! A Rust reproduction of the heterogeneous streaming library of
//! *Heterogeneous Streaming* (Newburn et al., IPDPSW 2016). The three
//! building blocks are exactly the paper's:
//!
//! * **Domains** — units of compute + coherent memory (the host, each
//!   coprocessor card). Discoverable and enumerable with properties
//!   ([`HStreams::domains`]).
//! * **Streams** — FIFO task queues with a source endpoint (the caller) and
//!   a sink endpoint bound to a domain + CPU mask
//!   ([`HStreams::stream_create`], or the app-level
//!   [`HStreams::app_init`] even partitioning). Three action kinds are
//!   enqueued into streams: compute ([`HStreams::enqueue_compute`]), data
//!   transfer ([`HStreams::enqueue_xfer`]) and synchronization
//!   ([`HStreams::enqueue_event_wait`]). Actions may execute and complete
//!   **out of order** as long as the sequential FIFO semantic is preserved:
//!   dependences within a stream are derived from FIFO order plus
//!   memory-operand overlap, and only from explicit events across streams.
//! * **Buffers** — memory encapsulation with a unified source proxy address
//!   space, per-domain instantiations and tuner-controlled storage
//!   properties ([`HStreams::buffer_create`]).
//!
//! Two executors run the same semantics: [`ExecMode::Threads`] executes
//! tasks for real (sink pipelines over a COI/SCIF-like substrate, DMA worker
//! threads, optional PCIe-speed pacing), and [`ExecMode::Sim`] replays the
//! schedule in virtual time with the calibrated cost model of
//! [`hs_machine`] — the mode used to regenerate the paper's figures.
//!
//! ## Concurrent source endpoints
//!
//! `HStreams` is a cloneable `Send + Sync` handle: every API takes `&self`,
//! so N source threads can enqueue into (their own, or shared) streams
//! concurrently. Per-stream dependence state sits behind fine-grained
//! per-stream locks; the global event table is append-only and segmented
//! (no reallocation under readers); card-loss degradation is the one
//! stop-the-world operation. See DESIGN.md §13 for the locking map.
//!
//! ```
//! use hstreams_core::{Access, CostHint, ExecMode, HStreams, Operand};
//! use hs_machine::{Device, PlatformCfg};
//! use std::sync::Arc;
//!
//! // A host + one (simulated) coprocessor card.
//! let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads);
//! hs.register("double", Arc::new(|ctx: &mut hstreams_core::TaskCtx| {
//!     for x in ctx.buf_f64_mut(0) { *x *= 2.0; }
//! }));
//! let card = hs.domains()[1].id;
//! let s = hs.stream_create(card, hstreams_core::CpuMask::first(4)).unwrap();
//! let buf = hs.buffer_create(8 * 4, Default::default());
//! hs.buffer_instantiate(buf, card).unwrap();
//! hs.buffer_write_f64(buf, 0, &[1.0, 2.0, 3.0, 4.0]).unwrap();
//! hs.xfer_to_sink(s, buf, 0..32).unwrap();
//! hs.enqueue_compute(s, "double", bytes::Bytes::new(),
//!     &[Operand::f64s(buf, 0, 4, Access::InOut)], CostHint::trivial()).unwrap();
//! hs.xfer_to_source(s, buf, 0..32).unwrap();
//! hs.stream_synchronize(s).unwrap();
//! let mut out = [0.0; 4];
//! hs.buffer_read_f64(buf, 0, &mut out).unwrap();
//! assert_eq!(out, [2.0, 4.0, 6.0, 8.0]);
//! ```

pub mod addrspace;
pub mod app;
pub mod buffer;
pub mod cpumask;
pub mod deps;
mod durable;
/// Segmented event table. Private in normal builds; public under
/// `--cfg loom` so the model suite (`tests/loom_frontend.rs`) can drive
/// the publish/compact protocol directly.
#[cfg(not(loom))]
mod events;
#[cfg(loom)]
pub mod events;
pub mod exec;
pub mod lockorder;
pub mod record;
pub mod small;
pub mod stats;
pub mod stream;
pub mod sync;
pub mod types;

pub use buffer::{BufProps, Instantiation, MemType};
pub use cpumask::CpuMask;
pub use durable::RecoveryReport;
pub use record::{ActionRecord, ActionTrace, TraceOp};
pub use stats::ApiStats;
pub use stream::ActionKind;
pub use types::{
    Access, BufferId, CostHint, DomainId, Event, HsError, HsResult, Operand, OrderingMode, StreamId,
};

/// Fault-injection surface (re-exported from `hs-chaos`): install a
/// [`FaultPlan`] with [`HStreams::chaos_install`], tune per-action
/// [`RetryPolicy`]s via [`ActionOpts`], and inspect structured
/// [`FailureCause`]s from [`HsError::ActionFailed`].
pub use hs_chaos::{ChaosHub, FailureCause, FaultKind, FaultPlan, FaultSite, RetryPolicy, Trigger};
pub use hs_fabric::Endpoint;

/// Task execution context (re-exported from the COI layer): operand views,
/// argument bytes, stream width and `par_for`.
pub use hs_coi::RunCtx as TaskCtx;
/// A sink-side task function.
pub use hs_coi::RunFunction as TaskFn;

use buffer::BufferTable;
use bytes::Bytes;
use deps::{Footprint, FootprintItem};
use events::{EventTable, EventView};
use exec::{ActionSpec, BackendEvent, Executor, RealXfer, SubmitOpts};
use hs_coi::EngineId;
use hs_machine::{Device, DomainRole, PlatformCfg};
use hs_obs::{ActionMeta, MetricsSnapshot, ObsAction, ObsHub, ObsKind, ObsRecord};
use lockorder::LockClass;
use stats::ShardedU64;
use std::ops::Range;
use stream::{DepList, StreamState};
use sync::{Arc, AtomicBool, AtomicU64, Mutex, Once, OnceLock, Ordering, RwLock};

/// Per-action execution options for the `*_opts` enqueue variants.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActionOpts {
    /// Fail the action if it has not completed this long after submission
    /// (wall time in thread modes, virtual time in sim mode). Expiry fails
    /// the action with [`FailureCause::Timeout`] and poisons dependents —
    /// never a silent hang.
    pub deadline: Option<std::time::Duration>,
    /// Retry budget for transient injected faults. Defaults to the armed
    /// fault plan's policy (or no retries when chaos is off).
    pub retry: Option<RetryPolicy>,
}

/// One action of a batched [`HStreams::enqueue_many`] submission, in
/// source terms. The batch is validated all-or-nothing, analyzed
/// incrementally under **one** stream-window lock, and submitted to the
/// executor in one round-trip.
#[derive(Clone)]
pub enum BatchAction {
    /// [`HStreams::enqueue_compute`].
    Compute {
        func: String,
        args: Bytes,
        operands: Vec<Operand>,
        cost: CostHint,
    },
    /// [`HStreams::enqueue_xfer`].
    Xfer {
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    },
    /// [`HStreams::enqueue_marker`].
    Marker,
    /// [`HStreams::enqueue_event_wait`]. The awaited events must exist
    /// *before* the batch (batch-internal ids are not knowable by the
    /// caller — intra-batch ordering is already carried by the FIFO +
    /// operand semantics).
    EventWait { events: Vec<Event> },
}

/// What an enqueued action was, in source terms — enough to re-enqueue it
/// during card-loss degradation. Recorded only while a fault plan is armed.
#[derive(Clone)]
enum LoggedOp {
    Compute {
        func: String,
        args: Bytes,
        operands: Vec<Operand>,
        cost: CostHint,
    },
    Xfer {
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    },
    /// Event waits and markers: pure synchronization, replayed as a noop
    /// over the (possibly replayed) dependence events.
    Sync,
}

impl LoggedOp {
    /// The source-terms action to replay this op as. Transfer endpoints on
    /// the `lost` card move to the host: a h2d re-stage becomes an elided
    /// host alias (the data is already in the source proxy), a d2h result
    /// lands straight from the host replay of its producer. Syncs replay as
    /// event waits on `waits`.
    fn to_action(&self, lost: Option<DomainId>, waits: Vec<Event>) -> BatchAction {
        let remap = |d: DomainId| if Some(d) == lost { DomainId::HOST } else { d };
        match self {
            LoggedOp::Compute {
                func,
                args,
                operands,
                cost,
            } => BatchAction::Compute {
                func: func.clone(),
                args: args.clone(),
                operands: operands.clone(),
                cost: *cost,
            },
            LoggedOp::Xfer {
                buf,
                range,
                from,
                to,
            } => BatchAction::Xfer {
                buf: *buf,
                range: range.clone(),
                from: remap(*from),
                to: remap(*to),
            },
            LoggedOp::Sync => BatchAction::EventWait { events: waits },
        }
    }
}

/// An action that passed validation ([`HStreams::build_action`]), awaiting
/// the windowed phase of [`HStreams::enqueue_batch_common`].
struct BuiltAction {
    spec: ActionSpec,
    footprint: Footprint,
    kind: stream::ActionKind,
    waits: Vec<Event>,
    logged: Option<LoggedOp>,
}

/// Ids reserved for an in-flight batch enqueue. Until disarmed, dropping the
/// guard hands every id back as a tombstone ([`EventTable::tombstone_reserved`]);
/// the success path [`ReservedIds::disarm`]s once publishing is guaranteed.
/// This is what keeps a failing (or panicking) batch from leaving
/// reserved-but-never-published slots that stall the retirement watermark.
struct ReservedIds<'a> {
    events: &'a EventTable,
    ids: EventList,
}

/// An enqueue's events, index-aligned with its actions. Inline for the
/// batch of one that every single-action enqueue is: that path stays off
/// the heap.
type EventList = small::FirstInline<Event>;

impl ReservedIds<'_> {
    /// Take the ids out of the guard; they are now the caller's to publish.
    fn disarm(mut self) -> EventList {
        std::mem::take(&mut self.ids)
    }
}

impl Drop for ReservedIds<'_> {
    fn drop(&mut self) {
        if !self.ids.is_empty() {
            self.events
                .tombstone_reserved(self.ids.iter().map(|ev| ev.0));
        }
    }
}

/// One recovery-log entry: the op, its enqueue-time dependences and which
/// domains it wrote — the inputs to the card-loss replay closure.
#[derive(Clone)]
struct LoggedAction {
    ev: u64,
    stream: StreamId,
    op: LoggedOp,
    deps: Vec<u64>,
    wrote: Vec<usize>,
    retry: RetryPolicy,
}

/// How the runtime executes actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Real threads, unpaced DMA (functional testing, examples).
    Threads,
    /// Real threads with DMA paced to the platform's link speed (real-time
    /// overlap experiments).
    ThreadsPaced,
    /// Virtual time with the calibrated cost model (figure regeneration).
    Sim,
}

/// Discoverable properties of a domain (paper §II: "Each domain has a set of
/// properties that include the number, kind and speed of hardware threads,
/// and the amount of each kind of memory").
#[derive(Clone, Debug)]
pub struct DomainInfo {
    pub id: DomainId,
    pub device: Device,
    pub role: DomainRole,
    pub cores: u32,
    pub threads: u32,
    pub ram_bytes: u64,
}

/// Enqueues between amortized event-table / recovery-log compactions.
const COMPACT_EVERY: u32 = 1024;

/// [`COMPACT_EVERY`] expressed in id-block mints: the compaction cadence is
/// observed through the event table's block-mint counter (one mint per
/// [`events::ID_BLOCK`] reserves), which the enqueue path already pays for.
/// `max(1)` keeps the cadence sane under loom's tiny test blocks.
const COMPACT_BLOCKS: u64 = {
    let blocks = COMPACT_EVERY as u64 / events::ID_BLOCK;
    if blocks == 0 {
        1
    } else {
        blocks
    }
};

/// Witness a lock-class acquisition for exactly the duration of `f` — for
/// sites where the guard is a statement temporary. Sites that bind the
/// guard to a local place a matching `lockorder::acquiring` binding inline
/// instead, so the witness lifetime tracks the guard lifetime.
#[inline]
pub(crate) fn with_class<R>(class: LockClass, f: impl FnOnce() -> R) -> R {
    let _witness = lockorder::acquiring(class);
    f()
}

/// Shared runtime state behind the [`HStreams`] handle.
///
/// Lock order (outer → inner; never acquire leftward while holding
/// rightward): `world` → `streams` (vec) → per-stream mutex → `buffers` →
/// `recorder`/`recovery` → event-table slot → sim executor.
pub(crate) struct Inner {
    platform: PlatformCfg,
    ordering: OrderingMode,
    /// The stop-the-world lock: enqueues and stream creation hold it
    /// shared; card-loss degradation holds it exclusively while it
    /// quiesces, remaps and replays.
    world: RwLock<()>,
    /// Dense stream table; each stream's dependence window has its own
    /// fine-grained lock so distinct streams enqueue fully concurrently.
    streams: RwLock<Vec<Arc<Mutex<StreamState>>>>,
    buffers: RwLock<BufferTable>,
    /// Append-only segmented event table (see [`events`]).
    events: EventTable,
    exec: Executor,
    stats: ApiStats,
    /// Sim-mode host shadows for `buffer_write`/`buffer_read`.
    sim_shadow: Mutex<std::collections::HashMap<BufferId, Vec<u8>>>,
    /// Built-in app-API kernels registered once (see [`app`]).
    pub(crate) builtins: Once,
    /// Live `hsan` action-trace recording (None = off). The flag mirrors
    /// `recorder.is_some()` so the hot path checks one atomic instead of
    /// taking the lock.
    #[cfg(feature = "hsan-record")]
    recorder: Mutex<Option<record::Recorder>>,
    #[cfg(feature = "hsan-record")]
    recording: crate::sync::AtomicBool,
    /// Action-lifecycle observability hub, shared with both executors and
    /// the COI layer. Disabled (near-zero cost) until [`HStreams::obs_enable`].
    obs: ObsHub,
    /// Fault-injection hub, shared with the executors and every fabric DMA
    /// channel. Disarmed (one relaxed atomic load per site) until
    /// [`HStreams::chaos_install`].
    chaos: ChaosHub,
    /// Replayable record of enqueued actions, kept while a fault plan is
    /// armed (card-loss degradation replays the affected subset) and/or
    /// durability is on ([`durable::WalLog`] mirrors every entry to disk).
    recovery: Mutex<Box<dyn durable::ActionLog>>,
    /// Durable logging enabled? Checked (one relaxed load) on every
    /// enqueue; set once by [`HStreams::durability`] *after* the WAL sink
    /// is swapped in, so an enqueue that observes `true` always finds the
    /// [`durable::WalLog`] behind the `recovery` lock.
    durable: AtomicBool,
    /// The shared WAL writer, installed at most once per runtime.
    wal: OnceLock<Arc<durable::WalShared>>,
    /// Cards already degraded (each card degrades at most once).
    degraded: Mutex<Vec<u32>>,
    /// Degradation generation: bumped once per completed degradation. Wait
    /// loops snapshot it before waiting; a failed wait whose snapshot is
    /// stale re-waits instead of racing a concurrent degradation.
    degrade_gen: AtomicU64,
    /// Event-table *block-mint* count at which the next amortized
    /// compaction is due. Driven off the table's existing mint counter so
    /// the per-action check is two relaxed loads and zero RMWs (the old
    /// per-enqueue counter was itself a shared hot-path RMW; one thread's
    /// CAS here claims the whole compaction).
    compact_due: AtomicU64,
    /// Times an enqueue found its stream's lock held (multi-source
    /// contention probe; surfaced as `frontend.stream_lock.contended`).
    /// Thread-striped: losing the race to a lock must not also mean
    /// bouncing a shared counter line.
    contended: ShardedU64,
    /// Stale location-index entries skipped during dependence derivation
    /// (surfaced as `deps.redundant`).
    redundant: ShardedU64,
}

/// The hStreams runtime handle (one source endpoint).
///
/// Cloning is cheap (an `Arc` bump) and every method takes `&self`: hand a
/// clone to each source thread and enqueue concurrently. Dropping the last
/// clone shuts the executor down.
#[derive(Clone)]
pub struct HStreams {
    inner: Arc<Inner>,
}

// The entire point of the handle: it crosses threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<HStreams>();
};

impl HStreams {
    /// Initialize the runtime for a platform (out-of-order hStreams
    /// semantics).
    pub fn init(platform: PlatformCfg, mode: ExecMode) -> HStreams {
        Self::init_with_ordering(platform, mode, OrderingMode::OutOfOrder)
    }

    /// Initialize with an explicit intra-stream ordering mode.
    /// [`OrderingMode::StrictFifo`] reproduces CUDA-Streams-like semantics
    /// for the paper's comparisons.
    pub fn init_with_ordering(
        platform: PlatformCfg,
        mode: ExecMode,
        ordering: OrderingMode,
    ) -> HStreams {
        Self::init_full(platform, mode, ordering, &[])
            .expect("in-process runtime construction is infallible")
    }

    /// Initialize with some card domains hosted by out-of-process workers
    /// (`hs-worker` processes reached over Unix/TCP sockets). `remotes`
    /// maps card domain index (1-based; domain 0, the host, cannot be
    /// remote) to the worker's endpoint. Only thread-backed modes can talk
    /// to a wire; [`ExecMode::Sim`] returns [`HsError::InvalidArg`].
    /// Connection failures surface as [`HsError::ExecFailed`] — a worker
    /// that dies *after* init surfaces as `CardLost` at first use and
    /// drives the normal degradation path.
    pub fn init_remote(
        platform: PlatformCfg,
        mode: ExecMode,
        remotes: &[(usize, Endpoint)],
    ) -> HsResult<HStreams> {
        if matches!(mode, ExecMode::Sim) {
            return Err(HsError::InvalidArg(
                "remote domains require a thread-backed exec mode".to_string(),
            ));
        }
        Self::init_full(platform, mode, OrderingMode::OutOfOrder, remotes)
    }

    fn init_full(
        platform: PlatformCfg,
        mode: ExecMode,
        ordering: OrderingMode,
        remotes: &[(usize, Endpoint)],
    ) -> HsResult<HStreams> {
        let obs = ObsHub::new();
        let chaos = ChaosHub::new();
        let connect = |paced: bool| {
            exec::thread::ThreadExec::new_with_remotes(
                &platform,
                paced,
                obs.clone(),
                chaos.clone(),
                remotes,
            )
            .map_err(|e| HsError::ExecFailed(format!("connecting remote domains: {e}")))
        };
        let exec = match mode {
            ExecMode::Threads => Executor::Thread(connect(false)?),
            ExecMode::ThreadsPaced => Executor::Thread(connect(true)?),
            ExecMode::Sim => Executor::Sim(Mutex::new(Box::new(
                exec::sim::SimExec::new_with_obs_chaos(&platform, obs.clone(), chaos.clone()),
            ))),
        };
        Ok(HStreams {
            inner: Arc::new(Inner {
                platform,
                ordering,
                world: RwLock::new(()),
                streams: RwLock::new(Vec::new()),
                buffers: RwLock::new(BufferTable::new()),
                events: EventTable::new(),
                exec,
                stats: ApiStats::new(),
                sim_shadow: Mutex::new(std::collections::HashMap::new()),
                builtins: Once::new(),
                #[cfg(feature = "hsan-record")]
                recorder: Mutex::new(None),
                #[cfg(feature = "hsan-record")]
                recording: crate::sync::AtomicBool::new(false),
                obs,
                chaos,
                recovery: Mutex::new(
                    Box::new(durable::MemLog::default()) as Box<dyn durable::ActionLog>
                ),
                durable: AtomicBool::new(false),
                wal: OnceLock::new(),
                degraded: Mutex::new(Vec::new()),
                degrade_gen: AtomicU64::new(0),
                compact_due: AtomicU64::new(COMPACT_BLOCKS),
                contended: ShardedU64::new(),
                redundant: ShardedU64::new(),
            }),
        })
    }

    // ------------------------------------------------------ fault injection

    /// Arm a deterministic fault-injection plan: its sites are consulted at
    /// every DMA channel and compute dispatch, its retry policy becomes the
    /// default budget for transient faults, and — when
    /// [`FaultPlan::with_auto_degrade`] is on (the default) — a `CardDead`
    /// fault triggers card-loss degradation on the next wait that observes
    /// it. Also starts the recovery log that degradation replays from.
    pub fn chaos_install(&self, plan: FaultPlan) {
        with_class(LockClass::Recovery, || self.inner.recovery.lock().clear());
        self.inner.chaos.arm(plan);
    }

    /// Stop injecting faults (already-dead cards stay dead).
    pub fn chaos_disarm(&self) {
        self.inner.chaos.disarm();
    }

    /// Should enqueues land in the recovery log? While a fault plan is
    /// armed (card-loss replay needs the entries) or durability is on (the
    /// WAL mirrors them to disk).
    fn log_actions(&self) -> bool {
        self.inner.chaos.is_armed() || self.inner.durable.load(Ordering::Relaxed)
    }

    /// The fault-injection hub (for inspecting the injected-fault log).
    pub fn chaos(&self) -> &ChaosHub {
        &self.inner.chaos
    }

    /// Cards that have been degraded to the host so far.
    pub fn degraded_cards(&self) -> Vec<u32> {
        with_class(LockClass::Degraded, || self.inner.degraded.lock().clone())
    }

    // ----------------------------------------------------- hsan recording

    /// Is an hsan action-trace recording live?
    #[cfg(feature = "hsan-record")]
    fn is_recording(&self) -> bool {
        self.inner.recording.load(Ordering::Acquire)
    }

    #[cfg(not(feature = "hsan-record"))]
    fn is_recording(&self) -> bool {
        false
    }

    /// Start recording the enqueued action graph for the `hsan` sanitizer.
    /// Only available with the `hsan-record` feature; actions enqueued
    /// before this call are not in the trace. While a recording is live,
    /// concurrent enqueues serialize on the recorder (the trace is a total
    /// order in event-id sequence).
    #[cfg(feature = "hsan-record")]
    pub fn recording_start(&self) {
        // The trace is a total order in event-id sequence, so ids minted
        // while recording must be gap-free ascending: hand every thread's
        // private id block back (unused tails tombstone) and switch the
        // allocator to sequential single-id mints — both *before* the
        // recording flag is released to concurrent enqueuers.
        self.inner.events.set_dense(true);
        self.inner.events.drain_blocks();
        *with_class(LockClass::Recorder, || self.inner.recorder.lock()) = Some(
            record::Recorder::new(self.inner.ordering, self.inner.platform.domains.len()),
        );
        self.inner.recording.store(true, Ordering::Release);
    }

    /// Stop recording and return the trace (None if recording was never
    /// started). Call after synchronizing if completion order matters —
    /// still-pending actions simply have no completion entry.
    #[cfg(feature = "hsan-record")]
    pub fn recording_take(&self) -> Option<record::ActionTrace> {
        self.inner.recording.store(false, Ordering::Release);
        let rec = with_class(LockClass::Recorder, || self.inner.recorder.lock().take());
        // Back to block-mode id minting only once the recorder is gone: an
        // enqueue that raced the flag store serialized on the recorder lock
        // above and therefore minted its (dense) id before this point.
        self.inner.events.set_dense(false);
        let rec = rec?;
        let streams = with_class(LockClass::Streams, || self.inner.streams.read().len()) as u32;
        let trace = match &self.inner.exec {
            Executor::Sim(sim) => {
                rec.into_trace(streams, |ev| match self.inner.events.view_id(ev) {
                    EventView::Live(BackendEvent::Sim(t), _) => {
                        with_class(LockClass::SimExec, || sim.lock().fire_time(t))
                            .map(|t| t.as_nanos())
                    }
                    _ => None,
                })
            }
            Executor::Thread(_) => rec.into_trace(streams, |_| None),
        };
        Some(trace)
    }

    // ------------------------------------------------------------ discovery

    /// Enumerate domains and their properties.
    pub fn domains(&self) -> Vec<DomainInfo> {
        self.inner
            .platform
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let spec = d.device.spec();
                DomainInfo {
                    id: DomainId(i),
                    device: d.device,
                    role: d.role,
                    cores: d.cores,
                    threads: d.cores * spec.threads_per_core,
                    ram_bytes: spec.ram_bytes(),
                }
            })
            .collect()
    }

    pub fn num_domains(&self) -> usize {
        self.inner.platform.domains.len()
    }

    pub fn platform(&self) -> &PlatformCfg {
        &self.inner.platform
    }

    pub fn ordering(&self) -> OrderingMode {
        self.inner.ordering
    }

    // ----------------------------------------------------------- core APIs

    /// Create a stream whose sink is bound to `mask` within `domain`
    /// (core-API level: explicit mask per stream).
    pub fn stream_create(&self, domain: DomainId, mask: CpuMask) -> HsResult<StreamId> {
        self.inner.stats.bump("stream_create");
        if domain.0 >= self.inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(domain));
        }
        if mask.is_empty() {
            return Err(HsError::InvalidArg("stream mask is empty".into()));
        }
        let _lo_world = lockorder::acquiring(LockClass::World);
        let _world = self.inner.world.read();
        // Id assignment, executor registration and table insertion are one
        // critical section: concurrent creators get dense, matching indices.
        let _lo_streams = lockorder::acquiring(LockClass::Streams);
        let mut streams = self.inner.streams.write();
        let id = StreamId(streams.len() as u32);
        self.inner.exec.add_stream(domain.0, mask);
        streams.push(Arc::new(Mutex::new(StreamState::new(id, domain, mask))));
        Ok(id)
    }

    /// App-API convenience: for each `(domain, n)` divide the domain's cores
    /// evenly among `n` streams. Returns all created stream ids, in argument
    /// order.
    pub fn app_init(&self, streams_per_domain: &[(DomainId, usize)]) -> HsResult<Vec<StreamId>> {
        self.inner.stats.bump("app_init");
        let mut out = Vec::new();
        for &(domain, n) in streams_per_domain {
            let cores = self
                .inner
                .platform
                .domains
                .get(domain.0)
                .ok_or(HsError::UnknownDomain(domain))?
                .cores;
            for mask in CpuMask::partition_evenly(cores, n) {
                out.push(self.stream_create(domain, mask)?);
            }
        }
        Ok(out)
    }

    /// App-API convenience: `n` streams on `domain`, each sink bound to a
    /// *disjoint* `width`-core mask — stream `i` gets cores `[i·width,
    /// (i+1)·width)`. The tuner's mask-width knob: unlike
    /// [`HStreams::app_init`]'s even partition, the width is explicit, so
    /// `n · width` may deliberately undersubscribe the domain (leaving
    /// cores idle) but may not oversubscribe it — that's an error, not a
    /// silent overlap.
    pub fn app_init_masked(
        &self,
        domain: DomainId,
        n: usize,
        width: u32,
    ) -> HsResult<Vec<StreamId>> {
        self.inner.stats.bump("app_init_masked");
        let cores = self
            .inner
            .platform
            .domains
            .get(domain.0)
            .ok_or(HsError::UnknownDomain(domain))?
            .cores;
        if width == 0 {
            return Err(HsError::InvalidArg("app_init_masked: width 0".into()));
        }
        let demand = width as u64 * n as u64;
        if demand > cores as u64 {
            return Err(HsError::InvalidArg(format!(
                "app_init_masked: {n} streams × {width} cores = {demand} exceeds the \
                 {cores} cores of domain {domain:?}"
            )));
        }
        (0..n as u32)
            .map(|i| self.stream_create(domain, CpuMask::range(i * width, width)))
            .collect()
    }

    fn stream_arc(&self, s: StreamId) -> HsResult<Arc<Mutex<StreamState>>> {
        with_class(LockClass::Streams, || {
            self.inner.streams.read().get(s.0 as usize).cloned()
        })
        .ok_or(HsError::UnknownStream(s))
    }

    /// The domain a stream's sink lives in.
    pub fn stream_domain(&self, s: StreamId) -> HsResult<DomainId> {
        let st = self.stream_arc(s)?;
        Ok(with_class(LockClass::Stream, || st.lock().domain))
    }

    /// Cores bound to a stream.
    pub fn stream_cores(&self, s: StreamId) -> HsResult<u32> {
        let st = self.stream_arc(s)?;
        Ok(with_class(LockClass::Stream, || st.lock().cores()))
    }

    pub fn num_streams(&self) -> usize {
        with_class(LockClass::Streams, || self.inner.streams.read().len())
    }

    // -------------------------------------------------------------- buffers

    /// Create a buffer of `len` bytes. The host instantiation is created
    /// eagerly (the host is the source of the proxy address space); card
    /// instantiations require explicit [`HStreams::buffer_instantiate`].
    pub fn buffer_create(&self, len: usize, props: BufProps) -> BufferId {
        self.inner.stats.bump("buffer_create");
        let id = with_class(LockClass::Buffers, || {
            self.inner.buffers.write().create(len, props)
        });
        #[cfg(feature = "hsan-record")]
        if self.is_recording() {
            with_class(LockClass::Recorder, || {
                if let Some(rec) = self.inner.recorder.lock().as_mut() {
                    rec.push(record::TraceOp::BufferCreate { buffer: id.0, len });
                }
            });
        }
        self.instantiate_unchecked(id, DomainId::HOST)
            .expect("fresh buffer instantiates on host");
        id
    }

    /// Materialize the buffer in `domain` (required before transfers or
    /// computes touch it there — the paper leaves placement to the tuner).
    pub fn buffer_instantiate(&self, buf: BufferId, domain: DomainId) -> HsResult<()> {
        self.inner.stats.bump("buffer_instantiate");
        if domain.0 >= self.inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(domain));
        }
        self.instantiate_unchecked(buf, domain)
    }

    fn instantiate_unchecked(&self, buf: BufferId, domain: DomainId) -> HsResult<()> {
        let pooled = self.inner.platform.coi_buffer_pool;
        let len = {
            let _lo = lockorder::acquiring(LockClass::Buffers);
            let buffers = self.inner.buffers.read();
            let rec = buffers.get(buf)?;
            if rec.is_instantiated(domain) {
                return Ok(());
            }
            rec.len
        };
        // The (possibly slow) allocation runs outside the table lock; the
        // insert re-checks under the write lock and frees the surplus window
        // if another thread instantiated the same (buffer, domain) meanwhile.
        let inst = match &self.inner.exec {
            Executor::Thread(t) => {
                let w = t
                    .coi()
                    .buffer_alloc(EngineId(domain.0 as u16), len.max(8), pooled);
                Instantiation::Window(w)
            }
            Executor::Sim(_) => {
                // The paper: MIC-side allocation is synchronous (its
                // asynchrony is "future work"), so it charges the source.
                self.inner
                    .exec
                    .charge_source(self.inner.platform.cost_model().alloc_dur(pooled));
                Instantiation::Virtual
            }
        };
        let surplus = {
            let _lo = lockorder::acquiring(LockClass::Buffers);
            let mut buffers = self.inner.buffers.write();
            match buffers.get_mut(buf) {
                Ok(rec) if rec.is_instantiated(domain) => Some(inst),
                Ok(rec) => {
                    rec.inst.insert(domain, inst);
                    None
                }
                Err(e) => {
                    // Destroyed while we allocated: release and report.
                    if let (Instantiation::Window(w), Executor::Thread(t)) =
                        (inst, &self.inner.exec)
                    {
                        t.coi().buffer_free(EngineId(domain.0 as u16), w);
                    }
                    return Err(e);
                }
            }
        };
        if let Some(Instantiation::Window(w)) = surplus {
            if let Executor::Thread(t) = &self.inner.exec {
                t.coi().buffer_free(EngineId(domain.0 as u16), w);
            }
            return Ok(());
        }
        #[cfg(feature = "hsan-record")]
        if self.is_recording() {
            with_class(LockClass::Recorder, || {
                if let Some(rec) = self.inner.recorder.lock().as_mut() {
                    rec.push(record::TraceOp::BufferInstantiate {
                        buffer: buf.0,
                        domain: domain.0,
                    });
                }
            });
        }
        Ok(())
    }

    /// Destroy a buffer, returning its windows to the COI pool.
    pub fn buffer_destroy(&self, buf: BufferId) -> HsResult<()> {
        self.inner.stats.bump("buffer_destroy");
        let len = with_class(LockClass::Buffers, || {
            self.inner.buffers.read().get(buf).map(|r| r.len)
        })?;
        // Wait for any action still touching the buffer.
        let deps = self.conflicting_events(buf, 0..len, true);
        self.wait_events_recovering(&deps)?;
        let insts = with_class(LockClass::Buffers, || {
            self.inner.buffers.write().destroy(buf)
        })?;
        #[cfg(feature = "hsan-record")]
        if self.is_recording() {
            with_class(LockClass::Recorder, || {
                if let Some(rec) = self.inner.recorder.lock().as_mut() {
                    rec.push(record::TraceOp::BufferDestroy { buffer: buf.0 });
                }
            });
        }
        if let Executor::Thread(t) = &self.inner.exec {
            for (domain, inst) in insts {
                if let Instantiation::Window(w) = inst {
                    t.coi().buffer_free(EngineId(domain.0 as u16), w);
                }
            }
        }
        with_class(LockClass::SimShadow, || {
            self.inner.sim_shadow.lock().remove(&buf)
        });
        Ok(())
    }

    pub fn buffer_len(&self, buf: BufferId) -> HsResult<usize> {
        with_class(LockClass::Buffers, || {
            self.inner.buffers.read().get(buf).map(|r| r.len)
        })
    }

    /// Resolve a proxy address into (buffer, offset) — the source proxy
    /// address translation of the paper.
    pub fn resolve_addr(&self, addr: addrspace::ProxyAddr) -> Option<(BufferId, usize)> {
        with_class(LockClass::Buffers, || {
            self.inner.buffers.read().resolve_addr(addr)
        })
    }

    /// Proxy base address of a buffer.
    pub fn buffer_addr(&self, buf: BufferId) -> HsResult<addrspace::ProxyAddr> {
        with_class(LockClass::Buffers, || {
            self.inner.buffers.read().get(buf).map(|r| r.proxy)
        })
    }

    /// Synchronously write into the buffer's **host** instantiation. Waits
    /// for conflicting in-flight actions first (source↔stream dependences
    /// are explicit in hStreams; this API is the explicit-sync entry point).
    pub fn buffer_write(&self, buf: BufferId, offset: usize, data: &[u8]) -> HsResult<()> {
        self.inner.stats.bump("buffer_write");
        let range = offset..offset + data.len();
        with_class(LockClass::Buffers, || {
            self.inner.buffers.read().get(buf)?.check_range(&range)
        })?;
        let deps = self.conflicting_events(buf, range.clone(), true);
        self.wait_events_recovering(&deps)?;
        match &self.inner.exec {
            Executor::Thread(t) => {
                let _lo = lockorder::acquiring(LockClass::Buffers);
                let buffers = self.inner.buffers.read();
                let rec = buffers.get(buf)?;
                let win = rec.window(DomainId::HOST)?;
                let mem = t
                    .coi()
                    .fabric()
                    .window(win.id())
                    .ok_or_else(|| HsError::ExecFailed("host window vanished".into()))?;
                let mut g = mem
                    .lock_range(range, true)
                    .map_err(|e| HsError::ExecFailed(e.to_string()))?;
                g.as_mut_slice().copy_from_slice(data);
            }
            Executor::Sim(_) => {
                let len = with_class(LockClass::Buffers, || {
                    self.inner.buffers.read().get(buf).map(|r| r.len)
                })?;
                let _lo = lockorder::acquiring(LockClass::SimShadow);
                let mut shadow = self.inner.sim_shadow.lock();
                let bytes = shadow.entry(buf).or_insert_with(|| vec![0; len]);
                bytes[range].copy_from_slice(data);
            }
        }
        Ok(())
    }

    /// Synchronously read from the buffer's **host** instantiation, waiting
    /// for conflicting in-flight actions first.
    pub fn buffer_read(&self, buf: BufferId, offset: usize, out: &mut [u8]) -> HsResult<()> {
        self.inner.stats.bump("buffer_read");
        let range = offset..offset + out.len();
        with_class(LockClass::Buffers, || {
            self.inner.buffers.read().get(buf)?.check_range(&range)
        })?;
        let deps = self.conflicting_events(buf, range.clone(), false);
        self.wait_events_recovering(&deps)?;
        match &self.inner.exec {
            Executor::Thread(t) => {
                let _lo = lockorder::acquiring(LockClass::Buffers);
                let buffers = self.inner.buffers.read();
                let rec = buffers.get(buf)?;
                let win = rec.window(DomainId::HOST)?;
                let mem = t
                    .coi()
                    .fabric()
                    .window(win.id())
                    .ok_or_else(|| HsError::ExecFailed("host window vanished".into()))?;
                let g = mem
                    .lock_range(range, false)
                    .map_err(|e| HsError::ExecFailed(e.to_string()))?;
                out.copy_from_slice(g.as_slice());
            }
            Executor::Sim(_) => {
                let _lo = lockorder::acquiring(LockClass::SimShadow);
                match self.inner.sim_shadow.lock().get(&buf) {
                    Some(shadow) => out.copy_from_slice(&shadow[range]),
                    None => out.fill(0),
                }
            }
        }
        Ok(())
    }

    /// `f64` convenience over [`HStreams::buffer_write`] (`offset` in
    /// elements).
    pub fn buffer_write_f64(&self, buf: BufferId, offset: usize, data: &[f64]) -> HsResult<()> {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.buffer_write(buf, offset * 8, &bytes)
    }

    /// `f64` convenience over [`HStreams::buffer_read`].
    pub fn buffer_read_f64(&self, buf: BufferId, offset: usize, out: &mut [f64]) -> HsResult<()> {
        let mut bytes = vec![0u8; out.len() * 8];
        self.buffer_read(buf, offset * 8, &mut bytes)?;
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out[i] = f64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        }
        Ok(())
    }

    // ------------------------------------------------------------ registry

    /// Register a sink-side task function, available in every domain.
    pub fn register(&self, name: &str, f: TaskFn) {
        self.inner.stats.bump("register");
        if let Executor::Thread(t) = &self.inner.exec {
            t.coi().register(name, f);
        }
        // Sim mode: tasks never run; names need no resolution.
    }

    // ------------------------------------------------------------- actions

    /// Do enqueue-time labels carry content? Skipped (empty) on the bare
    /// thread-mode fast path: labels only surface through sim traces, obs
    /// records, hsan recordings and chaos diagnostics.
    fn wants_labels(&self) -> bool {
        matches!(self.inner.exec, Executor::Sim(_))
            || self.inner.obs.is_enabled()
            || self.inner.chaos.is_armed()
            || self.is_recording()
    }

    /// Enqueue a compute action. `operands` drive the dependence analysis;
    /// `cost` drives the virtual-time executor ([`CostHint::trivial`] for
    /// real-mode-only code).
    pub fn enqueue_compute(
        &self,
        s: StreamId,
        func: &str,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
    ) -> HsResult<Event> {
        self.enqueue_compute_opts(s, func, args, operands, cost, ActionOpts::default())
    }

    /// Like [`HStreams::enqueue_compute`], with a deadline and/or retry
    /// budget.
    pub fn enqueue_compute_opts(
        &self,
        s: StreamId,
        func: &str,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
        opts: ActionOpts,
    ) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_compute");
        let action = BatchAction::Compute {
            func: func.to_string(),
            args,
            operands: operands.to_vec(),
            cost,
        };
        self.enqueue_one(s, action, opts)
    }

    /// Validate + resolve a compute action against the stream's *current*
    /// domain (card-loss replay re-resolves on the remapped stream).
    fn build_compute_spec(
        &self,
        st: &StreamState,
        func: String,
        args: Bytes,
        operands: &[Operand],
        cost: CostHint,
    ) -> HsResult<(ActionSpec, Footprint)> {
        let (s, domain, cores) = (st.id, st.domain, st.cores());
        let device = self.inner.platform.domains[domain.0].device;
        // Validate + resolve operands.
        let mut footprint: Footprint = Vec::with_capacity(operands.len());
        let mut bufs: Vec<hs_coi::pipeline::BufAccess> = Vec::new();
        let real = matches!(self.inner.exec, Executor::Thread(_));
        let _lo_buffers = lockorder::acquiring(LockClass::Buffers);
        let buffers = self.inner.buffers.read();
        for op in operands {
            let rec = buffers.get(op.buffer)?;
            rec.check_range(&op.range)?;
            if rec.props.read_only && op.access.is_write() {
                return Err(HsError::InvalidArg(format!(
                    "write operand on read-only buffer {:?}",
                    op.buffer
                )));
            }
            if !rec.is_instantiated(domain) {
                return Err(HsError::NotInstantiated(op.buffer, domain));
            }
            // Overlapping operands within ONE action would self-conflict at
            // the sink's range locks (read+write of the same bytes by the
            // same task); reject eagerly with a clear error instead.
            for prev in &footprint {
                if prev.buffer == op.buffer
                    && prev.range.start < op.range.end
                    && op.range.start < prev.range.end
                    && (prev.write || op.access.is_write())
                {
                    return Err(HsError::InvalidArg(format!(
                        "operands of one task overlap with a write on buffer {:?}                          ({:?} vs {:?}); pass a single merged operand instead",
                        op.buffer, prev.range, op.range
                    )));
                }
            }
            footprint.push(FootprintItem::new(
                domain,
                op.buffer,
                op.range.clone(),
                op.access.is_write(),
            ));
            if real {
                let w = rec.window(domain)?;
                bufs.push((w.id(), op.range.clone(), op.access.is_write()));
            }
        }
        let label = if self.wants_labels() {
            format!("{}@{}s{}", func, device.short(), s.0)
        } else {
            String::new()
        };
        let spec = ActionSpec::Compute {
            stream_idx: s.0 as usize,
            device,
            cores,
            func,
            args,
            bufs,
            cost,
            label,
        };
        Ok((spec, footprint))
    }

    /// Enqueue a data transfer of `buf[range]` from `from`'s instantiation
    /// to `to`'s. Same-domain transfers are aliased away (host-as-target
    /// optimization). Card↔card is rejected; route via the host.
    pub fn enqueue_xfer(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    ) -> HsResult<Event> {
        self.enqueue_xfer_opts(s, buf, range, from, to, ActionOpts::default())
    }

    /// Like [`HStreams::enqueue_xfer`], with a deadline and/or retry budget.
    pub fn enqueue_xfer_opts(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
        opts: ActionOpts,
    ) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_xfer");
        let action = BatchAction::Xfer {
            buf,
            range,
            from,
            to,
        };
        self.enqueue_one(s, action, opts)
    }

    /// Validate + resolve a transfer (card-loss replay rewrites lost-card
    /// endpoints to the host first).
    fn build_xfer_spec(
        &self,
        buf: BufferId,
        range: Range<usize>,
        from: DomainId,
        to: DomainId,
    ) -> HsResult<(ActionSpec, Footprint)> {
        for d in [from, to] {
            if d.0 >= self.inner.platform.domains.len() {
                return Err(HsError::UnknownDomain(d));
            }
        }
        let _lo_buffers = lockorder::acquiring(LockClass::Buffers);
        let buffers = self.inner.buffers.read();
        let rec = buffers.get(buf)?;
        rec.check_range(&range)?;
        for d in [from, to] {
            if !rec.is_instantiated(d) {
                return Err(HsError::NotInstantiated(buf, d));
            }
        }
        let elide = from == to;
        let card_domain = if elide {
            None
        } else {
            match (from.is_host(), to.is_host()) {
                (true, false) => Some(to.0),
                (false, true) => Some(from.0),
                (true, true) => None,
                (false, false) => return Err(HsError::CardToCard),
            }
        };
        let h2d = !to.is_host();
        let bytes = range.len();
        let real = if matches!(self.inner.exec, Executor::Thread(_)) && !elide {
            let src = rec.window(from)?;
            let dst = rec.window(to)?;
            Some(RealXfer {
                src: (src.id(), range.start),
                dst: (dst.id(), range.start),
            })
        } else {
            None
        };
        let footprint: Footprint = if elide {
            vec![FootprintItem::new(from, buf, range.clone(), false)]
        } else {
            vec![
                FootprintItem::new(from, buf, range.clone(), false),
                FootprintItem::new(to, buf, range.clone(), true),
            ]
        };
        let label = if self.wants_labels() {
            format!("xfer:{}:d{}->d{}", rec.label(), from.0, to.0)
        } else {
            String::new()
        };
        let spec = ActionSpec::Transfer {
            card_domain,
            h2d,
            bytes,
            real,
            label,
        };
        Ok((spec, footprint))
    }

    /// Transfer from the host instantiation to the stream's sink domain.
    pub fn xfer_to_sink(&self, s: StreamId, buf: BufferId, range: Range<usize>) -> HsResult<Event> {
        let to = self.stream_domain(s)?;
        self.enqueue_xfer(s, buf, range, DomainId::HOST, to)
    }

    /// Transfer from the stream's sink domain back to the host.
    pub fn xfer_to_source(
        &self,
        s: StreamId,
        buf: BufferId,
        range: Range<usize>,
    ) -> HsResult<Event> {
        let from = self.stream_domain(s)?;
        self.enqueue_xfer(s, buf, range, from, DomainId::HOST)
    }

    /// Enqueue a synchronization action: later actions in stream `s` wait
    /// until all of `events` (typically from *other* streams) complete.
    /// Prior actions of `s` are unaffected and keep executing out of order
    /// — this is hStreams' non-serializing cross-stream dependence
    /// mechanism (streams imply nothing about each other by themselves).
    pub fn enqueue_event_wait(&self, s: StreamId, events: &[Event]) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_event_wait");
        let action = BatchAction::EventWait {
            events: events.to_vec(),
        };
        self.enqueue_one(s, action, ActionOpts::default())
    }

    /// Enqueue a stream marker: it completes when **every** action already
    /// enqueued in `s` has completed, and later actions in `s` order after
    /// it (CUDA's `cudaEventRecord` shape; also a full intra-stream fence).
    pub fn enqueue_marker(&self, s: StreamId) -> HsResult<Event> {
        self.inner.stats.bump("enqueue_marker");
        self.enqueue_one(s, BatchAction::Marker, ActionOpts::default())
    }

    /// Enqueue a batch of actions on one stream in a single front-end
    /// round-trip. Semantically identical to calling the per-action
    /// enqueues in order (same dependences, same event graph, same
    /// recorded trace), but the shared-state traffic is amortized across
    /// the batch: one world-lock share, one stream-window lock (with one
    /// retirement sweep), one executor hand-off, one recovery-log lock —
    /// and intra-batch dependences are wired directly to the batch's
    /// freshly minted backend events without re-reading the event table.
    ///
    /// Returns the actions' events, index-aligned with `actions`. On any
    /// validation error nothing is enqueued (all-or-nothing).
    pub fn enqueue_many(&self, s: StreamId, actions: Vec<BatchAction>) -> HsResult<Vec<Event>> {
        self.enqueue_many_opts(s, actions, ActionOpts::default())
    }

    /// Like [`HStreams::enqueue_many`], with a deadline and/or retry
    /// budget applied to every action of the batch.
    pub fn enqueue_many_opts(
        &self,
        s: StreamId,
        actions: Vec<BatchAction>,
        opts: ActionOpts,
    ) -> HsResult<Vec<Event>> {
        self.inner.stats.bump("enqueue_many");
        if actions.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.enqueue_front(s, actions, opts)?.into_iter().collect())
    }

    /// A single action is a batch of one.
    fn enqueue_one(&self, s: StreamId, action: BatchAction, opts: ActionOpts) -> HsResult<Event> {
        let evs = self.enqueue_front(s, [action], opts)?;
        Ok(evs
            .into_iter()
            .next()
            .expect("a batch of one yields one event"))
    }

    /// The one enqueue front door, behind every public enqueue and the
    /// recovery replay: share the world lock, run the batch engine, then
    /// the amortized compaction.
    fn enqueue_front(
        &self,
        s: StreamId,
        actions: impl IntoIterator<Item = BatchAction>,
        opts: ActionOpts,
    ) -> HsResult<EventList> {
        let evs = {
            let _lo_world = lockorder::acquiring(LockClass::World);
            let _world = self.inner.world.read();
            self.enqueue_batch_common(s, &mut actions.into_iter(), opts)?
        };
        self.maybe_compact();
        Ok(evs)
    }

    /// The one builder: validate + resolve a source-terms action against
    /// the stream's *current* domain (card-loss replay re-resolves on the
    /// remapped stream) and count it by kind. `log` keeps the op for the
    /// recovery log.
    fn build_action(
        &self,
        st: &StreamState,
        action: BatchAction,
        log: bool,
    ) -> HsResult<BuiltAction> {
        let stats = &self.inner.stats;
        let (spec, footprint, kind, waits, logged) = match action {
            BatchAction::Compute {
                func,
                args,
                operands,
                cost,
            } => {
                stats.note_compute();
                let logged = log.then(|| LoggedOp::Compute {
                    func: func.clone(),
                    args: args.clone(),
                    operands: operands.clone(),
                    cost,
                });
                let (spec, footprint) = self.build_compute_spec(st, func, args, &operands, cost)?;
                (spec, footprint, ActionKind::Normal, Vec::new(), logged)
            }
            BatchAction::Xfer {
                buf,
                range,
                from,
                to,
            } => {
                let (spec, footprint) = self.build_xfer_spec(buf, range.clone(), from, to)?;
                stats.note_transfer(range.len() as u64, from == to);
                let logged = log.then_some(LoggedOp::Xfer {
                    buf,
                    range,
                    from,
                    to,
                });
                (spec, footprint, ActionKind::Normal, Vec::new(), logged)
            }
            sync => {
                stats.note_sync();
                let (kind, waits) = match sync {
                    BatchAction::EventWait { events } => (ActionKind::EventWait, events),
                    _ => (ActionKind::Marker, Vec::new()),
                };
                let logged = log.then_some(LoggedOp::Sync);
                (ActionSpec::Noop, Vec::new(), kind, waits, logged)
            }
        };
        Ok(BuiltAction {
            spec,
            footprint,
            kind,
            waits,
            logged,
        })
    }

    /// The enqueue engine, for every action: a single enqueue is a batch
    /// of one. Caller holds the world lock (shared). Per batch:
    ///
    /// * **one** stream-window lock and **one** retirement sweep;
    /// * every action is validated + resolved ([`Self::build_action`])
    ///   before the window is touched, so an invalid item enqueues nothing
    ///   — event-wait ids are the exception, checked in the windowed loop
    ///   where the batch's own reservations are visible;
    /// * per-item dependence analysis is incremental (item *i* is pushed
    ///   into the window before item *i+1*'s `find_deps`), and
    ///   dependences on the batch's own items resolve to
    ///   [`exec::BatchDep::Internal`] — no event-table round-trip;
    /// * **one** executor hand-off ([`Executor::submit_batch`]);
    /// * **one** recovery-log lock for all logged items;
    /// * all events publish before the stream lock is released, so
    ///   concurrent observers never see a window entry without its slot.
    fn enqueue_batch_common(
        &self,
        s: StreamId,
        actions: &mut dyn Iterator<Item = BatchAction>,
        opts: ActionOpts,
    ) -> HsResult<EventList> {
        let inner = &*self.inner;
        let st_arc = self.stream_arc(s)?;
        let submit_opts = self.submit_opts(&opts);
        // One timestamp for the whole batch (sim mode: one executor lock).
        let now_ns = inner.obs.is_enabled().then(|| self.source_now_ns());
        let _lo_stream = lockorder::acquiring(LockClass::Stream);
        let mut st = match st_arc.try_lock() {
            Some(g) => g,
            None => {
                inner.contended.incr();
                st_arc.lock()
            }
        };
        st.retire(|e| self.event_retired_ok(e));
        // Phase 1: validate + resolve under the window lock (lock order
        // Stream → Buffers), which also spares a compute a second stream
        // lookup and lock just to read its domain.
        let log = self.log_actions();
        let mut items = small::FirstInline::with_capacity(actions.size_hint().0);
        for a in actions {
            items.push(self.build_action(&st, a, log)?);
        }
        // While an hsan recording is live, hold the recorder from id mint
        // to trace push: the batch's ops land in the trace as one
        // contiguous ascending id run, at the cost of serializing
        // concurrent enqueues for the recording's duration.
        #[cfg(feature = "hsan-record")]
        let (_lo_rec, mut rec_guard) = if inner.recording.load(Ordering::Acquire) {
            let lo = lockorder::acquiring(LockClass::Recorder);
            (Some(lo), Some(inner.recorder.lock()))
        } else {
            (None, None)
        };
        let n = items.len();
        // Drop-guard over the reserved ids: if this loop exits early (the
        // wait validation below) or panics, every id reserved so far is
        // handed back as a tombstone — a reserved-but-never-published slot
        // would otherwise stall the retirement watermark forever.
        let mut ids = ReservedIds {
            events: &inner.events,
            ids: EventList::with_capacity(n),
        };
        let mut batch = small::FirstInline::with_capacity(n);
        let mut logs: Vec<LoggedAction> = Vec::new();
        #[cfg(feature = "hsan-record")]
        let mut rec_buf: Vec<record::ActionRecord> = Vec::new();
        let mut dep_events = DepList::new();
        for item in items {
            let BuiltAction {
                spec,
                footprint,
                kind,
                waits,
                logged,
            } = item;
            // Wait ids are validated here, not in phase 1: earlier batch
            // items have already reserved their slots by now, so a failure
            // at item i > 0 genuinely exercises the tombstone guard (and
            // the table can only have grown since phase 1, so nothing that
            // would have passed there fails here). All-or-nothing: nothing
            // was submitted (submit_batch is below) and nothing published.
            // Returning drops the guard, which tombstones every reserved
            // id, so earlier items' window entries read as retired
            // (completed success — no dependence edges form on them) and
            // the next retire sweep clears them.
            if let Some(e) = waits.iter().find(|e| e.0 >= inner.events.len()) {
                return Err(HsError::UnknownEvent(*e));
            }
            // EventWait actions depend on the awaited events plus the
            // pending sync barrier, if any (out-of-order mode: the wait
            // replaces `last_barrier`, so it must chain on the old one or a
            // marker's gate would be severed for post-wait actions) — and
            // under StrictFifo on the stream's previous action, or the
            // strict chain would break at every wait (the wait could
            // complete before its predecessor, releasing the successor
            // early). Markers depend on everything pending; normal actions
            // on their operand conflicts (or the chain, in strict mode).
            dep_events.clear();
            let redundant = match kind {
                stream::ActionKind::EventWait => match inner.ordering {
                    OrderingMode::OutOfOrder => {
                        dep_events.extend_from_slice(st.sync_chain().as_slice());
                        0
                    }
                    OrderingMode::StrictFifo => {
                        st.find_deps(&footprint, false, inner.ordering, &mut dep_events)
                    }
                },
                stream::ActionKind::Marker => {
                    st.find_deps(&footprint, true, inner.ordering, &mut dep_events)
                }
                stream::ActionKind::Normal => {
                    st.find_deps(&footprint, false, inner.ordering, &mut dep_events)
                }
            };
            if redundant != 0 {
                inner.redundant.add(redundant);
            }
            dep_events.extend_from_slice(&waits);
            dep_events.sort_dedup();
            // Intra-batch dependences point at reserved-but-unpublished
            // slots; route them straight to the batch's own completion
            // events. Everything else resolves through the table as usual.
            let mut deps = small::FirstInline::with_capacity(dep_events.len());
            for e in dep_events.iter() {
                if let Some(j) = ids.ids.iter().position(|id| id == e) {
                    deps.push(exec::BatchDep::Internal(j));
                    continue;
                }
                match inner.events.view(*e) {
                    EventView::Live(be, _) => deps.push(exec::BatchDep::External(be)),
                    // Tombstoned = completed success: nothing to wait on.
                    EventView::Retired(_) => {}
                    // Only reachable for waits validated against
                    // `events.len()` whose slot is mid-publish on another
                    // thread. Such an event cannot be a dependence source
                    // (its enqueue has not returned); intra-stream deps are
                    // always published (same stream lock).
                    EventView::Missing => {}
                }
            }
            let id = inner.events.reserve();
            let ev = Event(id);
            // The lifecycle record must be minted *before* submit: the spec
            // is consumed, and the fast path dispatches (emitting later
            // phases) inside submit itself.
            let obs = self.mint_obs(s, &spec, &footprint, now_ns);
            if let Some(op) = logged {
                logs.push(LoggedAction {
                    ev: id,
                    stream: s,
                    op,
                    deps: dep_events.iter().map(|e| e.0).collect(),
                    wrote: footprint
                        .iter()
                        .filter(|f| f.write)
                        .map(|f| f.domain.0)
                        .collect(),
                    retry: submit_opts.retry,
                });
            }
            // Recorder entries are buffered and pushed only once the whole
            // batch is through validation: an aborted batch must leave no
            // enqueue records for actions that never submitted (their ids
            // tombstone, and the trace would otherwise name events with no
            // completion).
            #[cfg(feature = "hsan-record")]
            if rec_guard.as_ref().is_some_and(|g| g.is_some()) {
                rec_buf.push(record::ActionRecord {
                    event: id,
                    stream: s.0,
                    kind,
                    label: spec.label().to_string(),
                    footprint: footprint.clone(),
                    waits: waits.iter().map(|e| e.0).collect(),
                });
            }
            ids.ids.push(ev);
            batch.push(exec::BatchSubmitItem {
                spec,
                deps,
                obs,
                opts: submit_opts,
            });
            // Window the item *now* so the next item's find_deps sees it.
            st.push(ev, footprint, kind);
        }
        let ids = ids.disarm();
        #[cfg(feature = "hsan-record")]
        if let Some(rec) = rec_guard.as_mut().and_then(|g| g.as_mut()) {
            for r in rec_buf {
                rec.push(record::TraceOp::Enqueue(r));
            }
        }
        // Phase 3: one executor round-trip for the whole batch. While a
        // recording is live, the completion log hooks each item's done
        // event *before* its dependents wire onto it — registering after
        // (as a post-submit loop would) records synchronously-dispatched
        // dependents ahead of their producers, inverting the observed
        // completion order.
        #[cfg(feature = "hsan-record")]
        let track = rec_guard.as_ref().and_then(|g| g.as_ref()).map(|rec| {
            let ids = &ids;
            move |i: usize, ce: &hs_coi::CoiEvent| {
                if let Some(ev) = ids.get(i) {
                    rec.completions.track(ce, ev.0);
                }
            }
        });
        #[cfg(not(feature = "hsan-record"))]
        let track: Option<fn(usize, &hs_coi::CoiEvent)> = None;
        let observe = track.as_ref().map(|t| t as exec::BatchObserver<'_>);
        let backends = inner.exec.submit_batch(batch, observe);
        if !logs.is_empty() {
            with_class(LockClass::Recovery, || inner.recovery.lock().extend(logs));
        }
        // Phase 4: publish everything before the stream lock drops.
        for (ev, be) in ids.iter().zip(backends) {
            inner.events.publish(ev.0, s, be);
        }
        Ok(ids)
    }

    /// The stream that produced an event.
    pub fn event_stream(&self, ev: Event) -> HsResult<StreamId> {
        self.inner
            .events
            .stream_of(ev)
            .ok_or(HsError::UnknownEvent(ev))
    }

    /// Like [`HStreams::enqueue_event_wait`], but **only** for dependences
    /// that actually cross streams: events produced by `s` itself are
    /// dropped (the FIFO + operand semantics already order them — the
    /// paper's recipe: "Otherwise, the FIFO semantic will manage the
    /// dependences within a stream implicitly"), and if nothing remains no
    /// synchronization action is enqueued at all — preserving `s`'s
    /// out-of-order freedom. Returns the barrier's event when one was
    /// needed.
    pub fn enqueue_cross_wait(&self, s: StreamId, events: &[Event]) -> HsResult<Option<Event>> {
        // While an hsan recording is live, already-complete events are kept:
        // waiting on them is a no-op at runtime (fast-path dispatch), but the
        // recorded wait edge is what lets the analyzer prove the dependence
        // was synchronized — pruning it would make a correctly-synced run
        // look racy.
        let keep_complete = self.is_recording();
        let mut cross = Vec::with_capacity(events.len());
        for e in events {
            match self.inner.events.view(*e) {
                EventView::Missing => return Err(HsError::UnknownEvent(*e)),
                // Tombstoned = completed success: prunable like any other
                // complete event.
                EventView::Retired(ps) => {
                    if ps != s && keep_complete {
                        cross.push(*e);
                    }
                }
                EventView::Live(be, ps) => {
                    // A completed *failure* is never pruned: the poison edge
                    // must still reach the dependent.
                    let live = !self.inner.exec.completed_ok(&be);
                    if ps != s && (keep_complete || live) {
                        cross.push(*e);
                    }
                }
            }
        }
        if cross.is_empty() {
            return Ok(None);
        }
        self.inner.stats.bump("enqueue_event_wait");
        let action = BatchAction::EventWait { events: cross };
        Ok(Some(self.enqueue_one(s, action, ActionOpts::default())?))
    }

    /// Has this event's action completed **successfully**? This is the
    /// dependence-window retirement predicate: failed actions never retire,
    /// so later overlapping enqueues still inherit the poison. Tombstoned
    /// entries completed successfully by construction.
    fn event_retired_ok(&self, e: Event) -> bool {
        // Probe under the slot lock — no payload clone. Lock order is
        // respected: EventSlot precedes SimExec, which `completed_ok` may
        // take for the sim backend.
        self.inner
            .events
            .retired_ok(e, |be| self.inner.exec.completed_ok(be))
    }

    /// Build the lifecycle record for an action about to be submitted.
    /// Returns an inert handle (no allocation beyond the `Option`) when
    /// tracing is off. `now_ns` is a pre-captured source timestamp: a
    /// batch stamps all its actions with one `source_now_ns` reading
    /// instead of one clock round-trip (and, in sim mode, one executor
    /// lock) per action.
    fn mint_obs(
        &self,
        s: StreamId,
        spec: &ActionSpec,
        footprint: &Footprint,
        now_ns: Option<u64>,
    ) -> ObsAction {
        if !self.inner.obs.is_enabled() {
            return ObsAction::disabled();
        }
        let (kind, card, h2d, bytes) = match spec {
            ActionSpec::Compute { .. } => (
                ObsKind::Compute,
                None,
                false,
                footprint.iter().map(|f| f.range.len() as u64).sum(),
            ),
            ActionSpec::Transfer {
                card_domain,
                h2d,
                bytes,
                ..
            } => (
                ObsKind::Transfer,
                card_domain.map(|c| c as u32),
                *h2d,
                *bytes as u64,
            ),
            ActionSpec::Noop => (ObsKind::Sync, None, false, 0),
        };
        // Per-kind enqueue counters surface in `metrics()` for both
        // executors (gauges like DMA queue depth are thread-mode-only).
        self.inner.obs.counter_add(
            match kind {
                ObsKind::Compute => "actions.compute",
                ObsKind::Transfer => "actions.transfer",
                ObsKind::Sync => "actions.sync",
            },
            1,
        );
        let meta = ActionMeta {
            stream: s.0,
            kind,
            card,
            h2d,
            bytes,
            footprint: footprint.len() as u32,
            label: spec.label().to_string(),
        };
        let now = now_ns.unwrap_or_else(|| self.source_now_ns());
        self.inner.obs.action(meta, now)
    }

    /// Source-side "now" in nanoseconds (wall in thread mode, virtual in
    /// sim mode) for obs timestamps.
    fn source_now_ns(&self) -> u64 {
        match &self.inner.exec {
            Executor::Thread(_) => self.inner.obs.wall_ns(),
            Executor::Sim(s) => s.lock().source_now_ns(),
        }
    }

    /// Events of pending actions conflicting with a source-side access of
    /// `buf[range]` (`write` = source intends to write).
    fn conflicting_events(&self, buf: BufferId, range: Range<usize>, write: bool) -> Vec<Event> {
        // The source access conflicts with an action touching this buffer in
        // any domain (a transfer still in flight, a compute on a card copy
        // the user will overwrite next, ...). Conservative and simple.
        let probe: Footprint = (0..self.num_domains())
            .map(|d| FootprintItem::new(DomainId(d), buf, range.clone(), write))
            .collect();
        let mut deps = Vec::new();
        let _lo_streams = lockorder::acquiring(LockClass::Streams);
        let streams = self.inner.streams.read();
        let mut tmp = DepList::new();
        for st in streams.iter() {
            tmp.clear();
            let red = with_class(LockClass::Stream, || {
                st.lock()
                    .find_deps(&probe, false, OrderingMode::OutOfOrder, &mut tmp)
            });
            if red != 0 {
                self.inner.redundant.add(red);
            }
            deps.extend_from_slice(tmp.as_slice());
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    // ------------------------------------------------------- compaction

    /// Amortized bounded-memory sweep, run outside the enqueue locks.
    ///
    /// Cadence is observed through the event table's block-mint counter
    /// rather than a dedicated per-enqueue counter: the common case is two
    /// relaxed loads and **zero** shared RMWs per action, and the CAS —
    /// attempted only once per [`COMPACT_BLOCKS`] mints — elects a single
    /// compacting thread.
    fn maybe_compact(&self) {
        let inner = &*self.inner;
        let mints = inner.events.mints();
        let due = inner.compact_due.load(Ordering::Relaxed);
        if mints < due {
            return;
        }
        if inner
            .compact_due
            .compare_exchange(
                due,
                mints + COMPACT_BLOCKS,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.compact_now();
        }
    }

    /// Tombstone completed-successful events in the global table (their
    /// backend handles drop; late waiters still resolve them as successes)
    /// and, while chaos is armed, prune recovery-log entries that can never
    /// be replayed. Runs automatically every [`COMPACT_EVERY`] enqueues;
    /// public so long-running tests and services can force a sweep at a
    /// quiesce point.
    pub fn compact_now(&self) {
        // An hsan recording resolves sim fire-times through the backend
        // tokens at `recording_take`; don't drop them mid-recording.
        if self.is_recording() {
            return;
        }
        let inner = &*self.inner;
        let _lo_world = lockorder::acquiring(LockClass::World);
        let _world = inner.world.read();
        // Hand back every thread's private id block first: unused tail ids
        // tombstone, so the watermark below can sweep past them instead of
        // stalling at the first untaken id. Threads re-mint on next use.
        inner.events.drain_blocks();
        inner.events.compact(|be| {
            if !inner.exec.is_complete(be) {
                return None;
            }
            Some(inner.exec.failure_of(be).is_none())
        });
        if self.log_actions() {
            // An in-memory recovery entry is dead weight once its action
            // completed successfully AND all its writes landed in host
            // domains: host memory survives card loss, and the replay
            // closure only pulls in producers whose results lived on the
            // lost card. Failed or pending actions always stay. This prunes
            // the in-memory mirror only — on-disk WAL records are pruned
            // solely by watermark retirement at a checkpoint.
            let _lo = lockorder::acquiring(LockClass::Recovery);
            let mut log = inner.recovery.lock();
            log.retain(&mut |la: &LoggedAction| {
                let done_ok = match inner.events.view_id(la.ev) {
                    EventView::Retired(_) => true,
                    EventView::Live(be, _) => inner.exec.completed_ok(&be),
                    EventView::Missing => false,
                };
                !(done_ok && la.wrote.iter().all(|d| *d == 0))
            });
        }
        // Durable runs: buffered appends reach the page cache on the same
        // cadence, and a fully-quiescent table is the chance to checkpoint
        // buffer state and retire WAL segments below the watermark.
        self.wal_flush();
        self.wal_maybe_checkpoint(false);
    }

    // ----------------------------------------------------------- durability

    /// The shared WAL writer, when durability is on.
    fn wal(&self) -> Option<&Arc<durable::WalShared>> {
        if !self.inner.durable.load(Ordering::Acquire) {
            return None;
        }
        self.inner.wal.get()
    }

    /// Push buffered WAL appends to the kernel page cache. Runs at every
    /// wait entry: everything an application could have observed complete
    /// is on disk before the wait returns. Drains the sink's staged frames
    /// into the writer first (Recovery → Wal, the documented order), then
    /// flushes. No-op when durability is off.
    fn wal_flush(&self) {
        if let Some(wal) = self.wal() {
            with_class(LockClass::Recovery, || self.inner.recovery.lock().drain());
            wal.flush();
        }
    }

    /// Log a successful host wait as a replay barrier on the WAL's meta
    /// partition (see [`durable::barrier_phases`]). No-op when durability
    /// is off, and when nothing was logged since the last barrier.
    fn wal_barrier(&self) {
        if self.wal().is_some() {
            with_class(LockClass::Recovery, || self.inner.recovery.lock().barrier());
        }
    }

    /// At a quiesce point — every reserved event retired — snapshot all
    /// buffer instantiations into a checkpoint blob and retire WAL segments
    /// below the watermark. `force` skips the appended-bytes throttle (test
    /// hook); the quiesce requirement always holds, since a snapshot taken
    /// against in-flight writers would tear.
    fn wal_maybe_checkpoint(&self, force: bool) {
        let Some(wal) = self.wal() else { return };
        if !force && !wal.wants_checkpoint() {
            return;
        }
        let table = self.inner.events.stats();
        if table.live != 0 || table.watermark != table.reserved {
            return;
        }
        let bufs = self.wal_snapshot_buffers();
        wal.checkpoint(table.watermark, &bufs);
    }

    /// Gather every buffer instantiation's bytes for a checkpoint. Card
    /// windows are included, not just host ones: post-checkpoint actions
    /// may read card-resident data produced before it, and the checkpoint
    /// replaces the retired log records that produced that data. Called at
    /// a quiesce point (no in-flight action holds any window range).
    fn wal_snapshot_buffers(&self) -> Vec<(u64, u32, Vec<u8>)> {
        let mut out = Vec::new();
        match &self.inner.exec {
            Executor::Thread(t) => {
                let _lo = lockorder::acquiring(LockClass::Buffers);
                let buffers = self.inner.buffers.read();
                for rec in buffers.iter() {
                    for (domain, inst) in &rec.inst {
                        let Instantiation::Window(w) = inst else {
                            continue;
                        };
                        let Some(mem) = t.coi().fabric().window(w.id()) else {
                            continue;
                        };
                        let Ok(g) = mem.lock_range(0..rec.len, false) else {
                            continue;
                        };
                        out.push((rec.id.0, domain.0 as u32, g.as_slice().to_vec()));
                    }
                }
            }
            Executor::Sim(_) => {
                // Sim mode: bytes only exist in the host shadow map.
                let _lo = lockorder::acquiring(LockClass::SimShadow);
                for (buf, bytes) in self.inner.sim_shadow.lock().iter() {
                    out.push((buf.0, 0, bytes.clone()));
                }
            }
        }
        out
    }

    /// Enable durable action logging into a fresh run directory under
    /// `root`. Must be called before any action is enqueued; from then on
    /// every enqueue appends a checksummed record to a per-stream WAL
    /// partition, wait entries flush to the page cache (surviving `kill
    /// -9`), and compaction checkpoints + truncates at quiesce points.
    /// Returns the new run id. A broken WAL (disk error) downgrades to
    /// in-memory logging with a note on the chaos log — it never fails an
    /// enqueue after this call succeeds.
    ///
    /// `root` must hold no prior run directories: an existing run is a
    /// crashed (or merely finished) generation that [`HStreams::recover`]
    /// treats as authoritative — and `recover` deletes every *newer* run
    /// as an interrupted-recovery leftover, so a fresh generation minted
    /// here over an old root would be destroyed by the next recovery.
    /// Recover the old run first, or point at a clean root.
    pub fn durability(&self, root: impl AsRef<std::path::Path>) -> HsResult<u64> {
        self.durability_opts(root, false, 0)
    }

    /// [`HStreams::durability`] with explicit media-durability knobs:
    /// `fsync` syncs segment data to media on every runtime flush, and
    /// `batch_ms > 0` group-commits those syncs — flushes landing within
    /// `batch_ms` of the last fsync skip the syscall (counted on the
    /// `wal.fsync_batched` counter) and ride the next one, trading a
    /// bounded post-crash media-durability window for one fsync per
    /// window instead of one per flush. `batch_ms` is ignored when
    /// `fsync` is off. Same preconditions and return value as
    /// [`HStreams::durability`].
    pub fn durability_opts(
        &self,
        root: impl AsRef<std::path::Path>,
        fsync: bool,
        batch_ms: u64,
    ) -> HsResult<u64> {
        let root = root.as_ref();
        let runs = durable::list_runs(root)
            .map_err(|e| HsError::ExecFailed(format!("wal: listing {}: {e}", root.display())))?;
        if let Some((id, _)) = runs.first() {
            return Err(HsError::InvalidArg(format!(
                "durability: {} already holds run {:016x} — recover() it or use a fresh \
                 root (recover treats the oldest run as authoritative and deletes newer ones)",
                root.display(),
                id
            )));
        }
        let run_id = durable::fresh_run_id();
        let opts = hs_wal::WalOptions {
            fsync,
            fsync_batch_ms: batch_ms,
            ..hs_wal::WalOptions::default()
        };
        self.enable_durability(root, run_id, opts)?;
        Ok(run_id)
    }

    fn enable_durability(
        &self,
        root: &std::path::Path,
        run_id: u64,
        opts: hs_wal::WalOptions,
    ) -> HsResult<()> {
        if self.inner.events.len() != 0 {
            return Err(HsError::InvalidArg(
                "durability must be enabled before any action is enqueued".into(),
            ));
        }
        let dir = root.join(durable::run_dir_name(run_id));
        std::fs::create_dir_all(&dir)
            .map_err(|e| HsError::ExecFailed(format!("wal: creating {}: {e}", dir.display())))?;
        let wal = hs_wal::Wal::create(&dir, run_id, opts)
            .map_err(|e| HsError::ExecFailed(format!("wal: opening {}: {e}", dir.display())))?;
        let shared = Arc::new(durable::WalShared::new(
            wal,
            self.inner.chaos.clone(),
            self.inner.obs.clone(),
        ));
        self.inner
            .wal
            .set(shared.clone())
            .map_err(|_| HsError::InvalidArg("durability already enabled".into()))?;
        // Swap the sink in *before* releasing the flag: an enqueue that
        // observes `durable == true` then takes the Recovery lock and must
        // find the WalLog there.
        with_class(LockClass::Recovery, || {
            *self.inner.recovery.lock() = Box::new(durable::WalLog::new(shared));
        });
        self.inner.durable.store(true, Ordering::Release);
        Ok(())
    }

    /// Force a WAL flush and, if the runtime is quiescent, a checkpoint +
    /// segment retirement — the same work `compact_now` performs on its
    /// amortized cadence, without the appended-bytes throttle. No-op when
    /// durability is off. Compacts first: the quiesce requirement
    /// (`watermark == reserved`) only holds once per-thread id blocks are
    /// drained and the retirement watermark sweeps forward.
    pub fn wal_checkpoint(&self) {
        self.compact_now();
        self.wal_maybe_checkpoint(true);
    }

    /// WAL statistics (None when durability is off).
    pub fn wal_stats(&self) -> Option<hs_wal::WalStats> {
        self.wal().map(|w| w.stats())
    }

    // ---------------------------------------------------------------- waits

    /// Wait for one event, running card-loss degradation (and re-waiting on
    /// the replayed action) when the failure's root cause is a lost card.
    fn wait_event_recovering(&self, ev: Event) -> HsResult<()> {
        loop {
            // Snapshot the degradation generation *before* inspecting the
            // event: a degradation completing between our failed wait and
            // our recovery attempt is detected as a stale snapshot.
            let gen = self.inner.degrade_gen.load(Ordering::Acquire);
            match self.inner.events.view(ev) {
                EventView::Missing => {
                    if ev.0 < self.inner.events.len() {
                        // Reserved, publish in flight on another thread.
                        std::thread::yield_now();
                        continue;
                    }
                    return Err(HsError::UnknownEvent(ev));
                }
                // Tombstoned: completed successfully and compacted.
                EventView::Retired(_) => return Ok(()),
                EventView::Live(be, _) => match self.inner.exec.wait(&be) {
                    Ok(()) => return Ok(()),
                    Err(c) => {
                        if self.try_degrade(&c, gen)? {
                            continue; // the event now tracks the replayed action
                        }
                        return Err(HsError::ActionFailed(c));
                    }
                },
            }
        }
    }

    fn wait_events_recovering(&self, evs: &[Event]) -> HsResult<()> {
        for ev in evs {
            self.wait_event_recovering(*ev)?;
        }
        Ok(())
    }

    /// Wait for one event.
    pub fn event_wait(&self, ev: Event) -> HsResult<()> {
        self.inner.stats.bump("event_wait");
        self.wal_flush();
        self.wait_event_recovering(ev)?;
        self.wal_barrier();
        Ok(())
    }

    /// Wait for all events.
    pub fn event_wait_all(&self, evs: &[Event]) -> HsResult<()> {
        self.inner.stats.bump("event_wait_all");
        self.wal_flush();
        self.wait_events_recovering(evs)?;
        self.wal_barrier();
        Ok(())
    }

    /// Wait until any of the events *succeeds*; returns its index. Errors
    /// only when every event has failed — with the first failure in list
    /// order (the paper: "waiting on a set of events and being signaled
    /// when one or all the events are finished ... can save CPU spinning
    /// time").
    pub fn event_wait_any(&self, evs: &[Event]) -> HsResult<usize> {
        self.inner.stats.bump("event_wait_any");
        self.wal_flush();
        if evs.is_empty() {
            return Err(HsError::InvalidArg("wait_any on empty set".into()));
        }
        'retry: loop {
            let gen = self.inner.degrade_gen.load(Ordering::Acquire);
            let mut bes = Vec::with_capacity(evs.len());
            for (i, ev) in evs.iter().enumerate() {
                match self.inner.events.view(*ev) {
                    EventView::Missing => {
                        if ev.0 < self.inner.events.len() {
                            std::thread::yield_now();
                            continue 'retry;
                        }
                        return Err(HsError::UnknownEvent(*ev));
                    }
                    // Tombstoned = already a success.
                    EventView::Retired(_) => {
                        self.wal_barrier();
                        return Ok(i);
                    }
                    EventView::Live(be, _) => bes.push(be),
                }
            }
            match self.inner.exec.wait_any(&bes) {
                Ok(i) => {
                    self.wal_barrier();
                    return Ok(i);
                }
                Err(c) => {
                    if self.try_degrade(&c, gen)? {
                        continue; // replayed events may yet succeed
                    }
                    return Err(HsError::ActionFailed(c));
                }
            }
        }
    }

    // --------------------------------------------- card-loss degradation

    /// If `cause` is rooted in a lost card that has not been degraded yet
    /// (and the armed plan wants auto-degradation), stop the world, degrade
    /// that card and return `true` — the caller re-waits on the replayed
    /// events. `seen_gen` is the degradation generation the caller loaded
    /// before its failed wait: when stale, another thread already degraded
    /// and the caller simply re-waits.
    fn try_degrade(&self, cause: &FailureCause, seen_gen: u64) -> HsResult<bool> {
        let FailureCause::CardLost { card } = *cause.root() else {
            return Ok(false);
        };
        if !self.inner.chaos.auto_degrade() {
            return Ok(false);
        }
        if card == 0 || card as usize >= self.inner.platform.domains.len() {
            return Ok(false);
        }
        let _lo_world = lockorder::acquiring(LockClass::World);
        let _world = self.inner.world.write();
        if self.inner.degrade_gen.load(Ordering::Acquire) != seen_gen {
            // A degradation completed since the caller's snapshot; its
            // failed wait may now resolve against a replayed action.
            return Ok(true);
        }
        if with_class(LockClass::Degraded, || {
            self.inner.degraded.lock().contains(&card)
        }) {
            return Ok(false);
        }
        self.degrade_card(card)?;
        self.inner.degrade_gen.fetch_add(1, Ordering::Release);
        Ok(true)
    }

    /// Card-loss degradation: quiesce, remap the card's streams to the
    /// host, drop its (lost) buffer instantiations, and replay the affected
    /// actions from the recovery log against the surviving domains. Runs
    /// under the exclusive world lock: no enqueue or stream creation is in
    /// flight anywhere.
    fn degrade_card(&self, card: u32) -> HsResult<()> {
        let inner = &*self.inner;
        let dom = DomainId(card as usize);
        inner.chaos.mark_card_dead(card);
        with_class(LockClass::Degraded, || inner.degraded.lock().push(card));
        // 1. Quiesce: settle every in-flight action's status. Everything
        //    completes — card ops fail fast against the dead set, failures
        //    poison dependents, and deadlines bound the rest.
        match &inner.exec {
            Executor::Sim(_) => inner.exec.run_all(),
            Executor::Thread(_) => {
                for id in 0..inner.events.len() {
                    if let EventView::Live(BackendEvent::Thread(e), _) = inner.events.view_id(id) {
                        let _ = e.wait();
                    }
                }
            }
        }
        // 2. Remap the lost card's streams to host sinks. Stream ids stay
        //    valid; subsequent (and replayed) actions resolve on the host.
        let mut remapped = 0u32;
        {
            let _lo_streams = lockorder::acquiring(LockClass::Streams);
            let streams = inner.streams.read();
            for (i, st_arc) in streams.iter().enumerate() {
                let _lo_stream = lockorder::acquiring(LockClass::Stream);
                let mut st = st_arc.lock();
                if st.domain == dom {
                    st.domain = DomainId::HOST;
                    inner.exec.remap_stream_to_host(i);
                    remapped += 1;
                }
            }
        }
        // 3. Drop the card's buffer instantiations — that memory is gone.
        //    The source proxy (host instantiation) is the recovery copy.
        let mut dropped = 0u32;
        let mut freed = Vec::new();
        {
            let _lo_buffers = lockorder::acquiring(LockClass::Buffers);
            let mut buffers = inner.buffers.write();
            for rec in buffers.iter_mut() {
                if let Some(inst) = rec.inst.remove(&dom) {
                    dropped += 1;
                    if let Instantiation::Window(w) = inst {
                        freed.push(w);
                    }
                }
            }
        }
        if let Executor::Thread(t) = &inner.exec {
            for w in freed {
                t.coi().buffer_free(EngineId(card as u16), w);
            }
        }
        // 4. Replay the affected actions on the surviving domains.
        let replayed = self.replay_after_loss(dom)?;
        // 5. Surface the event to tuners/tests.
        inner
            .obs
            .degraded(card, remapped, dropped, replayed, self.source_now_ns());
        inner.chaos.note(format!(
            "degraded: card {card} lost, {remapped} streams remapped, \
             {dropped} buffers dropped, {replayed} actions replayed"
        ));
        // Durable runs record the degradation on the meta partition so a
        // restarted process learns the prior failure history.
        if let Some(wal) = self.wal() {
            wal.append_meta(&FailureCause::CardLost { card });
        }
        self.wal_flush();
        Ok(())
    }

    /// Re-admit a restarted worker process as fabric card `card`. The
    /// inverse of the degradation path: reconnects the card's
    /// [`hs_fabric::RemoteDomain`] to the (possibly new) `endpoint` with
    /// exponential backoff, verifies liveness with a ping, revives the card
    /// on the chaos hub, and clears it from the degraded set.
    ///
    /// Scope: *new* work. Streams that were remapped to the host during
    /// degradation stay on the host (their actions already replayed there),
    /// and the card's buffer instantiations were dropped with its memory —
    /// re-instantiate buffers and create fresh streams on the domain after
    /// readmission. The restarted worker starts empty; there is nothing on
    /// it to reuse.
    pub fn readmit_remote(&self, card: u32, endpoint: &Endpoint) -> HsResult<()> {
        use hs_fabric::Transport as _;
        let inner = &*self.inner;
        let Executor::Thread(t) = &inner.exec else {
            return Err(HsError::ExecFailed(
                "readmit_remote requires a thread-backed exec mode".to_string(),
            ));
        };
        if card == 0 || (card as usize) >= inner.platform.domains.len() {
            return Err(HsError::UnknownDomain(DomainId(card as usize)));
        }
        // Exclusive frontend: no enqueue may race the flip from dead to
        // live, or it could observe a half-revived card.
        let _lo_world = lockorder::acquiring(LockClass::World);
        let _world = inner.world.write();
        let fabric = t.coi().fabric();
        let transport = fabric.transport(hs_fabric::NodeId(card as u16));
        let Some(remote) = transport.as_remote() else {
            return Err(HsError::InvalidArg(format!(
                "domain {card} is not a remote domain"
            )));
        };
        remote
            .reconnect(endpoint, &RetryPolicy::standard(6))
            .map_err(|e| HsError::ExecFailed(format!("readmit card {card}: {e}")))?;
        remote
            .ping()
            .map_err(|e| HsError::ExecFailed(format!("readmit card {card}: ping: {e}")))?;
        // The old worker's window allocations died with it; free-listed
        // pool windows for this engine are phantoms the empty replacement
        // has never heard of.
        t.coi().pool_purge(EngineId(card as u16));
        inner.chaos.revive_card(card);
        with_class(LockClass::Degraded, || {
            inner.degraded.lock().retain(|c| *c != card)
        });
        inner
            .chaos
            .note(format!("readmitted: card {card} at {endpoint}"));
        Ok(())
    }

    /// Select and re-submit the actions invalidated by losing `dom`: every
    /// failed action, plus (transitively) its dependence producers whose
    /// results lived on the lost card. The set is submitted as one batch in
    /// recovery-log order with its recorded dependences, and each replay
    /// overwrites its event-table slot in place, so application-held
    /// [`Event`] handles transparently track the replayed attempt. A build
    /// error submits nothing.
    fn replay_after_loss(&self, dom: DomainId) -> HsResult<u32> {
        let inner = &*self.inner;
        // Snapshot under a short lock; the rest of the replay touches
        // streams/buffers and must respect the lock order.
        let log: Vec<LoggedAction> =
            with_class(LockClass::Recovery, || inner.recovery.lock().snapshot());
        let by_ev: std::collections::HashMap<u64, usize> =
            log.iter().enumerate().map(|(i, la)| (la.ev, i)).collect();
        let n = log.len();
        let mut in_set = vec![false; n];
        for (i, la) in log.iter().enumerate() {
            let failed = match inner.events.view_id(la.ev) {
                EventView::Live(be, _) => inner.exec.failure_of(&be).is_some(),
                _ => false, // retired = success; missing = never published
            };
            if failed {
                in_set[i] = true;
            }
        }
        // Backward closure: a replayed consumer needs every producer whose
        // result lived (only) on the lost card — its successful effects are
        // gone with the card's memory. Host-resident results survive and
        // are NOT re-run (re-running a successful accumulate would
        // double-apply it).
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if !in_set[i] {
                    continue;
                }
                for d in &log[i].deps {
                    if let Some(&j) = by_ev.get(d) {
                        if !in_set[j] && log[j].wrote.contains(&dom.0) {
                            in_set[j] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        // One all-or-nothing submission, built through the enqueue builder
        // before anything is submitted. Producers inside the set resolve to
        // their replayed attempts; untouched producers are complete
        // (quiesced) successes — including tombstoned ones, which need no
        // backend handle at all.
        let set: Vec<&LoggedAction> = (0..n).filter(|&i| in_set[i]).map(|i| &log[i]).collect();
        let now_ns = inner.obs.is_enabled().then(|| self.source_now_ns());
        let mut pos: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut items = small::FirstInline::with_capacity(set.len());
        for la in &set {
            let action = la.op.to_action(Some(dom), Vec::new());
            let built = {
                let st_arc = self.stream_arc(la.stream)?;
                let _lo_stream = lockorder::acquiring(LockClass::Stream);
                let st = st_arc.lock();
                self.build_action(&st, action, false)?
            };
            let deps = la
                .deps
                .iter()
                .filter_map(|d| match pos.get(d) {
                    Some(&j) => Some(exec::BatchDep::Internal(j)),
                    None => match inner.events.view_id(*d) {
                        EventView::Live(be, _) => Some(exec::BatchDep::External(be)),
                        _ => None,
                    },
                })
                .collect();
            pos.insert(la.ev, items.len());
            items.push(exec::BatchSubmitItem {
                obs: self.mint_obs(la.stream, &built.spec, &built.footprint, now_ns),
                spec: built.spec,
                deps,
                opts: SubmitOpts {
                    deadline_ns: None,
                    retry: la.retry,
                },
            });
        }
        let backends = inner.exec.submit_batch(items, None);
        for (la, be) in set.iter().zip(backends) {
            inner.events.overwrite(la.ev, be);
        }
        Ok(set.len() as u32)
    }

    /// Resolve per-action options against the armed plan's defaults.
    fn submit_opts(&self, opts: &ActionOpts) -> SubmitOpts {
        SubmitOpts {
            deadline_ns: opts.deadline.map(|d| d.as_nanos() as u64),
            retry: opts.retry.unwrap_or_else(|| {
                if self.inner.chaos.is_armed() {
                    self.inner.chaos.default_retry()
                } else {
                    RetryPolicy::none()
                }
            }),
        }
    }

    /// Wait until every action enqueued in `s` has completed.
    ///
    /// Walks the pending window incrementally (one event at a time under a
    /// brief stream lock) instead of cloning it, so concurrent enqueuers on
    /// the same stream are not blocked and memory stays bounded; actions
    /// enqueued by *other threads* while this wait runs are waited on too.
    pub fn stream_synchronize(&self, s: StreamId) -> HsResult<()> {
        self.inner.stats.bump("stream_synchronize");
        self.wal_flush();
        let st_arc = self.stream_arc(s)?;
        let mut last = None;
        loop {
            let next = with_class(LockClass::Stream, || {
                st_arc.lock().first_pending_after(last)
            });
            match next {
                None => break,
                Some(e) => {
                    self.wait_event_recovering(e)?;
                    last = Some(e);
                }
            }
        }
        // Everything observed complete: full sweep so no stale index
        // entries linger past a synchronize point.
        with_class(LockClass::Stream, || {
            st_arc.lock().retire_now(|e| self.event_retired_ok(e))
        });
        // The wait loop above also covers actions other threads enqueued
        // *while it ran*; their records may postdate the entry flush, so
        // flush again — nothing observed complete here returns unflushed.
        self.wal_flush();
        self.wal_barrier();
        Ok(())
    }

    /// Wait until every action in every stream has completed.
    pub fn thread_synchronize(&self) -> HsResult<()> {
        self.inner.stats.bump("thread_synchronize");
        for i in 0..self.num_streams() {
            self.stream_synchronize(StreamId(i as u32))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------- metrics

    pub fn stats(&self) -> &ApiStats {
        &self.inner.stats
    }

    /// Elapsed time: virtual seconds (sim) or wall seconds (threads).
    pub fn now_secs(&self) -> f64 {
        self.inner.exec.now_secs()
    }

    /// Charge synchronous source time (used by layered runtimes like the
    /// OmpSs reproduction to model their per-task overheads). No-op in real
    /// mode.
    pub fn charge_source_secs(&self, secs: f64) {
        self.inner
            .exec
            .charge_source(hs_sim::Dur::from_secs_f64(secs));
    }

    /// Sim-mode execution trace (None in real mode). An owned snapshot:
    /// the simulator lives behind the executor lock, so borrowing out of
    /// it is not possible — and traces are read at analysis time, not on
    /// hot paths.
    pub fn trace(&self) -> Option<hs_sim::Trace> {
        match &self.inner.exec {
            Executor::Sim(s) => Some(s.lock().trace().clone()),
            Executor::Thread(_) => None,
        }
    }

    /// Enable/disable sim-mode span recording.
    pub fn set_tracing(&self, enabled: bool) {
        if let Executor::Sim(s) = &self.inner.exec {
            s.lock().set_tracing(enabled);
        }
    }

    // ------------------------------------------------------- observability

    /// Enable/disable action-lifecycle recording (both executor modes).
    /// While disabled — the default — enqueues pay one relaxed atomic load.
    pub fn obs_enable(&self, on: bool) {
        self.inner.obs.enable(on);
    }

    /// The lifecycle/metrics hub (shared with the executors and COI layer).
    pub fn obs(&self) -> &ObsHub {
        &self.inner.obs
    }

    /// Drain the lifecycle records collected so far (for export via
    /// `hs_obs::chrome`).
    pub fn take_obs_records(&self) -> Vec<ObsRecord> {
        self.inner.obs.take_records()
    }

    /// Export the lifecycle records collected so far as Chrome-trace JSON
    /// (`chrome://tracing` / Perfetto), draining them. One row per stream,
    /// one per DMA channel.
    pub fn export_chrome_trace(&self) -> String {
        hs_obs::chrome::chrome_trace_json(&self.take_obs_records())
    }

    /// A flat metrics snapshot: obs gauges/counters (workgroup occupancy,
    /// DMA queue depths) plus derived DMA link utilization and worker-spawn
    /// counts in real mode, event-table occupancy and front-end contention
    /// counters in every mode. Mergeable into bench JSON via `hs-bench`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.inner.obs.metrics();
        let table = self.inner.events.stats();
        snap.extra
            .insert("events.reserved".into(), table.reserved as f64);
        snap.extra.insert("events.live".into(), table.live as f64);
        snap.extra
            .insert("events.retired".into(), table.retired as f64);
        snap.extra
            .insert("events.watermark".into(), table.watermark as f64);
        snap.extra
            .insert("events.id_block.mints".into(), table.mints as f64);
        snap.extra
            .insert("events.id_block.tombstoned".into(), table.tombstoned as f64);
        snap.extra.insert(
            "frontend.stream_lock.contended".into(),
            self.inner.contended.get() as f64,
        );
        snap.extra
            .insert("deps.redundant".into(), self.inner.redundant.get() as f64);
        snap.extra.insert(
            "frontend.recovery.entries".into(),
            with_class(LockClass::Recovery, || self.inner.recovery.lock().len()) as f64,
        );
        if let Some(ws) = self.wal_stats() {
            snap.extra
                .insert("wal.appended_bytes".into(), ws.appended_bytes as f64);
            snap.extra.insert("wal.records".into(), ws.records as f64);
            snap.extra.insert("wal.segments".into(), ws.segments as f64);
            snap.extra.insert("wal.flushes".into(), ws.flushes as f64);
            snap.extra.insert("wal.fsync_us".into(), ws.fsync_us as f64);
            snap.extra
                .insert("wal.retired_segments".into(), ws.retired_segments as f64);
        }
        if let Executor::Thread(t) = &self.inner.exec {
            let fabric = t.coi().fabric();
            let wall = self.inner.exec.now_secs();
            for (card_idx, _) in self.inner.platform.cards() {
                for h2d in [true, false] {
                    let node = hs_fabric::NodeId(card_idx as u16);
                    let stats = fabric.engine(node, h2d).stats();
                    let dir = if h2d { "h2d" } else { "d2h" };
                    let key = format!("dma.c{card_idx}.{dir}");
                    snap.extra
                        .insert(format!("{key}.bytes"), stats.bytes as f64);
                    snap.extra.insert(format!("{key}.ops"), stats.ops as f64);
                    if wall > 0.0 {
                        snap.extra.insert(
                            format!("{key}.utilization"),
                            (stats.busy_ns as f64 / 1e9) / wall,
                        );
                    }
                }
            }
            // Remote cards additionally report raw link traffic: what the
            // wire actually carried (frame headers included), next to the
            // modelled `dma.cN.*` totals the pacer accounts for.
            for (card_idx, _) in self.inner.platform.cards() {
                let node = hs_fabric::NodeId(card_idx as u16);
                if !fabric.is_remote(node) {
                    continue;
                }
                let link = fabric.transport(node).link_stats();
                let key = format!("link.c{card_idx}");
                snap.extra
                    .insert(format!("{key}.tx_bytes"), link.tx_bytes as f64);
                snap.extra
                    .insert(format!("{key}.rx_bytes"), link.rx_bytes as f64);
                snap.extra.insert(format!("{key}.reqs"), link.reqs as f64);
                snap.extra
                    .insert(format!("{key}.rtt_us"), link.rtt_ns as f64 / 1e3);
            }
            snap.extra.insert(
                "wg.spawned_workers.global".to_string(),
                hs_coi::worker_spawn_count() as f64,
            );
        }
        snap
    }
}
