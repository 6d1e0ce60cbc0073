//! The real-thread executor.
//!
//! Streams map to COI pipelines (one sink thread each, `width` threads for
//! task expansion); transfers run on per-(card, direction) DMA worker
//! threads, serialized per direction like PCIe DMA channels and optionally
//! paced to link speed. Dependences resolve via event callbacks: the last
//! completing dependence dispatches the action from its own thread, so the
//! source never blocks and independent actions overtake blocked ones — the
//! out-of-order-under-FIFO-semantics behaviour of the paper.
//!
//! Error-path invariant: dispatch never panics. Malformed specs (bad stream
//! index, real transfer without a card), dispatch after executor shutdown,
//! and closed DMA channels all *fail the action's event*, so the error
//! propagates to waiters and dependents instead of aborting whichever
//! thread happened to run the dispatch callback.

use super::{ActionSpec, BackendEvent, SubmitOpts};
use crate::small::FirstInline;
use crate::sync::{
    Arc, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, OnceLock, Ordering, RwLock,
};
use crossbeam::channel::{unbounded, Sender};
use hs_chaos::{ChaosHub, FailureCause, Injection, RetryPolicy};
use hs_coi::{CoiEvent, CoiRuntime, EngineId, EventStatus};
use hs_fabric::Pacer;
use hs_machine::PlatformCfg;
use hs_obs::{ObsAction, ObsHub, ObsPhase};
use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type DmaJob = Box<dyn FnOnce() + Send>;

enum DmaMsg {
    Job(DmaJob),
    /// Shutdown sentinel: the worker drains everything queued before it
    /// (channel FIFO), then exits — dropping the receiver, so any *later*
    /// send fails and the sender fails the action instead of panicking.
    Stop,
}

struct DmaWorker {
    tx: Sender<DmaMsg>,
    handle: Option<JoinHandle<()>>,
}

impl DmaWorker {
    fn spawn(name: String) -> DmaWorker {
        let (tx, rx) = unbounded::<DmaMsg>();
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        DmaMsg::Job(job) => job(),
                        DmaMsg::Stop => break,
                    }
                }
            })
            .expect("spawning a DMA worker thread");
        DmaWorker {
            tx,
            handle: Some(handle),
        }
    }
}

impl Drop for DmaWorker {
    fn drop(&mut self) {
        // A sentinel, not a channel swap: sender clones held by pending
        // dispatch callbacks would otherwise keep the old receiver's loop
        // blocked in recv() forever and this join would hang.
        let _ = self.tx.send(DmaMsg::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

type TimerJob = Box<dyn FnOnce() + Send>;

struct TimerEntry {
    at: Instant,
    seq: u64,
    job: TimerJob,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // on top (ties broken by insertion order).
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct TimerState {
    queue: BinaryHeap<TimerEntry>,
    seq: u64,
    stop: bool,
}

/// Shared core of the timer wheel: deadline expiries and retry backoffs
/// are jobs scheduled at absolute instants, run by one dedicated thread.
#[derive(Default)]
struct TimerShared {
    state: Mutex<TimerState>,
    cv: Condvar,
}

impl TimerShared {
    fn schedule(&self, at: Instant, job: TimerJob) {
        let mut st = self.state.lock();
        if st.stop {
            return; // executor tearing down; late timers are meaningless
        }
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(TimerEntry { at, seq, job });
        self.cv.notify_one();
    }
}

/// The timer-wheel thread owner: stops and joins on drop, dropping any
/// jobs still pending (their events are being torn down too).
struct TimerWheel {
    shared: Arc<TimerShared>,
    handle: Option<JoinHandle<()>>,
}

impl TimerWheel {
    fn spawn() -> TimerWheel {
        let shared = Arc::<TimerShared>::default();
        let sh = shared.clone();
        let handle = std::thread::Builder::new()
            .name("hs-timer".into())
            .spawn(move || loop {
                let job = {
                    let mut st = sh.state.lock();
                    loop {
                        if st.stop {
                            return;
                        }
                        match st.queue.peek() {
                            Some(e) if e.at <= Instant::now() => {
                                break st.queue.pop().expect("peeked entry").job;
                            }
                            Some(e) => {
                                let dur = e.at - Instant::now();
                                let _ = sh.cv.wait_for(&mut st, dur);
                            }
                            None => sh.cv.wait(&mut st),
                        }
                    }
                };
                // Run outside the lock: jobs may schedule further timers.
                job();
            })
            .expect("spawning the timer-wheel thread");
        TimerWheel {
            shared,
            handle: Some(handle),
        }
    }
}

impl Drop for TimerWheel {
    fn drop(&mut self) {
        self.shared.state.lock().stop = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// How long `Drop` waits for outstanding actions before tearing down sink
/// threads. Bounded so an action with a never-resolvable dependence cannot
/// hang shutdown; such actions fail cleanly when they later try to
/// dispatch into closed channels.
const DRAIN_BUDGET: Duration = Duration::from_secs(2);

/// Real-thread executor state.
///
/// Submission is `&self` and internally synchronized: the only mutable
/// state on the hot path is the outstanding-event list (a short mutex) and
/// the submission counter (an atomic). The dispatch context — everything a
/// foreign thread needs to launch an action — is *cached* as an `Arc` and
/// rebuilt only when the stream topology changes (`add_stream`, card-loss
/// remap), so a submit shares one refcount bump instead of cloning three
/// vectors of handles.
pub struct ThreadExec {
    coi: Arc<CoiRuntime>,
    /// Stream pipelines; mutated only by `add_stream`/`remap_stream_to_host`
    /// (both rebuild the cached dispatch context under this lock).
    pipes: Mutex<Vec<hs_coi::Pipeline>>,
    /// Cached dispatch context, shared by every in-flight action.
    ctx: RwLock<Arc<DispatchCtx>>,
    /// Per card: [h2d, d2h] workers. Index = card domain index - 1.
    dma: Vec<[DmaWorker; 2]>,
    /// Measurement baseline: stamped at the *first submit*, not at `new()`,
    /// so pipeline/worker spawn cost does not leak into measured time.
    started: OnceLock<Instant>,
    /// Completion events of every submitted action, pruned as they
    /// complete; `Drop` drains these before joining workers.
    outstanding: Mutex<Vec<CoiEvent>>,
    obs: ObsHub,
    chaos: ChaosHub,
    /// Monotonic submission counter, used as the deterministic per-action
    /// salt for retry-backoff jitter.
    submitted: AtomicU64,
    /// Declared last so sink/DMA threads are gone before the timer thread
    /// (nothing can schedule after them).
    timer: TimerWheel,
}

impl ThreadExec {
    /// Build the executor for `platform`. `paced` enables PCIe-speed DMA
    /// pacing (for real-mode overlap experiments); functional tests leave it
    /// off.
    pub fn new(platform: &PlatformCfg, paced: bool) -> ThreadExec {
        Self::new_with_obs(platform, paced, ObsHub::new())
    }

    /// Like [`Self::new`], routing lifecycle events and gauges to `obs`.
    pub fn new_with_obs(platform: &PlatformCfg, paced: bool, obs: ObsHub) -> ThreadExec {
        Self::new_with_obs_chaos(platform, paced, obs, ChaosHub::default())
    }

    /// Like [`Self::new_with_obs`], sharing `chaos` with every fabric DMA
    /// channel and dispatch point.
    pub fn new_with_obs_chaos(
        platform: &PlatformCfg,
        paced: bool,
        obs: ObsHub,
        chaos: ChaosHub,
    ) -> ThreadExec {
        Self::new_with_remotes(platform, paced, obs, chaos, &[])
            .expect("in-process executor construction is infallible")
    }

    /// Like [`Self::new_with_obs_chaos`], with some card domains hosted by
    /// out-of-process workers: `remotes` maps card engine index (1-based —
    /// the host is engine 0 and cannot be remote) to the worker's endpoint.
    /// Connecting is synchronous, so a worker that never comes up errors
    /// here; one that dies later surfaces as `CardLost` at first use. The
    /// card's pacer still models the link *on top of* measured wire time
    /// (see `DmaEngine::run_wire`), so paced runs stay meaningful.
    pub fn new_with_remotes(
        platform: &PlatformCfg,
        paced: bool,
        obs: ObsHub,
        chaos: ChaosHub,
        remotes: &[(usize, hs_fabric::Endpoint)],
    ) -> std::io::Result<ThreadExec> {
        // Each card paces to its *own* link: heterogeneous platforms mix
        // e.g. a PCIe card with a slower fabric-attached remote node.
        let pacers: Vec<Pacer> = platform
            .cards()
            .map(|(_, c)| {
                if paced {
                    let link = c.link.unwrap_or(hs_machine::LinkSpec::pcie_knc());
                    Pacer::pcie(link, platform.overheads)
                } else {
                    Pacer::unpaced()
                }
            })
            .collect();
        let ncards = pacers.len();
        let coi = if remotes.is_empty() {
            CoiRuntime::new_with_pacers_chaos(pacers, obs.clone(), chaos.clone())
        } else {
            CoiRuntime::new_with_endpoints(pacers, obs.clone(), chaos.clone(), remotes)?
        };
        let dma: Vec<[DmaWorker; 2]> = (0..ncards)
            .map(|c| {
                [
                    DmaWorker::spawn(format!("hs-dma-c{c}-h2d")),
                    DmaWorker::spawn(format!("hs-dma-c{c}-d2h")),
                ]
            })
            .collect();
        let timer = TimerWheel::spawn();
        let ctx = Arc::new(make_ctx(&coi, &[], &dma, &obs, &chaos, &timer.shared));
        Ok(ThreadExec {
            coi,
            pipes: Mutex::new(Vec::new()),
            ctx: RwLock::new(ctx),
            dma,
            started: OnceLock::new(),
            outstanding: Mutex::new(Vec::new()),
            obs,
            chaos,
            submitted: AtomicU64::new(0),
            timer,
        })
    }

    pub fn coi(&self) -> &Arc<CoiRuntime> {
        &self.coi
    }

    /// The fault-injection hub shared with the fabric and dispatch points.
    pub fn chaos(&self) -> &ChaosHub {
        &self.chaos
    }

    /// Rebind stream `idx`'s sink pipeline to the host engine (card-loss
    /// degradation). The old pipeline drops: its queued commands drain
    /// against the lost card's windows (their results are discarded by the
    /// replay) and its sink thread joins.
    pub fn remap_stream_to_host(&self, idx: usize) {
        let mut pipes = self.pipes.lock();
        if idx >= pipes.len() {
            return;
        }
        let width = pipes[idx].width();
        pipes[idx] = self.coi.pipeline_create(EngineId::HOST, width);
        self.rebuild_ctx(&pipes);
    }

    /// Wall seconds since the first submit (0.0 before any work).
    pub fn elapsed_secs(&self) -> f64 {
        self.started
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    pub fn add_stream(&self, domain_idx: usize, mask: crate::CpuMask) {
        // Domain indices correspond 1:1 to COI engines (host = 0). The
        // stream's mask rides down to the pipeline's resident workgroup so
        // width/affinity stay the tuner-visible knobs (paper §II).
        let width = mask.count().max(1) as usize;
        let pipe = self
            .coi
            .pipeline_create_masked(EngineId(domain_idx as u16), width, mask.0);
        let mut pipes = self.pipes.lock();
        pipes.push(pipe);
        self.rebuild_ctx(&pipes);
    }

    /// Submit a whole batch, amortizing the per-submit shared-state traffic:
    /// one submission-counter RMW (salts are the batch's ordinal range), one
    /// outstanding-list lock, one dispatch-context read-lock for all items.
    /// [`BatchDep::Internal`] dependences resolve against the batch's own
    /// completion events, which exist up front — an item may depend on any
    /// earlier item of the same batch.
    pub fn submit_batch(
        &self,
        items: FirstInline<super::BatchSubmitItem>,
        observe: Option<super::BatchObserver<'_>>,
    ) -> FirstInline<BackendEvent> {
        self.started.get_or_init(Instant::now);
        let salt0 = self
            .submitted
            .fetch_add(items.len() as u64, Ordering::Relaxed)
            + 1;
        let ctx = self.ctx.read().clone();
        let dones: FirstInline<BackendEvent> = (0..items.len())
            .map(|_| BackendEvent::Thread(CoiEvent::new()))
            .collect();
        // Observers register before any wiring: their completion callbacks
        // must precede dependence countdowns in each event's callback list
        // (see `Executor::submit_batch`).
        if let Some(observe) = observe {
            for (i, d) in dones.iter().enumerate() {
                observe(i, d.as_thread());
            }
        }
        {
            let mut out = self.outstanding.lock();
            if out.len() + dones.len() >= 64 {
                out.retain(|e| !e.is_complete());
            }
            out.extend(dones.iter().map(|d| d.as_thread().clone()));
        }
        for ((i, item), done) in items.into_iter().enumerate().zip(dones.iter()) {
            let deps = item.deps.iter().map(|d| match d {
                super::BatchDep::External(be) => be.as_thread(),
                super::BatchDep::Internal(j) => {
                    debug_assert!(*j < i, "{}", super::EARLIER);
                    dones.get(*j).expect(super::EARLIER).as_thread()
                }
            });
            self.wire(
                item.spec,
                deps,
                item.obs,
                item.opts,
                ctx.clone(),
                done.as_thread(),
                salt0 + i as u64,
            );
        }
        dones
    }

    /// Per-item tail of `submit_batch`: attach observability and deadline
    /// hooks to `done`, then dispatch now or park the action on a
    /// dependence countdown.
    #[allow(clippy::too_many_arguments)]
    fn wire<'d>(
        &self,
        spec: ActionSpec,
        deps: impl Iterator<Item = &'d CoiEvent>,
        obs: ObsAction,
        opts: SubmitOpts,
        ctx: Arc<DispatchCtx>,
        done: &CoiEvent,
        salt: u64,
    ) {
        let done = done.clone();
        let run = Arc::new(ActionRun {
            ctx,
            spec,
            done: done.clone(),
            obs: obs.clone(),
            retry: opts.retry,
            attempts: AtomicU32::new(0),
            salt,
        });
        if obs.is_enabled() {
            let o = obs.clone();
            let run_obs = run.clone();
            done.on_complete(move |st| match st {
                EventStatus::Failed(c) => {
                    o.fail_cause_wall(c, run_obs.attempts.load(Ordering::Relaxed).max(1));
                }
                _ => o.finish_wall(true),
            });
        }
        // Deadline: fail-then-poison on expiry. `CoiEvent` completion is
        // first-wins, so a timer firing after success is a no-op; a timer
        // firing first fails the action and poisons dependents — no silent
        // hangs. (The sink work itself is not cancelled; its late result is
        // discarded.)
        if let Some(ns) = opts.deadline_ns {
            let d = done.clone();
            self.timer.shared.schedule(
                Instant::now() + Duration::from_nanos(ns),
                Box::new(move || d.fail(FailureCause::Timeout { deadline_ns: ns })),
            );
        }
        // Partition deps in one pass: successfully-completed ones answer
        // via the lock-free flag; only still-pending or failed ones pay the
        // status lock.
        let mut pending: Vec<&CoiEvent> = Vec::new();
        for d in deps {
            if d.completed_ok() {
                continue;
            }
            match d.status() {
                EventStatus::Failed(m) => {
                    done.fail(FailureCause::poisoned_by(m.clone()));
                    return;
                }
                EventStatus::Pending => pending.push(d),
                EventStatus::Done => {}
            }
        }
        if pending.is_empty() {
            dispatch_attempt(run);
            return;
        }
        // Countdown: the last completing dependence dispatches. The runner
        // is stashed in an Arc so whichever thread finishes last can run it.
        struct PendingDispatch {
            run: Mutex<Option<Arc<ActionRun>>>,
            remaining: AtomicUsize,
            done: CoiEvent,
        }
        let pd = Arc::new(PendingDispatch {
            run: Mutex::new(Some(run)),
            remaining: AtomicUsize::new(pending.len()),
            done: done.clone(),
        });
        for dep in pending {
            let pd = pd.clone();
            dep.on_complete(move |st| {
                match st {
                    EventStatus::Failed(m) => {
                        // Poison: fail once; the runner (and spec) is dropped.
                        pd.run.lock().take();
                        pd.done.fail(FailureCause::poisoned_by(m.clone()));
                    }
                    _ => {
                        if pd.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                            if let Some(run) = pd.run.lock().take() {
                                dispatch_attempt(run);
                            }
                        }
                    }
                }
            });
        }
    }

    /// Recompute the cached dispatch context after a topology change.
    /// Called with the pipes lock held so two concurrent mutators cannot
    /// install contexts out of order.
    fn rebuild_ctx(&self, pipes: &[hs_coi::Pipeline]) {
        let ctx = Arc::new(make_ctx(
            &self.coi,
            pipes,
            &self.dma,
            &self.obs,
            &self.chaos,
            &self.timer.shared,
        ));
        *self.ctx.write() = ctx;
    }
}

fn make_ctx(
    coi: &Arc<CoiRuntime>,
    pipes: &[hs_coi::Pipeline],
    dma: &[[DmaWorker; 2]],
    obs: &ObsHub,
    chaos: &ChaosHub,
    timer: &Arc<TimerShared>,
) -> DispatchCtx {
    DispatchCtx {
        coi: coi.clone(),
        pipes: pipes.iter().map(|p| p.sender_handle()).collect(),
        // Engine each stream's pipeline currently targets (0 = host):
        // the compute-site chaos consult needs the card to honour
        // dead-card state, and remapped streams must stop drawing
        // faults for the lost card.
        pipe_cards: pipes.iter().map(|p| p.engine().0 as u32).collect(),
        dma: dma
            .iter()
            .map(|pair| [pair[0].tx.clone(), pair[1].tx.clone()])
            .collect(),
        obs: obs.clone(),
        chaos: chaos.clone(),
        timer: timer.clone(),
    }
}

impl Drop for ThreadExec {
    fn drop(&mut self) {
        // Drain outstanding actions (bounded) before tearing down the sink
        // and DMA threads, so normally-completing work finishes and only
        // genuinely stuck actions see closed channels.
        let deadline = Instant::now() + DRAIN_BUDGET;
        let out = self.outstanding.get_mut();
        for ev in out.iter() {
            // A dead card completes nothing: once the chaos hub knows one
            // is gone (a remote worker died, say), stop waiting — spending
            // the budget per event would turn one lost worker into a
            // multi-second shutdown hang.
            if !self.chaos.dead_cards().is_empty() {
                break;
            }
            if ev.wait_deadline(deadline).is_none() {
                break; // budget exhausted; remaining actions fail on dispatch
            }
        }
        // Whatever is still incomplete after the drain gets the literal
        // cause when a card is down, so late waiters see `CardLost`, not a
        // silent hang.
        if let Some(&card) = self.chaos.dead_cards().first() {
            for ev in out.drain(..) {
                if !ev.is_complete() {
                    ev.fail(FailureCause::CardLost { card });
                }
            }
        }
        // Fields then drop in declaration order: pipelines (join their sink
        // threads) before DMA workers (Stop sentinel + join).
    }
}

/// Everything needed to dispatch an action from an arbitrary thread.
struct DispatchCtx {
    coi: Arc<CoiRuntime>,
    pipes: Vec<hs_coi::pipeline::PipelineHandle>,
    /// Engine index behind each pipeline (0 = host), for compute-site
    /// fault consultation.
    pipe_cards: Vec<u32>,
    dma: Vec<[Sender<DmaMsg>; 2]>,
    obs: ObsHub,
    chaos: ChaosHub,
    timer: Arc<TimerShared>,
}

/// One submitted action with its retry budget: the spec is retained (not
/// consumed) so transient-fault attempts can re-dispatch it, and the
/// attempt counter feeds both backoff jitter and the obs failure record.
struct ActionRun {
    ctx: Arc<DispatchCtx>,
    spec: ActionSpec,
    done: CoiEvent,
    obs: ObsAction,
    retry: RetryPolicy,
    attempts: AtomicU32,
    /// Deterministic jitter salt (the submission ordinal).
    salt: u64,
}

/// Run one attempt of an action; on a transient failure with budget left,
/// schedule the next attempt on the timer wheel after a jittered backoff.
/// Each attempt completes an internal per-attempt event; the tracked
/// `done` only settles on success, on a non-retryable cause, or when the
/// budget is exhausted — so dependents never see intermediate transient
/// failures.
fn dispatch_attempt(run: Arc<ActionRun>) {
    if run.done.is_complete() {
        return; // deadline expired (or dependence poisoned) while queued
    }
    let made = run.attempts.fetch_add(1, Ordering::AcqRel) + 1;
    let attempt = CoiEvent::new();
    let run2 = run.clone();
    attempt.on_complete(move |st| match st {
        EventStatus::Done => run2.done.signal(),
        EventStatus::Failed(c) => {
            if run2.done.is_complete() {
                return; // deadline beat the attempt; its verdict is void
            }
            if c.is_transient() && made < run2.retry.max_attempts {
                let jitter = run2.ctx.chaos.jitter01(run2.salt ^ u64::from(made));
                let backoff = run2.retry.backoff_us(made, jitter);
                run2.obs.retry_wall(made, backoff);
                let run3 = run2.clone();
                run2.ctx.timer.schedule(
                    Instant::now() + Duration::from_micros(backoff),
                    Box::new(move || dispatch_attempt(run3)),
                );
            } else {
                run2.done.fail(c.clone());
            }
        }
        EventStatus::Pending => unreachable!("on_complete only fires when complete"),
    });
    dispatch_with(&run.ctx, &run.spec, attempt, run.obs.clone());
}

fn dispatch_with(ctx: &DispatchCtx, spec: &ActionSpec, done: CoiEvent, obs: ObsAction) {
    // Dispatch runs the moment the last dependence resolves (or inline at
    // submit when none were pending).
    obs.phase_wall(ObsPhase::DepsResolved);
    match spec {
        ActionSpec::Noop => {
            obs.phase_wall(ObsPhase::Dispatched);
            done.signal();
        }
        ActionSpec::Compute {
            stream_idx,
            func,
            args,
            bufs,
            ..
        } => {
            let stream_idx = *stream_idx;
            let Some(pipe) = ctx.pipes.get(stream_idx) else {
                done.fail(FailureCause::Malformed(format!(
                    "malformed compute '{func}': no pipeline for stream index {stream_idx}"
                )));
                return;
            };
            // Chaos consult at the compute site: injected failures complete
            // the attempt event without touching the sink; injected panics
            // ride the real sink path so unwinding is exercised end to end.
            if ctx.chaos.is_armed() {
                let card = ctx.pipe_cards.get(stream_idx).copied().unwrap_or(0);
                if let Some(inj) = ctx.chaos.check_compute(stream_idx as u32, card) {
                    match inj {
                        Injection::Fail(c) => {
                            obs.phase_wall(ObsPhase::Dispatched);
                            done.fail(c);
                            return;
                        }
                        Injection::Panic(msg) => {
                            obs.phase_wall(ObsPhase::Dispatched);
                            let ev = pipe.call_obs(move || panic!("{msg}"), obs);
                            ev.on_complete(move |st| match st {
                                EventStatus::Done => done.signal(),
                                EventStatus::Failed(m) => done.fail(m.clone()),
                                EventStatus::Pending => {
                                    unreachable!("on_complete only fires when complete")
                                }
                            });
                            return;
                        }
                    }
                }
            }
            obs.phase_wall(ObsPhase::Dispatched);
            let ev = pipe.run_obs(func, args.clone(), bufs.clone(), obs);
            ev.on_complete(move |st| match st {
                EventStatus::Done => done.signal(),
                EventStatus::Failed(m) => done.fail(m.clone()),
                EventStatus::Pending => unreachable!("on_complete only fires when complete"),
            });
        }
        ActionSpec::Transfer {
            card_domain,
            h2d,
            bytes,
            real,
            label,
        } => {
            let (card_domain, h2d, bytes) = (*card_domain, *h2d, *bytes);
            let Some(real) = real.clone() else {
                // Host-as-target alias: "transfers en-queued in host streams
                // are aliased and optimized away".
                obs.phase_wall(ObsPhase::Dispatched);
                done.signal();
                return;
            };
            let Some(card) = card_domain.and_then(|d| d.checked_sub(1)) else {
                done.fail(FailureCause::Malformed(format!(
                    "malformed transfer '{label}': real transfer without a card domain"
                )));
                return;
            };
            let Some(workers) = ctx.dma.get(card) else {
                done.fail(FailureCause::Malformed(format!(
                    "malformed transfer '{label}': card domain {} out of range ({} cards)",
                    card + 1,
                    ctx.dma.len()
                )));
                return;
            };
            let dir = usize::from(!h2d);
            obs.phase_wall(ObsPhase::Dispatched);
            let queue_key = ctx.obs.is_enabled().then(|| {
                let key = format!(
                    "dma.c{}.{}.queue",
                    card + 1,
                    if h2d { "h2d" } else { "d2h" }
                );
                ctx.obs.gauge_add(&key, 1);
                key
            });
            let coi = ctx.coi.clone();
            let hub = ctx.obs.clone();
            let queue_key2 = queue_key.clone();
            let done2 = done.clone();
            let job: DmaJob = Box::new(move || {
                if let Some(key) = &queue_key2 {
                    hub.gauge_add(key, -1);
                }
                obs.phase_wall(ObsPhase::SinkStart);
                let r = coi.dma_copy(real.src.0, real.src.1, real.dst.0, real.dst.1, bytes);
                match r {
                    Ok(()) => done.signal(),
                    Err(e) => done.fail(e.into_cause()),
                }
            });
            if workers[dir].send(DmaMsg::Job(job)).is_err() {
                // Executor shut down between dependence resolution and
                // dispatch: the channel's receiver is gone. Fail the action
                // (propagates to waiters/dependents) instead of panicking on
                // whichever foreign thread ran this callback.
                if let Some(key) = &queue_key {
                    ctx.obs.gauge_add(key, -1);
                }
                done2.fail(format!(
                    "transfer '{label}' dropped: executor shut down before dispatch"
                ));
            }
        }
    }
}
