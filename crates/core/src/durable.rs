//! Durable action log: the sink behind `Inner::recovery`.
//!
//! The in-memory replay log (PR 4) becomes a trait-backed sink:
//! [`MemLog`] keeps today's semantics (a `Vec` kept while chaos is armed),
//! [`WalLog`] — installed by `HStreams::durability` — mirrors every entry
//! into an `hs-wal` run directory, partitioned by stream, so the action
//! history survives death of the host process itself. This module owns:
//!
//! * the hand-rolled wire encoding of `LoggedAction` (no serde, no
//!   bincode — the WAL payload format is a stability surface of its own,
//!   DESIGN.md §16);
//! * the [`ActionLog`] trait and both sinks;
//! * the recovery procedure (`HStreams::recover`) and its replay, in
//!   barrier phases ([`barrier_phases`]);
//! * [`WalShared`], the writer handle behind `LockClass::Wal` that the
//!   wait-entry flush hooks and the checkpoint path reach without taking
//!   the `Recovery` lock;
//! * checkpoint blob encode/decode (host+card buffer bytes at a quiesce
//!   point, enabling watermark truncation of the log);
//! * run-directory layout helpers and the [`RecoveryReport`] surfaced by
//!   `HStreams::recover`.
//!
//! Durability boundary: appends are buffered in userspace; `flush` at the
//! runtime's wait entries pushes them to the kernel page cache, which is
//! exactly what surviving `kill -9` requires (media durability via fsync is
//! an opt-in). A WAL I/O error never fails an enqueue: the sink marks
//! itself broken, notes the loss of durability on the chaos log, and the
//! run continues in-memory-only.

use crate::exec::Executor;
use crate::lockorder::{self, LockClass};
use crate::sync::{AtomicU64, Mutex, Ordering};
use crate::types::{Access, BufferId, CostHint, DomainId, Operand, StreamId};
use crate::{with_class, ActionOpts, Event, HStreams, HsError, HsResult};
use crate::{LoggedAction, LoggedOp};
use bytes::Bytes;
use hs_chaos::{ChaosHub, FailureCause, RetryPolicy, WalFault};
use hs_machine::KernelKind;
use hs_obs::ObsHub;
use hs_wal::{Wal, WalStats, META_PARTITION};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Event id used for metadata records (see [`hs_wal::META_PARTITION`]):
/// above any real watermark, so retirement never deletes them mid-run.
pub(crate) const META_EV: u64 = u64::MAX;

/// Don't bother writing a checkpoint until at least this many framed bytes
/// accumulated since the last one — a checkpoint copies every buffer, so
/// small logs are cheaper to replay than to snapshot (1 MB of records
/// replays in ~10 ms through the normal enqueue path).
const CHECKPOINT_MIN_BYTES: u64 = 1 << 20;

/// Additionally require the log to grow by this multiple of the last
/// snapshot's size between checkpoints: snapshot work stays a small,
/// bounded fraction of append work no matter how large the buffers are.
const CHECKPOINT_BLOB_FACTOR: u64 = 4;

// ---------------------------------------------------------------------------
// Wire encoding (little-endian throughout).

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked little-endian reader over a decode payload.
struct Rd<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, i: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.i..self.i + n)?;
        self.i += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
    }
}

fn access_tag(a: Access) -> u8 {
    match a {
        Access::In => 0,
        Access::Out => 1,
        Access::InOut => 2,
    }
}

fn access_from(tag: u8) -> Option<Access> {
    match tag {
        0 => Some(Access::In),
        1 => Some(Access::Out),
        2 => Some(Access::InOut),
        _ => None,
    }
}

fn kernel_tag(k: KernelKind) -> u8 {
    KernelKind::ALL
        .iter()
        .position(|c| *c == k)
        .expect("every KernelKind is in ALL") as u8
}

fn kernel_from(tag: u8) -> Option<KernelKind> {
    KernelKind::ALL.get(tag as usize).copied()
}

/// Encode a logged action's payload. The surrounding WAL frame already
/// carries the event id and the partition (= stream), so neither is
/// duplicated here. A leading flags byte elides the retry block in the
/// common no-retry case — this encoder runs once per enqueue on durable
/// runs, so the record stays as short as the action allows.
pub(crate) fn encode_action(la: &LoggedAction, out: &mut Vec<u8>) {
    let retry_none = la.retry == RetryPolicy::none();
    out.push(if retry_none { 0 } else { 1 });
    if !retry_none {
        put_u32(out, la.retry.max_attempts);
        put_u64(out, la.retry.base_backoff_us);
        put_f64(out, la.retry.multiplier);
        put_f64(out, la.retry.jitter);
    }
    put_u32(out, la.deps.len() as u32);
    for d in &la.deps {
        put_u64(out, *d);
    }
    put_u32(out, la.wrote.len() as u32);
    for w in &la.wrote {
        put_u32(out, *w as u32);
    }
    match &la.op {
        LoggedOp::Compute {
            func,
            args,
            operands,
            cost,
        } => {
            out.push(0);
            put_bytes(out, func.as_bytes());
            put_bytes(out, args);
            put_u32(out, operands.len() as u32);
            for op in operands {
                put_u64(out, op.buffer.0);
                put_u64(out, op.range.start as u64);
                put_u64(out, op.range.end as u64);
                out.push(access_tag(op.access));
            }
            out.push(kernel_tag(cost.kernel));
            put_f64(out, cost.flops);
            put_u64(out, cost.tile_n);
        }
        LoggedOp::Xfer {
            buf,
            range,
            from,
            to,
        } => {
            out.push(1);
            put_u64(out, buf.0);
            put_u64(out, range.start as u64);
            put_u64(out, range.end as u64);
            put_u32(out, from.0 as u32);
            put_u32(out, to.0 as u32);
        }
        LoggedOp::Sync => out.push(2),
    }
}

/// Decode one action payload back into a [`LoggedAction`]. Strict: any
/// truncation, unknown tag, or trailing garbage yields `None` — a record
/// that passed the CRC but fails here is treated as a skipped action by
/// recovery, never a guess.
pub(crate) fn decode_action(ev: u64, stream: StreamId, payload: &[u8]) -> Option<LoggedAction> {
    let mut r = Rd::new(payload);
    let flags = r.u8()?;
    if flags > 1 {
        return None;
    }
    let retry = if flags & 1 != 0 {
        RetryPolicy {
            max_attempts: r.u32()?,
            base_backoff_us: r.u64()?,
            multiplier: r.f64()?,
            jitter: r.f64()?,
        }
    } else {
        RetryPolicy::none()
    };
    let n_deps = r.u32()? as usize;
    let mut deps = Vec::with_capacity(n_deps.min(1 << 16));
    for _ in 0..n_deps {
        deps.push(r.u64()?);
    }
    let n_wrote = r.u32()? as usize;
    let mut wrote = Vec::with_capacity(n_wrote.min(1 << 16));
    for _ in 0..n_wrote {
        wrote.push(r.u32()? as usize);
    }
    let op = match r.u8()? {
        0 => {
            let func = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let args = Bytes::copy_from_slice(r.bytes()?);
            let n_ops = r.u32()? as usize;
            let mut operands = Vec::with_capacity(n_ops.min(1 << 16));
            for _ in 0..n_ops {
                let buffer = BufferId(r.u64()?);
                let start = r.u64()? as usize;
                let end = r.u64()? as usize;
                let access = access_from(r.u8()?)?;
                operands.push(Operand {
                    buffer,
                    range: start..end,
                    access,
                });
            }
            let kernel = kernel_from(r.u8()?)?;
            let flops = r.f64()?;
            let tile_n = r.u64()?;
            LoggedOp::Compute {
                func,
                args,
                operands,
                cost: CostHint {
                    kernel,
                    flops,
                    tile_n,
                },
            }
        }
        1 => {
            let buf = BufferId(r.u64()?);
            let start = r.u64()? as usize;
            let end = r.u64()? as usize;
            let from = DomainId(r.u32()? as usize);
            let to = DomainId(r.u32()? as usize);
            LoggedOp::Xfer {
                buf,
                range: start..end,
                from,
                to,
            }
        }
        2 => LoggedOp::Sync,
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(LoggedAction {
        ev,
        stream,
        op,
        deps,
        wrote,
        retry,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint blobs.

/// One buffer instantiation in a checkpoint blob: (buffer id, domain, bytes).
pub(crate) type CheckpointBuf = (u64, u32, Vec<u8>);

/// Encode a quiesce-point checkpoint: the retirement watermark plus every
/// buffer instantiation's bytes (`(buffer id, domain, bytes)`). Card
/// instantiations are included because post-checkpoint actions may read
/// card-resident data produced before the checkpoint — a host-only snapshot
/// would silently lose it.
pub(crate) fn encode_checkpoint(watermark: u64, bufs: &[CheckpointBuf]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, watermark);
    put_u32(&mut out, bufs.len() as u32);
    for (id, domain, bytes) in bufs {
        put_u64(&mut out, *id);
        put_u32(&mut out, *domain);
        put_bytes(&mut out, bytes);
    }
    out
}

/// Decode a checkpoint blob; `None` on any structural mismatch (the blob's
/// CRC framing already rejected torn writes — this guards format drift).
pub(crate) fn decode_checkpoint(b: &[u8]) -> Option<(u64, Vec<CheckpointBuf>)> {
    let mut r = Rd::new(b);
    let watermark = r.u64()?;
    let n = r.u32()? as usize;
    let mut bufs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.u64()?;
        let domain = r.u32()?;
        let bytes = r.bytes()?.to_vec();
        bufs.push((id, domain, bytes));
    }
    if !r.done() {
        return None;
    }
    Some((watermark, bufs))
}

// ---------------------------------------------------------------------------
// Run directory layout.

/// Leading byte of a barrier record on the meta partition. Disjoint from
/// every `FailureCause` encoding tag, so each decoder rejects the other's
/// records (and a runtime that predates barriers skips them).
const BARRIER_TAG: u8 = 0xB7;

/// A replay barrier: a host wait returned successfully after the records
/// named by `marks` — per stream partition, the id of its last record
/// logged before the wait returned. Layout: tag, count, then
/// (partition u32, ev u64) pairs.
pub(crate) fn encode_barrier(marks: &[(u32, u64)]) -> Vec<u8> {
    let mut out = vec![BARRIER_TAG];
    put_u32(&mut out, marks.len() as u32);
    for &(part, ev) in marks {
        put_u32(&mut out, part);
        put_u64(&mut out, ev);
    }
    out
}

/// Inverse of [`encode_barrier`]; `None` for anything else (degradation
/// causes share the meta partition).
pub(crate) fn decode_barrier(b: &[u8]) -> Option<Vec<(u32, u64)>> {
    let mut rd = Rd::new(b);
    if rd.u8()? != BARRIER_TAG {
        return None;
    }
    let n = rd.u32()? as usize;
    let mut marks = Vec::with_capacity(n.min(b.len() / 12));
    for _ in 0..n {
        marks.push((rd.u32()?, rd.u64()?));
    }
    rd.done().then_some(marks)
}

/// Split recovered actions into barrier phases, in log order: phase *k*
/// holds, per stream partition, the records logged after barrier *k−1*
/// and up to barrier *k*'s mark. Replay waits for each phase before it
/// enqueues the next, as the crashed run's host did — over-synchronized
/// where the run waited on less than everything (`event_wait`,
/// `stream_synchronize`), never under. A log without barriers is one
/// phase.
///
/// `order` is each partition's retained record ids in log order,
/// undecodable ones included, so positions match the log. A mark absent
/// from it was checkpointed (below `wm`: nothing retained of the
/// partition precedes the barrier) or lost to a torn tail (everything
/// retained precedes it).
pub(crate) fn barrier_phases(
    actions: Vec<LoggedAction>,
    order: &HashMap<u32, Vec<u64>>,
    barriers: &[Vec<(u32, u64)>],
    wm: u64,
) -> Vec<Vec<LoggedAction>> {
    // Per partition: each barrier's cut (records before it), kept monotone.
    let cuts: HashMap<u32, Vec<usize>> = order
        .iter()
        .map(|(&part, seq)| {
            let mut last = 0;
            let cuts = barriers
                .iter()
                .map(|marks| {
                    let cut = match marks.iter().find(|&&(p, _)| p == part) {
                        None => 0,
                        Some(&(_, ev)) => match seq.iter().position(|&e| e == ev) {
                            Some(i) => i + 1,
                            None if ev < wm => 0,
                            None => seq.len(),
                        },
                    };
                    last = cut.max(last);
                    last
                })
                .collect();
            (part, cuts)
        })
        .collect();
    let pos: HashMap<u64, usize> = order
        .values()
        .flat_map(|seq| seq.iter().enumerate().map(|(i, &ev)| (ev, i)))
        .collect();
    let mut phases: Vec<Vec<LoggedAction>> = (0..=barriers.len()).map(|_| Vec::new()).collect();
    for la in actions {
        let at = pos.get(&la.ev).copied().unwrap_or(usize::MAX);
        let phase = cuts
            .get(&la.stream.0)
            .map_or(0, |c| c.partition_point(|&cut| cut <= at));
        phases[phase].push(la);
    }
    phases.retain(|p| !p.is_empty());
    phases
}

pub(crate) fn run_dir_name(run_id: u64) -> String {
    format!("run-{run_id:016x}")
}

fn parse_run_dir(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("run-")?, 16).ok()
}

/// Run directories under `root`, ascending by run id. Run ids are minted
/// from wall nanoseconds (and recovery always picks an id strictly above
/// every existing one), so ascending id order is creation order: the
/// *first* entry is the authoritative run when a crashed recovery left
/// partial newer generations behind.
pub(crate) fn list_runs(root: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut runs = Vec::new();
    let rd = match std::fs::read_dir(root) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(runs),
        Err(e) => return Err(e),
    };
    for ent in rd {
        let ent = ent?;
        if let Some(id) = parse_run_dir(&ent.file_name().to_string_lossy()) {
            if ent.file_type()?.is_dir() {
                runs.push((id, ent.path()));
            }
        }
    }
    runs.sort_by_key(|(id, _)| *id);
    Ok(runs)
}

/// A fresh run id: wall nanoseconds since the epoch. Collisions within one
/// root would need two runs created in the same nanosecond; recovery
/// additionally forces strict monotonicity against existing runs.
pub(crate) fn fresh_run_id() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1)
}

// ---------------------------------------------------------------------------
// The shared WAL writer.

/// The durable writer, shared between the recovery-log sink (appends while
/// `LockClass::Recovery` is held) and the runtime's flush/checkpoint hooks
/// (which take only `LockClass::Wal`). Every acquisition of the inner mutex
/// is witnessed as `LockClass::Wal`, ranked just inside `Recovery`.
pub(crate) struct WalShared {
    state: Mutex<WalState>,
    /// Userspace-buffered bytes: lets wait entries skip the lock entirely
    /// when there is nothing to flush.
    pending: AtomicU64,
    chaos: ChaosHub,
    obs: ObsHub,
}

struct WalState {
    wal: Wal,
    /// An I/O error (real or injected) permanently broke durability for
    /// this run: appends become no-ops, noted once.
    broken: bool,
    /// Partition of the most recent append — the target of an injected
    /// torn-write fault.
    last_partition: Option<u32>,
    /// `appended_bytes` at the last checkpoint (throttles checkpoints).
    ckpt_bytes: u64,
    /// Size of the last checkpoint's buffer snapshot: the throttle scales
    /// with it, so snapshot work amortizes against log growth.
    ckpt_blob_bytes: u64,
    /// `fsync_batched` already pushed to the obs hub — the hub's counter is
    /// cumulative (`counter_add`), so each publish sends only the delta.
    published_fsync_batched: u64,
}

impl WalShared {
    pub(crate) fn new(wal: Wal, chaos: ChaosHub, obs: ObsHub) -> WalShared {
        WalShared {
            state: Mutex::new(WalState {
                wal,
                broken: false,
                last_partition: None,
                ckpt_bytes: 0,
                ckpt_blob_bytes: 0,
                published_fsync_batched: 0,
            }),
            pending: AtomicU64::new(0),
            chaos,
            obs,
        }
    }

    fn lock(
        &self,
    ) -> (
        lockorder::Acquired,
        impl std::ops::DerefMut<Target = WalState> + '_,
    ) {
        let w = lockorder::acquiring(LockClass::Wal);
        (w, self.state.lock())
    }

    fn mark_broken(st: &mut WalState, chaos: &ChaosHub, obs: &ObsHub, why: &str) {
        if !st.broken {
            st.broken = true;
            obs.counter_add("wal.io_errors", 1);
            chaos.note(format!("wal: durability lost: {why}"));
        }
    }

    /// Append one framed record. Called with `LockClass::Recovery` held
    /// (ranked outside `Wal`). Never fails the caller.
    pub(crate) fn append(&self, partition: u32, ev: u64, payload: &[u8]) {
        let (_lo, mut st) = self.lock();
        if st.broken {
            return;
        }
        match st.wal.append(partition, ev, payload) {
            Ok(framed) => {
                st.last_partition = Some(partition);
                self.pending.fetch_add(framed, Ordering::Relaxed);
            }
            Err(e) => Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string()),
        }
    }

    /// Append a batch of pre-framed records ([`hs_wal::frame_record`]
    /// output) in one writer pass. Same locking contract as [`Self::append`];
    /// one lock acquisition covers the whole batch, which is what keeps the
    /// durable enqueue path off the single-record lock cadence.
    pub(crate) fn append_framed(&self, partition: u32, framed: &[u8], records: u64, max_ev: u64) {
        if framed.is_empty() {
            return;
        }
        let (_lo, mut st) = self.lock();
        if st.broken {
            return;
        }
        match st.wal.append_framed(partition, framed, records, max_ev) {
            Ok(n) => {
                st.last_partition = Some(partition);
                self.pending.fetch_add(n, Ordering::Relaxed);
            }
            Err(e) => Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string()),
        }
    }

    /// Push buffered appends to the page cache. Runs at the runtime's wait
    /// entries (`event_wait*`, `stream_synchronize`) and at compaction —
    /// the points where an application could observe completion and act on
    /// it, so everything it could have observed is on disk first. Consults
    /// the chaos hub: an injected [`WalFault::Torn`] flushes and then chops
    /// the last-written partition's tail (what a mid-write crash leaves);
    /// [`WalFault::Io`] breaks durability like a real I/O error.
    pub(crate) fn flush(&self) {
        if self.pending.load(Ordering::Relaxed) == 0 {
            return;
        }
        let (_lo, mut st) = self.lock();
        if st.broken {
            self.pending.store(0, Ordering::Relaxed);
            return;
        }
        match self.chaos.check_wal() {
            Some(WalFault::Io) => {
                Self::mark_broken(&mut st, &self.chaos, &self.obs, "injected wal io fault");
                self.pending.store(0, Ordering::Relaxed);
                return;
            }
            Some(WalFault::Torn) => {
                let part = st.last_partition.unwrap_or(0);
                let r = st.wal.flush().and_then(|()| st.wal.chop_tail(part, 7));
                if let Err(e) = r {
                    Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string());
                }
                self.pending.store(0, Ordering::Relaxed);
                self.publish_gauges(&mut st);
                return;
            }
            None => {}
        }
        if let Err(e) = st.wal.flush() {
            Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string());
        }
        self.pending.store(0, Ordering::Relaxed);
        self.publish_gauges(&mut st);
    }

    fn publish_gauges(&self, st: &mut WalState) {
        let s = st.wal.stats();
        self.obs
            .gauge_set("wal.appended_bytes", s.appended_bytes as i64);
        self.obs.gauge_set("wal.segments", s.segments as i64);
        self.obs.gauge_set("wal.fsync_us", s.fsync_us as i64);
        self.obs.gauge_set("wal.fsyncs", s.fsyncs as i64);
        // Group-commit evidence: how many flushes shared a later flush's
        // fsync instead of paying their own (cumulative obs counter, so
        // publish the delta since the last push).
        let delta = s.fsync_batched - st.published_fsync_batched;
        if delta > 0 {
            self.obs.counter_add("wal.fsync_batched", delta);
            st.published_fsync_batched = s.fsync_batched;
        }
    }

    pub(crate) fn stats(&self) -> WalStats {
        let (_lo, st) = self.lock();
        st.wal.stats()
    }

    /// Should the runtime bother gathering a checkpoint snapshot? True once
    /// enough log accumulated since the last checkpoint (and durability is
    /// still intact). "Enough" scales with the last snapshot's size: a
    /// checkpoint copies every buffer, so re-snapshotting before the log
    /// grew by at least that much would spend more than it saves — the
    /// checkpoint work stays a bounded fraction of the append work.
    pub(crate) fn wants_checkpoint(&self) -> bool {
        let (_lo, st) = self.lock();
        let threshold = CHECKPOINT_MIN_BYTES.max(CHECKPOINT_BLOB_FACTOR * st.ckpt_blob_bytes);
        !st.broken && st.wal.stats().appended_bytes - st.ckpt_bytes >= threshold
    }

    /// Publish a checkpoint blob (atomic tmp+rename) and retire every
    /// segment fully below `watermark`. The caller gathered `bufs` at a
    /// quiesce point — all reserved event ids retired — so the snapshot and
    /// the watermark name the same instant. Returns true if written.
    pub(crate) fn checkpoint(&self, watermark: u64, bufs: &[(u64, u32, Vec<u8>)]) -> bool {
        let payload = encode_checkpoint(watermark, bufs);
        let (_lo, mut st) = self.lock();
        if st.broken {
            return false;
        }
        if let Err(e) = st.wal.flush() {
            Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string());
            return false;
        }
        self.pending.store(0, Ordering::Relaxed);
        let path = st.wal.dir().join("checkpoint.blob");
        // The blob inherits the log's durability boundary: page cache for
        // process death, fsync only when the writer opted into media
        // durability. A torn blob reads as absent either way (CRC).
        let fsync = st.wal.options().fsync;
        if let Err(e) = hs_wal::write_blob(&path, &payload, fsync) {
            Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string());
            return false;
        }
        st.ckpt_blob_bytes = payload.len() as u64;
        match st.wal.retire(watermark) {
            Ok(n) => {
                if n > 0 {
                    self.chaos
                        .note(format!("wal: checkpoint@{watermark}, {n} segments retired"));
                }
            }
            Err(e) => Self::mark_broken(&mut st, &self.chaos, &self.obs, &e.to_string()),
        }
        st.ckpt_bytes = st.wal.stats().appended_bytes;
        self.publish_gauges(&mut st);
        true
    }

    /// Permanently break durability for this run (with the usual one-shot
    /// note): for failures detected *outside* the writer, like a record
    /// too large for the on-disk envelope.
    pub(crate) fn poison(&self, why: &str) {
        let (_lo, mut st) = self.lock();
        Self::mark_broken(&mut st, &self.chaos, &self.obs, why);
    }

    /// Append a replay barrier ([`encode_barrier`]) to the meta partition.
    /// Its record id is the largest mark: once a checkpoint watermark
    /// passes every mark, nothing the barrier orders is replayed any more
    /// and watermark retirement may drop it. Same locking contract as
    /// [`Self::append`].
    pub(crate) fn append_barrier(&self, marks: &[(u32, u64)]) {
        let ev = marks.iter().map(|&(_, ev)| ev).max().unwrap_or(0);
        self.append(META_PARTITION, ev, &encode_barrier(marks));
    }

    /// Append a metadata record (degradation cause) to the meta partition.
    /// Takes only `LockClass::Wal`; safe from the degradation path, which
    /// holds the world lock exclusively.
    pub(crate) fn append_meta(&self, cause: &FailureCause) {
        self.append(META_PARTITION, META_EV, &cause.to_bytes());
    }
}

// ---------------------------------------------------------------------------
// The sink trait.

/// The recovery-log sink behind `Inner::recovery`. Implementations keep the
/// in-memory entry list that card-loss degradation replays from;
/// [`WalLog`] additionally mirrors entries to disk.
pub(crate) trait ActionLog: Send {
    fn extend(&mut self, las: Vec<LoggedAction>);
    /// Clone of the in-memory entries (card-loss replay snapshot).
    fn snapshot(&self) -> Vec<LoggedAction>;
    /// Prune the in-memory entries (compaction). Disk records are pruned
    /// only by watermark retirement, never here.
    fn retain(&mut self, keep: &mut dyn FnMut(&LoggedAction) -> bool);
    fn len(&self) -> usize;
    /// Drop the in-memory entries (chaos re-arm). Disk is untouched.
    fn clear(&mut self);
    /// Hand staged durable records to the WAL writer (no-op for the
    /// in-memory log). The runtime calls this at every wait entry, just
    /// before the WAL flush, so everything an application could have
    /// observed complete is framed and buffered before the flush pushes it
    /// to the page cache.
    fn drain(&mut self);
    /// Record a successful host wait as a replay barrier (no-op for the
    /// in-memory log, which card-loss replay reads with its recorded
    /// dependences instead).
    fn barrier(&mut self) {}
}

/// Today's semantics: in-memory only, populated while chaos is armed.
#[derive(Default)]
pub(crate) struct MemLog {
    entries: Vec<LoggedAction>,
}

impl ActionLog for MemLog {
    fn extend(&mut self, las: Vec<LoggedAction>) {
        self.entries.extend(las);
    }

    fn snapshot(&self) -> Vec<LoggedAction> {
        self.entries.clone()
    }

    fn retain(&mut self, keep: &mut dyn FnMut(&LoggedAction) -> bool) {
        self.entries.retain(|la| keep(la));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn drain(&mut self) {}
}

/// How much framed data a partition stages before `WalLog` hands it to the
/// writer mid-stream (between wait-entry drains). Large enough to amortize
/// the writer lock over hundreds of records, small enough that staging
/// never holds more than a few buffer-writes' worth of history.
const STAGE_DRAIN_BYTES: usize = 32 << 10;

/// Per-partition staging: concatenated [`hs_wal::frame_record`] output
/// waiting for one batched writer pass.
#[derive(Default)]
struct Stage {
    buf: Vec<u8>,
    records: u64,
    max_ev: u64,
    /// Id of the partition's most recent record: its barrier mark.
    last_ev: u64,
}

/// Durable sink: the in-memory mirror plus an append to the shared WAL for
/// every entry, partitioned by stream (per-partition append order is
/// exactly per-stream enqueue order, which is what replay needs — event
/// ids are *not* globally ordered across threads).
///
/// Appends are *staged*: each entry is encoded and framed (CRC paid here,
/// under the Recovery lock the caller already holds) into a per-partition
/// buffer, and handed to the writer in batches — when a partition's stage
/// fills, and at every wait entry via [`ActionLog::drain`]. Batching keeps
/// the per-enqueue durable cost to the encode + frame; the writer lock and
/// its `BufWriter` are touched once per hundreds of records. The
/// durability boundary is unchanged: before staging, a record this young
/// sat in the writer's `BufWriter` at the same points in its life.
pub(crate) struct WalLog {
    entries: Vec<LoggedAction>,
    wal: Arc<WalShared>,
    scratch: Vec<u8>,
    staged: BTreeMap<u32, Stage>,
    /// A record was staged since the last barrier: back-to-back waits
    /// (a `thread_synchronize`'s per-stream syncs) log one barrier.
    since_barrier: bool,
}

impl WalLog {
    pub(crate) fn new(wal: Arc<WalShared>) -> WalLog {
        WalLog {
            entries: Vec::new(),
            wal,
            scratch: Vec::new(),
            staged: BTreeMap::new(),
            since_barrier: false,
        }
    }

    fn append_wal(&mut self, la: &LoggedAction) {
        self.scratch.clear();
        encode_action(la, &mut self.scratch);
        let stage = self.staged.entry(la.stream.0).or_default();
        if let Err(e) = hs_wal::frame_record(la.ev, &self.scratch, &mut stage.buf) {
            // An action too large for the record envelope cannot be made
            // durable; like a disk error, that loses durability for the
            // run — never the enqueue itself.
            self.wal.poison(&format!("ev {}: {e}", la.ev));
            return;
        }
        stage.records += 1;
        stage.max_ev = stage.max_ev.max(la.ev);
        stage.last_ev = la.ev;
        self.since_barrier = true;
        if stage.buf.len() >= STAGE_DRAIN_BYTES {
            self.wal
                .append_framed(la.stream.0, &stage.buf, stage.records, stage.max_ev);
            stage.buf.clear();
            stage.records = 0;
        }
    }

    fn drain_staged(&mut self) {
        for (part, stage) in &mut self.staged {
            if stage.buf.is_empty() {
                continue;
            }
            self.wal
                .append_framed(*part, &stage.buf, stage.records, stage.max_ev);
            stage.buf.clear();
            stage.records = 0;
        }
    }
}

impl ActionLog for WalLog {
    fn extend(&mut self, las: Vec<LoggedAction>) {
        for la in las {
            self.append_wal(&la);
            self.entries.push(la);
        }
    }

    fn snapshot(&self) -> Vec<LoggedAction> {
        self.entries.clone()
    }

    fn retain(&mut self, keep: &mut dyn FnMut(&LoggedAction) -> bool) {
        self.entries.retain(|la| keep(la));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        // Staged records describe real enqueues; hand them to the writer
        // before dropping the mirror so disk history stays complete.
        self.drain_staged();
        self.entries.clear();
    }

    fn drain(&mut self) {
        self.drain_staged();
    }

    fn barrier(&mut self) {
        if !self.since_barrier {
            return;
        }
        self.since_barrier = false;
        let marks: Vec<(u32, u64)> = self
            .staged
            .iter()
            .map(|(part, stage)| (*part, stage.last_ev))
            .collect();
        // The marked records reach the writer before the barrier does.
        self.drain_staged();
        self.wal.append_barrier(&marks);
    }
}

// ---------------------------------------------------------------------------
// The recovery procedure.

impl HStreams {
    /// Recover a crashed durable run from `root`: scan the oldest run
    /// directory's segments (tolerating torn tails), overlay its checkpoint
    /// blob, and re-enqueue every un-retired action through the normal
    /// paths — re-logged into a fresh run directory, so recovery itself is
    /// crash-safe (an interrupted recovery leaves the source run intact and
    /// a partial newer generation that the next recovery deletes).
    ///
    /// Call on a freshly initialized runtime after recreating the same
    /// kernels, streams and buffers the crashed run had (ids are assigned
    /// in creation order, so "the same init code" suffices). `buffer_write`
    /// is *not* logged — the restarted process re-applies its initial
    /// buffer contents as part of that init, except for state a checkpoint
    /// overlay restores. Afterwards the runtime is live and durable;
    /// `stream_synchronize`/`event_wait` the replayed work as usual.
    pub fn recover(&self, root: impl AsRef<std::path::Path>) -> HsResult<RecoveryReport> {
        let root = root.as_ref();
        if self.inner.events.len() != 0 {
            return Err(HsError::InvalidArg(
                "recover requires a fresh runtime (no actions enqueued)".into(),
            ));
        }
        let runs = list_runs(root).map_err(|e| {
            HsError::ExecFailed(format!("recover: listing {}: {e}", root.display()))
        })?;
        let Some((src_id, src_dir)) = runs.first().cloned() else {
            return Err(HsError::InvalidArg(format!(
                "recover: no run directories under {}",
                root.display()
            )));
        };
        // Newer runs are partial re-logs from an interrupted recovery —
        // nothing else can mint a run over a non-empty root, because
        // `durability()` refuses one. The oldest run is authoritative.
        for (_, dir) in &runs[1..] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let scanned = hs_wal::recover_dir(&src_dir).map_err(|e| {
            HsError::ExecFailed(format!("recover: scanning {}: {e}", src_dir.display()))
        })?;
        let ckpt = hs_wal::read_blob(&src_dir.join("checkpoint.blob"))
            .map_err(|e| HsError::ExecFailed(format!("recover: checkpoint: {e}")))?
            .and_then(|b| decode_checkpoint(&b));
        let mut report = RecoveryReport {
            run_id: src_id,
            torn: scanned.torn,
            checkpoint_watermark: ckpt.as_ref().map(|(wm, _)| *wm),
            ..Default::default()
        };
        let wm = ckpt.as_ref().map_or(0, |(wm, _)| *wm);
        // Split the scan into meta records (prior failure history) and
        // replayable actions above the checkpoint watermark.
        let mut actions: Vec<LoggedAction> = Vec::new();
        let mut barriers: Vec<Vec<(u32, u64)>> = Vec::new();
        let mut order: std::collections::HashMap<u32, Vec<u64>> = Default::default();
        for r in scanned.records {
            if r.partition == hs_wal::META_PARTITION {
                if let Some(marks) = decode_barrier(&r.payload) {
                    barriers.push(marks);
                } else if let Some(cause) = FailureCause::decode(&r.payload) {
                    report.prior_failures.push(cause);
                }
                continue;
            }
            if r.ev < wm {
                report.checkpointed += 1;
                continue;
            }
            order.entry(r.partition).or_default().push(r.ev);
            match decode_action(r.ev, StreamId(r.partition), &r.payload) {
                Some(la) => actions.push(la),
                None => {
                    report.skipped += 1;
                    self.inner.chaos.note(format!(
                        "recover: undecodable record ev {} on stream {}",
                        r.ev, r.partition
                    ));
                }
            }
        }
        report.records = actions.len() as u32;
        let phases = barrier_phases(actions, &order, &barriers, wm);
        // Re-log into a fresh generation, strictly newer than the source.
        let new_id = fresh_run_id().max(src_id + 1);
        self.enable_durability(root, new_id, hs_wal::WalOptions::default())?;
        let mut ckpt_persisted = true;
        if let Some((_, bufs)) = &ckpt {
            self.wal_overlay_checkpoint(bufs);
            // Persist the overlaid state into the new generation *now*:
            // the source checkpoint is the only copy of the pre-watermark
            // buffer state (its log records were retired), so until the
            // new run carries it on disk, that state exists solely in
            // memory — a second crash before the new generation's first
            // throttled checkpoint would replay the tail against
            // init-state buffers. Watermark 0: every re-logged record of
            // the new generation is above it.
            ckpt_persisted = self.wal().is_some_and(|w| w.checkpoint(0, bufs));
        }
        self.replay_recovered(phases, &mut report);
        self.wal_flush();
        if ckpt_persisted {
            // The new generation now carries everything; drop the source.
            let _ = std::fs::remove_dir_all(&src_dir);
        } else {
            // Could not write the checkpoint into the new run (durability
            // already noted as lost): keep the source run — it is still
            // the only durable copy of the pre-watermark state, and a
            // later recover() will pick it (the oldest) again.
            self.inner.chaos.note(format!(
                "recover: checkpoint not persisted into run {new_id:016x}; \
                 keeping source run {src_id:016x}"
            ));
        }
        Ok(report)
    }

    /// Re-enqueue recovered actions through the enqueue front door, one
    /// barrier phase ([`barrier_phases`]) at a time, with the
    /// crashed run's host wait between phases. Within a phase,
    /// per-partition WAL order is per-stream enqueue order, so each stream
    /// replays as a FIFO queue; streams round-robin so cross-stream `Sync`
    /// dependences can resolve. Compute and transfer actions re-derive
    /// their intra-stream dependences from operands at enqueue; only `Sync`
    /// actions carry explicit (old-id) dependences, which are mapped to the
    /// replayed events — a dependence absent from the recovered set was
    /// complete before the crash and is dropped. (Why this differs from
    /// card-loss replay: DESIGN.md §16.)
    fn replay_recovered(&self, phases: Vec<Vec<LoggedAction>>, report: &mut RecoveryReport) {
        use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
        let retained: HashSet<u64> = phases.iter().flatten().map(|la| la.ev).collect();
        let mut mapped: HashMap<u64, Event> = HashMap::new();
        let mut resolved: HashSet<u64> = HashSet::new();
        for (k, phase) in phases.into_iter().enumerate() {
            if k > 0 {
                if let Err(e) = self.thread_synchronize() {
                    self.inner
                        .chaos
                        .note(format!("recover: barrier wait failed: {e}"));
                }
            }
            let mut queues: BTreeMap<u32, VecDeque<LoggedAction>> = BTreeMap::new();
            for la in phase {
                queues.entry(la.stream.0).or_default().push_back(la);
            }
            let mut force = false;
            while queues.values().any(|q| !q.is_empty()) {
                let mut progress = false;
                for q in queues.values_mut() {
                    while let Some(front) = q.front() {
                        let ready = force
                            || !matches!(front.op, LoggedOp::Sync)
                            || front
                                .deps
                                .iter()
                                .all(|d| !retained.contains(d) || resolved.contains(d));
                        if !ready {
                            break;
                        }
                        let la = q.pop_front().expect("front just observed");
                        let opts = ActionOpts {
                            deadline: None,
                            retry: Some(la.retry),
                        };
                        let waits: Vec<Event> = la
                            .deps
                            .iter()
                            .filter_map(|d| mapped.get(d).copied())
                            .collect();
                        let res = if matches!(la.op, LoggedOp::Sync) && waits.is_empty() {
                            // Every awaited event predates the recovered
                            // set: the wait is satisfied by construction.
                            Ok(None)
                        } else {
                            let action = la.op.to_action(None, waits);
                            self.enqueue_one(la.stream, action, opts).map(Some)
                        };
                        resolved.insert(la.ev);
                        match res {
                            Ok(ev) => {
                                mapped.extend(ev.map(|ev| (la.ev, ev)));
                                report.replayed += 1;
                            }
                            Err(e) => {
                                report.skipped += 1;
                                self.inner
                                    .chaos
                                    .note(format!("recover: replay of ev {} failed: {e}", la.ev));
                            }
                        }
                        progress = true;
                    }
                }
                // A full round without progress means a dependence cycle
                // through records the log cannot express (or deps on
                // skipped records): force the fronts through with whatever
                // dependences resolved.
                if !progress {
                    if force {
                        break;
                    }
                    self.inner
                        .chaos
                        .note("recover: forcing stuck replay fronts".to_string());
                }
                force = !progress;
            }
        }
    }

    /// Write a checkpoint's buffer bytes back into the live instantiations
    /// (thread mode) or the host shadow map (sim mode). Mismatches — a
    /// buffer or instantiation the restarted application did not recreate —
    /// are noted and skipped, never fatal.
    fn wal_overlay_checkpoint(&self, bufs: &[(u64, u32, Vec<u8>)]) {
        for (id, domain, bytes) in bufs {
            let buf = BufferId(*id);
            let dom = DomainId(*domain as usize);
            match &self.inner.exec {
                Executor::Thread(t) => {
                    let _lo = lockorder::acquiring(LockClass::Buffers);
                    let buffers = self.inner.buffers.read();
                    let mem = buffers
                        .get(buf)
                        .ok()
                        .filter(|rec| rec.len == bytes.len())
                        .and_then(|rec| rec.window(dom).ok())
                        .and_then(|w| t.coi().fabric().window(w.id()));
                    let ok = match &mem {
                        Some(mem) => match mem.lock_range(0..bytes.len(), true) {
                            Ok(mut g) => {
                                g.as_mut_slice().copy_from_slice(bytes);
                                true
                            }
                            Err(_) => false,
                        },
                        None => false,
                    };
                    if !ok {
                        self.inner.chaos.note(format!(
                            "recover: checkpoint overlay skipped buf {id} domain {domain} \
                             (not recreated or size mismatch)"
                        ));
                    }
                }
                Executor::Sim(_) => {
                    if dom.is_host() {
                        with_class(LockClass::SimShadow, || {
                            self.inner.sim_shadow.lock().insert(buf, bytes.clone())
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery report.

/// What `HStreams::recover` found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Run id of the crashed run that was recovered.
    pub run_id: u64,
    /// Action records found on disk (after the checkpoint watermark).
    pub records: u32,
    /// Actions re-enqueued through the normal paths.
    pub replayed: u32,
    /// Records dropped: undecodable payloads, vanished streams/buffers, or
    /// sync deps that could not be scheduled. Each is noted on the chaos
    /// log; a non-zero count means the recovered state may be incomplete.
    pub skipped: u32,
    /// Records below the checkpoint watermark (already captured by the
    /// checkpoint overlay; not replayed).
    pub checkpointed: u32,
    /// Torn-tail / corrupt-segment notes from the segment scan.
    pub torn: Vec<String>,
    /// Structured failure causes the crashed run had recorded (card
    /// degradations): the restarted process starts with healthy domains,
    /// so these are informational.
    pub prior_failures: Vec<FailureCause>,
    /// Watermark of the checkpoint that was overlaid, if any.
    pub checkpoint_watermark: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_actions() -> Vec<LoggedAction> {
        vec![
            LoggedAction {
                ev: 7,
                stream: StreamId(2),
                op: LoggedOp::Compute {
                    func: "dgemm".into(),
                    args: Bytes::copy_from_slice(&[1, 2, 3]),
                    operands: vec![
                        Operand {
                            buffer: BufferId(4),
                            range: 0..256,
                            access: Access::In,
                        },
                        Operand {
                            buffer: BufferId(5),
                            range: 128..512,
                            access: Access::InOut,
                        },
                    ],
                    cost: CostHint {
                        kernel: KernelKind::Dgemm,
                        flops: 1.5e9,
                        tile_n: 512,
                    },
                },
                deps: vec![1, 5],
                wrote: vec![0, 1],
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff_us: 50,
                    multiplier: 2.0,
                    jitter: 0.1,
                },
            },
            LoggedAction {
                ev: 8,
                stream: StreamId(0),
                op: LoggedOp::Xfer {
                    buf: BufferId(9),
                    range: 64..192,
                    from: DomainId(0),
                    to: DomainId(1),
                },
                deps: vec![],
                wrote: vec![1],
                retry: RetryPolicy::none(),
            },
            LoggedAction {
                ev: 9,
                stream: StreamId(1),
                op: LoggedOp::Sync,
                deps: vec![7, 8],
                wrote: vec![],
                retry: RetryPolicy::none(),
            },
        ]
    }

    fn assert_actions_eq(a: &LoggedAction, b: &LoggedAction) {
        assert_eq!(a.ev, b.ev);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.deps, b.deps);
        assert_eq!(a.wrote, b.wrote);
        assert_eq!(a.retry.max_attempts, b.retry.max_attempts);
        assert_eq!(a.retry.base_backoff_us, b.retry.base_backoff_us);
        assert_eq!(a.retry.multiplier, b.retry.multiplier);
        assert_eq!(a.retry.jitter, b.retry.jitter);
        match (&a.op, &b.op) {
            (
                LoggedOp::Compute {
                    func: f1,
                    args: a1,
                    operands: o1,
                    cost: c1,
                },
                LoggedOp::Compute {
                    func: f2,
                    args: a2,
                    operands: o2,
                    cost: c2,
                },
            ) => {
                assert_eq!(f1, f2);
                assert_eq!(a1.as_ref(), a2.as_ref());
                assert_eq!(o1.len(), o2.len());
                for (x, y) in o1.iter().zip(o2) {
                    assert_eq!(x.buffer, y.buffer);
                    assert_eq!(x.range, y.range);
                    assert_eq!(access_tag(x.access), access_tag(y.access));
                }
                assert_eq!(c1.kernel, c2.kernel);
                assert_eq!(c1.flops, c2.flops);
                assert_eq!(c1.tile_n, c2.tile_n);
            }
            (
                LoggedOp::Xfer {
                    buf: b1,
                    range: r1,
                    from: fr1,
                    to: t1,
                },
                LoggedOp::Xfer {
                    buf: b2,
                    range: r2,
                    from: fr2,
                    to: t2,
                },
            ) => {
                assert_eq!(b1, b2);
                assert_eq!(r1, r2);
                assert_eq!(fr1, fr2);
                assert_eq!(t1, t2);
            }
            (LoggedOp::Sync, LoggedOp::Sync) => {}
            _ => panic!("op variant mismatch"),
        }
    }

    #[test]
    fn action_wire_round_trip() {
        for la in sample_actions() {
            let mut buf = Vec::new();
            encode_action(&la, &mut buf);
            let back = decode_action(la.ev, la.stream, &buf).expect("decodes");
            assert_actions_eq(&la, &back);
        }
    }

    #[test]
    fn action_decode_rejects_truncation_and_trailing_garbage() {
        for la in sample_actions() {
            let mut buf = Vec::new();
            encode_action(&la, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_action(la.ev, la.stream, &buf[..cut]).is_none(),
                    "strict prefix of len {cut} must not decode"
                );
            }
            let mut long = buf.clone();
            long.push(0);
            assert!(decode_action(la.ev, la.stream, &long).is_none());
        }
    }

    #[test]
    fn barrier_round_trip_and_disjoint_from_causes() {
        let marks = vec![(0, 7), (3, u64::MAX - 1)];
        let b = encode_barrier(&marks);
        assert_eq!(decode_barrier(&b), Some(marks));
        assert!(FailureCause::decode(&b).is_none(), "not a cause");
        let cause = FailureCause::CardLost { card: 1 }.to_bytes();
        assert!(decode_barrier(&cause).is_none(), "not a barrier");
        assert!(decode_barrier(&b[..b.len() - 1]).is_none(), "truncated");
    }

    #[test]
    fn barrier_phases_cut_each_partition_at_its_mark() {
        let la = |ev, s| LoggedAction {
            ev,
            stream: StreamId(s),
            op: LoggedOp::Sync,
            deps: Vec::new(),
            wrote: Vec::new(),
            retry: RetryPolicy::none(),
        };
        // Partition 0 logged 10, 11, 12; partition 1 logged 20, 21.
        let order: HashMap<u32, Vec<u64>> = [(0, vec![10, 11, 12]), (1, vec![20, 21])].into();
        let actions = || vec![la(10, 0), la(11, 0), la(12, 0), la(20, 1), la(21, 1)];
        let evs = |phases: Vec<Vec<LoggedAction>>| -> Vec<Vec<u64>> {
            phases
                .iter()
                .map(|p| p.iter().map(|a| a.ev).collect())
                .collect()
        };
        // No barriers: one phase, exactly today's replay.
        let one = barrier_phases(actions(), &order, &[], 0);
        assert_eq!(evs(one), [vec![10, 11, 12, 20, 21]]);
        // Two waits; the second saw no new record on partition 1.
        let barriers = [vec![(0, 11), (1, 20)], vec![(0, 12), (1, 20)]];
        let three = barrier_phases(actions(), &order, &barriers, 0);
        assert_eq!(evs(three), [vec![10, 11, 20], vec![12], vec![21]]);
        // A mark below the watermark orders nothing retained; a mark lost
        // to a torn tail orders everything retained in its partition.
        let barriers = [vec![(0, 5), (1, 99)]];
        let cut = barrier_phases(actions(), &order, &barriers, 8);
        assert_eq!(evs(cut), [vec![20, 21], vec![10, 11, 12]]);
    }

    #[test]
    fn checkpoint_round_trip() {
        let bufs = vec![
            (0u64, 0u32, vec![1u8, 2, 3]),
            (1, 1, Vec::new()),
            (7, 0, vec![0xFF; 100]),
        ];
        let blob = encode_checkpoint(42, &bufs);
        let (wm, back) = decode_checkpoint(&blob).expect("decodes");
        assert_eq!(wm, 42);
        assert_eq!(back, bufs);
        assert!(decode_checkpoint(&blob[..blob.len() - 1]).is_none());
        let mut long = blob.clone();
        long.push(9);
        assert!(decode_checkpoint(&long).is_none());
    }

    // --------------------------------------------- torn-write property

    fn rng_next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A structurally random action derived from one seed: every op
    /// variant, variable-length deps/wrote/operands/args, full retry range.
    fn action_from_seed(ev: u64, seed: u64) -> LoggedAction {
        let mut s = seed | 1;
        let deps = (0..rng_next(&mut s) % 4)
            .map(|_| rng_next(&mut s) % 64)
            .collect();
        let wrote = (0..rng_next(&mut s) % 3)
            .map(|_| (rng_next(&mut s) % 2) as usize)
            .collect();
        let retry = RetryPolicy {
            max_attempts: (rng_next(&mut s) % 8) as u32,
            base_backoff_us: rng_next(&mut s) % 10_000,
            multiplier: 1.0 + (rng_next(&mut s) % 300) as f64 / 100.0,
            jitter: (rng_next(&mut s) % 100) as f64 / 100.0,
        };
        let op = match rng_next(&mut s) % 3 {
            0 => {
                let args: Vec<u8> = (0..rng_next(&mut s) % 32)
                    .map(|_| rng_next(&mut s) as u8)
                    .collect();
                let operands = (0..rng_next(&mut s) % 4)
                    .map(|_| {
                        let start = (rng_next(&mut s) % 1024) as usize;
                        let len = (rng_next(&mut s) % 1024) as usize;
                        Operand {
                            buffer: BufferId(rng_next(&mut s) % 32),
                            range: start..start + len,
                            access: match rng_next(&mut s) % 3 {
                                0 => Access::In,
                                1 => Access::Out,
                                _ => Access::InOut,
                            },
                        }
                    })
                    .collect();
                LoggedOp::Compute {
                    func: format!("k{}", rng_next(&mut s) % 10),
                    args: Bytes::from(args),
                    operands,
                    cost: CostHint {
                        kernel: KernelKind::ALL
                            [(rng_next(&mut s) as usize) % KernelKind::ALL.len()],
                        flops: (rng_next(&mut s) % 1_000_000) as f64,
                        tile_n: rng_next(&mut s) % 4096,
                    },
                }
            }
            1 => {
                let start = rng_next(&mut s) % (1 << 20);
                LoggedOp::Xfer {
                    buf: BufferId(rng_next(&mut s) % 32),
                    range: start as usize..(start + rng_next(&mut s) % (1 << 20)) as usize,
                    from: DomainId((rng_next(&mut s) % 3) as usize),
                    to: DomainId((rng_next(&mut s) % 3) as usize),
                }
            }
            _ => LoggedOp::Sync,
        };
        LoggedAction {
            ev,
            stream: StreamId(0),
            op,
            deps,
            wrote,
            retry,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Random action batches through the real framing, then a torn
        /// write (tail truncation at an arbitrary byte): recovery + decode
        /// yields exactly the longest valid prefix of the batch — every
        /// survivor bit-identical, never a partial or phantom action.
        #[test]
        fn torn_action_log_yields_exactly_longest_valid_prefix(
            seeds in proptest::collection::vec(1u64..u64::MAX, 1..25),
            cut_frac in 0.0f64..1.0,
            tag in 0u64..1_000_000,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "hs-durable-torn-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();

            let actions: Vec<LoggedAction> = seeds
                .iter()
                .enumerate()
                .map(|(i, seed)| action_from_seed(i as u64 + 1, *seed))
                .collect();
            let mut wal = Wal::create(&dir, 1, hs_wal::WalOptions::default()).unwrap();
            let mut frames = Vec::new();
            let mut scratch = Vec::new();
            for la in &actions {
                scratch.clear();
                encode_action(la, &mut scratch);
                wal.append(0, la.ev, &scratch).unwrap();
                frames.push(8 + 8 + scratch.len() as u64);
            }
            wal.flush().unwrap();
            drop(wal);

            let seg = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.is_file())
                .unwrap();
            let data = std::fs::read(&seg).unwrap();
            let cut = (data.len() as f64 * cut_frac) as usize;
            std::fs::write(&seg, &data[..cut]).unwrap();

            let mut expect = 0usize;
            let mut off = hs_wal::HEADER_LEN as u64;
            for f in &frames {
                off += f;
                if off <= cut as u64 {
                    expect += 1;
                } else {
                    break;
                }
            }

            let rec = hs_wal::recover_dir(&dir).unwrap();
            prop_assert_eq!(rec.records.len(), expect, "exactly the longest prefix");
            for (r, la) in rec.records.iter().zip(&actions) {
                prop_assert_eq!(r.ev, la.ev);
                let back = decode_action(r.ev, StreamId(r.partition), &r.payload)
                    .expect("surviving record decodes");
                assert_actions_eq(la, &back);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn run_dirs_sort_ascending_and_parse() {
        let root = std::env::temp_dir().join(format!("hs-durable-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        for id in [5u64, 1, 9] {
            std::fs::create_dir_all(root.join(run_dir_name(id))).unwrap();
        }
        std::fs::write(root.join("not-a-run"), b"x").unwrap();
        let runs = list_runs(&root).unwrap();
        assert_eq!(
            runs.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [1, 5, 9]
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
