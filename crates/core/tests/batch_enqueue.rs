//! Differential testing of `enqueue_many`: a batch must be semantically
//! identical to the same actions enqueued one at a time — same dependence
//! graph, same final data, same counters, same recorded trace — on both
//! executors, for every way of splitting the action sequence into batches.
//!
//! A single enqueue is itself a batch of one through the same engine, so
//! singles == batched alone cannot catch an engine bug both sides share.
//! Every data/counter comparison is therefore also checked against
//! [`model`], a host-side interpreter of the op sequence that shares no
//! code with the runtime.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BatchAction, BufProps, BufferId, CostHint, CpuMask, DomainId, Event, ExecMode,
    HStreams, HsError, Operand, OrderingMode, StreamId, TaskCtx,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 4; // f64 lanes per buffer

/// One source-level action of the differential workload, interpretable
/// either as a single enqueue or as a [`BatchAction`].
#[derive(Clone, Debug)]
enum Op {
    /// addk on the card instantiation.
    AddK(f64),
    /// Host → card transfer of the whole buffer.
    H2d,
    /// Card → host transfer of the whole buffer.
    D2h,
    /// Full intra-stream fence.
    Marker,
    /// Wait on a pre-workload root event.
    WaitRoot,
}

struct Rig {
    hs: HStreams,
    s: StreamId,
    b: BufferId,
    root: Event,
}

fn rig(mode: ExecMode) -> Rig {
    rig_with(mode, OrderingMode::OutOfOrder)
}

fn rig_with(mode: ExecMode, ordering: OrderingMode) -> Rig {
    let hs = HStreams::init_with_ordering(PlatformCfg::hetero(Device::Hsw, 1), mode, ordering);
    hs.register(
        "addk",
        Arc::new(|ctx: &mut TaskCtx| {
            let k = f64::from_le_bytes(ctx.args()[..8].try_into().expect("arg"));
            for x in ctx.buf_f64_mut(0) {
                *x += k;
            }
        }),
    );
    let s = hs
        .stream_create(DomainId(1), CpuMask::first(2))
        .expect("stream");
    let b = hs.buffer_create(8 * N, BufProps::default());
    hs.buffer_instantiate(b, DomainId(1)).expect("inst");
    hs.buffer_write_f64(b, 0, &[1.0; N]).expect("init");
    // A pre-batch event for `WaitRoot` to target (batch event-waits must
    // reference events that exist before the batch).
    let root = hs.xfer_to_sink(s, b, 0..8 * N).expect("root");
    Rig { hs, s, b, root }
}

fn op_to_batch(rig: &Rig, op: &Op) -> BatchAction {
    match op {
        Op::AddK(k) => BatchAction::Compute {
            func: "addk".into(),
            args: Bytes::copy_from_slice(&k.to_le_bytes()),
            operands: vec![Operand::f64s(rig.b, 0, N, Access::InOut)],
            cost: CostHint::trivial(),
        },
        Op::H2d => BatchAction::Xfer {
            buf: rig.b,
            range: 0..8 * N,
            from: DomainId::HOST,
            to: DomainId(1),
        },
        Op::D2h => BatchAction::Xfer {
            buf: rig.b,
            range: 0..8 * N,
            from: DomainId(1),
            to: DomainId::HOST,
        },
        Op::Marker => BatchAction::Marker,
        Op::WaitRoot => BatchAction::EventWait {
            events: vec![rig.root],
        },
    }
}

fn run_single(rig: &Rig, op: &Op) -> Event {
    match op {
        Op::AddK(k) => rig
            .hs
            .enqueue_compute(
                rig.s,
                "addk",
                Bytes::copy_from_slice(&k.to_le_bytes()),
                &[Operand::f64s(rig.b, 0, N, Access::InOut)],
                CostHint::trivial(),
            )
            .expect("compute"),
        Op::H2d => rig
            .hs
            .enqueue_xfer(rig.s, rig.b, 0..8 * N, DomainId::HOST, DomainId(1))
            .expect("h2d"),
        Op::D2h => rig
            .hs
            .enqueue_xfer(rig.s, rig.b, 0..8 * N, DomainId(1), DomainId::HOST)
            .expect("d2h"),
        Op::Marker => rig.hs.enqueue_marker(rig.s).expect("marker"),
        Op::WaitRoot => rig.hs.enqueue_event_wait(rig.s, &[rig.root]).expect("wait"),
    }
}

/// Drive `ops` through `rig`, batched into chunks of the given sizes
/// (an empty `splits` means one enqueue per op), then synchronize and
/// return (host data, computes, transfers, syncs).
fn drive(rig: &Rig, ops: &[Op], splits: Option<&[usize]>) -> ([f64; N], u64, u64, u64) {
    match splits {
        None => {
            for op in ops {
                run_single(rig, op);
            }
        }
        Some(sizes) => {
            let mut rest = ops;
            for &sz in sizes {
                let take = sz.min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                let batch: Vec<BatchAction> = chunk.iter().map(|o| op_to_batch(rig, o)).collect();
                let evs = rig.hs.enqueue_many(rig.s, batch).expect("batch");
                assert_eq!(evs.len(), take, "one event per batch action");
                rest = tail;
            }
            assert!(rest.is_empty(), "splits must cover all ops");
        }
    }
    rig.hs.thread_synchronize().expect("sync");
    // Sim mode has no real data movement; the read returns the host
    // shadow, which both variants treat identically.
    let mut out = [0.0; N];
    rig.hs.buffer_read_f64(rig.b, 0, &mut out).expect("read");
    let st = rig.hs.stats();
    (out, st.computes(), st.transfers(), st.syncs())
}

/// The engine-independent reference: interpret `ops` sequentially on the
/// host, tracking the host and card copies of the rig's buffer and counting
/// each action kind, and return what [`drive`] reports. The rig starts with
/// host = card = 1.0 (its root event is an h2d, counted as one transfer).
/// Sim mode moves no real data: the host copy it reads back stays at its
/// initial value.
fn model(ops: &[Op], mode: ExecMode) -> ([f64; N], u64, u64, u64) {
    let (mut host, mut card) = (1.0, 1.0);
    let (mut computes, mut transfers, mut syncs) = (0, 1, 0);
    for op in ops {
        match op {
            Op::AddK(k) => {
                card += k;
                computes += 1;
            }
            Op::H2d => {
                card = host;
                transfers += 1;
            }
            Op::D2h => {
                host = card;
                transfers += 1;
            }
            Op::Marker | Op::WaitRoot => syncs += 1,
        }
    }
    if mode == ExecMode::Sim {
        host = 1.0;
    }
    ([host; N], computes, transfers, syncs)
}

/// The canonical pipeline: h2d → compute* → d2h, repeated. Batch (one
/// chunk) and singles must agree on data and counters, on both executors.
#[test]
fn batch_equals_singles_pipeline() {
    let ops = vec![
        Op::H2d,
        Op::AddK(1.0),
        Op::AddK(2.0),
        Op::D2h,
        Op::H2d,
        Op::AddK(4.0),
        Op::D2h,
    ];
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = drive(&rig(mode), &ops, None);
        let batched = drive(&rig(mode), &ops, Some(&[ops.len()]));
        assert_eq!(single, batched, "{mode:?}");
        assert_eq!(single, model(&ops, mode), "{mode:?}");
        if mode == ExecMode::Threads {
            // 1 (init) + 1+2+4 = 8 per lane.
            assert_eq!(single.0, [8.0; N]);
        }
    }
}

/// Sync kinds inside a batch: markers fence, event-waits target pre-batch
/// events; intra-batch dependences (compute after h2d after the marker)
/// resolve without round-tripping the event table.
#[test]
fn batch_equals_singles_with_sync_kinds() {
    let ops = vec![
        Op::WaitRoot,
        Op::H2d,
        Op::Marker,
        Op::AddK(3.0),
        Op::Marker,
        Op::D2h,
        Op::WaitRoot,
    ];
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = drive(&rig(mode), &ops, None);
        let batched = drive(&rig(mode), &ops, Some(&[ops.len()]));
        assert_eq!(single, batched, "{mode:?}");
        assert_eq!(single, model(&ops, mode), "{mode:?}");
    }
}

/// An invalid item anywhere in the batch enqueues *nothing* — the world
/// state (event count, action counters from the executor's perspective)
/// is as if the call never happened.
#[test]
fn batch_is_all_or_nothing() {
    let r = rig(ExecMode::Threads);
    r.hs.thread_synchronize().expect("root settles");
    let before = r.hs.stats().total_calls();
    let bogus = BufferId(9999);
    let batch = vec![
        op_to_batch(&r, &Op::AddK(1.0)),
        BatchAction::Xfer {
            buf: bogus,
            range: 0..8,
            from: DomainId::HOST,
            to: DomainId(1),
        },
    ];
    let err = r.hs.enqueue_many(r.s, batch).expect_err("bogus buffer");
    assert!(matches!(err, HsError::UnknownBuffer(_)), "{err:?}");
    let _ = before;
    r.hs.thread_synchronize().expect("sync");
    let mut out = [0.0; N];
    r.hs.buffer_read_f64(r.b, 0, &mut out).expect("read");
    assert_eq!(out, [1.0; N], "no partial batch executed");
}

/// Regression for the reserve→publish crack: a batch whose last item is
/// invalid must leave no trace in the event table. A leaked reservation is
/// a forever-unpublished slot that stalls the retirement watermark and
/// grows the table without bound. Every item is validated before any id is
/// reserved, so 10k failing batches leave `events.reserved` unchanged and
/// `events.live` flat.
#[test]
fn failed_batches_tombstone_reserved_ids() {
    let r = rig(ExecMode::Threads);
    r.hs.thread_synchronize().expect("root settles");
    let m0 = r.hs.metrics();
    let (live0, reserved0) = (m0.extra["events.live"], m0.extra["events.reserved"]);
    for i in 0..10_000u64 {
        // Two valid items ahead of the bogus event-wait that aborts the
        // batch.
        let batch = vec![
            op_to_batch(&r, &Op::AddK(1.0)),
            op_to_batch(&r, &Op::H2d),
            BatchAction::EventWait {
                events: vec![Event(u64::MAX - i)],
            },
        ];
        let err = r.hs.enqueue_many(r.s, batch).expect_err("bogus wait");
        assert!(matches!(err, HsError::UnknownEvent(_)), "{err:?}");
    }
    r.hs.thread_synchronize().expect("sync");
    let mut out = [0.0; N];
    r.hs.buffer_read_f64(r.b, 0, &mut out).expect("read");
    assert_eq!(out, [1.0; N], "no item of a failed batch may run");
    let m = r.hs.metrics();
    let live = m.extra["events.live"];
    assert!(
        live <= live0,
        "failed batches must not leave live events: {live0} -> {live}"
    );
    assert_eq!(
        m.extra["events.reserved"], reserved0,
        "failed batches must reserve no event ids"
    );
}

/// Regression for window damage from a mid-batch abort: a batch whose
/// item *i* > 0 fails must leave the stream's dependence window as it was.
/// Each case queues `set7` (writes 7.0 into the card copy of `b`) behind a
/// 300 ms compute that occupies the stream's sink, runs a failing batch,
/// then reads `b` back: the read must order after the still-pending
/// `set7`. Had the failed batch's items been windowed, the read would lose
/// that edge — to a marker's index reset (out-of-order), a covering
/// write's pruning (out-of-order) or a strict-FIFO chain link — and copy
/// out the stale 1.0.
#[test]
fn failed_batch_leaves_the_window_intact() {
    let cases = [
        ("marker, ooo", OrderingMode::OutOfOrder, Op::Marker),
        ("covering h2d, ooo", OrderingMode::OutOfOrder, Op::H2d),
        ("marker, fifo", OrderingMode::StrictFifo, Op::Marker),
    ];
    for (name, ordering, first) in cases {
        let r = rig_with(ExecMode::Threads, ordering);
        r.hs.thread_synchronize().expect("root settles");
        r.hs.register(
            "sleep",
            Arc::new(|_: &mut TaskCtx| std::thread::sleep(Duration::from_millis(300))),
        );
        r.hs.register(
            "set7",
            Arc::new(|ctx: &mut TaskCtx| ctx.buf_f64_mut(0).fill(7.0)),
        );
        r.hs.enqueue_compute(r.s, "sleep", Bytes::new(), &[], CostHint::trivial())
            .expect("sleep");
        r.hs.enqueue_compute(
            r.s,
            "set7",
            Bytes::new(),
            &[Operand::f64s(r.b, 0, N, Access::Out)],
            CostHint::trivial(),
        )
        .expect("set7");
        let bogus = BatchAction::EventWait {
            events: vec![Event(u64::MAX)],
        };
        let err =
            r.hs.enqueue_many(r.s, vec![op_to_batch(&r, &first), bogus])
                .expect_err("bogus wait");
        assert!(matches!(err, HsError::UnknownEvent(_)), "{name}: {err:?}");
        let d2h = r.hs.xfer_to_source(r.s, r.b, 0..8 * N).expect("d2h");
        r.hs.event_wait(d2h).expect("wait d2h");
        let mut out = [0.0; N];
        r.hs.buffer_read_f64(r.b, 0, &mut out).expect("read");
        assert_eq!(out, [7.0; N], "{name}: the read lost its edge to set7");
        r.hs.thread_synchronize().expect("sync");
    }
}

/// The empty batch is a no-op returning no events.
#[test]
fn empty_batch_is_noop() {
    let r = rig(ExecMode::Threads);
    let evs = r.hs.enqueue_many(r.s, Vec::new()).expect("empty");
    assert!(evs.is_empty());
}

/// Batch event-waits reject unknown events like the single-action API.
#[test]
fn batch_event_wait_validates_ids() {
    let r = rig(ExecMode::Threads);
    let err =
        r.hs.enqueue_many(
            r.s,
            vec![BatchAction::EventWait {
                events: vec![Event(u64::MAX)],
            }],
        )
        .expect_err("unknown event");
    assert!(matches!(err, HsError::UnknownEvent(_)), "{err:?}");
}

/// While an hsan recording is live, a batch records exactly the ops that
/// the equivalent singles record — same ids (one id counter), same kinds,
/// footprints and wait edges.
#[cfg(feature = "hsan-record")]
#[test]
fn batch_trace_matches_singles_trace() {
    use hstreams_core::TraceOp;
    let ops = vec![Op::H2d, Op::AddK(2.0), Op::Marker, Op::D2h, Op::WaitRoot];
    let project = |rig: &Rig, splits: Option<&[usize]>| {
        rig.hs.recording_start();
        match splits {
            None => {
                for op in &ops {
                    run_single(rig, op);
                }
            }
            Some(sizes) => {
                let mut rest = &ops[..];
                for &sz in sizes {
                    let (chunk, tail) = rest.split_at(sz.min(rest.len()));
                    let batch: Vec<BatchAction> =
                        chunk.iter().map(|o| op_to_batch(rig, o)).collect();
                    rig.hs.enqueue_many(rig.s, batch).expect("batch");
                    rest = tail;
                }
            }
        }
        rig.hs.thread_synchronize().expect("sync");
        let trace = rig.hs.recording_take().expect("trace");
        trace
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Enqueue(a) => Some((
                    a.event,
                    a.stream,
                    a.kind,
                    a.footprint.clone(),
                    a.waits.clone(),
                )),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let single = project(&rig(mode), None);
        let batched = project(&rig(mode), Some(&[2, 3]));
        assert_eq!(single, batched, "{mode:?}");
        assert_eq!(single.len(), ops.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any op sequence, split into batches at any boundaries, produces the
    /// same data and counters as one-at-a-time enqueues (thread executor:
    /// real data flows through the card window and back).
    #[test]
    fn random_batch_splits_match_singles(
        ops in proptest::collection::vec(
            prop_oneof![
                (1u32..5).prop_map(|k| Op::AddK(k as f64)),
                Just(Op::H2d),
                Just(Op::D2h),
                Just(Op::Marker),
                Just(Op::WaitRoot),
            ],
            1..24,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Derive chunk sizes from the seed: 1..=5 per chunk until covered.
        let mut sizes = Vec::new();
        let (mut left, mut x) = (ops.len(), seed);
        while left > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let sz = (1 + (x >> 33) % 5) as usize;
            sizes.push(sz.min(left));
            left -= sz.min(left);
        }
        let single = drive(&rig(ExecMode::Threads), &ops, None);
        let batched = drive(&rig(ExecMode::Threads), &ops, Some(&sizes));
        prop_assert_eq!(single, batched);
        prop_assert_eq!(single, model(&ops, ExecMode::Threads));
    }
}
