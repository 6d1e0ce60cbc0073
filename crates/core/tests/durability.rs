//! Durable action log: survive process death and recover to a fault-free
//! state. These tests model the crash in-process — the runtime is dropped
//! with its WAL run directory left behind, exactly what `kill -9` leaves
//! on disk (appends are flushed to the page cache at every wait entry) —
//! and a second runtime recovers from it. The real-kill version lives in
//! `examples/crash_recovery.rs`, which CI runs with an actual `SIGKILL`.

use bytes::Bytes;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{
    Access, BufProps, CostHint, CpuMask, DomainId, ExecMode, FaultKind, FaultPlan, FaultSite,
    HStreams, Operand, StreamId, TaskCtx,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N: usize = 64;

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "hs-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A runtime with the test kernel registered: `bump` adds 1.0 to every
/// element of its operand.
fn runtime(mode: ExecMode) -> HStreams {
    let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), mode);
    hs.register(
        "bump",
        Arc::new(|ctx: &mut TaskCtx| {
            for x in ctx.buf_f64_mut(0) {
                *x += 1.0;
            }
        }),
    );
    hs
}

/// The deterministic init both the original and the restarted process run:
/// two streams on the card, one buffer instantiated there, input written.
fn init_workload(hs: &HStreams) -> (StreamId, StreamId, hstreams_core::BufferId) {
    let card = DomainId(1);
    let s0 = hs.stream_create(card, CpuMask::first(1)).expect("s0");
    let s1 = hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    let input: Vec<f64> = (0..N).map(|i| i as f64).collect();
    hs.buffer_write_f64(buf, 0, &input).expect("write input");
    (s0, s1, buf)
}

/// `rounds` of h2d → bump → d2h, alternating streams, with a cross-stream
/// event wait each round so recovery exercises `Sync` dependence mapping.
fn enqueue_rounds(
    hs: &HStreams,
    s0: StreamId,
    s1: StreamId,
    buf: hstreams_core::BufferId,
    rounds: usize,
) {
    let card = DomainId(1);
    let mut last = None;
    for i in 0..rounds {
        let s = if i % 2 == 0 { s0 } else { s1 };
        if let Some(prev) = last {
            hs.enqueue_event_wait(s, &[prev]).expect("cross wait");
        }
        hs.enqueue_xfer(s, buf, 0..N * 8, DomainId::HOST, card)
            .expect("h2d");
        hs.enqueue_compute(
            s,
            "bump",
            Bytes::new(),
            &[Operand::f64s(buf, 0, N, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("compute");
        last = Some(
            hs.enqueue_xfer(s, buf, 0..N * 8, card, DomainId::HOST)
                .expect("d2h"),
        );
    }
}

/// Init *without* rewriting the input: buffer state must come entirely
/// from the checkpoint overlay (plus replay) — used by the checkpoint
/// recovery tests.
fn init_no_input(hs: &HStreams) -> hstreams_core::BufferId {
    let card = DomainId(1);
    hs.stream_create(card, CpuMask::first(1)).expect("s0");
    hs.stream_create(card, CpuMask::first(1)).expect("s1");
    let buf = hs.buffer_create(N * 8, BufProps::labeled("data"));
    hs.buffer_instantiate(buf, card).expect("instantiate");
    buf
}

fn read_result(hs: &HStreams, buf: hstreams_core::BufferId) -> Vec<f64> {
    let mut out = vec![0.0; N];
    hs.buffer_read_f64(buf, 0, &mut out).expect("read");
    out
}

/// The reference: same workload, no durability, no crash.
fn fault_free(mode: ExecMode, rounds: usize) -> Vec<f64> {
    let hs = runtime(mode);
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, rounds);
    hs.thread_synchronize().expect("sync");
    read_result(&hs, buf)
}

fn run_count(root: &Path) -> usize {
    std::fs::read_dir(root)
        .map(|rd| {
            rd.filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.file_name().to_string_lossy().starts_with("run-"))
            })
            .count()
        })
        .unwrap_or(0)
}

/// Acceptance: a durable run that dies after its waits flushed recovers —
/// on a fresh runtime with the same init — to the fault-free result, on
/// both executors.
#[test]
fn crash_and_recover_matches_fault_free_on_both_executors() {
    for mode in [ExecMode::Threads, ExecMode::Sim] {
        let root = tmp_root("crash");
        let reference = fault_free(mode, 6);
        {
            let hs = runtime(mode);
            hs.durability(&root).expect("durability on");
            let (s0, s1, buf) = init_workload(&hs);
            enqueue_rounds(&hs, s0, s1, buf, 6);
            // One wait is enough to flush every append so far; the process
            // then "dies" (drop) with no checkpoint and no clean shutdown.
            hs.thread_synchronize().expect("sync");
            assert!(
                hs.wal_stats().expect("stats").records > 0,
                "durable run must have logged records"
            );
        }
        assert_eq!(run_count(&root), 1, "crashed run dir left behind");

        let hs = runtime(mode);
        let (_s0, _s1, buf) = init_workload(&hs);
        let report = hs.recover(&root).expect("recover");
        assert!(report.records > 0, "found the crashed run's records");
        assert_eq!(
            report.replayed, report.records,
            "every record replays: {report:?}"
        );
        assert_eq!(report.skipped, 0, "{report:?}");
        hs.thread_synchronize().expect("post-recover sync");
        assert_eq!(
            read_result(&hs, buf),
            reference,
            "mode {mode:?}: recovered result must be bit-identical"
        );
        // The crashed generation was consumed; the new one is durable.
        assert_eq!(run_count(&root), 1, "old run deleted, new run live");
        assert!(hs.wal_stats().is_some(), "recovered runtime is durable");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A checkpoint at a quiesce point truncates the log; recovery overlays the
/// snapshot (card windows included) and replays only post-checkpoint
/// records — without re-running the pre-checkpoint work.
#[test]
fn checkpoint_truncates_and_recovery_overlays() {
    let root = tmp_root("ckpt");
    let reference = fault_free(ExecMode::Threads, 8);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 5);
        hs.thread_synchronize().expect("sync");
        let before = hs.wal_stats().expect("stats").records;
        hs.wal_checkpoint();
        enqueue_rounds(&hs, s0, s1, buf, 3);
        hs.thread_synchronize().expect("sync 2");
        assert!(before > 0);
    }
    let hs = runtime(ExecMode::Threads);
    // Deliberately do NOT rewrite the input: the checkpoint overlay must
    // restore the first five rounds' state on its own.
    let buf = init_no_input(&hs);
    let report = hs.recover(&root).expect("recover");
    assert!(
        report.checkpoint_watermark.is_some(),
        "checkpoint found: {report:?}"
    );
    assert!(report.records > 0, "post-checkpoint records: {report:?}");
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("post-recover sync");
    assert_eq!(
        read_result(&hs, buf),
        reference,
        "checkpoint overlay + tail replay must equal the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// An injected torn write (crash mid-`write(2)`) costs exactly the torn
/// tail: recovery reports it, replays the surviving prefix, and does not
/// error.
#[test]
fn torn_tail_recovers_longest_prefix() {
    let root = tmp_root("torn");
    let logged = {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        hs.chaos_install(
            FaultPlan::new(7).with_trigger(FaultSite::Wal { nth: 1 }, FaultKind::Torn),
        );
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        // First real flush fires the torn-write fault: the tail of the
        // last-appended partition is chopped mid-record.
        hs.thread_synchronize().expect("sync");
        hs.wal_stats().expect("stats").records
    };
    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, _buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("recover");
    assert!(
        !report.torn.is_empty(),
        "torn tail must be reported: {report:?}"
    );
    assert!(
        u64::from(report.records) < logged,
        "the torn record is lost: {report:?} vs {logged} logged"
    );
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("post-recover sync");
    let _ = std::fs::remove_dir_all(&root);
}

/// An injected WAL I/O failure breaks durability but never the run: the
/// workload completes, the loss is noted, and later flushes are no-ops.
#[test]
fn wal_io_fault_degrades_to_in_memory() {
    let root = tmp_root("io");
    let hs = runtime(ExecMode::Threads);
    hs.durability(&root).expect("durability on");
    hs.chaos_install(FaultPlan::new(7).with_trigger(FaultSite::Wal { nth: 1 }, FaultKind::Io));
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 4);
    hs.thread_synchronize()
        .expect("the run itself must succeed");
    let expected: Vec<f64> = (0..N).map(|i| i as f64 + 4.0).collect();
    assert_eq!(read_result(&hs, buf), expected);
    let log = hs.chaos().injected_log();
    assert!(
        log.iter().any(|l| l.contains("io@wal#1")),
        "io fault injected: {log:?}"
    );
    assert!(
        log.iter().any(|l| l.contains("durability lost")),
        "loss noted: {log:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Two crashes back to back: recovery re-logs into a fresh generation, so
/// a second crash (even mid-recovery-output) recovers from the newest
/// complete generation with nothing double-applied.
#[test]
fn double_crash_recovers_twice() {
    let root = tmp_root("double");
    let reference = fault_free(ExecMode::Threads, 4);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        hs.thread_synchronize().expect("sync");
    }
    {
        let hs = runtime(ExecMode::Threads);
        let (_s0, _s1, _buf) = init_workload(&hs);
        let report = hs.recover(&root).expect("first recover");
        assert_eq!(report.replayed, report.records);
        hs.thread_synchronize().expect("sync");
        // Crash again without a checkpoint: the replayed actions were
        // re-logged into the new generation.
    }
    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("second recover");
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("sync");
    assert_eq!(read_result(&hs, buf), reference);
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint whose state lives only in the blob (its log records were
/// retired) must survive TWO crashes: the first recovery persists the
/// overlaid checkpoint into its fresh generation *before* deleting the
/// source run, so a second kill — landing before the new generation's own
/// first throttled checkpoint — still finds the pre-watermark buffer
/// state on disk instead of replaying the tail against init-state buffers.
#[test]
fn checkpoint_survives_double_crash() {
    let root = tmp_root("ckpt-double");
    let reference = fault_free(ExecMode::Threads, 8);
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 5);
        hs.thread_synchronize().expect("sync");
        hs.wal_checkpoint();
        enqueue_rounds(&hs, s0, s1, buf, 3);
        hs.thread_synchronize().expect("sync 2");
        // Crash 1: rounds 1–5 exist only in the checkpoint blob.
    }
    {
        let hs = runtime(ExecMode::Threads);
        init_no_input(&hs);
        let report = hs.recover(&root).expect("first recover");
        assert!(report.checkpoint_watermark.is_some(), "{report:?}");
        assert_eq!(report.replayed, report.records, "{report:?}");
        hs.thread_synchronize().expect("sync");
        // Crash 2: the workload is too small for the new generation's
        // throttled checkpoint to have fired on its own.
    }
    let hs = runtime(ExecMode::Threads);
    let buf = init_no_input(&hs);
    let report = hs.recover(&root).expect("second recover");
    assert!(
        report.checkpoint_watermark.is_some(),
        "the first recovery must have persisted the checkpoint into its generation: {report:?}"
    );
    hs.thread_synchronize().expect("sync");
    assert_eq!(
        read_result(&hs, buf),
        reference,
        "double crash with a checkpoint must still be bit-identical"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A root with an existing run on it is `recover()`'s job: `durability()`
/// refuses it rather than minting a newer generation the next recovery
/// would delete as an interrupted-recovery leftover (destroying the
/// genuine new run and replaying stale data).
#[test]
fn durability_refuses_root_with_existing_runs() {
    let root = tmp_root("dirty");
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 1);
        hs.thread_synchronize().expect("sync");
    }
    let hs = runtime(ExecMode::Threads);
    let err = hs
        .durability(&root)
        .expect_err("dirty root must be refused");
    assert!(
        format!("{err}").contains("recover"),
        "error should point at recover(): {err}"
    );
    // recover() on that root still works — and leaves a root durability()
    // keeps refusing while a run exists.
    let (_s0, _s1, _buf) = init_workload(&hs);
    hs.recover(&root).expect("recover instead");
    hs.thread_synchronize().expect("sync");
    let _ = std::fs::remove_dir_all(&root);
}

/// Degradations land on the WAL's meta partition: a restarted process sees
/// the crashed run's failure history in the recovery report.
#[test]
fn prior_card_loss_surfaces_in_recovery_report() {
    let root = tmp_root("prior");
    {
        let hs = runtime(ExecMode::Threads);
        hs.durability(&root).expect("durability on");
        hs.chaos_install(
            FaultPlan::new(3)
                .with_trigger(FaultSite::CardOp { card: 1, nth: 2 }, FaultKind::CardDead),
        );
        let (s0, s1, buf) = init_workload(&hs);
        enqueue_rounds(&hs, s0, s1, buf, 4);
        hs.thread_synchronize().expect("degraded run completes");
        assert_eq!(hs.degraded_cards(), vec![1], "card 1 degraded");
    }
    let hs = runtime(ExecMode::Threads);
    let (_s0, _s1, _buf) = init_workload(&hs);
    let report = hs.recover(&root).expect("recover");
    assert!(
        report
            .prior_failures
            .iter()
            .any(|c| matches!(c, hstreams_core::FailureCause::CardLost { card: 1 })),
        "prior degradation surfaces: {report:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Durability is an init-time switch: enabling it after the first enqueue
/// is an error, as is recovering on a runtime that already enqueued.
#[test]
fn durability_and_recover_require_a_fresh_runtime() {
    let root = tmp_root("fresh");
    let hs = runtime(ExecMode::Threads);
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 1);
    hs.thread_synchronize().expect("sync");
    assert!(hs.durability(&root).is_err(), "late enable must fail");
    assert!(hs.recover(&root).is_err(), "late recover must fail");
    // And recovering an empty root is a clear error, not a silent no-op.
    let fresh = runtime(ExecMode::Threads);
    assert!(fresh.recover(&root).is_err(), "no runs to recover");
    let _ = std::fs::remove_dir_all(&root);
}

/// Group-commit fsync: with a wide batch window, flushes inside the window
/// skip the syscall (counted) and the log still recovers every record —
/// batching trades the media-durability window, never page-cache
/// durability.
#[test]
fn durability_opts_group_commits_fsyncs() {
    let root = tmp_root("fsync-batch");
    let hs = runtime(ExecMode::Threads);
    hs.obs_enable(true);
    hs.durability_opts(&root, true, 60_000).expect("enable");
    let (s0, s1, buf) = init_workload(&hs);
    // Several enqueue→sync cycles: each sync flushes fresh bytes, and all
    // but the first flush land inside the 60 s window.
    for _ in 0..3 {
        enqueue_rounds(&hs, s0, s1, buf, 2);
        hs.thread_synchronize().expect("sync");
    }
    let stats = hs.wal_stats().expect("wal on");
    assert!(stats.fsyncs >= 1, "creation-time flush syncs: {stats:?}");
    assert!(
        stats.fsync_batched > 0,
        "wait-entry flushes inside the window must defer: {stats:?}"
    );
    let rows = hs.metrics().rows();
    let batched = rows
        .iter()
        .find(|(k, _)| k == "wal.fsync_batched")
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(batched > 0.0, "obs counter mirrors the deferral: {rows:?}");
    drop(hs);

    // Every record still lands: recovery replays the full history.
    let expect = fault_free(ExecMode::Threads, 6);
    let hs2 = runtime(ExecMode::Threads);
    let (_s0, _s1, buf2) = init_workload(&hs2);
    hs2.recover(&root).expect("recover");
    hs2.thread_synchronize().expect("post-recover sync");
    assert_eq!(read_result(&hs2, buf2), expect);
    let _ = std::fs::remove_dir_all(&root);
}

/// batch_ms = 0 keeps the old contract: every syncing flush issues its own
/// fsync, nothing is ever deferred.
#[test]
fn durability_opts_zero_window_syncs_every_flush() {
    let root = tmp_root("fsync-now");
    let hs = runtime(ExecMode::Threads);
    hs.durability_opts(&root, true, 0).expect("enable");
    let (s0, s1, buf) = init_workload(&hs);
    enqueue_rounds(&hs, s0, s1, buf, 3);
    hs.thread_synchronize().expect("sync");
    let stats = hs.wal_stats().expect("wal on");
    assert_eq!(stats.fsync_batched, 0, "no window, no deferral: {stats:?}");
    assert!(stats.fsyncs >= stats.flushes.min(1), "{stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Regression for a lost update on recovery. The crashed run synchronized
/// the host between two enqueue cycles that share one card buffer, but
/// replay used to drain each stream's queue with only `Sync` records as
/// cross-stream edges — so stream 0's second cycle raced stream 1's first.
/// Here the restarted process's `nap` kernel really sleeps (the crashed
/// run's returned at once), which makes the race deterministic: without
/// barrier replay, s0's cycle-2 h2d lands between s1's bump and its d2h
/// and overwrites that bump on the card.
#[test]
fn recovery_replays_host_waits_as_barriers() {
    let root = tmp_root("barrier");
    let runtime_napping = |sleep: bool| {
        let hs = runtime(ExecMode::Threads);
        hs.register(
            "nap",
            Arc::new(move |ctx: &mut TaskCtx| {
                let ms = u64::from_le_bytes(ctx.args()[..8].try_into().expect("ms arg"));
                if sleep {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }),
        );
        hs
    };
    // Streams s0, s1 (data) and s2 (naps); `buf` is the shared data, the
    // two nap buffers keep the naps off its operand ranges.
    let init = |hs: &HStreams| {
        let card = DomainId(1);
        let (s0, s1, buf) = init_workload(hs);
        let s2 = hs.stream_create(card, CpuMask::first(1)).expect("s2");
        let naps: Vec<_> = (0..2)
            .map(|_| {
                let b = hs.buffer_create(8, BufProps::default());
                hs.buffer_instantiate(b, card).expect("instantiate nap buf");
                b
            })
            .collect();
        (s0, s1, s2, buf, naps)
    };
    let nap = |hs: &HStreams, s: StreamId, b, ms: u64| {
        let args = Bytes::copy_from_slice(&ms.to_le_bytes());
        hs.enqueue_compute(
            s,
            "nap",
            args,
            &[Operand::new(b, 0..8, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("nap")
    };
    let card = DomainId(1);
    let whole = 0..N * 8;
    let bump = |hs: &HStreams, s: StreamId, buf| {
        hs.enqueue_compute(
            s,
            "bump",
            Bytes::new(),
            &[Operand::f64s(buf, 0, N, Access::InOut)],
            CostHint::trivial(),
        )
        .expect("bump")
    };
    {
        let hs = runtime_napping(false);
        hs.durability(&root).expect("durability on");
        let (s0, s1, s2, buf, naps) = init(&hs);
        // Cycle 1: s0 stages, bumps and returns the data; s1 waits for it,
        // bumps on the card, naps, then returns the data.
        hs.enqueue_xfer(s0, buf, whole.clone(), DomainId::HOST, card)
            .expect("h2d");
        bump(&hs, s0, buf);
        let e0 = hs
            .enqueue_xfer(s0, buf, whole.clone(), card, DomainId::HOST)
            .expect("d2h");
        hs.enqueue_event_wait(s1, &[e0]).expect("wait");
        bump(&hs, s1, buf);
        let n1 = nap(&hs, s1, naps[0], 600);
        hs.enqueue_event_wait(s1, &[n1]).expect("wait nap");
        hs.enqueue_xfer(s1, buf, whole.clone(), card, DomainId::HOST)
            .expect("d2h");
        hs.thread_synchronize().expect("sync 1");
        // Cycle 2, ordered after cycle 1 only by that host wait: s0
        // re-stages the (now +2) host data, after a shorter nap on s2.
        let n0 = nap(&hs, s2, naps[1], 200);
        hs.enqueue_event_wait(s0, &[n0]).expect("wait nap");
        hs.enqueue_xfer(s0, buf, whole.clone(), DomainId::HOST, card)
            .expect("h2d");
        bump(&hs, s0, buf);
        hs.enqueue_xfer(s0, buf, whole.clone(), card, DomainId::HOST)
            .expect("d2h");
        hs.thread_synchronize().expect("sync 2");
        let expect: Vec<f64> = (0..N).map(|i| i as f64 + 3.0).collect();
        assert_eq!(read_result(&hs, buf), expect, "the crashed run itself");
    }
    let hs = runtime_napping(true);
    let (_, _, _, buf, _) = init(&hs);
    let report = hs.recover(&root).expect("recover");
    assert_eq!(report.replayed, report.records, "{report:?}");
    hs.thread_synchronize().expect("post-recover sync");
    let expect: Vec<f64> = (0..N).map(|i| i as f64 + 3.0).collect();
    assert_eq!(
        read_result(&hs, buf),
        expect,
        "every bump survives recovery: replay must honour the host waits"
    );
    let _ = std::fs::remove_dir_all(&root);
}
