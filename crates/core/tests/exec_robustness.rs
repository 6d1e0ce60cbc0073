//! Regression tests for executor error paths and shutdown behaviour.
//!
//! Pre-fix, the thread executor (a) hung in `Drop` when dispatch callbacks
//! still held DMA channel senders, (b) panicked on whichever thread ran a
//! dispatch callback for a malformed spec (bad stream index, real transfer
//! without a card) or for a transfer dispatched after shutdown, (c) paced
//! every card with the *first* card's link, and (d) stamped its elapsed-time
//! baseline at construction instead of at first submit. Each test here fails
//! against that code.

use bytes::Bytes;
use hs_coi::CoiEvent;
use hs_fabric::NodeId;
use hs_machine::{Device, PlatformCfg};
use hs_obs::ObsAction;
use hstreams_core::exec::sim::SimExec;
use hstreams_core::exec::thread::ThreadExec;
use hstreams_core::exec::{
    ActionSpec, BackendEvent, BatchDep, BatchSubmitItem, RealXfer, SubmitOpts,
};
use hstreams_core::{CostHint, CpuMask};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `f` on its own thread and panic if it does not finish in `secs` —
/// catches the pre-fix shutdown hang without wedging the whole suite.
fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let h = std::thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !h.is_finished() {
        assert!(
            Instant::now() < deadline,
            "timed out after {secs}s: executor shutdown hang regression"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    h.join().expect("test body panicked");
}

fn thread_exec(cards: usize) -> ThreadExec {
    let ex = ThreadExec::new(&PlatformCfg::hetero(Device::Hsw, cards), false);
    ex.add_stream(0, CpuMask::first(1));
    ex.add_stream(1, CpuMask::first(1));
    ex
}

/// Submit one action through the executor's only entry point, a batch of
/// one, with default options and no lifecycle tracing.
fn submit(ex: &ThreadExec, spec: ActionSpec, deps: &[&CoiEvent]) -> CoiEvent {
    let item = BatchSubmitItem {
        spec,
        deps: deps
            .iter()
            .map(|d| BatchDep::External(BackendEvent::Thread((*d).clone())))
            .collect(),
        obs: ObsAction::disabled(),
        opts: SubmitOpts::default(),
    };
    let done = ex.submit_batch(std::iter::once(item).collect(), None);
    let done = done.into_iter().next().expect("one event per item");
    done.as_thread().clone()
}

fn compute_spec(stream_idx: usize, func: &str) -> ActionSpec {
    ActionSpec::Compute {
        stream_idx,
        device: Device::Hsw,
        cores: 1,
        func: func.to_string(),
        args: Bytes::new(),
        bufs: Vec::new(),
        cost: CostHint::trivial(),
        label: format!("{func}@test"),
    }
}

#[test]
fn drop_with_pending_actions_completes_instead_of_hanging() {
    with_timeout(10, || {
        let ex = thread_exec(1);
        ex.coi().register(
            "slow",
            Arc::new(|_ctx: &mut hstreams_core::TaskCtx| {
                std::thread::sleep(Duration::from_millis(200));
            }),
        );
        let fabric = ex.coi().fabric().clone();
        let src = fabric.register(NodeId(0), 64);
        let dst = fabric.register(NodeId(1), 64);
        let compute = submit(&ex, compute_spec(1, "slow"), &[]);
        // The transfer's dispatch callback holds DMA sender clones while the
        // compute runs — exactly the state that wedged the old shutdown.
        let xfer = submit(
            &ex,
            ActionSpec::Transfer {
                card_domain: Some(1),
                h2d: true,
                bytes: 64,
                real: Some(RealXfer {
                    src: (src, 0),
                    dst: (dst, 0),
                }),
                label: "xfer:test".into(),
            },
            &[&compute],
        );
        drop(ex); // must drain both actions, then join workers
        assert!(compute.wait().is_ok(), "compute should finish during drain");
        assert!(xfer.wait().is_ok(), "transfer should finish during drain");
    });
}

#[test]
fn late_dispatch_after_drop_fails_the_action_instead_of_panicking() {
    with_timeout(20, || {
        let ex = thread_exec(1);
        let fabric = ex.coi().fabric().clone();
        let src = fabric.register(NodeId(0), 64);
        let dst = fabric.register(NodeId(1), 64);
        // A dependence only this test can resolve: the transfer stays
        // pending through the drain budget and dispatches after teardown.
        let gate = CoiEvent::new();
        let xfer = submit(
            &ex,
            ActionSpec::Transfer {
                card_domain: Some(1),
                h2d: true,
                bytes: 64,
                real: Some(RealXfer {
                    src: (src, 0),
                    dst: (dst, 0),
                }),
                label: "xfer:late".into(),
            },
            &[&gate],
        );
        drop(ex); // drain budget expires; DMA channels close
        gate.signal(); // dispatch now runs into a closed channel
        let err = xfer.wait().expect_err("late dispatch must fail the event");
        assert!(
            err.to_string().contains("shut down"),
            "unexpected error: {err}"
        );
    });
}

#[test]
fn malformed_compute_fails_fast_path_without_panicking() {
    let ex = thread_exec(1);
    let ev = submit(&ex, compute_spec(99, "nosuch"), &[]);
    let err = ev.wait().expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute"),
        "unexpected error: {err}"
    );
}

#[test]
fn malformed_compute_fails_via_pending_dependence_path() {
    let ex = thread_exec(1);
    let gate = CoiEvent::new();
    let ev = submit(&ex, compute_spec(99, "nosuch"), &[&gate]);
    assert!(!ev.is_complete());
    gate.signal(); // dispatch runs on this thread via the countdown callback
    let err = ev.wait().expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute"),
        "unexpected error: {err}"
    );
}

#[test]
fn real_transfer_without_card_domain_fails_not_panics() {
    let ex = thread_exec(1);
    let fabric = ex.coi().fabric().clone();
    let src = fabric.register(NodeId(0), 64);
    let dst = fabric.register(NodeId(1), 64);
    let ev = submit(
        &ex,
        ActionSpec::Transfer {
            card_domain: None, // malformed: a real transfer must name a card
            h2d: true,
            bytes: 64,
            real: Some(RealXfer {
                src: (src, 0),
                dst: (dst, 0),
            }),
            label: "xfer:nocard".into(),
        },
        &[],
    );
    let err = ev.wait().expect_err("transfer without a card must fail");
    assert!(
        err.to_string().contains("without a card domain"),
        "unexpected error: {err}"
    );
}

#[test]
fn transfer_to_out_of_range_card_fails_not_panics() {
    let ex = thread_exec(1);
    let fabric = ex.coi().fabric().clone();
    let src = fabric.register(NodeId(0), 64);
    let dst = fabric.register(NodeId(1), 64);
    let ev = submit(
        &ex,
        ActionSpec::Transfer {
            card_domain: Some(5), // only 1 card exists
            h2d: true,
            bytes: 64,
            real: Some(RealXfer {
                src: (src, 0),
                dst: (dst, 0),
            }),
            label: "xfer:oob".into(),
        },
        &[],
    );
    let err = ev.wait().expect_err("out-of-range card must fail");
    assert!(
        err.to_string().contains("out of range"),
        "unexpected error: {err}"
    );
}

#[test]
fn each_card_paces_to_its_own_link() {
    // A PCIe card (6.5 GB/s) plus a fabric-attached remote node (3 GB/s):
    // their pacers must differ. Pre-fix, every card got card 1's link.
    let platform = PlatformCfg::hetero(Device::Hsw, 1).with_remote_node(Device::Hsw);
    let ex = ThreadExec::new(&platform, true);
    let fabric = ex.coi().fabric();
    let mb = 1 << 20;
    let t1 = fabric.engine(NodeId(1), true).pacer().target(mb, true);
    let t2 = fabric.engine(NodeId(2), true).pacer().target(mb, true);
    assert!(
        t2 > t1,
        "remote node must pace slower than the PCIe card: {t1:?} vs {t2:?}"
    );
}

#[test]
fn elapsed_baseline_is_first_submit_not_construction() {
    let ex = thread_exec(1);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        ex.elapsed_secs(),
        0.0,
        "no submit yet: elapsed must be exactly zero"
    );
    let ev = submit(&ex, ActionSpec::Noop, &[]);
    ev.wait().expect("noop completes");
    let elapsed = ex.elapsed_secs();
    assert!(
        elapsed < 0.05,
        "baseline must be the first submit, not new(): {elapsed}s"
    );
}

#[test]
fn sim_malformed_compute_fails_wait() {
    let mut ex = SimExec::new(&PlatformCfg::hetero(Device::Knc, 1));
    ex.add_stream(1, 4);
    let tok = ex.submit(
        compute_spec(7, "ghost"),
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ex.wait(tok).expect_err("bad stream index must fail");
    assert!(
        err.to_string().contains("malformed compute"),
        "unexpected error: {err}"
    );
    assert!(ex.is_complete(tok), "poisoned token still completes");
}

#[test]
fn sim_transfer_to_out_of_range_card_fails_wait() {
    let mut ex = SimExec::new(&PlatformCfg::hetero(Device::Knc, 1));
    ex.add_stream(1, 4);
    let tok = ex.submit(
        ActionSpec::Transfer {
            card_domain: Some(9),
            h2d: true,
            bytes: 1024,
            real: None,
            label: "xfer:oob".into(),
        },
        &[],
        ObsAction::disabled(),
        SubmitOpts::default(),
    );
    let err = ex.wait(tok).expect_err("out-of-range card must fail");
    assert!(
        err.to_string().contains("out of range"),
        "unexpected error: {err}"
    );
}
