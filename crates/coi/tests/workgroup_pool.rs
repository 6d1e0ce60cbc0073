//! Persistent workgroup pool behaviour: workers are spawned once per
//! pipeline and reused for every parallel region (no per-task thread
//! spawns), width-1 pools stay inline, and a panicking task fails its
//! region without poisoning the pool.
//!
//! Spawn guards read the group's own [`Workgroup::spawn_count`]: the
//! process-wide [`worker_spawn_count`] aggregate also counts groups that
//! concurrently running tests create.

use hs_coi::{worker_spawn_count, Workgroup};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn no_spawns_after_warmup() {
    let wg = Workgroup::new(4, "t-warm", None);
    // Warm up: first region lazily spawns the width-1 resident workers.
    wg.par_for(64, |_| {});
    let resident = wg.resident_workers();
    assert_eq!(resident, 3, "width 4 => 3 resident workers + caller lane");
    let spawned = wg.spawn_count();
    assert_eq!(spawned, 3, "warm-up spawned exactly the resident workers");
    assert!(
        worker_spawn_count() >= spawned,
        "the aggregate covers this group"
    );
    // Many further regions of both flavours: the pool must not spawn again.
    for round in 0..200 {
        let hits = AtomicUsize::new(0);
        wg.par_for(17 + round % 5, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 17 + round % 5);
        let mut data = vec![0u32; 40];
        wg.par_chunks_mut(&mut data, 7, |idx, chunk| {
            for x in chunk.iter_mut() {
                *x = idx as u32 + 1;
            }
        });
        assert!(data.iter().all(|&x| x != 0));
    }
    assert_eq!(
        wg.spawn_count(),
        spawned,
        "parallel regions after warmup must reuse resident workers"
    );
    assert_eq!(wg.resident_workers(), resident);
}

#[test]
fn width_one_never_spawns() {
    let wg = Workgroup::new(1, "t-w1", None);
    let hits = AtomicUsize::new(0);
    for _ in 0..50 {
        wg.par_for(13, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 50 * 13);
    assert_eq!(
        wg.resident_workers(),
        0,
        "width 1 runs inline on the caller"
    );
    assert_eq!(
        wg.spawn_count(),
        0,
        "width-1 fast path must not touch the thread pool"
    );
}

#[test]
fn panic_does_not_poison_pool() {
    let wg = Workgroup::new(3, "t-panic", None);
    wg.par_for(8, |_| {}); // warm up
    let spawned = wg.spawn_count();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        wg.par_for(16, |i| {
            if i == 11 {
                panic!("task 11 exploded");
            }
        });
    }));
    assert!(r.is_err(), "the panic must propagate to the submitter");
    // The pool is still usable, with the same resident workers.
    let hits = AtomicUsize::new(0);
    wg.par_for(32, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 32);
    assert_eq!(wg.spawn_count(), spawned, "no respawn after a panic");
}

#[test]
fn pool_reused_across_many_chunked_regions() {
    let wg = Workgroup::new(2, "t-chunks", None);
    let mut data = vec![0.0f64; 1000];
    wg.par_chunks_mut(&mut data, 128, |_, c| c.fill(1.0));
    let spawned = wg.spawn_count();
    for round in 1..100u32 {
        wg.par_chunks_mut(&mut data, 64 + (round as usize % 64), |idx, c| {
            for x in c.iter_mut() {
                *x += (idx + 1) as f64;
            }
        });
    }
    assert_eq!(wg.spawn_count(), spawned);
    assert!(data.iter().all(|&x| x > 1.0));
}

#[test]
fn affinity_is_recorded() {
    let mask: u128 = 0b1011;
    let wg = Workgroup::new(3, "t-aff", Some(mask));
    assert_eq!(wg.affinity(), Some(mask));
    assert_eq!(wg.width(), 3);
}
