//! Concurrency equivalence for the shared worker pool: many host threads
//! launching into one `DeviceMemory` at once must each observe exactly the
//! stats a serial launch produces. The pool moves *where* SM tasks execute,
//! never *what* they compute — these tests pin that down under real
//! contention (all launches' tasks interleave in one task queue set), and
//! pin what a task that spawns into its own scope may rely on.

use g80::isa::builder::KernelBuilder;
use g80::isa::Value;
use g80::sim::pool;
use g80::sim::{launch, launch_batch, DeviceMemory, GpuConfig, LaunchDims, LaunchSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Mutex;
use std::time::Duration;

/// Streaming kernel: out[i] = i * 3 for the global thread index i — every
/// launch writes the same values, so concurrent launches are idempotent.
fn streaming_kernel() -> g80::isa::Kernel {
    let mut b = KernelBuilder::new("stream3");
    let p = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let v = b.imul(i, 3u32);
    let byte = b.shl(i, 2u32);
    let a = b.iadd(byte, p);
    b.st_global(a, 0, v);
    b.build()
}

#[test]
fn eight_host_threads_match_the_serial_run() {
    let cfg = GpuConfig::geforce_8800_gtx();
    let k = streaming_kernel();
    let dims = LaunchDims {
        grid: (8, 1),
        block: (128, 1, 1),
    };
    let params = [Value::from_u32(0)];
    let mem = DeviceMemory::new(8 * 128 * 4);

    let serial = launch(&cfg, &k, dims, &params, &mem).unwrap();

    let all: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| launch(&cfg, &k, dims, &params, &mem).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for stats in &all {
        assert_eq!(stats.cycles, serial.cycles);
        assert_eq!(stats.warp_instructions, serial.warp_instructions);
        assert_eq!(stats.stall_cycles, serial.stall_cycles);
        assert_eq!(stats.global_bytes, serial.global_bytes);
        assert_eq!(stats.blocks_executed, serial.blocks_executed);
    }
    for i in 0..8 * 128u32 {
        assert_eq!(mem.read(i * 4).as_u32(), i * 3);
    }
}

#[test]
fn concurrent_batches_from_many_threads_stay_deterministic() {
    let cfg = GpuConfig::geforce_8800_gtx();
    let k = streaming_kernel();
    let params = [Value::from_u32(0)];
    // Four grid sizes → four distinct expected stats, launched from four
    // threads as batches, repeatedly, all sharing one memory.
    let grids = [1u32, 2, 4, 8];
    let mem = DeviceMemory::new(8 * 128 * 4);
    let dims = |g: u32| LaunchDims {
        grid: (g, 1),
        block: (128, 1, 1),
    };
    let serial: Vec<_> = grids
        .iter()
        .map(|&g| launch(&cfg, &k, dims(g), &params, &mem).unwrap())
        .collect();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let specs: Vec<LaunchSpec> = grids
                    .iter()
                    .map(|&g| LaunchSpec {
                        kernel: &k,
                        dims: dims(g),
                        params: &params,
                        mem: &mem,
                    })
                    .collect();
                for (want, got) in serial.iter().zip(launch_batch(&cfg, &specs)) {
                    let got = got.unwrap();
                    assert_eq!(got.cycles, want.cycles);
                    assert_eq!(got.warp_instructions, want.warp_instructions);
                    assert_eq!(got.blocks_executed, want.blocks_executed);
                }
            });
        }
    });
}

/// Polls `flag` until it is set: how these tests order two tasks on
/// different threads.
fn wait_for(flag: &AtomicBool) {
    while !flag.load(SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Two tasks, at least one of them on a worker: the first to start off
/// the owner's thread waits until the owner has no task left to run (the
/// owner finished the other one, or a second worker took it), then spawns
/// one more. The scope must not return before the spawned task has run.
#[test]
fn a_task_spawned_after_the_owner_drained_still_runs() {
    let owner = std::thread::current().id();
    let (on_worker, owner_free, spawned_ran) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );
    pool::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                if std::thread::current().id() == owner {
                    // Holds the owner until a worker has taken the other task.
                    wait_for(&on_worker);
                    owner_free.store(true, SeqCst);
                } else if on_worker.swap(true, SeqCst) {
                    // Both tasks went to workers: the owner's queue is empty.
                    owner_free.store(true, SeqCst);
                } else {
                    wait_for(&owner_free);
                    // Give the owner time to start waiting.
                    std::thread::sleep(Duration::from_millis(20));
                    s.spawn(|| spawned_ran.store(true, SeqCst));
                }
            });
        }
    });
    assert!(
        spawned_ran.load(SeqCst),
        "the scope returned before its spawned task ran"
    );
}

/// A spawned task can open a scope of its own, whose tasks spawn in turn.
#[test]
fn a_spawned_task_opens_a_nested_scope() {
    let total = AtomicU64::new(0);
    pool::scope(|s| {
        for i in 0..4u64 {
            let total = &total;
            s.spawn(move || {
                s.spawn(move || {
                    pool::scope(|inner| {
                        for j in 0..8u64 {
                            inner.spawn(move || {
                                inner.spawn(move || {
                                    total.fetch_add(i * 8 + j, SeqCst);
                                });
                            });
                        }
                    });
                });
            });
        }
    });
    assert_eq!(total.load(SeqCst), (0..32).sum());
}

/// A spawned task's panic leaves every other task, spawned or not, to run
/// to completion, and reaches the owner only after the scope has drained.
#[test]
fn a_spawned_tasks_panic_stays_in_its_own_slot() {
    let slots: Vec<Mutex<Option<u64>>> = (0..16).map(|_| Mutex::new(None)).collect();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        pool::scope(|s| {
            for i in 0..8 {
                let slots = &slots;
                s.spawn(move || {
                    for child in [2 * i, 2 * i + 1] {
                        s.spawn(move || {
                            if child == 5 {
                                panic!("child {child} panicked");
                            }
                            *slots[child].lock().unwrap() = Some(child as u64 * 3);
                        });
                    }
                });
            }
        });
    }));
    let payload = unwound.expect_err("the spawned panic must reach the owner");
    assert_eq!(
        payload.downcast_ref::<String>().unwrap(),
        "child 5 panicked"
    );
    for (child, slot) in slots.iter().enumerate() {
        let want = (child != 5).then_some(child as u64 * 3);
        assert_eq!(*slot.lock().unwrap(), want, "slot {child}");
    }
}
