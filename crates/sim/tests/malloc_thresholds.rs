//! Starting the simulation pool fixes glibc's mmap threshold: a large block
//! freed afterwards no longer raises it, so the next block above it is
//! still mapped on its own (and unmapped when freed) instead of settling in
//! the allocating thread's arena. Its own test binary, with one test, so no
//! other thread allocates between the two readings.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

/// glibc's `struct mallinfo2`; only `hblks` is read.
#[repr(C)]
#[allow(dead_code)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Blocks the allocator currently holds as their own mappings.
fn mapped_blocks() -> usize {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct.
    unsafe { mallinfo2() }.hblks
}

#[test]
fn a_freed_large_block_leaves_the_mmap_threshold_fixed() {
    assert!(g80_sim::pool::worker_count() >= 1);
    // Left dynamic, freeing this mapped block would raise the threshold
    // to 8 MiB.
    drop(std::hint::black_box(vec![1u8; 8 << 20]));
    let before = mapped_blocks();
    let block = std::hint::black_box(vec![1u8; 512 << 10]);
    assert_eq!(mapped_blocks(), before + 1, "a 512 KiB block is mapped");
    drop(block);
    assert_eq!(mapped_blocks(), before);
}
