//! Freed pieces stay mapped (`membudget::keep_freed_pieces_mapped`):
//! once a pool exists, allocating and freeing a batch's worth of
//! cache-sized buffers over and over takes page faults the first time
//! round only. Under glibc's default thresholds every round after the
//! first trims the heap top and faults all of it in again.
//!
//! One test in the file: the fault counter is the whole process's.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use mozart_core::membudget::keep_freed_pieces_mapped;
use mozart_core::PoolHandle;

/// Minor faults of this process so far (`/proc/self/stat`, field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let field = after_comm.split_whitespace().nth(7).expect("minflt field");
    field.parse().expect("minflt is a number")
}

/// Three 2 MiB buffers alive at once, every page written, all freed.
fn one_batch() {
    const PIECE: usize = 2 << 20;
    let pieces: Vec<Vec<u8>> = (0..3)
        .map(|i| {
            let mut piece = vec![0u8; PIECE];
            piece.iter_mut().step_by(4096).for_each(|b| *b = i);
            piece
        })
        .collect();
    std::hint::black_box(&pieces);
}

#[test]
fn batches_after_the_first_take_no_page_faults() {
    let _pool = PoolHandle::new(1);
    // The thresholds are glibc's `malloc`'s. A build whose allocator
    // replaces it (AddressSanitizer's) refuses them and keeps its own
    // policy for freed memory, so there is nothing here to measure.
    if !keep_freed_pieces_mapped() {
        return;
    }
    // The first rounds grow the heap (and, had nothing pinned the
    // thresholds, teach glibc the piece size).
    one_batch();
    one_batch();
    let before = minor_faults();
    for _ in 0..10 {
        one_batch();
    }
    let faults = minor_faults() - before;
    // 10 rounds x 3 pieces x 512 pages = 15 360 when the top is trimmed
    // every round; the slack is for the harness's own threads.
    assert!(
        faults < 512,
        "{faults} page faults re-allocating freed pieces"
    );
}
