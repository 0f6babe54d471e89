//! Directory enumeration is linear in the directory's size.
//!
//! Explorer-style enumeration issues ⌈n/batch⌉ + 1 `QueryDirectory`
//! requests on an n-entry directory (§8's control traffic). Each request
//! reads the directory's live entry count; if one copied the children to
//! count them, a full enumeration would cost O(n²). A counting global
//! allocator checks that enumerating 5,000 entries allocates nothing.
//!
//! The count is per thread: the test harness runs other tests on other
//! threads at the same time, and their allocations are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nt_fs::{NtPath, VolumeConfig};
use nt_io::{
    AccessMode, CreateOptions, DiskParams, Disposition, Machine, MachineConfig, NtStatus,
    NullObserver, ProcessId,
};
use nt_sim::SimTime;

thread_local! {
    // `const`-initialised and without a destructor: the slot itself never
    // allocates, so the allocator may touch it from any allocation.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The system allocator, counting each allocation on its thread.
struct CountingAlloc;

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets `GlobalAlloc`'s contract; the count touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn full_enumeration_allocates_nothing() {
    const ENTRIES: usize = 5_000;
    const BATCH: usize = 10;
    let at = SimTime::from_secs(1);
    let mut m = Machine::new(MachineConfig::default(), NullObserver);
    let vol = m.add_local_volume(
        'C',
        VolumeConfig::local_ntfs(1 << 30),
        DiskParams::local_ide(),
    );
    {
        let v = m.namespace_mut().volume_mut(vol).unwrap();
        let dir = v.mkdir(v.root(), "big", at).unwrap();
        for i in 0..ENTRIES {
            v.create_file(dir, &format!("f{i:05}"), at).unwrap();
        }
    }
    let options = CreateOptions {
        directory: true,
        ..CreateOptions::default()
    };
    let (reply, h) = m.create(
        ProcessId(7),
        vol,
        &NtPath::parse(r"\big"),
        AccessMode::Control,
        Disposition::Open,
        options,
        at,
    );
    assert_eq!(reply.status, NtStatus::Success);
    let h = h.expect("directory opens");

    // Room for every reply, and one more call should the terminator be
    // late, reserved before the count starts.
    let max_calls = ENTRIES / BATCH + 2;
    let mut replies = Vec::with_capacity(max_calls);
    let before = allocations();
    for _ in 0..max_calls {
        let r = m.query_directory(h, BATCH, at);
        replies.push((r.status, r.transferred));
        if r.status != NtStatus::Success {
            break;
        }
    }
    let allocated = allocations() - before;

    assert_eq!(
        replies.len(),
        ENTRIES / BATCH + 1,
        "500 batches, then the terminator"
    );
    assert!(replies[..ENTRIES / BATCH]
        .iter()
        .all(|&r| r == (NtStatus::Success, BATCH as u64)));
    assert_eq!(replies[ENTRIES / BATCH], (NtStatus::NoMoreFiles, 0));
    assert_eq!(allocated, 0, "heap allocations during the enumeration");
}
