//! An incident archive's section count is untrusted: its CRC trailer is
//! not authentication, so a crafted archive can carry any count with a
//! matching CRC. The reader must bound the count by the bytes left
//! before allocating for it.
//!
//! This is an integration test so it can own the process's global
//! allocator, which records the largest single request it sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use btpub_bench::incident::{self, ArchiveError};
use btpub_stream::checkpoint::{crc32, CheckpointError};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to `System` with the caller's own arguments;
// the recording touches only an atomic and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

#[test]
fn crafted_section_count_is_refused_without_allocating_it() {
    let sections = vec![("meta".to_string(), b"{}".to_vec())];
    let mut raw = incident::encode(&sections);
    assert_eq!(incident::decode(&raw).unwrap(), sections);

    // The count follows the 8-byte magic and the 4-byte version; forge
    // it, then re-sign the body the way an attacker would.
    raw[12..16].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    let body = raw.len() - 4;
    let crc = crc32(&raw[..body]);
    raw[body..].copy_from_slice(&crc.to_le_bytes());

    LARGEST.store(0, Ordering::Relaxed);
    match incident::decode(&raw) {
        Err(ArchiveError::Decode(CheckpointError::Decode { what })) => {
            assert_eq!(what, "section count")
        }
        other => panic!("expected a section-count refusal, got {other:?}"),
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "decode asked for {largest} bytes");
}
