//! A segment frame's length field is untrusted: a reader must bound it by
//! the bytes the file has left before allocating the payload.
//!
//! This is an integration test so it can own the process's global
//! allocator, which records the largest single request it sees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

use btpub_stream::spill::{SegmentError, SegmentReader, SegmentWriter};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

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
fn oversized_length_field_is_refused_without_allocating_it() {
    let dir = std::env::temp_dir().join(format!("btpub-segment-len-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut w = SegmentWriter::create(&dir, "t").unwrap();
    w.write_frame(1, b"first").unwrap();
    w.write_frame(2, b"second").unwrap();
    let meta = w.finish().unwrap();
    // The second frame starts after the magic and the first frame; its
    // length field is bytes 4..8 of the 12-byte header.
    let second = 8 + 12 + 5;
    let mut raw = fs::read(&meta.path).unwrap();
    raw[second + 4..second + 8].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    fs::write(&meta.path, &raw).unwrap();

    let mut r = SegmentReader::open(&meta.path).unwrap();
    assert_eq!(r.next_frame().unwrap(), Some((1, b"first".to_vec())));
    LARGEST.store(0, Ordering::Relaxed);
    match r.next_frame() {
        Err(SegmentError::TornFrame { offset, .. }) => assert_eq!(offset, second as u64),
        other => panic!("expected TornFrame, got {other:?}"),
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "reader asked for {largest} bytes");
    fs::remove_dir_all(&dir).unwrap();
}
