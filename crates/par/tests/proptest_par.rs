//! Property tests for the ordered map: any worker count, any input
//! length and any per-item cost give the serial map's output, in order,
//! with the task count the chunking promises.

use std::panic::{catch_unwind, AssertUnwindSafe};

use btpub_par::{Jobs, Pool};
use proptest::prelude::*;
use proptest::sample::Index;

/// Chunks per worker the pool promises (`min(n, workers × 8)` tasks).
const CHUNKS_PER_WORKER: usize = 8;

/// The serial map every pool must reproduce.
fn item(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xb7
}

/// Burns `weight` units of work, so items finish out of order.
fn spin(weight: u32) {
    let mut x = 0u64;
    for k in 0..u64::from(weight) * 500 {
        x = std::hint::black_box(x.wrapping_add(k));
    }
}

proptest! {
    #[test]
    fn map_matches_serial_under_skew(
        n in 0usize..300,
        jobs in 1usize..=6,
        skew in proptest::collection::vec(0u32..16, 300),
    ) {
        let pool = Pool::new("test.prop.map", Jobs::new(jobs));
        let tasks = btpub_obs::global().counter("par.test.prop.map.tasks");
        let before = tasks.value();
        let out = pool.par_map_indexed(n, |i| {
            // Cubed, so a few items cost far more than the rest.
            spin(skew[i].pow(3) / 16);
            item(i)
        });
        prop_assert_eq!(out, (0..n).map(item).collect::<Vec<_>>());
        let workers = jobs.min(n);
        let expect = match workers {
            0 => 0,
            1 => 1,
            w => n.min(w * CHUNKS_PER_WORKER),
        };
        prop_assert_eq!(tasks.value() - before, expect as u64, "n={} jobs={}", n, jobs);
    }

    #[test]
    fn panic_resumes_on_caller_with_its_payload(
        n in 1usize..300,
        jobs in 1usize..=6,
        at in any::<Index>(),
    ) {
        let bad = at.index(n);
        let pool = Pool::new("test.prop.panic", Jobs::new(jobs));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(n, |i| {
                if i == bad {
                    std::panic::panic_any(bad);
                }
                item(i)
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        prop_assert_eq!(payload.downcast_ref::<usize>(), Some(&bad));
    }

    #[test]
    fn nested_regions_match_serial(outer in 0usize..24, inner in 0usize..24) {
        let pool = Pool::new("test.prop.outer", Jobs::new(3));
        let out = pool.par_map_indexed(outer, |i| {
            Pool::new("test.prop.inner", Jobs::new(2))
                .par_map_indexed(inner, |j| item(i * 1000 + j))
        });
        let serial: Vec<Vec<u64>> = (0..outer)
            .map(|i| (0..inner).map(|j| item(i * 1000 + j)).collect())
            .collect();
        prop_assert_eq!(out, serial);
    }
}
