//! Proof of the zero-allocation hot path: a warm fusion query must not
//! touch the global allocator at all, on every entry point that serves
//! fixes — `ArrayTrackServer::try_localize`, `fuse` on a caller-owned
//! `FusionScratch` (what each networked worker and the replay loop run
//! per job), and `execute_fusion` on an all-healthy plan.
//!
//! A counting allocator wraps `System` and tallies every `alloc` /
//! `realloc` / `alloc_zeroed`. Each path is warmed until every arena —
//! the server's and the caller's [`at_core::FusionScratch`], the engine's
//! per-thread [`at_core::LocalizeScratch`], the obs layer's per-site
//! metric handles — has grown to the query shape, then ten more queries
//! must leave the counter exactly where it was. All three paths must also
//! produce the same bits.
//!
//! Kept to a single `#[test]` on purpose: the harness runs tests on
//! multiple threads, and any concurrent test body would alias the global
//! counter with its own allocations.

use at_channel::geometry::{pt, Point};
use at_core::synthesis::{ApPose, LocationEstimate, SearchRegion};
use at_core::{
    execute_fusion, fuse, plan_fusion, AoaSpectrum, ArrayTrackServer, FusedObservation,
    FusionScratch, HealthPolicy, HealthTracker, LocalizationEngine,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Runs `query` ten times after warm-up and asserts none of the runs
/// allocated.
fn assert_warm_queries_do_not_allocate(path: &str, mut query: impl FnMut() -> LocationEstimate) {
    for _ in 0..5 {
        query();
    }
    let before = allocations();
    for _ in 0..10 {
        query();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm {path} touched the allocator {} times over 10 queries",
        after - before
    );
}

fn bits(e: &LocationEstimate) -> [u64; 3] {
    [e.position.x, e.position.y, e.likelihood].map(f64::to_bits)
}

/// A synthetic single-lobe spectrum pointing at `target` from `pose`.
fn lobe_toward(pose: ApPose, target: Point) -> AoaSpectrum {
    let theta = pose.bearing_to(target);
    AoaSpectrum::from_fn(720, |t| {
        (-(at_channel::geometry::angle_diff(t, theta) / 0.08).powi(2)).exp() + 1e-6
    })
}

#[test]
fn warm_localize_paths_do_not_allocate() {
    let target = pt(7.0, 3.0);
    let region = SearchRegion::new(pt(0.0, 0.0), pt(12.0, 8.0));
    let poses: Vec<ApPose> = [
        (pt(0.0, 0.0), 0.3),
        (pt(12.0, 0.0), 2.0),
        (pt(6.0, 8.0), 4.5),
    ]
    .into_iter()
    .map(|(center, axis_angle)| ApPose { center, axis_angle })
    .collect();
    let spectra: Vec<AoaSpectrum> = poses.iter().map(|&p| lobe_toward(p, target)).collect();

    let mut server = ArrayTrackServer::new(region);
    for (i, (pose, spectrum)) in poses.iter().zip(&spectra).enumerate() {
        server.add_observation_from(i, *pose, spectrum.clone(), 0);
    }
    // The first call builds the server's engine; warm-up grows its arenas
    // and per-site metric handles to steady state.
    let reference = server.try_localize().expect("healthy deployment");
    assert_warm_queries_do_not_allocate("try_localize", || {
        let again = server.try_localize().expect("healthy deployment");
        assert_eq!(bits(&reference), bits(&again));
        again
    });

    // One networked job: a deployment engine, a prebuilt observation
    // slice and a worker-owned scratch.
    let engine = LocalizationEngine::new(&poses, region, 720);
    let fused: Vec<FusedObservation<'_>> = spectra
        .iter()
        .enumerate()
        .map(|(ap, spectrum)| FusedObservation {
            pose_idx: ap,
            spectrum,
            ap_id: Some(ap),
            age: 0,
        })
        .collect();
    let health = HealthTracker::new(poses.len());
    let policy = HealthPolicy::default();
    let mut scratch = FusionScratch::new();
    assert_warm_queries_do_not_allocate("fuse", || {
        let fix = fuse(&engine, &fused, &health, &policy, &mut scratch).expect("healthy");
        assert_eq!(bits(&reference), bits(&fix));
        fix
    });

    // The benchmark's split form: an all-healthy plan executed on the
    // engine's per-thread arena.
    let plan = plan_fusion(&fused, engine.bins(), &health, &policy).expect("healthy");
    assert_warm_queries_do_not_allocate("execute_fusion", || {
        let fix = execute_fusion(&engine, &fused, &plan);
        assert_eq!(bits(&reference), bits(&fix));
        fix
    });
}
