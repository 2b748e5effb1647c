//! A rank holds one block: it is forked from the spawner the engine
//! forked before construction, and receives its block over its channel,
//! so its peak resident set is the pre-construction image plus one block
//! and its run state — not the coordinator's whole resident set. One
//! test in this file, because `RUSAGE_CHILDREN` is process-wide.

use lms_dist::{DistResidentEngine, FtOptions};
use lms_part::PartitionMethod;
use lms_smooth::SmoothParams;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, `ru_maxrss` (KiB) first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set among this process's reaped children (and
/// theirs), in bytes.
fn children_peak_bytes() -> usize {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage { ru_utime: [0; 2], ru_stime: [0; 2], ru_maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // Linux 64-bit ABI defines; getrusage writes only inside it and keeps
    // no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.ru_maxrss.max(0) as usize * 1024
}

/// This process's resident set, in bytes.
fn vm_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<usize>().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn the_largest_rank_stays_below_half_of_what_construction_added() {
    let mesh = lms_mesh::generators::perturbed_grid(256, 256, 0.35, 42);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let before = vm_rss_bytes();
    let engine = DistResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let after = vm_rss_bytes();
    let mut work = mesh.clone();
    let (_, stats) = engine.smooth_ft(&mut work, &FtOptions::default()).expect("forked run");
    assert!(stats.recoveries.is_empty());
    // the ranks were reaped by the run; the spawner is reaped by the drop
    drop(engine);
    let largest_child = children_peak_bytes();
    let bound = before + after.saturating_sub(before) / 2;
    let mib = |b: usize| b as f64 / f64::from(1 << 20);
    assert!(
        largest_child < bound,
        "largest child peaked at {:.1} MiB; the coordinator had {:.1} MiB resident before \
         construction and {:.1} MiB after, so the bound is {:.1} MiB",
        mib(largest_child),
        mib(before),
        mib(after),
        mib(bound)
    );
}
