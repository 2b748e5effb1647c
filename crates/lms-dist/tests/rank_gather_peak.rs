//! A rank's peak is its image, its block and its run state: the gather
//! that loads its coordinates and the checkpoint replies that ship them
//! back stream through cache-sized buffers, so no whole-payload copy of
//! a block's coordinates or scores ever sits beside the rank's own. At
//! 512² such copies would come to several MiB, past the slack. One test
//! in this file, because `RUSAGE_CHILDREN` is process-wide.

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

/// Resident set of process `pid`, in bytes.
fn vm_rss_bytes(pid: i32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("procfs");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<usize>().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn the_largest_rank_peaks_at_its_image_block_and_run_state() {
    let mesh = lms_mesh::generators::perturbed_grid(512, 512, 0.35, 42);
    let params = SmoothParams::paper().with_smart(true).with_max_iters(3).with_tol(-1.0);
    let engine = DistResidentEngine::by_method(&mesh, params, 4, PartitionMethod::Rcb);
    let mut work = mesh.clone();
    let (_, stats) = engine.smooth_ft(&mut work, &FtOptions::default()).expect("forked run");
    assert!(stats.recoveries.is_empty());
    let image = vm_rss_bytes(engine.spawner().expect("spawner").pid());
    let block = engine.inner().blocks().iter().max_by_key(|b| b.heap_bytes()).expect("a block");
    // what a rank holds while it runs: its coordinates (owned then halo),
    // its element scores (a quality and an orientation flag each) and its
    // sparse-checkpoint baseline (the owned coordinates, flat)
    let point = 2 * size_of::<f64>();
    let run_state = (block.owned().len() + block.halo().len()) * point
        + block.elem_globals().len() * (size_of::<f64>() + size_of::<bool>())
        + block.owned().len() * point;
    let block_bytes = block.heap_bytes();
    // the ranks were reaped by the run; the spawner is reaped by the drop
    drop(engine);
    let largest_child = children_peak_bytes();
    let slack = 2 << 20;
    let bound = image + block_bytes + run_state + slack;
    let mib = |b: usize| b as f64 / f64::from(1 << 20);
    assert!(
        largest_child <= bound,
        "largest child peaked at {:.2} MiB, above {:.2} MiB: the spawner image {:.2} + the \
         largest block {:.2} + its run state {:.2} + {:.0} MiB slack",
        mib(largest_child),
        mib(bound),
        mib(image),
        mib(block_bytes),
        mib(run_state),
        mib(slack)
    );
}
