//! Where the bytes go: the `heap_bytes()` ledger of one benchmark
//! workload's long-lived structures, at the harness's canonical size
//! (768² triangles or 48³ tets, seed 42), beside the peak resident set of
//! this process after the steps the harness's first rep takes.
//!
//! ```text
//! cargo run --release -p lms-bench --example byte_ledger -- <workload>
//! ```
//!
//! `<workload>` is `tri2d-rdr-serial`, `tri2d-rdr-resident`,
//! `tri2d-ori-dist` or `tet3d-ori-resident`; run one per process, so the
//! peak is that workload's. The rows are the long-lived structures; a
//! resident engine's ledger is split into its blocks, its partition +
//! exchange schedule + interface classes, and its inverse degrees. What
//! the ledger does not reach (construction transients such as the
//! adjacency a resident engine builds its blocks from, the resident
//! ranks' run-time buffers, the allocator, the binary) is the gap to
//! `VmHWM`. A counting global allocator measures the live heap at the
//! engine construction's peak and at the whole process's peak, printed
//! beside `VmHWM`: when the construction's peak is the process's, setup,
//! not the sweep, sets the resident set. For the distributed workload two
//! more lines print the spawner image's resident set — the pages every
//! rank starts with, forked before construction — and the largest rank's
//! peak, that image plus the one block the rank was sent and its run
//! state. Nothing here asserts; the numbers are for reading.

use lms_dist::{DistResidentEngine, FtOptions};
use lms_mesh::generators::perturbed_grid;
use lms_mesh::{vec_bytes, Adjacency, TriMesh};
use lms_mesh3d::generators::perturbed_tet_grid;
use lms_mesh3d::{ResidentEngine3, SmoothParams3, TetMesh};
use lms_order::{compute_ordering_with, random_ordering, OrderingKind};
use lms_part::PartitionMethod;
use lms_smooth::{
    DomainQualityCache, ResidentEngine, ResidentEngineOn, SmoothEngine, SmoothMesh, SmoothParams,
};
use lms_trace::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Live heap bytes at the engine construction's peak, and at this
/// process's peak before the construction.
struct Peaks {
    construction: usize,
    earlier: usize,
}

/// Build the workload's engine, returning it and the live-heap peaks
/// around the build.
fn construct<T>(build: impl FnOnce() -> T) -> (T, Peaks) {
    let earlier = ALLOC.peak();
    ALLOC.reset_peak();
    let engine = build();
    (engine, Peaks { construction: ALLOC.peak(), earlier })
}

const SEED: u64 = 42;
const JITTER: f64 = 0.35;
const PARTS: usize = 4;

/// The harness's smart Gauss–Seidel, `sweeps` fixed sweeps.
fn params(sweeps: usize) -> SmoothParams {
    SmoothParams::paper().with_smart(true).with_tol(-1.0).with_max_iters(sweeps)
}

fn shuffled_input() -> TriMesh {
    let mesh = perturbed_grid(768, 768, JITTER, SEED);
    random_ordering(mesh.num_vertices(), SEED + 1).apply_to_mesh(&mesh)
}

fn rdr_reorder(input: &TriMesh) -> TriMesh {
    let adj = Adjacency::build(input);
    compute_ordering_with(input, &adj, OrderingKind::Rdr).apply_to_mesh(input)
}

/// A `/proc/self/status` field, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field_bytes(&status, field).unwrap_or(0)
}

/// A `kB` field of a `/proc/<pid>/status` text, in bytes.
fn field_bytes(status: &str, field: &str) -> Option<usize> {
    let kb = status.lines().find(|l| l.starts_with(field))?.split_whitespace().nth(1)?;
    Some(kb.parse::<usize>().ok()? * 1024)
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` is the first.
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

/// Largest resident set among the reaped children, in bytes.
fn children_peak_bytes() -> usize {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage { ru_utime: [0; 2], ru_stime: [0; 2], ru_maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // Linux 64-bit ABI defines; getrusage writes only inside it and keeps
    // no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss.max(0) as usize * 1024
    } else {
        0
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A resident engine's `heap_bytes()` as three rows — blocks; partition,
/// schedule and interface classes; inverse degrees — which sum to it.
fn resident_rows<const C: usize, const D: usize, M: SmoothMesh<C, D>>(
    name: &str,
    engine: &ResidentEngineOn<C, D, M>,
) -> Vec<(String, usize)> {
    let blocks = size_of_val(engine.blocks())
        + engine.blocks().iter().map(|b| b.heap_bytes()).sum::<usize>();
    let classes = engine.interface_classes();
    let plan = engine.partition().heap_bytes()
        + engine.exchange_schedule().heap_bytes()
        + size_of_val(classes)
        + classes.iter().map(vec_bytes).sum::<usize>();
    let inv_deg = size_of_val(engine.inv_degrees());
    assert_eq!(blocks + plan + inv_deg, engine.heap_bytes(), "the rows must cover the ledger");
    vec![
        (format!("{name}: blocks"), blocks),
        (format!("{name}: partition + schedule + classes"), plan),
        (format!("{name}: 1/deg per vertex"), inv_deg),
    ]
}

fn print_ledger(workload: &str, rows: &[(String, usize)], peaks: Peaks) {
    println!("{workload}: heap_bytes() ledger at the peak");
    for (name, bytes) in rows {
        println!("  {name:<58} {:>8.1} MiB", mib(*bytes));
    }
    let sum: usize = rows.iter().map(|r| r.1).sum();
    let hwm = status_bytes("VmHWM:");
    println!("  {:<58} {:>8.1} MiB", "sum", mib(sum));
    let process_peak = peaks.earlier.max(ALLOC.peak());
    println!(
        "  {:<58} {:>8.1} MiB",
        "live heap at the construction's peak",
        mib(peaks.construction)
    );
    println!("  {:<58} {:>8.1} MiB", "live heap at this process's peak", mib(process_peak));
    println!("  {:<58} {:>8.1} MiB", "VmHWM of this process", mib(hwm));
    println!(
        "  {:<58} {:>8.1} MiB",
        "not in the ledger (VmHWM - sum)",
        mib(hwm.saturating_sub(sum))
    );
}

fn rdr_serial() {
    let input = shuffled_input();
    let mut mesh = rdr_reorder(&input);
    let (engine, peaks) = construct(|| SmoothEngine::new(&mesh, params(10)));
    // the cache the kernel builds, measured here and dropped before the run
    let cache = DomainQualityCache::build(&engine.domain(), mesh.coords()).heap_bytes();
    engine.smooth(&mut mesh);
    print_ledger(
        "tri2d-rdr-serial",
        &[
            ("input mesh (shuffled)".into(), input.heap_bytes()),
            ("reordered mesh (coordinates + the one triangle table)".into(), mesh.heap_bytes()),
            ("SmoothEngine (adjacency, boundary, visit order)".into(), engine.heap_bytes()),
            ("DomainQualityCache (quality, orientation bit, 1/deg)".into(), cache),
        ],
        peaks,
    );
}

fn rdr_resident() {
    let input = shuffled_input();
    let mut mesh = rdr_reorder(&input);
    let adj = Adjacency::build(&mesh);
    let partition = lms_part::partition_mesh(&mesh, &adj, PARTS, PartitionMethod::Rcb);
    drop(adj);
    let (engine, peaks) = construct(|| ResidentEngine::new(&mesh, params(10), partition));
    engine.smooth(&mut mesh, 1);
    let mut rows = vec![
        ("input mesh (shuffled)".into(), input.heap_bytes()),
        ("reordered mesh (coordinates + the one triangle table)".into(), mesh.heap_bytes()),
    ];
    rows.extend(resident_rows("ResidentEngine", &engine));
    print_ledger("tri2d-rdr-resident", &rows, peaks);
}

fn ori_dist() {
    let input = perturbed_grid(768, 768, JITTER, SEED);
    let mut mesh = input.clone();
    let (engine, peaks) =
        construct(|| DistResidentEngine::by_method(&mesh, params(10), PARTS, PartitionMethod::Rcb));
    let spawner = engine.spawner().expect("the rank spawner forked").pid();
    let spawner_rss = std::fs::read_to_string(format!("/proc/{spawner}/status"))
        .ok()
        .and_then(|text| field_bytes(&text, "VmRSS:"))
        .unwrap_or(0);
    let result = engine.smooth_ft(&mut mesh, &FtOptions::default());
    assert!(result.is_ok(), "distributed run failed: {:?}", result.err());
    let mut rows = vec![
        ("input mesh".into(), input.heap_bytes()),
        ("working copy (its coordinates; the table is shared)".into(), size_of_val(mesh.coords())),
    ];
    rows.extend(resident_rows("DistResidentEngine's ResidentEngine", engine.inner()));
    print_ledger("tri2d-ori-dist (coordinator)", &rows, peaks);
    // the spawner is reaped with the engine, the ranks with the run
    drop(engine);
    let children = children_peak_bytes();
    println!(
        "  {:<58} {:>8.1} MiB",
        "spawner VmRSS (the image ranks are forked from)",
        mib(spawner_rss)
    );
    println!("  {:<58} {:>8.1} MiB", "largest child's ru_maxrss (a rank)", mib(children));
}

fn tet_resident() {
    let input: TetMesh = perturbed_tet_grid(48, 48, 48, JITTER, SEED);
    let mut mesh = input.clone();
    let params = SmoothParams3::paper().with_smart(true).with_tol(-1.0).with_max_iters(5);
    let (engine, peaks) =
        construct(|| ResidentEngine3::by_method(&mesh, params, PARTS, PartitionMethod::Rcb));
    engine.smooth(&mut mesh, 1);
    let mut rows = vec![
        ("input mesh".into(), input.heap_bytes()),
        ("working copy (its coordinates; the table is shared)".into(), size_of_val(mesh.coords())),
    ];
    rows.extend(resident_rows("ResidentEngine3", &engine));
    print_ledger("tet3d-ori-resident", &rows, peaks);
}

fn main() {
    let workload = std::env::args().nth(1).unwrap_or_default();
    match workload.as_str() {
        "tri2d-rdr-serial" => rdr_serial(),
        "tri2d-rdr-resident" => rdr_resident(),
        "tri2d-ori-dist" => ori_dist(),
        "tet3d-ori-resident" => tet_resident(),
        _ => {
            eprintln!(
                "usage: byte_ledger <tri2d-rdr-serial | tri2d-rdr-resident | tri2d-ori-dist | \
                 tet3d-ori-resident>"
            );
            std::process::exit(2);
        }
    }
}
