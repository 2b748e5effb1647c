//! `lms-tool` — the downstream-user CLI: generate, inspect, reorder,
//! improve and render meshes without writing any Rust.
//!
//! ```text
//! USAGE: lms-tool <command> [options]
//!
//! commands:
//!   generate <suite-name|grid> [--scale f] [--nx n --ny n --jitter f --seed n]
//!            --out <prefix>           write Triangle .node/.ele (or .off)
//!   info     <prefix|file.off>        mesh statistics
//!   order    <prefix|file.off> --ordering <name> --out <prefix>
//!   improve  <prefix|file.off> [--ordering <name>] [--tangle n] --out <prefix>
//!   render   <prefix|file.off> --out <file.svg>
//!   generate3 <cube|slab|beam|grid> [--scale f] [--nx --ny --nz --jitter --seed]
//!            --out <prefix>           write TetGen .node/.ele (3D)
//!   info3    <prefix>                 tetrahedral mesh statistics
//!   order3   <prefix> --ordering <name> --out <prefix>
//!   render3  <prefix> --out <file.svg>   render the boundary surface
//!   trace-smoke <out.json> [--nx --ny --jitter --seed]
//!            profiled resident run, export + validate a chrome trace
//!   trace-validate <file.json>           check well-formedness + B/E balance
//!   bench-smoke [baseline.json] [--nx n --iters n]
//!            CI perf gate: measure the resident sweep kernel's
//!            batched-vs-scalar speedup (ratio-based, so host speed
//!            cancels) and fail if it regresses >25% below the
//!            checked-in baseline (default ci/bench_baseline.json)
//!   dist-worker --connect <tcp:host:port|unix:/path> --rank <r>
//!            [--nx --ny --jitter --seed --parts k --method m --plain
//!             --iters n --tol f]
//!            serve one standalone smoothing rank: rebuild the mesh and
//!            parameters from the shared workload flags (MPI input-deck
//!            style), dial the coordinator with supervised retry/backoff,
//!            receive this rank's block in a Block frame and serve wire
//!            frames until Shutdown — the multi-node deployment shape of
//!            `lms-dist`'s socket transport. --parts only bounds --rank
//!            and --method is not read: the coordinator's partition
//!            arrives with the block
//!
//! mesh files: a `prefix` reads/writes Triangle `<prefix>.node` +
//! `<prefix>.ele`; a path ending in `.off` reads/writes OFF.
//! orderings (2D and 3D): ori random bfs bfsrev dfs rcm sloan hilbert
//! morton rcb spectral qsort degsort rdr
//! ```

#![forbid(unsafe_code)]

use lms_apps::{tangle_vertices, Backend, Pipeline};
use lms_mesh::quality::{mesh_quality, vertex_qualities, QualityMetric};
use lms_mesh::{generators, io, suite, Adjacency, Boundary, TriMesh};
use lms_mesh3d::generators as gen3;
use lms_mesh3d::{io as io3, Adjacency3, Boundary3, TetMesh, TetQualityMetric};
use lms_order::{compute_ordering, layout_stats, OrderMesh, OrderingKind};
use lms_smooth::SmoothMesh;
use lms_viz::{render_mesh, render_tet_surface, Mesh3Style, MeshStyle};
use std::path::Path;
use std::process::ExitCode;

struct Opts {
    positional: Vec<String>,
    scale: f64,
    nx: usize,
    ny: usize,
    jitter: f64,
    seed: u64,
    ordering: OrderingKind,
    nz: usize,
    tangle: Option<usize>,
    out: Option<String>,
    connect: Option<String>,
    rank: Option<u32>,
    parts: usize,
    method: lms_part::PartitionMethod,
    plain: bool,
    iters: usize,
    tol: f64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        scale: 0.02,
        nx: 50,
        ny: 50,
        jitter: 0.35,
        seed: 1,
        ordering: OrderingKind::Rdr,
        nz: 12,
        tangle: None,
        out: None,
        connect: None,
        rank: None,
        parts: 4,
        method: lms_part::PartitionMethod::Rcb,
        plain: false,
        iters: 4,
        tol: -1.0,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => {
                o.scale = val("--scale")?.parse().map_err(|e| format!("bad --scale: {e}"))?
            }
            "--nx" => o.nx = val("--nx")?.parse().map_err(|e| format!("bad --nx: {e}"))?,
            "--ny" => o.ny = val("--ny")?.parse().map_err(|e| format!("bad --ny: {e}"))?,
            "--jitter" => {
                o.jitter = val("--jitter")?.parse().map_err(|e| format!("bad --jitter: {e}"))?
            }
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--tangle" => {
                o.tangle = Some(val("--tangle")?.parse().map_err(|e| format!("bad --tangle: {e}"))?)
            }
            "--nz" => o.nz = val("--nz")?.parse().map_err(|e| format!("bad --nz: {e}"))?,
            "--ordering" => {
                let name = val("--ordering")?;
                o.ordering = OrderingKind::parse(name)
                    .ok_or_else(|| format!("unknown ordering {name:?}"))?;
            }
            "--out" => o.out = Some(val("--out")?.clone()),
            "--connect" => o.connect = Some(val("--connect")?.clone()),
            "--rank" => {
                o.rank = Some(val("--rank")?.parse().map_err(|e| format!("bad --rank: {e}"))?)
            }
            "--parts" => {
                o.parts = val("--parts")?.parse().map_err(|e| format!("bad --parts: {e}"))?
            }
            "--method" => {
                let name = val("--method")?;
                o.method = lms_part::PartitionMethod::parse(name)
                    .ok_or_else(|| format!("unknown partition method {name:?}"))?;
            }
            "--plain" => o.plain = true,
            "--iters" => {
                o.iters = val("--iters")?.parse().map_err(|e| format!("bad --iters: {e}"))?
            }
            "--tol" => o.tol = val("--tol")?.parse().map_err(|e| format!("bad --tol: {e}"))?,
            other if !other.starts_with('-') => o.positional.push(other.to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn load(path: &str) -> Result<TriMesh, String> {
    if path.ends_with(".off") {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        io::read_off(file).map_err(|e| format!("{path}: {e}"))
    } else {
        io::load_triangle(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn save(mesh: &TriMesh, path: &str) -> Result<(), String> {
    if path.ends_with(".off") {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        io::write_off(mesh, file).map_err(|e| format!("{path}: {e}"))
    } else {
        io::save_triangle(mesh, path).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_generate(o: &Opts) -> Result<String, String> {
    let which = o.positional.first().ok_or("generate needs a mesh name or `grid`")?;
    let mesh = if which == "grid" {
        generators::perturbed_grid(o.nx, o.ny, o.jitter, o.seed)
    } else {
        let spec = suite::find_spec(which).ok_or_else(|| {
            format!(
                "unknown suite mesh {which:?}; names: {}",
                suite::SUITE.iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
            )
        })?;
        suite::generate(spec, o.scale)
    };
    let out = o.out.as_deref().ok_or("generate needs --out")?;
    save(&mesh, out)?;
    Ok(format!(
        "wrote {} ({} vertices, {} triangles)",
        out,
        mesh.num_vertices(),
        mesh.num_triangles()
    ))
}

fn cmd_info(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("info needs a mesh path")?;
    let mesh = load(path)?;
    let adj = Adjacency::build(&mesh);
    let boundary = Boundary::detect(&mesh);
    let metric = QualityMetric::EdgeLengthRatio;
    let vq = vertex_qualities(&mesh, &adj, metric);
    let worst = vq.iter().copied().fold(f64::INFINITY, f64::min);
    let stats = layout_stats(&mesh, &adj);
    let mut out = String::new();
    out.push_str(&format!("mesh:        {path}\n"));
    out.push_str(&format!("vertices:    {}\n", mesh.num_vertices()));
    out.push_str(&format!("triangles:   {}\n", mesh.num_triangles()));
    out.push_str(&format!(
        "boundary:    {} vertices ({} interior)\n",
        boundary.num_boundary(),
        boundary.num_interior()
    ));
    out.push_str(&format!("euler:       {}\n", mesh.euler_characteristic()));
    out.push_str(&format!(
        "degree:      mean {:.2}, max {}\n",
        adj.mean_degree(),
        adj.max_degree()
    ));
    out.push_str(&format!(
        "quality:     mean {:.4}, worst vertex {:.4} ({})\n",
        mesh_quality(&mesh, &adj, metric),
        worst,
        metric.name()
    ));
    out.push_str(&format!(
        "layout:      mean neighbour span {:.1}, bandwidth {}\n",
        stats.mean_span, stats.bandwidth
    ));
    Ok(out)
}

/// `mesh` renumbered by `--ordering`, with a report of the mean
/// neighbour span before and after — `order` and `order3` alike.
fn reorder<const D: usize, M: OrderMesh<D>>(mesh: &M, o: &Opts) -> (M, String) {
    let span = |m: &M| layout_stats(m, &m.build_adjacency()).mean_span;
    let reordered = compute_ordering(mesh, o.ordering).apply_to_mesh(mesh);
    let (before, after) = (span(mesh), span(&reordered));
    (
        reordered,
        format!("applied {}: mean neighbour span {before:.1} -> {after:.1}", o.ordering.name()),
    )
}

fn cmd_order(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("order needs a mesh path")?;
    let out = o.out.as_deref().ok_or("order needs --out")?;
    let (mesh, report) = reorder(&load(path)?, o);
    save(&mesh, out)?;
    Ok(format!("{report}; wrote {out}"))
}

fn cmd_improve(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("improve needs a mesh path")?;
    let out = o.out.as_deref().ok_or("improve needs --out")?;
    let mut mesh = load(path)?;
    mesh.orient_ccw();
    if let Some(stride) = o.tangle {
        let displaced = tangle_vertices(&mut mesh, stride);
        eprintln!("tangled {displaced} vertices (--tangle {stride})");
    }
    let report = Pipeline::standard(o.ordering, Backend::Serial).run(&mut mesh);
    save(&mesh, out)?;
    let mut msg = String::new();
    for s in &report.stages {
        msg.push_str(&format!(
            "{:<10} {:.4} -> {:.4} (work {})\n",
            s.stage, s.quality_before, s.quality_after, s.work
        ));
    }
    msg.push_str(&format!(
        "quality {:.4} -> {:.4}; wrote {out}",
        report.initial_quality, report.final_quality
    ));
    Ok(msg)
}

fn cmd_render(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("render needs a mesh path")?;
    let out = o.out.as_deref().ok_or("render needs --out (an .svg path)")?;
    let mesh = load(path)?;
    render_mesh(&mesh, &MeshStyle::default())
        .write_to(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("rendered {} triangles to {out}", mesh.num_triangles()))
}

fn load3(prefix: &str) -> Result<TetMesh, String> {
    io3::load_tetgen(prefix).map_err(|e| format!("{prefix}: {e}"))
}

fn cmd_generate3(o: &Opts) -> Result<String, String> {
    let which = o.positional.first().ok_or("generate3 needs a mesh name or `grid`")?;
    let mesh = if which == "grid" {
        gen3::block_scramble(
            gen3::perturbed_tet_grid(o.nx, o.ny, o.nz, o.jitter, o.seed),
            gen3::ORI3_SCRAMBLE_BLOCK,
            o.seed,
        )
    } else {
        let spec = gen3::SUITE3
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(which) || s.label.eq_ignore_ascii_case(which))
            .ok_or_else(|| {
                format!(
                    "unknown 3D suite mesh {which:?}; names: {}",
                    gen3::SUITE3.iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
                )
            })?;
        gen3::generate3(spec, o.scale * 50.0)
    };
    let out = o.out.as_deref().ok_or("generate3 needs --out")?;
    io3::save_tetgen(&mesh, out).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("wrote {} ({} vertices, {} tets)", out, mesh.num_vertices(), mesh.num_tets()))
}

fn cmd_info3(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("info3 needs a mesh prefix")?;
    let mesh = load3(path)?;
    let adj = Adjacency3::build(&mesh);
    let boundary = Boundary3::detect(&mesh);
    let metric = TetQualityMetric::EdgeLengthRatio;
    let q = lms_mesh3d::quality::mesh_quality(&mesh, &adj, metric);
    let mut out = String::new();
    out.push_str(&format!("mesh:        {path} (tetrahedral)\n"));
    out.push_str(&format!("vertices:    {}\n", mesh.num_vertices()));
    out.push_str(&format!("tets:        {}\n", mesh.num_tets()));
    out.push_str(&format!(
        "boundary:    {} vertices ({} interior), {} surface faces\n",
        boundary.num_boundary(),
        boundary.num_interior(),
        boundary.num_boundary_faces()
    ));
    out.push_str(&format!(
        "degree:      mean {:.2}, max {}\n",
        adj.mean_degree(),
        adj.max_degree()
    ));
    out.push_str(&format!("quality:     mean {:.4} ({})\n", q, metric.name()));
    out.push_str(&format!(
        "layout:      mean neighbour span {:.1}\n",
        layout_stats(&mesh, &adj).mean_span
    ));
    Ok(out)
}

fn cmd_order3(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("order3 needs a mesh prefix")?;
    let out = o.out.as_deref().ok_or("order3 needs --out")?;
    let (mesh, report) = reorder(&load3(path)?, o);
    io3::save_tetgen(&mesh, out).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("{report}; wrote {out}"))
}

fn cmd_render3(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("render3 needs a mesh prefix")?;
    let out = o.out.as_deref().ok_or("render3 needs --out (an .svg path)")?;
    let mesh = load3(path)?;
    render_tet_surface(&mesh, &Mesh3Style::default())
        .write_to(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    let b = Boundary3::detect(&mesh);
    Ok(format!("rendered {} surface faces to {out}", b.num_boundary_faces()))
}

fn cmd_trace_smoke(o: &Opts) -> Result<String, String> {
    let out = o
        .out
        .as_deref()
        .or_else(|| o.positional.first().map(|s| s.as_str()))
        .ok_or("trace-smoke needs an output path (positional or --out)")?;
    let mesh = generators::perturbed_grid(o.nx.max(8), o.ny.max(8), o.jitter, o.seed);
    let params =
        lms_smooth::SmoothParams::paper().with_smart(true).with_max_iters(4).with_tol(-1.0);
    let engine =
        lms_smooth::ResidentEngine::by_method(&mesh, params, 4, lms_part::PartitionMethod::Rcb);
    let mut work = mesh;
    let (report, recorder) = engine.smooth_profiled(&mut work, 2);
    let json = lms_trace::chrome_trace_json(recorder.events());
    let events = lms_trace::validate_chrome_trace(&json)
        .map_err(|e| format!("freshly exported trace failed validation (bug): {e}"))?;
    std::fs::write(out, &json).map_err(|e| format!("{out}: {e}"))?;
    let breakdown = report.phase_breakdown.ok_or("profiled run attached no phase breakdown")?;
    Ok(format!(
        "wrote {out}: {events} span events, balanced; {} iterations smoothed\n{}",
        report.iterations.len(),
        breakdown.summary_table()
    ))
}

/// Serve one standalone smoothing rank over a stream socket. The worker
/// rebuilds the mesh and parameters the coordinator used (MPI input-deck
/// style) for its scoring view, and receives its block from the
/// coordinator in a `Block` frame, so it builds no engine and holds one
/// block, not all of them; only the block and run state (coordinates,
/// scores, halo deltas) cross the wire, and the coordinator's
/// cross-transport oracle still holds bit for bit.
fn cmd_dist_worker(o: &Opts) -> Result<String, String> {
    let addr =
        o.connect.as_deref().ok_or("dist-worker needs --connect <tcp:host:port|unix:/path>")?;
    let spec = lms_dist::SocketSpec::parse(addr)?;
    let rank = o.rank.ok_or("dist-worker needs --rank <r>")?;
    if rank as usize >= o.parts {
        return Err(format!("--rank {rank} out of range for --parts {}", o.parts));
    }
    let mesh = generators::perturbed_grid(o.nx, o.ny, o.jitter, o.seed);
    let params = lms_smooth::SmoothParams::paper()
        .with_smart(!o.plain)
        .with_max_iters(o.iters)
        .with_tol(o.tol);
    let dom = <TriMesh as SmoothMesh<3, 2>>::scoring(mesh.num_vertices(), mesh.elements(), &params);
    let cfg = <TriMesh as SmoothMesh<3, 2>>::domain_config(&params);
    lms_dist::serve_standalone(&dom, &cfg, rank, &spec, &lms_dist::Supervisor::default())
        .map_err(|e| format!("rank {rank} serving {spec}: {e}"))?;
    Ok(format!("rank {rank}/{} served {spec} to clean shutdown", o.parts))
}

/// Pull `"batched_speedup_vs_scalar": <x>` out of a baseline JSON by
/// string search — the whole file is repo-controlled, so a real parser
/// (and a serde dependency) would be overkill for one numeric field.
fn read_baseline_speedup(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let key = "\"batched_speedup_vs_scalar\"";
    let at = text.find(key).ok_or_else(|| format!("{path}: missing {key}"))?;
    let rest = text[at + key.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("{path}: malformed {key} (expected a colon)"))?;
    let end = rest.find(&[',', '\n', '}'][..]).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|e| format!("{path}: bad {key} value: {e}"))
}

/// CI bench-regression smoke: the lane-batched sweep kernel vs the
/// forced scalar path on one decomposition. The scalar run doubles as a
/// host-speed normalizer — the *ratio* is compared against the baseline,
/// so slow CI runners don't trip the gate; only a genuine regression of
/// the batched kernel relative to its own scalar reference does. The
/// bit-identity gate runs first: perf is meaningless if the kernels
/// diverge.
fn cmd_bench_smoke(o: &Opts) -> Result<String, String> {
    let baseline_path =
        o.positional.first().map(|s| s.as_str()).unwrap_or("ci/bench_baseline.json");
    let baseline = read_baseline_speedup(baseline_path)?;
    let side = o.nx.max(120);
    let sweeps = o.iters.max(6);
    let mesh = generators::perturbed_grid(side, side, o.jitter, o.seed);
    let params =
        lms_smooth::SmoothParams::paper().with_smart(true).with_max_iters(sweeps).with_tol(-1.0);
    let batched = lms_smooth::ResidentEngine::by_method(
        &mesh,
        params.clone(),
        o.parts,
        lms_part::PartitionMethod::Rcb,
    );
    let scalar = lms_smooth::ResidentEngine::by_method(
        &mesh,
        params.with_scalar_scoring(true),
        o.parts,
        lms_part::PartitionMethod::Rcb,
    );

    let mut a = mesh.clone();
    batched.smooth(&mut a, 1);
    let mut b = mesh.clone();
    scalar.smooth(&mut b, 1);
    if a.coords() != b.coords() {
        return Err("bench-smoke: batched scoring diverged from the scalar path \
                    (bit-identity gate failed — fix correctness before timing)"
            .into());
    }

    // min over interleaved reps: the workload is deterministic, so
    // background load only ever adds time — and alternating the two
    // engines inside one rep loop keeps slow host phases (CPU frequency
    // drift, noisy neighbours on a shared 1-core runner) from landing
    // entirely on one side of the ratio
    let one = |engine: &lms_smooth::ResidentEngine| -> Result<(u64, u64), String> {
        let mut work = mesh.clone();
        let (report, _) = engine.smooth_profiled(&mut work, 1);
        let bd = report.phase_breakdown.ok_or("profiled run attached no phase breakdown")?;
        let ns = bd.per_part_sweep_ns().iter().sum();
        let moved = bd.transport.rank_phases.iter().map(|r| r.moved).sum::<u64>().max(1);
        Ok((ns, moved))
    };
    // Host noise on a shared 1-core runner comes in two flavours, and
    // each breaks a different estimator: slow multiplicative drift makes
    // independently-taken per-side minima land in different speed
    // windows (skewing the min-ratio), while short additive spikes
    // inflate both runs of a back-to-back pair equally (compressing the
    // per-pair ratio toward 1). Both estimators are downward-biased
    // under their own failure mode and sound under the other's, so the
    // max of the two is the stable choice for a regression gate that
    // already carries 25% slack.
    let mut batched_ns = u64::MAX;
    let mut scalar_ns = u64::MAX;
    let mut moved = 1;
    let mut ratios = Vec::new();
    for _ in 0..8 {
        let (b_ns, m) = one(&batched)?;
        batched_ns = batched_ns.min(b_ns);
        moved = m;
        let (s_ns, _) = one(&scalar)?;
        scalar_ns = scalar_ns.min(s_ns);
        ratios.push(s_ns as f64 / b_ns as f64);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let batched_per = batched_ns as f64 / moved as f64;
    let scalar_per = scalar_ns as f64 / moved as f64;
    let median = (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0;
    let speedup = (scalar_per / batched_per).max(median);
    let floor = baseline / 1.25;
    let verdict = format!(
        "bench-smoke: {side}x{side} grid, {sweeps} sweeps, {}-way rcb, 1 thread\n\
         ns/moved-vertex (interface commits only) — batched {batched_per:.0}, \
         scalar {scalar_per:.0}\n\
         batched speedup vs scalar (max of min-ratio and pair-median): {speedup:.3} \
         (baseline {baseline:.3}, floor {floor:.3})",
        o.parts
    );
    if speedup < floor {
        return Err(format!(
            "{verdict}\nREGRESSION: batched kernel speedup fell more than 25% below \
             the checked-in baseline ({baseline_path})"
        ));
    }
    Ok(verdict)
}

fn cmd_trace_validate(o: &Opts) -> Result<String, String> {
    let path = o.positional.first().ok_or("trace-validate needs a trace file path")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = lms_trace::validate_chrome_trace(&json).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: valid chrome trace, {events} events, all B/E spans balanced"))
}

fn usage() -> &'static str {
    "USAGE: lms-tool <generate|info|order|improve|render|generate3|info3|order3|render3\
     |trace-smoke|trace-validate|bench-smoke|dist-worker> [options]\n\
     run with a command and no arguments for its specific requirements;\n\
     see the crate docs for the full synopsis"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "info" => cmd_info(&opts),
        "order" => cmd_order(&opts),
        "improve" => cmd_improve(&opts),
        "render" => cmd_render(&opts),
        "generate3" => cmd_generate3(&opts),
        "info3" => cmd_info3(&opts),
        "order3" => cmd_order3(&opts),
        "render3" => cmd_render3(&opts),
        "trace-smoke" => cmd_trace_smoke(&opts),
        "trace-validate" => cmd_trace_validate(&opts),
        "bench-smoke" => cmd_bench_smoke(&opts),
        "dist-worker" => cmd_dist_worker(&opts),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_known_flags() {
        let o = parse(&args(&[
            "grid",
            "--nx",
            "10",
            "--ny",
            "12",
            "--jitter",
            "0.2",
            "--seed",
            "9",
            "--ordering",
            "sloan",
            "--out",
            "x",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["grid"]);
        assert_eq!((o.nx, o.ny, o.seed), (10, 12, 9));
        assert_eq!(o.ordering, OrderingKind::Sloan);
        assert_eq!(o.out.as_deref(), Some("x"));
    }

    #[test]
    fn parse_accepts_3d_flags() {
        let o = parse(&args(&["cube", "--nz", "7", "--ordering", "rdr", "--out", "y"])).unwrap();
        assert_eq!(o.nz, 7);
        assert_eq!(o.ordering, OrderingKind::Rdr);
        // one ordering option serves both dimensions
        assert!(parse(&args(&["cube", "--ordering", "sloan"])).is_ok());
    }

    #[test]
    fn generate3_and_order3_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lms_tool3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("box");
        let o = Opts {
            positional: vec!["grid".into()],
            scale: 0.02,
            nx: 5,
            ny: 5,
            nz: 5,
            jitter: 0.3,
            seed: 1,
            ordering: OrderingKind::Rdr,
            tangle: None,
            out: Some(out.to_string_lossy().into_owned()),
            ..parse(&[]).unwrap()
        };
        let msg = cmd_generate3(&o).unwrap();
        assert!(msg.contains("vertices"));
        let info = cmd_info3(&Opts {
            positional: vec![out.to_string_lossy().into_owned()],
            out: None,
            ..o
        })
        .unwrap();
        assert!(info.contains("tetrahedral"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse(&args(&["--bogus"])).is_err());
        assert!(parse(&args(&["--scale"])).is_err());
        assert!(parse(&args(&["--ordering", "nope"])).is_err());
    }

    #[test]
    fn generate_info_order_improve_render_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lms_tool_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("m").to_string_lossy().to_string();

        // generate a small grid
        let o = parse(&args(&[
            "grid", "--nx", "14", "--ny", "14", "--jitter", "0.3", "--out", &prefix,
        ]))
        .unwrap();
        cmd_generate(&o).unwrap();
        assert!(Path::new(&format!("{prefix}.node")).exists());

        // info
        let o = parse(&args(&[&prefix])).unwrap();
        let info = cmd_info(&o).unwrap();
        assert!(info.contains("vertices:    196"));

        // order
        let ordered = dir.join("o").to_string_lossy().to_string();
        let o = parse(&args(&[&prefix, "--ordering", "rdr", "--out", &ordered])).unwrap();
        cmd_order(&o).unwrap();

        // improve (with tangling)
        let improved = dir.join("i").to_string_lossy().to_string();
        let o = parse(&args(&[&ordered, "--tangle", "20", "--out", &improved])).unwrap();
        let msg = cmd_improve(&o).unwrap();
        assert!(msg.contains("untangle"));

        // render
        let svg = dir.join("m.svg").to_string_lossy().to_string();
        let o = parse(&args(&[&improved, "--out", &svg])).unwrap();
        cmd_render(&o).unwrap();
        assert!(std::fs::read_to_string(&svg).unwrap().contains("<svg"));

        // OFF roundtrip
        let off = dir.join("m.off").to_string_lossy().to_string();
        let o = parse(&args(&["crake", "--scale", "0.002", "--out", &off])).unwrap();
        cmd_generate(&o).unwrap();
        let o = parse(&args(&[&off])).unwrap();
        assert!(cmd_info(&o).unwrap().contains("triangles"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_smoke_writes_a_valid_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("lms_trace_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json").to_string_lossy().to_string();
        let o = parse(&args(&[&out, "--nx", "10", "--ny", "10"])).unwrap();
        let msg = cmd_trace_smoke(&o).unwrap();
        assert!(msg.contains("span events, balanced"), "{msg}");
        assert!(msg.contains("interior"), "summary table missing: {msg}");
        let o = parse(&args(&[&out])).unwrap();
        let msg = cmd_trace_validate(&o).unwrap();
        assert!(msg.contains("valid chrome trace"), "{msg}");
        // a corrupted file must fail validation
        std::fs::write(&out, "{not json").unwrap();
        assert!(cmd_trace_validate(&o).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_smoke_gates_against_the_baseline() {
        let dir = std::env::temp_dir().join(format!("lms_bench_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json").to_string_lossy().to_string();

        // a tiny baseline: any real measurement clears the floor
        std::fs::write(&baseline, "{\n  \"batched_speedup_vs_scalar\": 0.01\n}\n").unwrap();
        assert_eq!(read_baseline_speedup(&baseline).unwrap(), 0.01);
        let o = parse(&args(&[&baseline, "--nx", "120", "--iters", "6"])).unwrap();
        let msg = cmd_bench_smoke(&o).unwrap();
        assert!(msg.contains("batched speedup vs scalar"), "{msg}");
        assert!(msg.contains("ns/moved-vertex"), "{msg}");

        // an absurdly high baseline must trip the regression gate
        std::fs::write(&baseline, "{\"batched_speedup_vs_scalar\": 1000.0}").unwrap();
        let err = cmd_bench_smoke(&o).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");

        // malformed / missing baselines are hard errors, not silent passes
        std::fs::write(&baseline, "{\"something_else\": 1.0}").unwrap();
        assert!(read_baseline_speedup(&baseline).is_err());
        assert!(read_baseline_speedup("/nonexistent/baseline.json").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_report_errors() {
        let o = parse(&args(&["/nonexistent/mesh"])).unwrap();
        assert!(cmd_info(&o).is_err());
        let o = parse(&args(&["/nonexistent/mesh.off"])).unwrap();
        assert!(cmd_info(&o).is_err());
    }
}
