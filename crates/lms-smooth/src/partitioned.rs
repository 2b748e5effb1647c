//! Halo-aware partitioned deterministic Gauss–Seidel smoothing — the
//! domain-decomposition engine that joins the ordering zoo's locality
//! story to the parallel one.
//!
//! The colored engine ([`SmoothEngine::smooth_parallel_colored`])
//! parallelises *across the whole mesh*: each color class scatters its
//! vertices over every worker, so the per-core working set is the entire
//! coordinate array — exactly the locality the geometric orderings try to
//! create is thrown away. This module instead decomposes the mesh with
//! [`lms_part`]: each worker owns a geometrically compact part and sweeps
//! the part's **interior** (vertices whose whole 1-ring it owns) as one
//! contiguous, cache-resident block — a gathered local coordinate buffer
//! plus a local element-score table, updated serially inside the part in
//! ascending order, exactly the incremental protocol of the serial hot
//! path ([`crate::kernel`]). Only the thin **interface** layer (vertices
//! with cross-part neighbours) needs coordination; it is swept with the
//! existing colored machinery.
//!
//! Since PR 4 the block builder and both sweep bodies are generic over
//! [`SmoothDomain`]: [`PartitionedEngine`] instantiates them for the 2D
//! [`TriMesh`], `lms-mesh3d`'s `PartitionedEngine3` for tetrahedra — one
//! code path, two dimensions.
//!
//! Determinism and equivalence:
//!
//! * interior vertices of different parts are never adjacent and their
//!   incident elements are disjoint, so the parallel part sweeps commute
//!   — results are gathered per part and folded back in part order,
//!   making coordinates **and** reports **bitwise-deterministic for any
//!   thread count**;
//! * the whole sweep is *exactly* serial Gauss–Seidel under the
//!   **part-major visit order** ([`PartitionedEngine::part_major_visit_order`]:
//!   part-0 interiors ascending, part-1 interiors, …, then the interface
//!   color classes) — coordinates match bit for bit, property-tested in
//!   `tests/partitioned.rs`.
//!
//! One caveat, inherited from [`crate::kernel`] and slightly widened: the
//! per-iteration convergence statistic is the cache's compensated running
//! sum, whose fold order here differs from the serial engine's (per-part
//! batches instead of per-commit stars). The value agrees to a few ulps,
//! so an improvement landing exactly on `tol` can stop the two engines
//! one sweep apart; disable the tolerance (`tol < 0`) when exact
//! sweep-count parity matters. Coordinates per sweep are unaffected.

use crate::colored::{colored_class_plain_on, colored_class_smart_on};
use crate::config::{SmoothParams, UpdateScheme};
use crate::dcache::DomainQualityCache;
use crate::domain::{score_star_per_id, DomainConfig, SmoothDomain};
use crate::engine::SmoothEngine;
use crate::kernel::candidate_for_soa;
use crate::soa::{resize_tracked, SoaLike, SoaScores};
use crate::stats::{IterationStats, SmoothReport};
use lms_mesh::{Adjacency, TriMesh};
use lms_part::{partition_mesh, Partition, PartitionMethod};
use rayon::prelude::*;

/// A smoothing engine over a domain decomposition: parallel cache-resident
/// interior sweeps per part, colored interface sweeps, bitwise
/// deterministic for any thread count. Gauss–Seidel only (for parallel
/// Jacobi use [`SmoothEngine::smooth_parallel`], which needs no
/// decomposition to be deterministic).
#[derive(Debug, Clone)]
pub struct PartitionedEngine {
    engine: SmoothEngine,
    partition: Partition,
    blocks: Vec<PartBlock<3>>,
    /// Interface vertices (mesh-interior) grouped by color class —
    /// the engine's interior color classes restricted to the interface.
    interface_classes: Vec<Vec<u32>>,
}

/// Immutable per-part topology: the local view a worker sweeps, generic
/// in the element corner count `C`.
///
/// Local vertex ids index the part's owned vertices in ascending global
/// order (the `lms_part` ghost-map convention); the halo never enters the
/// sweep because part-interior vertices have fully-owned 1-rings. Local
/// element ids index `elem_globals` (ascending global order), so slices
/// keep the serial engine's ascending iteration order.
#[derive(Debug, Clone)]
pub struct PartBlock<const C: usize> {
    /// Owned vertices, global ids ascending (gather/scatter map).
    owned: Vec<u32>,
    /// Vertices this part sweeps (part-interior ∩ mesh-interior):
    /// global ids, ascending.
    sweep_globals: Vec<u32>,
    /// The same vertices as local owned indices.
    sweep_locals: Vec<u32>,
    /// Local CSR neighbour rows, aligned with `sweep_locals`; entries are
    /// local owned indices in the global ascending-neighbour order.
    nbr_offsets: Vec<u32>,
    nbrs: Vec<u32>,
    /// Local element set: every element incident to a sweep vertex
    /// (all corners are owned). Global ids, ascending.
    elem_globals: Vec<u32>,
    /// Corner indices of each local element, in stored corner order.
    elem_corners: Vec<[u32; C]>,
    /// Local CSR incident-element rows, aligned with `sweep_locals`.
    vt_offsets: Vec<u32>,
    vt: Vec<u32>,
    /// Owned interface vertices the interface phase can move:
    /// `(local, global)` pairs — the per-iteration coordinate refresh.
    iface_refresh: Vec<(u32, u32)>,
    /// Local elements incident to such a vertex — the per-iteration
    /// score refresh (the interface phase re-scores them in the cache).
    frontier_elems: Vec<u32>,
}

impl<const C: usize> PartBlock<C> {
    /// The sweep vertices (part-interior ∩ mesh-interior), global ids
    /// ascending — the block's slice of the part-major visit order.
    pub fn sweep_globals(&self) -> &[u32] {
        &self.sweep_globals
    }
}

/// Restrict interior color classes to partition-interface vertices
/// (ascending within a class preserved, empty classes dropped) — the
/// coordination schedule both decomposed engines (2D and 3D) build from
/// one definition, so they share one serial-equivalence order.
pub fn interface_classes(classes: &[Vec<u32>], partition: &Partition) -> Vec<Vec<u32>> {
    classes
        .iter()
        .map(|class| {
            class.iter().copied().filter(|&v| partition.is_interface(v)).collect::<Vec<u32>>()
        })
        .filter(|class| !class.is_empty())
        .collect()
}

/// The serial visit order a partitioned/resident sweep over `blocks` is
/// exactly equal to: each part's interior vertices ascending, parts in
/// order, then the interface color classes class-major.
pub fn part_major_order<const C: usize>(
    blocks: &[PartBlock<C>],
    interface_classes: &[Vec<u32>],
) -> Vec<u32> {
    let mut order: Vec<u32> = blocks.iter().flat_map(|b| b.sweep_globals.iter().copied()).collect();
    order.extend(interface_classes.iter().flatten().copied());
    order
}

/// Per-run mutable state of one part: the cache-resident block, held in
/// the domain's structure-of-arrays layout so the smart sweep can score
/// candidate stars through the lane-batched [`SmoothDomain::score_star`]
/// kernel.
struct PartScratch<const C: usize, D: SmoothDomain<C>> {
    /// Local copies of the owned vertices' coordinates (SoA).
    coords: D::Soa,
    /// Local `(quality, positively_oriented)` per local element (smart
    /// runs only), mirroring the global [`DomainQualityCache`] entries.
    scores: SoaScores,
    /// Local owned indices committed this iteration (scatter list).
    committed: Vec<u32>,
    /// Local elements re-scored this iteration (cache write-back list).
    dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
    /// Candidate-star scratch, grown once to the largest star.
    star: Vec<(f64, bool)>,
}

impl<const C: usize, D: SmoothDomain<C>> PartScratch<C, D> {
    fn new(block: &PartBlock<C>, smart: bool) -> Self {
        PartScratch {
            coords: D::Soa::with_len(block.owned.len()),
            scores: SoaScores::with_len(if smart { block.elem_globals.len() } else { 0 }),
            committed: Vec::new(),
            dirty: Vec::new(),
            dirty_mark: if smart { vec![false; block.elem_globals.len()] } else { Vec::new() },
            star: Vec::new(),
        }
    }

    /// First-iteration gather: all owned coordinates, and (smart) the
    /// current cache state of every local element.
    fn gather(
        &mut self,
        block: &PartBlock<C>,
        coords: &[D::Point],
        cache: &DomainQualityCache,
        smart: bool,
    ) {
        for (i, &v) in block.owned.iter().enumerate() {
            self.coords.set(i, coords[v as usize]);
        }
        if smart {
            for (i, &t) in block.elem_globals.iter().enumerate() {
                self.scores.set(i, (cache.elem_quality(t), cache.elem_is_positive(t)));
            }
        }
    }

    /// Steady-state refresh: only what the interface phase could have
    /// changed — owned interface coordinates and frontier-element scores
    /// (everything else is maintained locally by this part alone).
    fn refresh(
        &mut self,
        block: &PartBlock<C>,
        coords: &[D::Point],
        cache: &DomainQualityCache,
        smart: bool,
    ) {
        for &(lv, gv) in &block.iface_refresh {
            self.coords.set(lv as usize, coords[gv as usize]);
        }
        if smart {
            for &lt in &block.frontier_elems {
                let t = block.elem_globals[lt as usize];
                self.scores.set(lt as usize, (cache.elem_quality(t), cache.elem_is_positive(t)));
            }
        }
    }
}

/// Build every part's local topology for a domain + decomposition.
pub fn build_part_blocks<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
) -> Vec<PartBlock<C>> {
    let n = dom.num_vertices();
    let mut g2l = vec![u32::MAX; n];
    let mut elem_l = vec![u32::MAX; dom.num_elements()];
    let mut blocks = Vec::with_capacity(partition.num_parts() as usize);
    for p in 0..partition.num_parts() {
        blocks.push(build_block(dom, partition, p, &mut g2l, &mut elem_l));
    }
    blocks
}

/// One plain local sweep: every candidate commits; arithmetic identical
/// to the serial plain sweep on the gathered values.
fn sweep_block_plain<const C: usize, D: SmoothDomain<C>>(
    weighting: crate::config::Weighting,
    block: &PartBlock<C>,
    work: &mut PartScratch<C, D>,
) {
    for (si, &lv) in block.sweep_locals.iter().enumerate() {
        let ns = &block.nbrs[block.nbr_offsets[si] as usize..block.nbr_offsets[si + 1] as usize];
        if ns.is_empty() {
            continue;
        }
        let pv: D::Point = work.coords.get(lv as usize);
        let Some(candidate) = candidate_for_soa(weighting, pv, ns, &work.coords) else {
            continue;
        };
        work.coords.set(lv as usize, candidate);
        work.committed.push(lv);
    }
}

/// One smart local sweep: the serial hot path's incremental protocol on
/// the local block — "before" from the local score table, candidate star
/// scored once, scores reused as the table update on commit. The guard
/// expressions mirror `kernel`'s smart sweep term for term, so commit
/// decisions (hence coordinates) are bit-identical to the serial engine's.
///
/// The candidate is *staged* into the SoA store before scoring: the
/// star's elements, named by id, then read the new position through
/// ordinary corner loads of the block's own corner table, which is
/// exactly the substitution `score_with` used to perform — every
/// element sees the same inputs, so the scores (and the commit decision)
/// are bit-identical. On reject the previous position is restored.
fn sweep_block_smart<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    weighting: crate::config::Weighting,
    scalar: bool,
    block: &PartBlock<C>,
    work: &mut PartScratch<C, D>,
) {
    // multiversioned like `resident::sweep_range_smart` — same reasoning
    #[cfg(target_arch = "x86_64")]
    if !scalar && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support verified above (cached runtime check).
        unsafe { sweep_block_smart_avx(dom, weighting, scalar, block, work) };
        return;
    }
    sweep_block_smart_body(dom, weighting, scalar, block, work);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sweep_block_smart_avx<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    weighting: crate::config::Weighting,
    scalar: bool,
    block: &PartBlock<C>,
    work: &mut PartScratch<C, D>,
) {
    sweep_block_smart_body(dom, weighting, scalar, block, work);
}

#[inline(always)]
fn sweep_block_smart_body<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    weighting: crate::config::Weighting,
    scalar: bool,
    block: &PartBlock<C>,
    work: &mut PartScratch<C, D>,
) {
    for (si, &lv) in block.sweep_locals.iter().enumerate() {
        let ns = &block.nbrs[block.nbr_offsets[si] as usize..block.nbr_offsets[si + 1] as usize];
        if ns.is_empty() {
            continue;
        }
        let pv: D::Point = work.coords.get(lv as usize);
        let Some(candidate) = candidate_for_soa(weighting, pv, ns, &work.coords) else {
            continue;
        };
        let ts = &block.vt[block.vt_offsets[si] as usize..block.vt_offsets[si + 1] as usize];
        if ts.is_empty() {
            work.coords.set(lv as usize, candidate);
            work.committed.push(lv);
            continue;
        }

        work.coords.set(lv as usize, candidate);
        let k = ts.len();
        if work.star.len() < k {
            resize_tracked(&mut work.star, k);
        }
        if scalar {
            score_star_per_id(dom, &work.coords, &block.elem_corners, ts, &mut work.star[..k]);
        } else {
            dom.score_star(&work.coords, &block.elem_corners, ts, &mut work.star[..k]);
        }

        let mut after_sum = 0.0;
        let mut before_sum = 0.0;
        let mut all_pos = true;
        for (i, &lt) in ts.iter().enumerate() {
            let (q0, pos0) = work.scores.get(lt as usize);
            before_sum += if pos0 { q0 } else { 0.0 };
            let (q, pos) = work.star[i];
            if pos {
                after_sum += q;
            } else {
                all_pos = false;
            }
        }
        let len = ts.len() as f64;
        let quality_ok = after_sum >= before_sum || after_sum / len >= before_sum / len;
        let commit = quality_ok && (all_pos || ts.iter().any(|&lt| !work.scores.pos(lt as usize)));
        if commit {
            for (i, &lt) in ts.iter().enumerate() {
                work.scores.set(lt as usize, work.star[i]);
                if !work.dirty_mark[lt as usize] {
                    work.dirty_mark[lt as usize] = true;
                    work.dirty.push(lt);
                }
            }
            work.committed.push(lv);
        } else {
            work.coords.set(lv as usize, pv);
        }
    }
}

/// The generic partitioned driver: part interiors in parallel (one
/// cache-resident block per part), interface vertices by color class,
/// serial write-back in part order. Race-free, bitwise-deterministic for
/// any thread count, and exactly serial Gauss–Seidel under
/// [`part_major_order`].
pub fn smooth_partitioned_on<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    cfg: &DomainConfig,
    blocks: &[PartBlock<C>],
    interface_classes: &[Vec<u32>],
    coords: &mut [D::Point],
    pool: &rayon::ThreadPool,
) -> SmoothReport {
    assert_eq!(coords.len(), dom.num_vertices(), "engine was built for a different mesh");
    let smart = cfg.smart;
    let mut cache = DomainQualityCache::build(dom, coords);
    let initial_quality = cache.quality_exact(dom);
    let mut report = SmoothReport::starting(initial_quality);
    let mut quality = initial_quality;
    let mut works: Vec<PartScratch<C, D>> =
        blocks.iter().map(|b| PartScratch::<C, D>::new(b, smart)).collect();
    let mut moved: Vec<u32> = Vec::new();
    let mut star_ids: Vec<u32> = Vec::new();
    let mut star_scores: Vec<(f64, bool)> = Vec::new();

    for iter in 1..=cfg.max_iters {
        moved.clear();

        // Interior phase: every part sweeps its local block in parallel.
        // Workers read the global coordinates and cache and write only
        // their own scratch, so the phase is race-free and its outputs
        // are independent of the thread schedule.
        {
            let shared: &[D::Point] = coords;
            let cache_ref: &DomainQualityCache = &cache;
            let first = iter == 1;
            let scalar = cfg.scalar_scoring;
            pool.install(|| {
                works.par_iter_mut().enumerate().for_each(|(i, work)| {
                    let block = &blocks[i];
                    if first {
                        work.gather(block, shared, cache_ref, smart);
                    } else {
                        work.refresh(block, shared, cache_ref, smart);
                    }
                    if smart {
                        sweep_block_smart(dom, cfg.weighting, scalar, block, work);
                    } else {
                        sweep_block_plain(cfg.weighting, block, work);
                    }
                });
            });
        }

        // Serial write-back in part order: scatter the committed
        // coordinates and fold each part's element re-scores into the
        // cache — deterministic for any thread count.
        for (block, work) in blocks.iter().zip(works.iter_mut()) {
            for &lv in &work.committed {
                coords[block.owned[lv as usize] as usize] = work.coords.get(lv as usize);
            }
            if smart {
                work.dirty.sort_unstable();
                star_ids.clear();
                star_scores.clear();
                for &lt in &work.dirty {
                    star_ids.push(block.elem_globals[lt as usize]);
                    star_scores.push(work.scores.get(lt as usize));
                    work.dirty_mark[lt as usize] = false;
                }
                work.dirty.clear();
                if !star_ids.is_empty() {
                    cache.set_star(&star_ids, &star_scores);
                }
            } else {
                moved.extend(work.committed.iter().map(|&lv| block.owned[lv as usize]));
            }
            work.committed.clear();
        }

        // Interface phase: the colored machinery on the global mesh —
        // classes contain only interface vertices.
        for class in interface_classes {
            if smart {
                colored_class_smart_on(dom, cfg.weighting, class, coords, &mut cache, pool);
            } else {
                colored_class_plain_on(dom, cfg.weighting, class, coords, &mut moved, pool);
            }
        }
        if !moved.is_empty() {
            cache.apply_moves(dom, &moved, coords);
        }

        let new_quality = cache.quality_running();
        let improvement = new_quality - quality;
        report.iterations.push(IterationStats { iter, quality: new_quality, improvement });
        quality = new_quality;
        if improvement < cfg.tol {
            report.converged = true;
            break;
        }
    }

    let exact =
        if report.iterations.is_empty() { initial_quality } else { cache.quality_exact(dom) };
    if let Some(last) = report.iterations.last_mut() {
        last.quality = exact;
    }
    report.final_quality = exact;
    report
}

impl PartitionedEngine {
    /// Build a partitioned engine for `mesh` under `params` and an
    /// existing decomposition (Gauss–Seidel parameters only): builds the
    /// adjacency and hands it to [`with_adjacency`](Self::with_adjacency).
    pub fn new(mesh: &TriMesh, params: SmoothParams, partition: Partition) -> Self {
        Self::with_adjacency(mesh, Adjacency::build(mesh), params, partition)
    }

    /// Build a partitioned engine around an adjacency the caller
    /// already holds (typically the one the partition was computed from)
    /// — *the* constructor; [`by_method`](Self::by_method) and
    /// [`new`](Self::new) both end here.
    ///
    /// # Panics
    /// When `adj` or `partition` was built for a different number of
    /// vertices, or `params` asks for Jacobi updates.
    pub fn with_adjacency(
        mesh: &TriMesh,
        adj: Adjacency,
        params: SmoothParams,
        partition: Partition,
    ) -> Self {
        assert_eq!(
            partition.len(),
            mesh.num_vertices(),
            "partition was built for a different mesh"
        );
        assert_eq!(
            params.update,
            UpdateScheme::GaussSeidel,
            "partitioned smoothing is an in-place (Gauss-Seidel) schedule; \
             use smooth_parallel for deterministic Jacobi"
        );
        let engine = SmoothEngine::with_adjacency(mesh, adj, params);
        let interface_classes = interface_classes(engine.interior_color_classes(), &partition);
        let blocks = build_part_blocks(&engine.domain(), &partition);
        PartitionedEngine { engine, partition, blocks, interface_classes }
    }

    /// Convenience: decompose `mesh` into `num_parts` with `method`, then
    /// build the engine.
    pub fn by_method(
        mesh: &TriMesh,
        params: SmoothParams,
        num_parts: usize,
        method: PartitionMethod,
    ) -> Self {
        let adj = Adjacency::build(mesh);
        let partition = partition_mesh(mesh, &adj, num_parts, method);
        PartitionedEngine::with_adjacency(mesh, adj, params, partition)
    }

    /// The underlying serial engine (adjacency, boundary, parameters).
    pub fn engine(&self) -> &SmoothEngine {
        &self.engine
    }

    /// The decomposition the engine runs on.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The interface color classes the coordination phase sweeps.
    pub fn interface_classes(&self) -> &[Vec<u32>] {
        &self.interface_classes
    }

    /// The serial visit order this engine's sweep is exactly equal to:
    /// each part's interior vertices ascending, parts in order, then the
    /// interface color classes class-major. Feed it to
    /// [`SmoothEngine::with_visit_order`] to reproduce the partitioned
    /// result bit for bit on the serial engine.
    pub fn part_major_visit_order(&self) -> Vec<u32> {
        part_major_order(&self.blocks, &self.interface_classes)
    }

    /// Partitioned in-place Gauss–Seidel smoothing: part interiors in
    /// parallel (one cache-resident block per part), interface vertices
    /// by color class. Race-free, bitwise-deterministic for any
    /// `num_threads`, and exactly serial Gauss–Seidel under
    /// [`part_major_visit_order`](Self::part_major_visit_order).
    pub fn smooth(&self, mesh: &mut TriMesh, num_threads: usize) -> SmoothReport {
        assert!(num_threads >= 1, "need at least one thread");
        assert_eq!(
            mesh.num_vertices(),
            self.engine.adj.num_vertices(),
            "engine was built for a different mesh"
        );
        // engine-cached persistent pool: workers are spawned on the first
        // run at this thread count and parked between phases thereafter
        let pool = self.engine.pool.get(num_threads);
        let dom = self.engine.domain();
        smooth_partitioned_on(
            &dom,
            &DomainConfig::from(&self.engine.params),
            &self.blocks,
            &self.interface_classes,
            mesh.coords_mut(),
            &pool,
        )
    }
}

/// Build one part's local topology. `g2l` and `elem_l` are
/// `u32::MAX`-filled scratch maps of global→local ids, restored before
/// returning.
fn build_block<const C: usize, D: SmoothDomain<C>>(
    dom: &D,
    partition: &Partition,
    p: u32,
    g2l: &mut [u32],
    elem_l: &mut [u32],
) -> PartBlock<C> {
    let elements = dom.elements();
    let owned: Vec<u32> = partition.part(p).to_vec();
    for (i, &v) in owned.iter().enumerate() {
        g2l[v as usize] = i as u32;
    }

    let mut sweep_globals = Vec::new();
    let mut sweep_locals = Vec::new();
    for (i, &v) in owned.iter().enumerate() {
        if !partition.is_interface(v) && dom.is_interior(v) {
            sweep_globals.push(v);
            sweep_locals.push(i as u32);
        }
    }

    // local element set: the sweep vertices' stars (corners are all
    // owned — a part-interior vertex's ring is owned by construction)
    let mut elem_globals: Vec<u32> =
        sweep_globals.iter().flat_map(|&v| dom.elements_of(v).iter().copied()).collect();
    elem_globals.sort_unstable();
    elem_globals.dedup();
    for (i, &t) in elem_globals.iter().enumerate() {
        elem_l[t as usize] = i as u32;
    }
    let elem_corners: Vec<[u32; C]> = elem_globals
        .iter()
        .map(|&t| {
            elements[t as usize].map(|c| {
                debug_assert_ne!(
                    g2l[c as usize],
                    u32::MAX,
                    "sweep-star corner not owned by its part"
                );
                g2l[c as usize]
            })
        })
        .collect();

    let mut nbr_offsets = Vec::with_capacity(sweep_globals.len() + 1);
    nbr_offsets.push(0u32);
    let mut nbrs = Vec::new();
    let mut vt_offsets = Vec::with_capacity(sweep_globals.len() + 1);
    vt_offsets.push(0u32);
    let mut vt = Vec::new();
    for &v in &sweep_globals {
        nbrs.extend(dom.neighbors(v).iter().map(|&w| g2l[w as usize]));
        nbr_offsets.push(nbrs.len() as u32);
        vt.extend(dom.elements_of(v).iter().map(|&t| elem_l[t as usize]));
        vt_offsets.push(vt.len() as u32);
    }

    let movable_iface = |v: u32| partition.is_interface(v) && dom.is_interior(v);
    let iface_refresh: Vec<(u32, u32)> = owned
        .iter()
        .enumerate()
        .filter(|&(_, &v)| movable_iface(v))
        .map(|(i, &v)| (i as u32, v))
        .collect();
    let frontier_elems: Vec<u32> = elem_globals
        .iter()
        .enumerate()
        .filter(|&(_, &t)| elements[t as usize].iter().any(|&c| movable_iface(c)))
        .map(|(i, _)| i as u32)
        .collect();

    for &t in &elem_globals {
        elem_l[t as usize] = u32::MAX;
    }
    for &v in &owned {
        g2l[v as usize] = u32::MAX;
    }
    PartBlock {
        owned,
        sweep_globals,
        sweep_locals,
        nbr_offsets,
        nbrs,
        elem_globals,
        elem_corners,
        vt_offsets,
        vt,
        iface_refresh,
        frontier_elems,
    }
}

/// Convenience: decompose, build the engine and run the partitioned
/// smoother in one call. Takes the parameters by value — they are moved
/// into the engine, never cloned (callers that keep a parameter set
/// around clone at the call site, once, explicitly).
pub fn smooth_partitioned(
    mesh: &mut TriMesh,
    params: SmoothParams,
    num_parts: usize,
    method: PartitionMethod,
    num_threads: usize,
) -> SmoothReport {
    PartitionedEngine::by_method(mesh, params, num_parts, method).smooth(mesh, num_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_mesh::generators;

    #[test]
    fn improves_quality_and_pins_boundary() {
        let mut m = generators::perturbed_grid(20, 20, 0.4, 1);
        let before = m.coords().to_vec();
        let engine =
            PartitionedEngine::by_method(&m, SmoothParams::paper(), 4, PartitionMethod::Rcb);
        let report = engine.smooth(&mut m, 2);
        assert!(report.final_quality > report.initial_quality + 0.01);
        for v in engine.engine().boundary().boundary_vertices() {
            assert_eq!(m.coords()[v as usize], before[v as usize], "boundary vertex {v} moved");
        }
    }

    #[test]
    fn single_part_equals_serial_storage_order() {
        // k = 1: no interfaces, one block sweeping all interiors ascending
        // — exactly the serial engine's storage-order sweep.
        let m = generators::perturbed_grid(14, 14, 0.35, 3);
        let params = SmoothParams::paper().with_smart(true).with_max_iters(6).with_tol(-1.0);
        let part_engine = PartitionedEngine::by_method(&m, params.clone(), 1, PartitionMethod::Rcb);
        assert!(part_engine.interface_classes().is_empty());
        let mut a = m.clone();
        part_engine.smooth(&mut a, 3);
        let mut b = m.clone();
        SmoothEngine::new(&m, params).smooth(&mut b);
        assert_eq!(a.coords(), b.coords());
    }

    #[test]
    fn part_major_order_covers_interior_once() {
        let m = generators::perturbed_grid(13, 17, 0.3, 9);
        let engine =
            PartitionedEngine::by_method(&m, SmoothParams::paper(), 5, PartitionMethod::Hilbert);
        let order = engine.part_major_visit_order();
        assert_eq!(order.len(), engine.engine().boundary().num_interior());
        let mut seen = vec![false; m.num_vertices()];
        for &v in &order {
            assert!(engine.engine().boundary().is_interior(v));
            assert!(!seen[v as usize], "vertex {v} visited twice");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn rejects_jacobi_params() {
        let m = generators::perturbed_grid(8, 8, 0.2, 1);
        let params = SmoothParams::paper().with_update(UpdateScheme::Jacobi);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PartitionedEngine::by_method(&m, params, 2, PartitionMethod::Rcb)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn convenience_wrapper_runs() {
        let mut m = generators::perturbed_grid(12, 12, 0.35, 2);
        let report = smooth_partitioned(
            &mut m,
            SmoothParams::paper().with_max_iters(10),
            3,
            PartitionMethod::Morton,
            2,
        );
        assert!(report.final_quality > report.initial_quality);
    }
}
