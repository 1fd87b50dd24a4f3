//! Global placement: simulated annealing over the cluster graph with
//! region capacity constraints and bin-based congestion control.
//!
//! The placer assigns every movable cluster (logic groups and SRAM
//! macros) a position inside one of the floorplan's placeable regions,
//! minimising inter-cluster half-perimeter wirelength (HPWL) plus a
//! density-overflow penalty. Fixed clusters (the RRAM macro, the IO
//! ring) anchor the optimisation. Capacity accounting is geometric, as
//! defined by [`Region`].
//!
//! # Grouped cost bookkeeping
//!
//! Most inter-cluster nets repeat the cluster set of another net (a
//! 32-bit bus between two PEs is 32 nets over the same two clusters),
//! and nets with equal cluster sets have equal bounding boxes. The
//! annealer therefore groups nets by cluster set and caches one HPWL per
//! group. A move recomputes each of the moved cluster's groups once,
//! then forms the HPWL change by replaying, in net order over the
//! cluster's nets, `d -= old` for every net followed by `d += new` for
//! every net, with each net reading its group's cached old and proposed
//! values. Cached values are written back only when the move is
//! accepted.
//!
//! **Invariant:** every cached group HPWL equals, bit for bit, the
//! bounding box of its clusters at the current positions. Because the
//! replay performs the same floating-point operations in the same order
//! as summing per-net boxes would, every cost, accept decision, RNG
//! draw, [`Placement`] and `place` span is bit-identical to per-net
//! evaluation; the tests hold the placer to a per-net reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use m3d_tech::units::{Microns, SquareMicrons};
use m3d_tech::SpanNode;

use crate::cluster::{Cluster, ClusterKind, Clustering};
use crate::error::{PdError, PdResult};
use crate::floorplan::{Floorplan, Region};
use crate::geom::{BoundingBox, Point, Rect};
use crate::observe::round_counter;

/// Placer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacerConfig {
    /// RNG seed (placement is deterministic for a fixed seed).
    pub seed: u64,
    /// Annealing moves per movable cluster per temperature step.
    pub moves_per_cluster: usize,
    /// Number of temperature steps.
    pub temperature_steps: usize,
    /// Geometric cooling factor per step.
    pub cooling: f64,
    /// Density bin edge length in microns.
    pub bin_size_um: f64,
    /// Weight of the density-overflow penalty (µm of HPWL per µm² of
    /// overflow).
    pub overflow_weight: f64,
}

impl m3d_tech::StableHash for PlacerConfig {
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        self.seed.stable_hash(h);
        self.moves_per_cluster.stable_hash(h);
        self.temperature_steps.stable_hash(h);
        self.cooling.stable_hash(h);
        self.bin_size_um.stable_hash(h);
        self.overflow_weight.stable_hash(h);
    }
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            seed: 0x4D3D_2023,
            moves_per_cluster: 8,
            temperature_steps: 25,
            cooling: 0.82,
            bin_size_um: 500.0,
            overflow_weight: 0.05,
        }
    }
}

impl PlacerConfig {
    /// A fast low-effort profile for tests and quick experiments.
    pub fn quick() -> Self {
        Self {
            temperature_steps: 6,
            moves_per_cluster: 4,
            ..Self::default()
        }
    }
}

/// A finished placement.
///
/// Serialisable so the on-disk artifact store can persist placements and
/// warm-start later runs of neighbouring configurations from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Cluster centre positions (indexed like `Clustering::clusters`).
    pub cluster_pos: Vec<Point>,
    /// Region index each movable cluster landed in (`usize::MAX` for
    /// fixed clusters).
    pub cluster_region: Vec<usize>,
    /// Derived per-cell positions (indexed like `Netlist::cells`).
    pub cell_pos: Vec<Point>,
    /// Derived per-macro positions (indexed like `Netlist::macros`).
    pub macro_pos: Vec<Point>,
    /// Final inter-cluster HPWL.
    pub inter_hpwl: Microns,
    /// Estimated intra-cluster wirelength.
    pub intra_wl: Microns,
    /// HPWL of the deterministic initial placement (before annealing).
    pub initial_hpwl: Microns,
    /// Final density overflow (µm² of demand above bin capacity).
    pub overflow: SquareMicrons,
}

impl Placement {
    /// Total estimated wirelength: inter-cluster + intra-cluster.
    pub fn total_wirelength(&self) -> Microns {
        self.inter_hpwl + self.intra_wl
    }
}

/// Geometric area a cluster demands inside `region`.
fn demand_geo(cluster: &Cluster, region: &Region) -> f64 {
    match cluster.kind {
        ClusterKind::Logic => cluster.area.value() / region.cell_utilization.max(1e-6),
        ClusterKind::SramMacro(_) => cluster.area.value(),
        _ => 0.0,
    }
}

/// Side of the square footprint a cluster occupies inside `region`.
fn footprint_side(cluster: &Cluster, region: &Region) -> f64 {
    demand_geo(cluster, region).max(0.0).sqrt()
}

struct Bins {
    nx: usize,
    ny: usize,
    size: f64,
    origin: (f64, f64),
    capacity: Vec<f64>,
    used: Vec<f64>,
}

impl Bins {
    fn new(fp: &Floorplan, bin_size: f64) -> Self {
        let w = fp.die.width().value();
        let h = fp.die.height().value();
        let nx = (w / bin_size).ceil().max(1.0) as usize;
        let ny = (h / bin_size).ceil().max(1.0) as usize;
        let mut capacity = vec![0.0; nx * ny];
        for by in 0..ny {
            for bx in 0..nx {
                let r = Rect::new(
                    fp.die.x0.value() + bx as f64 * bin_size,
                    fp.die.y0.value() + by as f64 * bin_size,
                    (fp.die.x0.value() + (bx + 1) as f64 * bin_size).min(fp.die.x1.value()),
                    (fp.die.y0.value() + (by + 1) as f64 * bin_size).min(fp.die.y1.value()),
                );
                let mut cap = 0.0;
                for region in &fp.regions {
                    if let Some(i) = r.intersection(&region.rect) {
                        cap += i.area().value() * region.availability;
                    }
                }
                capacity[by * nx + bx] = cap;
            }
        }
        Self {
            nx,
            ny,
            size: bin_size,
            origin: (fp.die.x0.value(), fp.die.y0.value()),
            capacity,
            used: vec![0.0; nx * ny],
        }
    }

    fn block_for(&self, p: Point, side: f64) -> (usize, usize, usize, usize) {
        let half = side / 2.0;
        let x0 = ((p.x.value() - half - self.origin.0) / self.size)
            .floor()
            .max(0.0) as usize;
        let y0 = ((p.y.value() - half - self.origin.1) / self.size)
            .floor()
            .max(0.0) as usize;
        let x1 =
            (((p.x.value() + half - self.origin.0) / self.size).floor() as usize).min(self.nx - 1);
        let y1 =
            (((p.y.value() + half - self.origin.1) / self.size).floor() as usize).min(self.ny - 1);
        (x0.min(self.nx - 1), y0.min(self.ny - 1), x1, y1)
    }

    /// Adds (`sign = +1`) or removes (`sign = -1`) a cluster's demand at
    /// `p`, returning the change in total overflow.
    fn apply(&mut self, p: Point, side: f64, demand: f64, sign: f64) -> f64 {
        let (x0, y0, x1, y1) = self.block_for(p, side);
        let nbins = ((x1.saturating_sub(x0) + 1) * (y1.saturating_sub(y0) + 1)) as f64;
        let per_bin = demand / nbins;
        let mut delta = 0.0;
        for by in y0..=y1 {
            for bx in x0..=x1 {
                let i = by * self.nx + bx;
                let before = (self.used[i] - self.capacity[i]).max(0.0);
                self.used[i] += sign * per_bin;
                let after = (self.used[i] - self.capacity[i]).max(0.0);
                delta += after - before;
            }
        }
        delta
    }

    fn total_overflow(&self) -> f64 {
        self.used
            .iter()
            .zip(&self.capacity)
            .map(|(u, c)| (u - c).max(0.0))
            .sum()
    }
}

/// HPWL of the bounding box of `clusters` at `pos`.
fn box_hpwl(clusters: &[u32], pos: &[Point]) -> f64 {
    let mut bb = BoundingBox::new();
    for &c in clusters {
        bb.include(pos[c as usize]);
    }
    bb.hpwl().value()
}

/// Inter-cluster HPWL bookkeeping behind the annealer's moves.
trait HpwlCost<'a>: Sized {
    /// Builds the bookkeeping at positions `pos`, returning it with the
    /// total HPWL summed in net order.
    fn build(clustering: &'a Clustering, pos: &[Point]) -> (Self, f64);

    /// Moves cluster `ci` to `to` in `pos` and returns the HPWL change,
    /// accumulated as `-old` for each of the cluster's nets in net
    /// order, then `+new` for each.
    fn propose(&mut self, pos: &mut [Point], ci: usize, to: Point) -> f64;

    /// Keeps the last proposal for cluster `ci`. On rejection the caller
    /// restores `pos` instead.
    fn accept(&mut self, ci: usize);
}

/// The production cost model: one cached HPWL per group of nets that
/// share a cluster set (see the module docs).
struct GroupedNets {
    /// Member clusters of group `g`: `members[member_start[g]..member_start[g + 1]]`.
    members: Vec<u32>,
    member_start: Vec<usize>,
    /// HPWL of each group at the current positions.
    hpwl: Vec<f64>,
    /// HPWL of each of the last moved cluster's groups at its proposed
    /// position.
    proposed: Vec<f64>,
    /// Per cluster, the group of each of its nets, in net order.
    net_groups: Vec<Vec<u32>>,
    /// Per cluster, its distinct groups.
    groups: Vec<Vec<u32>>,
}

impl GroupedNets {
    fn members(&self, g: usize) -> &[u32] {
        &self.members[self.member_start[g]..self.member_start[g + 1]]
    }
}

impl HpwlCost<'_> for GroupedNets {
    fn build(clustering: &Clustering, pos: &[Point]) -> (Self, f64) {
        let mut group_of: std::collections::HashMap<&[u32], u32> = Default::default();
        let mut members = Vec::new();
        let mut member_start = vec![0];
        let mut net_groups = vec![Vec::new(); clustering.clusters.len()];
        let mut group_of_net = Vec::with_capacity(clustering.nets.len());
        for net in &clustering.nets {
            let g = *group_of.entry(&net.clusters).or_insert_with(|| {
                members.extend_from_slice(&net.clusters);
                member_start.push(members.len());
                (member_start.len() - 2) as u32
            });
            group_of_net.push(g);
            for &c in &net.clusters {
                net_groups[c as usize].push(g);
            }
        }
        let groups = net_groups
            .iter()
            .map(|gs| {
                let mut distinct = gs.clone();
                distinct.sort_unstable();
                distinct.dedup();
                distinct
            })
            .collect();
        let hpwl: Vec<f64> = member_start
            .windows(2)
            .map(|w| box_hpwl(&members[w[0]..w[1]], pos))
            .collect();
        let total = group_of_net.iter().map(|&g| hpwl[g as usize]).sum();
        let proposed = vec![0.0; hpwl.len()];
        let cost = Self {
            members,
            member_start,
            hpwl,
            proposed,
            net_groups,
            groups,
        };
        (cost, total)
    }

    fn propose(&mut self, pos: &mut [Point], ci: usize, to: Point) -> f64 {
        pos[ci] = to;
        for &g in &self.groups[ci] {
            self.proposed[g as usize] = box_hpwl(self.members(g as usize), pos);
        }
        let nets = &self.net_groups[ci];
        let mut d_hpwl = 0.0;
        for &g in nets {
            d_hpwl -= self.hpwl[g as usize];
        }
        for &g in nets {
            d_hpwl += self.proposed[g as usize];
        }
        d_hpwl
    }

    fn accept(&mut self, ci: usize) {
        for &g in &self.groups[ci] {
            self.hpwl[g as usize] = self.proposed[g as usize];
        }
    }
}

/// Runs global placement.
///
/// # Errors
///
/// Returns [`PdError::DoesNotFit`] when the movable clusters cannot be
/// packed into the floorplan's regions.
pub fn place(
    clustering: &Clustering,
    floorplan: &Floorplan,
    config: &PlacerConfig,
) -> PdResult<Placement> {
    place_traced(clustering, floorplan, config).map(|(p, _)| p)
}

/// [`place`], additionally returning a `place` [`SpanNode`] with one
/// child per annealing temperature step (move/accept counts, rounded
/// HPWL and density overflow after the step). The span is fully
/// deterministic for a fixed seed, so traced placements diff clean.
///
/// # Errors
///
/// Same as [`place`].
pub fn place_traced(
    clustering: &Clustering,
    floorplan: &Floorplan,
    config: &PlacerConfig,
) -> PdResult<(Placement, SpanNode)> {
    anneal::<GroupedNets>(clustering, floorplan, config).map(|(p, span, _)| (p, span))
}

/// The placer over cost model `C`, which it also returns in its final
/// state.
fn anneal<'a, C: HpwlCost<'a>>(
    clustering: &'a Clustering,
    floorplan: &Floorplan,
    config: &PlacerConfig,
) -> PdResult<(Placement, SpanNode, C)> {
    let n = clustering.clusters.len();
    let mut pos = vec![Point::default(); n];
    let mut region_of = vec![usize::MAX; n];
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- Fixed clusters -------------------------------------------------
    for (i, c) in clustering.clusters.iter().enumerate() {
        match c.kind {
            ClusterKind::Io => {
                pos[i] = Point {
                    x: floorplan.die.center().x,
                    y: floorplan.die.y0,
                };
            }
            ClusterKind::RramMacro(_) => {
                pos[i] = floorplan.rram_periph().rect.center();
            }
            _ => {}
        }
    }

    // --- Deterministic initial packing (hierarchy order) ----------------
    let mut region_used = vec![0.0f64; floorplan.regions.len()];
    let region_cap: Vec<f64> = floorplan
        .regions
        .iter()
        .map(|r| r.usable_area().value())
        .collect();
    let movable: Vec<usize> = (0..n)
        .filter(|&i| clustering.clusters[i].is_movable())
        .collect();
    {
        let mut cursor: Vec<(f64, f64, f64)> = floorplan
            .regions
            .iter()
            .map(|r| (r.rect.x0.value(), r.rect.y0.value(), 0.0))
            .collect();
        for &ci in &movable {
            let c = &clustering.clusters[ci];
            let mut placed = false;
            for (ri, region) in floorplan.regions.iter().enumerate() {
                let demand = demand_geo(c, region);
                if region_used[ri] + demand > region_cap[ri] {
                    continue;
                }
                // Spread the packing with the availability derate so the
                // initial layout is not artificially congested.
                let side = (demand / region.availability.max(1e-6)).sqrt().max(1.0);
                let (ref mut cx, ref mut cy, ref mut row_h) = cursor[ri];
                if *cx + side > region.rect.x1.value() {
                    *cx = region.rect.x0.value();
                    *cy += *row_h;
                    *row_h = 0.0;
                }
                if *cy + side > region.rect.y1.value() {
                    // Region geometrically full; wrap to start (capacity
                    // check still guards total demand).
                    *cy = region.rect.y0.value();
                }
                pos[ci] = Point::new(*cx + side / 2.0, *cy + side / 2.0);
                *cx += side;
                *row_h = row_h.max(side);
                region_of[ci] = ri;
                region_used[ri] += demand;
                placed = true;
                break;
            }
            if !placed {
                return Err(PdError::DoesNotFit {
                    required_mm2: clustering.movable_area().as_mm2(),
                    available_mm2: floorplan.capacity().as_mm2(),
                    resource: "free Si placement area",
                });
            }
        }
    }

    // --- Cost bookkeeping -------------------------------------------------
    let (mut cost, mut hpwl_total) = C::build(clustering, &pos);
    let initial_hpwl = hpwl_total;

    let mut bins = Bins::new(floorplan, config.bin_size_um);
    for &ci in &movable {
        let c = &clustering.clusters[ci];
        let region = &floorplan.regions[region_of[ci]];
        bins.apply(
            pos[ci],
            footprint_side(c, region),
            demand_geo(c, region),
            1.0,
        );
    }

    // --- Simulated annealing ----------------------------------------------
    let mut span = SpanNode::new("place");
    span.counter("clusters", n as u64);
    span.counter("movable", movable.len() as u64);
    span.counter("nets", clustering.nets.len() as u64);
    span.counter("initial_hpwl_um", round_counter(initial_hpwl));
    if !movable.is_empty() && !clustering.nets.is_empty() {
        let mut temp = floorplan.die.width().value().max(1.0);
        for step in 0..config.temperature_steps {
            let mut moves = 0u64;
            let mut accepted = 0u64;
            for _ in 0..config.moves_per_cluster * movable.len() {
                moves += 1;
                let ci = movable[rng.gen_range(0..movable.len())];
                let c = &clustering.clusters[ci];
                let ri_new = rng.gen_range(0..floorplan.regions.len());
                let region_new = &floorplan.regions[ri_new];
                let ri_old = region_of[ci];
                let region_old = &floorplan.regions[ri_old];
                let d_new = demand_geo(c, region_new);
                let d_old = demand_geo(c, region_old);
                if ri_new != ri_old && region_used[ri_new] + d_new > region_cap[ri_new] {
                    continue;
                }
                let side_new = footprint_side(c, region_new);
                let side_old = footprint_side(c, region_old);
                let margin = side_new / 2.0;
                let inner = region_new.rect.shrunk(Microns::new(margin));
                let lo_x = inner.x0.value();
                let hi_x = inner.x1.value().max(lo_x);
                let lo_y = inner.y0.value();
                let hi_y = inner.y1.value().max(lo_y);
                let new_p = Point::new(rng.gen_range(lo_x..=hi_x), rng.gen_range(lo_y..=hi_y));
                let old_p = pos[ci];

                let d_hpwl = cost.propose(&mut pos, ci, new_p);
                // Delta overflow.
                let d_of_rm = bins.apply(old_p, side_old, d_old, -1.0);
                let d_of_add = bins.apply(new_p, side_new, d_new, 1.0);
                let d_cost = d_hpwl + config.overflow_weight * (d_of_rm + d_of_add);

                let accept = d_cost <= 0.0 || rng.gen::<f64>() < (-d_cost / temp).exp();
                if accept {
                    accepted += 1;
                    cost.accept(ci);
                    hpwl_total += d_hpwl;
                    if ri_new != ri_old {
                        region_used[ri_old] -= d_old;
                        region_used[ri_new] += d_new;
                        region_of[ci] = ri_new;
                    }
                } else {
                    // Roll back.
                    bins.apply(new_p, side_new, d_new, -1.0);
                    bins.apply(old_p, side_old, d_old, 1.0);
                    pos[ci] = old_p;
                }
            }
            let mut step_span = SpanNode::new(format!("step{step}"));
            step_span.counter("moves", moves);
            step_span.counter("accepted", accepted);
            step_span.counter("hpwl_um", round_counter(hpwl_total));
            step_span.counter("overflow_um2", round_counter(bins.total_overflow()));
            span.children.push(step_span);
            temp *= config.cooling;
        }
    }
    span.counter("steps", span.children.len() as u64);
    span.counter("final_hpwl_um", round_counter(hpwl_total));
    span.counter("overflow_um2", round_counter(bins.total_overflow()));

    // --- Derive per-cell and per-macro positions ---------------------------
    let mut cell_pos = vec![Point::default(); clustering.cell_cluster.len()];
    for (ci, c) in clustering.clusters.iter().enumerate() {
        if c.cells.is_empty() {
            continue;
        }
        let side = match floorplan.regions.get(region_of[ci]) {
            Some(region) => footprint_side(c, region),
            None => (c.area.value() / 0.7).sqrt(),
        };
        let grid = (c.cells.len() as f64).sqrt().ceil().max(1.0) as usize;
        let pitch = side / grid as f64;
        for (k, &cell) in c.cells.iter().enumerate() {
            let gx = (k % grid) as f64;
            let gy = (k / grid) as f64;
            cell_pos[cell as usize] = Point::new(
                pos[ci].x.value() - side / 2.0 + (gx + 0.5) * pitch,
                pos[ci].y.value() - side / 2.0 + (gy + 0.5) * pitch,
            );
        }
    }
    let macro_count = clustering
        .clusters
        .iter()
        .filter(|c| {
            matches!(
                c.kind,
                ClusterKind::SramMacro(_) | ClusterKind::RramMacro(_)
            )
        })
        .count();
    let mut macro_pos = vec![Point::default(); macro_count];
    for (ci, c) in clustering.clusters.iter().enumerate() {
        if let ClusterKind::SramMacro(i) | ClusterKind::RramMacro(i) = c.kind {
            if i < macro_pos.len() {
                macro_pos[i] = pos[ci];
            }
        }
    }

    let intra: f64 = clustering
        .clusters
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let side = match floorplan.regions.get(region_of[ci]) {
                Some(region) => footprint_side(c, region),
                None => (c.area.value() / 0.7).sqrt(),
            };
            clustering.intra_net_count[ci] as f64 * 0.5 * side
        })
        .sum();

    Ok((
        Placement {
            cluster_pos: pos,
            cluster_region: region_of,
            cell_pos,
            macro_pos,
            inter_hpwl: Microns::new(hpwl_total),
            intra_wl: Microns::new(intra),
            initial_hpwl: Microns::new(initial_hpwl),
            overflow: SquareMicrons::new(bins.total_overflow()),
        },
        span,
        cost,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{accelerator_soc, CsConfig, Netlist, PeConfig, SocConfig};
    use m3d_tech::Pdk;

    fn small_cs() -> CsConfig {
        CsConfig {
            rows: 4,
            cols: 4,
            pe: PeConfig::default(),
            global_buffer_kb: 64,
            local_buffer_kb: 8,
        }
    }

    fn setup_2d() -> (Clustering, Floorplan) {
        let cfg = SocConfig {
            cs: small_cs(),
            ..SocConfig::baseline_2d()
        };
        let mut nl = Netlist::new("soc");
        accelerator_soc(&mut nl, &cfg).unwrap();
        let pdk = Pdk::baseline_2d_130nm();
        let fp = Floorplan::plan(&pdk, &cfg, &nl, None).unwrap();
        let cl = Clustering::build(&nl, &pdk).unwrap();
        (cl, fp)
    }

    /// The per-net cost model the grouped one replaced: every net's
    /// bounding box recomputed on every move. The reference the
    /// production annealer must match bit for bit.
    struct PerNet<'a> {
        clustering: &'a Clustering,
        cluster_nets: Vec<Vec<u32>>,
    }

    impl<'a> HpwlCost<'a> for PerNet<'a> {
        fn build(clustering: &'a Clustering, pos: &[Point]) -> (Self, f64) {
            let mut cluster_nets = vec![Vec::new(); clustering.clusters.len()];
            for (ni, net) in clustering.nets.iter().enumerate() {
                for &c in &net.clusters {
                    cluster_nets[c as usize].push(ni as u32);
                }
            }
            let total = clustering
                .nets
                .iter()
                .map(|net| box_hpwl(&net.clusters, pos))
                .sum();
            (
                Self {
                    clustering,
                    cluster_nets,
                },
                total,
            )
        }

        fn propose(&mut self, pos: &mut [Point], ci: usize, to: Point) -> f64 {
            let nets = &self.clustering.nets;
            let mut d_hpwl = 0.0;
            for &ni in &self.cluster_nets[ci] {
                d_hpwl -= box_hpwl(&nets[ni as usize].clusters, pos);
            }
            pos[ci] = to;
            for &ni in &self.cluster_nets[ci] {
                d_hpwl += box_hpwl(&nets[ni as usize].clusters, pos);
            }
            d_hpwl
        }

        fn accept(&mut self, _ci: usize) {}
    }

    /// Every `f64` of a placement as bits, plus its region assignment.
    fn placement_bits(p: &Placement) -> (Vec<u64>, &[usize]) {
        let points = p.cluster_pos.iter().chain(&p.cell_pos).chain(&p.macro_pos);
        let mut bits: Vec<u64> = points
            .flat_map(|pt| [pt.x.value().to_bits(), pt.y.value().to_bits()])
            .collect();
        bits.extend(
            [
                p.inter_hpwl.value(),
                p.intra_wl.value(),
                p.initial_hpwl.value(),
                p.overflow.value(),
            ]
            .map(f64::to_bits),
        );
        (bits, &p.cluster_region)
    }

    /// Small designs the equivalence property anneals: the small-CS 2D
    /// baseline, the 2D design ingested back from its structural
    /// Verilog, and iso-footprint M3D(2) and M3D(4) (the RRAM banks do
    /// not split three ways).
    fn designs() -> &'static [(&'static str, Clustering, Floorplan)] {
        static DESIGNS: std::sync::OnceLock<Vec<(&str, Clustering, Floorplan)>> =
            std::sync::OnceLock::new();
        DESIGNS.get_or_init(|| {
            let cfg2d = SocConfig {
                cs: small_cs(),
                ..SocConfig::baseline_2d()
            };
            let pdk2d = Pdk::baseline_2d_130nm();
            let mut nl2d = Netlist::new("soc");
            accelerator_soc(&mut nl2d, &cfg2d).unwrap();
            let fp2d = Floorplan::plan(&pdk2d, &cfg2d, &nl2d, None).unwrap();
            let ingested = m3d_netlist::from_verilog(&m3d_netlist::to_verilog(&nl2d)).unwrap();
            let mut out = vec![
                (
                    "2d",
                    Clustering::build(&nl2d, &pdk2d).unwrap(),
                    fp2d.clone(),
                ),
                (
                    "ingested",
                    Clustering::build(&ingested, &pdk2d).unwrap(),
                    Floorplan::plan(&pdk2d, &cfg2d, &ingested, None).unwrap(),
                ),
            ];
            let pdk3d = Pdk::m3d_130nm();
            for (name, cs_count) in [("m3d2", 2), ("m3d4", 4)] {
                let cfg = SocConfig {
                    cs: small_cs(),
                    ..SocConfig::m3d(cs_count)
                };
                let mut nl = Netlist::new(name);
                accelerator_soc(&mut nl, &cfg).unwrap();
                let fp = Floorplan::plan(&pdk3d, &cfg, &nl, Some(fp2d.die)).unwrap();
                out.push((name, Clustering::build(&nl, &pdk3d).unwrap(), fp));
            }
            out
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn grouped_annealer_matches_the_per_net_reference(
            design in 0usize..4,
            seed in 0u64..u64::MAX,
            quick in proptest::prelude::prop_oneof![
                proptest::prelude::Just(true),
                proptest::prelude::Just(false)
            ],
            bin_size_um in proptest::prelude::prop_oneof![
                proptest::prelude::Just(150.0),
                proptest::prelude::Just(500.0),
                proptest::prelude::Just(1200.0)
            ],
        ) {
            let (name, cl, fp) = &designs()[design];
            let base = if quick { PlacerConfig::quick() } else { PlacerConfig::default() };
            let cfg = PlacerConfig { seed, bin_size_um, ..base };
            let (want, want_span, _) = anneal::<PerNet>(cl, fp, &cfg).unwrap();
            let (got, got_span) = place_traced(cl, fp, &cfg).unwrap();
            let case = format!("{name} seed={seed} quick={quick} bin={bin_size_um}");
            proptest::prop_assert_eq!(placement_bits(&got), placement_bits(&want), "{}", case);
            proptest::prop_assert_eq!(got_span, want_span, "{}", case);
        }
    }

    #[test]
    fn cached_group_hpwl_matches_a_fresh_bounding_box_after_annealing() {
        for (name, cl, fp) in designs() {
            let (p, _, cost) = anneal::<GroupedNets>(cl, fp, &PlacerConfig::default()).unwrap();
            assert!(cost.hpwl.len() < cl.nets.len(), "{name}: nets share groups");
            for (g, cached) in cost.hpwl.iter().enumerate() {
                let fresh = box_hpwl(cost.members(g), &p.cluster_pos);
                assert_eq!(cached.to_bits(), fresh.to_bits(), "{name} group {g}");
            }
            // Each cluster lists, in net order, the group of its own
            // cluster set for every net it is on.
            let mut seen = vec![0usize; cl.clusters.len()];
            for (ni, net) in cl.nets.iter().enumerate() {
                for &c in &net.clusters {
                    let g = cost.net_groups[c as usize][seen[c as usize]] as usize;
                    seen[c as usize] += 1;
                    assert_eq!(cost.members(g), &net.clusters[..], "{name} net {ni}");
                }
            }
        }
    }

    #[test]
    fn placement_is_legal() {
        let (cl, fp) = setup_2d();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        for (ci, c) in cl.clusters.iter().enumerate() {
            if !c.is_movable() {
                continue;
            }
            let ri = p.cluster_region[ci];
            assert!(ri < fp.regions.len(), "cluster {} has no region", c.name);
            assert!(
                fp.regions[ri].rect.contains(p.cluster_pos[ci]),
                "cluster {} centre outside its region",
                c.name
            );
        }
        for pt in &p.cell_pos {
            assert!(
                pt.x >= fp.die.x0 && pt.x <= fp.die.x1 && pt.y >= fp.die.y0 && pt.y <= fp.die.y1,
                "cell off-die at {pt:?}"
            );
        }
    }

    #[test]
    fn region_capacity_respected() {
        let (cl, fp) = setup_2d();
        let p = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let mut used = vec![0.0; fp.regions.len()];
        for (ci, c) in cl.clusters.iter().enumerate() {
            if c.is_movable() {
                let ri = p.cluster_region[ci];
                used[ri] += demand_geo(c, &fp.regions[ri]);
            }
        }
        for (ri, u) in used.iter().enumerate() {
            assert!(
                *u <= fp.regions[ri].usable_area().value() * (1.0 + 1e-9),
                "region {ri} over capacity"
            );
        }
    }

    #[test]
    fn annealing_does_not_worsen_wirelength_much() {
        let (cl, fp) = setup_2d();
        let p = place(&cl, &fp, &PlacerConfig::default()).unwrap();
        assert!(
            p.inter_hpwl.value() <= p.initial_hpwl.value() * 1.05,
            "final {} vs initial {}",
            p.inter_hpwl,
            p.initial_hpwl
        );
        assert!(p.total_wirelength() > Microns::ZERO);
    }

    #[test]
    fn traced_placement_matches_untraced_and_records_steps() {
        let (cl, fp) = setup_2d();
        let cfg = PlacerConfig::quick();
        let (p, span) = place_traced(&cl, &fp, &cfg).unwrap();
        let q = place(&cl, &fp, &cfg).unwrap();
        assert_eq!(p, q, "tracing must not perturb the placement");
        assert_eq!(span.name, "place");
        assert_eq!(span.children.len(), cfg.temperature_steps);
        assert_eq!(
            span.counter_value("steps"),
            Some(cfg.temperature_steps as u64)
        );
        let s0 = span.find("step0").unwrap();
        assert_eq!(
            s0.counter_value("moves"),
            Some((cfg.moves_per_cluster * span.counter_value("movable").unwrap() as usize) as u64)
        );
        assert!(s0.counter_value("accepted").unwrap() <= s0.counter_value("moves").unwrap());
        assert_eq!(
            span.counter_value("final_hpwl_um"),
            Some(round_counter(p.inter_hpwl.value()))
        );
    }

    #[test]
    fn placement_is_deterministic_for_fixed_seed() {
        let (cl, fp) = setup_2d();
        let a = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        let b = place(&cl, &fp, &PlacerConfig::quick()).unwrap();
        assert_eq!(a.inter_hpwl, b.inter_hpwl);
        assert_eq!(a.cluster_pos, b.cluster_pos);
    }

    #[test]
    fn m3d_uses_the_under_array_region_when_bottom_is_tight() {
        // Plan the 2D die (sized for 1 CS), then force the 4-CS M3D design
        // into the same outline: the extra CSs must spill under the array.
        let cfg2d = SocConfig {
            cs: small_cs(),
            ..SocConfig::baseline_2d()
        };
        let mut nl2d = Netlist::new("a");
        accelerator_soc(&mut nl2d, &cfg2d).unwrap();
        let pdk2d = Pdk::baseline_2d_130nm();
        let fp2d = Floorplan::plan(&pdk2d, &cfg2d, &nl2d, None).unwrap();

        let cfg3d = SocConfig {
            cs: small_cs(),
            ..SocConfig::m3d(4)
        };
        let mut nl3d = Netlist::new("b");
        accelerator_soc(&mut nl3d, &cfg3d).unwrap();
        let pdk3d = Pdk::m3d_130nm();
        let fp3d = Floorplan::plan(&pdk3d, &cfg3d, &nl3d, Some(fp2d.die)).unwrap();
        let cl = Clustering::build(&nl3d, &pdk3d).unwrap();
        let p = place(&cl, &fp3d, &PlacerConfig::quick()).unwrap();
        let ua_idx = fp3d
            .regions
            .iter()
            .position(|r| r.kind == crate::floorplan::RegionKind::UnderArray)
            .unwrap();
        let in_ua = p.cluster_region.iter().filter(|&&r| r == ua_idx).count();
        assert!(
            in_ua > 0,
            "M3D placement should use the freed Si under the array"
        );
    }
}
