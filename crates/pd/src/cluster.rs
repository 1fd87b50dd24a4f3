//! Hierarchical clustering of a flat netlist into soft blocks for global
//! placement.
//!
//! Cells are grouped by the leading segments of their hierarchical names
//! (e.g. every cell under `cs0/pe_r3_c7/` forms one cluster), mirroring
//! the hierarchical P&R methodology of large SoCs. SRAM macros become
//! movable hard clusters; the RRAM macro is fixed by the floorplan.
//! The cluster graph (clusters + inter-cluster nets) is what the annealer
//! optimises; intra-cluster wirelength is estimated analytically.

use std::collections::HashMap;

use m3d_netlist::{Driver, MacroKind, Netlist, Sink};
use m3d_tech::units::SquareMicrons;
use m3d_tech::{Pdk, TechResult};

/// What a cluster contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterKind {
    /// A group of standard cells.
    Logic,
    /// One movable SRAM macro (index into the netlist's macro list).
    SramMacro(usize),
    /// The fixed RRAM macro (index into the netlist's macro list).
    RramMacro(usize),
    /// Virtual cluster representing the chip IO ring (fixed at the die
    /// edge).
    Io,
}

/// One placement cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Cluster name (hierarchy prefix or macro name).
    pub name: String,
    /// Contents.
    pub kind: ClusterKind,
    /// Member cell indices (empty for macro/IO clusters).
    pub cells: Vec<u32>,
    /// Placed-footprint demand of the cluster (cell area for logic —
    /// utilisation is applied by the placer; full footprint for macros).
    pub area: SquareMicrons,
}

impl Cluster {
    /// `true` for clusters the placer may move.
    pub fn is_movable(&self) -> bool {
        matches!(self.kind, ClusterKind::Logic | ClusterKind::SramMacro(_))
    }
}

/// One inter-cluster net: the distinct clusters it touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterNet {
    /// Indices of the touched clusters (deduplicated, ≥ 2).
    pub clusters: Vec<u32>,
}

/// The clustered view of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// All clusters. Index 0 is always the IO cluster.
    pub clusters: Vec<Cluster>,
    /// Map from cell index to owning cluster index.
    pub cell_cluster: Vec<u32>,
    /// Inter-cluster nets.
    pub nets: Vec<ClusterNet>,
    /// Per-cluster count of fully internal nets (for intra-WL estimates).
    pub intra_net_count: Vec<u32>,
    /// Nets skipped because their fanout exceeded the global-net
    /// threshold (tie-offs, resets — distributed by special routing).
    pub skipped_global_nets: usize,
}

/// Nets with more sinks than this are treated as globally distributed
/// (constants, resets) and excluded from placement wirelength.
pub const GLOBAL_NET_FANOUT: usize = 64;

/// Clusters with fewer cells than this merge into a per-top-block
/// miscellaneous cluster to keep the cluster graph compact.
pub const MIN_CLUSTER_CELLS: usize = 8;

/// Number of leading hierarchy segments that define a cluster.
pub const CLUSTER_DEPTH: usize = 2;

fn prefix_of(name: &str, depth: usize) -> &str {
    let mut idx = name.len();
    let mut seen = 0;
    for (i, b) in name.bytes().enumerate() {
        if b == b'/' {
            seen += 1;
            if seen == depth {
                idx = i;
                break;
            }
        }
    }
    &name[..idx]
}

impl Clustering {
    /// Builds the clustered view of `netlist` under `pdk`.
    ///
    /// # Errors
    ///
    /// Returns technology errors when a cell is missing from the PDK
    /// libraries (e.g. CNFET cells under the 2D blockage).
    pub fn build(netlist: &Netlist, pdk: &Pdk) -> TechResult<Self> {
        let mut clusters: Vec<Cluster> = vec![Cluster {
            name: "__io__".to_owned(),
            kind: ClusterKind::Io,
            cells: Vec::new(),
            area: SquareMicrons::ZERO,
        }];
        // Keys borrow the cells' names: only a new cluster allocates.
        let mut by_prefix: HashMap<&str, u32> = HashMap::new();

        // --- Group cells by hierarchy prefix ---------------------------
        let mut cell_cluster = vec![0u32; netlist.cell_count()];
        for (i, cell) in netlist.cells().iter().enumerate() {
            let key = prefix_of(netlist.name_of(cell.name), CLUSTER_DEPTH);
            let idx = *by_prefix.entry(key).or_insert_with(|| {
                clusters.push(Cluster {
                    name: key.to_owned(),
                    kind: ClusterKind::Logic,
                    cells: Vec::new(),
                    area: SquareMicrons::ZERO,
                });
                (clusters.len() - 1) as u32
            });
            let lib = pdk.library(cell.tier)?;
            let area = lib.cell(cell.kind, cell.drive)?.area;
            clusters[idx as usize].cells.push(i as u32);
            clusters[idx as usize].area += area;
            cell_cluster[i] = idx;
        }

        // --- Merge tiny clusters into per-top-block misc groups --------
        let mut remap: Vec<u32> = (0..clusters.len() as u32).collect();
        {
            let mut misc_of: HashMap<String, u32> = HashMap::new();
            let tiny: Vec<u32> = clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    matches!(c.kind, ClusterKind::Logic) && c.cells.len() < MIN_CLUSTER_CELLS
                })
                .map(|(i, _)| i as u32)
                .collect();
            for t in tiny {
                let top = prefix_of(&clusters[t as usize].name, 1).to_owned();
                let misc_idx = *misc_of.entry(top.clone()).or_insert_with(|| {
                    clusters.push(Cluster {
                        name: format!("{top}/__misc__"),
                        kind: ClusterKind::Logic,
                        cells: Vec::new(),
                        area: SquareMicrons::ZERO,
                    });
                    (clusters.len() - 1) as u32
                });
                if misc_idx == t {
                    continue;
                }
                let (cells, area) = {
                    let c = &mut clusters[t as usize];
                    (std::mem::take(&mut c.cells), c.area)
                };
                clusters[t as usize].area = SquareMicrons::ZERO;
                let misc = &mut clusters[misc_idx as usize];
                misc.cells.extend(cells);
                misc.area += area;
                remap[t as usize] = misc_idx;
            }
        }
        // Compact: drop emptied logic clusters.
        let mut compact: Vec<u32> = vec![u32::MAX; clusters.len()];
        let mut kept: Vec<Cluster> = Vec::with_capacity(clusters.len());
        for (i, c) in clusters.into_iter().enumerate() {
            let is_empty_logic = matches!(c.kind, ClusterKind::Logic) && c.cells.is_empty();
            if !is_empty_logic {
                compact[i] = kept.len() as u32;
                kept.push(c);
            }
        }
        let mut clusters = kept;
        let final_of = |idx: u32, remap: &[u32], compact: &[u32]| -> u32 {
            compact[remap[idx as usize] as usize]
        };
        for cc in &mut cell_cluster {
            *cc = final_of(*cc, &remap, &compact);
        }

        // --- Macro clusters ---------------------------------------------
        let mut macro_cluster: Vec<u32> = Vec::with_capacity(netlist.macros().len());
        for (i, m) in netlist.macros().iter().enumerate() {
            let (kind, area) = match &m.kind {
                MacroKind::Sram(s) => (ClusterKind::SramMacro(i), s.footprint()),
                MacroKind::Rram(r) => (ClusterKind::RramMacro(i), r.footprint(pdk.ilv())?),
                // Opaque ingested blocks place like movable macros.
                MacroKind::BlackBox { area, .. } => (ClusterKind::SramMacro(i), *area),
            };
            clusters.push(Cluster {
                name: netlist.name_of(m.name).to_owned(),
                kind,
                cells: Vec::new(),
                area,
            });
            macro_cluster.push((clusters.len() - 1) as u32);
        }

        // --- Inter-cluster nets ----------------------------------------
        let mut nets = Vec::new();
        let mut intra = vec![0u32; clusters.len()];
        let mut skipped = 0usize;
        let mut touched: Vec<u32> = Vec::with_capacity(8);
        for net in netlist.nets() {
            if net.fanout() > GLOBAL_NET_FANOUT {
                skipped += 1;
                continue;
            }
            touched.clear();
            match net.driver {
                Some(Driver::Cell { cell, .. }) => touched.push(cell_cluster[cell.0 as usize]),
                Some(Driver::Macro { id }) => touched.push(macro_cluster[id.0 as usize]),
                Some(Driver::PrimaryInput) => touched.push(0),
                None => {}
            }
            for s in &net.sinks {
                let c = match s {
                    Sink::Cell { cell, .. } => cell_cluster[cell.0 as usize],
                    Sink::Macro { id } => macro_cluster[id.0 as usize],
                    Sink::PrimaryOutput => 0,
                };
                touched.push(c);
            }
            touched.sort_unstable();
            touched.dedup();
            match touched.len() {
                0 => {}
                1 => intra[touched[0] as usize] += 1,
                _ => nets.push(ClusterNet {
                    clusters: touched.clone(),
                }),
            }
        }

        Ok(Self {
            clusters,
            cell_cluster,
            nets,
            intra_net_count: intra,
            skipped_global_nets: skipped,
        })
    }

    /// Total area demand of all movable clusters.
    pub fn movable_area(&self) -> SquareMicrons {
        self.clusters
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| c.area)
            .sum()
    }

    /// Index of the cluster owning macro `i`, if any.
    pub fn macro_cluster(&self, i: usize) -> Option<usize> {
        self.clusters.iter().position(
            |c| matches!(&c.kind, ClusterKind::SramMacro(j) | ClusterKind::RramMacro(j) if *j == i),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::{accelerator_soc, CsConfig, PeConfig, SocConfig};

    fn small_soc() -> Netlist {
        let mut nl = Netlist::new("soc");
        let cfg = SocConfig {
            cs: CsConfig {
                rows: 4,
                cols: 4,
                pe: PeConfig::default(),
                global_buffer_kb: 64,
                local_buffer_kb: 8,
            },
            ..SocConfig::baseline_2d()
        };
        accelerator_soc(&mut nl, &cfg).unwrap();
        nl
    }

    #[test]
    fn prefix_extraction() {
        assert_eq!(prefix_of("cs0/pe_r1_c2/mult/fa3", 2), "cs0/pe_r1_c2");
        assert_eq!(prefix_of("cs0/pe_r1_c2/mult/fa3", 1), "cs0");
        assert_eq!(prefix_of("toplevel", 2), "toplevel");
        assert_eq!(prefix_of("a/b", 5), "a/b");
    }

    #[test]
    fn clustering_covers_every_cell() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let c = Clustering::build(&nl, &pdk).unwrap();
        assert_eq!(c.cell_cluster.len(), nl.cell_count());
        let mut counted = 0usize;
        for cl in &c.clusters {
            counted += cl.cells.len();
        }
        assert_eq!(counted, nl.cell_count());
        // Every cell's recorded cluster actually lists it.
        for (i, &cc) in c.cell_cluster.iter().enumerate().step_by(97) {
            assert!(c.clusters[cc as usize].cells.contains(&(i as u32)));
        }
    }

    #[test]
    fn pe_clusters_exist_and_no_tiny_logic_clusters_remain() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let c = Clustering::build(&nl, &pdk).unwrap();
        assert!(c.clusters.iter().any(|cl| cl.name == "cs0/pe_r0_c0"));
        for cl in &c.clusters {
            if matches!(cl.kind, ClusterKind::Logic) && !cl.name.ends_with("__misc__") {
                assert!(
                    cl.cells.len() >= MIN_CLUSTER_CELLS,
                    "{} has {} cells",
                    cl.name,
                    cl.cells.len()
                );
            }
        }
    }

    #[test]
    fn macros_become_clusters() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let c = Clustering::build(&nl, &pdk).unwrap();
        let rram = c
            .clusters
            .iter()
            .filter(|cl| matches!(cl.kind, ClusterKind::RramMacro(_)))
            .count();
        let sram = c
            .clusters
            .iter()
            .filter(|cl| matches!(cl.kind, ClusterKind::SramMacro(_)))
            .count();
        assert_eq!((rram, sram), (1, 3));
        // RRAM macro is not movable; SRAMs are.
        for cl in &c.clusters {
            match cl.kind {
                ClusterKind::RramMacro(_) | ClusterKind::Io => assert!(!cl.is_movable()),
                ClusterKind::SramMacro(_) | ClusterKind::Logic => assert!(cl.is_movable()),
            }
        }
    }

    #[test]
    fn global_nets_are_skipped() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let c = Clustering::build(&nl, &pdk).unwrap();
        // const0 fans out to hundreds of PE partial-sum inputs.
        assert!(c.skipped_global_nets >= 1);
        // All recorded inter-cluster nets touch at least two clusters.
        assert!(c.nets.iter().all(|n| n.clusters.len() >= 2));
        assert!(!c.nets.is_empty());
    }

    #[test]
    fn areas_roll_up() {
        let nl = small_soc();
        let pdk = Pdk::baseline_2d_130nm();
        let c = Clustering::build(&nl, &pdk).unwrap();
        let stats = m3d_netlist::NetlistStats::compute(&nl, &pdk).unwrap();
        let logic_area: SquareMicrons = c
            .clusters
            .iter()
            .filter(|cl| matches!(cl.kind, ClusterKind::Logic))
            .map(|cl| cl.area)
            .sum();
        assert!((logic_area / stats.total_cell_area() - 1.0).abs() < 1e-9);
        assert!(c.movable_area() > logic_area, "SRAMs add to movable area");
    }
}
