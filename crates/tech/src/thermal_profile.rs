//! Vertical thermal profile of the M3D layer stack — the geometry and
//! effective material properties a thermal solver voxelizes.
//!
//! The electrical view of the stack ([`crate::LayerStack`]) describes
//! routing pitches and parasitics; this module derives the matching
//! *thermal* view: one [`ThermalLayerSpec`] per physically distinct slab
//! (substrate, active device layers, BEOL + RRAM dielectric), bottom-up,
//! with effective vertical/lateral conductivities and volumetric heat
//! capacities. Conductivities are effective-medium estimates: BEOL slabs
//! conduct laterally through the metal fill (~35 % Cu by area) far better
//! than vertically through the inter-layer dielectric, while the
//! ultra-dense ILVs of monolithic 3D make the vertical path much better
//! than a bonded (TSV + adhesive) stack — the contrast Observation 10's
//! lumped model cannot express.

use serde::{Deserialize, Serialize};

use crate::layers::LayerStack;
use crate::stable_hash::{StableHash, StableHasher};

/// What (if anything) dissipates heat inside a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeatSource {
    /// No dissipation (substrate, plain dielectric).
    Passive,
    /// An active device layer of tier pair `pair` (Si CMOS logic or, for
    /// upper pairs, the CNFET compute tier): standard cells, SRAM
    /// buffers, RRAM peripherals.
    Active {
        /// 0-based tier-pair index, bottom-up.
        pair: u32,
    },
    /// The BEOL memory slab of tier pair `pair`: RRAM cells plus CNFET
    /// selectors (< 1 % of chip power per Observation 2, but dissipated
    /// far from the sink).
    Memory {
        /// 0-based tier-pair index, bottom-up.
        pair: u32,
    },
}

impl StableHash for HeatSource {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            HeatSource::Passive => h.write_u8(0),
            HeatSource::Active { pair } => {
                h.write_u8(1);
                pair.stable_hash(h);
            }
            HeatSource::Memory { pair } => {
                h.write_u8(2);
                pair.stable_hash(h);
            }
        }
    }
}

/// One slab of the vertical thermal stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalLayerSpec {
    /// Slab name, e.g. `"substrate"` or `"pair0:beol"`.
    pub name: String,
    /// Slab thickness in µm.
    pub thickness_um: f64,
    /// Effective vertical (through-plane) conductivity in W/(m·K).
    pub k_vertical_w_mk: f64,
    /// Effective lateral (in-plane) conductivity in W/(m·K).
    pub k_lateral_w_mk: f64,
    /// Volumetric heat capacity in J/(m³·K).
    pub volumetric_heat_j_m3k: f64,
    /// Heat dissipated inside this slab.
    pub source: HeatSource,
}

impl StableHash for ThermalLayerSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.thickness_um.stable_hash(h);
        self.k_vertical_w_mk.stable_hash(h);
        self.k_lateral_w_mk.stable_hash(h);
        self.volumetric_heat_j_m3k.stable_hash(h);
        self.source.stable_hash(h);
    }
}

/// Bulk silicon conductivity, W/(m·K) (doped, at operating temperature).
pub const K_SILICON: f64 = 120.0;
/// Volumetric heat capacity of silicon, J/(m³·K).
pub const CV_SILICON: f64 = 1.65e6;
/// Effective vertical conductivity of a BEOL dielectric stack threaded
/// by ultra-dense ILVs, W/(m·K) — an order of magnitude above plain
/// SiO₂ (~1.4) thanks to the dense metal via fill, and two orders above
/// a bonded-stack adhesive interface.
pub const K_BEOL_VERTICAL: f64 = 2.2;
/// Effective lateral conductivity of a BEOL stack (metal-fill
/// dominated), W/(m·K).
pub const K_BEOL_LATERAL: f64 = 12.0;
/// Volumetric heat capacity of the BEOL composite, J/(m³·K).
pub const CV_BEOL: f64 = 1.8e6;
/// Thinned-substrate thickness used for the bottom slab, µm.
pub const SUBSTRATE_UM: f64 = 300.0;
/// Active device-layer thickness (FEOL transistors + contacts), µm.
pub const ACTIVE_UM: f64 = 2.0;

impl LayerStack {
    /// Thickness of one BEOL + memory slab of this stack, in µm: the
    /// routing levels at roughly one pitch of dielectric each, plus the
    /// RRAM and CNFET layers when present.
    pub fn beol_thickness_um(&self) -> f64 {
        let routing: f64 = self.routing().iter().map(|l| 1.2 * l.pitch.value()).sum();
        let rram = if self.has_rram_layer { 0.40 } else { 0.0 };
        let cnfet = if self.has_cnfet_tier { 0.15 } else { 0.0 };
        routing + rram + cnfet
    }

    /// The vertical thermal profile of a stack of `tier_pairs`
    /// interleaved compute/memory pairs, bottom-up: the thinned substrate
    /// first, then per pair an active device slab and the BEOL + RRAM
    /// memory slab above it.
    ///
    /// `tier_pairs` is clamped to at least 1; the bottom pair's active
    /// slab is the Si CMOS FEOL, upper pairs are CNFET device layers
    /// (thermally similar thin crystalline films embedded in dielectric,
    /// so they share the effective constants).
    pub fn thermal_profile(&self, tier_pairs: u32) -> Vec<ThermalLayerSpec> {
        let pairs = tier_pairs.max(1);
        let beol_um = self.beol_thickness_um();
        let mut layers = Vec::with_capacity(1 + 2 * pairs as usize);
        layers.push(ThermalLayerSpec {
            name: "substrate".to_owned(),
            thickness_um: SUBSTRATE_UM,
            k_vertical_w_mk: K_SILICON,
            k_lateral_w_mk: K_SILICON,
            volumetric_heat_j_m3k: CV_SILICON,
            source: HeatSource::Passive,
        });
        for pair in 0..pairs {
            let (k_active_v, k_active_l) = if pair == 0 {
                (K_SILICON, K_SILICON)
            } else {
                // Upper device layers are thin films embedded in
                // dielectric: good in-plane, derated through-plane.
                (K_BEOL_VERTICAL * 4.0, K_SILICON * 0.4)
            };
            layers.push(ThermalLayerSpec {
                name: format!("pair{pair}:active"),
                thickness_um: ACTIVE_UM,
                k_vertical_w_mk: k_active_v,
                k_lateral_w_mk: k_active_l,
                volumetric_heat_j_m3k: CV_SILICON,
                source: HeatSource::Active { pair },
            });
            let memory = if self.has_rram_layer {
                HeatSource::Memory { pair }
            } else {
                HeatSource::Passive
            };
            layers.push(ThermalLayerSpec {
                name: format!("pair{pair}:beol"),
                thickness_um: beol_um,
                k_vertical_w_mk: K_BEOL_VERTICAL,
                k_lateral_w_mk: K_BEOL_LATERAL,
                volumetric_heat_j_m3k: CV_BEOL,
                source: memory,
            });
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_shape_and_order() {
        let stack = LayerStack::m3d_130nm();
        let p = stack.thermal_profile(3);
        assert_eq!(p.len(), 1 + 2 * 3);
        assert_eq!(p[0].name, "substrate");
        assert_eq!(p[1].source, HeatSource::Active { pair: 0 });
        assert_eq!(p[2].source, HeatSource::Memory { pair: 0 });
        assert_eq!(p[5].source, HeatSource::Active { pair: 2 });
        assert!(p.iter().all(|l| l.thickness_um > 0.0));
        assert!(p.iter().all(|l| l.k_vertical_w_mk > 0.0));
        assert!(p.iter().all(|l| l.volumetric_heat_j_m3k > 0.0));
    }

    #[test]
    fn zero_pairs_clamps_to_one() {
        let stack = LayerStack::m3d_130nm();
        assert_eq!(stack.thermal_profile(0).len(), 3);
    }

    #[test]
    fn beol_thickness_reflects_routing_stack() {
        let stack = LayerStack::m3d_130nm();
        let t = stack.beol_thickness_um();
        // Five routing layers at sub-µm pitches plus RRAM + CNFET films.
        assert!(t > 2.0 && t < 6.0, "BEOL thickness {t} µm");
    }

    #[test]
    fn beol_is_anisotropic() {
        let stack = LayerStack::m3d_130nm();
        for l in stack.thermal_profile(2) {
            if l.name.ends_with(":beol") {
                assert!(l.k_lateral_w_mk > l.k_vertical_w_mk);
            }
        }
    }

    #[test]
    fn profile_is_stable_hashable_and_content_keyed() {
        let stack = LayerStack::m3d_130nm();
        let a = stack.thermal_profile(2).stable_key();
        let b = stack.thermal_profile(2).stable_key();
        let c = stack.thermal_profile(3).stable_key();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
