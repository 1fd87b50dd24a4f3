//! The monolithic-3D layer stack: device tiers, BEOL routing layers and
//! inter-layer vias (ILVs).
//!
//! The stack mirrors Fig. 4a of the paper: Si CMOS FEOL at the bottom, a
//! conventional BEOL metal stack (M1–M5) above it, a BEOL RRAM layer, a
//! single BEOL CNFET device layer, and top-level metallisation. Vertical
//! connectivity between the Si tier and the upper tiers uses ultra-dense
//! ILVs — the same nanoscale vias used for BEOL metal routing.

use serde::{Deserialize, Serialize};

use crate::stable_hash::{StableHash, StableHasher};
use crate::units::{Femtofarads, KiloOhms, Microns};

/// A device tier in the M3D stack.
///
/// Standard cells and macros are bound to exactly one device tier; routing
/// layers are shared across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// Front-end-of-line silicon CMOS (bottom tier).
    SiCmos,
    /// Back-end-of-line carbon-nanotube FET tier (upper tier).
    Cnfet,
}

impl Tier {
    /// All tiers in bottom-to-top order.
    pub const ALL: [Tier; 2] = [Tier::SiCmos, Tier::Cnfet];

    /// Short display name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::SiCmos => "Si CMOS",
            Tier::Cnfet => "CNFET",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl StableHash for Tier {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u8(match self {
            Tier::SiCmos => 0,
            Tier::Cnfet => 1,
        });
    }
}

/// One BEOL routing layer (e.g. M1) with its parasitic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingLayer {
    /// Layer name, e.g. `"M1"`.
    pub name: String,
    /// 0-based index from the substrate upwards.
    pub index: usize,
    /// Minimum wire pitch.
    pub pitch: Microns,
    /// Wire resistance per micron of length.
    pub resistance_per_um: KiloOhms,
    /// Wire capacitance per micron of length.
    pub capacitance_per_um: Femtofarads,
    /// `true` for layers below the RRAM plane (usable to route Si-tier
    /// logic placed underneath RRAM arrays — the light-blue layers of
    /// Fig. 3d/4a).
    pub below_rram: bool,
}

impl StableHash for RoutingLayer {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.name.stable_hash(h);
        self.index.stable_hash(h);
        self.pitch.stable_hash(h);
        self.resistance_per_um.stable_hash(h);
        self.capacitance_per_um.stable_hash(h);
        self.below_rram.stable_hash(h);
    }
}

/// Inter-layer via (ILV) specification.
///
/// ILV pitch is the critical M3D technology parameter `β` studied in
/// Sec. III-E (Case 2) of the paper: every RRAM cell needs `m` ILVs, so
/// via-pitch-limited memory area is `m·k·β²`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IlvSpec {
    /// Via-to-via pitch (β).
    pub pitch: Microns,
    /// Per-via resistance.
    pub resistance: KiloOhms,
    /// Per-via capacitance.
    pub capacitance: Femtofarads,
}

impl StableHash for IlvSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.pitch.stable_hash(h);
        self.resistance.stable_hash(h);
        self.capacitance.stable_hash(h);
    }
}

impl IlvSpec {
    /// The foundry ultra-dense ILV used by the 130 nm M3D PDK
    /// (fine pitch, ≲ 150 nm — same class as regular BEOL vias).
    pub fn ultra_dense_130nm() -> Self {
        Self {
            pitch: Microns::new(0.15),
            resistance: KiloOhms::new(0.02),
            capacitance: Femtofarads::new(0.05),
        }
    }

    /// Returns this specification with the pitch scaled by `factor`
    /// (the Case-2 sweep parameter; `factor = 1.0` is the baseline).
    pub fn with_pitch_scaled(self, factor: f64) -> Self {
        Self {
            pitch: self.pitch * factor,
            ..self
        }
    }
}

/// The complete M3D layer stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerStack {
    /// BEOL routing layers, bottom-up.
    routing: Vec<RoutingLayer>,
    /// ILV specification for tier-to-tier connections.
    pub ilv: IlvSpec,
    /// Whether the stack includes the BEOL CNFET device tier.
    pub has_cnfet_tier: bool,
    /// Whether the stack includes the BEOL RRAM memory layer.
    pub has_rram_layer: bool,
}

impl StableHash for LayerStack {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.routing.stable_hash(h);
        self.ilv.stable_hash(h);
        self.has_cnfet_tier.stable_hash(h);
        self.has_rram_layer.stable_hash(h);
    }
}

impl LayerStack {
    /// Builds the 130 nm-class M3D stack of Fig. 4a: five routing layers,
    /// RRAM above M3, CNFETs above RRAM.
    pub fn m3d_130nm() -> Self {
        let mk = |name: &str, index: usize, pitch, r, c, below| RoutingLayer {
            name: name.to_owned(),
            index,
            pitch: Microns::new(pitch),
            resistance_per_um: KiloOhms::new(r),
            capacitance_per_um: Femtofarads::new(c),
            below_rram: below,
        };
        Self {
            routing: vec![
                mk("M1", 0, 0.40, 0.40e-3, 0.20, true),
                mk("M2", 1, 0.45, 0.30e-3, 0.20, true),
                mk("M3", 2, 0.45, 0.30e-3, 0.20, true),
                mk("M4", 3, 0.90, 0.08e-3, 0.22, false),
                mk("M5", 4, 0.90, 0.08e-3, 0.22, false),
            ],
            ilv: IlvSpec::ultra_dense_130nm(),
            has_cnfet_tier: true,
            has_rram_layer: true,
        }
    }

    /// Routing layers, bottom-up.
    pub fn routing(&self) -> &[RoutingLayer] {
        &self.routing
    }

    /// Looks up a routing layer by name.
    pub fn layer(&self, name: &str) -> Option<&RoutingLayer> {
        self.routing.iter().find(|l| l.name == name)
    }

    /// Average per-micron resistance across routing layers, a convenient
    /// lumped value for net-length-based RC estimation.
    pub fn avg_resistance_per_um(&self) -> KiloOhms {
        let n = self.routing.len().max(1) as f64;
        KiloOhms::new(
            self.routing
                .iter()
                .map(|l| l.resistance_per_um.value())
                .sum::<f64>()
                / n,
        )
    }

    /// Average per-micron capacitance across routing layers.
    pub fn avg_capacitance_per_um(&self) -> Femtofarads {
        let n = self.routing.len().max(1) as f64;
        Femtofarads::new(
            self.routing
                .iter()
                .map(|l| l.capacitance_per_um.value())
                .sum::<f64>()
                / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_has_expected_layers() {
        let s = LayerStack::m3d_130nm();
        assert_eq!(s.routing().len(), 5);
        assert!(s.has_cnfet_tier);
        assert!(s.has_rram_layer);
        assert_eq!(s.layer("M1").unwrap().index, 0);
        assert!(s.layer("M9").is_none());
    }

    #[test]
    fn below_rram_layers_are_m1_to_m3() {
        let s = LayerStack::m3d_130nm();
        let below: Vec<_> = s
            .routing()
            .iter()
            .filter(|l| l.below_rram)
            .map(|l| l.name.clone())
            .collect();
        assert_eq!(below, ["M1", "M2", "M3"]);
    }

    #[test]
    fn wire_parasitics_scale_with_length() {
        let s = LayerStack::m3d_130nm();
        let m1 = s.layer("M1").unwrap();
        let r = m1.resistance_per_um * 100.0;
        assert!((r.value() - 0.04).abs() < 1e-12);
        let c = m1.capacitance_per_um * 100.0;
        assert!((c.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn ilv_pitch_scaling() {
        let ilv = IlvSpec::ultra_dense_130nm();
        let coarse = ilv.with_pitch_scaled(2.0);
        assert!((coarse.pitch.value() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn tier_display() {
        assert_eq!(Tier::SiCmos.to_string(), "Si CMOS");
        assert_eq!(Tier::Cnfet.to_string(), "CNFET");
        assert_eq!(Tier::ALL.len(), 2);
    }

    #[test]
    fn averages_are_means() {
        let s = LayerStack::m3d_130nm();
        let r = s.avg_resistance_per_um().value();
        assert!(r > 0.0 && r < 1.0);
        let c = s.avg_capacitance_per_um().value();
        assert!((c - 0.208).abs() < 1e-9);
    }
}
