//! The pinned payload digest, and the mode that regenerates it.
//!
//! `pins.json` holds the FNV-1a digest of the paper-size
//! `fig2_physical_design` payload, computed from a cold run.

use m3d_bench::registry::{self, CaseCtx};
use m3d_core::engine::FlowCache;
use m3d_thermal::ThermalCache;
use serde::Value;

use crate::inputs::digest;

const PINS_JSON: &str = include_str!("../pins.json");

#[derive(Debug, Clone, Default)]
pub struct Pins {
    pub fig2: String,
}

impl Pins {
    /// The checked-in pins.
    pub fn load() -> Result<Self, String> {
        let v = serde_json::from_str_value(PINS_JSON).map_err(|e| format!("pins.json: {e}"))?;
        match v.get("fig2") {
            Some(Value::Str(s)) => Ok(Self { fig2: s.clone() }),
            _ => Err("pins.json: missing `fig2`".to_owned()),
        }
    }

    /// Recomputes the pins from a cold run.
    pub fn compute() -> Result<Self, String> {
        let (flows, thermals) = (FlowCache::new(), ThermalCache::new());
        let fig2 = registry::find("fig2_physical_design")
            .expect("case is registered")
            .run(&CaseCtx::new(&flows, &thermals), false, &Value::Null)
            .map(|o| digest(&o.result))
            .map_err(|e| e.to_string())?;
        Ok(Self { fig2 })
    }

    pub fn to_json(&self) -> String {
        let v = Value::Object(vec![("fig2".to_owned(), Value::Str(self.fig2.clone()))]);
        serde_json::to_string_pretty(&v).expect("pins serialise")
    }
}
