//! Multi-corner flow evaluation as a first-class engine capability.
//!
//! Sign-off methodology evaluates one implementation at several process
//! corners (setup at SS, leakage at FF). [`corner_sweep`] runs a base
//! [`FlowConfig`] at each requested [`Corner`] through the shared
//! [`FlowCache`]: every corner configuration is content-keyed on its own
//! (the corner re-characterises the PDK, so SS/TT/FF occupy independent
//! cache entries), the corners fan across the [`par_map`] sweep executor,
//! and each fresh run contributes its `pd_flow.*` counters and flow
//! sub-span exactly like any other cached flow. Results come back in the
//! caller's corner order regardless of the worker count, so downstream
//! tables and traces stay byte-deterministic.

use std::sync::Arc;

use m3d_pd::{FlowConfig, FlowReport};
use m3d_tech::Corner;

use crate::engine::cache::{FetchOpts, FlowCache, FlowFetch};
use crate::engine::parallel::par_map;
use crate::error::CoreResult;
use crate::obs::SpanNode;

/// One corner's outcome of a [`corner_sweep`].
#[derive(Debug, Clone)]
pub struct CornerRun {
    /// The corner evaluated.
    pub corner: Corner,
    /// The corner-characterised configuration that keyed the cache.
    pub config: FlowConfig,
    /// The flow's sign-off report at this corner.
    pub report: Arc<FlowReport>,
    /// How the cache satisfied this corner (fresh, hit, coalesced);
    /// a fresh run carries the flow and its sub-span tree.
    pub fetch: FlowFetch,
}

impl CornerRun {
    /// A trace child span for this corner: `corner:<name>` carrying the
    /// fetch provenance, with the flow's own sub-spans nested underneath
    /// when the corner was computed in-process.
    pub fn span_node(&self) -> SpanNode {
        let mut node = SpanNode::new(format!("corner:{}", self.corner.name().to_lowercase()));
        node.provenance = self.fetch.provenance();
        if let (false, Some(flow)) = (self.fetch.reused(), &self.fetch.artifacts) {
            node.children.push(flow.1.span.clone());
        }
        node
    }
}

/// Evaluates `base` at every corner in `corners` through `cache`,
/// in parallel (`M3D_JOBS`), returning results in `corners` order.
///
/// # Errors
///
/// Propagates the first flow failure in corner order.
pub fn corner_sweep(
    cache: &FlowCache,
    base: &FlowConfig,
    corners: &[Corner],
) -> CoreResult<Vec<CornerRun>> {
    par_map(corners, |&corner| {
        let config = base.clone().at_corner(corner);
        let fetch = cache.fetch(&config, FetchOpts::report())?;
        Ok(CornerRun {
            corner,
            config,
            report: Arc::clone(&fetch.report),
            fetch,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_netlist::CsConfig;

    fn quick_cfg() -> FlowConfig {
        FlowConfig::baseline_2d()
            .with_cs(CsConfig {
                rows: 4,
                cols: 4,
                global_buffer_kb: 64,
                local_buffer_kb: 8,
                ..CsConfig::default()
            })
            .quick()
    }

    #[test]
    fn corners_cache_independently_and_in_order() {
        let cache = FlowCache::new();
        let runs = corner_sweep(&cache, &quick_cfg(), &Corner::ALL).unwrap();
        assert_eq!(runs.len(), 3);
        let order: Vec<Corner> = runs.iter().map(|r| r.corner).collect();
        assert_eq!(order, Corner::ALL.to_vec(), "caller's corner order");
        assert_eq!(cache.stats().misses, 3, "one flow per corner");
        // Keys differ per corner, and repeats hit.
        let keys: Vec<u64> = runs.iter().map(|r| r.config.stable_key()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
        let again = corner_sweep(&cache, &quick_cfg(), &Corner::ALL).unwrap();
        assert!(again.iter().all(|r| r.fetch.cache_hit));
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn corner_physics_orders_the_reports() {
        let cache = FlowCache::new();
        let runs = corner_sweep(&cache, &quick_cfg(), &Corner::ALL).unwrap();
        let by = |c: Corner| {
            runs.iter()
                .find(|r| r.corner == c)
                .expect("swept")
                .report
                .clone()
        };
        let (ss, tt, ff) = (by(Corner::Ss), by(Corner::Tt), by(Corner::Ff));
        assert!(ss.critical_path_ns > tt.critical_path_ns);
        assert!(tt.critical_path_ns > ff.critical_path_ns);
        assert!(ff.cell_leakage_mw > tt.cell_leakage_mw);
        assert!(tt.cell_leakage_mw > ss.cell_leakage_mw);
    }

    #[test]
    fn fresh_runs_carry_spans_and_hits_do_not() {
        let cache = FlowCache::new();
        let runs = corner_sweep(&cache, &quick_cfg(), &[Corner::Tt]).unwrap();
        let node = runs[0].span_node();
        assert_eq!(node.name, "corner:tt");
        assert!(!node.children.is_empty(), "fresh corner nests the flow");
        let again = corner_sweep(&cache, &quick_cfg(), &[Corner::Tt]).unwrap();
        let node = again[0].span_node();
        assert!(node.children.is_empty(), "hits carry no sub-spans");
        assert_eq!(node.provenance.name(), "cache-hit");
    }
}
