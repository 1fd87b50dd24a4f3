//! Content-keyed memoisation of RTL-to-GDS flow runs.
//!
//! The physical-design flow is by far the most expensive stage, and the
//! experiments re-run identical configurations constantly — every
//! iso-footprint comparison evaluates the same 2D baseline, every grid
//! sweep shares its technology points. [`FlowCache`] memoises
//! `(FlowReport, FlowArtifacts)` pairs keyed by the
//! [`m3d_tech::StableHash`] of the [`FlowConfig`] that produced them, so
//! a configuration is paid for once per process however many experiment
//! stages ask for it.
//!
//! # One entry point: [`FlowCache::fetch`]
//!
//! Every lookup goes through `fetch(cfg, FetchOpts)`, which returns a
//! [`FlowFetch`] carrying the report, optionally the full artifacts,
//! and how the lookup was satisfied (memory hit, disk hit, coalesced
//! onto another caller's run, warm-started, or computed cold).
//!
//! # The on-disk artifact tier and warm starts
//!
//! With an artifact directory configured ([`FlowCache::with_disk_dir`],
//! or [`FlowCache::persistent`] reading the `M3D_CACHE_DIR` environment
//! variable), every computed flow is written through an
//! [`ArtifactStore`] as a versioned envelope: the report plus the full
//! physical state a warm start needs (pre-optimisation placement seed,
//! routing, STA, clock tree, power). Report-level lookups are satisfied
//! from disk before falling back to running the flow; the vendored JSON
//! encoder prints floats in shortest-round-trip form, so a report read
//! back from disk is bit-identical to the one that was written. Corrupt
//! or unreadable files are treated as misses and overwritten.
//!
//! When a configuration misses every exact tier, the cache looks for a
//! **warm-start seed**: the nearest cached neighbour (in-memory seed
//! index first, then the disk store's sidecar metadata) sharing the
//! configuration's [`FlowConfig::placement_key`], ranked by the typed
//! [`m3d_pd::ParamPoint::distance`] over the sweep lattice, exact-key
//! hits excluded. Equal placement keys provably reproduce the same
//! pre-optimisation placement, so the seeded run replays the
//! neighbour's placement and spans verbatim and re-runs only the
//! post-placement phases — byte-identical `--json`/`--trace-json`
//! output, a fraction of the wall-clock. Invalid or corrupt seeds fall
//! back to a cold run, never an error.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use m3d_pd::{FlowArtifacts, FlowConfig, FlowReport, PlacementSeed, Rtl2GdsFlow};
use serde::{Deserialize, Serialize};

use crate::engine::inflight::{Flight, InFlight};
use crate::engine::store::{
    nearest_neighbour, ArtifactStore, DiskStore, NeighbourMeta, StoredEnvelope, STORE_VERSION,
};
use crate::error::CoreResult;
use crate::obs::{Provenance, Recorder, SpanNode};

/// The cache's locks guard no computation, so only a bug poisons one.
const POISONED: &str = "a flow-cache lock holder panicked";

/// Hit/miss counters of a [`FlowCache`], serialised into the
/// [`crate::engine::ExperimentReport`]. Warm starts are *not* a field
/// here — a warm run executes the flow, so it counts as a plain miss,
/// which keeps `--json` output byte-identical whether or not a seed
/// happened to be available. Warm telemetry lives in
/// [`FlowCache::warm_count`] and the `flow_cache.warm_hits` /
/// `pd_flow.warm_*` recorder counters instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the in-memory cache.
    pub hits: u64,
    /// Lookups that ran the flow.
    pub misses: u64,
    /// Lookups answered from the on-disk artifact store (a previous
    /// process computed the flow). Always 0 without `M3D_CACHE_DIR`.
    pub disk_hits: u64,
}

/// What a [`FlowCache::fetch`] should produce and which tiers it may
/// use. The default is a report-level, coalescing, warm-enabled lookup
/// — the cheapest correct thing for sweep points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOpts {
    /// Return the full in-memory `(FlowReport, FlowArtifacts)` pair
    /// (forces the flow to exist in this process's memory, running it
    /// — warm when possible — if only the report tier has it).
    pub artifacts: bool,
    /// Single-flight: concurrent fetches of the same uncached key run
    /// one flow and share it.
    pub coalesce: bool,
    /// Allow warm-starting a computed run from the nearest cached
    /// neighbour's placement seed. Disable to force cold computes
    /// (determinism gates compare the two).
    pub warm: bool,
}

impl Default for FetchOpts {
    fn default() -> Self {
        Self {
            artifacts: false,
            coalesce: true,
            warm: true,
        }
    }
}

impl FetchOpts {
    /// Report-level lookup (the default): memory → disk → warm/cold run.
    pub fn report() -> Self {
        Self::default()
    }

    /// Artifact-level lookup: the fetch carries the full
    /// `(FlowReport, FlowArtifacts)` pair.
    pub fn artifacts() -> Self {
        Self {
            artifacts: true,
            ..Self::default()
        }
    }

    /// Disables warm-starting (a computed run anneals from scratch).
    pub fn cold(mut self) -> Self {
        self.warm = false;
        self
    }

    /// Disables single-flight coalescing for this lookup.
    pub fn uncoalesced(mut self) -> Self {
        self.coalesce = false;
        self
    }
}

/// How a [`FlowCache::fetch`] was satisfied, carrying its results.
///
/// Exactly one of the provenance flags describes the lookup (all
/// `false` = computed cold); [`FlowFetch::provenance`] maps them to the
/// trace vocabulary.
#[derive(Debug, Clone)]
pub struct FlowFetch {
    /// The flow's comparison metrics.
    pub report: Arc<FlowReport>,
    /// The full artifacts, when requested via [`FetchOpts::artifacts`]
    /// (always `Some` then; `None` on report-level fetches that never
    /// needed them).
    pub artifacts: Option<Arc<(FlowReport, FlowArtifacts)>>,
    /// Answered from this process's in-memory memo.
    pub cache_hit: bool,
    /// Answered from the on-disk artifact store (another process — or
    /// an earlier invocation — computed it).
    pub disk_hit: bool,
    /// This caller joined another caller's in-flight run of the same
    /// configuration instead of starting its own.
    pub coalesced: bool,
    /// The flow ran, warm-started from a neighbour's placement seed.
    /// Byte-identical to a cold run; only wall-clock differs.
    pub warm: bool,
}

impl FlowFetch {
    /// The span [`Provenance`] this fetch corresponds to.
    pub fn provenance(&self) -> Provenance {
        if self.coalesced {
            Provenance::Coalesced
        } else if self.cache_hit {
            Provenance::CacheHit
        } else if self.disk_hit {
            Provenance::DiskHit
        } else if self.warm {
            Provenance::Warm
        } else {
            Provenance::Computed
        }
    }

    /// Whether the result was reused rather than executed by some
    /// caller this fetch is accountable for (memory, disk or coalesced
    /// — warm runs *executed*, so they are not reuse).
    pub fn reused(&self) -> bool {
        self.cache_hit || self.disk_hit || self.coalesced
    }
}

/// One configuration's memo: its report, plus the whole flow (artifacts
/// and sub-span tree included) when this process ran it. Reports read
/// from the disk tier carry no flow.
#[derive(Debug)]
struct Entry {
    report: Arc<FlowReport>,
    flow: Option<Arc<(FlowReport, FlowArtifacts)>>,
}

/// A process-wide memo table for [`Rtl2GdsFlow`] runs, optionally backed
/// by an on-disk artifact store.
///
/// Thread-safe: the internal maps are mutex-guarded, but no lock is
/// held while a flow runs, so parallel sweep workers never serialise on
/// it. Two workers racing on the same uncached key may both compute it
/// (unless they opt into coalescing); the flow is deterministic, so the
/// duplicated work is harmless and the first-completed result simply
/// sticks.
#[derive(Debug, Default)]
pub struct FlowCache {
    entries: Mutex<HashMap<u64, Entry>>,
    /// Warm-start seed index: placement key → the key and lattice point
    /// of every flow computed in this process. The seed itself is read
    /// from that key's entry.
    seeds: Mutex<HashMap<u64, Vec<NeighbourMeta>>>,
    inflight: InFlight<FlowFetch>,
    store: Option<Box<dyn ArtifactStore>>,
    disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    warm_hits: AtomicU64,
}

impl FlowCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory cache backed by the on-disk artifact store in `dir`
    /// (created if absent). An uncreatable or unwritable directory is
    /// *not* silently swallowed: the cache degrades to memory-only with
    /// a one-shot stderr warning and a `cache.disk_errors` counter
    /// bump, so a fleet misconfiguration shows up in metrics instead of
    /// as a mysteriously cold cache.
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        static WARNED: AtomicBool = AtomicBool::new(false);
        let dir = dir.into();
        let probe_error = fs::create_dir_all(&dir).err().or_else(|| {
            // The directory may pre-exist read-only; probe a write.
            let probe = dir.join(format!(".m3d-probe-{}", std::process::id()));
            let res = fs::write(&probe, b"probe").err();
            let _ = fs::remove_file(&probe);
            res
        });
        if let Some(err) = probe_error {
            Recorder::global().incr("cache.disk_errors", 1);
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "m3d: artifact cache dir {} is not writable ({err}); running memory-only",
                    dir.display()
                );
            }
            return Self::new();
        }
        Self {
            store: Some(Box::new(DiskStore::new(&dir))),
            disk_dir: Some(dir),
            ..Self::default()
        }
    }

    /// An in-memory cache over an explicit [`ArtifactStore`]
    /// implementation (tests, or fleets with a non-filesystem tier).
    pub fn with_store(store: Box<dyn ArtifactStore>) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The conventional persistent cache: backed by the directory named
    /// by the `M3D_CACHE_DIR` environment variable, or memory-only when
    /// it is unset or empty (the default, which keeps single-process
    /// runs byte-reproducible without external state).
    pub fn persistent() -> Self {
        match std::env::var("M3D_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => Self::with_disk_dir(dir),
            _ => Self::new(),
        }
    }

    /// The on-disk store directory, if a filesystem-backed tier is
    /// active.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Fetches the flow for `cfg` — the one entry point every caller
    /// (engine stages, experiment cases, the service) goes through.
    /// Tiers, in order: in-memory memo, on-disk artifact store,
    /// single-flight join, then a flow run (warm-started from the
    /// nearest cached neighbour when [`FetchOpts::warm`] allows and a
    /// valid seed exists, cold otherwise).
    ///
    /// # Errors
    ///
    /// Propagates flow failures; errors are not cached.
    pub fn fetch(&self, cfg: &FlowConfig, opts: FetchOpts) -> CoreResult<FlowFetch> {
        let key = cfg.stable_key();
        if let Some(hit) = self.memory_fetch(key, opts.artifacts) {
            return Ok(hit);
        }
        if !opts.coalesce {
            return self.fetch_uncoalesced(cfg, key, opts);
        }
        let (value, flight) = self
            .inflight
            .run(key, None, || self.fetch_uncoalesced(cfg, key, opts))?;
        let fetch = value.expect("no deadline, so never TimedOut");
        if flight == Flight::Joined {
            if opts.artifacts && fetch.artifacts.is_none() {
                // The leader ran a report-level lookup; satisfy the
                // artifact request ourselves (normally a memory hit on
                // the entry the leader just computed).
                return self.fetch_uncoalesced(cfg, key, opts);
            }
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            Recorder::global().incr("flow_cache.coalesced", 1);
            return Ok(FlowFetch {
                cache_hit: false,
                disk_hit: false,
                coalesced: true,
                warm: false,
                ..fetch
            });
        }
        Ok(fetch)
    }

    /// The non-coalescing lookup ladder: memory → disk → compute.
    fn fetch_uncoalesced(
        &self,
        cfg: &FlowConfig,
        key: u64,
        opts: FetchOpts,
    ) -> CoreResult<FlowFetch> {
        if let Some(hit) = self.memory_fetch(key, opts.artifacts) {
            return Ok(hit);
        }
        if !opts.artifacts {
            if let Some(envelope) = self.store.as_ref().and_then(|store| store.get(key)) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Recorder::global().incr("flow_cache.disk_hits", 1);
                let report = Arc::clone(
                    &self
                        .entries
                        .lock()
                        .expect(POISONED)
                        .entry(key)
                        .or_insert_with(|| Entry {
                            report: Arc::new(envelope.report),
                            flow: None,
                        })
                        .report,
                );
                return Ok(FlowFetch {
                    report,
                    artifacts: None,
                    cache_hit: false,
                    disk_hit: true,
                    coalesced: false,
                    warm: false,
                });
            }
        }
        self.compute(cfg, key, opts.warm)
    }

    /// Answers from the in-memory memo, or `None`.
    fn memory_fetch(&self, key: u64, want_artifacts: bool) -> Option<FlowFetch> {
        let (report, artifacts) = {
            let entries = self.entries.lock().expect(POISONED);
            let entry = entries.get(&key)?;
            let artifacts = if want_artifacts {
                Some(Arc::clone(entry.flow.as_ref()?))
            } else {
                None
            };
            (Arc::clone(&entry.report), artifacts)
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        Recorder::global().incr("flow_cache.hits", 1);
        Some(FlowFetch {
            report,
            artifacts,
            cache_hit: true,
            disk_hit: false,
            coalesced: false,
            warm: false,
        })
    }

    /// Runs the flow (warm when a usable seed exists and `warm` allows)
    /// and memoises it: per-key entry, seed index, disk envelope.
    fn compute(&self, cfg: &FlowConfig, key: u64, warm_allowed: bool) -> CoreResult<FlowFetch> {
        let seed = if warm_allowed {
            self.find_seed(cfg, key)
        } else {
            None
        };
        let computed = Arc::new(Rtl2GdsFlow::new(cfg.clone()).run_seeded(seed)?);
        let warm = computed.1.warm;
        // A warm run still *ran* the flow, so it is a miss for the
        // serialised CacheStats — `--json` stays byte-identical whether
        // or not a neighbour's seed was available.
        self.misses.fetch_add(1, Ordering::Relaxed);
        Recorder::global().incr("flow_cache.misses", 1);
        if warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
            Recorder::global().incr("flow_cache.warm_hits", 1);
        }
        Self::report_flow_counters(&computed.1.span, warm);
        self.write_store(cfg, key, &computed);
        let (report, flow) = {
            let mut entries = self.entries.lock().expect(POISONED);
            let entry = entries.entry(key).or_insert_with(|| Entry {
                report: Arc::new(computed.0.clone()),
                flow: None,
            });
            let flow = Arc::clone(entry.flow.get_or_insert(computed));
            (Arc::clone(&entry.report), flow)
        };
        self.seeds
            .lock()
            .expect(POISONED)
            .entry(flow.1.seed.placement_key)
            .or_default()
            .push(NeighbourMeta {
                key,
                params: cfg.param_point(),
            });
        Ok(FlowFetch {
            report,
            artifacts: Some(flow),
            cache_hit: false,
            disk_hit: false,
            coalesced: false,
            warm,
        })
    }

    /// The nearest warm-start seed for `cfg`, or `None`. In-process
    /// seeds are checked first (free), then the disk store's sidecar
    /// metadata (only the winning candidate's envelope is parsed).
    /// Exact-key candidates are excluded from neighbour ranking — an
    /// exact hit is served by the hit tiers, not warm-started — except
    /// that an artifact-level lookup finding its *own* exact envelope
    /// on disk uses that envelope's seed to replay itself.
    fn find_seed(&self, cfg: &FlowConfig, key: u64) -> Option<Arc<PlacementSeed>> {
        let placement_key = cfg.placement_key();
        let target = cfg.param_point();
        let near = self
            .seeds
            .lock()
            .expect(POISONED)
            .get(&placement_key)
            .and_then(|cands| nearest_neighbour(target, key, cands));
        // Indexed keys always hold a computed flow.
        if let Some(seed) = near.and_then(|pick| {
            let entries = self.entries.lock().expect(POISONED);
            Some(Arc::clone(&entries.get(&pick.key)?.flow.as_ref()?.1.seed))
        }) {
            return Some(seed);
        }
        let store = self.store.as_ref()?;
        // Reaching compute with our exact envelope on disk means the
        // lookup needs artifacts the envelope cannot fully supply — but
        // its seed replays this very configuration, the best warm start
        // there is.
        if let Some(envelope) = store.get(key) {
            return Some(Arc::new(envelope.seed));
        }
        let pick = nearest_neighbour(target, key, &store.neighbours(placement_key))?;
        Some(Arc::new(store.get(pick.key)?.seed))
    }

    /// Writes one computed flow through the artifact store (no-op
    /// without one).
    fn write_store(&self, cfg: &FlowConfig, key: u64, computed: &(FlowReport, FlowArtifacts)) {
        let Some(store) = &self.store else {
            return;
        };
        let artifacts = &computed.1;
        store.put(&StoredEnvelope {
            version: STORE_VERSION,
            key,
            placement_key: artifacts.seed.placement_key,
            params: cfg.param_point(),
            report: computed.0.clone(),
            seed: (*artifacts.seed).clone(),
            routing: artifacts.routing.clone(),
            timing: artifacts.timing.clone(),
            clock_tree: artifacts.clock_tree.clone(),
            power: artifacts.power.clone(),
        });
    }

    /// Reports the flow's headline sub-span counters into the global
    /// recorder — the always-on aggregate `--metrics-text` exposes even
    /// when no trace is being written. Warm runs report their replayed
    /// annealing under `pd_flow.warm_*` (the steps were reused, not
    /// executed).
    fn report_flow_counters(span: &SpanNode, warm: bool) {
        let rec = Recorder::global();
        rec.incr("pd_flow.runs", 1);
        if let Some(place) = span.find("place") {
            let steps = place.counter_value("steps").unwrap_or(0);
            if warm {
                rec.incr("pd_flow.warm_runs", 1);
                rec.incr("pd_flow.warm_steps_reused", steps);
            } else {
                rec.incr("pd_flow.anneal_steps", steps);
            }
        }
        if let Some(opt) = span.find("opt") {
            rec.incr(
                "pd_flow.opt_rounds",
                opt.counter_value("rounds").unwrap_or(0),
            );
            rec.incr("pd_flow.upsized", opt.counter_value("upsized").unwrap_or(0));
            rec.incr(
                "pd_flow.buffers_inserted",
                opt.counter_value("buffers_inserted").unwrap_or(0),
            );
            if let Some(route) = opt.children.iter().rev().find_map(|c| c.find("route")) {
                rec.incr(
                    "pd_flow.signal_ilvs",
                    route.counter_value("signal_ilvs").unwrap_or(0),
                );
                rec.incr(
                    "pd_flow.memory_cell_ilvs",
                    route.counter_value("memory_cell_ilvs").unwrap_or(0),
                );
            }
        }
    }

    /// The deterministic sub-span tree recorded when this process
    /// computed the flow for `cfg` (placement steps, optimisation
    /// rounds, CTS/STA counters). `None` when the flow has not been
    /// computed here — cache and disk hits carry no sub-spans, which is
    /// exactly what keeps traces honest about provenance. Warm runs
    /// *do* carry one: they executed the flow.
    pub fn sub_span(&self, cfg: &FlowConfig) -> Option<SpanNode> {
        let flow = self
            .entries
            .lock()
            .expect(POISONED)
            .get(&cfg.stable_key())?
            .flow
            .clone()?;
        Some(flow.1.span.clone())
    }

    /// Calls answered by joining another thread's in-flight flow run.
    pub fn coalesced_count(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Flow runs that warm-started from a cached neighbour's seed.
    pub fn warm_count(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Cached configuration count (flows computed in this process).
    pub fn len(&self) -> usize {
        let entries = self.entries.lock().expect(POISONED);
        entries.values().filter(|e| e.flow.is_some()).count()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::store::MemoryStore;

    fn quick_cfg() -> FlowConfig {
        FlowConfig::baseline_2d()
            .with_cs(m3d_netlist::CsConfig {
                rows: 4,
                cols: 4,
                global_buffer_kb: 64,
                local_buffer_kb: 8,
                ..m3d_netlist::CsConfig::default()
            })
            .quick()
    }

    #[test]
    fn repeated_config_hits_the_cache() {
        let cache = FlowCache::new();
        let cfg = quick_cfg();
        let first = cache.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        let second = cache.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        assert!(!first.reused(), "first lookup must run the flow");
        assert!(!first.warm, "nothing to seed from");
        assert!(second.cache_hit, "identical config must be a cache hit");
        assert_eq!(second.provenance().name(), "cache-hit");
        assert!(Arc::ptr_eq(
            first.artifacts.as_ref().unwrap(),
            second.artifacts.as_ref().unwrap()
        ));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                disk_hits: 0
            }
        );
        assert_eq!(cache.len(), 1);

        // A structurally equal but separately constructed config keys
        // the same entry.
        let third = cache.fetch(&quick_cfg(), FetchOpts::artifacts()).unwrap();
        assert!(third.cache_hit);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn distinct_configs_occupy_distinct_entries() {
        let cache = FlowCache::new();
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;
        cache.fetch(&a, FetchOpts::artifacts()).unwrap();
        let fetch = cache.fetch(&b, FetchOpts::artifacts()).unwrap();
        assert!(!fetch.reused(), "modified config must miss");
        assert!(
            fetch.warm,
            "an adjacent config shares the placement key, so the miss warm-starts"
        );
        assert_eq!(fetch.provenance().name(), "warm");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.warm_count(), 1);
    }

    #[test]
    fn warm_runs_match_cold_runs_exactly() {
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;

        // Cold reference: each config computed in isolation.
        let cold = FlowCache::new();
        let cold_b = cold.fetch(&b, FetchOpts::artifacts().cold()).unwrap();
        assert!(!cold_b.warm);

        // Warm path: `a` seeds `b`.
        let warm = FlowCache::new();
        warm.fetch(&a, FetchOpts::report()).unwrap();
        let warm_b = warm.fetch(&b, FetchOpts::artifacts()).unwrap();
        assert!(warm_b.warm);
        assert_eq!(*warm_b.report, *cold_b.report, "byte-identical report");
        assert_eq!(
            warm.sub_span(&b).unwrap(),
            cold.sub_span(&b).unwrap(),
            "byte-identical sub-span tree"
        );
        let wa = &warm_b.artifacts.as_ref().unwrap().1;
        let ca = &cold_b.artifacts.as_ref().unwrap().1;
        assert_eq!(wa.placement, ca.placement);
        assert_eq!(wa.routing, ca.routing);
        assert_eq!(wa.seed, ca.seed);
    }

    #[test]
    fn report_lookup_shares_the_memo() {
        let cache = FlowCache::new();
        let cfg = quick_cfg();
        let report = cache.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(!report.reused());
        let again = cache.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(again.cache_hit);
        assert!(Arc::ptr_eq(&report.report, &again.report));
        // The report-level miss ran the full flow, so a subsequent
        // artifact-level lookup of the same config hits the memo too.
        let full = cache.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        assert!(
            full.cache_hit,
            "the flow already ran; artifacts are memoised"
        );
        assert!(full.artifacts.is_some());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                disk_hits: 0
            }
        );
    }

    #[test]
    fn computed_flows_record_sub_spans_but_hits_do_not_add_any() {
        let cache = FlowCache::new();
        let cfg = quick_cfg();
        assert!(cache.sub_span(&cfg).is_none(), "nothing computed yet");
        cache.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        let span = cache.sub_span(&cfg).expect("computed flow has a tree");
        assert_eq!(span.name, "flow");
        for phase in ["place", "route", "cts", "sta"] {
            assert!(span.find(phase).is_some(), "missing {phase} sub-span");
        }
        assert!(span.find("place").unwrap().counter_value("steps").unwrap() > 0);
        // A cache hit returns the same recorded tree, not a new one.
        assert!(cache.fetch(&cfg, FetchOpts::artifacts()).unwrap().cache_hit);
        assert_eq!(cache.sub_span(&cfg).unwrap(), span);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowCache>();
        assert_send_sync::<std::sync::Arc<FlowCache>>();
    }

    #[test]
    fn concurrent_identical_configs_run_one_flow() {
        use std::sync::Barrier;
        let cache = FlowCache::new();
        let cfg = quick_cfg();
        let gate = Barrier::new(4);
        let fetches: Vec<FlowFetch> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        cache.fetch(&cfg, FetchOpts::report()).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Exactly one flow executed; everyone else joined it or (in a
        // rare interleaving) hit the memo it had just populated.
        assert_eq!(cache.stats().misses, 1, "one flow run for 4 callers");
        assert_eq!(
            fetches.iter().filter(|f| !f.reused()).count(),
            1,
            "exactly one leader computed"
        );
        assert_eq!(
            cache.coalesced_count(),
            fetches.iter().filter(|f| f.coalesced).count() as u64
        );
        // A later identical request is a plain cache hit.
        let fetch = cache.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(fetch.cache_hit && !fetch.coalesced);
    }

    #[test]
    fn disk_store_survives_the_process_boundary() {
        let dir = std::env::temp_dir().join(format!("m3d-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = quick_cfg();

        // "Process one" computes and writes through.
        let one = FlowCache::with_disk_dir(&dir);
        let first = one.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(!first.reused());
        assert_eq!(one.stats().disk_hits, 0);

        // "Process two" (a fresh cache over the same dir) reads it back
        // bit-identically without running the flow.
        let two = FlowCache::with_disk_dir(&dir);
        let recalled = two.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(recalled.disk_hit);
        assert_eq!(recalled.provenance().name(), "disk-hit");
        assert_eq!(
            two.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                disk_hits: 1
            }
        );
        assert_eq!(*first.report, *recalled.report, "disk round-trip is exact");

        // "Process three" asks for artifacts: the envelope cannot fully
        // supply them, so the flow re-runs — warm-started by its own
        // stored seed, reproducing the cold result exactly.
        let three = FlowCache::with_disk_dir(&dir);
        let full = three.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        assert!(full.warm, "own envelope seeds the artifact recompute");
        assert_eq!(*full.report, *first.report);

        // Corrupt envelope degrades to a cold miss, not an error.
        let store = DiskStore::new(&dir);
        fs::write(store.envelope_path(cfg.stable_key()), "not json").unwrap();
        fs::remove_file(store.meta_path(cfg.stable_key())).ok();
        let four = FlowCache::with_disk_dir(&dir);
        let fetch = four.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(!fetch.reused());
        assert_eq!(four.stats().misses, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_neighbours_warm_start_across_processes() {
        let dir = std::env::temp_dir().join(format!("m3d-cache-warm-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;

        // Process one computes only `a`.
        let one = FlowCache::with_disk_dir(&dir);
        one.fetch(&a, FetchOpts::report()).unwrap();

        // Process two computes `b`: never seen, but `a`'s envelope is a
        // lattice neighbour — warm start from disk.
        let two = FlowCache::with_disk_dir(&dir);
        let fetch = two.fetch(&b, FetchOpts::report()).unwrap();
        assert!(!fetch.reused(), "b itself was never stored");
        assert!(fetch.warm, "a's stored seed warms b");
        assert_eq!(two.warm_count(), 1);

        // Cold reference agrees byte-for-byte.
        let cold = FlowCache::new();
        let cold_b = cold.fetch(&b, FetchOpts::report().cold()).unwrap();
        assert_eq!(*fetch.report, *cold_b.report);
        // The seed's place spans went through the disk encoding and
        // still replay the cold sub-span tree exactly.
        assert_eq!(
            two.sub_span(&b).expect("warm run recorded spans"),
            cold.sub_span(&b).expect("cold run recorded spans")
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_seed_envelope_falls_back_to_cold() {
        let store = MemoryStore::new();
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;
        // Store a's envelope, then mangle its seed so validation fails.
        let one = FlowCache::new();
        let fa = one.fetch(&a, FetchOpts::artifacts()).unwrap();
        let artifacts = &fa.artifacts.as_ref().unwrap().1;
        let mut seed = (*artifacts.seed).clone();
        seed.placement.cell_pos.truncate(1);
        store.put(&StoredEnvelope {
            version: STORE_VERSION,
            key: a.stable_key(),
            placement_key: a.placement_key(),
            params: a.param_point(),
            report: fa.report.as_ref().clone(),
            seed,
            routing: artifacts.routing.clone(),
            timing: artifacts.timing.clone(),
            clock_tree: artifacts.clock_tree.clone(),
            power: artifacts.power.clone(),
        });
        let cache = FlowCache::with_store(Box::new(store));
        let fetch = cache.fetch(&b, FetchOpts::report()).unwrap();
        assert!(
            !fetch.warm,
            "a truncated seed fails validation and the run goes cold"
        );
        let cold = FlowCache::new();
        let cold_b = cold.fetch(&b, FetchOpts::report().cold()).unwrap();
        assert_eq!(*fetch.report, *cold_b.report);
    }

    #[test]
    fn unwritable_disk_dir_degrades_to_memory_with_a_counter() {
        // A path under a *file* can never be created.
        let blocker = std::env::temp_dir().join(format!("m3d-blocker-{}", std::process::id()));
        fs::write(&blocker, "file, not dir").unwrap();
        let before = Recorder::global().counter("cache.disk_errors");
        let cache = FlowCache::with_disk_dir(blocker.join("sub"));
        assert!(cache.disk_dir().is_none(), "degraded to memory-only");
        let after = Recorder::global().counter("cache.disk_errors");
        assert!(after > before, "disk misconfiguration is counted");
        // And it still works as a plain cache.
        let fetch = cache.fetch(&quick_cfg(), FetchOpts::report()).unwrap();
        assert!(!fetch.reused());
        let _ = fs::remove_file(&blocker);
    }
}
