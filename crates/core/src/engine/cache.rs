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
//! variable), every computed flow writes its report through the
//! [`DiskStore`], and every cold run also writes its placement seed
//! there under its [`FlowConfig::placement_key`]. Report-level lookups
//! are satisfied from disk before falling back to running the flow; the
//! vendored JSON encoder prints floats in shortest-round-trip form, so a
//! report read back from disk is bit-identical to the one that was
//! written. Corrupt or unreadable files are treated as misses and
//! overwritten.
//!
//! When a configuration misses every exact tier, the flow resumes
//! **warm** from the furthest stage result another configuration left
//! (see [`m3d_pd::Rtl2GdsFlow::resume`]):
//!
//! 1. the opt memo: the post-optimisation [`SignoffState`] this process
//!    computed under the same [`FlowConfig::opt_key`] — a configuration
//!    that differs only in `activity` then runs power and the report
//!    alone, on a state it shares by `Arc`;
//! 2. the seed: the first placement seed this process computed under
//!    the same [`FlowConfig::placement_key`], else the disk store's seed
//!    file — the flow skips placement and legalisation.
//!
//! Equal keys provably reproduce the same stage result, so a resumed run
//! replays the recorded spans verbatim and re-runs only the later
//! stages — byte-identical `--json`/`--trace-json` output, a fraction of
//! the wall-clock. Invalid or corrupt seeds fall back to a cold run,
//! never an error. Nothing memoises the pre-opt netlist: opt mutates it,
//! so reusing it would cost every cold run a full netlist clone.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use m3d_pd::{
    FlowArtifacts, FlowConfig, FlowReport, PlacementSeed, Resume, Rtl2GdsFlow, SignoffState,
};
use serde::{Deserialize, Serialize};

use crate::engine::inflight::{Flight, InFlight};
use crate::engine::store::{DiskStore, StoredEnvelope, STORE_VERSION};
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

/// What a [`FlowCache::fetch`] should produce. The default is a
/// report-level lookup — the cheapest correct thing for sweep points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchOpts {
    /// Return the full in-memory `(FlowReport, FlowArtifacts)` pair
    /// (forces the flow to exist in this process's memory, running it
    /// — warm when possible — if only the report tier has it).
    pub artifacts: bool,
}

impl FetchOpts {
    /// Report-level lookup (the default): memory → disk → warm/cold run.
    pub fn report() -> Self {
        Self::default()
    }

    /// Artifact-level lookup: the fetch carries the full
    /// `(FlowReport, FlowArtifacts)` pair.
    pub fn artifacts() -> Self {
        Self { artifacts: true }
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
    /// The flow ran, warm-started from the placement seed stored under
    /// its placement key. Byte-identical to a cold run; only wall-clock
    /// differs.
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
/// it. Concurrent fetches of one uncached key coalesce onto a single
/// run; the flow is deterministic, so whichever result lands first
/// simply sticks.
#[derive(Debug, Default)]
pub struct FlowCache {
    entries: Mutex<HashMap<u64, Entry>>,
    /// Warm-start seeds: placement key → the first seed computed under
    /// it in this process (every seed under one key is byte-identical).
    seeds: Mutex<HashMap<u64, Arc<PlacementSeed>>>,
    /// The opt memo: opt key → the first post-optimisation state
    /// computed under it, shared with that flow's artifacts (every state
    /// under one key is byte-identical).
    signoffs: Mutex<HashMap<u64, Arc<SignoffState>>>,
    inflight: InFlight<FlowFetch>,
    store: Option<DiskStore>,
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
            store: Some(DiskStore::new(dir)),
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
        self.store.as_ref().map(DiskStore::dir)
    }

    /// Fetches the flow for `cfg` — the one entry point every caller
    /// (engine stages, experiment cases, the service) goes through.
    /// Tiers, in order: in-memory memo, single-flight join, on-disk
    /// artifact store, then a flow run (warm-started when a valid seed
    /// exists for the configuration's placement key, cold otherwise).
    ///
    /// # Errors
    ///
    /// Propagates flow failures; errors are not cached.
    pub fn fetch(&self, cfg: &FlowConfig, opts: FetchOpts) -> CoreResult<FlowFetch> {
        let key = cfg.stable_key();
        if let Some(hit) = self.memory_fetch(key, opts.artifacts) {
            return Ok(hit);
        }
        let (value, flight) = self
            .inflight
            .run(key, None, || self.lookup(cfg, key, opts))?;
        let fetch = value.expect("no deadline, so never TimedOut");
        if flight == Flight::Joined {
            if opts.artifacts && fetch.artifacts.is_none() {
                // The leader ran a report-level lookup; satisfy the
                // artifact request ourselves (normally a memory hit on
                // the entry the leader just computed).
                return self.lookup(cfg, key, opts);
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

    /// The lookup ladder one flight runs: memory → disk → compute.
    fn lookup(&self, cfg: &FlowConfig, key: u64, opts: FetchOpts) -> CoreResult<FlowFetch> {
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
        self.compute(cfg, key)
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

    /// Runs the flow (warm when a sign-off state or seed exists) and
    /// memoises it: per-key entry, per-opt-key state, per-placement-key
    /// seed, disk files.
    fn compute(&self, cfg: &FlowConfig, key: u64) -> CoreResult<FlowFetch> {
        let from = self.resume_point(cfg);
        let computed = Arc::new(Rtl2GdsFlow::new(cfg.clone()).resume(from)?);
        let warm = computed.1.warm;
        // A warm run still *ran* the flow, so it is a miss for the
        // serialised CacheStats — `--json` stays byte-identical whether
        // or not a seed was available.
        self.misses.fetch_add(1, Ordering::Relaxed);
        Recorder::global().incr("flow_cache.misses", 1);
        if warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
            Recorder::global().incr("flow_cache.warm_hits", 1);
        }
        Self::report_flow_counters(&computed.1.span, warm);
        self.write_store(key, &computed);
        let (report, flow) = {
            let mut entries = self.entries.lock().expect(POISONED);
            let entry = entries.entry(key).or_insert_with(|| Entry {
                report: Arc::new(computed.0.clone()),
                flow: None,
            });
            let flow = Arc::clone(entry.flow.get_or_insert(computed));
            (Arc::clone(&entry.report), flow)
        };
        let signoff = &flow.1.signoff;
        self.signoffs
            .lock()
            .expect(POISONED)
            .entry(signoff.opt_key)
            .or_insert_with(|| Arc::clone(signoff));
        self.seeds
            .lock()
            .expect(POISONED)
            .entry(signoff.seed.placement_key)
            .or_insert_with(|| Arc::clone(&signoff.seed));
        Ok(FlowFetch {
            report,
            artifacts: Some(flow),
            cache_hit: false,
            disk_hit: false,
            coalesced: false,
            warm,
        })
    }

    /// The furthest stage `cfg` can resume from: this process's
    /// sign-off state under its opt key, else its first seed under the
    /// placement key, else the disk store's seed file, else cold.
    fn resume_point(&self, cfg: &FlowConfig) -> Resume {
        if let Some(state) = self.signoffs.lock().expect(POISONED).get(&cfg.opt_key()) {
            return Resume::SignedOff(Arc::clone(state));
        }
        let placement_key = cfg.placement_key();
        if let Some(seed) = self.seeds.lock().expect(POISONED).get(&placement_key) {
            return Resume::Placed(Arc::clone(seed));
        }
        match self.store.as_ref().and_then(|s| s.get_seed(placement_key)) {
            Some(seed) => Resume::Placed(Arc::new(seed)),
            None => Resume::Cold,
        }
    }

    /// Writes one computed flow's report, and a cold run's seed, through
    /// the disk store (no-op without one). A warm run's seed is already
    /// on disk under its placement key.
    fn write_store(&self, key: u64, computed: &(FlowReport, FlowArtifacts)) {
        let Some(store) = &self.store else {
            return;
        };
        store.put(&StoredEnvelope {
            version: STORE_VERSION,
            key,
            report: computed.0.clone(),
        });
        if !computed.1.warm {
            store.put_seed(&computed.1.signoff.seed);
        }
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

    /// Flow runs that warm-started from a cached placement seed.
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
    fn activity_only_fetch_shares_the_post_opt_state() {
        let cache = FlowCache::new();
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;
        let cold = cache.fetch(&a, FetchOpts::artifacts()).unwrap();
        let warm = cache.fetch(&b, FetchOpts::artifacts()).unwrap();
        assert!(!cold.warm && warm.warm);
        assert_eq!(warm.provenance(), Provenance::Warm);
        let (ca, wa) = (
            &cold.artifacts.as_ref().unwrap().1,
            &warm.artifacts.as_ref().unwrap().1,
        );
        assert!(Arc::ptr_eq(&ca.signoff, &wa.signoff));
        assert!(std::ptr::eq(&ca.signoff.netlist, &wa.signoff.netlist));
        assert!(std::ptr::eq(&ca.signoff.routing, &wa.signoff.routing));
        assert_ne!(ca.power, wa.power, "power is signed off per activity");
        assert_eq!(cache.warm_count(), 1);
        assert_eq!(cache.stats().misses, 2, "a memo hit still ran power");
    }

    #[test]
    fn an_opt_change_shares_only_the_placement_seed() {
        let cache = FlowCache::new();
        let base = quick_cfg();
        let cold = cache.fetch(&base, FetchOpts::artifacts()).unwrap();
        let cs = &cold.artifacts.as_ref().unwrap().1.signoff;
        let changes: [fn(&mut m3d_pd::OptConfig); 4] = [
            |o| o.max_rounds += 1,
            |o| o.upsize_threshold_ns *= 0.5,
            |o| o.buffer_length_um *= 0.5,
            |o| o.detour *= 1.1,
        ];
        for (i, change) in changes.iter().enumerate() {
            let mut cfg = base.clone();
            change(&mut cfg.opt);
            let fetch = cache.fetch(&cfg, FetchOpts::artifacts()).unwrap();
            let s = &fetch.artifacts.as_ref().unwrap().1.signoff;
            assert!(fetch.warm, "opt field {i}: the placement key is shared");
            assert!(Arc::ptr_eq(&s.seed, &cs.seed), "opt field {i}");
            assert!(
                !Arc::ptr_eq(s, cs),
                "opt field {i}: a new opt key reruns opt"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// Random (activity, opt) pairs through one cache: a fetch
        /// resumes from the first's sign-off state when the opt knobs
        /// agree and from its seed otherwise, and either way equals a
        /// cold run of its own configuration bit for bit.
        #[test]
        fn warm_runs_match_cold_runs_exactly(
            act_a in 1u32..=8,
            act_b in 1u32..=8,
            thr_a in 1u32..=4,
            thr_b in 1u32..=4,
            rounds_b in 1usize..=2,
        ) {
            let mut a = quick_cfg();
            a.activity = f64::from(act_a) * 0.05;
            a.opt.upsize_threshold_ns = f64::from(thr_a) * 0.1;
            // Off a's activity grid, so every `b` is a new configuration.
            let mut same_opt = a.clone();
            same_opt.activity = (f64::from(act_b) + 0.5) * 0.05;
            let mut new_opt = same_opt.clone();
            new_opt.opt.upsize_threshold_ns = f64::from(thr_b) * 0.1 + 0.05;
            new_opt.opt.max_rounds = rounds_b;

            let warm = FlowCache::new();
            proptest::prop_assert!(!warm.fetch(&a, FetchOpts::report()).unwrap().warm);
            for b in [same_opt, new_opt] {
                let wb = warm.fetch(&b, FetchOpts::artifacts()).unwrap();
                proptest::prop_assert!(wb.warm);
                let wa = &wb.artifacts.as_ref().unwrap().1;
                proptest::prop_assert_eq!(wa.signoff.opt_key == a.opt_key(), b.opt == a.opt);
                let (cr, ca) = Rtl2GdsFlow::new(b.clone()).run().unwrap();
                proptest::prop_assert_eq!(
                    serde_json::to_string(&*wb.report).unwrap(),
                    serde_json::to_string(&cr).unwrap()
                );
                proptest::prop_assert_eq!(&warm.sub_span(&b).unwrap(), &ca.span);
                proptest::prop_assert_eq!(&wa.signoff.placement, &ca.signoff.placement);
                proptest::prop_assert_eq!(&wa.signoff.routing, &ca.signoff.routing);
                proptest::prop_assert_eq!(&wa.signoff.seed, &ca.signoff.seed);
                proptest::prop_assert_eq!(&wa.power, &ca.power);
            }
        }
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

        // "Process three" asks for artifacts: the report file cannot
        // supply them, so the flow re-runs — warm-started by the seed
        // stored under its placement key, reproducing the cold result
        // exactly.
        let three = FlowCache::with_disk_dir(&dir);
        let full = three.fetch(&cfg, FetchOpts::artifacts()).unwrap();
        assert!(full.warm, "the stored seed warms the artifact recompute");
        assert_eq!(*full.report, *first.report);

        // Corrupt envelope degrades to a cold miss, not an error.
        let store = DiskStore::new(&dir);
        fs::write(store.envelope_path(cfg.stable_key()), "not json").unwrap();
        fs::remove_file(store.seed_path(cfg.placement_key())).ok();
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

        // Process two computes `b`: never seen, but it shares `a`'s
        // placement key — warm start from the seed file on disk.
        let two = FlowCache::with_disk_dir(&dir);
        let fetch = two.fetch(&b, FetchOpts::report()).unwrap();
        assert!(!fetch.reused(), "b itself was never stored");
        assert!(fetch.warm, "a's stored seed warms b");
        assert_eq!(two.warm_count(), 1);

        // Cold reference agrees byte-for-byte.
        let cold = FlowCache::new();
        let cold_b = cold.fetch(&b, FetchOpts::report()).unwrap();
        assert!(!cold_b.warm);
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
        let dir = std::env::temp_dir().join(format!("m3d-cache-bad-seed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = quick_cfg();
        let cold = FlowCache::new()
            .fetch(&cfg, FetchOpts::artifacts())
            .unwrap();
        let good_seed = &cold.artifacts.as_ref().unwrap().1.signoff.seed;
        // Store the seed mangled so validation fails.
        let mut seed = (**good_seed).clone();
        seed.placement.cell_pos.truncate(1);
        let cache = FlowCache::with_disk_dir(&dir);
        let store = DiskStore::new(&dir);
        store.put_seed(&seed);
        let fetch = cache.fetch(&cfg, FetchOpts::report()).unwrap();
        assert!(
            !fetch.warm,
            "a truncated seed fails validation and the run goes cold"
        );
        assert_eq!(*fetch.report, *cold.report);
        // The cold run replaced the corrupt seed file with its own.
        assert_eq!(
            store.get_seed(cfg.placement_key()).as_ref(),
            Some(&**good_seed)
        );
        let _ = fs::remove_dir_all(&dir);
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
