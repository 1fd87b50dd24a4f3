//! The artifact store behind the flow cache's disk tier.
//!
//! [`ArtifactStore`] abstracts the persistence layer the
//! [`crate::engine::FlowCache`] writes computed flows through to:
//! a versioned envelope ([`StoredEnvelope`]) carrying the
//! [`FlowReport`] plus the full physical-design state a warm start
//! needs — the pre-optimisation [`m3d_pd::PlacementSeed`], the routing
//! estimate, STA, clock tree and power sign-off. Two implementations
//! exist:
//!
//! * [`DiskStore`] — one `flow-v3-<key>.json` envelope per
//!   configuration plus a tiny `flow-v3-<key>.meta.json` sidecar
//!   (`{version, key, placement_key, params}`) so
//!   [`ArtifactStore::neighbours`] can rank warm-start candidates on
//!   the parameter lattice without parsing full envelopes. The `v3` in
//!   the file names is [`STORE_VERSION`]: files written under another
//!   version are never read, and an envelope whose `version` field
//!   disagrees is skipped with a `cache.store_version_skip` counter,
//!   never a panic.
//! * [`MemoryStore`] — a hash map with identical semantics, for tests
//!   and for exercising the trait without touching a filesystem.
//!
//! All reads are best-effort: corrupt, truncated or unreadable files
//! degrade to `None` (a cache miss). Writes go to a writer-unique temp
//! name then rename, so concurrent readers — including other replicas
//! sharing the directory as the fleet's artifact tier — never observe
//! a torn file; write failures bump `cache.disk_errors`.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use m3d_pd::{FlowReport, ParamPoint, PlacementSeed};
use serde::{Deserialize, Serialize};

use crate::obs::Recorder;

/// Version of the on-disk envelope schema this release writes (3: seed
/// spans in the deterministic span wire form).
pub const STORE_VERSION: u64 = 3;

/// Everything one computed flow persists: the report the engine
/// serialises, plus the physical state (placement seed, route/STA/CTS/
/// power results) that lets a neighbouring configuration warm-start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredEnvelope {
    /// Envelope schema version ([`STORE_VERSION`] when written by this
    /// release). Readers skip versions they do not understand.
    pub version: u64,
    /// [`m3d_pd::FlowConfig::stable_key`] of the configuration.
    pub key: u64,
    /// [`m3d_pd::FlowConfig::placement_key`] — the neighbourhood index.
    pub placement_key: u64,
    /// The configuration's lattice coordinates, for neighbour ranking.
    pub params: ParamPoint,
    /// The flow's comparison metrics.
    pub report: FlowReport,
    /// The pre-optimisation placement and its spans.
    pub seed: PlacementSeed,
    /// Final routing estimate.
    pub routing: m3d_pd::RoutingEstimate,
    /// Final timing sign-off.
    pub timing: m3d_pd::TimingReport,
    /// Estimated clock tree.
    pub clock_tree: m3d_pd::ClockTree,
    /// Power sign-off.
    pub power: m3d_pd::PowerReport,
}

/// The sidecar a [`DiskStore`] writes next to each envelope so
/// neighbour scans parse a few dozen bytes per candidate instead of a
/// full placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct EnvelopeMeta {
    version: u64,
    key: u64,
    placement_key: u64,
    params: ParamPoint,
}

/// A warm-start candidate surfaced by [`ArtifactStore::neighbours`]:
/// enough to rank by [`ParamPoint::distance`] and then [`get`]
/// (`ArtifactStore::get`) only the winner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighbourMeta {
    /// Full configuration key of the candidate.
    pub key: u64,
    /// Its lattice coordinates.
    pub params: ParamPoint,
}

/// The persistence layer behind the flow cache's disk tier.
///
/// Implementations are best-effort by contract: `put` may silently
/// drop (counted, never panicking), `get`/`neighbours` return what is
/// durable and readable right now.
pub trait ArtifactStore: std::fmt::Debug + Send + Sync {
    /// Persists one computed flow's envelope (and its neighbour
    /// sidecar).
    fn put(&self, envelope: &StoredEnvelope);

    /// The envelope stored for `key`, if present, readable and of a
    /// supported version.
    fn get(&self, key: u64) -> Option<StoredEnvelope>;

    /// All stored configurations sharing `placement_key` — the
    /// warm-start candidates for any configuration in that
    /// neighbourhood (callers exclude the exact key and rank by
    /// [`ParamPoint::distance`]).
    fn neighbours(&self, placement_key: u64) -> Vec<NeighbourMeta>;
}

/// Filesystem-backed [`ArtifactStore`]: one envelope + meta sidecar
/// per key in a flat directory (shareable between processes and
/// replicas).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// A store over `dir`. The directory must already exist and be
    /// writable — [`crate::engine::FlowCache::with_disk_dir`] probes
    /// for that before constructing one.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Path of the envelope for `key`.
    pub fn envelope_path(&self, key: u64) -> PathBuf {
        self.dir
            .join(format!("flow-v{STORE_VERSION}-{key:016x}.json"))
    }

    /// Path of the neighbour-scan sidecar for `key`.
    pub fn meta_path(&self, key: u64) -> PathBuf {
        self.dir
            .join(format!("flow-v{STORE_VERSION}-{key:016x}.meta.json"))
    }

    /// Writes `text` to a writer-unique temp name, then renames into
    /// place — atomic within one filesystem, so readers never observe
    /// a torn file. Racing writers of the same key produce
    /// byte-identical contents (the flow is deterministic), so
    /// whichever rename lands last is indistinguishable from the
    /// first.
    fn write_atomic(&self, path: &Path, text: String) -> bool {
        static WRITER_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITER_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        let ok = fs::write(&tmp, text).is_ok() && fs::rename(&tmp, path).is_ok();
        if !ok {
            let _ = fs::remove_file(&tmp);
            Recorder::global().incr("cache.disk_errors", 1);
        }
        ok
    }

    fn read_versioned<T: Deserialize + VersionedDoc>(path: &Path) -> Option<T> {
        let text = fs::read_to_string(path).ok()?;
        let doc: T = serde_json::from_str(&text).ok()?;
        if doc.version() != STORE_VERSION {
            // A future (or mangled) schema: skip it rather than guess.
            Recorder::global().incr("cache.store_version_skip", 1);
            return None;
        }
        Some(doc)
    }
}

/// Internal: documents carrying a schema version field.
trait VersionedDoc {
    fn version(&self) -> u64;
}

impl VersionedDoc for StoredEnvelope {
    fn version(&self) -> u64 {
        self.version
    }
}

impl VersionedDoc for EnvelopeMeta {
    fn version(&self) -> u64 {
        self.version
    }
}

impl ArtifactStore for DiskStore {
    fn put(&self, envelope: &StoredEnvelope) {
        let Ok(env_text) = serde_json::to_string(envelope) else {
            return;
        };
        let meta = EnvelopeMeta {
            version: envelope.version,
            key: envelope.key,
            placement_key: envelope.placement_key,
            params: envelope.params,
        };
        let Ok(meta_text) = serde_json::to_string_pretty(&meta) else {
            return;
        };
        // Envelope first: a sidecar must never advertise a key whose
        // envelope is not yet durable.
        if self.write_atomic(&self.envelope_path(envelope.key), env_text + "\n") {
            self.write_atomic(&self.meta_path(envelope.key), meta_text + "\n");
        }
    }

    fn get(&self, key: u64) -> Option<StoredEnvelope> {
        let envelope: StoredEnvelope = Self::read_versioned(&self.envelope_path(key))?;
        // A corrupt rename race could in principle land the wrong key's
        // bytes; trust the content, not the filename.
        (envelope.key == key).then_some(envelope)
    }

    fn neighbours(&self, placement_key: u64) -> Vec<NeighbourMeta> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let prefix = format!("flow-v{STORE_VERSION}-");
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) || !name.ends_with(".meta.json") {
                continue;
            }
            let Some(meta) = Self::read_versioned::<EnvelopeMeta>(&entry.path()) else {
                continue;
            };
            if meta.placement_key == placement_key {
                out.push(NeighbourMeta {
                    key: meta.key,
                    params: meta.params,
                });
            }
        }
        // read_dir order is filesystem-dependent; make ranking
        // tie-breaks deterministic.
        out.sort_by_key(|m| m.key);
        out
    }
}

/// In-memory [`ArtifactStore`]: trait parity for tests and ephemeral
/// fleets without a shared filesystem.
#[derive(Debug, Default)]
pub struct MemoryStore {
    envelopes: Mutex<HashMap<u64, StoredEnvelope>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored envelope count.
    pub fn len(&self) -> usize {
        self.envelopes.lock().unwrap().len()
    }

    /// Whether nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ArtifactStore for MemoryStore {
    fn put(&self, envelope: &StoredEnvelope) {
        self.envelopes
            .lock()
            .unwrap()
            .insert(envelope.key, envelope.clone());
    }

    fn get(&self, key: u64) -> Option<StoredEnvelope> {
        let envelope = self.envelopes.lock().unwrap().get(&key).cloned()?;
        if envelope.version != STORE_VERSION {
            Recorder::global().incr("cache.store_version_skip", 1);
            return None;
        }
        Some(envelope)
    }

    fn neighbours(&self, placement_key: u64) -> Vec<NeighbourMeta> {
        let mut out: Vec<NeighbourMeta> = self
            .envelopes
            .lock()
            .unwrap()
            .values()
            .filter(|e| e.placement_key == placement_key && e.version == STORE_VERSION)
            .map(|e| NeighbourMeta {
                key: e.key,
                params: e.params,
            })
            .collect();
        out.sort_by_key(|m| m.key);
        out
    }
}

/// Picks the nearest warm-start candidate for `target` among
/// `candidates` by scale-normalised lattice distance, excluding
/// `exclude_key` (the exact configuration — an exact hit is a cache
/// hit, not a warm start). Ties break toward the smaller key so the
/// choice is deterministic whatever order candidates arrive in.
pub fn nearest_neighbour(
    target: ParamPoint,
    exclude_key: u64,
    candidates: &[NeighbourMeta],
) -> Option<NeighbourMeta> {
    candidates
        .iter()
        .filter(|m| m.key != exclude_key)
        .copied()
        .min_by(|a, b| {
            let da = a.params.distance(&target);
            let db = b.params.distance(&target);
            da.partial_cmp(&db)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.key.cmp(&b.key))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_pd::{FlowConfig, Rtl2GdsFlow};

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

    fn envelope_for(cfg: &FlowConfig) -> StoredEnvelope {
        let (report, artifacts) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();
        StoredEnvelope {
            version: STORE_VERSION,
            key: cfg.stable_key(),
            placement_key: cfg.placement_key(),
            params: cfg.param_point(),
            report,
            seed: (*artifacts.seed).clone(),
            routing: artifacts.routing,
            timing: artifacts.timing,
            clock_tree: artifacts.clock_tree,
            power: artifacts.power,
        }
    }

    #[test]
    fn disk_store_roundtrips_envelopes_and_ranks_neighbours() {
        let dir = std::env::temp_dir().join(format!("m3d-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = DiskStore::new(&dir);

        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;
        let mut c = quick_cfg();
        c.activity += 0.25;
        let ea = envelope_for(&a);
        let eb = envelope_for(&b);
        let ec = envelope_for(&c);
        store.put(&ea);
        store.put(&eb);
        store.put(&ec);

        assert_eq!(store.get(a.stable_key()).as_ref(), Some(&ea));
        assert_eq!(store.get(b.stable_key()), Some(eb));
        assert_eq!(store.get(0xDEAD), None);

        let hood = store.neighbours(a.placement_key());
        assert_eq!(hood.len(), 3, "all three share the placement key");
        // Nearest to `c` excluding itself is `b`: |Δactivity| is 0.20
        // against `a`'s 0.25.
        let pick = nearest_neighbour(c.param_point(), c.stable_key(), &hood).unwrap();
        assert_eq!(pick.key, b.stable_key());
        // Excluding the exact key always holds.
        assert!(nearest_neighbour(a.param_point(), a.stable_key(), &hood)
            .is_some_and(|m| m.key != a.stable_key()));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_future_version_files_degrade_to_misses() {
        let dir = std::env::temp_dir().join(format!("m3d-store-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = DiskStore::new(&dir);
        let cfg = quick_cfg();
        let env = envelope_for(&cfg);
        store.put(&env);

        // Truncate the envelope mid-document.
        let path = store.envelope_path(cfg.stable_key());
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.get(cfg.stable_key()), None, "truncated ⇒ miss");

        // Unknown version is skipped (and counted), not guessed at.
        let mut future = env.clone();
        future.version = STORE_VERSION + 1;
        fs::write(&path, serde_json::to_string(&future).unwrap()).unwrap();
        assert_eq!(store.get(cfg.stable_key()), None, "future version ⇒ miss");

        // Garbage bytes.
        fs::write(&path, "not json at all").unwrap();
        assert_eq!(store.get(cfg.stable_key()), None);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_store_matches_the_trait_contract() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        let cfg = quick_cfg();
        let env = envelope_for(&cfg);
        store.put(&env);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(cfg.stable_key()), Some(env.clone()));
        let hood = store.neighbours(cfg.placement_key());
        assert_eq!(hood.len(), 1);
        assert_eq!(
            nearest_neighbour(cfg.param_point(), cfg.stable_key(), &hood),
            None,
            "the only candidate is the exact key"
        );
    }
}
