//! The on-disk artifact store behind the flow cache's disk tier.
//!
//! [`DiskStore`] keeps two kinds of file in one flat directory, and
//! opens each by name — nothing scans the directory:
//!
//! * `flow-v4-<key>.json` — a [`StoredEnvelope`] holding the
//!   [`FlowReport`] of the configuration whose
//!   [`m3d_pd::FlowConfig::stable_key`] is `key`. A report-level disk
//!   hit parses only this.
//! * `place-v4-<placement_key>.json` — `{version, seed}`: the
//!   pre-optimisation [`PlacementSeed`] that every configuration
//!   sharing that [`m3d_pd::FlowConfig::placement_key`] warm-starts
//!   from. All seeds under one placement key are byte-identical, so
//!   one file per key holds them all.
//!
//! The `v4` in the file names is [`STORE_VERSION`]: files written under
//! another version are never read, and a document whose `version` field
//! disagrees is skipped with a `cache.store_version_skip` counter, never
//! a panic. Readers check the key inside a document against the one
//! they asked for, trusting the content rather than the file name.
//!
//! All reads are best-effort: corrupt, truncated or unreadable files
//! degrade to `None` (a cache miss). Writes go to a writer-unique temp
//! name then rename, so concurrent readers — including other replicas
//! sharing the directory as the fleet's artifact tier — never observe
//! a torn file; write failures bump `cache.disk_errors`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use m3d_pd::{FlowReport, PlacementSeed};
use serde::{Deserialize, Serialize};

use crate::obs::Recorder;

/// Version of the on-disk schema this release writes (4: report-only
/// envelopes plus one seed file per placement key).
pub const STORE_VERSION: u64 = 4;

/// The report file of one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredEnvelope {
    /// Schema version ([`STORE_VERSION`] when written by this
    /// release). Readers skip versions they do not understand.
    pub version: u64,
    /// [`m3d_pd::FlowConfig::stable_key`] of the configuration.
    pub key: u64,
    /// The flow's comparison metrics.
    pub report: FlowReport,
}

/// The seed file of one placement key.
#[derive(Debug, Serialize, Deserialize)]
struct StoredSeed {
    version: u64,
    seed: PlacementSeed,
}

/// The flow cache's filesystem tier: report envelopes and placement
/// seeds in a flat directory, shareable between processes and replicas.
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

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the report envelope for `key`.
    pub fn envelope_path(&self, key: u64) -> PathBuf {
        self.dir
            .join(format!("flow-v{STORE_VERSION}-{key:016x}.json"))
    }

    /// Path of the placement seed for `placement_key`.
    pub fn seed_path(&self, placement_key: u64) -> PathBuf {
        self.dir
            .join(format!("place-v{STORE_VERSION}-{placement_key:016x}.json"))
    }

    /// Persists one configuration's report envelope.
    pub fn put(&self, envelope: &StoredEnvelope) {
        if let Ok(text) = serde_json::to_string(envelope) {
            self.write_atomic(&self.envelope_path(envelope.key), text + "\n");
        }
    }

    /// The envelope stored for `key`, if present, readable and of the
    /// current version.
    pub fn get(&self, key: u64) -> Option<StoredEnvelope> {
        let envelope: StoredEnvelope = read(&self.envelope_path(key))?;
        (current(envelope.version) && envelope.key == key).then_some(envelope)
    }

    /// Persists `seed` under its own placement key.
    pub fn put_seed(&self, seed: &PlacementSeed) {
        let doc = StoredSeed {
            version: STORE_VERSION,
            seed: seed.clone(),
        };
        if let Ok(text) = serde_json::to_string(&doc) {
            self.write_atomic(&self.seed_path(seed.placement_key), text + "\n");
        }
    }

    /// The seed stored for `placement_key`, if present, readable, of
    /// the current version and really produced under that key.
    pub fn get_seed(&self, placement_key: u64) -> Option<PlacementSeed> {
        let doc: StoredSeed = read(&self.seed_path(placement_key))?;
        (current(doc.version) && doc.seed.placement_key == placement_key).then_some(doc.seed)
    }

    /// Writes `text` to a writer-unique temp name, then renames into
    /// place — atomic within one filesystem, so readers never observe
    /// a torn file. Racing writers of the same file produce
    /// byte-identical contents (the flow is deterministic), so
    /// whichever rename lands last is indistinguishable from the
    /// first.
    fn write_atomic(&self, path: &Path, text: String) {
        static WRITER_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITER_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        if fs::write(&tmp, text).is_err() || fs::rename(&tmp, path).is_err() {
            let _ = fs::remove_file(&tmp);
            Recorder::global().incr("cache.disk_errors", 1);
        }
    }
}

/// Parses the JSON document at `path`, or `None`.
fn read<T: Deserialize>(path: &Path) -> Option<T> {
    serde_json::from_str(&fs::read_to_string(path).ok()?).ok()
}

/// Whether a document of schema `version` is readable by this release.
/// A future (or mangled) schema is skipped and counted, not guessed at.
fn current(version: u64) -> bool {
    let ok = version == STORE_VERSION;
    if !ok {
        Recorder::global().incr("cache.store_version_skip", 1);
    }
    ok
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

    /// The report envelope and the seed of one cold run of `cfg`.
    fn run(cfg: &FlowConfig) -> (StoredEnvelope, PlacementSeed) {
        let (report, artifacts) = Rtl2GdsFlow::new(cfg.clone()).run().unwrap();
        let envelope = StoredEnvelope {
            version: STORE_VERSION,
            key: cfg.stable_key(),
            report,
        };
        (envelope, (*artifacts.signoff.seed).clone())
    }

    fn temp_store(tag: &str) -> (PathBuf, DiskStore) {
        let dir = std::env::temp_dir().join(format!("m3d-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let store = DiskStore::new(&dir);
        (dir, store)
    }

    #[test]
    fn disk_store_roundtrips_reports_and_seeds() {
        let (dir, store) = temp_store("test");
        let a = quick_cfg();
        let mut b = quick_cfg();
        b.activity += 0.05;
        let (ea, seed_a) = run(&a);
        let (eb, seed_b) = run(&b);
        assert_eq!(seed_a, seed_b, "one placement key, one seed");
        store.put(&ea);
        store.put(&eb);
        store.put_seed(&seed_a);

        assert_eq!(store.get(a.stable_key()), Some(ea));
        assert_eq!(store.get(b.stable_key()), Some(eb));
        assert_eq!(store.get(0xDEAD), None);
        assert_eq!(store.get_seed(b.placement_key()), Some(seed_a));
        assert_eq!(store.get_seed(0xDEAD), None);
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            3,
            "two reports, one seed"
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_future_version_files_degrade_to_misses() {
        let (dir, store) = temp_store("bad");
        let cfg = quick_cfg();
        let (env, seed) = run(&cfg);
        let (key, placement_key) = (cfg.stable_key(), cfg.placement_key());
        store.put(&env);
        store.put_seed(&seed);
        let path = store.envelope_path(key);
        let seed_path = store.seed_path(placement_key);
        let seed_text = fs::read_to_string(&seed_path).unwrap();

        // Truncated mid-document.
        for p in [&path, &seed_path] {
            let text = fs::read_to_string(p).unwrap();
            fs::write(p, &text[..text.len() / 2]).unwrap();
        }
        assert_eq!(store.get(key), None, "truncated ⇒ miss");
        assert_eq!(store.get_seed(placement_key), None, "truncated seed ⇒ miss");

        // Unknown version is skipped (and counted), not guessed at.
        let mut future = env.clone();
        future.version = STORE_VERSION + 1;
        fs::write(&path, serde_json::to_string(&future).unwrap()).unwrap();
        let future_seed = StoredSeed {
            version: STORE_VERSION + 1,
            seed: seed.clone(),
        };
        fs::write(&seed_path, serde_json::to_string(&future_seed).unwrap()).unwrap();
        assert_eq!(store.get(key), None, "future version ⇒ miss");
        assert_eq!(store.get_seed(placement_key), None, "future seed ⇒ miss");

        // Garbage bytes.
        for p in [&path, &seed_path] {
            fs::write(p, "not json at all").unwrap();
        }
        assert_eq!(store.get(key), None);
        assert_eq!(store.get_seed(placement_key), None);

        // A well-formed seed reads back under its own placement key, but
        // not under another key's file name.
        fs::write(&seed_path, &seed_text).unwrap();
        assert_eq!(store.get_seed(placement_key), Some(seed));
        let other = placement_key ^ 1;
        fs::write(store.seed_path(other), &seed_text).unwrap();
        assert_eq!(store.get_seed(other), None, "content, not file name");

        let _ = fs::remove_dir_all(&dir);
    }
}
