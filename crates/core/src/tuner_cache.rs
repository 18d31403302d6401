//! A keyed cache for tuned schedule parameters — the serving-side
//! amortization of the paper's §V-A empirical sweeps.
//!
//! Tuning is by far the most expensive step of a solve (tens of
//! schedule evaluations), yet its result depends only on the *problem*,
//! the table *shape* and the *platform* — not on the cell values. A
//! server handling many requests for the same problem can therefore
//! tune once and reuse: [`TuneKey`] buckets the exact dimensions to
//! their next power of two, so any instance in the same bucket shares
//! one tuned artifact. The key names the problem, not just its
//! execution pattern: problems sharing a pattern differ in the tiers
//! their kernels reach, and in their cost. Alongside the paper's
//! `(t_switch, t_share)` pair the artifact carries the [`ExecTier`] and
//! memory mode to solve on ([`TunedConfig`]). Consumers must
//! re-legalize cached parameters for the exact
//! instance with
//! [`ScheduleParams::clamped_for`](crate::schedule::ScheduleParams::clamped_for)
//! (a cached `t_switch` tuned near the top of the bucket can exceed a
//! smaller instance's wave count).
//!
//! The cache is thread-safe and intentionally tiny: a mutexed map,
//! the set of keys whose sweep is running, and hit/miss counters.
//! [`TunerCache::get_or_tune`] sweeps each key once: concurrent misses
//! on one key wait for the first caller's sweep and take its result
//! (a waiter blocks its thread meanwhile).
//! [`TunerCache::save_to`] / [`TunerCache::load_from`] persist the map
//! as a small JSON document so tier and schedule choices survive
//! process restarts (the serve binary pre-warms from it on start and
//! flushes it on graceful drain). Entries of a file written before
//! keys named the problem carry only a pattern; they are skipped on
//! load and re-tuned on first use.

use crate::kernel::{ExecTier, MemoryMode};
use crate::schedule::ScheduleParams;
use crate::wavefront::Dims;
use lddp_trace::json::{self, escape, Json};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Cache key: problem + power-of-two dims bucket + platform.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// The problem's registry name.
    pub problem: String,
    /// `rows` rounded up to the next power of two.
    pub rows_bucket: usize,
    /// `cols` rounded up to the next power of two.
    pub cols_bucket: usize,
    /// Platform preset name the tune was measured on.
    pub platform: String,
}

impl TuneKey {
    /// Builds the key for an instance of `problem` with `dims` on
    /// `platform`.
    pub fn new(problem: impl Into<String>, dims: Dims, platform: impl Into<String>) -> TuneKey {
        TuneKey {
            problem: problem.into(),
            rows_bucket: dims.rows.next_power_of_two(),
            cols_bucket: dims.cols.next_power_of_two(),
            platform: platform.into(),
        }
    }

    /// A compact human-readable form, e.g. `lcs/1024x1024/high` (used
    /// as a trace-span argument).
    pub fn label(&self) -> String {
        format!(
            "{}/{}x{}/{}",
            self.problem, self.rows_bucket, self.cols_bucket, self.platform
        )
    }
}

/// One cached tuning artifact: the paper's schedule parameters plus the
/// execution tier and memory mode the key's bucket solves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedConfig {
    /// The tuned `(t_switch, t_share)` pair.
    pub params: ScheduleParams,
    /// The execution tier to run the bucket's solves on.
    pub tier: ExecTier,
    /// How the bucket's solves materialize the table: `Rolling` for
    /// every tuned bucket.
    pub memory_mode: MemoryMode,
}

impl TunedConfig {
    /// Convenience constructor (full-table mode).
    pub const fn new(params: ScheduleParams, tier: ExecTier) -> TunedConfig {
        TunedConfig {
            params,
            tier,
            memory_mode: MemoryMode::Full,
        }
    }

    /// Sets the memory mode.
    #[must_use]
    pub const fn with_memory_mode(mut self, mode: MemoryMode) -> TunedConfig {
        self.memory_mode = mode;
        self
    }
}

/// Thread-safe `TuneKey → TunedConfig` cache with hit/miss counters.
#[derive(Debug, Default)]
pub struct TunerCache {
    map: Mutex<HashMap<TuneKey, TunedConfig>>,
    /// Keys a [`TunerCache::get_or_tune`] caller is sweeping.
    sweeping: Mutex<HashSet<TuneKey>>,
    /// Signalled whenever a sweep ends, however it ends.
    swept: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A running sweep's claim on its key: dropping it, on success, error
/// or panic, releases the key and wakes the waiters.
struct Sweep<'a> {
    cache: &'a TunerCache,
    key: &'a TuneKey,
}

impl Drop for Sweep<'_> {
    fn drop(&mut self) {
        let mut sweeping = self
            .cache
            .sweeping
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        sweeping.remove(self.key);
        self.cache.swept.notify_all();
    }
}

impl TunerCache {
    /// An empty cache.
    pub fn new() -> TunerCache {
        TunerCache::default()
    }

    /// The cached config for `key`, if present (counts a hit or a
    /// miss).
    pub fn get(&self, key: &TuneKey) -> Option<TunedConfig> {
        let found = self.map.lock().unwrap().get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores `config` for `key` (last write wins).
    pub fn insert(&self, key: TuneKey, config: TunedConfig) {
        self.map.lock().unwrap().insert(key, config);
    }

    /// The cached config for `key`, tuning via `tune` on a miss and
    /// caching the result. Returns `(config, hit)`. Each key is swept
    /// once: a caller that misses while another caller's sweep of the
    /// same key runs waits for it and returns its result as a hit. A
    /// sweep that errors or panics caches nothing and wakes its
    /// waiters, and the first of them sweeps again. Sweeps of
    /// different keys run concurrently, outside every lock.
    pub fn get_or_tune<E>(
        &self,
        key: &TuneKey,
        tune: impl FnOnce() -> std::result::Result<TunedConfig, E>,
    ) -> std::result::Result<(TunedConfig, bool), E> {
        let mut sweeping = self.sweeping.lock().unwrap();
        loop {
            if let Some(config) = self.map.lock().unwrap().get(key).copied() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((config, true));
            }
            if sweeping.insert(key.clone()) {
                break;
            }
            sweeping = self.swept.wait(sweeping).unwrap();
        }
        drop(sweeping);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let _claim = Sweep { cache: self, key };
        let config = tune()?;
        self.insert(key.clone(), config);
        Ok((config, false))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Serializes every entry as a JSON document (`version` +
    /// `entries` array). Entries are emitted in a deterministic order
    /// (sorted by key label) so repeated saves of the same cache are
    /// byte-identical.
    pub fn save_json(&self) -> String {
        let mut entries: Vec<(TuneKey, TunedConfig)> = self
            .map
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        entries.sort_by_key(|(k, _)| k.label());
        let rows: Vec<String> = entries
            .iter()
            .map(|(k, c)| {
                format!(
                    concat!(
                        "{{\"problem\":\"{}\",\"rows_bucket\":{},\"cols_bucket\":{},",
                        "\"platform\":\"{}\",\"t_switch\":{},\"t_share\":{},\"tier\":\"{}\",",
                        "\"memory_mode\":\"{}\"}}"
                    ),
                    escape(&k.problem),
                    k.rows_bucket,
                    k.cols_bucket,
                    escape(&k.platform),
                    c.params.t_switch,
                    c.params.t_share,
                    c.tier.as_str(),
                    c.memory_mode.as_str(),
                )
            })
            .collect();
        format!("{{\"version\":2,\"entries\":[{}]}}", rows.join(","))
    }

    /// Merges entries from a [`TunerCache::save_json`] document into
    /// this cache (loaded entries overwrite same-key entries). Returns
    /// the number of entries loaded. Individual entries that fail to
    /// decode (no problem name, unknown tier, missing field) are
    /// skipped — a cache file written by another build pre-warms what
    /// it can, and a skipped key is re-tuned on first use — but a
    /// document that is not shaped like a cache file at all is an
    /// error.
    pub fn load_json(&self, text: &str) -> std::result::Result<usize, String> {
        let doc = json::parse(text)?;
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| "tuner cache file has no \"entries\" array".to_string())?;
        let mut loaded = 0;
        for e in entries {
            let Some((key, config)) = decode_entry(e) else {
                continue;
            };
            self.insert(key, config);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Writes [`TunerCache::save_json`] to `path` (trailing newline
    /// included, parent directories not created).
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_json() + "\n")
    }

    /// Loads and merges a cache file written by [`TunerCache::save_to`].
    /// Returns the number of entries loaded.
    pub fn load_from(&self, path: impl AsRef<Path>) -> std::result::Result<usize, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        self.load_json(&text)
    }
}

/// Decodes one persisted entry, or `None` if any field is missing or
/// unrecognized.
fn decode_entry(e: &Json) -> Option<(TuneKey, TunedConfig)> {
    let field = |name: &str| -> Option<usize> {
        let v = e.get(name)?.as_f64()?;
        (v.fract() == 0.0 && v >= 0.0).then_some(v as usize)
    };
    let key = TuneKey {
        problem: e.get("problem")?.as_str()?.to_string(),
        rows_bucket: field("rows_bucket")?,
        cols_bucket: field("cols_bucket")?,
        platform: e.get("platform")?.as_str()?.to_string(),
    };
    // `memory_mode` is tolerated absent (caches written before the
    // rolling tier default to full-table mode), but a present,
    // unrecognized value rejects the entry like any other bad field.
    let memory_mode = match e.get("memory_mode") {
        None => MemoryMode::Full,
        Some(v) => MemoryMode::parse(v.as_str()?)?,
    };
    let config = TunedConfig {
        params: ScheduleParams::new(field("t_switch")?, field("t_share")?),
        tier: ExecTier::parse(e.get("tier")?.as_str()?)?,
        memory_mode,
    };
    Some((key, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    fn cfg(t_switch: usize, t_share: usize, tier: ExecTier) -> TunedConfig {
        TunedConfig::new(ScheduleParams::new(t_switch, t_share), tier)
    }

    #[test]
    fn keys_bucket_dims_to_powers_of_two() {
        let a = TuneKey::new("lcs", Dims::new(700, 1000), "high");
        let b = TuneKey::new("lcs", Dims::new(1024, 513), "high");
        assert_eq!(a.rows_bucket, 1024);
        assert_eq!(a.cols_bucket, 1024);
        assert_eq!(a, b);
        // Different platform or problem → different key, also for
        // problems that share an execution pattern.
        assert_ne!(a, TuneKey::new("lcs", Dims::new(700, 1000), "low"));
        assert_ne!(a, TuneKey::new("levenshtein", Dims::new(700, 1000), "high"));
        assert_eq!(a.label(), "lcs/1024x1024/high");
    }

    #[test]
    fn get_or_tune_caches_and_counts() {
        let cache = TunerCache::new();
        let key = TuneKey::new("dithering", Dims::new(64, 64), "high");
        let mut tunes = 0;
        let (c, hit) = cache
            .get_or_tune(&key, || -> Result<_, ()> {
                tunes += 1;
                Ok(cfg(0, 8, ExecTier::Simd))
            })
            .unwrap();
        assert!(!hit);
        assert_eq!(c, cfg(0, 8, ExecTier::Simd));
        let (c2, hit2) = cache
            .get_or_tune(&key, || -> Result<_, ()> {
                tunes += 1;
                Ok(cfg(0, 99, ExecTier::Scalar))
            })
            .unwrap();
        assert!(hit2);
        assert_eq!(c2, cfg(0, 8, ExecTier::Simd));
        assert_eq!(tunes, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(!cache.is_empty());
    }

    /// Two callers miss one cold key together: the first sweeps, the
    /// second waits and takes the first's result.
    #[test]
    fn concurrent_misses_on_one_key_sweep_once() {
        let cache = TunerCache::new();
        let key = TuneKey::new("levenshtein", Dims::new(1024, 1024), "high");
        let (running, release) = (Barrier::new(2), Barrier::new(2));
        let second_sweeps = AtomicU64::new(0);
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_tune(&key, || -> Result<_, ()> {
                    running.wait();
                    release.wait();
                    Ok(cfg(4, 16, ExecTier::Simd))
                })
            });
            running.wait();
            let second = s.spawn(|| {
                cache.get_or_tune(&key, || -> Result<_, ()> {
                    second_sweeps.fetch_add(1, Ordering::SeqCst);
                    Ok(cfg(0, 99, ExecTier::Scalar))
                })
            });
            // Let the second caller reach the key while the sweep runs;
            // one that comes later finds the entry, a hit all the same.
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            let tuned = cfg(4, 16, ExecTier::Simd);
            assert_eq!(first.join().unwrap(), Ok((tuned, false)));
            assert_eq!(second.join().unwrap(), Ok((tuned, true)));
        });
        assert_eq!(second_sweeps.load(Ordering::SeqCst), 0);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// A sweep that panics caches nothing and wakes the caller waiting
    /// on its key, which then sweeps the key itself.
    #[test]
    fn a_panicking_sweep_hands_its_key_to_the_waiter() {
        let cache = TunerCache::new();
        let key = TuneKey::new("dtw", Dims::new(2048, 2048), "low");
        let (running, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_tune(&key, || -> Result<TunedConfig, ()> {
                    running.wait();
                    release.wait();
                    panic!("the first sweep fails");
                })
            });
            running.wait();
            let second = s.spawn(|| {
                cache.get_or_tune(&key, || -> Result<_, ()> { Ok(cfg(2, 8, ExecTier::Bulk)) })
            });
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            assert!(first.join().is_err(), "the first sweep panicked");
            assert_eq!(
                second.join().unwrap(),
                Ok((cfg(2, 8, ExecTier::Bulk), false))
            );
        });
        assert_eq!(cache.get(&key), Some(cfg(2, 8, ExecTier::Bulk)));
    }

    #[test]
    fn tune_errors_are_not_cached() {
        let cache = TunerCache::new();
        let key = TuneKey::new("dithering", Dims::new(8, 8), "low");
        let r: Result<_, String> = cache.get_or_tune(&key, || Err("boom".to_string()));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let (_, hit) = cache
            .get_or_tune(&key, || -> Result<_, String> {
                Ok(cfg(0, 1, ExecTier::Bulk))
            })
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn json_round_trip_preserves_every_entry() {
        let cache = TunerCache::new();
        cache.insert(
            TuneKey::new("lcs", Dims::new(700, 1000), "high"),
            cfg(4, 16, ExecTier::Simd),
        );
        cache.insert(
            TuneKey::new("checkerboard", Dims::new(64, 64), "low"),
            cfg(0, 0, ExecTier::Scalar),
        );
        cache.insert(
            TuneKey::new("lcs", Dims::new(4096, 4096), "with \"quotes\""),
            cfg(2, 8, ExecTier::BitParallel),
        );
        let text = cache.save_json();
        let restored = TunerCache::new();
        assert_eq!(restored.load_json(&text), Ok(3));
        assert_eq!(restored.len(), 3);
        assert_eq!(
            restored.get(&TuneKey::new("lcs", Dims::new(700, 1000), "high")),
            Some(cfg(4, 16, ExecTier::Simd))
        );
        assert_eq!(
            restored.get(&TuneKey::new(
                "lcs",
                Dims::new(4096, 4096),
                "with \"quotes\""
            )),
            Some(cfg(2, 8, ExecTier::BitParallel))
        );
        // Deterministic output: saving the restored cache reproduces
        // the document byte for byte.
        assert_eq!(restored.save_json(), text);
    }

    #[test]
    fn load_skips_bad_entries_but_rejects_bad_documents() {
        let cache = TunerCache::new();
        assert!(cache.load_json("not json").is_err());
        assert!(cache.load_json("{\"version\":1}").is_err());
        // One good entry among problem-less / unknown-tier /
        // missing-field junk: only the good one loads.
        let text = concat!(
            "{\"version\":2,\"entries\":[",
            "{\"pattern\":\"Horizontal\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":0,\"tier\":\"bulk\"},",
            "{\"problem\":\"dithering\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":0,\"tier\":\"warp\"},",
            "{\"problem\":\"dithering\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_share\":0,\"tier\":\"bulk\"},",
            "{\"problem\":\"dithering\",\"rows_bucket\":16,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":1,\"t_share\":2,\"tier\":\"bit-parallel\"}",
            "]}"
        );
        assert_eq!(cache.load_json(text), Ok(1));
        assert_eq!(
            cache.get(&TuneKey::new("dithering", Dims::new(16, 8), "p")),
            Some(cfg(1, 2, ExecTier::BitParallel))
        );
    }

    #[test]
    fn memory_mode_round_trips_and_defaults_to_full() {
        let cache = TunerCache::new();
        let key = TuneKey::new("lcs", Dims::new(8192, 8192), "low");
        cache.insert(
            key.clone(),
            cfg(4, 16, ExecTier::Simd).with_memory_mode(MemoryMode::Rolling),
        );
        let text = cache.save_json();
        assert!(text.contains("\"memory_mode\":\"rolling\""), "{text}");
        let restored = TunerCache::new();
        assert_eq!(restored.load_json(&text), Ok(1));
        assert_eq!(restored.get(&key).unwrap().memory_mode, MemoryMode::Rolling);
        assert_eq!(restored.save_json(), text);
        // A cache written before the rolling tier has no memory_mode
        // field: the entry still loads, defaulting to full-table mode.
        // A present-but-unknown value skips the entry like other junk.
        let legacy = concat!(
            "{\"version\":2,\"entries\":[",
            "{\"problem\":\"dithering\",\"rows_bucket\":8,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":4,\"tier\":\"bulk\"},",
            "{\"problem\":\"dithering\",\"rows_bucket\":16,\"cols_bucket\":8,",
            "\"platform\":\"p\",\"t_switch\":0,\"t_share\":4,\"tier\":\"bulk\",",
            "\"memory_mode\":\"paged\"}",
            "]}"
        );
        let tolerant = TunerCache::new();
        assert_eq!(tolerant.load_json(legacy), Ok(1));
        let loaded = tolerant
            .get(&TuneKey::new("dithering", Dims::new(8, 8), "p"))
            .unwrap();
        assert_eq!(loaded.memory_mode, MemoryMode::Full);
    }

    #[test]
    fn pattern_keyed_files_load_and_their_entries_are_retuned() {
        // A file from a build whose keys named only the pattern: it
        // still loads, but none of its entries can say which problem
        // they were tuned for, so every key misses and re-tunes.
        let pattern_keyed = concat!(
            "{\"version\":1,\"entries\":[",
            "{\"pattern\":\"AntiDiagonal\",\"rows_bucket\":2048,\"cols_bucket\":2048,",
            "\"platform\":\"high\",\"t_switch\":0,\"t_share\":0,\"tier\":\"scalar\",",
            "\"memory_mode\":\"full\"}",
            "]}"
        );
        let cache = TunerCache::new();
        assert_eq!(cache.load_json(pattern_keyed), Ok(0));
        assert!(cache.is_empty());
        let key = TuneKey::new("levenshtein", Dims::new(2048, 2048), "high");
        let (config, hit) = cache
            .get_or_tune(&key, || -> Result<_, ()> { Ok(cfg(4, 16, ExecTier::Simd)) })
            .unwrap();
        assert!(!hit, "a pattern-keyed entry must not answer for a problem");
        assert_eq!(config, cfg(4, 16, ExecTier::Simd));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("lddp-tc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune_cache.json");
        let cache = TunerCache::new();
        cache.insert(
            TuneKey::new("seam", Dims::new(100, 3), "host"),
            cfg(1, 2, ExecTier::Bulk),
        );
        cache.save_to(&path).unwrap();
        let restored = TunerCache::new();
        assert_eq!(restored.load_from(&path), Ok(1));
        assert_eq!(
            restored.get(&TuneKey::new("seam", Dims::new(100, 3), "host")),
            Some(cfg(1, 2, ExecTier::Bulk))
        );
        assert!(restored.load_from(dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
