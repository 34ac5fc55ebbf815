//! The on-disk artifact memo cache.
//!
//! One file per solved experiment point, named
//! `<experiment>-<digest>.json` (with `:` sanitized to `_` for
//! portability). The digest already encodes every input, so a file's mere
//! existence means the point is solved — loading it replaces the run.
//!
//! Beyond the flat layout of [`MemoCache::at`], the
//! [builder](MemoCache::builder) configures the *service* shape the `Sim`
//! session and `stacksim serve` share:
//!
//! * **Sharding** — entries spread across `s00/`..`sNN/` subdirectories
//!   keyed by a hash over the whole digest, so a hot cache never funnels
//!   every store through one directory and every configured shard
//!   receives traffic.
//! * **Size bound + LRU eviction** — with `max_bytes` set, every store
//!   re-checks the cache footprint and evicts oldest-LRU entries (by file
//!   mtime; hits refresh their entry's mtime) until the budget holds.
//!   Eviction unlinks files, which on POSIX never disturbs a reader that
//!   already opened the entry — an entry is never corrupted mid-read.
//! * **Cross-process safety** — stores claim entries with a write-to-
//!   unique-tmp-then-rename protocol (the tmp name carries the pid, so
//!   two processes sharing one `--cache-dir` can never interleave writes
//!   into one tmp file), and the eviction scan runs under a lock file so
//!   concurrent processes cannot double-evict or race the accounting.
//!
//! Corrupt entries keep the PR-5 integrity path: they are reported as
//! [`Error::CacheCorrupt`] and can be quarantined aside for post-mortems.

use std::fs;
use std::io::ErrorKind;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use stacksim_faults::Fault;

use super::artifact::Artifact;
use super::resilience;
use crate::error::Error;

/// A directory of memoized artifacts, or a disabled no-op cache.
#[derive(Debug, Clone, Default)]
pub struct MemoCache {
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    shards: usize,
}

/// Configures a [`MemoCache`] beyond the flat unbounded default: a size
/// budget with LRU eviction and a sharded directory layout.
#[derive(Debug, Clone, Default)]
pub struct MemoCacheBuilder {
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    shards: usize,
}

impl MemoCacheBuilder {
    /// The cache root directory. Without one the built cache is disabled.
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Bound the cache at `max_bytes` of entry data: every store evicts
    /// oldest-LRU entries until the footprint fits. `None` (the default)
    /// never evicts.
    #[must_use]
    pub fn max_bytes(mut self, max_bytes: impl Into<Option<u64>>) -> Self {
        self.max_bytes = max_bytes.into();
        self
    }

    /// Spread entries across `shards` subdirectories keyed by the digest
    /// (clamped to `1..=256`; `1` keeps the flat legacy layout).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builds the configured cache.
    #[must_use]
    pub fn build(self) -> MemoCache {
        MemoCache {
            dir: self.dir,
            max_bytes: self.max_bytes,
            shards: self.shards.clamp(1, 256),
        }
    }
}

/// Released on drop. Serializes the eviction scan across processes
/// sharing one cache directory.
struct CacheLock {
    path: PathBuf,
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// How long one process waits for the cache lock before giving up.
const LOCK_WAIT: Duration = Duration::from_secs(10);
/// A lock file older than this is the footprint of a crashed process and
/// is broken.
const LOCK_STALE: Duration = Duration::from_secs(30);
/// Lock file name, at the cache root.
const LOCK_FILE: &str = ".stacksim-cache.lock";

/// Acquires the cache-directory lock, breaking stale locks left behind by
/// crashed processes.
fn acquire_lock(dir: &Path) -> Result<CacheLock, Error> {
    let path = dir.join(LOCK_FILE);
    let deadline = Instant::now() + LOCK_WAIT;
    loop {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                // pid for post-mortems only; the file's existence is the lock
                let _ = write!(f, "{}", std::process::id());
                return Ok(CacheLock { path });
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|m| m.elapsed().ok())
                    .is_some_and(|age| age > LOCK_STALE);
                if stale {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(Error::io(
                        path,
                        std::io::Error::new(ErrorKind::TimedOut, "cache lock held too long"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                // the cache root vanished under us; recreate and retry
                fs::create_dir_all(dir).map_err(|err| Error::io(dir.to_path_buf(), err))?;
            }
            Err(e) => return Err(Error::io(path, e)),
        }
    }
}

impl MemoCache {
    /// A cache that never hits and never writes.
    pub fn disabled() -> Self {
        MemoCache {
            dir: None,
            max_bytes: None,
            shards: 1,
        }
    }

    /// A flat, unbounded cache rooted at `dir` (created lazily on first
    /// store) — the legacy CLI layout.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        MemoCache {
            dir: Some(dir.into()),
            max_bytes: None,
            shards: 1,
        }
    }

    /// Configure a sharded and/or size-bounded cache.
    #[must_use]
    pub fn builder() -> MemoCacheBuilder {
        MemoCacheBuilder::default()
    }

    /// Whether this cache can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The size budget, if this cache is bounded.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The shard subdirectory an entry digest lands in (`None` for the
    /// flat single-shard layout).
    ///
    /// Every digest byte is folded into the shard index (FNV-1a), so
    /// close digests spread evenly and any shard count in `1..=256`
    /// receives traffic — not just the shards a single leading byte can
    /// reach.
    ///
    /// # Errors
    ///
    /// [`Error::MalformedDigest`] when `digest` is empty or carries a
    /// non-hex character: such a string cannot have come from
    /// `Digest::hex`, and silently routing it to an arbitrary shard
    /// would alias unrelated entries onto one file name space.
    fn shard_for(&self, digest: &str) -> Result<Option<String>, Error> {
        if digest.is_empty() || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(Error::MalformedDigest {
                digest: digest.to_string(),
            });
        }
        if self.shards <= 1 {
            return Ok(None);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in digest.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(Some(format!("s{:02x}", h % self.shards as u64)))
    }

    /// Every directory entries may live in (existing or not).
    fn entry_dirs(&self) -> Vec<PathBuf> {
        let Some(dir) = self.dir.as_ref() else {
            return Vec::new();
        };
        if self.shards <= 1 {
            vec![dir.clone()]
        } else {
            (0..self.shards)
                .map(|s| dir.join(format!("s{s:02x}")))
                .collect()
        }
    }

    /// The file a given experiment point lives at (`Ok(None)` when
    /// caching is disabled).
    ///
    /// # Errors
    ///
    /// [`Error::MalformedDigest`] when `digest` is not the hex shape
    /// `Digest::hex` produces (rejected even on a disabled cache, so
    /// the bug surfaces regardless of configuration).
    pub fn path_for(&self, name: &str, digest: &str) -> Result<Option<PathBuf>, Error> {
        let shard = self.shard_for(digest)?;
        let Some(dir) = self.dir.as_ref() else {
            return Ok(None);
        };
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let file = format!("{safe}-{digest}.json");
        Ok(Some(match shard {
            Some(shard) => dir.join(shard).join(file),
            None => dir.join(file),
        }))
    }

    /// Loads a memoized artifact, if one exists.
    ///
    /// A zero-length file is treated as a miss and deleted: it is the
    /// footprint of a crash between `create` and `write` (or of a full
    /// disk), carries no data worth reporting, and would otherwise wedge
    /// the entry as permanently "corrupt".
    ///
    /// On a bounded cache a hit also refreshes the entry's mtime (by
    /// atomically rewriting it), which is what makes eviction LRU rather
    /// than FIFO.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure other than "not found";
    /// [`Error::CacheCorrupt`] if the file exists but does not parse.
    pub fn load(&self, name: &str, digest: &str) -> Result<Option<Artifact>, Error> {
        let Some(path) = self.path_for(name, digest)? else {
            return Ok(None);
        };
        let mut text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::io(path, e)),
        };
        match stacksim_faults::check(resilience::SITE_CACHE_LOAD, name) {
            // corrupt only the in-memory copy: the on-disk file stays
            // intact for the quarantine path to move
            Some(Fault::Corrupt) => text.insert_str(0, "#injected-corruption\n"),
            Some(Fault::Truncate) => text.clear(),
            Some(Fault::IoTransient) => {
                return Err(resilience::injected_io(resilience::SITE_CACHE_LOAD, name));
            }
            _ => {}
        }
        if text.is_empty() {
            fs::remove_file(&path).map_err(|e| Error::io(path, e))?;
            return Ok(None);
        }
        match Artifact::decode(&text) {
            Ok(a) => {
                if self.max_bytes.is_some() {
                    // mark the entry most-recently-used: an atomic rewrite
                    // bumps its mtime without ever exposing partial content
                    let _ = write_atomic(&path, &text);
                }
                Ok(Some(a))
            }
            Err(detail) => Err(Error::CacheCorrupt { path, detail }),
        }
    }

    /// Moves a (corrupt) cache entry into the `quarantine/` subdirectory
    /// at the cache root so it never hits again but stays on disk for
    /// post-mortems. Returns the quarantined path, or `None` when the
    /// entry does not exist (or the cache is disabled).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn quarantine(&self, name: &str, digest: &str) -> Result<Option<PathBuf>, Error> {
        let (Some(root), Some(path)) = (self.dir.as_ref(), self.path_for(name, digest)?) else {
            return Ok(None);
        };
        let Some(file_name) = path.file_name() else {
            return Ok(None);
        };
        let dir = root.join(QUARANTINE_DIR);
        fs::create_dir_all(&dir).map_err(|e| Error::io(dir.clone(), e))?;
        let mut dest = dir.join(file_name);
        let mut suffix = 0u32;
        while dest.exists() {
            suffix += 1;
            let mut stamped = file_name.to_os_string();
            stamped.push(format!(".{suffix}"));
            dest = dir.join(stamped);
        }
        match fs::rename(&path, &dest) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Error::io(path, e)),
        }
        if stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::CACHE_QUARANTINED).add(1);
        }
        Ok(Some(dest))
    }

    /// Stores an artifact, creating the cache (and shard) directory if
    /// needed, then enforces the size budget if one is configured.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure. A disabled cache stores
    /// nothing and succeeds.
    pub fn store(&self, name: &str, digest: &str, artifact: &Artifact) -> Result<(), Error> {
        let Some(path) = self.path_for(name, digest)? else {
            return Ok(());
        };
        if stacksim_faults::check(resilience::SITE_CACHE_STORE, name) == Some(Fault::IoTransient) {
            return Err(resilience::injected_io(resilience::SITE_CACHE_STORE, name));
        }
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| Error::io(parent.to_path_buf(), e))?;
        }
        let encoded = artifact.encode();
        write_atomic(&path, &encoded)?;
        if stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::CACHE_BYTES_WRITTEN).add(encoded.len() as u64);
        }
        if self.max_bytes.is_some() {
            self.evict_to_budget()?;
        }
        Ok(())
    }

    /// The cache's current entry footprint in bytes (live entries only —
    /// quarantined files and in-flight tmp files are not counted).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn usage_bytes(&self) -> Result<u64, Error> {
        Ok(self.scan_entries()?.iter().map(|e| e.len).sum())
    }

    /// Evicts oldest-LRU entries until the footprint fits `max_bytes`,
    /// under the cross-process cache lock. Returns how many entries were
    /// evicted. A no-op for unbounded or disabled caches.
    ///
    /// Unlinking never disturbs a concurrent reader that already opened
    /// the entry file (POSIX semantics); a reader that loses the race
    /// before opening simply sees a miss and recomputes.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure (a lock timeout included).
    pub fn evict_to_budget(&self) -> Result<usize, Error> {
        let (Some(dir), Some(budget)) = (self.dir.as_ref(), self.max_bytes) else {
            return Ok(0);
        };
        let _lock = acquire_lock(dir)?;
        let mut entries = self.scan_entries()?;
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        if total <= budget {
            return Ok(0);
        }
        // oldest first; ties break on path so concurrent processes agree
        entries.sort_by(eviction_order);
        let mut evicted = 0;
        for entry in entries {
            if total <= budget {
                break;
            }
            match fs::remove_file(&entry.path) {
                Ok(()) => {}
                // another process won the race; the bytes are gone either way
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(Error::io(entry.path, e)),
            }
            total = total.saturating_sub(entry.len);
            evicted += 1;
        }
        if evicted > 0 && stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::CACHE_EVICTIONS).add(evicted as u64);
        }
        Ok(evicted)
    }

    /// Every live cache entry with its size and mtime.
    fn scan_entries(&self) -> Result<Vec<EntryMeta>, Error> {
        let mut out = Vec::new();
        for dir in self.entry_dirs() {
            let entries = match fs::read_dir(&dir) {
                Ok(e) => e,
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                Err(e) => return Err(Error::io(dir, e)),
            };
            for entry in entries {
                let entry = entry.map_err(|e| Error::io(dir.clone(), e))?;
                let path = entry.path();
                let is_live = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".json"));
                if !is_live || !path.is_file() {
                    continue;
                }
                let Ok(md) = entry.metadata() else {
                    continue; // raced with a concurrent eviction
                };
                let mtime = match md.modified() {
                    Ok(t) => Some(t),
                    Err(_) => {
                        // metadata exists but carries no readable mtime
                        // (exotic FS or transient error): record it so
                        // operators can see the cache flying blind, and
                        // let `eviction_order` keep the entry warm
                        if stacksim_obs::enabled() {
                            stacksim_obs::counter(super::obs::CACHE_MTIME_UNREADABLE).add(1);
                        }
                        None
                    }
                };
                out.push(EntryMeta {
                    mtime,
                    len: md.len(),
                    path,
                });
            }
        }
        Ok(out)
    }

    /// Deletes every cache entry, including quarantined ones and shard
    /// subdirectories. Missing directories are fine.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn clean(&self) -> Result<usize, Error> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(0);
        };
        let mut removed = clean_dir(dir)?;
        for shard in self.entry_dirs() {
            if shard == *dir {
                continue;
            }
            removed += clean_dir(&shard)?;
            remove_dir_if_empty(&shard)?;
        }
        let quarantine = dir.join(QUARANTINE_DIR);
        removed += clean_dir(&quarantine)?;
        remove_dir_if_empty(&quarantine)?;
        let _ = fs::remove_file(dir.join(LOCK_FILE));
        Ok(removed)
    }
}

/// One live entry's eviction-relevant metadata. `mtime` is `None` when
/// the filesystem could not report a modification time.
struct EntryMeta {
    mtime: Option<SystemTime>,
    len: u64,
    path: PathBuf,
}

/// LRU eviction order: oldest known mtime first; entries whose mtime is
/// unreadable sort *last* — an unknown age must never be mistaken for
/// "ancient", or FS metadata errors would evict the warmest entries
/// first. Ties break on path so concurrent processes agree.
fn eviction_order(a: &EntryMeta, b: &EntryMeta) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.mtime, b.mtime) {
        (Some(x), Some(y)) => x.cmp(&y).then_with(|| a.path.cmp(&b.path)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.path.cmp(&b.path),
    }
}

/// Writes `text` to `path` atomically: full write to a pid-unique tmp
/// file in the same directory, then rename. Two processes storing the
/// same entry can never interleave into one tmp file, and a crash
/// mid-write never leaves a corrupt entry that poisons later runs.
fn write_atomic(path: &Path, text: &str) -> Result<(), Error> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    fs::write(&tmp, text).map_err(|e| Error::io(tmp.clone(), e))?;
    fs::rename(&tmp, path).map_err(|e| Error::io(path.to_path_buf(), e))
}

/// Subdirectory corrupt entries are moved to.
const QUARANTINE_DIR: &str = "quarantine";

/// Removes a directory that is expected to be empty, tolerating leftover
/// foreign files and absence.
fn remove_dir_if_empty(dir: &Path) -> Result<(), Error> {
    match fs::remove_dir(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        // a foreign file keeps the directory alive; entries are gone
        Err(e) if e.kind() == ErrorKind::DirectoryNotEmpty => Ok(()),
        Err(e) => Err(Error::io(dir.to_path_buf(), e)),
    }
}

/// Removes every cache entry of one directory (non-recursive). Matches
/// `.json`, in-flight `.json.tmp<pid>`, and quarantined `.json.N` names.
fn clean_dir(dir: &Path) -> Result<usize, Error> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(Error::io(dir.to_path_buf(), e)),
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let is_entry = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".json"));
        if path.is_file() && is_entry {
            fs::remove_file(&path).map_err(|e| Error::io(path, e))?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Convenience: the default cache location under the target directory.
pub fn default_cache_dir() -> PathBuf {
    Path::new("target").join("stacksim-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_logic::Headline;

    fn sample() -> Artifact {
        Artifact::Headline(Headline {
            mean_cpma_reduction: 0.13,
            peak_cpma_reduction: 0.55,
            bandwidth_reduction_factor: 3.0,
            bus_power_saving_w: 0.5,
            baseline_bus_power_w: 0.75,
        })
    }

    /// A second, byte-distinct artifact so eviction tests can tell
    /// entries apart.
    fn sample2() -> Artifact {
        Artifact::Headline(Headline {
            mean_cpma_reduction: 0.17,
            peak_cpma_reduction: 0.51,
            bandwidth_reduction_factor: 2.5,
            bus_power_saving_w: 0.4,
            baseline_bus_power_w: 0.75,
        })
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stacksim-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_cache_is_a_no_op() {
        let c = MemoCache::disabled();
        assert!(!c.is_enabled());
        c.store("fig5", "abc", &sample()).unwrap();
        assert!(c.load("fig5", "abc").unwrap().is_none());
        assert_eq!(c.clean().unwrap(), 0);
        assert_eq!(c.evict_to_budget().unwrap(), 0);
    }

    #[test]
    fn store_load_round_trip_and_clean() {
        let dir = scratch("test");
        let c = MemoCache::at(&dir);
        assert!(c.load("fig5:gauss", "0011").unwrap().is_none());
        c.store("fig5:gauss", "0011", &sample()).unwrap();
        let back = c.load("fig5:gauss", "0011").unwrap().expect("hit");
        assert_eq!(back, sample());
        // a different digest misses
        assert!(c.load("fig5:gauss", "0012").unwrap().is_none());
        // corrupt entries are reported, not silently treated as misses
        let path = c.path_for("fig5:gauss", "0013").unwrap().unwrap();
        fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            c.load("fig5:gauss", "0013"),
            Err(Error::CacheCorrupt { .. })
        ));
        assert_eq!(c.clean().unwrap(), 2);
        assert!(c.load("fig5:gauss", "0011").unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A zero-length cache file is a crash footprint, not data: loading
    /// it must read as a miss and remove the file so the entry heals.
    #[test]
    fn zero_byte_entry_is_a_miss_and_is_deleted() {
        let dir = scratch("zero");
        let c = MemoCache::at(&dir);
        c.store("fig3", "aa", &sample()).unwrap();
        let path = c.path_for("fig3", "aa").unwrap().unwrap();
        fs::write(&path, "").unwrap();
        assert!(c.load("fig3", "aa").unwrap().is_none(), "reads as a miss");
        assert!(!path.exists(), "the empty file is deleted");
        // and the entry is usable again
        c.store("fig3", "aa", &sample()).unwrap();
        assert_eq!(c.load("fig3", "aa").unwrap(), Some(sample()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_entries_aside_and_clean_sweeps_them() {
        let dir = scratch("quar");
        let c = MemoCache::at(&dir);
        assert!(
            c.quarantine("fig3", "aa").unwrap().is_none(),
            "no entry, nothing to quarantine"
        );
        c.store("fig3", "aa", &sample()).unwrap();
        let original = c.path_for("fig3", "aa").unwrap().unwrap();
        let dest = c.quarantine("fig3", "aa").unwrap().expect("moved");
        assert!(!original.exists());
        assert!(dest.exists());
        assert!(dest.parent().unwrap().ends_with("quarantine"));
        assert!(c.load("fig3", "aa").unwrap().is_none(), "never hits again");
        // a second quarantine of the same name gets a distinct file
        c.store("fig3", "aa", &sample()).unwrap();
        let dest2 = c.quarantine("fig3", "aa").unwrap().expect("moved again");
        assert_ne!(dest, dest2);
        // clean() sweeps live and quarantined entries alike
        c.store("fig3", "aa", &sample()).unwrap();
        assert_eq!(c.clean().unwrap(), 3);
        assert!(!dest2.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_quarantines_nothing() {
        let c = MemoCache::disabled();
        assert!(c.quarantine("fig3", "aa").unwrap().is_none());
    }

    #[test]
    fn sharded_layout_round_trips_and_cleans() {
        let dir = scratch("shard");
        let c = MemoCache::builder().dir(&dir).shards(16).build();
        c.store("fig5:gauss", "0a11", &sample()).unwrap();
        c.store("fig5:conj", "ff22", &sample2()).unwrap();
        let p = c.path_for("fig5:gauss", "0a11").unwrap().unwrap();
        let shard_name = p
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .to_string();
        assert!(
            shard_name.starts_with('s') && shard_name.len() == 3,
            "entry lands in a shard subdirectory: {}",
            p.display()
        );
        // the mapping is stable: the same digest always picks the same shard
        assert_eq!(p, c.path_for("fig5:gauss", "0a11").unwrap().unwrap());
        assert_eq!(c.load("fig5:gauss", "0a11").unwrap(), Some(sample()));
        assert_eq!(c.load("fig5:conj", "ff22").unwrap(), Some(sample2()));
        // quarantine still lands at the cache root
        let q = c.quarantine("fig5:conj", "ff22").unwrap().expect("moved");
        assert_eq!(q.parent().unwrap(), dir.join("quarantine"));
        assert_eq!(c.clean().unwrap(), 2);
        assert!(c.load("fig5:gauss", "0a11").unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Bounded cache: eviction removes the *least recently used* entry
    /// first — a loaded (touched) entry outlives an older-stored but
    /// never-read one.
    #[test]
    fn bounded_cache_evicts_oldest_lru_first() {
        let dir = scratch("lru");
        let entry_len = sample().encode().len() as u64;
        // room for two entries and change, never three
        let c = MemoCache::builder()
            .dir(&dir)
            .max_bytes(entry_len * 2 + entry_len / 2)
            .build();
        let tick = || std::thread::sleep(std::time::Duration::from_millis(15));
        c.store("fig5:a", "aa", &sample()).unwrap();
        tick();
        c.store("fig5:b", "bb", &sample()).unwrap();
        tick();
        // touch A: it becomes most-recently-used even though stored first
        assert!(c.load("fig5:a", "aa").unwrap().is_some());
        tick();
        c.store("fig5:c", "cc", &sample()).unwrap();
        assert!(
            c.load("fig5:b", "bb").unwrap().is_none(),
            "B was the LRU entry and must be evicted"
        );
        assert!(c.load("fig5:a", "aa").unwrap().is_some(), "A was touched");
        assert!(c.load("fig5:c", "cc").unwrap().is_some(), "C is newest");
        assert!(
            c.usage_bytes().unwrap() <= entry_len * 2 + entry_len / 2,
            "footprint respects the budget"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Concurrent loads and budget-forced evictions never surface a
    /// corrupt entry: a reader sees a clean hit or a clean miss.
    #[test]
    fn eviction_never_corrupts_a_concurrent_read() {
        let dir = scratch("race");
        let entry_len = sample().encode().len() as u64;
        let c = MemoCache::builder()
            .dir(&dir)
            .max_bytes(entry_len * 3)
            .shards(4)
            .build();
        c.store("fig5:hot", "aa", &sample()).unwrap();
        let (first_load_done, first_load) = std::sync::mpsc::channel();
        let reader = {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut hits = 0u32;
                for i in 0..200 {
                    match c.load("fig5:hot", "aa") {
                        Ok(Some(a)) => {
                            assert_eq!(a, sample());
                            hits += 1;
                        }
                        Ok(None) => {}
                        Err(e) => panic!("reader saw an error: {e}"),
                    }
                    if i == 0 {
                        let _ = first_load_done.send(());
                    }
                }
                hits
            })
        };
        // churn only after the reader's first load: the hot entry is
        // still resident for it, so the hit count cannot race eviction
        let _ = first_load.recv();
        for i in 0..60u32 {
            c.store("fig5:churn", &format!("{i:04x}"), &sample2())
                .unwrap();
        }
        let hits = reader.join().expect("reader thread");
        assert!(hits > 0, "the hot entry should hit at least once");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two caches sharing one directory (as two processes would) store
    /// concurrently without corrupting entries: pid-unique tmp files plus
    /// locked eviction keep every surviving entry parseable.
    #[test]
    fn concurrent_stores_share_a_directory_safely() {
        let dir = scratch("share");
        let entry_len = sample().encode().len() as u64;
        let mk = || {
            MemoCache::builder()
                .dir(&dir)
                .max_bytes(entry_len * 10)
                .build()
        };
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let c = mk();
                std::thread::spawn(move || {
                    for i in 0..40u32 {
                        c.store("fig5:w", &format!("{t}{i:03x}"), &sample())
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer thread");
        }
        let c = mk();
        // every surviving entry parses
        for meta in c.scan_entries().unwrap() {
            let text = fs::read_to_string(&meta.path).unwrap();
            Artifact::decode(&text).expect("entry parses");
        }
        assert!(c.usage_bytes().unwrap() <= entry_len * 10);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression (shard routing): a malformed digest is a typed error
    /// on every entry operation — never a silent route to shard `s00`.
    #[test]
    fn malformed_digest_is_a_typed_error() {
        let dir = scratch("baddigest");
        let c = MemoCache::builder().dir(&dir).shards(16).build();
        for bad in ["", "zz11", "0a1g", "dead-beef"] {
            assert!(
                matches!(c.path_for("fig3", bad), Err(Error::MalformedDigest { .. })),
                "digest {bad:?} must be rejected"
            );
            assert!(matches!(
                c.store("fig3", bad, &sample()),
                Err(Error::MalformedDigest { .. })
            ));
            assert!(matches!(
                c.load("fig3", bad),
                Err(Error::MalformedDigest { .. })
            ));
            assert!(matches!(
                c.quarantine("fig3", bad),
                Err(Error::MalformedDigest { .. })
            ));
        }
        // nothing was silently written anywhere
        assert_eq!(c.usage_bytes().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression (shard routing): digests sharing a first byte spread
    /// across shards — the old first-byte-only mapping funneled every
    /// one of them into a single directory.
    #[test]
    fn shard_index_mixes_more_than_the_first_digest_byte() {
        let c = MemoCache::builder().dir("unused").shards(256).build();
        let mut shards = std::collections::BTreeSet::new();
        for i in 0..64u32 {
            let digest = format!("00{i:014x}");
            let p = c.path_for("fig3", &digest).unwrap().unwrap();
            shards.insert(p.parent().unwrap().file_name().unwrap().to_os_string());
        }
        assert!(
            shards.len() > 1,
            "64 digests with a shared first byte must not all land in one shard"
        );
    }

    /// The builder clamps the shard count into `1..=256`: `s{:02x}`
    /// directory names only exist for that range, so a larger request
    /// must not configure permanently unreachable shards.
    #[test]
    fn builder_clamps_shard_count() {
        let c = MemoCache::builder().dir("unused").shards(4096).build();
        assert_eq!(c.entry_dirs().len(), 256);
        let c = MemoCache::builder().dir("unused").shards(0).build();
        assert_eq!(c.entry_dirs().len(), 1);
    }

    /// Regression (LRU ordering): an entry whose mtime is unreadable
    /// sorts *last* in eviction order — the old `UNIX_EPOCH` fallback
    /// made it the first victim regardless of real recency.
    #[test]
    fn unreadable_mtime_orders_last_not_first() {
        let meta = |mtime, name: &str| EntryMeta {
            mtime,
            len: 1,
            path: PathBuf::from(name),
        };
        let old = meta(Some(SystemTime::UNIX_EPOCH), "a.json");
        let recent = meta(
            Some(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000)),
            "b.json",
        );
        let unknown = meta(None, "d.json");
        let unknown2 = meta(None, "c.json");
        assert_eq!(
            eviction_order(&unknown, &old),
            std::cmp::Ordering::Greater,
            "an unknown age is never treated as ancient"
        );
        let mut entries = [unknown, recent, old, unknown2];
        entries.sort_by(eviction_order);
        let order: Vec<_> = entries
            .iter()
            .map(|e| e.path.to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            order,
            ["a.json", "b.json", "c.json", "d.json"],
            "known mtimes oldest-first, unknowns last by path"
        );
    }
}
