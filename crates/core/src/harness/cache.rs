//! The on-disk artifact memo cache.
//!
//! One file per solved experiment point, named
//! `<experiment>-<digest>.json` (with `:` sanitized to `_` for
//! portability). The digest already encodes every input, so a file's mere
//! existence means the point is solved — loading it replaces the run.
//!
//! Every command (`run`, `explore`, `serve`, `clean`) uses this one flat
//! layout, so a point solved by one is a hit for all the others. The
//! [builder](MemoCache::builder) adds what a long-lived service needs:
//!
//! * **Size bound + LRU eviction** — with `max_bytes` set, every store
//!   re-checks the cache footprint and evicts oldest-LRU entries (by file
//!   mtime; hits bump their entry's mtime in place) until the budget holds.
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
//!
//! Loads and stores also return the entry's [`CacheEntry`] — its byte
//! length and FNV-1a digest — so a caller that only needs the canonical
//! bytes later (the serve daemon's artifact endpoint) can keep those two
//! numbers instead of the decoded artifact and read the bytes back with
//! [`MemoCache::entry_bytes`], which refuses an entry that changed.

use std::fs;
use std::io::ErrorKind;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use stacksim_faults::Fault;

use super::artifact::Artifact;
use super::digest::Digest;
use super::resilience;
use crate::error::Error;

/// One stored entry's identity: its byte length and the FNV-1a digest of
/// its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Entry size in bytes.
    pub len: u64,
    /// FNV-1a over the entry's bytes.
    pub fnv: u64,
}

impl CacheEntry {
    fn of(bytes: &[u8]) -> CacheEntry {
        CacheEntry {
            len: bytes.len() as u64,
            fnv: Digest::new().bytes(bytes).finish(),
        }
    }
}

/// A directory of memoized artifacts, or a disabled no-op cache.
#[derive(Debug, Clone, Default)]
pub struct MemoCache {
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
}

/// Configures a [`MemoCache`] beyond the unbounded default: a size budget
/// with LRU eviction.
#[derive(Debug, Clone, Default)]
pub struct MemoCacheBuilder {
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
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

    /// Ignored: every cache uses the one flat layout. Kept only so
    /// existing callers still compile.
    #[doc(hidden)]
    #[must_use]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Builds the configured cache.
    #[must_use]
    pub fn build(self) -> MemoCache {
        MemoCache {
            dir: self.dir,
            max_bytes: self.max_bytes,
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
        MemoCache::default()
    }

    /// An unbounded cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        MemoCache {
            dir: Some(dir.into()),
            max_bytes: None,
        }
    }

    /// Configure a size-bounded cache.
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

    /// The file a given experiment point lives at (`Ok(None)` when
    /// caching is disabled).
    ///
    /// # Errors
    ///
    /// [`Error::MalformedDigest`] when `digest` is empty or not the hex
    /// shape `Digest::hex` produces (rejected even on a disabled cache,
    /// so the bug surfaces regardless of configuration): such a string
    /// could carry path separators into the file name.
    pub fn path_for(&self, name: &str, digest: &str) -> Result<Option<PathBuf>, Error> {
        if digest.is_empty() || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(Error::MalformedDigest {
                digest: digest.to_string(),
            });
        }
        let Some(dir) = self.dir.as_ref() else {
            return Ok(None);
        };
        let safe: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Ok(Some(dir.join(format!("{safe}-{digest}.json"))))
    }

    /// Loads a memoized artifact, if one exists. See
    /// [`MemoCache::load_entry`].
    ///
    /// # Errors
    ///
    /// As [`MemoCache::load_entry`].
    pub fn load(&self, name: &str, digest: &str) -> Result<Option<Artifact>, Error> {
        Ok(self.load_entry(name, digest)?.map(|(artifact, _)| artifact))
    }

    /// Loads a memoized artifact and its entry's length and digest, if
    /// one exists.
    ///
    /// A zero-length file is treated as a miss and deleted: it is the
    /// footprint of a crash between `create` and `write` (or of a full
    /// disk), carries no data worth reporting, and would otherwise wedge
    /// the entry as permanently "corrupt".
    ///
    /// On a bounded cache a hit also bumps the entry's mtime in place,
    /// which is what makes eviction LRU rather than FIFO.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure other than "not found";
    /// [`Error::CacheCorrupt`] if the file exists but does not parse.
    pub fn load_entry(
        &self,
        name: &str,
        digest: &str,
    ) -> Result<Option<(Artifact, CacheEntry)>, Error> {
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
                    // mark the entry most-recently-used without rewriting
                    // it; best effort, so an entry evicted since the read
                    // (NotFound: never re-created here) still serves the hit
                    let _ = fs::File::options()
                        .write(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(SystemTime::now()));
                }
                Ok(Some((a, CacheEntry::of(text.as_bytes()))))
            }
            Err(detail) => Err(Error::CacheCorrupt { path, detail }),
        }
    }

    /// The bytes of a stored entry, checked against the length and digest
    /// its load or store returned: a caller gets exactly the bytes it was
    /// told about, or an error — never other bytes.
    ///
    /// # Errors
    ///
    /// [`Error::CacheEntryChanged`] when the entry is gone (evicted,
    /// cleaned, quarantined) or no longer holds those bytes, or the cache
    /// is disabled; [`Error::Io`] on other filesystem failures.
    pub fn entry_bytes(
        &self,
        name: &str,
        digest: &str,
        entry: CacheEntry,
    ) -> Result<String, Error> {
        let Some(path) = self.path_for(name, digest)? else {
            return Err(Error::CacheEntryChanged {
                path: PathBuf::new(),
                detail: "the memo cache is disabled".to_string(),
            });
        };
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(Error::CacheEntryChanged {
                    path,
                    detail: "the entry is gone".to_string(),
                });
            }
            Err(e) => return Err(Error::io(path, e)),
        };
        let found = CacheEntry::of(&bytes);
        if found != entry {
            return Err(Error::CacheEntryChanged {
                path,
                detail: format!(
                    "{} bytes with digest {:016x}, expected {} bytes with digest {:016x}",
                    found.len, found.fnv, entry.len, entry.fnv
                ),
            });
        }
        String::from_utf8(bytes).map_err(|_| Error::CacheEntryChanged {
            path,
            detail: "the entry is not UTF-8".to_string(),
        })
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

    /// Stores an artifact, creating the cache directory if needed, then
    /// enforces the size budget if one is configured. Returns the stored
    /// entry's length and digest: `None` from a disabled cache, or when
    /// the budget evicted the entry at once.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure. A disabled cache stores
    /// nothing and succeeds.
    pub fn store(
        &self,
        name: &str,
        digest: &str,
        artifact: &Artifact,
    ) -> Result<Option<CacheEntry>, Error> {
        let Some(path) = self.path_for(name, digest)? else {
            return Ok(None);
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
            if !path.exists() {
                return Ok(None);
            }
        }
        Ok(Some(CacheEntry::of(encoded.as_bytes())))
    }

    /// The cache's current entry footprint in bytes (live entries only —
    /// quarantined files and in-flight tmp files are not counted).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    #[cfg(test)]
    fn usage_bytes(&self) -> Result<u64, Error> {
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
    fn evict_to_budget(&self) -> Result<usize, Error> {
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
        let Some(dir) = self.dir.as_ref() else {
            return Ok(Vec::new());
        };
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(Error::io(dir.clone(), e)),
        };
        let mut out = Vec::new();
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
        Ok(out)
    }

    /// Deletes every cache entry, including quarantined ones and those in
    /// the `s00/`..`sff/` subdirectories older builds spread entries
    /// over. Missing directories are fine.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn clean(&self) -> Result<usize, Error> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(0);
        };
        let mut removed = clean_dir(dir)?;
        let mut subdirs = vec![dir.join(QUARANTINE_DIR)];
        if let Ok(entries) = fs::read_dir(dir) {
            subdirs.extend(entries.flatten().map(|e| e.path()).filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.len() == 3
                    && name.starts_with('s')
                    && name[1..].bytes().all(|b| b.is_ascii_hexdigit())
                    && p.is_dir()
            }));
        }
        for sub in subdirs {
            removed += clean_dir(&sub)?;
            remove_dir_if_empty(&sub)?;
        }
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

    /// Load and store report the same entry identity, `entry_bytes` hands
    /// back exactly those bytes, and a rewritten or missing entry is a
    /// typed error rather than other bytes.
    #[test]
    fn entry_bytes_are_checked_against_the_stored_identity() {
        let dir = scratch("entry");
        let c = MemoCache::at(&dir);
        let stored = c.store("fig3", "aa", &sample()).unwrap().expect("entry");
        let (back, loaded) = c.load_entry("fig3", "aa").unwrap().expect("hit");
        assert_eq!(back, sample());
        assert_eq!(loaded, stored);
        assert_eq!(stored.len, sample().encode().len() as u64);
        assert_eq!(
            c.entry_bytes("fig3", "aa", stored).unwrap(),
            sample().encode()
        );

        let path = c.path_for("fig3", "aa").unwrap().unwrap();
        fs::write(&path, sample2().encode()).unwrap();
        assert!(matches!(
            c.entry_bytes("fig3", "aa", stored),
            Err(Error::CacheEntryChanged { .. })
        ));
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            c.entry_bytes("fig3", "aa", stored),
            Err(Error::CacheEntryChanged { .. })
        ));
        assert!(matches!(
            MemoCache::disabled().entry_bytes("fig3", "aa", stored),
            Err(Error::CacheEntryChanged { .. })
        ));
        assert_eq!(
            MemoCache::disabled()
                .store("fig3", "aa", &sample())
                .unwrap(),
            None
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store the byte budget evicts at once reports no entry.
    #[test]
    fn a_store_evicted_at_once_reports_no_entry() {
        let dir = scratch("over-budget");
        let c = MemoCache::builder().dir(&dir).max_bytes(1).build();
        assert_eq!(c.store("fig3", "aa", &sample()).unwrap(), None);
        assert!(c.load("fig3", "aa").unwrap().is_none());
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

    /// Caches written by older builds spread entries over `s00/`..`sff/`
    /// subdirectories: `clean` reclaims them, and never touches the
    /// serve journal that shares the cache root.
    #[test]
    fn clean_sweeps_legacy_subdirs_but_not_the_journal() {
        let dir = scratch("legacy");
        let legacy = dir.join("s0a");
        let journal = dir.join("journal");
        fs::create_dir_all(&legacy).unwrap();
        fs::create_dir_all(&journal).unwrap();
        fs::write(legacy.join("fig3-aa.json"), sample().encode()).unwrap();
        fs::write(journal.join("requests.jsonl"), "{}\n").unwrap();
        let c = MemoCache::at(&dir);
        assert_eq!(c.clean().unwrap(), 1);
        assert!(!legacy.exists(), "the emptied legacy directory is removed");
        assert!(
            journal.join("requests.jsonl").exists(),
            "the journal is kept"
        );
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

    /// A bounded hit bumps the entry's mtime in place: same inode, so no
    /// rewrite happened.
    #[cfg(unix)]
    #[test]
    fn bounded_hit_touches_without_rewriting() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = scratch("touch");
        let c = MemoCache::builder().dir(&dir).max_bytes(1 << 20).build();
        c.store("fig3", "aa", &sample()).unwrap();
        let path = c.path_for("fig3", "aa").unwrap().unwrap();
        let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let before = fs::metadata(&path).unwrap();
        assert_eq!(c.load("fig3", "aa").unwrap(), Some(sample()));
        let after = fs::metadata(&path).unwrap();
        assert_eq!(
            before.ino(),
            after.ino(),
            "the hit must not rewrite the entry"
        );
        assert!(after.modified().unwrap() > old, "the hit bumps the mtime");
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

    /// A malformed digest is a typed error on every entry operation —
    /// never a file name built from unchecked input.
    #[test]
    fn malformed_digest_is_a_typed_error() {
        let dir = scratch("baddigest");
        let c = MemoCache::at(&dir);
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
