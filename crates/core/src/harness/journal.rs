//! The session request journal: crash recovery for the serve plane.
//!
//! A [`RequestJournal`] is an append-only JSONL file (schema
//! `stacksim-journal/1`) under the daemon's cache directory. The session
//! appends one `accepted` record when a submission enqueues new work and
//! one `done` record when that slot reaches a terminal outcome; every
//! append is fsync'd, so the set of accepted-but-unfinished requests
//! survives a `kill -9`.
//!
//! # Recovery
//!
//! [`RequestJournal::recover`] runs at daemon boot:
//!
//! 1. The previous journal file is renamed aside to `<path>.replay` (an
//!    atomic rename, the journal's write-tmp-rename discipline — the
//!    durable copy exists at every instant of the handoff).
//! 2. Its records are parsed; unparseable lines (a crash mid-append, a
//!    corrupting fault) are *skipped and counted*, never fatal.
//! 3. The `accepted` records with no matching `done` are returned for
//!    resubmission, and a fresh journal starts at the original path —
//!    resubmitting re-appends each entry, so a crash during replay
//!    loses nothing (both files are read next boot, and entries
//!    deduplicate by their canonical encoding).
//! 4. Once every entry is resubmitted the caller drops the side file
//!    with [`RequestJournal::discard_replay`].
//!
//! Replay is idempotent through the memo cache: a request whose
//! artifact was already stored completes as a warm hit with
//! byte-identical artifact bytes; one killed mid-computation recomputes
//! deterministically to the same bytes.
//!
//! The append path is a declared fault site (`session.journal`), so
//! chaos plans can exercise a journal that lies: `io-transient` fails
//! the append (durability degrades, the request still runs), `corrupt`
//! and `truncate` mangle the line on disk so the *next* recovery walks
//! the skip path.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use stacksim_faults::Fault;

use super::json::Json;
use super::resilience::{injected_io, SITE_SESSION_JOURNAL};
use super::session::ExperimentRequest;
use crate::error::Error;

/// Schema tag of every journal record.
pub const JOURNAL_SCHEMA: &str = "stacksim-journal/1";

/// An open, append-only request journal. See the `journal` module docs.
#[derive(Debug)]
pub struct RequestJournal {
    path: PathBuf,
    file: Mutex<File>,
}

/// What [`RequestJournal::recover`] found on disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// The fresh journal, open for appends at the original path.
    pub journal: RequestJournal,
    /// Accepted-but-unfinished requests, in journal order, deduplicated
    /// by canonical encoding. Resubmit these.
    pub unfinished: Vec<ExperimentRequest>,
    /// Lines skipped because they would not parse as journal records.
    pub corrupt_skipped: u64,
}

impl RequestJournal {
    /// Recovers the journal at `path`: moves any previous file aside,
    /// parses it, and opens a fresh journal. See the `journal` module docs
    /// for the crash-safety argument.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the directory cannot be created or the files
    /// cannot be moved, read, or created. Unparseable *content* is never
    /// an error — it is skipped and counted.
    pub fn recover(path: &Path) -> Result<JournalRecovery, Error> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(|e| Error::io(parent.to_path_buf(), e))?;
            }
        }
        let replay = replay_path(path);
        if path.exists() {
            if replay.exists() {
                // a crash mid-replay left both files; fold the newer
                // records onto the durable copy before starting over
                let text = fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
                let mut side = OpenOptions::new()
                    .append(true)
                    .open(&replay)
                    .map_err(|e| Error::io(&replay, e))?;
                side.write_all(text.as_bytes())
                    .and_then(|()| side.sync_data())
                    .map_err(|e| Error::io(&replay, e))?;
                fs::remove_file(path).map_err(|e| Error::io(path, e))?;
            } else {
                fs::rename(path, &replay).map_err(|e| Error::io(path, e))?;
            }
        }

        let (unfinished, corrupt_skipped) = if replay.exists() {
            let text = fs::read_to_string(&replay).map_err(|e| Error::io(&replay, e))?;
            parse_records(&text)
        } else {
            (Vec::new(), 0)
        };
        if corrupt_skipped > 0 && stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::JOURNAL_CORRUPT_SKIPPED).add(corrupt_skipped);
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::io(path, e))?;
        Ok(JournalRecovery {
            journal: RequestJournal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
            },
            unfinished,
            corrupt_skipped,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes the recovery side file, once every unfinished entry has
    /// been resubmitted (each resubmission re-appended it here).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when an existing side file cannot be removed.
    pub fn discard_replay(&self) -> Result<(), Error> {
        let replay = replay_path(&self.path);
        match fs::remove_file(&replay) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::io(replay, e)),
        }
    }

    /// Appends an `accepted` record for a newly enqueued request.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on append or fsync failure (injected or real). The
    /// caller treats this as degraded durability, not a failed request.
    pub(super) fn record_accepted(
        &self,
        id: u64,
        request: &ExperimentRequest,
    ) -> Result<(), Error> {
        self.append(
            "accepted",
            vec![("id", Json::Num(id as f64)), ("request", request.to_json())],
        )
    }

    /// Appends a `done` record for a slot that reached a terminal
    /// outcome.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on append or fsync failure.
    pub(super) fn record_done(&self, id: u64, ok: bool) -> Result<(), Error> {
        self.append(
            "done",
            vec![("id", Json::Num(id as f64)), ("ok", Json::Bool(ok))],
        )
    }

    fn lock(&self) -> MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn append(&self, ev: &str, fields: Vec<(&str, Json)>) -> Result<(), Error> {
        let mut obj = vec![
            ("schema", Json::Str(JOURNAL_SCHEMA.to_string())),
            ("ev", Json::Str(ev.to_string())),
        ];
        obj.extend(fields);
        let mut line = Json::obj(obj).encode();
        line.push('\n');

        match stacksim_faults::check(SITE_SESSION_JOURNAL, ev) {
            Some(Fault::IoTransient) => {
                return Err(injected_io(SITE_SESSION_JOURNAL, ev));
            }
            // a journal that lies: the bytes land mangled, and the
            // *next* recovery must skip them without failing
            Some(Fault::Corrupt) => {
                line = format!("#corrupt#{line}");
            }
            Some(Fault::Truncate) => {
                line.truncate(line.len() / 2);
            }
            _ => {}
        }

        let mut file = self.lock();
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| Error::io(self.path.clone(), e))?;
        if stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::JOURNAL_APPENDED).add(1);
        }
        Ok(())
    }
}

fn replay_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".replay");
    path.with_file_name(name)
}

/// Parses journal text into `(unfinished requests, skipped lines)`.
/// Tolerant by construction: any line that is not a well-formed record
/// counts as skipped and parsing continues.
fn parse_records(text: &str) -> (Vec<ExperimentRequest>, u64) {
    let mut accepted: Vec<(u64, ExperimentRequest)> = Vec::new();
    let mut done: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut skipped = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some((ev, id, doc)) = parse_record(line) else {
            skipped += 1;
            continue;
        };
        match ev.as_str() {
            "accepted" => {
                let request = doc.get("request").map(ExperimentRequest::from_json);
                match request {
                    Some(Ok(request)) => accepted.push((id, request)),
                    _ => skipped += 1,
                }
            }
            "done" => {
                done.insert(id);
            }
            _ => skipped += 1,
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    let unfinished = accepted
        .into_iter()
        .filter(|(id, _)| !done.contains(id))
        .map(|(_, request)| request)
        .filter(|request| seen.insert(request.to_json().encode()))
        .collect();
    (unfinished, skipped)
}

fn parse_record(line: &str) -> Option<(String, u64, Json)> {
    let doc = Json::parse(line).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(JOURNAL_SCHEMA) {
        return None;
    }
    let ev = doc.get("ev").and_then(Json::as_str)?.to_string();
    let id = doc.get("id").and_then(Json::as_u64)?;
    Some((ev, id, doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_workloads::Scale;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stacksim-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    #[test]
    fn unfinished_entries_survive_a_recovery_cycle() {
        let dir = tempdir("cycle");
        let path = dir.join("requests.jsonl");

        let rec = RequestJournal::recover(&path).expect("fresh journal");
        assert!(rec.unfinished.is_empty());
        assert_eq!(rec.corrupt_skipped, 0);
        let req_done = ExperimentRequest::new("fig3").scale(Scale::Test);
        let req_open = ExperimentRequest::new("table4").seed(7).deadline_ms(500);
        rec.journal.record_accepted(1, &req_done).expect("append");
        rec.journal.record_accepted(2, &req_open).expect("append");
        rec.journal.record_done(1, true).expect("append");
        drop(rec);

        // "crash": recover from the same path
        let rec = RequestJournal::recover(&path).expect("recovers");
        assert_eq!(rec.corrupt_skipped, 0);
        assert_eq!(rec.unfinished.len(), 1, "only the open request replays");
        assert_eq!(
            rec.unfinished[0].to_json().encode(),
            req_open.to_json().encode()
        );
        // the durable copy exists until the caller discards it
        assert!(replay_path(&path).exists());
        rec.journal.discard_replay().expect("discard");
        assert!(!replay_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_not_fatal() {
        let dir = tempdir("corrupt");
        let path = dir.join("requests.jsonl");
        let rec = RequestJournal::recover(&path).expect("fresh journal");
        rec.journal
            .record_accepted(1, &ExperimentRequest::new("fig3"))
            .expect("append");
        drop(rec);
        // simulate a crash mid-append plus unrelated garbage
        let mut text = fs::read_to_string(&path).expect("read");
        text.push_str("{\"schema\":\"stacksim-journal/1\",\"ev\":\"acc"); // truncated
        text.push('\n');
        text.push_str("not json at all\n");
        fs::write(&path, text).expect("write");

        let rec = RequestJournal::recover(&path).expect("recovers");
        assert_eq!(rec.corrupt_skipped, 2);
        assert_eq!(rec.unfinished.len(), 1, "the intact record still replays");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_entries_from_an_interrupted_replay_deduplicate() {
        let dir = tempdir("dup");
        let path = dir.join("requests.jsonl");
        let req = ExperimentRequest::new("fig3").seed(3);
        let rec = RequestJournal::recover(&path).expect("fresh journal");
        rec.journal.record_accepted(5, &req).expect("append");
        drop(rec);
        // first recovery moves the file aside and re-appends (the
        // resubmission) — then crash before discard_replay
        let rec = RequestJournal::recover(&path).expect("recovers");
        assert_eq!(rec.unfinished.len(), 1);
        rec.journal.record_accepted(0, &req).expect("re-append");
        drop(rec);
        // both files now hold the same request; the next recovery folds
        // them and still replays it exactly once
        let rec = RequestJournal::recover(&path).expect("recovers again");
        assert_eq!(rec.corrupt_skipped, 0);
        assert_eq!(rec.unfinished.len(), 1, "deduplicated across both files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_records_are_skipped() {
        let (unfinished, skipped) =
            parse_records("{\"schema\":\"stacksim-faults/1\",\"ev\":\"accepted\",\"id\":1}\n");
        assert!(unfinished.is_empty());
        assert_eq!(skipped, 1);
    }
}
