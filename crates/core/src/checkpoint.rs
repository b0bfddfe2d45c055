//! Resumable in-shard sweep checkpoints: a versioned append-only journal
//! of completed `(program, setting)` results.
//!
//! The profile cache (`portopt_exec::cache`) already makes a *restarted*
//! sweep cheap — profiling runs are reused — but a restart still re-prices
//! every pair from its cached profile. A [`CheckpointJournal`] removes
//! even that: as the sweep completes a pair it appends the finished cycle
//! row to a journal next to the output file, and a restart with identical
//! flags replays the journal and skips the finished work entirely. The
//! resumed dataset is **byte-identical** to an uninterrupted run (the
//! float encoding round-trips exactly; `canonical_row` handles the one
//! non-finite wrinkle), which `portopt-core`'s tests and the CI
//! crash-resume job assert end to end.
//!
//! ## Format
//!
//! One JSON document per line, in the style of the serving wire protocol:
//!
//! ```text
//! {"magic":"portopt-sweep-journal","format_version":1,"plan":"<16 hex>"}
//! {"Baseline":{"p":0,"o3":[...],"features":[{"values":[...]},...]}}
//! {"Pair":{"p":0,"t":3,"row":[...]}}
//! ...
//! ```
//!
//! The header is validated *before* any record is replayed — wrong magic,
//! a future format version, or a `plan` fingerprint that does not match
//! the current invocation's programs/options each raise their own
//! [`JournalError`], exactly like `DiskCache`'s envelope checks. The plan
//! fingerprint covers the program modules, both resolved axes (sampled or
//! named microarchitectures, and the settings) and the profiling limits, so a journal can never leak rows into a sweep with
//! different flags.
//!
//! ## Crash safety
//!
//! Records are appended one flushed line at a time, so the only damage a
//! `SIGKILL` can do is a **torn tail**: a final line without its
//! newline, or a truncated record. [`CheckpointJournal::open`] replays
//! the longest valid prefix, truncates the rest in place (self-healing,
//! counted in [`CheckpointJournal::healed_bytes`]), and resumes appending
//! after it. A failure to *append* during the sweep is logged and
//! swallowed — checkpointing degrades resumability, never correctness.

use portopt_uarch::FeatureVec;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The `magic` field of every journal header; anything else is not one.
pub const JOURNAL_MAGIC: &str = "portopt-sweep-journal";

/// Current journal format version. Bump on any change to the header or
/// record layout.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Self-describing first line of every journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalHeader {
    /// Always [`JOURNAL_MAGIC`].
    magic: String,
    /// [`JOURNAL_FORMAT_VERSION`] at write time.
    format_version: u32,
    /// Hex fingerprint of the sweep plan this journal belongs to.
    plan: String,
}

/// One checkpointed result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Record {
    /// A completed `(program, unique-setting)` pricing: cycles per
    /// microarchitecture.
    Pair {
        /// Program index within this sweep's program list.
        p: usize,
        /// Unique-setting index (post-dedup) within the sampled settings.
        t: usize,
        /// `row[u]`: cycles on microarchitecture `u`.
        row: Vec<f64>,
    },
    /// A completed `-O3` baseline for one program.
    Baseline {
        /// Program index within this sweep's program list.
        p: usize,
        /// Baseline cycles per microarchitecture.
        o3: Vec<f64>,
        /// The per-microarchitecture feature vectors.
        features: Vec<FeatureVec>,
    },
}

/// Why a journal (not a record — bad records self-heal) was refused.
#[derive(Debug)]
pub enum JournalError {
    /// The journal could not be read, created or truncated.
    Io(std::io::Error),
    /// The header line is complete but not parseable as a journal header.
    Corrupt(String),
    /// The header parses but its `magic` field is wrong — some other
    /// JSON-lines file sits at the journal path.
    NotAJournal {
        /// The magic actually found.
        found: String,
    },
    /// The journal was written by an incompatible format version.
    VersionMismatch {
        /// Version in the file.
        found: u32,
        /// Version this binary supports.
        supported: u32,
    },
    /// The journal belongs to a different sweep plan: other programs,
    /// scale, seed, space, or profiling limits. Resuming it here would
    /// splice foreign rows into this sweep, so it is refused loudly.
    PlanMismatch {
        /// Plan fingerprint recorded in the journal.
        found: String,
        /// Plan fingerprint of the current invocation.
        expected: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt(msg) => write!(f, "corrupt journal header: {msg}"),
            JournalError::NotAJournal { found } => {
                write!(f, "not a portopt sweep journal (magic `{found}`)")
            }
            JournalError::VersionMismatch { found, supported } => write!(
                f,
                "journal format version {found} is not supported \
                 (this binary reads version {supported})"
            ),
            JournalError::PlanMismatch { found, expected } => write!(
                f,
                "journal was written by a different sweep plan ({found}, this \
                 invocation is {expected}): flags, suite or limits changed — \
                 delete the journal or restore the original flags"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Restores the exact in-memory value of a journalled cycle row. JSON has
/// no `Infinity`, so the serializer writes non-finite cycles (a failed
/// binary is priced `f64::INFINITY` everywhere) as `null`, which parses
/// back as NaN. The sweep itself never produces NaN cycles, so mapping
/// every non-finite value back to `INFINITY` makes replay exact — both in
/// the serialized dataset (where the same `null` lossiness applies
/// anyway) and in memory.
fn canonical_row(row: Vec<f64>) -> Vec<f64> {
    row.into_iter()
        .map(|v| if v.is_finite() { v } else { f64::INFINITY })
        .collect()
}

/// An open checkpoint journal: the replayed state of a previous attempt
/// plus an append handle for this one. See the [module docs](self).
///
/// Shared by the sweep's worker threads (`&self` everywhere); appends are
/// serialized by an internal lock and flushed per record.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    writer: Mutex<std::fs::File>,
    pairs: HashMap<(usize, usize), Arc<Vec<f64>>>,
    baselines: HashMap<usize, Arc<(Vec<f64>, Vec<FeatureVec>)>>,
    recorded: AtomicU64,
    healed_bytes: u64,
}

impl CheckpointJournal {
    /// Opens (creating if needed) the journal at `path` for the sweep plan
    /// fingerprinted by `plan`. An existing journal is validated
    /// header-first, its complete records are replayed, and a torn tail is
    /// truncated in place; the returned handle appends after the healed
    /// prefix.
    pub fn open(path: impl AsRef<Path>, plan: u64) -> Result<Self, JournalError> {
        // The replay span: on a resume this covers reading and re-pricing
        // (from disk) every previously completed record.
        let sp = portopt_trace::span("core.checkpoint", "journal_open", &[]);
        let path = path.as_ref().to_path_buf();
        let plan_hex = format!("{plan:016x}");
        let mut pairs = HashMap::new();
        let mut baselines = HashMap::new();
        let mut healed_bytes = 0u64;

        let existing = match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(JournalError::Io(e)),
        };
        let mut fresh = existing.is_none();
        if let Some(bytes) = existing {
            // Walk complete (newline-terminated) lines, tracking how many
            // bytes of the file are a valid prefix worth keeping.
            let mut good_len = 0usize;
            let mut saw_header = false;
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                if !line.ends_with(b"\n") {
                    break; // torn tail: a record cut mid-write
                }
                if !saw_header {
                    match Self::parse_header(line) {
                        Ok(header) => {
                            Self::validate_header(&header, &plan_hex)?;
                            saw_header = true;
                            good_len += line.len();
                            continue;
                        }
                        // A header line that never got its newline would
                        // have been caught above; a *complete* first line
                        // that does not parse at all is healed like a torn
                        // tail only if the file holds nothing else — an
                        // empty journal from a crash at creation time.
                        Err(e) => {
                            if bytes.len() == line.len() {
                                break;
                            }
                            return Err(e);
                        }
                    }
                }
                match serde_json::from_slice::<Record>(line) {
                    Ok(Record::Pair { p, t, row }) => {
                        pairs.insert((p, t), Arc::new(canonical_row(row)));
                        good_len += line.len();
                    }
                    Ok(Record::Baseline { p, o3, features }) => {
                        baselines.insert(p, Arc::new((o3, features)));
                        good_len += line.len();
                    }
                    // A record that parses no further: keep the prefix,
                    // drop this line and everything after it.
                    Err(_) => break,
                }
            }
            healed_bytes = (bytes.len() - good_len) as u64;
            if healed_bytes > 0 {
                let f = std::fs::File::options().write(true).open(&path)?;
                f.set_len(good_len as u64)?;
            }
            fresh = !saw_header;
        }

        let mut writer = std::fs::File::options()
            .create(true)
            .append(true)
            .open(&path)?;
        if fresh {
            let header = JournalHeader {
                magic: JOURNAL_MAGIC.to_string(),
                format_version: JOURNAL_FORMAT_VERSION,
                plan: plan_hex,
            };
            let mut line =
                serde_json::to_string(&header).map_err(|e| JournalError::Corrupt(e.to_string()))?;
            line.push('\n');
            writer.write_all(line.as_bytes())?;
            writer.flush()?;
        }
        sp.close_with(&[
            ("resumed_pairs", pairs.len().into()),
            ("resumed_baselines", baselines.len().into()),
            ("healed_bytes", healed_bytes.into()),
        ]);
        Ok(CheckpointJournal {
            path,
            writer: Mutex::new(writer),
            pairs,
            baselines,
            recorded: AtomicU64::new(0),
            healed_bytes,
        })
    }

    fn parse_header(line: &[u8]) -> Result<JournalHeader, JournalError> {
        serde_json::from_slice::<JournalHeader>(line)
            .map_err(|e| JournalError::Corrupt(e.to_string()))
    }

    fn validate_header(header: &JournalHeader, plan_hex: &str) -> Result<(), JournalError> {
        if header.magic != JOURNAL_MAGIC {
            return Err(JournalError::NotAJournal {
                found: header.magic.clone(),
            });
        }
        if header.format_version != JOURNAL_FORMAT_VERSION {
            return Err(JournalError::VersionMismatch {
                found: header.format_version,
                supported: JOURNAL_FORMAT_VERSION,
            });
        }
        if header.plan != plan_hex {
            return Err(JournalError::PlanMismatch {
                found: header.plan.clone(),
                expected: plan_hex.to_string(),
            });
        }
        Ok(())
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed `(program, setting)` pairs replayed from a
    /// previous attempt — the pairs this run will *not* re-price.
    pub fn resumed_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of `-O3` baselines replayed from a previous attempt.
    pub fn resumed_baselines(&self) -> usize {
        self.baselines.len()
    }

    /// Records appended by *this* run so far (pairs + baselines).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Bytes of torn tail truncated while opening (0 for a clean journal).
    pub fn healed_bytes(&self) -> u64 {
        self.healed_bytes
    }

    /// The replayed cycle row for `(program, unique-setting)`, if that
    /// pair completed in a previous attempt.
    pub(crate) fn replayed_pair(&self, p: usize, t: usize) -> Option<Arc<Vec<f64>>> {
        self.pairs.get(&(p, t)).cloned()
    }

    /// The replayed baseline for program `p`, if it completed previously.
    pub(crate) fn replayed_baseline(&self, p: usize) -> Option<(Vec<f64>, Vec<FeatureVec>)> {
        self.baselines.get(&p).map(|b| (b.0.clone(), b.1.clone()))
    }

    /// Appends a completed pair. Failures are logged, not fatal: a sweep
    /// that cannot checkpoint still completes, it just cannot resume.
    pub(crate) fn record_pair(&self, p: usize, t: usize, row: &[f64]) {
        self.append(&Record::Pair {
            p,
            t,
            row: row.to_vec(),
        });
    }

    /// Appends a completed baseline (same failure contract as pairs).
    pub(crate) fn record_baseline(&self, p: usize, o3: &[f64], features: &[FeatureVec]) {
        self.append(&Record::Baseline {
            p,
            o3: o3.to_vec(),
            features: features.to_vec(),
        });
    }

    fn append(&self, record: &Record) {
        let mut line = match serde_json::to_string(record) {
            Ok(s) => s,
            Err(e) => {
                portopt_trace::error!("core.checkpoint", "checkpoint record not serializable: {e}");
                return;
            }
        };
        line.push('\n');
        let mut writer = self.writer.lock().expect("journal writer");
        if let Err(e) = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
        {
            portopt_trace::warn!(
                "core.checkpoint",
                "checkpoint append to {} failed: {e} (sweep continues, resume disabled)",
                self.path.display()
            );
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Deletes the journal — call after the final dataset has been
    /// published, at which point the dataset itself is the durable
    /// artifact and the journal is spent.
    pub fn retire(self) -> std::io::Result<()> {
        drop(self.writer);
        std::fs::remove_file(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("portopt-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.journal")
    }

    fn feature(values: &[f64]) -> FeatureVec {
        FeatureVec {
            values: values.to_vec(),
        }
    }

    #[test]
    fn fresh_journal_records_and_replays() {
        let path = scratch("fresh");
        let j = CheckpointJournal::open(&path, 0xABCD).unwrap();
        assert_eq!(j.resumed_pairs(), 0);
        assert_eq!(j.healed_bytes(), 0);
        j.record_pair(0, 1, &[10.0, 20.5]);
        j.record_pair(1, 0, &[1.0, f64::INFINITY]);
        j.record_baseline(0, &[5.0], &[feature(&[1.0, 2.0])]);
        assert_eq!(j.recorded(), 3);
        drop(j);

        let j2 = CheckpointJournal::open(&path, 0xABCD).unwrap();
        assert_eq!(j2.resumed_pairs(), 2);
        assert_eq!(j2.resumed_baselines(), 1);
        assert_eq!(*j2.replayed_pair(0, 1).unwrap(), vec![10.0, 20.5]);
        // Non-finite cycles survive the JSON round-trip as INFINITY.
        assert_eq!(*j2.replayed_pair(1, 0).unwrap(), vec![1.0, f64::INFINITY]);
        assert_eq!(j2.replayed_pair(2, 0), None);
        let (o3, feats) = j2.replayed_baseline(0).unwrap();
        assert_eq!(o3, vec![5.0]);
        assert_eq!(feats, vec![feature(&[1.0, 2.0])]);
        j2.retire().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let path = scratch("torn");
        let j = CheckpointJournal::open(&path, 7).unwrap();
        j.record_pair(0, 0, &[1.0]);
        j.record_pair(0, 1, &[2.0]);
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // A SIGKILL mid-append: half a record, no newline.
        let mut f = std::fs::File::options().append(true).open(&path).unwrap();
        f.write_all(b"{\"Pair\":{\"p\":0,\"t\":2,\"ro").unwrap();
        drop(f);

        let j2 = CheckpointJournal::open(&path, 7).unwrap();
        assert_eq!(j2.resumed_pairs(), 2, "complete prefix replayed");
        assert!(j2.healed_bytes() > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The healed journal keeps working.
        j2.record_pair(0, 2, &[3.0]);
        drop(j2);
        let j3 = CheckpointJournal::open(&path, 7).unwrap();
        assert_eq!(j3.resumed_pairs(), 3);
        assert_eq!(j3.healed_bytes(), 0);
    }

    #[test]
    fn corrupt_mid_file_record_drops_the_suffix() {
        let path = scratch("midfile");
        let j = CheckpointJournal::open(&path, 7).unwrap();
        j.record_pair(0, 0, &[1.0]);
        j.record_pair(0, 1, &[2.0]);
        j.record_pair(0, 2, &[3.0]);
        drop(j);
        // Vandalise the middle record (keeping its length and newline):
        // replay must keep the prefix and discard from the bad line on.
        let text = std::fs::read_to_string(&path).unwrap();
        let vandalised = text.replacen(
            "{\"Pair\":{\"p\":0,\"t\":1",
            "{\"Pair\":{\"p\":x,\"t\":1",
            1,
        );
        assert_ne!(text, vandalised);
        std::fs::write(&path, vandalised).unwrap();

        let j2 = CheckpointJournal::open(&path, 7).unwrap();
        assert_eq!(j2.resumed_pairs(), 1, "only the record before the damage");
        assert!(j2.replayed_pair(0, 0).is_some());
        assert!(
            j2.replayed_pair(0, 2).is_none(),
            "suffix after damage dropped"
        );
        assert!(j2.healed_bytes() > 0);
    }

    #[test]
    fn header_mismatches_are_typed() {
        let path = scratch("typed");
        drop(CheckpointJournal::open(&path, 1).unwrap());
        match CheckpointJournal::open(&path, 2) {
            Err(JournalError::PlanMismatch { found, expected }) => {
                assert_eq!(found, format!("{:016x}", 1));
                assert_eq!(expected, format!("{:016x}", 2));
            }
            other => panic!("expected PlanMismatch, got {other:?}"),
        }

        std::fs::write(
            &path,
            "{\"magic\":\"portopt-sweep-journal\",\"format_version\":99,\"plan\":\"0000000000000001\"}\n",
        )
        .unwrap();
        match CheckpointJournal::open(&path, 1) {
            Err(JournalError::VersionMismatch { found: 99, .. }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }

        std::fs::write(
            &path,
            "{\"magic\":\"something-else\",\"format_version\":1,\"plan\":\"0000000000000001\"}\n",
        )
        .unwrap();
        match CheckpointJournal::open(&path, 1) {
            Err(JournalError::NotAJournal { found }) => assert_eq!(found, "something-else"),
            other => panic!("expected NotAJournal, got {other:?}"),
        }

        // A complete but unparseable header in a multi-line file is not
        // healable — refusing beats silently discarding real records.
        std::fs::write(
            &path,
            "{ not json\n{\"Pair\":{\"p\":0,\"t\":0,\"row\":[1.0]}}\n",
        )
        .unwrap();
        match CheckpointJournal::open(&path, 1) {
            Err(JournalError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn crash_at_creation_time_heals_to_fresh() {
        let path = scratch("creation");
        // Torn header: no newline ever made it to disk.
        std::fs::write(&path, "{\"magic\":\"portopt-swee").unwrap();
        let j = CheckpointJournal::open(&path, 5).unwrap();
        assert_eq!(j.resumed_pairs(), 0);
        assert!(j.healed_bytes() > 0);
        j.record_pair(0, 0, &[4.0]);
        drop(j);
        let j2 = CheckpointJournal::open(&path, 5).unwrap();
        assert_eq!(j2.resumed_pairs(), 1);

        // An empty file (created, never written) also heals to fresh.
        let empty = scratch("creation-empty");
        std::fs::write(&empty, b"").unwrap();
        let j3 = CheckpointJournal::open(&empty, 5).unwrap();
        assert_eq!(j3.resumed_pairs(), 0);
    }

    #[test]
    fn errors_display_usefully() {
        let e = JournalError::PlanMismatch {
            found: "aa".into(),
            expected: "bb".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("different sweep plan"), "{msg}");
        assert!(msg.contains("delete the journal"), "{msg}");
        assert!(JournalError::NotAJournal { found: "x".into() }
            .to_string()
            .contains("not a portopt sweep journal"));
    }
}
