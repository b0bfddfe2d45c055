//! Hot snapshot reload: swap the served model without dropping requests.
//!
//! A running [`PredictionService`](crate::PredictionService) holds its
//! model behind a snapshot cell: an atomically swappable
//! `Arc<VersionedSnapshot>`. Every batch drain clones the `Arc` **once at
//! batch start**, so an in-flight batch finishes on the model it started
//! with while the very next batch picks up a freshly loaded one — no lock
//! is held across a prediction, and no request is ever dropped or answered
//! by a half-swapped model. Each swap bumps a monotonic version number
//! that is echoed in every reply (`snapshot_version`), so clients can tell
//! exactly which model answered them.
//!
//! Two ways to trigger a swap:
//!
//! * the `{"cmd": "reload"}` admin request (TCP mode), which re-loads the
//!   snapshot path the service was started with, and
//! * [`ReloadHandle::watch`] — a poll loop over the snapshot file's
//!   mtime/length (the `serve` bin's `--watch-snapshot` flag), so an
//!   operator can retrain and `mv` a new artifact into place without ever
//!   touching the server.
//!
//! A reload validates the incoming artifact exactly like service start-up
//! does ([`Snapshot::load`]): wrong magic, format version, pass space or
//! feature dimensionality are refused with the specific
//! [`SnapshotError`], and the old model keeps serving.
//!
//! ```
//! use portopt_core::{GenOptions, Sweep, SweepScale, TrainOptions};
//! use portopt_ir::{FuncBuilder, ModuleBuilder};
//! use portopt_serve::{PredictionService, Snapshot};
//!
//! // Train a toy snapshot (a real one comes from `Snapshot::load`).
//! let mut mb = ModuleBuilder::new("toy");
//! let mut b = FuncBuilder::new("main", 0);
//! let acc = b.iconst(0);
//! b.counted_loop(0, 24, 1, |b, i| {
//!     let t = b.add(acc, i);
//!     b.assign(acc, t);
//! });
//! b.ret(acc);
//! let id = mb.add(b.finish());
//! mb.entry(id);
//! let opts = GenOptions {
//!     scale: SweepScale { n_uarch: 2, n_opts: 3 },
//!     threads: 1,
//!     ..GenOptions::default()
//! };
//! let ds = Sweep::new(opts).run(&[("toy".to_string(), mb.finish())]).0;
//! let snap = Snapshot::train(&ds, &TrainOptions::default());
//! let retrained = Snapshot::train(&ds, &TrainOptions::default());
//!
//! let service = PredictionService::new(snap, 1);
//! let handle = service.reload_handle();
//! assert_eq!(handle.version(), 1); // the model the service started with
//! assert_eq!(handle.reload(retrained), 2); // atomic swap, version bump
//! assert_eq!(service.current_snapshot().version, 2);
//! ```

use crate::snapshot::{Snapshot, SnapshotError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// A [`Snapshot`] plus the monotonic version the service assigned when it
/// was installed. Version `1` is the snapshot the service started with;
/// every successful reload increments it.
#[derive(Debug)]
pub struct VersionedSnapshot {
    /// Monotonic install counter, echoed as `snapshot_version` in replies.
    pub version: u64,
    /// The installed model.
    pub snapshot: Snapshot,
}

/// The swappable model slot a [`PredictionService`](crate::PredictionService)
/// serves from: readers clone out an `Arc` (a pointer copy under a
/// momentary lock), writers install a replacement. Predictions never run
/// under the lock.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    current: Mutex<Arc<VersionedSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        SnapshotCell {
            current: Mutex::new(Arc::new(VersionedSnapshot {
                version: 1,
                snapshot,
            })),
        }
    }

    /// The currently installed snapshot (an `Arc` clone; holders keep the
    /// model alive even across a concurrent swap).
    pub(crate) fn load(&self) -> Arc<VersionedSnapshot> {
        self.current.lock().expect("snapshot cell lock").clone()
    }

    /// Installs `snapshot` as the new current model; returns its version.
    pub(crate) fn swap(&self, snapshot: Snapshot) -> u64 {
        let mut g = self.current.lock().expect("snapshot cell lock");
        let version = g.version + 1;
        *g = Arc::new(VersionedSnapshot { version, snapshot });
        version
    }
}

/// What [`ReloadHandle::watch`] observed on one poll tick that changed
/// something: a successful reload or a rejected artifact.
#[derive(Debug)]
pub enum WatchEvent {
    /// The file changed and loaded cleanly; the new version is installed.
    Reloaded {
        /// Version number assigned to the newly installed snapshot.
        version: u64,
    },
    /// The file changed but did not load (still being written, or an
    /// incompatible artifact). The old model keeps serving; the watcher
    /// retries on the next change of the file's metadata.
    Rejected(SnapshotError),
}

impl WatchEvent {
    /// The standard operator-facing log line for this event — the
    /// `on_event` callback used by both the `serve` bin's stdio watcher
    /// and the concurrent TCP server's `--watch-snapshot` thread.
    pub fn log_to_stderr(self) {
        match self {
            WatchEvent::Reloaded { version } => {
                portopt_trace::info!(
                    "serve",
                    { snapshot_version = version },
                    "snapshot file changed: now serving version {version}"
                )
            }
            WatchEvent::Rejected(e) => portopt_trace::warn!(
                "serve",
                "snapshot file changed but was not loadable ({e}); still serving the old model"
            ),
        }
    }
}

/// A cloneable handle for swapping the snapshot a running service serves
/// from. Obtained from
/// [`PredictionService::reload_handle`](crate::PredictionService::reload_handle);
/// safe to use from any thread while the service is serving.
#[derive(Clone)]
pub struct ReloadHandle {
    pub(crate) cell: Arc<SnapshotCell>,
}

impl std::fmt::Debug for ReloadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReloadHandle")
            .field("version", &self.version())
            .finish()
    }
}

impl ReloadHandle {
    /// Version of the snapshot currently being served (1 = the snapshot
    /// the service started with).
    pub fn version(&self) -> u64 {
        self.cell.load().version
    }

    /// The snapshot currently being served.
    pub fn current(&self) -> Arc<VersionedSnapshot> {
        self.cell.load()
    }

    /// Atomically installs an already-validated snapshot; returns the new
    /// version. Batches already draining finish on the model they started
    /// with; the next batch uses `snapshot`.
    pub fn reload(&self, snapshot: Snapshot) -> u64 {
        self.cell.swap(snapshot)
    }

    /// Loads, validates and installs a snapshot file. On any
    /// [`SnapshotError`] the old model keeps serving unchanged.
    pub fn reload_from(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let snapshot = Snapshot::load(path)?;
        Ok(self.reload(snapshot))
    }

    /// Polls `path`'s metadata (mtime + length) every `interval` and
    /// reloads on change, until `stop` becomes true. Each observation that
    /// changes something is reported through `on_event`; an unchanged file
    /// reports nothing. Returns the number of successful reloads.
    ///
    /// A half-written file simply fails validation
    /// ([`WatchEvent::Rejected`]) and is retried when its metadata next
    /// changes — so `mv`-ing a complete artifact into place (atomic on one
    /// filesystem) is the recommended publish step, but even a plain slow
    /// `cp` converges.
    pub fn watch(
        &self,
        path: impl AsRef<Path>,
        interval: Duration,
        stop: &AtomicBool,
        mut on_event: impl FnMut(WatchEvent),
    ) -> u64 {
        let path = path.as_ref();
        let mut last = file_stamp(path);
        let mut reloads = 0u64;
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(interval);
            let stamp = file_stamp(path);
            if stamp == last {
                continue;
            }
            last = stamp;
            if stamp.is_none() {
                // File vanished mid-swap (`mv` in flight); keep serving the
                // old model and wait for it to reappear.
                continue;
            }
            match self.reload_from(path) {
                Ok(version) => {
                    reloads += 1;
                    on_event(WatchEvent::Reloaded { version });
                }
                Err(e) => on_event(WatchEvent::Rejected(e)),
            }
        }
        reloads
    }
}

/// The change-detection key: (mtime, length), or `None` while the file is
/// missing/unreadable.
fn file_stamp(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}
