//! Versioned on-disk model artifacts.
//!
//! A [`Snapshot`] is everything the serving path needs to answer
//! predictions without touching the training pipeline: the trained
//! [`PortableCompiler`] plus enough metadata to refuse, loudly, any
//! artifact the running binary cannot honour — a different serialization
//! format, a different feature dimensionality, or a different optimisation
//! pass space (a model trained over 39 dimensions is meaningless if the
//! compiler has since grown a 40th).
//!
//! The format is the workspace's JSON (via the serde shims), one object:
//! `{"meta": {...}, "compiler": {...}}`. The `meta` header is parsed and
//! validated *before* the model payload, so a mismatched snapshot fails
//! with a precise reason instead of a deep deserialization error.
//!
//! Train once, serialize, reload, predict — the whole deployment cycle:
//!
//! ```
//! use portopt_core::{GenOptions, Sweep, SweepScale, TrainOptions};
//! use portopt_ir::{FuncBuilder, ModuleBuilder};
//! use portopt_serve::Snapshot;
//!
//! // A toy one-program dataset (deployments sweep the full suite).
//! let mut mb = ModuleBuilder::new("toy");
//! let mut b = FuncBuilder::new("main", 0);
//! let acc = b.iconst(1);
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
//!
//! let snap = Snapshot::train(&ds, &TrainOptions::default());
//! let bytes = snap.to_bytes().unwrap();          // what `save` writes
//! let back = Snapshot::from_bytes(&bytes).unwrap(); // header-validated
//! assert_eq!(back.meta, snap.meta);
//! let prediction = back.compiler.predict(&ds.features[0][0]);
//! assert_eq!(prediction, snap.compiler.predict(&ds.features[0][0]));
//! ```

use portopt_core::{Dataset, ModelKind, PortableCompiler, TrainOptions};
use portopt_passes::OptSpace;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;

/// First bytes of the `magic` field of every portopt snapshot.
pub const SNAPSHOT_MAGIC: &str = "portopt-snapshot";

/// Current snapshot format version. Bump on any change to the serialized
/// layout of [`Snapshot`] or the model types it embeds.
pub const FORMAT_VERSION: u32 = 1;

/// The current pass space as `(dimension name, cardinality)` pairs — the
/// fingerprint stored in a snapshot and checked at load time.
pub fn current_pass_space() -> Vec<(String, usize)> {
    OptSpace::dims()
        .iter()
        .map(|d| (d.name.to_string(), d.cardinality))
        .collect()
}

/// Self-describing header of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Always [`SNAPSHOT_MAGIC`]; anything else is not a snapshot.
    pub magic: String,
    /// Serialized-layout version ([`FORMAT_VERSION`] at write time).
    pub format_version: u32,
    /// Feature-vector dimensionality the model was trained on.
    pub feature_dim: usize,
    /// The optimisation space at training time, as name/cardinality pairs.
    pub pass_space: Vec<(String, usize)>,
    /// Programs in the training dataset.
    pub programs: usize,
    /// Microarchitectures in the training dataset.
    pub uarchs: usize,
    /// Optimisation settings sampled per program.
    pub settings: usize,
    /// Neighbour count the model was trained with.
    pub k: usize,
    /// Softmax inverse temperature the model was trained with.
    pub beta: f64,
    /// Which model from the zoo the payload holds. Validated against the
    /// decoded payload, and against the operator's expectation in
    /// [`Snapshot::load_expecting`], *before* the payload is decoded.
    pub model_kind: ModelKind,
}

// Hand-written serde: the `model_kind` tag is appended after `beta` for
// the non-kNN kinds and omitted entirely for kNN, so snapshots written
// before the model zoo existed (no tag) load as kNN and freshly-written
// kNN snapshots stay byte-identical to them.
impl Serialize for SnapshotMeta {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("magic".to_string(), self.magic.to_value()),
            ("format_version".to_string(), self.format_version.to_value()),
            ("feature_dim".to_string(), self.feature_dim.to_value()),
            ("pass_space".to_string(), self.pass_space.to_value()),
            ("programs".to_string(), self.programs.to_value()),
            ("uarchs".to_string(), self.uarchs.to_value()),
            ("settings".to_string(), self.settings.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("beta".to_string(), self.beta.to_value()),
        ];
        if self.model_kind != ModelKind::Knn {
            fields.push(("model_kind".to_string(), self.model_kind.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for SnapshotMeta {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(SnapshotMeta {
            magic: String::from_value(v.field("magic")?)?,
            format_version: u32::from_value(v.field("format_version")?)?,
            feature_dim: usize::from_value(v.field("feature_dim")?)?,
            pass_space: Vec::from_value(v.field("pass_space")?)?,
            programs: usize::from_value(v.field("programs")?)?,
            uarchs: usize::from_value(v.field("uarchs")?)?,
            settings: usize::from_value(v.field("settings")?)?,
            k: usize::from_value(v.field("k")?)?,
            beta: f64::from_value(v.field("beta")?)?,
            model_kind: match v.field("model_kind") {
                Ok(tag) => ModelKind::from_value(tag)?,
                Err(_) => ModelKind::Knn,
            },
        })
    }
}

/// A trained [`PortableCompiler`] plus its validation metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Self-describing, load-time-validated header.
    pub meta: SnapshotMeta,
    /// The trained model.
    pub compiler: PortableCompiler,
}

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not parseable as a snapshot at all.
    Corrupt(String),
    /// The file parses but its `magic` field is wrong — it is some other
    /// JSON document.
    NotASnapshot {
        /// The magic actually found.
        found: String,
    },
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version in the file.
        found: u32,
        /// Version this binary supports.
        supported: u32,
    },
    /// The snapshot's model was trained over a different optimisation
    /// space than this binary compiles with.
    PassSpaceMismatch {
        /// Human-readable description of the first difference.
        detail: String,
    },
    /// The snapshot's model expects a different feature dimensionality.
    FeatureDimMismatch {
        /// Dimensionality in the file.
        found: usize,
        /// Dimensionality this binary produces.
        expected: usize,
    },
    /// The snapshot declares a model kind this binary has never heard of
    /// (a newer build's zoo, or a corrupted tag).
    UnknownModelKind {
        /// The tag actually found.
        found: String,
    },
    /// The snapshot holds a model of a different kind than required —
    /// either the operator's `--expect-model` demand, or a payload that
    /// disagrees with its own header.
    ModelKindMismatch {
        /// Kind in the file.
        found: ModelKind,
        /// Kind that was required.
        expected: ModelKind,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::NotASnapshot { found } => {
                write!(f, "not a portopt snapshot (magic `{found}`)")
            }
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported \
                 (this binary reads version {supported}); re-run `snapshot` to retrain"
            ),
            SnapshotError::PassSpaceMismatch { detail } => write!(
                f,
                "snapshot was trained over a different optimisation space: {detail}; \
                 re-run `snapshot` to retrain"
            ),
            SnapshotError::FeatureDimMismatch { found, expected } => write!(
                f,
                "snapshot expects {found}-dimensional features, this binary \
                 produces {expected}; re-run `snapshot` to retrain"
            ),
            SnapshotError::UnknownModelKind { found } => write!(
                f,
                "snapshot declares unknown model kind `{found}` (this binary \
                 knows: {}); upgrade the binary or retrain",
                ModelKind::ALL.map(|k| k.as_str()).join("/")
            ),
            SnapshotError::ModelKindMismatch { found, expected } => write!(
                f,
                "snapshot holds a `{found}` model where `{expected}` was expected"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Describes the first difference between two pass spaces, or `None` if
/// they are identical.
fn pass_space_diff(found: &[(String, usize)], current: &[(String, usize)]) -> Option<String> {
    if found.len() != current.len() {
        return Some(format!(
            "{} dimensions in snapshot vs {} in this binary",
            found.len(),
            current.len()
        ));
    }
    for ((fname, fcard), (cname, ccard)) in found.iter().zip(current) {
        if fname != cname {
            return Some(format!("dimension `{fname}` vs `{cname}`"));
        }
        if fcard != ccard {
            return Some(format!(
                "dimension `{fname}` has {fcard} choices in snapshot vs {ccard}"
            ));
        }
    }
    None
}

impl Snapshot {
    /// Trains a [`PortableCompiler`] on the full dataset (no leave-one-out
    /// holdouts — a deployment model uses everything) and wraps it with
    /// the metadata a loader will validate.
    pub fn train(ds: &Dataset, opts: &TrainOptions) -> Self {
        match Self::try_train(ds, opts) {
            Ok(snap) => snap,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`train`](Self::train) with malformed datasets reported as a typed
    /// error instead of a panic — what the `snapshot` bin calls so an
    /// empty dataset is an exit-code diagnostic, not a crash. Trains the
    /// paper's kNN model; [`try_train_kind`](Self::try_train_kind) picks
    /// another kind from the zoo.
    pub fn try_train(ds: &Dataset, opts: &TrainOptions) -> Result<Self, portopt_ml::TrainError> {
        Self::try_train_kind(ds, ModelKind::Knn, opts)
    }

    /// [`try_train`](Self::try_train) for any model kind in the zoo; the
    /// kind is recorded in the header so loaders can refuse a mismatched
    /// artifact before decoding the payload.
    pub fn try_train_kind(
        ds: &Dataset,
        kind: ModelKind,
        opts: &TrainOptions,
    ) -> Result<Self, portopt_ml::TrainError> {
        let compiler = PortableCompiler::try_train_kind(ds, None, None, kind, opts)?;
        Ok(Snapshot {
            meta: SnapshotMeta {
                magic: SNAPSHOT_MAGIC.to_string(),
                format_version: FORMAT_VERSION,
                feature_dim: compiler.model().feature_dim(),
                pass_space: current_pass_space(),
                programs: ds.n_programs(),
                uarchs: ds.n_uarchs(),
                settings: ds.configs.len(),
                k: opts.k,
                beta: opts.beta,
                model_kind: kind,
            },
            compiler,
        })
    }

    /// Serializes the snapshot to bytes (the exact bytes [`Snapshot::save`]
    /// writes).
    pub fn to_bytes(&self) -> Result<Vec<u8>, SnapshotError> {
        serde_json::to_vec(self).map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }

    /// Writes the snapshot to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes()?)?;
        Ok(())
    }

    /// Parses and validates a snapshot from bytes. The header is checked
    /// (magic, format version, pass space, feature dimensionality, model
    /// kind) before the model payload is deserialized, so every rejection
    /// carries the specific mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::from_bytes_checked(bytes, None)
    }

    /// [`from_bytes`](Self::from_bytes), additionally requiring the header
    /// to declare model kind `expected`. The check runs on the header tag
    /// alone — a wrong-kind snapshot is refused with
    /// [`SnapshotError::ModelKindMismatch`] before its payload is touched.
    pub fn from_bytes_expecting(bytes: &[u8], expected: ModelKind) -> Result<Self, SnapshotError> {
        Self::from_bytes_checked(bytes, Some(expected))
    }

    fn from_bytes_checked(
        bytes: &[u8],
        expected_kind: Option<ModelKind>,
    ) -> Result<Self, SnapshotError> {
        // One parse to the document tree; the header is validated off the
        // tree before the (much larger) model payload is decoded, so a
        // mismatched file is rejected with its specific reason and a
        // multi-megabyte artifact is not lexed twice.
        let doc: serde::Value =
            serde_json::from_slice(bytes).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let raw_meta = doc
            .field("meta")
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        // Probe the kind tag before the header decode proper: a tag from a
        // newer zoo must surface as `UnknownModelKind`, not `Corrupt`.
        if let Ok(tag) = raw_meta.field("model_kind") {
            let found = match tag {
                Value::Str(s) => s.clone(),
                other => format!("{other:?}"),
            };
            if ModelKind::parse(&found).is_none() {
                return Err(SnapshotError::UnknownModelKind { found });
            }
        }
        let meta = SnapshotMeta::from_value(raw_meta)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        if meta.magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::NotASnapshot { found: meta.magic });
        }
        if meta.format_version != FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: meta.format_version,
                supported: FORMAT_VERSION,
            });
        }
        if let Some(expected) = expected_kind {
            if meta.model_kind != expected {
                return Err(SnapshotError::ModelKindMismatch {
                    found: meta.model_kind,
                    expected,
                });
            }
        }
        if let Some(detail) = pass_space_diff(&meta.pass_space, &current_pass_space()) {
            return Err(SnapshotError::PassSpaceMismatch { detail });
        }
        let expected = portopt_uarch::N_FEATURES;
        if meta.feature_dim != expected {
            return Err(SnapshotError::FeatureDimMismatch {
                found: meta.feature_dim,
                expected,
            });
        }
        let snap = Snapshot::from_value(&doc).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        // The header said the right thing; make sure the payload agrees
        // (a hand-edited file could pair a valid header with a stale model).
        let payload_kind = snap.compiler.model().kind();
        if payload_kind != snap.meta.model_kind {
            return Err(SnapshotError::ModelKindMismatch {
                found: payload_kind,
                expected: snap.meta.model_kind,
            });
        }
        let model_dim = snap.compiler.model().feature_dim();
        if model_dim != expected {
            return Err(SnapshotError::FeatureDimMismatch {
                found: model_dim,
                expected,
            });
        }
        Ok(snap)
    }

    /// Loads and validates a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// [`load`](Self::load), refusing any snapshot whose header does not
    /// declare model kind `expected` (the `serve --expect-model` guard).
    pub fn load_expecting(
        path: impl AsRef<Path>,
        expected: ModelKind,
    ) -> Result<Self, SnapshotError> {
        Self::from_bytes_expecting(&std::fs::read(path)?, expected)
    }
}
