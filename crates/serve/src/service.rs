//! The batched prediction service.
//!
//! A JSON-lines protocol over any line-oriented byte stream: each request
//! is one JSON object, each reply is one JSON object, in request order.
//! [`PredictionService::run_lines`] drives a `BufRead`/`Write` pair (stdin
//! /stdout for piping and tests);
//! [`PredictionService::run_concurrent`] serves the same protocol over
//! `std::net::TcpListener`, concurrently for many clients (see
//! [`crate::concurrent`]). The complete wire-protocol
//! reference lives in `docs/SERVING.md`.
//!
//! Requests accumulate in a [`ServiceQueue`] and are drained as batches
//! onto the [`Executor`] — in TCP mode a batch spans *all* live
//! connections, so a burst of predictions from any mix of clients uses
//! every core: the deployment-time mirror of the training sweep. Each
//! queued request carries the [`ConnId`] it arrived on, and
//! [`drain_routed`](PredictionService::drain_routed) hands every reply
//! back tagged with the connection it belongs to.
//!
//! ## Request format
//!
//! ```json
//! {"features": [/* 19 numbers */], "uarch": "xscale"}
//! {"module": {/* portopt-ir Module */}, "uarch": {/* MicroArch */}, "apply": true}
//! {"cmd": "reload"}
//! {"shutdown": true}
//! ```
//!
//! * `features` — a feature vector as produced by `FeatureVec` (counters
//!   from one `-O3` run plus microarchitecture descriptors), *or*
//! * `module` — a serialized `portopt-ir` module; the service runs the
//!   `-O3` profiling itself (the full Figure 2 deployment flow);
//! * `uarch` — the target: `"xscale"` or an explicit configuration object;
//! * `apply` (optional, module requests) — also compile with the predicted
//!   setting and report predicted-vs-`-O3` cycle counts;
//! * `id` (optional) — echoed in the reply; defaults to the submission
//!   index.
//!
//! A reply carries the predicted [`OptConfig`] both structurally
//! (`config`) and as the canonical choice vector (`choices`), the
//! per-request service latency in milliseconds, and the version of the
//! snapshot that answered it (`snapshot_version` — bumps on every hot
//! reload, see [`crate::reload`]). Malformed requests get
//! `{"id": …, "error": "…"}` replies in-order rather than tearing down the
//! connection.
//!
//! Submit / drain, the loop every transport is built on:
//!
//! ```
//! use portopt_core::{GenOptions, Sweep, SweepScale, TrainOptions};
//! use portopt_ir::{FuncBuilder, ModuleBuilder};
//! use portopt_serve::{PredictionService, ServiceStats, Snapshot};
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
//!
//! let service = PredictionService::new(snap, 1);
//! let features: Vec<f64> = ds.features[0][0].values.clone();
//! let line = format!(r#"{{"id": 7, "features": {features:?}, "uarch": "xscale"}}"#);
//! assert!(!service.submit_line(&line)); // not the shutdown sentinel
//!
//! let mut stats = ServiceStats::default();
//! let replies = service.drain(&mut stats);
//! assert_eq!(replies[0].id, 7);
//! assert!(replies[0].error.is_none());
//! assert!(replies[0].config.is_some());
//! assert_eq!(replies[0].snapshot_version, 1); // no reload has happened
//! assert_eq!(stats.requests, 1);
//! ```

use crate::metrics::ServeMetrics;
use crate::reload::{ReloadHandle, SnapshotCell, VersionedSnapshot};
use crate::snapshot::Snapshot;
use portopt_exec::{Executor, ServiceQueue, SubmitError};
use portopt_ir::interp::ExecLimits;
use portopt_ir::Module;
use portopt_passes::{compile, OptConfig};
use portopt_sim::{evaluate, profile};
use portopt_uarch::MicroArch;
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution limits for service-side profiling runs (same budget as the
/// training sweep).
const PROFILE_LIMITS: ExecLimits = ExecLimits {
    fuel: 100_000_000,
    max_depth: 2048,
};

/// Default number of requests drained per executor batch.
pub const DEFAULT_BATCH: usize = 32;

/// Identifies the connection a queued request arrived on, so its reply can
/// be routed back to the right socket. Ids are handed out by the
/// [`ConnectionRegistry`](crate::ConnectionRegistry) starting at 1;
/// [`LOCAL_CONN`] (0) is the single stream of stdio mode and of direct
/// [`PredictionService::submit_line`] use.
pub type ConnId = u64;

/// The [`ConnId`] of the one implicit "connection" in stdio mode and in
/// direct [`PredictionService::submit_line`] use.
pub const LOCAL_CONN: ConnId = 0;

/// What a request asks the model to predict from.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestInput {
    /// A precomputed feature vector (counters + descriptors).
    Features(Vec<f64>),
    /// A raw module; the service profiles it at `-O3` first.
    Module(Box<Module>),
}

/// One parsed prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Client-chosen reply id; defaults to the submission index.
    pub id: Option<u64>,
    /// Feature vector or raw module.
    pub input: RequestInput,
    /// Target microarchitecture.
    pub uarch: MicroArch,
    /// For module requests: compile with the prediction and report stats.
    pub apply: bool,
}

impl Serialize for ServeRequest {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(id) = self.id {
            fields.push(("id".to_string(), id.to_value()));
        }
        match &self.input {
            RequestInput::Features(f) => fields.push(("features".to_string(), f.to_value())),
            RequestInput::Module(m) => fields.push(("module".to_string(), m.to_value())),
        }
        fields.push(("uarch".to_string(), self.uarch.to_value()));
        if self.apply {
            fields.push(("apply".to_string(), true.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ServeRequest {
    /// Lenient by hand (the derive requires every field): absent `id` and
    /// `apply` default, `uarch` accepts a name or a full object.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::new("request must be a JSON object"))?;
        let get = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let id = match get("id") {
            Some(v) => Some(u64::from_value(v)?),
            None => None,
        };
        let apply = match get("apply") {
            Some(v) => bool::from_value(v)?,
            None => false,
        };
        let input = match (get("features"), get("module")) {
            (Some(_), Some(_)) => {
                return Err(serde::Error::new(
                    "request has both `features` and `module`; send one",
                ))
            }
            (Some(f), None) => {
                let values = Vec::<f64>::from_value(f)?;
                // Reject non-finite features at admission: JSON `null`
                // decodes to NaN and `1e999` parses to +Inf, and a
                // non-finite query would poison the distance ranking (the
                // naive kernel used to panic mid-batch on exactly this).
                // A typed per-request error reply keeps the batch alive.
                if let Some(i) = values.iter().position(|v| !v.is_finite()) {
                    return Err(serde::Error::new(format!(
                        "features[{i}] is not a finite number \
                         (NaN/Infinity are rejected)"
                    )));
                }
                RequestInput::Features(values)
            }
            (None, Some(m)) => RequestInput::Module(Box::new(Module::from_value(m)?)),
            (None, None) => {
                return Err(serde::Error::new(
                    "request needs `features` (a feature vector) or `module` (a program)",
                ))
            }
        };
        let uarch = match get("uarch") {
            Some(Value::Str(name)) => match name.as_str() {
                "xscale" => MicroArch::xscale(),
                other => {
                    return Err(serde::Error::new(format!(
                        "unknown microarchitecture name `{other}` (known: \"xscale\"); \
                         or pass a full configuration object"
                    )))
                }
            },
            Some(v) => MicroArch::from_value(v)?,
            None => {
                return Err(serde::Error::new(
                    "request needs `uarch` (\"xscale\" or a configuration object)",
                ))
            }
        };
        Ok(ServeRequest {
            id,
            input,
            uarch,
            apply,
        })
    }
}

/// Decodes the canonical request shape — a flat object whose keys are
/// drawn from `id` / `features` / `uarch` / `apply`, each at most once,
/// features all finite plain numbers, `uarch` the string `"xscale"` or
/// the full configuration object in printed field order —
/// straight off the line via [`serde_json::Scanner`], skipping the
/// `Value` tree entirely. Returns `None` for ANY other shape (admin
/// commands, `module` requests, duplicate or unknown keys, escapes,
/// non-finite or malformed values, trailing bytes): the caller then
/// takes the tree path, which is the semantic definition, so every line
/// this accepts yields bit-identically the request the tree path would
/// have built, and every line it refuses still gets the tree path's
/// exact reply. `Scanner` reuses the parser's own tokenizer, so number
/// and string tokens cannot be read differently here than there.
fn decode_line_fast(line: &str) -> Option<(Option<u64>, ServeRequest)> {
    let mut t = serde_json::Scanner::new(line);
    if !t.bump_if(b'{') || t.bump_if(b'}') {
        // Not an object, or `{}` (an error reply the tree path formats).
        return None;
    }
    let mut id: Option<u64> = None;
    let mut features: Option<Vec<f64>> = None;
    let mut uarch: Option<MicroArch> = None;
    let mut apply: Option<bool> = None;
    loop {
        let key = t.raw_str()?;
        if !t.bump_if(b':') {
            return None;
        }
        match key {
            "id" if id.is_none() => {
                // Only the integer token forms; a float-typed id (`5.0`)
                // is valid to the tree path but never canonical — bail.
                id = Some(match t.number()? {
                    Value::I64(n) if n >= 0 => n as u64,
                    Value::U64(n) => n,
                    _ => return None,
                });
            }
            "features" if features.is_none() => {
                let mut vals = Vec::with_capacity(24);
                if !t.bump_if(b'[') {
                    return None;
                }
                if !t.bump_if(b']') {
                    loop {
                        let f = match t.number()? {
                            Value::F64(x) => x,
                            Value::I64(n) => n as f64,
                            Value::U64(n) => n as f64,
                            _ => return None,
                        };
                        if !f.is_finite() {
                            // The tree path formats the typed
                            // `features[i] is not a finite number` reply.
                            return None;
                        }
                        vals.push(f);
                        if t.bump_if(b',') {
                            continue;
                        }
                        if t.bump_if(b']') {
                            break;
                        }
                        return None;
                    }
                }
                features = Some(vals);
            }
            "uarch" if uarch.is_none() => {
                if t.bump_if(b'{') {
                    // The full-configuration object, accepted only in the
                    // exact shape our own printer emits: the ten fields in
                    // declaration order, each a plain in-range integer.
                    // The derive reads fields positionally first, so this
                    // equals `MicroArch::from_value` on every accepted
                    // line; reordered or exotic objects bail to the tree.
                    const UARCH_KEYS: [&str; 10] = [
                        "il1_size",
                        "il1_assoc",
                        "il1_block",
                        "dl1_size",
                        "dl1_assoc",
                        "dl1_block",
                        "btb_entries",
                        "btb_assoc",
                        "freq_mhz",
                        "width",
                    ];
                    let mut vals = [0u32; 10];
                    for (i, key) in UARCH_KEYS.iter().enumerate() {
                        if i > 0 && !t.bump_if(b',') {
                            return None;
                        }
                        if t.raw_str()? != *key || !t.bump_if(b':') {
                            return None;
                        }
                        vals[i] = match t.number()? {
                            Value::I64(n) if (0..=u32::MAX as i64).contains(&n) => n as u32,
                            _ => return None,
                        };
                    }
                    if !t.bump_if(b'}') {
                        return None;
                    }
                    uarch = Some(MicroArch {
                        il1_size: vals[0],
                        il1_assoc: vals[1],
                        il1_block: vals[2],
                        dl1_size: vals[3],
                        dl1_assoc: vals[4],
                        dl1_block: vals[5],
                        btb_entries: vals[6],
                        btb_assoc: vals[7],
                        freq_mhz: vals[8],
                        width: vals[9],
                    });
                } else {
                    if t.raw_str()? != "xscale" {
                        return None;
                    }
                    uarch = Some(MicroArch::xscale());
                }
            }
            "apply" if apply.is_none() => {
                apply = Some(if t.keyword("true") {
                    true
                } else if t.keyword("false") {
                    false
                } else {
                    return None;
                });
            }
            _ => return None,
        }
        if t.bump_if(b',') {
            continue;
        }
        if t.bump_if(b'}') {
            break;
        }
        return None;
    }
    if !t.at_end() {
        return None;
    }
    let req = ServeRequest {
        id,
        input: RequestInput::Features(features?),
        uarch: uarch?,
        apply: apply.unwrap_or(false),
    };
    Some((id, req))
}

/// Cycle counts from an `apply: true` module request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplyStats {
    /// Cycles of the `-O3` profiling run on the target.
    pub o3_cycles: f64,
    /// Cycles of the predicted setting's binary on the target.
    pub predicted_cycles: f64,
    /// `o3_cycles / predicted_cycles`.
    pub speedup: f64,
}

/// One reply line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeResponse {
    /// Echo of the request id (or the submission index).
    pub id: u64,
    /// The predicted setting, `None` on error.
    pub config: Option<OptConfig>,
    /// The predicted setting as the canonical choice vector, empty on
    /// error.
    pub choices: Vec<u8>,
    /// Service-side latency for this request in milliseconds (profiling
    /// included for module requests).
    pub latency_ms: f64,
    /// Cycle counts when the request asked to `apply` the prediction.
    pub stats: Option<ApplyStats>,
    /// What went wrong, if anything.
    pub error: Option<String>,
    /// Version of the model snapshot that answered this request (1 = the
    /// snapshot the service started with; bumps on every hot reload). All
    /// replies of one batch carry the same version.
    pub snapshot_version: u64,
}

/// Running totals, reported when the service shuts down.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServiceStats {
    /// Requests answered (including error replies).
    pub requests: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Executor batches drained.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: usize,
    /// Sum of per-request latencies (ms).
    pub total_latency_ms: f64,
    /// Worst single-request latency (ms).
    pub max_latency_ms: f64,
    /// Wall-clock seconds spent draining batches.
    pub busy_secs: f64,
    /// Requests thrown away unanswered because their connection died
    /// before their batch ran (or their reply could not be written).
    pub discarded: u64,
    /// Requests refused at admission (queue at capacity or closed) with
    /// an out-of-band `{"error":"overloaded"}`-style reply.
    pub refused: u64,
    /// TCP connections accepted over the service's lifetime.
    pub connections: u64,
    /// TCP connections refused because the server was at `max_conns`.
    pub rejected_connections: u64,
}

impl ServiceStats {
    /// Mean per-request latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_ms / self.requests as f64
        }
    }

    /// Predictions per second of busy (batch-draining) time.
    pub fn predictions_per_sec(&self) -> f64 {
        if self.busy_secs > 0.0 {
            self.requests as f64 / self.busy_secs
        } else {
            0.0
        }
    }

    /// The human-readable shutdown report.
    pub fn report(&self) -> String {
        let mut s = format!(
            "served {} requests ({} errors) in {} batches (max {}): \
             mean latency {:.3} ms, max {:.3} ms, {:.0} predictions/sec",
            self.requests,
            self.errors,
            self.batches,
            self.max_batch,
            self.mean_latency_ms(),
            self.max_latency_ms,
            self.predictions_per_sec(),
        );
        if self.connections > 0 || self.rejected_connections > 0 {
            s.push_str(&format!(
                "; {} connections ({} rejected at capacity)",
                self.connections, self.rejected_connections
            ));
        }
        if self.discarded > 0 {
            s.push_str(&format!(
                "; {} requests discarded (dead connections)",
                self.discarded
            ));
        }
        if self.refused > 0 {
            s.push_str(&format!(
                "; {} requests refused at admission (overloaded)",
                self.refused
            ));
        }
        s
    }
}

/// How the service classified one input line. Returned by
/// [`PredictionService::classify_and_submit`]; transports decide what to
/// write back (admin replies are written immediately, prediction replies
/// come out of the next batch drain).
#[derive(Debug)]
pub enum LineAction {
    /// A prediction request (or a malformed line, which will get an
    /// in-order error reply): queued for the next batch.
    Queued,
    /// The `{"shutdown": true}` sentinel: not queued; the transport should
    /// flush pending replies and stop the service.
    Shutdown,
    /// The `{"cmd": "reload"}` admin request: executed immediately.
    /// `Ok(version)` is the newly installed snapshot version; `Err`
    /// explains why the model was left unchanged.
    Reload(Result<u64, String>),
    /// The `{"cmd": "stats"}` admin request: the ready-to-write one-line
    /// JSON metrics snapshot. Not queued; the transport writes it
    /// out-of-band like a reload acknowledgement.
    Stats(String),
    /// The request was **not** queued: the queue is at capacity (or
    /// closed for shutdown). `reply` is the ready-to-write one-line
    /// refusal — `{"id":…,"error":"overloaded","retry_after_ms":…}` for
    /// capacity, a "shutting down" error for a closed queue. The
    /// transport must deliver it immediately: refusals are out-of-band
    /// (they never enter the batch pipeline).
    Refused {
        /// The one-line JSON refusal, without trailing newline.
        reply: String,
    },
}

/// One queued line: the connection it arrived on plus the parse outcome
/// (errors stay in the queue so the reply stream keeps request order).
#[derive(Debug)]
struct QueuedLine {
    conn: ConnId,
    /// The client's request id when the line parsed far enough to have
    /// one — echoed even on error replies so the client can correlate
    /// them (a rejected request whose reply carries a synthetic id is as
    /// bad as no reply).
    id: Option<u64>,
    parsed: Result<ServeRequest, String>,
}

/// A loaded snapshot serving predictions over an [`Executor`].
#[derive(Debug)]
pub struct PredictionService {
    cell: Arc<SnapshotCell>,
    exec: Executor,
    queue: ServiceQueue<QueuedLine>,
    reload_path: Option<PathBuf>,
    metrics: Arc<ServeMetrics>,
    /// The `retry_after_ms` hint written into `overloaded` refusals —
    /// roughly two batching windows, so a well-behaved client retries
    /// after the congestion it observed has had a chance to drain.
    retry_after_ms: AtomicU64,
}

impl PredictionService {
    /// Wraps a loaded snapshot; `threads == 0` uses all cores.
    pub fn new(snapshot: Snapshot, threads: usize) -> Self {
        PredictionService {
            cell: Arc::new(SnapshotCell::new(snapshot)),
            exec: Executor::new(threads),
            queue: ServiceQueue::new(),
            reload_path: None,
            metrics: Arc::new(ServeMetrics::new()),
            retry_after_ms: AtomicU64::new(2 * crate::concurrent::DEFAULT_WINDOW_MS),
        }
    }

    /// Bounds the request queue: a submit that would make more than
    /// `cap` requests pending is refused with an in-order
    /// `{"error":"overloaded"}` reply instead of being queued (see
    /// `docs/SERVING.md`). Builder form of [`set_queue_cap`](Self::set_queue_cap).
    pub fn with_queue_cap(self, cap: usize) -> Self {
        self.set_queue_cap(Some(cap));
        self
    }

    /// Sets or clears the pending-request bound at runtime.
    pub fn set_queue_cap(&self, cap: Option<usize>) {
        self.queue.set_capacity(cap);
    }

    /// Sets the `retry_after_ms` hint carried by `overloaded` refusals.
    pub fn set_retry_after_hint_ms(&self, ms: u64) {
        self.retry_after_ms.store(ms.max(1), Ordering::Relaxed);
    }

    /// The live metrics registry backing the `{"cmd":"stats"}` admin
    /// request and the `--metrics-port` endpoint.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Closes the request queue for new submissions: everything already
    /// pending stays drainable, later submits get a typed "shutting down"
    /// refusal. Called by the transports once a shutdown sentinel is seen,
    /// so racing clients cannot strand requests behind the final drain.
    pub fn close_queue(&self) {
        self.queue.close();
    }

    /// The one-line JSON reply for a `{"cmd":"stats"}` admin request: a
    /// point-in-time snapshot of the metrics registry plus queue depth.
    pub fn stats_reply_line(&self) -> String {
        self.metrics.snapshot(self.pending()).to_json_line()
    }

    /// Registers the snapshot file the service was loaded from, enabling
    /// the `{"cmd": "reload"}` admin request (and giving
    /// [`ReloadHandle::watch`] its natural argument). Without a path,
    /// reload requests are answered with an error.
    pub fn with_reload_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.reload_path = Some(path.into());
        self
    }

    /// The snapshot file registered with
    /// [`with_reload_path`](Self::with_reload_path), if any.
    pub fn reload_path(&self) -> Option<&std::path::Path> {
        self.reload_path.as_deref()
    }

    /// The currently served (versioned) snapshot.
    pub fn current_snapshot(&self) -> Arc<VersionedSnapshot> {
        self.cell.load()
    }

    /// A cloneable handle for hot-swapping the served snapshot from any
    /// thread (see [`crate::reload`]).
    pub fn reload_handle(&self) -> ReloadHandle {
        ReloadHandle {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Answers one request (the per-task kernel of a batch drain) against
    /// a specific snapshot — the one captured at batch start, so a hot
    /// reload mid-drain never splits a batch across models.
    fn predict_one(
        &self,
        snapshot: &Snapshot,
        req: &ServeRequest,
    ) -> Result<(OptConfig, Vec<u8>, Option<ApplyStats>), String> {
        match &req.input {
            RequestInput::Features(values) => {
                let want = snapshot.meta.feature_dim;
                if values.len() != want {
                    return Err(format!(
                        "feature vector has {} values, model expects {want}",
                        values.len()
                    ));
                }
                let (cfg, choices) = snapshot.compiler.predict_features_choices(values);
                Ok((cfg, choices, None))
            }
            RequestInput::Module(module) => {
                let img3 = compile(module, &OptConfig::o3());
                let prof3 = profile(&img3, module, &[], PROFILE_LIMITS)
                    .map_err(|e| format!("-O3 profiling run failed: {e:?}"))?;
                let t3 = evaluate(&img3, &prof3, &req.uarch);
                let cfg = snapshot
                    .compiler
                    .predict_from_counters(&t3.counters, &req.uarch);
                let stats = if req.apply {
                    let img = compile(module, &cfg);
                    let prof = profile(&img, module, &[], PROFILE_LIMITS)
                        .map_err(|e| format!("predicted binary failed to run: {e:?}"))?;
                    let t = evaluate(&img, &prof, &req.uarch);
                    Some(ApplyStats {
                        o3_cycles: t3.cycles,
                        predicted_cycles: t.cycles,
                        speedup: t3.cycles / t.cycles,
                    })
                } else {
                    None
                };
                Ok((cfg, cfg.to_choices(), stats))
            }
        }
    }

    /// Admission control around every queue submit: the in-flight gauge
    /// is raised **before** the submit (the batcher may drain and
    /// decrement the instant the request is visible; decrements saturate,
    /// so the gauge transiently over-counts rather than wrapping), and a
    /// refusal retracts it again and builds the typed refusal reply.
    /// `id` is the client's request id when the line parsed far enough to
    /// have one, echoed in the refusal so the client can correlate it.
    fn admit_request(&self, id: Option<u64>, queued: QueuedLine) -> LineAction {
        self.metrics.note_admitted();
        match self.queue.submit(queued) {
            Ok(_) => LineAction::Queued,
            Err(e) => {
                self.metrics.note_retracted();
                self.metrics.note_refused();
                let id_field = match id {
                    Some(id) => format!(r#""id":{id},"#),
                    None => String::new(),
                };
                let reply = match e {
                    SubmitError::AtCapacity { .. } => {
                        let hint = self.retry_after_ms.load(Ordering::Relaxed);
                        format!(r#"{{{id_field}"error":"overloaded","retry_after_ms":{hint}}}"#)
                    }
                    SubmitError::Closed => {
                        format!(r#"{{{id_field}"error":"service is shutting down"}}"#)
                    }
                };
                LineAction::Refused { reply }
            }
        }
    }

    /// Parses one request line from connection `conn` and acts on it: the
    /// shutdown sentinel and the reload/stats admin commands are
    /// recognised without enqueueing (one parse — the document tree is
    /// probed for the admin markers and then decoded as a request);
    /// everything else, including unparseable lines, is enqueued so the
    /// reply stream stays in request order — unless the queue refuses it
    /// ([`LineAction::Refused`]), in which case the refusal reply is
    /// written out-of-band instead.
    ///
    /// The canonical request shape — a flat object of `id` / `features` /
    /// `uarch` / `apply` — is decoded by `decode_line_fast` without
    /// building a `Value` tree (the tree's per-node allocations were the
    /// hot path's single largest cost on a single core). Anything the
    /// fast decoder does not accept byte-for-byte falls through to the
    /// tree path below, which remains the semantic definition; the
    /// `fast_decoder_agrees_with_tree_path` differential test pins the
    /// two paths together.
    pub fn classify_and_submit(&self, conn: ConnId, line: &str) -> LineAction {
        if let Some((id, req)) = decode_line_fast(line) {
            return self.admit_request(
                id,
                QueuedLine {
                    conn,
                    id,
                    parsed: Ok(req),
                },
            );
        }
        match serde_json::from_str::<Value>(line) {
            Ok(doc) => {
                // One scan of the (small) top-level object for the admin
                // markers and the request id; avoids `Value::field`'s
                // error allocation on the common miss path.
                let mut req_id = None;
                let mut admin_cmd: Option<&str> = None;
                if let Some(fields) = doc.as_object() {
                    for (k, v) in fields {
                        if k == "shutdown" && matches!(v, Value::Bool(true)) {
                            return LineAction::Shutdown;
                        }
                        if k == "id" {
                            req_id = u64::from_value(v).ok();
                        }
                        if k == "cmd" {
                            if let Value::Str(cmd) = v {
                                admin_cmd = Some(cmd.as_str());
                            }
                        }
                    }
                }
                match admin_cmd {
                    Some("reload") => {
                        return LineAction::Reload(self.reload_from_configured_path())
                    }
                    Some("stats") => return LineAction::Stats(self.stats_reply_line()),
                    Some(cmd) => {
                        return self.admit_request(
                            req_id,
                            QueuedLine {
                                conn,
                                id: req_id,
                                parsed: Err(format!("unknown admin command `{cmd}`")),
                            },
                        )
                    }
                    None => {}
                }
                self.admit_request(
                    req_id,
                    QueuedLine {
                        conn,
                        id: req_id,
                        parsed: ServeRequest::from_value(&doc).map_err(|e| e.to_string()),
                    },
                )
            }
            Err(e) => self.admit_request(
                None,
                QueuedLine {
                    conn,
                    id: None,
                    parsed: Err(e.to_string()),
                },
            ),
        }
    }

    /// Executes the `{"cmd": "reload"}` admin request against the path
    /// registered with [`with_reload_path`](Self::with_reload_path).
    fn reload_from_configured_path(&self) -> Result<u64, String> {
        match &self.reload_path {
            Some(path) => self
                .reload_handle()
                .reload_from(path)
                .map_err(|e| e.to_string()),
            None => Err("service has no snapshot path to reload from \
                         (start `serve` with --snapshot <file>)"
                .to_string()),
        }
    }

    /// Parses one request line and enqueues it for [`LOCAL_CONN`].
    /// Returns `true` for the `{"shutdown": true}` sentinel, which is not
    /// enqueued. (A `{"cmd": "reload"}` / `{"cmd": "stats"}` line is
    /// executed and not enqueued, and a bounded queue may refuse the
    /// line; use [`classify_and_submit`](Self::classify_and_submit) to
    /// observe those outcomes.)
    pub fn submit_line(&self, line: &str) -> bool {
        matches!(
            self.classify_and_submit(LOCAL_CONN, line),
            LineAction::Shutdown
        )
    }

    /// Parses one request line from connection `conn` and enqueues it
    /// (the multi-connection variant of [`submit_line`](Self::submit_line),
    /// used by the concurrent TCP front end).
    pub fn submit_line_for(&self, conn: ConnId, line: &str) -> LineAction {
        self.classify_and_submit(conn, line)
    }

    /// Number of requests waiting for the next batch drain.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Blocks until a request is pending or `timeout` elapses; returns
    /// whether anything is pending (the batching window's idle wait).
    pub fn wait_pending(&self, timeout: std::time::Duration) -> bool {
        self.queue.wait_nonempty(timeout)
    }

    /// Throws away pending requests whose connection `dead` says is gone,
    /// unanswered and without spending executor time on them; returns how
    /// many were dropped. Their replies must not leak into live clients'
    /// streams, and their compute would be wasted.
    pub fn discard_dead(&self, dead: impl Fn(ConnId) -> bool) -> usize {
        let n = self.queue.discard_if(|q| dead(q.conn));
        if n > 0 {
            self.metrics.note_discarded(n as u64);
        }
        n
    }

    /// Drains everything pending through the executor; returns replies in
    /// submission order, each tagged with the connection that sent the
    /// request, and folds timings into `stats`. The snapshot is captured
    /// **once** at batch start: every reply of the batch carries the same
    /// `snapshot_version`, and a concurrent hot reload only affects
    /// subsequent batches.
    pub fn drain_routed(&self, stats: &mut ServiceStats) -> Vec<(ConnId, ServeResponse)> {
        let versioned = self.cell.load();
        let batch_started = Instant::now();
        // The per-batch serve span. `ServeMetrics` is fed from the same
        // measurements below (it consumes what the trace layer times),
        // and the span close carries the batch size for the trace bin.
        let sp = portopt_trace::span(
            "serve",
            "drain_batch",
            &[("snapshot_version", versioned.version.into())],
        );
        // Per-query spans attribute each prediction's compute to the
        // worker that ran it. They only exist when a trace consumer is
        // listening (file sink, or stderr at `trace`) — the batch span's
        // compute/fan-out split below is always on, so the unsinked hot
        // path pays nothing per query.
        let trace_queries =
            portopt_trace::sink_on() || portopt_trace::stderr_wants(portopt_trace::Level::Trace);
        let answered = self.queue.drain_with(&self.exec, |queued| {
            let qsp = trace_queries.then(|| {
                portopt_trace::span("serve", "predict_query", &[("conn", queued.conn.into())])
            });
            let started = Instant::now();
            // The client id must survive the error path too: a reply the
            // client cannot correlate is as bad as no reply.
            let (id, outcome) = match &queued.parsed {
                Ok(req) => (req.id, self.predict_one(&versioned.snapshot, req)),
                Err(e) => (queued.id, Err(format!("bad request: {e}"))),
            };
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            if let Some(qsp) = qsp {
                qsp.close_with(&[
                    ("id", id.unwrap_or(0).into()),
                    ("error", u64::from(outcome.is_err()).into()),
                ]);
            }
            (queued.conn, id, outcome, latency_ms)
        });
        if answered.is_empty() {
            sp.close_with(&[("requests", 0u64.into())]);
            return Vec::new();
        }
        let batch_secs = batch_started.elapsed().as_secs_f64();
        stats.batches += 1;
        stats.max_batch = stats.max_batch.max(answered.len());
        stats.busy_secs += batch_secs;
        self.metrics.record_batch(answered.len(), versioned.version);
        let successes = answered
            .iter()
            .filter(|(_, (_, _, outcome, _))| outcome.is_ok())
            .count() as u64;
        if successes > 0 {
            self.metrics
                .record_predictions(versioned.snapshot.compiler.model().kind(), successes);
        }
        // compute = sum of per-request kernel time; fan-out = everything
        // else the batch wall clock bought (queue handoff, executor
        // scheduling, reply assembly) — the split the trace bin reads to
        // tell "the model is slow" from "the batching is slow".
        let compute_ms: f64 = answered.iter().map(|(_, (_, _, _, ms))| ms).sum();
        let fanout_us = ((batch_secs * 1e3 - compute_ms).max(0.0) * 1e3) as u64;
        sp.close_with(&[
            ("requests", answered.len().into()),
            ("compute_us", ((compute_ms * 1e3) as u64).into()),
            ("fanout_us", fanout_us.into()),
        ]);
        answered
            .into_iter()
            .map(|(ticket, (conn, id, outcome, latency_ms))| {
                stats.requests += 1;
                stats.total_latency_ms += latency_ms;
                stats.max_latency_ms = stats.max_latency_ms.max(latency_ms);
                self.metrics
                    .record_request(latency_ms, outcome.as_ref().err().map(|_| ()));
                let id = id.unwrap_or(ticket);
                let response = match outcome {
                    Ok((cfg, choices, apply)) => ServeResponse {
                        id,
                        choices,
                        config: Some(cfg),
                        latency_ms,
                        stats: apply,
                        error: None,
                        snapshot_version: versioned.version,
                    },
                    Err(e) => {
                        stats.errors += 1;
                        ServeResponse {
                            id,
                            config: None,
                            choices: Vec::new(),
                            latency_ms,
                            stats: None,
                            error: Some(e),
                            snapshot_version: versioned.version,
                        }
                    }
                };
                (conn, response)
            })
            .collect()
    }

    /// Drains everything pending through the executor; returns replies in
    /// submission order and folds timings into `stats` (the
    /// single-stream view of [`drain_routed`](Self::drain_routed)).
    pub fn drain(&self, stats: &mut ServiceStats) -> Vec<ServeResponse> {
        self.drain_routed(stats)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Writes replies as JSON lines.
    fn write_replies(
        &self,
        replies: &[ServeResponse],
        writer: &mut impl Write,
    ) -> std::io::Result<()> {
        for r in replies {
            let line = serde_json::to_string(r)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(writer, "{line}")?;
        }
        writer.flush()
    }

    /// Serves a line stream until EOF or a `{"shutdown": true}` line:
    /// requests accumulate until `batch` are pending (or input ends) and
    /// drain as one executor pass. A `{"cmd": "reload"}` line is executed
    /// immediately and acknowledged with an out-of-band admin reply (see
    /// `docs/SERVING.md`). Returns `true` when stopped by a shutdown
    /// request rather than EOF.
    pub fn run_lines(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
        batch: usize,
        stats: &mut ServiceStats,
    ) -> std::io::Result<bool> {
        let batch = batch.max(1);
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match self.classify_and_submit(LOCAL_CONN, &line) {
                LineAction::Shutdown => {
                    // Close before the final drain: pending requests are
                    // still answered, later submits get a typed refusal.
                    self.close_queue();
                    let replies = self.drain(stats);
                    self.write_replies(&replies, &mut writer)?;
                    return Ok(true);
                }
                LineAction::Reload(outcome) => {
                    writeln!(writer, "{}", admin_reload_reply(&outcome))?;
                    writer.flush()?;
                }
                LineAction::Stats(reply) => {
                    writeln!(writer, "{reply}")?;
                    writer.flush()?;
                }
                LineAction::Refused { reply } => {
                    stats.refused += 1;
                    writeln!(writer, "{reply}")?;
                    writer.flush()?;
                }
                LineAction::Queued => {
                    if self.pending() >= batch {
                        let replies = self.drain(stats);
                        self.write_replies(&replies, &mut writer)?;
                    }
                }
            }
        }
        let replies = self.drain(stats);
        self.write_replies(&replies, &mut writer)?;
        Ok(false)
    }
}

/// The out-of-band acknowledgement line for a `{"cmd": "reload"}` request.
pub(crate) fn admin_reload_reply(outcome: &Result<u64, String>) -> String {
    match outcome {
        Ok(version) => format!(r#"{{"cmd":"reload","ok":true,"snapshot_version":{version}}}"#),
        Err(e) => {
            let msg = serde_json::to_string(e).unwrap_or_else(|_| "\"reload failed\"".into());
            format!(r#"{{"cmd":"reload","ok":false,"error":{msg}}}"#)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The differential contract behind `decode_line_fast`: on every line
    /// it accepts, its result must equal what the tree path
    /// (`serde_json::parse` + `ServeRequest::from_value` + the admission
    /// scan for `id`) would have produced; lines it refuses are the tree
    /// path's business by construction. The corpus covers the canonical
    /// shape, every reorder/whitespace/optional-field variant the fast
    /// path should accept, and each bail-out class (admin markers,
    /// duplicate and unknown keys, escapes, non-finite and malformed
    /// values, `module` requests, garbage).
    #[test]
    fn fast_decoder_agrees_with_tree_path() {
        let canonical = r#"{"id":7,"features":[0.5,1.25,-3.0,1e-6,123456789.25],"uarch":"xscale"}"#;
        let corpus: Vec<String> = vec![
            canonical.to_string(),
            // Reordered, whitespace, optional fields present/absent.
            r#"{"features":[1.0,2.0],"uarch":"xscale","id":3,"apply":true}"#.to_string(),
            r#"{ "id" : 0 , "features" : [ 0.1 ] , "uarch" : "xscale" , "apply" : false }"#
                .to_string(),
            r#"{"features":[],"uarch":"xscale"}"#.to_string(),
            r#"{"id":18446744073709551615,"features":[2.5],"uarch":"xscale"}"#.to_string(),
            // The full uarch object, in printed field order (fast-path
            // hit) and reordered (tree-path bail, same result).
            concat!(
                r#"{"id":1,"features":[0.5],"uarch":{"il1_size":32768,"il1_assoc":32,"#,
                r#""il1_block":32,"dl1_size":32768,"dl1_assoc":32,"dl1_block":32,"#,
                r#""btb_entries":512,"btb_assoc":1,"freq_mhz":400,"width":1}}"#
            )
            .to_string(),
            concat!(
                r#"{"id":1,"features":[0.5],"uarch":{"width":1,"il1_size":32768,"il1_assoc":32,"#,
                r#""il1_block":32,"dl1_size":32768,"dl1_assoc":32,"dl1_block":32,"#,
                r#""btb_entries":512,"btb_assoc":1,"freq_mhz":400}}"#
            )
            .to_string(),
            // Bail-outs the tree path must own: admin markers...
            r#"{"shutdown":true}"#.to_string(),
            r#"{"cmd":"stats"}"#.to_string(),
            r#"{"cmd":"reload"}"#.to_string(),
            // ...error shapes...
            r#"{"id":9,"features":[0.5,null,0.25],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":[1e999],"uarch":"xscale"}"#.to_string(),
            r#"{"id":-1,"features":[1.0],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":[1.0],"uarch":"arm11"}"#.to_string(),
            r#"{"id":9,"uarch":"xscale"}"#.to_string(),
            r#"{"features":[1.0]}"#.to_string(),
            r#"{"id":9,"id":10,"features":[1.0],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":[1.0],"uarch":"xscale","extra":1}"#.to_string(),
            r#"{"id":5.0,"features":[1.0],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":[1.0],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":["a"],"uarch":"xscale"}"#.to_string(),
            r#"{"id":9,"features":[1.0],"uarch":"xscale"} trailing"#.to_string(),
            r#"not json at all"#.to_string(),
            r#"[1,2,3]"#.to_string(),
            r#"{}"#.to_string(),
            String::new(),
        ];

        let mut fast_hits = 0usize;
        for line in &corpus {
            let fast = decode_line_fast(line);
            let tree: Result<ServeRequest, _> =
                serde_json::parse(line).and_then(|doc| ServeRequest::from_value(&doc));
            if let Some((id, req)) = fast {
                fast_hits += 1;
                let tree_req = tree.unwrap_or_else(|e| {
                    panic!("fast path accepted `{line}` but tree path errors: {e}")
                });
                assert_eq!(req, tree_req, "request mismatch on `{line}`");
                assert_eq!(id, tree_req.id, "id mismatch on `{line}`");
            }
        }
        // Coverage guard: the canonical shape and its accepted variants
        // must HIT the fast path — if an edit silently stops it matching,
        // the serving hot path quietly regresses to the tree path.
        assert!(
            fast_hits >= 5,
            "fast decoder hit only {fast_hits} corpus lines; expected the 5 canonical variants"
        );
        assert!(
            decode_line_fast(canonical).is_some(),
            "fast decoder must accept the canonical request shape"
        );

        // And the wire shape our own client emits must hit it too.
        let req = ServeRequest {
            id: Some(42),
            input: RequestInput::Features(vec![0.123456789012345, 7.0, -2.5e-4]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        let line = serde_json::to_string(&req).unwrap();
        let (id, decoded) = decode_line_fast(&line)
            .unwrap_or_else(|| panic!("fast decoder must accept our own wire format: {line}"));
        assert_eq!(id, Some(42));
        assert_eq!(decoded, req);
    }
}
