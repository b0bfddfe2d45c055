//! What the two serving workloads share: the set-up (sweep a seeded
//! split of a fixed training pool, train a kNN snapshot per fold,
//! round-trip it through `Snapshot::save`/`load`) and a
//! `PredictionService::run_concurrent` server on a loopback port.

use crate::common::{self, Stream};
use crate::stats;
use crate::tracer::Tracer;
use portopt_core::{GenOptions, SweepScale, TrainOptions};
use portopt_mibench::Program;
use portopt_ml::ModelKind;
use portopt_serve::{PredictionService, ServeOptions, ServiceStats, Snapshot};
use portopt_uarch::MicroArchSpace;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Programs per category in the training pool.
const POOL_PER_CATEGORY: usize = 2;
/// Settings sampled per training program.
const TRAIN_SETTINGS: usize = 4;
/// Seeds the training sweeps' setting sample. It is the same for every
/// workload seed, so every seed's set-up compiles and profiles the same
/// binaries.
const TRAIN_SETTINGS_SEED: u64 = 0x5e7;
/// μarchs sampled for the training sweep.
const TRAIN_UARCHS: usize = 6;
/// Set-up repetitions (the reported set-up time is their median).
const SETUP_REPS: usize = 3;

/// One trained snapshot and the suite programs it was trained on.
pub struct Fold {
    pub train: Vec<usize>,
    /// The snapshot as loaded back from disk.
    pub snapshot: Snapshot,
    pub path: PathBuf,
}

/// The served models and what setting them up cost.
pub struct Served {
    pub progs: Vec<Program>,
    /// Disjoint folds of the training pool.
    pub folds: Vec<Fold>,
    /// Median set-up wall time.
    pub setup_s: f64,
    /// `(program, setting)` pairs per second of the training sweeps.
    pub pairs_per_s: f64,
    /// Median `Snapshot::load` time.
    pub load_s: f64,
}

impl Served {
    /// The fold whose snapshot never saw program `p` in training.
    pub fn fold_for(&self, p: usize) -> usize {
        (0..self.folds.len())
            .find(|&f| !self.folds[f].train.contains(&p))
            .expect("the training folds are disjoint")
    }

    /// Suite programs the first fold's snapshot was not trained on.
    pub fn held_out(&self) -> Vec<usize> {
        (0..self.progs.len())
            .filter(|p| !self.folds[0].train.contains(p))
            .collect()
    }

    pub fn remove_files(&self) {
        for f in &self.folds {
            let _ = std::fs::remove_file(&f.path);
        }
    }
}

/// Sets the service up [`SETUP_REPS`] times: build the suite, split the
/// training pool (two programs per category, the same for every seed)
/// into `folds` seeded folds, and for each fold sweep it over fixed
/// settings and seeded μarchs, train a kNN snapshot, save and load it.
/// Every seed profiles the same binaries; the seed varies the split and
/// the μarchs. Spans are recorded for the first repetition only.
pub fn set_up(seed: u64, workload: &str, folds: usize, tr: &Tracer) -> Served {
    std::fs::create_dir_all(common::out_dir()).expect("create the output directory");
    let (mut setup_s, mut load_s, mut pairs_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        let quiet = Tracer::new(false);
        let tr = if rep == 0 { tr } else { &quiet };
        let t = Instant::now();
        let progs = common::programs();
        let splits = common::training_folds(&progs, POOL_PER_CATEGORY, folds, seed);
        let mut trained = Vec::with_capacity(folds);
        for (f, train) in splits.into_iter().enumerate() {
            let opts = GenOptions {
                scale: SweepScale {
                    n_uarch: TRAIN_UARCHS,
                    n_opts: TRAIN_SETTINGS,
                },
                seed: TRAIN_SETTINGS_SEED,
                extended_space: false,
                threads: common::threads(),
            };
            let uarchs = MicroArchSpace::base().sample_n(
                TRAIN_UARCHS,
                &mut common::rng(seed, Stream::Uarchs, 100 + f as u64),
            );
            let (ds, report) =
                portopt_core::generate_with_uarchs(&common::named(&progs, &train), &uarchs, &opts);
            pairs_per_s.push(report.settings_per_sec);
            let (snap, _) = tr.time("Snapshot::try_train_kind", None, None, || {
                Snapshot::try_train_kind(&ds, ModelKind::Knn, &TrainOptions::default())
                    .expect("the training sweep has usable pairs")
            });
            let path = common::out_dir().join(format!("{workload}-{seed}-{f}.snap"));
            tr.time("Snapshot::save", None, None, || snap.save(&path))
                .0
                .expect("write the snapshot");
            let (loaded, s) = tr.time("Snapshot::load", None, None, || Snapshot::load(&path));
            load_s.push(s);
            trained.push(Fold {
                train,
                snapshot: loaded.expect("the snapshot just written loads"),
                path,
            });
        }
        setup_s.push(t.elapsed().as_secs_f64());
        first.get_or_insert(Served {
            progs,
            folds: trained,
            setup_s: 0.0,
            pairs_per_s: 0.0,
            load_s: 0.0,
        });
    }
    let mut served = first.expect("set up at least once");
    served.setup_s = stats::median(&setup_s);
    served.load_s = stats::median(&load_s);
    served.pairs_per_s = stats::median(&pairs_per_s);
    served
}

/// A seeded order over `n` items, `cycles` times, each cycle its own
/// permutation.
pub fn request_order(n: usize, cycles: usize, seed: u64) -> Vec<usize> {
    (0..cycles)
        .flat_map(|c| common::permutation(n, &mut common::rng(seed, Stream::Order, c as u64)))
        .collect()
}

/// A running `run_concurrent` server on `127.0.0.1`.
pub struct Server {
    pub addr: SocketAddr,
    pub service: Arc<PredictionService>,
    thread: std::thread::JoinHandle<std::io::Result<ServiceStats>>,
}

impl Server {
    /// Serves `fold`'s snapshot with the service's default options (5 ms
    /// batching window, batches of 64, unbounded queue).
    pub fn start(fold: &Fold) -> Server {
        let service = Arc::new(
            PredictionService::new(fold.snapshot.clone(), common::threads())
                .with_reload_path(&fold.path),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let svc = Arc::clone(&service);
        let thread =
            std::thread::spawn(move || svc.run_concurrent(listener, &ServeOptions::default()));
        Server {
            addr,
            service,
            thread,
        }
    }

    /// Sends the shutdown sentinel and waits for the server to exit.
    pub fn stop(self) -> ServiceStats {
        let mut s = TcpStream::connect(self.addr).expect("connect for shutdown");
        s.write_all(b"{\"shutdown\": true}\n")
            .expect("send the shutdown sentinel");
        drop(s);
        self.thread
            .join()
            .expect("server thread")
            .expect("server exits cleanly")
    }
}

/// One client connection with a line reader on its read half.
pub fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let s = TcpStream::connect(addr).expect("connect to the server");
    s.set_nodelay(true).expect("set TCP_NODELAY");
    let r = BufReader::new(s.try_clone().expect("clone the stream"));
    (s, r)
}

/// Reads one reply line (without its newline); `None` at EOF or on a
/// read error.
pub fn read_line(r: &mut BufReader<TcpStream>, buf: &mut String) -> Option<()> {
    buf.clear();
    match r.read_line(buf) {
        Ok(0) | Err(_) => None,
        Ok(_) => {
            while buf.ends_with('\n') || buf.ends_with('\r') {
                buf.pop();
            }
            Some(())
        }
    }
}

/// The fields of a reply line the checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub id: Option<u64>,
    pub choices: Vec<u8>,
    pub latency_ms: f64,
    pub error: Option<String>,
    /// `stats.speedup` of an `apply` reply.
    pub speedup: Option<f64>,
}

/// Parses a request reply (an answer, an error reply or a refusal).
pub fn parse_reply(line: &str) -> Option<Reply> {
    use serde::Value;
    let doc = serde_json::parse(line).ok()?;
    let num = |v: &Value| match v {
        Value::F64(x) => Some(*x),
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        _ => None,
    };
    let id = match doc.field("id") {
        Ok(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        Ok(Value::U64(n)) => Some(*n),
        _ => None,
    };
    let choices = match doc.field("choices") {
        Ok(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::I64(n) => u8::try_from(*n).ok(),
                _ => None,
            })
            .collect::<Option<Vec<u8>>>()?,
        _ => Vec::new(),
    };
    let error = match doc.field("error") {
        Ok(Value::Str(e)) => Some(e.clone()),
        _ => None,
    };
    let speedup = doc
        .field("stats")
        .ok()
        .and_then(|s| s.field("speedup").ok())
        .and_then(num);
    Some(Reply {
        id,
        choices,
        latency_ms: doc.field("latency_ms").ok().and_then(num).unwrap_or(0.0),
        error,
        speedup,
    })
}

/// Whether a reply answers request `id` with the expected choices (and,
/// for an `apply` request, the expected speedup, bit for bit).
pub fn reply_ok(reply: &Reply, id: u64, choices: &[u8], speedup: Option<f64>) -> bool {
    reply.id == Some(id)
        && reply.error.is_none()
        && reply.choices == choices
        && reply.speedup.map(f64::to_bits) == speedup.map(f64::to_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_and_a_flipped_choice_fails_the_check() {
        let line = r#"{"id":7,"config":null,"choices":[1,0,2],"latency_ms":0.25,"stats":{"o3_cycles":10.0,"predicted_cycles":8.0,"speedup":1.25},"error":null,"snapshot_version":1}"#;
        let r = parse_reply(line).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.latency_ms, 0.25);
        assert!(reply_ok(&r, 7, &[1, 0, 2], Some(1.25)));
        assert!(!reply_ok(&r, 7, &[1, 1, 2], Some(1.25)), "flipped choice");
        assert!(!reply_ok(&r, 8, &[1, 0, 2], Some(1.25)), "wrong id");
        assert!(
            !reply_ok(&r, 7, &[1, 0, 2], Some(1.2500000000000002)),
            "speedup bits"
        );
        let refused = parse_reply(r#"{"id":9,"error":"overloaded","retry_after_ms":10}"#).unwrap();
        assert!(!reply_ok(&refused, 9, &[], None));
    }

    #[test]
    fn request_orders_are_seeded_permutations() {
        let o = request_order(5, 3, 42);
        assert_eq!(o, request_order(5, 3, 42));
        assert_eq!(o.len(), 15);
        for c in o.chunks(5) {
            let mut s = c.to_vec();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2, 3, 4]);
        }
    }
}
