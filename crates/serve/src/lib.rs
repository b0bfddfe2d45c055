//! # portopt-serve
//!
//! The deployment half the paper promises (§3.4, Figure 2): train once
//! off-line, then answer "which optimisation setting for *this* program on
//! *this* microarchitecture?" in milliseconds, for traffic, without ever
//! touching the training sweep again.
//!
//! Four pieces:
//!
//! * [`Snapshot`] — a versioned on-disk artifact holding a trained
//!   [`portopt_core::PortableCompiler`] plus the metadata needed to refuse
//!   incompatible files loudly (format version, feature dimensionality,
//!   the exact optimisation pass space).
//! * [`PredictionService`] — a batched JSON-lines request/response server
//!   over the [`portopt_exec`] executor: stdin/stdout for piping and
//!   tests, `std::net::TcpListener` for sockets. Requests carry either a
//!   precomputed feature vector or a raw `portopt-ir` module (the service
//!   then runs the one `-O3` profiling pass itself).
//! * [`concurrent`] — the multi-client TCP front end: a bounded accept
//!   loop ([`ConnectionRegistry`]), a cross-connection batching window
//!   ([`ServeOptions`]), and per-connection reply routing.
//! * [`reload`] — hot snapshot reload: an atomically swappable versioned
//!   model slot ([`ReloadHandle`]), driven by the `{"cmd": "reload"}`
//!   admin request or a file watcher (`--watch-snapshot`).
//!
//! The complete wire protocol — request/reply fields, batching and
//! ordering guarantees, reload semantics — is specified in
//! `docs/SERVING.md`. The `snapshot` and `serve` binaries in
//! `portopt-bench` wrap these:
//!
//! ```text
//! cargo run --release -p portopt-bench --bin snapshot -- --scale smoke --out model.snap
//! echo '{"module": {...}, "uarch": "xscale"}' \
//!   | cargo run --release -p portopt-bench --bin serve -- --snapshot model.snap --stdio
//! cargo run --release -p portopt-bench --bin serve -- --snapshot model.snap \
//!   --port 7209 --max-conns 128 --batch-window-ms 5 --watch-snapshot
//! ```

#![warn(missing_docs)]

pub mod concurrent;
pub mod metrics;
pub mod reload;
pub mod service;
pub mod snapshot;
// Fault-injection adapters for tests: built only for this crate's own
// unit tests or with the `testkit` feature, which its integration tests
// enable through a dev-dependency on the crate itself.
#[cfg(any(test, feature = "testkit"))]
pub mod testkit;

pub use concurrent::{
    ConnectionRegistry, ServeOptions, DEFAULT_MAX_CONNS, DEFAULT_WATCH_INTERVAL_MS,
    DEFAULT_WINDOW_MS,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use portopt_ml::ModelKind;
pub use reload::{ReloadHandle, VersionedSnapshot, WatchEvent};
pub use service::{
    ApplyStats, ConnId, LineAction, PredictionService, RequestInput, ServeRequest, ServeResponse,
    ServiceStats, DEFAULT_BATCH, LOCAL_CONN,
};
pub use snapshot::{
    current_pass_space, Snapshot, SnapshotError, SnapshotMeta, FORMAT_VERSION, SNAPSHOT_MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_core::{Dataset, GenOptions, Sweep, SweepScale, TrainOptions};
    use portopt_ir::{FuncBuilder, Module, ModuleBuilder};
    use portopt_passes::OptSpace;
    use portopt_uarch::MicroArch;
    use std::io::Cursor;

    /// Serves `listener` with default options apart from the batch size.
    fn serve_tcp(
        service: &PredictionService,
        listener: std::net::TcpListener,
        batch: usize,
    ) -> ServiceStats {
        let opts = ServeOptions {
            batch,
            ..Default::default()
        };
        service.run_concurrent(listener, &opts).unwrap()
    }

    fn program(name: &str, mem_heavy: bool) -> (String, Module) {
        let mut mb = ModuleBuilder::new(name);
        let (_, base) = mb.global("buf", 1024);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, 300, 1, |b, i| {
            if mem_heavy {
                let off0 = b.mul(i, 13);
                let off = b.and(off0, 1023);
                let sh = b.shl(off, 2);
                let a = b.add(p, sh);
                let v = b.load(a, 0);
                let w = b.add(v, i);
                b.store(w, a, 0);
                let t = b.add(acc, w);
                b.assign(acc, t);
            } else {
                let sq = b.mul(i, i);
                let x = b.xor(acc, sq);
                b.assign(acc, x);
            }
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        (name.to_string(), mb.finish())
    }

    fn tiny_dataset() -> Dataset {
        Sweep::new(GenOptions {
            scale: SweepScale {
                n_uarch: 4,
                n_opts: 16,
            },
            seed: 7,
            extended_space: false,
            threads: 2,
        })
        .run(&[
            program("mem1", true),
            program("alu1", false),
            program("mem2", true),
        ])
        .0
    }

    fn tiny_snapshot() -> Snapshot {
        Snapshot::train(&tiny_dataset(), &TrainOptions::default())
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let snap = tiny_snapshot();
        let dir = std::env::temp_dir().join("portopt-serve-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        snap.save(&path).unwrap();
        let back = Snapshot::load(&path).unwrap();
        assert_eq!(back.meta, snap.meta);
        assert_eq!(back.compiler.knn().unwrap(), snap.compiler.knn().unwrap());
        assert_eq!(back.to_bytes().unwrap(), snap.to_bytes().unwrap());
        let ds = tiny_dataset();
        let x = &ds.features[0][0];
        assert_eq!(back.compiler.predict(x), snap.compiler.predict(x));
    }

    #[test]
    fn snapshot_meta_describes_the_model() {
        let snap = tiny_snapshot();
        assert_eq!(snap.meta.magic, SNAPSHOT_MAGIC);
        assert_eq!(snap.meta.format_version, FORMAT_VERSION);
        assert_eq!(snap.meta.feature_dim, portopt_uarch::N_FEATURES);
        assert_eq!(snap.meta.pass_space.len(), OptSpace::n_dims());
        assert_eq!(snap.meta.programs, 3);
        assert_eq!(snap.meta.uarchs, 4);
        assert_eq!(snap.meta.settings, 16);
    }

    #[test]
    fn corrupted_and_mismatched_snapshots_are_rejected() {
        let snap = tiny_snapshot();
        // Truncated file: corrupt.
        let bytes = snap.to_bytes().unwrap();
        let err = Snapshot::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        // Not JSON at all.
        assert!(matches!(
            Snapshot::from_bytes(b"\x00\x01binary junk").unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Some other JSON document.
        assert!(matches!(
            Snapshot::from_bytes(b"{\"hello\": 1}").unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        // Wrong magic.
        let mut other = snap.clone();
        other.meta.magic = "something-else".into();
        match Snapshot::from_bytes(&other.to_bytes().unwrap()).unwrap_err() {
            SnapshotError::NotASnapshot { found } => assert_eq!(found, "something-else"),
            e => panic!("expected NotASnapshot, got {e}"),
        }
        // Future format version.
        let mut newer = snap.clone();
        newer.meta.format_version = FORMAT_VERSION + 1;
        match Snapshot::from_bytes(&newer.to_bytes().unwrap()).unwrap_err() {
            SnapshotError::VersionMismatch { found, supported } => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            e => panic!("expected VersionMismatch, got {e}"),
        }
        // A pass space with one dimension renamed.
        let mut wrong_space = snap.clone();
        wrong_space.meta.pass_space[0].0 = "fsome_new_pass".into();
        let err = Snapshot::from_bytes(&wrong_space.to_bytes().unwrap()).unwrap_err();
        match &err {
            SnapshotError::PassSpaceMismatch { detail } => {
                assert!(detail.contains("fsome_new_pass"), "{detail}")
            }
            e => panic!("expected PassSpaceMismatch, got {e}"),
        }
        // A pass space with a different shape.
        let mut short_space = snap.clone();
        short_space.meta.pass_space.pop();
        assert!(matches!(
            Snapshot::from_bytes(&short_space.to_bytes().unwrap()).unwrap_err(),
            SnapshotError::PassSpaceMismatch { .. }
        ));
        // Wrong feature dimensionality.
        let mut wrong_dim = snap.clone();
        wrong_dim.meta.feature_dim = 7;
        match Snapshot::from_bytes(&wrong_dim.to_bytes().unwrap()).unwrap_err() {
            SnapshotError::FeatureDimMismatch { found, expected } => {
                assert_eq!(found, 7);
                assert_eq!(expected, portopt_uarch::N_FEATURES);
            }
            e => panic!("expected FeatureDimMismatch, got {e}"),
        }
        // Missing file.
        assert!(matches!(
            Snapshot::load("/nonexistent/portopt.snap").unwrap_err(),
            SnapshotError::Io(_)
        ));
    }

    #[test]
    fn service_answers_feature_requests_in_order() {
        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let service = PredictionService::new(snap, 2);
        let mut input = String::new();
        for (i, u) in [(0usize, 0usize), (1, 1), (2, 2), (0, 3)] {
            let req = ServeRequest {
                id: Some(100 + input.lines().count() as u64),
                input: RequestInput::Features(ds.features[i][u].values.clone()),
                uarch: ds.uarchs[u],
                apply: false,
            };
            input.push_str(&serde_json::to_string(&req).unwrap());
            input.push('\n');
        }
        let mut out = Vec::new();
        let mut stats = ServiceStats::default();
        let shutdown = service
            .run_lines(Cursor::new(input), &mut out, 2, &mut stats)
            .unwrap();
        assert!(!shutdown, "EOF, not shutdown");
        let replies: Vec<ServeResponse> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 4);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.id, 100 + i as u64, "in-order echo of client ids");
            assert!(r.error.is_none(), "{:?}", r.error);
            assert_eq!(r.choices.len(), OptSpace::n_dims());
            let cfg = r.config.expect("config present");
            assert_eq!(cfg.to_choices(), r.choices);
            assert!(r.latency_ms >= 0.0);
        }
        // The drain really batched: 4 requests at batch=2 → 2 batches.
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch, 2);
        assert!(stats.predictions_per_sec() > 0.0);
    }

    #[test]
    fn service_handles_module_requests_and_applies() {
        let snap = tiny_snapshot();
        let service = PredictionService::new(snap, 2);
        let (_, module) = program("fresh", true);
        let req = ServeRequest {
            id: None,
            input: RequestInput::Module(Box::new(module)),
            uarch: MicroArch::xscale(),
            apply: true,
        };
        let line = serde_json::to_string(&req).unwrap();
        let mut out = Vec::new();
        let mut stats = ServiceStats::default();
        service
            .run_lines(Cursor::new(line), &mut out, 8, &mut stats)
            .unwrap();
        let reply: ServeResponse =
            serde_json::from_str(String::from_utf8(out).unwrap().lines().next().unwrap()).unwrap();
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert!(reply.config.is_some());
        let apply = reply.stats.expect("apply stats");
        assert!(apply.o3_cycles > 0.0);
        assert!(apply.predicted_cycles > 0.0);
        assert!(
            apply.speedup > 0.3,
            "predicted config catastrophic: {apply:?}"
        );
    }

    #[test]
    fn bad_requests_get_error_replies_not_disconnects() {
        let snap = tiny_snapshot();
        let n_features = snap.meta.feature_dim;
        let service = PredictionService::new(snap, 1);
        let good = ServeRequest {
            id: Some(9),
            input: RequestInput::Features(vec![0.5; n_features]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        let input = format!(
            "not json at all\n\
             {{\"id\": 77, \"features\": [1.0, 2.0], \"uarch\": \"xscale\"}}\n\
             {{\"features\": [1.0], \"uarch\": \"warp-core\"}}\n\
             {{\"uarch\": \"xscale\"}}\n\
             {}\n",
            serde_json::to_string(&good).unwrap()
        );
        let mut out = Vec::new();
        let mut stats = ServiceStats::default();
        service
            .run_lines(Cursor::new(input), &mut out, 64, &mut stats)
            .unwrap();
        let replies: Vec<ServeResponse> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 5);
        assert!(replies[0].error.as_deref().unwrap().contains("bad request"));
        assert_eq!(replies[0].id, 0, "unparseable line falls back to ticket");
        assert!(replies[1]
            .error
            .as_deref()
            .unwrap()
            .contains("model expects"));
        assert_eq!(replies[1].id, 77, "error replies echo the client id");
        assert!(replies[2].error.as_deref().unwrap().contains("warp-core"));
        assert!(replies[3].error.as_deref().unwrap().contains("features"));
        assert!(replies[4].error.is_none());
        assert_eq!(replies[4].id, 9);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.errors, 4);
    }

    #[test]
    fn shutdown_request_flushes_and_stops() {
        let snap = tiny_snapshot();
        let n = snap.meta.feature_dim;
        let service = PredictionService::new(snap, 1);
        let req = ServeRequest {
            id: Some(1),
            input: RequestInput::Features(vec![1.0; n]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        let input = format!(
            "{}\n{{\"shutdown\": true}}\n{}\n",
            serde_json::to_string(&req).unwrap(),
            serde_json::to_string(&req).unwrap(),
        );
        let mut out = Vec::new();
        let mut stats = ServiceStats::default();
        let shutdown = service
            .run_lines(Cursor::new(input), &mut out, 1000, &mut stats)
            .unwrap();
        assert!(shutdown);
        // The pending request before the sentinel was answered; the one
        // after it was never read.
        assert_eq!(stats.requests, 1);
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 1);
        assert!(!stats.report().is_empty());
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let snap = tiny_snapshot();
        let n = snap.meta.feature_dim;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(snap, 2);
            serve_tcp(&service, listener, 4)
        });

        // First connection: two requests closed by EOF — the second
        // deliberately without a trailing newline, which must still be
        // answered (stdio's BufRead::lines semantics).
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = ServeRequest {
                id: Some(42),
                input: RequestInput::Features(vec![0.25; n]),
                uarch: MicroArch::xscale(),
                apply: false,
            };
            let line = serde_json::to_string(&req).unwrap();
            stream
                .write_all(format!("{line}\n{line}").as_bytes())
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(r.id, 42);
            assert!(r.error.is_none());
        }
        // Second connection: shutdown sentinel stops the listener.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"shutdown\": true}\n").unwrap();
        }
        let stats = server.join().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn tcp_idle_client_is_flushed_not_deadlocked() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let snap = tiny_snapshot();
        let n = snap.meta.feature_dim;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(snap, 1);
            // batch is far larger than what the client sends: only the
            // idle flush can answer it.
            serve_tcp(&service, listener, 1000)
        });
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = ServeRequest {
                id: Some(5),
                input: RequestInput::Features(vec![0.5; n]),
                uarch: MicroArch::xscale(),
                apply: false,
            };
            stream
                .write_all(format!("{}\n", serde_json::to_string(&req).unwrap()).as_bytes())
                .unwrap();
            // Write side stays open — a blocking client waiting for its
            // reply. The 20 ms idle flush must answer it anyway.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(r.id, 5);
            assert!(r.error.is_none());
            stream.write_all(b"{\"shutdown\": true}\n").unwrap();
        }
        let stats = server.join().unwrap();
        assert_eq!(stats.requests, 1);
    }

    /// Ids: `conn * 100 + seq`, so a reply leaking across connections is
    /// immediately identifiable.
    fn routed_request_line(ds: &Dataset, conn: u64, seq: u64) -> String {
        let req = ServeRequest {
            id: Some(conn * 100 + seq),
            input: RequestInput::Features(
                ds.features[(conn as usize + seq as usize) % ds.n_programs()]
                    [seq as usize % ds.n_uarchs()]
                .values
                .clone(),
            ),
            uarch: ds.uarchs[seq as usize % ds.n_uarchs()],
            apply: false,
        };
        serde_json::to_string(&req).unwrap()
    }

    #[test]
    fn concurrent_clients_get_their_own_replies_in_order() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(snap, 2);
            // Small batch + short window: 24 requests from 3 clients force
            // several cross-connection batches.
            let opts = ServeOptions {
                batch: 4,
                window: std::time::Duration::from_millis(2),
                ..Default::default()
            };
            service.run_concurrent(listener, &opts).unwrap()
        });

        const CLIENTS: u64 = 3;
        const PER_CLIENT: u64 = 8;
        let ds = &ds;
        std::thread::scope(|s| {
            for conn in 1..=CLIENTS {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    for seq in 0..PER_CLIENT {
                        let line = routed_request_line(ds, conn, seq);
                        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
                    }
                    let mut reader = BufReader::new(stream);
                    for seq in 0..PER_CLIENT {
                        let mut reply = String::new();
                        reader.read_line(&mut reply).unwrap();
                        let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
                        assert!(r.error.is_none(), "{:?}", r.error);
                        assert_eq!(
                            r.id,
                            conn * 100 + seq,
                            "client {conn} got someone else's (or out-of-order) reply"
                        );
                    }
                });
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"shutdown\": true}\n").unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.requests, CLIENTS * PER_CLIENT);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.connections, CLIENTS + 1, "3 clients + the shutdown");
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn tcp_half_close_unterminated_final_line_is_answered() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let snap = tiny_snapshot();
        let n = snap.meta.feature_dim;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(snap, 1);
            serve_tcp(&service, listener, 64)
        });
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = ServeRequest {
                id: Some(31),
                input: RequestInput::Features(vec![0.75; n]),
                uarch: MicroArch::xscale(),
                apply: false,
            };
            // No trailing newline, then SHUT_WR: the stream ends mid-line.
            stream
                .write_all(serde_json::to_string(&req).unwrap().as_bytes())
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(r.id, 31, "unterminated final line must still be answered");
            assert!(r.error.is_none());
            // After the routed reply the server closes its half too.
            let mut rest = String::new();
            reader.read_line(&mut rest).unwrap();
            assert!(
                rest.is_empty(),
                "expected EOF after the reply, got {rest:?}"
            );
        }
        // Same guarantee when the unterminated line *straddles* the
        // reader's 50 ms receive timeout: the fragment is carried into the
        // reader's buffer by an Err(WouldBlock) pass, and the EOF
        // afterwards arrives as Ok(0) with the buffer non-empty — the
        // fragment must still be answered, not assumed already processed.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = ServeRequest {
                id: Some(32),
                input: RequestInput::Features(vec![0.5; n]),
                uarch: MicroArch::xscale(),
                apply: false,
            };
            // The whole request, still without its newline...
            stream
                .write_all(serde_json::to_string(&req).unwrap().as_bytes())
                .unwrap();
            stream.flush().unwrap();
            // ...then a pause longer than the read timeout, so the server
            // buffers the fragment through at least one timeout pass...
            std::thread::sleep(std::time::Duration::from_millis(150));
            // ...and then EOF with no further bytes.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(r.id, 32, "fragment buffered across a read timeout was lost");
            assert!(r.error.is_none());
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"shutdown\": true}\n").unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.discarded, 0);
    }

    #[test]
    fn capacity_bound_rejects_excess_connections() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let snap = tiny_snapshot();
        let n = snap.meta.feature_dim;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(snap, 1);
            let opts = ServeOptions {
                max_conns: 1,
                ..Default::default()
            };
            service.run_concurrent(listener, &opts).unwrap()
        });

        let mut first = TcpStream::connect(addr).unwrap();
        let req = ServeRequest {
            id: Some(1),
            input: RequestInput::Features(vec![0.5; n]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        first
            .write_all(format!("{}\n", serde_json::to_string(&req).unwrap()).as_bytes())
            .unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut reply = String::new();
        first_reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"id\":1"), "{reply}");

        // The slot is taken: a second client is refused with an error line.
        {
            let second = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(second);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("capacity"), "expected capacity error: {line}");
            let mut rest = String::new();
            reader.read_line(&mut rest).unwrap();
            assert!(rest.is_empty(), "rejected client must be disconnected");
        }

        first.write_all(b"{\"shutdown\": true}\n").unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.rejected_connections, 1);
    }

    #[test]
    fn reload_swaps_between_batches_and_batches_stay_on_one_model() {
        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let service = PredictionService::new(snap, 2);
        let line = routed_request_line(&ds, 0, 0);
        let mut stats = ServiceStats::default();

        // Batch 1 drains on the starting model.
        service.submit_line(&line);
        let replies = service.drain(&mut stats);
        assert_eq!(replies[0].snapshot_version, 1);

        // A reload between drains is visible to the next batch — even for
        // requests submitted *before* the reload (version capture is per
        // batch drain, as SERVING.md specifies).
        service.submit_line(&line);
        let retrained = Snapshot::train(&tiny_dataset(), &TrainOptions::default());
        assert_eq!(service.reload_handle().reload(retrained), 2);
        service.submit_line(&line);
        let replies = service.drain(&mut stats);
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.snapshot_version == 2));

        // A reload racing a drain never splits the batch across models:
        // the snapshot is captured once at drain start.
        for _ in 0..16 {
            service.submit_line(&line);
        }
        let barrier = std::sync::Barrier::new(2);
        let versions: Vec<u64> = std::thread::scope(|s| {
            let drainer = s.spawn(|| {
                barrier.wait();
                let mut stats = ServiceStats::default();
                service
                    .drain(&mut stats)
                    .into_iter()
                    .map(|r| r.snapshot_version)
                    .collect()
            });
            barrier.wait();
            let retrained = Snapshot::train(&tiny_dataset(), &TrainOptions::default());
            service.reload_handle().reload(retrained);
            drainer.join().unwrap()
        });
        assert_eq!(versions.len(), 16);
        let first = versions[0];
        assert!(first == 2 || first == 3, "unexpected version {first}");
        assert!(
            versions.iter().all(|&v| v == first),
            "one batch answered by two models: {versions:?}"
        );
        // Whatever the race did, the *next* batch sees the new model.
        service.submit_line(&line);
        let mut stats = ServiceStats::default();
        assert_eq!(service.drain(&mut stats)[0].snapshot_version, 3);
    }

    #[test]
    fn tcp_reload_cmd_swaps_mid_session_without_dropping_requests() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};

        let dir = std::env::temp_dir().join("portopt-serve-test-tcp-reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let snap = tiny_snapshot();
        snap.save(&path).unwrap();
        let n = snap.meta.feature_dim;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let path_for_server = path.clone();
        let server = std::thread::spawn(move || {
            let service = PredictionService::new(Snapshot::load(&path_for_server).unwrap(), 1)
                .with_reload_path(&path_for_server);
            serve_tcp(&service, listener, 8)
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let req = ServeRequest {
            id: Some(1),
            input: RequestInput::Features(vec![0.25; n]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        let req_line = serde_json::to_string(&req).unwrap();

        // Request 1 is answered by the starting model...
        stream
            .write_all(format!("{req_line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let r: ServeResponse = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(r.snapshot_version, 1);

        // ...the admin reload is acknowledged out-of-band with the new
        // version...
        stream.write_all(b"{\"cmd\": \"reload\"}\n").unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert!(ack.contains("\"ok\":true"), "{ack}");
        assert!(ack.contains("\"snapshot_version\":2"), "{ack}");

        // ...and request 2 is answered by the reloaded model.
        stream
            .write_all(format!("{req_line}\n").as_bytes())
            .unwrap();
        let mut reply2 = String::new();
        reader.read_line(&mut reply2).unwrap();
        let r2: ServeResponse = serde_json::from_str(reply2.trim()).unwrap();
        assert_eq!(r2.snapshot_version, 2);
        assert_eq!(r2.id, 1);

        stream.write_all(b"{\"shutdown\": true}\n").unwrap();
        let stats = server.join().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn stdio_reload_cmd_is_acknowledged_inline() {
        let dir = std::env::temp_dir().join("portopt-serve-test-stdio-reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let snap = tiny_snapshot();
        snap.save(&path).unwrap();
        let n = snap.meta.feature_dim;
        let service =
            PredictionService::new(Snapshot::load(&path).unwrap(), 1).with_reload_path(&path);
        let req = ServeRequest {
            id: Some(5),
            input: RequestInput::Features(vec![0.5; n]),
            uarch: MicroArch::xscale(),
            apply: false,
        };
        let req_line = serde_json::to_string(&req).unwrap();
        let input = format!("{req_line}\n{{\"cmd\": \"reload\"}}\n{req_line}\n");
        let mut out = Vec::new();
        let mut stats = ServiceStats::default();
        // batch=1 drains each request before the next line is read, so the
        // version sequence is deterministic: v1 reply, ack v2, v2 reply.
        service
            .run_lines(Cursor::new(input), &mut out, 1, &mut stats)
            .unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        let r1: ServeResponse = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(r1.snapshot_version, 1);
        assert!(lines[1].contains("\"cmd\":\"reload\"") && lines[1].contains("\"ok\":true"));
        let r2: ServeResponse = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(r2.snapshot_version, 2);

        // Without a configured path, reload is refused and the model keeps
        // serving.
        let service = PredictionService::new(tiny_snapshot(), 1);
        let mut out = Vec::new();
        service
            .run_lines(
                Cursor::new("{\"cmd\": \"reload\"}\n"),
                &mut out,
                1,
                &mut ServiceStats::default(),
            )
            .unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("\"ok\":false"), "{out}");
        assert_eq!(service.current_snapshot().version, 1);
    }

    #[test]
    fn unknown_admin_command_gets_error_reply() {
        let service = PredictionService::new(tiny_snapshot(), 1);
        assert!(!service.submit_line("{\"cmd\": \"explode\"}"));
        let mut stats = ServiceStats::default();
        let replies = service.drain(&mut stats);
        assert_eq!(replies.len(), 1);
        assert!(replies[0]
            .error
            .as_deref()
            .unwrap()
            .contains("unknown admin command"));
    }

    #[test]
    fn watcher_reloads_when_the_snapshot_file_changes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Duration;

        let dir = std::env::temp_dir().join("portopt-serve-test-watch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.snap");
        let snap = tiny_snapshot();
        snap.save(&path).unwrap();
        let service = PredictionService::new(Snapshot::load(&path).unwrap(), 1);
        let handle = service.reload_handle();

        // A bad artifact is refused and the served model is unchanged.
        let garbage = dir.join("garbage.snap");
        std::fs::write(&garbage, b"{\"hello\": 1}").unwrap();
        assert!(handle.reload_from(&garbage).is_err());
        assert_eq!(handle.version(), 1);

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let watcher_handle = handle.clone();
            let (path, stop) = (&path, &stop);
            let watcher = s
                .spawn(move || watcher_handle.watch(path, Duration::from_millis(10), stop, |_| {}));
            // Republish until the watcher (whose initial stamp may race the
            // first save) observes a change. A retrained snapshot with a
            // different k changes both length and mtime.
            let changed = Snapshot::train(
                &tiny_dataset(),
                &TrainOptions {
                    k: 3,
                    ..TrainOptions::default()
                },
            );
            let mut reloaded = false;
            for _ in 0..100 {
                changed.save(&path).unwrap();
                std::thread::sleep(Duration::from_millis(30));
                if handle.version() >= 2 {
                    reloaded = true;
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            let reload_count = watcher.join().unwrap();
            assert!(reloaded, "watcher never picked up the new snapshot");
            assert!(reload_count >= 1);
        });
        assert_eq!(
            service.current_snapshot().snapshot.meta.k,
            3,
            "service must now serve the republished model"
        );
    }

    #[test]
    fn registry_retires_connections_whose_writes_fail() {
        use std::io::Write;

        /// A writer that always fails — a client whose socket went away.
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client gone",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let registry: ConnectionRegistry<BrokenPipe> = ConnectionRegistry::new(4);
        let conn = registry.register(BrokenPipe).unwrap();
        registry.note_submitted(conn);
        assert!(!registry.deliver(conn, "{}\n", 1), "write must fail");
        assert!(!registry.live(conn), "failed write retires the connection");
        // Delivery to a retired (or never-registered) connection reports
        // failure instead of panicking.
        assert!(!registry.deliver(conn, "{}\n", 1));
        assert!(!registry.deliver(999, "{}\n", 1));
    }

    /// Satellite check for stats-accounting drift: the registry's
    /// outstanding counts and the metrics in-flight gauge are maintained
    /// by different code paths (reader threads vs. the batcher); a client
    /// killed mid-batch is exactly where they historically disagree.
    #[test]
    fn stats_ledger_agrees_after_dead_conn_discard() {
        use std::sync::atomic::AtomicBool;

        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let service = PredictionService::new(snap, 1);
        let registry: ConnectionRegistry<Vec<u8>> = ConnectionRegistry::new(4);
        let a = registry.register(Vec::new()).unwrap();
        let b = registry.register(Vec::new()).unwrap();
        let stop = AtomicBool::new(false);

        service.handle_line(&registry, a, &routed_request_line(&ds, a, 0), &stop);
        service.handle_line(&registry, b, &routed_request_line(&ds, b, 0), &stop);
        assert_eq!(registry.total_outstanding(), 2);
        assert_eq!(service.metrics().inflight(), 2);

        // Client `b` dies before its batch runs.
        registry.remove(b);
        let mut stats = ServiceStats::default();
        service.drain_and_route(&registry, &mut stats);

        assert_eq!(stats.requests, 1, "only a's request was computed");
        assert_eq!(stats.discarded, 1, "b's request was dropped pre-compute");
        assert_eq!(
            registry.total_outstanding(),
            0,
            "a's reply was delivered; b is gone"
        );
        assert_eq!(
            service.metrics().inflight(),
            0,
            "metrics gauge must agree with the registry ledger"
        );
        let m = service.metrics().snapshot(service.pending());
        assert_eq!(m.requests_total, 1);
        assert_eq!(m.discarded_total, 1);
        assert_eq!(m.queue_depth, 0);
    }

    /// The other half of the drift surface: the connection dies *after*
    /// its reply is computed (delivery fails). The reply already left the
    /// in-flight gauge via `record_request`; the undeliverable path must
    /// count the discard without decrementing in-flight a second time —
    /// which would leave the gauge permanently short for every later
    /// request.
    #[test]
    fn stats_ledger_agrees_when_reply_delivery_fails() {
        use std::io::Write;
        use std::sync::atomic::AtomicBool;

        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client gone",
                ))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let service = PredictionService::new(snap, 1);
        let registry: ConnectionRegistry<BrokenPipe> = ConnectionRegistry::new(4);
        let c = registry.register(BrokenPipe).unwrap();
        let stop = AtomicBool::new(false);

        service.handle_line(&registry, c, &routed_request_line(&ds, c, 0), &stop);
        let mut stats = ServiceStats::default();
        service.drain_and_route(&registry, &mut stats);

        assert_eq!(stats.requests, 1, "the request was computed");
        assert_eq!(stats.discarded, 1, "…but its reply could not be written");
        assert!(!registry.live(c), "failed delivery retires the connection");
        assert_eq!(registry.total_outstanding(), 0);
        assert_eq!(service.metrics().inflight(), 0, "no double decrement");
        let m = service.metrics().snapshot(service.pending());
        assert_eq!(m.requests_total, 1);
        assert_eq!(m.discarded_total, 1);

        // The gauge still tracks later traffic exactly (a double decrement
        // above would have wrapped or pinned it at zero forever).
        let d = registry.register(BrokenPipe).unwrap();
        service.handle_line(&registry, d, &routed_request_line(&ds, d, 0), &stop);
        assert_eq!(service.metrics().inflight(), 1);
    }

    /// Refusals must leave every ledger untouched: not queued, not
    /// outstanding, not in-flight — only the refusal counter moves.
    #[test]
    fn refusals_leave_no_residue_in_any_ledger() {
        use std::sync::atomic::AtomicBool;

        let ds = tiny_dataset();
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let service = PredictionService::new(snap, 1).with_queue_cap(2);
        let registry: ConnectionRegistry<Vec<u8>> = ConnectionRegistry::new(4).with_quota(Some(2));
        let a = registry.register(Vec::new()).unwrap();
        let stop = AtomicBool::new(false);

        for seq in 0..3 {
            service.handle_line(&registry, a, &routed_request_line(&ds, a, seq), &stop);
        }
        assert_eq!(service.pending(), 2, "the cap held");
        assert_eq!(registry.outstanding(a), 2, "the refusal was retracted");
        assert!(registry.over_quota(a), "at quota 2, the reader would pause");
        assert_eq!(service.metrics().inflight(), 2);
        assert_eq!(service.metrics().refused_total(), 1);

        let mut stats = ServiceStats::default();
        service.drain_and_route(&registry, &mut stats);
        assert_eq!(stats.requests, 2);
        assert_eq!(registry.outstanding(a), 0);
        assert!(!registry.over_quota(a));
        assert_eq!(service.metrics().inflight(), 0);
    }

    #[test]
    fn request_json_is_hand_writable() {
        // The lenient parser accepts the minimal hand-written form the
        // README quickstart shows.
        let line = r#"{"features": [0,0,0,0,0,0,0,0,0,0,0, 32768,32,32768,32,512,1,400,1], "uarch": "xscale"}"#;
        let req: ServeRequest = serde_json::from_str(line).unwrap();
        assert_eq!(req.id, None);
        assert!(!req.apply);
        assert_eq!(req.uarch, MicroArch::xscale());
        match &req.input {
            RequestInput::Features(f) => assert_eq!(f.len(), portopt_uarch::N_FEATURES),
            other => panic!("wrong input: {other:?}"),
        }
        // Both features and module present is ambiguous.
        let both = r#"{"features": [1.0], "module": {}, "uarch": "xscale"}"#;
        assert!(serde_json::from_str::<ServeRequest>(both).is_err());
    }
}
