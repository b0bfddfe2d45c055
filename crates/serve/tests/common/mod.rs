//! Shared fixtures for the serving integration tests: one trained
//! snapshot per test binary (training is the expensive part), request
//! builders with self-identifying ids, and a TCP server harness.

// Each integration-test binary uses a different subset of these helpers.
#![allow(dead_code)]

use portopt_core::{Dataset, GenOptions, Sweep, SweepScale, TrainOptions};
use portopt_ir::{FuncBuilder, Module, ModuleBuilder};
use portopt_serve::{PredictionService, ServeRequest, ServiceStats, Snapshot};
use std::net::TcpListener;
use std::sync::OnceLock;

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

/// The per-binary fixture: a small sweep dataset and a snapshot trained
/// on it, built once and cloned out.
pub fn fixture() -> (Dataset, Snapshot) {
    static FIXTURE: OnceLock<(Dataset, Snapshot)> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let ds = Sweep::new(GenOptions {
                scale: SweepScale {
                    n_uarch: 2,
                    n_opts: 8,
                },
                seed: 7,
                extended_space: false,
                threads: 2,
            })
            .run(&[program("mem1", true), program("alu1", false)])
            .0;
            let snap = Snapshot::train(&ds, &TrainOptions::default());
            (ds, snap)
        })
        .clone()
}

/// A feature request whose id encodes (client, sequence) so a reply
/// delivered to the wrong client — or out of order — is immediately
/// identifiable: `id = client * 100_000 + seq`.
pub fn request_line(ds: &Dataset, client: u64, seq: u64) -> String {
    let req = ServeRequest {
        id: Some(client * 100_000 + seq),
        input: portopt_serve::RequestInput::Features(
            ds.features[(client as usize + seq as usize) % ds.n_programs()]
                [seq as usize % ds.n_uarchs()]
            .values
            .clone(),
        ),
        uarch: ds.uarchs[seq as usize % ds.n_uarchs()],
        apply: false,
    };
    serde_json::to_string(&req).unwrap()
}

/// Binds a listener, spawns `run_concurrent` on a fresh service built by
/// `build`, and returns the address plus the join handle yielding the
/// shutdown stats (send `{"shutdown": true}` to stop it).
pub fn spawn_server(
    build: impl FnOnce(Snapshot) -> PredictionService + Send + 'static,
    opts: portopt_serve::ServeOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServiceStats>) {
    let (_, snap) = fixture();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let service = build(snap);
        service.run_concurrent(listener, &opts).unwrap()
    });
    (addr, handle)
}

/// Sends the shutdown sentinel on a fresh connection.
pub fn shutdown(addr: std::net::SocketAddr) {
    use std::io::Write;
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(b"{\"shutdown\": true}\n").unwrap();
}
