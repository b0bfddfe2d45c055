//! The `serve_features` workload: open-loop feature-vector requests over
//! TCP to `PredictionService::run_concurrent`, on a seeded Poisson
//! schedule, at a ladder of fixed rates — a light rate, a loaded rate
//! with periodic hot reloads of the same snapshot, then rising rates up
//! to the highest rate that meets the latency limit — plus a capacity
//! flood that keeps a fixed number of requests in flight. Each open-loop
//! request is timed from when it was due to be sent.
//!
//! Requests are canonical feature lines (the fast decoder's shape) built
//! from held-out programs' `-O3` counters on seeded μarchs; the load
//! generator is this process's main thread (sender) and one receiver
//! thread on one connection. Every reply must carry the choices a direct
//! `predict_features_choices` call returns.

use crate::common::{self, Stream, LIMITS};
use crate::serving::{self, Served, Server};
use crate::stats::{self, Step};
use crate::tracer::Tracer;
use crate::Outcome;
use portopt_exec::Executor;
use portopt_passes::{compile, OptConfig};
use portopt_serve::{PredictionService, RequestInput, ServeRequest, ServiceStats, Snapshot};
use portopt_sim::{profile, PreparedEval};
use portopt_uarch::{FeatureVec, MicroArchSpace};
use rand::Rng;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Seeded μarchs per held-out program in the request pool.
const POOL_UARCHS: usize = 4;
/// The latency limit on the tail percentile: four batching windows.
const LIMIT_MS: f64 = 20.0;
const LIGHT_RPS: f64 = 500.0;
/// Light sub-steps, each followed by a capacity flood, spread over the
/// run. The light-load median is the lowest sub-step median, and the
/// capacity the second-best flood (the upper quartile of six), so a
/// stretch of a machine busy with other work does not decide them, nor
/// one lucky flood the capacity; tails pool every sub-step.
const LIGHT_STEPS: usize = 6;
const LOADED_RPS: f64 = 2000.0;
const RELOAD_EVERY_S: f64 = 0.1;
/// The first probe of the latency-limited ladder; each further probe
/// doubles the rate, up to nine tenths of the flood's capacity.
const PROBE_START_RPS: f64 = 2000.0;
/// Geometric bisections between the last passing and first failing
/// probe.
const BISECTIONS: usize = 2;
/// Requests kept in flight by the capacity floods.
const FLOOD_WINDOW: usize = 512;
/// Requests a flood sends per write, once as many replies arrived.
const FLOOD_CHUNK: usize = 64;
/// A rate no flood reaches on this service (sizes its id range).
const FLOOD_MAX_RPS: f64 = 400_000.0;
/// Stats probes per step (evenly spaced, the first as the step starts).
const STATS_PROBES: usize = 5;
/// How long a receiver waits for stragglers after the last send.
const GRACE: Duration = Duration::from_secs(10);

/// One step of the ladder.
#[derive(Debug, Clone, Copy)]
struct Plan {
    rps: f64,
    secs: f64,
    reload: bool,
}

impl Plan {
    fn requests(&self) -> usize {
        (self.rps * self.secs).round() as usize
    }
}

/// What one step measured.
#[derive(Debug, Default)]
struct StepOut {
    /// Per-request latency from due time (ms); `inf` for a failure.
    latency_ms: Vec<f64>,
    /// Client latency minus the reply's service-side `latency_ms`.
    queue_wait_ms: Vec<f64>,
    service_ms: Vec<f64>,
    failures: usize,
    refused: usize,
    depths: Vec<usize>,
    late_ms_max: f64,
    reload_ms: Vec<f64>,
    answered: usize,
    secs: f64,
}

enum Event {
    Request(usize),
    Stats,
    Reload,
}

/// What every step of one run shares.
struct Ladder<'a> {
    server: &'a Server,
    seed: u64,
    /// Request lines without an id, and the choices each must get (also
    /// as the reply prints them, for the receiver's fast check).
    pool: &'a [String],
    expected: &'a [Vec<u8>],
    expected_text: &'a [String],
    tr: &'a Tracer,
}

/// One received reply line, checked as it arrives.
enum Received {
    /// Request index, arrival, service-side latency (`None` when the
    /// reply was wrong: an error, a refusal, other choices), refused.
    Reply(usize, Instant, Option<f64>, bool),
    Depth(usize),
    Garbage,
}

/// The `id`, `choices` text and `latency_ms` of a reply line in the
/// service's printed field order with `"error":null`; `None` for any
/// other shape (which then takes the full parse).
fn scan_reply(line: &str) -> Option<(u64, &str, f64)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let id = rest[..rest.find(',')?].parse().ok()?;
    let c0 = rest.find("\"choices\":[")? + 11;
    let c1 = c0 + rest[c0..].find(']')?;
    let l0 = rest.find("\"latency_ms\":")? + 13;
    let l1 = l0 + rest[l0..].find(',')?;
    let latency = rest[l0..l1].parse().ok()?;
    rest.contains("\"error\":null")
        .then_some((id, &rest[c0..c1], latency))
}

/// Checks one reply line against requests `first_id..` whose pool
/// entries are `picks`.
fn classify(line: &str, first_id: u64, picks: &[usize], ctx: &Ladder) -> Received {
    if line.starts_with("{\"cmd\":\"stats\"") {
        return queue_depth(line).map_or(Received::Garbage, Received::Depth);
    }
    let now = Instant::now();
    let index = |id: u64| {
        id.checked_sub(first_id)
            .map(|i| i as usize)
            .filter(|&i| i < picks.len())
    };
    if let Some((id, choices, latency)) = scan_reply(line) {
        if let Some(i) = index(id) {
            if choices == ctx.expected_text[picks[i]] {
                return Received::Reply(i, now, Some(latency), false);
            }
        }
    }
    // The full parse decides whatever the fast scan did not accept.
    let Some(reply) = serving::parse_reply(line) else {
        return Received::Garbage;
    };
    let refused = reply.error.as_deref() == Some("overloaded");
    match reply.id.and_then(index) {
        Some(i) => {
            let id = first_id + i as u64;
            let ok = serving::reply_ok(&reply, id, &ctx.expected[picks[i]], None);
            Received::Reply(i, now, ok.then_some(reply.latency_ms), refused)
        }
        None => Received::Garbage,
    }
}

/// Reads reply lines into `on_line` until `want()` lines arrived, the
/// connection closes, or `GRACE` has passed since `done` was set.
fn receive(
    mut reader: BufReader<TcpStream>,
    want: impl Fn() -> usize,
    done: &AtomicBool,
    mut on_line: impl FnMut(&str),
) {
    let (mut got, mut buf) = (0, Vec::with_capacity(1024));
    let mut finished_at: Option<Instant> = None;
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    while got < want() {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {
                on_line(String::from_utf8_lossy(&buf).trim_end());
                got += 1;
                buf.clear();
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
        if done.load(Ordering::Acquire) {
            let f = *finished_at.get_or_insert_with(Instant::now);
            if f.elapsed() > GRACE {
                break;
            }
        }
    }
}

/// Appends request `id` for the pool line `pool_line` to `batch`.
fn push_request(batch: &mut String, id: u64, pool_line: &str) {
    let _ = write!(batch, "{{\"id\":{id},");
    batch.push_str(&pool_line[1..]);
    batch.push('\n');
}

/// Runs one open-loop step on a fresh connection and checks every
/// reply. `reloads` holds one snapshot copy per reload the plan makes.
fn run_step(
    ctx: &Ladder,
    plan: Plan,
    step: u64,
    first_id: u64,
    reloads: &mut Vec<Snapshot>,
    out: &mut Outcome,
) -> StepOut {
    let n = plan.requests();
    let mut arrivals = common::rng(ctx.seed, Stream::Arrivals, step);
    let mut order = common::rng(ctx.seed, Stream::Order, 1000 + step);
    let mut events: Vec<(f64, Event)> = Vec::with_capacity(n + 16);
    let mut at = 0.0;
    let mut picks = Vec::with_capacity(n);
    for i in 0..n {
        // Exponential gaps: a Poisson arrival process at the step's rate.
        at += -(1.0 - arrivals.gen::<f64>()).ln() / plan.rps;
        picks.push(order.gen_range(0..ctx.pool.len()));
        events.push((at, Event::Request(i)));
    }
    let span = at;
    for k in 0..STATS_PROBES {
        events.push((span * k as f64 / (STATS_PROBES - 1) as f64, Event::Stats));
    }
    if plan.reload {
        let mut t = RELOAD_EVERY_S;
        while t < span {
            events.push((t, Event::Reload));
            t += RELOAD_EVERY_S;
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let (mut writer, reader) = serving::connect(ctx.server.addr);
    let handle = ctx.server.service.reload_handle();
    let mut due = vec![Instant::now(); n];
    let mut res = StepOut {
        secs: span,
        ..Default::default()
    };
    let sent_all = AtomicBool::new(false);
    let picks = &picks;
    let received: Vec<Received> = std::thread::scope(|scope| {
        let sent_all = &sent_all;
        let rx = scope.spawn(move || {
            let mut got = Vec::with_capacity(n + STATS_PROBES);
            receive(
                reader,
                || n + STATS_PROBES,
                sent_all,
                |line| got.push(classify(line, first_id, picks, ctx)),
            );
            got
        });

        let t0 = Instant::now() + Duration::from_millis(20);
        let at = |k: usize| t0 + Duration::from_secs_f64(events[k].0);
        let mut batch = String::new();
        let mut k = 0;
        while k < events.len() {
            let now = Instant::now();
            if at(k) > now {
                std::thread::sleep(at(k) - now);
            }
            // Send everything already due in one write.
            let now = Instant::now();
            batch.clear();
            while k < events.len() && at(k) <= now {
                match events[k].1 {
                    Event::Request(i) => {
                        due[i] = at(k);
                        push_request(&mut batch, first_id + i as u64, &ctx.pool[picks[i]]);
                        let late = now.duration_since(at(k)).as_secs_f64() * 1e3;
                        res.late_ms_max = res.late_ms_max.max(late);
                    }
                    Event::Stats => batch.push_str("{\"cmd\":\"stats\"}\n"),
                    Event::Reload => {
                        let snap = reloads.pop().expect("a snapshot copy per reload");
                        let (_, s) = ctx
                            .tr
                            .time("ReloadHandle::reload", None, None, || handle.reload(snap));
                        res.reload_ms.push(s * 1e3);
                    }
                }
                k += 1;
            }
            if !batch.is_empty() && writer.write_all(batch.as_bytes()).is_err() {
                break;
            }
        }
        sent_all.store(true, Ordering::Release);
        rx.join().expect("receiver thread")
    });
    drop(writer);

    let mut seen = vec![false; n];
    res.latency_ms = vec![f64::INFINITY; n];
    for r in received {
        match r {
            Received::Depth(d) => res.depths.push(d),
            Received::Garbage => {
                res.failures += 1;
                out.check(false);
            }
            Received::Reply(i, arrived, service_ms, refused) => {
                res.refused += usize::from(refused);
                // A second answer to one request is a failure too.
                let ok = service_ms.is_some() && !seen[i];
                out.check(ok);
                match service_ms {
                    Some(svc) if ok => {
                        let lat = arrived.duration_since(due[i]).as_secs_f64() * 1e3;
                        res.latency_ms[i] = lat;
                        res.queue_wait_ms.push(lat - svc);
                        res.service_ms.push(svc);
                        res.answered += 1;
                    }
                    _ => res.failures += 1,
                }
                seen[i] = true;
            }
        }
    }
    for answered in seen {
        if !answered {
            res.failures += 1;
            out.check(false);
        }
    }
    res
}

/// Capacity: one connection kept `FLOOD_WINDOW` requests deep for
/// `secs`; returns the replies per second received inside that window.
/// Every reply is checked.
fn flood(ctx: &Ladder, secs: f64, first_id: u64, out: &mut Outcome) -> f64 {
    let n_max = (secs * FLOOD_MAX_RPS) as usize;
    let mut order = common::rng(ctx.seed, Stream::Order, 2000);
    let picks: Vec<usize> = (0..n_max)
        .map(|_| order.gen_range(0..ctx.pool.len()))
        .collect();
    let (mut writer, reader) = serving::connect(ctx.server.addr);
    // The receiver hands the sender a credit per `FLOOD_CHUNK` reply
    // lines, so the sender sleeps while the window is full instead of
    // spinning on a core the server needs, and wakes once per chunk.
    let (credit_tx, credits) = mpsc::channel::<()>();
    let sent_total = AtomicUsize::new(usize::MAX);
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let picks = &picks;
    let (replies, sent) = std::thread::scope(|scope| {
        let (sent_total, done) = (&sent_total, &done);
        let rx = scope.spawn(move || {
            let mut got = Vec::new();
            receive(
                reader,
                || sent_total.load(Ordering::Acquire),
                done,
                |line| {
                    got.push(classify(line, first_id, picks, ctx));
                    if got.len() % FLOOD_CHUNK == 0 {
                        let _ = credit_tx.send(());
                    }
                },
            );
            got
        });
        let (mut sent, mut room, mut batch) = (0usize, FLOOD_WINDOW, String::new());
        while sent < n_max {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if room < FLOOD_CHUNK {
                match credits.recv_timeout(deadline - now) {
                    Ok(()) => room += FLOOD_CHUNK,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            room += FLOOD_CHUNK * credits.try_iter().count();
            batch.clear();
            let end = (sent + room).min(n_max);
            room -= end - sent;
            for (i, &pick) in picks.iter().enumerate().take(end).skip(sent) {
                push_request(&mut batch, first_id + i as u64, &ctx.pool[pick]);
            }
            sent = end;
            if writer.write_all(batch.as_bytes()).is_err() {
                break;
            }
        }
        sent_total.store(sent, Ordering::Release);
        done.store(true, Ordering::Release);
        (rx.join().expect("receiver thread"), sent)
    });
    drop(writer);
    let mut seen = vec![false; sent];
    let mut in_window = 0usize;
    for r in replies {
        match r {
            Received::Reply(i, arrived, service_ms, _) if i < sent => {
                let ok = service_ms.is_some() && !seen[i];
                out.check(ok);
                seen[i] = true;
                in_window += usize::from(ok && arrived <= deadline);
            }
            _ => out.check(false),
        }
    }
    for answered in seen {
        if !answered {
            out.check(false);
        }
    }
    let rate = in_window as f64 / secs;
    eprintln!("perfbench: flood {secs:.2} s, {rate:.0} replies/s");
    rate
}

/// `queue_depth` of a `{"cmd":"stats"}` reply.
fn queue_depth(line: &str) -> Option<usize> {
    let doc = serde_json::parse(line).ok()?;
    match doc.field("queue_depth").ok()? {
        serde::Value::I64(n) => usize::try_from(*n).ok(),
        _ => None,
    }
}

fn as_step(plan: Plan, r: &StepOut) -> Step {
    Step {
        offered_rps: plan.rps,
        achieved_rps: r.answered as f64 / r.secs,
        p99_ms: stats::timing(&r.latency_ms).map_or(f64::INFINITY, |t| t.tail),
        failures: r.failures,
        backlog_grew: stats::backlog_grew(&r.depths, 4 * portopt_serve::DEFAULT_BATCH),
    }
}

/// The request pool: canonical feature lines (without an id) for every
/// held-out program's `-O3` counters on each seeded μarch, plus the
/// choices a direct prediction returns for each.
fn request_pool(
    served: &Served,
    seed: u64,
    tr: &Tracer,
    out: &mut Outcome,
) -> (Vec<String>, Vec<Vec<u8>>) {
    let programs = served.held_out();
    let uarchs =
        MicroArchSpace::base().sample_n(POOL_UARCHS, &mut common::rng(seed, Stream::Uarchs, 0));
    let feats: Vec<Vec<FeatureVec>> =
        Executor::new(common::threads()).map_indexed(programs.len(), |k| {
            let module = &served.progs[programs[k]].module;
            let img = compile(module, &OptConfig::o3());
            let prof = profile(&img, module, &[], LIMITS).expect("-O3 binaries run");
            let pe = PreparedEval::new(&img, &prof);
            uarchs
                .iter()
                .map(|u| FeatureVec::new(&pe.evaluate(u).counters, u))
                .collect()
        });
    let compiler = &served.folds[0].snapshot.compiler;
    let (mut lines, mut expected, mut predict_us) = (Vec::new(), Vec::new(), Vec::new());
    for (k, row) in feats.iter().enumerate() {
        for (u, f) in row.iter().enumerate() {
            let req = ServeRequest {
                id: None,
                input: RequestInput::Features(f.values.clone()),
                uarch: uarchs[u],
                apply: false,
            };
            lines.push(serde_json::to_string(&req).expect("requests serialize"));
            let ((_, choices), s) = tr.time(
                "PortableCompiler::predict_features_choices",
                None,
                Some((k * POOL_UARCHS + u) as u64),
                || compiler.predict_features_choices(&f.values),
            );
            predict_us.push(s * 1e6);
            expected.push(choices);
        }
    }
    out.set("ml.predict_us", stats::median(&predict_us));
    (lines, expected)
}

/// Replays request lines in process through `submit_line` and `drain`,
/// in batches of the serving default, checking every reply. Returns the
/// wall time, each `submit_line` time (µs), the summed drain time and
/// the replies drained.
fn replay(
    served: &Served,
    lines: &[String],
    expected: &[&[u8]],
    tr: &Tracer,
    out: &mut Outcome,
) -> (f64, Vec<f64>, f64, usize) {
    let svc = PredictionService::new(served.folds[0].snapshot.clone(), common::threads());
    let mut stats = ServiceStats::default();
    let started = Instant::now();
    let root = tr.open();
    let (mut decode_us, mut drain_s, mut answered) = (Vec::new(), 0.0, 0);
    for (b, chunk) in lines.chunks(portopt_serve::DEFAULT_BATCH).enumerate() {
        let base = b * portopt_serve::DEFAULT_BATCH;
        for (j, line) in chunk.iter().enumerate() {
            let (_, s) = tr.time(
                "PredictionService::submit_line",
                Some(root.0),
                Some((base + j) as u64),
                || svc.submit_line(line),
            );
            decode_us.push(s * 1e6);
        }
        let (replies, s) = tr.time("PredictionService::drain", Some(root.0), None, || {
            svc.drain(&mut stats)
        });
        drain_s += s;
        out.check(replies.len() == chunk.len());
        for (j, r) in replies.iter().enumerate() {
            let i = base + j;
            out.check(r.id == i as u64 && r.error.is_none() && r.choices == expected[i]);
            answered += 1;
        }
    }
    tr.close(root, "serve::replay", None, None);
    (
        started.elapsed().as_secs_f64(),
        decode_us,
        drain_s,
        answered,
    )
}

/// Request ids and step numbers handed out across one run.
#[derive(Default)]
struct Ids {
    next_id: u64,
    step: u64,
}

impl Ids {
    /// Reserves `n` request ids; the first.
    fn take(&mut self, n: f64) -> u64 {
        let first = self.next_id;
        self.next_id += n.ceil() as u64;
        first
    }

    fn run(
        &mut self,
        ctx: &Ladder,
        plan: Plan,
        reloads: &mut Vec<Snapshot>,
        out: &mut Outcome,
    ) -> StepOut {
        let first = self.take(plan.requests() as f64);
        self.step += 1;
        run_step(ctx, plan, self.step, first, reloads, out)
    }
}

pub fn run(seed: u64, seconds: u64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let served = serving::set_up(seed, "serve_features", 1, tr);
    out.set("setup_s", served.setup_s);
    out.set("bench.setup_pairs_per_s", served.pairs_per_s);
    out.set("serve.snapshot_load_s", served.load_s);
    let (pool, expected) = request_pool(&served, seed, tr, &mut out);
    let expected_text: Vec<String> = expected
        .iter()
        .map(|c| {
            let t = serde_json::to_string(c).expect("choices serialize");
            t[1..t.len() - 1].to_string()
        })
        .collect();

    let scale = seconds as f64 / 20.0;
    // A step whose own tail decides something sends at least 1000
    // requests, so that tail is a p99; light steps are pooled instead.
    let plan = |rps: f64, secs: f64, reload: bool| Plan {
        rps,
        secs: (secs * scale).max(1000.0 / rps),
        reload,
    };
    let light = Plan {
        rps: LIGHT_RPS,
        secs: 0.6 * scale,
        reload: false,
    };
    let server = Server::start(&served.folds[0]);
    let ctx = Ladder {
        server: &server,
        seed,
        pool: &pool,
        expected: &expected,
        expected_text: &expected_text,
        tr,
    };
    let work = Instant::now();
    let mut ids = Ids::default();
    // Light steps and capacity floods alternate, around the loaded step
    // and the ladder. The best flood so far bounds the ladder, so no
    // probe overloads the service far enough to pile up a backlog (and
    // memory) that depends on how busy the machine was.
    let flood_secs = 0.75 * scale;
    let mut light_outs = Vec::new();
    let light_and_flood = |ids: &mut Ids, out: &mut Outcome, light_outs: &mut Vec<StepOut>| {
        light_outs.push(ids.run(&ctx, light, &mut Vec::new(), out));
        let first = ids.take(flood_secs * FLOOD_MAX_RPS);
        flood(&ctx, flood_secs, first, out)
    };
    let mut floods = vec![light_and_flood(&mut ids, &mut out, &mut light_outs)];
    let loaded = plan(LOADED_RPS, 1.5, true);
    let mut reloads: Vec<Snapshot> = (0..(loaded.secs / RELOAD_EVERY_S) as usize + 2)
        .map(|_| served.folds[0].snapshot.clone())
        .collect();
    let loaded_out = ids.run(&ctx, loaded, &mut reloads, &mut out);
    floods.push(light_and_flood(&mut ids, &mut out, &mut light_outs));

    // The latency-limited rate: double the rate until a step fails (or
    // reaches nine tenths of capacity), then bisect.
    let (mut steps, mut refused) = (Vec::new(), 0);
    let mut probe = |rps: f64, ids: &mut Ids, out: &mut Outcome| -> bool {
        let p = plan(rps, 0.6, false);
        let r = ids.run(&ctx, p, &mut Vec::new(), out);
        refused += r.refused;
        let s = as_step(p, &r);
        steps.push(s);
        s.passes(LIMIT_MS)
    };
    let top = 0.9 * floods.iter().copied().fold(0.0, f64::max);
    let (mut pass, mut fail) = (LIGHT_RPS, None);
    let mut rps = PROBE_START_RPS.min(top);
    loop {
        if !probe(rps, &mut ids, &mut out) {
            fail = Some(rps);
            break;
        }
        pass = rps;
        if rps >= top {
            break;
        }
        rps = (rps * 2.0).min(top);
    }
    if let Some(mut hi) = fail {
        for _ in 0..BISECTIONS {
            let mid = (pass * hi).sqrt();
            if probe(mid, &mut ids, &mut out) {
                pass = mid;
            } else {
                hi = mid;
            }
        }
    }
    while light_outs.len() < LIGHT_STEPS {
        floods.push(light_and_flood(&mut ids, &mut out, &mut light_outs));
    }
    out.set("bench.work_s", work.elapsed().as_secs_f64());
    let served_stats = server.stop();
    for s in &steps {
        eprintln!(
            "perfbench: probe {:>9.0} rps offered, {:>9.1} achieved, tail {:>8.3} ms, \
             {} failed, backlog grew: {}",
            s.offered_rps, s.achieved_rps, s.p99_ms, s.failures, s.backlog_grew
        );
    }

    let pooled = |f: fn(&StepOut) -> &Vec<f64>| -> Vec<f64> {
        light_outs
            .iter()
            .flat_map(|o| f(o).iter().copied())
            .collect()
    };
    let light_t = stats::timing(&pooled(|o| &o.latency_ms)).expect("light steps send requests");
    let least_disturbed = light_outs
        .iter()
        .filter_map(|o| stats::timing(&o.latency_ms))
        .map(|t| t.median)
        .fold(f64::INFINITY, f64::min);
    out.set("p50_ms", least_disturbed);
    out.set("bench.tail_ms", light_t.tail);
    out.set("bench.samples", light_t.n as f64);
    out.set("bench.tail_pct", light_t.tail_pct);
    floods.sort_by(f64::total_cmp);
    out.set("throughput_per_s", stats::percentile(&floods, 75.0));
    out.set("serve.max_rate_rps", stats::max_rate(&steps, LIMIT_MS));
    let loaded_t = stats::timing(&loaded_out.latency_ms).expect("the loaded step sends requests");
    out.set("serve.p99_ms_loaded", loaded_t.tail);
    if let Some(qw) = stats::timing(&pooled(|o| &o.queue_wait_ms)) {
        out.set("serve.queue_wait_ms.p50", qw.median);
        out.set("serve.queue_wait_ms.p99", qw.tail);
    }
    if let Some(svc) = stats::timing(&pooled(|o| &o.service_ms)) {
        out.set("serve.service_ms.p99", svc.tail);
    }
    out.set("serve.refused", (refused + loaded_out.refused) as f64);
    out.set("serve.reload_ms", stats::median(&loaded_out.reload_ms));
    let late = light_outs
        .iter()
        .chain([&loaded_out])
        .map(|o| o.late_ms_max);
    out.set("loadgen.late_ms.max", late.fold(0.0, f64::max));
    out.set(
        "serve.batch_size_mean",
        served_stats.requests as f64 / served_stats.batches.max(1) as f64,
    );

    if tr.on() {
        // An in-process replay of a light step's worth of pool lines
        // through `submit_line`/`drain`: once untraced, once traced, for
        // the decode/drain split and the tracing overhead ratio.
        let mut order = common::rng(seed, Stream::Order, 7);
        let picks: Vec<usize> = (0..light_t.n)
            .map(|_| order.gen_range(0..pool.len()))
            .collect();
        let lines: Vec<String> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| format!("{{\"id\":{i},{}", &pool[p][1..]))
            .collect();
        let want: Vec<&[u8]> = picks.iter().map(|&p| expected[p].as_slice()).collect();
        let (plain_s, _, _, _) = replay(&served, &lines, &want, &Tracer::new(false), &mut out);
        let (traced_s, decode_us, drain_s, answered) = replay(&served, &lines, &want, tr, &mut out);
        out.set("serve.decode_us", stats::median(&decode_us));
        out.set(
            "serve.drain_us_per_req",
            drain_s * 1e6 / answered.max(1) as f64,
        );
        out.set("bench.trace_overhead", traced_s / plain_s);
    }
    served.remove_files();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_scan_reads_the_printed_field_order() {
        let line = r#"{"id":12,"config":{"a":true},"choices":[1,0,2],"latency_ms":0.031,"stats":null,"error":null,"snapshot_version":1}"#;
        assert_eq!(scan_reply(line), Some((12, "1,0,2", 0.031)));
        let failed = r#"{"id":12,"config":null,"choices":[],"latency_ms":0.031,"stats":null,"error":"bad request: x","snapshot_version":1}"#;
        assert_eq!(scan_reply(failed), None);
        let refusal = r#"{"id":3,"error":"overloaded","retry_after_ms":10}"#;
        assert_eq!(scan_reply(refusal), None);
    }
}
