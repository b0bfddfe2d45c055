//! The traced run's span recorder: spans around the benchmark's own
//! calls into each layer's public functions, kept in memory and written
//! out when the run ends.
//!
//! Every call is timed whether or not tracing is on (the workloads read
//! per-call durations for their own metrics); a span is *recorded* only
//! in a traced run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Request (or grid task) the span belongs to, when it has one.
    pub req: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. `Tracer::new(false)` times calls but records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span whose children start before it ends: its id (the
    /// children's parent) and start. [`Tracer::close`] records it.
    pub fn open(&self) -> (u64, Instant) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Runs `f`, returning its result and its duration in seconds, and
    /// records a span when tracing is on.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, req, start, end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span opened with [`Tracer::open`], ending now; returns
    /// its duration in seconds.
    pub fn close(
        &self,
        (id, start): (u64, Instant),
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> f64 {
        let end = Instant::now();
        if self.on {
            self.push(id, parent, name, req, start, end);
        }
        end.duration_since(start).as_secs_f64()
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes the spans as JSON lines (one object per span, start order).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","req":{},"start_ns":{},"end_ns":{}}}"#,
                s.id,
                opt(s.parent),
                s.name,
                opt(s.req),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_s: f64,
    pub self_s: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (children may run in parallel on
/// other threads, so covered time is the union of their intervals,
/// clipped to the parent's).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Calls, busy time and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Share of the benchmark's own phase spans (parentless spans with
/// children) that no child span covers: the part of the traced phases
/// not attributed to any layer call.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let parents: std::collections::BTreeSet<u64> = spans.iter().filter_map(|s| s.parent).collect();
    let (mut own, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && parents.contains(&s.id))
    {
        own += selfs[&s.id];
        total += s.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// A human-readable per-name table (stderr of a traced run).
pub fn table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<34} {:>8} {:>11} {:>11}\n",
        "span", "calls", "busy_s", "self_s"
    );
    for (name, t) in totals(spans) {
        out.push_str(&format!(
            "{name:<34} {:>8} {:>11.4} {:>11.4}\n",
            t.calls, t.busy_s, t.self_s
        ));
    }
    out.push_str(&format!(
        "unattributed share of phase spans: {:.4}\n",
        unattributed_share(spans)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with two overlapping parallel children (10..50 and
        // 30..70, union 10..70) and one child sticking out past its end
        // (90..120 clips to 90..100): covered 60 + 10.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 50),
            span(3, Some(1), "a", 30, 70),
            span(4, Some(1), "b", 90, 120),
            span(5, Some(2), "leaf", 20, 25),
            // A parentless leaf (a layer call made outside any phase) is
            // attributed time, not part of the unattributed share.
            span(6, None, "lone", 200, 300),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 35);
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&5], 5);
        let t = totals(&spans);
        assert_eq!(t["a"].calls, 2);
        assert!((t["a"].busy_s - 80e-9).abs() < 1e-15);
        assert!((t["a"].self_s - 75e-9).abs() < 1e-15);
        assert!((unattributed_share(&spans) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn untraced_runs_time_but_record_nothing() {
        let off = Tracer::new(false);
        let (v, secs) = off.time("x", None, None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        let root = on.open();
        on.time("child", Some(root.0), Some(7), || ());
        on.close(root, "root", None, None);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].req, Some(7));
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
