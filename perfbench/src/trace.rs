//! Benchmark-side spans: name, start, end and parent, recorded around
//! the calls into each crate, kept in memory and written out at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dmdp_harness::Json;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `core.dmdp`.
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder, shared by every thread of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Runs `f` inside a span named `name` under `parent`, handing `f` the
/// new span's id so nested calls can parent to it. With no tracer it
/// only runs `f` (and hands it id 0).
pub fn span<T>(tr: Option<&Tracer>, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
    let Some(tr) = tr else {
        return f(0);
    };
    let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = tr.now_ns();
    let out = f(id);
    let end_ns = tr.now_ns();
    let span = Span {
        id,
        parent,
        name: name.to_string(),
        start_ns,
        end_ns,
    };
    tr.spans
        .lock()
        .expect("span list poisoned by a panicking thread")
        .push(span);
    out
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// part of its interval its children cover (children on parallel
    /// threads are merged, so overlapping children count once).
    pub fn self_s(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            *out.entry(s.name.clone()).or_default() += (s.dur_ns() - covered) as f64 / 1e9;
        }
        out
    }

    /// Per root span, in start order: the part of its wall that its
    /// descendants cover, leaving out spans named in `skip` (but not
    /// their own descendants), and its wall, in seconds.
    pub fn covered_s(&self, skip: &[&str]) -> Vec<(f64, f64)> {
        let spans = self.spans();
        let parent: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let root_of = |mut id: u64| {
            while let Some(&p) = parent.get(&id).filter(|&&p| p != 0) {
                id = p;
            }
            id
        };
        let mut inside: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| s.parent != 0 && !skip.contains(&s.name.as_str()))
        {
            inside
                .entry(root_of(s.id))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        roots.sort_by_key(|r| r.start_ns);
        roots
            .iter()
            .map(|r| {
                let covered = inside
                    .get(&r.id)
                    .map_or(0, |v| union_within(v, r.start_ns, r.end_ns));
                (covered as f64 / 1e9, r.dur_ns() as f64 / 1e9)
            })
            .collect()
    }

    /// Total duration per span name in seconds.
    pub fn total_s(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in self.spans() {
            *out.entry(s.name.clone()).or_default() += s.dur_ns() as f64 / 1e9;
        }
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Every span as a JSON array, for the run record.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans()
                .into_iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        ("parent".into(), Json::Num(s.parent as f64)),
                        ("name".into(), Json::Str(s.name)),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_within(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::default();
        span(Some(&tr), "outer", 0, |id| {
            span(Some(&tr), "inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let selfs = tr.self_s();
        let totals = tr.total_s();
        assert!(selfs["outer"] < totals["outer"]);
        assert!((selfs["outer"] + totals["inner"] - totals["outer"]).abs() < 1e-6);
        assert_eq!(span(None, "untraced", 0, |id| id), 0);
    }

    #[test]
    fn coverage_skips_named_spans_but_keeps_their_children() {
        let tr = Tracer::default();
        let nap = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        span(Some(&tr), "root", 0, |root| {
            span(Some(&tr), "pool", root, |pool| {
                span(Some(&tr), "job", pool, |_| nap(20));
                nap(20);
            });
        });
        let totals = tr.total_s();
        let covered = tr.covered_s(&["pool"]);
        assert_eq!(covered.len(), 1);
        assert!((covered[0].0 - totals["job"]).abs() < 1e-6);
        assert!((covered[0].1 - totals["root"]).abs() < 1e-6);
        assert!(tr.covered_s(&[])[0].0 >= totals["pool"] - 1e-6);
    }
}
