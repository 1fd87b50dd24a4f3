//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer, and the self times derived from them.
//!
//! A span has a name, a start and end (ns since the tracer was made), a
//! parent span and the id of the op it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer runs
//! the same closures without recording anything, so traced and untraced
//! ops execute identical code apart from the bookkeeping.

use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A scope with no parent span for op `op`.
    pub fn op(&self, op: u64) -> Scope<'_> {
        Scope {
            tracer: self,
            id: None,
            op,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in start order of their creation.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Where new spans attach: a tracer, the enclosing span and the op id.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
    op: u64,
}

impl<'t> Scope<'t> {
    /// Runs `f` inside a span named `name` (recorded only when tracing).
    pub fn span<T>(&self, name: &str, f: impl FnOnce(Scope<'t>) -> T) -> T {
        if !self.tracer.on {
            return f(*self);
        }
        let start_ns = self.tracer.now_ns();
        let id = {
            let mut spans = self.tracer.spans.lock().expect("span buffer poisoned");
            spans.push(SpanRec {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent: self.id,
                op: self.op,
            });
            spans.len() - 1
        };
        let out = f(Scope {
            id: Some(id),
            ..*self
        });
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.lock().expect("span buffer poisoned")[id].end_ns = end_ns;
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap, e.g. concurrent client
/// requests under one op).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times (ms) of the spans called `name`.
pub fn self_ms(spans: &[SpanRec], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1.0e6)
        .collect()
}

/// The span list as JSON (`{name, start_ns, end_ns, self_ns, parent, op}`).
pub fn to_value(spans: &[SpanRec]) -> Value {
    let selfs = self_times_ns(spans);
    Value::Array(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Value::Object(vec![
                    ("name".to_owned(), Value::Str(s.name.clone())),
                    ("start_ns".to_owned(), Value::U64(s.start_ns)),
                    ("end_ns".to_owned(), Value::U64(s.end_ns)),
                    ("self_ns".to_owned(), Value::U64(self_ns)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("op".to_owned(), Value::U64(s.op)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec("op", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("b", 30, 60, Some(0)),
            rec("c", 80, 90, Some(0)),
            rec("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 10, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let t = Tracer::new(false);
        let v = t.op(1).span("x", |s| s.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.op(1).span("x", |s| s.span("y", |_| ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
