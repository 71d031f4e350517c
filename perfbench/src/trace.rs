//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside the crates is instrumented.
//! A disabled tracer still times every call (the untraced runs need the
//! durations) but keeps no spans.

use std::collections::BTreeMap;
use std::time::Instant;

use lrm_bench::json::Json;

/// One timed interval. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `compress.sz.encode`.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one case round or request.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans while enabled; always returns durations.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span recording on or off from here on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` as a leaf span under the innermost open span and
    /// returns its result with its duration in seconds.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.record(name, op, start, end);
        (out, end - start)
    }

    /// Records a finished interval under the innermost open span.
    pub fn record(&mut self, name: &str, op: u64, start: f64, end: f64) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent: self.open.last().copied(),
                op,
            });
        }
    }

    /// Opens a parent span; spans recorded until [`Tracer::close`] are
    /// its children.
    pub fn open(&mut self, name: &str, op: u64) {
        if self.enabled {
            let now = self.now();
            self.record(name, op, now, now);
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now();
        }
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in kids {
                    let a = a.max(reach).max(s.start);
                    let b = b.min(s.end);
                    if b > a {
                        covered += b - a;
                    }
                    reach = reach.max(b);
                }
                s.secs() - covered
            })
            .collect()
    }

    /// Spans as JSON, plus total and self time summed by span name.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&str, (f64, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1.0;
            e.1 += s.secs();
            e.2 += own;
        }
        let summary = by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("count".into(), Json::Num(count)),
                    ("total_s".into(), Json::Num(total)),
                    ("self_s".into(), Json::Num(own)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, own)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_s".into(), Json::Num(s.start)),
                    ("end_s".into(), Json::Num(s.end)),
                    ("self_s".into(), Json::Num(*own)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op".into(), Json::Num(s.op as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("by_name".into(), Json::Arr(summary)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "p".into(),
                start: 0.0,
                end: 10.0,
                parent: None,
                op: 1,
            },
            Span {
                name: "c1".into(),
                start: 1.0,
                end: 4.0,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "c2".into(),
                start: 3.0,
                end: 5.0,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "c3".into(),
                start: 8.0,
                end: 12.0,
                parent: Some(0),
                op: 1,
            },
        ];
        let own = t.self_times();
        // Children cover [1,5] and [8,10] inside the parent: 6 s.
        assert!((own[0] - 4.0).abs() < 1e-12);
        assert!((own[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.open("p", 0);
        t.close();
        assert!(t.spans().is_empty());
    }
}
