//! Spans recorded from outside the program, around calls into each
//! layer's public functions: name, start, end, parent, request id. Kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The root span of one traced request; everything the request path
/// calls is a descendant.
pub const REQUEST: &str = "request";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name`, a child of the innermost open
    /// span, tagged with the current request id.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Runs `f` as the root span of request `req`.
    pub fn request<T>(&mut self, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.req = req;
        self.span(REQUEST, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children (which lie inside it, since spans nest).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name self-time totals in nanoseconds, and for each request root
/// the share of its duration covered by named child spans.
pub struct Attribution {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub coverage: Vec<f64>,
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let own = self_times(spans);
    let mut self_ns = BTreeMap::new();
    let mut coverage = Vec::new();
    for (s, &t) in spans.iter().zip(&own) {
        if s.name == REQUEST && s.parent.is_none() {
            let dur = s.dur_ns().max(1) as f64;
            coverage.push(1.0 - t as f64 / dur);
        } else {
            *self_ns.entry(s.name).or_insert(0) += t;
        }
    }
    Attribution { self_ns, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ a [10,60) ⊃ b [20,40); request ⊃ c [70,90).
        let spans = vec![
            span(REQUEST, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 40, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20]);
        let a = attribute(&spans);
        assert_eq!(a.self_ns.get("a"), Some(&30));
        assert_eq!(a.self_ns.get("b"), Some(&20));
        assert_eq!(a.self_ns.get(REQUEST), None);
        assert_eq!(a.coverage, vec![0.7]);
    }

    #[test]
    fn same_named_spans_sum_and_probe_roots_are_not_requests() {
        let spans = vec![
            span(REQUEST, 0, 10, None),
            span("x", 0, 4, Some(0)),
            span("x", 5, 10, Some(0)),
            span("probe", 20, 30, None),
        ];
        let a = attribute(&spans);
        assert_eq!(a.self_ns.get("x"), Some(&9));
        assert_eq!(a.self_ns.get("probe"), Some(&10));
        assert_eq!(a.coverage, vec![0.9]);
    }

    #[test]
    fn tracer_nests_spans_under_the_request() {
        let mut tr = Tracer::default();
        let v = tr.request(7, |tr| tr.span("inner", |tr| tr.span("leaf", |_| 42)));
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].req), (REQUEST, None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("leaf", Some(1)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(self_times(s).iter().zip(s).all(|(&t, sp)| t <= sp.dur_ns()));
    }
}
