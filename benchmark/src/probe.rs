//! Host-time spans recorded from the benchmark's own files, around the
//! calls into each layer. Spans stay in memory; the parent writes them out
//! as Chrome-trace JSON when the run ends.

use std::time::Instant;

/// One timed interval: a call into a layer, or a phase enclosing such calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`"pami.Machine::new"`, `"run"`, ...).
    pub name: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Start, ns since the probe was created.
    pub start_ns: u64,
    /// End, ns since the probe was created.
    pub end_ns: u64,
    /// Counts read through the layers' public accessors at this boundary.
    pub counts: Vec<(String, u64)>,
}

/// Times calls and, when tracing, keeps a span for each.
pub struct Probe {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Probe {
    /// A probe whose clock starts now. With `tracing` off it still times
    /// (two clock reads per call) but records nothing.
    pub fn new(tracing: bool) -> Probe {
        Probe {
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Run `f` as span `name`; returns its result and its duration in
    /// seconds. Spans opened by `f` through the probe it is handed nest
    /// under this one.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Probe) -> R) -> (R, f64) {
        let start = self.epoch.elapsed();
        if self.tracing {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                start_ns: start.as_nanos() as u64,
                end_ns: 0,
                counts: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
        }
        let out = f(self);
        let end = self.epoch.elapsed();
        if self.tracing {
            let id = self.open.pop().expect("span opened above");
            self.spans[id].end_ns = end.as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// The spans recorded so far, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, ns: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut upto) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(upto), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of several span lists,
/// one per workload repeat: each list becomes one process, whose `pid` is
/// the trace id its spans share. `args` carry the span id, its parent, its
/// self time and its counts.
pub fn chrome_trace(traces: &[(String, Vec<Span>)]) -> String {
    let mut o = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, (label, spans)) in traces.iter().enumerate() {
        let pid = pid + 1;
        if !first {
            o.push(',');
        }
        first = false;
        o.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":"
        ));
        desim::json::push_str(&mut o, label);
        o.push_str("}}");
        let selfs = self_ns(spans);
        for (id, s) in spans.iter().enumerate() {
            o.push_str(",{\"name\":");
            desim::json::push_str(&mut o, &s.name);
            o.push_str(&format!(
                ",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{},\"self_us\":{}",
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                selfs[id] as f64 / 1e3,
            ));
            for (k, v) in &s.counts {
                o.push(',');
                desim::json::push_str(&mut o, k);
                o.push_str(&format!(":{v}"));
            }
            o.push_str("}}");
        }
    }
    o.push_str("]}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".to_string(),
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(None, 0, 100),     // children cover 10..40 and 50..70
            span(Some(0), 10, 40),  // its child covers 20..30
            span(Some(1), 20, 30),  // leaf
            span(Some(0), 50, 70),  // leaf
            span(Some(0), 60, 65),  // overlaps the previous: counted once
            span(Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_ns(&spans), vec![40, 20, 10, 20, 5, 30]);
    }

    #[test]
    fn probe_nests_and_records_only_when_tracing() {
        let mut p = Probe::new(true);
        let (v, secs) = p.span("outer", |p| {
            p.span("inner", |p| p.count("n", 7));
            3
        });
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        let spans = p.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("n".to_string(), 7)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_trace(&[("w".to_string(), spans)]);
        assert!(desim::json::parse(&json).is_ok(), "{json}");

        let mut off = Probe::new(false);
        off.span("outer", |p| p.count("n", 1));
        assert!(off.into_spans().is_empty());
    }
}
