//! The traced pass's span recorder. Spans are taken by the benchmark
//! around its own calls into each layer, kept in memory, and written
//! out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one job share this identifier.
    pub job: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the same boundary, e.g. bytes moved.
    pub counts: Vec<(&'static str, u64)>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, job: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            job,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, and any span an early return left open
    /// inside it.
    pub fn exit(&mut self, id: usize, counts: Vec<(&'static str, u64)>) {
        let end_ns = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == id {
                break;
            }
        }
        self.spans[id].counts = counts;
    }

    /// Self time — span time minus the time its child spans cover —
    /// of the `layer` spans that carry the count `unit`, in
    /// nanoseconds per unit; `None` when those spans count no units.
    /// Per unit of work, it moves with the layer's speed rather than
    /// with how long the benchmark chose to run it.
    pub fn self_ns_per(&self, layer: &str, unit: &str) -> Option<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let (mut ns, mut units) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            if let Some(&(_, n)) = s.counts.iter().find(|(k, _)| *k == unit) {
                ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
                units += n;
            }
        }
        (units > 0).then(|| ns as f64 / units as f64)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.job.map_or("null".into(), |j| j.to_string()),
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        let outer = r.enter("runtime", "job", Some(7));
        let inner = r.enter("compress", "encode", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.exit(inner, vec![("bytes", 4)]);
        r.exit(outer, vec![("iterations", 1)]);
        let compress = r.self_ns_per("compress", "bytes").unwrap();
        assert!(compress >= 20e6 / 4.0);
        assert!(r.self_ns_per("runtime", "iterations").unwrap() < 4.0 * compress);
        assert_eq!(r.self_ns_per("compress", "iterations"), None);
        assert_eq!(r.self_ns_per("fabric", "bytes"), None);
        let lines = r.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        // An outer exit also closes a span left open inside it.
        let outer = r.enter("bench", "probe", None);
        r.enter("fabric", "bulk", None);
        r.exit(outer, Vec::new());
        assert!(r.open.is_empty());
        assert!(lines.contains("\"parent\":0,\"job\":7,\"layer\":\"compress\""));
        assert!(lines.contains("\"counts\":{\"bytes\":4}"));
    }
}
