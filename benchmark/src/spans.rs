//! In-memory spans recorded around the benchmark's calls into each
//! layer. Only the traced pass records; the end-to-end passes run with
//! a disabled tracer, which costs one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `admission.arrive_repack`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The work item this span belongs to.
    pub item: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`usize::MAX` from a disabled tracer).
pub type SpanId = usize;

/// Records nested spans; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, item: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            item,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Renames span `id`, for a layer known only once the call
    /// returned (an admission decision's class).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if self.enabled {
            self.spans[id].name = name;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: its spans' total self time (duration minus the
    /// part its child spans cover) in seconds, and its span durations
    /// in microseconds.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.self_s += span.duration_ns().saturating_sub(children) as f64 / 1e9;
            layer.durations_us.push(span.duration_ns() as f64 / 1e3);
        }
        layers
    }

    /// Total duration of the root spans, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// The spans as TSV: `name start_ns end_ns parent item`, with `-`
    /// for a root span's parent.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\titem\n");
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, parent, span.item
            );
        }
        out
    }
}

/// One layer's aggregate over a traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Total self time, seconds.
    pub self_s: f64,
    /// Every span's duration, microseconds, in recording order.
    pub durations_us: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let root = t.begin("root", 1);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let layers = t.layers();
        let child_s = layers["child"].self_s;
        assert!(child_s >= 0.002);
        assert!(layers["root"].self_s < child_s);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!((t.busy_s() - (layers["root"].self_s + child_s)).abs() < 1e-9);
        assert!(t.to_tsv().lines().nth(1).unwrap().starts_with("root\t"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 0);
        t.rename(id, "y");
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.busy_s(), 0.0);
    }
}
