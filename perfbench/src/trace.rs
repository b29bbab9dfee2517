//! The traced run's span recorder. Spans are taken from outside, around
//! calls into each layer's public functions, kept in memory, and
//! written out once when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type SpanId = usize;

/// The root layer whose self time no layer claims: glue between layer
/// calls inside the benchmark's own recomposition of a path.
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
struct Span {
    phase: &'static str,
    layer: String,
    parent: Option<SpanId>,
    request: Option<u64>,
    /// Nanoseconds since the tracer started; a span recorded early can
    /// start before that.
    start_ns: i64,
    end_ns: i64,
    /// Children ran on several threads at once: the span's wall time is
    /// shared among them in proportion to their own durations.
    parallel: bool,
}

/// Per-layer self time of one phase, plus its root (operation) spans.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimes {
    /// Root spans: one per measured operation.
    pub ops: usize,
    /// Wall time of all root spans.
    pub root_ns: f64,
    /// Self time by layer, over all operations.
    pub self_ns: BTreeMap<String, f64>,
}

impl PhaseTimes {
    /// Self time per operation of every layer but [`UNATTRIBUTED`], summed.
    pub fn layer_sum_per_op(&self) -> f64 {
        let sum: f64 = self
            .self_ns
            .iter()
            .filter(|(layer, _)| layer.as_str() != UNATTRIBUTED)
            .map(|(_, ns)| ns)
            .sum();
        sum / self.ops.max(1) as f64
    }

    /// One layer's self time per operation.
    pub fn per_op(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Root wall time per operation.
    pub fn root_per_op(&self) -> f64 {
        self.root_ns / self.ops.max(1) as f64
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> i64 {
        self.epoch.elapsed().as_nanos() as i64
    }

    fn open(
        &self,
        phase: &'static str,
        layer: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        parallel: bool,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(Span {
            phase,
            layer: layer.to_owned(),
            parent,
            request,
            start_ns,
            end_ns: start_ns,
            parallel,
        });
        spans.len() - 1
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer lock")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(
        &self,
        phase: &'static str,
        layer: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(phase, layer, parent, request, false);
        let out = f(id);
        self.close(id);
        out
    }

    /// Runs `f` inside a span whose children run on several threads.
    pub fn parallel<R>(
        &self,
        phase: &'static str,
        layer: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(phase, layer, parent, None, true);
        let out = f(id);
        self.close(id);
        out
    }

    /// Records a span timed elsewhere: the same call on the same input,
    /// run outside its parent's interval because the parent's work
    /// happens where no span can reach (inside the server, or inside a
    /// facade call that does it internally).
    pub fn record(
        &self,
        phase: &'static str,
        layer: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        duration: Duration,
    ) -> SpanId {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(Span {
            phase,
            layer: layer.to_owned(),
            parent,
            request,
            start_ns: end_ns - duration.as_nanos() as i64,
            end_ns,
            parallel: false,
        });
        spans.len() - 1
    }

    /// Self time per layer for `phase`: each span's attributed duration
    /// minus its children's. A parallel span hands all of its wall time
    /// to its children, in proportion to their durations.
    pub fn phase_times(&self, phase: &str) -> PhaseTimes {
        let spans = self.spans.lock().expect("span buffer lock");
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let mut child_sum = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_sum[p] += dur(s);
            }
        }
        // Spans are pushed when they open, so a parent precedes its
        // children and one forward pass resolves every scale.
        let mut scale = vec![1.0f64; spans.len()];
        let mut attributed = vec![0.0f64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                scale[i] = scale[p];
                if parent.parallel && child_sum[p] > 0.0 {
                    scale[i] *= dur(parent) / child_sum[p];
                }
            }
            attributed[i] = dur(s) * scale[i];
        }
        let mut children_attr = vec![0.0f64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children_attr[p] += attributed[i];
            }
        }
        let mut out = PhaseTimes::default();
        for (i, s) in spans.iter().enumerate() {
            if s.phase != phase {
                continue;
            }
            if s.parent.is_none() {
                out.ops += 1;
                out.root_ns += dur(s);
            }
            *out.self_ns.entry(s.layer.clone()).or_default() += attributed[i] - children_attr[i];
        }
        out
    }

    /// Every span as one JSON document (times in microseconds since the
    /// tracer started).
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer lock");
        let items: Vec<serde_json::Value> = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "parent": s.parent,
                    "phase": s.phase,
                    "name": s.layer,
                    "request": s.request,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                    "parallel": s.parallel,
                })
            })
            .collect();
        serde_json::to_string(&serde_json::Value::Array(items)).expect("span JSON")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleep_ms(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let tr = Tracer::default();
        tr.span("p", UNATTRIBUTED, None, None, |root| {
            tr.span("p", "a", Some(root), None, |a| {
                sleep_ms(4);
                tr.span("p", "b", Some(a), None, |_| sleep_ms(6));
            });
            let t = Instant::now();
            sleep_ms(3);
            tr.record("p", "c", Some(root), None, t.elapsed());
        });
        let t = tr.phase_times("p");
        assert_eq!(t.ops, 1);
        let total: f64 = t.self_ns.values().sum();
        assert!((total - t.root_ns).abs() < 1.0, "{total} vs {}", t.root_ns);
        assert!(t.per_op("b") >= 6e6 && t.per_op("a") >= 4e6 && t.per_op("c") >= 3e6);
        assert!(t.per_op("a") < 6e6, "a excludes its child b");
        assert!(t.per_op(UNATTRIBUTED) >= 0.0);
        assert!(t.layer_sum_per_op() <= t.root_per_op());
    }

    #[test]
    fn parallel_children_share_the_region_wall_time() {
        let tr = Tracer::default();
        tr.span("p", UNATTRIBUTED, None, None, |root| {
            tr.parallel("p", "region", Some(root), |region| {
                tr.record("p", "x", Some(region), None, Duration::from_millis(30));
                tr.record("p", "y", Some(region), None, Duration::from_millis(10));
                sleep_ms(20);
            });
        });
        let t = tr.phase_times("p");
        let (x, y) = (t.per_op("x"), t.per_op("y"));
        assert!((x / y - 3.0).abs() < 1e-9, "shares follow durations");
        assert!(
            t.per_op("region").abs() < 1.0,
            "a region keeps no self time"
        );
        let region_wall = t.root_ns - t.per_op(UNATTRIBUTED);
        assert!((x + y - region_wall).abs() < 1.0);
    }

    #[test]
    fn phases_are_kept_apart() {
        let tr = Tracer::default();
        tr.span("one", "a", None, Some(1), |_| ());
        tr.span("two", "a", None, Some(2), |_| ());
        tr.span("two", "a", None, Some(3), |_| ());
        assert_eq!(tr.phase_times("one").ops, 1);
        assert_eq!(tr.phase_times("two").ops, 2);
        let doc: serde_json::Value = serde_json::from_str(&tr.to_json()).expect("valid JSON");
        assert_eq!(doc.as_array().map(Vec::len), Some(3));
    }
}
