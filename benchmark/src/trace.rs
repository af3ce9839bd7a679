//! Spans recorded from outside the product: the benchmark wraps each call
//! into a layer's public function, keeps the spans in memory, and writes
//! them out when the run ends. Spans of one op share `op`; a span's
//! `parent` is the span that was open when it started (0 = none).

use crate::spec::LAYERS;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Layer name of an op's root span: the benchmark's own glue between
/// calls into the product. Its self time is what no layer accounts for.
pub const HARNESS: &str = "harness";

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Disabled recorders run the closure and
/// record nothing, so a decomposed op can be replayed without tracing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// First id this recorder hands out; concurrent recorders get
    /// disjoint ranges so merged traces keep unique ids.
    id_base: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, id_base: u32) -> Self {
        Tracer {
            on,
            epoch,
            id_base,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op; spans recorded until the next call share it.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Times `f` as a span of `layer`. Nested calls become children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let id = self.id_base + idx as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// A position in the span list, for `layer_ns_since`.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Time spent in spans of `layer` recorded since `mark`, ns.
    pub fn layer_ns_since(&self, mark: usize, layer: &str) -> u64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer self time over a set of spans.
pub struct SelfTimes {
    /// Σ root-span (op) durations, ns.
    pub op_wall_ns: u64,
    /// Self time per layer, ns (`harness` included).
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl SelfTimes {
    /// Share of traced op wall spent inside calls into the product's
    /// layers (everything but the harness's own glue), in percent.
    pub fn cover_pct(&self) -> f64 {
        if self.op_wall_ns == 0 {
            return 0.0;
        }
        let layers: u64 = LAYERS
            .iter()
            .map(|l| self.by_layer.get(l).copied().unwrap_or(0))
            .sum();
        100.0 * layers as f64 / self.op_wall_ns as f64
    }

    pub fn share(&self, layer: &str) -> f64 {
        if self.op_wall_ns == 0 {
            return 0.0;
        }
        self.by_layer.get(layer).copied().unwrap_or(0) as f64 / self.op_wall_ns as f64
    }
}

/// A span's self time is its duration minus what its children cover.
/// Children of one parent never overlap (one recorder is one thread), so
/// their durations simply add.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
        }
    }
    let mut out = SelfTimes {
        op_wall_ns: 0,
        by_layer: BTreeMap::new(),
    };
    for s in spans {
        if s.parent == 0 {
            out.op_wall_ns += s.dur_ns();
        }
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.by_layer.entry(s.layer).or_insert(0) += own;
    }
    out
}

/// Median duration (in `scale` units per ns, e.g. 1e-3 for µs) of the
/// spans named `name`; 0 when the workload never made that call.
pub fn median_span(spans: &[Span], name: &str, scale: f64) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * scale)
        .collect();
    crate::stats::median(&mut v)
}

pub fn write_trace(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"span_count\":{},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.parent,
            s.op,
            s.layer,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}
