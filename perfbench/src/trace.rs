//! Span recording for the traced run. Spans live only in the benchmark:
//! each wraps one call into a crate's public API. A layer whose calls
//! happen inside another layer's call (the program has no spans of its
//! own) is replayed right after its parent on the same inputs and
//! recorded as that parent's child, so a layer's self time is the sum
//! of its spans minus the sum of its children's spans on the same work.
//! The difference is taken over the whole layer, not span by span, so
//! replay noise in either direction cancels instead of being clipped.

use crate::report::Report;
use awesym_obs::now_ns;
use std::collections::BTreeMap;

pub const NO_PARENT: usize = usize::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: usize,
    start: u64,
    dur: u64,
    /// Work units (points, samples, messages) the call handled.
    units: u64,
}

pub struct Tracer {
    pub on: bool,
    spans: Vec<Span>,
}

/// One layer's totals over a run.
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub units: u64,
    pub total_ns: u64,
    /// Summed duration of the replayed child spans.
    pub child_ns: u64,
    /// `total_ns - child_ns`, clamped at zero once for the whole layer.
    pub self_ns: u64,
    /// Spans whose replayed children took longer than the span itself.
    pub clamped: u64,
}

impl Layer {
    pub fn self_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }

    pub fn self_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    /// Share of this layer's spans shorter than their replayed children,
    /// or `None` for a leaf layer. Near 50 % the self time is replay noise.
    pub fn clamped_pct(&self) -> Option<f64> {
        (self.child_ns > 0).then(|| 100.0 * self.clamped as f64 / self.calls.max(1) as f64)
    }
}

/// Aggregated layers plus the roots' total (the traced end-to-end time).
pub struct Table {
    pub layers: BTreeMap<&'static str, Layer>,
    pub root_ns: u64,
    pub root_calls: u64,
}

impl Table {
    pub fn get(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Sum of every non-root layer's self time.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }

    pub fn unattributed_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * (self.root_ns as f64 - self.attributed_ns() as f64) / self.root_ns as f64
    }

    pub fn print(&self, title: &str) {
        println!(
            "layer table ({title}): {} root spans, traced end-to-end {:.3} ms total",
            self.root_calls,
            self.root_ns as f64 / 1e6
        );
        println!("  (clamped%: share of a layer's spans shorter than their replayed children)");
        println!(
            "  {:<26} {:>9} {:>11} {:>12} {:>12} {:>7} {:>9}",
            "layer", "calls", "units", "self_ms", "self/unit_ns", "share%", "clamped%"
        );
        for (name, l) in &self.layers {
            println!(
                "  {:<26} {:>9} {:>11} {:>12.3} {:>12.1} {:>7.2} {:>9}",
                name,
                l.calls,
                l.units,
                l.self_ns as f64 / 1e6,
                l.self_per_unit(),
                100.0 * l.self_ns as f64 / self.root_ns.max(1) as f64,
                l.clamped_pct()
                    .map_or_else(|| "-".into(), |p| format!("{p:.1}"))
            );
        }
        println!("  unattributed {:.3}%", self.unattributed_pct());
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: usize, units: u64) -> usize {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            start: now_ns(),
            dur: 0,
            units,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if id != NO_PARENT {
            let s = &mut self.spans[id];
            s.dur = now_ns() - s.start;
        }
    }

    /// Makes `id` a child of `parent`, for a child replayed before its
    /// parent's span was opened.
    pub fn set_parent(&mut self, id: usize, parent: usize) {
        if id != NO_PARENT {
            self.spans[id].parent = parent;
        }
    }

    /// Self time per layer: its spans' summed duration minus their
    /// children's. Root spans (no parent) form the traced end-to-end total.
    pub fn table(&self) -> Table {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent] += s.dur;
            }
        }
        let mut t = Table {
            layers: BTreeMap::new(),
            root_ns: 0,
            root_calls: 0,
        };
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                t.root_ns += s.dur;
                t.root_calls += 1;
                continue;
            }
            let l = t.layers.entry(s.name).or_default();
            l.calls += 1;
            l.units += s.units;
            l.total_ns += s.dur;
            l.child_ns += child[i];
            l.clamped += u64::from(child[i] > s.dur);
        }
        for l in t.layers.values_mut() {
            l.self_ns = l.total_ns.saturating_sub(l.child_ns);
        }
        t
    }
}

/// Reports a metric computed from `layer`'s self time; for a layer with
/// replayed children, also prints the layer's clamped-span share next to
/// it, so a self time that is mostly replay noise can be told apart.
pub fn layer_metric(
    report: &mut Report,
    table: &Table,
    name: &str,
    layer: &str,
    value: f64,
    unit: &str,
) {
    report.metric(name, value, unit);
    if let Some(p) = table.get(layer).clamped_pct() {
        report.note(&format!(
            "  {name}: {p:.1}% of {layer} spans shorter than their replayed children"
        ));
    }
}
