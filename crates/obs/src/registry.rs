//! Named metric families and the Prometheus text exposition.
//!
//! Registration allocates (family + child vectors, `Arc` handles); the
//! write path afterwards is alloc-free — callers hold `Arc<Counter>` /
//! `Arc<Histogram>` handles and never touch the registry lock again. The
//! lock is taken only to register (cold) and to scrape.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metric::{bucket_bound, Counter, Gauge, Histogram, BUCKETS};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    /// Label key shared by every child, `None` for unlabeled families.
    label_key: Option<&'static str>,
    /// `(label value, metric)`; a single `("", _)` child when unlabeled.
    children: Vec<(String, Metric)>,
    /// Divisor applied to histogram ticks when rendering (1e9 turns
    /// nanosecond ticks into the `_seconds` unit Prometheus expects).
    scale: f64,
}

/// A set of named metric families with deterministic (sorted-by-name)
/// exposition. See [`Registry::render_prometheus`].
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_register(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        label_key: Option<&'static str>,
        label_value: &str,
        scale: f64,
    ) -> Metric {
        let mut families = self.families.lock().expect("obs registry poisoned");
        let fam = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind && f.label_key == label_key,
                    "metric family {name} re-registered with a different kind or label key"
                );
                f
            }
            None => {
                families.push(Family {
                    name,
                    help,
                    kind,
                    label_key,
                    children: Vec::new(),
                    scale,
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, m)) = fam.children.iter().find(|(v, _)| v == label_value) {
            return clone_metric(m);
        }
        let metric = match kind {
            Kind::Counter => Metric::Counter(Arc::new(Counter::new())),
            Kind::Gauge => Metric::Gauge(Arc::new(Gauge::new())),
            Kind::Histogram => Metric::Histogram(Arc::new(Histogram::new())),
        };
        fam.children
            .push((label_value.to_string(), clone_metric(&metric)));
        metric
    }

    /// Registers (or fetches) an unlabeled counter family.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        match self.get_or_register(name, help, Kind::Counter, None, "", 1.0) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) one labeled child of a counter family.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> Arc<Counter> {
        match self.get_or_register(name, help, Kind::Counter, Some(label_key), label_value, 1.0) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) an unlabeled gauge family.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        match self.get_or_register(name, help, Kind::Gauge, None, "", 1.0) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) an unlabeled histogram family over raw
    /// (unscaled) ticks — e.g. batch sizes or queue depths rather than
    /// durations.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        match self.get_or_register(name, help, Kind::Histogram, None, "", 1.0) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) an unlabeled histogram family recording
    /// nanosecond ticks, rendered in seconds.
    pub fn histogram_seconds(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        match self.get_or_register(name, help, Kind::Histogram, None, "", 1e9) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Registers (or fetches) one labeled child of a nanosecond-tick
    /// histogram family rendered in seconds.
    pub fn histogram_seconds_with(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> Arc<Histogram> {
        match self.get_or_register(
            name,
            help,
            Kind::Histogram,
            Some(label_key),
            label_value,
            1e9,
        ) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Pre-registers a family with no children yet, so its `# HELP` /
    /// `# TYPE` header appears in every scrape (deterministic name set)
    /// even before the first labeled child is created.
    pub fn declare(
        &self,
        name: &'static str,
        help: &'static str,
        kind_histogram: bool,
        label_key: &'static str,
    ) {
        let mut families = self.families.lock().expect("obs registry poisoned");
        if families.iter().any(|f| f.name == name) {
            return;
        }
        families.push(Family {
            name,
            help,
            kind: if kind_histogram {
                Kind::Histogram
            } else {
                Kind::Counter
            },
            label_key: Some(label_key),
            children: Vec::new(),
            scale: if kind_histogram { 1e9 } else { 1.0 },
        });
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Families are sorted by name and children by label value, so the
    /// line ordering (and in particular the metric-*name* set) is
    /// deterministic across runs regardless of registration order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("obs registry poisoned");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by_key(|&i| families[i].name);
        for &i in &order {
            let f = &families[i];
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.as_str());
            let mut children: Vec<&(String, Metric)> = f.children.iter().collect();
            children.sort_by(|a, b| a.0.cmp(&b.0));
            for (value, metric) in children {
                let label = match f.label_key {
                    Some(key) => format!("{{{key}=\"{value}\"}}"),
                    None => String::new(),
                };
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, label, c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", f.name, label, g.get());
                    }
                    Metric::Histogram(h) => render_histogram(&mut out, f, &label, h),
                }
            }
        }
        out
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

fn render_histogram(out: &mut String, f: &Family, label: &str, h: &Histogram) {
    let snap = h.snapshot();
    // `label` is either empty or `{key="value"}`; bucket lines need the
    // `le` label merged in.
    let le_prefix = if label.is_empty() {
        "{le=".to_string()
    } else {
        format!("{},le=", &label[..label.len() - 1])
    };
    let mut cum = 0u64;
    let last_nonempty = snap
        .buckets
        .iter()
        .rposition(|&b| b > 0)
        .unwrap_or(0)
        .min(BUCKETS - 2);
    for (k, b) in snap.buckets.iter().enumerate().take(last_nonempty + 1) {
        cum += b;
        let bound = (bucket_bound(k) as f64 + 1.0) / f.scale;
        let _ = writeln!(
            out,
            "{}_bucket{}\"{:e}\"}} {}",
            f.name, le_prefix, bound, cum
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{}\"+Inf\"}} {}",
        f.name,
        le_prefix,
        snap.count()
    );
    let _ = writeln!(out, "{}_sum{} {}", f.name, label, snap.sum as f64 / f.scale);
    let _ = writeln!(out, "{}_count{} {}", f.name, label, snap.count());
}

// Compile-time pins: scrape handles cross worker threads by design.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Registry>();
    shared_across_threads::<Counter>();
    shared_across_threads::<Gauge>();
    shared_across_threads::<Histogram>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_sorted_and_complete() {
        let r = Registry::new();
        let z = r.counter("z_total", "last family");
        let a = r.histogram_seconds("a_seconds", "first family");
        let g = r.gauge("m_gauge", "middle family");
        z.add(3);
        a.observe(1_000);
        g.set(-7);
        let text = r.render_prometheus();
        let a_pos = text.find("# TYPE a_seconds histogram").unwrap();
        let m_pos = text.find("# TYPE m_gauge gauge").unwrap();
        let z_pos = text.find("# TYPE z_total counter").unwrap();
        assert!(a_pos < m_pos && m_pos < z_pos, "families must sort by name");
        assert!(text.contains("z_total 3"));
        assert!(text.contains("m_gauge -7"));
        assert!(text.contains("a_seconds_count 1"));
        assert!(text.contains("a_seconds_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn labeled_children_render_with_labels() {
        let r = Registry::new();
        let ok = r.counter_with("outcomes_total", "ladder outcomes", "outcome", "exact");
        let bad = r.counter_with("outcomes_total", "ladder outcomes", "outcome", "panicked");
        ok.add(2);
        bad.inc();
        let text = r.render_prometheus();
        assert!(text.contains("outcomes_total{outcome=\"exact\"} 2"));
        assert!(text.contains("outcomes_total{outcome=\"panicked\"} 1"));
        // One header pair for the family, not one per child.
        assert_eq!(text.matches("# TYPE outcomes_total").count(), 1);
    }

    #[test]
    fn same_handle_for_same_name() {
        let r = Registry::new();
        let c1 = r.counter("dup_total", "help");
        let c2 = r.counter("dup_total", "help");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    fn declared_family_renders_header_only() {
        let r = Registry::new();
        r.declare("phase_seconds", "per-phase wall time", true, "phase");
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE phase_seconds histogram"));
        assert!(!text.contains("phase_seconds_count"));
    }
}
