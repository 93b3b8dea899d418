//! In-memory span recording around the benchmark's own calls into each
//! layer. A span has a name, a start and an end, the span that caused it,
//! and the block (or request) it served. Per-event calls are timed in
//! groups of [`STRIDE`] events, or, where calls of two layers alternate
//! per event, on one event out of [`STRIDE`]: such a span carries
//! `weight = STRIDE` and stands for the untimed calls around it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One per-event call in this many is timed.
pub const STRIDE: usize = 16;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub block: u64,
    pub weight: u32,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// What an empty span measures: the clock reads and the span
    /// bookkeeping, subtracted from every span's duration.
    overhead_ns: u64,
    /// A disabled tracer reads no clock and records nothing: the same
    /// code path, untraced, for the tracing-overhead comparison.
    enabled: bool,
}

impl Tracer {
    /// A tracer whose times count from `origin`, calibrated for its own
    /// overhead.
    pub fn at(origin: Instant) -> Tracer {
        let mut t = Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            overhead_ns: 0,
            enabled: true,
        };
        for _ in 0..1_000 {
            t.time("calibrate", None, 0, 1, || ());
        }
        let mut empty: Vec<u64> = t.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        empty.sort_unstable();
        t.overhead_ns = empty[empty.len() / 2];
        t.spans.clear();
        t
    }

    pub fn disabled() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            overhead_ns: 0,
            enabled: false,
        }
    }

    /// A span's duration net of the tracer's own overhead, times its weight.
    fn estimated_ns(&self, s: &Span) -> f64 {
        (s.end_ns - s.start_ns).saturating_sub(self.overhead_ns) as f64 * f64::from(s.weight)
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, block: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            block,
            weight: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Record a span timed by the caller with [`Tracer::now`].
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        block: u64,
        weight: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            block,
            weight,
        });
    }

    /// Run `f` inside a span of weight `weight`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        block: u64,
        weight: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(name, parent, block);
        let out = f();
        self.close(id);
        self.spans[id].weight = weight;
        out
    }

    /// Estimated total (not self) time of spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.estimated_ns(s)).sum()
    }

    /// Number of calls spans named `name` stand for.
    pub fn calls(&self, name: &str) -> f64 {
        self.named(name).map(|s| f64::from(s.weight)).sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Share of the time under root spans named `root` that each named
    /// child layer covers by its self time; the root's own self time is
    /// the unattributed part, reported under `"unattributed"`.
    pub fn shares(&self, root: &'static str) -> BTreeMap<&'static str, f64> {
        let mut under: Vec<bool> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let inside = s.name == root || s.parent.is_some_and(|p| under[p]);
            under.push(inside);
        }
        let mut wall = 0.0;
        let mut own: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, inside) in self.spans.iter().zip(&under) {
            if !inside {
                continue;
            }
            let ns = self.estimated_ns(s);
            if s.name == root {
                wall += ns;
            }
            *own.entry(s.name).or_default() += ns;
            if let Some(p) = s.parent {
                *own.entry(self.spans[p].name).or_default() -= ns;
            }
        }
        if let Some(rest) = own.remove(root) {
            own.insert("unattributed", rest);
        }
        own.values_mut().for_each(|v| *v /= wall.max(1.0));
        own
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "# span overhead {} ns", self.overhead_ns)?;
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tblock\tweight")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.block, s.weight
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        weight: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            block: 0,
            weight,
        }
    }

    #[test]
    fn self_time_subtracts_weighted_children() {
        let mut t = Tracer::at(Instant::now());
        t.overhead_ns = 0;
        t.spans = vec![
            span("root", 0, 1_000, None, 1),
            span("a", 10, 20, Some(0), 16),
            span("a", 500, 510, Some(0), 16),
            span("b", 600, 700, Some(0), 1),
        ];
        assert_eq!(t.total_ns("a"), 320.0);
        assert_eq!(t.calls("a"), 32.0);
        let shares = t.shares("root");
        assert_eq!(shares["a"], 0.32);
        assert_eq!(shares["b"], 0.1);
        assert_eq!(shares["unattributed"], 0.58);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let root = t.open("root", None, 0);
        assert_eq!(t.time("a", Some(root), 0, 1, || 7), 7);
        t.record("b", Some(root), 0, 1, t.now(), t.now());
        t.close(root);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn calibration_subtracts_the_empty_span_cost() {
        let mut t = Tracer::at(Instant::now());
        t.overhead_ns = 5;
        t.spans = vec![span("a", 0, 105, None, 2), span("b", 0, 3, None, 1)];
        assert_eq!(t.total_ns("a"), 200.0);
        assert_eq!(t.total_ns("b"), 0.0);
    }

    #[test]
    fn shares_ignore_spans_outside_the_root() {
        let mut t = Tracer::at(Instant::now());
        t.overhead_ns = 0;
        t.spans = vec![
            span("root", 0, 100, None, 1),
            span("a", 0, 50, Some(0), 1),
            span("probe", 200, 400, None, 1),
            span("a", 200, 300, Some(2), 1),
        ];
        let shares = t.shares("root");
        assert_eq!(shares["a"], 0.5);
        assert!(!shares.contains_key("probe"));
    }
}
