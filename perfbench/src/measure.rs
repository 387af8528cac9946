//! Measurement primitives: percentile samples, in-memory spans, answer
//! checksums, peak resident memory, and the result record every workload
//! fills in.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use kvcc::KVertexConnectedComponent;

/// A bag of timings (or sizes) with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        self.values.extend(values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The 1-based rank the nearest-rank method picks for percentile `p`
    /// (0 < p <= 100) out of `n` samples: `ceil(p / 100 * n)`, at least 1.
    pub fn rank(n: usize, p: f64) -> usize {
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
    }

    /// Nearest-rank percentile; 0 for an empty sample.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        self.values[Self::rank(self.values.len(), p) - 1]
    }

    /// How many samples lie beyond the percentile's rank — the guide for
    /// whether a tail percentile is backed by enough observations.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        n - Self::rank(n, p)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// The tail the sample supports: the 99th percentile when at least ten
    /// samples lie beyond it, otherwise the highest rank that still has ten
    /// beyond it (never below the median).
    pub fn tail(&mut self) -> f64 {
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        self.sort();
        let rank = Self::rank(n, 99.0)
            .min(n.saturating_sub(10))
            .max(Self::rank(n, 50.0));
        self.values[rank - 1]
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One recorded span: a named interval on one thread, with the span that
/// was open around it and the request it served.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory, one tracer per thread; [`Tracer::absorb`] merges
/// them. A disabled tracer runs the wrapped closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32, enabled: bool) -> Self {
        Tracer {
            origin,
            thread,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Records an already measured interval.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
            thread: self.thread,
        });
        self.spans.len() - 1
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn durations(&self, name: &str) -> impl Iterator<Item = Duration> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration)
    }

    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).sum()
    }

    /// Per span: its duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, inner)| span.duration().saturating_sub(inner))
            .collect()
    }

    /// Summed self time of every span named `name`.
    pub fn self_total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(span, _)| span.name == name)
            .map(|(_, own)| own)
            .sum()
    }

    /// Writes the first `limit` spans as JSON lines (times in microseconds
    /// since the run started); the metrics use every span.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate().take(limit) {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"request\": {}, \"thread\": {}}}",
                span.name,
                micros(span.start),
                micros(span.end),
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.request,
                span.thread
            )?;
        }
        out.flush()
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Checksum of a component list in the order given (enumeration output is
/// sorted, so equal sets give equal sums).
pub fn components_checksum(components: &[KVertexConnectedComponent]) -> u64 {
    let mut bytes = Vec::new();
    for c in components {
        bytes.extend_from_slice(&(c.len() as u32).to_le_bytes());
        for &v in c.vertices() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&(components.len() as u64).to_le_bytes()) ^ fnv1a(&bytes).rotate_left(1)
}

/// Peak resident set of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: operation counts, the two metric sets, and
/// human-readable report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a false `ok` is a failure and its
    /// description is kept for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and the chosen
    /// metric set.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut body = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_sample_counts() {
        let mut s = Samples::new();
        s.extend((1..=100).rev().map(f64::from));
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.beyond(50.0), 50);
        assert_eq!(s.beyond(99.0), 1);

        // Ten samples: the median is the 5th, p99 is the maximum with
        // nothing beyond it.
        let mut small = Samples::new();
        small.extend([7.0, 3.0, 9.0, 1.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]);
        assert_eq!(small.median(), 5.0);
        assert_eq!(small.percentile(99.0), 10.0);
        assert_eq!(small.beyond(99.0), 0);
        assert_eq!(Samples::rank(1, 50.0), 1);

        // The supported tail: p99 once ten samples lie beyond it, else the
        // rank ten below the top, never below the median.
        let mut many = Samples::new();
        many.extend((1..=2000).map(f64::from));
        assert_eq!(many.tail(), 1980.0);
        let mut thirty = Samples::new();
        thirty.extend((1..=30).map(f64::from));
        assert_eq!(thirty.tail(), 20.0);
        assert_eq!(small.tail(), 5.0);
        assert_eq!(Samples::new().percentile(50.0), 0.0);
        assert_eq!(Samples::new().beyond(99.0), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        let ms = Duration::from_millis;
        let root = t.record("root", ms(0), ms(100), None, 1);
        let a = t.record("child", ms(10), ms(40), Some(root), 1);
        t.record("grandchild", ms(15), ms(35), Some(a), 1);
        t.record("child", ms(50), ms(60), Some(root), 1);
        assert_eq!(t.total("child"), ms(40));
        assert_eq!(t.self_total("root"), ms(60));
        assert_eq!(t.self_total("child"), ms(20));
        assert_eq!(t.self_total("grandchild"), ms(20));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_survive_a_merge() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, 0, true);
        main.span("outer", 0, |t| t.span("inner", 7, |_| ()));
        let mut other = Tracer::new(origin, 1, true);
        other.span("outer", 0, |t| t.span("inner", 8, |_| ()));
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, 8);
        assert!(main.self_total("outer") <= main.total("outer"));

        let mut off = Tracer::new(origin, 0, false);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn checksum_depends_on_membership() {
        let a = vec![KVertexConnectedComponent::new(vec![0, 1, 2])];
        let b = vec![KVertexConnectedComponent::new(vec![0, 1, 3])];
        assert_eq!(components_checksum(&a), components_checksum(&a.clone()));
        assert_ne!(components_checksum(&a), components_checksum(&b));
        assert_ne!(components_checksum(&a), components_checksum(&[]));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.e2e("setup_s", 0.5, "s");
        o.layer("flow.probes", 3.0, "count");
        assert_eq!(
            o.result_json(false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(o
            .result_json(true)
            .contains("\"flow.probes\": {\"value\": 3, \"unit\": \"count\"}"));
        o.check(false, || "boom".into());
        assert!(o
            .result_json(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
