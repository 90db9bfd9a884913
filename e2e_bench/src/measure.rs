//! Measurement plumbing: the run budget, order statistics, per-run
//! peak RSS, and the in-memory span recorder of the traced run.

use std::io::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Repeats a measured body until the run's time budget is spent.
pub struct Budget {
    deadline: Instant,
    min_reps: usize,
    done: usize,
}

impl Budget {
    /// A budget of `seconds` from now that still runs at least
    /// `min_reps` repetitions.
    pub fn new(seconds: f64, min_reps: usize) -> Budget {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_reps,
            done: 0,
        }
    }

    /// Whether another repetition should start.
    pub fn next(&mut self) -> bool {
        let go = self.done < self.min_reps || Instant::now() < self.deadline;
        if go {
            self.done += 1;
        }
        go
    }
}

/// Median of the samples (the mean of the middle two for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of the samples; 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(name, value)` pairs with owned names.
pub fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// Per-name medians over samples; a name missing from a sample (a
/// repetition that failed) is left out of that name's median.
pub fn median_by_name(samples: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let mut names: Vec<&String> = Vec::new();
    for (name, _) in samples.iter().flatten() {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = samples
                .iter()
                .flatten()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            (name.clone(), median(&values))
        })
        .collect()
}

/// Runs `f` inside a span named `name` under `parent` when tracing,
/// or just runs it.
pub fn span<T>(parent: Option<(&Trace, usize, u64)>, name: &str, f: impl FnOnce() -> T) -> T {
    let Some((trace, id, request)) = parent else {
        return f();
    };
    let child = trace.open(name, Some(id), request);
    let out = f();
    trace.close(child);
    out
}

/// FNV-1a hash of a byte stream: the token a checked output is
/// compared by.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hash of a label sequence.
pub fn hash_labels(labels: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(labels.into_iter().flat_map(u64::to_le_bytes))
}

/// Resets this process's resident-set high-water mark (`VmHWM`) to
/// its current RSS, so the next [`peak_rss_mb`] describes what happened
/// since. Where the kernel refuses, the peak spans the process so far.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("mrmc-e2e-bench: cannot reset the RSS high-water mark: {e}");
    }
}

/// The resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a layer call made by the benchmark.
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request or run share this identifier.
    pub request: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span ledger, shared by the threads of one run and
/// written out when the benchmark ends.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.origin.elapsed();
        let mut spans = self.spans();
        spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let now = self.origin.elapsed();
        let mut spans = self.spans();
        spans[id].end = now;
        spans[id].secs()
    }

    /// Duration in seconds of the latest direct child of `parent`
    /// named `name`; 0 if there is none.
    pub fn child_secs(&self, parent: usize, name: &str) -> f64 {
        self.spans()
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent) && s.name == name)
            .map_or(0.0, Span::secs)
    }

    /// Share of span `root`'s duration covered by its direct children.
    pub fn coverage(&self, root: usize) -> f64 {
        let spans = self.spans();
        let covered: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum();
        covered / spans[root].secs().max(f64::MIN_POSITIVE)
    }

    /// Appends the spans as JSON lines (microseconds since the trace
    /// began) to `path`, creating its directory.
    pub fn append_to(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"request\":{}}}\n",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.request
            ));
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn coverage_counts_direct_children() {
        let t = Trace::default();
        let root = t.open("run", None, 0);
        span(Some((&t, root, 0)), "a", || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.close(root);
        let c = t.coverage(root);
        assert!(c > 0.5 && c <= 1.0, "{c}");
    }
}
