//! In-memory span recording for the traced run. Spans are taken in the
//! benchmark's own code around calls into each layer's public API, kept in
//! memory, and written out once the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The enclosing span's id, 0 at a root.
    parent: u64,
    /// Shared by every span of one request (a round, a read, a replayed batch).
    request: u64,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span or request id. Ids only name spans, so `Relaxed` suffices.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        };
        self.spans.lock().expect("span log lock").push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// Write every span as tab-separated `id name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Time `f`; when `log` is set, also record it as span `name` under
/// `parent` of `request`. Returns `f`'s result and its duration in seconds.
pub fn timed<T>(
    log: Option<&SpanLog>,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(l) = log {
        l.record(l.id(), name, start, end, parent, request);
    }
    (out, (end - start).as_secs_f64())
}
