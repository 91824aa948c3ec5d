//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, a parent span and an id shared by
//! every span of one training step or one request. Spans are recorded only
//! while tracing is enabled (one relaxed load otherwise), kept in memory,
//! and written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch for an instant.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking thread")
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name` for step/request `id`, child of the innermost
/// span open on this thread.
pub fn span(name: &'static str, id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = ns(Instant::now());
    let idx = {
        let mut v = spans();
        v.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        v.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = ns(Instant::now());
            STACK.with(|s| s.borrow_mut().pop());
            if let Ok(mut v) = SPANS.lock() {
                v[idx].end_ns = end;
            }
        }
    }
}

/// Record a finished span whose times were measured elsewhere; returns its
/// index for use as a parent.
pub fn record(
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
) -> usize {
    let mut v = spans();
    v.push(Span {
        id,
        name,
        parent,
        start_ns,
        end_ns,
    });
    v.len() - 1
}

/// All spans recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Self time of every span, milliseconds: its duration minus the part its
/// children cover (children of one parent never overlap here: each is a
/// call made in sequence from the parent's thread, or a disjoint stage).
pub fn self_ms(all: &[Span]) -> Vec<f64> {
    let mut child_ms = vec![0.0; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            child_ms[p] += s.dur_ms();
        }
    }
    all.iter()
        .zip(child_ms)
        .map(|(s, c)| s.dur_ms() - c)
        .collect()
}

/// Write the spans as JSON lines under `target/perfbench/`; returns the
/// path written.
pub fn write_out(tag: &str) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new("target").join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{tag}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (i, s) in spans().iter().enumerate() {
        writeln!(
            out,
            "{{\"span\": {i}, \"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}
