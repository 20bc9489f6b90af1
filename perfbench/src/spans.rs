//! In-memory spans around the public calls the benchmark makes, written
//! out as JSON lines when a traced run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique in the process.
    pub id: u64,
    /// The call, e.g. `"System::submit"`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The job trace id, swap index or sweep cell the call served.
    pub subject: u64,
}

/// A per-thread span recorder; disabled recorders cost one branch.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    /// Recorded spans, in end order.
    pub items: Vec<Span>,
}

impl Spans {
    /// A recorder timing against `origin`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Spans { origin, enabled, items: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id and start (0, 0 when disabled).
    #[must_use]
    pub fn open(&self) -> (u64, u64) {
        if self.enabled {
            (NEXT_ID.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        }
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(
        &mut self,
        opened: (u64, u64),
        name: &'static str,
        parent: Option<u64>,
        subject: u64,
    ) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.items.push(Span {
                id: opened.0,
                name,
                start_ns: opened.1,
                end_ns,
                parent,
                subject,
            });
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        subject: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let opened = self.open();
        let out = f();
        self.close(opened, name, parent, subject);
        out
    }
}

/// Renders spans as JSON lines.
#[must_use]
pub fn json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"subject":{}}}"#,
            s.id, s.name, s.start_ns, s.end_ns, parent, s.subject
        );
    }
    out
}
