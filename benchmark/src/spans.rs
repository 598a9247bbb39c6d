//! Harness spans: one record per call into the system under test,
//! kept in memory and written out as Chrome trace-event JSON when the
//! run ends. Spans are taken by the benchmark's own code around the
//! layer's public calls; spans inside the simulator are a later issue.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `phase.step`, e.g. `setup.world_new` or `run.slice`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (the shared identifier).
    pub rep: usize,
    /// Simulator events processed inside a `run.*` span.
    pub events: u64,
    /// Events still queued when the span ended, where the system
    /// exposes it.
    pub pending: Option<usize>,
}

/// An open span; close it with [`Spans::end`].
#[must_use]
pub struct Open {
    index: usize,
    started: Instant,
}

/// The in-memory span recorder.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: usize,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), rep: 0 }
    }

    /// Starts the next repetition; later spans carry its number.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: (started - self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent: self.stack.last().copied(),
            rep: self.rep,
            events: 0,
            pending: None,
        });
        self.stack.push(index);
        Open { index, started }
    }

    /// Closes `open` and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        self.end_with(open, 0, None)
    }

    /// Closes `open`, attaching the events it processed and the queue
    /// depth it left behind.
    pub fn end_with(&mut self, open: Open, events: u64, pending: Option<usize>) -> u64 {
        let dur_ns = open.started.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.index), "spans close innermost first");
        let span = &mut self.spans[open.index];
        (span.dur_ns, span.events, span.pending) = (dur_ns, events, pending);
        dur_ns
    }

    /// Times one call as a span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name);
        let out = call();
        (out, self.end(open))
    }

    /// Self time of span `index`: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(|s| s.dur_ns).sum();
        self.spans[index].dur_ns.saturating_sub(children)
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond
    /// timestamps), loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rep\":{},\"span\":{},\"parent\":{},\"self_ns\":{},\"events\":{},\"pending\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.rep,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_ns(i),
                s.events,
                s.pending.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut spans = Spans::new();
        let outer = spans.begin("run.rep");
        let inner = spans.begin("run.slice");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.end_with(inner, 7, Some(3));
        spans.end(outer);
        let all = &spans.spans;
        assert_eq!(all[1].parent, Some(0));
        assert_eq!((all[1].events, all[1].pending), (7, Some(3)));
        assert!(all[0].dur_ns >= all[1].dur_ns);
        assert_eq!(spans.self_ns(0), all[0].dur_ns - all[1].dur_ns);
        let json = spans.chrome_trace("t");
        assert!(json.contains("\"name\":\"run.slice\"") && json.ends_with("]}\n"));
    }
}
