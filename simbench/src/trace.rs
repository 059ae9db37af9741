//! Spans recorded in memory around the benchmark's calls into each layer,
//! written out once the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::Execution;

/// One timed call. Spans of one execution share `exec`; `parent` indexes
/// the execution's root span, which has none.
#[derive(Clone, Debug)]
pub struct Span {
    /// Execution the span belongs to.
    pub exec: u64,
    /// Layer and call, e.g. `xcc.compile`.
    pub name: &'static str,
    /// Microseconds from the recorder's origin.
    pub start_us: f64,
    /// Microseconds from the recorder's origin.
    pub end_us: f64,
    /// Index of the parent span in the recorder.
    pub parent: Option<usize>,
}

/// An in-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

/// Child spans of an execution: name and the marks that bound it.
const CALLS: [(&str, usize, usize); 4] = [
    ("workloads.gen", 0, 1),
    ("xcc.compile", 1, 2),
    ("core.boot", 2, 3),
    ("core.run", 3, 4),
];

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records execution `exec` as a root span named after whether it ran
    /// traced, with one child per public call.
    pub fn record(&mut self, exec: u64, e: &Execution, traced: bool) {
        let root = self.spans.len();
        self.spans.push(Span {
            exec,
            name: if traced {
                "execution.traced"
            } else {
                "execution"
            },
            start_us: self.us(e.marks[0]),
            end_us: self.us(e.marks[4]),
            parent: None,
        });
        for (name, from, to) in CALLS {
            self.spans.push(Span {
                exec,
                name,
                start_us: self.us(e.marks[from]),
                end_us: self.us(e.marks[to]),
                parent: Some(root),
            });
        }
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"exec\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{sep}",
                s.exec, s.name, s.start_us, s.end_us
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}
