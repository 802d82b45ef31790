//! In-memory spans around the calls into each layer, written out as JSONL
//! when the run ends. `line` is the index of the first protocol line of the
//! round trip a span belongs to; it is the same in every pass, so one
//! request can be followed from the wire down to the engine.

use obs::json::{self, Json};
use std::borrow::Cow;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub line: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-call spans are kept for one round trip in this many; every pass and
/// round-trip span is kept. Aggregates never depend on the sample.
pub const CALL_SAMPLE: u64 = 64;

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        line: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            id,
            parent,
            line,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserve a span whose end is not known yet (a pass); close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, start: Instant) -> u64 {
        self.record(name, parent, 0, start, start)
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"line\":{},\"start_ns\":{},\"end_ns\":{}}}",
                json::escape(&s.name),
                s.id,
                s.parent,
                s.line,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Parse a span file back.
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let n = |k: &str| {
                v.get(k)
                    .and_then(Json::as_num)
                    .map(|x| x as u64)
                    .ok_or(format!("line {}: no '{k}'", i + 1))
            };
            Ok(Span {
                name: Cow::Owned(
                    v.get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("line {}: no 'name'", i + 1))?
                        .to_string(),
                ),
                id: n("id")?,
                parent: n("parent")?,
                line: n("line")?,
                start_ns: n("start_ns")?,
                end_ns: n("end_ns")?,
            })
        })
        .collect()
}

/// Structural check of a span set: ids are 1..=n in order, every parent
/// exists and comes first, every span ends after it starts and lies inside
/// its parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id != i as u64 + 1 {
            return Err(format!("span {} has id {}", i + 1, s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        if s.parent >= s.id {
            return Err(format!("span {} names a later parent {}", s.id, s.parent));
        }
        let p = &spans[s.parent as usize - 1];
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {} ({}) [{}, {}] leaves its parent {} ({}) [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, p.id, p.name, p.start_ns, p.end_ns
            ));
        }
    }
    Ok(())
}

/// Total duration of every span called `name`, in nanoseconds.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// `benchmark trace FILE`: check a span file and print, per span name, how
/// many spans there are, their total and their mean duration.
pub fn summarize(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spans = read_jsonl(&text)?;
    check_nesting(&spans)?;
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_ref()).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "{} spans, nesting ok (times as measured, not scaled to the reference box)",
        spans.len()
    );
    println!(
        "{:<22} {:>9} {:>14} {:>12}",
        "span", "count", "total ms", "mean us"
    );
    for name in names {
        let count = spans.iter().filter(|s| s.name == name).count();
        let total = total_ns(&spans, name) as f64;
        println!(
            "{name:<22} {count:>9} {:>14.3} {:>12.3}",
            total / 1e6,
            total / 1e3 / count as f64
        );
    }
    Ok(())
}
