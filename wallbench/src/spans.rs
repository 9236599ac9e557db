//! Wall-clock spans recorded by the benchmark around each call into a
//! layer. Spans live in memory and are folded into per-layer numbers when
//! the run ends; none of this touches the deterministic `gr-trace` stream.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The part of a run a span was recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up, before any operation is timed.
    Setup,
    /// The timed closed loop (and the checks attributed to its operations).
    Measure,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.extend`.
    pub name: &'static str,
    /// Idiom or kernel the call worked on, when it has one.
    pub attr: Option<&'static str>,
    /// Start, in nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one program, request or pass.
    pub request: u64,
    /// Phase the span was recorded in.
    pub phase: Phase,
}

/// Records nested spans on the calling thread. A disabled recorder only
/// runs the timed closures.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    phase: Phase,
}

impl Recorder {
    /// A recorder that records when `on` is set.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            phase: Phase::Setup,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; already recorded spans stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the phase later spans are tagged with.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Starts a new request id and returns it.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Makes later spans carry request `id` (used by checks that run after
    /// the operation they describe).
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when recording is off.
    pub fn enter(&mut self, name: &'static str, attr: Option<&'static str>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            attr,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
            phase: self.phase,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id].end = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close in reverse order");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        attr: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, attr);
        let r = f();
        self.exit(id);
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the time its child spans
/// cover. Children of one parent never overlap, because spans are opened
/// and closed on one thread in stack order.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut child: Vec<u64> = vec![0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| i64::try_from(s.end - s.start).unwrap_or(i64::MAX) - c as i64)
        .collect()
}

/// Checks that spans nest: each child lies inside its parent, shares its
/// request id, and leaves every self time non-negative. Returns the
/// first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= i || s.start < ps.start || s.end > ps.end {
                return Err(format!(
                    "span {i} `{}` is not inside its parent `{}`",
                    s.name, ps.name
                ));
            }
            if s.request != ps.request {
                return Err(format!("span {i} `{}` changes request inside `{}`", s.name, ps.name));
            }
        }
    }
    if let Some((i, _)) = self_times(spans).iter().enumerate().find(|(_, &t)| t < 0) {
        return Err(format!("span {i} `{}` has negative self time", spans[i].name));
    }
    Ok(())
}

/// Writes every span as one JSON object per line: name, attribute, start
/// and end in nanoseconds, parent index, request id and phase.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let attr = s.attr.map_or("null".to_string(), |a| format!("\"{a}\""));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"attr\": {attr}, \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"request\": {}, \"phase\": \"{:?}\"}}",
            s.name, s.start, s.end, s.request, s.phase
        )?;
    }
    out.flush()
}

/// Summed self time and call count of one span name (or name and
/// attribute) within one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_ns: i64,
    /// Number of spans.
    pub calls: u64,
}

/// Totals keyed by `(phase, name, attr)`; every span also counts towards
/// its `(phase, name, None)` row.
pub fn totals(spans: &[Span]) -> BTreeMap<(u8, &'static str, Option<&'static str>), LayerTotal> {
    let mut out: BTreeMap<(u8, &'static str, Option<&'static str>), LayerTotal> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let phase = u8::from(s.phase == Phase::Measure);
        let mut keys = vec![(phase, s.name, None)];
        if s.attr.is_some() {
            keys.push((phase, s.name, s.attr));
        }
        for k in keys {
            let e = out.entry(k).or_default();
            e.self_ns += t;
            e.calls += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", None);
        r.time("inner", None, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        let st = self_times(spans);
        assert!(st[0] >= 0 && st[1] >= 2_000_000);
        assert_eq!(st[0] + st[1], i64::try_from(spans[0].end - spans[0].start).unwrap());
        check_nesting(spans).unwrap();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.time("x", None, || 7), 7);
        assert!(r.spans().is_empty());
    }
}
