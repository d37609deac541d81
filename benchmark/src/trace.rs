//! In-memory spans recorded by the harness around calls into the store.
//!
//! A span is `{id, op_id, name, start_ns, end_ns, parent}`; spans of one
//! request share `op_id` (the id of its root span). Disk-service spans
//! are recorded by [`crate::service_disk`] on the ring's worker threads,
//! which cannot know the request they serve: they carry the block key,
//! and [`Tracer::finish`] attaches each to the operation that was running
//! on that key's file when the service began. Spans stay in memory until
//! the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// File the span operated on (operation spans), 0 if none.
    file_id: u64,
    /// Block key serviced (disk spans awaiting a parent), 0 otherwise.
    key: u64,
}

/// Where a new span hangs: the request it belongs to and its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub op_id: u64,
    pub span: u64,
}

/// A span that has begun: its own context (to parent children) and start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub ctx: Ctx,
    parent: u64,
    start_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Whether the service disks record spans (off during set-up and the
    /// untraced comparison phase of a traced run).
    disks_on: AtomicBool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            disks_on: AtomicBool::new(false),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Begin a span under `parent` (`None` starts a new request).
    pub fn begin(&self, parent: Option<Ctx>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            ctx: Ctx {
                op_id: parent.map_or(id, |p| p.op_id),
                span: id,
            },
            parent: parent.map_or(0, |p| p.span),
            start_ns: self.ns(Instant::now()),
        }
    }

    /// End a span. `file_id` (0 = none) marks it as the operation disk
    /// service on that file is attributed to.
    pub fn end(&self, open: Open, name: &'static str, file_id: u64) {
        let end_ns = self.ns(Instant::now());
        self.push(Span {
            id: open.ctx.span,
            op_id: open.ctx.op_id,
            name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            file_id,
            key: 0,
        });
    }

    /// Time `f` as a leaf span under `parent`.
    pub fn leaf<R>(&self, parent: Option<Ctx>, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(parent);
        let r = f();
        self.end(open, name, 0);
        r
    }

    /// A span whose interval the caller measured itself (an open-loop
    /// access runs from its due time to its completion).
    pub fn span_at(
        &self,
        parent: Option<Ctx>,
        name: &'static str,
        start: Instant,
        end: Instant,
        file_id: u64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            op_id: parent.map_or(id, |p| p.op_id),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.map_or(0, |p| p.span),
            file_id,
            key: 0,
        });
    }

    pub fn record_disks(&self, on: bool) {
        self.disks_on.store(on, Ordering::Relaxed);
    }

    /// A disk's service interval for block `key`; parented in `finish`.
    pub fn disk(&self, name: &'static str, key: u64, begun: Instant, ended: Instant) {
        if !self.disks_on.load(Ordering::Relaxed) {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            op_id: 0,
            name,
            start_ns: self.ns(begun),
            end_ns: self.ns(ended),
            parent: 0,
            file_id: 0,
            key,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no panics while tracing")
            .push(span);
    }

    /// Take the spans recorded so far, with disk spans attached to the
    /// operation that ran on their file when the service began (the most
    /// recently started one when several reads of a file overlap), under
    /// the client call of that operation that was in progress. Disk spans
    /// no operation covers (set-up writes) are dropped.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("no panics while tracing"));
        type Interval = (u64, u64, u64, u64); // start, end, span id, op id
        let mut ops_of_file: HashMap<u64, Vec<Interval>> = HashMap::new();
        let mut calls_of_op: HashMap<u64, Vec<Interval>> = HashMap::new();
        for s in spans.iter().filter(|s| s.key == 0) {
            let interval = (s.start_ns, s.end_ns, s.id, s.op_id);
            if s.file_id != 0 {
                ops_of_file.entry(s.file_id).or_default().push(interval);
            }
            calls_of_op.entry(s.parent).or_default().push(interval);
        }
        let holding = |at: u64, among: Option<&Vec<Interval>>| {
            among?
                .iter()
                .filter(|(start, end, ..)| *start <= at && at <= *end)
                .max_by_key(|(start, ..)| *start)
                .copied()
        };
        for s in spans.iter_mut().filter(|s| s.key != 0) {
            // Block keys carry the file id above bit 33 (`metadata::gen_key`).
            if let Some((_, _, op, op_id)) = holding(s.start_ns, ops_of_file.get(&(s.key >> 33))) {
                let call = holding(s.start_ns, calls_of_op.get(&op));
                s.parent = call.map_or(op, |(_, _, id, _)| id);
                s.op_id = op_id;
            }
        }
        spans.retain(|s| s.key == 0 || s.parent != 0);
        spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// The intervals of every span's direct children, by parent id.
fn children_of(spans: &[Span]) -> HashMap<u64, Vec<(u64, u64)>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    children
}

/// Per-name totals: `(name, count, total_ns, self_ns)`, where a span's
/// self time is its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut children = children_of(spans);
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let child = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let e = by_name.entry(s.name).or_default();
        *e = (e.0 + 1, e.1 + total, e.2 + total - child);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (count, total, own))| (name, count, total, own))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// Share of the wall time of root spans with children that those
/// children cover: below 1 the harness spent request time it did not
/// attribute to any call.
pub fn coverage(spans: &[Span]) -> f64 {
    let mut children = children_of(spans);
    let (mut wall, mut attributed) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent == 0) {
        if let Some(c) = children.get_mut(&s.id) {
            wall += s.end_ns - s.start_ns;
            attributed += covered(c, s.start_ns, s.end_ns);
        }
    }
    attributed as f64 / wall as f64
}

/// Write one JSON object per span, then one per span name with its
/// self-time summary.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.id, s.op_id, s.name, s.start_ns, s.end_ns, s.parent
        )?;
    }
    for (name, count, total, own) in self_times(spans) {
        writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
            total as f64 / 1e6,
            own as f64 / 1e6
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_spans_find_their_operation_and_self_time_subtracts_children() {
        let tr = Tracer::default();
        tr.record_disks(true);
        let root = tr.begin(None);
        let op = tr.begin(Some(root.ctx));
        let begun = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.disk("disk.read", (7 << 33) | 5, begun, Instant::now());
        tr.disk("disk.read", (9 << 33) | 5, begun, Instant::now()); // no such op
        tr.end(op, "op.read", 7);
        tr.end(root, "cycle", 0);
        let spans = tr.finish();
        assert_eq!(spans.len(), 3, "the unowned disk span is dropped");
        let disk = spans.iter().find(|s| s.name == "disk.read").unwrap();
        assert_eq!((disk.parent, disk.op_id), (op.ctx.span, root.ctx.op_id));
        let rows = self_times(&spans);
        let op_row = rows.iter().find(|r| r.0 == "op.read").unwrap();
        assert!(op_row.3 < op_row.2, "child time is not self time");
        assert!(coverage(&spans) > 0.9);
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(&mut [(0, 10), (5, 20), (30, 50)], 2, 40), 28);
    }
}
