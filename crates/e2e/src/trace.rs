//! The traced run's span recorder. Spans are taken from the benchmark's
//! side of each public call (the program itself is not instrumented),
//! kept in memory, and written out once the traced round is over.

use mbir_archive::error::ArchiveError;
use mbir_core::source::CellSource;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans written to `trace-<workload>.json`; the shares are computed
/// over every span recorded, written or not.
const MAX_FILE_SPANS: usize = 20_000;
const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub id: u32,
    /// Root span of the operation that caused this one ([`NO_PARENT`] for
    /// the root itself).
    pub parent: u32,
    /// Index of the operation in the round's op list.
    pub op_id: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// `(root span id, op id)` of the operation the client thread is in;
    /// pool threads label their child spans with it.
    current: (AtomicU32, AtomicU32),
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: (AtomicU32::new(NO_PARENT), AtomicU32::new(0)),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span writer panics")
    }

    /// Runs `f` as the root span of operation `op_id`.
    pub fn op<T>(&self, name: &'static str, op_id: usize, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.lock();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: NO_PARENT,
                op_id: op_id as u32,
                name,
                start: 0,
                end: 0,
            });
            id
        };
        self.current.0.store(id, Ordering::SeqCst);
        self.current.1.store(op_id as u32, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        let mut spans = self.lock();
        spans[id as usize].start = start;
        spans[id as usize].end = end;
        out
    }

    /// Runs `f` as a child span of the current operation.
    pub fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record_child(name, start, self.now());
        out
    }

    fn record_child(&self, name: &'static str, start: u64, end: u64) {
        let parent = self.current.0.load(Ordering::SeqCst);
        let op_id = self.current.1.load(Ordering::SeqCst);
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start,
            end,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span writer panics")
    }
}

/// Runs `f` as the root span of operation `op_id` when a round is traced,
/// and bare when it is not.
pub fn root<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op_id: usize,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.op(name, op_id, f),
        None => f(),
    }
}

/// The benchmark's own [`CellSource`]: delegates every call to the real
/// source and records one span per cell read, named a miss when the read
/// moved the backing store's page counter and a hit otherwise.
pub struct TracedSource<'a, S> {
    inner: &'a S,
    tracer: &'a Tracer,
}

impl<'a, S: CellSource> TracedSource<'a, S> {
    pub fn new(inner: &'a S, tracer: &'a Tracer) -> Self {
        TracedSource { inner, tracer }
    }
}

pub const SOURCE_HIT: &str = "source.read.hit";
pub const SOURCE_MISS: &str = "source.read.miss";

impl<S: CellSource> CellSource for TracedSource<'_, S> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        let pages = self.inner.pages_read();
        let start = self.tracer.now();
        let out = self.inner.base_cell(attr, row, col);
        let end = self.tracer.now();
        let name = if self.inner.pages_read() > pages {
            SOURCE_MISS
        } else {
            SOURCE_HIT
        };
        self.tracer.record_child(name, start, end);
        out
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        self.inner.page_of(row, col)
    }

    fn pages_read(&self) -> u64 {
        self.inner.pages_read()
    }

    fn ticks_elapsed(&self) -> u64 {
        self.inner.ticks_elapsed()
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (they overlap when two pool threads read at once).
fn covered_ns(children: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    children.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Where the traced round's operation time went. Every field is
/// nanoseconds; `total` is the sum of the root spans and the other
/// fields partition it (self time = span − what its children cover).
#[derive(Default, Debug, PartialEq)]
pub struct Breakdown {
    pub total: u64,
    /// Query self time: descent, bound evaluation, merge, pool dispatch.
    pub engine: u64,
    /// Cell reads through the source, hits and misses.
    pub source: u64,
    /// The part of `source` spent in reads that fetched a page.
    pub source_miss: u64,
    /// `mbir-index` calls inside the operations.
    pub index: u64,
    /// The journal's part of an append (separately timed replay).
    pub journal: u64,
    /// The rest of an append: grid growth, pyramid extension, store
    /// rebuild, snapshot swap.
    pub build: u64,
    pub cell_reads: u64,
    pub ops: u64,
}

pub const OP_QUERY: &str = "query";
pub const OP_APPEND: &str = "append";
pub const INDEX_PREFIX: &str = "index.";
pub const JOURNAL_REPLAY: &str = "journal.append.replay";

/// Folds the spans into a [`Breakdown`]. A root named [`OP_APPEND`] splits
/// into journal and build by its [`JOURNAL_REPLAY`] child's duration (that
/// child is timed after the append, on a journal of the benchmark's own,
/// so it is matched by duration, not by interval). Any other root is a
/// query: its `index.*` children are index time, its other children are
/// source reads, and what no child covers is its self time.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut out = Breakdown::default();
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push(span);
        }
    }
    for root in spans.iter().filter(|s| s.parent == NO_PARENT) {
        let kids = &children[root.id as usize];
        out.total += root.ns();
        out.ops += 1;
        if root.name == OP_APPEND {
            let journal: u64 = kids.iter().map(|k| k.ns()).sum();
            let journal = journal.min(root.ns());
            out.journal += journal;
            out.build += root.ns() - journal;
        } else {
            let covered = |keep: &dyn Fn(&str) -> bool| {
                let mut spans: Vec<(u64, u64)> = kids
                    .iter()
                    .filter(|k| keep(k.name))
                    .map(|k| (k.start, k.end))
                    .collect();
                (
                    covered_ns(&mut spans, root.start, root.end),
                    spans.len() as u64,
                )
            };
            let (index, _) = covered(&|name| name.starts_with(INDEX_PREFIX));
            let (source, reads) = covered(&|name| !name.starts_with(INDEX_PREFIX));
            out.index += index;
            out.source += source;
            out.source_miss += covered(&|name| name == SOURCE_MISS).0;
            out.engine += root.ns() - index - source;
            out.cell_reads += reads;
        }
    }
    out
}

impl Breakdown {
    pub fn share(&self, part: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            part as f64 / self.total as f64
        }
    }

    /// The five disjoint layers as a share of the operation time; 1.0
    /// when the partition is exact.
    pub fn shares_sum(&self) -> f64 {
        self.share(self.engine + self.source + self.index + self.journal + self.build)
    }
}

/// Writes the span file: a header, the breakdown, and the first
/// [`MAX_FILE_SPANS`] spans (whole operations only).
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    sum: &Breakdown,
) -> std::io::Result<()> {
    let cut = if spans.len() <= MAX_FILE_SPANS {
        spans.len()
    } else {
        spans[..=MAX_FILE_SPANS]
            .iter()
            .rposition(|s| s.parent == NO_PARENT)
            .unwrap_or(0)
    };
    // Children follow their root, so cutting at a root keeps operations whole.
    let written = &spans[..cut];
    let mut json = String::with_capacity(written.len() * 96 + 512);
    let _ = write!(
        json,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"ns\", \
         \"spans_recorded\": {}, \"spans_written\": {}, \"operations\": {},\n \
         \"self_time_ns\": {{\"total\": {}, \"engine\": {}, \"source\": {}, \"source_miss\": {}, \
         \"index\": {}, \"journal\": {}, \"build\": {}}},\n \"spans\": [\n",
        spans.len(),
        written.len(),
        sum.ops,
        sum.total,
        sum.engine,
        sum.source,
        sum.source_miss,
        sum.index,
        sum.journal,
        sum.build
    );
    for (i, s) in written.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            json,
            "  {{\"id\": {}, \"parent\": {parent}, \"op_id\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}{}",
            s.id,
            s.op_id,
            s.name,
            s.start,
            s.end,
            if i + 1 == written.len() { "" } else { "," }
        );
    }
    json.push_str(" ]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op_id: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_children_cover() {
        let spans = vec![
            span(0, NO_PARENT, OP_QUERY, 0, 100),
            span(1, 0, SOURCE_HIT, 10, 20),
            // Two overlapping reads from two pool threads cover 30..50 once.
            span(2, 0, SOURCE_MISS, 30, 45),
            span(3, 0, SOURCE_MISS, 40, 50),
            span(4, NO_PARENT, OP_QUERY, 100, 140),
            span(5, 4, "index.onion.top_k_max", 101, 121),
            span(6, 4, "index.scan.top_k_flat", 122, 132),
            span(7, NO_PARENT, OP_APPEND, 140, 240),
            span(8, 7, JOURNAL_REPLAY, 300, 325),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.total, 240);
        assert_eq!((b.source, b.source_miss, b.engine), (30, 20, 80));
        assert_eq!((b.index, b.journal, b.build), (30, 25, 75));
        assert_eq!((b.cell_reads, b.ops), (3, 3));
        assert!((b.shares_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_children_to_the_running_operation() {
        let tracer = Tracer::default();
        tracer.op(OP_QUERY, 7, || tracer.child(SOURCE_HIT, || ()));
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op_id), (spans[0].id, 7));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
