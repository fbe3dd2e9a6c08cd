//! Persisting workload instances so experiments can be re-run on
//! identical inputs.
//!
//! # Format (version 1)
//!
//! Plain ASCII, one record per `\n`-terminated line, fields separated by
//! exactly one space, every number a run of decimal digits fitting `u64`:
//!
//! ```text
//! file   = header job*
//! header = "parflow-instance" SP "1" SP n LF
//! job    = arrival SP weight SP k (SP work){k} (SP degree){k} (SP succ){sum of degrees} LF
//! ```
//!
//! Job `i` is the `i`-th job line, in non-decreasing arrival order no
//! later than [`ARRIVAL_CEILING`], and there are exactly `n` of them.
//! `weight ≥ 1`. The remaining fields are
//! the job DAG in [`JobDag`]'s own CSR layout: the `k` node works, the `k`
//! out-degrees, then every node's successor ids in order. Nothing derived
//! is stored — `topo_order`, `total_work`, `span` and the id are recomputed
//! by [`JobDag::from_csr`] on load, so a file cannot claim a span its
//! edges do not have, and `load_instance(save_instance(i))` equals `i`
//! job for job, topological order included. Jobs whose DAG fields are
//! byte-identical load sharing one `Arc<JobDag>`, as generated jobs of
//! equal work do.
//!
//! The reader never panics: every malformed input is a `FormatError`
//! naming the line and column (1-based, in bytes) and what is wrong there.

use crate::ARRIVAL_CEILING;
use parflow_dag::{DagError, Instance, Job, JobDag, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use ErrorKind::*;

const MAGIC: &[u8] = b"parflow-instance";
const VERSION: u64 = 1;
/// The largest count, node id or degree a field may hold.
const U32: u64 = u32::MAX as u64;

/// Write an instance file (format above).
pub fn save_instance<P: AsRef<Path>>(instance: &Instance, path: P) -> io::Result<()> {
    fs::write(path, encode(instance))
}

/// Read an instance file, checking every field and every job's DAG. A
/// malformed file is an [`io::ErrorKind::InvalidData`] error whose message
/// names the line, the column and what is wrong there.
pub fn load_instance<P: AsRef<Path>>(path: P) -> io::Result<Instance> {
    decode(&fs::read(path)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// What is wrong with an instance file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ErrorKind {
    /// The file does not start with `parflow-instance`.
    NotAnInstance,
    /// A format version this reader does not know.
    UnknownVersion(u64),
    /// The file ends inside a line — a write cut short.
    TornTail,
    /// A line has more or fewer fields than its counts promise, or the
    /// file more or fewer job lines than its header.
    CountMismatch,
    /// Something other than a digit where a number belongs, or other than
    /// one space or a newline after one.
    NotDigit,
    /// A number past `u64::MAX`.
    Overflow,
    /// A job of weight 0.
    ZeroWeight,
    /// A job arriving before the job on the line above.
    UnsortedArrival,
    /// A job count, node count, edge count or successor id past `u32`,
    /// or an arrival past [`ARRIVAL_CEILING`].
    TooLarge,
    /// The job's DAG fails [`JobDag::from_csr`].
    Dag(DagError),
}

/// A malformed instance file: where, and what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FormatError {
    /// 1-based line; the header is line 1, job `i` is line `i + 2`.
    pub line: usize,
    /// 1-based byte column within the line.
    pub column: usize,
    /// What is wrong there.
    pub kind: ErrorKind,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (line, column, kind) = (self.line, self.column, &self.kind);
        write!(f, "instance file line {line}, column {column}: {kind:?}")
    }
}

impl std::error::Error for FormatError {}

/// The file bytes of `instance`.
fn encode(instance: &Instance) -> Vec<u8> {
    let nodes: usize = instance.jobs().iter().map(|j| j.dag.num_nodes()).sum();
    let mut out = Vec::with_capacity(32 + 24 * instance.len() + 16 * nodes);
    out.extend_from_slice(MAGIC);
    push_field(&mut out, VERSION);
    push_field(&mut out, instance.len() as u64);
    out.push(b'\n');
    for job in instance.jobs() {
        let dag = &job.dag;
        let k = dag.num_nodes() as NodeId;
        push_u64(&mut out, job.arrival);
        push_field(&mut out, job.weight);
        push_field(&mut out, u64::from(k));
        (0..k).for_each(|v| push_field(&mut out, dag.work(v)));
        (0..k).for_each(|v| push_field(&mut out, dag.succs(v).len() as u64));
        for v in 0..k {
            for &u in dag.succs(v) {
                push_field(&mut out, u64::from(u));
            }
        }
        out.push(b'\n');
    }
    out
}

/// Append a space, then `v` in decimal.
#[inline]
fn push_field(out: &mut Vec<u8>, v: u64) {
    out.push(b' ');
    push_u64(out, v);
}

/// Append `v` in decimal.
#[inline]
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let at = out.len();
    while out.len() == at || v > 0 {
        out.push(b'0' + (v % 10) as u8);
        v /= 10;
    }
    out[at..].reverse();
}

/// Parse the bytes of an instance file.
fn decode(bytes: &[u8]) -> Result<Instance, FormatError> {
    let mut r = Reader {
        bytes,
        pos: MAGIC.len(),
    };
    if !bytes.starts_with(MAGIC) {
        return Err(r.err(0, NotAnInstance));
    }
    let version = r.field(u64::MAX)?;
    if version != VERSION {
        return Err(r.err(MAGIC.len() + 1, UnknownVersion(version)));
    }
    let n = r.field(U32)? as usize;
    r.expect(b'\n')?;
    let mut jobs = Vec::with_capacity(n.min(bytes.len()));
    let mut dags: BTreeMap<&[u8], Arc<JobDag>> = BTreeMap::new();
    for id in 0..n as u32 {
        if r.pos == bytes.len() {
            return Err(r.err(r.pos, CountMismatch));
        }
        let line_start = r.pos;
        let arrival = r.num(ARRIVAL_CEILING)?;
        if jobs.last().is_some_and(|j: &Job| arrival < j.arrival) {
            return Err(r.err(line_start, UnsortedArrival));
        }
        let at = r.pos + 1;
        let weight = r.field(u64::MAX)?;
        if weight == 0 {
            return Err(r.err(at, ZeroWeight));
        }
        // A line whose DAG bytes repeat an earlier good line's shares its
        // `Arc`: the same bytes cannot parse or fail differently.
        let end = bytes[r.pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| r.pos + i);
        let key = &bytes[r.pos..end];
        let dag = match dags.get(key) {
            Some(dag) => {
                r.pos = end;
                Arc::clone(dag)
            }
            None => {
                let dag = Arc::new(r.dag(line_start)?);
                dags.insert(key, Arc::clone(&dag));
                dag
            }
        };
        r.expect(b'\n')?;
        jobs.push(Job::weighted(id, arrival, weight, dag));
    }
    if r.pos != bytes.len() {
        return Err(r.err(r.pos, CountMismatch));
    }
    Ok(Instance::new(jobs))
}

/// A cursor over the file bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    /// A job line's DAG: `k`, the works, the degrees and the successors,
    /// checked by [`JobDag::from_csr`], whose refusal points at
    /// `line_start`.
    fn dag(&mut self, line_start: usize) -> Result<JobDag, FormatError> {
        let k = self.field(U32)? as usize;
        // Capacities are bounded by the bytes left, so a lying count cannot
        // reserve more than the file could hold.
        let room = (self.bytes.len() - self.pos) / 2;
        let mut works = Vec::with_capacity(k.min(room));
        for _ in 0..k {
            works.push(self.field(u64::MAX)?);
        }
        let mut offsets = Vec::with_capacity(k.min(room) + 1);
        offsets.push(0u32);
        let mut edges = 0u64;
        for _ in 0..k {
            let at = self.pos + 1;
            edges += self.field(U32)?;
            offsets.push(u32::try_from(edges).map_err(|_| self.err(at, TooLarge))?);
        }
        let mut succs = Vec::with_capacity((edges as usize).min(room));
        for _ in 0..edges {
            succs.push(self.field(U32)? as NodeId);
        }
        JobDag::from_csr(works, offsets, succs).map_err(|e| self.err(line_start, Dag(e)))
    }

    /// The error at byte `pos`. Lines are counted here, off the happy path.
    #[cold]
    fn err(&self, pos: usize, kind: ErrorKind) -> FormatError {
        let before = &self.bytes[..pos];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        FormatError {
            line: before.iter().filter(|&&b| b == b'\n').count() + 1,
            column: pos - line_start + 1,
            kind,
        }
    }

    /// A decimal number no larger than `max`. Up to 19 digits cannot wrap,
    /// so the common case sums them unchecked; anything else is re-read
    /// with checks by [`Reader::num_error`].
    #[inline]
    fn num(&mut self, max: u64) -> Result<u64, FormatError> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            v = v.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        if (1..20).contains(&(self.pos - start)) && v <= max && self.pos < self.bytes.len() {
            return Ok(v);
        }
        self.num_error(start, max)
    }

    /// The digits at `start..pos` outside [`Reader::num`]'s fast path: a
    /// long run of digits that still fits, or the error.
    #[cold]
    fn num_error(&self, start: usize, max: u64) -> Result<u64, FormatError> {
        let digits = &self.bytes[start..self.pos];
        let v = std::str::from_utf8(digits)
            .ok()
            .and_then(|s| s.parse::<u64>().ok());
        match v {
            _ if self.pos == self.bytes.len() => Err(self.err(self.pos, TornTail)),
            _ if digits.is_empty() => Err(self.err(self.pos, NotDigit)),
            None => Err(self.err(start, Overflow)),
            Some(v) if v > max => Err(self.err(start, TooLarge)),
            Some(v) => Ok(v),
        }
    }

    /// The space before the next field of this line, then the field.
    #[inline]
    fn field(&mut self, max: u64) -> Result<u64, FormatError> {
        self.expect(b' ')?;
        self.num(max)
    }

    /// The separator `want` — a space, or the newline that ends a line.
    /// The end of the file here is a torn tail: every line ends in `\n`.
    fn expect(&mut self, want: u8) -> Result<(), FormatError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err(self.pos, TornTail)),
            Some(&b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(b' ' | b'\n') => Err(self.err(self.pos, CountMismatch)),
            Some(_) => Err(self.err(self.pos, NotDigit)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DistKind, WorkloadSpec};
    use crate::lowerbound::lower_bound_instance;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Job-for-job equality, DAGs (topological order included) compared
    /// whole.
    fn assert_same(a: &Instance, b: &Instance) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!((x.id, x.arrival, x.weight), (y.id, y.arrival, y.weight));
            assert_eq!(*x.dag, *y.dag);
        }
    }

    fn kind_at(text: &str) -> (usize, ErrorKind) {
        let e = decode(text.as_bytes()).expect_err(text);
        (e.line, e.kind)
    }

    #[test]
    fn roundtrip_through_a_file() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Finance, 900.0, 50, 5).generate();
        let dir = std::env::temp_dir().join("parflow_trace_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.txt");
        save_instance(&inst, &path).unwrap();
        assert_same(&inst, &load_instance(&path).unwrap());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_is_the_documented_grammar() {
        // Job 0: one node of work 3 at t = 0. Job 1: weight 2, the diamond
        // 0 -> {1, 2} -> 3.
        let text = "parflow-instance 1 2\n0 1 1 3 0\n7 2 4 1 5 2 1 2 1 1 0 1 2 3 3\n";
        let inst = decode(text.as_bytes()).unwrap();
        let j = &inst.jobs()[1];
        assert_eq!((j.arrival, j.weight, j.work(), j.span()), (7, 2, 9, 7));
        assert_eq!(encode(&inst), text.as_bytes());
        // Leading zeros are digits like any other, past 19 of them too.
        let padded = "parflow-instance 1 1\n0 1 1 000000000000000000000003 0\n";
        assert_eq!(decode(padded.as_bytes()).unwrap().jobs()[0].work(), 3);
    }

    #[test]
    fn every_error_kind_names_its_line() {
        let cases: &[(&str, usize, ErrorKind)] = &[
            ("", 1, NotAnInstance),
            ("parflow-inst", 1, NotAnInstance),
            ("parflow-instance", 1, TornTail),
            ("[1, 2, 3]", 1, NotAnInstance),
            ("parflow-instance 2 0\n", 1, UnknownVersion(2)),
            ("parflow-instance 1 1\n0 1 1 3 0", 2, TornTail),
            ("parflow-instance 1 1\n0 1 1 3", 2, TornTail),
            ("parflow-instance 1 2\n0 1 1 3 0\n", 3, CountMismatch),
            (
                "parflow-instance 1 1\n0 1 1 3 0\n0 1 1 3 0\n",
                3,
                CountMismatch,
            ),
            ("parflow-instance 1 1\n0 1 2 3 0\n", 2, CountMismatch),
            ("parflow-instance 1 1\n0 1 1 3 0 9\n", 2, CountMismatch),
            ("parflow-instance 1 1\n0 1 1 x 0\n", 2, NotDigit),
            ("parflow-instance 1 1\n0  1 1 3 0\n", 2, NotDigit),
            ("parflow-instance 1 1\n0 1 1 3 0\r\n", 2, NotDigit),
            (
                "parflow-instance 1 1\n18446744073709551616 1 1 3 0\n",
                2,
                Overflow,
            ),
            ("parflow-instance 1 1\n0 0 1 3 0\n", 2, ZeroWeight),
            (
                "parflow-instance 1 2\n5 1 1 3 0\n4 1 1 3 0\n",
                3,
                UnsortedArrival,
            ),
            ("parflow-instance 1 4294967296\n", 1, TooLarge),
            ("parflow-instance 1 1\n0 1 4294967296 1\n", 2, TooLarge),
            ("parflow-instance 1 1\n0 1 1 1 4294967296\n", 2, TooLarge),
            (
                "parflow-instance 1 1\n0 1 2 1 1 4294967295 1 1\n",
                2,
                TooLarge,
            ),
            (
                "parflow-instance 1 1\n0 1 2 1 1 1 0 4294967296\n",
                2,
                TooLarge,
            ),
        ];
        for (text, line, kind) in cases {
            assert_eq!(kind_at(text), (*line, kind.clone()), "{text:?}");
        }
        let dag_cases: &[(&str, DagError)] = &[
            ("0 1 0", DagError::Empty),
            ("0 1 1 0 0", DagError::ZeroWork { node: 0 }),
            ("0 1 1 1 1 5", DagError::UnknownNode { node: 5 }),
            ("0 1 1 1 1 0", DagError::SelfLoop { node: 0 }),
            (
                "0 1 2 1 1 2 0 1 1",
                DagError::DuplicateEdge { from: 0, to: 1 },
            ),
            ("0 1 2 1 1 1 1 1 0", DagError::Cycle),
            ("0 1 2 18446744073709551615 1 0 0", DagError::WorkOverflow),
        ];
        for (job, e) in dag_cases {
            let text = format!("parflow-instance 1 2\n0 1 1 1 0\n{job}\n");
            assert_eq!(kind_at(&text), (3, Dag(e.clone())), "{text:?}");
        }
        // Columns point at the field, and the message carries both.
        let e = decode(b"parflow-instance 1 1\n0 0 1 3 0\n").unwrap_err();
        assert_eq!(e.column, 3);
        assert!(e.to_string().contains("line 2, column 3"), "{e}");
    }

    #[test]
    fn arrivals_stop_at_the_ceiling() {
        let at = format!("parflow-instance 1 1\n{ARRIVAL_CEILING} 1 1 3 0\n");
        assert_eq!(
            decode(at.as_bytes()).unwrap().jobs()[0].arrival,
            ARRIVAL_CEILING
        );
        let past = format!(
            "parflow-instance 1 2\n0 1 1 3 0\n{} 1 1 3 0\n",
            ARRIVAL_CEILING + 1
        );
        let e = decode(past.as_bytes()).unwrap_err();
        assert_eq!((e.line, e.column, e.kind), (3, 1, TooLarge));
    }

    /// The distinct DAG allocations of `inst`.
    fn distinct_dags(inst: &Instance) -> usize {
        let ptrs: BTreeSet<*const JobDag> =
            inst.jobs().iter().map(|j| Arc::as_ptr(&j.dag)).collect();
        ptrs.len()
    }

    #[test]
    fn equal_dag_lines_load_as_one_arc() {
        let shared = WorkloadSpec::paper_fig2(DistKind::Bing, 2000.0, 300, 4).generate();
        // The same jobs, each with a DAG of its own.
        let fresh = Instance::new(
            (shared.jobs().iter())
                .map(|j| Job::weighted(j.id, j.arrival, j.weight, Arc::new((*j.dag).clone())))
                .collect(),
        );
        assert_eq!(distinct_dags(&fresh), fresh.len());
        assert_eq!(encode(&fresh), encode(&shared));
        let back = decode(&encode(&fresh)).unwrap();
        assert_same(&back, &shared);
        assert_eq!(distinct_dags(&back), distinct_dags(&shared));
        assert!(distinct_dags(&shared) <= 18, "one per Bing bin");
    }

    #[test]
    fn a_stored_span_cannot_lie() {
        // Nothing derived is stored: the only way to change the span is to
        // change the edges, and the reader recomputes it from them.
        let chain = "parflow-instance 1 1\n0 1 3 2 2 2 1 1 0 1 2\n";
        let flat = "parflow-instance 1 1\n0 1 3 2 2 2 0 0 0\n";
        let span = |t: &str| decode(t.as_bytes()).unwrap().jobs()[0].span();
        assert_eq!((span(chain), span(flat)), (6, 2));
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_instance("/nonexistent/definitely/missing.txt").is_err());
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("parflow_trace_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        fs::write(&path, "not an instance at all").unwrap();
        let e = load_instance(&path).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let inner = e.get_ref().and_then(|e| e.downcast_ref::<FormatError>());
        assert_eq!(inner.map(|e| &e.kind), Some(&ErrorKind::NotAnInstance));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_wrong_schema_errors() {
        // Well-formed lines of the wrong shape: JSON of the old format, a
        // header with no count, a job line cut to its first three fields.
        for text in [
            r#"{"jobs":[{"id":0,"arrival":0,"weight":1}]}"#,
            "parflow-instance 1\n",
            "parflow-instance 1 1\n0 1 1\n",
            "parflow-instance 1 1 1\n",
        ] {
            assert!(decode(text.as_bytes()).is_err(), "{text:?}");
        }
    }

    #[test]
    fn roundtrip_keeps_shared_and_weighted_jobs() {
        let shared = lower_bound_instance(12, 40);
        assert_same(&shared, &decode(&encode(&shared)).unwrap());
        let dag = shared.jobs()[0].dag.clone();
        let weighted = Instance::new(
            (0..9u32)
                .map(|i| Job::weighted(i, u64::from(i / 3), u64::from(i % 4 + 1), dag.clone()))
                .collect(),
        );
        assert_same(&weighted, &decode(&encode(&weighted)).unwrap());
    }

    /// Seeded corruption of a real saved file: byte flips, truncation at
    /// every 97th byte, and duplicated and dropped lines. Every case must
    /// return rather than panic, and an `Ok` must round-trip to itself.
    #[test]
    fn corrupted_files_never_panic() {
        let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 2000.0, 40, 3).generate();
        let good = encode(&inst);
        let check = |bytes: &[u8]| {
            if let Ok(back) = decode(bytes) {
                assert_same(&back, &decode(&encode(&back)).unwrap());
            }
        };
        let mut rng = SmallRng::seed_from_u64(97);
        let alphabet = b"0123456789 \nx";
        for _ in 0..2000 {
            let mut bytes = good.clone();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = alphabet[rng.gen_range(0..alphabet.len())];
            }
            check(&bytes);
        }
        for cut in (97..good.len()).step_by(97) {
            let e = decode(&good[..cut]).unwrap_err();
            assert!(
                matches!(e.kind, ErrorKind::TornTail | ErrorKind::CountMismatch),
                "cut at {cut}: {e}"
            );
        }
        let lines: Vec<&[u8]> = good.split_inclusive(|&b| b == b'\n').collect();
        for i in 0..lines.len() {
            let dropped: Vec<u8> = [&lines[..i], &lines[i + 1..]].concat().concat();
            assert!(decode(&dropped).is_err(), "dropping line {}", i + 1);
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            assert!(
                decode(&doubled.concat()).is_err(),
                "doubling line {}",
                i + 1
            );
        }
    }
}
