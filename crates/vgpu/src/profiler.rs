//! Execution profiler: phase attribution and per-kernel records.
//!
//! Figures 5 and 6 of the paper break SpGEMM time into four phases —
//! *setup* (grouping), *count*, *calculation* and *cudaMalloc of the
//! output matrix*. Algorithms mark phase boundaries on the device; the
//! profiler attributes elapsed simulated time to the phase that was
//! current when it passed, and additionally keeps every kernel span for
//! fine-grained inspection.

use crate::simtime::SimTime;

/// Execution phase, matching the paper's Figure 5/6 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Grouping / preprocessing (the proposal's overhead, §IV-C).
    Setup,
    /// Symbolic phase: counting output non-zeros.
    Count,
    /// Numeric phase: computing values, gather, sort.
    Calc,
    /// `cudaMalloc` of the output matrix.
    Malloc,
    /// Anything else (applications, conversions).
    Other,
}

impl Phase {
    /// All phases in report order.
    pub const ALL: [Phase; 5] =
        [Phase::Setup, Phase::Count, Phase::Calc, Phase::Malloc, Phase::Other];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Count => "count",
            Phase::Calc => "calc",
            Phase::Malloc => "cudaMalloc",
            Phase::Other => "other",
        }
    }
}

/// One executed kernel (or memory operation) on the device timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name (diagnostics).
    pub name: String,
    /// Phase current at execution.
    pub phase: Phase,
    /// Stream the kernel ran on.
    pub stream: usize,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
    /// Number of thread blocks.
    pub blocks: usize,
    /// Total DRAM bytes moved.
    pub dram_bytes: f64,
    /// Latency-hiding efficiency the schedule used.
    pub efficiency: f64,
}

/// Collects phase times and kernel records for one algorithm run.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    records: Vec<KernelRecord>,
    phase_acc: Vec<(Phase, SimTime)>,
}

impl Profiler {
    /// Empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a kernel span.
    pub fn record_kernel(&mut self, rec: KernelRecord) {
        self.records.push(rec);
    }

    /// Attribute `dt` of elapsed device time to `phase`.
    pub fn add_phase_time(&mut self, phase: Phase, dt: SimTime) {
        if dt <= SimTime::ZERO {
            return;
        }
        self.phase_acc.push((phase, dt));
    }

    /// All kernel records, in completion order.
    pub fn kernels(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Total attributed time per phase, in [`Phase::ALL`] order (phases
    /// with zero time included).
    pub fn phase_times(&self) -> Vec<(Phase, SimTime)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let t = self.phase_acc.iter().filter(|(q, _)| *q == p).map(|&(_, dt)| dt).sum();
                (p, t)
            })
            .collect()
    }

    /// Busy/idle utilization of every stream that ran a kernel, sorted
    /// by stream id. Kernels on one stream serialize on the device, so a
    /// stream's busy time is the plain sum of its span durations and can
    /// never exceed the overall wall span.
    pub fn stream_utilization(&self) -> Vec<StreamUtil> {
        let mut by_stream: Vec<StreamUtil> = Vec::new();
        for k in &self.records {
            let pos = by_stream.iter().position(|u| u.stream == k.stream);
            let p = match pos {
                Some(p) => p,
                None => {
                    by_stream.push(StreamUtil {
                        stream: k.stream,
                        busy: SimTime::ZERO,
                        kernels: 0,
                        first_start: k.start,
                        last_end: k.end,
                    });
                    by_stream.len() - 1
                }
            };
            let u = &mut by_stream[p];
            u.busy += k.end - k.start;
            u.kernels += 1;
            u.first_start = u.first_start.min(k.start);
            u.last_end = u.last_end.max(k.end);
        }
        by_stream.sort_by_key(|u| u.stream);
        by_stream
    }

    /// `(earliest start, latest end)` over all records, or `None` when
    /// nothing ran.
    pub fn wall_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.records.iter().map(|k| k.start).reduce(SimTime::min)?;
        let last = self.records.iter().map(|k| k.end).reduce(SimTime::max)?;
        Some((first, last))
    }

    /// Kernel time aggregated by `(phase, kernel name, stream)`, in
    /// first-appearance order — the rows of the trace CLI's
    /// phase × group × stream table (group ids are encoded in kernel
    /// names, e.g. `numeric_tb_g3`).
    pub fn kernel_table(&self) -> Vec<KernelAgg> {
        let mut rows: Vec<KernelAgg> = Vec::new();
        for k in &self.records {
            let key = (k.phase, k.name.as_str(), k.stream);
            match rows.iter_mut().find(|r| (r.phase, r.name.as_str(), r.stream) == key) {
                Some(r) => {
                    r.launches += 1;
                    r.blocks += k.blocks;
                    r.time += k.end - k.start;
                    r.dram_bytes += k.dram_bytes;
                }
                None => rows.push(KernelAgg {
                    phase: k.phase,
                    name: k.name.clone(),
                    stream: k.stream,
                    launches: 1,
                    blocks: k.blocks,
                    time: k.end - k.start,
                    dram_bytes: k.dram_bytes,
                }),
            }
        }
        rows
    }

    /// Export the kernel timeline as Chrome trace-event JSON (load it at
    /// `chrome://tracing` or in Perfetto). One track per CUDA stream;
    /// durations are the simulated device times in microseconds. Kernel
    /// names are JSON-escaped verbatim (quotes, backslashes and control
    /// characters included).
    pub fn chrome_trace(&self) -> String {
        let mut trace = obs::chrome::Trace::default();
        for k in &self.records {
            trace.span(&obs::chrome::Span {
                name: &k.name,
                cat: Some(k.phase.label()),
                ts_us: k.start.us(),
                dur_us: (k.end - k.start).us(),
                pid: 0,
                tid: k.stream as u64,
                args: &[
                    ("blocks", k.blocks as f64, 0),
                    ("dram_bytes", k.dram_bytes, 0),
                    ("efficiency", k.efficiency, 3),
                ],
            });
        }
        trace.finish()
    }
}

/// Busy/idle accounting of one CUDA stream (see
/// [`Profiler::stream_utilization`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamUtil {
    /// Stream id.
    pub stream: usize,
    /// Sum of kernel span durations on this stream.
    pub busy: SimTime,
    /// Number of kernel records.
    pub kernels: usize,
    /// Earliest span start.
    pub first_start: SimTime,
    /// Latest span end.
    pub last_end: SimTime,
}

impl StreamUtil {
    /// Busy fraction of the given wall span (0 when the span is empty).
    pub fn utilization(&self, wall: SimTime) -> f64 {
        if wall <= SimTime::ZERO {
            0.0
        } else {
            self.busy / wall
        }
    }
}

/// One row of [`Profiler::kernel_table`]: kernel time aggregated by
/// `(phase, name, stream)`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAgg {
    /// Phase the kernel ran in.
    pub phase: Phase,
    /// Kernel name.
    pub name: String,
    /// Stream it ran on.
    pub stream: usize,
    /// Number of launches aggregated.
    pub launches: usize,
    /// Total thread blocks.
    pub blocks: usize,
    /// Total span time.
    pub time: SimTime,
    /// Total DRAM bytes.
    pub dram_bytes: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_aggregate() {
        let mut p = Profiler::new();
        p.add_phase_time(Phase::Count, SimTime(1.0));
        p.add_phase_time(Phase::Calc, SimTime(2.0));
        p.add_phase_time(Phase::Count, SimTime(0.5));
        let t = p.phase_times();
        assert_eq!(t.len(), Phase::ALL.len());
        assert_eq!(t[1], (Phase::Count, SimTime(1.5)));
        assert_eq!(t[2], (Phase::Calc, SimTime(2.0)));
        assert_eq!(t[0].1, SimTime::ZERO);
        assert_eq!(p.phase_times().iter().map(|&(_, t)| t).sum::<SimTime>(), SimTime(3.5));
    }

    #[test]
    fn zero_or_negative_deltas_ignored() {
        let mut p = Profiler::new();
        p.add_phase_time(Phase::Setup, SimTime::ZERO);
        p.add_phase_time(Phase::Setup, SimTime(-1.0));
        assert!(p.phase_times().iter().all(|&(_, t)| t == SimTime::ZERO));
    }

    #[test]
    fn labels_match_paper_categories() {
        assert_eq!(Phase::Setup.label(), "setup");
        assert_eq!(Phase::Malloc.label(), "cudaMalloc");
    }

    #[test]
    fn chrome_trace_is_wellformed_json_events() {
        let mut p = Profiler::new();
        assert_eq!(p.chrome_trace(), "[]");
        p.record_kernel(KernelRecord {
            name: "symbolic_tb_g1".into(),
            phase: Phase::Count,
            stream: 2,
            start: SimTime::from_us(1.0),
            end: SimTime::from_us(3.5),
            blocks: 7,
            dram_bytes: 1024.0,
            efficiency: 0.8,
        });
        p.record_kernel(KernelRecord {
            name: "we\"ird\\name\twith\ncontrol\u{1}chars".into(),
            phase: Phase::Calc,
            stream: 0,
            start: SimTime::ZERO,
            end: SimTime::from_us(1.0),
            blocks: 1,
            dram_bytes: 0.0,
            efficiency: 1.0,
        });
        let t = p.chrome_trace();
        assert!(t.starts_with('[') && t.ends_with(']'));
        assert!(t.contains("\"tid\":2"));
        assert!(t.contains("\"dur\":2.500"));
        // Names survive verbatim, properly escaped — no scrubbing.
        assert!(t.contains("we\\\"ird\\\\name\\twith\\ncontrol\\u0001chars"));
        obs::json::validate(&t).expect("trace parses as JSON");
        // Exactly two events.
        assert_eq!(t.matches("\"ph\":\"X\"").count(), 2);
    }

    fn span(name: &str, stream: usize, start: f64, end: f64) -> KernelRecord {
        KernelRecord {
            name: name.into(),
            phase: Phase::Calc,
            stream,
            start: SimTime::from_us(start),
            end: SimTime::from_us(end),
            blocks: 1,
            dram_bytes: 100.0,
            efficiency: 1.0,
        }
    }

    #[test]
    fn stream_utilization_sums_per_stream() {
        let mut p = Profiler::new();
        assert!(p.stream_utilization().is_empty());
        assert_eq!(p.wall_span(), None);
        p.record_kernel(span("a", 1, 0.0, 2.0));
        p.record_kernel(span("b", 0, 1.0, 2.0));
        p.record_kernel(span("c", 1, 3.0, 4.0));
        let u = p.stream_utilization();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].stream, 0);
        assert_eq!(u[0].kernels, 1);
        assert!((u[0].busy.us() - 1.0).abs() < 1e-9);
        assert_eq!(u[1].stream, 1);
        assert_eq!(u[1].kernels, 2);
        assert!((u[1].busy.us() - 3.0).abs() < 1e-9);
        let (w0, w1) = p.wall_span().unwrap();
        assert_eq!(w0, SimTime::ZERO);
        assert!((w1.us() - 4.0).abs() < 1e-12);
        // Busy never exceeds wall; utilization is the busy fraction.
        let wall = w1 - w0;
        for s in &u {
            assert!(s.busy <= wall);
        }
        assert!((u[1].utilization(wall) - 0.75).abs() < 1e-9);
        assert_eq!(u[1].utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn kernel_table_aggregates_by_phase_name_stream() {
        let mut p = Profiler::new();
        p.record_kernel(span("k", 1, 0.0, 1.0));
        p.record_kernel(span("k", 1, 2.0, 4.0));
        p.record_kernel(span("k", 2, 0.0, 1.0));
        let t = p.kernel_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].launches, 2);
        assert_eq!(t[0].blocks, 2);
        assert!((t[0].time.us() - 3.0).abs() < 1e-9);
        assert_eq!(t[0].dram_bytes, 200.0);
        assert_eq!(t[1].stream, 2);
    }
}
