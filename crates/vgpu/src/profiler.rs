//! Phase attribution and the views of the device timeline.
//!
//! Figures 5 and 6 of the paper break SpGEMM time into four phases —
//! *setup* (grouping), *count*, *calculation* and *cudaMalloc of the
//! output matrix*. Algorithms mark phase boundaries on the device, and
//! the device adds the elapsed simulated time to the running total of
//! the phase that was current ([`PhaseTotals`]). That is all a run keeps
//! when telemetry is off.
//!
//! With telemetry on, the device logs every kernel, malloc and copy as a
//! `kernel`, `alloc` or `memcpy` event ([`crate::Gpu`] writes them);
//! [`Timeline`] reads those events back as the kernel table, stream
//! utilization, wall span and Chrome trace.

use crate::simtime::SimTime;
use obs::{Event, Value};
use std::borrow::Cow;

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

    fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }
}

/// Running simulated time per phase, in [`Phase::ALL`] order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTotals([SimTime; 5]);

impl PhaseTotals {
    /// Attribute `dt` of elapsed device time to `phase`.
    pub(crate) fn add(&mut self, phase: Phase, dt: SimTime) {
        if dt > SimTime::ZERO {
            self.0[phase as usize] += dt;
        }
    }

    /// Total attributed time per phase, in [`Phase::ALL`] order (phases
    /// with zero time included).
    pub(crate) fn times(&self) -> Vec<(Phase, SimTime)> {
        Phase::ALL.into_iter().zip(self.0).collect()
    }
}

/// One timed device operation — kernel, malloc or copy — read back from
/// its event.
struct Op<'a> {
    name: Cow<'a, str>,
    phase: Phase,
    stream: usize,
    start_us: f64,
    dur_us: f64,
    blocks: usize,
    dram_bytes: f64,
    efficiency: f64,
}

impl<'a> Op<'a> {
    /// The operation an event logs, or `None` for any other event. A
    /// kernel's `t_us` is its start; a malloc's or copy's, its end.
    fn of(e: &'a Event) -> Option<Op<'a>> {
        let text = |key| match e.field(key)? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        };
        let int = |key| match e.field(key)? {
            Value::U64(v) => usize::try_from(*v).ok(),
            _ => None,
        };
        let float = |key| match e.field(key)? {
            Value::F64(v) => Some(*v),
            _ => None,
        };
        let phase = Phase::from_label(text("phase")?)?;
        let (t_us, dur_us) = (float("t_us")?, float("dur_us")?);
        let serial = |name, dram_bytes| {
            let start_us = t_us - dur_us;
            Some(Op {
                name,
                phase,
                stream: 0,
                start_us,
                dur_us,
                blocks: 0,
                dram_bytes,
                efficiency: 1.0,
            })
        };
        match e.kind() {
            "kernel" => Some(Op {
                name: Cow::Borrowed(text("name")?),
                phase,
                stream: int("stream")?,
                start_us: t_us,
                dur_us,
                blocks: int("blocks")?,
                dram_bytes: float("dram_bytes")?,
                efficiency: float("efficiency")?,
            }),
            "alloc" => serial(Cow::Owned(format!("cudaMalloc({})", text("tag")?)), 0.0),
            "memcpy" => {
                let name = if text("dir")? == "h2d" { "memcpy_h2d" } else { "memcpy_d2h" };
                serial(Cow::Borrowed(name), int("bytes")? as f64)
            }
            _ => None,
        }
    }
}

/// The device timeline in a telemetry event log: every kernel, malloc
/// and copy, in completion order. Other events are skipped, so a job
/// trace that mixes engine and device events reads the same.
#[derive(Debug, Clone, Copy)]
pub struct Timeline<'a> {
    events: &'a [Event],
}

impl<'a> Timeline<'a> {
    /// The timeline in `events` (empty when no device event is there).
    pub fn new(events: &'a [Event]) -> Self {
        Timeline { events }
    }

    fn ops(&self) -> impl Iterator<Item = Op<'a>> + 'a {
        self.events.iter().filter_map(Op::of)
    }

    /// Number of timed operations.
    pub fn len(&self) -> usize {
        self.ops().count()
    }

    /// Whether no operation was logged.
    pub fn is_empty(&self) -> bool {
        self.ops().next().is_none()
    }

    /// Busy/idle utilization of every stream that ran an operation,
    /// sorted by stream id. Operations on one stream serialize on the
    /// device, so a stream's busy time is the plain sum of its span
    /// durations and can never exceed the overall wall span.
    pub fn stream_utilization(&self) -> Vec<StreamUtil> {
        let mut by_stream: Vec<StreamUtil> = Vec::new();
        for k in self.ops() {
            let busy = SimTime::from_us(k.dur_us);
            match by_stream.iter_mut().find(|u| u.stream == k.stream) {
                Some(u) => {
                    u.busy += busy;
                    u.kernels += 1;
                }
                None => by_stream.push(StreamUtil { stream: k.stream, busy, kernels: 1 }),
            }
        }
        by_stream.sort_by_key(|u| u.stream);
        by_stream
    }

    /// `(earliest start, latest end)` over all operations, or `None`
    /// when nothing ran.
    pub fn wall_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.ops().map(|k| k.start_us).reduce(f64::min)?;
        let last = self.ops().map(|k| k.start_us + k.dur_us).reduce(f64::max)?;
        Some((SimTime::from_us(first), SimTime::from_us(last)))
    }

    /// Operation time aggregated by `(phase, name, stream)`, in
    /// first-appearance order — the rows of the trace CLI's
    /// phase × group × stream table (group ids are encoded in kernel
    /// names, e.g. `numeric_tb_g3`).
    pub fn kernel_table(&self) -> Vec<KernelAgg> {
        let mut rows: Vec<KernelAgg> = Vec::new();
        for k in self.ops() {
            let time = SimTime::from_us(k.dur_us);
            let key = (k.phase, &*k.name, k.stream);
            match rows.iter_mut().find(|r| (r.phase, r.name.as_str(), r.stream) == key) {
                Some(r) => {
                    r.launches += 1;
                    r.blocks += k.blocks;
                    r.time += time;
                    r.dram_bytes += k.dram_bytes;
                }
                None => rows.push(KernelAgg {
                    phase: k.phase,
                    name: k.name.into_owned(),
                    stream: k.stream,
                    launches: 1,
                    blocks: k.blocks,
                    time,
                    dram_bytes: k.dram_bytes,
                }),
            }
        }
        rows
    }

    /// Export the timeline as Chrome trace-event JSON (load it at
    /// `chrome://tracing` or in Perfetto). One track per CUDA stream;
    /// durations are the simulated device times in microseconds. Kernel
    /// names are JSON-escaped verbatim (quotes, backslashes and control
    /// characters included).
    pub fn chrome_trace(&self) -> String {
        let mut trace = obs::chrome::Trace::default();
        for k in self.ops() {
            trace.span(&obs::chrome::Span {
                name: &k.name,
                cat: Some(k.phase.label()),
                ts_us: k.start_us,
                dur_us: k.dur_us,
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
/// [`Timeline::stream_utilization`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamUtil {
    /// Stream id.
    pub stream: usize,
    /// Sum of operation span durations on this stream.
    pub busy: SimTime,
    /// Number of operations.
    pub kernels: usize,
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

/// One row of [`Timeline::kernel_table`]: operation time aggregated by
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
        let mut p = PhaseTotals::default();
        p.add(Phase::Count, SimTime(1.0));
        p.add(Phase::Calc, SimTime(2.0));
        p.add(Phase::Count, SimTime(0.5));
        let t = p.times();
        assert_eq!(t.len(), Phase::ALL.len());
        assert_eq!(t[1], (Phase::Count, SimTime(1.5)));
        assert_eq!(t[2], (Phase::Calc, SimTime(2.0)));
        assert_eq!(t[0].1, SimTime::ZERO);
        assert_eq!(p.times().iter().map(|&(_, t)| t).sum::<SimTime>(), SimTime(3.5));
    }

    #[test]
    fn zero_or_negative_deltas_ignored() {
        let mut p = PhaseTotals::default();
        p.add(Phase::Setup, SimTime::ZERO);
        p.add(Phase::Setup, SimTime(-1.0));
        assert!(p.times().iter().all(|&(_, t)| t == SimTime::ZERO));
    }

    #[test]
    fn labels_match_paper_categories() {
        assert_eq!(Phase::Setup.label(), "setup");
        assert_eq!(Phase::Malloc.label(), "cudaMalloc");
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
    }

    /// A `kernel` event as the device logs it.
    fn kernel(name: &str, phase: Phase, stream: u64, start_us: f64, end_us: f64) -> Event {
        Event::new("kernel")
            .str("name", name)
            .str("phase", phase.label())
            .u64("stream", stream)
            .u64("blocks", 1)
            .f64("t_us", start_us)
            .f64("dur_us", end_us - start_us)
            .f64("dram_bytes", 100.0)
            .f64("efficiency", 1.0)
    }

    #[test]
    fn chrome_trace_is_wellformed_json_events() {
        assert_eq!(Timeline::new(&[]).chrome_trace(), "[]");
        let events = [
            Event::new("kernel")
                .str("name", "symbolic_tb_g1")
                .str("phase", "count")
                .u64("stream", 2)
                .u64("blocks", 7)
                .f64("t_us", 1.0)
                .f64("dur_us", 2.5)
                .f64("dram_bytes", 1024.0)
                .f64("efficiency", 0.8),
            // Not a timed operation: skipped.
            Event::new("phase").str("name", "count").f64("t_us", 0.0).f64("dur_us", 3.5),
            kernel("we\"ird\\name\twith\ncontrol\u{1}chars", Phase::Calc, 0, 0.0, 1.0),
        ];
        let t = Timeline::new(&events).chrome_trace();
        assert!(t.starts_with('[') && t.ends_with(']'));
        assert!(t.contains("\"tid\":2"));
        assert!(t.contains("\"dur\":2.500"));
        assert!(t.contains("\"args\":{\"blocks\":7,\"dram_bytes\":1024,\"efficiency\":0.800}"));
        // Names survive verbatim, properly escaped — no scrubbing.
        assert!(t.contains("we\\\"ird\\\\name\\twith\\ncontrol\\u0001chars"));
        obs::json::validate(&t).expect("trace parses as JSON");
        // Exactly two events.
        assert_eq!(t.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn mallocs_and_copies_end_at_their_timestamp_on_stream_zero() {
        let events = [
            Event::new("alloc")
                .str("tag", "C")
                .u64("bytes", 64)
                .u64("live", 64)
                .f64("t_us", 5.0)
                .str("phase", "cudaMalloc")
                .f64("dur_us", 4.0),
            Event::new("memcpy")
                .str("dir", "d2h")
                .u64("bytes", 4096)
                .f64("t_us", 8.0)
                .str("phase", "other")
                .f64("dur_us", 2.0),
        ];
        let tl = Timeline::new(&events);
        assert_eq!(tl.len(), 2);
        let t = tl.chrome_trace();
        assert!(t.contains(
            "{\"name\":\"cudaMalloc(C)\",\"cat\":\"cudaMalloc\",\"ph\":\"X\",\"ts\":1.000,\
             \"dur\":4.000,\"pid\":0,\"tid\":0,\"args\":{\"blocks\":0,\"dram_bytes\":0,\
             \"efficiency\":1.000}}"
        ));
        assert!(t.contains("\"name\":\"memcpy_d2h\",\"cat\":\"other\",\"ph\":\"X\",\"ts\":6.000"));
        assert!(t.contains("\"dram_bytes\":4096"));
        let rows = tl.kernel_table();
        assert_eq!(rows[0].name, "cudaMalloc(C)");
        assert_eq!((rows[0].phase, rows[0].blocks), (Phase::Malloc, 0));
        let (w0, w1) = tl.wall_span().unwrap();
        assert!((w0.us() - 1.0).abs() < 1e-9 && (w1.us() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn stream_utilization_sums_per_stream() {
        let empty = Timeline::new(&[]);
        assert!(empty.stream_utilization().is_empty());
        assert_eq!(empty.wall_span(), None);
        assert!(empty.is_empty());
        let events = [
            kernel("a", Phase::Calc, 1, 0.0, 2.0),
            kernel("b", Phase::Calc, 0, 1.0, 2.0),
            kernel("c", Phase::Calc, 1, 3.0, 4.0),
        ];
        let p = Timeline::new(&events);
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
        let events = [
            kernel("k", Phase::Calc, 1, 0.0, 1.0),
            kernel("k", Phase::Calc, 1, 2.0, 4.0),
            kernel("k", Phase::Calc, 2, 0.0, 1.0),
        ];
        let t = Timeline::new(&events).kernel_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].launches, 2);
        assert_eq!(t[0].blocks, 2);
        assert!((t[0].time.us() - 3.0).abs() < 1e-9);
        assert_eq!(t[0].dram_bytes, 200.0);
        assert_eq!(t[1].stream, 2);
    }
}
