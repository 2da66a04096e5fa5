//! The traced run's instruments: timing adapters around the switch's
//! public calls, and the record they keep.
//!
//! Nothing here reaches inside the switch. The engine adapter re-composes
//! `SlotMachine::process` from its documented public pieces
//! (`FlatPacket::from_packet` → `process_flat` → `merge_back`), the source
//! adapters forward to the slice sources, and the sink probe wraps the
//! caller's sink. Each adapter accumulates into plain fields on its own
//! thread and hands its totals to a shared [`Recorder`] when it is dropped,
//! so the hot path takes no lock.
//!
//! On a serial switch every adapter runs on the caller's thread, so the
//! switch's own work is exactly the time between adapter calls. After a
//! call that read the clock at its end, the next adapter call reads it at
//! its start, and the interval between is booked as a gap after the layer
//! of the first call (the first call reads the clock once more as it
//! returns, so its own bookkeeping stays out of the gap). Raw intervals each hold about one clock read; the
//! ledger subtracts the measured cost of one read from each.

use crate::workloads::{enq_key, Harness, Programs, Sink};
use banzai::{
    AtomPipeline, FrameSliceSource, FrameSource, PacketSource, PipelineEngine, ShardConfig,
    ShardedSwitch, SliceSource, SlotMachine, SourceError, Switch, SwitchError,
};
use domino_ir::{FlatPacket, Packet, StateStore};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One packet in this many (by offered index) gets span records.
pub const SPAN_SAMPLE: u64 = 1024;
/// One call in this many is timed; layer totals are scaled up from the
/// timed calls. Timing every call would cost six clock reads per engine
/// call, a large share of the engine's own time.
pub const TIME_EVERY: u64 = 8;

/// A shared time base: nanoseconds since the traced run began, so spans
/// recorded on different threads line up.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Clock {
        Clock {
            base: Instant::now(),
        }
    }

    /// Nanoseconds since the base (never 0 once any time has passed).
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// The in-run cost of one clock read, in ns (median of 15 batches).
pub fn clock_read_ns(clock: &Clock) -> f64 {
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            const READS: u64 = 20_000;
            let t = Instant::now();
            let mut sink = 0u64;
            for _ in 0..READS {
                sink = sink.wrapping_add(clock.now());
            }
            std::hint::black_box(sink);
            t.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    crate::median(&mut samples)
}

/// One timed interval of one sampled packet.
#[derive(Debug, Clone)]
pub struct Span {
    /// The packet's offered index (its arrival cycle).
    pub key: u64,
    /// The layer the interval belongs to.
    pub layer: &'static str,
    /// The layer that caused it.
    pub parent: &'static str,
    /// Start, ns on the run's [`Clock`].
    pub start: u64,
    /// End, ns on the run's [`Clock`].
    pub end: u64,
}

/// The adapter layers, in the order of [`Recorded::gaps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The source's `next_*` calls.
    Pull = 0,
    /// The ingress engine.
    Ingress = 1,
    /// The egress engine.
    Egress = 2,
    /// The caller's sink.
    Sink = 3,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Pull => "pull",
            Layer::Ingress => "ingress",
            Layer::Egress => "egress",
            Layer::Sink => "sink",
        }
    }
}

/// Raw intervals summed over the timed calls of one layer. An interval
/// includes about one clock read; [`Tally::estimate`] takes it out.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Calls timed (one in [`TIME_EVERY`]).
    pub timed: u64,
    /// Clock reads the adapter made.
    pub reads: u64,
    /// Summed raw intervals, ns (engines: key, to_flat, exec, merge_back;
    /// pull and sink use the first only).
    pub ns: [u64; 4],
}

impl Tally {
    /// Estimated time of interval `i` over every call, in ns, with one
    /// clock read (`clock_ns`) taken out of each timed interval.
    pub fn estimate(&self, i: usize, clock_ns: f64) -> f64 {
        let timed = self.timed.max(1) as f64;
        (self.ns[i] as f64 - self.timed as f64 * clock_ns) * self.calls as f64 / timed
    }
}

/// A sampled gap count and its summed raw intervals.
#[derive(Debug, Default)]
struct GapCell {
    ns: AtomicU64,
    count: AtomicU64,
}

/// Everything the adapters of one traced rep deposited.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    /// The source adapter's tally.
    pub pull: Tally,
    /// The ingress adapter's tally.
    pub ingress: Tally,
    /// The egress adapter's tally.
    pub egress: Tally,
    /// The sink probe's tally.
    pub sink: Tally,
    /// Sampled gaps after each [`Layer`]: (summed raw ns, count).
    pub gaps: [(u64, u64); 4],
    /// Clock time at the start of every `batch`-th ingress call and at the
    /// end of every `batch`-th egress call: a sharded worker's batch windows.
    pub batch_starts: Vec<u64>,
    /// See `batch_starts`.
    pub batch_ends: Vec<u64>,
    /// Clock time at the end of the last timed egress call.
    pub last_end: u64,
    /// Sampled spans.
    pub spans: Vec<Span>,
}

impl Recorded {
    /// Estimated gap time after every call of `layer`, in ns.
    pub fn gap_estimate(&self, layer: Layer, clock_ns: f64) -> f64 {
        let (ns, count) = self.gaps[layer as usize];
        let calls = match layer {
            Layer::Pull => self.pull.calls,
            Layer::Ingress => self.ingress.calls,
            Layer::Egress => self.egress.calls,
            Layer::Sink => self.sink.calls,
        };
        (ns as f64 - count as f64 * clock_ns) * calls as f64 / count.max(1) as f64
    }

    /// Every clock read the adapters made.
    pub fn reads(&self) -> u64 {
        self.pull.reads + self.ingress.reads + self.egress.reads + self.sink.reads
    }
}

/// Where adapters deposit their totals, shared by the adapters of one rep.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Recorded>,
    // The gap fields are touched only by adapters that run on the caller's
    // thread (serial switches), and publish no other data: `Relaxed`.
    /// Clock time at which the open gap began, 0 when none is open.
    open: AtomicU64,
    /// The [`Layer`] whose call the open gap follows.
    after: AtomicU64,
    gaps: [GapCell; 4],
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    /// Every deposit leaves the record whole, so a guard poisoned by a
    /// panicking adapter is still safe to read.
    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes what was deposited (call after every adapter was dropped).
    pub fn take(&self) -> Recorded {
        let mut r = std::mem::take(&mut *self.lock());
        for (out, cell) in r.gaps.iter_mut().zip(&self.gaps) {
            *out = (cell.ns.swap(0, Relaxed), cell.count.swap(0, Relaxed));
        }
        r
    }
}

/// The timing state of one adapter.
#[derive(Debug)]
struct Meter {
    clock: Clock,
    layer: Layer,
    /// Whether this adapter opens and closes gaps (serial switches only).
    gaps: bool,
    tally: Tally,
    spans: Vec<Span>,
    recorder: Arc<Recorder>,
}

impl Meter {
    fn new(clock: Clock, layer: Layer, gaps: bool, recorder: &Arc<Recorder>) -> Meter {
        Meter {
            clock,
            layer,
            gaps,
            tally: Tally::default(),
            spans: Vec::new(),
            recorder: Arc::clone(recorder),
        }
    }

    /// Whether this call is one of the regularly timed ones.
    fn regular(&self) -> bool {
        self.tally.calls.is_multiple_of(TIME_EVERY)
    }

    fn now(&mut self) -> u64 {
        self.tally.reads += 1;
        self.clock.now()
    }

    /// The start of a call: reads the clock when `want` or when a gap is
    /// open, and closes that gap. Returns 0 when it did not read.
    fn enter(&mut self, want: bool) -> u64 {
        let open = if self.gaps {
            self.recorder.open.load(Relaxed)
        } else {
            0
        };
        if !want && open == 0 {
            return 0;
        }
        let t = self.now();
        if open > 0 {
            let cell = &self.recorder.gaps[self.recorder.after.load(Relaxed) as usize];
            cell.ns.store(cell.ns.load(Relaxed) + (t - open), Relaxed);
            cell.count.store(cell.count.load(Relaxed) + 1, Relaxed);
            self.recorder.open.store(0, Relaxed);
        }
        t
    }

    /// The very end of a timed call: opens a gap at a fresh clock read,
    /// so the gap holds none of the adapter's own bookkeeping.
    fn leave(&mut self) {
        if self.gaps {
            let t = self.now();
            self.recorder.after.store(self.layer as u64, Relaxed);
            self.recorder.open.store(t, Relaxed);
        }
    }

    fn span(&mut self, key: u64, layer: &'static str, parent: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            key,
            layer,
            parent,
            start,
            end,
        });
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        let mut r = self.recorder.lock();
        let tally = std::mem::take(&mut self.tally);
        match self.layer {
            Layer::Pull => r.pull = tally,
            Layer::Ingress => r.ingress = tally,
            Layer::Egress => r.egress = tally,
            Layer::Sink => r.sink = tally,
        }
        r.spans.append(&mut self.spans);
    }
}

/// A [`PipelineEngine`] that runs a [`SlotMachine`] through its public
/// pieces and times each one.
#[derive(Debug)]
pub struct TracedEngine {
    inner: SlotMachine,
    /// Maps the ingress call index to the offered index (wire runs skip
    /// rejected frames); `None` means they are equal.
    keys: Option<Arc<[u64]>>,
    /// Batch length of a sharded run (0: no batch marks).
    batch: u64,
    batch_marks: Vec<u64>,
    last_end: u64,
    meter: Meter,
}

impl TracedEngine {
    /// Wraps a freshly compiled slot engine for `pipeline`.
    fn new(
        pipeline: &AtomPipeline,
        layer: Layer,
        meter: (Clock, bool, &Arc<Recorder>),
    ) -> Result<TracedEngine, SwitchError> {
        let (clock, gaps, recorder) = meter;
        Ok(TracedEngine {
            inner: SlotMachine::compile(pipeline).map_err(SwitchError::Build)?,
            keys: None,
            batch: 0,
            batch_marks: Vec::new(),
            last_end: 0,
            meter: Meter::new(clock, layer, gaps, recorder),
        })
    }

    /// The offered index of the packet in this call.
    fn key(&self, pkt: &Packet) -> u64 {
        match self.meter.layer {
            Layer::Ingress => match &self.keys {
                Some(keys) => keys
                    .get(self.meter.tally.calls as usize)
                    .copied()
                    .unwrap_or(u64::MAX),
                None => self.meter.tally.calls,
            },
            // The queue stamps the arrival cycle, which is the offered
            // index: one arrival per cycle from cycle 0.
            _ => enq_key(pkt),
        }
    }
}

impl PipelineEngine for TracedEngine {
    fn build(pipeline: &AtomPipeline) -> Result<TracedEngine, SwitchError> {
        // Only reached when a sharded switch rebuilds a failed shard; that
        // engine reports to a recorder nobody reads.
        TracedEngine::new(
            pipeline,
            Layer::Ingress,
            (Clock::start(), false, &Recorder::new()),
        )
    }

    fn process(&mut self, pkt: Packet) -> Packet {
        let calls = self.meter.tally.calls;
        let regular = self.meter.regular();
        let batch_start = self.batch > 0 && calls.is_multiple_of(self.batch);
        let batch_end = self.batch > 0 && calls % self.batch == self.batch - 1;
        let t_in = self.meter.enter(regular || batch_start);
        let key = self.key(&pkt);
        let sampled = key.is_multiple_of(SPAN_SAMPLE);
        let timed = regular || sampled;
        let t0 = if timed { self.meter.now() } else { 0 };
        let mut flat = FlatPacket::from_packet(&pkt, self.inner.field_table());
        let t1 = if timed { self.meter.now() } else { 0 };
        self.inner.process_flat(&mut flat);
        let t2 = if timed { self.meter.now() } else { 0 };
        let mut out = pkt;
        self.inner.merge_back(&flat, &mut out);
        let t3 = if timed || batch_end {
            self.meter.now()
        } else {
            0
        };

        if batch_start && self.meter.layer == Layer::Ingress {
            self.batch_marks.push(t_in);
        }
        if batch_end && self.meter.layer == Layer::Egress {
            self.batch_marks.push(t3);
        }
        if t3 > 0 {
            // Within `TIME_EVERY` calls of the true last call.
            self.last_end = t3;
        }
        self.meter.tally.calls += 1;
        if regular {
            let t = &mut self.meter.tally;
            for (acc, ns) in t.ns.iter_mut().zip([t0 - t_in, t1 - t0, t2 - t1, t3 - t2]) {
                *acc += ns;
            }
            t.timed += 1;
        }
        if sampled {
            let parent = self.meter.layer.label();
            for (layer, start, end) in [
                (parent, t0, t3),
                ("to_flat", t0, t1),
                ("exec", t1, t2),
                ("merge_back", t2, t3),
            ] {
                let up = if layer == parent { "switch" } else { parent };
                self.meter.span(key, layer, up, start, end);
            }
        }
        if timed {
            self.meter.leave();
        }
        out
    }

    fn export_state(&self) -> StateStore {
        self.inner.export_state()
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        self.inner.import_state(snapshot)
    }
}

impl Drop for TracedEngine {
    fn drop(&mut self) {
        let mut r = self.meter.recorder.lock();
        let marks = std::mem::take(&mut self.batch_marks);
        match self.meter.layer {
            Layer::Egress => {
                r.batch_ends = marks;
                r.last_end = self.last_end;
            }
            _ => r.batch_starts = marks,
        }
    }
}

/// Runs one pull through `meter`, timing one in [`TIME_EVERY`]. The pull
/// index is the offered index, so every sampled packet's pull is timed.
#[inline]
fn pull<R>(meter: &mut Meter, next: impl FnOnce() -> R) -> R {
    let regular = meter.regular();
    let t0 = meter.enter(regular);
    let r = next();
    if regular {
        let t1 = meter.now();
        let key = meter.tally.calls;
        if key.is_multiple_of(SPAN_SAMPLE) {
            meter.span(key, "pull", "switch", t0, t1);
        }
        meter.tally.ns[0] += t1 - t0;
        meter.tally.timed += 1;
    }
    meter.tally.calls += 1;
    if regular {
        meter.leave();
    }
    r
}

/// A forwarding, timing wrapper around any [`PacketSource`].
#[derive(Debug)]
pub struct TracedPackets<S> {
    inner: S,
    meter: Meter,
}

impl<S: PacketSource> PacketSource for TracedPackets<S> {
    fn next_packet(&mut self) -> Result<Option<Packet>, SourceError> {
        let inner = &mut self.inner;
        pull(&mut self.meter, || inner.next_packet())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A forwarding, timing wrapper around any [`FrameSource`].
#[derive(Debug)]
pub struct TracedFrames<S> {
    inner: S,
    meter: Meter,
}

impl<S: FrameSource> FrameSource for TracedFrames<S> {
    fn next_frame(&mut self) -> Result<Option<&[u8]>, SourceError> {
        let inner = &mut self.inner;
        pull(&mut self.meter, || inner.next_frame())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Times the caller's sink, one call in [`TIME_EVERY`], key look-up
/// included.
#[derive(Debug)]
pub struct SinkProbe {
    /// Offered indices of the accepted frames (wire runs).
    keys: Option<Arc<[u64]>>,
    emitted: usize,
    meter: Meter,
}

impl SinkProbe {
    /// Runs `push` as the sink of the item whose offered index `key`
    /// gives. A sampled packet that is not regularly timed gets its span
    /// from after the key look-up.
    #[inline]
    fn time<T>(&mut self, item: T, key: impl FnOnce(&Self, &T) -> u64, push: impl FnOnce(T)) {
        let regular = self.meter.regular();
        let t_in = self.meter.enter(regular);
        let key = key(self, &item);
        let sampled = key.is_multiple_of(SPAN_SAMPLE);
        let t0 = if t_in == 0 && sampled {
            self.meter.now()
        } else {
            t_in
        };
        push(item);
        self.emitted += 1;
        self.meter.tally.calls += 1;
        if !(regular || sampled) {
            return;
        }
        let t1 = self.meter.now();
        if regular {
            self.meter.tally.ns[0] += t1 - t_in;
            self.meter.tally.timed += 1;
        }
        if sampled {
            self.meter.span(key, "sink", "switch", t0, t1);
        }
        self.meter.leave();
    }
}

impl Sink for SinkProbe {
    fn packet(&mut self, out: &mut Vec<Packet>, pkt: Packet) {
        self.time(pkt, |_, p| enq_key(p), |p| out.push(p))
    }

    fn frame(&mut self, out: &mut Vec<Vec<u8>>, frame: Vec<u8>) {
        // The queue never fills, so the j-th frame out is the j-th
        // accepted frame.
        let key = |s: &Self, _: &Vec<u8>| {
            s.keys
                .as_ref()
                .and_then(|k| k.get(s.emitted))
                .copied()
                .unwrap_or(u64::MAX)
        };
        self.time(frame, key, |f| out.push(f))
    }
}

/// Builds the adapters of one traced rep, all reporting to one
/// [`Recorder`] on one [`Clock`].
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    recorder: Arc<Recorder>,
    /// Offered indices of the accepted frames (wire runs).
    keys: Option<Arc<[u64]>>,
}

impl Tracer {
    /// The adapters of one rep; `keys` maps ingress calls to offered
    /// indices (the wire workload's accepted frames).
    pub fn new(clock: Clock, keys: Option<&Arc<[u64]>>) -> Tracer {
        Tracer {
            clock,
            recorder: Recorder::new(),
            keys: keys.cloned(),
        }
    }

    /// The sink probe of a serial run.
    pub fn sink(&self) -> SinkProbe {
        SinkProbe {
            keys: self.keys.clone(),
            emitted: 0,
            meter: Meter::new(self.clock, Layer::Sink, true, &self.recorder),
        }
    }

    /// Takes what the rep's adapters recorded (after they were dropped).
    pub fn take(&self) -> Recorded {
        self.recorder.take()
    }

    fn engine(
        &self,
        pipeline: &AtomPipeline,
        layer: Layer,
        serial: bool,
    ) -> Result<TracedEngine, SwitchError> {
        TracedEngine::new(pipeline, layer, (self.clock, serial, &self.recorder))
    }
}

impl Harness for Tracer {
    type Engine = TracedEngine;

    fn serial(&self, p: &Programs, capacity: usize) -> Switch<TracedEngine> {
        let mut ing = self
            .engine(&p.ingress, Layer::Ingress, true)
            .expect("engine builds");
        ing.keys = self.keys.clone();
        let eg = self
            .engine(&p.egress, Layer::Egress, true)
            .expect("engine builds");
        Switch::from_engines(ing, eg, capacity)
    }

    fn sharded(&self, p: &Programs, config: ShardConfig) -> Option<ShardedSwitch<TracedEngine>> {
        let batch = config.batch as u64;
        let sw = ShardedSwitch::new_with(&p.ingress, &p.egress, config, |_, _, _, capacity| {
            let mut ing = self.engine(&p.ingress, Layer::Ingress, false)?;
            let mut eg = self.engine(&p.egress, Layer::Egress, false)?;
            ing.batch = batch;
            eg.batch = batch;
            Ok(Switch::from_engines(ing, eg, capacity))
        });
        Some(sw.expect("sharded switch builds"))
    }

    fn packets<'a>(&self, s: SliceSource<'a>) -> impl PacketSource + use<'a> {
        TracedPackets {
            inner: s,
            meter: Meter::new(self.clock, Layer::Pull, true, &self.recorder),
        }
    }

    fn frames<'a>(&self, s: FrameSliceSource<'a, Vec<u8>>) -> impl FrameSource + use<'a> {
        TracedFrames {
            inner: s,
            meter: Meter::new(self.clock, Layer::Pull, true, &self.recorder),
        }
    }
}
