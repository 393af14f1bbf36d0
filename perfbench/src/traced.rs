//! The traced run: the co-simulation loop driven by hand from the
//! benchmark's own code, timing every call into each layer's public
//! functions. Nothing inside the program is instrumented; the program's
//! own `PhaseTimer` is only read (by the untraced run, for comparison).
//!
//! The loop is the engine's, step for step — tick → retain → pack →
//! feed → admit → visit/check → flush/finalize — and must reproduce the
//! untraced run's verdict, items and bytes exactly; a divergence counts
//! as a failed run.

use std::io::{BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

use difftest_core::batch::peek_packet_seq;
use difftest_core::proto::{read_result, write_end_frame, write_hello, write_transfer_frame};
use difftest_core::{
    AccelUnit, ChargeObserver, CheckStats, Checker, Consumer, Hello, LinkErrorKind, LinkSink,
    QueueSink, ReplayBuffer, RunOutcome, SendLink, Step, SwUnit, Transfer, Verdict,
};
use difftest_dut::Dut;
use difftest_event::MonitoredEvent;
use difftest_ref::{Memory, RefModel};
use difftest_stats::FlightRecorder;
use difftest_workload::Workload;

use crate::workload::{Observed, Spec, MAX_CYCLES};

/// Event retention ring of the engine's BNSD consumer (the capacity
/// `CoSimulation` passes to `Session::consumer_with_retention`).
const RETENTION_EVENTS: usize = 1 << 16;

/// How long the producer waits for the daemon's result, as the socket
/// runner does.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);

/// Self time per layer, in seconds. A layer's self time excludes the
/// timed layers it calls into (only `link.feed` nests one: the frame
/// writes of the serve path).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `Dut::tick_into`.
    pub tick: f64,
    /// `ReplayBuffer::push_slice` (plus `record_packet` on a faulty link).
    pub retain: f64,
    /// `AccelUnit::push_cycle` and `flush`.
    pub pack: f64,
    /// `SendLink::feed` and `finish`, minus nested frame writes.
    pub feed: f64,
    /// `SwUnit::admit`.
    pub admit: f64,
    /// `SwUnit::visit_admitted` with `Checker::process_ref`, plus the
    /// closing `Checker::finalize`.
    pub visit: f64,
    /// `Consumer::ingest` and `finish_stream` (ARQ path only).
    pub ingest: f64,
    /// `write_transfer_frame`, including time blocked on backpressure.
    pub write: f64,
    /// End frame until `read_result` returns.
    pub result_wait: f64,
}

impl LayerTimes {
    /// Every self time, in a fixed order.
    pub fn all(&self) -> [f64; 9] {
        [
            self.tick,
            self.retain,
            self.pack,
            self.feed,
            self.admit,
            self.visit,
            self.ingest,
            self.write,
            self.result_wait,
        ]
    }

    /// Adds another program's times.
    pub fn add(&mut self, o: &LayerTimes) {
        self.tick += o.tick;
        self.retain += o.retain;
        self.pack += o.pack;
        self.feed += o.feed;
        self.admit += o.admit;
        self.visit += o.visit;
        self.ingest += o.ingest;
        self.write += o.write;
        self.result_wait += o.result_wait;
    }
}

/// Work counts per layer, read at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Events the DUT monitors emitted.
    pub dut_events: u64,
    /// Events pushed into the retention ring.
    pub retained_events: u64,
    /// Transfers the accelerator produced.
    pub pack_transfers: u64,
    /// Bytes the accelerator produced.
    pub pack_bytes: u64,
    /// Payload bytes (non-meta, non-padding) the packer emitted.
    pub pack_payload_bytes: u64,
    /// Commits absorbed into fused records.
    pub commits_fused: u64,
    /// Fused records emitted.
    pub fused_records: u64,
    /// Events sent ahead with order tags.
    pub tagged: u64,
    /// Faults the link model applied.
    pub faults: u64,
    /// Reorder-buffer high-water mark (packets).
    pub reorder_max: u64,
    /// Wire items checked.
    pub items: u64,
    /// REF instructions the checker stepped.
    pub ref_insns: u64,
    /// MMIO skips plus interrupts synchronized.
    pub nde_syncs: u64,
    /// Payload bytes the checker compared.
    pub bytes_compared: u64,
    /// ARQ retransmissions.
    pub retransmits: u64,
    /// Link failures ARQ recovered.
    pub recovered: u64,
    /// Transfer frames written to the daemon.
    pub frames: u64,
    /// Instructions the DUT committed.
    pub instructions: u64,
}

impl LayerCounts {
    /// Adds another program's counts (high-water marks take the max).
    pub fn add(&mut self, o: &LayerCounts) {
        self.dut_events += o.dut_events;
        self.retained_events += o.retained_events;
        self.pack_transfers += o.pack_transfers;
        self.pack_bytes += o.pack_bytes;
        self.pack_payload_bytes += o.pack_payload_bytes;
        self.commits_fused += o.commits_fused;
        self.fused_records += o.fused_records;
        self.tagged += o.tagged;
        self.faults += o.faults;
        self.reorder_max = self.reorder_max.max(o.reorder_max);
        self.items += o.items;
        self.ref_insns += o.ref_insns;
        self.nde_syncs += o.nde_syncs;
        self.bytes_compared += o.bytes_compared;
        self.retransmits += o.retransmits;
        self.recovered += o.recovered;
        self.frames += o.frames;
        self.instructions += o.instructions;
    }
}

/// One traced program.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    /// What the hand-driven loop observed.
    pub observed: Observed,
    /// Wall from the first tick to the verdict.
    pub wall_s: f64,
    /// Per-layer self times.
    pub times: LayerTimes,
    /// Per-layer counts.
    pub counts: LayerCounts,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Counts what crosses the link the way the engine's LogGP observer
/// does: every transfer handed to the consumer, redeliveries included.
#[derive(Default)]
struct LinkTally {
    transfers: u64,
    bytes: u64,
}

impl LinkTally {
    fn count(&mut self, t: &Transfer) {
        self.transfers += 1;
        self.bytes += t.bytes.len() as u64;
    }
}

impl ChargeObserver for LinkTally {
    fn transfer_done(&mut self, t: &Transfer, _before: &CheckStats, _after: &CheckStats) {
        self.count(t);
    }
}

/// The receive side: either the decoder and checker driven directly
/// (clean link, so each is timed on its own), or the shared `Consumer`
/// whose ARQ redelivery is internal (faulty link).
// One exists per traced program; boxing would only add an indirection
// to every delivery.
#[allow(clippy::large_enum_variant)]
enum Rx {
    Direct {
        sw: SwUnit,
        checker: Checker,
        ring: Option<ReplayBuffer>,
        decided: Option<RunOutcome>,
    },
    Arq(Consumer),
}

impl Rx {
    fn ring(&mut self) -> Option<&mut ReplayBuffer> {
        match self {
            Rx::Direct { ring, .. } => ring.as_mut(),
            Rx::Arq(c) => c.retention_mut(),
        }
    }

    fn stopped(&self) -> bool {
        match self {
            Rx::Direct { decided, .. } => decided.is_some(),
            Rx::Arq(c) => c.stopped(),
        }
    }

    /// Feeds one delivered transfer; `true` when the stream is decided.
    fn deliver(
        &mut self,
        t: &Transfer,
        cycle: u64,
        tally: &mut LinkTally,
        lt: &mut LayerTimes,
        lc: &mut LayerCounts,
    ) -> bool {
        match self {
            Rx::Direct {
                sw,
                checker,
                decided,
                ..
            } => {
                tally.count(t);
                let t0 = Instant::now();
                let admitted = sw.admit(t);
                lt.admit += secs(t0);
                lc.reorder_max = lc.reorder_max.max(sw.buffered_packets() as u64);
                let body = match admitted {
                    Ok(None) => return false,
                    Ok(Some(body)) => body,
                    Err(e) => {
                        let kind = LinkErrorKind::classify(&e);
                        if kind == LinkErrorKind::Stale {
                            return false;
                        }
                        *decided = Some(RunOutcome::LinkError {
                            kind,
                            seq: sw.expected_seq().unwrap_or(0),
                            core: t.core,
                        });
                        return true;
                    }
                };
                let t0 = Instant::now();
                let mut verdict = None;
                let items = &mut lc.items;
                let visited = sw.visit_admitted(body, &mut |item| {
                    *items += 1;
                    match checker.process_ref(item) {
                        Ok(Verdict::Continue) => true,
                        Ok(v) => {
                            verdict = Some(outcome_of(Some(v)));
                            false
                        }
                        Err(_) => {
                            verdict = Some(RunOutcome::Mismatch);
                            false
                        }
                    }
                });
                lt.visit += secs(t0);
                if let Err(e) = visited {
                    verdict = Some(RunOutcome::LinkError {
                        kind: LinkErrorKind::classify(&e),
                        seq: sw.expected_seq().unwrap_or(0),
                        core: t.core,
                    });
                }
                *decided = verdict;
                decided.is_some()
            }
            Rx::Arq(c) => {
                let t0 = Instant::now();
                let step = c.ingest(t, cycle, tally);
                lt.ingest += secs(t0);
                step == Step::Stop
            }
        }
    }

    /// Closes the stream: a gap is final, an intact stream finalizes
    /// the checker (`Consumer::finish_stream`'s clean-link logic).
    fn finish(&mut self, produced: u32, cycle: u64, tally: &mut LinkTally, lt: &mut LayerTimes) {
        match self {
            Rx::Direct {
                sw,
                checker,
                decided,
                ..
            } => {
                if decided.is_some() {
                    return;
                }
                let intact = sw
                    .expected_seq()
                    .is_none_or(|e| e == produced && sw.buffered_packets() == 0);
                if !intact {
                    *decided = Some(RunOutcome::LinkError {
                        kind: LinkErrorKind::Gap,
                        seq: sw.expected_seq().unwrap_or(0),
                        core: 0,
                    });
                    return;
                }
                let t0 = Instant::now();
                let fin = checker.finalize();
                lt.visit += secs(t0);
                *decided = Some(match fin {
                    Ok(v) => outcome_of(Some(v)),
                    Err(_) => RunOutcome::Mismatch,
                });
            }
            Rx::Arq(c) => {
                if c.stopped() {
                    return;
                }
                let t0 = Instant::now();
                c.finish_stream(Some(produced), cycle, tally);
                lt.ingest += secs(t0);
            }
        }
    }

    fn outcome(&self) -> RunOutcome {
        match self {
            Rx::Direct { decided, .. } => decided.unwrap_or(RunOutcome::MaxCycles),
            Rx::Arq(c) => {
                if c.mismatch().is_some() {
                    RunOutcome::Mismatch
                } else if let Some((kind, seq, core)) = c.link_error() {
                    RunOutcome::LinkError { kind, seq, core }
                } else {
                    outcome_of(c.verdict())
                }
            }
        }
    }

    fn checker(&self) -> &Checker {
        match self {
            Rx::Direct { checker, .. } => checker,
            Rx::Arq(c) => c.checker(),
        }
    }

    fn items(&self, lc: &LayerCounts) -> u64 {
        match self {
            Rx::Direct { .. } => lc.items,
            Rx::Arq(c) => c.items(),
        }
    }
}

fn outcome_of(v: Option<Verdict>) -> RunOutcome {
    match v {
        Some(Verdict::Halt { good: true, .. }) => RunOutcome::GoodTrap,
        Some(Verdict::Halt { good: false, .. }) => RunOutcome::BadTrap,
        _ => RunOutcome::MaxCycles,
    }
}

/// The producer's components and per-cycle scratch.
struct Producer {
    dut: Dut,
    accel: AccelUnit,
    events: Vec<MonitoredEvent>,
    staged: Vec<Transfer>,
}

impl Producer {
    fn running(&self) -> bool {
        self.dut.halted().is_none() && self.dut.cycles() < MAX_CYCLES
    }

    /// One cycle: tick, retain (when a ring is given), pack.
    fn cycle(
        &mut self,
        ring: Option<&mut ReplayBuffer>,
        lt: &mut LayerTimes,
        lc: &mut LayerCounts,
    ) {
        let t0 = Instant::now();
        self.events.clear();
        self.dut.tick_into(&mut self.events);
        lt.tick += secs(t0);
        lc.dut_events += self.events.len() as u64;
        if let Some(rb) = ring {
            let t0 = Instant::now();
            rb.push_slice(&self.events);
            lt.retain += secs(t0);
            lc.retained_events += self.events.len() as u64;
        }
        let t0 = Instant::now();
        self.accel.push_cycle(&self.events, &mut self.staged);
        lt.pack += secs(t0);
        self.count_staged(lc);
    }

    fn flush(&mut self, lt: &mut LayerTimes, lc: &mut LayerCounts) {
        let t0 = Instant::now();
        self.accel.flush(&mut self.staged);
        lt.pack += secs(t0);
        self.count_staged(lc);
    }

    fn count_staged(&self, lc: &mut LayerCounts) {
        lc.pack_transfers += self.staged.len() as u64;
        lc.pack_bytes += self
            .staged
            .iter()
            .map(|t| t.bytes.len() as u64)
            .sum::<u64>();
    }

    /// Final accelerator and DUT statistics.
    fn close(&self, lc: &mut LayerCounts) {
        if let Some(p) = self.accel.pack_stats() {
            lc.pack_payload_bytes = p.payload_bytes;
        }
        if let Some(s) = self.accel.squash_stats() {
            lc.commits_fused = s.commits_fused;
            lc.fused_records = s.fused_records;
            lc.tagged = s.tagged;
        }
        lc.instructions = self.dut.total_commits();
    }
}

/// The engine path's state, driven by hand.
struct EngineLoop {
    p: Producer,
    rx: Rx,
    link: SendLink<QueueSink>,
    flight: FlightRecorder,
    tally: LinkTally,
    lt: LayerTimes,
    lc: LayerCounts,
}

impl EngineLoop {
    /// Moves staged transfers across the link (retaining pristine
    /// copies on a faulty link, as the engine does) and delivers what
    /// arrives; `finish` also releases the link's reorder holds. `true`
    /// once the stream is decided.
    fn route(&mut self, finish: bool) -> bool {
        let cycle = self.p.dut.cycles();
        if !self.p.staged.is_empty() {
            if self.link.is_faulty() {
                if let Some(rb) = self.rx.ring() {
                    let t0 = Instant::now();
                    for t in &self.p.staged {
                        if let Some(seq) = peek_packet_seq(&t.bytes) {
                            rb.record_packet(seq, &t.bytes);
                        }
                    }
                    self.lt.retain += secs(t0);
                }
            }
            let t0 = Instant::now();
            self.link.feed(&mut self.p.staged, &mut self.flight, cycle);
            self.lt.feed += secs(t0);
        }
        if finish {
            let t0 = Instant::now();
            self.link.finish();
            self.lt.feed += secs(t0);
        }
        for t in std::mem::take(&mut self.link.sink_mut().queue) {
            if self
                .rx
                .deliver(&t, cycle, &mut self.tally, &mut self.lt, &mut self.lc)
            {
                return true;
            }
        }
        false
    }
}

/// Traces one program on the engine path.
pub fn engine(spec: &Spec, w: &Workload) -> Traced {
    let session = spec.session(w);
    let replay_on = spec.config.squash();
    let rx = if spec.lossy {
        Rx::Arq(session.consumer_with_retention(replay_on, RETENTION_EVENTS))
    } else {
        Rx::Direct {
            sw: session.sw_unit(),
            checker: session.checker(replay_on),
            ring: replay_on.then(|| ReplayBuffer::new(RETENTION_EVENTS)),
            decided: None,
        }
    };
    let mut e = EngineLoop {
        p: Producer {
            dut: session.dut(),
            accel: session.accel(),
            events: Vec::new(),
            staged: Vec::new(),
        },
        rx,
        link: session.send_link(QueueSink::default()),
        flight: FlightRecorder::default(),
        tally: LinkTally::default(),
        lt: LayerTimes::default(),
        lc: LayerCounts::default(),
    };

    let start = Instant::now();
    while e.p.running() {
        e.p.cycle(e.rx.ring(), &mut e.lt, &mut e.lc);
        if e.route(false) {
            break;
        }
    }
    if !e.rx.stopped() {
        e.p.flush(&mut e.lt, &mut e.lc);
        e.route(true);
        let (produced, cycle) = (e.link.produced(), e.p.dut.cycles());
        e.rx.finish(produced, cycle, &mut e.tally, &mut e.lt);
    }
    let wall_s = secs(start);

    let EngineLoop {
        p,
        rx,
        link,
        tally,
        lt,
        mut lc,
        ..
    } = e;
    p.close(&mut lc);
    let stats = *rx.checker().stats();
    lc.ref_insns = stats.instructions;
    lc.nde_syncs = stats.skips + stats.interrupts;
    lc.bytes_compared = stats.bytes;
    lc.faults = link.fault_stats().map_or(0, |f| f.total_faults());
    if let Rx::Arq(c) = &rx {
        let l = c.link_stats();
        lc.retransmits = l.retransmits;
        lc.recovered = l.recovered;
        lc.reorder_max = c.metrics_snapshot().gauge("reorder.buffered.max");
    }
    lc.items = rx.items(&lc);
    Traced {
        observed: Observed {
            outcome: rx.outcome(),
            items: lc.items,
            bytes: tally.bytes,
            transfers: tally.transfers,
            cycles: p.dut.cycles(),
        },
        wall_s,
        times: lt,
        counts: lc,
    }
}

/// Frame writer that times every `write_transfer_frame` call.
struct TimedFrames {
    w: BufWriter<UnixStream>,
    write: f64,
    frames: u64,
}

impl LinkSink for TimedFrames {
    fn send(&mut self, t: Transfer) -> bool {
        let t0 = Instant::now();
        let ok = write_transfer_frame(&mut self.w, &t).is_ok();
        self.write += secs(t0);
        self.frames += 1;
        ok
    }
}

/// Traces one program on the serve path against the daemon at `sock`:
/// the socket runner's producer loop, by hand.
///
/// # Errors
///
/// Fails when the daemon cannot be reached or its result cannot be read.
pub fn serve(spec: &Spec, w: &Workload, sock: &FsPath) -> std::io::Result<Traced> {
    let session = spec.session(w);
    let stream = UnixStream::connect(sock)?;
    let mut sink = TimedFrames {
        w: BufWriter::new(stream.try_clone()?),
        write: 0.0,
        frames: 0,
    };
    write_hello(&mut sink.w, &Hello::from_session(&session, 0, w.words()))?;
    let mut p = Producer {
        dut: session.dut(),
        accel: session.accel(),
        events: Vec::new(),
        staged: Vec::new(),
    };
    let mut link = session.send_link(sink);
    let mut flight = FlightRecorder::default();
    let mut lt = LayerTimes::default();
    let mut lc = LayerCounts::default();
    let mut feed_total = 0.0;

    let start = Instant::now();
    let mut alive = true;
    while alive && p.running() {
        p.cycle(None, &mut lt, &mut lc);
        if !p.staged.is_empty() {
            let t0 = Instant::now();
            alive = link.feed(&mut p.staged, &mut flight, p.dut.cycles());
            feed_total += secs(t0);
        }
    }
    p.flush(&mut lt, &mut lc);
    let t0 = Instant::now();
    if link.feed(&mut p.staged, &mut flight, p.dut.cycles()) {
        link.finish();
    }
    feed_total += secs(t0);

    let produced = link.produced();
    let t0 = Instant::now();
    let w_end = &mut link.sink_mut().w;
    let _ = write_end_frame(w_end, produced).and_then(|()| w_end.flush());
    let _ = stream.shutdown(Shutdown::Write);
    stream.set_read_timeout(Some(RESULT_TIMEOUT))?;
    let res = read_result(&mut BufReader::new(&stream))?;
    lt.result_wait = secs(t0);
    let wall_s = secs(start);

    let sink = link.sink_mut();
    lt.write = sink.write;
    lc.frames = sink.frames;
    lt.feed = feed_total - lt.write;
    p.close(&mut lc);
    lc.items = res.items;
    lc.retransmits = res.link.retransmits;
    lc.recovered = res.link.recovered;
    lc.reorder_max = res.g_reorder;
    let outcome = if res.mismatch.is_some() {
        RunOutcome::Mismatch
    } else if let Some((kind, seq, core)) = res.link_error {
        RunOutcome::LinkError { kind, seq, core }
    } else {
        outcome_of(res.verdict)
    };
    Ok(Traced {
        observed: Observed {
            outcome,
            items: res.items,
            bytes: res.obs_bytes,
            transfers: res.obs_transfers,
            cycles: p.dut.cycles(),
        },
        wall_s,
        times: lt,
        counts: lc,
    })
}

/// A bare `RefModel::step` pass over `insns` instructions of the
/// program, at the checker's cadence: with compensation journaling on
/// (BNSD), one checkpoint per fused record, pruned to the last two.
/// Returns the seconds it took and the REF decode caches' hit ratio
/// (block and per-instruction tiers together).
pub fn ref_pass(w: &Workload, insns: u64, checkpoint_every: Option<u64>) -> (f64, f64) {
    let mut mem = Memory::new();
    mem.load_words(Memory::RAM_BASE, w.words());
    let mut m = RefModel::new(mem);
    m.set_journal_enabled(checkpoint_every.is_some());
    let t0 = Instant::now();
    for i in 0..insns {
        if checkpoint_every.is_some_and(|every| i % every.max(1) == 0) {
            m.checkpoint();
            m.prune_checkpoints(2);
        }
        std::hint::black_box(m.step());
    }
    let s = secs(t0);
    let (b, d) = (m.block_cache_stats(), m.decode_cache_stats());
    let lookups = b.hits + b.misses + d.hits + d.misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        (b.hits + d.hits) as f64 / lookups as f64
    };
    (s, ratio)
}
