//! One benchmark run: oracle, set-up timing, measured rounds, checks,
//! and the report.
//!
//! `--trace 0` measures the end-to-end metrics: complete rounds over the
//! run's programs until `--seconds` have passed, each co-simulation
//! driven through the program's own entry point (`CoSimulation::run`,
//! `run_socket_at`) with no tracing. `--trace 1` alternates such
//! untraced rounds with rounds of the hand-driven loop of
//! [`crate::traced`], and reports the per-layer metrics of the median
//! traced round.

use std::io::{BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use difftest_core::proto::write_hello;
use difftest_core::{run_socket_at, Hello, RunOutcome, ServeAddr, SocketTuning};
use difftest_dut::DutConfig;
use difftest_serve::{ServeConfig, ServeHandle};
use difftest_stats::{Phase, PhaseTimes};
use difftest_workload::Workload;

use crate::host::{peak_rss_mb, Fingerprint};
use crate::stats::{median, quartiles, result_json, spread, unattributed, Metric};
use crate::traced::{self, LayerCounts, LayerTimes, Traced};
use crate::workload::{oracle, Expect, Observed, Path, Spec, MAX_CYCLES, QUEUE_DEPTH};

/// Set-up samples timed before each measured round; `setup_s` is the
/// fastest of them. Spreading them over the run lets them see the same
/// host conditions as the rounds, not one moment at start-up.
pub const SETUPS_PER_ROUND: usize = 20;

/// Untimed set-ups first: the first few pay one-off costs (page faults
/// on fresh heap, cold instruction caches) that swing by several times
/// from run to run and would drown the steady cost a change can move.
pub const SETUP_WARMUP: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: &'static Spec,
    /// Run seed (programs and fault schedules derive from it).
    pub seed: u64,
    /// Measuring budget.
    pub seconds: f64,
    /// Trace mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Program length divisor (1 = full length).
    pub scale: u32,
}

/// One program's untraced walls over a run's rounds.
struct Walls {
    min: f64,
    q1: f64,
    median: f64,
}

/// A finished run: the result line's content.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Co-simulations attempted.
    pub attempted: u64,
    /// Co-simulations whose outputs differed from the expected ones.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The JSON result line.
    pub fn json(&self) -> String {
        result_json(self.failed == 0, self.attempted, self.failed, &self.metrics)
    }
}

/// One untraced co-simulation.
#[derive(Clone, Copy)]
struct Untraced {
    observed: Observed,
    wall_s: f64,
    /// Virtual time on the Palladium model (engine only).
    sim_time_s: Option<f64>,
    /// The program's own phase attribution.
    phases: PhaseTimes,
}

/// A daemon running on a background thread of this process, bound to a
/// Unix socket under the working directory.
struct Daemon {
    handle: Option<ServeHandle>,
    path: PathBuf,
}

/// Distinguishes the daemons one run starts.
static SOCK_SALT: AtomicU64 = AtomicU64::new(0);

impl Daemon {
    fn start() -> std::io::Result<Daemon> {
        let salt = SOCK_SALT.fetch_add(1, Ordering::Relaxed);
        // Relative, so the path stays short and inside the checkout.
        let path = PathBuf::from(format!(".perfbench-{}-{salt}.sock", std::process::id()));
        let handle = difftest_serve::spawn(ServeConfig {
            unix_path: Some(path.clone()),
            ..ServeConfig::default()
        })?;
        Ok(Daemon {
            handle: Some(handle),
            path,
        })
    }

    fn addr(&self) -> ServeAddr {
        ServeAddr::Unix(self.path.clone())
    }

    /// Drains the service and joins its thread.
    fn stop(mut self) -> std::io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> std::io::Result<()> {
        let result = match self.handle.take() {
            Some(h) => h.drain().map(|_| ()),
            None => Ok(()),
        };
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Times one set-up of the run's programs: for each, everything from
/// "start" to the moment its first DUT tick could run. Engine: program
/// generation plus building the co-simulation (session, DUT, REF
/// checker, retention). Serve: the daemon's start, then per program
/// generation, session and producer build, connect and Hello; one
/// daemon serves every program, as in the measured rounds. The built
/// pieces are torn down untimed.
fn time_setup(spec: &Spec, programs: &[Workload], scale: u32) -> std::io::Result<f64> {
    let mut total = 0.0;
    match spec.path {
        Path::Engine => {
            for p in programs {
                let t0 = Instant::now();
                let w = spec.program(p.seed(), scale);
                let sim = spec
                    .engine(&w)
                    .build(&w)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                total += t0.elapsed().as_secs_f64();
                drop(sim);
            }
        }
        Path::Serve => {
            let t0 = Instant::now();
            let daemon = Daemon::start()?;
            total += t0.elapsed().as_secs_f64();
            for p in programs {
                let t0 = Instant::now();
                let w = spec.program(p.seed(), scale);
                let session = spec.session(&w);
                let producer = (session.dut(), session.accel());
                let stream = UnixStream::connect(&daemon.path)?;
                let mut bw = BufWriter::new(&stream);
                write_hello(&mut bw, &Hello::from_session(&session, 0, w.words()))?;
                bw.flush()?;
                total += t0.elapsed().as_secs_f64();
                // Closing the connection ends the daemon's session
                // instead of leaving it waiting for frames.
                drop(bw);
                drop((stream, producer));
            }
            daemon.stop()?;
        }
    }
    Ok(total)
}

/// Runs one program untraced through the program's own entry point:
/// `run_socket_at` when a daemon serves the workload, else the engine.
fn run_untraced(spec: &Spec, w: &Workload, daemon: Option<&Daemon>) -> Untraced {
    let Some(d) = daemon else {
        return run_engine(spec, w);
    };
    let t0 = Instant::now();
    let r = run_socket_at(
        &d.addr(),
        DutConfig::xiangshan_default(),
        spec.config,
        w,
        Vec::new(),
        MAX_CYCLES,
        QUEUE_DEPTH,
        spec.fault_plan(w),
        SocketTuning::default(),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    Untraced {
        observed: Observed {
            outcome: r.outcome,
            items: r.items,
            bytes: r.metrics.counters.get("obs.bytes"),
            transfers: r.metrics.counters.get("obs.transfers"),
            cycles: r.cycles,
        },
        wall_s,
        sim_time_s: None,
        phases: r.metrics.phases,
    }
}

/// Runs one program on the virtual-time engine (set-up untimed).
fn run_engine(spec: &Spec, w: &Workload) -> Untraced {
    let mut sim = spec
        .engine(w)
        .build(w)
        .expect("the benchmark's engine tuning is valid");
    let t0 = Instant::now();
    let r = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    Untraced {
        observed: Observed {
            outcome: r.outcome,
            items: r.items,
            bytes: r.bytes,
            transfers: r.invokes,
            cycles: r.cycles,
        },
        wall_s,
        sim_time_s: Some(r.sim_time_s),
        phases: r.metrics.phases,
    }
}

/// Failure tally with one line per failed co-simulation.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, program: usize, expect: &Expect, o: &Observed, lossy: bool) {
        self.check_with(what, program, expect, o, lossy, true);
    }

    /// Counts one co-simulation: failed when it misses the oracle's
    /// expectation or `also_ok` (a further check) is false.
    fn check_with(
        &mut self,
        what: &str,
        program: usize,
        expect: &Expect,
        o: &Observed,
        lossy: bool,
        also_ok: bool,
    ) {
        self.attempted += 1;
        let matches = expect.matches(o, lossy);
        if !(matches && also_ok) {
            self.failed += 1;
        }
        if !matches {
            println!(
                "FAIL {what} program {program}: got {:?} items={} bytes={} / expected {:?} items={} bytes={}",
                o.outcome, o.items, o.bytes, expect.outcome, expect.items, expect.bytes
            );
        }
    }
}

fn outcome_name(o: &RunOutcome) -> String {
    match o {
        RunOutcome::LinkError { kind, seq, .. } => format!("LinkError{{{kind:?}}}@seq{seq}"),
        other => format!("{other:?}"),
    }
}

/// Runs every program once through the program's own entry point.
fn untraced_round(
    spec: &Spec,
    programs: &[Workload],
    expects: &[Expect],
    daemon: Option<&Daemon>,
    checks: &mut Checks,
) -> Vec<Untraced> {
    let mut round = Vec::with_capacity(programs.len());
    for (i, w) in programs.iter().enumerate() {
        let u = run_untraced(spec, w, daemon);
        checks.check("untraced", i, &expects[i], &u.observed, spec.lossy);
        round.push(u);
    }
    round
}

/// One traced round: every program once through the hand-driven loop.
struct TracedRound {
    wall_s: f64,
    times: LayerTimes,
    counts: LayerCounts,
    per_program: Vec<LayerCounts>,
    /// The untraced round run just before this one, for comparison.
    untraced: Vec<Untraced>,
}

fn traced_round(
    spec: &Spec,
    programs: &[Workload],
    expects: &[Expect],
    daemon: Option<&Daemon>,
    checks: &mut Checks,
    untraced: Vec<Untraced>,
) -> std::io::Result<TracedRound> {
    let mut round = TracedRound {
        wall_s: 0.0,
        times: LayerTimes::default(),
        counts: LayerCounts::default(),
        per_program: Vec::with_capacity(programs.len()),
        untraced,
    };
    for (i, w) in programs.iter().enumerate() {
        let tr: Traced = match daemon {
            Some(d) => traced::serve(spec, w, &d.path)?,
            None => traced::engine(spec, w),
        };
        // Fidelity: the hand-driven loop must also reproduce the
        // program's own run exactly, faulty link included.
        let u = &round.untraced[i].observed;
        let key = |o: &Observed| (o.outcome, o.items, o.bytes);
        if key(&tr.observed) != key(u) {
            println!(
                "FAIL fidelity program {i}: traced {:?} items={} bytes={} vs untraced {:?} items={} bytes={}",
                tr.observed.outcome, tr.observed.items, tr.observed.bytes, u.outcome, u.items, u.bytes
            );
        }
        checks.check_with(
            "traced",
            i,
            &expects[i],
            &tr.observed,
            spec.lossy,
            key(&tr.observed) == key(u),
        );
        // Each layer's self time lies inside the program's wall, so the
        // remainder can only go negative if a time is counted twice.
        let rest = unattributed(tr.wall_s, &tr.times.all());
        assert!(
            rest >= -1e-9 * tr.wall_s.max(1.0),
            "program {i}: layer self times exceed the traced wall by {:.3e} s",
            -rest
        );
        round.wall_s += tr.wall_s;
        round.times.add(&tr.times);
        round.counts.add(&tr.counts);
        round.per_program.push(tr.counts);
    }
    Ok(round)
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Fails when the serve daemon cannot be started or reached.
pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    let spec = opts.spec;
    println!("{}", Fingerprint::probe().line());
    println!(
        "workload: {} seed={} programs={} trace={} ({})",
        spec.name,
        opts.seed,
        spec.programs,
        u8::from(opts.trace),
        spec.why
    );

    let programs = spec.programs(opts.seed, opts.scale);
    let expects: Vec<Expect> = programs.iter().map(|w| oracle(spec, w)).collect();
    for (i, (w, e)) in programs.iter().zip(&expects).enumerate() {
        println!(
            "program {i}: seed={} expect {:?} cycles={} items={} bytes={}",
            w.seed(),
            e.outcome,
            e.cycles,
            e.items,
            e.bytes
        );
    }

    // One set-up sample sets up every program of the round.
    let setup_sample = || time_setup(spec, &programs, opts.scale);
    let setups_per_round = if opts.trace {
        0
    } else {
        for _ in 0..SETUP_WARMUP {
            setup_sample()?;
        }
        SETUPS_PER_ROUND
    };
    let mut setups = Vec::new();

    let daemon = match spec.path {
        Path::Serve => Some(Daemon::start()?),
        Path::Engine => None,
    };
    let mut checks = Checks::default();
    // Whole rounds only, so the program mix is the same whatever the
    // host speed. Traced runs alternate with untraced ones, so both see
    // the same host conditions.
    let mut untraced: Vec<Vec<Untraced>> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let t0 = Instant::now();
    loop {
        for _ in 0..setups_per_round {
            setups.push(setup_sample()?);
        }
        let round = untraced_round(spec, &programs, &expects, daemon.as_ref(), &mut checks);
        if opts.trace {
            traced.push(traced_round(
                spec,
                &programs,
                &expects,
                daemon.as_ref(),
                &mut checks,
                round.clone(),
            )?);
        }
        untraced.push(round);
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if let Some(d) = daemon {
        d.stop()?;
    }

    // Per program: its walls over the rounds, summarised by the fastest,
    // the lower quartile and the median.
    let mut walls = Vec::new();
    for (i, u) in untraced[0].iter().enumerate() {
        let w: Vec<f64> = untraced.iter().map(|r| r[i].wall_s).collect();
        let (q1, q3) = quartiles(&w);
        let summary = Walls {
            min: w.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(&w),
        };
        println!(
            "untraced program {i}: {} cycles={} items={} bytes={} wall min={:.4}s q1={:.4} median={:.4} q3={:.4} over {} rounds",
            outcome_name(&u.observed.outcome),
            u.observed.cycles,
            u.observed.items,
            u.observed.bytes,
            summary.min,
            q1,
            summary.median,
            q3,
            w.len()
        );
        walls.push(summary);
    }

    let metrics = if opts.trace {
        per_layer(spec, &programs, traced)
    } else {
        end_to_end(
            spec,
            &programs,
            &expects,
            &untraced[0],
            &walls,
            &setups,
            &mut checks,
        )
    };
    println!(
        "  {:<28} {:>18.6} share ({} of {} co-simulations failed)",
        "fail_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    spec: &Spec,
    programs: &[Workload],
    expects: &[Expect],
    first: &[Untraced],
    walls: &[Walls],
    setups: &[f64],
    checks: &mut Checks,
) -> Vec<Metric> {
    let cycles: u64 = first.iter().map(|u| u.observed.cycles).sum();
    // The paper's virtual-time speed: the engine's own runs, or for the
    // serve path one engine run per program (checked as well).
    let sim: Vec<(u64, f64)> = match spec.path {
        Path::Engine => first
            .iter()
            .map(|u| (u.observed.cycles, u.sim_time_s.unwrap_or(0.0)))
            .collect(),
        Path::Serve => programs
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let u = run_engine(spec, w);
                checks.check("engine", i, &expects[i], &u.observed, spec.lossy);
                (u.observed.cycles, u.sim_time_s.unwrap_or(0.0))
            })
            .collect(),
    };
    let sim_cycles: u64 = sim.iter().map(|s| s.0).sum();
    let sim_time: f64 = sim.iter().map(|s| s.1).sum();
    let bytes: u64 = first.iter().map(|u| u.observed.bytes).sum();
    let transfers: u64 = first.iter().map(|u| u.observed.transfers).sum();
    let kcycles = cycles as f64 / 1e3;
    let metrics = vec![
        // Each program's fastest repeat, and below the fastest set-up:
        // the work is deterministic, and on a shared host interference
        // only ever adds time, so the fastest of a run's repeats is the
        // estimate other tenants disturb least. Medians swing more with
        // them from run to run (see README.md, Noise).
        Metric {
            name: "cycles_per_s",
            value: cycles as f64 / walls.iter().map(|w| w.min).sum::<f64>(),
            unit: "cycles/s",
        },
        Metric {
            name: "setup_s",
            value: setups.iter().copied().fold(f64::INFINITY, f64::min),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "sim_khz",
            value: sim_cycles as f64 / sim_time / 1e3,
            unit: "kHz",
        },
        Metric {
            name: "link_bytes_per_kcycle",
            value: bytes as f64 / kcycles,
            unit: "B/kcycle",
        },
        Metric {
            name: "link_transfers_per_kcycle",
            value: transfers as f64 / kcycles,
            unit: "1/kcycle",
        },
    ];
    println!("end-to-end ({}):", spec.name);
    for m in &metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  (cycles_per_s from each program's lower-quartile wall: {:.6}, from its median wall: {:.6})",
        cycles as f64 / walls.iter().map(|w| w.q1).sum::<f64>(),
        cycles as f64 / walls.iter().map(|w| w.median).sum::<f64>()
    );
    println!(
        "  (setup_s: q1 {:.9} median {:.9} spread {:.3} over {} set-ups)",
        quartiles(setups).0,
        median(setups),
        spread(setups),
        setups.len()
    );
    metrics
}

/// The per-layer metrics of the traced round with the median wall,
/// reported whole so its self times and remainder add up to its wall.
fn per_layer(spec: &Spec, programs: &[Workload], mut rounds: Vec<TracedRound>) -> Vec<Metric> {
    let ratios: Vec<f64> = rounds
        .iter()
        .map(|r| r.wall_s / r.untraced.iter().map(|u| u.wall_s).sum::<f64>())
        .collect();
    let n = rounds.len();
    rounds.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let r = rounds.swap_remove(n / 2);
    let (t, c) = (&r.times, &r.counts);

    // Bare REF pass over each program's committed instruction count,
    // checkpointing once per fused record as the BNSD checker does.
    let (mut ref_s, mut hits) = (0.0, Vec::new());
    for (w, pc) in programs.iter().zip(&r.per_program) {
        let cadence = spec
            .config
            .squash()
            .then(|| pc.instructions / pc.fused_records.max(1));
        let (s, ratio) = traced::ref_pass(w, pc.instructions, cadence);
        ref_s += s;
        hits.push(ratio);
    }

    let rest = unattributed(r.wall_s, &t.all());
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut metrics = vec![
        m("dut.tick_s", t.tick, "s"),
        m("dut.events", c.dut_events as f64, "count"),
        m("replay.retain_s", t.retain, "s"),
        m("replay.retained_events", c.retained_events as f64, "count"),
        m("pack.push_s", t.pack, "s"),
        m("pack.transfers", c.pack_transfers as f64, "count"),
        m("pack.bytes", c.pack_bytes as f64, "B"),
        m(
            "batch.utilization",
            ratio(c.pack_payload_bytes, c.pack_bytes),
            "ratio",
        ),
        m(
            "squash.fusion_ratio",
            ratio(c.commits_fused, c.fused_records),
            "commits/record",
        ),
        m("squash.tagged", c.tagged as f64, "count"),
        m("link.feed_s", t.feed, "s"),
        m("wire.admit_s", t.admit, "s"),
        m("wire.reorder_max", c.reorder_max as f64, "packets"),
        m("checker.visit_s", t.visit, "s"),
        m("checker.items", c.items as f64, "count"),
        m("checker.ref_insns", c.ref_insns as f64, "count"),
        m("checker.nde_syncs", c.nde_syncs as f64, "count"),
        m("checker.bytes_compared", c.bytes_compared as f64, "B"),
        m("ref.step_s", ref_s, "s"),
        m("ref.decode_hit_ratio", median(&hits), "ratio"),
        m("proto.write_s", t.write, "s"),
        m("proto.result_wait_s", t.result_wait, "s"),
        m("proto.frames", c.frames as f64, "count"),
        m("trace.wall_s", r.wall_s, "s"),
        m("trace.unattributed_s", rest, "s"),
        m("trace.overhead_ratio", median(&ratios), "ratio"),
    ];
    // The ARQ layer only runs on a faulty link; elsewhere these read 0.
    if spec.lossy {
        metrics.extend([
            m("fault.injected", c.faults as f64, "count"),
            m("consume.ingest_s", t.ingest, "s"),
            m("arq.retransmits", c.retransmits as f64, "count"),
            m("arq.recovered", c.recovered as f64, "count"),
        ]);
    }
    println!("per-layer ({}, median of {n} traced rounds):", spec.name);
    for m in &metrics {
        let share = if m.unit == "s" && m.name != "trace.wall_s" && m.name != "ref.step_s" {
            format!("{:6.1}% of traced wall", 100.0 * m.value / r.wall_s)
        } else {
            String::new()
        };
        println!("  {:<28} {:>18.6} {:<15} {share}", m.name, m.value, m.unit);
    }
    print_fidelity(spec, t, &r.untraced);
    metrics
}

/// Prints the traced self times next to the program's own phase
/// attribution (`metrics.phases` of the untraced run paired with the
/// reported traced round), with the difference per layer.
fn print_fidelity(spec: &Spec, t: &LayerTimes, untraced: &[Untraced]) {
    let mut ph = PhaseTimes::default();
    for u in untraced {
        ph.merge(&u.phases);
    }
    let p = |phases: &[Phase]| phases.iter().map(|&x| ph.get(x) as f64 / 1e9).sum::<f64>();
    let mut rows = vec![
        ("dut.tick_s", t.tick, "tick", p(&[Phase::Tick])),
        ("replay.retain_s", t.retain, "monitor", p(&[Phase::Monitor])),
        ("pack.push_s", t.pack, "pack", p(&[Phase::Pack])),
        (
            "link.feed_s+proto.write_s",
            t.feed + t.write,
            "transport",
            p(&[Phase::Transport]),
        ),
    ];
    match (spec.path, spec.lossy) {
        (Path::Engine, false) => rows.extend([
            ("wire.admit_s", t.admit, "unpack", p(&[Phase::Unpack])),
            ("checker.visit_s", t.visit, "check", p(&[Phase::Check])),
        ]),
        (Path::Engine, true) => rows.push((
            "consume.ingest_s",
            t.ingest,
            "unpack+check+arq",
            p(&[Phase::Unpack, Phase::Check, Phase::Arq]),
        )),
        // The daemon's admit and check run on its own thread, overlapped
        // with the producer; only the tail after the End frame is on the
        // producer's timeline.
        (Path::Serve, _) => rows.push((
            "proto.result_wait_s",
            t.result_wait,
            "daemon unpack+check",
            p(&[Phase::Unpack, Phase::Check]),
        )),
    }
    println!("fidelity (traced self time vs the program's own phase times):");
    println!(
        "  {:<28} {:>10} {:<20} {:>10} {:>10}",
        "layer", "traced_s", "phase", "phase_s", "diff_s"
    );
    for (layer, traced_s, phase, phase_s) in rows {
        println!(
            "  {layer:<28} {traced_s:>10.4} {phase:<20} {phase_s:>10.4} {:>+10.4}",
            traced_s - phase_s
        );
    }
}
