//! The benchmark's workloads and the oracle that fixes each program's
//! expected outputs before anything is measured.
//!
//! Every workload is a closed loop with one client: the next
//! co-simulation starts only after the previous verdict is in. A run
//! derives several generator seeds from its `--seed` and cycles through
//! those programs, so a reported figure averages over several programs
//! of the same regime instead of riding one program's quirks.

use difftest_core::{CoSimulationBuilder, DiffConfig, FaultPlan, RunOutcome, Session};
use difftest_dut::DutConfig;
use difftest_workload::{Workload, WorkloadBuilder};

/// Cycle cap. Programs end in their good trap well before it (75k to
/// 150k cycles each); the cap only bounds a run gone wrong.
pub const MAX_CYCLES: u64 = 1_000_000;

/// In-flight queue depth (the engine's default).
pub const QUEUE_DEPTH: usize = 8;

/// Fault rate of `lossy_boot`, per mille of transfers.
pub const LOSSY_PER_MILLE: u16 = 5;

/// Which path carries the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The in-process virtual-time engine (`CoSimulation`).
    Engine,
    /// `run_socket_at` against a `difftest-serve` daemon.
    Serve,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark carries it (one line).
    pub why: &'static str,
    /// Generator preset.
    preset: fn() -> WorkloadBuilder,
    /// Outer-loop iterations of each program.
    iterations: u32,
    /// Programs per run, each generated from its own derived seed.
    pub programs: usize,
    /// Optimization configuration.
    pub config: DiffConfig,
    /// Whether the link injects faults.
    pub lossy: bool,
    /// Transport path.
    pub path: Path,
}

/// Every workload the one command knows, in report order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "squash_boot",
        why: "the paper's headline: BNSD engine on an NDE-rich boot, so tick, retention, Squash+Batch pack and check all weigh",
        preset: Workload::linux_boot,
        iterations: 450,
        programs: 8,
        config: DiffConfig::BNSD,
        lossy: false,
        path: Path::Engine,
    },
    Spec {
        name: "batch_micro",
        why: "BN engine on an NDE-free compute loop: 5x the items and 22x the bytes of squash_boot, consumer-bound, no retention",
        preset: Workload::microbench,
        iterations: 675,
        programs: 8,
        config: DiffConfig::BN,
        lossy: false,
        path: Path::Engine,
    },
    Spec {
        name: "serve_mmio",
        why: "run_socket_at against an in-process difftest-serve daemon on MMIO-saturated code: producer-bound proto framing and socket backpressure",
        preset: Workload::mmio_heavy,
        iterations: 2350,
        programs: 8,
        config: DiffConfig::BNSD,
        lossy: false,
        path: Path::Serve,
    },
    Spec {
        name: "lossy_boot",
        why: "squash_boot over a 5 per-mille faulty link: exercises fault injection, packet retention and Consumer ARQ redelivery",
        preset: Workload::linux_boot,
        // Full-length boots: the retention defect strikes between 75k
        // and 105k cycles, so shorter programs would hide it.
        iterations: 900,
        programs: 4,
        config: DiffConfig::BNSD,
        lossy: true,
        path: Path::Engine,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The run's programs: one per derived generator seed, disjoint
    /// across run seeds. `scale` divides the program length (1 for
    /// measured runs; larger for the smoke mode).
    pub fn programs(&self, seed: u64, scale: u32) -> Vec<Workload> {
        (0..self.programs)
            .map(|i| self.program(program_seed(seed, i), scale))
            .collect()
    }

    /// Generates one program.
    pub fn program(&self, program_seed: u64, scale: u32) -> Workload {
        (self.preset)()
            .seed(program_seed)
            .iterations(self.iterations / scale.max(1))
            .build()
    }

    /// The fault schedule, seeded from the program seed.
    pub fn fault_plan(&self, w: &Workload) -> Option<FaultPlan> {
        self.lossy
            .then(|| FaultPlan::uniform(w.seed(), LOSSY_PER_MILLE))
    }

    /// The engine as a user builds it: default tuning, span tracing off.
    pub fn engine(&self, w: &Workload) -> CoSimulationBuilder {
        let mut b = difftest_core::CoSimulation::builder()
            .dut(DutConfig::xiangshan_default())
            .config(self.config)
            .max_cycles(MAX_CYCLES)
            .queue_depth(QUEUE_DEPTH);
        if let Some(plan) = self.fault_plan(w) {
            b = b.fault_plan(plan);
        }
        b
    }

    /// The session the engine builds for the same program (the traced
    /// loop assembles its components from it by hand).
    pub fn session(&self, w: &Workload) -> Session {
        Session::new(
            DutConfig::xiangshan_default(),
            self.config,
            w,
            Vec::new(),
            MAX_CYCLES,
            QUEUE_DEPTH,
            self.fault_plan(w),
        )
        .with_tracer(None)
    }
}

/// Generator seed of program `i` of a run.
pub fn program_seed(run_seed: u64, i: usize) -> u64 {
    run_seed.wrapping_mul(7919) + i as u64
}

/// What a correct run of one program must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// The verdict: the DUT's own halt.
    pub outcome: RunOutcome,
    /// Wire items the checker must visit: every item the producer packed.
    pub items: u64,
    /// Bytes that must cross a clean link: every byte the producer packed.
    pub bytes: u64,
    /// DUT cycles.
    pub cycles: u64,
}

/// What one run of one program reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observed {
    /// Verdict.
    pub outcome: RunOutcome,
    /// Wire items checked.
    pub items: u64,
    /// Bytes that crossed the link (redeliveries included).
    pub bytes: u64,
    /// Transfers that crossed the link.
    pub transfers: u64,
    /// DUT cycles.
    pub cycles: u64,
}

impl Expect {
    /// Whether a run matches. On a faulty link the byte count depends on
    /// the fault schedule (duplicates, redeliveries), which this oracle
    /// does not model, so only verdict and items are compared there.
    pub fn matches(&self, o: &Observed, lossy: bool) -> bool {
        o.outcome == self.outcome && o.items == self.items && (lossy || o.bytes == self.bytes)
    }
}

/// The producer-only oracle: ticks the DUT and packs its events exactly
/// as every runner's producer does, with no link, decoder or checker.
/// A correct co-simulation must verify the DUT's own halt and deliver
/// and check every packed item and byte, so this fixes the expected
/// values independently of the layers under test.
pub fn oracle(spec: &Spec, w: &Workload) -> Expect {
    let session = spec.session(w);
    let mut dut = session.dut();
    let mut accel = session.accel();
    let mut events = Vec::new();
    let mut staged = Vec::new();
    let (mut items, mut bytes) = (0u64, 0u64);
    let mut tally = |staged: &mut Vec<difftest_core::Transfer>| {
        for t in staged.drain(..) {
            items += u64::from(t.items);
            bytes += t.bytes.len() as u64;
        }
    };
    while dut.halted().is_none() && dut.cycles() < MAX_CYCLES {
        events.clear();
        dut.tick_into(&mut events);
        accel.push_cycle(&events, &mut staged);
        tally(&mut staged);
    }
    accel.flush(&mut staged);
    tally(&mut staged);
    let outcome = match dut.halted() {
        Some(h) if h.good => RunOutcome::GoodTrap,
        Some(_) => RunOutcome::BadTrap,
        None => RunOutcome::MaxCycles,
    };
    Expect {
        outcome,
        items,
        bytes,
        cycles: dut.cycles(),
    }
}
