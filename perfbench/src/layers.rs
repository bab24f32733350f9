//! Timed calls into the layers' public functions, shared by the
//! workloads: the compile path from program text to a runnable tape,
//! executor steps, and the hand-written kernels.

use crate::gen::{self, PROCS, STRIP};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, ratio, Sheet};
use shift_peel_core::{PlanConfig, Planned, Planner};
use sp_cache::LayoutStrategy;
use sp_exec::{
    Backend, ExecPlan, Executor, Memory, PooledExecutor, Program, ProgramTape, RunConfig, RunReport,
};
use sp_ir::LoopSequence;
use sp_kernels::manual;
use std::sync::Arc;

/// Seconds spent in each compile-path layer for one program.
#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    /// `sp_ir::parse_sequence`.
    pub parse: f64,
    /// `Planner::plan`, whole.
    pub plan: f64,
    /// The dependence, plan and legality passes, from `Planned::timings`.
    pub passes: [f64; 3],
    /// `Memory::new` plus `init_deterministic`.
    pub mem: f64,
    /// `ProgramTape::lower_with`.
    pub lower: f64,
    /// Micro-ops in the lowered tape.
    pub tape_ops: u64,
}

/// Names of the passes [`LayerTimes::passes`] holds, in order.
pub const PASSES: [&str; 3] = ["dependence", "plan", "legality"];

/// A program compiled from text and ready to run.
pub struct Built {
    /// The parsed sequence.
    pub seq: LoopSequence,
    /// The planner's output.
    pub planned: Planned,
    /// Initialised memory.
    pub mem: Memory,
    /// The lowered tape.
    pub tape: Arc<ProgramTape>,
    /// What each step cost.
    pub times: LayerTimes,
}

/// Parses `text`, plans it under `config`, allocates and initialises its
/// memory from `init` under `layout`, and lowers it — each call timed.
pub fn build(
    spans: &Spans,
    text: &str,
    config: PlanConfig,
    init: u64,
    layout: LayoutStrategy,
    (lane, job, parent): (u64, u64, Option<SpanId>),
) -> Result<Built, String> {
    let mut t = LayerTimes::default();
    let (seq, dt) = spans.time("ir.parse_sequence", lane, job, parent, || {
        sp_ir::parse_sequence(text)
    });
    let seq = seq.map_err(|e| format!("parse: {e}"))?;
    t.parse = dt;
    let (planned, dt) = spans.time("core.Planner::plan", lane, job, parent, || {
        Planner::new(config).plan(&seq)
    });
    let planned = planned.map_err(|e| format!("plan: {e}"))?;
    t.plan = dt;
    for p in &planned.timings.passes {
        if let Some(i) = PASSES.iter().position(|&n| n == p.pass) {
            t.passes[i] += p.nanos as f64 / 1e9;
        }
    }
    let (mem, dt) = spans.time("exec.Memory::new", lane, job, parent, || {
        let mut mem = Memory::new(&seq, layout);
        mem.init_deterministic(&seq, init);
        mem
    });
    t.mem = dt;
    let footprint = planned.plan.lowering_footprint(&seq);
    let (tape, dt) = spans.time("exec.ProgramTape::lower_with", lane, job, parent, || {
        Arc::new(ProgramTape::lower_with(&seq, &mem.layout, &footprint))
    });
    t.lower = dt;
    t.tape_ops = tape.total_ops();
    Ok(Built {
        seq,
        planned,
        mem,
        tape,
        times: t,
    })
}

/// Runs `cfg` once, timed from the caller's side.
pub fn step(
    spans: &Spans,
    ex: &mut PooledExecutor,
    prog: &Program<'_>,
    mem: &mut Memory,
    cfg: &RunConfig,
    (lane, job, parent): (u64, u64, Option<SpanId>),
) -> Result<(RunReport, f64), String> {
    let name = match cfg.plan() {
        ExecPlan::Fused { .. } => "exec.Executor::run.fused",
        _ => "exec.Executor::run.unfused",
    };
    let (r, dt) = spans.time(name, lane, job, parent, || ex.run(prog, mem, cfg));
    r.map(|r| (r, dt)).map_err(|e| format!("run: {e}"))
}

/// The fused and unfused run configurations of a built program.
pub fn configs(
    planned: &Planned,
    tape: &Arc<ProgramTape>,
    prog: &Program<'_>,
) -> Result<(RunConfig, RunConfig), String> {
    let fused = RunConfig::from_plan(gen::fused_plan(STRIP))
        .backend(Backend::Simd)
        .prederived(Arc::clone(&planned.plan))
        .with_tape(Arc::clone(tape));
    let unfused_plan = prog
        .fusion_plan_for(&gen::unfused_plan())
        .map_err(|e| format!("unfused plan: {e}"))?;
    let unfused = RunConfig::from_plan(gen::unfused_plan())
        .backend(Backend::Simd)
        .prederived(unfused_plan)
        .with_tape(Arc::clone(tape));
    Ok((fused, unfused))
}

/// A hand-written kernel's state (`sp_kernels::manual`).
pub enum Manual {
    /// Jacobi.
    Jacobi(manual::Jacobi),
    /// Livermore loop 18.
    Ll18(manual::Ll18),
}

impl Manual {
    /// Kernel `name` (jacobi or ll18) at extent `n`, initialised exactly
    /// as `Memory::init_deterministic(seq, seed)` initialises the IR.
    pub fn new(name: &str, n: usize, seed: u64) -> Option<Manual> {
        match name {
            "jacobi" => {
                let mut d = manual::Jacobi::new(n);
                d.init(seed);
                Some(Manual::Jacobi(d))
            }
            "ll18" => {
                let mut d = manual::Ll18::new(n);
                d.init(seed);
                Some(Manual::Ll18(d))
            }
            _ => None,
        }
    }

    /// One timestep on [`PROCS`] threads, timed.
    pub fn step(&mut self, spans: &Spans, fused: bool, job: u64, parent: Option<SpanId>) -> f64 {
        let name = if fused {
            "kernels.manual.fused"
        } else {
            "kernels.manual.unfused"
        };
        let lane = crate::spans::LANE_MAIN;
        spans
            .time(name, lane, job, parent, || match (self, fused) {
                (Manual::Jacobi(d), true) => manual::jacobi_fused_parallel(d, PROCS, STRIP),
                (Manual::Jacobi(d), false) => manual::jacobi_unfused_parallel(d, PROCS),
                (Manual::Ll18(d), true) => manual::ll18_fused_parallel(d, PROCS, STRIP),
                (Manual::Ll18(d), false) => manual::ll18_unfused_parallel(d, PROCS),
            })
            .1
    }

    /// The arrays in IR declaration order.
    pub fn arrays(&self) -> Vec<&[f64]> {
        match self {
            Manual::Jacobi(d) => vec![&d.a, &d.b],
            Manual::Ll18(d) => vec![
                &d.zp, &d.zq, &d.zr, &d.zm, &d.zu, &d.zv, &d.zz, &d.za, &d.zb,
            ],
        }
    }
}

/// True when every array of `mem` equals `arrays` bit for bit.
pub fn same_arrays(seq: &LoopSequence, mem: &Memory, arrays: &[&[f64]]) -> bool {
    arrays.len() == seq.arrays.len()
        && arrays.iter().enumerate().all(|(i, want)| {
            let got = mem.snapshot(seq, sp_ir::ArrayId(i as u32));
            got.len() == want.len()
                && got
                    .iter()
                    .zip(*want)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// True when two memories of one layout hold bit-identical data.
pub fn same_memory(a: &Memory, b: &Memory) -> bool {
    a.data.len() == b.data.len()
        && a.data
            .iter()
            .zip(&b.data)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fused suite throughput with every array in L2: the four kernels at
/// extent 128 (at most 1.2 MB each), fused steps, median over rounds of
/// iteration points per second.
pub fn incache_points_per_s(
    spans: &Spans,
    ex: &mut PooledExecutor,
    seed: u64,
) -> Result<f64, String> {
    const N: usize = 128;
    const ROUNDS: usize = 40;
    let mut built = Vec::new();
    for k in gen::KERNELS {
        let text = sp_ir::display::render_sequence(&gen::kernel(k, N));
        let b = build(
            spans,
            &text,
            PlanConfig::fused(1),
            seed,
            LayoutStrategy::Contiguous,
            (crate::spans::LANE_MAIN, 0, None),
        )?;
        built.push(b);
    }
    let mut rates = Vec::new();
    let progs: Vec<Program<'_>> = built
        .iter()
        .map(|b| Program::from_analysis(&b.seq, (*b.planned.deps).clone(), 1))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("program: {e}"))?;
    let cfgs: Vec<RunConfig> = built
        .iter()
        .zip(&progs)
        .map(|(b, p)| configs(&b.planned, &b.tape, p).map(|c| c.0))
        .collect::<Result<_, _>>()?;
    let points: u64 = built.iter().map(|b| gen::points(&b.seq)).sum();
    let mut mems: Vec<Memory> = built.iter().map(|b| b.mem.clone()).collect();
    for round in 0..ROUNDS {
        let mut secs = 0.0;
        for ((prog, cfg), mem) in progs.iter().zip(&cfgs).zip(mems.iter_mut()) {
            let ids = (crate::spans::LANE_MAIN, round as u64, None);
            secs += step(spans, ex, prog, mem, cfg, ids)?.1;
        }
        rates.push(points as f64 / secs);
    }
    Ok(median(&rates))
}

/// Worker-level runtime metrics over fused runs `(report, seconds)`,
/// grouped into units of work (a suite step, or one served job): busy,
/// peeled and barrier times are summed over a unit's runs (slowest
/// worker of each) and reported as the median unit.
pub fn exec_counters(sheet: &mut Sheet, units: &[Vec<(&RunReport, f64)>], stream_gbs: f64) {
    let slowest = |r: &RunReport, f: &dyn Fn(&sp_exec::WorkerReport) -> u64| {
        r.workers.iter().map(f).max().unwrap_or(0) as f64 / 1e6
    };
    let per_unit = |f: &dyn Fn(&sp_exec::WorkerReport) -> u64| {
        let sums: Vec<f64> = units
            .iter()
            .map(|u| u.iter().map(|(r, _)| slowest(r, f)).sum())
            .collect();
        median(&sums)
    };
    sheet.set(
        "exec.busy_ms",
        per_unit(&|w| w.counters.fused_nanos + w.counters.peeled_nanos),
        "ms",
    );
    sheet.set(
        "exec.peeled_ms",
        per_unit(&|w| w.counters.peeled_nanos),
        "ms",
    );
    sheet.set(
        "exec.barrier_wait_ms",
        per_unit(&|w| w.counters.barrier_wait_nanos),
        "ms",
    );
    let runs: Vec<&(&RunReport, f64)> = units.iter().flatten().collect();
    let imb: Vec<f64> = runs.iter().map(|(r, _)| r.time_imbalance()).collect();
    sheet.set("exec.time_imbalance", median(&imb), "ratio");
    let (mut iters, mut vec, mut bytes, mut secs) = (0u64, 0u64, 0.0, 0.0);
    for (r, s) in runs {
        let c = r.merged_counters();
        iters += c.iters;
        vec += c.vec_iters;
        bytes += 8.0 * (c.loads + c.stores) as f64;
        secs += s;
    }
    sheet.set(
        "exec.vec_fraction",
        ratio(vec as f64, iters as f64),
        "ratio",
    );
    let gbs = ratio(bytes, secs) / 1e9;
    sheet.set("exec.achieved_gbs", gbs, "GB/s");
    sheet.set("exec.roofline_fraction", ratio(gbs, stream_gbs), "ratio");
}
