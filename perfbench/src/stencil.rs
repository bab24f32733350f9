//! `stencil_2048`: the four ROADMAP kernels at n = 2048 on the pooled
//! executor, fused and unfused steps alternating, no server.
//!
//! Each round sets every kernel up from program text (parse, plan,
//! allocate and initialise, lower) and runs [`PAIRS`] step pairs on two
//! memories, A and B, that start equal: at each step one runs the fused
//! plan and the other the unfused plan, and the two must stay bit-for-bit
//! equal. Round 0 also checks the first step against the hand-written
//! kernels (jacobi, ll18) or the serial interpreter (tomcatv, calc).

use crate::gen::{self, KERNELS, PROCS};
use crate::host::Ticks;
use crate::layers::{self, LayerTimes, Manual, PASSES};
use crate::spans::{Spans, LANE_MAIN};
use crate::stats::{median, nearest_rank, quiet, ratio, Sheet};
use crate::{Opts, Outcome};
use shift_peel_core::PlanConfig;
use sp_cache::{CacheConfig, LayoutStrategy};
use sp_exec::{Memory, PooledExecutor, Program, RunConfig, RunReport};
use std::time::Instant;

/// Extent of every array dimension.
pub const N: usize = 2048;
/// Step pairs per kernel per round.
const PAIRS: usize = 2;
/// Fewest rounds a run makes (set-up is reported as their median).
const MIN_ROUNDS: usize = 3;
/// Step pairs of the layout comparison in the traced run.
const LAYOUT_PAIRS: usize = 2;

/// One timed kernel step.
struct Step {
    round: usize,
    kernel: usize,
    index: usize,
    fused: bool,
    traced: bool,
    secs: f64,
    ticks: Ticks,
    report: RunReport,
}

/// Per-round set-up costs, summed over the suite.
#[derive(Default)]
struct RoundSetup {
    secs: f64,
    layers: LayerTimes,
}

fn init_seed(seed: u64, kernel: usize) -> u64 {
    gen::Rng::new(seed, 0x5354_454E + kernel as u64).next()
}

/// Runs the workload.
pub fn run(opts: &Opts, spans: &Spans) -> Result<Outcome, String> {
    let start = Instant::now();
    let texts: Vec<String> = KERNELS
        .iter()
        .map(|k| sp_ir::display::render_sequence(&gen::kernel(k, N)))
        .collect();
    let mut ex = PooledExecutor::new(PROCS);
    let mut steps: Vec<Step> = Vec::new();
    let mut setups: Vec<RoundSetup> = Vec::new();
    let mut manual_ms: Vec<[Vec<f64>; 2]> = vec![[vec![], vec![]], [vec![], vec![]]];
    let mut layout_ratio = vec![Vec::new(); KERNELS.len()];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut timed = 0.0;
    let mut round = 0;
    while round < MIN_ROUNDS || timed < opts.seconds {
        // In the traced run, odd rounds trace every step and even rounds
        // trace none: their ratio is the tracing overhead.
        let traced = opts.trace && round % 2 == 1;
        let round_span = spans.begin(&format!("round {round}"), LANE_MAIN, round as u64, None);
        let mut setup = RoundSetup::default();
        for (k, text) in texts.iter().enumerate() {
            let job = (round * KERNELS.len() + k) as u64;
            let kspan = spans.begin(KERNELS[k], LANE_MAIN, job, round_span);
            let t0 = Instant::now();
            let ids = (LANE_MAIN, job, kspan);
            let b = layers::build(
                spans,
                text,
                PlanConfig::fused(1),
                init_seed(opts.seed, k),
                LayoutStrategy::Contiguous,
                ids,
            )?;
            let layers::Built {
                seq,
                planned,
                mem: mut a,
                tape,
                times,
            } = b;
            let prog = Program::from_analysis(&seq, (*planned.deps).clone(), 1)
                .map_err(|e| format!("program: {e}"))?;
            let (mut fused, mut unfused) = layers::configs(&planned, &tape, &prog)?;
            if round == 0 && k == 0 {
                // Set-up of the first round runs from process start.
                setup.secs += opts.started.elapsed().as_secs_f64() - start.elapsed().as_secs_f64();
            }
            setup.secs += t0.elapsed().as_secs_f64();
            add(&mut setup.layers, &times);
            if traced {
                fused = fused.traced();
                unfused = unfused.traced();
            }
            let mut b = a.clone();
            for j in 0..PAIRS * 2 {
                // Memory A runs fused on even steps, B on odd ones; which
                // plan runs first flips every other step and every round.
                let a_fused = j % 2 == 0;
                let fused_first = (j / 2 + round) % 2 == 0;
                let a_first = a_fused == fused_first;
                for first in [true, false] {
                    let on_a = first == a_first;
                    let run_fused = on_a == a_fused;
                    let mem = if on_a { &mut a } else { &mut b };
                    let cfg = if run_fused { &fused } else { &unfused };
                    let t0 = Ticks::now();
                    let (report, secs) = layers::step(spans, &mut ex, &prog, mem, cfg, ids)?;
                    let ticks = Ticks::now().since(t0);
                    if traced {
                        check_trace(&report)?;
                    }
                    timed += secs;
                    attempted += 1;
                    steps.push(Step {
                        round,
                        kernel: k,
                        index: j,
                        fused: run_fused,
                        traced,
                        secs,
                        ticks,
                        report,
                    });
                }
                if !layers::same_memory(&a, &b) {
                    failed += 1;
                    eprintln!("{}: fused and unfused differ after step {j}", KERNELS[k]);
                }
                if round == 0 && j == 0 {
                    // Off the clock: A after one fused step against an
                    // independent reference. B is rebuilt from A after.
                    drop(b);
                    attempted += 1;
                    if !reference_check(spans, &mut ex, k, &seq, &prog, &a, opts.seed, ids)? {
                        failed += 1;
                        eprintln!("{}: differs from its reference after one step", KERNELS[k]);
                    }
                    b = a.clone();
                }
            }
            drop(b);
            if opts.trace {
                // Manual kernels exist for jacobi and ll18, KERNELS[0..2].
                if let Some(mut m) = Manual::new(KERNELS[k], N, init_seed(opts.seed, k)) {
                    for j in 0..PAIRS * 2 {
                        let fused = j % 2 == 0;
                        let ms = m.step(spans, fused, job, kspan) * 1e3;
                        manual_ms[k][usize::from(!fused)].push(ms);
                    }
                }
                if round + 1 >= MIN_ROUNDS && layout_ratio[k].is_empty() {
                    layout_ratio[k] = layout_probe(
                        spans, &mut ex, &seq, &prog, &planned, &tape, &mut a, opts.seed, k, ids,
                    )?;
                }
            }
            spans.end(kspan);
        }
        spans.end(round_span);
        setups.push(setup);
        round += 1;
    }
    let mut sheet = Sheet::default();
    sheet.set("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
    metrics(&mut sheet, opts, &steps, &setups);
    if opts.trace {
        for (slot, kernel) in ["jacobi", "ll18"].into_iter().enumerate() {
            let f = median(&manual_ms[slot][0]);
            sheet.set(format!("manual.fused_step_ms.{kernel}"), f, "ms");
            sheet.set(
                format!("manual.unfused_step_ms.{kernel}"),
                median(&manual_ms[slot][1]),
                "ms",
            );
            let tape = sheet
                .get(&format!("exec.fused_step_ms.{kernel}"))
                .unwrap_or(0.0);
            sheet.set(
                format!("exec.tape_over_manual.{kernel}"),
                ratio(tape, f),
                "ratio",
            );
        }
        let logs: Vec<f64> = layout_ratio.iter().map(|r| median(r).ln()).collect();
        let geo = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
        sheet.set("cache.partition_speedup", geo, "ratio");
        let incache = layers::incache_points_per_s(spans, &mut ex, opts.seed)?;
        sheet.set("exec.incache_points_per_s", incache, "1/s");
    }
    Ok(Outcome {
        sheet,
        attempted,
        failed,
    })
}

fn add(sum: &mut LayerTimes, t: &LayerTimes) {
    sum.parse += t.parse;
    sum.plan += t.plan;
    for (s, p) in sum.passes.iter_mut().zip(t.passes) {
        *s += p;
    }
    sum.mem += t.mem;
    sum.lower += t.lower;
    sum.tape_ops += t.tape_ops;
}

/// A traced step must carry a trace that passes the schema check.
fn check_trace(report: &RunReport) -> Result<(), String> {
    let trace = report
        .trace
        .as_ref()
        .ok_or("traced step carries no trace")?;
    sp_trace::validate_chrome_trace(&trace.chrome_json())
        .map(|_| ())
        .map_err(|e| format!("step trace: {e}"))
}

/// Compares `a` (one fused step from the initial state) with the same
/// step computed by the hand-written kernel (jacobi, ll18) or the serial
/// interpreter (tomcatv, calc).
#[allow(clippy::too_many_arguments)]
fn reference_check(
    spans: &Spans,
    ex: &mut PooledExecutor,
    k: usize,
    seq: &sp_ir::LoopSequence,
    prog: &Program<'_>,
    a: &Memory,
    seed: u64,
    ids: (u64, u64, Option<crate::spans::SpanId>),
) -> Result<bool, String> {
    if let Some(mut m) = Manual::new(KERNELS[k], N, init_seed(seed, k)) {
        m.step(spans, true, ids.1, ids.2);
        return Ok(layers::same_arrays(seq, a, &m.arrays()));
    }
    let mut c = Memory::new(seq, LayoutStrategy::Contiguous);
    c.init_deterministic(seq, init_seed(seed, k));
    let serial = RunConfig::serial();
    layers::step(spans, ex, prog, &mut c, &serial, ids)?;
    Ok(layers::same_memory(a, &c))
}

/// Contiguous over cache-partitioned fused step time for one kernel,
/// from alternating steps on `a` and a partitioned copy of the
/// kernel's initial state.
#[allow(clippy::too_many_arguments)]
fn layout_probe(
    spans: &Spans,
    ex: &mut PooledExecutor,
    seq: &sp_ir::LoopSequence,
    prog: &Program<'_>,
    planned: &shift_peel_core::Planned,
    tape: &std::sync::Arc<sp_exec::ProgramTape>,
    a: &mut Memory,
    seed: u64,
    k: usize,
    ids: (u64, u64, Option<crate::spans::SpanId>),
) -> Result<Vec<f64>, String> {
    let l2 = CacheConfig::new(2 << 20, 64, 1);
    let mut p = Memory::new(seq, LayoutStrategy::CachePartition(l2));
    p.init_deterministic(seq, init_seed(seed, k));
    let ptape = std::sync::Arc::new(sp_exec::ProgramTape::lower_with(
        seq,
        &p.layout,
        &planned.plan.lowering_footprint(seq),
    ));
    let contiguous = layers::configs(planned, tape, prog)?.0;
    let partitioned = layers::configs(planned, &ptape, prog)?.0;
    let mut ratios = Vec::new();
    for _ in 0..LAYOUT_PAIRS {
        let (_, c) = layers::step(spans, ex, prog, a, &contiguous, ids)?;
        let (_, q) = layers::step(spans, ex, prog, &mut p, &partitioned, ids)?;
        ratios.push(c / q);
    }
    Ok(ratios)
}

/// End-to-end and exec-layer metrics from the recorded steps.
fn metrics(sheet: &mut Sheet, opts: &Opts, steps: &[Step], setups: &[RoundSetup]) {
    let points: Vec<u64> = KERNELS
        .iter()
        .map(|k| gen::points(&gen::kernel(k, N)))
        .collect();
    let suite_points: u64 = points.iter().sum();
    // A suite step: one step of every kernel under one plan, same round
    // and step index. Its seconds and the processor ticks during it.
    let suite = |traced: bool, fused: bool| -> Vec<(f64, Ticks)> {
        let mut out = Vec::new();
        for r in 0..setups.len() {
            for j in 0..PAIRS * 2 {
                let of: Vec<&Step> = steps
                    .iter()
                    .filter(|s| {
                        s.round == r && s.index == j && s.fused == fused && s.traced == traced
                    })
                    .collect();
                if of.len() == KERNELS.len() {
                    let ticks = of.iter().fold(Ticks::default(), |t, s| t.add(s.ticks));
                    out.push((of.iter().map(|s| s.secs).sum(), ticks));
                }
            }
        }
        out
    };
    // End-to-end numbers come from the suite steps during which the
    // hypervisor stole the least processor time.
    let quiet_secs = |xs: &[(f64, Ticks)]| -> Vec<f64> {
        let steal: Vec<f64> = xs.iter().map(|x| x.1.steal_fraction()).collect();
        xs.iter()
            .zip(quiet(&steal))
            .filter(|(_, q)| *q)
            .map(|(x, _)| x.0)
            .collect()
    };
    let (f, u) = (suite(false, true), suite(false, false));
    let rate = |xs: &[(f64, Ticks)]| {
        median(
            &quiet_secs(xs)
                .iter()
                .map(|s| suite_points as f64 / s)
                .collect::<Vec<_>>(),
        )
    };
    sheet.set("fused_points_per_s", rate(&f), "1/s");
    sheet.set("unfused_points_per_s", rate(&u), "1/s");
    let all: Vec<(f64, Ticks)> = f.iter().chain(&u).copied().collect();
    let ticks = all.iter().fold(Ticks::default(), |t, x| t.add(x.1));
    sheet.set("host.steal_pct", 100.0 * ticks.steal_fraction(), "%");
    let all = quiet_secs(&all);
    sheet.set(
        "jobs_per_s",
        all.len() as f64 / all.iter().sum::<f64>(),
        "1/s",
    );
    let ms: Vec<f64> = all.iter().map(|s| s * 1e3).collect();
    println!("{}", crate::stats::describe("suite step ms", &ms));
    sheet.set("job_ms_p50", median(&ms), "ms");
    sheet.set("job_ms_p99", nearest_rank(&ms, 99.0), "ms");
    sheet.set("e2e.job_samples", ms.len() as f64, "count");
    let setup: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    sheet.set("setup_s", median(&setup), "s");
    if opts.trace {
        let traced = rate(&suite(true, true));
        sheet.set(
            "trace.overhead_pct",
            100.0 * ratio(rate(&f) - traced, rate(&f)),
            "%",
        );
    }

    // Compile-path layers, per suite set-up.
    let per_round = |get: &dyn Fn(&LayerTimes) -> f64| {
        median(&setups.iter().map(|s| get(&s.layers)).collect::<Vec<_>>())
    };
    sheet.set("ir.parse_us", per_round(&|t| t.parse * 1e6), "us");
    sheet.set("core.plan_us", per_round(&|t| t.plan * 1e6), "us");
    for (i, p) in PASSES.iter().enumerate() {
        sheet.set(
            format!("core.pass_us.{p}"),
            per_round(&|t| t.passes[i] * 1e6),
            "us",
        );
    }
    sheet.set("exec.lower_us", per_round(&|t| t.lower * 1e6), "us");
    sheet.set("exec.mem_init_ms", per_round(&|t| t.mem * 1e3), "ms");
    sheet.set("exec.tape_ops", per_round(&|t| t.tape_ops as f64), "count");

    // Runtime layer, from the untraced steps.
    let steps: Vec<&Step> = steps.iter().filter(|s| !s.traced).collect();
    for (k, name) in KERNELS.iter().enumerate() {
        let of = |fused: bool| -> Vec<f64> {
            steps
                .iter()
                .filter(|s| s.kernel == k && s.fused == fused)
                .map(|s| s.secs * 1e3)
                .collect()
        };
        sheet.set(
            format!("exec.fused_step_ms.{name}"),
            median(&of(true)),
            "ms",
        );
        sheet.set(
            format!("exec.unfused_step_ms.{name}"),
            median(&of(false)),
            "ms",
        );
        let pairs: Vec<f64> = steps
            .iter()
            .filter(|s| s.kernel == k && s.fused)
            .filter_map(|s| {
                steps
                    .iter()
                    .find(|o| o.kernel == k && !o.fused && o.round == s.round && o.index == s.index)
                    .map(|o| o.secs / s.secs)
            })
            .collect();
        sheet.set(
            format!("exec.fusion_speedup.{name}"),
            median(&pairs),
            "ratio",
        );
    }
    let mut units: Vec<Vec<(&RunReport, f64)>> = Vec::new();
    for r in 0..setups.len() {
        for j in 0..PAIRS * 2 {
            let unit: Vec<(&RunReport, f64)> = steps
                .iter()
                .filter(|s| s.fused && s.round == r && s.index == j)
                .map(|s| (&s.report, s.secs))
                .collect();
            if !unit.is_empty() {
                units.push(unit);
            }
        }
    }
    layers::exec_counters(sheet, &units, opts.stream_gbs);
}
