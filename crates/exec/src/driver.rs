//! Schedule drivers: executing fusion plans serially, as a deterministic
//! simulation of `P` processors, or on real threads.
//!
//! Execution follows the structure of Figure 12/16 of the paper. For each
//! fused group, every processor runs its **fused phase** (strip-mined or
//! direct method), then a **barrier**, then its **peeled phase**. Unfused
//! (singleton) groups degenerate to plain blocked execution with a
//! barrier — exactly the original program's synchronization structure.
//!
//! The *simulated* driver runs processors one after another (fused phases
//! of all processors, then peeled phases of all processors). Because the
//! transformation removes every cross-processor dependence within a
//! phase, any serialization of a phase is equivalent to its parallel
//! execution — this is what makes deterministic trace-driven cache
//! simulation per processor possible.

use crate::exec::ExecError;
use crate::interp::ExecCounters;
use crate::memory::{MemView, Memory};
use crate::pool::SenseBarrier;
use crate::sink::{AccessSink, NullSink};
use crate::tape::Engine;
use shift_peel_core::analysis::{
    check_blocks, decompose, global_fused_range, nest_regions, ProcBlock,
};
use shift_peel_core::{CodegenMethod, FusedGroup, FusionPlan, LegalityError};
use sp_dep::SequenceDeps;
use sp_ir::{IterSpace, LoopSequence};
use sp_trace::tracer::NO_INDEX;
use sp_trace::{SpanKind, TraceConfig, WorkerTrace, WorkerTracer};
use std::sync::Barrier;
use std::time::Instant;

/// Iterates the tiles of `block` over the first `fused_levels` dimensions
/// with strip size `s`, invoking `f` with each tile's per-level ranges.
fn for_each_tile(block: &ProcBlock, fused_levels: usize, s: i64, mut f: impl FnMut(&[(i64, i64)])) {
    debug_assert!(s >= 1);
    let mut tile: Vec<(i64, i64)> = Vec::with_capacity(fused_levels);
    let mut cursor: Vec<i64> = block.range[..fused_levels]
        .iter()
        .map(|&(lo, _)| lo)
        .collect();
    'outer: loop {
        tile.clear();
        for (l, &c) in cursor.iter().enumerate() {
            tile.push((c, c.saturating_add(s - 1).min(block.range[l].1)));
        }
        f(&tile);
        for l in (0..fused_levels).rev() {
            cursor[l] = cursor[l].saturating_add(s);
            if cursor[l] <= block.range[l].1 {
                continue 'outer;
            }
            cursor[l] = block.range[l].0;
        }
        break;
    }
}

/// Runs one processor's fused phase of a group.
///
/// # Safety
/// The caller must uphold [`MemView`]'s contract; the shift-and-peel
/// schedule guarantees fused phases of distinct processors never make
/// conflicting accesses (given the block-size legality check).
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_fused_phase<S: AccessSink>(
    seq: &LoopSequence,
    group: &FusedGroup,
    block: &ProcBlock,
    strip: i64,
    method: CodegenMethod,
    engine: Engine<'_>,
    view: &MemView<'_>,
    sink: &mut S,
    counters: &mut ExecCounters,
) {
    let deriv = &group.derivation;
    let fused_levels = deriv.fused_levels();
    // Per member nest: its fused region for this block.
    let fused: Vec<IterSpace> = group
        .members()
        .enumerate()
        .map(|(k, nid)| nest_regions(&seq.nests[nid], deriv, k, block).fused)
        .collect();

    match method {
        CodegenMethod::StripMined => {
            for_each_tile(block, fused_levels, strip, |tile| {
                counters.strips += 1;
                for (k, nid) in group.members().enumerate() {
                    let f = &fused[k];
                    if f.is_empty() {
                        continue;
                    }
                    let mut bounds = f.bounds.clone();
                    let mut empty = false;
                    for l in 0..fused_levels {
                        let shift = deriv.dims[l].shifts[k];
                        let lo = (tile[l].0 - shift).max(f.bounds[l].0);
                        let hi = (tile[l].1 - shift).min(f.bounds[l].1);
                        if lo > hi {
                            empty = true;
                            break;
                        }
                        bounds[l] = (lo, hi);
                    }
                    if !empty {
                        let region = IterSpace::new(bounds);
                        // SAFETY: forwarded from caller.
                        unsafe { engine.exec_region(seq, view, nid, &region, sink, counters) };
                    }
                }
            });
        }
        CodegenMethod::Direct => {
            // One fused loop over the block's outer points; each member
            // guarded and executed at its shifted position (Figure 11(a)).
            let outer = IterSpace::new(block.range[..fused_levels].to_vec());
            let mut shifted: Vec<i64> = vec![0; fused_levels];
            outer.for_each(|point| {
                for (k, nid) in group.members().enumerate() {
                    counters.guards += 1;
                    let f = &fused[k];
                    let mut inside = !f.is_empty();
                    for l in 0..fused_levels {
                        shifted[l] = point[l] - deriv.dims[l].shifts[k];
                        if shifted[l] < f.bounds[l].0 || shifted[l] > f.bounds[l].1 {
                            inside = false;
                            break;
                        }
                    }
                    if inside {
                        let mut bounds: Vec<(i64, i64)> = shifted.iter().map(|&v| (v, v)).collect();
                        bounds.extend_from_slice(&f.bounds[fused_levels..]);
                        let region = IterSpace::new(bounds);
                        // SAFETY: forwarded from caller.
                        unsafe { engine.exec_region(seq, view, nid, &region, sink, counters) };
                    }
                }
            });
        }
    }
}

/// Runs one processor's peeled phase of a group (after the barrier).
///
/// # Safety
/// As [`run_fused_phase`]; peeled sets of distinct processors never
/// conflict.
pub unsafe fn run_peeled_phase<S: AccessSink>(
    seq: &LoopSequence,
    group: &FusedGroup,
    block: &ProcBlock,
    engine: Engine<'_>,
    view: &MemView<'_>,
    sink: &mut S,
    counters: &mut ExecCounters,
) {
    let deriv = &group.derivation;
    for (k, nid) in group.members().enumerate() {
        let regions = nest_regions(&seq.nests[nid], deriv, k, block);
        for r in &regions.peeled {
            // Peeled iterations are counted apart from `iters`, and
            // `vec_iters` stays a subset of `iters`.
            let (iters, vec_iters) = (counters.iters, counters.vec_iters);
            // SAFETY: forwarded from caller.
            unsafe { engine.exec_region(seq, view, nid, r, sink, counters) };
            counters.peeled_iters += counters.iters - iters;
            counters.iters = iters;
            counters.vec_iters = vec_iters;
        }
    }
}

/// Per-group precomputed work description.
pub(crate) enum GroupWork {
    /// A nest that must run serially (on processor 0).
    Serial { nest: usize },
    /// A (possibly singleton) parallel group with its blocks; processors
    /// beyond `blocks.len()` idle through the phase.
    Parallel {
        blocks: Vec<ProcBlock>,
        has_peel: bool,
    },
}

/// Builds the work list for a plan on a processor grid, performing all
/// legality checks (Theorem 1 block sizes).
pub(crate) fn build_work(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    plan: &FusionPlan,
    grid: &[usize],
) -> Result<Vec<GroupWork>, LegalityError> {
    let mut work = Vec::with_capacity(plan.groups.len());
    for group in &plan.groups {
        let members: Vec<usize> = group.members().collect();
        let parallel = members
            .iter()
            .all(|&k| deps.nests[k].parallel.iter().take(plan.levels).all(|&p| p));
        if !parallel {
            debug_assert_eq!(group.len(), 1, "planner must not fuse serial nests");
            work.push(GroupWork::Serial { nest: group.start });
            continue;
        }
        let global = global_fused_range(seq, &members, plan.levels)?;
        // Clamp the grid so no level has more blocks than iterations, and
        // so every block satisfies the Nt threshold.
        let mut eff: Vec<usize> = Vec::with_capacity(grid.len());
        for (l, &g) in grid.iter().enumerate() {
            let trip = global[l].1 - global[l].0 + 1;
            let nt = group.derivation.dims[l].nt().max(1);
            eff.push((g as i64).min(trip / nt).max(1) as usize);
        }
        let blocks = decompose(&global, &eff)?;
        check_blocks(&group.derivation, &blocks)?;
        let has_peel = group.derivation.dims.iter().any(|d| d.nt() > 0);
        work.push(GroupWork::Parallel { blocks, has_peel });
    }
    Ok(work)
}

/// Phase-boundary synchronization used by [`worker_pass`]: either a
/// `std::sync::Barrier` (scoped runtime) or a [`SenseBarrier`] (pooled
/// runtime). `wait` returns the nanoseconds spent waiting;
/// `wait_outcome` additionally reports whether the wait parked on a
/// condvar after exhausting a spin budget (always `false` for barriers
/// that cannot tell).
pub(crate) trait PhaseSync: Sync {
    fn wait(&self, sense: &mut bool) -> u64;

    fn wait_outcome(&self, sense: &mut bool) -> (u64, bool) {
        (self.wait(sense), false)
    }
}

impl PhaseSync for Barrier {
    fn wait(&self, _sense: &mut bool) -> u64 {
        let t0 = Instant::now();
        Barrier::wait(self);
        t0.elapsed().as_nanos() as u64
    }
}

impl PhaseSync for SenseBarrier {
    fn wait(&self, sense: &mut bool) -> u64 {
        SenseBarrier::wait(self, sense)
    }

    fn wait_outcome(&self, sense: &mut bool) -> (u64, bool) {
        SenseBarrier::wait_outcome(self, sense)
    }
}

/// One processor's traversal of a full work list: for each group, fused
/// phase, barrier, then (if any nest peels) peeled phase and a second
/// barrier. Serial groups run on processor 0 with everyone else waiting.
/// Phase wall times and barrier-wait times accumulate into `counters`;
/// when the run is traced, every phase and barrier wait is also recorded
/// as a span in this worker's private `tracer` (a `None` tracer costs one
/// branch per phase, not per iteration).
///
/// This is the *shared* per-worker schedule of the scoped and pooled
/// runtimes; only the barrier implementation differs.
///
/// # Safety
/// As [`run_fused_phase`]/[`run_peeled_phase`]: all participants must
/// execute the same work list in lockstep through the same barrier.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn worker_pass<B: PhaseSync, S: AccessSink>(
    seq: &LoopSequence,
    plan: &FusionPlan,
    work: &[GroupWork],
    strip: i64,
    p: usize,
    engine: Engine<'_>,
    view: &MemView<'_>,
    barrier: &B,
    sense: &mut bool,
    sink: &mut S,
    counters: &mut ExecCounters,
    step: u32,
    tracer: &mut Option<WorkerTracer>,
) {
    for (gi, w) in work.iter().enumerate() {
        let g = gi as u32;
        match w {
            GroupWork::Serial { nest } => {
                if p == 0 {
                    let t0 = Instant::now();
                    let space = seq.nests[*nest].space();
                    // SAFETY: all other threads are parked at the barrier
                    // below; no concurrent access.
                    unsafe { engine.exec_region(seq, view, *nest, &space, sink, counters) };
                    let dur = t0.elapsed().as_nanos() as u64;
                    counters.fused_nanos += dur;
                    if let Some(t) = tracer {
                        t.record(SpanKind::Serial, t0, dur, step, g);
                    }
                }
                let bt0 = Instant::now();
                let waited = barrier.wait(sense);
                counters.barrier_wait_nanos += waited;
                counters.barriers += 1;
                if let Some(t) = tracer {
                    t.record(SpanKind::BarrierWait, bt0, waited, step, g);
                }
            }
            GroupWork::Parallel { blocks, has_peel } => {
                let group = &plan.groups[gi];
                if let Some(block) = blocks.get(p) {
                    let t0 = Instant::now();
                    // SAFETY: fused phases of distinct blocks never
                    // conflict (Theorem 1; checked by `build_work`).
                    unsafe {
                        run_fused_phase(
                            seq,
                            group,
                            block,
                            strip,
                            plan.method,
                            engine,
                            view,
                            sink,
                            counters,
                        )
                    };
                    let dur = t0.elapsed().as_nanos() as u64;
                    counters.fused_nanos += dur;
                    if let Some(t) = tracer {
                        t.record(SpanKind::Fused, t0, dur, step, g);
                    }
                }
                let bt0 = Instant::now();
                let waited = barrier.wait(sense);
                counters.barrier_wait_nanos += waited;
                counters.barriers += 1;
                if let Some(t) = tracer {
                    t.record(SpanKind::BarrierWait, bt0, waited, step, g);
                }
                if *has_peel {
                    if let Some(block) = blocks.get(p) {
                        let t0 = Instant::now();
                        // SAFETY: peeled sets of distinct blocks never
                        // conflict.
                        unsafe {
                            run_peeled_phase(seq, group, block, engine, view, sink, counters)
                        };
                        let dur = t0.elapsed().as_nanos() as u64;
                        counters.peeled_nanos += dur;
                        if let Some(t) = tracer {
                            t.record(SpanKind::Peeled, t0, dur, step, g);
                        }
                    }
                    let bt0 = Instant::now();
                    let waited = barrier.wait(sense);
                    counters.barrier_wait_nanos += waited;
                    counters.barriers += 1;
                    if let Some(t) = tracer {
                        t.record(SpanKind::BarrierWait, bt0, waited, step, g);
                    }
                }
            }
        }
    }
}

/// Per-pass tracing context handed down by the executors: the ring
/// config, the run's shared epoch, and the timestep the pass executes.
pub(crate) type PassTrace = Option<(TraceConfig, Instant, u32)>;

/// One spawn-per-run pass over the work list: `nprocs` scoped threads,
/// a fresh `std::sync::Barrier`, one [`worker_pass`] each. When traced,
/// each thread records into a private ring returned alongside its
/// counters (the executor merges the per-step lanes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scoped_pass(
    seq: &LoopSequence,
    plan: &FusionPlan,
    work: &[GroupWork],
    nprocs: usize,
    strip: i64,
    engine: Engine<'_>,
    view: &MemView<'_>,
    trace: PassTrace,
) -> Result<Vec<(ExecCounters, Option<WorkerTrace>)>, ExecError> {
    let barrier = Barrier::new(nprocs);
    let mut results = Vec::with_capacity(nprocs);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                let mut sink = NullSink;
                let mut counters = ExecCounters::default();
                let mut sense = false;
                let mut tracer = trace.map(|(cfg, epoch, _)| WorkerTracer::new(cfg, epoch));
                let step = trace.map_or(0, |(_, _, s)| s);
                let job_t0 = Instant::now();
                // SAFETY: every thread runs the same work list through
                // the same barrier; phases never conflict (Theorem 1).
                unsafe {
                    worker_pass(
                        seq,
                        plan,
                        work,
                        strip,
                        p,
                        engine,
                        view,
                        barrier,
                        &mut sense,
                        &mut sink,
                        &mut counters,
                        step,
                        &mut tracer,
                    )
                };
                if let Some(t) = &mut tracer {
                    t.record_until_now(SpanKind::Dispatch, job_t0, step, NO_INDEX);
                }
                (counters, tracer.map(|t| t.finish(p)))
            }));
        }
        for (p, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(c) => results.push(c),
                Err(_) => return Err(ExecError::WorkerPanic { proc: p }),
            }
        }
        Ok(())
    })?;
    Ok(results)
}

/// Deterministic simulation of parallel execution: processors of each
/// phase run one after another, each reporting into its own sink.
///
/// Returns per-processor counters. `sinks.len()` must equal the grid's
/// product. When `tracers` is populated (one per simulated processor),
/// phase spans are recorded per processor; barrier waits are not, since
/// nothing waits in a serialized simulation.
///
/// Under an adaptive `schedule`, each parallel group's blocks are
/// subdivided into the same chunk decomposition the threaded runtimes
/// use ([`crate::schedule::build_chunks`]) and every chunk's work is
/// attributed to its *owner* — the per-processor counters and access
/// streams this produces are the reference the threaded adaptive
/// schedules must reproduce exactly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sim_pass<S: AccessSink>(
    seq: &LoopSequence,
    deps: &SequenceDeps,
    plan: &FusionPlan,
    grid: &[usize],
    strip: i64,
    schedule: crate::schedule::Schedule,
    chunk: Option<i64>,
    engine: Engine<'_>,
    mem: &mut Memory,
    sinks: &mut [S],
    step: u32,
    tracers: &mut Option<Vec<WorkerTracer>>,
) -> Result<Vec<ExecCounters>, ExecError> {
    let nprocs: usize = grid.iter().product();
    if sinks.len() != nprocs {
        return Err(ExecError::SinkCount {
            expected: nprocs,
            got: sinks.len(),
        });
    }
    let work = build_work(seq, deps, plan, grid)?;
    let chunked = match schedule {
        crate::schedule::Schedule::Static => None,
        _ => Some(crate::schedule::build_chunks(
            plan, &work, schedule, chunk, nprocs,
        )?),
    };
    let mut counters = vec![ExecCounters::default(); nprocs];
    let view = MemView::new(mem);
    let record =
        |tracers: &mut Option<Vec<WorkerTracer>>, p: usize, kind: SpanKind, t0: Instant, g: u32| {
            if let Some(ts) = tracers {
                ts[p].record_until_now(kind, t0, step, g);
            }
        };
    for (gi, w) in work.iter().enumerate() {
        let g = gi as u32;
        match w {
            GroupWork::Serial { nest } => {
                let t0 = Instant::now();
                let space = seq.nests[*nest].space();
                // SAFETY: simulated execution is single-threaded.
                unsafe {
                    engine.exec_region(seq, &view, *nest, &space, &mut sinks[0], &mut counters[0])
                };
                record(tracers, 0, SpanKind::Serial, t0, g);
                for c in &mut counters {
                    c.barriers += 1;
                }
            }
            GroupWork::Parallel { blocks, has_peel } => {
                let group = &plan.groups[gi];
                // Under an adaptive schedule, iterate the group's chunks
                // (owner-major, front to back) attributing each chunk to
                // its owner; statically, one block per processor.
                let assignments: Vec<(usize, &ProcBlock)> = match &chunked {
                    Some(chunks) => {
                        let gc = chunks[gi].as_ref().expect("parallel group chunked");
                        gc.owner
                            .iter()
                            .zip(gc.chunks.iter())
                            .map(|(&o, c)| (o, c))
                            .collect()
                    }
                    None => blocks.iter().enumerate().collect(),
                };
                for &(p, block) in &assignments {
                    let t0 = Instant::now();
                    // SAFETY: simulated execution is single-threaded.
                    unsafe {
                        run_fused_phase(
                            seq,
                            group,
                            block,
                            strip,
                            plan.method,
                            engine,
                            &view,
                            &mut sinks[p],
                            &mut counters[p],
                        )
                    };
                    record(tracers, p, SpanKind::Fused, t0, g);
                }
                for c in &mut counters {
                    c.barriers += 1;
                }
                if *has_peel {
                    for &(p, block) in &assignments {
                        let t0 = Instant::now();
                        // SAFETY: simulated execution is single-threaded.
                        unsafe {
                            run_peeled_phase(
                                seq,
                                group,
                                block,
                                engine,
                                &view,
                                &mut sinks[p],
                                &mut counters[p],
                            )
                        };
                        record(tracers, p, SpanKind::Peeled, t0, g);
                    }
                    for c in &mut counters {
                        c.barriers += 1;
                    }
                }
            }
        }
    }
    Ok(counters)
}
