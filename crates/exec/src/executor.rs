//! The unified executor API.
//!
//! One trait, [`Executor`], four runtimes:
//!
//! * [`ScopedExecutor`] — spawns a fresh set of OS threads for **every
//!   timestep** (`std::thread::scope` + `std::sync::Barrier`). This is
//!   the seed runtime's behavior, kept as the baseline the pool is
//!   measured against.
//! * [`PooledExecutor`] — a persistent [`WorkerPool`]: workers are
//!   created once, park between runs, and a whole multi-timestep run is
//!   a single dispatch with [`SenseBarrier`](crate::pool::SenseBarrier)
//!   phase synchronization.
//! * [`DynamicExecutor`] — self-scheduled execution of the *unfused*
//!   blocked program (the scheduling ablation; Section 3.2 of the paper
//!   forbids dynamic scheduling for shift-and-peel plans).
//! * [`SimExecutor`] — the deterministic single-threaded simulation of
//!   `P` processors, optionally with per-processor cache simulation.
//!
//! All are driven by a [`RunConfig`] — plan, timestep count, and sink
//! choice — and produce a [`RunReport`] with per-worker counters, phase
//! wall times, barrier-wait times, and block-imbalance statistics.

use crate::driver::{build_work, scoped_pass, sim_pass, worker_pass};
use crate::dynamic::dynamic_pass;
use crate::exec::{ExecError, ExecPlan, Program};
use crate::interp::ExecCounters;
use crate::memory::{MemView, Memory};
use crate::pool::{SenseBarrier, WorkerPool};
use crate::report::{RunReport, WorkerReport};
use crate::schedule::{
    adaptive_worker_pass, build_chunks, claimable_phases, scoped_adaptive_pass, Schedule,
    SharedChunks, VictimSelector, DEFAULT_STEAL_SEED,
};
use crate::sink::{CacheSink, NullSink};
use crate::tape::{Engine, ProgramTape};
use shift_peel_core::{CodegenMethod, FusionPlan};
use sp_cache::{Cache, CacheConfig};
use sp_trace::tracer::NO_INDEX;
use sp_trace::{RunTrace, SpanKind, TraceConfig, WorkerTrace, WorkerTracer, CONTROLLER_LANE};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which execution backend runs loop bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Walk the expression tree at every iteration point (the reference
    /// semantics).
    #[default]
    Interp,
    /// Lower bodies once into flat micro-op tapes ([`crate::lower`]) and
    /// run them with tight non-recursive loops. Bit-for-bit identical
    /// results and access streams to [`Backend::Interp`].
    Compiled,
    /// Run the micro-op tapes with the unit-stride interior lane-blocked
    /// [`LANES`](crate::tape::LANES) iterations at a time (portable
    /// `[f64; LANES]` arrays the compiler autovectorizes), in fused and
    /// peeled regions alike; scalar head/tail iterations and lane-unsafe
    /// nests reuse the scalar tape runner.
    /// Bit-for-bit identical results and access streams to
    /// [`Backend::Interp`] — per-lane ops round exactly like their
    /// scalar counterparts.
    Simd,
}

impl Backend {
    /// Short stable name (`interp` / `compiled` / `simd`) used in
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::Compiled => "compiled",
            Backend::Simd => "simd",
        }
    }

    /// Vector lane width this backend dispatches interior iterations
    /// with (1 for the scalar backends).
    pub fn lane_width(&self) -> u32 {
        match self {
            Backend::Interp | Backend::Compiled => 1,
            Backend::Simd => crate::tape::LANES as u32,
        }
    }
}

/// Where the access stream goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SinkChoice {
    /// Discard accesses (fastest; the only choice the threaded runtimes
    /// accept).
    #[default]
    Null,
    /// Feed each simulated processor's accesses through its own cache
    /// simulator ([`SimExecutor`] only); per-worker hit/miss statistics
    /// land in the report.
    Cache(CacheConfig),
}

/// A complete description of one run: what plan to execute, how many
/// timesteps to repeat it, and where the access stream goes.
///
/// Built fluently:
///
/// ```ignore
/// let cfg = RunConfig::fused([4]).strip(8).steps(100);
/// let report = ScopedExecutor.run(&prog, &mut mem, &cfg)?;
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    plan: ExecPlan,
    steps: usize,
    sink: SinkChoice,
    backend: Backend,
    trace: Option<TraceConfig>,
    // Adaptive scheduling (crate::schedule): which claim discipline the
    // run uses, the chunk-size override (None lets each schedule pick),
    // and the seed of the work-stealing victim-selection stream.
    schedule: Schedule,
    chunk: Option<i64>,
    steal_seed: u64,
    // Cache-injection points (sp-serve): a plan derived elsewhere and a
    // tape lowered elsewhere. `tape_cached` marks the tape as served
    // from an artifact cache, which zeroes the report's `lower_nanos`
    // and sets its `cached` flag.
    fusion: Option<Arc<FusionPlan>>,
    tape: Option<Arc<ProgramTape>>,
    tape_cached: bool,
}

impl RunConfig {
    /// The original serial program.
    pub fn serial() -> Self {
        RunConfig::from_plan(ExecPlan::Serial)
    }

    /// The original program blocked over a processor grid, barrier after
    /// every nest.
    pub fn blocked(grid: impl Into<Vec<usize>>) -> Self {
        RunConfig::from_plan(ExecPlan::Blocked { grid: grid.into() })
    }

    /// Shift-and-peel fused execution over a processor grid (strip-mined
    /// codegen, whole-block strips by default; see [`RunConfig::method`]
    /// and [`RunConfig::strip`]).
    pub fn fused(grid: impl Into<Vec<usize>>) -> Self {
        RunConfig::from_plan(ExecPlan::Fused {
            grid: grid.into(),
            method: CodegenMethod::StripMined,
            strip: i64::MAX,
        })
    }

    /// Wraps an existing [`ExecPlan`].
    pub fn from_plan(plan: ExecPlan) -> Self {
        RunConfig {
            plan,
            steps: 1,
            sink: SinkChoice::Null,
            backend: Backend::default(),
            trace: None,
            schedule: Schedule::default(),
            chunk: None,
            steal_seed: DEFAULT_STEAL_SEED,
            fusion: None,
            tape: None,
            tape_cached: false,
        }
    }

    /// Chooses the scheduling discipline (static by default). The
    /// adaptive schedules subdivide each static block into `Nt`-legal
    /// chunks and let workers claim or steal them; results stay
    /// bit-for-bit identical to static execution.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Overrides the chunk size (outer-level iterations per chunk) the
    /// adaptive schedules subdivide blocks into. Clamped to the
    /// Theorem-1 `Nt` floor; ignored by the static schedule. The
    /// `sp-machine` auto-tuner picks this from the cost model.
    pub fn chunk(mut self, c: i64) -> Self {
        self.chunk = Some(c);
        self
    }

    /// Seeds the work-stealing victim-selection stream (a fixed default
    /// otherwise). Affects only which worker executes which chunk, never
    /// results.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// Sets the codegen method (fused plans only; no-op otherwise).
    pub fn method(mut self, m: CodegenMethod) -> Self {
        if let ExecPlan::Fused { method, .. } = &mut self.plan {
            *method = m;
        }
        self
    }

    /// Sets the strip size (fused plans only; no-op otherwise).
    pub fn strip(mut self, s: i64) -> Self {
        if let ExecPlan::Fused { strip, .. } = &mut self.plan {
            *strip = s;
        }
        self
    }

    /// Repeats the plan `n` times back to back (timestepping).
    pub fn steps(mut self, n: usize) -> Self {
        self.steps = n;
        self
    }

    /// Chooses the access-stream sink.
    pub fn sink(mut self, s: SinkChoice) -> Self {
        self.sink = s;
        self
    }

    /// Chooses the execution backend (interpreter by default).
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Enables per-worker event tracing with `t`'s ring capacity. Traced
    /// runs carry a [`RunTrace`] in their report; untraced runs (the
    /// default) construct no tracing state at all.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.trace = Some(t);
        self
    }

    /// Enables tracing with the default ring capacity.
    pub fn traced(self) -> Self {
        self.trace(TraceConfig::default())
    }

    /// Injects a fusion plan derived elsewhere (e.g. served from an
    /// artifact cache), skipping in-run derivation. The plan must match
    /// the program: executors reject plans that do not cover the
    /// sequence or fuse a different number of levels. Callers reusing a
    /// cached plan on a new processor grid must revalidate Theorem 1
    /// first (`shift_peel_core::revalidate_plan`).
    pub fn prederived(mut self, plan: Arc<FusionPlan>) -> Self {
        self.fusion = Some(plan);
        self
    }

    /// Injects a freshly lowered tape and selects a tape backend
    /// (compiled unless [`Backend::Simd`] was already chosen — both run
    /// the same tapes). The report charges the tape's own lowering time
    /// to `lower_nanos` (the work happened, just outside the run) and
    /// leaves `cached` false.
    pub fn with_tape(mut self, tape: Arc<ProgramTape>) -> Self {
        if self.backend == Backend::Interp {
            self.backend = Backend::Compiled;
        }
        self.tape = Some(tape);
        self.tape_cached = false;
        self
    }

    /// Injects a cache-served tape and selects a tape backend (as
    /// [`RunConfig::with_tape`]). The report shows `lower_nanos == 0`
    /// and `cached == true`: no lowering happened anywhere for this run.
    pub fn precompiled(mut self, tape: Arc<ProgramTape>) -> Self {
        if self.backend == Backend::Interp {
            self.backend = Backend::Compiled;
        }
        self.tape = Some(tape);
        self.tape_cached = true;
        self
    }

    /// The plan to execute.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Timesteps the plan runs for.
    pub fn step_count(&self) -> usize {
        self.steps
    }

    /// The configured sink.
    pub fn sink_choice(&self) -> SinkChoice {
        self.sink
    }

    /// The configured backend.
    pub fn backend_choice(&self) -> Backend {
        self.backend
    }

    /// The tracing configuration, if tracing was requested.
    pub fn trace_config(&self) -> Option<TraceConfig> {
        self.trace
    }

    /// The configured scheduling discipline.
    pub fn schedule_choice(&self) -> Schedule {
        self.schedule
    }

    /// The configured chunk-size override, if any.
    pub fn chunk_size(&self) -> Option<i64> {
        self.chunk
    }

    /// The victim-selection seed.
    pub fn victim_seed(&self) -> u64 {
        self.steal_seed
    }

    /// The injected fusion plan, if one was supplied.
    pub fn prederived_plan(&self) -> Option<&Arc<FusionPlan>> {
        self.fusion.as_ref()
    }

    /// The injected tape, if one was supplied (fresh or cached).
    pub fn injected_tape(&self) -> Option<&Arc<ProgramTape>> {
        self.tape.as_ref()
    }

    /// True when the injected tape was served from an artifact cache.
    pub fn tape_cached(&self) -> bool {
        self.tape_cached
    }

    fn validate(&self) -> Result<(), ExecError> {
        if self.steps == 0 {
            return Err(ExecError::Config("steps must be >= 1".into()));
        }
        if let ExecPlan::Fused { strip, .. } = &self.plan {
            if *strip < 1 {
                return Err(ExecError::Config(format!(
                    "strip must be >= 1, got {strip}"
                )));
            }
        }
        if self.plan.procs() == 0 {
            return Err(ExecError::Config(
                "processor grid has a zero dimension".into(),
            ));
        }
        if let Some(c) = self.chunk {
            if c < 1 {
                return Err(ExecError::Config(format!("chunk must be >= 1, got {c}")));
            }
        }
        Ok(())
    }

    fn reject_cache_sink(&self, executor: &'static str) -> Result<(), ExecError> {
        match self.sink {
            SinkChoice::Null => Ok(()),
            SinkChoice::Cache(_) => Err(ExecError::Unsupported {
                executor,
                reason: "cache simulation needs the deterministic `SimExecutor`".into(),
            }),
        }
    }
}

/// A runtime that can execute a [`Program`] under a [`RunConfig`].
///
/// `run` is `&mut self` because some executors carry state across runs
/// (the pool); implementations must leave `mem` holding the result of
/// the full `steps`-long run and report per-worker counters faithfully.
pub trait Executor {
    /// Short stable name (`scoped`, `pooled`, `dynamic`, `sim`) used in
    /// reports and artifacts.
    fn name(&self) -> &'static str;

    /// Executes `cfg.plan()` on `mem` for `cfg.step_count()` timesteps.
    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError>;
}

/// Tracing state an executor carries through one run: the per-worker
/// ring config, the shared epoch every lane's timestamps are relative
/// to, and a controller lane recording orchestration spans (lowering).
struct RunTracing {
    cfg: TraceConfig,
    epoch: Instant,
    controller: WorkerTracer,
}

impl RunTracing {
    /// Starts tracing if the run asked for it. The epoch is *now*, so it
    /// must be called before any work to be traced (lowering included).
    fn start(cfg: &RunConfig) -> Option<RunTracing> {
        cfg.trace_config().map(|tc| {
            let epoch = Instant::now();
            // Orchestration records a handful of spans; a small ring
            // suffices.
            let controller = WorkerTracer::new(TraceConfig::with_capacity(64), epoch);
            RunTracing {
                cfg: tc,
                epoch,
                controller,
            }
        })
    }

    fn record_lower(&mut self, started: Instant, lanes: u32) {
        self.controller
            .record_lanes_until_now(SpanKind::Lower, started, lanes, NO_INDEX, NO_INDEX);
    }

    fn finish(self, mut lanes: Vec<WorkerTrace>) -> RunTrace {
        lanes.push(self.controller.finish(CONTROLLER_LANE));
        RunTrace::assemble(lanes)
    }
}

/// The per-pass trace context for timestep `step`, or `None` untraced.
fn pass_trace(tracing: &Option<RunTracing>, step: u32) -> crate::driver::PassTrace {
    tracing.as_ref().map(|t| (t.cfg, t.epoch, step))
}

fn serial_steps(
    prog: &Program<'_>,
    mem: &mut Memory,
    steps: usize,
    engine: Engine<'_>,
    tracing: &Option<RunTracing>,
) -> (Vec<WorkerReport>, Vec<WorkerTrace>) {
    let mut counters = ExecCounters::default();
    let mut tracer = tracing.as_ref().map(|t| WorkerTracer::new(t.cfg, t.epoch));
    for step in 0..steps {
        let t0 = Instant::now();
        let c = engine.run_original(prog.seq(), mem, &mut NullSink);
        counters.merge(&c);
        let dur = t0.elapsed().as_nanos() as u64;
        counters.fused_nanos += dur;
        if let Some(t) = &mut tracer {
            t.record(SpanKind::Serial, t0, dur, step as u32, NO_INDEX);
        }
    }
    (
        vec![WorkerReport {
            proc: 0,
            counters,
            cache: None,
        }],
        tracer.map(|t| t.finish(0)).into_iter().collect(),
    )
}

/// The fusion plan for this run: the injected prederived plan when one
/// was supplied (after a shape sanity check — a cache can never make an
/// executor run a plan for a different program), otherwise derived from
/// the program as before.
fn plan_of(prog: &Program<'_>, cfg: &RunConfig) -> Result<Arc<FusionPlan>, ExecError> {
    if let Some(fp) = cfg.prederived_plan() {
        let covered = fp.groups.last().map(|g| g.end).unwrap_or(0);
        if covered != prog.seq().len() {
            return Err(ExecError::Config(format!(
                "prederived plan covers {covered} nests but the program has {}",
                prog.seq().len()
            )));
        }
        if fp.levels != prog.levels() {
            return Err(ExecError::Config(format!(
                "prederived plan fuses {} levels but the program was built for {}",
                fp.levels,
                prog.levels()
            )));
        }
        return Ok(Arc::clone(fp));
    }
    prog.fusion_plan_for(cfg.plan())
}

/// Lowers the program to a micro-op tape when the config asks for a
/// tape backend (`None` means interpret). Both tape backends share one
/// lowering — the SIMD decision lives in the per-nest `lane_safe`
/// analysis the lowering pass already ran. An injected tape is used
/// as-is — its lowering happened elsewhere, so no `Lower` span is
/// recorded here; fresh lowering is timed into the controller lane,
/// tagged with the backend's lane width.
fn lower_tape(
    prog: &Program<'_>,
    mem: &Memory,
    cfg: &RunConfig,
    tracing: &mut Option<RunTracing>,
) -> Result<Option<Arc<ProgramTape>>, ExecError> {
    match cfg.backend_choice() {
        Backend::Interp => Ok(None),
        backend @ (Backend::Compiled | Backend::Simd) => {
            if let Some(t) = cfg.injected_tape() {
                return Ok(Some(Arc::clone(t)));
            }
            let t0 = Instant::now();
            let fp = plan_of(prog, cfg)?;
            let footprint = fp.lowering_footprint(prog.seq());
            let tape = Arc::new(ProgramTape::lower_with(prog.seq(), &mem.layout, &footprint));
            if let Some(tr) = tracing {
                tr.record_lower(t0, backend.lane_width());
            }
            Ok(Some(tape))
        }
    }
}

fn engine_of<'t>(backend: Backend, tape: &'t Option<Arc<ProgramTape>>) -> Engine<'t> {
    match (backend, tape) {
        (Backend::Simd, Some(t)) => Engine::Simd(t),
        (_, Some(t)) => Engine::Compiled(t),
        (_, None) => Engine::Interp,
    }
}

fn finish_report(
    name: &str,
    cfg: &RunConfig,
    wall_nanos: u64,
    tape: &Option<Arc<ProgramTape>>,
    workers: Vec<WorkerReport>,
    trace: Option<RunTrace>,
) -> RunReport {
    RunReport {
        executor: name.into(),
        backend: cfg.backend_choice().name().into(),
        schedule: cfg.schedule_choice().name().into(),
        procs: cfg.plan().procs(),
        steps: cfg.step_count(),
        wall_nanos,
        // A cache-served tape was not lowered for this run; a fresh tape
        // (injected or not) reports the lowering time it recorded.
        lower_nanos: if cfg.tape_cached() {
            0
        } else {
            tape.as_ref().map_or(0, |t| t.lower_nanos())
        },
        tape_ops: tape.as_ref().map_or(0, |t| t.total_ops()),
        cached: cfg.tape_cached(),
        // The queue-wait/execute split belongs to the serve tier; a
        // direct executor run has no queue to wait in.
        queue_wait_nanos: 0,
        exec_nanos: 0,
        workers,
        trace,
    }
}

/// Spawn-per-timestep runtime: every timestep creates `P` scoped threads
/// and a fresh barrier, exactly like the seed's `run_plan_threaded`. Its
/// per-step thread-creation cost is what [`PooledExecutor`] removes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScopedExecutor;

impl Executor for ScopedExecutor {
    fn name(&self) -> &'static str {
        "scoped"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        cfg.validate()?;
        cfg.reject_cache_sink(self.name())?;
        let mut tracing = RunTracing::start(cfg);
        let tape = lower_tape(prog, mem, cfg, &mut tracing)?;
        let engine = engine_of(cfg.backend_choice(), &tape);
        let t0 = Instant::now();
        let mut lanes: Vec<WorkerTrace> = Vec::new();
        let workers = match cfg.plan() {
            ExecPlan::Serial => {
                let (workers, serial_lanes) =
                    serial_steps(prog, mem, cfg.step_count(), engine, &tracing);
                lanes = serial_lanes;
                workers
            }
            plan => {
                let fp = plan_of(prog, cfg)?;
                let grid = plan.grid();
                let strip = match plan {
                    ExecPlan::Fused { strip, .. } => *strip,
                    _ => i64::MAX,
                };
                let work = build_work(prog.seq(), prog.deps(), &fp, grid)?;
                let nprocs = plan.procs();
                let view = MemView::new(mem);
                let chunked = match cfg.schedule_choice() {
                    Schedule::Static => None,
                    s => Some(SharedChunks::new(build_chunks(
                        &fp,
                        &work,
                        s,
                        cfg.chunk_size(),
                        nprocs,
                    )?)),
                };
                let phases = claimable_phases(&work);
                let mut totals = vec![ExecCounters::default(); nprocs];
                for step in 0..cfg.step_count() {
                    let results = match &chunked {
                        None => scoped_pass(
                            prog.seq(),
                            &fp,
                            &work,
                            nprocs,
                            strip,
                            engine,
                            &view,
                            pass_trace(&tracing, step as u32),
                        )?,
                        Some(shared) => scoped_adaptive_pass(
                            prog.seq(),
                            &fp,
                            &work,
                            shared,
                            nprocs,
                            strip,
                            engine,
                            &view,
                            cfg.victim_seed(),
                            step as u64 * phases,
                            pass_trace(&tracing, step as u32),
                        )?,
                    };
                    for (t, (c, lane)) in totals.iter_mut().zip(results) {
                        t.merge(&c);
                        lanes.extend(lane);
                    }
                }
                if let Some(shared) = &chunked {
                    shared.merge_into(&mut totals);
                }
                totals
                    .into_iter()
                    .enumerate()
                    .map(|(p, counters)| WorkerReport {
                        proc: p,
                        counters,
                        cache: None,
                    })
                    .collect()
            }
        };
        let wall = t0.elapsed().as_nanos() as u64;
        let trace = tracing.map(|tr| tr.finish(lanes));
        Ok(finish_report(self.name(), cfg, wall, &tape, workers, trace))
    }
}

/// Persistent-pool runtime: workers are created once (at
/// [`PooledExecutor::new`]) and reused by every run; a multi-timestep run
/// is a single pool dispatch whose workers loop over timesteps, meeting
/// at a sense-reversing barrier at every phase boundary.
pub struct PooledExecutor {
    pool: WorkerPool,
}

impl PooledExecutor {
    /// A pool with `size` persistent workers. Plans may use up to `size`
    /// processors; extra workers idle through runs that need fewer.
    pub fn new(size: usize) -> Self {
        PooledExecutor {
            pool: WorkerPool::new(size),
        }
    }

    /// Number of pooled workers.
    pub fn size(&self) -> usize {
        self.pool.size()
    }
}

impl Executor for PooledExecutor {
    fn name(&self) -> &'static str {
        "pooled"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        cfg.validate()?;
        cfg.reject_cache_sink(self.name())?;
        let mut tracing = RunTracing::start(cfg);
        let tape = lower_tape(prog, mem, cfg, &mut tracing)?;
        let engine = engine_of(cfg.backend_choice(), &tape);
        let t0 = Instant::now();
        let mut lanes: Vec<WorkerTrace> = Vec::new();
        let workers = match cfg.plan() {
            // A serial plan has no parallel phases; run it inline rather
            // than waking the pool for nothing.
            ExecPlan::Serial => {
                let (workers, serial_lanes) =
                    serial_steps(prog, mem, cfg.step_count(), engine, &tracing);
                lanes = serial_lanes;
                workers
            }
            plan => {
                let nprocs = plan.procs();
                if nprocs > self.pool.size() {
                    return Err(ExecError::PoolTooSmall {
                        pool: self.pool.size(),
                        required: nprocs,
                    });
                }
                let fp = plan_of(prog, cfg)?;
                let strip = match plan {
                    ExecPlan::Fused { strip, .. } => *strip,
                    _ => i64::MAX,
                };
                let work = build_work(prog.seq(), prog.deps(), &fp, plan.grid())?;
                let view = MemView::new(mem);
                // Adaptive schedules share one chunk/claim state across
                // all steps of the dispatch and use the contention-aware
                // barrier (imbalanced phases are the whole point).
                let chunked = match cfg.schedule_choice() {
                    Schedule::Static => None,
                    s => Some(SharedChunks::new(build_chunks(
                        &fp,
                        &work,
                        s,
                        cfg.chunk_size(),
                        nprocs,
                    )?)),
                };
                let barrier = match cfg.schedule_choice() {
                    Schedule::Static => SenseBarrier::new(nprocs),
                    _ => SenseBarrier::adaptive(nprocs),
                };
                type Slot = (ExecCounters, Option<WorkerTrace>);
                let slots: Vec<Mutex<Slot>> =
                    (0..nprocs).map(|_| Mutex::new(Slot::default())).collect();
                let seq = prog.seq();
                let steps = cfg.step_count();
                let seed = cfg.victim_seed();
                let worker_trace = tracing.as_ref().map(|tr| (tr.cfg, tr.epoch));
                let fp = &fp;
                let work = &work;
                let barrier = &barrier;
                let slots_ref = &slots;
                let view_ref = &view;
                let chunked_ref = chunked.as_ref();
                self.pool.run(&move |p: usize| {
                    if p >= nprocs {
                        return; // surplus workers idle through this run
                    }
                    let mut sink = NullSink;
                    let mut counters = ExecCounters::default();
                    let mut sense = false;
                    let mut tracer = worker_trace.map(|(tc, epoch)| WorkerTracer::new(tc, epoch));
                    let job_t0 = Instant::now();
                    match chunked_ref {
                        None => {
                            for step in 0..steps {
                                // SAFETY: the `nprocs` participating
                                // workers run the same work list in
                                // lockstep through the sense barrier;
                                // phases never conflict (Theorem 1,
                                // checked by `build_work`). Each timestep
                                // ends with a barrier, ordering it before
                                // the next.
                                unsafe {
                                    worker_pass(
                                        seq,
                                        fp,
                                        work,
                                        strip,
                                        p,
                                        engine,
                                        view_ref,
                                        barrier,
                                        &mut sense,
                                        &mut sink,
                                        &mut counters,
                                        step as u32,
                                        &mut tracer,
                                    )
                                };
                            }
                        }
                        Some(shared) => {
                            let mut selector = VictimSelector::new(seed, p, nprocs);
                            let mut epoch = 0u64;
                            for step in 0..steps {
                                // SAFETY: as above; additionally the claim
                                // protocol hands each chunk to exactly one
                                // worker per phase, and distinct chunks
                                // never conflict (checked by
                                // `build_chunks`).
                                unsafe {
                                    adaptive_worker_pass(
                                        seq,
                                        fp,
                                        work,
                                        shared,
                                        strip,
                                        p,
                                        engine,
                                        view_ref,
                                        barrier,
                                        &mut sense,
                                        &mut sink,
                                        &mut counters,
                                        &mut selector,
                                        &mut epoch,
                                        step as u32,
                                        &mut tracer,
                                    )
                                };
                            }
                        }
                    }
                    if let Some(t) = &mut tracer {
                        t.record_until_now(SpanKind::Dispatch, job_t0, NO_INDEX, NO_INDEX);
                    }
                    // One write at job end keeps the hot path lock-free.
                    *slots_ref[p].lock().unwrap() = (counters, tracer.map(|t| t.finish(p)));
                })?;
                let mut totals = Vec::with_capacity(nprocs);
                for s in slots {
                    let (counters, lane) = s.into_inner().unwrap();
                    lanes.extend(lane);
                    totals.push(counters);
                }
                if let Some(shared) = &chunked {
                    shared.merge_into(&mut totals);
                }
                totals
                    .into_iter()
                    .enumerate()
                    .map(|(p, counters)| WorkerReport {
                        proc: p,
                        counters,
                        cache: None,
                    })
                    .collect()
            }
        };
        let wall = t0.elapsed().as_nanos() as u64;
        let trace = tracing.map(|tr| tr.finish(lanes));
        Ok(finish_report(self.name(), cfg, wall, &tape, workers, trace))
    }
}

/// Self-scheduled runtime for the *unfused* blocked program: threads
/// claim chunks of outer iterations from a shared cursor, barrier after
/// every nest. Rejects fused plans — shift-and-peel's legality argument
/// requires static blocked scheduling (Section 3.2).
#[derive(Clone, Copy, Debug)]
pub struct DynamicExecutor {
    chunk: i64,
}

impl DynamicExecutor {
    /// Self-scheduling with `chunk` outer iterations claimed at a time.
    pub fn new(chunk: i64) -> Self {
        DynamicExecutor { chunk }
    }
}

impl Default for DynamicExecutor {
    fn default() -> Self {
        DynamicExecutor::new(4)
    }
}

impl Executor for DynamicExecutor {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        cfg.validate()?;
        cfg.reject_cache_sink(self.name())?;
        if cfg.schedule_choice() != Schedule::Static {
            return Err(ExecError::Unsupported {
                executor: self.name(),
                reason: "the self-scheduled ablation has its own chunking; \
                         `schedule` selects among the block-legal runtimes"
                    .into(),
            });
        }
        if self.chunk < 1 {
            return Err(ExecError::Config(format!(
                "chunk must be >= 1, got {}",
                self.chunk
            )));
        }
        let nthreads = match cfg.plan() {
            ExecPlan::Blocked { .. } => cfg.plan().procs(),
            ExecPlan::Serial => {
                return Err(ExecError::Unsupported {
                    executor: self.name(),
                    reason: "serial plans have nothing to self-schedule".into(),
                })
            }
            ExecPlan::Fused { .. } => return Err(ExecError::DynamicFusedPlan),
        };
        let mut tracing = RunTracing::start(cfg);
        let tape = lower_tape(prog, mem, cfg, &mut tracing)?;
        let engine = engine_of(cfg.backend_choice(), &tape);
        let t0 = Instant::now();
        let results = dynamic_pass(
            prog.seq(),
            prog.deps(),
            nthreads,
            self.chunk,
            cfg.step_count(),
            engine,
            mem,
            pass_trace(&tracing, 0),
        )?;
        let mut lanes: Vec<WorkerTrace> = Vec::new();
        let workers = results
            .into_iter()
            .enumerate()
            .map(|(p, (counters, lane))| {
                lanes.extend(lane);
                WorkerReport {
                    proc: p,
                    counters,
                    cache: None,
                }
            })
            .collect();
        let wall = t0.elapsed().as_nanos() as u64;
        let trace = tracing.map(|tr| tr.finish(lanes));
        Ok(finish_report(self.name(), cfg, wall, &tape, workers, trace))
    }
}

/// Deterministic simulation of `P` processors on one thread: processors
/// of each phase run one after another (legal because the transformation
/// removes all intra-phase cross-processor dependences), which makes
/// per-processor cache simulation reproducible.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimExecutor;

impl Executor for SimExecutor {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(
        &mut self,
        prog: &Program<'_>,
        mem: &mut Memory,
        cfg: &RunConfig,
    ) -> Result<RunReport, ExecError> {
        cfg.validate()?;
        let nprocs = cfg.plan().procs();
        let mut tracing = RunTracing::start(cfg);
        let tape = lower_tape(prog, mem, cfg, &mut tracing)?;
        let engine = engine_of(cfg.backend_choice(), &tape);
        let t0 = Instant::now();
        let ((totals, lanes), caches) = match cfg.sink_choice() {
            SinkChoice::Null => {
                let mut sinks = vec![NullSink; nprocs];
                (
                    run_sim_steps(prog, mem, cfg, engine, &mut sinks, &tracing)?,
                    None,
                )
            }
            SinkChoice::Cache(cache_cfg) => {
                // Cache state persists across timesteps, as it would on
                // hardware.
                let mut sinks: Vec<CacheSink> = (0..nprocs)
                    .map(|_| CacheSink::new(Cache::new(cache_cfg)))
                    .collect();
                let totals = run_sim_steps(prog, mem, cfg, engine, &mut sinks, &tracing)?;
                let stats = sinks.iter().map(|s| s.stats()).collect::<Vec<_>>();
                (totals, Some(stats))
            }
        };
        let workers = totals
            .into_iter()
            .enumerate()
            .map(|(p, counters)| WorkerReport {
                proc: p,
                counters,
                cache: caches.as_ref().map(|c| c[p]),
            })
            .collect();
        let wall = t0.elapsed().as_nanos() as u64;
        let trace = tracing.map(|tr| tr.finish(lanes));
        Ok(finish_report(self.name(), cfg, wall, &tape, workers, trace))
    }
}

fn run_sim_steps<S: crate::sink::AccessSink>(
    prog: &Program<'_>,
    mem: &mut Memory,
    cfg: &RunConfig,
    engine: Engine<'_>,
    sinks: &mut [S],
    tracing: &Option<RunTracing>,
) -> Result<(Vec<ExecCounters>, Vec<WorkerTrace>), ExecError> {
    let nprocs = cfg.plan().procs();
    let mut totals = vec![ExecCounters::default(); nprocs];
    let mut tracers: Option<Vec<WorkerTracer>> = tracing.as_ref().map(|t| {
        (0..nprocs)
            .map(|_| WorkerTracer::new(t.cfg, t.epoch))
            .collect()
    });
    // One plan serves every timestep: derive (or accept the injected
    // prederived plan) once, outside the loop.
    let fp = match cfg.plan() {
        ExecPlan::Serial => None,
        _ => Some(plan_of(prog, cfg)?),
    };
    for step in 0..cfg.step_count() {
        let counters = match cfg.plan() {
            ExecPlan::Serial => {
                if sinks.len() != 1 {
                    return Err(ExecError::SinkCount {
                        expected: 1,
                        got: sinks.len(),
                    });
                }
                let t0 = Instant::now();
                let c = engine.run_original(prog.seq(), mem, &mut sinks[0]);
                if let Some(ts) = &mut tracers {
                    ts[0].record_until_now(SpanKind::Serial, t0, step as u32, NO_INDEX);
                }
                vec![c]
            }
            plan => {
                let strip = match plan {
                    ExecPlan::Fused { strip, .. } => *strip,
                    _ => i64::MAX,
                };
                sim_pass(
                    prog.seq(),
                    prog.deps(),
                    fp.as_ref().expect("non-serial plan derived above"),
                    plan.grid(),
                    strip,
                    cfg.schedule_choice(),
                    cfg.chunk_size(),
                    engine,
                    mem,
                    sinks,
                    step as u32,
                    &mut tracers,
                )?
            }
        };
        for (t, c) in totals.iter_mut().zip(&counters) {
            t.merge(c);
        }
    }
    let lanes = tracers
        .map(|ts| {
            ts.into_iter()
                .enumerate()
                .map(|(p, t)| t.finish(p))
                .collect()
        })
        .unwrap_or_default();
    Ok((totals, lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cache::LayoutStrategy;
    use sp_ir::{LoopSequence, SeqBuilder};

    fn jacobi(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("jacobi");
        let a = b.array("a", [n, n]);
        let bb = b.array("b", [n, n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi), (lo, hi)], |x| {
            let r = (x.ld(a, [0, -1]) + x.ld(a, [0, 1]) + x.ld(a, [-1, 0]) + x.ld(a, [1, 0])) / 4.0;
            x.assign(bb, [0, 0], r);
        });
        b.nest("L2", [(lo, hi), (lo, hi)], |x| {
            let r = x.ld(bb, [0, 0]);
            x.assign(a, [0, 0], r);
        });
        b.finish()
    }

    fn snapshot_after(ex: &mut dyn Executor, cfg: &RunConfig, seq: &LoopSequence) -> Vec<Vec<f64>> {
        let prog = Program::new(seq, 2).unwrap();
        let mut mem = Memory::new(seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(seq, 7);
        ex.run(&prog, &mut mem, cfg).unwrap();
        mem.snapshot_all(seq)
    }

    #[test]
    fn all_executors_agree_on_blocked_plan() {
        let seq = jacobi(24);
        let cfg = RunConfig::blocked([2, 2]).steps(3);
        let want = snapshot_after(&mut SimExecutor, &cfg, &seq);
        assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
        assert_eq!(
            snapshot_after(&mut DynamicExecutor::new(2), &cfg, &seq),
            want
        );
    }

    #[test]
    fn executors_agree_on_fused_plan() {
        let seq = jacobi(24);
        let cfg = RunConfig::fused([2, 2]).strip(4).steps(3);
        let want = snapshot_after(&mut SimExecutor, &cfg, &seq);
        assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
    }

    #[test]
    fn adaptive_schedules_match_static_results() {
        let seq = jacobi(32);
        let base = RunConfig::fused([2, 2]).strip(4).steps(3);
        let want = snapshot_after(&mut SimExecutor, &base, &seq);
        for sched in [Schedule::Guided, Schedule::Stealing] {
            let cfg = base.clone().schedule(sched);
            assert_eq!(
                snapshot_after(&mut SimExecutor, &cfg, &seq),
                want,
                "{sched:?} sim"
            );
            assert_eq!(
                snapshot_after(&mut ScopedExecutor, &cfg, &seq),
                want,
                "{sched:?} scoped"
            );
            assert_eq!(
                snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
                want,
                "{sched:?} pooled"
            );
        }
    }

    #[test]
    fn adaptive_owner_counters_match_sim_reference() {
        // Work counters are attributed to chunk *owners*, so the racy
        // threaded runtimes must report exactly what the deterministic
        // simulator reports, per processor, at the same schedule.
        let seq = jacobi(32);
        let prog = Program::new(&seq, 2).unwrap();
        for sched in [Schedule::Guided, Schedule::Stealing] {
            let cfg = RunConfig::fused([2, 2]).strip(4).steps(2).schedule(sched);
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let sim = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
            assert_eq!(sim.schedule, cfg.schedule_choice().name());
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let pooled = PooledExecutor::new(4).run(&prog, &mut mem, &cfg).unwrap();
            let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
            mem.init_deterministic(&seq, 7);
            let scoped = ScopedExecutor.run(&prog, &mut mem, &cfg).unwrap();
            for p in 0..4 {
                assert_eq!(
                    pooled.workers[p].counters, sim.workers[p].counters,
                    "{sched:?} pooled proc {p}"
                );
                assert_eq!(
                    scoped.workers[p].counters, sim.workers[p].counters,
                    "{sched:?} scoped proc {p}"
                );
            }
        }
    }

    #[test]
    fn stealing_chunk_override_and_seed_keep_results() {
        let seq = jacobi(32);
        let base = RunConfig::fused([2, 2]).strip(4).steps(2);
        let want = snapshot_after(&mut SimExecutor, &base, &seq);
        let cfg = base
            .clone()
            .schedule(Schedule::Stealing)
            .chunk(3)
            .steal_seed(0xDEAD);
        assert_eq!(snapshot_after(&mut SimExecutor, &cfg, &seq), want);
        assert_eq!(
            snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
            want
        );
    }

    #[test]
    fn dynamic_rejects_adaptive_schedules() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::blocked([2]).schedule(Schedule::Stealing);
        let err = DynamicExecutor::default()
            .run(&prog, &mut mem, &cfg)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Unsupported {
                    executor: "dynamic",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn zero_chunk_is_a_config_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([4]).schedule(Schedule::Guided).chunk(0);
        let err = SimExecutor.run(&prog, &mut mem, &cfg).unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
    }

    #[test]
    fn dynamic_rejects_fused_plans() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let err = DynamicExecutor::default()
            .run(&prog, &mut mem, &RunConfig::fused([4]))
            .unwrap_err();
        assert_eq!(err, ExecError::DynamicFusedPlan);
        // The message must explain the *why*: peeled iterations live at
        // statically known block boundaries (paper Section 3.2).
        let msg = err.to_string();
        assert!(
            msg.contains("peeled iterations"),
            "message names peeling: {msg}"
        );
        assert!(
            msg.contains("statically known block boundaries"),
            "names boundaries: {msg}"
        );
        assert!(msg.contains("Section 3.2"), "cites the paper: {msg}");
    }

    #[test]
    fn compiled_backend_matches_interp_on_all_executors() {
        let seq = jacobi(24);
        for make_cfg in [
            RunConfig::fused([2, 2]).strip(4).steps(3),
            RunConfig::blocked([2, 2]).steps(3),
            RunConfig::serial().steps(3),
        ] {
            let want = snapshot_after(&mut SimExecutor, &make_cfg, &seq);
            for backend in [Backend::Compiled, Backend::Simd] {
                let cfg = make_cfg.clone().backend(backend);
                assert_eq!(snapshot_after(&mut SimExecutor, &cfg, &seq), want);
                assert_eq!(snapshot_after(&mut ScopedExecutor, &cfg, &seq), want);
                if !matches!(cfg.plan(), ExecPlan::Serial) {
                    assert_eq!(
                        snapshot_after(&mut PooledExecutor::new(4), &cfg, &seq),
                        want
                    );
                }
                if matches!(cfg.plan(), ExecPlan::Blocked { .. }) {
                    assert_eq!(
                        snapshot_after(&mut DynamicExecutor::new(2), &cfg, &seq),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn simd_backend_reports_vectorized_iterations() {
        // Wide enough that each processor's interior spans at least one
        // aligned LANES-wide block even after the scalar head (strip 16
        // beats LANES = 8; a strip narrower than LANES legally
        // vectorizes nothing).
        let seq = jacobi(40);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([2, 2])
            .strip(16)
            .steps(2)
            .backend(Backend::Simd);
        let report = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.backend, "simd");
        assert!(report.tape_ops > 0, "simd runs lower a tape");
        let merged = report.merged_counters();
        assert!(merged.vec_iters > 0, "interior iterations vectorized");
        assert!(
            merged.vec_iters <= merged.iters,
            "vec_iters {} is a subset of iters {}",
            merged.vec_iters,
            merged.iters
        );
        assert_eq!(merged.vec_iters % crate::tape::LANES as u64, 0);
        // Scalar backends never vectorize.
        let mut mem2 = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem2.init_deterministic(&seq, 7);
        let r2 = SimExecutor
            .run(
                &prog,
                &mut mem2,
                &RunConfig::fused([2, 2]).strip(16).steps(2),
            )
            .unwrap();
        assert_eq!(r2.merged_counters().vec_iters, 0);
        // Work counters still compare equal across backends (vec_iters
        // is dispatch accounting, excluded from equality).
        assert_eq!(report.merged_counters(), r2.merged_counters());
    }

    /// Peel regions run on the step's own engine: a fused, peeled plan
    /// on the simd tape streams exactly the interpreter's accesses to
    /// every simulated processor, and a counting sink sees every load
    /// and store the counters charge.
    #[test]
    fn simd_peeled_plan_streams_match_interp() {
        use crate::sink::{CountingSink, RecordingSink};
        let seq = jacobi(40);
        let prog = Program::new(&seq, 2).unwrap();
        let cfg = RunConfig::fused([2, 2])
            .strip(16)
            .steps(2)
            .backend(Backend::Simd);
        let mut base = Memory::new(&seq, LayoutStrategy::Contiguous);
        base.init_deterministic(&seq, 7);
        let tape = ProgramTape::lower(&seq, &base.layout);
        let run = |engine: Engine<'_>| {
            let mut mem = base.clone();
            let mut rec = vec![RecordingSink::default(); 4];
            let (counters, _) =
                run_sim_steps(&prog, &mut mem, &cfg, engine, &mut rec, &None).unwrap();
            let mut mem2 = base.clone();
            let mut counts = vec![CountingSink::default(); 4];
            run_sim_steps(&prog, &mut mem2, &cfg, engine, &mut counts, &None).unwrap();
            assert_eq!(mem.data, mem2.data);
            (counters, rec, counts, mem.data)
        };
        let (ci, ri, ni, mi) = run(Engine::Interp);
        let (cs, rs, ns, ms) = run(Engine::Simd(&tape));
        assert!(
            ci.iter().map(|c| c.peeled_iters).sum::<u64>() > 0,
            "plan peels"
        );
        assert!(
            cs.iter().map(|c| c.vec_iters).sum::<u64>() > 0,
            "lanes taken"
        );
        assert_eq!(mi, ms);
        assert_eq!(ci, cs);
        assert_eq!(ni, ns);
        for p in 0..4 {
            assert_eq!(ri[p].trace, rs[p].trace, "proc {p}");
            assert_eq!(ns[p].loads, cs[p].loads, "proc {p}");
            assert_eq!(ns[p].stores, cs[p].stores, "proc {p}");
            assert!(cs[p].vec_iters <= cs[p].iters, "proc {p}");
        }
    }

    #[test]
    fn compiled_report_carries_lowering_counters() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([2, 2]).strip(4).backend(Backend::Compiled);
        let report = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.backend, "compiled");
        assert!(report.tape_ops > 0, "tape has micro-ops");
        // Interp runs report no tape at all.
        let mut mem2 = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem2.init_deterministic(&seq, 7);
        let r2 = SimExecutor
            .run(&prog, &mut mem2, &RunConfig::fused([2, 2]).strip(4))
            .unwrap();
        assert_eq!(r2.backend, "interp");
        assert_eq!((r2.lower_nanos, r2.tape_ops), (0, 0));
    }

    #[test]
    fn injected_artifacts_match_fresh_runs_and_mark_reports() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let base = RunConfig::fused([2, 2]).strip(4).steps(3);
        // Fresh compiled run: the reference result and the tape source.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let fresh = SimExecutor
            .run(&prog, &mut mem, &base.clone().backend(Backend::Compiled))
            .unwrap();
        let want = mem.snapshot_all(&seq);
        assert!(!fresh.cached);
        // Derive the artifacts the way a cache would, then inject them.
        let fp = prog.fusion_plan_for(base.plan()).unwrap();
        let mem0 = Memory::new(&seq, LayoutStrategy::Contiguous);
        let tape = Arc::new(ProgramTape::lower_with(
            &seq,
            &mem0.layout,
            &fp.lowering_footprint(&seq),
        ));
        // `with_tape`: fresh lowering done outside the run — lower time
        // is charged, `cached` stays false.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .with_tape(Arc::clone(&tape));
        let r = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
        assert!(!r.cached);
        assert_eq!(r.lower_nanos, tape.lower_nanos());
        assert_eq!(r.tape_ops, fresh.tape_ops);
        // `precompiled`: cache-served tape — no lowering this run.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .precompiled(Arc::clone(&tape));
        let r = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
        assert!(r.cached);
        assert_eq!(r.lower_nanos, 0);
        assert_eq!(r.tape_ops, fresh.tape_ops);
        // The threaded runtimes accept injected artifacts too.
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = base
            .clone()
            .prederived(Arc::clone(&fp))
            .precompiled(Arc::clone(&tape));
        PooledExecutor::new(4).run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(mem.snapshot_all(&seq), want);
    }

    #[test]
    fn mismatched_prederived_plan_is_rejected() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        // A plan for a *different* program: wrong nest coverage.
        let other = {
            let mut b = SeqBuilder::new("other");
            let a = b.array("a", [32, 32]);
            let c = b.array("c", [32, 32]);
            b.nest("L1", [(1, 30), (1, 30)], |x| {
                let r = x.ld(a, [0, 0]);
                x.assign(c, [0, 0], r);
            });
            b.finish()
        };
        let other_prog = Program::new(&other, 2).unwrap();
        let cfg = RunConfig::fused([2, 2]).strip(4);
        let wrong = other_prog.fusion_plan_for(cfg.plan()).unwrap();
        let err = SimExecutor
            .run(&prog, &mut mem, &cfg.clone().prederived(wrong))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
        // Wrong fused-levels count is rejected too.
        let prog1 = Program::new(&seq, 1).unwrap();
        let wrong_levels = prog1.fusion_plan_for(cfg.plan()).unwrap();
        let err = SimExecutor
            .run(&prog, &mut mem, &cfg.prederived(wrong_levels))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err:?}");
    }

    #[test]
    fn pool_too_small_is_a_typed_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let err = PooledExecutor::new(2)
            .run(&prog, &mut mem, &RunConfig::blocked([2, 2]))
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::PoolTooSmall {
                pool: 2,
                required: 4
            }
        );
    }

    #[test]
    fn zero_steps_is_a_config_error() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let err = ScopedExecutor
            .run(&prog, &mut mem, &RunConfig::serial().steps(0))
            .unwrap_err();
        assert!(matches!(err, ExecError::Config(_)));
    }

    #[test]
    fn threaded_executors_reject_cache_sinks() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg =
            RunConfig::blocked([2]).sink(SinkChoice::Cache(CacheConfig::new(16 * 1024, 64, 1)));
        assert!(matches!(
            ScopedExecutor.run(&prog, &mut mem, &cfg),
            Err(ExecError::Unsupported {
                executor: "scoped",
                ..
            })
        ));
    }

    #[test]
    fn sim_cache_sink_reports_per_worker_stats() {
        let seq = jacobi(24);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let cfg = RunConfig::fused([2, 2])
            .strip(4)
            .steps(2)
            .sink(SinkChoice::Cache(CacheConfig::new(16 * 1024, 64, 1)));
        let report = SimExecutor.run(&prog, &mut mem, &cfg).unwrap();
        assert_eq!(report.workers.len(), 4);
        for w in &report.workers {
            let cache = w.cache.expect("cache stats present");
            assert!(cache.accesses > 0);
        }
        let json = report.to_json();
        assert!(json.contains("\"cache\":{\"accesses\":"));
    }

    #[test]
    fn pooled_report_has_barrier_and_imbalance_stats() {
        let seq = jacobi(32);
        let prog = Program::new(&seq, 2).unwrap();
        let mut mem = Memory::new(&seq, LayoutStrategy::Contiguous);
        mem.init_deterministic(&seq, 7);
        let mut pooled = PooledExecutor::new(4);
        let report = pooled
            .run(
                &prog,
                &mut mem,
                &RunConfig::fused([2, 2]).strip(8).steps(10),
            )
            .unwrap();
        assert_eq!(report.steps, 10);
        assert_eq!(report.workers.len(), 4);
        // Every worker crossed every barrier of every step.
        let barriers = report.workers[0].counters.barriers;
        assert!(
            barriers >= 20,
            "expected >= 2 barriers/step, got {barriers}"
        );
        assert!(report
            .workers
            .iter()
            .all(|w| w.counters.barriers == barriers));
        // Someone waited at some barrier, and imbalance is near 1.
        assert!(report.max_barrier_wait_nanos() > 0);
        let imb = report.imbalance();
        assert!(imb >= 1.0 && imb < 2.0, "imbalance {imb}");
    }
}
