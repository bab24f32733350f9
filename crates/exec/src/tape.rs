//! Compiled kernel tapes: flat micro-op programs executed by tight
//! non-recursive loops.
//!
//! The interpreter in [`crate::interp`] walks an `Expr` tree and
//! re-derives every affine address from scratch at every iteration
//! point. A [`ProgramTape`] is the compiled alternative: each nest body
//! is lowered once (see [`crate::lower`]) into a postfix sequence of
//! [`MicroOp`]s over a small value stack, and every array reference
//! becomes an [`AccessPat`] — a precomputed base slot/address plus one
//! combined stride coefficient per loop level. The tape executor then
//! runs a plain counted loop nest, updating each access's flat offset
//! *incrementally* as loop variables advance, so the hot path is stack
//! arithmetic plus pointer reads — no recursion, no subscript vectors,
//! no per-access layout walks.
//!
//! **Equivalence contract.** A tape must be observationally identical to
//! the interpreter on the same schedule: same results bit for bit, same
//! access stream (addresses in the same order, so cache simulations
//! produce identical per-processor miss counts), and same work counters.
//! Three lowering invariants guarantee this:
//!
//! 1. micro-ops are emitted in the interpreter's left-to-right
//!    evaluation order, so loads hit the [`AccessSink`] in the same
//!    sequence;
//! 2. the fused multiply-add ops ([`MicroOp::MulAdd`]/[`MicroOp::AddMul`])
//!    compute `a * b` and the addition as **two separately rounded**
//!    `f64` operations — they fuse instruction dispatch, never the
//!    floating-point rounding (`f64::mul_add` would change results);
//! 3. constant folding uses the same `f64` operator implementations the
//!    interpreter applies, and the [`ExecCounters`] work fields are
//!    charged from the *original* (pre-folding) expression tree.

use crate::interp::{exec_region, ExecCounters};
use crate::memory::{MemView, Memory};
use crate::sink::AccessSink;
use sp_ir::{AffineExpr, IterSpace, LoopSequence};

/// Lane width of the SIMD backend's vector blocks.
///
/// The lane-blocked runner executes the unit-stride interior of each
/// nest `LANES` iterations at a time over plain `[f64; LANES]` arrays;
/// the per-lane loops are shaped for the compiler's autovectorizer, so
/// no unstable features or intrinsics are involved. Eight `f64` lanes
/// fill one AVX-512 register or two AVX2 registers — wide enough to
/// amortize dispatch, narrow enough that the `|Δ| >= LANES` lane-safety
/// bound (see [`NestTape::lane_safe`]) rarely rejects real stencils.
pub const LANES: usize = 8;

/// One instruction of a statement tape, operating on a value stack.
///
/// Binary ops pop two values and push one; unary ops replace the top of
/// stack; the three-operand ops pop three and push one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// Push a (possibly folded) constant.
    Const(f64),
    /// Load through the nest's access pattern with this index and push
    /// the value; reports the access to the sink.
    Load(u32),
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a.min(b)`.
    Min,
    /// `a.max(b)`.
    Max,
    /// `-a`.
    Neg,
    /// `a.abs()`.
    Abs,
    /// `a.sqrt()`.
    Sqrt,
    /// `(a * b) + c` from `Add(Mul(a, b), c)`, stack order `[a, b, c]`.
    /// Two separately rounded operations — *not* a hardware FMA.
    MulAdd,
    /// `c + (a * b)` from `Add(c, Mul(a, b))`, stack order `[c, a, b]`.
    /// Two separately rounded operations — *not* a hardware FMA.
    AddMul,
}

/// The dimension-0 part of a reference into a *contracted* array
/// (`ArrayPlacement::wrap`): the plane subscript must be reduced modulo
/// the wrap window at every point, so it cannot join the linear
/// [`AccessPat::coeffs`] and is re-evaluated per access instead.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WrapPat {
    /// Physical planes allocated (the modulo).
    pub(crate) wrap: i64,
    /// Element stride of dimension 0.
    pub(crate) stride0: i64,
    /// The dimension-0 subscript expression.
    pub(crate) sub: AffineExpr,
}

/// A fully precomputed array reference: the flat element offset is
/// affine in the iteration point, `slot = slot_base + coeffs · point`
/// (plus a modulo term for contracted arrays).
///
/// Exactness: with `addr = start + off * elem_bytes` and integral
/// per-point offset `off`, `floor(addr / elem_bytes) = floor(start /
/// elem_bytes) + off`, so splitting the layout's slot computation into a
/// lowered base plus a per-point linear term reproduces the
/// interpreter's slots and byte addresses exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessPat {
    /// Flat element slot of the reference at point `0`, folded with the
    /// constant parts of every subscript.
    pub(crate) slot_base: i64,
    /// Byte address of the reference at point `0`.
    pub(crate) addr_base: i64,
    /// Combined element stride per loop level: `coeffs[l]` is the slot
    /// delta when loop variable `l` increases by one.
    pub(crate) coeffs: Vec<i64>,
    /// Set for references into contracted arrays; `None` on the fast
    /// path.
    pub(crate) wrap: Option<WrapPat>,
}

impl AccessPat {
    /// The per-point variable offset given the incrementally maintained
    /// linear part `cur` (wrap references add their modulo term here).
    #[inline]
    fn var(&self, cur: i64, point: &[i64]) -> i64 {
        match &self.wrap {
            None => cur,
            Some(w) => cur + (w.sub.eval(point) % w.wrap) * w.stride0,
        }
    }
}

/// One statement compiled to postfix form.
#[derive(Clone, Debug, PartialEq)]
pub struct StmtTape {
    /// RHS micro-ops in interpreter evaluation order; leaves exactly one
    /// value on the stack.
    pub(crate) ops: Vec<MicroOp>,
    /// Access-pattern index of the store target.
    pub(crate) store: u32,
    /// Arithmetic ops of the *original* RHS tree, bulk-charged per
    /// iteration so counters match the interpreter despite folding.
    pub(crate) flops: u64,
    /// Loads of the original RHS tree (folding never removes loads, so
    /// this also equals the `Load` micro-ops executed).
    pub(crate) loads: u64,
}

/// One loop nest's compiled body.
#[derive(Clone, Debug, PartialEq)]
pub struct NestTape {
    /// Loop depth the access patterns' coefficients are indexed by.
    pub(crate) depth: usize,
    /// Element size in bytes (from the layout the tape was lowered for).
    pub(crate) elem_bytes: i64,
    /// Deduplicated access patterns shared by the nest's statements.
    pub(crate) pats: Vec<AccessPat>,
    /// The statements, in program order.
    pub(crate) stmts: Vec<StmtTape>,
    /// Value-stack slots the deepest statement needs.
    pub(crate) max_stack: usize,
    /// Whether the lane-blocked (SIMD) runner may execute this nest's
    /// interior `LANES` iterations at a time and still reproduce the
    /// scalar backends bit for bit. Decided once at lowering:
    ///
    /// * no contracted-array (`wrap`) references — their modulo term is
    ///   not affine in the lane index;
    /// * every access pattern's innermost coefficient is exactly 1, so a
    ///   vector block touches `LANES` consecutive slots per pattern;
    /// * all patterns share one coefficient vector, so the slot distance
    ///   between any two patterns is the constant `Δ = slot_base
    ///   difference` at every iteration point;
    /// * for every store pattern and every pattern, `Δ == 0` or `|Δ| >=
    ///   LANES`: no loop-carried dependence at distance `< LANES` can
    ///   land inside one vector block, and `Δ == 0` (same-iteration
    ///   use) is benign because the runner preserves statement order
    ///   and loads all lanes before storing any.
    ///
    /// Ineligible nests fall back to the scalar tape runner.
    pub(crate) lane_safe: bool,
}

impl NestTape {
    /// Micro-ops across all statements (stores count as one each).
    pub fn op_count(&self) -> u64 {
        self.stmts.iter().map(|s| s.ops.len() as u64 + 1).sum()
    }
}

/// A whole sequence compiled against one [`sp_cache::MemoryLayout`]:
/// one [`NestTape`] per nest, indexed like `seq.nests`.
///
/// Tapes are schedule-independent: shift-and-peel reindexes *iteration
/// spaces*, never statement bodies, so the same nest tape serves the
/// serial, blocked, fused, and peeled phases of any plan. They are,
/// however, bound to the layout they were lowered for (base addresses
/// and strides are baked in) — lower again after changing the layout.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramTape {
    /// Per-nest tapes, indexed by nest position in the sequence.
    pub(crate) nests: Vec<NestTape>,
    /// Wall time the lowering pass took.
    pub(crate) lower_nanos: u64,
}

impl ProgramTape {
    /// Wall time the lowering pass took, in nanoseconds.
    pub fn lower_nanos(&self) -> u64 {
        self.lower_nanos
    }

    /// Total micro-ops across every nest (the tape-size counter reported
    /// in [`crate::report::RunReport`]).
    pub fn total_ops(&self) -> u64 {
        self.nests.iter().map(|n| n.op_count()).sum()
    }

    /// Deduplicated access patterns across every nest.
    pub fn pattern_count(&self) -> usize {
        self.nests.iter().map(|n| n.pats.len()).sum()
    }

    /// Nests the lane-blocked runner accepts (see [`NestTape`] docs);
    /// the rest run scalar under `Backend::Simd` too.
    pub fn lane_safe_nests(&self) -> usize {
        self.nests.iter().filter(|n| n.lane_safe).count()
    }
}

/// Which execution backend a driver loop uses for nest bodies: the
/// recursive interpreter, a compiled [`ProgramTape`], or the tape's
/// lane-blocked SIMD form.
///
/// All backends are observationally identical (results, access stream,
/// counters); they differ only in speed. The engine is `Copy` so worker
/// closures can capture it by value.
#[derive(Clone, Copy, Debug)]
pub enum Engine<'a> {
    /// Walk `Expr` trees per iteration ([`crate::interp`]).
    Interp,
    /// Execute pre-lowered micro-op tapes.
    Compiled(&'a ProgramTape),
    /// Execute tapes with the interior lane-blocked `LANES` iterations
    /// at a time ([`exec_region_simd`]); ineligible nests run scalar.
    Simd(&'a ProgramTape),
}

impl Engine<'_> {
    /// Executes every iteration of `region` through nest `nest_idx`'s
    /// body with this backend.
    ///
    /// # Safety
    /// As [`exec_region`]: the caller upholds [`MemView`]'s contract —
    /// the region must not conflict with regions concurrently executed
    /// by other threads.
    pub unsafe fn exec_region<S: AccessSink>(
        &self,
        seq: &LoopSequence,
        view: &MemView<'_>,
        nest_idx: usize,
        region: &IterSpace,
        sink: &mut S,
        counters: &mut ExecCounters,
    ) {
        match self {
            // SAFETY: forwarded from caller.
            Engine::Interp => unsafe { exec_region(seq, view, nest_idx, region, sink, counters) },
            Engine::Compiled(tape) => {
                // SAFETY: forwarded from caller.
                unsafe { exec_region_tape(&tape.nests[nest_idx], region, view, sink, counters) }
            }
            Engine::Simd(tape) => {
                // SAFETY: forwarded from caller.
                unsafe { exec_region_simd(&tape.nests[nest_idx], region, view, sink, counters) }
            }
        }
    }

    /// Serial reference execution with this backend: every nest in
    /// program order over its full space (the backend-parameterized
    /// [`crate::interp::run_original`]).
    pub fn run_original<S: AccessSink>(
        &self,
        seq: &LoopSequence,
        mem: &mut Memory,
        sink: &mut S,
    ) -> ExecCounters {
        let mut counters = ExecCounters::default();
        let view = MemView::new(mem);
        for k in 0..seq.nests.len() {
            let space = seq.nests[k].space();
            // SAFETY: single-threaded execution; no concurrent access.
            unsafe { self.exec_region(seq, &view, k, &space, sink, &mut counters) };
        }
        counters
    }
}

/// Executes every iteration of `region` through a compiled nest tape.
///
/// The loop nest is a hand-rolled counted loop (innermost level
/// advances fastest, matching `IterSpace::for_each`); each access
/// pattern's flat offset is maintained incrementally with per-level
/// deltas, so steady-state iterations do no address multiplication at
/// all.
///
/// # Safety
/// As [`exec_region`]: the caller upholds [`MemView`]'s contract, and
/// the tape must have been lowered against `view`'s layout.
pub unsafe fn exec_region_tape<S: AccessSink>(
    nest: &NestTape,
    region: &IterSpace,
    view: &MemView<'_>,
    sink: &mut S,
    counters: &mut ExecCounters,
) {
    if region.is_empty() {
        return;
    }
    let depth = region.depth();
    debug_assert_eq!(
        depth, nest.depth,
        "region depth must match the lowered nest"
    );
    let eb = nest.elem_bytes;
    let lows: Vec<i64> = region.bounds.iter().map(|&(lo, _)| lo).collect();
    // Linear offset of each pattern at the region's first point.
    let mut cur: Vec<i64> = nest.pats.iter().map(|p| dot(&p.coeffs, &lows)).collect();
    // delta[l][j]: offset change of pattern j when level l increments
    // (which simultaneously resets every deeper level to its lower
    // bound, hence the subtraction of the deeper levels' full spans).
    let deltas: Vec<Vec<i64>> = (0..depth)
        .map(|l| {
            nest.pats
                .iter()
                .map(|p| {
                    let mut d = p.coeffs[l];
                    for m in l + 1..depth {
                        d -= p.coeffs[m] * (region.bounds[m].1 - region.bounds[m].0);
                    }
                    d
                })
                .collect()
        })
        .collect();
    let mut stack = vec![0.0f64; nest.max_stack];
    let mut point = lows;
    'iteration: loop {
        for st in &nest.stmts {
            let mut sp = 0usize;
            for op in &st.ops {
                match *op {
                    MicroOp::Const(c) => {
                        stack[sp] = c;
                        sp += 1;
                    }
                    MicroOp::Load(j) => {
                        let j = j as usize;
                        let pat = &nest.pats[j];
                        let var = pat.var(cur[j], &point);
                        sink.access((pat.addr_base + var * eb) as u64, false);
                        // SAFETY: forwarded from caller; the pattern
                        // reproduces the layout's slot exactly.
                        stack[sp] = unsafe { view.read_slot((pat.slot_base + var) as usize) };
                        sp += 1;
                    }
                    MicroOp::Add => {
                        sp -= 1;
                        stack[sp - 1] += stack[sp];
                    }
                    MicroOp::Sub => {
                        sp -= 1;
                        stack[sp - 1] -= stack[sp];
                    }
                    MicroOp::Mul => {
                        sp -= 1;
                        stack[sp - 1] *= stack[sp];
                    }
                    MicroOp::Div => {
                        sp -= 1;
                        stack[sp - 1] /= stack[sp];
                    }
                    MicroOp::Min => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].min(stack[sp]);
                    }
                    MicroOp::Max => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].max(stack[sp]);
                    }
                    MicroOp::Neg => stack[sp - 1] = -stack[sp - 1],
                    MicroOp::Abs => stack[sp - 1] = stack[sp - 1].abs(),
                    MicroOp::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
                    MicroOp::MulAdd => {
                        sp -= 2;
                        stack[sp - 1] = stack[sp - 1] * stack[sp] + stack[sp + 1];
                    }
                    MicroOp::AddMul => {
                        sp -= 2;
                        stack[sp - 1] += stack[sp] * stack[sp + 1];
                    }
                }
            }
            debug_assert_eq!(sp, 1, "statement tape must leave exactly one value");
            let j = st.store as usize;
            let pat = &nest.pats[j];
            let var = pat.var(cur[j], &point);
            sink.access((pat.addr_base + var * eb) as u64, true);
            // SAFETY: forwarded from caller.
            unsafe { view.write_slot((pat.slot_base + var) as usize, stack[0]) };
            counters.flops += st.flops;
            counters.loads += st.loads;
            counters.stores += 1;
        }
        counters.iters += 1;
        for l in (0..depth).rev() {
            point[l] += 1;
            if point[l] <= region.bounds[l].1 {
                for (c, d) in cur.iter_mut().zip(&deltas[l]) {
                    *c += *d;
                }
                continue 'iteration;
            }
            point[l] = region.bounds[l].0;
        }
        break;
    }
}

/// Executes every iteration of `region` through a compiled nest tape
/// with the innermost loop lane-blocked: a scalar head aligns the inner
/// index to an absolute multiple of [`LANES`], full blocks then execute
/// `LANES` iterations at a time over `[f64; LANES]` value stacks (plain
/// per-lane loops the compiler autovectorizes — each lane performs the
/// same separately rounded `f64` operations the scalar backends do, so
/// results are bit for bit identical), and a scalar tail finishes the
/// remainder. Nests that fail the [`NestTape::lane_safe`] analysis run
/// through the scalar tape runner unchanged.
///
/// Access-stream parity: vector blocks replay their sink accesses in
/// exact scalar order (iteration → statement → RHS loads → store)
/// separately from the vectorized compute, so cache simulations observe
/// the same address sequence as the scalar backends. The replay runs
/// only for sinks that observe the stream ([`AccessSink::OBSERVES`]):
/// the optimizer does not remove the loop nest on its own even when the
/// sink's `access` is empty, and under [`crate::sink::NullSink`] it
/// would cost more than the vectorized compute.
///
/// # Safety
/// As [`exec_region_tape`]: the caller upholds [`MemView`]'s contract,
/// and the tape must have been lowered against `view`'s layout.
pub unsafe fn exec_region_simd<S: AccessSink>(
    nest: &NestTape,
    region: &IterSpace,
    view: &MemView<'_>,
    sink: &mut S,
    counters: &mut ExecCounters,
) {
    if !nest.lane_safe {
        // SAFETY: forwarded from caller.
        return unsafe { exec_region_tape(nest, region, view, sink, counters) };
    }
    if region.is_empty() {
        return;
    }
    let depth = region.depth();
    debug_assert_eq!(
        depth, nest.depth,
        "region depth must match the lowered nest"
    );
    debug_assert!(
        nest.pats.iter().all(|p| p.wrap.is_none()),
        "lane-safe nests have no wrap patterns"
    );
    let (ilo, ihi) = region.bounds[depth - 1];
    let trip = ihi - ilo + 1;
    // Vector blocks start at absolute multiples of LANES: the scalar
    // head absorbs `ilo mod LANES` iterations, so shifted (peeled)
    // regions still produce aligned, reproducible block boundaries.
    let head = ((LANES as i64 - ilo.rem_euclid(LANES as i64)) % LANES as i64).min(trip);
    let vec_trip = ((trip - head) / LANES as i64) * (LANES as i64);
    let lows: Vec<i64> = region.bounds.iter().map(|&(lo, _)| lo).collect();
    // Linear offset of each pattern at the current outer point with the
    // inner variable pinned to `ilo`; the span runners add the inner
    // offset themselves (every innermost coefficient is 1).
    let mut cur: Vec<i64> = nest.pats.iter().map(|p| dot(&p.coeffs, &lows)).collect();
    // Outer-level odometer deltas: the inner level stays pinned at
    // `ilo`, so unlike exec_region_tape only deeper *outer* spans are
    // subtracted when a level increments.
    let outer = depth - 1;
    let deltas: Vec<Vec<i64>> = (0..outer)
        .map(|l| {
            nest.pats
                .iter()
                .map(|p| {
                    let mut d = p.coeffs[l];
                    for m in l + 1..outer {
                        d -= p.coeffs[m] * (region.bounds[m].1 - region.bounds[m].0);
                    }
                    d
                })
                .collect()
        })
        .collect();
    let mut stack = vec![0.0f64; nest.max_stack];
    let mut vstack = vec![[0.0f64; LANES]; nest.max_stack];
    let mut point = lows;
    'outer: loop {
        // SAFETY: forwarded from caller for every span below.
        unsafe { scalar_span(nest, &cur, 0, head, view, sink, &mut stack, counters) };
        let mut off = head;
        while off < head + vec_trip {
            // SAFETY: forwarded from caller.
            unsafe { vector_block(nest, &cur, off, view, sink, &mut vstack, counters) };
            off += LANES as i64;
        }
        // SAFETY: forwarded from caller.
        unsafe {
            scalar_span(
                nest,
                &cur,
                off,
                trip - off,
                view,
                sink,
                &mut stack,
                counters,
            )
        };
        for l in (0..outer).rev() {
            point[l] += 1;
            if point[l] <= region.bounds[l].1 {
                for (c, d) in cur.iter_mut().zip(&deltas[l]) {
                    *c += *d;
                }
                continue 'outer;
            }
            point[l] = region.bounds[l].0;
        }
        break;
    }
}

/// Scalar head/tail spans of the lane-blocked runner: executes `n`
/// consecutive inner iterations starting `off` slots past each
/// pattern's `cur` offset. One inner-loop stretch of
/// [`exec_region_tape`], specialized to lane-safe nests (no wrap
/// patterns, so the iteration point itself is never consulted).
///
/// # Safety
/// As [`exec_region_tape`], forwarded from [`exec_region_simd`].
#[allow(clippy::too_many_arguments)]
unsafe fn scalar_span<S: AccessSink>(
    nest: &NestTape,
    cur: &[i64],
    off: i64,
    n: i64,
    view: &MemView<'_>,
    sink: &mut S,
    stack: &mut [f64],
    counters: &mut ExecCounters,
) {
    let eb = nest.elem_bytes;
    for t in off..off + n {
        for st in &nest.stmts {
            let mut sp = 0usize;
            for op in &st.ops {
                match *op {
                    MicroOp::Const(c) => {
                        stack[sp] = c;
                        sp += 1;
                    }
                    MicroOp::Load(j) => {
                        let j = j as usize;
                        let pat = &nest.pats[j];
                        let var = cur[j] + t;
                        sink.access((pat.addr_base + var * eb) as u64, false);
                        // SAFETY: forwarded from caller.
                        stack[sp] = unsafe { view.read_slot((pat.slot_base + var) as usize) };
                        sp += 1;
                    }
                    MicroOp::Add => {
                        sp -= 1;
                        stack[sp - 1] += stack[sp];
                    }
                    MicroOp::Sub => {
                        sp -= 1;
                        stack[sp - 1] -= stack[sp];
                    }
                    MicroOp::Mul => {
                        sp -= 1;
                        stack[sp - 1] *= stack[sp];
                    }
                    MicroOp::Div => {
                        sp -= 1;
                        stack[sp - 1] /= stack[sp];
                    }
                    MicroOp::Min => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].min(stack[sp]);
                    }
                    MicroOp::Max => {
                        sp -= 1;
                        stack[sp - 1] = stack[sp - 1].max(stack[sp]);
                    }
                    MicroOp::Neg => stack[sp - 1] = -stack[sp - 1],
                    MicroOp::Abs => stack[sp - 1] = stack[sp - 1].abs(),
                    MicroOp::Sqrt => stack[sp - 1] = stack[sp - 1].sqrt(),
                    MicroOp::MulAdd => {
                        sp -= 2;
                        stack[sp - 1] = stack[sp - 1] * stack[sp] + stack[sp + 1];
                    }
                    MicroOp::AddMul => {
                        sp -= 2;
                        stack[sp - 1] += stack[sp] * stack[sp + 1];
                    }
                }
            }
            debug_assert_eq!(sp, 1, "statement tape must leave exactly one value");
            let j = st.store as usize;
            let pat = &nest.pats[j];
            let var = cur[j] + t;
            sink.access((pat.addr_base + var * eb) as u64, true);
            // SAFETY: forwarded from caller.
            unsafe { view.write_slot((pat.slot_base + var) as usize, stack[0]) };
            counters.flops += st.flops;
            counters.loads += st.loads;
            counters.stores += 1;
        }
        counters.iters += 1;
    }
}

/// One full-width vector block of the lane-blocked runner: `LANES`
/// consecutive inner iterations starting `off` slots past `cur`.
///
/// The compute loop walks each statement's micro-ops once over
/// `[f64; LANES]` stack slots; per-lane loops perform the identical
/// sequence of separately rounded `f64` operations the scalar runners
/// perform on each lane, and every statement loads all lanes before
/// storing any, so lane-safe nests (see [`NestTape::lane_safe`])
/// reproduce scalar results bit for bit.
///
/// # Safety
/// As [`exec_region_tape`], forwarded from [`exec_region_simd`].
unsafe fn vector_block<S: AccessSink>(
    nest: &NestTape,
    cur: &[i64],
    off: i64,
    view: &MemView<'_>,
    sink: &mut S,
    vstack: &mut [[f64; LANES]],
    counters: &mut ExecCounters,
) {
    // Replay the block's access stream in exact scalar order (iteration
    // → statement → RHS loads → store), so stateful sinks (cache
    // simulators) observe the same address sequence as the scalar
    // backends. The sink is the replay's only consumer; it is skipped
    // outright for sinks that do not observe (the optimizer keeps the
    // loop nest even when `access` is empty).
    if S::OBSERVES {
        let eb = nest.elem_bytes;
        for k in 0..LANES as i64 {
            for st in &nest.stmts {
                for op in &st.ops {
                    if let MicroOp::Load(j) = *op {
                        let pat = &nest.pats[j as usize];
                        let var = cur[j as usize] + off + k;
                        sink.access((pat.addr_base + var * eb) as u64, false);
                    }
                }
                let pat = &nest.pats[st.store as usize];
                let var = cur[st.store as usize] + off + k;
                sink.access((pat.addr_base + var * eb) as u64, true);
            }
        }
    }
    for st in &nest.stmts {
        let mut sp = 0usize;
        for op in &st.ops {
            match *op {
                MicroOp::Const(c) => {
                    vstack[sp] = [c; LANES];
                    sp += 1;
                }
                MicroOp::Load(j) => {
                    let j = j as usize;
                    let base = (nest.pats[j].slot_base + cur[j] + off) as usize;
                    let lane = &mut vstack[sp];
                    for (k, v) in lane.iter_mut().enumerate() {
                        // SAFETY: forwarded from caller.
                        *v = unsafe { view.read_slot(base + k) };
                    }
                    sp += 1;
                }
                MicroOp::Add => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] += b[k];
                    }
                }
                MicroOp::Sub => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] -= b[k];
                    }
                }
                MicroOp::Mul => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] *= b[k];
                    }
                }
                MicroOp::Div => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] /= b[k];
                    }
                }
                MicroOp::Min => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] = a[k].min(b[k]);
                    }
                }
                MicroOp::Max => {
                    sp -= 1;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for k in 0..LANES {
                        a[k] = a[k].max(b[k]);
                    }
                }
                MicroOp::Neg => {
                    for a in &mut vstack[sp - 1] {
                        *a = -*a;
                    }
                }
                MicroOp::Abs => {
                    for a in &mut vstack[sp - 1] {
                        *a = a.abs();
                    }
                }
                MicroOp::Sqrt => {
                    for a in &mut vstack[sp - 1] {
                        *a = a.sqrt();
                    }
                }
                MicroOp::MulAdd => {
                    sp -= 2;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let a = &mut lo[sp - 1];
                    // Two separately rounded operations per lane — never
                    // a hardware FMA (matches the scalar runners).
                    for k in 0..LANES {
                        a[k] = a[k] * hi[0][k] + hi[1][k];
                    }
                }
                MicroOp::AddMul => {
                    sp -= 2;
                    let (lo, hi) = vstack.split_at_mut(sp);
                    let a = &mut lo[sp - 1];
                    for k in 0..LANES {
                        a[k] += hi[0][k] * hi[1][k];
                    }
                }
            }
        }
        debug_assert_eq!(sp, 1, "statement tape must leave exactly one value");
        let j = st.store as usize;
        let base = (nest.pats[j].slot_base + cur[j] + off) as usize;
        for (k, v) in vstack[0].iter().enumerate() {
            // SAFETY: forwarded from caller.
            unsafe { view.write_slot(base + k, *v) };
        }
        counters.flops += st.flops * LANES as u64;
        counters.loads += st.loads * LANES as u64;
        counters.stores += LANES as u64;
    }
    counters.iters += LANES as u64;
    counters.vec_iters += LANES as u64;
}

#[inline]
fn dot(coeffs: &[i64], point: &[i64]) -> i64 {
    coeffs.iter().zip(point).map(|(&c, &p)| c * p).sum()
}
