//! Seeded input generation. Everything the program under test sees —
//! array initialisation, job lists, program shapes — comes from here
//! and from the `--seed` argument alone.

use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan};
use sp_ir::LoopSequence;
use sp_kernels::{calc, jacobi, ll18, tomcatv};
use sp_serve::JobSpec;

/// Processors every parallel plan runs on.
pub const PROCS: usize = 2;
/// Strip size of the strip-mined fused plans.
pub const STRIP: i64 = 8;
/// Extent of the serve_warm programs.
pub const WARM_N: usize = 32;
/// The ROADMAP kernels the stencil workload runs.
pub const KERNELS: [&str; 4] = ["jacobi", "ll18", "tomcatv", "calc"];

/// SplitMix64.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The kernel sequence named `name` at extent `n`.
pub fn kernel(name: &str, n: usize) -> LoopSequence {
    match name {
        "jacobi" => jacobi::sequence(n),
        "ll18" => ll18::sequence(n),
        "tomcatv" => tomcatv::sequence(n),
        "calc" => calc::sequence(n),
        other => panic!("unknown kernel {other}"),
    }
}

/// Original-program iteration points of one timestep of `seq`.
pub fn points(seq: &LoopSequence) -> u64 {
    seq.nests.iter().map(|n| n.trip_count() as u64).sum()
}

/// A fused plan over the benchmark's processor row.
pub fn fused_plan(strip: i64) -> ExecPlan {
    ExecPlan::Fused {
        grid: vec![PROCS],
        method: CodegenMethod::StripMined,
        strip,
    }
}

/// The unfused plan: the original nests blocked over the same row.
pub fn unfused_plan() -> ExecPlan {
    ExecPlan::Blocked { grid: vec![PROCS] }
}

/// One generated job and what the benchmark knows about it.
#[derive(Clone)]
pub struct Job {
    /// What is submitted.
    pub spec: JobSpec,
    /// Kernel the job runs (`jacobi`, `ll18`, ...).
    pub program: &'static str,
    /// Iteration points per timestep.
    pub points: u64,
    /// Fused plan (otherwise unfused).
    pub fused: bool,
}

fn job(program: &'static str, seq: LoopSequence, plan: ExecPlan, init: u64) -> Job {
    let fused = matches!(plan, ExecPlan::Fused { .. });
    let points = points(&seq);
    let name = seq.name.clone();
    Job {
        spec: JobSpec::new(name, seq, plan)
            .backend(Backend::Simd)
            .seed(init),
        program,
        points,
        fused,
    }
}

/// The eight serve_warm programs: each ROADMAP kernel at [`WARM_N`],
/// fused and unfused. Array contents come from `seed`.
pub fn warm_jobs(seed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    for k in KERNELS {
        for fused in [true, false] {
            let plan = if fused {
                fused_plan(STRIP)
            } else {
                unfused_plan()
            };
            out.push(job(k, kernel(k, WARM_N), plan, seed));
        }
    }
    out
}

/// The order in which a serve_warm tenant draws from [`warm_jobs`].
pub struct WarmOrder(Rng);

impl WarmOrder {
    /// The draw order of `tenant` under `seed`.
    pub fn new(seed: u64, tenant: u64) -> WarmOrder {
        WarmOrder(Rng::new(seed, 0x5741_524D ^ tenant))
    }

    /// Index of the next job.
    pub fn next(&mut self) -> usize {
        self.0.below(2 * KERNELS.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_exec::{Executor, Memory, PooledExecutor, Program, RunConfig};

    fn keys(jobs: &[Job]) -> Vec<u64> {
        jobs.iter().map(|j| j.spec.cache_key().0).collect()
    }

    fn draws(seed: u64, tenant: u64, n: usize) -> Vec<usize> {
        let mut w = WarmOrder::new(seed, tenant);
        (0..n).map(|_| w.next()).collect()
    }

    #[test]
    fn same_seed_same_jobs_and_arrays() {
        let (a, b) = (warm_jobs(7), warm_jobs(7));
        assert_eq!(keys(&a), keys(&b));
        assert!(a.iter().zip(&b).all(|(x, y)| x.spec.seed == y.spec.seed));
        assert_eq!(draws(7, 1, 500), draws(7, 1, 500));
        let seq = kernel("ll18", 24);
        let mut m1 = Memory::new(&seq, sp_cache::LayoutStrategy::Contiguous);
        let mut m2 = m1.clone();
        m1.init_deterministic(&seq, 7);
        m2.init_deterministic(&seq, 7);
        assert_eq!(m1.data, m2.data);
    }

    #[test]
    fn different_seed_different_jobs() {
        assert_ne!(draws(7, 0, 100), draws(8, 0, 100));
        assert_ne!(draws(7, 0, 100), draws(7, 1, 100), "tenants share a stream");
        assert!(warm_jobs(7)
            .iter()
            .zip(&warm_jobs(8))
            .all(|(x, y)| x.spec.seed != y.spec.seed));
    }

    #[test]
    fn warm_has_eight_keys() {
        let mut warm = keys(&warm_jobs(3));
        warm.sort_unstable();
        warm.dedup();
        assert_eq!(warm.len(), 8);
    }

    #[test]
    fn warm_programs_fuse_on_two_procs() {
        let mut ex = PooledExecutor::new(PROCS);
        for k in KERNELS {
            let seq = kernel(k, WARM_N);
            let prog = Program::new(&seq, 1).expect("analysis");
            let mut mem = Memory::new(&seq, sp_cache::LayoutStrategy::Contiguous);
            let cfg = RunConfig::from_plan(fused_plan(STRIP)).backend(Backend::Simd);
            ex.run(&prog, &mut mem, &cfg)
                .unwrap_or_else(|e| panic!("{k}: {e}"));
        }
    }
}
