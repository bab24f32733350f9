//! `serve_warm`: an in-process `NetServer` on loopback in front of a
//! two-worker `Service`, driven by two tenants in a closed loop, one
//! connection and one thread each. `interactive` sends one job at a
//! time by digest; `batch` sends batches of [`BATCH`] with
//! `Client::submit_pipelined` at window [`WINDOW`]. Both draw from
//! eight fixed programs that an untimed warmup compiles.

use crate::gen::{self, Job, WarmOrder, KERNELS, PROCS};
use crate::host::Ticks;
use crate::layers::{self, LayerTimes, Manual, PASSES};
use crate::spans::{Spans, LANE_BATCH, LANE_INTERACTIVE, LANE_MAIN};
use crate::stats::{median, nearest_rank, quiet, ratio, tail, trimmed_mean, Sheet};
use crate::{Opts, Outcome};
use shift_peel_core::PlanConfig;
use sp_cache::{CacheConfig, LayoutStrategy};
use sp_exec::{PooledExecutor, Program, RunReport};
use sp_net::{Client, ClientConfig, NetJobResult, NetServer, NetServerStats};
use sp_serve::{
    ArtifactCacheConfig, CacheCounters, CacheOutcome, JobSpec, Service, ServiceConfig, StageStats,
};
use sp_trace::JobStage;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs per pipelined batch.
const BATCH: usize = 64;
/// In-flight window of the batch tenant.
const WINDOW: usize = 4;
/// Server set-ups per run; `setup_s` is their trimmed mean.
const SETUPS: usize = 50;
/// Share of the set-ups dropped from each end before averaging.
const SETUP_TRIM: f64 = 0.1;
/// Chunks of an untraced run's window.
const CHUNKS: usize = 20;
/// Jobs each tenant runs on the measured server before `peak_rss_mb` is
/// read, so the figure does not depend on how many jobs the timed
/// window completes.
const RSS_JOBS: usize = 16 * BATCH;
/// Timed steps of each hand-written kernel in the traced run.
const MANUAL_REPS: usize = 21;
/// Tenant ids; a tenant's index is its thread lane and draw stream.
const TENANTS: [&str; 2] = ["interactive", "batch"];

/// A served job as the client saw it, kept by the traced run only.
struct Detail {
    tenant: usize,
    /// Index into the warm programs.
    program: usize,
    rt_ns: u64,
    queued_nanos: u64,
    run_nanos: u64,
    cache: CacheOutcome,
    report: RunReport,
}

/// What the jobs of one stretch of a run came to. Only the interactive
/// round trips and, in the traced run, [`Detail`]s grow with the jobs.
#[derive(Default)]
struct Tally {
    /// Jobs that completed.
    ok: u64,
    /// Jobs that returned an error.
    errors: u64,
    /// Iteration points of completed fused and unfused jobs.
    fused_points: u64,
    unfused_points: u64,
    /// Round trips of the interactive tenant's completed jobs, ms.
    rt_ms: Vec<f64>,
    /// Completed jobs per (warm program, digest served).
    digests: BTreeMap<(usize, u64), u64>,
    first_error: Option<String>,
    detail: Vec<Detail>,
}

impl Tally {
    fn record(
        &mut self,
        t: usize,
        program: usize,
        j: &Job,
        rt_ns: u64,
        res: Result<NetJobResult, String>,
        keep: bool,
    ) {
        let x = match res {
            Ok(x) => x,
            Err(e) => {
                self.errors += 1;
                self.first_error.get_or_insert(e);
                return;
            }
        };
        self.ok += 1;
        if j.fused {
            self.fused_points += j.points;
        } else {
            self.unfused_points += j.points;
        }
        if t == 0 {
            self.rt_ms.push(rt_ns as f64 / 1e6);
        }
        *self.digests.entry((program, x.digest)).or_default() += 1;
        if keep {
            self.detail.push(Detail {
                tenant: t,
                program,
                rt_ns,
                queued_nanos: x.queued_nanos,
                run_nanos: x.run_nanos,
                cache: x.cache,
                report: x.report,
            });
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.ok += o.ok;
        self.errors += o.errors;
        self.fused_points += o.fused_points;
        self.unfused_points += o.unfused_points;
        self.rt_ms.extend(o.rt_ms);
        for (k, n) in o.digests {
            *self.digests.entry(k).or_default() += n;
        }
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        self.detail.extend(o.detail);
    }
}

/// A running server and its two tenants' connections.
struct Server {
    service: Arc<Service>,
    net: NetServer,
    clients: Vec<Client>,
}

/// Counters that move during the timed window.
struct Snapshot {
    cache: CacheCounters,
    stages: StageStats,
    net: NetServerStats,
}

impl Server {
    fn start(traced: bool) -> Result<Server, String> {
        let mut cfg = ServiceConfig::default()
            .workers(PROCS)
            .cache(ArtifactCacheConfig::memory(64));
        if traced {
            cfg = cfg.traced();
        }
        let service = Arc::new(Service::new(cfg));
        let net = NetServer::start("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("server: {e}"))?;
        let addr = net.addr().to_string();
        let clients = TENANTS
            .iter()
            .map(|t| Client::connect(&addr, ClientConfig::default().tenant(*t)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Server {
            service,
            net,
            clients,
        })
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            cache: self.service.cache_counters(),
            stages: self.service.stage_stats(),
            net: self.net.stats(),
        }
    }

    fn stop(self) {
        drop(self.clients);
        self.net.shutdown();
        drop(self.service);
    }
}

/// Starts a server and warms it: each tenant submits the eight programs
/// in its own discipline (the interactive tenant's submissions compile
/// them).
fn set_up(traced: bool, warm: &[Job]) -> Result<Server, String> {
    let mut s = Server::start(traced)?;
    let specs: Vec<JobSpec> = warm.iter().map(|j| j.spec.clone()).collect();
    let warmup = |j: &JobSpec, r: Result<NetJobResult, sp_net::NetError>| {
        r.map(drop).map_err(|e| format!("warmup {}: {e}", j.name))
    };
    for j in &specs {
        warmup(j, s.clients[0].submit(j))?;
    }
    for (j, r) in specs
        .iter()
        .zip(s.clients[1].submit_pipelined(&specs, WINDOW))
    {
        warmup(j, r)?;
    }
    Ok(s)
}

/// Runs tenant `t` until `deadline` or until it has sent `max_jobs`
/// jobs, whichever comes first. `tag` keeps span ids apart across calls.
fn tenant(
    t: usize,
    tag: u64,
    client: &mut Client,
    order: &mut WarmOrder,
    warm: &[Job],
    (deadline, max_jobs): (Instant, usize),
    spans: &Spans,
) -> Tally {
    let mut tally = Tally::default();
    let keep = spans.enabled();
    let mut sent = 0;
    while sent < max_jobs && Instant::now() < deadline {
        let id = (t as u64) << 48 | tag << 32 | sent as u64;
        if t == 0 {
            let i = order.next();
            let (res, secs) = spans.time("net.Client::submit", LANE_INTERACTIVE, id, None, || {
                client.submit_by_digest(&warm[i].spec)
            });
            let res = res.map_err(|e| e.to_string());
            tally.record(t, i, &warm[i], (secs * 1e9) as u64, res, keep);
            sent += 1;
        } else {
            let batch: Vec<usize> = (0..BATCH).map(|_| order.next()).collect();
            let specs: Vec<JobSpec> = batch.iter().map(|&i| warm[i].spec.clone()).collect();
            let (results, secs) =
                spans.time("net.Client::submit_pipelined", LANE_BATCH, id, None, || {
                    client.submit_pipelined(&specs, WINDOW)
                });
            for (&i, res) in batch.iter().zip(results) {
                let res = res.map_err(|e| e.to_string());
                tally.record(t, i, &warm[i], (secs * 1e9) as u64, res, keep);
            }
            sent += BATCH;
        }
    }
    tally
}

/// Runs both tenants against `server` concurrently; merges their tallies.
fn both_tenants(
    server: &mut Server,
    orders: &mut [WarmOrder],
    warm: &[Job],
    tag: u64,
    stop: (Instant, usize),
    spans: &Spans,
) -> Tally {
    std::thread::scope(|sc| {
        let handles: Vec<_> = server
            .clients
            .iter_mut()
            .zip(orders.iter_mut())
            .enumerate()
            .map(|(t, (c, o))| sc.spawn(move || tenant(t, tag, c, o, warm, stop, spans)))
            .collect();
        let mut all = Tally::default();
        for h in handles {
            all.absorb(h.join().expect("tenant thread panicked"));
        }
        all
    })
}

/// Runs the workload.
pub fn run(opts: &Opts, spans: &Spans) -> Result<Outcome, String> {
    let warm = gen::warm_jobs(opts.seed);
    let mut orders: Vec<WarmOrder> = (0..TENANTS.len())
        .map(|t| WarmOrder::new(opts.seed, t as u64))
        .collect();

    // Set-up, repeated; the last server is the one measured.
    let mut setup_secs = Vec::new();
    let mut servers = Vec::new();
    for i in 0..SETUPS {
        let t0 = if i == 0 { opts.started } else { Instant::now() };
        let s = set_up(false, &warm)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if let Some(old) = servers.pop() {
            Server::stop(old);
        }
        servers.push(s);
    }

    // A fixed number of jobs, then the memory high-water mark. The
    // deadline only guards against a stalled server.
    let far = Instant::now() + Duration::from_secs(60);
    let mut total = both_tenants(
        &mut servers[0],
        &mut orders,
        &warm,
        0,
        (far, RSS_JOBS),
        spans,
    );
    let peak_rss = crate::host::peak_rss_mb();

    if opts.trace {
        servers.push(set_up(true, &warm)?);
    }
    let before: Vec<Snapshot> = servers.iter().map(Server::snapshot).collect();

    // The timed window, in chunks. The traced run alternates the
    // untraced and the traced server.
    let chunks: Vec<(usize, f64)> = if opts.trace {
        (0..8).map(|c| (c % 2, opts.seconds / 8.0)).collect()
    } else {
        (0..CHUNKS)
            .map(|_| (0, opts.seconds / CHUNKS as f64))
            .collect()
    };
    let mut tallies = Vec::new();
    let mut durations = Vec::new();
    let mut ticks = Vec::new();
    for (chunk, &(srv, secs)) in chunks.iter().enumerate() {
        let ticks0 = Ticks::now();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(secs);
        let tag = chunk as u64 + 1;
        let stop = (deadline, usize::MAX);
        tallies.push(both_tenants(
            &mut servers[srv],
            &mut orders,
            &warm,
            tag,
            stop,
            spans,
        ));
        durations.push(t0.elapsed().as_secs_f64());
        ticks.push(Ticks::now().since(ticks0));
    }
    let after: Vec<Snapshot> = servers.iter().map(Server::snapshot).collect();
    let session = servers.get(1).and_then(|s| s.service.session_trace());
    for s in servers {
        s.stop();
    }

    // End-to-end numbers come from the untraced server's chunks during
    // which the hypervisor stole the least processor time.
    let mut counted = vec![false; chunks.len()];
    for srv in 0..2 {
        let mine: Vec<usize> = (0..chunks.len()).filter(|&c| chunks[c].0 == srv).collect();
        let steal: Vec<f64> = mine.iter().map(|&c| ticks[c].steal_fraction()).collect();
        for (&c, q) in mine.iter().zip(quiet(&steal)) {
            counted[c] = q;
        }
    }
    let mut sheet = Sheet::default();
    sheet.set("peak_rss_mb", peak_rss, "MiB");
    let all_ticks = ticks.iter().fold(Ticks::default(), |t, x| t.add(*x));
    sheet.set("host.steal_pct", 100.0 * all_ticks.steal_fraction(), "%");
    let (chunks, counted) = (&chunks, &counted);
    let quiet_of =
        |srv: usize| (0..chunks.len()).filter(move |&c| chunks[c].0 == srv && counted[c]);
    // `f` summed over `srv`'s quiet chunks, per second of their time.
    let rate = |srv: usize, f: &dyn Fn(&Tally) -> u64| {
        let sum: u64 = quiet_of(srv).map(|c| f(&tallies[c])).sum();
        ratio(sum as f64, quiet_of(srv).map(|c| durations[c]).sum())
    };
    let jobs_per_s = |srv: usize| rate(srv, &|t| t.ok);
    sheet.set("jobs_per_s", jobs_per_s(0), "1/s");
    sheet.set("fused_points_per_s", rate(0, &|t| t.fused_points), "1/s");
    sheet.set(
        "unfused_points_per_s",
        rate(0, &|t| t.unfused_points),
        "1/s",
    );
    let rt: Vec<f64> = quiet_of(0)
        .flat_map(|c| tallies[c].rt_ms.iter().copied())
        .collect();
    println!(
        "{}",
        crate::stats::describe("interactive round trip ms", &rt)
    );
    sheet.set("job_ms_p50", median(&rt), "ms");
    let p99 = tail(&rt, 99.0).unwrap_or_else(|| {
        eprintln!(
            "only {} interactive jobs: p99 has fewer than 10 beyond it",
            rt.len()
        );
        nearest_rank(&rt, 99.0)
    });
    sheet.set("job_ms_p99", p99, "ms");
    sheet.set("e2e.job_samples", rt.len() as f64, "count");
    sheet.set("setup_s", trimmed_mean(&setup_secs, SETUP_TRIM), "s");
    if opts.trace {
        sheet.set(
            "trace.overhead_pct",
            100.0 * ratio(jobs_per_s(0) - jobs_per_s(1), jobs_per_s(0)),
            "%",
        );
        if let Some(session) = &session {
            sp_trace::validate_chrome_trace(&session.chrome_json())
                .map_err(|e| format!("session trace: {e}"))?;
            stage_metrics(&mut sheet, session);
        }
        let untraced: Vec<&Detail> = (0..chunks.len())
            .filter(|&c| chunks[c].0 == 0)
            .flat_map(|c| &tallies[c].detail)
            .collect();
        layer_metrics(
            &mut sheet,
            opts,
            spans,
            &untraced,
            (&before[0], &after[0]),
            &warm,
        )?;
    }

    // Correctness, off the clock.
    for t in tallies {
        total.absorb(t);
    }
    if let Some(e) = &total.first_error {
        eprintln!("first failed job: {e}");
    }
    let wrong = mismatches(&total.digests, &warm)?;
    Ok(Outcome {
        sheet,
        attempted: total.ok + total.errors,
        failed: total.errors + wrong,
    })
}

/// Served jobs whose digest differs from an in-process `Service` run of
/// the same spec.
fn mismatches(digests: &BTreeMap<(usize, u64), u64>, warm: &[Job]) -> Result<u64, String> {
    let reference = Service::new(
        ServiceConfig::default()
            .workers(PROCS)
            .cache(ArtifactCacheConfig::memory(64)),
    );
    let ids: Vec<_> = warm
        .iter()
        .map(|j| reference.submit(j.spec.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference submit: {e}"))?;
    let mut want = Vec::with_capacity(ids.len());
    for id in ids {
        want.push(
            reference
                .wait(id)
                .map_err(|e| format!("reference: {e}"))?
                .digest,
        );
    }
    Ok(digests
        .iter()
        .filter(|((i, d), _)| *d != want[*i])
        .map(|(_, n)| n)
        .sum())
}

/// Per-stage medians of the traced server's job spans.
fn stage_metrics(sheet: &mut Sheet, session: &sp_trace::SessionTrace) {
    let stages = [
        ("serve.stage_us.queue_wait", JobStage::QueueWait),
        ("serve.stage_us.cache_lookup", JobStage::CacheLookup),
        ("serve.stage_us.analysis", JobStage::Analysis),
        ("serve.stage_us.plan", JobStage::Plan),
        ("serve.stage_us.lower", JobStage::Lower),
        ("serve.stage_us.execute", JobStage::Execute),
        ("serve.stage_us.respond", JobStage::Respond),
        ("net.stage_us.decode", JobStage::Decode),
        ("net.stage_us.respond_wire", JobStage::RespondWire),
    ];
    for (name, stage) in stages {
        let us: Vec<f64> = session
            .jobs
            .iter()
            .filter_map(|j| j.stage_dur(stage))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        sheet.set(name, median(&us), "us");
    }
}

/// The per-layer metrics of a traced serve run, from the untraced
/// server's jobs and counters.
fn layer_metrics(
    sheet: &mut Sheet,
    opts: &Opts,
    spans: &Spans,
    ok: &[&Detail],
    (before, after): (&Snapshot, &Snapshot),
    warm: &[Job],
) -> Result<(), String> {
    let jobs = ok.len() as f64;
    let us = |ns: u64| ns as f64 / 1e3;

    // sp-serve.
    let queued: Vec<f64> = ok.iter().map(|x| us(x.queued_nanos)).collect();
    sheet.set("serve.queue_wait_us.p50", median(&queued), "us");
    let q99 = tail(&queued, 99.0).unwrap_or_else(|| nearest_rank(&queued, 99.0));
    sheet.set("serve.queue_wait_us.p99", q99, "us");
    let run: Vec<f64> = ok.iter().map(|x| us(x.run_nanos)).collect();
    sheet.set("serve.run_us", median(&run), "us");
    let delta = |f: &dyn Fn(&Snapshot) -> u64| (f(after) - f(before)) as f64;
    let hits = ok.iter().filter(|x| x.cache != CacheOutcome::Miss).count() as f64;
    sheet.set("serve.cache_hit_ratio", ratio(hits, jobs), "ratio");
    // A job skips dependence analysis on a full cache hit or an
    // analysis-tier hit.
    let analysis_hits = delta(&|s| s.cache.analysis_hits);
    sheet.set(
        "serve.analysis_hit_ratio",
        ratio(hits + analysis_hits, jobs),
        "ratio",
    );
    sheet.set(
        "serve.cache_evictions",
        1e3 * ratio(delta(&|s| s.cache.evictions), jobs),
        "1/1000jobs",
    );

    // sp-net.
    let overhead: Vec<f64> = ok
        .iter()
        .filter(|x| x.tenant == 0)
        .map(|x| us(x.rt_ns.saturating_sub(x.queued_nanos + x.run_nanos)))
        .collect();
    sheet.set("net.client_overhead_us", median(&overhead), "us");
    let text = delta(&|s| s.net.programs_registered);
    let by_digest = delta(&|s| s.net.digest_hits);
    sheet.set(
        "net.text_frame_ratio",
        ratio(text, text + by_digest),
        "ratio",
    );
    sheet.set(
        "net.registry_evictions",
        1e3 * ratio(delta(&|s| s.net.programs_evicted), jobs),
        "1/1000jobs",
    );
    sheet.set(
        "net.retries",
        delta(&|s| s.stages.rejected + s.stages.quota),
        "count",
    );
    sheet.set("net.dedupe_hits", delta(&|s| s.net.dedupe_hits), "count");

    // sp-exec as the served jobs ran it.
    let step_ms = |x: &Detail| x.report.exec_nanos as f64 / 1e6 / x.report.steps.max(1) as f64;
    let mut ex = PooledExecutor::new(PROCS);
    for k in KERNELS {
        let of = |fused: bool| {
            ok.iter()
                .filter(move |x| warm[x.program].program == k && warm[x.program].fused == fused)
        };
        let ms = |fused: bool| of(fused).map(|x| step_ms(x)).collect::<Vec<f64>>();
        sheet.set(format!("exec.fused_step_ms.{k}"), median(&ms(true)), "ms");
        sheet.set(
            format!("exec.unfused_step_ms.{k}"),
            median(&ms(false)),
            "ms",
        );
        // Both plans run the same program at the same extent, so the
        // ratio of step times is the ratio of time per point.
        sheet.set(
            format!("exec.fusion_speedup.{k}"),
            ratio(median(&ms(false)), median(&ms(true))),
            "ratio",
        );
        // The hand-written kernels at the extent the served jobs ran.
        if let Some(mut m) = Manual::new(k, gen::WARM_N, opts.seed) {
            let mut manual = |fused: bool| {
                let t: Vec<f64> = (0..MANUAL_REPS)
                    .map(|_| m.step(spans, fused, 0, None) * 1e3)
                    .collect();
                median(&t)
            };
            let (mf, mu) = (manual(true), manual(false));
            sheet.set(format!("manual.fused_step_ms.{k}"), mf, "ms");
            sheet.set(format!("manual.unfused_step_ms.{k}"), mu, "ms");
            let over = ratio(median(&ms(true)), mf);
            sheet.set(format!("exec.tape_over_manual.{k}"), over, "ratio");
        }
    }
    let units: Vec<Vec<(&RunReport, f64)>> = ok
        .iter()
        .filter(|x| warm[x.program].fused)
        .map(|x| vec![(&x.report, x.report.exec_nanos as f64 / 1e9)])
        .collect();
    layers::exec_counters(sheet, &units, opts.stream_gbs);
    let incache = layers::incache_points_per_s(spans, &mut ex, opts.seed)?;
    sheet.set("exec.incache_points_per_s", incache, "1/s");
    sheet.set(
        "cache.partition_speedup",
        partition_speedup(spans, &mut ex, opts.seed)?,
        "ratio",
    );

    // The compile path, replayed off the clock on the served programs.
    let mut times: Vec<LayerTimes> = Vec::new();
    for (i, j) in warm.iter().cycle().take(5 * warm.len()).enumerate() {
        let text = sp_ir::display::render_sequence(&j.spec.seq);
        let root = spans.begin("replay", LANE_MAIN, i as u64, None);
        let b = layers::build(
            spans,
            &text,
            j.spec.plan_config(),
            j.spec.seed,
            LayoutStrategy::Contiguous,
            (LANE_MAIN, i as u64, root),
        )?;
        spans.end(root);
        times.push(b.times);
    }
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    sheet.set("ir.parse_us", med(&|t| t.parse * 1e6), "us");
    sheet.set("core.plan_us", med(&|t| t.plan * 1e6), "us");
    for (i, p) in PASSES.iter().enumerate() {
        sheet.set(
            format!("core.pass_us.{p}"),
            med(&|t| t.passes[i] * 1e6),
            "us",
        );
    }
    sheet.set("exec.lower_us", med(&|t| t.lower * 1e6), "us");
    sheet.set("exec.mem_init_ms", med(&|t| t.mem * 1e3), "ms");
    sheet.set("exec.tape_ops", med(&|t| t.tape_ops as f64), "count");
    Ok(())
}

/// Geometric mean over the four kernels at the serve_warm extent of
/// contiguous over cache-partitioned fused step time.
fn partition_speedup(spans: &Spans, ex: &mut PooledExecutor, seed: u64) -> Result<f64, String> {
    const REPS: usize = 50;
    let mut logs = Vec::new();
    for k in KERNELS {
        let text = sp_ir::display::render_sequence(&gen::kernel(k, gen::WARM_N));
        let mut per_layout = Vec::new();
        for layout in [
            LayoutStrategy::Contiguous,
            LayoutStrategy::CachePartition(CacheConfig::new(2 << 20, 64, 1)),
        ] {
            let b = layers::build(
                spans,
                &text,
                PlanConfig::fused(1),
                seed,
                layout,
                (LANE_MAIN, 0, None),
            )?;
            per_layout.push(b);
        }
        let progs: Vec<Program<'_>> = per_layout
            .iter()
            .map(|b| Program::from_analysis(&b.seq, (*b.planned.deps).clone(), 1))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("program: {e}"))?;
        let cfgs: Vec<_> = per_layout
            .iter()
            .zip(&progs)
            .map(|(b, p)| layers::configs(&b.planned, &b.tape, p).map(|c| c.0))
            .collect::<Result<_, _>>()?;
        let mut mems: Vec<_> = per_layout.iter().map(|b| b.mem.clone()).collect();
        let mut secs = [Vec::new(), Vec::new()];
        for _ in 0..REPS {
            for (i, mem) in mems.iter_mut().enumerate() {
                let ids = (LANE_MAIN, 0, None);
                secs[i].push(layers::step(spans, ex, &progs[i], mem, &cfgs[i], ids)?.1);
            }
        }
        logs.push((median(&secs[0]) / median(&secs[1])).ln());
    }
    Ok((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}
