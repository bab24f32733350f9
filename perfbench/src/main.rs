//! The repository's benchmark: two seeded workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from a traced run.
//! See `perfbench/README.md`.
//!
//! ```text
//! perfbench host
//! perfbench run --workload <stencil_2048|serve_warm> --seed <n>
//!               --seconds <s> --trace <0|1> [--stream-gbs <x>]
//! ```
//!
//! `run` prints one line per metric, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits
//! non-zero without that line when the workload cannot run at all.

mod gen;
mod host;
mod layers;
mod serve;
mod spans;
mod stats;
mod stencil;

use spans::Spans;
use stats::Sheet;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("fused_points_per_s", "1/s"),
    ("unfused_points_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
];

/// The per-layer metrics every traced run prints. A layer a workload
/// does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 59] = [
    ("host.stream_gbs", "GB/s"),
    ("host.steal_pct", "%"),
    ("exec.fused_step_ms.jacobi", "ms"),
    ("exec.fused_step_ms.ll18", "ms"),
    ("exec.fused_step_ms.tomcatv", "ms"),
    ("exec.fused_step_ms.calc", "ms"),
    ("exec.unfused_step_ms.jacobi", "ms"),
    ("exec.unfused_step_ms.ll18", "ms"),
    ("exec.unfused_step_ms.tomcatv", "ms"),
    ("exec.unfused_step_ms.calc", "ms"),
    ("exec.fusion_speedup.jacobi", "ratio"),
    ("exec.fusion_speedup.ll18", "ratio"),
    ("exec.fusion_speedup.tomcatv", "ratio"),
    ("exec.fusion_speedup.calc", "ratio"),
    ("exec.busy_ms", "ms"),
    ("exec.peeled_ms", "ms"),
    ("exec.barrier_wait_ms", "ms"),
    ("exec.time_imbalance", "ratio"),
    ("exec.vec_fraction", "ratio"),
    ("exec.achieved_gbs", "GB/s"),
    ("exec.roofline_fraction", "ratio"),
    ("exec.incache_points_per_s", "1/s"),
    ("exec.lower_us", "us"),
    ("exec.tape_ops", "count"),
    ("exec.mem_init_ms", "ms"),
    ("manual.fused_step_ms.jacobi", "ms"),
    ("manual.fused_step_ms.ll18", "ms"),
    ("manual.unfused_step_ms.jacobi", "ms"),
    ("manual.unfused_step_ms.ll18", "ms"),
    ("exec.tape_over_manual.jacobi", "ratio"),
    ("exec.tape_over_manual.ll18", "ratio"),
    ("cache.partition_speedup", "ratio"),
    ("ir.parse_us", "us"),
    ("core.plan_us", "us"),
    ("core.pass_us.dependence", "us"),
    ("core.pass_us.plan", "us"),
    ("core.pass_us.legality", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.run_us", "us"),
    ("serve.stage_us.queue_wait", "us"),
    ("serve.stage_us.cache_lookup", "us"),
    ("serve.stage_us.analysis", "us"),
    ("serve.stage_us.plan", "us"),
    ("serve.stage_us.lower", "us"),
    ("serve.stage_us.execute", "us"),
    ("serve.stage_us.respond", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.analysis_hit_ratio", "ratio"),
    ("serve.cache_evictions", "1/1000jobs"),
    ("net.stage_us.decode", "us"),
    ("net.stage_us.respond_wire", "us"),
    ("net.client_overhead_us", "us"),
    ("net.text_frame_ratio", "ratio"),
    ("net.registry_evictions", "1/1000jobs"),
    ("net.retries", "count"),
    ("net.dedupe_hits", "count"),
    ("trace.overhead_pct", "%"),
    ("e2e.job_samples", "count"),
];

const WORKLOADS: [&str; 2] = ["stencil_2048", "serve_warm"];

/// Where the traced run writes its Chrome trace, relative to the
/// repository root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Command-line options of `run`.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Host STREAM-triad bandwidth at the benchmark's thread count.
    pub stream_gbs: f64,
    /// Process start.
    pub started: Instant,
}

/// What a workload measured.
pub struct Outcome {
    /// Every metric it computed.
    pub sheet: Sheet,
    /// Operations attempted (steps, jobs, reference checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
}

fn parse(args: &[String], started: Instant) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        stream_gbs: 0.0,
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => o.trace = val == "1",
            "--stream-gbs" => o.stream_gbs = val.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("host") => println!("{}", host::fingerprint()),
        Some("run") => match parse(&args[1..], started).and_then(|o| run(&o)) {
            Ok(()) => {}
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        },
        _ => {
            eprintln!("usage: perfbench host | perfbench run --workload W --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let spans = Spans::new(opts.trace);
    let root = spans.begin(&opts.workload, spans::LANE_MAIN, 0, None);
    let out = match opts.workload.as_str() {
        "stencil_2048" => stencil::run(opts, &spans)?,
        _ => serve::run(opts, &spans)?,
    };
    spans.end(root);
    let Outcome {
        mut sheet,
        attempted,
        failed,
    } = out;
    sheet.set(
        "success_rate",
        stats::ratio((attempted - failed) as f64, attempted as f64),
        "ratio",
    );
    for (name, unit) in END_TO_END {
        if sheet.get(name).is_none() {
            return Err(format!("workload did not measure {name} ({unit})"));
        }
    }
    if opts.trace {
        sheet.set("host.stream_gbs", opts.stream_gbs, "GB/s");
        for (name, unit) in PER_LAYER {
            if sheet.get(name).is_none() {
                sheet.set(name, 0.0, unit);
            }
        }
        let json = spans.chrome_json();
        sp_trace::validate_chrome_trace(&json).map_err(|e| format!("benchmark trace: {e}"))?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}-{}.json", opts.workload, opts.seed);
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("trace: {path}");
    }
    print!("{}", sheet.render());
    let keep: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    sheet.retain(&keep);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        sheet.json()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric lists here and in `BENCHMARK.json` must not drift apart.
    #[test]
    fn benchmark_json_names_every_metric_once() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(json.matches(&entry).count(), 1, "{name}");
        }
        let metrics = json.matches("\"unit\": ").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
    }
}
