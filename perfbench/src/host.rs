//! Host fingerprint: what machine a result came from, and how fast its
//! memory streams.

use crate::stats::{median, num};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Elements per STREAM array: 3 x 128 MiB, larger than every cache level
/// this benchmark has been run on.
const STREAM_LEN: usize = 1 << 24;
const STREAM_REPS: usize = 5;

/// One JSON object describing the host: processor count and model, the
/// cache hierarchy of cpu0, STREAM-triad bandwidth at 1 and 2 threads,
/// and whether hardware performance counters are exposed.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| {
            std::fs::read_to_string(Path::new(&dir).join(f))
                .map(|s| s.trim().to_string())
                .ok()
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        caches.push(format!(
            "{{\"level\": {level}, \"type\": \"{kind}\", \"size\": \"{size}\"}}"
        ));
    }
    let perf = Path::new("/sys/bus/event_source/devices/cpu").exists();
    let (one, two) = (stream_triad_gbs(1), stream_triad_gbs(2));
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"caches\": [{}], \
\"stream_triad_gbs_1t\": {}, \"stream_triad_gbs_2t\": {}, \"hw_perf_events\": {perf}}}",
        model.replace('"', "'"),
        caches.join(", "),
        num(one),
        num(two)
    );
    s
}

/// STREAM triad `a = b + s*c` over arrays far larger than cache, split
/// across `threads` threads; median GB/s over the repetitions, counting
/// 24 bytes moved per element as STREAM does.
pub fn stream_triad_gbs(threads: usize) -> f64 {
    let mut a = vec![0.0f64; STREAM_LEN];
    let b = vec![1.5f64; STREAM_LEN];
    let c = vec![0.25f64; STREAM_LEN];
    let chunk = STREAM_LEN.div_ceil(threads);
    let mut rates = Vec::with_capacity(STREAM_REPS);
    for rep in 0..=STREAM_REPS {
        let s = black_box(3.0);
        let t = Instant::now();
        std::thread::scope(|sc| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        black_box(&a);
        // Repetition 0 faults the pages in and is not counted.
        if rep > 0 {
            rates.push(24.0 * STREAM_LEN as f64 / secs / 1e9);
        }
    }
    median(&rates)
}

/// Processor time of the whole machine, in clock ticks summed over
/// processors: all of it, and the part the hypervisor gave to other
/// guests (`steal` in `/proc/stat`). Zero where that file is missing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ticks {
    /// Every tick.
    pub total: u64,
    /// Stolen ticks.
    pub steal: u64,
}

impl Ticks {
    /// The counters now.
    pub fn now() -> Ticks {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        Ticks {
            // user nice system idle iowait irq softirq steal; the guest
            // fields after them are already counted in user and nice.
            total: v.iter().take(8).sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            total: self.total.saturating_sub(earlier.total),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }

    /// Adds `other`.
    pub fn add(self, other: Ticks) -> Ticks {
        Ticks {
            total: self.total + other.total,
            steal: self.steal + other.steal,
        }
    }

    /// Stolen share of the ticks.
    pub fn steal_fraction(&self) -> f64 {
        crate::stats::ratio(self.steal as f64, self.total as f64)
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
