//! The per-layer metrics of a traced run and the fixed data-plane kernels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use match_core::cache::CacheStats;
use match_core::fti::{diff, rs_code};
use match_core::mpisim::{Payload, RankStats};
use match_core::proxies::ProxyKind;
use match_core::recovery::RunReport;

use crate::redrive::JobTimes;
use crate::stats::median;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one traced round measured. Layers a workload does not touch stay
/// zero.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Σ of the span around `runner::run_single`, per application.
    pub cell_s: BTreeMap<&'static str, f64>,
    /// Σ of `ProxySpec::build`.
    pub build_s: f64,
    /// Σ over jobs of the busy time of the application body.
    pub app_s: f64,
    /// Σ over jobs of `Cluster::run` entry to the first rank entry.
    pub spawn_s: f64,
    /// Σ over jobs of the last rank exit to the return of `Cluster::run`.
    pub join_s: f64,
    /// Point-to-point sends.
    pub sends: u64,
    /// Point-to-point bytes sent.
    pub bytes_sent: u64,
    /// Collectives completed.
    pub collectives: u64,
    /// Host ns per rank per kernel iteration on `coop`, and on `par` with 1 and 2
    /// workers.
    pub ns_per_rank_iter: [f64; 3],
    /// Σ over jobs of driver time outside the application body.
    pub recovery_s: f64,
    /// Attempts, restarts and failure events.
    pub attempts: u64,
    /// Global restarts.
    pub restarts: u64,
    /// Injected failure events.
    pub failure_events: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint bytes written.
    pub ckpt_bytes: u64,
    /// Bytes the FTI stores received.
    pub store_bytes: u64,
    /// Σ of `DiskCache::store` (which encodes the entry).
    pub store_s: f64,
    /// Σ of `DiskCache::load` (which decodes the entry).
    pub load_s: f64,
    /// Persisted entries written or read.
    pub entries: u64,
    /// Their encoded size (`encode_entry`).
    pub bytes: u64,
    /// The engine's counters.
    pub engine: CacheStats,
    /// Host seconds of the untraced pass of the round.
    pub untraced_wall_s: f64,
    /// The untraced pass minus the traced cell and persist spans it contains.
    pub engine_self_s: f64,
    /// Host seconds of the traced pass of the round (the pass that records
    /// spans).
    pub traced_wall_s: f64,
    /// Explorer traces, distinct paths and dead ends.
    pub traces: u64,
    /// Distinct recovery paths reached, summed over designs.
    pub paths: u64,
    /// Traces whose run failed outright.
    pub dead_ends: u64,
    /// Probes (re-drives, recalls) compared against the program's own result.
    pub probes: u64,
    /// Probes that did not reproduce it bit for bit.
    pub mismatches: u64,
}

impl Layers {
    /// Adds the counters of a program-produced report.
    pub fn add_report(&mut self, report: &RunReport) {
        self.add_stats(&report.stats);
        self.attempts += report.attempts as u64;
        self.restarts += report.restarts as u64;
        self.failure_events += report.failure_events;
    }

    /// Adds the message, collective and checkpoint counters.
    pub fn add_stats(&mut self, stats: &RankStats) {
        self.sends += stats.sends;
        self.bytes_sent += stats.bytes_sent;
        self.collectives += stats.collectives;
        self.checkpoints += stats.checkpoints_written;
        self.ckpt_bytes += stats.checkpoint_bytes;
    }

    /// Adds the layer times of a re-driven job.
    pub fn add_times(&mut self, times: &JobTimes) {
        self.app_s += times.app_s;
        self.recovery_s += times.recovery_s;
        self.spawn_s += times.spawn_s;
        self.join_s += times.join_s;
    }

    /// Adds an engine's counters (of one more pass).
    pub fn add_engine(&mut self, stats: &CacheStats) {
        let e = &mut self.engine;
        e.hits += stats.hits;
        e.misses += stats.misses;
        e.entries += stats.entries;
        e.disk_hits += stats.disk_hits;
        e.disk_misses += stats.disk_misses;
        e.disk_writes += stats.disk_writes;
        e.disk_read_errors += stats.disk_read_errors;
    }

    /// Records one probe comparison.
    pub fn guard(&mut self, reproduced: bool) {
        self.probes += 1;
        if !reproduced {
            self.mismatches += 1;
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. `kernels` are the
    /// data-plane kernel timings.
    pub fn metrics(&self, kernels: &Kernels) -> Vec<Metric> {
        let mut out = Vec::new();
        for kind in ProxyKind::ALL {
            let v = self.cell_s.get(kind.name()).copied().unwrap_or(0.0);
            out.push(Metric::new(format!("cell_s.{}", kind.name()), v, "s"));
        }
        let count = |v: u64| v as f64;
        let e = &self.engine;
        let lookups = e.hits + e.misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            (e.hits + e.disk_hits) as f64 / lookups as f64
        };
        out.extend([
            Metric::new("proxies.build_s", self.build_s, "s"),
            Metric::new("proxies.app_s", self.app_s, "s"),
            Metric::new("mpisim.spawn_s", self.spawn_s, "s"),
            Metric::new("mpisim.join_s", self.join_s, "s"),
            Metric::new("mpisim.sends", count(self.sends), "count"),
            Metric::new("mpisim.bytes_sent", count(self.bytes_sent), "bytes"),
            Metric::new("mpisim.collectives", count(self.collectives), "count"),
            Metric::new("mpisim.ns_per_rank_iter", self.ns_per_rank_iter[0], "ns"),
            Metric::new(
                "mpisim.par1_ns_per_rank_iter",
                self.ns_per_rank_iter[1],
                "ns",
            ),
            Metric::new(
                "mpisim.par2_ns_per_rank_iter",
                self.ns_per_rank_iter[2],
                "ns",
            ),
            Metric::new("recovery.s", self.recovery_s, "s"),
            Metric::new("recovery.attempts", count(self.attempts), "count"),
            Metric::new("recovery.restarts", count(self.restarts), "count"),
            Metric::new(
                "recovery.failure_events",
                count(self.failure_events),
                "count",
            ),
            Metric::new("fti.checkpoints", count(self.checkpoints), "count"),
            Metric::new("fti.ckpt_bytes", count(self.ckpt_bytes), "bytes"),
            Metric::new("fti.store_bytes", count(self.store_bytes), "bytes"),
            Metric::new("fti.rs_encode_ns_per_mib", kernels.rs_encode, "ns/MiB"),
            Metric::new("fti.rs_decode_ns_per_mib", kernels.rs_decode, "ns/MiB"),
            Metric::new("fti.diff_ns_per_mib", kernels.diff, "ns/MiB"),
            Metric::new("persist.store_s", self.store_s, "s"),
            Metric::new("persist.load_s", self.load_s, "s"),
            Metric::new("persist.entries", count(self.entries), "count"),
            Metric::new("persist.bytes", count(self.bytes), "bytes"),
            Metric::new("engine.simulated", count(e.disk_misses), "count"),
            Metric::new("engine.mem_hits", count(e.hits), "count"),
            Metric::new("engine.disk_hits", count(e.disk_hits), "count"),
            Metric::new("engine.disk_writes", count(e.disk_writes), "count"),
            Metric::new(
                "engine.disk_read_errors",
                count(e.disk_read_errors),
                "count",
            ),
            Metric::new("engine.hit_ratio", hit_ratio, "ratio"),
            Metric::new("engine.self_s", self.engine_self_s, "s"),
            Metric::new("explorer.traces", count(self.traces), "count"),
            Metric::new("explorer.paths", count(self.paths), "count"),
            Metric::new("explorer.dead_ends", count(self.dead_ends), "count"),
            Metric::new(
                "explorer.paths_per_trace",
                if self.traces == 0 {
                    0.0
                } else {
                    self.paths as f64 / self.traces as f64
                },
                "ratio",
            ),
            Metric::new(
                "trace.overhead_s",
                self.traced_wall_s - self.untraced_wall_s,
                "s",
            ),
            Metric::new(
                "trace.valid",
                if self.mismatches == 0 { 1.0 } else { 0.0 },
                "bool",
            ),
        ]);
        out
    }
}

/// Element-wise median of the metric lists of several rounds (exact counters
/// repeat, so their median is their value).
pub fn median_metrics(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// Host ns per MiB of the FTI data-plane kernels on 1 MiB payloads: Reed–Solomon
/// encode (k = 4, m = 2), decode with two erased data shards, and a sparse
/// differential delta — the inputs of the `match-bench micro` kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    /// `rs_code::encode_payload`.
    pub rs_encode: f64,
    /// `rs_code::decode`.
    pub rs_decode: f64,
    /// `diff::compute_delta_cached`.
    pub diff: f64,
}

/// The median ns per call of `f` over batches of about a millisecond, sampled for
/// `budget`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let per_call = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((1e-3 / per_call) as u32).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    median(&samples)
}

/// A deterministic pseudo-random payload.
fn test_data(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

/// Times the three kernels, `budget` each. Returns `None` when a kernel fails
/// (its output is checked against the input).
pub fn time_kernels(budget: Duration) -> Option<Kernels> {
    const MIB: usize = 1 << 20;
    let (k, m) = (4usize, 2usize);
    let data = test_data(MIB);
    let payload: Payload = data.clone().into();
    let rs_encode = time_ns(budget, || {
        black_box(rs_code::encode_payload(black_box(&payload), k, m).unwrap());
    });

    let encoded = rs_code::encode(&data, k, m).ok()?;
    let mut shards: Vec<Option<Payload>> = encoded.shards.iter().cloned().map(Some).collect();
    shards[0] = None;
    shards[1] = None;
    let decoded = rs_code::decode(&shards, k, m, encoded.original_len).ok()?;
    if decoded.as_slice() != data.as_slice() {
        return None;
    }
    let rs_decode = time_ns(budget, || {
        black_box(rs_code::decode(black_box(&shards), k, m, encoded.original_len).unwrap());
    });

    let mut changed = data.clone();
    changed[12_345] ^= 0xFF;
    changed[999_999] ^= 0xFF;
    let block = 4096;
    let base_hashes = diff::block_hashes(&data, block);
    let new_payload: Payload = changed.into();
    let diff = time_ns(budget, || {
        black_box(diff::compute_delta_cached(
            black_box(&data),
            &base_hashes,
            &new_payload,
            block,
        ));
    });
    Some(Kernels {
        rs_encode,
        rs_decode,
        diff,
    })
}
