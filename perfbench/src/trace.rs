//! Metric catalogues, codec and storage layer figures, and the trace
//! artifact.
//!
//! Every workload prints the same metric names in the same order as
//! `BENCHMARK.json`. A per-layer metric that a workload never exercises
//! (election and catch-up outside `failover`) reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use spinnaker_common::codec::{Decode, Encode};
use spinnaker_common::crc32c;
use spinnaker_storage::StoreStats;

use crate::stats::ratio;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_ops_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("get_strong_p50_ms", "ms"),
    ("get_strong_p99_ms", "ms"),
    ("get_timeline_p50_ms", "ms"),
    ("get_timeline_p99_ms", "ms"),
    ("put_p50_ms", "ms"),
    ("put_p99_ms", "ms"),
    ("scan_p50_ms", "ms"),
    ("scan_p99_ms", "ms"),
    ("unavailable_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("trace.host_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.kernel_self_us_per_op", "us"),
    ("sim.events_per_op", "count"),
    ("sim.net_msgs_per_op", "count"),
    ("wal.writes_per_force", "count"),
    ("session.host_us_per_op", "us"),
    ("session.retries_per_op", "count"),
    ("session.redirects.not_leader", "count"),
    ("session.redirects.unavailable", "count"),
    ("session.redirects.wrong_range", "count"),
    ("session.timeouts", "count"),
    ("node.client_read_us", "us"),
    ("node.client_scan_us", "us"),
    ("node.client_write_us", "us"),
    ("node.propose_us", "us"),
    ("node.ack_us", "us"),
    ("node.commit_us", "us"),
    ("node.sync_done_us", "us"),
    ("node.maintenance_ms", "ms"),
    ("node.restart_ms", "ms"),
    ("election.leader_gap_ms", "ms"),
    ("replica.catchup_ms", "ms"),
    ("replica.follower_lag_lsn", "count"),
    ("storage.block_reads_per_get", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.bloom_fp_ratio", "ratio"),
    ("storage.span_skip_ratio", "ratio"),
    ("storage.write_amp", "ratio"),
    ("storage.compactions", "count"),
    ("storage.tables", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("crc32c.mib_per_s", "MiB/s"),
];

/// Values gathered by a workload, keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The catalogue's metrics with their units, unset ones reading 0.
    pub fn list(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        for name in self.0.keys() {
            assert!(catalogue.iter().any(|(n, _)| n == name), "metric {name} is not catalogued");
        }
        catalogue.iter().map(|&(n, u)| (n, self.0.get(n).copied().unwrap_or(0.0), u)).collect()
    }
}

/// Storage counts over a window, from store statistics before and after
/// it: `user_bytes` is the value bytes written (once per replica),
/// `tables` the live tables at the end.
pub fn storage_layers(
    v: &mut Values,
    (a, b): &(StoreStats, StoreStats),
    user_bytes: f64,
    tables: usize,
) {
    let d = |f: fn(&StoreStats) -> u64| (f(b) - f(a)) as f64;
    v.set("storage.block_reads_per_get", ratio(d(|s| s.block_reads), d(|s| s.point_gets)));
    let hits = d(|s| s.cache_hits);
    v.set("storage.cache_hit_ratio", ratio(hits, hits + d(|s| s.cache_misses)));
    let fp = d(|s| s.bloom_false_positives);
    v.set("storage.bloom_fp_ratio", ratio(fp, fp + d(|s| s.bloom_negatives)));
    let skips = d(|s| s.span_skips);
    let probes = skips + d(|s| s.bloom_negatives) + d(|s| s.bloom_true_positives) + fp;
    v.set("storage.span_skip_ratio", ratio(skips, probes));
    v.set("storage.write_amp", ratio(d(|s| s.bytes_compacted), user_bytes));
    v.set("storage.compactions", d(|s| s.compactions));
    v.set("storage.tables", tables as f64);
}

/// Host cost of the codec and of crc32c on `samples`, the workload's own
/// messages: sets `codec.encode_ns`, `codec.decode_ns` (per message)
/// and `crc32c.mib_per_s` (over the encoded bytes).
pub fn codec_layers<T: Encode + Decode>(v: &mut Values, samples: &[T]) {
    if samples.is_empty() {
        return;
    }
    let reps = 200;
    let n = (reps * samples.len()) as f64;
    let t0 = Instant::now();
    let mut encoded = Vec::new();
    for _ in 0..reps {
        encoded = samples.iter().map(|m| black_box(m).encode_to_vec()).collect();
    }
    v.set("codec.encode_ns", t0.elapsed().as_secs_f64() * 1e9 / n);
    let t0 = Instant::now();
    for _ in 0..reps {
        for bytes in &encoded {
            let decoded = T::decode(&mut black_box(bytes.as_slice()));
            assert!(decoded.is_ok(), "an encoded message must decode");
        }
    }
    v.set("codec.decode_ns", t0.elapsed().as_secs_f64() * 1e9 / n);
    let total: usize = encoded.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let mut acc = 0u32;
    for _ in 0..reps {
        for bytes in &encoded {
            acc ^= crc32c::crc32c(black_box(bytes));
        }
    }
    black_box(acc);
    let mib = (total * reps) as f64 / f64::from(1 << 20);
    v.set("crc32c.mib_per_s", mib / t0.elapsed().as_secs_f64());
}

/// Write the traced run's actor times and metrics to
/// `.bench_trace/<workload>-seed<seed>.tsv`: one `total` line per timed
/// actor class `(name, count, total µs)` with its mean, then one `metric`
/// line per metric.
pub fn write_artifact(workload: &str, seed: u64, totals: &[(&str, u64, f64)], values: &Values) {
    let mut out = String::from("# total\tname\tcount\ttotal_us\tmean_us\n");
    for &(name, count, total) in totals {
        let mean = total / count.max(1) as f64;
        let _ = writeln!(out, "total\t{name}\t{count}\t{total:.3}\t{mean:.3}");
    }
    for (name, value) in &values.0 {
        let _ = writeln!(out, "metric\t{name}\t{value}");
    }
    let dir = std::path::Path::new(".bench_trace");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{workload}-seed{seed}.tsv")), out));
    if let Err(e) = written {
        eprintln!("perfbench: trace artifact not written: {e}");
    }
}
