//! Substrate bench: synthetic packet generation, windowing, the libpcap
//! codec at capture rates — and the window-ingest fast-path report.
//!
//! Before the criterion benches run, this binary times each ingest
//! fast path against the reference it replaced (serial sort compaction
//! vs the radix kernel, uncached CryptoPAN vs the memoized prefix table)
//! and writes the comparison — plus the month matrix build, sustained
//! `telescope::stream` throughput rows at several worker counts and the
//! out-of-core fold's cost with its per-level merge timings — as
//! `BENCH_ingest.json` (schema `obscor.bench.ingest.v6`, path override
//! `OBSCOR_BENCH_INGEST_OUT`) — the before/after record DESIGN.md
//! §12/§15/§16/§17 and CI's bench-smoke step point at.
//!
//! v4 added a top-level `host_cpus` field so the streaming
//! worker-scaling rows can be read against the parallelism the box
//! actually had (DESIGN.md §15); v5 a top-level `month_matrix_build_ns`,
//! the `MonthMatrix` build at the honeyfarm's full-space shape.
//!
//! v6 retires the four set-overlap rows whose baselines (string and
//! sorted-vector key sets, pairwise month walks) left the code base:
//! the compressed bitmaps are the only set-overlap engine now.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use obscor_anonymize::{CryptoPan, MemoCryptoPan};
use obscor_assoc::{BitSet, MonthMatrix};
use obscor_bench::fixture;
use obscor_hypersparse::{Coo, Index};
use obscor_netmodel::{PacketStream, TrafficConfig};
use obscor_pcap::{AcceptAll, ConstantPacketWindower, PcapReader, PcapWriter};
use obscor_telescope::{capture_window, matrix, IngestConfig, IngestService};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

const INGEST_KEY: [u8; 32] = [0x5Au8; 32];
const INGEST_REPS: usize = 3;

/// One before/after row of the ingest report.
struct Comparison {
    name: &'static str,
    baseline_ns: u64,
    fast_ns: u64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / (self.fast_ns.max(1)) as f64
    }
}

/// One sustained-throughput row of the streaming section.
struct StreamingRow {
    workers: usize,
    queue_depth: usize,
    window_packets: usize,
    median_ns: u64,
    packets_per_sec: f64,
}

/// Accumulated merge timing of one carry level of the out-of-core fold.
struct SpillLevelRow {
    level: usize,
    calls: u64,
    total_ns: u64,
}

/// Median of `reps` timed runs of `f` (wall-clock, via the obs stopwatch).
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut times: Vec<u64> = (0..reps)
        .map(|_| {
            let (out, ns) = obscor_obs::time_fn(&mut f);
            black_box(out);
            ns
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Time the ingest fast paths against their oracles and write the report.
fn ingest_report(n_v: usize, seed: u64) {
    let f = fixture(n_v, seed);
    let w = capture_window(&f.scenario, &f.scenario.caida_windows[0]);

    // 1. Triple compaction: serial sort-and-dedup vs the radix kernel.
    let triples: Vec<(Index, Index, u64)> =
        w.window.packets.iter().map(|p| (p.src.0, p.dst.0, 1u64)).collect();
    let proto = Coo::from_triples(triples);
    let compaction = Comparison {
        name: "compaction_serial_vs_radix",
        baseline_ns: median_ns(INGEST_REPS, || proto.clone().into_csr_serial()),
        fast_ns: median_ns(INGEST_REPS, || proto.clone().into_csr()),
    };

    // 2. CryptoPAN: 32-AES scalar vs the 16-AES prefix-table path,
    //    scalar and batched, on the window's source addresses (with the
    //    natural duplicate structure of real ingest).
    let addrs: Vec<u32> = w.window.packets.iter().map(|p| p.src.0).collect();
    let uncached = CryptoPan::new(&INGEST_KEY);
    let (memo, table_build_ns) = obscor_obs::time_fn(|| MemoCryptoPan::new(&INGEST_KEY));
    let scalar_baseline_ns = median_ns(INGEST_REPS, || {
        addrs.iter().map(|&a| u64::from(uncached.anonymize(a))).sum::<u64>()
    });
    let cryptopan_scalar = Comparison {
        name: "cryptopan_uncached_vs_memo_scalar",
        baseline_ns: scalar_baseline_ns,
        fast_ns: median_ns(INGEST_REPS, || {
            addrs.iter().map(|&a| u64::from(memo.anonymize(a))).sum::<u64>()
        }),
    };
    let cryptopan_batched = Comparison {
        name: "cryptopan_uncached_vs_memo_batched",
        baseline_ns: scalar_baseline_ns,
        fast_ns: median_ns(INGEST_REPS, || {
            let mut out = addrs.clone();
            memo.anonymize_slice(&mut out);
            out
        }),
    };

    // 3. End-to-end anonymized matrix build, uncached vs memoized.
    let matrix_build = Comparison {
        name: "anonymized_matrix_uncached_vs_memo",
        baseline_ns: median_ns(INGEST_REPS, || matrix::build_anonymized_matrix(&w, &uncached)),
        fast_ns: median_ns(INGEST_REPS, || matrix::build_anonymized_matrix_memo(&w, &memo)),
    };

    // 4. The month matrix build, at the honeyfarm's shape: fifteen
    //     months of 7k–33k uniform keys over the whole u32 space (the
    //     background rows of `honeyfarm::monthly`), so most of the 65,536
    //     chunks are occupied and chunk count, not key count, drives the
    //     cost.
    let mut farm_rng = StdRng::seed_from_u64(seed ^ 0xfa53);
    let farm_months: Vec<BitSet> = (0..15usize)
        .map(|m| {
            let n = 7_012 + m * (33_306 - 7_012) / 14;
            BitSet::from_iter((0..n).map(|_| farm_rng.random::<u32>()))
        })
        .collect();
    let month_matrix_build_ns =
        median_ns(INGEST_REPS, || MonthMatrix::from_bit_sets(&farm_months));

    let comparisons = [
        compaction,
        cryptopan_scalar,
        cryptopan_batched,
        matrix_build,
    ];

    // 5. Sustained streaming throughput: the same captured window pushed
    //    through the `telescope::stream` service at several worker
    //    counts, as packets/sec over the median wall-clock of a full
    //    window (push → shard → compact → fold → snapshot → drain).
    let coords: Vec<(u32, u32)> =
        w.window.packets.iter().map(|p| (p.src.0, p.dst.0)).collect();
    let streaming: Vec<StreamingRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let cfg = IngestConfig::new(workers, coords.len());
            let median = median_ns(INGEST_REPS, || {
                let mut svc = IngestService::new(cfg.clone());
                svc.push_pairs(&coords);
                let (snaps, drain) = svc.finish();
                assert!(drain.is_exact(), "bench drain must be exact");
                snaps
            });
            StreamingRow {
                workers,
                queue_depth: cfg.queue_depth,
                window_packets: coords.len(),
                median_ns: median,
                packets_per_sec: coords.len() as f64 * 1e9 / median.max(1) as f64,
            }
        })
        .collect();

    // 6. Out-of-core fold (DESIGN.md §16): the same window built through
    //    the spill scheduler under a zero budget (every carry evicted to
    //    a real temp directory — the fully out-of-core worst case)
    //    against the plain in-memory build, with the per-level merge
    //    timings every spilling fold records.
    let ooc_baseline_ns = median_ns(INGEST_REPS, || matrix::build_matrix(&w));
    let mut spill_stats = obscor_hypersparse::AccumulatorStats::default();
    let before = obscor_obs::snapshot();
    let ooc_spilled_ns = median_ns(INGEST_REPS, || {
        let (m, report) = matrix::build_matrix_spilled(&w, Some(0), None);
        let report = report.expect("temp spill dir");
        assert!(report.is_exact(), "bench spill fold must be exact");
        spill_stats = report.stats;
        m
    });
    let spill_delta = obscor_obs::snapshot().delta_since(&before);
    let mut spill_levels: Vec<SpillLevelRow> = spill_delta
        .counters
        .iter()
        .filter_map(|(name, &calls)| {
            let level = name
                .strip_prefix("span.hypersparse.spill.merge.level")?
                .strip_suffix(".calls_total")?;
            let ns = spill_delta
                .histograms
                .get(&format!("span.hypersparse.spill.merge.level{level}.ns"))?;
            Some(SpillLevelRow { level: level.parse().ok()?, calls, total_ns: ns.sum })
        })
        .collect();
    spill_levels.sort_by_key(|r| r.level);
    let out_of_core = Comparison {
        name: "window_fold_in_memory_vs_spilled",
        baseline_ns: ooc_baseline_ns,
        fast_ns: ooc_spilled_ns,
    };

    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!("\n=== WINDOW INGEST FAST PATH (N_V = {n_v}, host_cpus = {host_cpus}) ===");
    eprintln!("memo_table_build {table_build_ns} ns");
    eprintln!("month_matrix_build {month_matrix_build_ns} ns");
    for c in &comparisons {
        eprintln!(
            "{:<38} baseline {:>12} ns  fast {:>12} ns  speedup {:>7.2}x",
            c.name,
            c.baseline_ns,
            c.fast_ns,
            c.speedup()
        );
    }
    for r in &streaming {
        eprintln!(
            "streaming workers={} depth={}            median {:>12} ns  {:>12.0} packets/sec",
            r.workers, r.queue_depth, r.median_ns, r.packets_per_sec
        );
    }
    eprintln!(
        "{:<38} baseline {:>12} ns  fast {:>12} ns  speedup {:>7.2}x",
        out_of_core.name,
        out_of_core.baseline_ns,
        out_of_core.fast_ns,
        out_of_core.speedup()
    );
    for r in &spill_levels {
        eprintln!(
            "spill merge level{}                      calls {:>12}      {:>12} ns total",
            r.level, r.calls, r.total_ns
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"obscor.bench.ingest.v6\",\n");
    json.push_str(&format!("  \"n_v\": {n_v},\n"));
    json.push_str(&format!("  \"reps\": {INGEST_REPS},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"memo_table_build_ns\": {table_build_ns},\n"));
    json.push_str(&format!("  \"month_matrix_build_ns\": {month_matrix_build_ns},\n"));
    json.push_str("  \"comparisons\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ns\": {}, \"fast_ns\": {}, \"speedup\": {:.3}}}{}\n",
            c.name,
            c.baseline_ns,
            c.fast_ns,
            c.speedup(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming\": [\n");
    for (i, r) in streaming.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"queue_depth\": {}, \"window_packets\": {}, \"median_ns\": {}, \"packets_per_sec\": {:.0}}}{}\n",
            r.workers,
            r.queue_depth,
            r.window_packets,
            r.median_ns,
            r.packets_per_sec,
            if i + 1 < streaming.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"out_of_core\": {\n");
    json.push_str("    \"budget\": 0,\n");
    json.push_str(&format!(
        "    \"in_memory_ns\": {}, \"spilled_ns\": {}, \"relative_cost\": {:.3},\n",
        out_of_core.baseline_ns,
        out_of_core.fast_ns,
        out_of_core.fast_ns as f64 / out_of_core.baseline_ns.max(1) as f64
    ));
    json.push_str(&format!(
        "    \"evictions\": {}, \"reloads\": {}, \"peak_live_bytes\": {},\n",
        spill_stats.evictions, spill_stats.reloads, spill_stats.peak_live_bytes
    ));
    json.push_str("    \"merge_levels\": [\n");
    for (i, r) in spill_levels.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"level\": {}, \"calls\": {}, \"total_ns\": {}}}{}\n",
            r.level,
            r.calls,
            r.total_ns,
            if i + 1 < spill_levels.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    let out = std::env::var("OBSCOR_BENCH_INGEST_OUT")
        .unwrap_or_else(|_| "BENCH_ingest.json".to_string());
    std::fs::write(&out, &json).expect("write ingest fast-path report");
    eprintln!("ingest report -> {out}");
}

fn bench(c: &mut Criterion) {
    let f = fixture(1 << 16, 42);
    let scenario = &f.scenario;

    ingest_report(1 << 16, 42);

    let mut g = c.benchmark_group("window_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(scenario.n_v as u64));

    g.bench_function("packet_generation_raw", |b| {
        b.iter(|| {
            let rng = StdRng::seed_from_u64(1);
            let stream = PacketStream::at_instant(
                &scenario.population,
                7.0,
                TrafficConfig::default(),
                0,
                rng,
            );
            let count = stream.take(scenario.n_v).count();
            black_box(count)
        })
    });

    g.bench_function("windower", |b| {
        b.iter(|| {
            let rng = StdRng::seed_from_u64(1);
            let stream = PacketStream::at_instant(
                &scenario.population,
                7.0,
                TrafficConfig::default(),
                0,
                rng,
            );
            let mut w = ConstantPacketWindower::new(stream, AcceptAll, scenario.n_v);
            black_box(w.next())
        })
    });

    g.bench_function("capture_window_end_to_end", |b| {
        b.iter(|| black_box(capture_window(scenario, &scenario.caida_windows[0])))
    });

    let w = capture_window(scenario, &scenario.caida_windows[0]);
    g.bench_function("pcap_write", |b| {
        b.iter(|| {
            let mut writer = PcapWriter::new();
            for p in &w.window.packets {
                writer.write_packet(p);
            }
            black_box(writer.into_bytes())
        })
    });
    let bytes = {
        let mut writer = PcapWriter::new();
        for p in &w.window.packets {
            writer.write_packet(p);
        }
        writer.into_bytes()
    };
    g.bench_function("pcap_parse_and_verify_checksums", |b| {
        b.iter(|| black_box(PcapReader::new(&bytes).unwrap().read_all().unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
