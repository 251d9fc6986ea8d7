//! The per-layer sheet of a traced run. Every traced run reports every
//! layer: host seconds come from span self times, simulated-machine
//! counters from the full-detail rows' `SimStats`, which repeat exactly.

use std::collections::BTreeMap;

use dmdp_core::CommModel;
use dmdp_harness::JobResult;

use crate::common::{PassOut, Sheet, Tally};
use crate::daemon::DaemonLayers;
use crate::stats::{median, percentile, sampled_errors_pct};
use crate::trace::Tracer;

/// Everything a traced run measured.
pub struct Sources<'a> {
    /// The workload's own traced pass, repeated `primary_reps` times.
    pub primary: &'a Tracer,
    /// Traced passes run once: the workload's second path (the sampled
    /// matrix for `matrix-full`, the full reference for `sampled-full`,
    /// the one-job-at-a-time replay for `daemon-sweep`).
    pub secondary: &'a Tracer,
    /// Repetitions of the primary pass.
    pub primary_reps: usize,
    /// The functional-emulator pass and the instructions it retired.
    pub emu: &'a Tracer,
    /// See [`Sources::emu`].
    pub emu_insns: u64,
    /// Full-detail rows carrying `SimStats`.
    pub full: &'a [JobResult],
    /// The sampled pass.
    pub sampled: &'a PassOut,
    /// Daemon-path figures.
    pub daemon: &'a DaemonLayers,
    /// Pool width.
    pub width: usize,
    /// Traced over untraced wall of the primary pass.
    pub overhead_ratio: f64,
    /// Share of the work's wall the layer spans cover.
    pub coverage: f64,
    /// Whether a coverage below [`COVERAGE_FLOOR`] fails the run.
    pub coverage_checked: bool,
}

/// The share of the wall the layer spans must cover where coverage is
/// checked.
pub const COVERAGE_FLOOR: f64 = 0.9;

fn model_names() -> impl Iterator<Item = (CommModel, &'static str)> {
    CommModel::ALL.into_iter().map(|m| (m, m.name()))
}

/// Per-name self seconds: primary spans per repetition, falling back to
/// the once-run passes for names the primary pass does not record.
fn self_times(s: &Sources) -> BTreeMap<String, f64> {
    let reps = s.primary_reps.max(1) as f64;
    let mut out: BTreeMap<String, f64> = s.secondary.self_s();
    for (k, v) in s.primary.self_s() {
        out.insert(k, v / reps);
    }
    out
}

/// Pool busy and idle seconds per repetition of the tracer's passes:
/// busy is the time jobs ran inside `harness.pool` spans, idle the rest
/// of `width` workers' share of those spans.
fn pool(tr: &Tracer, width: usize, reps: f64) -> (f64, f64) {
    let spans = tr.spans();
    let pools: Vec<&crate::trace::Span> =
        spans.iter().filter(|s| s.name == "harness.pool").collect();
    let wall: f64 = pools
        .iter()
        .map(|p| (p.end_ns - p.start_ns) as f64 / 1e9)
        .sum();
    let busy: f64 = spans
        .iter()
        .filter(|s| pools.iter().any(|p| p.id == s.parent))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    (busy / reps, (wall * width as f64 - busy).max(0.0) / reps)
}

fn per_ki(num: u64, insns: u64) -> f64 {
    if insns == 0 {
        0.0
    } else {
        num as f64 * 1000.0 / insns as f64
    }
}

/// Appends every per-layer metric to `sheet`, and checks the coverage.
pub fn fill(sheet: &mut Sheet, tally: &mut Tally, s: &Sources) {
    let t = self_times(s);
    let time = |name: &str| t.get(name).copied().unwrap_or(0.0);
    let reps_note = format!("self time per pass, {} traced pass(es)", s.primary_reps);

    sheet.put("workloads.gen_s", time("workloads.gen"), "s", &reps_note);
    let emu_s: f64 = s.emu.total_s().values().sum();
    let emu_mips = if emu_s > 0.0 {
        s.emu_insns as f64 / emu_s / 1e6
    } else {
        0.0
    };
    sheet.put(
        "isa.emu_mips",
        emu_mips,
        "Minsn/s",
        format!("{} insns", s.emu_insns),
    );
    sheet.put("isa.oracle_s", time("isa.oracle"), "s", &reps_note);
    sheet.put("isa.profile_s", time("isa.profile"), "s", &reps_note);
    sheet.put("isa.capture_s", time("isa.capture"), "s", &reps_note);
    sheet.put(
        "isa.ckpt_bytes",
        s.sampled.ckpt_bytes as f64,
        "bytes",
        "distinct bundles",
    );
    sheet.put("plan.build_s", time("plan.build"), "s", &reps_note);

    // Host time per model, and per simulated event.
    let mut core_s = 0.0;
    for (_, name) in model_names() {
        let v = time(&format!("core.{name}"));
        core_s += v;
        sheet.put(&format!("core.host_s.{name}"), v, "s", &reps_note);
    }
    let cycles: u64 = s.full.iter().map(|r| r.cycles).sum();
    let uops: u64 = s.full.iter().map(|r| r.retired_uops).sum();
    let ns = |n: u64| if n == 0 { 0.0 } else { core_s * 1e9 / n as f64 };
    sheet.put(
        "core.ns_per_cycle",
        ns(cycles),
        "ns",
        format!("{cycles} cycles"),
    );
    sheet.put("core.ns_per_uop", ns(uops), "ns", format!("{uops} uops"));
    for (m, name) in model_names() {
        let c: u64 = s
            .full
            .iter()
            .filter(|r| r.model == m)
            .map(|r| r.cycles)
            .sum();
        sheet.put(
            &format!("core.cycles.{name}"),
            c as f64,
            "count",
            "simulated, exact",
        );
    }

    // Simulated-machine counters.
    let stats: Vec<(&JobResult, &dmdp_core::SimStats)> = s
        .full
        .iter()
        .filter_map(|r| r.stats.as_ref().map(|st| (r, st)))
        .collect();
    let insns_of = |m: Option<CommModel>| -> u64 {
        stats
            .iter()
            .filter(|(r, _)| m.is_none_or(|m| r.model == m))
            .map(|(_, st)| st.retired_insns)
            .sum()
    };
    let sum_of = |m: CommModel, f: &dyn Fn(&dmdp_core::SimStats) -> u64| -> u64 {
        stats
            .iter()
            .filter(|(r, _)| r.model == m)
            .map(|(_, st)| f(st))
            .sum()
    };
    let all_insns = insns_of(None);
    let l1: u64 = stats.iter().map(|(_, st)| st.mem.l1_misses).sum();
    let l2: u64 = stats.iter().map(|(_, st)| st.mem.l2_misses).sum();
    let note = format!("{} rows, all models", stats.len());
    sheet.put("mem.l1_mpki", per_ki(l1, all_insns), "mpki", &note);
    sheet.put("mem.l2_mpki", per_ki(l2, all_insns), "mpki", &note);
    for m in [CommModel::NoSq, CommModel::Dmdp] {
        let insns = insns_of(Some(m));
        let name = m.name();
        let mispred = sum_of(m, &|st| st.mem_dep_mispredicts);
        let stall = sum_of(m, &|st| st.reexec_stall_cycles);
        sheet.put(
            &format!("predict.memdep_mpki.{name}"),
            per_ki(mispred, insns),
            "mpki",
            "simulated, exact",
        );
        sheet.put(
            &format!("core.reexec_stall_per_ki.{name}"),
            per_ki(stall, insns),
            "cyc/ki",
            "simulated, exact",
        );
    }
    let pred = sum_of(CommModel::Dmdp, &|st| st.predication_uops);
    sheet.put(
        "core.predication_uops_per_ki.dmdp",
        per_ki(pred, insns_of(Some(CommModel::Dmdp))),
        "uops/ki",
        "simulated, exact",
    );

    // Batch engine, from the daemon path.
    let d = s.daemon;
    sheet.put(
        "batch.host_s",
        d.batch_host_s,
        "s",
        "multi-lane execute_batch units",
    );
    sheet.put(
        "batch.solo_host_s",
        d.batch_solo_s,
        "s",
        "the same jobs one by one",
    );
    sheet.put(
        "batch.derived_ratio",
        d.derived_ratio,
        "ratio",
        "derived lanes / lanes",
    );
    sheet.put(
        "batch.ff_cycle_ratio",
        d.ff_cycle_ratio,
        "ratio",
        "fast-forwarded / lane cycles",
    );

    // Sampling.
    sheet.put("sample.cluster_s", time("sample.cluster"), "s", &reps_note);
    sheet.put(
        "sample.ckpt_run_s",
        time("sample.ckpt_run"),
        "s",
        &reps_note,
    );
    let covered: u64 = s.sampled.rows.iter().map(|r| r.retired_insns).sum();
    let detailed = s.sampled.detail.warmup + s.sampled.detail.measured;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    sheet.put(
        "sample.detail_share",
        share(detailed, covered),
        "ratio",
        "detailed / whole-run insns",
    );
    sheet.put(
        "sample.warmup_share",
        share(s.sampled.detail.warmup, detailed),
        "ratio",
        "warmup / detailed insns",
    );
    for (m, name) in model_names() {
        let pairs: Vec<(f64, f64)> =
            s.sampled
                .rows
                .iter()
                .filter(|r| r.model == m)
                .filter_map(|r| {
                    let f = s.full.iter().find(|f| {
                        f.workload == r.workload && f.model == m && f.variant == r.variant
                    })?;
                    Some((r.ipc, f.ipc))
                })
                .collect();
        let max = if pairs.is_empty() {
            0.0
        } else {
            sampled_errors_pct(&pairs).0
        };
        sheet.put(
            &format!("sample.max_err_pct.{name}"),
            max,
            "%",
            format!("{} rows", pairs.len()),
        );
    }

    // Harness.
    let reps = s.primary_reps.max(1) as f64;
    let (busy, idle) = pool(s.primary, s.width, reps);
    sheet.put("harness.jobs_s", time("harness.jobs"), "s", &reps_note);
    sheet.put(
        "harness.pool_busy_s",
        busy,
        "s",
        format!("width {}", s.width),
    );
    sheet.put(
        "harness.pool_idle_s",
        idle,
        "s",
        format!("width {}", s.width),
    );
    let eff = if busy + idle > 0.0 {
        busy / (busy + idle)
    } else {
        0.0
    };
    sheet.put(
        "harness.pool_efficiency",
        eff,
        "ratio",
        "busy / (busy + idle)",
    );
    sheet.put("harness.json_s", time("harness.json"), "s", &reps_note);

    // Store and server.
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    sheet.put(
        "store.get_us_p50",
        med(&d.get_us),
        "us",
        format!("n={}", d.get_us.len()),
    );
    sheet.put(
        "store.put_us_p50",
        med(&d.put_us),
        "us",
        format!("n={}", d.put_us.len()),
    );
    sheet.put(
        "server.ping_ms_p50",
        med(&d.ping_ms),
        "ms",
        format!("n={}", d.ping_ms.len()),
    );
    sheet.put(
        "server.hit_p50_ms",
        med(&d.hit_ms),
        "ms",
        format!("n={} store-hit submits", d.hit_ms.len()),
    );
    let p90 = if d.hit_ms.is_empty() {
        0.0
    } else {
        percentile(&d.hit_ms, 90.0)
    };
    sheet.put(
        "server.hit_p90_ms",
        p90,
        "ms",
        format!("n={} store-hit submits", d.hit_ms.len()),
    );
    sheet.put(
        "server.hit_share",
        d.hit_share,
        "ratio",
        "store + dedup / answered jobs, one pass",
    );
    sheet.put(
        "server.partial_share",
        d.partial_share,
        "ratio",
        "requests both simulating and reading / requests, one pass",
    );
    sheet.put(
        "server.executed",
        d.executed,
        "count",
        "jobs the daemon simulated, one pass",
    );
    sheet.put(
        "server.cold_overhead_ratio",
        d.cold_overhead_ratio,
        "ratio",
        "daemon / in-process, cold requests",
    );

    // The trace itself.
    sheet.put(
        "trace.overhead_ratio",
        s.overhead_ratio,
        "ratio",
        "traced / untraced wall",
    );
    let floor = if s.coverage_checked {
        format!(", at least {COVERAGE_FLOOR} required")
    } else {
        String::new()
    };
    sheet.put(
        "trace.coverage",
        s.coverage,
        "ratio",
        format!("share of the wall layer spans cover{floor}"),
    );
    if s.coverage_checked {
        tally.check("trace coverage", s.coverage >= COVERAGE_FLOOR, || {
            format!(
                "layer spans cover {:.4} of the wall, below {COVERAGE_FLOOR}",
                s.coverage
            )
        });
    }
}
