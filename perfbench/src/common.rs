//! Pieces every workload shares: the correctness tally, run context,
//! traced re-implementations of the harness's job paths, and the metric
//! sheet printed at the end.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dmdp_core::{CommModel, CoreConfig, Pipeline, PlanCache, Simulator, SIM_VERSION};
use dmdp_harness::{CampaignSpec, JobResult, JobSpec, Json, PlannedImage, Sampling, SamplingSpec};
use dmdp_isa::Emulator;
use dmdp_sample::{IntervalMeasurement, SampledBundle};
use dmdp_workloads::Scale;

use crate::trace::{span, Tracer};

/// Emulator step budget for the retired-instruction check.
const EMU_STEPS: u64 = 20_000_000_000;

/// Counts operations and the ones that failed or gave a wrong answer.
/// An operation is one job, request or submit (or one step of the run
/// such as a daemon start); every check names the operation it belongs
/// to, and an operation fails if any of its checks does, so one wrong
/// row fails its whole request. Every mismatch is printed; none is
/// skipped.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operation → whether any of its checks failed.
    ops: BTreeMap<String, bool>,
}

impl Tally {
    /// Records one check of operation `op`; prints `what` when it failed.
    pub fn check(&mut self, op: &str, ok: bool, what: impl FnOnce() -> String) {
        let failed = self.ops.entry(op.to_string()).or_insert(false);
        if !ok {
            *failed = true;
            // On both streams: a harness that keeps only the tail of
            // stderr still sees why the run was not correct.
            let line = format!("MISMATCH: {op}: {}", what());
            println!("{line}");
            eprintln!("{line}");
        }
    }

    /// Records a fallible step of operation `op`, printing its error.
    pub fn ok<T>(&mut self, op: &str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(op, true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(op, false, || e);
                None
            }
        }
    }

    /// Adds the operations of `other`; one failed in either stays failed.
    pub fn merge(&mut self, other: Tally) {
        for (op, failed) in other.ops {
            *self.ops.entry(op).or_insert(false) |= failed;
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that failed or disagreed with their reference.
    pub fn failed(&self) -> u64 {
        self.ops.values().filter(|&&f| f).count() as u64
    }

    /// Share of operations that succeeded and were correct.
    pub fn success_rate(&self) -> f64 {
        if self.ops.is_empty() {
            0.0
        } else {
            1.0 - self.failed() as f64 / self.attempted() as f64
        }
    }
}

/// The identity of a result row: equal keys mean the same simulation
/// outcome (sampled rows carry the recombined estimate).
pub fn row_key(r: &JobResult) -> (String, u64, u64, u64) {
    (r.digest.clone(), r.cycles, r.retired_insns, r.retired_uops)
}

/// Compares two row sets position by position, as checks of `op`.
pub fn check_rows(t: &mut Tally, op: &str, label: &str, got: &[JobResult], want: &[JobResult]) {
    t.check(op, got.len() == want.len(), || {
        format!("{label}: {} rows, expected {}", got.len(), want.len())
    });
    for (g, w) in got.iter().zip(want) {
        t.check(op, row_key(g) == row_key(w), || {
            format!(
                "{label}: {} × {} [{}]: {:?} != {:?}",
                g.workload,
                g.model.name(),
                g.variant,
                row_key(g),
                row_key(w)
            )
        });
    }
}

/// Retired instructions of each kernel under the functional emulator.
pub fn emulated_insns(
    tr: Option<&Tracer>,
    scale: Scale,
    kernels: &[&str],
) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for w in dmdp_workloads::all(scale) {
        if kernels.is_empty() || kernels.contains(&w.name) {
            let r = span(tr, "isa.emu", 0, |_| {
                Emulator::new(&w.program).run(EMU_STEPS)
            })
            .map_err(|e| format!("{}: emulation failed: {e}", w.name))?;
            out.insert(w.name.to_string(), r.retired);
        }
    }
    Ok(out)
}

/// Checks every row's retired instructions against the emulator, as
/// checks of `op`.
pub fn check_retired(t: &mut Tally, op: &str, rows: &[JobResult], emu: &BTreeMap<String, u64>) {
    for r in rows {
        let want = emu.get(&r.workload).copied();
        t.check(op, want == Some(r.retired_insns), || {
            format!(
                "{} × {} [{}]: retired {} but the emulator retires {want:?}",
                r.workload,
                r.model.name(),
                r.variant,
                r.retired_insns
            )
        });
    }
}

/// Peak resident set of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pool and client width: `min(2, available cores)`.
pub fn width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Host speed: a fixed 64M-step xorshift64 loop, in mega-ops/s.
pub fn calibrate_mops() -> f64 {
    let n = 1u64 << 26;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let start = Instant::now();
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    n as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// The commit of the checkout, when it is a git work tree.
pub fn commit() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Run context: not metrics, but what makes records from different hosts
/// comparable.
pub fn context() -> Json {
    Json::Obj(vec![
        ("calib_mops".into(), Json::Num(calibrate_mops())),
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("width".into(), Json::Num(width() as f64)),
        ("commit".into(), Json::Str(commit())),
        ("sim_version".into(), Json::Str(SIM_VERSION.to_string())),
    ])
}

/// Where run records, traces and temporary stores go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `path` relative to the working directory when it lies below it
/// (unix socket paths are limited to ~100 bytes).
pub fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// The [`CampaignSpec::jobs`] job list built from the same public calls,
/// with spans around workload generation, plan build and, for sampled
/// campaigns, each bundle stage.
///
/// # Errors
///
/// Unknown kernels and bundle-construction failures.
pub fn build_specs(
    tr: Option<&Tracer>,
    parent: u64,
    spec: &CampaignSpec,
) -> Result<Vec<JobSpec>, String> {
    if tr.is_none() {
        return spec.jobs();
    }
    span(tr, "harness.jobs", parent, |id| {
        let all = span(tr, "workloads.gen", id, |_| dmdp_workloads::all(spec.scale));
        if let Some(filter) = &spec.kernels {
            if let Some(bad) = filter
                .iter()
                .find(|k| !all.iter().any(|w| w.name == k.as_str()))
            {
                return Err(format!("unknown workload `{bad}`"));
            }
        }
        let mut jobs = Vec::new();
        for w in all {
            if spec
                .kernels
                .as_ref()
                .is_some_and(|f| !f.iter().any(|n| n == w.name))
            {
                continue;
            }
            let program = Arc::new(w.program);
            let plans = span(tr, "plan.build", id, |_| PlanCache::shared(&program));
            let image = PlannedImage { program, plans };
            let bundle = match spec.sampling {
                Some(s) => Some(Arc::new(build_bundle(tr, id, &image, s)?)),
                None => None,
            };
            for &model in &spec.models {
                for (label, patch) in &spec.variants {
                    let mut cfg = CoreConfig::new(model);
                    patch.apply(&mut cfg);
                    let mut job =
                        JobSpec::new(w.name, w.suite, model, spec.scale, label, cfg, &image);
                    if let (Some(s), Some(b)) = (spec.sampling, &bundle) {
                        job = job.sampled(SamplingSpec {
                            sampling: s,
                            bundle: Arc::clone(b),
                        });
                    }
                    jobs.push(job);
                }
            }
        }
        Ok(jobs)
    })
}

/// [`SampledBundle::build`] from its public stages, one span each.
fn build_bundle(
    tr: Option<&Tracer>,
    parent: u64,
    image: &PlannedImage,
    sampling: Sampling,
) -> Result<SampledBundle, String> {
    let params = sampling.params();
    let program = &image.program;
    let profile = span(tr, "isa.profile", parent, |_| {
        Emulator::new(program).profile_intervals(params.interval_insns, params.max_steps)
    })
    .map_err(|e| format!("{}: profiling failed: {e}", program.name()))?;
    let plan = span(tr, "sample.cluster", parent, |_| {
        dmdp_sample::cluster(&profile, &params)
    });
    let warmup_insns =
        (params.warmup_intervals as u64 * params.interval_insns).max(params.min_warmup_insns);
    let mut boundaries: Vec<u64> = plan
        .reps
        .iter()
        .map(|r| (r.interval * params.interval_insns).saturating_sub(warmup_insns))
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    let checkpoints = span(tr, "isa.capture", parent, |_| {
        Emulator::new(program).capture_checkpoints(&boundaries, params.warm_lines_cap)
    })
    .map_err(|e| format!("{}: checkpoint capture failed: {e}", program.name()))?;
    Ok(SampledBundle {
        warmup_intervals: params.warmup_intervals,
        warmup_insns,
        plan,
        checkpoints,
        profile_result: profile.result,
    })
}

/// Instructions a sampled job simulated in detail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detail {
    /// Detailed warmup instructions (simulated, then discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub measured: u64,
}

/// Runs one job. Untraced it is [`JobSpec::execute`]; traced it takes the
/// same public calls with a span per model (`core.<model>`, with the
/// Perfect model's oracle pre-pass as an `isa.oracle` child) or, for a
/// sampled job, one `sample.ckpt_run` span per representative.
pub fn exec_job(
    tr: Option<&Tracer>,
    parent: u64,
    spec: &JobSpec,
) -> (Result<JobResult, String>, Detail) {
    if tr.is_none() {
        return (spec.execute(), Detail::default());
    }
    let label = |e: String| {
        format!(
            "{} × {} [{}]: {e}",
            spec.workload,
            spec.model.name(),
            spec.variant
        )
    };
    let start = Instant::now();
    if let Some(s) = &spec.sampling {
        let mut detail = Detail::default();
        let result = span(
            tr,
            &format!("sample.job.{}", spec.model.name()),
            parent,
            |id| {
                let sim = Simulator::with_config(spec.cfg.clone());
                let mut measurements = Vec::new();
                for r in s.bundle.rep_runs() {
                    let iv = span(tr, "sample.ckpt_run", id, |_| {
                        sim.run_from_checkpoint(
                            &spec.program,
                            &spec.plans,
                            &s.bundle.checkpoints[r.ckpt],
                            r.warmup_insns,
                            r.measure_insns,
                        )
                    })
                    .map_err(|e| label(e.to_string()))?;
                    detail.warmup += iv.warmup_insns;
                    detail.measured += iv.insns;
                    measurements.push(IntervalMeasurement {
                        interval: r.interval,
                        weight: r.weight,
                        cycles: iv.cycles,
                        insns: iv.insns,
                    });
                }
                let report = dmdp_sample::recombine(&s.bundle.plan, measurements);
                let wall = start.elapsed().as_secs_f64();
                Ok(JobResult::from_sampled(
                    spec,
                    s,
                    &report,
                    wall,
                    detail.warmup + detail.measured,
                ))
            },
        );
        return (result, detail);
    }
    let result = span(tr, &format!("core.{}", spec.model.name()), parent, |id| {
        let stats = if spec.model == CommModel::Perfect {
            let oracle = span(tr, "isa.oracle", id, |_| {
                Pipeline::build_oracle(&spec.cfg, &spec.program)
            });
            Pipeline::new_planned_with_oracle(
                spec.cfg.clone(),
                Arc::clone(&spec.program),
                Arc::clone(&spec.plans),
                oracle,
            )
            .run()
        } else {
            Simulator::with_config(spec.cfg.clone())
                .run_planned(&spec.program, &spec.plans)
                .map(|r| r.stats)
        };
        stats
            .map(|s| JobResult::from_stats(spec, s, start.elapsed().as_secs_f64()))
            .map_err(|e| label(e.to_string()))
    });
    (result, Detail::default())
}

/// A pass over a job list on the pool: rows in job order, plus what the
/// sampled jobs among them simulated in detail and their bundles' size.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Result rows, in job order.
    pub rows: Vec<JobResult>,
    /// Detailed instructions of the sampled jobs.
    pub detail: Detail,
    /// Checkpoint bytes of the distinct bundles the jobs share.
    pub ckpt_bytes: u64,
    /// Host wall of the pass in seconds.
    pub wall_s: f64,
}

/// Runs `specs` on the pool inside a `harness.pool` span, one
/// [`exec_job`] each. A failed job fails `op` and is left out of the
/// rows.
pub fn pool_pass(
    tr: Option<&Tracer>,
    parent: u64,
    specs: &[JobSpec],
    width: usize,
    t: &mut Tally,
    op: &str,
) -> PassOut {
    let start = Instant::now();
    let results = span(tr, "harness.pool", parent, |pool| {
        dmdp_harness::map_ordered(specs, width, |_, s| exec_job(tr, pool, s))
    });
    let mut out = PassOut {
        wall_s: start.elapsed().as_secs_f64(),
        ..PassOut::default()
    };
    for (r, d) in results {
        out.detail.warmup += d.warmup;
        out.detail.measured += d.measured;
        if let Some(r) = t.ok(op, r) {
            out.rows.push(r);
        }
    }
    let mut bundles: Vec<*const SampledBundle> = Vec::new();
    for s in specs.iter().filter_map(|s| s.sampling.as_ref()) {
        if !bundles.contains(&Arc::as_ptr(&s.bundle)) {
            bundles.push(Arc::as_ptr(&s.bundle));
            out.ckpt_bytes += s.bundle.checkpoint_bytes();
        }
    }
    out
}

/// The metric sheet of one run: name → (value, unit, samples).
#[derive(Debug, Default)]
pub struct Sheet {
    rows: Vec<(String, f64, String, String)>,
}

impl Sheet {
    /// Adds a metric with a note on how many samples it rests on.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows
            .push((name.to_string(), value, unit.to_string(), note.into()));
    }

    /// Prints the table, then the result object as the last line.
    pub fn finish(&self, t: &Tally) {
        for (name, value, unit, note) in &self.rows {
            println!("  {name:<34} {value:>16.6} {unit:<8} {note}");
        }
        let metrics = self
            .rows
            .iter()
            .map(|(name, value, unit, _)| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]);
                (name.clone(), m)
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(t.failed() == 0)),
            ("attempted".into(), Json::Num(t.attempted().max(1) as f64)),
            ("failed".into(), Json::Num(t.failed() as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.compact());
    }

    /// The sheet as JSON, for the run record.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.rows
                .iter()
                .map(|(name, value, unit, note)| {
                    let m = Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.clone())),
                        ("samples".into(), Json::Str(note.clone())),
                    ]);
                    (name.clone(), m)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_counts_once_and_fails_on_any_check() {
        let mut t = Tally::default();
        for _ in 0..84 {
            t.check("campaign 0", true, String::new);
        }
        t.check("campaign 1", true, String::new);
        t.check("campaign 1", false, || "row 3".into());
        t.check("campaign 1", true, String::new);
        assert_eq!(t.ok("campaign 2", Err::<(), _>("down".into())), None);
        assert_eq!((t.attempted(), t.failed()), (3, 2));
        let mut other = Tally::default();
        other.check("campaign 0", false, || "late".into());
        other.check("campaign 3", true, String::new);
        t.merge(other);
        assert_eq!((t.attempted(), t.failed()), (4, 3));
        assert!((t.success_rate() - 0.25).abs() < 1e-12);
    }
}
