//! The two in-process workloads: the paper's 21 × 4 matrix at `Full`
//! scale, run in full detail (`matrix-full`) or sampled (`sampled-full`)
//! through `CampaignSpec::run`.
//!
//! Each timed request is one cold campaign (no cache). After the timed
//! phase, and after the peak RSS is read, each also runs the other path
//! once untimed (the sampled matrix for `matrix-full`, the full-detail
//! reference for `sampled-full`), so both report the sampled error and
//! the paper gap.

use std::time::Instant;

use dmdp_harness::{CampaignSpec, JobResult, Json, RunOptions};
use dmdp_workloads::Scale;

use crate::common::{
    self, build_specs, check_retired, check_rows, pool_pass, PassOut, Sheet, Tally,
};
use crate::daemon::{self, json_round_trip, SAMPLING};
use crate::layers::{self, Sources};
use crate::trace::{span, Tracer};
use crate::E2e;

/// Set-up repetitions (workload generation + plan build) before each cold
/// campaign. Spread over the run, they sample the host's speed over the
/// whole run rather than at its start, where it can sit 40 % off for
/// seconds at a time.
const SETUP_REPS: usize = 7;
/// Stream requests the traced run's daemon probe answers.
const PROBE_REQUESTS: usize = 10;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Full-detail matrix.
    Matrix,
    /// Sampled matrix.
    Sampled,
}

impl Which {
    fn name(self) -> &'static str {
        match self {
            Which::Matrix => "matrix-full",
            Which::Sampled => "sampled-full",
        }
    }

    /// (timed spec, the other path's spec).
    fn specs(self) -> (CampaignSpec, CampaignSpec) {
        let full = CampaignSpec::new(self.name(), Scale::Full);
        let sampled = full
            .clone()
            .sampled(SAMPLING.interval_insns, SAMPLING.warmup_intervals);
        match self {
            Which::Matrix => (full, sampled),
            Which::Sampled => (sampled, full),
        }
    }
}

fn opts(width: usize) -> RunOptions {
    RunOptions {
        jobs: width,
        cache: None,
        progress: false,
        batch_variants: true,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `CampaignSpec::jobs` for the full-detail matrix — workload
/// generation and plan build — `SETUP_REPS` times, before cold campaign
/// `cycle`.
fn setup(t: &mut Tally, cycle: usize) -> Vec<f64> {
    let spec = CampaignSpec::new("setup", Scale::Full);
    (0..SETUP_REPS)
        .filter_map(|i| {
            let start = Instant::now();
            let jobs = t.ok(&format!("set-up {cycle}.{i}"), spec.jobs())?;
            std::hint::black_box(jobs);
            Some(start.elapsed().as_secs_f64())
        })
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn untraced(which: Which, seconds: f64, t: &mut Tally) -> E2e {
    let width = common::width();
    let (timed, other) = which.specs();
    let mut e = E2e::default();

    let mut first: Option<Vec<JobResult>> = None;
    let phase = Instant::now();
    for i in 0.. {
        if first.is_some() && phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
        e.setup_s.extend(setup(t, i));
        let op = format!("campaign {i}");
        let start = Instant::now();
        let Some(cold) = t.ok(&op, timed.run(&opts(width))) else {
            break;
        };
        let ms = ms_since(start);
        e.cold_ms.push(ms);
        let insns: u64 = cold.jobs.iter().map(|r| r.retired_insns).sum();
        e.mips.push(insns as f64 / ms / 1e3);
        t.check(&op, cold.jobs.len() == 84 && cold.executed == 84, || {
            format!(
                "cold campaign: {} rows, {} executed",
                cold.jobs.len(),
                cold.executed
            )
        });
        if let Some(f) = &first {
            check_rows(t, &op, "repeated campaign", &cold.jobs, f);
        }
        first.get_or_insert(cold.jobs);
    }
    e.wall_s = e.cold_ms.iter().map(|ms| ms / 1e3).collect();
    // The timed phase's peak, read before the untimed runs below.
    e.rss_mb = common::peak_rss_mb("self").unwrap_or(0.0);

    let rows = first.unwrap_or_default();
    let other_rows = t
        .ok("other path", other.run(&opts(width)))
        .map(|c| c.jobs)
        .unwrap_or_default();
    let emu = t
        .ok("emulator", common::emulated_insns(None, Scale::Full, &[]))
        .unwrap_or_default();
    check_retired(t, "campaign 0", &rows, &emu);
    check_retired(t, "other path", &other_rows, &emu);
    let (full, sampled) = match which {
        Which::Matrix => (&rows, &other_rows),
        Which::Sampled => (&other_rows, &rows),
    };
    e.fidelity(t, &rows, sampled, full);
    e
}

/// One traced campaign, operation `op`: the job list, the pool and the
/// artifact's JSON round trip under a `campaign` root span.
fn traced_pass(tr: &Tracer, spec: &CampaignSpec, width: usize, t: &mut Tally, op: &str) -> PassOut {
    let start = Instant::now();
    let mut out = span(Some(tr), "campaign", 0, |root| {
        let Some(specs) = t.ok(op, build_specs(Some(tr), root, spec)) else {
            return PassOut::default();
        };
        let out = pool_pass(Some(tr), root, &specs, width, t, op);
        t.ok(
            op,
            span(Some(tr), "harness.json", root, |_| {
                json_round_trip(spec, out.rows.clone())
            }),
        );
        out
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The traced run: untraced and traced campaigns alternate for `seconds`,
/// then the other path runs traced once and a short daemon probe covers
/// the batch, store and server layers.
pub fn traced(
    which: Which,
    seed: u64,
    seconds: f64,
    t: &mut Tally,
    sheet: &mut Sheet,
    record: &mut Vec<(String, Json)>,
) {
    let width = common::width();
    let (timed, other) = which.specs();
    let (primary, secondary, emu_tr) = (Tracer::default(), Tracer::default(), Tracer::default());
    let emu = t
        .ok(
            "emulator",
            common::emulated_insns(Some(&emu_tr), Scale::Full, &[]),
        )
        .unwrap_or_default();
    let (mut plain_s, mut traced_s, mut modeled) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<PassOut> = None;
    let phase = Instant::now();
    for i in 0.. {
        if first.is_some() && phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let op = format!("campaign {i}");
        // Odd pairs run the traced campaign first, so the order within a
        // pair does not bias the overhead and coverage ratios.
        let traced_first = i % 2 == 1;
        let mut pass = None;
        if traced_first {
            pass = Some(traced_pass(&primary, &timed, width, t, &op));
        }
        let start = Instant::now();
        let Some(plain) = t.ok(&op, timed.run(&opts(width))) else {
            break;
        };
        plain_s.push(start.elapsed().as_secs_f64());
        let st = &plain.stages;
        modeled.push((st.build_s + st.exec_s) / plain.wall_s);
        let pass = pass.unwrap_or_else(|| traced_pass(&primary, &timed, width, t, &op));
        traced_s.push(pass.wall_s);
        check_rows(t, &op, "traced campaign", &pass.rows, &plain.jobs);
        first.get_or_insert(pass);
    }
    let first = first.unwrap_or_default();
    let second = traced_pass(&secondary, &other, width, t, "other path");
    check_retired(t, "campaign 0", &first.rows, &emu);
    check_retired(t, "other path", &second.rows, &emu);
    let probe = daemon::probe(seed, PROBE_REQUESTS, width, t);
    let (full, sampled) = match which {
        Which::Matrix => (&first, &second),
        Which::Sampled => (&second, &first),
    };
    let median = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    let overhead = median(&traced_s) / median(&plain_s);
    // Coverage of `CampaignSpec::run`'s wall, from two shares each taken
    // within one run, so host speed between runs cancels: the part of
    // the traced campaign its layer spans cover, times the part of the
    // untraced `run` spent in the stages the traced campaign re-enacts
    // (job list and pool). Work `run` does that the replica leaves out
    // (cache scan, aggregation, anything between stages) lowers it.
    let coverage: Vec<f64> = primary
        .covered_s(&["harness.pool"])
        .iter()
        .zip(&modeled)
        .map(|((covered, wall), m)| covered / wall * m)
        .collect();
    let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    record.push(("walls.untraced".into(), arr(&plain_s)));
    record.push(("walls.traced".into(), arr(&traced_s)));
    record.push(("coverage".into(), arr(&coverage)));
    record.push(("spans.primary".into(), primary.to_json()));
    record.push(("spans.secondary".into(), secondary.to_json()));
    layers::fill(
        sheet,
        t,
        &Sources {
            primary: &primary,
            secondary: &secondary,
            primary_reps: traced_s.len(),
            emu: &emu_tr,
            emu_insns: emu.values().sum(),
            full: &full.rows,
            sampled,
            daemon: &probe,
            width,
            overhead_ratio: overhead,
            coverage: median(&coverage),
            coverage_checked: which == Which::Matrix,
        },
    );
}
