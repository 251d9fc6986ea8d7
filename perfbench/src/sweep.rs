//! The `daemon-sweep` workload: in each pass, closed-loop clients submit
//! the first [`WALL_REQUESTS`] requests of the seeded sizing-sweep stream
//! to a fresh daemon on a fresh store; passes repeat until the run's
//! seconds are spent. After the last pass's stream, outside the timed
//! part, its daemon also answers the main `Small` matrix full and
//! sampled, and every answer is checked against the same jobs run one by
//! one in process.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use dmdp_harness::{CampaignSpec, JobResult, Json};
use dmdp_workloads::Scale;

use crate::common::{self, check_retired, check_rows, PassOut, Sheet, Tally};
use crate::daemon::{self, check_against, fetch, request_op, Daemon, Driven, SAMPLING};
use crate::layers::{self, Sources};
use crate::trace::Tracer;
use crate::E2e;

/// Daemons spawned only to time set-up, before the passes. A start-up
/// time is bimodal (about 3 ms when the first ping meets the daemon's
/// first accept, about 22 ms when it waits out the idle accept loop's
/// 20 ms sleep), so the median needs enough spawns to settle on one mode.
const SETUP_SPAWNS: usize = 12;
/// Requests of the stream one pass sends; `wall_s` is the time a fresh
/// daemon takes to answer them.
pub const WALL_REQUESTS: usize = 100;

fn fidelity_specs() -> (CampaignSpec, CampaignSpec) {
    let full = CampaignSpec::new("fidelity-full", Scale::Small);
    let mut sampled = full
        .clone()
        .sampled(SAMPLING.interval_insns, SAMPLING.warmup_intervals);
    sampled.name = "fidelity-sampled".into();
    (full, sampled)
}

/// One pass: a fresh daemon answering the stream's first requests.
struct Pass {
    driven: Driven,
    /// The daemon's peak RSS after the stream, before anything else.
    rss_mb: f64,
}

/// What the passes of one run produced.
struct Session {
    passes: Vec<Pass>,
    /// The main `Small` matrix, full and sampled, with the last daemon's
    /// rows.
    fidelity: Vec<(CampaignSpec, Vec<JobResult>)>,
    /// The last daemon's `Client::stats` after the fidelity matrices.
    stats: Json,
    ping_ms: Vec<f64>,
    /// Spawn-to-first-ping of each pass's daemon, in seconds.
    ready_s: Vec<f64>,
}

/// Runs passes until `seconds` have passed (at least one), pinging the
/// first daemon `pings` times. A daemon that fails mid-way fails the
/// operations it did not answer, and the session ends with what it has.
fn session(seed: u64, seconds: f64, pings: usize, t: &mut Tally) -> Session {
    let width = common::width();
    let mut s = Session {
        passes: Vec::new(),
        fidelity: Vec::new(),
        stats: Json::Null,
        ping_ms: Vec::new(),
        ready_s: Vec::new(),
    };
    let start = Instant::now();
    for pass in 0.. {
        let op = format!("pass {pass} daemon");
        let Some(d) = t.ok(&op, Daemon::spawn(width)) else {
            break;
        };
        s.ready_s.push(d.ready_s);
        if pass == 0 && pings > 0 {
            s.ping_ms = t.ok("pings", daemon::pings(&d, pings)).unwrap_or_default();
        }
        let driven = daemon::drive(&d, seed, WALL_REQUESTS, width, pass, t);
        let rss_mb = d.peak_rss_mb().unwrap_or(0.0);
        let last = start.elapsed().as_secs_f64() >= seconds;
        if last {
            let (full, sampled) = fidelity_specs();
            for spec in [full, sampled] {
                if let Some(c) = t.ok(&spec.name.clone(), fetch(&d, &spec)) {
                    s.fidelity.push((spec, c.jobs));
                }
            }
            s.stats = t
                .ok("stats", d.connect().and_then(|mut c| c.stats()))
                .unwrap_or(Json::Null);
        }
        t.ok(&op, d.shutdown());
        s.passes.push(Pass { driven, rss_mb });
        if last {
            break;
        }
    }
    daemon::reap_orphans(t, "orphans after");
    s
}

/// Checks every answer: retired instructions against the emulator, each
/// pass's rows against the first pass's, and the daemon's executed
/// counts against the distinct jobs it had answered. Returns the
/// emulated instructions.
fn check_session(s: &Session, tr: Option<&Tracer>, t: &mut Tally) -> u64 {
    let answered = || {
        s.passes
            .iter()
            .enumerate()
            .flat_map(|(p, pass)| {
                pass.driven
                    .outcomes
                    .iter()
                    .map(move |o| (request_op(p, o.index), &o.rows))
            })
            .chain(s.fidelity.iter().map(|(c, r)| (c.name.clone(), r)))
    };
    let kernels: BTreeSet<&str> = answered()
        .flat_map(|(_, rows)| rows.iter().map(|r| r.workload.as_str()))
        .collect();
    let kernels: Vec<&str> = kernels.into_iter().collect();
    let emu = t
        .ok(
            "emulator",
            common::emulated_insns(tr, Scale::Small, &kernels),
        )
        .unwrap_or_default();
    for (op, rows) in answered() {
        check_retired(t, &op, rows, &emu);
    }
    let Some(first) = s.passes.first() else {
        return 0;
    };
    t.check(
        "stream",
        first.driven.outcomes.len() == WALL_REQUESTS,
        || {
            format!(
                "{} of the first {WALL_REQUESTS} requests answered",
                first.driven.outcomes.len()
            )
        },
    );
    for (p, pass) in s.passes.iter().enumerate().skip(1) {
        for o in &pass.driven.outcomes {
            if let Some(f) = first.driven.outcomes.iter().find(|f| f.index == o.index) {
                check_rows(
                    t,
                    &request_op(p, o.index),
                    "repeated pass",
                    &o.rows,
                    &f.rows,
                );
            }
        }
    }
    let fidelity_rows = s.fidelity.iter().flat_map(|(_, r)| r);
    let mut counts: Vec<(String, &Json, Vec<&JobResult>)> = s
        .passes
        .iter()
        .enumerate()
        .map(|(p, pass)| {
            let rows = pass.driven.outcomes.iter().flat_map(|o| &o.rows);
            (
                format!("pass {p} stream"),
                &pass.driven.stats,
                rows.collect(),
            )
        })
        .collect();
    if let Some(last) = s.passes.last() {
        let rows = last.driven.outcomes.iter().flat_map(|o| &o.rows);
        counts.push((
            "the last pass with the fidelity matrices".into(),
            &s.stats,
            rows.chain(fidelity_rows).collect(),
        ));
    }
    for (what, stats, rows) in counts {
        let distinct: BTreeSet<&str> = rows.iter().map(|r| r.digest.as_str()).collect();
        let executed = stats.get("executed").and_then(Json::as_f64).unwrap_or(-1.0);
        t.check("executed count", executed == distinct.len() as f64, || {
            format!(
                "after {what} the daemon had executed {executed} jobs for {} distinct digests; \
                 simulated by more than one request: [{}]",
                distinct.len(),
                simulated_twice(&rows).join(", ")
            )
        });
    }
    emu.values().sum()
}

/// Jobs that came back as simulated (not from the store or by dedup) in
/// more than one answer: the daemon ran them more than once.
fn simulated_twice(rows: &[&JobResult]) -> Vec<String> {
    let mut seen: BTreeMap<&str, (usize, &JobResult)> = BTreeMap::new();
    for r in rows.iter().filter(|r| !r.cached) {
        seen.entry(r.digest.as_str()).or_insert((0, r)).0 += 1;
    }
    seen.into_values()
        .filter(|(n, _)| *n > 1)
        .map(|(n, r)| {
            format!(
                "{} × {} [{}] {n} times",
                r.workload,
                r.model.name(),
                r.variant
            )
        })
        .collect()
}

/// Writes the stream, each answer and the measured mix to the run record,
/// and prints the mix.
fn record_stream(s: &Session, record: &mut Vec<(String, Json)>) {
    let Some(first) = s.passes.first() else {
        return;
    };
    let lines = first
        .driven
        .reqs
        .iter()
        .map(|r| Json::Str(r.describe()))
        .collect();
    record.push(("stream".into(), Json::Arr(lines)));
    let passes = s
        .passes
        .iter()
        .map(|pass| {
            Json::Arr(
                pass.driven
                    .outcomes
                    .iter()
                    .map(|o| {
                        Json::Arr(vec![
                            Json::Num(o.index as f64),
                            Json::Num(o.latency_ms),
                            Json::Num(o.executed as f64),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    record.push((
        "outcomes per pass [index, latency_ms, executed]".into(),
        Json::Arr(passes),
    ));
    let (hit, partial) = daemon::mix_shares(&first.driven.outcomes);
    println!(
        "stream mix: job hit share {hit:.4}, partial-hit request share {partial:.4} \
         ({} requests)",
        first.driven.outcomes.len()
    );
    record.push((
        "stream mix".into(),
        Json::Obj(vec![
            ("job_hit_share".into(), Json::Num(hit)),
            ("partial_hit_request_share".into(), Json::Num(partial)),
        ]),
    ));
}

/// The untraced run: every end-to-end metric.
pub fn untraced(seed: u64, seconds: f64, t: &mut Tally, record: &mut Vec<(String, Json)>) -> E2e {
    let width = common::width();
    let mut e = E2e::default();
    for i in 0..SETUP_SPAWNS {
        let op = format!("set-up daemon {i}");
        if let Some(d) = t.ok(&op, Daemon::spawn(width)) {
            e.setup_s.push(d.ready_s);
            t.ok(&op, d.shutdown());
        }
    }
    let s = session(seed, seconds, 0, t);
    record_stream(&s, record);
    e.setup_s.extend(&s.ready_s);
    let mut rss = Vec::new();
    for pass in &s.passes {
        let d = &pass.driven;
        let cold = d.outcomes.iter().filter(|o| o.executed > 0);
        e.cold_ms.extend(cold.map(|o| o.latency_ms));
        // Each distinct job once: the seed moves what the repeats copy,
        // not which jobs the pass holds.
        let jobs: BTreeMap<&str, u64> = d
            .outcomes
            .iter()
            .flat_map(|o| &o.rows)
            .map(|r| (r.digest.as_str(), r.retired_insns))
            .collect();
        let insns: u64 = jobs.values().sum();
        e.wall_s.push(d.wall_s);
        e.mips.push(insns as f64 / d.wall_s / 1e6);
        rss.push(pass.rss_mb);
    }
    if !rss.is_empty() {
        e.rss_mb = crate::stats::median(&rss);
    }

    check_session(&s, None, t);
    let mut campaigns: Vec<CampaignSpec> = s
        .passes
        .first()
        .map(|p| p.driven.reqs.iter().map(daemon::campaign_spec).collect())
        .unwrap_or_default();
    campaigns.extend(s.fidelity.iter().map(|(c, _)| c.clone()));
    let (reference, _) = daemon::solo_reference(None, &campaigns, width, t);
    for (p, pass) in s.passes.iter().enumerate() {
        for o in &pass.driven.outcomes {
            check_against(t, &request_op(p, o.index), &o.rows, &reference);
        }
    }
    for (c, rows) in &s.fidelity {
        check_against(t, &c.name, rows, &reference);
    }
    if let [(_, full), (_, sampled)] = s.fidelity.as_slice() {
        e.fidelity(t, full, sampled, full);
    }
    e
}

/// The traced run: the same passes with pings first, then in-process
/// replays of the first pass that split the daemon's work by layer.
pub fn traced(
    seed: u64,
    seconds: f64,
    t: &mut Tally,
    sheet: &mut Sheet,
    record: &mut Vec<(String, Json)>,
) {
    let width = common::width();
    let s = session(seed, seconds, 50, t);
    record_stream(&s, record);
    let emu_tr = Tracer::default();
    let emu_insns = check_session(&s, Some(&emu_tr), t);
    let Some(first) = s.passes.first() else {
        return;
    };
    let (replay_tr, solo_tr) = (Tracer::default(), Tracer::default());
    let (mut l, solo) = daemon::layers(&replay_tr, &solo_tr, &first.driven, &s.fidelity, width, t);
    // The reference covers the first pass; later passes must match it too.
    l.ping_ms = s.ping_ms.clone();
    let reference: BTreeMap<String, JobResult> = solo
        .rows
        .iter()
        .map(|r| (r.digest.clone(), r.clone()))
        .collect();
    for (p, pass) in s.passes.iter().enumerate().skip(1) {
        for o in &pass.driven.outcomes {
            check_against(t, &request_op(p, o.index), &o.rows, &reference);
        }
    }
    let full: Vec<JobResult> = solo.rows.iter().filter(|r| !r.sampled).cloned().collect();
    let sampled = PassOut {
        rows: solo.rows.iter().filter(|r| r.sampled).cloned().collect(),
        detail: solo.detail,
        ckpt_bytes: solo.ckpt_bytes,
        wall_s: solo.wall_s,
    };
    record.push(("spans.replay".into(), replay_tr.to_json()));
    record.push(("spans.solo".into(), solo_tr.to_json()));
    layers::fill(
        sheet,
        t,
        &Sources {
            primary: &replay_tr,
            secondary: &solo_tr,
            primary_reps: 1,
            emu: &emu_tr,
            emu_insns,
            full: &full,
            sampled: &sampled,
            daemon: &l,
            width,
            overhead_ratio: l.overhead_ratio,
            coverage: l.coverage,
            coverage_checked: false,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(digest: &str, variant: &str, cached: bool) -> JobResult {
        let text = format!(
            r#"{{"workload":"mcf","suite":"int","model":"dmdp","variant":"{variant}",
               "digest":"{digest}","wall_s":0,"mips":0,"cycles":1,"retired_insns":1,
               "retired_uops":1,"ipc":1,"mem_dep_mpki":0,"load_mean_latency":0,
               "branch_mispredicts":0,"mem_dep_mispredicts":0,"reexecutions":0,
               "reexec_stalls_per_ki":0,"cached":{cached}}}"#
        );
        JobResult::from_json(&Json::parse(&text).expect("row json")).expect("row")
    }

    #[test]
    fn a_job_simulated_in_two_answers_is_named() {
        let rows = [
            row("a1", "main", false),
            row("a1", "main", true),
            row("b2", "sb4", false),
            row("b2", "sb4", false),
            row("c3", "rob64", false),
        ];
        let refs: Vec<&JobResult> = rows.iter().collect();
        assert_eq!(simulated_twice(&refs), ["mcf × dmdp [sb4] 2 times"]);
    }
}
