//! The DMDP reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matrix-full|sampled-full|daemon-sweep> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it wraps spans around the calls into each crate and
//! reports the per-layer metrics instead, with the tracing overhead.
//! Either way every simulated result is checked, mismatches are printed
//! and counted, and the last line of standard output is the result
//! object. A run record (context, daemon stream, metric samples, spans)
//! is written under `perfbench/out/`.

mod common;
mod daemon;
mod inproc;
mod layers;
mod stats;
mod stream;
mod sweep;
mod trace;

use dmdp_core::CommModel;
use dmdp_harness::{JobResult, Json};
use dmdp_workloads::Suite;

use crate::common::{Sheet, Tally};
use crate::inproc::Which;
use crate::stats::{
    geomean_speedup_pct, median, paper_gap_pp, sampled_errors_pct, Tail, PAPER_SPEEDUP_FP_PCT,
    PAPER_SPEEDUP_INT_PCT,
};

const USAGE: &str = "usage: dmdp-perfbench --workload <matrix-full|sampled-full|daemon-sweep> \
                     --seed N --seconds S --trace <0|1>";

/// The end-to-end figures of an untraced run, as samples.
#[derive(Debug, Default)]
pub struct E2e {
    /// Set-up times in seconds.
    pub setup_s: Vec<f64>,
    /// Walls of the timed unit of work in seconds.
    pub wall_s: Vec<f64>,
    /// Simulated instructions answered per host second, in millions
    /// (on `daemon-sweep`, each distinct job of a pass counted once).
    pub mips: Vec<f64>,
    /// Peak RSS of the process doing the work.
    pub rss_mb: f64,
    /// DMDP-over-NoSQ speedups (Int, FP) in percent.
    pub speedup_pct: (f64, f64),
    /// Max and mean sampled-vs-full IPC error in percent, and row count.
    pub sampled_err: (f64, f64, usize),
    /// Latencies of requests that executed at least one job, in ms.
    pub cold_ms: Vec<f64>,
}

impl E2e {
    /// Fills the fidelity figures: the paper gap from `gap_rows`, the
    /// sampled error of `sampled` against `full`, row by row.
    pub fn fidelity(
        &mut self,
        t: &mut Tally,
        gap_rows: &[JobResult],
        sampled: &[JobResult],
        full: &[JobResult],
    ) {
        let suite_pairs = |suite: Suite| -> Vec<(f64, f64)> {
            gap_rows
                .iter()
                .filter(|r| r.suite == suite && r.model == CommModel::NoSq && r.variant == "main")
                .filter_map(|nosq| {
                    let dmdp = gap_rows.iter().find(|r| {
                        r.workload == nosq.workload
                            && r.model == CommModel::Dmdp
                            && r.variant == "main"
                    })?;
                    Some((nosq.ipc, dmdp.ipc))
                })
                .collect()
        };
        let (int, fp) = (suite_pairs(Suite::Int), suite_pairs(Suite::Fp));
        t.check("fidelity", int.len() == 10 && fp.len() == 11, || {
            format!(
                "paper gap over {} Int and {} FP kernels, expected 10 and 11",
                int.len(),
                fp.len()
            )
        });
        if !int.is_empty() && !fp.is_empty() {
            self.speedup_pct = (geomean_speedup_pct(&int), geomean_speedup_pct(&fp));
        }
        let pairs: Vec<(f64, f64)> = sampled
            .iter()
            .filter_map(|s| {
                let f = full.iter().find(|f| {
                    f.workload == s.workload && f.model == s.model && f.variant == s.variant
                })?;
                Some((s.ipc, f.ipc))
            })
            .collect();
        t.check(
            "fidelity",
            !pairs.is_empty() && pairs.len() == sampled.len(),
            || {
                format!(
                    "{} of {} sampled rows have a full-detail row",
                    pairs.len(),
                    sampled.len()
                )
            },
        );
        if !pairs.is_empty() {
            let (max, mean) = sampled_errors_pct(&pairs);
            self.sampled_err = (max, mean, pairs.len());
        }
    }

    /// Every end-to-end metric, in `BENCHMARK.json` order.
    fn sheet(&self, t: &Tally) -> Sheet {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let n = |v: &[f64], what: &str| format!("median of {} {what}", v.len());
        let mut s = Sheet::default();
        s.put(
            "setup_s",
            med(&self.setup_s),
            "s",
            n(&self.setup_s, "set-ups"),
        );
        s.put("wall_s", med(&self.wall_s), "s", n(&self.wall_s, "passes"));
        s.put(
            "sim_mips",
            med(&self.mips),
            "Minsn/s",
            n(&self.mips, "passes"),
        );
        s.put(
            "peak_rss_mb",
            self.rss_mb,
            "MB",
            "VmHWM of the working process",
        );
        let ok = t.attempted() - t.failed();
        s.put(
            "success_rate",
            t.success_rate(),
            "ratio",
            format!("{ok} of {} operations", t.attempted()),
        );
        let (int, fp) = self.speedup_pct;
        s.put(
            "paper_gap_int_pp",
            paper_gap_pp(int, PAPER_SPEEDUP_INT_PCT),
            "pp",
            format!("DMDP/NoSQ Int {int:+.3} % vs paper {PAPER_SPEEDUP_INT_PCT:+} %"),
        );
        s.put(
            "paper_gap_fp_pp",
            paper_gap_pp(fp, PAPER_SPEEDUP_FP_PCT),
            "pp",
            format!("DMDP/NoSQ FP {fp:+.3} % vs paper {PAPER_SPEEDUP_FP_PCT:+} %"),
        );
        let (max, mean, rows) = self.sampled_err;
        s.put("sampled_max_err_pct", max, "%", format!("{rows} rows"));
        s.put("sampled_mean_err_pct", mean, "%", format!("{rows} rows"));
        s.put(
            "submit_cold_p50_ms",
            med(&self.cold_ms),
            "ms",
            format!("n={}", self.cold_ms.len()),
        );
        let tail = if self.cold_ms.is_empty() {
            Tail {
                pct: 100.0,
                value: 0.0,
                n: 0,
                beyond: 0,
            }
        } else {
            Tail::of(&self.cold_ms)
        };
        s.put(
            "submit_cold_tail_ms",
            tail.value,
            "ms",
            format!("p{:.1}, n={}, {} beyond", tail.pct, tail.n, tail.beyond),
        );
        s
    }

    fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::Obj(vec![
            ("setup_s".into(), arr(&self.setup_s)),
            ("wall_s".into(), arr(&self.wall_s)),
            ("sim_mips".into(), arr(&self.mips)),
            ("cold_ms".into(), arr(&self.cold_ms)),
        ])
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["matrix-full", "sampled-full", "daemon-sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(daemon::SERVE_CHILD) {
        if let Err(e) = daemon::serve_child(&argv[1..]) {
            eprintln!("daemon child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let context = common::context();
    println!("context {}", context.compact());
    let mut t = Tally::default();
    daemon::reap_orphans(&mut t, "orphans before");
    let mut record: Vec<(String, Json)> = vec![
        ("context".into(), context),
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
    ];
    let sheet = if args.trace {
        let mut sheet = Sheet::default();
        match args.workload.as_str() {
            "matrix-full" => inproc::traced(
                Which::Matrix,
                args.seed,
                args.seconds,
                &mut t,
                &mut sheet,
                &mut record,
            ),
            "sampled-full" => inproc::traced(
                Which::Sampled,
                args.seed,
                args.seconds,
                &mut t,
                &mut sheet,
                &mut record,
            ),
            _ => sweep::traced(args.seed, args.seconds, &mut t, &mut sheet, &mut record),
        }
        sheet
    } else {
        let e = match args.workload.as_str() {
            "matrix-full" => inproc::untraced(Which::Matrix, args.seconds, &mut t),
            "sampled-full" => inproc::untraced(Which::Sampled, args.seconds, &mut t),
            _ => sweep::untraced(args.seed, args.seconds, &mut t, &mut record),
        };
        record.push(("samples".into(), e.to_json()));
        e.sheet(&t)
    };
    record.push(("metrics".into(), sheet.to_json()));
    let dir = common::out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, Json::Obj(record).pretty()))
        .map_err(|e| format!("{}: {e}", path.display()));
    if let Err(e) = written {
        println!("warning: run record not written: {e}");
    }
    println!("record {}", common::short_path(&path).display());
    println!(
        "{} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    sheet.finish(&t);
}
