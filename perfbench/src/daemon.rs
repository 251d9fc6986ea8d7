//! The `daemon-sweep` workload: a fresh `dmdp serve` daemon on a fresh
//! store, driven by closed-loop clients over the seeded sweep stream, and
//! the in-process replays that check its answers and split its work by
//! layer.
//!
//! The daemon child is this benchmark's own executable re-run as
//! `serve-child`, which calls `dmdp_server::serve` exactly as `dmdp serve`
//! does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dmdp_core::SIM_VERSION;
use dmdp_harness::{
    map_ordered, partition_units, Campaign, CampaignSpec, JobResult, JobSpec, Json, Sampling,
    StageWall,
};
use dmdp_server::{Client, Store, SubmitRequest};
use dmdp_workloads::Scale;

use crate::common::{self, build_specs, pool_pass, row_key, PassOut, Tally};
use crate::stream::{Stream, SweepRequest};
use crate::trace::{span, Tracer};

/// Marker argument that turns the executable into a daemon child.
pub const SERVE_CHILD: &str = "serve-child";
/// The sampling knobs of every sampled campaign in the benchmark.
pub const SAMPLING: Sampling = Sampling {
    interval_insns: 10_000,
    warmup_intervals: 1,
};

/// Entry point of the daemon child: `serve-child SOCKET STORE JOBS LOG`.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let [socket, store, jobs, log] = args else {
        return Err(format!("{SERVE_CHILD} needs SOCKET STORE JOBS LOG"));
    };
    let opts = dmdp_server::ServeOptions {
        socket: PathBuf::from(socket),
        tcp: None,
        store_dir: PathBuf::from(store),
        jobs: jobs.parse().map_err(|e| format!("jobs: {e}"))?,
        store_cap_bytes: None,
        quiet: true,
        log: Some(PathBuf::from(log)),
        log_level: dmdp_obs::log::Level::Info,
        slow_job_ms: None,
        workers: 0,
        accept_workers: false,
        worker_exe: None,
    };
    dmdp_server::serve(&opts).map(|_| ())
}

/// A running daemon child with its own directory (socket, store, log).
/// Dropping it kills a child that is still running and removes the
/// directory, so a failed run leaves nothing behind.
pub struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
    /// Spawn until the first answered `ping`, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawns a daemon on a fresh store and waits until it answers a ping.
    pub fn spawn(width: usize) -> Result<Daemon, String> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "d{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let dir = common::out_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = common::short_path(&dir);
        let socket = dir.join("s.sock");
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let start = Instant::now();
        let child = Command::new(exe)
            .arg(SERVE_CHILD)
            .arg(&socket)
            .arg(dir.join("store"))
            .arg(width.to_string())
            .arg(dir.join("events.jsonl"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut d = Daemon {
            child,
            dir,
            socket,
            ready_s: 0.0,
        };
        loop {
            if let Ok(mut c) = Client::connect_unix(&d.socket) {
                if c.ping().is_ok() {
                    break;
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        d.ready_s = start.elapsed().as_secs_f64();
        Ok(d)
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_unix(&self.socket)
    }

    /// The child's peak resident set in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        common::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to drain and exit, then waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.shutdown()?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon did not exit within 30 s of shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Daemon children of this executable whose parent is no longer a run of
/// this executable. Any found are killed and fail operation `op`.
pub fn reap_orphans(t: &mut Tally, op: &str) {
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let exe = exe.to_string_lossy().to_string();
    let cmdline = |pid: &str| -> Vec<String> {
        std::fs::read(format!("/proc/{pid}/cmdline"))
            .map(|b| {
                b.split(|&c| c == 0)
                    .map(|s| String::from_utf8_lossy(s).into_owned())
                    .collect()
            })
            .unwrap_or_default()
    };
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return;
    };
    let mut orphans = Vec::new();
    for p in procs.flatten() {
        let pid = p.file_name().to_string_lossy().to_string();
        if !pid.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let args = cmdline(&pid);
        if args.len() < 2 || args[0] != exe || args[1] != SERVE_CHILD {
            continue;
        }
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        let ppid = stat
            .rsplit(')')
            .next()
            .and_then(|s| s.split_whitespace().nth(1))
            .unwrap_or("1");
        if cmdline(ppid).first() != Some(&exe) {
            orphans.push(pid);
        }
    }
    for pid in &orphans {
        let _ = Command::new("kill").args(["-9", pid]).status();
    }
    t.check(op, orphans.is_empty(), || {
        format!("orphan daemon children left by an earlier run: {orphans:?}")
    });
}

/// The campaign a sweep request names.
pub fn campaign_spec(req: &SweepRequest) -> CampaignSpec {
    CampaignSpec::new(&format!("sweep-{}", req.index), Scale::Small)
        .kernels(req.kernels.iter().copied())
        .variants(req.variants.clone())
}

fn submit_request(spec: &CampaignSpec) -> SubmitRequest {
    SubmitRequest {
        name: spec.name.clone(),
        scale: spec.scale,
        models: spec.models.clone(),
        kernels: spec.kernels.clone(),
        variants: spec.variants.clone(),
        watch: false,
        batch_variants: true,
        sampling: spec.sampling,
    }
}

/// One answered request of the timed phase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Stream position.
    pub index: usize,
    /// `Client::submit` latency in ms.
    pub latency_ms: f64,
    /// Jobs the daemon simulated for this request.
    pub executed: usize,
    /// The artifact's rows, in job order.
    pub rows: Vec<JobResult>,
}

/// What [`drive`] sent and got back.
pub struct Driven {
    /// The requests sent, by stream position.
    pub reqs: Vec<SweepRequest>,
    /// The answered requests, by stream position.
    pub outcomes: Vec<Outcome>,
    /// Wall from the first request sent to the last answer, in seconds.
    pub wall_s: f64,
    /// `Client::stats` right after the last answer.
    pub stats: Json,
}

/// The operation a stream request is, in pass `pass`.
pub fn request_op(pass: usize, index: usize) -> String {
    format!("pass {pass} request {index}")
}

/// Closed-loop clients send exactly the first `n` requests of the
/// stream, so the wall and the daemon's counters are of a fixed job set.
/// A failed submit fails its request and stops that client.
pub fn drive(
    d: &Daemon,
    seed: u64,
    n: usize,
    clients: usize,
    pass: usize,
    t: &mut Tally,
) -> Driven {
    let stream = Mutex::new((Stream::new(seed), Vec::<SweepRequest>::new()));
    let outcomes = Mutex::new(Vec::<Outcome>::new());
    let tally = Mutex::new(Tally::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let client = d.connect();
                let Some(mut client) = tally.lock().expect("tally").ok("clients", client) else {
                    return;
                };
                loop {
                    let req = {
                        let mut st = stream.lock().expect("stream lock");
                        if st.1.len() >= n {
                            return;
                        }
                        let req = st.0.next_request();
                        st.1.push(req.clone());
                        req
                    };
                    let sent = Instant::now();
                    let r = client.submit(&submit_request(&campaign_spec(&req)), |_| {});
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let op = request_op(pass, req.index);
                    let Some(c) = tally.lock().expect("tally").ok(&op, r) else {
                        return;
                    };
                    outcomes.lock().expect("outcomes").push(Outcome {
                        index: req.index,
                        latency_ms,
                        executed: c.executed,
                        rows: c.jobs,
                    });
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = t
        .ok("stats", d.connect().and_then(|mut c| c.stats()))
        .unwrap_or(Json::Null);
    t.merge(tally.into_inner().expect("tally"));
    let mut outcomes = outcomes.into_inner().expect("outcomes");
    outcomes.sort_by_key(|o| o.index);
    Driven {
        reqs: stream.into_inner().expect("stream").1,
        outcomes,
        wall_s,
        stats,
    }
}

/// Fetches a campaign from the daemon outside the timed phase.
pub fn fetch(d: &Daemon, spec: &CampaignSpec) -> Result<Campaign, String> {
    d.connect()?.submit(&submit_request(spec), |_| {})
}

/// Every distinct job of `campaigns` run one by one in process: the
/// reference every daemon row is compared with, keyed by digest.
pub fn solo_reference(
    tr: Option<&Tracer>,
    campaigns: &[CampaignSpec],
    width: usize,
    t: &mut Tally,
) -> (BTreeMap<String, JobResult>, PassOut) {
    let mut specs: BTreeMap<String, JobSpec> = BTreeMap::new();
    for c in campaigns {
        if let Some(v) = t.ok("reference", build_specs(tr, 0, c)) {
            for s in v {
                specs.entry(s.digest.clone()).or_insert(s);
            }
        }
    }
    let specs: Vec<JobSpec> = specs.into_values().collect();
    let out = pool_pass(tr, 0, &specs, width, t, "reference");
    (
        out.rows
            .iter()
            .map(|r| (r.digest.clone(), r.clone()))
            .collect(),
        out,
    )
}

/// Compares daemon rows with the in-process reference, by digest, as
/// checks of `op`.
pub fn check_against(
    t: &mut Tally,
    op: &str,
    rows: &[JobResult],
    reference: &BTreeMap<String, JobResult>,
) {
    for r in rows {
        let want = reference.get(&r.digest).map(row_key);
        t.check(op, want.as_ref() == Some(&row_key(r)), || {
            format!(
                "{} × {} [{}]: daemon {:?}, in process {want:?}",
                r.workload,
                r.model.name(),
                r.variant,
                row_key(r)
            )
        });
    }
}

/// The daemon path re-enacted in process for a request sequence: build
/// the jobs, look each up in a store, run the misses as batched units on
/// the pool, store the new rows and round-trip the artifact through JSON.
pub struct Replay {
    /// Per request: wall in seconds.
    pub wall_s: Vec<f64>,
    /// Per request: rows in job order.
    pub rows: Vec<Vec<JobResult>>,
    /// Digests of jobs that ran inside multi-lane batch units.
    pub batched: Vec<String>,
    /// Lanes and derived lanes through the batch engine, and
    /// fast-forwarded cycles against all batched lane cycles.
    pub lanes: u64,
    /// See [`Replay::lanes`].
    pub derived: u64,
    /// See [`Replay::lanes`].
    pub ff_cycles: u64,
    /// See [`Replay::lanes`].
    pub lane_cycles: u64,
}

fn batch_counter(name: &'static str) -> u64 {
    dmdp_obs::registry()
        .counter(name, "batch engine counter (read by the benchmark)")
        .get()
}

/// Runs [`Replay`] over `reqs` on a fresh store under `dir`.
pub fn replay(
    tr: Option<&Tracer>,
    reqs: &[SweepRequest],
    width: usize,
    dir: &Path,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir, None)?;
    let (lanes0, derived0, ff0) = (
        batch_counter("dmdp_batch_lanes_total"),
        batch_counter("dmdp_batch_derived_total"),
        batch_counter("dmdp_batch_ff_cycles_total"),
    );
    let mut out = Replay {
        wall_s: Vec::new(),
        rows: Vec::new(),
        batched: Vec::new(),
        lanes: 0,
        derived: 0,
        ff_cycles: 0,
        lane_cycles: 0,
    };
    for req in reqs {
        let start = Instant::now();
        let spec = campaign_spec(req);
        let rows = span(tr, "request", 0, |root| -> Result<Vec<JobResult>, String> {
            let specs = build_specs(tr, root, &spec)?;
            let cached: Vec<Option<JobResult>> = specs
                .iter()
                .map(|s| span(tr, "store.get", root, |_| store.get(&s.digest)))
                .collect();
            let units: Vec<Vec<usize>> = partition_units(&specs, |i| cached[i].is_none())
                .into_iter()
                .filter(|u| cached[u[0]].is_none())
                .collect();
            let results = span(tr, "harness.pool", root, |pool| {
                map_ordered(&units, width, |_, unit| {
                    let members: Vec<&JobSpec> = unit.iter().map(|&i| &specs[i]).collect();
                    let name = if unit.len() > 1 {
                        "batch.unit"
                    } else {
                        "batch.single"
                    };
                    span(tr, name, pool, |_| JobSpec::execute_batch(&members))
                })
            });
            let mut rows: Vec<Option<JobResult>> = cached;
            for (unit, results) in units.iter().zip(results) {
                for (&i, r) in unit.iter().zip(results) {
                    let r = r?;
                    if unit.len() > 1 {
                        out.batched.push(r.digest.clone());
                        out.lane_cycles += r.cycles;
                    }
                    span(tr, "store.put", root, |_| store.put(&r))?;
                    rows[i] = Some(r);
                }
            }
            let jobs: Vec<JobResult> = rows.into_iter().map(|r| r.expect("hit or ran")).collect();
            span(tr, "harness.json", root, |_| json_round_trip(&spec, jobs))
        })?;
        out.wall_s.push(start.elapsed().as_secs_f64());
        out.rows.push(rows);
    }
    out.lanes = batch_counter("dmdp_batch_lanes_total") - lanes0;
    out.derived = batch_counter("dmdp_batch_derived_total") - derived0;
    out.ff_cycles = batch_counter("dmdp_batch_ff_cycles_total") - ff0;
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

/// Serializes rows as a campaign artifact and reads them back, as the
/// daemon and its client do for every answer.
pub fn json_round_trip(
    spec: &CampaignSpec,
    jobs: Vec<JobResult>,
) -> Result<Vec<JobResult>, String> {
    let executed = jobs.iter().filter(|j| !j.cached).count();
    let campaign = Campaign {
        name: spec.name.clone(),
        scale: spec.scale,
        sim_version: SIM_VERSION.to_string(),
        created_unix: 0,
        wall_s: 0.0,
        stages: StageWall::default(),
        executed,
        cached: jobs.len() - executed,
        cache_warning: None,
        trace_id: None,
        sampling: spec.sampling,
        jobs,
    };
    let text = campaign.to_json().compact();
    let parsed = Json::parse(&text)?;
    Ok(Campaign::from_json(&parsed)?.jobs)
}

/// Per-layer figures of the daemon path.
#[derive(Debug, Default)]
pub struct DaemonLayers {
    /// `Client::ping` round trips in ms.
    pub ping_ms: Vec<f64>,
    /// Latencies of the stream's requests answered without executing, in
    /// ms. They are set by CPU contention with the other client's
    /// simulations and drift with the host from run to run, too far for
    /// an end-to-end bound, so they are reported here.
    pub hit_ms: Vec<f64>,
    /// Jobs answered from the store or by dedup over all jobs answered.
    pub hit_share: f64,
    /// Requests that simulated some of their jobs and read the rest, over
    /// all requests.
    pub partial_share: f64,
    /// Jobs the daemon simulated.
    pub executed: f64,
    /// Cold submit latency over the in-process replay of the same requests.
    pub cold_overhead_ratio: f64,
    /// Host seconds in multi-lane `execute_batch` units.
    pub batch_host_s: f64,
    /// Host seconds for the same jobs run one by one.
    pub batch_solo_s: f64,
    /// Derived lanes over lanes.
    pub derived_ratio: f64,
    /// Fast-forwarded cycles over batched lane cycles.
    pub ff_cycle_ratio: f64,
    /// `Store::get` and `Store::put` latencies in µs.
    pub get_us: Vec<f64>,
    /// See [`DaemonLayers::get_us`].
    pub put_us: Vec<f64>,
    /// Traced over untraced replay wall.
    pub overhead_ratio: f64,
    /// Wall the layer spans of the traced replay cover over its wall.
    pub coverage: f64,
}

/// Pings the daemon `n` times and returns the round trips in ms.
pub fn pings(d: &Daemon, n: usize) -> Result<Vec<f64>, String> {
    let mut c = d.connect()?;
    (0..n)
        .map(|_| {
            let t = Instant::now();
            c.ping().map(|_| t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Shares of the stream's mix as the daemon met it: jobs answered without
/// simulating over all jobs, and requests that both simulated and read
/// over all requests.
pub fn mix_shares(outcomes: &[Outcome]) -> (f64, f64) {
    let jobs: usize = outcomes.iter().map(|o| o.rows.len()).sum();
    let executed: usize = outcomes.iter().map(|o| o.executed).sum();
    let partial = outcomes
        .iter()
        .filter(|o| o.executed > 0 && o.executed < o.rows.len())
        .count();
    (
        ratio((jobs - executed.min(jobs)) as u64, jobs as u64),
        ratio(partial as u64, outcomes.len() as u64),
    )
}

/// The daemon figures from a driven pass: server counters, then
/// in-process replays of its requests (untraced, traced, and one job at
/// a time), each checked against the daemon's answers. `extra` holds
/// campaigns fetched outside the stream with the daemon's rows; they join
/// the one-by-one reference, whose pass is returned alongside.
pub fn layers(
    replay_tr: &Tracer,
    solo_tr: &Tracer,
    driven: &Driven,
    extra: &[(CampaignSpec, Vec<JobResult>)],
    width: usize,
    t: &mut Tally,
) -> (DaemonLayers, PassOut) {
    let mut l = DaemonLayers::default();
    let num = |k: &str| driven.stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    l.executed = num("executed");
    let answered = num("executed") + num("store_hits") + num("dedup_hits");
    l.hit_share = if answered > 0.0 {
        (answered - l.executed) / answered
    } else {
        0.0
    };
    l.partial_share = mix_shares(&driven.outcomes).1;
    l.hit_ms = driven
        .outcomes
        .iter()
        .filter(|o| o.executed == 0)
        .map(|o| o.latency_ms)
        .collect();

    let reqs: Vec<SweepRequest> = driven
        .outcomes
        .iter()
        .map(|o| driven.reqs[o.index].clone())
        .collect();
    let dir = common::out_dir().join(format!("replay-{}", std::process::id()));
    let plain = t.ok("replay", replay(None, &reqs, width, &dir));
    let traced = t.ok("replay", replay(Some(replay_tr), &reqs, width, &dir));
    let (Some(plain), Some(traced)) = (plain, traced) else {
        return (l, PassOut::default());
    };
    for (o, (a, b)) in driven
        .outcomes
        .iter()
        .zip(plain.rows.iter().zip(&traced.rows))
    {
        let op = request_op(0, o.index);
        common::check_rows(t, &op, "replay", a, &o.rows);
        common::check_rows(t, &op, "traced replay", b, &o.rows);
    }
    let plain_total: f64 = plain.wall_s.iter().sum();
    l.overhead_ratio = traced.wall_s.iter().sum::<f64>() / plain_total;
    let (covered, wall) = replay_tr
        .covered_s(&["harness.pool"])
        .iter()
        .fold((0.0, 0.0), |(c, w), (dc, dw)| (c + dc, w + dw));
    l.coverage = covered / wall;
    let (cold_daemon, cold_inproc) = driven
        .outcomes
        .iter()
        .zip(&plain.wall_s)
        .filter(|(o, _)| o.executed > 0)
        .fold((0.0, 0.0), |(a, b), (o, w)| (a + o.latency_ms / 1e3, b + w));
    l.cold_overhead_ratio = if cold_inproc > 0.0 {
        cold_daemon / cold_inproc
    } else {
        0.0
    };
    l.batch_host_s = replay_tr
        .total_s()
        .get("batch.unit")
        .copied()
        .unwrap_or(0.0);
    l.derived_ratio = ratio(traced.derived, traced.lanes);
    l.ff_cycle_ratio = ratio(traced.ff_cycles, traced.lane_cycles);
    l.get_us = replay_tr
        .durations_s("store.get")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    l.put_us = replay_tr
        .durations_s("store.put")
        .iter()
        .map(|s| s * 1e6)
        .collect();

    // One job at a time: the reference for every daemon row, and the
    // solo cost of the jobs the batch engine ran together.
    let mut campaigns: Vec<CampaignSpec> = reqs.iter().map(campaign_spec).collect();
    campaigns.extend(extra.iter().map(|(c, _)| c.clone()));
    let (reference, pass) = solo_reference(Some(solo_tr), &campaigns, width, t);
    for o in &driven.outcomes {
        check_against(t, &request_op(0, o.index), &o.rows, &reference);
    }
    for (c, rows) in extra {
        check_against(t, &c.name, rows, &reference);
    }
    l.batch_solo_s = traced
        .batched
        .iter()
        .filter_map(|d| reference.get(d))
        .map(|r| r.wall_s)
        .sum();
    (l, pass)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Short fixed daemon pass for the in-process workloads' traced runs, so
/// every traced run reports the batch, store and server layers: a fresh
/// daemon answers the first `n` requests of the seeded stream on one
/// client, then [`layers`] replays them.
pub fn probe(seed: u64, n: usize, width: usize, t: &mut Tally) -> DaemonLayers {
    let Some(d) = t.ok("probe daemon", Daemon::spawn(width)) else {
        return DaemonLayers::default();
    };
    let ping_ms = t.ok("probe pings", pings(&d, 20)).unwrap_or_default();
    let driven = drive(&d, seed, n, 1, 0, t);
    t.ok("probe daemon", d.shutdown());
    let replay_tr = Tracer::default();
    let solo_tr = Tracer::default();
    let (mut l, _) = layers(&replay_tr, &solo_tr, &driven, &[], width, t);
    l.ping_ms = ping_ms;
    l
}
