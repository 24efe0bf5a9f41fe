//! `servebench`: the wire-level serving benchmark for `cdat serve`.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (see `README.md` next to this package). It
//! builds the release `cdat` binary, generates the workload from the seed,
//! drives `cdat serve --stdio --workers 2` over its wire protocol, checks
//! every response line against `cdat batch`, and prints one JSON object as
//! its last stdout line: end-to-end metrics with `--trace 0`, per-layer
//! metrics from a traced in-process replay with `--trace 1`.

mod probe;
mod reference;
mod replay;
mod stats;
mod wire;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

use cdat_format::json::{self, Value};

use crate::replay::{fold, own, ranking, replay_stages, server_stages, shares, Replay, STAGES};
use crate::stats::{bucket_quantile, median, prometheus_buckets, supported_percentile};
use crate::wire::{Checks, Closed, Open, Server, Session};
use crate::workload::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(value("--workload")?)?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the release `cdat` binary from the checkout in the working
/// directory and returns its path.
fn build_cdat(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "cdat"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cdat failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let exe = root.join(target).join("release").join("cdat");
    if !exe.is_file() {
        return Err(format!("no cdat binary at {}", exe.display()));
    }
    Ok(exe)
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let cdat = build_cdat(&root)?;
    let scratch = root.join(".servebench");
    let work = scratch.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let outcome = measure(args, &cdat, &work, &scratch);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

/// Servers started with `--store` get a fresh file each.
struct Servers<'a> {
    cdat: &'a Path,
    work: &'a Path,
    plan: &'a Plan,
    started: usize,
}

impl Servers<'_> {
    fn next(&mut self, trace: Option<&Path>) -> Server {
        self.started += 1;
        let mut args: Vec<String> =
            ["serve", "--stdio", "--workers", "2"].map(String::from).to_vec();
        if let Some(points) = self.plan.cache_budget {
            args.extend(["--cache-budget".into(), points.to_string()]);
        }
        if self.plan.store {
            let store = self.work.join(format!("server-{}.cdatstore", self.started));
            args.extend(["--store".into(), store.display().to_string()]);
        }
        if let Some(trace) = trace {
            args.extend(["--trace".into(), trace.display().to_string()]);
        }
        Server { exe: self.cdat.to_path_buf(), args }
    }
}

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;

/// Slices per phase, and the closed loop's share of the measured time.
const SLICES: u32 = 8;
const CLOSED_SHARE: f64 = 0.3;

/// Everything the sessions and the replay answered, for the check.
#[derive(Default)]
struct Tally {
    checks: Vec<Checks>,
    attempted: u64,
    missing: u64,
}

impl Tally {
    fn finish(&mut self, session: Session) -> Result<(), String> {
        self.attempted += session.ops_sent;
        let (checks, missing) = session.finish()?;
        self.checks.push(checks);
        self.missing += missing;
        Ok(())
    }
}

fn measure(args: &Args, cdat: &Path, work: &Path, scratch: &Path) -> Result<String, String> {
    let plan = Arc::new(workload::generate(args.workload, args.seed));
    let mut servers = Servers { cdat, work, plan: &plan, started: 0 };
    let mut tally = Tally::default();
    let mut setups = Vec::new();

    // The closed and the open loop each run on a server of their own, so
    // each phase starts from the same state and the open phase's router
    // histograms hold only its own requests (plus the warm-up). The phases
    // take turns in SLICES slices each: the shared machine's speed drifts
    // over tens of seconds, and slices spread both phases over the whole
    // run instead of giving each one stretch of it. The speed probe runs
    // before and after every slice; each slice's timings are scaled by
    // the mean of its two probes (see `probe`).
    let mut slowdowns = vec![probe::slowdown()];
    let (mut closed_session, setup) = Session::start(&servers.next(None), plan.clone())?;
    setups.push(setup);
    let (mut open_session, setup) = Session::start(&servers.next(None), plan.clone())?;
    setups.push(setup);
    let mut scaled_setups: Vec<f64> = setups.iter().map(|s| s / slowdowns[0]).collect();
    let (mut closed, mut open) = (Closed::default(), Open::default());
    let (mut scaled_throughput, mut scaled_cpu) = (Vec::new(), Vec::new());
    // Per open-loop slice: its first latency sample and its slowdown.
    let mut open_slices = Vec::new();
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share / SLICES as f64);
    for _ in 0..SLICES {
        let windows = closed.throughput.len();
        closed_session.closed_loop(slice(CLOSED_SHARE), u64::MAX, &mut closed)?;
        slowdowns.push(probe::slowdown());
        let s = slowdowns[slowdowns.len() - 2..].iter().sum::<f64>() / 2.0;
        scaled_throughput.extend(closed.throughput[windows..].iter().map(|t| t * s));
        scaled_cpu.extend(closed.cpu_ms_per_op[windows..].iter().map(|c| c / s));

        let samples = open.latencies_ms.len();
        open_session.open_loop(args.workload.open_rate(), slice(1.0 - CLOSED_SHARE), &mut open)?;
        slowdowns.push(probe::slowdown());
        open_slices.push((samples, slowdowns[slowdowns.len() - 2..].iter().sum::<f64>() / 2.0));
    }
    // Only the part of a latency above the run's fastest answer scales with
    // the host's speed: the fastest answer is mostly the server's batching
    // window, a timer.
    let floor = open.latencies_ms.iter().copied().filter(|l| !l.is_nan()).fold(f64::MAX, f64::min);
    let mut scaled_latencies = open.latencies_ms.clone();
    for (i, &(from, s)) in open_slices.iter().enumerate() {
        let to = open_slices.get(i + 1).map_or(scaled_latencies.len(), |next| next.0);
        for l in &mut scaled_latencies[from..to] {
            *l = floor + (*l - floor) / s;
        }
    }
    let closed_stats = closed_session.control("stats")?;
    let open_stats = open_session.control("stats")?;
    let open_metrics = open_session.control("metrics")?;
    let peak_rss_mb = closed_session.peak_rss_mb()?.max(open_session.peak_rss_mb()?);
    tally.finish(closed_session)?;
    tally.finish(open_session)?;

    let mut traced = None;
    if args.trace {
        traced = Some(traced_run(args, &plan, &closed, &mut servers, &mut tally, work, scratch)?);
    } else {
        let first = setups.len();
        while setups.len() < SETUPS {
            let (session, setup) = Session::start(&servers.next(None), plan.clone())?;
            setups.push(setup);
            tally.finish(session)?;
        }
        slowdowns.push(probe::slowdown());
        let s = slowdowns[slowdowns.len() - 1];
        scaled_setups.extend(setups[first..].iter().map(|t| t / s));
    }

    let mut notes = String::new();
    let failed = verify(cdat, work, &plan, &tally, &mut notes)?;
    let partition_ok = stats_partition_holds(&closed_stats, &mut notes)?
        & stats_partition_holds(&open_stats, &mut notes)?;

    let mut metrics = Vec::new();
    let throughput = median(&closed.throughput);
    let cpu_ms_per_op = median(&closed.cpu_ms_per_op);
    let answered = |samples: &[f64]| {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|l| !l.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        sorted
    };
    let (latencies, scaled_latencies) = (answered(&open.latencies_ms), answered(&scaled_latencies));
    match &traced {
        None => {
            let percentile = |q: f64| {
                supported_percentile(&scaled_latencies, q).ok_or_else(|| {
                    format!("{} latency samples do not support p{}", latencies.len(), q * 100.0)
                })
            };
            metrics.push(("throughput_ops_per_s", "1/s", median(&scaled_throughput)));
            metrics.push(("latency_p50_ms", "ms", percentile(0.5)?));
            metrics.push(("latency_p90_ms", "ms", percentile(0.9)?));
            metrics.push(("cpu_ms_per_op", "ms", median(&scaled_cpu)));
            metrics.push(("peak_rss_mb", "MiB", peak_rss_mb));
            metrics.push(("setup_s", "s", median(&scaled_setups)));
        }
        Some((r, crosscheck_gap)) => {
            metrics =
                layer_metrics(r, &open, &open_metrics, throughput, cpu_ms_per_op, *crosscheck_gap);
        }
    }

    let mut report = format!(
        "servebench {} seed {} ({} s, trace {}): {} ops attempted, {failed} failed\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tally.attempted
    );
    let _ = writeln!(
        report,
        "  closed loop: {} requests, {} ops, per-window ops/s {:.1?}; open loop: {} requests at \
         {}/s, {} latency samples, p99 {}",
        closed.requests,
        closed.ops,
        closed.throughput,
        open.lags_ms.len(),
        args.workload.open_rate(),
        latencies.len(),
        supported_percentile(&scaled_latencies, 0.99).map_or_else(
            || "unsupported (fewer than 10 samples beyond)".into(),
            |p| format!("{p:.3} ms")
        )
    );
    let raw = |q: f64| supported_percentile(&latencies, q).unwrap_or(f64::NAN);
    let _ = writeln!(
        report,
        "  host slowdown per probe {slowdowns:.3?}; unscaled: {throughput:.1} ops/s, p50 {:.3} \
         ms, p90 {:.3} ms, {cpu_ms_per_op:.4} cpu ms/op, setup {:.4} s",
        raw(0.5),
        raw(0.9),
        median(&setups)
    );
    report.push_str(&notes);
    for (name, unit, value) in &metrics {
        let _ = writeln!(report, "  {name:<44} {value:>14.4} {unit}");
    }
    eprint!("{report}");

    let correct = failed == 0 && partition_ok;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        tally.attempted
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json::num(*value));
    }
    line.push_str("}}");
    Ok(line)
}

/// The traced half of a `--trace 1` run: the in-process replay of the
/// closed loop's requests, then the same requests through one more server
/// started with `--trace`, whose stage totals must rank like the replay's.
/// Returns the replay and the largest stage-share gap between the two.
fn traced_run(
    args: &Args,
    plan: &Arc<Plan>,
    closed: &Closed,
    servers: &mut Servers,
    tally: &mut Tally,
    work: &Path,
    scratch: &Path,
) -> Result<(Replay, f64), String> {
    let store = plan.store.then(|| work.join("replay.cdatstore"));
    let budget = Duration::from_secs_f64(args.seconds * 0.5);
    let mut r = replay::replay(plan, closed.requests, budget, store.as_deref())?;
    tally.attempted += r.ops;
    tally.checks.push(std::mem::take(&mut r.checks));
    let spans = scratch.join(format!("trace-{}.jsonl", args.workload.name()));
    replay::write_jsonl(&r.spans, &spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

    let trace_path = work.join("serve-trace.jsonl");
    let (mut session, _) = Session::start(&servers.next(Some(&trace_path)), plan.clone())?;
    let warmup = if plan.warmup { plan.templates.len() as u64 } else { 0 };
    session.closed_loop(Duration::from_secs(3600), r.requests - warmup, &mut Closed::default())?;
    tally.finish(session)?;
    let trace = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    let (ours, theirs) = (shares(&replay_stages(&r)), shares(&server_stages(&trace)?));
    let gap = ours.iter().zip(&theirs).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    let (rank_ours, rank_theirs) = (ranking(&ours), ranking(&theirs));
    let mut table = String::from("  cross-check, stage shares (replay / serve --trace):");
    for (i, stage) in STAGES.iter().enumerate() {
        let _ = write!(table, " {stage} {:.3}/{:.3}", ours[i], theirs[i]);
    }
    // Stages under 2% on both sides rank by noise; compare the rest.
    let major = |rank: &[usize]| -> Vec<usize> {
        rank.iter().copied().filter(|&i| ours[i].max(theirs[i]) >= 0.02).collect()
    };
    if major(&rank_ours) == major(&rank_theirs) {
        let _ = writeln!(table, "; ranks agree");
    } else {
        let names =
            |rank: Vec<usize>| rank.iter().map(|&i| STAGES[i]).collect::<Vec<_>>().join(">");
        let _ = writeln!(
            table,
            "; RANKS DISAGREE: replay {} vs serve {}",
            names(major(&rank_ours)),
            names(major(&rank_theirs))
        );
    }
    eprint!("{table}");
    Ok((r, gap))
}

/// Compares every answered line with the `cdat batch` reference and
/// returns the failed ops: mismatches, lines that disagree with another
/// served copy, lines no request owns, and answers never received.
fn verify(
    cdat: &Path,
    work: &Path,
    plan: &Plan,
    tally: &Tally,
    notes: &mut String,
) -> Result<u64, String> {
    let mut first: HashMap<(usize, usize), (&str, u64)> = HashMap::new();
    let mut failed = tally.missing;
    let (mut drifted, mut stray, mut errors) = (0, 0, 0);
    for checks in &tally.checks {
        drifted += checks.drifted;
        stray += checks.stray;
        errors += checks.errors;
        for (key, (suffix, count)) in &checks.served {
            match first.get_mut(key) {
                Some((seen, total)) if *seen == suffix.as_str() => *total += count,
                Some(_) => drifted += count,
                None => {
                    first.insert(*key, (suffix, *count));
                }
            }
        }
    }
    failed += drifted + stray;
    let keys: Vec<(usize, usize)> = first.keys().copied().collect();
    let items: Vec<reference::Item> = keys
        .iter()
        .map(|&(t, line)| {
            let template = &plan.templates[t];
            reference::Item {
                doc: template.reference_doc(line),
                query: template.query,
                witnesses: template.witnesses,
            }
        })
        .collect();
    let expected = reference::answer(cdat, work, &plan.docs, &items)?;
    let mut mismatched = 0;
    for (key, want) in keys.iter().zip(&expected) {
        let (got, count) = first[key];
        if got != want {
            mismatched += count;
            if mismatched == count {
                let _ = writeln!(
                    notes,
                    "  first mismatch: got {got:.200}\n              want {want:.200}"
                );
            }
        }
    }
    failed += mismatched;
    let _ = writeln!(
        notes,
        "  check: {} distinct answers vs cdat batch; {mismatched} mismatched, {drifted} drifted, \
         {stray} stray, {errors} error lines, {} missing",
        keys.len(),
        tally.missing
    );
    Ok(failed)
}

/// Checks `hits + disk_hits + misses == requests` for every family in a
/// `stats` answer.
fn stats_partition_holds(stats: &str, notes: &mut String) -> Result<bool, String> {
    let value = json::parse(stats)?;
    let Some(Value::Obj(families)) = value.get("families") else {
        return Err("stats answer without families".into());
    };
    let mut holds = true;
    for (family, counters) in families {
        let get = |k: &str| counters.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        if get("hits") + get("disk_hits") + get("misses") != get("requests") {
            holds = false;
            let _ = writeln!(notes, "  stats partition broken for {family}: {counters}");
        }
    }
    Ok(holds)
}

fn per(d: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e6 / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run. A layer the workload never
/// reaches reads 0.
fn layer_metrics(
    r: &Replay,
    open: &Open,
    open_metrics: &str,
    throughput: f64,
    cpu_ms_per_op: f64,
    crosscheck_gap: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let folds = fold(&r.spans);
    let total_of = |name: &'static str, label: &'static str| {
        folds.get(&(name, label)).map_or(Duration::ZERO, |f| f.total)
    };
    let ops = r.ops;
    let misses = |backend: &str| r.misses.get(backend).copied().unwrap_or((0, 0));
    let (bu_misses, bu_points) = misses("bottomup");
    let (bdd_misses, bdd_points) = misses("bdd");
    let parse =
        own(&folds, "format.json") + own(&folds, "format.tree") + own(&folds, "protocol.patch");
    let exposition = json::parse(open_metrics)
        .ok()
        .and_then(|v| v.get("metrics").and_then(Value::as_str).map(str::to_owned))
        .unwrap_or_default();
    let router = |name: &str, q: f64| bucket_quantile(&prometheus_buckets(&exposition, name), q);
    let mut lags = open.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    let lag_p99 =
        lags.get(((lags.len() as f64 * 0.99).ceil() as usize).max(1) - 1).copied().unwrap_or(0.0);
    let (records, append_us, append_bytes) = r.store;
    vec![
        ("format.json_us_per_op", "us", per(own(&folds, "format.json"), ops)),
        ("format.tree_us_per_op", "us", per(own(&folds, "format.tree"), ops)),
        ("format.request_bytes_per_op", "B", ratio(r.request_bytes, ops)),
        ("serve.reader_busy_ratio", "ratio", parse.as_secs_f64() / ops.max(1) as f64 * throughput),
        ("canonical.hash_us_per_op", "us", per(own(&folds, "canonical.hash"), ops)),
        (
            "canonical.canonicalize_us_per_witnessed_op",
            "us",
            per(own(&folds, "canonical.canonicalize"), r.witnessed),
        ),
        (
            "engine.self_us_per_op",
            "us",
            per(
                own(&folds, "engine.run")
                    + own(&folds, "engine.select")
                    + own(&folds, "engine.sweep"),
                ops,
            ),
        ),
        ("engine.hit_ratio", "ratio", ratio(r.hits + r.memo_hits, r.solves + r.variants)),
        ("engine.evictions", "count", r.evictions as f64),
        ("engine.cache_points", "count", r.cache_points as f64),
        ("bottomup.solve_us_per_miss", "us", per(total_of("solve", "bottomup"), bu_misses)),
        ("bottomup.front_points_per_miss", "count", ratio(bu_points, bu_misses)),
        ("bdd.solve_us_per_miss", "us", per(total_of("solve", "bdd"), bdd_misses)),
        ("bdd.compile_us_per_miss", "us", per(total_of("bdd.compile", ""), bdd_misses)),
        ("bdd.front_points_per_miss", "count", ratio(bdd_points, bdd_misses)),
        ("delta.us_per_variant", "us", per(total_of("delta", "bottomup"), r.variants)),
        ("delta.dirty_nodes_per_variant", "count", ratio(r.dirty_nodes, r.variants)),
        ("delta.subtree_hits_per_variant", "count", ratio(r.subtree_hits, r.variants)),
        ("protocol.patch_us_per_variant", "us", per(own(&folds, "protocol.patch"), r.variants)),
        ("store.append_us_per_record", "us", ratio(append_us, records)),
        ("store.bytes_per_record", "B", ratio(append_bytes, records)),
        ("store.records", "count", records as f64),
        ("protocol.render_us_per_op", "us", per(own(&folds, "protocol.render"), ops)),
        ("protocol.response_bytes_per_op", "B", ratio(r.response_bytes, ops)),
        ("router.queue_wait_p50_us", "us", router("cdat_queue_wait_us", 0.5)),
        ("router.queue_wait_p99_us", "us", router("cdat_queue_wait_us", 0.99)),
        ("router.batch_fill_p50", "count", router("cdat_batch_fill", 0.5)),
        ("router.dispatch_p99_us", "us", router("cdat_dispatch_us", 0.99)),
        ("router.shard_e2e_p99_us", "us", router("cdat_shard_e2e_us", 0.99)),
        ("client.lag_p99_ms", "ms", lag_p99),
        (
            "trace.overhead_ratio",
            "ratio",
            r.wall.as_secs_f64() * 1000.0 / ops.max(1) as f64 / cpu_ms_per_op,
        ),
        ("trace.crosscheck_share_gap", "ratio", crosscheck_gap),
    ]
}
