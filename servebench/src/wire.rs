//! The wire client: spawns `cdat serve --stdio`, drives closed- and
//! open-loop phases over its stdin and stdout, and records every response
//! line for the correctness check.
//!
//! One session uses two threads: the caller's thread writes requests and
//! keeps time, a reader thread parses response lines and timestamps them.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::workload::{Plan, WARMUP_ID, WINDOW};

/// How long the client waits for an answer it is owed before it counts
/// the rest of the phase's answers as missing.
const PATIENCE: Duration = Duration::from_secs(60);

/// A response line, split at its correlation fields.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// The answer to a control op (`stats`, `metrics`), by its string id.
    Control(&'a str),
    /// An answer to request `id`: the sweep variant it answers, if any,
    /// and the rest of the line after the `"id"` and `"variant"` fields.
    Op { id: u64, variant: Option<usize>, suffix: &'a str },
}

fn leading_number(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    Some((s[..end].parse().ok()?, &s[end..]))
}

/// Splits a response line into its request id, sweep variant and the
/// remainder; `None` for a line no request can own (including the
/// `"id":null` answer to an unparseable request).
pub fn split_reply(line: &str) -> Option<Reply<'_>> {
    let rest = line.strip_prefix("{\"id\":")?;
    if let Some(name) = rest.strip_prefix('"') {
        return Some(Reply::Control(&name[..name.find('"')?]));
    }
    let (id, rest) = leading_number(rest)?;
    let rest = rest.strip_prefix(',')?;
    match rest.strip_prefix("\"variant\":") {
        Some(rest) => {
            let (variant, rest) = leading_number(rest)?;
            let variant = usize::try_from(variant).ok()?;
            Some(Reply::Op { id, variant: Some(variant), suffix: rest.strip_prefix(',')? })
        }
        None => Some(Reply::Op { id, variant: None, suffix: rest }),
    }
}

/// What the reader saw, for the correctness check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Per (template, response line): the first served remainder and how
    /// many served lines were byte-equal to it.
    pub served: HashMap<(usize, usize), (String, u64)>,
    /// Lines that differed from the first served copy of the same
    /// (template, response line).
    pub drifted: u64,
    /// Lines no request owns: unparseable, unknown id or variant, repeats.
    pub stray: u64,
    /// Error lines (also failures, since the reference has none).
    pub errors: u64,
    /// Lines received for requests that never received all of theirs.
    pub partial: u64,
}

impl Checks {
    /// Records one answer line against request `id`; returns whether it
    /// completed the request, or `None` when no request owns the line.
    /// `received` holds the lines seen per request, as a bit mask, until
    /// the request completes.
    fn record(
        &mut self,
        plan: &Plan,
        received: &mut HashMap<u64, u64>,
        id: u64,
        variant: Option<usize>,
        suffix: &str,
    ) -> Option<bool> {
        let template = plan.template_of(id);
        let lines = plan.templates.get(template)?.lines();
        let sweep = !plan.templates[template].variants.is_empty();
        let line = match variant {
            None if !sweep => 0,
            Some(v) if sweep && v < lines => v,
            _ => return None,
        };
        let mask = received.entry(id).or_insert(0);
        if *mask & (1 << line) != 0 {
            return None;
        }
        *mask |= 1 << line;
        let done = mask.count_ones() as usize == lines;
        if done {
            // A completed request keeps a full mask, so a repeated answer
            // is stray rather than the start of a new request.
            *mask = u64::MAX;
        }
        self.note(template, line, suffix);
        Some(done)
    }

    /// Notes one answer to (template, response line).
    pub fn note(&mut self, template: usize, line: usize, suffix: &str) {
        if suffix.contains("\"error\":") {
            self.errors += 1;
        }
        match self.served.get_mut(&(template, line)) {
            Some((first, count)) if first == suffix => *count += 1,
            Some(_) => self.drifted += 1,
            None => {
                self.served.insert((template, line), (suffix.to_owned(), 1));
            }
        }
    }
}

enum Event {
    /// Request `id` received its last response line at `at`.
    Done {
        id: u64,
        at: Instant,
    },
    Control {
        id: String,
        line: String,
    },
    Closed,
}

fn read_loop(
    stdout: ChildStdout,
    plan: Arc<Plan>,
    tx: Sender<Event>,
    arrivals: Arc<Mutex<Vec<Instant>>>,
) -> Checks {
    let mut reader = BufReader::with_capacity(1 << 16, stdout);
    let mut buf = String::new();
    let mut checks = Checks::default();
    let mut received: HashMap<u64, u64> = HashMap::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = Instant::now();
        let line = buf.trim_end_matches(['\n', '\r']);
        match split_reply(line) {
            Some(Reply::Control(id)) => {
                let _ = tx.send(Event::Control { id: id.to_owned(), line: line.to_owned() });
            }
            Some(Reply::Op { id, variant, suffix }) => {
                match checks.record(&plan, &mut received, id, variant, suffix) {
                    Some(done) => {
                        arrivals.lock().expect("the arrival log is never poisoned").push(at);
                        if done {
                            let _ = tx.send(Event::Done { id, at });
                        }
                    }
                    None => checks.stray += 1,
                }
            }
            None => checks.stray += 1,
        }
    }
    checks.partial =
        received.values().filter(|&&m| m != u64::MAX).map(|m| u64::from(m.count_ones())).sum();
    let _ = tx.send(Event::Closed);
    checks
}

/// How to start the server.
#[derive(Clone, Debug)]
pub struct Server {
    /// The `cdat` executable.
    pub exe: PathBuf,
    /// Its arguments (`serve --stdio ...`).
    pub args: Vec<String>,
}

/// What the closed-loop slices of a phase measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// Requests sent (ids `0..requests`) and ops (response lines)
    /// received, drains included.
    pub requests: u64,
    pub ops: u64,
    /// Per window: ops received per second, and server CPU (user +
    /// system) per op received, in milliseconds.
    pub throughput: Vec<f64>,
    pub cpu_ms_per_op: Vec<f64>,
}

/// What the open-loop slices of a phase measured.
#[derive(Debug, Default)]
pub struct Open {
    /// Per request: last answer's arrival minus the time it was due to be
    /// sent, in milliseconds (`NaN` if never answered).
    pub latencies_ms: Vec<f64>,
    /// Per request: how late it was actually sent, in milliseconds.
    pub lags_ms: Vec<f64>,
}

/// A running server and the client's state for it.
pub struct Session {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<Event>,
    reader: Option<JoinHandle<Checks>>,
    arrivals: Arc<Mutex<Vec<Instant>>>,
    plan: Arc<Plan>,
    line: Vec<u8>,
    /// Response lines asked for, per request not yet complete.
    owed: HashMap<u64, usize>,
    /// The id the next measured request gets: each slice of a phase
    /// carries on from the previous one.
    next_id: u64,
    /// Response lines asked for over the session's life.
    pub ops_sent: u64,
}

impl Session {
    /// Spawns the server and waits until it is ready: it answered a
    /// `stats` op and, for workloads with a warm-up, every template once.
    /// Returns the session and how many seconds that took from the spawn.
    pub fn start(server: &Server, plan: Arc<Plan>) -> Result<(Session, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(&server.exe)
            .args(&server.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", server.exe.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, events) = channel();
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let reader = {
            let (plan, arrivals) = (plan.clone(), arrivals.clone());
            std::thread::spawn(move || read_loop(stdout, plan, tx, arrivals))
        };
        let mut session = Session {
            child,
            stdin,
            events,
            reader: Some(reader),
            arrivals,
            plan,
            line: Vec::with_capacity(1 << 16),
            owed: HashMap::new(),
            next_id: 0,
            ops_sent: 0,
        };
        session.control("stats")?;
        if session.plan.warmup {
            for t in 0..session.plan.templates.len() as u64 {
                session.send(WARMUP_ID + t)?;
            }
            let deadline = Instant::now() + PATIENCE;
            while !session.owed.is_empty() && session.done(deadline)?.is_some() {}
        }
        Ok((session, started.elapsed().as_secs_f64()))
    }

    fn write(&mut self) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin stays open until finish");
        stdin.write_all(&self.line).map_err(|e| format!("cannot write to the server: {e}"))
    }

    fn send(&mut self, id: u64) -> Result<(), String> {
        self.plan.render(id, &mut self.line);
        let lines = self.plan.templates[self.plan.template_of(id)].lines();
        self.owed.insert(id, lines);
        self.ops_sent += lines as u64;
        self.write()
    }

    /// The next event before `deadline`; `None` once it passed.
    fn event(&mut self, deadline: Instant) -> Result<Option<Event>, String> {
        let timeout = deadline.saturating_duration_since(Instant::now());
        match self.events.recv_timeout(timeout) {
            Ok(Event::Done { id, at }) => {
                self.owed.remove(&id);
                Ok(Some(Event::Done { id, at }))
            }
            Ok(Event::Closed) | Err(RecvTimeoutError::Disconnected) => {
                Err("the server closed its output while answers were owed".into())
            }
            Ok(control) => Ok(Some(control)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
        }
    }

    /// The next completed request before `deadline`: (id, arrival of its
    /// last line); `None` once the deadline passed.
    fn done(&mut self, deadline: Instant) -> Result<Option<(u64, Instant)>, String> {
        match self.event(deadline)? {
            Some(Event::Done { id, at }) => Ok(Some((id, at))),
            Some(Event::Control { line, .. }) => Err(format!("unexpected control answer {line}")),
            Some(Event::Closed) | None => Ok(None),
        }
    }

    /// Sends the control op `op` and returns its answer line.
    pub fn control(&mut self, op: &str) -> Result<String, String> {
        self.line.clear();
        self.line.extend_from_slice(format!("{{\"op\":\"{op}\",\"id\":\"{op}\"}}\n").as_bytes());
        self.write()?;
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.event(deadline)? {
                Some(Event::Control { id, line }) if id == op => return Ok(line),
                Some(Event::Done { .. }) => {}
                Some(_) => return Err(format!("unexpected control answer while waiting for {op}")),
                None => return Err(format!("the server did not answer {op}")),
            }
        }
    }

    /// The server's user + system CPU time so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Fields after the parenthesised command name, starting at field 3.
        let fields: Vec<&str> =
            stat[stat.rfind(')').ok_or("malformed stat")? + 1..].split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).ok_or("bad stat");
        // utime and stime are fields 14 and 15, in USER_HZ (100) ticks.
        Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
    }

    /// The server's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    fn take_arrivals(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.arrivals.lock().expect("the arrival log is never poisoned"))
    }

    /// One closed-loop slice, added to `into`: keeps [`WINDOW`] requests
    /// outstanding, sending the next one each time a request completes;
    /// stops sending after `duration` or once request id `limit` is
    /// reached, whichever comes first, then waits for every owed answer.
    /// Throughput and CPU are measured per window of about a second; the
    /// phase reports its median window, so a burst of outside load on a
    /// shared machine moves a few windows, not the result.
    pub fn closed_loop(
        &mut self,
        duration: Duration,
        limit: u64,
        into: &mut Closed,
    ) -> Result<(), String> {
        self.take_arrivals();
        let start = Instant::now();
        let stop = start + duration;
        let windows = (duration.as_secs_f64().round() as usize).max(1);
        let window = duration / windows as u32;
        let mut cpu = vec![self.cpu_seconds()?];
        let (mut next, mut outstanding) = (self.next_id, 0usize);
        while outstanding < WINDOW && next < limit {
            self.send(next)?;
            next += 1;
            outstanding += 1;
        }
        while outstanding > 0 {
            // Wake at each window boundary to sample the server's CPU.
            let boundary = start + window * cpu.len() as u32;
            let sampling = cpu.len() <= windows;
            let wake = if sampling { boundary } else { Instant::now() + PATIENCE };
            match self.done(wake)? {
                Some(_) => {
                    outstanding -= 1;
                    if next < limit && Instant::now() < stop {
                        self.send(next)?;
                        next += 1;
                        outstanding += 1;
                    }
                }
                None if sampling => {}
                None => break,
            }
            if sampling && Instant::now() >= boundary {
                cpu.push(self.cpu_seconds()?);
            }
        }
        let arrivals = self.take_arrivals();
        for w in 1..cpu.len() {
            let (from, to) = (start + window * (w as u32 - 1), start + window * w as u32);
            let ops = arrivals.iter().filter(|&&at| from <= at && at < to).count();
            into.throughput.push(ops as f64 / window.as_secs_f64());
            into.cpu_ms_per_op.push((cpu[w] - cpu[w - 1]) * 1000.0 / ops.max(1) as f64);
        }
        into.requests = next;
        into.ops += arrivals.len() as u64;
        self.next_id = next;
        Ok(())
    }

    /// One open-loop slice, added to `into`: sends requests on a fixed
    /// schedule, `rate` per second for `duration`, whatever the server's
    /// progress; each request's latency runs from when it was due, so a
    /// stall also delays every later request's measurement.
    pub fn open_loop(
        &mut self,
        rate: f64,
        duration: Duration,
        into: &mut Open,
    ) -> Result<(), String> {
        let requests = (rate * duration.as_secs_f64()).floor() as u64;
        let schedule = Schedule { start: Instant::now(), rate };
        let first = self.next_id;
        let mut latencies_ms = vec![f64::NAN; requests as usize];
        let (mut next, mut completed) = (0u64, 0u64);
        while completed < requests {
            let wake = if next < requests {
                let due = schedule.due(next);
                let now = Instant::now();
                if now >= due {
                    into.lags_ms.push(millis(now - due));
                    self.send(first + next)?;
                    next += 1;
                    continue;
                }
                due
            } else {
                Instant::now() + PATIENCE
            };
            match self.done(wake)? {
                Some((id, at)) => {
                    let k = id - first;
                    latencies_ms[k as usize] = schedule.latency_ms(k, at);
                    completed += 1;
                }
                None if next >= requests => break,
                None => {}
            }
        }
        into.latencies_ms.extend(latencies_ms);
        self.next_id = first + requests;
        Ok(())
    }

    /// Closes the server's input, waits for it to answer what is pending
    /// and exit, and returns what the reader saw plus the answers still
    /// missing.
    pub fn finish(mut self) -> Result<(Checks, u64), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + PATIENCE;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let checks = self
            .reader
            .take()
            .expect("joined once")
            .join()
            .map_err(|_| "the reader thread panicked")?;
        while let Ok(event) = self.events.try_recv() {
            if let Event::Done { id, .. } = event {
                self.owed.remove(&id);
            }
        }
        let owed: u64 = self.owed.values().map(|&n| n as u64).sum();
        let missing = owed - checks.partial.min(owed);
        Ok((checks, missing))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // On an error path the server may still run: stop it and reap it.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// The open-loop arrival schedule: request `k` is due at `start + k/rate`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// Latency of request `k` answered at `at`, timed from when it was due
    /// (not from when it was sent).
    pub fn latency_ms(&self, k: u64, at: Instant) -> f64 {
        millis(at.saturating_duration_since(self.due(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::small_mix;
    use crate::workload::{generate, Workload};

    #[test]
    fn replies_split_at_id_and_variant() {
        assert_eq!(
            split_reply(r#"{"id":12,"query":"cdpf","front":[[0,0]]}"#),
            Some(Reply::Op { id: 12, variant: None, suffix: r#""query":"cdpf","front":[[0,0]]}"# })
        );
        assert_eq!(
            split_reply(r#"{"id":3,"variant":39,"query":"cdpf","front":[]}"#),
            Some(Reply::Op { id: 3, variant: Some(39), suffix: r#""query":"cdpf","front":[]}"# })
        );
        assert_eq!(split_reply(r#"{"id":"stats","stats":{}}"#), Some(Reply::Control("stats")));
        assert_eq!(split_reply(r#"{"id":null,"error":"bad JSON"}"#), None);
        assert_eq!(split_reply("garbage"), None);
    }

    #[test]
    fn answers_match_requests_by_id_and_sweep_variant() {
        let plan = small_mix(2);
        let sweep = plan.order.iter().position(|&t| !plan.templates[t].variants.is_empty());
        // Two requests for the same sweep, one pass through the order apart.
        let first = sweep.expect("every block holds a sweep") as u64;
        let again = first + plan.order.len() as u64;
        let lines = plan.templates[plan.template_of(first)].lines();
        let (mut checks, mut received) = (Checks::default(), HashMap::new());
        // Variants arrive in any order; the request completes on the last.
        for v in (0..lines).rev() {
            let done = checks.record(&plan, &mut received, first, Some(v), "x}");
            assert_eq!(done, Some(v == 0));
        }
        // A repeated variant, a variant past the end, and a sweep answer
        // without a variant belong to no request.
        assert_eq!(checks.record(&plan, &mut received, again, Some(1), "x}"), Some(false));
        assert_eq!(checks.record(&plan, &mut received, again, Some(1), "x}"), None);
        assert_eq!(checks.record(&plan, &mut received, again, Some(lines), "x}"), None);
        assert_eq!(checks.record(&plan, &mut received, again, None, "x}"), None);

        let solves = generate(Workload::WarmHits, 2);
        let (mut checks, mut received) = (Checks::default(), HashMap::new());
        assert_eq!(checks.record(&solves, &mut received, 0, None, "a}"), Some(true));
        assert_eq!(checks.record(&solves, &mut received, 0, Some(0), "a}"), None);
        // A repeated answer to a completed request is stray.
        assert_eq!(checks.record(&solves, &mut received, 0, None, "a}"), None);
        // The same template answered twice with different bytes drifts.
        let again = solves.order.len() as u64;
        assert_eq!(checks.record(&solves, &mut received, again, None, "b}"), Some(true));
        assert_eq!(checks.drifted, 1);
        assert_eq!(checks.served[&(solves.order[0], 0)], ("a}".to_owned(), 1));
    }

    #[test]
    fn latency_runs_from_the_due_time_so_a_stall_delays_later_requests() {
        let start = Instant::now();
        let schedule = Schedule { start, rate: 1000.0 }; // one request per ms
                                                         // The server stalls: requests 0..5 all answer at t = 10 ms. Each
                                                         // one's latency counts the time it waited behind the stall, not
                                                         // the time since it happened to be sent.
        let stalled = start + Duration::from_millis(10);
        let latencies: Vec<f64> = (0..5).map(|k| schedule.latency_ms(k, stalled)).collect();
        for (k, latency) in latencies.iter().enumerate() {
            assert!((latency - (10.0 - k as f64)).abs() < 1e-6, "{k}: {latency}");
        }
        // An answer that beats its due time (impossible, but clock
        // arithmetic must not underflow) reads zero.
        assert_eq!(schedule.latency_ms(50, start), 0.0);
    }
}
