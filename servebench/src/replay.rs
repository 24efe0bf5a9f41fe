//! The traced run: replays a workload's requests on one thread, in process,
//! through each layer's public functions, with a span around every call.
//!
//! Spans stay in memory and are written as JSONL at the end; folding them
//! gives each layer's self time (its span minus the part its child spans
//! cover).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdat_core::canonical::{canonicalize_cd, canonicalize_cdp, hash_cd, hash_cdp};
use cdat_engine::{
    BatchRequest, CacheKey, DeltaRequest, Engine, FrontCache, FrontKind, PersistentFrontCache,
    Response, SolverBackend, SolverHint,
};
use cdat_format::json::{self, Value};
use cdat_server::protocol;

use crate::wire::{split_reply, Checks, Reply};
use crate::workload::{Plan, WARMUP_ID};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer function, e.g. `format.tree`.
    pub name: &'static str,
    /// A qualifier: the selected backend or the front family.
    pub label: &'static str,
    /// The request id the call served.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start and end, since the recorder's origin.
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        label: &'static str,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, label, op, parent, start: now, end: now });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Records a child of `parent` whose length the callee measured itself
    /// (the solver time inside one `Engine::run`). Its position inside the
    /// parent is unknown, so it is placed at the parent's start; folding
    /// uses only lengths.
    pub fn inner(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: usize,
        length: Duration,
    ) {
        let (op, start) = (self.spans[parent].op, self.spans[parent].start);
        self.spans.push(Span { name, label, op, parent: Some(parent), start, end: start + length });
    }
}

/// Writes every span as one JSON line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"label\":\"{}\",\"op\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.label,
            s.op,
            s.start.as_nanos(),
            s.end.as_nanos()
        )?;
    }
    out.flush()
}

/// Total and self time of one (name, label) pair.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Fold {
    pub total: Duration,
    pub own: Duration,
}

/// Folds spans into total and self time per (name, label).
pub fn fold(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Fold> {
    let length = |s: &Span| s.end.saturating_sub(s.start);
    let mut children = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += length(s);
        }
    }
    let mut folds: BTreeMap<(&'static str, &'static str), Fold> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(children) {
        let f = folds.entry((s.name, s.label)).or_default();
        f.total += length(s);
        f.own += length(s).saturating_sub(covered);
    }
    folds
}

/// Sums the self time of every span named `name`, whatever its label.
pub fn own(folds: &BTreeMap<(&'static str, &'static str), Fold>, name: &str) -> Duration {
    folds.iter().filter(|((n, _), _)| *n == name).map(|(_, f)| f.own).sum()
}

/// Sums the total time of every span named `name`, whatever its label.
pub fn total(folds: &BTreeMap<(&'static str, &'static str), Fold>, name: &str) -> Duration {
    folds.iter().filter(|((n, _), _)| *n == name).map(|(_, f)| f.total).sum()
}

/// What a replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// Requests and ops (response lines) replayed.
    pub requests: u64,
    pub ops: u64,
    /// Wall time of the replay loop.
    pub wall: Duration,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// `Engine::run` calls, and how many were cache hits.
    pub solves: u64,
    pub hits: u64,
    pub witnessed: u64,
    /// Per backend: misses and the front points they computed.
    pub misses: HashMap<&'static str, (u64, u64)>,
    /// Sweep variants, with their dirty nodes, reused subtree fronts and
    /// how many found the subtree memo already built.
    pub variants: u64,
    pub dirty_nodes: u64,
    pub subtree_hits: u64,
    pub memo_hits: u64,
    pub evictions: u64,
    pub cache_points: u64,
    /// Store appends: records, microseconds, bytes.
    pub store: (u64, u64, u64),
    /// The rendered lines, for the same correctness check as served ones.
    pub checks: Checks,
}

/// Replays the warm-up pass (if the workload has one) and then requests
/// `0..requests` in order, stopping early once `budget` has elapsed.
pub fn replay(
    plan: &Plan,
    requests: u64,
    budget: Duration,
    store: Option<&Path>,
) -> Result<Replay, String> {
    let memory = match plan.cache_budget {
        Some(points) => FrontCache::with_budget(1, points),
        None => FrontCache::new(1),
    };
    let engine = match store {
        Some(path) => Engine::with_persistent(
            1,
            PersistentFrontCache::open(path, memory)
                .map_err(|e| format!("cannot open store: {e}"))?,
        ),
        None => Engine::with_cache(1, memory),
    };
    let warmup = if plan.warmup { plan.templates.len() as u64 } else { 0 };
    let ids = (0..warmup).map(|t| WARMUP_ID + t).chain(0..requests);

    let mut rec = Recorder::new();
    let mut out = Replay::default();
    let mut line = Vec::new();
    let started = Instant::now();
    for id in ids {
        if id < WARMUP_ID && started.elapsed() >= budget {
            break;
        }
        plan.render(id, &mut line);
        out.request_bytes += line.len() as u64;
        let text = std::str::from_utf8(&line).expect("requests are UTF-8").trim_end();
        let template = plan.template_of(id);
        let rendered = one_request(&mut rec, &engine, &mut out, id, text)?;
        out.requests += 1;
        for (k, answer) in rendered.iter().enumerate() {
            out.ops += 1;
            out.response_bytes += answer.len() as u64 + 1;
            match split_reply(answer) {
                Some(Reply::Op { suffix, .. }) => out.checks.note(template, k, suffix),
                _ => return Err(format!("replay rendered an unattributable line {answer}")),
            }
        }
    }
    out.wall = started.elapsed();
    let stats = engine.stats();
    out.evictions = stats.evictions;
    out.cache_points = stats.points as u64;
    if let Some(metrics) = engine.store_metrics() {
        let appends = metrics.append_us.snapshot();
        out.store = (appends.count, appends.sum, metrics.append_bytes.get());
    }
    out.spans = rec.spans;
    Ok(out)
}

fn kind_hash(kind: FrontKind, tree: &cdat_core::CdpAttackTree) -> cdat_core::StructuralHash {
    match kind {
        FrontKind::Deterministic | FrontKind::MinTime => hash_cd(tree.cd()),
        FrontKind::Probabilistic | FrontKind::MaxProb => hash_cdp(tree),
    }
}

/// Runs one request line through the layer chain and returns its rendered
/// response lines.
fn one_request(
    rec: &mut Recorder,
    engine: &Engine,
    out: &mut Replay,
    id: u64,
    text: &str,
) -> Result<Vec<String>, String> {
    let root = rec.begin("request", "", id, None);

    // 1. JSON decode, including the query fields.
    let s = rec.begin("format.json", "", id, Some(root));
    let value = json::parse(text)?;
    let query = protocol::parse_query(
        value.get("query").and_then(Value::as_str).unwrap_or("cdpf"),
        value.get("arg").and_then(Value::as_f64),
    )?;
    let witnesses = matches!(value.get("witnesses"), Some(Value::Bool(true)));
    rec.end(s);
    let kind = query.kind();

    // 2. Tree text, and sweep patches.
    let s = rec.begin("format.tree", "", id, Some(root));
    let tree_text = value.get("tree").and_then(Value::as_str).ok_or("request without a tree")?;
    let tree = Arc::new(cdat_format::parse(tree_text).map_err(|e| e.to_string())?);
    rec.end(s);
    let patches = match value.get("patches") {
        Some(Value::Arr(specs)) => {
            let s = rec.begin("protocol.patch", "", id, Some(root));
            let patches = specs
                .iter()
                .map(|spec| protocol::parse_patch(spec, &tree))
                .collect::<Result<Vec<_>, _>>()?;
            rec.end(s);
            Some(patches)
        }
        _ => None,
    };

    // 3. Canonical hash, plus the canonical order for witnessed requests.
    let s = rec.begin("canonical.hash", kind.label(), id, Some(root));
    let hash = kind_hash(kind, &tree);
    rec.end(s);
    if witnesses {
        out.witnessed += 1;
        let s = rec.begin("canonical.canonicalize", kind.label(), id, Some(root));
        black_box(match kind {
            FrontKind::Deterministic | FrontKind::MinTime => canonicalize_cd(tree.cd()),
            FrontKind::Probabilistic | FrontKind::MaxProb => canonicalize_cdp(&tree),
        });
        rec.end(s);
    }
    let id_value = Value::Num(id as f64);

    // 4 and 5. Engine, solver, rendering.
    let lines = match patches {
        Some(patches) => {
            let s = rec.begin("engine.sweep", "bottomup", id, Some(root));
            let results =
                engine.sweep(&DeltaRequest::sweep(tree.clone(), query, patches).with_hash(hash));
            rec.end(s);
            for r in &results {
                rec.inner("delta", "bottomup", s, r.compute);
                out.variants += 1;
                out.dirty_nodes += r.dirty_nodes as u64;
                out.subtree_hits += r.subtree_hits as u64;
                out.memo_hits += u64::from(r.memo_hit);
            }
            let s = rec.begin("protocol.render", "", id, Some(root));
            let lines = results
                .iter()
                .enumerate()
                .map(|(k, r)| {
                    let prefix = protocol::delta_response_prefix(&id_value, Some(k), query);
                    format!("{prefix}{}}}", protocol::body_fragment(&r.response))
                })
                .collect();
            rec.end(s);
            lines
        }
        None => {
            let s = rec.begin("engine.select", "", id, Some(root));
            let backend = SolverBackend::select(SolverHint::Auto, kind, &tree)?;
            rec.end(s);
            let s = rec.begin("engine.run", backend.label(), id, Some(root));
            let request =
                BatchRequest::new(tree.clone(), query).with_witnesses(witnesses).with_hash(hash);
            let result = engine.run(&[request]).pop().ok_or("the engine answered nothing")?;
            rec.end(s);
            out.solves += 1;
            if result.cache_hit {
                out.hits += 1;
            } else {
                rec.inner("solve", backend.label(), s, result.compute);
                let points = match &result.response {
                    Response::Front(front) => front.len(),
                    _ => engine
                        .cache()
                        .peek(&CacheKey { hash, kind })
                        .and_then(|e| e.result.as_ref().ok().map(|f| f.len()))
                        .unwrap_or(0),
                };
                let miss = out.misses.entry(backend.label()).or_default();
                miss.0 += 1;
                miss.1 += points as u64;
                if backend == SolverBackend::BddFused {
                    // The structure BDD alone, timed standalone (outside
                    // the request: the fused solve compiles its own).
                    let c = rec.begin("bdd.compile", "", id, None);
                    black_box(cdat_bdd::compile_structure(tree.tree()));
                    rec.end(c);
                }
            }
            let s = rec.begin("protocol.render", "", id, Some(root));
            let prefix = protocol::response_prefix(&id_value, None, query);
            let line = format!("{prefix}{}}}", protocol::body_fragment(&result.response));
            rec.end(s);
            vec![line]
        }
    };
    rec.end(root);
    Ok(lines)
}

/// The `cdat serve --trace` stages the cross-check compares, in a fixed
/// order. The server's `cache_lookup` span is left out: it times the
/// lookup alone, and the replay has no span that times exactly that (the
/// engine's self time also covers inserting, store encoding and
/// answering, which no server span covers).
pub const STAGES: [&str; 4] = ["parse", "canonicalize", "solve", "store_append"];

/// Per-stage totals (µs) of the replay, mapped onto the server's stages.
pub fn replay_stages(r: &Replay) -> [f64; 4] {
    let folds = fold(&r.spans);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    [
        us(own(&folds, "format.json") + own(&folds, "format.tree") + own(&folds, "protocol.patch")),
        us(own(&folds, "canonical.hash") + own(&folds, "canonical.canonicalize")),
        // A sweep's own time is its memo build, which the server records
        // as `delta_build`, a solve.
        us(total(&folds, "solve") + total(&folds, "delta") + own(&folds, "engine.sweep")),
        r.store.1 as f64,
    ]
}

/// Per-stage totals (µs) of a `cdat serve --trace` JSONL file. The
/// server's `delta_build` and `delta_solve` spans count as `solve`.
pub fn server_stages(trace: &str) -> Result<[f64; 4], String> {
    let mut totals = [0.0; 4];
    for line in trace.lines() {
        let value = json::parse(line)?;
        let stage = value.get("stage").and_then(Value::as_str).ok_or("span without a stage")?;
        let dur = value.get("dur_us").and_then(Value::as_f64).ok_or("span without dur_us")?;
        let stage = match stage {
            "delta_build" | "delta_solve" => "solve",
            other => other,
        };
        if let Some(i) = STAGES.iter().position(|s| *s == stage) {
            totals[i] += dur;
        }
    }
    Ok(totals)
}

/// Each stage's share of the stages' sum.
pub fn shares(totals: &[f64; 4]) -> [f64; 4] {
    let sum: f64 = totals.iter().sum();
    totals.map(|t| if sum > 0.0 { t / sum } else { 0.0 })
}

/// Stage indices ordered by descending share.
pub fn ranking(shares: &[f64; 4]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[b].total_cmp(&shares[a]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            label: "",
            op: 0,
            parent,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("format.json", Some(0), 0, 10),
            span("engine.run", Some(0), 10, 90),
            span("solve", Some(2), 10, 70),
            span("protocol.render", Some(0), 90, 100),
            span("request", None, 100, 150),
            span("engine.run", Some(5), 100, 150),
        ];
        let folds = fold(&spans);
        let f = |name| folds[&(name, "")];
        assert_eq!(f("request"), Fold { total: Duration::from_micros(150), own: Duration::ZERO });
        assert_eq!(f("engine.run").own, Duration::from_micros(70), "80 - 60 of solve, plus 50");
        assert_eq!(f("engine.run").total, Duration::from_micros(130));
        assert_eq!(f("solve").own, Duration::from_micros(60));
        assert_eq!(
            own(&folds, "format.json") + own(&folds, "protocol.render"),
            Duration::from_micros(20)
        );
    }

    #[test]
    fn inner_spans_fold_into_their_parent() {
        let mut rec = Recorder::new();
        let root = rec.begin("engine.run", "bdd", 4, None);
        std::thread::sleep(Duration::from_millis(2));
        rec.end(root);
        rec.inner("solve", "bdd", root, Duration::from_millis(1));
        let folds = fold(&rec.spans);
        let run = folds[&("engine.run", "bdd")];
        assert_eq!(run.own, run.total - Duration::from_millis(1));
        assert_eq!(rec.spans[1].op, 4);
    }

    #[test]
    fn server_traces_fold_by_stage_and_shares_rank() {
        let trace = "{\"ts_us\":1,\"stage\":\"parse\",\"dur_us\":60,\"ok\":true}\n\
                     {\"ts_us\":2,\"stage\":\"canonicalize\",\"dur_us\":10,\"kind\":\"deterministic\"}\n\
                     {\"ts_us\":3,\"stage\":\"cache_lookup\",\"dur_us\":1,\"tier\":\"miss\"}\n\
                     {\"ts_us\":4,\"stage\":\"delta_build\",\"dur_us\":20}\n\
                     {\"ts_us\":5,\"stage\":\"delta_solve\",\"dur_us\":10}\n";
        let totals = server_stages(trace).unwrap();
        assert_eq!(totals, [60.0, 10.0, 30.0, 0.0]);
        let s = shares(&totals);
        assert_eq!(s[0], 0.6);
        assert_eq!(ranking(&s)[..3], [0, 2, 1]);
    }
}
