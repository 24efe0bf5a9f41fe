//! The two seeded workloads: their documents, the pre-rendered request
//! templates, and the order a session sends them in.
//!
//! Every input comes from `cdat_gen::decorated_dag_suite` and the seed; the
//! server only ever sees the rendered request lines.

use cdat_core::{CdpAttackTree, NodeType, TreePatch};
use cdat_engine::Query;
use cdat_format::json;
use cdat_server::protocol;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeated treelike trees after a warm-up pass: the parse-bound hit
    /// path (format, protocol and hashing do the work, solvers none).
    WarmHits,
    /// Distinct trees and DAGs plus sweeps, under a points budget and a
    /// fresh store: every solver backend, the delta path, and the cache's
    /// and store's write path.
    ColdMix,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 2] = [Workload::WarmHits, Workload::ColdMix];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (expected one of {})", names.join(", "))
        })
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHits => "serve_warm_hits",
            Workload::ColdMix => "serve_cold_mix",
        }
    }

    /// The open-loop arrival rate in requests per second: a tenth (warm)
    /// and a sixth (cold) of the closed-loop request rate the workload
    /// reached when the rates were set (2-core x86-64 box), low enough
    /// that a slow spell of a shared machine builds no backlog and cheap
    /// requests seldom queue behind heavy ones. Fixed, so a faster server
    /// meets the same load.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::WarmHits => 600.0,
            Workload::ColdMix => 50.0,
        }
    }
}

/// Requests a closed-loop session keeps outstanding.
pub const WINDOW: usize = 32;

/// Ids at and above this number are warm-up requests: `WARMUP_ID + t`
/// sends template `t`.
pub const WARMUP_ID: u64 = 1 << 40;

/// Patches per sweep request (response lines are tracked in a 64-bit
/// mask, so at most 64).
const PATCHES: usize = 10;

/// One request template.
#[derive(Debug)]
pub struct Template {
    /// The document the request carries (index into [`Plan::docs`]).
    pub doc: usize,
    /// The query it asks.
    pub query: Query,
    /// Whether it asks for witness attacks.
    pub witnesses: bool,
    /// For sweeps: per response line, the materialized variant document
    /// whose scratch solve is the reference. Empty for solves.
    pub variants: Vec<usize>,
    /// The request line after its `{"id":N,` opening, newline excluded.
    pub body: String,
}

impl Template {
    /// Response lines the request produces (ops).
    pub fn lines(&self) -> usize {
        self.variants.len().max(1)
    }

    /// The document whose reference answers response line `line`.
    pub fn reference_doc(&self, line: usize) -> usize {
        if self.variants.is_empty() {
            self.doc
        } else {
            self.variants[line]
        }
    }
}

/// A generated workload.
#[derive(Debug)]
pub struct Plan {
    /// Document texts in `cdat-format`: the served trees, then (for sweeps)
    /// the materialized variants used only as references.
    pub docs: Vec<String>,
    /// The request templates.
    pub templates: Vec<Template>,
    /// Template of the k-th request of a phase (the order repeats).
    pub order: Vec<usize>,
    /// Whether every template is sent once before the measured phases.
    pub warmup: bool,
    /// `--cache-budget` for the server, if any.
    pub cache_budget: Option<usize>,
    /// Whether the server runs with `--store` on a fresh file.
    pub store: bool,
}

impl Plan {
    /// The template request `id` sends.
    pub fn template_of(&self, id: u64) -> usize {
        if id >= WARMUP_ID {
            (id - WARMUP_ID) as usize
        } else {
            self.order[(id % self.order.len() as u64) as usize]
        }
    }

    /// Renders the complete request line (newline included) for `id`.
    pub fn render(&self, id: u64, out: &mut Vec<u8>) {
        use std::io::Write as _;
        out.clear();
        let _ = write!(out, "{{\"id\":{id},");
        out.extend_from_slice(self.templates[self.template_of(id)].body.as_bytes());
        out.push(b'\n');
    }
}

/// A SplitMix64 stream: enough randomness for query arguments and
/// patches, and stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A whole number uniform in `1..=max(1, hi)`.
    fn whole(&mut self, hi: f64) -> f64 {
        1.0 + self.below((hi.floor() as usize).max(1)) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The request body of a solve: `"tree":...,"query":...}`.
fn solve_body(text: &str, query: Query, witnesses: bool) -> String {
    format!(
        "\"tree\":\"{}\",{}{}}}",
        json::escape(text),
        protocol::query_fragment(query),
        if witnesses { ",\"witnesses\":true" } else { "" }
    )
}

fn solve(docs: &[String], doc: usize, query: Query, witnesses: bool) -> Template {
    Template {
        doc,
        query,
        witnesses,
        variants: Vec::new(),
        body: solve_body(&docs[doc], query, witnesses),
    }
}

/// Generates `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Plan {
    generate_sized(workload, seed, BLOCKS)
}

/// Generates `workload` from `seed`, with `blocks` request blocks in the
/// `serve_cold_mix` pool.
fn generate_sized(workload: Workload, seed: u64, blocks: usize) -> Plan {
    let mut rng = Rng(seed ^ 0x5E4E_BE4C);
    let mut plan = Plan {
        docs: Vec::new(),
        templates: Vec::new(),
        order: Vec::new(),
        warmup: false,
        cache_budget: None,
        store: false,
    };
    match workload {
        Workload::WarmHits => {
            // 60 trees x (dgc, cgd, edgc, min-time) with seeded arguments,
            // shuffled and cycled; the warm-up pass computes every front
            // first, so the measured phases only hit.
            let trees = cdat_gen::decorated_dag_suite(60, 60, 0.0, 1.0, seed);
            for (doc, tree) in trees.iter().enumerate() {
                plan.docs.push(cdat_format::write(tree));
                let budget: f64 = tree.cd().costs().iter().sum::<f64>() / 2.0;
                let threshold = tree.cd().max_damage() / 2.0;
                let queries = [
                    Query::Dgc(rng.whole(budget)),
                    Query::Cgd(rng.whole(threshold)),
                    Query::Edgc(rng.whole(budget)),
                    Query::MinTime,
                ];
                for query in queries {
                    plan.templates.push(solve(&plan.docs, doc, query, false));
                }
            }
            plan.order = (0..plan.templates.len()).collect();
            rng.shuffle(&mut plan.order);
            plan.warmup = true;
        }
        Workload::ColdMix => {
            // Blocks of nine requests, shuffled within the block: six
            // distinct treelike trees, one per tree family; two distinct
            // DAGs; one sweep. Fixed shares per block keep the mix, and so
            // the cost of every stretch of the run, the same for each seed
            // (drawn shares moved the latency percentiles between seeds).
            // No solved document repeats within a phase at the speed
            // measured when the pool was sized, and each phase runs on its
            // own server, so both start cold.
            let trees = cdat_gen::decorated_dag_suite(blocks * 6, 80, 0.0, 0.6, seed);
            let dags: Vec<CdpAttackTree> =
                cdat_gen::decorated_dag_suite(blocks * 4, DAG_BAS, 0.3, 1.0, seed ^ 0xDA65)
                    .into_iter()
                    .filter(|t| !t.tree().is_treelike())
                    .take(blocks * 2)
                    .collect();
            assert_eq!(dags.len(), blocks * 2, "the DAG pool must hold only non-treelike trees");
            for (i, tree) in trees.iter().enumerate() {
                plan.docs.push(cdat_format::write(tree));
                let (query, witnesses) = match i % 6 {
                    0 => (Query::Cdpf, false),
                    1 => (Query::Cdpf, true),
                    2 => (Query::Cedpf, false),
                    3 => (Query::Dgc(5.0 * (1 + rng.below(8)) as f64), false),
                    4 => (Query::MinTime, false),
                    _ => (Query::MaxProb, false),
                };
                plan.templates.push(solve(&plan.docs, i, query, witnesses));
            }
            // Treelike draws were skipped, so every DAG request goes to
            // the fused BDD backend.
            for (i, dag) in dags.iter().enumerate() {
                let doc = plan.docs.len();
                plan.docs.push(cdat_format::write(dag));
                let query = match i % 3 {
                    0 => Query::Cdpf,
                    1 => Query::Dgc(rng.whole(dag.cd().costs().iter().sum::<f64>() / 2.0)),
                    _ => Query::Cgd(rng.whole(dag.cd().max_damage() / 2.0)),
                };
                plan.templates.push(solve(&plan.docs, doc, query, false));
            }
            // Sweeps cycle over SWEPT trees, interleaved, so the first
            // SWEPT sweeps build the subtree memos and later ones reuse
            // them unless the budget evicted them. Each tree's sweeps meet
            // one shard and cost what its shape makes them, so many trees
            // keep the two shards' loads and the seed's mean cost even.
            let swept =
                cdat_gen::decorated_dag_suite(SWEPT.min(blocks), 80, 0.0, 0.2, seed ^ 0x5EE9);
            let first_doc = plan.docs.len();
            for tree in &swept {
                plan.docs.push(cdat_format::write(tree));
            }
            let first_sweep = plan.templates.len();
            for _ in 0..SWEEPS_PER_TREE {
                for (k, tree) in swept.iter().enumerate() {
                    let template = sweep(&mut plan.docs, first_doc + k, tree, &mut rng);
                    plan.templates.push(template);
                }
            }
            let sweeps = plan.templates.len() - first_sweep;
            for b in 0..blocks {
                let mut block: Vec<usize> = (6 * b..6 * b + 6).collect();
                block.extend([6 * blocks + 2 * b, 6 * blocks + 2 * b + 1]);
                block.push(first_sweep + b % sweeps);
                rng.shuffle(&mut block);
                plan.order.extend(block);
            }
            plan.cache_budget = Some(COLD_BUDGET);
            plan.store = true;
        }
    }
    plan
}

/// Request blocks in the `serve_cold_mix` pool.
const BLOCKS: usize = 1500;

/// Trees the `serve_cold_mix` sweeps cycle over, and sweeps per tree.
const SWEPT: usize = 160;
const SWEEPS_PER_TREE: usize = 5;

/// BASs per DAG in `serve_cold_mix`.
pub const DAG_BAS: usize = 16;

/// `--cache-budget` of `serve_cold_mix`, in points: well below what one
/// closed-loop phase inserts, so the cache evicts throughout.
pub const COLD_BUDGET: usize = 1_000_000;

/// A sweep of [`PATCHES`] single-cost patches on `tree`, appending each
/// materialized variant to `docs` as its reference document.
fn sweep(docs: &mut Vec<String>, doc: usize, tree: &CdpAttackTree, rng: &mut Rng) -> Template {
    use std::fmt::Write as _;
    let structure = tree.tree();
    let bas: Vec<_> = structure
        .node_ids()
        .filter(|&v| structure.node_type(v) == NodeType::Bas)
        .map(|v| (structure.name(v).to_owned(), structure.bas_of_node(v).expect("a BAS node")))
        .collect();
    let query = Query::Cdpf;
    let mut patches = String::new();
    let mut variants = Vec::with_capacity(PATCHES);
    for k in 0..PATCHES {
        let (name, id) = &bas[rng.below(bas.len())];
        let cost = (1 + rng.below(10)) as f64;
        if k > 0 {
            patches.push(',');
        }
        let _ = write!(patches, "{{\"cost\":{{\"{}\":{}}}}}", json::escape(name), json::num(cost));
        let patch = TreePatch { costs: vec![(*id, cost)], ..TreePatch::default() };
        let variant = patch.apply(tree).expect("a single finite cost edit applies");
        variants.push(docs.len());
        docs.push(cdat_format::write(&variant));
    }
    let body = format!(
        "\"op\":\"sweep\",\"tree\":\"{}\",{},\"patches\":[{patches}]}}",
        json::escape(&docs[doc]),
        protocol::query_fragment(query)
    );
    Template { doc, query, witnesses: false, variants, body }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `serve_cold_mix` plan small enough for a unit test.
    pub fn small_mix(seed: u64) -> Plan {
        generate_sized(Workload::ColdMix, seed, 12)
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let generators: [fn(u64) -> Plan; 2] = [|s| generate(Workload::WarmHits, s), small_mix];
        for generate in generators {
            let (a, b) = (generate(3), generate(3));
            assert_eq!(a.order, b.order);
            let bodies = |p: &Plan| p.templates.iter().map(|t| t.body.clone()).collect::<Vec<_>>();
            assert_eq!(bodies(&a), bodies(&b));
            assert_ne!(bodies(&a), bodies(&generate(4)));
        }
    }

    #[test]
    fn every_mix_block_holds_the_same_shares() {
        let plan = small_mix(5);
        assert_eq!(plan.order.len(), 12 * 9);
        // Templates list the trees, then the DAGs, then the sweeps.
        let kind = |t: usize| match t {
            _ if t < 6 * 12 => 0,
            _ if t < 8 * 12 => 1,
            _ => 2,
        };
        for block in plan.order.chunks(9) {
            let mut kinds = [0; 3];
            for &t in block {
                kinds[kind(t)] += 1;
                assert_eq!(plan.templates[t].variants.is_empty(), kind(t) < 2);
            }
            assert_eq!(kinds, [6, 2, 1], "trees, DAGs and sweeps per block");
        }
    }

    #[test]
    fn request_lines_carry_the_id_and_parse() {
        let plan = small_mix(1);
        let sweep = plan.order.iter().position(|&t| !plan.templates[t].variants.is_empty());
        let id = sweep.expect("every block holds a sweep") as u64;
        let mut line = Vec::new();
        plan.render(id, &mut line);
        let text = std::str::from_utf8(&line).unwrap();
        assert!(
            text.starts_with(&format!("{{\"id\":{id},\"op\":\"sweep\"")) && text.ends_with("}\n")
        );
        match protocol::parse_request(text.trim_end()) {
            Ok(protocol::Request::Delta(request)) => assert_eq!(request.patches.len(), PATCHES),
            other => panic!("expected a sweep, got {other:?}"),
        }
        assert_eq!(plan.template_of(WARMUP_ID + 3), 3);
        assert_eq!(plan.template_of(plan.order.len() as u64 + 2), plan.order[2]);
    }
}
