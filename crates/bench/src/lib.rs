//! Shared harness utilities for the benchmark suite and the `experiments`
//! binary that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use cdat_core::{CdAttackTree, CdpAttackTree};
use cdat_pareto::ParetoFront;

/// Times a closure once, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Mean and (population) standard deviation of a sample of durations, in
/// seconds — the format of the paper's Table III.
pub fn mean_std(samples: &[Duration]) -> (f64, f64) {
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    let mean = secs.iter().sum::<f64>() / secs.len() as f64;
    let var = secs.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / secs.len() as f64;
    (mean, var.sqrt())
}

/// Formats a duration like the paper ("0.044s", "<0.01s", "34h").
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        "<0.01s".to_owned()
    } else if s < 120.0 {
        format!("{s:.3}s")
    } else if s < 7200.0 {
        format!("{:.1}min", s / 60.0)
    } else {
        format!("{:.1}h", s / 3600.0)
    }
}

/// Renders a front as the paper's per-figure table rows:
/// `attack BASs | cost | damage | top`.
pub fn front_rows(cd: &CdAttackTree, front: &ParetoFront) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>10} {:>10} {:>5}  attack", "cost", "damage", "top");
    for e in front.entries() {
        let (bas_list, top) = match &e.witness {
            Some(w) => {
                let names: Vec<String> = w
                    .iter()
                    .map(|b| {
                        let v = cd.tree().node_of_bas(b);
                        // Prefer the paper's compact b<i> indices when the
                        // model uses numbered BASs; otherwise full names.
                        let _ = v;
                        format!("b{}", b.index() + 1)
                    })
                    .collect();
                let top = if cd.tree().reaches_root(w) { "y" } else { "n" };
                (format!("{{{}}}", names.join(",")), top)
            }
            None => ("-".to_owned(), "?"),
        };
        let _ =
            writeln!(out, "{:>10} {:>10} {:>5}  {}", e.point.cost, e.point.damage, top, bas_list);
    }
    out
}

/// Summary statistics over per-instance runtimes, as in Fig. 7d.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Fastest instance, seconds.
    pub min: f64,
    /// Mean over instances, seconds.
    pub mean: f64,
    /// Slowest instance, seconds.
    pub max: f64,
}

impl RunStats {
    /// Computes min/mean/max of a set of durations.
    pub fn of(samples: &[Duration]) -> RunStats {
        if samples.is_empty() {
            return RunStats::default();
        }
        let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        RunStats {
            min: secs.iter().copied().fold(f64::INFINITY, f64::min),
            mean: secs.iter().sum::<f64>() / secs.len() as f64,
            max: secs.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// The solvers compared across the experiments: the paper's three plus the
/// BDD-fused backend (exact on DAGs, both query families).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Method {
    /// Bottom-up propagation (treelike only).
    BottomUp,
    /// BDD-fused front computation (any shape, any family; `None` only
    /// when the decision diagram exceeds its node budget).
    BddFused,
    /// Bi-objective integer linear programming (deterministic only).
    Bilp,
    /// Exhaustive enumeration.
    Enumerative,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Method::BottomUp => "BU",
            Method::BddFused => "BDD",
            Method::Bilp => "BILP",
            Method::Enumerative => "Enum",
        };
        f.write_str(s)
    }
}

/// The batch-engine reference workload shared by the `engine_batch`
/// criterion bench and `experiments bench-json`: CDPF over 120 treelike ATs
/// from the Fig.-7 generator (targets 1..=40, three per target, fixed
/// seeds). One definition keeps the committed perf baseline
/// (`BENCH_baseline.json`) and the criterion bench measuring the same
/// scenario.
pub fn engine_batch_requests() -> Vec<cdat_engine::BatchRequest> {
    use rand::prelude::*;
    let suite = cdat_gen::generate_suite(cdat_gen::SuiteConfig {
        treelike: true,
        max_target: 40,
        per_target: 3,
        seed: 77,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(4321);
    suite
        .into_iter()
        .map(|tree| {
            let cdp = cdat_gen::decorate_prob(tree, &mut rng);
            cdat_engine::BatchRequest::new(std::sync::Arc::new(cdp), cdat_engine::Query::Cdpf)
        })
        .collect()
}

/// A deterministic grid of single-cost-edit patches against `base`:
/// variant `i` reprices BAS `i % n` to its base cost plus surcharge
/// `i / n + 1`, cycling every BAS through every surcharge. Every patch
/// materializes (no defends), so a per-variant scratch solve of
/// [`TreePatch::apply`](cdat_core::TreePatch::apply) is the reference an
/// incremental sweep must answer identically. Shared by the
/// `whatif_sweep` criterion bench and the `experiments` `sensitivity` /
/// `bench-json` targets.
pub fn whatif_sweep_patches(base: &CdpAttackTree, variants: usize) -> Vec<cdat_core::TreePatch> {
    use cdat_core::{BasId, TreePatch};
    let n = base.tree().bas_count();
    (0..variants)
        .map(|i| {
            let bas = BasId::new(i % n);
            let cost = base.cd().cost(bas) + (i / n + 1) as f64;
            TreePatch { costs: vec![(bas, cost)], ..TreePatch::default() }
        })
        .collect()
}

/// The incremental what-if reference tree for the `whatif_sweep_1000`
/// bench-json pair and the `whatif_sweep` criterion bench: a balanced
/// alternating OR/AND tree of fanout 3 and depth 5 (243 BASs, 364 nodes),
/// small-integer costs, and — like the paper's case studies — damage
/// concentrated at the root and the top two gate levels. The few distinct
/// attainable damage totals keep every staircase front small, so per-node
/// solve cost stays roughly uniform across levels and a single-leaf edit
/// (6 dirty nodes of 364) costs a small fraction of the scratch solve:
/// the regime the subtree-front memo exists for. Had the damages been
/// spread over every node instead, the near-root fronts would dwarf the
/// rest and the always-dirty root path would dominate both sides of the
/// comparison.
pub fn whatif_sweep_tree() -> std::sync::Arc<CdpAttackTree> {
    use cdat_core::{AttackTreeBuilder, NodeId, NodeType};
    use rand::prelude::*;
    fn grow(b: &mut AttackTreeBuilder, depth: usize, and: bool, next: &mut usize) -> NodeId {
        let id = *next;
        *next += 1;
        if depth == 0 {
            return b.bas(&format!("b{id}"));
        }
        let kids: Vec<NodeId> = (0..3).map(|_| grow(b, depth - 1, !and, next)).collect();
        if and {
            b.and(&format!("g{id}"), kids)
        } else {
            b.or(&format!("g{id}"), kids)
        }
    }
    let mut b = AttackTreeBuilder::new();
    grow(&mut b, 5, false, &mut 0);
    let tree = b.build().expect("balanced alternating tree is a valid treelike AT");
    let mut depth = vec![0usize; tree.node_count()];
    let mut order: Vec<NodeId> = vec![tree.root()];
    while let Some(v) = order.pop() {
        for &c in tree.children(v) {
            depth[c.index()] = depth[v.index()] + 1;
            order.push(c);
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51EE9);
    let costs: Vec<f64> = (0..tree.bas_count()).map(|_| rng.gen_range(1..=6) as f64).collect();
    let damages: Vec<f64> = (0..tree.node_count())
        .map(|i| match depth[i] {
            0 => 50.0,
            1 => [10.0, 20.0, 40.0][rng.gen_range(0..3usize)],
            2 if tree.node_type(NodeId::new(i)) != NodeType::Bas => {
                [0.0, 5.0, 10.0][rng.gen_range(0..3usize)]
            }
            _ => 0.0,
        })
        .collect();
    let probs: Vec<f64> =
        (0..tree.bas_count()).map(|_| rng.gen_range(1..=10) as f64 / 10.0).collect();
    let cd = CdAttackTree::from_parts(tree, costs, damages).expect("grid attributes are valid");
    std::sync::Arc::new(CdpAttackTree::from_parts(cd, probs).expect("grid probabilities are valid"))
}

/// The same reference workload shaped for the serving router: one
/// [`RouteRequest`](cdat_server::RouteRequest) per tree, numeric-id
/// prefixes, shared by the `server_throughput` criterion bench and the
/// `serve-sweep` / `bench-json` experiments targets.
pub fn server_route_requests() -> Vec<cdat_server::RouteRequest> {
    engine_batch_requests()
        .into_iter()
        .enumerate()
        .map(|(i, request)| cdat_server::RouteRequest {
            tree: request.tree,
            query: request.query,
            hint: request.hint,
            witnesses: request.witnesses,
            prefix: format!("{{\"id\":{i}"),
            hash: None,
        })
        .collect()
}

/// A deep AND chain: `depth` stacked binary AND gates, each adding one BAS,
/// with the Fig.-7 random attributes (fixed seed). Every gate re-combines
/// the whole accumulated front, so the bottom-up runtime is dominated by the
/// gate-combine kernel — the `kernel_combine` bench and the
/// `kernel_*` bench-json scenarios run the merge kernels and the sort-based
/// oracle over these trees.
pub fn kernel_and_chain(depth: usize) -> CdAttackTree {
    use cdat_core::AttackTreeBuilder;
    use rand::prelude::*;
    let mut b = AttackTreeBuilder::new();
    let mut acc = b.bas("b0");
    for i in 1..=depth {
        let leaf = b.bas(&format!("b{i}"));
        acc = b.and(&format!("g{i}"), [acc, leaf]);
    }
    let tree = b.build().expect("chain is a valid treelike AT");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAD);
    cdat_gen::decorate(tree, &mut rng)
}

/// A single wide OR gate over `fanout` BASs: the n-ary fold re-combines a
/// front that grows with every child, the worst case for the per-gate
/// accumulator.
pub fn kernel_wide_or(fanout: usize) -> CdAttackTree {
    use cdat_core::AttackTreeBuilder;
    use rand::prelude::*;
    let mut b = AttackTreeBuilder::new();
    let leaves: Vec<_> = (0..fanout).map(|i| b.bas(&format!("b{i}"))).collect();
    b.or("root", leaves);
    let tree = b.build().expect("wide OR is a valid treelike AT");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0A);
    cdat_gen::decorate(tree, &mut rng)
}

/// An AND of two wide ORs (`fanout` BASs each): both children build large
/// fronts, and the root multiplies them — the "large mixed fronts" product
/// where merge-vs-materialize matters most.
pub fn kernel_or_product(fanout: usize) -> CdAttackTree {
    use cdat_core::AttackTreeBuilder;
    use rand::prelude::*;
    let mut b = AttackTreeBuilder::new();
    let left: Vec<_> = (0..fanout).map(|i| b.bas(&format!("l{i}"))).collect();
    let right: Vec<_> = (0..fanout).map(|i| b.bas(&format!("r{i}"))).collect();
    let l = b.or("left", left);
    let r = b.or("right", right);
    b.and("root", [l, r]);
    let tree = b.build().expect("OR product is a valid treelike AT");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF0);
    cdat_gen::decorate(tree, &mut rng)
}

/// Runs one deterministic CDPF with the given method; `None` when the method
/// does not apply to the tree shape or size.
pub fn run_det(method: Method, cd: &CdAttackTree) -> Option<(ParetoFront, Duration)> {
    match method {
        Method::BottomUp => {
            if !cd.tree().is_treelike() {
                return None;
            }
            let (front, t) = timed(|| cdat_bottomup::cdpf(cd).expect("treelike"));
            Some((front, t))
        }
        Method::BddFused => {
            let (front, t) = timed(|| cdat_bdd::fuse::cdpf(cd));
            front.ok().map(|front| (front, t))
        }
        Method::Bilp => {
            let (front, t) = timed(|| cdat_bilp::cdpf(cd));
            Some((front, t))
        }
        Method::Enumerative => {
            if cd.tree().bas_count() > cdat_enumerative::MAX_ENUM_BAS {
                return None;
            }
            let (front, t) = timed(|| cdat_enumerative::cdpf(cd, false));
            Some((front, t))
        }
    }
}

/// Runs one probabilistic CEDPF with the given method; `None` when the
/// method does not apply.
pub fn run_prob(method: Method, cdp: &CdpAttackTree) -> Option<(ParetoFront, Duration)> {
    match method {
        Method::BottomUp => {
            if !cdp.tree().is_treelike() {
                return None;
            }
            let (front, t) = timed(|| cdat_bottomup::cedpf(cdp).expect("treelike"));
            Some((front, t))
        }
        Method::BddFused => {
            let (front, t) = timed(|| cdat_bdd::fuse::cedpf(cdp));
            front.ok().map(|front| (front, t))
        }
        // BILP has no probabilistic encoding (the paper's open problem; the
        // fused backend is the DAG path now).
        Method::Bilp => None,
        Method::Enumerative => {
            if cdp.tree().bas_count() > cdat_enumerative::MAX_ENUM_BAS {
                return None;
            }
            let (front, t) = if cdp.tree().is_treelike() {
                timed(|| cdat_enumerative::cedpf_treelike(cdp, false).expect("treelike"))
            } else {
                timed(|| cdat_enumerative::cedpf_dag(cdp, false))
            };
            Some((front, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_known_samples() {
        let samples = [Duration::from_secs(1), Duration::from_secs(3)];
        let (mean, std) = mean_std(&samples);
        assert_eq!(mean, 2.0);
        assert_eq!(std, 1.0);
        let (m, s) = mean_std(&[]);
        assert!(m.is_nan() && s.is_nan());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(1)), "<0.01s");
        assert_eq!(fmt_duration(Duration::from_millis(44)), "0.044s");
        assert_eq!(fmt_duration(Duration::from_secs(3600 * 34)), "34.0h");
    }

    #[test]
    fn run_stats() {
        let s = RunStats::of(&[Duration::from_secs(1), Duration::from_secs(2)]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.mean, 1.5);
    }

    #[test]
    fn methods_dispatch_on_shape() {
        let panda = cdat_models::panda();
        let server = cdat_models::dataserver();
        assert!(run_det(Method::BottomUp, &panda).is_some());
        assert!(run_det(Method::BottomUp, &server).is_none(), "DAG rejected by BU");
        assert!(run_det(Method::Bilp, &server).is_some());
        assert!(run_det(Method::BddFused, &server).is_some(), "fused handles DAGs");
    }

    #[test]
    fn all_applicable_methods_agree_on_the_factory() {
        let cd = cdat_models::factory();
        let (bu, _) = run_det(Method::BottomUp, &cd).unwrap();
        let (bdd, _) = run_det(Method::BddFused, &cd).unwrap();
        let (bilp, _) = run_det(Method::Bilp, &cd).unwrap();
        let (en, _) = run_det(Method::Enumerative, &cd).unwrap();
        assert!(bu.approx_eq(&bdd, 1e-9));
        assert!(bu.approx_eq(&bilp, 1e-9));
        assert!(bu.approx_eq(&en, 1e-9));
    }

    #[test]
    fn fused_method_agrees_with_enumeration_on_the_dag_case_study() {
        let server = cdat_models::dataserver();
        let (bdd, _) = run_det(Method::BddFused, &server).unwrap();
        let (en, _) = run_det(Method::Enumerative, &server).unwrap();
        assert!(bdd.approx_eq(&en, 1e-9));
    }
}
