//! Cost, damage and probability decorations: cd-ATs and cdp-ATs.

use crate::attack::Attack;
use crate::error::AttributeError;
use crate::node::{BasId, NodeId, NodeType};
use crate::structure::NotTreelike;
use crate::tree::AttackTree;

/// A *cd-AT* `(T, c, d)`: an attack tree where every BAS has a cost and every
/// node has a damage value (Definition 4 of the paper).
///
/// * total cost `ĉ(x) = Σ_{v∈B} x_v·c(v)`,
/// * total damage `d̂(x) = Σ_{v∈N} S(x,v)·d(v)` — damage accrues at **every**
///   reached node, including internal ones, and attacks need not reach the
///   root.
///
/// Costs live only on BASs: a cost on an internal node can be simulated with a
/// dummy BAS child (Fig. 2 of the paper), whereas internal damage cannot be
/// pushed to the leaves, which is why this asymmetric decoration is the most
/// expressive simple model.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CdAttackTree {
    tree: AttackTree,
    cost: Vec<f64>,
    damage: Vec<f64>,
}

impl CdAttackTree {
    /// Starts decorating `tree` with costs and damages.
    ///
    /// Unassigned costs and damages default to `0`.
    pub fn builder(tree: AttackTree) -> CdAttackTreeBuilder {
        let cost = vec![0.0; tree.bas_count()];
        let damage = vec![0.0; tree.node_count()];
        CdAttackTreeBuilder { tree, cost, damage }
    }

    /// Builds a cd-AT from raw attribute tables.
    ///
    /// `cost` is indexed by [`BasId`], `damage` by [`NodeId`].
    ///
    /// # Errors
    ///
    /// Returns [`AttributeError::InvalidValue`] if any value is negative or
    /// not finite.
    ///
    /// # Panics
    ///
    /// Panics if the table lengths do not match the tree.
    pub fn from_parts(
        tree: AttackTree,
        cost: Vec<f64>,
        damage: Vec<f64>,
    ) -> Result<Self, AttributeError> {
        assert_eq!(cost.len(), tree.bas_count(), "cost table must be indexed by BAS id");
        assert_eq!(damage.len(), tree.node_count(), "damage table must be indexed by node id");
        for (i, &c) in cost.iter().enumerate() {
            if !(c.is_finite() && c >= 0.0) {
                return Err(AttributeError::InvalidValue {
                    node: tree.name(tree.node_of_bas(BasId::from_index(i))).to_owned(),
                    attribute: "cost",
                    value: c,
                });
            }
        }
        for (i, &d) in damage.iter().enumerate() {
            if !(d.is_finite() && d >= 0.0) {
                return Err(AttributeError::InvalidValue {
                    node: tree.name(NodeId::from_index(i)).to_owned(),
                    attribute: "damage",
                    value: d,
                });
            }
        }
        Ok(CdAttackTree { tree, cost, damage })
    }

    /// The underlying attack tree.
    #[inline]
    pub fn tree(&self) -> &AttackTree {
        &self.tree
    }

    /// The cost `c(b)` of a BAS.
    #[inline]
    pub fn cost(&self, b: BasId) -> f64 {
        self.cost[b.index()]
    }

    /// The damage `d(v)` of a node.
    #[inline]
    pub fn damage(&self, v: NodeId) -> f64 {
        self.damage[v.index()]
    }

    /// The full cost table, indexed by BAS id.
    #[inline]
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// The full damage table, indexed by node id.
    #[inline]
    pub fn damages(&self) -> &[f64] {
        &self.damage
    }

    /// Total cost `ĉ(x)` of an attack.
    pub fn cost_of(&self, attack: &Attack) -> f64 {
        // `+ 0.0` normalizes the -0.0 that empty f64 sums produce.
        attack.iter().map(|b| self.cost[b.index()]).sum::<f64>() + 0.0
    }

    /// Total damage `d̂(x)` of an attack: sum of damage over all reached nodes.
    pub fn damage_of(&self, attack: &Attack) -> f64 {
        self.tree
            .structure(attack)
            .iter()
            .zip(&self.damage)
            .filter(|(&reached, _)| reached)
            .map(|(_, &d)| d)
            .sum::<f64>()
            + 0.0
    }

    /// The largest achievable damage, `d̂(full attack)`.
    pub fn max_damage(&self) -> f64 {
        self.damage_of(&self.tree.full_attack())
    }

    /// The cost of activating every BAS.
    pub fn total_cost(&self) -> f64 {
        self.cost_of(&self.tree.full_attack())
    }

    /// Upgrades to a cdp-AT by attaching success probabilities.
    pub fn with_probabilities(self) -> CdpAttackTreeBuilder {
        let prob = vec![1.0; self.tree.bas_count()];
        CdpAttackTreeBuilder { cd: self, prob }
    }
}

/// Incremental, name-based decoration of a [`CdAttackTree`].
#[derive(Clone, Debug)]
pub struct CdAttackTreeBuilder {
    tree: AttackTree,
    cost: Vec<f64>,
    damage: Vec<f64>,
}

impl CdAttackTreeBuilder {
    fn bas_of(&self, name: &str) -> Result<BasId, AttributeError> {
        let v = self.tree.find(name).ok_or_else(|| AttributeError::UnknownNode(name.into()))?;
        if self.tree.node_type(v) != NodeType::Bas {
            return Err(AttributeError::CostOnGate(name.into()));
        }
        Ok(self.tree.bas_of_node(v).expect("leaf has a BAS id"))
    }

    /// Assigns cost `value` to the BAS called `name`.
    ///
    /// # Errors
    ///
    /// Fails if `name` is unknown, is a gate, or `value` is negative/not
    /// finite.
    pub fn cost(mut self, name: &str, value: f64) -> Result<Self, AttributeError> {
        let b = self.bas_of(name)?;
        if !(value.is_finite() && value >= 0.0) {
            return Err(AttributeError::InvalidValue {
                node: name.into(),
                attribute: "cost",
                value,
            });
        }
        self.cost[b.index()] = value;
        Ok(self)
    }

    /// Assigns damage `value` to the node called `name`.
    ///
    /// # Errors
    ///
    /// Fails if `name` is unknown or `value` is negative/not finite.
    pub fn damage(mut self, name: &str, value: f64) -> Result<Self, AttributeError> {
        let v = self.tree.find(name).ok_or_else(|| AttributeError::UnknownNode(name.into()))?;
        if !(value.is_finite() && value >= 0.0) {
            return Err(AttributeError::InvalidValue {
                node: name.into(),
                attribute: "damage",
                value,
            });
        }
        self.damage[v.index()] = value;
        Ok(self)
    }

    /// Finalizes the decoration.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (all values were validated on entry)
    /// but kept fallible for forward compatibility.
    pub fn finish(self) -> Result<CdAttackTree, AttributeError> {
        CdAttackTree::from_parts(self.tree, self.cost, self.damage)
    }
}

/// A *cdp-AT* `(T, c, d, p)`: a cd-AT where each BAS additionally has an
/// independent success probability (Definition 5 of the paper).
///
/// The damage of an attack becomes a random variable over *actualized
/// attacks* `Y_x ⪯ x` (the subsets of attempted BASs that actually succeed);
/// the metric of interest is the expected damage
/// `d̂_E(x) = E[d̂(Y_x)] = Σ_{v∈N} PS(x,v)·d(v)`.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CdpAttackTree {
    cd: CdAttackTree,
    prob: Vec<f64>,
}

impl CdpAttackTree {
    /// Builds a cdp-AT from a cd-AT and a probability table indexed by BAS id.
    ///
    /// # Errors
    ///
    /// Returns [`AttributeError::ProbabilityOutOfRange`] if any probability is
    /// outside `[0, 1]` or not finite.
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match the tree.
    pub fn from_parts(cd: CdAttackTree, prob: Vec<f64>) -> Result<Self, AttributeError> {
        assert_eq!(prob.len(), cd.tree().bas_count(), "prob table must be indexed by BAS id");
        for (i, &p) in prob.iter().enumerate() {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(AttributeError::ProbabilityOutOfRange {
                    node: cd.tree().name(cd.tree().node_of_bas(BasId::from_index(i))).to_owned(),
                    value: p,
                });
            }
        }
        Ok(CdpAttackTree { cd, prob })
    }

    /// The cost-damage layer.
    #[inline]
    pub fn cd(&self) -> &CdAttackTree {
        &self.cd
    }

    /// The underlying attack tree.
    #[inline]
    pub fn tree(&self) -> &AttackTree {
        self.cd.tree()
    }

    /// The success probability `p(b)` of a BAS.
    #[inline]
    pub fn prob(&self, b: BasId) -> f64 {
        self.prob[b.index()]
    }

    /// The full probability table, indexed by BAS id.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.prob
    }

    /// Heap bytes held by the tree and its attribute tables (capacities, not
    /// lengths) — what keeping a parsed tree alive costs beyond its handle.
    pub fn heap_bytes(&self) -> usize {
        let floats = self.cd.cost.capacity() + self.cd.damage.capacity() + self.prob.capacity();
        self.tree().heap_bytes() + floats * std::mem::size_of::<f64>()
    }

    /// Total cost `ĉ(x)` (probabilities do not affect cost: the attacker pays
    /// for every attempted BAS whether or not it succeeds).
    pub fn cost_of(&self, attack: &Attack) -> f64 {
        self.cd.cost_of(attack)
    }

    /// Exact expected damage via the probabilistic structure function; only
    /// valid on treelike trees, where BAS independence propagates.
    ///
    /// # Errors
    ///
    /// Returns [`NotTreelike`] on DAG-like trees; use the BDD-based evaluator
    /// from `cdat-enumerative` there.
    pub fn expected_damage(&self, attack: &Attack) -> Result<f64, NotTreelike> {
        let ps = self.tree().probabilistic_structure(attack, &self.prob)?;
        Ok(ps.iter().zip(self.cd.damages()).map(|(p, d)| p * d).sum())
    }

    /// Expected damage by brute-force expectation over all actualized attacks
    /// `Y_x ⪯ x` (Definition 6). Exact on **any** tree, treelike or not, and
    /// used as ground truth in tests; exponential in `|x|`.
    ///
    /// # Panics
    ///
    /// Panics if the attack activates more than 25 BASs.
    pub fn expected_damage_naive(&self, attack: &Attack) -> f64 {
        let active: Vec<BasId> = attack.iter().collect();
        let k = active.len();
        assert!(k <= 25, "naive expectation over 2^{k} actualized attacks is intractable");
        let mut expectation = 0.0;
        for mask in 0u64..(1 << k) {
            let mut y = Attack::empty(attack.universe());
            let mut weight = 1.0;
            for (j, &b) in active.iter().enumerate() {
                let p = self.prob[b.index()];
                if mask >> j & 1 == 1 {
                    y.insert(b);
                    weight *= p;
                } else {
                    weight *= 1.0 - p;
                }
            }
            if weight > 0.0 {
                expectation += weight * self.cd.damage_of(&y);
            }
        }
        expectation
    }
}

/// Incremental, name-based decoration of a [`CdpAttackTree`].
#[derive(Clone, Debug)]
pub struct CdpAttackTreeBuilder {
    cd: CdAttackTree,
    prob: Vec<f64>,
}

impl CdpAttackTreeBuilder {
    /// Assigns success probability `value` to the BAS called `name`.
    ///
    /// Unassigned BASs default to probability `1` (deterministic success).
    ///
    /// # Errors
    ///
    /// Fails if `name` is unknown, is a gate, or `value` is outside `[0, 1]`.
    pub fn probability(mut self, name: &str, value: f64) -> Result<Self, AttributeError> {
        let tree = self.cd.tree();
        let v = tree.find(name).ok_or_else(|| AttributeError::UnknownNode(name.into()))?;
        if tree.node_type(v) != NodeType::Bas {
            return Err(AttributeError::ProbabilityOnGate(name.into()));
        }
        if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
            return Err(AttributeError::ProbabilityOutOfRange { node: name.into(), value });
        }
        let b = tree.bas_of_node(v).expect("leaf has a BAS id");
        self.prob[b.index()] = value;
        Ok(self)
    }

    /// Finalizes the decoration.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`CdpAttackTree::from_parts`].
    pub fn finish(self) -> Result<CdpAttackTree, AttributeError> {
        CdpAttackTree::from_parts(self.cd, self.prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AttackTreeBuilder;

    /// The running example with the paper's attribution (Fig. 1 / Example 1).
    fn factory_cd() -> CdAttackTree {
        let mut b = AttackTreeBuilder::new();
        let ca = b.bas("ca");
        let pb = b.bas("pb");
        let fd = b.bas("fd");
        let dr = b.and("dr", [pb, fd]);
        let _ps = b.or("ps", [ca, dr]);
        let tree = b.build().unwrap();
        CdAttackTree::builder(tree)
            .cost("ca", 1.0)
            .unwrap()
            .cost("pb", 3.0)
            .unwrap()
            .cost("fd", 2.0)
            .unwrap()
            .damage("fd", 10.0)
            .unwrap()
            .damage("dr", 100.0)
            .unwrap()
            .damage("ps", 200.0)
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn example_1_cost_damage_table() {
        // The full 8-row table of Example 1.
        let cd = factory_cd();
        let t = cd.tree();
        let rows: [(&[&str], f64, f64); 8] = [
            (&[], 0.0, 0.0),
            (&["fd"], 2.0, 10.0),
            (&["pb"], 3.0, 0.0),
            (&["pb", "fd"], 5.0, 310.0),
            (&["ca"], 1.0, 200.0),
            (&["ca", "fd"], 3.0, 210.0),
            (&["ca", "pb"], 4.0, 200.0),
            (&["ca", "pb", "fd"], 6.0, 310.0),
        ];
        for (names, c, d) in rows {
            let x = t.attack_of_names(names.iter().copied()).unwrap();
            assert_eq!(cd.cost_of(&x), c, "cost of {names:?}");
            assert_eq!(cd.damage_of(&x), d, "damage of {names:?}");
        }
    }

    #[test]
    fn damage_is_nondecreasing() {
        let cd = factory_cd();
        let n = cd.tree().bas_count();
        for x in Attack::all(n) {
            for y in Attack::all(n) {
                if x.is_subset(&y) {
                    assert!(cd.damage_of(&x) <= cd.damage_of(&y));
                }
            }
        }
    }

    #[test]
    fn max_damage_and_total_cost() {
        let cd = factory_cd();
        assert_eq!(cd.max_damage(), 310.0);
        assert_eq!(cd.total_cost(), 6.0);
    }

    #[test]
    fn builder_rejects_bad_values() {
        let cd = factory_cd();
        let tree = cd.tree().clone();
        assert!(matches!(
            CdAttackTree::builder(tree.clone()).cost("dr", 1.0),
            Err(AttributeError::CostOnGate(_))
        ));
        assert!(matches!(
            CdAttackTree::builder(tree.clone()).cost("nope", 1.0),
            Err(AttributeError::UnknownNode(_))
        ));
        assert!(matches!(
            CdAttackTree::builder(tree.clone()).cost("ca", -1.0),
            Err(AttributeError::InvalidValue { .. })
        ));
        assert!(matches!(
            CdAttackTree::builder(tree.clone()).damage("ps", f64::NAN),
            Err(AttributeError::InvalidValue { .. })
        ));
        assert!(matches!(
            CdAttackTree::builder(tree).damage("nope", 0.0),
            Err(AttributeError::UnknownNode(_))
        ));
    }

    fn factory_cdp() -> CdpAttackTree {
        factory_cd()
            .with_probabilities()
            .probability("ca", 0.2)
            .unwrap()
            .probability("pb", 0.4)
            .unwrap()
            .probability("fd", 0.9)
            .unwrap()
            .finish()
            .unwrap()
    }

    #[test]
    fn example_9_expected_damage() {
        // d̂_E(0,1,1) = 0.06·0 + 0.54·10 + 0.04·0 + 0.36·310 = 117.
        //
        // Note: the paper's Example 9 prints 112 by pairing the weight 0.54
        // with damage 0 and 0.04 with damage 10, contradicting its own
        // Example 1 table where d̂(0,0,1) = 10 (attack {fd}) and
        // d̂(0,1,0) = 0 (attack {pb}). The consistent value is 117; see
        // EXPERIMENTS.md ("paper errata").
        let cdp = factory_cdp();
        let x = cdp.tree().attack_of_names(["pb", "fd"]).unwrap();
        assert!((cdp.expected_damage(&x).unwrap() - 117.0).abs() < 1e-9);
        assert!((cdp.expected_damage_naive(&x) - 117.0).abs() < 1e-9);
    }

    #[test]
    fn expected_damage_matches_naive_on_all_attacks() {
        let cdp = factory_cdp();
        for x in Attack::all(3) {
            let fast = cdp.expected_damage(&x).unwrap();
            let naive = cdp.expected_damage_naive(&x);
            assert!((fast - naive).abs() < 1e-9, "mismatch on {x:?}");
        }
    }

    #[test]
    fn certain_probabilities_recover_deterministic_damage() {
        let cd = factory_cd();
        let cdp = cd.clone().with_probabilities().finish().unwrap();
        for x in Attack::all(3) {
            assert_eq!(cdp.expected_damage(&x).unwrap(), cd.damage_of(&x));
        }
    }

    #[test]
    fn probability_validation() {
        let cd = factory_cd();
        assert!(matches!(
            cd.clone().with_probabilities().probability("ca", 1.5),
            Err(AttributeError::ProbabilityOutOfRange { .. })
        ));
        assert!(matches!(
            cd.clone().with_probabilities().probability("dr", 0.5),
            Err(AttributeError::ProbabilityOnGate(_))
        ));
        assert!(matches!(
            cd.with_probabilities().probability("nope", 0.5),
            Err(AttributeError::UnknownNode(_))
        ));
    }

    #[test]
    fn from_parts_validates_tables() {
        let cd = factory_cd();
        let tree = cd.tree().clone();
        let err = CdAttackTree::from_parts(tree.clone(), vec![1.0, -2.0, 0.0], vec![0.0; 5]);
        assert!(matches!(err, Err(AttributeError::InvalidValue { .. })));
        let ok = CdAttackTree::from_parts(tree, vec![1.0, 2.0, 0.5], vec![0.0; 5]).unwrap();
        let err = CdpAttackTree::from_parts(ok, vec![0.5, 2.0, 0.1]);
        assert!(matches!(err, Err(AttributeError::ProbabilityOutOfRange { .. })));
    }
}
