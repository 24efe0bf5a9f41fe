//! The attack-tree graph structure.

use crate::attack::Attack;
use crate::error::AttributeError;
use crate::node::{BasId, NodeId, NodeType};

/// A rooted directed acyclic graph of BAS leaves and `OR`/`AND` gates.
///
/// Build one with [`AttackTreeBuilder`](crate::AttackTreeBuilder). The node
/// ids are dense and topologically ordered (children before parents), so
/// per-node tables can be plain vectors and bottom-up passes can iterate
/// `0..node_count()` directly.
///
/// The same node may be shared by several parents; trees where that never
/// happens are *treelike* ([`is_treelike`](Self::is_treelike)), which is the
/// case the bottom-up solvers require.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AttackTree {
    pub(crate) types: Vec<NodeType>,
    pub(crate) children: Vec<Vec<NodeId>>,
    pub(crate) parents: Vec<Vec<NodeId>>,
    pub(crate) names: Vec<String>,
    pub(crate) root: NodeId,
    /// BASs in id order; `bas_nodes[b.index()]` is the node of BAS `b`.
    pub(crate) bas_nodes: Vec<NodeId>,
    /// Per node: its BAS id if it is a leaf.
    pub(crate) bas_of_node: Vec<Option<BasId>>,
    pub(crate) treelike: bool,
}

impl AttackTree {
    /// Total number of nodes `|N|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.types.len()
    }

    /// Number of basic attack steps `|B|`.
    #[inline]
    pub fn bas_count(&self) -> usize {
        self.bas_nodes.len()
    }

    /// The unique root node `R_T`.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The type `γ(v)` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tree.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeType {
        self.types[v.index()]
    }

    /// The children `Ch(v)` of node `v` (empty for BASs).
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The parents of node `v` (empty exactly for the root).
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        &self.parents[v.index()]
    }

    /// The name given to `v` at construction time.
    #[inline]
    pub fn name(&self, v: NodeId) -> &str {
        &self.names[v.index()]
    }

    /// Whether the DAG is an actual tree (every node has at most one parent).
    ///
    /// The bottom-up solvers of `cdat-bottomup` require this; DAG-like trees
    /// are handled by the BILP solver in `cdat-bilp`.
    #[inline]
    pub fn is_treelike(&self) -> bool {
        self.treelike
    }

    /// Heap bytes held by the graph tables (capacities, not lengths).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let adjacency = |table: &Vec<Vec<NodeId>>| {
            table.capacity() * size_of::<Vec<NodeId>>()
                + table.iter().map(|ids| ids.capacity() * size_of::<NodeId>()).sum::<usize>()
        };
        self.types.capacity() * size_of::<NodeType>()
            + adjacency(&self.children)
            + adjacency(&self.parents)
            + self.names.capacity() * size_of::<String>()
            + self.names.iter().map(String::capacity).sum::<usize>()
            + self.bas_nodes.capacity() * size_of::<NodeId>()
            + self.bas_of_node.capacity() * size_of::<Option<BasId>>()
    }

    /// Iterates over all node ids in topological order (children first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterates over all BAS ids.
    pub fn bas_ids(&self) -> impl Iterator<Item = BasId> + '_ {
        (0..self.bas_count()).map(BasId::from_index)
    }

    /// The node behind BAS `b`.
    #[inline]
    pub fn node_of_bas(&self, b: BasId) -> NodeId {
        self.bas_nodes[b.index()]
    }

    /// The BAS id of node `v`, if `v` is a leaf.
    #[inline]
    pub fn bas_of_node(&self, v: NodeId) -> Option<BasId> {
        self.bas_of_node[v.index()]
    }

    /// Looks a node up by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId::from_index)
    }

    /// Creates an empty attack on this tree (no BAS activated).
    pub fn empty_attack(&self) -> Attack {
        Attack::empty(self.bas_count())
    }

    /// Creates the full attack activating every BAS.
    pub fn full_attack(&self) -> Attack {
        Attack::full(self.bas_count())
    }

    /// Builds an attack from BAS node names.
    ///
    /// # Errors
    ///
    /// Returns [`AttributeError::UnknownNode`] if a name does not exist or
    /// does not refer to a BAS.
    pub fn attack_of_names<'a, I>(&self, names: I) -> Result<Attack, AttributeError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut attack = self.empty_attack();
        for name in names {
            let v = self.find(name).ok_or_else(|| AttributeError::UnknownNode(name.into()))?;
            let b = self.bas_of_node(v).ok_or_else(|| AttributeError::UnknownNode(name.into()))?;
            attack.insert(b);
        }
        Ok(attack)
    }

    /// Number of BAS descendants of `v` (counting each shared BAS once).
    ///
    /// This is the quantity `b(v)` from the paper's complexity analysis
    /// (Lemma 1).
    pub fn bas_descendants(&self, v: NodeId) -> usize {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![v];
        let mut count = 0;
        while let Some(u) = stack.pop() {
            if std::mem::replace(&mut seen[u.index()], true) {
                continue;
            }
            if self.node_type(u) == NodeType::Bas {
                count += 1;
            }
            stack.extend_from_slice(self.children(u));
        }
        count
    }

    /// Returns all node ids of the sub-DAG rooted at `v` (including `v`),
    /// in ascending (topological) order.
    pub fn descendants(&self, v: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            if std::mem::replace(&mut seen[u.index()], true) {
                continue;
            }
            stack.extend_from_slice(self.children(u));
        }
        (0..self.node_count()).filter(|&i| seen[i]).map(NodeId::from_index).collect()
    }

    /// Extracts the sub-tree `T_v` rooted at `v` as a standalone attack tree
    /// (the object the paper's correctness proofs induct over).
    ///
    /// Returns the new tree and, per original node, its id in the new tree
    /// (`None` for nodes outside `T_v`). Names, types and sharing inside the
    /// sub-DAG are preserved; BAS ids are renumbered in the new tree's order.
    pub fn subtree(&self, v: NodeId) -> (AttackTree, Vec<Option<NodeId>>) {
        let mut builder = crate::builder::AttackTreeBuilder::new();
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for u in self.descendants(v) {
            let id = match self.node_type(u) {
                NodeType::Bas => builder.bas(self.name(u)),
                ty => {
                    let kids: Vec<NodeId> = self
                        .children(u)
                        .iter()
                        .map(|c| map[c.index()].expect("children precede parents"))
                        .collect();
                    builder.gate(self.name(u), ty, kids)
                }
            };
            map[u.index()] = Some(id);
        }
        let tree = builder.build().expect("sub-tree of a valid tree is valid");
        (tree, map)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::AttackTreeBuilder;
    use crate::node::NodeType;

    fn factory() -> crate::AttackTree {
        let mut b = AttackTreeBuilder::new();
        let ca = b.bas("ca");
        let pb = b.bas("pb");
        let fd = b.bas("fd");
        let dr = b.and("dr", [pb, fd]);
        let _ps = b.or("ps", [ca, dr]);
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = factory();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.bas_count(), 3);
        assert_eq!(t.name(t.root()), "ps");
        assert_eq!(t.node_type(t.root()), NodeType::Or);
        assert!(t.is_treelike());
        let dr = t.find("dr").unwrap();
        assert_eq!(t.children(dr).len(), 2);
        assert_eq!(t.parents(dr), &[t.root()]);
        assert!(t.parents(t.root()).is_empty());
    }

    #[test]
    fn bas_universe_is_dense_and_consistent() {
        let t = factory();
        for b in t.bas_ids() {
            let v = t.node_of_bas(b);
            assert_eq!(t.bas_of_node(v), Some(b));
            assert_eq!(t.node_type(v), NodeType::Bas);
        }
        assert_eq!(t.bas_of_node(t.root()), None);
    }

    #[test]
    fn attack_of_names_roundtrip() {
        let t = factory();
        let a = t.attack_of_names(["pb", "fd"]).unwrap();
        assert_eq!(a.len(), 2);
        assert!(t.attack_of_names(["dr"]).is_err(), "gates are not BASs");
        assert!(t.attack_of_names(["nope"]).is_err());
    }

    #[test]
    fn bas_descendants_counts_shared_once() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("y");
        let g1 = b.and("g1", [x, y]);
        let g2 = b.or("g2", [x, y]);
        let root = b.and("root", [g1, g2]);
        let t = b.build().unwrap();
        assert!(!t.is_treelike());
        assert_eq!(t.bas_descendants(root), 2);
        assert_eq!(t.bas_descendants(g1), 2);
        assert_eq!(t.bas_descendants(x), 1);
    }

    #[test]
    fn descendants_are_topologically_sorted() {
        let t = factory();
        let all = t.descendants(t.root());
        assert_eq!(all.len(), 5);
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
        let dr = t.find("dr").unwrap();
        assert_eq!(t.descendants(dr).len(), 3);
    }

    #[test]
    fn subtree_extraction_preserves_structure() {
        let t = factory();
        let dr = t.find("dr").unwrap();
        let (sub, map) = t.subtree(dr);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.bas_count(), 2);
        assert_eq!(sub.name(sub.root()), "dr");
        assert_eq!(map[dr.index()], Some(sub.root()));
        assert_eq!(map[t.find("ca").unwrap().index()], None, "ca is outside T_dr");
        // Structure agrees on the shared BASs: attacking pb+fd reaches dr in
        // both trees.
        let x = sub.attack_of_names(["pb", "fd"]).unwrap();
        assert!(sub.reaches_root(&x));
        let y = sub.attack_of_names(["pb"]).unwrap();
        assert!(!sub.reaches_root(&y));
    }

    #[test]
    fn subtree_of_root_is_the_whole_tree() {
        let t = factory();
        let (sub, map) = t.subtree(t.root());
        assert_eq!(sub.node_count(), t.node_count());
        for v in t.node_ids() {
            let nv = map[v.index()].expect("everything survives");
            assert_eq!(sub.name(nv), t.name(v));
            assert_eq!(sub.node_type(nv), t.node_type(v));
        }
    }

    #[test]
    fn subtree_preserves_sharing() {
        let mut b = AttackTreeBuilder::new();
        let x = b.bas("x");
        let y = b.bas("y");
        let g1 = b.and("g1", [x, y]);
        let g2 = b.or("g2", [x, g1]);
        let _r = b.and("r", [g2, g1]);
        let t = b.build().unwrap();
        let g2id = t.find("g2").unwrap();
        let (sub, _) = t.subtree(g2id);
        assert!(!sub.is_treelike(), "the shared x stays shared inside T_g2");
        assert_eq!(sub.bas_count(), 2);
    }

    #[test]
    fn topological_invariant_children_before_parents() {
        let t = factory();
        for v in t.node_ids() {
            for &c in t.children(v) {
                assert!(c < v, "child {c} must precede parent {v}");
            }
        }
    }
}
