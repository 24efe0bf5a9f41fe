//! The tree memo: parsed request trees, keyed by their exact text.
//!
//! Answering a repeat question about a known tree is a front-cache lookup
//! of a few microseconds, but parsing its `cdat-format` text costs tens to
//! hundreds. A warm server would spend nearly all its time re-parsing the
//! same trees, so every reader looks a request's `tree` text up here first.
//!
//! * **Exact text.** A 64-bit hash of the (JSON-decoded) text finds the
//!   entry and a full byte compare confirms it, so a hash collision can
//!   only cost a miss, never a wrong tree.
//! * **Second sighting.** A text is admitted only when it comes back: a
//!   small direct-mapped filter of text fingerprints remembers first
//!   sightings, so trees that are sent once never take memory beyond their
//!   filter slot.
//! * **Byte budget.** Every entry is charged its text plus the parsed
//!   tree's heap bytes plus a fixed overhead; admission evicts the
//!   oldest-admitted entries until the charges fit the budget.
//! * **Lazy.** Nothing is allocated before the first lookup, and parse
//!   errors are never stored.
//! * **Hashes once.** An entry computes the canonical routing hash of its
//!   tree at most once per hash family and hands it to the router, which
//!   then never hashes the tree again.
//!
//! The memo is a performance dial only: a hit returns a tree parsed from
//! byte-identical text, so no response byte depends on it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cdat_core::{CdpAttackTree, StructuralHash};
use cdat_engine::FrontKind;
use cdat_format::ParseError;
use cdat_obs::Counter;

use crate::router::routing_hash;

/// Slots of the first-sighting filter (a power of two). At 8 bytes a slot
/// the filter is 32 KiB, allocated on the first miss.
const FILTER_SLOTS: usize = 4096;

/// Bytes charged per entry on top of its text and tree: the entry and tree
/// handles, the map and queue slots.
const ENTRY_OVERHEAD: usize = 256;

/// The byte budget of a server's tree memo: the most its entries are ever
/// charged.
pub const TREE_MEMO_BUDGET: usize = 8 << 20;

/// One memoized tree: the text it was parsed from, the parsed tree, and its
/// routing hashes, each computed on first demand.
#[derive(Debug)]
struct MemoEntry {
    text: Box<str>,
    tree: Arc<CdpAttackTree>,
    charge: usize,
    /// `[hash_cd, hash_cdp]` of the tree.
    hashes: [OnceLock<StructuralHash>; 2],
}

/// A request tree as the memo hands it out: the parsed tree and, when the
/// memo holds it, the entry caching its routing hashes.
#[derive(Clone, Debug)]
pub(crate) struct MemoTree {
    tree: Arc<CdpAttackTree>,
    entry: Option<Arc<MemoEntry>>,
}

impl MemoTree {
    /// The parsed tree.
    pub(crate) fn tree(&self) -> &Arc<CdpAttackTree> {
        &self.tree
    }

    /// The tree's routing hash for queries of `kind` when the memo holds
    /// the tree (computed at most once per entry and hash family); `None`
    /// for a tree the memo did not keep, which the router hashes itself.
    pub(crate) fn hash(&self, kind: FrontKind) -> Option<StructuralHash> {
        let entry = self.entry.as_ref()?;
        let family = match kind {
            FrontKind::Deterministic | FrontKind::MinTime => 0,
            FrontKind::Probabilistic | FrontKind::MaxProb => 1,
        };
        Some(*entry.hashes[family].get_or_init(|| routing_hash(&entry.tree, kind)))
    }
}

/// The memo's counters and its current charge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// Lookups answered by a held entry.
    pub hits: u64,
    /// Lookups that had to parse (parse errors included).
    pub misses: u64,
    /// Texts admitted on their second sighting.
    pub admissions: u64,
    /// Entries evicted to make room under the budget.
    pub evictions: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct State {
    /// First-sighting fingerprints, `FILTER_SLOTS` long once used; 0 marks
    /// an empty slot.
    filter: Vec<u64>,
    /// Entries by text hash.
    entries: HashMap<u64, Arc<MemoEntry>>,
    /// Text hashes in admission order: eviction takes the front.
    queue: VecDeque<u64>,
}

/// A byte-budgeted, text-keyed memo of parsed trees, shared by every reader
/// of one server (see the module docs).
#[derive(Debug)]
pub(crate) struct TreeMemo {
    budget: usize,
    state: Mutex<State>,
    /// Bytes charged by the held entries: changed only under the state
    /// lock, read without it.
    bytes: AtomicU64,
    hits: Counter,
    misses: Counter,
    admissions: Counter,
    evictions: Counter,
}

impl TreeMemo {
    /// An empty memo charging at most `budget` bytes. Allocates nothing.
    pub(crate) fn new(budget: usize) -> Self {
        TreeMemo {
            budget,
            state: Mutex::new(State::default()),
            bytes: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            admissions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no reader panics while holding the tree memo lock")
    }

    /// Returns the tree `text` parses to, from the memo when it holds the
    /// text, and whether it did (a hit).
    ///
    /// # Errors
    ///
    /// The parse error of an unparseable text (never stored: the same text
    /// parses, and fails, afresh every time).
    pub(crate) fn parse(&self, text: &str) -> (Result<MemoTree, ParseError>, bool) {
        let key = text_hash(text.as_bytes());
        let held = self.lock().entries.get(&key).filter(|entry| *entry.text == *text).cloned();
        if let Some(entry) = held {
            self.hits.inc();
            return (Ok(MemoTree { tree: entry.tree.clone(), entry: Some(entry) }), true);
        }
        self.misses.inc();
        let tree = match cdat_format::parse(text) {
            Ok(tree) => Arc::new(tree),
            Err(e) => return (Err(e), false),
        };
        let entry = self.admit(key, text, &tree);
        (Ok(MemoTree { tree, entry }), false)
    }

    /// Admits a freshly parsed tree if this is its text's second sighting
    /// and it fits the budget at all, evicting as needed; returns the new
    /// entry.
    fn admit(&self, key: u64, text: &str, tree: &Arc<CdpAttackTree>) -> Option<Arc<MemoEntry>> {
        let charge = ENTRY_OVERHEAD + text.len() + tree.heap_bytes();
        if charge > self.budget {
            return None;
        }
        let mut guard = self.lock();
        let State { filter, entries, queue } = &mut *guard;
        if filter.is_empty() {
            *filter = vec![0; FILTER_SLOTS];
        }
        // Slots index by the low bits, so two keys sharing a slot agree on
        // bit 0 and `| 1` (which keeps 0 free as "empty") loses nothing.
        let (slot, fingerprint) = (key as usize & (FILTER_SLOTS - 1), key | 1);
        if filter[slot] != fingerprint {
            filter[slot] = fingerprint;
            return None;
        }
        filter[slot] = 0;
        if entries.contains_key(&key) {
            // A colliding text holds the key, or another reader admitted
            // this one meanwhile.
            return None;
        }
        let mut bytes = self.bytes.load(Ordering::Relaxed) as usize;
        while bytes + charge > self.budget {
            let Some(victim) = queue.pop_front() else { break };
            let evicted = entries.remove(&victim).expect("queue and entries hold the same keys");
            bytes -= evicted.charge;
            self.evictions.inc();
        }
        let entry = Arc::new(MemoEntry {
            text: text.into(),
            tree: tree.clone(),
            charge,
            hashes: Default::default(),
        });
        entries.insert(key, entry.clone());
        queue.push_back(key);
        self.bytes.store((bytes + charge) as u64, Ordering::Relaxed);
        self.admissions.inc();
        Some(entry)
    }

    /// The memo's counters and current charge: atomic reads, no lock.
    pub(crate) fn snapshot(&self) -> MemoSnapshot {
        MemoSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            admissions: self.admissions.get(),
            evictions: self.evictions.get(),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A fast 64-bit hash of `bytes`: a word-at-a-time multiply-rotate chain
/// with a final avalanche, so the low bits that index the filter mix every
/// input byte. Not collision resistant; the byte compare settles equality.
fn text_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h.rotate_left(5) ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_text(i: usize) -> String {
        format!("or root damage={}\n  bas a cost={}\n  bas b cost=2\n", 100 + i, 1 + i)
    }

    #[test]
    fn admits_a_text_on_its_second_sighting_only() {
        let memo = TreeMemo::new(TREE_MEMO_BUDGET);
        let text = tree_text(0);
        let (first, hit) = memo.parse(&text);
        assert!(!hit && first.unwrap().hash(FrontKind::Deterministic).is_none());
        assert_eq!(memo.snapshot().admissions, 0, "a text seen once is never admitted");
        let (second, hit) = memo.parse(&text);
        assert!(!hit, "the second sighting still parses, then admits");
        let second = second.unwrap();
        assert_eq!(memo.snapshot().admissions, 1);
        let (third, hit) = memo.parse(&text);
        let third = third.unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(third.tree(), second.tree()), "a hit reuses the parsed tree");
        let snapshot = memo.snapshot();
        assert_eq!((snapshot.hits, snapshot.misses), (1, 2));
        assert!(snapshot.bytes > text.len() as u64);
    }

    #[test]
    fn a_stream_of_distinct_texts_takes_no_memory() {
        let memo = TreeMemo::new(TREE_MEMO_BUDGET);
        {
            let state = memo.lock();
            let held = state.filter.capacity() + state.entries.capacity() + state.queue.capacity();
            assert_eq!(held, 0, "nothing is allocated before the first lookup");
        }
        for i in 0..2000 {
            assert!(!memo.parse(&tree_text(i)).1);
        }
        let snapshot = memo.snapshot();
        assert_eq!((snapshot.admissions, snapshot.bytes), (0, 0));
        assert!(memo.lock().entries.is_empty());
    }

    #[test]
    fn charged_bytes_never_exceed_the_budget() {
        let charge = {
            let tree = cdat_format::parse(&tree_text(0)).unwrap();
            ENTRY_OVERHEAD + tree_text(0).len() + tree.heap_bytes()
        };
        // Room for three entries and a half.
        let budget = 3 * charge + charge / 2;
        let memo = TreeMemo::new(budget);
        for round in 0..3 {
            for i in 0..12 {
                for _ in 0..2 {
                    let (tree, _) = memo.parse(&tree_text(i));
                    assert_eq!(tree.unwrap().tree().cd().total_cost(), (1 + i + 2) as f64);
                    let held = memo.snapshot().bytes;
                    assert!(held <= budget as u64, "round {round}, text {i}: {held} > {budget}");
                }
            }
        }
        let snapshot = memo.snapshot();
        assert!(snapshot.evictions > 0 && snapshot.admissions > snapshot.evictions);
        let state = memo.lock();
        assert_eq!(snapshot.admissions - snapshot.evictions, state.entries.len() as u64);
        assert_eq!(state.entries.len(), state.queue.len());
    }

    #[test]
    fn parse_errors_are_returned_every_time_and_never_stored() {
        let memo = TreeMemo::new(TREE_MEMO_BUDGET);
        let messages: Vec<String> = (0..3)
            .map(|_| {
                let (result, hit) = memo.parse("zap\n");
                assert!(!hit);
                result.unwrap_err().to_string()
            })
            .collect();
        assert_eq!(messages[0], messages[1]);
        assert_eq!(messages[1], messages[2]);
        let snapshot = memo.snapshot();
        assert_eq!((snapshot.misses, snapshot.admissions, snapshot.bytes), (3, 0, 0));
    }

    #[test]
    fn memoized_hashes_equal_the_routers() {
        let memo = TreeMemo::new(TREE_MEMO_BUDGET);
        let text = tree_text(3);
        let _ = memo.parse(&text);
        let (tree, _) = memo.parse(&text);
        let tree = tree.unwrap();
        for kind in FrontKind::ALL {
            assert_eq!(tree.hash(kind), Some(routing_hash(tree.tree(), kind)), "{kind:?}");
        }
    }

    #[test]
    fn text_hash_mixes_every_byte_into_the_low_bits() {
        let base = tree_text(0);
        let slot = |text: &str| text_hash(text.as_bytes()) as usize & (FILTER_SLOTS - 1);
        let mut slots = std::collections::HashSet::new();
        for i in 0..base.len() {
            let mut bytes = base.clone().into_bytes();
            bytes[i] ^= 1;
            slots.insert(slot(std::str::from_utf8(&bytes).unwrap()));
        }
        assert!(slots.len() > base.len() * 9 / 10, "{} of {}", slots.len(), base.len());
    }
}
