//! A persistent ordered map: the unit of copying inside a table image.
//!
//! [`PMap`] is a B+tree whose nodes sit behind [`Arc`]s. `clone` copies one
//! pointer; a write path-copies — it clones only the nodes between the root
//! and the touched leaf that some other clone still shares
//! ([`Arc::make_mut`]), and mutates in place the ones it owns alone. So a
//! published snapshot keeps showing its own version for the price of
//! O(log n) node copies per key the writer touches, and a statement that
//! touches neighbouring keys copies their shared path once.
//!
//! The interface is `BTreeMap`-shaped (`get`, `insert`, `remove`, `range`,
//! double-ended iterators in key order, `Index`) so call sites read the
//! same. [`PSet`] is the same tree with no values; secondary indexes nest it
//! as their row-id buckets, which makes a write to a bucket of n/7 ids cost
//! a path, not the bucket.
//!
//! Shape: at most 32 (`FANOUT`) entries per leaf and children per internal
//! node, all leaves at one depth, no empty node below the root. A removal
//! that leaves a node under half full merges it with a sibling (or evens
//! the two out). One deliberate slack: appending past the end of a full
//! node splits it *unevenly* — the full node stays full and the new one
//! starts with one entry — because row ids only ever grow, and an even
//! split would leave every leaf of a loaded table half empty.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::ops::{Bound, Index, RangeBounds};
use std::sync::Arc;

use crate::metrics::storage_metrics;

/// Most entries in a leaf and most children under an internal node.
const FANOUT: usize = 32;
/// A node a removal leaves with fewer entries is merged with a sibling.
const MIN_FILL: usize = FANOUT / 2;

type Kid<K, V> = Arc<Node<K, V>>;

#[derive(Clone)]
enum Node<K, V> {
    /// `keys` ascending, `vals` parallel to it.
    Leaf { keys: Vec<K>, vals: Vec<V> },
    /// `seps[i]` separates `kids[i]` (every key below it) from `kids[i + 1]`
    /// (every key at or above it); one separator fewer than children.
    Internal {
        seps: Vec<K>,
        kids: Vec<Arc<Node<K, V>>>,
    },
}

impl<K, V> Node<K, V> {
    /// Entries of a leaf, children of an internal node: what a copy clones.
    fn len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { kids, .. } => kids.len(),
        }
    }
}

/// How many leading keys satisfy `before` (which must hold for a prefix of
/// the slice and for nothing after it): `partition_point` by a forward scan.
///
/// A scan on purpose. The keys a table image searches by — primary keys,
/// index values — mostly own heap memory, so each comparison is a cache miss
/// on a cold node; a binary search makes those misses wait for one another,
/// a scan lets them overlap. Measured on 200 000 rows, pk point `SELECT`s
/// ran 5.0 µs with the scan and 5.7 µs with a binary search (5.0 µs on
/// `BTreeMap`, which scans its nodes too).
fn prefix_len<K>(keys: &[K], mut before: impl FnMut(&K) -> bool) -> usize {
    keys.iter().position(|k| !before(k)).unwrap_or(keys.len())
}

/// The child whose subtree may hold `q`: every separator at or below `q`
/// lies to its left.
fn child_of<K: Borrow<Q>, Q: Ord + ?Sized>(seps: &[K], q: &Q) -> usize {
    prefix_len(seps, |s| s.borrow() <= q)
}

/// Where `q` is among a leaf's keys (`Ok`), or where it would go (`Err`).
fn find<K: Borrow<Q>, Q: Ord + ?Sized>(keys: &[K], q: &Q) -> Result<usize, usize> {
    let at = prefix_len(keys, |k| k.borrow() < q);
    match keys.get(at) {
        Some(k) if k.borrow() == q => Ok(at),
        _ => Err(at),
    }
}

/// Count a node copy that path copying is about to make (or just made).
fn count_copy(entries: usize) {
    storage_metrics().cow_entries_copied.add(entries as u64);
}

/// Write access to a node: in place when this tree is its only owner, a
/// copy of that one node when a clone of the map still shares it.
fn unshare<K: Clone, V: Clone>(arc: &mut Arc<Node<K, V>>) -> &mut Node<K, V> {
    if Arc::strong_count(arc) > 1 {
        count_copy(arc.len());
    }
    Arc::make_mut(arc)
}

enum Inserted<K, V> {
    /// The key was present; here is the value it held.
    Replaced(V),
    Added,
    /// Added, and the node overflowed: the separator and the new right
    /// sibling the parent must adopt.
    Split(K, Arc<Node<K, V>>),
}

fn insert_into<K: Ord + Clone, V: Clone>(
    arc: &mut Arc<Node<K, V>>,
    key: K,
    val: V,
) -> Inserted<K, V> {
    match unshare(arc) {
        Node::Leaf { keys, vals } => {
            let at = match find(keys, &key) {
                Ok(i) => return Inserted::Replaced(std::mem::replace(&mut vals[i], val)),
                Err(i) => i,
            };
            keys.insert(at, key);
            vals.insert(at, val);
            if keys.len() <= FANOUT {
                return Inserted::Added;
            }
            // An append keeps the full leaf full (see the module docs).
            let cut = if at == FANOUT { FANOUT } else { FANOUT / 2 + 1 };
            let (rk, rv) = (keys.split_off(cut), vals.split_off(cut));
            Inserted::Split(rk[0].clone(), Arc::new(Node::Leaf { keys: rk, vals: rv }))
        }
        Node::Internal { seps, kids } => {
            let at = child_of(seps, &key);
            match insert_into(&mut kids[at], key, val) {
                Inserted::Split(sep, right) => {
                    seps.insert(at, sep);
                    kids.insert(at + 1, right);
                    if kids.len() <= FANOUT {
                        return Inserted::Added;
                    }
                    let cut = if at + 1 == FANOUT {
                        FANOUT
                    } else {
                        FANOUT / 2 + 1
                    };
                    let (up, right) = split_internal(seps, kids, cut);
                    Inserted::Split(up, right)
                }
                other => other,
            }
        }
    }
}

/// Keep the first `cut` children; return the separator that moves up and
/// the new right sibling holding the rest.
fn split_internal<K, V>(
    seps: &mut Vec<K>,
    kids: &mut Vec<Arc<Node<K, V>>>,
    cut: usize,
) -> (K, Arc<Node<K, V>>) {
    let rkids = kids.split_off(cut);
    let rseps = seps.split_off(cut);
    let up = seps
        .pop()
        .expect("an internal node keeps at least one child");
    (
        up,
        Arc::new(Node::Internal {
            seps: rseps,
            kids: rkids,
        }),
    )
}

fn remove_from<K, V, Q>(arc: &mut Arc<Node<K, V>>, q: &Q) -> Option<V>
where
    K: Borrow<Q> + Clone,
    V: Clone,
    Q: Ord + ?Sized,
{
    match unshare(arc) {
        Node::Leaf { keys, vals } => {
            let i = find(keys, q).ok()?;
            keys.remove(i);
            Some(vals.remove(i))
        }
        Node::Internal { seps, kids } => {
            let at = child_of(seps, q);
            let out = remove_from(&mut kids[at], q)?;
            if kids[at].len() < MIN_FILL {
                rebalance(seps, kids, at);
            }
            Some(out)
        }
    }
}

/// `kids[at]` fell under `MIN_FILL`: drop it if empty, else pour it and a
/// sibling into one node, and split that evenly if it overflows.
fn rebalance<K: Clone, V: Clone>(seps: &mut Vec<K>, kids: &mut Vec<Arc<Node<K, V>>>, at: usize) {
    if kids[at].len() == 0 {
        kids.remove(at);
        if !seps.is_empty() {
            seps.remove(at.saturating_sub(1));
        }
        return;
    }
    if kids.len() == 1 {
        return;
    }
    let left = at.saturating_sub(1);
    let sep = seps.remove(left);
    let right = Arc::try_unwrap(kids.remove(left + 1)).unwrap_or_else(|shared| {
        count_copy(shared.len());
        (*shared).clone()
    });
    let overflow = match (unshare(&mut kids[left]), right) {
        (Node::Leaf { keys, vals }, Node::Leaf { keys: rk, vals: rv }) => {
            keys.extend(rk);
            vals.extend(rv);
            (keys.len() > FANOUT).then(|| {
                let cut = keys.len() / 2;
                let (rk, rv) = (keys.split_off(cut), vals.split_off(cut));
                (rk[0].clone(), Arc::new(Node::Leaf { keys: rk, vals: rv }))
            })
        }
        (Node::Internal { seps: ls, kids: lk }, Node::Internal { seps: rs, kids: rk }) => {
            ls.push(sep);
            ls.extend(rs);
            lk.extend(rk);
            (lk.len() > FANOUT).then(|| {
                let cut = lk.len() / 2;
                split_internal(ls, lk, cut)
            })
        }
        _ => unreachable!("siblings sit at the same depth"),
    };
    if let Some((sep, right)) = overflow {
        seps.insert(left, sep);
        kids.insert(left + 1, right);
    }
}

/// Sizes of the fewest chunks of at most `FANOUT` that `n` items fill
/// evenly (so no chunk is under half full unless it is the only one).
fn chunk_sizes(n: usize) -> impl Iterator<Item = usize> {
    let chunks = n.div_ceil(FANOUT);
    let (base, extra) = (n / chunks.max(1), n % chunks.max(1));
    (0..chunks).map(move |i| base + usize::from(i < extra))
}

/// A persistent ordered map; see the module docs.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares every node until one side writes.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored under `q`.
    pub fn get<Q>(&self, q: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Internal { seps, kids } => node = &kids[child_of(seps, q)],
                Node::Leaf { keys, vals } => return find(keys, q).ok().map(|i| &vals[i]),
            }
        }
    }

    /// Is there an entry under `q`?
    pub fn contains_key<Q>(&self, q: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(q).is_some()
    }

    /// Entries within `range`, in key order, from either end. Unlike
    /// `BTreeMap::range`, an inverted range is empty rather than a panic.
    pub fn range<Q, R>(&self, range: R) -> Range<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q>,
    {
        let ends = self.root.as_deref().and_then(|root| {
            // Both cursors rest on live entries: the first one inside the
            // range and the last one inside it.
            let mut front = Cursor::new();
            match range.start_bound() {
                Bound::Unbounded => front.descend(root, |_| 0),
                Bound::Included(q) | Bound::Excluded(q) => {
                    front.descend(root, |seps| child_of(seps, q));
                    let open = matches!(range.start_bound(), Bound::Excluded(_));
                    front.at =
                        prefix_len(front.keys, |k| k.borrow() < q || (open && k.borrow() == q));
                    if front.at == front.keys.len() && !front.next_leaf() {
                        return None;
                    }
                }
            }
            let mut back = Cursor::new();
            match range.end_bound() {
                Bound::Unbounded => {
                    back.descend(root, |seps| seps.len());
                    back.at = back.keys.len() - 1;
                }
                Bound::Included(q) | Bound::Excluded(q) => {
                    back.descend(root, |seps| child_of(seps, q));
                    let open = matches!(range.end_bound(), Bound::Excluded(_));
                    let within =
                        prefix_len(back.keys, |k| k.borrow() < q || (!open && k.borrow() == q));
                    if within > 0 {
                        back.at = within - 1;
                    } else if !back.prev_leaf() {
                        return None;
                    }
                }
            }
            (front.keys[front.at] <= back.keys[back.at]).then_some((front, back))
        });
        Range { ends }
    }

    /// Every entry in key order, from either end.
    pub fn iter(&self) -> Range<'_, K, V> {
        self.range::<K, _>(..)
    }

    /// Every key in order, from either end.
    pub fn keys(&self) -> Keys<'_, K, V> {
        Keys(self.iter())
    }

    /// Every value in key order, from either end.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Store `val` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Arc::new(Node::Leaf {
                keys: vec![key],
                vals: vec![val],
            }));
            self.len = 1;
            return None;
        };
        match insert_into(root, key, val) {
            Inserted::Replaced(old) => return Some(old),
            Inserted::Added => {}
            Inserted::Split(sep, right) => {
                let left = self.root.take().expect("root checked above");
                self.root = Some(Arc::new(Node::Internal {
                    seps: vec![sep],
                    kids: vec![left, right],
                }));
            }
        }
        self.len += 1;
        None
    }

    /// Remove the entry under `q`, returning its value. A miss copies
    /// nothing.
    pub fn remove<Q>(&mut self, q: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(q) {
            return None;
        }
        let out = remove_from(self.root.as_mut()?, q)?;
        self.len -= 1;
        // A root left with one child (or none) hands over to it.
        loop {
            match self.root.as_deref() {
                Some(Node::Internal { kids, .. }) if kids.len() == 1 => {
                    self.root = Some(kids[0].clone());
                }
                Some(node) if node.len() == 0 => self.root = None,
                _ => break,
            }
        }
        Some(out)
    }

    /// Write access to the value under `q`. A miss copies nothing.
    pub fn get_mut<Q>(&mut self, q: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(q) {
            return None;
        }
        let mut node = unshare(self.root.as_mut()?);
        loop {
            match node {
                Node::Internal { seps, kids } => node = unshare(&mut kids[child_of(seps, q)]),
                Node::Leaf { keys, vals } => return find(keys, q).ok().map(|i| &mut vals[i]),
            }
        }
    }

    /// Build a map from entries already in strictly ascending key order, in
    /// O(n): leaves are filled directly and no key is searched for.
    ///
    /// # Panics
    /// If the keys are not strictly ascending.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let (keys, vals): (Vec<K>, Vec<V>) = entries.into_iter().unzip();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "PMap::from_sorted needs strictly ascending keys"
        );
        let len = keys.len();
        let (mut keys, mut vals) = (keys.into_iter(), vals.into_iter());
        // One level at a time, each node beside the smallest key under it
        // (its parent's separator).
        let mut level: Vec<(K, Arc<Node<K, V>>)> = chunk_sizes(len)
            .map(|n| {
                let keys: Vec<K> = keys.by_ref().take(n).collect();
                let vals: Vec<V> = vals.by_ref().take(n).collect();
                (keys[0].clone(), Arc::new(Node::Leaf { keys, vals }))
            })
            .collect();
        while level.len() > 1 {
            let mut nodes = level.into_iter();
            level = chunk_sizes(nodes.len())
                .map(|n| {
                    let (mut mins, kids): (Vec<K>, Vec<_>) = nodes.by_ref().take(n).unzip();
                    let min = mins.remove(0);
                    (min, Arc::new(Node::Internal { seps: mins, kids }))
                })
                .collect();
        }
        PMap {
            root: level.pop().map(|(_, root)| root),
            len,
        }
    }
}

impl<K, V> PMap<K, V> {
    /// `(nodes of this map, how many of them `other` shares)` — the
    /// structural-sharing measure the property test asserts on.
    #[doc(hidden)]
    pub fn nodes_shared_with(&self, other: &Self) -> (usize, usize) {
        fn walk<K, V>(node: &Arc<Node<K, V>>, visit: &mut impl FnMut(*const Node<K, V>)) {
            visit(Arc::as_ptr(node));
            if let Node::Internal { kids, .. } = &**node {
                kids.iter().for_each(|kid| walk(kid, visit));
            }
        }
        let mut theirs = HashSet::new();
        if let Some(root) = &other.root {
            walk(root, &mut |p| {
                theirs.insert(p);
            });
        }
        let (mut nodes, mut shared) = (0, 0);
        if let Some(root) = &self.root {
            walk(root, &mut |p| {
                nodes += 1;
                shared += usize::from(theirs.contains(&p));
            });
        }
        (nodes, shared)
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// Check the tree's shape: key order, separator bounds, node sizes,
    /// uniform depth, the entry count. Returns the height.
    #[doc(hidden)]
    pub fn check_shape(&self) -> Result<usize, String> {
        /// Returns `(depth, entries)` of the subtree whose keys must lie in
        /// `[lo, hi)`.
        fn check<K: Ord, V>(
            node: &Node<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
        ) -> Result<(usize, usize), String> {
            if node.len() == 0 || node.len() > FANOUT {
                return Err(format!("node of {} entries", node.len()));
            }
            match node {
                Node::Leaf { keys, vals } => {
                    let ordered = keys.windows(2).all(|w| w[0] < w[1])
                        && lo.is_none_or(|lo| lo <= &keys[0])
                        && hi.is_none_or(|hi| &keys[keys.len() - 1] < hi);
                    if !ordered || keys.len() != vals.len() {
                        return Err("leaf keys out of order or out of bounds".into());
                    }
                    Ok((1, keys.len()))
                }
                Node::Internal { seps, kids } => {
                    if seps.len() + 1 != kids.len() {
                        return Err("separator count".into());
                    }
                    let (mut depth, mut entries) = (None, 0);
                    for (i, kid) in kids.iter().enumerate() {
                        let lo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                        let hi = if i == seps.len() { hi } else { Some(&seps[i]) };
                        let (d, n) = check(kid, lo, hi)?;
                        if *depth.get_or_insert(d) != d {
                            return Err("leaves at different depths".into());
                        }
                        entries += n;
                    }
                    Ok((depth.unwrap_or(0) + 1, entries))
                }
            }
        }
        let (height, entries) = match self.root.as_deref() {
            Some(root) => check(root, None, None)?,
            None => (0, 0),
        };
        if entries != self.len {
            return Err(format!("len says {}, tree holds {entries}", self.len));
        }
        Ok(height)
    }
}

impl<K: Ord, V, Q: Ord + ?Sized> Index<&Q> for PMap<K, V>
where
    K: Borrow<Q>,
{
    type Output = V;

    /// # Panics
    /// If the key is absent, like `BTreeMap`'s `Index`.
    fn index(&self, q: &Q) -> &V {
        self.get(q).expect("no entry found for key")
    }
}

impl<K: Ord, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Range<'a, K, V>;

    fn into_iter(self) -> Range<'a, K, V> {
        self.iter()
    }
}

/// A position on one entry: the leaf it is in and the way back up.
struct Cursor<'a, K, V> {
    /// The internal nodes from the root to the leaf's parent, each with the
    /// index of the child the cursor is under. Empty for a one-leaf tree,
    /// so iterating a small map allocates nothing.
    path: Vec<(&'a [Kid<K, V>], usize)>,
    keys: &'a [K],
    vals: &'a [V],
    at: usize,
}

impl<'a, K, V> Cursor<'a, K, V> {
    fn new() -> Self {
        Cursor {
            path: Vec::new(),
            keys: &[],
            vals: &[],
            at: 0,
        }
    }

    /// Walk from `node` down to a leaf, `pick` choosing the child at each
    /// internal node from its separators; rests on the leaf's first entry.
    fn descend(&mut self, mut node: &'a Node<K, V>, pick: impl Fn(&'a [K]) -> usize) {
        loop {
            match node {
                Node::Internal { seps, kids } => {
                    let i = pick(seps);
                    self.path.push((kids, i));
                    node = &kids[i];
                }
                Node::Leaf { keys, vals } => {
                    (self.keys, self.vals, self.at) = (keys, vals, 0);
                    return;
                }
            }
        }
    }

    /// Move to the first entry of the next leaf; `false` at the last leaf.
    fn next_leaf(&mut self) -> bool {
        while let Some((kids, i)) = self.path.pop() {
            if i + 1 < kids.len() {
                self.path.push((kids, i + 1));
                self.descend(&kids[i + 1], |_| 0);
                return true;
            }
        }
        false
    }

    /// Move to the last entry of the previous leaf; `false` at the first.
    fn prev_leaf(&mut self) -> bool {
        while let Some((kids, i)) = self.path.pop() {
            if i > 0 {
                self.path.push((kids, i - 1));
                self.descend(&kids[i - 1], |seps| seps.len());
                self.at = self.keys.len() - 1;
                return true;
            }
        }
        false
    }
}

/// Double-ended iterator over a key range of a [`PMap`].
pub struct Range<'a, K, V> {
    /// The next entry from the front and the next from the back; `None`
    /// once they have crossed.
    ends: Option<(Cursor<'a, K, V>, Cursor<'a, K, V>)>,
}

impl<'a, K, V> Range<'a, K, V> {
    /// Were the two cursors on the same entry (the last one left)?
    fn met(front: &Cursor<'a, K, V>, back: &Cursor<'a, K, V>) -> bool {
        std::ptr::eq(front.keys, back.keys) && front.at == back.at
    }
}

impl<'a, K, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let (front, back) = self.ends.as_mut()?;
        let (keys, vals, at) = (front.keys, front.vals, front.at);
        if Self::met(front, back) {
            self.ends = None;
        } else {
            front.at += 1;
            if front.at == keys.len() {
                let more = front.next_leaf();
                debug_assert!(more, "the back cursor is still ahead");
            }
        }
        Some((&keys[at], &vals[at]))
    }
}

impl<K, V> DoubleEndedIterator for Range<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let (front, back) = self.ends.as_mut()?;
        let (keys, vals, at) = (back.keys, back.vals, back.at);
        if Self::met(front, back) {
            self.ends = None;
        } else if at > 0 {
            back.at -= 1;
        } else {
            let more = back.prev_leaf();
            debug_assert!(more, "the front cursor is still behind");
        }
        Some((&keys[at], &vals[at]))
    }
}

/// Double-ended iterator over the keys of a [`PMap`] (and the members of a
/// [`PSet`]).
pub struct Keys<'a, K, V>(Range<'a, K, V>);

impl<'a, K, V> Iterator for Keys<'a, K, V> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        self.0.next().map(|(k, _)| k)
    }
}

impl<K, V> DoubleEndedIterator for Keys<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, _)| k)
    }
}

/// A persistent ordered set: a [`PMap`] with no values.
pub struct PSet<T>(PMap<T, ()>);

impl<T> Clone for PSet<T> {
    fn clone(&self) -> Self {
        PSet(self.0.clone())
    }
}

impl<T> Default for PSet<T> {
    fn default() -> Self {
        PSet(PMap::default())
    }
}

impl<T> PSet<T> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No members?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: Ord> PSet<T> {
    /// Is `t` a member?
    pub fn contains(&self, t: &T) -> bool {
        self.0.contains_key(t)
    }

    /// Every member in order, from either end.
    pub fn iter(&self) -> Keys<'_, T, ()> {
        self.0.keys()
    }
}

impl<T: Ord + Clone> PSet<T> {
    /// Add `t`; `false` if it was already a member.
    pub fn insert(&mut self, t: T) -> bool {
        self.0.insert(t, ()).is_none()
    }

    /// Remove `t`; `false` if it was not a member.
    pub fn remove(&mut self, t: &T) -> bool {
        self.0.remove(t).is_some()
    }

    /// Build a set from members already in strictly ascending order.
    ///
    /// # Panics
    /// If they are not strictly ascending.
    pub fn from_sorted(members: impl IntoIterator<Item = T>) -> Self {
        PSet(PMap::from_sorted(members.into_iter().map(|t| (t, ()))))
    }
}

impl<T: Ord> PartialEq for PSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a, T: Ord> IntoIterator for &'a PSet<T> {
    type Item = &'a T;
    type IntoIter = Keys<'a, T, ()>;

    fn into_iter(self) -> Keys<'a, T, ()> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_shrinks_and_stays_in_shape() {
        let mut m = PMap::new();
        for k in 0..5_000u32 {
            assert_eq!(m.insert(k.wrapping_mul(2_654_435_761) % 10_007, k), None);
            m.check_shape().unwrap();
        }
        assert_eq!(m.len(), 5_000);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for k in &keys {
            assert!(m.remove(k).is_some());
            m.check_shape().unwrap();
        }
        assert!(m.is_empty() && m.iter().next().is_none());
    }

    #[test]
    fn appends_fill_leaves() {
        let mut m = PMap::new();
        for k in 0..(FANOUT * FANOUT) as u64 {
            m.insert(k, ());
        }
        // Ascending inserts leave every leaf full, so the tree is as
        // shallow as a bulk-built one (an even split would need 64 leaves
        // and a third level).
        assert_eq!(m.check_shape().unwrap(), 2);
        let built = PMap::from_sorted((0..(FANOUT * FANOUT) as u64).map(|k| (k, ())));
        assert_eq!(built.check_shape().unwrap(), 2);
        assert!(m == built);
    }

    #[test]
    fn range_bounds_match_from_both_ends() {
        let m = PMap::from_sorted((0..200u32).map(|k| (k * 2, k)));
        let got: Vec<u32> = m.range(10..=20).map(|(k, _)| *k).collect();
        assert_eq!(got, [10, 12, 14, 16, 18, 20]);
        let got: Vec<u32> = m.range(11..20).rev().map(|(k, _)| *k).collect();
        assert_eq!(got, [18, 16, 14, 12]);
        assert!(m.range(21..22).next().is_none());
        assert!(
            m.range((Bound::Included(30), Bound::Excluded(10)))
                .next()
                .is_none(),
            "inverted: empty, no panic"
        );
        assert!(m.range(400..).next().is_none());
        let mut it = m.range(..6);
        assert_eq!(it.next().map(|e| *e.0), Some(0));
        assert_eq!(it.next_back().map(|e| *e.0), Some(4));
        assert_eq!(it.next().map(|e| *e.0), Some(2));
        assert!(it.next().is_none() && it.next_back().is_none());
    }

    #[test]
    fn a_clone_keeps_its_version() {
        let mut m = PMap::from_sorted((0..1_000u32).map(|k| (k, k)));
        let before = m.clone();
        m.insert(5, 99);
        m.remove(&700);
        *m.get_mut(&9).unwrap() = 0;
        assert_eq!((before[&5], before[&9], before.len()), (5, 9, 1_000));
        assert!(before.contains_key(&700));
        assert_eq!((m[&5], m[&9], m.len()), (99, 0, 999));
        let (nodes, shared) = m.nodes_shared_with(&before);
        assert!(nodes - shared <= 6, "{} of {nodes} copied", nodes - shared);
    }
}
