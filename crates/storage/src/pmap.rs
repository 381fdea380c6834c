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
//! same. [`PSet`] is the same tree with no values; a secondary index is one
//! of them over `(value, row id)` pairs, so a write to a column that holds
//! only seven values still costs one path.
//!
//! Every internal node keeps, beside each child pointer, the count of
//! entries under that child, so [`PMap::iter_from`] reaches the `k`-th entry
//! in one descent. The writes keep the counts on the nodes they already copy
//! or own.
//!
//! Shape: at most 32 (`FANOUT`) entries per leaf and children per internal
//! node, all leaves at one depth, no empty node below the root. A removal
//! that leaves a node under half full merges it with a sibling (or evens
//! the two out). One deliberate slack: the last node of a level may be
//! short. Appending past the end of a full node splits it *unevenly* — the
//! full node stays full and the new one starts with one entry — because row
//! ids only ever grow, and an even split would leave every leaf of a loaded
//! table half empty; a bulk build fills its nodes the same way.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::ops::{Bound, Index, RangeBounds};
use std::sync::Arc;

thread_local! {
    /// Entries this thread's path copies cloned since [`take_copied`] last
    /// read them. A map knows neither its store nor the store's instance;
    /// the store whose commit ends the write adds the tally to its own
    /// `phoenix_cow_entries_copied_total`.
    static COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Most entries in a leaf and most children under an internal node.
const FANOUT: usize = 32;
/// A node a removal leaves with fewer entries is merged with a sibling.
const MIN_FILL: usize = FANOUT / 2;

/// A child of an internal node and the number of entries under it.
#[derive(Clone)]
struct Kid<K, V> {
    node: Arc<Node<K, V>>,
    entries: usize,
}

#[derive(Clone)]
enum Node<K, V> {
    /// `keys` ascending, `vals` parallel to it.
    Leaf { keys: Vec<K>, vals: Vec<V> },
    /// `seps[i]` separates `kids[i]` (every key below it) from `kids[i + 1]`
    /// (every key at or above it); one separator fewer than children.
    Internal { seps: Vec<K>, kids: Vec<Kid<K, V>> },
}

impl<K, V> Node<K, V> {
    /// Entries of a leaf, children of an internal node: what a copy clones.
    fn len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { kids, .. } => kids.len(),
        }
    }

    /// Entries under this node.
    fn entries(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { kids, .. } => kids.iter().map(|k| k.entries).sum(),
        }
    }
}

impl<K, V> Kid<K, V> {
    fn new(node: Arc<Node<K, V>>) -> Self {
        let entries = node.entries();
        Kid { node, entries }
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
    COPIED.with(|c| c.set(c.get() + entries as u64));
}

/// The entries the calling thread's path copies cloned since the last call.
pub(crate) fn take_copied() -> u64 {
    COPIED.with(|c| c.replace(0))
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
            match insert_into(&mut kids[at].node, key, val) {
                Inserted::Added => {
                    kids[at].entries += 1;
                    Inserted::Added
                }
                Inserted::Split(sep, right) => {
                    let right = Kid::new(right);
                    kids[at].entries = kids[at].entries + 1 - right.entries;
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
                replaced => replaced,
            }
        }
    }
}

/// Keep the first `cut` children; return the separator that moves up and
/// the new right sibling holding the rest.
fn split_internal<K, V>(
    seps: &mut Vec<K>,
    kids: &mut Vec<Kid<K, V>>,
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
            let out = remove_from(&mut kids[at].node, q)?;
            kids[at].entries -= 1;
            if kids[at].node.len() < MIN_FILL {
                rebalance(seps, kids, at);
            }
            Some(out)
        }
    }
}

/// `kids[at]` fell under `MIN_FILL`: drop it if empty, else pour it and a
/// sibling into one node, and split that evenly if it overflows.
fn rebalance<K: Clone, V: Clone>(seps: &mut Vec<K>, kids: &mut Vec<Kid<K, V>>, at: usize) {
    if kids[at].node.len() == 0 {
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
    let right = kids.remove(left + 1);
    kids[left].entries += right.entries;
    let right = Arc::try_unwrap(right.node).unwrap_or_else(|shared| {
        count_copy(shared.len());
        (*shared).clone()
    });
    let overflow = match (unshare(&mut kids[left].node), right) {
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
        let right = Kid::new(right);
        kids[left].entries -= right.entries;
        seps.insert(left, sep);
        kids.insert(left + 1, right);
    }
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
                Node::Internal { seps, kids } => node = &kids[child_of(seps, q)].node,
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
                Bound::Unbounded => front.descend(root, |_, _| 0),
                Bound::Included(q) | Bound::Excluded(q) => {
                    front.descend(root, |seps, _| child_of(seps, q));
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
                Bound::Unbounded => back = Cursor::last(root),
                Bound::Included(q) | Bound::Excluded(q) => {
                    back.descend(root, |seps, _| child_of(seps, q));
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

    /// The entries from the `k`-th (counting from 0) to the last, in key
    /// order, from either end; empty when `k` is at or past the end. One
    /// descent by the per-child counts: skipping `k` entries costs O(log n),
    /// not O(k).
    pub fn iter_from(&self, k: usize) -> Range<'_, K, V> {
        let ends = self.root.as_deref().filter(|_| k < self.len).map(|root| {
            let mut front = Cursor::new();
            let mut skip = k;
            front.descend(root, |_, kids| {
                let mut i = 0;
                while skip >= kids[i].entries {
                    skip -= kids[i].entries;
                    i += 1;
                }
                i
            });
            front.at = skip;
            (front, Cursor::last(root))
        });
        Range { ends }
    }

    /// Every key in order, from either end.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> {
        self.iter().map(|(k, _)| k)
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
                let right = Kid::new(right);
                let left = Kid {
                    node: self.root.take().expect("root checked above"),
                    entries: self.len + 1 - right.entries,
                };
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
                    self.root = Some(kids[0].node.clone());
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
                Node::Internal { seps, kids } => node = unshare(&mut kids[child_of(seps, q)].node),
                Node::Leaf { keys, vals } => return find(keys, q).ok().map(|i| &mut vals[i]),
            }
        }
    }

    /// Build a map from entries already in strictly ascending key order, in
    /// O(n): leaves are filled directly, in the order the entries come and
    /// without collecting them first, and no key is searched for.
    ///
    /// # Panics
    /// If the keys are not strictly ascending.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut entries = entries.into_iter().peekable();
        let mut len = 0;
        // One level at a time, each node beside the smallest key under it
        // (its parent's separator).
        let mut level: Vec<(K, Kid<K, V>)> = Vec::new();
        while entries.peek().is_some() {
            let (mut keys, mut vals) = (Vec::with_capacity(FANOUT), Vec::with_capacity(FANOUT));
            for (k, v) in entries.by_ref().take(FANOUT) {
                keys.push(k);
                vals.push(v);
            }
            let next = entries.peek().map(|(k, _)| k);
            assert!(
                keys.windows(2).all(|w| w[0] < w[1])
                    && next.is_none_or(|k| keys[keys.len() - 1] < *k),
                "PMap::from_sorted needs strictly ascending keys"
            );
            len += keys.len();
            level.push((
                keys[0].clone(),
                Kid::new(Arc::new(Node::Leaf { keys, vals })),
            ));
        }
        while level.len() > 1 {
            let mut nodes = level.into_iter();
            level = Vec::with_capacity(nodes.len().div_ceil(FANOUT));
            while nodes.len() > 0 {
                let (mut mins, kids): (Vec<K>, Vec<_>) = nodes.by_ref().take(FANOUT).unzip();
                let min = mins.remove(0);
                level.push((min, Kid::new(Arc::new(Node::Internal { seps: mins, kids }))));
            }
        }
        PMap {
            root: level.pop().map(|(_, root)| root.node),
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
                kids.iter().for_each(|kid| walk(&kid.node, visit));
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
    /// uniform depth, every per-child count, the entry count. Returns the
    /// height.
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
                        let (d, n) = check(&kid.node, lo, hi)?;
                        if *depth.get_or_insert(d) != d {
                            return Err("leaves at different depths".into());
                        }
                        if kid.entries != n {
                            return Err(format!("count says {}, child holds {n}", kid.entries));
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

    /// The last entry under `root`.
    fn last(root: &'a Node<K, V>) -> Self {
        let mut c = Cursor::new();
        c.descend(root, |seps, _| seps.len());
        c.at = c.keys.len() - 1;
        c
    }

    /// Walk from `node` down to a leaf, `pick` choosing the child at each
    /// internal node from its separators and children; rests on the leaf's
    /// first entry.
    fn descend(
        &mut self,
        mut node: &'a Node<K, V>,
        mut pick: impl FnMut(&'a [K], &'a [Kid<K, V>]) -> usize,
    ) {
        loop {
            match node {
                Node::Internal { seps, kids } => {
                    let i = pick(seps, kids);
                    self.path.push((kids, i));
                    node = &kids[i].node;
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
                self.descend(&kids[i + 1].node, |_, _| 0);
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
                self.descend(&kids[i - 1].node, |seps, _| seps.len());
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
    /// Every member in order, from either end.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.0.keys()
    }

    /// Members within `range`, in order, from either end; an inverted range
    /// is empty.
    pub fn range<R: RangeBounds<T>>(&self, range: R) -> impl DoubleEndedIterator<Item = &T> {
        self.0.range(range).map(|(t, _)| t)
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

impl<T: Ord + fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
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
