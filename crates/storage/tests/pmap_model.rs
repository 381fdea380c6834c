//! Model-based property test of the persistent map: random operation
//! sequences run against [`PMap`] and against `std::collections::BTreeMap`
//! as the reference, with `clone()`s interleaved whose older copies must
//! stay exactly as they were taken whatever happens to the map afterwards —
//! the snapshot-isolation property every published table image rests on.
//! `iter_from(k)`, the positional start the per-child counts give, is held
//! to `BTreeMap::iter().skip(k)` on the live map and on every frozen clone.
//!
//! No `proptest` crate is available offline, so the cases come from a seeded
//! generator: a failure prints its seed, and the seed reproduces it.

use std::collections::BTreeMap;
use std::ops::Bound;

use phoenix_storage::PMap;

/// splitmix64: the whole generator, so the test needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn bound(rng: &mut Rng, keys: u64) -> Bound<u64> {
    match rng.below(3) {
        0 => Bound::Unbounded,
        1 => Bound::Included(rng.below(keys)),
        _ => Bound::Excluded(rng.below(keys)),
    }
}

/// `BTreeMap::range` panics on the ranges `PMap::range` calls empty.
fn std_range_would_panic(lo: Bound<u64>, hi: Bound<u64>) -> bool {
    let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
        (lo, hi)
    else {
        return false;
    };
    l > h || (l == h && matches!((lo, hi), (Bound::Excluded(_), Bound::Excluded(_))))
}

fn same(map: &PMap<u64, u64>, model: &BTreeMap<u64, u64>, what: &str) {
    map.check_shape().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(map.len(), model.len(), "{what}: len");
    assert!(map.iter().eq(model.iter()), "{what}: forward iteration");
    assert!(map.iter().rev().eq(model.iter().rev()), "{what}: reverse");
    assert!(map.keys().eq(model.keys()) && map.values().eq(model.values()));
    let n = model.len();
    for k in [1, n / 2, n.saturating_sub(1), n, n + 1] {
        same_from(map, model, k, what);
    }
}

/// `iter_from(k)` against `BTreeMap::iter().skip(k)`, from both ends.
fn same_from(map: &PMap<u64, u64>, model: &BTreeMap<u64, u64>, k: usize, what: &str) {
    assert!(
        map.iter_from(k).eq(model.iter().skip(k)),
        "{what}: iter_from({k})"
    );
    assert!(
        map.iter_from(k).rev().eq(model.iter().skip(k).rev()),
        "{what}: iter_from({k}) reversed"
    );
}

/// One case: `ops` random operations over a key space of `keys`, small
/// enough that hits, replacements and removals of present keys are common.
fn run_case(seed: u64, ops: usize, keys: u64) {
    let mut rng = Rng(seed);
    let mut map: PMap<u64, u64> = PMap::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    // Clones taken along the way, each beside the model as it stood.
    let mut frozen: Vec<(PMap<u64, u64>, BTreeMap<u64, u64>)> = Vec::new();
    for step in 0..ops {
        let what = format!("seed {seed} step {step}");
        let k = rng.below(keys);
        match rng.below(100) {
            0..=44 => {
                let v = rng.next();
                assert_eq!(map.insert(k, v), model.insert(k, v), "{what}: insert");
            }
            45..=74 => assert_eq!(map.remove(&k), model.remove(&k), "{what}: remove"),
            75..=84 => {
                assert_eq!(map.get(&k), model.get(&k), "{what}: get");
                assert_eq!(map.contains_key(&k), model.contains_key(&k));
                if let (Some(a), Some(b)) = (map.get_mut(&k), model.get_mut(&k)) {
                    *a ^= 1;
                    *b ^= 1;
                }
            }
            85..=94 => {
                // A positional start beside the key range, at a position
                // drawn from the step's key so the generator's sequence
                // stays as it was; its first entries only (`same` walks
                // whole tails from both ends).
                let at = k as usize % (model.len() + 2);
                assert!(
                    map.iter_from(at).take(4).eq(model.iter().skip(at).take(4)),
                    "{what}: iter_from({at})"
                );
                let (lo, hi) = (bound(&mut rng, keys), bound(&mut rng, keys));
                if std_range_would_panic(lo, hi) {
                    assert!(map.range((lo, hi)).next().is_none(), "{what}: inverted");
                } else if rng.below(2) == 0 {
                    assert!(
                        map.range((lo, hi)).eq(model.range((lo, hi))),
                        "{what}: range"
                    );
                } else {
                    assert!(
                        map.range((lo, hi)).rev().eq(model.range((lo, hi)).rev()),
                        "{what}: range reversed"
                    );
                    // Both ends at once, meeting in the middle.
                    let (mut a, mut b) = (map.range((lo, hi)), model.range((lo, hi)));
                    loop {
                        let (x, y) = (a.next(), b.next());
                        assert_eq!(x, y, "{what}: two-ended front");
                        let (x, y) = (a.next_back(), b.next_back());
                        assert_eq!(x, y, "{what}: two-ended back");
                        if x.is_none() {
                            break;
                        }
                    }
                }
            }
            _ => {
                frozen.push((map.clone(), model.clone()));
                if frozen.len() > 4 {
                    frozen.remove(rng.below(4) as usize);
                }
            }
        }
        if step % (ops / 32) == 0 {
            same(&map, &model, &what);
        }
    }
    same(&map, &model, &format!("seed {seed} end"));
    for (i, (copy, was)) in frozen.iter().enumerate() {
        same(copy, was, &format!("seed {seed} clone {i}"));
    }
}

fn run_cases(cases: u64) {
    for case in 0..cases {
        // Small key spaces exercise merges down to an empty map; the large
        // one grows a third level and merges internal nodes.
        let (keys, ops) =
            [(8, 2_000), (70, 2_000), (600, 2_000), (20_000, 20_000)][case as usize % 4];
        run_case(0x5eed_0000 + case, ops, keys);
    }
}

#[test]
fn random_sequences_match_btreemap_and_clones_stay_frozen() {
    run_cases(16);
}

/// The same property over many more cases; CI runs it in release mode with
/// `-- --include-ignored`.
#[test]
#[ignore = "long: run with --release -- --include-ignored"]
fn random_sequences_many_cases() {
    run_cases(2_000);
}

#[test]
fn from_sorted_equals_inserting_one_by_one() {
    for n in [0u64, 1, 31, 32, 33, 64, 1_000, 1_025, 40_000] {
        let built = PMap::from_sorted((0..n).map(|k| (k * 3, k)));
        built.check_shape().unwrap();
        // Evens ascending, then odds descending: the grown tree splits and
        // fills differently, and must still hold the same entries.
        let mut grown = PMap::new();
        for k in (0..n).step_by(2).chain((0..n).rev().filter(|k| k % 2 == 1)) {
            grown.insert(k * 3, k);
        }
        grown.check_shape().unwrap();
        assert!(built == grown, "n = {n}");
        assert_eq!(built.len() as u64, n);
        assert!(built.keys().copied().eq((0..n).map(|k| k * 3)));
    }
}

/// Removals that empty, merge and even out nodes at every level keep every
/// per-child count: `iter_from` agrees with the model at every position,
/// on the shrunk map and on the clone taken before the removals.
#[test]
fn iter_from_after_merges_and_redistributions() {
    let n = 40_000u64;
    let mut map = PMap::from_sorted((0..n).map(|k| (k, k)));
    let mut model: BTreeMap<u64, u64> = (0..n).map(|k| (k, k)).collect();
    let before = (map.clone(), model.clone());
    // Thin a run of leaves below half full (merges), then clear most of a
    // second run so the merged nodes overflow and split evenly, then empty
    // a wide stretch (whole internal nodes go).
    let thin = (1_000..9_000).filter(|k| k % 3 != 0);
    let clear = (12_000..20_000).filter(|k| k % 17 != 0);
    let wipe = 22_000..37_000;
    for k in thin.chain(clear).chain(wipe) {
        assert_eq!(map.remove(&k), model.remove(&k), "remove {k}");
    }
    map.check_shape().unwrap();
    for k in (0..=model.len() + 1).step_by(97).chain([model.len() - 1]) {
        same_from(&map, &model, k, "after removals");
    }
    let (old, old_model) = &before;
    for k in (0..=n as usize).step_by(997) {
        same_from(old, old_model, k, "frozen before removals");
    }
    // Grow it back through splits and check again.
    for k in (1_000..37_000).step_by(2) {
        map.insert(k, k);
        model.insert(k, k);
    }
    map.check_shape().unwrap();
    for k in (0..=model.len()).step_by(89) {
        same_from(&map, &model, k, "after regrowth");
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn from_sorted_refuses_unsorted_input() {
    let _ = PMap::from_sorted([(2u64, ()), (1, ())]);
}

/// A single-key write on a 100 000-entry map shares all but O(height) nodes
/// with a clone taken just before it.
#[test]
fn a_point_write_copies_one_path() {
    let n = 100_000u64;
    let base = PMap::from_sorted((0..n).map(|k| (k, k)));
    let height = base.check_shape().unwrap();
    assert!(height <= 5, "height {height} for {n} entries");
    type Write = fn(&mut PMap<u64, u64>);
    let writes: [(&str, Write); 4] = [
        ("replace", |m| {
            m.insert(54_321, 0);
        }),
        ("remove", |m| {
            m.remove(&54_321);
        }),
        ("get_mut", |m| {
            *m.get_mut(&54_321).unwrap() = 0;
        }),
        ("append", |m| {
            m.insert(u64::MAX, 0);
        }),
    ];
    for (what, write) in writes {
        let mut m = base.clone();
        write(&mut m);
        m.check_shape().unwrap();
        let (nodes, shared) = m.nodes_shared_with(&base);
        // A path, plus at most one new sibling per level from a split.
        assert!(
            nodes - shared <= 2 * height + 1,
            "{what}: {} of {nodes} nodes not shared (height {height})",
            nodes - shared
        );
        assert!(base
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq((0..n).map(|k| (k, k))));
    }
    // A miss copies nothing at all.
    let mut m = base.clone();
    assert_eq!(m.remove(&(n + 5)), None);
    assert!(m.get_mut(&(n + 5)).is_none());
    let (nodes, shared) = m.nodes_shared_with(&base);
    assert_eq!(nodes, shared);
}
