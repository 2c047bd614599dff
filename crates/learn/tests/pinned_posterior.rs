//! Pins the kNN posteriors and influence radii bit for bit.
//!
//! Every kNN estimator (uniform and dual weighted, raw and behind min–max
//! scaling, k ∈ {1, 3, 5}) scores one fixed query grid through
//! `predict_proba_batch_tracked`; the `(probability bits, radius bits)`
//! stream of each model is hashed and compared with a digest captured
//! before the two kNN types were folded into one. Any change to the
//! neighbour weights, their float operations or their summation order
//! moves a digest.
//!
//! The fixture covers the posterior's corner cases: fewer examples than k
//! (infinite radius), an equidistant neighbourhood (d_k = d_1, uniform
//! dual weights), duplicate training points with conflicting labels, exact
//! distance ties on an integer lattice, queries on training points, and a
//! wrong-dimension query (0.5 with an infinite radius).

use uei_learn::{Classifier, EstimatorKind, MinMaxScaler, ScaledClassifier};
use uei_types::Label;

/// Integer lattice points (exact distance ties everywhere), two duplicates
/// with conflicting labels, and a few off-lattice points.
fn training_set() -> Vec<(Vec<f64>, Label)> {
    let mut ex = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            let label = Label::from_bool(i + j >= 5 || (i == 1 && j == 3));
            ex.push((vec![i as f64, j as f64], label));
        }
    }
    ex.push((vec![2.0, 2.0], Label::Positive)); // duplicate of a negative
    ex.push((vec![2.0, 2.0], Label::Negative));
    ex.push((vec![3.0, 1.0], Label::Positive)); // duplicate of a negative
    ex.push((vec![0.3, 3.7], Label::Positive));
    ex.push((vec![3.9, 0.2], Label::Negative));
    ex.push((vec![1.25, 1.75], Label::Positive));
    ex
}

/// Two examples: every k > 2 leaves the neighbourhood unsaturated.
fn tiny_set() -> Vec<(Vec<f64>, Label)> {
    vec![(vec![0.0, 0.0], Label::Negative), (vec![4.0, 4.0], Label::Positive)]
}

/// A grid of quarter steps (on lattice points, cell centres where four
/// neighbours are equidistant, edge midpoints with two-way ties), points
/// outside the data, and one query of the wrong dimension (last).
fn queries() -> Vec<Vec<f64>> {
    let mut qs = Vec::new();
    for i in -2..=18 {
        for j in -2..=18 {
            qs.push(vec![i as f64 * 0.25, j as f64 * 0.25]);
        }
    }
    qs.push(vec![0.3, 3.7]);
    qs.push(vec![1.25, 1.75]);
    qs.push(vec![-10.0, 25.0]);
    qs.push(vec![1e6, -1e6]);
    qs.push(vec![2.5, 2.5, 2.5]);
    qs
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn models(examples: &[(Vec<f64>, Label)]) -> Vec<(String, Box<dyn Classifier>)> {
    let scaler = MinMaxScaler::new(vec![-1.0, -0.5], vec![5.0, 4.5]).unwrap();
    let mut out: Vec<(String, Box<dyn Classifier>)> = Vec::new();
    for k in [1, 3, 5] {
        for kind in [EstimatorKind::Dwknn { k }, EstimatorKind::Knn { k }] {
            out.push((format!("{} k={k}", kind.name()), kind.train(examples).unwrap()));
            out.push((
                format!("scaled {} k={k}", kind.name()),
                Box::new(ScaledClassifier::train(kind, scaler.clone(), examples).unwrap()),
            ));
        }
    }
    out
}

/// Scores the grid with every model and returns `(name, digest)` pairs,
/// checking the structural cases along the way.
fn digests(examples: &[(Vec<f64>, Label)]) -> Vec<(String, u64)> {
    let qs = queries();
    let refs: Vec<&[f64]> = qs.iter().map(|q| q.as_slice()).collect();
    let last = refs.len() - 1;
    let mut out = Vec::new();
    for (name, model) in models(examples) {
        let scored = model.predict_proba_batch_tracked(&refs);
        let radii2 = scored.radii2.unwrap_or_else(|| panic!("{name}: kNN reports radii"));
        assert_eq!(scored.probs.len(), refs.len(), "{name}");
        assert_eq!(radii2.len(), refs.len(), "{name}");
        assert_eq!(scored.probs[last], 0.5, "{name}: wrong-dimension query");
        assert!(radii2[last].is_infinite(), "{name}: wrong-dimension radius");
        for (i, q) in refs.iter().enumerate() {
            assert_eq!(
                scored.probs[i].to_bits(),
                model.predict_proba(q).to_bits(),
                "{name}: query {i} batch vs scalar"
            );
        }
        let words = scored.probs.iter().zip(&radii2).flat_map(|(p, r)| [p.to_bits(), r.to_bits()]);
        out.push((name, fnv1a(words)));
    }
    out
}

/// Digests captured before the kNN types were merged.
const PINNED: [(&str, u64); 12] = [
    ("DWKNN k=1", 0x82f2143f93fe799e),
    ("scaled DWKNN k=1", 0xb800a7929680ea7d),
    ("KNN k=1", 0x82f2143f93fe799e),
    ("scaled KNN k=1", 0xb800a7929680ea7d),
    ("DWKNN k=3", 0x3398b94f2dce9df9),
    ("scaled DWKNN k=3", 0x86bcf291f1099db3),
    ("KNN k=3", 0xee2beac76b9dbded),
    ("scaled KNN k=3", 0xba9d06be1ab42215),
    ("DWKNN k=5", 0xa0e2ae9f092f89b6),
    ("scaled DWKNN k=5", 0x39a86c3f3806de3f),
    ("KNN k=5", 0x0d70e6c76fa53038),
    ("scaled KNN k=5", 0x4c89a6bec94f3bbd),
];

/// Digests of the two-example set, where k = 3 and k = 5 are unsaturated.
const PINNED_TINY: [(&str, u64); 12] = [
    ("DWKNN k=1", 0xfb951aa3c0778b93),
    ("scaled DWKNN k=1", 0xb9d616d5f0d410e9),
    ("KNN k=1", 0xfb951aa3c0778b93),
    ("scaled KNN k=1", 0xb9d616d5f0d410e9),
    ("DWKNN k=3", 0x9cf8b026ed9ea455),
    ("scaled DWKNN k=3", 0x1f9ad7b1ba5785e5),
    ("KNN k=3", 0x3967f574ddf17265),
    ("scaled KNN k=3", 0x3967f574ddf17265),
    ("DWKNN k=5", 0x9cf8b026ed9ea455),
    ("scaled DWKNN k=5", 0x1f9ad7b1ba5785e5),
    ("KNN k=5", 0x3967f574ddf17265),
    ("scaled KNN k=5", 0x3967f574ddf17265),
];

fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let printed: Vec<String> = got.iter().map(|(n, h)| format!("(\"{n}\", {h:#018x}),")).collect();
    assert_eq!(got.len(), pinned.len());
    for ((name, hash), (want_name, want)) in got.iter().zip(pinned) {
        assert_eq!(name, want_name);
        assert_eq!(*hash, *want, "{name}: posterior digest moved; now:\n{}", printed.join("\n"));
    }
}

#[test]
fn knn_posteriors_and_radii_are_pinned() {
    check(&digests(&training_set()), &PINNED);
}

#[test]
fn unsaturated_neighbourhoods_are_pinned() {
    let got = digests(&tiny_set());
    check(&got, &PINNED_TINY);
    // k > 2 over two examples: no query has a finite radius.
    let qs = queries();
    let refs: Vec<&[f64]> = qs.iter().map(|q| q.as_slice()).collect();
    for k in [3, 5] {
        let model = EstimatorKind::Dwknn { k }.train(&tiny_set()).unwrap();
        let radii2 = model.predict_proba_batch_tracked(&refs).radii2.unwrap();
        assert!(radii2.iter().all(|r| r.is_infinite()), "k={k}");
    }
}
