//! Slicing-tree area optimisation.
//!
//! The layout language describes module placement as a slicing structure
//! (recursive horizontal/vertical cuts). Each leaf module publishes a
//! [`ShapeFunction`]; this module combines them bottom-up, prunes
//! dominated combinations, and extracts — for a given global shape
//! constraint — the minimum-area realisation: one variant choice per leaf
//! plus a placement for each.
//!
//! This is the "simple and fast algorithm based on shape functions and
//! slicing structures" of §3 of the paper.

use crate::shape::{ShapeFunction, Variant};
use losac_tech::units::Nm;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A slicing structure over leaf modules (identified by index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlicingTree {
    /// A leaf module.
    Leaf(usize),
    /// Two subtrees side by side (left, right).
    Row(Box<SlicingTree>, Box<SlicingTree>),
    /// Two subtrees stacked (bottom, top).
    Column(Box<SlicingTree>, Box<SlicingTree>),
}

impl SlicingTree {
    /// Convenience: a row of leaves.
    pub fn row_of(ids: &[usize]) -> SlicingTree {
        Self::chain(ids, true)
    }

    /// Convenience: a column of leaves.
    pub fn column_of(ids: &[usize]) -> SlicingTree {
        Self::chain(ids, false)
    }

    fn chain(ids: &[usize], horizontal: bool) -> SlicingTree {
        assert!(!ids.is_empty(), "a slicing chain needs at least one leaf");
        let mut it = ids.iter().rev();
        let mut acc = SlicingTree::Leaf(*it.next().unwrap());
        for &id in it {
            acc = if horizontal {
                SlicingTree::Row(Box::new(SlicingTree::Leaf(id)), Box::new(acc))
            } else {
                SlicingTree::Column(Box::new(SlicingTree::Leaf(id)), Box::new(acc))
            };
        }
        acc
    }

    /// All leaf ids in the tree.
    pub fn leaves(&self) -> Vec<usize> {
        match self {
            SlicingTree::Leaf(id) => vec![*id],
            SlicingTree::Row(a, b) | SlicingTree::Column(a, b) => {
                let mut v = a.leaves();
                v.extend(b.leaves());
                v
            }
        }
    }
}

/// Global shape constraint for the optimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeConstraint {
    /// Minimise area with no further constraint.
    MinArea,
    /// Total height at most this (nm).
    MaxHeight(Nm),
    /// Total width at most this (nm).
    MaxWidth(Nm),
    /// Aspect ratio (w/h) as close as possible to this.
    Aspect(f64),
}

/// The text form of job labels and the wire: `min_area`, `hmax=N`,
/// `wmax=N` or `aspect=R`. [`FromStr`] reads it back.
impl fmt::Display for ShapeConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeConstraint::MinArea => f.write_str("min_area"),
            ShapeConstraint::MaxHeight(h) => write!(f, "hmax={h}"),
            ShapeConstraint::MaxWidth(w) => write!(f, "wmax={w}"),
            ShapeConstraint::Aspect(r) => write!(f, "aspect={r}"),
        }
    }
}

impl FromStr for ShapeConstraint {
    type Err = ParseShapeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let shape = if s == "min_area" {
            Some(ShapeConstraint::MinArea)
        } else if let Some(v) = s.strip_prefix("hmax=") {
            v.parse().ok().map(ShapeConstraint::MaxHeight)
        } else if let Some(v) = s.strip_prefix("wmax=") {
            v.parse().ok().map(ShapeConstraint::MaxWidth)
        } else if let Some(v) = s.strip_prefix("aspect=") {
            v.parse().ok().map(ShapeConstraint::Aspect)
        } else {
            None
        };
        shape.ok_or_else(|| ParseShapeError(s.to_owned()))
    }
}

/// Text that is none of [`ShapeConstraint`]'s text forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseShapeError(String);

impl fmt::Display for ParseShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown shape {:?} (min_area, aspect=R, hmax=N, wmax=N)",
            self.0
        )
    }
}

impl std::error::Error for ParseShapeError {}

/// A chosen realisation of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    /// Total bounding-box width (nm).
    pub w: Nm,
    /// Total bounding-box height (nm).
    pub h: Nm,
    /// Chosen variant tag per leaf id.
    pub choices: BTreeMap<usize, u32>,
    /// Lower-left placement per leaf id.
    pub positions: BTreeMap<usize, (Nm, Nm)>,
}

impl Realization {
    /// Total area (nm²).
    pub fn area(&self) -> i128 {
        self.w as i128 * self.h as i128
    }
}

/// Optimisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicingError {
    message: String,
}

impl fmt::Display for SlicingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slicing optimisation failed: {}", self.message)
    }
}

impl std::error::Error for SlicingError {}

/// Internal node variant with back-pointers to the child choices.
#[derive(Debug, Clone, Copy)]
struct Combo {
    w: Nm,
    h: Nm,
    a: usize,
    b: usize,
}

enum Node<'a> {
    Leaf(usize, &'a ShapeFunction),
    Inner {
        horizontal: bool,
        a: Box<Node<'a>>,
        b: Box<Node<'a>>,
        combos: Vec<Combo>,
    },
}

impl Node<'_> {
    fn variants(&self) -> Vec<Variant> {
        match self {
            Node::Leaf(_, sf) => sf.variants().to_vec(),
            Node::Inner { combos, .. } => combos
                .iter()
                .enumerate()
                .map(|(i, c)| Variant {
                    w: c.w,
                    h: c.h,
                    tag: i as u32,
                })
                .collect(),
        }
    }
}

fn build<'a>(
    tree: &SlicingTree,
    shapes: &'a [ShapeFunction],
    spacing: (Nm, Nm),
) -> Result<Node<'a>, SlicingError> {
    match tree {
        SlicingTree::Leaf(id) => {
            let sf = shapes.get(*id).ok_or_else(|| SlicingError {
                message: format!(
                    "leaf {id} has no shape function (only {} given)",
                    shapes.len()
                ),
            })?;
            Ok(Node::Leaf(*id, sf))
        }
        SlicingTree::Row(a, b) | SlicingTree::Column(a, b) => {
            let horizontal = matches!(tree, SlicingTree::Row(..));
            let na = build(a, shapes, spacing)?;
            let nb = build(b, shapes, spacing)?;
            let va = na.variants();
            let vb = nb.variants();
            let mut combos = Vec::with_capacity(va.len() * vb.len());
            for (i, x) in va.iter().enumerate() {
                for (j, y) in vb.iter().enumerate() {
                    let (w, h) = if horizontal {
                        (x.w + spacing.0 + y.w, x.h.max(y.h))
                    } else {
                        (x.w.max(y.w), x.h + spacing.1 + y.h)
                    };
                    combos.push(Combo { w, h, a: i, b: j });
                }
            }
            // Prune dominated combos.
            combos.sort_by_key(|c| (c.w, c.h));
            let mut pruned: Vec<Combo> = Vec::new();
            for c in combos {
                if let Some(last) = pruned.last() {
                    if last.h <= c.h {
                        continue;
                    }
                    if last.w == c.w {
                        pruned.pop();
                    }
                }
                pruned.push(c);
            }
            Ok(Node::Inner {
                horizontal,
                a: Box::new(na),
                b: Box::new(nb),
                combos: pruned,
            })
        }
    }
}

fn extract(
    node: &Node<'_>,
    variant_idx: usize,
    x: Nm,
    y: Nm,
    spacing: (Nm, Nm),
    out: &mut Realization,
) {
    match node {
        Node::Leaf(id, sf) => {
            let v = sf.variants()[variant_idx];
            out.choices.insert(*id, v.tag);
            out.positions.insert(*id, (x, y));
        }
        Node::Inner {
            horizontal,
            a,
            b,
            combos,
        } => {
            let c = combos[variant_idx];
            extract(a, c.a, x, y, spacing, out);
            let (bx, by) = if *horizontal {
                (x + width_of(a, c.a) + spacing.0, y)
            } else {
                (x, y + height_of(a, c.a) + spacing.1)
            };
            extract(b, c.b, bx, by, spacing, out);
        }
    }
}

fn width_of(node: &Node<'_>, idx: usize) -> Nm {
    match node {
        Node::Leaf(_, sf) => sf.variants()[idx].w,
        Node::Inner { combos, .. } => combos[idx].w,
    }
}

fn height_of(node: &Node<'_>, idx: usize) -> Nm {
    match node {
        Node::Leaf(_, sf) => sf.variants()[idx].h,
        Node::Inner { combos, .. } => combos[idx].h,
    }
}

/// Optimise `tree` over the leaf `shapes` with `spacing` nm between
/// row siblings (horizontal) and column siblings (vertical) alike, under
/// `constraint`.
///
/// # Errors
///
/// Returns [`SlicingError`] when a leaf id has no shape function or no
/// realisation satisfies the constraint.
pub fn optimize(
    tree: &SlicingTree,
    shapes: &[ShapeFunction],
    spacing: Nm,
    constraint: ShapeConstraint,
) -> Result<Realization, SlicingError> {
    optimize_xy(tree, shapes, (spacing, spacing), constraint)
}

/// [`optimize`] with independent horizontal/vertical spacing — the flow
/// widens the vertical gaps to host the inter-row routing channels.
///
/// # Errors
///
/// Same failure modes as [`optimize`].
pub fn optimize_xy(
    tree: &SlicingTree,
    shapes: &[ShapeFunction],
    spacing: (Nm, Nm),
    constraint: ShapeConstraint,
) -> Result<Realization, SlicingError> {
    let node = build(tree, shapes, spacing)?;
    let variants = node.variants();
    let best = match constraint {
        ShapeConstraint::MinArea => variants.iter().enumerate().min_by_key(|(_, v)| v.area()),
        ShapeConstraint::MaxHeight(hmax) => variants
            .iter()
            .enumerate()
            .filter(|(_, v)| v.h <= hmax)
            .min_by_key(|(_, v)| v.area()),
        ShapeConstraint::MaxWidth(wmax) => variants
            .iter()
            .enumerate()
            .filter(|(_, v)| v.w <= wmax)
            .min_by_key(|(_, v)| v.area()),
        ShapeConstraint::Aspect(r) => {
            let valid = r.is_finite() && r > 0.0;
            if !valid {
                return Err(SlicingError {
                    message: format!("bad aspect ratio {r}"),
                });
            }
            variants.iter().enumerate().min_by(|(_, a), (_, b)| {
                let da = (a.aspect().ln() - r.ln()).abs();
                let db = (b.aspect().ln() - r.ln()).abs();
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.area().cmp(&b.area()))
            })
        }
    };
    let Some((idx, v)) = best else {
        return Err(SlicingError {
            message: format!("no realisation satisfies {constraint:?}"),
        });
    };
    let mut out = Realization {
        w: v.w,
        h: v.h,
        choices: BTreeMap::new(),
        positions: BTreeMap::new(),
    };
    extract(&node, idx, 0, 0, spacing, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transistor_like(total: Nm) -> ShapeFunction {
        // Variants mimicking fold counts 1, 2, 4, 8 of a W = `total` device.
        let folds = [1u32, 2, 4, 8];
        ShapeFunction::new(
            folds
                .iter()
                .map(|&nf| Variant {
                    w: 2400 * nf as Nm, // pitch per finger
                    h: total / nf as Nm + 4000,
                    tag: nf,
                })
                .collect(),
        )
    }

    #[test]
    fn single_leaf_passthrough() {
        let shapes = vec![transistor_like(40_000)];
        let tree = SlicingTree::Leaf(0);
        let r = optimize(&tree, &shapes, 0, ShapeConstraint::MinArea).unwrap();
        assert_eq!(r.positions[&0], (0, 0));
        assert!(r.choices[&0] >= 1);
    }

    #[test]
    fn row_places_side_by_side() {
        let shapes = vec![transistor_like(40_000), transistor_like(40_000)];
        let tree = SlicingTree::row_of(&[0, 1]);
        let spacing = 1200;
        let r = optimize(&tree, &shapes, spacing, ShapeConstraint::MinArea).unwrap();
        let (x0, _) = r.positions[&0];
        let (x1, _) = r.positions[&1];
        assert_eq!(x0, 0);
        assert!(x1 > x0, "second module to the right");
        // Total width = sum + spacing.
        assert!(r.w > r.h / 4, "row realisations are wide-ish");
    }

    #[test]
    fn column_stacks() {
        let shapes = vec![
            ShapeFunction::fixed(10_000, 5_000, 0),
            ShapeFunction::fixed(8_000, 3_000, 0),
        ];
        let tree = SlicingTree::column_of(&[0, 1]);
        let r = optimize(&tree, &shapes, 1000, ShapeConstraint::MinArea).unwrap();
        assert_eq!(r.w, 10_000);
        assert_eq!(r.h, 5_000 + 1000 + 3_000);
        assert_eq!(r.positions[&0], (0, 0));
        assert_eq!(r.positions[&1], (0, 6_000));
    }

    #[test]
    fn height_constraint_forces_folding() {
        let shapes = vec![transistor_like(80_000)];
        let tree = SlicingTree::Leaf(0);
        // Unconstrained min area would pick some nf; a tight height cap
        // must force more folds (shorter, wider variants).
        let free = optimize(&tree, &shapes, 0, ShapeConstraint::MinArea).unwrap();
        let capped = optimize(&tree, &shapes, 0, ShapeConstraint::MaxHeight(15_000)).unwrap();
        assert!(capped.h <= 15_000);
        assert!(capped.choices[&0] >= free.choices[&0]);
    }

    #[test]
    fn impossible_height_errors() {
        let shapes = vec![ShapeFunction::fixed(10_000, 5_000, 0)];
        let tree = SlicingTree::Leaf(0);
        let err = optimize(&tree, &shapes, 0, ShapeConstraint::MaxHeight(1_000));
        assert!(err.is_err());
    }

    #[test]
    fn aspect_constraint_picks_squarish() {
        let shapes = vec![transistor_like(100_000), transistor_like(100_000)];
        let tree = SlicingTree::row_of(&[0, 1]);
        let r = optimize(&tree, &shapes, 1200, ShapeConstraint::Aspect(1.0)).unwrap();
        let aspect = r.w as f64 / r.h as f64;
        assert!(aspect > 0.3 && aspect < 3.0, "aspect {aspect}");
    }

    #[test]
    fn area_at_least_sum_of_parts() {
        let shapes = vec![transistor_like(60_000), transistor_like(30_000)];
        let tree = SlicingTree::row_of(&[0, 1]);
        let r = optimize(&tree, &shapes, 0, ShapeConstraint::MinArea).unwrap();
        let min_parts: i128 = shapes.iter().map(|s| s.min_area().area()).sum();
        assert!(r.area() >= min_parts, "{} < {min_parts}", r.area());
    }

    #[test]
    fn missing_shape_function_errors() {
        let shapes = vec![transistor_like(60_000)];
        let tree = SlicingTree::row_of(&[0, 1]);
        assert!(optimize(&tree, &shapes, 0, ShapeConstraint::MinArea).is_err());
    }

    #[test]
    fn nested_tree_positions_disjoint() {
        let shapes: Vec<ShapeFunction> = (0..4)
            .map(|i| transistor_like(20_000 + 10_000 * i))
            .collect();
        let tree = SlicingTree::Column(
            Box::new(SlicingTree::row_of(&[0, 1])),
            Box::new(SlicingTree::row_of(&[2, 3])),
        );
        let r = optimize(&tree, &shapes, 1200, ShapeConstraint::MinArea).unwrap();
        assert_eq!(r.positions.len(), 4);
        // Bottom row below top row.
        let y0 = r.positions[&0].1.max(r.positions[&1].1);
        let y2 = r.positions[&2].1.min(r.positions[&3].1);
        assert!(y2 > y0);
    }

    #[test]
    fn leaves_enumeration() {
        let tree = SlicingTree::Column(
            Box::new(SlicingTree::row_of(&[3, 1])),
            Box::new(SlicingTree::Leaf(2)),
        );
        assert_eq!(tree.leaves(), vec![3, 1, 2]);
    }
}
