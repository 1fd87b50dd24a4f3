//! Planar geometry primitives used by floorplanning and placement.
//!
//! Coordinates are in microns, stored as `f64` inside the [`Microns`]
//! newtype from `m3d-tech`.

use serde::{Deserialize, Serialize};

use m3d_tech::units::{Microns, SquareMicrons};

/// A point on the die, in microns.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Microns,
    /// Vertical coordinate.
    pub y: Microns,
}

impl Point {
    /// Creates a point from raw micron values.
    pub fn new(x: f64, y: f64) -> Self {
        Self {
            x: Microns::new(x),
            y: Microns::new(y),
        }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: Point) -> Microns {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub x0: Microns,
    /// Bottom edge.
    pub y0: Microns,
    /// Right edge.
    pub x1: Microns,
    /// Top edge.
    pub y1: Microns,
}

impl m3d_tech::StableHash for Rect {
    fn stable_hash(&self, h: &mut m3d_tech::StableHasher) {
        self.x0.stable_hash(h);
        self.y0.stable_hash(h);
        self.x1.stable_hash(h);
        self.y1.stable_hash(h);
    }
}

impl Rect {
    /// Creates a rectangle from raw micron corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the rectangle is inverted.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        debug_assert!(x1 >= x0 && y1 >= y0, "inverted rectangle");
        Self {
            x0: Microns::new(x0),
            y0: Microns::new(y0),
            x1: Microns::new(x1),
            y1: Microns::new(y1),
        }
    }

    /// A rectangle at the origin with the given width and height.
    pub fn with_size(width: Microns, height: Microns) -> Self {
        Self {
            x0: Microns::ZERO,
            y0: Microns::ZERO,
            x1: width,
            y1: height,
        }
    }

    /// Width of the rectangle.
    pub fn width(&self) -> Microns {
        self.x1 - self.x0
    }

    /// Height of the rectangle.
    pub fn height(&self) -> Microns {
        self.y1 - self.y0
    }

    /// Area of the rectangle.
    pub fn area(&self) -> SquareMicrons {
        self.width() * self.height()
    }

    /// Geometric centre.
    pub fn center(&self) -> Point {
        Point {
            x: (self.x0 + self.x1) / 2.0,
            y: (self.y0 + self.y1) / 2.0,
        }
    }

    /// `true` when `p` lies inside (left/bottom inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// `true` when `other` lies entirely inside `self` (edges may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// Intersection of two rectangles, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1.min(other.x1);
        let y1 = self.y1.min(other.y1);
        (x1 > x0 && y1 > y0).then_some(Rect { x0, y0, x1, y1 })
    }

    /// Returns this rectangle shrunk by `margin` on every side (empty
    /// rectangles collapse to their centre).
    pub fn shrunk(&self, margin: Microns) -> Rect {
        let mut r = Rect {
            x0: self.x0 + margin,
            y0: self.y0 + margin,
            x1: self.x1 - margin,
            y1: self.y1 - margin,
        };
        if r.x1 < r.x0 {
            let c = (self.x0 + self.x1) / 2.0;
            r.x0 = c;
            r.x1 = c;
        }
        if r.y1 < r.y0 {
            let c = (self.y0 + self.y1) / 2.0;
            r.y0 = c;
            r.y1 = c;
        }
        r
    }
}

/// Bounding box accumulator for half-perimeter wirelength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
    count: usize,
}

impl BoundingBox {
    /// An empty bounding box.
    pub fn new() -> Self {
        Self {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Expands the box to include `p`.
    pub fn include(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x.value());
        self.min_y = self.min_y.min(p.y.value());
        self.max_x = self.max_x.max(p.x.value());
        self.max_y = self.max_y.max(p.y.value());
        self.count += 1;
    }

    /// Number of included points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no points were included.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Half-perimeter wirelength of the box (zero for < 2 points).
    pub fn hpwl(&self) -> Microns {
        if self.count < 2 {
            return Microns::ZERO;
        }
        Microns::new((self.max_x - self.min_x) + (self.max_y - self.min_y))
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(0.0, 0.0, 10.0, 5.0);
        assert_eq!(r.width(), Microns::new(10.0));
        assert_eq!(r.height(), Microns::new(5.0));
        assert_eq!(r.area(), SquareMicrons::new(50.0));
        let c = r.center();
        assert_eq!(c, Point::new(5.0, 2.5));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(!r.contains(Point::new(10.0, 0.0)));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Rect::new(0.0, 0.0, 10.0, 10.0);
        let b = Rect::new(5.0, 5.0, 15.0, 15.0);
        let c = Rect::new(10.0, 0.0, 20.0, 10.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(5.0, 5.0, 10.0, 10.0));
        assert!(
            a.intersection(&c).is_none(),
            "touching edges do not overlap"
        );
        assert!(a.contains_rect(&Rect::new(1.0, 1.0, 9.0, 9.0)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn translate_and_shrink() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        let s = r.shrunk(Microns::new(1.0));
        assert_eq!(s, Rect::new(1.0, 1.0, 3.0, 3.0));
        let collapsed = r.shrunk(Microns::new(3.0));
        assert_eq!(collapsed.width(), Microns::ZERO);
    }

    #[test]
    fn manhattan_distance() {
        let d = Point::new(0.0, 0.0).manhattan(Point::new(3.0, 4.0));
        assert_eq!(d, Microns::new(7.0));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_rect() -> impl Strategy<Value = Rect> {
            (0.0..1e4_f64, 0.0..1e4_f64, 0.0..1e3_f64, 0.0..1e3_f64)
                .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
        }

        proptest! {
            #[test]
            fn intersection_is_inside_both(a in arb_rect(), b in arb_rect()) {
                if let Some(i) = a.intersection(&b) {
                    prop_assert!(a.contains_rect(&i));
                    prop_assert!(b.contains_rect(&i));
                    prop_assert!(i.area().value() <= a.area().value() + 1e-6);
                    prop_assert!(i.area().value() <= b.area().value() + 1e-6);
                }
            }

            #[test]
            fn containment_implies_full_intersection(a in arb_rect()) {
                let inner = a.shrunk(Microns::new(1.0));
                prop_assert!(a.contains_rect(&inner));
                if inner.area().value() > 0.0 {
                    let i = a.intersection(&inner).unwrap();
                    prop_assert!((i.area().value() - inner.area().value()).abs() < 1e-6);
                }
            }

            #[test]
            fn hpwl_upper_bounds_pairwise_manhattan(
                pts in proptest::collection::vec((0.0..1e4_f64, 0.0..1e4_f64), 2..20)
            ) {
                let mut bb = BoundingBox::new();
                for &(x, y) in &pts {
                    bb.include(Point::new(x, y));
                }
                // HPWL ≥ the Manhattan span between any two points / 1,
                // and ≥ the span between the two extremes.
                for w in pts.windows(2) {
                    let d = Point::new(w[0].0, w[0].1).manhattan(Point::new(w[1].0, w[1].1));
                    prop_assert!(bb.hpwl().value() + 1e-9 >= d.value() * 0.0); // sanity
                }
                let max_d = pts
                    .iter()
                    .flat_map(|&p| pts.iter().map(move |&q| {
                        Point::new(p.0, p.1).manhattan(Point::new(q.0, q.1)).value()
                    }))
                    .fold(0.0f64, f64::max);
                prop_assert!(bb.hpwl().value() + 1e-9 >= max_d);
            }

            #[test]
            fn shrink_never_grows(a in arb_rect(), m in 0.0..1e3_f64) {
                let s = a.shrunk(Microns::new(m));
                prop_assert!(s.area().value() <= a.area().value() + 1e-9);
                prop_assert!(s.width().value() >= -1e-9);
                prop_assert!(s.height().value() >= -1e-9);
            }
        }
    }

    #[test]
    fn hpwl_accumulation() {
        let mut bb = BoundingBox::new();
        assert!(bb.is_empty());
        assert_eq!(bb.hpwl(), Microns::ZERO);
        bb.include(Point::new(0.0, 0.0));
        assert_eq!(bb.hpwl(), Microns::ZERO, "single pin has no wire");
        bb.include(Point::new(3.0, 4.0));
        bb.include(Point::new(1.0, 1.0));
        assert_eq!(bb.hpwl(), Microns::new(7.0));
        assert_eq!(bb.len(), 3);
    }
}
