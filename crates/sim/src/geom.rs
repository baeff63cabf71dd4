//! 2-D geometry and the testbed floorplan.
//!
//! The channel model needs three geometric facts: the distance between two
//! points, the attenuation of obstacles crossed by the straight-line path
//! between them, and the positions of environmental reflectors. This module
//! provides points, segments with a robust intersection test, attenuating
//! obstacles, and [`Floorplan::paper_testbed`], a reconstruction of the
//! paper's Figure 4 (an 18 m × 7 m lab/office area with metal cabinets,
//! concrete and wooden walls and doors separating the NLOS locations).

/// A point (or free vector) in the 2-D floorplan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// x coordinate in metres.
    pub x: f64,
    /// y coordinate in metres.
    pub y: f64,
}

impl Point2 {
    /// Construct a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// A line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start.
    pub a: Point2,
    /// Segment end.
    pub b: Point2,
}

impl Segment {
    /// Construct a segment.
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Segment length in metres.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// `true` if this segment properly or improperly intersects `other`.
    ///
    /// Uses the standard orientation test; collinear-overlap cases count as
    /// intersecting (a path grazing along a wall is attenuated).
    pub fn intersects(&self, other: &Segment) -> bool {
        fn orient(p: Point2, q: Point2, r: Point2) -> f64 {
            (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
        }
        fn on_segment(p: Point2, q: Point2, r: Point2) -> bool {
            r.x >= p.x.min(q.x) && r.x <= p.x.max(q.x) && r.y >= p.y.min(q.y) && r.y <= p.y.max(q.y)
        }
        let d1 = orient(other.a, other.b, self.a);
        let d2 = orient(other.a, other.b, self.b);
        let d3 = orient(self.a, self.b, other.a);
        let d4 = orient(self.a, self.b, other.b);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(other.a, other.b, self.a))
            || (d2 == 0.0 && on_segment(other.a, other.b, self.b))
            || (d3 == 0.0 && on_segment(self.a, self.b, other.a))
            || (d4 == 0.0 && on_segment(self.a, self.b, other.b))
    }
}

/// Obstacle material, with a per-crossing penetration loss at 2.4/5 GHz.
///
/// Loss values are the commonly used indoor propagation figures (ITU-R
/// P.1238-range): drywall ≈ 3 dB, wooden wall/door ≈ 4–6 dB, concrete
/// ≈ 10–15 dB, metal cabinet ≈ 15–25 dB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Interior drywall partition.
    Drywall,
    /// Wooden wall or door.
    Wood,
    /// Load-bearing concrete wall.
    Concrete,
    /// Metal cabinet / filing cabinets (the paper mentions these block the
    /// NLOS path).
    MetalCabinet,
    /// Glass partition.
    Glass,
}

impl Material {
    /// Penetration loss in dB for one crossing of this material.
    pub fn penetration_loss_db(self) -> f64 {
        match self {
            Material::Drywall => 3.0,
            Material::Wood => 5.0,
            Material::Concrete => 12.0,
            Material::MetalCabinet => 19.0,
            Material::Glass => 2.0,
        }
    }
}

/// A wall/cabinet: a segment of some material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Obstacle footprint in the floorplan.
    pub segment: Segment,
    /// What it is made of.
    pub material: Material,
}

impl Obstacle {
    /// Construct an obstacle from endpoint coordinates.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64, material: Material) -> Self {
        Obstacle {
            segment: Segment::new(Point2::new(x0, y0), Point2::new(x1, y1)),
            material,
        }
    }
}

/// A floorplan: a set of attenuating obstacles plus named reflector points
/// used by the multipath model.
#[derive(Debug, Clone, Default)]
pub struct Floorplan {
    /// Walls, doors and cabinets.
    pub obstacles: Vec<Obstacle>,
    /// Static environmental reflectors (wall corners, cabinets, desks) that
    /// contribute multipath rays.
    pub reflectors: Vec<Point2>,
}

impl Floorplan {
    /// An empty floorplan: free space, no multipath other than what the
    /// channel model adds.
    pub fn free_space() -> Self {
        Floorplan::default()
    }

    /// Total obstacle penetration loss (dB) along the straight path `a→b`.
    pub fn penetration_loss_db(&self, a: Point2, b: Point2) -> f64 {
        let path = Segment::new(a, b);
        self.obstacles
            .iter()
            .filter(|o| path.intersects(&o.segment))
            .map(|o| o.material.penetration_loss_db())
            .sum()
    }

    /// Number of obstacles crossed by the straight path `a→b`.
    pub fn crossings(&self, a: Point2, b: Point2) -> usize {
        let path = Segment::new(a, b);
        self.obstacles
            .iter()
            .filter(|o| path.intersects(&o.segment))
            .count()
    }

    /// `true` if the straight path between `a` and `b` crosses no obstacle.
    pub fn line_of_sight(&self, a: Point2, b: Point2) -> bool {
        self.crossings(a, b) == 0
    }

    /// Reconstruction of the paper's Figure 4 testbed.
    ///
    /// Coordinates (metres): the floor area is 18 m wide (x) and 7 m deep
    /// (y). The AP sits in the lab at the left, the client 8 m away in the
    /// same room for the LOS experiment. Two office locations, A (≈ 7 m
    /// from the AP, one wooden wall + a metal cabinet in the way) and B
    /// (≈ 17 m from the AP, additionally behind a concrete wall), host the
    /// NLOS experiments. The exact interior layout of the real building is
    /// unknown; the reconstruction preserves what the paper states: A's
    /// path crosses fewer/lighter obstacles than B's, and both are fully
    /// non-line-of-sight.
    pub fn paper_testbed() -> Self {
        let mut fp = Floorplan::default();
        // Exterior shell (concrete) — mostly cosmetic, nothing crosses it.
        fp.obstacles
            .push(Obstacle::new(0.0, 0.0, 18.0, 0.0, Material::Concrete));
        fp.obstacles
            .push(Obstacle::new(0.0, 7.0, 18.0, 7.0, Material::Concrete));
        fp.obstacles
            .push(Obstacle::new(0.0, 0.0, 0.0, 7.0, Material::Concrete));
        fp.obstacles
            .push(Obstacle::new(18.0, 0.0, 18.0, 7.0, Material::Concrete));
        // Interior wooden wall in the lower half of the lab (stops short of
        // the corridor along y = 3.5 that the LOS experiment uses).
        fp.obstacles
            .push(Obstacle::new(4.0, 0.0, 4.0, 3.0, Material::Wood));
        // Metal cabinet row further in, also below the LOS corridor.
        fp.obstacles
            .push(Obstacle::new(6.0, 0.5, 6.0, 2.8, Material::MetalCabinet));
        // Lab / office partition at x = 9.5 (wooden wall with a door).
        fp.obstacles
            .push(Obstacle::new(9.5, 0.0, 9.5, 7.0, Material::Wood));
        // Metal cabinets along the partition on the lab side.
        fp.obstacles
            .push(Obstacle::new(9.0, 1.0, 9.0, 3.0, Material::MetalCabinet));
        // Drywall partition inside the office area.
        fp.obstacles
            .push(Obstacle::new(12.0, 0.0, 12.0, 7.0, Material::Drywall));
        // Second partition at x = 14 (concrete) separating location B.
        fp.obstacles
            .push(Obstacle::new(14.0, 0.0, 14.0, 7.0, Material::Concrete));
        // A wooden door segment inside the far office.
        fp.obstacles
            .push(Obstacle::new(14.0, 4.5, 15.5, 4.5, Material::Wood));
        // Environmental reflectors: corners, cabinets, desks.
        fp.reflectors = vec![
            Point2::new(0.5, 0.5),
            Point2::new(0.5, 6.5),
            Point2::new(9.0, 2.0),
            Point2::new(5.0, 6.8),
            Point2::new(12.0, 0.4),
            Point2::new(16.0, 6.0),
        ];
        fp
    }

    /// AP position used by the paper's experiments (left side of the lab).
    pub fn ap_position() -> Point2 {
        Point2::new(0.8, 3.5)
    }

    /// Client position for the LOS experiment: 8 m from the AP in the lab.
    pub fn los_client_position() -> Point2 {
        Point2::new(8.8, 3.5)
    }

    /// NLOS location A: client ≈ 7 m from the AP, behind the wooden
    /// partition and cabinets.
    pub fn nlos_a_client_position() -> Point2 {
        Point2::new(7.7, 2.2) // distance to AP ≈ 7.0 m
    }

    /// NLOS location B: client ≈ 17 m from the AP, behind the concrete
    /// partition as well.
    pub fn nlos_b_client_position() -> Point2 {
        Point2::new(17.7, 2.8) // distance to AP ≈ 16.9 m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.midpoint(b), Point2::new(1.5, 2.0));
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.5, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(2.0, 2.0));
        let s2 = Segment::new(Point2::new(0.0, 2.0), Point2::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
        assert!(s2.intersects(&s1));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0));
        let s2 = Segment::new(Point2::new(0.0, 1.0), Point2::new(2.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn touching_endpoint_counts_as_intersection() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0));
        let s2 = Segment::new(Point2::new(1.0, 1.0), Point2::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = Segment::new(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        let s2 = Segment::new(Point2::new(3.0, 3.0), Point2::new(4.0, 4.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn los_experiment_geometry_matches_paper() {
        let fp = Floorplan::paper_testbed();
        let ap = Floorplan::ap_position();
        let client = Floorplan::los_client_position();
        assert!(
            (ap.distance(client) - 8.0).abs() < 1e-9,
            "AP-client must be 8 m"
        );
        assert!(
            fp.line_of_sight(ap, client),
            "LOS pair must be unobstructed"
        );
    }

    #[test]
    fn nlos_locations_are_obstructed_and_b_is_worse() {
        let fp = Floorplan::paper_testbed();
        let ap = Floorplan::ap_position();
        let a = Floorplan::nlos_a_client_position();
        let b = Floorplan::nlos_b_client_position();
        assert!(!fp.line_of_sight(ap, a), "location A must be NLOS");
        assert!(!fp.line_of_sight(ap, b), "location B must be NLOS");
        assert!(
            (ap.distance(a) - 7.0).abs() < 0.3,
            "A ≈ 7 m from AP, got {}",
            ap.distance(a)
        );
        assert!(
            (ap.distance(b) - 17.0).abs() < 0.3,
            "B ≈ 17 m from AP, got {}",
            ap.distance(b)
        );
        // B crosses at least as many obstacles as A, and its total link
        // budget (free-space + penetration) is clearly worse — the paper's
        // "more obstacles blocking the line of sight" for location B.
        assert!(fp.crossings(ap, b) >= fp.crossings(ap, a));
        let budget = |d: f64, pen: f64| -> f64 { 20.0 * d.log10() + pen };
        let budget_a = budget(ap.distance(a), fp.penetration_loss_db(ap, a));
        let budget_b = budget(ap.distance(b), fp.penetration_loss_db(ap, b));
        assert!(
            budget_b > budget_a + 3.0,
            "B's link budget must be clearly worse ({budget_b:.1} vs {budget_a:.1} dB)"
        );
    }

    #[test]
    fn free_space_has_no_loss() {
        let fp = Floorplan::free_space();
        assert_eq!(
            fp.penetration_loss_db(Point2::new(0.0, 0.0), Point2::new(100.0, 100.0)),
            0.0
        );
        assert!(fp.line_of_sight(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)));
    }

    #[test]
    fn material_losses_ordered_sensibly() {
        assert!(
            Material::MetalCabinet.penetration_loss_db() > Material::Concrete.penetration_loss_db()
        );
        assert!(Material::Concrete.penetration_loss_db() > Material::Wood.penetration_loss_db());
        assert!(Material::Wood.penetration_loss_db() > Material::Glass.penetration_loss_db());
    }
}
