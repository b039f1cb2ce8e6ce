(** Planar computational geometry.

    Points are pairs [(x, y)].  Polygons are point lists; convex
    polygons produced by {!convex_hull} are in counter-clockwise order
    without a repeated endpoint.  Used to represent Birkhoff centres
    and test inclusion of stationary samples. *)

type point = float * float

val cross : point -> point -> point -> float
(** [cross o a b] is the z-component of [(a - o) x (b - o)]: positive
    for a left turn. *)

val dist : point -> point -> float

val convex_hull_indices : float array -> float array -> int array
(** [convex_hull_indices xs ys] is the convex hull of the points
    [(xs.(i), ys.(i))] as indices into them, counter-clockwise from the
    smallest point: Andrew's monotone chain over the points sorted by
    [(x, y)] under [Float.compare] with duplicates dropped.  Collinear
    points on the hull boundary are dropped; degenerate inputs (fewer
    than 3 distinct points) return the distinct points in sorted order.
    The indices depend on the input order only through which of several
    equal points ([0.] and [-0.], or NaNs) is kept: the one
    [List.sort_uniq compare] keeps on the point list.
    @raise Invalid_argument if [xs] and [ys] differ in length. *)

val convex_hull : point list -> point list
(** {!convex_hull_indices} on a point list: the hull's points, taken
    from the list. *)

val polygon_area : point list -> float
(** Absolute area by the shoelace formula. *)

val centroid : point list -> point

val point_in_convex_polygon : ?tol:float -> point -> point list -> bool
(** Membership in a CCW convex polygon, inclusive of the boundary up to
    a perpendicular distance [tol] (default 1e-12) from each edge. *)

val violation_depth : point -> point list -> float
(** How far outside a CCW convex polygon a point lies: 0 inside, else
    the largest outward signed distance over the edges (a lower bound
    on the true distance to the polygon, exact when the nearest feature
    is an edge). *)

val edges : point list -> (point * point) list
(** Consecutive edges, closing the polygon. *)

val outward_normal : point -> point -> point
(** Unit outward normal of the directed edge [(a, b)] of a CCW
    polygon. *)

val edge_midpoints : point list -> (point * point) list
(** For each edge of a CCW polygon: its midpoint paired with its unit
    outward normal. *)

val resample_boundary : point list -> int -> point list
(** [n] points evenly spaced (by arc length) along the closed polygon
    boundary. *)

val hausdorff : point list -> point list -> float
(** Symmetric Hausdorff distance between two point sets (brute
    force). *)

val bounding_box : point list -> point * point
(** [(xmin, ymin), (xmax, ymax)]. *)
