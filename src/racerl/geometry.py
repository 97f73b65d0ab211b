"""Tracks, racing lines, curvature, projections, and rangefinder geometry.

A track is a closed polyline centerline with constant width; a racing line
is a sequence of (delta, alpha) points, where delta is arc length along the
track axis and alpha the lateral fraction of the width measured from the
right border. The geometry is immutable after construction. The one thing
that changes is a memo: each polyline caches, per 4 m grid cell, which
segments can hold the nearest point of a query in that cell. It caches a
pure function of the fixed points, so instances stay safe to share across
parallel evaluation episodes.

Both hot queries are exact against a scan of every segment:
- ``Polyline.project`` scans only the cached candidates of the query's
  cell. For a cell with centre c, half diagonal h and any point p in it,
  dist(p) <= dist(c) + h, and a segment farther than dist(c) + 2h from c
  is farther than dist(c) + h from p. The candidates stay in index order,
  so ties still resolve to the smaller arc length.
- ``Track.rangefinders`` tests only the chunks of 16 border segments whose
  bounding circle lies within the ray range and is not wholly behind the
  car. Every ray points at most 90 deg off the heading, so it cannot reach
  such a chunk, and any hit beyond the range is clamped to it anyway.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

RANGEFINDER_COUNT = 19
RANGEFINDER_MAX = 200.0
# rays span -90 deg (index 0, right of the car) to +90 deg (index 18) in 10 deg steps
RANGEFINDER_ANGLES = np.deg2rad(np.linspace(-90.0, 90.0, RANGEFINDER_COUNT))
LAC_OFFSETS = (20.0, 40.0, 60.0, 80.0)

_CURVATURE_SPACING = 5.0  # meters between the three circumscribed-circle samples

_CELL = 4.0  # m, side of a projection cell
# dist(c) + 2h plus a margin far above the rounding error of the distances
_CELL_REACH = _CELL * math.sqrt(2.0) + 1e-3
_CHUNK = 16  # border segments per bounding circle
# the cull's margin: far above the rounding error of a ray parameter, even
# for a ray that only just passes the parallel test
_RAY_MARGIN = 1.0


class GeometryError(ValueError):
    """Degenerate geometry (duplicate points, open loop, reversal)."""


class DomainError(ValueError):
    """Argument outside its physical domain."""


def wrap_angle(a):
    """Wrap an angle to (-pi, pi]."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    if w == -math.pi:
        return math.pi
    return w


@dataclass(frozen=True)
class TrackFrame:
    """Car pose expressed relative to a reference line.

    track_pos is the signed lateral offset normalized by the half width
    (positive left of the travel direction, |track_pos| = 1 at a border);
    theta the heading error in (-pi, pi]; delta the arc length of the
    projected point along the track axis.
    """

    track_pos: float
    theta: float
    delta: float


class Polyline:
    """A closed 2D polyline parameterized by arc length."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise GeometryError(f"need at least 3 2D points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise GeometryError("polyline points must be finite")
        # drop an explicitly repeated closing point
        if np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]
        seg = np.roll(pts, -1, axis=0) - pts
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        dup = np.nonzero(seg_len < 1e-12)[0]
        if dup.size:
            raise GeometryError(f"duplicate consecutive point at index {dup[0]}")
        self.points = pts
        self._seg = seg
        self._seg_len = seg_len
        self._seg_len2 = seg_len**2
        self._seg_dir = seg / seg_len[:, None]
        self.vertex_arclength = np.concatenate([[0.0], np.cumsum(seg_len)])[:-1]
        self.length = float(seg_len.sum())
        self._cells = {}  # (i, j) -> candidate (indices, points, segments, squared lengths)

    def __len__(self):
        return self.points.shape[0]

    def wrap(self, s):
        return float(s) % self.length

    def point_at(self, s):
        """World point at arc length s (wrapped around the loop)."""
        s = self.wrap(s)
        j = int(np.searchsorted(self.vertex_arclength, s, side="right")) - 1
        t = (s - self.vertex_arclength[j]) / self._seg_len[j]
        return self.points[j] + t * self._seg[j]

    def tangent_at(self, s):
        """Unit tangent of the segment containing arc length s."""
        s = self.wrap(s)
        j = int(np.searchsorted(self.vertex_arclength, s, side="right")) - 1
        return self._seg_dir[j]

    def normal_at(self, s):
        """Unit left normal (left of travel direction)."""
        t = self.tangent_at(s)
        return np.array([-t[1], t[0]])

    def nearest_vertex(self, s):
        """Index of the vertex closest to arc length s along the loop."""
        s = self.wrap(s)
        j = int(np.searchsorted(self.vertex_arclength, s, side="right")) - 1
        j_next = (j + 1) % len(self)
        ahead = self.vertex_arclength[j_next] if j_next else self.length
        return j if s - self.vertex_arclength[j] <= ahead - s else j_next

    def project(self, point):
        """Nearest point on the polyline.

        Returns (s, lateral, tangent_angle): arc length of the projection,
        signed lateral distance (positive left of travel), and the tangent
        direction there. Ties resolve to the smaller arc length.
        """
        p = np.asarray(point, dtype=np.float64)
        try:
            key = (math.floor(p[0] / _CELL), math.floor(p[1] / _CELL))
        except (ValueError, OverflowError):
            raise DomainError(f"cannot project the non-finite point {p}") from None
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self._cell_candidates(key)
        idx, pts, seg, seg_len2 = cell
        ap = p - pts
        t = np.clip(np.einsum("ij,ij->i", ap, seg) / seg_len2, 0.0, 1.0)
        proj = pts + t[:, None] * seg
        d = p - proj
        k = int(np.argmin(np.einsum("ij,ij->i", d, d)))
        j = idx[k]
        s = float(self.vertex_arclength[j] + t[k] * self._seg_len[j])
        dir_j = self._seg_dir[j]
        lateral = float(dir_j[0] * d[k][1] - dir_j[1] * d[k][0])
        return s, lateral, math.atan2(dir_j[1], dir_j[0])

    def _cell_candidates(self, key):
        """The segments within dist(c) + 2h of the cell centre c, in index order."""
        c = (np.asarray(key, dtype=np.float64) + 0.5) * _CELL
        t = np.clip(np.einsum("ij,ij->i", c - self.points, self._seg) / self._seg_len2, 0.0, 1.0)
        d = c - (self.points + t[:, None] * self._seg)
        dist = np.hypot(d[:, 0], d[:, 1])
        idx = np.nonzero(dist <= dist.min() + _CELL_REACH)[0]
        return idx, self.points[idx], self._seg[idx], self._seg_len2[idx]

    def curvature_at(self, s, spacing=_CURVATURE_SPACING):
        """Signed curvature (1/m, positive left) at arc length s.

        Uses the circumscribed circle of the three polyline vertices nearest
        to s - spacing, s, s + spacing. Vertices of a polyline sampled on a
        circle lie exactly on it, so circles come out exact regardless of
        sampling density; straights give exactly 0.
        """
        i = self.nearest_vertex(s)
        j = self.nearest_vertex(s + spacing)
        k = self.nearest_vertex(s - spacing)
        n = len(self)
        if j == i:
            j = (i + 1) % n
        if k == i or k == j:
            k = (i - 1) % n
        return circumscribed_curvature(self.points[k], self.points[i], self.points[j])


def circumscribed_curvature(a, b, c):
    """Signed curvature of the circle through a, b, c (traversed in order)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    ab = b - a
    bc = c - b
    ca = c - a
    lengths = (np.hypot(*ab), np.hypot(*bc), np.hypot(*ca))
    if min(lengths) < 1e-12:
        raise GeometryError("coincident points have no circumscribed circle")
    cross = ab[0] * bc[1] - ab[1] * bc[0]
    return float(2.0 * cross / (lengths[0] * lengths[1] * lengths[2]))


def max_speed(kappa, mu_grip, mass=None, downforce=0.0, g=9.81, straight_speed=math.inf):
    """Grip-limited cornering speed sqrt(mu * (1/kappa) * (g + F_a/m)).

    kappa = 0 means a straight and returns the declared straight_speed
    sentinel. downforce is the aerodynamic load F_a in newtons.
    """
    if kappa < 0 or mu_grip < 0 or downforce < 0:
        raise DomainError("kappa, mu_grip and downforce must be non-negative")
    if kappa == 0.0:
        return straight_speed
    load = g
    if downforce > 0.0:
        if mass is None or mass <= 0:
            raise DomainError("positive downforce needs a positive mass")
        load += downforce / mass
    return math.sqrt(mu_grip * (1.0 / kappa) * load)


class Track:
    """Closed centerline with constant width and offset border polylines."""

    def __init__(self, centerline, width, name="track", car_width=1.8):
        self.centerline = centerline if isinstance(centerline, Polyline) else Polyline(centerline)
        if not (math.isfinite(width) and width > car_width):
            raise GeometryError(f"width {width} must be finite and exceed the car width {car_width}")
        self.width = float(width)
        self.name = name
        self.length = self.centerline.length
        left, right = _offset_borders(self.centerline, self.width / 2.0)
        self.left_border = Polyline(left)
        self.right_border = Polyline(right)
        self._border_start, self._border_vec = _stack_segments(self.left_border, self.right_border)
        # bounding circles of chunks of consecutive border segments; the last
        # chunk repeats its final segment, which leaves a minimum unchanged
        m = self._border_start.shape[0]
        self._chunks = np.minimum(np.arange(-(-m // _CHUNK) * _CHUNK), m - 1).reshape(-1, _CHUNK)
        ends = np.concatenate([self._border_start[self._chunks],
                               (self._border_start + self._border_vec)[self._chunks]], axis=1)
        self._chunk_centre = (ends.min(axis=1) + ends.max(axis=1)) / 2.0
        offsets = ends - self._chunk_centre[:, None, :]
        self._chunk_radius = np.hypot(offsets[..., 0], offsets[..., 1]).max(axis=1)

    def frame(self, position, heading):
        """Pose relative to the track axis (middle of the track)."""
        s, lateral, tangent = self.centerline.project(position)
        return TrackFrame(
            track_pos=lateral / (self.width / 2.0),
            theta=wrap_angle(heading - tangent),
            delta=s,
        )

    def curvature_at(self, delta):
        return self.centerline.curvature_at(delta)

    def point_at_alpha(self, delta, alpha):
        """World point at lateral fraction alpha of the width, from the right border."""
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {alpha}")
        c = self.centerline.point_at(delta)
        n = self.centerline.normal_at(delta)
        return c + (alpha - 0.5) * self.width * n

    def rangefinders(self, position, heading, frame=None):
        """19 border distances for rays spanning -90..+90 deg, clamped to 200 m.

        A car outside the borders reads all zeros (off-track sentinel).
        frame is the pose's track frame when the caller already has it.
        """
        if frame is None:
            frame = self.frame(position, heading)
        if abs(frame.track_pos) > 1.0:
            return np.zeros(RANGEFINDER_COUNT)
        o = np.asarray(position, dtype=np.float64)
        angles = heading + RANGEFINDER_ANGLES
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        # the chunks within range that are not wholly behind the car
        rel = self._chunk_centre - o
        r = self._chunk_radius
        reach = ((np.hypot(rel[:, 0], rel[:, 1]) - r <= RANGEFINDER_MAX + _RAY_MARGIN)
                 & (rel @ np.array([math.cos(heading), math.sin(heading)]) >= -r - _RAY_MARGIN))
        near = self._chunks[reach].ravel()
        if near.size == 0:
            return np.full(RANGEFINDER_COUNT, RANGEFINDER_MAX)
        a, d = self._border_start[near], self._border_vec[near]
        ao = a - o                                     # (M, 2)
        # o + t*dir = a + u*d ; cross() solves the 2x2 system
        denom = dirs[:, 0][:, None] * d[:, 1] - dirs[:, 1][:, None] * d[:, 0]   # (R, M)
        c_t = ao[:, 0] * d[:, 1] - ao[:, 1] * d[:, 0]                           # (M,)
        c_u = ao[:, 0] * dirs[:, 1][:, None] - ao[:, 1] * dirs[:, 0][:, None]   # (R, M)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = c_t / denom
            u = c_u / denom
        valid = (np.abs(denom) > 1e-12) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
        t = np.where(valid, t, np.inf)
        return np.minimum(t.min(axis=1), RANGEFINDER_MAX)


def _offset_borders(polyline, half_width):
    """Miter-offset vertices so border segments stay parallel at half_width."""
    pts = polyline.points
    dirs = polyline._seg_dir
    prev_dirs = np.roll(dirs, 1, axis=0)
    normals = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    prev_normals = np.column_stack([-prev_dirs[:, 1], prev_dirs[:, 0]])
    miter = normals + prev_normals
    norm = np.hypot(miter[:, 0], miter[:, 1])
    if np.any(norm < 1e-9):
        raise GeometryError("polyline reverses direction; cannot offset borders")
    miter /= norm[:, None]
    scale = half_width / np.einsum("ij,ij->i", miter, normals)
    left = pts + scale[:, None] * miter
    right = pts - scale[:, None] * miter
    return left, right


def _stack_segments(*polylines):
    starts = np.concatenate([p.points for p in polylines])
    vecs = np.concatenate([p._seg for p in polylines])
    return starts, vecs


class RacingLine:
    """Ordered (delta, alpha) trajectory points with precomputed curvature."""

    def __init__(self, track, delta, alpha, name=""):
        delta = np.asarray(delta, dtype=np.float64)
        alpha = np.asarray(alpha, dtype=np.float64)
        if delta.shape != alpha.shape or delta.ndim != 1 or delta.size < 3:
            raise GeometryError(f"need matching 1D delta/alpha, got {delta.shape}/{alpha.shape}")
        bad = np.nonzero(np.diff(delta) <= 0.0)[0]
        if bad.size:
            raise GeometryError(f"delta must be strictly increasing, violated at index {bad[0] + 1}")
        if delta[0] < 0.0:
            raise GeometryError("delta[0] must be >= 0")
        if delta[-1] > track.length:
            raise GeometryError(f"delta[-1] = {delta[-1]} exceeds the lap length {track.length}")
        out = np.nonzero((alpha < 0.0) | (alpha > 1.0))[0]
        if out.size:
            raise DomainError(f"alpha must be in [0, 1], violated at index {out[0]}")
        self.track = track
        self.delta = delta
        self.alpha = alpha
        self.name = name or f"{track.name}-line"
        world = np.stack([track.point_at_alpha(d, a) for d, a in zip(delta, alpha)])
        # a line on the track axis shares the centerline, its projection cache
        # and the axis frames the env already has (see frame_from_axis)
        on_axis = np.array_equal(world, track.centerline.points)
        self.world = track.centerline if on_axis else Polyline(world)
        self.curvature = np.array(
            [self.world.curvature_at(s) for s in self.world.vertex_arclength]
        )
        # periodic interpolation tables (delta domain and line-arc-length domain)
        self._delta_knots = np.concatenate([delta, [delta[0] + track.length]])
        self._kappa_knots = np.concatenate([self.curvature, [self.curvature[0]]])
        self._alpha_knots = np.concatenate([alpha, [alpha[0]]])
        arc = self.world.vertex_arclength
        self._arc_knots = np.concatenate([arc, [self.world.length]])
        self._arc_delta = np.concatenate([delta, [delta[0] + track.length]])

    @classmethod
    def middle_of_track(cls, track):
        """The track axis itself, expressed as a racing line (alpha = 0.5).

        Reuses the centerline's own vertices, so the line's world points equal
        the track axis and the line shares the centerline polyline.
        """
        delta = track.centerline.vertex_arclength
        return cls(track, delta, np.full(delta.size, 0.5), name=f"{track.name}-mot")

    def curvature_at(self, delta):
        d = float(delta) % self.track.length
        if d < self._delta_knots[0]:
            d += self.track.length
        return float(np.interp(d, self._delta_knots, self._kappa_knots))

    def alpha_at(self, delta):
        d = float(delta) % self.track.length
        if d < self._delta_knots[0]:
            d += self.track.length
        return float(np.interp(d, self._delta_knots, self._alpha_knots))

    def look_ahead_curvature(self, delta, offsets=LAC_OFFSETS):
        """Curvature sampled ahead of delta, wrapped around the lap."""
        return np.array([self.curvature_at(delta + off) for off in offsets])

    def world_point_at(self, delta):
        """World point of the line at track arc length delta."""
        return self.track.point_at_alpha(delta, self.alpha_at(delta))

    def frame(self, position, heading):
        """Pose relative to the racing line; track_pos still uses the track half width."""
        s, lateral, tangent = self.world.project(position)
        return TrackFrame(
            track_pos=lateral / (self.track.width / 2.0),
            theta=wrap_angle(heading - tangent),
            delta=self._track_delta(s),
        )

    def frame_from_axis(self, axis_frame):
        """frame() of a pose whose track-axis frame is known, for a line that
        shares the centerline: the same projection, so the same track_pos and
        theta, with the line's own arc length to delta table."""
        if self.world is not self.track.centerline:
            raise GeometryError(f"racing line {self.name!r} is not on the track axis")
        return TrackFrame(axis_frame.track_pos, axis_frame.theta,
                          self._track_delta(axis_frame.delta))

    def _track_delta(self, s):
        return float(np.interp(s, self._arc_knots, self._arc_delta)) % self.track.length


# ---------------------------------------------------------------------------
# file formats


def save_track(track, path):
    doc = {
        "name": track.name,
        "width": track.width,
        "centerline": track.centerline.points.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_track(path):
    """Load {name, width, centerline} JSON, validating every invariant.

    The first violation is reported with its field (and point index).
    """
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("name", "width", "centerline"):
        if key not in doc:
            raise GeometryError(f"track file missing key {key!r}")
    if not isinstance(doc["name"], str):
        raise GeometryError(f"track file name must be a string, got {doc['name']!r}")
    width = doc["width"]
    if not (_is_number(width) and math.isfinite(width)):
        raise GeometryError(f"track file width must be a finite number, got {width!r}")
    pts = _finite_pairs(doc, "centerline", "2D points")
    return Track(pts, float(width), name=doc["name"])


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite_pairs(doc, key, what):
    """doc[key] as an (n, 2) array: at least 3 pairs of finite numbers."""
    pts = doc[key]
    if not isinstance(pts, list) or len(pts) < 3:
        raise GeometryError(f"{key} must hold at least 3 {what}, got {pts!r:.60}")
    for i, p in enumerate(pts):
        if not (isinstance(p, list) and len(p) == 2
                and all(_is_number(v) and math.isfinite(v) for v in p)):
            raise GeometryError(f"{key}[{i}] is not a pair of finite numbers: {p!r:.60}")
    return np.asarray(pts, dtype=np.float64)


def save_racing_line(line, path):
    doc = {
        "track": line.track.name,
        "points": [[float(d), float(a)] for d, a in zip(line.delta, line.alpha)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_racing_line(path, track):
    """Load {track, points: [[delta, alpha], ...]} JSON against a track."""
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("track", "points"):
        if key not in doc:
            raise GeometryError(f"racing line file missing key {key!r}")
    if doc["track"] != track.name:
        raise GeometryError(f"racing line is for track {doc['track']!r}, not {track.name!r}")
    pts = _finite_pairs(doc, "points", "(delta, alpha) pairs")
    return RacingLine(track, pts[:, 0], pts[:, 1], name=f"{track.name}-recorded")
