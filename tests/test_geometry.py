import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from racerl import geometry, tracks
from racerl.geometry import (
    DomainError,
    GeometryError,
    Polyline,
    RacingLine,
    Track,
    wrap_angle,
)
from racerl.bot import bot_lap_time, record_reference_line
from oracles import (
    brute_project,
    brute_rangefinders,
    numpy_interp,
    numpy_nearest_vertex,
    numpy_point_at,
    numpy_tangent_at,
    scalar_curvature_at,
    scalar_line_tables,
)


def circle_points(radius, n, center=(0.0, 0.0)):
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])


def stadium_track(straight=200.0, radius=40.0, width=10.0, step=1.0):
    segs = [("s", straight), ("l", radius, math.pi), ("s", straight), ("l", radius, math.pi)]
    return Track(tracks.build_centerline(segs, step), width=width, name="stadium")


# --- curvature ---------------------------------------------------------------


def test_curvature_circle_any_density():
    for n in (350, 1000, 5000):  # 1..16 points per meter on r=50
        line = Polyline(circle_points(50.0, n))
        for s in (0.0, 37.5, 200.0):
            assert abs(line.curvatures(s) - 0.02) < 1e-6


def test_curvature_straight_is_zero():
    track = stadium_track()
    # delta 100 is mid-straight
    assert track.centerline.curvatures(100.0) == 0.0


def test_curvature_sign_follows_turn_direction():
    left = Polyline(circle_points(50.0, 400))           # counterclockwise
    right = Polyline(circle_points(50.0, 400)[::-1])    # clockwise
    assert left.curvatures(10.0) > 0
    assert right.curvatures(10.0) < 0


def test_curvature_ellipse_apex():
    # analytic oracle: ellipse curvature at the sharp apex (a, 0) is a/b^2
    a, b = 100.0, 50.0
    t = np.linspace(0.0, 2.0 * math.pi, 4000, endpoint=False)
    line = Polyline(np.column_stack([a * np.cos(t), b * np.sin(t)]))
    # curvature varies along the window, so the circumscribed circle carries a
    # small finite-window bias (~0.1% at 2 m spacing); 0.5% bound
    npt.assert_allclose(abs(line.curvatures(0.0, spacing=2.0)), a / b**2, rtol=5e-3)


def test_curvature_duplicate_points_error():
    with pytest.raises(GeometryError):
        Polyline([[0, 0], [1, 0], [1, 0], [0, 1]])


@pytest.mark.parametrize("center", [0.0, 5e3, 2e5, 5e5])
def test_polyline_keeps_a_last_vertex_far_from_the_first(center):
    # 314 points 2 m apart on r = 100, far from the origin as in projected
    # map coordinates: no point repeats, so none is dropped
    pts = circle_points(100.0, 314, center=(center, center))
    line = Polyline(pts)
    assert len(line.points) == 314
    assert line.length == pytest.approx(2 * 314 * 100.0 * math.sin(math.pi / 314), rel=1e-9)
    # a first point repeated at the end is a closing point, and goes
    assert len(Polyline(np.vstack([pts, pts[:1]])).points) == 314


# --- projection --------------------------------------------------------------


def test_project_on_centerline_aligned():
    track = stadium_track()
    p = track.centerline.point_at(100.0)
    tangent = math.atan2(*track.centerline.tangent_at(100.0)[::-1])
    frame = track.frame(p, tangent)
    assert abs(frame.track_pos) < 1e-9
    assert abs(frame.theta) < 1e-9
    assert abs(frame.delta - 100.0) < 1e-6


def test_project_reversed_heading():
    track = stadium_track()
    p = track.centerline.point_at(50.0)
    frame = track.frame(p, math.pi)  # straight runs along +x
    assert frame.theta == pytest.approx(math.pi)


def test_project_two_meters_left_of_straight():
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0) + np.array([0.0, 2.0])  # left of +x travel
    frame = track.frame(p, 0.0)
    assert frame.track_pos == pytest.approx(0.4, abs=1e-9)   # 2 / (10/2)


def irregular_track(seed=0, n=240):
    """A random star-shaped polygon: uneven vertex spacing and radii."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    radius = rng.uniform(80.0, 130.0, n)
    return Track(np.column_stack([radius * np.cos(ang), radius * np.sin(ang)]),
                 width=6.0, name="irregular")


def index_poses(track, rng, n=150):
    """Random points around the track, poses near both borders, points on
    cell boundaries, and for the oval its two arc centres."""
    pts = track.centerline.points
    lo, hi = pts.min(axis=0) - 300.0, pts.max(axis=0) + 300.0
    poses = [rng.uniform(lo, hi) for _ in range(n)]
    for _ in range(n):
        s = rng.uniform(0.0, track.length)
        side = rng.choice([-1.0, 1.0]) * rng.uniform(0.85, 1.02) * track.width / 2.0
        poses.append(track.centerline.point_at(s) + side * track.centerline.normal_at(s))
    cell = geometry._CELL
    for p in poses[n:]:
        poses.append(np.round(p / cell) * cell)
        poses.append(np.array([math.floor(p[0] / cell) * cell, p[1]]))
    if track.name == "oval":
        poses += [np.array([250.0, 160.0]), np.array([0.0, 160.0])]
    return poses


@pytest.mark.parametrize("track", [
    tracks.oval(), tracks.fast_mixed(), tracks.technical(), irregular_track(),
    Track(circle_points(800.0, 600), width=900.0, name="wide"),  # mid-track rays all miss
], ids=lambda t: t.name)
def test_spatial_index_is_bit_exact_against_full_scan(track):
    rng = np.random.default_rng(7)
    for p in index_poses(track, rng):
        heading = rng.uniform(-math.pi, math.pi)
        for line in (track.centerline, track.left_border):
            assert line.project(p) == brute_project(line, p)
        assert np.array_equal(track.rangefinders(p, heading),
                              brute_rangefinders(track, p, heading))
    with pytest.raises(DomainError):
        track.centerline.project([math.nan, 0.0])


def test_projection_keeps_only_the_cells_near_the_line():
    # a fresh polyline's memo after a sweep out to 300 m, one query per 3 cells
    line = Polyline(tracks.oval().centerline.points)
    cell = geometry._CELL
    lo, hi = line.points.min(axis=0) - 300.0, line.points.max(axis=0) + 300.0
    for x in np.arange(lo[0], hi[0], 3 * cell):
        for y in np.arange(lo[1], hi[1], 3 * cell):
            line.project((x, y))
    centres = (np.array(list(line._cells), dtype=np.float64) + 0.5) * cell
    a, seg = line.points, np.roll(line.points, -1, axis=0) - line.points
    ca = centres[:, None, :] - a
    t = np.clip((ca * seg).sum(-1) / (seg * seg).sum(-1), 0.0, 1.0)
    reach = np.hypot(*np.moveaxis(ca - t[..., None] * seg, -1, 0)).min(axis=1).max()
    assert geometry._KEPT_CELL_REACH - cell < reach <= geometry._KEPT_CELL_REACH
    far = hi - 1.0
    assert line.project(far) == line.project(far) == brute_project(line, far)
    assert (math.floor(far[0] / cell), math.floor(far[1] / cell)) not in line._cells


def test_wrap_angle_range():
    for a in (-7.0, -math.pi, 0.0, 3.0, math.pi, 9.42):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


# --- rangefinders ------------------------------------------------------------


def test_rangefinders_straight_sides():
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0)
    r = track.rangefinders(p, 0.0)
    assert r.shape == (19,)
    assert r[0] == pytest.approx(5.0, abs=1e-9)    # -90 deg, right border
    assert r[18] == pytest.approx(5.0, abs=1e-9)   # +90 deg, left border
    # straight ahead: 100 m of straight left, then the outer border arc of the
    # left turn (radius 45 around (200, 40)) crosses y=0 at x = 200 + sqrt(45^2 - 40^2);
    # the stored border is that arc's chord polyline, a few mm inside the circle
    assert r[9] == pytest.approx(100.0 + math.sqrt(45.0**2 - 40.0**2), abs=0.01)


def test_rangefinders_symmetry_on_straight():
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(80.0)
    r = track.rangefinders(p, 0.0)
    for i in range(19):
        assert abs(r[i] - r[18 - i]) < 1e-9


def test_rangefinders_oblique_rays_hand_trigonometry():
    # a ray crossing the 5 m half corridor at angle phi travels 5 / sin(phi)
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0)
    r = track.rangefinders(p, 0.0)
    assert r[4] == pytest.approx(5.0 / math.sin(math.radians(50.0)), abs=1e-9)
    assert r[3] == pytest.approx(5.0 / math.sin(math.radians(60.0)), abs=1e-9)
    assert r[6] == pytest.approx(5.0 / math.sin(math.radians(30.0)), abs=1e-9)


def test_rangefinders_heading_45_makes_45_ray():
    # rotate the car 45 deg; the -90 ray then points 45 deg across the corridor
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0)
    r = track.rangefinders(p, math.radians(45.0))
    assert r[0] == pytest.approx(5.0 / math.sin(math.radians(45.0)), abs=1e-9)


def test_rangefinders_clamped_at_200():
    track = stadium_track(straight=600.0, width=10.0)
    p = track.centerline.point_at(10.0)
    r = track.rangefinders(p, 0.0)
    assert r[9] == pytest.approx(200.0)
    assert np.all(r <= 200.0)


def test_rangefinders_off_track_sentinel():
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0) + np.array([0.0, 8.0])
    npt.assert_array_equal(track.rangefinders(p, 0.0), np.zeros(19))


def test_rangefinders_continuity_on_straight():
    track = stadium_track(width=10.0)
    p = track.centerline.point_at(100.0)
    r0 = track.rangefinders(p, 0.0)
    r1 = track.rangefinders(p + np.array([0.004, 0.004]), 0.0)
    assert np.max(np.abs(r1 - r0)) < 0.05


# --- racing lines ------------------------------------------------------------


def test_racing_line_to_world_alpha_half_is_centerline():
    track = stadium_track()
    line = RacingLine.middle_of_track(track)
    npt.assert_allclose(line.world_point_at(123.0),
                        track.centerline.point_at(123.0), atol=1e-9)


def test_point_at_alpha_zero_is_right_border():
    track = stadium_track(width=10.0)
    p = track.point_at_alpha(100.0, 0.0)
    # right of +x travel is -y; border offset is half the width
    npt.assert_allclose(p, track.centerline.point_at(100.0) + np.array([0.0, -5.0]), atol=1e-9)


def test_point_at_alpha_quarter_width12():
    track = stadium_track(width=12.0)
    p = track.point_at_alpha(100.0, 0.25)
    right = track.point_at_alpha(100.0, 0.0)
    assert np.linalg.norm(p - right) == pytest.approx(3.0, abs=1e-9)


def test_point_at_alpha_domain_error():
    track = stadium_track()
    with pytest.raises(DomainError):
        track.point_at_alpha(10.0, 1.2)


def test_racing_line_roundtrip_property():
    track = stadium_track(width=10.0)
    rng = np.random.default_rng(3)
    n = 120
    delta = np.sort(rng.uniform(0.0, track.length * 0.999, n))
    delta = np.unique(delta)
    alpha = 0.5 + 0.3 * np.sin(np.linspace(0, 2 * math.pi, delta.size))
    line = RacingLine(track, delta, alpha)
    for d in (25.0, 150.0, 300.0):
        p = line.world_point_at(d)
        frame = track.frame(p, 0.0)
        err = abs(frame.delta - d)
        assert min(err, track.length - err) < 0.1
        a_rec = 0.5 + frame.track_pos / 2.0
        assert abs(a_rec - line.alpha_at(d)) < 0.01


def test_lac_straight_line_zero():
    track = stadium_track(straight=400.0, radius=60.0)
    line = RacingLine.middle_of_track(track)
    npt.assert_allclose(line.look_ahead_curvature(100.0), np.zeros(4), atol=1e-12)


def test_lac_circle_constant():
    circle = Polyline(circle_points(100.0, 700))
    track = Track(circle.points, width=10.0, name="circle")
    line = RacingLine.middle_of_track(track)
    npt.assert_allclose(line.look_ahead_curvature(0.0), np.full(4, 0.01), atol=1e-9)


def test_lac_matches_track_curvature_exactly():
    track = stadium_track()
    line = RacingLine.middle_of_track(track)
    for d in (0.0, 57.0, 333.0):
        lac = line.look_ahead_curvature(d)
        for off, k in zip(geometry.LAC_OFFSETS, lac):
            # constant-curvature regions agree exactly; transitions via interp
            k_track = track.centerline.curvatures(d + off)
            assert abs(k - k_track) < 5e-4


def test_lac_straight_then_circle():
    # straight for 50 m then radius-50 circle: at delta=0, [0, 0, 0.02, 0.02]
    segs = [("s", 50.0), ("l", 50.0, math.pi), ("s", 50.0), ("l", 50.0, math.pi)]
    track = Track(tracks.build_centerline(segs, step=1.0), width=10.0, name="mini")
    line = RacingLine.middle_of_track(track)
    lac = line.look_ahead_curvature(0.0)
    npt.assert_allclose(lac, [0.0, 0.0, 0.02, 0.02], atol=1e-3)


def test_racing_line_wrap_across_lap_boundary():
    circle = Polyline(circle_points(100.0, 700))
    track = Track(circle.points, width=10.0, name="circle")
    line = RacingLine.middle_of_track(track)
    assert line.curvature_at(track.length + 30.0) == pytest.approx(0.01, abs=1e-9)


def test_racing_line_validation_indices():
    track = stadium_track()
    with pytest.raises(GeometryError, match="index 2"):
        RacingLine(track, [0.0, 10.0, 10.0, 20.0], [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(DomainError, match="index 1"):
        RacingLine(track, [0.0, 10.0, 20.0], [0.5, 1.5, 0.5])
    with pytest.raises(GeometryError):
        RacingLine(track, [0.0, 10.0, track.length + 5.0], [0.5, 0.5, 0.5])


def test_racing_line_rejects_a_point_that_closes_the_loop(tmp_path):
    # the last point repeats the first, so the polyline would drop it and
    # leave the delta table one entry longer than the line
    track = stadium_track()
    delta = np.linspace(0.0, track.length, 50)
    with pytest.raises(GeometryError, match="delta"):
        RacingLine(track, delta, np.full(50, 0.5))
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"track": track.name,
                                "points": [[d, 0.5] for d in delta.tolist()]}))
    with pytest.raises(GeometryError, match="delta"):
        geometry.load_racing_line(path, track)


@pytest.fixture(scope="module")
def lookup_lines():
    """The middle-of-track line and a recorded line of every bundled track."""
    lines = []
    for name in tracks.TRACK_NAMES:
        track = tracks.get_track(name)
        lines += [RacingLine.middle_of_track(track), record_reference_line(track)]
    return lines


def lookup_queries(knots, span, rng):
    """Random queries from span before the first knot to span past the last,
    every knot and its two neighbouring floats, and both ends of that range."""
    return (rng.uniform(knots[0] - span, knots[-1] + span, 400).tolist() + knots
            + [math.nextafter(k, -math.inf) for k in knots]
            + [math.nextafter(k, math.inf) for k in knots]
            + [knots[0] - span, knots[-1] + span, -0.0])


def test_interp_equals_numpy(lookup_lines):
    rng = np.random.default_rng(11)
    for line in lookup_lines:
        lap = line.track.length
        for xp, fp in ((line._delta_knots, line._kappa_knots),
                       (line._delta_knots, line._alpha_knots),
                       (line._arc_knots, line._delta_knots)):
            for x in lookup_queries(xp, lap, rng):
                assert geometry._interp(x, xp, fp) == numpy_interp(x, xp, fp), (line.name, x)


def test_arc_length_lookups_equal_searchsorted(lookup_lines):
    rng = np.random.default_rng(12)
    for line in lookup_lines:
        poly = line.world
        queries = lookup_queries(poly.vertex_arclength.tolist() + [poly.length], poly.length, rng)
        for s in queries + [s + poly.length for s in queries]:
            assert poly.point_at(s).tolist() == numpy_point_at(poly, s).tolist(), (line.name, s)
            assert poly.tangent_at(s).tolist() == numpy_tangent_at(poly, s).tolist()
            assert poly.nearest_vertex(s) == numpy_nearest_vertex(poly, s)


def test_line_tables_equal_the_per_vertex_code(lookup_lines):
    # the array code repeats the scalar code's operations in its order; a
    # libm or numpy whose ufuncs round otherwise fails here
    irregular = irregular_track()
    rng = np.random.default_rng(14)
    delta = np.unique(rng.uniform(0.0, irregular.length * 0.999, 150))
    lines = lookup_lines + [RacingLine.middle_of_track(irregular),
                            RacingLine(irregular, delta, rng.uniform(0.0, 1.0, delta.size))]
    for line in lines:
        world, curvature = scalar_line_tables(line.track, line.delta, line.alpha)
        assert np.array_equal(line.world.points, world), line.name
        assert np.array_equal(line.curvature, curvature), line.name


def test_curvature_at_equals_the_per_query_code():
    rng = np.random.default_rng(15)
    for track in [tracks.get_track(name) for name in tracks.TRACK_NAMES] + [irregular_track()]:
        axis = track.centerline
        for s in rng.uniform(-track.length, 2.0 * track.length, 200).tolist():
            assert axis.curvatures(s, spacing=2.0) == scalar_curvature_at(axis, s, spacing=2.0)


def test_racing_line_frame_theta_and_trackpos():
    track = stadium_track(width=10.0)
    line = RacingLine.middle_of_track(track)
    p = track.centerline.point_at(100.0) + np.array([0.0, 1.0])
    frame = line.frame(p, 0.1)
    assert frame.track_pos == pytest.approx(0.2, abs=1e-9)
    assert frame.theta == pytest.approx(0.1, abs=1e-9)
    assert frame.delta == pytest.approx(100.0, abs=0.1)


# --- file round trips --------------------------------------------------------


def test_track_json_roundtrip(tmp_path):
    track = stadium_track()
    path = tmp_path / "t.json"
    geometry.save_track(track, path)
    loaded = geometry.load_track(path)
    assert loaded.name == track.name
    assert loaded.width == track.width
    npt.assert_allclose(loaded.centerline.points, track.centerline.points)


def test_track_loader_reports_bad_point(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "width": 10.0,
                                "centerline": [[0, 0], [1, 0], [1]]}))
    with pytest.raises(GeometryError, match=r"centerline\[2\]"):
        geometry.load_track(path)


@pytest.mark.parametrize("kind, field, value", [
    ("track", "width", math.nan),
    ("track", "width", math.inf),
    ("track", "width", "abc"),
    ("track", "width", None),
    ("track", "name", 7),
    ("track", "centerline", []),
    ("line", "points", []),
    ("line", "points", [[0.0, 0.5], [5.0]]),
    ("line", "points", [[0.0, 0.5], [5.0, "x"], [10.0, 0.5]]),
])
def test_loaders_name_the_bad_field(tmp_path, kind, field, value):
    track = stadium_track()
    path = tmp_path / "f.json"
    if kind == "track":
        doc = {"name": "x", "width": 10.0, "centerline": track.centerline.points.tolist()}
    else:
        doc = {"track": track.name, "points": [[0.0, 0.5], [5.0, 0.5], [10.0, 0.5]]}
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(GeometryError, match=field):
        if kind == "track":
            geometry.load_track(path)
        else:
            geometry.load_racing_line(path, track)


def test_racing_line_json_roundtrip(tmp_path):
    track = stadium_track()
    line = RacingLine.middle_of_track(track)
    path = tmp_path / "line.json"
    geometry.save_racing_line(line, path)
    loaded = geometry.load_racing_line(path, track)
    npt.assert_allclose(loaded.delta, line.delta)
    npt.assert_allclose(loaded.alpha, line.alpha)


def test_racing_line_loader_wrong_track(tmp_path):
    track = stadium_track()
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"track": "other", "points": [[0, 0.5], [5, 0.5], [10, 0.5]]}))
    with pytest.raises(GeometryError, match="other"):
        geometry.load_racing_line(path, track)


# --- bundled tracks ----------------------------------------------------------


def test_bundled_tracks_build_and_order_by_difficulty():
    built = {name: tracks.get_track(name) for name in tracks.TRACK_NAMES}
    assert set(built) == {"oval", "fast_mixed", "technical"}
    min_radius = {}
    for name, t in built.items():
        ks = np.abs(t.centerline.curvatures(np.arange(0.0, t.length, 5.0)))
        min_radius[name] = 1.0 / max(ks)
    assert min_radius["oval"] > min_radius["fast_mixed"] > min_radius["technical"]


def test_get_track_normalizes_name():
    assert tracks.get_track("FAST-MIXED").name == "fast_mixed"
    with pytest.raises(KeyError):
        tracks.get_track("nürburgring")


def test_get_track_builds_each_track_once():
    for name in tracks.TRACK_NAMES:
        assert tracks.get_track(name) is tracks.get_track(name)
    assert tracks.get_track("FAST-MIXED") is tracks.get_track("fast_mixed")


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_a_shared_track_answers_as_a_fresh_one(name):
    shared = tracks.get_track(name)
    rng = np.random.default_rng(16)
    # fill the shared track's cells with unrelated queries first
    lo, hi = shared.centerline.points.min(axis=0) - 50.0, shared.centerline.points.max(axis=0) + 50.0
    for p in rng.uniform(lo, hi, (300, 2)):
        shared.rangefinders(p, 0.0)
    fresh = getattr(tracks, name)()
    assert fresh is not shared
    assert bot_lap_time(shared, laps=1) == bot_lap_time(fresh, laps=1)
    for p in index_poses(fresh, rng, n=40):
        heading = rng.uniform(-math.pi, math.pi)
        assert shared.centerline.project(p) == fresh.centerline.project(p)
        assert np.array_equal(shared.rangefinders(p, heading), fresh.rangefinders(p, heading))
