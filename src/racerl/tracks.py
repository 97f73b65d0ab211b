"""Three bundled closed courses with increasing difficulty.

OVAL is a flat-out stadium (no braking needed), FAST_MIXED adds sweepers and
one chicane, TECHNICAL is hairpins and right-angle corners joined by
straights. All are original shapes built from straight and arc segments
with exact closure; delta = 0 sits on the main straight, travel direction
is counterclockwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import CLOSURE_TOLERANCE, GeometryError, Track


def _left_normal(heading):
    return np.array([-math.sin(heading), math.cos(heading)])


def _heading_vec(heading):
    return np.array([math.cos(heading), math.sin(heading)])


def build_centerline(segments, step=2.0):
    """Trace ('s', length) / ('l'|'r', radius, angle_rad) segments into points."""
    pos = np.zeros(2)
    heading = 0.0
    pts = [pos.copy()]
    for seg in segments:
        kind = seg[0]
        if kind == "s":
            length = float(seg[1])
            n = max(int(math.ceil(length / step)), 1)
            d = _heading_vec(heading)
            for i in range(1, n + 1):
                pts.append(pos + d * (length * i / n))
            pos = pts[-1].copy()
        elif kind in ("l", "r"):
            radius, angle = float(seg[1]), float(seg[2])
            side = 1.0 if kind == "l" else -1.0
            center = pos + radius * side * _left_normal(heading)
            start = math.atan2(pos[1] - center[1], pos[0] - center[0])
            n = max(int(math.ceil(radius * angle / step)), 2)
            for i in range(1, n + 1):
                a = start + side * angle * i / n
                pts.append(center + radius * np.array([math.cos(a), math.sin(a)]))
            pos = pts[-1].copy()
            heading += side * angle
        else:
            raise ValueError(f"unknown segment kind {kind!r}")
    gap = np.linalg.norm(pts[-1] - pts[0])
    if gap > CLOSURE_TOLERANCE:
        raise GeometryError(f"segment list does not close the loop (gap {gap:.3g} m)")
    return np.asarray(pts[:-1])


_HALF = math.pi
_QUARTER = math.pi / 2.0

_OVAL_SEGMENTS = [
    ("s", 250), ("l", 160, _HALF),
    ("s", 250), ("l", 160, _HALF),
]

_FAST_MIXED_SEGMENTS = [
    ("s", 220), ("l", 70, _QUARTER),
    ("s", 60), ("l", 45, _QUARTER),
    ("s", 30), ("r", 35, _QUARTER),
    ("s", 40), ("l", 90, _QUARTER),
    ("s", 160), ("l", 80, _QUARTER),
    ("s", 100), ("l", 75, _QUARTER),
    ("r", 30, _QUARTER), ("s", 25), ("l", 30, _QUARTER),
    ("s", 15),
]

_TECHNICAL_SEGMENTS = [
    ("s", 200), ("l", 15, _HALF),          # hairpin 1
    ("s", 120), ("r", 14, _HALF),          # hairpin 2
    ("s", 60), ("l", 15, _HALF),           # hairpin 3
    ("s", 180), ("l", 25, _QUARTER),
    ("s", 20), ("l", 25, _QUARTER),
    ("r", 9, _QUARTER), ("l", 9, _QUARTER),  # final chicane
    ("s", 22),
]


def oval():
    return Track(build_centerline(_OVAL_SEGMENTS), width=16.0, name="oval")


def fast_mixed():
    return Track(build_centerline(_FAST_MIXED_SEGMENTS), width=11.0, name="fast_mixed")


def technical():
    return Track(build_centerline(_TECHNICAL_SEGMENTS), width=10.0, name="technical")


_BUILDERS = {"oval": oval, "fast_mixed": fast_mixed, "technical": technical}

TRACK_NAMES = tuple(_BUILDERS)


def canonical_name(name):
    """The bundled track's name that get_track reads name as."""
    return name.lower().replace("-", "_")


def is_track(name):
    """Whether get_track knows name."""
    return canonical_name(name) in _BUILDERS


def get_track(name):
    """The bundled track called name (case and "-" or "_" do not matter).

    Each track is built once per process and shared by every caller, with
    its float tables and cached projection cells: the geometry is immutable
    and its caches are pure memos.
    """
    if not is_track(name):
        raise KeyError(f"unknown track {name!r}; available: {', '.join(TRACK_NAMES)}")
    return _built(canonical_name(name))


@functools.cache
def _built(key):
    return _BUILDERS[key]()
