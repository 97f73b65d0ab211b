"""Tour of the track geometry: curvature, projections, rangefinders, racing lines.

Run:  python3 demos/01_track_geometry.py
"""

import numpy as np

from racerl import tracks
from racerl.geometry import RacingLine
from racerl.simulator import CarParams

for name in tracks.TRACK_NAMES:
    track = tracks.get_track(name)
    kappas = np.abs(track.centerline.curvatures(np.arange(0.0, track.length, 5.0)))
    print(f"{name}: lap {track.length:.0f} m, width {track.width} m, "
          f"tightest corner r = {1.0 / max(kappas):.0f} m")

track = tracks.get_track("oval")
line = RacingLine.middle_of_track(track)

# pose of a car sitting 2 m left of the axis, 100 m into the lap
pos = track.centerline.point_at(100.0) + 2.0 * track.centerline.normal_at(100.0)
frame = track.frame(pos, heading=0.05)
print(f"\ncar at delta={frame.delta:.1f} m: trackPos={frame.track_pos:+.3f}, "
      f"theta={frame.theta:+.3f} rad")

readings = track.rangefinders(pos, 0.05)
print(f"rangefinders: right={readings[0]:.1f} m, ahead={readings[9]:.1f} m, "
      f"left={readings[18]:.1f} m")

lac = line.look_ahead_curvature(frame.delta)
print(f"look-ahead curvature at +20/40/60/80 m: {np.array2string(lac, precision=4)}")

# how fast can the default car corner? grip-limited speed for the oval's turns
v = CarParams().corner_speed(1.0 / 160.0, 40.0)
print(f"\ngrip-limited speed in a r=160 m turn at 40 m/s downforce: {v:.1f} m/s")
