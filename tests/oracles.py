"""Independent oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own backward passes and data
structures: gradients come from central finite differences on the forward
pass alone, distributions are checked by brute-force counting, the
geometry queries scan every segment or call numpy's own search and
interpolation, the learner's updates run array by array with one
scalar TD target per view, replay views find a step's neighbours by the
numbers of the pushes, priorities go back into the sum tree one slot
at a time, the env step runs one oracle call per substep, each on
the car state and with a track frame, wall response and lap count of
its own, and the telemetry vector is assembled field by field.
"""

import math
from types import SimpleNamespace

import numpy as np

from racerl.geometry import (
    RANGEFINDER_ANGLES,
    RANGEFINDER_COUNT,
    RANGEFINDER_MAX,
    Polyline,
    TrackFrame,
    wrap_angle,
)
from racerl.nn import NumericError, ShapeError
from racerl.replay import CODE_TERMINATIONS, Transition
from racerl.simulator import (
    ANGLE_SCALE,
    LAC_SCALE,
    PREMATURE_TERMINATIONS,
    RANGE_SCALE,
    RPM_SCALE,
    SPEED_SCALE,
    WHEEL_SCALE,
    CarState,
    StepResult,
    progress_reward,
    terminal_reward,
)


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over all entries."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_network_gradients(params, loss_fn, h=1e-5):
    """Compare d(loss)/d(param) against finite differences for every array.

    params: list of ndarrays mutated in place by the probe; loss_fn() re-runs
    the forward pass and returns (scalar loss, analytic grads list).
    Returns the max relative error across all parameters.
    """
    _, analytic = loss_fn()
    worst = 0.0
    for p, g in zip(params, analytic):
        def probe(arr, _p=p):
            _p[...] = arr
            return loss_fn()[0]

        base = p.copy()
        numeric = finite_difference_grad(probe, base.copy(), h=h)
        p[...] = base
        worst = max(worst, max_relative_error(g, numeric))
    return worst


def empirical_frequencies(draws, n_bins):
    counts = np.bincount(np.asarray(draws), minlength=n_bins).astype(float)
    return counts / counts.sum()


def _segments(points):
    seg = np.roll(points, -1, axis=0) - points
    return seg, np.hypot(seg[:, 0], seg[:, 1])


def brute_project(polyline, point):
    """Polyline.project by a scan of every segment, as the index-free code did it."""
    seg, seg_len = _segments(polyline.points)
    seg_dir = seg / seg_len[:, None]
    p = np.asarray(point, dtype=np.float64)
    ap = p - polyline.points
    t = np.clip(np.einsum("ij,ij->i", ap, seg) / seg_len**2, 0.0, 1.0)
    proj = polyline.points + t[:, None] * seg
    d = p - proj
    j = int(np.argmin(np.einsum("ij,ij->i", d, d)))
    s = float(polyline.vertex_arclength[j] + t[j] * seg_len[j])
    dir_j = seg_dir[j]
    lateral = float(dir_j[0] * d[j][1] - dir_j[1] * d[j][0])
    return s, lateral, math.atan2(dir_j[1], dir_j[0])


def searchsorted_segment(polyline, s):
    """(wrapped s, index of the segment holding it) by np.searchsorted."""
    s = polyline.wrap(s)
    return s, int(np.searchsorted(polyline.vertex_arclength, s, side="right")) - 1


def numpy_point_at(polyline, s):
    """Polyline.point_at as the array code did it."""
    s, j = searchsorted_segment(polyline, s)
    seg, seg_len = _segments(polyline.points)
    t = (s - polyline.vertex_arclength[j]) / seg_len[j]
    return polyline.points[j] + t * seg[j]


def numpy_tangent_at(polyline, s):
    """Polyline.tangent_at as the array code did it."""
    _, j = searchsorted_segment(polyline, s)
    seg, seg_len = _segments(polyline.points)
    return (seg / seg_len[:, None])[j]


def numpy_nearest_vertex(polyline, s):
    """Polyline.nearest_vertex as the array code did it."""
    s, j = searchsorted_segment(polyline, s)
    arc = polyline.vertex_arclength
    j_next = (j + 1) % len(polyline)
    ahead = arc[j_next] if j_next else polyline.length
    return j if s - arc[j] <= ahead - s else j_next


def circumscribed_curvature(a, b, c):
    """Signed curvature of the circle through a, b, c (traversed in order)."""
    ab = b - a
    bc = c - b
    ca = c - a
    lengths = (np.hypot(*ab), np.hypot(*bc), np.hypot(*ca))
    if min(lengths) < 1e-12:
        raise ValueError("coincident points have no circumscribed circle")
    cross = ab[0] * bc[1] - ab[1] * bc[0]
    return float(2.0 * cross / (lengths[0] * lengths[1] * lengths[2]))


def scalar_curvature_at(polyline, s, spacing=5.0):
    """Polyline.curvature_at as the per-query code did it."""
    i = numpy_nearest_vertex(polyline, s)
    j = numpy_nearest_vertex(polyline, s + spacing)
    k = numpy_nearest_vertex(polyline, s - spacing)
    n = len(polyline)
    if j == i:
        j = (i + 1) % n
    if k == i or k == j:
        k = (i - 1) % n
    return circumscribed_curvature(polyline.points[k], polyline.points[i], polyline.points[j])


def scalar_line_tables(track, delta, alpha):
    """A RacingLine's world points and vertex curvature, as the per-point
    stack and the per-vertex loop built them."""
    world = np.stack([track.point_at_alpha(d, a) for d, a in zip(delta, alpha)])
    poly = Polyline(world)
    return world, np.array([scalar_curvature_at(poly, s) for s in poly.vertex_arclength])


def numpy_interp(x, xp, fp):
    """geometry._interp as np.interp computes it."""
    return float(np.interp(x, xp, fp))


def wall_contact(env, world_v, frame):
    """The wall response on the car state, as RacingEnv._wall_contact ran
    before it took floats: the outward normal speed is a numpy dot, which
    OpenBLAS may round as one fused multiply-add; returns the damage."""
    tp = frame.track_pos
    if abs(tp) < 1.0:
        return 0.0
    s = env.state
    world_v = np.asarray(world_v, dtype=np.float64)
    t = numpy_tangent_at(env.track.centerline, frame.delta)
    n_out = math.copysign(1.0, tp) * np.array([-t[1], t[0]])
    v_n = float(world_v @ n_out)
    if v_n <= 0.0:
        return 0.0
    damage = env.settings.damage_coeff * v_n * v_n
    new_world_v = world_v - v_n * n_out
    cos_h, sin_h = math.cos(s.heading), math.sin(s.heading)
    s.vx = max(new_world_v[0] * cos_h + new_world_v[1] * sin_h, 0.0)
    s.vy = -new_world_v[0] * sin_h + new_world_v[1] * cos_h
    return damage


def wall_contact_floats(env, wx, wy, vx, vy, heading, track_pos, delta):
    """RacingEnv._wall_contact's signature over wall_contact, on a stand-in
    car state: returns (damage, vx, vy)."""
    car = CarState(position=None, heading=heading, vx=vx, vy=vy)
    stand_in = SimpleNamespace(state=car, track=env.track, settings=env.settings)
    damage = wall_contact(stand_in, (wx, wy), TrackFrame(track_pos, 0.0, delta))
    return damage, car.vx, car.vy


def substep_step(env, action):
    """RacingEnv.step with one substep_dynamics call per substep, each
    writing the car state and projecting through Track.frame."""
    if env.termination is not None:
        raise RuntimeError("episode is over; call reset()")
    steer, throttle, brake = (float(v) for v in action)
    if not all(math.isfinite(v) for v in (steer, throttle, brake)):
        raise NumericError("non-finite action")
    act = (min(max(steer, -1.0), 1.0), min(max(throttle, 0.0), 1.0), min(max(brake, 0.0), 1.0))
    settings = env.settings
    h = settings.dt / settings.substeps
    damage_increment = 0.0
    x, y = env.state.position.tolist()
    for _ in range(settings.substeps):
        x, y, dmg, frame = substep_dynamics(env, act, h, x, y)
        damage_increment += dmg
    env.state.position = np.array([x, y])
    env.state.damage += damage_increment
    env.axis_frame = frame
    env.ref_frame = env.reference.frame(env.state.position, env.state.heading)
    reward = progress_reward(
        env.state.vx, env.ref_frame.theta, env.ref_frame.track_pos, damage_increment,
        damage_weight=settings.damage_weight, literal_sin=settings.literal_sin,
    )
    env.termination = env.tracker.update(frame.track_pos, frame.theta, env.state.vx)
    penalty = terminal_reward(env.termination)
    if penalty is not None:
        reward = penalty
    env.episode_return += reward
    return StepResult(reward=reward, termination=env.termination,
                      damage_increment=damage_increment)


def observation_vector(env):
    """RacingEnv.observe as the per-field telemetry record assembled it, with
    the reference frame projected again and every ray cast against every
    border segment."""
    s, p, reference = env.state, env.params, env.reference
    frame = reference.frame(s.position, s.heading)
    parts = [
        np.array([frame.theta / ANGLE_SCALE]),
        brute_rangefinders(env.track, s.position, s.heading) / RANGE_SCALE,
        np.array([frame.track_pos]),
        np.array([s.vx / SPEED_SCALE, s.vy / SPEED_SCALE, 0.0 / SPEED_SCALE]),
        np.full(4, s.vx / p.wheel_radius) / WHEEL_SCALE,
        np.array([p.rpm(s.vx) / RPM_SCALE]),
    ]
    if env.lac_enabled:
        parts.append(reference.look_ahead_curvature(frame.delta) / LAC_SCALE)
    return np.concatenate(parts)


def substep_dynamics(env, act, h, x, y):
    """One 20 ms integration step of act = (steer, throttle, brake) from
    (x, y) on env.state: returns (x, y, damage, frame)."""
    p = env.params
    s = env.state
    steer, throttle, brake = act
    steer_angle = steer * p.max_steer
    omega = s.vx * math.tan(steer_angle) / p.wheelbase
    cap = p.lateral_accel_cap(s.vx)
    if s.vx > 1e-6 and abs(s.vx * omega) > cap:
        omega = math.copysign(cap / s.vx, omega)
    s.yaw_rate = omega
    s.vy = omega * p.wheelbase / 2.0
    braking = p.brake_force * brake if s.vx > 0.0 else 0.0
    force = p.engine_force * throttle - braking - p.drag_coeff * s.vx * s.vx
    s.vx = min(max(s.vx + (force / p.mass) * h, 0.0), p.top_speed)
    s.heading = wrap_angle(s.heading + omega * h)
    cos_h, sin_h = math.cos(s.heading), math.sin(s.heading)
    wx = s.vx * cos_h - s.vy * sin_h
    wy = s.vx * sin_h + s.vy * cos_h
    x += wx * h
    y += wy * h
    env.time += h
    frame = env.track.frame((x, y), s.heading)
    damage = wall_contact(env, (wx, wy), frame)
    advance_progress(env, frame.delta, h)
    return x, y, damage, frame


def advance_progress(env, delta, h):
    """The lap count as RacingEnv's per-substep method kept it: accumulate
    signed progress along the track axis and record lap crossings."""
    d = delta - env._prev_delta
    half = env.track.length / 2.0
    if d > half:
        d -= env.track.length
    elif d < -half:
        d += env.track.length
    before = env.lap_progress
    env.lap_progress += d
    env._prev_delta = delta
    target = (len(env.lap_times) + 1) * env.track.length
    if before < target <= env.lap_progress:
        frac = (target - before) / (env.lap_progress - before)
        crossing_time = env.time - h + frac * h
        env.lap_times.append(crossing_time - env.lap_start_time)
        env.lap_start_time = crossing_time


def brute_rangefinders(track, position, heading):
    """Track.rangefinders by casting every ray against every border segment."""
    _, lateral, _ = brute_project(track.centerline, position)
    if abs(lateral / (track.width / 2.0)) > 1.0:
        return np.zeros(RANGEFINDER_COUNT)
    o = np.asarray(position, dtype=np.float64)
    angles = heading + RANGEFINDER_ANGLES
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    borders = (track.left_border.points, track.right_border.points)
    a = np.concatenate(borders)
    d = np.concatenate([_segments(b)[0] for b in borders])
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


class ArrayAdam:
    """nn.Adam as it was before the flat vectors: one m and v per array."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ShapeError(
                f"adam tracks {len(self.m)} parameters, got {len(params)}/{len(grads)}"
            )
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != self.m[i].shape or g.shape != p.shape:
                raise ShapeError(f"parameter {i} shape mismatch: {p.shape} vs {g.shape}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient at parameter {i}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def array_soft_update(source, target, tau):
    """nn.soft_update as it was before the flat vectors, over parameter lists."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if len(source) != len(target):
        raise ShapeError(f"parameter counts differ: {len(source)} vs {len(target)}")
    for i, (s, t) in enumerate(zip(source, target)):
        if s.shape != t.shape:
            raise ShapeError(f"parameter {i} shapes differ: {s.shape} vs {t.shape}")
        t *= 1.0 - tau
        t += tau * s


def scalar_td_target(reward_sum, steps, bootstrap_q, gamma, termination, adopted_target=True):
    """The TD rule for one view, termination a Termination or None."""
    if termination is not None:
        if termination in PREMATURE_TERMINATIONS or not adopted_target:
            return reward_sum
    return reward_sum + (gamma ** steps) * bootstrap_q


def stored_transition(buffer, slot):
    """The Transition a replay buffer holds at slot, read field by field."""
    return Transition(buffer.state[slot].copy(), buffer.action[slot].copy(),
                      float(buffer.reward[slot]), buffer.next_state[slot].copy(),
                      CODE_TERMINATIONS[int(buffer.termination[slot])],
                      int(buffer.episode[slot]), int(buffer.step[slot]))


def scalar_find(tree, prefix):
    """SumTree.find for one prefix, walking the tree alone."""
    i = 1
    while i < tree.leaves:
        left = 2 * i
        if prefix <= tree.nodes[left] or tree.nodes[left + 1] == 0.0:
            i = left
        else:
            prefix -= tree.nodes[left]
            i = left + 1
    return i - tree.leaves


def scalar_per_sample(buffer, batch_size, rng):
    """PrioritizedReplayBuffer.sample as it was before the batched descent:
    one scalar uniform draw per segment, each prefix walking the sum tree
    alone. Returns the slots."""
    segment = buffer.tree.total / batch_size
    slots = []
    for k in range(batch_size):
        prefix = rng.uniform(k * segment, (k + 1) * segment)
        slots.append(min(scalar_find(buffer.tree, prefix), buffer.size - 1))
    return slots


def serial_neighbour(buffer, serials, slots, offset):
    """The slots `offset` (+1 or -1) pushes away where they hold the same
    episode's adjacent transition, else the slots themselves; and where.
    serials[slot] is the number of the push the slot holds."""
    other = (slots + offset) % buffer.capacity
    seen = np.minimum(other, buffer.size - 1)  # slots past size were never written
    linked = ((other < buffer.size)
              & (serials[seen] == serials[slots] + offset)
              & (buffer.episode[seen] == buffer.episode[slots]))
    return np.where(linked, other, slots), linked


def serial_window(buffer, serials, slots, window):
    """ReplayBuffer.assemble_window walking serial_neighbour."""
    chain = [np.asarray(slots)]
    for _ in range(window - 1):
        chain.append(serial_neighbour(buffer, serials, chain[-1], -1)[0])
    idx = np.stack(chain[::-1], axis=-1)
    states = buffer.state[idx]
    last = buffer.next_state[chain[0]][..., None, :]
    return states, buffer.action[idx], np.concatenate([states[..., 1:, :], last], axis=-2)


def serial_nstep(buffer, serials, slots, n, gamma):
    """ReplayBuffer.assemble_nstep walking serial_neighbour, as
    (reward_sum, steps, termination, slot)."""
    last = np.asarray(slots)
    reward_sum = np.zeros(last.shape)
    steps = np.zeros(last.shape, dtype=np.int64)
    going = np.ones(last.shape, dtype=bool)
    for k in range(n):
        reward_sum = np.where(going, reward_sum + (gamma ** k) * buffer.reward[last], reward_sum)
        steps += going
        if k == n - 1:
            break
        nxt, linked = serial_neighbour(buffer, serials, last, 1)
        going &= linked & (buffer.termination[last] == -1)  # -1: the episode runs on
        last = np.where(going, nxt, last)
    return reward_sum, steps, buffer.termination[last], last


def scalar_update_priorities(buffer, slots, deltas, grad_sq):
    """PrioritizedReplayBuffer.update_priority one slot at a time: each raw
    priority delta^2 + lam3 * grad_sq + epsilon raises the maximum, and its
    ** alpha goes into the tree by SumTree.update, in batch order."""
    cfg = buffer.config
    for slot, delta, g2 in zip(slots, deltas, grad_sq):
        delta, g2 = float(delta), float(g2)
        raw = delta * delta + cfg.lam3 * g2 + cfg.epsilon
        buffer.max_raw_priority = max(buffer.max_raw_priority, raw)
        buffer.tree.update(int(slot), raw ** cfg.alpha)
