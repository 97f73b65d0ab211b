"""Minimal differentiable numeric core: dense nets, an LSTM cell, Adam, soft updates.

Everything is float64 numpy with hand-written backward passes. Layers take
batched 2D arrays (batch, features); the actor and the critics take the
(batch, w, features) windows that ReplayBuffer.assemble_window returns.
Gradients are exact analytic derivatives and are checked against central
finite differences in the test suite.

The actor and the critics each own one contiguous parameter vector,
``flat``; their layers' arrays are views of it, so Adam and soft updates
work on the whole network in a few vector operations.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .files import write_atomic

ACTIVATIONS = ("relu", "linear")


class ShapeError(ValueError):
    """Incompatible array dimensions."""


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required."""


def sigmoid_(z):
    """1 / (1 + exp(-z)), written over z."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


class Dense:
    """One affine layer with an elementwise activation.

    weight is (out, in), bias (out,). ``forward`` returns the output plus a
    cache consumed by ``backward``.
    """

    PARAMS = ("weight", "bias")

    def __init__(self, weight, bias, activation="linear"):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
            raise ShapeError(
                f"dense layer wants weight (out,in) and bias (out,), got {weight.shape} / {bias.shape}"
            )
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"dense layer expects (batch, {self.in_dim}), got {x.shape}")
        z = x @ self.weight.T + self.bias
        y = np.maximum(z, 0.0) if self.activation == "relu" else z
        return y, (x, z, y)

    def backward(self, cache, gy, input_grad=True):
        """((weight, bias) gradients, input gradient); the input gradient is
        None, and not formed, when input_grad is False."""
        gz = self.pre_activation_grad(cache, gy)
        return self.param_grads(cache[0], gz), gz @ self.weight if input_grad else None

    def pre_activation_grad(self, cache, gy):
        """Gradient wrt z = x @ weight.T + bias, from the output's gradient gy."""
        z = cache[1]
        gy = np.asarray(gy, dtype=np.float64)
        if gy.shape != z.shape:
            raise ShapeError(f"output gradient shape {gy.shape} != {z.shape}")
        return gy * (z > 0.0) if self.activation == "relu" else gy

    @staticmethod
    def param_grads(x, gz):
        """(weight, bias) gradients from the input x and the gradient gz wrt z."""
        return gz.T @ x, gz.sum(axis=0)


class Mlp:
    """A plain stack of Dense layers."""

    def __init__(self, layers):
        for a, b in zip(layers[:-1], layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer dims {a.out_dim} -> {b.in_dim} incompatible")
        self.layers = list(layers)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, gy, input_grad=True):
        """(flat parameter gradients, input gradient); with input_grad False
        the first layer forms no input gradient and None is returned."""
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i], gy = self.layers[i].backward(caches[i], gy, input_grad or i > 0)
        flat = []
        for gw, gb in grads:
            flat.extend([gw, gb])
        return flat, gy


class LstmCell:
    """Standard LSTM cell with combined gate matrices.

    Gate order in the stacked matrices is (input, forget, output, candidate).
    wx is (4h, k), wh (4h, h), bias (4h,). A step works gate-major: its
    gates are one contiguous (4, batch, h) block, each gate's rows a
    (batch, h) block of their own.
    """

    PARAMS = ("wx", "wh", "bias")

    def __init__(self, wx, wh, bias):
        wx = np.asarray(wx, dtype=np.float64)
        wh = np.asarray(wh, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if wh.shape[0] != 4 * wh.shape[1] or wx.shape[0] != wh.shape[0] or bias.shape != (wx.shape[0],):
            raise ShapeError(f"bad lstm shapes wx={wx.shape} wh={wh.shape} b={bias.shape}")
        self.wx = wx
        self.wh = wh
        self.bias = bias

    @property
    def hidden_dim(self):
        return self.wh.shape[1]

    @property
    def in_dim(self):
        return self.wx.shape[1]

    @staticmethod
    def advance(z, state, wh_t, bias):
        """One recurrence step on its gate block z (4, batch, h), which holds
        the step's input projection and is overwritten with its gates. state
        is (h_prev, c_prev), or None for the zero state, which forms no
        recurrent product. wh_t is gate_major(wh) and bias the bias in
        gate-major blocks, (4, 1, h) or (4, batch, h). Returns (h_new, c_new,
        tanh(c_new))."""
        if state is not None:
            z += np.matmul(state[0], wh_t)  # z = (xw + h_prev @ wh.T) + bias, in this order
        z += bias
        sigmoid_(z[:3])  # the input, forget and output gates in one block
        np.tanh(z[3], out=z[3])
        i, f, o, g = z
        c_new = i * g
        if state is not None:
            c_new += f * state[1]
        tc = np.tanh(c_new)
        return o * tc, c_new, tc

    @staticmethod
    def pre_activation_grad(cache, gh, gc):
        """Gradient wrt the stacked gate pre-activations z, plus gc_prev.

        cache is the step's (x, c_prev, gates, tanh(c_new)); gh, gc are the
        gradients wrt its h_new and c_new, and gc None is zero. The gate math
        runs on contiguous gate-major blocks. gz comes back batch-major
        (batch, 4h) and C-contiguous, the layout on which gz @ wx and gz @ wh
        keep their bits (as the transpose of a gate-major array they
        rounded differently).
        """
        _, c_prev, gates, tc = cache
        i, f, o, g = gates
        gc_total = gh * o
        gc_total *= 1.0 - tc * tc
        if gc is not None:
            gc_total += gc
        d = np.empty_like(gates)
        # d/d(gate) for i, f, o, then through the sigmoids all at once
        np.multiply(gc_total, g, out=d[0])
        if c_prev is None:
            d[1] = 0.0
        else:
            np.multiply(gc_total, c_prev, out=d[1])
        np.multiply(gh, tc, out=d[2])
        d[:3] *= gates[:3]
        d[:3] *= 1.0 - gates[:3]
        np.multiply(gc_total, i, out=d[3])
        d[3] *= 1.0 - g * g
        return d.transpose(1, 0, 2).reshape(len(gh), -1), gc_total * f


def gate_major(w):
    """A stacked (4h, n) gate matrix as a contiguous (4, n, h) copy:
    np.matmul(x, gate_major(w)) is x @ w.T as one (4, batch, h) block, with
    its bits. (On the transposed view the products ran slower.)"""
    return np.ascontiguousarray(w.reshape(4, -1, w.shape[1]).transpose(0, 2, 1))


def lstm_unroll(cell, xs):
    """Run the cell over xs (steps, batch, in_dim) from a zero state.

    Returns (h_last, caches), one (x, c_prev, gates, tanh(c_new)) per step,
    with c_prev None at the zero state; a step's h_new is its output gate
    times tanh(c_new). One window array (steps, 4, batch, h) takes every
    step's input projection and then its gates, so it is also the cache:
    each step's gates are one contiguous block of it. (A second
    window-sized array, freed after the unroll, left a hole in the heap
    that glibc trimmed and faulted back in.)
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[2] != cell.in_dim:
        raise ShapeError(f"lstm_unroll expects (steps, batch, {cell.in_dim}), got {xs.shape}")
    # set up once per unroll, before the window: the recurrent weights
    # gate-major, and the bias as a step's block (added faster than broadcast
    # from (4, 1, h)). Made after the window, these two left the benchmark's
    # LSTM8 updates faulting the heap back in (ROADMAP, Traps).
    wh_t = gate_major(cell.wh)
    bias = np.repeat(cell.bias.reshape(4, 1, -1), xs.shape[1], axis=1)
    window = np.matmul(xs[:, None], gate_major(cell.wx))
    state = None
    caches = []
    for t in range(len(xs)):
        h, c, tc = cell.advance(window[t], state, wh_t, bias)
        caches.append((xs[t], None if state is None else state[1], window[t], tc))
        state = h, c
    return h, caches


def lstm_unroll_backward(cell, caches, gh_last):
    """BPTT over an unrolled window. Returns (cell grads, gxs (steps, batch, in)).

    Weight gradients are summed last step first, one step's product at a
    time; the zero initial state takes no product and no gradient.
    """
    gwx = np.zeros_like(cell.wx)
    gwh = np.zeros_like(cell.wh)
    gb = np.zeros_like(cell.bias)
    gxs = np.empty((len(caches), *caches[0][0].shape))
    gh, gc = gh_last, None
    for t in range(len(caches) - 1, -1, -1):
        gz, gc = cell.pre_activation_grad(caches[t], gh, gc)
        gwx += gz.T @ caches[t][0]
        gb += gz.sum(axis=0)
        np.matmul(gz, cell.wx, out=gxs[t])
        if t:
            _, _, gates, tc = caches[t - 1]
            gwh += gz.T @ (gates[2] * tc)  # h_prev, with the forward's bits
            gh = gz @ cell.wh
    return [gwx, gwh, gb], gxs


# ---------------------------------------------------------------------------
# actor / critic networks


def pack(arrays):
    """Copy arrays into one new contiguous float64 vector.

    Returns (flat, views): views[i] is a C-contiguous view of flat shaped
    like arrays[i], so a write through either shows in both.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    views = []
    start = 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return flat, views


class Network:
    """A network whose layers' arrays are views of one vector it owns.

    ``flat`` holds every parameter; ``parameters()`` returns one view of it
    per array, in layer order and each layer's PARAMS order.
    ``backward(cache, g)`` returns the gradients of those arrays, in that
    order, and nothing else; a critic's one dQ/da is ``action_grad``.
    """

    def _own_parameters(self, *layers):
        self._slots = [(layer, name) for layer in layers for name in layer.PARAMS]
        self.flat, views = pack([getattr(layer, name) for layer, name in self._slots])
        for (layer, name), view in zip(self._slots, views):
            setattr(layer, name, view)

    def parameters(self):
        return [getattr(layer, name) for layer, name in self._slots]

    def copy(self):
        """An independent clone that owns a fresh parameter vector."""
        clone = copy.deepcopy(self)
        clone._own_parameters(*dict.fromkeys(layer for layer, _ in clone._slots))
        return clone

    def __call__(self, *inputs):
        return self.forward(*inputs)[0]


class Actor(Network):
    """Deterministic policy network.

    Trunk -> 3 linear units squashed per head: tanh for steering in [-1, 1],
    sigmoid for throttle and brake in [0, 1]. Each input row is flattened,
    so a (batch, w, obs) window batch reads as (batch, w * obs).
    """

    def __init__(self, trunk):
        if trunk.out_dim != 3:
            raise ShapeError("actor trunk must end in 3 units")
        self.trunk = trunk
        self._own_parameters(*trunk.layers)

    def forward(self, x):
        z, caches = self.trunk.forward(np.reshape(x, (len(x), -1)))
        a = z.copy()
        np.tanh(a[:, 0], out=a[:, 0])
        sigmoid_(a[:, 1:])
        return a, (caches, z, a)

    def backward(self, cache, ga):
        caches, z, a = cache
        if ga.shape != a.shape:
            raise ShapeError(f"gradient shape {ga.shape} != {a.shape}")
        gz = np.empty_like(ga)
        gz[:, 0] = ga[:, 0] * (1.0 - a[:, 0] ** 2)
        gz[:, 1] = ga[:, 1] * a[:, 1] * (1.0 - a[:, 1])
        gz[:, 2] = ga[:, 2] * a[:, 2] * (1.0 - a[:, 2])
        return self.trunk.backward(caches, gz, input_grad=False)[0]


class Critic(Network):
    """Feed-forward Q network on a window: the states, flattened as the actor
    reads them, through one layer; the window's last action joins after it."""

    def __init__(self, state_layer, tail):
        if tail.out_dim != 1:
            raise ShapeError("critic tail must end in a scalar")
        self.state_layer = state_layer
        self.tail = tail
        self.action_dim = tail.in_dim - state_layer.out_dim
        if self.action_dim <= 0:
            raise ShapeError("critic tail input must exceed the state stream width")
        self._own_parameters(state_layer, *tail.layers)

    def forward(self, s_win, a_win):
        """s_win (batch, w, obs), a_win (batch, w, 3) -> q (batch,)."""
        if a_win.ndim != 3 or a_win.shape[2] != self.action_dim:
            raise ShapeError(f"critic expects actions (batch, w, {self.action_dim}), got {a_win.shape}")
        h, cache_s = self.state_layer.forward(np.reshape(s_win, (len(s_win), -1)))
        u = np.concatenate([h, a_win[:, -1]], axis=1)
        q, caches_t = self.tail.forward(u)
        return q[:, 0], (cache_s, caches_t)

    def backward(self, cache, gq):
        cache_s, caches_t = cache
        gt, gu = self.tail.backward(caches_t, gq[:, None])
        gz = self.state_layer.pre_activation_grad(cache_s, gu[:, :self.state_layer.out_dim])
        return [*self.state_layer.param_grads(cache_s[0], gz), *gt]

    def action_grad(self, cache, gq):
        """dQ/da (batch, 3) for the window's last action: the tail's backward alone."""
        _, caches_t = cache
        return self.tail.backward(caches_t, gq[:, None])[1][:, self.state_layer.out_dim:]


class LstmCritic(Network):
    """Recurrent Q network over a window of (state, action) pairs.

    Each step embeds the state, concatenates the action, and feeds an LSTM
    cell; the final hidden state goes through a linear head.
    """

    def __init__(self, state_layer, cell, head):
        if cell.in_dim != state_layer.out_dim + 3:
            raise ShapeError("lstm input must be state embedding + 3 action units")
        if head.out_dim != 1 or head.in_dim != cell.hidden_dim:
            raise ShapeError("head must map hidden state to a scalar")
        self.state_layer = state_layer
        self.cell = cell
        self.head = head
        self.action_dim = 3
        self._own_parameters(state_layer, cell, head)

    def forward(self, s_win, a_win):
        """s_win (batch, w, state_dim), a_win (batch, w, 3) -> q (batch,)."""
        s_win = np.asarray(s_win, dtype=np.float64)
        a_win = np.asarray(a_win, dtype=np.float64)
        if s_win.ndim != 3 or a_win.ndim != 3 or s_win.shape[:2] != a_win.shape[:2]:
            raise ShapeError(f"window shapes {s_win.shape} / {a_win.shape} incompatible")
        if s_win.shape[2] != self.state_layer.in_dim or a_win.shape[2] != self.action_dim:
            raise ShapeError(f"window features {s_win.shape[2]}/{a_win.shape[2]} mismatch")
        batch, w, _ = s_win.shape
        # time-major, like lstm_unroll: every step's states embedded in one
        # product, each row with the bits it has alone
        e, embed_cache = self.state_layer.forward(s_win.transpose(1, 0, 2).reshape(w * batch, -1))
        xs = np.concatenate([e.reshape(w, batch, -1), a_win.transpose(1, 0, 2)], axis=2)
        # the embedding's backward reads only its input and z, and e lives on
        # in xs: freed before the unroll, it leaves room for the steps' arrays
        embed_cache = embed_cache[:2]
        del e
        h, step_caches = lstm_unroll(self.cell, xs)
        q, cache_h = self.head.forward(h)
        return q[:, 0], (embed_cache, step_caches, cache_h)

    def backward(self, cache, gq):
        embed_cache, step_caches, cache_h = cache
        ghead, gh = self.head.backward(cache_h, gq[:, None])
        cell_grads, gxs = lstm_unroll_backward(self.cell, step_caches, gh)
        w, batch, _ = gxs.shape
        embed_dim = self.state_layer.out_dim
        gz = self.state_layer.pre_activation_grad(
            embed_cache, gxs[:, :, :embed_dim].reshape(w * batch, embed_dim))
        s = embed_cache[0]
        gws = np.zeros_like(self.state_layer.weight)
        gbs = np.zeros_like(self.state_layer.bias)
        # per step and summed last step first, like the cell gradients in
        # lstm_unroll_backward: one product over the window rounds differently
        for t in range(w - 1, -1, -1):
            rows = slice(t * batch, (t + 1) * batch)
            dws, dbs = self.state_layer.param_grads(s[rows], gz[rows])
            gws += dws
            gbs += dbs
        return [gws, gbs, *cell_grads, *ghead]

    def action_grad(self, cache, gq):
        """dQ/da (batch, 3) for the window's last action.

        That action enters the recurrence at the last step only, so this is
        the head's backward and the last cell step's, from a zero cell
        gradient: the first iteration of lstm_unroll_backward.
        """
        _, step_caches, cache_h = cache
        gh = self.head.pre_activation_grad(cache_h, gq[:, None]) @ self.head.weight
        gz, _ = self.cell.pre_activation_grad(step_caches[-1], gh, None)
        return (gz @ self.cell.wx)[:, self.state_layer.out_dim:]


# ---------------------------------------------------------------------------
# initialization


def fanin_uniform(rng, out_dim, in_dim):
    lim = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-lim, lim, size=(out_dim, in_dim))


FINAL_SCALE = 3e-3  # output layers start uniform in [-FINAL_SCALE, FINAL_SCALE]


def build_actor(input_dim, hidden=(64, 64), rng=None):
    """Fan-in uniform init, final layer in [-FINAL_SCALE, FINAL_SCALE]."""
    rng = np.random.default_rng(rng)
    dims = [input_dim, *hidden]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(Dense(fanin_uniform(rng, d_out, d_in), np.zeros(d_out), "relu"))
    layers.append(
        Dense(
            rng.uniform(-FINAL_SCALE, FINAL_SCALE, size=(3, dims[-1])),
            np.zeros(3),
            "linear",
        )
    )
    return Actor(Mlp(layers))


def build_critic(state_dim, hidden=64, rng=None):
    """Q(s, a) over the actor's 3 action units."""
    rng = np.random.default_rng(rng)
    state_layer = Dense(fanin_uniform(rng, hidden, state_dim), np.zeros(hidden), "relu")
    tail = Mlp(
        [
            Dense(fanin_uniform(rng, hidden, hidden + 3), np.zeros(hidden), "relu"),
            Dense(rng.uniform(-FINAL_SCALE, FINAL_SCALE, size=(1, hidden)), np.zeros(1), "linear"),
        ]
    )
    return Critic(state_layer, tail)


def build_lstm_critic(state_dim, hidden=64, rng=None):
    rng = np.random.default_rng(rng)
    state_layer = Dense(fanin_uniform(rng, hidden, state_dim), np.zeros(hidden), "relu")
    cell = LstmCell(
        fanin_uniform(rng, 4 * hidden, hidden + 3),
        fanin_uniform(rng, 4 * hidden, hidden),
        np.zeros(4 * hidden),
    )
    head = Dense(rng.uniform(-FINAL_SCALE, FINAL_SCALE, size=(1, hidden)), np.zeros(1), "linear")
    return LstmCritic(state_layer, cell, head)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction over one flat parameter vector.

    Built from the network's parameter list, whose shapes the gradients of
    ``step`` must have; m and v are vectors like the flat one.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.shapes = [p.shape for p in params]
        # parameter i is flat[offsets[i]:offsets[i + 1]]
        self.offsets = np.cumsum([0, *(p.size for p in params)])
        self.m = np.zeros(self.offsets[-1])
        self.v = np.zeros(self.offsets[-1])

    def step(self, flat, grads):
        """Update flat in place from grads, a list shaped like the parameters."""
        if flat.shape != self.m.shape or [g.shape for g in grads] != self.shapes:
            raise ShapeError(
                f"adam updates {len(self.m)} values shaped {self.shapes}, got a vector "
                f"of {flat.shape} and gradients {[g.shape for g in grads]}"
            )
        g = np.concatenate([x.ravel() for x in grads])
        finite = np.isfinite(g)
        if not finite.all():
            first = int(np.argmin(finite))
            i = int(np.searchsorted(self.offsets, first, side="right")) - 1
            raise NumericError(f"non-finite gradient at parameter {i}")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        # m and v are rebuilt each step, not updated in place: the new arrays
        # stay live between steps at the top of the heap. Updated in place,
        # the step's temporaries were the top, and glibc returned them to the
        # system after every LSTM8 update and faulted them back in on the next.
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / b1t
        v_hat = self.v / b2t
        flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def soft_update(source, target, tau):
    """target <- tau * source + (1 - tau) * target, on flat vectors, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if source.shape != target.shape:
        raise ShapeError(f"parameter vectors differ: {source.shape} vs {target.shape}")
    target *= 1.0 - tau
    target += tau * source


# ---------------------------------------------------------------------------
# checkpoint format

CHECKPOINT_FORMAT = "racerl-checkpoint"
CHECKPOINT_VERSION = 2  # 2: an agent checkpoint stores its run's whole config


def save_arrays(path, meta, arrays):
    """Versioned dump of named float arrays plus a JSON meta block.

    Round trips are bit exact (npz stores raw IEEE-754 bytes).
    """
    header = dict(meta)
    header["format"] = CHECKPOINT_FORMAT
    header["version"] = CHECKPOINT_VERSION
    payload = {"__meta__": np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)}
    for name, arr in arrays.items():
        if name.startswith("__"):
            raise ValueError(f"reserved array name {name!r}")
        payload[name] = np.asarray(arr)
    write_atomic(path, lambda fh: np.savez(fh, **payload), binary=True)


def load_arrays(path):
    """Load a dump written by save_arrays. Returns (meta, arrays)."""
    with np.load(path) as data:
        raw = bytes(data["__meta__"].tobytes())
        meta = json.loads(raw.decode())
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        version = meta.get("version")
        if version != CHECKPOINT_VERSION:
            note = "; version 1 agent checkpoints stored only the agent's config" \
                if version == 1 else ""
            raise ValueError(f"{path}: unsupported checkpoint version {version}{note}; "
                             f"this racerl reads version {CHECKPOINT_VERSION}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return meta, arrays
