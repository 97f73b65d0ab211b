"""Minimal differentiable numeric core: dense nets, an LSTM cell, Adam, soft updates.

Everything is float64 numpy with hand-written backward passes. Inputs are
batched 2D arrays (batch, features); single samples go through as (1, k).
Gradients are exact analytic derivatives and are checked against central
finite differences in the test suite.
"""

from __future__ import annotations

import json

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear")


class ShapeError(ValueError):
    """Incompatible array dimensions."""


class NumericError(ArithmeticError):
    """Non-finite value where a finite one is required.

    Carries ``index``, the offending position in the parameter list.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z, y, kind):
    # derivative wrt pre-activation, using whichever of z / y=f(z) is cheaper
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "tanh":
        return 1.0 - y * y
    if kind == "sigmoid":
        return y * (1.0 - y)
    if kind == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {kind!r}")


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class Dense:
    """One affine layer with an elementwise activation.

    weight is (out, in), bias (out,). ``forward`` returns the output plus a
    cache consumed by ``backward``.
    """

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
        y = _activate(z, self.activation)
        return y, (x, z, y)

    def backward(self, cache, gy):
        x, z, y = cache
        gy = np.asarray(gy, dtype=np.float64)
        if gy.shape != z.shape:
            raise ShapeError(f"output gradient shape {gy.shape} != {z.shape}")
        gz = gy * _activate_grad(z, y, self.activation)
        gw = gz.T @ x
        gb = gz.sum(axis=0)
        gx = gz @ self.weight
        return (gw, gb), gx

    def parameters(self):
        return [self.weight, self.bias]

    def copy(self):
        return Dense(self.weight.copy(), self.bias.copy(), self.activation)


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

    def backward(self, caches, gy):
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i], gy = self.layers[i].backward(caches[i], gy)
        flat = []
        for gw, gb in grads:
            flat.extend([gw, gb])
        return flat, gy

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def copy(self):
        return Mlp([layer.copy() for layer in self.layers])


class LstmCell:
    """Standard LSTM cell with combined gate matrices.

    Gate order in the stacked matrices is (input, forget, output, candidate).
    wx is (4h, k), wh (4h, h), bias (4h,).
    """

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

    def zero_state(self, batch):
        h = self.hidden_dim
        return np.zeros((batch, h)), np.zeros((batch, h))

    def step(self, x, state):
        """One recurrence step. Returns (h_new, (h_new, c_new), cache)."""
        h_prev, c_prev = state
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"lstm step expects (batch, {self.in_dim}), got {x.shape}")
        hd = self.hidden_dim
        z = x @ self.wx.T + h_prev @ self.wh.T + self.bias
        i = sigmoid(z[:, 0 * hd:1 * hd])
        f = sigmoid(z[:, 1 * hd:2 * hd])
        o = sigmoid(z[:, 2 * hd:3 * hd])
        g = np.tanh(z[:, 3 * hd:4 * hd])
        c_new = f * c_prev + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        cache = (x, h_prev, c_prev, i, f, o, g, tc)
        return h_new, (h_new, c_new), cache

    def step_backward(self, cache, gh, gc):
        """Backward through one step.

        gh, gc are gradients wrt h_new and c_new. Returns the parameter
        gradients for this step plus (gx, gh_prev, gc_prev).
        """
        x, h_prev, c_prev, i, f, o, g, tc = cache
        go = gh * tc
        gc_total = gc + gh * o * (1.0 - tc * tc)
        gf = gc_total * c_prev
        gi = gc_total * g
        gg = gc_total * i
        gz = np.concatenate(
            [
                gi * i * (1.0 - i),
                gf * f * (1.0 - f),
                go * o * (1.0 - o),
                gg * (1.0 - g * g),
            ],
            axis=1,
        )
        gwx = gz.T @ x
        gwh = gz.T @ h_prev
        gb = gz.sum(axis=0)
        gx = gz @ self.wx
        gh_prev = gz @ self.wh
        gc_prev = gc_total * f
        return (gwx, gwh, gb), gx, gh_prev, gc_prev

    def parameters(self):
        return [self.wx, self.wh, self.bias]

    def copy(self):
        return LstmCell(self.wx.copy(), self.wh.copy(), self.bias.copy())


def lstm_unroll(cell, xs):
    """Run the cell over xs (batch, steps, in_dim) from a zero state.

    Returns (h_last, caches).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3:
        raise ShapeError(f"lstm_unroll expects (batch, steps, in), got {xs.shape}")
    state = cell.zero_state(xs.shape[0])
    caches = []
    h = state[0]
    for t in range(xs.shape[1]):
        h, state, cache = cell.step(xs[:, t, :], state)
        caches.append(cache)
    return h, caches


def lstm_unroll_backward(cell, caches, gh_last):
    """BPTT over an unrolled window. Returns (cell grads, gxs (batch, steps, in))."""
    gwx = np.zeros_like(cell.wx)
    gwh = np.zeros_like(cell.wh)
    gb = np.zeros_like(cell.bias)
    gh = gh_last
    gc = np.zeros_like(gh_last)
    gxs = []
    for cache in reversed(caches):
        (dwx, dwh, db), gx, gh, gc = cell.step_backward(cache, gh, gc)
        gwx += dwx
        gwh += dwh
        gb += db
        gxs.append(gx)
    gxs.reverse()
    return [gwx, gwh, gb], np.stack(gxs, axis=1)


# ---------------------------------------------------------------------------
# actor / critic networks


class Actor:
    """Deterministic policy network.

    Trunk -> 3 linear units squashed per head: tanh for steering in [-1, 1],
    sigmoid for throttle and brake in [0, 1].
    """

    def __init__(self, trunk):
        if trunk.out_dim != 3:
            raise ShapeError("actor trunk must end in 3 units")
        self.trunk = trunk

    @property
    def in_dim(self):
        return self.trunk.in_dim

    def forward(self, x):
        z, caches = self.trunk.forward(x)
        a = np.column_stack([np.tanh(z[:, 0]), sigmoid(z[:, 1]), sigmoid(z[:, 2])])
        return a, (caches, z, a)

    def backward(self, cache, ga):
        caches, z, a = cache
        if ga.shape != a.shape:
            raise ShapeError(f"gradient shape {ga.shape} != {a.shape}")
        gz = np.empty_like(ga)
        gz[:, 0] = ga[:, 0] * (1.0 - a[:, 0] ** 2)
        gz[:, 1] = ga[:, 1] * a[:, 1] * (1.0 - a[:, 1])
        gz[:, 2] = ga[:, 2] * a[:, 2] * (1.0 - a[:, 2])
        return self.trunk.backward(caches, gz)

    def parameters(self):
        return self.trunk.parameters()

    def copy(self):
        return Actor(self.trunk.copy())

    def __call__(self, x):
        return self.forward(x)[0]


class Critic:
    """Feed-forward Q network: state through one layer, action joins after it."""

    def __init__(self, state_layer, tail):
        if tail.out_dim != 1:
            raise ShapeError("critic tail must end in a scalar")
        self.state_layer = state_layer
        self.tail = tail
        self.action_dim = tail.in_dim - state_layer.out_dim
        if self.action_dim <= 0:
            raise ShapeError("critic tail input must exceed the state stream width")

    @property
    def state_dim(self):
        return self.state_layer.in_dim

    def forward(self, s, a):
        h, cache_s = self.state_layer.forward(s)
        if a.ndim != 2 or a.shape[1] != self.action_dim:
            raise ShapeError(f"critic expects actions (batch, {self.action_dim}), got {a.shape}")
        u = np.concatenate([h, a], axis=1)
        q, caches_t = self.tail.forward(u)
        return q[:, 0], (cache_s, caches_t)

    def backward(self, cache, gq):
        """gq is (batch,). Returns (grads, gs, ga)."""
        cache_s, caches_t = cache
        gt, gu = self.tail.backward(caches_t, gq[:, None])
        gh = gu[:, : self.state_layer.out_dim]
        ga = gu[:, self.state_layer.out_dim:]
        gs_params, gs = self.state_layer.backward(cache_s, gh)
        return [*gs_params, *gt], gs, ga

    def parameters(self):
        return [*self.state_layer.parameters(), *self.tail.parameters()]

    def copy(self):
        return Critic(self.state_layer.copy(), self.tail.copy())

    def __call__(self, s, a):
        return self.forward(s, a)[0]


class LstmCritic:
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

    @property
    def state_dim(self):
        return self.state_layer.in_dim

    def forward(self, s_win, a_win):
        """s_win (batch, w, state_dim), a_win (batch, w, 3) -> q (batch,)."""
        s_win = np.asarray(s_win, dtype=np.float64)
        a_win = np.asarray(a_win, dtype=np.float64)
        if s_win.ndim != 3 or a_win.ndim != 3 or s_win.shape[:2] != a_win.shape[:2]:
            raise ShapeError(f"window shapes {s_win.shape} / {a_win.shape} incompatible")
        if s_win.shape[2] != self.state_dim or a_win.shape[2] != self.action_dim:
            raise ShapeError(f"window features {s_win.shape[2]}/{a_win.shape[2]} mismatch")
        embeds = []
        embed_caches = []
        for t in range(s_win.shape[1]):
            e, ce = self.state_layer.forward(s_win[:, t, :])
            embeds.append(e)
            embed_caches.append(ce)
        xs = np.concatenate([np.stack(embeds, axis=1), a_win], axis=2)
        h, step_caches = lstm_unroll(self.cell, xs)
        q, cache_h = self.head.forward(h)
        return q[:, 0], (embed_caches, step_caches, cache_h)

    def backward(self, cache, gq):
        """Returns (grads, gs_win, ga_win); grads ordered like parameters()."""
        embed_caches, step_caches, cache_h = cache
        ghead, gh = self.head.backward(cache_h, gq[:, None])
        cell_grads, gxs = lstm_unroll_backward(self.cell, step_caches, gh)
        embed_dim = self.state_layer.out_dim
        gws = np.zeros_like(self.state_layer.weight)
        gbs = np.zeros_like(self.state_layer.bias)
        gs_list = []
        # summed last step first, like the cell gradients in lstm_unroll_backward
        for t in range(len(embed_caches) - 1, -1, -1):
            (dws, dbs), gs = self.state_layer.backward(embed_caches[t], gxs[:, t, :embed_dim])
            gws += dws
            gbs += dbs
            gs_list.append(gs)
        gs_list.reverse()
        grads = [gws, gbs, *cell_grads, *ghead]
        return grads, np.stack(gs_list, axis=1), gxs[:, :, embed_dim:]

    def parameters(self):
        return [
            *self.state_layer.parameters(),
            *self.cell.parameters(),
            *self.head.parameters(),
        ]

    def copy(self):
        return LstmCritic(self.state_layer.copy(), self.cell.copy(), self.head.copy())

    def __call__(self, s_win, a_win):
        return self.forward(s_win, a_win)[0]


# ---------------------------------------------------------------------------
# initialization


def fanin_uniform(rng, out_dim, in_dim):
    lim = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-lim, lim, size=(out_dim, in_dim))


def build_actor(input_dim, hidden=(64, 64), final_scale=3e-3, rng=None):
    """Fan-in uniform init, final layer in [-final_scale, final_scale]."""
    rng = np.random.default_rng(rng)
    dims = [input_dim, *hidden]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(Dense(fanin_uniform(rng, d_out, d_in), np.zeros(d_out), "relu"))
    layers.append(
        Dense(
            rng.uniform(-final_scale, final_scale, size=(3, dims[-1])),
            np.zeros(3),
            "linear",
        )
    )
    return Actor(Mlp(layers))


def build_critic(state_dim, action_dim=3, hidden=64, final_scale=3e-3, rng=None):
    rng = np.random.default_rng(rng)
    state_layer = Dense(fanin_uniform(rng, hidden, state_dim), np.zeros(hidden), "relu")
    tail = Mlp(
        [
            Dense(fanin_uniform(rng, hidden, hidden + action_dim), np.zeros(hidden), "relu"),
            Dense(rng.uniform(-final_scale, final_scale, size=(1, hidden)), np.zeros(1), "linear"),
        ]
    )
    return Critic(state_layer, tail)


def build_lstm_critic(state_dim, action_dim=3, hidden=64, final_scale=3e-3, rng=None):
    rng = np.random.default_rng(rng)
    state_layer = Dense(fanin_uniform(rng, hidden, state_dim), np.zeros(hidden), "relu")
    in_dim = hidden + action_dim
    cell = LstmCell(
        fanin_uniform(rng, 4 * hidden, in_dim),
        fanin_uniform(rng, 4 * hidden, hidden),
        np.zeros(4 * hidden),
    )
    head = Dense(rng.uniform(-final_scale, final_scale, size=(1, hidden)), np.zeros(1), "linear")
    return LstmCritic(state_layer, cell, head)


# ---------------------------------------------------------------------------
# optimization


class Adam:
    """Adam with bias correction, updating parameter arrays in place."""

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
                raise NumericError(f"non-finite gradient at parameter {i}", index=i)
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def soft_update(source, target, tau):
    """target <- tau * source + (1 - tau) * target, element-wise, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if len(source) != len(target):
        raise ShapeError(f"parameter counts differ: {len(source)} vs {len(target)}")
    for i, (s, t) in enumerate(zip(source, target)):
        if s.shape != t.shape:
            raise ShapeError(f"parameter {i} shapes differ: {s.shape} vs {t.shape}")
        t *= 1.0 - tau
        t += tau * s


# ---------------------------------------------------------------------------
# checkpoint format

CHECKPOINT_FORMAT = "racerl-checkpoint"
CHECKPOINT_VERSION = 1


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
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_arrays(path):
    """Load a dump written by save_arrays. Returns (meta, arrays)."""
    with np.load(path) as data:
        raw = bytes(data["__meta__"].tobytes())
        meta = json.loads(raw.decode())
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    return meta, arrays
