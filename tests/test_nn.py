import json
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from racerl import nn
from oracles import batch_major_lstm, check_network_gradients, finite_difference_grad, max_relative_error
import update_golden


def test_forward_affine_identity():
    layer = nn.Dense(np.array([[2.0]]), np.array([1.0]), "linear")
    y, _ = layer.forward(np.array([[3.0]]))
    npt.assert_array_equal(y, [[7.0]])


def test_forward_zero_net_gives_zero():
    net = nn.Mlp(
        [
            nn.Dense(np.zeros((4, 3)), np.zeros(4), "linear"),
            nn.Dense(np.zeros((2, 4)), np.zeros(2), "linear"),
        ]
    )
    y, _ = net.forward(np.random.default_rng(0).normal(size=(5, 3)))
    npt.assert_array_equal(y, np.zeros((5, 2)))


def test_forward_two_layer_relu_hand_computed():
    # hand evaluation: x=[1,-2], h=relu(W1 x + b1), y = W2 h + b2
    w1 = np.array([[1.0, 0.5], [-1.0, 2.0]])
    b1 = np.array([0.5, -0.25])
    w2 = np.array([[2.0, -3.0]])
    b2 = np.array([0.125])
    x = np.array([[1.0, -2.0]])
    h = np.maximum(w1 @ x[0] + b1, 0.0)          # [0.5, 0] after relu
    expected = w2 @ h + b2                        # 2*0.5 - 0 + 0.125 = 1.125
    net = nn.Mlp([nn.Dense(w1, b1, "relu"), nn.Dense(w2, b2, "linear")])
    y, _ = net.forward(x)
    npt.assert_allclose(y[0], expected)
    assert y[0, 0] == 1.125


def test_forward_deterministic():
    net = nn.build_actor(7, rng=3)
    x = np.random.default_rng(5).normal(size=(4, 7))
    a1 = net(x)
    a2 = net(x)
    npt.assert_array_equal(a1, a2)


def test_forward_shape_error():
    layer = nn.Dense(np.zeros((2, 3)), np.zeros(2), "relu")
    with pytest.raises(nn.ShapeError):
        layer.forward(np.zeros((1, 4)))


def test_backward_scalar_product_rule():
    # y = w*x, w=2, x=3, g=1 -> dL/dw = 3, dL/dx = 2
    layer = nn.Dense(np.array([[2.0]]), np.array([0.0]), "linear")
    y, cache = layer.forward(np.array([[3.0]]))
    (gw, gb), gx = layer.backward(cache, np.array([[1.0]]))
    assert gw[0, 0] == 3.0
    assert gx[0, 0] == 2.0
    assert gb[0] == 1.0


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "softplus"])
def test_dense_layers_are_relu_or_linear(kind):
    # the actor squashes its own heads; no layer the builders make needs more
    with pytest.raises(ValueError, match=f"unknown activation '{kind}'"):
        nn.Dense(np.ones((2, 3)), np.zeros(2), kind)


def test_backward_zero_gradient():
    net = nn.Mlp(
        [
            nn.Dense(np.random.default_rng(1).normal(size=(4, 3)), np.zeros(4), "relu"),
            nn.Dense(np.random.default_rng(2).normal(size=(2, 4)), np.zeros(2), "linear"),
        ]
    )
    y, caches = net.forward(np.ones((2, 3)))
    grads, gx = net.backward(caches, np.zeros_like(y))
    for g in grads:
        npt.assert_array_equal(g, np.zeros_like(g))
    npt.assert_array_equal(gx, np.zeros((2, 3)))


def test_backward_finite_difference_small_net():
    rng = np.random.default_rng(42)
    net = nn.Mlp(
        [
            nn.Dense(rng.normal(size=(5, 4)), rng.normal(size=5), "relu"),
            nn.Dense(rng.normal(size=(3, 5)), rng.normal(size=3), "linear"),
            nn.Dense(rng.normal(size=(2, 3)), rng.normal(size=2), "linear"),
        ]
    )
    x = rng.normal(size=(3, 4)) + 0.3  # keep relu away from its kink
    g_out = rng.normal(size=(3, 2))

    def loss_fn():
        y, caches = net.forward(x)
        loss = float(np.sum(g_out * y))
        grads, _ = net.backward(caches, g_out)
        return loss, grads

    params = [p for layer in net.layers for p in (layer.weight, layer.bias)]
    assert check_network_gradients(params, loss_fn) < 1e-4

    # input gradient against the same oracle
    _, caches = net.forward(x)
    _, gx = net.backward(caches, g_out)
    numeric = finite_difference_grad(lambda a: float(np.sum(g_out * net.forward(a)[0])), x.copy())
    assert max_relative_error(gx, numeric) < 1e-4


def test_lstm_zero_weights_zero_output():
    cell = nn.LstmCell(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
    x = np.ones((4, 3))
    h, c, _ = cell.advance(np.matmul(x, nn.gate_major(cell.wx)), None,
                           nn.gate_major(cell.wh), cell.bias.reshape(4, 1, 2))
    # output gate sigmoid(0)=0.5 times tanh(cell)=tanh(0.5*tanh(0)*...) = 0
    npt.assert_array_equal(h, np.zeros((4, 2)))
    npt.assert_array_equal(c, np.zeros((4, 2)))


def test_lstm_one_dim_hand_computed():
    # 1-d cell, all gate weights distinct; evaluate the gate equations by hand
    wx = np.array([[0.5], [-0.25], [1.0], [0.75]])   # i, f, o, g
    wh = np.array([[0.1], [0.2], [0.3], [0.4]])
    b = np.array([0.05, -0.05, 0.1, 0.0])
    cell = nn.LstmCell(wx, wh, b)
    x = 0.8
    h0, c0 = 0.3, -0.2

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(0.5 * x + 0.1 * h0 + 0.05)
    f = sig(-0.25 * x + 0.2 * h0 - 0.05)
    o = sig(1.0 * x + 0.3 * h0 + 0.1)
    g = np.tanh(0.75 * x + 0.4 * h0 + 0.0)
    c1 = f * c0 + i * g
    h1 = o * np.tanh(c1)

    z = np.matmul(np.array([[x]]), nn.gate_major(wx))
    h, cc, _ = cell.advance(z, (np.array([[h0]]), np.array([[c0]])), nn.gate_major(wh),
                            b.reshape(4, 1, 1))
    npt.assert_allclose(h[0, 0], h1, rtol=1e-14)
    npt.assert_allclose(cc[0, 0], c1, rtol=1e-14)


def test_lstm_unrolled_gradient_finite_difference():
    rng = np.random.default_rng(7)
    k, hdim, w = 3, 4, 4
    cell = nn.LstmCell(
        rng.normal(size=(4 * hdim, k)) * 0.5,
        rng.normal(size=(4 * hdim, hdim)) * 0.5,
        rng.normal(size=4 * hdim) * 0.1,
    )
    xs = rng.normal(size=(w, 2, k))  # time-major
    g_out = rng.normal(size=(2, hdim))

    def loss_fn():
        h, caches = nn.lstm_unroll(cell, xs)
        loss = float(np.sum(g_out * h))
        grads, _ = nn.lstm_unroll_backward(cell, caches, g_out)
        return loss, grads

    assert check_network_gradients([cell.wx, cell.wh, cell.bias], loss_fn) < 1e-4

    # gradient wrt the inputs too
    h, caches = nn.lstm_unroll(cell, xs)
    _, gxs = nn.lstm_unroll_backward(cell, caches, g_out)
    numeric = finite_difference_grad(
        lambda a: float(np.sum(g_out * nn.lstm_unroll(cell, a)[0])), xs.copy()
    )
    assert max_relative_error(gxs, numeric) < 1e-4


def test_lstm_unroll_caches_views_of_a_time_major_window():
    # one (steps, 4, batch, h) window array holds every step's gates, each
    # step's a contiguous gate-major block; each cached x is a view of xs
    rng = np.random.default_rng(11)
    cell = nn.LstmCell(rng.normal(size=(8, 3)), rng.normal(size=(8, 2)), np.zeros(8))
    xs = rng.normal(size=(5, 4, 3))
    h, caches = nn.lstm_unroll(cell, xs)
    assert len(caches) == 5
    window = caches[0][2].base
    assert window.shape == (5, 4, 4, 2) and window.flags.c_contiguous
    for t, (x, c_prev, gates, _) in enumerate(caches):
        assert np.shares_memory(x, xs)
        npt.assert_array_equal(x, xs[t])
        assert gates.base is window and gates.flags.c_contiguous
        assert gates.__array_interface__["data"] == window[t].__array_interface__["data"]
        assert (c_prev is None) == (t == 0)  # the zero state is not stored
    npt.assert_array_equal(h, caches[-1][2][2] * caches[-1][3])  # h = o * tanh(c)
    gh = rng.normal(size=(4, 2))
    assert nn.lstm_unroll_backward(cell, caches, gh)[1].shape == (5, 4, 3)


def test_adam_zero_gradient_is_identity():
    flat, params = nn.pack([np.array([1.0, -2.0]), np.array([[3.0]])])
    opt = nn.Adam(params, lr=1e-3)
    before = [p.copy() for p in params]
    opt.step(flat, [np.zeros_like(p) for p in params])
    for p, b in zip(params, before):
        npt.assert_array_equal(p, b)
    npt.assert_array_equal(opt.m, np.zeros(3))
    npt.assert_array_equal(opt.v, np.zeros(3))


@pytest.mark.parametrize("g", [0.5, -3.0, 1e-3])
def test_adam_first_step_magnitude(g):
    # bias-corrected first step is ~ lr * sign(g)
    lr = 1e-3
    flat, params = nn.pack([np.array([0.7])])
    opt = nn.Adam(params, lr=lr)
    opt.step(flat, [np.array([g])])
    delta = abs(params[0][0] - 0.7)
    assert 0.99 * lr <= delta <= lr


def test_adam_two_steps_hand_recursion():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 2.0
    theta = 0.0
    m = v = 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)

    flat, params = nn.pack([np.array([0.0])])
    opt = nn.Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    opt.step(flat, [np.array([g])])
    opt.step(flat, [np.array([g])])
    npt.assert_allclose(params[0][0], theta, rtol=1e-15)
    assert opt.t == 2


def test_adam_nonfinite_gradient_reports_index():
    flat, params = nn.pack([np.zeros(2), np.zeros(3)])
    opt = nn.Adam(params)
    bad = [np.zeros(2), np.array([0.0, np.nan, 0.0])]
    with pytest.raises(nn.NumericError, match="at parameter 1$"):
        opt.step(flat, bad)


def test_soft_update_tau_one_copies_source():
    src = np.array([2.0, -1.0])
    tgt = np.array([0.0, 5.0])
    nn.soft_update(src, tgt, 1.0)
    npt.assert_array_equal(tgt, src)


def test_soft_update_tau_zero_keeps_target():
    src = np.array([2.0])
    tgt = np.array([0.5])
    nn.soft_update(src, tgt, 0.0)
    npt.assert_array_equal(tgt, [0.5])


def test_soft_update_half_blend():
    src = np.array([2.0])
    tgt = np.array([0.0])
    nn.soft_update(src, tgt, 0.5)
    assert tgt[0] == 1.0


def test_soft_update_contraction():
    rng = np.random.default_rng(0)
    src = rng.normal(size=9)
    tgt = rng.normal(size=9)
    tau = 0.1
    d0 = np.linalg.norm(tgt - src)
    for k in range(1, 6):
        nn.soft_update(src, tgt, tau)
        npt.assert_allclose(np.linalg.norm(tgt - src), d0 * (1 - tau) ** k, rtol=1e-10)


def test_soft_update_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.soft_update(np.zeros(2), np.zeros(3), 0.5)


def test_actor_head_ranges_and_gradcheck():
    rng = np.random.default_rng(11)
    actor = nn.build_actor(6, hidden=(5, 4), rng=rng)
    x = rng.normal(size=(8, 6))
    a = actor(x)
    assert np.all(a[:, 0] >= -1) and np.all(a[:, 0] <= 1)
    assert np.all(a[:, 1:] >= 0) and np.all(a[:, 1:] <= 1)

    g_out = rng.normal(size=(8, 3))

    def loss_fn():
        y, cache = actor.forward(x)
        loss = float(np.sum(g_out * y))
        grads = actor.backward(cache, g_out)
        return loss, grads

    assert check_network_gradients(actor.parameters(), loss_fn) < 1e-4


def test_critic_gradcheck_including_action_input():
    rng = np.random.default_rng(13)
    critic = nn.build_critic(7, hidden=6, rng=rng)
    s = rng.normal(size=(4, 7))
    a = rng.normal(size=(4, 3))
    g_out = rng.normal(size=4)

    def loss_fn():
        q, cache = critic.forward(s, a[:, None, :])
        loss = float(np.sum(g_out * q))
        grads = critic.backward(cache, g_out)
        return loss, grads

    assert check_network_gradients(critic.parameters(), loss_fn) < 1e-4

    _, cache = critic.forward(s, a[:, None, :])
    ga = critic.action_grad(cache, g_out)
    numeric = finite_difference_grad(
        lambda arr: float(np.sum(g_out * critic(s, arr[:, None, :]))), a.copy()
    )
    assert max_relative_error(ga, numeric) < 1e-4


def test_lstm_critic_gradcheck():
    rng = np.random.default_rng(17)
    critic = nn.build_lstm_critic(5, hidden=4, rng=rng)
    s_win = rng.normal(size=(3, 4, 5))
    a_win = rng.normal(size=(3, 4, 3))
    g_out = rng.normal(size=3)

    def loss_fn():
        q, cache = critic.forward(s_win, a_win)
        loss = float(np.sum(g_out * q))
        grads = critic.backward(cache, g_out)
        return loss, grads

    assert check_network_gradients(critic.parameters(), loss_fn) < 1e-4


def test_every_network_backward_returns_its_parameter_gradients_alone():
    rng = np.random.default_rng(23)
    s_win, a_win = rng.normal(size=(4, 2, 5)), rng.normal(size=(4, 2, 3))
    actor = nn.build_actor(10, hidden=(6, 4), rng=rng)
    _, cache = actor.forward(s_win)
    cases = [(actor, actor.backward(cache, rng.normal(size=(4, 3))))]
    for critic in (nn.build_critic(10, hidden=6, rng=rng), nn.build_lstm_critic(5, hidden=4, rng=rng)):
        _, cache = critic.forward(s_win, a_win)
        cases.append((critic, critic.backward(cache, rng.normal(size=4))))
    for net, grads in cases:
        assert isinstance(grads, list)
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]


def test_critic_action_grad_matches_finite_differences():
    rng = np.random.default_rng(19)
    critic = nn.build_critic(7, hidden=6, rng=rng)
    s = rng.normal(size=(4, 7))
    a = rng.normal(size=(4, 3))
    g_out = rng.normal(size=4)
    _, cache = critic.forward(s, a[:, None, :])
    ga = critic.action_grad(cache, g_out)
    numeric = finite_difference_grad(
        lambda arr: float(np.sum(g_out * critic(s, arr[:, None, :]))), a.copy()
    )
    assert max_relative_error(ga, numeric) < 1e-4


@pytest.mark.parametrize("window", [1, 4, 8])
def test_networks_read_a_window_as_its_flattened_states_and_last_action(window):
    # the feed-forward critic and the actor take assemble_window's
    # (batch, w, .) arrays: the states flattened per row, the last action
    rng = np.random.default_rng(31 + window)
    n, obs = 5, 6
    critic = nn.build_critic(window * obs, hidden=7, rng=rng)
    actor = nn.build_actor(window * obs, hidden=(5, 4), rng=rng)
    s_win = rng.normal(size=(n, window, obs))
    a_win = rng.uniform(size=(n, window, 3))
    q = critic(s_win, a_win)
    assert q.shape == (n,)
    assert np.array_equal(q, critic(s_win.reshape(n, 1, -1), a_win[:, -1:]))
    other = rng.uniform(size=a_win.shape)
    other[:, -1] = a_win[:, -1]
    assert np.array_equal(q, critic(s_win, other))
    assert np.array_equal(actor(s_win), actor(s_win.reshape(n, -1)))


def test_lstm_critic_action_grad_matches_finite_differences():
    # the gradient wrt the window's last action only
    rng = np.random.default_rng(23)
    critic = nn.build_lstm_critic(5, hidden=4, rng=rng)
    s_win = rng.normal(size=(3, 4, 5))
    a_win = rng.normal(size=(3, 4, 3))
    g_out = rng.normal(size=3)
    _, cache = critic.forward(s_win, a_win)

    def q_at(last):
        full = a_win.copy()
        full[:, -1, :] = last
        return float(np.sum(g_out * critic(s_win, full)))

    numeric = finite_difference_grad(q_at, a_win[:, -1, :].copy())
    assert max_relative_error(critic.action_grad(cache, g_out), numeric) < 1e-4


@pytest.mark.parametrize("window", [4, 8])
def test_window_products_equal_the_per_step_products_bit_for_bit(window):
    # LstmCritic embeds every step's states in one product; lstm_unroll
    # projects every step into one gate-major window array and runs the
    # recurrence on gate-major weights; the BPTT takes its weight gradients,
    # gz @ wx and gz @ wh on a batch-major gz. The digests in golden.json
    # hold only while this BLAS gives each of these products the bits of the
    # per-step batch-major products of oracles.batch_major_lstm (OpenBLAS
    # picks its kernel by the shape), at LSTM4's and LSTM8's shapes.
    rng = np.random.default_rng(window)
    critic = nn.build_lstm_critic(29, hidden=64, rng=rng)
    cell = critic.cell
    s_win = rng.normal(size=(32, window, 29))
    a_win = rng.uniform(size=(32, window, 3))
    gq = rng.normal(size=32)
    q, cache = critic.forward(s_win, a_win)
    (_, z_embed), steps, cache_h = cache
    xs = np.stack([x for x, *_ in steps])
    blocks = lambda a: a.reshape(32, 4, -1).transpose(1, 0, 2)  # (batch, 4h) -> (4, batch, h)
    projection = np.matmul(xs[:, None], nn.gate_major(cell.wx))
    differ = []
    for t in range(window):
        if not np.array_equal(z_embed[32 * t:32 * (t + 1)], critic.state_layer.forward(s_win[:, t])[1][1]):
            differ.append(f"embedding of step {t}")
        if not np.array_equal(projection[t], blocks(xs[t] @ cell.wx.T)):
            differ.append(f"gate-major projection of step {t}")
        h_prev = steps[t - 1][2][2] * steps[t - 1][3] if t else None
        if t and not np.array_equal(np.matmul(h_prev, nn.gate_major(cell.wh)), blocks(h_prev @ cell.wh.T)):
            differ.append(f"recurrent product of step {t}")
    _, gh = critic.head.backward(cache_h, gq[:, None])
    grads, gxs = nn.lstm_unroll_backward(cell, steps, gh)
    h, want_grads, want_gxs, want_gzs = batch_major_lstm(cell, xs, gh)
    if not np.array_equal(q, critic.head.forward(h)[0][:, 0]):
        differ.append("q after the unroll")
    for name, got, want in zip(("wx", "wh", "bias"), grads, want_grads):
        if not np.array_equal(got, want):
            differ.append(f"the {name} gradient")
    if not np.array_equal(gxs, want_gxs):
        differ.append("gz @ wx, the input gradients")
    gz, _ = cell.pre_activation_grad(steps[-1], gh, None)
    assert gz.shape == (32, 256) and gz.flags.c_contiguous  # the layout gz @ wx keeps its bits on
    if not np.array_equal(gz, want_gzs[-1]):
        differ.append("the last step's gz")
    if not np.array_equal(critic.action_grad(cache, gq), want_gxs[-1][:, 64:]):
        differ.append("the action gradient")
    here = update_golden.versions()
    assert not differ, (f"window and per-step products differ ({', '.join(differ)}) "
                        f"with numpy {here['numpy']} and {here['blas']}")


def test_lstm_critic_forward_leaves_one_window_array_and_peaks_no_higher():
    # at batch 32 and window 8, one forward leaves exactly one live array of
    # steps * batch * 4h * 8 B or more: the window array, which is also the
    # cache. Its traced peak stays within the batch-major unroll's, which
    # read 1,466,176 B (1,400,120 B retained) on the same measurement.
    critic = nn.build_lstm_critic(29, hidden=64, rng=1)
    rng = np.random.default_rng(2)
    s_win, a_win = rng.normal(size=(32, 8, 29)), rng.uniform(size=(32, 8, 3))
    critic.forward(s_win, a_win)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q, cache = critic.forward(s_win, a_win)  # held while the snapshot is taken
        peak = tracemalloc.get_traced_memory()[1] - base
        large = [t.size for t in tracemalloc.take_snapshot().traces if t.size >= 8 * 32 * 256 * 8]
    finally:
        tracemalloc.stop()
    assert large == [8 * 32 * 256 * 8]
    assert peak <= 1_466_176


@pytest.mark.parametrize("build", [
    lambda rng: nn.build_actor(6, hidden=(5, 4), rng=rng),
    lambda rng: nn.build_critic(7, hidden=6, rng=rng),
    lambda rng: nn.build_lstm_critic(5, hidden=4, rng=rng),
], ids=["actor", "critic", "lstm_critic"])
def test_network_copy_owns_a_fresh_vector(build):
    net = build(np.random.default_rng(29))
    clone = net.copy()
    assert type(clone) is type(net)
    assert clone.flat.tobytes() == net.flat.tobytes()
    assert not np.shares_memory(clone.flat, net.flat)
    # the clone's parameters tile its own vector in the same order and shapes
    start = 0
    for p, q in zip(clone.parameters(), net.parameters(), strict=True):
        assert p.shape == q.shape and p.flags.c_contiguous
        assert p.base is clone.flat and p.__array_interface__["data"][0] == \
            clone.flat.__array_interface__["data"][0] + 8 * start
        start += p.size
    assert start == clone.flat.size
    clone.flat += 1.0
    assert net.flat.tobytes() == build(np.random.default_rng(29)).flat.tobytes()


@pytest.mark.parametrize("header, message", [
    ({"format": "racerl-checkpoint", "version": 3},
     "{path}: unsupported checkpoint version 3; this racerl reads version 2"),
    ({"format": "racerl-checkpoint", "version": 1},
     "{path}: unsupported checkpoint version 1; version 1 agent checkpoints stored only the "
     "agent's config; this racerl reads version 2"),
    ({"format": "other", "version": 2}, "{path} is not a racerl-checkpoint file"),
], ids=["version", "version_1", "format"])
def test_load_arrays_errors_name_the_file(tmp_path, header, message):
    path = tmp_path / "ckpt.npz"
    raw = json.dumps(header).encode()
    np.savez(path, __meta__=np.frombuffer(raw, dtype=np.uint8), w0=np.zeros(2))
    with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
        nn.load_arrays(path)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    arrays = {
        "w0": rng.normal(size=(4, 3)),
        "b0": rng.normal(size=4),
        "step": np.array([17], dtype=np.int64),
    }
    path = tmp_path / "ckpt.npz"
    nn.save_arrays(path, {"kind": "test", "note": "roundtrip"}, arrays)
    meta, loaded = nn.load_arrays(path)
    assert meta["kind"] == "test"
    assert meta["version"] == nn.CHECKPOINT_VERSION
    assert set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == arrays[k].dtype
        npt.assert_array_equal(loaded[k], arrays[k])
        # bit-exact, not merely close
        assert loaded[k].tobytes() == arrays[k].tobytes()
