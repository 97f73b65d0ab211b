"""The numeric core: exact gradients, Adam, and soft target updates.

Run:  python3 demos/05_gradients_from_scratch.py
"""

import numpy as np

from racerl import nn

rng = np.random.default_rng(3)

# a small critic and the gradient of Q wrt its action input; the critic
# reads (batch, w, features) windows, here one window of one step
critic = nn.build_critic(state_dim=8, hidden=16, rng=rng)
s = rng.normal(size=(1, 1, 8))
a = np.array([[[0.1, 0.7, 0.0]]])
q, cache = critic.forward(s, a)
ga = critic.action_grad(cache, np.ones(1))
print(f"Q(s,a) = {q[0]:+.4f}, grad_a Q = {np.array2string(ga[0], precision=4)}")

# central finite differences agree to ~1e-10 relative error
h = 1e-5
numeric = np.zeros(3)
for i in range(3):
    ap, am = a.copy(), a.copy()
    ap[0, -1, i] += h
    am[0, -1, i] -= h
    numeric[i] = (critic(s, ap)[0] - critic(s, am)[0]) / (2 * h)
print(f"finite differences:    {np.array2string(numeric, precision=4)}")

# Adam first step has magnitude ~ lr regardless of gradient scale
flat, params = nn.pack([np.array([0.0])])
opt = nn.Adam(params, lr=1e-3)
opt.step(flat, [np.array([123.456])])
print(f"\nAdam first step with a huge gradient: moved {params[0][0]:+.6f} (lr=1e-3)")

# soft updates contract the target toward the source geometrically
source = np.array([1.0])
target = np.array([0.0])
for k in range(1, 6):
    nn.soft_update(source, target, tau=0.5)
    print(f"after {k} soft updates (tau=0.5): target = {target[0]:.4f}")
