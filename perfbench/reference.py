"""Independent reference for the deep models of dsfnet.

Timing alone cannot tell a fast kernel from a wrong one, and the training
workloads' own outputs depend too much on the seed to be pinned. So every
run also checks the package's numerics against this module, which is
written apart from the package in plain numpy and knows only the models'
definitions and parameter names:

- the forward pass (logits) of ShallowNet and of the two front ends the
  workloads train, the DSF module with soft thresholding (``dsfm_st``)
  and dynamic interpolation (``dynamic``);
- the class-weighted cross-entropy and its gradient;
- one AdamW update;
- every parameter gradient of the package's backward pass, against
  central finite differences of its (checked) forward pass.

None of these depends on the seed or on the parameter values: they hold
for any inputs, so a wrong layer fails them whatever seed a run uses.
"""

import numpy as np

LOG_FLOOR = 1e-6  # ShallowNet's log(max(x, floor))
EIG_FLOOR = 1e-12  # eigenvalues at or below it have log 0

# Relative tolerances. Reordered float64 sums differ by ~1e-15; central
# differences with the step below agree with a correct gradient to ~1e-8.
FORWARD_RTOL = 1e-7
GRAD_RTOL = 1e-4
FD_STEP = 1e-6


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def shallownet_logits(p, X, cfg):
    """Temporal conv -> spatial conv -> square -> mean pool -> log floor ->
    dense, on (B, C, T); dropout is the identity at evaluation."""
    W, b = p["net.tconv.W"], p["net.tconv.b"]
    B, C, T = X.shape
    F, k = W.shape
    Tp = T - k + 1
    # Map c * F + f holds sum_j X[c, t + j] W[f, j] + b[f].
    conv = np.zeros((B, C, F, Tp))
    for j in range(k):
        conv += X[:, :, None, j:j + Tp] * W[None, None, :, j, None]
    conv = (conv + b[None, None, :, None]).reshape(B, C * F, Tp)
    spatial = (np.tensordot(conv, p["net.sconv.W"], axes=([1], [0]))
               + p["net.sconv.b"]).transpose(0, 2, 1)  # (B, S, Tp)
    power = spatial**2
    width, stride = cfg.pool_width, cfg.pool_stride
    starts = range(0, Tp - width + 1, stride)
    pooled = np.stack([power[..., s:s + width].mean(axis=-1)
                       for s in starts], axis=-1)
    feats = np.log(np.maximum(pooled, LOG_FLOOR)).reshape(B, -1)
    return feats @ p["net.out.W"] + p["net.out.b"]


def logm_cov_summary(X):
    """Upper triangle (row-major) of logm of the OAS-shrunk covariance of
    each (C, T) window of X."""
    out = []
    for x in X:
        C, T = x.shape
        xc = x - x.mean(axis=1, keepdims=True)
        S = xc @ xc.T / (T - 1)
        tr, tr2 = np.trace(S), np.sum(S * S)
        den = (T + 1.0 - 2.0 / C) * (tr2 - tr**2 / C)
        rho = 1.0 if den <= 0 else min(
            1.0, ((1.0 - 2.0 / C) * tr2 + tr**2) / den)
        S = (1.0 - rho) * S + rho * tr / C * np.eye(C)
        w, U = np.linalg.eigh(S)
        logw = np.where(w > EIG_FLOOR, np.log(np.maximum(w, EIG_FLOOR)), 0.0)
        out.append(((U * logw) @ U.T)[np.triu_indices(C)])
    return np.array(out)


def _mlp(p, prefix, phi):
    h = _sigmoid(phi @ p[f"{prefix}.fc1.W"] + p[f"{prefix}.fc1.b"])
    return h @ p[f"{prefix}.fc2.W"] + p[f"{prefix}.fc2.b"]


def dsf_st_front(p, X, tau):
    """Y_i = W_i X_i + b_i, with W_i soft-thresholded at tau."""
    B, C, _ = X.shape
    raw = _mlp(p, "dsf", logm_cov_summary(X))
    V = raw.shape[1] // (C + 1)
    W = raw[:, :V * C].reshape(B, V, C)
    W = np.sign(W) * np.maximum(np.abs(W) - tau, 0.0)
    return np.matmul(W, X) + raw[:, V * C:, None]


def dynamic_front(p, X):
    """Y = alpha X + (1 - alpha) W X per window, alpha the sigmoid of the
    diagonal of the MLP's C x C output and W its off-diagonal part."""
    B, C, _ = X.shape
    raw = _mlp(p, "interp", logm_cov_summary(X)).reshape(B, C, C)
    alpha = _sigmoid(np.diagonal(raw, axis1=1, axis2=2))[:, :, None]
    W = raw * (1.0 - np.eye(C))
    return alpha * X + (1.0 - alpha) * np.matmul(W, X)


def logits(model, X, tau):
    """Reference logits of a dsfnet DeepModel on the batch X."""
    p = {name: model.store[name].value for name in model.store.names()}
    if model.name == "dsfm_st":
        X = dsf_st_front(p, X, tau)
    elif model.name == "dynamic":
        X = dynamic_front(p, X)
    elif model.name != "vanilla":
        raise ValueError(f"no reference for model {model.name!r}")
    return shallownet_logits(p, X, model.net.cfg)


def softmax_xent(z, y, w):
    """Mean of -w_y log softmax(z)_y and its gradient."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    prob = e / e.sum(axis=1, keepdims=True)
    B = len(y)
    loss = -np.mean(w[y] * np.log(prob[np.arange(B), y]))
    onehot = np.eye(z.shape[1])[y]
    return loss, w[y][:, None] * (prob - onehot) / B


def adamw(value, grad, m, v, lr, cfg, t):
    """One AdamW update; returns the new value, m and v."""
    m = cfg.beta1 * m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1 - cfg.beta2) * grad * grad
    step = (m / (1 - cfg.beta1**t)) / (np.sqrt(v / (1 - cfg.beta2**t))
                                       + cfg.eps)
    return value - lr * (step + cfg.weight_decay * value), m, v


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)),
                                                   1e-300))


def check_deep_model(model, X, tau, rng):
    """Problems found in the package's forward and backward pass of model
    on the batch X; empty if it matches the reference."""
    problems = []
    err = _rel_err(model.forward(X), logits(model, X, tau))
    if not err <= FORWARD_RTOL:
        problems.append(f"{model.name} logits: relative error {err:.3g}")

    # Gradient of the linear functional sum(R * logits), per parameter,
    # along a random direction, against central differences.
    store = model.store
    R = rng.standard_normal(model.forward(X).shape)
    store.zero_grads()
    model.forward(X)
    model.backward(R)
    for name in store.names():
        p = store[name]
        direction = rng.standard_normal(p.value.shape)
        h = FD_STEP * max(1.0, float(np.sqrt(np.mean(p.value**2))))
        analytic = float(np.sum(p.grad * direction))
        saved = p.value.copy()
        p.value[...] = saved + h * direction
        up = float(np.sum(R * model.forward(X)))
        p.value[...] = saved - h * direction
        down = float(np.sum(R * model.forward(X)))
        p.value[...] = saved
        numeric = (up - down) / (2 * h)
        # Scale: the size the directional derivative would have if every
        # term of it had the same sign.
        scale = float(np.sum(np.abs(p.grad * direction)))
        if not abs(analytic - numeric) <= GRAD_RTOL * max(scale, 1e-12):
            problems.append(f"{model.name} gradient of {name}: "
                            f"{analytic!r} vs finite difference {numeric!r}")
    store.zero_grads()
    return problems


def check_loss_and_optimizer(nn, rng):
    """Problems found in nn.softmax_xent and nn.adamw_step; empty if they
    match the reference."""
    problems = []
    z = rng.standard_normal((16, 3)) * 4
    y = rng.integers(0, 3, 16)
    w = rng.uniform(0.5, 2.0, 3)
    loss, grad = nn.softmax_xent(z, y, w)
    ref_loss, ref_grad = softmax_xent(z, y, w)
    if not (_rel_err(loss, ref_loss) <= FORWARD_RTOL
            and _rel_err(grad, ref_grad) <= FORWARD_RTOL):
        problems.append("softmax_xent differs from the reference")

    cfg = nn.TrainConfig()
    store = nn.ParamStore()
    want = {}
    for name, shape in (("a", (4, 5)), ("b", (5,))):
        p = store.add(name, rng.standard_normal(shape))
        p.grad[...] = rng.standard_normal(shape)
        p.adam_m[...] = rng.standard_normal(shape) * 0.1
        p.adam_v[...] = rng.uniform(0.0, 0.1, shape)
        want[name] = adamw(p.value.copy(), p.grad, p.adam_m.copy(),
                           p.adam_v.copy(), 3e-3, cfg, 5)
    nn.adamw_step(store, 3e-3, cfg, 5)
    for name, (value, m, v) in want.items():
        p = store[name]
        if not all(_rel_err(got, ref) <= FORWARD_RTOL for got, ref in
                   ((p.value, value), (p.adam_m, m), (p.adam_v, v))):
            problems.append(f"adamw_step differs from the reference "
                            f"on parameter {name}")
    return problems
