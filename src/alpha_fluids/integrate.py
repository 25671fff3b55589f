"""The one classical RK4 step and the one fixed-step loop of every integrator.

Stage i is y + h k at t + h (h = dt/2, dt/2, dt), and the step is y + (dt/6) (2 k2
+ k1 + 2 k3 + k4) summed left to right in place: this one order fixes every artifact's bits.
"""


def rk4(f, t: float, y, dt: float, k1=None):
    """One step of dy/dt = f(t, y) on an array y; pass k1 = f(t, y) if already known.
    f returns a fresh array shaped like y; neither y nor any slope is written."""
    if k1 is None:
        k1 = f(t, y)

    def stage(h: float, k):
        s = k * h
        s += y
        return f(t + h, s)

    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    acc = k2 * 2.0
    acc += k1
    acc += k3 * 2.0
    acc += k4
    acc *= dt / 6.0
    acc += y
    return acc


def march(step, state, dt: float, T: float, on_step=None):
    """state after N = round(|T / dt|) calls (at least one) of step(state, dt), calling
    on_step(n, state) after call n = 1..N; T is a duration, and the sign of dt the direction."""
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    for n in range(1, max(1, round(abs(T / dt))) + 1):
        state = step(state, dt)
        if on_step is not None:
            on_step(n, state)
    return state
