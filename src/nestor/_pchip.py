"""Monotone piecewise-cubic Hermite interpolation (PCHIP) in numpy, with the
node slopes SciPy's PchipInterpolator sets (Fritsch & Carlson, SIAM J.
Numer. Anal. 17, 1980): the weighted harmonic mean of the two adjacent
secants inside (0 where they differ in sign or either is 0), a
shape-preserving three-point rule at the ends, the secant for two nodes."""

import numpy as np


def _end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


class Pchip:
    """PCHIP through (x, y), x increasing: value, slope and the integral
    from x[0].  Points past the end nodes take the end cubics."""

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if y.size > 2:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            # a zero secant divides by zero below; np.where drops those (flat) nodes
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0,
                                   1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        # on [x_i, x_i+1] the cubic is ((c3 s + c2) s + c1) s + c0, s = t - x_i
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self.c3, self.c2, self.c1, self.c0 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
        piece = h * (self.c0 + h * (self.c1 / 2 + h * (self.c2 / 3 + h * self.c3 / 4)))
        self.cum = np.concatenate([[0.0], np.cumsum(piece)])

    def _locate(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        return i, t - self.x[i]

    def __call__(self, t):
        i, s = self._locate(t)
        return ((self.c3[i] * s + self.c2[i]) * s + self.c1[i]) * s + self.c0[i]

    def slope(self, t):
        i, s = self._locate(t)
        return (3 * self.c3[i] * s + 2 * self.c2[i]) * s + self.c1[i]

    def value_and_slope(self, t):
        """Both from one interval lookup."""
        i, s = self._locate(t)
        c3, c2, c1 = self.c3[i], self.c2[i], self.c1[i]
        return ((c3 * s + c2) * s + c1) * s + self.c0[i], (3 * c3 * s + 2 * c2) * s + c1

    def integral(self, t):
        i, s = self._locate(t)
        return self.cum[i] + s * (self.c0[i] + s * (
            self.c1[i] / 2 + s * (self.c2[i] / 3 + s * self.c3[i] / 4)))
