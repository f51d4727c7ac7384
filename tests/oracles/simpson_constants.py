#!/usr/bin/env python3
"""Composite-Simpson oracle for the kernel-integral constant pipeline.

Every kernel closed form and every integral below is typed out afresh as a
plain lambda, with no imports from the package under test. A dense composite
Simpson rule (about 1e6 points per unit-length integral) puts the quadrature
error far below 1e-12, so the printed values serve as frozen cross-checks for
the Gauss-Legendre rule and the constant pipeline.

Run:  python tests/oracles/simpson_constants.py
"""

import numpy as np

PI = np.pi

IOTA2 = 0.94977 - 1.38995j
IOTA3 = -1.00635 - 0.22789j
IOTA4 = -0.68738 + 1.60688j


def simpson(f, a, b, n=1_000_000):
    z = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * n) * np.sum(w * f(z))


# Oscillatory kernel pairs; second index 6/7 selects the exponential rate.
E6 = lambda z: np.exp(1.5j * PI * z)
E7 = lambda z: np.exp(2.5j * PI * z)

f16 = lambda z: (1 + 0.5j * PI * z) * E6(z)
g16 = lambda z: 8 / 3 + (-5 / 3 - 0.5j * PI * z) / E6(z)
f26 = lambda z: (1 - 0.5j * PI * z) * E6(z)
g26 = lambda z: 4 / 3 + (-1 / 3 + 0.5j * PI * z) / E6(z)
f36 = lambda z: (1 - 1.5j * PI * z) * E6(z)
g36 = lambda z: 8 / 9 + (1 / 9 + (PI / 6) * 1j * z) / E6(z)

f17 = lambda z: (1 + 1.5j * PI * z) * E7(z)
g17 = lambda z: 24 / 25 + (1 / 25 + 0.1j * PI * z) / E7(z)
f27 = lambda z: (1 + 0.5j * PI * z) * E7(z)
g27 = lambda z: 12 / 25 + (13 / 25 + 0.3j * PI * z) / E7(z)
f37 = lambda z: (1 - 0.5j * PI * z) * E7(z)
g37 = lambda z: 8 / 25 + (17 / 25 - 0.3j * PI * z) / E7(z)

F6 = {1: f16, 2: f26, 3: f36}
G6 = {1: g16, 2: g26, 3: g36}
F7 = {1: f17, 2: f27, 3: f37}
G7 = {1: g17, 2: g27, 3: g37}

# Quadratic drift polynomials entering the d-constants and the quadratic form.
y1 = {
    1: lambda z: 5j * PI * (z - 0.5) - 3 * PI**2 * ((0.504 - z) ** 2 - 2 * (0.502 - z) ** 2),
    2: lambda z: 4j * PI * (z - 0.5) - 1.5 * PI**2 * ((0.504 - z) ** 2 - 2 * (0.502 - z) ** 2),
    3: lambda z: 3j * PI * (z - 0.5) - PI**2 * ((0.504 - z) ** 2 - 2 * (0.502 - z) ** 2),
}
y2 = {
    1: lambda z: 5j * PI * (0.504 - z) - 3 * PI**2 * (0.504 - z) ** 2,
    2: lambda z: 4j * PI * (0.504 - z) - 1.5 * PI**2 * (0.504 - z) ** 2,
    3: lambda z: 3j * PI * (0.504 - z) - PI**2 * (0.504 - z) ** 2,
}

W = {1: 0.5, 2: 2.0, 3: 1.5}          # weighted combination coefficients
CJ = {1: 6.0, 2: 3.0, 3: 2.0}         # 11 - 6j + j^2
SIGMA = {1: 5.0, 2: 4.0, 3: 3.0}      # wrapped-index coefficient sums


def triple(fmap, gmap, f_shift=0.0, g_shift=0.0):
    return lambda z: (
        0.5 * fmap[1](z + f_shift) * gmap[1](z + g_shift)
        + 2.0 * fmap[2](z + f_shift) * gmap[2](z + g_shift)
        + 1.5 * fmap[3](z + f_shift) * gmap[3](z + g_shift)
    )


def b_matrix():
    b = {}
    b["b11"] = simpson(triple(F6, G6), 0, 0.504) / (0.504**2 * PI)
    b["b22"] = simpson(triple(F7, G7), 0, 0.5) / (0.5**2 * PI)
    # The fast-rate exponential in the cross term advances by the short
    # cutoff gap 0.002; as a scalar that is exp(0.005j*pi).
    b["b21"] = (
        np.exp(0.005j * PI)
        * simpson(triple(F7, G6, g_shift=0.004), 0, 0.5)
        / (0.504 * 0.5 * PI)
    )
    b["b12"] = simpson(triple(F6, G7, f_shift=0.004), 0, 0.5) / (0.504 * 0.5 * PI)
    b["b33"] = simpson(triple(F6, G6), 0, 0.498) / (0.498**2 * PI)
    b["b34"] = simpson(triple(F7, G6, f_shift=0.002), 0, 0.498) / (0.498 * 0.5 * PI)
    b["b43"] = simpson(triple(F6, G7, g_shift=0.002), 0, 0.498) / (0.498 * 0.5 * PI)
    b["b44"] = b["b22"]
    return b


def c_matrix(b):
    c = {}
    c["c11"] = b["b11"] + np.conj(b["b11"])
    c["c22"] = b["b22"] + np.conj(b["b22"])
    c["c12"] = b["b12"] + np.conj(b["b21"])
    c["c21"] = np.conj(c["c12"])
    c["c33"] = b["b33"] + np.conj(b["b33"])
    c["c34"] = b["b34"] + np.conj(b["b43"])
    c["c43"] = np.conj(c["c34"])
    c["c44"] = c["c22"]
    return c


def d_constants():
    d = {}
    for j in (1, 2, 3):
        fj6, gj6, fj7, gj7 = F6[j], G6[j], F7[j], G7[j]
        d[f"d3_{j}"] = (
            -(CJ[j] * PI / 500)
            * simpson(lambda z: fj6(0.004 + z) / 0.504 + IOTA2 * fj7(z) / 0.5, 0, 0.5)
            + (500 / (0.504 * PI)) * simpson(lambda z: fj6(z) - fj6(0.002 + z), 0, 0.002, n=20_000)
            + (500 / (0.504 * PI))
            * (
                simpson(lambda z: fj6(0.504 - z) * y1[j](z), 0.5, 0.502, n=20_000)
                + simpson(lambda z: fj6(0.504 - z) * y2[j](z), 0.502, 0.504, n=20_000)
            )
        )
        d[f"d4_{j}"] = (500 / (0.504 * PI)) * simpson(
            lambda z: gj6(z) - gj6(0.002 + z), 0, 0.002, n=20_000
        ) - (500j * j / 0.504) * simpson(
            lambda z: gj6(0.002 + z) * (0.002 - z) + gj6(z) * z, 0, 0.002, n=20_000
        )
        d[f"d5p_{j}"] = -(500 * IOTA3 / (0.498 * PI)) * simpson(gj6, 0, 0.002, n=20_000)
        d[f"d5_{j}"] = (
            (1000 * IOTA4 / PI) * simpson(lambda z: gj7(z) - gj7(0.002 + z), 0, 0.002, n=20_000)
            - (500j * j * IOTA3 / 0.498) * simpson(lambda z: (0.002 - z) * gj6(z), 0, 0.002, n=20_000)
            - 1000j * j * IOTA4
            * simpson(lambda z: (0.002 - z) * gj7(0.002 + z) + z * gj7(z), 0, 0.002, n=20_000)
        )
        d[f"d6p_{j}"] = -(500 * np.conj(IOTA3) / (0.498 * PI)) * simpson(fj6, 0, 0.002, n=20_000)
        d[f"d6_{j}"] = (
            -(CJ[j] * PI / 500)
            * simpson(
                lambda z: np.conj(IOTA3) * fj6(0.002 + z) / 0.498
                + np.conj(IOTA4) * fj7(0.004 + z) / 0.5,
                0,
                0.496,
            )
            + (1000 * np.conj(IOTA4) / PI)
            * simpson(lambda z: fj7(z) - fj7(0.002 + z), 0, 0.002, n=20_000)
            + (500 / PI)
            * simpson(
                lambda z: (np.conj(IOTA3) * fj6(z) / 0.498 + np.conj(IOTA4) * fj7(0.002 + z) / 0.5)
                * y1[j](0.502 - z),
                0,
                0.002,
                n=20_000,
            )
            + (1000 * np.conj(IOTA4) / PI)
            * simpson(lambda z: fj7(z) * y2[j](0.504 - z), 0, 0.002, n=20_000)
        )
    d["frak_d_prime"] = sum(W[j] * (d[f"d5p_{j}"] + np.conj(d[f"d6p_{j}"])) for j in (1, 2, 3))
    d["frak_d"] = sum(
        W[j] * (d[f"d3_{j}"] + d[f"d5_{j}"] + np.conj(d[f"d4_{j}"] + d[f"d6_{j}"]))
        for j in (1, 2, 3)
    )
    return d


def e_constants():
    e = {}
    for j in (1, 2, 3):
        e[f"e2_{j}"] = (1 - 2 * j / 5 + 8 * j / (25j * PI)) * np.exp(1.25j * PI) - 8 * j / (25j * PI)
        e[f"e3_{j}"] = (1 - 2 * j / 3 + j / (1.1205j * PI)) * np.exp(0.747j * PI) - j / (1.1205j * PI)
        e[f"e1p_{j}"] = (1 - 2 * j / 3 + j / (1.134j * PI)) * np.exp(0.756j * PI) - j / (1.134j * PI)
        e[f"e1pp_{j}"] = (j / 0.756) * simpson(
            lambda z: np.exp(1.5j * PI * (0.004 - z)) - np.exp(0.006j * PI), 0, 0.004, n=20_000
        )
        right = np.conj(IOTA3) * e[f"e3_{j}"] + np.conj(IOTA4) * e[f"e2_{j}"]
        e[f"frak_ep_{j}"] = (e[f"e1p_{j}"] + IOTA2 * e[f"e2_{j}"]) * right
        e[f"frak_epp_{j}"] = e[f"e1pp_{j}"] * right
        e[f"frak_e_{j}"] = e[f"frak_ep_{j}"] - e[f"frak_epp_{j}"]
    e["frak_e0"] = (np.exp(0.756j * PI) + IOTA2 * np.exp(1.25j * PI)) * (
        np.conj(IOTA3) * np.exp(0.747j * PI) + np.conj(IOTA4) * np.exp(1.25j * PI)
    )
    e["b_star"] = simpson(lambda z: z * np.exp(1.5j * PI * z), 0, 0.004, n=20_000) / 0.504
    for j in (1, 2, 3):
        fj6, fj7 = F6[j], F7[j]
        e[f"e_star_1{j}"] = simpson(
            lambda z: np.conj(IOTA3) * fj6(0.498 - z) / 0.498
            + np.conj(IOTA4) * fj7(0.5 - z) / 0.5,
            0,
            0.496,
        )
    e["e1_star"] = -PI * e["b_star"] * (3 * e["e_star_11"] + 6 * e["e_star_12"] + 3 * e["e_star_13"])
    e["e2_star"] = (4 / (0.504 * PI)) * (
        -0.002 * np.conj(IOTA3) / 0.498 - 0.008 * np.conj(IOTA4) - 2j * PI * np.conj(IOTA4) / 250**2
    )
    return e


def section12_checks():
    out = {}
    for j in (1, 2, 3):
        fj6, fj7 = F6[j], F7[j]
        w = lambda z: -1 + (-3j * PI + 1j * PI * SIGMA[j]) * (z - 0.496)
        out[f"w6_{j}"] = simpson(lambda z: fj6(0.498 - z) * w(z), 0.496, 0.498, n=20_000)
        out[f"w7_{j}"] = simpson(lambda z: fj7(0.5 - z) * w(z), 0.496, 0.5, n=40_000)
    return out


def j1_limit():
    total = 0.0
    for j in (1, 2, 3):
        inner = simpson(
            lambda z: (-1 - 1j * PI * j * (z - 0.5)) * (-1 + y1[j](z)), 0.5, 0.502, n=20_000
        ) + simpson(
            lambda z: (1 - 1j * PI * j * (0.504 - z)) * (1 + y2[j](z)), 0.502, 0.504, n=20_000
        )
        total += W[j] * inner
    return (500**2 / PI) * total


def main():
    np.set_printoptions(precision=17)
    single = simpson(lambda z: f16(z) * g16(z), 0, 0.504)
    print("single_f16g16 =", repr(complex(single)))

    b = b_matrix()
    c = c_matrix(b)
    d = d_constants()
    e = e_constants()
    s12 = section12_checks()

    frak_c1 = (
        c["c11"] + IOTA2 * c["c21"] + np.conj(IOTA2) * c["c12"] + abs(IOTA2) ** 2 * c["c22"]
    )
    frak_c2 = (
        abs(IOTA3) ** 2 * c["c33"]
        + IOTA3 * np.conj(IOTA4) * c["c34"]
        + IOTA4 * np.conj(IOTA3) * c["c43"]
        + abs(IOTA4) ** 2 * c["c44"]
    )
    frak_c3 = -1j * (
        3 * e["frak_ep_1"] + 3 * e["frak_ep_2"] + e["frak_ep_3"] + e["frak_e0"]
    ) + 2 * e["e2_star"]
    cancel = 1j * (3 * e["frak_epp_1"] + 3 * e["frak_epp_2"] + e["frak_epp_3"]) + e["e1_star"]
    chain = frak_c1.real + frak_c2.real + 2 * frak_c3.real
    jbound = j1_limit()

    for name, val in [*b.items(), *c.items()]:
        print(f"{name} = {complex(val)!r}")
    print(f"frak_c1 = {complex(frak_c1)!r}")
    print(f"frak_c2 = {complex(frak_c2)!r}")
    for name, val in [*d.items(), *e.items(), *s12.items()]:
        print(f"{name} = {complex(val)!r}")
    print(f"frak_c3 = {complex(frak_c3)!r}")
    print(f"cancellation = {complex(cancel)!r}")
    print(f"chain c1+c2+2Re(c3) = {chain!r}")
    print(f"j1_limit = {complex(jbound)!r}")


if __name__ == "__main__":
    main()
