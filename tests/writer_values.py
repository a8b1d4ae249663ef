"""Adversarial float64 values for the CSV writer, whose every field must be
exactly ``'%.17g' % v``.

``families(rng, n)`` draws ``n`` values of each family:

* ``ties``: exact 18-significant-digit ties, m * 2^-j with m odd and j in
  3..25, whose decimal expansion ends in a 5 at the 18th digit, such as
  (2^52 + 1) / 8 = 562949953421312.125;
* ``below`` and ``above``: the two float neighbours of each tie;
* ``near_ties``: values whose digits scaled by 10^(16 - X) * 2^7 leave a
  fraction in 60-67/128, at every decade X from -12 to 17, both edges of the
  exact-power range (X = -11/-12 and 16/17) included;
* ``extremes``: 3-digit exponents, subnormals and signed zeros.

Every value takes a random sign.  Run as a script, it sends ``--count``
seeded values through ``scenario._format_rows`` in 4,096-value blocks and
compares every byte with ``'%.17g' % v``::

    PYTHONPATH=src python tests/writer_values.py --count 1000000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from spinpair import scenario

TIE_SHIFTS = np.arange(3, 26)
NEAR_TIE_EXPONENTS = np.arange(-12, 18)


def _tie_mantissas():
    """For each j in ``TIE_SHIFTS``, the first odd m and the count of odd m
    with m * 2^-j in [10^(17 - j), 10^(18 - j)) and m < 2^53."""
    first, count = [], []
    for j in TIE_SHIFTS.tolist():
        # ceil(2^j * 10^(17 - j)) and ceil(2^j * 10^(18 - j)), capped at 2^53
        lo, hi = (-(-(2 ** j * 10 ** 17) // 10 ** j),
                  min(-(-(2 ** j * 10 ** 18) // 10 ** j), 2 ** 53))
        first.append(lo | 1)
        count.append((hi - (lo | 1) + 1) // 2)
    return np.array(first, np.int64), np.array(count, np.int64)


_TIE_FIRST, _TIE_COUNT = _tie_mantissas()


def exact_ties(rng, n):
    """``n`` floats whose exact decimal expansion has 18 significant digits,
    the last a 5: a 17-digit rounding of each is a tie."""
    row = rng.integers(0, len(TIE_SHIFTS), n)
    mantissa = _TIE_FIRST[row] + 2 * rng.integers(0, _TIE_COUNT[row])
    return np.ldexp(mantissa.astype(float), -TIE_SHIFTS[row])


def near_ties(rng, n):
    """``n`` floats whose 17-digit fraction is in 60-67/128, at decades drawn
    from ``NEAR_TIE_EXPONENTS``.

    Candidates are kept when the writer's own extended product puts their
    fraction in 61-66/128 (62-65 where its power is rounded): that product
    is within 0.5/128 (1.2/128) of the truth, so the kept fraction lies in
    60-67.  Without a 64-bit extended type no candidate is filtered.
    """
    powers = scenario._csv_tables()["powers"]
    kept = []
    while sum(len(chunk) for chunk in kept) < n:
        exponent = rng.choice(NEAR_TIE_EXPONENTS, 24 * n)
        digits = rng.uniform(1e16, 1e17, 24 * n)
        values = digits * 10.0 ** (exponent - 16)
        if powers is not None:
            scaled = (values.astype(np.longdouble) * powers[exponent]).astype(np.uint64)
            fraction = (scaled & np.uint64(127)).astype(np.intp)
            exact = (exponent >= -11) & (exponent <= 16)
            # in its decade (digits in [10^16, 10^17)) and in the band
            values = values[(scaled >= np.uint64(10 ** 16 << 7))
                            & (scaled < np.uint64(10 ** 17 << 7))
                            & (np.abs(2 * fraction - 127) <= np.where(exact, 5, 3))]
        kept.append(values)
    return np.concatenate(kept)[:n]


def extremes(rng, n):
    """``n`` floats with 3-digit exponents, subnormals and zeros."""
    large = 10.0 ** rng.uniform(100, 308.25, n)
    small = 10.0 ** rng.uniform(-307.5, -100, n)
    subnormal = rng.integers(1, 1 << 52, n).view(np.float64)
    zero = np.zeros(n)
    return rng.permuted(np.concatenate([large, small, subnormal, zero]))[:n]


def families(rng, n) -> dict:
    """``n`` values of each family, each with a random sign."""
    ties = exact_ties(rng, n)
    out = {"ties": ties, "below": np.nextafter(ties, -np.inf),
           "above": np.nextafter(ties, np.inf), "near_ties": near_ties(rng, n),
           "extremes": extremes(rng, n)}
    return {name: np.where(rng.random(n) < 0.5, -values, values)
            for name, values in out.items()}


def per_value(rows) -> bytes:
    """The CSV lines of ``rows`` formatted one ``'%.17g' % v`` at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in rows.tolist()).encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    block, width = scenario._CSV_BLOCK, 16
    start, checked = time.perf_counter(), 0
    while checked < args.count:
        values = np.concatenate(list(families(rng, block // 5 + 1).values()))
        rows = rng.permuted(values)[:block].reshape(-1, width)
        got, want = scenario._format_rows(rows), per_value(rows)
        if got != want:
            for line, expected in zip(got.decode().split("\n"), want.decode().split("\n")):
                if line != expected:
                    print(f"mismatch: {line!r} != {expected!r}", file=sys.stderr)
                    return 1
        checked += rows.size
    print(f"{checked} values byte-identical to '%.17g' in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
