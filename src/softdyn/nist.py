"""Statistical randomness test battery in the SP 800-22 style.

Fifteen tests over a 0/1 bit array, each returning a `TestResult` with
one or more p-values; a test passes when every p-value clears the
significance level.  Tests whose length or composition preconditions are
not met report themselves as not applicable instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import special
from scipy import stats as sp_stats

__all__ = [
    "TestResult",
    "frequency_monobit",
    "block_frequency",
    "runs_test",
    "longest_run_of_ones",
    "binary_matrix_rank",
    "dft_spectral_test",
    "non_overlapping_template",
    "overlapping_template",
    "universal_statistical",
    "linear_complexity",
    "serial_test",
    "approximate_entropy",
    "cumulative_sums",
    "random_excursions",
    "random_excursions_variant",
    "run_battery",
    "battery_report",
]

ALPHA = 0.01


@dataclass(frozen=True)
class TestResult:
    name: str
    p_values: tuple
    passed: bool
    applicable: bool
    bits_used: int
    params: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "p_values": list(self.p_values),
            "pass": self.passed,
            "applicable": self.applicable,
            "bits_used": self.bits_used,
            "params": self.params,
            "note": self.note,
        }


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if len(arr) and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("input must be an array of 0/1 bits")
    return arr


def _result(name, p_values, n, alpha, params=None, note=""):
    p_values = tuple(float(p) for p in p_values)
    if not all(np.isfinite(p) and 0.0 <= p <= 1.0 for p in p_values):
        raise ValueError(f"{name}: non-finite p-value")
    return TestResult(name=name, p_values=p_values,
                      passed=bool(p_values) and min(p_values) >= alpha,
                      applicable=True, bits_used=n,
                      params=params or {}, note=note)


def _not_applicable(name, n, reason, params=None):
    return TestResult(name=name, p_values=(), passed=False, applicable=False,
                      bits_used=n, params=params or {}, note=reason)


# ---------------------------------------------------------------------------
# 1. frequency (monobit)

def frequency_monobit(bits, alpha: float = ALPHA) -> TestResult:
    """Proportion of ones versus the expected one half."""
    bits = _as_bits(bits)
    n = len(bits)
    if n < 100:
        return _not_applicable("frequency_monobit", n, "requires n >= 100")
    s_obs = abs(np.sum(2 * bits - 1)) / math.sqrt(n)
    p = special.erfc(s_obs / math.sqrt(2))
    return _result("frequency_monobit", [p], n, alpha)


# ---------------------------------------------------------------------------
# 2. block frequency

def block_frequency(bits, block_size: int = 128, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    params = {"block_size": block_size}
    if n < 100 or n < block_size:
        return _not_applicable("block_frequency", n, "requires n >= 100", params)
    n_blocks = n // block_size
    pi = bits[:n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * np.sum((pi - 0.5) ** 2)
    p = special.gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _result("block_frequency", [p], n, alpha, params)


# ---------------------------------------------------------------------------
# 3. runs

def runs_test(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    if n < 100:
        return _not_applicable("runs", n, "requires n >= 100")
    pi = bits.mean()
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return _not_applicable("runs", n, "monobit precondition failed")
    v_obs = 1 + int(np.sum(bits[1:] != bits[:-1]))
    num = abs(v_obs - 2.0 * n * pi * (1 - pi))
    p = special.erfc(num / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)))
    return _result("runs", [p], n, alpha)


# ---------------------------------------------------------------------------
# 4. longest run of ones in a block

_LONGEST_RUN_TABLES = (
    # (min_n, M, categories v, probabilities)
    (128, 8, (1, 2, 3, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    (6272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (750000, 10000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
)


def _longest_run_lengths(block: np.ndarray) -> int:
    if not block.any():
        return 0
    padded = np.concatenate([[0], block, [0]])
    edges = np.flatnonzero(np.diff(padded))
    return int((edges[1::2] - edges[::2]).max())


def longest_run_of_ones(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    if n < 128:
        return _not_applicable("longest_run_of_ones", n, "requires n >= 128")
    for min_n, block_size, cats, pis in reversed(_LONGEST_RUN_TABLES):
        if n >= min_n:
            break
    n_blocks = n // block_size
    blocks = bits[:n_blocks * block_size].reshape(n_blocks, block_size)
    longest = np.array([_longest_run_lengths(b) for b in blocks])
    counts = np.zeros(len(cats), dtype=float)
    clipped = np.clip(longest, cats[0], cats[-1])
    for i, c in enumerate(cats):
        counts[i] = np.sum(clipped == c)
    expected = n_blocks * np.asarray(pis)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = special.gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0)
    return _result("longest_run_of_ones", [p], n, alpha,
                   {"block_size": block_size, "n_blocks": n_blocks})


# ---------------------------------------------------------------------------
# 5. binary matrix rank

def _gf2_ranks(matrices: np.ndarray) -> np.ndarray:
    """Ranks over GF(2) of a stack of 0/1 matrices, eliminated all at once.

    Each row is packed into an integer, bit c holding column c.  Per column,
    every matrix takes its first row with that bit set as the pivot and XORs
    it into every row with the bit set, the pivot itself included, so a used
    pivot drops out as zero.  The rank is the number of pivots found.
    """
    n_mats, _, n_cols = matrices.shape
    rows = matrices @ (1 << np.arange(n_cols)).astype(np.int64)
    mats = np.arange(n_mats)
    rank = np.zeros(n_mats, dtype=np.int64)
    for col in range(n_cols):
        has = (rows >> col) & 1 == 1
        rows ^= np.where(has, rows[mats, has.argmax(axis=1)][:, None], 0)
        rank += has.any(axis=1)
    return rank


def binary_matrix_rank(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    m = 32
    n_mats = n // (m * m)
    if n_mats < 38:
        return _not_applicable("binary_matrix_rank", n,
                               "requires at least 38 32x32 matrices")
    ranks = _gf2_ranks(bits[:n_mats * m * m].reshape(n_mats, m, m))
    # probabilities of rank m, m-1 and anything lower for a random
    # m x m matrix over GF(2)
    def p_rank(r):
        val = 2.0 ** (r * (2 * m - r) - m * m)
        for i in range(r):
            val *= (1 - 2.0 ** (i - m)) ** 2 / (1 - 2.0 ** (i - r))
        return val

    p_full, p_minus1 = p_rank(m), p_rank(m - 1)
    probs = np.array([p_full, p_minus1, 1 - p_full - p_minus1])
    counts = np.array([np.sum(ranks == m), np.sum(ranks == m - 1),
                       np.sum(ranks < m - 1)], dtype=float)
    expected = n_mats * probs
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = math.exp(-chi2 / 2.0)
    return _result("binary_matrix_rank", [p], n, alpha, {"n_matrices": n_mats})


# ---------------------------------------------------------------------------
# 6. discrete Fourier transform (spectral)

def dft_spectral_test(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    if n < 1000:
        raise ValueError("dft_spectral_test requires n >= 1000")
    x = 2.0 * bits - 1.0
    mags = np.abs(sp_fft.rfft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = float(np.sum(mags < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    p = special.erfc(abs(d) / math.sqrt(2))
    return _result("dft_spectral", [p], n, alpha)


# ---------------------------------------------------------------------------
# 7. non-overlapping template matching

def _template_hits(blocks: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Non-overlapping occurrences of the template in each row of blocks.

    Windows are coded as integers to find every match; a match counts only
    if it starts past the end of the last counted one.
    """
    m = len(template)
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    codes = np.lib.stride_tricks.sliding_window_view(blocks, m, axis=1) @ weights
    hits = np.zeros(len(blocks), dtype=np.int64)
    for j, row in enumerate(codes == template @ weights):
        count, free_from = 0, 0
        for i in np.flatnonzero(row).tolist():
            if i >= free_from:
                count += 1
                free_from = i + m
        hits[j] = count
    return hits


def non_overlapping_template(bits, template=(0, 0, 0, 0, 0, 0, 0, 0, 1),
                             n_blocks: int = 8, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    tmpl = _as_bits(template)
    m = len(tmpl)
    if not 1 <= m <= 63:
        raise ValueError("the template must hold 1 to 63 bits")  # int64 window codes
    n = len(bits)
    block_size = n // n_blocks
    params = {"template": "".join(map(str, tmpl)), "n_blocks": n_blocks}
    if block_size < m + 1 or n < 100:
        return _not_applicable("non_overlapping_template", n,
                               "blocks shorter than the template", params)
    mean = (block_size - m + 1) / 2.0 ** m
    var = block_size * (1.0 / 2.0 ** m - (2.0 * m - 1) / 2.0 ** (2 * m))
    blocks = bits[:n_blocks * block_size].reshape(n_blocks, block_size)
    counts = _template_hits(blocks, tmpl).astype(float)
    chi2 = float(np.sum((counts - mean) ** 2 / var))
    p = special.gammaincc(n_blocks / 2.0, chi2 / 2.0)
    return _result("non_overlapping_template", [p], n, alpha, params)


# ---------------------------------------------------------------------------
# 8. overlapping template matching

_OVERLAPPING_PIS = (0.364091, 0.185659, 0.139381, 0.100571, 0.070432, 0.139865)


def overlapping_template(bits, template_length: int = 9,
                         block_size: int = 1032, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    m = template_length
    n_blocks = n // block_size
    params = {"template_length": m, "block_size": block_size}
    if n_blocks < 1 or n_blocks * min(_OVERLAPPING_PIS) < 5:
        return _not_applicable("overlapping_template", n,
                               "too few blocks for the chi-square approximation",
                               params)
    blocks = bits[:n_blocks * block_size].reshape(n_blocks, block_size)
    # overlapping matches of the all-ones template per block
    window = np.lib.stride_tricks.sliding_window_view(blocks, m, axis=1)
    matches = window.all(axis=2).sum(axis=1)
    counts = np.bincount(np.clip(matches, 0, 5), minlength=6).astype(float)
    expected = n_blocks * np.asarray(_OVERLAPPING_PIS)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = special.gammaincc(5 / 2.0, chi2 / 2.0)
    params["nu"] = [int(c) for c in counts]
    return _result("overlapping_template", [p], n, alpha, params)


# ---------------------------------------------------------------------------
# 9. Maurer's universal statistical test

_UNIVERSAL_TABLE = {
    6: (5.2177052, 2.954), 7: (6.1962507, 3.125), 8: (7.1836656, 3.238),
    9: (8.1764248, 3.311), 10: (9.1723243, 3.356), 11: (10.170032, 3.384),
    12: (11.168765, 3.401), 13: (12.168070, 3.410), 14: (13.167693, 3.416),
    15: (14.167488, 3.419), 16: (15.167379, 3.421),
}


def universal_statistical(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    # standard length schedule from the test's reference table
    thresholds = (387840, 904960, 2068480, 4654080, 10342400, 22753280,
                  49643520, 107560960, 231669760, 496435200, 1059061760)
    block_len = 0
    for L, min_n in zip(range(6, 17), thresholds):
        if n >= min_n:
            block_len = L
    if block_len == 0:
        return _not_applicable("universal_statistical", n,
                               "requires n >= 387840")
    L = block_len
    q_blocks = 10 * (1 << L)
    n_total = n // L
    k_blocks = n_total - q_blocks
    vals = (bits[:n_total * L].reshape(n_total, L)
            @ (1 << np.arange(L - 1, -1, -1)).astype(np.int64))
    # previous-occurrence distance per block via stable grouping
    order = np.argsort(vals, kind="stable")
    sorted_vals = vals[order]
    prev = np.zeros(n_total, dtype=np.int64)  # 0 = never seen (1-indexed)
    same = sorted_vals[1:] == sorted_vals[:-1]
    prev[order[1:][same]] = order[:-1][same] + 1
    idx = np.arange(q_blocks, n_total)
    distances = (idx + 1) - prev[idx]
    fn = float(np.sum(np.log2(distances)) / k_blocks)
    expected, variance = _UNIVERSAL_TABLE[L]
    c = 0.7 - 0.8 / L + (4 + 32.0 / L) * k_blocks ** (-3.0 / L) / 15.0
    sigma = c * math.sqrt(variance / k_blocks)
    p = special.erfc(abs(fn - expected) / (math.sqrt(2) * sigma))
    return _result("universal_statistical", [p], n, alpha,
                   {"L": L, "Q": q_blocks, "K": k_blocks, "fn": fn})


# ---------------------------------------------------------------------------
# 10. linear complexity

_LC_PIS = (0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833)


def _shift_in(register: np.ndarray, low) -> None:
    """Shift every column's multi-word register left one bit, low into bit 0."""
    register[1:] = (register[1:] << 1) | (register[:-1] >> 63)
    register[0] = (register[0] << 1) | low


def _berlekamp_massey_lengths(blocks: np.ndarray) -> np.ndarray:
    """Linear complexity (shortest LFSR length) of each row of a 0/1 array.

    Berlekamp-Massey runs on every row at once.  The connection polynomial
    c, the previous one b and the reversed sequence (bit i holds s_{pos-i})
    are registers of uint64 words, one column per row, bit i of word w
    holding coefficient 64 w + i.  Only coefficients below the block length
    meet the sequence, so the words hold every bit that matters.  b is kept
    shifted left by the number of steps since the length last changed.
    """
    n_rows, n_bits = blocks.shape
    c = np.zeros((-(-n_bits // 64), n_rows), dtype=np.uint64)
    c[0] = 1
    b_shifted = c.copy()
    rev = np.zeros_like(c)
    length = np.zeros(n_rows, dtype=np.int64)
    for pos in range(n_bits):
        _shift_in(rev, blocks[:, pos].astype(np.uint64))
        _shift_in(b_shifted, 0)
        odd = np.bitwise_count(np.bitwise_xor.reduce(c & rev)) & 1 == 1
        grow = odd & (2 * length <= pos)
        update = np.where(odd, b_shifted, 0)
        b_shifted = np.where(grow, c, b_shifted)
        c ^= update
        length = np.where(grow, pos + 1 - length, length)
    return length


def linear_complexity(bits, block_size: int = 500, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    n_blocks = n // block_size
    params = {"block_size": block_size}
    if n_blocks < 200:
        return _not_applicable("linear_complexity", n,
                               "requires at least 200 blocks", params)
    m = block_size
    mu = (m / 2.0 + (9.0 + (-1.0) ** (m + 1)) / 36.0
          - (m / 3.0 + 2.0 / 9.0) / 2.0 ** m)
    sign = 1.0 if m % 2 == 0 else -1.0
    lengths = _berlekamp_massey_lengths(bits[:n_blocks * m].reshape(n_blocks, m))
    t = sign * (lengths - mu) + 2.0 / 9.0
    category = np.where(t <= -2.5, 0, np.minimum(np.floor(t + 2.5) + 1, 6))
    counts = np.bincount(category.astype(np.int64), minlength=7).astype(float)
    expected = n_blocks * np.asarray(_LC_PIS)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = special.gammaincc(3.0, chi2 / 2.0)
    params["nu"] = [int(c) for c in counts]
    return _result("linear_complexity", [p], n, alpha, params)


# ---------------------------------------------------------------------------
# 11/12. serial and approximate entropy share window counting

def _window_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Occurrences of each m-bit pattern over the overlapping m-windows with wraparound."""
    ext = np.concatenate([bits, bits[:m - 1]]) if m > 1 else bits
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    codes = np.lib.stride_tricks.sliding_window_view(ext, m) @ weights
    return np.bincount(codes, minlength=1 << m)


def _psi_sq(bits: np.ndarray, m: int) -> float:
    """Psi-square statistic over overlapping m-windows with wraparound."""
    if m == 0:
        return 0.0
    n = len(bits)
    return float((1 << m) / n * np.sum(_window_counts(bits, m).astype(float) ** 2) - n)


def serial_test(bits, pattern_length: int = 5, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    m = pattern_length
    params = {"pattern_length": m}
    if m < 2 or n < (1 << (m + 2)):
        return _not_applicable("serial", n, "pattern too long for n", params)
    psi_m = _psi_sq(bits, m)
    psi_m1 = _psi_sq(bits, m - 1)
    psi_m2 = _psi_sq(bits, m - 2)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = special.gammaincc(2 ** (m - 2), d1 / 2.0)
    p2 = special.gammaincc(2 ** (m - 3), d2 / 2.0)
    return _result("serial", [p1, p2], n, alpha, params)


def approximate_entropy(bits, pattern_length: int = 2, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    m = pattern_length
    params = {"pattern_length": m}
    if n < 100 or n < (1 << (m + 3)):
        return _not_applicable("approximate_entropy", n, "pattern too long", params)

    def phi(mm):
        counts = _window_counts(bits, mm).astype(float)
        nz = counts[counts > 0]
        return float(np.sum(nz / n * np.log(nz / n)))

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    p = special.gammaincc(2 ** (m - 1), chi2 / 2.0)
    return _result("approximate_entropy", [p], n, alpha, params)


# ---------------------------------------------------------------------------
# 13. cumulative sums

def _cusum_p(z: float, n: int) -> float:
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    term1 = np.sum(sp_stats.norm.cdf((4 * k1 + 1) * z / sqrt_n)
                   - sp_stats.norm.cdf((4 * k1 - 1) * z / sqrt_n))
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    term2 = np.sum(sp_stats.norm.cdf((4 * k2 + 3) * z / sqrt_n)
                   - sp_stats.norm.cdf((4 * k2 + 1) * z / sqrt_n))
    return float(1.0 - term1 + term2)


def cumulative_sums(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    if n < 100:
        return _not_applicable("cumulative_sums", n, "requires n >= 100")
    x = 2 * bits - 1
    z_fwd = float(np.abs(np.cumsum(x)).max())
    z_rev = float(np.abs(np.cumsum(x[::-1])).max())
    p_fwd = min(max(_cusum_p(z_fwd, n), 0.0), 1.0)
    p_rev = min(max(_cusum_p(z_rev, n), 0.0), 1.0)
    return _result("cumulative_sums", [p_fwd, p_rev], n, alpha)


# ---------------------------------------------------------------------------
# 14/15. random excursions

def _walk(bits: np.ndarray) -> np.ndarray:
    """The +-1 random walk of the bits, with a 0 added at each end."""
    return np.concatenate([[0], np.cumsum(2 * bits - 1), [0]])


def _excursion_visits(walk: np.ndarray) -> np.ndarray:
    """Visits to the states -4..-1, 1..4 in each zero-to-zero cycle of the walk."""
    near = np.abs(walk) <= 4
    zeros_seen = (walk == 0).astype(np.int64)
    np.cumsum(zeros_seen, out=zeros_seen)  # cycle k holds zeros_seen == k + 1
    n_cycles = int(zeros_seen[-1]) - 1  # the closing zero starts no cycle
    visits = np.bincount((zeros_seen[near] - 1) * 9 + walk[near] + 4,
                         minlength=(n_cycles + 1) * 9)
    return visits.reshape(n_cycles + 1, 9)[:n_cycles, [0, 1, 2, 3, 5, 6, 7, 8]]


def random_excursions(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    visit_counts = _excursion_visits(_walk(bits))
    j = len(visit_counts)
    params = {"n_cycles": j}
    if j < 500:
        return _not_applicable("random_excursions", n,
                               "fewer than 500 zero-crossing cycles", params)
    states = [-4, -3, -2, -1, 1, 2, 3, 4]
    p_values = []
    for si, x in enumerate(states):
        ax = abs(x)
        pi0 = 1.0 - 1.0 / (2.0 * ax)
        pis = [pi0]
        for k in range(1, 5):
            pis.append(1.0 / (4.0 * ax * ax) * (1 - 1.0 / (2.0 * ax)) ** (k - 1))
        pis.append(1.0 / (2.0 * ax) * (1 - 1.0 / (2.0 * ax)) ** 4)
        counts = np.bincount(np.clip(visit_counts[:, si], 0, 5), minlength=6)
        expected = j * np.asarray(pis)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        p_values.append(special.gammaincc(5 / 2.0, chi2 / 2.0))
    return _result("random_excursions", p_values, n, alpha, params)


def random_excursions_variant(bits, alpha: float = ALPHA) -> TestResult:
    bits = _as_bits(bits)
    n = len(bits)
    s = _walk(bits)
    j = int(np.sum(s[1:] == 0))
    params = {"n_cycles": j}
    if j < 500:
        return _not_applicable("random_excursions_variant", n,
                               "fewer than 500 zero-crossing cycles", params)
    p_values = []
    for x in [v for v in range(-9, 10) if v != 0]:
        xi = float(np.sum(s == x))
        p_values.append(special.erfc(abs(xi - j)
                                     / math.sqrt(2.0 * j * (4.0 * abs(x) - 2.0))))
    return _result("random_excursions_variant", p_values, n, alpha, params)


# ---------------------------------------------------------------------------
# battery

_BATTERY = (
    frequency_monobit,
    block_frequency,
    runs_test,
    longest_run_of_ones,
    binary_matrix_rank,
    dft_spectral_test,
    non_overlapping_template,
    overlapping_template,
    universal_statistical,
    linear_complexity,
    serial_test,
    approximate_entropy,
    cumulative_sums,
    random_excursions,
    random_excursions_variant,
)


def run_battery(bits, alpha: float = ALPHA) -> list:
    """Run every battery test; per-test preconditions decide applicability."""
    bits = _as_bits(bits)
    results = []
    for test in _BATTERY:
        try:
            results.append(test(bits, alpha=alpha))
        except ValueError as exc:
            results.append(_not_applicable(test.__name__, len(bits), str(exc)))
    return results


def battery_report(results) -> dict:
    """Summarize battery results."""
    applicable = [r for r in results if r.applicable]
    passed = [r for r in applicable if r.passed]
    return {
        "summary": {"applicable": len(applicable), "passed": len(passed)},
        "results": [r.to_dict() for r in results],
    }
