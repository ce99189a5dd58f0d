"""Shared builders for the test suite: instance universe and oracles."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

import modtrace as mt
from modtrace import catalog, files
from modtrace.chars import snap_components
from modtrace.common import negligible

PHI = (1.0 + math.sqrt(5.0)) / 2.0
ROOT2 = math.sqrt(2.0)

# the catalogue's named rings; a parametrised family such as ``zn:<n>`` is listed with its ``<n>``
NAMED_RINGS = tuple(name for name in catalog.BUILTIN_RINGS if "<n>" not in name)


def saved_text_reference(data) -> str:
    """The text a ``save_*`` writes for ``data`` in its ``tolist()`` form, by ``json.dumps``."""
    return json.dumps(files.round12_tree(data), separators=(", ", ": ")) + "\n"


def ring_families(max_zn: int = 10):
    """(name, ring, chars, base_modules) for the builtin universe.

    Base modules are the indecomposable generators: the regular module for
    the named rings, and one coset module per subgroup for the cyclic group
    rings (the trivial subgroup gives the regular module).
    """
    families = []
    for name in NAMED_RINGS:
        ring, chars = mt.builtin(name)
        families.append((name, ring, chars, [("regular", mt.regular_module(ring))]))
    for n in range(1, max_zn + 1):
        table = mt.cyclic_table(n)
        ring, chars = mt.builtin(f"zn:{n}")
        base = [
            (f"H{idx}", mt.vect_g_module(table, sub))
            for idx, sub in enumerate(mt.subgroups(table))
        ]
        families.append((f"zn:{n}", ring, chars, base))
    return families


def instance_universe(max_zn: int = 10, with_sums: bool = True):
    """Yield (label, ring, char, rep) over builtin rings, enumerated characters
    and {subgroup / regular / direct-sum} modules."""
    for name, ring, chars, base in ring_families(max_zn):
        modules = list(base)
        if with_sums:
            for i in range(len(base)):
                for j in range(i, len(base)):
                    modules.append(
                        (
                            f"{base[i][0]}+{base[j][0]}",
                            mt.direct_sum(base[i][1], base[j][1]),
                        )
                    )
        for ci, char in enumerate(chars):
            for mlabel, rep in modules:
                yield f"{name}/char{ci}/{mlabel}", ring, char, rep


def allocation_peak(build) -> int:
    """Bytes that ``build()`` allocated at its peak, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def dimension_matrix_reference(char, rep) -> np.ndarray:
    """``Q = sum_u d(u) M_u`` as one ``einsum``, summed in the order of ``u``."""
    return np.einsum("u,ujk->jk", char.d, rep.M)


def q_structural_residuals(q: np.ndarray, dim_c: float) -> tuple[float, float]:
    """``max |Q - Q^dagger|`` and ``max |Q^2 - dim(C) Q|``."""
    return float(np.abs(q - q.conj().T).max()), float(np.abs(q @ q - dim_c * q).max())


@dataclass(frozen=True)
class QPropertyReport:
    """Residuals of the structural identities of a dimension matrix."""

    residual_square: float  #: max |Q^2 - dim(C) Q|
    residual_hermitian: float  #: max |Q - Q^dagger|
    eigen_deviation: float  #: max over eigenvalues of min(|lam|, |lam - dim(C)|)
    passed: bool  #: every residual negligible at its scale


def q_property_report(q: np.ndarray, dim_c: float) -> QPropertyReport:
    """Oracle for the identities a dimension matrix satisfies: ``Q^2 = dim(C) Q``
    (at scale ``max|Q|**2``), hermiticity and the 0/dim(C) spectrum (at ``max|Q|``)."""
    s = float(np.max(np.abs(q)))
    residual_hermitian, residual_square = q_structural_residuals(q, dim_c)
    eigs = np.linalg.eigvalsh((q + q.conj().T) / 2.0)
    eigen_deviation = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - dim_c))))
    passed = (
        negligible(residual_square, s * s)
        and negligible(residual_hermitian, s)
        and negligible(eigen_deviation, s)
    )
    return QPropertyReport(residual_square, residual_hermitian, eigen_deviation, passed)


#: Bound of :func:`fp_module_trace` on each Perron eigenvector residual, relative to
#: ``max(1, FPdim(u))``; the oracle's own, apart from :func:`~modtrace.common.negligible`.
FP_TRACE_TOL = 1e-8


def fp_module_trace(rep) -> np.ndarray:
    """Oracle: the canonical positive trace vector of an indecomposable NIM-rep.

    Returns the Perron vector ``w`` of ``sum_u M_u``, normalised to
    ``sum w_i^2 = sum_a FPdim(a)^2``; it satisfies
    ``M_u.T @ w = FPdim(u) w`` for every ``u`` and coincides with the solver's
    trace vector for the Frobenius-Perron character.
    """
    if not mt.is_indecomposable(rep):
        raise mt.UnsupportedError("canonical trace needs an indecomposable module")
    fp = mt.fp_dimensions(rep.ring)
    _, w = mt.perron_vector(rep.action_sum().astype(float))
    w = w * np.sqrt(float(fp @ fp))
    for u in range(rep.ring.rank):
        resid = np.max(np.abs(rep.M[u].T @ w - fp[u] * w))
        if resid > FP_TRACE_TOL * max(1.0, fp[u]):
            raise mt.NumericError(
                f"action matrix {u} violates the Perron eigenvector relation ({resid:.2e})"
            )
    return w


def trace_exists_bruteforce(Q: np.ndarray, dim_c: float, tol: float = 1e-7) -> bool:
    """Independent existence test: search the dim(C)-eigenspace of Q for a
    nowhere-zero vector.

    A subspace contains a vector with no zero coordinate iff no coordinate
    functional vanishes on all of it (a generic combination then works), so it
    suffices to check that every row of an orthonormal eigenspace basis is
    nonzero.  Uses a dense hermitian eigendecomposition; no minors, no rank.
    """
    herm = (Q + Q.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    keep = np.abs(vals - dim_c) <= tol * max(1.0, abs(dim_c))
    basis = vecs[:, keep]
    if basis.shape[1] == 0:
        return False
    support = np.linalg.norm(basis, axis=1)
    return bool(np.min(support) > tol)


def abelian_tables_up_to(max_order: int = 12):
    """One table per isomorphism class of abelian groups of order <= max_order."""
    partitions = {
        1: [(1,)],
        2: [(2,)],
        3: [(3,)],
        4: [(4,), (2, 2)],
        5: [(5,)],
        6: [(6,)],
        7: [(7,)],
        8: [(8,), (4, 2), (2, 2, 2)],
        9: [(9,), (3, 3)],
        10: [(10,)],
        11: [(11,)],
        12: [(12,), (6, 2)],
        13: [(13,)],
        14: [(14,)],
        15: [(15,)],
        16: [(16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)],
        17: [(17,)],
        18: [(18,), (6, 3)],
        19: [(19,)],
        20: [(20,), (10, 2)],
        21: [(21,)],
        22: [(22,)],
        23: [(23,)],
        24: [(24,), (12, 2), (6, 2, 2)],
    }
    tables = []
    for order in range(1, max_order + 1):
        for factors in partitions[order]:
            table = mt.cyclic_table(factors[0])
            for n in factors[1:]:
                table = mt.direct_product(table, mt.cyclic_table(n))
            tables.append(("x".join(f"Z{n}" for n in factors), table))
    return tables


def _partitions(k: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = k if largest is None else largest
    if k == 0:
        return [()]
    return [(p,) + rest for p in range(min(k, largest), 0, -1) for rest in _partitions(k - p, p)]


def sweep_tables() -> list[tuple[str, mt.GroupTable]]:
    """The 41 groups of the benchmark's catalog sweep, built as it builds them from
    :func:`modtrace.builtin_group` and :func:`modtrace.direct_product`: each abelian group of
    order <= 24 as a product of cyclic groups of prime-power order, ascending, then S3 x Z_n
    for n <= 4."""
    products = []
    for order in range(1, 25):
        per_prime, rest, p = [], order, 2
        while rest > 1:
            e = 0
            while rest % p == 0:
                rest, e = rest // p, e + 1
            if e:
                per_prime.append([[p**part for part in parts] for parts in _partitions(e)])
            p += 1
        for combo in itertools.product(*per_prime):
            products.append([f"Z:{f}" for f in sorted(f for part in combo for f in part) or [1]])
    products += [["S3"]] + [["S3", f"Z:{n}"] for n in (2, 3, 4)]
    tables = []
    for names in products:
        table = mt.builtin_group(names[0])
        for name in names[1:]:
            table = mt.direct_product(table, mt.builtin_group(name))
        tables.append(("x".join(name.replace(":", "") for name in names), table))
    return tables


def fibonacci_broken():
    """Fibonacci ring with one structure constant bumped; breaks associativity."""
    ring = mt.builtin("fibonacci")[0]
    N = ring.N.copy()
    N[1, 1, 1] = 2
    return mt.FusionRing(2, ring.labels, 0, ring.dual.copy(), N)


def max_minor_bruteforce(Q: np.ndarray) -> float:
    """Largest absolute 2x2 minor of ``Q`` over all row and column pairs.

    Builds the full k^4 tensor of pair products, so it is only an oracle for
    the solver's O(k^2) pivoted rank test on small matrices.
    """
    k = Q.shape[0]
    pair_products = np.einsum("ij,pq->ipjq", Q, Q)
    minors = pair_products - pair_products.transpose(0, 1, 3, 2)
    upper = np.triu_indices(k, 1)
    if not upper[0].size:
        return 0.0
    sub = minors[upper[0], upper[1]][:, upper[0], upper[1]]
    return float(np.max(np.abs(sub)))


def diagnostics_bruteforce(Q: np.ndarray, tol: float = mt.DEFAULT_TOL) -> tuple[str, ...]:
    """The solver's diagnostics, with the rank test decided by all 2x2 minors.

    A residual counts as zero when at most ``tol * max(1, scale)``; the minors
    are quadratic in ``Q``, so their scale is ``max|Q|**2``.
    """
    s = float(np.max(np.abs(Q)))
    out = []
    if not max_minor_bruteforce(Q) <= tol * max(1.0, s * s):
        out.append("rank exceeds 1")
    if float(np.min(np.abs(Q))) <= tol * max(1.0, s):
        out.append("zero entry in Q")
    if np.max(np.diag(Q).real) <= tol * max(1.0, s):
        out.append("zero diagonal")
    return tuple(out)


def _collect_full(mask, axiom, lhs, rhs, out):
    for idx in zip(*np.nonzero(mask)):
        out.append(mt.Violation(axiom, tuple(int(i) for i in idx), int(lhs[idx]), int(rhs[idx])))


def fusion_violations_reference(ring) -> list:
    """``validate_fusion_ring`` with associativity compared as two full n^4 tensors.

    An oracle for the chunked validator on small rings only.
    """
    n, N, dual, unit = ring.rank, ring.N, ring.dual, ring.unit
    viols = []
    eye = np.eye(n, dtype=np.int64)
    _collect_full(N[unit] != eye, "unit_left", N[unit], eye, viols)
    _collect_full(N[:, unit, :] != eye, "unit_right", N[:, unit, :], eye, viols)
    invol = dual[dual]
    ids = np.arange(n)
    _collect_full(invol != ids, "dual_involution", invol, ids, viols)
    if dual[unit] != unit:
        viols.append(mt.Violation("dual_unit", (unit,), int(dual[unit]), unit))
    pairing = N[:, :, unit]
    expected = np.zeros((n, n), dtype=np.int64)
    expected[ids, dual] = 1
    _collect_full(pairing != expected, "dual_pairing", pairing, expected, viols)
    recip1 = N[dual].transpose(0, 2, 1)
    _collect_full(N != recip1, "frobenius_reciprocity", N, recip1, viols)
    recip2 = N[:, dual, :].transpose(2, 1, 0)
    _collect_full(N != recip2, "frobenius_reciprocity", N, recip2, viols)
    lhs = np.einsum("abe,ecd->abcd", N, N)
    rhs = np.einsum("bcf,afd->abcd", N, N)
    _collect_full(lhs != rhs, "associativity", lhs, rhs, viols)
    return viols


def nimrep_violations_reference(rep) -> list:
    """``validate_nimrep`` with composition checked per ``(u, v)`` pair and
    duality per ``u``, entry by entry."""
    ring, M, k = rep.ring, rep.M, rep.module_rank
    n = ring.rank
    viols = []
    eye = np.eye(k, dtype=np.int64)
    for j, i in zip(*np.nonzero(M[ring.unit] != eye)):
        viols.append(mt.Violation("unit", (int(j), int(i)), int(M[ring.unit, j, i]), int(eye[j, i])))
    for u in range(n):
        for v in range(n):
            lhs = M[u] @ M[v]
            rhs = np.einsum("w,wji->ji", ring.N[u, v], M)
            for j, i in zip(*np.nonzero(lhs != rhs)):
                viols.append(
                    mt.Violation("composition", (u, v, int(j), int(i)), int(lhs[j, i]), int(rhs[j, i]))
                )
    for u in range(n):
        for j, i in zip(*np.nonzero(M[ring.dual[u]] != M[u].T)):
            viols.append(
                mt.Violation("duality", (u, int(j), int(i)), int(M[ring.dual[u], j, i]), int(M[u, i, j]))
            )
    column_weight = rep.action_sum().sum(axis=0)
    for i in np.nonzero(column_weight == 0)[0]:
        viols.append(mt.Violation("action", (int(i),), 0, "positive column sum"))
    return viols


def typed_violations(viols) -> list:
    """Violations with the type of every index and side made explicit, since
    ``1 == 1.0`` would hide a changed type."""
    return [
        (v.axiom, [(type(i), i) for i in v.index], type(v.lhs), v.lhs, type(v.rhs), v.rhs)
        for v in viols
    ]


def span_reference(table, generators) -> tuple[int, ...]:
    """The subgroup generated by ``generators``, by breadth-first words in them."""
    elems = {table.identity}
    frontier = [table.identity]
    gens = sorted({int(x) for x in generators})
    while frontier:
        new = []
        for a in frontier:
            for x in gens:
                b = int(table.mul[a, x])
                if b not in elems:
                    elems.add(b)
                    new.append(b)
        frontier = new
    return tuple(sorted(elems))


def subgroups_reference(table) -> list[tuple[int, ...]]:
    """All subgroups, extending every subgroup by every element outside it."""
    trivial = (table.identity,)
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for sub in frontier:
            for x in range(table.order):
                if x in sub:
                    continue
                bigger = span_reference(table, set(sub) | {x})
                if bigger not in found:
                    found.add(bigger)
                    new.append(bigger)
        frontier = new
    return sorted(found, key=lambda s: (len(s), s))


def coset_matrices_reference(table, H) -> np.ndarray:
    """``M`` of the coset module of ``H``, built coset by coset and entry by entry."""
    elems = {int(x) for x in H}
    g = table.order
    coset_of = {}
    coset_reps = []
    for a in range(g):
        if a in coset_of:
            continue
        members = sorted(int(table.mul[a, h]) for h in elems)
        coset_of.update((mbr, len(coset_reps)) for mbr in members)
        coset_reps.append(members[0])
    k = len(coset_reps)
    M = np.zeros((g, k, k), dtype=np.int64)
    for x in range(g):
        for i, a in enumerate(coset_reps):
            M[x, coset_of[int(table.mul[x, a])], i] = 1
    return M


def sort_key_reference(d) -> tuple:
    """The ordering key as ``(re, im)`` pairs rounded to 9 decimals, entry by
    entry; orders and compares exactly like the rows of ``chars._sort_keys``."""
    return tuple((round(z.real, 9), round(z.imag, 9)) for z in np.asarray(d, dtype=complex).tolist())


def _polish_reference(ring, d) -> np.ndarray:
    """Damped Gauss-Newton refinement of a near-character on the ``a <= b``
    multiplicativity system, with the unit entry pinned to 1."""
    n, unit = ring.rank, ring.unit
    if n == 1:
        return np.array([1.0 + 0.0j])
    free = np.arange(n) != unit
    a, b = np.triu_indices(n)
    rows, pair_N = np.arange(a.size), ring.N[a, b].astype(complex)
    d = np.array(d, dtype=complex)
    d[unit] = 1.0
    for _ in range(16):
        res = d[a] * d[b] - pair_N @ d
        if np.max(np.abs(res)) < 1e-14:
            break
        # row (a, b), column c: d[b] delta(c, a) + d[a] delta(c, b) - N[a, b, c]
        jac = np.zeros_like(pair_N)
        jac[rows, a] += d[b]
        jac[rows, b] += d[a]
        jac -= pair_N
        step, *_ = np.linalg.lstsq(jac[:, free], -res, rcond=None)
        if np.max(np.abs(step)) > 0.5:
            break
        d[free] += step
    return d


def enumerate_characters_reference(ring) -> list:
    """Character enumeration by a general eigensolver and per-character polish.

    A real-weighted ``sum_a w_a N_a`` is diagonalised by ``np.linalg.eig``,
    ``chi(a) = (N_a v)_k / v_k`` is read at the largest component of each
    eigenvector with one matrix-vector product per ``a``, and every character
    is refined by :func:`_polish_reference`.  Independent of the hermitian
    eigendecomposition and Rayleigh quotients of ``enumerate_characters``.
    """
    n = ring.rank
    mats = [m.astype(float) for m in mt.fusion_matrices(ring)]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(n)
        m = sum(w * mat for w, mat in zip(weights, mats))
        vals, vecs = np.linalg.eig(m)
        spread = max(1.0, float(np.max(np.abs(vals))))
        pairwise = np.abs(vals[:, None] - vals[None, :])
        pairwise[np.diag_indices(n)] = np.inf
        if n > 1 and np.min(pairwise) < 1e-8 * spread:
            continue
        chars = []
        for i in range(n):
            v = vecs[:, i]
            k = int(np.argmax(np.abs(v)))
            chi = np.array([(mat @ v)[k] / v[k] for mat in mats])
            chars.append(snap_components(_polish_reference(ring, chi)))
        if len({sort_key_reference(c) for c in chars}) != n:
            continue
        kept = [mt.DimChar(ring, c) for c in chars]
        kept = [ch for ch in kept if mt.validate_dim_char(ch).valid]
        kept.sort(key=lambda ch: sort_key_reference(ch.d), reverse=True)
        return kept
    raise mt.NumericError("degenerate eigenproblem")


def group_characters_reference(table) -> list:
    """Linear characters of an abelian group on the exponent chain, element by
    element with lists and dicts, and each value its own ``np.exp``."""
    g, mul = table.order, table.mul
    ring = mt.group_ring(table)
    covered = [table.identity]
    position = {table.identity: 0}
    chars = [[0]]  # exponent of each character on `covered`
    for x in range(g):
        if x in position:
            continue
        r, power = 1, x
        while power not in position:
            power = mul[power, x]
            r += 1
        anchor = position[power]  # x^r sits at this covered position
        new_covered = list(covered)
        new_position = dict(position)
        offsets = []  # (covered index of a, exponent step t) for each new element a*x^t
        for t in range(1, r):
            for a_idx, a in enumerate(covered):
                elem = a
                for _ in range(t):
                    elem = mul[elem, x]
                new_position[elem] = len(new_covered)
                new_covered.append(elem)
                offsets.append((a_idx, t))
        extended = []
        for exps in chars:
            c = exps[anchor]
            assert c % r == 0
            for j in range(r):
                dexp = (c // r + j * (g // r)) % g
                new_exps = list(exps)
                for a_idx, t in offsets:
                    new_exps.append((exps[a_idx] + t * dexp) % g)
                extended.append(new_exps)
        covered, position, chars = new_covered, new_position, extended
    result = []
    for exps in chars:
        values = np.empty(g, dtype=complex)
        for pos, elem in enumerate(covered):
            values[elem] = np.exp(2j * np.pi * exps[pos] / g)
        result.append(mt.DimChar(ring, snap_components(values)))
    result.sort(key=lambda ch: sort_key_reference(ch.d), reverse=True)
    return result


def su2_ring(k: int):
    """The SU(2)_k fusion ring: simples ``j = 0..k`` under the truncated
    Clebsch-Gordan rule ``|i - j| <= l <= min(i + j, 2k - i - j)``, ``i + j + l``
    even; every simple is self-dual."""
    j = np.arange(k + 1)
    i, jj, ll = np.meshgrid(j, j, j, indexing="ij")
    N = (
        (np.abs(i - jj) <= ll)
        & (ll <= np.minimum(i + jj, 2 * k - i - jj))
        & ((i + jj + ll) % 2 == 0)
    ).astype(np.int64)
    return mt.FusionRing(k + 1, tuple(str(x) for x in j), 0, j.copy(), N)


def su2_characters(k: int) -> list[np.ndarray]:
    """The nowhere-zero characters of SU(2)_k in closed form,
    ``d_m(j) = sin((j + 1) pi m / (k + 2)) / sin(pi m / (k + 2))`` for the
    ``m = 1..k+1`` coprime to ``k + 2`` (the others vanish somewhere)."""
    j = np.arange(k + 1)
    return [
        np.sin((j + 1) * np.pi * m / (k + 2)) / np.sin(np.pi * m / (k + 2)) + 0j
        for m in range(1, k + 2)
        if math.gcd(m, k + 2) == 1
    ]
