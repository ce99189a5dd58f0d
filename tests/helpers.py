"""Shared builders for the test suite: instance universe and oracles."""

from __future__ import annotations

import math

import numpy as np

import modtrace as mt
from modtrace.chars import snap_components

PHI = (1.0 + math.sqrt(5.0)) / 2.0
ROOT2 = math.sqrt(2.0)

NAMED_RINGS = ("fibonacci", "ising", "rep_s3")


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
    """The solver's diagnostics, with the rank test decided by all 2x2 minors."""
    bound = tol * max(1.0, float(np.max(np.abs(Q))))
    out = []
    if max_minor_bruteforce(Q) >= bound:
        out.append("rank exceeds 1")
    if float(np.min(np.abs(Q))) <= bound:
        out.append("zero entry in Q")
    if np.max(np.diag(Q).real) <= tol:
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
    entry; orders and compares exactly like the flat ``char_sort_key``."""
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
