"""Seeded property batteries behind the `verify` command.

Each suite replays a fixed list of randomized checks; instance i of a
battery draws from Random(seed * 10007 + i), so a (suite, seed) pair is
fully reproducible and two runs emit byte-identical reports.  The checks
mirror the invariants the library promises: algebraic axioms, dual
identities, product-code bounds and closures, negacyclic structure, and
quantum parameter hygiene.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .code import BudgetError, LinearCode
from .constructions import ConstructionError, rs_dual_containing
from .gf import field, primitive_root_of_unity, square_field
from .matrix import Matrix
from .negacyclic import (
    bch_bound,
    centered_defining_set,
    defining_set_from_residues,
    half_length_defining_set,
    negacyclic_code,
    negacyclic_shift,
)
from .product import (
    character_matrix,
    dual_containing_product,
    frr_distance_bound,
    is_nsc,
    matrix_product_code,
    nested_chain_product,
    product_distance_report,
    product_dual,
    row_prefix_code,
)
from .quantum import (
    QuantumParams,
    build_case,
    build_chain,
    hermitian_construction,
    singleton_check,
    table1_formula_audit,
)


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 10007 + index)


# ---------------------------------------------------------------------------
# samplers


def random_code(fld, n: int, k_rows: int, rng: random.Random) -> LinearCode:
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k_rows)]
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n))


def random_nonzero_code(fld, n: int, rng: random.Random) -> LinearCode:
    while True:
        c = random_code(fld, n, rng.randint(1, n), rng)
        if c.k >= 1:
            return c


def random_nonsingular(fld, s: int, rng: random.Random) -> Matrix:
    while True:
        A = Matrix(fld, [[rng.randrange(fld.order) for _ in range(s)] for _ in range(s)])
        if A.det() != 0:
            return A


def random_nsc_upper_triangular(fld, s: int, rng: random.Random) -> Matrix:
    while True:
        rows = [
            [0] * i + [rng.randrange(1, fld.order) for _ in range(s - i)] for i in range(s)
        ]
        A = Matrix(fld, rows, ncols=s)
        if is_nsc(A):
            return A


def _hermitian_form(fld, u: Sequence[int], v: Sequence[int]) -> int:
    add, mul = fld.tables.add, fld.tables.mul
    conj = fld.conj_table
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][conj[b]]]
    return acc


# random draws per added row before random_self_orthogonal_rows stops short
SELF_ORTHOGONAL_TRIES = 400


def random_self_orthogonal_rows(fld, n: int, dim: int, rng: random.Random):
    """Rows spanning a Hermitian self-orthogonal subspace of dimension <= dim."""
    add, mul = fld.tables.add, fld.tables.mul
    rows: list[list[int]] = []
    while len(rows) < dim:
        if rows:
            perp = Matrix(fld, rows, ncols=n).conjugate().nullspace()
            basis = [list(r) for r in perp.rows]
        else:
            basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        found = None
        for _ in range(SELF_ORTHOGONAL_TRIES):
            v = [0] * n
            for b in basis:
                c = rng.randrange(fld.order)
                if c:
                    m = mul[c]
                    v = [add[x][m[y]] for x, y in zip(v, b)]
            if all(x == 0 for x in v):
                continue
            if _hermitian_form(fld, v, v) != 0:
                continue
            stack = Matrix(fld, rows + [v], ncols=n)
            if stack.rank() == len(rows) + 1:
                found = v
                break
        if found is None:
            break
        rows.append(found)
    return rows


def random_dual_containing_code(fld, n: int, dim_hull: int, rng: random.Random) -> LinearCode:
    """B^perp_h for a random self-orthogonal B; always dual-containing."""
    rows = random_self_orthogonal_rows(fld, n, dim_hull, rng)
    if not rows:
        return LinearCode.full_space(fld, n)
    return LinearCode.from_generator(Matrix(fld, rows, ncols=n)).hermitian_dual()


def random_dual_containing_chain(fld, n: int, s: int, rng: random.Random) -> list[LinearCode]:
    """Ascending chain of dual-containing codes, via a descending chain of
    self-orthogonal hulls."""
    depth = min(n // 2, s)
    rows = random_self_orthogonal_rows(fld, n, depth, rng)
    chain = []
    for i in range(s):
        take = max(len(rows) - i, 0)
        if take == 0:
            chain.append(LinearCode.full_space(fld, n))
        else:
            B = LinearCode.from_generator(Matrix(fld, rows[:take], ncols=n))
            chain.append(B.hermitian_dual())
    return chain


def random_diagonal_condition_matrix(fld, rng: random.Random) -> Matrix:
    """Matrices with conj(A) A^T diagonal: monomial matrices, or character
    tables under row scalings and column permutations (both preserve it)."""
    if rng.random() < 0.5:
        s = rng.choice([2, 3])
        perm = list(range(s))
        rng.shuffle(perm)
        rows = [[0] * s for _ in range(s)]
        for i in range(s):
            rows[i][perm[i]] = rng.randrange(1, fld.order)
        return Matrix(fld, rows, ncols=s)
    r = rng.choice([1, 2])
    A = character_matrix(fld, r)
    s = A.nrows
    perm = list(range(s))
    rng.shuffle(perm)
    scales = [rng.randrange(1, fld.order) for _ in range(s)]
    mul = fld.tables.mul
    rows = [[mul[scales[i]][A.rows[i][perm[j]]] for j in range(s)] for i in range(s)]
    return Matrix(fld, rows, ncols=s)


# ---------------------------------------------------------------------------
# battery plumbing


class Battery:
    def __init__(self, suite: str, seed: int):
        self.suite = suite
        self.seed = seed
        self.checks: list[dict] = []

    def check(self, name: str, fn: Callable[[], str | None]):
        try:
            details = fn()
            self.checks.append({"name": name, "passed": True, "details": details or "ok"})
        except Exception as exc:  # noqa: BLE001 - failures become report entries
            self.checks.append(
                {"name": name, "passed": False, "details": f"{type(exc).__name__}: {exc}"}
            )

    def report(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": all(c["passed"] for c in self.checks),
            "checks": self.checks,
        }


def _assert(cond: bool, msg: str):
    if not cond:
        raise AssertionError(msg)


# ---------------------------------------------------------------------------
# suites


def suite_fields(seed: int) -> dict:
    b = Battery("fields", seed)

    def axioms():
        # the tables the kernel indexes; each sampled sum and product is also
        # taken in the packed form, which reads none of the exp/log lists
        count = 0
        for fp in [(3, 2), (5, 2), (7, 2), (3, 4)]:
            fld = field(*fp)
            add, mul, neg, inv = fld.tables
            pack, to_code = fld._pack, fld._to_code
            # Frobenius x -> x^p, by p table products
            frob = []
            for x in range(fld.order):
                v = 1
                for _ in range(fld.p):
                    v = mul[v][x]
                frob.append(v)
            rng = _rng(seed, fld.order)
            for _ in range(120):
                x, y, z = (rng.randrange(fld.order) for _ in range(3))
                _assert(add[x][add[y][z]] == add[add[x][y]][z], "add assoc")
                _assert(mul[x][mul[y][z]] == mul[mul[x][y]][z], "mul assoc")
                _assert(add[x][y] == add[y][x], "add comm")
                _assert(mul[x][y] == mul[y][x], "mul comm")
                _assert(mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]], "distributivity")
                _assert(frob[add[x][y]] == add[frob[x]][frob[y]], "frobenius additive")
                _assert(frob[mul[x][y]] == mul[frob[x]][frob[y]], "frobenius multiplicative")
                px, py = pack(x), pack(y)
                _assert(add[x][y] == fld._reduce(px + py) % to_code, "sum vs packed")
                _assert(mul[x][y] == fld._mul(px, py) % to_code, "product vs packed")
                count += 1
            for x in range(fld.order):
                _assert(add[x][neg[x]] == 0, "x + -x")
                if x:
                    _assert(mul[x][inv[x]] == 1, "x * 1/x")
        return f"{count} sampled triples plus exhaustive inverses"

    def involution():
        for fp in [(3, 2), (5, 2), (3, 4)]:
            fld = field(*fp)
            l = fld.subfield_order
            conj = fld.conj_table
            fixed = 0
            for x in range(fld.order):
                _assert(conj[conj[x]] == x, "conj involution")
                if conj[x] == x:
                    fixed += 1
            _assert(fixed == l, f"conj fixes {fixed}, expected {l}")
        return "involution and fixed-subfield size on three fields"

    def roots():
        for q_spec, n in [((5, 2), 52), ((3, 2), 16), ((7, 2), 100)]:
            fld = field(*q_spec)
            emb, gamma = primitive_root_of_unity(fld, n)
            ext = emb.ext
            _assert(ext.pow(gamma, n) == 1, "gamma^n != 1")
            for d in range(1, n):
                if n % d == 0:
                    _assert(ext.pow(gamma, d) != 1, f"order divides {d}")
        return "orders verified against all proper divisors"

    def embeddings():
        for q_spec, n in [((3, 2), 16), ((5, 2), 52)]:
            fld = field(*q_spec)
            add, mul = fld.tables.add, fld.tables.mul
            emb, _ = primitive_root_of_unity(fld, n)
            ext = emb.ext
            # the images compared in the extension's packed form, as
            # SubfieldEmbedding builds them, so the extension is not tabulated
            packed = [ext._pack(emb.embed(a)) for a in range(fld.order)]
            to_code = ext._to_code
            for a in range(fld.order):
                for bb in range(fld.order):
                    _assert(
                        emb.embed(add[a][bb]) == ext._reduce(packed[a] + packed[bb]) % to_code,
                        "embed add",
                    )
                    _assert(
                        emb.embed(mul[a][bb]) == ext._mul(packed[a], packed[bb]) % to_code,
                        "embed mul",
                    )
                _assert(emb.restrict(emb.embed(a)) == a, "restrict round trip")
        return "exhaustive pairs through two extensions"

    b.check("field axioms", axioms)
    b.check("conjugation involution", involution)
    b.check("primitive root orders", roots)
    b.check("subfield embeddings", embeddings)
    return b.report()


def suite_duals(seed: int) -> dict:
    b = Battery("duals", seed)
    F9, F25 = field(3, 2), field(5, 2)

    def dims():
        for i in range(40):
            rng = _rng(seed, i)
            fld = F9 if i % 2 else F25
            n = rng.randint(1, 6)
            c = random_code(fld, n, rng.randint(0, n), rng)
            _assert(c.k + c.euclidean_dual().k == n, "euclidean dim sum")
            _assert(c.k + c.hermitian_dual().k == n, "hermitian dim sum")
            _assert(c.euclidean_dual().euclidean_dual() == c, "double dual")
            _assert(c.hermitian_dual().hermitian_dual() == c, "double hermitian dual")
            _assert(
                c.hermitian_dual() == c.conjugate_code().euclidean_dual(),
                "hermitian via conjugate",
            )
        return "40 random codes over both fields"

    def orthogonality():
        for i in range(20):
            rng = _rng(seed, 100 + i)
            fld = F9 if i % 2 else F25
            n = rng.randint(1, 5)
            c = random_nonzero_code(fld, n, rng)
            dual = c.euclidean_dual()
            add, mul = fld.tables.add, fld.tables.mul
            for x in dual.gen.rows:
                for g in c.gen.rows:
                    acc = 0
                    for a, bb in zip(x, g):
                        acc = add[acc][mul[a][bb]]
                    _assert(acc == 0, "dual row not orthogonal")
        return "generator/dual pairings vanish"

    def mds_oracle():
        agreements = 0
        for i in range(30):
            rng = _rng(seed, 200 + i)
            fld = F9 if i % 2 else F25
            n = rng.randint(2, 6)
            c = random_nonzero_code(fld, n, rng)
            if fld.order**c.k > 10**5:
                continue
            d = c.min_distance_exhaustive(10**5).lower
            _assert(c.is_mds() == (d == c.n - c.k + 1), "certificate vs oracle")
            agreements += 1
        return f"{agreements} certificate/oracle agreements"

    def containing_needs_big_k():
        for i in range(15):
            rng = _rng(seed, 300 + i)
            fld = F9 if i % 2 else F25
            n = rng.randint(2, 6)
            c = random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng)
            _assert(c.is_hermitian_dual_containing(), "sampler broke containment")
            _assert(2 * c.k >= n, "containment with k < n/2")
        return "15 sampled dual-containing codes"

    def containment_reversal():
        for i in range(20):
            rng = _rng(seed, 400 + i)
            fld = F9 if i % 2 else F25
            n = rng.randint(2, 6)
            big = random_nonzero_code(fld, n, rng)
            take = rng.randint(0, big.k)
            small = LinearCode.from_generator(big.gen.take_rows(take))
            _assert(small.is_subcode_of(big), "construction not nested")
            _assert(
                big.hermitian_dual().is_subcode_of(small.hermitian_dual()),
                "duality does not reverse containment",
            )
        return "20 nested pairs"

    b.check("dimension identities", dims)
    b.check("dual orthogonality", orthogonality)
    b.check("mds certificate vs exhaustive oracle", mds_oracle)
    b.check("dual-containing implies 2k >= n", containing_needs_big_k)
    b.check("duality reverses containment", containment_reversal)
    return b.report()


def suite_mpc(seed: int) -> dict:
    b = Battery("mpc", seed)
    F9, F25 = field(3, 2), field(5, 2)

    def dual_identity():
        for i in range(100):
            rng = _rng(seed, i)
            fld = F9 if i % 2 else F25
            s = 2 if i % 3 else 3
            n = rng.randint(1, 6)
            codes = [random_code(fld, n, rng.randint(0, n), rng) for _ in range(s)]
            A = random_nonsingular(fld, s, rng)
            product_dual(codes, A)  # raises on inequality
        return "100 instances, both sides equal"

    def frr_bound():
        done = 0
        for i in range(200):
            if done >= 20:
                break
            rng = _rng(seed, 1000 + i)
            fld = F9
            s = rng.choice([2, 3])
            m = s + rng.choice([0, 1])
            n = rng.randint(2, 3)
            codes = [random_nonzero_code(fld, n, rng) for _ in range(s)]
            if fld.order ** sum(c.k for c in codes) > 3 * 10**4:
                continue
            A = Matrix(fld, [[rng.randrange(fld.order) for _ in range(m)] for _ in range(s)])
            if A.rank() != s:
                continue
            dists = [c.min_distance_exhaustive().lower for c in codes]
            bound = frr_distance_bound(codes, dists, A)
            product = matrix_product_code(codes, A)
            actual = product.min_distance_exhaustive(10**5).lower
            _assert(actual >= bound, f"distance {actual} under bound {bound}")
            done += 1
        return f"{done} full-row-rank instances"

    def nsc_equality():
        done = 0
        for i in range(400):
            if done >= 20:
                break
            rng = _rng(seed, 2000 + i)
            fld = F9 if i % 3 else F25
            s = rng.choice([2, 3])
            n = rng.randint(2, 4)
            codes = [random_nonzero_code(fld, n, rng) for _ in range(s)]
            if fld.order ** sum(c.k for c in codes) > 10**5:
                continue
            A = random_nsc_upper_triangular(fld, s, rng)
            dists = [c.min_distance_exhaustive().lower for c in codes]
            bound = product_distance_report(codes, dists, A)
            _assert(bound.exact, "upper triangular lost exactness flag")
            actual = matrix_product_code(codes, A).min_distance_exhaustive(10**6).lower
            _assert(actual == bound.lower, f"exact bound {bound.lower} but distance {actual}")
            done += 1
        return f"{done} upper-triangular equalities"

    def gram_closure():
        for i in range(50):
            rng = _rng(seed, 3000 + i)
            fld = F9 if i % 2 else F25
            A = random_diagonal_condition_matrix(fld, rng)
            s = A.nrows
            n = rng.randint(2, 4)
            codes = [
                random_dual_containing_code(fld, n, rng.randint(0, n // 2), rng)
                for _ in range(s)
            ]
            dual_containing_product(codes, A)  # raises unless containment holds
        return "50 products stayed dual-containing"

    def chain_closure():
        for i in range(50):
            rng = _rng(seed, 4000 + i)
            fld = F9 if i % 2 else F25
            s = rng.choice([2, 3])
            n = rng.randint(2, 5)
            chain = random_dual_containing_chain(fld, n, s, rng)
            A = random_nsc_upper_triangular(fld, s, rng)
            nested_chain_product(chain, A)  # raises unless containment holds
        return "50 chain products stayed dual-containing"

    def character_identities():
        for fld in (F9, F25):
            for r in range(1, 5):
                A = character_matrix(fld, r)
                _assert(A.conjugate() == A, "entries moved under conjugation")
                gram = A @ A.transpose()
                target = Matrix.identity(fld, 1 << r).scale(2**r % fld.p)
                _assert(gram == target, "gram is not 2^r times identity")
        return "r = 1..4 over two fields"

    b.check("product dual identity", dual_identity)
    b.check("full-row-rank bound", frr_bound)
    b.check("upper-triangular exactness", nsc_equality)
    b.check("gram-condition closure", gram_closure)
    b.check("nested chain closure", chain_closure)
    b.check("character matrix identities", character_identities)
    return b.report()


def suite_negacyclic(seed: int) -> dict:
    b = Battery("negacyclic", seed)

    def centered_dimensions():
        F25 = field(5, 2)
        for delta in range(3):
            Z = centered_defining_set(5, delta)
            _assert(len(Z) == 2 * delta + 1, "coset union size")
            C = negacyclic_code(26, F25, Z)
            _assert(C.k == 26 - len(Z), "dimension vs union size")
        F169 = field(13, 2)
        for delta in range(3):
            Z = centered_defining_set(13, delta)
            _assert(len(Z) == 2 * delta + 1, "coset union size at l=13")
            C = negacyclic_code(170, F169, Z)
            _assert(C.k == 170 - len(Z), "dimension vs union size at l=13")
        return "depths 0..2 at l = 5 and l = 13"

    def small_random_codes():
        checked = 0
        for i in range(60):
            if checked >= 12:
                break
            rng = _rng(seed, i)
            fld, n = rng.choice([(field(3, 2), 5), (field(3, 2), 7), (field(5, 2), 3)])
            two_n = 2 * n
            odd = [j for j in range(1, two_n, 2)]
            seeds = rng.sample(odd, rng.randint(0, min(3, n - 1)))
            Z = defining_set_from_residues(n, fld.order, seeds)
            if len(Z) >= n:
                continue
            C = negacyclic_code(n, fld, Z)
            if C.k == 0 or fld.order**C.k > 10**5:
                continue
            d = C.min_distance_exhaustive(10**5).lower
            _assert(bch_bound(Z) <= d, "run bound exceeds true distance")
            w = list(C.gen.rows[rng.randrange(C.k)])
            for _ in range(3):
                w = negacyclic_shift(fld, w)
                _assert(C.contains_word(w), "shift left the code")
            checked += 1
        return f"{checked} random defining sets, bound and shift closure hold"

    def monotone():
        F25 = field(5, 2)
        prev = None
        for delta in range(3):
            C = negacyclic_code(26, F25, centered_defining_set(5, delta))
            if prev is not None:
                _assert(C.is_subcode_of(prev), "larger set, larger code")
            prev = C
        F49 = field(7, 2)
        prev = None
        for delta in range(1, 4):
            C = negacyclic_code(25, F49, half_length_defining_set(7, delta))
            if prev is not None:
                _assert(C.is_subcode_of(prev), "half-length monotonicity")
            prev = C
        return "both families shrink as depth grows"

    def families_dual_containing():
        F25 = field(5, 2)
        for delta in range(3):
            C = negacyclic_code(26, F25, centered_defining_set(5, delta))
            _assert(C.is_hermitian_dual_containing(), f"centered depth {delta}")
        F49 = field(7, 2)
        for delta in range(1, 4):
            C = negacyclic_code(25, F49, half_length_defining_set(7, delta))
            _assert(C.is_hermitian_dual_containing(), f"half-length depth {delta}")
        return "explicit matrix checks for both families"

    b.check("centered family dimensions", centered_dimensions)
    b.check("random small negacyclic codes", small_random_codes)
    b.check("defining-set monotonicity", monotone)
    b.check("dual containment of both families", families_dual_containing)
    return b.report()


def suite_quantum(seed: int) -> dict:
    b = Battery("quantum", seed)

    def table_formulas():
        rows = table1_formula_audit()
        _assert(all(r["match"] for r in rows), "formula/claim mismatch")
        return f"{len(rows)} rows reproduced"

    def verified_small_builds():
        emitted = []
        for l, d, case in [(5, 4, "i"), (5, 4, "v")]:
            cb = build_case(l, d, case)
            _assert(cb.built.verified, "build not verified")
            _assert(cb.built.discrepancy is None, "unexpected discrepancy")
            emitted.append(cb.built)
        cb = build_chain(5, (0, 1, 2), "full")
        emitted.append(cb.quantum)
        for qp in emitted:
            rep = singleton_check(qp)
            _assert(rep.defect >= 0, "singleton violation escaped")
            _assert((qp.k - qp.n) % 2 == 0, "k parity differs from n")
        return f"{len(emitted)} verified records, singleton clean"

    def refusal():
        F9 = field(3, 2)
        from .code import DistanceReport

        for i in range(5):
            rng = _rng(seed, 7000 + i)
            n = rng.randint(2, 5)
            while True:
                c = random_nonzero_code(F9, n, rng)
                if not c.is_hermitian_dual_containing():
                    break
            try:
                hermitian_construction(c, DistanceReport(1, 1, "exhaustive", "exhaustive"))
                raise AssertionError("non-containing input accepted")
            except ConstructionError:
                pass
        return "5 adversarial inputs refused"

    def chain_discrepancies():
        cb = build_chain(5, (0, 1, 2), "full")
        _assert(cb.quantum.discrepancy is not None, "expected bookkeeping mismatch")
        claimed = cb.quantum.discrepancy["claimed"]
        computed = cb.quantum.discrepancy["computed"]
        _assert(claimed["k"] == 72 and computed["k"] == 60, "wrong discrepancy content")
        return "depth bookkeeping discrepancy surfaced"

    b.check("table formulas", table_formulas)
    b.check("verified builds at the smallest scale", verified_small_builds)
    b.check("construction refusal", refusal)
    b.check("chain discrepancy records", chain_discrepancies)
    return b.report()


SUITES = {
    "fields": suite_fields,
    "duals": suite_duals,
    "mpc": suite_mpc,
    "negacyclic": suite_negacyclic,
    "quantum": suite_quantum,
}


def run_suites(which: str, seed: int) -> dict:
    names = list(SUITES) if which == "all" else [which]
    if any(n not in SUITES for n in names):
        raise ValueError(f"unknown suite {which!r}; choose from {', '.join(SUITES)} or all")
    reports = [SUITES[n](seed) for n in names]
    return {
        "command": "verify",
        "which": which,
        "seed": seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
