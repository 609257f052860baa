import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from helpers import (
    brute_group_checks,
    exact_det,
    fixes_mod_lattice,
    flat_torus_entry,
    hopf_affine_condition,
    lefschetz_numbers,
)

from frobenius_verify.catalog import (
    FAMILIES,
    AffineMap,
    CatalogEntry,
    GroupAction,
    Lattice,
    _det,
    classification_counts,
    contains_translations,
    flat_potential,
    hyperelliptic_catalog,
    is_free,
    isometry_defect,
    metadata_rows,
    negative_controls,
    product_lattice,
    smith_normal_form,
    square_lattice,
    validate_group,
)
from frobenius_verify.cli import Config, load_manifold_spec, main, run_verify

RHO = complex(-0.5, np.sqrt(3.0) / 2.0)


def _identity(n):
    return AffineMap(np.eye(n), np.zeros(n))


# --- Smith normal form ------------------------------------------------


def test_snf_properties_random_matrices():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        bound = int(rng.integers(1, 21))
        mat = rng.integers(-bound, bound + 1, size=(m, n))
        u, d, v = smith_normal_form(mat)
        mat_obj = np.array([[int(x) for x in row] for row in mat], dtype=object)
        assert np.array_equal(u @ mat_obj @ v, d)  # exact integer arithmetic
        assert abs(exact_det(u)) == 1
        assert abs(exact_det(v)) == 1
        # diagonal, nonnegative, divisibility chain
        diag = [int(d[i][i]) for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


# z -> iz on Z[i]^4 written in a skewed basis of the same lattice: naive
# elimination grows these entries to millions of bits
SKEWED_Z4 = [
    [5, 23, -10, 21, 7, 54, 6, 10],
    [-29, -103, 44, -86, -50, -229, -28, -25],
    [-85, -278, 118, -258, -102, -670, -75, -100],
    [-20, -56, 24, -51, 1, -142, -20, -45],
    [-14, -34, 14, -42, -4, -101, -8, -20],
    [10, 28, -12, 24, 2, 68, 10, 20],
    [-17, -55, 24, -45, 5, -134, -22, -50],
    [-14, -34, 14, -41, -5, -99, -8, -19],
]
DET_5004902 = [
    [-12, 6, -6, -11, 18, -1],
    [16, -13, -1, -6, -2, -20],
    [7, -6, 15, -12, -7, -19],
    [12, 1, -4, 17, 4, 19],
    [10, 4, 0, -12, 8, 12],
    [8, -4, -20, 10, -19, 12],
]


@pytest.mark.parametrize(
    "mat, diag",
    [(SKEWED_Z4, [1, 1, 1, 1, 2, 2, 2, 2]), (DET_5004902, [1, 1, 1, 1, 1, 5004902])],
    ids=["skewed-z4", "det-5004902"],
)
def test_snf_pinned_matrices(mat, diag):
    u, d, v = smith_normal_form(mat)
    assert np.array_equal(u @ np.array(mat, dtype=object) @ v, d)
    assert np.array_equal(d, np.diag(np.array(diag, dtype=object)))
    assert abs(exact_det(u)) == abs(exact_det(v)) == 1
    assert abs(exact_det(mat)) == math.prod(diag)


def test_snf_identity_and_zero():
    u, d, v = smith_normal_form(np.eye(3, dtype=int))
    assert np.array_equal(np.array(d, dtype=int), np.eye(3, dtype=int))
    u, d, v = smith_normal_form(np.zeros((2, 2), dtype=int))
    assert np.max(np.abs(np.array(d, dtype=int))) == 0


# --- lattice / group basics --------------------------------------------


def test_lattice_rejects_dependent_generators():
    with pytest.raises(ValueError):
        Lattice(np.array([[1.0 + 0j], [2.0 + 0j]]))


SCALES = [10.0**k for k in range(-6, 7)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_singularity_is_decided_at_the_matrix_scale(dim):
    """A square lattice is a lattice at every scale, and dependent
    generators are dependent at every scale, 1e308 included.  A map's
    linear part is not judged alone: a rank-one or zero A is a map, and
    beside the identity on the square lattice its M is singular, so the
    lattice is not stable and freeness is not asked.  Nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in SCALES:
            assert Lattice(scale * square_lattice(dim).generators).dim == dim
            AffineMap(scale * np.eye(dim), np.zeros(dim))
        AffineMap(np.diag([1e200] + [1e-200] * (dim - 1)), np.zeros(dim))
        dependent = square_lattice(dim).generators.copy()
        dependent[-1] = 0.5 * (dependent[0] + dependent[-2])
        rank_one = np.ones((dim, dim))
        singular = [np.zeros((dim, dim))]
        for scale in SCALES + [1e-300, 1e300, 1e308]:
            with pytest.raises(ValueError, match="linearly dependent over R"):
                Lattice(scale * dependent)
            AffineMap(scale * rank_one, np.zeros(dim))
            if dim > 1:  # at dim 1 a rank-one A is invertible
                singular.append(scale * rank_one)
        with pytest.raises(ValueError, match="linearly dependent over R"):
            Lattice(np.array([[1e308 + 1e308j], [1e308 + 1e308j]]))
        entry = flat_torus_entry(dim)
        for a in singular:
            action = GroupAction(entry.lattice, (_identity(dim), AffineMap(a, np.zeros(dim))))
            report = run_verify(dataclasses.replace(entry, action=action), Config(samples=2))
            assert report["group"]["lattice_stable"] is False
            assert report["group"]["free"] is None


def test_a_unimodular_linear_part_far_from_an_isometry_is_lattice_stable():
    """z -> A z on Z[i]^2 with A = [[2^20, 2^20 - 1], [2^20 + 1, 2^20]]: det A = 1,
    and the rows are nearly parallel.  The action reaches the group checks,
    which read M in GL(4, Z), a fixed point at 0 and no closure."""
    k = 2**20
    a = np.array([[k, k - 1], [k + 1, k]], dtype=float)
    spec = {
        "name": "unimodular-skew", "dim": 2, "potential": "z1*zbar1 + z2*zbar2",
        "sample_domain": {"re": [[-0.4, 0.4]] * 2, "im": [[-0.4, 0.4]] * 2},
        "lattice": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]],
        "group": [{"A": [[[x, 0] for x in row] for row in a.tolist()], "t": [[0, 0], [0, 0]]}],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_verify(load_manifold_spec(spec), Config(samples=2))
    group = report["group"]
    assert (group["lattice_stable"], group["closure"], group["free"]) == (True, False, False)
    assert report["verdict"] == "not-frobenius"


def test_integer_determinant_matches_the_oracle():
    """Fraction-free elimination is exact: it agrees with the oracle's
    determinant on random integer matrices, singular ones included."""
    rng = np.random.default_rng(58)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        mat = rng.integers(-2**40, 2**40, size=(n, n)) // 2 ** int(rng.integers(0, 41))
        if rng.random() < 0.3:
            mat[-1] = mat[0] * int(rng.integers(-3, 4))  # a dependent row
        rows = mat.tolist()
        assert _det(rows) == exact_det(rows)
        assert rows == mat.tolist()  # the argument is not changed


def test_non_finite_lattice_or_map_names_the_field():
    with pytest.raises(ValueError, match="lattice generators must be finite"):
        Lattice(np.array([[np.inf + 0j], [1j]]))
    with pytest.raises(ValueError, match="affine map A must be finite"):
        AffineMap(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(ValueError, match="^group element t has lattice coordinates"):
        GroupAction(square_lattice(1), (AffineMap(np.eye(1), np.array([np.inf])),))


def test_lattice_membership():
    lat = square_lattice(1)
    assert lat.contains(np.array([3 - 2j]))
    assert not lat.contains(np.array([0.5 + 0j]))


def test_validate_trivial_group():
    lat = square_lattice(2)
    action = GroupAction(lat, (_identity(2),), "trivial")
    assert all(validate_group(action).values())


def test_validate_z2_negation():
    lat = square_lattice(1)
    action = GroupAction(lat, (_identity(1), AffineMap(-np.eye(1), np.zeros(1))), "z2")
    assert all(validate_group(action).values())


def test_validate_irrational_rotation_not_finite():
    """A rotation of infinite order neither maps Z[i] onto itself nor
    closes up with the identity: the two checks that make a list finite."""
    lat = square_lattice(1)
    theta = 1.0  # radian rotation: infinite order
    rot = AffineMap(np.array([[np.exp(1j * theta)]]), np.zeros(1))
    action = GroupAction(lat, (_identity(1), rot), "irrational")
    checks = validate_group(action)
    assert not checks["lattice_stable"] and not checks["closure"]


def test_is_free_negation_has_fixed_point():
    lat = square_lattice(1)
    action = GroupAction(lat, (_identity(1), AffineMap(-np.eye(1), np.zeros(1))), "z2")
    free, witness = is_free(action)
    assert not free
    assert witness is not None
    # the witness is an honest fixed point on the torus
    el = action.elements[1]
    assert lat.contains(el.A @ witness + el.t - witness, tol=1e-8)


def test_is_free_half_period_translation_on_first_factor():
    lat = product_lattice([1j, 1j])
    gen = AffineMap(np.diag([1.0, -1.0]).astype(complex), np.array([0.5, 0.0]))
    action = GroupAction(lat, (_identity(2), gen), "family-1")
    free, witness = is_free(action)
    assert free and witness is None


def test_free_translation_flagged_by_translation_check():
    lat = square_lattice(1)
    shift = AffineMap(np.eye(1), np.array([0.5 + 0j]))
    action = GroupAction(lat, (_identity(1), shift), "half-shift")
    free, _ = is_free(action)
    assert free
    assert contains_translations(action)


def test_contains_translations_trivial_group():
    action = GroupAction(square_lattice(1), (_identity(1),), "trivial")
    assert not contains_translations(action)


@pytest.mark.parametrize("eps", [0.0, 5e-13, 5e-11, 2e-10])
def test_near_translation_is_a_translation_at_every_angle_below_the_match_tolerance(eps):
    """z -> e^(i eps) z + 1/2 on Z[i]: closure, finiteness and stability
    read its linear part as I within MATCH_TOL, so the translation check
    does too, and the verdict does not turn on eps."""
    spec = {
        "name": f"near-translation-{eps:g}",
        "dim": 1,
        "potential": "z1*zbar1",
        "sample_domain": {"re": [[-0.4, 0.4]], "im": [[-0.4, 0.4]]},
        "lattice": [[[1, 0]], [[0, 1]]],
        "group": [{"A": [[[1, 0]]], "t": [[0, 0]]},
                  {"A": [[[math.cos(eps), math.sin(eps)]]], "t": [[0.5, 0]]}],
    }
    entry = load_manifold_spec(spec)
    assert contains_translations(entry.action)
    assert brute_group_checks(entry.action)["contains_translations"]
    report = run_verify(entry, Config(samples=2))
    assert (report["verdict"], report["reasons"]) == (
        "not-frobenius", ["action contains translations"]
    )


@pytest.mark.parametrize(
    "eps, reasons", [(3e-10, []), (2e-9, ["group check failed: closure"])], ids=["3e-10", "2e-9"]
)
def test_one_tolerance_decides_a_moved_translation(eps, reasons):
    """hyperelliptic-Z6 with its generator's translation moved by eps:
    closure compares each composite within MATCH_TOL, and nothing else
    reads the group, so a move below it keeps the catalog's verdict and
    one that doubles past it fails closure."""
    entry = {e.name: e for e in hyperelliptic_catalog()}["hyperelliptic-Z6"]
    elements = list(entry.action.elements)
    elements[1] = AffineMap(elements[1].A, elements[1].t + np.array([eps, 0]))
    action = GroupAction(entry.lattice, tuple(elements), entry.name)
    report = run_verify(dataclasses.replace(entry, action=action), Config(samples=2))
    assert (report["verdict"], report["reasons"]) == (
        "not-frobenius" if reasons else "frobenius", reasons
    )


# --- group checks against the complex-coordinate oracle -------------------

ROOTS_OF_ORDER = {2: [-1.0], 3: [RHO, RHO**2], 4: [1j, -1j], 6: [-RHO, -RHO**2]}


def _with_identity(lattice, *maps):
    n = lattice.dim
    return GroupAction(lattice, (_identity(n),) + tuple(AffineMap(a, t) for a, t in maps))


def _fixture_actions():
    sq1, sq2 = square_lattice(1), square_lattice(2)
    zero2 = np.zeros(2)

    def linear(rows):
        return _with_identity(sq2, (np.array(rows, dtype=complex), zero2))

    sixth = [complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    return {
        "trivial": GroupAction(sq2, (_identity(2),)),
        "z2": _with_identity(sq1, (-np.eye(1), np.zeros(1))),
        "irrational": _with_identity(sq1, (np.array([[np.exp(1j)]]), np.zeros(1))),
        "half-period": _with_identity(
            product_lattice([1j, 1j]), (np.diag([1.0, -1.0]), np.array([0.5, 0.0]))
        ),
        "half-shift": _with_identity(sq1, (np.eye(1), np.array([0.5 + 0j]))),
        "translation": _with_identity(sq2, (np.eye(2), np.array([0.5, 0.0]))),
        "duplicate": _with_identity(
            sq2, (-np.eye(2), zero2), (-np.eye(2), np.array([1 + 1j, -1j]))
        ),
        "rotation-60": GroupAction(
            sq1, tuple(AffineMap(np.array([[w]]), np.zeros(1)) for w in sixth)
        ),
        # each of finite order, but they generate a cyclic group of order
        # 667 that the three listed maps are not closed under
        "orders-23-29": _with_identity(
            sq1, *[(np.array([[np.exp(2j * math.pi / k)]]), np.zeros(1)) for k in (23, 29)]
        ),
        "shear": linear([[1, 1], [0, 1]]),
        "contracting": linear([[0.5, 0], [0, 1]]),
        "tiny": linear([[1e-7, 0], [0, 1]]),
        "hyperbolic": linear([[2, 1], [1, 1]]),
    }


def _random_cyclic_actions(count, seed):
    """Cyclic groups listed as g^0..g^(k-1) for g = (diag(u, v), t): u, v
    roots of unity, t in (1/12)Z + (i/12)Z, on square or hexagonal product
    lattices.  A rotation of order 3 or 6 does not preserve the square
    lattice, and many translations leave g^k a non-lattice translation or
    g with a fixed point."""
    rng = np.random.default_rng(seed)
    actions = []
    for _ in range(count):
        order = int(rng.choice([2, 3, 4, 6]))
        lattice = product_lattice([RHO if rng.integers(2) else 1j] * 2)
        first = 1.0 if rng.random() < 0.5 else rng.choice(ROOTS_OF_ORDER[order])
        a = np.diag([first, rng.choice(ROOTS_OF_ORDER[order])]).astype(complex)
        t = (rng.integers(0, 12, 2) + 1j * rng.integers(0, 12, 2)) / 12.0
        maps, power_a, power_t = [], a, t
        for _ in range(order - 1):
            maps.append((power_a, power_t))
            power_a, power_t = a @ power_a, a @ power_t + t
        actions.append(_with_identity(lattice, *maps))
    return actions


def test_group_checks_agree_with_the_complex_coordinate_oracle():
    catalog_actions = [e.action for e in hyperelliptic_catalog() if e.action is not None]
    actions = (
        catalog_actions
        + list(_fixture_actions().values())
        + _random_cyclic_actions(200, seed=9)
    )
    counts = {"not free": 0, "not closed": 0, "not stable": 0, "not finite": 0}
    for action in actions:
        expect = brute_group_checks(action)
        report = validate_group(action)
        assert report == {key: expect[key] for key in ("closure", "lattice_stable", "faithful")}
        # a closed list of lattice automorphisms is a finite group
        assert expect["finite"] or not (report["closure"] and report["lattice_stable"])
        assert contains_translations(action) == expect["contains_translations"]
        if report["lattice_stable"]:
            free, witness = is_free(action)
            assert free == expect["free"]
            assert not (free and any(lefschetz_numbers(action)))
            assert (witness is None) == free
            if witness is not None:
                assert any(
                    fixes_mod_lattice(action.lattice, g, witness) for g in expect["moving"]
                )
        counts["not free"] += expect["free"] is False
        counts["not closed"] += not report["closure"]
        counts["not stable"] += not report["lattice_stable"]
        counts["not finite"] += not expect["finite"]
    # the random set reaches every verdict, not only the catalog's
    assert min(counts.values()) >= 10, counts


def _pairs(*values):
    return [[complex(v).real, complex(v).imag] for v in values]


# z -> iz + (1/2, 0, 0, 0) on Z[i]^4, given in a skewed basis of that lattice
Z4_SKEW_4 = {
    "name": "z4-skew-4",
    "dim": 4,
    "potential": "z1*zbar1 + z2*zbar2 + z3*zbar3 + z4*zbar4",
    "sample_domain": {"re": [[-0.4, 0.4]] * 4, "im": [[-0.4, 0.4]] * 4},
    "lattice": [
        _pairs(*gen)
        for gen in [
            (1 - 4j, 4 + 7j, 2, 0),
            (-2 - 16j, -1 + 17j, 7 + 2j, 0),
            (1 + 7j, 1 - 7j, -3 - 1j, 0),
            (-14j, 5 + 19j, 7, 1),
            (-6j, -2j, 1, -2 - 1j),
            (-2 - 36j, 8 + 51j, 18 + 2j, 2),
            (-1 - 4j, -1 + 6j, 2 + 1j, 0),
            (-2 - 6j, -2 + 14j, 4 + 2j, 2 + 1j),
        ]
    ],
    "group": [{"A": [_pairs(*row) for row in 1j * np.eye(4)], "t": _pairs(0.5, 0, 0, 0)}],
    "expected_class": "not-frobenius",
}
# an integral linear part on the square lattice Z[i]^2 with |det A|^2 = 60741
GAUSS_2 = {
    "name": "gauss-2",
    "dim": 2,
    "potential": "z1*zbar1 + z2*zbar2",
    "sample_domain": {"re": [[-0.4, 0.4]] * 2, "im": [[-0.4, 0.4]] * 2},
    "lattice": [_pairs(1, 0), _pairs(1j, 0), _pairs(0, 1), _pairs(0, 1j)],
    "group": [{"A": [_pairs(-1 - 19j, -15j), _pairs(10 + 13j, 18 + 18j)], "t": _pairs(0.5, 0)}],
}
# [[1, 19+18i], [0, 1]] @ [[1, 0], [10+13i, 1]] on Z[i]^2: det A = 1, and
# M - I has entries up to 427
UNIMODULAR_2 = dict(
    GAUSS_2,
    name="unimodular-2",
    group=[{"A": [_pairs(-43 + 427j, 19 + 18j), _pairs(10 + 13j, 1)], "t": _pairs(0.5, 0)}],
)


def test_a_linear_part_onto_a_sublattice_is_not_stable(tmp_path, capsys):
    """gauss-2's M is integral but maps Z^4 onto a sublattice of index
    60741, so it is no automorphism of the lattice and freeness is not
    asked."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GAUSS_2))
    assert main(["--json", "--samples", "2", "verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    group = report["group"]
    assert (group["lattice_stable"], group["free"], group["fixed_point_witness"]) == (
        False, None, None
    )
    assert "group check failed: lattice_stable" in report["reasons"]
    action = load_manifold_spec(GAUSS_2).action
    (g,) = action.elements
    gens = action.lattice.generators
    m = np.stack([action.lattice.coordinates(g.A @ gen) for gen in gens], axis=1)
    assert np.all(m == np.round(m)) and abs(exact_det(np.round(m))) == 60741


@pytest.mark.parametrize("spec", [Z4_SKEW_4, UNIMODULAR_2], ids=lambda spec: spec["name"])
def test_verify_finds_the_fixed_point_of_a_large_integer_part(tmp_path, capsys, spec):
    """No brute_group_checks here: its box search grows with the entries
    of M - I.  The witness is checked in complex coordinates instead."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--json", "--samples", "2", "verify", str(path)]) == 0
    group = json.loads(capsys.readouterr().out)["group"]
    assert group["lattice_stable"] and group["free"] is False
    action = load_manifold_spec(spec).action
    (g,) = action.elements
    witness = np.array([complex(re, im) for re, im in group["fixed_point_witness"]])
    assert fixes_mod_lattice(action.lattice, (g.A, g.t), witness, tol=1e-8)
    coords = action.lattice.coordinates(witness)
    assert np.all((coords > -1e-9) & (coords < 1 + 1e-9))
    assert all(lefschetz_numbers(action))


@pytest.mark.parametrize(
    "a, t, failed",
    [
        # the composite shifts overflow: no composite is a group element
        ([1, 0], [1e308, 1e308], ["closure"]),
        # the composites overflow, and M is not below 2**53
        ([1e160, 0], [0, 0], ["closure", "isometry", "lattice_stable"]),
    ],
    ids=["huge-shift", "huge-scale"],
)
def test_group_checks_that_overflow_fail_without_a_warning(tmp_path, capsys, a, t, failed):
    spec = {
        "name": "overflow",
        "dim": 1,
        "potential": "z1*zbar1",
        "sample_domain": {"re": [[-0.4, 0.4]], "im": [[-0.4, 0.4]]},
        "lattice": [[[1, 0]], [[0, 1]]],
        "group": [{"A": [[a]], "t": [t]}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--json", "--samples", "2", "verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reasons"] == [f"group check failed: {check}" for check in failed]


# --- the eight-surface catalog ------------------------------------------


def test_catalog_has_eight_entries():
    assert len(hyperelliptic_catalog()) == 8


def test_catalog_entry_validations():
    for entry in hyperelliptic_catalog():
        if entry.action is None:
            assert entry.expected_class == "torus"
            continue
        assert all(validate_group(entry.action).values()), entry.name
        free, _ = is_free(entry.action)
        assert free, entry.name
        assert not contains_translations(entry.action), entry.name
        assert isometry_defect(entry.action) < 1e-12, entry.name


def test_catalog_gaussian_lattice_stable_under_rotation():
    entry = {e.name: e for e in hyperelliptic_catalog()}["hyperelliptic-Z4"]
    lat = entry.lattice
    for gen in lat.generators:
        assert lat.contains(1j * gen)


def test_catalog_cube_root_stabilizes_hexagonal_lattice():
    # rho * 1 = rho and rho * rho = -1 - rho expand integrally in (1, rho)
    lat = product_lattice([RHO])
    coords1 = lat.coordinates(np.array([RHO]))
    coords2 = lat.coordinates(np.array([RHO * RHO]))
    assert np.allclose(coords1, np.round(coords1), atol=1e-12)
    assert np.allclose(coords2, np.round(coords2), atol=1e-12)
    assert np.allclose(np.round(coords2), [-1, -1])


def test_catalog_holonomy_labels():
    labels = {e.metadata["holonomy"] for e in hyperelliptic_catalog()}
    assert labels == {"1", "Z2", "Z2+Z2", "Z4", "Z4+Z2", "Z3", "Z3+Z3", "Z6"}


def test_catalog_reduced_group_orders():
    # the product families are stored with the pure translation absorbed
    # into the lattice, so the enumerated group is the reduced cyclic one
    expect = {
        "hyperelliptic-Z2": 2,
        "hyperelliptic-Z2xZ2": 2,
        "hyperelliptic-Z4": 4,
        "hyperelliptic-Z4xZ2": 4,
        "hyperelliptic-Z3": 3,
        "hyperelliptic-Z3xZ3": 3,
        "hyperelliptic-Z6": 6,
    }
    for entry in hyperelliptic_catalog():
        if entry.action is None:
            continue
        assert len(entry.action.elements) == expect[entry.name]
        assert entry.metadata["reduced_order"] == expect[entry.name]


def test_catalog_order_follows_the_family_table():
    # the benchmark's seeded shuffle of the entries depends on this order
    assert [row[0] for row in FAMILIES] == ["Z2", "Z2xZ2", "Z4", "Z4xZ2", "Z3", "Z3xZ3", "Z6"]
    names = [e.name for e in hyperelliptic_catalog()]
    assert names == ["torus"] + [f"hyperelliptic-{row[0]}" for row in FAMILIES]


def test_catalog_families_match_their_rows():
    entries = hyperelliptic_catalog()[1:]
    assert len(entries) == len(FAMILIES)
    for entry, (group, _, _, order, absorbed) in zip(entries, FAMILIES):
        assert len(entry.action.elements) == entry.metadata["reduced_order"] == order
        assert entry.metadata["holonomy"] == group.replace("x", "+")
        assert ("absorbed_translation" in entry.metadata) == (absorbed is not None)


def test_chartless_rows_are_new_on_every_call():
    for rows in (negative_controls, metadata_rows):
        first, second = rows(), rows()
        assert first == second
        for a, b in zip(first, second):
            assert a is not b and a["metadata"] is not b["metadata"]
            assert a.get("flags") is None or a["flags"] is not b["flags"]


def test_group_action_with_non_finite_form_names_the_part():
    # periods 1e-5: an entry of 1e308 has lattice coordinates beyond the float range
    lat = Lattice(np.array([[1e-5], [1e-5j]]))
    for key, a, t in (("A", 1e308, 0.0), ("t", -1.0, 1e308)):
        with pytest.raises(ValueError, match=f"^group element {key} has lattice coordinates"):
            GroupAction(lat, (_identity(1), AffineMap(np.array([[a]]), np.array([t]))))


def test_catalog_absorbed_translations_are_lattice_vectors():
    for entry in hyperelliptic_catalog():
        note = entry.metadata.get("absorbed_translation")
        if note is None:
            continue
        vec = np.array([complex(re, im) for re, im in note])
        assert entry.lattice.contains(vec)


def test_catalog_potentials_are_flat_quadratics():
    from frobenius_verify.expr import to_source

    for entry in hyperelliptic_catalog():
        assert to_source(entry.potential) == "z1*zbar1 + z2*zbar2"


def test_flat_torus_entry_dims():
    for n in (1, 2, 3):
        entry = flat_torus_entry(n)
        assert entry.dim == n
        assert entry.lattice.dim == n
        assert entry.potential.dim == n


# --- isometry ------------------------------------------------------------


def test_lattice_form_is_built_once_and_read_only():
    action = hyperelliptic_catalog()[3].action
    m, s = action._lattice_form
    again = action._lattice_form
    assert again[0] is m and again[1] is s
    assert not m.flags.writeable and not s.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0, 0] = 2.0
    ints = action._integer_form
    assert action._integer_form is ints and not ints.flags.writeable
    assert ints.dtype == np.int64 and np.array_equal(ints, np.round(m))


def test_isometry_defect_fixture():
    lat = square_lattice(2)
    bad = AffineMap(np.diag([2.0, 1.0]).astype(complex), np.zeros(2))
    action = GroupAction(lat, (_identity(2), bad), "stretch")
    assert isometry_defect(action) == pytest.approx(3.0)


# --- Hopf verdicts ---------------------------------------------------------


def test_hopf_affine_diagonal_contraction():
    verdict = hopf_affine_condition(0.5, 0.5, 0.0, 3)
    assert verdict.valid
    assert verdict.affine
    assert not verdict.frobenius
    assert not verdict.kahler


def test_hopf_invalid_when_constraint_violated():
    assert not hopf_affine_condition(0.5, 0.7, 1.0, 1).valid
    assert not hopf_affine_condition(0.3, 0.6, 1.0, 2).valid


def test_hopf_affine_iff_c_zero_or_m_one():
    assert hopf_affine_condition(0.5, 0.5, 0.5, 1).affine
    assert not hopf_affine_condition(0.5, 0.5, 0.5, 2).affine


def test_hopf_rejects_bad_m():
    with pytest.raises(ValueError):
        hopf_affine_condition(0.5, 0.5, 0.0, 0)


# --- counts and metadata -----------------------------------------------


def test_classification_counts():
    surfaces, threefolds = classification_counts()
    assert surfaces == 8
    assert threefolds == 174
    assert surfaces == len(hyperelliptic_catalog())


def test_negative_control_rows():
    rows = {r["spec"]: r for r in negative_controls()}
    assert rows["hopf-VII0"]["flags"] == {
        "frobenius": False,
        "affine": True,
        "kahler": False,
    }
    assert rows["k3"]["flags"]["kahler"] is True
    assert rows["ruled"]["flags"]["affine"] is False
    for r in rows.values():
        assert set(r) == {"spec", "flags", "metadata"}


def test_metadata_rows_present():
    names = {r["spec"] for r in metadata_rows()}
    assert "hantzsche-wendt" in names
    assert all(set(r) == {"spec", "metadata"} for r in metadata_rows())


def test_catalog_entry_dimension_consistency():
    with pytest.raises(ValueError):
        CatalogEntry(
            name="bad",
            dim=2,
            potential=flat_potential(1),
            lattice=None,
            action=None,
            expected_class="torus",
        )
