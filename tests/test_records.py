"""The records the library returns: immutable NamedTuples whose two
checked records, Enclosure and ReducedBasis, check on every path that
builds one, and a package import that needs no dataclasses and exports
a pinned set of names."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import sqrtgap
from sqrtgap import reduction
from sqrtgap.bounds import (
    certification_threshold,
    certify_lower_bound,
    qian_wang_instance,
    ratio_scan,
    upper_bound_from_reduction,
)
from sqrtgap.exactnum import Enclosure, RadicalSum
from sqrtgap.lattice import build_basis, gram_schmidt
from sqrtgap.oracle import brute_force
from sqrtgap.reduction import ReducedBasis, ReductionError, enumerate_shortest, verify_reduced
from sqrtgap.squarefree import squarefree_upto

from reference import lll

SRC = Path(__file__).resolve().parents[1] / "src"

# each record's fields, in order: position and name both read them
FIELDS = {
    "Enclosure": ("lo", "hi", "precision_bits"),
    "RadicalSum": ("terms", "offset"),
    "LatticeBasis": ("rows", "radicands", "scale"),
    "GramSchmidtProfile": ("norms_sq", "min_norm_sq", "gram_det"),
    "ReducedBasis": ("rows", "swaps", "tours", "profile"),
    "ShortestVector": ("vector", "norm_sq"),
    "Threshold": ("value",),
    "LowerBoundCertificate": ("k", "scale", "min_gs_norm_sq", "threshold", "swaps", "tours"),
    "UpperBoundWitness": ("coefficients", "offset", "radicands", "scale", "first_coord", "value",
                          "bound", "n_effective", "swaps", "tours"),
    "QianWangInstance": ("k", "t", "value", "rhs_sq", "rhs_log10"),
    "RatioCell": ("k", "log10_scale", "shortest_row_norm_sq", "min_gs_norm_sq", "ratio",
                  "conjecture_violation"),
    "BruteForceResult": ("value", "witness", "instance_count"),
}


@pytest.fixture(scope="module")
def records():
    """One record of each kind, built as the library builds them."""
    basis = build_basis(squarefree_upto(5), 10**8)
    return [
        Enclosure(Fraction(1, 3), Fraction(1, 2), 8),
        RadicalSum.from_terms([(1, 2), (-1, 3)], offset=1),
        basis,
        gram_schmidt(basis),
        lll(basis),
        enumerate_shortest(basis),
        certification_threshold(5),
        certify_lower_bound(3, 10**12),
        upper_bound_from_reduction(4, 10**12),
        qian_wang_instance(3, 2),
        ratio_scan([3], [8])[0],
        brute_force(5, 3, "R"),
    ]


def _rebuilt(record):
    """The record built again by its constructor from copies of its fields."""
    fields = copy.deepcopy(tuple(record))
    if isinstance(record, ReducedBasis):
        rows, swaps, tours, _ = fields
        return ReducedBasis(rows, swaps, tours=tours)
    return type(record)(*fields)


def test_every_record_kind_is_covered(records):
    assert sorted(type(r).__name__ for r in records) == sorted(FIELDS)


def test_records_are_immutable(records):
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.note = "attached"


def test_records_built_from_equal_fields_are_equal(records):
    for record in records:
        twin = _rebuilt(record)
        assert twin is not record and type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record


def test_record_fields_and_repr(records):
    for record in records:
        name = type(record).__name__
        assert record._fields == FIELDS[name]
        if name != "Enclosure":  # its own repr is pinned in test_exactnum
            fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
            assert repr(record) == f"{name}({fields})"


def test_enclosure_replace_keeps_its_checks(lowest_digit_limit):
    enc = Enclosure(Fraction(1, 3), Fraction(1, 2), 8)
    assert enc._replace(lo=Fraction(1, 4)) == Enclosure(Fraction(1, 4), Fraction(1, 2), 8)
    with pytest.raises(ValueError, match=r"inverted interval \[3/2, 1/2\]"):
        enc._replace(lo=enc.hi + 1)
    # endpoints past the int-to-str digit limit are quoted, not str()-ed
    with pytest.raises(ValueError, match=r"inverted interval \[10{5000}, 0\]"):
        Enclosure(Fraction(10**5000), Fraction(0), 1)
    with pytest.raises(ValueError, match="precision_bits"):
        enc._replace(precision_bits=0)


def test_reduced_basis_takes_tours_by_keyword_and_no_profile():
    rb = lll(build_basis(squarefree_upto(5), 10**20))
    assert ReducedBasis(rb.rows, rb.swaps, tours=3).tours == 3
    with pytest.raises(TypeError):
        ReducedBasis(rb.rows, rb.swaps, 3)
    with pytest.raises(TypeError):
        ReducedBasis(rb.rows, rb.swaps, profile=rb.profile)


def test_reduced_basis_replace_verifies_its_rows_again(monkeypatch):
    basis = build_basis(squarefree_upto(5), 10**20)
    rb = lll(basis)
    with pytest.raises(ReductionError):  # the raw basis is not reduced at this scale
        rb._replace(rows=basis.rows)
    other = gram_schmidt(basis)
    assert other != rb.profile
    calls = []
    monkeypatch.setattr(reduction, "verify_reduced", lambda rows: calls.append(rows) or verify_reduced(rows))
    got = rb._replace(profile=other, swaps=0)
    assert calls == [rb.rows]
    assert got.profile == verify_reduced(rb.rows) and got.profile != other
    assert (got.rows, got.swaps, got.tours) == (rb.rows, 0, rb.tours)


# sqrtgap's public names: adding one or dropping one is a deliberate change
PUBLIC_NAMES = {
    "BruteForceResult", "DependentRowsError", "Enclosure", "GramSchmidtProfile", "LatticeBasis",
    "LowerBoundCertificate", "NoCertificateError", "PrecisionExhausted", "QianWangInstance", "RadicalSum",
    "RatioCell", "ReducedBasis", "ReductionError", "ShortestVector", "Threshold", "UpperBoundWitness",
    "abs_at_most", "bkz", "brute_force", "build_basis", "certification_threshold", "certify_lower_bound",
    "certify_sign", "compare_abs", "dyadic_decimal", "enclose_radical_sum", "enumerate_shortest",
    "find_lower_bound", "gram_schmidt", "is_squarefree", "nth_squarefree", "prime_count", "qian_wang_instance",
    "ratio_scan", "reduced_profile", "root_separation_log10", "row_witness", "scaled_nearest_sqrt",
    "squarefree_decompose", "squarefree_upto", "upper_bound_from_reduction",
}


def test_public_names_are_pinned():
    # the submodules are attributes too, cli once a test has imported it
    names = {
        name for name, value in vars(sqrtgap).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert names == PUBLIC_NAMES
    for name in ("determinant", "lll"):  # the tests' references, in tests/reference.py
        with pytest.raises(AttributeError):
            getattr(sqrtgap, name)
    assert not hasattr(reduction, "windows_are_shortest")  # in tests/reference.py too


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # the modules loaded when -c starts are those `python -I -c pass` loads,
    # site's .pth files included; only what the import adds counts
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import sqrtgap, sqrtgap.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    added = set(done.stdout.split())
    assert "sqrtgap.cli" in added
    assert not added & {"dataclasses", "inspect"}
