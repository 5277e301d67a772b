"""Package surface: exported names and the shared positive-index check."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import diwt
from diwt.errors import DomainError
from diwt.kernels import KernelKind, build_kernel_table, cylinder_sin_kernel, erfc_cos_kernel
from diwt.oracles import (
    check_bessel_laplace_transform,
    check_iterated_inversion_route,
    check_kernel_index_relation,
    check_kl_reduction,
)
from diwt.specfun import incomplete_bessel_j
from diwt.transforms import (
    CoefficientSeq,
    ForwardHandle,
    FourierPolynomial,
    TransformParams,
    closed_form_coefficients,
    invert_many,
)


def _exported_names(module) -> list[str]:
    # the package re-exports through `from .x import (...)`; the modules
    # that declare an interface list it in __all__
    if module is diwt:
        tree = ast.parse(Path(diwt.__file__).read_text())
        return [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    return list(module.__all__)


EXPORTING = [diwt] + [
    m for m in (importlib.import_module(f"diwt.{info.name}")
                for info in pkgutil.iter_modules(diwt.__path__) if info.name != "__main__")
    if hasattr(m, "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    names = _exported_names(module)
    assert names
    assert [n for n in names if not hasattr(module, n)] == []


SEQ = CoefficientSeq((1.0,))
PROFILE = FourierPolynomial(sine_coeffs=(1.0,), cosine_coeffs=(0.0,))

ENTRY_POINTS = {
    "erfc_cos_kernel": lambda n: erfc_cos_kernel(n, 1.0),
    "cylinder_sin_kernel": lambda n: cylinder_sin_kernel(0.0, n, 1.0),
    "build_kernel_table": lambda n: build_kernel_table(KernelKind.CYLINDER_SIN, 0.0, [n], [1.0]),
    "incomplete_bessel_j": lambda n: incomplete_bessel_j(1.0, n),
    "closed_form_coefficients": lambda n: closed_form_coefficients(PROFILE, 0.0, n),
    "invert_many": lambda n: invert_many(ForwardHandle(SEQ, 0.0), TransformParams(0.0), [1, n]),
    "CoefficientSeq.value_at": lambda n: SEQ.value_at(n),
    "check_bessel_laplace_transform": lambda n: check_bessel_laplace_transform(n, 1.0),
    "check_kernel_index_relation": lambda n: check_kernel_index_relation(0.0, n, 1.0),
    "check_kl_reduction": lambda n: check_kl_reduction(n, 1.0),
    "check_iterated_inversion_route": lambda n: check_iterated_inversion_route(SEQ, 0.0, n),
}


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 1.5, 0],
                         ids=["inf", "-inf", "nan", "1.5", "0"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_positive_index_is_domain_error(entry, n):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](n)


def _referenced_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_exported_exceptions_are_used():
    # an exception or warning the package exports is raised, caught or
    # warned with somewhere in it; importing it alone does not count
    src = Path(diwt.__file__).parent
    used = set().union(*(_referenced_names(p) for p in src.glob("*.py")
                         if p.name not in ("errors.py", "__init__.py")))
    exported = [n for n in _exported_names(diwt)
                if isinstance(getattr(diwt, n), type) and issubclass(getattr(diwt, n), Exception)]
    assert exported
    assert [n for n in exported if n not in used] == []
