import contextlib

import numpy as np
import pytest

from jamag.core import AnhystereticParams, MaterialSpec
from jamag.dataio import CurveKind, MagnetizationCurve
from jamag.errors import DataError, JamagError
from jamag.validation import synthetic_curve

MS = 1.6e6
T = 303.5

# inverse Langevin references, 50-digit arithmetic: L(LINV_HALF) = 0.5, L(LINV_QUARTER) = 0.25
LINV_HALF = 1.7967559847237130411360849422776578994304731704757
LINV_QUARTER = 0.77989736865061222982583013403309986395448001285414


@pytest.fixture
def material() -> MaterialSpec:
    return MaterialSpec(Ms=MS, T=T)


@pytest.fixture
def steel_params() -> AnhystereticParams:
    return AnhystereticParams.from_shape(972.0, 1.4e-3, T)


@pytest.fixture
def steel_curve(material) -> MagnetizationCurve:
    return synthetic_curve(972.0, 1.4e-3, material, 200, 1.0e4)


def write_curve_file(path, H, M, header: str | None = "H,M", sep: str = ",") -> None:
    with open(path, "w", encoding="utf-8") as f:
        if header is not None:
            f.write(header + "\n")
        for h, m in zip(H, M):
            f.write(f"{float(h)!r}{sep}{float(m)!r}\n")


def linear_curve(n: int = 20, chi: float = 100.0, kind=CurveKind.ANHYSTERETIC) -> MagnetizationCurve:
    H = np.linspace(1.0, float(n), n)
    return MagnetizationCurve(H=H, M=chi * H, kind=kind)


@contextlib.contextmanager
def raises_numerical(match: str):
    """Expect a numerical failure: a JamagError that is not a DataError, its message matching ``match``."""
    with pytest.raises(JamagError, match=match) as info:
        yield info
    assert not isinstance(info.value, DataError)
